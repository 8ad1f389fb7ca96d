"""The integer-argument rule, the safety-ceiling table, its one reader and
its one gate, the exactness helpers, and package hygiene."""
import ast
import inspect
import re
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, strategies as st

import treechild
from treechild import asymptotics, compgraphs, distributions, onecomp, pathlength, verify, words
from treechild.compgraphs import LaurentPoly
from treechild.distributions import Pmf
from treechild.logvalue import LogValue, log_of_int
from treechild.params import (
    CEILINGS, ExactnessError, Params, at_least, ceiling, exact_div, exact_shift, within,
)

SRC = Path(treechild.__file__).resolve().parent


def test_defaults():
    assert CEILINGS == {"WORD": 5, "BLOWUP_K": 3, "ONECOMP": 200, "GENERAL": 25}
    assert {name: ceiling(name) for name in CEILINGS} == CEILINGS


def test_ceiling_reads_the_environment_at_call_time(monkeypatch):
    monkeypatch.setenv("TREECHILD_WORD_CEILING", "7")
    assert ceiling("WORD") == 7
    monkeypatch.setenv("TREECHILD_WORD_CEILING", "0")
    assert ceiling("WORD") == 0
    monkeypatch.delenv("TREECHILD_WORD_CEILING")
    assert ceiling("WORD") == 5
    for bad in ("", "x", "-2", "1e3"):
        monkeypatch.setenv("TREECHILD_GENERAL_CEILING", bad)
        with pytest.raises(ValueError, match="TREECHILD_GENERAL_CEILING"):
            ceiling("GENERAL")
    with pytest.raises(KeyError):
        ceiling("NOPE")


def test_within_names_the_value_the_ceiling_and_its_variable(monkeypatch):
    within("WORD", 5, "n")  # at the ceiling: admitted
    with pytest.raises(ValueError) as refused:
        within("WORD", 6, "n")
    assert str(refused.value) == (
        "n = 6 exceeds the WORD ceiling 5 (set TREECHILD_WORD_CEILING to raise it)"
    )
    monkeypatch.setenv("TREECHILD_BLOWUP_K_CEILING", "1")
    with pytest.raises(ValueError, match=r"^k = 2 exceeds the BLOWUP_K ceiling 1 "):
        within("BLOWUP_K", 2, "k")
    monkeypatch.setenv("TREECHILD_BLOWUP_K_CEILING", "x")
    with pytest.raises(ValueError, match="TREECHILD_BLOWUP_K_CEILING must be"):
        within("BLOWUP_K", 0, "k")


def _raised_strings(tree: ast.AST):
    """The string pieces of every raise statement in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            for part in ast.walk(node):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.value


def test_ceiling_policy_lives_in_params():
    constant = re.compile(r"^\s*\w*_CEILING\s*[:=]", re.MULTILINE)
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "params.py" in modules
    readers = set()
    for path in modules:
        if path.name == "params.py":
            continue
        text = path.read_text()
        assert "os.environ" not in text, path.name
        assert not constant.search(text), path.name
        tree = ast.parse(text)
        # every refusal is formatted by params.within, nowhere else
        for piece in _raised_strings(tree):
            assert "ceiling" not in piece.lower(), (path.name, piece)
            assert "exceeds" not in piece, (path.name, piece)
        if any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ceiling"
            for node in ast.walk(tree)
        ):
            readers.add(path.name)
    # the suites size their loops by the ceilings, and `asymp ratio` adds its
    # word-route fields only under GENERAL; every other route goes through
    # the gate
    assert readers == {"verify.py", "cli.py"}


def test_only_words_forks_and_frames():
    # the second process, its pipes and its frame format are words._forked's;
    # every other module goes through it
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
                names = {f"os.{node.attr}"}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module, *(f"{node.module}.{a.name}" for a in node.names)}
            elif isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            else:
                continue
            if names & {"os.fork", "os.pipe", "os.waitpid", "marshal"}:
                users.add(path.name)
    assert users == {"words.py"}


def test_every_private_helper_is_used():
    # a private module-level function or class that nothing else in the
    # package names is dead code; a call from its own body does not count
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = []  # (module, name, its top-level definition)
    references = []  # (top-level statement, name it references)
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                name = stmt.name
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name, stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    references.append((stmt, node.id))
                elif isinstance(node, ast.Attribute):
                    references.append((stmt, node.attr))
    assert defined
    for module, name, definition in defined:
        used = any(
            ref == name and stmt is not definition for stmt, ref in references
        )
        assert used, f"{module}: {name} is never used"
    # a helper of params that no other module names is dead code too
    others = {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in trees.items() if module != "params.py"
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    }
    helpers = [stmt.name for stmt in trees["params.py"].body if isinstance(stmt, ast.FunctionDef)]
    assert "exact_div" in helpers
    for name in helpers:
        assert name in others, f"params.py: {name} is named by no other module"


def _star(d, n, k):
    return compgraphs.count_star(Params(d, n, k))


def _first_word(d, n, k):
    return next(words.enumerate_words(d, n, k))


def _first_graph(d, m):
    return next(compgraphs.enumerate_component_graphs(d, m))


# (public function, valid arguments, integer parameter, its least value):
# every public integer parameter of the package, by the name its signature
# gives it
INTEGER_ARGUMENTS = [
    (Params, (2, 3, 1), "d", 2),
    (Params, (2, 3, 1), "n", 1),
    (Params, (2, 3, 1), "k", 0),
    # onecomp
    (onecomp.double_factorial, (5,), "m", -1),
    (onecomp.count_phylo_trees, (3,), "n", 1),
    (onecomp.otc_row, (2, 3), "d", 2),
    (onecomp.otc_row, (2, 3), "n", 1),
    (onecomp.count_otc_total, (2, 3), "n", 1),
    (onecomp.count_otc, (2, 3, 1), "k", 0),
    (onecomp.count_otc_direct, (2, 3, 1), "k", 0),
    (onecomp.node_census, (2, 3, 1), "n", 1),
    # pathlength
    (pathlength.path_length_total, (2, 3, 1), "k", 0),
    (pathlength.path_length_total_recurrence, (2, 3, 1), "n", 1),
    (pathlength.unary_binary_path_length, (2, 1), "L", 1),
    (pathlength.unary_binary_path_length, (2, 1), "K", 0),
    (pathlength.expected_path_length, (2, 3), "d", 2),
    (pathlength.expected_path_length, (2, 3), "n", 2),
    (pathlength.expected_path_length_reference, (3,), "d", 2),
    (pathlength.expected_path_length_trend, (2, [3]), "d", 2),
    # words
    (words.is_valid_word, (2, words.Word.from_string("aabb")), "d", 2),
    (_first_word, (2, 3, 1), "d", 2),
    (_first_word, (2, 3, 1), "n", 0),
    (_first_word, (2, 3, 1), "k", 0),
    (words.count_words_direct, (2, 3, 1), "n", 0),
    (words.count_words_direct, (2, 3, 1), "k", 0),
    (words.count_words, (2, 3, 1), "d", 2),
    (words.count_words, (2, 3, 1), "n", 0),
    (words.count_words, (2, 3, 1), "k", 0),
    (words.tc_row, (2, 3), "d", 2),
    (words.tc_row, (2, 3), "n", 1),
    (words.count_tc_total, (2, 3), "n", 1),
    (words.tc_table, (2, 3), "d", 2),
    (words.tc_table, (2, 3), "n_max", 1),
    (words.b_max_table, (2, 3), "d", 2),
    (words.b_max_table, (2, 3), "n_max", 1),
    (words.b_max_table_binomial, (2, 3), "d", 2),
    (words.b_max_table_binomial, (2, 3), "n_max", 1),
    (words.lambda_factor, (2,), "d", 2),
    (words.e_table, (2, 3), "d", 2),
    (words.e_table, (2, 3), "n_max", 2),
    # compgraphs
    (_first_graph, (2, 2), "d", 2),
    (_first_graph, (2, 2), "m", 1),
    (compgraphs.count_component_graphs, (2, 3, 1), "d", 2),
    (compgraphs.count_component_graphs, (2, 3, 1), "m", 1),
    (compgraphs.count_component_graphs, (2, 3, 1), "s", 1),
    (compgraphs.count_component_graphs_total, (2, 3), "d", 2),
    (compgraphs.count_component_graphs_total, (2, 3), "m", 1),
    (_star, (2, 3, 1), "k", 1),
    (compgraphs.f_laurent, (2,), "d", 0),
    (compgraphs.z_coefficient, (LaurentPoly({1: 1}), 3), "n", 0),
    (compgraphs.count_tc_genfun_k1, (2, 3), "d", 2),
    (compgraphs.count_tc_genfun_k1, (2, 3), "n", 2),
    (compgraphs.count_tc_genfun_k2, (2, 3), "d", 2),
    (compgraphs.count_tc_genfun_k2, (2, 3), "n", 3),
    (compgraphs.tc_k1_closed_form, (2, 3), "d", 2),
    (compgraphs.tc_k1_closed_form, (2, 3), "n", 2),
    (compgraphs.tc_k2_closed_form, (2, 3), "d", 2),
    (compgraphs.tc_k2_closed_form, (2, 3), "n", 3),
    (compgraphs.structural_k1_polynomial, (2,), "d", 2),
    (compgraphs.asympt_tc_fixed_k, (2, 3, 1), "d", 2),
    (compgraphs.asympt_tc_fixed_k, (2, 3, 1), "n", 1),
    (compgraphs.asympt_tc_fixed_k, (2, 3, 1), "k", 0),
    # distributions
    (distributions.ret_pmf, ("general", 2, 3), "d", 2),
    (distributions.ret_pmf, ("onecomp", 2, 3), "n", 1),
    (distributions.twig_expectation_bound, (2, 3), "n", 1),
    (distributions.normal_cdf_diagnostic, (3,), "n", 1),
    (distributions.normal_sup_gap, (Pmf({0: 1}), 3), "n", 1),
    (distributions.moment, (Pmf({0: 1}), 1), "r", 1),
    # asymptotics
    (asymptotics.params, (2,), "d", 2),
    (asymptotics.bessel_I, (1, 2), "v", 0),
    (asymptotics.otc_asymptotic, (2, 10), "d", 2),
    (asymptotics.otc_asymptotic, (2, 10), "n", 2),
    (asymptotics.otc_asymptotic_ratio, (2, 10), "n", 2),
    (asymptotics.otc_max_k_ratio, (2, 10), "n", 1),
    (asymptotics.tc_envelope, (2, 10), "d", 2),
    (asymptotics.tc_envelope, (2, 10), "n", 2),
    (asymptotics.tc_envelope_ratio, (2, [3]), "d", 2),
    (asymptotics.ratio_sqrt_e, (2, 3), "d", 2),
    (asymptotics.ratio_sqrt_e, (2, 3), "n", 2),
    (asymptotics.ratio_sqrt_e_reference, (2,), "d", 2),
    # logvalue
    (log_of_int, (5,), "value", 1),
    (LogValue(0.0).ratio_to, (5,), "exact", 1),
    # verify
    (verify.run_suite, ("golden-tables", 2, 2), "d", 2),
    (verify.run_suite, ("golden-tables", 2, 2), "n_max", 1),
]


def _call_with(fn, args, name, value):
    bound = inspect.signature(fn).bind(*args)
    bound.arguments[name] = value
    return fn(*bound.args, **bound.kwargs)


@pytest.mark.parametrize(
    "fn, args, name, least",
    INTEGER_ARGUMENTS,
    ids=[f"{fn.__qualname__}-{name}" for fn, _, name, _ in INTEGER_ARGUMENTS],
)
def test_every_integer_parameter_obeys_the_rule(fn, args, name, least):
    valid = inspect.signature(fn).bind(*args).arguments[name]
    _call_with(fn, args, name, valid)  # the valid arguments are admitted
    with pytest.raises(ValueError) as refused:
        _call_with(fn, args, name, least - 1)
    assert str(refused.value) == f"{name} must be an int >= {least}, got {least - 1}"
    for bad in (float(valid), valid + 0.5, True):
        with pytest.raises(ValueError) as refused:
            _call_with(fn, args, name, bad)
        # a Params-taking route refuses a float or a bool by Params' bound,
        # which can lie below the route's own
        form = rf"{name} must be an int >= -?\d+, got {re.escape(repr(bad))}"
        assert re.fullmatch(form, str(refused.value)), str(refused.value)


def test_motivating_floats_and_bools_are_refused():
    # each of these returned a number before the rule reached them
    cases = [
        (onecomp.double_factorial, (5.0,), "m must be an int >= -1, got 5.0"),
        (onecomp.count_phylo_trees, (3.0,), "n must be an int >= 1, got 3.0"),
        (compgraphs.tc_k1_closed_form, (2, 3.0), "n must be an int >= 2, got 3.0"),
        (words.count_words, (2, 3, True), "k must be an int >= 0, got True"),
        (compgraphs.count_component_graphs, (2, 3, True), "s must be an int >= 1, got True"),
        (asymptotics.otc_asymptotic, (2.5, 10), "d must be an int >= 2, got 2.5"),
    ]
    for fn, args, message in cases:
        with pytest.raises(ValueError) as refused:
            fn(*args)
        assert str(refused.value) == message


@pytest.mark.parametrize("fn", [asymptotics.tc_envelope_ratio, pathlength.expected_path_length_trend])
def test_grid_entries_obey_the_rule(fn):
    for bad in (3.0, True, 1):
        with pytest.raises(ValueError, match=rf"^n must be an int >= 2, got {bad!r}$"):
            fn(2, [4, bad])


def test_at_least():
    at_least(0)
    at_least(2, d=2, n=10**40)
    at_least(-1, m=-1)
    with pytest.raises(ValueError) as refused:
        at_least(2, d=2, n=1)
    assert str(refused.value) == "n must be an int >= 2, got 1"
    for bad, shown in ((2.0, "2.0"), (False, "False"), ("3", "'3'"), (None, "None")):
        with pytest.raises(ValueError) as refused:
            at_least(0, k=bad)
        assert str(refused.value) == f"k must be an int >= 0, got {shown}"


def test_integer_bounds_live_in_params():
    # outside params only bounds that tie two arguments together are raised
    # by hand: k <= n (words), s <= max(m-1, 1) (compgraphs)
    bound = re.compile(r"(>=|must be at least|positive integer)")
    for path in sorted(SRC.glob("*.py")):
        if path.name == "params.py":
            continue
        for piece in _raised_strings(ast.parse(path.read_text())):
            assert not bound.search(piece), (path.name, piece)


def test_exact_div_names_its_operands_by_bit_length():
    assert exact_div(10**5000, 10) == 10**4999
    with pytest.raises(ExactnessError) as refused:
        exact_div(13, 4)
    assert str(refused.value) == (
        "division of a 4-bit integer by a 3-bit integer is not exact"
    )
    # past the interpreter's int-to-string limit the message still builds
    with pytest.raises(ExactnessError, match="^division of a 16610-bit integer by a 4-bit"):
        exact_div(10**5000 + 1, 10)


@given(st.integers(min_value=-(2**300), max_value=2**300), st.integers(min_value=0, max_value=200))
def test_exact_shift_is_exact_div_by_a_power_of_two(num, e):
    exact = num << e
    assert exact_shift(exact, e) == exact_div(exact, 2**e) == num
    for off in (num, exact + 1, exact - 1):
        try:
            want = exact_div(off, 2**e)
        except ExactnessError as refused:
            with pytest.raises(ExactnessError) as shifted:
                exact_shift(off, e)
            assert str(shifted.value) == str(refused)
            assert str(refused).startswith("division of a")
        else:
            assert exact_shift(off, e) == want


def test_exact_shift_names_its_operands_by_bit_length():
    with pytest.raises(ExactnessError) as refused:
        exact_shift(13, 2)
    assert str(refused.value) == (
        "division of a 4-bit integer by a 3-bit integer is not exact"
    )
    with pytest.raises(ExactnessError, match="^division of a 16610-bit integer by a 11-bit"):
        exact_shift(10**5000 + 2**9, 10)


def test_exactness_checks_live_in_params():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "_exact_div" not in text, path.name
        if path.name != "params.py":
            assert "denominator != 1" not in text, path.name
            assert "divmod" not in text, path.name
            # a failed check is an ExactnessError, never a bare ArithmeticError
            assert "raise ArithmeticError" not in text, path.name
        # exact_div and exact_shift are the only exactness helpers
        assert not re.search(r"\bintegral\b", text), path.name
    # the integer routes compute in ints and divide once through exact_div
    for fn in (words.b_max_table, compgraphs.tc_k1_closed_form, compgraphs.tc_k2_closed_form):
        tree = ast.parse(inspect.getsource(fn))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert "Fraction" not in names, fn.__name__
        assert "exact_div" in names, fn.__name__


def test_only_cli_run_chooses_an_exit_code():
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {
        stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)
    }
    for name, fn in functions.items():
        names = {
            node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
        }
        if name not in ("run", "main"):
            assert not names & {"SystemExit", "VERIFY_FAILED"}, name
        if name.startswith("_cmd_"):
            returns = [node for node in ast.walk(fn) if isinstance(node, ast.Return)]
            assert all(node.value is None for node in returns), name
    assert {"_cmd_count", "_cmd_table", "_cmd_dist", "_cmd_asymp", "_cmd_verify"} <= set(functions)


def test_all_lists_every_public_name_once():
    public = {
        name for name, value in vars(treechild).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert treechild.__all__ == sorted(public)
    assert len(treechild.__all__) == 71
    namespace: dict = {}
    exec("from treechild import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == public
    assert all(namespace[name] is getattr(treechild, name) for name in public)
