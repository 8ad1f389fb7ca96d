"""The safety-ceiling table, its one reader and its one gate, and package
hygiene."""
import ast
import re
from pathlib import Path

import pytest

import treechild
from treechild.params import CEILINGS, ceiling, within

SRC = Path(treechild.__file__).resolve().parent


def test_defaults():
    assert CEILINGS == {"WORD": 5, "BLOWUP_N": 8, "BLOWUP_K": 3, "ONECOMP": 200, "GENERAL": 25}
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
