"""Component graphs, the blow-up count, and generating-function routes.

Collapsing each tree component of a tree-child network to a single node
leaves a labeled multigraph: a rooted DAG in which every non-root node has
in-degree exactly d (one labeled node per tree component, k+1 nodes for k
reticulations).  Blowing the nodes of such a graph back up into small
trees yields a second algorithm for the network counts, independent of the
word recurrence, and it reduces to one coefficient extraction from the
derived series f_g in X = sqrt(1-4z).

  enumerate_component_graphs  literal generation by the definition, for
                              the `oracle` suite, the tests and demo 03
  count_component_graphs      inclusion-exclusion over marked sinks
  count_tc_compgraph          the blow-up, [z^n] of one cached series
  count_star                  the sub-sum over star graphs only

The graph counts and the blow-up series are both inclusion-exclusion over
marked sinks: marking j sinks leaves any graph on the other nodes, and each
marked sink takes d parents among them, so no count enumerates a graph.
Also here: a generating-function route for k = 1 and k = 2 built on a small
Laurent-polynomial calculus in X = sqrt(1-4z), its closed forms for
d in {2, 3}, and the fixed-k first-order asymptotic.  The only denominator
of the series is the 1/2 in f_0, so the sweep holds F_g = 2 f_g in integers
and each series, blow-up or closed-form count divides once, remainder-checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, factorial, lgamma, log, perm, pi, prod
from typing import Iterator

from .logvalue import LogValue
from .onecomp import double_factorial
from .params import ExactnessError, Params, at_least, exact_div, within


@dataclass(frozen=True)
class ComponentGraph:
    """Labeled multi-edge DAG on nodes 1..m (stored 0-based).

    mult[u][v] is the number of parallel edges from node u+1 to node v+1.
    The root has in-degree 0; every other node has in-degree exactly d.
    """

    m: int
    root: int
    mult: tuple[tuple[int, ...], ...]

    def in_degree(self, v: int) -> int:
        return sum(self.mult[u][v] for u in range(self.m))

    def out_degree(self, u: int) -> int:
        return sum(self.mult[u])

    def sinks(self) -> list[int]:
        """Nodes with out-degree 0; the graph counts stratify by their number."""
        return [v for v in range(self.m) if self.out_degree(v) == 0]


def enumerate_component_graphs(d: int, m: int) -> Iterator[ComponentGraph]:
    """Yield every component graph on m labeled nodes exactly once.

    By the definition: a root, and a d-multiset of parents for every other
    node, such that the graph is acyclic.  Acyclicity depends only on each
    node's set of distinct parents, so each node's multisets are grouped by
    that set once, before the roots are tried, and each combination of sets
    is tested once: it is acyclic when placing, from the root, every node
    whose parents are all placed reaches every node.  Exponential in m,
    hence the ceiling m <= BLOWUP_K + 1, the graph size of the blow-up's
    largest k.
    """
    at_least(2, d=d)
    at_least(1, m=m)
    within("BLOWUP_K", m - 1, "graph size m - 1")
    nodes = range(m)
    groups: list[dict[frozenset, list]] = [{} for _ in nodes]
    for v in nodes:
        for parents in combinations_with_replacement([u for u in nodes if u != v], d):
            groups[v].setdefault(frozenset(parents), []).append(parents)
    for root in nodes:
        others = [v for v in nodes if v != root]
        for parent_sets in product(*(groups[v] for v in others)):
            # each pass places at least one more node of an acyclic graph,
            # and no node on a cycle is ever placed
            placed = {root}
            for _ in others:
                placed.update(v for v, ps in zip(others, parent_sets) if ps <= placed)
            if len(placed) < m:
                continue
            picks = [groups[v][ps] for v, ps in zip(others, parent_sets)]
            for pick in product(*picks):
                mult = [[0] * m for _ in range(m)]
                for v, parents in zip(others, pick):
                    for u in parents:
                        mult[u][v] += 1
                yield ComponentGraph(
                    m=m, root=root, mult=tuple(tuple(r) for r in mult)
                )


def _marked_sinks(d: int, m: int) -> tuple[list[int], int]:
    # ([N(m, 1), ..., N(m, m-1)], A(m)): N(m, j) = C(m, j) c_r^j A(r) graphs on
    # m nodes have j marked sinks, each with c_r = C(r+d-1, d) parent multisets
    # among the r = m - j others (any graph); A(m) = sum_j (-1)^(j+1) N(m, j)
    total, states, row, pascal = 1, [], [], [1, 1]
    for x in range(2, m + 1):
        states = [s * comb(r + d - 1, d) for r, s in enumerate(states + [total], start=1)]
        pascal = [a + b for a, b in zip([0, *pascal], [*pascal, 0])]
        row = [c * s for c, s in zip(pascal[1:], reversed(states))]
        total = sum(row[::2]) - sum(row[1::2])
    return row, total


def count_component_graphs(d: int, m: int, s: int) -> int:
    """Component graphs on m labeled nodes with exactly s sinks:
    sum_{j >= s} (-1)^(j-s) C(j, s) N(m, j) over the marked-sink counts."""
    at_least(2, d=d)
    at_least(1, m=m, s=s)
    if s > max(m - 1, 1):
        raise ValueError(f"need s <= max(m-1, 1), got m={m}, s={s}")
    row = _marked_sinks(d, m)[0][s - 1:]
    return sum((-1) ** i * comb(i + s, s) * n for i, n in enumerate(row)) if m > 1 else 1


def count_component_graphs_total(d: int, m: int) -> int:
    """All component graphs on m labeled nodes."""
    at_least(2, d=d)
    at_least(1, m=m)
    return _marked_sinks(d, m)[1]


@lru_cache(maxsize=None)
def _blowup_series(d: int, m: int) -> LaurentPoly:
    """S(m) = sum_G w'_G prod_j F_{g_j} over the component graphs on m nodes,
    with F_g = 2 f_g and w'_G = (d!)^(m-1) / prod_j w_j, the number of ordered
    d-tuples of parents of the non-root nodes.  Marking j sinks leaves any
    graph on the other m - j nodes, and each marked sink is a factor F_0 with
    d more out-edges among them: S(1) = F_0 and S(m) = sum_{j=1}^{m-1}
    (-1)^(j+1) C(m, j) F_0^j L^(jd) S(m - j), L of `_add_edge`.  Built
    bottom-up with no graph enumerated; cached, so `count_tc_compgraph`
    checks its ceiling first."""
    f0 = LaurentPoly({0: 1, 1: -1})
    series, powers, states = f0, [f0], []
    for x in range(2, m + 1):
        # one more marked sink per base r: d edges onto x - 1 nodes with d(x - 2)
        states.append(series)
        for r, state in enumerate(states, start=1):
            for e in range(d * (x - 2), d * (x - 1)):
                state = _add_edge(state, e - r)
            states[r - 1] = state
        series = sum(((powers[j - 1] * states[x - j - 1]).scale((-1) ** (j + 1) * comb(x, j))
                      for j in range(1, x)), LaurentPoly())
        powers.append(powers[-1] * f0)
    return series


def count_tc_compgraph(p: Params) -> int:
    """Tree-child networks counted by the blow-up over component graphs:

        TC(n, k) = n! / ((k+1)! 2^(n-k-1)) [z^n] sum_G prod_j f_{g_j} / w_j

    over the graphs G on k+1 nodes, with g_j node j's out-degree and w_j =
    prod_l g_{j,l}! its edge-multiplicity factorials.  A node blown up into
    b leaves contributes b! [z^b] f_{g_j} / w_j; relabeling the nodes of a
    graph gives another graph, so ordered blocks overcount the leaf
    partitions by exactly (k+1)!.  On the integer series S of `_blowup_series`
    this is n! [z^n] S / ((k+1)! (d!)^k 2^n), one checked division.  The
    test suite pins it to the word route and to the block-size shape sum.
    """
    d, n, k = p.d, p.n, p.k
    within("BLOWUP_K", k, "k")
    s = z_coefficient(_blowup_series(d, k + 1), n)
    return exact_div(factorial(n) * s, factorial(k + 1) * factorial(d) ** k * 2 ** n)


def count_star(p: Params) -> int:
    """Networks whose component graph is a star (all reticulations hang
    directly off the root component).

    sum_j A_j perm(n, j) perm(2n-k-2j-1, n-j-1) / ((d!)^k 2^(n-k-1) (k-1)!),
    with the integer A_j = (2j+dk-2)!/(j!(j-1)!), divided once.

    Equals the full count for k = 1 and is a lower bound in general.
    """
    d, n, k = p.d, p.n, p.k
    at_least(1, k=k)
    s = sum(
        exact_div(factorial(2 * j + d * k - 2), factorial(j) * factorial(j - 1))
        * perm(n, j) * perm(2 * n - k - 2 * j - 1, n - j - 1)
        for j in range(1, n - k + 1)
    )
    return exact_div(s, factorial(d) ** k * 2 ** (n - k - 1) * factorial(k - 1))


# ---------------------------------------------------------------------------
# Laurent calculus in X = sqrt(1-4z)


class LaurentPoly:
    """Finitely supported exact Laurent polynomial in X; int coefficients stay int."""

    def __init__(self, coefficients=None):
        self.coefficients = {
            e: v if type(v) is int else Fraction(v)
            for e, v in (coefficients or {}).items() if v
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coefficients == other.coefficients

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        r = dict(self.coefficients)
        for e, v in other.coefficients.items():
            r[e] = r.get(e, 0) + v
        return LaurentPoly(r)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        r: dict = {}
        for e1, v1 in self.coefficients.items():
            for e2, v2 in other.coefficients.items():
                r[e1 + e2] = r.get(e1 + e2, 0) + v1 * v2
        return LaurentPoly(r)

    def scale(self, a) -> "LaurentPoly":
        return self * LaurentPoly({0: a})

    def __repr__(self) -> str:
        terms = ", ".join(f"{e}: {v}" for e, v in sorted(self.coefficients.items()))
        return f"LaurentPoly({{{terms}}})"


def _add_edge(p: LaurentPoly, c: int) -> LaurentPoly:
    """(X - 1/X) p' + c p, term by term.  F_{g+1} is this on F_g with c =
    g - 1, so by the product rule one more out-edge on a product of r
    factors F_g with total out-degree E is this with c = E - r."""
    a = p.coefficients
    support = {*a, *(e - 2 for e in a)}
    return LaurentPoly({e: (e + c) * a.get(e, 0) - (e + 2) * a.get(e + 2, 0) for e in support})


def _f_sweep(top: int) -> list[LaurentPoly]:
    """[F_0, ..., F_top] with F_g = 2 f_g, in one pass: F_0 = 1 - X and the
    integer recurrence of `f_laurent` keep every coefficient an int."""
    fs = [LaurentPoly({0: 1, 1: -1})]
    for g in range(top):
        fs.append(_add_edge(fs[-1], g - 1))
    return fs


def f_laurent(d: int) -> LaurentPoly:
    """The d-th derived series f_d with f_0 = 1/2 - X/2 and
    f_d = (-1/X + X) f_{d-1}' + (d-2) f_{d-1}."""
    at_least(0, d=d)
    return _f_sweep(d)[-1].scale(Fraction(1, 2))


def z_coefficient(poly: LaurentPoly, n: int):
    """[z^n] of the polynomial under X = sqrt(1-4z), exact: an `int` for an
    integer polynomial, a `Fraction` otherwise.

    For every integer e, [z^n] X^e = binom(e/2, n) (-4)^n
    = prod_{i<n} 2(2i - e) / n!, an integer; the division is checked."""
    at_least(0, n=n)
    f = factorial(n)
    total = 0
    for e, v in poly.coefficients.items():
        total += v * exact_div(prod(2 * (2 * i - e) for i in range(n)), f)
    return total


def count_tc_genfun_k1(d: int, n: int) -> int:
    """TC(n, 1) = n!/(d! 2^(n-2)) [z^n] f_d f_0
    = n! [z^n] F_d F_0 / (d! 2^n), with F_g = 2 f_g."""
    at_least(2, d=d, n=n)
    fs = _f_sweep(d)
    return exact_div(factorial(n) * z_coefficient(fs[d] * fs[0], n), factorial(d) * 2 ** n)


def count_tc_genfun_k2(d: int, n: int) -> int:
    """TC(n, 2) from the series route:
    n!/(d! 2^(n-3)) sum_{l=0..d} [z^n] f_{2d-l} f_l f_0 / ((d-l)! l!)
    - n!/(d!^2 2^(n-2)) [z^n] f_{2d} f_0^2.
    With F_g = 2 f_g and c_l = [z^n] F_{2d-l} F_l F_0 this is n! N /
    (d!^2 2^(n+1)), N = 2 sum_{l=0..d} C(d, l) c_l - c_0, one sweep
    F_0..F_2d.
    """
    at_least(2, d=d)
    at_least(3, n=n)
    fs = _f_sweep(2 * d)
    f0 = fs[0]

    def c(l: int) -> int:
        return z_coefficient(fs[2 * d - l] * fs[l] * f0, n)

    cs = [comb(d, l) * c(l) for l in range(d + 1)]
    return exact_div(factorial(n) * (2 * sum(cs) - cs[0]),
                     factorial(d) ** 2 * 2 ** (n + 1))


def tc_k1_closed_form(d: int, n: int) -> int:
    """Closed forms for TC(n, 1), available for d in {2, 3}: at d = 2
    n((2n-1)!! - (2n-2)!!), at d = 3 the numerator
    n(2n+1)(2n-1)!! - 3n^2(2n-2)!! divided once by 3."""
    at_least(2, d=d, n=n)
    if d == 2:
        return n * (double_factorial(2 * n - 1) - double_factorial(2 * n - 2))
    if d == 3:
        return exact_div(n * (2 * n + 1) * double_factorial(2 * n - 1)
                         - 3 * n * n * double_factorial(2 * n - 2), 3)
    raise ValueError(f"no k=1 closed form implemented for d={d}")


def tc_k2_closed_form(d: int, n: int) -> int:
    """Closed forms for TC(n, 2), available for d in {2, 3}, each an integer
    numerator divided once: at d = 2 n(n-1)((3n+2)(2n-1)!! - 3(2n)!!) by 3,
    at d = 3 n(n-1)(16(70n^2+244n+177)(2n+1)!! - 105(16n+13)(2n+2)!!) by
    5040 = lcm(315, 48)."""
    at_least(2, d=d)
    at_least(3, n=n)
    if d == 2:
        return exact_div(n * (n - 1) * ((3 * n + 2) * double_factorial(2 * n - 1)
                                        - 3 * double_factorial(2 * n)), 3)
    if d == 3:
        return exact_div(
            n * (n - 1) * (16 * (70 * n * n + 244 * n + 177) * double_factorial(2 * n + 1)
                           - 105 * (16 * n + 13) * double_factorial(2 * n + 2)),
            5040,
        )
    raise ValueError(f"no k=2 closed form implemented for d={d}")


def structural_k1_polynomial(d: int) -> list[Fraction]:
    """Coefficients (ascending) of the degree d-1 polynomial p with
    TC(n, 1) = binom(2n+d-2, d) (2n-3)!! - p(n) (2n-2)!!.

    Samples p(n), from the series count, at n = 2..2d+4 and takes the leading
    differences D^j p(2) of one forward-difference table.  p has degree at
    most d-1 on all 2d+3 samples exactly when D^j p(2) = 0 for every j >= d;
    otherwise this raises.  Then p(n) = sum_{j<d} D^j p(2) binom(n-2, j),
    expanded to monomials by binom(n-2, j+1) = binom(n-2, j) (n-2-j)/(j+1).
    """
    at_least(2, d=d)
    top = 2 * d + 4
    row = [Fraction(comb(2 * n + d - 2, d) * double_factorial(2 * n - 3)
                    - count_tc_genfun_k1(d, n), double_factorial(2 * n - 2))
           for n in range(2, top + 1)]
    deltas = []
    while row:
        deltas.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    for order in range(d, len(deltas)):
        if deltas[order]:
            raise ExactnessError(f"p(n) on n = 2..{top} has a nonzero difference of order "
                                 f"{order}, so its degree is not below {d}")
    # basis: the monomial coefficients of binom(n-2, j)
    coeffs, basis = [Fraction(0)] * d, [Fraction(1)]
    for j, delta in enumerate(deltas[:d]):
        for t, b in enumerate(basis):
            coeffs[t] += delta * b
        basis = [(a - (2 + j) * b) / (j + 1) for a, b in zip([0, *basis], [*basis, 0])]
    return coeffs


def asympt_tc_fixed_k(d: int, n: int, k: int) -> LogValue:
    """First-order count for fixed k as n grows:
    2^(dk-1)/((d!)^k k! sqrt(pi)) n! 2^n n^(dk-3/2), in log space."""
    at_least(2, d=d)
    at_least(1, n=n)
    at_least(0, k=k)
    ln = (
        (d * k - 1) * log(2.0)
        - k * lgamma(d + 1)
        - lgamma(k + 1)
        - 0.5 * log(pi)
        + lgamma(n + 1)
        + n * log(2.0)
        + (d * k - 1.5) * log(n)
    )
    return LogValue(ln)
