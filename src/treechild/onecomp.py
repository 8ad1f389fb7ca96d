"""Exact counts of one-component d-combining tree-child networks.

A d-combining tree-child network is a rooted DAG with n labeled leaves whose
root has out-degree 1, whose tree nodes have in-degree 1 and out-degree 2,
and whose reticulation nodes have in-degree d and out-degree 1, such that
every non-leaf node has at least one non-reticulation child.  It is
one-component when the child of every reticulation node is a leaf.

OTC(d, n, k) denotes the number of such one-component networks.  Two
per-cell closed forms are implemented: a single factored formula
(count_otc) and the direct-construction product (count_otc_direct).  They
agree everywhere, and the test suite pins that equivalence.  otc_row gives
the whole row k = 0..n-1 by a third route, the rolling ratio: it starts at
OTC(n, 0) = (2n-3)!! and takes each next entry from the previous one by the
exact ratio OTC(n, k+1) / OTC(n, k) of count_otc's formula, so a row costs n
small-factor products instead of n closed forms of about four factorials
each.  The tests pin the row against both per-cell forms.

All arithmetic is arbitrary-precision integer arithmetic.  Divisions inside
the closed forms and the rolling ratio are exact; each one goes through
`params.exact_div`, so a wrong intermediate raises instead of silently
truncating.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, perm, prod

from .params import Params, at_least, exact_div


def double_factorial(m: int) -> int:
    """m!! = m (m-2) (m-4) ...; empty product 1 for m in {-1, 0, 1}."""
    at_least(-1, m=m)
    return prod(range(m, 1, -2))


def count_phylo_trees(n: int) -> int:
    """Number of phylogenetic trees with n labeled leaves, (2n-3)!!."""
    at_least(1, n=n)
    return double_factorial(2 * n - 3)


def count_otc(d: int, n: int, k: int) -> int:
    """One-component networks with n leaves and k reticulation nodes.

    Closed form: binom(n,k) (2n+(d-2)k-2)! / (d!^k 2^(n-k-1) (n-k-1)!).
    """
    Params(d, n, k)
    num = comb(n, k) * factorial(2 * n + (d - 2) * k - 2)
    den = factorial(d) ** k * 2 ** (n - k - 1) * factorial(n - k - 1)
    return exact_div(num, den)


def count_otc_direct(d: int, n: int, k: int) -> int:
    """Same count by the construction steps.

    Take a phylogenetic tree on the n-k non-reticulation leaves, choose
    positions for the dk reticulation edge endpoints among the
    2(n-k)+dk-2 slots, group them into the k reticulation nodes, and pick
    which leaf labels sit below reticulations.
    """
    Params(d, n, k)
    trees = count_phylo_trees(n - k)
    num = trees * comb(2 * (n - k) + d * k - 2, d * k) * factorial(d * k) * comb(n, k)
    return exact_div(num, factorial(d) ** k)


def otc_row(d: int, n: int) -> list[int]:
    """[OTC(n, 0), ..., OTC(n, n-1)], one-component networks with n leaves
    by reticulation count.

    Rolled from OTC(n, 0) = (2n-3)!! by the exact ratio of count_otc's
    closed form: OTC(n, k+1) = OTC(n, k) 2(n-k)(n-k-1)
    (2n+(d-2)(k+1)-2)! / ((2n+(d-2)k-2)! (k+1) d!).
    """
    Params(d, n, 0)  # d and n by Params' rule
    d_fact = factorial(d)
    row = [count_phylo_trees(n)]
    for k in range(n - 1):
        step = 2 * (n - k) * (n - k - 1) * perm(2 * n + (d - 2) * (k + 1) - 2, d - 2)
        row.append(exact_div(row[-1] * step, (k + 1) * d_fact))
    return row


def count_otc_total(d: int, n: int) -> int:
    """Sum of count_otc over k = 0..n-1."""
    return sum(otc_row(d, n))


@dataclass(frozen=True)
class NodeCensus:
    tree_nodes: int
    total_nodes: int
    free_tree_nodes: int


def node_census(d: int, n: int, k: int) -> NodeCensus:
    """Node counts implied by the degree constraints.

    tree_nodes counts internal tree nodes, total_nodes counts every vertex
    including root and leaves, and free_tree_nodes counts tree nodes with no
    reticulation child (their two child edges are free).
    """
    Params(d, n, k)
    return NodeCensus(
        tree_nodes=n + (d - 1) * k - 1,
        total_nodes=2 * n + d * k,
        free_tree_nodes=n - k - 1,
    )
