"""Symmetrization: merge non-adjacent vertex pairs without decreasing L_BF.

For a non-edge (a,b) with weights a,b, deleting b and giving its weight
to a yields G_a (and symmetrically G_b).  With S_a, S_b the neighbor
weight sums and S_ab the common-neighbor weight sum, the exact identity

    a*L(G_a) + b*L(G_b) - (a+b)*L(G)
        = a*b*(a+b) * ((1/2)(S_a + S_b - (S_a - S_b)^2) - S_ab)

holds, and the right side is nonnegative because S_ab <= min(S_a,S_b)
and |S_a - S_b| <= 1 on the simplex.  Hence at least one branch does not
decrease the Lagrangian, and repeating until no non-edge remains reaches
a complete graph in at most n-1 merges.

Every function takes an undirected graph g and its weights w as two
arguments, with len(w) == g.n.  merge returns the new pair;
reduce_to_complete the final pair, the trace, and L_BF of the input and
of the final graph, which it evaluates on the way, so callers need not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import UndirectedGraph
from .lagrangian import WeightVector, lagrangian_bf


@dataclass(frozen=True)
class MergeStep:
    """One merge, recorded in the original vertex labels.

    branch is "a" when the lower-indexed vertex of the pair was kept.
    """

    pair: tuple[int, int]
    kept: int
    branch: str
    s_a: Fraction
    s_b: Fraction
    s_ab: Fraction
    lagrangian_before: Fraction
    lagrangian_after: Fraction


def _check_pair(g: UndirectedGraph, w: WeightVector, a: int, b: int) -> None:
    if len(w) != g.n:
        raise ValueError(f"weight length {len(w)} != vertex count {g.n}")
    if a == b:
        raise ValueError("pair must be two distinct vertices")
    if g.has_edge(a, b):
        raise ValueError(f"({a},{b}) is an edge; merging needs a non-edge")


def neighbor_sums(g: UndirectedGraph, w: WeightVector, a: int, b: int):
    """(S_a, S_b, S_ab) for the non-edge (a,b).

    S_ab sums the weights of x with {a,b,x} a BF-triple; since (a,b) is a
    non-edge these are exactly the common neighbors of a and b.
    """
    _check_pair(g, w, a, b)
    na = set(g.neighbors(a))
    nb = set(g.neighbors(b))
    s_a = sum((w[x] for x in na), Fraction(0))
    s_b = sum((w[x] for x in nb), Fraction(0))
    s_ab = sum((w[x] for x in na & nb), Fraction(0))
    return s_a, s_b, s_ab


def merge(g: UndirectedGraph, w: WeightVector, a: int, b: int, keep: int):
    """Delete the discarded endpoint of the non-edge (a,b); keep gets both weights.

    Returns (graph, weights).  Remaining vertices are reindexed
    contiguously (labels above the deleted one shift down by one).
    """
    if keep not in (a, b):
        raise ValueError("keep must be one of the merged pair")
    _check_pair(g, w, a, b)
    drop = b if keep == a else a
    new_weights = []
    for v in range(g.n):
        if v == drop:
            continue
        new_weights.append(w[a] + w[b] if v == keep else w[v])
    return g.delete_vertex(drop), WeightVector(new_weights)


def merge_identity_check(g: UndirectedGraph, w: WeightVector, a: int, b: int):
    """Both sides of the merge identity, for exact comparison.

    lhs = a*L(G_a) + b*L(G_b) - (a+b)*L(G)
    rhs = a*b*(a+b) * ((1/2)(S_a + S_b - (S_a - S_b)^2) - S_ab)
    """
    s_a, s_b, s_ab = neighbor_sums(g, w, a, b)
    wa, wb = w[a], w[b]
    lg = lagrangian_bf(g, w).value
    la = lagrangian_bf(*merge(g, w, a, b, keep=a)).value
    lb = lagrangian_bf(*merge(g, w, a, b, keep=b)).value
    lhs = wa * la + wb * lb - (wa + wb) * lg
    rhs = wa * wb * (wa + wb) * (
        Fraction(1, 2) * (s_a + s_b - (s_a - s_b) ** 2) - s_ab
    )
    return {"lhs": lhs, "rhs": rhs}


def reduce_to_complete(g: UndirectedGraph, w: WeightVector):
    """Merge lexicographically-smallest non-edges until the graph is complete.

    Both branches are evaluated exactly and the larger kept (ties keep the
    smaller vertex index), so L_BF never decreases along the trace.
    Returns (final graph, final weights, list of MergeStep in original labels,
    start, final): start is L_BF of the input and final the last step's
    lagrangian_after, which is also start when no merge runs.
    """
    labels = list(range(g.n))
    trace: list[MergeStep] = []
    l_start = l_before = lagrangian_bf(g, w).value  # raises on a weight length != g.n
    while not g.is_complete():
        a, b = g.non_edges()[0]
        s_a, s_b, s_ab = neighbor_sums(g, w, a, b)
        cand_a = merge(g, w, a, b, keep=a)
        cand_b = merge(g, w, a, b, keep=b)
        val_a = lagrangian_bf(*cand_a).value
        val_b = lagrangian_bf(*cand_b).value
        if val_a >= val_b:
            (g, w), l_after, kept, dropped, branch = cand_a, val_a, a, b, "a"
        else:
            (g, w), l_after, kept, dropped, branch = cand_b, val_b, b, a, "b"
        trace.append(
            MergeStep(
                pair=(labels[a], labels[b]),
                kept=labels[kept],
                branch=branch,
                s_a=s_a,
                s_b=s_b,
                s_ab=s_ab,
                lagrangian_before=l_before,
                lagrangian_after=l_after,
            )
        )
        del labels[dropped]
        l_before = l_after
    return g, w, trace, l_start, l_before


def trace_to_jsonable(trace) -> list[dict]:
    """Merge trace with rationals rendered as p/q strings."""
    out = []
    for step in trace:
        out.append(
            {
                "pair": list(step.pair),
                "kept": step.kept,
                "branch": step.branch,
                "S_a": str(step.s_a),
                "S_b": str(step.s_b),
                "S_ab": str(step.s_ab),
                "lagrangian_before": str(step.lagrangian_before),
                "lagrangian_after": str(step.lagrangian_after),
            }
        )
    return out
