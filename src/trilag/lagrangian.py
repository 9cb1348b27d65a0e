"""Exact evaluation of the two triple-system Lagrangians.

For an orientation G with triple system CF and weights x on the simplex:

    L_CF = sum_{{x,y,z} in CF} xyz + (1/2) sum_{(x,y) arc} x^2 y

For an undirected graph G with triple system BF:

    L_BF = sum_{{x,y,z} in BF} xyz
         + (1/2) sum_{{x,y} edge} (x^2 y + x y^2)
         - (1/2) (sum_{{x,y} edge} x y)^2

The arc term of L_CF takes x^2 y only (ordered arc x->y); the edge term
of L_BF takes both x^2 y and x y^2 per unordered edge.  Everything here
is exact: with d the least common denominator of the weights and p = d x
their integer numerators, each sum runs over the integers p and one
Fraction is made per term, e.g. the BF triple term is
(sum p_x p_y p_z) / d^3.  A WeightVector computes d and p once, when it
is built, and keeps them as ``denominator`` and ``numerators``.  Floats
appear only in the optimizer module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .graphs import OrientedGraph, UndirectedGraph, build_cf, build_bf, edge_density


class WeightVector:
    """Nonnegative rational vertex weights summing to exactly one.

    The constructor computes d, the least common denominator of the
    entries, and the integer numerators p = d * w once; it validates on
    them (every p >= 0, sum(p) == d).  Both stay available, read-only, as
    ``denominator`` and ``numerators`` (a tuple).
    """

    __slots__ = ("entries", "_denominator", "_numerators")

    def __init__(self, entries) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValueError("weight vector must be nonempty")
        if not all(isinstance(w, (Fraction, int)) for w in entries):
            raise ValueError("weights must be rationals (Fraction or int)")
        entries = tuple(w if isinstance(w, Fraction) else Fraction(w) for w in entries)
        d = lcm(*(w.denominator for w in entries))
        p = tuple(w.numerator * (d // w.denominator) for w in entries)
        if any(v < 0 for v in p):
            raise ValueError("negative weight")
        if sum(p) != d:
            raise ValueError(f"weights sum to {Fraction(sum(p), d)}, expected 1")
        self.entries = entries
        self._denominator = d
        self._numerators = p

    @property
    def denominator(self) -> int:
        """d, the least common denominator of the entries."""
        return self._denominator

    @property
    def numerators(self) -> tuple[int, ...]:
        """p = d * w, the entries as integers over ``denominator``."""
        return self._numerators

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightVector) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"WeightVector({list(self.entries)})"


@dataclass(frozen=True)
class LagrangianValue:
    """Lagrangian with its three components: value = triple + pair - quadratic."""

    value: Fraction
    triple_term: Fraction
    pair_term: Fraction
    quadratic_term: Fraction


def uniform_weights(n: int) -> WeightVector:
    """All entries 1/n, exact."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return WeightVector([Fraction(1, n)] * n)


def lagrangian_cf(g: OrientedGraph, w: WeightVector) -> LagrangianValue:
    """L_CF of an orientation: CF triple products plus half the arc x^2 y sum."""
    if len(w) != g.n:
        raise ValueError(f"weight length {len(w)} != vertex count {g.n}")
    d, p = w.denominator, w.numerators
    triples = sum(p[x] * p[y] * p[z] for (x, y, z) in build_cf(g))
    arcs = sum(p[u] * p[u] * p[v] for (u, v) in g.arcs)
    return LagrangianValue(
        value=Fraction(2 * triples + arcs, 2 * d**3),
        triple_term=Fraction(triples, d**3),
        pair_term=Fraction(arcs, 2 * d**3),
        quadratic_term=Fraction(0),
    )


def lagrangian_bf(g: UndirectedGraph, w: WeightVector) -> LagrangianValue:
    """L_BF of an undirected graph, edges summed once each."""
    if len(w) != g.n:
        raise ValueError(f"weight length {len(w)} != vertex count {g.n}")
    d, p = w.denominator, w.numerators
    triples = sum(p[x] * p[y] * p[z] for (x, y, z) in build_bf(g))
    pairs = sum(p[u] * p[v] * (p[u] + p[v]) for (u, v) in g.edges)
    edges = sum(p[u] * p[v] for (u, v) in g.edges)
    return LagrangianValue(
        value=Fraction(2 * d * triples + d * pairs - edges * edges, 2 * d**4),
        triple_term=Fraction(triples, d**3),
        pair_term=Fraction(pairs, 2 * d**3),
        quadratic_term=Fraction(edges * edges, 2 * d**4),
    )


@dataclass(frozen=True)
class DensityReport:
    """CF density at uniform weights and the finite-n bound it implies.

    implied_bound = 6 * uniform_lagrangian * n^3 / (n(n-1)(n-2)): the CF
    triple count satisfies |CF|/n^3 <= L_CF(uniform), so the density is at
    most that finite-n value.  Asymptotically (n -> infinity) the factor
    tends to 6, but the report never claims the limit.
    """

    density: Fraction
    uniform_lagrangian: Fraction
    implied_bound: Fraction


def density_from_uniform(g: OrientedGraph) -> DensityReport:
    """CF edge density, uniform-weight L_CF, and the implied density bound."""
    if g.n < 3:
        raise ValueError("need at least 3 vertices")
    cf = build_cf(g)
    lag = lagrangian_cf(g, uniform_weights(g.n)).value
    bound = lag * g.n**3 / comb(g.n, 3)
    return DensityReport(
        density=edge_density(g.n, cf), uniform_lagrangian=lag, implied_bound=bound
    )
