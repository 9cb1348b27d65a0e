"""Exact evaluation of the two triple-system Lagrangians.

For an orientation G with triple system CF and weights x on the simplex:

    L_CF = sum_{{x,y,z} in CF} xyz + (1/2) sum_{(x,y) arc} x^2 y

For an undirected graph G with triple system BF:

    L_BF = sum_{{x,y,z} in BF} xyz
         + (1/2) sum_{{x,y} edge} (x^2 y + x y^2)
         - (1/2) (sum_{{x,y} edge} x y)^2

The arc term of L_CF takes x^2 y only (ordered arc x->y); the edge term
of L_BF takes both x^2 y and x y^2 per unordered edge.  Everything here
is exact rational arithmetic; floats appear only in the optimizer module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graphs import OrientedGraph, UndirectedGraph, build_cf, build_bf, edge_density


class WeightVector:
    """Nonnegative rational vertex weights summing to exactly one."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValueError("weight vector must be nonempty")
        if not all(isinstance(w, (Fraction, int)) for w in entries):
            raise ValueError("weights must be rationals (Fraction or int)")
        entries = tuple(Fraction(w) for w in entries)
        if any(w < 0 for w in entries):
            raise ValueError("negative weight")
        if sum(entries) != 1:
            raise ValueError(f"weights sum to {sum(entries)}, expected 1")
        self.entries = entries

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
    cf = build_cf(g)
    triple = sum((w[x] * w[y] * w[z] for (x, y, z) in cf.triples), Fraction(0))
    arc = sum((w[u] * w[u] * w[v] for (u, v) in g.arcs), Fraction(0))
    pair = Fraction(1, 2) * arc
    return LagrangianValue(
        value=triple + pair,
        triple_term=triple,
        pair_term=pair,
        quadratic_term=Fraction(0),
    )


def lagrangian_bf(g: UndirectedGraph, w: WeightVector) -> LagrangianValue:
    """L_BF of an undirected graph, edges summed once each."""
    if len(w) != g.n:
        raise ValueError(f"weight length {len(w)} != vertex count {g.n}")
    bf = build_bf(g)
    triple = sum((w[x] * w[y] * w[z] for (x, y, z) in bf.triples), Fraction(0))
    pair = Fraction(0)
    edge_sum = Fraction(0)
    for (u, v) in g.edges:
        wu, wv = w[u], w[v]
        pair += wu * wu * wv + wu * wv * wv
        edge_sum += wu * wv
    pair = Fraction(1, 2) * pair
    quad = Fraction(1, 2) * edge_sum * edge_sum
    return LagrangianValue(
        value=triple + pair - quad,
        triple_term=triple,
        pair_term=pair,
        quadratic_term=quad,
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
        density=edge_density(cf), uniform_lagrangian=lag, implied_bound=bound
    )
