"""Exhaustive small-orientation sweeps over numpy lookup tables.

Orientations on labeled vertices are indexed 0..3^C(n,2)-1: each vertex
pair contributes one base-3 digit (0 absent, 1 forward, 2 backward), so
every witness is reproducible from its index.  The sweeps look every triple
and 4-set up in tables, by its row: its pair digits read in ``combinations``
order as a base-3 number.

A row is linear in the pair digits.  For ``start`` a multiple of 3^low and
j < 3^low, index start + j has j's digits in the low slots and start's in
the others, and nothing carries, so rows(start + j) = rows(j) + rows(start).
A sweep builds the rows of 0..3^low-1 and of each block's first index once,
and each block of 3^low indices costs one add.  The four triple facts share
one int32 table in 5-bit fields, since a sum over at most C(6, 3) = 20
triples fits one field, and the two 4-set facts one int8 table, so a block
takes one table lookup per subset size.

This module and trilag.simplex's optimizer are the only ones that import
numpy.  The package and the command line load them on first use, so the
exact commands, the pipeline (trilag.lagrangian) among them, start without
numpy.
"""

from __future__ import annotations

import functools
import itertools
import time
from fractions import Fraction
from math import comb

import numpy as np

from .graphs import (
    OrientedGraph,
    build_bf,
    build_cf,
    build_f,
    has_induced_directed_c4,
    underlying,
)

BLOCK_DIGITS = 8  # 3^8 = 6561 orientations per block keeps memory flat at n = 6
FIELD_BITS = 5  # a sum over at most C(6, 3) = 20 triples fits one field
TRIPLE_FIELDS = ("cf", "bf", "partition_bad", "containment_bad")


def orientation_from_index(n: int, index: int) -> OrientedGraph:
    """Decode one labeled orientation from its base-3 index, in 0..3^C(n,2)-1 (any n: Python ints)."""
    if not 0 <= index < 3 ** comb(n, 2):
        raise ValueError(f"orientation index {index} is outside 0..3^{comb(n, 2)}-1 for n = {n}")
    arcs = []
    for (u, v) in itertools.combinations(range(n), 2):
        index, digit = divmod(index, 3)
        if digit:
            arcs.append((u, v) if digit == 1 else (v, u))
    return OrientedGraph(n, arcs)


@functools.cache
def lookup_tables() -> dict[str, np.ndarray]:
    """Facts about one triple (27 rows) or one 4-set (729 rows), built once per process.

    Row t describes ``orientation_from_index(k, t)``: a subset's row reads its
    pair digits in ``combinations`` order as a base-3 number, so a triple's
    row is d_xy + 3 d_xz + 9 d_yz.  Per triple: ``cf``, ``bf`` (membership
    in CF, and in BF of the underlying graph), ``partition_bad`` (not in
    exactly one of F and CF), ``containment_bad`` (in CF, not in BF).  Per
    4-set: ``c4`` (induces a directed 4-cycle), ``independent`` (holds no
    triple of F).  Each fact depends only on the arcs inside the subset.

    The triple facts and ``c4`` come from the object-level constructions.
    ``independent`` comes from the F rows: ``_table_rows`` gives each 4-set
    row its four triples' rows, and the 4-set is independent exactly when
    none of them is in F.
    """
    triples = [orientation_from_index(3, t) for t in range(27)]
    in_f = np.array([len(build_f(g)) for g in triples], dtype=bool)
    in_cf = [len(build_cf(g)) for g in triples]
    in_bf = [len(build_bf(underlying(g))) for g in triples]
    quads = [orientation_from_index(4, t) for t in range(729)]
    tables = {
        "cf": np.array(in_cf, dtype=np.int8),
        "bf": np.array(in_bf, dtype=np.int8),
        "partition_bad": np.array([f + cf != 1 for f, cf in zip(in_f, in_cf)]),
        "containment_bad": np.array([cf > bf for cf, bf in zip(in_cf, in_bf)]),
        "c4": np.array([has_induced_directed_c4(g)[0] for g in quads]),
        "independent": ~in_f.take(_table_rows(4, 3, _digit_grid(6, 0, 6))).any(axis=0),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _digit_grid(width: int, lo: int, hi: int) -> np.ndarray:
    """(width x 3^(hi-lo)) pair digits of the indices c 3^lo, c < 3^(hi-lo): slots lo..hi-1 vary."""
    grid = np.zeros((width, 3 ** (hi - lo)), dtype=np.int8)
    grid[lo:hi] = np.indices((3,) * (hi - lo), dtype=np.int8).reshape(grid[lo:hi].shape)[::-1]
    return grid


def _table_rows(n: int, k: int, digits: np.ndarray) -> np.ndarray:
    """(k-subsets x orientations) table rows of pair digits, subsets in ``combinations`` order."""
    slot = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    subsets = itertools.combinations(range(n), k)
    slots = np.array([[slot[p] for p in itertools.combinations(s, 2)] for s in subsets])
    rows = np.zeros((len(slots), digits.shape[1]), dtype=np.int16)
    for e, col in enumerate(slots.T):
        rows += digits[col] * np.int16(3**e)
    return rows


def _block_rows(n: int, k: int):
    """Yield (first index, arc counts, k-subset table rows) per block of 3^BLOCK_DIGITS indices.

    The rows array is reused: a block's rows are the rows of 0..3^low-1 plus
    the rows of the block's first index, and both are built once per call.
    """
    pairs = comb(n, 2)
    low = min(pairs, BLOCK_DIGITS)
    base, starts = _digit_grid(pairs, 0, low), _digit_grid(pairs, low, pairs)
    base_rows, start_rows = _table_rows(n, k, base), _table_rows(n, k, starts)
    base_arcs, start_arcs = np.count_nonzero(base, axis=0), np.count_nonzero(starts, axis=0)
    rows = np.empty_like(base_rows)
    for block in range(starts.shape[1]):
        np.add(base_rows, start_rows[:, block, None], out=rows)
        yield block * 3**low, base_arcs + start_arcs[block], rows


def _packed(names: tuple[str, ...], dtype) -> np.ndarray:
    """The named tables of ``lookup_tables()`` in one, entry i of table t in field t of entry i."""
    tables = lookup_tables()
    return sum(tables[name].astype(dtype) << (FIELD_BITS * t) for t, name in enumerate(names))


def triple_counts(rows: np.ndarray):
    """Per orientation (column of triple rows): |CF|, |BF|, and whether some
    triple breaks the F/CF partition or CF within BF."""
    if len(rows) >= 2**FIELD_BITS:
        raise ValueError(f"{len(rows)} triples overflow a {FIELD_BITS}-bit field")
    total = _packed(TRIPLE_FIELDS, np.int32).take(rows).sum(axis=0, dtype=np.int32)
    cf, bf, partition, containment = (total >> (FIELD_BITS * t) & (2**FIELD_BITS - 1) for t in range(4))
    return cf, bf, partition != 0, containment != 0


def quad_flags(rows: np.ndarray):
    """Per orientation (column of 4-set rows): whether some 4-set induces a
    directed C4, and the (4-sets x orientations) flags of 4-sets independent in F."""
    flags = _packed(("c4", "independent"), np.int8).take(rows)
    return np.bitwise_or.reduce(flags, axis=0) & 1 != 0, flags >> FIELD_BITS != 0


def enumerate_orientations(n: int) -> dict:
    """Sweep all 3^C(n,2) labeled orientations, 3 <= n <= 6.

    Per orientation: F/CF partition, CF within BF, uniform-weight
    L_CF <= 3/32 and L_CF <= L_BF, all exact.  Maxima are reported with
    the smallest achieving index, and its arcs, as witness.  At weights 1/n,
    2n^3 L_CF = 2|CF| + |A| and 2n^4 L_BF = 2n|BF| + 2n|E| - |E|^2 with
    |E| = |A|, so every check is an integer comparison.
    """
    if not 3 <= n <= 6:
        raise ValueError("enumeration supports 3 <= n <= 6")
    t0 = time.perf_counter()
    best_cf = best_lcf = (-1, 0)  # (numerator, minus the smallest achieving index)
    violations = []
    for start, arcs, rows in _block_rows(n, 3):
        cf, bf, partition, containment = triple_counts(rows)
        lcf = 2 * cf + arcs
        lcf_bound = 32 * lcf > 6 * n**3
        step = n * lcf > 2 * n * bf + 2 * n * arcs - arcs * arcs
        checks = {"partition": partition, "containment": containment,
                  "lcf_bound": lcf_bound, "step_inequality": step}
        for j in np.flatnonzero(partition | containment | lcf_bound | step):
            for check, failed in checks.items():
                if failed[j]:
                    violation = {"index": start + int(j), "check": check}
                    if check == "lcf_bound":
                        violation["lcf"] = str(Fraction(int(lcf[j]), 2 * n**3))
                    violations.append(violation)
        best_cf = max(best_cf, (int(cf.max()), -start - int(cf.argmax())))
        best_lcf = max(best_lcf, (int(lcf.max()), -start - int(lcf.argmax())))

    def witness(index: int) -> dict:
        return {"index": index, "arcs": orientation_from_index(n, index).sorted_arcs()}

    return {
        "n": n,
        "count": 3 ** comb(n, 2),
        "max_cf_density": str(Fraction(best_cf[0], comb(n, 3))),
        "max_cf_density_witness": witness(-best_cf[1]),
        "max_uniform_lcf": str(Fraction(best_lcf[0], 2 * n**3)),
        "max_uniform_lcf_witness": witness(-best_lcf[1]),
        "violations": violations,
        "wall_time_s": time.perf_counter() - t0,
    }


def validate_fdf_family(n: int) -> dict:
    """Check that C4-free orientations give 3-graphs with no independent 4-set.

    Sweeps every labeled orientation on 4 <= n <= 6 vertices without an
    induced directed 4-cycle and asserts the triple construction leaves
    no empty 4-set; counterexamples are reported verbatim, with the first
    independent 4-set in ``combinations`` order.  None can exist at any n:
    of the 729 orientations of 4 vertices exactly 6 induce a directed C4,
    and they are the only 6 that span no triple of F (pinned in the tests).
    """
    if not 4 <= n <= 6:
        raise ValueError("family validation supports 4 <= n <= 6")
    t0 = time.perf_counter()
    quads = list(itertools.combinations(range(n), 4))
    c4_free = 0
    counterexamples = []
    for start, _, rows in _block_rows(n, 4):
        has_c4, independent = quad_flags(rows)
        c4_free += int(np.count_nonzero(~has_c4))
        for j in np.flatnonzero(~has_c4 & independent.any(axis=0)):
            index = start + int(j)
            counterexamples.append({
                "index": index,
                "arcs": orientation_from_index(n, index).sorted_arcs(),
                "independent_4set": list(quads[int(np.argmax(independent[:, j]))]),
            })
    return {
        "n": n,
        "count": 3 ** comb(n, 2),
        "c4_free_count": c4_free,
        "counterexamples": counterexamples,
        "wall_time_s": time.perf_counter() - t0,
    }
