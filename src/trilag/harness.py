"""Exhaustive small-orientation sweeps over numpy lookup tables.

Orientations on labeled vertices are indexed 0..3^C(n,2)-1: each vertex
pair contributes one base-3 digit (0 absent, 1 forward, 2 backward), so
every witness is reproducible from its index.  A k-subset's fact is a table
over its C(k,2) pair digits, read in ``combinations`` order.

A sweep takes the indices in blocks of 3^low, whose low digits vary and the
others stay fixed.  Seen as an array with one axis per slot of a subset and
the runs between them merged, a block is what the subset's table, its high
digits fixed by the block, broadcasts over: one in-place add (triples) or OR
(4-sets) per subset and block, and no index array.  The subsets with every
slot below low are the same in each block; they are reduced once per sweep
and each block starts from a copy.  The five triple facts share one int32
table in 6-bit fields, since a sum over at most C(6, 3) = 20 triples, each
row at most 3, fits one field, and the two 4-set facts one int8 table.
Every count a sweep reads comes from that triple table: |A| too, as the
sum of the arcs inside each triple over n - 2, the triples through a pair.

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

from .graphs import OrientedGraph, build_bf, build_cf, build_f, has_induced_directed_c4, underlying

BLOCK_DIGITS = 9  # 3^9 = 19683 orientations per block keeps memory flat at n = 6
FIELD_BITS = 6  # a sum over at most C(6, 3) = 20 triples, each row at most 3, fits one field
TRIPLE_FIELDS = ("cf", "bf", "arcs", "partition_bad", "containment_bad")


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
    in CF, and in BF of the underlying graph), ``arcs`` (the number of arcs
    inside it, 0..3), ``partition_bad`` (not in exactly one of F and CF),
    ``containment_bad`` (in CF, not in BF).  Per 4-set: ``c4`` (induces a
    directed 4-cycle), ``independent`` (holds no triple of F).  Each fact
    depends only on the arcs inside the subset.

    The triple facts and ``c4`` come from the object-level constructions.
    ``independent`` comes from the F rows: the 4-set is independent exactly
    when none of its four triples is in F, an OR over them that ``_blocks``
    takes on the 729 orientations of 4 vertices.
    """
    triples = [orientation_from_index(3, t) for t in range(27)]
    in_f = np.array([len(build_f(g)) for g in triples], dtype=bool)
    in_cf = [len(build_cf(g)) for g in triples]
    in_bf = [len(build_bf(underlying(g))) for g in triples]
    quads = [orientation_from_index(4, t) for t in range(729)]
    tables = {
        "cf": np.array(in_cf, dtype=np.int8),
        "bf": np.array(in_bf, dtype=np.int8),
        "arcs": np.array([len(g.arcs) for g in triples], dtype=np.int8),
        "partition_bad": np.array([f + cf != 1 for f, cf in zip(in_f, in_cf)]),
        "containment_bad": np.array([cf > bf for cf, bf in zip(in_cf, in_bf)]),
        "c4": np.array([has_induced_directed_c4(g) for g in quads]),
        "independent": ~next(_blocks(4, 3, in_f, np.bitwise_or))[1],
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _subset_slots(n: int, k: int) -> list[list[int]]:
    """Per k-subset in ``combinations`` order, the (increasing) slots of its C(k,2) pairs."""
    slot = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    return [[slot[p] for p in itertools.combinations(s, 2)] for s in itertools.combinations(range(n), k)]


def _spread(slots: list[int], top: int, bottom: int = 0) -> list[int]:
    """Axes of the digits bottom..top-1, highest first: one per slot, the runs between merged."""
    shape = []
    for s in reversed(slots):
        shape += [3 ** (top - s - 1), 3]
        top = s
    return shape + [3 ** (top - bottom)]


def _blocks(n: int, k: int, table: np.ndarray, op: np.ufunc):
    """Yield (first index, ``op`` over the k-subsets' entries) per block of 3^low indices.

    ``op`` is ``np.add`` or ``np.bitwise_or``, and the yielded array is
    reused from block to block.  Over the digits below low // 2 each
    subset's table is laid out once, so that every op runs along 3^(low//2)
    contiguous entries, not along the 3 of a subset's lowest slot.
    """
    if op is np.add and 3 * comb(n, k) >= 2**FIELD_BITS:
        raise ValueError(f"{comb(n, k)} triples of up to 3 arcs overflow a {FIELD_BITS}-bit field")
    pairs = comb(n, 2)
    low = min(pairs, BLOCK_DIGITS)
    inner = low // 2
    base, out = np.zeros(3**low, dtype=table.dtype), np.empty(3**low, dtype=table.dtype)
    moving = []  # (view of out, table, positions of the high digits) of subsets with a slot >= low
    for slots in _subset_slots(n, k):
        tiled = [s for s in slots if s < inner]
        mid = [s for s in slots if inner <= s < low]
        high = [s - low for s in reversed(slots) if s >= low]  # digits of the block's number
        outer = (3,) * (len(slots) - len(tiled))
        sub = table.reshape(outer + (1, 3) * len(tiled) + (1,))
        if tiled:
            sub = np.broadcast_to(sub, outer + tuple(_spread(tiled, inner))).reshape(outer + (3**inner,))
        sub = sub.reshape((3,) * len(high) + (1, 3) * len(mid) + (1, sub.shape[-1]))
        shape = _spread(mid, low, inner) + [3**inner]
        if high:
            moving.append((out.reshape(shape), sub, high))
        else:
            view = base.reshape(shape)
            op(view, sub, out=view)
    for block in range(3 ** (pairs - low)):
        digits = [block // 3**i % 3 for i in range(pairs - low)]
        np.copyto(out, base)
        for view, sub, high in moving:
            op(view, sub[tuple(digits[i] for i in high)], out=view)
        yield block * 3**low, out


def _packed(tables: dict, names: tuple[str, ...], dtype) -> np.ndarray:
    """The named tables in one, entry i of table t in field t of entry i."""
    return sum(tables[name].astype(dtype) << (FIELD_BITS * t) for t, name in enumerate(names))


def _witness(n: int, index: int) -> dict:
    """An orientation's index and its sorted arcs, as the reports cite it."""
    return {"index": index, "arcs": sorted(orientation_from_index(n, index).arcs)}


def enumerate_orientations(n: int) -> dict:
    """Sweep all 3^C(n,2) labeled orientations, 3 <= n <= 6.

    Per orientation: F/CF partition, CF within BF, uniform-weight
    L_CF <= 3/32 and L_CF <= L_BF, all exact.  Maxima are reported with
    the smallest achieving index, and its arcs, as witness.  At weights 1/n,
    2n^3 L_CF = 2|CF| + |A| and 2n^4 L_BF = 2n|BF| + 2n|E| - |E|^2 with
    |E| = |A|, so every check is an integer comparison.  Each arc lies in
    n - 2 triples, so |A| is the packed table's ``arcs`` field over n - 2.
    """
    if not 3 <= n <= 6:
        raise ValueError("enumeration supports 3 <= n <= 6")
    t0 = time.perf_counter()
    best_cf = best_lcf = (-1, 0)  # (numerator, minus the smallest achieving index)
    violations = []
    packed = _packed(lookup_tables(), TRIPLE_FIELDS, np.int32)
    mask = 2**FIELD_BITS - 1
    for start, total in _blocks(n, 3, packed, np.add):
        cf, bf = total & mask, total >> FIELD_BITS & mask
        arcs = (total >> 2 * FIELD_BITS & mask) // (n - 2)
        lcf = 2 * cf + arcs
        step = n * lcf > 2 * n * bf + 2 * n * arcs - arcs * arcs
        # total >= 2^(3 FIELD_BITS): the partition or containment field is nonzero
        for j in np.flatnonzero((total >= 1 << 3 * FIELD_BITS) | (32 * lcf > 6 * n**3) | step):
            bad = int(total[j]) >> 3 * FIELD_BITS
            checks = {"partition": bad & mask, "containment": bad >> FIELD_BITS,
                      "lcf_bound": 32 * lcf[j] > 6 * n**3, "step_inequality": step[j]}
            for check, failed in checks.items():
                if failed:
                    violation = {"index": start + int(j), "check": check}
                    if check == "lcf_bound":
                        violation["lcf"] = str(Fraction(int(lcf[j]), 2 * n**3))
                    violations.append(violation)
        top_cf, top_lcf = int(cf.argmax()), int(lcf.argmax())
        best_cf = max(best_cf, (int(cf[top_cf]), -start - top_cf))
        best_lcf = max(best_lcf, (int(lcf[top_lcf]), -start - top_lcf))

    return {
        "n": n,
        "count": 3 ** comb(n, 2),
        "max_cf_density": str(Fraction(best_cf[0], comb(n, 3))),
        "max_cf_density_witness": _witness(n, -best_cf[1]),
        "max_uniform_lcf": str(Fraction(best_lcf[0], 2 * n**3)),
        "max_uniform_lcf_witness": _witness(n, -best_lcf[1]),
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
    tables = lookup_tables()
    quads = list(zip(itertools.combinations(range(n), 4), _subset_slots(n, 4)))
    c4_free, counterexamples = 0, []
    for start, flags in _blocks(n, 4, _packed(tables, ("c4", "independent"), np.int8), np.bitwise_or):
        c4_free += int(np.count_nonzero(flags & 1 == 0))
        for j in np.flatnonzero(flags == 1 << FIELD_BITS):  # an independent 4-set, no C4
            index = start + int(j)
            counterexamples.append(_witness(n, index) | {
                "independent_4set": next(list(quad) for quad, slots in quads if tables["independent"][
                    sum(index // 3**s % 3 * 3**e for e, s in enumerate(slots))]),
            })
    return {
        "n": n,
        "count": 3 ** comb(n, 2),
        "c4_free_count": c4_free,
        "counterexamples": counterexamples,
        "wall_time_s": time.perf_counter() - t0,
    }
