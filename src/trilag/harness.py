"""Exhaustive small-orientation sweeps over numpy lookup tables.

Orientations on labeled vertices are indexed 0..3^C(n,2)-1: each vertex
pair contributes one base-3 digit (0 absent, 1 forward, 2 backward), so
every witness is reproducible from its index.  A k-subset's fact is a table
over its C(k,2) pair digits, read in ``combinations`` order.

A sweep takes the indices in blocks of 3^low, whose low digits vary and the
others stay fixed.  Seen as an array with one axis per slot of a subset and
the runs between them merged, a block is what the subset's table, its high
digits fixed by the block, broadcasts over.  That broadcast is made once per
process and table content: each subset's table laid out over the 3^low
entries of a block, one row per value of its high digits, and a subset with
no slot below low a scalar.  So each subset and block costs one contiguous
in-place add (triples) or OR (4-sets), and no index array.  The subsets with
every slot below low are the same in each block; they are reduced once per
sweep and each block starts from a copy.  No sum over subsets is kept from
one sweep to the next.  The five triple facts share one int32
table in 6-bit fields, since a sum over at most C(6, 3) = 20 triples, each
row at most 3, fits one field, and the two 4-set facts one int8 table.
Every count a sweep reads comes from that triple table: |A| too, as the
sum of the arcs inside each triple over n - 2, the triples through a pair.

A block is then decided by a few reductions over it (a largest value, a
first argmax, a count), and only a block that fails one is scanned entry by
entry for its violations or counterexamples.  ``enumerate`` compares in
integers scaled by k = n - 2: k|A| is the ``arcs`` field as summed, so k
times L_CF and k^2 times the step's slack are built from the fields by
in-place products and sums, and no array is divided.

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

BLOCK_DIGITS = 9  # 3^9 = 19683 orientations per block; at n = 6 the layouts of both tables take 7.8 MB
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


def _spread(slots: list[int], top: int) -> list[int]:
    """Axes of the digits 0..top-1, highest first: one per slot, the runs between merged."""
    shape = []
    for s in reversed(slots):
        shape += [3 ** (top - s - 1), 3]
        top = s
    return shape + [3**top]


@functools.lru_cache(maxsize=4)
def _layout(n: int, k: int, raw: bytes, dtype: np.dtype) -> list[tuple[np.ndarray, list[int]]]:
    """Per k-subset in ``combinations`` order, (laid, positions of its high digits), read-only.

    ``raw`` is the table's bytes, so the cache is keyed on its content.  A
    subset with a slot below low has its table laid out over the 3^low
    entries of a block: ``laid`` has one contiguous row per value of the
    subset's high digits, shape (3,)*len(high) + (3^low,).  A subset with
    no slot below low keeps its table indexed by its high digits, one
    scalar per block.
    """
    table = np.frombuffer(raw, dtype=dtype)
    low = min(comb(n, 2), BLOCK_DIGITS)
    plan = []
    for slots in _subset_slots(n, k):
        tiled = [s for s in slots if s < low]
        high = [s - low for s in reversed(slots) if s >= low]  # digits of the block's number
        outer = (3,) * len(high)
        if tiled:
            laid = np.empty(outer + tuple(_spread(tiled, low)), dtype=dtype)
            laid[...] = table.reshape(outer + (1, 3) * len(tiled) + (1,))
            laid = laid.reshape(outer + (3**low,))
        else:
            laid = table.reshape(outer)
        laid.flags.writeable = False
        plan.append((laid, high))
    return plan


def _blocks(n: int, k: int, table: np.ndarray, op: np.ufunc):
    """Yield (first index, ``op`` over the k-subsets' entries) per block of 3^low indices.

    ``op`` is ``np.add`` or ``np.bitwise_or``, and the yielded array is
    reused from block to block.  Each subset's table is laid out over a
    block once per process and table content (``_layout``), so every op is
    one contiguous add or OR of a row, or of a scalar.  Only layouts are
    cached: every call reduces every subset into every block.
    """
    if op is np.add and 3 * comb(n, k) >= 2**FIELD_BITS:
        raise ValueError(f"{comb(n, k)} triples of up to 3 arcs overflow a {FIELD_BITS}-bit field")
    pairs = comb(n, 2)
    low = min(pairs, BLOCK_DIGITS)
    base, out = np.zeros(3**low, dtype=table.dtype), np.empty(3**low, dtype=table.dtype)
    moving = []  # (laid, positions of the high digits) of subsets with a slot >= low
    for laid, high in _layout(n, k, table.tobytes(), table.dtype):
        if high:
            moving.append((laid, high))
        else:
            op(base, laid, out=base)
    for block in range(3 ** (pairs - low)):
        digits = [block // 3**i % 3 for i in range(pairs - low)]
        np.copyto(out, base)
        for laid, high in moving:
            op(out, laid[tuple(digits[i] for i in high)], out=out)
        yield block * 3**low, out


def _packed(tables: dict, names: tuple[str, ...], dtype) -> np.ndarray:
    """The named tables in one, entry i of table t in field t of entry i."""
    return sum(tables[name].astype(dtype) << (FIELD_BITS * t) for t, name in enumerate(names))


def _witness(n: int, index: int) -> dict:
    """An orientation's index and its sorted arcs, as the reports cite it."""
    return {"index": index, "arcs": sorted(orientation_from_index(n, index).arcs)}


def _scaled(n: int, total: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|CF|, k L_CF and the step slack of each packed triple sum, k = n - 2, in integers.

    With a = k|A|, the ``arcs`` field, k 2n^3 L_CF is 2k|CF| + a, and the
    slack a(a - nk) - 2nk^2(|BF| - |CF|) is 2n^4 k^2 (L_CF - L_BF), positive
    exactly where L_CF <= L_BF fails.  The three are rows of ``scratch``, a
    (4, total.size) array, built in place: nothing is divided and ``total``
    is only read.
    """
    k, mask = n - 2, 2**FIELD_BITS - 1
    cf, kl, slack, part = scratch
    np.bitwise_and(total, mask, out=cf)
    np.right_shift(total, 2 * FIELD_BITS, out=part)
    part &= mask  # a = k|A|
    np.multiply(cf, 2 * k, out=kl)
    kl += part
    np.subtract(part, n * k, out=slack)
    slack *= part
    np.right_shift(total, FIELD_BITS, out=part)
    part &= mask
    part -= cf
    part *= 2 * n * k * k  # 2nk^2(|BF| - |CF|)
    slack -= part
    return cf, kl, slack


def enumerate_orientations(n: int) -> dict:
    """Sweep all 3^C(n,2) labeled orientations, 3 <= n <= 6.

    Per orientation: F/CF partition, CF within BF, uniform-weight
    L_CF <= 3/32 and L_CF <= L_BF, all exact.  Maxima are reported with
    the smallest achieving index, and its arcs, as witness.  At weights 1/n,
    2n^3 L_CF = 2|CF| + |A| and 2n^4 L_BF = 2n|BF| + 2n|E| - |E|^2 with
    |E| = |A|, so every check is an integer comparison.  Each arc lies in
    k = n - 2 triples, so the packed table's ``arcs`` field is k|A|, and
    the comparisons are made on k times L_CF and k^2 times the step's slack
    (``_scaled``): no array is divided.  Four reductions decide a block,
    the largest packed sum (a partition or containment field is nonzero),
    the first largest |CF| and k L_CF, and the largest slack; only a block
    that fails one is scanned entry by entry.  ``stats`` counts the blocks
    and the scanned ones.
    """
    if not 3 <= n <= 6:
        raise ValueError("enumeration supports 3 <= n <= 6")
    t0 = time.perf_counter()
    best_cf = best_lcf = (-1, 0)  # (numerator, minus the smallest achieving index)
    violations = []
    packed = _packed(lookup_tables(), TRIPLE_FIELDS, np.int32)
    k, mask = n - 2, 2**FIELD_BITS - 1
    bound = 6 * n**3 * k  # 32 k 2n^3 L_CF may not exceed it: L_CF <= 3/32
    faulty = 1 << 3 * FIELD_BITS  # a packed sum at least this has a nonzero partition or containment field
    scratch = np.empty((4, 3 ** min(comb(n, 2), BLOCK_DIGITS)), dtype=packed.dtype)
    blocks = scanned = 0
    for start, total in _blocks(n, 3, packed, np.add):
        cf, kl, slack = _scaled(n, total, scratch)
        top_cf, top_lcf = int(cf.argmax()), int(kl.argmax())
        best_cf = max(best_cf, (int(cf[top_cf]), -start - top_cf))
        best_lcf = max(best_lcf, (int(kl[top_lcf]) // k, -start - top_lcf))
        blocks += 1
        if total.max() < faulty and 32 * int(kl[top_lcf]) <= bound and slack.max() <= 0:
            continue
        scanned += 1
        for j in np.flatnonzero((total >= faulty) | (32 * kl > bound) | (slack > 0)):
            fields = int(total[j]) >> 3 * FIELD_BITS
            checks = {"partition": fields & mask, "containment": fields >> FIELD_BITS,
                      "lcf_bound": 32 * kl[j] > bound, "step_inequality": slack[j] > 0}
            for check, failed in checks.items():
                if failed:
                    violation = {"index": start + int(j), "check": check}
                    if check == "lcf_bound":
                        violation["lcf"] = str(Fraction(int(kl[j]) // k, 2 * n**3))
                    violations.append(violation)

    return {
        "n": n,
        "count": 3 ** comb(n, 2),
        "max_cf_density": str(Fraction(best_cf[0], comb(n, 3))),
        "max_cf_density_witness": _witness(n, -best_cf[1]),
        "max_uniform_lcf": str(Fraction(best_lcf[0], 2 * n**3)),
        "max_uniform_lcf_witness": _witness(n, -best_lcf[1]),
        "violations": violations,
        "stats": {"blocks": blocks, "scanned": scanned},
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

    Each block's packed OR is 0 or 1 in each field, so its nonzero entries
    without the C4 bit are its counterexamples: two counts decide a block,
    and only a block where they differ is scanned.  ``stats`` counts the
    blocks and the scanned ones.
    """
    if not 4 <= n <= 6:
        raise ValueError("family validation supports 4 <= n <= 6")
    t0 = time.perf_counter()
    tables = lookup_tables()
    c4_free, counterexamples = 0, []
    blocks = scanned = 0
    for start, flags in _blocks(n, 4, _packed(tables, ("c4", "independent"), np.int8), np.bitwise_or):
        with_c4 = int(np.count_nonzero(flags & 1))
        c4_free += flags.size - with_c4
        blocks += 1
        if np.count_nonzero(flags) == with_c4:
            continue
        scanned += 1
        quads = list(zip(itertools.combinations(range(n), 4), _subset_slots(n, 4)))
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
        "stats": {"blocks": blocks, "scanned": scanned},
        "wall_time_s": time.perf_counter() - t0,
    }
