import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from trilag import graphs, harness, lagrangian
from trilag.graphs import (
    OrientedGraph,
    build_bf,
    build_cf,
    build_f,
    has_induced_directed_c4,
    underlying,
)
from trilag.harness import (
    BLOCK_DIGITS,
    FIELD_BITS,
    TRIPLE_FIELDS,
    _blocks,
    _packed,
    enumerate_orientations,
    lookup_tables,
    orientation_from_index,
    validate_fdf_family,
)
from trilag.lagrangian import WeightVector, pipeline_report

from helpers import (
    brute_lagrangian_bf,
    brute_lagrangian_cf,
    g_polynomial_oracle,
    h_oracle,
    has_independent_4set,
    huge_denominator_weights,
    pair_digits,
    pipeline_oracle,
    pipeline_tail_oracle,
    rand_orientation,
    rand_weights,
    shaped_orientation,
    uniform_weights,
)


def test_orientation_index_roundtrip():
    seen = set()
    for idx in range(27):
        g = orientation_from_index(3, idx)
        seen.add(g.arcs)
    assert len(seen) == 27


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orientation_index_outside_its_range_is_refused(n):
    """Indices are 0..3^C(n,2)-1; one past either end would alias another orientation."""
    top = 3 ** comb(n, 2) - 1
    for index in (-1, top + 1, np.int64(-1), np.int64(top + 1)):
        with pytest.raises(ValueError, match=rf"orientation index {index} is outside 0\.\.3\^{comb(n, 2)}-1"):
            orientation_from_index(n, index)
    for index in (0, top, np.int64(top), np.int32(top)):
        assert orientation_from_index(n, index).arcs == orientation_from_index(n, int(index)).arcs
    assert len(orientation_from_index(n, top).arcs) == comb(n, 2)


def test_enumerate_n3():
    report = enumerate_orientations(3)
    assert report["count"] == 27
    assert report["violations"] == []
    # a single cherry fills the only triple: density 1 is attained
    assert report["max_cf_density"] == "1"
    assert Fraction(report["max_uniform_lcf"]) <= Fraction(3, 32)


def test_enumerate_n4():
    report = enumerate_orientations(4)
    assert report["count"] == 729
    assert report["violations"] == []
    witness = orientation_from_index(4, report["max_uniform_lcf_witness"]["index"])
    assert witness.n == 4


def test_enumerate_range_errors():
    with pytest.raises(ValueError):
        enumerate_orientations(2)
    with pytest.raises(ValueError):
        enumerate_orientations(7)


def _kernel_indices(n):
    """Every index for n <= 4; 300 seeded ones for n = 5 and 6."""
    total = 3 ** comb(n, 2)
    if n <= 4:
        return list(range(total))
    return random.Random(n).sample(range(total), 300)


def _rows(n, k, indices):
    """(k-subsets x indices) table rows from each index's own pair digits, subsets in combinations order."""
    slot = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    digits = pair_digits(indices, comb(n, 2)).astype(np.int64)
    rows = [sum(digits[slot[p]] * 3**e for e, p in enumerate(itertools.combinations(s, 2)))
            for s in itertools.combinations(range(n), k)]
    return np.array(rows, dtype=np.int64).reshape(-1, len(indices))


def _fields_at(n, k, names, dtype, op, indices):
    """Arc counts and each named field of the packed k-subset reduction at the given indices."""
    indices = np.asarray(indices)
    value, arcs = np.zeros(len(indices), dtype=np.int64), np.zeros(len(indices), dtype=np.int64)
    for start, low_arcs, high_arcs, out in _blocks(n, k, _packed(harness.lookup_tables(), names, dtype), op):
        here = (start <= indices) & (indices < start + len(out))
        value[here], arcs[here] = out[indices[here] - start], low_arcs[indices[here] - start] + high_arcs
    return arcs, [value >> (FIELD_BITS * t) & (2**FIELD_BITS - 1) for t in range(len(names))]


def _triple_counts(n, indices):
    """|CF|, |BF|, partition and containment flags, and arc counts at the indices, as the enumeration reads them."""
    arcs, (cf, bf, partition, containment) = _fields_at(n, 3, TRIPLE_FIELDS, np.int32, np.add, indices)
    return cf, bf, partition != 0, containment != 0, arcs


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kernel_matches_object_oracle(n):
    """Per orientation, the table kernel agrees with the object-level constructions."""
    indices = _kernel_indices(n)
    cf, bf, partition, containment, arcs = _triple_counts(n, indices)
    _, (has_c4, independent) = _fields_at(n, 4, ("c4", "independent"), np.int8, np.bitwise_or, indices)
    w = uniform_weights(n)
    for j, idx in enumerate(indices):
        g = orientation_from_index(n, idx)
        f, cf_sys, und = build_f(g), build_cf(g), underlying(g)
        bf_sys = build_bf(und)
        assert (cf[j], bf[j], arcs[j]) == (len(cf_sys), len(bf_sys), len(g.arcs)), idx
        assert partition[j] == (bool(f & cf_sys)
                                or len(f) + len(cf_sys) != comb(n, 3)), idx
        assert containment[j] == (not cf_sys <= bf_sys), idx
        assert Fraction(int(2 * cf[j] + arcs[j]), 2 * n**3) == brute_lagrangian_cf(g, w)
        lbf = 2 * n * bf[j] + 2 * n * arcs[j] - arcs[j] ** 2
        assert Fraction(int(lbf), 2 * n**4) == brute_lagrangian_bf(und, w)
        assert (has_c4[j] != 0) == has_induced_directed_c4(g), idx
        indep = n >= 4 and has_independent_4set(n, f)[0]
        assert (independent[j] != 0) == indep, idx


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_block_reductions_match_a_lookup_of_each_index(n):
    """Each block's sum over triples and OR over 4-sets of a random table, and
    its arc counts, equal a lookup by the rows of its indices' own digits.

    Random tables leave no wrong slot or axis hidden behind the sparse real
    facts.  Every block for n <= 5; at n = 6, 20 seeded blocks of the 729,
    the last among them.
    """
    rng = np.random.default_rng(n)
    pairs = comb(n, 2)
    size = 3 ** min(pairs, BLOCK_DIGITS)
    count = 3**pairs // size
    checked = set(range(count)) if n <= 5 else {count - 1, *random.Random(n).sample(range(count - 1), 19)}
    for k, op in ((3, np.add), (4, np.bitwise_or)):
        table = rng.integers(0, 2**20, size=3 ** comb(k, 2), dtype=np.int32)
        for block, (start, low_arcs, high_arcs, out) in enumerate(_blocks(n, k, table, op)):
            assert start == block * size
            if block in checked:
                indices = np.arange(start, start + size)
                assert np.array_equal(out, op.reduce(table[_rows(n, k, indices)], axis=0)), (k, block)
                arcs = np.count_nonzero(pair_digits(indices, pairs), axis=0)
                assert np.array_equal(low_arcs + high_arcs, arcs), (k, block)
        assert block == count - 1


def test_triple_fields_hold_every_sum(monkeypatch):
    """Each field of the packed triple table reads its own table's sum, alone or beside the others.

    With every table row set to 1, an n = 6 orientation fills all four fields
    with its C(6, 3) = 20 triples.  With only the empty triple's row set, the
    first and last 3^8 indices at n = 6 give each field the sums 0..13, 16 and 20.
    """
    names = TRIPLE_FIELDS
    tables = dict(lookup_tables())
    dtypes = {name: tables[name].dtype for name in names}
    monkeypatch.setattr(harness, "lookup_tables", lambda: tables)
    indices = np.r_[0 : 3**8, 3**15 - 3**8 : 3**15]
    tables.update((name, np.ones(27, dtype=dtypes[name])) for name in names)
    cf, bf, partition, containment, _ = _triple_counts(6, indices)
    assert (cf == 20).all() and (bf == 20).all() and partition.all() and containment.all()
    empty = np.count_nonzero(_rows(6, 3, indices) == 0, axis=0)
    assert set(empty.tolist()) == {*range(14), 16, 20}
    for full in (names, *((name,) for name in names)):
        tables.update((name, np.array([name in full] + [0] * 26, dtype=dtypes[name])) for name in names)
        for name, value in zip(names, _triple_counts(6, indices)):
            expected = empty if name in full else np.zeros_like(empty)
            assert np.array_equal(value, expected if name in ("cf", "bf") else expected != 0), (full, name)
    with pytest.raises(ValueError, match="35 triples overflow a 5-bit field"):
        next(_blocks(7, 3, _packed(tables, names, np.int32), np.add))


def test_lookup_tables(monkeypatch):
    """Every triple row keeps the partition and containment; C4 4-sets are the independent ones.

    The second fact proves validate-fdf has no counterexample at any n:
    a 4-set spanning no triple of F induces a directed C4.  The independent
    table, derived from the 27 F rows, matches the object-level oracle on
    all 729 rows, and building the tables calls build_f on the triples only.
    """
    tables = lookup_tables()
    assert tables["cf"].shape == tables["bf"].shape == (27,)
    assert not tables["partition_bad"].any() and not tables["containment_bad"].any()
    assert np.count_nonzero(tables["c4"]) == 6
    assert np.array_equal(tables["independent"], tables["c4"])
    with pytest.raises(ValueError):
        tables["c4"][0] = True
    assert tables["independent"].dtype == bool
    oracle = [has_independent_4set(4, build_f(orientation_from_index(4, t)))[0] for t in range(729)]
    assert tables["independent"].tolist() == oracle

    orders = []

    def counting_build_f(g):
        orders.append(g.n)
        return build_f(g)

    monkeypatch.setattr(harness, "build_f", counting_build_f)
    fresh = lookup_tables.__wrapped__()
    assert orders == [3] * 27
    assert all(np.array_equal(fresh[name], table) for name, table in tables.items())


def test_enumerate_reports_violations(monkeypatch):
    """Corrupted tables give violations in index order, each index's checks in fixed order."""
    tables = dict(lookup_tables())
    tables["cf"] = np.ones(27, dtype=np.int8)  # every triple in CF: L_CF too large
    tables["partition_bad"] = np.arange(27) == 0
    tables["containment_bad"] = np.arange(27) == 1
    monkeypatch.setattr(harness, "lookup_tables", lambda: tables)
    violations = enumerate_orientations(3)["violations"]
    assert violations[:3] == [
        {"index": 0, "check": "partition"},
        {"index": 0, "check": "step_inequality"},
        {"index": 1, "check": "containment"},
    ]
    violations = enumerate_orientations(4)["violations"]
    assert [v["index"] for v in violations] == sorted(v["index"] for v in violations)
    complete = sum(3**k for k in range(6))  # every pair forward: six arcs
    assert [v for v in violations if v["index"] == complete] == [
        {"index": complete, "check": "lcf_bound", "lcf": "7/64"},
        {"index": complete, "check": "step_inequality"},
    ]


def test_enumerate_reports_a_lone_partition_or_containment_fault(monkeypatch):
    """With the real tables and one triple row marked bad, the violations are
    exactly the indices with a triple on that row, though no other check fails."""
    for name, check in (("partition_bad", "partition"), ("containment_bad", "containment")):
        tables = dict(lookup_tables())
        tables[name] = np.arange(27) == 5
        monkeypatch.setattr(harness, "lookup_tables", lambda: tables)
        for n in (4, 5):
            indices = np.arange(3 ** comb(n, 2))
            expected = indices[(_rows(n, 3, indices) == 5).any(axis=0)]
            assert len(expected) > 0
            assert enumerate_orientations(n)["violations"] == [{"index": int(i), "check": check} for i in expected]


def test_validate_fdf_reports_counterexamples(monkeypatch):
    """With the C4 table cleared, every independent 4-set is a counterexample,
    reported with the first such 4-set in combinations order."""
    tables = dict(lookup_tables())
    tables["c4"] = np.zeros(729, dtype=bool)
    monkeypatch.setattr(harness, "lookup_tables", lambda: tables)
    report = validate_fdf_family(5)
    assert report["c4_free_count"] == report["count"] == 59049
    assert report["counterexamples"]
    indices = [c["index"] for c in report["counterexamples"]]
    assert indices == sorted(indices)
    for c in report["counterexamples"]:
        g = orientation_from_index(5, c["index"])
        assert c["arcs"] == sorted(g.arcs)
        assert has_independent_4set(5, build_f(g)) == (True, tuple(c["independent_4set"]))
    flagged = sum(has_independent_4set(5, build_f(orientation_from_index(5, i)))[0]
                  for i in range(0, 59049, 7))
    assert sum(1 for i in indices if i % 7 == 0) == flagged


def test_validate_fdf_n4():
    report = validate_fdf_family(4)
    assert report["count"] == 729
    assert report["counterexamples"] == []
    assert 0 < report["c4_free_count"] < 729


def test_validate_fdf_skips_c4_orientations():
    # the pure directed 4-cycle must be filtered out, not counted
    c4 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert has_induced_directed_c4(c4)
    report = validate_fdf_family(4)
    total_with_c4 = report["count"] - report["c4_free_count"]
    assert total_with_c4 > 0


def test_validate_fdf_range_errors():
    with pytest.raises(ValueError):
        validate_fdf_family(3)
    with pytest.raises(ValueError):
        validate_fdf_family(7)


def test_pipeline_cherry_chain():
    g = OrientedGraph(3, [(0, 1), (2, 1)])
    report = pipeline_report(g, uniform_weights(3))
    assert report["lagrangian_cf"] == "2/27"
    assert report["lagrangian_bf"] == "7/81"
    assert report["all_pass"]
    assert [l["pass"] for l in report["links"]] == [True] * 5


def test_pipeline_empty_digraph():
    report = pipeline_report(OrientedGraph(4, []), uniform_weights(4))
    assert report["lagrangian_cf"] == "0"
    assert report["lagrangian_bf"] == "0"
    assert report["closed_form_value"] == "0"
    assert report["all_pass"]


def test_pipeline_single_arc_k2():
    """The tight instance: links 2-5 hold with equality, and each still passes."""
    g = OrientedGraph(2, [(0, 1)])
    report = pipeline_report(g, WeightVector(2, (1, 1)))
    assert report["lagrangian_cf"] == "1/16"
    assert report["lagrangian_bf"] == "3/32"
    assert report["reduction_trace"] == []
    assert report["closed_form_value"] == report["trivariate_value"] == "3/32"
    assert report["trivariate_point"] == ["1/2", "1/2", "0"]
    assert report["h_at_point"] == "0"
    assert [l["pass"] for l in report["links"]] == [True] * 5
    assert report["all_pass"]


def test_pipeline_point_values_match_certified_polynomials():
    """h_at_point is h = 3/32 - g, the polynomial certify converts, and g is the
    paper's formula, at the pipeline's point."""
    rng = random.Random(300)
    h, g = h_oracle(), g_polynomial_oracle()
    for _ in range(300):
        n = rng.randint(2, 7)
        report = pipeline_report(rand_orientation(rng, n), rand_weights(rng, n))
        point = [Fraction(x) for x in report["trivariate_point"]]
        assert Fraction(report["h_at_point"]) == h.evaluate(*point)
        assert Fraction(report["trivariate_value"]) == g.evaluate(*point)
        assert report["all_pass"]


def test_pipeline_evaluates_closed_form_and_g_once(monkeypatch):
    calls = []
    counted = ((lagrangian, "_closed_form_numerator"), (lagrangian, "_g_numerator"), (lagrangian, "_majorized"),
               (lagrangian, "_adjacency"), (lagrangian, "_graph_sums"), (lagrangian, "_bf_sums"),
               (graphs, "build_bf"), (graphs, "build_cf"))
    for module, name in counted:
        fn = getattr(module, name)

        def counting(*args, name=name, fn=fn):
            calls.append(name)
            return fn(*args)

        # every binding, the pipeline's own and those of the modules it calls;
        # raising=False also plants the name in modules that import none
        for binding in (graphs, lagrangian):
            monkeypatch.setattr(binding, name, counting, raising=False)
    g = OrientedGraph(4, [(0, 1), (2, 1), (3, 0)])
    w = WeightVector(8, (1, 3, 2, 2))
    init = WeightVector.__init__

    def counting_init(self, d, numerators):
        calls.append("WeightVector")
        init(self, d, numerators)

    monkeypatch.setattr(WeightVector, "__init__", counting_init)
    report = pipeline_report(g, w)
    assert report["all_pass"] and report["reduction_trace"]
    # one adjacency (the neighbour sets that _graph_sums builds with
    # _adjacency) and one BF triple sum serve L_CF and every L_BF:
    # no Lagrangian is evaluated on its own, each merge's branches come from
    # integer sums, and no triple system is built.  The tail runs each integer
    # core of the chain once, on the final numerators, and builds no weight
    # vector or complete graph for them.
    assert sorted(calls) == ["_adjacency", "_bf_sums", "_closed_form_numerator", "_g_numerator",
                             "_graph_sums", "_majorized"]


def _chain_values(d, q, start, end, lcf):
    """The Fractions of L_CF, L_BF, final L_BF and final weights from the integer chain."""
    return Fraction(lcf, 2 * d**3), Fraction(start, 2 * d**4), Fraction(end, 2 * d**4), [Fraction(v, d) for v in q]


def test_pipeline_matches_fraction_tail_oracle():
    """Every report value and link equals the Fraction-level pipeline's.

    The empty graph, transitive tournaments, random tournaments and random
    orientations on 1..10 vertices, at weights with parts 0..2 (many ties
    and zeros, so links hold with equality) and 0..30, then each shape on
    2..10 vertices over a 1073-digit common denominator.
    """
    rng = random.Random(303)
    for i in range(500):
        n = rng.randint(1, 10)
        w = rand_weights(rng, n, max_part=2 if i // 4 % 2 else 30)
        g = shaped_orientation(rng, n, i % 4)
        assert pipeline_report(g, w) == pipeline_oracle(g, w)
    for n in range(2, 11):
        w = huge_denominator_weights(rng, n)
        assert len(str(w.denominator)) == 1073
        g = shaped_orientation(rng, n, n % 4)
        assert pipeline_report(g, w) == pipeline_oracle(g, w)


def test_pipeline_links_match_oracle_on_perturbed_chains(monkeypatch):
    """Off by one in a chain value, the integer links fail where the Fraction
    links do; final numerators off the simplex raise, as the oracle does."""
    rng = random.Random(304)
    case = {}  # kind and delta of the current perturbation, and the values the pipeline saw
    # the originals, taken before they are patched in the module that calls them
    cf_sums, reduce_chain = lagrangian._cf_sums, lagrangian._reduce

    def perturbed_cf(*args):
        triples, arcs = cf_sums(*args)
        arcs += case["delta"] if case["kind"] == 0 else 0  # moves a = 2 triples + arcs by delta
        case["lcf"] = 2 * triples + arcs
        return triples, arcs

    def perturbed_reduce(*args):
        d, q, trace, start, end = reduce_chain(*args)
        kind, delta = case["kind"], case["delta"]
        start += delta if kind == 1 else 0
        end += delta if kind == 2 else 0
        if kind == 3:
            q[rng.randrange(len(q))] += delta
            if len(q) > 1 and rng.random() < 0.5:
                q[rng.randrange(len(q))] -= delta
        case["chain"] = d, q, start, end
        return d, q, trace, start, end

    monkeypatch.setattr(lagrangian, "_cf_sums", perturbed_cf)
    monkeypatch.setattr(lagrangian, "_reduce", perturbed_reduce)
    seen = set()
    for i in range(400):
        n = rng.randint(1, 8)
        g, w = rand_orientation(rng, n), rand_weights(rng, n, max_part=rng.choice((2, 30)))
        case.update(kind=i % 4, delta=rng.choice((-1, 1)))
        try:
            report = pipeline_report(g, w)
        except ValueError as exc:
            values = _chain_values(*case["chain"], case["lcf"])
            with pytest.raises(ValueError) as oracle:
                pipeline_tail_oracle(*values)
            # the messages of the weight vector check, where the oracle's are its closed form's
            final = values[3]
            assert str(exc) == ("negative weight" if min(final) < 0
                                else f"weights sum to {sum(final)}, expected 1"), str(oracle.value)
            seen.add(str(oracle.value))
            continue
        del report["reduction_trace"]
        assert report == pipeline_tail_oracle(*_chain_values(*case["chain"], case["lcf"]))
        seen.update(link["name"] for link in report["links"] if not link["pass"])
    # every link that a chain value feeds fails somewhere, and both raises are met
    assert seen == {"negative coordinate", "coordinates must sum to 1",
                    "lcf_le_lbf", "lbf_le_final", "final_eq_closed_form"}


def test_pipeline_lagrangians_match_brute_force_oracles():
    rng = random.Random(302)
    for _ in range(300):
        n = rng.randint(1, 10)
        g, w = rand_orientation(rng, n), rand_weights(rng, n, max_part=rng.choice((2, 30)))
        report = pipeline_report(g, w)
        assert report["lagrangian_cf"] == str(brute_lagrangian_cf(g, w))
        assert report["lagrangian_bf"] == str(brute_lagrangian_bf(underlying(g), w))
        assert report["all_pass"]
