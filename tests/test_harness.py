import random
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from trilag import graphs, harness, lagrangian, simplex
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
    _block_rows,
    _table_rows,
    enumerate_orientations,
    lookup_tables,
    orientation_from_index,
    quad_flags,
    triple_counts,
    validate_fdf_family,
)
from trilag.lagrangian import WeightVector, lagrangian_bf, lagrangian_cf, pipeline_report, uniform_weights
from trilag.polynomials import g_polynomial, h_polynomial

from helpers import (
    brute_lagrangian_bf,
    brute_lagrangian_cf,
    has_independent_4set,
    huge_denominator_weights,
    pair_digits,
    pipeline_oracle,
    pipeline_tail_oracle,
    rand_orientation,
    rand_weights,
    shaped_orientation,
)


def test_orientation_index_roundtrip():
    seen = set()
    for idx in range(27):
        g = orientation_from_index(3, idx)
        seen.add(g.sorted_arcs() and tuple(g.sorted_arcs()) or ())
    assert len(seen) == 27


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


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kernel_matches_object_oracle(n):
    """Per orientation, the table kernel agrees with the object-level constructions."""
    indices = _kernel_indices(n)
    digits = pair_digits(indices, comb(n, 2))
    cf, bf, partition, containment = triple_counts(_table_rows(n, 3, digits))
    has_c4, independent = quad_flags(_table_rows(n, 4, digits))
    arcs = np.count_nonzero(digits, axis=0)
    w = uniform_weights(n)
    for j, idx in enumerate(indices):
        g = orientation_from_index(n, idx)
        f, cf_sys, und = build_f(g), build_cf(g), underlying(g)
        bf_sys = build_bf(und)
        assert (cf[j], bf[j], arcs[j]) == (len(cf_sys), len(bf_sys), len(g.arcs)), idx
        assert partition[j] == (bool(f & cf_sys)
                                or len(f) + len(cf_sys) != comb(n, 3)), idx
        assert containment[j] == (not cf_sys <= bf_sys), idx
        assert Fraction(int(2 * cf[j] + arcs[j]), 2 * n**3) == lagrangian_cf(g, w)
        lbf = 2 * n * bf[j] + 2 * n * arcs[j] - arcs[j] ** 2
        assert Fraction(int(lbf), 2 * n**4) == lagrangian_bf(und, w)
        assert has_c4[j] == has_induced_directed_c4(g)[0], idx
        indep = n >= 4 and has_independent_4set(n, f)[0]
        assert independent[:, j].any() == indep, idx


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_block_rows_match_rows_of_each_index(n):
    """Each block's rows and arc counts equal those built from its indices' own digits.

    Every block for n <= 5; at n = 6, 20 seeded blocks of the 2187, the last among them.
    """
    pairs = comb(n, 2)
    size = 3 ** min(pairs, BLOCK_DIGITS)
    count = 3**pairs // size
    checked = set(range(count)) if n <= 5 else {count - 1, *random.Random(n).sample(range(count - 1), 19)}
    for k in (3, 4):
        for block, (start, arcs, rows) in enumerate(_block_rows(n, k)):
            assert start == block * size
            if block in checked:
                digits = pair_digits(np.arange(start, start + size), pairs)
                assert np.array_equal(rows, _table_rows(n, k, digits)), (k, block)
                assert np.array_equal(arcs, np.count_nonzero(digits, axis=0)), (k, block)
        assert block == count - 1


def test_triple_fields_hold_every_sum(monkeypatch):
    """Each field of the packed triple table reads its own table's sum, alone or beside the others.

    With every table row set to 1, an n = 6 orientation fills all four fields
    with its C(6, 3) = 20 triples.  With only the empty triple's row set, the
    first and last blocks at n = 6 give each field the sums 0..13, 16 and 20.
    """
    names = ("cf", "bf", "partition_bad", "containment_bad")
    tables = dict(lookup_tables())
    dtypes = {name: tables[name].dtype for name in names}
    monkeypatch.setattr(harness, "lookup_tables", lambda: tables)
    indices = np.r_[0 : 3**8, 3**15 - 3**8 : 3**15]
    rows = _table_rows(6, 3, pair_digits(indices, 15))
    tables.update((name, np.ones(27, dtype=dtypes[name])) for name in names)
    cf, bf, partition, containment = triple_counts(rows)
    assert (cf == 20).all() and (bf == 20).all() and partition.all() and containment.all()
    empty = np.count_nonzero(rows == 0, axis=0)
    for full in (names, *((name,) for name in names)):
        tables.update((name, np.array([name in full] + [0] * 26, dtype=dtypes[name])) for name in names)
        for name, value in zip(names, triple_counts(rows)):
            expected = empty if name in full else np.zeros_like(empty)
            assert np.array_equal(value, expected if name in ("cf", "bf") else expected != 0), (full, name)
    with pytest.raises(ValueError, match="35 triples overflow a 5-bit field"):
        triple_counts(_table_rows(7, 3, pair_digits([0], 21)))


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
        assert c["arcs"] == g.sorted_arcs()
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
    assert has_induced_directed_c4(c4)[0]
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
    report = pipeline_report(g, WeightVector([Fraction(1, 2), Fraction(1, 2)]))
    assert report["lagrangian_cf"] == "1/16"
    assert report["lagrangian_bf"] == "3/32"
    assert report["reduction_trace"] == []
    assert report["closed_form_value"] == report["trivariate_value"] == "3/32"
    assert report["trivariate_point"] == ["1/2", "1/2", "0"]
    assert report["h_at_point"] == "0"
    assert [l["pass"] for l in report["links"]] == [True] * 5
    assert report["all_pass"]


def test_pipeline_point_values_match_certified_polynomials():
    """h_at_point = 3/32 - g is the certified h, and g is g_polynomial, at the pipeline's point."""
    rng = random.Random(300)
    h, g = h_polynomial(), g_polynomial()
    for _ in range(300):
        n = rng.randint(2, 7)
        report = pipeline_report(rand_orientation(rng, n), rand_weights(rng, n))
        point = [Fraction(x) for x in report["trivariate_point"]]
        assert Fraction(report["h_at_point"]) == h.evaluate(*point)
        assert Fraction(report["trivariate_value"]) == g.evaluate(*point)
        assert report["all_pass"]


def test_pipeline_evaluates_closed_form_and_g_once(monkeypatch):
    calls = []
    counted = ((simplex, "closed_form"), (lagrangian, "_closed_form_numerator"), (lagrangian, "_g_numerator"),
               (lagrangian, "_majorized"),
               (lagrangian, "lagrangian_bf"), (lagrangian, "lagrangian_cf"), (lagrangian, "_adjacency"),
               (lagrangian, "_arc_adjacency"), (lagrangian, "_bf_sums"), (lagrangian, "merge_chain"),
               (graphs, "build_bf"), (graphs, "build_cf"), (graphs, "complete_graph"))
    for module, name in counted:
        fn = getattr(module, name)

        def counting(*args, name=name, fn=fn):
            calls.append(name)
            return fn(*args)

        # every binding, the pipeline's own and those of the modules it calls;
        # raising=False also plants the name in modules that import none
        for binding in (graphs, simplex, lagrangian):
            monkeypatch.setattr(binding, name, counting, raising=False)
    g = OrientedGraph(4, [(0, 1), (2, 1), (3, 0)])
    w = WeightVector([Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)])
    init = WeightVector.__init__

    def counting_init(self, entries):
        calls.append("WeightVector")
        init(self, entries)

    monkeypatch.setattr(WeightVector, "__init__", counting_init)
    report = pipeline_report(g, w)
    assert report["all_pass"] and report["reduction_trace"]
    # one adjacency (the neighbour sets of _adjacency, with the out-neighbour
    # sets of _arc_adjacency) and one BF triple sum serve L_CF and every L_BF:
    # no Lagrangian is evaluated on its own, each merge's branches come from
    # integer sums, and no triple system is built.  The tail runs each integer
    # core of the chain once, on the final numerators, and builds no weight
    # vector or complete graph for them.
    assert sorted(calls) == ["_adjacency", "_arc_adjacency", "_bf_sums", "_closed_form_numerator",
                             "_g_numerator", "_majorized"]


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
    cf_numerator, reduce_chain = lagrangian._cf_numerator, lagrangian._reduce

    def perturbed_cf(*sums):
        case["lcf"] = cf_numerator(*sums) + (case["delta"] if case["kind"] == 0 else 0)
        return case["lcf"]

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

    monkeypatch.setattr(lagrangian, "_cf_numerator", perturbed_cf)
    monkeypatch.setattr(lagrangian, "_reduce", perturbed_reduce)
    seen = set()
    for i in range(400):
        n = rng.randint(1, 8)
        g, w = rand_orientation(rng, n), rand_weights(rng, n, max_part=rng.choice((2, 30)))
        case.update(kind=i % 4, delta=rng.choice((-1, 1)))
        try:
            report = pipeline_report(g, w)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                pipeline_tail_oracle(*_chain_values(*case["chain"], case["lcf"]))
            seen.add(str(exc))
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
