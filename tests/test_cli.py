import json
import os
import random
import threading

import pytest

from trilag import cli, graphs, harness, lagrangian
from trilag.cli import build_parser, main
from trilag.fileio import parse_graph, parse_weights
from trilag.graphs import OrientedGraph, underlying

from helpers import rand_graph, rand_orientation, rand_weights, reduce_report_oracle

CHERRY = "digraph 3\n0 1\n2 1\n"
UNIFORM3 = "1/3\n1/3\n1/3\n"


@pytest.fixture
def cherry_files(tmp_path):
    g = tmp_path / "g.txt"
    w = tmp_path / "w.txt"
    g.write_text(CHERRY)
    w.write_text(UNIFORM3)
    return str(g), str(w)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_construct_json(capsys, cherry_files):
    g, _ = cherry_files
    code, out = run(capsys, ["construct", g])
    assert code == 0
    payload = json.loads(out)
    assert payload["cf_triples"] == [[0, 1, 2]]
    assert payload["f_triples"] == []


def test_lagrangian(capsys, cherry_files):
    g, w = cherry_files
    code, out = run(capsys, ["lagrangian", g, w])
    assert code == 0
    payload = json.loads(out)
    assert payload["lagrangian_cf"]["value"] == "2/27"
    assert payload["lagrangian_bf_underlying"]["value"] == "7/81"


def test_lagrangian_of_a_digraph_takes_one_bf_sum(capsys, monkeypatch, cherry_files):
    """L_CF and L_BF of the underlying graph share one adjacency and one BF triple sum."""
    calls = []
    for name in ("_adjacency", "_arc_adjacency", "_bf_sums"):

        def counting(*args, name=name, fn=getattr(lagrangian, name)):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(lagrangian, name, counting)
    code, out = run(capsys, ["lagrangian", *cherry_files])
    assert code == 0
    assert json.loads(out)["lagrangian_bf_underlying"]["value"] == "7/81"
    assert calls == ["_arc_adjacency", "_adjacency", "_bf_sums"]


def test_undirected_input(capsys, tmp_path):
    g, w = tmp_path / "g.txt", tmp_path / "w.txt"
    g.write_text("graph 4\n0 1\n1 2\n2 3\n")  # a path
    w.write_text("1/4\n" * 4)
    code, out = run(capsys, ["construct", str(g)])
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == "graph"
    assert payload["bf_triples"] == [[0, 1, 2], [1, 2, 3]]
    assert payload["bf_density"] == "1/2"
    code, out = run(capsys, ["lagrangian", str(g), str(w)])
    assert code == 0
    assert json.loads(out)["lagrangian_bf"]["value"] == "31/512"


def test_construct_sorts_triples(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("digraph 5\n0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n")  # a directed 5-cycle with a chord
    cf = [[0, 1, 4], [0, 2, 3], [0, 2, 4], [0, 3, 4], [1, 2, 3], [2, 3, 4]]
    code, out = run(capsys, ["construct", str(g)])
    assert code == 0
    payload = json.loads(out)
    assert payload["f_triples"] == [[0, 1, 2], [0, 1, 3], [1, 2, 4], [1, 3, 4]]
    assert payload["cf_triples"] == cf
    assert payload["bf_triples"] == sorted(cf + [[0, 1, 2]])
    assert payload["cf_density"] == "3/5"
    code, out = run(capsys, ["--format", "text", "construct", str(g)])
    assert code == 0
    assert out.splitlines()[2] == (
        "CF triples: [(0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (2, 3, 4)]"
    )


def test_pipeline_refuses_undirected_input_at_its_header(capsys, tmp_path):
    g, w = tmp_path / "gp.txt", tmp_path / "w.txt"
    g.write_text("# an undirected path\n\ngraph 3\n0 1\n1 2\n")
    w.write_text(UNIFORM3)
    assert main(["pipeline", str(g), str(w)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {g}:3: pipeline expects a digraph\n"


def test_pipeline_reads_a_piped_graph_once(capsys, tmp_path):
    """Undirected input on a named pipe is refused at its header, from the one read."""
    fifo, w = tmp_path / "g.fifo", tmp_path / "w.txt"
    os.mkfifo(fifo)
    w.write_text(UNIFORM3)
    done = threading.Event()

    def serve():
        # the graph to the first reader and an empty stream to any later one, as a drained pipe
        text = "graph 3\n0 1\n1 2\n"
        while not done.is_set():
            with open(fifo, "w") as fh:  # waits for a reader
                fh.write("" if done.is_set() else text)
            text = ""

    writer = threading.Thread(target=serve, daemon=True)
    writer.start()
    try:
        code = main(["pipeline", str(fifo), str(w)])
    finally:
        done.set()
        for _ in range(500):  # release the writer's wait for a reader, for up to 5 s
            if not writer.is_alive():
                break
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(0.01)
    assert not writer.is_alive()
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {fifo}:1: pipeline expects a digraph\n"


def test_reduce(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("graph 3\n0 2\n1 2\n")
    w = tmp_path / "w.txt"
    w.write_text("1/4\n1/4\n1/2\n")
    code, out = run(capsys, ["reduce", str(g), str(w)])
    assert code == 0
    payload = json.loads(out)
    assert payload["final_lagrangian"] == "3/32" == payload["trace"][-1]["lagrangian_after"]
    assert payload["monotone"]
    assert len(payload["trace"]) == 1

    g.write_text("graph 2\n0 1\n")  # complete: no merge runs
    w.write_text("1/2\n1/2\n")
    code, out = run(capsys, ["reduce", str(g), str(w)])
    assert code == 0
    assert json.loads(out)["trace"] == [] and json.loads(out)["final_lagrangian"] == "3/32"


def _write_instance(directory, g, w):
    pairs = g.arcs if isinstance(g, OrientedGraph) else g.edges
    kind = "digraph" if isinstance(g, OrientedGraph) else "graph"
    directory.mkdir(exist_ok=True)
    gpath, wpath = directory / "g.txt", directory / "w.txt"
    gpath.write_text(f"{kind} {g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(pairs)))
    wpath.write_text("".join(f"{x}\n" for x in w))
    return str(gpath), str(wpath)


def test_reduce_report_matches_object_oracle(capsys, tmp_path):
    """The reduce report is the object-level reduce_oracle rendered by str(Fraction).

    Graphs and orientations on 1..8 vertices, at weight parts 0..2 (zero
    weights and tied branches) and 0..30.
    """
    rng = random.Random(57)
    merges = set()
    for i in range(320):
        n = rng.randint(1, 8)
        g = rand_orientation(rng, n) if i % 2 else rand_graph(rng, n, p=rng.random())
        w = rand_weights(rng, n, max_part=2 if i // 2 % 2 else 30)
        code, out = run(capsys, ["reduce", *_write_instance(tmp_path, g, w)])
        expected = reduce_report_oracle(underlying(g) if i % 2 else g, w)
        assert code == 0
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        merges.update((step["branch"], step["lagrangian_before"] == step["lagrangian_after"])
                      for step in expected["trace"])
    # both branches are kept, each with and without a change of L_BF
    assert merges == {("a", True), ("a", False), ("b", True), ("b", False)}


REPORTS = {"pipeline": "pipeline_report", "reduce": "reduce_report", "lagrangian": "lagrangian_report"}


def _refused(*args, **kwargs):
    raise AssertionError("a Fraction was built")


def _report_cases(capsys, tmp_path):
    """Orientation files on 2..8 vertices, each with main's (code, output) for every REPORTS command."""
    rng = random.Random(58)
    cases = []
    for n in range(2, 9):
        files = _write_instance(tmp_path / str(n), rand_orientation(rng, n), rand_weights(rng, n))
        cases.append((files, [run(capsys, [command, *files]) for command in REPORTS]))
    assert any(json.loads(reports[1][1])["trace"] for _, reports in cases)
    return cases


def test_reports_build_no_fraction(capsys, monkeypatch, tmp_path):
    """The report builders of pipeline, reduce and lagrangian render their integers without a Fraction."""
    cases = [(parse_graph(files[0]), parse_weights(files[1]), reports)
             for files, reports in _report_cases(capsys, tmp_path)]
    monkeypatch.setattr(lagrangian, "Fraction", _refused)
    for g, w, reports in cases:
        built = [getattr(lagrangian, name)(g, w) for name in REPORTS.values()]
        assert built == [json.loads(out) for _, out in reports]


def test_main_emits_reports_without_fraction(capsys, monkeypatch, tmp_path):
    """main emits the same pipeline, reduce and lagrangian output with Fraction refused in the CLI."""
    cases = _report_cases(capsys, tmp_path)
    monkeypatch.setattr(cli, "Fraction", _refused, raising=False)
    for files, reports in cases:
        assert [run(capsys, [command, *files]) for command in REPORTS] == reports


def test_reduce_evaluates_each_lagrangian_once(capsys, monkeypatch, tmp_path):
    calls = []
    for module, name in ((lagrangian, "lagrangian_bf"), (lagrangian, "_bf_sums"),
                         (graphs, "build_bf"), (graphs, "build_cf")):

        def counting(*args, name=name, fn=getattr(module, name)):
            calls.append(name)
            return fn(*args)

        # every binding; raising=False plants the name in modules that import none
        for binding in (cli, graphs, lagrangian):
            monkeypatch.setattr(binding, name, counting, raising=False)
    g, w = tmp_path / "g.txt", tmp_path / "w.txt"
    g.write_text("graph 4\n0 1\n")
    w.write_text("1/8\n3/8\n1/4\n1/4\n")
    code, out = run(capsys, ["reduce", str(g), str(w)])
    assert code == 0
    assert len(json.loads(out)["trace"]) == 2
    # the input's L_BF from one neighbourhood sum; the merges evaluate no
    # L_BF of their own, and no triple system is built
    assert calls == ["_bf_sums"]


def test_weights_whose_lagrangians_exceed_printable_digits(capsys, tmp_path):
    g, w = tmp_path / "g.txt", tmp_path / "w.txt"
    g.write_text("digraph 2\n0 1\n")
    w.write_text("1e-1500\n0." + "9" * 1500 + "\n")  # sums to exactly 1
    for command in ("pipeline", "lagrangian", "reduce"):
        assert main([command, str(g), str(w)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {w}:1: common denominator of the weights")


def test_pipeline(capsys, cherry_files):
    g, w = cherry_files
    code, out = run(capsys, ["pipeline", g, w])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"]


def test_optimize(capsys):
    code, out = run(capsys, ["--seed", "3", "optimize", "--n", "4", "--restarts", "15"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value_exact"] == "3/32"
    assert len(payload["point"]) == 4
    # the most outer iterations any of the 15 starts took, and how many converged
    assert payload["stats"] == {"iterations": 38, "restarts_converged": 15}


def test_enumerate_json_and_csv(capsys):
    code, out = run(capsys, ["enumerate", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 27 and payload["violations"] == []

    code, out = run(capsys, ["--format", "csv", "enumerate", "--n", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,count,max_cf_density")
    assert lines[1].startswith("3,27,")


def test_enumerate_deterministic_modulo_walltime(capsys):
    _, out1 = run(capsys, ["enumerate", "--n", "3"])
    _, out2 = run(capsys, ["enumerate", "--n", "3"])
    a, b = json.loads(out1), json.loads(out2)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def test_validate_fdf(capsys):
    code, out = run(capsys, ["validate-fdf", "--n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["counterexamples"] == []


def test_certify_coarse(capsys, tmp_path):
    """The default certificate is coarse: one bisection of D, and reruns agree byte for byte."""
    code, out = run(capsys, ["certify"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "CERTIFIED"
    assert payload["simplices_processed"] == 3
    assert payload["max_depth_reached"] == 1
    assert [leaf["bound"] for leaf in payload["leaves"]] == ["0", "0"]
    _, again = run(capsys, ["certify"])
    assert again == out
    code, out = run(capsys, ["--format", "text", "certify"])
    assert out.startswith("result: CERTIFIED\n")


def test_global_flags_after_subcommand(capsys, cherry_files):
    g, w = cherry_files
    code, out = run(capsys, ["pipeline", g, w, "--format", "text"])
    assert code == 0
    assert out.startswith("chain:")
    code_a, out_a = run(capsys, ["optimize", "--n", "3", "--restarts", "5", "--seed", "9"])
    code_b, out_b = run(capsys, ["--seed", "9", "optimize", "--n", "3", "--restarts", "5"])
    assert code_a == code_b == 0
    assert out_a == out_b


def test_out_file(tmp_path, capsys, cherry_files):
    g, w = cherry_files
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, ["--out", str(out_path), "pipeline", g, w])
    assert code == 0
    assert json.loads(out_path.read_text())["all_pass"]


def test_repeated_main_calls_share_no_state(tmp_path, capsys, cherry_files):
    """main reuses one parser; no flag or argument of one call carries into the next."""
    g, w = cherry_files
    out_path = tmp_path / "report.json"
    assert run(capsys, ["--out", str(out_path), "--seed", "9", "enumerate", "--n", "3"]) == (0, "")
    code, out = run(capsys, ["--format", "text", "pipeline", g, w])
    assert code == 0 and out.startswith("chain:")
    code, out = run(capsys, ["optimize", "--n", "3", "--restarts", "5"])
    assert code == 0 and json.loads(out)["seed"] == 0
    code, out = run(capsys, ["validate-fdf", "--n", "4"])
    assert code == 0 and json.loads(out)["n"] == 4
    code, out = run(capsys, ["--format", "csv", "enumerate", "--n", "4"])
    assert code == 0 and out.splitlines()[1].startswith("4,729,")
    assert json.loads(out_path.read_text())["n"] == 3
    assert build_parser() is build_parser()


def test_usage_errors(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("digraph 2\n0 1\n1 0\n")
    code, _ = run(capsys, ["construct", str(bad)])
    assert code == 1

    code, _ = run(capsys, ["construct", str(tmp_path / "missing.txt")])
    assert code == 1

    # csv unsupported outside enumerate
    g = tmp_path / "g.txt"
    g.write_text(CHERRY)
    code, _ = run(capsys, ["--format", "csv", "construct", str(g)])
    assert code == 1

    # argparse errors exit 1, like other usage errors; 2 means a failed check
    for argv in (
        ["bogus"],
        ["enumerate"],
        ["--threads", "0", "enumerate", "--n", "3"],  # no such flag
        ["certify", "--delta", "1/8"],
        ["certify", "--method", "interval"],
        ["certify", "--max-depth", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
    capsys.readouterr()

    # a tolerance that is not finite and > 0, and a batch too large to allocate
    for argv in (
        ["optimize", "--n", "3", "--tol", "nan"],
        ["optimize", "--n", "3", "--tol", "-1"],
        ["optimize", "--n", "12", "--restarts", str(10**15)],  # petabytes: fails at once
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv

    # a weight file that is not UTF-8 is a usage error naming its path
    w = tmp_path / "w.txt"
    w.write_bytes(b"1/3\n1/3\n\xff\n")
    assert main(["pipeline", str(g), str(w)]) == 1
    assert f"{w}:3: not UTF-8" in capsys.readouterr().err


def test_csv_refused_before_the_command_runs(capsys, monkeypatch, cherry_files):
    def ran(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(harness, "validate_fdf_family", ran)
    monkeypatch.setattr(cli, "pipeline_report", ran)
    g, w = cherry_files
    for argv in (
        ["construct", g],
        ["lagrangian", g, w],
        ["reduce", g, w],
        ["optimize", "--n", "3"],
        ["certify"],
        ["validate-fdf", "--n", "6"],
        ["pipeline", g, w],
    ):
        assert main(["--format", "csv", *argv]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: csv format not supported for {argv[0]}\n"
