import contextlib
import json
import os
import random
import threading

import pytest

from trilag import cli, graphs, harness, lagrangian
from trilag.certify import certify
from trilag.cli import main
from trilag.fileio import parse_graph, parse_weights
from trilag.graphs import OrientedGraph, underlying
from trilag.simplex import maximize

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
    for name in ("_graph_sums", "_adjacency", "_bf_sums"):

        def counting(*args, name=name, fn=getattr(lagrangian, name)):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(lagrangian, name, counting)
    code, out = run(capsys, ["lagrangian", *cherry_files])
    assert code == 0
    assert json.loads(out)["lagrangian_bf_underlying"]["value"] == "7/81"
    assert calls == ["_graph_sums", "_adjacency", "_bf_sums"]


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


@contextlib.contextmanager
def _fifo(path, text):
    """A named pipe at path that serves text to its first reader and an empty
    stream to any later one, as a drained pipe; its writer ends on exit."""
    os.mkfifo(path)
    done = threading.Event()

    def serve():
        data = text
        while not done.is_set():
            with open(path, "w") as fh:  # waits for a reader
                fh.write("" if done.is_set() else data)
            data = ""

    writer = threading.Thread(target=serve, daemon=True)
    writer.start()
    try:
        yield str(path)
    finally:
        done.set()
        for _ in range(500):  # release the writer's wait for a reader, for up to 5 s
            if not writer.is_alive():
                break
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(0.01)
    assert not writer.is_alive()


def test_pipeline_reads_a_piped_graph_once(capsys, tmp_path):
    """Undirected input on a named pipe is refused at its header, from the one read."""
    w = tmp_path / "w.txt"
    w.write_text(UNIFORM3)
    with _fifo(tmp_path / "g.fifo", "graph 3\n0 1\n1 2\n") as fifo:
        code = main(["pipeline", fifo, str(w)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {fifo}:1: pipeline expects a digraph\n"


def test_pipeline_reads_graph_and_weights_from_pipes(capsys, tmp_path):
    """Both files on named pipes, the weights behind a comment line longer than
    a pipe's 64 KiB buffer: the unbuffered read loops to EOF, and stdout
    equals the run on regular files."""
    graph = "digraph 3\n0 2\n1 2\n"
    weights = "# " + "x" * (1 << 17) + "\n1/4\n0.25\n2/4\n"
    g, w = tmp_path / "g.txt", tmp_path / "w.txt"
    g.write_text(graph)
    w.write_text(weights)
    code, expected = run(capsys, ["pipeline", str(g), str(w)])
    assert code == 0 and json.loads(expected)["all_pass"]
    with _fifo(tmp_path / "g.fifo", graph) as g_fifo, _fifo(tmp_path / "w.fifo", weights) as w_fifo:
        code, out = run(capsys, ["pipeline", g_fifo, w_fifo])
    assert code == 0
    assert out == expected
    assert capsys.readouterr().err == ""


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
    wpath.write_text("".join(f"{x}\n" for x in w.entries))
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
        assert out == json.dumps(expected, sort_keys=True) + "\n"
        merges.update((step["branch"], step["lagrangian_before"] == step["lagrangian_after"])
                      for step in expected["trace"])
    # both branches are kept, each with and without a change of L_BF
    assert merges == {("a", True), ("a", False), ("b", True), ("b", False)}


def test_json_reports_use_the_c_encoder(capsys, monkeypatch, tmp_path, cherry_files):
    """Every command's JSON report is one sorted line from json's C encoder,
    which runs only without indent: the pure-Python encoder is refused.
    certify --out writes the bytes it prints."""

    def refused(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refused)
    g, w = cherry_files
    for argv in (
        ["construct", g],
        ["lagrangian", g, w],
        ["reduce", g, w],
        ["pipeline", g, w],
        ["optimize", "--n", "3"],
        ["certify"],
        ["enumerate", "--n", "4"],
        ["validate-fdf", "--n", "4"],
    ):
        code, out = run(capsys, argv)
        assert code == 0, argv
        assert out.count("\n") == 1 and out == json.dumps(json.loads(out), sort_keys=True) + "\n", argv
    path = tmp_path / "cert.json"
    assert run(capsys, ["certify", "--out", str(path)]) == (0, "")
    assert path.read_bytes() == run(capsys, ["certify"])[1].encode()


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
    cases = []
    for files, reports in _report_cases(capsys, tmp_path):
        g = parse_graph(files[0])
        cases.append((g, parse_weights(files[1], g.n), reports))
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
    for module, name in ((lagrangian, "_bf_sums"), (graphs, "build_bf"), (graphs, "build_cf")):

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
    code, out = run(capsys, ["--seed", "3", "optimize", "--n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value_exact"] == "3/32"
    assert len(payload["point"]) == 4 and payload["restarts"] == 100
    # the most outer iterations any of the 100 starts took, the long trials
    # taken, and how many starts converged
    assert payload["stats"] == {"iterations": 19, "long_steps": 649, "restarts_converged": 100}


@pytest.mark.parametrize("argv, lines", [
    (["--n", "2"], ["n=2: max ~ 0.093750000000 (exact 3/32)", "argmax ~ (0.5, 0.5)"]),
    (["--seed", "23", "--n", "8"], ["n=8: max ~ 0.093750000000 (exact 3/32)",
                                    "argmax ~ (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5)"]),
    (["--n", "1"], ["n=1: max ~ 0.000000000000 (exact 0)", "argmax ~ (1.0,)"]),
], ids=["n2", "seed23-n8", "n1"])
def test_optimize_text(capsys, argv, lines):
    """The text report of optimize: the value in floats and exactly, and the float argmax."""
    code, out = run(capsys, ["--format", "text", "optimize", *argv])
    assert code == 0 and out.splitlines() == lines


def test_optimize_report_is_maximize(capsys):
    """The optimize payload is maximize's report at the module constants
    RESTARTS and TOL, which no flag changes."""
    for n, seed in ((1, 5), (2, 0), (4, 3), (8, 23)):
        code, out = run(capsys, ["--seed", str(seed), "optimize", "--n", str(n)])
        assert code == 0 and json.loads(out) == maximize(n, seed=seed), (n, seed)
    for flag in (["--restarts", "5"], ["--tol", "1e-9"]):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--n", "3", *flag])
        assert exc.value.code == 1, flag
        assert "unrecognized arguments" in capsys.readouterr().err


def test_optimize_refuses_a_negative_seed(capsys):
    """maximize refuses the seed by name, before numpy sees it."""
    code = main(["--seed", "-1", "optimize", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"  # one line, no traceback


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
    """The default certificate is the coarsest: h's form at the first degree
    with no negative coefficient, 8; reruns agree byte for byte."""
    code, out = run(capsys, ["certify"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"coefficients": 165, "degree": 8, "least": "0", "least_at": [0, 0, 7, 1],
                       "result": "CERTIFIED"}
    _, again = run(capsys, ["certify"])
    assert again == out
    code, out = run(capsys, ["--format", "text", "certify"])
    assert out.startswith("result: CERTIFIED\n")


def test_certify_report_is_certify(capsys, tmp_path):
    """certify prints certify()'s report; the file --out writes reads back as that
    report, byte for byte the same on a rerun."""
    code, out = run(capsys, ["certify"])
    report = certify()
    assert code == 0 and json.loads(out) == report
    paths = [tmp_path / "cert.json", tmp_path / "again.json"]
    for path in paths:
        code, out = run(capsys, ["certify", "--out", str(path)])
        assert code == 0 and out == ""
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with open(paths[0], encoding="utf-8") as fh:
        saved = json.load(fh)
    assert saved == report
    assert saved["degree"] == 8 and saved["least"] == "0"
    code, out = run(capsys, ["--format", "text", "certify"])
    assert out == "result: CERTIFIED\ndegree: 8, coefficients: 165, least: 0 at (0, 0, 7, 1)\n"


def test_accepted_argv_forms(capsys, tmp_path, cherry_files):
    """--format, --out and --seed go before or after the command, as --flag value
    or --flag=value, and the last one given wins; --seed -1 is read as a value;
    --help and -h list every command on stdout and exit 0, also after a command."""
    g, w = cherry_files
    text = run(capsys, ["--format", "text", "pipeline", g, w])
    assert text[0] == 0 and text[1].startswith("chain:")
    for argv in (["pipeline", g, w, "--format", "text"], ["--format=text", "pipeline", g, w],
                 ["pipeline", "--format=text", g, w], ["--format", "json", "pipeline", g, "--format", "text", w]):
        assert run(capsys, argv) == text, argv
    optimize = run(capsys, ["--seed", "9", "optimize", "--n", "3"])
    assert optimize[0] == 0 and json.loads(optimize[1])["seed"] == 9
    for argv in (["optimize", "--n", "3", "--seed", "9"], ["--seed=9", "optimize", "--n=3"],
                 ["--seed", "-1", "optimize", "--seed", "9", "--n", "2", "--n", "3"]):
        assert run(capsys, argv) == optimize, argv
    assert main(["optimize", "--n", "3", "--seed", "-1"]) == 1  # refused by maximize, not by the scan
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    first, last = tmp_path / "first.json", tmp_path / "last.json"
    assert run(capsys, ["--out", str(first), "certify", f"--out={last}"]) == (0, "")
    assert not first.exists() and json.loads(last.read_text())["result"] == "CERTIFIED"
    for argv in (["--help"], ["-h"], ["pipeline", "--help"], ["--format", "text", "optimize", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("usage: trilag"), argv
        listed = [line.split()[0] for line in captured.out.splitlines() if line.startswith("  ")]
        assert listed == ["construct", "lagrangian", "reduce", "optimize", "certify", "enumerate",
                          "validate-fdf", "pipeline"], argv


def test_out_file(tmp_path, capsys, cherry_files):
    """--out writes the report to its path.  An empty path is one that cannot
    be opened, not a request for stdout: exit 1, the error on stderr and
    nothing on stdout."""
    g, w = cherry_files
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, ["--out", str(out_path), "pipeline", g, w])
    assert code == 0
    assert json.loads(out_path.read_text())["all_pass"]
    for argv in (["--out=", "--format", "text", "certify"], ["--out", "", "certify"], ["certify", "--out="]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n", argv


def test_repeated_main_calls_share_no_state(tmp_path, capsys, cherry_files):
    """No flag or argument of one main call carries into the next."""
    g, w = cherry_files
    out_path = tmp_path / "report.json"
    assert run(capsys, ["--out", str(out_path), "--seed", "9", "enumerate", "--n", "3"]) == (0, "")
    code, out = run(capsys, ["--format", "text", "pipeline", g, w])
    assert code == 0 and out.startswith("chain:")
    code, out = run(capsys, ["optimize", "--n", "3"])
    assert code == 0 and json.loads(out)["seed"] == 0
    code, out = run(capsys, ["validate-fdf", "--n", "4"])
    assert code == 0 and json.loads(out)["n"] == 4
    code, out = run(capsys, ["--format", "csv", "enumerate", "--n", "4"])
    assert code == 0 and out.splitlines()[1].startswith("4,729,")
    assert json.loads(out_path.read_text())["n"] == 3


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

    # usage errors exit 1 with the usage line and a message naming the token;
    # exit code 2 means a failed check
    for argv, named in (
        (["bogus"], "'bogus'"),
        (["enumerate"], "--n"),
        (["--threads", "0", "enumerate", "--n", "3"], "--threads"),  # no such flag
        (["certify", "--delta", "1/8"], "--delta"),
        (["certify", "--method", "interval"], "--method"),
        (["certify", "--max-depth", "3"], "--max-depth"),
        (["optimize", "--n", "3", "--tol", "nan"], "--tol"),  # no such flag: TOL is a module constant
        (["optimize", "--n", "3", "--tol", "-1"], "--tol"),
        (["optimize", "--n", "x"], "'x'"),
        (["--format", "xml", "certify"], "'xml'"),
        (["certify", "--out"], "--out"),
        (["pipeline", str(g), str(g), "third.txt"], "third.txt"),
        (["certify", "--n", "3"], "--n"),
        ([], "command"),
        (["--form", "text", "certify"], "--form"),  # no prefix of a flag is accepted
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: trilag"), argv
        error = captured.err.splitlines()[-1]
        assert error.startswith("trilag: error: ") and named in error, argv

    # a batch too large to allocate: petabytes, so it fails at once
    assert main(["optimize", "--n", str(10**15)]) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate")

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
