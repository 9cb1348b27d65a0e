"""Every report of every command is byte-identical to the committed digests.

``cli.main`` runs in process on a fixed set of argvs, grouped by command.
Each run's stdout, stderr and exit code are hashed, SHA-256 per group,
and compared with ``report_digests.json``.  A JSON report is hashed with
its timing fields masked: ``wall_time_s`` and ``stats`` are dropped at
every depth, after a check that the report re-renders to the very bytes
printed, so the masking hides no change of layout.  ``optimize`` is
hashed on ``value_exact``, ``exact_point`` and ``converged`` alone, the
exact payload of its float search.

The instances of ``pipeline``, ``reduce`` and ``lagrangian`` come from
this file's own ``random.Random`` and ``helpers.rand_orientation``, so
the digests depend on no benchmark input.  The reports of the named
graphs and weights are also read by value: ``CI_FIELDS`` holds fields
they must carry, ``CI_SAME`` argvs that must print the same bytes, and
``REFUSALS`` the one error line of each refused input.  Files are
written to a fresh directory and named relative to it, so no message
carries a temporary path.

After a change that is meant to alter a report, rewrite the file with

    PYTHONPATH=src:tests python tests/test_report_digests.py

and say in the change which groups moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from helpers import rand_orientation
from trilag.cli import main

DIGESTS = Path(__file__).with_name("report_digests.json")
MASKED = ("wall_time_s", "stats")
OPTIMIZE_FIELDS = ("value_exact", "exact_point", "converged")
INSTANCES = 150

# the graphs and weights of the shell steps CI once ran: these files are
# now their only copy, and the tables below hold the values those steps asserted
CI_GRAPHS = {
    "cherry.txt": "digraph 3\n0 2\n1 2\n",
    "cherry_graph.txt": "graph 3\n0 2\n1 2\n",
    "path.txt": "graph 4\n0 1\n1 2\n2 3\n",
    "commented_path.txt": "# an undirected path\n\ngraph 3\n0 1\n1 2\n",
    "c5_chord.txt": "digraph 5\n0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n",
    "arc.txt": "digraph 2\n0 1\n",
    "k3.txt": "digraph 3\n0 1\n1 2\n0 2\n",
    "ff_cherry.txt": "digraph 3\r\n# a cherry\x0c(see page 2)\r\n0 2\r\n1 2\r\n",
    "c30.txt": "digraph 30\n" + "".join(f"{v} {(v + 1) % 30}\n" for v in range(30)),
    "tt40.txt": "digraph 40\n" + "".join(f"{i} {j}\n" for i, j in combinations(range(40), 2)),
}
CI_WEIGHTS = {
    "cherry_w.txt": "1/4\n1/4\n1/2\n",
    "uniform3_w.txt": "1/3\n1/3\n1/3\n",
    "uniform4_w.txt": "1/4\n1/4\n1/4\n1/4\n",
    "arc_w.txt": "1/2\n1/2\n",
    "mixed_w.txt": "0.25\n25e-2\n2/4\n",
    "mixed2_w.txt": "1_0/40\n# a note\n0.25\n2/4\n",
    "vt_w.txt": "1/4 # a quarter\x0bnote\n1/4\n1/2\n",
    "k3_w.txt": "1e-1072\n1/2\n0.4" + "9" * 1071 + "\n",
    "c30_w.txt": "1/30\n" * 30,
    "tt40_w.txt": "1/40\n" * 40,
}
CI_PAIRS = [("cherry.txt", "cherry_w.txt"), ("cherry.txt", "uniform3_w.txt"), ("cherry.txt", "mixed_w.txt"),
            ("cherry.txt", "mixed2_w.txt"), ("ff_cherry.txt", "vt_w.txt"),
            ("arc.txt", "arc_w.txt"), ("k3.txt", "k3_w.txt"), ("c30.txt", "c30_w.txt"), ("tt40.txt", "tt40_w.txt")]

JSON = ("--format", "json")
CHERRY_MERGE = {"S_a": "1/2", "S_ab": "1/2", "S_b": "1/2", "branch": "a", "kept": 0,
                "lagrangian_after": "3/32", "lagrangian_before": "3/32", "pair": [0, 1]}
CHERRY_BF = {"value": "7/81", "triple_term": "1/27", "pair_term": "2/27", "quadratic_term": "2/81"}
# fields a report must carry, by argv
CI_FIELDS = {
    (*JSON, "construct", "cherry.txt"): {"cf_triples": [[0, 1, 2]], "f_triples": []},
    (*JSON, "construct", "path.txt"): {"bf_triples": [[0, 1, 2], [1, 2, 3]], "bf_density": "1/2"},
    (*JSON, "pipeline", "cherry.txt", "cherry_w.txt"): {"all_pass": True, "lagrangian_cf": "1/16",
                                                        "reduction_trace": [CHERRY_MERGE]},
    (*JSON, "reduce", "cherry.txt", "cherry_w.txt"): {"monotone": True, "final_lagrangian": "3/32",
                                                      "trace": [CHERRY_MERGE]},
    (*JSON, "lagrangian", "cherry.txt", "uniform3_w.txt"): {
        "lagrangian_cf": {"value": "2/27", "triple_term": "1/27", "pair_term": "1/27", "quadratic_term": "0"},
        "lagrangian_bf_underlying": CHERRY_BF},
    ("lagrangian", "cherry_graph.txt", "uniform3_w.txt"): {"lagrangian_bf": CHERRY_BF},
    ("lagrangian", "path.txt", "uniform4_w.txt"): {
        "lagrangian_bf": {"value": "31/512", "triple_term": "1/32", "pair_term": "3/64", "quadratic_term": "9/512"}},
    (*JSON, "pipeline", "arc.txt", "arc_w.txt"): {"all_pass": True, "h_at_point": "0"},
    (*JSON, "pipeline", "k3.txt", "k3_w.txt"): {"all_pass": True},
    (*JSON, "pipeline", "c30.txt", "c30_w.txt"): {"all_pass": True, "closed_form_value": "1477/50625"},
    (*JSON, "pipeline", "tt40.txt", "tt40_w.txt"): {"all_pass": True, "lagrangian_cf": "39/6400",
                                                    "lagrangian_bf": "611/12800"},
}
# argvs that must print the same bytes as the run on reduced p/q weights, or on the same pairs as a graph
CI_SAME = {
    **{(*JSON, "pipeline", g, w): (*JSON, "pipeline", "cherry.txt", "cherry_w.txt")
       for g, w in (("cherry.txt", "mixed_w.txt"), ("cherry.txt", "mixed2_w.txt"), ("ff_cherry.txt", "vt_w.txt"))},
    (*JSON, "reduce", "cherry.txt", "uniform3_w.txt"): ("reduce", "cherry_graph.txt", "uniform3_w.txt"),
}

# inputs each command must refuse with exit code 1 and a line-numbered message
BAD_GRAPHS = {
    "empty.txt": "",
    "comments_only.txt": "# nothing\n\n",
    "bad_header.txt": "digraf 3\n0 1\n",
    "bad_count.txt": "digraph x\n",
    "negative_count.txt": "graph -1\n",
    "one_endpoint.txt": "digraph 3\n0\n",
    "non_integer.txt": "digraph 3\n0 a\n",
    "out_of_range.txt": "digraph 3\n0 1\n0 5\n",
    "self_loop.txt": "digraph 3\n1 1\n",
    "duplicate_arc.txt": "digraph 3\n0 1\n0 1\n",
    "antiparallel.txt": "digraph 3\n0 1\n1 0\n",
    "duplicate_edge.txt": "graph 3\n0 1\n1 0\n",
    "ff_bad.txt": "digraph 3\n# a note\x0c(see page 2)\n0 1\n0 5\n",
}
BAD_WEIGHTS = {
    "zero_den_w.txt": "1/0\n1\n0\n",
    "word_w.txt": "1/3\nabc\n2/3\n",
    "negative_w.txt": "-1/3\n2/3\n2/3\n",
    "above_one_w.txt": "3/2\n-1/2\n0\n",
    "surplus_w.txt": "1/3\n1/3\n1/3\n0\n",
    "missing_w.txt": "1/2\n1/2\n",
    "sum_w.txt": "1/3\n1/3\n1/2\n",
    "empty_w.txt": "# none\n",
    "huge_exponent_w.txt": "1e-100000000\n1\n0\n",
    "big_w.txt": "1e4300\n0\n0\n",
    "long_den_w.txt": "1/" + "7" * 1100 + "\n0\n1\n",
    "long_int_w.txt": "1" * 4400 + "\n0\n0\n",
}
# refused argvs and the error each prints, one line on stderr with exit code 1
REFUSALS = {
    ("pipeline", "ff_bad.txt", "uniform3_w.txt"): "ff_bad.txt:4: endpoint out of range 0..2",
    ("pipeline", "duplicate_arc.txt", "uniform3_w.txt"): "duplicate_arc.txt:3: duplicate arc 0 1",
    ("pipeline", "antiparallel.txt", "uniform3_w.txt"): "antiparallel.txt:3: antiparallel pair 1<->0: not an orientation",
    ("pipeline", "commented_path.txt", "uniform3_w.txt"): "commented_path.txt:3: pipeline expects a digraph",
    ("lagrangian", "cherry.txt", "huge_exponent_w.txt"):
        "huge_exponent_w.txt:1: decimal exponent of '1e-100000000' is beyond +-4300",
    ("pipeline", "cherry.txt", "big_w.txt"): "big_w.txt:1: weight '1e4300' exceeds 1",
}
BAD_ARGVS = [
    [], ["nope"], ["--format", "xml", "certify"], ["certify", "extra"], ["optimize"], ["optimize", "--n", "x"],
    ["--seed"], ["--seed", "x", "certify"], ["pipeline", "cherry.txt"], ["--n", "3", "certify"],
    ["--format", "csv", "pipeline", "cherry.txt", "uniform3_w.txt"], ["--format", "csv", "certify"],
    ["construct", "no_such.txt"], ["pipeline", "cherry.txt", "no_such_w.txt"], ["--out", "", "certify"],
    ["optimize", "--n", "0"], ["--seed", "-1", "optimize", "--n", "3"], ["--help"], ["certify", "-h"],
]


def _write_instance(rng, i: int, directory: Path) -> tuple[str, str, str]:
    """One random orientation on 2..8 vertices and weights on it, both as
    files, and the same arcs written as an undirected graph."""
    n = rng.randint(2, 8)
    g = rand_orientation(rng, n)
    arcs = sorted(g.arcs)
    while True:
        parts = [rng.randint(0, 30) for _ in range(n)]
        if sum(parts):
            break
    total = sum(parts)
    # reduced p/q, unreduced p/q or a plain integer, as the rng picks
    lines = [str(Fraction(p, total)) if rng.random() < 0.5 else f"{p}/{total}" for p in parts]
    names = (f"g{i}.txt", f"w{i}.txt", f"u{i}.txt")
    (directory / names[0]).write_text(f"digraph {n}\n" + "".join(f"{u} {v}\n" for u, v in arcs))
    (directory / names[1]).write_text("".join(line + "\n" for line in lines))
    (directory / names[2]).write_text(f"graph {n}\n" + "".join(f"{v} {u}\n" for u, v in arcs))
    return names


def _argvs(directory: Path) -> dict[str, list[list[str]]]:
    """Each group's argvs, with every file they read written to directory."""
    for name, text in {**CI_GRAPHS, **CI_WEIGHTS, **BAD_GRAPHS, **BAD_WEIGHTS}.items():
        (directory / name).write_text(text, encoding="utf-8", newline="")
    (directory / "latin1.txt").write_bytes(b"digraph 3\n0 1\n# caf\xe9\n")
    (directory / "latin1_w.txt").write_bytes(b"1/3\n1/3\n1/3 # caf\xe9\n")

    rng = random.Random(46)
    instances = [_write_instance(rng, i, directory) for i in range(INSTANCES)]
    groups = {"instances": []}
    for i, (g, w, u) in enumerate(instances):
        formats = (["--format", "json"], ["--format", "text"]) if i % 10 == 0 else ([],)
        for fmt in formats:
            groups["instances"] += [[*fmt, "pipeline", g, w], [*fmt, "reduce", g, w], [*fmt, "lagrangian", g, w]]
        if i % 3 == 0:
            groups["instances"] += [["reduce", u, w], ["lagrangian", u, w], ["construct", u]]

    fmts = (["--format", "json"], ["--format", "text"])
    groups["construct"] = [[*fmt, "construct", g] for g in CI_GRAPHS for fmt in fmts]
    groups["ci_pairs"] = [[*fmt, cmd, g, w] for g, w in CI_PAIRS for cmd in ("pipeline", "reduce", "lagrangian")
                          for fmt in fmts]
    groups["ci_pairs"] += [["reduce", "cherry_graph.txt", "uniform3_w.txt"],
                           ["lagrangian", "cherry_graph.txt", "uniform3_w.txt"],
                           ["lagrangian", "path.txt", "uniform4_w.txt"], ["reduce", "path.txt", "uniform4_w.txt"]]
    groups["certify"] = [["certify"], ["--format", "text", "certify"], ["certify", "--format=text"]]
    groups["optimize"] = [["--seed", str(seed), "optimize", "--n", str(n)] for seed in range(4) for n in range(1, 13)]
    groups["sweeps"] = [["enumerate", "--n", str(n)] for n in range(3, 7)]
    groups["sweeps"] += [[*fmt, "enumerate", "--n", str(n)] for n in range(3, 6)
                         for fmt in (["--format", "text"], ["--format", "csv"])]
    groups["sweeps"] += [["validate-fdf", "--n", str(n)] for n in range(3, 7)]
    groups["sweeps"] += [["--format", "text", "validate-fdf", "--n", str(n)] for n in range(3, 6)]
    refused = [[cmd, g] for g in (*BAD_GRAPHS, "latin1.txt") for cmd in ("construct",)]
    refused += [[cmd, g, "uniform3_w.txt"] for g in (*BAD_GRAPHS, "latin1.txt", "commented_path.txt")
                for cmd in ("pipeline", "reduce", "lagrangian")]
    refused += [[cmd, "cherry.txt", w] for w in (*BAD_WEIGHTS, "latin1_w.txt", "uniform4_w.txt")
                for cmd in ("pipeline", "reduce", "lagrangian")]
    groups["refused"] = refused + BAD_ARGVS
    return groups


def _mask(value):
    if isinstance(value, dict):
        return {key: _mask(v) for key, v in value.items() if key not in MASKED}
    if isinstance(value, list):
        return [_mask(v) for v in value]
    return value


def _run(argv: list[str]) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _record(argv: list[str], code: int, out: str, err: str) -> bytes:
    """argv, exit code, stdout with its timing masked, and stderr, as bytes."""
    if out.startswith("{"):
        report = json.loads(out)
        assert json.dumps(report, sort_keys=True) + "\n" == out, argv  # the masking below hides no layout
        if "optimize" in argv:
            report = {key: report[key] for key in OPTIMIZE_FIELDS}
        out = json.dumps(_mask(report), sort_keys=True) + "\n"
    return json.dumps([argv, code, out, err]).encode() + b"\n"


def digests(directory: Path) -> tuple[dict[str, dict], dict[tuple, tuple[int, str, str]]]:
    """Each group's number of argvs and the SHA-256 of their records, run in
    directory, and each argv's exit code, stdout and stderr."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        result, runs = {}, {}
        for group, argvs in _argvs(directory).items():
            sha = hashlib.sha256()
            for argv in argvs:
                runs[tuple(argv)] = _run(argv)
                sha.update(_record(argv, *runs[tuple(argv)]))
            result[group] = {"argvs": len(argvs), "sha256": sha.hexdigest()}
        return result, runs
    finally:
        os.chdir(cwd)


def test_every_report_matches_the_committed_digests(tmp_path):
    result, runs = digests(tmp_path)
    for argv, fields in CI_FIELDS.items():
        code, out, err = runs[argv]
        report = json.loads(out)
        assert (code, err, {key: report[key] for key in fields}) == (0, "", fields), argv
    for argv, same in CI_SAME.items():
        assert runs[argv] == runs[same], argv
    for argv, message in REFUSALS.items():
        assert runs[argv] == (1, "", f"error: {message}\n"), argv
    assert result == json.loads(DIGESTS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(digests(Path(tmp))[0], indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(DIGESTS.read_text(encoding="utf-8"))
