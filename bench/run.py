"""Benchmark of the trilag command line, run in-process from one Python process.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``certify``, ``sweep``, ``instances`` and
``optimize``.  Each operation is one ``trilag.cli.main(argv)`` call whose
exit code and JSON report are checked against a pinned reference.

Set-up imports ``trilag`` in a fresh interpreter and generates the
workload's inputs; ``setup_s`` adds the median of ``IMPORT_REPEATS`` imports
to the fastest of ``GENERATE_REPEATS`` generations (see ``setup_seconds``).
Measurement then runs whole passes over the operations until ``--seconds``
have elapsed, so a run measures at least one pass and overruns by less than
one.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median over passes of the time spent inside ``main`` calls;
* ``cpu_s``: median over passes of user plus system CPU seconds of this
  process and its waited-for children;
* ``op_p50_ms``, ``op_p99_ms``: percentiles over operations of each
  operation's latency in its fastest pass, when a pass has at least
  ``PERCENTILE_SAMPLES`` operations (today only ``instances``; such runs
  measure at least two passes); with fewer, a p99 would have under ten
  samples beyond it, and both report the mean operation latency of the
  median pass;
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* ``setup_s`` as above.

The times are given at the reference machine speed of ``probe.py``: each
operation's measured seconds, less the time spent in the probe, times the
probe's speed factor around that operation; the import part of
``setup_s`` is scaled by the speed of a bare interpreter start (see
``setup_seconds``).  Input generation, which goes to the file system, and
``peak_rss_mb`` are as measured.  The measured values are printed beside
the scaled ones and kept in the results file under ``raw``.
``failed_frac`` is printed too, and carried by ``attempted`` and ``failed``
in the result line.

``--trace 1`` runs untraced passes for half the time, then one pass with the
public functions listed in ``tracer.LAYERS`` wrapped, and reports per-layer
calls and self seconds, derived ratios with their bases, and
``trace.overhead_s`` (traced pass minus the median untraced pass).  The
probe stays off in traced runs, so their times are as measured.

Human-readable lines go first; the last line of standard output is the JSON
result.  A results file with the machine description is written under
``bench/out/results`` and, for traced runs, the spans under ``bench/out/spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
IMPORT_REPEATS = 15
GENERATE_REPEATS = 7
# seconds a bare interpreter takes to start at the reference speed
STARTUP_REFERENCE_S = 0.05
# operations per pass needed for op percentiles: ten samples beyond the p99
PERCENTILE_SAMPLES = 1000

sys.path.insert(0, str(HERE))

from probe import Probe  # noqa: E402
from tracer import FUNCTIONS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_trilag():
    """Import trilag from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "trilag" / "__init__.py").is_file():
        raise SystemExit(f"error: no trilag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trilag.cli

    if Path(trilag.__file__).resolve().parent != (SRC / "trilag").resolve():
        raise SystemExit(f"error: imported trilag from {trilag.__file__}, not {SRC}")
    return trilag.cli


def set_up(workload: str, seed: int, workdir: Path) -> tuple[dict, list[Op]]:
    """Seconds of each fresh-interpreter start, import of trilag.cli and input generation.

    Every generation writes all input files; the first also creates them,
    later ones rewrite them in place.  Creating a file cost from under 0.1 ms
    to 0.8 ms of kernel time on the ext4 host the benchmark was tuned on,
    varying 10-fold from run to run, and that cost belongs to the host, not
    to trilag.
    """
    starts, imports = [], []
    for _ in range(IMPORT_REPEATS):
        for code, times in (("pass", starts), ("import trilag.cli", imports)):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
            )
            times.append(time.perf_counter() - t0)
    generations = []
    for _ in range(GENERATE_REPEATS):
        t0 = time.perf_counter()
        ops = WORKLOADS[workload].make_ops(seed, workdir)
        generations.append(time.perf_counter() - t0)
    return {"start_s": starts, "import_s": imports, "generate_s": generations}, ops


def setup_seconds(setup: dict, scaled: bool) -> float:
    """Import plus fastest generation.

    The import is the median over repeats, at the reference speed when
    ``scaled``: each import is divided by the bare interpreter start made
    just before it, which reads and runs the same kind of code and slows
    down with it, and multiplied by ``STARTUP_REFERENCE_S``.  Ten runs of
    one workload spread 0.02 so, against 0.17 for the fastest measured
    import.  The generation's time goes to the file system, whose stalls
    only ever add time: it is the fastest repeat, as measured.
    """
    if scaled:
        import_s = STARTUP_REFERENCE_S * statistics.median(
            imp / start for imp, start in zip(setup["import_s"], setup["start_s"])
        )
    else:
        import_s = statistics.median(setup["import_s"])
    return import_s + min(setup["generate_s"])


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k != "wall_time_s"}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Pass:
    """One pass over all operations: latencies, failures, report counts and digest.

    Reports are reduced to counts as they arrive, so memory does not grow with
    the number of passes and ``peak_rss_mb`` stays the program's own.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.op_times: list[tuple[float, float]] = []  # (start, end) of each operation
        self.failures: list[dict] = []
        self.leaf_methods: Counter = Counter()
        self.merges = 0
        self.cpu_s = 0.0
        self.digest = hashlib.sha256()

    def tally(self, report) -> None:
        if not isinstance(report, dict):
            return
        self.leaf_methods.update(
            leaf.get("method") for leaf in report.get("leaves", []) if isinstance(leaf, dict)
        )
        self.merges += len(report.get("reduction_trace", []))

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(cli, ops: list[Op], probe: Probe) -> Pass:
    """Run every operation once; time spent in the probe is not counted."""
    result = Pass()
    gc.collect()
    cpu0, probe_cpu0 = cpu_seconds(), probe.cpu_total
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        main = cli.main  # looked up per call, so a traced pass goes through the wrapper
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            probe_wall0 = probe.wall_total
            t0 = time.perf_counter()
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback is a failed operation, not a crash
                code = f"exception {exc!r}"
            t1 = time.perf_counter()
        result.latencies.append(t1 - t0 - (probe.wall_total - probe_wall0))
        result.op_times.append((t0, t1))
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            report = None
        error = op.check(code, report) if isinstance(code, int) else code
        if error:
            result.failures.append(
                {"argv": op.argv, "error": error, "stderr": err.getvalue()[-500:]}
            )
        result.tally(report)
        canonical = json.dumps(_strip_timing(report), sort_keys=True)
        result.digest.update(hashlib.sha256(canonical.encode()).digest())
    result.cpu_s = cpu_seconds() - cpu0 - (probe.cpu_total - probe_cpu0)
    return result


def measure(cli, ops: list[Op], seconds: float, probe: Probe) -> list[Pass]:
    """Whole passes until ``seconds`` have elapsed.

    At least one, and two when the percentiles are reported, which take each
    operation's fastest pass.
    """
    min_passes = 2 if len(ops) >= PERCENTILE_SAMPLES else 1
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(cli, ops, probe))
    return passes


def end_to_end(passes: list[Pass], setup: dict, probe: Probe | None) -> dict[str, float]:
    """End-to-end metrics; ``wall_s`` and ``cpu_s`` are medians over passes.

    With a ``probe``, every operation's latency is scaled to the reference
    speed by the probe samples taken around it, and a pass's CPU time by the
    ratio of its scaled to its measured wall time.
    """
    scaled = [
        [t * probe.factor(a, b) for t, (a, b) in zip(p.latencies, p.op_times)]
        if probe else p.latencies
        for p in passes
    ]
    walls = [sum(latencies) for latencies in scaled]
    wall_s = statistics.median(walls)
    cpu_s = statistics.median(
        p.cpu_s * wall / p.wall_s if p.wall_s else p.cpu_s for p, wall in zip(passes, walls)
    )

    ops = len(passes[0].latencies)
    if ops >= PERCENTILE_SAMPLES:
        # A stall of the host lands on a few operations of one pass, and ten
        # of them would set the p99: each operation counts at its fastest.
        fastest = [min(times) for times in zip(*scaled)]
        cuts = statistics.quantiles(fastest, n=100, method="inclusive")
        p50, p99 = cuts[49], cuts[98]
    else:  # too few samples for a p99: both report the mean operation of the median pass
        p50 = p99 = wall_s / ops
    return {
        "setup_s": setup_seconds(setup, scaled=probe is not None),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "op_p50_ms": 1000 * p50,
        "op_p99_ms": 1000 * p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, traced: Pass, untraced: list[Pass], n_ops: int) -> dict:
    """Per-function calls and self time, layer totals, derived ratios and trace checks."""
    s = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (s["calls"][name], "count")
        metrics[f"{name}.self_s"] = (s["self_s"][name], "s")
    for layer, fns in LAYERS.items():
        metrics[f"{layer}.self_s"] = (sum(s["self_s"][f"{layer}.{f}"] for f in fns), "s")

    def ratio(num, den):
        return num / den if den else 0.0

    interval_leaves = traced.leaf_methods["interval"]
    bernstein_leaves = traced.leaf_methods["bernstein"]
    merges = traced.merges
    restarts = tracer.restarts
    calls = s["calls"]
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    metrics.update(
        {
            "bench.ops": (n_ops, "count"),
            "certify.interval_leaves": (interval_leaves, "count"),
            "certify.interval_useful_ratio": (
                ratio(interval_leaves, calls["certify.interval_lower_bound"]), "ratio"),
            "certify.bernstein_leaves": (bernstein_leaves, "count"),
            "certify.bernstein_useful_ratio": (
                ratio(bernstein_leaves, calls["certify.bernstein_lower_bound"]), "ratio"),
            "simplex.restarts": (restarts, "count"),
            "simplex.steps_per_restart": (
                ratio(calls["simplex.project_to_simplex"], restarts), "ratio"),
            "reduction.merges": (merges, "count"),
            "reduction.merges_per_op": (ratio(merges, n_ops), "ratio"),
            "lagrangian.lagrangian_bf.calls_per_op": (
                ratio(calls["lagrangian.lagrangian_bf"], n_ops), "ratio"),
            "trace.wall_s": (traced.wall_s, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (traced.wall_s - untraced_wall, "s"),
            "trace.self_sum_s": (s["self_sum_s"], "s"),
            "trace.top_span_s": (s["top_span_s"], "s"),
            "trace.spans": (s["spans"], "count"),
            "trace.missing": (len(tracer.missing), "count"),
        }
    )
    return metrics


def git_commit() -> str:
    """HEAD of the checkout's own ``.git``, if it has one (parents are not searched)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int, trace: bool) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_trilag()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup, ops = set_up(args.workload, args.seed, workdir)
        tracer = None
        probe = Probe()
        raw = {}
        if args.trace:  # raw times only: the probe would land inside the spans
            passes = measure(cli, ops, args.seconds / 2, probe)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, ops, probe)
            finally:
                tracer.uninstall()
            layer_metrics = per_layer(tracer, traced, passes, len(ops))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
            passes.append(traced)
        else:
            with probe:
                passes = measure(cli, ops, args.seconds, probe)
            raw = end_to_end(passes, setup, None)
            metrics = {
                k: {"value": v, "unit": END_TO_END_UNITS[k]}
                for k, v in end_to_end(passes, setup, probe).items()
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    digests = [p.digest.hexdigest() for p in passes]
    info = {
        "workload": args.workload,
        "machine": machine(args.seed, bool(args.trace)),
        "seconds": args.seconds,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "setup": setup,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes],
        "report_digests": digests,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "missing": tracer.missing if tracer else [],
        "probe": {
            "samples": len(probe.durations),
            "mean_s": statistics.fmean(probe.durations) if probe.durations else None,
            "factor": probe.factor(),
        },
        "raw": raw,
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(info, indent=2) + "\n")
    if tracer:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / "spans" / f"{stem}.csv.gz")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  ops/pass {len(ops)}  operations {attempted}")
    for name, m in metrics.items():
        measured = f"  (measured {raw[name]:.6g})" if raw.get(name, m["value"]) != m["value"] else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{measured}")
    if raw:
        print(f"  probe: {len(probe.durations)} samples, speed factor {probe.factor():.4f}")
    print(f"  failed_frac = {info['failed_frac']:.6g} ({len(failures)} of {attempted})")
    for f in failures[:5]:
        print(f"  FAILED {' '.join(f['argv'])}: {f['error']}")
    if tracer and tracer.missing:
        print(f"  missing functions: {', '.join(tracer.missing)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
