"""The benchmark's own checks.

    python3 bench/check.py [--workloads certify sweep] [--seed 1]

For each workload it makes one untraced and two traced runs of ``run.py``
(one pass each, same seed) and checks that

* every operation passed its pinned reference;
* traced and untraced runs give identical reports, apart from ``wall_time_s``;
* every ``.calls`` count repeats exactly across the two traced runs;
* every function of ``tracer.LAYERS`` is found, and each one the workload
  lists as heavy is called at least once;
* self times sum to the top-level spans, and these to the traced ``wall_s``
  within ``GAP_SHARE`` of it.

Exits 1 on the first workload that fails a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import FUNCTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# largest share of the traced wall_s that may lie outside the top-level spans
GAP_SHARE = 0.01


def run(workload: str, seed: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    path = HERE / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def check_workload(workload: str, seed: int) -> list[str]:
    plain = run(workload, seed, 0)
    traced = [run(workload, seed, 1), run(workload, seed, 1)]
    errors = []
    for r in [plain, *traced]:
        if r["failed"]:
            errors.append(f"{r['failed']} failed operations: {r['failures'][:2]}")
        if len(set(r["report_digests"])) != 1:
            errors.append("reports differ between passes of one run")
    if {d for r in traced for d in r["report_digests"]} != set(plain["report_digests"]):
        errors.append("traced and untraced reports differ")
    calls = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for r in traced
    ]
    if calls[0] != calls[1]:
        diff = {k: (calls[0][k], calls[1][k]) for k in calls[0] if calls[0][k] != calls[1].get(k)}
        errors.append(f"call counts differ between traced runs: {diff}")
    for r in traced:
        if r["missing"]:
            errors.append(f"functions not found: {r['missing']}")
        uncalled = [f for f in WORKLOADS[workload].heavy if r["metrics"][f"{f}.calls"]["value"] < 1]
        if uncalled:
            errors.append(f"heavy functions never called: {uncalled}")
        m = {k: v["value"] for k, v in r["metrics"].items()}
        if abs(m["trace.self_sum_s"] - m["trace.top_span_s"]) > 1e-6 * max(1.0, m["trace.wall_s"]):
            errors.append("self times do not sum to the top-level spans")
        # The gap is the cost of cli.main's own wrapper: about 4 us an operation.
        gap = m["trace.wall_s"] - m["trace.top_span_s"]
        if not 0 <= gap <= GAP_SHARE * m["trace.wall_s"]:
            errors.append(
                f"traced wall_s exceeds the top-level spans by {gap:.6f} s, "
                f"more than {GAP_SHARE:.0%} of it"
            )
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    unassigned = set(FUNCTIONS) - {f for w in WORKLOADS.values() for f in w.heavy}
    if unassigned:
        print(f"FAIL: functions with no heavy workload: {sorted(unassigned)}")
        return 1
    for workload in args.workloads:
        errors = check_workload(workload, args.seed)
        for e in errors:
            print(f"FAIL {workload}: {e}")
        if errors:
            return 1
        print(f"ok   {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
