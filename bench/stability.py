"""Run-to-run spread of the end-to-end metrics, and the committed baseline.

    python3 bench/stability.py [--runs 10] [--first-seed 1] [--seconds S]
                               [--workloads certify sweep] [--traced] [--out FILE]
                               [--compare FILE]

Runs ``run.py`` once per seed on each workload with tracing off, for
``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` is given, and
prints, per metric, the median, the quartiles and the spread (quartile
distance over the median) next to the bound in ``BENCHMARK.json``; a spread
of a third of its bound or more is flagged.  ``--traced`` adds one traced
run per workload, on the first seed.  ``--out`` writes everything as JSON,
with the machine description; the machine's ``seed`` is the first seed.
``--compare`` takes an earlier ``--out`` file of the same code and flags
every median that is worse than the earlier one by more than its bound.
Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import machine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {
        "seconds": seconds,
        "machine": machine(args.first_seed, trace=False),
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        results = [
            run(workload, seed, seconds, 0)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        entry: dict = {
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
            "all_correct": all(r["correct"] for r in results),
            "failed_frac": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "run_s": [r["run_s"] for r in results],
            "end_to_end": {},
        }
        steady &= entry["all_correct"]
        print(f"{workload}: correct {entry['all_correct']}, failed_frac {entry['failed_frac']}, "
              f"mean run {statistics.mean(entry['run_s']):.1f} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- not steady"
            before = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if before and med > before["median"] * (1 + bound):
                flag += f"  <-- worse than {before['median']:.6g} by more than the bound"
            steady &= not flag
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "values": values,
            }
            print(f"  {name:12s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
        if args.traced:
            traced = run(workload, args.first_seed, seconds, 1)
            entry["traced_run_s"] = traced["run_s"]
            entry["per_layer"] = traced["metrics"]
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
