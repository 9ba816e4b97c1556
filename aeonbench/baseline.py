"""Record a baseline: repeated runs of every workload, with their spread.

Run from the repository root::

    python3 aeonbench/baseline.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                  [--out aeonbench/baseline.json]

Each workload runs ``--runs`` times, one seed each, through the same
command line as any other caller (``aeonbench/run.py``), then once
traced.  For every end-to-end metric it records the median, the
quartiles (``statistics.quantiles(values, n=4)``), ``n`` and the spread
(interquartile range as a share of the median) next to the metric's
bound from ``BENCHMARK.json``; a spread above a third of the bound is
flagged, except for ``setup_s``, whose spread is not gated.  The
machine fingerprint of every run is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

HISTORY_NOTE = (
    "BENCH_kernel.json and BENCH_executor.json at the repository root are "
    "historical single runs: they record no spread and no core count, and "
    "their figures did not reproduce on a later machine.  This file is the "
    "first baseline with repetitions, quartiles and a machine fingerprint."
)


def run_once(workload: str, seed: int, trace: int) -> Dict[str, Any]:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(DECLARED["run_seconds"]),
               "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["fingerprint"] = next(
        json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("fingerprint:")
    )
    return result


def summarize(values: List[float], bound: float = 0.0) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    row = {"median": median, "q1": q1, "q3": q3, "n": len(values),
           "spread": (q3 - q1) / median if median else 0.0, "values": values}
    if bound:
        row["bound"] = bound
        row["steady"] = row["spread"] <= bound / 3
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "baseline.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    names = args.workload or [w["name"] for w in DECLARED["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report: Dict[str, Any] = {"workloads": {}}
    if args.out.exists():  # keep the workloads this call does not re-run
        report = json.loads(args.out.read_text(encoding="utf-8"))
    report.update(note=HISTORY_NOTE, run_seconds=DECLARED["run_seconds"], seeds=seeds)
    for name in names:
        runs = [run_once(name, seed, 0) for seed in seeds]
        entry: Dict[str, Any] = {
            "correct": all(r["correct"] for r in runs),
            "fingerprints": [r["fingerprint"] for r in runs],
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = summarize(values, bound)
            row = entry["end_to_end"][metric]
            flag = "" if row["steady"] else "  NOT STEADY"
            if metric == "setup_s":
                flag = "  (spread not gated)"
            print(f"{name:14s} {metric:22s} median {row['median']:12.6g} "
                  f"spread {row['spread']:7.4f} (bound {bound}){flag}", flush=True)
        if not args.no_trace:
            traced = run_once(name, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_correct"] = traced["correct"]
        report["workloads"][name] = entry
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    main()
