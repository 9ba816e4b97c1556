"""Pin the benchmark's reference outputs: ``references.json``.

Run from the repository root, on a commit whose figures match the golden
file (``tests/data/figures_quick_seed0.json``)::

    python3 aeonbench/pin.py [--workload NAME ...]

For every workload and simulation seed ``0..SIM_SEEDS-1`` it runs one
repetition, and records the digest of its output, its simulated metrics
and (for ``massive_game``) the run checksum.  Seed 0 is first checked
against the golden figures, so the pinned references of seed 0 agree
with them.  Re-pin only when a change is meant to alter simulated
behaviour, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    try:
        with open(run.REFERENCES, encoding="utf-8") as handle:
            references = json.load(handle)
    except FileNotFoundError:
        references = {}
    golden = run.load_golden()
    work_dir = Path(tempfile.mkdtemp(prefix=".aeonbench-", dir=Path.cwd()))
    try:
        for name in args.workload or run.WORKLOADS:
            workload = run.make_workload(name, work_dir)
            pinned = {}
            for sim_seed in range(run.SIM_SEEDS):
                clock = run.probes.SetupClock()
                rep = workload.rep(sim_seed, clock)
                sim = workload.simulated(sim_seed, clock, [rep])
                digests = {run.digest(data) for data in rep.outputs.values()}
                if len(digests) != 1:
                    raise SystemExit(f"{name} seed {sim_seed}: passes disagree")
                record = {"digest": digests.pop(), "sim": run.plain(sim)}
                if name == "massive_game":
                    (data,) = rep.outputs.values()
                    record["checksum"] = data["checksum"]
                problems = run.check_outputs(
                    workload, sim_seed, rep.outputs, {name: {str(sim_seed): record}}, golden
                )
                if problems:
                    raise SystemExit(f"{name} seed {sim_seed}: {problems}")
                pinned[str(sim_seed)] = record
                print(f"{name} seed {sim_seed}: {record['digest'][:16]} {record['sim']}",
                      flush=True)
            references[name] = pinned
            with open(run.REFERENCES, "w", encoding="utf-8") as handle:
                json.dump(references, handle, indent=1, sort_keys=True)
                handle.write("\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
