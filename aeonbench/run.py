"""Benchmark of the AEON simulator: host cost and simulated outcomes.

Run from the repository root::

    python3 aeonbench/run.py --workload game_static32 --seed 0 --seconds 25 --trace 0

Workloads (all at ``--scale quick``, through the public harness API):

* ``game_static32`` -- the fig7/table1 ``setup="32"`` cell: the game on 32
  m1.small servers under a closed-loop ramp of up to 128 clients, no
  eManager.  The critical-path cell of ``--all``; kernel, runtime and
  protocol dominate it.
* ``game_elastic`` -- the fig7 ``setup="elastic"`` cell: the same app and
  ramp from 8 servers, with the eManager scaling against a 10 ms SLA.
  The only workload that runs ``repro.elasticity``.
* ``tpcc_sweep`` -- the fig6a sweep (5 systems x 2/4/8 servers) through
  ``run_scenario`` on the process-pool backend with one job per core and
  a fresh result store, then a warm pass over the same store.  The only
  workload that runs the harness, executor, result store and baselines.
* ``massive_game`` -- the ``massive_game`` cell: 100k bulk-registered
  contexts on 32 servers, 256 closed-loop clients, reservoir sampling.
  The only path through bulk registration and lazy materialisation.

``--seed n`` runs simulation seed ``n % 10``.  Every run's output is
checked exactly: against the golden figures in ``tests/data`` for seed 0
and against ``references.json`` (pinned from the same code) for every
seed.  A repetition that raises or differs counts as failed and the
command exits 1.

``--trace 0`` times repetitions for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs the workload's cells in-process
three times -- untraced, traced with the sampling profiler, traced
without it -- and prints the per-layer metrics; the two traced runs must
produce identical work counts and all three the same output digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = ROOT / "tests" / "data" / "figures_quick_seed0.json"
REFERENCES = BENCH_DIR / "references.json"

#: Simulation seeds with pinned references; ``--seed n`` runs ``n % SIM_SEEDS``.
SIM_SEEDS = 10
#: The SLA of the paper's elastic experiment (fig7/table1).
SLA_MS = 10.0
#: Set-up replays per run: at least this many, more while cheap.
MIN_REPLAYS, MAX_REPLAYS, REPLAY_BUDGET_S = 3, 50, 3.0

sys.path.insert(0, str(ROOT / "src"))
try:
    from repro.exec.base import Cell, ProcessExecutor, execute_cell
    from repro.harness import runner, scenarios
    from repro.harness.scenarios import SCALES, prepare_scenario, run_scenario
    from repro.results.store import ResultStore
    from repro.workloads.sla import sla_report

    import probes
except ImportError as error:  # not a checkout of the repository
    print(f"aeonbench: cannot import the simulator: {error}", file=sys.stderr)
    sys.exit(2)

QUICK = SCALES["quick"]


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def plain(value: Any) -> Any:
    """The JSON form of figure data (as the golden file stores it)."""

    def default(obj: Any) -> Any:
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return dataclasses.asdict(obj)
        raise TypeError(f"not JSON-shaped: {type(obj).__name__}")

    return json.loads(json.dumps(value, default=default, sort_keys=True))


def digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(plain(value), sort_keys=True).encode()).hexdigest()


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process.

    Pool workers are left out: which cells a worker happens to run, and
    so its peak, changes from run to run.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def jobs() -> int:
    return len(os.sched_getaffinity(0))


def fingerprint() -> Dict[str, Any]:
    """The machine a run measured, recorded with every run."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": jobs(),
        "platform": platform.platform(),
        "cpu_model": model or platform.processor(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_cells_in_process(
    spec: Any, on_cell: Optional[Callable[[], None]] = None
) -> Tuple[Any, float]:
    """Expand ``spec``, run its cells here and assemble; (data, cell seconds)."""
    cells = scenarios.expand(spec)
    results, cell_s = [], 0.0
    for cell in cells:
        start = time.perf_counter()
        results.append(execute_cell(cell))
        cell_s += time.perf_counter() - start
        if on_cell is not None:
            on_cell()
    return scenarios.assemble_scenario(spec, cells, results), cell_s


@dataclasses.dataclass
class Rep:
    """One timed repetition of a workload."""

    wall_s: float  # the whole pass
    setup_s: float  # of which in constructors (in-process workloads)
    cpu_s: float
    events: int  # committed simulated events
    busy_s: float  # cell-body seconds summed over cells
    jobs: int
    outputs: Dict[str, Any]  # label -> figure data the gate checks
    sim: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def host_events_per_s(self) -> float:
        return self.events / (self.wall_s - self.setup_s)

    @property
    def parallel_efficiency(self) -> float:
        return self.busy_s / (self.jobs * self.wall_s)


def simulated_metrics(testbed: Any, throughput: float, p50: float, p99: float,
                      sla: Any) -> Dict[str, float]:
    """The simulated end-to-end metrics of one finished cell."""
    runtime = testbed.runtime
    submitted = runtime.events_completed + runtime.events_inflight
    return {
        "sim_events_per_s": throughput,
        "sim_p50_ms": p50,
        "sim_p99_ms": p99,
        "sla_violation_pct": 100.0 * sla.violations / sla.total_requests,
        "avg_servers": float(sla.avg_servers),
        "sim_failed_frac": runtime.events_failed / submitted,
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class InProcessWorkload:
    """A single-cell scenario run here, in this process."""

    golden_key: Optional[Tuple[str, str]] = None

    def __init__(self, name: str) -> None:
        self.name = name

    def spec(self, sim_seed: int) -> Any:
        raise NotImplementedError

    def outputs(self, data: Any) -> Dict[str, Any]:
        return {self.name: data}

    def sim_metrics(self, data: Any, testbed: Any) -> Dict[str, float]:
        raise NotImplementedError

    def rep(self, sim_seed: int, clock: probes.SetupClock) -> Rep:
        clock.reset()
        with clock:
            cpu0, start = cpu_now(), time.perf_counter()
            data, cell_s = run_cells_in_process(self.spec(sim_seed))
            wall = time.perf_counter() - start
            cpu = cpu_now() - cpu0
        (testbed,) = clock.take_testbeds()
        runtime = testbed.runtime
        return Rep(
            wall_s=wall,
            setup_s=clock.seconds,
            cpu_s=cpu,
            events=runtime.events_completed - runtime.events_failed,
            busy_s=cell_s,
            jobs=1,
            outputs=self.outputs(data),
            sim=self.sim_metrics(data, testbed),
        )

    def simulated(self, sim_seed: int, clock: probes.SetupClock,
                  reps: List[Rep]) -> Dict[str, float]:
        return reps[0].sim

    def setup_samples(self, clock: probes.SetupClock, reps: List[Rep]) -> List[float]:
        """Each repetition's set-up, then replays of the last one's."""
        samples = [rep.setup_s for rep in reps]
        spent = 0.0
        for count in range(MAX_REPLAYS):
            if count >= MIN_REPLAYS and spent >= REPLAY_BUDGET_S:
                break
            gc.collect()
            seconds = clock.replay()
            spent += seconds
            samples.append(seconds)
        return samples

    def in_process(self, sim_seed: int, on_cell: Callable[[], None]) -> Tuple[Dict[str, Any], float]:
        """Run the cells here, ``on_cell`` after each; (outputs, seconds)."""
        start = time.perf_counter()
        data, _cell_s = run_cells_in_process(self.spec(sim_seed), on_cell)
        return self.outputs(data), time.perf_counter() - start


class GameWorkload(InProcessWorkload):
    """One fig7 setup cell (``"32"`` or ``"elastic"``)."""

    def __init__(self, name: str, setup: str) -> None:
        super().__init__(name)
        self.setup = setup
        self.golden_key = ("fig7", setup)

    def spec(self, sim_seed: int) -> Any:
        return prepare_scenario(
            "fig7", scale="quick", seed=sim_seed, overrides=(f"setup='{self.setup}'",)
        )

    def outputs(self, data: Any) -> Dict[str, Any]:
        return {f"fig7[{self.setup}]": data[self.setup]}

    def sim_metrics(self, data: Any, testbed: Any) -> Dict[str, float]:
        window = runner.measure("aeon", testbed, 0, 0.0, QUICK.elastic_duration_ms)
        return simulated_metrics(testbed, window.throughput_per_s, window.p50_latency_ms,
                                 window.p99_latency_ms, data[self.setup]["sla"])


class MassiveWorkload(InProcessWorkload):
    """The ``massive_game`` quick cell."""

    def spec(self, sim_seed: int) -> Any:
        return prepare_scenario("massive_game", scale="quick", seed=sim_seed)

    def sim_metrics(self, data: Any, testbed: Any) -> Dict[str, float]:
        sla = sla_report(self.name, testbed.runtime.latency, SLA_MS, data["servers"])
        return simulated_metrics(testbed, data["throughput_per_s"], data["p50_latency_ms"],
                                 data["p99_latency_ms"], sla)


class SweepWorkload:
    """fig6a on the process pool, cold then warm over a fresh result store."""

    name = "tpcc_sweep"
    golden_key = ("fig6a", "")
    #: The cell whose latencies stand for the sweep's simulated metrics.
    SIM_CELL = ("systems=aeon", "server_counts=8",
                "metrics=throughput_per_s,p50_latency_ms,p99_latency_ms")

    def __init__(self, work_dir: Path) -> None:
        self.store_dir = work_dir / "store"

    def pool_passes(
        self, sim_seed: int, between: Callable[[], None] = lambda: None
    ) -> Tuple[Dict[str, Any], float, Path]:
        """Cold + warm ``run_scenario`` on one fresh store; (outputs, cold s, store)."""
        shutil.rmtree(self.store_dir, ignore_errors=True)
        kwargs = dict(scale="quick", seed=sim_seed, jobs=jobs(), executor="pool",
                      cache="auto", cache_dir=self.store_dir)
        start = time.perf_counter()
        cold = run_scenario("fig6a", **kwargs)
        cold_s = time.perf_counter() - start
        between()
        warm = run_scenario("fig6a", **kwargs)
        return {"fig6a(cold)": cold, "fig6a(warm)": warm}, cold_s, self.store_dir

    def rep(self, sim_seed: int, clock: probes.SetupClock) -> Rep:
        cpu0 = cpu_now()
        outputs, cold_s, store_dir = self.pool_passes(sim_seed)
        cpu = cpu_now() - cpu0
        busy_ms = ResultStore(store_dir).stats()["wall_ms_saved_per_warm_run"]
        shutil.rmtree(store_dir, ignore_errors=True)
        window_s = (QUICK.tpcc_duration_ms - QUICK.tpcc_warmup_ms) / 1000.0
        events = sum(
            round(throughput * window_s)
            for curve in outputs["fig6a(cold)"].values()
            for _servers, throughput in curve
        )
        return Rep(wall_s=cold_s, setup_s=0.0, cpu_s=cpu, events=events,
                   busy_s=busy_ms / 1000.0, jobs=jobs(), outputs=outputs)

    def simulated(self, sim_seed: int, clock: probes.SetupClock,
                  reps: List[Rep]) -> Dict[str, float]:
        """The aeon 8-server cell, run once more here for its latencies."""
        clock.reset()
        spec = prepare_scenario("fig6a", scale="quick", seed=sim_seed,
                                overrides=self.SIM_CELL)
        with clock:
            data, _cell_s = run_cells_in_process(spec)
        ((_servers, (throughput, p50, p99)),) = data["aeon"]
        (testbed,) = clock.take_testbeds()
        sla = sla_report(self.name, testbed.runtime.latency, SLA_MS, 8)
        return simulated_metrics(testbed, throughput, p50, p99, sla)

    def setup_samples(self, clock: probes.SetupClock, reps: List[Rep]) -> List[float]:
        """Pool start-up: a fresh pool until every worker has answered."""
        samples = []
        for _ in range(MAX_REPLAYS):
            start = time.perf_counter()
            executor = ProcessExecutor(jobs=jobs())
            try:
                handles = [executor.submit(Cell((i,), "os:getpid", {})) for i in range(jobs())]
                for handle in handles:
                    handle.result()
                samples.append(time.perf_counter() - start)
            finally:
                executor.shutdown(wait=True)
        return samples

    def in_process(self, sim_seed: int, on_cell: Callable[[], None]) -> Tuple[Dict[str, Any], float]:
        spec = prepare_scenario("fig6a", scale="quick", seed=sim_seed)
        start = time.perf_counter()
        data, _cell_s = run_cells_in_process(spec, on_cell)
        return {"fig6a(in-process)": data}, time.perf_counter() - start


def make_workload(name: str, work_dir: Path) -> Any:
    if name == "game_static32":
        return GameWorkload(name, "32")
    if name == "game_elastic":
        return GameWorkload(name, "elastic")
    if name == "massive_game":
        return MassiveWorkload(name)
    if name == "tpcc_sweep":
        return SweepWorkload(work_dir)
    raise SystemExit(f"unknown workload {name!r}; pick from {', '.join(WORKLOADS)}")


WORKLOADS = ("game_static32", "game_elastic", "tpcc_sweep", "massive_game")


# ----------------------------------------------------------------------
# The output gate
# ----------------------------------------------------------------------
def load_references() -> Dict[str, Any]:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["experiments"]


def check_outputs(workload: Any, sim_seed: int, outputs: Dict[str, Any],
                  references: Dict[str, Any], golden: Dict[str, Any]) -> List[str]:
    """Every way ``outputs`` differ from the pinned references (empty = correct)."""
    problems = []
    ref = references.get(workload.name, {}).get(str(sim_seed))
    if ref is None:
        return [f"no pinned reference for {workload.name} seed {sim_seed}"]
    for label, data in outputs.items():
        if sim_seed == 0 and workload.golden_key is not None:
            figure, entry = workload.golden_key
            expected = golden[figure][entry] if entry else golden[figure]
            if plain(data) != expected:
                problems.append(f"{label} differs from the golden {figure} {entry}".rstrip())
        if digest(data) != ref["digest"]:
            problems.append(f"{label} digest {digest(data)[:12]} != pinned {ref['digest'][:12]}")
        if "checksum" in ref and data.get("checksum") != ref["checksum"]:
            problems.append(f"{label} run_checksum differs from the pinned one")
    return problems


def check_sim(workload: Any, sim_seed: int, sim: Dict[str, float],
              references: Dict[str, Any]) -> List[str]:
    ref = references.get(workload.name, {}).get(str(sim_seed), {}).get("sim")
    if ref != plain(sim):
        return [f"simulated metrics {sim} != pinned {ref}"]
    return []


# ----------------------------------------------------------------------
# Timed (untraced) run
# ----------------------------------------------------------------------
E2E_UNITS = {
    "host_events_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "parallel_efficiency": "fraction",
}
SIM_UNITS = {
    "sim_events_per_s": "1/s",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sla_violation_pct": "%",
    "avg_servers": "count",
    "sim_failed_frac": "fraction",
    "run_failed_frac": "fraction",
}


def timed_run(workload: Any, sim_seed: int, seconds: float,
              references: Dict[str, Any], golden: Dict[str, Any]) -> Tuple[dict, bool]:
    reps: List[Rep] = []
    attempted, failed = 0, set()  # failed: indices of repetitions that raised or differ
    clock = probes.SetupClock()
    start = time.perf_counter()
    last = 0.0
    while not reps or time.perf_counter() - start + last <= seconds:
        attempted += 1
        rep_start = time.perf_counter()
        gc.collect()  # start every repetition from the same heap, not the last one's garbage
        try:
            rep = workload.rep(sim_seed, clock)
        except Exception:  # a repetition that raises is a failed one
            traceback.print_exc()
            failed.add(len(reps))
            break
        problems = check_outputs(workload, sim_seed, rep.outputs, references, golden)
        for problem in problems:
            print(f"MISMATCH: {problem}")
            failed.add(len(reps))
        reps.append(rep)
        last = time.perf_counter() - rep_start
    rss = peak_rss_mb()
    if not reps:
        return {}, False
    setup = workload.setup_samples(clock, reps)
    sim = workload.simulated(sim_seed, clock, reps)
    for problem in check_sim(workload, sim_seed, sim, references):
        print(f"MISMATCH: {problem}")
        failed.add(0)
    metrics = {
        "host_events_per_s": statistics.median(r.host_events_per_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "parallel_efficiency": statistics.median(r.parallel_efficiency for r in reps),
    }
    sim = dict(sim, run_failed_frac=len(failed) / attempted)
    print(f"repetitions: {len(reps)} (wall {', '.join(f'{r.wall_s:.3f}' for r in reps)} s); "
          f"set-up samples: {len(setup)}")
    for name, value in metrics.items():
        print(f"  {name:22s} {value:14.6g} {E2E_UNITS[name]}")
    for name, value in sim.items():
        print(f"  {name:22s} {value:14.6g} {SIM_UNITS[name]}  (simulated, exact)")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in metrics.items()},
    }
    return result, not failed


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
PER_LAYER_UNITS = dict(
    {f"{layer}.self_share": "fraction" for layer in probes.LAYERS},
    **{
        "sim.kernel.call_soon_per_event": "1/event",
        "sim.cluster.cpu_util": "fraction",
        "sim.network.msgs_per_event": "1/event",
        "sim.network.bytes_per_event": "B/event",
        "sim.metrics.reservoir": "bool",
        "core.runtime.submit_s": "s",
        "core.runtime.submits_per_event": "1/event",
        "core.locking.requests_per_event": "1/event",
        "core.locking.wait_frac": "fraction",
        "core.table.bulk_register_s": "s",
        "core.table.materialized_frac": "fraction",
        "elasticity.migrations": "count",
        "elasticity.migrate_sim_ms": "ms",
        "elasticity.storage_bytes": "B",
        "harness.expand_s": "s",
        "harness.assemble_s": "s",
        "exec.submit_s": "s",
        "exec.wait_s": "s",
        "exec.critical_path_s": "s",
        "exec.ideal_makespan_s": "s",
        "exec.respawns": "count",
        "results.put_s": "s",
        "results.load_s": "s",
        "results.bytes_written": "B",
        "results.hit_frac": "fraction",
        "trace_overhead": "ratio",
    },
)

#: Work the kernel does that no public counter or call reaches.
UNREACHED = (
    "kernel timer pushes and process steps are not counted: Timeout and "
    "CpuCharge push timers without a public call, so they wait for "
    "in-program kernel counters"
)


def traced_pass(workload: Any, sim_seed: int, sample: bool) -> dict:
    """One traced repetition: its outputs, exact counts and layer numbers."""
    coordinator, cold = probes.CoordinatorProbes(), Counter()
    outputs: Dict[str, Any] = {}
    store_bytes = 0
    with ExitStack() as stack:
        harness = stack.enter_context(probes.HarnessProbes())
        if isinstance(workload, SweepWorkload):
            with coordinator:
                pool_outputs, _cold_s, store_dir = workload.pool_passes(
                    sim_seed, between=lambda: cold.update(coordinator.counts)
                )
            outputs.update(pool_outputs)
            store_bytes = ResultStore(store_dir).stats()["bytes"]
            shutil.rmtree(store_dir, ignore_errors=True)
        # Entered after the pool has run: forked workers must not inherit them.
        clock = stack.enter_context(probes.SetupClock())
        sim = stack.enter_context(probes.SimProbes())
        sampler = probes.Sampler() if sample else None
        with sampler or ExitStack():
            cell_outputs, wall = workload.in_process(
                sim_seed, lambda: sim.harvest(clock.take_testbeds())
            )
        outputs.update(cell_outputs)
    exact = dict(sim.counts)
    exact.update({f"coordinator.{k}": v for k, v in coordinator.counts.items()})
    exact.update({f"harness.{k}": v for k, v in harness.counts.items()})
    exact.update(
        migrate_sim_ms=sim.migrate_sim_ms,
        store_bytes=store_bytes,
        reservoir=sim.reservoir,
        warm_loads=coordinator.counts["store_load"] - cold["store_load"],
        warm_hits=coordinator.counts["store_hits"] - cold["store_hits"],
    )
    return {"outputs": outputs, "wall_s": wall, "exact": exact, "sim": sim,
            "coordinator": coordinator, "harness": harness, "sampler": sampler}


def layer_metrics(traced: dict, untraced_wall: float) -> Dict[str, float]:
    exact, sim = traced["exact"], traced["sim"]
    coordinator, harness = traced["coordinator"], traced["harness"]
    events = exact.get("events_committed", 0)

    def per_event(key: str) -> float:
        return exact.get(key, 0) / events

    walls = [ms / 1000.0 for ms in coordinator.cell_wall_ms]
    warm_loads = exact["warm_loads"]
    metrics = {f"{layer}.self_share": share
               for layer, share in traced["sampler"].shares().items()}
    metrics.update({
        "sim.kernel.call_soon_per_event": per_event("call_soon"),
        "sim.cluster.cpu_util": exact["cpu_busy_ms"] / exact["cpu_capacity_ms"],
        "sim.network.msgs_per_event": per_event("messages"),
        "sim.network.bytes_per_event": per_event("message_bytes"),
        "sim.metrics.reservoir": float(exact["reservoir"]),
        "core.runtime.submit_s": sim.seconds["submit"],
        "core.runtime.submits_per_event": per_event("submits"),
        "core.locking.requests_per_event": per_event("lock_requests"),
        "core.locking.wait_frac": exact.get("lock_waits", 0) / max(exact.get("lock_requests", 0), 1),
        "core.table.bulk_register_s": sim.seconds["bulk_register"],
        "core.table.materialized_frac": exact["materialized"] / exact["contexts"],
        "elasticity.migrations": float(exact.get("migrations", 0)),
        "elasticity.migrate_sim_ms": statistics.median(sim.migrate_sim_ms or [0.0]),
        "elasticity.storage_bytes": float(exact.get("storage_bytes", 0)),
        "harness.expand_s": harness.seconds["expand"],
        "harness.assemble_s": harness.seconds["assemble"],
        "exec.submit_s": coordinator.seconds["exec_submit"],
        "exec.wait_s": coordinator.seconds["exec_wait"],
        "exec.critical_path_s": max(walls, default=0.0),
        "exec.ideal_makespan_s": max(sum(walls) / jobs(), max(walls, default=0.0)),
        "exec.respawns": float(sum(e.respawns for e in coordinator.executors)),
        "results.put_s": coordinator.seconds["store_put"],
        "results.load_s": coordinator.seconds["store_load"],
        "results.bytes_written": float(exact["store_bytes"]),
        "results.hit_frac": exact["warm_hits"] / warm_loads if warm_loads else 0.0,
        "trace_overhead": traced["wall_s"] / untraced_wall,
    })
    return metrics


def traced_run(workload: Any, sim_seed: int,
               references: Dict[str, Any], golden: Dict[str, Any]) -> Tuple[dict, bool]:
    problems: List[str] = []
    untraced_outputs, untraced_wall = workload.in_process(sim_seed, lambda: None)
    first = traced_pass(workload, sim_seed, sample=True)
    second = traced_pass(workload, sim_seed, sample=False)
    reference = {digest(data) for data in untraced_outputs.values()}
    for label, run in (("traced", first), ("traced again", second)):
        problems += check_outputs(workload, sim_seed, run["outputs"], references, golden)
        if {digest(data) for data in run["outputs"].values()} != reference:
            problems.append(f"{label} output digest differs from the untraced one")
    problems += check_outputs(workload, sim_seed, untraced_outputs, references, golden)
    drift = sorted(k for k in set(first["exact"]) | set(second["exact"])
                   if first["exact"].get(k) != second["exact"].get(k))
    for key in drift:
        problems.append(
            f"determinism defect: count {key} differs between traced runs "
            f"({first['exact'].get(key)} vs {second['exact'].get(key)})"
        )
    for problem in problems:
        print(f"MISMATCH: {problem}")
    metrics = layer_metrics(first, untraced_wall)
    print(f"traced walls: untraced {untraced_wall:.3f} s, profiled {first['wall_s']:.3f} s, "
          f"counted {second['wall_s']:.3f} s")
    print("exact counts (equal in both traced runs):" if not drift else "exact counts:")
    for key in sorted(first["exact"]):
        if key != "migrate_sim_ms":
            print(f"  {key:34s} {first['exact'][key]}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {PER_LAYER_UNITS[name]}")
    print(f"note: {UNREACHED}")
    result = {
        "correct": not problems,
        "attempted": 3,
        "failed": int(bool(problems)),
        "metrics": {n: {"value": v, "unit": PER_LAYER_UNITS[n]} for n, v in metrics.items()},
    }
    return result, not problems


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    references, golden = load_references(), load_golden()
    sim_seed = args.seed % SIM_SEEDS
    work_dir = Path(tempfile.mkdtemp(prefix=".aeonbench-", dir=Path.cwd()))
    machine = fingerprint()
    print(f"workload {args.workload}, seed {args.seed} (simulation seed {sim_seed}), "
          f"trace {args.trace}")
    try:
        workload = make_workload(args.workload, work_dir)
        if args.trace:
            result, ok = traced_run(workload, sim_seed, references, golden)
        else:
            result, ok = timed_run(workload, sim_seed, args.seconds, references, golden)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    machine["loadavg_1m_end"] = os.getloadavg()[0]
    print("fingerprint: " + json.dumps(machine, sort_keys=True))
    if not result:
        print("aeonbench: the first repetition failed", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
