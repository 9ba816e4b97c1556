"""Instrumentation the benchmark attaches from outside the program.

Everything here wraps *public* functions, methods and counters of the
``repro`` package for the duration of a ``with`` block and restores
them afterwards; nothing under ``src/`` is edited.  Three pieces:

* :class:`SetupClock` (always on) times the testbed/app constructors
  and keeps the testbeds they built, so a run can read the public
  counters of its simulation and replay its set-up;
* :class:`SimProbes` / :class:`CoordinatorProbes` (traced runs only)
  count and time calls at layer boundaries;
* :class:`Sampler` (traced runs only) is a statistical profiler that
  attributes the main thread's time to layers named by module.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.core.locking import ContextLock
from repro.core.runtime import RuntimeBase
from repro.elasticity import EManager
from repro.exec.base import ProcessExecutor
from repro.harness import runner, scenarios
from repro.results.store import MISS, ResultStore
from repro.sim.cluster import Cluster
from repro.sim.kernel import Simulator

#: Layers for host self time.  ``sim`` and ``core`` modules are layers
#: of their own; the other packages are one layer each.  ``other`` is
#: time with no ``repro`` frame on the stack (the benchmark itself, the
#: interpreter's import machinery).
SIM_LAYERS = ("kernel", "queues", "cluster", "network", "metrics", "rng")
CORE_LAYERS = (
    "runtime", "protocol", "locking", "ownership", "table",
    "context", "events", "analysis", "history", "costs", "errors",
)
PACKAGE_LAYERS = (
    "apps", "workloads", "baselines", "elasticity", "faults",
    "harness", "exec", "results",
)
LAYERS = (
    tuple(f"sim.{name}" for name in SIM_LAYERS)
    + tuple(f"core.{name}" for name in CORE_LAYERS)
    + PACKAGE_LAYERS
    + ("other",)
)

#: Package ``__init__`` files and the kernel microbenchmark hold no hot
#: code of their own; their few samples go to the module they front.
_ALIASES = {"sim.__init__": "sim.kernel", "sim.bench": "sim.kernel",
            "core.__init__": "core.runtime"}

_PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def layer_of_file(filename: str) -> Optional[str]:
    """The layer of a source file, or ``None`` if it is not in ``repro``."""
    try:
        parts = Path(filename).resolve().relative_to(_PACKAGE_ROOT).with_suffix("").parts
    except ValueError:
        return None
    if not parts or parts[0] == "__init__":
        return "other"
    if parts[0] in ("sim", "core"):
        name = ".".join(parts[:2])
        name = _ALIASES.get(name, name)
        return name if name in LAYERS else "other"
    return parts[0] if parts[0] in PACKAGE_LAYERS else "other"


# ----------------------------------------------------------------------
# Patching helper
# ----------------------------------------------------------------------
def patch(stack: ExitStack, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
    """Replace ``owner.name`` by ``make(original)`` until ``stack`` closes."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    stack.callback(setattr, owner, name, original)


# ----------------------------------------------------------------------
# Constructors: set-up time and the testbeds a cell built
# ----------------------------------------------------------------------
_RUNTIME = object()  # recipe placeholders for the replayed testbed's parts
_SERVERS = object()


class SetupClock:
    """Times ``make_testbed`` and the ``build_*`` app constructors.

    The cell bodies look these names up in :mod:`repro.harness.scenarios`,
    so that is where they are wrapped.  Each call is also kept as a
    *recipe* (arguments with the testbed's runtime and server list
    replaced by placeholders), so :meth:`replay` can repeat the set-up on
    a fresh testbed without keeping the finished simulation alive.
    """

    CONSTRUCTORS = ("make_testbed", "build_game", "build_tpcc", "build_massive")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.testbeds: List[Any] = []
        self.recipe: List[Tuple[Callable, tuple, dict]] = []
        self._stack = ExitStack()

    def __enter__(self) -> "SetupClock":
        for name in self.CONSTRUCTORS:
            patch(self._stack, scenarios, name, self._timed)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stack.close()

    def _timed(self, fn: Callable) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds += time.perf_counter() - start
            if fn is runner.make_testbed:
                self.testbeds.append(out)
                self.recipe.append((fn, args, kwargs))
            else:
                testbed = self.testbeds[-1]

                def strip(value: Any) -> Any:
                    if value is testbed.runtime:
                        return _RUNTIME
                    return _SERVERS if value is testbed.servers else value

                self.recipe.append(
                    (fn, tuple(map(strip, args)),
                     {key: strip(value) for key, value in kwargs.items()})
                )
            return out

        return timed

    def reset(self) -> None:
        """Forget the time, testbeds and recipe recorded so far."""
        self.seconds = 0.0
        self.testbeds = []
        self.recipe = []

    def take_testbeds(self) -> List[Any]:
        """The testbeds built since the last call (and forget them)."""
        testbeds, self.testbeds = self.testbeds, []
        return testbeds

    def replay(self) -> float:
        """Re-run the recorded constructors on fresh testbeds; seconds taken."""
        start = time.perf_counter()
        testbed = None
        for fn, args, kwargs in self.recipe:
            if fn is runner.make_testbed:
                testbed = fn(*args, **kwargs)
                continue

            def fill(value: Any) -> Any:
                if value is _RUNTIME:
                    return testbed.runtime
                return testbed.servers if value is _SERVERS else value

            fn(*map(fill, args), **{key: fill(value) for key, value in kwargs.items()})
        return time.perf_counter() - start


# ----------------------------------------------------------------------
# Work counts and host time at layer boundaries
# ----------------------------------------------------------------------
class Probes:
    """Shared bookkeeping: exact counts plus host seconds per boundary."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self._stack = ExitStack()
        self._lock = threading.Lock()

    def __enter__(self) -> "Probes":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stack.close()

    def install(self) -> None:
        raise NotImplementedError

    def timed(self, key: str, fn: Callable) -> Callable:
        """Wrap ``fn``: count its calls and sum its host seconds under ``key``."""
        counts, seconds, lock = self.counts, self.seconds, self._lock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with lock:
                    counts[key] += 1
                    seconds[key] += elapsed

        return wrapper


class SimProbes(Probes):
    """Counters inside one process's simulations (kernel to elasticity).

    Call :meth:`harvest` with each finished testbed to fold in the public
    counters that live on the simulation objects themselves.
    """

    def __init__(self) -> None:
        super().__init__()
        self.managers: List[Any] = []
        self._servers: Dict[Any, List[float]] = {}
        self.migrate_sim_ms: List[float] = []
        self.reservoir = False

    def install(self) -> None:
        counts, seconds, stack = self.counts, self.seconds, self._stack

        def call_soon(original: Callable) -> Callable:
            def counted(sim: Simulator, callback: Callable, *args: Any) -> None:
                counts["call_soon"] += 1
                original(sim, callback, *args)

            return counted

        def submit(original: Callable) -> Callable:
            depth = [0]  # time only the outermost call: nested submits are not counted twice

            def timed(runtime: Any, *args: Any, **kwargs: Any) -> Any:
                counts["submits"] += 1
                if depth[0]:
                    return original(runtime, *args, **kwargs)
                depth[0] += 1
                start = time.perf_counter()
                try:
                    return original(runtime, *args, **kwargs)
                finally:
                    seconds["submit"] += time.perf_counter() - start
                    depth[0] -= 1

            return timed

        def request(original: Callable) -> Callable:
            def counted(lock: ContextLock, event: Any) -> Any:
                grant, owned = original(lock, event)
                counts["lock_requests"] += 1
                if not grant.triggered:
                    counts["lock_waits"] += 1
                return grant, owned

            return counted

        def add_server(original: Callable) -> Callable:
            def recorded(cluster: Cluster, *args: Any, **kwargs: Any) -> Any:
                server = original(cluster, *args, **kwargs)
                self._servers[server] = [cluster.sim.now, -1.0]
                return server

            return recorded

        def decommission(original: Callable) -> Callable:
            def recorded(cluster: Cluster, name: str) -> None:
                server = cluster.servers.get(name)
                original(cluster, name)
                if server in self._servers:
                    self._servers[server][1] = cluster.sim.now

            return recorded

        def start(original: Callable) -> Callable:
            def recorded(manager: Any) -> Any:
                self.managers.append(manager)
                return original(manager)

            return recorded

        patch(stack, Simulator, "call_soon", call_soon)
        patch(stack, RuntimeBase, "submit", submit)
        patch(stack, ContextLock, "request", request)
        patch(stack, RuntimeBase, "create_contexts_bulk",
              lambda fn: self.timed("bulk_register", fn))
        patch(stack, Cluster, "add_server", add_server)
        patch(stack, Cluster, "decommission", decommission)
        patch(stack, EManager, "start", start)

    def harvest(self, testbeds: List[Any]) -> None:
        """Fold in the public counters of finished testbeds, then drop them."""
        counts = self.counts
        for testbed in testbeds:
            runtime = testbed.runtime
            counts["events_committed"] += runtime.events_completed - runtime.events_failed
            counts["events_failed"] += runtime.events_failed
            counts["events_submitted"] += runtime.events_completed + runtime.events_inflight
            counts["messages"] += testbed.network.messages_sent
            counts["message_bytes"] += testbed.network.bytes_sent
            counts["contexts"] += runtime.context_count()
            counts["materialized"] += len(runtime.instances)
            self.reservoir = self.reservoir or runtime.latency.sampling
            now = testbed.sim.now
            busy = capacity = 0.0
            for server, (born, gone) in list(self._servers.items()):
                if server.sim is testbed.sim:
                    busy += server.cpu.busy_core_ms()
                    capacity += server.cpu.capacity * ((gone if gone >= 0 else now) - born)
                    del self._servers[server]
            counts["cpu_busy_ms"] += busy
            counts["cpu_capacity_ms"] += capacity
        for manager in self.managers:
            counts["migrations"] += manager.migrations_started
            counts["storage_bytes"] += manager.storage.bytes_written
            self.migrate_sim_ms.extend(
                record.finished_ms - record.started_ms
                for record in manager.coordinator.records
                if record.kind == "migrate" and record.finished_ms is not None
            )
        self.managers.clear()


class CoordinatorProbes(Probes):
    """Counters of the sweep coordinator: harness, executor, result store."""

    def __init__(self) -> None:
        super().__init__()
        self.cell_wall_ms: List[float] = []
        self.executors: List[Any] = []

    def install(self) -> None:
        stack = self._stack

        def submit(original: Callable) -> Callable:
            timed = self.timed("exec_submit", original)

            def recorded(executor: Any, cell: Any) -> Any:
                if executor not in self.executors:
                    self.executors.append(executor)
                return timed(executor, cell)

            return recorded

        def put(original: Callable) -> Callable:
            timed = self.timed("store_put", original)

            def recorded(store: Any, cell: Any, value: Any, wall_ms: float = 0.0,
                         **kwargs: Any) -> Any:
                with self._lock:
                    self.cell_wall_ms.append(wall_ms)
                return timed(store, cell, value, wall_ms=wall_ms, **kwargs)

            return recorded

        def load(original: Callable) -> Callable:
            timed = self.timed("store_load", original)

            def recorded(store: Any, cell: Any) -> Any:
                value = timed(store, cell)
                if value is not MISS:
                    with self._lock:
                        self.counts["store_hits"] += 1
                return value

            return recorded

        patch(stack, ProcessExecutor, "submit", submit)
        patch(stack, runner.CellPool, "gather", lambda fn: self.timed("exec_wait", fn))
        patch(stack, ResultStore, "put", put)
        patch(stack, ResultStore, "load", load)


class HarnessProbes(Probes):
    """Times scenario expansion and assembly (looked up in ``scenarios``)."""

    def install(self) -> None:
        patch(self._stack, scenarios, "expand", lambda fn: self.timed("expand", fn))
        patch(self._stack, scenarios, "assemble_scenario",
              lambda fn: self.timed("assemble", fn))


# ----------------------------------------------------------------------
# Statistical profiler
# ----------------------------------------------------------------------
class Sampler:
    """Samples the main thread's stack and charges each sample to a layer.

    A sample goes to the innermost frame that belongs to ``repro``, so
    standard-library and builtin work counts toward the layer that
    called it.  Deterministic profilers (``cProfile``) cost about four
    times the run and inflate call-heavy code; sampling every
    millisecond costs a few percent and leaves the proportions alone.
    """

    def __init__(self, interval_s: float = 0.001) -> None:
        self.interval_s = interval_s
        self.samples: Counter = Counter()
        self.modules: Counter = Counter()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._switch = sys.getswitchinterval()
        self._cache: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "Sampler":
        sys.setswitchinterval(self.interval_s / 2)
        self._thread = threading.Thread(
            target=self._loop, args=(threading.get_ident(),), daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)
        sys.setswitchinterval(self._switch)

    def _loop(self, target: int) -> None:
        cache = self._cache
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(target)
            layer = "other"
            while frame is not None:
                filename = frame.f_code.co_filename
                if filename not in cache:
                    cache[filename] = layer_of_file(filename)
                found = cache[filename]
                if found is not None:
                    layer = found
                    self.modules[filename] += 1
                    break
                frame = frame.f_back
            self.samples[layer] += 1

    def shares(self) -> Dict[str, float]:
        """Each layer's share of the samples (all layers; they sum to 1)."""
        total = sum(self.samples.values())
        return {layer: (self.samples[layer] / total if total else 0.0) for layer in LAYERS}
