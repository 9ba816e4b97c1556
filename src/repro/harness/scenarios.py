"""Declarative scenario API: specs, a registry, and composable sweeps.

Every experiment in this repository — the paper's figures and anything
you invent — is described by a frozen, picklable :class:`ScenarioSpec`:
the application (:attr:`~ScenarioSpec.app`), the systems under test,
the cluster shape, the workload, the fault schedule, the sizing
(scale/seed/duration) and the metrics/output shape.  The engine turns a
spec into results in three steps:

* :func:`expand` enumerates the spec's sweep axes (systems × server
  counts × seeds × user-declared axes) into independent
  :class:`~repro.harness.runner.Cell`\\ s;
* :func:`run_point` (the generic cell body) wires a testbed,
  application, clients and fault/elasticity machinery from the spec and
  runs one sweep point;
* :func:`run_scenario` executes the cells (serially, across worker
  processes, or on a shared :class:`~repro.harness.runner.CellPool`)
  and assembles the figure data with the assembler that :data:`OUTPUTS`
  declares for the spec's ``output`` kind (the same entry renders it).

Scenarios register under a name with :func:`register` (or the
:func:`scenario` decorator); ``--scenario NAME`` / ``--list-scenarios``
/ ``--set key=value`` on the CLI (``python -m repro.harness.experiments``)
drive any of them.  All eleven legacy figures are registered specs —
their ``figN()`` wrappers in :mod:`repro.harness.experiments` are thin
aliases and their figure JSON is byte-identical to the pre-spec
implementations (pinned by ``tests/test_scenarios.py`` against
``tests/data/``).

Authoring guide (a new scenario in under 20 lines): docs/SCENARIOS.md.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..apps.game import GameConfig, Room, build_game
from ..apps.massive import MassiveConfig, build_massive, run_checksum
from ..apps.tpcc import TpccConfig, TpccWorkload, build_tpcc
from ..core.costs import DEFAULT_COSTS
from ..core.runtime import FAILED_TAG
from ..elasticity import CloudStorage, EManager, MigrationCoordinator, SLAPolicy
from ..faults import (
    FailureDetector,
    FaultInjector,
    FaultSchedule,
    NetworkPartition,
    ServerCrash,
    random_churn,
)
from ..results.store import open_store
from ..sim.cluster import INSTANCE_TYPES, M1_SMALL, M3_LARGE, Server
from ..sim.metrics import LatencyRecorder, mean, percentile
from ..workloads.generators import ClosedLoopClients, DynamicClients, RampProfile
from ..workloads.sla import SlaReport, availability_slo, sla_report
from .report import format_table
from .runner import Cell, SYSTEMS, make_testbed, measure, run_cells, run_game

#: Dotted-path prefix for this module's cell bodies (see Cell.fn).
_SCN = "repro.harness.scenarios"

__all__ = [
    "Scale",
    "SCALES",
    "GameSpec",
    "TpccSpec",
    "WorkloadSpec",
    "FaultSpec",
    "ElasticSpec",
    "ScenarioSpec",
    "ScenarioError",
    "scenario",
    "register",
    "get_scenario",
    "list_scenarios",
    "REGISTRY",
    "sweep_axes",
    "expand",
    "apply_overrides",
    "run_point",
    "run_scenario",
    "OUTPUTS",
    "Output",
    "Table",
    "Col",
    "assemble_scenario",
    "render_scenario",
    "fig10_phases",
]


# ----------------------------------------------------------------------
# Sizing presets
# ----------------------------------------------------------------------
@dataclass
class Scale:
    """Experiment sizing knobs; the defaults are the "quick" preset."""

    game_duration_ms: float = 1200.0
    game_warmup_ms: float = 400.0
    game_clients_per_server: int = 60
    tpcc_duration_ms: float = 8000.0
    tpcc_warmup_ms: float = 2500.0
    tpcc_clients_per_server: int = 12
    server_counts: Tuple[int, ...] = (2, 4, 8)
    client_sweep: Tuple[int, ...] = (8, 32, 96, 192)
    elastic_duration_ms: float = 40000.0
    migration_duration_ms: float = 12000.0
    emanager_batch: int = 40
    fault_duration_ms: float = 16000.0
    fault_clients: int = 48
    fault_checkpoint_ms: float = 1500.0
    # churn (long-horizon availability) sizing.
    churn_duration_ms: float = 30000.0
    churn_clients: int = 40
    churn_mtbf_ms: float = 3000.0
    churn_start_ms: float = 5000.0
    churn_checkpoint_ms: float = 1500.0
    churn_restart_ms: Tuple[float, float] = (1500.0, 4000.0)
    # massive tier (columnar bulk registration) sizing.
    massive_contexts: int = 100_000
    massive_servers: int = 32
    massive_clients: int = 256
    massive_duration_ms: float = 800.0
    massive_warmup_ms: float = 200.0
    massive_think_ms: float = 2.0


#: Figure sizing shared by the "full" and "massive" presets.
_FULL_FIGURES = dict(
    game_duration_ms=2500.0,
    game_warmup_ms=700.0,
    game_clients_per_server=110,
    tpcc_duration_ms=15000.0,
    tpcc_warmup_ms=4000.0,
    tpcc_clients_per_server=16,
    server_counts=(2, 4, 8, 12, 16),
    client_sweep=(8, 24, 64, 128, 256, 512),
    elastic_duration_ms=60000.0,
    migration_duration_ms=20000.0,
    emanager_batch=120,
)

SCALES: Dict[str, Scale] = {
    "quick": Scale(),
    "full": Scale(
        **_FULL_FIGURES,
        fault_duration_ms=40000.0,
        fault_clients=120,
        fault_checkpoint_ms=2000.0,
        churn_duration_ms=120000.0,
        churn_clients=96,
        churn_mtbf_ms=12000.0,
        churn_start_ms=10000.0,
        churn_checkpoint_ms=2000.0,
        churn_restart_ms=(2000.0, 8000.0),
        massive_contexts=300_000,
        massive_servers=96,
        massive_clients=384,
        massive_duration_ms=1200.0,
        massive_warmup_ms=300.0,
        massive_think_ms=2.0,
    ),
    # The million-context tier: figure sizing mirrors "full" (so any
    # scenario *can* run here), but what the preset is for is the
    # massive_* scenarios — a 1M-leaf population on a several-hundred
    # server fleet, bulk-registered through the columnar table.
    "massive": Scale(
        **_FULL_FIGURES,
        massive_contexts=1_000_000,
        massive_servers=256,
        massive_clients=768,
        massive_duration_ms=1500.0,
        massive_warmup_ms=300.0,
        massive_think_ms=2.0,
    ),
}


# ----------------------------------------------------------------------
# Spec dataclasses (frozen, picklable: they travel inside Cell kwargs)
# ----------------------------------------------------------------------
class ScenarioError(ValueError):
    """Raised for invalid scenario names, axes or ``--set`` overrides."""


@dataclass(frozen=True)
class GameSpec:
    """Game-application shape (see :class:`repro.apps.game.GameConfig`)."""

    rooms: int = 0  # 0 -> one room per server
    players_per_room: int = 8
    shared_items_per_room: int = 4
    #: "uniform" | "geometric" — client traffic across rooms; geometric
    #: is the 0.5**i hot/cold skew of the churn experiments (honored by
    #: the fault and elastic paths).
    room_weights: str = "uniform"


@dataclass(frozen=True)
class TpccSpec:
    """TPC-C application shape (see :class:`repro.apps.tpcc.TpccConfig`)."""

    districts: int = 0  # 0 -> one district per server
    customers_per_district: int = 10


@dataclass(frozen=True)
class WorkloadSpec:
    """One client population: closed-loop or profile-following ramp."""

    kind: str = "closed_loop"  # "closed_loop" | "ramp"
    think_ms: float = 2.0
    clients: int = 0  # absolute population; 0 -> clients_per_server
    clients_per_server: int = 0  # 0 -> the scale preset's default
    max_retries: int = 0
    name_prefix: str = "client"
    # ramp (DynamicClients) knobs:
    profile: str = "normal_peak"  # "normal_peak" | "diurnal"
    machines: int = 8
    min_per_machine: int = 1
    max_per_machine: int = 16
    cycles: int = 2  # diurnal day/night cycles over the run


@dataclass(frozen=True)
class FaultSpec:
    """Fault schedule + detection/recovery/SLO knobs for a scenario.

    ``kind="crash"`` is the fig10 single mid-run fail-stop (placed by
    run fractions); ``kind="churn"`` is the fig11 sustained
    crash/restart churn (exponential arrivals); ``kind="split_brain"``
    is an *asymmetric* partition (detector + eManager cut off from one
    server while clients still reach it) that never heals within the
    run; ``kind="partition_recovery"`` is the same cut healing while
    recovery is mid-flight.  Zero-valued sizing fields fall back to the
    scale preset.

    The honest-failure knobs (``fencing``, ``honest_recovery``,
    ``crash_drops_state``) all default **off**, which keeps every legacy
    figure byte-identical; the partition kinds are expected to turn at
    least ``honest_recovery`` on — with it off, recovery would peek
    ground truth, see a live server and skip the restore entirely.
    """

    kind: str = "none"  # "none" | "crash" | "churn" | "split_brain" | "partition_recovery"
    heartbeat_ms: float = 200.0
    lease_ms: float = 650.0
    check_ms: float = 100.0
    checkpoint_ms: float = 0.0  # 0 -> scale default
    checkpoint_mode: str = "full"  # "full" | "delta"
    # crash placement (fractions of the run):
    crash_frac: float = 0.35
    restart_frac: float = 0.30
    victim: int = 1  # index into the server fleet
    # churn arrivals:
    mtbf_ms: float = 0.0  # 0 -> scale default
    restart_ms: Tuple[float, float] = (0.0, 0.0)  # (0,0) -> scale default
    churn_start_ms: float = 0.0  # 0 -> scale default
    # windowed availability SLO (churn only):
    window_ms: float = 500.0
    goodput_fraction: float = 0.85
    p99_multiplier: float = 3.0
    p99_floor_ms: float = 20.0
    # honest failure semantics (all default off — legacy byte-identical):
    fencing: bool = False
    honest_recovery: bool = False
    crash_drops_state: bool = False
    fence_grace_ms: float = 300.0
    # partition placement (split_brain / partition_recovery kinds):
    partition_frac: float = 0.35
    partition_ms: float = 0.0  # 0 -> kind-specific default


@dataclass(frozen=True)
class ElasticSpec:
    """eManager + SLA policy knobs for elastic scenarios."""

    sla_ms: float = 10.0
    scale_out_step: int = 4
    min_servers: int = 4
    max_servers: int = 40
    scale_in_fraction: float = 0.25
    headroom: float = 0.45
    boot_delay_ms: float = 1500.0
    report_interval_ms: float = 1000.0
    max_concurrent_migrations: int = 8


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: what to deploy, sweep and measure.

    The spec is frozen and picklable — :func:`expand` embeds it in each
    generated :class:`~repro.harness.runner.Cell`, so worker processes
    rebuild the exact deployment from data alone.  Field groups:

    * **deployment** — ``app`` ("game" | "tpcc" | "mixed"), ``systems``,
      ``servers`` (fixed fleet) or ``server_counts`` (sweep; empty =
      the scale preset's counts), ``instance``, ``game``/``tpcc`` shape;
    * **workload** — ``workload`` (plus ``tpcc_workload`` for the mixed
      co-tenant), ``duration_ms``/``warmup_ms``/``drain_ms`` (0 = the
      scale preset's sizing);
    * **faults / elasticity** — ``faults`` (:class:`FaultSpec`),
      ``elastic`` (:class:`ElasticSpec` or ``None``);
    * **sweep** — ``seeds``, ``axes`` (extra named axes; a value of
      ``()`` pulls the scale default, e.g. ``("clients", ())``),
      ``points`` (explicit sweep points overriding the cross-product);
    * **output** — ``metrics`` (RunResult attributes), ``output`` (the
      :data:`OUTPUTS` kind that assembles and renders the results),
      optional custom ``cell`` dotted ``"module:function"`` body.

    Axis names (and ``--set`` keys) resolve against spec fields, then
    against the sub-spec fields (workload, faults, elastic, game, tpcc)
    — e.g. an axis ``("mtbf_ms", (1500, 3000))`` sweeps
    ``faults.mtbf_ms``.  See docs/SCENARIOS.md for the full reference.
    """

    name: str
    title: str
    description: str = ""
    # Deployment.
    app: str = "game"
    systems: Tuple[str, ...] = SYSTEMS
    servers: int = 0
    server_counts: Tuple[int, ...] = ()
    instance: str = ""  # "" -> m3.large
    game: GameSpec = GameSpec()
    tpcc: TpccSpec = TpccSpec()
    # Workload + measurement window.
    workload: WorkloadSpec = WorkloadSpec()
    tpcc_workload: WorkloadSpec = WorkloadSpec(
        think_ms=5.0, name_prefix="tpcc-client"
    )
    duration_ms: float = 0.0
    warmup_ms: float = 0.0
    drain_ms: float = 0.0
    # Faults / elasticity.
    faults: FaultSpec = FaultSpec()
    elastic: Optional[ElasticSpec] = None
    # Sweep.
    scale: str = "quick"
    seeds: Tuple[int, ...] = (0,)
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    points: Tuple[Tuple[Tuple[str, Any], ...], ...] = ()
    # Output.
    metrics: Tuple[str, ...] = ("throughput_per_s",)
    output: str = "curve"
    x_name: str = "servers"
    cell: str = ""

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A copy with ``changes`` applied (sugar over dataclasses.replace)."""
        return replace(self, **changes)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Register ``spec`` under its name; returns it.  Names are unique."""
    if spec.name in REGISTRY:
        raise ScenarioError(f"scenario {spec.name!r} already registered")
    REGISTRY[spec.name] = spec
    return spec


def scenario(builder: Callable[[], ScenarioSpec]) -> Callable[[], ScenarioSpec]:
    """Decorator: register the :class:`ScenarioSpec` the builder returns.

    The builder runs once at import time; keep it a pure spec literal::

        @scenario
        def my_sweep() -> ScenarioSpec:
            return ScenarioSpec(name="my_sweep", ...)
    """
    register(builder())
    return builder


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered spec by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; pick from {', '.join(sorted(REGISTRY))}"
        ) from None


def list_scenarios() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(REGISTRY)


# ----------------------------------------------------------------------
# Sweep expansion
# ----------------------------------------------------------------------
#: Axes whose empty value tuple pulls a per-scale default.
_SCALE_AXIS_DEFAULTS: Dict[str, str] = {
    "n_servers": "server_counts",
    "clients": "client_sweep",
}


def _axis_values(name: str, values: Tuple[Any, ...], sizing: Scale) -> Tuple:
    if values:
        return tuple(values)
    attr = _SCALE_AXIS_DEFAULTS.get(name)
    if attr is None:
        raise ScenarioError(f"axis {name!r} has no values and no scale default")
    return tuple(getattr(sizing, attr))


def _validate_seeds(spec: ScenarioSpec) -> None:
    """Reject multi-seed sweeps the assembly cannot combine.

    Only curve assembly knows how to combine seed replicas (it averages
    the metric per point); everywhere else a swept seed axis would
    silently corrupt keyed assembly — and custom-cell / explicit-points
    scenarios pin their own seed handling (fig7/table1 shard via the
    rep axis).  Fail fast instead of dropping ``seeds[1:]``.
    """
    if len(spec.seeds) <= 1:
        return
    if spec.cell:
        raise ScenarioError(
            f"scenario {spec.name!r} does not support multi-seed sweeps; "
            f"shard repetitions via its axes instead (e.g. --set rep=0,1,2)"
        )
    if spec.points or spec.output != "curve":
        raise ScenarioError(
            f"scenario {spec.name!r} (output {spec.output!r}) does not "
            f"support multi-seed sweeps; only 'curve' outputs average "
            f"across seeds"
        )


def sweep_axes(spec: ScenarioSpec) -> List[Tuple[str, Tuple]]:
    """The spec's ordered sweep axes: ``[(axis_name, values), ...]``.

    Generic (``spec.cell == ""``) scenarios sweep ``system`` first, then
    ``n_servers`` when no fixed fleet is set, then the user-declared
    ``spec.axes``, then ``seed`` when more than one seed is given.
    Custom-cell scenarios sweep exactly ``spec.axes``.
    """
    sizing = SCALES[spec.scale]
    _validate_seeds(spec)
    axes: List[Tuple[str, Tuple]] = []
    if not spec.cell:
        axes.append(("system", tuple(spec.systems)))
        if spec.servers == 0:
            axes.append(("n_servers", _axis_values("n_servers", spec.server_counts, sizing)))
    for name, values in spec.axes:
        axes.append((name, _axis_values(name, tuple(values), sizing)))
    if not spec.cell and len(spec.seeds) > 1:
        axes.append(("seed", tuple(spec.seeds)))
    return axes


def _sweep_points(spec: ScenarioSpec) -> List[Tuple[Tuple[str, Any], ...]]:
    """All sweep points as ``((axis, value), ...)`` tuples, in cell order."""
    if spec.points:
        return [tuple(point) for point in spec.points]
    points: List[Tuple[Tuple[str, Any], ...]] = [()]
    for name, values in sweep_axes(spec):
        points = [point + ((name, value),) for point in points for value in values]
    return points


def expand(spec: ScenarioSpec) -> List[Cell]:
    """Enumerate the spec's sweep into :class:`Cell`\\ s (cell order = data order).

    Generic scenarios produce :func:`run_point` cells carrying the spec
    itself; custom-cell scenarios produce ``spec.cell`` cells whose
    kwargs are the axis values plus ``scale``/``seed`` (matching the
    historical per-figure cell functions byte for byte).
    """
    _validate_seeds(spec)
    cells: List[Cell] = []
    for point in _sweep_points(spec):
        key = tuple(value for _name, value in point)
        if spec.cell:
            kwargs = {**dict(point), "scale": spec.scale, "seed": spec.seeds[0]}
            cells.append(Cell(key, spec.cell, kwargs))
        else:
            cells.append(Cell(key, f"{_SCN}:run_point", {"spec": spec, **dict(point)}))
    return cells


# ----------------------------------------------------------------------
# Overrides (--set key=value) and axis-value folding
# ----------------------------------------------------------------------
#: Sub-specs searched (in order) when folding a bare key into the spec.
_SUBSPEC_FIELDS = ("workload", "tpcc_workload", "faults", "elastic", "game", "tpcc")

#: Spec fields that are tuples (a scalar --set value is wrapped).
_TUPLE_FIELDS = {"systems", "seeds", "server_counts", "metrics"}

#: Spec fields --set may not touch (identity/plumbing).  Axis *names*
#: are still settable — they replace that axis's values.
_PROTECTED_FIELDS = {"name", "cell", "axes", "points"}


def _spec_field_names(obj: Any) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(obj))


def _set_key(spec: ScenarioSpec, key: str, value: Any) -> ScenarioSpec:
    """Fold one ``key=value`` into the spec (axis values use
    :func:`apply_overrides`; this handles spec/sub-spec fields)."""
    if "." in key:
        sub, _, inner = key.partition(".")
        if sub not in _SUBSPEC_FIELDS:
            raise ScenarioError(
                f"unknown sub-spec {sub!r}; pick from {', '.join(_SUBSPEC_FIELDS)}"
            )
        obj = getattr(spec, sub)
        if obj is None:
            raise ScenarioError(f"scenario {spec.name!r} has no {sub} spec to set")
        if inner not in _spec_field_names(obj):
            raise ScenarioError(
                f"unknown field {inner!r} of {sub}; pick from "
                f"{', '.join(_spec_field_names(obj))}"
            )
        return replace(spec, **{sub: replace(obj, **{inner: value})})
    if key in _PROTECTED_FIELDS:
        raise ScenarioError(f"field {key!r} cannot be overridden")
    if key in _spec_field_names(spec):
        if key in _TUPLE_FIELDS and not isinstance(value, tuple):
            value = (value,)
        return replace(spec, **{key: value})
    for sub in _SUBSPEC_FIELDS:
        obj = getattr(spec, sub)
        if obj is not None and key in _spec_field_names(obj):
            return replace(spec, **{sub: replace(obj, **{key: value})})
    valid = sorted(
        set(_spec_field_names(spec)) - _PROTECTED_FIELDS
        | {
            f"{sub}.{name}"
            for sub in _SUBSPEC_FIELDS
            if getattr(spec, sub, None) is not None
            for name in _spec_field_names(getattr(spec, sub))
        }
    )
    raise ScenarioError(
        f"unknown scenario key {key!r} (axes: "
        f"{', '.join(name for name, _v in spec.axes) or 'none'}; fields include: "
        f"{', '.join(valid[:12])}, ...)"
    )


def _parse_value(text: str) -> Any:
    """Parse one ``--set`` value: literals, with commas making a tuple."""
    import ast

    def one(part: str) -> Any:
        part = part.strip()
        try:
            return ast.literal_eval(part)
        except (ValueError, SyntaxError):
            return part

    if "," in text:
        return tuple(one(part) for part in text.split(",") if part.strip() != "")
    return one(text)


def apply_overrides(
    spec: ScenarioSpec, assignments: Sequence[str]
) -> ScenarioSpec:
    """Apply ``--set key=value`` strings to a spec, returning the new spec.

    ``key`` may name a sweep axis (replacing its values), a spec field
    (``duration_ms``, ``systems``, ...), a sub-spec field searched in
    order (``mtbf_ms`` → ``faults.mtbf_ms``), or a dotted sub-spec path
    (``workload.think_ms``).  Unknown keys raise :class:`ScenarioError`.
    """
    for raw in assignments:
        key, sep, text = raw.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ScenarioError(f"--set expects key=value, got {raw!r}")
        value = _parse_value(text)
        if key in dict(spec.axes):
            values = value if isinstance(value, tuple) else (value,)
            spec = replace(
                spec,
                axes=tuple(
                    (name, values if name == key else old)
                    for name, old in spec.axes
                ),
            )
        else:
            spec = _set_key(spec, key, value)
    return spec


# ----------------------------------------------------------------------
# Generic cell body: build + run + measure one sweep point
# ----------------------------------------------------------------------
def _game_config(game: GameSpec, n_servers: int) -> GameConfig:
    return GameConfig(
        rooms=game.rooms or n_servers,
        players_per_room=game.players_per_room,
        shared_items_per_room=game.shared_items_per_room,
    )


def _tpcc_config(tpcc: TpccSpec, n_servers: int) -> TpccConfig:
    return TpccConfig(
        districts=tpcc.districts or n_servers,
        customers_per_district=tpcc.customers_per_district,
    )


def _n_clients(wl: WorkloadSpec, per_server: int, n_servers: int) -> int:
    """The workload's population: absolute, else per server (or the preset's)."""
    return wl.clients or (wl.clients_per_server or per_server) * n_servers


# Shared wiring steps.  aeonbench's SetupClock patches the constructors
# as this module's globals and replays them by the identity of
# ``testbed.runtime``/``testbed.servers``: call them here, pass those.
def _deploy_game(testbed, system: str, game: GameSpec, n_servers: int):
    """Build the game on ``testbed``, with the room skew ``game`` declares."""
    app = build_game(
        testbed.runtime, _game_config(game, n_servers), system,
        servers=testbed.servers,
    )
    if game.room_weights == "geometric":
        # Geometric hot/cold room skew (room 0 hottest).  Skewed write
        # traffic is what incremental checkpoints exploit: cold rooms'
        # subtrees go unchanged between intervals and are skipped.
        app.set_room_weights([0.5**i for i in range(len(app.rooms))])
    return app


def _deploy_tpcc(testbed, system: str, config: TpccConfig) -> TpccWorkload:
    """Build TPC-C on ``testbed``; returns its per-system transaction mix."""
    deployment = build_tpcc(
        testbed.runtime,
        config,
        multi_ownership=(system == "aeon"),
        servers=testbed.servers,
        colocate=system in ("aeon", "aeon_so", "eventwave"),
    )
    return TpccWorkload(deployment, system)


def _closed_loop(
    testbed, sample_op: Callable, n_clients: int, duration_ms: float, wl: WorkloadSpec
) -> ClosedLoopClients:
    """Closed-loop clients shaped by ``wl``; the caller starts them."""
    return ClosedLoopClients(
        testbed.runtime,
        sample_op,
        n_clients=n_clients,
        think_ms=wl.think_ms,
        rng=testbed.rng,
        stop_at_ms=duration_ms,
        name_prefix=wl.name_prefix,
        max_retries=wl.max_retries,
    )


def run_point(spec: ScenarioSpec, **point: Any) -> Any:
    """Run one sweep point of a generic scenario (the shared cell body).

    Reserved point keys: ``system``, ``n_servers``, ``seed``.  Any other
    key is folded into the matching spec/sub-spec field (that is how
    axes like ``clients`` or ``mtbf_ms`` parameterize the run).  Returns
    the point's plain-data result (metrics value(s) or a run dict),
    exactly as the historical per-figure cell functions did.
    """
    system = str(point.pop("system", spec.systems[0] if spec.systems else "aeon"))
    n_servers = int(point.pop("n_servers", 0) or spec.servers or 1)
    seed = int(point.pop("seed", spec.seeds[0]))
    for key, value in point.items():
        spec = _set_key(spec, key, value)
    if spec.faults.kind != "none":
        driver = _fault_run
    elif spec.elastic is not None:
        driver = _elastic_run
    elif spec.app in _APP_DRIVERS:
        driver = _APP_DRIVERS[spec.app]
    else:
        raise ScenarioError(f"unknown app {spec.app!r}; pick game, tpcc or mixed")
    return driver(spec, SCALES[spec.scale], system, n_servers, seed)


def _closed_loop_point(
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int
) -> Any:
    """Closed-loop game or TPC-C run → metric value(s) (fig5a/b, fig6a/b)."""
    wl = spec.workload
    if spec.app == "game":
        result, _tb, _app = run_game(
            system,
            n_servers,
            n_clients=_n_clients(wl, sizing.game_clients_per_server, n_servers),
            duration_ms=spec.duration_ms or sizing.game_duration_ms,
            warmup_ms=spec.warmup_ms or sizing.game_warmup_ms,
            think_ms=wl.think_ms,
            config=_game_config(spec.game, n_servers),
            seed=seed,
        )
    else:
        result = _tpcc_run(
            system,
            n_servers,
            n_clients=_n_clients(wl, sizing.tpcc_clients_per_server, n_servers),
            duration_ms=spec.duration_ms or sizing.tpcc_duration_ms,
            warmup_ms=spec.warmup_ms or sizing.tpcc_warmup_ms,
            seed=seed,
            wl=wl,
            config=_tpcc_config(spec.tpcc, n_servers),
        )
    values = tuple(getattr(result, name) for name in spec.metrics)
    return values[0] if len(values) == 1 else values


def _tpcc_run(
    system: str,
    n_servers: int,
    n_clients: int,
    duration_ms: float,
    warmup_ms: float,
    seed: int,
    wl: WorkloadSpec,
    config: TpccConfig,
    costs: Any = DEFAULT_COSTS,
):
    """Build + drive + measure one TPC-C deployment (shared cell core)."""
    testbed = make_testbed(system, n_servers, costs=costs, seed=seed)
    workload = _deploy_tpcc(testbed, system, config)
    clients = _closed_loop(testbed, workload.sample_op, n_clients, duration_ms, wl)
    clients.start()
    testbed.sim.run(until=duration_ms + 15000.0)
    result = measure(system, testbed, n_clients, warmup_ms, duration_ms)
    result.errors = len(clients.errors)
    return result


def _fault_run(
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int
) -> Dict[str, object]:
    """Game + checkpoints + detector + faults → availability run dict.

    ``faults.kind == "crash"`` reproduces the fig10 single mid-run
    fail-stop timeline; ``"churn"`` reproduces the fig11 sustained
    crash/restart churn scored against the windowed availability SLO.
    The wiring (and the returned dicts) are byte-identical to the
    historical ``fig10_run``/``fig11_run`` drivers.

    ``"split_brain"`` / ``"partition_recovery"`` cut the detector and
    eManager off from one server (clients still reach it — an
    *asymmetric* partition) and exercise the honest-failure knobs:
    fencing epochs, step-down flushes and rolled-back-write accounting.
    """
    f = spec.faults
    if f.kind not in ("crash", "churn", "split_brain", "partition_recovery"):
        raise ScenarioError(f"unknown fault kind {f.kind!r}")
    churn = f.kind == "churn"
    partition = f.kind in ("split_brain", "partition_recovery")
    honest = f.fencing or f.honest_recovery or f.crash_drops_state
    duration = spec.duration_ms or (
        sizing.churn_duration_ms if churn else sizing.fault_duration_ms
    )
    testbed = make_testbed(system, n_servers, seed=seed)
    runtime = testbed.runtime
    app = _deploy_game(testbed, system, spec.game, n_servers)

    storage = CloudStorage(testbed.sim)
    manager = EManager(runtime, storage, None, M3_LARGE, max_concurrent_migrations=8)
    detector = FailureDetector(
        testbed.sim,
        testbed.network,
        testbed.cluster,
        heartbeat_interval_ms=f.heartbeat_ms,
        lease_ms=f.lease_ms,
        check_interval_ms=f.check_ms,
    )
    checkpoint_ms = f.checkpoint_ms or (
        sizing.churn_checkpoint_ms if churn else sizing.fault_checkpoint_ms
    )
    manager.enable_fault_tolerance(
        detector,
        checkpoint_interval_ms=checkpoint_ms,
        roots=[room.cid for room in app.rooms],
        # Orleans has no global lock order: a subtree-locking snapshot
        # deadlocks against its per-call turn locks, so it gets the
        # per-grain (fuzzy) persistence real Orleans offers.
        consistent_checkpoints=(system != "orleans"),
        checkpoint_mode=f.checkpoint_mode,
        fencing=f.fencing,
        # False means "unset" here: the eManager then defaults honest
        # recovery to the fencing flag, so fencing alone is coherent.
        honest_recovery=(f.honest_recovery or None),
        crash_drops_state=f.crash_drops_state,
        fence_grace_ms=f.fence_grace_ms,
    )
    detector.start()

    if churn:
        churn_start = f.churn_start_ms or sizing.churn_start_ms
        restart_ms = f.restart_ms if f.restart_ms != (0.0, 0.0) else sizing.churn_restart_ms
        schedule = random_churn(
            [server.name for server in testbed.servers],
            duration,
            testbed.rng,
            mean_time_between_crashes_ms=f.mtbf_ms or sizing.churn_mtbf_ms,
            restart_delay_ms=restart_ms,
            start_ms=churn_start,
        )
    elif partition:
        # Asymmetric cut: the detector and eManager lose the victim, but
        # clients (in neither group) still reach it — the old owner keeps
        # receiving traffic while recovery re-places its subtrees.
        victim = testbed.servers[f.victim].name
        partition_at = duration * f.partition_frac
        if f.partition_ms:
            partition_len = f.partition_ms
        elif f.kind == "split_brain":
            # Never heals within the run (including the drain tail).
            partition_len = duration + 3000.0 - partition_at
        else:
            # partition_recovery: heal lands inside the step-down grace
            # window — mid-recovery, after declaration, before restore.
            partition_len = f.lease_ms + f.check_ms + 0.5 * f.fence_grace_ms
        schedule = FaultSchedule(
            [
                NetworkPartition(
                    partition_at,
                    partition_len,
                    group_a=("~fdetector", "~emanager"),
                    group_b=(victim,),
                )
            ]
        )
    else:
        victim = testbed.servers[f.victim].name
        crash_at = duration * f.crash_frac
        restart_after = duration * f.restart_frac
        schedule = FaultSchedule(
            [ServerCrash(crash_at, victim, restart_after_ms=restart_after)]
        )
    injector = FaultInjector(
        testbed.sim, testbed.network, testbed.cluster, schedule, rng=testbed.rng
    )
    injector.start()

    n_clients = spec.workload.clients or (
        sizing.churn_clients if churn else sizing.fault_clients
    )
    clients = _closed_loop(testbed, app.sample_op, n_clients, duration, spec.workload)
    clients.start()
    testbed.sim.run(until=duration + 3000.0)
    detector.stop()
    manager.stop()

    goodput = runtime.latency.windowed_count(
        f.window_ms, duration, exclude_tag=FAILED_TAG
    )
    p99 = runtime.latency.windowed_percentile(
        99.0, f.window_ms, duration, exclude_tag=FAILED_TAG
    )
    run = {
        "system": system,
        "duration_ms": duration,
        "goodput": goodput.points,
        "p99": p99.points,
        "events_failed": runtime.events_failed,
        "client_errors": len(clients.errors),
        "client_retries": clients.retries,
        "contexts_recovered": manager.contexts_recovered,
        "checkpoints_taken": manager.checkpoints_taken,
        "fault_log": injector.log,
    }
    if churn:
        slo = availability_slo(
            goodput.points,
            p99.points,
            baseline_from_ms=churn_start * 0.3,
            baseline_to_ms=churn_start,
            eval_from_ms=churn_start,
            eval_to_ms=duration,
            # A window is available at >=85% of fault-free goodput with p99
            # within 3x of baseline (20 ms floor): strict enough that the
            # detection+recovery gap after each crash shows up, loose enough
            # that steady-state noise does not.
            goodput_fraction=f.goodput_fraction,
            p99_multiplier=f.p99_multiplier,
            p99_floor_ms=f.p99_floor_ms,
            # Lost *work* (acked writes rolled back at crash/recovery) rides
            # along only under honest semantics; None keeps the legacy fig11
            # payload byte-identical.
            lost_work=(runtime.writes_rolled_back if honest else None),
        )
        run.update(
            checkpoint_mode=f.checkpoint_mode,
            churn_start_ms=churn_start,
            crashes=len(schedule),
            slo=slo.as_dict(),
            detections=len(detector.detections),
            mean_detection_latency_ms=mean(
                [d.latency_ms for d in detector.detections if d.latency_ms is not None]
            ),
            redeclarations=detector.redeclarations,
            recoveries=manager.recoveries,
            contexts_restored_without_checkpoint=(
                manager.contexts_restored_without_checkpoint
            ),
            cache_invalidations=manager.cache_invalidations,
            checkpoints_skipped=manager.checkpoints_skipped,
            checkpoint_bytes_written=manager.checkpoint_bytes_written,
            recovery_log=manager.recovery_log,
        )
        return run
    run.update(
        victim=victim,
        detections=[
            {
                "server": d.server,
                "detected_at_ms": d.detected_at_ms,
                "latency_ms": d.latency_ms,
            }
            for d in detector.detections
        ],
        recoveries=manager.recovery_log,
    )
    if partition:
        run.update(
            partition_at_ms=partition_at,
            partition_heal_ms=partition_at + partition_len,
            fencing=f.fencing,
            false_detections=manager.false_detections,
            lost_updates=runtime.writes_rolled_back,
            fenced_writes=(
                manager.fencing.rejected if manager.fencing is not None else 0
            ),
            flush_restores=manager.flush_restores,
        )
        return run
    run.update(crash_at_ms=crash_at, restart_at_ms=crash_at + restart_after)
    if honest:
        # Conditional: legacy fig10 payloads stay byte-identical.
        run["lost_work"] = runtime.writes_rolled_back
    return run


def _ramp_profile(wl: WorkloadSpec, duration_ms: float) -> RampProfile:
    shape = dict(
        machines=wl.machines,
        min_per_machine=wl.min_per_machine,
        max_per_machine=wl.max_per_machine,
    )
    if wl.profile == "diurnal":
        return RampProfile.diurnal(duration_ms, cycles=wl.cycles, **shape)
    if wl.profile == "normal_peak":
        return RampProfile.normal_peak(duration_ms, **shape)
    raise ScenarioError(f"unknown ramp profile {wl.profile!r}")


def _elastic_game(
    spec: ScenarioSpec,
    sizing: Scale,
    system: str,
    n_servers: int,
    seed: int,
    label: str,
    managed: bool = True,
):
    """Game + eManager (when ``managed``) + ramp clients, run to the drain.

    The fleet starts at ``n_servers``; with the eManager it grows and
    shrinks against ``spec.elastic``'s SLA policy while clients follow
    the workload's ramp profile.  Returns ``(run, manager, profile)``:
    the run dict holds the latency/fleet/client series and the SLA
    report scored under ``label``.
    """
    e = spec.elastic
    duration = spec.duration_ms or sizing.elastic_duration_ms
    itype = INSTANCE_TYPES[spec.instance] if spec.instance else M3_LARGE
    testbed = make_testbed(system, n_servers, instance_type=itype, seed=seed)
    testbed.cluster.boot_delay_ms = e.boot_delay_ms
    app = _deploy_game(testbed, system, spec.game, n_servers)
    manager = None
    if managed:
        storage = CloudStorage(testbed.sim)
        policy = SLAPolicy(
            sla_ms=e.sla_ms,
            scale_out_step=e.scale_out_step,
            min_servers=e.min_servers,
            max_servers=e.max_servers,
            scale_in_fraction=e.scale_in_fraction,
            headroom=e.headroom,
        )
        manager = EManager(
            testbed.runtime,
            storage,
            policy,
            itype,
            report_interval_ms=e.report_interval_ms,
            max_concurrent_migrations=e.max_concurrent_migrations,
        )
        manager.start()
    profile = _ramp_profile(spec.workload, duration)
    clients = DynamicClients(
        testbed.runtime,
        app.sample_op,
        profile,
        think_ms=spec.workload.think_ms,
        rng=testbed.rng,
        stop_at_ms=duration,
    )
    clients.start()
    testbed.sim.run(until=duration + (spec.drain_ms or 5000.0))
    if manager is None:
        server_series = None
        avg_servers = float(len(testbed.cluster.alive_servers()))
    else:
        manager.stop()
        server_series = manager.server_count_series
        avg_servers = server_series.mean_value()
    latency = testbed.runtime.latency
    run = {
        "latency_series": latency.windowed_mean(1000.0, duration).points,
        "server_series": server_series.points if server_series else None,
        "client_series": clients.active_series,
        "sla": sla_report(label, latency, e.sla_ms, avg_servers, since_ms=0.0),
    }
    return run, manager, profile


def _elastic_run(
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int
) -> Dict[str, object]:
    """Elastic game run for spec-declared elastic scenarios (e.g. diurnal)."""
    run, manager, profile = _elastic_game(
        spec, sizing, system, n_servers, seed, label=spec.name
    )
    return {
        "system": system,
        **run,
        "avg_servers": run["sla"].avg_servers,
        "peak_servers": manager.server_count_series.max_value(),
        "peak_clients": profile.peak(),
    }


#: Tag sets splitting the mixed co-tenancy latency stream per app.
GAME_TAGS = ("private", "shared", "readonly")
TPCC_TAGS = ("new_order", "payment", "order_status", "delivery", "stock_level")


def _mixed_run(
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int
) -> Dict[str, object]:
    """Game + TPC-C co-tenants on one fleet → per-app and combined metrics.

    Both applications deploy on the *same* servers and runtime; two
    closed-loop client populations (with distinct RNG stream prefixes)
    drive them concurrently.  Per-app numbers come from splitting the
    shared latency stream by *top-level* operation tag; the combined
    numbers count every completion, including TPC-C sub-transactions
    (``new_order/sub``), so the per-app splits sum to at most the
    combined count.
    """
    if system == "eventwave":
        # EventWave sequences every event through the single root of ONE
        # ownership tree; two co-tenant applications mean two roots
        # ('castle' + 'warehouse'), which its runtime model rejects on
        # every call.  Co-tenancy is simply not expressible there.
        raise ScenarioError(
            "mixed co-tenancy cannot run on 'eventwave': its runtime "
            "requires exactly one root context, and two applications "
            "create two ownership roots"
        )
    wl_game, wl_tpcc = spec.workload, spec.tpcc_workload
    duration = spec.duration_ms or sizing.tpcc_duration_ms
    warmup = spec.warmup_ms or sizing.tpcc_warmup_ms
    testbed = make_testbed(system, n_servers, seed=seed)
    game = _deploy_game(testbed, system, spec.game, n_servers)
    workload = _deploy_tpcc(testbed, system, _tpcc_config(spec.tpcc, n_servers))
    n_game = _n_clients(wl_game, sizing.game_clients_per_server, n_servers)
    n_tpcc = _n_clients(wl_tpcc, sizing.tpcc_clients_per_server, n_servers)
    game_clients = _closed_loop(testbed, game.sample_op, n_game, duration, wl_game)
    tpcc_clients = _closed_loop(testbed, workload.sample_op, n_tpcc, duration, wl_tpcc)
    game_clients.start()
    tpcc_clients.start()
    testbed.sim.run(until=duration + (spec.drain_ms or 15000.0))
    combined = measure(system, testbed, n_game + n_tpcc, warmup, duration)

    window_s = (duration - warmup) / 1000.0
    summary = ("completed", "throughput_per_s", "mean_latency_ms", "p99_latency_ms")

    def split(tags: Tuple[str, ...]) -> Dict[str, float]:
        lats = testbed.runtime.latency.latencies_between(warmup, duration, tags=tags)
        lats.sort()
        return {
            "completed": len(lats),
            "throughput_per_s": len(lats) / window_s if window_s > 0 else 0.0,
            "mean_latency_ms": mean(lats),
            "p99_latency_ms": percentile(lats, 99.0, presorted=True),
        }

    return {
        "system": system,
        "n_servers": n_servers,
        "game_clients": n_game,
        "tpcc_clients": n_tpcc,
        "game": split(GAME_TAGS),
        "tpcc": split(TPCC_TAGS),
        "combined": {name: getattr(combined, name) for name in summary},
        "game_errors": len(game_clients.errors),
        "tpcc_errors": len(tpcc_clients.errors),
    }


#: The closed-loop cell drivers of generic scenarios, by ``spec.app``.
_APP_DRIVERS = {"game": _closed_loop_point, "tpcc": _closed_loop_point, "mixed": _mixed_run}


# ----------------------------------------------------------------------
# Custom cell bodies (the figures whose wiring predates — and outlives —
# the generic builder: elasticity setups, migration pumps, ablations)
# ----------------------------------------------------------------------
#: The §6.2 deployment of fig7/table1: ``setup`` picks the fleet size and
#: whether the eManager runs (the same wiring ``diurnal`` declares).
_FIG7_DEPLOYMENT = ScenarioSpec(
    name="fig7",
    title="",
    instance="m1.small",
    # 32 rooms so the fleet can usefully grow beyond 16 servers.
    game=GameSpec(rooms=32, players_per_room=4, shared_items_per_room=2),
    workload=WorkloadSpec(kind="ramp", think_ms=12.0),
    elastic=ElasticSpec(),
)


def _migration_coordinator(testbed, itype) -> MigrationCoordinator:
    """A migration coordinator on its own ``~emanager`` host of ``itype``."""
    storage = CloudStorage(testbed.sim)
    host = Server(testbed.sim, "~emanager", itype)
    testbed.network.register(host.name, host.mailbox, itype)
    return MigrationCoordinator(testbed.runtime, storage, host)


def _elastic_cell(setup: str, rep: int, scale: str, seed: int) -> Dict[str, object]:
    """One (setup, repetition) sub-cell of fig7/table1.

    ``setup`` is 'elastic' (8 servers to start, eManager on) or a fixed
    server count.  ``rep`` shards a setup into independent seed replicas
    (``seed + rep``) so ``--set rep=0,1,2`` splits the two
    longest-running experiments into cells ``--jobs`` can actually
    parallelise.  The default single ``rep=0`` reproduces the historical
    monolithic cell byte for byte.
    """
    elastic = setup == "elastic"
    run, _manager, _profile = _elastic_game(
        _FIG7_DEPLOYMENT,
        SCALES[scale],
        "aeon",
        8 if elastic else int(setup),
        seed + rep,
        label=setup,
        managed=elastic,
    )
    return {"setup": setup, **run}


def _fig8_cell(
    n_migrations: int, scale: str, seed: int
) -> List[Tuple[float, float]]:
    """One fig8 run: throughput series while migrating ``n_migrations`` Rooms."""
    sizing = SCALES[scale]
    duration = sizing.migration_duration_ms
    testbed = make_testbed("aeon", 20, instance_type=M1_SMALL, seed=seed)
    app = _deploy_game(
        testbed, "aeon", GameSpec(rooms=20, players_per_room=4, shared_items_per_room=2), 20
    )
    coordinator = _migration_coordinator(testbed, M3_LARGE)
    clients = _closed_loop(
        testbed, app.sample_op, 120, duration, WorkloadSpec(think_ms=10.0)
    )
    clients.start()

    def migrate_rooms(n=n_migrations, tb=testbed, coord=coordinator):
        yield tb.sim.timeout(duration * 0.4)
        handles = []
        for i in range(n):
            src_room = f"room-{i}"
            dst = tb.servers[(i + 1) % len(tb.servers)]
            if tb.runtime.placement[src_room] == dst.name:
                dst = tb.servers[(i + 2) % len(tb.servers)]
            handles.append(coord.migrate(src_room, dst))
        for handle in handles:
            yield handle

    testbed.sim.process(migrate_rooms())
    testbed.sim.run(until=duration + 5000.0)
    return testbed.runtime.throughput.windowed_rate(250.0, duration).points


def _fig9_cell(itype_name: str, size_bytes: int, scale: str, seed: int) -> float:
    """One fig9 grid point: eManager migration throughput (contexts/s)."""
    batch = SCALES[scale].emanager_batch
    itype = INSTANCE_TYPES[itype_name]
    testbed = make_testbed("aeon", 2, instance_type=itype, seed=seed)

    class Payload(Room):
        pass

    Payload.size_bytes = size_bytes
    refs = [
        testbed.runtime.create_context(
            Payload, server=testbed.servers[0], name=f"payload-{i}", args=(i,)
        )
        for i in range(batch)
    ]
    coordinator = _migration_coordinator(testbed, itype)

    def pump():
        window = 4  # concurrent migrations in flight
        pending = []
        for ref in refs:
            pending.append(coordinator.migrate(ref.cid, testbed.servers[1]))
            if len(pending) >= window:
                yield pending.pop(0)
        for handle in pending:
            yield handle

    start = testbed.sim.now
    testbed.sim.run_process(pump())
    elapsed_s = (testbed.sim.now - start) / 1000.0
    return batch / elapsed_s if elapsed_s > 0 else 0.0


def _massive_run(flavor: str, scale: str, seed: int) -> Dict[str, object]:
    """One massive-tier run: bulk-registered leaves under closed-loop load.

    The scale preset's ``massive_*`` sizing drives everything: a
    ``massive_contexts``-leaf tree (see :mod:`repro.apps.massive`) is
    registered through the columnar bulk path — no instances, no locks —
    and ``massive_clients`` closed-loop clients sample uniformly over
    the population, materializing only the leaves they actually touch.
    The latency recorder runs with a low sampling threshold so
    percentile queries answer from its bounded reservoir, and the
    returned ``checksum`` (materialized leaf state in sorted-cid order
    plus the completion count) pins the run's determinism.
    """
    sizing = SCALES[scale]
    duration = sizing.massive_duration_ms
    testbed = make_testbed("aeon", sizing.massive_servers, seed=seed)
    # Swap the recorder before any event completes: massive runs engage
    # reservoir sampling almost immediately instead of at the default
    # exact-mode threshold, bounding metric memory at any event count.
    testbed.runtime.latency = LatencyRecorder(sample_threshold=65536)
    config = MassiveConfig(contexts=sizing.massive_contexts, flavor=flavor)
    app = build_massive(testbed.runtime, config, testbed.servers)
    clients = _closed_loop(
        testbed, app.sample_op, sizing.massive_clients, duration,
        WorkloadSpec(think_ms=sizing.massive_think_ms),
    )
    clients.start()
    testbed.sim.run(until=duration + 2000.0)
    result = measure(
        "aeon", testbed, clients.n_clients, sizing.massive_warmup_ms, duration
    )
    runtime = testbed.runtime
    return {
        "flavor": flavor,
        "contexts": runtime.context_count(),
        "materialized": len(runtime.instances),
        "servers": sizing.massive_servers,
        "clients": clients.n_clients,
        "completed": result.completed,
        "throughput_per_s": result.throughput_per_s,
        "mean_latency_ms": result.mean_latency_ms,
        "p50_latency_ms": result.p50_latency_ms,
        "p99_latency_ms": result.p99_latency_ms,
        "sampling": runtime.latency.sampling,
        "errors": len(clients.errors),
        "checksum": run_checksum(runtime, app),
    }


def _massive_game_cell(rep: int, scale: str, seed: int) -> Dict[str, object]:
    """One repetition of the massive game-flavor run (``seed + rep``)."""
    return _massive_run("game", scale, seed + rep)


def _massive_tpcc_cell(rep: int, scale: str, seed: int) -> Dict[str, object]:
    """One repetition of the massive TPC-C-flavor run (``seed + rep``)."""
    return _massive_run("tpcc", scale, seed + rep)


def _ablation_cell(early_release: bool, scale: str, seed: int) -> float:
    """One ablation run: TPC-C throughput with the given release mode."""
    sizing = SCALES[scale]
    result = _tpcc_run(
        "aeon_so",
        4,
        n_clients=sizing.tpcc_clients_per_server * 4,
        duration_ms=sizing.tpcc_duration_ms,
        warmup_ms=sizing.tpcc_warmup_ms,
        seed=seed,
        wl=WorkloadSpec(think_ms=5.0),
        config=TpccConfig(districts=4, customers_per_district=10),
        costs=DEFAULT_COSTS.with_(early_release=early_release),
    )
    return result.throughput_per_s


# ----------------------------------------------------------------------
# Assembly: cell results (in cell order) -> figure data
# ----------------------------------------------------------------------
def _assemble_curve(spec, cells, results):
    """``{system: [(x, value), ...]}`` — systems × one x axis (+ seeds).

    With a swept ``seed`` axis the metric is averaged across seeds per
    (system, x) point; a single seed passes values through untouched.
    """
    curves: Dict[str, List[Tuple[Any, Any]]] = {s: [] for s in spec.systems}
    grouped: Dict[Tuple, List[Any]] = {}
    for cell, result in zip(cells, results):
        grouped.setdefault(cell.key[:2], []).append(result.value)
    for (system, x), values in grouped.items():
        curves[system].append((x, values[0] if len(values) == 1 else mean(values)))
    return curves


def _assemble_xy(spec, cells, results):
    """``{system: [metric-tuple, ...]}`` in sweep order (fig5b/fig6b)."""
    curves: Dict[str, List[Any]] = {s: [] for s in spec.systems}
    for cell, result in zip(cells, results):
        curves[cell.key[0]].append(result.value)
    return curves


def _labelled(label: Callable[[Tuple], Any] = lambda key: key[0]) -> Callable:
    """An assembler of ``{label(cell.key): value}`` in cell order."""

    def assemble(spec, cells, results):
        return {label(cell.key): result.value for cell, result in zip(cells, results)}

    return assemble


def _aggregate_elastic_runs(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """Average multi-rep elastic runs (single-rep passes through untouched).

    The latency series is averaged pointwise by window time; the
    server/client series stay rep 0's (fleet decisions are per-replica
    trajectories, not averageable); SLA scalars average across reps.
    """
    if len(runs) == 1:
        return runs[0]
    by_time: Dict[float, List[float]] = {}
    for run in runs:
        for t, value in run["latency_series"]:
            by_time.setdefault(t, []).append(value)
    first = runs[0]
    reports = [run["sla"] for run in runs]
    return {
        "setup": first["setup"],
        "reps": len(runs),
        "latency_series": [(t, mean(vals)) for t, vals in sorted(by_time.items())],
        "server_series": first["server_series"],
        "client_series": first["client_series"],
        "sla": {
            "setup": reports[0].setup,
            "sla_ms": reports[0].sla_ms,
            "total_requests": sum(r.total_requests for r in reports),
            "violations": sum(r.violations for r in reports),
            "violation_pct": mean([r.violation_pct for r in reports]),
            "avg_servers": mean([r.avg_servers for r in reports]),
        },
    }


def _assemble_fig7(spec, cells, results):
    """``{setup: run}`` — (setup, rep) sub-cells grouped in axis order,
    multi-rep setups averaged."""
    by_setup: Dict[str, List[Any]] = {}
    for cell, result in zip(cells, results):
        by_setup.setdefault(cell.key[0], []).append(result.value)
    return {setup: _aggregate_elastic_runs(runs) for setup, runs in by_setup.items()}


def _sla_field(sla, name):
    """Read an SLA field from a SlaReport, its JSON form or a multi-rep dict."""
    if not isinstance(sla, dict):
        return getattr(sla, name)
    if name == "violation_pct" and name not in sla:
        # A property of SlaReport, so dataclasses.asdict (--json) drops it.
        return SlaReport(**sla).violation_pct
    return sla[name]


def _assemble_table1(spec, cells, results):
    """Table 1 rows: one per setup, from fig7's rep-averaged runs."""
    return [
        {
            "setup": f"{setup}-server" if setup != "elastic" else "Elastic",
            "violation_pct": _sla_field(run["sla"], "violation_pct"),
            "avg_servers": _sla_field(run["sla"], "avg_servers"),
            "requests": _sla_field(run["sla"], "total_requests"),
        }
        for setup, run in _assemble_fig7(spec, cells, results).items()
    ]


def _assemble_fig9(spec, cells, results):
    out: Dict[str, Dict[str, float]] = {}
    for cell, result in zip(cells, results):
        itype, size_bytes = cell.key[0], cell.key[1]
        label = {1024: "1KB", 1_000_000: "1MB"}.get(size_bytes, f"{size_bytes}B")
        out.setdefault(itype, {})[label] = result.value
    return out


def _assemble_fig11(spec, cells, results):
    """Delta-checkpoint runs by system, plus AEON's full-checkpoint run."""
    systems: Dict[str, object] = {}
    aeon_full = None
    for cell, result in zip(cells, results):
        if cell.key[1] == "delta":
            systems[cell.key[0]] = result.value
        else:
            aeon_full = result.value
    return {"window_ms": spec.faults.window_ms, "systems": systems, "aeon_full": aeon_full}


def _assemble_split_brain(spec, cells, results):
    """``{"fenced"/"unfenced": run}`` plus the lost-updates invariant.

    The invariant the scenario exists to prove: **zero** lost updates
    with fencing on (the step-down flush preserves every acked write),
    a **nonzero** count with fencing off (restore rolls back to the
    last periodic checkpoint while the old owner was still serving).
    """
    runs = _labelled(lambda key: "fenced" if key[1] else "unfenced")(
        spec, cells, results
    )
    fenced = runs["fenced"]["lost_updates"] if "fenced" in runs else None
    unfenced = runs["unfenced"]["lost_updates"] if "unfenced" in runs else None
    return {
        "runs": runs,
        "invariant": {
            "fenced_lost_updates": fenced,
            "unfenced_lost_updates": unfenced,
            "zero_loss_with_fencing": fenced == 0,
            "loss_without_fencing": unfenced is not None and unfenced > 0,
        },
    }


def _assemble_massive(spec, cells, results):
    """The single run dict (one rep) or ``{rep: run}`` (sharded reps)."""
    if len(results) == 1:
        return results[0].value
    return {f"rep{cell.key[0]}": r.value for cell, r in zip(cells, results)}


def _assemble_churn_sweep(spec, cells, results):
    rows = []
    runs: Dict[str, object] = {}
    for cell, result in zip(cells, results):
        run = result.value
        mtbf = cell.key[-1]
        runs[f"{run['system']}@{mtbf:g}"] = run
        rows.append(
            {
                "system": run["system"],
                "mtbf_ms": mtbf,
                "crashes": run["crashes"],
                "availability_pct": run["slo"]["availability_pct"],
                "mean_detection_latency_ms": run["mean_detection_latency_ms"],
                "contexts_recovered": run["contexts_recovered"],
                "events_failed": run["events_failed"],
                "checkpoint_bytes_written": run["checkpoint_bytes_written"],
            }
        )
    return {"window_ms": spec.faults.window_ms, "rows": rows, "runs": runs}


# ----------------------------------------------------------------------
# Rendering: figure data -> text
# ----------------------------------------------------------------------
class Col(NamedTuple):
    """One declared table column: header, value getter and rounding.

    ``get`` is a dotted key path into the row (``"slo.availability_pct"``;
    ``""`` is the row itself) or a function of the row.  ``digits``
    rounds the value (0 rounds to an int); ``None`` prints it as is.
    """

    header: str
    get: Any
    digits: Optional[int] = None

    def value(self, row: Any) -> Any:
        if callable(self.get):
            value = self.get(row)
        else:
            value = row
            for key in filter(None, self.get.split(".")):
                value = value[key]
        if self.digits is None:
            return value
        return round(value, self.digits) if self.digits else round(value)


@dataclass(frozen=True)
class Table:
    """A declared table renderer: one line per ``(label, row)`` of
    ``rows(data)``, then the optional ``footer(data)`` text."""

    label: str
    columns: Tuple[Col, ...]
    rows: Callable[[Any], Any] = dict.items
    footer: Optional[Callable[[Any], str]] = None

    def __call__(self, spec: ScenarioSpec, data: Any) -> str:
        table = format_table(
            spec.title,
            [self.label] + [col.header for col in self.columns],
            [
                [label] + [col.value(row) for col in self.columns]
                for label, row in self.rows(data)
            ],
        )
        return table + self.footer(data) if self.footer else table


def _render_grid_curve(spec, data) -> str:
    systems = list(data)
    rows = [
        [x] + [round(data[s][i][1]) for s in systems]
        for i, (x, _value) in enumerate(data[systems[0]])
    ]
    return format_table(spec.title, [spec.x_name] + systems, rows)


def _render_xy_curve(spec, data) -> str:
    lines = [spec.title, ""]
    for system, points in data.items():
        lines.append(f"[{system}]")
        for x, y in points:
            lines.append(f"  {x:10.1f}  {y:10.2f}")
        lines.append("")
    return "\n".join(lines)


def _render_latency_runs(spec, data) -> str:
    """One latency/SLA line per fig7 setup or elastic-scenario system;
    elastic-scenario runs add their fleet and client peaks."""
    lines = [spec.title, ""]
    for label, run in data.items():
        values = [v for _t, v in run["latency_series"]]
        fleet = "peak_servers" in run
        line = (
            f"  {label:>{10 if fleet else 8}}: mean={mean(values):6.2f} ms  "
            f"peak={max(values) if values else 0:6.2f} ms  "
            f"violations={_sla_field(run['sla'], 'violation_pct'):5.1f}%"
        )
        if fleet:
            line += (
                f"  servers avg={run['avg_servers']:.1f} peak={run['peak_servers']:.0f}  "
                f"clients peak={run['peak_clients']}"
            )
        lines.append(line)
    return "\n".join(lines)


def _render_fig8(spec, data) -> str:
    lines = [spec.title, ""]
    for label, points in data.items():
        values = [v for _t, v in points]
        steady = mean(values[:4])
        dip = min(values) if values else 0.0
        lines.append(f"  {label:>12}: steady={steady:7.1f}/s  dip={dip:7.1f}/s")
    return "\n".join(lines)


def _render_massive(spec, data) -> str:
    runs = [data] if "contexts" in data else list(data.values())
    lines = [spec.title, ""]
    for run in runs:
        lines.append(
            f"  {run['flavor']:>5}: {run['contexts']:,} contexts "
            f"({run['materialized']:,} materialized) on {run['servers']} "
            f"servers, {run['clients']} clients"
        )
        lines.append(
            f"         {run['throughput_per_s']:,.1f} ev/s  "
            f"p50={run['p50_latency_ms']:.2f} ms  "
            f"p99={run['p99_latency_ms']:.2f} ms  "
            f"sampling={run['sampling']}  errors={run['errors']}"
        )
        lines.append(f"         checksum {run['checksum'][:16]}…")
    return "\n".join(lines)


def fig10_phases(run: Dict[str, object]) -> Dict[str, float]:
    """Mean goodput of one fig10 run before / during / after the outage.

    ``pre`` skips the first 10% as warmup; ``outage`` spans the crash to
    the end of recovery (or the detector lease window when no recovery
    ran); ``post`` starts 1 s after recovery finished.
    """
    crash = float(run["crash_at_ms"])
    duration = float(run["duration_ms"])
    recovery_end = crash
    for entry in run["recoveries"]:
        finished = entry.get("finished_ms")
        if finished is not None and finished > recovery_end:
            recovery_end = finished
    if recovery_end <= crash:
        recovery_end = crash + 1500.0
    goodput = run["goodput"]
    pre = [v for t, v in goodput if duration * 0.1 <= t < crash]
    outage = [v for t, v in goodput if crash <= t < recovery_end]
    post = [v for t, v in goodput if recovery_end + 1000.0 <= t < duration]
    return {
        "pre": mean(pre),
        "outage": mean(outage),
        "post": mean(post),
        "recovery_end_ms": recovery_end,
    }


def _fig10_rows(data):
    """Each fig10 run with its goodput phases and mean detection latency."""
    for system, run in data.items():
        detect = [d["latency_ms"] for d in run["detections"] if d["latency_ms"] is not None]
        yield system, {**run, **fig10_phases(run), "detect_ms": mean(detect)}


def _fig11_footer(data) -> str:
    delta_bytes = data["systems"]["aeon"]["checkpoint_bytes_written"]
    full_bytes = data["aeon_full"]["checkpoint_bytes_written"]
    saving = 100.0 * (1.0 - delta_bytes / full_bytes) if full_bytes else 0.0
    return (
        f"\n\ndelta checkpoints: {delta_bytes:,} bytes vs full "
        f"{full_bytes:,} bytes ({saving:.1f}% saved on identical churn)"
    )


def _split_brain_footer(data) -> str:
    inv = data["invariant"]
    return (
        f"\n\nzero lost updates with fencing: {inv['zero_loss_with_fencing']}"
        f"; lost updates without fencing: {inv['unfenced_lost_updates']}"
    )


_RESTORED = Col("ctx restored", "contexts_recovered")
_FAILED = Col("failed", "events_failed")
_DETECT_MS = Col("detect ms", "mean_detection_latency_ms", 1)
_CKPT_BYTES = Col("ckpt bytes", "checkpoint_bytes_written")
_LOST = Col("lost upd", "lost_updates")
_FLUSHED = Col("flush rst", "flush_restores")
_FALSE_DET = Col("false det", "false_detections")


class Output(NamedTuple):
    """How one output kind turns cell results into figure data and text."""

    assemble: Callable[[ScenarioSpec, Sequence[Cell], Sequence[Any]], Any]
    render: Callable[[ScenarioSpec, Any], str]


#: Every output kind, by ``ScenarioSpec.output``: its assembler (cell
#: results in cell order -> figure data) and its renderer (figure data,
#: live or in its JSON form -> text).  A new kind is one entry here.
OUTPUTS: Dict[str, Output] = {
    "curve": Output(_assemble_curve, _render_grid_curve),
    "xy": Output(_assemble_xy, _render_xy_curve),
    "fig7": Output(_assemble_fig7, _render_latency_runs),
    "elastic": Output(_labelled(), _render_latency_runs),
    "table1": Output(_assemble_table1, Table(
        "setup",
        (
            Col("% requests > SLA", "violation_pct", 1),
            Col("avg servers", "avg_servers", 1),
            Col("requests", "requests"),
        ),
        rows=lambda rows: [(row["setup"], row) for row in rows],
    )),
    "fig8": Output(_labelled(lambda key: f"{key[0]} contexts"), _render_fig8),
    "fig9": Output(_assemble_fig9, Table(
        "instance", (Col("1KB", "1KB", 1), Col("1MB", "1MB", 1))
    )),
    "fig10": Output(_labelled(), Table(
        "system",
        (
            Col("pre-crash", "pre", 1),
            Col("outage", "outage", 1),
            Col("recovered", "post", 1),
            Col("detect ms", "detect_ms", 1),
            _RESTORED,
            _FAILED,
        ),
        rows=_fig10_rows,
    )),
    "fig11": Output(_assemble_fig11, Table(
        "system",
        (
            Col("avail %", "slo.availability_pct", 1),
            Col("base ev/s", "slo.baseline_goodput_per_s", 1),
            Col("target ev/s", "slo.goodput_target_per_s", 1),
            _DETECT_MS,
            _RESTORED,
            _FAILED,
            Col("ckpts", "checkpoints_taken"),
            Col("skipped", "checkpoints_skipped"),
            _CKPT_BYTES,
        ),
        rows=lambda data: [*data["systems"].items(), ("aeon (full ckpt)", data["aeon_full"])],
        footer=_fig11_footer,
    )),
    "ablation": Output(
        _labelled(lambda key: "chain-release" if key[0] else "hold-till-commit"),
        Table("mode", (Col("events/s", "", 1),)),
    ),
    "churn_sweep": Output(_assemble_churn_sweep, Table(
        "system",
        (
            Col("MTBF ms", "mtbf_ms", 0),
            Col("crashes", "crashes"),
            Col("avail %", "availability_pct", 1),
            _DETECT_MS,
            _RESTORED,
            _FAILED,
            _CKPT_BYTES,
        ),
        rows=lambda data: [(row["system"], row) for row in data["rows"]],
    )),
    "split_brain": Output(_assemble_split_brain, Table(
        "mode",
        (
            _LOST,
            Col("fenced wr", "fenced_writes"),
            _FLUSHED,
            _RESTORED,
            _FALSE_DET,
            _FAILED,
            Col("retries", "client_retries"),
        ),
        rows=lambda data: [
            (label, data["runs"][label])
            for label in ("fenced", "unfenced")
            if label in data["runs"]
        ],
        footer=_split_brain_footer,
    )),
    "partition_recovery": Output(_labelled(), Table(
        "system",
        (
            Col("cut ms", "partition_at_ms", 1),
            Col("heal ms", "partition_heal_ms", 1),
            _LOST,
            _FLUSHED,
            _RESTORED,
            _FALSE_DET,
            _FAILED,
        ),
    )),
    "mixed": Output(_labelled(), Table(
        "system",
        (
            Col("game ev/s", "game.throughput_per_s", 1),
            Col("game p99", "game.p99_latency_ms", 2),
            Col("tpcc txn/s", "tpcc.throughput_per_s", 1),
            Col("tpcc p99", "tpcc.p99_latency_ms", 2),
            Col("combined/s", "combined.throughput_per_s", 1),
            Col("errors", lambda run: run["game_errors"] + run["tpcc_errors"]),
        ),
    )),
    "massive": Output(_assemble_massive, _render_massive),
}


def _output(spec: ScenarioSpec) -> Output:
    try:
        return OUTPUTS[spec.output]
    except KeyError:
        raise ScenarioError(
            f"scenario {spec.name!r}: unknown output {spec.output!r}; "
            f"pick from {', '.join(sorted(OUTPUTS))}"
        ) from None


def assemble_scenario(spec: ScenarioSpec, cells, results):
    """Assemble cell results (in cell order) into the figure data."""
    return _output(spec).assemble(spec, cells, results)


def render_scenario(spec: ScenarioSpec, data) -> str:
    """Human-readable rendering of a scenario's assembled data."""
    return _output(spec).render(spec, data)


# ----------------------------------------------------------------------
# JSON conversion + the one-call driver
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    """Recursively convert experiment results to JSON-encodable data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def prepare_scenario(
    scenario: Any,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    overrides: Sequence[str] = (),
) -> ScenarioSpec:
    """Resolve a name/spec and apply scale/seed/``--set`` overrides."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if scale is not None:
        spec = replace(spec, scale=scale)
    if spec.scale not in SCALES:
        raise ScenarioError(
            f"unknown scale {spec.scale!r}; pick from {', '.join(sorted(SCALES))}"
        )
    if seed is not None:
        spec = replace(spec, seeds=(seed,))
    if overrides:
        spec = apply_overrides(spec, overrides)
    return spec


def run_scenario(
    scenario: Any,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    overrides: Sequence[str] = (),
    pool: Any = None,
    cache: Optional[str] = "off",
    cache_dir: Optional[Any] = None,
    executor: Any = None,
    queue_dir: Any = None,
) -> Any:
    """Run a scenario end to end and return its assembled figure data.

    ``scenario`` is a registered name or a :class:`ScenarioSpec`;
    ``scale``/``seed`` override the spec's sizing; ``overrides`` are
    ``--set``-style ``key=value`` strings; ``jobs`` fans the sweep cells
    out to worker processes (1 = serial, 0 = one per core — data is
    byte-identical at any level); ``pool`` shares one
    :class:`~repro.harness.runner.CellPool` across scenarios.

    ``cache`` attaches the persistent result store (see
    docs/ARCHITECTURE.md § Result store): ``"auto"`` loads persisted
    cells and persists fresh ones, ``"refresh"`` recomputes everything
    and repopulates, ``"off"`` (the library default — programmatic
    callers stay pure) touches no store.  ``cache_dir`` overrides the
    store directory (default ``.repro_results/`` or
    ``$REPRO_RESULTS_DIR``).  ``executor`` picks the cell-execution
    backend (``"serial"``/``"pool"``/``"queue"`` or an
    :class:`~repro.exec.Executor` instance — docs/ARCHITECTURE.md
    § Executors) and ``queue_dir`` the queue backend's spool directory.
    A ``pool`` carries its own store and backend, so all of these are
    ignored when one is passed.
    """
    spec = prepare_scenario(scenario, scale=scale, seed=seed, overrides=overrides)
    cells = expand(spec)
    if pool is not None:
        results = run_cells(cells, jobs, pool=pool)
    else:
        try:
            store = open_store(cache, cache_dir)
        except ValueError as error:
            raise ScenarioError(str(error)) from None
        results = run_cells(
            cells, jobs, store=store, executor=executor, queue_dir=queue_dir
        )
    return assemble_scenario(spec, cells, results)


# ----------------------------------------------------------------------
# Registered scenarios — the paper's figures
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="fig5a",
    title="Fig 5a — game scale-out (events/s)",
    description="Game throughput vs number of servers, all five systems.",
    app="game",
    workload=WorkloadSpec(think_ms=2.0),
    metrics=("throughput_per_s",),
    output="curve",
    x_name="servers",
))

register(ScenarioSpec(
    name="fig5b",
    title="Fig 5b — game latency vs throughput (thr/s, ms)",
    description="Game latency vs throughput at 8 servers over a client sweep.",
    app="game",
    servers=8,
    workload=WorkloadSpec(think_ms=2.0),
    axes=(("clients", ()),),  # () -> the scale preset's client_sweep
    metrics=("throughput_per_s", "mean_latency_ms"),
    output="xy",
))

register(ScenarioSpec(
    name="fig6a",
    title="Fig 6a — TPC-C scale-out (events/s)",
    description="TPC-C throughput vs number of servers (one district each).",
    app="tpcc",
    workload=WorkloadSpec(think_ms=5.0),
    metrics=("throughput_per_s",),
    output="curve",
    x_name="servers",
))

register(ScenarioSpec(
    name="fig6b",
    title="Fig 6b — TPC-C latency vs throughput (txn/s, ms)",
    description="TPC-C latency vs throughput at 8 servers over a client sweep.",
    app="tpcc",
    servers=8,
    workload=WorkloadSpec(think_ms=5.0),
    axes=(("clients", ()),),
    metrics=("throughput_per_s", "mean_latency_ms"),
    output="xy",
))

register(ScenarioSpec(
    name="fig7",
    title="Fig 7 — elastic vs static (mean latency per setup)",
    description="Latency and fleet-size time series, elastic vs static setups.",
    cell=f"{_SCN}:_elastic_cell",
    axes=(("setup", ("elastic", "8", "16", "32")), ("rep", (0,))),
    output="fig7",
))

register(ScenarioSpec(
    name="table1",
    title="Table 1 — SLA performance and cost",
    description="SLA violations and average fleet size per setup.",
    cell=f"{_SCN}:_elastic_cell",
    axes=(("setup", ("8", "16", "22", "32", "elastic")), ("rep", (0,))),
    output="table1",
))

register(ScenarioSpec(
    name="fig8",
    title="Fig 8 — throughput while migrating Room contexts",
    description="Throughput time series while migrating 1/8/12 of 20 Rooms.",
    cell=f"{_SCN}:_fig8_cell",
    axes=(("n_migrations", (1, 8, 12)),),
    output="fig8",
))

register(ScenarioSpec(
    name="fig9",
    title="Fig 9 — eManager max migration throughput (contexts/s)",
    description="eManager migration throughput per instance type and payload.",
    cell=f"{_SCN}:_fig9_cell",
    axes=(
        ("itype_name", ("m1.large", "m1.medium", "m1.small")),
        ("size_bytes", (1024, 1_000_000)),
    ),
    output="fig9",
))

register(ScenarioSpec(
    name="fig10",
    title="Fig 10 — goodput through a crash/recovery timeline (events/s)",
    description="Availability through one mid-run server crash and recovery.",
    app="game",
    systems=("aeon", "eventwave", "orleans"),
    servers=6,
    game=GameSpec(players_per_room=4, shared_items_per_room=2),
    workload=WorkloadSpec(think_ms=8.0, max_retries=2),
    faults=FaultSpec(kind="crash"),
    output="fig10",
))

register(ScenarioSpec(
    name="fig11",
    title="Fig 11 — availability SLO under crash/restart churn",
    description="Windowed availability SLO under sustained crash/restart churn.",
    app="game",
    systems=("aeon", "eventwave", "orleans"),
    servers=6,
    game=GameSpec(
        players_per_room=4, shared_items_per_room=2, room_weights="geometric"
    ),
    workload=WorkloadSpec(think_ms=8.0, max_retries=2),
    faults=FaultSpec(kind="churn"),
    points=(
        (("system", "aeon"), ("checkpoint_mode", "delta")),
        (("system", "eventwave"), ("checkpoint_mode", "delta")),
        (("system", "orleans"), ("checkpoint_mode", "delta")),
        (("system", "aeon"), ("checkpoint_mode", "full")),
    ),
    output="fig11",
))

register(ScenarioSpec(
    name="ablation",
    title="Ablation — chain release (TPC-C, AEON_SO, 4 servers)",
    description="TPC-C throughput with and without chain (early) release.",
    cell=f"{_SCN}:_ablation_cell",
    axes=(("early_release", (True, False)),),
    output="ablation",
))


# ----------------------------------------------------------------------
# Registered scenarios — beyond the paper (the old API made these painful)
# ----------------------------------------------------------------------
register(ScenarioSpec(
    name="mixed_cotenancy",
    title="Mixed co-tenancy — game + TPC-C on one fleet",
    description="Game and TPC-C deployed on the same servers under "
    "concurrent load; per-app and combined throughput/latency. "
    "(EventWave is excluded: one root context per runtime.)",
    app="mixed",
    systems=("aeon", "aeon_so", "orleans"),
    servers=6,
    workload=WorkloadSpec(think_ms=2.0, clients_per_server=30),
    tpcc_workload=WorkloadSpec(
        think_ms=5.0, clients_per_server=8, name_prefix="tpcc-client"
    ),
    output="mixed",
))

register(ScenarioSpec(
    name="churn_sweep",
    title="Churn sweep — availability vs MTBF (delta checkpoints)",
    description="fig11's churn run swept over mean-time-between-crashes: "
    "how availability degrades as churn intensifies.",
    app="game",
    systems=("aeon",),
    servers=6,
    game=GameSpec(
        players_per_room=4, shared_items_per_room=2, room_weights="geometric"
    ),
    workload=WorkloadSpec(think_ms=8.0, max_retries=2),
    faults=FaultSpec(kind="churn", checkpoint_mode="delta"),
    axes=(("mtbf_ms", (1500.0, 3000.0, 6000.0)),),
    output="churn_sweep",
))

register(ScenarioSpec(
    name="split_brain",
    title="Split brain — fencing epochs vs lost updates (asymmetric partition)",
    description="An asymmetric partition cuts the detector and eManager "
    "off from one server while clients still reach it; recovery "
    "re-places its subtrees while the old owner keeps serving.  With "
    "fencing the old owner is fenced at declaration and its step-down "
    "flush preserves every acked write (zero lost updates); with "
    "fencing off the restore rolls back to the last periodic "
    "checkpoint and the rolled-back writes are counted.",
    app="game",
    systems=("aeon",),
    servers=4,
    game=GameSpec(players_per_room=4, shared_items_per_room=2),
    workload=WorkloadSpec(think_ms=8.0, max_retries=3),
    faults=FaultSpec(
        kind="split_brain",
        honest_recovery=True,
        crash_drops_state=True,
    ),
    axes=(("fencing", (True, False)),),
    output="split_brain",
))

register(ScenarioSpec(
    name="partition_recovery",
    title="Partition recovery — the cut heals mid-recovery (fencing on)",
    description="The detector-side partition heals inside the fencing "
    "step-down grace window, while recovery is mid-flight: the "
    "returning owner is re-admitted at the current epoch, the flush "
    "still covers every acked write, and nothing is lost or doubly "
    "applied.",
    app="game",
    systems=("aeon",),
    servers=4,
    game=GameSpec(players_per_room=4, shared_items_per_room=2),
    workload=WorkloadSpec(think_ms=8.0, max_retries=3),
    faults=FaultSpec(
        kind="partition_recovery",
        fencing=True,
        honest_recovery=True,
        crash_drops_state=True,
    ),
    output="partition_recovery",
))

register(ScenarioSpec(
    name="massive_game",
    title="Massive game — a million players on the columnar core",
    description="A huge single-parent player population registered "
    "through the columnar bulk path: leaves materialize lazily on "
    "first touch, percentiles come from the reservoir-sampling "
    "recorder, and a state digest pins determinism.  ~100k contexts "
    "at --scale quick (the CI smoke tier), 1M+ at --scale massive.",
    cell=f"{_SCN}:_massive_game_cell",
    axes=(("rep", (0,)),),
    output="massive",
))

register(ScenarioSpec(
    name="massive_tpcc",
    title="Massive TPC-C — a million terminals on the columnar core",
    description="The TPC-C-shaped massive tier: order-submitting "
    "terminal leaves under district shards, bulk-registered and "
    "lazily materialized.  ~100k contexts at --scale quick (the CI "
    "smoke tier), 1M+ at --scale massive.",
    cell=f"{_SCN}:_massive_tpcc_cell",
    axes=(("rep", (0,)),),
    output="massive",
))

register(ScenarioSpec(
    name="diurnal",
    title="Diurnal elasticity — two-peak day/night load (elastic fleet)",
    description="An elastic AEON fleet following a two-cycle diurnal "
    "client wave; latency vs fleet-size trajectories and SLA score.",
    app="game",
    systems=("aeon",),
    servers=8,
    instance="m1.small",
    game=GameSpec(rooms=32, players_per_room=4, shared_items_per_room=2),
    workload=WorkloadSpec(
        kind="ramp",
        profile="diurnal",
        think_ms=12.0,
        machines=8,
        min_per_machine=1,
        max_per_machine=16,
        cycles=2,
    ),
    elastic=ElasticSpec(),
    output="elastic",
))
