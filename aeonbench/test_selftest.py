"""Self-tests of the benchmark itself (not of the simulator).

Run from the repository root: ``python3 -m pytest aeonbench -q``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import probes
import run
from repro.core.runtime import RuntimeBase
from repro.harness import runner, scenarios
from repro.sim.kernel import Simulator


def small_game(seed: int = 0):
    """A one-second game run: big enough to sample, small enough to repeat."""
    result, testbed, _app = runner.run_game(
        "aeon", 4, n_clients=64, duration_ms=1500.0, warmup_ms=500.0, think_ms=2.0, seed=seed
    )
    return result, testbed


def test_layer_shares_sum_to_one_and_other_stays_small():
    with probes.Sampler() as sampler:
        small_game()
    shares = sampler.shares()
    assert set(shares) == set(probes.LAYERS)
    assert sum(sampler.samples.values()) > 100
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert shares["other"] <= 0.05
    # Every module the profiler saw maps to a named layer.
    for filename in sampler.modules:
        assert probes.layer_of_file(filename) not in (None, "other"), filename


def test_every_source_module_maps_to_a_named_layer():
    package = Path(probes.repro.__file__).resolve().parent
    for path in package.rglob("*.py"):
        if path == package / "__init__.py":
            continue  # the top-level docstring module has no code to sample
        assert probes.layer_of_file(str(path)) in probes.LAYERS[:-1], path


def test_probes_count_exactly_and_leave_the_simulation_alone():
    plain_result, _testbed = small_game()
    counts = []
    for _ in range(2):
        with probes.SimProbes() as sim:
            result, testbed = small_game()
            sim.harvest([testbed])
        assert result == plain_result
        counts.append(dict(sim.counts))
    assert counts[0] == counts[1]
    assert counts[0]["call_soon"] > 0 and counts[0]["lock_requests"] > 0
    assert counts[0]["events_committed"] >= plain_result.completed > 0
    # The wrappers are gone again.
    assert Simulator.call_soon.__qualname__ == "Simulator.call_soon"
    assert RuntimeBase.submit.__qualname__ == "RuntimeBase.submit"
    assert scenarios.make_testbed is runner.make_testbed


def test_gate_accepts_the_golden_and_catches_a_perturbed_output():
    references, golden = run.load_references(), run.load_golden()
    workload = run.make_workload("game_static32", Path("unused"))
    entry = golden["fig7"]["32"]
    assert run.check_outputs(workload, 0, {"fig7[32]": entry}, references, golden) == []
    perturbed = copy.deepcopy(entry)
    perturbed["sla"]["violations"] += 1
    problems = run.check_outputs(workload, 0, {"fig7[32]": perturbed}, references, golden)
    assert any("golden" in p for p in problems)
    assert any("digest" in p for p in problems)
    # Other seeds have no golden file: the pinned digest alone catches it.
    for seed in (1, run.SIM_SEEDS - 1):
        problems = run.check_outputs(workload, seed, {"fig7[32]": entry}, references, golden)
        assert problems and all("digest" in p for p in problems)


def test_gate_catches_perturbed_simulated_metrics_and_checksum():
    references = run.load_references()
    workload = run.make_workload("massive_game", Path("unused"))
    pinned = references["massive_game"]["0"]
    assert run.check_sim(workload, 0, dict(pinned["sim"]), references) == []
    nudged = dict(pinned["sim"], sim_p99_ms=pinned["sim"]["sim_p99_ms"] * (1 + 1e-12))
    assert run.check_sim(workload, 0, nudged, references)
    output = {"checksum": "0" * 64}
    problems = run.check_outputs(workload, 0, {"massive": output}, references, {})
    assert any("run_checksum" in p for p in problems)


def test_references_cover_every_workload_and_seed():
    references = run.load_references()
    assert sorted(references) == sorted(run.WORKLOADS)
    for name in run.WORKLOADS:
        assert sorted(references[name], key=int) == [str(s) for s in range(run.SIM_SEEDS)]
        for record in references[name].values():
            assert set(record["sim"]) == set(run.SIM_UNITS) - {"run_failed_frac"}


def test_result_line_names_every_declared_metric():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
