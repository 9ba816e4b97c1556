"""Experiment harness: declarative scenarios driving every figure."""

# The CLI (.experiments) is not imported here: ``python -m
# repro.harness.experiments`` would otherwise execute that module twice.
from .runner import CellPool, RunResult, SYSTEMS, Testbed, make_testbed, run_game
from .scenarios import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    run_scenario,
    scenario,
)

__all__ = [
    "CellPool",
    "RunResult",
    "SYSTEMS",
    "Testbed",
    "make_testbed",
    "run_game",
    "ScenarioSpec",
    "get_scenario",
    "list_scenarios",
    "run_scenario",
    "scenario",
]
