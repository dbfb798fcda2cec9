"""Scenario files: named presets plus loading and assembly into runs.

A scenario is a JSON document with a schema tag, simulator parameters, a
fault schedule and a workload description. Presets shipped with the
package mirror the evaluation setups: a 90/10-locality social run, its
50/50 variant, a zero-cache staleness stressor committing to the far DC,
and a failover tour that diverts a scout across continents and back.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from causalsim import workload
from causalsim.gcpause import gc_paused
from causalsim.sim import FaultEvent, SimConfig, Simulation

SCENARIO_SCHEMA = "causalsim-scenario-1"

PRESETS = ("social-90-10", "social-50-50", "staleness-stress", "failover-demo")


def load_scenario(name_or_path) -> dict:
    """Load a scenario by preset name or filesystem path."""
    path = Path(str(name_or_path))
    if path.suffix == ".json" and path.exists():
        doc = json.loads(path.read_text())
    else:
        name = str(name_or_path)
        if name not in PRESETS:
            raise FileNotFoundError(f"no preset or file named {name_or_path!r}")
        doc = json.loads(
            resources.files("causalsim").joinpath(f"scenarios/{name}.json").read_text()
        )
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise ValueError(f"unsupported scenario schema {doc.get('schema')!r}")
    return doc


def sim_config(scenario: dict, seed=None, overrides: dict | None = None) -> SimConfig:
    sim, faults = scenario.get("sim", {}), scenario.get("faults", [])
    if not isinstance(sim, dict) or not isinstance(faults, list):
        raise ValueError("a scenario's sim section must be an object and its faults a list")
    sim = {**sim, **(overrides or {})}
    if seed is not None:
        sim["seed"] = seed
    faults = [workload.load_section(FaultEvent, "fault", f) for f in faults]
    # faults are a scenario's own section, not a `sim` key
    return workload.load_section(SimConfig, "sim", sim, faults=faults)


@gc_paused()
def build_simulation(
    scenario: dict,
    seed=None,
    overrides: dict | None = None,
    workload_overrides: dict | None = None,
) -> Simulation:
    config = sim_config(scenario, seed=seed, overrides=overrides)
    wl = scenario.get("workload", {"kind": "none"})
    # a section that is not an object is left for `workload.build` to reject
    wl = {**wl, **(workload_overrides or {})} if isinstance(wl, dict) else wl
    scripts, initial, procs = workload.build(
        wl, config.num_scouts, config.seed, config.cache_capacity
    )
    sim = Simulation(config, scripts=scripts, initial_states=initial, procedures=procs)
    sim.meta = {
        "scenario": {
            "name": scenario.get("name", "inline"),
            "sim": dict(scenario.get("sim", {})),
            "workload": wl,
            "expected": scenario.get("expected", {}),
        },
    }
    return sim


def run_scenario(scenario: dict, seed=None, overrides=None, workload_overrides=None):
    sim = build_simulation(
        scenario, seed=seed, overrides=overrides, workload_overrides=workload_overrides
    )
    return sim.run()
