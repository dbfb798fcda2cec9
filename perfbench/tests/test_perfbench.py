"""Tests of the benchmark itself: tracer hygiene, metric names, scenario."""

import json
import re
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run, speedclock, tracer  # noqa: E402

from causalsim import checker, clocks, dc, scenarios, scout, sim, workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_scenario(seed=3):
    return run.make_scenario(
        run.CHURN_FAULTS, {"num_scouts": 6}, {"txs_per_scout": 8}, seed, "churn-faults-small"
    )


def entry_points():
    """Every attribute the tracer patches, as currently bound."""
    owners = (sim, sim.Simulation, dc, dc.DataCenter, scout, scout.Scout, clocks.VersionVector,
              checker, checker.TraceAnalysis, workload, scenarios)
    return {(o.__name__, a): o.__dict__[a] for o in owners for a in list(o.__dict__)
            if callable(o.__dict__[a]) or a == "heapq"}


def test_traced_runs_repeat_and_restore_what_they_patch():
    before = entry_points()
    checks = list(checker.ALL_CHECKS)
    reference = run.untraced_run(small_scenario())
    outs = [run.traced_run(small_scenario()) for _ in range(2)]
    assert entry_points() == before
    assert checker.ALL_CHECKS == checks

    (first, tr1, layers1), (second, tr2, layers2) = outs
    assert reference.passed and first.passed and second.passed
    assert first.digest == second.digest == reference.digest
    assert tr1.counts == tr2.counts and tr1.counts["sim.events"] > 0
    assert tr1.msg_bytes == tr2.msg_bytes
    calls1 = {tr1.names[n]: c for n, c in tr1.calls.items()}
    calls2 = {tr2.names[n]: c for n, c in tr2.calls.items()}
    assert calls1 == calls2
    counts1 = {k: v for k, v in layers1.items() if not k.endswith("_s")}
    counts2 = {k: v for k, v in layers2.items() if not k.endswith("_s")}
    assert counts1 == counts2


def test_counts_do_not_depend_on_seconds(tmp_path):
    scenario_list = [small_scenario(3), small_scenario(4)]
    paths = [tmp_path / f"s{i}.json" for i in range(len(scenario_list))]
    for scenario, path in zip(scenario_list, paths):
        path.write_text(json.dumps(scenario))

    def counts(metrics):
        times = ("_s", "peak_rss_mb", "sim_tx_per_s")
        return {k: v for k, v in metrics.items() if not k.endswith(times)}

    one, runs_one, _ = run.measure_traced(scenario_list, 0)
    many, runs_many, _ = run.measure_traced(scenario_list, 4.0)
    assert len(runs_one) == 2 * len(scenario_list)
    assert len(runs_many) > len(runs_one) and len(runs_many) % len(runs_one) == 0
    assert counts(one) == counts(many)

    one, runs_one, setup, _ = run.measure_untraced(scenario_list, paths, 0)
    assert len(runs_one) == len(scenario_list) + 1 and len(setup) == len(scenario_list)
    many, runs_many, _, _ = run.measure_untraced(scenario_list, paths, 4.0)
    assert len(runs_many) > len(runs_one) and (len(runs_many) - 1) % len(scenario_list) == 0
    assert counts(one) == counts(many)
    assert all(v > 0 for k, v in many.items() if k != "stale_read_fraction")


def test_speed_clock_probes_the_block_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speedclock.SpeedClock() as clock:
        total = 0
        while clock.probes == []:
            total += 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.probes) >= 2 and total > 0
    assert clock.wall_s > 0 and clock.ref_s > 0


def test_self_times_add_up_to_the_root_spans():
    _, tr, _ = run.traced_run(small_scenario())
    roots = sum(end - start for _, start, end, parent, _ in tr.spans if parent == -1)
    assert sum(tr.self_ns.values()) == roots
    assert all(s[3] < i for i, s in enumerate(tr.spans))
    assert tr.event > 0 and tr.spans[-1][4] == tr.event


def test_metric_names_and_units_match_the_benchmark_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert list(layers) == list(tracer.LAYER_METRICS)
    assert layers == {n: run.layer_unit(n) for n in tracer.LAYER_METRICS}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for name in list(e2e) + list(layers) + list(run.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name

    metrics, _, _ = run.measure_traced([small_scenario()], 0)
    assert list(metrics) == list(tracer.LAYER_METRICS)


def test_churn_faults_scenario_loads_and_validates():
    doc = scenarios.load_scenario(run.CHURN_FAULTS)
    scenarios.sim_config(doc).validate()
    assert doc["workload"]["kind"] == "counter_churn"
    kinds = {f["kind"] for f in doc["faults"]}
    assert {"dc_crash_on_commit", "scout_disconnect", "partition", "heal", "dc_crash"} <= kinds
    sim_obj = scenarios.build_simulation(doc)
    assert len(sim_obj.drivers) == doc["sim"]["num_scouts"]
