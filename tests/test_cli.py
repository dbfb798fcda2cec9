import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import causalsim
from causalsim.checker import TraceAnalysis
from causalsim.cli import main
from causalsim.scenarios import PRESETS, load_scenario, run_scenario, sim_config
from causalsim.sim import Simulation
from test_pins import CHURN


@pytest.fixture()
def small_scenario(tmp_path):
    doc = load_scenario("failover-demo")
    doc["sim"]["num_scouts"] = 2
    doc["workload"]["session_length"] = 8
    doc["workload"]["sessions"] = 1
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return path


def no_run(simulation):
    raise AssertionError("a config that hangs or crashes the run was run")


class TestRun:
    def test_run_writes_report_trace_and_cdf(self, tmp_path, small_scenario, capsys):
        out = tmp_path / "report.json"
        code = main(["run", str(small_scenario), "--seed", "4", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "causalsim-report-1"
        assert report["seed"] == 4
        assert all(v["ok"] or v["skipped"] for v in report["verdicts"].values())
        trace_path = tmp_path / "report.json.trace.jsonl"
        assert trace_path.exists()
        assert (tmp_path / "report.json.cdf.csv").read_text().startswith("duration_ms,fraction")
        shown = capsys.readouterr().out
        assert "PASS" in shown

    def test_preset_by_name(self, capsys):
        code = main(["run", "failover-demo", "--seed", "1"])
        assert code == 0

    def test_invalid_k_fails_validation(self, small_scenario, capsys):
        code = main(["run", str(small_scenario), "--k", "9"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["run", "no-such-preset"]) == 2

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--sweep", "2"]])
    def test_a_missing_scenario_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command)
        assert exc.value.code == 2
        assert "required: scenario" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, entry, key",
        [
            ("sim", {"gossip_period": 20}, "gossip_period"),
            ("sim", {"faults": []}, "faults"),
            ("faults", [{"at": 10, "kind": "dc_crash", "dc": 0, "until": 50}], "until"),
            ("faults", [{"kind": "dc_crash", "dc": 0}], "at"),
        ],
    )
    def test_a_malformed_sim_section_or_fault_is_an_error(self, small_scenario, capsys,
                                                          section, entry, key):
        doc = json.loads(small_scenario.read_text())
        if section == "sim":
            doc["sim"].update(entry)
        else:
            doc["faults"] = entry
        small_scenario.write_text(json.dumps(doc))
        assert main(["run", str(small_scenario)]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("notify_ms", 0), ("gossip_ms", -5), ("jitter_ms", -3)])
    def test_a_tick_period_that_hangs_or_crashes_a_run_is_an_error(
        self, small_scenario, capsys, monkeypatch, key, value
    ):
        monkeypatch.setattr(Simulation, "run", no_run)
        doc = json.loads(small_scenario.read_text())
        doc["sim"][key] = value
        small_scenario.write_text(json.dumps(doc))
        assert main(["run", str(small_scenario)]) == 2
        assert key in capsys.readouterr().err

    # each of these once ran as something else: a drain or horizon below 1
    # as a convergence failure, a negative think time, cache or scout RTT as
    # zero, a negative session count or length as a shorter workload, and a
    # scout RTT profile longer than the DC count as a shorter one; or died
    # with a message that names no key
    @pytest.mark.parametrize(
        "section, entry, key",
        [
            ("sim", {"drain_ms": -5000}, "drain_ms"),
            ("sim", {"horizon_ms": -1}, "horizon_ms"),
            ("sim", {"think_ms": -5}, "think_ms"),
            ("sim", {"cache_capacity": -1}, "cache_capacity"),
            ("workload", {"friends": -1}, "friends"),
            ("workload", {"sessions": -1}, "sessions"),
            ("workload", {"session_length": -3}, "session_length"),
            ("workload", {"kind": "counter_churn", "txs_per_scout": -1}, "txs_per_scout"),
            ("workload", {"kind": "counter_churn", "counters": 0}, "counters"),
            ("sim", {"drain_ms": 0}, "drain_ms"),
            ("sim", {"horizon_ms": 0}, "horizon_ms"),
            ("sim", {"rtt_dc_ms": [[0, -161, 86], [-161, 0, 92], [86, 92, 0]]}, "rtt_dc_ms"),
            ("sim", {"scout_rtt_ms": [[30, 170, -110]]}, "scout_rtt_ms"),
            ("sim", {"scout_rtt_ms": [[30, 170, 110, 50]]}, "scout_rtt_ms"),
        ],
    )
    def test_a_negative_setting_or_count_is_an_error(
        self, small_scenario, capsys, monkeypatch, section, entry, key
    ):
        monkeypatch.setattr(Simulation, "run", no_run)
        doc = json.loads(small_scenario.read_text())
        doc[section] = entry if "kind" in entry else {**doc[section], **entry}
        small_scenario.write_text(json.dumps(doc))
        assert main(["run", str(small_scenario)]) == 2
        assert key in capsys.readouterr().err

    # each of these once ended in a traceback, in mid-run or while the run
    # was being built, or ran as something else; none may reach the run
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sim", "k", "2"),
            ("sim", "gossip_ms", "20"),
            ("sim", "num_scouts", 2.5),
            ("workload", "users", "60"),
            ("workload", "pin", "no"),
        ],
    )
    def test_a_wrong_typed_value_is_an_error(
        self, small_scenario, capsys, monkeypatch, section, key, value
    ):
        monkeypatch.setattr(Simulation, "run", no_run)
        doc = json.loads(small_scenario.read_text())
        doc[section][key] = value
        small_scenario.write_text(json.dumps(doc))
        assert main(["run", str(small_scenario)]) == 2
        assert f"key {key!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault, named",
        [
            ({"at": 10, "kind": "dc_crash"}, "needs a dc"),
            ({"at": 10, "kind": "dc_crash", "dc": 7}, "not 7"),
            ({"at": 10, "kind": "partition"}, "needs links"),
            ({"at": 10, "kind": "scout_disconnect", "scout": "s99"}, "not 's99'"),
            ({"at": 10, "kind": "scout_reconnect", "scout": "s0", "to": 5}, "needs a 'to'"),
            ({"at": 10, "kind": "partition", "links": [["dc0", "dc9"]]}, "'dc9'"),
            ({"at": 10, "kind": "scout_disconnect", "scout": "s0", "to": 1}, "not read 'to'"),
            ({"at": 10, "kind": "dc_crash", "dc": 0, "scout": "s0"}, "not read 'scout'"),
            ({"at": 10, "kind": "partition", "links": [], "dc": 0}, "not read 'dc'"),
        ],
        ids=[
            "no-dc", "dc-7", "no-links", "scout-s99", "to-5", "dc9",
            "to-unread", "scout-unread", "dc-unread",
        ],
    )
    def test_a_fault_missing_a_field_its_kind_reads_is_an_error(
        self, small_scenario, capsys, monkeypatch, fault, named
    ):
        monkeypatch.setattr(Simulation, "run", no_run)
        doc = json.loads(small_scenario.read_text())
        doc["faults"].append(fault)
        small_scenario.write_text(json.dumps(doc))
        assert main(["run", str(small_scenario)]) == 2
        err = capsys.readouterr().err
        assert f"{fault['kind']} fault at 10" in err and named in err

    def test_an_unknown_workload_key_is_an_error(self, small_scenario, capsys):
        doc = json.loads(small_scenario.read_text())
        doc["workload"]["num_users"] = 1000  # the key is "users"
        small_scenario.write_text(json.dumps(doc))
        assert main(["run", str(small_scenario)]) == 2
        assert "'num_users'" in capsys.readouterr().err

    def test_faults_in_the_overrides_are_an_error(self):
        with pytest.raises(ValueError, match="'faults'"):
            sim_config(load_scenario("failover-demo"), overrides={"faults": []})

    def test_fault_schedule_flag(self, tmp_path, small_scenario):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps([{"at": 500, "kind": "dc_crash", "dc": 2},
                                      {"at": 900, "kind": "dc_recover", "dc": 2}]))
        out = tmp_path / "r.json"
        code = main(
            ["run", str(small_scenario), "--seed", "2", "--fault-schedule", str(faults),
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"]


class TestCheck:
    def test_recheck_saved_trace_matches(self, tmp_path, small_scenario, capsys):
        out = tmp_path / "report.json"
        main(["run", str(small_scenario), "--seed", "4", "--out", str(out)])
        first = json.loads(out.read_text())
        out2 = tmp_path / "again.json"
        code = main(["check", str(tmp_path / "report.json.trace.jsonl"), "--out", str(out2)])
        assert code == 0
        again = json.loads(out2.read_text())
        assert again["verdicts"] == first["verdicts"]
        assert again["staleness"] == first["staleness"]


# event kind (a fault's by its `kind`) -> the keys `TraceAnalysis._parse`
# reads from it with `ev[...]`, but not those it looks up with `ev.get`
# first; the churn pin has an event of each kind
PARSED_KEYS = {
    "read": ("ev", "otid", "ver", "node", "obj", "value", "t", "src"),
    "tx_begin": ("otid", "node", "snap", "t"),
    "local_commit": ("otid", "read_only", "rts", "dur"),
    "apply": ("otid", "node", "t", "deps", "objs", "gtids"),
    "update": ("otid", "effect"),
    "tx_abort": ("otid",),
    "partition": ("kind", "links"),
    "heal": ("links",),
    "scout_disconnect": ("scout",),
    "scout_reconnect": ("scout",),
}


def test_the_parsed_keys_are_every_key_the_parser_reads():
    source = inspect.getsource(TraceAnalysis._parse)
    read = set(re.findall(r'ev\["(\w+)"\]', source))
    guarded = set(re.findall(r'ev\.get\("(\w+)"\)', source))
    assert read - guarded == {key for keys in PARSED_KEYS.values() for key in keys}


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, keys in PARSED_KEYS.items() for key in keys]
)
def test_a_trace_event_without_a_key_it_needs_is_an_error(tmp_path, capsys, kind, key):
    """Once, such a trace ended in a traceback and exit code 1, which is
    the code for a violation."""
    trace = run_scenario(CHURN, seed=1).trace
    index, ev = next(
        (i, e) for i, e in enumerate(trace) if kind == (e["kind"] if e["ev"] == "fault" else e["ev"])
    )
    del ev[key]
    path = tmp_path / "malformed.jsonl"
    path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in trace))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed trace:") and "Traceback" not in err
    assert f"event {index} " in err and repr(key) in err


def test_a_trace_event_naming_an_unknown_transaction_is_an_error(tmp_path, capsys):
    trace = run_scenario(CHURN, seed=1).trace
    index = next(i for i, e in enumerate(trace) if e["ev"] == "tx_begin")
    otid = trace.pop(index)["otid"]
    path = tmp_path / "malformed.jsonl"
    path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in trace))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed trace:") and "Traceback" not in err
    assert f"names unknown {tuple(otid)!r}" in err


class TestSweep:
    def test_sweep_aggregates(self, tmp_path, small_scenario, capsys):
        out = tmp_path / "sweep.json"
        code = main(["sweep", str(small_scenario), "--sweep", "3", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        agg = json.loads(out.read_text())
        assert agg["seeds"] == [7, 9]
        assert agg["failures"] == 0
        assert 0 <= agg["stale_read_fraction"]["max"] <= 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sweep_of_fewer_than_one_seed_is_a_usage_error(self, small_scenario, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(small_scenario), "--sweep", count])
        assert exc.value.code == 2
        assert "--sweep: must be at least 1" in capsys.readouterr().err


class TestPresets:
    def test_all_presets_load_and_validate(self):
        for name in PRESETS:
            doc = load_scenario(name)
            sim_config(doc).validate()


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(causalsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, causalsim.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
