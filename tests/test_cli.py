import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalsim
from causalsim.cli import main
from causalsim.scenarios import PRESETS, load_scenario, sim_config
from causalsim.sim import Simulation


@pytest.fixture()
def small_scenario(tmp_path):
    doc = load_scenario("failover-demo")
    doc["sim"]["num_scouts"] = 2
    doc["workload"]["session_length"] = 8
    doc["workload"]["sessions"] = 1
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return path


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
        def no_run(simulation):
            raise AssertionError("a config that hangs or crashes the run was run")

        monkeypatch.setattr(Simulation, "run", no_run)
        doc = json.loads(small_scenario.read_text())
        doc["sim"][key] = value
        small_scenario.write_text(json.dumps(doc))
        assert main(["run", str(small_scenario)]) == 2
        assert key in capsys.readouterr().err

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
