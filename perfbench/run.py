"""Checked-run benchmark: simulate a generated scenario, then check its trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload social-cached --seed 1 --seconds 20 --trace 0

Each invocation runs one workload in this process, one checked run at a
time, with no threads. The workload seed stands for ``SCENARIOS_PER_SEED``
scenario seeds, and each makes one scenario; the library receives only the
generated scenarios. Checked runs go in rounds, one run of each scenario per
round, and only whole rounds are measured: at least one, and no more than
fit in ``--seconds``. A time is the mean over one round's runs, and the
metric is its median over the rounds (``tracer.round_median``). The
checked-run times are in reference-speed seconds: wall time rescaled by how
fast the host ran a fixed probe while the work ran (``speedclock``), so that
a shared host's slow spells do not pass for the program's. Counts and
protocol outcomes repeat exactly for a scenario; they come from the first
round alone, pooled over its scenarios, so they do not depend on
``--seconds`` or on host speed.

With ``--trace 0`` the rounds are untraced and give the end-to-end metrics,
and a set-up probe follows each checked run; one traced run of the first
scenario afterwards gives the wire byte count and must reproduce its
untraced trace digest. With ``--trace 1`` each round makes an untraced and
a traced run of each scenario, and gives the per-layer metrics. Every
invocation also runs the three negative controls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
with the environment, the per-run digests and the control verdicts, is
written to ``perfbench/out/``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# measure this checkout's library and no other copy
if not (SRC / "causalsim" / "__init__.py").is_file():
    sys.exit(f"error: no causalsim sources under {SRC}")
for _path in (str(ROOT), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from causalsim import checker, scenarios  # noqa: E402
from perfbench.speedclock import SpeedClock  # noqa: E402
from perfbench.tracer import MESSAGE_KINDS, Tracer, pool, round_median, run_layers  # noqa: E402

# several short checked runs of small scenarios, so that a run holds
# several rounds; protocol outcomes are pooled over the scenarios
SCENARIOS_PER_SEED = 4
CONTROL_SEED = 1

CHURN_FAULTS = str(HERE / "scenarios" / "churn-faults.json")

# base scenario plus overrides; sizes are scout and transaction counts
WORKLOADS = {
    "social-cached": {"base": "social-90-10", "sim": {"num_scouts": 24}, "workload": {}},
    "fetch-bound": {"base": "staleness-stress", "sim": {"num_scouts": 24}, "workload": {}},
    "churn-faults": {"base": CHURN_FAULTS, "sim": {"num_scouts": 12}, "workload": {"txs_per_scout": 50}},
}

# (name, base scenario, sim overrides, workload overrides, check that must flag it)
CONTROLS = (
    ("dedup-off", CHURN_FAULTS, {"mutations": ["disable_dedup"]}, {"txs_per_scout": 10}, "exactly_once"),
    ("k-gating-off", "staleness-stress", {"mutations": ["disable_k_gating"]}, {}, "causal_snapshots"),
    (
        "session-reorder",
        "failover-demo",
        {"mutations": ["reorder_session", "disable_guards"], "notify_mode": "invalidations"},
        {},
        "session_guarantees",
    ),
)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "checked_run_s": ("s", "lower"),
    "sim_tx_per_s": ("tx/s", "higher"),
    "check_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "attempts_per_tx": ("attempts/tx", "lower"),
    "zero_rt_fraction": ("fraction", "higher"),
    "stale_read_fraction": ("fraction", "lower"),
    "sim_tx_p95_ms": ("sim_ms", "lower"),
    "wire_bytes_per_tx": ("B/tx", "lower"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_per_tx"):
        return "1/tx"
    return "count"


def make_scenario(base: str, sim_over: dict, wl_over: dict, seed: int, name: str) -> dict:
    doc = scenarios.load_scenario(base)
    doc["name"] = name
    doc["sim"].update(sim_over)
    doc["sim"]["seed"] = seed
    doc["workload"].update(wl_over)
    return doc


class CheckedRun:
    """One simulated run plus its offline check, with what the benchmark reads."""

    def __init__(self, sim, result, report, sim_s: float, check_s: float,
                 sim_ref_s: float | None = None, check_ref_s: float | None = None):
        trace = result.trace
        self.seed = result.config.seed
        self.sim_s = sim_s
        self.check_s = check_s
        self.sim_ref_s = sim_ref_s
        self.check_ref_s = check_ref_s
        self.digest = hashlib.sha256(result.trace_bytes()).hexdigest()
        self.scripted = sum(
            sum(1 for spec in d.script if spec["kind"] == "tx") for d in sim.drivers.values()
        )
        self.begun = sum(1 for e in trace if e["ev"] == "tx_begin")
        self.committed = sum(1 for e in trace if e["ev"] == "local_commit")
        self.synced = result.synced
        self.ok = report["ok"]
        self.convergence_skipped = report["verdicts"]["convergence"]["skipped"]
        self.failing = sorted(k for k, v in report["verdicts"].items() if not v["ok"])
        latency, staleness = report["latency"], report["staleness"]
        self.measured = latency["transactions"]
        self.zero_rt = round(latency["zero_rt_fraction"] * latency["transactions"])
        self.p95_ms = latency["p95_duration_ms"]
        self.reads = staleness["reads"]
        self.stale_reads = staleness["stale_reads"]

    @property
    def passed(self) -> bool:
        return self.ok and self.synced and self.convergence_skipped is None

    @property
    def failed(self) -> int:
        """Scripted transactions that did not commit, or all if the run failed.

        An attempt that aborts and is retried until it commits is not a
        failure here; aborted attempts show in ``attempts_per_tx``.
        """
        return self.scripted if not self.passed else self.scripted - self.committed

    def record(self) -> dict:
        return {
            "seed": self.seed,
            "digest": self.digest,
            "attempts": self.begun,
            "committed": self.committed,
            "sim_s": self.sim_s,
            "check_s": self.check_s,
            "sim_ref_s": self.sim_ref_s,
            "check_ref_s": self.check_ref_s,
            "passed": self.passed,
            "synced": self.synced,
            "failing_checks": self.failing,
            "convergence_skipped": self.convergence_skipped,
        }


def untraced_run(scenario: dict) -> CheckedRun:
    """A checked run timed in wall and in reference-speed seconds."""
    gc.collect()
    sim = scenarios.build_simulation(scenario)
    with SpeedClock() as sim_clock:
        result = sim.run()
    with SpeedClock() as check_clock:
        report = checker.run_checks(result.trace)
    return CheckedRun(sim, result, report, sim_clock.wall_s, check_clock.wall_s,
                      sim_clock.ref_s, check_clock.ref_s)


def traced_run(scenario: dict) -> tuple[CheckedRun, Tracer, dict]:
    """A checked run under the tracer, with its ``run_layers`` record."""
    gc.collect()
    tr = Tracer()
    with tr.installed():
        sim = scenarios.build_simulation(scenario)
        t0 = time.perf_counter()
        result = tr.timed("sim.run", sim.run)()
        t1 = time.perf_counter()
        report = tr.timed("checker.run_checks", checker.run_checks)(result.trace)
        t2 = time.perf_counter()
    run = CheckedRun(sim, result, report, t1 - t0, t2 - t1)
    layers = run_layers(tr, result.trace, result.stats)
    return run, tr, layers


def run_controls() -> list[dict]:
    out = []
    for name, base, sim_over, wl_over, must_flag in CONTROLS:
        scenario = make_scenario(base, sim_over, wl_over, CONTROL_SEED, f"control-{name}")
        report = checker.run_checks(scenarios.run_scenario(scenario).trace)
        flagged = sorted(
            k for k, v in report["verdicts"].items() if not v["ok"] and not v["skipped"]
        )
        out.append({"name": name, "must_flag": must_flag, "flagged": flagged,
                    "caught": must_flag in flagged})
    return out


def setup_probe(scenario_path: Path) -> float:
    """Seconds to import, load and build, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(scenario_path)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def scenario_seeds(seed: int) -> list[int]:
    """The scenario seeds that one workload seed stands for."""
    return [seed * SCENARIOS_PER_SEED + i for i in range(SCENARIOS_PER_SEED)]


def rounds(fn, items: list, seconds: float) -> list[list]:
    """Call ``fn`` on every item in turn, one round at a time: at least one
    round, and another only while it is expected to end within ``seconds``."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append([fn(item) for item in items])
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return out


def protocol_metrics(runs: list[CheckedRun]) -> dict:
    """Protocol outcomes pooled over one run of each scenario."""
    return {
        "attempts_per_tx": sum(r.begun for r in runs) / sum(r.committed for r in runs),
        "zero_rt_fraction": sum(r.zero_rt for r in runs) / sum(r.measured for r in runs),
        "stale_read_fraction": sum(r.stale_reads for r in runs) / sum(r.reads for r in runs),
        "sim_tx_p95_ms": median(r.p95_ms for r in runs),
    }


def measure_untraced(scenario_list: list[dict], paths: list[Path], seconds: float):
    """End-to-end metrics; returns (metrics, runs, set-up samples, tracer).

    The checked-run times are in reference-speed seconds (``speedclock``);
    ``setup_s`` is in wall seconds. A set-up probe of the same scenario file follows each checked run, so
    that the samples of ``setup_s`` spread over the whole measurement.
    """
    setup = []
    path_of = {scenario["sim"]["seed"]: path for scenario, path in zip(scenario_list, paths)}

    def one(scenario):
        run = untraced_run(scenario)
        setup.append(setup_probe(path_of[run.seed]))
        return run

    reps = rounds(one, scenario_list, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced, tr, layers = traced_run(scenario_list[0])
    wire_bytes = sum(layers[f"messages.{k}.bytes"] for k in MESSAGE_KINDS)
    committed = sum(r.committed for r in reps[0])
    metrics = {
        "setup_s": median(setup),
        "checked_run_s": round_median(reps, lambda r: r.sim_ref_s + r.check_ref_s),
        "sim_tx_per_s": committed / (len(reps[0]) * round_median(reps, lambda r: r.sim_ref_s)),
        "check_s": round_median(reps, lambda r: r.check_ref_s),
        "peak_rss_mb": peak_rss_mb,
        **protocol_metrics(reps[0]),
        "wire_bytes_per_tx": wire_bytes / traced.committed,
    }
    return metrics, [r for rnd in reps for r in rnd] + [traced], setup, tr


def measure_traced(scenario_list: list[dict], seconds: float):
    """Per-layer metrics; returns (metrics, runs, tracer of the last run).

    Each round makes an untraced and then a traced run of each scenario;
    ``trace.overhead_s`` is the difference of their ``round_median`` wall
    times. The per-layer times are wall times.
    """
    last_tr = None

    def one(scenario):
        nonlocal last_tr
        plain = untraced_run(scenario)
        run, last_tr, layers = traced_run(scenario)
        return plain, run, layers

    reps = rounds(one, scenario_list, seconds)
    metrics = pool([[layers for _, _, layers in rnd] for rnd in reps])
    traced_s = round_median(reps, lambda r: r[1].sim_s + r[1].check_s)
    metrics["trace.overhead_s"] = traced_s - round_median(reps, lambda r: r[0].sim_s + r[0].check_s)
    return metrics, [r for rnd in reps for x in rnd for r in x[:2]], last_tr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.perf_counter()
    load_before = os.getloadavg()[0]
    spec = WORKLOADS[args.workload]
    scenario_list = [
        make_scenario(spec["base"], spec["sim"], spec["workload"], s, args.workload)
        for s in scenario_seeds(args.seed)
    ]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    scenario_paths = [OUT / f"{args.workload}-scenario{s}.json" for s in scenario_seeds(args.seed)]
    for scenario, path in zip(scenario_list, scenario_paths):
        path.write_text(json.dumps(scenario, indent=2) + "\n")

    controls = run_controls()
    if args.trace == 0:
        metrics, all_runs, setup, tr = measure_untraced(scenario_list, scenario_paths, args.seconds)
    else:
        setup = []
        metrics, all_runs, tr = measure_traced(scenario_list, args.seconds)

    digests: dict[int, set[str]] = {}
    for r in all_runs:
        digests.setdefault(r.seed, set()).add(r.digest)
    failures = [
        f"scenario seed {s}: trace digests differ across runs: {sorted(d)}"
        for s, d in digests.items() if len(d) != 1
    ]
    failures += [f"checked run failed: {r.record()}" for r in all_runs if not r.passed]
    failures += [f"negative control {c['name']} not flagged by {c['must_flag']}"
                 for c in controls if not c["caught"]]
    attempted = sum(r.scripted for r in all_runs)
    failed = sum(r.failed for r in all_runs)
    correct = not failures and failed == 0

    tr.write_spans(OUT / f"{stem}.trace{args.trace}.spans.jsonl")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": {"sim": spec["sim"], "workload": spec["workload"], "base": Path(spec["base"]).name},
        "scenario_seeds": scenario_seeds(args.seed),
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "wall_s": time.perf_counter() - started,
        "digests": {str(s): sorted(d) for s, d in sorted(digests.items())},
        "runs": [r.record() for r in all_runs],
        "setup_s_samples": setup,
        "controls": controls,
        "failures": failures,
        "correct": correct,
        "metrics": metrics,
    }
    (OUT / f"{stem}.trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)

    def unit(name):
        return END_TO_END[name][0] if name in END_TO_END else layer_unit(name)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
