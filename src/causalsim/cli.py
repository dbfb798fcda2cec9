"""Command-line entry points: run scenarios, re-check traces, sweep seeds.

``run`` executes a scenario, writes the trace and a machine-readable
report, runs every checker and exits non-zero on any violation. ``check``
re-runs the checkers on a saved trace. ``sweep`` aggregates metrics and
verdicts across a seed range.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from causalsim.checker import run_checks
from causalsim.scenarios import load_scenario, run_scenario

REPORT_SCHEMA = "causalsim-report-1"


def _overrides(args) -> dict:
    out = {}
    if args.k is not None:
        out["k"] = args.k
    if args.cache_capacity is not None:
        out["cache_capacity"] = args.cache_capacity
    return out


def _scenario(args) -> dict:
    """The scenario `args` names, with `--fault-schedule`'s list in place of
    its faults when given."""
    scenario = load_scenario(args.scenario)
    if args.fault_schedule:
        faults = json.loads(Path(args.fault_schedule).read_text())
        if not isinstance(faults, list):
            raise ValueError("fault schedule must be a JSON list")
        scenario = dict(scenario, faults=faults)
    return scenario


def _write_trace(path: Path, trace: list[dict]) -> None:
    with path.open("w") as f:
        for ev in trace:
            f.write(json.dumps(ev, sort_keys=True, separators=(",", ":")) + "\n")


def _read_trace(path: Path) -> list[dict]:
    with path.open() as f:
        return [json.loads(line) for line in f if line.strip()]


def _print_verdicts(report: dict) -> None:
    for name, v in report["verdicts"].items():
        if v["skipped"]:
            print(f"  {name:20s} SKIP  ({v['skipped']})")
        else:
            status = "PASS" if v["ok"] else "FAIL"
            print(f"  {name:20s} {status}  violations={v['violation_count']}")
            for viol in v["violations"][:3]:
                print(f"      {viol}")


def _run_one(scenario: dict, seed, overrides: dict) -> tuple[dict, list[dict]]:
    result = run_scenario(scenario, seed=seed, overrides=overrides)
    report = run_checks(result.trace)
    report["schema"] = REPORT_SCHEMA
    report["scenario"] = scenario.get("name", "inline")
    report["seed"] = result.config.seed
    report["synced"] = result.synced
    report["sim_stats"] = result.stats
    report["final"] = result.trace[-1] if result.trace[-1].get("ev") == "quiesce" else None
    return report, result.trace


def cmd_run(args) -> int:
    scenario = _scenario(args)
    report, trace = _run_one(scenario, args.seed, _overrides(args))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        _write_trace(out.with_suffix(out.suffix + ".trace.jsonl"), trace)
        cdf = report["latency"].get("cdf", [])
        with out.with_suffix(out.suffix + ".cdf.csv").open("w") as f:
            f.write("duration_ms,fraction\n")
            for d, frac in cdf:
                f.write(f"{d},{frac}\n")
    print(f"scenario {report['scenario']} seed {report['seed']}")
    _print_verdicts(report)
    lat, stale = report["latency"], report["staleness"]
    if lat.get("transactions"):
        print(
            f"  transactions={lat['transactions']} zero_rt={lat['zero_rt_fraction']:.3f} "
            f"mean_rts={lat['mean_rts']:.3f}"
        )
    print(
        f"  stale_reads={stale['stale_read_fraction']:.4f} "
        f"stale_txs={stale['stale_tx_fraction']:.4f}"
    )
    return 0 if report["ok"] else 1


def cmd_check(args) -> int:
    trace = _read_trace(Path(args.trace))
    report = run_checks(trace)
    _print_verdicts(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report["ok"] else 1


def cmd_sweep(args) -> int:
    scenario = _scenario(args)
    base = args.seed if args.seed is not None else 1
    reports = []
    failures = 0
    for seed in range(base, base + args.sweep):
        report, _ = _run_one(scenario, seed, _overrides(args))
        reports.append(report)
        if not report["ok"]:
            failures += 1
            print(f"seed {seed}: FAIL")
            _print_verdicts(report)
    stale = [r["staleness"]["stale_read_fraction"] for r in reports]
    stale_tx = [r["staleness"]["stale_tx_fraction"] for r in reports]
    zero = [r["latency"].get("zero_rt_fraction", 0.0) for r in reports]
    agg = {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.get("name", "inline"),
        "seeds": [base, base + args.sweep - 1],
        "failures": failures,
        "stale_read_fraction": {"mean": sum(stale) / len(stale), "max": max(stale)},
        "stale_tx_fraction": {"mean": sum(stale_tx) / len(stale_tx), "max": max(stale_tx)},
        "zero_rt_fraction": {"mean": sum(zero) / len(zero), "min": min(zero), "max": max(zero)},
    }
    print(json.dumps(agg, indent=2, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(agg, sort_keys=True, indent=2) + "\n")
    return 0 if failures == 0 else 1


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalsim",
        description="Simulate and check causally consistent client-side geo-replication",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario, check it, write a report")
    run_p.add_argument("scenario", help="preset name or scenario file path")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None, help="report path (trace and CDF written beside)")
    run_p.add_argument("--k", type=int, default=None, help="override durability threshold")
    run_p.add_argument("--cache-capacity", type=int, default=None)
    run_p.add_argument("--fault-schedule", default=None, help="JSON file with fault events")
    run_p.set_defaults(fn=cmd_run)

    check_p = sub.add_parser("check", help="re-run checkers on a saved trace")
    check_p.add_argument("trace", help="trace file (.jsonl)")
    check_p.add_argument("--out", default=None)
    check_p.set_defaults(fn=cmd_check)

    sweep_p = sub.add_parser("sweep", help="run a scenario across many seeds")
    sweep_p.add_argument("scenario", help="preset name or scenario file path")
    sweep_p.add_argument("--sweep", type=_positive_int, required=True, metavar="N",
                         help="number of seeds, at least 1")
    sweep_p.add_argument("--seed", type=int, default=None, help="first seed (default 1)")
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--k", type=int, default=None)
    sweep_p.add_argument("--cache-capacity", type=int, default=None)
    sweep_p.add_argument("--fault-schedule", default=None)
    sweep_p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
