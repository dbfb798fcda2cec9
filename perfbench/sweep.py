"""Opt-in scale sweep of social-90-10: how simulate and check time grow.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py [--full]

It runs the ``social-90-10`` preset at 1x and 4x its 24 scouts (16x with
``--full``, which takes many minutes), times the simulation, the trace parse
and each check and metric, and prints one row per scale plus the growth
exponent of simulate and check time fitted over scout count by least squares
in log-log space, all at scenario seed 1. It writes the same numbers to
``perfbench/out/sweep.json``. This reproduces the Baseline table of the
roadmap; it is not one of the pipeline workloads of ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import OUT, git_revision, make_scenario  # noqa: E402

from causalsim import checker, scenarios  # noqa: E402

BASE_SCOUTS = 24
SEED = 1


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def measure(scale: int) -> dict:
    scenario = make_scenario(
        "social-90-10", {"num_scouts": BASE_SCOUTS * scale}, {}, SEED, f"social-90-10-x{scale}"
    )
    gc.collect()
    result, sim_s = timed(scenarios.build_simulation(scenario).run)
    tr, parse_s = timed(checker.TraceAnalysis, result.trace)
    parts = {"parse": parse_s}
    ok = True
    for check in checker.ALL_CHECKS:
        verdict, parts[check.__name__.removeprefix("check_")] = timed(check, tr)
        ok = ok and (verdict.ok or verdict.skipped is not None)
    _, parts["staleness"] = timed(checker.measure_staleness, tr)
    _, parts["latency"] = timed(checker.measure_latency, tr)
    return {
        "scale": scale,
        "scouts": BASE_SCOUTS * scale,
        "trace_events": len(result.trace),
        "records": len(tr.records),
        "reads": len(tr.reads),
        "simulate_s": sim_s,
        "check_s": sum(parts.values()),
        "parts_s": parts,
        "ok": ok and result.synced,
    }


def growth_exponent(xs, ys) -> float:
    """Least-squares slope of log(y) over log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="add the 16x scale")
    args = parser.parse_args(argv)
    scales = (1, 4, 16) if args.full else (1, 4)

    load_before = os.getloadavg()[0]
    rows = []
    print(f"{'scale':>5} {'events':>8} {'records':>7} {'reads':>6} {'simulate':>9} "
          f"{'checks':>9}  dominant checks")
    for scale in scales:
        row = measure(scale)
        rows.append(row)
        top = sorted(row["parts_s"].items(), key=lambda kv: -kv[1])[:3]
        print(f"{scale:>4}x {row['trace_events']:>8} {row['records']:>7} {row['reads']:>6} "
              f"{row['simulate_s']:>8.2f}s {row['check_s']:>8.2f}s  "
              + ", ".join(f"{k} {v:.2f}s" for k, v in top)
              + ("" if row["ok"] else "  CHECK FAILED"), flush=True)
    scouts = [r["scouts"] for r in rows]
    exponents = {
        "simulate": growth_exponent(scouts, [r["simulate_s"] for r in rows]),
        "check": growth_exponent(scouts, [r["check_s"] for r in rows]),
    }
    print(f"growth exponent over scouts: simulate N^{exponents['simulate']:.2f}, "
          f"check N^{exponents['check']:.2f}")
    OUT.mkdir(exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps({
        "seed": SEED,
        "python": sys.version,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "rows": rows,
        "growth_exponent": exponents,
    }, indent=2) + "\n")
    return 0 if all(r["ok"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
