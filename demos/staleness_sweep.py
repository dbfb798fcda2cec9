#!/usr/bin/env python3
"""Measure staleness induced by the K-durability gate, under contention.

The stress setup removes the cache, commits to the farthest DC (about
170 ms away) and shrinks the user pool so concurrent sessions collide. A
read is stale when it returned a K-durable version while a fresher,
not-yet-K-durable one existed somewhere. Growing the pool dilutes the
contention, so staleness falls.
"""

from statistics import fmean

from causalsim.checker import TraceAnalysis, measure_staleness
from causalsim.scenarios import load_scenario, run_scenario

scenario = load_scenario("staleness-stress")
seeds = range(1, 11)

print("pool size   mean stale reads   max stale reads   mean stale txs")
for users in scenario["expected"]["pool_sizes"]:
    reads, txs = [], []
    for seed in seeds:
        res = run_scenario(scenario, seed=seed, workload_overrides={"users": users})
        m = measure_staleness(TraceAnalysis(res.trace))
        reads.append(m["stale_read_fraction"])
        txs.append(m["stale_tx_fraction"])
    print(f"{users:9d}   {fmean(reads):16.4f}   {max(reads):15.4f}   {fmean(txs):14.4f}")

print("\nbaseline with K=1 (nothing is withheld, staleness is zero by definition):")
res = run_scenario(scenario, seed=1, overrides={"k": 1})
m = measure_staleness(TraceAnalysis(res.trace))
print(f"  stale read fraction: {m['stale_read_fraction']:.4f} over {m['reads']} reads")
