#!/usr/bin/env python3
"""Run the 90/10-locality social workload and look at perceived latency.

Most transactions hit the client cache and complete in zero simulated
time, updates included; the rest pay one round trip per miss batch. The
consistency checkers run over the trace afterwards.
"""

from causalsim.checker import TraceAnalysis, measure_latency, percentile, run_checks
from causalsim.scenarios import load_scenario, run_scenario

scenario = load_scenario("social-90-10")
print("scenario:", scenario["name"])
print("  DCs:", scenario["sim"]["num_dcs"], " scouts:", scenario["sim"]["num_scouts"],
      " users:", scenario["workload"]["users"], " cache:", scenario["sim"]["cache_capacity"])

result = run_scenario(scenario, seed=1)
analysis = TraceAnalysis(result.trace)
latency = measure_latency(analysis)

print(f"\ntransactions measured: {latency['transactions']}")
print(f"zero-round-trip fraction: {latency['zero_rt_fraction']:.3f} "
      f"(configured expectation {scenario['expected']['zero_rt_fraction']})")
print(f"mean round trips per transaction: {latency['mean_rts']:.3f}")

print("\nlatency CDF (simulated ms):")
durs = [d for d, _ in latency["cdf"]]
for q in (0.50, 0.90, 0.95, 0.99):
    print(f"  p{int(q * 100):2d}: {percentile(durs, q * 100):6.0f} ms")

print("\nround trips by transaction type:")
for label, mean_rts in latency["rts_by_label"].items():
    print(f"  {label:20s} {mean_rts:.2f}")

report = run_checks(result.trace)
print("\nconsistency verdicts:")
for name, v in report["verdicts"].items():
    print(f"  {name:20s} {'PASS' if v['ok'] else 'FAIL'}")
