"""Behaviour pins: sha256 digests of traces and checker reports.

A ``(scenario, seed)`` pair gives byte-identical traces, so a refactor that
keeps these digests preserves the simulator's behaviour, and one that keeps
the report digests preserves every verdict, violation string, staleness and
latency figure of the checker. A digest may change only with a behaviour
change that ``CHANGES.md`` names.

The wire digests pin the bytes of every message the simulator encodes, in
send order and with their key order, so a change to the message codec that
keeps them keeps the wire format.

To print the current digests: ``PYTHONPATH=src python tests/test_pins.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from causalsim import sim
from causalsim.checker import run_checks
from causalsim.scenarios import PRESETS, load_scenario, run_scenario

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402

# counter churn at three DCs under a crash during commit, a scout
# disconnect with failover, a partition and a plain crash, all healed
CHURN = {
    "schema": "causalsim-scenario-1",
    "name": "churn-pin",
    "sim": {
        "num_dcs": 3,
        "num_scouts": 6,
        "k": 2,
        "rtt_dc_ms": [[0, 161, 86], [161, 0, 92], [86, 92, 0]],
        "scout_rtt_ms": [[30, 170, 110], [170, 30, 92], [110, 92, 30]],
        "gossip_ms": 20,
        "notify_ms": 25,
        "retry_ms": 300,
        "think_ms": 5,
        "cache_capacity": 8,
        "drain_ms": 4000,
    },
    "faults": [
        {"at": 100, "kind": "dc_crash_on_commit", "dc": 0},
        {"at": 400, "kind": "dc_recover", "dc": 0},
        {"at": 500, "kind": "scout_disconnect", "scout": "s3"},
        {"at": 800, "kind": "scout_reconnect", "scout": "s3", "to": 2},
        {"at": 900, "kind": "partition", "links": [["dc1", "dc2"]]},
        {"at": 1300, "kind": "heal", "links": [["dc1", "dc2"]]},
        {"at": 1500, "kind": "dc_crash", "dc": 1},
        {"at": 1900, "kind": "dc_recover", "dc": 1},
    ],
    "workload": {"kind": "counter_churn", "txs_per_scout": 20, "counters": 4},
    "expected": {},
}

# name -> (scenario, sim overrides, check that must flag it or None)
RUNS = {
    **{name: (name, {}, None) for name in PRESETS},
    "churn-faults": (CHURN, {}, None),
    "dedup-off": (CHURN, {"mutations": ["disable_dedup"]}, "exactly_once"),
    "k-gating-off": ("staleness-stress", {"mutations": ["disable_k_gating"]}, "causal_snapshots"),
    "session-reorder": (
        "failover-demo",
        {"mutations": ["reorder_session", "disable_guards"], "notify_mode": "invalidations"},
        "session_guarantees",
    ),
}

# one scenario of each benchmark workload, built as perfbench/run.py builds
# it; the scenario carries its own seed
BENCH_SEED = 36
BENCH_RUNS = {
    f"bench-{name}": bench.make_scenario(spec["base"], spec["sim"], spec["workload"], BENCH_SEED, name)
    for name, spec in bench.WORKLOADS.items()
}
RUNS.update({name: (scenario, {}, None) for name, scenario in BENCH_RUNS.items()})

# name -> (trace sha256, report sha256), generated at seed 1, or at
# BENCH_SEED for the benchmark workloads
PINS = {
    "bench-churn-faults": (
        "b90fc11623c3f5848b464ffc6a5ee9ab3dd0de1ff1ec921a6a9c2cebb474e2ab",
        "65654def5ff52bebc2682f39f4930ff7b36a2bf8e37757f23500598f93bcfaac",
    ),
    "bench-fetch-bound": (
        "f4981b80b90a1a4394c3ac583c9d150db05a6bd918ff2fb24e8c16d1fcc20485",
        "b8488a62db8bc8b7cf0f8a0a888b56c9de0cac1f9888d13f69133fae15f7c2d1",
    ),
    "bench-social-cached": (
        "52449e4d3917f15debbe84f19b994105a95569a31218cd29f8878bc3619f1ec8",
        "41a6a7164795a3ebb3b92e6185c973936cfcf4b4785f9157895727f8b709a610",
    ),
    "churn-faults": (
        "e7b71f56d7cb6390609595d1b4fbc59525b20ec384530d72e3125048bb996980",
        "6eb82ba33bef132b811193d0b3be802a36225003c86d26bba3e211312e687d5a",
    ),
    "dedup-off": (
        "fb7286bb42f45bc086d7dfe747190974b31bfbb4dfe5425dec15d839025cea78",
        "efb123b95c036adda9e1b93ec7ec869ec13e3ee4b8c3bf961bcf4ff5d547fdd3",
    ),
    "failover-demo": (
        "dd326e42edd6bf124272a5a88dbd652e7ecf77507d65dc85a1359acffdfae2fb",
        "36ffa32435eb91607594f3d49aace957c408c9ead8e0e434091e61055c62c087",
    ),
    "k-gating-off": (
        "1b80689cae38af3aa53ac8cb6803f42c9ece1649b50753ef8935e28fda81e387",
        "3b1995be5392869453dfeffa5cad49d4fd349ac44c13edaa50ebb37253a935df",
    ),
    "session-reorder": (
        "cafc36988fbd21d4fc12faeeee0e38c7531a5ec234b236dc3eb77b642c89bb35",
        "c0ea2bd420a5bfb8f0532dd12769bc23cb51e1e1588fd21eee6219f14c2a5c8f",
    ),
    "social-50-50": (
        "df569ea48f81b47b41d496dfe3bf7d4078bb397f8113ffb45a9e7d4b7a2156db",
        "55a5b7328a8c45f1bcec21cbcfc19bbc26d2c45b8636f9a7721df98a187e36d5",
    ),
    "social-90-10": (
        "7b3127b775850af2577f98f4ffbe919c6a27bd62572653a5e7ae04bfc8490a97",
        "528256edbfe339958b3ecc155b0fb9e0da4f06f8e508c6f00bbf48fee423dfdd",
    ),
    "staleness-stress": (
        "db8fef0d90841b953b6157c7fab40e95d06985a143d4b0534f826a941c04a2f5",
        "9e638166cde710a52782a30505b8ae6b7a3b9ef351d5b55d366c66e41b2260ea",
    ),
}


# name -> (scenario, sim overrides), run at seed 1
WIRE_RUNS = {
    "churn-faults": (CHURN, {}),
    "social-90-10@6": ("social-90-10", {"num_scouts": 6}),
}

# name -> sha256 over the compact JSON of each message `Simulation.send`
# encodes, one line per message
WIRE_PINS = {
    "churn-faults": "60f6808b684a84d5382d3da18dd07351163b9f19f6c95974dd46a5d489ebebad",
    "social-90-10@6": "47e6e6fa13403b38f1cc6aeebefce22bf1fb1859bbc65eaa348e635888376954",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_run(name: str):
    """Simulate the pinned run ``name``."""
    base, overrides, _ = RUNS[name]
    scenario = load_scenario(base) if isinstance(base, str) else base
    seed = None if name in BENCH_RUNS else 1
    return run_scenario(scenario, seed=seed, overrides=overrides)


def digests(name: str) -> tuple[str, str, dict]:
    result = pinned_run(name)
    report = run_checks(result.trace)
    report_bytes = json.dumps(report, sort_keys=True).encode()
    return _sha(result.trace_bytes()), _sha(report_bytes), report


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_and_report_digests_are_pinned(name):
    trace_sha, report_sha, report = digests(name)
    flagged_by = RUNS[name][2]
    if flagged_by is None:
        assert report["ok"], report["verdicts"]
    else:
        assert not report["verdicts"][flagged_by]["ok"]
    assert (trace_sha, report_sha) == PINS[name]


def wire_digest(name: str) -> str:
    """Run ``name`` of ``WIRE_RUNS`` and digest every message it sends."""
    base, overrides = WIRE_RUNS[name]
    digest = hashlib.sha256()
    encode = sim.message_to_wire

    def recorded(msg):
        wire = encode(msg)
        digest.update(json.dumps(wire, separators=(",", ":")).encode() + b"\n")
        return wire

    scenario = load_scenario(base) if isinstance(base, str) else base
    sim.message_to_wire = recorded
    try:
        run_scenario(scenario, seed=1, overrides=overrides)
    finally:
        sim.message_to_wire = encode
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WIRE_RUNS))
def test_message_bytes_are_pinned(name):
    assert wire_digest(name) == WIRE_PINS[name]


if __name__ == "__main__":
    for name in sorted(RUNS):
        trace_sha, report_sha, _ = digests(name)
        print(f'    "{name}": (\n        "{trace_sha}",\n        "{report_sha}",\n    ),')
    for name in sorted(WIRE_RUNS):
        print(f'    "{name}": "{wire_digest(name)}",')
