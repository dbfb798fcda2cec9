"""Behaviour pins: sha256 digests of traces and checker reports.

A ``(scenario, seed)`` pair gives byte-identical traces, so a refactor that
keeps these digests preserves the simulator's behaviour, and one that keeps
the report digests preserves every verdict, violation string, staleness and
latency figure of the checker. A digest may change only with a behaviour
change that ``CHANGES.md`` names.

The wire digests pin the bytes of every message the simulator sends, in
send order and with their key order, so a change to the message codec that
keeps them keeps the wire format. The simulator delivers message objects
and encodes a message only for a wire tap, which ``wire_lines`` attaches.
Every pinned run also runs with each delivery carrying the message's round
trip through the codec, and must give the same trace bytes.

To print the current digests: ``PYTHONPATH=src python tests/test_pins.py``.
To print the trace of the pinned run NAME as JSON lines, for a diff
between two checkouts: ``PYTHONPATH=src python tests/test_pins.py --trace NAME``.
To print, likewise, every message the wire run NAME (a key of ``WIRE_RUNS``)
sends, as compact JSON lines in send order:
``PYTHONPATH=src python tests/test_pins.py --wire NAME``; the lines are
what its ``WIRE_PINS`` digest hashes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from causalsim import messages, sim
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
        "0cfc8cec2f97f8137b210ebfebaf16c205a05b4aa8928941fe8deced47f8df08",
        "5ba2c3c417b31fc687491ac45ba5d96a78ccad69c7d638188ac2ccdb5103760d",
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
        "7cdce01a5d2fb6b3ec40fe61bd304284ddc94da799b1bc644d91d53fc9403f28",
        "def8a63b98abc889e2255aad1c40f124020f46fbe7946d8ebc5e77b2285ee224",
    ),
    "dedup-off": (
        "800dca41033ad97c3294333ec229e0c379617083ea951b2278cec3110b20842e",
        "4946084261611b6257c202f4bfb0ea875f91e5e5da063613e66555a4c718a3d8",
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
        "1f2a5b6a8ba9c031429af28ea8a5e9a1fd8b00d55e2d012e718acfef09018cd8",
        "20250bca029ce461b6583fcb9d50f011c6c38e9e881fab5549ec47fc410657ea",
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
# gives the wire tap, one line per message
WIRE_PINS = {
    "churn-faults": "3cfd17eedc9876e23dd60edc55f68a7665a22eb9f8fb56b9e506a2140ffcb86c",
    "social-90-10@6": "eeb635a74c34b1284586fc51f21264fae70e9f706f369609d340b7141df977c3",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_run(name: str):
    """Simulate the pinned run ``name``."""
    base, overrides, _ = RUNS[name]
    scenario = load_scenario(base) if isinstance(base, str) else base
    seed = None if name in BENCH_RUNS else 1
    return run_scenario(scenario, seed=seed, overrides=overrides)


def digests(result) -> tuple[str, str, dict]:
    """The trace and report digests of a run, and its report."""
    report = run_checks(result.trace)
    report_bytes = json.dumps(report, sort_keys=True).encode()
    return _sha(result.trace_bytes()), _sha(report_bytes), report


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_and_report_digests_are_pinned(name):
    result = pinned_run(name)
    trace_sha, report_sha, report = digests(result)
    flagged_by = RUNS[name][2]
    if flagged_by is None:
        assert report["ok"], report["verdicts"]
    else:
        assert not report["verdicts"][flagged_by]["ok"]
    assert (trace_sha, report_sha) == PINS[name]
    if result.synced:
        # a live replica's vdc then covers every slot: it keeps no mark
        live = next(e for e in result.trace if e["ev"] == "quiesce")["dcs"]
        marks = {dc.id: dc.slots for dc in result.dcs if f"dc{dc.id}" in live}
        assert not any(any(slots) for slots in marks.values()), marks


@pytest.mark.parametrize("name", sorted(RUNS))
def test_delivery_through_the_codec_gives_the_same_trace(name, monkeypatch):
    """Both ways: the simulator delivers each message object as it was
    sent, and a run in which every delivery instead carries the message's
    round trip through the codec gives the same trace bytes. So no node
    sees what another node changes after a send, as when every message was
    decoded on delivery."""
    direct = pinned_run(name).trace_bytes()
    schedule = sim.Simulation.schedule

    def through_codec(simulation, at, kind, payload):
        if kind == "deliver":
            src, dst, msg = payload
            wire = messages.message_to_wire(msg)
            payload = (src, dst, messages.message_from_wire(wire))
        schedule(simulation, at, kind, payload)

    monkeypatch.setattr(sim.Simulation, "schedule", through_codec)
    assert pinned_run(name).trace_bytes() == direct


def wire_lines(name: str) -> list[bytes]:
    """Run ``name`` of ``WIRE_RUNS``: the compact JSON of every message it
    sends, one line each, in send order."""
    base, overrides = WIRE_RUNS[name]
    lines = []
    encode = sim.message_to_wire

    def recorded(msg):
        wire = encode(msg)
        lines.append(json.dumps(wire, separators=(",", ":")).encode() + b"\n")
        return wire

    scenario = load_scenario(base) if isinstance(base, str) else base
    sim.message_to_wire = recorded
    try:
        run_scenario(scenario, seed=1, overrides=overrides)
    finally:
        sim.message_to_wire = encode
    return lines


def wire_digest(name: str) -> str:
    """Run ``name`` of ``WIRE_RUNS`` and digest every message it sends."""
    return _sha(b"".join(wire_lines(name)))


@pytest.mark.parametrize("name", sorted(WIRE_RUNS))
def test_message_bytes_are_pinned(name):
    assert wire_digest(name) == WIRE_PINS[name]


def test_the_wire_option_prints_the_pinned_bytes():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run(
        [sys.executable, __file__, "--wire", "churn-faults"], env=env, capture_output=True, check=True
    ).stdout
    assert out.count(b"\n") > 1000 and out.startswith(b'{"m":"session_req","scout":"s0",')
    assert _sha(out) == WIRE_PINS["churn-faults"]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--trace"]:
        sys.stdout.buffer.write(pinned_run(sys.argv[2]).trace_bytes())
        sys.exit(0)
    if sys.argv[1:2] == ["--wire"]:
        sys.stdout.buffer.write(b"".join(wire_lines(sys.argv[2])))
        sys.exit(0)
    for name in sorted(RUNS):
        trace_sha, report_sha, _ = digests(pinned_run(name))
        print(f'    "{name}": (\n        "{trace_sha}",\n        "{report_sha}",\n    ),')
    for name in sorted(WIRE_RUNS):
        print(f'    "{name}": "{wire_digest(name)}",')
