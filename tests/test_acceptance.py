"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line with the measured numbers; a failing
assertion is the FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random

import pytest

from causalsim import workload
from causalsim.checker import (
    TraceAnalysis,
    measure_latency,
    measure_staleness,
    run_checks,
)
from causalsim.crdt import CrdtType, ObjectId, apply_effect, value_of, new_state
from causalsim.scenarios import load_scenario, run_scenario
from causalsim.sim import FaultEvent, SimConfig, Simulation



def say(n, name, detail):
    print(f"\n[ACCEPTANCE {n}] {name}: PASS ({detail})")


# -- 1: zero-latency fraction -------------------------------------------------


def test_1_zero_latency_fraction():
    scenario = load_scenario("social-90-10")
    expected = scenario["expected"]["zero_rt_fraction"]
    tolerance = scenario["expected"]["zero_rt_tolerance"]
    measured = []
    for seed in (1, 2, 3):
        res = run_scenario(scenario, seed=seed)
        lat = measure_latency(TraceAnalysis(res.trace))
        assert lat["transactions"] >= 2000
        measured.append(lat["zero_rt_fraction"])
        assert abs(lat["zero_rt_fraction"] - expected) <= tolerance, (
            f"seed {seed}: zero-RT fraction {lat['zero_rt_fraction']:.4f} "
            f"outside {expected} +/- {tolerance}"
        )
    say(
        1,
        "zero-latency fraction",
        f"zero-RT {min(measured):.3f}..{max(measured):.3f} within "
        f"{expected}+/-{tolerance} over 3 seeds, 24 scouts, 3 DCs",
    )


# -- 2: staleness bound and contention trend ----------------------------------


def test_2_staleness_bound_and_trend():
    scenario = load_scenario("staleness-stress")
    reads, txs = [], []
    for seed in range(1, 21):
        res = run_scenario(scenario, seed=seed)
        m = measure_staleness(TraceAnalysis(res.trace))
        reads.append(m["stale_read_fraction"])
        txs.append(m["stale_tx_fraction"])
    assert max(reads) < 0.05, f"max stale-read fraction {max(reads):.4f} >= 5%"
    assert max(txs) < 0.10, f"max stale-tx fraction {max(txs):.4f} >= 10%"
    assert max(reads) > 0, "stress preset must produce measurable staleness"

    means = []
    for users in scenario["expected"]["pool_sizes"]:
        vals = []
        for seed in range(1, 11):
            res = run_scenario(scenario, seed=seed, workload_overrides={"users": users})
            vals.append(measure_staleness(TraceAnalysis(res.trace))["stale_read_fraction"])
        means.append(sum(vals) / len(vals))
    assert means[0] > means[1] > means[2], f"staleness not decreasing with pool size: {means}"
    say(
        2,
        "staleness bound",
        f"20-seed max stale-read {max(reads):.4f} < 0.05, stale-tx {max(txs):.4f} < 0.10; "
        f"trend over pools {scenario['expected']['pool_sizes']}: "
        + " > ".join(f"{m:.4f}" for m in means),
    )


# -- 3: exactly-once under retry and failover ----------------------------------


def adversarial_faults(seed):
    rng = random.Random(f"adv/{seed}")
    t_crash = rng.randrange(40, 160)
    faults = [
        FaultEvent(at=t_crash, kind="dc_crash_on_commit", dc=0),
        FaultEvent(at=t_crash + rng.randrange(120, 280), kind="dc_recover", dc=0),
    ]
    if rng.random() < 0.5:
        t_d = rng.randrange(200, 400)
        faults += [
            FaultEvent(at=t_d, kind="scout_disconnect", scout="s1"),
            FaultEvent(at=t_d + rng.randrange(80, 200), kind="scout_reconnect", scout="s1"),
        ]
    return faults


def churn_run(seed, mutations=()):
    cfg = SimConfig(
        num_dcs=3,
        num_scouts=3,
        k=2,
        rtt_dc_ms=[[0, 60, 80], [60, 0, 70], [80, 70, 0]],
        scout_rtt_ms=[[20, 45, 60]],
        gossip_ms=15,
        notify_ms=15,
        retry_ms=120,
        think_ms=15,
        cache_capacity=8,
        seed=seed,
        drain_ms=3000,
        faults=adversarial_faults(seed),
        mutations=list(mutations),
    )
    scripts = workload.build(
        {"kind": "counter_churn", "txs_per_scout": 10, "counters": 2}, 3, seed, 8
    )[0]
    sim = Simulation(cfg, scripts=scripts)
    return sim.run()


def distinct_otid_sums(trace):
    tr = TraceAnalysis(trace)
    sums = {}
    for rec in tr.records.values():
        for ew in rec.effects:
            if ew["kind"] == "inc":
                key = f"{ew['obj'][0]}#counter"
                sums[key] = sums.get(key, 0) + ew["payload"][0]
    return sums


def test_3_exactly_once_under_retry_and_failover():
    for seed in range(1, 51):
        res = churn_run(seed)
        assert res.synced, f"seed {seed}: run did not quiesce"
        report = run_checks(res.trace)
        assert report["ok"], f"seed {seed}: {report['verdicts']}"
        sums = distinct_otid_sums(res.trace)
        final = res.trace[-1]
        assert len(final["dcs"]) == 3
        for name, info in final["dcs"].items():
            for key, expected in sums.items():
                got = info["values"].get(key, 0)
                assert got == expected, f"seed {seed}: {name} {key}={got}, oracle {expected}"
    say(3, "exactly-once", "50 adversarial seeds: every DC matched the distinct-OTID sum oracle")


def test_3_negative_control_dedup_disabled_is_flagged():
    cfg = SimConfig(
        num_dcs=1,
        num_scouts=1,
        k=1,
        rtt_dc_ms=[[0]],
        scout_rtt_ms=[[20]],
        gossip_ms=50,
        notify_ms=25,
        retry_ms=150,
        think_ms=10,
        cache_capacity=8,
        seed=11,
        mutations=["disable_dedup"],
        faults=[
            FaultEvent(at=30, kind="dc_crash_on_commit", dc=0),
            FaultEvent(at=60, kind="dc_recover", dc=0),
        ],
    )
    ctr = ObjectId("ctr:0", CrdtType.COUNTER)
    script = [{"kind": "tx", "label": "inc", "ops": [("read", ctr), ("update", ctr, ("inc", 10))]}]
    res = Simulation(cfg, scripts={"s0": script}).run()
    report = run_checks(res.trace)
    assert not report["verdicts"]["exactly_once"]["ok"]
    say(3, "exactly-once negative control", "dedup disabled: checker flagged the double apply")


# -- 4: causal consistency and session guarantees across failover ---------------


def test_4_failover_consistency():
    for seed in range(1, 51):
        res = run_scenario(load_scenario("failover-demo"), seed=seed)
        report = run_checks(res.trace)
        for name in ("causal_snapshots", "atomicity", "session_guarantees"):
            v = report["verdicts"][name]
            assert v["ok"], f"seed {seed} {name}: {v['violations'][:3]}"
    say(4, "failover consistency", "50 seeds of failover-demo: snapshots, atomicity, sessions all hold")


def _mutation_runs(mutations, notify_mode="effects"):
    ctr = ObjectId("ctr:0", CrdtType.COUNTER)
    read_tx = {"kind": "tx", "label": "peek", "ops": [("read", ctr)]}
    inc_tx = {"kind": "tx", "label": "inc", "ops": [("read", ctr), ("update", ctr, ("inc", 1))]}
    if "disable_k_gating" in mutations:
        cfg = SimConfig(
            num_dcs=3,
            num_scouts=2,
            k=2,
            rtt_dc_ms=[[0, 100, 100], [100, 0, 100], [100, 100, 0]],
            scout_rtt_ms=[[20, 60, 80]],
            gossip_ms=100000,
            notify_ms=5,
            retry_ms=100,
            think_ms=25,
            cache_capacity=8,
            seed=12,
            drain_ms=500,
            mutations=list(mutations),
            faults=[FaultEvent(at=300, kind="dc_crash", dc=0)],
        )
        scripts = {"s0": [read_tx] * 25, "s1": [inc_tx]}
    else:
        cfg = SimConfig(
            num_dcs=2,
            num_scouts=2,
            k=1,
            rtt_dc_ms=[[0, 80], [80, 0]],
            scout_rtt_ms=[[20, 60]],
            gossip_ms=20,
            notify_ms=40,
            retry_ms=200,
            think_ms=30,
            cache_capacity=8,
            seed=13,
            drain_ms=800,
            notify_mode=notify_mode,
            mutations=list(mutations),
        )
        scripts = {"s0": [read_tx] * 12, "s1": [inc_tx] * 4}
    return run_checks(Simulation(cfg, scripts=scripts).run().trace)


def test_4_mutation_k_gating_disabled_is_flagged():
    broken = _mutation_runs(["disable_k_gating"])
    flagged = [
        k for k, v in broken["verdicts"].items() if not v["ok"] and not v["skipped"]
    ]
    assert "session_guarantees" in flagged or "causal_snapshots" in flagged
    control = _mutation_runs([])
    assert control["ok"]
    say(4, "K-gating mutation", f"disabled gate flagged by {flagged}; gated control clean")


def test_4_mutation_session_reorder_is_flagged():
    broken = _mutation_runs(["reorder_session", "disable_guards"], notify_mode="invalidations")
    flagged = [
        k for k, v in broken["verdicts"].items() if not v["ok"] and not v["skipped"]
    ]
    assert "session_guarantees" in flagged or "causal_snapshots" in flagged
    control = _mutation_runs([], notify_mode="invalidations")
    assert control["ok"]
    say(4, "session-reorder mutation", f"injected reorder flagged by {flagged}; FIFO control clean")


@pytest.mark.parametrize("notify_mode", ["effects", "invalidations"])
def test_4_session_reorder_alone_is_flagged(notify_mode):
    # without `disable_guards` named too: the control's scouts are unguarded
    # all the same, so the reordered batch is taken, not a ProtocolError
    overrides = {"mutations": ["reorder_session"], "notify_mode": notify_mode}
    res = run_scenario(load_scenario("failover-demo"), seed=1, overrides=overrides)
    assert res.synced
    verdicts = run_checks(res.trace)["verdicts"]
    assert not verdicts["session_guarantees"]["ok"]
    say(4, "session-reorder alone", f"{notify_mode}: synced, flagged by session_guarantees")


# -- 5: convergence under random healed faults ----------------------------------


def healed_faults(seed):
    rng = random.Random(f"conv/{seed}")
    faults = []
    for dc in range(3):
        if rng.random() < 0.4:
            t = rng.randrange(100, 700)
            faults.append(FaultEvent(at=t, kind="dc_crash", dc=dc))
            faults.append(FaultEvent(at=t + rng.randrange(150, 400), kind="dc_recover", dc=dc))
    if rng.random() < 0.6:
        a, b = rng.sample(range(3), 2)
        t = rng.randrange(100, 700)
        faults.append(FaultEvent(at=t, kind="partition", links=[[f"dc{a}", f"dc{b}"]]))
        faults.append(
            FaultEvent(at=t + rng.randrange(100, 400), kind="heal", links=[[f"dc{a}", f"dc{b}"]])
        )
    if rng.random() < 0.4:
        t = rng.randrange(100, 600)
        faults.append(FaultEvent(at=t, kind="scout_disconnect", scout="s0"))
        faults.append(FaultEvent(at=t + rng.randrange(100, 300), kind="scout_reconnect", scout="s0"))
    return faults


def social_run(seed, k=2, faults=(), session_length=15, crash_at=None):
    cfg = SimConfig(
        num_dcs=3,
        num_scouts=4,
        k=k,
        rtt_dc_ms=[[0, 60, 80], [60, 0, 70], [80, 70, 0]],
        scout_rtt_ms=[[20, 45, 60]],
        gossip_ms=15,
        notify_ms=15,
        retry_ms=120,
        think_ms=10,
        cache_capacity=16,
        seed=seed,
        drain_ms=4000 if faults else 1500,
        horizon_ms=60000,
        faults=list(faults),
    )
    wl = {
        "kind": "social",
        "users": 30,
        "friends": 4,
        "update_fraction": 0.25,
        "locality": 0.8,
        "session_length": session_length,
        "sessions": 1,
        "pin": False,
    }
    scripts, initial, _ = workload.build(wl, 4, seed, 16)
    sim = Simulation(cfg, scripts=scripts, initial_states=initial)
    sim.meta = {
        "scenario": {"workload": wl, "sim": {"num_scouts": 4, "cache_capacity": 16}},
        "seed": seed,
    }
    return sim, sim.run()


def test_5_convergence_under_random_healed_faults():
    for seed in range(1, 51):
        sim, res = social_run(seed, faults=healed_faults(seed))
        assert res.synced, f"seed {seed}: did not quiesce after healing"
        report = run_checks(res.trace)
        conv = report["verdicts"]["convergence"]
        assert conv["ok"] and not conv["skipped"], f"seed {seed}: {conv['violations'][:3]}"
        assert report["ok"], f"seed {seed}: {report['verdicts']}"
    say(5, "convergence", "50 random healed fault schedules: replicas equal and match the replay oracle")


# -- 6: K-durability liveness ------------------------------------------------------


def test_6_k_durability_liveness():
    for seed in range(1, 11):
        sim, res = social_run(
            seed, k=2, faults=[FaultEvent(at=100, kind="dc_crash", dc=0)], session_length=30
        )
        assert all(d.done for d in sim.drivers.values()), f"seed {seed}: a script blocked"
        assert all(
            s.connected and s.session in (1, 2) for s in sim.scouts.values()
        ), f"seed {seed}: a scout found no eligible DC"
        assert all(not s.pending for s in sim.scouts.values())
        report = run_checks(res.trace)
        assert all(v["ok"] or v["skipped"] for v in report["verdicts"].values())
    sim, res = social_run(
        1, k=3, faults=[FaultEvent(at=100, kind="dc_crash", dc=0)], session_length=30
    )
    assert all(d.done for d in sim.drivers.values())
    report = run_checks(res.trace)
    assert all(
        v["ok"] or v["skipped"] for v in report["verdicts"].values()
    ), "K=3 crash must degrade liveness, not safety"
    stalled_commits = sum(len(s.pending) for s in sim.scouts.values())
    assert stalled_commits > 0, "expected the K-durable frontier to stall"
    assert not res.synced
    assert report["verdicts"]["convergence"]["skipped"]
    say(
        6,
        "K-durability liveness",
        f"K=2: 10 seeds fail over and drain; K=3: frontier stalls "
        f"({stalled_commits} commits pending) with zero safety violations",
    )


# -- 7: round-trip accounting --------------------------------------------------------


def digest_proc(params, reader):
    obj = ObjectId(params["obj"], CrdtType.COUNTER)
    return reader(obj), []


def test_7_round_trip_accounting():
    ctr = ObjectId("hot", CrdtType.COUNTER)
    cold = [ObjectId(f"cold{i}", CrdtType.COUNTER) for i in range(3)]
    script = [
        {"kind": "tx", "label": "warm", "ops": [("read", ctr)]},
        {
            "kind": "tx",
            "label": "hot_update",
            "ops": [("read", ctr), ("update", ctr, ("inc", 2))],
        },
        {"kind": "tx", "label": "hot_read", "ops": [("read", ctr)]},
        {"kind": "tx", "label": "miss_batch", "ops": [("multi", cold)]},
        {"kind": "stored", "name": "digest", "params": {"obj": "hot"}},
    ]
    cfg = SimConfig(
        num_dcs=2,
        num_scouts=1,
        k=1,
        rtt_dc_ms=[[0, 60], [60, 0]],
        scout_rtt_ms=[[30, 60]],
        gossip_ms=15,
        notify_ms=15,
        retry_ms=150,
        think_ms=5,
        cache_capacity=8,
        seed=2,
    )
    sim = Simulation(cfg, scripts={"s0": script}, procedures={"digest": digest_proc})
    res = sim.run()
    commits = [e for e in res.trace if e["ev"] == "local_commit"]
    rts = [e["rts"] for e in commits]
    assert rts == [1, 0, 0, 1], f"per-tx round trips {rts} != analytical minimum [1, 0, 0, 1]"
    durs = [e["dur"] for e in commits]
    assert durs[1] == 0 and durs[2] == 0, "cache-hit transactions must take zero simulated time"
    stored = [e for e in res.trace if e["ev"] == "stored_tx"]
    assert len(stored) == 1 and stored[0]["results"] == 2
    # one request-reply pair for the stored call
    assert sim.stats["messages"]["stored_req"] == 1
    say(
        7,
        "round-trip accounting",
        "cache-hit update 0 RT, miss batch 1 RT, stored tx 1 round trip; "
        "hardware throughput figures substituted per protocol minimum",
    )


# -- 8: mergeable-type law suite --------------------------------------------------------


def test_8_crdt_law_suite():
    from crdt_random import ALL_TYPES, concurrent_scenario

    cases_per_type = 10_000
    for crdt_type in ALL_TYPES:
        rng = random.Random(f"laws/{crdt_type}")
        for i in range(cases_per_type):
            base, line_a, line_b = concurrent_scenario(rng, crdt_type)
            ab = base
            for e in line_a + line_b:
                ab = apply_effect(ab, e)
            ba = base
            for e in line_b + line_a:
                ba = apply_effect(ba, e)
            assert ab == ba, f"{crdt_type} case {i}: orders diverged"
    # the negative case motivating exactly-once delivery
    from causalsim.crdt import EffectTag, prepare

    s = new_state(CrdtType.COUNTER)
    e = prepare(ObjectId("c", CrdtType.COUNTER), s, ("inc", 10), EffectTag(1, "w", 0))
    assert value_of(apply_effect(apply_effect(s, e), e)) == 20 != 10
    say(
        8,
        "mergeable-type laws",
        f"{cases_per_type} randomized concurrent cases per type commute; "
        "counter double-apply confirmed non-idempotent",
    )
