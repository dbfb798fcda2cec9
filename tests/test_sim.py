import gc
import time
import weakref
from pathlib import Path

from causalsim.clocks import VersionVector
from causalsim.crdt import CrdtType, ObjectId
from causalsim.checker import run_checks
from causalsim.messages import FetchRequest, SessionRequest
from causalsim.scenarios import PRESETS, build_simulation, load_scenario, run_scenario
from causalsim.sim import FaultEvent, SimConfig, Simulation

import pytest

CTR = ObjectId("ctr:0", CrdtType.COUNTER)


def inc_tx(n=1):
    return {"kind": "tx", "label": "inc", "ops": [("read", CTR), ("update", CTR, ("inc", n))]}


def read_tx():
    return {"kind": "tx", "label": "peek", "ops": [("read", CTR)]}


def small_cfg(**kw):
    base = dict(
        num_dcs=2,
        num_scouts=2,
        k=1,
        rtt_dc_ms=[[0, 60], [60, 0]],
        scout_rtt_ms=[[20, 50]],
        gossip_ms=15,
        notify_ms=15,
        retry_ms=150,
        think_ms=4,
        cache_capacity=8,
        seed=9,
        drain_ms=800,
    )
    base.update(kw)
    return SimConfig(**base)


class TestDeterminism:
    def test_same_seed_identical_trace_bytes(self):
        sc = load_scenario("failover-demo")
        a = run_scenario(sc, seed=11)
        b = run_scenario(load_scenario("failover-demo"), seed=11)
        assert a.trace_bytes() == b.trace_bytes()

    def test_jittered_runs_are_still_deterministic(self):
        def go():
            cfg = small_cfg(jitter_ms=7)
            sim = Simulation(cfg, scripts={"s0": [inc_tx(), read_tx()], "s1": [read_tx()]})
            return sim.run().trace_bytes()

        assert go() == go()

    def test_different_seed_different_trace(self):
        sc = load_scenario("failover-demo")
        a = run_scenario(sc, seed=1)
        b = run_scenario(load_scenario("failover-demo"), seed=2)
        assert a.trace_bytes() != b.trace_bytes()


class TestLatencyModel:
    def test_zero_latency_network_miss_costs_zero_time(self):
        cfg = small_cfg(rtt_dc_ms=[[0, 0], [0, 0]], scout_rtt_ms=[[0, 0]], think_ms=0)
        sim = Simulation(cfg, scripts={"s0": [read_tx()], "s1": []})
        res = sim.run()
        commits = [e for e in res.trace if e["ev"] == "local_commit"]
        assert commits[0]["rts"] == 1 and commits[0]["dur"] == 0

    def test_miss_costs_one_configured_round_trip(self):
        cfg = small_cfg(think_ms=0)
        sim = Simulation(cfg, scripts={"s0": [read_tx()], "s1": []})
        res = sim.run()
        commits = [e for e in res.trace if e["ev"] == "local_commit"]
        assert commits[0]["dur"] == 20  # the scout's RTT to its session DC

    def test_fifo_sessions_under_jitter(self):
        # heavy jitter must never reorder a session: the notify-base guard
        # inside the scout raises on any out-of-order delivery
        cfg = small_cfg(jitter_ms=40, think_ms=2)
        scripts = {"s0": [inc_tx() for _ in range(8)], "s1": [read_tx() for _ in range(8)]}
        res = Simulation(cfg, scripts=scripts).run()
        assert run_checks(res.trace)["ok"]


def three_dc_cfg(**kw):
    # asymmetric and odd round trips, so each direction and the halving show
    base = dict(
        num_dcs=3,
        num_scouts=5,
        rtt_dc_ms=[[0, 61, 140], [80, 0, 33], [151, 40, 0]],
        scout_rtt_ms=[[21, 90, 150], [75, 11, 47], [160, 55, 3]],
    )
    base.update(kw)
    return small_cfg(**base)


def session_request(sid):
    return SessionRequest(sid, 1, VersionVector.zero(3))


def sent(sim, n):
    """The last `n` events scheduled, oldest first."""
    return sorted(sim.heap, key=lambda e: e[1])[-n:]


class TestLinkModel:
    def test_every_link_delay_is_half_its_configured_round_trip(self):
        cfg = three_dc_cfg()
        sim = Simulation(cfg)
        expected = {}
        for a in range(3):
            for b in range(3):
                expected[f"dc{a}", f"dc{b}"] = cfg.dc_rtt(a, b) // 2
            for idx in range(cfg.num_scouts):
                one_way = cfg.scout_rtt(idx, a) // 2
                expected[f"s{idx}", f"dc{a}"] = expected[f"dc{a}", f"s{idx}"] = one_way
        assert sim.delays == expected
        assert sim.delays["dc0", "dc1"] == 30 and sim.delays["dc1", "dc0"] == 40
        # profiles are cycled: scout 4 has scout 1's
        assert sim.delays["s4", "dc2"] == sim.delays["dc2", "s4"] == 23

    def test_default_round_trips(self):
        sim = Simulation(three_dc_cfg(rtt_dc_ms=None, scout_rtt_ms=None))
        assert {d for (a, b), d in sim.delays.items() if a == b} == {0}
        assert {d for (a, b), d in sim.delays.items() if a != b and "s" not in a + b} == {50}
        assert {d for (a, b), d in sim.delays.items() if "s" in a + b} == {15}

    def test_a_send_is_scheduled_one_link_delay_later(self):
        sim = Simulation(three_dc_cfg())
        sim.time = 7
        for sid in ("s0", "s2", "s4"):
            for dc in ("dc0", "dc1", "dc2"):
                sim.send(sid, dc, session_request(sid))
                ((at, _, kind, (src, dst, _)),) = sent(sim, 1)
                assert (at, kind, src, dst) == (7 + sim.delays[sid, dc], "deliver", sid, dc)

    def test_fifo_holds_a_message_behind_a_slower_one_on_its_link(self):
        sim = Simulation(three_dc_cfg())
        sim.send("s0", "dc2", session_request("s0"))  # due at 75
        sim.time = 70
        sim.send("s0", "dc2", session_request("s0"))  # due at 145
        sim.time = 71
        sim.send("s0", "dc0", session_request("s0"))
        assert [e[0] for e in sent(sim, 3)] == [75, 145, 81]
        sim.delays["s0", "dc2"] = 5  # as if the link became faster
        sim.send("s0", "dc2", session_request("s0"))
        assert sent(sim, 1)[0][0] == 145

    def test_nothing_is_blocked_without_a_fault(self):
        sim = Simulation(three_dc_cfg())
        assert not any(sim._blocked(a, b) for a, b in sim.delays)

    @pytest.mark.parametrize(
        "fault, undo, cut",
        [
            (
                FaultEvent(at=0, kind="partition", links=[["dc0", "dc2"]]),
                FaultEvent(at=0, kind="heal", links=[["dc0", "dc2"]]),
                {("dc0", "dc2"), ("dc2", "dc0")},
            ),
            (
                FaultEvent(at=0, kind="dc_crash", dc=1),
                FaultEvent(at=0, kind="dc_recover", dc=1),
                {(a, b) for a in ["dc1"] for b in ["dc0", "dc1", "dc2", "s0", "s1", "s2", "s3", "s4"]},
            ),
            (
                FaultEvent(at=0, kind="scout_disconnect", scout="s3"),
                FaultEvent(at=0, kind="scout_reconnect", scout="s3"),
                {("s3", "dc0"), ("s3", "dc1"), ("s3", "dc2")},
            ),
        ],
        ids=["partition", "dc_crash", "scout_disconnect"],
    )
    def test_a_fault_blocks_its_links_until_undone(self, fault, undo, cut):
        sim = Simulation(three_dc_cfg())
        cut |= {(b, a) for a, b in cut}
        sim._apply_fault(fault)
        assert {link for link in sim.delays if sim._blocked(*link)} == cut & set(sim.delays)
        sim._apply_fault(undo)
        assert not any(sim._blocked(a, b) for a, b in sim.delays)
        assert not (sim.partitions or sim.crashed or sim.disconnected)

    def test_a_blocked_send_is_dropped(self):
        sim = Simulation(three_dc_cfg())
        sim._apply_fault(FaultEvent(at=0, kind="partition", links=[["s1", "dc0"]]))
        queued = len(sim.heap)
        sim.send("dc0", "s1", session_request("s1"))
        assert len(sim.heap) == queued and sim.stats["dropped"] == 1


class TestFaults:
    def test_partition_drops_and_heals(self):
        cfg = small_cfg(
            k=1,
            faults=[
                FaultEvent(at=10, kind="partition", links=[["dc0", "dc1"]]),
                FaultEvent(at=400, kind="heal", links=[["dc0", "dc1"]]),
            ],
        )
        sim = Simulation(cfg, scripts={"s0": [inc_tx(5)], "s1": []})
        res = sim.run()
        assert sim.stats["dropped"] > 0
        assert res.synced
        final = res.trace[-1]
        assert all(d["values"]["ctr:0#counter"] == 5 for d in final["dcs"].values())

    def test_crash_loses_volatile_keeps_durable(self):
        cfg = small_cfg(
            k=1,
            faults=[
                FaultEvent(at=100, kind="dc_crash", dc=1),
                FaultEvent(at=300, kind="dc_recover", dc=1),
            ],
        )
        sim = Simulation(cfg, scripts={"s0": [inc_tx(5)], "s1": []})
        res = sim.run()
        assert res.synced
        final = res.trace[-1]
        assert final["dcs"]["dc1"]["values"]["ctr:0#counter"] == 5

    def test_disconnected_scout_cached_ops_proceed(self):
        warm = read_tx()
        cfg = small_cfg(
            think_ms=10,
            faults=[
                FaultEvent(at=60, kind="scout_disconnect", scout="s0"),
                FaultEvent(at=500, kind="scout_reconnect", scout="s0"),
            ],
        )
        # the first read warms the cache; later reads hit it while offline
        sim = Simulation(cfg, scripts={"s0": [warm] + [read_tx() for _ in range(10)], "s1": []})
        res = sim.run()
        offline_commits = [
            e
            for e in res.trace
            if e["ev"] == "local_commit" and 60 <= e["t"] < 500 and e["node"] == "s0"
        ]
        assert offline_commits and all(c["rts"] == 0 for c in offline_commits)

    def test_disconnected_miss_is_unavailable(self):
        other = ObjectId("other", CrdtType.COUNTER)
        miss = {"kind": "tx", "label": "miss", "ops": [("read", other)]}
        cfg = small_cfg(
            think_ms=10,
            drain_ms=400,
            horizon_ms=2500,
            faults=[FaultEvent(at=65, kind="scout_disconnect", scout="s0")],
        )
        script = [read_tx(), read_tx(), read_tx(), miss]
        sim = Simulation(cfg, scripts={"s0": script, "s1": []})
        res = sim.run()
        aborts = [e for e in res.trace if e["ev"] == "tx_abort" and e["node"] == "s0"]
        assert aborts  # the missing object cannot be fetched offline

    def test_crash_after_durable_commit_before_reply(self):
        cfg = small_cfg(
            k=1,
            retry_ms=80,
            faults=[
                FaultEvent(at=0, kind="dc_crash_on_commit", dc=0),
                FaultEvent(at=200, kind="dc_recover", dc=0),
            ],
        )
        sim = Simulation(cfg, scripts={"s0": [inc_tx(10)], "s1": []})
        res = sim.run()
        report = run_checks(res.trace)
        assert report["ok"], report["verdicts"]
        final = res.trace[-1]
        # applied exactly once everywhere despite the replayed commit
        assert all(d["values"]["ctr:0#counter"] == 10 for d in final["dcs"].values())
        replies = [e for e in res.trace if e["ev"] == "commit_reply"]
        assert any(e["status"] in ("existing", "new") for e in replies)


class TestScripts:
    def test_a_fetch_out_across_a_reconnect_is_sent_once_and_counted_once(self):
        # the fetch sent at 20 ms is lost with the link; the reconnect at
        # 100 ms reissues it, and the script waits for that reply
        cfg = small_cfg(
            num_scouts=1,
            faults=[
                FaultEvent(at=25, kind="scout_disconnect", scout="s0"),
                FaultEvent(at=100, kind="scout_reconnect", scout="s0"),
            ],
        )
        sim = Simulation(cfg, scripts={"s0": [inc_tx()]})
        fetches = []
        send = sim.send

        def noting_send(src, dst, msg):
            if isinstance(msg, FetchRequest):
                fetches.append(sim.now())
            send(src, dst, msg)

        sim.send = noting_send
        res = sim.run()
        assert fetches[0] == 20 and len([t for t in fetches if t >= 100]) == 1
        assert [e["rts"] for e in res.trace if e["ev"] == "local_commit"] == [1]
        assert res.synced

    def test_reading_an_unset_register_does_not_stall_the_script(self):
        # an unset register reads as None, which `Scout.read` also returns
        # after sending a fetch
        reg = ObjectId("reg", CrdtType.LWW_REGISTER)
        script = [
            {"kind": "tx", "label": "peek", "ops": [("read", reg)]},
            {"kind": "tx", "label": "set", "ops": [("read", reg), ("update", reg, ("assign", 7))]},
        ]
        sim = Simulation(small_cfg(num_scouts=1, horizon_ms=20_000), scripts={"s0": script})
        res = sim.run()
        assert len([e for e in res.trace if e["ev"] == "local_commit"]) == 2
        assert res.synced and res.trace[-1]["t"] < 1000


class TestQuiescence:
    def test_clean_run_reports_synced(self):
        cfg = small_cfg()
        sim = Simulation(cfg, scripts={"s0": [inc_tx()], "s1": [read_tx()]})
        res = sim.run()
        assert res.synced
        assert res.trace[-1]["ev"] == "quiesce"

    def test_unhealed_partition_reports_unsynced(self):
        cfg = small_cfg(
            k=1,
            drain_ms=300,
            faults=[FaultEvent(at=10, kind="partition", links=[["dc0", "dc1"]])],
        )
        sim = Simulation(cfg, scripts={"s0": [inc_tx(5)], "s1": []})
        res = sim.run()
        assert not res.synced

    @pytest.mark.parametrize(
        "later, synced",
        [([], False), ([3000], True), ([3000, 3500], False)],
        ids=["cut-off", "reconnected", "cut-off-again"],
    )
    def test_a_script_left_on_a_scout_cut_off_for_good_ends_the_run(self, later, synced):
        # s1 is cut off mid-script at 100 ms; the run ends once every other
        # script is done and the drain has passed, not at the 600 s horizon,
        # unless a later reconnect lets s1 finish
        faults = [{"at": 100, "kind": "scout_disconnect", "scout": "s1"}]
        for i, at in enumerate(later):
            kind = "scout_reconnect" if i % 2 == 0 else "scout_disconnect"
            faults.append({"at": at, "kind": kind, "scout": "s1"})
        scenario = dict(load_scenario("social-90-10"), faults=faults)
        start = time.perf_counter()
        res = run_scenario(scenario, seed=1)
        assert time.perf_counter() - start < 1.0
        assert res.synced == synced and res.trace[-1]["t"] < 10_000
        report = run_checks(res.trace)
        assert report["ok"], report["verdicts"]
        skipped = report["verdicts"]["convergence"]["skipped"]
        assert (skipped is None) == synced


class TestValidation:
    def test_k_beyond_dcs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(num_dcs=2, k=3).validate()

    def test_unknown_commit_target_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(commit_target="nearest").validate()

    def test_unknown_mutation_rejected(self):
        # a misspelt negative control must not pass as a clean run
        with pytest.raises(ValueError, match="disable_dedupe"):
            small_cfg(mutations=["disable_dedupe"]).validate()
        small_cfg(mutations=["disable_dedup", "reorder_session"]).validate()

    @pytest.mark.parametrize("at", [10, 5_000])
    def test_unknown_fault_kind_rejected(self, at):
        # at 5 s the fault lies past the horizon and would never fire
        bad = FaultEvent(at=at, kind="dc_reboot", dc=0)
        with pytest.raises(ValueError, match="dc_reboot"):
            small_cfg(horizon_ms=4_000, faults=[bad]).validate()

    def test_rtt_matrices_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="rtt_dc_ms"):
            small_cfg(num_dcs=3, k=1).validate()  # a 2x2 matrix
        with pytest.raises(ValueError, match="rtt_dc_ms"):
            small_cfg(rtt_dc_ms=[[0, 60], [60]]).validate()
        with pytest.raises(ValueError, match="scout_rtt_ms"):
            small_cfg(scout_rtt_ms=[[20, 50], [20]]).validate()
        with pytest.raises(ValueError, match="scout_rtt_ms"):
            small_cfg(scout_rtt_ms=[]).validate()

    # zero notify, prune or retry periods loop at one instant, a zero gossip
    # period divides by zero, and negative values fail in mid-run; so these
    # are checked on configs and on simulations built, never run
    @pytest.mark.parametrize(
        "key, value",
        [
            ("gossip_ms", 0),
            ("gossip_ms", -5),
            ("notify_ms", 0),
            ("prune_ms", 0),
            ("retry_ms", 0),
            ("jitter_ms", -3),
        ],
    )
    def test_a_tick_period_that_hangs_or_crashes_a_run_is_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            small_cfg(**{key: value}).validate()
        with pytest.raises(ValueError, match=key):
            Simulation(small_cfg(**{key: value}), scripts={})

    def test_the_smallest_tick_periods_are_accepted(self):
        small_cfg(gossip_ms=1, notify_ms=1, prune_ms=1, retry_ms=1, jitter_ms=0).validate()

    def test_a_preset_with_more_dcs_than_its_matrix_fails_at_validation(self):
        # the preset's matrices are 3x3
        with pytest.raises(ValueError, match="rtt_dc_ms must be 5x5"):
            run_scenario(load_scenario("social-90-10"), seed=1, overrides={"num_dcs": 5})


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_gc_setting(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert Simulation(small_cfg(), scripts={"s0": [inc_tx()]}).run().synced
        assert gc.isenabled() == enabled
        bad = {"kind": "tx", "label": "bad", "ops": [("frob", CTR)]}
        with pytest.raises(ValueError):
            Simulation(small_cfg(), scripts={"s0": [bad]}).run()
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


# the benchmark's churn workload, at the size the benchmark runs it
CHURN_FAULTS = Path(__file__).parents[1] / "perfbench" / "scenarios" / "churn-faults.json"
CHURN_SIZE = ({"num_scouts": 12}, {"txs_per_scout": 50})
GC_MUTATIONS = {
    "plain": {},
    "dedup-off": {"prune_ms": 200, "mutations": ["disable_dedup"]},
    "session-reorder": {"mutations": ["reorder_session", "disable_guards"]},
    "k-gating-off": {"mutations": ["disable_k_gating"]},
}


@pytest.mark.parametrize("mutation", sorted(GC_MUTATIONS))
@pytest.mark.parametrize("name", [*PRESETS, "churn-faults", "cut-off"])
def test_a_run_leaves_no_cyclic_garbage(name, mutation):
    """Simulation.run pauses the cyclic collector, which is sound only while
    a run makes no reference cycles for it to free. A cycle the collector
    would not see, or would see only later, still keeps the run alive."""
    overrides, wl = dict(GC_MUTATIONS[mutation]), None
    if name == "churn-faults":
        scenario = load_scenario(CHURN_FAULTS)
        overrides.update(CHURN_SIZE[0])
        wl = CHURN_SIZE[1]
    elif name == "cut-off":
        # s1 is cut off for good mid-script, so its script never finishes
        cut = {"at": 100, "kind": "scout_disconnect", "scout": "s1"}
        scenario = dict(load_scenario("social-90-10"), faults=[cut])
        overrides["horizon_ms"] = 5000
    else:
        scenario = load_scenario(name)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sim = build_simulation(scenario, seed=1, overrides=overrides, workload_overrides=wl)
        run = weakref.ref(sim)
        sim.run()
        del sim
        assert run() is None, "the simulation outlived its run"
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()
