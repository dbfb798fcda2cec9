import pytest

from causalsim.clocks import CausalClock, Otid, VersionVector
from causalsim.crdt import (
    CounterState,
    CrdtType,
    EffectTag,
    ObjectId,
    new_state,
    object_to_wire,
    prepare,
    value_to_wire,
)
from causalsim.messages import FetchReply, NotifyBatch, SessionReply, SessionRequest
from causalsim.scenarios import PRESETS, load_scenario, run_scenario, sim_config
from causalsim.checker import TraceAnalysis, run_checks
from causalsim.scout import CachePinOverflow, Scout, Unavailable, UsageError
from causalsim.sim import SimConfig, Simulation
from causalsim.workload import counter_scripts
from test_pins import CHURN
from test_wire_forms import tally

CTR = ObjectId("ctr:0", CrdtType.COUNTER)
SET = ObjectId("set:0", CrdtType.AW_SET)


def harness(num_scouts=1, num_dcs=2, **kw):
    """A tiny simulation used as a live environment for scout unit tests."""
    defaults = dict(
        num_dcs=num_dcs,
        num_scouts=num_scouts,
        k=1,
        rtt_dc_ms=[[0] * num_dcs for _ in range(num_dcs)],
        scout_rtt_ms=[[0] * num_dcs],
        gossip_ms=10,
        notify_ms=10,
        retry_ms=100,
        think_ms=0,
        cache_capacity=4,
        seed=1,
    )
    defaults.update(kw)
    return Simulation(SimConfig(**defaults))


def events(sim, kind):
    return [e for e in sim.trace_log if e.get("ev") == kind]


class RecordingEnv:
    """Keeps what a scout sends and traces, at time 0."""

    def __init__(self):
        self.sent = []
        self.events = []

    def now(self):
        return 0

    def send(self, src, dst, msg):
        self.sent.append((dst, msg))

    def trace(self, ev):
        self.events.append(ev)

    def requests(self):
        """(destination, message) for every message sent but session probes."""
        return [(dst, m) for dst, m in self.sent if not isinstance(m, SessionRequest)]


class TestLifecycle:
    def test_begin_freezes_snapshot_and_otid(self):
        sim = harness()
        s = sim.scouts["s0"]
        tx = s.begin(sim)
        assert tx.otid == Otid(1, "s0")
        assert tx.snapshot == CausalClock.zero(2)

    def test_double_begin_rejected(self):
        sim = harness()
        s = sim.scouts["s0"]
        s.begin(sim)
        with pytest.raises(UsageError):
            s.begin(sim)

    def test_fresh_scout_first_tx_example(self):
        # first transaction: OTID counter 1, snapshot all zero
        sim = harness(num_dcs=2)
        s = sim.scouts["s0"]
        tx = s.begin(sim)
        assert str(tx.snapshot) == "[0,0|0]"

    def test_update_requires_prior_read(self):
        sim = harness()
        s = sim.scouts["s0"]
        s.session = 0
        tx = s.begin(sim)
        with pytest.raises(UsageError):
            s.update(sim, tx, CTR, ("inc", 1))

    def test_rollback_discards_everything(self):
        sim = harness()
        s = sim.scouts["s0"]
        s.session = 0
        s.cache_seed = None
        tx = s.begin(sim)
        s.admit(sim, CTR, new_state(CrdtType.COUNTER), VersionVector.zero(2))
        assert s.read(sim, tx, CTR) == 0
        s.update(sim, tx, CTR, ("inc", 5))
        s.rollback(sim, tx)
        assert s.pending == []
        assert s.clock.local_part == 0
        tx2 = s.begin(sim)
        assert s.read(sim, tx2, CTR) == 0

    def test_local_commit_bumps_local_clock(self):
        sim = harness()
        s = sim.scouts["s0"]
        s.session = 0
        tx = s.begin(sim)
        s.admit(sim, SET, new_state(CrdtType.AW_SET), VersionVector.zero(2))
        s.read(sim, tx, SET)
        s.update(sim, tx, SET, ("add", "x"))
        s.commit(sim, tx)
        assert str(s.clock) == "[0,0|1]"
        # local: pending, with no alias acked
        assert [(pc.request.otid, pc.gtids) for pc in s.pending] == [(Otid(1, "s0"), [])]

    def test_read_only_commit_skips_queue(self):
        sim = harness()
        s = sim.scouts["s0"]
        s.session = 0
        s.admit(sim, CTR, new_state(CrdtType.COUNTER), VersionVector.zero(2))
        tx = s.begin(sim)
        s.read(sim, tx, CTR)
        s.commit(sim, tx)
        assert s.pending == []
        assert s.clock.local_part == 0

    def test_read_own_writes_within_tx(self):
        sim = harness()
        s = sim.scouts["s0"]
        s.session = 0
        s.admit(sim, SET, new_state(CrdtType.AW_SET), VersionVector.zero(2))
        tx = s.begin(sim)
        s.read(sim, tx, SET)
        s.update(sim, tx, SET, ("add", "a"))
        assert s.read(sim, tx, SET) == frozenset({"a"})

    def test_miss_while_disconnected_is_unavailable(self):
        sim = harness()
        s = sim.scouts["s0"]
        tx = s.begin(sim)
        with pytest.raises(Unavailable):
            s.read(sim, tx, CTR)


class TestCache:
    def test_lru_eviction_order(self):
        sim = harness(cache_capacity=2)
        s = sim.scouts["s0"]
        a = ObjectId("a", CrdtType.COUNTER)
        b = ObjectId("b", CrdtType.COUNTER)
        c = ObjectId("c", CrdtType.COUNTER)
        zero = VersionVector.zero(2)
        s.admit(sim, a, new_state(CrdtType.COUNTER), zero)
        s.admit(sim, b, new_state(CrdtType.COUNTER), zero)
        s.session = 0
        tx = s.begin(sim)
        s.read(sim, tx, a)  # touch a, so b is the LRU victim
        s.commit(sim, tx)
        s.admit(sim, c, new_state(CrdtType.COUNTER), zero)
        assert set(s.cache) == {a, c}
        assert b in s.pending_unsub

    def test_pinned_entries_never_evicted(self):
        sim = harness(cache_capacity=2)
        s = sim.scouts["s0"]
        zero = VersionVector.zero(2)
        a = ObjectId("a", CrdtType.COUNTER)
        b = ObjectId("b", CrdtType.COUNTER)
        c = ObjectId("c", CrdtType.COUNTER)
        s.admit(sim, a, new_state(CrdtType.COUNTER), zero, pin=True)
        s.admit(sim, b, new_state(CrdtType.COUNTER), zero)
        s.admit(sim, c, new_state(CrdtType.COUNTER), zero)
        assert a in s.cache and c in s.cache and b not in s.cache

    def test_all_pinned_overflow(self):
        sim = harness(cache_capacity=1)
        s = sim.scouts["s0"]
        zero = VersionVector.zero(2)
        s.admit(sim, CTR, new_state(CrdtType.COUNTER), zero, pin=True)
        with pytest.raises(CachePinOverflow):
            s.admit(sim, SET, new_state(CrdtType.AW_SET), zero)

    def test_zero_capacity_admits_nothing(self):
        sim = harness(cache_capacity=0)
        s = sim.scouts["s0"]
        s.admit(sim, CTR, new_state(CrdtType.COUNTER), VersionVector.zero(2))
        assert len(s.cache) == 0


class TestFetchReply:
    def _fetching(self, **kw):
        sim = harness(**kw)
        s = sim.scouts["s0"]
        s.session = 0
        tx = s.begin(sim)
        assert s.read(sim, tx, CTR) is None  # a miss: the fetch is out
        return sim, s, tx

    def _reply(self, s, snap, admit):
        admit_state = None if admit is None else CounterState(admit)
        versions = [(CTR, CounterState(snap), admit_state)]
        return FetchReply(s.fetch.req_id, "ok", versions, VersionVector.zero(2))

    def test_one_state_serves_the_transaction_and_the_cache(self):
        sim, s, tx = self._fetching()
        reply = self._reply(s, 3, None)
        s.on_fetch_reply(sim, reply)
        # the very state the reply carries
        assert tx.working[CTR] is s.cache[CTR].state is reply.versions[0][1]
        assert s.read(sim, tx, CTR) == 3

    def test_a_separate_admit_state_goes_to_the_cache(self):
        sim, s, tx = self._fetching()
        reply = self._reply(s, 3, 1)
        s.on_fetch_reply(sim, reply)
        assert s.read(sim, tx, CTR) == 3
        _, snap, admit = reply.versions[0]
        assert tx.working[CTR] is snap and s.cache[CTR].state is admit

    def test_a_reply_without_a_frontier_is_read_and_not_cached(self):
        # what a DC sends a session without a cache
        sim, s, tx = self._fetching()
        versions = [(CTR, CounterState(3), None)]
        s.on_fetch_reply(sim, FetchReply(s.fetch.req_id, "ok", versions))
        assert s.read(sim, tx, CTR) == 3
        assert CTR not in s.cache and s.fetch is None

    def test_a_pruned_reply_rolls_the_transaction_back(self):
        sim, s, tx = self._fetching()
        s.on_fetch_reply(sim, FetchReply(s.fetch.req_id, "pruned", []))
        assert tx.status == "rolledBack" and s.tx is None and s.fetch is None
        failed, aborted = events(sim, "read_failed"), events(sim, "tx_abort")
        assert sim.trace_log[-2:] == failed + aborted
        assert failed[0]["t"] == aborted[0]["t"]

    def test_a_batch_that_arrives_during_a_fetch_is_applied_at_once(self):
        sim, s, tx = self._fetching()
        nxt = VersionVector((1, 0))
        s.on_notify(sim, NotifyBatch(0, s.session_epoch, VersionVector.zero(2), nxt, [], []))
        assert s.fetch is not None
        assert s.clock.dc_part == nxt
        assert events(sim, "notify")[-1]["frontier"] == [1, 0]
        # the reply, sent after the batch on the same link, is at the clock
        versions = [(CTR, CounterState(3), None)]
        s.on_fetch_reply(sim, FetchReply(s.fetch.req_id, "ok", versions, nxt))
        assert s.cache[CTR].state is versions[0][1]

    @pytest.mark.parametrize("guards", [True, False])
    def test_a_reply_off_the_clock_is_cached_only_without_guards(self, guards):
        sim, s, tx = self._fetching(mutations=[] if guards else ["disable_guards"])
        ahead = VersionVector((1, 0))
        versions = [(CTR, CounterState(3), None)]
        s.on_fetch_reply(sim, FetchReply(s.fetch.req_id, "ok", versions, ahead))
        assert s.read(sim, tx, CTR) == 3  # its transaction reads it either way
        s.commit(sim, tx)
        assert (CTR in s.cache) is not guards
        tx = s.begin(sim)
        if guards:
            assert s.read(sim, tx, CTR) is None  # a miss: the fetch is out
        else:
            assert s.read(sim, tx, CTR) == 3


class TestStash:
    """An open transaction reads an object as the cache held it when a
    change to the object's entry came in."""

    NEXT = VersionVector((1, 0))

    def _cached(self):
        # s0, connected to dc0, with ctr:0 cached at its clock
        sim = harness()
        s = sim.scouts["s0"]
        s.session, s.session_epoch, s.ever_connected = 0, 1, True
        s.admit(sim, CTR, CounterState(5), VersionVector.zero(2))
        tx = s.begin(sim)
        return sim, s, tx

    def _notify(self, sim, s, items):
        s.on_notify(sim, NotifyBatch(0, 1, VersionVector.zero(2), self.NEXT, items, []))
        assert s.clock.dc_part == self.NEXT

    def test_an_invalidated_entry_is_read_as_it_was_then_missed(self):
        sim, s, tx = self._cached()
        self._notify(sim, s, [("invalidate", [CTR])])
        assert s.cache[CTR].state is None
        assert s.read(sim, tx, CTR) == 5
        s.rollback(sim, tx)
        assert s.read(sim, s.begin(sim), CTR) is None  # a miss: the fetch is out
        assert s.fetch is not None

    def test_an_entry_a_batch_changes_is_read_as_it_was_by_an_older_snapshot(self):
        sim, s, tx = self._cached()
        effect = prepare(CTR, CounterState(5), ("inc", 2), EffectTag(1, "s1", 0))
        self._notify(sim, s, [("effects", [effect])])
        assert s.read(sim, tx, CTR) == 5
        s.rollback(sim, tx)
        assert s.read(sim, s.begin(sim), CTR) == 7


@pytest.mark.parametrize("name", PRESETS)
def test_social_presets_pass_every_check_with_invalidations(name):
    # an object evicted and admitted again by one fetch reply stays subscribed
    result = run_scenario(load_scenario(name), seed=1, overrides={"notify_mode": "invalidations"})
    report = run_checks(result.trace)
    assert result.synced
    assert report["ok"], {k: v["violations"][:3] for k, v in report["verdicts"].items()}


def run_pair(scripts, **kw):
    defaults = dict(
        num_dcs=2,
        num_scouts=len(scripts),
        k=1,
        rtt_dc_ms=[[0, 40], [40, 0]],
        scout_rtt_ms=[[10, 30]],
        gossip_ms=10,
        notify_ms=10,
        retry_ms=100,
        think_ms=2,
        cache_capacity=8,
        seed=5,
        drain_ms=600,
    )
    defaults.update(kw)
    sim = Simulation(SimConfig(**defaults), scripts=scripts)
    return sim, sim.run()


class TestZeroNetworkProperty:
    def test_cached_update_tx_needs_no_round_trip(self):
        warm = {"kind": "tx", "label": "warm", "ops": [("read", SET)]}
        hot = {
            "kind": "tx",
            "label": "hot",
            "ops": [("read", SET), ("update", SET, ("add", "x"))],
        }
        sim, res = run_pair({"s0": [warm, hot, hot]})
        commits = [e for e in res.trace if e["ev"] == "local_commit"]
        assert commits[0]["rts"] == 1  # cold read fetches once
        assert commits[1]["rts"] == 0 and commits[2]["rts"] == 0
        assert commits[1]["dur"] == 0  # begin-to-commit at one instant

    def test_multi_read_batches_misses_into_one_round_trip(self):
        objs = [ObjectId(f"o{i}", CrdtType.COUNTER) for i in range(3)]
        tx = {"kind": "tx", "label": "batch", "ops": [("multi", objs)]}
        sim, res = run_pair({"s0": [tx]})
        commits = [e for e in res.trace if e["ev"] == "local_commit"]
        assert commits[0]["rts"] == 1


class TestDurabilityStatus:
    def test_status_progresses_to_k_durable(self):
        update = {
            "kind": "tx",
            "label": "up",
            "ops": [("read", CTR), ("update", CTR, ("inc", 3))],
        }
        sim, res = run_pair({"s0": [update]})
        s = sim.scouts["s0"]
        # K-durable: the clock covers the record, which left the queue
        assert s.clock.dc_part != VersionVector.zero(2)
        assert s.pending == []

    def test_k2_requires_second_replica(self):
        update = {
            "kind": "tx",
            "label": "up",
            "ops": [("read", CTR), ("update", CTR, ("inc", 3))],
        }
        # the second DC is unreachable: with K=2 the record stays pending
        sim, res = run_pair(
            {"s0": [update]},
            k=2,
            faults=[__import__("causalsim.sim", fromlist=["FaultEvent"]).FaultEvent(
                at=0, kind="partition", links=[["dc0", "dc1"]]
            )],
            drain_ms=300,
        )
        s = sim.scouts["s0"]
        # global: acked with an alias, and still pending
        assert len(s.pending) == 1
        assert s.pending[0].gtids and not any(s.clock.dc_part.covers(g) for g in s.pending[0].gtids)


class TestFailover:
    def test_clock_monotone_across_dc_switch(self):
        from causalsim.sim import FaultEvent

        txs = [
            {"kind": "tx", "label": "t", "ops": [("read", CTR), ("update", CTR, ("inc", 1))]}
            for _ in range(6)
        ]
        sim, res = run_pair(
            {"s0": txs},
            k=2,
            num_dcs=3,
            rtt_dc_ms=[[0, 40, 40], [40, 0, 40], [40, 40, 0]],
            scout_rtt_ms=[[10, 30, 50]],
            faults=[FaultEvent(at=120, kind="dc_crash", dc=0)],
            drain_ms=1500,
        )
        s = sim.scouts["s0"]
        assert s.connected and s.session in (1, 2)
        snaps = [e["snap"] for e in res.trace if e["ev"] == "tx_begin"]
        for a, b in zip(snaps, snaps[1:]):
            assert all(x <= y for x, y in zip(a[0], b[0])) and a[1] <= b[1]
        # all increments survive exactly once on the live replicas
        final = res.trace[-1]
        for name, info in final["dcs"].items():
            assert info["values"]["ctr:0#counter"] == 6

    def test_rejected_when_frontier_behind(self):
        sim = harness(num_dcs=2, k=1)
        s = sim.scouts["s0"]
        s.clock = CausalClock(VersionVector((23, 0)), 0)
        dc = sim.dcs[0]
        dc.vdc = VersionVector((22, 0))
        s.ensure_session(sim)
        # deliver the probe and the rejection
        while sim.heap:
            at, _, kind, payload = __import__("heapq").heappop(sim.heap)
            if kind != "deliver":
                continue
            sim.time = at
            sim._handle(kind, payload)
        assert not s.connected
        rejected = [e for e in sim.trace_log if e.get("ev") == "session"]
        assert rejected and rejected[-1]["result"] == "rejected"

    def test_a_new_session_is_sent_every_pending_request_as_first_sent(self):
        env = RecordingEnv()
        s = Scout("s0", num_dcs=2, cache_capacity=4)

        def connect(dc):
            s.ensure_session(env)
            assert s.probe_inflight == dc
            reply = SessionReply(dc, s.session_epoch, True)
            s.on_session_reply(env, reply)

        connect(0)
        s.admit(env, CTR, new_state(CrdtType.COUNTER), VersionVector.zero(2))
        for _ in range(2):
            tx = s.begin(env)
            s.read(env, tx, CTR)
            s.update(env, tx, CTR, ("inc", 1))
            s.commit(env, tx)
        s.exec_stored_tx(env, "tally", {"obj": "ctr:0", "n": 1})
        first = env.requests()
        assert [type(m).__name__ for _, m in first] == ["CommitRequest"] * 2 + ["StoredTxRequest"]
        assert {dst for dst, _ in first} == {"dc0"}

        s.on_session_lost(env)
        env.sent.clear()
        connect(1)
        again = env.requests()
        assert [dst for dst, _ in again] == ["dc1"] * 3
        assert [m for _, m in again] == [m for _, m in first]
        # the very messages first sent, not rebuilt copies
        assert all(a is b for (_, a), (_, b) in zip(again, first))


# -- every valid entry is at the clock -------------------------------------------

# name -> (scenario, sim overrides)
CLOCK_RUNS = {
    "preset": ("social-90-10", {}),
    "invalidations": ("social-90-10", {"notify_mode": "invalidations"}),
    "churn-pin": (CHURN, {}),
}


def entries_and_admits(name, monkeypatch):
    """Run `name` of CLOCK_RUNS. Return every valid cache entry after each
    batch a scout applies, as (object, value, the scout's clock as dc part,
    local part and id); the number of admits; the number of those off the
    scout's clock; and the trace."""
    seen, admits = [], [0, 0]
    on_notify, admit = Scout.on_notify, Scout.admit

    def noting_notify(scout, env, batch):
        applied = batch.dc == scout.session and batch.epoch == scout.session_epoch
        on_notify(scout, env, batch)
        if applied:
            ver = (tuple(scout.clock.dc_part), scout.clock.local_part, scout.id)
            seen.extend(
                (tuple(object_to_wire(obj)), value_to_wire(e.state), ver)
                for obj, e in scout.cache.items()
                if e.state is not None
            )

    def noting_admit(scout, env, obj, state, at, pin=False):
        admits[0] += 1
        admits[1] += at != scout.clock.dc_part
        admit(scout, env, obj, state, at, pin)

    monkeypatch.setattr(Scout, "on_notify", noting_notify)
    monkeypatch.setattr(Scout, "admit", noting_admit)
    base, overrides = CLOCK_RUNS[name]
    scenario = load_scenario(base) if isinstance(base, str) else base
    result = run_scenario(scenario, seed=1, overrides=overrides)
    return seen, *admits, result.trace


@pytest.mark.parametrize("name", sorted(CLOCK_RUNS))
def test_every_valid_entry_holds_the_oracle_value_at_the_clock(name, monkeypatch):
    seen, _, _, trace = entries_and_admits(name, monkeypatch)
    tr = TraceAnalysis(trace)
    assert seen
    wrong = [
        (obj, value, ver)
        for obj, value, ver in seen
        if value_to_wire(tr.oracle_value(obj, *ver)) != value
    ]
    assert not wrong, wrong[:3]


@pytest.mark.parametrize("name", ["preset", "churn-pin"])
def test_no_admit_lands_off_the_clock(name, monkeypatch):
    _, admits, off, _ = entries_and_admits(name, monkeypatch)
    assert admits and not off


# CHURN's faults and five more DC crashes, with fast pruning: a fetch reply
# that reaches s0 after its DC crashed and recovered carries ctr:0 at a
# frontier whose notify batches the crash lost, ahead of s0's clock
AHEAD_CRASHES = ((1, 31, 142), (2, 507, 537), (0, 873, 932), (1, 980, 1018), (2, 1366, 1401))


def churn_with_crashes(crashes):
    """CHURN with its faults plus a crash of `dc` from `down` to `up` ms for
    each (dc, down, up)."""
    faults = CHURN["faults"] + [
        {"at": at, "kind": kind, "dc": dc}
        for dc, down, up in crashes
        for at, kind in ((down, "dc_crash"), (up, "dc_recover"))
    ]
    return dict(CHURN, faults=faults)


def test_reads_skip_entries_admitted_ahead_of_the_clock():
    result = run_scenario(churn_with_crashes(AHEAD_CRASHES), seed=17, overrides={"prune_ms": 100})
    report = run_checks(result.trace)
    assert result.synced
    assert report["ok"], report["verdicts"]["causal_snapshots"]["violations"]


# CHURN's faults and eight more DC crashes: dc2's crash at 386 ms ends s0's
# session with a fetch out; s0's probe to dc1 lists its cache without ctr:0,
# so the new session never subscribes it, and the rebuilt dc2's reply to the
# fetch reaches s0 while the reply to that probe is still on its way
NO_SESSION_CRASHES = (
    (0, 62, 108),
    (0, 205, 221),
    (0, 507, 570),
    (1, 261, 287),
    (1, 1146, 1181),
    (1, 1645, 1761),
    (2, 386, 394),
    (2, 1219, 1338),
)


def test_a_fetch_reply_without_a_session_is_stale(monkeypatch):
    sessionless = []
    on_fetch_reply = Scout.on_fetch_reply

    def noting_reply(scout, env, reply):
        if not scout.connected and scout.fetch is not None and reply.req_id == scout.fetch.req_id:
            sessionless.append((scout.id, reply.req_id))
        on_fetch_reply(scout, env, reply)

    monkeypatch.setattr(Scout, "on_fetch_reply", noting_reply)
    result = run_scenario(
        churn_with_crashes(NO_SESSION_CRASHES), seed=50, overrides={"prune_ms": 200}
    )
    report = run_checks(result.trace)
    assert sessionless
    assert result.synced
    assert report["ok"], report["verdicts"]["causal_snapshots"]["violations"]


def stored_call_simulation():
    """CHURN's DCs without faults, with every third transaction a stored call
    that reads and increments the counter that transaction would have."""
    scripts = counter_scripts(6, 18, 4, seed=1)
    for script in scripts.values():
        for i in range(0, len(script), 3):
            obj, n = script[i]["ops"][0][1], i + 1
            params = {"obj": obj.key, "n": n}
            script[i] = {"kind": "stored", "name": "tally", "params": params}
    config = sim_config(dict(CHURN, faults=[]), seed=1)
    return Simulation(config, scripts=scripts, procedures={"tally": tally})


def test_a_stored_call_drops_the_cached_objects_it_updated(monkeypatch):
    dropped = []
    on_stored_reply = Scout.on_stored_reply

    def noting_reply(scout, env, reply):
        cached = [o for o in reply.objects if o in scout.cache]
        on_stored_reply(scout, env, reply)
        if cached:
            assert not any(o in scout.cache for o in cached)
            assert all(o in scout.pending_unsub for o in cached)
            dropped.extend(cached)

    monkeypatch.setattr(Scout, "on_stored_reply", noting_reply)
    result = stored_call_simulation().run()
    report = run_checks(result.trace)
    assert result.synced and dropped
    assert report["ok"], report["verdicts"]["causal_snapshots"]["violations"][:3]
