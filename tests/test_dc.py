import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from causalsim.clocks import CausalClock, Gtid, Otid, VersionVector
from causalsim.checker import run_checks
from causalsim.crdt import (
    CrdtType,
    EffectTag,
    ObjectId,
    apply_effect,
    new_state,
    prepare,
    value_of,
)
from causalsim.dc import (
    KEPT_VERSIONS,
    SILENT_TICKS,
    DataCenter,
    Session,
    VersionPruned,
    ack_wait_ticks,
)
from causalsim.scout import Scout
from causalsim.messages import (
    CommitRecord,
    CommitRequest,
    FetchRequest,
    GossipBatch,
    NotifyBatch,
    SessionRequest,
    StoredTxRequest,
    message_to_wire,
    record_to_wire,
)
from causalsim import dc as dc_module, mutants, sim
from causalsim.scenarios import load_scenario, run_scenario
from test_pins import CHURN


class FakeEnv:
    def __init__(self):
        self.sent = []
        self.events = []
        self.crashes = []

    def now(self):
        return 0

    def send(self, src, dst, msg):
        self.sent.append((src, dst, msg))

    def trace(self, ev):
        self.events.append(ev)

    def request_crash(self, dc_id):
        self.crashes.append(dc_id)

    def replies(self, kind=None):
        out = [m for _, _, m in self.sent]
        if kind is not None:
            out = [m for m in out if type(m).__name__ == kind]
        return out


def vv(*entries):
    return VersionVector(tuple(entries))


def clock(entries, local=0):
    return CausalClock(VersionVector(tuple(entries)), local)


B_FRD = ObjectId("user:B/frd", CrdtType.AW_SET)
C_FRD = ObjectId("user:C/frd", CrdtType.AW_SET)
A_FRD = ObjectId("user:A/frd", CrdtType.AW_SET)
CTR = ObjectId("ctr", CrdtType.COUNTER)


def set_add(obj, elem, otid, seq=0):
    return prepare(obj, new_state(CrdtType.AW_SET), ("add", elem), EffectTag(otid.counter, otid.origin, seq))


def commit_req(scout, counter, effects, deps=None, local=0):
    deps = deps if deps is not None else clock([0, 0], local)
    return CommitRequest(scout, Otid(counter, scout), deps, tuple(effects))


def friendship_dc():
    """DC0 after the two-transaction friendship example."""
    env = FakeEnv()
    dc = DataCenter(0, num_dcs=2, k=2)
    t1 = Otid(1, "A")
    dc.on_commit_request(
        env, commit_req("A", 1, [set_add(B_FRD, "A", t1, 0), set_add(A_FRD, "B", t1, 1)])
    )
    t3 = Otid(1, "C")
    dc.on_commit_request(
        env, commit_req("C", 1, [set_add(B_FRD, "C", t3, 0), set_add(C_FRD, "B", t3, 1)])
    )
    return env, dc


class TestGlobalCommit:
    def test_sequencer_assigns_next_counter(self):
        env, dc = friendship_dc()
        replies = env.replies("CommitReply")
        assert [r.status for r in replies] == ["new", "new"]
        assert replies[0].gtid == Gtid(1, 0)
        assert replies[1].gtid == Gtid(2, 0)
        assert dc.vdc == vv(2, 0)

    def test_resubmit_returns_existing_gtid(self):
        env, dc = friendship_dc()
        dc.on_commit_request(env, commit_req("C", 1, [set_add(B_FRD, "C", Otid(1, "C"))]))
        reply = env.replies("CommitReply")[-1]
        assert reply.status == "existing"
        assert reply.gtid == Gtid(2, 0)

    def test_unsatisfied_deps_queue(self):
        env = FakeEnv()
        dc = DataCenter(0, num_dcs=2, k=2)
        req = commit_req("X", 1, [set_add(B_FRD, "x", Otid(1, "X"))], deps=clock([0, 5]))
        dc.on_commit_request(env, req)
        assert env.replies() == []
        assert len(dc.pending_commits) == 1
        # duplicates of a queued request do not queue twice
        dc.on_commit_request(env, req)
        assert len(dc.pending_commits) == 1

    def test_dedup_disabled_applies_twice(self):
        env = FakeEnv()
        dc_class, _, _ = mutants.compose(["disable_dedup"], DataCenter, Scout)
        dc = dc_class(0, num_dcs=2, k=2)
        e = prepare(CTR, new_state(CrdtType.COUNTER), ("inc", 10), EffectTag(1, "C", 0))
        dc.on_commit_request(env, CommitRequest("C", Otid(1, "C"), clock([0, 0]), (e,)))
        dc.on_commit_request(env, CommitRequest("C", Otid(1, "C"), clock([0, 0]), (e,)))
        assert value_of(dc.materialize(CTR, clock([2, 0]))) == 20


class TestReadVersion:
    def test_snapshot_excludes_uncovered(self):
        env, dc = friendship_dc()
        assert value_of(dc.materialize(B_FRD, clock([0, 0]))) == frozenset()

    def test_snapshot_covers_first_commit(self):
        env, dc = friendship_dc()
        assert value_of(dc.materialize(B_FRD, clock([1, 0]))) == frozenset({"A"})

    def test_full_coverage_merges_both(self):
        env, dc = friendship_dc()
        assert value_of(dc.materialize(B_FRD, clock([2, 0]))) == frozenset({"A", "C"})

    def test_own_effects_visible_via_local_part(self):
        env, dc = friendship_dc()
        # scout C sees its own commit through the local counter even though
        # no DC entry covers it
        got = dc.materialize(B_FRD, clock([0, 0], local=1), own="C")
        assert value_of(got) == frozenset({"C"})

    def test_below_prune_frontier_fails(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(2, 0)
        dc.prune_tick(env)
        with pytest.raises(VersionPruned):
            dc.materialize(B_FRD, clock([0, 0]))


class TestRemoteCommit:
    def test_gossip_applies_and_advances(self):
        env, dc0 = friendship_dc()
        dc1 = DataCenter(1, num_dcs=2, k=2)
        env1 = FakeEnv()
        dc1.on_gossip(env1, GossipBatch(0, list(dc0.log), dc0.vdc))
        assert dc1.vdc == vv(2, 0)
        assert value_of(dc1.materialize(B_FRD, clock([2, 0]))) == frozenset({"A", "C"})
        assert dc1.known_vectors[0] == vv(2, 0)

    def test_dependency_gap_defers(self):
        env = FakeEnv()
        dc = DataCenter(1, num_dcs=2, k=2)
        # scout chain: second tx depends on the first via the local counter
        first = commit_req("S", 1, [set_add(B_FRD, "a", Otid(1, "S"))])
        second = commit_req("S", 2, [set_add(B_FRD, "b", Otid(2, "S"))], local=1)
        dc0 = DataCenter(0, num_dcs=2, k=2)
        env0 = FakeEnv()
        dc0.on_commit_request(env0, first)
        dc0.on_commit_request(env0, second)
        rec1, rec2 = dc0.log
        dc.on_gossip(env, GossipBatch(0, [rec2], vv(2, 0)))
        assert dc.vdc == vv(0, 0)
        assert len(dc.pending_remote) == 1
        dc.on_gossip(env, GossipBatch(0, [rec1], vv(2, 0)))
        assert dc.vdc == vv(2, 0)
        assert dc.pending_remote == {}

    def test_duplicate_otid_records_alias_without_reapply(self):
        env, dc = friendship_dc()
        t3 = dc.by_otid[Otid(1, "C")]
        copy = type(t3)(
            otid=t3.otid,
            gtids=(Gtid(1, 1),),
            deps=t3.deps,
            effects=t3.effects,
        )
        dc.on_gossip(env, GossipBatch(1, [copy], vv(0, 1)))
        merged = dc.by_otid[Otid(1, "C")]
        assert Gtid(1, 1) in merged.gtids and merged.primary_gtid == Gtid(2, 0)
        assert dc.vdc == vv(2, 1)
        assert value_of(dc.materialize(B_FRD, clock([2, 1]))) == frozenset({"A", "C"})


class TestGossipTick:
    def test_sends_missing_suffix(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(1, 0)
        env.sent.clear()
        dc.gossip_tick(env)
        (src, dst, batch), = env.sent
        assert dst == "dc1"
        assert [r.primary_gtid for r in batch.records] == [Gtid(2, 0)]
        assert batch.vdc == vv(2, 0)

    def test_up_to_date_peer_gets_heartbeat(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(2, 0)
        env.sent.clear()
        dc.gossip_tick(env)
        (_, _, batch), = env.sent
        assert batch.records == []

    def test_an_alias_merged_in_flight_stays_out_of_the_batch(self):
        """A batch carries the aliases its records had at the send: one the
        sender merges while the batch is in flight reaches no receiver."""
        env, dc = friendship_dc()
        dc.gossip_tick(env)
        (_, _, batch), = [m for m in env.sent if isinstance(m[2], GossipBatch)]
        t3 = dc.by_otid[Otid(1, "C")]
        alias = type(t3)(t3.otid, (Gtid(1, 1),), t3.deps, t3.effects)
        hear(dc, 1, vv(0, 1), [alias])
        assert t3.gtids == (Gtid(2, 0), Gtid(1, 1))
        peer = DataCenter(1, num_dcs=2, k=2)
        peer.on_gossip(FakeEnv(), batch)
        assert peer.by_otid[Otid(1, "C")].gtids == (Gtid(2, 0),)
        assert record_to_wire(batch.records[1])["gtids"] == [[2, 0]]


def tick(dc):
    """One gossip tick: destination -> OTIDs of the records sent there."""
    env = FakeEnv()
    dc.gossip_tick(env)
    return {dst: [r.otid for r in batch.records] for _, dst, batch in env.sent}


def hear(dc, src, vdc, records=()):
    dc.on_gossip(FakeEnv(), GossipBatch(src, list(records), vdc))


class TestSendMarks:
    BOTH = [Otid(1, "A"), Otid(1, "C")]

    def test_talking_peer_gets_each_record_once(self):
        env, dc = friendship_dc()
        hear(dc, 1, vv(0, 0))
        assert tick(dc) == {"dc1": self.BOTH}
        # the peer's next batch left before ours arrived
        hear(dc, 1, vv(0, 0))
        assert tick(dc) == {"dc1": []}
        dc.on_commit_request(env, commit_req("A", 2, [set_add(B_FRD, "D", Otid(2, "A"))]))
        hear(dc, 1, vv(0, 0))
        assert tick(dc) == {"dc1": [Otid(2, "A")]}

    def test_fresh_replica_gossips_on_its_first_tick(self):
        env, dc = friendship_dc()
        # at run start every peer is known to hold nothing
        assert dc.known_vectors == {1: vv(0, 0)}
        assert tick(dc) == {"dc1": self.BOTH}

    def test_silent_peer_gets_the_full_suffix_again(self):
        env, dc = friendship_dc()
        hear(dc, 1, vv(0, 0))
        assert tick(dc) == {"dc1": self.BOTH}
        hear(dc, 1, vv(0, 0))
        for _ in range(SILENT_TICKS - 1):
            assert tick(dc) == {"dc1": []}
        # a batch from the peer is overdue: heartbeats carrying our vdc, and
        # no marks, while it stays silent, even with a new record to send
        dc.on_commit_request(env, commit_req("A", 2, [set_add(B_FRD, "D", Otid(2, "A"))]))
        for _ in range(2):
            heartbeat = FakeEnv()
            dc.gossip_tick(heartbeat)
            ((_, _, batch),) = heartbeat.sent
            assert batch.records == [] and batch.vdc == vv(3, 0)
            assert dc.send_marks == {}
        # back, holding the first record: what it lacks goes out once
        hear(dc, 1, vv(1, 0))
        assert tick(dc) == {"dc1": [Otid(1, "C"), Otid(2, "A")]}
        hear(dc, 1, vv(1, 0))
        assert tick(dc) == {"dc1": []}

    def test_rebuilt_replica_starts_without_send_marks(self):
        env, dc = friendship_dc()
        hear(dc, 1, vv(0, 0))
        tick(dc)
        rebuilt = DataCenter.from_durable(dc.durable_snapshot(), 2, 2)
        assert rebuilt.send_marks == {} and rebuilt.quiet_ticks == {}
        assert rebuilt.known_vectors == {}
        # the peer is not heard yet: heartbeats only
        assert tick(rebuilt) == {"dc1": []}
        assert tick(rebuilt) == {"dc1": []}
        assert rebuilt.send_marks == {}
        # then the whole log it lacks, once
        hear(rebuilt, 1, vv(0, 0))
        assert tick(rebuilt) == {"dc1": self.BOTH}
        hear(rebuilt, 1, vv(0, 0))
        assert tick(rebuilt) == {"dc1": []}

    def test_a_send_left_unacknowledged_goes_out_again(self):
        env, dc = friendship_dc()
        hear(dc, 1, vv(0, 0))
        assert tick(dc) == {"dc1": self.BOTH}
        # the peer talks on every tick, but a round trip later its vector
        # still lacks the records: they were lost without a silence
        for _ in range(dc.ack_ticks[1] - 1):
            hear(dc, 1, vv(0, 0))
            assert tick(dc) == {"dc1": []}
        hear(dc, 1, vv(0, 0))
        assert tick(dc) == {"dc1": self.BOTH}
        hear(dc, 1, vv(0, 0))
        assert tick(dc) == {"dc1": self.BOTH}
        # acknowledged: each record goes out once again
        hear(dc, 1, vv(2, 0))
        assert tick(dc) == {"dc1": []}

    def test_a_record_above_a_gap_goes_out_until_the_gap_fills(self):
        dc = DataCenter(0, num_dcs=3, k=2)
        first, second = (
            CommitRecord(otid, [Gtid(n, 1)], CausalClock.zero(3), (inc(otid),))
            for n, otid in ((1, Otid(1, "x")), (2, Otid(1, "y")))
        )
        # slot 2 of DC1 arrives relayed by DC2, ahead of slot 1
        hear(dc, 1, vv(0, 0, 0))
        hear(dc, 2, vv(0, 0, 0), [second])
        assert tick(dc) == {"dc1": [second.otid], "dc2": [second.otid]}
        # the mark is the contiguous vdc, which stays below slot 2
        hear(dc, 1, vv(0, 0, 0))
        hear(dc, 2, vv(0, 0, 0))
        assert tick(dc) == {"dc1": [second.otid], "dc2": [second.otid]}
        hear(dc, 1, vv(0, 2, 0), [first])
        hear(dc, 2, vv(0, 0, 0))
        assert tick(dc) == {"dc1": [], "dc2": [second.otid, first.otid]}
        hear(dc, 1, vv(0, 2, 0))
        hear(dc, 2, vv(0, 0, 0))
        assert tick(dc) == {"dc1": [], "dc2": []}


class TestFrontiers:
    def test_k_durable_frontier_example(self):
        dc = DataCenter(0, num_dcs=3, k=2)
        dc.vdc = vv(3, 1, 0)
        dc.known_vectors = {1: vv(2, 2, 0), 2: vv(2, 0, 0)}
        assert dc.k_durable_frontier(2) == vv(2, 1, 0)
        assert dc.k_durable_frontier(1) == vv(3, 2, 0)

    def test_single_dc_k1(self):
        dc = DataCenter(0, num_dcs=1, k=1)
        dc.vdc = vv(4)
        assert dc.k_durable_frontier() == vv(4)

    def test_prune_vector_is_componentwise_min(self):
        env = FakeEnv()
        dc = DataCenter(0, num_dcs=3, k=2)
        dc.vdc = vv(3, 2, 0)
        dc.known_vectors = {1: vv(2, 2, 0), 2: vv(3, 1, 0)}
        assert dc.prune_tick(env) == vv(2, 1, 0)

    def test_unheard_peer_blocks_pruning(self):
        env = FakeEnv()
        dc = DataCenter(0, num_dcs=3, k=2)
        dc.vdc = vv(3, 2, 1)
        dc.known_vectors = {1: vv(2, 2, 0)}
        assert dc.prune_tick(env) == vv(0, 0, 0)


class TestPrune:
    def test_resubmit_after_prune_returns_null(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(2, 0)
        dc.prune_tick(env)
        assert dc.log == []
        dc.on_commit_request(env, commit_req("C", 1, [set_add(B_FRD, "C", Otid(1, "C"))]))
        reply = env.replies("CommitReply")[-1]
        assert reply.status == "null" and reply.gtid is None

    def test_checkpoint_serves_reads_after_prune(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(2, 0)
        dc.prune_tick(env)
        assert value_of(dc.materialize(B_FRD, clock([2, 0]))) == frozenset({"A", "C"})

    def test_max_otid_survives_prune(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(2, 0)
        dc.prune_tick(env)
        assert dc.max_otid["C"] == 1


class TestSessionsAndNotify:
    def test_withheld_until_k_durable(self):
        env, dc = friendship_dc()
        dc.on_session_request(env, SessionRequest("R", 1, vv(0, 0), [B_FRD]))
        env.sent.clear()
        dc.notify_tick(env)
        # only this DC holds the records: K=2 gate keeps the frontier at zero
        assert env.replies("NotifyBatch") == []
        dc.known_vectors[1] = vv(2, 0)
        dc.notify_tick(env)
        batch = env.replies("NotifyBatch")[0]
        assert batch.frontier == vv(2, 0)
        effects = [e for kind, payload in batch.items if kind == "effects" for e in payload]
        assert {e.target for e in effects} == {B_FRD}

    def test_unsubscribed_object_not_delivered(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(2, 0)
        dc.on_session_request(env, SessionRequest("R", 1, vv(0, 0), [CTR]))
        env.sent.clear()
        dc.notify_tick(env)
        batch = env.replies("NotifyBatch")[0]
        assert batch.items == [] and batch.frontier == vv(2, 0)

    def test_own_records_acked_before_k_durable(self):
        env, dc = friendship_dc()
        dc.on_session_request(env, SessionRequest("C", 1, vv(0, 0), []))
        env.sent.clear()
        dc.notify_tick(env)
        batch = env.replies("NotifyBatch")[0]
        assert (Otid(1, "C"), Gtid(2, 0)) in batch.acks

    def test_rejects_scout_ahead_of_frontier(self):
        env = FakeEnv()
        dc = DataCenter(0, num_dcs=3, k=2)
        dc.vdc = vv(22, 0, 0)
        dc.on_session_request(env, SessionRequest("S", 1, vv(23, 0, 0), []))
        reply = env.replies("SessionReply")[0]
        assert not reply.accepted

    def test_knowledge_makes_dc_eligible(self):
        env = FakeEnv()
        dc = DataCenter(0, num_dcs=3, k=2)
        dc.vdc = vv(22, 0, 0)
        dc.known_vectors = {1: vv(23, 0, 0), 2: vv(23, 0, 0)}
        dc.on_session_request(env, SessionRequest("S", 1, vv(23, 0, 0), []))
        assert env.replies("SessionReply")[0].accepted

    def test_each_logged_record_is_acked_once_per_session(self):
        def acks(dc, env):
            env.sent.clear()
            dc.notify_tick(env)
            return [a for b in env.replies("NotifyBatch") for a in b.acks]

        # the duplicate filter logs a re-sent commit once, so it is acked once
        resend = commit_req("C", 1, [set_add(B_FRD, "C", Otid(1, "C"))])
        env, dc = friendship_dc()
        dc.on_session_request(env, SessionRequest("C", 1, vv(0, 0), []))
        assert acks(dc, env) == [(Otid(1, "C"), Gtid(2, 0))]
        dc.on_commit_request(env, resend)
        assert acks(dc, env) == []
        # without the filter, both logged records are acked in one session
        dedup_off = mutants.compose(["disable_dedup"], DataCenter, Scout)[0]
        env, off = FakeEnv(), dedup_off(0, num_dcs=2, k=2)
        off.on_session_request(env, SessionRequest("C", 1, vv(0, 0), []))
        off.on_commit_request(env, resend)
        assert acks(off, env) == [(Otid(1, "C"), Gtid(1, 0))]
        off.on_commit_request(env, resend)
        assert acks(off, env) == [(Otid(1, "C"), Gtid(2, 0))]
        # a new session acks every logged record of its scout again
        dc.on_session_request(env, SessionRequest("C", 2, vv(0, 0), []))
        off.on_session_request(env, SessionRequest("C", 2, vv(0, 0), []))
        assert acks(dc, env) == [(Otid(1, "C"), Gtid(2, 0))]
        assert acks(off, env) == [(Otid(1, "C"), Gtid(1, 0)), (Otid(1, "C"), Gtid(2, 0))]

    def test_an_idle_session_is_skipped_until_its_scout_commits(self, monkeypatch):
        env, dc = friendship_dc()
        dc.on_session_request(env, SessionRequest("C", 1, vv(0, 0), []))
        taken = []
        take_acks = DataCenter._take_acks
        monkeypatch.setattr(
            DataCenter, "_take_acks", lambda dc, s: taken.append(s.scout) or take_acks(dc, s)
        )
        env.sent.clear()
        dc.notify_tick(env)  # the frontier stays at zero, but C's record is acked
        assert [b.acks for b in env.replies("NotifyBatch")] == [[(Otid(1, "C"), Gtid(2, 0))]]
        assert taken == ["C"]
        env.sent.clear()
        dc.notify_tick(env)
        assert env.replies("NotifyBatch") == [] and taken == ["C"]
        dc.on_commit_request(env, commit_req("C", 2, [set_add(C_FRD, "D", Otid(2, "C"))]))
        env.sent.clear()
        dc.notify_tick(env)
        assert [b.acks for b in env.replies("NotifyBatch")] == [[(Otid(2, "C"), Gtid(3, 0))]]
        assert taken == ["C", "C"]


class TestFetch:
    def test_fetch_serves_snapshot_and_admission(self):
        env, dc = friendship_dc()
        dc.on_session_request(env, SessionRequest("R", 1, vv(0, 0), []))
        env.sent.clear()
        dc.on_fetch_request(env, FetchRequest("R", 1, [B_FRD], clock([0, 0])))
        reply = env.replies("FetchReply")[0]
        assert reply.status == "ok"
        assert B_FRD in dc.sessions["R"].subscriptions

    def test_a_session_without_a_cache_gets_no_admit_state(self):
        env, dc = friendship_dc()
        for scout, caches in (("R", True), ("N", False)):
            dc.on_session_request(env, SessionRequest(scout, 1, vv(0, 0), [], caches))
            dc.on_fetch_request(env, FetchRequest(scout, 1, [B_FRD], clock([2, 0])))
        caching, cacheless = env.replies("FetchReply")
        snap = dc.materialize(B_FRD, clock([2, 0]), "R")
        assert caching.versions == [(B_FRD, snap, dc.materialize(B_FRD, clock([0, 0]), "R"))]
        assert cacheless.versions == [(B_FRD, snap, None)]
        assert dc.sessions["R"].subscriptions == {B_FRD}
        assert dc.sessions["N"].subscriptions == set()

    def test_fetch_ahead_of_state_defers(self):
        env = FakeEnv()
        dc = DataCenter(0, num_dcs=2, k=2)
        dc.on_session_request(env, SessionRequest("R", 1, vv(0, 0), []))
        env.sent.clear()
        dc.on_fetch_request(env, FetchRequest("R", 1, [B_FRD], clock([1, 0])))
        assert env.replies("FetchReply") == []
        assert len(dc.pending_fetches) == 1

    def test_a_replica_that_crashes_while_draining_serves_no_parked_fetch(self):
        dc = DataCenter(1, num_dcs=2, k=1)

        class CrashingEnv(FakeEnv):
            def request_crash(self, dc_id):
                super().request_crash(dc_id)
                dc.dead = True  # as the simulator marks the instance it replaces

        env = CrashingEnv()
        first = Otid(1, "A")
        dc.on_commit_request(
            env, commit_req("X", 1, [set_add(B_FRD, "x", Otid(1, "X"))], deps=clock([1, 0]))
        )
        dc.on_fetch_request(env, FetchRequest("R", 1, [B_FRD], clock([1, 0])))
        assert len(dc.pending_commits) == 1 and len(dc.pending_fetches) == 1
        dc.crash_on_next_commit = True
        effect = set_add(B_FRD, "A", first)
        record = CommitRecord(first, (Gtid(1, 0),), clock([0, 0]), (effect,))
        dc.on_gossip(env, GossipBatch(0, [record], vv(1, 0)))
        # the parked commit crashed the replica; its parked fetch stays unserved
        assert env.crashes == [1] and dc.dead
        assert env.replies("FetchReply") == []

    def test_fetch_below_prune_fails_fast(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(2, 0)
        dc.prune_tick(env)
        dc.on_session_request(env, SessionRequest("R", 1, vv(2, 0), []))
        env.sent.clear()
        dc.on_fetch_request(env, FetchRequest("R", 1, [B_FRD], clock([0, 0])))
        assert env.replies("FetchReply")[0].status == "pruned"


def wall_digest(params, reader):
    return reader(ObjectId(params["obj"], CrdtType.COUNTER)), []


def bump_counter(params, reader):
    obj = ObjectId(params["obj"], CrdtType.COUNTER)
    before = reader(obj)
    return before, [(obj, ("inc", params["by"]))]


class TestStoredTx:
    def _dc(self):
        env = FakeEnv()
        dc = DataCenter(0, num_dcs=2, k=2, procedures={"digest": wall_digest, "bump": bump_counter})
        e = prepare(CTR, new_state(CrdtType.COUNTER), ("inc", 7), EffectTag(1, "W", 0))
        dc.on_commit_request(env, CommitRequest("W", Otid(1, "W"), clock([0, 0]), (e,)))
        env.sent.clear()
        return env, dc

    def test_read_only_returns_value(self):
        env, dc = self._dc()
        dc.on_stored_request(
            env, StoredTxRequest("S", "digest", {"obj": "ctr"}, Otid(1, "S"), clock([1, 0]))
        )
        reply = env.replies("StoredTxReply")[0]
        assert reply.status == "new" and reply.results == 7 and reply.gtid is None

    def test_update_retry_applies_once(self):
        env, dc = self._dc()
        req = StoredTxRequest("S", "bump", {"obj": "ctr", "by": 5}, Otid(1, "S"), clock([1, 0]))
        dc.on_stored_request(env, req)
        first = env.replies("StoredTxReply")[0]
        dc.on_stored_request(env, req)
        second = env.replies("StoredTxReply")[1]
        assert first.status == "new" and second.status == "existing"
        assert first.gtid == second.gtid
        assert first.results == second.results == 7
        assert value_of(dc.materialize(CTR, CausalClock(dc.vdc, 0))) == 12

    def test_unknown_name_rejected(self):
        env, dc = self._dc()
        dc.on_stored_request(env, StoredTxRequest("S", "nope", {}, Otid(1, "S"), clock([0, 0])))
        assert env.replies("StoredTxReply")[0].status == "unknown-proc"


class TestExactlyOnceInstrumentation:
    def test_each_effect_applied_once(self):
        env, dc0 = friendship_dc()
        dc1 = DataCenter(1, num_dcs=2, k=2)
        env1 = FakeEnv()
        # duplicate gossip deliveries of the same records
        for _ in range(3):
            dc1.on_gossip(env1, GossipBatch(0, list(dc0.log), dc0.vdc))
        applied = Counter(
            (e["node"], tuple(e["otid"])) for e in env.events + env1.events if e["ev"] == "apply"
        )
        assert sorted(applied) == [
            (node, otid) for node in ("dc0", "dc1") for otid in ((1, "A"), (1, "C"))
        ]
        assert set(applied.values()) == {1}


class TestCrashRecovery:
    def test_durable_state_survives(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(9, 9)
        dc.on_session_request(env, SessionRequest("R", 1, vv(0, 0), [B_FRD]))
        dc = DataCenter.from_durable(dc.durable_snapshot(), 2, 2)
        assert dc.known_vectors == {} and dc.sessions == {}
        assert dc.vdc == vv(2, 0)
        assert dc.max_otid == {"A": 1, "C": 1}
        assert value_of(dc.materialize(B_FRD, clock([2, 0]))) == frozenset({"A", "C"})

    def test_durable_stream_round_trip(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(1, 0)
        dc.prune_tick(env)  # fold the first record into checkpoints
        snap = dc.durable_snapshot()
        assert snap["schema"] == "causalsim-log-2"
        import json

        json.dumps(snap)  # canonical and serializable
        rebuilt = DataCenter.from_durable(snap, num_dcs=2, k=2)
        assert rebuilt.vdc == dc.vdc
        assert rebuilt.max_otid == dc.max_otid
        assert rebuilt.prune_vector == dc.prune_vector
        assert rebuilt.object_values() == dc.object_values()


class TestInvariants:
    def test_prune_vector_below_any_k_durable_frontier(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(1, 0)
        dc.prune_tick(env)
        for k in (1, 2):
            assert dc.prune_vector.leq(dc.k_durable_frontier(k))

    def test_max_otid_never_decreases(self):
        env, dc = friendship_dc()
        history = [dict(dc.max_otid)]
        dc.on_commit_request(env, commit_req("C", 2, [set_add(B_FRD, "z", Otid(2, "C"))], local=1))
        history.append(dict(dc.max_otid))
        dc.on_commit_request(env, commit_req("C", 1, [set_add(B_FRD, "C", Otid(1, "C"))]))
        history.append(dict(dc.max_otid))
        for before, after in zip(history, history[1:]):
            for scout, counter in before.items():
                assert after.get(scout, 0) >= counter


# -- log indexes against whole-log scans ---------------------------------------


def brute_suffix(dc, known):
    """The records a peer at `known` still needs, by scanning the whole log."""
    return [r for r in dc.log if not all(known.covers(g) for g in r.gtids)]


def brute_acks(dc, session, sent):
    """The acks a notify would carry, by scanning the whole log: every
    logged record of the session's scout that the session was not sent an
    ack for. `sent` holds the acks sent so far, by (scout, epoch), which
    names one session of the run."""
    done = sent.setdefault((session.scout, session.epoch), set())
    out = [
        (r.otid, r.primary_gtid)
        for r in dc.log
        if r.otid.origin == session.scout and (r.otid, r.primary_gtid) not in done
    ]
    done.update(out)
    return out


def log_indexes(dc):
    """`by_otid`, `by_slot`, `by_origin` and every object's entries, built
    from the log alone, by record identity and in log order."""
    by_otid, by_slot, by_origin = {}, [{} for _ in range(dc.num_dcs)], {}
    entries = {obj: [] for obj in dc.store}
    for r in dc.log:
        by_otid[r.otid] = id(r)
        for g in r.gtids:
            by_slot[g.origin].setdefault(g.counter, []).append(id(r))
        by_origin.setdefault(r.otid.origin, []).append(id(r))
        for e in r.effects:
            entries[e.target].append((id(e), id(r)))
    return by_otid, by_slot, by_origin, entries


def replica_indexes(dc):
    """The replica's own indexes and entries, in the form of `log_indexes`."""
    return (
        {otid: id(r) for otid, r in dc.by_otid.items()},
        [{c: [id(r) for r in rs] for c, rs in slots.items()} for slots in dc.by_slot],
        {scout: [id(r) for r in rs] for scout, rs in dc.by_origin.items()},
        {obj: [(id(e), id(r)) for e, r in so.entries] for obj, so in dc.store.items()},
    )


# name -> (scenario, sim overrides, what the run must exercise); short prune
# periods make records leave the log mid-run, and CHURN crashes DCs, which
# resets their knowledge of their peers to zero
INDEXED_RUNS = {
    "preset": ("social-90-10", {}, ()),
    "churn": (CHURN, {"prune_ms": 200}, ("pruned", "aliases", "after_reset")),
    "dedup-off": (
        CHURN,
        {"prune_ms": 200, "mutations": ["disable_dedup"]},
        ("pruned", "aliases", "shared_otid"),
    ),
    "dedup-off-100": (
        CHURN,
        {"prune_ms": 100, "mutations": ["disable_dedup"]},
        ("pruned", "aliases", "shared_otid"),
    ),
    "failover": ("failover-demo", {}, ("aliases",)),
}


@pytest.mark.parametrize("name", sorted(INDEXED_RUNS))
def test_indexed_suffix_and_acks_match_whole_log_scans(name, monkeypatch):
    base, overrides, exercised = INDEXED_RUNS[name]
    seen = dict.fromkeys(
        ("suffixes", "records", "acks", "pruned", "aliases", "after_reset", "shared_otid"), 0
    )
    sent = {}
    gossip_suffix, take_acks, prune_tick = (
        DataCenter.gossip_suffix,
        DataCenter._take_acks,
        DataCenter.prune_tick,
    )

    def checked_suffix(dc, known):
        expected = brute_suffix(dc, known)
        got = gossip_suffix(dc, known)
        assert [id(r) for r in got] == [id(r) for r in expected]
        seen["suffixes"] += 1
        seen["records"] += len(got)
        seen["aliases"] += sum(len(r.gtids) > 1 for r in got)
        seen["after_reset"] += bool(got) and not any(known)
        seen["shared_otid"] += len({r.otid for r in dc.log}) < len(dc.log)
        return got

    def checked_acks(dc, session):
        expected = brute_acks(dc, session, sent)
        got = take_acks(dc, session)
        assert got == expected
        seen["acks"] += len(got)
        return got

    def counted_prune(dc, env):
        before = len(dc.log)
        # the live indexes are the log's before a prune, so rebuilding them
        # after it changes nothing but the records dropped
        assert replica_indexes(dc) == log_indexes(dc)
        numbers = dict(dc.admission)
        out = prune_tick(dc, env)
        seen["pruned"] += before - len(dc.log)
        assert replica_indexes(dc) == log_indexes(dc)
        assert dc.admission == {id(r): numbers[id(r)] for r in dc.log}
        # the log keeps every record whose effects are not yet folded
        logged = {id(r) for r in dc.log}
        assert all(id(r) in logged for so in dc.store.values() for _, r in so.entries)
        return out

    monkeypatch.setattr(DataCenter, "gossip_suffix", checked_suffix)
    monkeypatch.setattr(DataCenter, "_take_acks", checked_acks)
    monkeypatch.setattr(DataCenter, "prune_tick", counted_prune)
    scenario = load_scenario(base) if isinstance(base, str) else base
    run_scenario(scenario, seed=1, overrides=overrides)
    assert seen["suffixes"] and seen["records"] and seen["acks"], seen
    for what in exercised:
        assert seen[what] > 0, (what, seen)


def replica_views(dc, knowns, scouts):
    suffixes = [[record_to_wire(r) for r in dc.gossip_suffix(k)] for k in knowns]
    acks = {s: dc._take_acks(dc.sessions[s]) for s in scouts}
    return suffixes, acks


def inc(otid):
    tag = EffectTag(otid.counter, otid.origin, 0)
    return prepare(CTR, new_state(CrdtType.COUNTER), ("inc", 1), tag)


def admit_more(dc, top):
    """A new commit, a remote record, and a new alias slot for the oldest
    logged record, which puts that record back in some suffixes."""
    env, late, far, old = FakeEnv(), Otid(1, "late"), Otid(1, "far"), dc.log[0]
    dc.on_commit_request(env, CommitRequest("late", late, CausalClock.zero(3), (inc(late),)))
    records = [
        CommitRecord(far, [Gtid(top + 1, 1)], CausalClock.zero(3), (inc(far),)),
        CommitRecord(old.otid, [Gtid(top + 2, 1)], old.deps, old.effects),
    ]
    dc.on_gossip(env, GossipBatch(1, records, dc.known_vectors.get(1, vv(0, 0, 0))))
    dc.sessions["late"] = Session("late", 1, set(), VersionVector.zero(3))
    return old


def test_rebuilt_replica_indexes_match_the_original():
    result = run_scenario(CHURN, seed=1, overrides={"prune_ms": 200, "horizon_ms": 700})
    dc = result.dcs[0]
    rebuilt = DataCenter.from_durable(dc.durable_snapshot(), dc.num_dcs, dc.k)
    assert dc.log and dc.prune_vector != VersionVector.zero(3)
    assert rebuilt.admitted == len(rebuilt.log)
    scouts = sorted(dc.by_origin)
    for replica in (dc, rebuilt):
        replica.sessions = {s: Session(s, 1, set(), VersionVector.zero(3)) for s in scouts}
    knowns = [VersionVector.zero(3), dc.prune_vector, dc.vdc, *dc.known_vectors.values()]
    assert replica_views(rebuilt, knowns, scouts) == replica_views(dc, knowns, scouts)

    assert rebuilt.top_slot == dc.top_slot
    top = dc.top_slot[1]
    old = admit_more(dc, top)
    admit_more(rebuilt, top)
    knowns += [dc.vdc, VersionVector((dc.vdc[0], top + 1, dc.vdc[2]))]
    after = replica_views(dc, knowns, scouts + ["late"])
    assert replica_views(rebuilt, knowns, scouts + ["late"]) == after
    # admission order continues past the rebuilt log
    assert [w["otid"] for w in after[0][0][-2:]] == [[1, "late"], [1, "far"]]
    assert [w["otid"] for w in after[0][-1]] == [[old.otid.counter, old.otid.origin]]
    assert after[1]["late"] == [(Otid(1, "late"), dc.by_otid[Otid(1, "late")].primary_gtid)]


# -- gossip send marks against resending every tick ------------------------------


def resend_all_tick(dc, env):
    """The gossip tick without send marks: every record the peer's vector
    does not cover, on every tick. Like `DataCenter.gossip_tick`, it sends
    copies, so a later alias merge here stays out of the batch."""
    for peer in range(dc.num_dcs):
        if peer != dc.id:
            known = dc.known_vectors.get(peer, VersionVector.zero(dc.num_dcs))
            records = [r.copy() for r in dc.gossip_suffix(known)]
            batch = GossipBatch(dc.id, records, dc.vdc)
            env.send(f"dc{dc.id}", f"dc{peer}", batch)


# name -> (scenario, sim overrides); CHURN crashes both a committing and a
# receiving DC and partitions two DCs, each for longer than a one-way delay
MARK_RUNS = {
    "preset": ("social-90-10", {}),
    "failover": ("failover-demo", {}),
    **{f"churn-{ms}": (CHURN, {"prune_ms": ms}) for ms in (200, 500, 5000)},
    **{
        f"dedup-off-{ms}": (CHURN, {"prune_ms": ms, "mutations": ["disable_dedup"]})
        for ms in (200, 500, 5000)
    },
}


def gossip_run(scenario, overrides, seed=1):
    """The run's result, its checker report and the gossiped record copies
    received."""
    result = run_scenario(scenario, seed=seed, overrides=overrides)
    copies = sum(e["records"] for e in result.trace if e["ev"] == "gossip")
    return result, run_checks(result.trace), copies


def apply_times(trace):
    """(node, OTID) -> the times of its applies there, in order."""
    times: dict[tuple, list[int]] = {}
    for e in trace:
        if e["ev"] == "apply":
            times.setdefault((e["node"], tuple(e["otid"])), []).append(e["t"])
    return times


def max_one_way(scenario):
    return max(rtt // 2 for row in scenario["sim"]["rtt_dc_ms"] for rtt in row)


def silence_delay_bound(scenario):
    """How much later than resend-every-tick a record can reach a peer that
    was silent: the peer's next tick comes within a period, its batch takes
    the one-way delay to us, and our next tick comes within a period."""
    return max_one_way(scenario) + 2 * scenario["sim"]["gossip_ms"]


@pytest.mark.parametrize("name", sorted(MARK_RUNS))
def test_send_marks_change_only_the_gossiped_copies(name, monkeypatch):
    base, overrides = MARK_RUNS[name]
    scenario = load_scenario(base) if isinstance(base, str) else base
    result, report, copies = gossip_run(scenario, overrides)
    monkeypatch.setattr(DataCenter, "gossip_tick", resend_all_tick)
    ref, ref_report, ref_copies = gossip_run(scenario, overrides)
    assert report == ref_report
    assert copies < ref_copies
    if base is not CHURN:
        # no peer goes silent: only the gossip events differ
        def rest(trace):
            return [e for e in trace if e["ev"] != "gossip"]

        assert rest(result.trace) == rest(ref.trace)
        assert result.stats["messages"] == ref.stats["messages"]
        return
    # records wait for a silent or rebuilt peer to be heard again
    quiesce, ref_quiesce = result.trace[-1], ref.trace[-1]
    for part in ("synced", "dcs", "scouts"):
        assert quiesce[part] == ref_quiesce[part]
    times, ref_times = apply_times(result.trace), apply_times(ref.trace)
    assert times.keys() == ref_times.keys()
    bound = silence_delay_bound(scenario)
    later = 0
    for key, ts in times.items():
        assert len(ts) == len(ref_times[key])
        for t, ref_t in zip(ts, ref_times[key]):
            assert ref_t <= t <= ref_t + bound, (key, t, ref_t)
            later += t > ref_t
    assert later > 0


def gossip_fuzz_schedule(n):
    """Seeded CHURN fault schedule `n`: per DC up to two crashes, each either
    shorter than a gossip period (1-9 ms) or long (20-300 ms), and up to two
    DC-DC partitions of 20-300 ms, under one of three prune periods and with
    or without jitter. Returns the scenario, the sim overrides and the
    (start, end) of every fault."""
    rng = random.Random(f"gossip-fuzz/{n}")
    faults, spans = [], []

    def add(start, length, down, up):
        faults.extend([dict(down, at=start), dict(up, at=start + length)])
        spans.append((start, start + length))

    for dc in range(3):
        at = rng.randrange(50, 400)
        for _ in range(rng.randrange(3)):
            length = rng.randrange(1, 10) if rng.random() < 0.5 else rng.randrange(20, 301)
            add(at, length, {"kind": "dc_crash", "dc": dc}, {"kind": "dc_recover", "dc": dc})
            at += length + rng.randrange(50, 500)
    for _ in range(rng.randrange(3)):
        links = [rng.sample(["dc0", "dc1", "dc2"], 2)]
        start, length = rng.randrange(50, 1500), rng.randrange(20, 301)
        add(start, length, {"kind": "partition", "links": links}, {"kind": "heal", "links": links})
    overrides = {"prune_ms": rng.choice([200, 500, 5000]), "jitter_ms": rng.choice([0, 5])}
    return dict(CHURN, faults=faults), overrides, spans


def script_apply_times(trace):
    """(node, (scout, n)) -> the times of the applies there of the scout's
    n-th committed update, and (scout, n) -> its first apply anywhere. The
    key names the same scripted transaction in two runs whose aborts
    differ."""
    rank, count = {}, Counter()
    for e in trace:
        if e["ev"] == "local_commit" and not e["read_only"]:
            rank[tuple(e["otid"])] = (e["node"], count[e["node"]])
            count[e["node"]] += 1
    times, first = {}, {}
    for (node, otid), ts in apply_times(trace).items():
        tx = rank[otid]
        times[(node, tx)] = ts
        first[tx] = min(first.get(tx, ts[0]), ts[0])
    return times, first


FUZZ_SCHEDULES = 20


def test_heartbeats_to_unheard_peers_keep_fuzzed_verdicts(monkeypatch):
    """Gossip with send marks and heartbeats against resending every tick,
    on seeded fault schedules, the known-failing ones included: the same
    checks fail, the same runs end synced, every apply happens in both, and
    a late one is late only in the shadow of a fault. Once both the time
    resend-every-tick took (from the record's first apply in this run) and
    the end of the last fault before the apply are past, a record lost to a
    fault goes out again within one acknowledgement wait and arrives one
    one-way delay later."""
    seen = Counter()
    for n in range(FUZZ_SCHEDULES):
        scenario, overrides, spans = gossip_fuzz_schedule(n)
        runs = []
        for tick in (DataCenter.gossip_tick, resend_all_tick):
            with monkeypatch.context() as patch:
                patch.setattr(DataCenter, "gossip_tick", tick)
                result, report, _ = gossip_run(scenario, overrides, seed=n)
            failing = sorted(c for c, v in report["verdicts"].items() if not v["ok"])
            runs.append((failing, result.synced, *script_apply_times(result.trace)))
        (failing, synced, times, first), (ref_failing, ref_synced, ref_times, ref_first) = runs
        assert (failing, synced) == (ref_failing, ref_synced), n
        assert times.keys() == ref_times.keys(), n

        one_way, jitter = max_one_way(scenario), overrides["jitter_ms"]
        period = scenario["sim"]["gossip_ms"]
        bound = ack_wait_ticks(2 * one_way, period, jitter) * period + one_way + jitter
        for key, ts in times.items():
            ref_ts, tx = ref_times[key], key[1]
            assert len(ts) == len(ref_ts), (n, key)
            for t, ref_t in zip(ts, ref_ts):
                settled = max([end for start, end in spans if start < t], default=0)
                due = first[tx] + ref_t - ref_first[tx]
                assert t <= max(due, settled) + bound, (n, key, t)
        lengths = [end - start for start, end in spans]
        seen["short"] += any(length < 10 for length in lengths)
        seen["long"] += any(length >= 20 for length in lengths)
        seen["partition"] += any(f["kind"] == "partition" for f in scenario["faults"])
        seen[f"prune-{overrides['prune_ms']}"] += 1
        seen[f"jitter-{jitter}"] += 1
        seen["failing"] += bool(failing) or not synced
    for what in ("short", "long", "partition", "prune-200", "prune-500", "prune-5000",
                 "jitter-0", "jitter-5", "failing"):
        assert seen[what], (what, seen)


# two DCs whose one-way delays differ by 5 ms: DC0's batches reach DC1 15 ms
# after each 20 ms tick and DC1's reach DC0 10 ms after, so DC1 down from
# 14 to 17 ms after a tick loses one batch to it, none from it and no tick
SHORT_CRASH = {
    "schema": "causalsim-scenario-1",
    "name": "short-crash",
    "sim": {
        "num_dcs": 2,
        "num_scouts": 2,
        "k": 1,
        "rtt_dc_ms": [[0, 110], [100, 0]],
        "scout_rtt_ms": [[30, 200]],
        "gossip_ms": 20,
        "notify_ms": 25,
        "retry_ms": 300,
        "think_ms": 5,
        "drain_ms": 4000,
    },
    # the second crash, between deliveries, empties DC1's pending_remote:
    # the records that depend on the lost batch wait there
    "faults": [
        {"at": 194, "kind": "dc_crash", "dc": 1},
        {"at": 197, "kind": "dc_recover", "dc": 1},
        {"at": 246, "kind": "dc_crash", "dc": 1},
        {"at": 248, "kind": "dc_recover", "dc": 1},
    ],
    "workload": {"kind": "counter_churn", "txs_per_scout": 20, "counters": 4},
    "expected": {},
}


@pytest.mark.parametrize("jitter_ms", [0, 8])
def test_records_lost_without_a_silence_are_sent_again(jitter_ms, monkeypatch):
    parked = []
    crash = sim.Simulation._crash_dc

    def crash_counting_parked(simulation, dc_id):
        parked.append(len(simulation.dcs[dc_id].pending_remote))
        crash(simulation, dc_id)

    monkeypatch.setattr(sim.Simulation, "_crash_dc", crash_counting_parked)
    result = run_scenario(SHORT_CRASH, seed=1, overrides={"jitter_ms": jitter_ms})
    # one batch lost, and records parked when the second crash came
    assert result.stats["dropped"] == 1 and parked[1] > 0
    assert result.synced
    assert run_checks(result.trace)["ok"]


@pytest.mark.parametrize("jitter_ms", [0, 15])
def test_a_live_peer_acknowledges_within_the_wait(jitter_ms, monkeypatch):
    """Without faults no acknowledgement comes late: the run is the same,
    byte for byte, as one whose acknowledgement check never fires."""
    scenario, overrides = load_scenario("staleness-stress"), {"jitter_ms": jitter_ms}
    checked = run_scenario(scenario, seed=1, overrides=overrides).trace_bytes()
    monkeypatch.setattr(sim, "ack_wait_ticks", lambda *link: 10**6)
    assert run_scenario(scenario, seed=1, overrides=overrides).trace_bytes() == checked


# -- fetch replies against two independent replays ------------------------------

# CHURN's scout disconnect and partition, with four short DC crashes instead
# of its two; the last two come after dc1 has pruned records. Fetches are
# served by rebuilt replicas, and the rebuild tests below crash on it too
REBUILD_FAULTS = [f for f in CHURN["faults"] if not f["kind"].startswith("dc_")] + [
    {"at": 86, "kind": "dc_crash", "dc": 2},
    {"at": 103, "kind": "dc_recover", "dc": 2},
    {"at": 249, "kind": "dc_crash", "dc": 0},
    {"at": 298, "kind": "dc_recover", "dc": 0},
    {"at": 438, "kind": "dc_crash", "dc": 1},
    {"at": 480, "kind": "dc_recover", "dc": 1},
    {"at": 553, "kind": "dc_crash", "dc": 1},
    {"at": 560, "kind": "dc_recover", "dc": 1},
]


class SendTap:
    """Forwards to the simulator and keeps what the DC sends."""

    def __init__(self, env):
        self.env, self.sent = env, []

    def send(self, src, dst, msg):
        self.sent.append(msg)
        self.env.send(src, dst, msg)

    def __getattr__(self, name):
        return getattr(self.env, name)


def covered_entries(dc, obj, at, own):
    so = dc.store.get(obj)
    return [i for i, (_, r) in enumerate(so.entries if so else ()) if dc._covered(r, at, own)]


def is_prefix(positions, key):
    return 0 < len(positions) < len(key) and key[: len(positions)] == positions


# what every run whose scouts keep a cache must exercise: versions served
# with one state for both clocks, and with two; and what every run must:
# kept versions served as they are, and replayed from
KEPT = ("memo_hits", "prefix")
CACHED = ("shared", "split") + KEPT

# name -> (scenario, sim overrides, what the run must exercise); the
# staleness-stress scouts keep no cache, so their sessions get no admit states
FETCH_RUNS = {
    "social-90-10": ("social-90-10", {}, CACHED),
    "staleness-stress": ("staleness-stress", {}, ("cacheless",) + KEPT),
    "churn-pruned": (CHURN, {"prune_ms": 200}, CACHED + ("memo_after_prune",)),
    "dedup-off-100": (
        CHURN,
        {"prune_ms": 100, "mutations": ["disable_dedup"]},
        CACHED + ("memo_after_prune", "shared_otid"),
    ),
    "crash-rebuilds": (
        dict(CHURN, faults=REBUILD_FAULTS),
        {"prune_ms": 200},
        CACHED + ("memo_after_prune", "rebuilt"),
    ),
}


@pytest.mark.parametrize("name", sorted(FETCH_RUNS))
def test_one_pass_fetch_matches_two_materialize_calls(name, monkeypatch):
    base, overrides, exercised = FETCH_RUNS[name]
    seen = dict.fromkeys(
        (
            "objects",
            "shared",
            "split",
            "cacheless",
            "memo_hits",
            "memo_after_prune",
            "prefix",
            "shared_otid",
            "rebuilt",
        ),
        0,
    )
    serve_fetch, prune_tick, from_durable, version = (
        DataCenter._serve_fetch,
        DataCenter.prune_tick,
        DataCenter.from_durable.__func__,
        DataCenter._version,
    )
    pruned, rebuilt, serving = set(), set(), []

    def checked_version(so, key):
        kept = list(so.kept)
        out = version(so, key)
        if serving:
            same = [state for positions, state in kept if positions == key]
            if same:
                # a kept version at the same positions is served as it is
                assert out is same[0]
            else:
                # else one whose positions are a prefix may be replayed from
                seen["prefix"] += any(is_prefix(p, key) for p, _ in kept)
        assert len(so.kept) <= KEPT_VERSIONS
        return out

    def counted_prune(dc, env):
        before = len(dc.log)
        out = prune_tick(dc, env)
        if len(dc.log) < before:
            pruned.add(dc)
        return out

    def counted_rebuild(cls, *args, **kw):
        dc = from_durable(cls, *args, **kw)
        rebuilt.add(dc)
        return dc

    def checked_serve(dc, env, msg):
        session = dc.sessions.get(msg.scout)
        admit_dc = session.last_announced if session else msg.snapshot.dc_part
        admit_at = CausalClock(admit_dc, msg.snapshot.local_part)
        caches = session is None or session.caches
        kept = {o: list(dc.store[o].kept) for o in msg.objects if o in dc.store}
        tap = SendTap(env)
        serving.append(msg)
        serve_fetch(dc, tap, msg)
        serving.pop()
        (reply,) = tap.sent
        if reply.status == "pruned":
            with pytest.raises(VersionPruned):
                for obj in msg.objects:
                    dc.materialize(obj, msg.snapshot, msg.scout)
                    dc.materialize(obj, admit_at, msg.scout)
            return
        assert [v[0] for v in reply.versions] == msg.objects
        for obj, snap_state, admit_state in reply.versions:
            # the two-call path that the memo and the one-pass walk replaced
            snap = dc.materialize(obj, msg.snapshot, msg.scout)
            snap_key = covered_entries(dc, obj, msg.snapshot, msg.scout)
            assert snap_state == snap
            if caches:
                assert reply.admit_frontier == admit_dc
                admit = dc.materialize(obj, admit_at, msg.scout)
                same = snap_key == covered_entries(dc, obj, admit_at, msg.scout)
                assert admit_state == (None if same else admit)
                got = dc.fetch_states(obj, msg.snapshot, admit_at, msg.scout)
                seen["shared"] += same
                seen["split"] += not same
            else:
                # a session without a cache admits nothing and follows nothing
                assert reply.admit_frontier is None
                assert admit_state is None
                assert obj not in session.subscriptions
                got = dc.fetch_states(obj, msg.snapshot, None, msg.scout)
                seen["cacheless"] += 1
            assert got == (snap_state, admit_state)
            hit = any(positions == snap_key for positions, _ in kept.get(obj, ()))
            seen["objects"] += 1
            seen["memo_hits"] += hit
            seen["memo_after_prune"] += hit and dc in pruned
            seen["rebuilt"] += dc in rebuilt
            records = [r for _, r in dc.store[obj].entries] if obj in dc.store else []
            seen["shared_otid"] += len({r.otid for r in records}) < len({id(r) for r in records})

    monkeypatch.setattr(DataCenter, "_serve_fetch", checked_serve)
    monkeypatch.setattr(DataCenter, "prune_tick", counted_prune)
    monkeypatch.setattr(DataCenter, "from_durable", classmethod(counted_rebuild))
    monkeypatch.setattr(DataCenter, "_version", staticmethod(checked_version))
    scenario = load_scenario(base) if isinstance(base, str) else base
    run_scenario(scenario, seed=1, overrides=overrides)
    assert seen["objects"] == seen["shared"] + seen["split"] + seen["cacheless"], seen
    for what in exercised:
        assert seen[what] > 0, (what, seen)


class TestFetchStates:
    def _dc(self):
        env, dc = friendship_dc()
        dc.known_vectors[1] = vv(1, 0)
        dc.prune_tick(env)
        return dc

    @pytest.mark.parametrize("low", ["snapshot", "admit"])
    def test_either_clock_below_the_prune_frontier_fails(self, low):
        dc = self._dc()
        ok, below = clock([2, 0]), clock([0, 0])
        snap, admit = (below, ok) if low == "snapshot" else (ok, below)
        with pytest.raises(VersionPruned):
            dc.fetch_states(B_FRD, snap, admit, "R")

    def test_equal_coverage_shares_one_state(self):
        dc = self._dc()
        snap, admit = dc.fetch_states(B_FRD, clock([2, 0]), clock([2, 0]), "R")
        assert admit is None and snap == dc.materialize(B_FRD, clock([2, 0]), "R")
        assert value_of(snap) == frozenset({"A", "C"})

    def test_different_coverage_gives_two_states(self):
        dc = self._dc()
        snap, admit = dc.fetch_states(B_FRD, clock([2, 0]), clock([1, 0]), "R")
        assert snap == dc.materialize(B_FRD, clock([2, 0]), "R")
        assert admit == dc.materialize(B_FRD, clock([1, 0]), "R")
        assert value_of(snap) == frozenset({"A", "C"})
        assert value_of(admit) == frozenset({"A"})

    def test_unknown_object_is_empty(self):
        dc = self._dc()
        nobody = ObjectId("nobody", CrdtType.COUNTER)
        snap, admit = dc.fetch_states(nobody, clock([1, 0]), clock([2, 0]), "R")
        assert admit is None and value_of(snap) == 0

    def test_the_same_entries_are_served_from_the_memo(self):
        env, dc = friendship_dc()
        first, _ = dc.fetch_states(B_FRD, clock([1, 0]), clock([1, 0]), "R")
        # another clock, and an entry logged since, that it does not cover
        dc.on_commit_request(env, commit_req("D", 1, [set_add(B_FRD, "D", Otid(1, "D"))]))
        again, _ = dc.fetch_states(B_FRD, clock([1, 7]), clock([1, 7]), "R")
        assert again is first
        assert dc.store[B_FRD].kept == [([0], first)]
        assert dc.store[B_FRD].kept[0][1] is first

    def test_the_memo_is_keyed_on_entries_not_on_the_clock(self):
        dc = self._dc()
        # one clock; only the scout that committed the entry sees it
        at = clock([1, 0], local=1)
        for own, elems in (("R", {"A"}), ("C", {"A", "C"}), ("R", {"A"})):
            snap, _ = dc.fetch_states(B_FRD, at, at, own)
            assert snap == dc.materialize(B_FRD, at, own)
            assert value_of(snap) == elems

    def test_a_prune_that_folds_entries_clears_the_memo(self):
        env, dc = friendship_dc()
        for obj in (B_FRD, C_FRD):
            dc.fetch_states(obj, clock([1, 0]), clock([2, 0]), "R")
            assert dc.store[obj].kept != []
        c_frd_kept = list(dc.store[C_FRD].kept)
        dc.known_vectors[1] = vv(1, 0)
        dc.prune_tick(env)
        # B_FRD's first entry was folded; C_FRD's only entry was not
        assert dc.store[B_FRD].kept == []
        assert list(map(id, dc.store[C_FRD].kept)) == list(map(id, c_frd_kept))
        snap, admit = dc.fetch_states(B_FRD, clock([1, 0]), clock([2, 0]), "R")
        assert snap == dc.materialize(B_FRD, clock([1, 0]), "R")
        assert admit == dc.materialize(B_FRD, clock([2, 0]), "R")

    def test_an_object_without_entries_holds_no_memo(self):
        dc = self._dc()
        assert dc.store[A_FRD].entries == []
        snap, admit = dc.fetch_states(A_FRD, clock([2, 0]), clock([1, 0]), "R")
        assert admit is None and snap is dc.store[A_FRD].checkpoint
        assert dc.store[A_FRD].kept == []

    def test_the_memo_is_not_durable(self):
        dc = self._dc()
        durable = dc.durable_snapshot()
        dc.fetch_states(B_FRD, clock([2, 0]), clock([1, 0]), "R")
        assert dc.store[B_FRD].kept != []
        assert dc.durable_snapshot() == durable
        rebuilt = DataCenter.from_durable(durable, dc.num_dcs, dc.k)
        assert all(so.kept == [] for so in rebuilt.store.values())


# `apply_effect` calls made while the DCs serve fetches on social-90-10,
# seed 1, 250 users, at 1x and 4x its 24 scouts: 608 and 9,243 when each
# object kept one served version, 468 and 3,875 with kept versions. The
# counts are exact, so this gates a superlinear replay without timing
FETCH_REPLAY_APPLIES = {1: 468, 4: 3875}


@pytest.mark.parametrize("scale", sorted(FETCH_REPLAY_APPLIES))
def test_fetch_replay_applies_stay_within_their_count(scale, monkeypatch):
    applies, serving = [0], []
    apply, serve_fetch = dc_module.apply_effect, DataCenter._serve_fetch

    def counted_apply(state, effect):
        applies[0] += bool(serving)
        return apply(state, effect)

    def counted_serve(dc, env, msg):
        serving.append(msg)
        serve_fetch(dc, env, msg)
        serving.pop()

    monkeypatch.setattr(dc_module, "apply_effect", counted_apply)
    monkeypatch.setattr(DataCenter, "_serve_fetch", counted_serve)
    run_scenario(load_scenario("social-90-10"), seed=1, overrides={"num_scouts": 24 * scale})
    assert 0 < applies[0] <= FETCH_REPLAY_APPLIES[scale]


def replayed(so, positions):
    """The checkpoint plus the entries at `positions`, replayed from scratch."""
    state = so.checkpoint
    for i in positions:
        state = apply_effect(state, so.entries[i][0])
    return state


def expected_version(dc, obj, at, own):
    so = dc.store.get(obj)
    return new_state(obj.crdt_type) if so is None else replayed(so, covered_entries(dc, obj, at, own))


KEPT_READERS = ("R", "C", "")
KEPT_OBJECTS = (B_FRD, CTR, ObjectId("never", CrdtType.COUNTER))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_kept_versions_serve_what_a_replay_from_scratch_gives(data):
    """Commits, gossip admits, alias merges, prune folds and fetches at any
    clock and reader, interleaved on one replica: every fetch serves the
    replay of its covered positions, every kept version is that of its own
    positions, no object keeps more than the bound, a fold clears what it
    changed, and fetches leave the durable stream as it was."""
    env, dc = FakeEnv(), DataCenter(0, num_dcs=2, k=1)
    otids = dict.fromkeys(KEPT_READERS[:2], 0)  # each scout's last OTID counter
    remote = 0  # the last slot of dc1 this replica admitted

    def draw_update():
        scout = data.draw(st.sampled_from(KEPT_READERS[:2]))
        otids[scout] += 1
        otid = Otid(otids[scout], scout)
        obj = data.draw(st.sampled_from(KEPT_OBJECTS[:2]))
        if obj == CTR:
            # no two sets of increments sum to the same value
            step = 2 ** sum(otids.values())
            effect = prepare(CTR, new_state(CrdtType.COUNTER), ("inc", step), EffectTag(*otid, 0))
        else:
            effect = set_add(obj, data.draw(st.sampled_from("xyz")), otid)
        return scout, otid, (effect,)

    def draw_clock():
        dc_part = VersionVector(
            data.draw(st.integers(max(low - 1, 0), high + 1))
            for low, high in zip(dc.prune_vector, dc.vdc)
        )
        return CausalClock(dc_part, data.draw(st.integers(0, max(otids.values()) + 1)))

    for _ in range(data.draw(st.integers(1, 40))):
        step = data.draw(st.sampled_from(("commit", "gossip", "alias", "prune") + ("fetch",) * 4))
        if step == "commit":
            scout, otid, effects = draw_update()
            dc.on_commit_request(env, CommitRequest(scout, otid, CausalClock(dc.vdc, 0), effects))
        elif step == "gossip":
            remote += 1
            _, otid, effects = draw_update()
            record = CommitRecord(otid, (Gtid(remote, 1),), clock([0, remote - 1]), effects)
            dc.on_gossip(env, GossipBatch(1, [record], vv(0, remote)))
        elif step == "alias" and dc.log:
            # dc1 sequenced one of our records too: it gains an alias slot
            remote += 1
            record = data.draw(st.sampled_from(dc.log)).copy()
            record.gtids = (Gtid(remote, 1),)
            dc.on_gossip(env, GossipBatch(1, [record], vv(0, remote)))
        elif step == "prune":
            dc.known_vectors[1] = VersionVector(
                data.draw(st.integers(low, high)) for low, high in zip(dc.prune_vector, dc.vdc)
            )
            before = {obj: len(so.entries) for obj, so in dc.store.items()}
            dc.prune_tick(env)
            for obj, so in dc.store.items():
                if len(so.entries) < before.get(obj, 0):
                    assert so.kept == []
        elif step == "fetch":
            obj = data.draw(st.sampled_from(KEPT_OBJECTS))
            own = data.draw(st.sampled_from(KEPT_READERS))
            snapshot = draw_clock()
            admit = draw_clock() if data.draw(st.booleans()) else None
            durable = dc.durable_snapshot()
            clocks = (snapshot,) if admit is None else (snapshot, admit)
            if not all(dc.prune_vector.leq(c.dc_part) for c in clocks):
                with pytest.raises(VersionPruned):
                    dc.fetch_states(obj, snapshot, admit, own)
                continue
            snap_state, admit_state = dc.fetch_states(obj, snapshot, admit, own)
            assert snap_state == expected_version(dc, obj, snapshot, own)
            if admit is None or covered_entries(dc, obj, admit, own) == covered_entries(
                dc, obj, snapshot, own
            ):
                assert admit_state is None
            else:
                assert admit_state == expected_version(dc, obj, admit, own)
            assert dc.durable_snapshot() == durable
        for so in dc.store.values():
            assert len(so.kept) <= KEPT_VERSIONS
            for positions, state in so.kept:
                assert state == replayed(so, positions)


# -- alias index after pruning with duplicate OTIDs --------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pruning_unindexes_every_dropped_alias(seed, monkeypatch):
    overrides = {"prune_ms": 200, "mutations": ["disable_dedup"]}
    seen = {"pruned": 0, "shared_otid": 0}
    prune_tick = DataCenter.prune_tick

    def checked_prune(dc, env):
        before = len(dc.log)
        seen["shared_otid"] += len({r.otid for r in dc.log}) < before
        out = prune_tick(dc, env)
        seen["pruned"] += before - len(dc.log)
        logged = {id(r) for r in dc.log}
        listed = [r for slots in dc.by_slot for records in slots.values() for r in records]
        assert all(id(r) in logged for r in listed)
        return out

    monkeypatch.setattr(DataCenter, "prune_tick", checked_prune)
    result = run_scenario(CHURN, seed=seed, overrides=overrides)
    assert seen["pruned"] and seen["shared_otid"], seen
    report = run_checks(result.trace)
    assert not report["verdicts"]["exactly_once"]["ok"]


# -- a crash rebuilds the replica from its durable stream -------------------------

# CHURN's faults and four more crashes; with dedup off, dc0 crashes at 797 ms
# holding alias slots of records it has already pruned
MORE_CRASHES = CHURN["faults"] + [
    {"at": at, "kind": kind, "dc": dc}
    for dc, down, up in ((1, 261, 360), (0, 797, 811), (1, 940, 1025), (0, 1185, 1219))
    for at, kind in ((down, "dc_crash"), (up, "dc_recover"))
]
# name -> (faults, mutations, DCs crashed in order, whether some crash comes
# while the replica holds marked slots above its prune frontier that no
# logged record holds)
REBUILD_RUNS = {
    "dedup": (REBUILD_FAULTS, [], [2, 0, 1, 1], False),
    "dedup-off": (REBUILD_FAULTS, ["disable_dedup"], [2, 0, 1, 1], False),
    "marks-dedup-off": (MORE_CRASHES, ["disable_dedup"], [0, 1, 0, 1, 0, 1], True),
}


def replica_state(dc):
    fields = ("vdc", "slots", "top_slot", "max_otid", "prune_vector")
    return {**{f: getattr(dc, f) for f in fields}, "values": dc.object_values()}


def unlogged_marks(dc):
    """Marked slots above the prune frontier that no logged record holds:
    the slots up to vdc, and the marks above it."""
    held = {(g.origin, g.counter) for r in dc.log for g in r.gtids}
    return [
        (origin, c)
        for origin, marked in enumerate(dc.slots)
        for c in [*range(dc.prune_vector[origin] + 1, dc.vdc[origin] + 1), *marked]
        if (origin, c) not in held
    ]


@pytest.mark.parametrize("name", sorted(REBUILD_RUNS))
def test_a_crash_rebuilds_the_replica_that_crashed(name, monkeypatch):
    faults, mutations, expected, marks = REBUILD_RUNS[name]
    crashed, seen = [], {"pruned": 0, "unlogged_marks": 0}
    crash = sim.Simulation._crash_dc

    def checked_crash(simulation, dc_id):
        before = simulation.dcs[dc_id]
        # a replica keeps no mark at or below vdc
        assert all(c > v for v, marked in zip(before.vdc, before.slots) for c in marked)
        state = replica_state(before)
        seen["pruned"] += before.prune_vector != VersionVector.zero(3)
        seen["unlogged_marks"] += bool(unlogged_marks(before))
        crash(simulation, dc_id)
        after = simulation.dcs[dc_id]
        assert after is not before and before.dead and not after.dead
        assert replica_state(after) == state
        crashed.append(dc_id)

    monkeypatch.setattr(sim.Simulation, "_crash_dc", checked_crash)
    scenario = dict(CHURN, faults=faults)
    run_scenario(scenario, seed=1, overrides={"prune_ms": 200, "mutations": mutations})
    assert crashed == expected
    assert seen["pruned"] and bool(seen["unlogged_marks"]) == marks, seen


# -- what a scout without a cache is sent, and idle sessions -------------------


def tap_sends(monkeypatch):
    """Keep every message the simulator is asked to send, with its ends."""
    sent = []
    send = sim.Simulation.send

    def tapped(simulation, src, dst, msg):
        sent.append((src, dst, msg))
        send(simulation, src, dst, msg)

    monkeypatch.setattr(sim.Simulation, "send", tapped)
    return sent


def test_scouts_without_a_cache_are_sent_no_state_they_drop(monkeypatch):
    sent = tap_sends(monkeypatch)
    sessions = set()
    notify_tick = DataCenter.notify_tick

    def checked_tick(dc, env):
        for session in dc.sessions.values():
            assert not session.caches and session.subscriptions == set()
        sessions.update(dc.sessions)
        notify_tick(dc, env)

    monkeypatch.setattr(DataCenter, "notify_tick", checked_tick)
    result = run_scenario(load_scenario("staleness-stress"), seed=1, overrides={"num_scouts": 24})
    assert run_checks(result.trace)["ok"]
    assert len(sessions) == 24
    notify = [m for _, _, m in sent if isinstance(m, NotifyBatch)]
    replies = [m for _, _, m in sent if type(m).__name__ == "FetchReply" and m.status == "ok"]
    assert notify and replies
    assert all(batch.items == [] for batch in notify)
    assert all(admit is None for reply in replies for _, _, admit in reply.versions)


def reference_notify_tick(dc, env):
    """`DataCenter.notify_tick` as it was before idle sessions were skipped:
    every session goes through `_notify_session`."""
    target = dc.announceable_frontier()
    deltas = {}
    for session in list(dc.sessions.values()):
        base = session.last_announced
        if not dc._may_announce(base, target):
            continue
        if base not in deltas:
            deltas[base] = dc._notify_delta(base, target)
        dc._notify_session(env, session, target, *deltas[base])


def notify_stream(monkeypatch, scenario, tick):
    """The notify batches of one run as (src, dst, wire form), in send order,
    its number of `_notify_session` calls, and its trace."""
    calls = []
    notify_session = DataCenter._notify_session
    with monkeypatch.context() as m:
        sent = tap_sends(m)
        m.setattr(DataCenter, "notify_tick", tick)
        m.setattr(
            DataCenter,
            "_notify_session",
            lambda dc, *a: calls.append(1) or notify_session(dc, *a),
        )
        result = run_scenario(scenario, seed=1)
    batches = [(s, d, message_to_wire(b)) for s, d, b in sent if isinstance(b, NotifyBatch)]
    return batches, len(calls), result.trace_bytes()


@pytest.mark.parametrize("name", ["social-90-10", "churn-pin"])
def test_skipping_idle_sessions_sends_the_same_notify_stream(name, monkeypatch):
    scenario = CHURN if name == "churn-pin" else load_scenario(name)
    batches, calls, trace = notify_stream(monkeypatch, scenario, DataCenter.notify_tick)
    ref_batches, ref_calls, ref_trace = notify_stream(monkeypatch, scenario, reference_notify_tick)
    assert batches and batches == ref_batches
    assert trace == ref_trace
    assert calls < ref_calls
