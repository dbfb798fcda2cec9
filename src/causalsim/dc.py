"""Data-centre replica: versioned store, sequenced commit, gossip, pruning.

A DC is a single logical state machine; the simulator invokes one handler
at a time. Its durable state is the stream of `durable_snapshot`: the
commit log with its per-object checkpoints, the per-scout high-water OTID
map, the prune frontier and the alias slots marked above it. A crash
keeps nothing else: the simulator replaces the replica with one that
`from_durable` rebuilds from that stream, so sessions, peer knowledge,
send marks and deferred work are lost by construction. The log's indexes
(by OTID, by alias slot, by origin scout, admission order) are derived
from the log and rebuilt with it.

Gossip sends records only to a peer it hears. A replica starts knowing
that each peer is at the zero vector; a rebuilt one knows nothing of its
peers. A peer that it has not heard yet, or that has gone silent, gets a
heartbeat: an empty batch carrying our vdc. Once the peer's batch
arrives, the next tick sends it everything its reported vector lacks.

A fetch is served as states, which the reply carries and the scout's
cache and transaction share: states are immutable. Each stored object
remembers the last version it served: the positions of the log entries
that version covers, and its state. A fetch whose clock covers the same
entries gets that state again without a replay. The memo is volatile,
kept only while the object has entries above its checkpoint, and dropped
when a prune folds some of them, which changes the checkpoint and the
positions. An object without entries serves its checkpoint state itself.

A session is sent only what its scout keeps. A scout whose session
request says it keeps no cache gets no admit states in its fetch replies
and is subscribed to nothing, so its notify batches carry the frontier and
its acks only. A notify tick skips an idle session: one already announced
at the target frontier, with no own records admitted since its last acks.

Commit identity is tracked at slot granularity: every alias GTID of a
record occupies one slot in its origin DC's gapless sequence, and the
replica's version vector advances along the contiguous prefix of applied
slots. Dependency checks therefore treat all aliases of a transaction
equivalently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from causalsim.clocks import (
    CausalClock,
    DcId,
    Gtid,
    Otid,
    ScoutId,
    VersionVector,
    clock_to_wire,
    gtid_to_wire,
    k_stable_vector,
    otid_to_wire,
    vector_from_wire,
    vector_to_wire,
)
from causalsim.crdt import (
    EffectOp,
    EffectTag,
    ObjectId,
    apply_effect,
    new_state,
    object_from_wire,
    object_to_wire,
    prepare,
    value_of,
    value_to_wire,
)
from causalsim.crdt import effect_to_wire, state_from_wire, state_to_wire
from causalsim.messages import (
    CommitRecord,
    CommitReply,
    CommitRequest,
    FetchReply,
    FetchRequest,
    GossipBatch,
    NotifyBatch,
    SessionReply,
    SessionRequest,
    StoredTxReply,
    StoredTxRequest,
    record_from_wire,
    record_to_wire,
)

# Every DC gossips at the same period over FIFO links, so one batch from a
# live peer arrives between any two of our ticks. A second tick without one
# means batches were lost to a crash or a partition, and with them maybe
# records we sent: until the peer is heard again it gets heartbeats only,
# and once after, everything its vector lacks. Jitter can make a live peer
# look silent, which delays records by a tick or two.
SILENT_TICKS = 2


def ack_wait_ticks(round_trip_ms: int, gossip_ms: int, jitter_ms: int) -> int:
    """Our gossip ticks after a send by which a live peer's reported vector
    covers our vdc at that send, unless a record was lost on the way: the
    batch takes a one-way delay plus jitter, the peer's next tick follows
    within a period, and its batch takes the other delay plus jitter back.
    A loss the peer does not go silent over, such as a crash shorter than
    the gap between two deliveries, which empties its `pending_remote`, is
    found this way."""
    return (round_trip_ms + gossip_ms + 2 * jitter_ms) // gossip_ms + 1


# the simulator's default links: 100 ms round trips, a 20 ms period, no jitter
DEFAULT_ACK_TICKS = ack_wait_ticks(100, 20, 0)

# a stored procedure reads through `reader(obj) -> value` and returns
# (results, [(obj, intent), ...]); it must be deterministic given the reader
StoredProcedure = Callable[[Any, Callable[[ObjectId], Any]], tuple]


class VersionPruned(Exception):
    """Requested snapshot falls below the prune frontier."""


@dataclass
class StoredObject:
    checkpoint: Any
    base: VersionVector
    entries: list[tuple[EffectOp, CommitRecord]] = field(default_factory=list)
    # volatile: the positions in `entries` covered by the last version
    # served, and its state
    served: Optional[tuple[list[int], Any]] = None


@dataclass
class Session:
    scout: ScoutId
    epoch: int
    subscriptions: set[ObjectId]
    last_announced: VersionVector
    acked: set[Otid] = field(default_factory=set)
    acked_through: int = 0  # admission number of the last record examined for acks
    caches: bool = True  # False: the scout keeps no cache, so nothing is subscribed


# message class -> the name of its `DataCenter` handler, looked up on the
# node's class, so that a subclass (`causalsim.mutants`) overrides it
_HANDLERS = {
    CommitRequest: "on_commit_request",
    GossipBatch: "on_gossip",
    FetchRequest: "on_fetch_request",
    SessionRequest: "on_session_request",
    StoredTxRequest: "on_stored_request",
}


class DataCenter:
    def __init__(
        self,
        dc_id: DcId,
        num_dcs: int,
        k: int,
        procedures: Optional[dict[str, StoredProcedure]] = None,
        notify_mode: str = "effects",
        ack_ticks: Optional[list[int]] = None,
    ):
        self.id = dc_id
        self.num_dcs = num_dcs
        self.k = k
        self.procedures = procedures or {}
        self.notify_mode = notify_mode
        # peer -> `ack_wait_ticks` over the link to it
        self.ack_ticks = ack_ticks or [DEFAULT_ACK_TICKS] * num_dcs

        # durable
        self.log: list[CommitRecord] = []
        self.by_otid: dict[Otid, CommitRecord] = {}
        # origin DC -> counter -> the log records holding that alias slot; the
        # last one is the record the alias names
        self.by_slot: list[dict[int, list[CommitRecord]]] = [{} for _ in range(num_dcs)]
        # origin scout -> its records, in log order
        self.by_origin: dict[ScoutId, list[CommitRecord]] = {}
        # id(record) -> admission number, increasing along the log;
        # `admitted` is the last number given
        self.admission: dict[int, int] = {}
        self.admitted = 0
        self.max_otid: dict[ScoutId, int] = {}
        self.prune_vector = VersionVector.zero(num_dcs)
        self.store: dict[ObjectId, StoredObject] = {}
        self.slots: list[set[int]] = [set() for _ in range(num_dcs)]
        self.top_slot = [0] * num_dcs  # highest slot ever marked, per origin
        self.vdc = VersionVector.zero(num_dcs)

        # volatile; at run start every peer is at the zero vector
        self.known_vectors: dict[DcId, VersionVector] = {
            j: VersionVector.zero(num_dcs) for j in range(num_dcs) if j != dc_id
        }
        # peer -> our vdc at each of our last `ack_ticks[peer]` gossips to
        # it, oldest first: the newest is the send mark, the oldest is due
        # to be acknowledged; and our gossip ticks since its last batch
        self.send_marks: dict[DcId, deque[VersionVector]] = {}
        self.quiet_ticks: dict[DcId, int] = {}
        self.sessions: dict[ScoutId, Session] = {}
        # deferred work by OTID, in arrival order
        self.pending_remote: dict[Otid, CommitRecord] = {}
        self.pending_commits: dict[Otid, CommitRequest] = {}
        self.pending_fetches: list[FetchRequest] = []
        self.pending_stored: dict[Otid, StoredTxRequest] = {}
        self.crash_on_next_commit = False
        # set on a crashed instance, whose handler may still be on the stack
        self.dead = False

    # -- durable stream ------------------------------------------------------

    def durable_snapshot(self) -> dict:
        """The crash-surviving state as an append-only record stream plus a
        checkpoint section, in canonical form."""
        return {
            "schema": "causalsim-log-1",
            "dc": self.id,
            "records": [record_to_wire(r) for r in self.log],
            "checkpoints": [
                [object_to_wire(obj), vector_to_wire(so.base), state_to_wire(so.checkpoint)]
                for obj, so in sorted(self.store.items())
            ],
            "max_otid": dict(sorted(self.max_otid.items())),
            "prune_vector": vector_to_wire(self.prune_vector),
            # per origin, the marked slots above the prune frontier; this
            # includes aliases of records already pruned here
            "slots": [
                sorted(c for c in marked if c > self.prune_vector[origin])
                for origin, marked in enumerate(self.slots)
            ],
        }

    @classmethod
    def from_durable(cls, snapshot: dict, num_dcs: int, k: int, **kw) -> "DataCenter":
        """Rebuild a replica from its durable stream, as crash recovery does."""
        dc = cls(snapshot["dc"], num_dcs, k, **kw)
        dc.known_vectors = {}  # a peer's vector is known again once it is heard
        dc.max_otid = dict(snapshot["max_otid"])
        dc.prune_vector = vector_from_wire(snapshot["prune_vector"])
        for obj_w, base, cp in snapshot["checkpoints"]:
            obj = object_from_wire(*obj_w)
            dc.store[obj] = StoredObject(state_from_wire(cp), vector_from_wire(base))
        for rw in snapshot["records"]:
            record = record_from_wire(rw)
            dc._log_record(record)
            dc._store_effects(record)
        # slots at or below the prune frontier were folded into checkpoints
        for origin, marked in enumerate(snapshot["slots"]):
            dc.slots[origin].update(range(1, dc.prune_vector[origin] + 1), marked)
        dc.top_slot = [max(s, default=0) for s in dc.slots]
        dc.vdc = dc.prune_vector
        dc._advance_vdc()
        return dc

    def seed_store(self, states: dict[ObjectId, Any]) -> None:
        """Install pre-run object states as checkpoints at the zero vector."""
        for obj, state in states.items():
            self.store[obj] = StoredObject(checkpoint=state, base=VersionVector.zero(self.num_dcs))

    # -- frontiers ---------------------------------------------------------

    def k_durable_frontier(self, k: Optional[int] = None) -> VersionVector:
        known = [self.vdc] + [
            self.known_vectors.get(j, VersionVector.zero(self.num_dcs))
            for j in range(self.num_dcs)
            if j != self.id
        ]
        return k_stable_vector(known, k or self.k)

    def announceable_frontier(self) -> VersionVector:
        """The K-durable frontier capped at what this replica has applied."""
        return self.k_durable_frontier().meet(self.vdc)

    # -- dependency machinery ------------------------------------------------

    def deps_satisfied(self, deps: CausalClock, origin: ScoutId) -> bool:
        if not deps.dc_part.leq(self.vdc):
            return False
        if deps.local_part > 0 and self.max_otid.get(origin, 0) < deps.local_part:
            return False
        return True

    def _log_record(self, record: CommitRecord) -> None:
        """Append a record to the log and to every index over it."""
        self.log.append(record)
        self.admitted += 1
        self.admission[id(record)] = self.admitted
        self.by_otid[record.otid] = record
        for g in record.gtids:
            self.by_slot[g.origin].setdefault(g.counter, []).append(record)
        self.by_origin.setdefault(record.otid.origin, []).append(record)

    def _unlog_records(self, dropped: dict[int, CommitRecord]) -> None:
        """Remove the records just pruned from the log, by identity, from the
        indexes that list them. With dedup off another record may share an
        OTID or an alias slot with a dropped one: the index then keeps, or
        points at, the records left, as a rebuild from the log would."""

        def keep_rest(index: dict, key) -> None:
            rest = [r for r in index[key] if id(r) not in dropped]
            if rest:
                index[key] = rest
            else:
                del index[key]

        for n in dropped:
            del self.admission[n]
        for origin, counter in {(g.origin, g.counter) for r in dropped.values() for g in r.gtids}:
            keep_rest(self.by_slot[origin], counter)
        for scout in {r.otid.origin for r in dropped.values()}:
            keep_rest(self.by_origin, scout)
        for otid in {r.otid for r in dropped.values()}:
            mine = [r for r in self.by_origin.get(otid.origin, ()) if r.otid == otid]
            if mine:
                self.by_otid[otid] = mine[-1]
            else:
                del self.by_otid[otid]

    def _store_effects(self, record: CommitRecord) -> None:
        for e in record.effects:
            so = self.store.get(e.target)
            if so is None:
                so = StoredObject(new_state(e.target.crdt_type), VersionVector.zero(self.num_dcs))
                self.store[e.target] = so
            so.entries.append((e, record))

    def _admit_record(self, env, record: CommitRecord, via: str) -> None:
        """Durably log a record, apply its effects once, then advance vdc."""
        self._log_record(record)
        prev = self.max_otid.get(record.otid.origin, 0)
        if record.otid.counter > prev:
            self.max_otid[record.otid.origin] = record.otid.counter
        self._store_effects(record)
        self._mark_slots(record.gtids)
        env.trace(
            {
                "ev": "apply",
                "node": f"dc{self.id}",
                "otid": otid_to_wire(record.otid),
                "gtids": [gtid_to_wire(g) for g in record.gtids],
                "via": via,
                "objs": [object_to_wire(o) for o in record.objects()],
                "deps": clock_to_wire(record.deps),
                "effects": [effect_to_wire(e) for e in record.effects] if via == "commit" else None,
            }
        )

    def _mark_slots(self, gtids: tuple[Gtid, ...]) -> None:
        for g in gtids:
            if g.counter > self.top_slot[g.origin]:
                self.top_slot[g.origin] = g.counter
            self.slots[g.origin].add(g.counter)
        self._advance_vdc()

    def _advance_vdc(self) -> None:
        """Move vdc along the contiguous prefix of marked slots."""
        vdc = list(self.vdc)
        for origin in range(self.num_dcs):
            while vdc[origin] + 1 in self.slots[origin]:
                vdc[origin] += 1
        self.vdc = VersionVector(vdc)

    def _merge_aliases(self, existing: CommitRecord, incoming: CommitRecord) -> None:
        new = tuple(g for g in incoming.gtids if g not in existing.gtids)
        if not new:
            return
        # rebound, not extended: a gossip batch in flight keeps the old tuple
        existing.gtids += new
        for g in new:
            self.by_slot[g.origin].setdefault(g.counter, []).append(existing)
        self._mark_slots(new)

    # -- global commit (scout -> DC) ----------------------------------------

    def on_commit_request(self, env, msg: CommitRequest) -> None:
        if not self._try_commit(env, msg):
            self.pending_commits.setdefault(msg.otid, msg)
        else:
            self._drain(env)

    def _try_commit(self, env, msg: CommitRequest) -> bool:
        if self._is_duplicate(msg.scout, msg.otid):
            record = self.by_otid.get(msg.otid)
            if record is not None:
                reply = CommitReply(msg.otid, "existing", record.primary_gtid)
            else:
                # seen but no longer in the log: pruned everywhere, so any
                # dependency on it is already satisfied at every DC
                reply = CommitReply(msg.otid, "null", None)
            env.send(f"dc{self.id}", msg.scout, reply)
            return True
        if not self.deps_satisfied(msg.deps, msg.scout):
            return False
        gtid = self._sequence(env, msg, msg.effects)
        if self.crash_on_next_commit:
            # fault hook: the record is durably logged but the reply is lost
            env.request_crash(self.id)
            return True
        env.send(f"dc{self.id}", msg.scout, CommitReply(msg.otid, "new", gtid))
        return True

    def _is_duplicate(self, scout: ScoutId, otid: Otid) -> bool:
        """The duplicate filter: a scout's OTIDs up to its high-water mark
        were committed before. The record is in `by_otid` unless pruned."""
        return otid.counter <= self.max_otid.get(scout, 0)

    def _sequence(self, env, msg, effects: tuple, results: Any = None) -> Gtid:
        """Give a scout's transaction (a commit or stored request) this DC's
        next GTID, then log and apply its record."""
        gtid = Gtid(self.vdc[self.id] + 1, self.id)
        record = CommitRecord(msg.otid, (gtid,), msg.deps, effects, msg.scout, results)
        self._admit_record(env, record, via="commit")
        return gtid

    # -- epidemic propagation ------------------------------------------------

    def on_gossip(self, env, msg: GossipBatch) -> None:
        self.quiet_ticks[msg.src] = 0
        for record in msg.records:
            self._receive_remote(env, record)
        prior = self.known_vectors.get(msg.src, VersionVector.zero(self.num_dcs))
        self.known_vectors[msg.src] = prior.join(msg.vdc)
        if msg.records:
            env.trace(
                {
                    "ev": "gossip",
                    "node": f"dc{self.id}",
                    "src": msg.src,
                    "vdc": vector_to_wire(msg.vdc),
                    "records": len(msg.records),
                }
            )
        self._drain(env)

    def _receive_remote(self, env, record: CommitRecord) -> None:
        if not self._place_remote(env, record):
            self.pending_remote.setdefault(record.otid, record)

    def _place_remote(self, env, record: CommitRecord) -> bool:
        """Merge, acknowledge or admit a remote record; False while its
        dependencies are missing."""
        existing = self.by_otid.get(record.otid)
        if existing is not None:
            self._merge_aliases(existing, record)
        elif record.otid.counter <= self.max_otid.get(record.otid.origin, 0):
            # known but pruned here: effects are already folded into the
            # checkpoints, so only acknowledge the alias slots
            self._mark_slots(record.gtids)
        elif self.deps_satisfied(record.deps, record.otid.origin):
            self._admit_record(env, record, via="gossip")
        else:
            return False
        return True

    def gossip_tick(self, env) -> None:
        for peer in range(self.num_dcs):
            if peer == self.id:
                continue
            quiet = self.quiet_ticks[peer] = self.quiet_ticks.get(peer, 0) + 1
            known = self.known_vectors.get(peer)
            if known is None or quiet >= SILENT_TICKS:
                # a peer we do not hear gets a heartbeat; with no marks left,
                # the first tick after its batch arrives sends all it lacks
                self.send_marks.pop(peer, None)
                suffix = []
            else:
                sent = self.send_marks.get(peer)
                if sent is None:
                    sent = self.send_marks[peer] = deque(maxlen=self.ack_ticks[peer])
                elif len(sent) < sent.maxlen or sent[0].leq(known):
                    # a talking peer that has acknowledged every send it had
                    # time to holds every slot at or below the mark
                    known = known.join(sent[-1])
                suffix = self.gossip_suffix(known)
                sent.append(self.vdc)
            records = [r.copy() for r in suffix]
            env.send(f"dc{self.id}", f"dc{peer}", GossipBatch(self.id, records, self.vdc))

    def gossip_suffix(self, known: VersionVector) -> list[CommitRecord]:
        """The log records with some alias slot that `known` does not cover,
        in log order. `gossip_tick` passes the peer's vector, joined with the
        send mark (our vdc at the last gossip to the peer) while the peer
        acknowledges in time: a record goes out once if our vdc covers it
        when first sent, and on every tick until it does if not."""
        found: dict[int, CommitRecord] = {}
        for origin, slot_records in enumerate(self.by_slot):
            for counter in range(known[origin] + 1, self.top_slot[origin] + 1):
                for record in slot_records.get(counter, ()):
                    found[self.admission[id(record)]] = record
        return [found[n] for n in sorted(found)]

    # -- deferred work -------------------------------------------------------

    def _drain(self, env) -> None:
        progress = True
        while progress and not self.dead:
            progress = False
            for pending, attempt in (
                (self.pending_remote, self._place_remote),
                (self.pending_commits, self._try_commit),
                (self.pending_stored, self._try_stored),
            ):
                for otid, item in list(pending.items()):
                    if self.dead:
                        return
                    if attempt(env, item):
                        del pending[otid]
                        progress = True
            for msg in list(self.pending_fetches):
                if self._fetch_ready(msg):
                    self.pending_fetches.remove(msg)
                    self._serve_fetch(env, msg)
                    progress = True

    # -- reads ----------------------------------------------------------------

    def materialize(self, obj: ObjectId, snapshot: CausalClock, own: ScoutId = ""):
        """Object state at a snapshot: checkpoint plus covered effects, plus
        the reading scout's own effects up to its local counter."""
        if not self.prune_vector.leq(snapshot.dc_part):
            raise VersionPruned(f"{obj} at {snapshot} below prune frontier {self.prune_vector}")
        so = self.store.get(obj)
        if so is None:
            return new_state(obj.crdt_type)
        state = so.checkpoint
        for effect, record in so.entries:
            if self._covered(record, snapshot, own):
                state = apply_effect(state, effect)
        return state

    @staticmethod
    def _covered(record: CommitRecord, snapshot: CausalClock, own: ScoutId) -> bool:
        if any(snapshot.dc_part.covers(g) for g in record.gtids):
            return True
        return record.otid.origin == own and record.otid.counter <= snapshot.local_part

    def on_fetch_request(self, env, msg: FetchRequest) -> None:
        session = self.sessions.get(msg.scout)
        if session is not None:
            for obj in msg.unsub:
                session.subscriptions.discard(obj)
        if not self.prune_vector.leq(msg.snapshot.dc_part):
            env.send(f"dc{self.id}", msg.scout, FetchReply(msg.scout, msg.req_id, "pruned"))
            return
        if self._fetch_ready(msg):
            self._serve_fetch(env, msg)
        else:
            self.pending_fetches.append(msg)

    def _fetch_ready(self, msg: FetchRequest) -> bool:
        if not self.deps_satisfied(msg.snapshot, msg.scout):
            return False
        session = self.sessions.get(msg.scout)
        admit = session.last_announced if session else msg.snapshot.dc_part
        return admit.leq(self.vdc)

    def fetch_states(
        self,
        obj: ObjectId,
        snapshot: CausalClock,
        admit_clock: Optional[CausalClock],
        own: ScoutId,
    ) -> tuple[Any, Optional[Any]]:
        """`materialize` at both clocks, from one walk over the object's
        entries. Returns (snapshot state, admit state), with None for the
        admit state when both clocks cover the same entries, or when there
        is no admit clock."""
        clocks = (snapshot,) if admit_clock is None else (snapshot, admit_clock)
        for c in clocks:
            if not self.prune_vector.leq(c.dc_part):
                raise VersionPruned(f"{obj} at {c} below prune frontier {self.prune_vector}")
        so = self.store.get(obj)
        if so is None:
            return new_state(obj.crdt_type), None
        covered = self._covered
        if admit_clock is None:
            key = [i for i, (_, r) in enumerate(so.entries) if covered(r, snapshot, own)]
            return self._served(so, key), None
        snap_key, admit_key = [], []
        for i, (_, record) in enumerate(so.entries):
            if covered(record, snapshot, own):
                snap_key.append(i)
            if covered(record, admit_clock, own):
                admit_key.append(i)
        snap = self._served(so, snap_key)
        return snap, (None if admit_key == snap_key else self._served(so, admit_key))

    @staticmethod
    def _served(so: StoredObject, key: list[int]) -> Any:
        """The checkpoint plus the entries at positions `key`: the memo's
        state if it covers the same ones, else replayed and remembered. With
        no entries, the checkpoint itself."""
        if so.served is not None and so.served[0] == key:
            return so.served[1]
        state = so.checkpoint
        for i in key:
            state = apply_effect(state, so.entries[i][0])
        if so.entries:
            so.served = (key, state)
        return state

    def _serve_fetch(self, env, msg: FetchRequest) -> None:
        session = self.sessions.get(msg.scout)
        # a scout without a cache admits nothing: no admit frontier, no admit
        # state, no subscription
        caches = session is None or session.caches
        admit_frontier = admit_clock = None
        if caches:
            admit_frontier = session.last_announced if session else msg.snapshot.dc_part
            admit_clock = CausalClock(admit_frontier, msg.snapshot.local_part)
        try:
            versions = [
                (obj, *self.fetch_states(obj, msg.snapshot, admit_clock, msg.scout))
                for obj in msg.objects
            ]
        except VersionPruned:
            env.send(f"dc{self.id}", msg.scout, FetchReply(msg.scout, msg.req_id, "pruned"))
            return
        if session is not None and caches:
            session.subscriptions.update(msg.objects)
        env.send(
            f"dc{self.id}",
            msg.scout,
            FetchReply(msg.scout, msg.req_id, "ok", versions, admit_frontier),
        )

    # -- sessions and notification --------------------------------------------

    def on_session_request(self, env, msg: SessionRequest) -> None:
        eligible = self._session_eligible(msg.dc_part)
        if eligible:
            self.sessions[msg.scout] = Session(
                scout=msg.scout,
                epoch=msg.epoch,
                subscriptions=set(msg.cached),
                last_announced=msg.dc_part,
                caches=msg.caches,
            )
        env.send(
            f"dc{self.id}",
            msg.scout,
            SessionReply(msg.scout, self.id, msg.epoch, eligible, self.k_durable_frontier()),
        )

    def _session_eligible(self, dc_part: VersionVector) -> bool:
        """A session opens only where the scout's clock is K-durable."""
        return dc_part.leq(self.k_durable_frontier())

    def _may_announce(self, base: VersionVector, target: VersionVector) -> bool:
        """A session's announced frontiers only grow."""
        return base.leq(target)

    def notify_tick(self, env) -> None:
        target = self.announceable_frontier()
        # most sessions share their last frontier, and so the delta from it
        deltas: dict[VersionVector, tuple[bool, list]] = {}
        for session in list(self.sessions.values()):
            base = session.last_announced
            if base == target and not self._acks_due(session):
                continue  # idle: nothing to announce and nothing to ack
            if not self._may_announce(base, target):
                continue
            if base not in deltas:
                deltas[base] = self._notify_delta(base, target)
            self._notify_session(env, session, target, *deltas[base])

    def _notify_delta(
        self, base: VersionVector, target: VersionVector
    ) -> tuple[bool, list[tuple[CommitRecord, list[ObjectId]]]]:
        """The records first announced by moving from `base` to `target`, each
        with its objects, and whether some slot between them is pruned."""
        delta = []
        gap_in_log = False
        seen: set[Otid] = set()
        for origin in range(self.num_dcs):
            for counter in range(base[origin] + 1, target[origin] + 1):
                slot = self.by_slot[origin].get(counter)
                if slot is None:
                    # already pruned: effects cannot be delivered piecemeal
                    gap_in_log = True
                    continue
                record = slot[-1]
                if record.otid in seen:
                    continue
                seen.add(record.otid)
                # a record can surface in a new slot range through an alias
                # even though an older alias was announced long ago
                if any(base.covers(g) for g in record.gtids):
                    continue
                delta.append((record, record.objects()))
        return gap_in_log, delta

    def _notify_session(
        self,
        env,
        session: Session,
        target: VersionVector,
        gap_in_log: bool,
        delta: list[tuple[CommitRecord, list[ObjectId]]],
    ) -> None:
        items: list[tuple[str, list]] = []
        if gap_in_log and session.subscriptions:
            items.append(("invalidate", sorted(session.subscriptions)))
        for record, objs in delta:
            if record.otid.origin == session.scout:
                continue  # the scout applied its own updates at local commit
            touched = [o for o in objs if o in session.subscriptions]
            if not touched:
                continue
            if self.notify_mode == "effects":
                effects = [e for e in record.effects if e.target in session.subscriptions]
                items.append(("effects", effects))
            else:
                items.append(("invalidate", touched))
        acks = self._take_acks(session)
        if target == session.last_announced and not acks:
            return
        env.send(
            f"dc{self.id}",
            session.scout,
            NotifyBatch(self.id, session.epoch, session.last_announced, target, items, acks),
        )
        session.last_announced = target

    def _acks_due(self, session: Session) -> bool:
        """Whether the session scout has records admitted since its last acks."""
        mine = self.by_origin.get(session.scout)
        return bool(mine) and self.admission[id(mine[-1])] > session.acked_through

    def _take_acks(self, session: Session) -> list[tuple[Otid, Gtid]]:
        """Ack the session scout's logged records, in log order, once per
        OTID; acks go out before the records are K-durable. Only records
        admitted since the last call are examined."""
        mine = self.by_origin.get(session.scout, [])
        start = len(mine)
        while start and self.admission[id(mine[start - 1])] > session.acked_through:
            start -= 1
        acks = []
        for record in mine[start:]:
            if record.otid not in session.acked:
                session.acked.add(record.otid)
                acks.append((record.otid, record.primary_gtid))
        if mine:
            session.acked_through = self.admission[id(mine[-1])]
        return acks

    # -- pruning ---------------------------------------------------------------

    def prune_tick(self, env) -> VersionVector:
        """Fold effects processed by every DC into checkpoints, drop records."""
        pv = self.vdc
        for j in range(self.num_dcs):
            if j == self.id:
                continue
            pv = pv.meet(self.known_vectors.get(j, VersionVector.zero(self.num_dcs)))
        if not (self.prune_vector.leq(pv) and pv != self.prune_vector):
            return self.prune_vector
        self.prune_vector = pv
        folded: dict[int, CommitRecord] = {}
        for so in self.store.values():
            keep = []
            for effect, record in so.entries:
                # all aliases must be covered: a partially-covered record may
                # still carry slot information some replica has not marked
                if all(pv.covers(g) for g in record.gtids):
                    so.checkpoint = apply_effect(so.checkpoint, effect)
                    folded[id(record)] = record
                else:
                    keep.append((effect, record))
            if len(keep) < len(so.entries):
                so.served = None  # a new checkpoint, and positions moved
            so.entries = keep
            so.base = pv
        if folded:
            self.log = [r for r in self.log if id(r) not in folded]
            self._unlog_records(folded)
        env.trace(
            {
                "ev": "prune",
                "node": f"dc{self.id}",
                "vector": vector_to_wire(pv),
                "dropped": len(folded),
            }
        )
        return pv

    # -- stored transactions -----------------------------------------------------

    def on_stored_request(self, env, msg: StoredTxRequest) -> None:
        if msg.name not in self.procedures:
            env.send(
                f"dc{self.id}",
                msg.scout,
                StoredTxReply(msg.otid, "unknown-proc", None),
            )
            return
        if self._try_stored(env, msg):
            self._drain(env)
        else:
            self.pending_stored.setdefault(msg.otid, msg)

    def _try_stored(self, env, msg: StoredTxRequest) -> bool:
        if self._is_duplicate(msg.scout, msg.otid):
            record = self.by_otid.get(msg.otid)
            if record is not None:
                reply = StoredTxReply(
                    msg.otid,
                    "existing",
                    record.primary_gtid,
                    record.stored_results,
                    record.objects(),
                )
            else:
                reply = StoredTxReply(msg.otid, "pruned", None)
            env.send(f"dc{self.id}", msg.scout, reply)
            return True
        if not self.deps_satisfied(msg.deps, msg.scout):
            return False
        if not self.prune_vector.leq(msg.deps.dc_part):
            env.send(f"dc{self.id}", msg.scout, StoredTxReply(msg.otid, "pruned", None))
            return True
        # snapshot pinned to the client-supplied dependency clock so that a
        # retried request re-executes deterministically at any DC
        working: dict[ObjectId, Any] = {}

        def reader(obj: ObjectId):
            if obj not in working:
                working[obj] = self.materialize(obj, msg.deps, msg.scout)
            return value_of(working[obj])

        proc = self.procedures[msg.name]
        results, updates = proc(msg.params, reader)
        effects = []
        seq = 0
        for obj, intent in updates:
            if obj not in working:
                working[obj] = self.materialize(obj, msg.deps, msg.scout)
            tag = EffectTag(msg.otid.counter, msg.otid.origin, seq)
            seq += 1
            e = prepare(obj, working[obj], intent, tag)
            working[obj] = apply_effect(working[obj], e)
            effects.append(e)
        gtid = self._sequence(env, msg, tuple(effects), results) if effects else None
        objects = list(dict.fromkeys(e.target for e in effects))
        env.send(f"dc{self.id}", msg.scout, StoredTxReply(msg.otid, "new", gtid, results, objects))
        return True

    # -- inspection ---------------------------------------------------------------

    def object_values(self) -> dict[ObjectId, Any]:
        """Materialized value of every object at this replica's full state."""
        out = {}
        for obj in sorted(self.store):
            out[obj] = value_to_wire(self.materialize(obj, CausalClock(self.vdc, 0)))
        return out

    def dispatch(self, env, msg) -> None:
        name = _HANDLERS.get(type(msg))
        if name is None:
            raise TypeError(f"dc{self.id} cannot handle {msg!r}")
        getattr(type(self), name)(self, env, msg)
