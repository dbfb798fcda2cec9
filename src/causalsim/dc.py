"""Data-centre replica: versioned store, sequenced commit, gossip, pruning.

A DC is a single logical state machine; the simulator invokes one handler
at a time. Its durable state is the stream of `durable_snapshot`: the
commit log with its per-object checkpoints, the per-scout high-water OTID
map, the prune frontier, vdc and the alias slots marked above vdc. A crash
keeps nothing else: the simulator replaces the replica with one that
`from_durable` rebuilds from that stream, so sessions, peer knowledge,
send marks and deferred work are lost by construction. One method,
`_index_log`, derives the log's indexes (by OTID, by alias slot, by origin
scout) and every object's entries from the log, on recovery and on prune.

Gossip sends records only to a peer it hears. A replica starts knowing
that each peer is at the zero vector; a rebuilt one knows nothing of its
peers. A peer that it has not heard yet, or that has gone silent, gets a
heartbeat: an empty batch carrying our vdc. Once the peer's batch
arrives, the next tick sends it everything its reported vector lacks.

A fetch is served as states, which the reply carries and the scout's
cache and transaction share: states are immutable. Each stored object
keeps up to `KEPT_VERSIONS` versions it served, most recently served
first: the positions of the log entries each covers, and its state. A
fetch whose clock covers the same entries as a kept version gets its
state again without a replay. Otherwise only the entries past the longest
kept version whose positions are a prefix of its own are replayed, and
the result is kept. Kept versions are volatile: they are not in the
durable stream, and a prune that folds some of an object's entries drops
the object's, since it changes the checkpoint and the positions. An
object without entries serves its checkpoint state itself. The values
that end a run are read through the same versions.

A session is sent only what its scout keeps. A scout whose session
request says it keeps no cache gets no admit states in its fetch replies
and is subscribed to nothing, so its notify batches carry the frontier and
its acks only. A notify tick skips an idle session: one already announced
at the target frontier, with no own records admitted since its last acks.
The records a tick announces from one base are indexed by object once, so
a session visits only those that touch an object it subscribes to. The
tick's frontier is recomputed only when vdc, K or a peer's known vector
changed: a gossip batch that adds nothing keeps the peer's vector, and vdc
is rebuilt only when a slot moves it. A drain retests the parked fetches
only when vdc or the OTID high-water marks moved, or a session opened,
since it last did: nothing else can make one ready.

Commit identity is tracked at slot granularity: every alias GTID of a
record occupies one slot in its origin DC's gapless sequence, and the
replica's version vector advances along the contiguous prefix of applied
slots, which it summarizes: only the slots above it stay marked.
Dependency checks therefore treat all aliases of a transaction
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


# the most versions a stored object keeps to serve fetches from: on
# social-90-10 at 16x, 3 replay 7 % more entries than 4, and 8 only 4 % fewer
KEPT_VERSIONS = 4


@dataclass
class StoredObject:
    checkpoint: Any
    entries: list[tuple[EffectOp, CommitRecord]] = field(default_factory=list)
    # volatile: at most KEPT_VERSIONS versions served, most recent first,
    # each the positions in `entries` it covers and its state
    kept: list[tuple[list[int], Any]] = field(default_factory=list)


@dataclass
class Session:
    scout: ScoutId
    epoch: int
    subscriptions: set[ObjectId]
    last_announced: VersionVector
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
        # id(record) -> admission number, increasing along the log;
        # `admitted` is the last number given
        self.admission: dict[int, int] = {}
        self.admitted = 0
        self.max_otid: dict[ScoutId, int] = {}
        self.prune_vector = VersionVector.zero(num_dcs)
        self.store: dict[ObjectId, StoredObject] = {}
        self.vdc = VersionVector.zero(num_dcs)
        # per origin, the marked slots above vdc
        self.slots: list[set[int]] = [set() for _ in range(num_dcs)]
        self._index_log()  # derived from the log: by_otid, by_slot, by_origin

        # volatile: the inputs of the last announceable frontier, and that frontier
        self.frontier_memo: Optional[tuple[tuple, VersionVector]] = None
        # at run start every peer is at the zero vector
        self.known_vectors: dict[DcId, VersionVector] = {
            j: VersionVector.zero(num_dcs) for j in range(num_dcs) if j != dc_id
        }
        # peer -> our vdc at each of our last `ack_ticks[peer]` gossips to
        # it, oldest first: the newest is the send mark, the oldest is due
        # to be acknowledged; and our gossip ticks since its last batch
        self.send_marks: dict[DcId, deque[VersionVector]] = {}
        self.quiet_ticks: dict[DcId, int] = {}
        self.sessions: dict[ScoutId, Session] = {}
        # deferred work in arrival order: records and requests by OTID,
        # fetches by (scout, req_id)
        self.pending_remote: dict[Otid, CommitRecord] = {}
        self.pending_commits: dict[Otid, CommitRequest] = {}
        self.pending_fetches: dict[tuple[ScoutId, int], FetchRequest] = {}
        self.pending_stored: dict[Otid, StoredTxRequest] = {}
        # sessions opened; with vdc and `admitted`, the inputs of
        # `_fetch_ready` when the parked fetches were last retested
        self.sessions_opened = 0
        self.fetch_inputs: Optional[tuple] = None
        self.crash_on_next_commit = False
        # set on a crashed instance, whose handler may still be on the stack
        self.dead = False

    # -- durable stream ------------------------------------------------------

    def durable_snapshot(self) -> dict:
        """The crash-surviving state as an append-only record stream plus a
        checkpoint section, in canonical form."""
        return {
            "schema": "causalsim-log-2",
            "dc": self.id,
            "records": [record_to_wire(r) for r in self.log],
            "checkpoints": [
                [object_to_wire(obj), state_to_wire(so.checkpoint)]
                for obj, so in sorted(self.store.items())
            ],
            "max_otid": dict(sorted(self.max_otid.items())),
            "prune_vector": vector_to_wire(self.prune_vector),
            "vdc": vector_to_wire(self.vdc),
            # per origin, the marked slots above vdc; these may include
            # aliases of records already pruned here
            "slots": [sorted(marked) for marked in self.slots],
        }

    @classmethod
    def from_durable(cls, snapshot: dict, num_dcs: int, k: int, **kw) -> "DataCenter":
        """Rebuild a replica from its durable stream, as crash recovery does."""
        dc = cls(snapshot["dc"], num_dcs, k, **kw)
        dc.known_vectors = {}  # a peer's vector is known again once it is heard
        dc.max_otid = dict(snapshot["max_otid"])
        dc.prune_vector = vector_from_wire(snapshot["prune_vector"])
        for obj_w, cp in snapshot["checkpoints"]:
            dc.store[object_from_wire(*obj_w)] = StoredObject(state_from_wire(cp))
        dc.log = [record_from_wire(rw) for rw in snapshot["records"]]
        dc.admission = {id(r): n for n, r in enumerate(dc.log, 1)}
        dc.admitted = len(dc.log)
        dc._index_log()
        dc.vdc = vector_from_wire(snapshot["vdc"])
        dc.slots = [set(marked) for marked in snapshot["slots"]]
        return dc

    def seed_store(self, states: dict[ObjectId, Any]) -> None:
        """Install pre-run object states as checkpoints at the zero vector."""
        for obj, state in states.items():
            self.store[obj] = StoredObject(state)

    # -- frontiers ---------------------------------------------------------

    def k_durable_frontier(self, k: Optional[int] = None) -> VersionVector:
        known = [self.vdc] + [
            self.known_vectors.get(j, VersionVector.zero(self.num_dcs))
            for j in range(self.num_dcs)
            if j != self.id
        ]
        return k_stable_vector(known, k or self.k)

    def announceable_frontier(self) -> VersionVector:
        """The K-durable frontier capped at what this replica has applied.
        The last one is reused while vdc, k and every known vector are equal
        to its inputs; they are most often the very same objects, which
        compare at once."""
        inputs = (self.vdc, self.k, *self.known_vectors.items())
        memo = self.frontier_memo
        if memo is not None and memo[0] == inputs:
            return memo[1]
        frontier = self.k_durable_frontier().meet(self.vdc)
        self.frontier_memo = (inputs, frontier)
        return frontier

    # -- dependency machinery ------------------------------------------------

    def deps_satisfied(self, deps: CausalClock, origin: ScoutId) -> bool:
        if not deps.dc_part.leq(self.vdc):
            return False
        if deps.local_part > 0 and self.max_otid.get(origin, 0) < deps.local_part:
            return False
        return True

    def _index_record(self, record: CommitRecord) -> None:
        self.by_otid[record.otid] = record
        for g in record.gtids:
            self.by_slot[g.origin].setdefault(g.counter, []).append(record)
        self.by_origin.setdefault(record.otid.origin, []).append(record)

    def _index_log(self) -> None:
        """Derive the indexes over the log and every object's entries from the
        log, in log order, with the helpers a live admit uses."""
        self.by_otid: dict[Otid, CommitRecord] = {}
        # origin DC -> counter -> the log records holding that alias slot, in
        # log order, as `_merge_aliases` adds an alias to the last record
        # logged with the OTID; the last one is the record the alias names
        self.by_slot: list[dict[int, list[CommitRecord]]] = [{} for _ in range(self.num_dcs)]
        # origin scout -> its records, in log order
        self.by_origin: dict[ScoutId, list[CommitRecord]] = {}
        for so in self.store.values():
            so.entries = []
        for record in self.log:
            self._index_record(record)
            self._store_effects(record)

    def _store_effects(self, record: CommitRecord) -> None:
        for e in record.effects:
            so = self.store.get(e.target)
            if so is None:
                so = StoredObject(new_state(e.target.crdt_type))
                self.store[e.target] = so
            so.entries.append((e, record))

    def _admit_record(self, env, record: CommitRecord, via: str) -> None:
        """Durably log a record, apply its effects once, then advance vdc."""
        self.log.append(record)
        self.admitted += 1
        self.admission[id(record)] = self.admitted
        self._index_record(record)
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
        for counter, origin in gtids:
            if counter > self.vdc[origin]:
                self.slots[origin].add(counter)
        self._advance_vdc()

    def _advance_vdc(self) -> None:
        """Move vdc along the contiguous prefix of marked slots, unmarking
        each slot it passes; a vdc that does not move stays the same object."""
        vdc = list(self.vdc)
        moved = False
        for origin, marked in enumerate(self.slots):
            while vdc[origin] + 1 in marked:
                vdc[origin] += 1
                marked.remove(vdc[origin])
                moved = True
        if moved:
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
        record = CommitRecord(msg.otid, (gtid,), msg.deps, effects, results)
        self._admit_record(env, record, via="commit")
        return gtid

    # -- epidemic propagation ------------------------------------------------

    def on_gossip(self, env, msg: GossipBatch) -> None:
        self.quiet_ticks[msg.src] = 0
        for record in msg.records:
            self._receive_remote(env, record)
        # a batch that adds nothing keeps the vector, and so the frontier memo
        prior = self.known_vectors.get(msg.src)
        if prior is None:
            self.known_vectors[msg.src] = VersionVector.zero(self.num_dcs).join(msg.vdc)
        elif not msg.vdc.leq(prior):
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
            # the highest slot marked: vdc moves only through marked slots
            top = max(self.slots[origin], default=self.vdc[origin])
            for counter in range(known[origin] + 1, top + 1):
                for record in slot_records.get(counter, ()):
                    found[self.admission[id(record)]] = record
        return [found[n] for n in sorted(found)]

    # -- deferred work -------------------------------------------------------

    def _drain(self, env) -> None:
        if not (
            self.pending_remote or self.pending_commits or self.pending_stored or self.pending_fetches
        ):
            return  # nothing waits
        progress = True
        while progress and not self.dead:
            progress = False
            for pending, attempt in (
                (self.pending_remote, self._place_remote),
                (self.pending_commits, self._try_commit),
                (self.pending_stored, self._try_stored),
                (self.pending_fetches, self._try_fetch),
            ):
                if pending is self.pending_fetches:
                    # a parked fetch failed `_fetch_ready` at the last inputs:
                    # vdc, the high-water marks, which only an admit moves,
                    # and the sessions. A notify tick moves a session's
                    # announced frontier from at or below vdc to at or below
                    # vdc, which keeps the result, so only an opening counts
                    inputs = (self.vdc, self.admitted, self.sessions_opened)
                    if inputs == self.fetch_inputs:
                        continue
                    self.fetch_inputs = inputs
                for key, item in list(pending.items()):
                    if self.dead:
                        return
                    if attempt(env, item):
                        del pending[key]
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
            env.send(f"dc{self.id}", msg.scout, FetchReply(msg.req_id, "pruned"))
            return
        if not self._try_fetch(env, msg):
            self.pending_fetches.setdefault((msg.scout, msg.req_id), msg)

    def _try_fetch(self, env, msg: FetchRequest) -> bool:
        """Serve a fetch once its clocks are applied here; False until then."""
        if not self._fetch_ready(msg):
            return False
        self._serve_fetch(env, msg)
        return True

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
        """`materialize` at both clocks, through the kept versions. Returns
        (snapshot state, admit state), with None for the admit state when
        both clocks cover the same entries, or when there is no admit
        clock."""
        clocks = (snapshot,) if admit_clock is None else (snapshot, admit_clock)
        for c in clocks:
            if not self.prune_vector.leq(c.dc_part):
                raise VersionPruned(f"{obj} at {c} below prune frontier {self.prune_vector}")
        so = self.store.get(obj)
        if so is None:
            return new_state(obj.crdt_type), None
        if not so.entries:
            return so.checkpoint, None
        snap_key = self._positions(so, snapshot, own)
        snap = self._version(so, snap_key)
        if admit_clock is None:
            return snap, None
        admit_key = self._positions(so, admit_clock, own)
        return snap, (None if admit_key == snap_key else self._version(so, admit_key))

    @staticmethod
    def _positions(so: StoredObject, clock: CausalClock, own: ScoutId) -> list[int]:
        """The positions in `so.entries` that `_covered` picks at `clock`,
        with its alias test inlined."""
        vdc, local = clock
        positions = []
        for i, (_, record) in enumerate(so.entries):
            for counter, origin in record.gtids:
                if vdc[origin] >= counter:
                    positions.append(i)
                    break
            else:
                counter, origin = record.otid
                if origin == own and counter <= local:
                    positions.append(i)
        return positions

    @staticmethod
    def _version(so: StoredObject, key: list[int]) -> Any:
        """The checkpoint plus the entries at positions `key`. A kept version
        at the same positions is returned as it is. Otherwise the entries
        are replayed from the longest kept version whose positions are a
        prefix of `key`, or from the checkpoint, and the result is kept."""
        kept = so.kept
        base, start = so.checkpoint, 0
        for n, (positions, state) in enumerate(kept):
            if positions == key:
                if n:
                    kept.insert(0, kept.pop(n))
                return state
            size = len(positions)
            if start < size < len(key) and key[:size] == positions:
                base, start = state, size
        entries = so.entries
        for i in key[start:]:
            base = apply_effect(base, entries[i][0])
        kept.insert(0, (key, base))
        del kept[KEPT_VERSIONS:]
        return base

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
            env.send(f"dc{self.id}", msg.scout, FetchReply(msg.req_id, "pruned"))
            return
        if session is not None and caches:
            session.subscriptions.update(msg.objects)
        env.send(f"dc{self.id}", msg.scout, FetchReply(msg.req_id, "ok", versions, admit_frontier))

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
            self.sessions_opened += 1
        env.send(f"dc{self.id}", msg.scout, SessionReply(self.id, msg.epoch, eligible))

    def _session_eligible(self, dc_part: VersionVector) -> bool:
        """A session opens only where the scout's clock is K-durable."""
        return dc_part.leq(self.k_durable_frontier())

    def _may_announce(self, base: VersionVector, target: VersionVector) -> bool:
        """A session's announced frontiers only grow."""
        return base.leq(target)

    def notify_tick(self, env) -> None:
        target = self.announceable_frontier()
        # most sessions share their last frontier, and so the delta from it
        deltas: dict[VersionVector, tuple] = {}
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
    ) -> tuple[bool, list[tuple[CommitRecord, list[ObjectId]]], dict[ObjectId, list[int]]]:
        """The records first announced by moving from `base` to `target`, each
        with its objects, and whether some slot between them is pruned; then
        the delta's index: each object to the positions in the delta of the
        records that touch it."""
        delta = []
        by_object: dict[ObjectId, list[int]] = {}
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
                objs = record.objects()
                for obj in objs:
                    positions = by_object.get(obj)
                    if positions is None:
                        by_object[obj] = [len(delta)]
                    else:
                        positions.append(len(delta))
                delta.append((record, objs))
        return gap_in_log, delta, by_object

    def _notify_session(
        self,
        env,
        session: Session,
        target: VersionVector,
        gap_in_log: bool,
        delta: list[tuple[CommitRecord, list[ObjectId]]],
        by_object: dict[ObjectId, list[int]],
    ) -> None:
        items: list[tuple[str, list]] = []
        subscriptions = session.subscriptions
        if gap_in_log and subscriptions:
            items.append(("invalidate", sorted(subscriptions)))
        # the records that touch a subscribed object, in delta order; the
        # positions are sorted, since a set of objects iterates in hash order.
        # A keys view intersects a set by walking the smaller side
        hits = by_object.keys() & subscriptions
        for p in sorted({p for obj in hits for p in by_object[obj]}) if hits else ():
            record, objs = delta[p]
            if record.otid.origin == session.scout:
                continue  # the scout applied its own updates at local commit
            if self.notify_mode == "effects":
                effects = [e for e in record.effects if e.target in subscriptions]
                items.append(("effects", effects))
            else:
                items.append(("invalidate", [o for o in objs if o in subscriptions]))
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
        """Ack the session scout's records admitted since the last call, in
        log order; acks go out before the records are K-durable. The
        duplicate filter logs one record per OTID, so each OTID is acked
        once per session."""
        mine = self.by_origin.get(session.scout, [])
        start = len(mine)
        while start and self.admission[id(mine[start - 1])] > session.acked_through:
            start -= 1
        if mine:
            session.acked_through = self.admission[id(mine[-1])]
        return [(record.otid, record.primary_gtid) for record in mine[start:]]

    # -- pruning ---------------------------------------------------------------

    def prune_tick(self, env) -> VersionVector:
        """Fold effects processed by every DC into checkpoints, drop records."""
        pv = self.k_durable_frontier(self.num_dcs)  # the meet of every DC's vector
        if not (self.prune_vector.leq(pv) and pv != self.prune_vector):
            return self.prune_vector
        self.prune_vector = pv
        # all aliases must be covered: a partially-covered record may still
        # carry slot information some replica has not marked
        folded = [r for r in self.log if all(pv.covers(g) for g in r.gtids)]
        if folded:
            for record in folded:
                for effect in record.effects:
                    so = self.store[effect.target]
                    so.checkpoint = apply_effect(so.checkpoint, effect)
                    so.kept = []  # a new checkpoint, and positions moved
            dropped = {id(r) for r in folded}
            self.log = [r for r in self.log if id(r) not in dropped]
            # kept records keep their numbers: sessions compare `acked_through`
            self.admission = {id(r): self.admission[id(r)] for r in self.log}
            self._index_log()
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
                    record.results,
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
        """Materialized value of every object at this replica's full state,
        served through the kept versions."""
        full = CausalClock(self.vdc, 0)
        return {
            obj: value_to_wire(self.fetch_states(obj, full, None, "")[0]) for obj in sorted(self.store)
        }

    def dispatch(self, env, msg) -> None:
        name = _HANDLERS.get(type(msg))
        if name is None:
            raise TypeError(f"dc{self.id} cannot handle {msg!r}")
        getattr(type(self), name)(self, env, msg)
