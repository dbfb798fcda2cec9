"""Client-side replica: cache, interactive transactions, commit pump, failover.

A scout executes one transaction at a time against a frozen snapshot
clock. Reads are served from the cache when possible; misses fetch the
snapshot version from the session DC in one round trip per batch. Commits
are local and immediate: effects apply to the cache, the record joins a
durable pending queue, and global commit happens asynchronously with
at-least-once retries (the DC-side OTID filter removes duplicates).

A pending record leaves the queue only once it is K-durable. On failover
the scout connects to a DC whose K-durable frontier covers its own clock
and replays the whole queue there, so the new DC never misses one of the
scout's causal dependencies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from causalsim.clocks import CausalClock, DcId, Gtid, Otid, ScoutId, VersionVector
from causalsim.clocks import clock_to_wire, gtid_to_wire, otid_to_wire, vector_to_wire
from causalsim.crdt import (
    EffectOp,
    EffectTag,
    ObjectId,
    apply_effect,
    effect_to_wire,
    object_to_wire,
    prepare,
    value_of,
    value_to_wire,
)
# nothing here decodes a state; the benchmark's tracer wraps this name
from causalsim.crdt import state_from_wire  # noqa: F401
from causalsim.messages import (
    CommitReply,
    CommitRequest,
    FetchReply,
    FetchRequest,
    NotifyBatch,
    SessionReply,
    SessionRequest,
    StoredTxReply,
    StoredTxRequest,
)


class Unavailable(Exception):
    """Cache miss while disconnected: the scout cannot make progress."""


class UsageError(Exception):
    """API misuse: overlapping transactions, update without read."""


class CachePinOverflow(Exception):
    """Every cache entry is pinned and the capacity is exceeded."""


class ProtocolError(Exception):
    """Session contract broken (non-monotonic notify frontier)."""


@dataclass
class CacheEntry:
    state: Any  # None once invalidated
    # None while the entry is at the scout's clock, advancing with it; else
    # the frontier it was admitted at, which it waits for in `Scout.waiting`
    at: Optional[VersionVector] = None
    pinned: bool = False


@dataclass
class PendingCommit:
    """A local commit not yet K-durable: local with no alias, global with
    one. It leaves `Scout.pending` once K-durable."""

    # the request as first sent, which every resend sends again
    request: CommitRequest
    # the aliases acks named; none while the commit is unacknowledged
    gtids: list[Gtid] = field(default_factory=list)


@dataclass
class TxHandle:
    otid: Otid
    snapshot: CausalClock
    begin_time: int
    status: str = "active"
    working: dict[ObjectId, Any] = field(default_factory=dict)
    read_set: list[ObjectId] = field(default_factory=list)
    effects: list[EffectOp] = field(default_factory=list)
    seq: int = 0
    round_trips: int = 0
    fetched: set[ObjectId] = field(default_factory=set)
    # the wire forms of `otid` and `snapshot`, built once and shared by the
    # transaction's trace events, which never mutate them
    otid_wire: list = field(init=False, repr=False)
    snap_wire: list = field(init=False, repr=False)

    def __post_init__(self):
        self.otid_wire = otid_to_wire(self.otid)
        self.snap_wire = clock_to_wire(self.snapshot)


# message class -> the name of its `Scout` handler, looked up on the
# node's class, so that a subclass (`causalsim.mutants`) overrides it
_HANDLERS = {
    CommitReply: "on_commit_reply",
    FetchReply: "on_fetch_reply",
    NotifyBatch: "on_notify",
    SessionReply: "on_session_reply",
    StoredTxReply: "on_stored_reply",
}


class Scout:
    def __init__(
        self,
        scout_id: ScoutId,
        num_dcs: int,
        cache_capacity: int,
        dc_preference: Optional[list[DcId]] = None,
        commit_dc: Optional[DcId] = None,
    ):
        self.id = scout_id
        self.num_dcs = num_dcs
        self.capacity = cache_capacity
        self.dc_preference = dc_preference or list(range(num_dcs))
        self.commit_dc = commit_dc

        self.clock = CausalClock.zero(num_dcs)
        self.cache: OrderedDict[ObjectId, CacheEntry] = OrderedDict()
        # frontier -> objects whose entries were admitted there, ahead of the
        # clock; they join the clock when it reaches that frontier
        self.waiting: dict[VersionVector, set[ObjectId]] = {}
        self.pending: list[PendingCommit] = []
        self.otid_counter = 0
        self.session: Optional[DcId] = None
        self.session_epoch = 0
        self.probe_idx = 0
        self.probe_inflight: Optional[DcId] = None
        self.forced_target: Optional[DcId] = None
        self.tx: Optional[TxHandle] = None
        # object -> what a read in the open transaction gets from the cache
        # (None: a miss), kept from before a change to the object's entry
        self.tx_stash: dict[ObjectId, Any] = {}
        # the fetch and the stored call in flight, as sent
        self.fetch: Optional[FetchRequest] = None
        self.stored: Optional[StoredTxRequest] = None
        self.notify_backlog: list[NotifyBatch] = []
        self.pending_unsub: list[ObjectId] = []
        self.req_counter = 0
        self.ever_connected = False

    # -- identity helpers ----------------------------------------------------

    def _dc_addr(self, dc: DcId) -> str:
        return f"dc{dc}"

    @property
    def connected(self) -> bool:
        return self.session is not None

    # -- transaction API -------------------------------------------------------

    def begin(self, env) -> TxHandle:
        if self.tx is not None:
            raise UsageError(f"{self.id}: transaction already active")
        self.otid_counter += 1
        tx = TxHandle(
            otid=Otid(self.otid_counter, self.id),
            snapshot=self.clock,
            begin_time=env.now(),
        )
        self.tx = tx
        self.tx_stash = {}
        env.trace(
            {
                "ev": "tx_begin",
                "node": self.id,
                "otid": tx.otid_wire,
                "snap": tx.snap_wire,
            }
        )
        return tx

    def read(self, env, tx: TxHandle, obj: ObjectId):
        """Return the readable value, or None after issuing a fetch. None is
        also an unset register's value: `multi_read` tells the two apart."""
        if not self.multi_read(env, tx, [obj]):
            return None
        return value_of(tx.working[obj])

    def multi_read(self, env, tx: TxHandle, objs: list[ObjectId]) -> bool:
        """Read `objs` into the transaction and return True, or issue one
        fetch for the misses and return False. Values are not rendered:
        `read` renders the one it returns."""
        if tx is not self.tx or tx.status != "active":
            raise UsageError("read on inactive transaction")
        missing = []
        for obj in objs:
            if obj in tx.working:
                continue
            base = self._resolve_base(obj)
            if base is None:
                missing.append(obj)
            else:
                tx.working[obj] = base
        if missing:
            if not self.connected:
                raise Unavailable(f"{self.id}: miss on {missing} while disconnected")
            self._issue_fetch(env, tx, missing)
            return False
        for obj in objs:
            if obj not in tx.read_set:
                tx.read_set.append(obj)
                src = "dc" if obj in tx.fetched else "cache"
                self._trace_read(env, tx, obj, src)
        return True

    def _resolve_base(self, obj: ObjectId):
        if obj in self.tx_stash:
            return self.tx_stash[obj]
        entry = self.cache.get(obj)
        if entry is not None and self._readable(entry):
            self.cache.move_to_end(obj)
            return entry.state
        return None

    def _readable(self, entry: CacheEntry) -> bool:
        # an entry admitted ahead of the clock waits for the clock: a DC
        # crash can lose the notify batches that would bring it there
        return entry.state is not None and entry.at is None

    def _issue_fetch(self, env, tx: TxHandle, objs: list[ObjectId]) -> None:
        self.req_counter += 1
        tx.round_trips += 1
        # an evicted object that a later reply admitted again stays subscribed
        unsub = [o for o in self.pending_unsub if o not in self.cache]
        self.fetch = FetchRequest(self.id, self.req_counter, objs, tx.snapshot, unsub)
        env.send(self.id, self._dc_addr(self.session), self.fetch)
        self.pending_unsub = []

    def _trace_read(self, env, tx: TxHandle, obj: ObjectId, src: str) -> None:
        env.trace(
            {
                "ev": "read",
                "node": self.id,
                "otid": tx.otid_wire,
                "obj": object_to_wire(obj),
                "value": value_to_wire(tx.working[obj]),
                "ver": tx.snap_wire,
                "src": src,
                "dc": self.session,
            }
        )

    def update(self, env, tx: TxHandle, obj: ObjectId, intent: tuple) -> None:
        if tx is not self.tx or tx.status != "active":
            raise UsageError("update on inactive transaction")
        if obj not in tx.working:
            raise UsageError(f"update of {obj} before reading it")
        tag = EffectTag(tx.otid.counter, tx.otid.origin, tx.seq)
        tx.seq += 1
        effect = prepare(obj, tx.working[obj], intent, tag)
        tx.working[obj] = apply_effect(tx.working[obj], effect)
        tx.effects.append(effect)
        env.trace(
            {
                "ev": "update",
                "node": self.id,
                "otid": tx.otid_wire,
                "obj": object_to_wire(obj),
                "effect": effect_to_wire(effect),
            }
        )

    def commit(self, env, tx: TxHandle) -> None:
        if tx is not self.tx or tx.status != "active":
            raise UsageError("commit on inactive transaction")
        tx.status = "committed"
        read_only = not tx.effects
        if not read_only:
            for effect in tx.effects:
                entry = self.cache.get(effect.target)
                if entry is not None and entry.state is not None:
                    entry.state = apply_effect(entry.state, effect)
            self.clock = self.clock.with_local(tx.otid.counter)
            request = CommitRequest(self.id, tx.otid, tx.snapshot, tuple(tx.effects))
            self.pending.append(PendingCommit(request))
        touched = []
        for e in tx.effects:
            pair = object_to_wire(e.target)
            if pair not in touched:
                touched.append(pair)
        env.trace(
            {
                "ev": "local_commit",
                "node": self.id,
                "otid": tx.otid_wire,
                "deps": tx.snap_wire,
                "objs": touched,
                "read_only": read_only,
                "rts": tx.round_trips,
                "dur": env.now() - tx.begin_time,
            }
        )
        self.tx = None
        self.tx_stash = {}
        if not read_only and self.connected:
            self._send_commit(env, self.pending[-1])

    def rollback(self, env, tx: TxHandle) -> None:
        if tx is not self.tx or tx.status != "active":
            raise UsageError("rollback on inactive transaction")
        tx.status = "rolledBack"
        env.trace(
            {
                "ev": "tx_abort",
                "node": self.id,
                "otid": tx.otid_wire,
                "rts": tx.round_trips,
            }
        )
        self.tx = None
        self.tx_stash = {}
        self.fetch = None

    # -- commit pump -------------------------------------------------------------

    def _commit_target(self) -> Optional[str]:
        if self.commit_dc is not None:
            return self._dc_addr(self.commit_dc)
        if self.session is not None:
            return self._dc_addr(self.session)
        return None

    def _send_commit(self, env, pc: PendingCommit) -> None:
        target = self._commit_target()
        if target is not None:
            env.send(self.id, target, pc.request)

    def pump_tick(self, env) -> None:
        """Resend every unacknowledged pending record, oldest first."""
        if not self.connected:
            return
        for pc in self.pending:
            if not pc.gtids:
                self._send_commit(env, pc)

    def on_commit_reply(self, env, reply: CommitReply) -> None:
        env.trace(
            {
                "ev": "commit_reply",
                "node": self.id,
                "otid": otid_to_wire(reply.otid),
                "status": reply.status,
                "gtid": None if reply.gtid is None else gtid_to_wire(reply.gtid),
            }
        )
        pc = self._ack(reply.otid, reply.gtid)
        if pc is None:
            return
        if reply.status == "null":
            # pruned everywhere: globally processed, safe to forget
            self.pending.remove(pc)
            return
        self._sweep_k_durable()

    def _ack(self, otid: Otid, gtid: Optional[Gtid]) -> Optional[PendingCommit]:
        """Note alias `gtid` of the pending record `otid`, and return the
        record; None if it is no longer pending. Only a `null` reply has no
        GTID, and its caller drops the record."""
        pc = next((p for p in self.pending if p.request.otid == otid), None)
        if pc is not None and gtid is not None and gtid not in pc.gtids:
            pc.gtids.append(gtid)
        return pc

    def _sweep_k_durable(self) -> None:
        """Drop the pending records that the clock covers: K-durable."""
        dc_part = self.clock.dc_part
        self.pending = [pc for pc in self.pending if not any(dc_part.covers(g) for g in pc.gtids)]

    # -- cache ----------------------------------------------------------------------

    def _place(self, obj: ObjectId, entry: CacheEntry, at: VersionVector) -> None:
        """Put an entry admitted at frontier `at` at the clock, or make it
        wait there."""
        if at == self.clock.dc_part:
            entry.at = None
        else:
            entry.at = at
            self.waiting.setdefault(at, set()).add(obj)

    def admit(self, env, obj: ObjectId, state, at: VersionVector, pin: bool = False) -> None:
        entry = self.cache.get(obj)
        if entry is not None:
            entry.state = state
            self._place(obj, entry, at)
            entry.pinned = entry.pinned or pin
            self.cache.move_to_end(obj)
            return
        if self.capacity == 0:
            if pin:
                raise CachePinOverflow(f"{self.id}: cannot pin with a zero-capacity cache")
            return
        while len(self.cache) >= self.capacity:
            victim = next((k for k, e in self.cache.items() if not e.pinned), None)
            if victim is None:
                raise CachePinOverflow(f"{self.id}: all {len(self.cache)} entries pinned")
            del self.cache[victim]
            self.pending_unsub.append(victim)
        entry = self.cache[obj] = CacheEntry(state, pinned=pin)
        self._place(obj, entry, at)

    def pin(self, objs: list[ObjectId]) -> None:
        pinned = sum(1 for e in self.cache.values() if e.pinned)
        for obj in objs:
            entry = self.cache.get(obj)
            if entry is None or entry.pinned:
                continue
            if pinned >= self.capacity:
                raise CachePinOverflow(f"{self.id}: cannot pin beyond capacity")
            entry.pinned = True
            pinned += 1

    def unpin(self, objs: list[ObjectId]) -> None:
        for obj in objs:
            entry = self.cache.get(obj)
            if entry is not None:
                entry.pinned = False

    def _stash_protect(self, obj: ObjectId) -> None:
        # keep the version an open snapshot needs before changing the entry
        if self.tx is not None and obj not in self.tx_stash:
            entry = self.cache.get(obj)
            readable = entry is not None and self._readable(entry)
            self.tx_stash[obj] = entry.state if readable else None

    # -- notifications -----------------------------------------------------------------

    def on_notify(self, env, batch: NotifyBatch) -> None:
        if batch.dc != self.session or batch.epoch != self.session_epoch:
            return  # stale batch from a previous session
        if self.fetch is not None:
            self.notify_backlog.append(batch)
            return
        self._apply_notify(env, batch)

    def _apply_notify(self, env, batch: NotifyBatch) -> None:
        if batch.prev != self.clock.dc_part or not self.clock.dc_part.leq(batch.frontier):
            raise ProtocolError(
                f"{self.id}: notify base {batch.prev} does not match clock {self.clock}"
            )
        for kind, payload in batch.items:
            if kind == "effects":
                for effect in payload:
                    if effect.tag.origin == self.id:
                        continue
                    entry = self.cache.get(effect.target)
                    if entry is None or entry.state is None:
                        continue
                    # an entry is at batch.prev iff it is at the clock
                    if entry.at is not None:
                        if not batch.prev.leq(entry.at):
                            entry.state = None  # behind this batch: invalid
                        continue  # else admitted ahead of this batch already
                    self._stash_protect(effect.target)
                    # the entry reaches the frontier with the clock below,
                    # after every effect of this batch has been applied
                    entry.state = apply_effect(entry.state, effect)
            else:
                for obj in payload:
                    entry = self.cache.get(obj)
                    if entry is not None:
                        self._stash_protect(obj)
                        entry.state = None
        self._advance_clock(batch.frontier)
        self._take_acks(env, batch)

    def _take_acks(self, env, batch: NotifyBatch) -> None:
        """Note the acks of an applied batch, and trace it."""
        for otid, gtid in batch.acks:
            self._ack(otid, gtid)
        self._sweep_k_durable()
        env.trace(
            {
                "ev": "notify",
                "node": self.id,
                "dc": batch.dc,
                "frontier": vector_to_wire(batch.frontier),
                "acks": [otid_to_wire(o) for o, _ in batch.acks],
            }
        )

    def _advance_clock(self, frontier: VersionVector) -> None:
        """Move the clock, and the entries at it, to `frontier`; entries
        admitted there join the clock."""
        self.clock = self.clock.with_dc_part(frontier)
        for obj in self.waiting.pop(frontier, ()):
            entry = self.cache.get(obj)
            if entry is not None and entry.at == frontier:
                # an open transaction's snapshot is behind the entry
                self._stash_protect(obj)
                entry.at = None
        # the clock only grows, so it cannot reach these again
        for dc_part in [v for v in self.waiting if v.leq(frontier)]:
            del self.waiting[dc_part]

    # -- fetch replies --------------------------------------------------------------------

    def _drain_notify_backlog(self, env) -> None:
        backlog, self.notify_backlog = self.notify_backlog, []
        for batch in backlog:
            if batch.dc == self.session and batch.epoch == self.session_epoch:
                self._apply_notify(env, batch)

    def on_fetch_reply(self, env, reply: FetchReply) -> None:
        if self.fetch is None or reply.req_id != self.fetch.req_id:
            return  # stale reply from a previous session
        if not self.connected:
            # stale too: a probe in flight listed the cache without these
            # objects, so the next session would not notify them. The fetch
            # stays outstanding, and `_resend_requests` reissues it
            return
        self.fetch = None
        tx = self.tx
        if reply.status == "pruned":
            self._drain_notify_backlog(env)
            env.trace({"ev": "read_failed", "node": self.id, "reason": "pruned"})
            if tx is not None:
                self.rollback(env, tx)
            return
        for obj, snap, admit in reply.versions:
            # states are immutable, so the DC, the transaction and the cache
            # share them
            if tx is not None and tx.status == "active":
                tx.working[obj] = snap
                tx.fetched.add(obj)
            if reply.admit_frontier is None:
                continue  # sent to a session without a cache: nothing to admit
            self._stash_protect(obj)
            self.admit(env, obj, snap if admit is None else admit, reply.admit_frontier)
        self._drain_notify_backlog(env)

    # -- stored transactions -----------------------------------------------------------------

    def exec_stored_tx(self, env, name: str, params) -> None:
        if self.tx is not None:
            raise UsageError("stored transaction during an open transaction")
        if not self.connected:
            raise Unavailable(f"{self.id}: stored call while disconnected")
        self.otid_counter += 1
        otid = Otid(self.otid_counter, self.id)
        self.stored = StoredTxRequest(self.id, name, params, otid, self.clock)
        env.send(self.id, self._dc_addr(self.session), self.stored)

    def on_stored_reply(self, env, reply: StoredTxReply) -> None:
        if self.stored is None or reply.otid != self.stored.otid:
            return
        call, self.stored = self.stored, None
        if reply.gtid is not None:
            # cached objects the call updated lack its effects, which the
            # clock is about to cover: drop them, and their subscriptions
            for obj in reply.objects:
                if self.cache.pop(obj, None) is not None:
                    self.pending_unsub.append(obj)
            self.clock = self.clock.with_local(reply.otid.counter)
        env.trace(
            {
                "ev": "stored_tx",
                "node": self.id,
                "otid": otid_to_wire(reply.otid),
                "name": call.name,
                "status": reply.status,
                "gtid": None if reply.gtid is None else gtid_to_wire(reply.gtid),
                "results": reply.results,
            }
        )

    # -- sessions and failover ------------------------------------------------------------------

    def on_session_lost(self, env) -> None:
        if self.session is None:
            return
        env.trace({"ev": "session", "node": self.id, "dc": self.session, "result": "lost"})
        self.session = None
        self.probe_inflight = None
        self.notify_backlog = []

    def ensure_session(self, env) -> None:
        """Probe candidate DCs until one whose frontier covers us accepts."""
        if self.connected or self.probe_inflight is not None:
            return
        if self.forced_target is not None:
            candidate = self.forced_target
        else:
            candidate = self.dc_preference[self.probe_idx % len(self.dc_preference)]
            self.probe_idx += 1
        self.probe_inflight = candidate
        self.session_epoch += 1
        cached = sorted(o for o, e in self.cache.items() if e.state is not None)
        env.send(
            self.id,
            self._dc_addr(candidate),
            SessionRequest(
                self.id, self.session_epoch, self.clock.dc_part, cached, self.capacity > 0
            ),
        )

    def on_session_reply(self, env, reply: SessionReply) -> None:
        if reply.dc != self.probe_inflight or reply.epoch != self.session_epoch:
            return  # late reply from an earlier probe
        candidate, self.probe_inflight = self.probe_inflight, None
        if not reply.accepted:
            env.trace({"ev": "session", "node": self.id, "dc": candidate, "result": "rejected"})
            return
        self.session = candidate
        self.ever_connected = True
        self.forced_target = None
        env.trace({"ev": "session", "node": self.id, "dc": candidate, "result": "connected"})
        # replay every record that is not yet K-durable, in OTID order (the
        # order `commit` appends them in); the DC's duplicate filter turns
        # re-deliveries into alias lookups
        for pc in self.pending:
            self._send_commit(env, pc)
        self._resend_requests(env)

    def retry_tick(self, env) -> None:
        """Periodic at-least-once machinery: reconnects and resends."""
        if not self.connected:
            # a probe that got no reply within a tick hit a dead DC: move on
            self.probe_inflight = None
            self.ensure_session(env)
            return
        self.pump_tick(env)
        self._resend_requests(env)

    def _resend_requests(self, env) -> None:
        """Resend the outstanding stored call and reissue the outstanding
        fetch to the session DC."""
        if self.stored is not None:
            env.send(self.id, self._dc_addr(self.session), self.stored)
        if self.fetch is not None and self.tx is not None and self.tx.status == "active":
            # a new request id, so that a late reply to the old one is stale
            self.tx.round_trips -= 1  # reissue, not a new application round trip
            self._issue_fetch(env, self.tx, self.fetch.objects)

    # -- dispatch -----------------------------------------------------------------------

    def dispatch(self, env, msg) -> None:
        name = _HANDLERS.get(type(msg))
        if name is None:
            raise TypeError(f"{self.id} cannot handle {msg!r}")
        getattr(type(self), name)(self, env, msg)
