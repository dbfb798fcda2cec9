"""Offline oracle over traces: consistency checks and metrics.

All checks work from the trace alone (plus the workload's deterministic
initial states), reconstructing transaction metadata from commit records
rather than inferring it from values. Read values are verified against an
independent materialization: replay every covered record's effects over
the initial state in a linear extension of the causality order.

A quiesced, healed run must additionally show every replica with equal
object values matching a full brute-force replay, and every counter equal
to the sum of increments over distinct transaction identities. A run that
ended unsynced skips the convergence check while a fault is still active
at its end (a DC crashed, a partition unhealed or a scout disconnected);
with none active it fails the check, since a stalled script or session
shows in no other check.

Parsing is one pass over the events, kinds tested in order of frequency,
into slotted records. The simulator does not trace transaction labels: a
social workload's come from its plan (``workload.social_plan``), the draws
its scripts are made from, so the checker builds the friend graph, the
initial states and the plan, and no script. It builds every index the
checks need, once:

- the linear extension itself: records sorted by (first apply time, OTID),
  each tagged with its position;
- per object, the records that touch it, in that order, each with its
  effects on the object already decoded;
- reads per transaction, and records by OTID, which is also how
  origin-chain dependencies ``(deps_local, origin)`` are looked up.

Replaying one object's list therefore applies exactly the effects, in
exactly the order, that a replay of the whole sorted record list filtered
to that object applies. Two snapshots need no replay: an object no record
touches reads its initial state, and a snapshot that covers every entry
through its first alias reads the checkpoint of the whole list. Any
other snapshot is replayed afresh, in three parts, each applied in list
order (``_ObjectLog``):

- the covered prefix. ``reach[d][i]`` is the max of the first aliases at
  DC ``d`` of the first ``i`` entries. If ``reach[d][i] <= ver_dc[d]`` for
  every ``d``, every one of those entries is covered through its first
  alias, whoever reads. Each column only grows, so the longest such prefix
  is found by one binary search per DC, then extended over the entries
  after it that the snapshot covers for any reason. A prefix that is
  covered entry by entry leaves the same state for every reader and
  snapshot, so that state is built once, from the nearest shorter
  checkpoint, and shared. Checkpoints are kept only for lengths some
  replay asked for, never one per entry.
- the undecided middle, where each entry is tested with ``covers``.
- the tail. ``floor[d][j]`` is the min over every alias at DC ``d`` of the
  entries from ``j`` on. Once ``floor[d][j] > ver_dc[d]`` for every ``d``,
  no entry from ``j`` on is covered through an alias, so only the reader's
  own records under its local counter can be; they are looked up in a
  per-origin index instead of walking the tail.

Snapshot closure is proven per DC before it is walked: ``need[d][c]`` is
the join of the dependencies of every record with an alias ``(c' <= c, d)``
and of the first alias of its origin-chain dependency. If
``need[d][ver[d]] <= ver``, every record the walk over ``d`` would visit has
its dependencies and its chain dependency covered, so the walk reports
nothing and is skipped; otherwise it runs unchanged. The checker shares no
code with the DC's materialization.

Atomicity indexes, per object, the records that touch two or more objects,
the only ones that can be candidates, and visits a transaction's candidates
only if one of its reads returned something other than its snapshot's
value. Staleness sweeps reads in time order, keeping per object the
records committed and not yet K-durable in a heap ordered by K-durability
time. Both report what the full scans report.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Optional

from causalsim import workload
from causalsim.crdt import (
    ObjectId,
    apply_effect,
    effect_from_wire,
    new_state,
    object_from_wire,
    value_to_wire,
)
from causalsim.gcpause import gc_paused


@dataclass
class Verdict:
    name: str
    ok: bool
    violations: list[str] = field(default_factory=list)
    skipped: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": self.violations[:10],
            "violation_count": len(self.violations),
            "skipped": self.skipped,
        }


@dataclass(slots=True)
class RecordInfo:
    otid: tuple  # (counter, origin)
    origin: str
    deps_dc: tuple
    deps_local: int
    effects: list
    objs: set
    aliases: list[tuple]  # (counter, dc)
    commit_time: int
    apply_times: dict[int, int]  # dc -> first durable apply time
    pos: int = -1  # position in the causal order


@dataclass(slots=True)
class ReadInfo:
    scout: str
    tx: tuple
    obj: tuple
    value: Any
    ver_dc: tuple
    ver_local: int
    t: int
    src: str
    dc: Optional[int]
    updates_before: int  # own effects of this tx applied before the read
    matches: Optional[bool] = None  # value == what it should return, once compared


@dataclass(slots=True)
class TxInfo:
    scout: str
    otid: tuple
    snap_dc: tuple
    snap_local: int
    t_begin: int
    committed: bool = False
    read_only: bool = True
    aborted: bool = False
    rts: int = 0
    dur: int = 0
    label: Optional[str] = None


def _leq(a: tuple, b: tuple) -> bool:
    return all(map(operator.le, a, b))


class _ObjectLog:
    """One object's records in causal order, the bounds that cut a replay of
    them short, and the replay checkpoints every reader shares."""

    __slots__ = ("entries", "reach", "floor", "own", "lengths", "states")

    def __init__(self, entries: list, initial, num_dcs: int):
        self.entries = entries
        # reach[d][i]: max over the first aliases at DC d of entries[:i]
        top = [0] * num_dcs
        self.reach = [[0] for _ in range(num_dcs)]
        for rec, _ in entries:
            if rec.aliases:
                counter, dc = rec.aliases[0]
                top[dc] = max(top[dc], counter)
            else:  # covered through no alias: ends every shared prefix
                top = [math.inf] * num_dcs
            for column, value in zip(self.reach, top):
                column.append(value)
        # floor[d][j]: min over every alias at DC d of entries[j:]
        low = [math.inf] * num_dcs
        self.floor = [[math.inf] for _ in range(num_dcs)]
        for rec, _ in reversed(entries):
            for counter, dc in rec.aliases:
                low[dc] = min(low[dc], counter)
            for column, value in zip(self.floor, low):
                column.append(value)
        for column in self.floor:
            column.reverse()
        self.own: dict[str, list[int]] = {}  # origin -> indexes of its entries
        for i, (rec, _) in enumerate(entries):
            self.own.setdefault(rec.origin, []).append(i)
        self.lengths = [0]  # sorted prefix lengths with a checkpoint
        self.states = [initial]  # the state after each of those prefixes

    def covered_prefix(self, ver_dc: tuple) -> int:
        """The longest prefix that every snapshot at ``ver_dc`` covers: each
        column of ``reach`` only grows, so per DC the entries it bounds by
        ``ver_dc`` form a prefix."""
        return min(map(bisect.bisect_right, self.reach, ver_dc)) - 1

    def tail_start(self, start: int, ver_dc: tuple) -> int:
        """The first index from ``start`` on whose entries, and all later
        ones, ``ver_dc`` covers through no alias: each column of ``floor``
        only grows, so per DC the indexes past ``ver_dc`` form a suffix."""
        return max(start, *map(bisect.bisect_right, self.floor, ver_dc))

    def checkpoint(self, n: int):
        """The state after ``entries[:n]``, kept for the next replay."""
        k = bisect.bisect_right(self.lengths, n) - 1
        state = self.states[k]
        if self.lengths[k] == n:
            return state
        for _, effects in self.entries[self.lengths[k] : n]:
            for effect in effects:
                state = apply_effect(state, effect)
        self.lengths.insert(k + 1, n)
        self.states.insert(k + 1, state)
        return state


class TraceAnalysis:
    """Indexes a trace for the checkers."""

    def __init__(self, trace: list[dict]):
        if not trace or trace[0].get("ev") != "config":
            raise ValueError("trace must start with a config header")
        self.header = trace[0]
        self.k = self.header["k"]
        self.num_dcs = self.header["num_dcs"]
        self.records: dict[tuple, RecordInfo] = {}
        self.reads: list[ReadInfo] = []
        self.reads_by_tx: dict[tuple, list[ReadInfo]] = {}
        self.txs: dict[tuple, TxInfo] = {}
        self.tx_order: dict[str, list[tuple]] = {}
        self.tx_updates: dict[tuple, list] = {}
        self.quiesce: Optional[dict] = None
        # faults still active at the end of the trace, besides crashed DCs
        self.partitioned: set[frozenset] = set()
        self.disconnected: set[str] = set()
        self.by_alias: dict[tuple, tuple] = {}
        self.duplicate_applies: list[str] = []
        self._parse(trace)
        self.initial = self._load_workload()
        # the linear extension of causality every replay follows
        self.order = sorted(
            self.records.values(), key=lambda r: (r.commit_time, r.otid[0], r.otid[1])
        )
        # object -> [(record, its decoded effects on the object)] in causal order
        self.by_obj: dict[tuple, list[tuple[RecordInfo, list]]] = {}
        self.decoded: dict[tuple, list] = {}
        for pos, rec in enumerate(self.order):
            rec.pos = pos
            effects = self.decoded[rec.otid] = [effect_from_wire(ew) for ew in rec.effects]
            for obj in rec.objs:
                mine = [e for e in effects if (e.target.key, e.target.crdt_type.value) == obj]
                self.by_obj.setdefault(obj, []).append((rec, mine))
        self._logs: dict[tuple, _ObjectLog] = {}
        self._own: dict[tuple, list] = {}  # tx -> [(object, decoded update)]

    def _parse(self, trace: list[dict]) -> None:
        records, reads, reads_by_tx = self.records, self.reads, self.reads_by_tx
        txs, tx_order, tx_updates, by_alias = self.txs, self.tx_order, self.tx_updates, self.by_alias
        # event kinds in order of frequency; the rest are skipped
        for ev in trace:
            kind = ev["ev"]
            if kind == "read":
                otid = tuple(ev["otid"])
                ver = ev["ver"]
                read = ReadInfo(
                    ev["node"],
                    otid,
                    tuple(ev["obj"]),
                    ev["value"],
                    tuple(ver[0]),
                    ver[1],
                    ev["t"],
                    ev["src"],
                    ev.get("dc"),
                    len(tx_updates.get(otid, ())),
                )
                reads.append(read)
                tx_reads = reads_by_tx.get(otid)
                if tx_reads is None:
                    reads_by_tx[otid] = [read]
                else:
                    tx_reads.append(read)
            elif kind == "tx_begin":
                otid = tuple(ev["otid"])
                node, snap = ev["node"], ev["snap"]
                txs[otid] = TxInfo(node, otid, tuple(snap[0]), snap[1], ev["t"])
                order = tx_order.get(node)
                if order is None:
                    tx_order[node] = [otid]
                else:
                    order.append(otid)
                tx_updates[otid] = []
            elif kind == "local_commit":
                tx = txs[tuple(ev["otid"])]
                tx.committed = True
                tx.read_only = ev["read_only"]
                tx.rts = ev["rts"]
                tx.dur = ev["dur"]
            elif kind == "apply":
                otid = tuple(ev["otid"])
                dc = int(ev["node"][2:])
                t = ev["t"]
                rec = records.get(otid)
                if rec is None:
                    deps = ev["deps"]
                    rec = records[otid] = RecordInfo(
                        otid,
                        otid[1],
                        tuple(deps[0]),
                        deps[1],
                        [],
                        {tuple(o) for o in ev["objs"]},
                        [],
                        t,
                        {},
                    )
                if ev.get("effects"):
                    rec.effects = ev["effects"]
                aliases = rec.aliases
                for g in ev["gtids"]:
                    alias = (g[0], g[1])
                    if alias not in aliases:
                        aliases.append(alias)
                    by_alias[alias] = otid
                if t < rec.commit_time:
                    rec.commit_time = t
                if dc in rec.apply_times:
                    self.duplicate_applies.append(f"record {otid} applied twice at dc{dc}")
                else:
                    rec.apply_times[dc] = t
            elif kind == "update":
                tx_updates[tuple(ev["otid"])].append(ev["effect"])
            elif kind == "tx_abort":
                txs[tuple(ev["otid"])].aborted = True
            elif kind == "fault":
                fault = ev["kind"]
                if fault == "partition":
                    self.partitioned.update(map(frozenset, ev["links"]))
                elif fault == "heal":
                    self.partitioned.difference_update(map(frozenset, ev["links"]))
                elif fault == "scout_disconnect":
                    self.disconnected.add(ev["scout"])
                elif fault == "scout_reconnect":
                    self.disconnected.discard(ev["scout"])
            elif kind == "quiesce":
                self.quiesce = ev

    @gc_paused()
    def _load_workload(self) -> dict:
        """Rebuild the workload's initial states, which seed every replay.
        A social workload also gives back its transaction labels, which the
        simulator does not know and so does not trace; they come from the
        workload's plan of draws, without building a script. Transactions of
        other workloads keep no label."""
        scenario = self.header.get("scenario")
        if not scenario:
            return {}
        sim_cfg = scenario.get("sim", {})
        labels, initial = workload.labels_and_states(
            scenario.get("workload", {"kind": "none"}),
            self.header.get("num_scouts", sim_cfg.get("num_scouts", 0)),
            self.header.get("seed", 0),
        )
        for scout, order in self.tx_order.items():
            script = labels.get(scout, ())
            # transactions map to script entries in order, with retries of an
            # aborted entry consuming extra OTIDs
            spec_idx = 0
            for otid in order:
                tx = self.txs[otid]
                if spec_idx < len(script):
                    tx.label = script[spec_idx]
                if not tx.aborted:
                    spec_idx += 1
        return initial

    # -- coverage and materialization ------------------------------------------

    def covers(self, rec: RecordInfo, ver_dc: tuple, ver_local: int, reader: str) -> bool:
        if rec.origin == reader and rec.otid[0] <= ver_local:
            return True
        return any(counter <= ver_dc[dc] for counter, dc in rec.aliases)

    def initial_state(self, obj: tuple):
        oid = object_from_wire(obj[0], obj[1])
        return self.initial.get(oid, new_state(oid.crdt_type))

    def _log(self, obj: tuple) -> _ObjectLog:
        log = self._logs.get(obj)
        if log is None:
            log = self._logs[obj] = _ObjectLog(
                self.by_obj.get(obj, []), self.initial_state(obj), self.num_dcs
            )
        return log

    def oracle_value(self, obj: tuple, ver_dc: tuple, ver_local: int, reader: str):
        """Independent replay of every covered record's effects on one object."""
        log = self._log(obj)
        if not log.entries:  # no record touches the object
            return log.states[0]
        covered = log.covered_prefix(ver_dc)
        if covered == len(log.entries):  # the snapshot covers every entry
            return log.checkpoint(covered)
        return self.replay(obj, ver_dc, ver_local, reader)

    def replay(self, obj: tuple, ver_dc: tuple, ver_local: int, reader: str, skip: int = -1):
        """The object's state in the snapshot, leaving out the entry at index
        ``skip`` of its list if one is given."""
        log = self._log(obj)
        entries = log.entries
        covered = log.covered_prefix(ver_dc)
        while covered < len(entries) and self.covers(entries[covered][0], ver_dc, ver_local, reader):
            covered += 1
        start = skip if 0 <= skip < covered else covered
        state = log.checkpoint(start)
        for i in range(start, covered):
            if i != skip:
                for effect in entries[i][1]:
                    state = apply_effect(state, effect)
        tail = log.tail_start(covered, ver_dc)
        for i in range(covered, tail):
            rec, effects = entries[i]
            if i != skip and self.covers(rec, ver_dc, ver_local, reader):
                for effect in effects:
                    state = apply_effect(state, effect)
        own = log.own.get(reader, ())
        for i in own[bisect.bisect_left(own, tail) :]:
            rec, effects = entries[i]
            if i != skip and rec.otid[0] <= ver_local:
                for effect in effects:
                    state = apply_effect(state, effect)
        return state

    def read_state(self, read: ReadInfo):
        """What the read should return: its snapshot plus the reading
        transaction's own updates made before it."""
        state = self.oracle_value(read.obj, read.ver_dc, read.ver_local, read.scout)
        for effect in self.own_updates(read):
            state = apply_effect(state, effect)
        return state

    def read_matches(self, read: ReadInfo) -> bool:
        """Whether the read returned what it should; compared once per read,
        by whichever check asks first."""
        if read.matches is None:
            read.matches = value_to_wire(self.read_state(read)) == read.value
        return read.matches

    def own_updates(self, read: ReadInfo) -> list:
        """The reading transaction's own effects on the read object that were
        applied before the read, decoded once per transaction."""
        if not read.updates_before:
            return []
        updates = self._own.get(read.tx)
        if updates is None:
            updates = self._own[read.tx] = [
                ((e.target.key, e.target.crdt_type.value), e)
                for e in map(effect_from_wire, self.tx_updates[read.tx])
            ]
        return [effect for obj, effect in updates[: read.updates_before] if obj == read.obj]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_history_acyclic(tr: TraceAnalysis) -> Verdict:
    """The reconstructed potential-causality relation must be a partial order."""
    violations = []
    for rec in tr.records.values():
        for dc in range(tr.num_dcs):
            counter = rec.deps_dc[dc]
            while counter > 0:
                dep = tr.by_alias.get((counter, dc))
                if dep is not None:
                    if tr.records[dep].pos > rec.pos and dep != rec.otid:
                        violations.append(f"{rec.otid} depends on later record {dep}")
                    break
                counter -= 1
        if rec.deps_local:
            prev = tr.records.get((rec.deps_local, rec.origin))
            if prev is not None and prev.pos > rec.pos:
                violations.append(f"{rec.otid} precedes its own dependency {prev.otid}")
    return Verdict("history_acyclic", not violations, violations)


def check_causal_snapshots(tr: TraceAnalysis) -> Verdict:
    """Every read observes one snapshot plus its own prior updates, and the
    snapshot's transaction set is transitively closed over dependencies."""
    violations = []
    for read in tr.reads:
        tx = tr.txs[read.tx]
        if read.ver_dc != tx.snap_dc or read.ver_local != tx.snap_local:
            violations.append(f"{read.scout} tx {read.tx}: read outside the frozen snapshot")
            continue
        if not tr.read_matches(read):
            expected = value_to_wire(tr.read_state(read))
            violations.append(
                f"{read.scout} tx {read.tx} read {read.obj}: got {read.value!r}, "
                f"snapshot materializes {expected!r}"
            )
    violations.extend(_closure_violations(tr))
    return Verdict("causal_snapshots", not violations, violations)


def _closure_bounds(tr: TraceAnalysis) -> list[list[tuple]]:
    """Per DC ``d``, ``need[d][c]``: the join of ``deps_dc`` of every record
    with an alias ``(c' <= c, d)``, and of the first alias of each such
    record's origin-chain dependency. A snapshot ``ver`` with
    ``need[d][ver[d]] <= ver`` includes no record through DC ``d`` without
    its dependencies; counters past a DC's last alias share its last row."""
    n = tr.num_dcs
    top = [0] * n
    for counter, dc in tr.by_alias:
        top[dc] = max(top[dc], counter)
    need = []
    for dc in range(n):
        acc = [0] * n
        rows = [tuple(acc)]
        for counter in range(1, top[dc] + 1):
            dep = tr.by_alias.get((counter, dc))
            if dep is not None:
                rec = tr.records[dep]
                acc = list(map(max, acc, rec.deps_dc))
                chain = tr.records.get((rec.deps_local, rec.origin)) if rec.deps_local else None
                if chain is not None:
                    if chain.aliases:
                        c, d = chain.aliases[0]
                        acc[d] = max(acc[d], c)
                    else:  # covered through no alias: the bound never holds
                        acc = [math.inf] * n
            rows.append(tuple(acc))
        need.append(rows)
    return need


def _closure_violations(tr: TraceAnalysis) -> list[str]:
    out = []
    need = _closure_bounds(tr)
    for scout, order in tr.tx_order.items():
        prev_dc = tuple([0] * tr.num_dcs)
        for otid in order:
            tx = tr.txs[otid]
            ver = tx.snap_dc
            if _leq(ver, prev_dc):
                continue  # no DC has counters to walk
            for dc in range(tr.num_dcs):
                if ver[dc] <= prev_dc[dc]:
                    continue
                rows = need[dc]
                if _leq(rows[min(ver[dc], len(rows) - 1)], ver):
                    continue  # every record walked below has its deps covered
                for counter in range(prev_dc[dc] + 1, ver[dc] + 1):
                    dep = tr.by_alias.get((counter, dc))
                    if dep is None:
                        continue  # pruned before this trace window closed it
                    rec = tr.records[dep]
                    if not all(rec.deps_dc[j] <= ver[j] for j in range(tr.num_dcs)):
                        out.append(
                            f"{scout} snapshot {ver} includes {dep} but not its deps {rec.deps_dc}"
                        )
                    if rec.deps_local and rec.origin != scout:
                        chain = tr.records.get((rec.deps_local, rec.origin))
                        if chain is not None and not tr.covers(chain, ver, tx.snap_local, scout):
                            out.append(
                                f"{scout} snapshot {ver} includes {dep} but not "
                                f"its origin-chain dependency {chain.otid}"
                            )
            prev_dc = tuple(map(max, prev_dc, ver))
    return out


def check_atomicity(tr: TraceAnalysis) -> Verdict:
    """No snapshot reflects a proper subset of a transaction's effects.

    The candidates of a transaction that read two or more objects are the
    other records that touch two or more of them, in trace order. A read of
    an object a candidate touches shows the candidate if it returned its
    snapshot's value and leaving the candidate out would change that value,
    and misses it if it returned the value with the candidate left out. For
    a candidate the snapshot does not cover, that value is the read's
    expected one, its own prior updates included. A partial application is
    a candidate shown on one object and missed on another.

    A read that returned its snapshot's value can never miss a candidate, so
    a transaction none of whose reads differs from its snapshot's value is
    passed over, and the rest visit only the candidates that touch an object
    of a read that differs. Each object indexes the records that touch two
    or more objects, the only ones that can be candidates."""
    violations = []
    seq: dict[tuple, int] = {}
    index: dict[tuple, list[RecordInfo]] = {}  # object -> multi-object records, in trace order
    for i, (otid, rec) in enumerate(tr.records.items()):
        seq[otid] = i
        if len(rec.objs) >= 2:
            for obj in rec.objs:
                index.setdefault(obj, []).append(rec)
    wire: dict[int, tuple] = {}  # id(read) -> wire values of its snapshot, and with own updates
    for tx_otid, reads in tr.reads_by_tx.items():
        objs = {r.obj for r in reads}
        if len(objs) < 2:
            continue
        differs = set()
        for read in reads:
            if tr.own_updates(read):
                snapshot = tr.oracle_value(read.obj, read.ver_dc, read.ver_local, read.scout)
                if read.value != value_to_wire(snapshot):
                    differs.add(read.obj)
            elif not tr.read_matches(read):  # it should return its snapshot's value
                differs.add(read.obj)
        if not differs:
            continue
        candidates = sorted(
            {
                rec.otid
                for obj in differs
                for rec in index.get(obj, ())
                if rec.otid != tx_otid and len(rec.objs & objs) >= 2
            },
            key=seq.__getitem__,
        )
        for otid in candidates:
            rec = tr.records[otid]
            touched = rec.objs & objs
            presence = {}
            for read in reads:
                if read.obj not in touched:
                    continue
                if id(read) not in wire:
                    with_r = tr.oracle_value(read.obj, read.ver_dc, read.ver_local, read.scout)
                    wire[id(read)] = (value_to_wire(with_r), value_to_wire(tr.read_state(read)))
                vw, vo = wire[id(read)]
                # leaving out a record the snapshot does not cover changes nothing
                if tr.covers(rec, read.ver_dc, read.ver_local, read.scout):
                    vo = value_to_wire(_oracle_without(tr, read, rec))
                if vw == vo:
                    continue  # record not distinguishable on this object
                if read.value == vw:
                    presence[read.obj] = True
                elif read.value == vo:
                    presence[read.obj] = False
            if True in presence.values() and False in presence.values():
                violations.append(
                    f"tx {tx_otid} observed a partial application of {rec.otid}: {presence}"
                )
    return Verdict("atomicity", not violations, violations)


def _oracle_without(tr: TraceAnalysis, read: ReadInfo, skip: RecordInfo):
    """The read's snapshot value with one record left out, plus the reading
    transaction's own prior updates."""
    entries = tr.by_obj.get(read.obj, [])
    index = bisect.bisect_left(entries, skip.pos, key=lambda entry: entry[0].pos)
    if index == len(entries) or entries[index][0] is not skip:
        index = -1
    state = tr.replay(read.obj, read.ver_dc, read.ver_local, read.scout, index)
    for effect in tr.own_updates(read):
        state = apply_effect(state, effect)
    return state


def check_session_guarantees(tr: TraceAnalysis) -> Verdict:
    """Read-your-writes, monotonic reads and writes-follow-reads per scout,
    across failover events included."""
    violations = []
    for scout, order in tr.tx_order.items():
        prev_dc = None
        prev_local = 0
        own_writes: dict[tuple, list[RecordInfo]] = {}  # object -> committed records
        for otid in order:
            tx = tr.txs[otid]
            if prev_dc is not None:
                if not _leq(prev_dc, tx.snap_dc) or tx.snap_local < prev_local:
                    violations.append(
                        f"{scout}: snapshot regressed from {prev_dc}|{prev_local} "
                        f"to {tx.snap_dc}|{tx.snap_local}"
                    )
            prev_dc, prev_local = tx.snap_dc, tx.snap_local
            for read in tr.reads_by_tx.get(otid, ()):
                for up in own_writes.get(read.obj, ()):
                    if not tr.covers(up, read.ver_dc, read.ver_local, scout):
                        violations.append(
                            f"{scout}: read of {read.obj} in {otid} misses own write {up.otid}"
                        )
            if tx.committed and not tx.read_only and not tx.aborted:
                up = tr.records.get(otid)
                if up is not None:
                    for obj in up.objs:
                        own_writes.setdefault(obj, []).append(up)
    return Verdict("session_guarantees", not violations, violations)


def check_exactly_once(tr: TraceAnalysis) -> Verdict:
    """Each replica's counters equal the sum over the distinct transaction
    identities it has applied; no record applies twice at one replica."""
    violations = list(tr.duplicate_applies)
    if tr.quiesce is None:
        return Verdict("exactly_once", False, ["trace has no quiesce event"])
    # per record, its counter increments as (value key, amount), in trace order
    increments = []
    for rec in tr.records.values():
        incs = [
            (f"{ew['obj'][0]}#counter", ew["payload"][0])
            for ew in rec.effects
            if ew["kind"] == "inc" and ew["obj"][1] == "counter"
        ]
        if incs:
            increments.append((rec.apply_times, incs))
    for dc_name, info in tr.quiesce["dcs"].items():
        dc = int(dc_name[2:])
        sums: dict[str, int] = {}
        for apply_times, incs in increments:
            if dc in apply_times:
                for key, amount in incs:
                    sums[key] = sums.get(key, 0) + amount
        for key, value in info["values"].items():
            if key.endswith("#counter") and value != sums.get(key, 0):
                violations.append(
                    f"{dc_name} {key} = {value}, distinct-identity sum over "
                    f"applied records = {sums.get(key, 0)}"
                )
        for key in sums:
            if key not in info["values"]:
                violations.append(f"{dc_name} applied records for {key} but holds no value")
    return Verdict("exactly_once", not violations, violations)


def check_convergence(tr: TraceAnalysis) -> Verdict:
    """At quiescence all replicas hold equal values matching a full replay."""
    if tr.quiesce is None:
        return Verdict("convergence", False, ["trace has no quiesce event"])
    if not tr.quiesce.get("synced", False):
        if tr.quiesce.get("crashed") or tr.partitioned or tr.disconnected:
            return Verdict(
                "convergence", True, skipped="run did not quiesce fully (unhealed faults)"
            )
        return Verdict("convergence", False, ["run ended unsynced with no fault active"])
    violations = []
    dcs = tr.quiesce["dcs"]
    names = sorted(dcs)
    reference = dcs[names[0]]["values"]
    for name in names[1:]:
        if dcs[name]["values"] != reference:
            diff = {
                k
                for k in set(reference) | set(dcs[name]["values"])
                if reference.get(k) != dcs[name]["values"].get(k)
            }
            violations.append(f"{names[0]} and {name} disagree on {sorted(diff)[:5]}")
    oracle = _full_replay(tr)
    for key, expected in oracle.items():
        got = reference.get(key)
        if got != expected:
            violations.append(f"replay oracle {key}: replicas hold {got!r}, oracle {expected!r}")
    vdc = dcs[names[0]]["vdc"]
    for sid, info in tr.quiesce["scouts"].items():
        sc_dc = info["clock"][0]
        if not all(a <= b for a, b in zip(sc_dc, vdc)):
            violations.append(f"{sid} frontier {sc_dc} cannot advance to common vdc {vdc}")
    return Verdict("convergence", not violations, violations)


def _full_replay(tr: TraceAnalysis) -> dict:
    states: dict[ObjectId, Any] = dict(tr.initial)
    for rec in tr.order:
        for effect in tr.decoded[rec.otid]:
            obj = effect.target
            states[obj] = apply_effect(states.get(obj, new_state(obj.crdt_type)), effect)
    return {f"{o.key}#{o.crdt_type.value}": value_to_wire(s) for o, s in sorted(states.items())}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def measure_staleness(tr: TraceAnalysis) -> dict:
    """Fraction of reads returning a K-durable version while a fresher,
    not-yet-K-durable one existed somewhere at read time.

    Reads are swept in time order. Per object, the records committed by the
    read time and not yet K-durable wait in a heap ordered by the time they
    become K-durable, so a read visits only those."""
    k = tr.k
    durable_at = {}  # otid -> when the K-th DC applied the record
    for otid, rec in tr.records.items():
        times = sorted(rec.apply_times.values())
        durable_at[otid] = times[k - 1] if len(times) >= k else math.inf
    # object -> [its entries, how many of them committed by now, the heap of
    # (durable_at, pos, record) of those not yet K-durable]
    sweeps: dict[tuple, list] = {}
    stale_reads = 0
    stale_txs: set[tuple] = set()
    for read in sorted(tr.reads, key=operator.attrgetter("t")):
        sweep = sweeps.get(read.obj)
        if sweep is None:
            entries = tr.by_obj.get(read.obj)
            if not entries:
                continue
            sweep = sweeps[read.obj] = [entries, 0, []]
        entries, i, heap = sweep
        t = read.t
        # the list is sorted by commit time
        while i < len(entries) and entries[i][0].commit_time <= t:
            rec = entries[i][0]
            if durable_at[rec.otid] > t:
                heapq.heappush(heap, (durable_at[rec.otid], rec.pos, rec))
            i += 1
        sweep[1] = i
        while heap and heap[0][0] <= t:
            heapq.heappop(heap)  # K-durable at read time
        for _, _, rec in heap:
            if rec.origin != read.scout and not tr.covers(
                rec, read.ver_dc, read.ver_local, read.scout
            ):
                stale_reads += 1
                stale_txs.add(read.tx)
                break
    total = len(tr.reads)
    transactions = len(tr.reads_by_tx)  # those that read
    return {
        "reads": total,
        "stale_reads": stale_reads,
        "stale_read_fraction": stale_reads / total if total else 0.0,
        "transactions": transactions,
        "stale_transactions": len(stale_txs),
        "stale_tx_fraction": len(stale_txs) / transactions if transactions else 0.0,
    }


def percentile(ordered: list, q: float) -> float:
    """The q-th percentile of sorted values, interpolated linearly between
    the closest ranks; the same float, bit for bit, as numpy's default
    ``percentile`` method."""
    index = (len(ordered) - 1) * (q / 100)
    if index >= len(ordered) - 1:
        return float(ordered[-1])
    lo = int(index)
    a, b = float(ordered[lo]), float(ordered[lo + 1])
    t = index - lo
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def _mean(values: list) -> float:
    return sum(values) / len(values)


def measure_latency(tr: TraceAnalysis) -> dict:
    """Per-transaction round trips and simulated durations, with CDF points."""
    scenario = tr.header.get("scenario", {})
    warmup_labels = scenario.get("expected", {}).get("warmup_labels", [])
    committed = [t for t in tr.txs.values() if t.committed and not t.aborted]
    measured = [t for t in committed if t.label not in warmup_labels]
    if not measured:
        return {"transactions": 0}
    rts = [t.rts for t in measured]
    durs = sorted(t.dur for t in measured)
    cdf = [[float(d), (i + 1) / len(durs)] for i, d in enumerate(durs)]
    # thin the CDF for reporting
    step = max(len(cdf) // 100, 1)
    by_label: dict[str, list[int]] = {}
    for t in measured:
        by_label.setdefault(t.label or "tx", []).append(t.rts)
    return {
        "transactions": len(measured),
        "zero_rt_fraction": rts.count(0) / len(rts),
        "mean_rts": _mean(rts),
        "mean_duration_ms": _mean(durs),
        "p50_duration_ms": percentile(durs, 50),
        "p95_duration_ms": percentile(durs, 95),
        "cdf": cdf[::step],
        "rts_by_label": {k: _mean(v) for k, v in sorted(by_label.items())},
        "aborted": sum(1 for t in tr.txs.values() if t.aborted),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

ALL_CHECKS = [
    check_history_acyclic,
    check_causal_snapshots,
    check_atomicity,
    check_session_guarantees,
    check_exactly_once,
    check_convergence,
]


@gc_paused()
def run_checks(trace: list[dict]) -> dict:
    tr = TraceAnalysis(trace)
    verdicts = {}
    ok = True
    for check in ALL_CHECKS:
        v = check(tr)
        verdicts[v.name] = v.as_dict()
        ok = ok and (v.ok or v.skipped is not None)
    return {
        "ok": ok,
        "verdicts": verdicts,
        "staleness": measure_staleness(tr),
        "latency": measure_latency(tr),
    }
