"""Offline oracle over traces: consistency checks and metrics.

All checks work from the trace alone (plus the workload's deterministic
initial states), reconstructing transaction metadata from commit records
rather than inferring it from values. Read values are verified against an
independent materialization: replay every covered record's effects over
the initial state in a linear extension of the causality order.

A quiesced, healed run must additionally show every replica with equal
object values matching a full brute-force replay, and every counter equal
to the sum of increments over distinct transaction identities.

Parsing builds every index the checks need, once:

- the linear extension itself: records sorted by (first apply time, OTID),
  each tagged with its position;
- per object, the records that touch it, in that order, each with its
  effects on the object already decoded;
- reads per transaction, and records by OTID, which is also how
  origin-chain dependencies ``(deps_local, origin)`` are looked up.

Replaying one object's list therefore applies exactly the effects, in
exactly the order, that a replay of the whole sorted record list filtered
to that object applies. A replay of one snapshot is cut in three parts,
each applied in list order (``_ObjectLog``):

- the covered prefix. ``reach[i]`` is the elementwise max of the first
  aliases of the first ``i`` entries. If ``reach[i] <= ver_dc``, every one
  of those entries is covered through its first alias, whoever reads. The
  longest such prefix is found by binary search (``reach`` only grows),
  then extended over the entries after it that the snapshot covers for any
  reason. A prefix that is covered entry by entry leaves the same state
  for every reader and snapshot, so that state is built once, from the
  nearest shorter checkpoint, and shared. Checkpoints are kept only for
  lengths some replay asked for, never one per entry.
- the undecided middle, where each entry is tested with ``covers``.
- the tail. ``floor[j]`` is the elementwise min over every alias of the
  entries from ``j`` on. Once ``floor[j] > ver_dc`` in every component, no
  entry from ``j`` on is covered through an alias, so only the reader's own
  records under its local counter can be; they are looked up in a
  per-origin index instead of walking the tail.

Snapshot closure is proven per DC before it is walked: ``need[d][c]`` is
the join of the dependencies of every record with an alias ``(c' <= c, d)``
and of the first alias of its origin-chain dependency. If
``need[d][ver[d]] <= ver``, every record the walk over ``d`` would visit has
its dependencies and its chain dependency covered, so the walk reports
nothing and is skipped; otherwise it runs unchanged. The checker shares no
code with the DC's materialization.
"""

from __future__ import annotations

import bisect
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


@dataclass
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


@dataclass
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


@dataclass
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
    objs: list = field(default_factory=list)
    label: Optional[str] = None


def _leq(a: tuple, b: tuple) -> bool:
    return all(map(operator.le, a, b))


class _ObjectLog:
    """One object's records in causal order, the bounds that cut a replay of
    them short, and the replay checkpoints every reader shares."""

    __slots__ = ("entries", "reach", "floor", "own", "lengths", "states")

    def __init__(self, entries: list, initial, num_dcs: int):
        self.entries = entries
        # reach[i]: elementwise max of the first aliases of entries[:i]
        top = [0] * num_dcs
        self.reach = [tuple(top)]
        for rec, _ in entries:
            if rec.aliases:
                counter, dc = rec.aliases[0]
                top[dc] = max(top[dc], counter)
            else:  # covered through no alias: ends every shared prefix
                top = [math.inf] * num_dcs
            self.reach.append(tuple(top))
        # floor[j]: elementwise min over every alias of entries[j:]
        low = [math.inf] * num_dcs
        self.floor = [tuple(low)]
        for rec, _ in reversed(entries):
            for counter, dc in rec.aliases:
                low[dc] = min(low[dc], counter)
            self.floor.append(tuple(low))
        self.floor.reverse()
        self.own: dict[str, list[int]] = {}  # origin -> indexes of its entries
        for i, (rec, _) in enumerate(entries):
            self.own.setdefault(rec.origin, []).append(i)
        self.lengths = [0]  # sorted prefix lengths with a checkpoint
        self.states = [initial]  # the state after each of those prefixes

    def covered_prefix(self, ver_dc: tuple) -> int:
        """The longest prefix that every snapshot at ``ver_dc`` covers."""
        lo, hi = 0, len(self.entries)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _leq(self.reach[mid], ver_dc):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def tail_start(self, start: int, ver_dc: tuple) -> int:
        """The first index from ``start`` on whose entries, and all later
        ones, ``ver_dc`` covers through no alias."""
        lo, hi = start, len(self.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if all(map(operator.gt, self.floor[mid], ver_dc)):
                hi = mid
            else:
                lo = mid + 1
        return lo

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
        self._oracle_cache: dict = {}
        self._logs: dict[tuple, _ObjectLog] = {}
        self._own: dict[tuple, list] = {}  # tx -> [(object, decoded update)]

    def _parse(self, trace: list[dict]) -> None:
        seen_applies = set()
        for ev in trace:
            kind = ev["ev"]
            if kind == "tx_begin":
                otid = tuple(ev["otid"])
                self.txs[otid] = TxInfo(
                    scout=ev["node"],
                    otid=otid,
                    snap_dc=tuple(ev["snap"][0]),
                    snap_local=ev["snap"][1],
                    t_begin=ev["t"],
                )
                self.tx_order.setdefault(ev["node"], []).append(otid)
                self.tx_updates[otid] = []
            elif kind == "read":
                otid = tuple(ev["otid"])
                read = ReadInfo(
                    scout=ev["node"],
                    tx=otid,
                    obj=tuple(ev["obj"]),
                    value=ev["value"],
                    ver_dc=tuple(ev["ver"][0]),
                    ver_local=ev["ver"][1],
                    t=ev["t"],
                    src=ev["src"],
                    dc=ev.get("dc"),
                    updates_before=len(self.tx_updates.get(otid, [])),
                )
                self.reads.append(read)
                self.reads_by_tx.setdefault(otid, []).append(read)
            elif kind == "update":
                self.tx_updates[tuple(ev["otid"])].append(ev["effect"])
            elif kind == "local_commit":
                otid = tuple(ev["otid"])
                tx = self.txs[otid]
                tx.committed = True
                tx.read_only = ev["read_only"]
                tx.rts = ev["rts"]
                tx.dur = ev["dur"]
                tx.objs = [tuple(o) for o in ev["objs"]]
                tx.label = ev.get("label")
            elif kind == "tx_abort":
                self.txs[tuple(ev["otid"])].aborted = True
            elif kind == "apply":
                otid = tuple(ev["otid"])
                dc = int(ev["node"][2:])
                if (dc, otid) in seen_applies:
                    self.duplicate_applies.append(f"record {otid} applied twice at dc{dc}")
                seen_applies.add((dc, otid))
                rec = self.records.get(otid)
                if rec is None:
                    rec = RecordInfo(
                        otid=otid,
                        origin=otid[1],
                        deps_dc=tuple(ev["deps"][0]),
                        deps_local=ev["deps"][1],
                        effects=[],
                        objs={tuple(o) for o in ev["objs"]},
                        aliases=[],
                        commit_time=ev["t"],
                        apply_times={},
                    )
                    self.records[otid] = rec
                if ev.get("effects"):
                    rec.effects = ev["effects"]
                for g in ev["gtids"]:
                    alias = (g[0], g[1])
                    if alias not in rec.aliases:
                        rec.aliases.append(alias)
                    self.by_alias[alias] = otid
                rec.commit_time = min(rec.commit_time, ev["t"])
                rec.apply_times.setdefault(dc, ev["t"])
            elif kind == "quiesce":
                self.quiesce = ev

    @gc_paused()
    def _load_workload(self) -> dict:
        """Rebuild the social workload once: its initial states seed every
        replay, and its scripts give back the transaction labels, which the
        simulator does not know and so does not trace. Other workloads start
        from empty objects and carry their labels in the trace."""
        scenario = self.header.get("scenario")
        if not scenario:
            return {}
        wl = scenario.get("workload", {"kind": "none"})
        if workload.kind_of(wl) != "social":
            return workload.initial_states_for(wl, self.header.get("seed", 0))
        sim_cfg = scenario.get("sim", {})
        scripts, initial, _ = workload.build(
            wl,
            self.header.get("num_scouts", sim_cfg.get("num_scouts", 0)),
            self.header.get("seed", 0),
            sim_cfg.get("cache_capacity", 64),
        )
        for scout, order in self.tx_order.items():
            script = scripts.get(scout, [])
            # transactions map to script entries in order, with retries of an
            # aborted entry consuming extra OTIDs
            spec_idx = 0
            for otid in order:
                tx = self.txs[otid]
                if spec_idx < len(script):
                    tx.label = script[spec_idx].get("label")
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

    def oracle_value(self, obj: tuple, ver_dc: tuple, ver_local: int, reader: str):
        """Independent replay of every covered record's effects on one object."""
        key = (obj, ver_dc, ver_local, reader)
        if key in self._oracle_cache:
            return self._oracle_cache[key]
        state = self._oracle_cache[key] = self.replay(obj, ver_dc, ver_local, reader)
        return state

    def replay(self, obj: tuple, ver_dc: tuple, ver_local: int, reader: str, skip: int = -1):
        """The object's state in the snapshot, leaving out the entry at index
        ``skip`` of its list if one is given."""
        log = self._logs.get(obj)
        if log is None:
            log = self._logs[obj] = _ObjectLog(
                self.by_obj.get(obj, []), self.initial_state(obj), self.num_dcs
            )
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
        if (read.ver_dc, read.ver_local) != (tx.snap_dc, tx.snap_local):
            violations.append(f"{read.scout} tx {read.tx}: read outside the frozen snapshot")
            continue
        expected = value_to_wire(tr.read_state(read))
        if expected != read.value:
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
    """No snapshot reflects a proper subset of a transaction's effects."""
    violations = []
    seq = {otid: i for i, otid in enumerate(tr.records)}
    wire: dict[int, tuple] = {}  # id(read) -> wire values of its snapshot, and with own updates
    for tx_otid, reads in tr.reads_by_tx.items():
        objs = {r.obj for r in reads}
        if len(objs) < 2:
            continue
        # records touching two or more of the objects read, in trace order
        touching: dict[tuple, int] = {}
        for obj in objs:
            for rec, _ in tr.by_obj.get(obj, ()):
                touching[rec.otid] = touching.get(rec.otid, 0) + 1
        candidates = sorted(
            (otid for otid, n in touching.items() if n >= 2 and otid != tx_otid), key=seq.__getitem__
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
                if not all(a <= b for a, b in zip(prev_dc, tx.snap_dc)) or tx.snap_local < prev_local:
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
        return Verdict(
            "convergence", True, skipped="run did not quiesce fully (unhealed faults)"
        )
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
    not-yet-K-durable one existed somewhere at read time."""
    apply_times = {
        otid: sorted(rec.apply_times.values()) for otid, rec in tr.records.items()
    }
    stale_reads = 0
    total = 0
    stale_txs: set[tuple] = set()
    tx_seen: set[tuple] = set()
    for read in tr.reads:
        total += 1
        tx_seen.add(read.tx)
        for rec, _ in tr.by_obj.get(read.obj, ()):
            if rec.commit_time > read.t:
                break  # the list is sorted by commit time
            if rec.origin == read.scout:
                continue
            if bisect.bisect_right(apply_times[rec.otid], read.t) >= tr.k:
                continue  # K-durable at read time
            if tr.covers(rec, read.ver_dc, read.ver_local, read.scout):
                continue
            stale_reads += 1
            stale_txs.add(read.tx)
            break
    return {
        "reads": total,
        "stale_reads": stale_reads,
        "stale_read_fraction": stale_reads / total if total else 0.0,
        "transactions": len(tx_seen),
        "stale_transactions": len(stale_txs),
        "stale_tx_fraction": len(stale_txs) / len(tx_seen) if tx_seen else 0.0,
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


def measure_latency(tr: TraceAnalysis, warmup_labels: Optional[list[str]] = None) -> dict:
    """Per-transaction round trips and simulated durations, with CDF points."""
    if warmup_labels is None:
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
