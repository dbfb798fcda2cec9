"""Wire formats exchanged between scouts and data centres.

Every message has a canonical JSON-compatible form. The simulator delivers
the message object itself and encodes it only when a wire tap is attached
(`Simulation.send`). What makes that safe is that a message holds nothing
its sender mutates later: clocks, effects and states are immutable, and a
gossip batch carries per-send copies of the sender's records, whose
`gtids` tuples alias merges rebind and never extend. A scout keeps each
request in flight (its pending commits, fetch and stored call) as the
message it sent and never mutates it. It resends a commit or a stored
call as that very message; a fetch reissued after a reconnect gets a new
request id. A DC parks a request that must wait as it arrived.
`tests/test_pins.py` runs every pinned run again with each message sent
through the codec and back, and requires the same trace bytes.

A message's wire dict is `{"m": kind}` and one key per dataclass field, in
field order, each encoded by the codec of its annotation (`_CODECS`;
`Optional[X]` uses X's and keeps None). A message is decoded by calling
its class with its field values in order. At import, `_plan` turns each
message class's fields, and a commit record's, into a plan of (name,
encode, decode) entries, which `message_to_wire`, `message_from_wire`,
`record_to_wire` and `record_from_wire` loop over; a record's wire dict is
a message's without the `"m"`. An annotation with neither a codec nor a
plain JSON value raises TypeError there. The JSON form of each value type
is spelled out once: OTIDs, GTIDs, vectors and clocks in `clocks.py`,
object ids, effects and states in `crdt.py`.

The codec is off a run's path: only a wire tap, a crash's durable
snapshot and the tests call it. An effect keeps its wire form in its
`wire` field (the `update` and `apply` trace events use it); a commit
record and a state are encoded afresh on every call. Decoding builds
fresh values every time. See README.md, "Wire forms".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import starmap
from typing import Any, Optional

from causalsim.clocks import CausalClock, DcId, Gtid, Otid, ScoutId, VersionVector
from causalsim.clocks import clock_from_wire, clock_to_wire, gtid_from_wire, gtid_to_wire
from causalsim.clocks import otid_from_wire, otid_to_wire, vector_from_wire, vector_to_wire
from causalsim.crdt import EffectOp, ObjectId, effect_from_wire, effect_to_wire
from causalsim.crdt import object_from_wire, object_to_wire, state_from_wire, state_to_wire


# an object, its state at the fetch's snapshot and the state its cache may
# admit, or None when that is the snapshot state. States are immutable, so
# the DC, the scouts and the transaction share them
FetchedVersion = tuple[ObjectId, Any, Optional[Any]]
# per externally-originated record newly below a notify frontier:
# ("effects", [EffectOp...]) or ("invalidate", [ObjectId...])
NotifyItem = tuple[str, list]


@dataclass(slots=True)
class CommitRecord:
    """The unit of replication: once globally committed, a transaction is
    shipped between DCs as one of these."""

    otid: Otid
    gtids: tuple[Gtid, ...]
    deps: CausalClock
    effects: tuple[EffectOp, ...]
    # a stored procedure's results, which a duplicate call is answered with
    results: Any = None

    @property
    def primary_gtid(self) -> Gtid:
        return self.gtids[0]

    def copy(self) -> CommitRecord:
        """A record sharing every field with this one. A gossip batch
        carries copies, so the receiver sees the aliases as they were at
        the send, whatever merges here rebind later."""
        return CommitRecord(self.otid, self.gtids, self.deps, self.effects, self.results)

    def objects(self) -> list[ObjectId]:
        seen = []
        for e in self.effects:
            if e.target not in seen:
                seen.append(e.target)
        return seen


@dataclass(slots=True)
class SessionRequest:
    scout: ScoutId
    epoch: int
    dc_part: VersionVector
    cached: list[ObjectId] = field(default_factory=list)
    # whether the scout keeps a cache (capacity > 0). A session without one
    # is subscribed to nothing and gets no admit states
    caches: bool = True


@dataclass(slots=True)
class SessionReply:
    dc: DcId
    epoch: int
    accepted: bool


@dataclass(slots=True)
class CommitRequest:
    scout: ScoutId
    otid: Otid
    deps: CausalClock
    effects: tuple[EffectOp, ...]


@dataclass(slots=True)
class CommitReply:
    otid: Otid
    status: str  # "new" | "existing" | "null"
    gtid: Optional[Gtid]


@dataclass(slots=True)
class FetchRequest:
    scout: ScoutId
    req_id: int
    objects: list[ObjectId]
    snapshot: CausalClock
    unsub: list[ObjectId] = field(default_factory=list)


@dataclass(slots=True)
class FetchReply:
    req_id: int
    status: str  # "ok" | "pruned"
    # per object: state at the requested snapshot, plus the state the cache
    # may admit at `admit_frontier` (aligned with the notify stream), or None
    # when it is the snapshot state; a session without a cache gets neither
    versions: list[FetchedVersion] = field(default_factory=list)
    admit_frontier: Optional[VersionVector] = None


@dataclass(slots=True)
class StoredTxRequest:
    scout: ScoutId
    name: str
    params: Any
    otid: Otid
    deps: CausalClock


@dataclass(slots=True)
class StoredTxReply:
    otid: Otid
    status: str  # "new" | "existing" | "null" | "pruned" | "unknown-proc"
    gtid: Optional[Gtid]
    results: Any = None
    # the objects the call updated, whose cached states lack its effects
    objects: list[ObjectId] = field(default_factory=list)


@dataclass(slots=True)
class GossipBatch:
    src: DcId
    records: list[CommitRecord]
    vdc: VersionVector


@dataclass(slots=True)
class NotifyBatch:
    dc: DcId
    epoch: int
    prev: VersionVector
    frontier: VersionVector
    items: list[NotifyItem] = field(default_factory=list)
    acks: list[tuple[Otid, Gtid]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


_OBJECTS = (
    lambda objs: list(map(object_to_wire, objs)),
    lambda ws: list(starmap(object_from_wire, ws)),
)
_EFFECTS = (
    lambda effects: list(map(effect_to_wire, effects)),
    lambda ws: list(map(effect_from_wire, ws)),
)
# a notify item's payload (encode, decode), by its kind
_PAYLOADS = {"effects": _EFFECTS, "invalidate": _OBJECTS}

# field annotation -> (encode(value), decode(wire)); `Optional[X]` takes
# X's codec and keeps None as it is
_CODECS = {
    "VersionVector": (vector_to_wire, vector_from_wire),
    "Gtid": (gtid_to_wire, gtid_from_wire),
    "tuple[Gtid, ...]": (
        lambda gtids: list(map(gtid_to_wire, gtids)),
        lambda ws: tuple(map(gtid_from_wire, ws)),
    ),
    "CausalClock": (clock_to_wire, clock_from_wire),
    "Otid": (otid_to_wire, otid_from_wire),
    "list[ObjectId]": _OBJECTS,
    "list[FetchedVersion]": (
        lambda versions: [
            [object_to_wire(o), state_to_wire(snap), None if a is None else state_to_wire(a)]
            for o, snap, a in versions
        ],
        lambda ws: [
            (object_from_wire(*o), state_from_wire(snap), None if a is None else state_from_wire(a))
            for o, snap, a in ws
        ],
    ),
    "list[tuple[Otid, Gtid]]": (
        lambda acks: [[otid_to_wire(o), gtid_to_wire(g)] for o, g in acks],
        lambda ws: [(otid_from_wire(o), gtid_from_wire(g)) for o, g in ws],
    ),
    "tuple[EffectOp, ...]": (_EFFECTS[0], lambda ws: tuple(map(effect_from_wire, ws))),
    "list[CommitRecord]": (
        lambda records: list(map(record_to_wire, records)),
        lambda ws: list(map(record_from_wire, ws)),
    ),
    "list[NotifyItem]": (
        lambda items: [[kind, _PAYLOADS[kind][0](p)] for kind, p in items],
        lambda ws: [(kind, _PAYLOADS[kind][1](p)) for kind, p in ws],
    ),
}
# annotations whose values are JSON already and travel as they are
_PLAIN = {"str", "int", "bool", "Any", "ScoutId", "DcId"}

_KINDS = {
    SessionRequest: "session_req",
    SessionReply: "session_rep",
    CommitRequest: "commit_req",
    CommitReply: "commit_rep",
    FetchRequest: "fetch_req",
    FetchReply: "fetch_rep",
    StoredTxRequest: "stored_req",
    StoredTxReply: "stored_rep",
    GossipBatch: "gossip",
    NotifyBatch: "notify",
}


def _same(value):
    """The codec of a plain JSON value, which travels as it is."""
    return value


def _optional(codec):
    """`codec`, keeping None as it is."""
    return lambda value: None if value is None else codec(value)


def _plan(cls) -> tuple:
    """The field plan of `cls`: per field, in field order, its name and the
    encode(value) and decode(wire) of its annotation. Raises TypeError for
    an annotation with neither a codec nor a plain JSON value."""
    plan = []
    for f in fields(cls):
        name, annotation = f.name, f.type
        optional = annotation.startswith("Optional[") and annotation[9:-1] in _CODECS
        if optional:
            annotation = annotation[9:-1]
        if annotation in _CODECS:
            encode, decode = _CODECS[annotation]
            if optional:
                encode, decode = _optional(encode), _optional(decode)
        elif annotation in _PLAIN:
            encode = decode = _same
        else:
            raise TypeError(f"{cls.__name__}.{name}: no wire codec for {f.type!r}")
        plan.append((name, encode, decode))
    return tuple(plan)


# kind -> (class, field plan), built once
_PLANS = {kind: (cls, _plan(cls)) for cls, kind in _KINDS.items()}
_RECORD_PLAN = _plan(CommitRecord)


def record_to_wire(r: CommitRecord) -> dict:
    """One key per field, in field order."""
    return {name: encode(getattr(r, name)) for name, encode, _ in _RECORD_PLAN}


def record_from_wire(w: dict) -> CommitRecord:
    """A fresh record, holding fresh effects."""
    return CommitRecord(*[decode(w[name]) for name, _, decode in _RECORD_PLAN])


def message_kind(msg) -> str:
    """The kind of a message, its wire dict's `"m"`."""
    kind = _KINDS.get(type(msg))
    if kind is None:
        raise TypeError(f"not a wire message: {msg!r}")
    return kind


def message_to_wire(msg) -> dict:
    """`{"m": kind}` and then one key per field, in field order."""
    kind = message_kind(msg)
    w = {"m": kind}
    for name, encode, _ in _PLANS[kind][1]:
        w[name] = encode(getattr(msg, name))
    return w


def message_from_wire(w: dict):
    """A fresh message, holding fresh effects and states."""
    entry = _PLANS.get(w["m"])
    if entry is None:
        raise TypeError(f"unknown message kind {w['m']!r}")
    cls, plan = entry
    return cls(*[decode(w[name]) for name, _, decode in plan])
