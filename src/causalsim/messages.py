"""Wire formats exchanged between scouts and data centres.

Every message has a canonical JSON-compatible form. The simulator delivers
the message object itself and encodes it only when a wire tap is attached
(`Simulation.send`). What makes that safe is that a message holds nothing
its sender mutates later: clocks, effects and states are immutable, and a
gossip batch carries per-send copies of the sender's records, whose
`gtids` tuples alias merges rebind and never extend. `tests/test_pins.py`
runs every pinned run again with each message sent through the codec and
back, and requires the same trace bytes.

A message's wire dict is `{"m": kind}` and one key per dataclass field, in
field order, each encoded by the codec of its annotation (`_CODECS`;
`Optional[X]` uses X's and keeps None); a `bool` field that defaults to
True (a flag) goes on the wire only when False, and flags come last. A
message is decoded by calling its class with its field values in order.
At import, `_compile` generates from these tables one encoder and one
decoder function per message class, as `dataclasses` generates
`__init__`: each spells out its fields, so a message costs no loop over a
plan and no copy of a dict. An annotation with neither a codec nor a plain
JSON value, or a field after a flag, raises TypeError there. The JSON form
of each value type is spelled out once: OTIDs, GTIDs, vectors and clocks
in `clocks.py`, object ids, effects and states in `crdt.py`.

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
    origin_session: ScoutId
    stored_results: Any = None

    @property
    def primary_gtid(self) -> Gtid:
        return self.gtids[0]

    def copy(self) -> CommitRecord:
        """A record sharing every field with this one. A gossip batch
        carries copies, so the receiver sees the aliases as they were at
        the send, whatever merges here rebind later."""
        return CommitRecord(
            self.otid, self.gtids, self.deps, self.effects, self.origin_session, self.stored_results
        )

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
    scout: ScoutId
    dc: DcId
    epoch: int
    accepted: bool
    frontier: VersionVector


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
    scout: ScoutId
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


def record_to_wire(r: CommitRecord) -> dict:
    return {
        "otid": otid_to_wire(r.otid),
        "gtids": [gtid_to_wire(g) for g in r.gtids],
        "deps": clock_to_wire(r.deps),
        "effects": [effect_to_wire(e) for e in r.effects],
        "session": r.origin_session,
        "results": r.stored_results,
    }


def record_from_wire(w: dict) -> CommitRecord:
    return CommitRecord(
        otid=otid_from_wire(w["otid"]),
        gtids=tuple(map(gtid_from_wire, w["gtids"])),
        deps=clock_from_wire(w["deps"]),
        effects=tuple(map(effect_from_wire, w["effects"])),
        origin_session=w["session"],
        stored_results=w["results"],
    )


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


def _compile(cls, kind: str) -> tuple:
    """(encode(msg), decode(wire)) of `cls`, generated from its fields, as
    `dataclasses` generates `__init__`.

    `encode` builds `{"m": kind}` and one key per field in field order, each
    through the codec of its annotation; `decode` calls `cls` positionally
    with the decoded values. Flags, the `bool` fields that default to True,
    go on the wire only when False and must be the last fields. Raises
    TypeError for an annotation with neither a codec nor a plain JSON
    value, or for a field after a flag."""
    env = {"cls": cls}
    items, args, flags = [f"'m': {kind!r}"], [], []
    for f in fields(cls):
        name, annotation = f.name, f.type
        if annotation == "bool" and f.default is True:
            flags.append(name)
            continue
        if flags:
            raise TypeError(f"{cls.__name__}.{name}: a field after a flag")
        value, wire = f"msg.{name}", f"w[{name!r}]"
        optional = annotation.startswith("Optional[") and annotation[9:-1] in _CODECS
        if optional:
            annotation = annotation[9:-1]
        if annotation in _CODECS:
            env[f"enc_{name}"], env[f"dec_{name}"] = _CODECS[annotation]
            encoded, decoded = f"enc_{name}({value})", f"dec_{name}({wire})"
            if optional:
                encoded = f"None if {value} is None else {encoded}"
                decoded = f"None if {wire} is None else {decoded}"
        elif annotation in _PLAIN:
            encoded, decoded = value, wire
        else:
            raise TypeError(f"{cls.__name__}.{name}: no wire codec for {f.type!r}")
        items.append(f"{name!r}: {encoded}")
        args.append(decoded)
    lines = ["def encode(msg):", f"    w = {{{', '.join(items)}}}"]
    for name in flags:
        lines += [f"    if not msg.{name}:", f"        w[{name!r}] = msg.{name}"]
    lines += ["    return w", "def decode(w):"]
    args += [f"w.get({name!r}, True)" for name in flags]
    lines.append(f"    return cls({', '.join(args)})")
    exec("\n".join(lines), env)
    for fn in (env["encode"], env["decode"]):
        fn.__qualname__ = f"{fn.__name__}_{cls.__name__}"
    return env["encode"], env["decode"]


# class -> encode(msg) and kind -> decode(wire), built once
_ENCODERS, _DECODERS = {}, {}
for _cls, _kind in _KINDS.items():
    _ENCODERS[_cls], _DECODERS[_kind] = _compile(_cls, _kind)


def message_kind(msg) -> str:
    """The kind of a message, its wire dict's `"m"`."""
    kind = _KINDS.get(type(msg))
    if kind is None:
        raise TypeError(f"not a wire message: {msg!r}")
    return kind


def message_to_wire(msg) -> dict:
    """`{"m": kind}` and then one key per field, in field order; a flag
    only when it is False."""
    encode = _ENCODERS.get(type(msg))
    if encode is None:
        raise TypeError(f"not a wire message: {msg!r}")
    return encode(msg)


def message_from_wire(w: dict):
    """A fresh message, holding fresh effects and states."""
    decode = _DECODERS.get(w["m"])
    if decode is None:
        raise TypeError(f"unknown message kind {w['m']!r}")
    return decode(w)
