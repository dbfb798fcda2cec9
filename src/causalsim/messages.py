"""Wire formats exchanged between scouts and data centres.

Every message has a canonical JSON-compatible form. The simulator encodes
each message when it is sent and decodes it on every delivery, so a node
never holds another node's records, effects or clocks, and anything that
would not survive real serialization fails loudly in tests.

A message's wire dict is `{"m": kind}` and one key per dataclass field, in
field order, each encoded by the codec of its annotation (`_CODECS`, or
`_TABLE_CODECS` for values that hold effects); a `bool` field that
defaults to True (a flag) goes on the wire only when False, and flags come
last. A message is decoded by calling its class with its field values in
order. An annotation with neither a codec nor a plain JSON value, or a
field after a flag, raises TypeError at import. The JSON form of each
value type is spelled out once: OTIDs, GTIDs, vectors and clocks in
`clocks.py`, object ids, effects and states in `crdt.py`.

Effects and commit records are encoded at most once. Each keeps its wire
form in a `wire` field: the dict it was decoded from, or its first
encoding. A record's `gtids` grow when aliases merge, so `record_to_wire`
encodes them on every call and takes the other fields from the memo. Wire
dicts are shared between nodes and are never mutated.

Immutable values are decoded at most once per decode table: every
receiver of one effect dict, in whatever message, gets the same
`EffectOp`, and every scout sent one state dict the same state. The
simulator keeps one table per run. Mutable containers, such as a
`CommitRecord` and its `gtids`, are built fresh on every delivery. See
README.md, "Wire forms".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import starmap
from operator import itemgetter
from typing import Any, Optional

from causalsim.clocks import CausalClock, DcId, Gtid, Otid, ScoutId, VersionVector
from causalsim.clocks import clock_from_wire, clock_to_wire, gtid_from_wire, gtid_to_wire
from causalsim.clocks import otid_from_wire, otid_to_wire, vector_from_wire, vector_to_wire
from causalsim.crdt import EffectOp, ObjectId, effect_from_wire, effect_to_wire
from causalsim.crdt import object_from_wire, object_to_wire


FetchedVersion = tuple[ObjectId, dict, Optional[dict]]
# per externally-originated record newly below a notify frontier:
# ("effects", [EffectOp...]) or ("invalidate", [ObjectId...])
NotifyItem = tuple[str, list]


@dataclass
class CommitRecord:
    """The unit of replication: once globally committed, a transaction is
    shipped between DCs as one of these."""

    otid: Otid
    gtids: list[Gtid]
    deps: CausalClock
    effects: tuple[EffectOp, ...]
    origin_session: ScoutId
    stored_results: Any = None
    # the wire form of every field but `gtids`, which alias merges extend:
    # the dict the record was decoded from (its "gtids" is never read), or
    # the first encoding. Never mutated; outside eq and repr
    wire: Optional[dict] = field(default=None, init=False, compare=False, repr=False)

    @property
    def primary_gtid(self) -> Gtid:
        return self.gtids[0]

    def objects(self) -> list[ObjectId]:
        seen = []
        for e in self.effects:
            if e.target not in seen:
                seen.append(e.target)
        return seen


@dataclass
class SessionRequest:
    scout: ScoutId
    epoch: int
    dc_part: VersionVector
    cached: list[ObjectId] = field(default_factory=list)
    # whether the scout keeps a cache (capacity > 0). A session without one
    # is subscribed to nothing and gets no admit states
    caches: bool = True


@dataclass
class SessionReply:
    scout: ScoutId
    dc: DcId
    epoch: int
    accepted: bool
    frontier: VersionVector


@dataclass
class CommitRequest:
    scout: ScoutId
    otid: Otid
    deps: CausalClock
    effects: tuple[EffectOp, ...]


@dataclass
class CommitReply:
    otid: Otid
    status: str  # "new" | "existing" | "null"
    gtid: Optional[Gtid]


@dataclass
class FetchRequest:
    scout: ScoutId
    req_id: int
    objects: list[ObjectId]
    snapshot: CausalClock
    unsub: list[ObjectId] = field(default_factory=list)


@dataclass
class FetchReply:
    scout: ScoutId
    req_id: int
    status: str  # "ok" | "pruned"
    # per object: state at the requested snapshot, plus the state the cache
    # may admit at `admit_frontier` (aligned with the notify stream), or None
    # when it is the snapshot state; a session without a cache gets neither
    versions: list[FetchedVersion] = field(default_factory=list)
    admit_frontier: Optional[VersionVector] = None


@dataclass
class StoredTxRequest:
    scout: ScoutId
    name: str
    params: Any
    otid: Otid
    deps: CausalClock


@dataclass
class StoredTxReply:
    otid: Otid
    status: str  # "new" | "existing" | "null" | "pruned" | "unknown-proc"
    gtid: Optional[Gtid]
    results: Any = None
    # the objects the call updated, whose cached states lack its effects
    objects: list[ObjectId] = field(default_factory=list)


@dataclass
class GossipBatch:
    src: DcId
    records: list[CommitRecord]
    vdc: VersionVector


@dataclass
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


def decode_once(table: dict, w: dict, decode):
    """`decode(w)`, or what it gave for this same dict earlier with `table`.

    The table maps `id(w)` to `(w, decoded)`. An entry holds its dict, so no
    other dict can take that id while the table lives, and a hit is always
    the same dict. Only immutable values may go through it: every holder of
    the table shares what it returns."""
    hit = table.get(id(w))
    if hit is None:
        hit = table[id(w)] = (w, decode(w))
    return hit[1]


def _effects_from_wire(ws: list, table: dict) -> list[EffectOp]:
    return [decode_once(table, e, effect_from_wire) for e in ws]


def record_to_wire(r: CommitRecord) -> dict:
    """A new dict whose `gtids` is encoded now; the other fields are the
    record's memoized wire form, encoded on the first call."""
    w = r.wire
    if w is None:
        w = r.wire = {
            "otid": otid_to_wire(r.otid),
            "deps": clock_to_wire(r.deps),
            "effects": [effect_to_wire(e) for e in r.effects],
            "session": r.origin_session,
            "results": r.stored_results,
        }
    return {
        "otid": w["otid"],
        "gtids": [gtid_to_wire(g) for g in r.gtids],
        "deps": w["deps"],
        "effects": w["effects"],
        "session": w["session"],
        "results": w["results"],
    }


def record_from_wire(w: dict, table: dict) -> CommitRecord:
    """A fresh record that keeps `w` as its wire form; its effects come
    from `table`."""
    record = CommitRecord(
        otid=otid_from_wire(w["otid"]),
        gtids=[gtid_from_wire(g) for g in w["gtids"]],
        deps=clock_from_wire(w["deps"]),
        effects=tuple(_effects_from_wire(w["effects"], table)),
        origin_session=w["session"],
        stored_results=w["results"],
    )
    record.wire = w
    return record


_OBJECTS = (
    lambda objs: list(map(object_to_wire, objs)),
    lambda ws: list(starmap(object_from_wire, ws)),
)
_EFFECTS = (lambda effects: list(map(effect_to_wire, effects)), _effects_from_wire)
# a notify item's payload (encode, decode(wire, decode table)), by its kind
_PAYLOADS = {"effects": _EFFECTS, "invalidate": (_OBJECTS[0], lambda ws, table: _OBJECTS[1](ws))}

# field annotation -> (encode(value), decode(wire))
_CODECS = {
    "VersionVector": (vector_to_wire, vector_from_wire),
    "Optional[VersionVector]": (
        lambda v: None if v is None else vector_to_wire(v),
        lambda w: None if w is None else vector_from_wire(w),
    ),
    "Optional[Gtid]": (
        lambda g: None if g is None else gtid_to_wire(g),
        lambda w: None if w is None else gtid_from_wire(w),
    ),
    "CausalClock": (clock_to_wire, clock_from_wire),
    "Otid": (otid_to_wire, otid_from_wire),
    "list[ObjectId]": _OBJECTS,
    "list[FetchedVersion]": (
        lambda versions: [[object_to_wire(o), snap, admit] for o, snap, admit in versions],
        lambda ws: [(object_from_wire(*o), snap, admit) for o, snap, admit in ws],
    ),
    "list[tuple[Otid, Gtid]]": (
        lambda acks: [[otid_to_wire(o), gtid_to_wire(g)] for o, g in acks],
        lambda ws: [(otid_from_wire(o), gtid_from_wire(g)) for o, g in ws],
    ),
}
# field annotation -> (encode(value), decode(wire, decode table)): the
# values that hold effects, which are decoded through the table
_TABLE_CODECS = {
    "tuple[EffectOp, ...]": (_EFFECTS[0], lambda ws, table: tuple(_effects_from_wire(ws, table))),
    "list[CommitRecord]": (
        lambda records: list(map(record_to_wire, records)),
        lambda ws, table: [record_from_wire(r, table) for r in ws],
    ),
    "list[NotifyItem]": (
        lambda items: [[kind, _PAYLOADS[kind][0](p)] for kind, p in items],
        lambda ws, table: [(kind, _PAYLOADS[kind][1](p, table)) for kind, p in ws],
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


def _plan(cls) -> tuple:
    """(encoders, get, decoders, table decoders, flags) of `cls`.

    Encoders are `(name, encode)` pairs for the fields with a codec, in
    field order. `get` takes the wire values of every field but the flags
    out of a wire dict, as a tuple in field order; decoders are
    `(position in it, decode)` pairs, and a table decoder also takes the
    decode table. Flags are the `bool` fields that default to True, which
    go on the wire only when False; they must be the last fields. Raises
    TypeError for an annotation with neither a codec nor a plain JSON
    value, or for a field after a flag."""
    encoders, names, decoders, table_decoders, flags = [], [], [], [], []
    for f in fields(cls):
        if f.type == "bool" and f.default is True:
            flags.append(f.name)
            continue
        if flags:
            raise TypeError(f"{cls.__name__}.{f.name}: a field after a flag")
        if f.type in _CODECS:
            encode, decode = _CODECS[f.type]
            encoders.append((f.name, encode))
            decoders.append((len(names), decode))
        elif f.type in _TABLE_CODECS:
            encode, decode = _TABLE_CODECS[f.type]
            encoders.append((f.name, encode))
            table_decoders.append((len(names), decode))
        elif f.type not in _PLAIN:
            raise TypeError(f"{cls.__name__}.{f.name}: no wire codec for {f.type!r}")
        names.append(f.name)
    get = itemgetter(*names)
    return encoders, get if len(names) > 1 else lambda w: (get(w),), decoders, table_decoders, flags


# class -> (kind, *plan) and kind -> (class, *plan), built once
_PLANS = {cls: (kind, *_plan(cls)) for cls, kind in _KINDS.items()}
_DECODERS = {kind: (cls, *plan) for cls, (kind, *plan) in _PLANS.items()}


def message_to_wire(msg) -> dict:
    """`{"m": kind}` and then one key per field, in field order; a flag
    only when it is False."""
    plan = _PLANS.get(type(msg))
    if plan is None:
        raise TypeError(f"not a wire message: {msg!r}")
    kind, encoders, _, _, _, flags = plan
    w = {"m": kind, **vars(msg)}
    for name, encode in encoders:
        w[name] = encode(w[name])
    for name in flags:
        if w[name]:
            del w[name]
    return w


def message_from_wire(w: dict, table: dict):
    """A fresh message; its effects come from the decode table `table`
    (`decode_once`). Fetch replies keep their states in wire form."""
    plan = _DECODERS.get(w["m"])
    if plan is None:
        raise TypeError(f"unknown message kind {w['m']!r}")
    cls, _, get, decoders, table_decoders, flags = plan
    args = list(get(w))
    for i, decode in decoders:
        args[i] = decode(args[i])
    for i, decode in table_decoders:
        args[i] = decode(args[i], table)
    for name in flags:
        args.append(w.get(name, True))  # a flag is on the wire only when False
    return cls(*args)
