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
field order, each encoded by the codec of its annotation (`_CODECS`, or
`_TABLE_CODECS` for values that hold effects; `Optional[X]` uses X's and
keeps None); a `bool` field that defaults to True (a flag) goes on the
wire only when False, and flags come last. A message is decoded by calling
its class with its field values in order. At import, `_compile` generates
from these tables one encoder and one decoder function per message class,
as `dataclasses` generates `__init__`: each spells out its fields, so a
message costs no loop over a plan and no copy of a dict. An annotation
with neither a codec nor a plain JSON value, or a field after a flag,
raises TypeError there. The JSON form of each value type is spelled out
once: OTIDs, GTIDs, vectors and clocks in `clocks.py`, object ids, effects
and states in `crdt.py`.

Effects and commit records are encoded at most once. Each keeps its wire
form in a `wire` field: the dict it was decoded from, or its first
encoding. A record's `gtids` grow when aliases merge, so `record_to_wire`
encodes them on every call and takes the other fields from the memo. Wire
dicts are shared between nodes and are never mutated.

Immutable values are decoded at most once per decode table
(`decode_once`): every decode of one effect dict through a table gives
the same `EffectOp`, and every scout sent one state dict in a fetch reply
gets the same state. The simulator keeps one table per run. Mutable
containers, such as a `CommitRecord`, are built fresh on every decode.
See README.md, "Wire forms".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import starmap
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
    # the wire form of every field but `gtids`, which alias merges rebind:
    # the dict the record was decoded from (its "gtids" is never read), or
    # the first encoding. Never mutated; outside eq and repr
    wire: Optional[dict] = field(default=None, init=False, compare=False, repr=False)

    @property
    def primary_gtid(self) -> Gtid:
        return self.gtids[0]

    def copy(self) -> CommitRecord:
        """A record sharing every field and the wire memo with this one. A
        gossip batch carries copies, so the receiver sees the aliases as
        they were at the send, whatever merges here rebind later."""
        record = CommitRecord(
            self.otid, self.gtids, self.deps, self.effects, self.origin_session, self.stored_results
        )
        record.wire = self.wire
        return record

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
        gtids=tuple(map(gtid_from_wire, w["gtids"])),
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

# field annotation -> (encode(value), decode(wire)); `Optional[X]` takes
# X's codec and keeps None as it is
_CODECS = {
    "VersionVector": (vector_to_wire, vector_from_wire),
    "Gtid": (gtid_to_wire, gtid_from_wire),
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


def _compile(cls, kind: str) -> tuple:
    """(encode(msg), decode(wire, decode table)) of `cls`, generated from its
    fields, as `dataclasses` generates `__init__`.

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
        elif annotation in _TABLE_CODECS:
            env[f"enc_{name}"], env[f"dec_{name}"] = _TABLE_CODECS[annotation]
            encoded, decoded = f"enc_{name}({value})", f"dec_{name}({wire}, table)"
        elif annotation in _PLAIN:
            encoded, decoded = value, wire
        else:
            raise TypeError(f"{cls.__name__}.{name}: no wire codec for {f.type!r}")
        items.append(f"{name!r}: {encoded}")
        args.append(decoded)
    lines = ["def encode(msg):", f"    w = {{{', '.join(items)}}}"]
    for name in flags:
        lines += [f"    if not msg.{name}:", f"        w[{name!r}] = msg.{name}"]
    lines += ["    return w", "def decode(w, table):"]
    args += [f"w.get({name!r}, True)" for name in flags]
    lines.append(f"    return cls({', '.join(args)})")
    exec("\n".join(lines), env)
    for fn in (env["encode"], env["decode"]):
        fn.__qualname__ = f"{fn.__name__}_{cls.__name__}"
    return env["encode"], env["decode"]


# class -> encode(msg) and kind -> decode(wire, table), built once
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


def message_from_wire(w: dict, table: dict):
    """A fresh message; its effects come from the decode table `table`
    (`decode_once`). Fetch replies keep their states in wire form."""
    decode = _DECODERS.get(w["m"])
    if decode is None:
        raise TypeError(f"unknown message kind {w['m']!r}")
    return decode(w, table)
