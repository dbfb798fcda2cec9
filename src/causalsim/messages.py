"""Wire formats exchanged between scouts and data centres.

Every message has a canonical JSON-compatible form. The simulator encodes
each message when it is sent and decodes it on every delivery, so a node
never holds another node's records, effects or clocks, and anything that
would not survive real serialization fails loudly in tests.

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

from dataclasses import dataclass, field
from typing import Any, Optional

from causalsim.clocks import CausalClock, DcId, Gtid, Otid, ScoutId, VersionVector
from causalsim.crdt import EffectOp, ObjectId, effect_from_wire, effect_to_wire, object_from_wire

SCHEMA = "causalsim-wire-1"


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
    cached_objects: list[ObjectId] = field(default_factory=list)
    # whether the scout keeps a cache (capacity > 0). A session without one
    # is subscribed to nothing and gets no admit states. On the wire only
    # when False, so a caching scout's request keeps its bytes
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
    unsubscribe: list[ObjectId] = field(default_factory=list)


@dataclass
class FetchReply:
    scout: ScoutId
    req_id: int
    status: str  # "ok" | "pruned"
    # per object: state at the requested snapshot, plus the state the cache
    # may admit at `admit_frontier` (aligned with the notify stream), or
    # None when it is the snapshot state
    versions: list[tuple[ObjectId, dict, Optional[dict]]] = field(default_factory=list)
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
    # per externally-originated record newly below the frontier:
    # ("effects", [EffectOp...]) or ("invalidate", [ObjectId...])
    items: list[tuple[str, list]] = field(default_factory=list)
    acks: list[tuple[Otid, Gtid]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def _vv_w(v: VersionVector) -> list:
    return list(v.entries)


def _vv_r(w) -> VersionVector:
    return VersionVector(tuple(w))


def _clock_w(c: CausalClock) -> list:
    return [list(c.dc_part.entries), c.local_part]


def _clock_r(w) -> CausalClock:
    return CausalClock(VersionVector(tuple(w[0])), w[1])


def _otid_w(o: Otid) -> list:
    return [o.counter, o.origin]


def _otid_r(w) -> Otid:
    return Otid(w[0], w[1])


def _gtid_w(g: Optional[Gtid]):
    return None if g is None else [g.counter, g.origin]


def _gtid_r(w) -> Optional[Gtid]:
    return None if w is None else Gtid(w[0], w[1])


def _obj_w(o: ObjectId) -> list:
    return [o.key, o.crdt_type.value]


def _obj_r(w) -> ObjectId:
    return object_from_wire(w[0], w[1])


def record_to_wire(r: CommitRecord) -> dict:
    """A new dict whose `gtids` is encoded now; the other fields are the
    record's memoized wire form, encoded on the first call."""
    w = r.wire
    if w is None:
        w = r.wire = {
            "otid": _otid_w(r.otid),
            "deps": _clock_w(r.deps),
            "effects": [effect_to_wire(e) for e in r.effects],
            "session": r.origin_session,
            "results": r.stored_results,
        }
    return {
        "otid": w["otid"],
        "gtids": [_gtid_w(g) for g in r.gtids],
        "deps": w["deps"],
        "effects": w["effects"],
        "session": w["session"],
        "results": w["results"],
    }


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


def _effects_r(ws: list, table: dict) -> list[EffectOp]:
    return [decode_once(table, e, effect_from_wire) for e in ws]


def record_from_wire(w: dict, table: dict) -> CommitRecord:
    """A fresh record that keeps `w` as its wire form; its effects come
    from `table`."""
    record = CommitRecord(
        otid=_otid_r(w["otid"]),
        gtids=[_gtid_r(g) for g in w["gtids"]],
        deps=_clock_r(w["deps"]),
        effects=tuple(_effects_r(w["effects"], table)),
        origin_session=w["session"],
        stored_results=w["results"],
    )
    record.wire = w
    return record


def message_to_wire(msg) -> dict:
    if isinstance(msg, SessionRequest):
        w = {
            "m": "session_req",
            "scout": msg.scout,
            "epoch": msg.epoch,
            "dc_part": _vv_w(msg.dc_part),
            "cached": [_obj_w(o) for o in msg.cached_objects],
        }
        if not msg.caches:
            w["caches"] = False
        return w
    if isinstance(msg, SessionReply):
        return {
            "m": "session_rep",
            "scout": msg.scout,
            "dc": msg.dc,
            "epoch": msg.epoch,
            "accepted": msg.accepted,
            "frontier": _vv_w(msg.frontier),
        }
    if isinstance(msg, CommitRequest):
        return {
            "m": "commit_req",
            "scout": msg.scout,
            "otid": _otid_w(msg.otid),
            "deps": _clock_w(msg.deps),
            "effects": [effect_to_wire(e) for e in msg.effects],
        }
    if isinstance(msg, CommitReply):
        return {
            "m": "commit_rep",
            "otid": _otid_w(msg.otid),
            "status": msg.status,
            "gtid": _gtid_w(msg.gtid),
        }
    if isinstance(msg, FetchRequest):
        return {
            "m": "fetch_req",
            "scout": msg.scout,
            "req_id": msg.req_id,
            "objects": [_obj_w(o) for o in msg.objects],
            "snapshot": _clock_w(msg.snapshot),
            "unsub": [_obj_w(o) for o in msg.unsubscribe],
        }
    if isinstance(msg, FetchReply):
        return {
            "m": "fetch_rep",
            "scout": msg.scout,
            "req_id": msg.req_id,
            "status": msg.status,
            "versions": [[_obj_w(o), snap, admit] for o, snap, admit in msg.versions],
            "admit_frontier": None if msg.admit_frontier is None else _vv_w(msg.admit_frontier),
        }
    if isinstance(msg, StoredTxRequest):
        return {
            "m": "stored_req",
            "scout": msg.scout,
            "name": msg.name,
            "params": msg.params,
            "otid": _otid_w(msg.otid),
            "deps": _clock_w(msg.deps),
        }
    if isinstance(msg, StoredTxReply):
        return {
            "m": "stored_rep",
            "otid": _otid_w(msg.otid),
            "status": msg.status,
            "gtid": _gtid_w(msg.gtid),
            "results": msg.results,
            "objects": [_obj_w(o) for o in msg.objects],
        }
    if isinstance(msg, GossipBatch):
        return {
            "m": "gossip",
            "src": msg.src,
            "records": [record_to_wire(r) for r in msg.records],
            "vdc": _vv_w(msg.vdc),
        }
    if isinstance(msg, NotifyBatch):
        return {
            "m": "notify",
            "dc": msg.dc,
            "epoch": msg.epoch,
            "prev": _vv_w(msg.prev),
            "frontier": _vv_w(msg.frontier),
            "items": [
                [kind, [effect_to_wire(e) for e in payload]]
                if kind == "effects"
                else [kind, [_obj_w(o) for o in payload]]
                for kind, payload in msg.items
            ],
            "acks": [[_otid_w(o), _gtid_w(g)] for o, g in msg.acks],
        }
    raise TypeError(f"not a wire message: {msg!r}")


def message_from_wire(w: dict, table: dict):
    """A fresh message; its effects come from the decode table `table`
    (`decode_once`). Fetch replies keep their states in wire form."""
    m = w["m"]
    if m == "session_req":
        return SessionRequest(
            w["scout"],
            w["epoch"],
            _vv_r(w["dc_part"]),
            [_obj_r(o) for o in w["cached"]],
            w.get("caches", True),
        )
    if m == "session_rep":
        return SessionReply(
            w["scout"], w["dc"], w["epoch"], w["accepted"], _vv_r(w["frontier"])
        )
    if m == "commit_req":
        return CommitRequest(
            w["scout"],
            _otid_r(w["otid"]),
            _clock_r(w["deps"]),
            tuple(_effects_r(w["effects"], table)),
        )
    if m == "commit_rep":
        return CommitReply(_otid_r(w["otid"]), w["status"], _gtid_r(w["gtid"]))
    if m == "fetch_req":
        return FetchRequest(
            w["scout"],
            w["req_id"],
            [_obj_r(o) for o in w["objects"]],
            _clock_r(w["snapshot"]),
            [_obj_r(o) for o in w["unsub"]],
        )
    if m == "fetch_rep":
        return FetchReply(
            w["scout"],
            w["req_id"],
            w["status"],
            [(_obj_r(o), snap, admit) for o, snap, admit in w["versions"]],
            None if w["admit_frontier"] is None else _vv_r(w["admit_frontier"]),
        )
    if m == "stored_req":
        return StoredTxRequest(
            w["scout"], w["name"], w["params"], _otid_r(w["otid"]), _clock_r(w["deps"])
        )
    if m == "stored_rep":
        return StoredTxReply(
            _otid_r(w["otid"]),
            w["status"],
            _gtid_r(w["gtid"]),
            w["results"],
            [_obj_r(o) for o in w["objects"]],
        )
    if m == "gossip":
        return GossipBatch(
            w["src"], [record_from_wire(r, table) for r in w["records"]], _vv_r(w["vdc"])
        )
    if m == "notify":
        items = []
        for kind, payload in w["items"]:
            if kind == "effects":
                items.append((kind, _effects_r(payload, table)))
            else:
                items.append((kind, [_obj_r(o) for o in payload]))
        return NotifyBatch(
            w["dc"],
            w["epoch"],
            _vv_r(w["prev"]),
            _vv_r(w["frontier"]),
            items,
            [(_otid_r(o), _gtid_r(g)) for o, g in w["acks"]],
        )
    raise TypeError(f"unknown message kind {m!r}")
