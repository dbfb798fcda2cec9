"""Operation-based mergeable data types with a prepare/effect split.

An update is issued against the version a transaction read. ``prepare``
turns the intent into a self-contained effect operation that can be
replayed on any replica of the object; ``apply`` folds an effect into a
state. Effects carry a globally unique tag and, where the semantics need
it, the set of tags they supersede (observed-remove metadata). Any two
effects with distinct tags commute, so replicas that apply the same set
of effects exactly once converge regardless of delivery interleaving.

Supported types: add-wins set, multi-value register, last-writer-wins
register, integer counter, and a map whose entries are nested mergeable
objects merged recursively under a (name, type) key.

Counter increments are deliberately not idempotent: applying the same
effect twice changes the value. That is what forces the replication layer
to deliver effects exactly once rather than merely at least once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple, Optional

from causalsim.clocks import Otid, ScoutId


class CrdtType(str, Enum):
    COUNTER = "counter"
    LWW_REGISTER = "lww"
    MV_REGISTER = "mv"
    AW_SET = "awset"
    CMAP = "cmap"


class _TypeByValue(dict):
    """Wire value -> CrdtType member. A lookup costs a tenth of
    ``CrdtType(value)``; an unknown value raises the same ValueError."""

    def __missing__(self, value):
        return CrdtType(value)


_TYPE_BY_VALUE = _TypeByValue((t.value, t) for t in CrdtType)


class ObjectId(NamedTuple):
    """Lookup key with the type embedded: same key, different type means
    a different object.

    A named tuple, so building and hashing one costs what a tuple does.
    Hash and order are those of the field tuple, as for the frozen
    dataclass it replaced, so the traces keep their order. Like any tuple
    it equals a plain tuple of the same fields, but never an `Otid` or a
    `Gtid` (whose first field is an int)."""

    key: str
    crdt_type: CrdtType


# (key, type value) -> the one ObjectId decoded for it; an ObjectId is a
# frozen value, so every node may hold the same one. The table holds one
# entry per distinct object id decoded in the process.
_OBJECT_IDS: dict[tuple[str, str], ObjectId] = {}


def object_to_wire(obj: ObjectId) -> list:
    return [obj.key, obj.crdt_type.value]


def object_from_wire(key: str, type_value: str) -> ObjectId:
    """The object id of the wire form `[key, type_value]`."""
    obj = _OBJECT_IDS.get((key, type_value))
    if obj is None:
        # an unknown type value raises here, before anything is cached
        obj = _OBJECT_IDS[key, type_value] = ObjectId(key, _TYPE_BY_VALUE[type_value])
    return obj


class EffectTag(NamedTuple):
    """Unique effect identity: producing transaction plus intra-tx sequence.

    A named tuple, so decoding a state builds its tags at tuple cost. Hash
    and order are those of the field tuple, on which the iteration order of
    tag sets and dicts, and so the traces, depend. Like any tuple it equals
    a plain tuple of the same fields, but never an `Otid`."""

    counter: int
    origin: ScoutId
    seq: int

    @property
    def otid(self) -> Otid:
        return Otid(self.counter, self.origin)


@dataclass(frozen=True)
class EffectOp:
    """A replayable update: what to do, where, and which versions it saw."""

    target: ObjectId
    kind: str
    payload: tuple
    tag: EffectTag
    deps: tuple[EffectTag, ...] = ()
    # the wire form: the dict it was decoded from, or its first encoding.
    # Never mutated, so nodes may share it; outside eq, hash and repr, and
    # `dataclasses.replace` does not carry it over.
    wire: Optional[dict] = field(default=None, init=False, compare=False, repr=False)


class TypeMismatch(TypeError):
    """Intent or effect applied to a state of the wrong mergeable type."""


# ---------------------------------------------------------------------------
# States. All immutable; apply() returns a fresh state.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterState:
    value: int = 0


@dataclass(frozen=True)
class LwwState:
    value: Any = None
    ts: int = 0
    origin: ScoutId = ""


class _Memo:
    """Memo slots for the wire form and the value form of an immutable
    state, each filled on its first render. They are class-level defaults,
    not dataclass fields, so eq, hash, repr, `fields()` and
    `dataclasses.replace` ignore them and construction does not set them.
    The memoized dicts and lists are shared by every holder: never mutate
    them."""

    _wire = None
    _value = None


@dataclass(frozen=True)
class MvState(_Memo):
    # candidates maps tag -> value; overwritten remembers superseded tags so
    # assign effects commute even when delivered before their predecessors
    candidates: dict[EffectTag, Any] = field(default_factory=dict)
    overwritten: frozenset[EffectTag] = frozenset()


@dataclass(frozen=True)
class AwSetState(_Memo):
    # alive maps element -> surviving add tags; tombstones are removed tags
    alive: dict[Any, frozenset[EffectTag]] = field(default_factory=dict)
    tombstones: frozenset[EffectTag] = frozenset()


@dataclass(frozen=True)
class CmapState(_Memo):
    # `_apply` copies only this dict, so sub-states an effect does not touch
    # are shared between versions, memos included
    entries: dict[tuple[str, CrdtType], Any] = field(default_factory=dict)


_STATE_CLASSES = {
    CrdtType.COUNTER: CounterState,
    CrdtType.LWW_REGISTER: LwwState,
    CrdtType.MV_REGISTER: MvState,
    CrdtType.AW_SET: AwSetState,
    CrdtType.CMAP: CmapState,
}


def new_state(crdt_type: CrdtType):
    """Empty state for the type: zero counter, unset register, empty set/map."""
    return _STATE_CLASSES[crdt_type]()


def type_of(state) -> CrdtType:
    for t, cls in _STATE_CLASSES.items():
        if isinstance(state, cls):
            return t
    raise TypeMismatch(f"not a mergeable state: {state!r}")


# ---------------------------------------------------------------------------
# prepare: intent + observed state -> effect
# ---------------------------------------------------------------------------


def prepare(obj: ObjectId, state, intent: tuple, tag: EffectTag) -> EffectOp:
    """Turn an update intent into an effect against the state that was read.

    Intents are small tuples: ``("inc", n)``, ``("assign", v)``,
    ``("add", x)``, ``("remove", x)``, and for maps
    ``("entry", name, CrdtType, inner_intent)``.
    """
    kind, payload, deps = _prepare(state, obj.crdt_type, intent, tag)
    return EffectOp(obj, kind, payload, tag, deps)


def _prepare(state, crdt_type: CrdtType, intent: tuple, tag: EffectTag):
    if not isinstance(state, _STATE_CLASSES[crdt_type]):
        raise TypeMismatch(f"{crdt_type} intent against {type(state).__name__}")
    op = intent[0]
    if crdt_type is CrdtType.COUNTER:
        if op != "inc":
            raise TypeMismatch(f"counter cannot {op}")
        return "inc", (int(intent[1]),), ()
    if crdt_type is CrdtType.LWW_REGISTER:
        if op != "assign":
            raise TypeMismatch(f"lww register cannot {op}")
        # logical timestamp grows past the observed one, so a causally later
        # assign always wins; ties across scouts break on the origin id
        return "assign", (intent[1], state.ts + 1, tag.origin), ()
    if crdt_type is CrdtType.MV_REGISTER:
        if op != "assign":
            raise TypeMismatch(f"mv register cannot {op}")
        return "assign", (intent[1],), tuple(sorted(state.candidates))
    if crdt_type is CrdtType.AW_SET:
        if op == "add":
            return "add", (intent[1],), ()
        if op == "remove":
            observed = state.alive.get(intent[1], frozenset())
            return "remove", (intent[1],), tuple(sorted(observed))
        raise TypeMismatch(f"set cannot {op}")
    if crdt_type is CrdtType.CMAP:
        if op != "entry":
            raise TypeMismatch(f"map cannot {op}")
        name, entry_type, inner = intent[1], intent[2], intent[3]
        sub = state.entries.get((name, entry_type), new_state(entry_type))
        inner_kind, inner_payload, inner_deps = _prepare(sub, entry_type, inner, tag)
        return "entry", (name, entry_type, inner_kind, inner_payload), inner_deps
    raise TypeMismatch(f"unknown type {crdt_type}")


# ---------------------------------------------------------------------------
# apply: state + effect -> state
# ---------------------------------------------------------------------------


def apply_effect(state, effect: EffectOp):
    if type_of(state) is not effect.target.crdt_type:
        raise TypeMismatch(
            f"effect for {effect.target.crdt_type} applied to {type(state).__name__}"
        )
    return _apply(state, effect.kind, effect.payload, effect.tag, effect.deps)


def _apply(state, kind: str, payload: tuple, tag: EffectTag, deps: tuple):
    if isinstance(state, CounterState):
        return CounterState(state.value + payload[0])

    if isinstance(state, LwwState):
        value, ts, origin = payload
        if (ts, origin) > (state.ts, state.origin):
            return LwwState(value, ts, origin)
        return state

    if isinstance(state, MvState):
        overwritten = state.overwritten | frozenset(deps)
        candidates = {t: v for t, v in state.candidates.items() if t not in overwritten}
        if tag not in overwritten:
            candidates[tag] = payload[0]
        return MvState(candidates, overwritten)

    if isinstance(state, AwSetState):
        if kind == "add":
            elem = payload[0]
            if tag in state.tombstones:
                return state
            alive = dict(state.alive)
            alive[elem] = alive.get(elem, frozenset()) | {tag}
            return AwSetState(alive, state.tombstones)
        if kind == "remove":
            dead = frozenset(deps)
            tombstones = state.tombstones | dead
            alive = {}
            for elem, tags in state.alive.items():
                remaining = tags - dead
                if remaining:
                    alive[elem] = remaining
            return AwSetState(alive, tombstones)
        raise TypeMismatch(f"set cannot apply {kind}")

    if isinstance(state, CmapState):
        name, entry_type, inner_kind, inner_payload = payload
        key = (name, entry_type)
        sub = state.entries.get(key, new_state(entry_type))
        entries = dict(state.entries)
        entries[key] = _apply(sub, inner_kind, inner_payload, tag, deps)
        return CmapState(entries)

    raise TypeMismatch(f"cannot apply to {type(state).__name__}")


# ---------------------------------------------------------------------------
# read
# ---------------------------------------------------------------------------


def value_of(state):
    """Readable value: int, register value, candidate set, element set, or
    a dict of (name, type) to nested values."""
    if isinstance(state, CounterState):
        return state.value
    if isinstance(state, LwwState):
        return state.value
    if isinstance(state, MvState):
        return frozenset(state.candidates.values())
    if isinstance(state, AwSetState):
        return frozenset(state.alive)
    if isinstance(state, CmapState):
        return {key: value_of(sub) for key, sub in state.entries.items()}
    raise TypeMismatch(f"no value for {type(state).__name__}")


# ---------------------------------------------------------------------------
# canonical serialization (self-describing; stable across a run)
# ---------------------------------------------------------------------------


def _tag_to_wire(tag: EffectTag) -> list:
    return list(tag)


# a tag's wire form is its field list; `_make` checks the length
_tag_from_wire = EffectTag._make


def effect_to_wire(effect: EffectOp) -> dict:
    """The effect's wire form, encoded on the first call only. Callers must
    not mutate it."""
    w = effect.wire
    if w is None:
        w = {
            "obj": object_to_wire(effect.target),
            "kind": effect.kind,
            "payload": _payload_to_wire(effect.kind, effect.payload),
            "tag": _tag_to_wire(effect.tag),
            "deps": [_tag_to_wire(t) for t in effect.deps],
        }
        object.__setattr__(effect, "wire", w)
    return w


def effect_from_wire(w: dict) -> EffectOp:
    """A fresh effect that keeps `w` as its wire form."""
    kind, obj = w["kind"], w["obj"]
    effect = EffectOp(
        object_from_wire(obj[0], obj[1]),
        kind,
        _payload_from_wire(kind, w["payload"]),
        _tag_from_wire(w["tag"]),
        tuple(map(_tag_from_wire, w["deps"])),
    )
    object.__setattr__(effect, "wire", w)
    return effect


def _payload_to_wire(kind: str, payload: tuple) -> list:
    if kind == "entry":
        name, entry_type, inner_kind, inner_payload = payload
        return [name, entry_type.value, inner_kind, _payload_to_wire(inner_kind, inner_payload)]
    return list(payload)


def _payload_from_wire(kind: str, w: list) -> tuple:
    if kind == "entry":
        return (w[0], _TYPE_BY_VALUE[w[1]], w[2], _payload_from_wire(w[2], w[3]))
    return tuple(w)


def state_to_wire(state) -> dict:
    """The canonical wire form. Sets, MV registers and maps encode once and
    keep it (`_Memo`); counters and LWW registers are flat, and rendering
    them costs what a memo lookup would. Callers must not mutate it."""
    if isinstance(state, CounterState):
        return {"t": "counter", "value": state.value}
    if isinstance(state, LwwState):
        return {"t": "lww", "value": state.value, "ts": state.ts, "origin": state.origin}
    if not isinstance(state, _Memo):
        raise TypeMismatch(f"cannot serialize {type(state).__name__}")
    w = state._wire
    if w is not None:
        return w
    if isinstance(state, MvState):
        w = {
            "t": "mv",
            "candidates": [[_tag_to_wire(t), v] for t, v in sorted(state.candidates.items())],
            "overwritten": [_tag_to_wire(t) for t in sorted(state.overwritten)],
        }
    elif isinstance(state, AwSetState):
        w = {
            "t": "awset",
            "alive": [
                [elem, [_tag_to_wire(t) for t in sorted(tags)]]
                for elem, tags in sorted(state.alive.items())
            ],
            "tombstones": [_tag_to_wire(t) for t in sorted(state.tombstones)],
        }
    else:
        w = {
            "t": "cmap",
            "entries": [
                [name, entry_type.value, state_to_wire(sub)]
                for (name, entry_type), sub in sorted(state.entries.items())
            ],
        }
    object.__setattr__(state, "_wire", w)
    return w


def state_from_wire(w: dict):
    """A fresh state with empty memos: keeping `w` would pin every decoded
    wire dict for as long as a cache holds the state. The simulator's decode
    table (`messages.decode_once`) pins it only until the run ends."""
    t = w["t"]
    if t == "counter":
        return CounterState(w["value"])
    if t == "lww":
        return LwwState(w["value"], w["ts"], w["origin"])
    if t == "mv":
        return MvState(
            {_tag_from_wire(tw): v for tw, v in w["candidates"]},
            frozenset(map(_tag_from_wire, w["overwritten"])),
        )
    if t == "awset":
        return AwSetState(
            {elem: frozenset(map(_tag_from_wire, tws)) for elem, tws in w["alive"]},
            frozenset(map(_tag_from_wire, w["tombstones"])),
        )
    if t == "cmap":
        return CmapState(
            {(name, _TYPE_BY_VALUE[tv]): state_from_wire(sw) for name, tv, sw in w["entries"]}
        )
    raise TypeMismatch(f"cannot deserialize type tag {t!r}")


def value_to_wire(state) -> Any:
    """Canonical JSON form of a readable value, for traces and comparisons.
    Memoized like `state_to_wire`; callers must not mutate it."""
    if isinstance(state, CounterState):
        return state.value
    if isinstance(state, LwwState):
        return state.value
    if not isinstance(state, _Memo):
        raise TypeMismatch(f"no value for {type(state).__name__}")
    v = state._value
    if v is not None:
        return v
    if isinstance(state, MvState):
        v = sorted(state.candidates.values(), key=repr)
    elif isinstance(state, AwSetState):
        v = sorted(state.alive, key=repr)
    else:
        v = {
            f"{name}#{entry_type.value}": value_to_wire(sub)
            for (name, entry_type), sub in sorted(state.entries.items())
        }
    object.__setattr__(state, "_value", v)
    return v
