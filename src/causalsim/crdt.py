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
objects merged recursively under a (name, type) key. Each type is one state
class that holds its prepare, apply, read and wire code.

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


# a tag's wire form is its field list; `_make` checks the length
_tag_from_wire = EffectTag._make


# ---------------------------------------------------------------------------
# States: one class per type. All immutable; apply() returns a fresh state.
# ---------------------------------------------------------------------------


class _State:
    """A mergeable state, with `prepare`, `apply`, `read`, `render`, `to_wire`
    and `from_wire`. By default the readable value is the `value` field,
    rendered as it is."""

    def read(self):
        return self.value

    render = read


@dataclass(frozen=True)
class CounterState(_State):
    value: int = 0

    def prepare(self, intent: tuple, tag: EffectTag):
        if intent[0] != "inc":
            raise TypeMismatch(f"counter cannot {intent[0]}")
        return "inc", (int(intent[1]),), ()

    def apply(self, kind: str, payload: tuple, tag: EffectTag, deps: tuple):
        return CounterState(self.value + payload[0])

    def to_wire(self) -> dict:
        return {"t": "counter", "value": self.value}

    @staticmethod
    def from_wire(w: dict):
        return CounterState(w["value"])


@dataclass(frozen=True)
class LwwState(_State):
    value: Any = None
    ts: int = 0
    origin: ScoutId = ""

    def prepare(self, intent: tuple, tag: EffectTag):
        if intent[0] != "assign":
            raise TypeMismatch(f"lww register cannot {intent[0]}")
        # logical timestamp grows past the observed one, so a causally later
        # assign always wins; ties across scouts break on the origin id
        return "assign", (intent[1], self.ts + 1, tag.origin), ()

    def apply(self, kind: str, payload: tuple, tag: EffectTag, deps: tuple):
        if payload[1:] > (self.ts, self.origin):
            return LwwState(*payload)
        return self

    def to_wire(self) -> dict:
        return {"t": "lww", "value": self.value, "ts": self.ts, "origin": self.origin}

    @staticmethod
    def from_wire(w: dict):
        return LwwState(w["value"], w["ts"], w["origin"])


class _Memo(_State):
    """A memo slot for the value form of an immutable state, which read
    events render, filled on its first render. It is a class-level default,
    not a dataclass field, so eq, hash, repr, `fields()` and
    `dataclasses.replace` ignore it and construction does not set it. The
    memoized value is shared by every holder: never mutate it. A subclass
    renders in `_render`."""

    _value = None

    def render(self):
        if self._value is None:
            object.__setattr__(self, "_value", self._render())
        return self._value


@dataclass(frozen=True)
class MvState(_Memo):
    # candidates maps tag -> value; overwritten remembers superseded tags so
    # assign effects commute even when delivered before their predecessors
    candidates: dict[EffectTag, Any] = field(default_factory=dict)
    overwritten: frozenset[EffectTag] = frozenset()

    def prepare(self, intent: tuple, tag: EffectTag):
        if intent[0] != "assign":
            raise TypeMismatch(f"mv register cannot {intent[0]}")
        return "assign", (intent[1],), tuple(sorted(self.candidates))

    def apply(self, kind: str, payload: tuple, tag: EffectTag, deps: tuple):
        overwritten = self.overwritten | frozenset(deps)
        candidates = {t: v for t, v in self.candidates.items() if t not in overwritten}
        if tag not in overwritten:
            candidates[tag] = payload[0]
        return MvState(candidates, overwritten)

    def read(self):
        return frozenset(self.candidates.values())

    def _render(self):
        return sorted(self.candidates.values(), key=repr)

    def to_wire(self) -> dict:
        return {
            "t": "mv",
            "candidates": [[list(t), v] for t, v in sorted(self.candidates.items())],
            "overwritten": [list(t) for t in sorted(self.overwritten)],
        }

    @staticmethod
    def from_wire(w: dict):
        return MvState(
            {_tag_from_wire(tw): v for tw, v in w["candidates"]},
            frozenset(map(_tag_from_wire, w["overwritten"])),
        )


@dataclass(frozen=True)
class AwSetState(_Memo):
    # alive maps element -> surviving add tags; tombstones are removed tags
    alive: dict[Any, frozenset[EffectTag]] = field(default_factory=dict)
    tombstones: frozenset[EffectTag] = frozenset()

    def prepare(self, intent: tuple, tag: EffectTag):
        if intent[0] == "add":
            return "add", (intent[1],), ()
        if intent[0] == "remove":
            observed = self.alive.get(intent[1], frozenset())
            return "remove", (intent[1],), tuple(sorted(observed))
        raise TypeMismatch(f"set cannot {intent[0]}")

    def apply(self, kind: str, payload: tuple, tag: EffectTag, deps: tuple):
        if kind == "add":
            elem = payload[0]
            if tag in self.tombstones:
                return self
            alive = dict(self.alive)
            alive[elem] = alive.get(elem, frozenset()) | {tag}
            return AwSetState(alive, self.tombstones)
        if kind == "remove":
            dead = frozenset(deps)
            tombstones = self.tombstones | dead
            alive = {}
            for elem, tags in self.alive.items():
                remaining = tags - dead
                if remaining:
                    alive[elem] = remaining
            return AwSetState(alive, tombstones)
        raise TypeMismatch(f"set cannot apply {kind}")

    def read(self):
        return frozenset(self.alive)

    def _render(self):
        return sorted(self.alive, key=repr)

    def to_wire(self) -> dict:
        return {
            "t": "awset",
            "alive": [
                [elem, [list(t) for t in sorted(tags)]]
                for elem, tags in sorted(self.alive.items())
            ],
            "tombstones": [list(t) for t in sorted(self.tombstones)],
        }

    @staticmethod
    def from_wire(w: dict):
        return AwSetState(
            {elem: frozenset(map(_tag_from_wire, tws)) for elem, tws in w["alive"]},
            frozenset(map(_tag_from_wire, w["tombstones"])),
        )


@dataclass(frozen=True)
class CmapState(_Memo):
    # `apply` copies only this dict, so sub-states an effect does not touch
    # are shared between versions, render memos included
    entries: dict[tuple[str, CrdtType], Any] = field(default_factory=dict)

    def prepare(self, intent: tuple, tag: EffectTag):
        if intent[0] != "entry":
            raise TypeMismatch(f"map cannot {intent[0]}")
        name, entry_type, inner = intent[1], intent[2], intent[3]
        sub = self._entry((name, entry_type))
        inner_kind, inner_payload, inner_deps = sub.prepare(inner, tag)
        return "entry", (name, entry_type, inner_kind, inner_payload), inner_deps

    def apply(self, kind: str, payload: tuple, tag: EffectTag, deps: tuple):
        name, entry_type, inner_kind, inner_payload = payload
        key = (name, entry_type)
        sub = self._entry(key)
        entries = dict(self.entries)
        entries[key] = sub.apply(inner_kind, inner_payload, tag, deps)
        return CmapState(entries)

    def _entry(self, key: tuple[str, CrdtType]):
        # a missing entry is a new state, built only then
        sub = self.entries.get(key)
        return new_state(key[1]) if sub is None else sub

    def read(self):
        return {key: sub.read() for key, sub in self.entries.items()}

    def _render(self):
        return {
            f"{name}#{entry_type.value}": sub.render()
            for (name, entry_type), sub in sorted(self.entries.items())
        }

    def to_wire(self) -> dict:
        return {
            "t": "cmap",
            "entries": [
                [name, entry_type.value, sub.to_wire()]
                for (name, entry_type), sub in sorted(self.entries.items())
            ],
        }

    @staticmethod
    def from_wire(w: dict):
        return CmapState(
            {(name, _TYPE_BY_VALUE[tv]): state_from_wire(sw) for name, tv, sw in w["entries"]}
        )


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


def prepare(obj: ObjectId, state, intent: tuple, tag: EffectTag) -> EffectOp:
    """Turn an update intent into an effect against the state that was read.

    Intents are small tuples: ``("inc", n)``, ``("assign", v)``,
    ``("add", x)``, ``("remove", x)``, and for maps
    ``("entry", name, CrdtType, inner_intent)``.
    """
    if type(state) is not _STATE_CLASSES[obj.crdt_type]:
        raise TypeMismatch(f"{obj.crdt_type} intent against {type(state).__name__}")
    kind, payload, deps = state.prepare(intent, tag)
    return EffectOp(obj, kind, payload, tag, deps)


def apply_effect(state, effect: EffectOp):
    if type(state) is not _STATE_CLASSES[effect.target.crdt_type]:
        raise TypeMismatch(f"{effect.target.crdt_type} effect on {type(state).__name__}")
    return state.apply(effect.kind, effect.payload, effect.tag, effect.deps)


def value_of(state):
    """Readable value: int, register value, candidate set, element set, or
    a dict of (name, type) to nested values."""
    if not isinstance(state, _State):
        raise TypeMismatch(f"no value for {type(state).__name__}")
    return state.read()


# ---------------------------------------------------------------------------
# canonical serialization (self-describing; stable across a run)
# ---------------------------------------------------------------------------


def effect_to_wire(effect: EffectOp) -> dict:
    """The effect's wire form, encoded on the first call only. Callers must
    not mutate it."""
    w = effect.wire
    if w is None:
        w = {
            "obj": object_to_wire(effect.target),
            "kind": effect.kind,
            "payload": _payload_to_wire(effect.kind, effect.payload),
            "tag": list(effect.tag),
            "deps": [list(t) for t in effect.deps],
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
    """The canonical wire form, a new dict on every call. The simulator
    encodes a state only for a wire tap or a crash's durable snapshot."""
    if not isinstance(state, _State):
        raise TypeMismatch(f"cannot serialize {type(state).__name__}")
    return state.to_wire()


def state_from_wire(w: dict):
    """A fresh state with an empty render memo; it keeps nothing of `w`."""
    cls = _STATE_CLASSES.get(_TYPE_BY_VALUE.get(w["t"]))
    if cls is None:
        raise TypeMismatch(f"cannot deserialize type tag {w['t']!r}")
    return cls.from_wire(w)


def value_to_wire(state) -> Any:
    """Canonical JSON form of a readable value, for traces and comparisons.
    Rendered once for sets, MV registers and maps (`_Memo`); callers must
    not mutate it."""
    if not isinstance(state, _State):
        raise TypeMismatch(f"no value for {type(state).__name__}")
    return state.render()
