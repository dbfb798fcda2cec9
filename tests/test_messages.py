import json
import random
from dataclasses import dataclass, fields

import pytest
from crdt_random import ALL_TYPES, TagSource, evolve
from hypothesis import given, settings, strategies as st

from causalsim import messages
from causalsim.clocks import CausalClock, Gtid, Otid, VersionVector
from causalsim.crdt import (
    AwSetState,
    CmapState,
    CounterState,
    CrdtType,
    EffectOp,
    EffectTag,
    ObjectId,
    effect_to_wire,
    new_state,
    object_from_wire,
    prepare,
    state_to_wire,
)
from causalsim.crdt import _STATE_CLASSES
from causalsim.messages import (
    CommitRecord,
    CommitReply,
    CommitRequest,
    FetchReply,
    FetchRequest,
    GossipBatch,
    NotifyBatch,
    SessionReply,
    SessionRequest,
    StoredTxReply,
    StoredTxRequest,
    message_from_wire,
    message_to_wire,
)

CTR = ObjectId("ctr", CrdtType.COUNTER)
SET = ObjectId("user:A/frd", CrdtType.AW_SET)
MAP = ObjectId("user:A", CrdtType.CMAP)
OTID = Otid(3, "s1")
DEPS = CausalClock(VersionVector((4, 0, 2)), 2)


def _effects():
    tag = EffectTag(OTID.counter, OTID.origin, 0)
    added = AwSetState({"B": frozenset({EffectTag(1, "s0", 0)})})
    return (
        prepare(CTR, new_state(CrdtType.COUNTER), ("inc", 5), tag),
        prepare(SET, added, ("remove", "B"), EffectTag(OTID.counter, OTID.origin, 1)),
        prepare(MAP, CmapState(), ("entry", "name", CrdtType.LWW_REGISTER, ("assign", "A")), tag),
    )


def _record():
    return CommitRecord(OTID, (Gtid(5, 0), Gtid(7, 2)), DEPS, _effects(), "s1", [1, "x"])


MESSAGES = {
    "session_req": SessionRequest("s1", 2, VersionVector((4, 0, 2)), [CTR, SET]),
    "session_req_cacheless": SessionRequest("s1", 2, VersionVector((4, 0, 2)), [], False),
    "session_rep": SessionReply("s1", 2, 2, True, VersionVector((4, 1, 2))),
    "commit_req": CommitRequest("s1", OTID, DEPS, _effects()),
    "commit_rep": CommitReply(OTID, "new", Gtid(5, 0)),
    "commit_rep_null": CommitReply(OTID, "null", None),
    "fetch_req": FetchRequest("s1", 9, [SET, MAP], DEPS, [CTR]),
    "fetch_rep_shared": FetchReply(
        "s1", 9, "ok", [(CTR, CounterState(4), None)], VersionVector((4, 0, 2))
    ),
    "fetch_rep_admit": FetchReply(
        "s1",
        9,
        "ok",
        [
            (CTR, CounterState(4), CounterState(3)),
            (SET, AwSetState({"B": frozenset({EffectTag(1, "s0", 0)})}), None),
        ],
        VersionVector((3, 0, 2)),
    ),
    "fetch_rep_cacheless": FetchReply("s1", 9, "ok", [(CTR, CounterState(4), None)]),
    "fetch_rep_pruned": FetchReply("s1", 9, "pruned"),
    "stored_req": StoredTxRequest("s1", "wall", {"obj": "ctr"}, OTID, DEPS),
    "stored_rep": StoredTxReply(OTID, "new", Gtid(5, 0), [4, None], [CTR]),
    "gossip": GossipBatch(0, [_record()], VersionVector((7, 0, 2))),
    "notify": NotifyBatch(
        0,
        2,
        VersionVector((4, 0, 2)),
        VersionVector((7, 0, 2)),
        [("effects", list(_effects()[:2])), ("invalidate", [MAP])],
        [(OTID, Gtid(5, 0))],
    ),
}


def test_every_message_kind_is_covered():
    kinds = {message_to_wire(m)["m"] for m in MESSAGES.values()}
    assert kinds == {
        "session_req", "session_rep", "commit_req", "commit_rep", "fetch_req",
        "fetch_rep", "stored_req", "stored_rep", "gossip", "notify",
    }


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_json_round_trip(name):
    msg = MESSAGES[name]
    assert message_from_wire(json.loads(json.dumps(message_to_wire(msg)))) == msg


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_wire_keys_are_the_kind_then_the_fields_in_order(name):
    msg = MESSAGES[name]
    # a bool field that defaults to True, such as `caches`, only when False
    expected = [f.name for f in fields(msg) if f.default is not True or not getattr(msg, f.name)]
    assert list(message_to_wire(msg)) == ["m", *expected]


def test_a_field_without_a_codec_fails_when_its_codec_is_compiled():
    @dataclass
    class Probe:
        scout: "ScoutId"
        at: "VersionVector"
        gtid: "Optional[Gtid]"
        effects: "tuple[EffectOp, ...]"
        flag: "bool" = True

    encode, decode = messages._compile(Probe, "probe")
    effects = _effects()
    probe = Probe("s0", VersionVector((1, 2)), None, effects)
    wire = encode(probe)
    assert wire == {
        "m": "probe",
        "scout": "s0",
        "at": [1, 2],
        "gtid": None,
        "effects": [effect_to_wire(e) for e in effects],
    }
    assert decode(wire) == probe
    lowered = Probe("s0", VersionVector(()), Gtid(3, 1), (), False)
    assert list(encode(lowered)) == ["m", "scout", "at", "gtid", "effects", "flag"]
    assert encode(lowered)["gtid"] == [3, 1] and decode(encode(lowered)) == lowered

    @dataclass
    class Unknown:
        scout: "ScoutId"
        weight: "float"

    with pytest.raises(TypeError, match="Unknown.weight"):
        messages._compile(Unknown, "unknown")

    @dataclass
    class UnknownOptional:
        weight: "Optional[float]"

    with pytest.raises(TypeError, match="UnknownOptional.weight"):
        messages._compile(UnknownOptional, "unknown")


def test_a_field_after_a_flag_fails_when_its_codec_is_compiled():
    @dataclass
    class Late:
        scout: "ScoutId"
        flag: "bool" = True
        epoch: "int" = 0

    with pytest.raises(TypeError, match="Late.epoch"):
        messages._compile(Late, "late")


def test_a_one_field_message_round_trips():
    @dataclass
    class Lone:
        at: "VersionVector"

    encode, decode = messages._compile(Lone, "lone")
    assert encode(Lone(VersionVector((1, 2)))) == {"m": "lone", "at": [1, 2]}
    assert decode({"m": "lone", "at": [1, 2]}) == Lone(VersionVector((1, 2)))


def test_what_is_not_a_message_is_refused():
    with pytest.raises(TypeError):
        message_to_wire(object())
    with pytest.raises(TypeError):
        message_from_wire({"m": "nope"})


def test_only_a_cacheless_session_request_carries_the_cache_flag():
    caching = message_to_wire(MESSAGES["session_req"])
    assert set(caching) == {"m", "scout", "epoch", "dc_part", "cached"}
    cacheless = message_to_wire(MESSAGES["session_req_cacheless"])
    assert set(cacheless) - set(caching) == {"caches"} and cacheless["caches"] is False


def test_shared_admit_state_is_null_on_the_wire():
    msg = MESSAGES["fetch_rep_admit"]
    wire = message_to_wire(msg)
    assert wire["versions"][0][1:] == [{"t": "counter", "value": 4}, {"t": "counter", "value": 3}]
    # a shared admit state is null on the wire
    assert wire["versions"][1] == [["user:A/frd", "awset"], state_to_wire(msg.versions[1][1]), None]
    decoded = message_from_wire(wire)
    assert decoded.versions == msg.versions and decoded.versions[1][2] is None


def test_object_from_wire_uses_the_enum_members():
    for t in CrdtType:
        obj = object_from_wire("k", t.value)
        assert obj == ObjectId("k", t) and obj.crdt_type is t
    with pytest.raises(ValueError):
        object_from_wire("k", "no-such-type")


# -- every message kind, generated ------------------------------------------------

KINDS = {
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


def is_flag(f) -> bool:
    return f.type == "bool" and f.default is True


def reference_to_wire(value):
    """The wire form of a message or of any value in one, chosen by the
    value's type alone: what the compiled codec must reproduce byte for
    byte. Effects and states keep the crdt codec; everything else is
    spelled out."""
    if isinstance(value, VersionVector):
        return [*value]
    if isinstance(value, CausalClock):
        return [[*value.dc_part], value.local_part]
    if isinstance(value, ObjectId):
        return [value.key, value.crdt_type.value]
    if isinstance(value, (Otid, Gtid)):
        return [value.counter, value.origin]
    if isinstance(value, EffectOp):
        return effect_to_wire(value)
    if type(value) in _STATE_CLASSES.values():
        return state_to_wire(value)
    if isinstance(value, CommitRecord):
        return {
            "otid": reference_to_wire(value.otid),
            "gtids": reference_to_wire(value.gtids),
            "deps": reference_to_wire(value.deps),
            "effects": reference_to_wire(value.effects),
            "session": value.origin_session,
            "results": value.stored_results,
        }
    if type(value) in KINDS:
        out = {"m": KINDS[type(value)]}
        for f in fields(value):
            v = getattr(value, f.name)
            if not (is_flag(f) and v is True):
                out[f.name] = reference_to_wire(v)
        return out
    if isinstance(value, (list, tuple)):
        return [reference_to_wire(v) for v in value]
    return value  # str, int, bool, None, and JSON dicts: stored parameters


scouts = st.sampled_from(["s0", "s1", "s10"])
dcs = st.integers(0, 2)
counts = st.integers(0, 40)
vectors = st.lists(counts, min_size=1, max_size=4).map(VersionVector)
clocks = st.builds(CausalClock, vectors, counts)
otids = st.builds(Otid, st.integers(1, 40), scouts)
gtids = st.builds(Gtid, st.integers(1, 40), dcs)
objects = st.builds(ObjectId, st.sampled_from(["ctr", "user:A", "user:B/frd"]), st.sampled_from(ALL_TYPES))
object_lists = st.lists(objects, max_size=3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
statuses = st.sampled_from(["new", "existing", "null", "ok", "pruned"])


@st.composite
def effect_tuples(draw):
    """Effects prepared against replica states, as the scouts make them."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    tags, out = TagSource(), []
    for _ in range(draw(st.integers(0, 3))):
        obj = ObjectId(rng.choice(["ctr", "user:A"]), rng.choice(ALL_TYPES))
        state, _ = evolve(obj, new_state(obj.crdt_type), rng, tags, "base", rng.randrange(3))
        out += evolve(obj, state, rng, tags, draw(scouts), 1)[1]
    return tuple(out)


@st.composite
def states(draw):
    """A state of any type, made by prepared effects."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    obj = ObjectId("o", rng.choice(ALL_TYPES))
    return evolve(obj, new_state(obj.crdt_type), rng, TagSource(), draw(scouts), rng.randrange(4))[0]


versions = st.lists(st.tuples(objects, states(), st.none() | states()), max_size=3)
records = st.builds(
    CommitRecord, otids, st.lists(gtids, min_size=1, max_size=3).map(tuple), clocks, effect_tuples(), scouts, json_values
)
items = st.lists(
    st.tuples(st.just("effects"), effect_tuples().map(list))
    | st.tuples(st.just("invalidate"), object_lists),
    max_size=3,
)
GENERATED = {
    SessionRequest: st.builds(SessionRequest, scouts, counts, vectors, object_lists, st.booleans()),
    SessionReply: st.builds(SessionReply, scouts, dcs, counts, st.booleans(), vectors),
    CommitRequest: st.builds(CommitRequest, scouts, otids, clocks, effect_tuples()),
    CommitReply: st.builds(CommitReply, otids, statuses, st.none() | gtids),
    FetchRequest: st.builds(FetchRequest, scouts, counts, object_lists, clocks, object_lists),
    FetchReply: st.builds(FetchReply, scouts, counts, statuses, versions, st.none() | vectors),
    StoredTxRequest: st.builds(StoredTxRequest, scouts, st.text(max_size=5), json_values, otids, clocks),
    StoredTxReply: st.builds(StoredTxReply, otids, statuses, st.none() | gtids, json_values, object_lists),
    GossipBatch: st.builds(GossipBatch, dcs, st.lists(records, max_size=3), vectors),
    NotifyBatch: st.builds(
        NotifyBatch, dcs, counts, vectors, vectors, items, st.lists(st.tuples(otids, gtids), max_size=3)
    ),
}


def test_every_message_class_is_generated():
    assert set(GENERATED) == set(KINDS) == set(messages._KINDS)
    assert KINDS == messages._KINDS


@settings(max_examples=300, deadline=None)
@given(st.one_of(*GENERATED.values()))
def test_the_compiled_codec_matches_the_reference_encoder(msg):
    wire = message_to_wire(msg)
    assert message_from_wire(wire) == msg
    assert message_from_wire(json.loads(json.dumps(wire))) == msg
    shown = [f.name for f in fields(msg) if not (is_flag(f) and getattr(msg, f.name) is True)]
    assert list(wire) == ["m", *shown]
    assert json.dumps(wire).encode() == json.dumps(reference_to_wire(msg)).encode()
