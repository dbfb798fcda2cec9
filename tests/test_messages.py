import json
from dataclasses import dataclass, fields

import pytest

from causalsim import messages
from causalsim.clocks import CausalClock, Gtid, Otid, VersionVector, vector_from_wire
from causalsim.crdt import (
    AwSetState,
    CmapState,
    CounterState,
    CrdtType,
    EffectTag,
    ObjectId,
    new_state,
    object_from_wire,
    prepare,
    state_to_wire,
)
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
    return CommitRecord(OTID, [Gtid(5, 0), Gtid(7, 2)], DEPS, _effects(), "s1", [1, "x"])


MESSAGES = {
    "session_req": SessionRequest("s1", 2, VersionVector((4, 0, 2)), [CTR, SET]),
    "session_req_cacheless": SessionRequest("s1", 2, VersionVector((4, 0, 2)), [], False),
    "session_rep": SessionReply("s1", 2, 2, True, VersionVector((4, 1, 2))),
    "commit_req": CommitRequest("s1", OTID, DEPS, _effects()),
    "commit_rep": CommitReply(OTID, "new", Gtid(5, 0)),
    "commit_rep_null": CommitReply(OTID, "null", None),
    "fetch_req": FetchRequest("s1", 9, [SET, MAP], DEPS, [CTR]),
    "fetch_rep_shared": FetchReply(
        "s1", 9, "ok", [(CTR, state_to_wire(CounterState(4)), None)], VersionVector((4, 0, 2))
    ),
    "fetch_rep_admit": FetchReply(
        "s1",
        9,
        "ok",
        [
            (CTR, state_to_wire(CounterState(4)), state_to_wire(CounterState(3))),
            (SET, state_to_wire(AwSetState()), None),
        ],
        VersionVector((3, 0, 2)),
    ),
    "fetch_rep_cacheless": FetchReply(
        "s1", 9, "ok", [(CTR, state_to_wire(CounterState(4)), None)]
    ),
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
    assert message_from_wire(json.loads(json.dumps(message_to_wire(msg))), {}) == msg


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_wire_keys_are_the_kind_then_the_fields_in_order(name):
    msg = MESSAGES[name]
    # a bool field that defaults to True, such as `caches`, only when False
    expected = [f.name for f in fields(msg) if f.default is not True or not getattr(msg, f.name)]
    assert list(message_to_wire(msg)) == ["m", *expected]


def test_a_field_without_a_codec_fails_when_its_plan_is_built():
    @dataclass
    class Probe:
        scout: "ScoutId"
        at: "VersionVector"
        effects: "tuple[EffectOp, ...]"
        flag: "bool" = True

    encoders, get, decoders, table_decoders, flags = messages._plan(Probe)
    assert [name for name, _ in encoders] == ["at", "effects"]
    assert decoders == [(1, vector_from_wire)]
    assert [i for i, _ in table_decoders] == [2]
    assert flags == ["flag"]
    assert get({"m": "probe", "effects": [], "scout": "s0", "at": [1]}) == ("s0", [1], [])

    @dataclass
    class Unknown:
        scout: "ScoutId"
        weight: "float"

    with pytest.raises(TypeError, match="Unknown.weight"):
        messages._plan(Unknown)


def test_a_field_after_a_flag_fails_when_its_plan_is_built():
    @dataclass
    class Late:
        scout: "ScoutId"
        flag: "bool" = True
        epoch: "int" = 0

    with pytest.raises(TypeError, match="Late.epoch"):
        messages._plan(Late)


def test_a_one_field_message_gets_its_field_as_a_tuple():
    @dataclass
    class Lone:
        at: "VersionVector"

    _, get, decoders, _, _ = messages._plan(Lone)
    assert get({"m": "lone", "at": [1, 2]}) == ([1, 2],) and decoders == [(0, vector_from_wire)]


def test_what_is_not_a_message_is_refused():
    with pytest.raises(TypeError):
        message_to_wire(object())
    with pytest.raises(TypeError):
        message_from_wire({"m": "nope"}, {})


def test_only_a_cacheless_session_request_carries_the_cache_flag():
    caching = message_to_wire(MESSAGES["session_req"])
    assert set(caching) == {"m", "scout", "epoch", "dc_part", "cached"}
    cacheless = message_to_wire(MESSAGES["session_req_cacheless"])
    assert set(cacheless) - set(caching) == {"caches"} and cacheless["caches"] is False


def test_shared_admit_state_is_null_on_the_wire():
    wire = message_to_wire(MESSAGES["fetch_rep_admit"])
    assert wire["versions"][0][2] == {"t": "counter", "value": 3}
    assert wire["versions"][1][2] is None


def test_object_from_wire_uses_the_enum_members():
    for t in CrdtType:
        obj = object_from_wire("k", t.value)
        assert obj == ObjectId("k", t) and obj.crdt_type is t
    with pytest.raises(ValueError):
        object_from_wire("k", "no-such-type")
