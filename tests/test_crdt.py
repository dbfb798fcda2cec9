import itertools
import json
import random
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from causalsim.clocks import Gtid, Otid
from causalsim.crdt import (
    CrdtType,
    EffectTag,
    ObjectId,
    TypeMismatch,
    apply_effect,
    effect_from_wire,
    effect_to_wire,
    new_state,
    prepare,
    state_from_wire,
    state_to_wire,
    value_of,
    value_to_wire,
)
from crdt_random import ALL_TYPES, TagSource, concurrent_scenario, evolve


def tag(counter, origin="c", seq=0):
    return EffectTag(counter, origin, seq)


COUNTER = ObjectId("n", CrdtType.COUNTER)
LWW = ObjectId("r", CrdtType.LWW_REGISTER)
MV = ObjectId("m", CrdtType.MV_REGISTER)
AWSET = ObjectId("s", CrdtType.AW_SET)
CMAP = ObjectId("u", CrdtType.CMAP)


class TestNewAndValue:
    def test_empty_states(self):
        assert value_of(new_state(CrdtType.COUNTER)) == 0
        assert value_of(new_state(CrdtType.AW_SET)) == frozenset()
        assert value_of(new_state(CrdtType.MV_REGISTER)) == frozenset()
        assert value_of(new_state(CrdtType.LWW_REGISTER)) is None
        assert value_of(new_state(CrdtType.CMAP)) == {}


class TestCounter:
    def test_increment_effect(self):
        e = prepare(COUNTER, new_state(CrdtType.COUNTER), ("inc", 10), tag(1))
        assert e.kind == "inc" and e.payload == (10,)

    def test_distinct_tags_add_up(self):
        s = new_state(CrdtType.COUNTER)
        s = apply_effect(s, prepare(COUNTER, s, ("inc", 5), tag(1)))
        e = prepare(COUNTER, s, ("inc", 10), tag(2))
        s = apply_effect(s, e)
        assert value_of(s) == 15
        s = apply_effect(s, prepare(COUNTER, s, ("inc", 10), tag(3)))
        assert value_of(s) == 25

    def test_negative_amounts(self):
        s = new_state(CrdtType.COUNTER)
        s = apply_effect(s, prepare(COUNTER, s, ("inc", 10), tag(1)))
        s = apply_effect(s, prepare(COUNTER, s, ("inc", -3), tag(2)))
        assert value_of(s) == 7

    def test_not_idempotent(self):
        # the property that makes exactly-once delivery load-bearing
        s = new_state(CrdtType.COUNTER)
        e = prepare(COUNTER, s, ("inc", 10), tag(1))
        once = apply_effect(s, e)
        twice = apply_effect(once, e)
        assert value_of(once) == 10
        assert value_of(twice) == 20
        assert once != twice


class TestLww:
    def test_max_timestamp_wins_either_order(self):
        s = new_state(CrdtType.LWW_REGISTER)
        e1 = prepare(LWW, s, ("assign", "a"), tag(1, "c1"))
        e2 = prepare(LWW, s, ("assign", "b"), tag(1, "c2"))
        # concurrent: both read ts=0, tie broken by origin
        assert value_of(apply_effect(apply_effect(s, e1), e2)) == "b"
        assert value_of(apply_effect(apply_effect(s, e2), e1)) == "b"

    def test_causally_later_assign_wins(self):
        s = new_state(CrdtType.LWW_REGISTER)
        e1 = prepare(LWW, s, ("assign", "a"), tag(1))
        s1 = apply_effect(s, e1)
        e2 = prepare(LWW, s1, ("assign", "b"), tag(2))
        assert value_of(apply_effect(apply_effect(s, e2), e1)) == "b"

    def test_no_ties_in_generated_history(self):
        rng = random.Random(7)
        for _ in range(200):
            base, line_a, line_b = concurrent_scenario(rng, CrdtType.LWW_REGISTER)
            seen = set()
            for e in line_a + line_b:
                key = (e.payload[1], e.payload[2])
                assert key not in seen
                seen.add(key)


class TestMv:
    def test_assign_overwrites_observed(self):
        s = new_state(CrdtType.MV_REGISTER)
        e0 = prepare(MV, s, ("assign", "y"), tag(1, "c0"))
        s0 = apply_effect(s, e0)
        e1 = prepare(MV, s0, ("assign", "x"), tag(1, "c1"))
        assert e1.deps == (tag(1, "c0"),)
        assert value_of(apply_effect(s0, e1)) == frozenset({"x"})

    def test_concurrent_assigns_both_survive(self):
        s = new_state(CrdtType.MV_REGISTER)
        ex = prepare(MV, s, ("assign", "x"), tag(1, "c1"))
        ey = prepare(MV, s, ("assign", "y"), tag(1, "c2"))
        for first, second in [(ex, ey), (ey, ex)]:
            got = value_of(apply_effect(apply_effect(s, first), second))
            assert got == frozenset({"x", "y"})


class TestAwSet:
    def test_adds_union_either_order(self):
        s = new_state(CrdtType.AW_SET)
        ea = prepare(AWSET, s, ("add", "A"), tag(1, "c1"))
        ec = prepare(AWSET, s, ("add", "C"), tag(1, "c2"))
        for first, second in [(ea, ec), (ec, ea)]:
            got = value_of(apply_effect(apply_effect(s, first), second))
            assert got == frozenset({"A", "C"})

    def test_add_wins_over_non_observing_remove(self):
        # X added with t0; a remove that observed only t0 is concurrent
        # with a second add t1: the element survives in both orders
        s = new_state(CrdtType.AW_SET)
        e0 = prepare(AWSET, s, ("add", "X"), tag(1, "c0"))
        s0 = apply_effect(s, e0)
        e_rm = prepare(AWSET, s0, ("remove", "X"), tag(1, "c1"))
        e_add = prepare(AWSET, s0, ("add", "X"), tag(1, "c2"))
        outcomes = set()
        for order in itertools.permutations([e_rm, e_add]):
            st_ = s0
            for e in order:
                st_ = apply_effect(st_, e)
            outcomes.add(value_of(st_))
        assert outcomes == {frozenset({"X"})}

    def test_observing_remove_removes(self):
        s = new_state(CrdtType.AW_SET)
        s = apply_effect(s, prepare(AWSET, s, ("add", "X"), tag(1)))
        s = apply_effect(s, prepare(AWSET, s, ("remove", "X"), tag(2)))
        assert value_of(s) == frozenset()

    def test_remove_of_absent_element_is_noop(self):
        s = new_state(CrdtType.AW_SET)
        e = prepare(AWSET, s, ("remove", "Z"), tag(1))
        assert e.deps == ()
        assert value_of(apply_effect(s, e)) == frozenset()


class TestCmap:
    def test_nested_updates(self):
        s = new_state(CrdtType.CMAP)
        e = prepare(CMAP, s, ("entry", "wall", CrdtType.AW_SET, ("add", "p1")), tag(1))
        s = apply_effect(s, e)
        assert value_of(s) == {("wall", CrdtType.AW_SET): frozenset({"p1"})}

    def test_concurrent_creation_merges_recursively(self):
        s = new_state(CrdtType.CMAP)
        e1 = prepare(CMAP, s, ("entry", "wall", CrdtType.AW_SET, ("add", "p1")), tag(1, "c1"))
        e2 = prepare(CMAP, s, ("entry", "wall", CrdtType.AW_SET, ("add", "p2")), tag(1, "c2"))
        for first, second in [(e1, e2), (e2, e1)]:
            got = value_of(apply_effect(apply_effect(s, first), second))
            assert got == {("wall", CrdtType.AW_SET): frozenset({"p1", "p2"})}

    def test_same_name_different_type_distinct(self):
        s = new_state(CrdtType.CMAP)
        s = apply_effect(
            s, prepare(CMAP, s, ("entry", "x", CrdtType.COUNTER, ("inc", 3)), tag(1))
        )
        s = apply_effect(
            s, prepare(CMAP, s, ("entry", "x", CrdtType.LWW_REGISTER, ("assign", "v")), tag(2))
        )
        assert value_of(s) == {
            ("x", CrdtType.COUNTER): 3,
            ("x", CrdtType.LWW_REGISTER): "v",
        }


class TestErrors:
    def test_prepare_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            prepare(COUNTER, new_state(CrdtType.AW_SET), ("inc", 1), tag(1))

    def test_wrong_intent_for_type(self):
        with pytest.raises(TypeMismatch):
            prepare(COUNTER, new_state(CrdtType.COUNTER), ("add", "x"), tag(1))

    def test_apply_type_mismatch(self):
        e = prepare(COUNTER, new_state(CrdtType.COUNTER), ("inc", 1), tag(1))
        with pytest.raises(TypeMismatch):
            apply_effect(new_state(CrdtType.AW_SET), e)


@pytest.mark.parametrize("crdt_type", ALL_TYPES)
def test_concurrent_effects_commute(crdt_type):
    rng = random.Random(f"commute/{crdt_type}")
    for _ in range(300):
        base, line_a, line_b = concurrent_scenario(rng, crdt_type)
        ab = base
        for e in line_a + line_b:
            ab = apply_effect(ab, e)
        ba = base
        for e in line_b + line_a:
            ba = apply_effect(ba, e)
        assert ab == ba


@pytest.mark.parametrize("crdt_type", ALL_TYPES)
def test_any_interleaving_converges(crdt_type):
    rng = random.Random(f"interleave/{crdt_type}")
    for _ in range(100):
        base, line_a, line_b = concurrent_scenario(rng, crdt_type)
        effects = line_a + line_b
        reference = None
        for _ in range(4):
            order = effects[:]
            rng.shuffle(order)
            s = base
            for e in order:
                s = apply_effect(s, e)
            if reference is None:
                reference = s
            assert s == reference


@pytest.mark.parametrize("crdt_type", ALL_TYPES)
def test_wire_round_trip(crdt_type):
    rng = random.Random(f"wire/{crdt_type}")
    obj = ObjectId("o", crdt_type)
    tags = TagSource()
    state, effects = evolve(obj, new_state(crdt_type), rng, tags, "w", 8)
    assert state_from_wire(state_to_wire(state)) == state
    for e in effects:
        assert effect_from_wire(effect_to_wire(e)) == e
    # canonical value form is JSON compatible
    json.dumps(value_to_wire(state))


def state_to_bytes(state) -> bytes:
    """Canonical byte form: self-describing type tag plus payload."""
    return json.dumps(state_to_wire(state), sort_keys=True, separators=(",", ":")).encode()


def state_from_bytes(data: bytes):
    return state_from_wire(json.loads(data.decode()))


def effect_to_bytes(effect) -> bytes:
    return json.dumps(effect_to_wire(effect), sort_keys=True, separators=(",", ":")).encode()


def effect_from_bytes(data: bytes):
    return effect_from_wire(json.loads(data.decode()))


@pytest.mark.parametrize("crdt_type", ALL_TYPES)
def test_byte_serialization_is_canonical(crdt_type):
    rng = random.Random(f"bytes/{crdt_type}")
    obj = ObjectId("o", crdt_type)
    tags = TagSource()
    state, effects = evolve(obj, new_state(crdt_type), rng, tags, "w", 6)
    blob = state_to_bytes(state)
    assert state_from_bytes(blob) == state
    assert state_to_bytes(state_from_bytes(blob)) == blob
    for e in effects:
        assert effect_from_bytes(effect_to_bytes(e)) == e


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_commutes_under_hypothesis_seeds(seed):
    rng = random.Random(seed)
    crdt_type = rng.choice(ALL_TYPES)
    base, line_a, line_b = concurrent_scenario(rng, crdt_type)
    ab = base
    for e in line_a + line_b:
        ab = apply_effect(ab, e)
    ba = base
    for e in line_b + line_a:
        ba = apply_effect(ba, e)
    assert ab == ba


class TestEffectTag:
    TAGS = [tag(2, "a"), tag(1, "b", 3), tag(1, "b"), tag(1, "a", 9), tag(10, "a")]

    def test_fields_cannot_be_assigned(self):
        t = tag(1, "s0", 2)
        with pytest.raises(AttributeError):
            t.counter = 5
        with pytest.raises(AttributeError):
            t.note = "x"
        assert t == tag(1, "s0", 2)

    def test_hash_and_order_follow_the_field_tuple(self):
        fields = [(t.counter, t.origin, t.seq) for t in self.TAGS]
        assert [hash(t) for t in self.TAGS] == [hash(f) for f in fields]
        assert [(t.counter, t.origin, t.seq) for t in sorted(self.TAGS)] == sorted(fields)
        assert tag(1, "b", 3) < tag(2, "a") and tag(1, "a", 9) < tag(1, "b")

    def test_otid_drops_the_sequence(self):
        assert tag(3, "s1", 2).otid == Otid(3, "s1")

    def test_never_equals_an_otid(self):
        for t in self.TAGS:
            assert t != t.otid and t.otid != t
            assert t.otid not in set(self.TAGS)

    def test_repr(self):
        assert repr(tag(1, "s0", 2)) == "EffectTag(counter=1, origin='s0', seq=2)"

    def test_decoded_tags_are_effect_tags(self):
        empty = new_state(CrdtType.MV_REGISTER)
        state = apply_effect(empty, prepare(MV, empty, ("assign", 1), tag(4, "s2", 1)))
        (decoded,) = state_from_wire(state_to_wire(state)).candidates
        assert type(decoded) is EffectTag and decoded.otid == Otid(4, "s2")
        effect = effect_from_wire(effect_to_wire(prepare(MV, state, ("assign", 2), tag(5, "s2"))))
        assert type(effect.tag) is EffectTag
        assert [type(d) for d in effect.deps] == [EffectTag]
        with pytest.raises(TypeError):
            state_from_wire({"t": "mv", "candidates": [[[4, "s2"], 1]], "overwritten": []})


# the frozen dataclass `ObjectId` was before it became a named tuple: hash,
# order and repr must not change, or the traces would
OldObjectId = make_dataclass(
    "ObjectId", [("key", str), ("crdt_type", CrdtType)], frozen=True, order=True
)
OBJECT_FIELDS = [
    ("user:B", CrdtType.CMAP), ("user:A", CrdtType.CMAP), ("ctr:10", CrdtType.COUNTER),
    ("ctr:9", CrdtType.COUNTER), ("ctr:9", CrdtType.AW_SET), ("r", CrdtType.LWW_REGISTER),
    ("r", CrdtType.MV_REGISTER), ("", CrdtType.COUNTER),
]


class TestObjectId:
    def test_hash_is_the_field_tuples_and_the_dataclasses(self):
        for f in OBJECT_FIELDS:
            obj = ObjectId(*f)
            assert hash(obj) == hash(tuple(obj)) == hash(f) == hash(OldObjectId(*f))

    def test_sorted_order_and_repr_are_the_dataclasses(self):
        assert [tuple(o) for o in sorted(ObjectId(*f) for f in OBJECT_FIELDS)] == [
            (o.key, o.crdt_type) for o in sorted(OldObjectId(*f) for f in OBJECT_FIELDS)
        ]
        for f in OBJECT_FIELDS:
            assert repr(ObjectId(*f)) == repr(OldObjectId(*f))
        assert repr(COUNTER) == "ObjectId(key='n', crdt_type=<CrdtType.COUNTER: 'counter'>)"

    def test_set_iteration_order_is_the_dataclasses(self):
        assert [tuple(o) for o in {ObjectId(*f) for f in OBJECT_FIELDS}] == [
            (o.key, o.crdt_type) for o in {OldObjectId(*f) for f in OBJECT_FIELDS}
        ]

    def test_same_key_other_type_is_another_object(self):
        assert ObjectId("k", CrdtType.COUNTER) != ObjectId("k", CrdtType.AW_SET)
        assert len({ObjectId(*f) for f in OBJECT_FIELDS}) == len(OBJECT_FIELDS)

    def test_never_equals_a_transaction_id(self):
        objs = [ObjectId(*f) for f in OBJECT_FIELDS]
        ids = [Otid(1, "ctr:9"), Otid(0, ""), Gtid(1, 0), tag(1, "user:A")]
        assert all(o != i and i != o for o in objs for i in ids)
        assert not set(objs) & set(ids)

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            COUNTER.key = "m"
        assert COUNTER == ObjectId("n", CrdtType.COUNTER) == ("n", CrdtType.COUNTER)
