import functools
from dataclasses import make_dataclass

import pytest
from hypothesis import given, strategies as st

from causalsim.clocks import (
    CausalClock,
    DomainError,
    Gtid,
    Otid,
    VersionVector,
    k_stable_vector,
)
from causalsim.crdt import EffectTag


def vv(*entries):
    return VersionVector(tuple(entries))


vectors = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=8)] * n),
        min_size=1,
        max_size=4,
    ).map(lambda rows: [VersionVector(r) for r in rows])
)

pairs = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=8)] * n),
        st.tuples(*[st.integers(min_value=0, max_value=8)] * n),
        st.tuples(*[st.integers(min_value=0, max_value=8)] * n),
    ).map(lambda t: tuple(VersionVector(r) for r in t))
)


def brute_k_stable(known, k):
    """Independent oracle: per component, the largest value covered by >= k inputs."""
    n = len(known[0])
    out = []
    for i in range(n):
        best = 0
        for candidate in range(0, max(v[i] for v in known) + 1):
            if sum(1 for v in known if v[i] >= candidate) >= k:
                best = candidate
        out.append(best)
    return VersionVector(tuple(out))


class TestLeq:
    def test_zero_below_everything(self):
        assert vv(0, 0).leq(vv(1, 0))

    def test_incomparable_both_ways(self):
        assert not vv(2, 0).leq(vv(1, 3))
        assert not vv(1, 3).leq(vv(2, 0))

    def test_reflexive(self):
        assert vv(2, 0).leq(vv(2, 0))

    def test_domain_mismatch(self):
        with pytest.raises(DomainError):
            vv(1, 2).leq(vv(1, 2, 3))

    @given(pairs)
    def test_partial_order_laws(self, vs):
        a, b, c = vs
        assert a.leq(a)
        if a.leq(b) and b.leq(a):
            assert a == b
        if a.leq(b) and b.leq(c):
            assert a.leq(c)


class TestJoin:
    def test_componentwise_max(self):
        assert vv(2, 0).join(vv(1, 3)) == vv(2, 3)

    def test_identity_and_idempotence(self):
        v = vv(4, 1, 7)
        assert v.join(VersionVector.zero(3)) == v
        assert v.join(v) == v

    @given(pairs)
    def test_lattice_laws(self, vs):
        a, b, c = vs
        assert a.join(b) == b.join(a)
        assert a.join(b).join(c) == a.join(b.join(c))
        # least upper bound: any u above a and b is above join(a, b)
        j = a.join(b)
        assert a.leq(j) and b.leq(j)
        u = j.join(c)
        if a.leq(u) and b.leq(u):
            assert j.leq(u)


class TestMeet:
    def test_componentwise_min(self):
        assert vv(2, 0, 5).meet(vv(1, 3, 5)) == vv(1, 0, 5)

    @given(pairs)
    def test_meet_is_a_lower_bound_and_absorbs(self, vs):
        a, b, _ = vs
        m = a.meet(b)
        assert m.leq(a) and m.leq(b) and a.meet(b) == b.meet(a)
        assert m.join(a) == a


class TestDomains:
    @pytest.mark.parametrize("op", ["leq", "join", "meet"])
    def test_mismatched_domains_raise_either_way(self, op):
        short, long = vv(1, 2), vv(1, 2, 3)
        with pytest.raises(DomainError, match="2 vs 3"):
            getattr(short, op)(long)
        with pytest.raises(DomainError, match="3 vs 2"):
            getattr(long, op)(short)

    def test_an_empty_vector_is_a_domain_of_its_own(self):
        empty = VersionVector.zero(0)
        assert empty.leq(empty) and empty.join(empty) == empty == empty.meet(empty)
        with pytest.raises(DomainError):
            empty.join(vv(0))
        with pytest.raises(DomainError):
            vv(0).meet(empty)


class TestCovers:
    def test_running_example(self):
        # the second commit at DC0 is summarised by [2,0]
        assert vv(2, 0).covers(Gtid(2, 0))

    def test_counter_beyond_entry(self):
        assert not vv(2, 0).covers(Gtid(3, 0))

    def test_zero_entry(self):
        assert not vv(2, 0).covers(Gtid(1, 1))

    def test_unknown_origin(self):
        with pytest.raises(DomainError):
            vv(2, 0).covers(Gtid(1, 5))


class TestKStable:
    def test_derived_example(self):
        known = [vv(3, 1), vv(2, 2), vv(2, 0)]
        assert brute_k_stable(known, 2) == vv(2, 1)
        assert k_stable_vector(known, 2) == vv(2, 1)

    def test_k1_is_max(self):
        known = [vv(3, 1), vv(2, 2), vv(2, 0)]
        assert k_stable_vector(known, 1) == functools.reduce(VersionVector.join, known)

    def test_all_equal(self):
        v = vv(5, 2, 9)
        assert k_stable_vector([v, v, v], 3) == v

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            k_stable_vector([vv(1, 1)], 2)
        with pytest.raises(DomainError):
            k_stable_vector([vv(1, 1)], 0)

    @given(vectors, st.integers(min_value=1, max_value=4))
    def test_matches_brute_force(self, known, k):
        if k > len(known):
            return
        assert k_stable_vector(known, k) == brute_k_stable(known, k)

    @given(vectors)
    def test_decreasing_in_k(self, known):
        for k in range(2, len(known) + 1):
            assert k_stable_vector(known, k).leq(k_stable_vector(known, k - 1))

    @given(vectors, st.integers(min_value=1, max_value=4))
    def test_monotone_in_inputs(self, known, k):
        if k > len(known):
            return
        grown = [VersionVector(c + 1 for c in v) for v in known]
        assert k_stable_vector(known, k).leq(k_stable_vector(grown, k))

    @given(vectors, st.integers(min_value=1, max_value=4))
    def test_covered_gtid_is_k_durable(self, known, k):
        if k > len(known):
            return
        stable = k_stable_vector(known, k)
        for dc in range(len(stable)):
            for counter in range(1, stable[dc] + 1):
                g = Gtid(counter, dc)
                assert sum(1 for v in known if v.covers(g)) >= k


class TestCausalClock:
    def test_rendering(self):
        assert str(CausalClock(vv(0, 0), 1)) == "[0,0|1]"
        assert str(CausalClock.zero(3)) == "[0,0,0|0]"

    def test_leq_uses_both_parts(self):
        a = CausalClock(vv(1, 0), 2)
        b = CausalClock(vv(1, 1), 2)
        assert a.leq(b)
        assert not b.leq(a)
        assert not CausalClock(vv(1, 0), 3).leq(b)

    def test_identifier_ordering(self):
        assert Otid(1, "c") < Otid(2, "c")
        assert Gtid(1, 0) < Gtid(2, 0)


# the frozen dataclasses `Otid` and `Gtid` were before they became named
# tuples: hash, order and repr must not change, or the traces would
OldOtid = make_dataclass("Otid", [("counter", int), ("origin", str)], frozen=True, order=True)
OldGtid = make_dataclass("Gtid", [("counter", int), ("origin", int)], frozen=True, order=True)
IDS = [
    (Otid, OldOtid, [(2, "s1"), (1, "s10"), (1, "s2"), (10, "s0"), (1, "s1"), (0, "")]),
    (Gtid, OldGtid, [(2, 0), (1, 2), (1, 0), (10, 1), (3, 1), (0, 0)]),
]


class TestIdentifiers:
    @pytest.mark.parametrize("new, old, fields", IDS)
    def test_hash_is_the_field_tuples_and_the_dataclasses(self, new, old, fields):
        for f in fields:
            assert hash(new(*f)) == hash(f) == hash(old(*f))
            assert hash(tuple(new(*f))) == hash(new(*f))

    @pytest.mark.parametrize("new, old, fields", IDS)
    def test_sorted_order_and_repr_are_the_dataclasses(self, new, old, fields):
        assert [tuple(x) for x in sorted(new(*f) for f in fields)] == [
            (x.counter, x.origin) for x in sorted(old(*f) for f in fields)
        ]
        for f in fields:
            assert repr(new(*f)) == repr(old(*f)) == str(new(*f))

    @pytest.mark.parametrize("new, old, fields", IDS)
    def test_set_iteration_order_is_the_dataclasses(self, new, old, fields):
        # equal hashes and insertion order give equal iteration order
        assert [tuple(x) for x in {new(*f) for f in fields}] == [
            (x.counter, x.origin) for x in {old(*f) for f in fields}
        ]

    def test_fields_cannot_be_assigned(self):
        otid = Otid(1, "s0")
        with pytest.raises(AttributeError):
            otid.counter = 2
        with pytest.raises(AttributeError):
            otid.note = "x"

    def test_an_otid_never_equals_a_gtid_or_an_effect_tag(self):
        otids = [Otid(c, f"s{o}") for c in range(3) for o in range(3)]
        others = [Gtid(c, o) for c in range(3) for o in range(3)]
        others += [EffectTag(o.counter, o.origin, s) for o in otids for s in range(2)]
        for otid in otids:
            assert all(otid != x and x != otid for x in others)
        assert not set(otids) & set(others)
        assert len(set(otids) | set(others)) == len(otids) + len(others)

    def test_equal_to_a_plain_tuple_of_its_fields(self):
        assert Otid(1, "s0") == (1, "s0") and Gtid(1, 0) == (1, 0)


# values of every clock and id type whose fields could line up: 2-DC
# vectors, Gtids and Otids over the same small numbers, and clocks over them
SMALL = st.integers(0, 2)
ANY_VALUE = st.one_of(
    st.tuples(SMALL, SMALL).map(VersionVector),
    st.tuples(SMALL).map(VersionVector),
    st.builds(CausalClock, st.tuples(SMALL, SMALL).map(VersionVector), SMALL),
    st.builds(Gtid, SMALL, SMALL),
    st.builds(Otid, SMALL, SMALL.map(str)),
)


class TestVectorAndClockSemantics:
    def test_k_stable_vector_refuses_mismatched_domains(self):
        with pytest.raises(DomainError, match="2 vs 3"):
            k_stable_vector([vv(1, 2), vv(1, 2, 3)], 1)
        with pytest.raises(DomainError, match="3 vs 2"):
            k_stable_vector([vv(1, 2, 3), vv(1, 2, 3), vv(1, 2)], 2)

    @pytest.mark.parametrize("origin", [-1, -3, 2, 7])
    def test_covers_refuses_an_origin_outside_the_domain(self, origin):
        with pytest.raises(DomainError, match=f"unknown DC index {origin}"):
            vv(4, 4).covers(Gtid(1, origin))

    @pytest.mark.parametrize("op", ["<", ">", ">="])
    def test_only_leq_orders_vectors_and_clocks(self, op):
        pairs = [
            (vv(1, 2), vv(1, 2)),
            (vv(0, 0), vv(1, 2)),
            (vv(1, 2), (1, 2)),
            (CausalClock(vv(1, 2), 0), CausalClock(vv(1, 2), 1)),
        ]
        for a, b in pairs:
            with pytest.raises(TypeError):
                eval(f"a {op} b")
        assert vv(0, 1) <= vv(1, 1) and not vv(1, 1) <= vv(0, 1)
        assert CausalClock(vv(0, 1), 0) <= CausalClock(vv(0, 1), 1)

    def test_a_vector_equals_only_a_vector(self):
        v = vv(1, 2)
        assert v == vv(1, 2) == VersionVector([1, 2]) and v != vv(2, 1)
        for other in [(1, 2), [1, 2], Gtid(1, 2), Otid(1, "2"), CausalClock(v, 0)]:
            assert not v == other and not other == v
            assert v != other and other != v
        assert len({v, Gtid(1, 2)}) == len({v, (1, 2)}) == 2

    def test_a_clock_equals_a_clock_or_a_plain_tuple_of_its_fields(self):
        c = CausalClock(vv(1, 2), 0)
        assert c == CausalClock(vv(1, 2), 0) == (vv(1, 2), 0)
        assert c != CausalClock(vv(1, 2), 1) and c != CausalClock(vv(1, 1), 0)
        assert c != ((1, 2), 0) and c != (vv(1, 2), 0, 0)

    @given(ANY_VALUE, ANY_VALUE)
    def test_no_equality_across_types(self, a, b):
        if type(a) is not type(b):
            assert a != b and b != a
            assert not a == b and not b == a

    @given(ANY_VALUE, ANY_VALUE)
    def test_hash_is_consistent_with_equality(self, a, b):
        assert (a == b) is (b == a) is (not a != b)
        if a == b:
            assert hash(a) == hash(b)
        # a copy built from the fields equals its original and hashes alike
        copy = type(a)(a) if isinstance(a, VersionVector) else type(a)(*a)
        assert copy == a and hash(copy) == hash(a)

    def test_a_vector_is_a_tuple_of_its_entries(self):
        v = vv(3, 0, 5)
        assert list(v) == [3, 0, 5] and v[2] == 5 and len(v) == 3 and hash(v) == hash((3, 0, 5))
        assert repr(v) == "VersionVector((3, 0, 5))" and str(v) == "[3,0,5]"
        with pytest.raises(AttributeError):
            v.note = "x"
