"""Identifiers and vector-clock machinery for the replication protocol.

A run has a fixed set of data centres, indexed densely from 0. Each DC
summarises the transactions it has processed with a version vector; a
client-side scout extends that vector with one extra counter for its own
locally-committed transactions. Transactions carry two identities: an
origin id (OTID) assigned by the scout, which is globally unique, and one
or more global ids (GTID) assigned sequentially by DC sequencers, which
are compact enough to live in dependency vectors.

Every value type here is a tuple, since the simulator builds, compares and
hashes them on every message: `Otid`, `Gtid` and `CausalClock` are named
tuples, as are `crdt.ObjectId` and `crdt.EffectTag`, and `VersionVector` is
a tuple of its entries. A named tuple's hash is the hash of its field
tuple, which is what the frozen dataclasses `Otid` and `Gtid` computed, so
set and dict iteration order, and with it every trace, is unchanged; so
are their order and repr. No set holds vectors or clocks, so theirs do not
matter to a trace. Vectors and clocks are partially ordered: `<=` is
`leq`, and `<`, `>` and `>=` raise TypeError. No two of these types are
equal to each other, though an id or a clock equals a plain tuple of its
fields.

Each value type here has one JSON wire form, written and read only by the
`*_to_wire` / `*_from_wire` pair at the end of this module.
"""

from __future__ import annotations

from operator import le
from typing import NamedTuple, Sequence

DcId = int
ScoutId = str

_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__
_tuple_new = tuple.__new__


class Otid(NamedTuple):
    """Client-assigned transaction identifier, unique per run.

    Hash and order are those of the field tuple. Like any tuple it equals
    a plain tuple of the same fields, but never a `Gtid` (whose origin is
    an int) or a `crdt.EffectTag` (three fields)."""

    counter: int
    origin: ScoutId


class Gtid(NamedTuple):
    """DC-assigned transaction identifier; counters are gapless per DC.

    Hash and order are those of the field tuple. Like any tuple it equals
    a plain tuple of the same fields, but never an `Otid`, nor a 2-DC
    `VersionVector` with the same two numbers."""

    counter: int
    origin: DcId

    def __eq__(self, other):
        return type(other) is not VersionVector and _tuple_eq(self, other)

    def __ne__(self, other):
        return type(other) is VersionVector or _tuple_ne(self, other)

    __hash__ = tuple.__hash__


class DomainError(ValueError):
    """Vector operands with mismatched DC domains, or an unknown DC index."""


def _domains_differ(a: tuple, b: tuple) -> DomainError:
    return DomainError(f"vector domains differ: {len(a)} vs {len(b)}")


def _unordered(op: str):
    """A comparison that raises: vectors and clocks have `<=` only."""

    def compare(self, other):
        raise TypeError(f"{op!r} is not defined for {type(self).__name__}: use <= (leq)")

    return compare


class VersionVector(tuple):
    """One counter per DC: entry i counts DC i's transactions included.

    A tuple of the entries: it indexes, iterates and hashes as one. It
    equals only a vector with the same entries, never a plain tuple or an
    id."""

    __slots__ = ()

    @classmethod
    def zero(cls, num_dcs: int) -> "VersionVector":
        return cls((0,) * num_dcs)

    def leq(self, other: "VersionVector") -> bool:
        """Partial order: true iff every entry of self <= the other's."""
        if len(self) != len(other):
            raise _domains_differ(self, other)
        return all(map(le, self, other))

    __le__ = leq
    __lt__, __gt__, __ge__ = _unordered("<"), _unordered(">"), _unordered(">=")

    def __eq__(self, other):
        return type(other) is VersionVector and _tuple_eq(self, other)

    def __ne__(self, other):
        return type(other) is not VersionVector or _tuple_ne(self, other)

    __hash__ = tuple.__hash__

    def join(self, other: "VersionVector") -> "VersionVector":
        """Least upper bound: component-wise maximum."""
        if len(self) != len(other):
            raise _domains_differ(self, other)
        return VersionVector(map(max, self, other))

    def meet(self, other: "VersionVector") -> "VersionVector":
        """Component-wise minimum (used for the prune frontier)."""
        if len(self) != len(other):
            raise _domains_differ(self, other)
        return VersionVector(map(min, self, other))

    def covers(self, gtid: Gtid) -> bool:
        """True iff the transaction with this GTID is in the summarised set."""
        if not 0 <= gtid.origin < len(self):
            raise DomainError(f"unknown DC index {gtid.origin}")
        return self[gtid.origin] >= gtid.counter

    def __repr__(self) -> str:
        return f"VersionVector({tuple(self)!r})"

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self)) + "]"


def k_stable_vector(known: Sequence[VersionVector], k: int) -> VersionVector:
    """Summarise the transactions known durable at >= k replicas.

    ``known`` holds the last-known version vector of every DC (including
    the caller's own). Per component the k-th largest value is taken, so
    any GTID covered by the result is covered by at least k of the inputs.
    """
    if not known:
        raise DomainError("k_stable_vector needs at least one vector")
    if not 1 <= k <= len(known):
        raise DomainError(f"k={k} out of range for {len(known)} vectors")
    for v in known[1:]:
        if len(v) != len(known[0]):
            raise _domains_differ(known[0], v)
    return VersionVector(sorted(column, reverse=True)[k - 1] for column in zip(*known))


class CausalClock(NamedTuple):
    """A version vector plus one scout-local commit counter.

    The DC part summarises globally-committed transactions; the local
    part counts the owning scout's committed transactions that may not be
    globally visible yet. Local parts are only comparable between clocks
    of the same scout.
    """

    dc_part: VersionVector
    local_part: int

    @classmethod
    def zero(cls, num_dcs: int) -> "CausalClock":
        return cls(VersionVector.zero(num_dcs), 0)

    def leq(self, other: "CausalClock") -> bool:
        return self.dc_part.leq(other.dc_part) and self.local_part <= other.local_part

    __le__ = leq
    __lt__, __gt__, __ge__ = _unordered("<"), _unordered(">"), _unordered(">=")

    def with_dc_part(self, v: VersionVector) -> "CausalClock":
        return CausalClock(v, self.local_part)

    def with_local(self, local: int) -> "CausalClock":
        return CausalClock(self.dc_part, local)

    def __str__(self) -> str:
        return f"[{','.join(map(str, self.dc_part))}|{self.local_part}]"


# ---------------------------------------------------------------------------
# wire forms: the one place that spells out these JSON lists. The decoders
# build named tuples with `tuple.__new__`, which skips their Python
# `__new__`: they run for every id and clock a message carries
# ---------------------------------------------------------------------------


def otid_to_wire(o: Otid) -> list:
    return [o.counter, o.origin]


def otid_from_wire(w) -> Otid:
    return _tuple_new(Otid, (w[0], w[1]))


def gtid_to_wire(g: Gtid) -> list:
    return [g.counter, g.origin]


def gtid_from_wire(w) -> Gtid:
    return _tuple_new(Gtid, (w[0], w[1]))


# a vector's wire form is the list of its entries; both directions are
# C calls, with no frame of their own
vector_to_wire = list
vector_from_wire = VersionVector


def clock_to_wire(c: CausalClock) -> list:
    return [list(c.dc_part), c.local_part]


def clock_from_wire(w) -> CausalClock:
    return _tuple_new(CausalClock, (VersionVector(w[0]), w[1]))
