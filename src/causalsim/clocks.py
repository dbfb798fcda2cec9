"""Identifiers and vector-clock machinery for the replication protocol.

A run has a fixed set of data centres, indexed densely from 0. Each DC
summarises the transactions it has processed with a version vector; a
client-side scout extends that vector with one extra counter for its own
locally-committed transactions. Transactions carry two identities: an
origin id (OTID) assigned by the scout, which is globally unique, and one
or more global ids (GTID) assigned sequentially by DC sequencers, which
are compact enough to live in dependency vectors.

`Otid` and `Gtid` are named tuples, as are `crdt.ObjectId` and
`crdt.EffectTag`: the simulator builds and hashes them on every message.
A named tuple's hash is the hash of its field tuple, which is what the
frozen dataclasses they replaced computed, so set and dict iteration
order, and with it every trace, is unchanged; so are their order and repr.

Each value type here has one JSON wire form, written and read only by the
`*_to_wire` / `*_from_wire` pair at the end of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import NamedTuple, Sequence

DcId = int
ScoutId = str


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
    a plain tuple of the same fields, but never an `Otid`."""

    counter: int
    origin: DcId


class DomainError(ValueError):
    """Vector operands with mismatched DC domains, or an unknown DC index."""


def _domains_differ(a: tuple, b: tuple) -> DomainError:
    return DomainError(f"vector domains differ: {len(a)} vs {len(b)}")


@dataclass(frozen=True)
class VersionVector:
    """One counter per DC: entry i counts DC i's transactions included."""

    entries: tuple[int, ...]

    @classmethod
    def zero(cls, num_dcs: int) -> "VersionVector":
        return cls((0,) * num_dcs)

    def _check_domain(self, other: "VersionVector") -> None:
        if len(self.entries) != len(other.entries):
            raise _domains_differ(self.entries, other.entries)

    def leq(self, other: "VersionVector") -> bool:
        """Partial order: true iff every entry of self <= the other's."""
        a, b = self.entries, other.entries
        if len(a) != len(b):
            raise _domains_differ(a, b)
        return all(map(le, a, b))

    __le__ = leq

    def join(self, other: "VersionVector") -> "VersionVector":
        """Least upper bound: component-wise maximum."""
        a, b = self.entries, other.entries
        if len(a) != len(b):
            raise _domains_differ(a, b)
        return VersionVector(tuple(map(max, a, b)))

    def meet(self, other: "VersionVector") -> "VersionVector":
        """Component-wise minimum (used for the prune frontier)."""
        a, b = self.entries, other.entries
        if len(a) != len(b):
            raise _domains_differ(a, b)
        return VersionVector(tuple(map(min, a, b)))

    def covers(self, gtid: Gtid) -> bool:
        """True iff the transaction with this GTID is in the summarised set."""
        if not 0 <= gtid.origin < len(self.entries):
            raise DomainError(f"unknown DC index {gtid.origin}")
        return self.entries[gtid.origin] >= gtid.counter

    def __getitem__(self, dc: DcId) -> int:
        return self.entries[dc]

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self.entries) + "]"


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
    n = len(known[0])
    for v in known[1:]:
        known[0]._check_domain(v)
    out = []
    for i in range(n):
        column = sorted((v.entries[i] for v in known), reverse=True)
        out.append(column[k - 1])
    return VersionVector(tuple(out))


@dataclass(frozen=True)
class CausalClock:
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

    def with_dc_part(self, v: VersionVector) -> "CausalClock":
        return CausalClock(v, self.local_part)

    def with_local(self, local: int) -> "CausalClock":
        return CausalClock(self.dc_part, local)

    def __str__(self) -> str:
        inner = ",".join(str(c) for c in self.dc_part.entries)
        return f"[{inner}|{self.local_part}]"


# ---------------------------------------------------------------------------
# wire forms: the one place that spells out these JSON lists
# ---------------------------------------------------------------------------


def otid_to_wire(o: Otid) -> list:
    return [o.counter, o.origin]


def otid_from_wire(w) -> Otid:
    return Otid(w[0], w[1])


def gtid_to_wire(g: Gtid) -> list:
    return [g.counter, g.origin]


def gtid_from_wire(w) -> Gtid:
    return Gtid(w[0], w[1])


def vector_to_wire(v: VersionVector) -> list:
    return list(v.entries)


def vector_from_wire(w) -> VersionVector:
    return VersionVector(tuple(w))


def clock_to_wire(c: CausalClock) -> list:
    return [list(c.dc_part.entries), c.local_part]


def clock_from_wire(w) -> CausalClock:
    return CausalClock(VersionVector(tuple(w[0])), w[1])
