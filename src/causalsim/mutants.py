"""Negative controls: mutated protocols that the checker must flag.

Each mutation breaks a guarantee the checker verifies, and a pinned run
shows that some check catches it. The protocol classes know none of them.
`SimConfig.mutations` names the mutations of a run, and `compose` gives
that run its node classes, each the core class under the mutations'
mixins, and the hooks that change the simulation itself.

`MUTATIONS` is the one table of them, by name:

- `disable_dedup`: a DC logs and applies a re-sent commit again
  (`exactly_once`).
- `disable_k_gating`: a DC announces, serves and opens sessions at what it
  has applied, durable at K DCs or not (`causal_snapshots`). Its scouts
  must take what it sends, so they are unguarded.
- `disable_guards`: an unguarded scout, which takes a notify batch at any
  base.
- `reorder_session`: one notify batch to `s0` that moves its frontier is
  delivered 120 ms late, after its successors (`session_guarantees`). Its
  scouts are unguarded too: a guarded scout stops the run at the
  reordered batch.

To add a mutant, write one mixin that overrides one core method (extract a
small predicate from the core method when the change is in its middle),
add its row to `MUTATIONS`, and pin a run that switches it on in
`tests/test_pins.py` with the check that must flag it.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, NamedTuple

from causalsim.clocks import VersionVector
from causalsim.crdt import apply_effect

# how late the reordered notify batch arrives
REORDER_DELAY_MS = 120


class DedupOff:
    """Every commit request is new: the duplicate filter is gone."""

    def _is_duplicate(self, scout, otid) -> bool:
        return False


class KGatingOff:
    """A DC treats what it has applied as K-durable."""

    def announceable_frontier(self) -> VersionVector:
        return self.vdc

    def _fetch_ready(self, msg) -> bool:
        return True  # serve whatever is local, never wait

    def _session_eligible(self, dc_part) -> bool:
        return True

    def _may_announce(self, base, target) -> bool:
        return True  # a non-monotonic frontier is announced too


class UnguardedScout:
    """A scout that takes every notify batch. Every entry keeps the frontier
    it is at in `at`, even at the clock. A batch applies its effects to every
    valid entry, then moves the valid entries at its base to its frontier. A
    valid entry is read at any clock."""

    def _place(self, obj, entry, at) -> None:
        entry.at = at

    def _readable(self, entry) -> bool:
        return entry.state is not None

    def _apply_notify(self, env, batch) -> None:
        for kind, payload in batch.items:
            if kind == "effects":
                for effect in payload:
                    entry = self.cache.get(effect.target)
                    if effect.tag.origin == self.id or entry is None or entry.state is None:
                        continue
                    self._stash_protect(effect.target)
                    entry.state = apply_effect(entry.state, effect)
            else:
                for obj in payload:
                    entry = self.cache.get(obj)
                    if entry is not None:
                        self._stash_protect(obj)
                        entry.state = None
        for entry in self.cache.values():
            if entry.state is not None and entry.at == batch.prev:
                entry.at = batch.frontier
        self.clock = self.clock.with_dc_part(batch.frontier)
        self._take_acks(env, batch)


def hold_one_notify(sim) -> None:
    """Deliver the first frontier-moving notify batch to `s0` late, after
    its successors on the link, so FIFO breaks once. The simulation's
    `schedule` is shadowed until that batch is scheduled; the shadow holds
    the simulation weakly, so the run makes no reference cycle."""
    ref = weakref.ref(sim)

    def schedule(at: int, kind: str, payload) -> None:
        sim = ref()
        if kind == "deliver":
            _, dst, wire = payload
            if dst == "s0" and wire["m"] == "notify" and wire["frontier"] != wire["prev"]:
                at += REORDER_DELAY_MS
                del sim.schedule
        type(sim).schedule(sim, at, kind, payload)

    sim.schedule = schedule


class Mutant(NamedTuple):
    dc: tuple[type, ...] = ()  # DataCenter mixins
    scout: tuple[type, ...] = ()  # Scout mixins
    hook: Callable | None = None  # called with the simulation once it is built


MUTATIONS = {
    "disable_dedup": Mutant(dc=(DedupOff,)),
    "disable_k_gating": Mutant(dc=(KGatingOff,), scout=(UnguardedScout,)),
    "disable_guards": Mutant(scout=(UnguardedScout,)),
    "reorder_session": Mutant(scout=(UnguardedScout,), hook=hold_one_notify),
}


def compose(mutations, dc_base: type, scout_base: type) -> tuple[type, type, tuple]:
    """The DC class, the scout class and the simulation hooks of a run with
    `mutations`, over the core classes `dc_base` and `scout_base`."""
    return _compose(frozenset(mutations), dc_base, scout_base)


# a class made per run would be cyclic garbage when the run ends, so each
# set of mutations gets its classes once
@functools.lru_cache(maxsize=None)
def _compose(names: frozenset, dc_base: type, scout_base: type) -> tuple[type, type, tuple]:
    picked = [name for name in MUTATIONS if name in names]  # in table order
    rows = [MUTATIONS[name] for name in picked]

    def mixed(base: type, mixins: list[type]) -> type:
        if not mixins:
            return base
        bases = (*dict.fromkeys(mixins), base)  # a shared mixin appears once
        return type(f"{base.__name__}[{','.join(picked)}]", bases, {})

    return (
        mixed(dc_base, [m for row in rows for m in row.dc]),
        mixed(scout_base, [m for row in rows for m in row.scout]),
        tuple(row.hook for row in rows if row.hook),
    )
