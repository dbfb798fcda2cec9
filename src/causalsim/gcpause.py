"""Pausing the cyclic garbage collector around allocation-heavy work.

A simulation and a check both allocate many long-lived objects and no
cyclic garbage. Left on, the collector would traverse the growing trace,
log and indexes again and again for nothing; reference counting still
frees everything else at once.

Disabling the collector only defers that work: what the pause allocated
stays in the youngest generation, and the first collection after it would
traverse all of it. So a pause ends by promoting instead: `gc.freeze()`
moves every tracked object into the permanent generation and
`gc.unfreeze()` moves them back into the oldest one. Both splice lists
without visiting an object. The promoted objects are traversed again only
by a full collection, which the interpreter runs once objects that
survived younger collections pile up, or on `gc.collect()`; cyclic
garbage made during the pause waits for that.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def gc_paused():
    """Pause cyclic garbage collection, promote what survived it to the
    oldest generation, and restore the caller's setting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.freeze()
        gc.unfreeze()
        if enabled:
            gc.enable()
