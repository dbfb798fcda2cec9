"""Pausing the cyclic garbage collector around allocation-heavy work.

A simulation and a check both allocate many long-lived objects and no
cyclic garbage. Left on, the collector would traverse the growing trace,
log and indexes again and again for nothing; reference counting still
frees everything else at once.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def gc_paused():
    """Pause cyclic garbage collection, restoring the caller's setting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
