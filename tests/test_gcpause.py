"""`gc_paused`: the collector is off inside, what the pause allocated leaves
the young generation on exit, and the caller's setting comes back."""

import gc

import pytest

from causalsim.gcpause import gc_paused


@pytest.fixture
def gc_setting():
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def allocate():
    """More young containers than a generation-0 collection waits for."""
    return [[i] for i in range(3 * gc.get_threshold()[0])]


@pytest.mark.parametrize("enabled", [True, False])
def test_exit_promotes_what_the_pause_allocated(enabled, gc_setting):
    (gc.enable if enabled else gc.disable)()
    with gc_paused():
        assert not gc.isenabled()
        kept = allocate()
        assert gc.get_count()[0] >= len(kept)
    assert gc.isenabled() == enabled
    assert gc.get_count()[0] < gc.get_threshold()[0]
    assert gc.get_freeze_count() == 0
    young = {id(o) for o in gc.get_objects(generation=0)}
    assert not any(id(o) in young for o in kept)
    assert any(o is kept for o in gc.get_objects(generation=2))


@pytest.mark.parametrize("enabled", [True, False])
def test_nested_pauses_restore_each_callers_setting(enabled, gc_setting):
    (gc.enable if enabled else gc.disable)()
    with gc_paused():
        with gc_paused():
            inner = allocate()
        assert not gc.isenabled()
        assert gc.get_count()[0] < gc.get_threshold()[0]
        outer = allocate()
    assert gc.isenabled() == enabled
    assert gc.get_count()[0] < gc.get_threshold()[0]
    young = {id(o) for o in gc.get_objects(generation=0)}
    assert not any(id(o) in young for o in inner + outer)


def test_an_exception_still_restores_the_setting(gc_setting):
    gc.enable()
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("x")
    assert gc.isenabled()
