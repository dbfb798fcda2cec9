"""The negative controls live in `causalsim.mutants`, not in the core."""

import inspect

import pytest

from causalsim import mutants
from causalsim.dc import DataCenter
from causalsim.scout import Scout
from causalsim.sim import SimConfig
from test_pins import RUNS


def test_the_core_is_free_of_mutations():
    for cls in (DataCenter, Scout):
        assert not set(inspect.signature(cls).parameters) & mutants.MUTATIONS.keys()
    # a row cannot go dead without a pinned control
    pinned = {m for _, overrides, _ in RUNS.values() for m in overrides.get("mutations", ())}
    assert pinned == mutants.MUTATIONS.keys()
    with pytest.raises(ValueError, match="disable_dedupe"):
        SimConfig(mutations=["disable_dedupe"]).validate()


def test_a_set_of_mutations_gets_its_classes_once():
    # classes made per run would be cyclic garbage when the run ends
    first = mutants.compose(["reorder_session", "disable_k_gating"], DataCenter, Scout)
    assert mutants.compose(["disable_k_gating", "reorder_session"], DataCenter, Scout) == first
    dc_class, scout_class, hooks = first
    assert issubclass(dc_class, mutants.KGatingOff) and issubclass(dc_class, DataCenter)
    assert scout_class.__mro__.count(mutants.UnguardedScout) == 1
    assert hooks == (mutants.hold_one_notify,)
    assert mutants.compose([], DataCenter, Scout) == (DataCenter, Scout, ())
