"""Memoized wire forms: an effect or commit record is encoded once, and a
decoded one keeps the dict it came from.

The unit tests show that the memo is invisible to equality, hashing, repr
and ``dataclasses.replace``. The run tests compare every message the
simulator encodes, and every record a DC holds, with the encoding of a copy
that holds no memo, so a stale alias list or a mutated wire dict fails them.
"""

from dataclasses import replace

import pytest

from causalsim import crdt, sim
from causalsim.checker import run_checks
from causalsim.clocks import CausalClock, Gtid, Otid, VersionVector
from causalsim.crdt import (
    AwSetState,
    CmapState,
    CrdtType,
    EffectTag,
    LwwState,
    MvState,
    ObjectId,
    effect_from_bytes,
    effect_from_wire,
    effect_to_bytes,
    effect_to_wire,
    new_state,
    object_from_wire,
    prepare,
)
from causalsim.dc import DataCenter
from causalsim.messages import (
    CommitRecord,
    CommitRequest,
    GossipBatch,
    NotifyBatch,
    record_from_wire,
    record_to_wire,
)
from causalsim.scenarios import build_simulation, load_scenario, sim_config
from causalsim.workload import counter_scripts
from test_dc import REBUILD_FAULTS
from test_pins import CHURN

OTID = Otid(3, "s1")
DEPS = CausalClock(VersionVector((4, 0, 2)), 2)


def tag(seq=0, counter=OTID.counter, origin=OTID.origin):
    return EffectTag(counter, origin, seq)


def effects():
    """One effect of each kind, with and without deps and nested payloads."""
    added = AwSetState({"B": frozenset({tag(0, 1, "s0")})})
    mv = MvState({tag(0, 2, "s2"): "x"})
    return (
        prepare(ObjectId("ctr", CrdtType.COUNTER), new_state(CrdtType.COUNTER), ("inc", 5), tag(0)),
        prepare(ObjectId("set", CrdtType.AW_SET), added, ("add", "C"), tag(1)),
        prepare(ObjectId("set", CrdtType.AW_SET), added, ("remove", "B"), tag(2)),
        prepare(ObjectId("lww", CrdtType.LWW_REGISTER), LwwState("a", 4, "s0"), ("assign", "b"), tag(3)),
        prepare(ObjectId("mv", CrdtType.MV_REGISTER), mv, ("assign", "y"), tag(4)),
        prepare(
            ObjectId("map", CrdtType.CMAP),
            CmapState(),
            ("entry", "name", CrdtType.LWW_REGISTER, ("assign", "A")),
            tag(5),
        ),
    )


def record():
    return CommitRecord(OTID, [Gtid(5, 0)], DEPS, effects(), "s1", [1, "x"])


class TestEffectMemo:
    @pytest.mark.parametrize("i", range(len(effects())))
    def test_eq_hash_and_repr_ignore_the_memo(self, i):
        plain = effects()[i]
        encoded = effects()[i]
        effect_to_wire(encoded)
        decoded = effect_from_wire(effect_to_wire(effects()[i]))
        assert plain.wire is None and encoded.wire is not None and decoded.wire is not None
        for other in (encoded, decoded):
            assert other == plain
            assert hash(other) == hash(plain)
            assert repr(other) == repr(plain)

    def test_encodes_once_and_decoding_keeps_the_dict(self):
        effect = effects()[5]
        wire = effect_to_wire(effect)
        assert effect_to_wire(effect) is wire
        decoded = effect_from_wire(wire)
        assert decoded is not effect and effect_to_wire(decoded) is wire

    def test_replace_drops_the_memo(self):
        effect = effects()[2]
        effect_to_wire(effect)
        copy = replace(effect)
        assert copy == effect and copy.wire is None
        assert replace(effect, kind="add").wire is None

    @pytest.mark.parametrize("i", range(len(effects())))
    def test_bytes_of_a_decoded_effect_equal_the_originals(self, i):
        original = effects()[i]
        data = effect_to_bytes(original)
        assert effect_to_bytes(effect_from_wire(effect_to_wire(original))) == data
        # a decoded dict in another key order gives the same canonical bytes
        assert effect_to_bytes(effect_from_bytes(data)) == data


class TestRecordMemo:
    def test_eq_and_repr_ignore_the_memo(self):
        plain, encoded = record(), record()
        record_to_wire(encoded)
        decoded = record_from_wire(record_to_wire(record()))
        for other in (encoded, decoded):
            assert other.wire is not None
            assert other == plain and repr(other) == repr(plain)
        # records are mutable (their aliases grow), so never hashable
        assert CommitRecord.__hash__ is None

    def test_replace_drops_the_memo(self):
        r = record()
        record_to_wire(r)
        copy = replace(r)
        assert copy == r and copy.wire is None

    def test_aliases_are_encoded_on_every_call(self):
        r = record_from_wire(record_to_wire(record()))
        first = record_to_wire(r)
        r.gtids.append(Gtid(7, 2))
        second = record_to_wire(r)
        assert first["gtids"] == [[5, 0]] and second["gtids"] == [[5, 0], [7, 2]]
        # the fixed fields are the memo's, not copies
        for key in ("otid", "deps", "effects"):
            assert second[key] is first[key]
        assert second == record_to_wire(replace(r, effects=tuple(map(replace, r.effects))))


class TestObjectIds:
    def test_interned_ids_equal_and_hash_like_fresh_ones(self):
        for t in CrdtType:
            fresh = ObjectId("k", t)
            interned = object_from_wire("k", t.value)
            assert interned is object_from_wire("k", t.value)
            assert interned == fresh and hash(interned) == hash(fresh)
            assert interned.crdt_type is t

    def test_unknown_type_raises_and_is_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                object_from_wire("k", "no-such-type")
        assert ("k", "no-such-type") not in crdt._OBJECT_IDS


# -- whole runs ---------------------------------------------------------------


def memo_free(msg):
    """`msg` with copies of its records and effects that hold no wire form."""
    if isinstance(msg, GossipBatch):
        return replace(msg, records=[fresh_record(r) for r in msg.records])
    if isinstance(msg, CommitRequest):
        return replace(msg, effects=tuple(map(replace, msg.effects)))
    if isinstance(msg, NotifyBatch):
        items = [(kind, list(map(replace, p)) if kind == "effects" else p) for kind, p in msg.items]
        return replace(msg, items=items)
    return msg


def fresh_record(r):
    return replace(r, effects=tuple(map(replace, r.effects)))


def tally(params, reader):
    obj = ObjectId(params["obj"], CrdtType.COUNTER)
    return [reader(obj), params["obj"]], [(obj, ("inc", params["n"]))]


def stored_simulation():
    """CHURN's DCs and faults, with every third transaction a stored call
    that reads and increments a tally counter no transaction caches."""
    scripts = counter_scripts(6, 18, 4, seed=1)
    for script in scripts.values():
        for i in range(0, len(script), 3):
            obj, n = script[i]["ops"][0][1], i + 1
            params = {"obj": f"tally:{obj.key}", "n": n}
            script[i] = {"kind": "stored", "name": "tally", "params": params}
    return sim.Simulation(sim_config(CHURN, seed=1), scripts=scripts, procedures={"tally": tally})


# name -> (scenario, sim overrides)
RUNS = {
    "churn-rebuilds": (dict(CHURN, faults=REBUILD_FAULTS), {"prune_ms": 200}),
    "churn-rebuilds-dedup-off": (
        dict(CHURN, faults=REBUILD_FAULTS),
        {"prune_ms": 200, "mutations": ["disable_dedup"]},
    ),
    "failover-demo": ("failover-demo", {}),
    "stored": (None, {}),
    "social-90-10-effects": ("social-90-10", {"notify_mode": "effects"}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_wire_form_matches_a_memo_free_encode(name, monkeypatch):
    seen = dict.fromkeys(("messages", "records", "pending", "merged", "reencoded_after_merge"), 0)
    merged: dict[int, CommitRecord] = {}  # records whose aliases grew after a wire form was taken

    def check_record(r, wire):
        seen["reencoded_after_merge"] += id(r) in merged
        assert wire == record_to_wire(fresh_record(r))

    encode = sim.message_to_wire

    def checked_encode(msg):
        wire = encode(msg)
        seen["messages"] += 1
        if isinstance(msg, GossipBatch):
            for r, rw in zip(msg.records, wire["records"]):
                check_record(r, rw)
        assert wire == encode(memo_free(msg))
        return wire

    merge = DataCenter._merge_aliases

    def noting_merge(dc, existing, incoming):
        had_wire, before = existing.wire is not None, len(existing.gtids)
        merge(dc, existing, incoming)
        if had_wire and len(existing.gtids) > before:
            merged[id(existing)] = existing
            seen["merged"] += 1

    def check_pending(dc):
        for r in dc.pending_remote.values():
            check_record(r, record_to_wire(r))
            seen["pending"] += 1

    def check_replicas(simulation):
        for dc in simulation.dcs:
            for r, rw in zip(dc.log, dc.durable_snapshot()["records"]):
                check_record(r, rw)
                seen["records"] += 1
            check_pending(dc)

    crash = sim.Simulation._crash_dc

    def checked_crash(simulation, dc_id):
        check_replicas(simulation)
        crash(simulation, dc_id)

    gossip_tick = DataCenter.gossip_tick

    def checked_gossip_tick(dc, env):
        check_pending(dc)
        gossip_tick(dc, env)

    monkeypatch.setattr(sim, "message_to_wire", checked_encode)
    monkeypatch.setattr(DataCenter, "_merge_aliases", noting_merge)
    monkeypatch.setattr(DataCenter, "gossip_tick", checked_gossip_tick)
    monkeypatch.setattr(sim.Simulation, "_crash_dc", checked_crash)

    base, overrides = RUNS[name]
    if base is None:
        simulation = stored_simulation()
    else:
        scenario = load_scenario(base) if isinstance(base, str) else base
        simulation = build_simulation(scenario, seed=1, overrides=overrides)
    result = simulation.run()
    check_replicas(simulation)

    report = run_checks(result.trace)
    if "disable_dedup" in overrides.get("mutations", ()):
        assert not report["verdicts"]["exactly_once"]["ok"]
    else:
        assert report["ok"], report["verdicts"]
    assert result.synced
    assert seen["messages"] and seen["records"], seen
    if name.startswith("churn"):
        assert seen["pending"], seen
    if name == "failover-demo":
        assert seen["merged"] and seen["reencoded_after_merge"], seen
    if name == "stored":
        stored = [r for dc in simulation.dcs for r in dc.log if r.stored_results is not None]
        assert stored and all(r.wire is not None for r in stored)
