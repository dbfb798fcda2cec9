"""Memoized forms: an effect is encoded once, and a decoded one keeps the
dict it came from; a set, MV register or map state renders its value
once, and a decoded one starts without a memo. Commit records and states
are encoded afresh on every call.

The unit tests show that the memos are invisible to equality, hashing,
repr and ``dataclasses.replace``. The run tests compare every message the
simulator encodes, every record a DC holds, every state a fetch reply
carries and every value a read traces with the encoding of a copy that
holds no memo, so a stale alias list or memo, or a mutated wire dict or
state, fails them. Receivers hold the very objects sent to them.
"""

import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from causalsim import checker, crdt, messages, sim
from causalsim import dc as dc_module, scout as scout_module
from causalsim.checker import run_checks
from causalsim.clocks import CausalClock, Gtid, Otid, VersionVector
from causalsim.crdt import (
    AwSetState,
    CmapState,
    CounterState,
    CrdtType,
    EffectTag,
    LwwState,
    MvState,
    ObjectId,
    apply_effect,
    effect_from_wire,
    effect_to_wire,
    new_state,
    object_from_wire,
    prepare,
    state_from_wire,
    state_to_wire,
    value_to_wire,
)
from causalsim.dc import DataCenter, VersionPruned
from causalsim.messages import (
    CommitRecord,
    CommitRequest,
    FetchReply,
    GossipBatch,
    NotifyBatch,
    record_from_wire,
    record_to_wire,
)
from causalsim.scenarios import build_simulation, load_scenario, sim_config
from causalsim.scout import Scout
from causalsim.workload import counter_scripts
from crdt_random import ALL_TYPES, TagSource, random_intent
from test_crdt import effect_from_bytes, effect_to_bytes
from test_dc import REBUILD_FAULTS, FakeEnv
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
    return CommitRecord(OTID, (Gtid(5, 0),), DEPS, effects(), [1, "x"])


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
    """A record keeps no wire form; its effects keep theirs."""

    def test_eq_and_repr_ignore_the_memo(self):
        plain, encoded = record(), record()
        record_to_wire(encoded)
        decoded = record_from_wire(record_to_wire(record()))
        for other in (encoded, decoded):
            assert not hasattr(other, "wire")
            assert all(e.wire is not None for e in other.effects)
            assert other == plain and repr(other) == repr(plain)
        # records are mutable (their aliases grow), so never hashable
        assert CommitRecord.__hash__ is None

    def test_aliases_are_encoded_on_every_call(self):
        r = record_from_wire(record_to_wire(record()))
        first = record_to_wire(r)
        r.gtids += (Gtid(7, 2),)
        second = record_to_wire(r)
        assert first["gtids"] == [[5, 0]] and second["gtids"] == [[5, 0], [7, 2]]
        assert second is not first and second["otid"] is not first["otid"]
        # the effects' wire forms are their memos, not copies
        assert all(a is b for a, b in zip(first["effects"], second["effects"]))
        assert second == record_to_wire(replace(r, effects=tuple(map(replace, r.effects))))


def fresh_state(state):
    """A copy of `state` that holds no memo, at any depth."""
    if isinstance(state, CmapState):
        return CmapState({key: fresh_state(sub) for key, sub in state.entries.items()})
    return replace(state)


MEMO_TYPES = (MvState, AwSetState, CmapState)
MV = CrdtType.MV_REGISTER


def has_memo(state) -> bool:
    if state._value is not None:
        return True
    return isinstance(state, CmapState) and any(
        has_memo(sub) for sub in state.entries.values() if isinstance(sub, MEMO_TYPES)
    )


def states():
    """One state of each memoized type, each with its memo filled."""
    a, b = tag(0, 1, "s0"), tag(0, 2, "s2")
    out = (
        MvState({a: "x", b: ["y", 1]}, frozenset({tag(0, 0, "s1")})),
        AwSetState({"B": frozenset({a}), "A": frozenset({a, b})}, frozenset({tag(1)})),
        CmapState(
            {
                ("wall", CrdtType.AW_SET): AwSetState({"p": frozenset({a})}),
                ("name", CrdtType.LWW_REGISTER): LwwState("A", 2, "s0"),
                ("inner", CrdtType.CMAP): CmapState({("n", CrdtType.COUNTER): CounterState(3)}),
            }
        ),
    )
    for state in out:
        state_to_wire(state)
        value_to_wire(state)
    return out


class TestStateMemo:
    @pytest.mark.parametrize("i", range(len(MEMO_TYPES)))
    def test_eq_hash_repr_and_fields_ignore_the_memo(self, i):
        memoized, plain = states()[i], fresh_state(states()[i])
        assert memoized._value is not None and plain._value is None
        assert memoized == plain and repr(memoized) == repr(plain)
        assert [f.name for f in fields(memoized)] == [f.name for f in fields(plain)]
        assert "_value" not in {f.name for f in fields(memoized)}
        # the dict fields make every such state unhashable, memo or not
        for state in (memoized, plain):
            with pytest.raises(TypeError):
                hash(state)

    @pytest.mark.parametrize("i", range(len(MEMO_TYPES)))
    def test_replace_and_construction_leave_the_memo_empty(self, i):
        state = states()[i]
        copy = replace(state)
        assert copy == state and copy._value is None
        empty = type(state)()
        assert "_value" not in vars(empty)

    @pytest.mark.parametrize("i", range(len(MEMO_TYPES)))
    def test_renders_once(self, i):
        state = states()[i]
        assert value_to_wire(state) is value_to_wire(state)
        # the wire form is built afresh on every call, and keeps nothing
        assert not hasattr(state, "_wire")
        assert state_to_wire(state) is not state_to_wire(state)
        assert state_to_wire(state) == state_to_wire(fresh_state(state))
        if isinstance(state, CmapState):
            for sub in state.entries.values():
                if isinstance(sub, MEMO_TYPES):
                    # the map's value form holds its sub-states' memos
                    assert any(v is value_to_wire(sub) for v in value_to_wire(state).values())

    @pytest.mark.parametrize("i", range(len(MEMO_TYPES)))
    def test_decoded_states_carry_no_memo(self, i):
        state = states()[i]
        decoded = state_from_wire(state_to_wire(state))
        assert decoded == state and not has_memo(decoded)

    def test_flat_states_have_no_memo(self):
        for state in (CounterState(4), LwwState("v", 1, "s0")):
            assert not hasattr(state, "_value")
            assert state_to_wire(state) is not state_to_wire(state)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_memoized_forms_match_a_memo_free_render(seed):
    """Random replicas of all five types evolve through prepared effects;
    some maps are forked from others, so the two share every sub-state that
    neither has changed since. After every apply, every replica's forms
    equal those of a memo-free copy."""
    rng = random.Random(seed)
    tags = TagSource()
    replicas = [(ObjectId(f"o{i}", t), new_state(t)) for i, t in enumerate(ALL_TYPES)]
    for _ in range(rng.randrange(1, 30)):
        i = rng.randrange(len(replicas))
        obj, state = replicas[i]
        if isinstance(state, CmapState) and rng.random() < 0.2:
            replicas.append((obj, CmapState(dict(state.entries))))
        intent = random_intent(rng, obj.crdt_type)
        if isinstance(state, CmapState) and rng.random() < 0.25:
            intent = ("entry", "m", MV, random_intent(rng, MV))
        state = apply_effect(state, prepare(obj, state, intent, tags.next(f"r{i}")))
        replicas[i] = (obj, state)
        for _, s in replicas:
            plain = fresh_state(s)
            assert state_to_wire(s) == state_to_wire(plain)
            assert value_to_wire(s) == value_to_wire(plain)


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
    seen = dict.fromkeys(
        ("messages", "records", "pending", "merged", "reencoded_after_merge", "states", "reads"), 0
    )
    merged: dict[int, CommitRecord] = {}  # records whose aliases grew in a merge
    # req_id -> per object, memo-free encodings at the snapshot and admit
    # clocks; a fetch reply is encoded as `_serve_fetch` sends it
    served: dict[int, list[tuple[dict, dict]]] = {}
    # (value traced, its memo-free render) and (state sent, its memo-free
    # encoding), compared again at the end: a shared value or state mutated
    # after it went out no longer matches
    shared: list[tuple] = []
    sent_states: list[tuple] = []

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
        if isinstance(msg, FetchReply) and msg.status == "ok":
            for (_, snap, admit), want in zip(msg.versions, served.pop(msg.req_id)):
                got = (snap, snap if admit is None else admit)
                assert tuple(map(state_to_wire, got)) == want
                sent_states.extend(zip(got, want))
                seen["states"] += 1
        assert wire == encode(memo_free(msg))
        return wire

    serve_fetch = DataCenter._serve_fetch

    def checked_serve_fetch(dc, env, msg):
        session = dc.sessions.get(msg.scout)
        admit = CausalClock(
            session.last_announced if session else msg.snapshot.dc_part, msg.snapshot.local_part
        )
        try:
            served[msg.req_id] = [
                tuple(
                    state_to_wire(fresh_state(dc.materialize(obj, c, msg.scout)))
                    for c in (msg.snapshot, admit)
                )
                for obj in msg.objects
            ]
        except VersionPruned:
            pass  # the reply says "pruned" and carries no state
        serve_fetch(dc, env, msg)

    trace_read = Scout._trace_read

    def checked_trace_read(scout, env, tx, obj, src):
        want = value_to_wire(fresh_state(tx.working[obj]))
        trace_read(scout, env, tx, obj, src)
        event = env.trace_log[-1]
        assert event["ev"] == "read" and event["value"] == want
        shared.append((event["value"], want))
        seen["reads"] += 1

    merge = DataCenter._merge_aliases

    def noting_merge(dc, existing, incoming):
        before = len(existing.gtids)
        merge(dc, existing, incoming)
        if len(existing.gtids) > before:
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
    monkeypatch.setattr(DataCenter, "_serve_fetch", checked_serve_fetch)
    monkeypatch.setattr(Scout, "_trace_read", checked_trace_read)

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
    assert seen["messages"] and seen["records"] and seen["states"] and seen["reads"], seen
    assert all(form == want for form, want in shared)
    assert all(state_to_wire(state) == want for state, want in sent_states)
    if name.startswith("churn"):
        assert seen["pending"], seen
    if name == "failover-demo":
        assert seen["merged"] and seen["reencoded_after_merge"], seen
    if name == "stored":
        assert any(r.results is not None for dc in simulation.dcs for r in dc.log)


# -- what receivers share ----------------------------------------------------------

# every codec entry point a run could reach, at each name a module binds
CODEC_NAMES = (
    "state_to_wire",
    "state_from_wire",
    "record_to_wire",
    "record_from_wire",
    "message_from_wire",
)


@pytest.mark.parametrize("preset", ["social-90-10", "staleness-stress"])
def test_nothing_on_a_runs_path_encodes_or_decodes(preset, monkeypatch):
    """Without a crash or a wire tap, a run hands every message, state and
    record over as the object it is: no node encodes or decodes one."""

    def refused(name):
        def codec(*args):
            raise AssertionError(f"{name} called on the run's path")

        return codec

    bound = []
    for module in (dc_module, scout_module, messages, sim):
        for name in CODEC_NAMES:
            if name in vars(module):
                monkeypatch.setattr(module, name, refused(name))
                bound.append((module.__name__, name))
    assert ("causalsim.dc", "state_to_wire") in bound
    assert ("causalsim.scout", "state_from_wire") in bound
    assert ("causalsim.sim", "message_from_wire") in bound
    result = build_simulation(load_scenario(preset), seed=1).run()
    assert result.synced and not result.stats["dropped"]
    assert run_checks(result.trace)["ok"]


def held_effects(simulation) -> list:
    """Every effect the DCs' logs hold."""
    return [e for dc in simulation.dcs for r in dc.log for e in r.effects]


def test_receivers_of_one_wire_dict_share_one_decoded_value(monkeypatch):
    """Messages are delivered as they were sent: every scout notified of an
    effect, and every DC that logged it, holds the `EffectOp` the scout
    that committed it prepared; and every scout sent a version in a fetch
    reply holds the state object the DC served, which scouts sent the same
    version share."""
    # tag -> (effect, [(receiver, effect held)]); id(state) -> (state,
    # [(receiver, state held)]), where holding the state keeps its id
    effects: dict = {}
    states: dict[int, tuple] = {}
    prepared = []
    served: dict[int, object] = {}  # id -> every state a DC put in a fetch reply

    def note(table, key, value, receiver, held):
        table.setdefault(key, (value, []))[1].append((receiver, held))

    on_notify = Scout.on_notify

    def noting_notify(scout, env, batch):
        for kind, payload in batch.items:
            if kind == "effects":
                for e in payload:
                    note(effects, e.tag, e, scout.id, e)
        on_notify(scout, env, batch)

    fetch_states = DataCenter.fetch_states

    def noting_fetch_states(dc, *args):
        out = fetch_states(dc, *args)
        served.update((id(state), state) for state in out if state is not None)
        return out

    admit = Scout.admit

    def noting_admit(scout, env, obj, state, at, pin=False):
        assert served.get(id(state)) is state
        note(states, id(state), state, scout.id, state)
        admit(scout, env, obj, state, at, pin)
        assert scout.cache[obj].state is state

    commit = Scout.commit

    def noting_commit(scout, env, tx):
        prepared.extend(tx.effects)
        commit(scout, env, tx)

    monkeypatch.setattr(Scout, "on_notify", noting_notify)
    monkeypatch.setattr(DataCenter, "fetch_states", noting_fetch_states)
    monkeypatch.setattr(Scout, "admit", noting_admit)
    monkeypatch.setattr(Scout, "commit", noting_commit)
    simulation = build_simulation(load_scenario("social-90-10"), seed=1)
    simulation.run()
    for e in held_effects(simulation):
        note(effects, e.tag, e, "dc", e)

    for table in (effects, states):
        shared = [got for _, got in table.values() if len({r for r, _ in got}) > 1]
        assert shared
        for got in shared:
            assert all(value is got[0][1] for _, value in got)
    by_tag = {e.tag: e for e in prepared}
    assert by_tag and all(
        held is by_tag[tag] for tag, (_, got) in effects.items() for _, held in got
    )


def test_receivers_of_one_record_get_their_own_record():
    """Two DCs sent one record as the gossip tick's per-send copies share
    its effects, not the record; sent through the codec, each gets its own
    of both. Either way an alias merge at one leaves the other's aliases
    alone, and the sender's too."""
    env = FakeEnv()
    sender = DataCenter(0, num_dcs=3, k=2)
    sender.on_commit_request(env, CommitRequest("s1", OTID, CausalClock.zero(3), effects()))
    sender.gossip_tick(env)
    held = sender.log[0]
    direct = [m for _, _, m in env.sent if isinstance(m, GossipBatch)]
    decoded = [sim.message_from_wire(sim.message_to_wire(direct[0])) for _ in range(2)]
    # the per-send copies share the sender's effects; decoding makes new ones
    for batch, shares in zip(direct + decoded, (True, True, False, False)):
        same = [x is y for x, y in zip(batch.records[0].effects, held.effects)]
        assert same == [shares] * len(held.effects)
    for mine, theirs in (direct, decoded):
        a, b = mine.records[0], theirs.records[0]
        assert len({id(a), id(b), id(held)}) == 3 and a == b == held
        receivers = [DataCenter(i, num_dcs=3, k=2) for i in (1, 2)]
        for dc, batch in zip(receivers, (mine, theirs)):
            dc.on_gossip(env, batch)
        first, second = (dc.by_otid[OTID] for dc in receivers)
        receivers[0]._merge_aliases(first, replace(a, gtids=(Gtid(1, 2),)))
        assert first.gtids == (Gtid(1, 0), Gtid(1, 2))
        assert second.gtids == held.gtids == (Gtid(1, 0),)
        assert record_to_wire(second)["gtids"] == record_to_wire(held)["gtids"] == [[1, 0]]


def test_records_and_aliases_stay_per_dc_in_a_run(monkeypatch):
    merges = []
    merge = DataCenter._merge_aliases

    def noting_merge(dc, existing, incoming):
        merges.append(len(existing.gtids))
        merge(dc, existing, incoming)

    monkeypatch.setattr(DataCenter, "_merge_aliases", noting_merge)
    simulation = build_simulation(load_scenario("failover-demo"), seed=1)
    simulation.run()
    assert merges
    records = [r for dc in simulation.dcs for r in dc.log]
    assert len({id(r) for r in records}) == len(records)
    # records may share an alias tuple, which a merge rebinds, never extends
    assert all(type(r.gtids) is tuple for r in records)


def test_a_second_run_holds_nothing_of_the_first():
    scenario = load_scenario("social-90-10")
    first = build_simulation(scenario, seed=1)
    first.run()
    held = held_effects(first) + [
        e.state for s in first.scouts.values() for e in s.cache.values() if e.state is not None
    ]
    second = build_simulation(scenario, seed=1)
    second.run()
    again = held_effects(second) + [
        e.state for s in second.scouts.values() for e in s.cache.values() if e.state is not None
    ]
    # the same scenario makes equal values, but never the first run's objects
    assert len(again) == len(held)
    assert not {id(v) for v in held} & {id(v) for v in again}


def test_the_checker_decodes_its_own_effects(monkeypatch):
    checked = []

    def noting_decode(w):
        effect = effect_from_wire(w)
        checked.append(effect)
        return effect

    simulation = build_simulation(load_scenario("social-90-10"), seed=1)
    result = simulation.run()
    simulated = held_effects(simulation)
    monkeypatch.setattr(checker, "effect_from_wire", noting_decode)
    assert run_checks(result.trace)["ok"]
    assert checked and simulated
    mine = {id(e) for e in simulated}
    assert not any(id(e) in mine for e in checked)
    by_tag = {e.tag: e for e in simulated}
    assert all(by_tag[e.tag] == e for e in checked if e.tag in by_tag)
