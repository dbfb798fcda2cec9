import json
import random
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from causalsim import workload
from causalsim.crdt import value_of
from causalsim.scenarios import PRESETS, build_simulation, load_scenario, sim_config
from causalsim.sim import FaultEvent, SimConfig
from causalsim.workload import (
    FRIENDS,
    KINDS,
    ChurnConfig,
    SocialConfig,
    build,
    counter_scripts,
    friend_graph,
    initial_states,
    labels_and_states,
    load_section,
    plan_labels,
    social_plan,
    social_scripts,
    user_object,
    workload_config,
)

BENCH_SCENARIOS = Path(__file__).parents[1] / "perfbench" / "scenarios"


def cfg(**kw):
    base = dict(
        users=200,
        friends=10,
        update_fraction=0.10,
        locality=0.90,
        session_length=100,
        sessions=5,
        pin=True,
    )
    base.update(kw)
    return SocialConfig(**base)


class TestGraph:
    def test_symmetric_no_self_loops(self):
        graph = friend_graph(cfg(), random.Random("g"))
        for u, friends in graph.items():
            assert u not in friends
            for v in friends:
                assert u in graph[v]

    def test_deterministic(self):
        assert friend_graph(cfg(), random.Random("g")) == friend_graph(cfg(), random.Random("g"))

    @pytest.mark.parametrize("users,friends", [(2, 1), (3, 5), (11, 10), (60, 10), (300, 15)])
    def test_equals_sampling_from_a_list_of_the_others(self, users, friends):
        """The reference draws from an explicit list of the other users."""

        def reference(c, rng):
            graph = {u: set() for u in range(c.users)}
            for u in range(c.users):
                others = [v for v in range(c.users) if v != u]
                for v in rng.sample(others, min(c.friends, len(others))):
                    graph[u].add(v)
                    graph[v].add(u)
            return {u: sorted(vs) for u, vs in graph.items()}

        c = cfg(users=users, friends=friends)
        for seed in range(3):
            assert friend_graph(c, random.Random(seed)) == reference(c, random.Random(seed))

    def test_build_makes_the_graph_once(self, monkeypatch):
        calls = []
        make = workload.friend_graph

        def counted(c, rng):
            calls.append(c)
            return make(c, rng)

        monkeypatch.setattr(workload, "friend_graph", counted)
        wl = {"kind": "social", "users": 30, "friends": 4}
        scripts, _, _ = build(wl, 3, 7, 16)
        assert len(calls) == 1
        monkeypatch.undo()
        assert scripts == social_scripts(SocialConfig(users=30, friends=4), 3, 7, 16)


class TestInitialStates:
    def test_every_user_seeded_with_friends(self):
        c = cfg(users=50, friends=5)
        graph = friend_graph(c, random.Random("x"))
        states = initial_states(c, graph)
        assert len(states) == 50
        for u in range(50):
            value = value_of(states[user_object(u)])
            assert value[FRIENDS] == frozenset(f"user:{v}" for v in graph[u])

    def test_matches_build_helper(self):
        wl = {"kind": "social", "users": 30, "friends": 4}
        assert labels_and_states(wl, 2, seed=7)[1] == build(wl, 2, 7, 16)[1]


class TestScripts:
    def test_deterministic_under_seed(self):
        a = social_scripts(cfg(), 4, 42, 32)
        b = social_scripts(cfg(), 4, 42, 32)
        assert a == b

    def test_update_mix_within_one_percent(self):
        scripts = social_scripts(cfg(sessions=10), 20, 7, 32)
        body = [
            spec
            for script in scripts.values()
            for spec in script
            if spec["label"] not in ("login", "logout")
        ]
        updates = sum(1 for s in body if any(op[0] == "update" for op in s["ops"]))
        realized = updates / len(body)
        assert abs(realized - 0.10) < 0.01

    def test_locality_mix_within_tolerance(self):
        c = cfg(sessions=10)
        scripts = social_scripts(c, 20, 7, 32)
        graph = friend_graph(c, random.Random("7/graph"))
        local = 0
        total = 0
        for script in scripts.values():
            me = None
            for spec in script:
                if spec["label"] == "login":
                    me = int(spec["ops"][0][1].key.split(":")[1])
                    continue
                if spec["label"] in ("logout",):
                    continue
                total += 1
                circle = {me} | set(graph[me])
                touched = {
                    int(o.key.split(":")[1])
                    for op in spec["ops"]
                    for o in (op[1] if op[0] == "multi" else [op[1]])
                    if op[0] in ("read", "multi")
                }
                if touched <= circle:
                    local += 1
        # non-local picks land in the circle occasionally, so the realized
        # rate sits slightly above the configured fraction
        assert 0.89 < local / total < 0.93

    def test_zero_update_mix_is_read_only(self):
        scripts = social_scripts(cfg(update_fraction=0.0), 4, 3, 32)
        for script in scripts.values():
            for spec in script:
                assert not any(op[0] == "update" for op in spec["ops"])

    def test_pins_fit_capacity(self):
        scripts = social_scripts(cfg(friends=30), 4, 3, 16)
        for script in scripts.values():
            for spec in script:
                for op in spec["ops"]:
                    if op[0] == "pin":
                        assert len(op[1]) <= 16 - 8

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            social_scripts(cfg(update_fraction=1.5), 1, 1, 32)


class TestPlan:
    @settings(max_examples=60, deadline=None)
    @given(
        users=st.integers(2, 12),
        friends=st.integers(0, 5),
        update_fraction=st.floats(0, 1),
        locality=st.floats(0, 1),
        session_length=st.integers(0, 8),
        sessions=st.integers(0, 3),
        scouts=st.integers(0, 4),
        seed=st.integers(0, 10**6),
        capacity=st.sampled_from([0, 4, 16]),
    )
    def test_the_plan_labels_are_the_script_labels(
        self, users, friends, update_fraction, locality, session_length, sessions, scouts, seed, capacity
    ):
        c = SocialConfig(users, friends, update_fraction, locality, session_length, sessions)
        graph = friend_graph(c, random.Random(f"{seed}/graph"))
        scripts = social_scripts(c, scouts, seed, capacity)
        labels = {sid: [spec["label"] for spec in script] for sid, script in scripts.items()}
        assert plan_labels(social_plan(c, scouts, seed, graph)) == labels

    def test_labels_and_states_match_build(self):
        wl = {"kind": "social", "users": 30, "friends": 4, "sessions": 3}
        scripts, states, _ = build(wl, 3, 7, 16)
        labels = {sid: [spec["label"] for spec in script] for sid, script in scripts.items()}
        assert labels_and_states(wl, 3, 7) == (labels, states)

    @pytest.mark.parametrize("wl", [{"kind": "counter_churn"}, {"kind": "none"}])
    def test_a_workload_without_labels_gives_none_and_no_states(self, wl):
        assert labels_and_states(wl, 3, 7) == ({}, {})


class TestCounterChurn:
    def test_every_tx_increments(self):
        scripts = counter_scripts(3, 10, 2, seed=5)
        assert len(scripts) == 3
        for script in scripts.values():
            assert len(script) == 10
            for spec in script:
                kinds = [op[0] for op in spec["ops"]]
                assert kinds == ["read", "update"]

    def test_build_dispatch(self):
        scripts, states, procs = build({"kind": "counter_churn", "txs_per_scout": 5}, 2, 1, 8)
        assert set(scripts) == {"s0", "s1"} and states == {} and procs == {}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build({"kind": "tpcw"}, 1, 1, 8)


class TestWorkloadKeys:
    @pytest.mark.parametrize(
        "wl, unknown",
        [
            ({"kind": "social", "num_users": 1000}, "num_users"),
            ({"users": 30, "friends_per_user": 4}, "friends_per_user"),  # social without a kind
            ({"kind": "counter_churn", "txs": 5}, "txs"),
            ({"kind": "none", "users": 5}, "users"),
        ],
    )
    def test_an_unknown_key_is_an_error_that_lists_the_known_ones(self, wl, unknown):
        known = sorted(f.name for f in fields(KINDS[wl.get("kind", "social")]))
        with pytest.raises(ValueError, match=f"'{unknown}'") as info:
            build(wl, 2, 1, 8)
        assert f"known: {known}" in str(info.value)
        with pytest.raises(ValueError, match=f"'{unknown}'"):
            labels_and_states(wl, 2, 1)

    def test_social_keys_set_their_fields_and_the_dataclass_gives_the_rest(self):
        for kind, cls in KINDS.items():
            assert workload_config({"kind": kind}) == cls()
        assert workload_config({}) == SocialConfig()
        given = {"kind": "social", "friends": 3, "sessions": 4, "pin": False}
        assert workload_config(given) == SocialConfig(friends=3, sessions=4, pin=False)
        # a value for every field, each unlike its default
        keys = [f.name for f in fields(SocialConfig)]
        every = dict(zip(keys, (30, 4, 0.2, 0.5, 6, 3, False)))
        assert len(every) == len(keys)
        assert all(every[f.name] != f.default for f in fields(SocialConfig))
        made = workload_config(every)
        assert {key: getattr(made, key) for key in keys} == every

    def test_counter_churn_defaults(self):
        assert workload_config({"kind": "counter_churn"}) == ChurnConfig(txs_per_scout=20, counters=3)
        scripts, _, _ = build({"kind": "counter_churn"}, 3, 1, 8)
        assert [len(script) for script in scripts.values()] == [20] * 3
        keys = {spec["ops"][0][1].key for script in scripts.values() for spec in script}
        assert keys == {"ctr:0", "ctr:1", "ctr:2"}

    def test_every_preset_and_benchmark_scenario_uses_known_keys(self):
        scenarios = [load_scenario(name) for name in PRESETS]
        scenarios += [json.loads(p.read_text()) for p in BENCH_SCENARIOS.glob("*.json")]
        assert len(scenarios) > len(PRESETS)
        for doc in scenarios:
            config = sim_config(doc)
            config.validate()
            assert len(config.faults) == len(doc.get("faults", []))
            assert isinstance(workload_config(doc["workload"]), tuple(KINDS.values()))
            build(doc["workload"], 2, 1, 8)


# one bad entry per section and check: (section, entry, the key the error names)
BAD_SECTIONS = [
    ("sim", {"gossip_period": 20}, "gossip_period"),
    ("sim", {"k": "2"}, "k"),
    ("sim", {"gossip_ms": "20"}, "gossip_ms"),
    ("sim", {"num_scouts": 2.5}, "num_scouts"),
    ("sim", {"seed": True}, "seed"),
    ("sim", {"rtt_dc_ms": [[0, "60"], [60, 0]]}, "rtt_dc_ms"),
    ("sim", {"mutations": "disable_dedup"}, "mutations"),
    ("fault", {"at": 10, "kind": "dc_crash", "until": 50}, "until"),
    ("fault", {"kind": "dc_crash", "dc": 0}, "at"),
    ("fault", {"at": 10, "dc": 0}, "kind"),
    ("fault", {"at": 1.5, "kind": "dc_crash", "dc": 0}, "at"),
    ("fault", {"at": 10, "kind": "dc_crash", "dc": "0"}, "dc"),
    ("fault", {"at": 10, "kind": "partition", "links": ["dc0", "dc1"]}, "links"),
    ("social", {"num_users": 1000}, "num_users"),
    ("social", {"users": "60"}, "users"),
    ("social", {"pin": "no"}, "pin"),
    ("social", {"locality": "high"}, "locality"),
    ("counter_churn", {"txs": 5}, "txs"),
    ("counter_churn", {"counters": None}, "counters"),
    ("none", {"users": 5}, "users"),
]


class TestScenarioSections:
    @pytest.mark.parametrize(
        "section, entry, key", BAD_SECTIONS, ids=[f"{s}-{k}" for s, _, k in BAD_SECTIONS]
    )
    def test_an_unknown_or_missing_key_or_a_wrong_type_is_an_error_naming_it(
        self, section, entry, key
    ):
        with pytest.raises(ValueError, match=f"'{key}'"):
            if section == "sim":
                sim_config({"sim": entry})
            elif section == "fault":
                sim_config({"faults": [entry]})
            else:
                workload_config({"kind": section, **entry})

    def test_a_float_field_takes_an_int_and_an_optional_one_takes_null(self):
        assert workload_config({"locality": 1}).locality == 1
        assert sim_config({"sim": {"rtt_dc_ms": None}}).rtt_dc_ms is None
        fault = load_section(FaultEvent, "fault", {"at": 0, "kind": "heal", "links": [["dc0", "s1"]]})
        assert fault == FaultEvent(0, "heal", links=[["dc0", "s1"]])

    def test_the_sim_section_sets_every_field_but_the_faults(self):
        keys = {f.name for f in fields(SimConfig)} - {"faults"}
        with pytest.raises(ValueError) as info:
            sim_config({"sim": {"faults": []}})
        assert f"known: {sorted(keys)}" in str(info.value)
        assert sim_config({}) == SimConfig()

    # each of these once died in `random.sample` or `randrange` with a
    # message that names no key, or ran as a shorter workload
    @pytest.mark.parametrize(
        "wl, key",
        [
            ({"friends": -1}, "friends"),
            ({"kind": "social", "sessions": -1}, "sessions"),
            ({"session_length": -3}, "session_length"),
            ({"kind": "counter_churn", "txs_per_scout": -1}, "txs_per_scout"),
            ({"kind": "counter_churn", "counters": 0}, "counters"),
        ],
    )
    def test_a_count_below_its_least_is_an_error_naming_it(self, wl, key, monkeypatch):
        def no_graph(*args):
            raise AssertionError("the friend graph was drawn")

        monkeypatch.setattr(workload, "friend_graph", no_graph)
        with pytest.raises(ValueError, match=f"workload key '{key}' must be at least"):
            build(wl, 2, 1, 8)

    def test_the_least_counts_are_accepted(self):
        assert build({"friends": 0, "sessions": 0, "session_length": 0}, 2, 1, 8)[0] == {"s0": [], "s1": []}
        scripts = build({"kind": "counter_churn", "txs_per_scout": 3, "counters": 1}, 2, 1, 8)[0]
        assert {op[1].key for script in scripts.values() for spec in script for op in spec["ops"]} == {"ctr:0"}

    @pytest.mark.parametrize("kind", ["tpcw", ["social"]])
    def test_an_unknown_workload_kind_is_an_error(self, kind):
        with pytest.raises(ValueError, match="unknown workload kind"):
            workload_config({"kind": kind})

    @pytest.mark.parametrize(
        "doc, error",
        [
            ({"faults": [["at", 10]]}, "a fault must be an object"),
            ({"faults": ["dc_crash"]}, "a fault must be an object"),
            ({"faults": [None]}, "a fault must be an object"),
            ({"sim": []}, "sim section must be an object"),
            ({"faults": 5}, "its faults a list"),
            ({"faults": {"at": 10}}, "its faults a list"),
            ({"workload": "social"}, "a workload section must be an object"),
            ({"workload": [1]}, "a workload section must be an object"),
        ],
    )
    def test_a_section_or_fault_that_is_not_an_object_is_an_error(self, doc, error):
        with pytest.raises(ValueError, match=error):
            build_simulation(doc)
