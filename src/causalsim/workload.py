"""Workload generation: a social-network analog and a counter-churn stressor.

Scripts are deterministic functions of (config, seed): each scout gets a
list of transaction specs the simulator's driver executes. The social
data model keeps one mergeable map per user holding a profile register
and add-wins sets for wall posts, events and friends.
Users and the symmetric friendship graph are created before the run by
seeding identical checkpoints at every DC, which sidesteps the uniqueness
problem of registration transactions.

Social scripts are made in two steps: `social_plan` makes every random
draw and returns each session's actions as labels, targets and post
numbers, and `scripts_from_plan` turns that plan into ops. The checker
needs only the labels, so it builds the plan and no script.

Each section of a scenario file is read by `load_section` into a config
dataclass, whose fields are the section's keys and whose defaults are
its defaults; `KINDS` gives the config of each workload kind.
"""

from __future__ import annotations

import random
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Union, get_args, get_origin, get_type_hints

from causalsim.crdt import AwSetState, CmapState, CrdtType, EffectTag, LwwState, ObjectId

PROFILE = ("profile", CrdtType.LWW_REGISTER)
WALL = ("wall", CrdtType.AW_SET)
EVENTS = ("events", CrdtType.AW_SET)
FRIENDS = ("friends", CrdtType.AW_SET)


@dataclass
class SocialConfig:
    users: int = 100
    friends: int = 10  # per user
    update_fraction: float = 0.10
    locality: float = 0.90
    session_length: int = 50
    sessions: int = 2  # per scout
    pin: bool = True  # pin each session's friends in the cache

    def validate(self) -> None:
        if not 0 <= self.update_fraction <= 1 or not 0 <= self.locality <= 1:
            raise ValueError("fractions must lie in [0, 1]")
        if self.users < 2:
            raise ValueError("need at least two users")


def user_object(uid: int) -> ObjectId:
    return ObjectId(f"user:{uid}", CrdtType.CMAP)


def friend_graph(cfg: SocialConfig, rng: random.Random) -> dict[int, list[int]]:
    """Symmetric friendship lists: per user a uniform sample of others."""
    friends: dict[int, set[int]] = {u: set() for u in range(cfg.users)}
    others = range(cfg.users - 1)
    k = min(cfg.friends, len(others))
    for u in range(cfg.users):
        # index i of the users other than u is user i, or i + 1 from u on;
        # `sample` picks the same indices from any population of this length
        for i in rng.sample(others, k):
            v = i + (i >= u)
            friends[u].add(v)
            friends[v].add(u)
    return {u: sorted(vs) for u, vs in friends.items()}


def _graph(cfg: SocialConfig, seed) -> dict[int, list[int]]:
    """The seed's friend graph."""
    return friend_graph(cfg, random.Random(f"{seed}/graph"))


def initial_states(cfg: SocialConfig, graph: dict[int, list[int]]) -> dict[ObjectId, CmapState]:
    """Pre-created user maps with profiles and seeded friendship sets."""
    states = {}
    tag_counter = 0
    for u in range(cfg.users):
        alive = {}
        for v in graph[u]:
            tag_counter += 1
            alive[f"user:{v}"] = frozenset({EffectTag(tag_counter, "boot", 0)})
        states[user_object(u)] = CmapState(
            entries={
                PROFILE: LwwState(f"profile of user {u}", ts=1, origin="boot"),
                FRIENDS: AwSetState(alive=alive),
            }
        )
    return states


def _wall_add(author: str, n: int) -> tuple:
    return ("entry", WALL[0], WALL[1], ("add", f"post/{author}/{n}"))


def _event_add(author: str, n: int) -> tuple:
    return ("entry", EVENTS[0], EVENTS[1], ("add", f"event/{author}/{n}"))


def _friend_add(uid: int) -> tuple:
    return ("entry", FRIENDS[0], FRIENDS[1], ("add", f"user:{uid}"))


def social_plan(
    cfg: SocialConfig, num_scouts: int, seed, graph: dict[int, list[int]]
) -> dict[str, list[tuple[int, list[tuple[str, int, int]]]]]:
    """Every random draw of the social scripts and nothing else: per scout,
    its sessions as ``(me, [(label, target, post_n)])``, where ``post_n``
    numbers the scout's updates so far. `graph` is the seed's friend graph."""
    cfg.validate()
    rng = random.Random(f"{seed}/social")
    plan = {}
    for idx in range(num_scouts):
        sessions = []
        post_n = 0
        for _ in range(cfg.sessions):
            me = rng.randrange(cfg.users)
            circle = [me] + graph[me]
            actions = []
            for _ in range(cfg.session_length):
                local = rng.random() < cfg.locality
                update = rng.random() < cfg.update_fraction
                target = rng.choice(circle) if local else rng.randrange(cfg.users)
                if not update:
                    label = "view_wall" if rng.random() < 0.7 else "list_friends"
                else:
                    post_n += 1
                    kind = rng.random()
                    if kind < 0.5 or target == me:
                        label = "post_status"
                    elif kind < 0.8:
                        label = "message"
                    else:
                        label = "accept_friendship"
                actions.append((label, target, post_n))
            sessions.append((me, actions))
        plan[f"s{idx}"] = sessions
    return plan


def plan_labels(plan: dict) -> dict[str, list[str]]:
    """Each scout's transaction labels in script order: a login and a
    logout around every session's actions."""
    return {
        sid: [
            label
            for _, actions in sessions
            for label in ("login", *(action[0] for action in actions), "logout")
        ]
        for sid, sessions in plan.items()
    }


def _action_ops(sid: str, me: int, label: str, target: int, post_n: int) -> list[tuple]:
    if label in ("view_wall", "list_friends"):
        return [("read", user_object(target))]
    if label == "post_status":
        # status post on own wall, event logged atomically
        return [
            ("read", user_object(me)),
            ("update", user_object(me), _wall_add(sid, post_n)),
            ("update", user_object(me), _event_add(sid, post_n)),
        ]
    if label == "message":
        # message: target's wall and own event set, atomically
        return [
            ("multi", [user_object(me), user_object(target)]),
            ("update", user_object(target), _wall_add(sid, post_n)),
            ("update", user_object(me), _event_add(sid, post_n)),
        ]
    # friendship accept updates both friend sets
    return [
        ("multi", [user_object(me), user_object(target)]),
        ("update", user_object(me), _friend_add(target)),
        ("update", user_object(target), _friend_add(me)),
    ]


def scripts_from_plan(
    plan: dict, graph: dict[int, list[int]], cfg: SocialConfig, cache_capacity: int
) -> dict[str, list[dict]]:
    """The per-scout scripts a `social_plan` stands for."""
    pins = cfg.pin and cache_capacity
    scripts: dict[str, list[dict]] = {}
    for sid, sessions in plan.items():
        script: list[dict] = []
        for me, actions in sessions:
            pinned = [user_object(u) for u in [me] + graph[me]]
            if pins:
                pinned = pinned[: max(cache_capacity - 8, 1)]
            login_ops = [("read", user_object(me)), ("multi", [user_object(f) for f in graph[me]])]
            if pins:
                login_ops.append(("pin", pinned))
            script.append({"kind": "tx", "label": "login", "ops": login_ops})
            for label, target, post_n in actions:
                ops = _action_ops(sid, me, label, target, post_n)
                script.append({"kind": "tx", "label": label, "ops": ops})
            script.append({"kind": "tx", "label": "logout", "ops": [("unpin", pinned)] if pins else []})
        scripts[sid] = script
    return scripts


def social_scripts(
    cfg: SocialConfig,
    num_scouts: int,
    seed,
    cache_capacity: int,
    graph: Optional[dict[int, list[int]]] = None,
) -> dict[str, list[dict]]:
    """Per-scout scripts; `graph` is the seed's friend graph, built here
    when the caller has not built it already."""
    if graph is None:
        graph = _graph(cfg, seed)
    return scripts_from_plan(social_plan(cfg, num_scouts, seed, graph), graph, cfg, cache_capacity)


def counter_scripts(
    num_scouts: int, txs_per_scout: int, num_counters: int, seed
) -> dict[str, list[dict]]:
    """Shared-counter increments: the workload that punishes duplicate delivery."""
    rng = random.Random(f"{seed}/counters")
    scripts = {}
    for idx in range(num_scouts):
        sid = f"s{idx}"
        script = []
        for _ in range(txs_per_scout):
            obj = ObjectId(f"ctr:{rng.randrange(num_counters)}", CrdtType.COUNTER)
            amount = rng.randint(1, 10)
            script.append(
                {
                    "kind": "tx",
                    "label": "increment",
                    "ops": [("read", obj), ("update", obj, ("inc", amount))],
                }
            )
        scripts[sid] = script
    return scripts


@dataclass
class ChurnConfig:
    txs_per_scout: int = 20
    counters: int = 3


@dataclass
class NoWorkload:
    pass


# a workload section's kind -> the config its other keys describe
KINDS = {"social": SocialConfig, "counter_churn": ChurnConfig, "none": NoWorkload}


def load_section(cls, section: str, given: dict, **fixed):
    """The `cls` config a scenario section describes. Its keys are the
    fields of `cls`, less the `fixed` ones the caller sets, and the fields'
    defaults give the keys left out. An unknown key, a missing required key
    or a value of the wrong type is a `ValueError` that names it."""
    if not isinstance(given, dict):
        raise ValueError(f"a {section} must be an object, not {given!r}")
    known = [f.name for f in fields(cls) if f.name not in fixed]
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ValueError(f"unknown {section} keys {unknown}; known: {sorted(known)}")
    missing = [
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING and f.name not in given
    ]
    if missing:
        raise ValueError(f"missing {section} keys {missing}; known: {sorted(known)}")
    hints = get_type_hints(cls)
    for key, value in given.items():
        hint = hints[key]
        if not _fits(value, hint):
            name = hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")
            raise ValueError(f"{section} key {key!r} must be {name}, not {value!r}")
    return cls(**given, **fixed)


def _fits(value, hint) -> bool:
    """Whether a JSON value has an annotation's type: an int is not a bool,
    a float may be an int, and `Optional` admits null."""
    if get_origin(hint) is Union:
        return any(_fits(value, arg) for arg in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


# the counts of the workload configs, and the least value of each
_LEAST = {"friends": 0, "sessions": 0, "session_length": 0, "txs_per_scout": 0, "counters": 1}


def workload_config(workload_cfg: dict):
    """The config a workload section describes; a section without a kind is social."""
    if not isinstance(workload_cfg, dict):
        raise ValueError(f"a workload section must be an object, not {workload_cfg!r}")
    given = dict(workload_cfg)
    kind = given.pop("kind", "social")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown workload kind {kind!r}")
    cfg = load_section(KINDS[kind], f"{kind} workload", given)
    for key, least in _LEAST.items():
        value = getattr(cfg, key, least)
        if value < least:
            raise ValueError(f"{kind} workload key {key!r} must be at least {least}, not {value}")
    return cfg


def labels_and_states(workload_cfg: dict, num_scouts: int, seed) -> tuple[dict, dict]:
    """Each scout's transaction labels in script order, and the initial
    states: what `build` gives less the ops, from the friend graph and the
    plan alone. A workload without labels gives ``({}, {})``."""
    cfg = workload_config(workload_cfg)
    if not isinstance(cfg, SocialConfig):
        return {}, {}
    graph = _graph(cfg, seed)
    labels = plan_labels(social_plan(cfg, num_scouts, seed, graph))
    return labels, initial_states(cfg, graph)


def build(workload_cfg: dict, num_scouts: int, seed, cache_capacity: int):
    """Produce (scripts, initial_states, procedures) for a workload config."""
    cfg = workload_config(workload_cfg)
    if isinstance(cfg, SocialConfig):
        graph = _graph(cfg, seed)
        return (
            social_scripts(cfg, num_scouts, seed, cache_capacity, graph),
            initial_states(cfg, graph),
            {},
        )
    if isinstance(cfg, ChurnConfig):
        return counter_scripts(num_scouts, cfg.txs_per_scout, cfg.counters, seed), {}, {}
    return {}, {}, {}
