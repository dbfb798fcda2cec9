"""Workload generation: a social-network analog and a counter-churn stressor.

Scripts are deterministic functions of (config, seed): each scout gets a
list of transaction specs the simulator's driver executes. The social
data model keeps one mergeable map per user holding a profile register
and add-wins sets for wall posts, events, friend requests and friends.
Users and the symmetric friendship graph are created before the run by
seeding identical checkpoints at every DC, which sidesteps the uniqueness
problem of registration transactions.

Social scripts are made in two steps: `social_plan` makes every random
draw and returns each session's actions as labels, targets and post
numbers, and `scripts_from_plan` turns that plan into ops. The checker
needs only the labels, so it builds the plan and no script.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from causalsim.crdt import AwSetState, CmapState, CrdtType, EffectTag, LwwState, ObjectId

PROFILE = ("profile", CrdtType.LWW_REGISTER)
WALL = ("wall", CrdtType.AW_SET)
EVENTS = ("events", CrdtType.AW_SET)
FRIEND_REQ = ("freq", CrdtType.AW_SET)
FRIENDS = ("friends", CrdtType.AW_SET)


@dataclass
class SocialConfig:
    users: int = 100
    friends_per_user: int = 10
    update_fraction: float = 0.10
    locality: float = 0.90
    session_length: int = 50
    sessions_per_scout: int = 2
    pin_friends: bool = True

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
    k = min(cfg.friends_per_user, len(others))
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
        for _ in range(cfg.sessions_per_scout):
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
    pins = cfg.pin_friends and cache_capacity
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


def kind_of(workload_cfg: dict) -> str:
    """A workload config's kind; a config without one is social."""
    return workload_cfg.get("kind", "social")


# a social config's keys -> the `SocialConfig` fields they set
SOCIAL_KEYS = {
    "users": "users",
    "friends": "friends_per_user",
    "update_fraction": "update_fraction",
    "locality": "locality",
    "session_length": "session_length",
    "sessions": "sessions_per_scout",
    "pin": "pin_friends",
}
# a counter churn config's keys and their defaults
CHURN_DEFAULTS = {"txs_per_scout": 20, "counters": 3}


def _check_keys(workload_cfg: dict, known) -> None:
    unknown = sorted(set(workload_cfg) - {"kind", *known})
    if unknown:
        raise ValueError(
            f"unknown {kind_of(workload_cfg)} workload keys {unknown}; known: {sorted(known)}"
        )


def _social_config(workload_cfg: dict) -> SocialConfig:
    """The keys given, mapped to their fields; the dataclass gives the rest."""
    _check_keys(workload_cfg, SOCIAL_KEYS)
    return SocialConfig(
        **{field: workload_cfg[key] for key, field in SOCIAL_KEYS.items() if key in workload_cfg}
    )


def initial_states_for(workload_cfg: dict, seed) -> dict[ObjectId, object]:
    """The pre-run object states a workload seeds at every DC."""
    if kind_of(workload_cfg) != "social":
        return {}
    cfg = _social_config(workload_cfg)
    return initial_states(cfg, _graph(cfg, seed))


def social_labels_and_states(workload_cfg: dict, num_scouts: int, seed) -> tuple[dict, dict]:
    """Each scout's transaction labels in script order, and the initial
    states, for a social workload config: what `build` gives less the ops,
    from the friend graph and the plan alone."""
    cfg = _social_config(workload_cfg)
    graph = _graph(cfg, seed)
    labels = plan_labels(social_plan(cfg, num_scouts, seed, graph))
    return labels, initial_states(cfg, graph)


def build(workload_cfg: dict, num_scouts: int, seed, cache_capacity: int):
    """Produce (scripts, initial_states, procedures) for a workload config."""
    kind = kind_of(workload_cfg)
    if kind == "social":
        cfg = _social_config(workload_cfg)
        graph = _graph(cfg, seed)
        return (
            social_scripts(cfg, num_scouts, seed, cache_capacity, graph),
            initial_states(cfg, graph),
            {},
        )
    if kind == "counter_churn":
        _check_keys(workload_cfg, CHURN_DEFAULTS)
        cfg = {**CHURN_DEFAULTS, **workload_cfg}
        return counter_scripts(num_scouts, cfg["txs_per_scout"], cfg["counters"], seed), {}, {}
    if kind == "none":
        _check_keys(workload_cfg, ())
        return {}, {}, {}
    raise ValueError(f"unknown workload kind {kind!r}")
