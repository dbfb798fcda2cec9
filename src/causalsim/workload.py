"""Workload generation: a social-network analog and a counter-churn stressor.

Scripts are deterministic functions of (config, seed): each scout gets a
list of transaction specs the simulator's driver executes. The social
data model keeps one mergeable map per user holding a profile register
and add-wins sets for wall posts, events, friend requests and friends.
Users and the symmetric friendship graph are created before the run by
seeding identical checkpoints at every DC, which sidesteps the uniqueness
problem of registration transactions.
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


def social_scripts(
    cfg: SocialConfig,
    num_scouts: int,
    seed,
    cache_capacity: int,
    graph: Optional[dict[int, list[int]]] = None,
) -> dict[str, list[dict]]:
    """Per-scout scripts; `graph` is the seed's friend graph, built here
    when the caller has not built it already."""
    cfg.validate()
    rng = random.Random(f"{seed}/social")
    if graph is None:
        graph = friend_graph(cfg, random.Random(f"{seed}/graph"))
    scripts: dict[str, list[dict]] = {}
    for idx in range(num_scouts):
        sid = f"s{idx}"
        script: list[dict] = []
        post_n = 0
        for _ in range(cfg.sessions_per_scout):
            me = rng.randrange(cfg.users)
            circle = [me] + graph[me]
            pinned = [user_object(u) for u in circle]
            if cfg.pin_friends and cache_capacity:
                pinned = pinned[: max(cache_capacity - 8, 1)]
            login_ops = [("read", user_object(me)), ("multi", [user_object(f) for f in graph[me]])]
            if cfg.pin_friends and cache_capacity:
                login_ops.append(("pin", pinned))
            script.append({"kind": "tx", "label": "login", "ops": login_ops})
            for _ in range(cfg.session_length):
                local = rng.random() < cfg.locality
                update = rng.random() < cfg.update_fraction
                target = rng.choice(circle) if local else rng.randrange(cfg.users)
                if not update:
                    label = "view_wall" if rng.random() < 0.7 else "list_friends"
                    script.append(
                        {"kind": "tx", "label": label, "ops": [("read", user_object(target))]}
                    )
                    continue
                post_n += 1
                kind = rng.random()
                if kind < 0.5 or target == me:
                    # status post on own wall, event logged atomically
                    script.append(
                        {
                            "kind": "tx",
                            "label": "post_status",
                            "ops": [
                                ("read", user_object(me)),
                                ("update", user_object(me), _wall_add(sid, post_n)),
                                ("update", user_object(me), _event_add(sid, post_n)),
                            ],
                        }
                    )
                elif kind < 0.8:
                    # message: target's wall and own event set, atomically
                    script.append(
                        {
                            "kind": "tx",
                            "label": "message",
                            "ops": [
                                ("multi", [user_object(me), user_object(target)]),
                                ("update", user_object(target), _wall_add(sid, post_n)),
                                ("update", user_object(me), _event_add(sid, post_n)),
                            ],
                        }
                    )
                else:
                    # friendship accept updates both friend sets
                    script.append(
                        {
                            "kind": "tx",
                            "label": "accept_friendship",
                            "ops": [
                                ("multi", [user_object(me), user_object(target)]),
                                ("update", user_object(me), _friend_add(target)),
                                ("update", user_object(target), _friend_add(me)),
                            ],
                        }
                    )
            logout_ops = [("unpin", pinned)] if cfg.pin_friends and cache_capacity else []
            script.append({"kind": "tx", "label": "logout", "ops": logout_ops})
        scripts[sid] = script
    return scripts


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


def _social_config(workload_cfg: dict) -> SocialConfig:
    return SocialConfig(
        users=workload_cfg.get("users", 100),
        friends_per_user=workload_cfg.get("friends", 10),
        update_fraction=workload_cfg.get("update_fraction", 0.10),
        locality=workload_cfg.get("locality", 0.90),
        session_length=workload_cfg.get("session_length", 50),
        sessions_per_scout=workload_cfg.get("sessions", 2),
        pin_friends=workload_cfg.get("pin", True),
    )


def initial_states_for(workload_cfg: dict, seed) -> dict[ObjectId, object]:
    """The pre-run object states a workload seeds at every DC."""
    if kind_of(workload_cfg) != "social":
        return {}
    cfg = _social_config(workload_cfg)
    graph = friend_graph(cfg, random.Random(f"{seed}/graph"))
    return initial_states(cfg, graph)


def build(workload_cfg: dict, num_scouts: int, seed, cache_capacity: int):
    """Produce (scripts, initial_states, procedures) for a workload config."""
    kind = kind_of(workload_cfg)
    if kind == "social":
        cfg = _social_config(workload_cfg)
        graph = friend_graph(cfg, random.Random(f"{seed}/graph"))
        return (
            social_scripts(cfg, num_scouts, seed, cache_capacity, graph),
            initial_states(cfg, graph),
            {},
        )
    if kind == "counter_churn":
        return (
            counter_scripts(
                num_scouts,
                workload_cfg.get("txs_per_scout", 20),
                workload_cfg.get("counters", 3),
                seed,
            ),
            {},
            {},
        )
    if kind == "none":
        return {}, {}, {}
    raise ValueError(f"unknown workload kind {kind!r}")
