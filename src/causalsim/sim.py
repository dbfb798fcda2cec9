"""Seeded discrete-event simulator for the replication protocol.

Nodes are actors driven by a single priority queue of timed events; a
(config, seed) pair fully determines the trace, byte for byte. The
network model delivers messages over per-pair FIFO links with configured
one-way delays (half the round-trip time) and optional seeded jitter.
The RTT config is fixed for a run, so each link's delay is computed once,
when the simulation is built (`Simulation.delays`). Messages are dropped
while a link is partitioned, an endpoint is crashed, or a scout is
disconnected; nothing is ever reordered within a link.

Faults are scheduled or scripted: DC crash, DC recovery, link partitions,
scout disconnection, and a targeted crash armed to fire right after a
commit is durably logged but before its reply is sent. A crash replaces
the DC with a replica rebuilt from its durable stream
(`DataCenter.from_durable`), so only durable state survives it; the
replica stays cut off from the network and its ticks until it recovers.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from causalsim import messages, mutants
from causalsim.clocks import clock_to_wire, vector_to_wire
from causalsim.crdt import ObjectId
from causalsim.dc import DataCenter, ack_wait_ticks
from causalsim.gcpause import gc_paused
# a wire tap replaces this module's `message_to_wire` (see `Simulation.send`);
# the benchmark's tracer wraps both names
from causalsim.messages import message_from_wire, message_kind, message_to_wire  # noqa: F401
from causalsim.scout import Scout, Unavailable

TRACE_SCHEMA = "causalsim-trace-1"

FAULT_KINDS = (
    "dc_crash",
    "dc_recover",
    "dc_crash_on_commit",
    "partition",
    "heal",
    "scout_disconnect",
    "scout_reconnect",
)


@dataclass
class FaultEvent:
    at: int
    kind: str  # one of FAULT_KINDS
    dc: Optional[int] = None
    scout: Optional[str] = None
    to: Optional[int] = None
    links: Optional[list[list[str]]] = None


@dataclass
class SimConfig:
    num_dcs: int = 3
    num_scouts: int = 1
    k: int = 2
    rtt_dc_ms: Optional[list[list[int]]] = None
    scout_rtt_ms: Optional[list[list[int]]] = None  # per-scout profile, cycled
    gossip_ms: int = 20
    notify_ms: int = 25
    prune_ms: int = 5000
    retry_ms: int = 400
    think_ms: int = 10
    cache_capacity: int = 512  # the evaluation's per-client cache size
    jitter_ms: int = 0
    seed: int = 1
    commit_target: str = "session"  # or "farthest"
    notify_mode: str = "effects"  # or "invalidations"
    faults: list[FaultEvent] = field(default_factory=list)
    mutations: list[str] = field(default_factory=list)  # `mutants.MUTATIONS` keys
    horizon_ms: int = 600_000
    drain_ms: int = 2000

    def validate(self) -> None:
        if not 1 <= self.k <= self.num_dcs:
            raise ValueError(f"k={self.k} must be within 1..{self.num_dcs}")
        if self.num_scouts < 0 or self.num_dcs < 1:
            raise ValueError("need at least one DC and non-negative scouts")
        if self.commit_target not in ("session", "farthest"):
            raise ValueError(f"unknown commit_target {self.commit_target!r}")
        if self.notify_mode not in ("effects", "invalidations"):
            raise ValueError(f"unknown notify_mode {self.notify_mode!r}")
        # a zero period reschedules its tick at the same instant for ever
        for key in ("gossip_ms", "notify_ms", "prune_ms", "retry_ms"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, not {getattr(self, key)}")
        if self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be non-negative, not {self.jitter_ms}")
        unknown = sorted(set(self.mutations) - mutants.MUTATIONS.keys())
        if unknown:
            raise ValueError(f"unknown mutations {unknown}; known: {list(mutants.MUTATIONS)}")
        for f in self.faults:
            if f.at < 0:
                raise ValueError("fault times must be non-negative")
            # checked here, since a fault past the horizon never fires
            if f.kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {f.kind!r}")
        if self.rtt_dc_ms is not None and (
            len(self.rtt_dc_ms) != self.num_dcs
            or any(len(row) != self.num_dcs for row in self.rtt_dc_ms)
        ):
            raise ValueError(f"rtt_dc_ms must be {self.num_dcs}x{self.num_dcs}")
        if self.scout_rtt_ms is not None and (
            not self.scout_rtt_ms or any(len(p) < self.num_dcs for p in self.scout_rtt_ms)
        ):
            raise ValueError(f"each scout_rtt_ms profile needs {self.num_dcs} entries")

    def dc_rtt(self, a: int, b: int) -> int:
        if a == b:
            return 0
        if self.rtt_dc_ms is None:
            return 100
        return self.rtt_dc_ms[a][b]

    def scout_rtt(self, scout_idx: int, dc: int) -> int:
        if self.scout_rtt_ms is None:
            return 30
        profile = self.scout_rtt_ms[scout_idx % len(self.scout_rtt_ms)]
        return profile[dc]


@dataclass
class RunResult:
    config: SimConfig
    trace: list[dict]
    dcs: list[DataCenter]
    scouts: dict[str, Scout]
    synced: bool
    stats: dict

    def trace_bytes(self) -> bytes:
        lines = [json.dumps(ev, sort_keys=True, separators=(",", ":")) for ev in self.trace]
        return ("\n".join(lines) + "\n").encode()


class ScriptDriver:
    """Runs a scout's scripted transactions as a generator. It yields a
    delay in ms to sleep, or None to wait on the scout's state, which the
    simulation re-checks after every message the scout handles."""

    def __init__(self, scout: Scout, script: list[dict], think_ms: int):
        self.scout = scout
        self.script = script
        self.think_ms = think_ms
        self.steps = None  # the generator, made on the first advance
        self.done = len(script) == 0
        self.sleeping = False

    def advance(self, sim) -> None:
        if self.done or self.sleeping:
            return
        if self.steps is None:
            self.steps = self._steps(sim)
        try:
            delay = next(self.steps)
        except StopIteration:
            self.done = True
            sim.script_finished(self.scout.id)
            return
        if delay is not None:
            self.sleeping = True
            sim.schedule(sim.now() + delay, "script", self.scout.id)

    def _steps(self, sim):
        scout = self.scout
        retry_ms = max(self.think_ms, sim.config.retry_ms)
        while not scout.ever_connected:
            yield None  # hold the very first transaction until storage is up
        for i, spec in enumerate(self.script):
            if i and self.think_ms > 0:
                yield self.think_ms
            if spec["kind"] == "stored":
                while not scout.connected:
                    yield retry_ms
                scout.exec_stored_tx(sim, spec["name"], spec["params"])
                while scout.stored is not None:
                    yield None
                continue
            while not (yield from self._tx(sim, spec["ops"])):
                yield retry_ms

    def _tx(self, sim, ops):
        """Run one transaction; return whether it committed."""
        scout = self.scout
        tx = scout.begin(sim)
        try:
            for op in ops:
                if op[0] in ("read", "multi"):
                    objs = [op[1]] if op[0] == "read" else op[1]
                    while not scout.multi_read(sim, tx, objs):
                        while scout.fetch is not None:
                            yield None
                        if tx.status != "active":
                            return False  # the fetch was pruned: the scout rolled back
                elif op[0] == "update":
                    scout.update(sim, tx, op[1], op[2])
                elif op[0] == "pin":
                    scout.pin(op[1])
                elif op[0] == "unpin":
                    scout.unpin(op[1])
                else:
                    raise ValueError(f"unknown op {op[0]!r}")
        except Unavailable:
            scout.rollback(sim, tx)
            return False
        scout.commit(sim, tx)
        return True


class Simulation:
    """Event loop, network model and fault injector; also the nodes' env."""

    def __init__(
        self,
        config: SimConfig,
        scripts: Optional[dict[str, list[dict]]] = None,
        initial_states: Optional[dict[ObjectId, Any]] = None,
        procedures: Optional[dict] = None,
    ):
        config.validate()
        self.config = config
        self.rng = random.Random(f"{config.seed}/net")
        self.time = 0
        self.seq = 0
        self.heap: list = []
        self.trace_log: list[dict] = []
        self._fifo: dict = {}
        self.partitions: set[frozenset] = set()
        self.disconnected: set[str] = set()
        self.crashed: set[int] = set()
        self.stats = {
            "messages": {},
            "dropped": 0,
            "max_pending_remote": 0,
            "max_pending_commits": 0,
            "frontier_lag_max": 0,
        }

        self.procedures = procedures or {}
        # the core node classes, or a negative control's (`causalsim.mutants`)
        self.dc_class, scout_class, hooks = mutants.compose(
            config.mutations, DataCenter, Scout
        )
        self.dcs = [
            self.dc_class(i, config.num_dcs, config.k, **self._dc_options(i))
            for i in range(config.num_dcs)
        ]
        if initial_states:
            for dc in self.dcs:
                dc.seed_store(dict(initial_states))

        self.scouts: dict[str, Scout] = {}
        self.drivers: dict[str, ScriptDriver] = {}
        scripts = scripts or {}
        for idx in range(config.num_scouts):
            sid = f"s{idx}"
            prefs = sorted(range(config.num_dcs), key=lambda d: (config.scout_rtt(idx, d), d))
            commit_dc = None
            if config.commit_target == "farthest":
                commit_dc = max(range(config.num_dcs), key=lambda d: (config.scout_rtt(idx, d), d))
            scout = scout_class(
                sid, config.num_dcs, config.cache_capacity, dc_preference=prefs, commit_dc=commit_dc
            )
            self.scouts[sid] = scout
            self.drivers[sid] = ScriptDriver(scout, scripts.get(sid, []), config.think_ms)
        # scout -> its last connectivity fault, when that is a disconnect:
        # once it fires, the scout is cut off for good
        self.final_cuts: dict[str, FaultEvent] = {}
        for f in sorted(config.faults, key=lambda f: f.at):  # the order they fire in
            if f.kind == "scout_disconnect":
                self.final_cuts[f.scout] = f
            elif f.kind == "scout_reconnect":
                self.final_cuts.pop(f.scout, None)
        self.cut_off: set[str] = set()
        # unfinished scripts of scouts that are not cut off for good
        self.live_scripts = sum(not d.done for d in self.drivers.values())

        # node address -> (kind, index), parsed once
        self.addrs: dict[str, tuple[str, int]] = {
            f"dc{i}": ("dc", i) for i in range(config.num_dcs)
        }
        self.addrs.update((sid, ("s", idx)) for idx, sid in enumerate(self.scouts))
        # (src, dst) -> one-way delay in ms, for every link that carries
        # messages; the RTT config does not change during a run
        self.delays: dict[tuple[str, str], int] = {}
        for i in range(config.num_dcs):
            for j in range(config.num_dcs):
                self.delays[f"dc{i}", f"dc{j}"] = max(config.dc_rtt(i, j) // 2, 0)
            for idx, sid in enumerate(self.scouts):
                delay = max(config.scout_rtt(idx, i) // 2, 0)
                self.delays[sid, f"dc{i}"] = self.delays[f"dc{i}", sid] = delay
        self.meta: dict = {}
        for hook in hooks:
            hook(self)

    def _dc_options(self, i: int) -> dict:
        """DC `i`'s constructor options, the same at start and after a crash."""
        config = self.config
        return dict(
            procedures=dict(self.procedures),
            notify_mode=config.notify_mode,
            ack_ticks=[
                ack_wait_ticks(
                    config.dc_rtt(i, j) // 2 + config.dc_rtt(j, i) // 2,
                    config.gossip_ms,
                    config.jitter_ms,
                )
                for j in range(config.num_dcs)
            ],
        )

    # -- env interface -------------------------------------------------------

    def now(self) -> int:
        return self.time

    def trace(self, ev: dict) -> None:
        out = {"t": self.time}
        out.update(ev)
        self.trace_log.append(out)

    def schedule(self, at: int, kind: str, payload) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (at, self.seq, kind, payload))

    def send(self, src: str, dst: str, msg) -> None:
        """Schedule the delivery of the message object itself. A message is
        encoded only for a wire tap: a replacement of this module's
        `message_to_wire`, which sees every message sent, dropped or not."""
        if message_to_wire is not messages.message_to_wire:
            message_to_wire(msg)
        kind = message_kind(msg)
        self.stats["messages"][kind] = self.stats["messages"].get(kind, 0) + 1
        if self._blocked(src, dst):
            self.stats["dropped"] += 1
            return
        link = (src, dst)
        at = self.time + self.delays[link]
        if self.config.jitter_ms:
            at += self.rng.randint(0, self.config.jitter_ms)
        last = self._fifo.get(link, 0)
        if at < last:
            at = last
        self._fifo[link] = at
        self.schedule(at, "deliver", (src, dst, msg))

    def request_crash(self, dc_id: int) -> None:
        self._crash_dc(dc_id)

    # -- network model ---------------------------------------------------------

    def _blocked(self, a: str, b: str) -> bool:
        if not (self.partitions or self.crashed or self.disconnected):
            return False
        if frozenset((a, b)) in self.partitions:
            return True
        for n in (a, b):
            kind, idx = self.addrs[n]
            if kind == "dc" and idx in self.crashed:
                return True
            if n in self.disconnected:
                return True
        return False

    # -- faults ------------------------------------------------------------------

    def _crash_dc(self, dc_id: int) -> None:
        self.crashed.add(dc_id)
        dc = self.dcs[dc_id]
        # the crashed instance may be inside a handler: it must do no more
        dc.dead = True
        self.dcs[dc_id] = self.dc_class.from_durable(
            dc.durable_snapshot(), dc.num_dcs, dc.k, **self._dc_options(dc_id)
        )
        self.trace({"ev": "fault", "kind": "dc_crash", "dc": dc_id})
        for scout in self.scouts.values():
            if scout.session == dc_id:
                scout.on_session_lost(self)
                scout.ensure_session(self)

    def _apply_fault(self, f: FaultEvent) -> None:
        if f.kind == "dc_crash":
            self._crash_dc(f.dc)
        elif f.kind == "dc_crash_on_commit":
            self.dcs[f.dc].crash_on_next_commit = True
            self.trace({"ev": "fault", "kind": "dc_crash_on_commit", "dc": f.dc})
        elif f.kind == "dc_recover":
            self.crashed.discard(f.dc)
            self.trace({"ev": "fault", "kind": "dc_recover", "dc": f.dc})
        elif f.kind == "partition":
            for a, b in f.links:
                self.partitions.add(frozenset((a, b)))
            self.trace({"ev": "fault", "kind": "partition", "links": f.links})
        elif f.kind == "heal":
            for a, b in f.links:
                self.partitions.discard(frozenset((a, b)))
            self.trace({"ev": "fault", "kind": "heal", "links": f.links})
        elif f.kind == "scout_disconnect":
            self.disconnected.add(f.scout)
            self.trace({"ev": "fault", "kind": "scout_disconnect", "scout": f.scout})
            self.scouts[f.scout].on_session_lost(self)
            if self.final_cuts.get(f.scout) is f:
                self.cut_off.add(f.scout)
                if not self.drivers[f.scout].done:
                    self.live_scripts -= 1
        elif f.kind == "scout_reconnect":
            self.disconnected.discard(f.scout)
            scout = self.scouts[f.scout]
            if f.to is not None:
                scout.forced_target = f.to
                if scout.session is not None and scout.session != f.to:
                    scout.on_session_lost(self)
            self.trace({"ev": "fault", "kind": "scout_reconnect", "scout": f.scout, "to": f.to})
            scout.ensure_session(self)
        else:
            raise ValueError(f"unknown fault kind {f.kind!r}")

    # -- main loop -------------------------------------------------------------------

    @gc_paused()
    def run(self) -> RunResult:
        header = {
            "ev": "config",
            "schema": TRACE_SCHEMA,
            "seed": self.config.seed,
            "k": self.config.k,
            "num_dcs": self.config.num_dcs,
            "num_scouts": self.config.num_scouts,
            "mutations": list(self.config.mutations),
        }
        header.update(self.meta)
        self.trace(header)
        for f in sorted(self.config.faults, key=lambda f: f.at):
            self.schedule(f.at, "fault", f)
        for dc in self.dcs:
            self.schedule(self.config.gossip_ms, "gossip", dc.id)
            self.schedule(self.config.notify_ms, "notify", dc.id)
            self.schedule(self.config.prune_ms, "prune", dc.id)
        for sid, scout in self.scouts.items():
            self.schedule(0, "init", sid)
            self.schedule(self.config.retry_ms, "retry", sid)

        scripts_done_at: Optional[int] = None
        stranded = False  # a script is left unfinished on a scout cut off for good
        fault_horizon = max((f.at for f in self.config.faults), default=-1)
        synced = False
        while self.heap:
            at, _, kind, payload = heapq.heappop(self.heap)
            if at > self.config.horizon_ms:
                break
            self.time = at
            self._handle(kind, payload)
            if scripts_done_at is None and not self.live_scripts:
                # every script is done, or waits on a scout that never
                # reconnects; such a run drains, then ends unsynced
                scripts_done_at = self.time
                stranded = not all(d.done for d in self.drivers.values())
            if scripts_done_at is not None and self.time > fault_horizon:
                # in-flight heartbeats cannot unsync an already-synced state,
                # so the stop check ignores them
                if not stranded and self._fully_synced():
                    synced = True
                    break
                if self.time >= max(scripts_done_at, fault_horizon) + self.config.drain_ms:
                    break
        for driver in self.drivers.values():
            if driver.steps is not None:
                driver.steps.close()  # a suspended script holds its driver and the run
        self._finalize(synced)
        return RunResult(
            config=self.config,
            trace=self.trace_log,
            dcs=self.dcs,
            scouts=self.scouts,
            synced=synced,
            stats=self.stats,
        )

    def _handle(self, kind: str, payload) -> None:
        if kind == "deliver":
            src, dst, msg = payload
            if self._blocked(src, dst):
                self.stats["dropped"] += 1
                return
            dst_kind, idx = self.addrs[dst]
            if dst_kind == "dc":
                self.dcs[idx].dispatch(self, msg)
                dc = self.dcs[idx]  # a crash in the handler replaced it
                self.stats["max_pending_remote"] = max(
                    self.stats["max_pending_remote"], len(dc.pending_remote)
                )
                self.stats["max_pending_commits"] = max(
                    self.stats["max_pending_commits"], len(dc.pending_commits)
                )
            else:
                self.scouts[dst].dispatch(self, msg)
                self.drivers[dst].advance(self)
        elif kind == "fault":
            self._apply_fault(payload)
        elif kind == "gossip":
            dc = self.dcs[payload]
            if payload not in self.crashed:
                dc.gossip_tick(self)
                lag = sum(dc.vdc) - sum(dc.announceable_frontier())
                self.stats["frontier_lag_max"] = max(self.stats["frontier_lag_max"], lag)
            self.schedule(self.time + self.config.gossip_ms, "gossip", payload)
        elif kind == "notify":
            if payload not in self.crashed:
                self.dcs[payload].notify_tick(self)
            self.schedule(self.time + self.config.notify_ms, "notify", payload)
        elif kind == "prune":
            if payload not in self.crashed:
                self.dcs[payload].prune_tick(self)
            self.schedule(self.time + self.config.prune_ms, "prune", payload)
        elif kind == "init":
            self.scouts[payload].ensure_session(self)
        elif kind == "retry":
            scout = self.scouts[payload]
            if payload not in self.disconnected:
                scout.retry_tick(self)
            self.schedule(self.time + self.config.retry_ms, "retry", payload)
        elif kind == "script":
            driver = self.drivers[payload]
            driver.sleeping = False
            driver.advance(self)
        else:
            raise ValueError(f"unknown event kind {kind!r}")

    def script_finished(self, sid: str) -> None:
        if sid not in self.cut_off:
            self.live_scripts -= 1

    def _fully_synced(self) -> bool:
        live = [dc for dc in self.dcs if dc.id not in self.crashed]
        if not live:
            return False
        for dc in live:
            if dc.pending_remote or dc.pending_commits or dc.pending_fetches or dc.pending_stored:
                return False
            if dc.vdc != live[0].vdc:
                return False
            for peer in live:
                if peer.id != dc.id and dc.known_vectors.get(peer.id) != peer.vdc:
                    return False
        for sid, scout in self.scouts.items():
            if sid in self.disconnected:
                continue
            if not scout.connected or scout.probe_inflight is not None:
                return False
            if scout.pending or scout.fetch is not None or scout.stored is not None:
                return False
        return True

    def _finalize(self, synced: bool) -> None:
        dcs_out = {}
        for dc in self.dcs:
            if dc.id in self.crashed:
                continue
            dcs_out[f"dc{dc.id}"] = {
                "vdc": vector_to_wire(dc.vdc),
                "values": {
                    f"{obj.key}#{obj.crdt_type.value}": value
                    for obj, value in dc.object_values().items()
                },
            }
        scouts_out = {
            sid: {
                "clock": clock_to_wire(s.clock),
                "pending": len(s.pending),
                "connected": s.connected,
            }
            for sid, s in sorted(self.scouts.items())
        }
        self.trace(
            {
                "ev": "quiesce",
                "synced": synced,
                "dcs": dcs_out,
                "scouts": scouts_out,
                "crashed": sorted(self.crashed),
            }
        )
