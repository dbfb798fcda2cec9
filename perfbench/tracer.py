"""Outside-in layer tracer for one checked run.

The tracer wraps public entry points of the causalsim modules at class or
module level, records a span (name, start, end, parent, event id) for each
timed call and a count for each counted call, and restores every patched
attribute when it is removed. It never wraps an instance, so a node that the
simulator rebuilds is still measured. Self time is a span's duration minus
the durations of its direct children. Counts of very hot calls
(``VersionVector.covers``, ``apply_effect``, ``Simulation.schedule``) are
kept without spans so that the trace stays small.

Per-layer metrics are computed from the spans, the counts, the simulator's
own message counts, and the events it already writes into its trace (read
``src`` and ``apply``). ``run_layers`` gives one run's self times and raw
counts; ``pool`` turns rounds of them into the reported metrics.
"""

from __future__ import annotations

import heapq
import json
import types
from collections import Counter
from contextlib import contextmanager
from statistics import mean, median
from time import perf_counter_ns

from causalsim import checker, clocks, dc, scenarios, scout, sim, workload

MESSAGE_KINDS = (
    "session_req",
    "session_rep",
    "commit_req",
    "commit_rep",
    "fetch_req",
    "fetch_rep",
    "stored_req",
    "stored_rep",
    "gossip",
    "notify",
)

# DataCenter.dispatch and Scout.dispatch are split into one span per
# message class, named after the handler the class reaches
DC_HANDLERS = {
    "CommitRequest": "dc.on_commit",
    "GossipBatch": "dc.on_gossip",
    "FetchRequest": "dc.on_fetch",
    "SessionRequest": "dc.on_session",
    "StoredTxRequest": "dc.on_stored",
}
SCOUT_HANDLERS = {
    "CommitReply": "scout.on_commit_reply",
    "FetchReply": "scout.on_fetch_reply",
    "NotifyBatch": "scout.on_notify",
    "SessionReply": "scout.on_session_reply",
    "StoredTxReply": "scout.on_stored_reply",
}
DC_TICKS = ("gossip_tick", "notify_tick", "prune_tick")
TX_API = ("begin", "read", "multi_read", "update", "commit", "rollback")
CHECK_NAMES = tuple(c.__name__.removeprefix("check_") for c in checker.ALL_CHECKS)

# every per-layer metric a traced run reports, in report order
LAYER_METRICS = (
    ["sim.self_s", "sim.events", "sim.trace_events", "sim.dropped"]
    + ["sim.max_pending_remote", "sim.max_pending_commits"]
    + ["messages.encode_s", "messages.decode_s"]
    + [f"messages.{k}.{m}" for k in MESSAGE_KINDS for m in ("count", "bytes")]
    + ["crdt.state_to_wire_s", "crdt.state_from_wire_s", "crdt.state_to_wire.calls"]
    + ["crdt.apply_effect.dc", "crdt.apply_effect.scout", "crdt.apply_effect.checker"]
    + ["clocks.covers.calls", "clocks.leq.calls"]
    + [f"{n}{suffix}" for n in DC_HANDLERS.values() for suffix in ("_s", ".calls")]
    + [f"dc.{t}{suffix}" for t in DC_TICKS for suffix in ("_s", ".calls")]
    + ["dc.gossip_record_copies", "dc.gossip_useful_ratio", "dc.commit_dup_ratio"]
    + ["dc.log_len_max"]
    + [f"{n}_s" for n in SCOUT_HANDLERS.values()]
    + ["scout.retry_tick_s", "scout.tx_api_s", "scout.cache_hit_ratio"]
    + ["scout.commit_resends", "scout.failovers", "scout.fetches_per_tx"]
    + ["workload.build_s", "scenarios.build_simulation_s"]
    + ["checker.parse_s"]
    + [f"checker.{c}_s" for c in CHECK_NAMES]
    + ["checker.staleness_s", "checker.latency_s", "checker.records", "checker.reads"]
    + ["trace.overhead_s"]
)

# ratio metric -> (numerator, denominator), raw counts pooled over scenarios
RATIOS = {
    "dc.gossip_useful_ratio": ("apply.gossip", "dc.gossip_record_copies"),
    "dc.commit_dup_ratio": ("commit_dups", "dc.on_commit.calls"),
    "scout.cache_hit_ratio": ("reads_cached", "reads"),
    "scout.fetches_per_tx": ("messages.fetch_req.count", "tx_begin"),
}
# peaks: the largest over the scenarios, not their sum
MAXIMA = ("sim.max_pending_remote", "sim.max_pending_commits", "dc.log_len_max")


def wire_bytes(wire: dict) -> int:
    """Length of a wire dict's canonical compact JSON."""
    return len(json.dumps(wire, sort_keys=True, separators=(",", ":")))


class Tracer:
    """Spans and counts for one traced checked run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent span index or -1, event id)
        self.spans: list = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.msg_bytes: Counter = Counter()
        self.log_len_max = 0
        self.event = 0
        self.analysis = None
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._commit_sent: set = set()

    # -- recording -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def timed(self, name: str, fn):
        """Wrap ``fn`` so each call records one span named ``name``."""
        nid = self._nid(name)
        spans, stack, self_ns, calls = self.spans, self._stack, self.self_ns, self.calls

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent_idx = parent[0]
                else:
                    parent_idx = -1
                spans[idx] = (nid, start, end, parent_idx, self.event)
                self_ns[nid] += dur - frame[1]
                calls[nid] += 1

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so each call increments the count ``name``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_s(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def n_calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.calls[nid]

    # -- wrappers with side measurements -----------------------------------------

    def _encoder(self, encode):
        timed_encode = self.timed("messages.encode", encode)
        # byte counting is tracer work; its own span keeps it out of the
        # caller's self time
        measure = self.timed("trace.bytes", wire_bytes)

        def message_to_wire(msg):
            wire = timed_encode(msg)
            kind = wire["m"]
            self.msg_bytes[kind] += measure(wire)
            if kind == "gossip":
                self.counts["dc.gossip_record_copies"] += len(wire["records"])
            elif kind == "commit_req":
                key = (wire["scout"], tuple(wire["otid"]))
                if key in self._commit_sent:
                    self.counts["scout.commit_resends"] += 1
                self._commit_sent.add(key)
            return wire

        return message_to_wire

    def _splitter(self, layer: str, dispatch, handlers: dict):
        by_class = {cls: self.timed(name, dispatch) for cls, name in handlers.items()}
        other = self.timed(f"{layer}.dispatch_other", dispatch)

        def split_dispatch(node, env, msg):
            return by_class.get(type(msg).__name__, other)(node, env, msg)

        return split_dispatch

    def _gossip_tick(self, tick):
        timed_tick = self.timed("dc.gossip_tick", tick)

        def gossip_tick(node, env):
            self.log_len_max = max(self.log_len_max, len(node.log))
            return timed_tick(node, env)

        return gossip_tick

    def _parse(self, init):
        timed_init = self.timed("checker.parse", init)

        def __init__(analysis, trace):
            timed_init(analysis, trace)
            self.analysis = analysis

        return __init__

    def _heap(self):
        # stands in for ``heapq`` inside causalsim.sim: the event loop pops
        # one event per heappop, which numbers the events
        def heappop(heap):
            self.event += 1
            return heapq.heappop(heap)

        return types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop)

    # -- installation ---------------------------------------------------------------

    def _patches(self):
        """(owner, attribute, replacement) for every wrapped entry point."""
        out = [
            (sim, "heapq", self._heap()),
            (sim.Simulation, "schedule", self.counted("sim.events", sim.Simulation.schedule)),
            (sim, "message_to_wire", self._encoder(sim.message_to_wire)),
            (sim, "message_from_wire", self.timed("messages.decode", sim.message_from_wire)),
            (dc, "state_to_wire", self.timed("crdt.state_to_wire", dc.state_to_wire)),
            (scout, "state_from_wire", self.timed("crdt.state_from_wire", scout.state_from_wire)),
            (clocks.VersionVector, "covers", self.counted("clocks.covers.calls", clocks.VersionVector.covers)),
            (clocks.VersionVector, "leq", self.counted("clocks.leq.calls", clocks.VersionVector.leq)),
            (dc.DataCenter, "dispatch", self._splitter("dc", dc.DataCenter.dispatch, DC_HANDLERS)),
            (dc.DataCenter, "gossip_tick", self._gossip_tick(dc.DataCenter.gossip_tick)),
            (scout.Scout, "dispatch", self._splitter("scout", scout.Scout.dispatch, SCOUT_HANDLERS)),
            (scout.Scout, "retry_tick", self.timed("scout.retry_tick", scout.Scout.retry_tick)),
            (checker.TraceAnalysis, "__init__", self._parse(checker.TraceAnalysis.__init__)),
            (checker, "measure_staleness", self.timed("checker.staleness", checker.measure_staleness)),
            (checker, "measure_latency", self.timed("checker.latency", checker.measure_latency)),
            (workload, "build", self.timed("workload.build", workload.build)),
            (scenarios, "build_simulation", self.timed("scenarios.build_simulation", scenarios.build_simulation)),
        ]
        for module, layer in ((dc, "dc"), (scout, "scout"), (checker, "checker")):
            out.append((module, "apply_effect", self.counted(f"crdt.apply_effect.{layer}", module.apply_effect)))
        for tick in DC_TICKS[1:]:
            out.append((dc.DataCenter, tick, self.timed(f"dc.{tick}", getattr(dc.DataCenter, tick))))
        for name in TX_API:
            out.append((scout.Scout, name, self.timed("scout.tx_api", getattr(scout.Scout, name))))
        return out

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        saved = []
        checks = list(checker.ALL_CHECKS)
        try:
            for owner, attr, new in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, new)
            # run_checks iterates this list, so wrap its entries in place
            checker.ALL_CHECKS[:] = [
                self.timed(f"checker.{c.__name__.removeprefix('check_')}", c) for c in checks
            ]
            yield self
        finally:
            checker.ALL_CHECKS[:] = checks
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    # -- output -----------------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per span: name, start ns, end ns, parent, event."""
        names = self.names
        with open(path, "w") as f:
            for nid, start, end, parent, event in self.spans:
                f.write(f'["{names[nid]}",{start},{end},{parent},{event}]\n')


def run_layers(tr: Tracer, trace: list[dict], stats: dict) -> dict:
    """Self times (keys ending ``_s``) and raw counts of one traced checked
    run: every metric in ``LAYER_METRICS`` but ``trace.overhead_s``, which
    needs the untraced runs too, and the raw parts of the ratios."""
    ev = Counter()
    last_dc: dict[str, int] = {}
    for e in trace:
        kind = e["ev"]
        if kind == "apply":
            ev[f"apply.{e['via']}"] += 1
        elif kind == "read":
            ev["reads"] += 1
            ev["reads_cached"] += e["src"] == "cache"
        elif kind == "tx_begin":
            ev["tx_begin"] += 1
        elif kind == "session" and e["result"] == "connected":
            prev = last_dc.get(e["node"])
            if prev is not None and prev != e["dc"]:
                ev["scout.failovers"] += 1
            last_dc[e["node"]] = e["dc"]

    m = {
        "sim.self_s": tr.self_s("sim.run"),
        "sim.events": tr.counts["sim.events"],
        "sim.trace_events": len(trace),
        "sim.dropped": stats["dropped"],
        "sim.max_pending_remote": stats["max_pending_remote"],
        "sim.max_pending_commits": stats["max_pending_commits"],
        "messages.encode_s": tr.self_s("messages.encode"),
        "messages.decode_s": tr.self_s("messages.decode"),
    }
    for k in MESSAGE_KINDS:
        m[f"messages.{k}.count"] = stats["messages"].get(k, 0)
        m[f"messages.{k}.bytes"] = tr.msg_bytes[k]
    m["crdt.state_to_wire_s"] = tr.self_s("crdt.state_to_wire")
    m["crdt.state_from_wire_s"] = tr.self_s("crdt.state_from_wire")
    m["crdt.state_to_wire.calls"] = tr.n_calls("crdt.state_to_wire")
    for layer in ("dc", "scout", "checker"):
        m[f"crdt.apply_effect.{layer}"] = tr.counts[f"crdt.apply_effect.{layer}"]
    m["clocks.covers.calls"] = tr.counts["clocks.covers.calls"]
    m["clocks.leq.calls"] = tr.counts["clocks.leq.calls"]
    for name in list(DC_HANDLERS.values()) + [f"dc.{t}" for t in DC_TICKS]:
        m[f"{name}_s"] = tr.self_s(name)
        m[f"{name}.calls"] = tr.n_calls(name)
    m["dc.gossip_record_copies"] = tr.counts["dc.gossip_record_copies"]
    m["dc.log_len_max"] = tr.log_len_max
    for name in SCOUT_HANDLERS.values():
        m[f"{name}_s"] = tr.self_s(name)
    m["scout.retry_tick_s"] = tr.self_s("scout.retry_tick")
    m["scout.tx_api_s"] = tr.self_s("scout.tx_api")
    m["scout.commit_resends"] = tr.counts["scout.commit_resends"]
    m["scout.failovers"] = ev["scout.failovers"]
    m["workload.build_s"] = tr.self_s("workload.build")
    m["scenarios.build_simulation_s"] = tr.self_s("scenarios.build_simulation")
    m["checker.parse_s"] = tr.self_s("checker.parse")
    for c in CHECK_NAMES:
        m[f"checker.{c}_s"] = tr.self_s(f"checker.{c}")
    m["checker.staleness_s"] = tr.self_s("checker.staleness")
    m["checker.latency_s"] = tr.self_s("checker.latency")
    m["checker.records"] = len(tr.analysis.records) if tr.analysis else 0
    m["checker.reads"] = len(tr.analysis.reads) if tr.analysis else 0
    # raw parts of the ratios
    m["apply.gossip"] = ev["apply.gossip"]
    m["commit_dups"] = m["dc.on_commit.calls"] - ev["apply.commit"]
    m["reads_cached"] = ev["reads_cached"]
    m["reads"] = ev["reads"]
    m["tx_begin"] = ev["tx_begin"]
    return m


def round_median(rounds: list[list], key) -> float:
    """Median over the rounds of the mean of ``key`` over a round's runs.

    ``rounds`` holds one run of each scenario per round, so every round
    weighs the scenarios alike.
    """
    return median(mean(key(r) for r in rnd) for rnd in rounds)


def pool(rounds: list[list[dict]]) -> dict:
    """The metrics of ``LAYER_METRICS`` that ``run_layers`` gives, from rounds
    of its records, one record per scenario in each round.

    Counts repeat exactly for a scenario, so they come from the first round
    alone: summed over its scenarios (peaks: the largest), and each ratio is
    the pooled numerator over the pooled denominator. A self time is the
    ``round_median``.
    """
    first = rounds[0]
    out = {}
    for name in LAYER_METRICS:
        if name not in first[0] and name not in RATIOS:
            continue
        if name.endswith("_s"):
            out[name] = round_median(rounds, lambda r: r[name])
        elif name in RATIOS:
            num, den = (sum(r[k] for r in first) for k in RATIOS[name])
            out[name] = num / den if den else 0.0
        elif name in MAXIMA:
            out[name] = max(r[name] for r in first)
        else:
            out[name] = sum(r[name] for r in first)
    return out
