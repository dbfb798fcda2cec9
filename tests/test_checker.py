import functools
import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from causalsim import checker, workload
from causalsim.checker import (
    ReadInfo,
    TraceAnalysis,
    _closure_bounds,
    _closure_violations,
    _oracle_without,
    check_atomicity,
    check_causal_snapshots,
    check_convergence,
    check_exactly_once,
    check_history_acyclic,
    check_session_guarantees,
    measure_latency,
    measure_staleness,
    percentile,
    run_checks,
)
from causalsim.crdt import CrdtType, EffectTag, ObjectId, apply_effect, effect_from_wire, new_state, prepare
from causalsim.crdt import effect_to_wire, value_to_wire
from causalsim.scenarios import load_scenario, run_scenario
from test_pins import RUNS, pinned_run

CTR = ("ctr", "counter")
SET = ("s", "awset")


def inc_effect(amount, counter=1, origin="w", seq=0):
    e = prepare(
        ObjectId("ctr", CrdtType.COUNTER),
        new_state(CrdtType.COUNTER),
        ("inc", amount),
        EffectTag(counter, origin, seq),
    )
    return effect_to_wire(e)


def add_effect(elem, counter=1, origin="w", seq=0):
    e = prepare(
        ObjectId("s", CrdtType.AW_SET),
        new_state(CrdtType.AW_SET),
        ("add", elem),
        EffectTag(counter, origin, seq),
    )
    return effect_to_wire(e)


def header(num_dcs=2, k=2):
    return {
        "t": 0,
        "ev": "config",
        "schema": "causalsim-trace-1",
        "seed": 0,
        "k": k,
        "num_dcs": num_dcs,
        "num_scouts": 2,
        "mutations": [],
        "scenario": {"workload": {"kind": "none"}},
    }


def apply_ev(t, dc, otid, gtids, objs, effects=None, deps=None, via="commit"):
    return {
        "t": t,
        "ev": "apply",
        "node": f"dc{dc}",
        "otid": list(otid),
        "gtids": [list(g) for g in gtids],
        "via": via,
        "objs": [list(o) for o in objs],
        "deps": deps or [[0, 0], 0],
        "effects": effects,
    }


def begin_ev(t, scout, otid, snap):
    return {"t": t, "ev": "tx_begin", "node": scout, "otid": list(otid), "snap": snap}


def read_ev(t, scout, otid, obj, value, ver, src="cache", dc=0):
    return {
        "t": t,
        "ev": "read",
        "node": scout,
        "otid": list(otid),
        "obj": list(obj),
        "value": value,
        "ver": ver,
        "src": src,
        "dc": dc,
    }


def commit_ev(t, scout, otid, deps, objs=(), read_only=True, rts=0, dur=0):
    return {
        "t": t,
        "ev": "local_commit",
        "node": scout,
        "otid": list(otid),
        "deps": deps,
        "objs": [list(o) for o in objs],
        "read_only": read_only,
        "rts": rts,
        "dur": dur,
    }


def quiesce_ev(t, values_by_dc, vdc, synced=True):
    return {
        "t": t,
        "ev": "quiesce",
        "synced": synced,
        "dcs": {
            name: {"vdc": list(vdc), "values": values} for name, values in values_by_dc.items()
        },
        "scouts": {"r": {"clock": [list(vdc), 0], "pending": 0, "connected": True}},
        "crashed": [],
    }


def writer_record(t=10, amount=5):
    return apply_ev(t, 0, (1, "w"), [(1, 0)], [CTR], effects=[inc_effect(amount)])


def base_trace():
    """One increment of 5, fully replicated; one reader transaction."""
    return [
        header(),
        writer_record(),
        apply_ev(50, 1, (1, "w"), [(1, 0)], [CTR], via="gossip"),
        begin_ev(60, "r", (1, "r"), [[1, 0], 0]),
        read_ev(60, "r", (1, "r"), CTR, 5, [[1, 0], 0]),
        commit_ev(60, "r", (1, "r"), [[1, 0], 0]),
        quiesce_ev(100, {"dc0": {"ctr#counter": 5}, "dc1": {"ctr#counter": 5}}, (1, 0)),
    ]


class TestCleanTrace:
    def test_all_checks_pass(self):
        report = run_checks(base_trace())
        assert report["ok"], report["verdicts"]


class TestCausalSnapshots:
    def test_read_missing_covered_update_flagged(self):
        trace = base_trace()
        trace[4] = read_ev(60, "r", (1, "r"), CTR, 0, [[1, 0], 0])  # claims 0, covers the inc
        v = check_causal_snapshots(TraceAnalysis(trace))
        assert not v.ok and "materializes" in v.violations[0]

    def test_read_outside_snapshot_flagged(self):
        trace = base_trace()
        trace[4] = read_ev(60, "r", (1, "r"), CTR, 5, [[0, 0], 0])  # differs from tx snapshot
        v = check_causal_snapshots(TraceAnalysis(trace))
        assert not v.ok

    def test_snapshot_not_closed_under_deps_flagged(self):
        # record 2 depends on record 1; a snapshot holding only record 2
        # violates transitive closure
        trace = [
            header(),
            writer_record(),
            apply_ev(
                20,
                1,
                (1, "x"),
                [(1, 1)],
                [CTR],
                effects=[inc_effect(3, counter=1, origin="x")],
                deps=[[1, 0], 0],
            ),
            begin_ev(30, "r", (1, "r"), [[0, 1], 0]),
            read_ev(30, "r", (1, "r"), CTR, 3, [[0, 1], 0]),
            commit_ev(30, "r", (1, "r"), [[0, 1], 0]),
            quiesce_ev(100, {"dc0": {"ctr#counter": 8}, "dc1": {"ctr#counter": 8}}, (1, 1)),
        ]
        v = check_causal_snapshots(TraceAnalysis(trace))
        assert not v.ok
        assert any("deps" in viol for viol in v.violations)


class TestAtomicity:
    def test_partial_observation_flagged(self):
        rec_effects = [inc_effect(5, seq=0), add_effect("x", seq=1)]
        trace = [
            header(),
            apply_ev(10, 0, (1, "w"), [(1, 0)], [CTR, SET], effects=rec_effects),
            begin_ev(30, "r", (1, "r"), [[1, 0], 0]),
            read_ev(30, "r", (1, "r"), CTR, 5, [[1, 0], 0]),
            read_ev(30, "r", (1, "r"), SET, [], [[1, 0], 0]),  # the add is missing
            commit_ev(30, "r", (1, "r"), [[1, 0], 0]),
            quiesce_ev(100, {"dc0": {"ctr#counter": 5, "s#awset": ["x"]}}, (1, 0)),
        ]
        v = check_atomicity(TraceAnalysis(trace))
        assert not v.ok and "partial application" in v.violations[0]

    def test_single_object_tx_vacuous(self):
        v = check_atomicity(TraceAnalysis(base_trace()))
        assert v.ok


class TestSessionGuarantees:
    def test_snapshot_regression_flagged(self):
        trace = base_trace()[:-1] + [
            begin_ev(70, "r", (2, "r"), [[0, 0], 0]),  # regressed from [1,0]
            read_ev(70, "r", (2, "r"), CTR, 0, [[0, 0], 0]),
            commit_ev(70, "r", (2, "r"), [[0, 0], 0]),
            quiesce_ev(100, {"dc0": {"ctr#counter": 5}, "dc1": {"ctr#counter": 5}}, (1, 0)),
        ]
        v = check_session_guarantees(TraceAnalysis(trace))
        assert not v.ok and "regressed" in v.violations[0]

    def test_read_your_writes_violation_flagged(self):
        trace = [
            header(),
            begin_ev(5, "w", (1, "w"), [[0, 0], 0]),
            commit_ev(5, "w", (1, "w"), [[0, 0], 0], objs=[CTR], read_only=False),
            writer_record(t=10),
            begin_ev(20, "w", (2, "w"), [[0, 0], 0]),
            read_ev(20, "w", (2, "w"), CTR, 0, [[0, 0], 0]),  # misses own write
            commit_ev(20, "w", (2, "w"), [[0, 0], 0]),
            quiesce_ev(100, {"dc0": {"ctr#counter": 5}}, (1, 0)),
        ]
        v = check_session_guarantees(TraceAnalysis(trace))
        assert not v.ok and "own write" in v.violations[0]


class TestExactlyOnce:
    def test_duplicate_apply_flagged(self):
        trace = base_trace()
        trace.insert(3, apply_ev(55, 1, (1, "w"), [(2, 1)], [CTR], via="gossip"))
        v = check_exactly_once(TraceAnalysis(trace))
        assert not v.ok and "applied twice" in v.violations[0]

    def test_value_mismatch_with_applied_sum_flagged(self):
        trace = base_trace()
        trace[-1] = quiesce_ev(100, {"dc0": {"ctr#counter": 10}, "dc1": {"ctr#counter": 5}}, (1, 0))
        v = check_exactly_once(TraceAnalysis(trace))
        assert not v.ok and "distinct-identity" in v.violations[0]


@pytest.fixture(scope="module")
def churn_trace():
    """The pinned churn-faults run's trace: it heals every fault and ends synced."""
    result = pinned_run("churn-faults")
    assert result.synced and result.trace[-1]["crashed"] == []
    return result.trace


class TestConvergence:
    def test_diverged_replicas_flagged(self):
        trace = base_trace()
        trace[-1] = quiesce_ev(100, {"dc0": {"ctr#counter": 5}, "dc1": {"ctr#counter": 3}}, (1, 0))
        v = check_convergence(TraceAnalysis(trace))
        assert not v.ok

    def test_replay_oracle_mismatch_flagged(self):
        trace = base_trace()
        trace[-1] = quiesce_ev(100, {"dc0": {"ctr#counter": 6}, "dc1": {"ctr#counter": 6}}, (1, 0))
        v = check_convergence(TraceAnalysis(trace))
        assert not v.ok and any("oracle" in s for s in v.violations)

    def test_unhealed_run_skipped_explicitly(self):
        trace = base_trace()
        partition = {"t": 90, "ev": "fault", "kind": "partition", "links": [["dc0", "dc1"]]}
        trace[-1:] = [partition, dict(trace[-1], synced=False)]
        v = check_convergence(TraceAnalysis(trace))
        assert v.ok and v.skipped is not None

    def test_a_pinned_run_ended_unsynced_with_no_fault_active_fails(self, churn_trace):
        trace = churn_trace[:-1] + [dict(churn_trace[-1], synced=False)]
        v = check_convergence(TraceAnalysis(trace))
        assert not v.ok and v.skipped is None
        assert v.violations == ["run ended unsynced with no fault active"]

    @pytest.mark.parametrize("active", ["crashed", "partition", "disconnect"])
    def test_a_pinned_run_ended_unsynced_under_an_active_fault_is_skipped(self, churn_trace, active):
        quiesce = dict(churn_trace[-1], synced=False)
        if active == "crashed":
            quiesce["crashed"] = [1]
        unhealed = {"partition": "heal", "disconnect": "scout_reconnect"}.get(active)
        trace = [ev for ev in churn_trace[:-1] if not (ev["ev"] == "fault" and ev["kind"] == unhealed)]
        assert len(trace) == len(churn_trace) - (unhealed is not None) - 1
        v = check_convergence(TraceAnalysis(trace + [quiesce]))
        assert v.ok and v.skipped == "run did not quiesce fully (unhealed faults)"

    def test_scout_beyond_common_vdc_flagged(self):
        trace = base_trace()
        trace[-1]["scouts"]["r"]["clock"] = [[9, 0], 0]
        v = check_convergence(TraceAnalysis(trace))
        assert not v.ok and "frontier" in v.violations[0]


class TestAcyclicity:
    def test_dependency_on_later_record_flagged(self):
        trace = [
            header(),
            # committed first but depends on the record committed later
            apply_ev(20, 0, (1, "a"), [(1, 0)], [CTR], effects=[inc_effect(1, origin="a")],
                     deps=[[0, 1], 0]),
            apply_ev(30, 1, (1, "b"), [(1, 1)], [CTR], effects=[inc_effect(2, origin="b")]),
            quiesce_ev(100, {"dc0": {"ctr#counter": 3}}, (1, 1)),
        ]
        v = check_history_acyclic(TraceAnalysis(trace))
        assert not v.ok


class TestStaleness:
    def _trace(self, read_t, ver):
        return [
            header(k=2),
            writer_record(t=10),
            apply_ev(50, 1, (1, "w"), [(1, 0)], [CTR], via="gossip"),
            begin_ev(read_t, "r", (1, "r"), [list(ver), 0]),
            read_ev(read_t, "r", (1, "r"), CTR, 0 if ver == (0, 0) else 5, [list(ver), 0]),
            commit_ev(read_t, "r", (1, "r"), [list(ver), 0]),
            quiesce_ev(100, {"dc0": {"ctr#counter": 5}, "dc1": {"ctr#counter": 5}}, (1, 0)),
        ]

    def test_read_during_window_is_stale(self):
        m = measure_staleness(TraceAnalysis(self._trace(20, (0, 0))))
        assert m["stale_reads"] == 1 and m["stale_tx_fraction"] == 1.0

    def test_read_after_k_durable_not_stale(self):
        m = measure_staleness(TraceAnalysis(self._trace(60, (0, 0))))
        assert m["stale_reads"] == 0

    @pytest.mark.parametrize("read_t, stale", [(49, 2), (50, 1)])
    def test_a_record_is_k_durable_from_its_kth_apply_on(self, read_t, stale):
        # a stale read at 20, then a read at read_t; the second DC applies at 50
        trace = self._trace(20, (0, 0))
        trace[-1:-1] = [
            begin_ev(read_t, "r", (2, "r"), [[0, 0], 0]),
            read_ev(read_t, "r", (2, "r"), CTR, 0, [[0, 0], 0]),
            commit_ev(read_t, "r", (2, "r"), [[0, 0], 0]),
        ]
        m = measure_staleness(TraceAnalysis(trace))
        assert m["stale_reads"] == stale

    def test_covering_read_not_stale(self):
        m = measure_staleness(TraceAnalysis(self._trace(20, (1, 0))))
        assert m["stale_reads"] == 0

    def test_k1_by_definition_zero(self):
        trace = self._trace(20, (0, 0))
        trace[0]["k"] = 1
        m = measure_staleness(TraceAnalysis(trace))
        assert m["stale_reads"] == 0


class TestLatencyMetrics:
    def test_zero_rt_fraction_and_cdf(self):
        trace = base_trace()[:-1] + [
            begin_ev(70, "r", (2, "r"), [[1, 0], 0]),
            read_ev(70, "r", (2, "r"), CTR, 5, [[1, 0], 0], src="dc"),
            commit_ev(100, "r", (2, "r"), [[1, 0], 0], rts=1, dur=30),
            quiesce_ev(120, {"dc0": {"ctr#counter": 5}, "dc1": {"ctr#counter": 5}}, (1, 0)),
        ]
        m = measure_latency(TraceAnalysis(trace))
        assert m["transactions"] == 2
        assert m["zero_rt_fraction"] == 0.5
        assert m["cdf"][-1][1] == 1.0

    def test_checker_is_deterministic_over_a_trace(self):
        trace = base_trace()
        assert run_checks(trace) == run_checks(trace)

    def test_percentile_interpolates_between_closest_ranks(self):
        assert percentile([10], 95) == 10.0
        assert percentile([0, 10], 50) == 5.0
        assert percentile([1, 2, 3, 4, 5], 100) == 5.0
        assert percentile([0, 10, 20, 30], 50) == 15.0

    def test_percentile_matches_numpy_bit_for_bit(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(5)
        for n in (1, 2, 3, 7, 100, 2601):
            values = sorted(rng.randrange(0, 2000) for _ in range(n))
            for q in (0, 1, 33, 50, 90, 95, 99, 100):
                assert percentile(values, q) == float(np.percentile(np.array(values, dtype=float), q))


def reference_oracle(tr, read, skip=None):
    """Brute-force replay: every record in the sorted linear extension that
    the read's snapshot covers, filtered to the read object, leaving out the
    record ``skip`` if one is given."""
    oid = ObjectId(read.obj[0], CrdtType(read.obj[1]))
    state = tr.initial.get(oid, new_state(oid.crdt_type))
    for rec in sorted(tr.records.values(), key=lambda r: (r.commit_time, r.otid[0], r.otid[1])):
        if rec is skip or read.obj not in rec.objs:
            continue
        if not tr.covers(rec, read.ver_dc, read.ver_local, read.scout):
            continue
        for ew in rec.effects:
            effect = effect_from_wire(ew)
            if (effect.target.key, effect.target.crdt_type.value) == read.obj:
                state = apply_effect(state, effect)
    return state


def reference_own_updates(tr, read, state):
    """``state`` with the reading transaction's own updates to the read
    object before the read applied, each decoded afresh."""
    for ew in tr.tx_updates[read.tx][: read.updates_before]:
        effect = effect_from_wire(ew)
        if (effect.target.key, effect.target.crdt_type.value) == read.obj:
            state = apply_effect(state, effect)
    return state


def test_oracle_replays_from_the_start_when_a_snapshot_regresses():
    # the reader's own record (1, "r") and a remote one (1, "w"), both at dc0
    trace = base_trace()[:-1] + [
        apply_ev(70, 0, (1, "r"), [(2, 0)], [CTR], effects=[inc_effect(7, counter=1, origin="r")]),
    ]
    tr = TraceAnalysis(trace)

    def counter(ver_dc, ver_local):
        return tr.oracle_value(CTR, ver_dc, ver_local, "r").value

    assert counter((2, 0), 1) == 12
    assert counter((1, 0), 1) == 12  # own record covered by the local entry alone
    assert counter((1, 0), 0) == 5
    assert counter((0, 0), 0) == 0
    assert counter((2, 0), 0) == 12


@pytest.mark.parametrize(
    "preset, overrides",
    [("social-90-10", {}), ("staleness-stress", {"mutations": ["disable_k_gating"]})],
)
def test_oracle_matches_brute_force_replay_on_every_read(preset, overrides):
    tr = TraceAnalysis(run_scenario(load_scenario(preset), seed=1, overrides=overrides).trace)
    assert len(tr.reads) > 500
    expected = {}
    for read in tr.reads:
        key = (read.obj, read.ver_dc, read.ver_local, read.scout)
        if key not in expected:
            expected[key] = reference_oracle(tr, read)
        assert tr.oracle_value(*key) == expected[key], key


def test_labels_follow_the_run_scout_count_not_the_scenario_file():
    trace = run_scenario(load_scenario("failover-demo"), seed=1, overrides={"num_scouts": 6}).trace
    tr = TraceAnalysis(trace)
    late = [tx for tx in tr.txs.values() if tx.scout in ("s4", "s5")]
    assert late and all(tx.label is not None for tx in late)


def test_a_workload_without_a_kind_is_social():
    scenario = load_scenario("failover-demo")
    workload = {k: v for k, v in scenario["workload"].items() if k != "kind"}
    kindless = dict(scenario, workload=workload)
    report = run_checks(run_scenario(kindless, seed=1).trace)
    assert report == run_checks(run_scenario(scenario, seed=1).trace)
    assert len(report["latency"]["rts_by_label"]) == 7


@pytest.mark.parametrize("enabled", [True, False])
def test_run_checks_restores_the_callers_gc_setting(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run_checks(base_trace())["ok"]
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError):
            run_checks([{"ev": "read"}])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


@functools.lru_cache(maxsize=None)
def pinned_analysis(name):
    return TraceAnalysis(pinned_run(name).trace)


def snapshot_queries(name):
    """Reads on the pinned run ``name`` at arbitrary snapshots: any scout,
    any counters up to one past the highest alias of each DC and the highest
    OTID counter, so most are neither closed nor monotone; any transaction,
    any prefix of its updates, and often an object it updated. Each comes
    with a number that picks the record to leave out."""
    tr = pinned_analysis(name)
    tops = [max((c for c, d in tr.by_alias if d == dc), default=0) + 1 for dc in range(tr.num_dcs)]
    local_top = max(otid[0] for otid in tr.txs) + 1
    txs = sorted(tr.tx_updates)
    writers = [tx for tx in txs if tr.tx_updates[tx]]
    objs = sorted(tr.by_obj)

    @st.composite
    def query(draw):
        tx = draw(st.sampled_from(txs) | st.sampled_from(writers))
        updated = sorted({tuple(ew["obj"]) for ew in tr.tx_updates[tx]} & set(objs))
        obj = draw(st.sampled_from(objs) | st.sampled_from(updated or objs))
        before = draw(st.integers(0, len(tr.tx_updates[tx])))
        ver_dc = draw(st.tuples(*(st.integers(0, top) for top in tops)))
        ver_local = draw(st.integers(0, local_top))
        reader = draw(st.sampled_from(sorted(tr.tx_order)))
        read = ReadInfo(reader, tx, obj, None, ver_dc, ver_local, 0, "query", None, before)
        return read, draw(st.integers(0, 10**6))

    return query()


@pytest.mark.parametrize("name", ["churn-faults", "failover-demo"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_oracle_matches_brute_force_on_arbitrary_snapshots(name, data):
    # one analysis serves every example, so its checkpoints are built by
    # queries in any order: regressing, unclosed and out of every session
    tr = pinned_analysis(name)
    for read, pick in data.draw(st.lists(snapshot_queries(name), min_size=1, max_size=12)):
        expected = reference_oracle(tr, read)
        assert tr.oracle_value(read.obj, read.ver_dc, read.ver_local, read.scout) == expected
        assert tr.read_state(read) == reference_own_updates(tr, read, expected)
        entries = tr.by_obj[read.obj]
        skip = entries[pick % len(entries)][0]
        expected = reference_own_updates(tr, read, reference_oracle(tr, read, skip))
        assert _oracle_without(tr, read, skip) == expected


def test_failover_demo_has_records_with_several_aliases():
    tr = pinned_analysis("failover-demo")
    assert any(len(rec.aliases) > 1 for rec in tr.records.values())


def reference_closure_walk(tr):
    """The closure check without its fast path: walk every counter each
    snapshot newly covers, per DC."""
    out = []
    for scout, order in tr.tx_order.items():
        prev_dc = tuple([0] * tr.num_dcs)
        for otid in order:
            tx = tr.txs[otid]
            ver = tx.snap_dc
            for dc in range(tr.num_dcs):
                for counter in range(prev_dc[dc] + 1, ver[dc] + 1):
                    dep = tr.by_alias.get((counter, dc))
                    if dep is None:
                        continue
                    rec = tr.records[dep]
                    if not all(rec.deps_dc[j] <= ver[j] for j in range(tr.num_dcs)):
                        out.append(
                            f"{scout} snapshot {ver} includes {dep} but not its deps {rec.deps_dc}"
                        )
                    if rec.deps_local and rec.origin != scout:
                        chain = tr.records.get((rec.deps_local, rec.origin))
                        if chain is not None and not tr.covers(chain, ver, tx.snap_local, scout):
                            out.append(
                                f"{scout} snapshot {ver} includes {dep} but not "
                                f"its origin-chain dependency {chain.otid}"
                            )
            prev_dc = tuple(max(prev_dc[j], ver[j]) for j in range(tr.num_dcs))
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_closure_fast_path_reports_what_the_walk_reports(name):
    tr = TraceAnalysis(pinned_run(name).trace)
    assert _closure_violations(tr) == reference_closure_walk(tr)


class TestClosureFastPath:
    def test_own_origin_chain_fails_the_bound_but_reports_nothing(self):
        # the reader's record (2, r) is seen through dc1; its chain
        # dependency (1, r) is covered by the reader's local counter only
        trace = [
            header(),
            apply_ev(10, 0, (1, "r"), [(1, 0)], [CTR], effects=[inc_effect(1, origin="r")]),
            apply_ev(
                20, 1, (2, "r"), [(1, 1)], [CTR],
                effects=[inc_effect(2, counter=2, origin="r")], deps=[[0, 0], 1],
            ),
            begin_ev(30, "r", (3, "r"), [[0, 1], 2]),
            read_ev(30, "r", (3, "r"), CTR, 3, [[0, 1], 2]),
            commit_ev(30, "r", (3, "r"), [[0, 1], 2]),
        ]
        tr = TraceAnalysis(trace)
        assert _closure_bounds(tr)[1][1] == (1, 0)  # not <= (0, 1): the walk runs
        assert _closure_violations(tr) == reference_closure_walk(tr) == []
        assert check_causal_snapshots(tr).ok

    def test_unclosed_snapshot_is_flagged_with_the_walks_strings(self):
        trace = [
            header(),
            apply_ev(10, 0, (1, "w"), [(1, 0)], [CTR], effects=[inc_effect(5)]),
            apply_ev(
                15, 0, (1, "x"), [(2, 0)], [CTR],
                effects=[inc_effect(1, origin="x")], deps=[[1, 0], 0],
            ),
            apply_ev(
                20, 1, (2, "x"), [(1, 1)], [CTR],
                effects=[inc_effect(2, counter=2, origin="x")], deps=[[0, 0], 1],
            ),
            apply_ev(
                25, 1, (1, "y"), [(2, 1)], [CTR],
                effects=[inc_effect(3, origin="y")], deps=[[1, 0], 0],
            ),
            # only the chain dependency fails the first snapshot's bound
            begin_ev(30, "r", (1, "r"), [[0, 1], 0]),
            commit_ev(30, "r", (1, "r"), [[0, 1], 0]),
            begin_ev(40, "r", (2, "r"), [[0, 2], 0]),
            commit_ev(40, "r", (2, "r"), [[0, 2], 0]),
        ]
        tr = TraceAnalysis(trace)
        expected = [
            "r snapshot (0, 1) includes (2, 'x') but not its origin-chain dependency (1, 'x')",
            "r snapshot (0, 2) includes (1, 'y') but not its deps (1, 0)",
        ]
        assert _closure_violations(tr) == reference_closure_walk(tr) == expected
        assert check_causal_snapshots(tr).violations == expected


def test_checker_applies_each_covered_prefix_once(monkeypatch):
    # the benchmark's churn pin: 12 scouts reading 4 counters. Replaying
    # each object per reader, as a checker without shared checkpoints does,
    # takes 5,612 applies here
    trace = pinned_run("bench-churn-faults").trace
    calls = []
    apply = checker.apply_effect

    def counting(state, effect):
        calls.append(effect)
        return apply(state, effect)

    monkeypatch.setattr(checker, "apply_effect", counting)
    assert run_checks(trace)["ok"]
    assert 1_000 < len(calls) <= 1_800


def brute_force_oracle(tr, obj, ver_dc, ver_local, reader):
    """A replay of the whole linear extension ``tr.order``, filtered by
    ``tr.covers`` to the snapshot and to the object, over its initial
    state."""
    state = tr.initial_state(obj)
    for rec in tr.order:
        if obj in rec.objs and tr.covers(rec, ver_dc, ver_local, reader):
            for ew in rec.effects:
                effect = effect_from_wire(ew)
                if (effect.target.key, effect.target.crdt_type.value) == obj:
                    state = apply_effect(state, effect)
    return state


@pytest.mark.parametrize("name", ["social-90-10", "staleness-stress", "churn-faults"])
def test_replay_shortcuts_match_a_brute_force_replay(name):
    # a read of an object no record touches, or at a snapshot that covers
    # every record of its object, is answered without a replay; every
    # other read is replayed
    tr = TraceAnalysis(pinned_run(name).trace)
    replayed = []
    tr.replay = lambda *args, replay=tr.replay: replayed.append(args) or replay(*args)
    expected = {}
    shortcuts = {"no records": 0, "all covered": 0, "replayed": 0}
    for read in tr.reads:
        key = (read.obj, read.ver_dc, read.ver_local, read.scout)
        if key not in expected:
            expected[key] = brute_force_oracle(tr, *key)
        replayed.clear()
        assert tr.oracle_value(*key) == expected[key], key
        entries = tr.by_obj.get(read.obj, [])
        if not entries:
            kind = "no records"
        elif all(
            rec.aliases and rec.aliases[0][0] <= read.ver_dc[rec.aliases[0][1]]
            for rec, _ in entries
        ):
            kind = "all covered"  # each through its first alias, whoever reads
        else:
            kind = "replayed"
        assert bool(replayed) == (kind == "replayed"), (kind, key)
        shortcuts[kind] += 1
    assert shortcuts["replayed"]
    # the counter churn reads four counters every scout keeps incrementing
    assert all(shortcuts.values()) or name == "churn-faults", shortcuts


def test_run_checks_builds_no_script(monkeypatch):
    trace = pinned_run("social-90-10").trace
    report = run_checks(trace)

    def no_scripts(*args, **kwargs):
        raise AssertionError("the checker built a script")

    monkeypatch.setattr(workload, "social_scripts", no_scripts)
    monkeypatch.setattr(workload, "scripts_from_plan", no_scripts)
    assert run_checks(trace) == report
    # login and logout are the scenario's warm-up labels
    labels = {"view_wall", "list_friends", "post_status", "message", "accept_friendship"}
    assert report["ok"] and set(report["latency"]["rts_by_label"]) == labels


def test_no_trace_event_carries_a_label():
    # counter-churn transactions keep no label; social ones get theirs from
    # the workload's plan
    tr = TraceAnalysis(pinned_run("churn-faults").trace)
    assert not any("label" in ev for ev in pinned_run("churn-faults").trace)
    assert {tx.label for tx in tr.txs.values()} == {None}


def reference_atomicity(tr):
    """The atomicity check as a full scan: every record that touches two or
    more of the objects a transaction read is a candidate."""
    violations = []
    seq = {otid: i for i, otid in enumerate(tr.records)}
    for tx_otid, reads in tr.reads_by_tx.items():
        objs = {r.obj for r in reads}
        if len(objs) < 2:
            continue
        candidates = sorted(
            (
                otid
                for otid, rec in tr.records.items()
                if len(rec.objs & objs) >= 2 and otid != tx_otid
            ),
            key=seq.__getitem__,
        )
        for otid in candidates:
            rec = tr.records[otid]
            presence = {}
            for read in reads:
                if read.obj not in rec.objs:
                    continue
                with_r = value_to_wire(
                    tr.oracle_value(read.obj, read.ver_dc, read.ver_local, read.scout)
                )
                if tr.covers(rec, read.ver_dc, read.ver_local, read.scout):
                    without = value_to_wire(_oracle_without(tr, read, rec))
                else:
                    without = value_to_wire(tr.read_state(read))
                if with_r == without:
                    continue
                if read.value == with_r:
                    presence[read.obj] = True
                elif read.value == without:
                    presence[read.obj] = False
            if True in presence.values() and False in presence.values():
                violations.append(
                    f"tx {tx_otid} observed a partial application of {rec.otid}: {presence}"
                )
    return violations


def reference_staleness(tr):
    """Stale reads found by walking each read object's records up to the
    read time."""
    stale = set()
    for i, read in enumerate(tr.reads):
        for rec, _ in tr.by_obj.get(read.obj, ()):
            if rec.commit_time > read.t:
                break
            durable = sum(t <= read.t for t in rec.apply_times.values()) >= tr.k
            if rec.origin == read.scout or durable:
                continue
            if not tr.covers(rec, read.ver_dc, read.ver_local, read.scout):
                stale.add(i)
                break
    return {
        "stale_reads": len(stale),
        "stale_transactions": len({tr.reads[i].tx for i in stale}),
    }


def tampered_social_trace(seed):
    """The pinned social-90-10 trace with some reads of multi-object
    transactions given the value an earlier read of the same object
    returned, so that they miss records their snapshots cover."""
    rng = random.Random(seed)
    trace = [dict(ev) for ev in pinned_run("social-90-10").trace]
    seen: dict[tuple, list] = {}
    multi = {}
    for ev in trace:
        if ev["ev"] == "read":
            multi.setdefault(tuple(ev["otid"]), set()).add(tuple(ev["obj"]))
    for ev in trace:
        if ev["ev"] != "read":
            continue
        obj = tuple(ev["obj"])
        earlier = seen.setdefault(obj, [])
        if earlier and len(multi[tuple(ev["otid"])]) > 1 and rng.random() < 0.3:
            ev["value"] = rng.choice(earlier)
        earlier.append(ev["value"])
    return trace


@pytest.mark.parametrize("name", ["social-90-10", "session-reorder", "k-gating-off", "tampered"])
def test_indexed_scans_report_what_the_full_scans_report(name):
    trace = tampered_social_trace(3) if name == "tampered" else pinned_run(name).trace
    tr = TraceAnalysis(trace)
    violations = check_atomicity(tr).violations
    assert violations == reference_atomicity(tr)
    assert violations or name != "tampered"
    staleness = measure_staleness(tr)
    assert {k: staleness[k] for k in ("stale_reads", "stale_transactions")} == reference_staleness(tr)
    assert staleness["stale_reads"] or name == "session-reorder"
