"""Simulator walk semantics, attacks, and log emission."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionproof.errors import (
    CycleDetected,
    InvalidAttack,
    ParseError,
    SetupMismatch,
    UnknownCallee,
)
from fusionproof.handler import FusionSetup, RouteKind, generate_trace_id
from fusionproof.workload import (
    AppSpec,
    AttackPlan,
    CallMode,
    CallSpec,
    InvocationRecord,
    TaskSpec,
    builtin_iot_app,
    builtin_tree_app,
    emit_platform_logs,
    execute_request,
    load_app_spec,
    run_workload,
)

IOT = builtin_iot_app()
FUSED = FusionSetup.fused([["CW", "SE", "CS", "CT", "CA"]])
SPLIT = FusionSetup.singletons(["CW", "SE", "CS", "CT", "CA"])


def one_request(setup, attack=None, seed=7, origin=0):
    trace = generate_trace_id(setup, "CW", b"\xab" * 32)
    return execute_request(IOT, setup, trace, attack, seed, origin)


class TestBuiltinApps:
    def test_iot_shape(self):
        assert IOT.entry_task == "CW"
        assert IOT.task_names() == ("CW", "SE", "CS", "CT", "CA")
        assert [t.base_duration_ms for t in IOT.tasks] == [37, 37, 76, 64, 68]
        assert all(t.base_memory_mb == 10 for t in IOT.tasks)
        assert all(t.jitter_fraction == 0 for t in IOT.tasks)
        assert IOT.sync_chain() == ("CW", "SE", "CS", "CT", "CA")

    def test_iot_total_duration(self):
        assert sum(t.base_duration_ms for t in IOT.tasks) == 282

    @pytest.mark.parametrize(
        "fanout,depth,expected_tasks",
        [(2, 1, 3), (2, 2, 7), (3, 2, 13)],
    )
    def test_tree_sizes(self, fanout, depth, expected_tasks):
        app = builtin_tree_app(fanout, depth)
        assert len(app.tasks) == expected_tasks

    def test_tree_async_leaf_edges(self):
        app = builtin_tree_app(3, 2)
        async_edges = [
            (t.name, c.callee)
            for t in app.tasks
            for c in t.calls
            if c.mode is CallMode.ASYNC
        ]
        assert len(async_edges) == 9

    def test_tree_internal_edges_sync(self):
        app = builtin_tree_app(2, 2)
        root_calls = app.task_map["N0"].calls
        assert all(c.mode is CallMode.SYNC for c in root_calls)

    def test_tree_bad_parameters(self):
        with pytest.raises(ParseError):
            builtin_tree_app(1, 1)
        with pytest.raises(ParseError):
            builtin_tree_app(2, 0)


class TestAppValidation:
    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            AppSpec(
                "loop",
                "A",
                (
                    TaskSpec("A", 1, calls=(CallSpec("B"),)),
                    TaskSpec("B", 1, calls=(CallSpec("A"),)),
                ),
            )

    def test_undeclared_callee_rejected(self):
        with pytest.raises(UnknownCallee):
            AppSpec("bad", "A", (TaskSpec("A", 1, calls=(CallSpec("X"),)),))

    def test_missing_entry_rejected(self):
        with pytest.raises(UnknownCallee):
            AppSpec("bad", "Z", (TaskSpec("A", 1),))


class TestLoadAppSpec:
    def iot_document(self):
        return json.dumps(
            {
                "name": "iot",
                "entry_task": "CW",
                "tasks": [
                    {"name": "CW", "base_duration_ms": 37, "base_memory_mb": 10,
                     "calls": [{"callee": "SE", "mode": "sync"}]},
                    {"name": "SE", "base_duration_ms": 37, "base_memory_mb": 10,
                     "calls": [{"callee": "CS", "mode": "sync"}]},
                    {"name": "CS", "base_duration_ms": 76, "base_memory_mb": 10,
                     "calls": [{"callee": "CT", "mode": "sync"}]},
                    {"name": "CT", "base_duration_ms": 64, "base_memory_mb": 10,
                     "calls": [{"callee": "CA", "mode": "sync"}]},
                    {"name": "CA", "base_duration_ms": 68, "base_memory_mb": 10},
                ],
            }
        )

    def test_round_trip_matches_builtin(self):
        assert load_app_spec(self.iot_document()) == builtin_iot_app()

    def test_cycle_document(self):
        doc = json.dumps(
            {
                "name": "loop",
                "entry_task": "A",
                "tasks": [
                    {"name": "A", "base_duration_ms": 1, "calls": [{"callee": "B"}]},
                    {"name": "B", "base_duration_ms": 1, "calls": [{"callee": "A"}]},
                ],
            }
        )
        with pytest.raises(CycleDetected):
            load_app_spec(doc)

    def test_undeclared_callee_document(self):
        doc = json.dumps(
            {
                "name": "bad",
                "entry_task": "A",
                "tasks": [{"name": "A", "base_duration_ms": 1, "calls": [{"callee": "X"}]}],
            }
        )
        with pytest.raises(UnknownCallee):
            load_app_spec(doc)

    def test_bad_json(self):
        with pytest.raises(ParseError):
            load_app_spec("{not json")

    def test_bad_mode(self):
        doc = json.dumps(
            {
                "name": "bad",
                "entry_task": "A",
                "tasks": [
                    {"name": "A", "base_duration_ms": 1, "calls": [{"callee": "A", "mode": "x"}]}
                ],
            }
        )
        with pytest.raises(ParseError):
            load_app_spec(doc)


class TestExecuteRequest:
    def test_clean_fused_walk(self):
        records = one_request(FUSED)
        assert [r.task for r in records] == ["CW", "SE", "CS", "CT", "CA"]
        assert [r.chain_index for r in records] == [0, 1, 2, 3, 4]
        assert [r.billed_duration_ms for r in records] == [37, 37, 76, 64, 68]
        assert [r.start_ms for r in records] == [0, 37, 74, 150, 214]
        assert [r.caller for r in records] == ["I", "CW", "SE", "CS", "CT"]
        assert records[0].route is RouteKind.REMOTE
        assert all(r.route is RouteKind.LOCAL for r in records[1:])
        assert all(r.memory_used_mb == 10 for r in records)
        assert all(r.setup_version == 1 for r in records)

    def test_clean_split_walk_adds_remote_overhead(self):
        records = one_request(SPLIT)
        assert [r.start_ms for r in records] == [0, 87, 174, 300, 414]
        assert all(r.route is RouteKind.REMOTE for r in records)
        # Completion of the last task is the request's critical path end.
        assert records[-1].start_ms + records[-1].billed_duration_ms == 482

    def test_origin_shifts_clock(self):
        records = one_request(FUSED, origin=5000)
        assert [r.start_ms for r in records] == [5000, 5037, 5074, 5150, 5214]

    def test_trace_must_match_setup(self):
        trace = generate_trace_id(SPLIT, "CW", b"\xab" * 32)
        with pytest.raises(SetupMismatch):
            execute_request(IOT, FUSED, trace, None, 7, 0)

    def test_dow_inflates_only_target_billed(self):
        records = one_request(FUSED, AttackPlan.dow("SE", 999999))
        clean = one_request(FUSED)
        assert [r.task for r in records] == [r.task for r in clean]
        assert records[1].billed_duration_ms == 999999
        for got, want in zip(records, clean):
            if got.task != "SE":
                assert got == want
            else:
                assert got.start_ms == want.start_ms
                assert got.memory_used_mb == want.memory_used_mb

    def test_business_logic_swaps_emission_order(self):
        records = one_request(FUSED, AttackPlan.business_logic(("CT", "CA")))
        assert [r.task for r in records] == ["CW", "SE", "CS", "CA", "CT"]
        assert [r.chain_index for r in records] == [0, 1, 2, 3, 4]
        by_task = {r.task: r for r in records}
        # Payload fields stay with their records; only position and index move.
        assert by_task["CA"].chain_index == 3
        assert by_task["CT"].chain_index == 4
        assert by_task["CA"].billed_duration_ms == 68
        assert by_task["CT"].billed_duration_ms == 64
        assert by_task["CA"].caller == "CT"
        assert by_task["CT"].caller == "CS"

    def test_business_logic_requires_adjacency(self):
        with pytest.raises(InvalidAttack):
            one_request(FUSED, AttackPlan.business_logic(("CW", "CS")))

    def test_business_logic_rejects_async_targets(self):
        app = builtin_tree_app(2, 1)
        setup = FusionSetup.fused([app.task_names()])
        trace = generate_trace_id(setup, "N0", b"\x01" * 32)
        with pytest.raises(InvalidAttack):
            execute_request(app, setup, trace, AttackPlan.business_logic(("N0_0", "N0_1")), 1, 0)

    def test_dow_needs_declared_target(self):
        with pytest.raises(InvalidAttack):
            one_request(FUSED, AttackPlan.dow("NOPE", 999999))

    def test_attack_plan_validation(self):
        with pytest.raises(InvalidAttack):
            AttackPlan.dow("", 999999)
        with pytest.raises(InvalidAttack):
            AttackPlan.dow("SE", 0)
        with pytest.raises(InvalidAttack):
            AttackPlan.business_logic(("CT", "CT"))

    def test_async_children_start_from_callers_start(self):
        app = builtin_tree_app(2, 1)
        fused = FusionSetup.fused([app.task_names()])
        trace = generate_trace_id(fused, "N0", b"\x01" * 32)
        records = execute_request(app, fused, trace, None, 1, 0)
        assert [r.task for r in records] == ["N0", "N0_0", "N0_1"]
        # Async dispatch is relative to the caller's start, not its end.
        assert [r.start_ms for r in records] == [0, 0, 0]

    def test_async_children_split_setup(self):
        app = builtin_tree_app(2, 1)
        split = FusionSetup.singletons(app.task_names())
        trace = generate_trace_id(split, "N0", b"\x01" * 32)
        records = execute_request(app, split, trace, None, 1, 0)
        assert [r.start_ms for r in records] == [0, 50, 50]
        assert [r.memory_used_mb for r in records] == [10, 64, 64]

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_jitter_bounds(self, seed):
        app = AppSpec("j", "A", (TaskSpec("A", 100, 10, 0.2),))
        setup = FusionSetup.fused([["A"]])
        trace = generate_trace_id(setup, "A", b"\x02" * 32)
        (record,) = execute_request(app, setup, trace, None, seed, 0)
        assert 80 <= record.billed_duration_ms <= 120

    def test_zero_jitter_is_exact(self):
        for seed in (0, 1, 99):
            records = one_request(FUSED, seed=seed)
            assert [r.billed_duration_ms for r in records] == [37, 37, 76, 64, 68]


class TestRunWorkload:
    def test_record_count_arithmetic(self):
        batch = run_workload(IOT, FUSED, [2], None, 1, seed=3)
        assert len(batch.records) == 10
        assert len(batch.outcomes) == 2
        assert not batch.attacked_trace_ids

    def test_multi_load_counts(self):
        batch = run_workload(IOT, FUSED, [2, 3], None, 2, seed=3)
        assert len(batch.records) == 2 * (2 + 3) * 5
        assert {o.load for o in batch.outcomes} == {2, 3}

    def test_fresh_trace_per_request(self):
        batch = run_workload(IOT, FUSED, [4], None, 2, seed=3)
        ids = {o.trace_id for o in batch.outcomes}
        assert len(ids) == 8

    def test_default_attack_gate_alternates_iterations(self):
        attack = AttackPlan.dow("SE", 999999)
        batch = run_workload(IOT, FUSED, [1], attack, 2, seed=3)
        assert [o.attacked for o in batch.outcomes] == [False, True]
        billed = [r.billed_duration_ms for r in batch.records if r.task == "SE"]
        assert billed == [37, 999999]

    def test_iteration_offset_shifts_gate(self):
        attack = AttackPlan.dow("SE", 999999)
        batch = run_workload(IOT, FUSED, [1], attack, 1, seed=3, iteration_offset=1)
        assert [o.attacked for o in batch.outcomes] == [True]

    def test_grouped_by_entry_fusion_key(self):
        batch = run_workload(IOT, FUSED, [2], None, 1, seed=3)
        assert set(batch.by_fusion_key) == {"CW.SE.CS.CT.CA"}
        assert batch.by_fusion_key["CW.SE.CS.CT.CA"] == batch.records
        split_batch = run_workload(IOT, SPLIT, [1], None, 1, seed=3)
        assert set(split_batch.by_fusion_key) == {"CW"}

    def test_requests_spaced_on_virtual_clock(self):
        batch = run_workload(IOT, FUSED, [3], None, 1, seed=3)
        starts = [r.start_ms for r in batch.records if r.task == "CW"]
        assert starts == [0, 1000, 2000]

    def test_determinism(self):
        a = run_workload(IOT, SPLIT, [3], AttackPlan.dow("SE", 999999), 2, seed=42)
        b = run_workload(IOT, SPLIT, [3], AttackPlan.dow("SE", 999999), 2, seed=42)
        assert a.records == b.records
        assert a.outcomes == b.outcomes
        assert emit_platform_logs(a.records) == emit_platform_logs(b.records)

    def test_seed_changes_traces(self):
        a = run_workload(IOT, FUSED, [1], None, 1, seed=1)
        b = run_workload(IOT, FUSED, [1], None, 1, seed=2)
        assert a.outcomes[0].trace_id != b.outcomes[0].trace_id

    def test_iterations_must_be_positive(self):
        with pytest.raises(ParseError):
            run_workload(IOT, FUSED, [1], None, 0, seed=1)


class TestEmit:
    def test_empty(self):
        assert emit_platform_logs([]) == []

    def test_golden_line(self):
        record = InvocationRecord("tid", "CW", 0, "I", 0, 37, 10, RouteKind.REMOTE, 1)
        assert emit_platform_logs([record]) == [
            "REPORT traceid=tid task=CW idx=0 caller=I start=0 billed=37 "
            "mem=10 route=REMOTE setupv=1"
        ]

    def test_one_line_per_record(self):
        batch = run_workload(IOT, SPLIT, [2], None, 1, seed=5)
        lines = emit_platform_logs(batch.records)
        assert len(lines) == len(batch.records)
        assert all(line.startswith("REPORT traceid=") for line in lines)


class TestTaskMap:
    @pytest.mark.parametrize("app", [builtin_iot_app(), builtin_tree_app(3, 2)])
    def test_one_read_only_mapping(self, app):
        assert app.task_map is app.task_map
        assert app.task_map == {t.name: t for t in app.tasks}
        with pytest.raises(TypeError):
            app.task_map["N0"] = app.tasks[0]
