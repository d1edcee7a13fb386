"""Simulator walk semantics, attacks, and log emission."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import random
import typing
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fusionproof import workload
from fusionproof.errors import (
    CycleDetected,
    InvalidAttack,
    ParseError,
    SetupMismatch,
    TamperedTraceID,
    UnknownCallee,
)
from fusionproof.handler import EXTERNAL_CALLER, FusionSetup, RouteKind, generate_trace_id
from fusionproof.proofs import ThresholdPolicy, canonical_record_bytes, filter_batch
from fusionproof.workload import (
    RECORD_FIELDS,
    AppSpec,
    AttackMode,
    AttackPlan,
    CallMode,
    CallSpec,
    CostModel,
    InvocationRecord,
    TaskSpec,
    builtin_iot_app,
    builtin_tree_app,
    emit_platform_logs,
    execute_request,
    expected_trace,
    record_to_wire,
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
        assert expected_trace(IOT) == (("CW", "I", 37, 10), ("SE", "CW", 37, 10), ("CS", "SE", 76, 10),
                                       ("CT", "CS", 64, 10), ("CA", "CT", 68, 10))

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


class TestCostModel:
    @pytest.mark.parametrize("value", [-1, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("key", ["remote_overhead_ms", "local_overhead_ms", "memory_weight"])
    def test_no_call_can_have_the_cost(self, key, value):
        with pytest.raises(ParseError) as info:
            CostModel(**{key: value})
        assert str(info.value) == f"{key} must be finite and >= 0, got {value!r}"


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

    @pytest.mark.parametrize(
        "last_callee, message",
        [("B", "cycle through B -> C -> B"), ("A", "cycle through A -> B -> C -> A")],
        ids=["back_to_the_middle", "back_to_the_entry"],
    )
    def test_cycle_message_names_only_the_cycle_in_call_order(self, last_callee, message):
        tasks = (
            TaskSpec("A", 1, calls=(CallSpec("B"),)),
            TaskSpec("B", 1, calls=(CallSpec("C"),)),
            TaskSpec("C", 1, calls=(CallSpec(last_callee),)),
        )
        with pytest.raises(CycleDetected) as info:
            AppSpec("loop", "A", tasks)
        assert str(info.value) == message

    def test_undeclared_callee_rejected(self):
        with pytest.raises(UnknownCallee):
            AppSpec("bad", "A", (TaskSpec("A", 1, calls=(CallSpec("X"),)),))

    def test_missing_entry_rejected(self):
        with pytest.raises(UnknownCallee):
            AppSpec("bad", "Z", (TaskSpec("A", 1),))


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

    def test_forged_hash_part_is_tampered(self):
        trace = generate_trace_id(FUSED, "CW", b"\xab" * 32)
        head, hash_part = trace.rsplit("-", 1)
        forged = f"{head}-{'1' if hash_part[0] == '0' else '0'}{hash_part[1:]}"
        with pytest.raises(TamperedTraceID):
            execute_request(IOT, FUSED, forged, None, 7, 0)

    def test_dow_inflates_only_target_billed(self):
        records = one_request(FUSED, AttackPlan(AttackMode.DOW, "SE", 999999))
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
        records = one_request(FUSED, AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CT", "CA")))
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
            one_request(FUSED, AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CW", "CS")))

    def test_business_logic_needs_both_tasks_in_the_trace(self):
        with pytest.raises(InvalidAttack, match="not both present in the trace"):
            one_request(FUSED, AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CW", "NOPE")))

    def test_business_logic_rejects_async_targets(self):
        app = builtin_tree_app(2, 1)
        setup = FusionSetup.fused([app.task_names()])
        trace = generate_trace_id(setup, "N0", b"\x01" * 32)
        with pytest.raises(InvalidAttack):
            attack = AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("N0_0", "N0_1"))
            execute_request(app, setup, trace, attack, 1, 0)

    def test_dow_needs_declared_target(self):
        with pytest.raises(InvalidAttack):
            one_request(FUSED, AttackPlan(AttackMode.DOW, "NOPE", 999999))

    @pytest.mark.parametrize("inflated", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_dow_refuses_a_non_finite_duration(self, inflated):
        with pytest.raises(InvalidAttack, match="positive, finite inflated duration"):
            AttackPlan(AttackMode.DOW, "SE", inflated)

    def test_attack_plan_validation(self):
        with pytest.raises(InvalidAttack):
            AttackPlan(AttackMode.DOW, "", 999999)
        with pytest.raises(InvalidAttack):
            AttackPlan(AttackMode.DOW, "SE", 0)
        with pytest.raises(InvalidAttack):
            AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CT", "CT"))

    def test_plans_differing_only_in_their_gate_differ(self):
        always = AttackPlan(AttackMode.DOW, "SE", 999999, when="always")
        assert always != AttackPlan(AttackMode.DOW, "SE", 999999)
        assert always == AttackPlan(AttackMode.DOW, "SE", 999999, when="always")

    def test_unknown_gate_is_refused(self):
        with pytest.raises(InvalidAttack) as info:
            AttackPlan(AttackMode.DOW, "SE", 999999, when="never")
        assert str(info.value) == (
            "attack gate 'never' is not one of odd_iterations, even_iterations, always, "
            "first_request")

    def test_dow_needs_a_reached_target(self):
        app = AppSpec("pair", "A", (
            TaskSpec("A", 10, calls=(CallSpec("B"),)), TaskSpec("B", 20), TaskSpec("C", 30)))
        attack = AttackPlan(AttackMode.DOW, "C", 999999, when="always")
        with pytest.raises(InvalidAttack) as info:
            run_workload(app, FusionSetup.fused([["A", "B", "C"]]), [3], attack, 1, seed=1)
        assert str(info.value) == "target task 'C' is not reached from 'A'"

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


class TestTraceIdEntryCheck:
    """An id is checked where it enters: execute_request checks the TraceID
    its caller gives, and run_workload does not re-check the ids it mints."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = workload.parse_and_validate_trace_id
        monkeypatch.setattr(workload, "parse_and_validate_trace_id",
                            lambda *args: calls.append(args) or check(*args))
        return calls

    def test_run_workload_checks_none_of_its_minted_ids(self, checks):
        batch = run_workload(IOT, FUSED, [3], AttackPlan(AttackMode.DOW, "SE", 999999), 2, seed=3)
        assert len(batch.outcomes) == 6
        assert checks == []

    def test_execute_request_checks_its_id_once(self, checks):
        one_request(FUSED)
        assert len(checks) == 1


class TestRunWorkload:
    def test_record_count_arithmetic(self):
        batch = run_workload(IOT, FUSED, [2], None, 1, seed=3)
        assert len(batch.records) == 10
        assert len(batch.outcomes) == 2
        assert not {o.trace_id for o in batch.outcomes if o.attacked}

    def test_multi_load_counts(self):
        batch = run_workload(IOT, FUSED, [2, 3], None, 2, seed=3)
        assert len(batch.records) == 2 * (2 + 3) * 5
        assert {o.load for o in batch.outcomes} == {2, 3}

    def test_fresh_trace_per_request(self):
        batch = run_workload(IOT, FUSED, [4], None, 2, seed=3)
        ids = {o.trace_id for o in batch.outcomes}
        assert len(ids) == 8

    def test_default_attack_gate_alternates_iterations(self):
        attack = AttackPlan(AttackMode.DOW, "SE", 999999)
        batch = run_workload(IOT, FUSED, [1], attack, 2, seed=3)
        assert [o.attacked for o in batch.outcomes] == [False, True]
        billed = [r.billed_duration_ms for r in batch.records if r.task == "SE"]
        assert billed == [37, 999999]

    @pytest.mark.parametrize("attack, message", [
        (AttackPlan(AttackMode.DOW, "NOPE", 999999), "target task 'NOPE' is not declared"),
        (AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CW", "NOPE")),
         "swap tasks 'CW', 'NOPE' not both present in the trace"),
        (AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CW", "CS")),
         "swap tasks 'CW', 'CS' are not consecutive in the chain"),
    ], ids=["undeclared", "absent", "apart"])
    def test_unfit_attack_is_refused_though_its_gate_never_fires(self, attack, message):
        # The default odd_iterations gate fires on no request of iteration 0.
        with pytest.raises(InvalidAttack) as info:
            run_workload(IOT, FUSED, [3], attack, 1, seed=1)
        assert str(info.value) == message

    def test_iteration_offset_shifts_gate(self):
        attack = AttackPlan(AttackMode.DOW, "SE", 999999)
        batch = run_workload(IOT, FUSED, [1], attack, 1, seed=3, iteration_offset=1)
        assert [o.attacked for o in batch.outcomes] == [True]

    def test_requests_spaced_on_virtual_clock(self):
        batch = run_workload(IOT, FUSED, [3], None, 1, seed=3)
        starts = [r.start_ms for r in batch.records if r.task == "CW"]
        assert starts == [0, 1000, 2000]

    def test_determinism(self):
        a = run_workload(IOT, SPLIT, [3], AttackPlan(AttackMode.DOW, "SE", 999999), 2, seed=42)
        b = run_workload(IOT, SPLIT, [3], AttackPlan(AttackMode.DOW, "SE", 999999), 2, seed=42)
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


# Five tasks with jitter, fractional durations and memories, and both
# call modes; depth-first order is A, B, E, C, D.
JITTERED = AppSpec("jit", "A", (
    TaskSpec("A", 20.25, 63.5, 0.0, (
        CallSpec("B"), CallSpec("C", CallMode.ASYNC), CallSpec("D"),
    )),
    TaskSpec("B", 37.5, 99.5, 0.5, (CallSpec("E"),)),
    TaskSpec("C", 80.75, 64.0, 0.25, (CallSpec("D", CallMode.ASYNC),)),
    TaskSpec("D", 12.5, 10.5, 0.1),
    TaskSpec("E", 49.5, 31.25, 0.4),
))
JITTERED_SETUPS = (
    FusionSetup.singletons(JITTERED.task_names(), version=3),
    FusionSetup.fused([["A", "B", "E"], ["C", "D"]], version=3),
    FusionSetup.fused([JITTERED.task_names()], version=3),
)
JITTERED_SHA256 = "6e6afa1509e699a78d5738b2c4269f9bf60367dd4f7e40f7ca7590831d512863"


class TestJitteredWalk:
    """The walk's output, pinned on an app that exercises every input it reads."""

    def test_records_are_pinned(self):
        digest = hashlib.sha256()
        billed_b = set()
        for setup in JITTERED_SETUPS:
            for attack in (
                None,
                AttackPlan(AttackMode.DOW, "D", 5000.5, when="always"),
                AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("B", "E")),
            ):
                batch = run_workload(JITTERED, setup, [3, 7], attack, 2, 11, CostModel(17.5, 2.25))
                for record in batch.records:
                    digest.update(canonical_record_bytes(record) + b"\n")
                billed_b.update(r.billed_duration_ms for r in batch.records if r.task == "B")
        assert len(billed_b) > 10
        assert digest.hexdigest() == JITTERED_SHA256

    @pytest.mark.parametrize("setup", JITTERED_SETUPS)
    def test_execute_request_matches_run_workload(self, setup):
        batch = run_workload(JITTERED, setup, [1], None, 1, 11, CostModel(17.5, 2.25))
        master = random.Random(11)
        trace = generate_trace_id(setup, "A", master.randbytes(32))
        records = execute_request(
            JITTERED, setup, trace, None, master.getrandbits(64), 0, CostModel(17.5, 2.25)
        )
        assert tuple(records) == batch.records

    def test_routes_each_edge_once_per_run(self, monkeypatch):
        calls = []
        original = workload.route_call

        def counting(setup, caller, callee):
            calls.append((caller, callee))
            return original(setup, caller, callee)

        monkeypatch.setattr(workload, "route_call", counting)
        app = builtin_tree_app(4, 2)
        batch = run_workload(app, FusionSetup.singletons(app.task_names()), [5], None, 1, 3)
        assert len(batch.records) == 5 * 21
        assert len(calls) == len(set(calls)) == 20

    @pytest.mark.parametrize("app,random_calls", [
        (builtin_tree_app(4, 2), 1),
        (JITTERED, 1 + 5),
    ])
    def test_generators_per_run(self, monkeypatch, app, random_calls):
        """The master always; a generator per request only for a jittered app."""
        built = []
        original = workload.random.Random

        def counting(seed):
            built.append(seed)
            return original(seed)

        monkeypatch.setattr(workload.random, "Random", counting)
        run_workload(app, FusionSetup.singletons(app.task_names()), [5], None, 1, 3)
        assert len(built) == random_calls


RECORD = InvocationRecord("tid", "CW", 0, "I", 0, 37, 10, RouteKind.REMOTE, 1)


class TestRecordContract:
    """The slotted record keeps every promise of a frozen dataclass."""

    @pytest.mark.parametrize("edit", [
        lambda r: setattr(r, "billed_duration_ms", 1),
        lambda r: delattr(r, "billed_duration_ms"),
    ])
    def test_frozen(self, edit):
        with pytest.raises(dataclasses.FrozenInstanceError):
            edit(RECORD)
        assert RECORD.billed_duration_ms == 37

    def test_no_new_attribute(self):
        # For a name that is not a field, the frozen __setattr__ of a slotted
        # dataclass raises TypeError on Python 3.11 (its super() call names
        # the class as it was before slots were added).
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            RECORD.extra = 1
        assert not hasattr(RECORD, "extra")

    def test_no_instance_dict(self):
        assert not hasattr(RECORD, "__dict__")

    def test_copy_and_pickle(self):
        assert copy.copy(RECORD) == copy.deepcopy(RECORD) == RECORD
        assert pickle.loads(pickle.dumps(RECORD)) == RECORD

    def test_equal_fields_equal_records(self):
        twin = InvocationRecord("tid", "CW", 0, "I", 0, 37, 10, RouteKind.REMOTE, 1)
        assert twin == RECORD and twin is not RECORD
        assert hash(twin) == hash(RECORD)
        assert twin != dataclasses.replace(RECORD, setup_version=2)

    def test_replace_and_fields(self):
        assert [f.name for f in dataclasses.fields(InvocationRecord)] == [
            "trace_id", "task", "chain_index", "caller", "start_ms",
            "billed_duration_ms", "memory_used_mb", "route", "setup_version",
        ]
        changed = dataclasses.replace(RECORD, billed_duration_ms=99)
        assert changed.billed_duration_ms == 99
        assert dataclasses.replace(changed, billed_duration_ms=37) == RECORD

    def test_wire_schema_table_matches_the_record(self):
        attributes, keys, types = (list(column) for column in zip(*RECORD_FIELDS))
        assert attributes == [f.name for f in dataclasses.fields(InvocationRecord)]
        assert types == list(typing.get_type_hints(InvocationRecord).values())
        assert dict(zip(attributes, types)) == typing.get_type_hints(InvocationRecord)
        assert list(record_to_wire(RECORD)) == keys == [
            "traceid", "task", "idx", "caller", "start", "billed", "mem", "route", "setupv",
        ]

    def test_keyword_construction(self):
        assert InvocationRecord(
            trace_id="tid", task="CW", chain_index=0, caller="I", start_ms=0,
            billed_duration_ms=37, memory_used_mb=10, route=RouteKind.REMOTE,
            setup_version=1,
        ) == RECORD

    def test_repr(self):
        assert repr(RECORD) == (
            "InvocationRecord(trace_id='tid', task='CW', chain_index=0, caller='I', "
            "start_ms=0, billed_duration_ms=37, memory_used_mb=10, "
            "route=<RouteKind.REMOTE: 'REMOTE'>, setup_version=1)"
        )

    def test_missing_argument(self):
        with pytest.raises(TypeError):
            InvocationRecord("tid", "CW", 0, "I", 0, 37, 10, RouteKind.REMOTE)


def reference_walk(app, setup, trace, seed, clock_origin_ms, remote_overhead_ms, local_overhead_ms):
    """The walk as it was when each visit built a list of its async
    completions and returned max([now, *async_completions]); kept as the
    oracle for the walk that keeps the latest completion in a local."""
    reachable = [app.task_map[name] for name in dict.fromkeys(t for t, *_ in expected_trace(app))]
    jittered = any(task.jitter_fraction for task in reachable)
    overhead = {RouteKind.REMOTE: remote_overhead_ms, RouteKind.LOCAL: local_overhead_ms}
    table = {}
    for task in reachable:
        routes = [(call, workload.route_call(setup, task.name, call.callee)) for call in task.calls]
        edges = tuple((c.callee, c.mode is CallMode.SYNC, r, overhead[r]) for c, r in routes)
        duration = task.base_duration_ms if jittered else workload._quantize(task.base_duration_ms)
        table[task.name] = (duration, task.jitter_fraction, workload._quantize(task.base_memory_mb), edges)
    draw = random.Random(seed).random if jittered else None
    records = []

    def visit(name, caller, start, kind):
        duration, jitter, memory, edges = table[name]
        billed = duration if draw is None else workload._quantize(
            duration * (1.0 + jitter * (2.0 * draw() - 1.0)))
        records.append(InvocationRecord(
            trace, name, len(records), caller, int(round(start)),
            billed, memory, kind, setup.version,
        ))
        now = start + billed
        async_completions = []
        for callee, is_sync, route, delay in edges:
            if is_sync:
                now = visit(callee, name, now + delay, route)
            else:
                async_completions.append(visit(callee, name, start + delay, route))
        return max([now, *async_completions])

    visit(app.entry_task, workload.EXTERNAL_CALLER, float(clock_origin_ms), RouteKind.REMOTE)
    return records


_OVERHEAD = st.floats(min_value=0, max_value=100, allow_nan=False, allow_infinity=False)


@st.composite
def _walk_inputs(draw, jitter=True):
    """A tree app (fanout 2-4, depth 1-3) or iot, with a jitter fraction (unless
    jitter is false) and a call mode drawn per task and per call, under a drawn partition."""
    base = draw(st.one_of(
        st.just(IOT), st.builds(builtin_tree_app, st.integers(2, 4), st.integers(1, 3))))
    tasks = tuple(
        dataclasses.replace(
            task,
            jitter_fraction=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
            if jitter else 0.0,
            calls=tuple(CallSpec(c.callee, draw(st.sampled_from(CallMode))) for c in task.calls),
        )
        for task in base.tasks
    )
    app = AppSpec(base.name, base.entry_task, tasks)
    group_of = [draw(st.integers(0, 2)) for _ in tasks]
    groups = [[t.name for t, g in zip(tasks, group_of) if g == k] for k in range(3)]
    setup = FusionSetup.fused([g for g in groups if g], version=draw(st.integers(1, 3)))
    return app, setup


class TestWalkMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(_walk_inputs(), st.binary(min_size=32, max_size=32), st.integers(0, 2**64 - 1),
           st.floats(0, 10**7, allow_nan=False), _OVERHEAD, _OVERHEAD)
    def test_records_equal_the_list_building_walk(self, app_setup, randomness, seed, origin,
                                                  remote, local):
        app, setup = app_setup
        trace = generate_trace_id(setup, app.entry_task, randomness)
        records = execute_request(app, setup, trace, None, seed, origin, CostModel(remote, local))
        assert records == reference_walk(app, setup, trace, seed, origin, remote, local)


# Whole-number overheads as int and as integral float.
_WHOLE_OVERHEAD = st.one_of(st.integers(0, 100), st.integers(0, 100).map(float))


def _span(app, setup, model):
    """Each visit's bill plus the |delay| of the call that reached it, summed."""
    trace = generate_trace_id(setup, app.entry_task, b"\x00" * 32)
    records = reference_walk(app, setup, trace, 0, 0, model.remote_overhead_ms,
                             model.local_overhead_ms)
    return sum(r.billed_duration_ms for r in records) + sum(
        abs(int(model.overhead_ms(r.route))) for r in records[1:])


def _walk_once(app, setup, model, trace, attack, seed, origin):
    """(records of one compiled walk, whether it replayed the compile-time timeline).

    The probe: the replayed rows were timed before EXTERNAL_CALLER is patched,
    so only a walk that recurses names the patched entry caller."""
    walk = workload._compile_walk(app, setup, model, attack)
    with mock.patch.object(workload, "EXTERNAL_CALLER", "probe"):
        records = walk(trace, attack is not None, seed, origin)
    entry = next(i for i, r in enumerate(records) if r.task == app.entry_task)
    replayed = records[entry].caller != "probe"
    if not replayed:  # the caller the recursion would have named
        records[entry] = dataclasses.replace(records[entry], caller=workload.EXTERNAL_CALLER)
    return records, replayed


def _reference(app, setup, model, trace, seed, origin):
    return reference_walk(app, setup, trace, seed, origin, model.remote_overhead_ms,
                          model.local_overhead_ms)


class TestReplayMatchesReference:
    """A jitter-free walk with whole-number overheads is timed once and replayed
    at each integer origin within 2**53 - span; every other request recurses."""

    @settings(max_examples=100, deadline=None)
    @given(_walk_inputs(jitter=False), st.binary(min_size=32, max_size=32),
           st.integers(0, 2**64 - 1), _WHOLE_OVERHEAD, _WHOLE_OVERHEAD,
           st.one_of(st.integers(0, 10**7), st.tuples(st.sampled_from([1, -1]), st.integers(0, 3))))
    def test_replay_equals_the_reference(self, app_setup, randomness, seed, remote, local, origin):
        app, setup = app_setup
        model = CostModel(remote, local)
        if isinstance(origin, tuple):  # at the bound, or up to 3 ms inside it
            sign, inside = origin
            origin = sign * (2**53 - _span(app, setup, model) - inside)
        trace = generate_trace_id(setup, app.entry_task, randomness)
        records, replayed = _walk_once(app, setup, model, trace, None, seed, origin)
        assert replayed
        assert records == _reference(app, setup, model, trace, seed, origin)

        batch = run_workload(app, setup, [3], None, 1, seed, model)
        master = random.Random(seed)
        expected = []
        for serial in range(3):
            request_trace = generate_trace_id(setup, app.entry_task, master.randbytes(32))
            expected += _reference(app, setup, model, request_trace, master.getrandbits(64),
                                   serial * workload.REQUEST_SPACING_MS)
        assert list(batch.records) == expected

    @pytest.mark.parametrize("app, model, origin", [
        (builtin_tree_app(3, 2), CostModel(50.5, 0), 5000),
        (builtin_tree_app(3, 2), CostModel(50, 0.25), 5000),
        (AppSpec("tree", "N0", tuple(
            dataclasses.replace(t, jitter_fraction=0.1) if t.name == "N0_1" else t
            for t in builtin_tree_app(3, 2).tasks)), CostModel(50, 0), 5000),
        (builtin_tree_app(3, 2), CostModel(50, 0), 5000.0),
        (IOT, CostModel(50, 0), 2**53 - _span(IOT, SPLIT, CostModel(50, 0)) + 1),
        (IOT, CostModel(50, 0), -(2**53 - _span(IOT, SPLIT, CostModel(50, 0)) + 1)),
    ], ids=["fractional-remote", "fractional-local", "one-jittered-task", "float-origin",
            "past-the-bound", "past-the-bound-negative"])
    def test_fallback_recurses_and_equals_the_reference(self, app, model, origin):
        setup = SPLIT if app is IOT else FusionSetup.fused(
            [[n for n in app.task_names() if n.startswith("N0_0")],
             [n for n in app.task_names() if not n.startswith("N0_0")]])
        trace = generate_trace_id(setup, app.entry_task, b"\x05" * 32)
        records, replayed = _walk_once(app, setup, model, trace, None, 11, origin)
        assert not replayed
        assert records == _reference(app, setup, model, trace, 11, origin)

    def test_float_origin_through_execute_request(self):
        app = builtin_tree_app(3, 2)
        setup = FusionSetup.singletons(app.task_names())
        trace = generate_trace_id(setup, "N0", b"\x06" * 32)
        for origin in (5000.0, 5000.5, 1e15 + 0.5):
            assert execute_request(app, setup, trace, None, 3, origin) == _reference(
                app, setup, CostModel(), trace, 3, origin)

    @pytest.mark.parametrize("attack", [
        AttackPlan(AttackMode.DOW, "CS", 5000.5),
        AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CT", "CA")),
    ], ids=["dow", "business_logic"])
    def test_attack_on_a_replayed_request_gives_the_recursive_records(self, attack):
        trace = generate_trace_id(SPLIT, "CW", b"\x07" * 32)
        replayed, took_replay = _walk_once(IOT, SPLIT, CostModel(), trace, attack, 7, 5000)
        recursed, took_recursion = _walk_once(IOT, SPLIT, CostModel(), trace, attack, 7, 5000.0)
        assert took_replay and not took_recursion
        assert replayed == recursed != _reference(IOT, SPLIT, CostModel(), trace, 7, 5000)


_quantize = workload._quantize


# The attack as each attacked request's records were once rebuilt, kept verbatim as the
# oracle for the walk that checks a plan once and rewrites an attacked request's rows.
def _apply_attack(
    app: AppSpec, records: list[InvocationRecord], attack: AttackPlan
) -> list[InvocationRecord]:
    """Tamper with the already-emitted records of one request."""
    if attack.mode is AttackMode.DOW:
        if attack.target_task not in app.task_map:
            raise InvalidAttack(f"target task {attack.target_task!r} is not declared")
        out = []
        for rec in records:
            if rec.task == attack.target_task:
                rec = replace(rec, billed_duration_ms=_quantize(attack.inflated_duration_ms))
            out.append(rec)
        return out

    assert attack.mode is AttackMode.BUSINESS_LOGIC and attack.swap is not None
    first, second = attack.swap
    positions: dict[str, int] = {}
    for pos, rec in enumerate(records):
        positions.setdefault(rec.task, pos)
    if first not in positions or second not in positions:
        raise InvalidAttack(f"swap tasks {first!r}, {second!r} not both present in the trace")
    p, q = positions[first], positions[second]
    if abs(p - q) != 1:
        raise InvalidAttack(f"swap tasks {first!r}, {second!r} are not consecutive in the chain")
    for task_name in (first, second):
        incoming = records[positions[task_name]].caller
        if incoming != EXTERNAL_CALLER:
            edge = next(c for c in app.task_map[incoming].calls if c.callee == task_name)
            if edge.mode is not CallMode.SYNC:
                raise InvalidAttack(f"swap task {task_name!r} is not reached synchronously")
    out = list(records)
    out[p], out[q] = out[q], out[p]
    # Emission position dictates chain_index, so the swapped pair trade indices.
    a, b = out[p], out[q]
    out[p] = replace(a, chain_index=b.chain_index)
    out[q] = replace(b, chain_index=a.chain_index)
    return out


@st.composite
def _plans(draw, app):
    """A duration attack on a task the walk reaches, or a swap of two tasks
    adjacent in walk order; the swap may still not fit the app."""
    chain = [task for task, *_ in expected_trace(app)]
    if draw(st.booleans()):
        return AttackPlan(AttackMode.DOW, draw(st.sampled_from(chain)),
                          draw(st.floats(0, 10**7, exclude_min=True)))
    first, second = draw(st.sampled_from([pair for pair in zip(chain, chain[1:])
                                          if pair[0] != pair[1]]))
    swap = draw(st.sampled_from([(first, second), (second, first)]))
    return AttackPlan(AttackMode.BUSINESS_LOGIC, swap=swap)


class TestAttackMatchesTheOracle:
    """The compiled walk checks a plan once and rewrites an attacked request's
    rows; its records equal the oracle's rebuild of the reference walk's."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.booleans(), st.binary(min_size=32, max_size=32),
           st.integers(0, 2**64 - 1))
    def test_attacked_walk_equals_the_oracle_on_the_reference(self, data, exact, randomness,
                                                               seed):
        """exact: no jitter, whole overheads and an integer origin, so the walk replays;
        else jitter, any overheads and a float origin, so it recurses."""
        # JITTERED visits D twice, so a duration attack on D rewrites two rows.
        shared = AppSpec("jit", "A", tuple(
            task if not exact else dataclasses.replace(task, jitter_fraction=0.0)
            for task in JITTERED.tasks))
        app, setup = data.draw(st.one_of(
            _walk_inputs(jitter=not exact),
            st.tuples(st.just(shared), st.sampled_from(JITTERED_SETUPS))))
        attack = data.draw(_plans(app))
        overhead = _WHOLE_OVERHEAD if exact else _OVERHEAD
        model = CostModel(data.draw(overhead), data.draw(overhead))
        origin = data.draw(st.integers(0, 10**7) if exact else st.floats(0, 10**7))
        trace = generate_trace_id(setup, app.entry_task, randomness)
        # The expected trace is the clean walk's, and no clean bill exceeds its limit.
        clean = workload._compile_walk(app, setup, model)(trace, False, seed, origin)
        policy = ThresholdPolicy(expected_trace(app))
        assert [(r.task, r.caller) for r in clean] == [row[:2] for row in policy.expected]
        batch = run_workload(app, setup, [3], None, 1, seed, model)
        assert filter_batch(clean + list(batch.records), policy)[1] == []
        try:
            expected = _apply_attack(app, _reference(app, setup, model, trace, seed, origin), attack)
        except InvalidAttack as refused:  # refused at compile time, with the same message
            with pytest.raises(InvalidAttack) as info:
                workload._compile_walk(app, setup, model, attack)
            assert str(info.value) == str(refused)
            event("refused")
            return
        records, replayed = _walk_once(app, setup, model, trace, attack, seed, origin)
        event(f"{attack.mode.value}, {'replayed' if replayed else 'recursed'}")
        assert replayed is exact
        assert records == expected
