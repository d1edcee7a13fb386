"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the real stdout so the outcome
is visible even under pytest's capture. Expected values come from
independent oracles written before the implementation.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import random
import sys
import time

import pytest

from fusionproof.cli import EXIT_OK, main
from fusionproof.handler import FusionSetup, RouteKind, generate_trace_id
from fusionproof.proofs import (
    StoredGroup,
    ThresholdPolicy,
    ViolationKind,
    build_merkle_tree,
    canonical_record_bytes,
    filter_batch,
    group_file_bytes,
    load_setups,
    parse_group_file,
    parse_log_lines,
    persist_evidence,
    record_leaf_hashes,
)
from fusionproof.store import FileStore, MemoryStore
from fusionproof.verification import (
    SamplingState,
    commit,
    csp1_step,
    find_mismatch,
    run_optimization,
    verify_integrity,
)
from fusionproof.workload import (
    AttackPlan,
    InvocationRecord,
    builtin_iot_app,
    emit_platform_logs,
    execute_request,
    run_workload,
)


# Independent Merkle oracle, written before the implementation: pad an
# odd level by repeating its last node, combine pairs, recurse.
def oracle_root(leaves: list[str]) -> str:
    if not leaves:
        return ""
    work = list(leaves)
    if len(work) % 2 == 1:
        work.append(work[-1])
    return _oracle_reduce(work)


def _oracle_reduce(level: list[str]) -> str:
    if len(level) == 1:
        return level[0]
    if len(level) % 2 == 1:
        level = level + [level[-1]]
    combined = [
        hashlib.sha256((level[i] + level[i + 1]).encode("utf-8")).hexdigest()
        for i in range(0, len(level), 2)
    ]
    return _oracle_reduce(combined)


def criterion(number: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                sys.__stdout__.write(f"ACCEPTANCE {number} {label}: FAIL\n")
                sys.__stdout__.flush()
                raise
            sys.__stdout__.write(f"ACCEPTANCE {number} {label}: PASS\n")
            sys.__stdout__.flush()

        return run

    return wrap


IOT = builtin_iot_app()
IOT_TASKS = ["CW", "SE", "CS", "CT", "CA"]
FUSED = FusionSetup.fused([IOT_TASKS])
SPLIT = FusionSetup.singletons(IOT_TASKS)
POLICY = ThresholdPolicy(expected_sequence=IOT.sync_chain())
KEY = "CW.SE.CS.CT.CA"


def fused_entry_record(randomness: bytes, origin: int = 0) -> InvocationRecord:
    trace = generate_trace_id(FUSED, "CW", randomness)
    return execute_request(IOT, FUSED, trace, None, 3, origin)[0]


def write_cli_config(tmp_path, **overrides):
    doc = {
        "app": "iot",
        "initial_setup": "fused",
        "request_counts": [2],
        "iterations": 1,
        "seed": 7,
        "store_root": str(tmp_path / "evidence"),
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@criterion(1, "merkle root equals independent oracle for 0..16 leaves")
def test_acceptance_1_merkle_oracle():
    started = time.monotonic()
    rng = random.Random(1)
    for count in range(17):
        leaves = [
            hashlib.sha256(f"{count}-{i}-{rng.random()}".encode()).hexdigest()
            for i in range(count)
        ]
        assert build_merkle_tree(leaves).root == oracle_root(leaves)
    assert time.monotonic() - started < 1.0


@criterion(2, "exhaustive small-batch tampering is detected and pruned exactly")
def test_acceptance_2_exhaustive_tampering():
    started = time.monotonic()
    for n in range(1, 6):
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(1, n + 1)
        )
        for positions in subsets:
            store = MemoryStore()
            records = [
                fused_entry_record(bytes([50 + p]) * 32, origin=1000 * p)
                for p in range(n)
            ]
            persist_evidence(store, KEY, records)
            stored_tree = parse_group_file(store.get(f"{KEY}.json"))[-1]
            mutated = [
                dataclasses.replace(r, billed_duration_ms=r.billed_duration_ms + 5)
                if p in positions
                else r
                for p, r in enumerate(records)
            ]
            encoded = tuple(map(canonical_record_bytes, mutated))
            assert find_mismatch(
                record_leaf_hashes(encoded), stored_tree.leaves
            ) == list(positions)
            report = commit(verify_integrity({KEY: StoredGroup(encoded, stored_tree)}), store)
            assert report.integrity_verified is False
            assert report.group_results[KEY] is False
            assert report.pruned[KEY] == tuple(records[p].trace_id for p in positions)
            survivors = tuple(
                canonical_record_bytes(r) for p, r in enumerate(records) if p not in positions
            )
            assert report.outcomes[KEY].survivors == survivors
            reloaded = load_setups(store)
            second = commit(verify_integrity(reloaded), store)
            if survivors:
                assert second.integrity_verified is True
            else:
                # Nothing survived: the rewritten group holds the empty
                # proof, which can never verify and prunes nothing more.
                assert store.get(f"{KEY}.json") == b'[{"root":"","leaf":[]}]'
                assert second.integrity_verified is False
                assert second.pruned == {}
    assert time.monotonic() - started < 10.0


@criterion(3, "one inflated-duration trace among ten is excluded before the proof")
def test_acceptance_3_dow_scenario(tmp_path):
    attack = AttackPlan.dow("SE", 999999, lambda iteration, request: request == 0)
    batch = run_workload(IOT, FUSED, [10], attack, 1, seed=101)
    assert len(batch.records) == 50
    attacked_traces = {o.trace_id for o in batch.outcomes if o.attacked}
    assert len(attacked_traces) == 1

    clean, flagged = filter_batch(batch.records, ThresholdPolicy(max_billed_ms=90000))
    assert len(clean) == 45
    assert len(flagged) == 5
    assert {r.trace_id for r, _ in flagged} == attacked_traces
    assert any(v.kind is ViolationKind.DURATION_EXCEEDED for _, v in flagged)

    store_root = tmp_path / "evidence"
    tree = persist_evidence(FileStore(store_root), KEY, clean)
    assert len(tree.leaves) == 45
    blocks = parse_group_file(FileStore(store_root).get(f"{KEY}.json"))
    assert blocks[:-1] == clean
    attacked = next(iter(attacked_traces))
    assert f"{KEY}/{attacked}.json" not in FileStore(store_root).list()

    config = write_cli_config(tmp_path)
    assert main(["verify", "--config", str(config)]) == EXIT_OK


@criterion(4, "call-order manipulation is flagged, stored reorders break the root")
def test_acceptance_4_business_logic_scenario(tmp_path):
    attack = AttackPlan.business_logic(
        ("CT", "CA"), lambda iteration, request: request == 0
    )
    batch = run_workload(IOT, FUSED, [3], attack, 1, seed=103)
    clean, flagged = filter_batch(batch.records, POLICY)
    assert len(clean) == 10
    assert len(flagged) == 5
    assert {r.trace_id for r, _ in flagged} == {o.trace_id for o in batch.outcomes if o.attacked}
    assert all(v.kind is ViolationKind.SEQUENCE_VIOLATION for _, v in flagged)

    # Reordering two persisted blocks must break the stored root.
    store = MemoryStore()
    records = [fused_entry_record(bytes([60 + p]) * 32, origin=1000 * p) for p in range(3)]
    persist_evidence(store, KEY, records)
    tree = parse_group_file(store.get(f"{KEY}.json"))[-1]
    reordered = [records[1], records[0], records[2]]
    store.put(f"{KEY}.json", group_file_bytes(reordered, tree))
    setups = load_setups(store)
    report = commit(verify_integrity(setups), store)
    assert report.integrity_verified is False
    assert set(report.pruned[KEY]) == {records[0].trace_id, records[1].trace_id}


@criterion(5, "perfect recall and zero false positives across load levels")
def test_acceptance_5_detection_across_loads():
    started = time.monotonic()
    loads = (100, 200, 300, 400, 500, 1000)
    attacks = [
        AttackPlan.dow("SE", 999999),
        AttackPlan.business_logic(("CT", "CA")),
    ]
    for attack in attacks:
        batch = run_workload(IOT, FUSED, loads, attack, 5, seed=105)
        _, flagged = filter_batch(batch.records, POLICY)
        flagged_traces = {r.trace_id for r, _ in flagged}
        for load in loads:
            outcomes = [o for o in batch.outcomes if o.load == load]
            attacked = {o.trace_id for o in outcomes if o.attacked}
            benign = {o.trace_id for o in outcomes if not o.attacked}
            assert attacked, "alternating iterations must attack some requests"
            recall = len(attacked & flagged_traces) / len(attacked)
            false_positives = len(benign & flagged_traces)
            assert recall == 1.0
            assert false_positives == 0
    assert time.monotonic() - started < 60.0


@criterion(6, "sampling settles near the configured fraction and rebounds on defects")
def test_acceptance_6_csp1_statistics():
    state = SamplingState(i=10, f=0.2)
    last = True
    for _ in range(10):
        _, state = csp1_step(state, last, 0.99)
    assert state.clearance_count >= state.i

    rng = random.Random(106)
    inspected = 0
    for _ in range(10_000):
        inspect, state = csp1_step(state, last, rng.random())
        inspected += inspect
        last = True if inspect else None
    fraction = inspected / 10_000
    assert abs(fraction - 0.2) <= 0.03
    assert state.clearance_count >= state.i

    # One defect forces full inspection for at least i groups.
    decisions = []
    inspect, state = csp1_step(state, False, rng.random())
    decisions.append(inspect)
    for _ in range(9):
        inspect, state = csp1_step(state, True, 0.99)
        decisions.append(inspect)
    assert decisions == [True] * 10
    assert state.clearance_count < state.i
    # The i-th conforming group after the defect completes the rebound.
    _, state = csp1_step(state, True, 0.99)
    assert state.clearance_count >= state.i


@criterion(7, "optimizer walks 482 ms down to the 282 ms fused setup")
def test_acceptance_7_optimizer_convergence():
    trace = run_optimization(IOT, SPLIT, 7, policy=POLICY, seed=107)
    costs = [r.estimated_cost_ms for r in trace.iterations]
    assert costs[0] == pytest.approx(482.0)
    assert costs[-1] == pytest.approx(282.0)
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert trace.final_setup.setup_part == FUSED.setup_part
    assert any(r.setup_part == FUSED.setup_part for r in trace.iterations)


@criterion(8, "when every group fails verification the setup reverts and stays put")
def test_acceptance_8_revert_rule():
    def tamper_everything(iteration, store):
        for key in [k for k in store.list() if "/" not in k]:
            blocks = parse_group_file(store.get(key))
            tree, records = blocks[-1], blocks[:-1]
            mutated = [
                dataclasses.replace(r, billed_duration_ms=r.billed_duration_ms + 1)
                for r in records
            ]
            store.put(key, group_file_bytes(mutated, tree))

    trace = run_optimization(
        IOT, SPLIT, 4, policy=POLICY, seed=108, request_counts=(2,),
        tamper=tamper_everything,
    )
    for result in trace.iterations:
        assert result.integrity_verified is False
        assert result.reverted is True
        assert result.setup_part == SPLIT.setup_part
    assert trace.final_setup is SPLIT


def randomized_records(count: int, seed: int) -> list[InvocationRecord]:
    rng = random.Random(seed)
    names = ["CW", "SE", "CS", "CT", "CA", "N0", "N0_1", "Task9"]
    records = []
    for i in range(count):
        task = rng.choice(names)
        records.append(
            InvocationRecord(
                trace_id=f"{task}-{task}-{rng.getrandbits(256):064x}-{i:064x}",
                task=task,
                chain_index=rng.randrange(10**6),
                caller=rng.choice(names + ["I"]),
                start_ms=rng.randrange(10**9),
                billed_duration_ms=rng.randrange(1, 10**9),
                memory_used_mb=rng.randrange(1, 10**4),
                route=rng.choice(list(RouteKind)),
                setup_version=rng.randrange(100),
            )
        )
    return records


@criterion(9, "seeded runs are byte-identical and 10k-record round-trips hold")
def test_acceptance_9_determinism_and_round_trips(tmp_path):
    outputs = []
    for label in ("first", "second"):
        base = tmp_path / label
        base.mkdir()
        config = write_cli_config(
            base, initial_setup="split", iterations=5, request_counts=[3]
        )
        assert main(["run", "--config", str(config)]) == EXIT_OK
        assert main(["optimize", "--config", str(config)]) == EXIT_OK
        outputs.append(base / "out")
    for name in ("records.csv", "flagged.csv", "optimization_trace.json", "summary.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()

    records = randomized_records(10_000, seed=109)
    parsed, rejects = parse_log_lines(emit_platform_logs(records))
    assert rejects == []
    assert parsed == records

    store = MemoryStore()
    persist_evidence(store, "RT", records)
    blocks = parse_group_file(store.get("RT.json"))
    assert blocks[:-1] == records
    encoded = list(map(canonical_record_bytes, records))
    assert blocks[-1] == build_merkle_tree(record_leaf_hashes(encoded))

    disk = FileStore(tmp_path / "rt")
    sample = records[:1000]
    persist_evidence(disk, "RT", sample)
    reloaded = load_setups(disk)
    assert reloaded["RT"].records == tuple(map(canonical_record_bytes, sample))
