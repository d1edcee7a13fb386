"""Integrity verification, sampling plan, metrics, and the optimizer."""

from __future__ import annotations

import dataclasses
import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionproof.proofs as proofs
import fusionproof.verification as verification
from fusionproof.errors import MissingMetric, NoVerifiedData, ParseError, StoreWriteFailed
from fusionproof.handler import FusionSetup, entry_fusion_key, generate_trace_id
from fusionproof.proofs import (
    StoredGroup,
    ThresholdPolicy,
    TreeInfo,
    build_merkle_tree,
    canonical_record_bytes,
    group_file_bytes,
    join_group_file,
    load_setups,
    parse_group_file,
    persist_evidence,
    record_from_wire,
    record_leaf_hashes,
)
from fusionproof.store import MemoryStore
from fusionproof.verification import (
    CostModel,
    FailureReason,
    GroupOutcome,
    SamplingState,
    annotate_metrics,
    commit,
    csp1_step,
    estimate_cost,
    find_mismatch,
    iteration_result_to_wire,
    optimize_step,
    propose_candidates,
    run_optimization,
    verify_integrity,
)
from fusionproof.workload import (
    AppSpec,
    AttackMode,
    AttackPlan,
    CallMode,
    CallSpec,
    TaskSpec,
    builtin_iot_app,
    builtin_tree_app,
    execute_request,
    expected_trace,
    run_workload,
)

IOT = builtin_iot_app()
IOT_TASKS = ["CW", "SE", "CS", "CT", "CA"]
FUSED = FusionSetup.fused([IOT_TASKS])
SPLIT = FusionSetup.singletons(IOT_TASKS)
POLICY = ThresholdPolicy(expected_trace(IOT))
# A calls B twice: the walk visits B once per call.
TWICE = AppSpec("twice", "A", (TaskSpec("A", 10, calls=(CallSpec("B"), CallSpec("B"))),
                               TaskSpec("B", 20)))


def survivors_of(report) -> dict:
    """Each pruned group's surviving record elements."""
    return {key: o.survivors for key, o in report.outcomes.items() if o.reason is FailureReason.PRUNED}


def corrupt_of(report) -> dict:
    """Each corrupt group's reason."""
    return {key: o.detail for key, o in report.outcomes.items() if o.reason is FailureReason.CORRUPT}


def fused_records(randomness: bytes, origin=0):
    trace = generate_trace_id(FUSED, "CW", randomness)
    return execute_request(IOT, FUSED, trace, None, 3, origin)


def iot_metrics(setup: FusionSetup, requests: int = 3) -> AppSpec:
    batch = run_workload(IOT, setup, [requests], None, 1, seed=11)
    clean, flagged = filter_batch_checked(batch.records)
    key = entry_fusion_key(setup, IOT.entry_task)
    return annotate_metrics(clean, key, IOT)


def filter_batch_checked(records):
    from fusionproof.proofs import filter_batch

    clean, flagged = filter_batch(records, POLICY)
    assert flagged == []
    return clean, flagged


class TestFindMismatch:
    def test_identical(self):
        assert find_mismatch(["a", "b"], ["a", "b"]) == []

    def test_single_difference(self):
        assert find_mismatch(["a", "X", "c"], ["a", "b", "c"]) == [1]

    def test_multiple_ascending(self):
        assert find_mismatch(["X", "b", "Y"], ["a", "b", "c"]) == [0, 2]

    def test_recomputed_longer(self):
        assert find_mismatch(["a", "b", "c", "d"], ["a", "b"]) == [2, 3]

    def test_stored_longer(self):
        assert find_mismatch(["a"], ["a", "b", "c"]) == [1, 2]

    def test_both_empty(self):
        assert find_mismatch([], []) == []


def persist_distinct_blocks(store: MemoryStore, n: int):
    """n single-record traces under the fused key, one block each."""
    records = [fused_records(bytes([40 + k]) * 32, origin=1000 * k)[0] for k in range(n)]
    persist_evidence(store, "CW.SE.CS.CT.CA", records)
    return records


class TestVerifyIntegrity:
    KEY = "CW.SE.CS.CT.CA"

    def test_clean_store_verifies(self):
        store = MemoryStore()
        records = fused_records(b"\x31" * 32)
        persist_evidence(store, self.KEY, records)
        before = {k: store.get(k) for k in store.list()}
        setups = load_setups(store)
        report = commit(verify_integrity(setups), store)
        assert report.integrity_verified is True
        assert report.group_results == {self.KEY: True}
        assert report.pruned == {}
        assert {k: store.get(k) for k in store.list()} == before

    def test_empty_setups_not_verified(self):
        report = verify_integrity({})
        assert report.integrity_verified is False
        assert report.group_results == {}

    def test_load_time_corrupt_file_fails_in_the_report(self):
        report = verify_integrity({"ZZ": "not json"})
        assert report.integrity_verified is False
        assert report.group_results == {"ZZ": False}
        assert corrupt_of(report) == {"ZZ": "not json"}

    def test_empty_proof_fails_without_pruning(self):
        store = MemoryStore()
        persist_evidence(store, self.KEY, [])
        before = store.get(f"{self.KEY}.json")
        setups = load_setups(store)
        report = commit(verify_integrity(setups), store)
        assert report.integrity_verified is False
        assert report.group_results == {self.KEY: False}
        assert report.pruned == {}
        assert store.get(f"{self.KEY}.json") == before

    def test_tampered_block_pruned(self):
        store = MemoryStore()
        records = persist_distinct_blocks(store, 3)
        blocks = parse_group_file(store.get(f"{self.KEY}.json"))
        tampered = dataclasses.replace(
            records[1], billed_duration_ms=records[1].billed_duration_ms + 7
        )
        setups = {self.KEY: stored_group([records[0], tampered, records[2]], blocks[-1])}
        report = commit(verify_integrity(setups), store)
        assert report.integrity_verified is False
        assert report.pruned == {self.KEY: (records[1].trace_id,)}
        assert survivors_of(report) == {self.KEY: encoded(records[0], records[2])}

    def test_old_layout_block_reported_corrupt_and_kept(self):
        def verify_tampered(block_too: bool):
            store = MemoryStore()
            records = persist_distinct_blocks(store, 3)
            tree = parse_group_file(store.get(f"{self.KEY}.json"))[-1]
            tampered = dataclasses.replace(records[1], memory_used_mb=999)
            store.put(f"{self.KEY}.json", group_file_bytes([records[0], tampered, records[2]], tree))
            if block_too:
                # A per-trace block as older versions wrote one beside the group file.
                store.put(f"{self.KEY}/{records[1].trace_id}.json", canonical_record_bytes(records[1]))
            setups = load_setups(store)
            assert [k for k, v in setups.items() if not isinstance(v, str)] == [self.KEY]
            return store, records, commit(verify_integrity(setups), store)

        plain_store, records, plain = verify_tampered(block_too=False)
        store, _, report = verify_tampered(block_too=True)
        assert plain.pruned == {self.KEY: (records[1].trace_id,)}
        block_key = f"{self.KEY}/{records[1].trace_id}"
        reason = "group file is not in the layout the pipeline writes"
        assert report == dataclasses.replace(
            plain,
            outcomes={**plain.outcomes, block_key: GroupOutcome(FailureReason.CORRUPT, reason)},
        )
        block = f"{self.KEY}/{records[1].trace_id}.json"
        assert store.list() == [f"{self.KEY}.json", block]
        assert store.get(block) == canonical_record_bytes(records[1])
        assert store.get(f"{self.KEY}.json") == plain_store.get(f"{self.KEY}.json")

    def test_prune_rewrites_group_over_survivors(self):
        store = MemoryStore()
        records = persist_distinct_blocks(store, 3)
        blocks = parse_group_file(store.get(f"{self.KEY}.json"))
        tampered = dataclasses.replace(records[0], memory_used_mb=999)
        setups = {self.KEY: stored_group([tampered, records[1], records[2]], blocks[-1])}
        commit(verify_integrity(setups), store)
        rewritten = parse_group_file(store.get(f"{self.KEY}.json"))
        survivors = [records[1], records[2]]
        assert rewritten[:-1] == survivors
        assert rewritten[-1] == build_merkle_tree(record_leaf_hashes(encoded(*survivors)))

    def test_reverify_after_prune_passes(self):
        store = MemoryStore()
        records = persist_distinct_blocks(store, 4)
        blocks = parse_group_file(store.get(f"{self.KEY}.json"))
        tampered = dataclasses.replace(records[2], billed_duration_ms=1)
        group = stored_group([records[0], records[1], tampered, records[3]], blocks[-1])
        first = commit(verify_integrity({self.KEY: group}), store)
        assert first.integrity_verified is False
        reloaded = load_setups(store)
        assert reloaded[self.KEY].records == survivors_of(first)[self.KEY]
        second = commit(verify_integrity(reloaded), store)
        assert second.integrity_verified is True
        assert survivors_of(second) == {}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_prunes_exactly_the_tampered_positions(self, n):
        for positions in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(1, n + 1)
        ):
            store = MemoryStore()
            records = persist_distinct_blocks(store, n)
            blocks = parse_group_file(store.get(f"{self.KEY}.json"))
            mutated = [
                dataclasses.replace(r, billed_duration_ms=r.billed_duration_ms + 5)
                if p in positions
                else r
                for p, r in enumerate(records)
            ]
            report = commit(verify_integrity({self.KEY: stored_group(mutated, blocks[-1])}), store)
            assert report.pruned[self.KEY] == tuple(
                records[p].trace_id for p in positions
            )
            assert survivors_of(report)[self.KEY] == encoded(
                *(r for p, r in enumerate(records) if p not in positions)
            )

    def test_extra_appended_block_pruned(self):
        store = MemoryStore()
        records = persist_distinct_blocks(store, 2)
        blocks = parse_group_file(store.get(f"{self.KEY}.json"))
        extra = fused_records(b"\x39" * 32, origin=9000)[0]
        setups = {self.KEY: stored_group([*records, extra], blocks[-1])}
        report = commit(verify_integrity(setups), store)
        assert report.pruned == {self.KEY: (extra.trace_id,)}
        assert survivors_of(report)[self.KEY] == encoded(*records)

    def test_appended_copy_of_last_record_is_pruned(self):
        # An odd leaf count pads its last leaf, so the stored root also
        # rebuilds over a copy of the last record; the leaf list does not.
        # The copy's trace, the last five records, is pruned whole.
        store = MemoryStore()
        records = run_workload(IOT, FUSED, [3], None, 1, seed=3).records
        assert len(records) == 15
        assert {r.trace_id for r in records[10:]} == {records[-1].trace_id}
        persist_evidence(store, self.KEY, records)
        append_copy_of_last_record(0, store)
        setups = load_setups(store)
        assert setups[self.KEY].records == encoded(*records, records[-1])
        report = commit(verify_integrity(setups), store)
        assert report.integrity_verified is False
        assert report.pruned == {self.KEY: (records[-1].trace_id,)}
        assert survivors_of(report) == {self.KEY: encoded(*records[:10])}
        survivors = encoded(*records[:10])
        assert store.get(f"{self.KEY}.json") == join_group_file(
            survivors, build_merkle_tree(record_leaf_hashes(survivors)))
        assert commit(verify_integrity(load_setups(store)), store).integrity_verified is True

    @pytest.mark.parametrize("sealed", [False, True], ids=["no_seal", "seal"])
    def test_truncated_last_record_prunes_every_trace(self, sealed):
        """The last record element cut off and the proof left as it was:
        the 15th leaf names no trace, so the leaf list vouches for no
        element, every trace is pruned, and the next verify fails too.
        Sealed, the proof equals its anchor, and the verdict is the same."""
        store, seals = MemoryStore(), {}
        records = run_workload(IOT, FUSED, [3], None, 1, seed=3).records
        assert len(records) == 15
        tree = persist_evidence(store, self.KEY, records, seals)
        store.put(f"{self.KEY}.json", group_file_bytes(records[:-1], tree))
        setups = load_setups(store, seals if sealed else None)
        assert setups[self.KEY].proof == tree
        report = commit(verify_integrity(setups, {self.KEY: tree} if sealed else None), store)
        assert report.group_results == {self.KEY: False}
        assert set(report.pruned[self.KEY]) == {r.trace_id for r in records}
        assert len(report.pruned[self.KEY]) == 3
        assert survivors_of(report) == {self.KEY: ()}
        assert store.get(f"{self.KEY}.json") == group_file_bytes([], TreeInfo.empty())
        assert commit(verify_integrity(load_setups(store)), store).integrity_verified is False

    @pytest.mark.parametrize("hop", [0, 2, 4])
    @pytest.mark.parametrize("requests, kept", [(3, 10), (2, 5)], ids=["three_traces", "two_traces"])
    def test_edited_trace_id_prunes_the_real_trace_too(self, hop, requests, kept):
        """One hop's traceid edited: that element is pruned under the id it
        now holds, and the real trace, left with fewer hops than the most
        any trace kept, with it.  With two traces the hop counts 4 and 5
        do not tie on the longer: the complete trace survives."""
        store = MemoryStore()
        records = run_workload(IOT, FUSED, [requests], None, 1, seed=3).records
        persist_evidence(store, self.KEY, records)
        real = records[hop].trace_id
        assert [r.trace_id for r in records[:5]] == [real] * 5
        edited = real[:-1] + ("0" if real[-1] != "0" else "1")
        piece = canonical_record_bytes(records[hop])
        data = store.get(f"{self.KEY}.json")
        store.put(f"{self.KEY}.json", data.replace(piece, piece.replace(real.encode(), edited.encode()), 1))
        report = commit(verify_integrity(load_setups(store)), store)
        assert report.pruned == {self.KEY: (edited, real)}
        assert survivors_of(report) == {self.KEY: encoded(*records[5:])}
        assert len(records[5:]) == kept
        assert commit(verify_integrity(load_setups(store)), store).integrity_verified is True

    @pytest.mark.parametrize(
        "edit",
        [
            lambda leaves: [leaves[1], leaves[0], *leaves[2:]],
            lambda leaves: [leaves[0], "zz", *leaves[2:]],
        ],
        ids=["swapped", "non_hex"],
    )
    def test_records_that_rebuild_the_root_fail_under_a_forged_leaf_list(self, edit):
        store = MemoryStore()
        records = persist_distinct_blocks(store, 3)
        tree = parse_group_file(store.get(f"{self.KEY}.json"))[-1]
        forged = dataclasses.replace(tree, leaves=tuple(edit(list(tree.leaves))))
        report = commit(verify_integrity({self.KEY: stored_group(records, forged)}), store)
        assert report.integrity_verified is False
        assert report.pruned == {self.KEY: tuple(r.trace_id for r in records)}
        assert survivors_of(report) == {self.KEY: ()}

    def test_reordered_blocks_detected(self):
        store = MemoryStore()
        records = persist_distinct_blocks(store, 3)
        blocks = parse_group_file(store.get(f"{self.KEY}.json"))
        swapped = stored_group([records[1], records[0], records[2]], blocks[-1])
        report = commit(verify_integrity({self.KEY: swapped}), store)
        assert report.integrity_verified is False
        assert set(report.pruned[self.KEY]) == {records[0].trace_id, records[1].trace_id}

    def test_mixed_groups_keep_clean_one(self):
        store = MemoryStore()
        clean_records = fused_records(b"\x3a" * 32)
        persist_evidence(store, self.KEY, clean_records)
        split_trace = generate_trace_id(SPLIT, "CW", b"\x3b" * 32)
        split_records = execute_request(IOT, SPLIT, split_trace, None, 3, 0)
        persist_evidence(store, "CW", split_records)
        setups = load_setups(store)
        setups["CW"] = stored_group(
            [
                dataclasses.replace(r, billed_duration_ms=r.billed_duration_ms + 1)
                if p == 0
                else r
                for p, r in enumerate(split_records)
            ],
            setups["CW"].proof,
        )
        report = commit(verify_integrity(setups), store)
        assert report.group_results == {self.KEY: True, "CW": False}
        assert report.integrity_verified is False
        assert list(report.pruned) == ["CW"]



class RefusingStore(MemoryStore):
    """A MemoryStore that refuses every put to the key named refused."""

    refused = None

    def put(self, key, data):
        if key == self.refused:
            raise StoreWriteFailed(f"cannot rewrite {key}: read-only")
        super().put(key, data)


class TestCommit:
    KEYS = ("iter000/CW.SE.CS.CT.CA", "iter001/CW.SE.CS.CT.CA")

    def tampered_store(self, store):
        """Two groups of three single-record traces, each with its middle record edited."""
        for n, key in enumerate(self.KEYS):
            records = [fused_records(bytes([50 + 3 * n + k]) * 32, 1000 * k)[0] for k in range(3)]
            tree = persist_evidence(store, key, records)
            edited = dataclasses.replace(records[1], memory_used_mb=999)
            store.put(f"{key}.json", group_file_bytes([records[0], edited, records[2]], tree))
        return store

    def test_verify_writes_nothing_and_commit_writes_the_pruned_groups(self):
        store = self.tampered_store(MemoryStore())
        setups = load_setups(store)
        before = {k: store.get(k) for k in store.list()}
        report = verify_integrity(setups)
        assert verify_integrity(setups) == report
        assert {k: store.get(k) for k in store.list()} == before
        assert list(report.pruned) == list(self.KEYS)
        for outcome in report.outcomes.values():
            assert outcome.tree == build_merkle_tree(record_leaf_hashes(outcome.survivors))
        assert commit(report, store) == report
        assert {k: store.get(k) for k in store.list()} == {
            f"{key}.json": join_group_file(o.survivors, o.tree) for key, o in report.outcomes.items()
        }
        assert commit(verify_integrity(load_setups(store)), store).integrity_verified is True

    def test_refused_rewrite_is_a_store_error_and_the_next_group_is_still_written(self):
        store = self.tampered_store(RefusingStore())
        report = verify_integrity(load_setups(store))
        first, second = self.KEYS
        stored = store.get(f"{first}.json")
        store.refused = f"{first}.json"
        committed = commit(report, store)
        message = f"cannot rewrite {first}.json: read-only"
        assert committed.outcomes == {
            first: GroupOutcome(FailureReason.STORE_ERROR, message),
            second: report.outcomes[second],
        }
        assert committed.pruned == {second: report.pruned[second]}
        assert store.get(f"{first}.json") == stored
        kept = report.outcomes[second]
        assert store.get(f"{second}.json") == join_group_file(kept.survivors, kept.tree)

class TestStoredBytes:
    """Verification hashes each record element exactly as stored."""

    KEY = "CW.SE.CS.CT.CA"

    def persisted(self, n: int = 3):
        store = MemoryStore()
        records = persist_distinct_blocks(store, n)
        return store, records, store.get(f"{self.KEY}.json")

    def verify(self, store):
        setups = load_setups(store)
        assert not any(isinstance(group, str) for group in setups.values())
        return commit(verify_integrity(setups), store)

    @pytest.mark.parametrize(
        "head, separator, tail",
        [(b" [\n  ", b" ,\n  ", b"\n]\n"), (b"[", b", ", b"]"), (b"[", b",", b"]\n")],
        ids=["pretty_printed", "space_after_comma", "trailing_newline"],
    )
    def test_whitespace_between_elements_is_corrupt(self, head, separator, tail):
        """A file the pipeline did not write in its layout is corrupt, and
        left as stored, whether or not a JSON decoder would read it."""
        store, records, data = self.persisted()
        elements = [*encoded(*records), data[data.rindex(b',{"root"') + 1 : -1]]
        spaced = head + separator.join(elements) + tail
        assert json.loads(spaced) == json.loads(data)
        store.put(f"{self.KEY}.json", spaced)
        report = commit(verify_integrity(load_setups(store)), store)
        assert report.integrity_verified is False
        assert list(corrupt_of(report)) == [self.KEY]
        assert report.pruned == {} and survivors_of(report) == {}
        assert store.get(f"{self.KEY}.json") == spaced

    @pytest.mark.parametrize("idx", [b'"idx": 0', b'"idx":"0"'])
    def test_reformatted_record_is_pruned(self, idx):
        store, records, data = self.persisted()
        element = canonical_record_bytes(records[1])
        assert b'"idx":0,' in element
        store.put(f"{self.KEY}.json", data.replace(element, element.replace(b'"idx":0', idx)))
        report = self.verify(store)
        assert report.integrity_verified is False
        assert report.pruned == {self.KEY: (records[1].trace_id,)}
        assert survivors_of(report) == {self.KEY: encoded(records[0], records[2])}
        assert self.verify(store).integrity_verified is True

    def test_multibyte_character_keeps_later_offsets(self):
        store, records, data = self.persisted()
        element = canonical_record_bytes(records[0])
        edited = element.replace(b'"task":"CW"', '"task":"CWé"'.encode())
        assert edited != element
        store.put(f"{self.KEY}.json", data.replace(element, edited))
        report = self.verify(store)
        assert report.pruned == {self.KEY: (records[0].trace_id,)}
        assert survivors_of(report) == {self.KEY: encoded(records[1], records[2])}
        assert self.verify(store).integrity_verified is True

    @pytest.mark.parametrize(
        "edit",
        [
            lambda element: element.replace(b'"mem":', b'"memory":'),
            lambda element: re.sub(rb'"billed":\d+', b'"billed":Infinity', element),
        ],
        ids=["field_renamed", "infinity"],
    )
    def test_unreadable_record_is_pruned_not_corrupt(self, edit):
        store, records, data = self.persisted()
        element = canonical_record_bytes(records[2])
        assert edit(element) != element
        store.put(f"{self.KEY}.json", data.replace(element, edit(element)))
        report = self.verify(store)
        assert report.pruned == {self.KEY: (records[2].trace_id,)}
        assert survivors_of(report) == {self.KEY: encoded(records[0], records[1])}

    @pytest.mark.parametrize(
        "edit",
        [
            lambda element: element.replace(b'"traceid":', b'"trace":'),
            lambda element: b"[" + element + b"]",
            lambda element: b"7",
        ],
        ids=["no_traceid", "array", "number"],
    )
    def test_element_that_is_not_a_record_is_corrupt(self, edit):
        """The element no longer opens with a record boundary, so it is
        split with the record before it into one piece, which is not a
        whole JSON object: verification reports the file corrupt."""
        store, records, data = self.persisted()
        element = canonical_record_bytes(records[1])
        tampered = data.replace(element, edit(element))
        store.put(f"{self.KEY}.json", tampered)
        setups = load_setups(store)
        assert len(setups[self.KEY].records) < 3
        report = commit(verify_integrity(setups), store)
        assert report.group_results == {self.KEY: False}
        assert corrupt_of(report)[self.KEY].startswith("group file's record 0 is not valid JSON: Extra data")
        assert store.get(f"{self.KEY}.json") == tampered


def _inflated(record):
    return dataclasses.replace(record, billed_duration_ms=record.billed_duration_ms + 7)


def _leaf(record) -> str:
    return record_leaf_hashes(encoded(record))[0]


def _replace_leaf(tree: TreeInfo, position: int, leaf: str) -> TreeInfo:
    leaves = list(tree.leaves)
    leaves[position] = leaf
    return dataclasses.replace(tree, leaves=tuple(leaves))


# Each case maps the persisted records and their sealed tree to the
# group file an attacker stores, and the tree the caller sealed.
SEALED_CASES = {
    "untouched": lambda records, tree: (group_file_bytes(records, tree), tree),
    "tampered_record": lambda records, tree: (
        group_file_bytes([records[0], _inflated(records[1]), *records[2:]], tree), tree),
    "appended_copy_of_last_record": lambda records, tree: (
        group_file_bytes([*records, records[-1]], tree), tree),
    "forged_leaf_list": lambda records, tree: (
        group_file_bytes(
            [records[0], _inflated(records[1]), *records[2:]],
            _replace_leaf(tree, 1, _leaf(_inflated(records[1]))),
        ),
        tree,
    ),
    "forged_root": lambda records, tree: (
        group_file_bytes(records, dataclasses.replace(tree, root=tree.leaves[0])), tree),
    "empty_proof": lambda records, tree: (group_file_bytes(records, TreeInfo.empty()), tree),
    "empty_group_sealed_empty": lambda records, tree: (
        group_file_bytes([], TreeInfo.empty()), TreeInfo.empty()),
    "non_hex_leaves": lambda records, tree: (
        group_file_bytes(records, _replace_leaf(tree, 1, "zz" * 32)), tree),
    "seal_differs_by_one_leaf": lambda records, tree: (
        group_file_bytes(records, tree), _replace_leaf(tree, 1, _leaf(_inflated(records[1])))),
    # The proof's bytes are the seal's, but the file now opens with it.
    "records_dropped_proof_kept": lambda records, tree: (group_file_bytes([], tree), tree),
    # Each decodes to the sealed tree from bytes persist did not write.
    "proof_reformatted": lambda records, tree: (
        group_file_bytes(records, tree).replace(b'"leaf":', b'"leaf": ', 1), tree),
    # The layout that also listed the interior nodes, here the root alone, as "tree".
    "proof_in_the_older_layout": lambda records, tree: (group_file_bytes(records, tree).replace(
        b',"leaf":[', b',"tree":["%s"],"leaf":[' % tree.root.encode(), 1), tree),
}


class TestSealedTree:
    """A stored file equal to the bytes persist sealed for its group is
    not split, and a stored proof equal to its anchor, the sealed tree,
    is not rebuilt; every other group takes the full check, and the
    report and the rewritten store are always those that verifying
    without seal or anchor gives."""

    KEY = "CW.SE.CS.CT.CA"

    def verify(self, case, seal: str, monkeypatch=None):
        """seal is "none" or "bytes" (the file persist would write under
        the sealed tree, given to load_setups, and the sealed tree itself,
        given to verify_integrity as the anchor).  Returns the report, the
        store's bytes afterwards, the loaded groups, and the Merkle
        builds, splits and verification-side leaf hashings, each by its
        length."""
        records = run_workload(IOT, FUSED, [3], None, 1, seed=3).records
        assert len(records) == 15
        store = MemoryStore()
        tree = persist_evidence(store, self.KEY, records)
        stored, sealed = SEALED_CASES[case](records, tree)
        store.put(f"{self.KEY}.json", stored)
        seals = {}
        if seal == "bytes":
            # What persist seals under the sealed tree: none for an empty group.
            persist_evidence(MemoryStore(), self.KEY, records if sealed.root else [], seals)
            if sealed.root and sealed != tree:
                seals[self.KEY] = group_file_bytes(records, sealed)
        calls = {"builds": [], "splits": [], "hashes": []}
        if monkeypatch is not None:
            for owner, name, kind in [
                (verification, "build_merkle_tree", "builds"),
                (proofs, "load_group_file", "splits"),
                (verification, "record_leaf_hashes", "hashes"),
            ]:
                def counting(arg, *rest, inner=getattr(owner, name), kind=kind):
                    calls[kind].append(len(arg))
                    return inner(arg, *rest)
                monkeypatch.setattr(owner, name, counting)
        setups = load_setups(store, seals)
        assert seals == {}
        anchors = {self.KEY: sealed} if seal == "bytes" else None
        report = commit(verify_integrity(setups, anchors), store)
        return report, {k: store.get(k) for k in store.list()}, setups, calls

    @pytest.mark.parametrize("case", SEALED_CASES)
    def test_same_report_and_store_with_or_without_the_seal(self, case):
        report, stored, _, _ = self.verify(case, "bytes")
        assert (report, stored) == self.verify(case, "none")[:2]
        assert report.integrity_verified is (
            case in ("untouched", "seal_differs_by_one_leaf"))

    @pytest.mark.parametrize(
        "case, with_seal, builds",
        [
            ("untouched", True, []),
            ("untouched", False, [15]),
            ("tampered_record", True, [10]),  # the survivors' tree only
            ("tampered_record", False, [15, 10]),
            ("seal_differs_by_one_leaf", True, [15]),
            ("forged_root", True, [15, 0]),
            # The proof equals its anchor, so only the survivors' empty tree is built.
            ("records_dropped_proof_kept", True, [0]),
            ("proof_reformatted", True, []),  # corrupt: not in the writer's layout
            ("proof_in_the_older_layout", True, []),  # corrupt too
        ],
    )
    def test_merkle_builds(self, monkeypatch, case, with_seal, builds):
        assert self.verify(case, "bytes" if with_seal else "none", monkeypatch)[3]["builds"] == builds

    @pytest.mark.parametrize(
        "case, builds",
        [
            ("untouched", []),
            ("tampered_record", [10]),
            ("seal_differs_by_one_leaf", [15]),
            ("forged_root", [15, 0]),
        ],
    )
    def test_merkle_builds_with_the_bytes_seal(self, monkeypatch, case, builds):
        assert self.verify(case, "bytes", monkeypatch)[3]["builds"] == builds

    @pytest.mark.parametrize(
        "case, anchored, unanchored",
        [
            ("tampered_record", [10], [15, 10]),
            ("appended_copy_of_last_record", [10], [15, 10]),
            ("seal_differs_by_one_leaf", [15], [15]),
            ("records_dropped_proof_kept", [0], [15, 0]),
            ("proof_reformatted", [], []),  # corrupt: not loaded at all
            ("proof_in_the_older_layout", [], []),
        ],
    )
    def test_only_a_proof_equal_to_its_anchor_is_not_rebuilt(
        self, monkeypatch, case, anchored, unanchored
    ):
        builds = {}
        for seal in ("bytes", "none"):
            with monkeypatch.context() as patch:
                builds[seal] = self.verify(case, seal, patch)[3]["builds"]
        assert (builds["bytes"], builds["none"]) == (anchored, unanchored)

    @pytest.mark.parametrize(
        "case, seal, splits, hashes",
        [
            ("untouched", "bytes", 0, []),
            ("untouched", "none", 1, [15]),
            ("tampered_record", "bytes", 1, [15]),
            ("empty_group_sealed_empty", "bytes", 1, []),
        ],
    )
    def test_only_a_file_equal_to_its_seal_goes_unsplit(self, monkeypatch, case, seal, splits, hashes):
        calls = self.verify(case, seal, monkeypatch)[3]
        assert (len(calls["splits"]), calls["hashes"]) == (splits, hashes)

    def test_persist_seals_the_object_it_puts_unless_the_group_is_empty(self):
        store, seals = MemoryStore(), {}
        records = run_workload(IOT, FUSED, [3], None, 1, seed=3).records
        persist_evidence(store, self.KEY, records, seals)
        assert seals[self.KEY] is store.get(f"{self.KEY}.json")
        persist_evidence(store, "CW", [], seals)
        assert list(seals) == [self.KEY]

    def test_a_seal_whose_file_is_gone_is_dropped(self):
        """The group file deleted after persist: nothing to compare, and
        the seal is released all the same."""
        store, seals = MemoryStore(), {}
        records = run_workload(IOT, FUSED, [3], None, 1, seed=3).records
        persist_evidence(store, self.KEY, records, seals)
        store.delete(f"{self.KEY}.json")
        assert load_setups(store, seals) == {}
        assert seals == {}


def encoded(*records) -> tuple[bytes, ...]:
    return tuple(map(canonical_record_bytes, records))


def stored_group(records, tree: TreeInfo) -> StoredGroup:
    """The group as load_setups gives it when records are stored canonically."""
    return StoredGroup(encoded(*records), tree)


def reference_csp1_step(sampling, count, i, f, last_verified, uniform_draw):
    """The two-mode CSP-1 machine that csp1_step replaced, kept as the oracle.

    sampling stands for the old SAMPLING mode; last_verified maps the old
    outcomes: True conforming, False nonconforming, None not inspected.
    """
    if last_verified is True:
        if not sampling:
            count += 1
            if count >= i:
                sampling = True
    elif last_verified is False:
        sampling = False
        count = 0
    inspect = uniform_draw < f if sampling else True
    return inspect, sampling, count


class TestCsp1:
    def test_full_inspection_counts_up(self):
        state = SamplingState(i=5, f=0.25)
        for expected_count in range(1, 5):
            inspect, state = csp1_step(state, True, 0.99)
            assert inspect is True
            assert state.clearance_count == expected_count

    def test_clearance_switches_to_sampling(self):
        state = SamplingState(clearance_count=4, i=5, f=0.25)
        inspect, state = csp1_step(state, True, 0.5)
        assert state.clearance_count == state.i
        # The decision is already made under the new count.
        assert inspect is False

    def test_sampling_inspects_fraction(self):
        state = SamplingState(5, i=5, f=0.25)
        assert csp1_step(state, True, 0.10)[0] is True
        assert csp1_step(state, True, 0.25)[0] is False
        assert csp1_step(state, True, 0.90)[0] is False

    def test_defect_restarts_full_inspection(self):
        state = SamplingState(5, i=5, f=0.25)
        inspect, state = csp1_step(state, False, 0.99)
        assert inspect is True
        assert state.clearance_count == 0

    def test_not_inspected_leaves_state_alone(self):
        state = SamplingState(5, i=5, f=0.25)
        _, after = csp1_step(state, None, 0.99)
        assert after == state
        full = SamplingState(clearance_count=3, i=5, f=0.25)
        inspect, after = csp1_step(full, None, 0.99)
        assert inspect is True
        assert after == full

    def test_conforming_in_sampling_keeps_count(self):
        state = SamplingState(7, i=5, f=0.25)
        _, after = csp1_step(state, True, 0.99)
        assert after.clearance_count == 7

    def test_rebound_needs_full_clearance_again(self):
        state = SamplingState(5, i=3, f=0.5)
        _, state = csp1_step(state, False, 0.99)
        seen_counts = []
        for _ in range(3):
            seen_counts.append(state.clearance_count)
            _, state = csp1_step(state, True, 0.99)
        assert seen_counts == [0, 1, 2]
        assert state.clearance_count >= state.i

    @given(
        i=st.integers(min_value=1, max_value=12),
        f=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        start=st.integers(min_value=0, max_value=15),
        steps=st.lists(
            st.tuples(
                st.sampled_from([True, False, None]),
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            ),
            max_size=50,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_counter_matches_the_two_mode_machine(self, i, f, start, steps):
        state = SamplingState(start, i, f)
        sampling, count = start >= i, start
        for last_verified, draw in steps:
            inspect, state = csp1_step(state, last_verified, draw)
            expected, sampling, count = reference_csp1_step(
                sampling, count, i, f, last_verified, draw
            )
            assert (inspect, state.clearance_count) == (expected, count)
            assert (state.clearance_count >= i) is sampling

    @pytest.mark.parametrize(
        "kwargs", [{"i": 0}, {"f": 0.0}, {"f": 1.5}, {"clearance_count": -1}]
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ParseError):
            SamplingState(**kwargs)


class TestAnnotateMetrics:
    def test_fused_means_exact(self):
        measured = iot_metrics(FUSED, requests=3)
        assert measured.task_names() == tuple(sorted(IOT_TASKS))
        assert {t.name: t.base_duration_ms for t in measured.tasks} == {
            "CW": 37.0, "SE": 37.0, "CS": 76.0, "CT": 64.0, "CA": 68.0,
        }
        assert {t.name: t.base_memory_mb for t in measured.tasks} == {t: 10.0 for t in IOT_TASKS}
        assert all(t.jitter_fraction == 0.0 for t in measured.tasks)

    def test_fused_edges(self):
        # The measured app keeps each task's declared calls, and the app's entry.
        measured = iot_metrics(FUSED, requests=4)
        assert measured.entry_task == IOT.entry_task
        assert {t.name: t.calls for t in measured.tasks} == {t.name: t.calls for t in IOT.tasks}

    def test_split_edges_have_the_apps_call_modes(self):
        # The route a record took changes neither its task's calls nor its bill.
        assert iot_metrics(SPLIT, requests=2) == iot_metrics(FUSED, requests=2)

    def test_unverified_group_raises(self):
        records = fused_records(b"\x41" * 32)
        with pytest.raises(NoVerifiedData):
            annotate_metrics(records, "CW", IOT)

    def test_no_records_raises(self):
        with pytest.raises(NoVerifiedData):
            annotate_metrics([], "CW.SE.CS.CT.CA", IOT)

    def test_mixed_groups_use_only_verified(self):
        # Fused records billed longer, so the mix's means differ from split's.
        fused = [
            dataclasses.replace(r, billed_duration_ms=2 * r.billed_duration_ms)
            for r in fused_records(b"\x42" * 32)
        ]
        split_trace = generate_trace_id(SPLIT, "CW", b"\x43" * 32)
        split = execute_request(IOT, SPLIT, split_trace, None, 3, 0)
        assert annotate_metrics(fused + split, "CW", IOT) == annotate_metrics(split, "CW", IOT)

    def test_entry_ingress_is_not_an_edge(self):
        measured = iot_metrics(FUSED)
        assert "I" not in measured.task_map
        assert all(c.callee != "I" for t in measured.tasks for c in t.calls)

    def test_record_of_undeclared_task_rejected(self):
        records = fused_records(b"\x44" * 32)
        rogue = dataclasses.replace(records[2], task="ZZ")
        with pytest.raises(MissingMetric, match="'ZZ'"):
            annotate_metrics([*records, rogue], "CW.SE.CS.CT.CA", IOT)

    @pytest.mark.parametrize("hop, caller", [(0, "CS"), (2, "CA"), (4, "CW")])
    def test_forged_caller_leaves_the_measured_app_as_it_was(self, hop, caller):
        # The measured app's calls are the app's: a record's caller is not read.
        records = fused_records(b"\x44" * 32)
        forged = list(records)
        forged[hop] = dataclasses.replace(records[hop], caller=caller)
        assert forged != records
        key = "CW.SE.CS.CT.CA"
        assert annotate_metrics(forged, key, IOT) == annotate_metrics(records, key, IOT)

    @pytest.mark.parametrize("task", ["CW", "CS"])
    def test_entry_or_callee_without_record_rejected(self, task):
        records = [r for r in fused_records(b"\x46" * 32) if r.task != task]
        with pytest.raises(MissingMetric, match=f"'{task}'"):
            annotate_metrics(records, "CW.SE.CS.CT.CA", IOT)

    def test_setup_version_does_not_enter_the_metrics(self):
        setup = dataclasses.replace(FUSED, version=3)
        trace = generate_trace_id(setup, "CW", b"\x45" * 32)
        records = execute_request(IOT, setup, trace, None, 3, 0)
        metrics = annotate_metrics(records, "CW.SE.CS.CT.CA", IOT)
        assert metrics == annotate_metrics(fused_records(b"\x45" * 32), "CW.SE.CS.CT.CA", IOT)


class TestEstimateCost:
    def test_fused_iot_is_sum_of_durations(self):
        metrics = iot_metrics(FUSED)
        assert estimate_cost(FUSED, metrics, CostModel()) == pytest.approx(282.0)

    def test_split_iot_adds_boundary_overheads(self):
        metrics = iot_metrics(SPLIT)
        assert estimate_cost(SPLIT, metrics, CostModel()) == pytest.approx(482.0)

    def test_setup_decides_routes_not_measured_records(self):
        # The same split measurements priced under the fused setup.
        metrics = iot_metrics(SPLIT)
        assert estimate_cost(FUSED, metrics, CostModel()) == pytest.approx(282.0)

    def test_custom_overhead(self):
        metrics = iot_metrics(SPLIT)
        model = CostModel(remote_overhead_ms=10.0)
        assert estimate_cost(SPLIT, metrics, model) == pytest.approx(322.0)

    def test_async_branches_take_max(self):
        tree = builtin_tree_app(fanout=2, depth=1)
        setup = FusionSetup.fused([tree.task_names()])
        batch = run_workload(tree, setup, [2], None, 1, seed=5)
        metrics = annotate_metrics(
            batch.records, entry_fusion_key(setup, tree.entry_task), tree
        )
        # Leaves run from the entry's start, so the slowest branch wins.
        assert estimate_cost(setup, metrics, CostModel()) == pytest.approx(80.0)

    def test_memory_term_scales_with_group_footprint(self):
        tree = builtin_tree_app(fanout=2, depth=1)
        fused = FusionSetup.fused([tree.task_names()])
        batch = run_workload(tree, fused, [2], None, 1, seed=5)
        metrics = annotate_metrics(
            batch.records, entry_fusion_key(fused, tree.entry_task), tree
        )
        model = CostModel(memory_weight=0.01)
        # Memory means: N0 10, leaves 64 each; durations 20, 80, 80.
        assert estimate_cost(fused, metrics, model) == pytest.approx(
            80.0 + 0.01 * (20 + 80 + 80) * (10 + 64 + 64)
        )
        split = FusionSetup.singletons(tree.task_names())
        assert estimate_cost(split, metrics, model) == pytest.approx(
            130.0 + 0.01 * (20 * 10 + 80 * 64 + 80 * 64)
        )

    def test_zero_weight_ignores_memory(self):
        measured = iot_metrics(FUSED)
        bloated = dataclasses.replace(measured, tasks=tuple(
            dataclasses.replace(t, base_memory_mb=10_000.0) for t in measured.tasks))
        assert estimate_cost(FUSED, bloated, CostModel()) == pytest.approx(282.0)

    @pytest.mark.parametrize("groups, model, expected", [
        ([["A"], ["B"], ["C"], ["D"], ["R"], ["S"]], CostModel(50, 0.5), 266.9),
        ([["A"], ["B"], ["C"], ["D"], ["R"], ["S"]], CostModel(10.1, 0.3, 0.01), 285.13829999999996),
        ([["A", "C"], ["B"], ["D", "R", "S"]], CostModel(50, 0.5), 217.4),
        ([["A", "C"], ["B"], ["D", "R", "S"]], CostModel(10.1, 0.3, 0.01), 307.59972500000003),
        ([["A", "B", "C", "D", "R", "S"]], CostModel(50, 0.5), 167.9),
        ([["A", "B", "C", "D", "R", "S"]], CostModel(10.1, 0.3, 0.01), 571.4531750000001),
    ], ids=["split", "split-memory", "mixed", "mixed-memory", "fused", "fused-memory"])
    def test_hand_built_metrics_price_exactly(self, groups, model, expected):
        # Fractional means, and A's async calls to B and R listed around its sync call to C.
        means = {"A": 37.25, "B": 120.1, "C": 12.3, "D": 40.7, "R": 0.1, "S": 166.9}
        memory = {"A": 10.5, "B": 64.0, "C": 12.25, "D": 10.0, "R": 3.3, "S": 7.0}
        calls = {"A": (CallSpec("B", CallMode.ASYNC), CallSpec("C"), CallSpec("R", CallMode.ASYNC)),
                 "C": (CallSpec("D"),), "R": (CallSpec("S", CallMode.ASYNC),)}
        measured = AppSpec("hand", "A", tuple(
            TaskSpec(t, means[t], memory[t], 0.0, calls.get(t, ())) for t in sorted(means)))
        assert estimate_cost(FusionSetup.fused(groups), measured, model) == expected


JITTER_FREE_APPS = [IOT, TWICE,
                    *(builtin_tree_app(f, d) for f, d in [(2, 1), (2, 2), (3, 2), (4, 2)])]


@st.composite
def _partitioned_apps(draw):
    """A jitter-free app under a drawn partition of its tasks."""
    app = draw(st.sampled_from(JITTER_FREE_APPS))
    names = app.task_names()
    labels = [draw(st.integers(0, len(names) - 1)) for _ in names]
    groups = [[name for name, label in zip(names, labels) if label == k] for k in range(len(names))]
    return app, FusionSetup.fused([group for group in groups if group])


class TestCostModelMatchesWalk:
    @settings(max_examples=200, deadline=None)
    @given(_partitioned_apps(), st.integers(0, 200), st.integers(0, 50))
    def test_cost_is_the_walks_last_completion(self, app_setup, remote, local):
        # The model and the walk both route with route_call, so a change to
        # the routing rule changes both sides of this equality together.
        app, setup = app_setup
        trace = generate_trace_id(setup, app.entry_task, b"\x05" * 32)
        model = CostModel(remote_overhead_ms=remote, local_overhead_ms=local, memory_weight=0)
        records = execute_request(app, setup, trace, None, 1, 0, model)
        metrics = annotate_metrics(records, entry_fusion_key(setup, app.entry_task), app)
        assert estimate_cost(setup, metrics, model) == max(
            r.start_ms + r.billed_duration_ms for r in records
        )

    @pytest.mark.parametrize("setup, expected", [
        (FusionSetup.singletons(["A", "B"]), 150),
        (FusionSetup.fused([["A", "B"]]), 50),
    ], ids=["split", "fused"])
    def test_a_repeated_call_is_priced_as_the_walk_times_it(self, setup, expected):
        trace = generate_trace_id(setup, "A", b"\x06" * 32)
        records = execute_request(TWICE, setup, trace, None, 1, 0)
        assert [r.task for r in records] == ["A", "B", "B"]
        assert max(r.start_ms + r.billed_duration_ms for r in records) == expected
        measured = annotate_metrics(records, entry_fusion_key(setup, "A"), TWICE)
        assert estimate_cost(setup, measured, CostModel()) == expected


class TestProposeCandidates:
    def test_split_iot_yields_one_merge_per_edge(self):
        metrics = iot_metrics(SPLIT)
        candidates = propose_candidates(SPLIT, metrics)
        parts = {c.setup_part for c in candidates}
        assert parts == {
            "CW.SE,CS,CT,CA",
            "CW,SE.CS,CT,CA",
            "CW,SE,CS.CT,CA",
            "CW,SE,CS,CT.CA",
        }

    def test_fused_iot_has_no_neighbors(self):
        metrics = iot_metrics(FUSED)
        assert propose_candidates(FUSED, metrics) == []

    def test_merge_absorbs_callee_group_after_caller(self):
        setup = FusionSetup.fused([["CW"], ["SE", "CS"], ["CT", "CA"]])
        metrics = iot_metrics(SPLIT)
        parts = {c.setup_part for c in propose_candidates(setup, metrics)}
        # CW->SE merges the two-task group behind CW; CS->CT pulls the
        # trailing pair into the middle group.
        assert parts == {"CW.SE.CS,CT.CA", "CW,SE.CS.CT.CA"}

    def test_fused_tree_yields_one_split_per_async_edge(self):
        tree = builtin_tree_app(fanout=2, depth=1)
        fused = FusionSetup.fused([tree.task_names()])
        batch = run_workload(tree, fused, [1], None, 1, seed=5)
        metrics = annotate_metrics(
            batch.records, entry_fusion_key(fused, tree.entry_task), tree
        )
        parts = {c.setup_part for c in propose_candidates(fused, metrics)}
        assert parts == {"N0.N0_1,N0_0", "N0.N0_0,N0_1"}

    def test_split_tree_has_no_neighbors(self):
        tree = builtin_tree_app(fanout=2, depth=1)
        split = FusionSetup.singletons(tree.task_names())
        batch = run_workload(tree, split, [1], None, 1, seed=5)
        metrics = annotate_metrics(
            batch.records, entry_fusion_key(split, tree.entry_task), tree
        )
        assert propose_candidates(split, metrics) == []

    def test_singleton_callee_not_resplit(self):
        tree = builtin_tree_app(fanout=2, depth=1)
        setup = FusionSetup.fused([["N0", "N0_0"], ["N0_1"]])
        batch = run_workload(tree, FusionSetup.fused([tree.task_names()]), [1], None, 1, seed=5)
        metrics = annotate_metrics(
            batch.records,
            entry_fusion_key(FusionSetup.fused([tree.task_names()]), tree.entry_task),
            tree,
        )
        parts = {c.setup_part for c in propose_candidates(setup, metrics)}
        assert parts == {"N0,N0_1,N0_0"}

    def test_a_callee_called_sync_and_async_gets_the_split(self):
        app = AppSpec("both", "A", (
            TaskSpec("A", 10, calls=(CallSpec("B"), CallSpec("B", CallMode.ASYNC))),
            TaskSpec("B", 20)))
        fused = FusionSetup.fused([["A", "B"]])
        records = execute_request(app, fused, generate_trace_id(fused, "A", b"\x07" * 32),
                                  None, 1, 0)
        measured = annotate_metrics(records, entry_fusion_key(fused, "A"), app)
        assert [c.groups for c in propose_candidates(fused, measured)] == [(("A",), ("B",))]

    def test_candidates_preserve_version(self):
        metrics = iot_metrics(SPLIT)
        current = dataclasses.replace(SPLIT, version=4)
        assert all(c.version == 4 for c in propose_candidates(current, metrics))

    def test_current_setup_excluded(self):
        metrics = iot_metrics(SPLIT)
        parts = {c.setup_part for c in propose_candidates(SPLIT, metrics)}
        assert SPLIT.setup_part not in parts

    def test_groups_given_as_lists_are_left_as_they_were(self):
        merge_groups = [["CW"], ["SE", "CS"], ["CT", "CA"]]
        merges = propose_candidates(FusionSetup(merge_groups), iot_metrics(SPLIT))
        assert [c.groups for c in merges] == [
            (("CW",), ("SE", "CS", "CT", "CA")),
            (("CW", "SE", "CS"), ("CT", "CA")),
        ]
        assert merge_groups == [["CW"], ["SE", "CS"], ["CT", "CA"]]

        tree = builtin_tree_app(fanout=2, depth=1)
        fused = FusionSetup.fused([tree.task_names()])
        batch = run_workload(tree, fused, [1], None, 1, seed=5)
        metrics = annotate_metrics(batch.records, entry_fusion_key(fused, tree.entry_task), tree)
        split_groups = [["N0", "N0_0", "N0_1"]]
        splits = propose_candidates(FusionSetup(split_groups), metrics)
        assert [c.groups for c in splits] == [
            (("N0", "N0_1"), ("N0_0",)),
            (("N0", "N0_0"), ("N0_1",)),
        ]
        assert split_groups == [["N0", "N0_0", "N0_1"]]


class TestOptimizeStep:
    def test_adopts_cheapest_with_lexicographic_tie_break(self):
        metrics = iot_metrics(SPLIT)
        chosen, _ = optimize_step(SPLIT, metrics, CostModel(), {SPLIT.setup_part})
        # All four merges save one boundary; the smallest setup_part wins.
        assert chosen.setup_part == "CW,SE,CS,CT.CA"

    def test_history_excludes_visited(self):
        metrics = iot_metrics(SPLIT)
        history = {SPLIT.setup_part, "CW,SE,CS,CT.CA"}
        chosen, _ = optimize_step(SPLIT, metrics, CostModel(), history)
        assert chosen.setup_part == "CW,SE,CS.CT,CA"

    def test_no_candidates_stays_put(self):
        metrics = iot_metrics(FUSED)
        assert optimize_step(FUSED, metrics, CostModel(), set())[0] is FUSED

    def test_requires_strict_improvement(self):
        metrics = iot_metrics(SPLIT)
        # Free boundaries make every merge cost-neutral, so nothing moves.
        model = CostModel(remote_overhead_ms=0.0)
        assert optimize_step(SPLIT, metrics, model, {SPLIT.setup_part})[0] is SPLIT

    def test_scale_invariant_choice(self):
        metrics = iot_metrics(SPLIT)
        small, _ = optimize_step(SPLIT, metrics, CostModel(remote_overhead_ms=5.0), set())
        large, _ = optimize_step(SPLIT, metrics, CostModel(remote_overhead_ms=5000.0), set())
        assert small.setup_part == large.setup_part


def tamper_every_record(iteration: int, store) -> None:
    for key in [k for k in store.list() if "/" not in k]:
        blocks = parse_group_file(store.get(key))
        tree, records = blocks[-1], blocks[:-1]
        if not records:
            continue
        mutated = [
            dataclasses.replace(r, billed_duration_ms=r.billed_duration_ms + 1)
            for r in records
        ]
        store.put(key, group_file_bytes(mutated, tree))


def tamper_first_record(iteration: int, store) -> None:
    for key in [k for k in store.list() if "/" not in k]:
        blocks = parse_group_file(store.get(key))
        tree, records = blocks[-1], blocks[:-1]
        if not records:
            continue
        records[0] = dataclasses.replace(
            records[0], billed_duration_ms=records[0].billed_duration_ms + 1
        )
        store.put(key, group_file_bytes(records, tree))


def retype_first_record(iteration: int, store) -> None:
    for key in [k for k in store.list() if "/" not in k]:
        body = json.loads(store.get(key))
        if len(body) < 2:
            continue
        body[0]["task"] = 1
        store.put(key, json.dumps(body, separators=(",", ":")).encode())


def forge_leaf_list(leaf_of_record_1):
    """Tamper hook: inflate record 1 and rewrite its entry in the stored
    leaf list, leaving the stored root alone.  The proof is written by a
    JSON writer, which also writes a leaf that is not a string."""

    def tamper(iteration: int, store) -> None:
        key = "CW.SE.CS.CT.CA.json"
        blocks = parse_group_file(store.get(key))
        tree, records = blocks[-1], blocks[:-1]
        records[1] = dataclasses.replace(records[1], billed_duration_ms=80000)
        leaves = list(tree.leaves)
        leaves[1] = leaf_of_record_1(records[1])
        proof = json.dumps({"root": tree.root, "leaf": leaves}, separators=(",", ":"))
        store.put(key, b"[" + b",".join([*encoded(*records), proof.encode()]) + b"]")

    return tamper


def append_copy_of_last_record(iteration: int, store) -> None:
    """Tamper hook: append a copy of the last record, proof untouched."""
    key = "CW.SE.CS.CT.CA.json"
    blocks = parse_group_file(store.get(key))
    tree, records = blocks[-1], blocks[:-1]
    store.put(key, group_file_bytes([*records, records[-1]], tree))


def forge_proof_then_tamper(iteration: int, store) -> None:
    """Tamper hook: inflate record 1 and reseal the group over it, then
    edit record 2 without resealing, so that verification prunes record 2
    and the proof vouches for the inflated record."""
    key = "CW.SE.CS.CT.CA.json"
    records = parse_group_file(store.get(key))[:-1]
    records[1] = dataclasses.replace(records[1], billed_duration_ms=80000)
    forged = build_merkle_tree(record_leaf_hashes(encoded(*records)))
    billed = records[2].billed_duration_ms + 1
    records[2] = dataclasses.replace(records[2], billed_duration_ms=billed)
    store.put(key, group_file_bytes(records, forged))


def corrupt_group_file(iteration: int, store) -> None:
    store.put("CW.SE.CS.CT.CA.json", b"not json")


def tamper_and_forge_group(iteration: int, store) -> None:
    """Prune one entry record, and plant a failing group of inflated copies."""
    tamper_first_record(iteration, store)
    records = parse_group_file(store.get("CW.SE.CS.CT.CA.json"))[:-1]
    inflated = [dataclasses.replace(r, billed_duration_ms=50000) for r in records]
    store.put("X.json", group_file_bytes(inflated, TreeInfo.empty()))


class TestRunOptimization:
    def test_iot_converges_from_split(self):
        trace = run_optimization(IOT, SPLIT, 7, policy=POLICY, seed=9)
        assert [r.estimated_cost_ms for r in trace.iterations] == [
            pytest.approx(c) for c in [482, 432, 382, 332, 282, 282, 282]
        ]
        assert [r.setup_part for r in trace.iterations] == [
            "CW,SE,CS,CT,CA",
            "CW,SE,CS,CT.CA",
            "CW,SE,CS.CT.CA",
            "CW,SE.CS.CT.CA",
            "CW.SE.CS.CT.CA",
            "CW.SE.CS.CT.CA",
            "CW.SE.CS.CT.CA",
        ]
        assert trace.final_setup.setup_part == FUSED.setup_part
        assert trace.final_setup.version == 5
        assert all(r.integrity_verified is True for r in trace.iterations)
        assert all(r.inspected for r in trace.iterations)
        assert all(not r.reverted for r in trace.iterations)

    def test_the_default_policy_checks_the_order(self):
        # With no policy given, the filter uses the app's expected trace, as the CLI does.
        swap = AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CT", "CA"))
        trace = run_optimization(IOT, SPLIT, 2, attack=swap, seed=9, request_counts=(3,))
        assert [r.load_stats for r in trace.iterations] == [{3: (3, 0)}, {3: (0, 3)}]
        assert trace.iterations[1].reverted is True

    def test_costs_non_increasing_without_attack(self):
        trace = run_optimization(IOT, SPLIT, 7, policy=POLICY, seed=21)
        costs = [r.estimated_cost_ms for r in trace.iterations]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_tree_app_splits_under_memory_pressure(self):
        tree = builtin_tree_app(fanout=2, depth=1)
        fused = FusionSetup.fused([tree.task_names()])
        result = run_optimization(
            tree, fused, 4, model=CostModel(memory_weight=0.01), seed=13
        )
        assert [r.setup_part for r in result.iterations] == [
            "N0.N0_0.N0_1",
            "N0.N0_0,N0_1",
            "N0,N0_1,N0_0",
            "N0,N0_1,N0_0",
        ]
        assert [r.estimated_cost_ms for r in result.iterations] == [
            pytest.approx(c) for c in [328.4, 255.2, 234.4, 234.4]
        ]
        assert result.final_setup.version == 3

    def test_all_tampered_reverts_every_iteration(self):
        trace = run_optimization(
            IOT,
            SPLIT,
            3,
            policy=POLICY,
            seed=17,
            request_counts=(2,),
            tamper=tamper_every_record,
        )
        for result in trace.iterations:
            assert result.integrity_verified is False
            assert result.reverted is True
            assert result.estimated_cost_ms is None
            assert result.setup_part == SPLIT.setup_part
            assert result.pruned_counts == {"CW": 2}
        assert trace.final_setup is SPLIT

    def test_partial_tamper_prunes_and_continues(self):
        trace = run_optimization(
            IOT,
            FUSED,
            1,
            policy=POLICY,
            seed=19,
            request_counts=(2,),
            tamper=tamper_first_record,
        )
        result = trace.iterations[0]
        assert result.integrity_verified is False
        assert result.pruned_counts == {"CW.SE.CS.CT.CA": 1}
        assert result.reverted is False
        assert result.estimated_cost_ms == pytest.approx(282.0)

    def test_survivors_of_a_forged_proof_stay_out_of_metrics(self, monkeypatch):
        seen = []

        def recording(records, fusion_key, app):
            seen.extend(records)
            return annotate_metrics(records, fusion_key, app)

        monkeypatch.setattr(verification, "annotate_metrics", recording)
        trace = run_optimization(
            IOT,
            FUSED,
            1,
            policy=POLICY,
            seed=3,
            request_counts=(4,),
            tamper=forge_proof_then_tamper,
        )
        result = trace.iterations[0]
        assert result.pruned_counts == {"CW.SE.CS.CT.CA": 1}
        assert seen and all(r.billed_duration_ms != 80000 for r in seen)
        assert result.estimated_cost_ms == pytest.approx(282.0)

    def test_appended_copy_of_last_record_is_pruned(self, monkeypatch):
        seen = []

        def recording(records, fusion_key, app):
            seen.extend(records)
            return annotate_metrics(records, fusion_key, app)

        monkeypatch.setattr(verification, "annotate_metrics", recording)
        trace = run_optimization(
            IOT,
            FUSED,
            1,
            policy=POLICY,
            seed=3,
            request_counts=(3,),
            tamper=append_copy_of_last_record,
        )
        result = trace.iterations[0]
        assert result.integrity_verified is False
        assert result.pruned_counts == {"CW.SE.CS.CT.CA": 1}
        assert len(seen) == 10
        assert result.estimated_cost_ms == pytest.approx(282.0)

    def test_non_string_task_prunes_and_continues(self):
        trace = run_optimization(
            IOT,
            FUSED,
            1,
            policy=POLICY,
            seed=19,
            request_counts=(2,),
            tamper=retype_first_record,
        )
        result = trace.iterations[0]
        assert result.integrity_verified is False
        assert result.pruned_counts == {"CW.SE.CS.CT.CA": 1}
        assert result.reverted is False
        assert result.estimated_cost_ms == pytest.approx(282.0)

    @pytest.mark.parametrize(
        "leaf_of_record_1, pruned_counts",
        [
            (lambda record: record_leaf_hashes(encoded(record))[0], {"CW.SE.CS.CT.CA": 4}),
            (lambda record: "zz", {"CW.SE.CS.CT.CA": 4}),
            (lambda record: "AB" * 32, {"CW.SE.CS.CT.CA": 4}),
            # Not in the writer's layout: the file is corrupt, and kept as stored.
            (lambda record: 5, {}),
        ],
        ids=["rehashed", "non_hex", "upper_hex", "not_a_string"],
    )
    def test_leaf_list_the_root_does_not_vouch_for_prunes_everything(self, leaf_of_record_1, pruned_counts):
        trace = run_optimization(
            IOT,
            FUSED,
            1,
            policy=POLICY,
            seed=3,
            request_counts=(4,),
            tamper=forge_leaf_list(leaf_of_record_1),
        )
        result = trace.iterations[0]
        assert result.integrity_verified is False
        assert result.pruned_counts == pruned_counts
        assert result.reverted is True
        assert result.estimated_cost_ms is None

    def test_corrupt_group_file_fails_integrity(self):
        trace = run_optimization(
            IOT,
            FUSED,
            1,
            policy=POLICY,
            seed=19,
            request_counts=(2,),
            tamper=corrupt_group_file,
        )
        result = trace.iterations[0]
        assert result.integrity_verified is False
        assert result.group_results == {"CW.SE.CS.CT.CA": False}
        assert result.pruned_counts == {}
        assert result.reverted is True

    def test_deleted_group_file_fails_integrity(self):
        def delete_group_file(iteration: int, store) -> None:
            store.delete("CW.SE.CS.CT.CA.json")

        trace = run_optimization(
            IOT, FUSED, 1, policy=POLICY, seed=19, request_counts=(2,), tamper=delete_group_file
        )
        result = trace.iterations[0]
        assert result.integrity_verified is False
        assert result.group_results == {}
        assert result.reverted is True

    def test_records_of_a_failed_group_never_reach_metrics(self):
        trace = run_optimization(
            IOT,
            FUSED,
            1,
            policy=POLICY,
            seed=19,
            request_counts=(2,),
            tamper=tamper_and_forge_group,
        )
        result = trace.iterations[0]
        assert result.group_results == {"CW.SE.CS.CT.CA": False, "X": False}
        assert result.pruned_counts == {"CW.SE.CS.CT.CA": 1}
        assert result.estimated_cost_ms == pytest.approx(282.0)

    @pytest.mark.parametrize("hop", [0, 2, 4])
    def test_a_tampered_hop_prunes_its_whole_trace(self, monkeypatch, hop):
        """As filter_batch flags a trace whole, verification prunes every
        record of a trace with one tampered hop: the other four never
        reach the metrics."""
        seen, tampered = [], []

        def recording(records, fusion_key, app):
            seen.extend(records)
            return annotate_metrics(records, fusion_key, app)

        def tamper_hop(iteration: int, store) -> None:
            key = "CW.SE.CS.CT.CA.json"
            records = parse_group_file(store.get(key))
            tree, records = records[-1], records[:-1]
            records[hop] = dataclasses.replace(records[hop], billed_duration_ms=80000)
            tampered.append(records[hop].trace_id)
            store.put(key, group_file_bytes(records, tree))

        monkeypatch.setattr(verification, "annotate_metrics", recording)
        trace = run_optimization(
            IOT, FUSED, 1, policy=POLICY, seed=19, request_counts=(2,), tamper=tamper_hop
        )
        result = trace.iterations[0]
        assert result.pruned_counts == {"CW.SE.CS.CT.CA": 1}
        assert len(seen) == 5
        assert tampered[0] not in {r.trace_id for r in seen}
        assert result.estimated_cost_ms == pytest.approx(282.0)

    def test_pruned_iteration_verifies_once(self, monkeypatch):
        calls = {"load_setups": [], "verify_integrity": [], "annotate_metrics": []}

        def recording(name, inner):
            def wrapper(*args):
                calls[name].append(inner(*args))
                return calls[name][-1]
            return wrapper

        for name in calls:
            monkeypatch.setattr(verification, name, recording(name, getattr(verification, name)))
        trace = run_optimization(
            IOT,
            FUSED,
            1,
            policy=POLICY,
            seed=19,
            request_counts=(2,),
            tamper=tamper_first_record,
        )
        assert trace.iterations[0].pruned_counts == {"CW.SE.CS.CT.CA": 1}
        assert {name: len(results) for name, results in calls.items()} == {
            "load_setups": 1, "verify_integrity": 1, "annotate_metrics": 1,
        }
        (report,) = calls["verify_integrity"]
        key = "CW.SE.CS.CT.CA"
        survivors = [record_from_wire(json.loads(data)) for data in survivors_of(report)[key]]
        assert calls["annotate_metrics"] == [annotate_metrics(survivors, key, IOT)]

    @pytest.mark.parametrize("tamper, builds", [(None, []), (tamper_first_record, [5])])
    def test_proof_is_checked_against_its_receipt(self, monkeypatch, tamper, builds):
        calls = []

        def counting(leaves):
            calls.append(len(leaves))
            return build_merkle_tree(leaves)

        monkeypatch.setattr(verification, "build_merkle_tree", counting)
        trace = run_optimization(
            IOT, FUSED, 1, policy=POLICY, seed=19, request_counts=(2,), tamper=tamper
        )
        assert trace.iterations[0].integrity_verified is (tamper is None)
        assert calls == builds

    def test_attacked_iteration_reverts_on_empty_evidence(self):
        trace = run_optimization(
            IOT,
            FUSED,
            2,
            policy=POLICY,
            attack=AttackPlan(AttackMode.DOW, "SE", 999999),
            seed=23,
            request_counts=(3,),
        )
        first, second = trace.iterations
        assert first.load_stats == {3: (3, 0)}
        assert first.reverted is False
        # The default gate attacks every request on odd iterations, so
        # nothing survives filtering and there is nothing to trust.
        assert second.load_stats == {3: (0, 3)}
        assert second.integrity_verified is False
        assert second.reverted is True

    def test_sampling_skip_trusts_clean_records(self):
        sampling = SamplingState(10, i=10, f=0.001)
        trace = run_optimization(
            IOT, FUSED, 3, policy=POLICY, seed=29, sampling=sampling
        )
        skipped = [r for r in trace.iterations if not r.inspected]
        assert skipped, "with f=0.001 some iteration must skip inspection"
        for result in skipped:
            assert result.integrity_verified is None
            assert result.group_results == {}
            assert result.estimated_cost_ms is not None

    @pytest.mark.parametrize(
        "tamper, splits, hashes",
        # Tampered: verify_integrity hashes the 10 stored records once; the
        # 5 survivors' persisted records are found by their tree's leaves.
        [(None, 0, []), (tamper_first_record, 1, [10])],
        ids=["untouched", "tampered"],
    )
    def test_an_untouched_group_is_neither_split_nor_hashed_again(
        self, monkeypatch, tamper, splits, hashes
    ):
        calls = {"splits": 0, "hashes": [], "seals": []}
        inner_split, inner_hash = proofs.load_group_file, verification.record_leaf_hashes
        inner_load = verification.load_setups

        def splitting(data):
            calls["splits"] += 1
            return inner_split(data)

        def hashing(encoded):
            calls["hashes"].append(len(encoded))
            return inner_hash(encoded)

        def loading(store, seals):
            # Splits are counted here only: the tamper hook splits the file too.
            calls["seals"].append(list(seals))
            with monkeypatch.context() as patch:
                patch.setattr(proofs, "load_group_file", splitting)
                result = inner_load(store, seals)
            assert seals == {}
            return result

        monkeypatch.setattr(verification, "record_leaf_hashes", hashing)
        monkeypatch.setattr(verification, "load_setups", loading)
        trace = run_optimization(
            IOT, FUSED, 1, policy=POLICY, seed=19, request_counts=(2,), tamper=tamper
        )
        assert trace.iterations[0].integrity_verified is (tamper is None)
        assert calls == {"splits": splits, "hashes": hashes, "seals": [["CW.SE.CS.CT.CA"]]}

    def test_only_an_inspected_iteration_seals(self, monkeypatch):
        seals = []
        inner = verification.persist_evidence

        def persisting(store, fusion_key, records, sealed):
            seals.append(sealed)
            return inner(store, fusion_key, records, sealed)

        monkeypatch.setattr(verification, "persist_evidence", persisting)
        sampling = SamplingState(10, i=10, f=0.5)
        trace = run_optimization(IOT, FUSED, 6, policy=POLICY, seed=29, sampling=sampling)
        assert {r.inspected for r in trace.iterations} == {True, False}
        assert [s is not None for s in seals] == [r.inspected for r in trace.iterations]
        assert all(s == {} for s in seals if s is not None)

    def test_verify_is_anchored_by_the_tree_persist_returned(self, monkeypatch):
        """verify_integrity gets, under the entry fusion key, the very
        TreeInfo that persist_evidence returned in its iteration; an
        iteration that is not inspected calls it not at all."""
        persisted, calls = [], []
        inner_persist, inner_verify = verification.persist_evidence, verification.verify_integrity

        def persisting(store, fusion_key, records, seals):
            persisted.append((fusion_key, inner_persist(store, fusion_key, records, seals)))
            return persisted[-1][1]

        def verifying(setups, anchors=None):
            calls.append((len(persisted) - 1, anchors))
            return inner_verify(setups, anchors)

        monkeypatch.setattr(verification, "persist_evidence", persisting)
        monkeypatch.setattr(verification, "verify_integrity", verifying)
        sampling = SamplingState(10, i=10, f=0.5)
        trace = run_optimization(IOT, FUSED, 6, policy=POLICY, seed=29, sampling=sampling)
        inspected = [r.inspected for r in trace.iterations]
        assert set(inspected) == {True, False}
        assert [it for it, _ in calls] == [it for it, x in enumerate(inspected) if x]
        for it, anchors in calls:
            key, tree = persisted[it]
            assert key == entry_fusion_key(FUSED, IOT.entry_task) and tree.root
            assert list(anchors) == [key] and anchors[key] is tree

    def test_tree_operation_gets_each_store_once(self, monkeypatch):
        """The tree_optimize benchmark's shape, scaled down: 8 inspected
        iterations of a fused tree(4,2), one stored record altered on
        every third.  Each iteration's store is read once, only the
        altered groups are split, and verification builds only their
        survivors' trees: a stored proof equal to its anchor is not
        rebuilt."""
        tree = builtin_tree_app(fanout=4, depth=2)
        gets, splits, builds = [], [], []
        inner_split, inner_build = proofs.load_group_file, verification.build_merkle_tree

        class CountingStore(MemoryStore):
            def get(self, key):
                gets.append(key)
                return super().get(key)

        def tamper(iteration: int, store) -> None:
            if iteration % 3 == 0:
                key = store.list()[0]
                data = MemoryStore.get(store, key)
                store.put(key, data.replace(b'"billed":', b'"billed":1', 1))

        monkeypatch.setattr(proofs, "load_group_file",
                            lambda data: splits.append(1) or inner_split(data))
        monkeypatch.setattr(verification, "build_merkle_tree",
                            lambda leaves: builds.append(len(leaves)) or inner_build(leaves))
        trace = run_optimization(
            tree, FusionSetup.fused([tree.task_names()]), 8, seed=5,
            request_counts=(2, 3), store_factory=lambda it: CountingStore(), tamper=tamper,
        )
        assert all(r.inspected for r in trace.iterations)
        assert [r.integrity_verified for r in trace.iterations] == [i % 3 != 0 for i in range(8)]
        assert (len(gets), len(splits), len(builds)) == (8, 3, 3)

    def test_deterministic_across_runs(self):
        a = run_optimization(IOT, SPLIT, 5, policy=POLICY, seed=31)
        b = run_optimization(IOT, SPLIT, 5, policy=POLICY, seed=31)
        assert [iteration_result_to_wire(r) for r in a.iterations] == [
            iteration_result_to_wire(r) for r in b.iterations
        ]
        assert a.final_setup == b.final_setup

    def test_load_stats_cover_all_loads(self):
        trace = run_optimization(
            IOT, FUSED, 1, policy=POLICY, seed=37, request_counts=(2, 4)
        )
        assert trace.iterations[0].load_stats == {2: (2, 0), 4: (4, 0)}

    def test_zero_iterations_rejected(self):
        with pytest.raises(ParseError):
            run_optimization(IOT, FUSED, 0)

    def test_wire_shape(self):
        trace = run_optimization(IOT, FUSED, 1, policy=POLICY, seed=41)
        wire = iteration_result_to_wire(trace.iterations[0])
        assert set(wire) == {
            "iteration",
            "setup_part",
            "estimated_cost_ms",
            "integrity_verified",
            "group_results",
            "pruned_counts",
            "reverted",
            "inspected",
            "load_stats",
        }
        assert wire["load_stats"] == {"10": [10, 0]}
