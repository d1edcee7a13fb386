"""Filtering, canonical bytes, Merkle construction, and persistence."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionproof import proofs
from fusionproof.errors import InvalidHexLeaf, ParseError
from fusionproof.handler import FusionSetup, RouteKind, generate_trace_id
from fusionproof.proofs import (
    StoredGroup,
    ThresholdPolicy,
    TreeInfo,
    ViolationKind,
    build_merkle_tree,
    canonical_record_bytes,
    check_chain_sequence,
    check_record,
    filter_batch,
    group_file_bytes,
    join_group_file,
    load_group_file,
    load_setups,
    parse_log_lines,
    persist_evidence,
    record_from_wire,
    record_leaf_hashes,
    record_to_wire,
)
from fusionproof.store import MemoryStore
from fusionproof.verification import commit, verify_integrity
from fusionproof.workload import (
    AttackMode,
    AttackPlan,
    InvocationRecord,
    builtin_iot_app,
    emit_platform_logs,
    execute_request,
)


def sha_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Independent oracle: recursive reduction with per-level duplicate padding.
# A single original leaf is padded and combined once; a one-node level
# produced by combination is the root.
def oracle_root(leaves: list[str]) -> str:
    if not leaves:
        return ""
    work = list(leaves)
    if len(work) % 2 == 1:
        work.append(work[-1])
    return _reduce(work)


def _reduce(level: list[str]) -> str:
    if len(level) == 1:
        return level[0]
    if len(level) % 2 == 1:
        level = level + [level[-1]]
    combined = [sha_hex(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return _reduce(combined)


def random_leaves(count: int, seed: int = 0) -> list[str]:
    rng = random.Random(seed)
    return [sha_hex(f"leaf-{seed}-{rng.random()}-{i}") for i in range(count)]


IOT = builtin_iot_app()
FUSED = FusionSetup.fused([["CW", "SE", "CS", "CT", "CA"]])
POLICY = ThresholdPolicy(expected_sequence=IOT.sync_chain())
WIRE_KEYS = ["traceid", "task", "idx", "caller", "start", "billed", "mem", "route", "setupv"]


def leaf_hashes(records) -> list[str]:
    return record_leaf_hashes([canonical_record_bytes(r) for r in records])


def iot_records(randomness: bytes, attack=None, seed=3, origin=0):
    trace = generate_trace_id(FUSED, "CW", randomness)
    return execute_request(IOT, FUSED, trace, attack, seed, origin)


class TestCanonicalBytes:
    GOLDEN_TRACE = "CW.SE.CS.CT.CA-CW-" + "ab" * 32 + "-" + "cd" * 32

    def golden_record(self) -> InvocationRecord:
        return InvocationRecord(
            trace_id=self.GOLDEN_TRACE,
            task="CW",
            chain_index=0,
            caller="I",
            start_ms=0,
            billed_duration_ms=37,
            memory_used_mb=10,
            route=RouteKind.REMOTE,
            setup_version=1,
        )

    def test_golden_bytes(self):
        expected = (
            '{"traceid":"%s","task":"CW","idx":0,"caller":"I","start":0,'
            '"billed":37,"mem":10,"route":"REMOTE","setupv":1}' % self.GOLDEN_TRACE
        ).encode("utf-8")
        assert canonical_record_bytes(self.golden_record()) == expected

    def test_golden_leaf_hash(self):
        # Frozen from an independent SHA-256 of the golden byte string.
        assert hashlib.sha256(canonical_record_bytes(self.golden_record())).hexdigest() == (
            "d0d8462e100d6b3eb148f828ea521887def26b1957c8ec0fb7244eefade1c29f"
        )

    def test_no_whitespace_and_field_order(self):
        data = canonical_record_bytes(self.golden_record())
        assert b" " not in data
        keys = list(json.loads(data))
        assert keys == [
            "traceid", "task", "idx", "caller", "start", "billed", "mem", "route", "setupv",
        ]

    def test_equal_records_equal_bytes(self):
        assert canonical_record_bytes(self.golden_record()) == canonical_record_bytes(
            self.golden_record()
        )

    def test_idx_changes_bytes_and_hash(self):
        base = self.golden_record()
        other = InvocationRecord(
            base.trace_id, base.task, 1, base.caller, base.start_ms,
            base.billed_duration_ms, base.memory_used_mb, base.route, base.setup_version,
        )
        assert canonical_record_bytes(base) != canonical_record_bytes(other)
        assert hashlib.sha256(canonical_record_bytes(base)).hexdigest() != hashlib.sha256(
            canonical_record_bytes(other)
        ).hexdigest()


class TestMerkleTree:
    def test_empty(self):
        assert build_merkle_tree([]) == TreeInfo("", ())

    def test_single_leaf_duplicates_then_combines(self):
        h = sha_hex("leaf0")
        assert h == "4d5a9584d985e8fb44015a8affa9b76f1ff16f65e61df7156d8e8159e1448978"
        info = build_merkle_tree([h])
        assert info.root == sha_hex(h + h)
        assert info.root == (
            "e6acb23132a4f308a9ad6f5fd1021e8b4ef0238f55eec7b2e92726801aaba583"
        )
        assert info.leaves == (h,)

    def test_three_leaves_pad_level_one(self):
        h1, h2, h3 = sha_hex("a"), sha_hex("b"), sha_hex("c")
        info = build_merkle_tree([h1, h2, h3])
        a, b = sha_hex(h1 + h2), sha_hex(h3 + h3)
        assert info.root == sha_hex(a + b)
        assert info.root == (
            "0bdf27bf7ec894ca7cadfe491ec1a3ece840f117989e8c5e9bd7086467bf6c38"
        )
        assert info.leaves == (h1, h2, h3)

    @pytest.mark.parametrize("count", range(17))
    def test_matches_oracle(self, count):
        leaves = random_leaves(count, seed=count)
        info = build_merkle_tree(leaves)
        assert info.root == oracle_root(leaves)

    def test_five_leaves_tree_length(self):
        # 5 leaves -> padded level of 6 -> 3 combined -> padded 4 -> 2 -> 1.
        leaves = random_leaves(5, seed=5)
        info = build_merkle_tree(leaves)
        assert info.leaves == tuple(leaves)

    def test_structure_invariants(self):
        for count in range(1, 12):
            leaves = random_leaves(count, seed=100 + count)
            info = build_merkle_tree(leaves)
            assert info.leaves == tuple(leaves)

    @pytest.mark.parametrize("bad", ["xyz", "AB" * 32, "0" * 63, "0" * 65, ""])
    def test_rejects_non_hex_leaves(self, bad):
        with pytest.raises(InvalidHexLeaf):
            build_merkle_tree([sha_hex("ok"), bad])

    def test_deterministic(self):
        leaves = random_leaves(7, seed=7)
        assert build_merkle_tree(leaves) == build_merkle_tree(leaves)

    def test_any_single_leaf_mutation_changes_root(self):
        for count in range(1, 9):
            leaves = random_leaves(count, seed=200 + count)
            baseline = build_merkle_tree(leaves).root
            for position in range(count):
                mutated = list(leaves)
                mutated[position] = sha_hex(f"mutant-{count}-{position}")
                assert build_merkle_tree(mutated).root != baseline

    @given(count=st.integers(min_value=2, max_value=32), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_adjacent_swap_changes_root(self, count, seed):
        leaves = random_leaves(count, seed=seed)
        rng = random.Random(seed)
        position = rng.randrange(count - 1)
        if leaves[position] == leaves[position + 1]:
            return
        swapped = list(leaves)
        swapped[position], swapped[position + 1] = swapped[position + 1], swapped[position]
        assert build_merkle_tree(swapped).root != build_merkle_tree(leaves).root


class TestParseLogLines:
    def test_round_trip(self):
        records = iot_records(b"\x01" * 32)
        parsed, rejects = parse_log_lines(emit_platform_logs(records))
        assert parsed == records
        assert rejects == []

    def test_bad_billed_value_rejected(self):
        line = (
            "REPORT traceid=t task=CW idx=0 caller=I start=0 billed=abc "
            "mem=10 route=REMOTE setupv=1"
        )
        records, rejects = parse_log_lines([line])
        assert records == []
        assert len(rejects) == 1
        assert rejects[0].line_number == 1
        assert "grammar" in rejects[0].reason

    @pytest.mark.parametrize(
        "i, swap",
        [*((i, False) for i in range(len(WIRE_KEYS))),
         *((i, True) for i in range(len(WIRE_KEYS) - 1))],
        ids=[*(f"drop_{key}" for key in WIRE_KEYS),
             *(f"swap_{a}_{b}" for a, b in zip(WIRE_KEYS, WIRE_KEYS[1:]))],
    )
    def test_dropped_or_swapped_pair_rejected(self, i, swap):
        """The grammar fixes every key and its place; a line missing one
        pair, or with two neighbours swapped, is off it."""
        good = emit_platform_logs(iot_records(b"\x03" * 32)[:1])[0]
        assert parse_log_lines([good])[1] == []
        head, *pairs = good.split(" ")
        if swap:
            pairs[i:i + 2] = pairs[i + 1], pairs[i]
        else:
            del pairs[i]
        records, rejects = parse_log_lines([" ".join([head, *pairs])])
        assert records == []
        assert [r.reason for r in rejects] == ["does not match REPORT grammar"]

    def test_number_too_long_for_int_rejected(self):
        line = (
            f"REPORT traceid=t task=CW idx=0 caller=I start={'1' * 5000} billed=1 "
            "mem=1 route=REMOTE setupv=1"
        )
        records, rejects = parse_log_lines([line, line.replace("1" * 5000, "0")])
        assert len(records) == 1
        assert [r.line_number for r in rejects] == [1]
        assert rejects[0].reason.startswith("bad record object: ")

    @pytest.mark.parametrize("field", ["idx", "start", "billed", "mem", "setupv"])
    def test_non_ascii_digits_rejected(self, field):
        """Only ASCII digits are numbers in the grammar: int() would read
        an Arabic-Indic or fullwidth digit as its value."""
        good = "REPORT traceid=t task=CW idx=0 caller=I start=0 billed=1 mem=1 route=REMOTE setupv=1"
        assert parse_log_lines([good])[1] == []
        for digit in ("\u0660", "\u0661", "\uff11", "1\u0663"):
            line = re.sub(rf"(?<= {field}=)[0-9]+", digit, good)
            assert line != good
            records, rejects = parse_log_lines([line])
            assert records == []
            assert [r.reason for r in rejects] == ["does not match REPORT grammar"]

    def test_zero_billed_rejected(self):
        line = (
            "REPORT traceid=t task=CW idx=0 caller=I start=0 billed=0 "
            "mem=10 route=REMOTE setupv=1"
        )
        records, rejects = parse_log_lines([line])
        assert records == []
        assert "positive" in rejects[0].reason

    def test_garbage_interleaved(self):
        good = emit_platform_logs(iot_records(b"\x02" * 32)[:3])
        lines = ["not a report", good[0], "REPORT traceid=x", good[1], "", good[2]]
        records, rejects = parse_log_lines(lines)
        assert len(records) == 3
        assert [r.line_number for r in rejects] == [1, 3, 5]

    @given(
        task=st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8),
        idx=st.integers(0, 10**6),
        start=st.integers(0, 10**9),
        billed=st.integers(1, 10**9),
        mem=st.integers(1, 10**6),
        route=st.sampled_from(list(RouteKind)),
        setupv=st.integers(0, 10**4),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, task, idx, start, billed, mem, route, setupv):
        record = InvocationRecord(
            trace_id=f"{task},X-{task}-{'0' * 64}-{'f' * 64}",
            task=task,
            chain_index=idx,
            caller=task,
            start_ms=start,
            billed_duration_ms=billed,
            memory_used_mb=mem,
            route=route,
            setup_version=setupv,
        )
        parsed, rejects = parse_log_lines(emit_platform_logs([record]))
        assert rejects == []
        assert parsed == [record]


class TestCheckRecord:
    def make(self, billed=37, mem=10) -> InvocationRecord:
        return InvocationRecord("t", "SE", 1, "CW", 0, billed, mem, RouteKind.LOCAL, 1)

    def test_inflated_duration_flagged(self):
        verdict = check_record(self.make(billed=999999), ThresholdPolicy(max_billed_ms=90000))
        assert verdict.kind is ViolationKind.DURATION_EXCEEDED

    def test_normal_record_passes(self):
        verdict = check_record(self.make(), ThresholdPolicy())
        assert verdict is None

    def test_duration_outranks_memory(self):
        policy = ThresholdPolicy(max_billed_ms=10, max_memory_mb=5)
        verdict = check_record(self.make(billed=100, mem=100), policy)
        assert verdict.kind is ViolationKind.DURATION_EXCEEDED

    def test_memory_only(self):
        verdict = check_record(self.make(mem=256), ThresholdPolicy(max_memory_mb=128))
        assert verdict.kind is ViolationKind.MEMORY_EXCEEDED

    @pytest.mark.parametrize("field", ["max_billed_ms", "max_memory_mb"])
    def test_nan_limit_is_refused(self, field):
        # Nothing exceeds NaN, so a NaN limit would silently pass every record.
        with pytest.raises(ParseError, match=f"^{field} must not be NaN"):
            ThresholdPolicy(**{field: float("nan")})

    def test_infinite_limits_flag_nothing(self):
        policy = ThresholdPolicy(max_billed_ms=float("inf"), max_memory_mb=float("inf"))
        assert check_record(self.make(billed=10**12, mem=10**12), policy) is None


class TestChainSequence:
    def test_in_order_passes(self):
        records = iot_records(b"\x03" * 32)
        assert check_chain_sequence(records, POLICY) is None

    def test_swap_detected(self):
        records = iot_records(
            b"\x03" * 32, attack=AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CT", "CA")))
        verdict = check_chain_sequence(records, POLICY)
        assert verdict.kind is ViolationKind.SEQUENCE_VIOLATION

    def test_sorts_by_chain_index(self):
        records = list(reversed(iot_records(b"\x03" * 32)))
        assert check_chain_sequence(records, POLICY) is None

    def test_length_mismatch_detected(self):
        records = iot_records(b"\x03" * 32)[:4]
        verdict = check_chain_sequence(records, POLICY)
        assert verdict.kind is ViolationKind.SEQUENCE_VIOLATION

    def test_empty_expected_disables_check(self):
        records = iot_records(
            b"\x03" * 32, attack=AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CT", "CA")))
        assert check_chain_sequence(records, ThresholdPolicy()) is None


class TestFilterBatch:
    def test_all_clean(self):
        records = iot_records(b"\x04" * 32) + iot_records(b"\x05" * 32, origin=1000)
        clean, flagged = filter_batch(records, POLICY)
        assert clean == records
        assert flagged == []

    def test_dow_trace_flagged_atomically(self):
        clean_trace = iot_records(b"\x06" * 32)
        attacked = iot_records(
            b"\x07" * 32, attack=AttackPlan(AttackMode.DOW, "SE", 999999), origin=1000)
        clean, flagged = filter_batch(clean_trace + attacked, POLICY)
        assert clean == clean_trace
        assert [r.trace_id for r, _ in flagged] == [r.trace_id for r in attacked]
        kinds = {r.task: v.kind for r, v in flagged}
        assert kinds["SE"] is ViolationKind.DURATION_EXCEEDED
        # Sibling records inherit the trace's triggering verdict.
        assert kinds["CW"] is ViolationKind.DURATION_EXCEEDED

    def test_sequence_violation_flags_trace(self):
        attacked = iot_records(
            b"\x08" * 32, attack=AttackPlan(AttackMode.BUSINESS_LOGIC, swap=("CT", "CA")))
        clean, flagged = filter_batch(attacked, POLICY)
        assert clean == []
        assert all(v.kind is ViolationKind.SEQUENCE_VIOLATION for _, v in flagged)

    def test_all_flagged_leaves_clean_empty(self):
        a = iot_records(b"\x09" * 32, attack=AttackPlan(AttackMode.DOW, "SE", 999999))
        b = iot_records(b"\x0a" * 32, attack=AttackPlan(AttackMode.DOW, "CT", 999999), origin=1000)
        clean, flagged = filter_batch(a + b, POLICY)
        assert clean == []
        assert len(flagged) == 10
        assert build_merkle_tree(leaf_hashes(clean)) == TreeInfo.empty()

    def test_clean_preserves_interleaved_order(self):
        a = iot_records(b"\x0b" * 32)
        b = iot_records(b"\x0c" * 32, origin=1000)
        interleaved = [r for pair in zip(a, b) for r in pair]
        clean, flagged = filter_batch(interleaved, POLICY)
        assert clean == interleaved
        assert flagged == []

    def test_no_record_in_both_outputs(self):
        records = iot_records(b"\x0d" * 32) + iot_records(
            b"\x0e" * 32, attack=AttackPlan(AttackMode.DOW, "SE", 999999), origin=1000
        )
        clean, flagged = filter_batch(records, POLICY)
        flagged_only = [r for r, _ in flagged]
        assert set(id(r) for r in clean).isdisjoint(id(r) for r in flagged_only)
        assert len(clean) + len(flagged_only) == len(records)


class TestPersistEvidence:
    def test_empty_batch_writes_empty_proof(self):
        store = MemoryStore()
        assert persist_evidence(store, "CW", []) == TreeInfo.empty()
        assert store.get("CW.json") == b'[{"root":"","leaf":[]}]'

    def test_two_records_two_blocks_one_group(self):
        store = MemoryStore()
        rec_a = iot_records(b"\x11" * 32)[0]
        rec_b = iot_records(b"\x12" * 32, origin=1000)[0]
        tree = persist_evidence(store, "CW", [rec_a, rec_b])
        body = json.loads(store.get("CW.json"))
        assert len(body) == 3
        expected_root = oracle_root(leaf_hashes([rec_a, rec_b]))
        assert body[-1]["root"] == expected_root
        assert tree.root == expected_root

    def test_idempotent(self):
        records = iot_records(b"\x14" * 32)
        store_a, store_b = MemoryStore(), MemoryStore()
        persist_evidence(store_a, "CW.SE.CS.CT.CA", records)
        persist_evidence(store_b, "CW.SE.CS.CT.CA", records)
        persist_evidence(store_b, "CW.SE.CS.CT.CA", records)
        assert store_a.list() == store_b.list()
        for key in store_a.list():
            assert store_a.get(key) == store_b.get(key)

    def test_group_file_matches_helper(self):
        records = iot_records(b"\x15" * 32)
        store = MemoryStore()
        tree = persist_evidence(store, "CW.SE.CS.CT.CA", records)
        assert store.get("CW.SE.CS.CT.CA.json") == group_file_bytes(records, tree)


# Strings that exercise every escaping rule of the JSON encoder.
_TRICKY_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(
            ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "€", "\U0001f600", "\ud800"]
        ),
        st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()),
    ),
    max_size=12,
)
_ANY_INT = st.integers(min_value=-(2**80), max_value=2**80)

_RECORDS = st.builds(
    InvocationRecord,
    trace_id=_TRICKY_TEXT,
    task=_TRICKY_TEXT,
    chain_index=_ANY_INT,
    caller=_TRICKY_TEXT,
    start_ms=_ANY_INT,
    billed_duration_ms=_ANY_INT,
    memory_used_mb=_ANY_INT,
    route=st.sampled_from(RouteKind),
    setup_version=_ANY_INT,
)


# Every kind of value json.loads can return.
_JSON_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    _ANY_INT,
    st.floats(),
    _TRICKY_TEXT,
    st.lists(_TRICKY_TEXT, max_size=2),
    st.dictionaries(_TRICKY_TEXT, _ANY_INT, max_size=2),
)
_WIRE_INTS = ("idx", "start", "billed", "mem", "setupv")
_TAMPERED_TEXT_RECORDS = st.fixed_dictionaries(
    {
        "traceid": _JSON_VALUE,
        "task": _JSON_VALUE,
        "caller": _JSON_VALUE,
        "route": st.sampled_from([r.value for r in RouteKind]),
        **{name: _ANY_INT for name in _WIRE_INTS},
    }
)
_TAMPERED_WIRE_RECORDS = st.fixed_dictionaries(
    {
        "traceid": _JSON_VALUE,
        "task": _JSON_VALUE,
        "caller": _JSON_VALUE,
        "route": st.one_of(st.sampled_from([r.value for r in RouteKind]), _JSON_VALUE),
        **{name: st.one_of(_ANY_INT, _JSON_VALUE) for name in _WIRE_INTS},
    }
)


def _reference_record_bytes(record: InvocationRecord) -> bytes:
    return json.dumps(record_to_wire(record), separators=(",", ":")).encode("utf-8")


def _reference_group_file(records, tree: TreeInfo) -> bytes:
    body = [record_to_wire(r) for r in records] + [{"root": tree.root, "leaf": list(tree.leaves)}]
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


# 40 records, eight five-hop traces.
_RECORD_POOL = [r for k in range(8) for r in iot_records(bytes([k + 1]) * 32, origin=1000 * k)]


class TestEncoderMatchesJsonDumps:
    @given(_RECORDS)
    @settings(max_examples=300, deadline=None)
    def test_record_bytes(self, record):
        assert canonical_record_bytes(record) == _reference_record_bytes(record)

    @given(st.lists(_RECORDS, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_group_file_bytes(self, records):
        tree = build_merkle_tree(leaf_hashes(records))
        assert group_file_bytes(records, tree) == _reference_group_file(records, tree)

    @staticmethod
    def _written_as_json_writes_it(records, tree: TreeInfo) -> None:
        encoded = tuple(map(canonical_record_bytes, records))
        data = join_group_file(encoded, tree)
        assert data == _reference_group_file(records, tree)
        assert load_group_file(data) == StoredGroup(encoded, tree)

    @given(st.integers(0, 40), st.integers(0, 999), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_proof_of_any_built_tree(self, leaves, seed, records):
        """The proof template writes what json.dumps writes for every tree
        build_merkle_tree returns, the empty one included."""
        tree = build_merkle_tree(random_leaves(leaves, seed))
        assert (tree == TreeInfo.empty()) is (leaves == 0)
        self._written_as_json_writes_it(_RECORD_POOL[:records], tree)

    def test_proof_of_12000_leaves(self):
        self._written_as_json_writes_it(_RECORD_POOL, build_merkle_tree(random_leaves(12_000, 7)))

    def test_empty_group(self):
        expected = b'[{"root":"","leaf":[]}]'
        assert group_file_bytes([], TreeInfo.empty()) == expected
        assert _reference_group_file([], TreeInfo.empty()) == expected

    @given(_TAMPERED_TEXT_RECORDS)
    @settings(max_examples=300, deadline=None)
    def test_loaded_record_with_any_text_value(self, obj):
        # A tampered group file can hold any JSON value in a text field:
        # a string encodes exactly as the reference form does, anything
        # else is refused.
        if not all(isinstance(obj[key], str) for key in ("traceid", "task", "caller")):
            with pytest.raises(ParseError):
                record_from_wire(obj)
            return
        record = record_from_wire(obj)
        assert canonical_record_bytes(record) == _reference_record_bytes(record)

    @given(_TAMPERED_WIRE_RECORDS)
    @settings(max_examples=300, deadline=None)
    def test_any_wire_record_loads_or_raises_parse_error(self, obj):
        try:
            record = record_from_wire(obj)
        except ParseError:
            return
        assert canonical_record_bytes(record) == _reference_record_bytes(record)

    def test_quoting_memo_is_bounded_and_exact_after_eviction(self):
        memo = proofs._quoted
        bound = memo.cache_info().maxsize
        tricky = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "€", "\U0001f600", "\ud800"]
        routes = list(RouteKind)

        def record(k: int) -> InvocationRecord:
            # Three texts no other record holds: 3 * 2 * bound in all.
            mark = tricky[k % len(tricky)]
            return InvocationRecord(
                f"trace{mark}{k}", f"{k}task{mark}", k, f"caller{k}{mark * 2}",
                k, k + 1, k + 2, routes[k % len(routes)], k,
            )

        records = [record(k) for k in range(2 * bound)]
        for r in records:
            assert canonical_record_bytes(r) == _reference_record_bytes(r)
            assert memo.cache_info().currsize <= bound
        # The first records' texts were evicted long ago: each misses again.
        misses = memo.cache_info().misses
        for r in records[:10]:
            assert canonical_record_bytes(r) == _reference_record_bytes(r)
        assert memo.cache_info().misses == misses + 30
        assert memo.cache_info().currsize <= bound

        # Equal texts held by distinct objects encode alike.
        last = records[-1]
        texts = (last.trace_id, last.task, last.caller)
        copies = ["".join(list(text)) for text in texts]
        assert all(c == t and c is not t for c, t in zip(copies, texts))
        twin = dataclasses.replace(last, trace_id=copies[0], task=copies[1], caller=copies[2])
        assert canonical_record_bytes(twin) == canonical_record_bytes(last)
        assert canonical_record_bytes(twin) == _reference_record_bytes(twin)

    def test_infinite_number_raises_parse_error(self):
        obj = json.loads(
            '{"traceid":"t","task":"A","idx":Infinity,"caller":"","start":0,'
            '"billed":1,"mem":1,"route":"LOCAL","setupv":0}'
        )
        with pytest.raises(ParseError):
            record_from_wire(obj)


class _CountingStore(MemoryStore):
    def __init__(self) -> None:
        super().__init__()
        self.puts: list[str] = []

    def put(self, key: str, data: bytes) -> None:
        self.puts.append(key)
        super().put(key, data)


class TestPersistPutCount:
    KEY = "CW.SE.CS.CT.CA"

    def interleaved_records(self):
        first = iot_records(b"\x31" * 32)
        second = iot_records(b"\x32" * 32, origin=5000)
        third = iot_records(b"\x33" * 32, origin=9000)
        # Traces overlap in emission order: first, second, first, third, second.
        return [*first[:2], *second[:3], *first[2:], *third, *second[3:]], [first, second, third]

    def test_one_put_per_trace_plus_group(self):
        records, _ = self.interleaved_records()
        store = _CountingStore()
        persist_evidence(store, self.KEY, records)
        assert store.puts == [f"{self.KEY}.json"]
        assert store.list() == [f"{self.KEY}.json"]

    def test_contents_equal_one_put_per_record(self):
        records, _ = self.interleaved_records()
        store = MemoryStore()
        persist_evidence(store, self.KEY, records)
        # The store holds the reference group file and nothing else.
        expected = MemoryStore()
        tree = build_merkle_tree(leaf_hashes(records))
        expected.put(f"{self.KEY}.json", _reference_group_file(records, tree))
        assert store.list() == expected.list()
        for key in expected.list():
            assert store.get(key) == expected.get(key)


def _reference_merkle_root(leaves):
    """Bottom-up root with odd-level duplication, one SHA-256 per parent."""
    level = list(leaves)
    while True:
        if len(level) % 2:
            level.append(level[-1])
        level = [hashlib.sha256((a + b).encode()).hexdigest()
                 for a, b in zip(level[::2], level[1::2])]
        if len(level) == 1:
            return level[0]


_DIGEST = hashlib.sha256(b"leaf").hexdigest()
# 64 characters each, and hex once the whitespace bytes.fromhex skips is gone.
_SPACED = _DIGEST[:30] + " " + _DIGEST[31:]
_TABBED = _DIGEST[:32] + "\t" + _DIGEST[33:]
_ARABIC_DIGIT = _DIGEST[:63] + "٣"
# Leaves that are not SHA-256 hex digests; the one-call check must reject each.
_BAD_LEAVES = [
    _SPACED, _TABBED, _DIGEST.upper(), _ARABIC_DIGIT, _DIGEST.encode(), None, 5,
]
def _reference_is_hex64(leaf) -> bool:
    """The per-leaf rule as a regex, independent of the batch check."""
    return isinstance(leaf, str) and re.fullmatch("[0-9a-f]{64}", leaf) is not None


_LEAF = st.one_of(
    st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
    st.sampled_from([
        _DIGEST + "\n" + _DIGEST, "a" * 63, "a" * 65, "٠" * 64, _DIGEST + "\n", "",
        *_BAD_LEAVES,
    ]),
)


class TestMerkleLeafCheck:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_LEAF, max_size=9))
    @example([])
    @example([_DIGEST, _DIGEST + "\n" + _DIGEST])
    @example(["a" * 63, "a" * 65])
    @example(["٠" * 64])
    @example([_DIGEST, _DIGEST + "\n"])
    @example([_DIGEST.upper()])
    @example([_DIGEST, _DIGEST.encode()])
    @example([None, _DIGEST])
    @example([_DIGEST, _SPACED])
    @example([_TABBED, _DIGEST])
    @example([_DIGEST, "a" * 63, "a" * 65])
    @example([_DIGEST, _DIGEST.upper()])
    @example([_ARABIC_DIGIT])
    @example([_DIGEST, 5])
    def test_accepts_exactly_when_every_leaf_is_hex64(self, leaves):
        bad = [leaf for leaf in leaves if not _reference_is_hex64(leaf)]
        if bad:
            with pytest.raises(InvalidHexLeaf) as info:
                build_merkle_tree(leaves)
            assert str(info.value) == (
                f"leaf {bad[0]!r} is not a 64-char lowercase hex digest"
            )
            return
        tree = build_merkle_tree(leaves)
        if not leaves:
            assert tree == TreeInfo.empty()
            return
        assert tree.root == _reference_merkle_root(leaves)
        assert tree.leaves == tuple(leaves)

    @pytest.mark.parametrize(
        "bad", _BAD_LEAVES, ids=["space", "tab", "upper", "arabic_digit", "bytes", "none", "int"]
    )
    def test_stored_leaf_list_holding_one_compares_as_forged(self, bad):
        store = MemoryStore()
        records = [*iot_records(b"\x61" * 32), *iot_records(b"\x62" * 32)]
        persist_evidence(store, "CW.SE.CS.CT.CA", records)
        group = load_setups(store)["CW.SE.CS.CT.CA"]
        forged = TreeInfo(group.proof.root, (*group.proof.leaves[:1], bad, *group.proof.leaves[2:]))
        with pytest.raises(InvalidHexLeaf) as info:
            build_merkle_tree(forged.leaves)
        assert str(info.value) == f"leaf {bad!r} is not a 64-char lowercase hex digest"
        report = commit(verify_integrity({"CW.SE.CS.CT.CA": StoredGroup(group.records, forged)}), store)
        assert report.integrity_verified is False
        assert report.pruned == {"CW.SE.CS.CT.CA": tuple(dict.fromkeys(r.trace_id for r in records))}
        assert report.outcomes["CW.SE.CS.CT.CA"].survivors == ()


class TestRouteFromWire:
    def wire(self, **route):
        obj = record_to_wire(iot_records(b"\x42" * 32)[0])
        del obj["route"]
        obj.update(route)
        return obj

    @pytest.mark.parametrize("kind", list(RouteKind))
    def test_maps_both_routes(self, kind):
        assert record_from_wire(self.wire(route=kind.value)).route is kind

    @pytest.mark.parametrize("route", [{"route": "local"}, {"route": ["LOCAL"]},
                                       {"route": None}, {"route": 1}])
    def test_bad_route_keeps_the_enum_message(self, route):
        obj = self.wire(**route)
        try:
            RouteKind(obj["route"])
        except ValueError as exc:
            expected = f"bad record object: {exc}"
        with pytest.raises(ParseError) as info:
            record_from_wire(obj)
        assert str(info.value) == expected

    @pytest.mark.parametrize("key", WIRE_KEYS)
    def test_missing_key_names_it(self, key):
        obj = record_to_wire(iot_records(b"\x42" * 32)[0])
        del obj[key]
        with pytest.raises(ParseError) as info:
            record_from_wire(obj)
        assert str(info.value) == f"bad record object: {key!r}"
