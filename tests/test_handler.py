"""Trace identifier and routing behaviour."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusionproof import proofs
from fusionproof.errors import (
    InvalidHexLeaf,
    InvalidName,
    MalformedTraceID,
    SetupMismatch,
    TamperedTraceID,
    UnknownFunction,
)
from fusionproof.handler import (
    FusionSetup,
    RouteKind,
    ensure_trace_id,
    entry_fusion_key,
    generate_trace_id,
    is_hex64,
    parse_and_validate_trace_id,
    route_call,
    split_trace_id,
    validate_name,
)


def sha_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SETUP = FusionSetup.fused([["A", "B"], ["C"]])
ZERO32 = bytes(32)

# Recomputed from the definition: SHA-256("A.B,C-A-" + "00"*32).
FROZEN_HASH_PART = "59e78bf7263435093cff52865d11a9e531c13c99570e0dbe56dd1dbab0df5d25"


class TestSetup:
    def test_setup_part_joins_groups_and_tasks(self):
        assert SETUP.setup_part == "A.B,C"
        assert FusionSetup.singletons(["X", "Y"]).setup_part == "X,Y"
        assert FusionSetup.fused([["A", "B", "C"]]).setup_part == "A.B.C"

    def test_single_task_setup_part_has_no_separators(self):
        assert FusionSetup.fused([["A"]]).setup_part == "A"

    def test_functions_and_membership(self):
        assert SETUP.functions() == ("A", "B", "C")
        assert SETUP.contains("B")
        assert not SETUP.contains("Z")
        assert SETUP.group_of("C") == ("C",)

    def test_duplicate_task_rejected(self):
        with pytest.raises(InvalidName):
            FusionSetup.fused([["A"], ["A"]])

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidName):
            FusionSetup.fused([["A"], []])

    def test_no_groups_rejected(self):
        with pytest.raises(InvalidName):
            FusionSetup.fused([])

    def test_setup_part_distinguishes_partitions(self):
        parts = {
            FusionSetup.fused(g).setup_part
            for g in ([["A", "B"], ["C"]], [["A"], ["B", "C"]], [["A"], ["B"], ["C"]],
                      [["A", "B", "C"]], [["B", "A"], ["C"]])
        }
        assert len(parts) == 5

    def test_entry_fusion_key_is_entry_group(self):
        assert entry_fusion_key(SETUP, "A") == "A.B"
        assert entry_fusion_key(SETUP, "C") == "C"


class TestValidateName:
    @pytest.mark.parametrize("name", ["CW", "fn_1", "resize", "A"])
    def test_accepts_plain_names(self, name):
        assert validate_name(name) == name

    @pytest.mark.parametrize("name", ["a-b", "a,b", "a.b", "a/b", "a b", "a\tb", ""])
    def test_rejects_reserved_characters(self, name):
        with pytest.raises(InvalidName):
            validate_name(name)

    def test_rejects_nul_which_no_file_name_can_hold(self):
        with pytest.raises(InvalidName, match="reserved character"):
            validate_name("A\0B")


class TestGenerate:
    def test_frozen_hash_part(self):
        trace = generate_trace_id(SETUP, "A", ZERO32)
        assert trace.setup_part == "A.B,C"
        assert trace.random_part == "00" * 32
        assert trace.hash_part == FROZEN_HASH_PART

    def test_hash_part_matches_definition(self):
        trace = generate_trace_id(SETUP, "B", b"\xab" * 32)
        assert trace.hash_part == sha_hex(f"A.B,C-B-{'ab' * 32}")

    def test_full_has_four_fields(self):
        trace = generate_trace_id(SETUP, "A", ZERO32)
        assert trace.full == f"A.B,C-A-{'00' * 32}-{FROZEN_HASH_PART}"

    def test_distinct_randomness_changes_only_random_and_hash(self):
        one = generate_trace_id(SETUP, "A", b"\x01" * 32)
        two = generate_trace_id(SETUP, "A", b"\x02" * 32)
        assert one.setup_part == two.setup_part
        assert one.random_part != two.random_part
        assert one.hash_part != two.hash_part

    def test_unknown_function_rejected(self):
        with pytest.raises(UnknownFunction):
            generate_trace_id(SETUP, "Z", ZERO32)

    def test_wrong_randomness_length_rejected(self):
        with pytest.raises(MalformedTraceID):
            generate_trace_id(SETUP, "A", b"\x00" * 16)


class TestParseAndEnsure:
    def test_round_trip(self):
        trace = generate_trace_id(SETUP, "A", b"\x11" * 32)
        assert parse_and_validate_trace_id(trace.full, SETUP) == trace

    def test_ensure_mints_when_absent(self):
        trace = ensure_trace_id(None, SETUP, "A", ZERO32)
        assert trace.hash_part == FROZEN_HASH_PART

    def test_ensure_passes_through_valid_incoming(self):
        minted = generate_trace_id(SETUP, "A", b"\x22" * 32)
        assert ensure_trace_id(minted, SETUP, "A") == minted
        assert ensure_trace_id(minted.full, SETUP, "B") == minted

    @pytest.mark.parametrize(
        "value",
        [
            "abc",
            "",
            "no-separators-here",
            "A.B,C-A-shorthex-" + "0" * 64,
            "A.B,C-A-" + "0" * 64 + "-nothex" + "0" * 58,
            "A.B,C-A-" + "0" * 64,
            "--" + "0" * 64 + "-" + "0" * 64,
        ],
    )
    def test_malformed_shapes(self, value):
        with pytest.raises(MalformedTraceID):
            parse_and_validate_trace_id(value, SETUP)

    def test_uppercase_hex_is_malformed(self):
        minted = generate_trace_id(SETUP, "A", ZERO32)
        with pytest.raises(MalformedTraceID):
            parse_and_validate_trace_id(minted.full.upper(), SETUP)

    def test_tampered_random_part(self):
        minted = generate_trace_id(SETUP, "A", ZERO32)
        forged = minted.full.replace("00" * 32, "11" * 32)
        with pytest.raises(TamperedTraceID):
            parse_and_validate_trace_id(forged, SETUP)

    def test_tampered_function_name(self):
        minted = generate_trace_id(SETUP, "A", ZERO32)
        forged = f"A.B,C-B-{minted.random_part}-{minted.hash_part}"
        with pytest.raises(TamperedTraceID):
            parse_and_validate_trace_id(forged, SETUP)

    def test_flipped_hash_digit_is_tampered(self):
        minted = generate_trace_id(SETUP, "A", ZERO32)
        flipped = "0" if minted.hash_part[-1] != "0" else "1"
        forged = minted.full[:-1] + flipped
        with pytest.raises(TamperedTraceID):
            parse_and_validate_trace_id(forged, SETUP)

    def test_stale_setup_rejected_after_checksum_passes(self):
        other = FusionSetup.fused([["A"], ["B"], ["C"]])
        minted = generate_trace_id(other, "A", ZERO32)
        with pytest.raises(SetupMismatch):
            parse_and_validate_trace_id(minted.full, SETUP)

    def test_ensure_propagates_validation_errors(self):
        other = FusionSetup.fused([["A"], ["B"], ["C"]])
        minted = generate_trace_id(other, "A", ZERO32)
        with pytest.raises(SetupMismatch):
            ensure_trace_id(minted, SETUP, "A")

    def test_checksum_checked_before_setup(self):
        # Both defects present: wrong setup and a broken checksum.
        other = FusionSetup.fused([["A"], ["B"], ["C"]])
        minted = generate_trace_id(other, "A", ZERO32)
        flipped = "0" if minted.full[-1] != "0" else "1"
        with pytest.raises(TamperedTraceID):
            parse_and_validate_trace_id(minted.full[:-1] + flipped, SETUP)

    @given(pos=st.integers(min_value=0, max_value=63), nibble=st.sampled_from("0123456789abcdef"))
    def test_any_random_part_edit_breaks_checksum(self, pos, nibble):
        minted = generate_trace_id(SETUP, "A", b"\x5a" * 32)
        original = minted.random_part
        if original[pos] == nibble:
            return
        edited = original[:pos] + nibble + original[pos + 1 :]
        forged = f"{minted.setup_part}-{minted.function_name}-{edited}-{minted.hash_part}"
        with pytest.raises(TamperedTraceID):
            parse_and_validate_trace_id(forged, SETUP)

    @given(st.binary(min_size=32, max_size=32))
    def test_minted_ids_always_validate(self, randomness):
        trace = ensure_trace_id(None, SETUP, "C", randomness)
        assert parse_and_validate_trace_id(trace.full, SETUP) == trace


class TestRouting:
    def test_same_group_is_local(self):
        assert route_call(SETUP, "A", "B") is RouteKind.LOCAL

    def test_cross_group_is_remote_with_callee_group(self):
        assert route_call(SETUP, "A", "C") is RouteKind.REMOTE

    def test_singleton_routing(self):
        split = FusionSetup.fused([["A"], ["B"], ["C"]])
        assert route_call(split, "B", "C") is RouteKind.REMOTE

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownFunction):
            route_call(SETUP, "A", "Z")
        with pytest.raises(UnknownFunction):
            route_call(SETUP, "Z", "A")

    def test_self_call_is_local(self):
        assert route_call(SETUP, "C", "C") is RouteKind.LOCAL

    def test_routing_is_pure(self):
        assert route_call(SETUP, "A", "C") == route_call(SETUP, "A", "C")


class TestHexValidator:
    GOOD = hashlib.sha256(b"leaf").hexdigest()
    BAD = [
        "a" * 64 + "\n",
        "A" * 64,
        "٠" * 64,
        "0" * 63,
        "0" * 65,
    ]

    def test_accepts_sha256_hexdigest(self):
        assert is_hex64(self.GOOD)

    @pytest.mark.parametrize("bad", BAD)
    def test_rejects(self, bad):
        assert not is_hex64(bad)

    def test_proofs_uses_the_same_validator(self):
        assert proofs.is_hex64 is is_hex64

    @pytest.mark.parametrize("bad", BAD)
    def test_split_trace_id_rejects_bad_random_part(self, bad):
        with pytest.raises(MalformedTraceID, match="bad random part"):
            split_trace_id(f"A.B,C-A-{bad}-{self.GOOD}")

    @pytest.mark.parametrize("bad", BAD)
    def test_split_trace_id_rejects_bad_hash_part(self, bad):
        with pytest.raises(MalformedTraceID, match="bad hash part"):
            split_trace_id(f"A.B,C-A-{self.GOOD}-{bad}")

    @pytest.mark.parametrize("bad", [*BAD, b"a" * 64, None])
    def test_merkle_tree_rejects_bad_leaf(self, bad):
        with pytest.raises(InvalidHexLeaf):
            proofs.build_merkle_tree([self.GOOD, bad])


@st.composite
def partitions(draw):
    """A FusionSetup's groups: distinct valid names cut into non-empty groups."""
    names = draw(st.lists(
        st.text(alphabet="ABCXYZ_019", min_size=1, max_size=3), min_size=1, max_size=9, unique=True
    ))
    groups, current = [], [names[0]]
    for name in names[1:]:
        if draw(st.booleans()):
            groups.append(tuple(current))
            current = []
        current.append(name)
    groups.append(tuple(current))
    return tuple(groups)


def _scan_group_index(groups, name):
    """The linear-scan lookup the cached name index must agree with."""
    for idx, group in enumerate(groups):
        if name in group:
            return idx
    return None


class TestSetupLookupsMatchLinearScan:
    @given(groups=partitions(), extra=st.text(alphabet="ABCXYZ_019", min_size=1, max_size=4))
    def test_lookups(self, groups, extra):
        setup = FusionSetup(groups, 3)
        names = [n for g in groups for n in g]
        assert setup.setup_part == ",".join(".".join(g) for g in groups)
        for name in [*names, extra]:
            expected = _scan_group_index(groups, name)
            assert setup.contains(name) is (expected is not None)
            if expected is None:
                with pytest.raises(UnknownFunction) as info:
                    setup.group_index(name)
                assert str(info.value) == (
                    f"function {name!r} not in setup {setup.setup_part!r}"
                )
                continue
            assert setup.group_index(name) == expected
            assert setup.group_of(name) == groups[expected]
            for other in names:
                assert setup.same_group(name, other) is (
                    expected == _scan_group_index(groups, other)
                )

    @given(groups=partitions())
    def test_filled_cache_keeps_equality_hash_and_repr(self, groups):
        used = FusionSetup(groups, 2)
        used.group_index(groups[0][0])
        used.contains("nope")
        assert used.setup_part
        fresh = FusionSetup(groups, 2)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used != used.with_version(3)
