"""Trace identifier and routing behaviour."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import example, given, settings
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
    all_hex64,
    compute_hash_part,
    entry_fusion_key,
    fusion_key_for_trace,
    generate_trace_id,
    parse_and_validate_trace_id,
    route_call,
    split_trace_id,
    validate_name,
)
from fusionproof.workload import builtin_iot_app, builtin_tree_app


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
        assert "B" in SETUP.functions()
        assert "Z" not in SETUP.functions()
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

    def test_fusion_key_for_trace_refuses_an_entry_outside_its_setup_part(self):
        assert fusion_key_for_trace(generate_trace_id(SETUP, "C", ZERO32)) == "C"
        # The checksum holds: only the entry's place is wrong.
        random_part = "00" * 32
        forged = f"A.B,C-D-{random_part}-{compute_hash_part('A.B,C', 'D', random_part)}"
        with pytest.raises(MalformedTraceID, match="outside its own setup part"):
            fusion_key_for_trace(forged)


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
        setup_part, _, random_part, hash_part = split_trace_id(trace)
        assert setup_part == "A.B,C"
        assert random_part == "00" * 32
        assert hash_part == FROZEN_HASH_PART

    def test_hash_part_matches_definition(self):
        trace = generate_trace_id(SETUP, "B", b"\xab" * 32)
        assert split_trace_id(trace)[3] == sha_hex(f"A.B,C-B-{'ab' * 32}")

    def test_full_has_four_fields(self):
        trace = generate_trace_id(SETUP, "A", ZERO32)
        assert trace == f"A.B,C-A-{'00' * 32}-{FROZEN_HASH_PART}"

    def test_distinct_randomness_changes_only_random_and_hash(self):
        one = split_trace_id(generate_trace_id(SETUP, "A", b"\x01" * 32))
        two = split_trace_id(generate_trace_id(SETUP, "A", b"\x02" * 32))
        assert one[0] == two[0]
        assert one[2] != two[2]
        assert one[3] != two[3]

    def test_unknown_function_rejected(self):
        with pytest.raises(UnknownFunction):
            generate_trace_id(SETUP, "Z", ZERO32)

    def test_wrong_randomness_length_rejected(self):
        with pytest.raises(MalformedTraceID):
            generate_trace_id(SETUP, "A", b"\x00" * 16)


class TestParseAndEnsure:
    def test_round_trip(self):
        trace = generate_trace_id(SETUP, "A", b"\x11" * 32)
        assert parse_and_validate_trace_id(trace, SETUP) is trace

    def test_ensure_mints_when_absent(self):
        trace = generate_trace_id(SETUP, "A", ZERO32)
        assert split_trace_id(trace)[3] == FROZEN_HASH_PART

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
            parse_and_validate_trace_id(minted.upper(), SETUP)

    def test_tampered_random_part(self):
        minted = generate_trace_id(SETUP, "A", ZERO32)
        forged = minted.replace("00" * 32, "11" * 32)
        with pytest.raises(TamperedTraceID):
            parse_and_validate_trace_id(forged, SETUP)

    def test_tampered_function_name(self):
        minted = generate_trace_id(SETUP, "A", ZERO32)
        _, _, random_part, hash_part = split_trace_id(minted)
        forged = f"A.B,C-B-{random_part}-{hash_part}"
        with pytest.raises(TamperedTraceID):
            parse_and_validate_trace_id(forged, SETUP)

    def test_flipped_hash_digit_is_tampered(self):
        minted = generate_trace_id(SETUP, "A", ZERO32)
        flipped = "0" if minted[-1] != "0" else "1"
        forged = minted[:-1] + flipped
        with pytest.raises(TamperedTraceID):
            parse_and_validate_trace_id(forged, SETUP)

    def test_stale_setup_rejected_after_checksum_passes(self):
        other = FusionSetup.fused([["A"], ["B"], ["C"]])
        minted = generate_trace_id(other, "A", ZERO32)
        with pytest.raises(SetupMismatch):
            parse_and_validate_trace_id(minted, SETUP)

    def test_checksum_checked_before_setup(self):
        # Both defects present: wrong setup and a broken checksum.
        other = FusionSetup.fused([["A"], ["B"], ["C"]])
        minted = generate_trace_id(other, "A", ZERO32)
        flipped = "0" if minted[-1] != "0" else "1"
        with pytest.raises(TamperedTraceID):
            parse_and_validate_trace_id(minted[:-1] + flipped, SETUP)

    @given(pos=st.integers(min_value=0, max_value=63), nibble=st.sampled_from("0123456789abcdef"))
    def test_any_random_part_edit_breaks_checksum(self, pos, nibble):
        setup_part, function_name, original, hash_part = split_trace_id(
            generate_trace_id(SETUP, "A", b"\x5a" * 32))
        if original[pos] == nibble:
            return
        edited = original[:pos] + nibble + original[pos + 1 :]
        forged = f"{setup_part}-{function_name}-{edited}-{hash_part}"
        with pytest.raises(TamperedTraceID):
            parse_and_validate_trace_id(forged, SETUP)

    @given(st.binary(min_size=32, max_size=32))
    def test_minted_ids_always_validate(self, randomness):
        trace = generate_trace_id(SETUP, "C", randomness)
        assert parse_and_validate_trace_id(trace, SETUP) is trace


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


def _fromhex_all_hex64(values):
    """all_hex64 as first written: the joined values must read back unchanged
    from bytes.fromhex, which skips whitespace and accepts uppercase."""
    try:
        joined = "".join(values)
        return {*map(len, values)} <= {64} and bytes.fromhex(joined).hex() == joined
    except (TypeError, ValueError):
        return False


# Hex digits of both cases, whitespace bytes.fromhex skips or not, and
# non-ASCII digits and letters.
_HEX_NEIGHBOURS = "0123456789abcdefABCDEF \t\n\x0b\x0c\r\x85\u0660\u00e9\uff10"


@st.composite
def _hex_candidates(draw):
    """Mostly 64-character strings near a hexdigest: a lowercase digest with up
    to three characters replaced from _HEX_NEIGHBOURS, strings over those
    characters, wrong lengths, and items that are not str."""
    kind = draw(st.sampled_from(["edited", "edited", "any", "length", "other"]))
    if kind == "other":
        return draw(st.one_of(st.binary(min_size=64, max_size=64), st.none(), st.integers(),
                              st.just(["a"] * 64)))
    if kind == "any":
        return draw(st.text(alphabet=_HEX_NEIGHBOURS + "gz-", min_size=60, max_size=68))
    digest = draw(st.text(alphabet="0123456789abcdef", min_size=64, max_size=64))
    if kind == "length":
        return digest[:draw(st.integers(0, 63))] + draw(st.text(alphabet="0f", max_size=2))
    chars = list(digest)
    for pos in draw(st.lists(st.integers(0, 63), max_size=3)):
        chars[pos] = draw(st.sampled_from(_HEX_NEIGHBOURS))
    return "".join(chars)


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
        assert all_hex64((self.GOOD,))

    @pytest.mark.parametrize("bad", BAD)
    def test_rejects(self, bad):
        assert not all_hex64((bad,))

    def test_proofs_uses_the_same_validator(self):
        assert proofs.all_hex64 is all_hex64

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

    @settings(deadline=None)
    @given(st.lists(_hex_candidates(), max_size=4))
    @example([])
    @example(["a" * 62 + " a"])
    def test_agrees_with_the_fromhex_definition(self, values):
        assert all_hex64(values) is _fromhex_all_hex64(values)


_NAMES = st.lists(st.text(alphabet="ABCXYZ_019", min_size=1, max_size=3), min_size=1, max_size=9,
                  unique=True)


@st.composite
def partitions(draw, names=_NAMES):
    """A FusionSetup's groups: distinct names, in the drawn order, cut into non-empty groups."""
    names = draw(names)
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
            assert (name in setup.functions()) is (expected is not None)
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
                assert (route_call(setup, name, other) is RouteKind.LOCAL) is (
                    expected == _scan_group_index(groups, other)
                )

    @given(groups=partitions())
    def test_filled_cache_keeps_equality_hash_and_repr(self, groups):
        used = FusionSetup(groups, 2)
        used.group_index(groups[0][0])
        with pytest.raises(UnknownFunction):
            used.group_index("nope")
        assert used.setup_part
        fresh = FusionSetup(groups, 2)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used != dataclasses.replace(used, version=3)


# The task names of iot or tree(2-4, 1-2), in a drawn order.
_APP_TASKS = st.one_of(
    st.just(builtin_iot_app()), st.builds(builtin_tree_app, st.integers(2, 4), st.integers(1, 2))
).flatmap(lambda app: st.permutations(app.task_names()))


class TestTraceKeyIsTheEntryKey:
    """run_optimization keeps the entry group's records by fusion_key_for_trace,
    so a minted trace's key must be the key entry_fusion_key gives its group."""

    @settings(deadline=None)
    @given(groups=partitions(_APP_TASKS), randomness=st.binary(min_size=32, max_size=32))
    def test_both_derivations_agree_for_every_entry(self, groups, randomness):
        setup = FusionSetup(groups)
        for entry in setup.functions():
            trace = generate_trace_id(setup, entry, randomness)
            assert parse_and_validate_trace_id(trace, setup) is trace
            assert fusion_key_for_trace(trace) == entry_fusion_key(setup, entry)
