"""Evidence store backends and group-file loading."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pathlib
import sys
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionproof import proofs as proofs_module
from fusionproof import verification as verification_module
from fusionproof.errors import CorruptGroupFile, NotFound, StoreWriteFailed
from fusionproof.handler import FusionSetup, RouteKind, generate_trace_id
from fusionproof.proofs import (
    StoredGroup,
    TreeInfo,
    build_merkle_tree,
    canonical_record_bytes,
    group_file_bytes,
    join_group_file,
    load_group_file,
    load_setups,
    parse_group_file,
    persist_evidence,
    record_leaf_hashes,
    record_to_wire,
    stored_trace_id,
)
from fusionproof.store import FileStore, MemoryStore
from fusionproof.verification import FailureReason, commit, verify_integrity
from fusionproof.workload import InvocationRecord, builtin_iot_app, execute_request

IOT = builtin_iot_app()
FUSED = FusionSetup.fused([["CW", "SE", "CS", "CT", "CA"]])


def iot_records(randomness: bytes, origin=0):
    trace = generate_trace_id(FUSED, "CW", randomness)
    return execute_request(IOT, FUSED, trace, None, 3, origin)


def make_stores(tmp_path):
    return [MemoryStore(), FileStore(tmp_path / "evidence")]


# The keys test_invalid_keys_rejected lists, and one holding a NUL; for a
# FileStore under tmp_path, "../x.json" names tmp_path / "x.json".
_BAD_KEYS = ["", "a.txt", "noext", "/abs.json", "a//b.json", "../x.json", "a/../b.json", "a\0b.json"]


class TestStoreContract:
    def test_round_trip(self, tmp_path):
        for store in make_stores(tmp_path):
            store.put("a.json", b"payload")
            assert store.get("a.json") == b"payload"

    def test_overwrite(self, tmp_path):
        for store in make_stores(tmp_path):
            store.put("a.json", b"old")
            store.put("a.json", b"new")
            assert store.get("a.json") == b"new"

    def test_get_missing_raises(self, tmp_path):
        for store in make_stores(tmp_path):
            with pytest.raises(NotFound):
                store.get("missing.json")

    def test_delete_then_get_raises(self, tmp_path):
        for store in make_stores(tmp_path):
            store.put("a.json", b"x")
            store.delete("a.json")
            with pytest.raises(NotFound):
                store.get("a.json")

    def test_delete_absent_is_noop(self, tmp_path):
        for store in make_stores(tmp_path):
            store.delete("never-existed.json")

    def test_list_sorted_with_prefix(self, tmp_path):
        for store in make_stores(tmp_path):
            store.put("g/b.json", b"1")
            store.put("g/a.json", b"2")
            store.put("other.json", b"3")
            assert store.list() == ["g/a.json", "g/b.json", "other.json"]
            assert store.list("g/") == ["g/a.json", "g/b.json"]
            assert store.list("nope") == []

    def test_nested_keys(self, tmp_path):
        for store in make_stores(tmp_path):
            store.put("CW.SE/trace.json", b"rec")
            assert store.get("CW.SE/trace.json") == b"rec"

    @pytest.mark.parametrize("bad", ["", "a.txt", "noext", "/abs.json", "a//b.json", "../x.json", "a/../b.json"])
    def test_invalid_keys_rejected(self, bad, tmp_path):
        for store in make_stores(tmp_path):
            with pytest.raises(StoreWriteFailed):
                store.put(bad, b"x")

    @pytest.mark.parametrize("bad", _BAD_KEYS)
    def test_get_and_delete_refuse_what_put_refuses(self, bad, tmp_path):
        outside = tmp_path / "x.json"
        outside.write_bytes(b"outside")
        for store in make_stores(tmp_path):
            with pytest.raises(StoreWriteFailed):
                store.put(bad, b"x")
            with pytest.raises(NotFound):
                store.get(bad)
            with pytest.raises(StoreWriteFailed):
                store.delete(bad)
        assert outside.read_bytes() == b"outside"

    def test_absolute_key_does_not_reach_outside_the_root(self, tmp_path):
        outside = tmp_path / "x.json"
        outside.write_bytes(b"outside")
        store = FileStore(tmp_path / "evidence")
        with pytest.raises(NotFound):
            store.get(str(outside))
        with pytest.raises(StoreWriteFailed):
            store.delete(str(outside))
        assert outside.read_bytes() == b"outside"

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.sampled_from(["a.json", "b.json", "d/c.json"]),
                st.binary(min_size=0, max_size=8),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_backends_agree(self, ops, tmp_path_factory):
        memory = MemoryStore()
        disk = FileStore(tmp_path_factory.mktemp("differential"))
        for action, key, payload in ops:
            if action == "put":
                memory.put(key, payload)
                disk.put(key, payload)
            else:
                memory.delete(key)
                disk.delete(key)
        assert memory.list() == disk.list()
        for key in memory.list():
            assert memory.get(key) == disk.get(key)


class TestFileStoreLayout:
    def test_files_land_under_root(self, tmp_path):
        store = FileStore(tmp_path / "ev")
        store.put("CW/abc.json", b"x")
        assert (tmp_path / "ev" / "CW" / "abc.json").read_bytes() == b"x"

    def test_reopen_sees_existing_data(self, tmp_path):
        FileStore(tmp_path / "ev").put("a.json", b"kept")
        assert FileStore(tmp_path / "ev").get("a.json") == b"kept"

    def test_nothing_is_created_before_a_put(self, tmp_path):
        store = FileStore(tmp_path / "ev" / "root")
        assert store.list() == [] and list(tmp_path.iterdir()) == []
        store.delete("a.json")
        assert list(tmp_path.iterdir()) == []
        store.put("a.json", b"x")
        assert (tmp_path / "ev" / "root" / "a.json").read_bytes() == b"x"

    def test_root_that_is_a_file_cannot_be_listed(self, tmp_path):
        (tmp_path / "ev").write_bytes(b"")
        with pytest.raises(StoreWriteFailed, match="Not a directory"):
            FileStore(tmp_path / "ev").list()

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda store: store.put("a.json", b"x"), "cannot write 'a.json'"),
            (lambda store: store.delete("a.json"), "cannot delete 'a.json'"),
        ],
        ids=["put", "delete"],
    )
    def test_root_that_is_a_file_refuses_put_and_delete(self, tmp_path, write, message):
        (tmp_path / "ev").write_bytes(b"kept")
        with pytest.raises(StoreWriteFailed, match=message):
            write(FileStore(tmp_path / "ev"))
        assert (tmp_path / "ev").read_bytes() == b"kept"

    def test_write_that_fails_halfway_leaves_the_old_file_whole(self, tmp_path, monkeypatch):
        """The disk fills halfway through a rewrite: the put fails, the old
        file keeps its bytes, the listing is unchanged, and no other file
        is left beside it."""
        root = tmp_path / "ev"
        store = FileStore(root)
        old = bytes(range(250)) * 4
        store.put("g/a.json", old)
        store.put("b.json", b"other")
        listed = store.list()

        def half_then_full(path, data):
            with open(path, "wb") as f:
                f.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with monkeypatch.context() as patch:
            patch.setattr(pathlib.Path, "write_bytes", half_then_full)
            with pytest.raises(StoreWriteFailed, match="cannot write 'g/a.json'.*No space left"):
                store.put("g/a.json", bytes(1000))
        assert (root / "g" / "a.json").read_bytes() == old
        assert store.list() == listed
        assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()) == [
            "b.json", "g/a.json"]

    def test_threads_sharing_a_store_each_write_whole_files(self, tmp_path):
        """Four threads rewrite one shared key and one key of their own:
        every file read back is one thread's whole payload, and only the
        keys' files are left, with the permissions write_bytes gives."""
        store = FileStore(tmp_path / "ev")
        payloads = [bytes([65 + n]) * 200_000 for n in range(4)]
        seen = []

        def writer(n):
            for _ in range(10):
                store.put("shared.json", payloads[n])
                store.put(f"own/{n}.json", payloads[n])
                seen.append(store.get("shared.json"))

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.list() == ["own/0.json", "own/1.json", "own/2.json", "own/3.json", "shared.json"]
        assert [store.get(f"own/{n}.json") for n in range(4)] == payloads
        assert len(seen) == 40 and all(data in payloads for data in seen)
        assert store.get("shared.json") in payloads
        (tmp_path / "plain").write_bytes(b"x")
        mode = (tmp_path / "plain").stat().st_mode
        files = [p for p in (tmp_path / "ev").rglob("*") if p.is_file()]
        assert len(files) == 5 and all(p.stat().st_mode == mode for p in files)


class TestParseGroupFile:
    def test_round_trip(self):
        records = iot_records(b"\x21" * 32)
        store = MemoryStore()
        tree = persist_evidence(store, "CW.SE.CS.CT.CA", records)
        blocks = parse_group_file(store.get("CW.SE.CS.CT.CA.json"))
        assert blocks[:-1] == list(records)
        assert blocks[-1] == tree

    def test_empty_group(self):
        assert parse_group_file(b'[{"root":"","leaf":[]}]') == [TreeInfo.empty()]

    def test_proof_without_interior_nodes_parses(self):
        assert parse_group_file(b'[{"root":"","leaf":[]}]') == [TreeInfo.empty()]
        leaf = "0" * 64
        data = b'[{"root":"r","leaf":["%s"]}]' % leaf.encode()
        assert parse_group_file(data) == [TreeInfo("r", (leaf,))]

    @pytest.mark.parametrize(
        "payload",
        [
            b"", b"not json", b"{}", b"[]", b'[{"task":"CW"}]', b'[1,2,3]',
            b'[{"traceid":"t"},{"root":"","leaf":[]}]',
        ],
    )
    def test_corrupt_payloads(self, payload):
        with pytest.raises(CorruptGroupFile):
            parse_group_file(payload)

    def test_number_the_decoder_refuses_is_corrupt(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int conversion has no digit limit")
        data = group_file_bytes(iot_records(b"\x27" * 32), TreeInfo.empty())
        data = data.replace(b'"idx":0', b'"idx":' + b"1" * (limit + 1), 1)
        with pytest.raises(CorruptGroupFile, match="^group file's record 0 is not valid JSON: Exceeds"):
            parse_group_file(data)

    def test_non_string_task_is_corrupt(self):
        data = group_file_bytes(iot_records(b"\x28" * 32), TreeInfo.empty())
        data = data.replace(b'"task":"CW"', b'"task":1', 1)
        with pytest.raises(CorruptGroupFile, match="task must be a string, got 1"):
            parse_group_file(data)

    @pytest.mark.parametrize(
        "data, what",
        [
            (b'[{"traceid":' + b"[" * 100_000 + b'},{"root":"","leaf":[]}]', "record 0"),
            (b'[{"root":' + b"[" * 100_000 + b"}]", "proof"),
        ],
        ids=["record", "proof"],
    )
    def test_nesting_too_deep_for_the_decoder_is_corrupt(self, data, what):
        with pytest.raises(CorruptGroupFile, match=f"^group file's {what} is not valid JSON: maximum recursion"):
            parse_group_file(data)
        with pytest.raises(CorruptGroupFile, match="^group file is not in the layout"):
            parse_group_file(b"[" * 100_000)


class TestLoadSetups:
    def test_round_trip(self):
        store = MemoryStore()
        records = iot_records(b"\x22" * 32)
        persist_evidence(store, "CW.SE.CS.CT.CA", records)
        setups = load_setups(store)
        assert list(setups) == ["CW.SE.CS.CT.CA"]
        encoded = tuple(map(canonical_record_bytes, records))
        assert setups["CW.SE.CS.CT.CA"] == StoredGroup(
            encoded, build_merkle_tree(record_leaf_hashes(encoded))
        )

    def test_block_files_are_reported_corrupt(self):
        store = MemoryStore()
        records = iot_records(b"\x23" * 32)
        persist_evidence(store, "CW.SE.CS.CT.CA", records)
        # A per-trace block as older versions wrote one beside the group file.
        store.put(f"CW.SE.CS.CT.CA/{records[0].trace_id}.json", canonical_record_bytes(records[-1]))
        setups = load_setups(store)
        assert isinstance(setups.pop("CW.SE.CS.CT.CA"), StoredGroup)
        assert setups == {
            f"CW.SE.CS.CT.CA/{records[0].trace_id}": "group file is not in the layout the pipeline writes"
        }

    def test_corrupt_group_isolated(self):
        store = MemoryStore()
        persist_evidence(store, "CW.SE.CS.CT.CA", iot_records(b"\x24" * 32))
        store.put("BROKEN.json", b"not json")
        setups = load_setups(store)
        assert isinstance(setups["CW.SE.CS.CT.CA"], StoredGroup)
        assert isinstance(setups["BROKEN"], str)

    def test_multiple_groups(self, tmp_path):
        store = FileStore(tmp_path / "ev")
        split = FusionSetup.singletons(["CW", "SE", "CS", "CT", "CA"])
        trace = generate_trace_id(split, "CW", b"\x25" * 32)
        split_records = execute_request(IOT, split, trace, None, 3, 0)
        persist_evidence(store, "CW.SE.CS.CT.CA", iot_records(b"\x26" * 32))
        persist_evidence(store, "CW", split_records)
        setups = load_setups(store)
        assert sorted(setups) == ["CW", "CW.SE.CS.CT.CA"]
        assert all(isinstance(group, StoredGroup) for group in setups.values())

    def test_empty_store(self):
        assert load_setups(MemoryStore()) == {}

    def test_unreadable_group_file_isolated(self, tmp_path):
        store = FileStore(tmp_path / "ev")
        persist_evidence(store, "CW.SE.CS.CT.CA", iot_records(b"\x28" * 32))
        (tmp_path / "ev" / "ZZ.json").symlink_to(tmp_path / "missing.json")
        setups = load_setups(store)
        assert isinstance(setups.pop("CW.SE.CS.CT.CA"), StoredGroup)
        assert setups == {"ZZ": "no object at 'ZZ.json'"}


def _scan(data: bytes):
    try:
        return load_group_file(data)
    except CorruptGroupFile as exc:
        return str(exc)


def _verified(data: bytes):
    """What load_setups then verify_integrity make of a store holding one
    group file: the corrupt reasons, the report's verdicts, and
    the file's bytes afterwards."""
    store = MemoryStore()
    store.put("CW.json", data)
    report = commit(verify_integrity(load_setups(store)), store)
    outcomes = report.outcomes.items()
    return (
        {key: o.detail for key, o in outcomes if o.reason is FailureReason.CORRUPT},
        report.group_results,
        report.pruned,
        {key: o.survivors for key, o in outcomes if o.reason is FailureReason.PRUNED},
        {key: o.detail for key, o in outcomes if o.reason is FailureReason.STORE_ERROR},
        store.get("CW.json"),
    )


def _pipeline_group_file(*seeds: bytes) -> bytes:
    store = MemoryStore()
    persist_evidence(store, "CW.SE.CS.CT.CA", [r for seed in seeds for r in iot_records(seed * 32)])
    return store.get("CW.SE.CS.CT.CA.json")


# One five-hop trace each, and three traces in one file.
_GROUP_FILES = [_pipeline_group_file(b"\x31"), _pipeline_group_file(b"\x32")]
_FIRST = _GROUP_FILES[0]
_THREE_TRACES = _pipeline_group_file(b"\x34", b"\x35", b"\x36")
_JSON_BYTES = [bytes([c]) for c in b'"{}[],:\\0123456789 ']
_EDIT = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(min_value=0),
    st.one_of(st.sampled_from(_JSON_BYTES), st.binary(min_size=1, max_size=3)),
)


def _mutate(data: bytes, edits) -> bytes:
    for op, at, chunk in edits:
        at %= len(data) + 1
        if op == "insert":
            data = data[:at] + chunk + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + len(chunk):]
        else:
            data = data[:at] + chunk + data[at + len(chunk):]
    return data


def _json(value) -> str:
    """value in one canonical text, so that NaN compares equal to itself."""
    return json.dumps(value, separators=(",", ":"))


# Edits to the first record of a pipeline file, as (old, new) bytes.
_FIRST_RECORD_EDITS = {
    "leading_zero": (b'"idx":0', b'"idx":01'),
    "double_zero": (b'"idx":0', b'"idx":00'),
    "arabic_digit": (b'"idx":0', '"idx":٣'.encode()),
    "arabic_digit_after_1": (b'"idx":0', '"idx":1٣'.encode()),
    "fraction": (b'"idx":0', b'"idx":1.0'),
    "exponent": (b'"idx":0', b'"idx":1e3'),
    "minus_zero": (b'"idx":0', b'"idx":-0'),
    "640_digits": (b'"idx":0', b'"idx":' + b"1" * 640),
    "641_digits": (b'"idx":0', b'"idx":' + b"1" * 641),
    "raw_control": (b'"task":"CW"', b'"task":"C\x1fW"'),
    "raw_control_after_escape": (b'"task":"CW"', b'"task":"C\\n\x1fW"'),
    "raw_del": (b'"task":"CW"', b'"task":"C\x7fW"'),
    "raw_non_ascii": (b'"task":"CW"', '"task":"CWé"'.encode()),
    "escaped_non_ascii": (b'"task":"CW"', b'"task":"CW\\u00e9"'),
    "ends_in_backslash": (b'"task":"CW"', b'"task":"CW\\\\"'),
    "escaped_quote": (b'"task":"CW"', b'"task":"CW\\"'),
    "bad_escape": (b'"task":"CW"', b'"task":"CW\\x"'),
    "bad_unicode_escape": (b'"task":"CW"', b'"task":"CW\\u00g9"'),
    "reordered_keys": (b'"task":"CW","idx":0', b'"idx":0,"task":"CW"'),
    "space_after_colon": (b'"task":"CW"', b'"task": "CW"'),
    "space_before_comma": (b'"task":"CW"', b'"task":"CW" '),
}


def _cut_inside_records(data: bytes) -> bytes:
    """data with a record boundary nested in its first record and none
    before its second, whose traceid is no longer its first key: the split
    still cuts one piece per leaf, but the first two pieces are not records."""
    first, second = load_group_file(data).records[:2]
    nested = first[:-1] + b',"x":[{},{"traceid":0}]}'
    return data.replace(first, nested, 1).replace(second, b'{"task":"x",' + second[1:], 1)


class CountingStore(MemoryStore):
    """A MemoryStore that counts the gets of each key."""

    def __init__(self) -> None:
        super().__init__()
        self.gets: dict[str, int] = {}

    def get(self, key: str) -> bytes:
        self.gets[key] = self.gets.get(key, 0) + 1
        return super().get(key)


def _escape_first_leaf_digits(proof: bytes) -> bytes:
    """The proof with its first leaf's first two digits written as \\u escapes."""
    at = proof.index(b'"leaf":["') + len(b'"leaf":["')
    return proof[:at] + b"".join(b"\\u%04x" % c for c in proof[at : at + 2]) + proof[at + 2 :]


class TestOneReader:
    """load_group_file splits a group file at the boundaries the writer
    writes; every other layout is corrupt, and so is every piece the leaf
    list does not vouch for that is not, whole, a JSON object."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([*_GROUP_FILES, _THREE_TRACES]), st.lists(_EDIT, min_size=1, max_size=4))
    def test_mutated_file_is_read_as_json_reads_it_or_is_corrupt(self, data, edits):
        mutated = _mutate(data, edits)
        corrupt, results, pruned, survivors, notes, after = _verified(mutated)
        assert notes == {}
        if corrupt:
            assert (results, pruned, survivors, after) == ({"CW": False}, {}, {}, mutated)
            return
        group = load_group_file(mutated)
        # The random edits cannot rebuild a leaf list over their bytes, so
        # every piece it vouches for is a record as the pipeline wrote it.
        proof = mutated[mutated.rindex(b',{"root":') + 1 : -1] if group.records else mutated[1:-1]
        assert _json(json.loads(mutated)) == _json([*map(json.loads, group.records), json.loads(proof)])
        if results == {"CW": True}:
            assert (pruned, survivors, after) == ({}, {}, mutated)
            return
        kept = survivors.get("CW", ())
        removed = [piece for piece in group.records if piece not in kept]
        assert {_json(json.loads(piece)["traceid"]) for piece in removed} == set(map(_json, pruned.get("CW", ())))
        assert not {_json(json.loads(piece)["traceid"]) for piece in kept} & set(map(_json, pruned.get("CW", ())))
        second = _verified(after)
        assert second[0] == {} and second[2] == {}
        assert second[1] == {"CW": bool(kept)}

    @pytest.mark.parametrize("older", [False, True], ids=["current", "older_with_tree"])
    @pytest.mark.parametrize("n", range(12))
    def test_round_trip(self, n, older):
        records = [r for seed in (b"\x37", b"\x38", b"\x39") for r in iot_records(seed * 32)][:n]
        encoded = tuple(map(canonical_record_bytes, records))
        tree = build_merkle_tree(record_leaf_hashes(encoded))
        data = join_group_file(encoded, tree)
        if older:  # the layout that also listed the interior nodes: corrupt, left as stored
            data = data.replace(b',"leaf":[', b',"tree":["%s"],"leaf":[' % tree.root.encode(), 1)
            assert _scan(data) == "group file's proof is not in the layout the pipeline writes"
            assert _verified(data)[1:] == ({"CW": False}, {}, {}, {}, data)
            return
        assert load_group_file(data) == StoredGroup(encoded, tree)
        assert json.loads(data)[:-1] == [record_to_wire(r) for r in records]
        assert _verified(data) == ({}, {"CW": bool(n)}, {}, {}, {}, data)

    @pytest.mark.parametrize(
        "old, new", list(_FIRST_RECORD_EDITS.values()), ids=list(_FIRST_RECORD_EDITS)
    )
    def test_edited_record_is_pruned_with_its_trace_or_corrupt(self, old, new):
        """An edited record that json.loads reads is pruned with the rest of
        its trace; one it refuses makes the file corrupt, left as stored."""
        group = load_group_file(_THREE_TRACES)
        assert old in group.records[0]
        edited = group.records[0].replace(old, new, 1)
        data = _THREE_TRACES.replace(group.records[0], edited, 1)
        try:
            trace_id = json.loads(edited)["traceid"]
        except ValueError as exc:
            reasons, *rest = _verified(data)
            assert reasons == {"CW": f"group file's record 0 is not valid JSON: {exc}"}
            assert rest == [{"CW": False}, {}, {}, {}, data]
            return
        assert _verified(data)[:4] == ({}, {"CW": False}, {"CW": (trace_id,)}, {"CW": group.records[5:]})

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data.replace(b'},{"traceid":', b'}, {"traceid":'),
            lambda data: data.replace(b'},{"traceid":', b'},\n{"traceid":', 1),
            lambda data: data.replace(b'},{"root":', b'}, {"root":'),
            lambda data: data.replace(b'},{"root":', b'} ,{"root":'),
            lambda data: b" " + data,
            lambda data: data + b"\n",
            lambda data: data.replace(b'[{"traceid":', b'[ {"traceid":'),
        ],
        ids=["every_record", "one_record", "before_proof", "after_last_record", "leading",
             "trailing_newline", "after_bracket"],
    )
    def test_whitespace_between_elements_is_corrupt(self, edit):
        data = edit(_THREE_TRACES)
        assert data != _THREE_TRACES and json.loads(data) == json.loads(_THREE_TRACES)
        reasons, results, pruned, survivors, notes, after = _verified(data)
        assert list(reasons) == ["CW"]
        assert (results, pruned, survivors, notes, after) == ({"CW": False}, {}, {}, {}, data)

    @pytest.mark.parametrize("position", [0, 1, 14])
    def test_record_whose_first_key_is_not_traceid_is_corrupt(self, position):
        """At position 0 the file does not open as the writer opens it; at
        any other the record joins the piece before it, which is then not
        one JSON object."""
        record = load_group_file(_THREE_TRACES).records[position]
        obj = json.loads(record)
        reordered = json.dumps({"task": obj["task"], **obj}, separators=(",", ":")).encode()
        data = _THREE_TRACES.replace(record, reordered, 1)
        assert json.loads(data)[position] == obj
        reasons, *rest = _verified(data)
        assert rest == [{"CW": False}, {}, {}, {}, data]
        expected = (
            "group file is not in the layout the pipeline writes" if position == 0
            else f"group file's record {position - 1} is not valid JSON: Extra data"
        )
        assert reasons["CW"].startswith(expected)

    def test_boundary_nested_inside_a_record_is_corrupt(self):
        """A record that holds a record boundary in valid JSON, and one whose
        traceid is not its first key: the split cuts one piece too many and
        one too few, and the cut pieces are not records."""
        data = _cut_inside_records(_FIRST)
        assert len(load_group_file(data).records) == len(load_group_file(_FIRST).records)
        assert len(json.loads(data)) == len(json.loads(_FIRST))
        reasons, *rest = _verified(data)
        assert rest == [{"CW": False}, {}, {}, {}, data]
        assert reasons["CW"].startswith("group file's record 0 is not valid JSON: ")

    @pytest.mark.parametrize(
        "last, reason",
        [
            (b" ", "group file is not in the layout the pipeline writes"),
            (b"}", "group file is not in the layout the pipeline writes"),
            (b"", "group file is not in the layout the pipeline writes"),
            (b"]]", "group file's proof is not valid JSON: Extra data"),
        ],
        ids=["space", "brace", "missing", "doubled"],
    )
    def test_file_not_closed_as_the_writer_closes_it_is_corrupt(self, last, reason):
        data = _FIRST[:-1] + last
        assert _scan(data).startswith(reason)
        assert _verified(data)[1:] == ({"CW": False}, {}, {}, {}, data)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_EDIT, min_size=1, max_size=3))
    def test_mutated_proof_is_read_only_when_json_dumps_writes_it(self, edits):
        """A proof element the reader accepts holds exactly the bytes that
        json.dumps writes for the value JSON reads from it, and that value
        is the tree read: the layout is the compact JSON of the tree."""
        cut = _FIRST.rindex(b',{"root":') + 1
        data = _FIRST[:cut] + _mutate(_FIRST[cut:-1], edits) + b"]"
        group = _scan(data)
        if isinstance(group, str):
            return
        piece = data[data.rfind(b',{"root":') + 1 : -1] if group.records else data[1:-1]
        obj = json.loads(piece)
        assert json.dumps(obj, separators=(",", ":")).encode() == piece
        assert list(obj) == ["root", "leaf"]
        assert group.proof == TreeInfo(obj["root"], tuple(obj["leaf"]))

    @pytest.mark.parametrize(
        "edit, same_json",
        [
            (lambda proof: proof.replace(b'"leaf":[', b'"leaf": [', 1), True),
            (lambda proof: proof.replace(b'{"root":', b'{"root": ', 1), True),
            (lambda proof: proof.replace(b'","', b'", "', 1), True),
            (lambda proof: proof.replace(b'"]}', b'" ]}', 1), True),
            (_escape_first_leaf_digits, True),
            (lambda proof: proof.replace(b'"leaf":["', b'"leaf":["\x7f', 1), False),
            (lambda proof: proof.replace(b'"leaf":[', b'"leaf":[5,', 1), False),
            (lambda proof: proof.replace(b'"leaf":[', b'"x":0,"leaf":[', 1), False),
            (lambda proof: proof.replace(b'"leaf":[', b'"tree":[0],"leaf":[', 1), False),
            (lambda proof: proof.replace(b'"leaf":[', b'"tree": [],"leaf":[', 1), False),
            (lambda proof: proof.replace(b'"leaf":[', b'"tree":["a]"],"leaf":[', 1), False),
            (lambda proof: proof.replace(b'"leaf":[', b'"tree":["%s"],"leaf":[' % proof[10:74], 1), False),
            (lambda proof: proof.replace(b'"leaf":[', b'"tree":[],"leaf":[', 1), False),
        ],
        ids=["space_after_leaf_key", "space_after_root_key", "space_between_leaves",
             "space_before_close", "escaped_leaf_digits", "raw_del_in_leaf", "int_leaf",
             "extra_key", "tree_of_numbers", "spaced_tree", "bracket_in_a_node",
             "older_layout_root_as_its_node", "older_layout_without_nodes"],
    )
    def test_proof_out_of_the_writers_layout_is_corrupt(self, edit, same_json):
        """The proof is read by the layout the writer writes, so a proof in
        any other is corrupt and the file is left as stored, also when a
        JSON decoder reads the same value from it."""
        cut = _THREE_TRACES.rindex(b',{"root":')
        data = _THREE_TRACES[:cut] + edit(_THREE_TRACES[cut:])
        assert data != _THREE_TRACES
        assert (json.loads(data) == json.loads(_THREE_TRACES)) is same_json
        reasons, *rest = _verified(data)
        assert rest == [{"CW": False}, {}, {}, {}, data]
        assert list(reasons) == ["CW"]
        assert reasons["CW"] in (
            "group file is not in the layout the pipeline writes",
            "group file's proof is not in the layout the pipeline writes",
        )

    def test_file_without_a_proof_boundary_is_corrupt(self):
        """One element that is both a record and the proof."""
        empty_hash = hashlib.sha256(b"").hexdigest()
        data = b'[{"traceid":"t","root":"r","leaf":["%s"]}]' % empty_hash.encode()
        assert _scan(data) == "group file is not in the layout the pipeline writes"

    def test_proof_without_a_root_decodes_every_piece(self):
        """Nothing of a group whose proof has an empty root is pruned, but
        every piece is decoded, so a malformed one makes it corrupt."""
        root = load_group_file(_FIRST).proof.root
        data = _FIRST.replace(b'"root":"%s"' % root.encode(), b'"root":""', 1)
        assert data != _FIRST
        assert _verified(data) == ({}, {"CW": False}, {}, {}, {}, data)
        malformed = data.replace(b'"idx":0', b'"idx":01', 1)
        message = "group file's record 0 is not valid JSON: Expecting ',' delimiter: line 1 column 181 (char 180)"
        assert _verified(malformed) == ({"CW": message}, {"CW": False}, {}, {}, {}, malformed)

    def test_non_ascii_record_is_split(self):
        data = _FIRST.replace(b'"task":"CW"', '"task":"CWé"'.encode(), 1)
        group = load_group_file(data)
        assert len(group.records) == 5
        assert '"task":"CWé"'.encode() in group.records[0]

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b'"billed":', b'"billed":x', "record 0 is not valid JSON: Expecting value: line 1 column 214 (char 213)"),
            (b'"mem":', b'"mem" ', "record 0 is not valid JSON: Expecting ':' delimiter: line 1 column 223 (char 222)"),
            # A piece after the last record, which no leaf covers.
            (
                b'},{"root":',
                b'},{"traceid":"t",},{"root":',
                "record 5 is not valid JSON: "
                "Expecting property name enclosed in double quotes: line 1 column 16 (char 15)",
            ),
        ],
    )
    def test_tampered_piece_that_does_not_decode_is_corrupt(self, old, new, message):
        """The report names the piece's position and the JSON error, and
        nothing is rewritten."""
        data = _FIRST.replace(old, new, 3)
        reason = f"group file's {message}"
        assert _verified(data) == ({"CW": reason}, {"CW": False}, {}, {}, {}, data)

    def test_leaf_forged_without_the_root_is_corrupt(self):
        """One leaf replaced by the hash of a malformed piece, the root left
        as it was: the leaf list is not vouched for, every piece is to be
        pruned and so decoded, and the malformed one makes the file corrupt
        before anything is rewritten."""
        group = load_group_file(_FIRST)
        edited = group.records[0].replace(b'"idx":0', b'"idx":01')
        old_leaf, new_leaf = group.proof.leaves[0], record_leaf_hashes([edited])[0]
        data = _FIRST.replace(group.records[0], edited, 1)
        data = data.replace(old_leaf.encode(), new_leaf.encode(), 1)
        message = "group file's record 0 is not valid JSON: Expecting ',' delimiter: line 1 column 181 (char 180)"
        assert _verified(data) == ({"CW": message}, {"CW": False}, {}, {}, {}, data)

    def test_leaf_list_forged_over_a_malformed_piece(self):
        """A piece whose hash is a leaf of a list that rebuilds the root is
        never decoded, so a leaf list and root rebuilt together over
        malformed bytes pass; only an anchor kept outside the store closes
        this.  parse_group_file decodes every piece and refuses the file."""
        pieces = list(load_group_file(_FIRST).records)
        pieces[0] = pieces[0].replace(b'"idx":0', b'"idx":01')
        forged_tree = build_merkle_tree(record_leaf_hashes(pieces))
        proof = json.dumps({"root": forged_tree.root, "leaf": forged_tree.leaves}, separators=(",", ":"))
        data = b"[" + b",".join([*pieces, proof.encode()]) + b"]"
        assert load_group_file(data) == StoredGroup(tuple(pieces), forged_tree)
        assert _verified(data) == ({}, {"CW": True}, {}, {}, {}, data)
        message = "group file's record 0 is not valid JSON: Expecting ',' delimiter: line 1 column 181 (char 180)"
        with pytest.raises(CorruptGroupFile) as raised:
            parse_group_file(data)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "edit, pruned, corrupt",
        [
            (lambda data: data, 0, False),
            (lambda data: data.replace(b'"route":"', b'"route":"X', 1), 1, False),
            (_cut_inside_records, 0, True),
            (lambda data: data.replace(b'"billed":', b'"billed":x', 3), 0, True),
        ],
        ids=["untampered", "pruned", "corrupt_nested_boundary", "corrupt_piece"],
    )
    def test_each_group_file_is_read_once(self, edit, pruned, corrupt):
        """Loading and verifying gets each listed group file from the
        store once, also when a piece is not a record."""
        store = CountingStore()
        store.put("CW.json", edit(_FIRST))
        store.put("CS.json", _GROUP_FILES[1])
        setups = load_setups(store)
        report = commit(verify_integrity(setups), store)
        assert store.gets == {"CS.json": 1, "CW.json": 1}
        assert not any(isinstance(group, str) for group in setups.values())
        assert report.group_results == {"CS": True, "CW": not pruned and not corrupt}
        assert len(report.pruned.get("CW", ())) == pruned
        assert (report.outcomes["CW"].reason is FailureReason.CORRUPT) is corrupt

    def test_empty_root_file_is_unchanged(self):
        store = MemoryStore()
        persist_evidence(store, "CW", [])
        data = store.get("CW.json")
        assert data == b'[{"root":"","leaf":[]}]'
        assert _scan(data) == StoredGroup((), TreeInfo.empty())

    @pytest.mark.parametrize("tampered", [0, 1, 3])
    def test_only_the_proof_and_tampered_records_are_decoded(self, tampered):
        """Loading and verifying an untampered file decodes no element: the
        proof is read by its layout.  Each record whose bytes no longer
        match its leaf is decoded; the other records of its trace are
        pruned undecoded."""
        store = MemoryStore()
        store.put("CW.SE.CS.CT.CA.json", _THREE_TRACES.replace(b'"route":"', b'"route":"X', tampered))
        decoded = []
        decode = proofs_module._decode

        def counting_decode(*args):
            decoded.append(args)
            return decode(*args)

        with mock.patch.object(proofs_module, "_decode", counting_decode):
            report = commit(verify_integrity(load_setups(store)), store)
        assert report.outcomes["CW.SE.CS.CT.CA"].reason is not FailureReason.CORRUPT
        assert len(report.pruned.get("CW.SE.CS.CT.CA", ())) == min(tampered, 1)
        assert len(report.outcomes["CW.SE.CS.CT.CA"].survivors) == (10 if tampered else 0)
        assert len(decoded) == tampered

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(st.characters(blacklist_categories=())), min_size=3, max_size=3),
        st.lists(st.integers(-(10**640) + 1, 10**640 - 1), min_size=5, max_size=5),
        st.sampled_from(RouteKind),
    )
    @example(['"', "\\", "\x00\x1f\x7f"], [-1, 0, 10**639, -(10**640) + 1, 2**63], RouteKind.LOCAL)
    @example(["é\ud83d\ude00", "\ud800", 'a\\"\\'], [0, 0, 0, 0, 0], RouteKind.REMOTE)
    def test_no_encoded_record_holds_a_boundary(self, texts, ints, route):
        """A change to the encoder that writes a record boundary inside a
        record would make every file it writes corrupt; this test catches
        it.  The traceid read from a record's prefix is its JSON quoting."""
        trace_id, task, caller = texts
        idx, start, billed, mem, setupv = ints
        record = InvocationRecord(trace_id, task, idx, caller, start, billed, mem, route, setupv)
        encoded = canonical_record_bytes(record)
        assert encoded.startswith(b'{"traceid":') and encoded.endswith(b"}")
        assert b'},{"traceid":' not in encoded and b',{"root":' not in encoded
        assert stored_trace_id(encoded) == json.dumps(trace_id).encode()


def _load_and_verify(data: bytes, seal=None):
    """The report and the file's bytes afterwards, for a store holding one
    group file loaded with or without a seal and verified with or without
    the seal's tree as its anchor, the splits it took, and whether the
    stored proof's leaf list was rebuilt."""
    store = CountingStore()
    store.put("CW.json", data)
    seals = {} if seal is None else {"CW": seal}
    anchors = {} if seal is None else {"CW": load_group_file(seal).proof}
    splits, builds = [], []
    split, build = proofs_module.load_group_file, verification_module.build_merkle_tree
    with mock.patch.object(proofs_module, "load_group_file", lambda d: splits.append(d) or split(d)):
        setups = load_setups(store, seals)
    assert seals == {} and store.gets == {"CW.json": 1}
    with mock.patch.object(verification_module, "build_merkle_tree",
                           lambda leaves: builds.append(leaves) or build(leaves)):
        report = commit(verify_integrity(setups, anchors), store)
    group = setups.get("CW")
    rebuilt = isinstance(group, StoredGroup) and any(leaves is group.proof.leaves for leaves in builds)
    return report, store.get("CW.json"), splits, rebuilt


class TestSeal:
    """A group file equal to the bytes persist sealed for it passes
    unsplit, and a stored proof equal to its anchor, the tree of the
    sealed bytes, is not rebuilt; every other file is split and checked
    in full, and the report and the store are always those that loading
    and verifying without seal or anchor give."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([*_GROUP_FILES, _THREE_TRACES]), st.lists(_EDIT, max_size=4))
    def test_mutated_file_verifies_as_without_the_seal(self, data, edits):
        mutated = _mutate(data, edits)
        report, after, splits, rebuilt = _load_and_verify(mutated, seal=data)
        unsealed_report, unsealed_after, _, checked = _load_and_verify(mutated)
        assert (report, after) == (unsealed_report, unsealed_after)
        assert splits == ([] if mutated == data else [mutated])
        # Of the proofs a check rebuilds, the anchor spares exactly those equal to it.
        assert rebuilt == (checked and load_group_file(mutated).proof != load_group_file(data).proof)

    @pytest.mark.parametrize("data", [_FIRST, _THREE_TRACES], ids=["one_trace", "three_traces"])
    def test_one_byte_changed_anywhere_is_split(self, data):
        """Each byte flipped in turn, the proof's included, and one byte
        cut from or added to either end."""
        changed = [data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :] for at in range(len(data))]
        changed += [data[1:], data[:-1], b" " + data, data + b" "]
        for mutated in changed:
            report, after, splits, _ = _load_and_verify(mutated, seal=data)
            assert splits == [mutated]
            assert (report, after) == _load_and_verify(mutated)[:2]
            assert not report.integrity_verified

    def test_equal_bytes_read_from_a_file_pass_unsplit(self, tmp_path):
        store, seals = FileStore(tmp_path / "ev"), {}
        persist_evidence(store, "CW.SE.CS.CT.CA", iot_records(b"\x31" * 32), seals)
        with mock.patch.object(proofs_module, "load_group_file", side_effect=AssertionError):
            setups = load_setups(store, seals)
        assert (setups, seals) == ({"CW.SE.CS.CT.CA": None}, {})
        report = commit(verify_integrity(setups), store)
        assert report.integrity_verified and report.group_results == {"CW.SE.CS.CT.CA": True}

    def test_the_empty_group_is_not_sealed_and_still_fails(self):
        store, seals = MemoryStore(), {}
        persist_evidence(store, "CW", [], seals)
        assert seals == {}
        report, after, splits, _ = _load_and_verify(store.get("CW.json"))
        assert (report.group_results, report.pruned, len(splits)) == ({"CW": False}, {}, 1)


def rglob_keys(root, prefix: str = "") -> list[str]:
    """The listing as a recursive glob over the store's directory gives it."""
    keys = []
    for path in root.rglob("*.json"):
        if path.is_file():
            key = path.relative_to(root).as_posix()
            if key.startswith(prefix):
                keys.append(key)
    return sorted(keys)


class TestFileStoreListing:
    def populated(self, tmp_path):
        store = FileStore(tmp_path / "ev")
        # Group files plus per-trace blocks as older versions wrote them.
        for key, seed in (("CW.SE.CS.CT.CA", b"\x41"), ("CW.SE.CS.CT.CA", b"\x42"), ("CW", b"\x43")):
            store.put(f"{key}.json", b"[]")
            store.put(f"{key}/{iot_records(seed * 32)[0].trace_id}.json", b"{}")
        store.put("deep/er/nested.json", b"{}")
        (tmp_path / "ev" / "notes.txt").write_bytes(b"not a key")
        (tmp_path / "ev" / "CW" / "x.json").mkdir()
        (tmp_path / "ev" / "CW" / "x.json" / "inner.json").write_bytes(b"{}")
        return store

    @pytest.mark.parametrize("prefix", ["", "CW", "CW/", "CW.SE.CS.CT.CA/", "deep/er", "zz"])
    def test_matches_recursive_glob(self, tmp_path, prefix):
        store = self.populated(tmp_path)
        keys = store.list(prefix)
        assert keys == rglob_keys(tmp_path / "ev", prefix)
        assert "CW/x.json" not in keys
        assert all(k.endswith(".json") for k in keys)

    def test_group_files_and_blocks_listed(self, tmp_path):
        keys = self.populated(tmp_path).list()
        assert "CW.json" in keys and "CW.SE.CS.CT.CA.json" in keys
        assert "CW/x.json/inner.json" in keys
        assert sum(k.startswith("CW.SE.CS.CT.CA/") for k in keys) == 2
