"""Evidence store backends and group-file loading."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionproof.errors import CorruptGroupFile, NotFound, StoreWriteFailed
from fusionproof.handler import FusionSetup, generate_trace_id
from fusionproof.proofs import (
    TreeInfo,
    build_merkle_tree,
    canonical_record_bytes,
    persist_evidence,
    record_leaf_hashes,
)
from fusionproof.store import FileStore, MemoryStore, StoredGroup, load_setups, parse_group_file
from fusionproof.workload import builtin_iot_app, execute_request

IOT = builtin_iot_app()
FUSED = FusionSetup.fused([["CW", "SE", "CS", "CT", "CA"]])


def iot_records(randomness: bytes, origin=0):
    trace = generate_trace_id(FUSED, "CW", randomness)
    return execute_request(IOT, FUSED, trace, None, 3, origin)


def make_stores(tmp_path):
    return [MemoryStore(), FileStore(tmp_path / "evidence")]


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


class TestParseGroupFile:
    def test_round_trip(self):
        records = iot_records(b"\x21" * 32)
        store = MemoryStore()
        receipt = persist_evidence(store, "CW.SE.CS.CT.CA", records)
        blocks = parse_group_file(store.get("CW.SE.CS.CT.CA.json"))
        assert blocks[:-1] == list(records)
        assert blocks[-1] == receipt.tree

    def test_empty_group(self):
        assert parse_group_file(b'[{"root":"","tree":[],"leaf":[]}]') == [TreeInfo.empty()]

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


class TestLoadSetups:
    def test_round_trip(self):
        store = MemoryStore()
        records = iot_records(b"\x22" * 32)
        persist_evidence(store, "CW.SE.CS.CT.CA", records)
        setups, corrupt = load_setups(store)
        assert corrupt == {}
        assert list(setups) == ["CW.SE.CS.CT.CA"]
        encoded = tuple(map(canonical_record_bytes, records))
        assert setups["CW.SE.CS.CT.CA"] == StoredGroup(
            encoded, build_merkle_tree(record_leaf_hashes(encoded))
        )

    def test_ignores_block_files(self):
        store = MemoryStore()
        records = iot_records(b"\x23" * 32)
        persist_evidence(store, "CW.SE.CS.CT.CA", records)
        # A per-trace block as older versions wrote one beside the group file.
        store.put(f"CW.SE.CS.CT.CA/{records[0].trace_id}.json", canonical_record_bytes(records[-1]))
        setups, corrupt = load_setups(store)
        assert all("/" not in key for key in setups)
        assert list(setups) == ["CW.SE.CS.CT.CA"]
        assert corrupt == {}

    def test_corrupt_group_isolated(self):
        store = MemoryStore()
        persist_evidence(store, "CW.SE.CS.CT.CA", iot_records(b"\x24" * 32))
        store.put("BROKEN.json", b"not json")
        setups, corrupt = load_setups(store)
        assert "CW.SE.CS.CT.CA" in setups
        assert list(corrupt) == ["BROKEN"]

    def test_multiple_groups(self, tmp_path):
        store = FileStore(tmp_path / "ev")
        split = FusionSetup.singletons(["CW", "SE", "CS", "CT", "CA"])
        trace = generate_trace_id(split, "CW", b"\x25" * 32)
        split_records = execute_request(IOT, split, trace, None, 3, 0)
        persist_evidence(store, "CW.SE.CS.CT.CA", iot_records(b"\x26" * 32))
        persist_evidence(store, "CW", split_records)
        setups, corrupt = load_setups(store)
        assert sorted(setups) == ["CW", "CW.SE.CS.CT.CA"]
        assert corrupt == {}

    def test_empty_store(self):
        assert load_setups(MemoryStore()) == ({}, {})


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
