"""Object-store-like evidence persistence.

Two interchangeable backends: an in-memory map for tests and fast runs,
and a filesystem directory where "/" in keys maps to subdirectories.
The pipeline writes one key per fusion group, `<fusion_key>.json` (the
group file).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Protocol, Union

from .errors import CorruptGroupFile, NotFound, ParseError, StoreWriteFailed
from .proofs import TreeInfo, record_from_wire, treeinfo_from_wire
from .workload import InvocationRecord

GroupBlocks = list[Union[InvocationRecord, TreeInfo]]


def _validate_key(key: str) -> str:
    if not key or not key.endswith(".json"):
        raise StoreWriteFailed(f"bad store key {key!r}: must be non-empty and end in .json")
    segments = key.split("/")
    if any(not seg or seg == ".." or seg == "." for seg in segments):
        raise StoreWriteFailed(f"bad store key {key!r}: empty or relative segments")
    return key


class EvidenceStore(Protocol):
    def put(self, key: str, data: bytes) -> None: ...

    def get(self, key: str) -> bytes: ...

    def delete(self, key: str) -> None: ...

    def list(self, prefix: str = "") -> list[str]: ...


class MemoryStore:
    """Dict-backed store; thread-safe for distinct keys per the contract."""

    def __init__(self) -> None:
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def put(self, key: str, data: bytes) -> None:
        _validate_key(key)
        with self._lock:
            self._objects[key] = bytes(data)

    def get(self, key: str) -> bytes:
        with self._lock:
            try:
                return self._objects[key]
            except KeyError:
                raise NotFound(f"no object at {key!r}") from None

    def delete(self, key: str) -> None:
        with self._lock:
            self._objects.pop(key, None)

    def list(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(k for k in self._objects if k.startswith(prefix))


class FileStore:
    """Filesystem-backed store rooted at a directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreWriteFailed(f"cannot create store root: {exc}") from exc
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / key

    def put(self, key: str, data: bytes) -> None:
        _validate_key(key)
        path = self._path(key)
        try:
            with self._lock:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
        except OSError as exc:
            raise StoreWriteFailed(f"cannot write {key!r}: {exc}") from exc

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except OSError:
            raise NotFound(f"no object at {key!r}") from None

    def delete(self, key: str) -> None:
        try:
            with self._lock:
                self._path(key).unlink(missing_ok=True)
        except OSError as exc:
            raise StoreWriteFailed(f"cannot delete {key!r}: {exc}") from exc

    def list(self, prefix: str = "") -> list[str]:
        root = os.path.join(self.root, "")
        keys = []
        for directory, _subdirs, files in os.walk(root):
            # Files in directory root + "a/b" have keys "a/b/<name>".
            base = os.path.join(directory[len(root) :], "").replace(os.sep, "/")
            for name in files:
                key = base + name
                if name.endswith(".json") and key.startswith(prefix):
                    keys.append(key)
        return sorted(keys)


def parse_group_file(data: bytes) -> GroupBlocks:
    """Decode a group file into records plus a trailing TreeInfo."""
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptGroupFile(f"group file is not valid JSON: {exc}") from exc
    if not isinstance(body, list) or not body:
        raise CorruptGroupFile("group file must be a non-empty JSON array")
    *record_objs, tree_obj = body
    if not isinstance(tree_obj, dict) or "root" not in tree_obj:
        raise CorruptGroupFile("group file's last element must carry the tree")
    try:
        tree = treeinfo_from_wire(tree_obj)
        blocks: GroupBlocks = [record_from_wire(obj) for obj in record_objs]
    except ParseError as exc:
        raise CorruptGroupFile(str(exc)) from exc
    blocks.append(tree)
    return blocks


def load_setups(store: EvidenceStore) -> tuple[dict[str, GroupBlocks], dict[str, str]]:
    """Load every group file into verification's input shape.

    Returns (setups, corrupt): setups maps fusion_key to the record list
    whose last element is the TreeInfo; corrupt maps fusion_key to the
    failure reason for group files that would not parse.  A corrupt file
    never hides the remaining keys.
    """
    setups: dict[str, GroupBlocks] = {}
    corrupt: dict[str, str] = {}
    for key in store.list(""):
        if "/" in key:  # a per-trace block left by an older layout
            continue
        fusion_key = key[: -len(".json")]
        try:
            setups[fusion_key] = parse_group_file(store.get(key))
        except CorruptGroupFile as exc:
            corrupt[fusion_key] = str(exc)
    return setups, corrupt
