"""Object-store-like evidence persistence.

Two interchangeable backends: an in-memory map for tests and fast runs,
and a filesystem directory where "/" in keys maps to subdirectories.
The pipeline writes one key per fusion group, `<fusion_key>.json` (the
group file).
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Union

from .errors import CorruptGroupFile, NotFound, ParseError, StoreWriteFailed
from .proofs import _RECORD_LINE, TreeInfo, record_from_wire, treeinfo_from_wire
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


# JSON's insignificant whitespace, the same set the decoder skips.
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_decode = json.JSONDecoder().raw_decode

# The exact layout canonical_record_bytes writes, taken from its template,
# so a scan can take a record element's span without decoding it.
# Everything it matches is a JSON object with a traceid that the decoder
# reads to the same end.  A string is unrolled (plain characters, then an
# escape, and so on) and neither part can start the other, so a match takes
# linear time.  Integers have at most 640 digits, the lowest limit Python's
# int conversion can be set to, so the decoder refuses none of them.
_STRING = r'"[^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*"'
_INTEGER = r"-?(?:0|[1-9][0-9]{0,639})"
_CANONICAL_RECORD = re.compile(
    re.escape(_RECORD_LINE.replace('"%s"', "%s")).replace("%s", _STRING).replace("%d", _INTEGER)
)


@dataclass(frozen=True)
class StoredGroup:
    """A group file as stored: every record element's exact bytes, then the proof."""

    records: tuple[bytes, ...]
    proof: TreeInfo


def _scan_group_file(data: bytes) -> StoredGroup:
    """Split a group file into each record element's stored bytes and the
    proof, in one pass.  An element in the canonical record layout is
    recognized without being decoded; any other goes through the JSON
    decoder, and its object is dropped as soon as it is checked."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptGroupFile(f"group file is not valid UTF-8: {exc}") from exc
    pos = _WHITESPACE.match(text).end()
    first = _WHITESPACE.match(text, pos + 1).end()
    if not text.startswith("[", pos) or text.startswith("]", first):
        raise CorruptGroupFile("group file must be a non-empty JSON array")
    spans = []
    while text.startswith("," if spans else "[", pos):
        # An element follows, so the one before it is a record.
        if spans and not is_record:
            raise CorruptGroupFile("group file's records must be objects with a traceid")
        start = _WHITESPACE.match(text, pos + 1).end()
        match = _CANONICAL_RECORD.match(text, start)
        if match is not None:
            obj, end, is_record = None, match.end(), True
        else:
            try:
                obj, end = _decode(text, start)
            except json.JSONDecodeError as exc:
                raise CorruptGroupFile(f"group file is not valid JSON: {exc}") from exc
            except (ValueError, RecursionError) as exc:  # too many digits, too deep
                raise CorruptGroupFile(f"group file cannot be decoded: {exc}") from exc
            is_record = isinstance(obj, dict) and "traceid" in obj
        spans.append((start, end))
        pos = _WHITESPACE.match(text, end).end()
    if not text.startswith("]", pos) or _WHITESPACE.match(text, pos + 1).end() != len(text):
        raise CorruptGroupFile(f"group file's JSON array does not end at char {pos}")
    if not isinstance(obj, dict) or "root" not in obj:
        raise CorruptGroupFile("group file's last element must carry the tree")
    try:
        tree = treeinfo_from_wire(obj)
    except ParseError as exc:
        raise CorruptGroupFile(str(exc)) from exc
    # Character offsets are byte offsets only when every character is one byte.
    if data.isascii():
        records = tuple(data[s:e] for s, e in spans[:-1])
    else:
        records = tuple(text[s:e].encode("utf-8") for s, e in spans[:-1])
    return StoredGroup(records, tree)


def parse_group_file(data: bytes) -> GroupBlocks:
    """Decode a group file into records plus a trailing TreeInfo."""
    group = _scan_group_file(data)
    try:
        records = [record_from_wire(json.loads(r)) for r in group.records]
    except ParseError as exc:
        raise CorruptGroupFile(str(exc)) from exc
    return [*records, group.proof]


def load_setups(store: EvidenceStore) -> tuple[dict[str, StoredGroup], dict[str, str]]:
    """Load every group file, as stored, into verification's input shape.

    Returns (setups, corrupt): setups maps fusion_key to the group's
    record element bytes and proof; corrupt maps fusion_key to the
    failure reason for listed group files that could not be read or would
    not parse.  No record is decoded into an InvocationRecord.  A corrupt
    file never hides the remaining keys.
    """
    setups: dict[str, StoredGroup] = {}
    corrupt: dict[str, str] = {}
    for key in store.list(""):
        if "/" in key:  # a per-trace block left by an older layout
            continue
        fusion_key = key[: -len(".json")]
        try:
            setups[fusion_key] = _scan_group_file(store.get(key))
        except (NotFound, CorruptGroupFile) as exc:
            corrupt[fusion_key] = str(exc)
    return setups, corrupt
