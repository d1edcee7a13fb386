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
from typing import Optional, Protocol, Sequence, Union

from .errors import CorruptGroupFile, NotFound, ParseError, StoreWriteFailed
from .proofs import TreeInfo, record_from_wire, treeinfo_from_wire
from .workload import InvocationRecord


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

# Where one record element ends and the next begins in the layout the
# pipeline writes.  A canonical record escapes every '"' inside its
# strings, so these bytes never occur within one.
_RECORD_BOUNDARY = re.compile(rb'\},\{"traceid":')


@dataclass(frozen=True)
class StoredGroup:
    """A group file as stored: every record element's exact bytes, then the proof."""

    records: tuple[bytes, ...]
    proof: TreeInfo


def _whole_object(piece: bytes, key: str) -> Optional[dict]:
    """The JSON object with key that is all of the UTF-8 piece, else None."""
    try:
        text = piece.decode("utf-8")
        obj, end = _decode(text)
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    return obj if end == len(text) and isinstance(obj, dict) and key in obj else None


def _split_group_file(data: bytes) -> Optional[StoredGroup]:
    """Split a group file in the layout the pipeline writes at its record
    boundaries, decoding only the proof.  None when the file is not in
    that layout, its proof has no root, or it does not split into one
    piece per leaf.  No piece is decoded here: verification decodes every
    piece it prunes, and reads the file with the decoder when one is not
    a record (read_group_file)."""
    if not (data.isascii() and data.startswith(b'[{"traceid":') and data.endswith(b"}]")):
        return None
    cut = data.rfind(b'},{"root":')
    obj = _whole_object(data[cut + 2 : -1], "root") if cut > 0 else None
    if obj is None:
        return None
    try:
        tree = treeinfo_from_wire(obj)
    except ParseError:
        return None
    # The "[" or "," before each record element, then the "," before the proof.
    commas = [0, *(m.start() + 1 for m in _RECORD_BOUNDARY.finditer(data, 1, cut)), cut + 1]
    if not tree.root or len(commas) - 1 != len(tree.leaves):
        return None
    return StoredGroup(tuple(data[s + 1 : e] for s, e in zip(commas, commas[1:])), tree)


def _decode_group_file(data: bytes) -> StoredGroup:
    """Split a group file into each record element's stored bytes and the
    proof by running the JSON decoder over every element; each object is
    dropped as soon as it is checked."""
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
        if spans and not (isinstance(obj, dict) and "traceid" in obj):
            raise CorruptGroupFile("group file's records must be objects with a traceid")
        start = _WHITESPACE.match(text, pos + 1).end()
        try:
            obj, end = _decode(text, start)
        except json.JSONDecodeError as exc:
            raise CorruptGroupFile(f"group file is not valid JSON: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # too many digits, too deep
            raise CorruptGroupFile(f"group file cannot be decoded: {exc}") from exc
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


def _scan_group_file(data: bytes) -> StoredGroup:
    """Split a group file into each record element's stored bytes and the
    proof.  A file in the pipeline's layout is split at its record
    boundaries; any other file goes through the decoder element by
    element, which gives the verdict."""
    group = _split_group_file(data)
    return group if group is not None else _decode_group_file(data)


def read_group_file(store: EvidenceStore, key: str) -> StoredGroup:
    """The group file at key, every element read by the JSON decoder."""
    return _decode_group_file(store.get(key))


def record_trace_ids(records: Sequence[bytes]) -> Optional[list]:
    """The traceid of each record element, or None when one is not a
    whole JSON object with a traceid: a piece the record-boundary split
    cut from a tampered file need not be one record."""
    objects = [_whole_object(piece, "traceid") for piece in records]
    if None in objects:
        return None
    return [obj["traceid"] for obj in objects]


def parse_group_file(data: bytes) -> list[Union[InvocationRecord, TreeInfo]]:
    """Decode a group file into records plus a trailing TreeInfo."""
    group = _decode_group_file(data)
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
    file never hides the remaining keys.  A file split at its record
    boundaries may still hold a piece that is not a record; verify_integrity
    reports that file as corrupt if it would have to prune the piece.
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
