"""Object-store-like evidence persistence.

Two interchangeable backends that hold bytes under string keys: an
in-memory map for tests and fast runs, and a filesystem directory where
"/" in keys maps to subdirectories.  What the bytes mean (the group
file) is up to proofs.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Protocol, Union

from .errors import NotFound, StoreWriteFailed


def _validate_key(key: str) -> str:
    if "\0" in key or not key.endswith(".json"):
        raise StoreWriteFailed(f"bad store key {key!r}: must end in .json and hold no NUL")
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
    """Dict-backed store; its lock guards the dict, so threads may share one store."""

    def __init__(self) -> None:
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def put(self, key: str, data: bytes) -> None:
        _validate_key(key)
        with self._lock:
            self._objects[key] = bytes(data)

    def get(self, key: str) -> bytes:
        # No key put refuses is ever stored, so get refuses it as absent.
        with self._lock:
            try:
                return self._objects[key]
            except KeyError:
                raise NotFound(f"no object at {key!r}") from None

    def delete(self, key: str) -> None:
        _validate_key(key)
        with self._lock:
            self._objects.pop(key, None)

    def list(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(k for k in self._objects if k.startswith(prefix))


def _unlistable(exc: OSError) -> None:
    """os.walk's onerror: a missing directory holds no key, and any other
    that cannot be listed, such as a root that is a file, is a fault."""
    if not isinstance(exc, FileNotFoundError):
        raise StoreWriteFailed(f"cannot list store: {exc}") from exc


class FileStore:
    """Filesystem-backed store rooted at a directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        # Nothing is created until a put: a missing root lists as empty.
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        """key's path, never outside the root: StoreWriteFailed for a bad key."""
        return self.root / _validate_key(key)

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        # One per process and thread, and not .json, so never a key: renamed onto it whole.
        temp = path.with_name(f".{os.getpid()}-{threading.get_native_id()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                temp.write_bytes(data)
                os.replace(temp, path)
            except OSError:
                temp.unlink(missing_ok=True)
                raise
        except OSError as exc:
            raise StoreWriteFailed(f"cannot write {key!r}: {exc}") from exc

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except (OSError, StoreWriteFailed):
            raise NotFound(f"no object at {key!r}") from None

    def delete(self, key: str) -> None:
        path = self._path(key)
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise StoreWriteFailed(f"cannot delete {key!r}: {exc}") from exc

    def list(self, prefix: str = "") -> list[str]:
        root = os.path.join(self.root, "")
        keys = []
        for directory, _subdirs, files in os.walk(root, onerror=_unlistable):
            # Files in directory root + "a/b" have keys "a/b/<name>".
            base = os.path.join(directory[len(root) :], "").replace(os.sep, "/")
            for name in files:
                key = base + name
                if name.endswith(".json") and key.startswith(prefix):
                    keys.append(key)
        return sorted(keys)
