"""Fusion setups, trace identifiers, and call routing.

A fusion setup partitions an application's tasks into ordered groups.
Tasks in the same group run inside one deployed function and call each
other locally; calls that cross a group boundary are remote.  The setup
is also stamped into every trace identifier so that logs minted under a
stale setup can be rejected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    InvalidName,
    MalformedTraceID,
    SetupMismatch,
    TamperedTraceID,
    UnknownFunction,
)

# Reserved by the trace and storage encodings: "-" separates trace parts,
# "." joins tasks within a group, "," joins groups, "/" builds store keys,
# and no file name can hold a NUL.
_FORBIDDEN = set("-,./\0")

RANDOM_PART_BYTES = 32

# Caller name recorded for the external ingress that invokes the entry task.
EXTERNAL_CALLER = "I"


def validate_name(name: str) -> str:
    """Check that a task name is usable inside trace IDs and store keys.

    Returns the name unchanged, or raises InvalidName.
    """
    if not name:
        raise InvalidName("task name must be non-empty")
    for ch in name:
        if ch in _FORBIDDEN or ch.isspace():
            raise InvalidName(f"task name {name!r} contains reserved character {ch!r}")
    return name


def all_hex64(values: Sequence[str]) -> bool:
    """True when every value is a str of exactly 64 lowercase hex digits: a
    SHA-256 hexdigest.  After the lengths, one check over the joined values:
    deleting every lowercase hex digit from their ASCII bytes leaves nothing."""
    try:
        return {*map(len, values)} <= {64} and not (
            "".join(values).encode("ascii").translate(None, b"0123456789abcdef"))
    except (TypeError, UnicodeEncodeError):  # a value that is not a str, or not ASCII
        return False


@dataclass(frozen=True)
class FusionSetup:
    """An ordered partition of task names into fusion groups."""

    groups: tuple[tuple[str, ...], ...]
    version: int = 1

    def __post_init__(self) -> None:
        seen: set[str] = set()
        if not self.groups:
            raise InvalidName("fusion setup needs at least one group")
        for group in self.groups:
            if not group:
                raise InvalidName("fusion groups must be non-empty")
            for name in group:
                validate_name(name)
                if name in seen:
                    raise InvalidName(f"task {name!r} appears in more than one group")
                seen.add(name)

    @classmethod
    def singletons(cls, names: Iterable[str], version: int = 1) -> "FusionSetup":
        """One group per task: every call between tasks is remote."""
        return cls(tuple((name,) for name in names), version)

    @classmethod
    def fused(cls, groups: Iterable[Iterable[str]], version: int = 1) -> "FusionSetup":
        return cls(tuple(tuple(group) for group in groups), version)

    # cached_property writes the instance __dict__: no part of ==, hash or repr.
    @cached_property
    def setup_part(self) -> str:
        """Canonical string form: tasks joined by ".", groups by ","."""
        return ",".join(".".join(group) for group in self.groups)

    @cached_property
    def _group_index_of(self) -> dict[str, int]:
        return {name: idx for idx, group in enumerate(self.groups) for name in group}

    def functions(self) -> tuple[str, ...]:
        return tuple(name for group in self.groups for name in group)

    def group_index(self, function_name: str) -> int:
        idx = self._group_index_of.get(function_name)
        if idx is None:
            raise UnknownFunction(f"function {function_name!r} not in setup {self.setup_part!r}")
        return idx

    def group_of(self, function_name: str) -> tuple[str, ...]:
        return self.groups[self.group_index(function_name)]


class RouteKind(Enum):
    LOCAL = "LOCAL"
    REMOTE = "REMOTE"


def route_call(setup: FusionSetup, caller: str, callee: str) -> RouteKind:
    """Decide whether a call stays inside one deployed function.

    Calls within a fusion group are LOCAL (plain function invocation);
    calls across groups are REMOTE.
    """
    same = setup.group_index(caller) == setup.group_index(callee)
    return RouteKind.LOCAL if same else RouteKind.REMOTE


def compute_hash_part(setup_part: str, function_name: str, random_part: str) -> str:
    data = f"{setup_part}-{function_name}-{random_part}".encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def generate_trace_id(setup: FusionSetup, function_name: str, randomness: bytes) -> str:
    """Mint a fresh trace identifier for an invocation of function_name.

    The wire form is ``<setup_part>-<function_name>-<random_part>-<hash_part>``
    where random_part is the 64 hex characters of randomness and hash_part
    is the SHA-256 of the first three parts joined by "-".  randomness must
    supply exactly 32 bytes; the caller owns the RNG so that runs are
    reproducible.
    """
    setup.group_index(function_name)  # UnknownFunction when it is not in the setup
    if len(randomness) != RANDOM_PART_BYTES:
        raise MalformedTraceID(
            f"need {RANDOM_PART_BYTES} random bytes, got {len(randomness)}"
        )
    head = (setup.setup_part, function_name, randomness.hex())
    return "-".join((*head, compute_hash_part(*head)))


def split_trace_id(value: str) -> tuple[str, str, str, str]:
    """The four parts of a well-shaped trace ID, or MalformedTraceID."""
    # random_part and hash_part have fixed 64-hex width, and names may not
    # contain "-", so splitting on the three rightmost "-" is unambiguous.
    parts = value.rsplit("-", 3)
    if len(parts) != 4:
        raise MalformedTraceID(f"trace ID {value!r} does not have four parts")
    setup_part, function_name, random_part, hash_part = parts
    if not setup_part or not function_name:
        raise MalformedTraceID(f"trace ID {value!r} has empty parts")
    if not all_hex64((random_part, hash_part)):
        bad = "hash" if all_hex64((random_part,)) else "random"
        raise MalformedTraceID(f"trace ID {value!r} has a bad {bad} part")
    return setup_part, function_name, random_part, hash_part


def parse_and_validate_trace_id(value: str, setup: FusionSetup) -> str:
    """Check a wire-form trace ID against the live setup; returns it unchanged.

    Checks run in a fixed order: shape (MalformedTraceID), then checksum
    (TamperedTraceID), then setup agreement (SetupMismatch).
    """
    setup_part, function_name, random_part, hash_part = split_trace_id(value)
    if hash_part != compute_hash_part(setup_part, function_name, random_part):
        raise TamperedTraceID(f"trace ID {value!r} fails its checksum")
    if setup_part != setup.setup_part:
        raise SetupMismatch(
            f"trace ID was minted under {setup_part!r}, "
            f"current setup is {setup.setup_part!r}"
        )
    return value


def entry_fusion_key(setup: FusionSetup, entry_function: str) -> str:
    """Store key prefix: the setup_part of the group hosting the entry."""
    return ".".join(setup.group_of(entry_function))


def fusion_key_for_trace(trace_id: str) -> str:
    """Recover the fusion key from a trace ID's embedded setup and entry."""
    setup_part, entry, _, _ = split_trace_id(trace_id)
    for group in setup_part.split(","):
        if entry in group.split("."):
            return group
    raise MalformedTraceID(f"trace ID names entry {entry!r} outside its own setup part")
