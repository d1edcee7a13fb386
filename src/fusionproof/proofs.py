"""Log filtering, canonical hashing, Merkle proofs, and the group file.

Records flow through here on their way to the evidence store: parse the
platform log lines, filter out traces that violate the threshold policy,
hash the survivors canonically, build the Merkle tree over the hashes,
and write the records plus proof to the store as one group file.  The
group file's key, layout, writer and readers all live here; the store
only holds its bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import CorruptGroupFile, InvalidHexLeaf, NotFound, ParseError
from .handler import RouteKind, all_hex64, is_hex64
from .workload import InvocationRecord


# ---------------------------------------------------------------------------
# Log parsing

_REPORT_RE = re.compile(
    r"^REPORT traceid=(?P<traceid>\S+) task=(?P<task>\S+) idx=(?P<idx>[0-9]+) "
    r"caller=(?P<caller>\S+) start=(?P<start>[0-9]+) billed=(?P<billed>[0-9]+) "
    r"mem=(?P<mem>[0-9]+) route=(?P<route>LOCAL|REMOTE) setupv=(?P<setupv>[0-9]+)$"
)


@dataclass(frozen=True)
class RejectedLine:
    line_number: int
    line: str
    reason: str


def parse_log_lines(lines: Iterable[str]) -> tuple[list[InvocationRecord], list[RejectedLine]]:
    """Extract well-formed REPORT lines; reject the rest with reasons.

    Line numbers are 1-based.  Rejects are data, not faults: a noisy log
    stream must never abort ingestion.
    """
    records: list[InvocationRecord] = []
    rejects: list[RejectedLine] = []
    for line_number, line in enumerate(lines, start=1):
        match = _REPORT_RE.match(line)
        if not match:
            rejects.append(RejectedLine(line_number, line, "does not match REPORT grammar"))
            continue
        billed = int(match["billed"])
        mem = int(match["mem"])
        if billed < 1 or mem < 1:
            rejects.append(RejectedLine(line_number, line, "billed and mem must be positive"))
            continue
        records.append(
            InvocationRecord(
                trace_id=match["traceid"],
                task=match["task"],
                chain_index=int(match["idx"]),
                caller=match["caller"],
                start_ms=int(match["start"]),
                billed_duration_ms=billed,
                memory_used_mb=mem,
                route=RouteKind(match["route"]),
                setup_version=int(match["setupv"]),
            )
        )
    return records, rejects


# ---------------------------------------------------------------------------
# Threshold filtering

class ViolationKind(Enum):
    NONE = "none"
    DURATION_EXCEEDED = "duration_exceeded"
    MEMORY_EXCEEDED = "memory_exceeded"
    SEQUENCE_VIOLATION = "sequence_violation"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check; kind NONE means the check passed."""

    kind: ViolationKind
    detail: str = ""

    @classmethod
    def passing(cls) -> "Verdict":
        return _PASSING


# Verdicts are frozen, so every passing check can share one instance.
_PASSING = Verdict(ViolationKind.NONE)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-record limits plus the expected task order of one trace.

    An empty expected_sequence disables the order check.
    """

    max_billed_ms: float = 90000.0
    max_memory_mb: float = 128.0
    expected_sequence: tuple[str, ...] = ()


def check_record(record: InvocationRecord, policy: ThresholdPolicy) -> Verdict:
    """Threshold check for one record; duration outranks memory."""
    if record.billed_duration_ms > policy.max_billed_ms:
        return Verdict(
            ViolationKind.DURATION_EXCEEDED,
            f"task {record.task}: billed {record.billed_duration_ms} ms "
            f"> limit {policy.max_billed_ms:g} ms",
        )
    if record.memory_used_mb > policy.max_memory_mb:
        return Verdict(
            ViolationKind.MEMORY_EXCEEDED,
            f"task {record.task}: memory {record.memory_used_mb} MB "
            f"> limit {policy.max_memory_mb:g} MB",
        )
    return Verdict.passing()


def check_chain_sequence(
    records_of_one_trace: Sequence[InvocationRecord], policy: ThresholdPolicy
) -> Verdict:
    """Compare one trace's task order (by chain_index) to the policy."""
    if not policy.expected_sequence:
        return Verdict.passing()
    ordered = sorted(records_of_one_trace, key=lambda r: r.chain_index)
    observed = tuple(r.task for r in ordered)
    if observed != policy.expected_sequence:
        return Verdict(
            ViolationKind.SEQUENCE_VIOLATION,
            f"observed {','.join(observed)}; expected {','.join(policy.expected_sequence)}",
        )
    return Verdict.passing()


def filter_batch(
    records: Sequence[InvocationRecord], policy: ThresholdPolicy
) -> tuple[list[InvocationRecord], list[tuple[InvocationRecord, Verdict]]]:
    """Split records into clean and flagged, a whole trace at a time.

    A trace with ANY violating record (or a broken sequence) is flagged
    atomically: a partially tampered chain cannot vouch for its remaining
    hops.  Both outputs preserve input order.
    """
    by_trace: dict[str, list[InvocationRecord]] = {}
    for record in records:
        by_trace.setdefault(record.trace_id, []).append(record)

    trace_verdicts: dict[str, Optional[Verdict]] = {}
    record_verdicts: dict[int, Verdict] = {}
    for trace_id, trace_records in by_trace.items():
        trigger: Optional[Verdict] = None
        for record in trace_records:
            verdict = check_record(record, policy)
            if verdict.kind is not ViolationKind.NONE:
                record_verdicts[id(record)] = verdict
                if trigger is None:
                    trigger = verdict
        sequence_verdict = check_chain_sequence(trace_records, policy)
        if trigger is None and sequence_verdict.kind is not ViolationKind.NONE:
            trigger = sequence_verdict
        trace_verdicts[trace_id] = trigger

    clean: list[InvocationRecord] = []
    flagged: list[tuple[InvocationRecord, Verdict]] = []
    for record in records:
        trigger = trace_verdicts[record.trace_id]
        if trigger is None:
            clean.append(record)
        else:
            flagged.append((record, record_verdicts.get(id(record), trigger)))
    return clean, flagged


# ---------------------------------------------------------------------------
# Canonical serialization

def record_to_wire(record: InvocationRecord) -> dict:
    """Record as an ordered plain dict in the pinned field order."""
    return {
        "traceid": record.trace_id,
        "task": record.task,
        "idx": record.chain_index,
        "caller": record.caller,
        "start": record.start_ms,
        "billed": record.billed_duration_ms,
        "mem": record.memory_used_mb,
        "route": record.route.value,
        "setupv": record.setup_version,
    }


def record_from_wire(obj: Mapping) -> InvocationRecord:
    try:
        return InvocationRecord(
            trace_id=obj["traceid"],
            task=obj["task"],
            chain_index=int(obj["idx"]),
            caller=obj["caller"],
            start_ms=int(obj["start"]),
            billed_duration_ms=int(obj["billed"]),
            memory_used_mb=int(obj["mem"]),
            route=RouteKind(obj["route"]),
            setup_version=int(obj["setupv"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad record object: {exc}") from exc


# The compact, ASCII-escaped JSON form of record_to_wire, written out
# directly: json.dumps(record_to_wire(r), separators=(",", ":")).
_RECORD_LINE = (
    '{"traceid":%s,"task":%s,"idx":%d,"caller":%s,"start":%d,'
    '"billed":%d,"mem":%d,"route":"%s","setupv":%d}'
)


def canonical_record_bytes(record: InvocationRecord) -> bytes:
    """Single-line UTF-8 serialization with pinned field order, no whitespace.

    This exact byte string is what gets hashed into the tree and stored
    in the group file, so it must never drift.
    """
    q = encode_basestring_ascii
    try:
        line = _RECORD_LINE % (
            q(record.trace_id), q(record.task), record.chain_index, q(record.caller),
            record.start_ms, record.billed_duration_ms, record.memory_used_mb,
            record.route.value, record.setup_version,
        )
    except TypeError:
        # A text field that is not a str, as a record parsed from a
        # tampered group file can carry: encode it the reference way.
        return json.dumps(record_to_wire(record), separators=(",", ":")).encode("utf-8")
    return line.encode("ascii")


# ---------------------------------------------------------------------------
# Merkle tree

@dataclass(frozen=True)
class TreeInfo:
    """Merkle proof: the root and the leaf hashes it was built over.

    leaves are the input hashes before any odd-padding; every interior
    node can be rebuilt from them.
    """

    root: str
    leaves: tuple[str, ...]

    @classmethod
    def empty(cls) -> "TreeInfo":
        return cls("", ())


def treeinfo_to_wire(info: TreeInfo) -> dict:
    return {"root": info.root, "leaf": list(info.leaves)}


def treeinfo_from_wire(obj: Mapping) -> TreeInfo:
    """Read root and leaf; any other key, such as the interior-node list
    "tree" that older group files carry, is ignored."""
    try:
        root = obj["root"]
        leaves = tuple(obj["leaf"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad tree object: {exc}") from exc
    if not isinstance(root, str):
        raise ParseError("tree root must be a string")
    return TreeInfo(root, leaves)


def build_merkle_tree(leaf_hashes: Sequence[str]) -> TreeInfo:
    """Build the proof over leaf hashes, duplicating the last element of
    every odd level so no leaf ever drops out of the tree."""
    if not all_hex64(leaf_hashes):
        bad = next(leaf for leaf in leaf_hashes if not is_hex64(leaf))
        raise InvalidHexLeaf(f"leaf {bad!r} is not a 64-char lowercase hex digest")
    if not leaf_hashes:
        return TreeInfo.empty()
    sha256 = hashlib.sha256
    level = list(leaf_hashes)
    while True:
        if len(level) % 2 == 1:
            level.append(level[-1])
        # A parent hashes the UTF-8 concatenation of its two children's
        # hex strings, not their raw digest bytes.
        level = [sha256((left + right).encode()).hexdigest()
                 for left, right in zip(level[::2], level[1::2])]
        if len(level) == 1:
            return TreeInfo(root=level[0], leaves=tuple(leaf_hashes))


def record_leaf_hashes(encoded: Sequence[bytes]) -> list[str]:
    """The leaf hash of each record's bytes, as persisted or as stored."""
    sha256 = hashlib.sha256
    return [sha256(data).hexdigest() for data in encoded]


# ---------------------------------------------------------------------------
# The group file: one store key per fusion group, `<fusion_key>.json`,
# holding a JSON array of the records' canonical bytes, then the proof.

_GROUP_SUFFIX = ".json"

# The bytes that open a record element and the proof element, each with
# its first key, in the layout join_group_file writes.  A canonical record
# escapes every '"' inside its strings, so "}," followed by either never
# occurs within one.
_RECORD_START = _RECORD_LINE[: _RECORD_LINE.index("%")].encode("ascii")
_PROOF_START = b'{"%s":' % next(iter(treeinfo_to_wire(TreeInfo.empty()))).encode("ascii")
_RECORD_BOUNDARY = re.compile(re.escape(b"}," + _RECORD_START))

# JSON's insignificant whitespace, the same set the decoder skips.
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True)
class PersistReceipt:
    group_key: str
    tree: TreeInfo


@dataclass(frozen=True)
class StoredGroup:
    """A group file as stored: every record element's exact bytes, then the proof."""

    records: tuple[bytes, ...]
    proof: TreeInfo


def group_key(fusion_key: str) -> str:
    return fusion_key + _GROUP_SUFFIX


def join_group_file(encoded: Sequence[bytes], tree: TreeInfo) -> bytes:
    """The group file over records already encoded, then the proof."""
    # A single join, so no intermediate copy of the whole body is made.
    proof = json.dumps(treeinfo_to_wire(tree), separators=(",", ":")) + "]"
    parts = [*encoded, proof.encode("utf-8")]
    parts[0] = b"[" + parts[0]
    return b",".join(parts)


def group_file_bytes(records: Sequence[InvocationRecord], tree: TreeInfo) -> bytes:
    """Compact JSON array of the records' canonical lines, then the proof."""
    return join_group_file([canonical_record_bytes(r) for r in records], tree)


def persist_evidence(store, fusion_key: str, clean_records: Sequence[InvocationRecord]) -> PersistReceipt:
    """Write the group file: every record in hashing order, then its Merkle proof.

    Each record is encoded once, and those bytes are both hashed and
    joined into the group file, the one object verification reads.
    """
    encoded = [canonical_record_bytes(r) for r in clean_records]
    tree = build_merkle_tree(record_leaf_hashes(encoded))
    gkey = group_key(fusion_key)
    store.put(gkey, join_group_file(encoded, tree))
    return PersistReceipt(gkey, tree)


def _whole_object(piece: bytes, key: str) -> Optional[dict]:
    """The JSON object with key that is all of the UTF-8 piece, else None."""
    try:
        text = piece.decode("utf-8")
        obj, end = _decode(text)
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    return obj if end == len(text) and isinstance(obj, dict) and key in obj else None


def _split_group_file(data: bytes) -> Optional[StoredGroup]:
    """Split a group file in the layout join_group_file writes at its
    record boundaries, decoding only the proof.  None when the file is not
    in that layout, its proof has no root, or it does not split into one
    piece per leaf.  No piece is decoded here: verification decodes every
    piece it prunes, and reads the file with decode_group_file when one is
    not a record."""
    if not (data.isascii() and data.startswith(b"[" + _RECORD_START) and data.endswith(b"}]")):
        return None
    cut = data.rfind(b"}," + _PROOF_START)
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


def decode_group_file(data: bytes) -> StoredGroup:
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
    return StoredGroup(tuple(text[s:e].encode("utf-8") for s, e in spans[:-1]), tree)


def load_group_file(data: bytes) -> StoredGroup:
    """Split a group file into each record element's stored bytes and the
    proof.  A file in the layout join_group_file writes is split at its
    record boundaries; any other file goes through decode_group_file,
    which gives the verdict."""
    group = _split_group_file(data)
    return group if group is not None else decode_group_file(data)


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
    group = decode_group_file(data)
    try:
        records = [record_from_wire(json.loads(r)) for r in group.records]
    except ParseError as exc:
        raise CorruptGroupFile(str(exc)) from exc
    return [*records, group.proof]


def load_setups(store) -> tuple[dict[str, StoredGroup], dict[str, str]]:
    """Load every group file, as stored, into verification's input shape.

    Returns (setups, corrupt): setups maps fusion_key to the group's
    record element bytes and proof; corrupt maps fusion_key to the
    failure reason for listed group files that could not be read or would
    not parse.  Every key in the store is a group file, one under a
    subdirectory included.  No record is decoded into an InvocationRecord,
    and a corrupt file never hides the remaining keys.  verify_integrity
    takes both maps and gives the verdict.
    """
    setups: dict[str, StoredGroup] = {}
    corrupt: dict[str, str] = {}
    for key in store.list(""):
        fusion_key = key[: -len(_GROUP_SUFFIX)]
        try:
            setups[fusion_key] = load_group_file(store.get(key))
        except (NotFound, CorruptGroupFile) as exc:
            corrupt[fusion_key] = str(exc)
    return setups, corrupt
