"""Log filtering, canonical hashing, Merkle proofs, and the group file.

Records flow through here on their way to the evidence store: parse the
platform log lines, filter out traces that violate the threshold policy,
hash the survivors canonically, build the Merkle tree over the hashes,
and write the records plus proof to the store as one group file.  The
group file's key, layout, writer and reader all live here; the store
only holds its bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import CorruptGroupFile, InvalidHexLeaf, NotFound, ParseError
from .handler import RouteKind, all_hex64
from .workload import RECORD_FIELDS, InvocationRecord
from .workload import record_to_wire as record_to_wire  # also importable from here


# ---------------------------------------------------------------------------
# Log parsing

# Each field's value in a REPORT line, by its type; only ASCII digits are numbers.
_REPORT_VALUE = {str: r"\S+", int: "[0-9]+", RouteKind: "|".join(k.value for k in RouteKind)}
_REPORT_RE = re.compile("^REPORT " + " ".join(
    f"{key}=(?P<{key}>{_REPORT_VALUE[kind]})" for _, key, kind in RECORD_FIELDS) + "$")


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
        try:
            record = record_from_wire(match.groupdict()) if match else None
        except ParseError as exc:  # a number too long for int()
            rejects.append(RejectedLine(line_number, line, str(exc)))
            continue
        if record is None:
            rejects.append(RejectedLine(line_number, line, "does not match REPORT grammar"))
        elif record.billed_duration_ms < 1 or record.memory_used_mb < 1:
            rejects.append(RejectedLine(line_number, line, "billed and mem must be positive"))
        else:
            records.append(record)
    return records, rejects


# ---------------------------------------------------------------------------
# Threshold filtering

class ViolationKind(Enum):
    DURATION_EXCEEDED = "duration_exceeded"
    MEMORY_EXCEEDED = "memory_exceeded"
    SEQUENCE_VIOLATION = "sequence_violation"


@dataclass(frozen=True)
class Verdict:
    """A violation one check found; a check that passes returns None."""

    kind: ViolationKind
    detail: str = ""


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-record limits plus the expected task order of one trace.

    An empty expected_sequence disables the order check, and an infinite
    limit its threshold check.
    """

    max_billed_ms: float = 90000.0
    max_memory_mb: float = 128.0
    expected_sequence: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("max_billed_ms", "max_memory_mb"):  # no value exceeds a NaN limit
            if math.isnan(getattr(self, name)):
                raise ParseError(f"{name} must not be NaN; use inf for no limit")


def check_record(record: InvocationRecord, policy: ThresholdPolicy) -> Optional[Verdict]:
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
    return None


def check_chain_sequence(
    records_of_one_trace: Sequence[InvocationRecord], policy: ThresholdPolicy
) -> Optional[Verdict]:
    """Compare one trace's task order (by chain_index) to the policy."""
    if not policy.expected_sequence:
        return None
    ordered = sorted(records_of_one_trace, key=lambda r: r.chain_index)
    observed = tuple(r.task for r in ordered)
    if observed != policy.expected_sequence:
        return Verdict(
            ViolationKind.SEQUENCE_VIOLATION,
            f"observed {','.join(observed)}; expected {','.join(policy.expected_sequence)}",
        )
    return None


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
            if verdict is not None:
                record_verdicts[id(record)] = verdict
                if trigger is None:
                    trigger = verdict
        trace_verdicts[trace_id] = trigger or check_chain_sequence(trace_records, policy)

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

def record_from_wire(obj: Mapping) -> InvocationRecord:
    """The record a wire object holds; its text fields must be strings."""
    try:
        values = []
        for _, key, kind in RECORD_FIELDS:
            value = obj[key]
            if kind is str and not isinstance(value, str):
                raise TypeError(f"{key} must be a string, got {value!r}")
            values.append(value if kind is str else kind(value))
        return InvocationRecord(*values)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad record object: {exc}") from exc


# The compact, ASCII-escaped JSON form of record_to_wire, written out
# directly: json.dumps(record_to_wire(r), separators=(",", ":")).  A text
# field's value comes already quoted, from encode_basestring_ascii.
_JSON_VALUE = {str: "%s", int: "%d", RouteKind: '"%s"'}
_RECORD_LINE = "{%s}" % ",".join(f'"{key}":{_JSON_VALUE[kind]}' for _, key, kind in RECORD_FIELDS)
_RECORD_TEMPLATE = _RECORD_LINE.encode("ascii")
# Keyed by the member's value: the enum's own hash and .value are Python-level calls.
_ROUTE_BYTES = {kind._value_: kind._value_.encode("ascii") for kind in RouteKind}


@functools.lru_cache(maxsize=256)
def _quoted(text: str) -> bytes:
    """A text field's quoted JSON bytes.  A batch repeats one trace id per
    hop and a few task names, so a small bounded memo serves nearly all."""
    return encode_basestring_ascii(text).encode("ascii")


def canonical_record_bytes(record: InvocationRecord) -> bytes:
    """Single-line UTF-8 serialization with pinned field order, no whitespace.

    This exact byte string is what gets hashed into the tree and stored
    in the group file, so it must never drift.
    """
    q = _quoted
    return _RECORD_TEMPLATE % (
        q(record.trace_id), q(record.task), record.chain_index, q(record.caller),
        record.start_ms, record.billed_duration_ms, record.memory_used_mb,
        _ROUTE_BYTES[record.route._value_], record.setup_version,
    )


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


def build_merkle_tree(leaf_hashes: Sequence[str]) -> TreeInfo:
    """Build the proof over leaf hashes, duplicating the last element of
    every odd level so no leaf ever drops out of the tree."""
    if not all_hex64(leaf_hashes):
        bad = next(leaf for leaf in leaf_hashes if not all_hex64((leaf,)))
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
# its first key, and that end a record's traceid, in the layout
# join_group_file writes.  A canonical record escapes every '"' inside its
# strings, so none of these byte strings occurs within one.
_RECORD_START = _RECORD_TEMPLATE[: _RECORD_TEMPLATE.index(b"%")]
_TRACE_END = _RECORD_TEMPLATE[len(_RECORD_START) + 2 :].split(b"%")[0]
_PROOF_START = b'{"root":'
# The proof element join_group_file writes, each with the "]" that closes the file.
_PROOF = '{"root":"%s","leaf":["%s"]}]'
_LEAFLESS_PROOF = '{"root":"%s","leaf":[]}]'
_RECORD_BOUNDARY = re.compile(re.escape(b"}," + _RECORD_START))
# A proof's groups: the root, and the leaf list's strings unquoted (None: none).
_PROOF_LAYOUT = re.compile(rb'\{"root":"([^"]*)","leaf":\[(?:"(.*)")?\]\}', re.S)
_PLAIN = bytes(set(range(0x20, 0x7F)) - set(b'"\\'))  # what JSON writes unescaped in a string
_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True)
class StoredGroup:
    """A group file as stored: every record element's exact bytes, then the
    proof; proof_sealed when the proof's bytes are those persist wrote."""

    records: tuple[bytes, ...]
    proof: TreeInfo
    proof_sealed: bool = False


def group_key(fusion_key: str) -> str:
    return fusion_key + _GROUP_SUFFIX


def join_group_file(encoded: Sequence[bytes], tree: TreeInfo) -> bytes:
    """The group file over records already encoded, then the proof
    '{"root":"R","leaf":["L1",…]}'.  The root and leaves are written as
    they are, so each must be a string JSON would not escape (printable
    ASCII but '"' and '\\'), as a hex digest is; the bytes are then those
    json.dumps(..., separators=(",", ":")) writes."""
    # One expression, so only the proof's bytes are held during the join.
    proof = (_PROOF % (tree.root, '","'.join(tree.leaves)) if tree.leaves
             else _LEAFLESS_PROOF % tree.root).encode("ascii")
    # A single join, so no intermediate copy of the whole body is made.
    parts = [*encoded, proof]
    parts[0] = b"[" + parts[0]
    return b",".join(parts)


def group_file_bytes(records: Sequence[InvocationRecord], tree: TreeInfo) -> bytes:
    """Compact JSON array of the records' canonical lines, then the proof."""
    return join_group_file([canonical_record_bytes(r) for r in records], tree)


def persist_evidence(
    store, fusion_key: str, clean_records: Sequence[InvocationRecord],
    seals: Optional[dict[str, bytes]] = None,
) -> TreeInfo:
    """Write the group file: every record in hashing order, then its Merkle proof.

    Each record is encoded once, and those bytes are both hashed and
    joined into the group file, the one object verification reads.
    When seals is given and the tree is not empty, the bytes object put
    is also set in it under fusion_key, for load_setups to compare with.
    """
    encoded = [canonical_record_bytes(r) for r in clean_records]
    tree = build_merkle_tree(record_leaf_hashes(encoded))
    data = join_group_file(encoded, tree)
    store.put(group_key(fusion_key), data)
    if seals is not None and tree.root:
        seals[fusion_key] = data
    return tree


def _element(piece: bytes, key: str, what: str) -> dict:
    """The JSON object with key that is all of the UTF-8 piece; else
    CorruptGroupFile, naming what the piece is and the JSON error."""
    try:
        text = piece.decode("utf-8")
        obj, end = _decode(text)
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise CorruptGroupFile(f"group file's {what} is not valid JSON: {exc}") from exc
    if not (isinstance(obj, dict) and key in obj):
        raise CorruptGroupFile(f"group file's {what} is not a JSON object with a {key!r}")
    return obj


def _read_proof(piece: bytes) -> TreeInfo:
    """The proof element, split by the layout join_group_file writes.  Each
    string stands as written, so a byte JSON would escape or a '"' inside
    one is CorruptGroupFile, as any other layout is."""
    layout, quotes = _PROOF_LAYOUT.fullmatch(piece), piece.translate(None, _PLAIN)
    if layout and not quotes.strip(b'"'):
        root, leaves = layout.groups()
        leaves = [] if leaves is None else leaves.decode("ascii").split('","')
        # Two for each key, the root, and each leaf.
        if len(quotes) == 2 * (3 + len(leaves)):
            return TreeInfo(root.decode("ascii"), tuple(leaves))
    _element(piece, "root", "proof")  # a proof that is not JSON: name its error
    raise CorruptGroupFile("group file's proof is not in the layout the pipeline writes")


def load_group_file(data: bytes, seal: Optional[bytes] = None) -> StoredGroup:
    """Split a group file at the boundaries join_group_file writes: "[",
    each '},{"traceid":', the last ',{"root":' and "]", and read the proof
    by its layout; a file in any other layout is CorruptGroupFile.
    proof_sealed is set when seal, the bytes persist wrote, ends with this
    file's proof element: that proof is then the one persist built over its leaves."""
    cut = max(data.rfind(b"," + _PROOF_START), 0)
    if not (data.startswith(b"[" + _RECORD_START if cut else b"[")
            and data.startswith(_PROOF_START, cut + 1) and data.endswith(b"]")):
        raise CorruptGroupFile("group file is not in the layout the pipeline writes")
    tree = _read_proof(data[cut + 1 : -1])
    # The "[" or "," before each record element, then the "," before the proof (none: cut 0).
    commas = [0, *(m.start() + 1 for m in _RECORD_BOUNDARY.finditer(data, 1, cut)), cut]
    return StoredGroup(tuple(data[s + 1 : e] for s, e in zip(commas, commas[1:]) if cut), tree,
                       seal is not None and seal.endswith(data[cut:]))


def record_trace_id(piece: bytes, position: int) -> tuple[bytes, object]:
    """The traceid of the record element at position, quoted as
    stored_trace_id reads it from a canonical element, and decoded;
    CorruptGroupFile, naming the position and the JSON error, unless the
    element is, whole, a JSON object with a traceid."""
    trace_id = _element(piece, "traceid", f"record {position}")["traceid"]
    return json.dumps(trace_id).encode("ascii"), trace_id


def stored_trace_id(piece: bytes) -> bytes:
    """The traceid of a canonical record element as its bytes quote it,
    between '{"traceid":' and ',"task":', read without decoding."""
    return piece[len(_RECORD_START) : piece.find(_TRACE_END, len(_RECORD_START))]


def parse_group_file(data: bytes) -> list[Union[InvocationRecord, TreeInfo]]:
    """Decode a group file into records plus a trailing TreeInfo."""
    group = load_group_file(data)
    try:
        records = [record_from_wire(_element(r, "traceid", f"record {p}"))
                   for p, r in enumerate(group.records)]
    except ParseError as exc:
        raise CorruptGroupFile(str(exc)) from exc
    return [*records, group.proof]


def load_setups(
    store, seals: Optional[dict[str, bytes]] = None
) -> dict[str, Union[StoredGroup, None, str]]:
    """Load every group file, as stored, into verification's input shape.

    Maps each fusion_key to the group's record element bytes and proof,
    or to the reason its listed group file could not be read or would
    not parse: verify_integrity gives the verdict.  Every key in the
    store is a group file, one under a subdirectory included.  No record
    is decoded, and a corrupt file never hides the remaining keys.

    seals optionally maps a fusion key to the bytes persist_evidence set
    in it.  A stored file equal to them is what verification would pass
    as it stands, so it is not split and maps to None; any other file is
    split against them.  Each seal is popped as it is compared, and seals
    is empty on return.
    """
    setups: dict[str, Union[StoredGroup, None, str]] = {}
    seals = seals if seals is not None else {}
    for key in store.list(""):
        fusion_key = key[: -len(_GROUP_SUFFIX)]
        try:
            data, seal = store.get(key), seals.pop(fusion_key, None)
            # A store's get may return the very object put: then no byte is read.
            setups[fusion_key] = None if data == seal else load_group_file(data, seal)
        except (NotFound, CorruptGroupFile) as exc:
            setups[fusion_key] = str(exc)
    seals.clear()
    return setups
