"""Task-graph workload simulator.

Executes an application's DAG under a fusion setup with a virtual clock
and a seeded generator, producing platform-style invocation records.
Attack injection lives here, not in the detection pipeline, so that
ground-truth labels stay on the simulator side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence, get_type_hints

from .errors import (
    CycleDetected,
    InvalidAttack,
    ParseError,
    UnknownCallee,
)
from .handler import (
    EXTERNAL_CALLER,
    FusionSetup,
    RouteKind,
    TraceID,
    generate_trace_id,
    parse_and_validate_trace_id,
    route_call,
    validate_name,
)

DEFAULT_REMOTE_OVERHEAD_MS = 50
DEFAULT_LOCAL_OVERHEAD_MS = 0
_NEVER = float("-inf")  # before every completion: a walk's times are finite sums

# Virtual-clock gap between consecutive requests; arbitrary but fixed so
# that records from different traces never share a start time.
REQUEST_SPACING_MS = 1000


class CallMode(Enum):
    SYNC = "sync"
    ASYNC = "async"


@dataclass(frozen=True)
class CallSpec:
    callee: str
    mode: CallMode = CallMode.SYNC


@dataclass(frozen=True)
class TaskSpec:
    name: str
    base_duration_ms: float
    base_memory_mb: float = 10.0
    jitter_fraction: float = 0.0
    calls: tuple[CallSpec, ...] = ()

    def __post_init__(self) -> None:
        validate_name(self.name)
        if self.base_duration_ms <= 0:
            raise ParseError(f"task {self.name!r}: base_duration_ms must be positive")
        if self.base_memory_mb <= 0:
            raise ParseError(f"task {self.name!r}: base_memory_mb must be positive")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ParseError(f"task {self.name!r}: jitter_fraction must be in [0, 1)")


@dataclass(frozen=True)
class AppSpec:
    name: str
    entry_task: str
    tasks: tuple[TaskSpec, ...]

    def __post_init__(self) -> None:
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ParseError(f"app {self.name!r} declares a task twice")
        if self.entry_task not in self.task_map:
            raise UnknownCallee(f"entry task {self.entry_task!r} is not declared")
        for task in self.tasks:
            for call in task.calls:
                if call.callee not in self.task_map:
                    raise UnknownCallee(
                        f"task {task.name!r} calls undeclared task {call.callee!r}"
                    )
        _check_acyclic(self.task_map)

    @cached_property
    def task_map(self) -> Mapping[str, TaskSpec]:
        """Tasks by name, built once: a read-only view, so it can be shared."""
        return MappingProxyType({t.name: t for t in self.tasks})

    def task_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tasks)

    def sync_chain(self) -> tuple[str, ...]:
        """Task names in depth-first walk order from the entry.

        This is the expected emission order of a clean request and the
        reference sequence for chain checking.
        """
        order: list[str] = []

        def visit(name: str) -> None:
            order.append(name)
            for call in self.task_map[name].calls:
                visit(call.callee)

        visit(self.entry_task)
        return tuple(order)


def _check_acyclic(by_name: Mapping[str, TaskSpec]) -> None:
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in by_name}

    def visit(name: str, path: tuple[str, ...]) -> None:
        color[name] = GREY
        for call in by_name[name].calls:
            if color[call.callee] == GREY:
                raise CycleDetected(f"cycle through {' -> '.join(path + (call.callee,))}")
            if color[call.callee] == WHITE:
                visit(call.callee, path + (call.callee,))
        color[name] = BLACK

    for name in by_name:
        if color[name] == WHITE:
            visit(name, (name,))


class AttackMode(Enum):
    DOW = "dow"
    BUSINESS_LOGIC = "business_logic"


# Named apply_on gates, (iteration, request) -> whether the attack fires.
ATTACK_GATES: Mapping[str, Callable[[int, int], bool]] = {
    "odd_iterations": lambda iteration, request: iteration % 2 == 1,
    "even_iterations": lambda iteration, request: iteration % 2 == 0,
    "always": lambda iteration, request: True,
    "first_request": lambda iteration, request: request == 0,
}


@dataclass(frozen=True)
class AttackPlan:
    """What to tamper with and when.

    apply_on(iteration, request) decides per request whether the attack
    fires; the default alternates clean and malicious iterations.
    """

    mode: AttackMode
    target_task: Optional[str] = None
    inflated_duration_ms: float = 0.0
    swap: Optional[tuple[str, str]] = None
    apply_on: Callable[[int, int], bool] = field(
        default=ATTACK_GATES["odd_iterations"], compare=False
    )

    def __post_init__(self) -> None:
        if self.mode is AttackMode.DOW:
            if not self.target_task:
                raise InvalidAttack("duration attack needs a target_task")
            if self.inflated_duration_ms <= 0:
                raise InvalidAttack("duration attack needs a positive inflated duration")
        if self.mode is AttackMode.BUSINESS_LOGIC:
            if not self.swap or len(self.swap) != 2 or self.swap[0] == self.swap[1]:
                raise InvalidAttack("reorder attack needs two distinct swap tasks")

    @classmethod
    def dow(
        cls,
        target_task: str,
        inflated_duration_ms: float,
        apply_on: Callable[[int, int], bool] = ATTACK_GATES["odd_iterations"],
    ) -> "AttackPlan":
        return cls(AttackMode.DOW, target_task=target_task,
                   inflated_duration_ms=inflated_duration_ms, apply_on=apply_on)

    @classmethod
    def business_logic(
        cls,
        swap: tuple[str, str],
        apply_on: Callable[[int, int], bool] = ATTACK_GATES["odd_iterations"],
    ) -> "AttackPlan":
        return cls(AttackMode.BUSINESS_LOGIC, swap=swap, apply_on=apply_on)


@dataclass(frozen=True, slots=True, init=False)
class InvocationRecord:
    """One platform log record for one task invocation."""

    trace_id: str
    task: str
    chain_index: int
    caller: str
    start_ms: int
    billed_duration_ms: int
    memory_used_mb: int
    route: RouteKind
    setup_version: int

    def __init__(self, trace_id: str, task: str, chain_index: int, caller: str,
                 start_ms: int, billed_duration_ms: int, memory_used_mb: int,
                 route: RouteKind, setup_version: int) -> None:
        _set_trace_id(self, trace_id)
        _set_task(self, task)
        _set_chain_index(self, chain_index)
        _set_caller(self, caller)
        _set_start_ms(self, start_ms)
        _set_billed_duration_ms(self, billed_duration_ms)
        _set_memory_used_mb(self, memory_used_mb)
        _set_route(self, route)
        _set_setup_version(self, setup_version)


# Each field's slot setter, fetched once: a generated frozen __init__ pays object.__setattr__.
(_set_trace_id, _set_task, _set_chain_index, _set_caller, _set_start_ms,
 _set_billed_duration_ms, _set_memory_used_mb, _set_route, _set_setup_version) = (
    getattr(InvocationRecord, f.name).__set__ for f in fields(InvocationRecord))

# The record's wire schema, one (attribute, wire key, type) row per field in
# the pinned order.  The wire dict and its parser, the REPORT line and its
# grammar, the canonical JSON line and the CSV columns are all built from it.
RECORD_FIELDS: tuple[tuple[str, str, type], ...] = tuple(zip(
    [f.name for f in fields(InvocationRecord)],
    ["traceid", "task", "idx", "caller", "start", "billed", "mem", "route", "setupv"],
    get_type_hints(InvocationRecord).values(), strict=True))
_WIRE_KEYS = [key for _, key, _ in RECORD_FIELDS]
_record_values = attrgetter(*(attribute for attribute, _, _ in RECORD_FIELDS))


def record_to_wire(record: InvocationRecord) -> dict:
    """Record as an ordered plain dict in the pinned field order."""
    return dict(zip(_WIRE_KEYS, _record_values(record)), route=record.route.value)


def _quantize(value: float) -> int:
    return max(1, int(round(value)))


def _compile_walk(
    app: AppSpec,
    setup: FusionSetup,
    remote_overhead_ms: float,
    local_overhead_ms: float,
) -> Callable[[TraceID, Optional[AttackPlan], int, float], list[InvocationRecord]]:
    """Resolve once what no request changes, and return the walk bound to setup.

    Each task reachable from the entry becomes (base duration, jitter,
    quantized memory, edges), each edge (callee, is_sync, route, delay).
    With no jitter on any reachable task, the bills are set here and the walk never draws.
    """
    reachable = [app.task_map[name] for name in dict.fromkeys(app.sync_chain())]
    jittered = any(task.jitter_fraction for task in reachable)
    overhead = {RouteKind.REMOTE: remote_overhead_ms, RouteKind.LOCAL: local_overhead_ms}
    table = {}
    for task in reachable:
        routes = [(call, route_call(setup, task.name, call.callee)) for call in task.calls]
        edges = tuple((c.callee, c.mode is CallMode.SYNC, r, overhead[r]) for c, r in routes)
        duration = task.base_duration_ms if jittered else _quantize(task.base_duration_ms)
        table[task.name] = (duration, task.jitter_fraction, _quantize(task.base_memory_mb), edges)

    def walk(trace_id: TraceID, attack: Optional[AttackPlan], seed: int,
             clock_origin_ms: float) -> list[InvocationRecord]:
        wire_id = trace_id.full
        parse_and_validate_trace_id(wire_id, setup)
        draw = random.Random(seed).random if jittered else None
        records: list[InvocationRecord] = []

        def visit(name: str, caller: str, start: float, kind: RouteKind) -> float:
            duration, jitter, memory, edges = table[name]
            billed = duration if draw is None else _quantize(
                duration * (1.0 + jitter * (2.0 * draw() - 1.0)))
            records.append(InvocationRecord(
                wire_id, name, len(records), caller, int(round(start)),
                billed, memory, kind, setup.version,
            ))
            now, latest = start + billed, _NEVER
            for callee, is_sync, route, delay in edges:
                if is_sync:
                    now = visit(callee, name, now + delay, route)
                else:
                    done = visit(callee, name, start + delay, route)
                    if done > latest:
                        latest = done
            return latest if latest > now else now  # max([now, *async completions])

        # The entry task itself arrives through the platform's front door.
        visit(app.entry_task, EXTERNAL_CALLER, float(clock_origin_ms), RouteKind.REMOTE)
        return records if attack is None else _apply_attack(app, records, attack)

    return walk


def execute_request(
    app: AppSpec,
    setup: FusionSetup,
    trace_id: TraceID,
    attack: Optional[AttackPlan],
    seed: int,
    clock_origin_ms: float,
    remote_overhead_ms: float = DEFAULT_REMOTE_OVERHEAD_MS,
    local_overhead_ms: float = DEFAULT_LOCAL_OVERHEAD_MS,
) -> list[InvocationRecord]:
    """Walk the DAG once and emit one record per task invocation.

    Depth-first from the entry task honoring edge order.  Sync callees
    start when the caller's sequential work reaches the call; async
    callees are dispatched relative to the caller's own start and do not
    extend the caller's path.  Crossing a group boundary delays the
    callee's start by remote_overhead_ms.
    """
    walk = _compile_walk(app, setup, remote_overhead_ms, local_overhead_ms)
    return walk(trace_id, attack, seed, clock_origin_ms)


def _apply_attack(
    app: AppSpec, records: list[InvocationRecord], attack: AttackPlan
) -> list[InvocationRecord]:
    """Tamper with the already-emitted records of one request."""
    if attack.mode is AttackMode.DOW:
        if attack.target_task not in app.task_map:
            raise InvalidAttack(f"target task {attack.target_task!r} is not declared")
        out = []
        for rec in records:
            if rec.task == attack.target_task:
                rec = replace(rec, billed_duration_ms=_quantize(attack.inflated_duration_ms))
            out.append(rec)
        return out

    assert attack.mode is AttackMode.BUSINESS_LOGIC and attack.swap is not None
    first, second = attack.swap
    positions: dict[str, int] = {}
    for pos, rec in enumerate(records):
        positions.setdefault(rec.task, pos)
    if first not in positions or second not in positions:
        raise InvalidAttack(f"swap tasks {first!r}, {second!r} not both present in the trace")
    p, q = positions[first], positions[second]
    if abs(p - q) != 1:
        raise InvalidAttack(f"swap tasks {first!r}, {second!r} are not consecutive in the chain")
    for task_name in (first, second):
        incoming = records[positions[task_name]].caller
        if incoming != EXTERNAL_CALLER:
            edge = next(c for c in app.task_map[incoming].calls if c.callee == task_name)
            if edge.mode is not CallMode.SYNC:
                raise InvalidAttack(f"swap task {task_name!r} is not reached synchronously")
    out = list(records)
    out[p], out[q] = out[q], out[p]
    # Emission position dictates chain_index, so the swapped pair trade indices.
    a, b = out[p], out[q]
    out[p] = replace(a, chain_index=b.chain_index)
    out[q] = replace(b, chain_index=a.chain_index)
    return out


@dataclass(frozen=True)
class RequestOutcome:
    """Ground-truth label for one simulated request.

    Only the simulator and the test suite see these; the detection
    pipeline works from records and log lines alone.
    """

    iteration: int
    load: int
    request_index: int
    trace_id: str
    attacked: bool


@dataclass(frozen=True)
class LogBatch:
    records: tuple[InvocationRecord, ...]
    outcomes: tuple[RequestOutcome, ...]


def run_workload(
    app: AppSpec,
    setup: FusionSetup,
    request_counts: Sequence[int],
    attack: Optional[AttackPlan],
    iterations: int,
    seed: int,
    remote_overhead_ms: float = DEFAULT_REMOTE_OVERHEAD_MS,
    local_overhead_ms: float = DEFAULT_LOCAL_OVERHEAD_MS,
    iteration_offset: int = 0,
) -> LogBatch:
    """Run iterations × request_counts requests with fresh trace IDs.

    The attack plan's apply_on(iteration, request) gate decides which
    requests are tampered with; iteration_offset shifts the iteration
    index seen by the gate so outer optimization loops can run one
    iteration at a time.
    """
    if iterations < 1:
        raise ParseError("iterations must be >= 1")
    walk = _compile_walk(app, setup, remote_overhead_ms, local_overhead_ms)
    master = random.Random(seed)
    records: list[InvocationRecord] = []
    outcomes: list[RequestOutcome] = []
    serial = 0
    for local_iter in range(iterations):
        iteration = iteration_offset + local_iter
        for load in request_counts:
            for request_index in range(load):
                randomness = master.randbytes(32)
                request_seed = master.getrandbits(64)
                trace = generate_trace_id(setup, app.entry_task, randomness)
                attacked = attack is not None and attack.apply_on(iteration, request_index)
                records.extend(walk(
                    trace, attack if attacked else None, request_seed,
                    serial * REQUEST_SPACING_MS,
                ))
                outcomes.append(
                    RequestOutcome(iteration, load, request_index, trace.full, attacked)
                )
                serial += 1
    return LogBatch(records=tuple(records), outcomes=tuple(outcomes))


# "REPORT traceid={} task={} ...", one key=value pair per field.
_REPORT_LINE = " ".join(["REPORT", *(f"{key}={{}}" for key in _WIRE_KEYS)])


def emit_platform_logs(records: Iterable[InvocationRecord]) -> list[str]:
    """Render records in the REPORT line grammar, one line per record."""
    return [_REPORT_LINE.format(*record_to_wire(r).values()) for r in records]


def builtin_iot_app() -> AppSpec:
    """Five-task sensor pipeline: a single synchronous chain."""
    chain = [("CW", 37), ("SE", 37), ("CS", 76), ("CT", 64), ("CA", 68)]
    tasks = []
    for pos, (name, duration) in enumerate(chain):
        calls = ()
        if pos + 1 < len(chain):
            calls = (CallSpec(chain[pos + 1][0], CallMode.SYNC),)
        tasks.append(TaskSpec(name, duration, 10.0, 0.0, calls))
    return AppSpec(name="iot", entry_task="CW", tasks=tuple(tasks))


def builtin_tree_app(fanout: int = 2, depth: int = 1) -> AppSpec:
    """Fan-out app: light sync internal tasks, heavy async leaf tasks."""
    if fanout < 2 or depth < 1:
        raise ParseError("tree app needs fanout >= 2 and depth >= 1")
    tasks: dict[str, list[CallSpec]] = {"N0": []}
    level = ["N0"]
    for level_idx in range(1, depth + 1):
        leaf_level = level_idx == depth
        mode = CallMode.ASYNC if leaf_level else CallMode.SYNC
        next_level = []
        for parent in level:
            for child_idx in range(fanout):
                child = f"{parent}_{child_idx}"
                tasks[child] = []
                tasks[parent].append(CallSpec(child, mode))
                next_level.append(child)
        level = next_level
    leaves = set(level)
    specs = tuple(
        TaskSpec(
            name=name,
            base_duration_ms=80 if name in leaves else 20,
            base_memory_mb=64 if name in leaves else 10,
            jitter_fraction=0.0,
            calls=tuple(calls),
        )
        for name, calls in tasks.items()
    )
    return AppSpec(name="tree", entry_task="N0", tasks=specs)
