"""Task-graph workload simulator.

Executes an application's DAG under a fusion setup with a virtual clock
and a seeded generator, producing platform-style invocation records.
Attack injection lives here, not in the detection pipeline, so that
ground-truth labels stay on the simulator side.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
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
    generate_trace_id,
    parse_and_validate_trace_id,
    route_call,
    validate_name,
)

_NEVER = float("-inf")  # before every completion: a walk's times are finite sums

# Virtual-clock gap between consecutive requests; arbitrary but fixed so
# that records from different traces never share a start time.
REQUEST_SPACING_MS = 1000


@dataclass(frozen=True)
class CostModel:
    """What a call costs, read by the walk and by the estimator alike:
    each route's start delay, and the estimator's memory weight."""

    remote_overhead_ms: float = 50
    local_overhead_ms: float = 0
    memory_weight: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):  # a negative delay would start a callee before its caller
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ParseError(f"{f.name} must be finite and >= 0, got {value!r}")

    def overhead_ms(self, route: RouteKind) -> float:
        """The delay before a callee reached over route starts."""
        return self.remote_overhead_ms if route is RouteKind.REMOTE else self.local_overhead_ms


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
        try:  # each task after its callees; a cycle lists them against the calls
            TopologicalSorter({t.name: [c.callee for c in t.calls] for t in self.tasks}).prepare()
        except CycleError as exc:
            raise CycleDetected(f"cycle through {' -> '.join(reversed(exc.args[1]))}") from None

    @cached_property
    def task_map(self) -> Mapping[str, TaskSpec]:
        """Tasks by name, built once: a read-only view, so it can be shared."""
        return MappingProxyType({t.name: t for t in self.tasks})

    def task_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tasks)


class AttackMode(Enum):
    DOW = "dow"
    BUSINESS_LOGIC = "business_logic"


# The gates a plan names by its when: (iteration, request) -> whether the attack fires.
ATTACK_GATES: Mapping[str, Callable[[int, int], bool]] = {
    "odd_iterations": lambda iteration, request: iteration % 2 == 1,
    "even_iterations": lambda iteration, request: iteration % 2 == 0,
    "always": lambda iteration, request: True,
    "first_request": lambda iteration, request: request == 0,
}


@dataclass(frozen=True)
class AttackPlan:
    """What to tamper with and when.

    when names the ATTACK_GATES gate that decides per request whether the
    attack fires; the default alternates clean and malicious iterations.
    """

    mode: AttackMode
    target_task: Optional[str] = None
    inflated_duration_ms: float = 0.0
    swap: Optional[tuple[str, str]] = None
    when: str = "odd_iterations"

    def __post_init__(self) -> None:
        if self.when not in ATTACK_GATES:
            raise InvalidAttack(
                f"attack gate {self.when!r} is not one of {', '.join(ATTACK_GATES)}")
        if self.mode is AttackMode.DOW:
            if not self.target_task:
                raise InvalidAttack("duration attack needs a target_task")
            if not 0 < self.inflated_duration_ms < math.inf:  # False for NaN too
                raise InvalidAttack("duration attack needs a positive, finite inflated duration, "
                                    f"got {self.inflated_duration_ms!r}")
        if self.mode is AttackMode.BUSINESS_LOGIC:
            if not self.swap or len(self.swap) != 2 or self.swap[0] == self.swap[1]:
                raise InvalidAttack("reorder attack needs two distinct swap tasks")


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


def expected_trace(app: AppSpec) -> tuple[tuple[str, str, int, int], ...]:
    """One row (task, caller, bill limit, memory limit) per hop of a clean request of app, in
    walk order: depth-first from the entry, caller EXTERNAL_CALLER, each task's calls in order.
    The limits are the quantized memory and base duration raised by the jitter: a jittered
    bill, _quantize(d * (1 + j * (2u - 1))) with u < 1, is monotone in u, so none exceeds it."""
    rows: list[tuple[str, str, int, int]] = []

    def visit(name: str, caller: str) -> None:
        task = app.task_map[name]
        rows.append((name, caller, _quantize(task.base_duration_ms * (1.0 + task.jitter_fraction)),
                     _quantize(task.base_memory_mb)))
        for call in task.calls:
            visit(call.callee, name)

    visit(app.entry_task, EXTERNAL_CALLER)
    return tuple(rows)


def _edges(setup: FusionSetup, model: CostModel, task: TaskSpec) -> tuple:
    """Each call of task as the edge (callee, is_sync, route, delay)."""
    return tuple((call.callee, call.mode is CallMode.SYNC, route, model.overhead_ms(route))
                 for call in task.calls for route in [route_call(setup, task.name, call.callee)])


def _timeline(table: Mapping[str, tuple], entry: str, origin: float,
              draw: Optional[Callable[[], float]]) -> tuple[list[tuple], float]:
    """One request timed from origin by execute_request's rule, over each task's (duration,
    jitter, memory, edges): its rows (task, index, caller, start, bill, memory, route) in walk
    order, and when its last call finishes.  With draw, each bill jitters the duration."""
    rows: list[tuple] = []

    def visit(name: str, caller: str, start: float, kind: RouteKind) -> float:
        duration, jitter, memory, edges = table[name]
        billed = duration if draw is None else _quantize(
            duration * (1.0 + jitter * (2.0 * draw() - 1.0)))
        rows.append((name, len(rows), caller, int(round(start)), billed, memory, kind))
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
    return rows, visit(entry, EXTERNAL_CALLER, origin, RouteKind.REMOTE)


def finish_ms(app: AppSpec, setup: FusionSetup, model: CostModel) -> float:
    """When a request of app from time 0 ends, timed by the walk's rule with no jitter: each task
    bills its base duration, unquantized, and makes its calls in order, routed under setup."""
    table = {task.name: (task.base_duration_ms, 0.0, 0, _edges(setup, model, task))
             for task in app.tasks}
    return _timeline(table, app.entry_task, 0.0, None)[1]


def _attack_rewrite(app: AppSpec, attack: AttackPlan,
                    order: Sequence[tuple]) -> Callable[[Sequence[tuple]], list[tuple]]:
    """Check attack once against order, a request's rows (task, index, caller, start, bill,
    memory, route) in walk order, which every request of app follows: InvalidAttack if it does
    not fit, else what it does to an attacked request's rows."""
    tasks = [task for task, *_ in order]
    if attack.mode is AttackMode.DOW:
        target, billed = attack.target_task, _quantize(attack.inflated_duration_ms)
        if target not in app.task_map:
            raise InvalidAttack(f"target task {target!r} is not declared")
        hits = [position for position, task in enumerate(tasks) if task == target]
        if not hits:
            raise InvalidAttack(f"target task {target!r} is not reached from {app.entry_task!r}")

        def inflate(rows: Sequence[tuple]) -> list[tuple]:
            rows = list(rows)
            for position in hits:
                task, index, caller, start, _, memory, route = rows[position]
                rows[position] = (task, index, caller, start, billed, memory, route)
            return rows

        return inflate

    first, second = attack.swap
    if first not in tasks or second not in tasks:
        raise InvalidAttack(f"swap tasks {first!r}, {second!r} not both present in the trace")
    p, q = tasks.index(first), tasks.index(second)
    if abs(p - q) != 1:
        raise InvalidAttack(f"swap tasks {first!r}, {second!r} are not consecutive in the chain")
    for task_name, position in ((first, p), (second, q)):
        incoming = order[position][2]
        if incoming != EXTERNAL_CALLER:
            edge = next(c for c in app.task_map[incoming].calls if c.callee == task_name)
            if edge.mode is not CallMode.SYNC:
                raise InvalidAttack(f"swap task {task_name!r} is not reached synchronously")

    def reorder(rows: Sequence[tuple]) -> list[tuple]:
        # Emission position dictates the index, so the swapped pair trade indices.
        rows = list(rows)
        rows[p], rows[q] = (rows[q][0], p, *rows[q][2:]), (rows[p][0], q, *rows[p][2:])
        return rows

    return reorder


def _compile_walk(
    app: AppSpec, setup: FusionSetup, model: CostModel, attack: Optional[AttackPlan] = None
) -> Callable[[str, bool, int, float], list[InvocationRecord]]:
    """Resolve once what no request changes, and return the walk bound to setup and attack.

    Each task reachable from the entry becomes (base duration, jitter,
    quantized memory, edges), each edge (callee, is_sync, route, delay).
    With no jitter on any reachable task, the bills are set here and the walk never draws;
    with whole-number delays too, the timeline is timed here once and each request replays it.
    The attack is checked here against the walk, and an attacked request's rows are rewritten
    before its records are built; a replayed request's attacked rows are rewritten here.
    The walk takes a wire trace id that its caller has minted or validated under setup.
    """
    reachable = [app.task_map[name] for name in dict.fromkeys(t for t, *_ in expected_trace(app))]
    jittered = any(task.jitter_fraction for task in reachable)
    table = {}
    for task in reachable:
        edges = _edges(setup, model, task)
        duration = task.base_duration_ms if jittered else _quantize(task.base_duration_ms)
        table[task.name] = (duration, task.jitter_fraction, _quantize(task.base_memory_mb), edges)

    clean = _timeline(table, app.entry_task, 0.0, None)[0]
    # With no plan, list copies the rows: no request is attacked.
    rewrite = list if attack is None else _attack_rewrite(app, attack, clean)
    attacked_rows, reach = rewrite(clean), -1
    if not jittered and all(delay % 1 == 0 for *_, edges in table.values() for *_, delay in edges):
        # A visit's times are the origin plus bills and delays: while |origin| + span (each visit's
        # bill and delay) <= 2**53, every float sum is exact and the timeline only shifts.
        reach = 2**53 - sum(row[4] for row in clean) - sum(
            int(model.overhead_ms(row[6])) for row in clean[1:])

    def walk(wire_id: str, attacked: bool, seed: int,
             clock_origin_ms: float) -> list[InvocationRecord]:
        if type(clock_origin_ms) is int and abs(clock_origin_ms) <= reach:
            rows, shift = attacked_rows if attacked else clean, clock_origin_ms
        else:
            draw = random.Random(seed).random if jittered else None
            rows, shift = _timeline(table, app.entry_task, float(clock_origin_ms), draw)[0], 0
            if attacked:
                rows = rewrite(rows)
        return [InvocationRecord(wire_id, task, index, caller, shift + start, billed, memory,
                                 route, setup.version)
                for task, index, caller, start, billed, memory, route in rows]

    return walk


def execute_request(
    app: AppSpec,
    setup: FusionSetup,
    trace_id: str,
    attack: Optional[AttackPlan],
    seed: int,
    clock_origin_ms: float,
    model: CostModel = CostModel(),
) -> list[InvocationRecord]:
    """Walk the DAG once and emit one record per task invocation.

    Depth-first from the entry task honoring edge order.  Sync callees
    start when the caller's sequential work reaches the call; async
    callees are dispatched relative to the caller's own start and do not
    extend the caller's path.  Each callee starts after the model's
    overhead for the route of its call.  A given attack is applied, whatever its gate.
    """
    walk = _compile_walk(app, setup, model, attack)
    return walk(parse_and_validate_trace_id(trace_id, setup), attack is not None, seed,
                clock_origin_ms)


@dataclass(frozen=True)
class RequestOutcome:
    """Ground-truth label for one simulated request.

    Only the simulator and the test suite see these; the detection
    pipeline works from records and log lines alone.
    """

    load: int
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
    model: CostModel = CostModel(),
    iteration_offset: int = 0,
) -> LogBatch:
    """Run iterations × request_counts requests with fresh trace IDs.

    The attack is checked against the app before the first request, whatever
    its gate.  The gate its plan names, fires(iteration, request), decides
    which requests are tampered with; iteration_offset shifts the iteration
    index seen by the gate so outer optimization loops can run one
    iteration at a time.
    """
    if iterations < 1:
        raise ParseError("iterations must be >= 1")
    walk = _compile_walk(app, setup, model, attack)
    fires = None if attack is None else ATTACK_GATES[attack.when]
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
                wire_id = generate_trace_id(setup, app.entry_task, randomness)
                attacked = fires is not None and fires(iteration, request_index)
                records.extend(walk(wire_id, attacked, request_seed, serial * REQUEST_SPACING_MS))
                outcomes.append(RequestOutcome(load, wire_id, attacked))
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
