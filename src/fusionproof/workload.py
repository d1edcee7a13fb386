"""Task-graph workload simulator.

Executes an application's DAG under a fusion setup with a virtual clock
and a seeded generator, producing platform-style invocation records.
Attack injection lives here, not in the detection pipeline, so that
ground-truth labels stay on the simulator side.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

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


@dataclass(frozen=True)
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


def _quantize(value: float) -> int:
    return max(1, int(round(value)))


def _jittered_duration(task: TaskSpec, rng: random.Random) -> int:
    factor = 1.0 + task.jitter_fraction * (2.0 * rng.random() - 1.0)
    return _quantize(task.base_duration_ms * factor)


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
    wire_id = trace_id.full
    parse_and_validate_trace_id(wire_id, setup)
    rng = random.Random(seed)
    records: list[InvocationRecord] = []
    tasks = app.task_map

    def overhead_for(kind: RouteKind) -> float:
        return remote_overhead_ms if kind is RouteKind.REMOTE else local_overhead_ms

    def visit(name: str, caller: str, start: float, kind: RouteKind) -> float:
        task = tasks[name]
        billed = _jittered_duration(task, rng)
        records.append(
            InvocationRecord(
                trace_id=wire_id,
                task=name,
                chain_index=len(records),
                caller=caller,
                start_ms=int(round(start)),
                billed_duration_ms=billed,
                memory_used_mb=_quantize(task.base_memory_mb),
                route=kind,
                setup_version=setup.version,
            )
        )
        now = start + billed
        async_completions: list[float] = []
        for call in task.calls:
            route = route_call(setup, name, call.callee)
            delay = overhead_for(route)
            if call.mode is CallMode.SYNC:
                now = visit(call.callee, name, now + delay, route)
            else:
                async_completions.append(visit(call.callee, name, start + delay, route))
        return max([now, *async_completions])

    # The entry task itself arrives through the platform's front door.
    visit(app.entry_task, EXTERNAL_CALLER, float(clock_origin_ms), RouteKind.REMOTE)

    if attack is not None:
        records = _apply_attack(app, records, attack)
    return records


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

    @property
    def attacked_trace_ids(self) -> frozenset[str]:
        return frozenset(o.trace_id for o in self.outcomes if o.attacked)


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
                request_records = execute_request(
                    app,
                    setup,
                    trace,
                    attack if attacked else None,
                    request_seed,
                    serial * REQUEST_SPACING_MS,
                    remote_overhead_ms=remote_overhead_ms,
                    local_overhead_ms=local_overhead_ms,
                )
                records.extend(request_records)
                outcomes.append(
                    RequestOutcome(iteration, load, request_index, trace.full, attacked)
                )
                serial += 1
    return LogBatch(records=tuple(records), outcomes=tuple(outcomes))


def emit_platform_logs(records: Iterable[InvocationRecord]) -> list[str]:
    """Render records in the REPORT line grammar, one line per record."""
    return [
        "REPORT traceid={0} task={1} idx={2} caller={3} start={4} billed={5} "
        "mem={6} route={7} setupv={8}".format(
            r.trace_id, r.task, r.chain_index, r.caller, r.start_ms,
            r.billed_duration_ms, r.memory_used_mb, r.route.value, r.setup_version,
        )
        for r in records
    ]


def load_app_spec(document: str) -> AppSpec:
    """Parse a JSON app description into a validated AppSpec.

    Expected shape:
    {"name": ..., "entry_task": ..., "tasks": [{"name": ..., "base_duration_ms": ...,
     "base_memory_mb": ..., "jitter_fraction": ..., "calls": [{"callee": ..., "mode":
     "sync"|"async"}, ...]}, ...]}
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"app document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("app document must be a JSON object")
    return app_spec_from_dict(doc)


def app_spec_from_dict(doc: Mapping) -> AppSpec:
    try:
        name = doc["name"]
        entry_task = doc["entry_task"]
        raw_tasks = doc["tasks"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"app document missing required field: {exc}") from exc
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ParseError("app document needs a non-empty tasks list")
    tasks = []
    for raw in raw_tasks:
        if not isinstance(raw, dict) or "name" not in raw or "base_duration_ms" not in raw:
            raise ParseError(f"bad task entry: {raw!r}")
        calls = []
        for raw_call in raw.get("calls", []):
            if not isinstance(raw_call, dict) or "callee" not in raw_call:
                raise ParseError(f"bad call entry in task {raw['name']!r}: {raw_call!r}")
            mode_text = str(raw_call.get("mode", "sync")).lower()
            try:
                mode = CallMode(mode_text)
            except ValueError as exc:
                raise ParseError(f"bad call mode {mode_text!r}") from exc
            calls.append(CallSpec(raw_call["callee"], mode))
        tasks.append(
            TaskSpec(
                name=raw["name"],
                base_duration_ms=raw["base_duration_ms"],
                base_memory_mb=raw.get("base_memory_mb", 10.0),
                jitter_fraction=raw.get("jitter_fraction", 0.0),
                calls=tuple(calls),
            )
        )
    return AppSpec(name=name, entry_task=entry_task, tasks=tuple(tasks))


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
