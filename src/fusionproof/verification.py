"""Proof verification, sampling-gated inspection, and fusion optimization.

Closes the loop: check each group's stored records against the leaf
list its Merkle root vouches for, prune records that do not match, gate
how often that check runs with a continuous sampling plan, aggregate
verified measurements, and search for a cheaper fusion setup to run next.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import (
    CorruptGroupFile,
    InvalidHexLeaf,
    MissingMetric,
    NoVerifiedData,
    ParseError,
    StoreWriteFailed,
)
from .handler import (
    FusionSetup,
    entry_fusion_key,
    fusion_key_for_trace,
)
from .proofs import (
    StoredGroup,
    ThresholdPolicy,
    TreeInfo,
    build_merkle_tree,
    filter_batch,
    group_key,
    join_group_file,
    load_setups,
    persist_evidence,
    record_leaf_hashes,
    record_trace_id,
    stored_trace_id,
)
from .store import EvidenceStore, MemoryStore
from .workload import (
    AppSpec,
    AttackPlan,
    CallMode,
    CostModel,
    InvocationRecord,
    expected_trace,
    finish_ms,
    run_workload,
)


# ---------------------------------------------------------------------------
# Verification

def find_mismatch(
    recomputed_leaves: Sequence[str], stored_leaves: Sequence[str]
) -> list[int]:
    """Positions where the recomputed leaf hashes disagree with the proof.

    Any length difference counts as mismatches over the whole tail: an
    extra or missing record is tampering too.  Ascending order.
    """
    shared = min(len(recomputed_leaves), len(stored_leaves))
    out = [p for p in range(shared) if recomputed_leaves[p] != stored_leaves[p]]
    out.extend(range(shared, max(len(recomputed_leaves), len(stored_leaves))))
    return out


class FailureReason(Enum):
    PRUNED = "pruned"  # survivors and their tree; commit rewrites the file
    EMPTY_PROOF = "empty_proof"  # a proof with an empty root: nothing to prune
    CORRUPT = "corrupt"  # the file, or an element to prune, would not parse
    STORE_ERROR = "store_error"  # commit's rewrite failed


@dataclass(frozen=True)
class GroupOutcome:
    """One group file's verdict, reason None for a pass; detail is the
    corrupt or store error's message, survivors the elements a pruned
    group keeps, tree their Merkle tree, and pruned its pruned trace ids."""

    reason: Optional[FailureReason] = None
    detail: str = ""
    survivors: tuple[bytes, ...] = ()
    pruned: tuple[str, ...] = ()
    tree: TreeInfo = TreeInfo.empty()


@dataclass(frozen=True)
class VerificationReport:
    outcomes: Mapping[str, GroupOutcome]

    @property
    def group_results(self) -> dict[str, bool]:
        return {key: o.reason is None for key, o in self.outcomes.items()}

    @property
    def pruned(self) -> dict[str, tuple[str, ...]]:
        return {key: o.pruned for key, o in self.outcomes.items() if o.reason is FailureReason.PRUNED}

    @property
    def integrity_verified(self) -> bool:
        """Every group file passed, and there was at least one."""
        return bool(self.outcomes) and all(o.reason is None for o in self.outcomes.values())


def _verify_group(group: Union[StoredGroup, None, str], anchor: Optional[TreeInfo]) -> GroupOutcome:
    """One group's outcome from its load_setups value and its anchor.  A
    leaf list vouches for no element when the root is empty, or when a
    leaf lies past the last element and so names no trace to prune."""
    if group is None:
        return GroupOutcome()
    if isinstance(group, str):
        return GroupOutcome(FailureReason.CORRUPT, group)
    records, proof = group.records, group.proof
    unvouched: Sequence[int] = range(len(records))  # all, under an empty root
    if proof.root:
        try:
            vouched = proof == anchor or build_merkle_tree(proof.leaves).root == proof.root
        except InvalidHexLeaf:
            vouched = False
        vouched = vouched and len(proof.leaves) <= len(records)
        recomputed = record_leaf_hashes(records)
        unvouched = find_mismatch(recomputed, proof.leaves if vouched else ())
        if vouched and not unvouched:
            return GroupOutcome()
    distinct: dict[bytes, bytes] = {}
    try:
        doomed = dict(record_trace_id(records[p], p) for p in unvouched)
        # Each element's trace id, read once and held once per trace; None if unvouched.
        trace_of = [distinct.setdefault(t, t) for t in map(stored_trace_id, records)]
        for p in unvouched:
            trace_of[p] = None
        hops = Counter(trace_of)
        for t in (None, *doomed):
            hops.pop(t, None)
        # Every trace of a group has as many hops: one with fewer lost a hop.
        most = max(hops.values(), default=0)
        lost = {t for t, n in hops.items() if n < most}
        doomed.update(record_trace_id(records[p], p) for p, t in enumerate(trace_of) if t in lost)
    except CorruptGroupFile as exc:
        return GroupOutcome(FailureReason.CORRUPT, str(exc))
    if not proof.root:
        return GroupOutcome(FailureReason.EMPTY_PROOF)
    kept = [p for p, t in enumerate(trace_of) if hops.get(t) == most]
    return GroupOutcome(FailureReason.PRUNED, "", tuple(records[p] for p in kept),
                        tuple(doomed.values()), build_merkle_tree([recomputed[p] for p in kept]))


def verify_integrity(setups: Mapping[str, Union[StoredGroup, None, str]],
                     anchors: Optional[Mapping[str, TreeInfo]] = None) -> VerificationReport:
    """Decide every group file's outcome from load_setups' map.

    A group load_setups mapped to a reason is corrupt.  A proof with an
    empty root fails with nothing to prune.  Otherwise the stored leaf
    list counts only if it rebuilds the stored root; a list that does not
    count compares as empty.  The group passes when it counts and the
    leaf hash of each record element's bytes, exactly as stored, matches
    it position by position.  Else every record of a trace with an
    element whose leaf does not match is pruned, as filter_batch flags
    whole traces, and so is every trace left with fewer vouched elements
    than the most any trace kept: all traces of a group have as many
    hops.  The outcome holds the rest's bytes, their Merkle tree and each
    pruned trace id once; nothing is written, as commit rewrites the file.
    A group load_setups mapped to None, its bytes those persist sealed,
    passes unread.  A stored proof equal to its anchor, the tree persist
    returned for the group and held outside the store, is not rebuilt.

    Every element the leaf list does not vouch for, and every element of
    a trace that lost a hop, is decoded for its trace id; when one is not,
    whole, a JSON object with a traceid, the group is corrupt.
    """
    anchors = anchors if anchors is not None else {}
    return VerificationReport({k: _verify_group(g, anchors.get(k)) for k, g in setups.items()})


def commit(report: VerificationReport, store: EvidenceStore) -> VerificationReport:
    """Rewrite each pruned group's file over its survivors and tree, in report
    order; a refused rewrite makes the group a STORE_ERROR with the store's message."""
    outcomes = dict(report.outcomes)
    for key, o in report.outcomes.items():
        if o.reason is FailureReason.PRUNED:
            try:
                store.put(group_key(key), join_group_file(o.survivors, o.tree))
            except StoreWriteFailed as exc:
                outcomes[key] = GroupOutcome(FailureReason.STORE_ERROR, str(exc))
    return VerificationReport(outcomes)


# ---------------------------------------------------------------------------
# CSP-1 sampling

@dataclass(frozen=True)
class SamplingState:
    """Continuous sampling plan state.

    Inspect everything until i consecutive conforming items clear, then
    inspect a fraction f at random; any inspected defect restarts the
    clearance from zero.  The plan samples once clearance_count >= i.
    """

    clearance_count: int = 0
    i: int = 10
    f: float = 0.2

    def __post_init__(self) -> None:
        if self.i < 1:
            raise ParseError("clearance number i must be >= 1")
        if not 0.0 < self.f <= 1.0:
            raise ParseError("sampling fraction f must be in (0, 1]")
        if self.clearance_count < 0:
            raise ParseError("clearance_count must be non-negative")


def csp1_step(
    state: SamplingState,
    last_verified: Optional[bool],
    uniform_draw: float,
) -> tuple[bool, SamplingState]:
    """Fold one verdict into the plan and decide the next inspection.

    last_verified is the last iteration's verdict, None when it was not
    inspected.  It is applied first; the inspect-next decision is made
    under the resulting count, so the item right after clearance is
    already subject to sampling.
    """
    count = state.clearance_count
    if last_verified is False:
        count = 0
    elif last_verified and count < state.i:
        count += 1
    return count < state.i or uniform_draw < state.f, SamplingState(count, state.i, state.f)


# ---------------------------------------------------------------------------
# Metrics

def annotate_metrics(
    records: Sequence[InvocationRecord],
    fusion_key: str,
    app: AppSpec,
) -> AppSpec:
    """The measured app: app's tasks with a trusted record, in name order,
    each with its mean bill and mean memory as its base duration and
    memory, no jitter, and its declared calls.

    The records are those a verification pass vouched for under
    fusion_key; only records whose trace id names that group contribute.
    When none do, there is nothing safe to optimize from and
    NoVerifiedData tells the caller to revert.  A record of an undeclared
    task, or an entry or declared callee with no record, is MissingMetric.
    """
    # Records of one trace share its fusion key: derive it once per trace.
    keys = {t: fusion_key_for_trace(t) for t in dict.fromkeys(r.trace_id for r in records)}
    verified = [r for r in records if keys[r.trace_id] == fusion_key]
    if not verified:
        raise NoVerifiedData("no verified groups contributed any records")
    billed: dict[str, list[int]] = {}
    memory: dict[str, list[int]] = {}
    for record in verified:
        billed.setdefault(record.task, []).append(record.billed_duration_ms)
        memory.setdefault(record.task, []).append(record.memory_used_mb)
    undeclared = sorted(billed.keys() - app.task_map.keys())
    if undeclared:
        raise MissingMetric(f"record of undeclared task {undeclared[0]!r}")
    tasks = tuple(replace(app.task_map[t], base_duration_ms=sum(v) / len(v), jitter_fraction=0.0,
                          base_memory_mb=sum(memory[t]) / len(memory[t]))
                  for t, v in sorted(billed.items()))
    unmeasured = sorted({app.entry_task, *(c.callee for t in tasks for c in t.calls)} - set(billed))
    if unmeasured:
        raise MissingMetric(f"no billed mean observed for task {unmeasured[0]!r}")
    return AppSpec(app.name, app.entry_task, tasks)


# ---------------------------------------------------------------------------
# Cost model and candidate search

def estimate_cost(setup: FusionSetup, measured: AppSpec, model: CostModel) -> float:
    """Critical-path latency of one request under `setup`, plus a memory term.

    The measured app's request is timed by the walk's own rule (finish_ms)
    over the mean bills, each call paying the model's overhead for its route
    under `setup`.  The memory term bills each task's mean duration against
    its whole group's memory footprint, scaled by memory_weight.
    """
    cost = finish_ms(measured, setup, model)
    if model.memory_weight:
        task_map, term = measured.task_map, 0.0
        for task in measured.tasks:
            members = [task_map[m] for m in setup.group_of(task.name) if m in task_map]
            term += task.base_duration_ms * sum(member.base_memory_mb for member in members)
        cost += model.memory_weight * term
    return cost


def propose_candidates(setup: FusionSetup, measured: AppSpec) -> list[FusionSetup]:
    """Neighboring setups: merge across sync boundaries, split async calls out.

    Over the measured app's calls by caller and callee: one merge
    candidate per sync call that crosses groups (the callee's group is
    absorbed after the caller's), and one split candidate per async call
    inside a group (the callee moves to a fresh singleton group at the
    end).  Deduplicated, current excluded.
    """
    seen = {setup.setup_part}
    candidates: list[FusionSetup] = []
    # Keyed, as a mode does not order and a task may call one callee twice.
    calls = sorted(((task.name, call.callee, call.mode) for task in measured.tasks
                    for call in task.calls), key=itemgetter(0, 1))
    for caller, callee, mode in calls:
        caller_group = setup.group_index(caller)
        callee_group = setup.group_index(callee)
        # A copy, so that the setup's own groups are never edited.
        groups = [tuple(group) for group in setup.groups]
        if mode is CallMode.SYNC and caller_group != callee_group:
            groups[caller_group] += groups[callee_group]
            del groups[callee_group]
        elif mode is CallMode.ASYNC and caller_group == callee_group:
            # An app has no self-calls, so the caller keeps the group from emptying.
            groups[caller_group] = tuple(n for n in groups[caller_group] if n != callee)
            groups.append((callee,))
        else:
            continue
        candidate = FusionSetup(tuple(groups), setup.version)
        if candidate.setup_part not in seen:
            seen.add(candidate.setup_part)
            candidates.append(candidate)
    return candidates


def optimize_step(
    current: FusionSetup,
    measured: AppSpec,
    model: CostModel,
    history: set[str],
) -> tuple[FusionSetup, float]:
    """Greedy move: adopt the cheapest unvisited neighbor, if any improves,
    and return it with current's estimated cost, the bar it had to beat.

    Ties between equally cheap candidates go to the lexicographically
    smallest setup_part; no strict improvement means staying put.
    """
    bar = estimate_cost(current, measured, model)
    best, best_cost = current, bar
    for candidate in sorted(propose_candidates(current, measured), key=lambda s: s.setup_part):
        if candidate.setup_part in history:
            continue
        cost = estimate_cost(candidate, measured, model)
        if cost < best_cost:
            best, best_cost = candidate, cost
    return best, bar


# ---------------------------------------------------------------------------
# Optimization loop

@dataclass(frozen=True)
class IterationResult:
    iteration: int
    setup_part: str
    estimated_cost_ms: Optional[float]
    group_results: Mapping[str, bool]
    pruned_counts: Mapping[str, int]
    # None when the iteration was not inspected, else the report's verdict.
    integrity_verified: Optional[bool]
    load_stats: Mapping[int, tuple[int, int]]

    @property
    def inspected(self) -> bool:
        return self.integrity_verified is not None

    @property
    def reverted(self) -> bool:
        """Nothing verified reached the optimizer, so the setup reverted."""
        return self.estimated_cost_ms is None


@dataclass(frozen=True)
class OptimizationTrace:
    iterations: tuple[IterationResult, ...]
    final_setup: FusionSetup


def iteration_result_to_wire(result: IterationResult) -> dict:
    return {
        "iteration": result.iteration,
        "setup_part": result.setup_part,
        "estimated_cost_ms": result.estimated_cost_ms,
        "integrity_verified": result.integrity_verified,
        "group_results": dict(result.group_results),
        "pruned_counts": dict(result.pruned_counts),
        "reverted": result.reverted,
        "inspected": result.inspected,
        "load_stats": {str(load): list(pair) for load, pair in result.load_stats.items()},
    }


def run_optimization(
    app: AppSpec,
    initial_setup: FusionSetup,
    iterations: int,
    model: CostModel = CostModel(),
    policy: Optional[ThresholdPolicy] = None,
    attack: Optional[AttackPlan] = None,
    seed: int = 0,
    request_counts: Sequence[int] = (10,),
    sampling: Optional[SamplingState] = None,
    store_factory: Optional[Callable[[int], EvidenceStore]] = None,
    tamper: Optional[Callable[[int, EvidenceStore], None]] = None,
) -> OptimizationTrace:
    """Iterate run → filter → persist → verify → annotate → adopt.

    Each iteration runs the workload under the current setup, persists
    filtered evidence to a fresh store, verifies it once when the sampling
    plan says so (pruning on failure), and feeds the entry group's
    verified or surviving measurements to the optimizer: a survivor counts
    as the persisted record with its leaf hash, and not at all if none has
    it.  A group file that will not parse fails the iteration's
    integrity.  When nothing survives the setup reverts to initial_setup
    for the next iteration.  An inspected entry group is anchored by the
    tree persist returned; a file that still holds the bytes persist wrote
    passes by comparison, without a split or a hash.
    The optional tamper hook mutates the store between persist and verify,
    simulating an attacker with storage access.
    """
    if iterations < 1:
        raise ParseError("iterations must be >= 1")
    policy = policy if policy is not None else ThresholdPolicy(expected_trace(app))
    state = sampling if sampling is not None else SamplingState()
    rng = random.Random(seed)
    iteration_seeds = [rng.getrandbits(64) for _ in range(iterations)]
    draws = [rng.random() for _ in range(iterations)]

    current = initial_setup
    history: set[str] = set()
    results: list[IterationResult] = []
    verified: Optional[bool] = None

    for it in range(iterations):
        history.add(current.setup_part)
        inspect_this, state = csp1_step(state, verified, draws[it])
        batch = run_workload(
            app,
            current,
            request_counts,
            attack,
            iterations=1,
            seed=iteration_seeds[it],
            model=model,
            iteration_offset=it,
        )
        clean, flagged = filter_batch(batch.records, policy)
        flagged_traces = {record.trace_id for record, _ in flagged}
        load_stats: dict[int, tuple[int, int]] = {}
        for outcome in batch.outcomes:
            ok, bad = load_stats.get(outcome.load, (0, 0))
            caught = outcome.trace_id in flagged_traces
            load_stats[outcome.load] = (ok + (not caught), bad + caught)

        store = store_factory(it) if store_factory is not None else MemoryStore()
        fusion_key = entry_fusion_key(current, app.entry_task)
        # The bytes persist wrote, kept only until load_setups compares them.
        seals: Optional[dict[str, bytes]] = {} if inspect_this else None
        tree = persist_evidence(store, fusion_key, clean, seals)
        if tamper is not None:
            tamper(it, store)

        group_results: Mapping[str, bool] = {}
        pruned_counts: dict[str, int] = {}
        # The batch as persisted: trusted when the entry group verifies,
        # and accepted on trust when the sampling plan skips inspection.
        usable_records: Sequence[InvocationRecord] = clean
        verified = None
        if inspect_this:
            setups = load_setups(store, seals)
            report = commit(verify_integrity(setups, {fusion_key: tree}), store)
            group_results = report.group_results
            pruned_counts = {k: len(v) for k, v in report.pruned.items()}
            verified = report.integrity_verified
            entry = report.outcomes.get(fusion_key)
            if entry is None or entry.reason is not None:
                persisted = dict(zip(tree.leaves, clean))
                survivors = entry.tree.leaves if entry else ()
                usable_records = [persisted[h] for h in survivors if h in persisted]
                del persisted, survivors
            # Drop the loaded evidence now rather than when the next
            # iteration's load replaces it, so that two iterations' evidence
            # is never held at once.
            del setups, report, entry

        cost: Optional[float] = None
        try:
            measured = annotate_metrics(usable_records, fusion_key, app)
            proposed, cost = optimize_step(current, measured, model, history)
            if proposed.setup_part != current.setup_part:
                next_setup = replace(proposed, version=current.version + 1)
            else:
                next_setup = current
        except NoVerifiedData:
            next_setup = initial_setup

        results.append(
            IterationResult(
                iteration=it,
                setup_part=current.setup_part,
                estimated_cost_ms=cost,
                group_results=group_results,
                pruned_counts=pruned_counts,
                integrity_verified=verified,
                load_stats=load_stats,
            )
        )
        current = next_setup

    return OptimizationTrace(iterations=tuple(results), final_setup=current)
