"""Spans and counters recorded around fusionproof's layers, from outside.

The program carries no instrumentation of its own, so the traced run
replaces module attributes and store methods with timing wrappers at the
place each caller looks them up (``fusionproof.cli.persist_evidence``,
``FileStore.put`` and so on) and restores them afterwards.  Spans are
aggregated in memory per name: call count, total time and self time, the
last being the span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter

LAYERS = ("handler", "workload", "proofs", "store", "verification", "cli")

# (module, attribute, span name).  A function imported by name into
# another module is listed once per module that calls it from there.
FUNCTIONS = (
    # The operations the benchmark times: every other span nests in one.
    ("cli", "main", "cli.main"),
    ("verification", "run_optimization", "verification.run_optimization"),
    ("handler", "split_trace_id", "handler.split_trace_id"),
    ("handler", "parse_and_validate_trace_id", "handler.parse_and_validate_trace_id"),
    ("workload", "parse_and_validate_trace_id", "handler.parse_and_validate_trace_id"),
    ("verification", "fusion_key_for_trace", "handler.fusion_key_for_trace"),
    ("workload", "route_call", "handler.route_call"),
    ("cli", "run_workload", "workload.run_workload"),
    ("verification", "run_workload", "workload.run_workload"),
    ("workload", "execute_request", "workload.execute_request"),
    ("cli", "filter_batch", "proofs.filter_batch"),
    ("verification", "filter_batch", "proofs.filter_batch"),
    ("proofs", "record_leaf_hashes", "proofs.record_leaf_hashes"),
    ("verification", "record_leaf_hashes", "proofs.record_leaf_hashes"),
    ("proofs", "build_merkle_tree", "proofs.build_merkle_tree"),
    ("verification", "build_merkle_tree", "proofs.build_merkle_tree"),
    ("cli", "persist_evidence", "proofs.persist_evidence"),
    ("verification", "persist_evidence", "proofs.persist_evidence"),
    ("cli", "load_setups", "store.load_setups"),
    ("verification", "load_setups", "store.load_setups"),
    ("cli", "verify_integrity", "verification.verify_integrity"),
    ("verification", "verify_integrity", "verification.verify_integrity"),
    ("verification", "annotate_metrics", "verification.annotate_metrics"),
    ("verification", "estimate_cost", "verification.estimate_cost"),
    ("verification", "propose_candidates", "verification.propose_candidates"),
    ("verification", "optimize_step", "verification.optimize_step"),
)

STORE_CLASSES = ("FileStore", "MemoryStore")
STORE_METHODS = ("put", "get", "delete", "list")

# Called tens of thousands of times per operation: counted, not timed,
# so their time stays in the calling span's self time.
COUNTED = (("proofs", "canonical_record_bytes", "proofs.canonical_encodes"),)

# The optimizer loop's own code between its calls into the layers
# belongs to no layer: it is left out of the layer totals, so coverage
# shows how much of an operation the layer spans account for.
UNATTRIBUTED = ("verification.run_optimization",)

OPTIMIZER_SPANS = (
    "verification.estimate_cost",
    "verification.propose_candidates",
    "verification.optimize_step",
)
TRACE_VALIDATE_SPANS = (
    "handler.split_trace_id",
    "handler.parse_and_validate_trace_id",
    "handler.fusion_key_for_trace",
)


def patch(restore: list, owner, attribute: str, replacement) -> None:
    """Set owner.attribute to replacement, noting in restore how to undo it."""
    restore.append((owner, attribute, getattr(owner, attribute)))
    setattr(owner, attribute, replacement)


def release(restore: list) -> None:
    """Undo the patches noted in restore, newest first."""
    while restore:
        owner, attribute, original = restore.pop()
        setattr(owner, attribute, original)


def _observe_run_workload(tracer, args, result):
    tracer.counts["workload.records"] += len(result.records)
    tracer.counts["workload.traces"] += len(result.outcomes)


def _observe_filter(tracer, args, result):
    tracer.counts["proofs.flagged_records"] += len(result[1])


def _observe_verify(tracer, args, result):
    tracer.counts["verification.groups_failed"] += sum(
        1 for ok in result.group_results.values() if not ok
    )
    tracer.counts["verification.pruned_traces"] += len(
        {trace for ids in result.pruned.values() for trace in ids}
    )


def _observe_annotate(tracer, args, result):
    tracer.counts["verification.annotated_records"] += len(args[0])


def _observe_put(tracer, args, result):
    tracer.counts["store.put_bytes"] += len(args[2])
    tracer.put_keys.add(args[1])


def _observe_get(tracer, args, result):
    tracer.counts["store.get_bytes"] += len(result)


def _observe_list(tracer, args, result):
    tracer.counts["store.list_keys"] += len(result)


OBSERVERS = {
    "workload.run_workload": _observe_run_workload,
    "proofs.filter_batch": _observe_filter,
    "verification.verify_integrity": _observe_verify,
    "verification.annotate_metrics": _observe_annotate,
    "store.put": _observe_put,
    "store.get": _observe_get,
    "store.list": _observe_list,
}


class Tracer:
    """Per-name span aggregates plus counters; records only while active."""

    def __init__(self) -> None:
        self.active = False
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.put_keys: set[str] = set()
        # Child-time accumulators of the open spans; the first entry is a
        # sentinel that collects the time of top-level spans.
        self._stack = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.put_keys.clear()
        self._stack[:] = [0.0]

    def span(self, name, fn):
        """Wrap fn so that each call while active is recorded under name."""
        observe = OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                stack[-1] += duration
                record = spans.get(name)
                if record is None:
                    record = spans[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - child
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Let calls made by the benchmark itself pass unrecorded."""
        was_active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was_active

    def install(self, fp) -> list[str]:
        """Wrap every layer boundary in the fusionproof modules of fp.

        fp maps module names to imported modules.  Returns the boundaries
        that no longer exist; while any is missing, every traced
        operation counts as failed.
        """
        missing = []
        for module_name, attribute, name in FUNCTIONS:
            module = fp[module_name]
            if not hasattr(module, attribute):
                missing.append(f"{module_name}.{attribute}")
                continue
            patch(self._restore, module, attribute, self.span(name, getattr(module, attribute)))
        for class_name in STORE_CLASSES:
            cls = getattr(fp["store"], class_name)
            for method in STORE_METHODS:
                patch(self._restore, cls, method, self.span(f"store.{method}", getattr(cls, method)))
        for module_name, attribute, name in COUNTED:
            module = fp[module_name]
            if not hasattr(module, attribute):
                missing.append(f"{module_name}.{attribute}")
                continue
            patch(self._restore, module, attribute, self.counter(name, getattr(module, attribute)))
        return missing

    def uninstall(self) -> None:
        release(self._restore)

    def _self(self, *names: str) -> float:
        return sum(self.spans[n][2] for n in names if n in self.spans)

    def _calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def layer_self(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, _total, self_time) in self.spans.items():
            layer = name.split(".", 1)[0]
            if layer in totals and name not in UNATTRIBUTED:
                totals[layer] += self_time
        return totals

    def metrics(self, records: int, evidence_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced operation handling `records` records."""
        c = self.counts
        puts = self._calls("store.put")
        layers = self.layer_self()
        out = {
            "handler.trace_validate_calls": self._calls("handler.split_trace_id"),
            "handler.trace_validate_s": self._self(*TRACE_VALIDATE_SPANS),
            "handler.route_call_calls": self._calls("handler.route_call"),
            "handler.route_call_s": self._self("handler.route_call"),
            "workload.walk_s": self._self("workload.run_workload", "workload.execute_request"),
            "workload.records": c["workload.records"],
            "workload.traces": c["workload.traces"],
            "proofs.filter_s": self._self("proofs.filter_batch"),
            "proofs.flagged_records": c["proofs.flagged_records"],
            "proofs.canonical_encodes": c["proofs.canonical_encodes"],
            "proofs.encodes_per_record": c["proofs.canonical_encodes"] / records,
            "proofs.leaf_hash_s": self._self("proofs.record_leaf_hashes"),
            "proofs.merkle_s": self._self("proofs.build_merkle_tree"),
            "proofs.merkle_builds": self._calls("proofs.build_merkle_tree"),
            "proofs.persist_s": self._self("proofs.persist_evidence"),
            "store.puts": puts,
            "store.put_s": self._self("store.put"),
            "store.put_bytes": c["store.put_bytes"],
            "store.useful_put_ratio": len(self.put_keys) / puts if puts else 0.0,
            "store.gets": self._calls("store.get"),
            "store.get_bytes": c["store.get_bytes"],
            "store.deletes": self._calls("store.delete"),
            "store.delete_s": self._self("store.delete"),
            "store.list_s": self._self("store.list"),
            "store.list_keys": c["store.list_keys"],
            "store.load_setups_s": self._self("store.load_setups"),
            "store.evidence_bytes": evidence_bytes,
            "verification.verify_s": self._self("verification.verify_integrity"),
            "verification.groups_failed": c["verification.groups_failed"],
            "verification.pruned_traces": c["verification.pruned_traces"],
            "verification.annotate_s": self._self("verification.annotate_metrics"),
            "verification.optimize_s": self._self(*OPTIMIZER_SPANS),
            "verification.estimate_calls": self._calls("verification.estimate_cost"),
            "verification.usable_record_ratio": c["verification.annotated_records"] / records,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layers[layer]
        return out
