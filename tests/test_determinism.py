"""Byte-identity gate: pinned digests of small seeded optimization runs.

Performance work on the pipeline must not change a single output byte.
These tests pin the SHA-256 of two outputs of one seeded
``run_optimization``: every iteration's evidence store, as persisted and
as left after verification and pruning, and the wire form of the
iteration results.  A third pin covers both outputs of a longer run
whose CSP-1 plan clears and samples.  A digest that moves means an
output moved; update the pin only for a deliberate, documented format
change.
"""

from __future__ import annotations

import hashlib
import json
import re

from fusionproof.handler import FusionSetup
from fusionproof.proofs import ThresholdPolicy
from fusionproof.store import MemoryStore
from fusionproof.verification import (
    SamplingState,
    iteration_result_to_wire,
    run_optimization,
)
from fusionproof.workload import AttackMode, AttackPlan, builtin_tree_app

STORES_SHA256 = "ad78ad0564eda601e7ad6dd8164e3f1267b9a6dba61039a25aa723ee2d86d1b8"
TRACE_SHA256 = "2f3e7d839f5db66f8defe4f2f520e6c1d39517b808ae65155d08bcb1981f1e57"
SAMPLING_SHA256 = "f4335dd05fccae8125c06a29ebbe91f5bb14364474e1a80292af56a0b4531962"

_BILLED = re.compile(rb'"billed":(\d+)')


def store_digest(store: MemoryStore) -> str:
    h = hashlib.sha256()
    for key in store.list(""):
        data = store.get(key)
        h.update(f"{key}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def seeded_run(
    iterations: int = 3, tamper_every: int = 2, sampling: SamplingState | None = None
) -> tuple[list[str], list[MemoryStore], list[dict]]:
    app = builtin_tree_app(2, 2)
    stores: list[MemoryStore] = []
    persisted: list[str] = []

    def store_factory(iteration: int) -> MemoryStore:
        stores.append(MemoryStore())
        return stores[-1]

    def tamper(iteration: int, store: MemoryStore) -> None:
        persisted.append(store_digest(store))
        if iteration % tamper_every == 0:
            key = next(k for k in store.list("") if "/" not in k)
            data = store.get(key)
            billed = list(_BILLED.finditer(data))[2]
            store.put(key, data[: billed.start(1)] + b"12345" + data[billed.end(1):])

    trace = run_optimization(
        app,
        FusionSetup.singletons(app.task_names()),
        iterations=iterations,
        policy=ThresholdPolicy(expected_sequence=app.sync_chain()),
        attack=AttackPlan(AttackMode.DOW, "N0_1_1", 999999),
        seed=2024,
        request_counts=(3, 4),
        sampling=sampling,
        store_factory=store_factory,
        tamper=tamper,
    )
    wire = [iteration_result_to_wire(r) for r in trace.iterations]
    wire.append({"final_setup_part": trace.final_setup.setup_part})
    return persisted, stores, wire


def test_store_contents_are_pinned():
    persisted, stores, _ = seeded_run()
    assert len(persisted) == len(stores) == 3
    after = [store_digest(store) for store in stores]
    combined = hashlib.sha256("".join(persisted + after).encode()).hexdigest()
    assert combined == STORES_SHA256


def test_iteration_results_are_pinned():
    _, _, wire = seeded_run()
    assert any(sum(w.get("pruned_counts", {}).values()) for w in wire)
    payload = json.dumps(wire, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == TRACE_SHA256


def test_a_run_that_samples_is_pinned():
    persisted, stores, wire = seeded_run(12, 4, SamplingState(i=1, f=0.5))
    verdicts = [w["integrity_verified"] for w in wire[:-1]]
    F, T = False, True
    assert verdicts == [F, F, T, None, None, None, T, None, F, F, T, F]
    after = [store_digest(store) for store in stores]
    payload = "".join(persisted + after).encode() + json.dumps(wire, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == SAMPLING_SHA256
