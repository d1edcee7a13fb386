"""Every layer boundary the traced benchmark wraps still exists.

``bench/tracer.py`` wraps fusionproof functions at the place each caller
looks them up, for example ``verification.fusion_key_for_trace``.  A
refactor that drops one of those names makes every traced benchmark
operation fail; this test makes it fail here instead.  The tracer's
tables are read with ``runpy``, which leaves ``sys.path``,
``sys.modules`` and the ``bench/`` directory as they were.  Counting
wrappers on the same names check that the work still passes through
them, so a speed-up cannot route around a counter unseen.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

from fusionproof import proofs, verification
from fusionproof.handler import FusionSetup
from fusionproof.proofs import load_setups
from fusionproof.store import MemoryStore
from fusionproof.workload import builtin_iot_app, run_workload

TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))


def test_every_wrapped_boundary_exists():
    boundaries = [(m, a) for m, a, _ in TRACER["FUNCTIONS"] + TRACER["COUNTED"]]
    boundaries += [
        ("store", f"{cls}.{method}")
        for cls in TRACER["STORE_CLASSES"]
        for method in TRACER["STORE_METHODS"]
    ]
    missing = []
    for module, attribute in boundaries:
        owner = importlib.import_module(f"fusionproof.{module}")
        for part in attribute.split("."):
            if not hasattr(owner, part):
                missing.append(f"{module}.{attribute}")
                break
            owner = getattr(owner, part)
    assert missing == []


def test_wrapped_boundaries_see_every_call(monkeypatch):
    """The benchmark's counters sit on these names; the work must pass them.

    A group of odd size n with one tampered record costs n encodes, all
    in persist: verification hashes and rewrites the stored bytes and
    encodes nothing.  One Merkle build in persist, and two in
    verification: the stored leaf list, and the survivors.
    """
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            key = f"{module.__name__}.{name}"
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    app = builtin_iot_app()
    setup = FusionSetup.fused([app.task_names()])
    records = run_workload(app, setup, [3], None, iterations=1, seed=5).records
    n = len(records)
    assert n % 2 == 1
    for module, name in (
        (proofs, "canonical_record_bytes"),
        (proofs, "build_merkle_tree"),
        (verification, "build_merkle_tree"),
        (verification, "record_leaf_hashes"),
    ):
        count(module, name)

    store = MemoryStore()
    proofs.persist_evidence(store, "CW.SE.CS.CT.CA", records)
    original = store.get("CW.SE.CS.CT.CA.json")
    tampered = original.replace(b'"billed":37', b'"billed":38', 1)
    assert tampered != original
    store.put("CW.SE.CS.CT.CA.json", tampered)
    report = verification.commit(verification.verify_integrity(load_setups(store)), store)

    assert not report.integrity_verified
    # The tampered record's five-hop trace is pruned whole.
    assert len(report.outcomes["CW.SE.CS.CT.CA"].survivors) == n - 5
    assert calls == {
        "fusionproof.proofs.canonical_record_bytes": n,
        "fusionproof.proofs.build_merkle_tree": 1,
        "fusionproof.verification.build_merkle_tree": 2,
        "fusionproof.verification.record_leaf_hashes": 1,
    }
