"""Every layer boundary the traced benchmark wraps still exists.

``bench/tracer.py`` wraps fusionproof functions at the place each caller
looks them up, for example ``verification.fusion_key_for_trace``.  A
refactor that drops one of those names makes every traced benchmark
operation fail; this test makes it fail here instead.  The tracer's
tables are read with ``runpy``, which leaves ``sys.path``,
``sys.modules`` and the ``bench/`` directory as they were.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

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
