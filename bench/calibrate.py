"""A fixed reference job that measures how fast the host runs right now.

The host this benchmark runs on shares its processors, and its speed
drifts by tens of percent, within seconds and in phases lasting
minutes: every operation of the program, and its CPU time too, slows by
about the same factor.  The benchmark therefore runs this job just
before and just after every measurement and reports times on a
reference host: a measured time multiplied by ``REFERENCE_S`` divided by
the mean of the two calibration times.  A host half as fast doubles both
the operation and the calibration, and the reported time stays put; a
faster program shortens the operation only.

The job is the benchmark's own code and never imports the program, so a
change to the program cannot change it.  It does the kind of work the
program does: build record dicts, encode them as JSON, hash them, fold
the hashes into a Merkle root, parse the JSON back and group records by
key.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter, process_time

# Calibration time on the reference host, in seconds; any fixed value
# would do, this one keeps reported times near those measured here.
REFERENCE_S = 0.1
RECORDS = 1500
ROUNDS = 4


def _job() -> str:
    root = ""
    for round_ in range(ROUNDS):
        records = [
            {"traceid": f"{round_:02d}-{i:06d}", "task": f"N{i % 21}", "idx": i % 7,
             "caller": f"N{(i + 3) % 21}", "start": i * 13, "billed": (i * 7919) % 1000,
             "mem": 128, "route": "sync", "setupv": 1}
            for i in range(RECORDS)
        ]
        level = [hashlib.sha256(json.dumps(r, separators=(",", ":")).encode()).hexdigest()
                 for r in records]
        while len(level) > 1:
            if len(level) % 2:
                level.append(level[-1])
            level = [hashlib.sha256((level[i] + level[i + 1]).encode()).hexdigest()
                     for i in range(0, len(level), 2)]
        groups: dict[str, list[str]] = {}
        for record in json.loads(json.dumps(records)):
            groups.setdefault(record["task"], []).append(record["traceid"].split("-")[1])
        root = hashlib.sha256((level[0] + root + str(len(groups))).encode()).hexdigest()
    return root


EXPECTED = _job()


def calibrate() -> tuple[float, float]:
    """Run the reference job once; return its wall and CPU seconds."""
    wall, cpu = perf_counter(), process_time()
    if _job() != EXPECTED:
        raise RuntimeError("calibration job is not deterministic")
    return perf_counter() - wall, process_time() - cpu


def host_scale(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """Reference-host seconds per measured wall and CPU second.

    before and after are the calibrations just before and just after the
    measured interval: the host's speed changes within seconds, so only
    calibrations next to a measurement describe it.
    """
    return (2 * REFERENCE_S / (before[0] + after[0]),
            2 * REFERENCE_S / (before[1] + after[1]))
