"""Smoke test of the benchmark itself, at a tiny input size.

    python3 bench/smoke.py

For every workload it runs ``bench/run.py --scale tiny`` with tracing off
and on, and checks that the last line reports a correct run with every
metric BENCHMARK.json names, in its unit.  It then runs each workload in
this process with one operation's output deliberately corrupted, and
checks that exactly that operation is counted as failed, and runs one
workload traced with a layer boundary that does not exist, which must
fail every traced operation.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_metrics(name: str, trace: int) -> None:
    argv = [sys.executable, str(Path(run.__file__)), "--workload", name, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = last_json_line(proc.stdout)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{name}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0, f"{name} trace={trace} not correct: {proc.stdout}")
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in expected}
    check(set(got) == names, f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(got) ^ names)}")
    for metric in expected:
        check(got[metric["name"]]["unit"] == metric["unit"], f"{name}: unit of {metric['name']}")
        check(isinstance(got[metric["name"]]["value"], (int, float)), f"{name}: value of {metric['name']}")
    print(f"ok  {name} trace={trace}: {len(got)} metrics, {result['attempted']} operations")


def append_space(path: Path) -> None:
    """Corrupt a file so that it still parses but is not what the program wrote."""
    data = path.read_bytes()
    path.write_bytes(data[:-1] + b" " + data[-1:])


def corrupt_records_csv(workload, result):
    append_space(workload.out / "records.csv")
    return result


def corrupt_verification_json(workload, result):
    append_space(workload.out / "verification.json")
    return result


def drop_last_iteration(workload, trace):
    return dataclasses.replace(trace, iterations=trace.iterations[:-1])


CORRUPTIONS = {
    "iot_run": corrupt_records_csv,
    "iot_verify": corrupt_verification_json,
    "tree_optimize": drop_last_iteration,
}


def check_corruption_counted(name: str) -> None:
    cls = workloads.WORKLOADS[name]
    operation = cls.operation
    calls = []

    def corrupting_operation(self):
        result = operation(self)
        calls.append(None)
        return CORRUPTIONS[name](self, result) if len(calls) == 2 else result

    cls.operation = corrupting_operation
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--scale", "tiny"])
    finally:
        cls.operation = operation
    result = last_json_line(stdout.getvalue())
    check(code == 0, f"{name}: corrupted run exited {code}")
    check(result["failed"] == 1 and not result["correct"],
          f"{name}: corrupted output counted as {result['failed']} failed of {result['attempted']}")
    failed_ratio = result["failed"] / result["attempted"]
    print(f"ok  {name}: corrupted output counted, failed_ratio {failed_ratio:.3f}")


def check_missing_boundary_counted() -> None:
    """A layer boundary the tracer cannot find fails every traced operation."""
    functions = tracer.FUNCTIONS
    tracer.FUNCTIONS = functions + (("proofs", "no_such_function", "proofs.no_such_function"),)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "tree_optimize", "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--scale", "tiny"])
    finally:
        tracer.FUNCTIONS = functions
    result = last_json_line(stdout.getvalue())
    traced = (result["attempted"] - 1) // 2
    check(code == 0, f"missing boundary: run exited {code}")
    check(traced >= 1 and result["failed"] == traced and not result["correct"],
          f"missing boundary counted as {result['failed']} failed of {result['attempted']}")
    print(f"ok  missing layer boundary fails all {traced} traced operations")


def main() -> int:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_metrics(name, trace)
        check_corruption_counted(name)
    check_missing_boundary_counted()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
