"""fusionproof benchmark: one seeded workload per process.

    python3 bench/run.py --workload tree_optimize --seed 1 --seconds 45 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, and scratch files go to ``.bench_work/`` beside it and are
removed on exit.  The run sets the workload up, performs one checked
warm-up operation, then repeats the operation until ``--seconds`` have
passed.  Every operation's outputs are checked, digested and compared
with the first operation's; a wrong or non-reproducible result counts as
failed.

With ``--trace 0`` the operations run unwrapped and the end-to-end
metrics are reported.  After each operation the run times a fresh
set-up process.  Each operation and each set-up is bracketed by runs of
the fixed calibration job of ``calibrate.py``, and its time is reported
on the reference host.  With ``--trace 1`` traced and untraced operations
alternate, and the per-layer metrics of the traced ones are reported
together with the tracing overhead.  Human-readable detail comes first;
the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

import workloads
from calibrate import calibrate, host_scale
from tracer import Tracer
from workloads import UNTOUCHED, WORKLOADS, import_fusionproof

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_TIMED_OPS = 4
MIN_LAYER_COVERAGE = 0.9
SETUP_TIMEOUT_S = 120


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Runner:
    def __init__(self, name: str, seed: int, scale: str, workdir: Path) -> None:
        self.cls = WORKLOADS[name]
        self.seed = seed
        self.scale = scale
        self.base = workdir / "base"
        self.setup_dir = workdir / "setup"
        self.main_dir = workdir / "main"
        # Set-up wall seconds, as measured and on the reference host.
        self.setup_samples: list[tuple[float, float]] = []
        self.ops: list[dict] = []
        self.reference: dict | None = None
        self.tracer: Tracer | None = None
        self.missing_spans: list[str] = []

    def set_up(self, trace: bool) -> None:
        self.cls.prepare_base(SRC, self.base, self.seed, self.scale)
        fp = import_fusionproof(SRC)
        workload = self.cls(fp, self.base, self.main_dir, self.seed, self.scale)
        workload.install_taps()
        if trace:
            self.tracer = workload.tracer = Tracer()
            self.missing_spans = self.tracer.install(fp)
        self.workload = workload

    def time_setup(self) -> None:
        """Time one set-up in a fresh process, from its start until it is ready."""
        argv = [sys.executable, workloads.__file__, "setup", str(SRC), str(self.base),
                str(self.setup_dir), self.cls.name, str(self.seed), self.scale]
        before = calibrate()
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = perf_counter() - start
                child.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                child.kill()
                raise
        wall_scale, _ = host_scale(before, calibrate())
        shutil.rmtree(self.setup_dir, ignore_errors=True)
        if line != "ready\n" or child.returncode != 0:
            raise RuntimeError(f"set-up process exited {child.returncode} before it was ready")
        self.setup_samples.append((elapsed, elapsed * wall_scale))

    def tear_down(self) -> None:
        if self.tracer:
            self.tracer.uninstall()
        self.workload.remove_taps()

    def operate(self, timed: bool, traced: bool) -> None:
        workload, tracer = self.workload, self.tracer
        op = {"timed": timed, "traced": traced, "problems": []}
        workload.prepare()
        if tracer:
            tracer.reset()
        gc.collect()
        calibrated = timed and not tracer
        if calibrated:
            before = calibrate()
        cpu = process_time()
        wall = perf_counter()
        try:
            if tracer:
                tracer.active = traced
            result = workload.operation()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            op["problems"].append("operation raised")
            self.ops.append(op)
            return
        finally:
            wall = perf_counter() - wall
            cpu = process_time() - cpu
            if tracer:
                tracer.active = False
            if calibrated:
                op["scale"] = host_scale(before, calibrate())
        op["wall"] = wall - workload.hook_wall
        op["cpu"] = cpu - workload.hook_cpu
        try:
            report = workload.collect(result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            op["problems"].append("outputs could not be read back")
            self.ops.append(op)
            return
        op["records"] = report.records
        op["detection"] = report.detection
        op["problems"] += report.problems
        if traced and self.missing_spans:
            op["problems"].append(f"layer boundaries not found: {', '.join(self.missing_spans)}")
        if self.reference is None:
            self.reference = report.digests
        elif report.digests != self.reference:
            changed = sorted(k for k in report.digests if report.digests[k] != self.reference.get(k))
            op["problems"].append(f"output digest differs from the first operation: {', '.join(changed)}")
        if traced:
            op["layers"] = tracer.metrics(report.records, report.evidence_bytes)
            covered = sum(tracer.layer_self().values())
            op["coverage"] = covered / op["wall"]
            if op["coverage"] < MIN_LAYER_COVERAGE:
                op["problems"].append(f"layer self times cover {op['coverage']:.1%} of the wall time")
        self.ops.append(op)

    def measure(self, seconds: float, trace: bool) -> None:
        self.operate(timed=False, traced=False)
        deadline = perf_counter() + seconds
        count = 0
        while perf_counter() < deadline or count < MIN_TIMED_OPS:
            self.operate(timed=True, traced=trace and count % 2 == 1)
            if not trace:
                self.time_setup()
            count += 1

    # -- reporting -------------------------------------------------------

    def good(self, traced: bool) -> list[dict]:
        return [op for op in self.ops if op["timed"] and op["traced"] == traced and not op["problems"]]

    def detection(self) -> dict[tuple[str, int], Counter]:
        table: dict[tuple[str, int], Counter] = {}
        for op in self.ops:
            for key, row in op.get("detection", {}).items():
                table.setdefault(key, Counter()).update(row)
        return table

    def end_to_end(self) -> tuple[dict[str, float], dict[str, str]]:
        ops = self.good(traced=False)
        table = self.detection().items()
        touched = sum(r["traces"] for (mode, _), r in table if mode != UNTOUCHED)
        untouched = sum(r["traces"] for (mode, _), r in table if mode == UNTOUCHED)
        found = sum(r["tp"] for _, r in table)
        false = sum(r["fp"] for _, r in table)
        throughput = [op["records"] / (op["wall"] * op["scale"][0]) for op in ops]
        cpu = [op["cpu"] * op["scale"][1] for op in ops]
        setup = [scaled for _, scaled in self.setup_samples]
        values = {
            "records_per_s": statistics.median(throughput) if ops else 0.0,
            "cpu_s": statistics.median(cpu) if ops else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "detect_recall": found / touched if touched else 0.0,
            "specificity": 1 - false / untouched if untouched else 0.0,
        }
        notes = {}
        for name, samples in (("records_per_s", throughput), ("cpu_s", cpu), ("setup_s", setup)):
            if samples:
                q1, _, q3 = quartiles(samples)
                notes[name] = f"q1={q1:.6g} q3={q3:.6g} n={len(samples)}"
        if ops:
            notes["host_scale"] = (
                f"wall={statistics.median(op['scale'][0] for op in ops):.6g} "
                f"cpu={statistics.median(op['scale'][1] for op in ops):.6g} "
                f"(median reference-host s per measured s)")
            notes["measured"] = (
                f"records_per_s={statistics.median(op['records'] / op['wall'] for op in ops):.6g} "
                f"cpu_s={statistics.median(op['cpu'] for op in ops):.6g} "
                f"setup_s={statistics.median(m for m, _ in self.setup_samples):.6g}")
        print(f"false_flag_ratio {false / untouched if untouched else 0.0:.6g} ratio "
              f"({false} of {untouched} untouched traces)")
        print(f"failed_ratio {self.failed / len(self.ops):.6g} ratio "
              f"({self.failed} of {len(self.ops)} operations)")
        return values, notes

    def per_layer(self) -> dict[str, float]:
        traced, untraced = self.good(traced=True), self.good(traced=False)
        if not traced:
            return {}
        values = {name: statistics.median(op["layers"][name] for op in traced)
                  for name in traced[0]["layers"]}
        traced_wall = statistics.median(op["wall"] for op in traced)
        values["trace.coverage"] = statistics.median(op["coverage"] for op in traced)
        values["trace.traced_wall_s"] = traced_wall
        if untraced:
            untraced_wall = statistics.median(op["wall"] for op in untraced)
            values["trace.untraced_wall_s"] = untraced_wall
            values["trace.overhead_s"] = traced_wall - untraced_wall
        return values

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["problems"])

    def print_detail(self) -> None:
        print(f"workload {self.cls.name} seed {self.seed} scale {self.scale}: "
              f"{len(self.ops)} operations (1 warm-up), {self.failed} failed")
        for index, op in enumerate(self.ops):
            for problem in op["problems"]:
                print(f"  operation {index} failed: {problem}")
        print("detection by attack mode x load (traces, true positives, false negatives, false positives):")
        for (mode, load), row in sorted(self.detection().items()):
            print(f"  {mode:<13} load {load:<4} traces {row['traces']:<6} tp {row['tp']:<6} "
                  f"fn {row['fn']:<4} fp {row['fp']}")
        for name, digest in sorted((self.reference or {}).items()):
            print(f"sha256 {name} {digest}")
        if self.missing_spans:
            print(f"layer boundaries not found: {', '.join(self.missing_spans)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "fusionproof" / "__init__.py").is_file():
        print(f"bench: no fusionproof sources in {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, args.scale, workdir)
    try:
        runner.set_up(bool(args.trace))
        try:
            runner.measure(args.seconds, bool(args.trace))
        finally:
            runner.tear_down()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    runner.print_detail()
    if args.trace:
        values = runner.per_layer()
    else:
        values, notes = runner.end_to_end()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, note in notes.items():
            print(f"{name} {note}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": len(runner.ops),
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
