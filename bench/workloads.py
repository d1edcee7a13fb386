"""The three benchmark workloads: inputs, the timed operation, and checks.

Each workload is built from the run's seed, runs one operation per call
to ``operation()``, and afterwards ``collect()`` reads the operation's
outputs back, checks them, digests them and scores detection against the
benchmark's own ground truth: the simulator's ``LogBatch.outcomes``
(captured where the pipeline looks ``run_workload`` up) and the list of
records the benchmark itself tampered with.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from tracer import patch, release

MODULES = ("handler", "workload", "proofs", "store", "verification", "cli")

# Sizes per scale: "full" is the benchmark, "tiny" is for the smoke test.
IOT_SIZES = {"full": ((100, 200, 300), 7), "tiny": ((5, 10), 2)}
TREE_SIZES = {"full": ((50, 100), 8), "tiny": ((5, 10), 3)}

# Share of the group file's records that iot_verify alters, one per trace.
VERIFY_TAMPER_FRACTION = 0.01
# tree_optimize alters one stored record on every this-many-th iteration.
TREE_TAMPER_EVERY = 3

DOW = "dow"
STORE_TAMPER = "store_tamper"
UNTOUCHED = "none"

# Wire-format landmarks of a stored record (README "group file" format).
_RECORD = re.compile(rb'\{"traceid":"([^"]+)"')
_BILLED = re.compile(rb'"billed":(\d+)')


def import_fusionproof(src: Path) -> dict:
    """Import the fusionproof modules from src, and from nowhere else."""
    sys.path.insert(0, str(src))
    package = importlib.import_module("fusionproof")
    if Path(package.__file__).resolve().parent != src / "fusionproof":
        raise ImportError(f"fusionproof imported from {package.__file__}, not {src}")
    return {name: importlib.import_module(f"fusionproof.{name}") for name in MODULES}


def capture(restore: list, owner, attribute: str, sink) -> None:
    """Replace owner.attribute by a pass-through that hands each result to sink."""
    original = getattr(owner, attribute)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        sink(result)
        return result

    patch(restore, owner, attribute, wrapper)


def find_records(data: bytes) -> dict[bytes, list[int]]:
    """Start offsets of the stored records in data, by trace ID."""
    positions: dict[bytes, list[int]] = {}
    for match in _RECORD.finditer(data):
        positions.setdefault(match.group(1), []).append(match.start())
    return positions


def tamper_records(data: bytes, positions: dict[bytes, list[int]], rng: random.Random,
                   traces: int) -> tuple[bytes, set[str]]:
    """Raise the billed duration of one record in each of `traces` seeded traces.

    Works on the bytes, as an attacker with write access would, so the
    file stays valid JSON and only the proof can tell.  Returns the
    altered bytes and the tampered trace IDs.
    """
    edits = []
    chosen = rng.sample(sorted(positions), traces)
    for trace in chosen:
        billed = _BILLED.search(data, rng.choice(positions[trace]))
        value = int(billed.group(1)) + rng.randint(1, 1000)
        edits.append((billed.start(1), billed.end(1), str(value).encode()))
    edits.sort()
    pieces, cursor = [], 0
    for start, end, text in edits:
        pieces += [data[cursor:start], text]
        cursor = end
    pieces.append(data[cursor:])
    return b"".join(pieces), {t.decode() for t in chosen}


def digest_files(root: Path) -> tuple[str, int]:
    """Digest of the relative paths and bytes of the files under root, and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest(), size


def digest_store(store) -> tuple[str, int]:
    """Digest of a store's keys and bytes, and the bytes it holds."""
    h = hashlib.sha256()
    size = 0
    for key in store.list(""):
        data = store.get(key)
        size += len(data)
        h.update(f"{key}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest(), size


def file_stats(root: Path) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file under root, by relative path."""
    stats = {}
    for directory, _, files in os.walk(root):
        for name in files:
            stat = os.stat(os.path.join(directory, name))
            rel = os.path.relpath(os.path.join(directory, name), root)
            stats[rel] = (stat.st_size, stat.st_mtime_ns)
    return stats


@dataclass
class OpReport:
    """What one operation produced, read back after the timed region."""

    records: int
    digests: dict[str, str]
    evidence_bytes: int
    problems: list[str] = field(default_factory=list)
    # (mode, load) -> Counter of traces, tp, fn, fp
    detection: dict[tuple[str, int], Counter] = field(default_factory=dict)

    def score(self, loads: dict[str, int], touched: dict[str, str], caught: set[str],
              universe: set[str]) -> None:
        """Tally detection for every trace in universe and check it is exact."""
        for trace in universe:
            mode = touched.get(trace, UNTOUCHED)
            row = self.detection.setdefault((mode, loads[trace]), Counter())
            row["traces"] += 1
            if mode == UNTOUCHED:
                row["fp"] += trace in caught
            else:
                row["tp" if trace in caught else "fn"] += 1
        missed = sum(r["fn"] for r in self.detection.values())
        false = sum(r["fp"] for r in self.detection.values())
        if missed or false:
            self.problems.append(f"detection: {missed} touched traces missed, {false} untouched flagged")
        if caught - universe:
            self.problems.append(f"{len(caught - universe)} flagged traces were never simulated")


def scenario(app: str, counts, iterations: int, attack: dict, seed: int, **extra) -> dict:
    return {"app": app, "initial_setup": "split", "request_counts": list(counts),
            "iterations": iterations, "attack": attack, "seed": seed, **extra}


def iot_scenario(seed: int, scale: str) -> dict:
    counts, iterations = IOT_SIZES[scale]
    attack = {"mode": "dow", "target_task": "SE", "when": "odd_iterations"}
    return scenario("iot", counts, iterations, attack, seed)


class Workload:
    name = ""
    tracer = None
    hook_wall = 0.0
    hook_cpu = 0.0

    def __init__(self, fp: dict, base: Path, workdir: Path, seed: int, scale: str) -> None:
        """Build the workload's inputs in workdir from those in base; timed as set-up."""
        self.fp = fp
        self.seed = seed
        self._restore: list = []
        workdir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def prepare_base(src: Path, base: Path, seed: int, scale: str) -> None:
        """Build the inputs that set-up starts from, once per run; none by default."""

    def install_taps(self) -> None:
        """Capture the ground truth the checks need; none by default."""

    def remove_taps(self) -> None:
        release(self._restore)

    def prepare(self) -> None:
        """Untimed: bring the inputs to their starting state."""

    def operation(self):
        raise NotImplementedError

    def collect(self, result) -> OpReport:
        raise NotImplementedError


class IotRun(Workload):
    """CLI ``run`` of the iot scenario onto a FileStore."""

    name = "iot_run"

    def __init__(self, fp, base, workdir, seed, scale):
        super().__init__(fp, base, workdir, seed, scale)
        self.config = workdir / "iot_run.json"
        self.config.write_text(json.dumps(iot_scenario(seed, scale)))
        self.store = workdir / "run_store"
        self.out = workdir / "run_out"
        self.argv = ["run", "--config", str(self.config), "--store", str(self.store),
                     "--output", str(self.out)]
        self.batches: list = []

    def install_taps(self):
        capture(self._restore, self.fp["cli"], "run_workload", self.batches.append)

    def prepare(self):
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.rmtree(self.out, ignore_errors=True)
        self.batches.clear()

    def operation(self):
        return self.fp["cli"].main(self.argv)

    def collect(self, code):
        records_csv = (self.out / "records.csv").read_bytes()
        flagged_csv = (self.out / "flagged.csv").read_bytes()
        store_digest, store_size = digest_files(self.store)
        report = OpReport(
            records=sum(len(b.records) for b in self.batches),
            digests={"records.csv": hashlib.sha256(records_csv).hexdigest(),
                     "flagged.csv": hashlib.sha256(flagged_csv).hexdigest(),
                     "store": store_digest},
            evidence_bytes=store_size,
        )
        if code != 0:
            report.problems.append(f"exit code {code}, expected 0")
        if len(self.batches) != 1:
            report.problems.append(f"{len(self.batches)} workload batches, expected 1")
            return report
        outcomes = self.batches[0].outcomes
        rows = list(csv.reader(records_csv.decode().splitlines()))[1:]
        if len(rows) != report.records:
            report.problems.append(f"records.csv has {len(rows)} rows for {report.records} records")
        flagged = {row[0] for row in list(csv.reader(flagged_csv.decode().splitlines()))[1:]}
        report.score(
            loads={o.trace_id: o.load for o in outcomes},
            touched={o.trace_id: DOW for o in outcomes if o.attacked},
            caught=flagged,
            universe={o.trace_id for o in outcomes},
        )
        return report


def make_verify_store(src: str, config: str, store: str, out: str, loads: str) -> int:
    """Run the iot scenario once and record each trace's load (own process).

    Kept out of the measuring process so that its memory peak is not
    charged to iot_verify's peak_rss_mb.
    """
    cli = import_fusionproof(Path(src))["cli"]
    batches: list = []
    capture([], cli, "run_workload", batches.append)
    code = cli.main(["run", "--config", config, "--store", store, "--output", out])
    Path(loads).write_text(json.dumps({o.trace_id: o.load for o in batches[0].outcomes}))
    return code


class IotVerify(Workload):
    """CLI ``verify`` over a tampered copy of the iot_run store."""

    name = "iot_verify"

    @staticmethod
    def prepare_base(src, base, seed, scale):
        base.mkdir(parents=True, exist_ok=True)
        config = base / "iot_base.json"
        config.write_text(json.dumps(iot_scenario(seed, scale)))
        paths = [base / name for name in ("base_store", "base_out", "base_loads.json")]
        subprocess.run(
            [sys.executable, str(Path(__file__)), "store", str(src), str(config), *map(str, paths)],
            check=True,
            timeout=120,
        )

    def __init__(self, fp, base, workdir, seed, scale):
        """Tamper with copies of the base store's group files (set-up).

        The tampered group files go to an overlay directory.  With the
        base store's block files they make the store every verify starts
        from.
        """
        super().__init__(fp, base, workdir, seed, scale)
        self.loads = json.loads((base / "base_loads.json").read_text())
        self.base = base / "base_store"
        self.overlay = workdir / "verify_overlay"
        self.store = workdir / "verify_store"
        self.out = workdir / "verify_out"
        self.argv = ["verify", "--store", str(self.store), "--output", str(self.out)]
        for path in (self.overlay, self.store):
            shutil.rmtree(path, ignore_errors=True)
        self.overlay.mkdir()
        rng = random.Random(f"{self.name}:{self.seed}")
        self.tampered: set[str] = set()
        self.traces: set[str] = set()
        self.records = 0
        for group in sorted(p for p in self.base.glob("*.json") if p.is_file()):
            data = group.read_bytes()
            positions = find_records(data)
            records = sum(len(p) for p in positions.values())
            count = max(1, round(VERIFY_TAMPER_FRACTION * records))
            data, tampered = tamper_records(data, positions, rng, count)
            (self.overlay / group.name).write_bytes(data)
            self.traces |= {t.decode() for t in positions}
            self.tampered |= tampered
            self.records += records
        self.overlaid = file_stats(self.overlay)
        self.snapshot = {**file_stats(self.base), **self.overlaid}

    def prepare(self):
        """Make the store equal to base plus overlay again, copying only what differs.

        Copies keep their source's mtime, so a file verify rewrote or
        deleted shows up as a size or mtime change.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        current = file_stats(self.store) if self.store.exists() else {}
        for rel in current.keys() - self.snapshot.keys():
            (self.store / rel).unlink()
        for rel, stat in self.snapshot.items():
            if current.get(rel) != stat:
                source = self.overlay if rel in self.overlaid else self.base
                (self.store / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source / rel, self.store / rel)

    def operation(self):
        return self.fp["cli"].main(self.argv)

    def collect(self, code):
        verification = (self.out / "verification.json").read_bytes()
        store_digest, store_size = digest_files(self.store)
        report = OpReport(
            records=self.records,
            digests={"verification.json": hashlib.sha256(verification).hexdigest(),
                     "store": store_digest},
            evidence_bytes=store_size,
        )
        if code != 1:
            report.problems.append(f"exit code {code}, expected 1 on a tampered store")
        doc = json.loads(verification)
        if doc.get("integrity_verified") is not False:
            report.problems.append("tampered store reported as verified")
        pruned = {t for ids in doc.get("pruned", {}).values() for t in ids}
        report.score(
            loads=self.loads,
            touched={t: STORE_TAMPER for t in self.tampered},
            caught=pruned,
            universe=self.traces,
        )
        return report


class TreeOptimize(Workload):
    """``run_optimization`` on tree(4,2) with a MemoryStore and a tamper hook."""

    name = "tree_optimize"

    def __init__(self, fp, base, workdir, seed, scale):
        super().__init__(fp, base, workdir, seed, scale)
        counts, iterations = TREE_SIZES[scale]
        cli = fp["cli"]
        attack = {"mode": "dow", "target_task": "N0_3_3", "when": "first_request"}
        config = cli.config_from_dict(
            scenario("tree", counts, iterations, attack, seed, app_params={"fanout": 4, "depth": 2})
        )
        app = cli.build_app(config)
        self.kwargs = dict(
            app=app,
            initial_setup=cli.build_setup(config, app),
            iterations=config.iterations,
            policy=cli.build_policy(config, app),
            attack=cli.build_attack(config),
            seed=seed,
            request_counts=config.request_counts,
        )
        self.outcomes: list = []
        self.flagged: set[str] = set()
        self.pruned: set[str] = set()

    def install_taps(self):
        verification = self.fp["verification"]
        capture(self._restore, verification, "run_workload",
                lambda batch: self.outcomes.append((batch.outcomes, len(batch.records))))
        capture(self._restore, verification, "filter_batch",
                lambda result: self.flagged.update(r.trace_id for r, _ in result[1]))
        capture(self._restore, verification, "verify_integrity",
                lambda report: self.pruned.update(t for ids in report.pruned.values() for t in ids))

    def prepare(self):
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self.outcomes.clear()
        self.flagged.clear()
        self.pruned.clear()
        self.tampered: set[str] = set()
        self.store_digests: list[str] = []
        self.evidence_bytes = 0
        self.hook_wall = self.hook_cpu = 0.0

    def hook(self, iteration, store):
        """Digest the freshly persisted store, then tamper on every third iteration.

        Runs inside the timed call; its own time is taken out again.
        """
        wall, cpu = perf_counter(), process_time()
        paused = self.tracer.paused() if self.tracer else contextlib.nullcontext()
        with paused:
            digest, size = digest_store(store)
            self.store_digests.append(digest)
            self.evidence_bytes += size
            if iteration % TREE_TAMPER_EVERY == 0:
                key = next(k for k in store.list("") if "/" not in k)
                data = store.get(key)
                data, tampered = tamper_records(data, find_records(data), self.rng, 1)
                store.put(key, data)
                self.tampered |= tampered
        self.hook_cpu += process_time() - cpu
        self.hook_wall += perf_counter() - wall

    def operation(self):
        hook = self.tracer.span("bench.hook", self.hook) if self.tracer else self.hook
        return self.fp["verification"].run_optimization(**self.kwargs, tamper=hook)

    def collect(self, trace):
        verification = self.fp["verification"]
        wire = json.dumps(
            {"iterations": [verification.iteration_result_to_wire(r) for r in trace.iterations],
             "final_setup_part": trace.final_setup.setup_part},
            sort_keys=True,
        ).encode()
        report = OpReport(
            records=sum(n for _, n in self.outcomes),
            digests={"optimization_trace": hashlib.sha256(wire).hexdigest(),
                     "stores": hashlib.sha256("".join(self.store_digests).encode()).hexdigest()},
            evidence_bytes=self.evidence_bytes,
        )
        outcomes = [o for batch, _ in self.outcomes for o in batch]
        bad = sum(b for r in trace.iterations for _, b in r.load_stats.values())
        if bad != len(self.flagged):
            report.problems.append(
                f"iteration results count {bad} failed traces, filter flagged {len(self.flagged)}")
        pruned = sum(sum(r.pruned_counts.values()) for r in trace.iterations)
        if pruned != len(self.pruned):
            report.problems.append(
                f"iteration results count {pruned} pruned, verify pruned {len(self.pruned)}")
        touched = {o.trace_id: DOW for o in outcomes if o.attacked}
        touched.update((t, STORE_TAMPER) for t in self.tampered)
        report.score(
            loads={o.trace_id: o.load for o in outcomes},
            touched=touched,
            caught=self.flagged | self.pruned,
            universe={o.trace_id for o in outcomes},
        )
        return report


WORKLOADS = {cls.name: cls for cls in (IotRun, IotVerify, TreeOptimize)}


def set_up_once(src: str, base: str, workdir: str, name: str, seed: str, scale: str) -> int:
    """Set a workload up in this fresh process, then say so on stdout.

    The parent times this process from its start to the "ready" line:
    interpreter start, imports, and the workload's set-up.
    """
    fp = import_fusionproof(Path(src))
    WORKLOADS[name](fp, Path(base), Path(workdir), int(seed), scale)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    sys.exit({"store": make_verify_store, "setup": set_up_once}[command](*args))
