"""Command-line scenario runner.

Wires the full pipeline: run a workload and persist filtered evidence,
verify stored proofs, and drive the optimization loop, which writes its
per-load outcome table to summary.csv.  All outputs are machine-readable
(JSON/CSV) and fully determined by the config, seed included.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import (Annotated, Callable, Iterator, Mapping, Optional, Sequence, TextIO, Union,
                    get_args, get_origin, get_type_hints)

from .errors import FusionProofError
from .handler import FusionSetup, entry_fusion_key
from .proofs import ThresholdPolicy, filter_batch, group_key, load_setups, persist_evidence
from .store import FileStore
from .verification import (
    FailureReason,
    SamplingState,
    VerificationReport,
    commit,
    iteration_result_to_wire,
    run_optimization,
    verify_integrity,
)
from .workload import (
    ATTACK_GATES,
    RECORD_FIELDS,
    AppSpec,
    AttackMode,
    AttackPlan,
    CallMode,
    CostModel,
    builtin_iot_app,
    builtin_tree_app,
    record_to_wire,
    run_workload,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3


class ConfigError(FusionProofError):
    """The scenario config cannot be resolved to runnable inputs or outputs."""


# The config's keys are the fields of these classes and of the sections they
# nest; each converts by its type hint, as _value says.  The hints name the
# converters below and are evaluated when _keys first reads them.
@dataclass(frozen=True)
class AppParams:
    fanout: Annotated[int, _at_least(2)] = 2
    depth: Annotated[int, _at_least(1)] = 1


@dataclass(frozen=True)
class AttackConfig:
    mode: Annotated[str, _one_of(*_ATTACK_MODES)] = "none"
    target_task: Annotated[Optional[str], _string] = None
    inflated_duration_ms: float = 999999.0
    swap: Annotated[Optional[tuple[str, str]], _swap] = None
    when: Annotated[str, _one_of(*ATTACK_GATES)] = "odd_iterations"


@dataclass(frozen=True)
class PolicyConfig:
    max_billed_ms: float = ThresholdPolicy.max_billed_ms
    max_memory_mb: float = ThresholdPolicy.max_memory_mb
    sequence_check: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    """A config document resolved to typed values; fields mirror its keys."""

    app: Annotated[str, _os_path] = "iot"
    app_params: AppParams = AppParams()
    initial_setup: Annotated[Union[str, tuple[tuple[str, ...], ...]], _initial_setup] = "fused"
    request_counts: Annotated[tuple[int, ...], _request_counts] = (10,)
    iterations: Annotated[int, _at_least(1)] = 7
    attack: AttackConfig = AttackConfig()
    policy: PolicyConfig = PolicyConfig()
    cost_model: CostModel = CostModel()
    csp1: SamplingState = SamplingState()
    seed: Annotated[Optional[int], _integer_or_null] = None
    store_root: Annotated[str, _os_path] = "evidence"
    output_dir: Annotated[str, _os_path] = "out"


def _initial_setup(raw) -> Union[str, tuple[tuple[str, ...], ...]]:
    if isinstance(raw, str):
        return _one_of("split", "fused")(raw)
    if not isinstance(raw, list) or not all(
        isinstance(group, list) and all(isinstance(name, str) for name in group) for group in raw
    ):
        raise TypeError(f"expected a string or a list of lists of strings, got {raw!r}")
    return tuple(tuple(group) for group in raw)


def _request_counts(raw) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(type(c) is int for c in raw):
        raise TypeError(f"expected a list of integers, got {raw!r}")
    if not raw or min(raw) < 1:
        raise ValueError(f"expected one or more positive integers, got {raw!r}")
    if len(set(raw)) < len(raw):
        raise ValueError(f"each load must appear once, got {raw!r}")
    return tuple(raw)


def _exactly(kind, name: str):
    """A converter that passes values of kind through and rejects the rest."""

    def check(raw):
        if not isinstance(raw, kind):
            raise TypeError(f"expected {name}, got {raw!r}")
        return raw
    return check


_boolean = _exactly(bool, "true or false")
_string = _exactly(str, "a string")
_list = _exactly(list, "a JSON list")
_section = _exactly((Mapping, type(None)), "a JSON object or null")


def _one_of(*names: str):
    """A converter that passes one of names through and rejects the rest."""

    def check(raw):
        if _string(raw) not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {raw!r}")
        return raw
    return check


_ATTACK_MODES = ("none", *(mode.value for mode in AttackMode))


def _os_path(raw) -> str:
    if "\0" in _string(raw):
        raise ValueError(f"a path cannot hold NUL, got {raw!r}")
    return raw


def _swap(raw) -> Optional[tuple[str, str]]:
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != 2 or not all(isinstance(t, str) for t in raw):
        raise TypeError(f"expected null or a list of two strings, got {raw!r}")
    return tuple(raw)


def _integer(raw) -> int:
    if type(raw) is not int:  # a JSON integer: not a float, a string or a bool
        raise TypeError(f"expected an integer, got {raw!r}")
    return raw


def _at_least(low: int):
    """A converter that passes integers of at least low through and rejects the rest."""

    def check(raw):
        if _integer(raw) < low:
            raise ValueError(f"expected an integer >= {low}, got {raw!r}")
        return raw
    return check


def _integer_or_null(raw) -> Optional[int]:
    return None if raw is None else _integer(raw)


def _finite(raw) -> float:
    if type(raw) not in (int, float):
        raise TypeError(f"expected a number, got {raw!r}")
    if not math.isfinite(raw):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return float(raw)


# The converter of each field type that carries none.
_PLAIN: Mapping[type, Callable] = {int: _integer, float: _finite, bool: _boolean, str: _string,
                                   CallMode: lambda raw: CallMode(_string(raw).lower())}

# Fields that hold run state, not config: no document may set them.
_RUN_STATE: Mapping[type, tuple[str, ...]] = {SamplingState: ("clearance_count",)}


@cache
def _keys(cls: type) -> Mapping[str, object]:
    """cls's config keys, its fields in order less run state, with their type hints."""
    hints = get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in _RUN_STATE.get(cls, ())}


def _convert(doc: Mapping, cls: type, path: str = "") -> dict:
    """Convert doc's keys by cls's fields, recursing into sections; errors name the key."""
    keys = _keys(cls)
    unknown = sorted(path + key for key in set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return {key: _value(doc[key], hint, path + key) for key, hint in keys.items() if key in doc}


def _value(raw, hint, path: str):
    """raw converted by a field's type hint: an Annotated hint's converter, a
    dataclass's section (null keeps its defaults), tuple[T, ...]'s JSON list of
    T, or _PLAIN's converter.  Errors name path."""
    try:
        if get_origin(hint) is Annotated:
            return hint.__metadata__[0](raw)
        if is_dataclass(hint):
            return hint(**_convert(_section(raw) or {}, hint, path + "."))
        if get_origin(hint) is tuple:
            item, _ = get_args(hint)  # tuple[T, ...]
            return tuple(_value(each, item, f"{path}[{i}]") for i, each in enumerate(_list(raw)))
        return _PLAIN[hint](raw)
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config value: {path}: {type(exc).__name__}: {exc}") from exc


def config_from_dict(doc: Mapping) -> ScenarioConfig:
    """Resolve a config document, which must be a JSON object, to typed values."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    return ScenarioConfig(**_convert(doc, ScenarioConfig))


def _load_json(path: Union[str, Path], what: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config_file(path: Union[str, Path]) -> ScenarioConfig:
    return config_from_dict(_load_json(path, "config"))


def build_app(config: ScenarioConfig) -> AppSpec:
    if config.app == "iot":
        return builtin_iot_app()
    if config.app == "tree":
        return builtin_tree_app(config.app_params.fanout, config.app_params.depth)
    return _value(_load_json(config.app, "app document"), AppSpec, "app")


def build_setup(config: ScenarioConfig, app: AppSpec) -> FusionSetup:
    raw = config.initial_setup
    if raw == "split":
        return FusionSetup.singletons(app.task_names())
    if raw == "fused":
        return FusionSetup.fused([app.task_names()])
    setup = FusionSetup.fused(raw)
    if sorted(setup.functions()) != sorted(app.task_names()):
        raise ConfigError("initial_setup must partition exactly the app's tasks")
    return setup


def build_attack(config: ScenarioConfig) -> Optional[AttackPlan]:
    attack = config.attack
    if attack.mode == "none":
        return None
    return AttackPlan(AttackMode(attack.mode), attack.target_task, attack.inflated_duration_ms,
                      attack.swap, ATTACK_GATES[attack.when])


def build_policy(config: ScenarioConfig, app: AppSpec) -> ThresholdPolicy:
    return ThresholdPolicy(
        max_billed_ms=config.policy.max_billed_ms,
        max_memory_mb=config.policy.max_memory_mb,
        expected_sequence=app.sync_chain() if config.policy.sequence_check else (),
    )


def _output_dir(config: ScenarioConfig) -> Path:
    """output_dir, which must lie outside store_root: verify reads every .json file there."""
    out, store = os.path.realpath(config.output_dir), os.path.realpath(config.store_root)
    if Path(out).is_relative_to(store):
        raise ConfigError(f"output_dir {out!r} must lie outside store_root {store!r}")
    return Path(config.output_dir)


def _refuse_stale_keys(config: ScenarioConfig, stale: Callable[[str], bool], needs: str) -> None:
    """A store is verified whole, so an earlier run's group file would be
    reported as this run's: ConfigError naming the first key stale accepts."""
    for key in filter(stale, FileStore(config.store_root).list()):
        raise ConfigError(f"store_root {config.store_root!r} already holds {key!r}; {needs}")


def _require_seed(config: ScenarioConfig) -> int:
    if config.seed is None:
        raise ConfigError("seed is mandatory; pass --seed or set it in the config")
    return config.seed


_RECORD_COLUMNS = [attribute for attribute, _, _ in RECORD_FIELDS]


def _record_row(record) -> list:
    # The wire dict's pinned field order is the CSV column order.
    return list(record_to_wire(record).values())


@contextmanager
def _output_file(path: Path) -> Iterator[TextIO]:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with _output_file(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    with _output_file(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _pipeline_inputs(
    config: ScenarioConfig,
) -> tuple[Path, int, AppSpec, FusionSetup, Optional[AttackPlan], ThresholdPolicy]:
    """What run and optimize build from config, checked in this order."""
    out, seed, app = _output_dir(config), _require_seed(config), build_app(config)
    return out, seed, app, build_setup(config, app), build_attack(config), build_policy(config, app)


def cmd_run(config: ScenarioConfig) -> int:
    """Execute the workload, filter it, and persist evidence."""
    out, seed, app, setup, attack, policy = _pipeline_inputs(config)
    fusion_key = entry_fusion_key(setup, app.entry_task)
    _refuse_stale_keys(config, group_key(fusion_key).__ne__,
                       "run needs a store root without other group files")
    batch = run_workload(
        app, setup, config.request_counts, attack, config.iterations, seed, config.cost_model
    )
    clean, flagged = filter_batch(batch.records, policy)
    store = FileStore(config.store_root)
    persist_evidence(store, fusion_key, clean)
    _write_csv(out / "records.csv", _RECORD_COLUMNS, [_record_row(r) for r in batch.records])
    _write_csv(
        out / "flagged.csv",
        _RECORD_COLUMNS + ["violation", "detail"],
        [_record_row(r) + [v.kind.value, v.detail] for r, v in flagged],
    )
    return EXIT_OK


def _report_to_wire(report: VerificationReport) -> dict:
    def by_reason(reason: FailureReason, value) -> dict:
        return {key: value(o) for key, o in report.outcomes.items() if o.reason is reason}

    return {
        "integrity_verified": report.integrity_verified,
        "group_results": report.group_results,
        "pruned": {key: list(ids) for key, ids in report.pruned.items()},
        "surviving_counts": by_reason(FailureReason.PRUNED, lambda o: len(o.survivors)),
        "notes": by_reason(FailureReason.STORE_ERROR, lambda o: o.detail),
        "corrupt": by_reason(FailureReason.CORRUPT, lambda o: o.detail),
    }


def cmd_verify(config: ScenarioConfig) -> int:
    """Re-check all stored proofs, pruning tampered records from group files."""
    out = _output_dir(config)
    store = FileStore(config.store_root)
    report = commit(verify_integrity(load_setups(store)), store)
    _write_json(out / "verification.json", _report_to_wire(report))
    if any(o.reason is FailureReason.CORRUPT for o in report.outcomes.values()):
        return EXIT_CORRUPT
    return EXIT_OK if report.integrity_verified else EXIT_VERIFY_FAILED


def cmd_optimize(config: ScenarioConfig) -> int:
    """Run the full iterate-verify-adopt loop and dump its trace."""
    out, seed, app, setup, attack, policy = _pipeline_inputs(config)
    store_root = Path(config.store_root)
    _refuse_stale_keys(config, lambda key: "/" in key,
                       "optimize needs a store root without iteration stores")
    trace = run_optimization(
        app,
        setup,
        config.iterations,
        model=config.cost_model,
        policy=policy,
        attack=attack,
        seed=seed,
        request_counts=config.request_counts,
        sampling=config.csp1,
        store_factory=lambda it: FileStore(store_root / f"iter{it:03d}"),
    )
    _write_json(
        out / "optimization_trace.json",
        {
            "iterations": [iteration_result_to_wire(r) for r in trace.iterations],
            "final_setup_part": trace.final_setup.setup_part,
        },
    )
    rows = []
    for result in trace.iterations:
        cost = "" if result.estimated_cost_ms is None else f"{result.estimated_cost_ms:g}"
        for load in sorted(result.load_stats):
            ok, bad = result.load_stats[load]
            rows.append([result.iteration, load, ok, bad, cost])
    _write_csv(out / "summary.csv", ["iteration", "load", "successes", "failures", "cost"], rows)
    return EXIT_OK


_COMMANDS = {"run": cmd_run, "verify": cmd_verify, "optimize": cmd_optimize}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionproof",
        description="Simulate fused serverless workloads with tamper-evident logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, docs in (
        ("run", "execute a workload and persist filtered evidence"),
        ("verify", "re-check stored proofs and prune tampered records"),
        ("optimize", "run the iterative verify-and-refine loop"),
    ):
        cmd = sub.add_parser(name, help=docs)
        cmd.add_argument("--config", help="JSON scenario config file")
        # Each flag's dest is the config key it sets (section.key within a section).
        cmd.add_argument("--seed", type=int, help="override the run seed")
        cmd.add_argument("--iterations", type=int, help="override iteration count")
        cmd.add_argument(
            "--attack", dest="attack.mode", choices=_ATTACK_MODES,
            help="override the attack mode",
        )
        cmd.add_argument("--store", dest="store_root", metavar="STORE",
                         help="override the evidence store root")
        cmd.add_argument("--output", dest="output_dir", metavar="OUTPUT",
                         help="override the output directory")
    return parser


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    """The config file, or the defaults, with each flag given set; a flag's
    value is converted like the file's, by its key's field."""
    config = load_config_file(args.config) if args.config else ScenarioConfig()
    given = {dest: value for dest, value in vars(args).items() if value is not None}
    attack = {dest.removeprefix("attack."): value for dest, value in given.items()
              if dest.startswith("attack.")}
    flags = {key: given[key] for key in given.keys() & _keys(ScenarioConfig).keys()}
    return replace(config, **_convert(flags, ScenarioConfig),
                   attack=replace(config.attack, **_convert(attack, AttackConfig, "attack.")))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return _COMMANDS[args.command](config)
    except FusionProofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
