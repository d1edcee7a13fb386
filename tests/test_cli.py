"""Command-line interface: configs, commands, exit codes, outputs."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from fusionproof import cli
from fusionproof.cli import (
    EXIT_CORRUPT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    ConfigError,
    ScenarioConfig,
    build_app,
    build_parser,
    build_policy,
    build_setup,
    config_from_dict,
    main,
    resolve_config,
)
from fusionproof.errors import CycleDetected, ParseError, StoreWriteFailed, UnknownCallee
from fusionproof.proofs import ThresholdPolicy, group_file_bytes, load_setups, parse_group_file
from fusionproof.store import FileStore, MemoryStore
from fusionproof.verification import (
    CostModel,
    FailureReason,
    GroupOutcome,
    SamplingState,
    commit,
    verify_integrity,
)
from fusionproof.workload import AttackMode, builtin_iot_app

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path: Path, name: str = "config.json", **overrides) -> Path:
    doc = {
        "app": "iot",
        "initial_setup": "fused",
        "request_counts": [2],
        "iterations": 1,
        "seed": 7,
        "store_root": str(tmp_path / "evidence"),
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def readme_config_example() -> dict:
    """The JSON block under README's "Config schema" heading."""
    text = README.read_text(encoding="utf-8")
    schema = text[text.index("### Config schema"):]
    block = schema[schema.index("```json") + len("```json"):]
    return json.loads(block[: block.index("```")])


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def tamper_group_file(store_root: Path) -> None:
    store = FileStore(store_root)
    key = next(k for k in store.list() if "/" not in k)
    blocks = parse_group_file(store.get(key))
    tree, records = blocks[-1], blocks[:-1]
    records[0] = dataclasses.replace(
        records[0], billed_duration_ms=records[0].billed_duration_ms + 1
    )
    store.put(key, group_file_bytes(records, tree))


class TestConfig:
    def test_defaults(self):
        config = ScenarioConfig()
        assert config.app == "iot"
        assert config.request_counts == (10,)
        assert config.seed is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"bogus": 1})

    def test_nested_sections(self):
        config = config_from_dict(
            {
                "app": "tree",
                "app_params": {"fanout": 3, "depth": 2},
                "attack": {"mode": "dow", "target_task": "SE", "when": "always"},
                "policy": {"max_billed_ms": 500, "sequence_check": False},
                "cost_model": {"memory_weight": 0.5},
                "csp1": {"i": 4, "f": 0.5},
                "seed": 3,
            }
        )
        assert (config.app_params.fanout, config.app_params.depth) == (3, 2)
        assert config.attack.mode == "dow"
        assert config.attack.when == "always"
        assert config.policy.max_billed_ms == 500.0
        assert config.policy.sequence_check is False
        assert config.cost_model.memory_weight == 0.5
        assert (config.csp1.i, config.csp1.f) == (4, 0.5)
        assert config.seed == 3

    @pytest.mark.parametrize(
        "section", ["app_params", "attack", "policy", "cost_model", "csp1"]
    )
    def test_unknown_nested_key_names_its_path(self, section):
        with pytest.raises(ConfigError, match=rf"^unknown config keys: {section}\.bogus$"):
            config_from_dict({section: {"bogus": 1}})

    def test_defaults_are_the_pipeline_defaults(self):
        app = builtin_iot_app()
        config = ScenarioConfig()
        assert build_policy(config, app) == ThresholdPolicy(expected_sequence=app.sync_chain())
        assert config.cost_model == CostModel()
        assert config.csp1 == SamplingState()

    def test_readme_example_loads(self):
        doc = readme_config_example()
        config = config_from_dict(doc)
        assert config.attack.target_task == doc["attack"]["target_task"]
        assert config.csp1 == SamplingState(i=doc["csp1"]["i"], f=doc["csp1"]["f"])

    def test_readme_example_names_exactly_the_accepted_keys(self):
        """At every level the example holds each field that a config may set,
        and no other key."""

        def accepted(*path: str) -> bool:
            probe = None
            for key in reversed(path):
                probe = {key: probe}
            try:
                config_from_dict(probe)
            except ConfigError as exc:
                return not str(exc).startswith("unknown config keys")
            return True

        doc = readme_config_example()
        assert set(doc) == {f.name for f in dataclasses.fields(ScenarioConfig) if accepted(f.name)}
        defaults = ScenarioConfig()
        for name in doc:
            section = getattr(defaults, name)
            if dataclasses.is_dataclass(section):
                keys = {f.name for f in dataclasses.fields(section) if accepted(name, f.name)}
                assert set(doc[name]) == keys, name

    def test_clearance_count_is_run_state_not_config(self):
        with pytest.raises(ConfigError) as caught:
            config_from_dict({"csp1": {"clearance_count": 3}})
        assert str(caught.value) == "unknown config keys: csp1.clearance_count"

    @pytest.mark.parametrize("command", ["run", "verify", "optimize"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"iterations": 0}, "iterations: ValueError: expected an integer >= 1, got 0"),
            (
                {"app": "tree", "app_params": {"fanout": 1}},
                "app_params.fanout: ValueError: expected an integer >= 2, got 1",
            ),
            (
                {"app": "tree", "app_params": {"depth": 0}},
                "app_params.depth: ValueError: expected an integer >= 1, got 0",
            ),
        ],
        ids=["iterations", "fanout", "depth"],
    )
    def test_out_of_range_count_fails_at_load(self, tmp_path, capsys, command, override, message):
        config = write_config(tmp_path, **override)
        assert main([command, "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: bad config value: {message}\n"
        assert sorted(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command", ["run", "verify", "optimize"])
    def test_flag_passes_its_keys_converter(self, tmp_path, capsys, command):
        argv = [command, "--seed", "1", "--iterations", "0",
                "--store", str(tmp_path / "evidence"), "--output", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: bad config value: iterations: ValueError: expected an integer >= 1, got 0\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("counts", [[], [0], [4, -3]])
    def test_request_counts_without_positive_loads_names_its_key(self, tmp_path, capsys, counts):
        config = write_config(tmp_path, request_counts=counts)
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: bad config value: request_counts: ValueError: "
            f"expected one or more positive integers, got {counts!r}\n"
        )
        assert sorted(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_sequence_check_must_be_a_boolean(self, tmp_path, capsys, value):
        config = write_config(tmp_path, policy={"sequence_check": value})
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: bad config value")

    @pytest.mark.parametrize("command", ["run", "verify", "optimize"])
    def test_out_of_range_csp1_fails_at_load(self, tmp_path, capsys, command):
        config = write_config(tmp_path, csp1={"i": 0})
        assert main([command, "--config", str(config)]) == EXIT_USAGE
        assert "clearance number i must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify", "optimize"])
    @pytest.mark.parametrize(
        "csp1, message",
        [
            ({"i": 0}, "clearance number i must be >= 1"),
            ({"f": 0.0}, "sampling fraction f must be in (0, 1]"),
        ],
        ids=["i", "f"],
    )
    def test_section_check_names_its_section(self, tmp_path, capsys, command, csp1, message):
        config = write_config(tmp_path, csp1=csp1)
        assert main([command, "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: bad config value: csp1: {message}\n"
        assert sorted(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command", ["run", "verify", "optimize"])
    @pytest.mark.parametrize("key", ["remote_overhead_ms", "local_overhead_ms", "memory_weight"])
    def test_negative_cost_is_refused_at_load(self, tmp_path, capsys, command, key):
        config = write_config(tmp_path, initial_setup="split", cost_model={key: -1000000})
        assert main([command, "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: bad config value: cost_model: {key} must be finite and >= 0, got -1000000.0\n"
        )
        assert sorted(tmp_path.iterdir()) == [config]

    def test_section_check_keeps_its_error_type(self):
        with pytest.raises(ParseError) as caught:
            config_from_dict({"csp1": {"i": 0}})
        assert str(caught.value) == "bad config value: csp1: clearance number i must be >= 1"

    @pytest.mark.parametrize("command", ["run", "optimize"])
    def test_task_check_names_its_task_once(self, tmp_path, capsys, command):
        app = tmp_path / "app.json"
        app.write_text(json.dumps({"name": "one", "entry_task": "A", "tasks": [
            {"name": "A", "base_duration_ms": 0}]}), encoding="utf-8")
        config = write_config(tmp_path, app=str(app))
        assert main([command, "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: bad config value: app.tasks[0]: task 'A': base_duration_ms must be positive\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted([app, config])

    @pytest.mark.parametrize("command", ["run", "verify", "optimize"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"initial_setup": "foo"}, "initial_setup: ValueError: expected one of split, fused, got 'foo'"),
            (
                {"attack": {"when": "never"}},
                "attack.when: ValueError: expected one of "
                "odd_iterations, even_iterations, always, first_request, got 'never'",
            ),
            (
                {"attack": {"mode": "ddos"}},
                "attack.mode: ValueError: expected one of none, dow, business_logic, got 'ddos'",
            ),
        ],
        ids=["setup_name", "when", "mode"],
    )
    def test_unknown_name_fails_at_load(self, tmp_path, capsys, command, override, message):
        config = write_config(tmp_path, **override)
        assert main([command, "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: bad config value: {message}\n"
        assert sorted(tmp_path.iterdir()) == [config]

    def test_explicit_groups(self):
        config = config_from_dict({"initial_setup": [["CW", "SE"], ["CS", "CT", "CA"]]})
        setup = build_setup(config, builtin_iot_app())
        assert setup.setup_part == "CW.SE,CS.CT.CA"

    def test_groups_must_partition_tasks(self):
        config = config_from_dict({"initial_setup": [["CW", "SE"]]})
        with pytest.raises(ConfigError):
            build_setup(config, builtin_iot_app())

    @pytest.mark.parametrize("counts", [[], [0], [-3], "12", [True], [2.7]])
    def test_bad_request_counts(self, counts):
        with pytest.raises(ConfigError):
            config_from_dict({"request_counts": counts})

    @pytest.mark.parametrize("command", ["run", "optimize"])
    @pytest.mark.parametrize("counts", [[2, 2], [3, 1, 3]])
    def test_repeated_load_is_usage_error(self, tmp_path, capsys, command, counts):
        """summary.csv has one row per load, so a load named twice would
        merge two loads' counts into one row."""
        config = write_config(tmp_path, request_counts=counts)
        assert main([command, "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: bad config value: request_counts: ValueError: "
            f"each load must appear once, got {counts!r}\n"
        )
        assert not (tmp_path / "evidence").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"iterations": "abc"},
            {"attack": "dow"},
            {"request_counts": 5},
            {"seed": "x"},
        ],
    )
    def test_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, override):
        config = write_config(tmp_path, **override)
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: bad config value")

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"iterations": "abc"}, "iterations: TypeError"),
            ({"seed": "x"}, "seed: TypeError"),
            ({"policy": {"sequence_check": "false"}}, "policy.sequence_check: TypeError"),
            ({"csp1": {"f": "half"}}, "csp1.f: TypeError"),
            ({"app_params": {"fanout": [2]}}, "app_params.fanout: TypeError"),
        ],
    )
    def test_bad_value_names_its_key(self, doc, named):
        with pytest.raises(ConfigError, match=rf"^bad config value: {re.escape(named)}: "):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "override",
        [
            {"store_root": None},
            {"output_dir": None},
            {"app": None},
            {"app": 3},
            {"attack": {"mode": None}},
            {"attack": {"when": 1}},
            {"policy": 0},
            {"attack": []},
            {"csp1": ""},
            {"app_params": False},
            {"cost_model": [1]},
        ],
    )
    def test_non_string_text_or_non_object_section_is_usage_error(
        self, tmp_path, capsys, override
    ):
        config = write_config(tmp_path, **override)
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: bad config value")

    @pytest.mark.parametrize(
        "attack, named",
        [
            ({"mode": "dow", "target_task": ["SE"], "when": "always"}, "attack.target_task"),
            ({"mode": "dow", "target_task": 1, "when": "always"}, "attack.target_task"),
            ({"mode": "business_logic", "swap": [["CT"], "CA"], "when": "always"}, "attack.swap"),
            ({"mode": "business_logic", "swap": ["CT", 4], "when": "always"}, "attack.swap"),
            ({"mode": "business_logic", "swap": ["CT", "CA", "CS"]}, "attack.swap"),
            ({"mode": "business_logic", "swap": "CT", "when": "always"}, "attack.swap"),
            ({"mode": "business_logic", "swap": [], "when": "always"}, "attack.swap"),
        ],
    )
    def test_malformed_attack_target_or_swap_is_usage_error(
        self, tmp_path, capsys, attack, named
    ):
        config = write_config(tmp_path, attack=attack)
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: bad config value: {named}: TypeError")

    @pytest.mark.parametrize(
        "override, named",
        [
            ({"iterations": True}, "iterations"),
            ({"seed": "5"}, "seed"),
            ({"policy": {"max_billed_ms": "90000"}}, "policy.max_billed_ms"),
            ({"cost_model": {"remote_overhead_ms": float("inf")}}, "cost_model.remote_overhead_ms"),
            (
                {
                    "policy": {"max_billed_ms": float("nan")},
                    "attack": {"mode": "dow", "target_task": "SE", "when": "always"},
                },
                "policy.max_billed_ms",
            ),
        ],
        ids=["bool-iterations", "string-seed", "string-number", "infinity", "nan-threshold"],
    )
    def test_number_must_be_an_exact_json_number(self, tmp_path, capsys, override, named):
        config = write_config(tmp_path, **override)
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: bad config value: {named}: ")
        assert sorted(tmp_path.iterdir()) == [config]

    def test_attack_swap_is_null_or_two_strings(self):
        assert config_from_dict({"attack": {"swap": None}}).attack.swap is None
        assert config_from_dict({"attack": {"swap": ["CT", "CA"]}}).attack.swap == ("CT", "CA")

    @pytest.mark.parametrize("number", ["1e400", "-1e400", "Infinity", "NaN"])
    def test_non_finite_inflated_duration_is_usage_error(self, tmp_path, capsys, number):
        config = write_config(
            tmp_path, attack={"mode": "dow", "target_task": "SE", "inflated_duration_ms": 0}
        )
        text = config.read_text(encoding="utf-8")
        config.write_text(
            text.replace('"inflated_duration_ms": 0', f'"inflated_duration_ms": {number}')
        )
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: bad config value: attack.inflated_duration_ms: ValueError"
        )

    @pytest.mark.parametrize("doc", [[], "iot", None, 3])
    def test_config_must_be_an_object(self, tmp_path, capsys, doc):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            config_from_dict(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        assert "must be a JSON object" in capsys.readouterr().err

    def test_null_section_means_defaults(self):
        sections = ["app_params", "attack", "policy", "cost_model", "csp1"]
        assert config_from_dict(dict.fromkeys(sections)) == ScenarioConfig()

    def test_cli_overrides_beat_config(self, tmp_path):
        config_path = write_config(tmp_path)
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--config", str(config_path), "--seed", "99", "--iterations", "4"]
        )
        config = resolve_config(args)
        assert config.seed == 99
        assert config.iterations == 4
        assert config.request_counts == (2,)


class TestRunCommand:
    def test_writes_evidence_and_tables(self, tmp_path):
        code = main(["run", "--config", str(write_config(tmp_path))])
        assert code == EXIT_OK
        store = FileStore(tmp_path / "evidence")
        assert "CW.SE.CS.CT.CA.json" in store.list()
        records = read_csv(tmp_path / "out" / "records.csv")
        assert records[0] == [
            "trace_id", "task", "chain_index", "caller", "start_ms",
            "billed_duration_ms", "memory_used_mb", "route", "setup_version",
        ]
        assert len(records) == 1 + 2 * 5
        flagged = read_csv(tmp_path / "out" / "flagged.csv")
        assert flagged[0][-2:] == ["violation", "detail"]
        assert len(flagged) == 1

    def test_attack_rows_land_in_flagged(self, tmp_path):
        config = write_config(
            tmp_path,
            attack={"mode": "dow", "target_task": "SE", "when": "always"},
        )
        assert main(["run", "--config", str(config)]) == EXIT_OK
        flagged = read_csv(tmp_path / "out" / "flagged.csv")
        assert len(flagged) == 1 + 2 * 5
        violations = {row[-2] for row in flagged[1:]}
        assert violations == {"duration_exceeded"}

    def test_business_logic_attack_flagged_as_sequence(self, tmp_path):
        config = write_config(
            tmp_path,
            attack={"mode": "business_logic", "swap": ["CT", "CA"], "when": "always"},
        )
        assert main(["run", "--config", str(config)]) == EXIT_OK
        flagged = read_csv(tmp_path / "out" / "flagged.csv")
        assert {row[-2] for row in flagged[1:]} == {"sequence_violation"}

    def test_attack_none_override_runs_a_dow_config_clean(self, tmp_path):
        config = write_config(
            tmp_path,
            attack={"mode": "dow", "target_task": "SE", "when": "always"},
        )
        assert main(["run", "--config", str(config), "--attack", "none"]) == EXIT_OK
        flagged = read_csv(tmp_path / "out" / "flagged.csv")
        assert len(flagged) == 1 and flagged[0][-2:] == ["violation", "detail"]

    def test_attack_dow_override_needs_a_target_task(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--attack", "dow"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: duration attack needs a target_task\n"
        assert sorted(tmp_path.iterdir()) == [config]

    def test_seed_required(self, tmp_path, capsys):
        config = write_config(tmp_path, seed=None)
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert "seed" in capsys.readouterr().err

    def test_custom_app_document(self, tmp_path):
        app_doc = {
            "name": "pair",
            "entry_task": "A",
            "tasks": [
                {"name": "A", "base_duration_ms": 10, "calls": [{"callee": "B"}]},
                {"name": "B", "base_duration_ms": 20},
            ],
        }
        app_path = tmp_path / "pair.json"
        app_path.write_text(json.dumps(app_doc), encoding="utf-8")
        config = write_config(tmp_path, app=str(app_path), initial_setup="split")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        store = FileStore(tmp_path / "evidence")
        assert "A.json" in store.list()

    def test_task_name_with_nul_is_a_usage_error(self, tmp_path, capsys):
        app_doc = {"name": "nul", "entry_task": "A\0B", "tasks": [{"name": "A\0B", "base_duration_ms": 10}]}
        app_path = tmp_path / "nul.json"
        app_path.write_text(json.dumps(app_doc), encoding="utf-8")
        config = write_config(tmp_path, app=str(app_path), initial_setup="fused")
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "reserved character" in err

    def test_bad_attack_config(self, tmp_path, capsys):
        config = write_config(tmp_path, attack={"mode": "dow", "when": "always"})
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert "target_task" in capsys.readouterr().err

    @pytest.mark.parametrize("command, iterations", [("run", 1), ("optimize", 3)])
    def test_unfit_attack_exits_before_anything_is_written(
        self, tmp_path, capsys, command, iterations
    ):
        # The default gate fires on no request of run's one iteration, and
        # first in optimize's second: the plan is checked before either.
        config = write_config(
            tmp_path, iterations=iterations, attack={"mode": "dow", "target_task": "NOPE"})
        assert main([command, "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: target task 'NOPE' is not declared\n"
        assert sorted(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("initial_setup", [[[1, 2]], [[None]], ["CWSE"], 5],
                             ids=["numbers", "null", "flat_list", "number"])
    def test_initial_setup_that_is_not_groups_of_names_is_a_bad_value(
        self, tmp_path, capsys, initial_setup
    ):
        config = write_config(tmp_path, initial_setup=initial_setup)
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: bad config value: initial_setup: TypeError: "
        )
        assert sorted(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize(
        "key", ["CW.json", "iter000/CW.SE.CS.CT.CA.json", "other/deep/G.json"],
        ids=["other_setup", "optimize_root", "nested"],
    )
    def test_root_holding_another_group_file_is_usage_error(self, tmp_path, capsys, key):
        # verify would report that file as this run's group.
        FileStore(tmp_path / "evidence").put(key, b"{}")
        assert main(["run", "--config", str(write_config(tmp_path))]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"already holds {key!r}" in err and "run needs a store root" in err
        assert FileStore(tmp_path / "evidence").list() == [key]
        assert FileStore(tmp_path / "evidence").get(key) == b"{}"
        assert not (tmp_path / "out").exists()

    def test_second_run_with_another_setup_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(write_config(tmp_path))]) == EXIT_OK
        root = tmp_path / "evidence"
        before = (root / "CW.SE.CS.CT.CA.json").read_bytes()
        config = write_config(
            tmp_path, "split.json", initial_setup="split", request_counts=[3],
            output_dir=str(tmp_path / "out2"),
        )
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert "already holds 'CW.SE.CS.CT.CA.json'" in capsys.readouterr().err
        assert FileStore(root).list() == ["CW.SE.CS.CT.CA.json"]
        assert (root / "CW.SE.CS.CT.CA.json").read_bytes() == before
        assert not (tmp_path / "out2").exists()

    def test_rerun_with_the_same_setup_overwrites_its_group_file(self, tmp_path):
        root = tmp_path / "evidence"
        (root / "iter000").mkdir(parents=True)
        (root / "iter000" / "notes.txt").write_text("not a key", encoding="utf-8")
        assert main(["run", "--config", str(write_config(tmp_path, seed=1))]) == EXIT_OK
        first = (root / "CW.SE.CS.CT.CA.json").read_bytes()
        assert main(["run", "--config", str(write_config(tmp_path, seed=2))]) == EXIT_OK
        assert FileStore(root).list() == ["CW.SE.CS.CT.CA.json"]
        assert (root / "CW.SE.CS.CT.CA.json").read_bytes() != first
        assert main(["verify", "--config", str(write_config(tmp_path, seed=2))]) == EXIT_OK


class TestLoadAppSpec:
    def load(self, tmp_path, document):
        path = tmp_path / "app.json"
        text = document if isinstance(document, str) else json.dumps(document)
        path.write_text(text, encoding="utf-8")
        return build_app(ScenarioConfig(app=str(path)))

    def test_round_trip_matches_builtin(self, tmp_path):
        doc = {
            "name": "iot",
            "entry_task": "CW",
            "tasks": [
                {"name": "CW", "base_duration_ms": 37, "base_memory_mb": 10,
                 "calls": [{"callee": "SE", "mode": "sync"}]},
                {"name": "SE", "base_duration_ms": 37, "base_memory_mb": 10,
                 "calls": [{"callee": "CS", "mode": "sync"}]},
                {"name": "CS", "base_duration_ms": 76, "base_memory_mb": 10,
                 "calls": [{"callee": "CT", "mode": "sync"}]},
                {"name": "CT", "base_duration_ms": 64, "base_memory_mb": 10,
                 "calls": [{"callee": "CA", "mode": "sync"}]},
                {"name": "CA", "base_duration_ms": 68, "base_memory_mb": 10},
            ],
        }
        assert self.load(tmp_path, doc) == builtin_iot_app()

    def test_cycle_document(self, tmp_path):
        doc = {
            "name": "loop",
            "entry_task": "A",
            "tasks": [
                {"name": "A", "base_duration_ms": 1, "calls": [{"callee": "B"}]},
                {"name": "B", "base_duration_ms": 1, "calls": [{"callee": "A"}]},
            ],
        }
        with pytest.raises(CycleDetected):
            self.load(tmp_path, doc)

    def test_undeclared_callee_document(self, tmp_path):
        doc = {
            "name": "bad",
            "entry_task": "A",
            "tasks": [{"name": "A", "base_duration_ms": 1, "calls": [{"callee": "X"}]}],
        }
        with pytest.raises(UnknownCallee):
            self.load(tmp_path, doc)

    def test_bad_json(self, tmp_path):
        with pytest.raises(ConfigError):
            self.load(tmp_path, "{not json")

    def test_bad_mode(self, tmp_path):
        doc = {
            "name": "bad",
            "entry_task": "A",
            "tasks": [
                {"name": "A", "base_duration_ms": 1, "calls": [{"callee": "A", "mode": "x"}]}
            ],
        }
        with pytest.raises(ConfigError):
            self.load(tmp_path, doc)

    @pytest.mark.parametrize(
        "where, raw, message",
        [
            (("tasks", 0, "name"), "5", "bad config value: app.tasks[0].name: TypeError: "),
            (("tasks", 0, "calls"), "5", "bad config value: app.tasks[0].calls: TypeError: "),
            (
                ("tasks", 1, "base_duration_ms"),
                "NaN",
                "bad config value: app.tasks[1].base_duration_ms: ValueError: ",
            ),
            (
                ("tasks", 1, "base_duration_ms"),
                "1e400",
                "bad config value: app.tasks[1].base_duration_ms: ValueError: ",
            ),
            (
                ("tasks", 1, "base_duration_ms"),
                '"37"',
                "bad config value: app.tasks[1].base_duration_ms: TypeError: ",
            ),
            (
                ("tasks", 1, "jitter_fraction"),
                "null",
                "bad config value: app.tasks[1].jitter_fraction: TypeError: ",
            ),
            (("entry_task",), '["A"]', "bad config value: app.entry_task: TypeError: "),
            (
                ("tasks", 0, "calls", 0, "callee"),
                '["B"]',
                "bad config value: app.tasks[0].calls[0].callee: TypeError: ",
            ),
            (("tasks", 1, "base_memroy_mb"), "64", "unknown config keys: app.tasks[1].base_memroy_mb"),
            (
                ("tasks", 1, "base_duration_ms"),
                "0",
                "bad config value: app.tasks[1]: task 'B': base_duration_ms must be positive\n",
            ),
            (
                ("tasks", 1, "base_memory_mb"),
                "-1",
                "bad config value: app.tasks[1]: task 'B': base_memory_mb must be positive\n",
            ),
            (
                ("tasks", 1, "jitter_fraction"),
                "1",
                "bad config value: app.tasks[1]: task 'B': jitter_fraction must be in [0, 1)\n",
            ),
            (
                ("tasks", 1, "jitter_fraction"),
                "-0.5",
                "bad config value: app.tasks[1]: task 'B': jitter_fraction must be in [0, 1)\n",
            ),
            (("tasks", 1, "name"), '"A"', "bad config value: app: app 'pair' declares a task twice\n"),
        ],
        ids=["name", "calls", "nan", "1e400", "string-duration", "null-jitter", "list-entry", "list-callee", "misspelt-key",
             "zero-duration", "negative-memory", "jitter-one", "negative-jitter", "task-twice"],
    )
    def test_bad_app_value_is_usage_error(self, tmp_path, capsys, where, raw, message):
        doc = {
            "name": "pair",
            "entry_task": "A",
            "tasks": [
                {"name": "A", "base_duration_ms": 10, "calls": [{"callee": "B"}]},
                {"name": "B", "base_duration_ms": 20},
            ],
        }
        parent = doc
        for step in where[:-1]:
            parent = parent[step]
        parent[where[-1]] = "@"
        app_path = tmp_path / "pair.json"
        app_path.write_text(json.dumps(doc).replace('"@"', raw), encoding="utf-8")
        config = write_config(tmp_path, app=str(app_path), initial_setup="split")
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: " + message)
        assert sorted(tmp_path.iterdir()) == sorted([app_path, config])


class TestLongTaskNames:
    def test_split_tree_4_2_runs_verifies_and_optimizes(self, tmp_path):
        # 21 tasks: the split setup's name runs to hundreds of characters,
        # and every trace id carries it.
        config = str(
            write_config(
                tmp_path,
                app="tree",
                app_params={"fanout": 4, "depth": 2},
                initial_setup="split",
                request_counts=[2],
                iterations=2,
            )
        )
        root = tmp_path / "evidence"
        assert main(["run", "--config", config]) == EXIT_OK
        assert FileStore(root).list() == ["N0.json"]
        assert main(["verify", "--config", config]) == EXIT_OK
        assert main(["optimize", "--config", config]) == EXIT_OK
        for it in ("iter000", "iter001"):
            keys = FileStore(root / it).list()
            assert keys and all("/" not in key for key in keys)


class TestUnusablePaths:
    @pytest.mark.parametrize("key", ["store_root", "output_dir"])
    def test_path_below_a_regular_file_is_usage_error(self, tmp_path, capsys, key):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file", encoding="utf-8")
        config = str(write_config(tmp_path, **{key: str(blocker / "sub")}))
        for command in ("run", "verify"):
            assert main([command, "--config", config]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Not a directory" in err

    @pytest.mark.parametrize(
        "command, output",
        [("run", "evidence"), ("verify", "evidence/out"), ("optimize", "out/../evidence/o")],
    )
    def test_output_dir_in_the_store_is_usage_error(self, tmp_path, capsys, command, output):
        config = write_config(tmp_path, output_dir=str(tmp_path / output))
        assert main([command, "--config", str(config)]) == EXIT_USAGE
        assert "must lie outside store_root" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize(
        "key, value", [("app", "a\0b"), ("store_root", "e\0v"), ("output_dir", "o\0x")]
    )
    def test_path_holding_nul_is_usage_error(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, **{key: value})
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: bad config value: {key}: ValueError: ")
        assert list(tmp_path.iterdir()) == [config]


class TestVerifyCommand:
    def run_then_verify(self, tmp_path, mutate=None):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == EXIT_OK
        if mutate is not None:
            mutate(tmp_path / "evidence")
        return main(["verify", "--config", str(config)]), tmp_path / "out"

    def test_clean_store_verifies(self, tmp_path):
        code, out = self.run_then_verify(tmp_path)
        assert code == EXIT_OK
        payload = json.loads((out / "verification.json").read_text())
        assert payload["integrity_verified"] is True
        assert payload["group_results"] == {"CW.SE.CS.CT.CA": True}
        assert payload["pruned"] == {}

    def test_report_fields(self, tmp_path):
        _, out = self.run_then_verify(tmp_path, mutate=tamper_group_file)
        payload = json.loads((out / "verification.json").read_text())
        assert set(payload) == {
            "integrity_verified", "group_results", "pruned", "surviving_counts", "notes", "corrupt"
        }

    def test_tampered_store_fails_and_prunes(self, tmp_path):
        code, out = self.run_then_verify(tmp_path, mutate=tamper_group_file)
        assert code == EXIT_VERIFY_FAILED
        payload = json.loads((out / "verification.json").read_text())
        assert payload["integrity_verified"] is False
        # The tampered record's whole five-hop trace is pruned.
        assert payload["surviving_counts"] == {"CW.SE.CS.CT.CA": 5}
        assert len(payload["pruned"]["CW.SE.CS.CT.CA"]) == 1
        # A second verify over the pruned store is clean again.
        assert main(["verify", "--config", str(write_config(tmp_path))]) == EXIT_OK

    def test_missing_store_root_fails_and_is_not_created(self, tmp_path):
        config = write_config(tmp_path, store_root=str(tmp_path / "no" / "such" / "root"))
        assert main(["verify", "--config", str(config)]) == EXIT_VERIFY_FAILED
        assert not (tmp_path / "no").exists()
        assert json.loads((tmp_path / "out" / "verification.json").read_text()) == {
            "integrity_verified": False, "group_results": {}, "pruned": {},
            "surviving_counts": {}, "notes": {}, "corrupt": {},
        }

    def test_one_digit_edit_prunes_its_whole_trace(self, tmp_path):
        config = write_config(tmp_path, seed=1, request_counts=[10])
        assert main(["run", "--config", str(config)]) == EXIT_OK
        store = FileStore(tmp_path / "evidence")
        data = store.get("CW.SE.CS.CT.CA.json")
        billed = list(re.finditer(rb'"billed":(\d)', data))[7]
        digit = b"9" if billed.group(1) != b"9" else b"8"
        store.put("CW.SE.CS.CT.CA.json", data[: billed.start(1)] + digit + data[billed.end(1) :])
        assert main(["verify", "--config", str(config)]) == EXIT_VERIFY_FAILED
        payload = json.loads((tmp_path / "out" / "verification.json").read_text())
        tampered_trace = json.loads(data)[7]["traceid"]
        assert payload["pruned"] == {"CW.SE.CS.CT.CA": [tampered_trace]}
        assert payload["surviving_counts"] == {"CW.SE.CS.CT.CA": 45}
        survivors = parse_group_file(store.get("CW.SE.CS.CT.CA.json"))[:-1]
        assert tampered_trace not in {r.trace_id for r in survivors}
        assert main(["verify", "--config", str(config)]) == EXIT_OK

    def test_edited_trace_id_prunes_the_real_trace_too(self, tmp_path):
        """One hop's traceid edited: that element is pruned under the id it
        now holds, and its real trace, left a hop short, with it."""
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == EXIT_OK
        store = FileStore(tmp_path / "evidence")
        data = store.get("CW.SE.CS.CT.CA.json")
        hop = list(re.finditer(rb'"traceid":"([^"]*)"', data))[2]
        real = hop.group(1).decode()
        edited = real[:-1] + ("0" if real[-1] != "0" else "1")
        store.put("CW.SE.CS.CT.CA.json", data[: hop.start(1)] + edited.encode() + data[hop.end(1) :])
        assert main(["verify", "--config", str(config)]) == EXIT_VERIFY_FAILED
        payload = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert payload["pruned"] == {"CW.SE.CS.CT.CA": [edited, real]}
        assert payload["surviving_counts"] == {"CW.SE.CS.CT.CA": 5}
        survivors = parse_group_file(store.get("CW.SE.CS.CT.CA.json"))[:-1]
        assert real not in {r.trace_id for r in survivors}
        assert main(["verify", "--config", str(config)]) == EXIT_OK

    def test_proof_in_the_older_layout_is_corrupt_and_kept(self, tmp_path):
        """The layout that also listed the interior nodes as "tree" is not
        the one the pipeline writes."""
        stored = {}

        def older(root: Path):
            store = FileStore(root)
            data = store.get("CW.SE.CS.CT.CA.json").replace(b',"leaf":[', b',"tree":[],"leaf":[', 1)
            store.put("CW.SE.CS.CT.CA.json", data)
            stored["data"] = data

        code, out = self.run_then_verify(tmp_path, mutate=older)
        assert code == EXIT_CORRUPT
        payload = json.loads((out / "verification.json").read_text())
        assert payload["group_results"] == {"CW.SE.CS.CT.CA": False}
        assert payload["corrupt"] == {
            "CW.SE.CS.CT.CA": "group file's proof is not in the layout the pipeline writes"}
        assert payload["pruned"] == {} and payload["surviving_counts"] == {}
        assert FileStore(tmp_path / "evidence").get("CW.SE.CS.CT.CA.json") == stored["data"]

    @pytest.mark.parametrize("spaced", [b'}, {"traceid"', b'},\n{"traceid"'])
    def test_whitespace_between_records_is_corrupt_and_kept(self, tmp_path, spaced):
        """The same JSON value as the file run wrote, in another layout."""
        stored = {}

        def space(root: Path):
            store = FileStore(root)
            data = store.get("CW.SE.CS.CT.CA.json").replace(b'},{"traceid"', spaced)
            store.put("CW.SE.CS.CT.CA.json", data)
            stored["data"] = data

        code, out = self.run_then_verify(tmp_path, mutate=space)
        assert code == EXIT_CORRUPT
        payload = json.loads((out / "verification.json").read_text())
        assert payload["integrity_verified"] is False
        assert payload["group_results"] == {"CW.SE.CS.CT.CA": False}
        assert payload["pruned"] == {} and payload["surviving_counts"] == {}
        assert payload["corrupt"]["CW.SE.CS.CT.CA"].startswith(
            "group file's record 0 is not valid JSON: Extra data: line 1 column ")
        assert FileStore(tmp_path / "evidence").get("CW.SE.CS.CT.CA.json") == stored["data"]

    def test_non_string_text_fields_are_pruned(self, tmp_path):
        def retype(root: Path):
            store = FileStore(root)
            key = next(k for k in store.list() if "/" not in k)
            body = json.loads(store.get(key))
            body[0]["task"] = 1
            body[1]["caller"] = None
            store.put(key, json.dumps(body, separators=(",", ":")).encode())

        code, out = self.run_then_verify(tmp_path, mutate=retype)
        assert code == EXIT_VERIFY_FAILED
        payload = json.loads((out / "verification.json").read_text())
        assert payload["integrity_verified"] is False
        assert payload["corrupt"] == {}
        # Both records belong to the first trace, which is pruned whole.
        assert payload["surviving_counts"] == {"CW.SE.CS.CT.CA": 5}
        assert len(payload["pruned"]["CW.SE.CS.CT.CA"]) == 1
        assert main(["verify", "--config", str(write_config(tmp_path))]) == EXIT_OK

    def test_refused_rewrite_is_a_store_error_and_kept(self, tmp_path, monkeypatch):
        """The store refuses the pruned group's rewrite: the group fails
        with the store's message under notes, nothing counts as pruned,
        the file stays as stored, and verify exits 1, not 3."""

        class RefusingStore(MemoryStore):
            def put(self, key, data):
                if key in self.list():
                    raise StoreWriteFailed(f"cannot rewrite {key}: read-only")
                super().put(key, data)

        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == EXIT_OK
        tamper_group_file(tmp_path / "evidence")
        key = "CW.SE.CS.CT.CA"
        stored = FileStore(tmp_path / "evidence").get(f"{key}.json")
        store = RefusingStore()
        store.put(f"{key}.json", stored)
        report = commit(verify_integrity(load_setups(store)), store)
        message = f"cannot rewrite {key}.json: read-only"
        assert report.outcomes == {key: GroupOutcome(FailureReason.STORE_ERROR, message)}

        monkeypatch.setattr(cli, "FileStore", lambda root: store)
        assert main(["verify", "--config", str(config)]) == EXIT_VERIFY_FAILED
        payload = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert payload["notes"] == {key: message}
        assert payload["group_results"] == {key: False}
        assert payload["pruned"] == {} and payload["surviving_counts"] == {}
        assert payload["corrupt"] == {}
        assert store.get(f"{key}.json") == stored

    def test_corrupt_group_file_exit_code(self, tmp_path):
        def corrupt(root: Path):
            FileStore(root).put("BROKEN.json", b"not json")

        code, out = self.run_then_verify(tmp_path, mutate=corrupt)
        assert code == EXIT_CORRUPT
        payload = json.loads((out / "verification.json").read_text())
        assert "BROKEN" in payload["corrupt"]

    def test_leaf_forged_over_a_malformed_record_is_corrupt_and_kept(self, tmp_path):
        """One leaf replaced by the hash of a record edited into invalid
        JSON, the root left as it was: the leaf list no longer rebuilds
        the root, so every record would be pruned, and the one that does
        not decode makes the file corrupt before anything is rewritten."""
        stored = {}

        def forge_leaf(root: Path):
            store = FileStore(root)
            key = next(k for k in store.list() if "/" not in k)
            data = store.get(key)
            first = data[1 : data.index(b'},{"traceid":') + 1]
            edited = first.replace(b'"idx":0', b'"idx":01', 1)
            assert edited != first
            old_leaf = hashlib.sha256(first).hexdigest().encode()
            new_leaf = hashlib.sha256(edited).hexdigest().encode()
            forged = data.replace(first, edited, 1).replace(old_leaf, new_leaf, 1)
            assert forged.count(new_leaf) == 1
            store.put(key, forged)
            stored[key] = forged

        code, out = self.run_then_verify(tmp_path, mutate=forge_leaf)
        assert code == EXIT_CORRUPT
        payload = json.loads((out / "verification.json").read_text())
        [(key, forged)] = stored.items()
        assert payload["group_results"] == {key[: -len(".json")]: False}
        assert payload["pruned"] == {}
        assert payload["corrupt"] == {
            key[: -len(".json")]: "group file's record 0 is not valid JSON: "
            "Expecting ',' delimiter: line 1 column 181 (char 180)"
        }
        assert FileStore(tmp_path / "evidence").get(key) == forged

    def test_unreadable_group_file_is_reported_and_the_rest_verified(self, tmp_path):
        def dangle(root: Path):
            (root / "ZZ.json").symlink_to(root / "missing.json")

        code, out = self.run_then_verify(tmp_path, mutate=dangle)
        assert code == EXIT_CORRUPT
        payload = json.loads((out / "verification.json").read_text())
        assert payload["corrupt"] == {"ZZ": "no object at 'ZZ.json'"}
        assert payload["group_results"] == {"CW.SE.CS.CT.CA": True, "ZZ": False}
        assert payload["integrity_verified"] is False

    def test_empty_store_is_not_verified(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["verify", "--config", str(config)]) == EXIT_VERIFY_FAILED
        payload = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert payload["integrity_verified"] is False
        assert payload["group_results"] == {} and payload["corrupt"] == {}

    def test_good_group_beside_a_corrupt_file_is_not_verified(self, tmp_path):
        def garbage(root: Path):
            (root / "ZZ.json").write_bytes(b"garbage")

        code, out = self.run_then_verify(tmp_path, mutate=garbage)
        assert code == EXIT_CORRUPT
        payload = json.loads((out / "verification.json").read_text())
        assert payload["integrity_verified"] is False
        assert payload["group_results"] == {"CW.SE.CS.CT.CA": True, "ZZ": False}
        assert list(payload["corrupt"]) == ["ZZ"]

    def test_optimize_root_is_verified_per_iteration(self, tmp_path):
        """Every iteration's group file under an optimize store root is
        verified: a tampered record in iter000 is pruned there, and a
        second verify passes."""
        config = str(write_config(tmp_path, iterations=2))
        assert main(["optimize", "--config", config]) == EXIT_OK
        root = tmp_path / "evidence"
        tamper_group_file(root / "iter000")
        assert main(["verify", "--config", config]) == EXIT_VERIFY_FAILED
        payload = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert payload["group_results"] == {
            "iter000/CW.SE.CS.CT.CA": False, "iter001/CW.SE.CS.CT.CA": True
        }
        assert list(payload["pruned"]) == ["iter000/CW.SE.CS.CT.CA"]
        assert len(payload["pruned"]["iter000/CW.SE.CS.CT.CA"]) == 1
        assert FileStore(root).list() == [
            "iter000/CW.SE.CS.CT.CA.json", "iter001/CW.SE.CS.CT.CA.json"
        ]
        assert main(["verify", "--config", config]) == EXIT_OK

    def test_all_flagged_run_leaves_failing_proof(self, tmp_path):
        config = write_config(
            tmp_path,
            attack={"mode": "dow", "target_task": "SE", "when": "always"},
        )
        assert main(["run", "--config", str(config)]) == EXIT_OK
        assert main(["verify", "--config", str(config)]) == EXIT_VERIFY_FAILED


class TestOptimizeAndReport:
    def test_optimize_writes_trace_and_summary(self, tmp_path):
        config = write_config(
            tmp_path, initial_setup="split", iterations=7, request_counts=[3]
        )
        assert main(["optimize", "--config", str(config)]) == EXIT_OK
        payload = json.loads((tmp_path / "out" / "optimization_trace.json").read_text())
        assert payload["final_setup_part"] == "CW.SE.CS.CT.CA"
        costs = [entry["estimated_cost_ms"] for entry in payload["iterations"]]
        assert costs == [482, 432, 382, 332, 282, 282, 282]
        summary = read_csv(tmp_path / "out" / "summary.csv")
        assert summary[0] == ["iteration", "load", "successes", "failures", "cost"]
        assert len(summary) == 1 + 7
        assert summary[1] == ["0", "3", "3", "0", "482"]

    def test_optimize_persists_per_iteration_stores(self, tmp_path):
        config = write_config(tmp_path, iterations=2)
        assert main(["optimize", "--config", str(config)]) == EXIT_OK
        root = tmp_path / "evidence"
        assert (root / "iter000" / "CW.SE.CS.CT.CA.json").exists()
        assert (root / "iter001" / "CW.SE.CS.CT.CA.json").exists()

    def test_summary_counts_each_loads_flagged_traces(self, tmp_path):
        # The DoW fires on odd iterations, on every request of each load.
        attack = {"mode": "dow", "target_task": "SE"}
        config = write_config(tmp_path, iterations=2, request_counts=[2, 4], attack=attack)
        assert main(["optimize", "--config", str(config)]) == EXIT_OK
        rows = [row[:4] for row in read_csv(tmp_path / "out" / "summary.csv")[1:]]
        assert rows == [
            ["0", "2", "2", "0"], ["0", "4", "4", "0"], ["1", "2", "0", "2"], ["1", "4", "0", "4"],
        ]
        # Each row counts its own load's traces, not the whole iteration's.
        assert all(int(r[2]) + int(r[3]) == int(r[1]) for r in rows)

    def test_second_optimize_into_one_root_is_usage_error(self, tmp_path, capsys):
        # The first run's iterNNN group files would be verified as the second's.
        assert main(["optimize", "--config", str(write_config(tmp_path))]) == EXIT_OK
        root = tmp_path / "evidence"

        def stored():
            return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}

        before = stored()
        config = write_config(
            tmp_path, "split.json", initial_setup="split", iterations=3,
            request_counts=[3], output_dir=str(tmp_path / "out2"),
        )
        assert main(["optimize", "--config", str(config)]) == EXIT_USAGE
        assert "already holds 'iter000/CW.SE.CS.CT.CA.json'" in capsys.readouterr().err
        assert stored() == before
        assert not (tmp_path / "out2").exists()

    @pytest.mark.parametrize(
        "key", ["iter000/CW.json", "iter012/SE.json", "other/deep/G.json"],
        ids=["iter000", "iter012", "nested"],
    )
    def test_key_in_any_subdirectory_is_refused(self, tmp_path, capsys, key):
        FileStore(tmp_path / "evidence").put(key, b"{}")
        config = write_config(tmp_path, iterations=2)
        assert main(["optimize", "--config", str(config)]) == EXIT_USAGE
        assert f"already holds {key!r}" in capsys.readouterr().err
        assert FileStore(tmp_path / "evidence").list() == [key]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("prepare", ["absent", "empty", "run_output", "non_key_files"])
    def test_root_without_iteration_stores_matches_a_fresh_root(self, tmp_path, prepare):
        outputs = []
        for label in ("fresh", prepare):
            base = tmp_path / label
            base.mkdir()
            root = base / "evidence"
            config = str(write_config(base, attack={"mode": "dow", "target_task": "SE"},
                                      iterations=2, request_counts=[2, 3]))
            if label == "empty":
                root.mkdir()
            elif label == "run_output":
                assert main(["run", "--config", config]) == EXIT_OK
            elif label == "non_key_files":
                (root / "iter000").mkdir(parents=True)
                (root / "iter000" / "notes.txt").write_text("not a key", encoding="utf-8")
                (root / "README").write_text("not a key either", encoding="utf-8")
            assert main(["optimize", "--config", config]) == EXIT_OK
            outputs.append(
                {name: (base / "out" / name).read_bytes()
                 for name in ("optimization_trace.json", "summary.csv")}
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("where", ["file", "below_file"])
    def test_store_root_that_is_not_a_directory_is_usage_error(self, tmp_path, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file", encoding="utf-8")
        root = blocker if where == "file" else blocker / "sub"
        config = write_config(tmp_path, store_root=str(root))
        assert main(["optimize", "--config", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err
        assert sorted(tmp_path.iterdir()) == [blocker, config]

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"initial_setup": "split", "iterations": 4, "request_counts": [3, 1]},
            {"attack": {"mode": "dow", "target_task": "SE"}, "request_counts": [2, 4]},
            {"attack": {"mode": "business_logic", "swap": ["CT", "CA"], "when": "always"}},
            {"app": "tree", "app_params": {"fanout": 2, "depth": 2}, "initial_setup": "split"},
        ],
        ids=["fused", "split", "dow", "business_logic", "tree"],
    )
    def test_summary_is_the_traces_per_load_table(self, tmp_path, overrides):
        # summary.csv is the one per-load table: a row per iteration and load,
        # loads ascending, each holding that load's own counts and the iteration's cost.
        config = write_config(tmp_path, **{"iterations": 3, "request_counts": [2], **overrides})
        assert main(["optimize", "--config", str(config)]) == EXIT_OK
        trace = json.loads((tmp_path / "out" / "optimization_trace.json").read_text())
        summary = read_csv(tmp_path / "out" / "summary.csv")
        assert summary[0] == ["iteration", "load", "successes", "failures", "cost"]
        expected = [
            [entry["iteration"], load, *entry["load_stats"][str(load)], entry["estimated_cost_ms"]]
            for entry in trace["iterations"]
            for load in sorted(int(key) for key in entry["load_stats"])
        ]
        rows = [
            [int(it), int(load), int(ok), int(bad), None if cost == "" else float(cost)]
            for it, load, ok, bad, cost in summary[1:]
        ]
        assert rows == expected
        assert all(ok + bad == load for _, load, ok, bad, _ in rows)

    def test_deterministic_outputs(self, tmp_path):
        paths = []
        for label in ("a", "b"):
            base = tmp_path / label
            base.mkdir()
            config = write_config(
                base, initial_setup="split", iterations=5, request_counts=[3]
            )
            assert main(["optimize", "--config", str(config)]) == EXIT_OK
            paths.append(base / "out")
        for name in ("optimization_trace.json", "summary.csv"):
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_report_command_is_gone(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2

    def test_help_offers_run_verify_and_optimize_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{run,verify,optimize}" in capsys.readouterr().out

    def test_attack_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--attack", "nonsense"])

    @pytest.mark.parametrize("command", ["run", "verify", "optimize"])
    def test_attack_choices_are_none_and_the_attack_modes(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        (choices,) = set(re.findall(r"--attack \{([^}]*)\}", capsys.readouterr().out))
        assert set(choices.split(",")) == {"none", *(mode.value for mode in AttackMode)}

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json"), "--seed", "1"])
        assert code == EXIT_USAGE
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["config", "app document"])
    def test_document_that_is_not_utf8(self, tmp_path, capsys, what):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        config = bad if what == "config" else write_config(tmp_path, app=str(bad))
        code = main(["run", "--config", str(config), "--seed", "1"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: cannot read {what} {bad}: ")
