"""Command-line interface: configs, commands, exit codes, outputs."""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

import pytest

from fusionproof.cli import (
    EXIT_CORRUPT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    ConfigError,
    ScenarioConfig,
    build_parser,
    build_policy,
    build_setup,
    config_from_dict,
    main,
    resolve_config,
)
from fusionproof.proofs import ThresholdPolicy, group_file_bytes, parse_group_file
from fusionproof.store import FileStore
from fusionproof.verification import CostModel, SamplingState
from fusionproof.workload import builtin_iot_app

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


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def tamper_group_file(store_root: Path) -> None:
    import dataclasses

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
        text = README.read_text(encoding="utf-8")
        schema = text[text.index("### Config schema"):]
        block = schema[schema.index("```json") + len("```json"):]
        doc = json.loads(block[: block.index("```")])
        config = config_from_dict(doc)
        assert config.attack.target_task == doc["attack"]["target_task"]
        assert config.csp1 == SamplingState(i=doc["csp1"]["i"], f=doc["csp1"]["f"])

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_sequence_check_must_be_a_boolean(self, tmp_path, capsys, value):
        config = write_config(tmp_path, policy={"sequence_check": value})
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: bad config value")

    @pytest.mark.parametrize("command", ["run", "verify", "report"])
    def test_out_of_range_csp1_fails_at_load(self, tmp_path, capsys, command):
        config = write_config(tmp_path, csp1={"i": 0})
        assert main([command, "--config", str(config)]) == EXIT_USAGE
        assert "clearance number i must be >= 1" in capsys.readouterr().err

    def test_explicit_groups(self):
        config = config_from_dict({"initial_setup": [["CW", "SE"], ["CS", "CT", "CA"]]})
        setup = build_setup(config, builtin_iot_app())
        assert setup.setup_part == "CW.SE,CS.CT.CA"

    def test_groups_must_partition_tasks(self):
        config = config_from_dict({"initial_setup": [["CW", "SE"]]})
        with pytest.raises(ConfigError):
            build_setup(config, builtin_iot_app())

    @pytest.mark.parametrize("counts", [[], [0], [-3]])
    def test_bad_request_counts(self, counts):
        with pytest.raises(ConfigError):
            config_from_dict({"request_counts": counts})

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
            ({"iterations": "abc"}, "iterations: ValueError"),
            ({"seed": "x"}, "seed: ValueError"),
            ({"policy": {"sequence_check": "false"}}, "policy.sequence_check: TypeError"),
            ({"csp1": {"f": "half"}}, "csp1.f: ValueError"),
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
        assert records[0][:3] == ["trace_id", "task", "chain_index"]
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
        assert payload["surviving_counts"] == {"CW.SE.CS.CT.CA": 9}
        assert len(payload["pruned"]["CW.SE.CS.CT.CA"]) == 1
        # A second verify over the pruned store is clean again.
        assert main(["verify", "--config", str(write_config(tmp_path))]) == EXIT_OK

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
        assert payload["surviving_counts"] == {"CW.SE.CS.CT.CA": 8}
        assert len(payload["pruned"]["CW.SE.CS.CT.CA"]) == 2
        assert main(["verify", "--config", str(write_config(tmp_path))]) == EXIT_OK

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
            key[: -len(".json")]: "group file is not valid JSON: "
            "Expecting ',' delimiter: line 1 column 182 (char 181)"
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

    def test_report_aggregates_by_load(self, tmp_path):
        config = write_config(tmp_path, iterations=2, request_counts=[2, 4])
        assert main(["optimize", "--config", str(config)]) == EXIT_OK
        assert main(["report", "--config", str(config)]) == EXIT_OK
        rows = read_csv(tmp_path / "out" / "outcomes_by_load.csv")
        assert rows[0] == [
            "load", "iteration", "verified_groups", "failed_groups", "pruned_blocks",
        ]
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("2", "0"), ("2", "1"), ("4", "0"), ("4", "1"),
        ]
        assert all(r[2] == "1" and r[3] == "0" and r[4] == "0" for r in rows[1:])

    def test_report_without_trace_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["report", "--config", str(config)]) == EXIT_USAGE
        assert "optimize" in capsys.readouterr().err

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

    def test_attack_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--attack", "nonsense"])

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json"), "--seed", "1"])
        assert code == EXIT_USAGE
        assert "cannot read config" in capsys.readouterr().err


class TestReportMalformedTrace:
    GOOD_ENTRY = {"iteration": 0, "group_results": {"CW": True}, "load_stats": {"2": [2, 0]}}

    def report_on(self, tmp_path, capsys, text):
        config = write_config(tmp_path)
        trace = tmp_path / "out" / "optimization_trace.json"
        trace.parent.mkdir()
        trace.write_text(text, encoding="utf-8")
        code = main(["report", "--config", str(config)])
        return code, capsys.readouterr().err

    def test_truncated_json(self, tmp_path, capsys):
        text = json.dumps({"iterations": [self.GOOD_ENTRY]})[:-7]
        code, err = self.report_on(tmp_path, capsys, text)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "JSONDecodeError" in err

    def test_payload_not_an_object(self, tmp_path, capsys):
        code, err = self.report_on(tmp_path, capsys, json.dumps([self.GOOD_ENTRY]))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "JSON object" in err

    def test_missing_iteration(self, tmp_path, capsys):
        entry = {k: v for k, v in self.GOOD_ENTRY.items() if k != "iteration"}
        code, err = self.report_on(tmp_path, capsys, json.dumps({"iterations": [entry]}))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "'iteration'" in err

    def test_non_integer_load_key(self, tmp_path, capsys):
        entry = {**self.GOOD_ENTRY, "load_stats": {"two": [2, 0]}}
        code, err = self.report_on(tmp_path, capsys, json.dumps({"iterations": [entry]}))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "'two'" in err

    @pytest.mark.parametrize("entry", [1, ["iteration"], {"iteration": 0, "load_stats": [None]}])
    def test_entry_of_the_wrong_shape(self, tmp_path, capsys, entry):
        code, err = self.report_on(tmp_path, capsys, json.dumps({"iterations": [entry]}))
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
