"""Scenario parsing, the task pipeline, report determinism, and CLI exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from switchgame.cli import main as cli_main
from switchgame.errors import DataError, ScenarioError
from switchgame.runner import parse_scenario, run

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ROOT / "src" / "switchgame" / "scenarios"
# Report digests of the bundled scenarios, recorded by bench/record.py; they
# do not depend on the seed.
REFERENCE = ROOT / "bench" / "reference.json"


def small_scenario(tmp_path, **overrides):
    doc = {
        "schema": 1,
        "name": "small",
        "costs": {"k": [[0.0, 1.0], [1.0, 0.0]], "l": [[0.0, 0.8], [0.8, 0.0]]},
        "generator": {"family": "mode_constant", "c": [[2.0, -2.0], [-2.0, 2.0]]},
        "terminal": {
            "family": "affine",
            "alpha": [[0.3, 0.9], [-0.4, 0.4]],
            "beta": [[1.0, 1.0], [0.9, 0.9]],
        },
        "horizon": 0.24,
        "d": 1,
        "tree": {"N": 4, "recombining": False},
        "tasks": [
            "validate",
            "solve_direct",
            {"task": "penalize", "n_list": [1, 2]},
            {"task": "saddle", "catalog_size": 10},
            "export",
        ],
        "out_dir": str(tmp_path / "reports"),
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestParsing:
    def test_bundled_standard_scenario(self):
        scenario = parse_scenario(BUNDLED / "standard_2x2.json")
        assert scenario.name == "standard_2x2"
        assert scenario.spec.costs.k[0, 1] == 1.0
        assert scenario.spec.costs.l[0, 1] == 0.8
        assert scenario.spec.generator.family == "mode_constant"
        assert scenario.tree_N == 8
        assert [t.name for t in scenario.tasks] == [
            "validate", "solve_direct", "penalize", "saddle", "export"]

    def test_all_problems_are_reported_at_once(self, tmp_path):
        path = small_scenario(
            tmp_path,
            schema=99,
            costs={"k": [[0.0, 0.0], [1.0, 0.0]], "l": [[0.0, 0.8], [0.8, 0.0]]},
            horizon=-2.0,
            surprise=True,
        )
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(path)
        text = "\n".join(exc.value.messages)
        assert "schema" in text
        assert "horizon" in text
        assert "surprise" in text
        assert "nonpositive off-diagonal" in text
        assert len(exc.value.messages) >= 4

    def test_zero_cost_loop_is_rejected(self, tmp_path):
        path = small_scenario(
            tmp_path,
            costs={"k": [[0.0, 1.0], [1.0, 0.0]], "l": [[0.0, 1.0], [1.0, 0.0]]},
        )
        with pytest.raises(ScenarioError, match="zero alternating cost"):
            parse_scenario(path)

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,\n  "name": }\n')
        with pytest.raises(ScenarioError, match=r":2:\d+: malformed JSON"):
            parse_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            parse_scenario(tmp_path / "nope.json")

    def test_unknown_task_and_bad_params(self, tmp_path):
        path = small_scenario(tmp_path, tasks=["validate", "warp", {"task": "penalize"}])
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(path)
        text = "\n".join(exc.value.messages)
        assert "warp" in text
        assert "n_list" in text


class TestPipeline:
    def test_full_run_succeeds(self, tmp_path):
        scenario = parse_scenario(small_scenario(tmp_path))
        result = run(scenario, seed=3)
        assert result.exit_code == 0
        assert result.failures == []
        out = result.out_dir
        for name in ("validate.csv", "solve_direct.csv", "penalize.csv",
                     "saddle.csv", "fields.csv", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 0
        assert manifest["seed"] == 3
        assert manifest["scenario_sha256"] == scenario.source_sha256
        assert [t["name"] for t in manifest["tasks"]] == [
            "validate", "solve_direct", "penalize", "saddle", "export"]
        assert all("wall_time_s" in t for t in manifest["tasks"])

    def test_reports_are_byte_deterministic(self, tmp_path):
        scenario = parse_scenario(small_scenario(tmp_path))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run(scenario, out_dir=out1, seed=11)
        run(scenario, out_dir=out2, seed=11)
        for name in ("validate.csv", "solve_direct.csv", "penalize.csv",
                     "saddle.csv", "fields.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_changes_the_catalog_but_not_the_solution(self, tmp_path):
        scenario = parse_scenario(small_scenario(tmp_path))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        r1 = run(scenario, out_dir=out1, seed=1)
        r2 = run(scenario, out_dir=out2, seed=2)
        assert r1.exit_code == r2.exit_code == 0
        assert (out1 / "solve_direct.csv").read_bytes() == \
            (out2 / "solve_direct.csv").read_bytes()

    def test_saddle_certificate_is_recorded_in_the_manifest_only(self, tmp_path):
        scenario = parse_scenario(small_scenario(tmp_path))
        result = run(scenario, out_dir=tmp_path / "cert", seed=0)
        entry = next(t for t in result.manifest["tasks"] if t["name"] == "saddle")
        assert entry["certified"] is True
        assert entry["best_reply_slack_I"] <= 1e-8 - entry["certificate_margin"]
        assert entry["best_reply_slack_II"] <= 1e-8 - entry["certificate_margin"]
        saved = json.loads((tmp_path / "cert" / "manifest.json").read_text())
        assert saved["tasks"] == result.manifest["tasks"]
        assert "certif" not in (tmp_path / "cert" / "saddle.csv").read_text()
        others = [t for t in result.manifest["tasks"] if t["name"] != "saddle"]
        assert not any("certified" in t for t in others)

    def test_corrupted_solution_trips_the_saddle_check(self, tmp_path):
        scenario = parse_scenario(small_scenario(tmp_path))

        def corrupt(sol):
            sol.Y[0] = sol.Y[0] + 0.3

        result = run(scenario, out_dir=tmp_path / "bad", seed=0,
                     solution_hook=corrupt)
        assert result.exit_code == 1
        assert any("saddle" in f for f in result.failures)
        assert (tmp_path / "bad" / "saddle_violations.csv").exists()
        entry = next(t for t in result.manifest["tasks"] if t["name"] == "saddle")
        assert entry["certified"] is False

    @pytest.mark.parametrize("b,N,status", [(3.0, 2, "fail"), (2.8, 2, "ok"), (3.0, 3, "ok")])
    def test_comparison_condition_is_validated(self, tmp_path, b, N, status):
        # sqrt(dt)*||b||_1 is 1.06 at b=3, N=2: the step is not monotone and the
        # strategy-enumeration value misses the direct one by 0.026; N=3 is the
        # smallest tree that meets the condition (brute force there is slow)
        path = small_scenario(
            tmp_path,
            costs={"k": [[0.0, 1.0], [1.3, 0.0]], "l": [[0.0]]},
            generator={"family": "saturated_affine", "a": 3.0, "b": [b], "M": 1.0,
                       "c": [[0.78], [-1.15]]},
            terminal={"family": "constant", "alpha": [[0.0], [0.0]]},
            horizon=0.25, tree={"N": N, "recombining": False},
            tasks=["validate", "solve_direct", "brute_force"] if N == 2 else ["validate"],
        )
        result = run(parse_scenario(path))
        rows = (result.out_dir / "validate.csv").read_text().splitlines()
        assert rows[-1].startswith(f"comparison,{status},")
        validate = [m for m in result.failures if m.startswith("validate:")]
        if status == "fail":
            assert result.exit_code == 1
            assert len(validate) == 1 and "refine the tree to N >= 3" in validate[0]
        else:
            assert result.exit_code == 0 and not validate

    def test_task_dependency_chain_message(self, tmp_path):
        scenario = parse_scenario(small_scenario(tmp_path))
        result = run(scenario, out_dir=tmp_path / "dep", tasks=["saddle"])
        assert result.exit_code == 2
        assert any("solve_direct" in f and "reorder" in f for f in result.failures)

    def test_brute_force_task_cross_checks_direct(self, tmp_path):
        path = small_scenario(
            tmp_path,
            tree={"N": 2, "recombining": False},
            tasks=["solve_direct", "brute_force"],
        )
        result = run(parse_scenario(path), out_dir=tmp_path / "bf")
        assert result.exit_code == 0
        lines = (tmp_path / "bf" / "brute_force.csv").read_text().splitlines()
        assert lines[0] == "i,j,value,direct,diff"
        assert len(lines) == 5


class TestGolden:
    @pytest.mark.parametrize("name", ["standard_2x2", "perf_3x3"])
    def test_bundled_reports_match_the_reference_digests(self, tmp_path, name):
        expected = json.loads(REFERENCE.read_text())["pipeline_bundled"][name]
        out = tmp_path / name
        assert cli_main(["solve", str(BUNDLED / f"{name}.json"), "--out", str(out),
                         "--seed", "0"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.glob("*.csv")}
        assert digests == expected


class TestCli:
    def test_solve_exit_zero(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        assert cli_main(["solve", str(path), "--out", str(tmp_path / "cli")]) == 0
        assert "exit 0" in capsys.readouterr().out

    def test_configuration_error_exits_two(self, tmp_path, capsys):
        path = small_scenario(
            tmp_path,
            costs={"k": [[0.0, 1.0], [1.0, 0.0]], "l": [[0.0, 1.0], [1.0, 0.0]]},
        )
        assert cli_main(["solve", str(path)]) == 2
        assert "zero alternating cost" in capsys.readouterr().err

    @pytest.mark.parametrize("field,number,token", [
        ("k", '"k": [[0.0, 1.0', '"k": [[0.0, NaN'),
        ("c", '"c": [[2.0', '"c": [[NaN'),
        ("alpha", '"alpha": [[0.3', '"alpha": [[NaN'),
    ])
    def test_non_finite_token_exits_two_naming_the_field(self, tmp_path, capsys,
                                                         field, number, token):
        # Python's json module reads the NaN token as a float
        path = small_scenario(tmp_path)
        path.write_text(path.read_text().replace(number, token, 1))
        assert cli_main(["solve", str(path)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_horizon_is_a_data_error_naming_the_field(self, tmp_path, capsys,
                                                                 token):
        # NaN <= 0 is False, so a sign test alone would let NaN through
        path = small_scenario(tmp_path)
        path.write_text(path.read_text().replace('"horizon": 0.24', f'"horizon": {token}'))
        with pytest.raises(DataError, match="horizon: expected a positive finite number"):
            parse_scenario(path)
        assert cli_main(["solve", str(path)]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_missing_scenario_exits_two(self, tmp_path):
        assert cli_main(["solve", str(tmp_path / "absent.json")]) == 2

    def test_invariant_failure_exits_one(self, tmp_path, capsys):
        # a terminal outside the constraint region is caught by the validate
        # task, which reports it as a failed invariant rather than crashing
        path = small_scenario(
            tmp_path,
            terminal={"family": "constant", "alpha": [[5.0, 0.0], [0.0, 0.0]]},
            tasks=["validate"],
        )
        code = cli_main(["solve", str(path), "--out", str(tmp_path / "dom")])
        assert code == 1
        assert "outside" in capsys.readouterr().err
        report = (tmp_path / "dom" / "validate.csv").read_text()
        assert "terminal_domain,fail" in report

    def test_task_subset_override(self, tmp_path):
        path = small_scenario(tmp_path)
        assert cli_main(["solve", str(path), "--out", str(tmp_path / "sub"),
                         "--tasks", "validate,solve_direct"]) == 0
        assert (tmp_path / "sub" / "solve_direct.csv").exists()
        assert not (tmp_path / "sub" / "saddle.csv").exists()

    def test_unknown_task_override_exits_two(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        assert cli_main(["solve", str(path), "--tasks", "warp"]) == 2
        assert "warp" in capsys.readouterr().err
