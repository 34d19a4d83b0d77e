"""Scenario parsing, the task pipeline, report determinism, and CLI exit codes."""

import csv
import functools
import hashlib
import io
import json
import math
import re
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from switchgame import build_tree, reflected, runner
from switchgame.cli import main as cli_main
from switchgame.errors import DataError, ScenarioError
from switchgame.penalty import penalization_report, solve_double_penalized, solve_penalized
from switchgame.reflected import solve_rbsde
from switchgame.runner import parse_scenario, run

from conftest import random_admissible_spec, time_budget

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


# every task, with every parameter, for documents that fail at parse time
EVERY_TASK = [
    "validate",
    "solve_direct",
    {"task": "penalize", "n_list": [1, 2]},
    {"task": "saddle", "catalog_size": 10},
    "export",
    {"task": "double_penalize", "n": 2, "m_list": [1, 2]},
    {"task": "brute_force"},
]
DELETE = object()
KNOWN_TASKS = "brute_force, double_penalize, export, penalize, saddle, solve_direct, validate"

# (place in the document, value written there, the one message parsing gives)
# Messages the parser already gave at d08c104, recorded there:
PINNED = [
    (("surprise",), True, "unknown top-level field(s): ['surprise']"),
    (("schema",), 2, "schema: expected 1, got 2"),
    (("name",), "", "name: expected a non-empty string"),
    (("costs", "l"), DELETE, "costs: expected an object with exactly the fields 'k' and 'l'"),
    (("costs", "k"), "abc", "costs.k: not a numeric matrix"),
    (("costs", "l"), [0.0, 0.8], "costs.l: expected a 2-D matrix, got 1 dimensions"),
    (("costs", "k"), [[0.0, 1.0]], "costs: k and l must be square"),
    (("costs", "k"), [[0.0, math.inf], [1.0, 0.0]],
     "costs: k must be finite; found inf at index (0, 1)"),
    (("d",), 0, "d: expected a positive integer"),
    (("horizon",), -2.0, "horizon: expected a positive finite number"),
    (("generator", "family"), DELETE, "generator: expected an object with a 'family' field"),
    (("generator", "z"), 1.0, "generator: unknown field(s) ['z']"),
    (("generator", "family"), "warp", "generator: unknown generator family 'warp'"),
    (("terminal",), "affine", "terminal: expected an object with a 'family' field"),
    (("terminal", "gamma"), 1.0, "terminal: unknown field(s) ['gamma']"),
    (("terminal", "alpha"), [[0.3]], "terminal: alpha must have shape (2, 2)"),
    (("tree",), [], "tree: expected an object"),
    (("tree", "depth"), 3, "tree: unknown field(s) ['depth']"),
    (("tree", "N"), 0, "tree.N: expected a positive integer"),
    (("tree", "recombining"), "yes", "tree.recombining: expected a boolean"),
    (("tree", "node_cap"), 0, "tree.node_cap: expected a positive integer"),
    (("tasks",), [], "tasks: expected a non-empty list"),
    (("tasks", 1), 5, "tasks[1]: expected a task name or object"),
    (("tasks", 1), "warp", f"tasks[1]: unknown task 'warp' (known: {KNOWN_TASKS})"),
    (("tasks", 2, "extra"), 1, "tasks[2]: unknown parameter(s) ['extra'] for task 'penalize'"),
    (("tasks", 2, "n_list"), DELETE, "tasks[2]: task 'penalize' requires parameter(s) ['n_list']"),
    (("tasks", 2, "n_list"), [0], "tasks[2].n_list: expected a non-empty list of positive "
                                   "integers"),
    (("tasks", 5, "m_list"), [], "tasks[5].m_list: expected a non-empty list of positive "
                                 "integers"),
    (("out_dir",), "", "out_dir: expected a non-empty string"),
    (("tolerances",), [], "tolerances: expected an object"),
    (("tolerances", "loose"), 1.0, "tolerances: unknown field(s) ['loose'] "
                                    "(known: ['match', 'saddle'])"),
    (("tolerances", "projection"), 1e-12, "tolerances: unknown field(s) ['projection'] "
                                          "(known: ['match', 'saddle'])"),
    (("tolerances", "saddle"), -1.0, "tolerances.saddle: expected a positive number"),
    (("costs", "k"), [[0.0, 0.0], [1.0, 0.0]], "spec: k has a nonpositive off-diagonal entry"),
]
# Inputs d08c104 accepted, or let escape as a TypeError or ValueError traceback:
NEWLY_REJECTED = [
    (("tolerances", "saddle"), math.nan, "tolerances.saddle: expected a positive number"),
    (("tolerances", "picard"), math.nan, "tolerances: unknown field(s) ['picard'] "
                                         "(known: ['match', 'saddle'])"),
    (("tolerances", "match"), math.inf, "tolerances.match: expected a positive number"),
    (("d",), True, "d: expected a positive integer"),
    (("tasks", 3, "catalog_size"), "abc",
     "tasks[3].catalog_size: expected a non-negative integer"),
    (("tasks", 3, "catalog_size"), -3, "tasks[3].catalog_size: expected a non-negative integer"),
    (("tasks", 5, "n"), "x", "tasks[5].n: expected a positive integer"),
    (("tasks", 5, "n"), 0, "tasks[5].n: expected a positive integer"),
    (("tasks", 2, "n_list"), [True],
     "tasks[2].n_list: expected a non-empty list of positive integers"),
    (("tasks", 2, "task"), ["penalize"],
     f"tasks[2]: unknown task ['penalize'] (known: {KNOWN_TASKS})"),
    (("tree", "N"), True, "tree.N: expected a positive integer"),
    (("tree", "node_cap"), True, "tree.node_cap: expected a positive integer"),
    (("horizon",), True, "horizon: expected a positive finite number"),
    (("schema",), True, "schema: expected 1, got True"),
    (("generator", "c"), "abc", "generator.c: expected a number or an array of numbers"),
    (("generator", "c"), [[2.0, -2.0], [-2.0]],
     "generator.c: expected a number or an array of numbers"),
    (("terminal", "beta"), [[1.0, True], [0.9, 0.9]],
     "terminal.beta: expected a number or an array of numbers"),
    # one step has 2**d children, so no tree within the node cap exists
    (("d",), 10 ** 30, f"d: {10 ** 30} Brownian components need 2**d + 1 nodes for one "
                       "step, more than the node cap 4194304"),
    (("d",), 23, "d: 23 Brownian components need 2**d + 1 nodes for one step, more than "
                 "the node cap 4194304"),
]
# Task parameters d985b76 accepted that are now gone: the run seed seeds the
# catalog, and brute force is sized by its cap on the values per tree level alone
RETIRED = [
    (("tasks", 3, "seed"), 5, "tasks[3]: unknown parameter(s) ['seed'] for task 'saddle'"),
    (("tasks", 6, "max_steps"), 3,
     "tasks[6]: unknown parameter(s) ['max_steps'] for task 'brute_force'"),
    (("tasks", 6, "max_modes"), 4,
     "tasks[6]: unknown parameter(s) ['max_modes'] for task 'brute_force'"),
]


def malformed(tmp_path, where, value):
    """The small scenario with every task and tolerance, `value` written (or
    DELETE'd) at `where`."""
    path = small_scenario(tmp_path, tasks=EVERY_TASK, tolerances=runner.DEFAULT_TOLERANCES)
    doc = json.loads(path.read_text())
    *parents, last = where
    target = functools.reduce(lambda node, key: node[key], parents, doc)
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    path.write_text(json.dumps(doc))
    return path


class TestFieldRules:
    def test_parameters_are_kept_as_written(self, tmp_path):
        scenario = parse_scenario(small_scenario(tmp_path, tasks=EVERY_TASK,
                                                 tolerances=runner.DEFAULT_TOLERANCES))
        assert [t.params for t in scenario.tasks] == [
            {k: v for k, v in t.items() if k != "task"} if isinstance(t, dict) else {}
            for t in EVERY_TASK]

    @pytest.mark.parametrize("where,value,message", PINNED + NEWLY_REJECTED + RETIRED,
                             ids=[f"{'.'.join(map(str, w))}={v!r}" if v is not DELETE
                                  else f"{'.'.join(map(str, w))}-deleted"
                                  for w, v, _ in PINNED + NEWLY_REJECTED + RETIRED])
    def test_malformed_field_exits_two_naming_it(self, tmp_path, capsys, where, value, message):
        path = malformed(tmp_path, where, value)
        assert cli_main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"{path}: {message}"]
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("token", ["1" + "0" * 5000, "[" * 100000 + "]" * 100000])
    def test_json_past_the_parser_limits_is_a_scenario_error(self, tmp_path, token):
        # json.loads raises a plain ValueError for an integer literal over
        # 4,300 digits and RecursionError for deep nesting
        path = small_scenario(tmp_path)
        path.write_text(path.read_text().replace('"horizon": 0.24', f'"horizon": {token}'))
        with pytest.raises(ScenarioError, match="JSON beyond the parser's limits"):
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

    def test_export_records_its_rows_and_bytes_in_the_manifest(self, tmp_path):
        scenario = parse_scenario(small_scenario(tmp_path))
        result = run(scenario, out_dir=tmp_path / "sized", seed=0)
        entry = next(t for t in result.manifest["tasks"] if t["name"] == "export")
        written = (tmp_path / "sized" / "fields.csv").read_bytes()
        tree = scenario.build_tree()
        assert entry["rows"] == written.count(b"\r\n") - 1 == tree.num_nodes * 4
        assert entry["bytes"] == len(written)
        # the nodes formatted: the distinct bit rows of each block of nodes
        sol = solve_rbsde(scenario.spec, tree)
        size = reflected._EXPORT_BLOCK_ROWS // 4
        distinct = 0
        for t in range(tree.N + 1):
            fields = [tree.level_w(t), sol.Y[t], sol.K[t], sol.L[t]]
            fields += [sol.Z[t], sol.dK[t], sol.dL[t]] if t < tree.N else []
            bits = np.concatenate([np.reshape(f, (len(f), -1)) for f in fields], axis=1)
            distinct += sum(len(np.unique(bits[start:start + size].view(np.uint64), axis=0))
                            for start in range(0, len(bits), size))
        assert entry["distinct_nodes"] == distinct < tree.num_nodes
        others = [t for t in result.manifest["tasks"] if t["name"] != "export"]
        assert not any({"rows", "bytes", "distinct_nodes"} & t.keys() for t in others)

    def test_a_rerun_leaves_no_report_of_an_earlier_run(self, tmp_path):
        # a clean rerun kept saddle_violations.csv, and a validate-only rerun
        # every report of the earlier run
        path = small_scenario(tmp_path)
        out = tmp_path / "again"

        def corrupt(sol):
            sol.Y[0] = sol.Y[0] + 0.3

        assert run(parse_scenario(path), out_dir=out, seed=0, solution_hook=corrupt).exit_code == 1
        assert (out / "saddle_violations.csv").exists()
        for name in ("notes.txt", "other.csv"):
            (out / name).write_text("not a report\n")
        assert cli_main(["solve", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fields.csv", "manifest.json", "notes.txt", "other.csv", "penalize.csv",
            "saddle.csv", "solve_direct.csv", "validate.csv"]
        assert cli_main(["solve", str(path), "--out", str(out), "--tasks", "validate"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "notes.txt", "other.csv", "validate.csv"]
        assert (out / "other.csv").read_text() == "not a report\n"

    def test_the_reports_deleted_before_a_run_are_the_ones_the_tasks_write(self, tmp_path):
        # every task once on a tree that brute force takes, then a lowered root
        scenario = parse_scenario(small_scenario(
            tmp_path, tree={"N": 2, "recombining": False}, tasks=EVERY_TASK))

        def lower(sol):
            sol.Y[0] = sol.Y[0] - 0.3

        run(scenario, out_dir=tmp_path / "every", seed=0)
        run(scenario, out_dir=tmp_path / "lowered", seed=0, tasks=["solve_direct", "saddle"],
            solution_hook=lower)
        written = {p.name for d in ("every", "lowered") for p in (tmp_path / d).glob("*.csv")}
        assert written == set(runner._REPORTS)

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

    def test_a_corrupted_node_off_its_class_representative_trips_the_saddle_check(
            self, tmp_path):
        # the saddle reads the values of a Markovian game on the carrier of the
        # tree's distinct nodes only when they are the same bits at each of its
        # classes: one node edited, not the first of its class, is still seen
        scenario = parse_scenario(small_scenario(tmp_path))
        tree = scenario.build_tree()
        level, distinct = tree.N - 1, tree.distinct
        node = max(q for q in range(tree.level_size(level))
                   if distinct.reps[level][distinct.classes[level][q]] != q)

        def corrupt(sol):
            sol.Y[level][node, 0, 0] += 0.3

        result = run(scenario, out_dir=tmp_path / "off", seed=0,
                     tasks=["solve_direct", "saddle"], solution_hook=corrupt)
        assert result.exit_code == 1
        entry = next(t for t in result.manifest["tasks"] if t["name"] == "saddle")
        assert entry["status"] == "invariant_failure" and entry["certified"] is False
        assert any(f.startswith("saddle: ") for f in result.failures)

        # and penalization_report's gap reads every node of the direct solution
        direct = solve_rbsde(scenario.spec, tree)
        clean = penalization_report(scenario.spec, tree, [1, 2], direct=direct).gaps()
        direct.Y[level][node] += 5.0
        edited = penalization_report(scenario.spec, tree, [1, 2], direct=direct).gaps()
        # the edited node alone is 5.0 away from its value in `direct`
        assert all(e >= 5.0 - c for e, c in zip(edited, clean, strict=True))

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

    @pytest.mark.parametrize("a,factor", [(20.0, 2), (50.0, 4)])
    def test_contraction_failure_names_the_refinement_factor(self, tmp_path, a, factor):
        # dt = 0.06, so dt * C is 1.2 at a = 20 and 3.0 at a = 50: the kernel's
        # guard names the smallest factor that brings it below 1
        path = small_scenario(
            tmp_path,
            generator={"family": "saturated_affine", "a": a, "b": [0.2], "M": 1.0,
                       "c": [[2.0, -2.0], [-2.0, 2.0]]},
            tasks=["validate"],
        )
        result = run(parse_scenario(path), out_dir=tmp_path / "coarse")
        assert result.exit_code == 1
        rows = (tmp_path / "coarse" / "validate.csv").read_text().splitlines()
        assert f"contraction,fail,dt=0.06 lipschitz={a!r}" in rows
        manifest = json.loads((tmp_path / "coarse" / "manifest.json").read_text())
        assert manifest["tasks"][0]["failures"] == [
            f"time step dt=0.06 is too coarse for the driver Lipschitz constant {a:g} (need "
            f"dt*C < 1); refine the tree by a factor of at least {factor}"]

    def test_tolerance_option_is_refused(self, tmp_path, capsys):
        # the scenario's `tolerances` is the one source of the saddle and
        # match tolerances
        path = small_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve", str(path), "--out", str(tmp_path / "tol"), "--tolerance", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance 1e-6" in capsys.readouterr().err
        assert not (tmp_path / "tol").exists()

    def test_lowered_root_trips_the_upper_inequality_on_the_catalog(self, tmp_path):
        def lower(sol):
            sol.Y[0] = sol.Y[0] - 0.3

        result = run(parse_scenario(small_scenario(tmp_path)), out_dir=tmp_path / "low",
                     seed=0, tasks=["solve_direct", "saddle"], solution_hook=lower)
        assert result.exit_code == 1
        with open(tmp_path / "low" / "saddle.csv", newline="") as fh:
            upper = [r for r in csv.reader(fh) if r[0] == "upper"]
        catalog = {"stay", "constant_1", "constant_2", "greedy"} | {
            f"random_{s}" for s in range(10)}
        names = {r[1] for r in upper}
        assert names and names <= catalog
        upper_failures = [f for f in result.failures if f.startswith("saddle: upper")]
        assert len(upper_failures) == len(upper)
        assert all(re.search(r"\(strategy \w+, start \(\d, \d\)\)$", f) for f in upper_failures)
        # each upper violation is followed by its strategy's replay table,
        # one row per interior (node, i, j) of the N=4 tree
        with open(tmp_path / "low" / "saddle_violations.csv", newline="") as fh:
            replay = [r for r in csv.reader(fh) if r[0] == "upper"]
        assert {r[1] for r in replay} == names
        for name in names:
            count = sum(r[1] == name for r in upper)
            assert sum(r[1] == name for r in replay) == count * 15 * 4

    def test_a_saddle_failure_line_reads_a_float_and_a_one_based_start(self, tmp_path):
        # every interior level lowered by 0.05 opens the value gap at every
        # start pair; the line names the start as saddle.csv does
        def lower(sol):
            for y in sol.Y[:-1]:
                y -= 0.05

        result = run(parse_scenario(BUNDLED / "standard_2x2.json"), out_dir=tmp_path / "gap",
                     seed=0, tasks=["solve_direct", "saddle"], solution_hook=lower)
        line = ("value inequality violated by 0.050000000000000044 "
                "(strategy saddle_pair, start (1, 1))")
        assert result.failures[0] == f"saddle: {line}"
        assert result.manifest["tasks"][1]["failures"][0] == line
        with open(tmp_path / "gap" / "saddle.csv", newline="") as fh:
            assert ["value", "saddle_pair", "1,1", "0.050000000000000044"] in list(
                csv.reader(fh))

    def test_scenario_tolerances_set_saddle_and_match(self, tmp_path):
        path = small_scenario(tmp_path, tolerances={"saddle": 1e-6, "match": 1e-6})
        assert cli_main(["solve", str(path), "--out", str(tmp_path / "tol")]) == 0
        manifest = json.loads((tmp_path / "tol" / "manifest.json").read_text())
        assert manifest["tolerances"] == {**runner.DEFAULT_TOLERANCES,
                                          "saddle": 1e-6, "match": 1e-6}

    def test_double_penalize_report_matches_the_solvers(self, tmp_path):
        scenario = parse_scenario(small_scenario(
            tmp_path, tasks=[{"task": "double_penalize", "n": 4, "m_list": [1, 2, 4]}]))
        assert run(scenario, out_dir=tmp_path / "dp").exit_code == 0
        lines = (tmp_path / "dp" / "double_penalize.csv").read_text().splitlines()
        assert lines[0] == "m,Y_root_11,Y_root_12,Y_root_21,Y_root_22,gap_to_single"
        tree = scenario.build_tree()
        single = solve_penalized(scenario.spec, tree, 4)
        expected = []
        for m in (1, 2, 4):
            sol = solve_double_penalized(scenario.spec, tree, 4, m)
            gap = max(float(np.abs(y - ys).max()) for y, ys in zip(sol.Y, single.Y))
            expected.append(",".join([str(m), *(repr(float(v)) for v in sol.root.ravel()),
                                      repr(gap)]))
        assert lines[1:] == expected

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
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["standard_2x2", "perf_3x3"])
    def test_bundled_reports_match_the_reference_digests(self, tmp_path, name, seed):
        expected = json.loads(REFERENCE.read_text())["pipeline_bundled"][name]
        out = tmp_path / name
        assert cli_main(["solve", str(BUNDLED / f"{name}.json"), "--out", str(out),
                         "--seed", str(seed)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.glob("*.csv")}
        assert digests == expected

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["standard_2x2", "perf_3x3"])
    def test_bundled_saddle_is_certified(self, tmp_path, name, seed):
        # without the certificate every pass would run the catalog sweep
        result = run(parse_scenario(BUNDLED / f"{name}.json"), out_dir=tmp_path / name,
                     seed=seed, tasks=["solve_direct", "saddle"])
        entry = next(t for t in result.manifest["tasks"] if t["name"] == "saddle")
        assert result.exit_code == 0
        assert entry["certified"] is True

    def test_violation_reports_match_their_pinned_digests(self, tmp_path):
        # standard_2x2 with Y(root) lowered by 0.3 fails the upper inequality
        # on the catalog, so both saddle reports carry violation rows
        def lower(sol):
            sol.Y[0] = sol.Y[0] - 0.3

        out = tmp_path / "low"
        result = run(parse_scenario(BUNDLED / "standard_2x2.json"), out_dir=out, seed=0,
                     tasks=["solve_direct", "saddle"], solution_hook=lower)
        assert result.exit_code == 1
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("saddle.csv", "saddle_violations.csv")}
        assert digests == {
            "saddle.csv":
                "b60aec486c8f268e3b68303dc38145161a986afad76e5c0bc2d1edaabcd356ba",
            "saddle_violations.csv":
                "5631bb8f2d3b0f9a674e2d6a89a1bdc0c38a48b0e292234b96b5d23dd4e60219",
        }


def one_block_bound(d: int, rows: int, lines: int) -> int:
    """Bytes that a block of `rows` rows of `fields.csv`, joined and written
    `lines` lines at a time, can hold at once, with room for the file's
    buffers.

    Per row of the block: the cells of the text columns (Y, Z1..Zd, dK, dL,
    K, L; a float's repr has at most 24 characters), and one column's floats
    and array entries while it is formatted.  Per line joined at once: the
    joined line (keys of at most 7 digits) and a line's worth again for its
    key, pair and W cells (a node's are shared by its rows, so this is
    spare), and its text twice: joined, and then copied once more by its
    encoding.  The bound grows in proportion to the block's rows and to the
    lines joined at once."""
    ptr, cells = struct.calcsize("P"), 5 + d
    line = 4 * 8 + (d + cells) * 25
    per_row = cells * (ptr + sys.getsizeof("x" * 24)) + ptr + sys.getsizeof(0.0) + 8
    per_line = 2 * (ptr + sys.getsizeof("x" * line)) + 2 * (line + 2)
    return rows * per_row + min(lines, rows) * per_line + 8 * io.DEFAULT_BUFFER_SIZE


def export_bound(d: int) -> int:
    """`one_block_bound` of the committed block and write sizes."""
    return one_block_bound(d, reflected._EXPORT_BLOCK_ROWS, reflected._WRITE_ROWS)


class TestFieldsExport:
    """`fields.csv` is written one block of text at a time, so the export's
    memory does not grow with the largest level."""

    @pytest.fixture(scope="class")
    def perf_3x3(self):
        scenario = parse_scenario(BUNDLED / "perf_3x3.json")
        sol = solve_rbsde(scenario.spec, scenario.build_tree())
        sol.K, sol.L    # the cumulants are summed on first read, not by the writer
        return sol

    @staticmethod
    def traced_peak(sol, path):
        tracemalloc.start()
        try:
            reflected.write_fields(path, sol)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_within_one_block_of_text(self, perf_3x3, tmp_path):
        bound = export_bound(perf_3x3.tree.d)
        assert self.traced_peak(perf_3x3, tmp_path / "fields.csv") <= bound

    def test_peak_on_values_that_do_not_repeat_is_within_one_block_of_text(self, tmp_path):
        # a random leaf table's Y and Z hardly repeat, so the memo holds a
        # text per entry beside its keys and inverse index
        tree = build_tree(12, 1, 1.0)
        sol = solve_rbsde(random_admissible_spec(np.random.default_rng(5), 3, 3, tree), tree)
        sol.K, sol.L
        for fields in (sol.Y, sol.Z):
            entries = np.concatenate([a.ravel() for a in fields])
            assert np.unique(entries).size > 0.9 * entries.size
        bound = export_bound(tree.d)
        assert self.traced_peak(sol, tmp_path / "fields.csv") <= bound

    def test_a_writer_of_whole_levels_passes_the_bound(self, perf_3x3, tmp_path, monkeypatch):
        # the bound has teeth: one block per level holds the leaf level at once
        bound = export_bound(perf_3x3.tree.d)
        tree, pairs = perf_3x3.tree, perf_3x3.root.size
        monkeypatch.setattr(reflected, "_EXPORT_BLOCK_ROWS", tree.level_size(tree.N) * pairs)
        assert self.traced_peak(perf_3x3, tmp_path / "fields.csv") > bound


class TestCli:
    def test_solve_exit_zero(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        assert cli_main(["solve", str(path), "--out", str(tmp_path / "cli")]) == 0
        assert "exit 0" in capsys.readouterr().out

    def test_brute_force_past_its_size_cap_exits_two_with_a_manifest(self, tmp_path,
                                                                     capsys):
        # 2**16384 Player-I tables at the last level of N = 14, named as a
        # power: str() of such a count raises a ValueError past 4,300 digits
        doc = json.loads((BUNDLED / "standard_2x2.json").read_text())
        doc.update(tree={"N": 14}, tasks=["brute_force"])
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        with time_budget(5):
            assert cli_main(["solve", str(path), "--out", str(tmp_path / "wide")]) == 2
        message = ("brute_force: brute force capped at 4194304 values per tree level; "
                   "level 13 holds 2**16384 strategy suffixes x 8192 nodes x 4 mode pairs")
        assert capsys.readouterr().err.splitlines() == [message]
        manifest = json.loads((tmp_path / "wide" / "manifest.json").read_text())
        assert manifest["exit_code"] == 2
        assert [t["status"] for t in manifest["tasks"]] == ["error"]

    def test_configuration_error_exits_two(self, tmp_path, capsys):
        path = small_scenario(
            tmp_path,
            costs={"k": [[0.0, 1.0], [1.0, 0.0]], "l": [[0.0, 1.0], [1.0, 0.0]]},
        )
        assert cli_main(["solve", str(path)]) == 2
        assert "zero alternating cost" in capsys.readouterr().err

    def test_grid_past_the_loop_cap_exits_two_naming_it(self, tmp_path, capsys):
        # the loop enumeration's SizingError escaped as a traceback
        m2 = 7
        path = small_scenario(
            tmp_path,
            costs={"k": [[0.0, 1.0], [1.0, 0.0]], "l": (0.8 * (1.0 - np.eye(m2))).tolist()},
            generator={"family": "zero"},
            terminal={"family": "constant", "alpha": np.zeros((2, m2)).tolist()},
        )
        with time_budget(5):
            assert cli_main(["solve", str(path)]) == 2
        assert "spec: mode grid 2x7 exceeds the loop enumeration cap of 12 pairs" in \
            capsys.readouterr().err

    def test_line_grid_with_too_many_loops_exits_two_naming_it(self, tmp_path, capsys):
        # 1x11 passes the pair cap, but its loop walk did not finish
        m2 = 11
        path = small_scenario(
            tmp_path,
            costs={"k": [[0.0]], "l": (0.8 * (1.0 - np.eye(m2))).tolist()},
            generator={"family": "zero"},
            terminal={"family": "constant", "alpha": np.zeros((1, m2)).tolist()},
        )
        with time_budget(5):
            assert cli_main(["solve", str(path)]) == 2
        assert "spec: mode grid 1x11 has more than 131072 primary loops" in \
            capsys.readouterr().err

    def test_negative_saturation_level_exits_two_naming_it(self, tmp_path, capsys):
        # M = -1 made sat_M the constant -1 and penalize.csv's penalty_bound
        # 1.3, below max|c| = 2, and the run exited 0
        path = small_scenario(tmp_path, generator={
            "family": "saturated_affine", "a": 0.5, "b": [0.2], "M": -1,
            "c": [[2.0, -2.0], [-2.0, 2.0]]})
        assert cli_main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "generator: M must be a nonnegative number; got -1.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_huge_tree_exits_two_naming_its_size(self, tmp_path, capsys):
        # at N=15000 the exact node count has more than 4,300 digits, and
        # formatting it escaped as a ValueError traceback
        path = small_scenario(tmp_path, tree={"N": 15000})
        with time_budget(10):
            assert cli_main(["solve", str(path), "--out", str(tmp_path / "huge")]) == 2
        assert "tree with N=15000, d=1 passes the cap of 4194304 nodes" in capsys.readouterr().err

    def test_refused_tree_gets_its_own_validate_row(self, tmp_path):
        # the refusal names the tree, not the terminal, and no check that
        # needs the tree follows it
        path = small_scenario(tmp_path, tree={"N": 15000}, tasks=["validate"])
        with time_budget(10):
            result = run(parse_scenario(path), out_dir=tmp_path / "huge")
        assert result.exit_code == 1
        with open(tmp_path / "huge" / "validate.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[:2] for r in rows] == [["check", "status"], ["cost_structure", "ok"],
                                         ["tree", "fail"]]
        assert rows[2][2].startswith("tree with N=15000, d=1 passes the cap of 4194304 nodes")
        assert result.failures == [f"validate: {rows[2][2]}"]

    @pytest.mark.parametrize("case,reason", [
        ("an existing file", "File exists"),
        ("a path below a file", "Not a directory"),
        ("a fields.csv directory inside", "Is a directory"),
        ("a NUL byte in out_dir", "embedded null byte"),
    ])
    def test_unusable_report_directory_exits_two_naming_it(self, tmp_path, capsys,
                                                           case, reason):
        # each escaped as a traceback and exit 1 from the directory's mkdir
        # or the deletion of its old reports
        doc = json.loads((BUNDLED / "standard_2x2.json").read_text())
        (tmp_path / "file").write_text("not a directory\n")
        out = {"an existing file": tmp_path / "file",
               "a path below a file": tmp_path / "file" / "reports",
               "a fields.csv directory inside": tmp_path / "reports",
               "a NUL byte in out_dir": tmp_path / "re\x00ports"}[case]
        (tmp_path / "reports" / "fields.csv").mkdir(parents=True)
        doc["out_dir"] = str(out)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path), "--tasks", "validate"]) == 2
        [message] = capsys.readouterr().err.splitlines()
        assert message.startswith(f"report directory {str(out)!r}: cannot create it or "
                                  "delete its old reports (")
        assert reason in message
        assert not (tmp_path / "reports" / "validate.csv").exists()

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

    def test_non_markovian_terminal_on_a_lattice_fails_validation(self, tmp_path, capsys):
        # refused by the parser, so every task list exits 2 and writes no report
        for tasks in (["validate"], ["solve_direct"], EVERY_TASK):
            path = small_scenario(
                tmp_path,
                terminal={"family": "leaf_table", "table": [[[0.0, 0.0], [0.0, 0.0]]] * 5},
                tree={"N": 4, "recombining": True},
                tasks=tasks,
            )
            assert cli_main(["solve", str(path), "--out", str(tmp_path / "lat")]) == 2
            assert capsys.readouterr().err == (
                f"{path}: terminal.family: 'leaf_table' needs a path tree, but "
                "tree.recombining is true (a lattice state does not determine the path)\n")
            assert not (tmp_path / "lat").exists()

    @pytest.mark.parametrize("rows", [5, 8, 32])
    def test_a_path_trees_leaf_table_holds_one_row_per_leaf(self, tmp_path, capsys, rows):
        # refused by the parser: validate exited 1 on a failing
        # terminal_domain row, solve_direct 2 on the solver's DataError
        for tasks in (["validate"], ["solve_direct"]):
            path = small_scenario(
                tmp_path,
                terminal={"family": "leaf_table", "table": [[[0.0, 0.0], [0.0, 0.0]]] * rows},
                tasks=tasks,
            )
            assert cli_main(["solve", str(path), "--out", str(tmp_path / "leaves")]) == 2
            assert capsys.readouterr().err == (
                f"{path}: terminal.table: {rows} rows, but the path tree with N=4 and d=1 "
                "has 16 leaves\n")
            assert not (tmp_path / "leaves").exists()
        path = small_scenario(
            tmp_path, terminal={"family": "leaf_table", "table": [[[0.0, 0.0], [0.0, 0.0]]] * 4},
            d=2, generator={"family": "zero"}, tree={"N": 40, "recombining": False})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(path)
        assert exc.value.messages == [
            f"{path}: terminal.table: 4 rows, but the path tree with N=40 and d=2 has 2**80 "
            "leaves"]

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

    @pytest.mark.parametrize("scenario,task,missing", [
        (BUNDLED / "standard_2x2.json", "double_penalize", "['m_list', 'n']"),
        ({}, "double_penalize", "['m_list', 'n']"),
        ({"tasks": ["validate", "solve_direct"]}, "penalize", "['n_list']"),
    ])
    def test_task_override_missing_a_parameter_exits_two_naming_it(self, tmp_path, capsys,
                                                                    scenario, task, missing):
        path = scenario if isinstance(scenario, Path) else small_scenario(tmp_path, **scenario)
        assert cli_main(["solve", str(path), "--out", str(tmp_path / "out"),
                         "--tasks", f"validate,{task}"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"task override: task {task!r} requires parameter(s) {missing}"]
        assert not (tmp_path / "out").exists()
