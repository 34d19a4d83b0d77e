"""Scenario files and the batch pipeline around the solvers.

A scenario is a JSON document bundling one game instance (costs, driver,
terminal, horizon), a tree section, and an ordered task list.  ``parse_scenario``
validates the whole document and reports every problem at once;  ``run``
executes the tasks in order, writing one delimiter-separated report per task
plus a JSON manifest (scenario hash, seed, tolerances, wall times).

Reports are deterministic for a fixed scenario and seed: floats are written
with ``repr`` and the only non-reproducible fields live in the manifest's
timing entries.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bsde
from .errors import ScenarioError, SwitchGameError
from .game import brute_force_value, verify_saddle
from .lattice import DEFAULT_NODE_CAP, build_tree
from .model import DEFAULT_PROJECTION_TOL, CostTables, GameSpec, GeneratorSpec, TerminalSpec
from .penalty import penalization_report, solve_double_penalized, solve_penalized
from .reflected import (
    check_minimality,
    domain_report,
    export_header,
    export_rows,
    solve_rbsde,
)

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {
    "picard": bsde.DEFAULT_PICARD_TOL,
    "projection": DEFAULT_PROJECTION_TOL,
    "saddle": 1e-8,
    "match": 1e-9,
}

# task name -> (allowed parameter keys, required parameter keys)
_TASK_PARAMS = {
    "validate": (set(), set()),
    "solve_direct": (set(), set()),
    "penalize": ({"n_list"}, {"n_list"}),
    "double_penalize": ({"n", "m_list"}, {"n", "m_list"}),
    "saddle": ({"catalog_size", "seed"}, set()),
    "brute_force": ({"max_steps", "max_modes"}, set()),
    "export": (set(), set()),
}

_TOP_KEYS = {
    "schema", "name", "costs", "generator", "terminal", "horizon", "d",
    "tree", "tasks", "out_dir", "tolerances",
}


@dataclass
class TaskPlan:
    """One entry of a scenario's run plan."""

    name: str
    params: dict = field(default_factory=dict)


@dataclass
class Scenario:
    """A fully validated scenario document."""

    name: str
    spec: GameSpec
    tree_N: int
    recombining: bool
    node_cap: int
    tasks: list
    out_dir: str
    tolerances: dict
    source_sha256: str

    def build_tree(self):
        return build_tree(self.tree_N, self.spec.d, self.spec.horizon,
                          recombining=self.recombining, node_cap=self.node_cap)


def _matrix(raw, where, errs, square_size=None):
    try:
        a = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        errs.append(f"{where}: not a numeric matrix")
        return None
    if a.ndim != 2:
        errs.append(f"{where}: expected a 2-D matrix, got {a.ndim} dimensions")
        return None
    if square_size is not None and a.shape != (square_size, square_size):
        errs.append(f"{where}: expected shape {(square_size, square_size)}, got {a.shape}")
        return None
    return a


def _parse_tasks(raw, errs):
    if not isinstance(raw, list) or not raw:
        errs.append("tasks: expected a non-empty list")
        return []
    plans = []
    for idx, entry in enumerate(raw):
        where = f"tasks[{idx}]"
        if isinstance(entry, str):
            name, params = entry, {}
        elif isinstance(entry, dict):
            name = entry.get("task")
            params = {k: v for k, v in entry.items() if k != "task"}
        else:
            errs.append(f"{where}: expected a task name or object")
            continue
        if name not in _TASK_PARAMS:
            errs.append(f"{where}: unknown task {name!r} "
                        f"(known: {', '.join(sorted(_TASK_PARAMS))})")
            continue
        allowed, required = _TASK_PARAMS[name]
        unknown = set(params) - allowed
        if unknown:
            errs.append(f"{where}: unknown parameter(s) {sorted(unknown)} for task {name!r}")
        missing = required - set(params)
        if missing:
            errs.append(f"{where}: task {name!r} requires parameter(s) {sorted(missing)}")
        if unknown or missing:
            continue
        for key in ("n_list", "m_list"):
            if key in params and not (
                isinstance(params[key], list)
                and params[key]
                and all(isinstance(v, int) and v >= 1 for v in params[key])
            ):
                errs.append(f"{where}.{key}: expected a non-empty list of positive integers")
        plans.append(TaskPlan(name, params))
    return plans


def parse_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file.

    Raises ScenarioError carrying every diagnostic found (schema problems,
    type mismatches, and game-structure violations alike), each prefixed with
    its location in the document.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError([f"{path}: cannot read scenario file ({exc})"])
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}:{exc.lineno}:{exc.colno}: malformed JSON ({exc.msg})"])
    if not isinstance(doc, dict):
        raise ScenarioError([f"{path}: top level must be an object"])

    errs = []
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        errs.append(f"unknown top-level field(s): {sorted(unknown)}")
    if doc.get("schema") != SCHEMA_VERSION:
        errs.append(f"schema: expected {SCHEMA_VERSION}, got {doc.get('schema')!r}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        errs.append("name: expected a non-empty string")
        name = path.stem

    # costs
    costs = None
    raw_costs = doc.get("costs")
    if not isinstance(raw_costs, dict) or set(raw_costs) != {"k", "l"}:
        errs.append("costs: expected an object with exactly the fields 'k' and 'l'")
    else:
        k = _matrix(raw_costs["k"], "costs.k", errs)
        l = _matrix(raw_costs["l"], "costs.l", errs)
        if k is not None and l is not None:
            if k.shape[0] != k.shape[1] or l.shape[0] != l.shape[1]:
                errs.append("costs: k and l must be square")
            else:
                try:
                    costs = CostTables(k, l)
                except SwitchGameError as exc:
                    errs.append(f"costs: {exc}")

    d = doc.get("d", 1)
    if not isinstance(d, int) or d < 1:
        errs.append("d: expected a positive integer")
        d = 1
    horizon = doc.get("horizon")
    # json reads the NaN and Infinity tokens as floats, and NaN <= 0 is False
    if not isinstance(horizon, (int, float)) or not (0 < horizon < math.inf):
        errs.append("horizon: expected a positive finite number")
        horizon = 1.0

    # generator
    generator = None
    raw_gen = doc.get("generator")
    if not isinstance(raw_gen, dict) or "family" not in raw_gen:
        errs.append("generator: expected an object with a 'family' field")
    elif costs is not None:
        kwargs = {k: v for k, v in raw_gen.items() if k != "family"}
        bad = set(kwargs) - {"c", "a", "b", "M"}
        if bad:
            errs.append(f"generator: unknown field(s) {sorted(bad)}")
        else:
            try:
                generator = GeneratorSpec(raw_gen["family"], costs.m1, costs.m2,
                                          d=d, **kwargs)
            except SwitchGameError as exc:
                errs.append(f"generator: {exc}")

    # terminal
    terminal = None
    raw_term = doc.get("terminal")
    if not isinstance(raw_term, dict) or "family" not in raw_term:
        errs.append("terminal: expected an object with a 'family' field")
    elif costs is not None:
        kwargs = {k: v for k, v in raw_term.items() if k != "family"}
        bad = set(kwargs) - {"alpha", "beta", "table"}
        if bad:
            errs.append(f"terminal: unknown field(s) {sorted(bad)}")
        else:
            try:
                terminal = TerminalSpec(raw_term["family"], costs.m1, costs.m2, **kwargs)
            except SwitchGameError as exc:
                errs.append(f"terminal: {exc}")

    # tree
    tree_N, recombining, node_cap = None, False, DEFAULT_NODE_CAP
    raw_tree = doc.get("tree")
    if not isinstance(raw_tree, dict):
        errs.append("tree: expected an object")
    else:
        bad = set(raw_tree) - {"N", "recombining", "node_cap"}
        if bad:
            errs.append(f"tree: unknown field(s) {sorted(bad)}")
        tree_N = raw_tree.get("N")
        if not isinstance(tree_N, int) or tree_N < 1:
            errs.append("tree.N: expected a positive integer")
            tree_N = None
        recombining = raw_tree.get("recombining", False)
        if not isinstance(recombining, bool):
            errs.append("tree.recombining: expected a boolean")
            recombining = False
        node_cap = raw_tree.get("node_cap", DEFAULT_NODE_CAP)
        if not isinstance(node_cap, int) or node_cap < 1:
            errs.append("tree.node_cap: expected a positive integer")
            node_cap = DEFAULT_NODE_CAP

    tasks = _parse_tasks(doc.get("tasks"), errs)

    out_dir = doc.get("out_dir", "reports")
    if not isinstance(out_dir, str) or not out_dir:
        errs.append("out_dir: expected a non-empty string")
        out_dir = "reports"

    tolerances = dict(DEFAULT_TOLERANCES)
    raw_tol = doc.get("tolerances", {})
    if not isinstance(raw_tol, dict):
        errs.append("tolerances: expected an object")
    else:
        bad = set(raw_tol) - set(DEFAULT_TOLERANCES)
        if bad:
            errs.append(f"tolerances: unknown field(s) {sorted(bad)} "
                        f"(known: {sorted(DEFAULT_TOLERANCES)})")
        for key, val in raw_tol.items():
            if key in DEFAULT_TOLERANCES:
                if not isinstance(val, (int, float)) or val <= 0:
                    errs.append(f"tolerances.{key}: expected a positive number")
                else:
                    tolerances[key] = float(val)

    # game-structure validation (only when the pieces assembled)
    spec = None
    if costs is not None and generator is not None and terminal is not None:
        try:
            spec = GameSpec(costs, generator, terminal, horizon=float(horizon), d=d)
        except SwitchGameError as exc:
            errs.append(f"spec: {exc}")
    if spec is not None:
        report = spec.validate()
        errs.extend(f"spec: {v}" for v in report.violations)

    if errs:
        raise ScenarioError([f"{path}: {e}" for e in errs])

    sha = hashlib.sha256(text.encode()).hexdigest()
    return Scenario(name=name, spec=spec, tree_N=tree_N, recombining=recombining,
                    node_cap=node_cap, tasks=tasks, out_dir=out_dir,
                    tolerances=tolerances, source_sha256=sha)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Outcome of one pipeline run."""

    exit_code: int          # 0 ok, 1 invariant failure, 2 configuration error
    out_dir: Path
    manifest: dict
    failures: list          # human-readable failure messages


def _write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x):
    return repr(float(x))


def _task_seed(seed: int, task_name: str) -> int:
    return zlib.crc32(f"{seed}:{task_name}".encode())


def run(scenario: Scenario, out_dir=None, seed: int = 0, tasks=None,
        tolerance=None, solution_hook=None) -> RunResult:
    """Execute a scenario's task list and write reports.

    Parameters
    ----------
    out_dir, seed, tasks, tolerance : overrides for the scenario's own run
        plan; `tasks` is a list of task names run with default parameters,
        `tolerance` replaces the saddle and match tolerances.
    solution_hook : callable applied to the direct solution right after
        solve_direct (test hook for fault injection); leave None.
    """
    out = Path(out_dir or scenario.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tol = dict(scenario.tolerances)
    if tolerance is not None:
        tol["saddle"] = tol["match"] = float(tolerance)

    plan = scenario.tasks
    if tasks is not None:
        plan = []
        for name in tasks:
            if name not in _TASK_PARAMS:
                raise ScenarioError([f"unknown task {name!r} in task override"])
            # reuse the scenario's parameters for the task when it has them
            params = next((t.params for t in scenario.tasks if t.name == name), {})
            plan.append(TaskPlan(name, params))

    spec = scenario.spec
    state = {}
    failures = []
    config_errors = []
    task_entries = []

    for task in plan:
        entry = {"name": task.name, "params": task.params, "status": "ok"}
        # a task may add manifest-only fields to its own entry
        state["entry"] = entry
        t0 = time.perf_counter()
        try:
            task_failures = _TASK_RUNNERS[task.name](
                scenario, task, state, out, tol, seed, solution_hook
            )
            if task_failures:
                failures.extend(f"{task.name}: {m}" for m in task_failures)
                entry["status"] = "invariant_failure"
                entry["failures"] = task_failures
        except SwitchGameError as exc:
            msg = f"{task.name}: {exc}"
            config_errors.append(msg)
            entry["status"] = "error"
            entry["error"] = str(exc)
            state.setdefault("aborted", []).append(task.name)
        entry["wall_time_s"] = time.perf_counter() - t0
        task_entries.append(entry)

    exit_code = 2 if config_errors else (1 if failures else 0)
    manifest = {
        "schema": SCHEMA_VERSION,
        "scenario_name": scenario.name,
        "scenario_sha256": scenario.source_sha256,
        "seed": seed,
        "tolerances": tol,
        "tasks": task_entries,
        "exit_code": exit_code,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunResult(exit_code=exit_code, out_dir=out, manifest=manifest,
                     failures=failures + config_errors)


def _require(state, key, task, needed):
    if key not in state:
        raise ScenarioError(
            [f"task '{task}' needs the result of '{needed}', which did not run "
             "earlier in the task list (or failed); reorder the run plan"]
        )
    return state[key]


def _run_validate(scenario, task, state, out, tol, seed, hook):
    spec = scenario.spec
    rows = []
    failures = []
    report = spec.validate()
    rows.append(["cost_structure", "ok" if report.ok else "fail",
                 " | ".join(report.violations)])
    try:
        tree = scenario.build_tree()
        state.setdefault("tree", tree)
        spec.check_terminal(tree.leaf_w)
        rows.append(["terminal_domain", "ok", ""])
    except SwitchGameError as exc:
        rows.append(["terminal_domain", "fail", str(exc)])
        failures.append(str(exc))
    if "tree" in state:
        ok = state["tree"].dt * spec.generator.lipschitz < 1.0
        rows.append(["contraction", "ok" if ok else "fail",
                     f"dt={state['tree'].dt!r} lipschitz={spec.generator.lipschitz!r}"])
        if not ok:
            failures.append("time step too coarse for the driver's Lipschitz constant")
    if "tree" in state and spec.generator.family == "saturated_affine":
        failure, detail = _comparison(spec.generator, state["tree"])
        rows.append(["comparison", "fail" if failure else "ok", detail])
        if failure:
            failures.append(failure)
    if not report.ok:
        failures.extend(report.violations)
    _write_table(out / "validate.csv", ["check", "status", "detail"], rows)
    return failures


def _comparison(gen, tree):
    """(failure message or None, report detail) of the comparison condition on
    the tree; the message names the smallest N that meets it over the horizon."""
    b1 = float(np.abs(gen.b).sum())
    detail = f"dt={tree.dt!r} b_l1={b1!r}"
    if gen.comparison_holds(tree.dt):
        return None, detail
    n = max(1, math.ceil(tree.T * b1 ** 2))    # sqrt(T/n) * b1 <= 1, up to rounding
    while not gen.comparison_holds(tree.T / n):
        n += 1
    while n > 1 and gen.comparison_holds(tree.T / (n - 1)):
        n -= 1
    return (f"comparison condition sqrt(dt)*||b||_1 <= 1 fails at N={tree.N}, so the "
            f"implicit step is not monotone in the next level's values; refine the "
            f"tree to N >= {n}"), detail


def _get_tree(scenario, state):
    if "tree" not in state:
        state["tree"] = scenario.build_tree()
    return state["tree"]


def _run_solve_direct(scenario, task, state, out, tol, seed, hook):
    spec = scenario.spec
    tree = _get_tree(scenario, state)
    sol = solve_rbsde(spec, tree, picard_tol=tol["picard"], proj_tol=tol["projection"])
    if hook is not None:
        hook(sol)
    state["direct"] = sol
    rows = []
    for i in range(spec.m1):
        for j in range(spec.m2):
            rows.append([i + 1, j + 1, _fmt(sol.root[i, j]),
                         _fmt(sum(float(a[:, i, j].sum()) for a in sol.dK)),
                         _fmt(sum(float(a[:, i, j].sum()) for a in sol.dL))])
    _write_table(out / "solve_direct.csv",
                 ["i", "j", "Y_root", "total_dK", "total_dL"], rows)
    failures = []
    minimality = check_minimality(sol, spec)
    if not minimality.ok:
        failures.extend(minimality.violations)
    domain = domain_report(sol)
    if not domain.ok:
        failures.extend(domain.violations)
    return failures


def _run_penalize(scenario, task, state, out, tol, seed, hook):
    spec = scenario.spec
    tree = _get_tree(scenario, state)
    report = penalization_report(spec, tree, task.params["n_list"],
                                 direct=state.get("direct"))
    header = ["n"]
    header += [f"Y_root_{i + 1}{j + 1}" for i in range(spec.m1) for j in range(spec.m2)]
    header += ["monotone_ok", "monotone_worst", "penalty_stat", "penalty_bound", "gap"]
    rows = []
    failures = []
    for r in report.rows:
        rows.append([r.n]
                    + [_fmt(v) for v in r.root.ravel()]
                    + [str(r.monotone_ok).lower(), _fmt(r.monotone_worst),
                       _fmt(r.penalty_stat), _fmt(r.penalty_bound),
                       "" if r.gap is None else _fmt(r.gap)])
        if r.penalty_stat > r.penalty_bound + 1e-9:
            failures.append(
                f"penalty intensity {r.penalty_stat!r} at n={r.n} exceeds the "
                f"bound {r.penalty_bound!r}"
            )
    _write_table(out / "penalize.csv", header, rows)
    return failures


def _run_double_penalize(scenario, task, state, out, tol, seed, hook):
    spec = scenario.spec
    tree = _get_tree(scenario, state)
    n = task.params["n"]
    single = solve_penalized(spec, tree, n, picard_tol=tol["picard"])
    header = ["m"]
    header += [f"Y_root_{i + 1}{j + 1}" for i in range(spec.m1) for j in range(spec.m2)]
    header += ["gap_to_single"]
    rows = []
    for m in task.params["m_list"]:
        sol = solve_double_penalized(spec, tree, n, m, picard_tol=tol["picard"])
        gap = max(float(np.abs(y - ys).max()) for y, ys in zip(sol.Y, single.Y))
        rows.append([m] + [_fmt(v) for v in sol.root.ravel()] + [_fmt(gap)])
    _write_table(out / "double_penalize.csv", header, rows)
    return []


def _run_saddle(scenario, task, state, out, tol, seed, hook):
    spec = scenario.spec
    tree = _get_tree(scenario, state)
    sol = _require(state, "direct", "saddle", "solve_direct")
    task_seed = task.params.get("seed")
    if task_seed is None:
        task_seed = _task_seed(seed, "saddle")
    report = verify_saddle(spec, tree, sol,
                           catalog_size=task.params.get("catalog_size", 200),
                           seed=task_seed, tol=tol["saddle"])
    state["entry"].update(certified=report.certified,
                          best_reply_slack_I=report.reply_slack_I,
                          best_reply_slack_II=report.reply_slack_II,
                          certificate_margin=report.certificate_margin)
    rows = [["value_gap", "", f"{i + 1},{j + 1}", _fmt(g)]
            for (i, j), g in sorted(report.value_gap.items())]
    failures = []
    dump_rows = []
    for kind, strat_id, start, slack, strategy in report.violations:
        rows.append([kind, strat_id, f"{start[0] + 1},{start[1] + 1}", _fmt(slack)])
        failures.append(f"{kind} inequality violated by {slack!r} "
                        f"(strategy {strat_id}, start {start})")
        if strategy is not None:
            for rec in strategy.serialize_rows():
                dump_rows.append([kind, strat_id] + rec)
    _write_table(out / "saddle.csv", ["kind", "strategy", "start", "value"], rows)
    if dump_rows:
        _write_table(out / "saddle_violations.csv",
                     ["kind", "strategy", "level", "node", "i", "j", "action"],
                     dump_rows)
    return failures


def _run_brute_force(scenario, task, state, out, tol, seed, hook):
    spec = scenario.spec
    tree = _get_tree(scenario, state)
    # the parser admits exactly brute_force_value's two cap keywords
    values = brute_force_value(spec, tree, **task.params)
    direct = state.get("direct")
    rows = []
    failures = []
    for i in range(spec.m1):
        for j in range(spec.m2):
            row = [i + 1, j + 1, _fmt(values[i, j])]
            if direct is not None:
                diff = abs(float(values[i, j] - direct.root[i, j]))
                row += [_fmt(direct.root[i, j]), _fmt(diff)]
                if diff > tol["match"]:
                    failures.append(
                        f"strategy-enumeration value differs from the direct solve "
                        f"by {diff!r} at start ({i + 1},{j + 1})"
                    )
            else:
                row += ["", ""]
            rows.append(row)
    _write_table(out / "brute_force.csv",
                 ["i", "j", "value", "direct", "diff"], rows)
    return failures


def _run_export(scenario, task, state, out, tol, seed, hook):
    sol = _require(state, "direct", "export", "solve_direct")
    _write_table(out / "fields.csv", export_header(sol.tree.d), export_rows(sol))
    return []


_TASK_RUNNERS = {
    "validate": _run_validate,
    "solve_direct": _run_solve_direct,
    "penalize": _run_penalize,
    "double_penalize": _run_double_penalize,
    "saddle": _run_saddle,
    "brute_force": _run_brute_force,
    "export": _run_export,
}
