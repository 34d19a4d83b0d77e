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
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bsde import check_contraction
from .errors import ScenarioError, SizingError, SwitchGameError
from .game import brute_force_value, verify_saddle
from .lattice import DEFAULT_NODE_CAP, build_tree
from .model import CostTables, GameSpec, GeneratorSpec, TerminalSpec
from .penalty import penalization_report, solve_double_penalized, solve_penalized
from .reflected import check_minimality, domain_report, solve_rbsde, write_fields

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {"saddle": 1e-8, "match": 1e-9}

_REQUIRED = object()    # the default of a field that must be present


class _Kind(NamedTuple):
    """A kind of field value: its predicate, and the message that follows the
    field's location when a value is not of the kind (``{!r}`` shows the value)."""

    test: Callable
    text: str


def _is_number(v):
    # json reads true and false as bools, which Python counts as ints, and
    # reads an integer literal of any length as an int
    return isinstance(v, float) or (
        isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


def _is_array(v):
    """A number, or a rectangular nest of lists of numbers.  Non-finite entries
    pass: the specs reject them, naming the entry."""
    def nested(x):
        return _is_number(x) or (isinstance(x, list) and all(map(nested, x)))
    try:    # rejects ragged lists and nesting deeper than NumPy's 64 dimensions
        np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return False
    return nested(v)


_ANY = _Kind(lambda v: True, "")
_NUMBER = _Kind(_is_number, "expected a number")
_ARRAY = _Kind(_is_array, "expected a number or an array of numbers")
_MATRIX = _Kind(_is_array, "not a numeric matrix")
_POSITIVE_INT = _Kind(lambda v: _is_number(v) and isinstance(v, int) and v >= 1,
                      "expected a positive integer")
_NON_NEGATIVE_INT = _Kind(lambda v: _is_number(v) and isinstance(v, int) and v >= 0,
                          "expected a non-negative integer")
_POSITIVE_INTS = _Kind(
    lambda v: isinstance(v, list) and v != [] and all(map(_POSITIVE_INT.test, v)),
    "expected a non-empty list of positive integers")
# NaN fails every comparison, so the upper bound is what rejects it
_POSITIVE_FINITE = _Kind(lambda v: _is_number(v) and 0 < v <= sys.float_info.max,
                         "expected a positive finite number")
# NaN and Infinity are not numbers either, so a tolerance's message needs no "finite"
_TOLERANCE = _POSITIVE_FINITE._replace(text="expected a positive number")
_BOOLEAN = _Kind(lambda v: isinstance(v, bool), "expected a boolean")
_NAME = _Kind(lambda v: isinstance(v, str) and v != "", "expected a non-empty string")
_OBJECT = _Kind(lambda v: isinstance(v, dict), "expected an object")
_FAMILY = _Kind(lambda v: isinstance(v, dict) and "family" in v,
                "expected an object with a 'family' field")

# section ("" is the top level) -> field -> (kind, default); a rejected value
# stands as its default, or as None when the field is required
_FIELDS = {
    "": {
        "schema": (_Kind(lambda v: _is_number(v) and v == SCHEMA_VERSION,
                         f"expected {SCHEMA_VERSION}, got {{!r}}"), _REQUIRED),
        "name": (_NAME, _REQUIRED),
        "costs": (_Kind(lambda v: isinstance(v, dict) and set(v) == {"k", "l"},
                        "expected an object with exactly the fields 'k' and 'l'"), _REQUIRED),
        "d": (_POSITIVE_INT, 1),
        "horizon": (_POSITIVE_FINITE, _REQUIRED),
        "generator": (_FAMILY, _REQUIRED),
        "terminal": (_FAMILY, _REQUIRED),
        "tree": (_OBJECT, _REQUIRED),
        "tasks": (_Kind(lambda v: isinstance(v, list) and v != [], "expected a non-empty list"),
                  _REQUIRED),
        "out_dir": (_NAME, "reports"),
        "tolerances": (_OBJECT, {}),
    },
    "costs": {"k": (_MATRIX, _REQUIRED), "l": (_MATRIX, _REQUIRED)},
    "generator": {"family": (_ANY, _REQUIRED), "c": (_ARRAY, None), "a": (_NUMBER, None),
                  "b": (_ARRAY, None), "M": (_NUMBER, None)},
    "terminal": {"family": (_ANY, _REQUIRED), "alpha": (_ARRAY, None),
                 "beta": (_ARRAY, None), "table": (_ARRAY, None)},
    "tree": {"N": (_POSITIVE_INT, _REQUIRED), "recombining": (_BOOLEAN, False),
             "node_cap": (_POSITIVE_INT, DEFAULT_NODE_CAP)},
    "tolerances": {key: (_TOLERANCE, val) for key, val in DEFAULT_TOLERANCES.items()},
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


def _fields(raw, rules, where, errs, unknown="{where}: unknown field(s) {names}"):
    """The values of the object `raw` under `rules`, or None when `raw` is None
    (the object itself was rejected).

    Each unknown field, missing required field and value of the wrong kind is
    reported in `errs` at its location.
    """
    if raw is None:
        return None
    names = sorted(set(raw) - set(rules))
    if names:
        errs.append(unknown.format(where=where, names=names))
    values = {}
    for key, (kind, default) in rules.items():
        value = raw.get(key, default)
        if value is _REQUIRED or (key in raw and not kind.test(value)):
            errs.append(f"{where}{'.' if where else ''}{key}: " + kind.text.format(raw.get(key)))
            value = None if default is _REQUIRED else default
        values[key] = value
    return values


def _costs(raw, errs):
    """The cost tables, or None once the reason is in `errs`."""
    tables = _fields(raw, _FIELDS["costs"], "costs", errs)
    if tables is None:
        return None
    tables = {key: np.asarray(v, dtype=float) for key, v in tables.items() if v is not None}
    flat = [f"costs.{key}: expected a 2-D matrix, got {a.ndim} dimensions"
            for key, a in tables.items() if a.ndim != 2]
    errs.extend(flat)
    if len(tables) < 2 or flat:
        return None
    if any(a.shape[0] != a.shape[1] for a in tables.values()):
        errs.append("costs: k and l must be square")
        return None
    try:
        return CostTables(**tables)
    except SwitchGameError as exc:
        errs.append(f"costs: {exc}")


def _family(cls, where, raw, costs, errs, **extra):
    """The generator or terminal spec of a section, or None once the reason is
    in `errs` (or the cost tables that fix its mode grid were rejected)."""
    before = len(errs)
    if _fields(raw, _FIELDS[where], where, errs) is None or costs is None or len(errs) > before:
        return None
    try:
        return cls(raw["family"], costs.m1, costs.m2, **extra,
                   **{k: v for k, v in raw.items() if k != "family"})
    except SwitchGameError as exc:
        errs.append(f"{where}: {exc}")


def _task(entry, where, errs):
    """The plan of one task-list entry; its problems go to `errs`.  Parameters
    are kept as written, since the manifest records them."""
    if isinstance(entry, str):
        entry = {"task": entry}
    if not isinstance(entry, dict):
        errs.append(f"{where}: expected a task name or object")
        return None
    name = entry.get("task")
    if not (isinstance(name, str) and name in _TASKS):
        errs.append(f"{where}: unknown task {name!r} (known: {', '.join(sorted(_TASKS))})")
        return None
    params = {k: v for k, v in entry.items() if k != "task"}
    rules = _TASKS[name][1]
    missing = sorted(k for k, (_, default) in rules.items()
                     if default is _REQUIRED and k not in params)
    unknown = sorted(set(params) - set(rules))
    if unknown:
        errs.append(f"{where}: unknown parameter(s) {unknown} for task {name!r}")
    if missing:
        errs.append(f"{where}: task {name!r} requires parameter(s) {missing}")
    if not (unknown or missing):
        _fields(params, rules, where, errs)
    return TaskPlan(name, params)


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
    except (ValueError, RecursionError) as exc:     # integer literals or nesting too long
        raise ScenarioError([f"{path}: JSON beyond the parser's limits ({exc})"])
    if not isinstance(doc, dict):
        raise ScenarioError([f"{path}: top level must be an object"])

    errs = []
    top = _fields(doc, _FIELDS[""], "", errs, unknown="unknown top-level field(s): {names}")
    costs = _costs(top["costs"], errs)
    tree = _fields(top["tree"], _FIELDS["tree"], "tree", errs)
    node_cap = tree["node_cap"] if tree else DEFAULT_NODE_CAP
    # one step has 2**d children; bit lengths compare without computing 2**d
    if top["d"] >= (node_cap - 1).bit_length():
        errs.append(f"d: {top['d']} Brownian components need 2**d + 1 nodes for one "
                    f"step, more than the node cap {node_cap}")
        top["d"] = 1
    generator = _family(GeneratorSpec, "generator", top["generator"], costs, errs, d=top["d"])
    terminal = _family(TerminalSpec, "terminal", top["terminal"], costs, errs)
    if tree and tree["recombining"] and terminal is not None and not terminal.markovian:
        errs.append(f"terminal.family: {terminal.family!r} needs a path tree, but "
                    "tree.recombining is true (a lattice state does not determine the path)")
    elif tree and tree["N"] is not None and terminal is not None and not terminal.markovian:
        # a path tree's table holds a row per leaf; no table reaches 2**64 rows,
        # so a larger count is written as a power, not computed
        power = top["d"] * tree["N"]
        leaves = 1 << power if power < 64 else f"2**{power}"
        if len(terminal.table) != leaves:
            errs.append(f"terminal.table: {len(terminal.table)} rows, but the path tree with "
                        f"N={tree['N']} and d={top['d']} has {leaves} leaves")
    tasks = [_task(entry, f"tasks[{idx}]", errs) for idx, entry in enumerate(top["tasks"] or [])]
    tolerances = _fields(top["tolerances"], _FIELDS["tolerances"], "tolerances", errs,
                         unknown="{where}: unknown field(s) {names} "
                                 f"(known: {sorted(DEFAULT_TOLERANCES)})")
    spec = None
    if generator is not None and terminal is not None:
        # a rejected horizon stands as 1.0, so the cost structure is still checked
        spec = GameSpec(costs, generator, terminal, horizon=float(top["horizon"] or 1.0),
                        d=top["d"])
        try:
            errs.extend(f"spec: {v}" for v in spec.validate().violations)
        except SizingError as exc:     # a grid past the loop enumeration cap
            errs.append(f"spec: {exc}")
    if errs:
        raise ScenarioError([f"{path}: {e}" for e in errs])

    return Scenario(name=top["name"], spec=spec, tree_N=tree["N"],
                    recombining=tree["recombining"], node_cap=tree["node_cap"], tasks=tasks,
                    out_dir=top["out_dir"],
                    tolerances={key: float(v) for key, v in tolerances.items()},
                    source_sha256=hashlib.sha256(text.encode()).hexdigest())


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
        solution_hook=None) -> RunResult:
    """Execute a scenario's task list and write reports.

    Parameters
    ----------
    out_dir, tasks : overrides for the scenario's own run plan; `tasks` is
        a list of task names, each run with the parameters of the scenario's
        entry for it (ScenarioError when that leaves a required one out).
    seed : the run seed, forked per task for the saddle catalog.
    solution_hook : callable applied to the direct solution right after
        solve_direct (test hook for fault injection); leave None.

    Before the first task, the reports that a task writes (`_REPORTS`) are
    deleted from the report directory, so that it holds this run's alone; no
    other file there is touched.  A directory that cannot be made or cleared
    is a ScenarioError naming it, raised before any task runs.
    """
    plan = scenario.tasks
    if tasks is not None:
        # each task reuses the scenario's parameters for it, checked as an entry
        errs = []
        plan = [_task({**next((t.params for t in scenario.tasks if t.name == name), {}),
                       "task": name}, "task override", errs) for name in tasks]
        if errs:
            raise ScenarioError(errs)

    out = Path(out_dir or scenario.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in _REPORTS:
            (out / name).unlink(missing_ok=True)
    except (OSError, ValueError) as exc:    # ValueError: a NUL byte in the path
        raise ScenarioError([f"report directory {str(out)!r}: cannot create it or delete "
                             f"its old reports ({exc})"])
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
            task_failures = _TASKS[task.name][0](
                scenario, task, state, out, seed, solution_hook
            )
            if task_failures:
                failures.extend(f"{task.name}: {m}" for m in task_failures)
                entry["status"] = "invariant_failure"
                entry["failures"] = task_failures
        except SwitchGameError as exc:
            config_errors.append(f"{task.name}: {exc}")
            entry["status"] = "error"
            entry["error"] = str(exc)
        entry["wall_time_s"] = time.perf_counter() - t0
        task_entries.append(entry)

    exit_code = 2 if config_errors else (1 if failures else 0)
    manifest = {
        "schema": SCHEMA_VERSION,
        "scenario_name": scenario.name,
        "scenario_sha256": scenario.source_sha256,
        "seed": seed,
        "tolerances": dict(scenario.tolerances),
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


def _run_validate(scenario, task, state, out, seed, hook):
    spec = scenario.spec
    rows = []
    failures = []
    report = spec.validate()
    rows.append(["cost_structure", "ok" if report.ok else "fail",
                 " | ".join(report.violations)])
    check = "tree"      # a refused tree gets its own row, which only ever fails
    try:
        tree = _get_tree(scenario, state)
        check = "terminal_domain"
        spec.check_terminal(tree)
        rows.append([check, "ok", ""])
    except SwitchGameError as exc:
        rows.append([check, "fail", str(exc)])
        failures.append(str(exc))
    if "tree" in state:
        dt, lip = state["tree"].dt, spec.generator.lipschitz
        status = "ok"
        try:
            check_contraction(dt, lip)
        except SizingError as exc:
            status = "fail"
            failures.append(str(exc))
        rows.append(["contraction", status, f"dt={dt!r} lipschitz={lip!r}"])
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


def _run_solve_direct(scenario, task, state, out, seed, hook):
    spec = scenario.spec
    tree = _get_tree(scenario, state)
    sol = solve_rbsde(spec, tree)
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
    minimality = check_minimality(sol)
    if not minimality.ok:
        failures.extend(minimality.violations)
    domain = domain_report(sol)
    if not domain.ok:
        failures.extend(domain.violations)
    return failures


def _run_penalize(scenario, task, state, out, seed, hook):
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
        if not r.penalty_stat <= r.penalty_bound + 1e-9:
            failures.append(
                f"penalty intensity {r.penalty_stat!r} at n={r.n} exceeds the "
                f"bound {r.penalty_bound!r}"
            )
    _write_table(out / "penalize.csv", header, rows)
    return failures


def _run_double_penalize(scenario, task, state, out, seed, hook):
    spec = scenario.spec
    tree = _get_tree(scenario, state)
    n = task.params["n"]
    single = solve_penalized(spec, tree, n)
    header = ["m"]
    header += [f"Y_root_{i + 1}{j + 1}" for i in range(spec.m1) for j in range(spec.m2)]
    header += ["gap_to_single"]
    rows = []
    for m in task.params["m_list"]:
        sol = solve_double_penalized(spec, tree, n, m)
        gap = max(float(np.abs(y - ys).max()) for y, ys in zip(sol.Y, single.Y))
        rows.append([m] + [_fmt(v) for v in sol.root.ravel()] + [_fmt(gap)])
    _write_table(out / "double_penalize.csv", header, rows)
    return []


def _run_saddle(scenario, task, state, out, seed, hook):
    sol = _require(state, "direct", "saddle", "solve_direct")
    # the parser admits exactly verify_saddle's catalog_size keyword
    report = verify_saddle(sol, seed=_task_seed(seed, "saddle"),
                           tol=scenario.tolerances["saddle"], **task.params)
    state["entry"].update(certified=report.certified,
                          best_reply_slack_I=report.reply_slack_I,
                          best_reply_slack_II=report.reply_slack_II,
                          certificate_margin=report.certificate_margin)
    rows = [["value_gap", "", f"{i + 1},{j + 1}", _fmt(g)]
            for (i, j), g in sorted(report.value_gap.items())]
    failures = []
    for kind, strat_id, (i, j), slack, strategy in report.violations:
        rows.append([kind, strat_id, f"{i + 1},{j + 1}", _fmt(slack)])
        failures.append(f"{kind} inequality violated by {float(slack)!r} "
                        f"(strategy {strat_id}, start ({i + 1}, {j + 1}))")
    _write_table(out / "saddle.csv", ["kind", "strategy", "start", "value"], rows)
    # each violation's replay table, streamed: one violating table can hold
    # millions of rows, and it repeats once per violating start pair
    if any(strategy is not None for *_, strategy in report.violations):
        _write_table(out / "saddle_violations.csv",
                     ["kind", "strategy", "level", "node", "i", "j", "action"],
                     ([kind, strat_id] + rec
                      for kind, strat_id, _, _, strategy in report.violations
                      if strategy is not None
                      for rec in strategy.serialize_rows()))
    return failures


def _run_brute_force(scenario, task, state, out, seed, hook):
    spec = scenario.spec
    tree = _get_tree(scenario, state)
    values = brute_force_value(spec, tree)
    direct = state.get("direct")
    rows = []
    failures = []
    for i in range(spec.m1):
        for j in range(spec.m2):
            row = [i + 1, j + 1, _fmt(values[i, j])]
            if direct is not None:
                diff = abs(float(values[i, j] - direct.root[i, j]))
                row += [_fmt(direct.root[i, j]), _fmt(diff)]
                if not diff <= scenario.tolerances["match"]:
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


def _run_export(scenario, task, state, out, seed, hook):
    sol = _require(state, "direct", "export", "solve_direct")
    path = out / "fields.csv"
    rows, distinct = write_fields(path, sol)
    state["entry"].update(rows=rows, distinct_nodes=distinct, bytes=path.stat().st_size)
    return []


# every report a task writes
_REPORTS = ("validate.csv", "solve_direct.csv", "penalize.csv", "double_penalize.csv",
            "saddle.csv", "saddle_violations.csv", "brute_force.csv", "fields.csv")

# task name -> (runner, parameter rules); an optional parameter's default is
# the runner's own
_TASKS = {
    "validate": (_run_validate, {}),
    "solve_direct": (_run_solve_direct, {}),
    "penalize": (_run_penalize, {"n_list": (_POSITIVE_INTS, _REQUIRED)}),
    "double_penalize": (_run_double_penalize, {"n": (_POSITIVE_INT, _REQUIRED),
                                               "m_list": (_POSITIVE_INTS, _REQUIRED)}),
    "saddle": (_run_saddle, {"catalog_size": (_NON_NEGATIVE_INT, None)}),
    "brute_force": (_run_brute_force, {}),
    "export": (_run_export, {}),
}
