"""The documents name the settings the code has, and no others.

`docs/scenario_schema.md` lists every task with its parameters and the
files it writes, and both it and `README.md` give the `switchgame solve`
synopsis.  A task parameter, output file or command-line option removed from
the code but left in these documents (or added to the code but not to them)
fails here, and so does a module added to
or removed from `src/switchgame/` without its row in README's module map, or
a report without exactly one section in `docs/report_formats.md`, a
report whose header row differs from the columns that its section title
names, or a task's manifest entry whose keys differ from the ones its table
there lists.
"""

import argparse
import csv
import re
from pathlib import Path

import pytest

from switchgame import cli, runner

from test_runner import EVERY_TASK, small_scenario

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = ROOT / "docs" / "scenario_schema.md"
README = ROOT / "README.md"
REPORTS = ROOT / "docs" / "report_formats.md"


def _table(text, first_header, after=""):
    """The cells of the Markdown table whose header row starts with the
    column `first_header` (the first such table past the text `after`), one
    list per body row."""
    lines = text[text.index(after):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {first_header} "))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _quoted(cell):
    """The names written as code in a table cell."""
    return re.findall(r"`([^`]+)`", cell)


def _solve_parser():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["solve"]


def _options():
    """(flag, metavar) of each `switchgame solve` option, in declared order."""
    return [(a.option_strings[-1], a.metavar) for a in _solve_parser()._actions
            if a.option_strings and a.metavar is not None]


def test_task_table_lists_each_task_with_its_parameters():
    rows = _table(SCHEMA.read_text(), "task")
    documented = {_quoted(task)[0]: set(_quoted(params)) for task, params, _ in rows}
    assert documented == {name: set(rules) for name, (_, rules) in runner._TASKS.items()}


def test_task_table_names_the_files_each_task_writes(tmp_path):
    # each task in a directory of its own, after solve_direct where it needs
    # it, and the saddle task once more with a lowered root, so that it
    # writes its violations too
    documented = {_quoted(task)[0]: set(_quoted(files))
                  for task, _, files in _table(SCHEMA.read_text(), "task")}
    scenario = runner.parse_scenario(small_scenario(
        tmp_path, tree={"N": 2, "recombining": False}, tasks=EVERY_TASK))

    def lower(sol):
        sol.Y[0] = sol.Y[0] - 0.3

    names = [entry if isinstance(entry, str) else entry["task"] for entry in EVERY_TASK]
    written = {}
    for k, (name, hook) in enumerate([(name, None) for name in names] + [("saddle", lower)]):
        before = [] if name in ("validate", "solve_direct") else ["solve_direct"]
        result = runner.run(scenario, out_dir=tmp_path / str(k), seed=0,
                            tasks=before + [name], solution_hook=hook)
        assert result.exit_code == (0 if hook is None else 1), name
        files = {p.name for p in result.out_dir.iterdir()} - {"manifest.json"}
        written.setdefault(name, set()).update(files - {f"{task}.csv" for task in before})
    assert written == documented
    assert set().union(*written.values()) == set(runner._REPORTS)


def test_parameter_table_lists_every_task_parameter():
    rows = _table(SCHEMA.read_text(), "parameter")
    documented = {name for row in rows for name in _quoted(row[0])}
    assert documented == {key for _, rules in runner._TASKS.values() for key in rules}


@pytest.mark.parametrize("doc", [README, SCHEMA], ids=lambda p: p.name)
def test_solve_synopsis_matches_the_parser(doc):
    assert [a.dest for a in _solve_parser()._actions if not a.option_strings] == ["scenario"]
    synopsis = "switchgame solve <scenario.json> " + " ".join(
        f"[{flag} {metavar}]" for flag, metavar in _options())
    text = doc.read_text()
    assert [line for line in text.splitlines()
            if line.startswith("switchgame solve ")] == [synopsis]
    assert set(re.findall(r"`(--[\w-]+)", text)) <= {flag for flag, _ in _options()}


def test_module_map_lists_exactly_the_modules():
    rows = _table(README.read_text(), "module")
    documented = sorted(_quoted(row[0])[0] for row in rows)
    modules = sorted(p.stem for p in (ROOT / "src" / "switchgame").glob("*.py")
                     if p.stem != "__init__")
    assert documented == modules


def test_report_sections_are_exactly_the_reports_the_runner_writes():
    # penalize.csv, double_penalize.csv and fields.csv have no header in
    # their titles, so the header check below does not reach them
    sections = re.findall(r"^## `(\w+\.csv)`", REPORTS.read_text(), re.M)
    assert sorted(sections) == sorted(set(sections)) == sorted(runner._REPORTS)


def test_report_headers_match_their_section_titles(tmp_path):
    # every task once on a tree that brute force takes, then a lowered root,
    # so that saddle_violations.csv is written
    titled = dict(re.findall(r"^## `(\w+\.csv)` — `([^`]+)`$", REPORTS.read_text(), re.M))
    assert sorted(titled) == ["brute_force.csv", "saddle.csv", "saddle_violations.csv",
                              "solve_direct.csv", "validate.csv"]
    scenario = runner.parse_scenario(small_scenario(
        tmp_path, tree={"N": 2, "recombining": False}, tasks=EVERY_TASK))

    def lower(sol):
        sol.Y[0] = sol.Y[0] - 0.3

    assert runner.run(scenario, out_dir=tmp_path / "every", seed=0).exit_code == 0
    assert runner.run(scenario, out_dir=tmp_path / "lowered", seed=0,
                      tasks=["solve_direct", "saddle"], solution_hook=lower).exit_code == 1
    headers = {}
    for path in [*(tmp_path / "every").glob("*.csv"), *(tmp_path / "lowered").glob("*.csv")]:
        with open(path, newline="") as fh:
            headers.setdefault(path.name, set()).add(",".join(next(csv.reader(fh))))
    assert {name: headers.get(name) for name in titled} == {
        name: {columns} for name, columns in titled.items()}


def test_manifest_key_tables_match_the_entries(tmp_path):
    # past the keys of every entry, the saddle and export tables list the
    # keys that those tasks add to theirs
    text = REPORTS.read_text()
    tasks = next(meaning for key, meaning in _table(text, "key") if key == "`tasks`")
    common = re.search(r"`\{(.*), \.\.\.\}`", tasks).group(1)
    scenario = runner.parse_scenario(small_scenario(tmp_path))
    entries = {e["name"]: e for e in runner.run(scenario, out_dir=tmp_path / "run",
                                                seed=0).manifest["tasks"]}
    for task in ("saddle", "export"):
        rows = _table(text, "key", after=f"The `{task}` task's entry")
        assert {_quoted(row[0])[0] for row in rows} == entries[task].keys() - set(
            common.split(", ")), task
