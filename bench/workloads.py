"""The benchmark's workloads: input generators, one pass of operations each,
and the checks on every output.

Each workload is a closed loop in one process: one operation starts when the
previous one has finished.  An operation is one scenario run, one instance
solve, or one ladder rung; it fails on an exception, a non-zero exit code, a
failed invariant or an output mismatch.  Checks run outside the timed region.

Only stable entry points are called: ``switchgame.cli.main``, the names
exported by ``switchgame/__init__.py``, ``penalty.max_penalty_level`` and
``reflected.domain_report``.  Instances are generated here from the workload
seed, never imported from the test suite.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import signal
import statistics
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import switchgame
from switchgame import cli, penalty, reflected

REFERENCE_PATH = Path(__file__).parent / "reference.json"
# Seeds whose direct_path_3x3 roots record.py writes to reference.json.  On
# any other seed only the invariants of those solutions are checked, and the
# result file says so (``reference_checked``).
REFERENCE_SEEDS = range(16)

ROOT_TOL = 1e-12        # recorded direct-solve roots must match to this
MONOTONE_SLACK = 1e-10  # penalized values may dip by rounding only


def reference():
    """Recorded report digests and direct-solve roots (see record.py); empty
    before the first recording, which fails every pipeline check."""
    if not REFERENCE_PATH.exists():
        return {"pipeline_bundled": {}, "direct_path_3x3": {}}
    return json.loads(REFERENCE_PATH.read_text())


def run_pass(workload, rec):
    """Run every unit of one pass of `workload`, in order."""
    for unit in workload.units(rec):
        unit()


# This host's speed flips between modes about 1.8x apart, each lasting from
# under a second to minutes, so no statistic of wall times taken over one run
# is steady.  Each operation is therefore timed against a fixed computation
# that does not use the package, run just before it, just after it and every
# PROBE_INTERVAL seconds during it: the operation's cost is the sum, over the
# slices between two reference timings, of the slice's wall time over the
# mean of those two reference times.  A change of the host's speed cancels
# out of that sum, while a change of the package's speed does not.
REFERENCE_REPEATS = 3
PROBE_INTERVAL = 0.1
_REFERENCE_MATRIX = np.arange(9.0).reshape(3, 3)
_REFERENCE_VECTOR = np.random.default_rng(0).random(1 << 15)


def reference_kernel():
    """Small-matrix numpy calls in a Python loop and sorts of a 256 KiB
    vector: the kinds of work the package does, without the package."""
    total = 0.0
    for i in range(400):
        total += float(np.maximum(_REFERENCE_MATRIX - (i % 9), 0.0).sum()) + (i * i) % 7
    for _ in range(3):
        total += float(np.sort(_REFERENCE_VECTOR)[100])
    return total


def reference_seconds(repeats=REFERENCE_REPEATS):
    """Median wall time of `repeats` runs of the reference kernel."""
    walls = []
    for _ in range(repeats):
        t0 = perf_counter()
        reference_kernel()
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def timed_cost(fn):
    """Run ``fn()`` with the reference kernel timed before it, after it, and
    every PROBE_INTERVAL seconds during it from a SIGALRM handler, whose time
    is left out of the operation's.  Returns (result, wall, cost): the
    operation's own wall time, and its cost as described above."""
    marks = []  # (pause, resume, reference seconds) of each probe

    def probe(signum, frame):
        t0 = perf_counter()
        ref = reference_seconds(1)
        marks.append((t0, perf_counter(), ref))

    first = reference_seconds()
    previous = signal.signal(signal.SIGALRM, probe)
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, previous)
    last = reference_seconds()
    wall = cost = 0.0
    t, ref = start, first
    for pause, resume, r in [m for m in marks if m[0] < end] + [(end, end, last)]:
        wall += pause - t
        cost += (pause - t) / ((ref + r) / 2)
        t, ref = resume, r
    return result, wall, cost


class Recorder:
    """Timing samples, costs, failure counts and exact per-operation properties.

    `samples` holds wall times by role, and `costs` the cost (see
    `timed_cost`) of each passing operation, by label.
    `props` maps an operation label to the properties its output had; a
    label seen again (the same operation on the same inputs, later in the
    run) must repeat them exactly, or the operation counts as failed.
    """

    def __init__(self, props=None, tracer=None):
        self.samples = defaultdict(list)
        self.costs = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.props = {} if props is None else props
        self.counters = Counter()
        self.notes = {}
        self.tracer = tracer

    def setup(self, label, fn):
        """Time the set-up ``fn()`` as a "setup" sample and return its result.
        An exception counts as one failed operation and returns None, so the
        caller skips the operations that needed the set-up."""
        try:
            t0 = perf_counter()
            result = fn()
            wall = perf_counter() - t0
        except Exception:  # counted like a failed operation, and the loop goes on
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{label} set-up: {traceback.format_exc()}")
            return None
        self.samples["setup"].append(wall)
        return result

    def op(self, label, role, fn, check):
        """Time ``fn()`` and its cost, then run ``check(result)``, which
        returns a list of problems, outside the timed region.  Returns the
        result, or None when the operation failed.  In a traced pass the
        reference probes run inside whatever span is open, and add their
        share of the time (a few percent) to it."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = self.attempted
        try:
            result, wall, cost = timed_cost(fn)
            problems = list(check(result))
        except Exception:  # a failed operation is counted, and the loop goes on
            result, problems = None, [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")
            return None
        self.samples[role].append(wall)
        self.costs[label].append(cost)
        return result

    def cost(self):
        """Label -> the median cost of that operation in the run."""
        return {label: statistics.median(c) for label, c in self.costs.items()}

    def prop(self, label, **values):
        """Record exact properties of an operation's output; returns the
        problems found when they differ from an earlier run of it."""
        if label in self.props and self.props[label] != values:
            return [f"properties changed between passes: {self.props[label]} -> {values}"]
        self.props[label] = values
        self.counters["active_nodes"] += values.get("active_nodes", 0)
        self.counters["interior_nodes"] += values.get("interior_nodes", 0)
        return []


def active_push_nodes(sol):
    """(interior nodes with a nonzero push, interior nodes) of a direct solution."""
    active = sum(int(((dk > 0.0) | (dl > 0.0)).reshape(dk.shape[0], -1).any(axis=1).sum())
                 for dk, dl in zip(sol.dK, sol.dL))
    return active, sum(dk.shape[0] for dk in sol.dK)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# pipeline_bundled: `switchgame solve` on the two bundled scenarios
# ---------------------------------------------------------------------------

class PipelineBundled:
    """``switchgame solve`` through ``switchgame.cli.main`` on standard_2x2.json
    and then perf_3x3.json, with the run seed taken from the workload seed.

    Saddle verification dominates (hundreds of ``eval_switched`` calls), so
    changes to ``game`` and to report writing show here; the 2x2 scenario
    guards small mode grids against a change tuned for 3x3.  It takes a
    fifteenth of the 3x3 run, so a pass runs it three times; a run is mostly
    a single pass, so the set-up also repeats.
    """

    SCENARIOS = (("standard_2x2", "small"),) * 3 + (("perf_3x3", "solve"),)
    SETUP_REPEATS = 5
    # the report digests do not depend on the seed, so every seed is checked
    reference_checked = True
    # perf_3x3 has 4096 leaves; the barrier temporaries hold leaves*3*3*3 doubles
    largest_array_bytes = 4096 * 27 * 8

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.scenario_dir = Path(switchgame.__file__).parent / "scenarios"
        self.expected = reference()["pipeline_bundled"]

    def inputs_digest(self):
        h = hashlib.sha256(str(self.seed).encode())
        for name in dict(self.SCENARIOS):
            h.update((self.scenario_dir / f"{name}.json").read_bytes())
        return h.hexdigest()

    def warm_up(self):
        """Nothing to do: the three 2x2 runs come first, and the median of
        three leaves out the first one's start-up costs."""

    def units(self, rec):
        return [functools.partial(self._setup, rec)] + [
            functools.partial(self._scenario, rec, name, role) for name, role in self.SCENARIOS
        ]

    @staticmethod
    def end_to_end(cost):
        return {"solve_ref": cost.get("perf_3x3"), "small_ref": cost.get("standard_2x2")}

    def _setup(self, rec):
        for _ in range(self.SETUP_REPEATS):
            rec.setup("scenarios", lambda: [
                switchgame.parse_scenario(self.scenario_dir / f"{name}.json").build_tree()
                for name in dict(self.SCENARIOS)
            ])

    def _scenario(self, rec, name, role):
        out = self.work_dir / name
        argv = ["solve", str(self.scenario_dir / f"{name}.json"),
                "--out", str(out), "--seed", str(self.seed)]
        rec.op(name, role, lambda: self._solve(argv),
               lambda res: self._check(rec, name, out, res))

    @staticmethod
    def _solve(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def _check(self, rec, name, out, res):
        code, log = res
        if code != 0:
            return [f"exit code {code}: {log.strip()}"]
        problems = []
        manifest = json.loads((out / "manifest.json").read_text())
        for task in manifest["tasks"]:
            if task["status"] != "ok":
                problems.append(f"task {task['name']} status {task['status']}")
            rec.notes[f"{name}.{task['name']}"] = task["wall_time_s"]
        # Report contents do not depend on the seed (it only draws the saddle
        # catalog, which reaches the CSVs through violations alone), so the
        # recorded digests hold for every seed.
        expected = self.expected[name]
        written = {p.name: _sha256(p) for p in sorted(out.glob("*.csv"))}
        if written != expected:
            diff = sorted(k for k in set(written) | set(expected)
                          if written.get(k) != expected.get(k))
            problems.append(f"report digests differ from the recorded ones: {diff}")
        rec.counters["report_bytes"] += sum(p.stat().st_size for p in out.glob("*.csv"))
        active, interior = self._fields_push_nodes(out / "fields.csv")
        return problems + rec.prop(name, active_nodes=active, interior_nodes=interior)

    @staticmethod
    def _fields_push_nodes(path):
        active, interior = set(), set()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                if row["dK"] == "":
                    continue  # leaf rows carry no push
                node = (row["level"], row["node"])
                interior.add(node)
                if float(row["dK"]) > 0.0 or float(row["dL"]) > 0.0:
                    active.add(node)
        return len(active), len(interior)


# ---------------------------------------------------------------------------
# direct_path_3x3: solve_rbsde on random admissible 3x3 instances
# ---------------------------------------------------------------------------

# The jittered 3x3 costs of the bundled perf_3x3 scenario.  Costs drawn at
# random put the smallest alternating loop cost anywhere near zero, and the
# projection then needs about span/cost sweeps: one seed's three set-ups took
# 1.7 s, 17.6 s and 4.9 s on a 2-vCPU Xeon VM.  A fixed admissible structure keeps the run time
# a steady function of the seed, which draws the driver and leaf tables.
PERF_K = [[0.0, 1.253, 1.222], [1.079, 0.0, 1.247], [1.021, 1.234, 0.0]]
PERF_L = [[0.0, 0.768, 0.765], [0.761, 0.0, 0.801], [0.809, 0.879, 0.0]]


def leaf_table_spec(rng, costs, c, tree):
    """Random leaf-table terminal projected into the region in one batch call,
    with a mode-constant driver."""
    m1, m2 = costs.m1, costs.m2
    raw = rng.uniform(-2.0, 2.0, (tree.level_size(tree.N), m1, m2))
    table = switchgame.project_oblique(raw, costs)[0]
    gen = switchgame.GeneratorSpec("mode_constant", m1, m2, c=c)
    term = switchgame.TerminalSpec("leaf_table", m1, m2, table=table)
    return switchgame.GameSpec(costs, gen, term, horizon=tree.T, d=tree.d)


class DirectPath3x3:
    """``solve_rbsde`` on seeded random 3x3 instances of the criterion-06
    family (a random mode-constant driver and a random leaf-table terminal
    projected into the region in one batch call, over the fixed admissible
    costs above) on a d=1 path tree at N=17, the largest the memory budget
    allows (131k interior nodes), and at N=12.

    Many interior nodes carry an active push, so ``model`` (the projection
    on big batches and loop-cost enumeration) and ``lattice`` do the work;
    ``game`` and ``penalty`` are idle.
    """

    INSTANCES = 3
    # (N, metric prefix, solves per instance and pass)
    SIZES = ((12, "small", 2), (17, "solve", 2))
    HORIZON = 1.0
    # the barrier temporaries on the N=17 leaves hold leaves*3*3*3 doubles
    largest_array_bytes = 2 ** 17 * 27 * 8

    def __init__(self, seed, work_dir, sizes=SIZES):
        self.seed = seed
        self.sizes = sizes
        self.roots = reference()["direct_path_3x3"].get(str(seed), {})
        self.reference_checked = bool(self.roots)

    def instance(self, q):
        """Instance q of this seed: one driver, and one leaf table per tree size."""
        rng = np.random.default_rng([self.seed, q])
        costs = switchgame.CostTables(k=PERF_K, l=PERF_L)
        c = rng.uniform(-2.0, 2.0, (3, 3))
        out = []
        for N, role, repeats in self.sizes:
            tree = switchgame.build_tree(N, 1, self.HORIZON)
            out.append((N, role, repeats, tree, leaf_table_spec(rng, costs, c, tree)))
        return out

    def inputs_digest(self):
        h = hashlib.sha256()
        for q in range(self.INSTANCES):
            for N, _, _, _, spec in self.instance(q):
                h.update(spec.generator.c.tobytes() + spec.terminal.table.tobytes())
        return h.hexdigest()

    def units(self, rec):
        return [functools.partial(self._instance, rec, q) for q in range(self.INSTANCES)]

    def end_to_end(self, cost):
        """Mean over the instances of each one's median solve cost, per size."""
        out = {}
        for N, role, _ in self.sizes:
            costs = [cost.get(f"instance{q}.N{N}") for q in range(self.INSTANCES)]
            out[f"{role}_ref"] = None if None in costs else sum(costs) / len(costs)
        return out

    def warm_up(self):
        """Solve small instances untimed, so that first-call costs stay out
        of the samples."""
        run_pass(DirectPath3x3(self.seed, None, sizes=((4, "small", 1), (6, "solve", 1))),
                 Recorder())

    def _instance(self, rec, q):
        cases = rec.setup(f"instance{q}", lambda: self.instance(q))
        for N, role, repeats, tree, spec in cases or ():
            label = f"instance{q}.N{N}"
            for _ in range(repeats):
                rec.op(label, role, lambda: switchgame.solve_rbsde(spec, tree),
                       lambda sol: self._check(rec, label, q, N, sol))

    def _check(self, rec, label, q, N, sol):
        problems = list(switchgame.check_minimality(sol).violations[:3])
        problems += list(reflected.domain_report(sol).violations[:3])
        if not np.all(np.isfinite(sol.root)):
            problems.append("non-finite root")
        ref = self.roots.get(f"{q}.{N}")
        if ref is not None:
            worst = float(np.abs(sol.root - np.asarray(ref)).max())
            if worst > ROOT_TOL:
                problems.append(f"root differs from the recorded reference by {worst!r}")
        active, interior = active_push_nodes(sol)
        return problems + rec.prop(label, active_nodes=active, interior_nodes=interior)


# ---------------------------------------------------------------------------
# refine_lattice_2x2: refinement ladder with penalization sweeps
# ---------------------------------------------------------------------------

STANDARD_K = [[0.0, 1.0], [1.0, 0.0]]
STANDARD_L = [[0.0, 0.8], [0.8, 0.0]]
STANDARD_ALPHA = [[0.3, 0.9], [-0.4, 0.4]]
STANDARD_T = 0.24


def refine_spec(rng):
    """Standard 2x2 costs and alpha; a uniform beta, so the terminal stays in
    the region at every N (its differences are those of alpha); and a
    saturated-affine driver, so Y0(N) really moves with N."""
    beta = np.full((2, 2), rng.uniform(0.8, 1.2))
    c0 = rng.uniform(1.0, 2.0)
    gen = switchgame.GeneratorSpec(
        "saturated_affine", 2, 2, a=rng.uniform(0.3, 0.7), b=[rng.uniform(0.1, 0.4)],
        M=1.0, c=[[c0, -c0], [-c0, c0]],
    )
    term = switchgame.TerminalSpec("affine", 2, 2, alpha=STANDARD_ALPHA, beta=beta)
    costs = switchgame.CostTables(k=STANDARD_K, l=STANDARD_L)
    return switchgame.GameSpec(costs, gen, term, horizon=STANDARD_T, d=1)


def doubling_levels(n_max):
    """1, 2, 4, ... up to n_max."""
    out, n = [], 1
    while n <= n_max:
        out.append(n)
        n *= 2
    return out


class RefineLattice2x2:
    """The refinement study on the recombining lattice: for N on a doubling
    ladder, one ``solve_rbsde`` and then ``penalization_report`` with
    n = 1, 2, 4, ... up to ``max_penalty_level``.  "solve" is the whole
    ladder, the sum of each rung's median cost, and "small" its first rung,
    which each pass runs three times: it lasts a tenth of the ladder.

    Hundreds of small levels at a few Picard iterations each make ``bsde``,
    ``penalty`` and per-call overhead dominate, and the projection runs as
    thousands of calls of at most N+1 rows.  Loop enumeration is trivial on
    2x2.
    """

    LADDER = (100, 200, 400)
    SMALL_REPEATS = 3
    # nothing is recorded: the checks are invariants of every rung's outputs
    reference_checked = False
    # penalty terms on the N=400 leaves hold 401*2*2*2 doubles
    largest_array_bytes = 401 * 8 * 8

    def __init__(self, seed, work_dir, ladder=LADDER):
        self.seed = seed
        self.ladder = ladder

    def spec(self):
        return refine_spec(np.random.default_rng([self.seed, 2]))

    def inputs_digest(self):
        spec = self.spec()
        g = spec.generator
        return hashlib.sha256(
            np.concatenate([g.c.ravel(), [g.a], g.b, spec.terminal.beta.ravel()]).tobytes()
            + repr(self.ladder).encode()
        ).hexdigest()

    def units(self, rec):
        return [functools.partial(self._ladder, rec)]

    def _build(self):
        spec = self.spec()
        spec.require_valid()
        return spec, {N: switchgame.build_tree(N, 1, spec.horizon, recombining=True)
                      for N in self.ladder}

    def _ladder(self, rec):
        built = rec.setup("ladder", self._build)
        if built is None:
            return
        spec, trees = built
        for N in (self.ladder[0],) * self.SMALL_REPEATS + self.ladder[1:]:
            rec.op(f"N{N}", "rung", lambda: self._rung(spec, trees[N]),
                   lambda res: self._check(rec, N, *res))

    def end_to_end(self, cost):
        costs = [cost.get(f"N{N}") for N in self.ladder]
        return {"solve_ref": None if None in costs else sum(costs), "small_ref": costs[0]}

    def warm_up(self):
        """Run a two-rung ladder untimed, so that first-call costs stay out
        of the samples."""
        run_pass(RefineLattice2x2(self.seed, None, ladder=(10, 20)), Recorder())

    @staticmethod
    def _rung(spec, tree):
        sol = switchgame.solve_rbsde(spec, tree)
        levels = doubling_levels(penalty.max_penalty_level(tree, spec))
        return sol, switchgame.penalization_report(spec, tree, levels, direct=sol)

    def _check(self, rec, N, sol, report):
        problems = list(switchgame.check_minimality(sol).violations[:3])
        problems += list(reflected.domain_report(sol).violations[:3])
        rows = report.rows
        for prev, cur in zip(rows, rows[1:]):
            dip = float((prev.root - cur.root).max())
            if dip > MONOTONE_SLACK:
                problems.append(f"penalized root decreased by {dip!r} from n={prev.n} to n={cur.n}")
            if cur.gap > prev.gap + MONOTONE_SLACK:
                problems.append(f"gap to the direct solve grew from n={prev.n} to n={cur.n}")
        over = float((rows[-1].root - sol.root).max())
        if over > MONOTONE_SLACK:
            problems.append(f"penalized root exceeds the direct root by {over!r}")
        if not rows[-1].gap < rows[0].gap:
            problems.append("penalized solutions do not approach the direct solve")
        rec.notes[f"Y0.N{N}"] = sol.root.tolist()
        rec.notes[f"gap.N{N}"] = [[r.n, r.gap] for r in rows]
        active, interior = active_push_nodes(sol)
        problems += rec.prop(f"N{N}", active_nodes=active, interior_nodes=interior,
                             levels=[r.n for r in rows])
        return problems


WORKLOADS = {
    "pipeline_bundled": PipelineBundled,
    "direct_path_3x3": DirectPath3x3,
    "refine_lattice_2x2": RefineLattice2x2,
}
