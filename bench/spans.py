"""Span tracer that instruments the switchgame package from outside.

The tracer rebinds public functions and methods of the package to timing
wrappers.  A function is rebound under every name that refers to it in every
loaded ``switchgame`` module (``from .model import project_oblique_batch`` in
``reflected`` makes ``reflected.project_oblique_batch`` the same object, so it
is rebound there too); methods are replaced on their class.  Nothing under
``src/`` changes, and a target that no longer exists is reported in
``Tracer.missing`` instead of failing the run.

Each traced call appends one span (name, start, end, parent, run id) to
in-memory arrays; ``summary`` turns them into per-name call counts, total
times and self times (a span's duration minus the durations of its child
spans).  Counting-only targets add to a counter and record no span, so their
time stays in the caller's self time.
"""

from __future__ import annotations

import array
import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _rows(a) -> int:
    """Leading-axis length of a batch of mode matrices (1 for a single matrix)."""
    a = np.asarray(a)
    return a.shape[0] if a.ndim >= 3 else 1


def _count_projection(counters, args, kwargs, out):
    _, dK, dL = out
    dK, dL = np.asarray(dK), np.asarray(dL)
    counters["model.project_oblique_batch.rows"] += _rows(dK)
    moved = (dK > 0.0) | (dL > 0.0)
    counters["model.project_oblique_batch.moved_rows"] += int(
        moved.reshape(_rows(dK), -1).any(axis=1).sum()
    )


def _count_picard(counters, args, kwargs, out):
    counters["bsde.picard_solve.iterations"] += int(out[1])


def _conditioner_counter(name):
    def count(counters, args, kwargs, out):
        values = np.asarray(args[2] if len(args) > 2 else kwargs["values"])
        counters[name + ".rows"] += values.shape[0]
        counters["lattice.bytes_computed"] += values.size * 8
    return count


# (module, attribute, span name, counter).  An attribute "Class.method" names
# a method.  A span name of None makes the target counting-only.
SPAN_TARGETS = (
    ("cli", "main", "cli.main", None),
    ("runner", "parse_scenario", "runner.parse_scenario", None),
    ("runner", "run", "runner.run", None),
    ("game", "verify_saddle", "game.verify_saddle", None),
    ("game", "eval_switched", "game.eval_switched", None),
    ("game", "extract_saddle", "game.extract_saddle", None),
    ("game", "solve_lower_reflected", "game.solve_lower_reflected", None),
    ("penalty", "penalization_report", "penalty.penalization_report", None),
    ("penalty", "solve_penalized", "penalty.solve_penalized", None),
    ("penalty", "solve_double_penalized", "penalty.solve_double_penalized", None),
    ("penalty", "lower_penalty_intensity", "penalty.lower_penalty_intensity", None),
    ("penalty", "max_penalty_level", "penalty.max_penalty_level", None),
    ("reflected", "solve_rbsde", "reflected.solve_rbsde", None),
    ("reflected", "check_minimality", "reflected.check_minimality", None),
    ("reflected", "domain_report", "reflected.domain_report", None),
    ("reflected", "export_rows", "reflected.export_rows", None),
    ("bsde", "picard_solve", "bsde.picard_solve", _count_picard),
    ("bsde", "solve_system", "bsde.solve_system", None),
    ("model", "project_oblique_batch", "model.project_oblique_batch", _count_projection),
    ("model", "min_loop_cost", "model.min_loop_cost", None),
    ("model", "check_loop_costs", "model.check_loop_costs", None),
    ("model", "enumerate_primary_loops", None, None),
    ("model", "GameSpec.validate", "model.validate", None),
    ("model", "GameSpec.check_terminal", "model.check_terminal", None),
    ("model", "GeneratorSpec.__call__", "model.driver", None),
    ("model", "GeneratorSpec.at_modes", "model.driver", None),
    ("lattice", "PathTree.__init__", "lattice.build_tree", None),
    ("lattice", "RecombiningTree.__init__", "lattice.build_tree", None),
    ("lattice", "PathTree.expect_next", "lattice.expect_next",
     _conditioner_counter("lattice.expect_next")),
    ("lattice", "RecombiningTree.expect_next", "lattice.expect_next",
     _conditioner_counter("lattice.expect_next")),
    ("lattice", "PathTree.z_next", "lattice.z_next", _conditioner_counter("lattice.z_next")),
    ("lattice", "RecombiningTree.z_next", "lattice.z_next",
     _conditioner_counter("lattice.z_next")),
)

# Targets whose calls return a generator: their span covers the time spent
# inside the generator, summed over its steps.
GENERATOR_TARGETS = {"reflected.export_rows"}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.run = array.array("i")
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.run_id = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_idx.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        return i

    def span(self, fn, name, counter=None):
        """Wrap `fn` so that each call records a span named `name`."""
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            stack.append(i)
            self.start[i] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counters, args, kwargs, out)
            return out

        return traced

    def generator_span(self, fn, name):
        """Wrap a generator function; the span's duration is the time spent
        inside the generator (its start is the first step, its end the start
        plus that time), and each yielded item counts as one row."""
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            i = self._open(nid)
            first, inside, rows = None, 0.0, 0
            try:
                while True:
                    stack.append(i)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        inside += perf_counter() - t0
                        stack.pop()
                        if first is None:
                            first = t0
                    rows += 1
                    yield item
            finally:
                self.start[i] = first if first is not None else perf_counter()
                self.end[i] = self.start[i] + inside
                self.counters[name + ".rows"] += rows

        return traced

    def counting(self, fn, name):
        """Wrap `fn` so that each call only increments ``<name>.calls``."""
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind every target that exists in the loaded switchgame package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "switchgame" or n.startswith("switchgame."))]
        for mod_name, attr, span_name, counter in SPAN_TARGETS:
            label = f"{mod_name}.{attr}"
            module = sys.modules.get(f"switchgame.{mod_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = None
            if owner is not None:
                original = (owner.__dict__.get(member) if owner_name
                            else getattr(owner, member, None))
            if original is None:
                self.missing.append(label)
                continue
            if span_name is None:
                wrapped = self.counting(original, f"{mod_name}.{member}")
            elif span_name in GENERATOR_TARGETS:
                wrapped = self.generator_span(original, span_name)
            else:
                wrapped = self.span(original, span_name, counter)
            if owner_name:
                self._rebind(owner, member, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapped)

    def _rebind(self, obj, name, value):
        self._undo.append((obj, name, obj.__dict__[name]))
        setattr(obj, name, value)

    def uninstall(self):
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[j]), "total_s": float(total[j]), "self_s": float(own[j])}
            for j, name in enumerate(self.names) if calls[j]
        }

    def write_spans(self, path):
        """Write every span as one CSV line: name,start,end,parent,run."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run\n")
            for j in range(len(self.start)):
                fh.write(f"{self.names[self.name_idx[j]]},{self.start[j]!r},"
                         f"{self.end[j]!r},{self.parent[j]},{self.run[j]}\n")
