"""Self-tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest bench/test_bench.py -q
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import switchgame  # noqa: E402
import workloads  # noqa: E402
from switchgame import cli, model, reflected  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_of_a_toy_nest(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    tracer = spans.Tracer()

    def leaf():
        clock.tick(5.0)

    def rows():
        for _ in range(2):
            clock.tick(1.0)
            yield 0

    leaf = tracer.span(leaf, "leaf")
    rows = tracer.generator_span(rows, "rows")

    def outer():
        clock.tick(1.0)
        leaf()
        clock.tick(2.0)
        leaf()
        for _ in rows():
            clock.tick(10.0)  # the consumer's time is not the generator's
        clock.tick(3.0)

    tracer.span(outer, "outer")()
    s = tracer.summary()
    assert s["leaf"] == {"calls": 2, "total_s": 10.0, "self_s": 10.0}
    assert s["rows"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert s["outer"] == {"calls": 1, "total_s": 38.0, "self_s": 26.0}
    assert tracer.counters["rows.rows"] == 2
    assert list(tracer.parent) == [-1, 0, 0, 0]


def test_cost_is_wall_time_over_the_reference_time_around_it(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(workloads, "perf_counter", clock)
    references = iter([0.5, 1.5, 1.0, 1.0, 1.0, 1.0])
    monkeypatch.setattr(workloads, "reference_seconds", lambda *repeats: next(references))
    rec = workloads.Recorder()
    rec.op("op", "role", lambda: clock.tick(4.0), lambda _: [])
    rec.op("op", "role", lambda: clock.tick(3.0), lambda _: [])
    rec.op("op", "role", lambda: clock.tick(0.1), lambda _: ["wrong output"])
    assert rec.costs == {"op": [4.0, 3.0]}
    assert rec.cost() == {"op": 3.5}
    assert rec.samples["role"] == [4.0, 3.0]
    assert (rec.attempted, rec.failed) == (3, 1)


def test_tracer_rebinds_every_alias_and_restores_them(monkeypatch):
    original = model.project_oblique_batch
    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (
        ("model", "no_such_function", "model.no_such_function", None),
        ("model", "NoSuchClass.method", "model.no_such_method", None),
    ))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert model.project_oblique_batch is not original
        assert reflected.project_oblique_batch is model.project_oblique_batch
        assert switchgame.solve_rbsde is reflected.solve_rbsde
        assert tracer.missing == ["model.no_such_function", "model.NoSuchClass.method"]
    finally:
        tracer.uninstall()
    assert model.project_oblique_batch is original
    assert reflected.project_oblique_batch is original


@pytest.mark.parametrize("make", [
    lambda seed: workloads.PipelineBundled(seed, "unused"),
    lambda seed: workloads.DirectPath3x3(seed, "unused", sizes=((4, "small", 1), (6, "solve", 1))),
    lambda seed: workloads.RefineLattice2x2(seed, "unused"),
])
def test_inputs_follow_the_seed(make):
    assert make(3).inputs_digest() == make(3).inputs_digest()
    assert make(3).inputs_digest() != make(4).inputs_digest()


def traced_counts(workload):
    tracer = spans.Tracer()
    rec = workloads.Recorder(tracer=tracer)
    tracer.install()
    try:
        workloads.run_pass(workload, rec)
    finally:
        tracer.uninstall()
    assert rec.failed == 0, rec.failures
    calls = {name: v["calls"] for name, v in tracer.summary().items()}
    return calls, dict(tracer.counters), dict(rec.counters), rec.props


@pytest.mark.parametrize("make", [
    lambda work: workloads.PipelineBundled(5, work),
    lambda work: workloads.DirectPath3x3(5, work, sizes=((4, "small", 1), (6, "solve", 1))),
    lambda work: workloads.RefineLattice2x2(5, work, ladder=(10, 20)),
], ids=["pipeline_bundled", "direct_path_3x3", "refine_lattice_2x2"])
def test_counts_repeat_exactly_for_a_seed(make, monkeypatch, tmp_path):
    """Span call counts, tracer counters (rows, moved rows, Picard
    iterations, bytes) and workload properties repeat exactly."""
    monkeypatch.setattr(workloads.PipelineBundled, "SCENARIOS", (("standard_2x2", "small"),))
    first = traced_counts(make(tmp_path / "a"))
    assert first == traced_counts(make(tmp_path / "b"))
    calls, counters = first[:2]
    assert calls["reflected.solve_rbsde"] > 0
    assert counters["model.project_oblique_batch.rows"] > 0


def test_failed_setup_counts_as_a_failed_operation(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("tree build broke")

    monkeypatch.setattr(switchgame, "build_tree", broken)
    rec = workloads.Recorder()
    workloads.run_pass(workloads.RefineLattice2x2(0, "unused", ladder=(10, 20)), rec)
    assert (rec.attempted, rec.failed) == (1, 1)
    assert "ladder set-up" in rec.failures[0] and "tree build broke" in rec.failures[0]


def test_corrupted_run_fails_the_command(monkeypatch, tmp_path):
    """A solution corrupted through runner.run's solution_hook must count as
    a failed operation and make the command exit non-zero."""
    def corrupt(sol):
        sol.Y[0][0, 0, 0] += 0.25

    def run_with_hook(*args, **kwargs):
        return switchgame.runner.run(*args, solution_hook=corrupt, **kwargs)

    monkeypatch.setattr(cli, "run", run_with_hook)
    monkeypatch.setattr(workloads.PipelineBundled, "SCENARIOS", (("standard_2x2", "small"),))
    monkeypatch.setattr(run, "OUT", tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run.main(["--workload", "pipeline_bundled", "--seed", "0",
                         "--seconds", "0", "--trace", "0"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1
    assert "standard_2x2: exit code 1" in err.getvalue()
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
