"""Acceptance gate: the twelve desk-scale criteria, one test each.

Every test prints a single PASS/FAIL line before asserting, so the gate's
outcome is readable straight off the pytest output.

Criterion 2 checks that the penalized values are nondecreasing in the
penalty level n and bounded above by the direct reflected solution.  That is
the direction the scheme guarantees: the lower-barrier penalty
n * sum_j' (y[i,j] - y[i,j'] + l(j,j'))^- is nonnegative and grows with n, so
by the comparison principle the penalized values rise toward the reflected
solution from below.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from switchgame import build_tree, solve_rbsde
from switchgame.game import (
    brute_force_value,
    eval_switched,
    extract_saddle,
    verify_saddle,
)
from switchgame.model import (
    CostTables,
    GameSpec,
    GeneratorSpec,
    TerminalSpec,
    check_loop_costs,
    enumerate_primary_loops,
    project_oblique,
    validate_cost_matrices,
)
from switchgame.penalty import penalization_report
from switchgame.reflected import check_minimality, domain_report
from switchgame.runner import parse_scenario, run

from conftest import (
    feedback_strategies,
    make_standard,
    n2_fixture_set,
    random_admissible_spec,
    standard_costs,
    swapped_projection,
)
from test_model import admissible_costs, closed_walk_loops

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "switchgame" / "scenarios"
N_LIST = [1, 2, 4, 8, 16, 32]


def report_line(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {tag}" + (f" ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def standard_sweep():
    """Shared n-sweep on the standard instance at N=8 (criteria 2-5)."""
    spec = make_standard()
    tree = build_tree(8, 1, spec.horizon)
    direct = solve_rbsde(spec, tree)
    report = penalization_report(spec, tree, N_LIST, direct=direct)
    return spec, tree, direct, report


def test_criterion_01_martingale_sanity():
    spec = GameSpec(
        costs=standard_costs(),
        generator=GeneratorSpec("zero", 2, 2),
        terminal=TerminalSpec("constant", 2, 2, alpha=[[0.1, 0.2], [0.0, 0.1]]),
        horizon=1.0,
    )
    t0 = time.perf_counter()
    worst = 0.0
    for N, recombining in ((4, False), (12, False), (12, True)):
        tree = build_tree(N, 1, 1.0, recombining=recombining)
        sol = solve_rbsde(spec, tree)
        for t in range(N + 1):
            worst = max(worst, float(np.abs(
                sol.Y[t] - np.asarray([[0.1, 0.2], [0.0, 0.1]])).max()))
        for t in range(N):
            worst = max(worst, float(sol.dK[t].max()), float(sol.dL[t].max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report_line(1, "martingale-sanity", ok,
                       f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_penalization_monotonicity(standard_sweep):
    spec, tree, direct, report = standard_sweep
    from switchgame.penalty import solve_penalized
    slack = 1e-10
    t0 = time.perf_counter()
    sols = [solve_penalized(spec, tree, n) for n in N_LIST if n <= 16]
    elapsed = time.perf_counter() - t0
    pairs = [(y, p) for prev, sol in zip(sols, sols[1:])
             for y, p in zip(sol.Y, prev.Y)]
    decrease = max(float((p - y).max()) for y, p in pairs)
    increase = max(float((y - p).max()) for y, p in pairs)
    above = max(float((y - yd).max())
                for sol in sols for y, yd in zip(sol.Y, direct.Y))
    # The lower barriers must bind, or a sequence that never moves would pass.
    moved = max(r.monotone_worst for r in report.rows) > 0.0
    ok = decrease <= slack and above <= slack and moved and elapsed < 10.0
    assert report_line(2, "penalization-monotone-nondecreasing", ok,
                       f"largest decrease {decrease:.3e}, largest increase "
                       f"{increase:.3e}, max above direct {above:.3e}, "
                       f"slack {slack:g}, {elapsed:.2f}s")


def test_criterion_03_penalty_intensity_bound(standard_sweep):
    spec, _, _, report = standard_sweep
    bound = 2.0 * spec.generator.sup_bound
    worst = max(r.penalty_stat for r in report.rows)
    ok = all(r.penalty_stat <= bound + 1e-9 for r in report.rows)
    assert report_line(3, "penalty-intensity-bound", ok,
                       f"max stat {worst:.3f} vs bound {bound:.1f}")


def test_criterion_04_a_priori_bounds(standard_sweep):
    spec, tree, _, report = standard_sweep
    from switchgame.penalty import solve_penalized
    xi_max = float(np.abs(spec.check_terminal(tree)).max())
    hi = xi_max + 3.0 * spec.generator.sup_bound * spec.horizon + 1e-9
    lo = -xi_max - spec.generator.sup_bound * spec.horizon - 1e-9
    ok = True
    for n in N_LIST:
        sol = solve_penalized(spec, tree, n)
        for y in sol.Y:
            ok = ok and (y.max() <= hi) and (y.min() >= lo)
    assert report_line(4, "a-priori-bounds", ok, f"window [{lo:.3f}, {hi:.3f}]")


def test_criterion_05_penalization_limit(standard_sweep):
    _, _, _, report = standard_sweep
    gaps = dict(zip(N_LIST, report.gaps()))
    decreasing = all(g2 < g1 for g1, g2 in
                     zip(report.gaps(), report.gaps()[1:]))
    ratios = {n: gaps[2 * n] / gaps[n] for n in (4, 8, 16)}
    ratio_ok = all(r <= 0.75 for r in ratios.values())
    predicted = gaps[16] ** 2 / gaps[8]   # geometric extrapolation to n=32
    limit_ok = gaps[32] <= 10.0 * predicted
    ok = decreasing and ratio_ok and limit_ok
    assert report_line(
        5, "penalization-limit", ok,
        "ratios " + ", ".join(f"{n}->{2 * n}: {r:.3f}" for n, r in ratios.items())
        + f"; gap(32)={gaps[32]:.4f} vs 10x extrapolation {10 * predicted:.4f}")


def test_criterion_06_minimality_sweep():
    rng = np.random.default_rng(112233)
    t0 = time.perf_counter()
    bad = 0
    for trial in range(100):
        m1, m2 = (2, 2) if trial % 2 == 0 else (3, 2)
        N = int(rng.integers(2, 7))
        tree = build_tree(N, 1, 1.0)
        spec = random_admissible_spec(rng, m1, m2, tree)
        sol = solve_rbsde(spec, tree)
        if not (check_minimality(sol).ok
                and domain_report(sol).ok):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60.0
    assert report_line(6, "minimality-on-random-instances", ok,
                       f"{bad} bad of 100, {elapsed:.1f}s")


def test_criterion_07_representation():
    worst = 0.0
    for name, spec in n2_fixture_set():
        tree = build_tree(2, 1, spec.horizon)
        sol = solve_rbsde(spec, tree)
        best = brute_force_value(spec, tree)
        worst = max(worst, float(np.abs(best - sol.root).max()))
    ok = worst <= 1e-9
    assert report_line(7, "representation-theorem", ok,
                       f"worst start-mode gap {worst:.2e} over "
                       f"{len(n2_fixture_set())} fixtures")


def test_criterion_08_saddle_point():
    spec = make_standard()
    tree = build_tree(8, 1, spec.horizon)
    sol = solve_rbsde(spec, tree)
    t0 = time.perf_counter()
    report = verify_saddle(sol, catalog_size=200, seed=0, tol=1e-8)
    elapsed = time.perf_counter() - t0
    ok = report.ok and max(report.value_gap.values()) <= 1e-8 and elapsed < 30.0
    assert report_line(8, "saddle-point-catalog", ok,
                       f"{report.catalog_size_I}+{report.catalog_size_II} strategies, "
                       f"value gap {max(report.value_gap.values()):.2e}, {elapsed:.1f}s")


def test_criterion_09_exhaustive_saddle():
    spec = make_standard()
    tree = build_tree(2, 1, spec.horizon)
    sol = solve_rbsde(spec, tree)
    a_star, b_star = extract_saddle(sol)
    best_b = np.full((2, 2), -np.inf)
    for b in feedback_strategies(tree, "II", 2, 2):
        best_b = np.maximum(best_b, eval_switched(spec, tree, a_star, b).U[0][0])
    best_a = np.full((2, 2), np.inf)
    for a in feedback_strategies(tree, "I", 2, 2):
        best_a = np.minimum(best_a, eval_switched(spec, tree, a, b_star).U[0][0])
    gap = max(float(np.abs(best_b - sol.root).max()),
              float(np.abs(best_a - sol.root).max()))
    ok = gap <= 1e-9
    assert report_line(9, "exhaustive-saddle", ok,
                       f"max_b = min_a = Y(root) within {gap:.2e}")


def test_criterion_10_loop_validator():
    sym = CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0, 1.0], [1.0, 0.0]])
    detects = not check_loop_costs(sym).ok
    passes = check_loop_costs(standard_costs()).ok \
        and validate_cost_matrices(standard_costs()).ok
    oracle_ok = all(
        enumerate_primary_loops(m1, m2) == closed_walk_loops(m1, m2)
        for m1 in (1, 2, 3) for m2 in (1, 2, 3))
    ok = detects and passes and oracle_ok
    assert report_line(10, "loop-validator", ok,
                       f"zero-loop detected: {detects}, enumeration oracle: {oracle_ok}")


def test_criterion_11_projection_order_independence():
    rng = np.random.default_rng(445566)
    worst = 0.0
    offender = None
    for _ in range(1000):
        m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        costs = admissible_costs(rng, m1, m2)
        y = rng.uniform(-5.0, 5.0, (m1, m2))
        ya, _, _ = project_oblique(y, costs)
        yb = swapped_projection(y, costs)
        gap = float(np.abs(ya - yb).max())
        if gap > worst:
            worst, offender = gap, (y.tolist(), costs.k.tolist(), costs.l.tolist())
    ok = worst <= 1e-9
    assert report_line(11, "projection-order-independence", ok,
                       f"worst disagreement {worst:.2e}"), offender


def test_criterion_12_performance(tmp_path):
    t0 = time.perf_counter()
    result = run(parse_scenario(SCENARIOS / "perf_3x3.json"),
                 out_dir=tmp_path / "perf", seed=0)
    pipeline_s = time.perf_counter() - t0
    pipeline_ok = result.exit_code == 0 and pipeline_s < 120.0

    spec = make_standard()
    t0 = time.perf_counter()
    sol = solve_rbsde(spec, build_tree(20, 1, spec.horizon, recombining=True))
    fast_s = time.perf_counter() - t0
    fast_ok = fast_s < 60.0 and np.isfinite(sol.root).all()
    ok = pipeline_ok and fast_ok
    assert report_line(12, "performance", ok,
                       f"3x3 N=12 pipeline {pipeline_s:.1f}s (exit "
                       f"{result.exit_code}); 2x2 N=20 fast path {fast_s:.2f}s")
