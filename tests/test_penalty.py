"""The penalization route: single and double penalties, contraction sizing,
intensity bounds, and convergence toward the reflected solution.

Note on monotonicity: because the lower-barrier penalty enters the driver
with a positive sign, the comparison principle makes the penalized values
*nondecreasing* in the penalty level on instances with active lower barriers.
The report still records the nonincreasing flag so the direction is visible
per instance.
"""

import re

import numpy as np
import pytest

from switchgame import build_tree, penalty
from switchgame.errors import SizingError
from switchgame.model import CostTables, GameSpec, GeneratorSpec, TerminalSpec
from switchgame.penalty import (
    _largest_level,
    lower_penalty_intensity,
    max_penalty_level,
    penalization_report,
    penalty_rate,
    solve_double_penalized,
    solve_penalized,
    upper_penalty_intensity,
)
from switchgame.reflected import solve_rbsde

from conftest import make_standard, standard_costs, time_budget

N_LIST = [1, 2, 4, 8, 16, 32]


@pytest.fixture(scope="module")
def standard_run():
    spec = make_standard()
    tree = build_tree(8, 1, spec.horizon)
    direct = solve_rbsde(spec, tree)
    report = penalization_report(spec, tree, N_LIST, direct=direct)
    return spec, tree, direct, report


class TestPenaltyTerms:
    def test_diagonal_terms_vanish_identically(self, rng):
        # (y_ij - y_ij + l(j,j))^- = 0 since l(j,j) = 0
        l = np.array(standard_costs().l)
        y = rng.uniform(-3, 3, (4, 2, 2))
        same = lower_penalty_intensity(y, np.zeros_like(l), 1)
        by_hand = np.maximum(-(y[..., :, :, None] - y[..., :, None, :]), 0.0)
        np.testing.assert_allclose(same, by_hand.sum(axis=-1))

    def test_intensities_are_nonnegative(self, rng):
        y = rng.uniform(-3, 3, (8, 2, 2))
        assert lower_penalty_intensity(y, np.array(standard_costs().l), 3).min() >= 0.0
        assert upper_penalty_intensity(y, np.array(standard_costs().k), 3).min() >= 0.0

    def test_penalty_rate_refinement(self):
        # two Player-II modes: only one direction of the single pair can be
        # active, so the contraction rate is n, not 2n
        assert penalty_rate(5, 2) == 5.0
        assert penalty_rate(5, 3) == 20.0
        assert penalty_rate(0, 2) == 0.0


class TestSizing:
    def test_max_penalty_level_brackets_the_bound(self, standard_spec):
        tree = build_tree(8, 1, standard_spec.horizon)
        n_max = max_penalty_level(tree, standard_spec)
        C = standard_spec.generator.lipschitz
        assert tree.dt * (C + penalty_rate(n_max, 2)) < 1.0
        assert tree.dt * (C + penalty_rate(n_max + 1, 2)) >= 1.0

    def test_closed_form_matches_the_linear_search(self):
        # the search this closed form replaced, for m2 >= 2 where it ends
        def linear(tree, m2, lip):
            n = 0
            while tree.dt * (lip + penalty_rate(n + 1, m2)) < 1.0:
                n += 1
            return n

        class Spec:
            def __init__(self, m2):
                self.m2 = m2

        trees = [build_tree(N, 1, T) for N in (1, 2, 3, 4, 7, 8, 12, 16)
                 for T in (0.24, 0.5, 1.0, 3.0)]
        trees += [build_tree(N, 1, 0.24, recombining=True) for N in (100, 200, 400)]
        lips = (0.0, 0.1, 0.3, 0.55, 0.7, 1.0, 1.5, 2.0, 4.0, 1 / 3, 25.0, 1e3)
        boundary = 0
        for tree in trees:
            for m2 in (2, 3, 4):
                for lip in lips:
                    n = _largest_level(tree, Spec(m2), lip)
                    assert n == linear(tree, m2, lip)
                    boundary += tree.dt * (lip + penalty_rate(n + 1, m2)) == 1.0
        assert boundary > 0   # some cases sit exactly on the float boundary

    def test_single_player_II_mode_raises_instead_of_looping(self):
        # penalty_rate(n, 1) is 0: the lower penalty vanishes and every level
        # contracts, so there is no largest one.  The alarm bounds a hang.
        spec = GameSpec(CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0]]),
                        GeneratorSpec("zero", 2, 1),
                        TerminalSpec("constant", 2, 1, alpha=[[0.1], [0.0]]),
                        horizon=1.0)
        tree = build_tree(4, 1, 1.0)
        with time_budget(5):
            with pytest.raises(SizingError, match="lower penalty vanishes"):
                max_penalty_level(tree, spec)
            # a driver that breaks the contraction alone leaves no usable level
            assert _largest_level(tree, spec, 4.0) == 0

    def test_contraction_violation_reports_usable_level(self, standard_spec):
        tree = build_tree(2, 1, standard_spec.horizon)
        with pytest.raises(SizingError, match="largest usable n"):
            solve_penalized(standard_spec, tree, 10 ** 6)

    def test_double_penalty_contraction_violation(self, standard_spec):
        # the upper penalty alone breaks the contraction: no n is usable
        tree = build_tree(2, 1, standard_spec.horizon)
        with pytest.raises(SizingError, match="no n is usable.*refine the tree"):
            solve_double_penalized(standard_spec, tree, 4, 10 ** 6)

    def test_double_penalty_names_the_largest_level_usable_at_m(self, standard_spec):
        tree = build_tree(2, 1, standard_spec.horizon)
        with pytest.raises(SizingError, match="largest usable n") as info:
            solve_double_penalized(standard_spec, tree, 10 ** 6, 2)
        n = int(re.search(r"largest usable n on this tree is (\d+)", str(info.value))[1])
        assert n < max_penalty_level(tree, standard_spec)
        solve_double_penalized(standard_spec, tree, n, 2)
        with pytest.raises(SizingError, match="refine the tree"):
            solve_double_penalized(standard_spec, tree, n + 1, 2)


class TestSinglePenalty:
    def test_inactive_penalty_matches_direct(self):
        # interior constant terminal, zero driver: no barrier ever binds, so
        # every penalty level reproduces the reflected solution exactly
        spec = GameSpec(
            costs=standard_costs(),
            generator=GeneratorSpec("zero", 2, 2),
            terminal=TerminalSpec("constant", 2, 2, alpha=[[0.1, 0.2], [0.0, 0.1]]),
            horizon=1.0,
        )
        tree = build_tree(5, 1, 1.0)
        direct = solve_rbsde(spec, tree)
        for n in (1, 2, 4):
            sol = solve_penalized(spec, tree, n)
            for t in range(6):
                np.testing.assert_allclose(sol.Y[t], direct.Y[t], atol=1e-9)
                assert sol.beta[t].max() == 0.0

    def test_values_nondecreasing_in_n(self, standard_run):
        spec, tree, _, _ = standard_run
        prev = None
        for n in (1, 2, 4, 8):
            sol = solve_penalized(spec, tree, n)
            if prev is not None:
                for y, p in zip(sol.Y, prev):
                    assert float((p - y).max()) <= 1e-10
            prev = sol.Y

    def test_penalty_stat_bound(self, standard_run):
        spec, _, _, report = standard_run
        bound = 2.0 * spec.generator.sup_bound
        for row in report.rows:
            assert row.penalty_stat <= bound + 1e-9
            assert row.penalty_bound == bound

    def test_zero_driver_penalty_stat_vanishes_in_the_limit(self):
        spec = make_standard(driver="zero")
        tree = build_tree(10, 1, spec.horizon)
        report = penalization_report(spec, tree, [4, 16])
        # bound is 0: with no driver the lower barriers never activate, so
        # any visible statistic at finite n would be a flag
        for row in report.rows:
            assert row.penalty_stat < 1e-9

    def test_a_priori_bounds(self, standard_run):
        spec, tree, _, _ = standard_run
        xi = spec.check_terminal(tree.leaf_w)
        hi = np.abs(xi).max() + 3.0 * spec.generator.sup_bound * spec.horizon + 1e-9
        lo = -np.abs(xi).max() - spec.generator.sup_bound * spec.horizon - 1e-9
        for n in (1, 8, 32):
            sol = solve_penalized(spec, tree, n)
            for y in sol.Y:
                assert y.max() <= hi and y.min() >= lo

    def test_upper_pushes_sit_on_the_upper_barrier(self, standard_run):
        spec, tree, _, _ = standard_run
        from switchgame.model import upper_barrier
        sol = solve_penalized(spec, tree, 8)
        for t in range(tree.N):
            on = sol.dK[t] > 1e-9
            if on.any():
                gap = np.abs(sol.Y[t] - upper_barrier(sol.Y[t], spec.costs))
                assert gap[on].max() < 1e-8

    def test_solution_keeps_no_cumulants(self, standard_spec):
        # the push cumulants had no reader; a penalized solution keeps the
        # increments and intensities only
        sol = solve_penalized(standard_spec, build_tree(3, 1, standard_spec.horizon), 2)
        assert not hasattr(sol, "K") and not hasattr(sol, "L")
        assert not hasattr(penalty, "_accumulate")

    def test_gap_shrinks_along_the_sweep(self, standard_run):
        _, _, _, report = standard_run
        gaps = report.gaps()
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


class TestDoublePenalty:
    def test_converges_to_single_penalty_in_m(self, standard_spec):
        tree = build_tree(8, 1, standard_spec.horizon)
        target = solve_penalized(standard_spec, tree, 4)
        gaps = []
        for m in (4, 8, 16):
            sol = solve_double_penalized(standard_spec, tree, 4, m)
            gaps.append(max(float(np.abs(y - yt).max())
                            for y, yt in zip(sol.Y, target.Y)))
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        # roughly O(1/m) decay: quadrupling m should at least halve the gap
        assert gaps[-1] <= 0.55 * gaps[0]

    def test_inactive_upper_penalty_matches_plain_penalized_solve(self):
        spec = GameSpec(
            costs=standard_costs(),
            generator=GeneratorSpec("zero", 2, 2),
            terminal=TerminalSpec("constant", 2, 2, alpha=[[0.1, 0.2], [0.0, 0.1]]),
            horizon=1.0,
        )
        tree = build_tree(5, 1, 1.0)
        sol = solve_double_penalized(spec, tree, 2, 2)
        for a in sol.alpha:
            assert a.max() == 0.0
        single = solve_penalized(spec, tree, 2)
        for y, ys in zip(sol.Y, single.Y):
            np.testing.assert_allclose(y, ys, atol=1e-9)

    def test_alpha_uniformly_bounded_in_m(self, standard_spec):
        tree = build_tree(8, 1, standard_spec.horizon)
        maxima = []
        for m in (2, 4, 8, 16):
            sol = solve_double_penalized(standard_spec, tree, 2, m)
            maxima.append(max(float(a.max()) for a in sol.alpha))
        # recorded bound: the intensities do not blow up as m grows
        assert max(maxima) < 10.0 * max(maxima[0], 1.0)
