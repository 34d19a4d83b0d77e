"""The penalization route: single and double penalties, contraction sizing,
intensity bounds, and convergence toward the reflected solution.

Note on monotonicity: because the lower-barrier penalty enters the driver
with a positive sign, the comparison principle makes the penalized values
*nondecreasing* in the penalty level on instances with active lower barriers.
The report still records the nonincreasing flag so the direction is visible
per instance.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from switchgame import bsde, build_tree, penalty
from switchgame.errors import ConvergenceError, DataError, SizingError
from switchgame.lattice import carrier
from switchgame.model import (
    CostTables,
    GameSpec,
    GeneratorSpec,
    TerminalSpec,
    check_loop_costs,
    project_oblique,
    validate_cost_matrices,
)
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

from conftest import (
    STANDARD_ALPHA,
    STANDARD_K,
    STANDARD_L,
    STANDARD_T,
    assert_bitwise,
    make_standard,
    sequential_penalized,
    sequential_report,
    standard_costs,
    tensor_lower_intensity,
    time_budget,
)

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
        # (y_ij - y_ij + l(j,j))^- = 0 since l(j,j) = 0; fields are mode-major
        l = np.array(standard_costs().l)
        y = rng.uniform(-3, 3, (4, 2, 2))
        same = lower_penalty_intensity(np.moveaxis(y, 0, -1), np.zeros_like(l), 1)
        by_hand = np.maximum(-(y[..., :, :, None] - y[..., :, None, :]), 0.0)
        np.testing.assert_allclose(same, np.moveaxis(by_hand.sum(axis=-1), 0, -1))

    def test_intensities_are_nonnegative(self, rng):
        y = rng.uniform(-3, 3, (2, 2, 8))
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


# levels that are not positive integers: before they were refused, n = -3
# solved the standard game at N = 4 without complaint (root [-0.536, 0.42,
# -1.536, 0.88]), and n = NaN ended in a ConvergenceError
NOT_POSITIVE_INTEGERS = [-3, 0, 2.0, 2.5, np.nan, True, np.float64(4.0), "4"]


class TestLevelsArePositiveIntegers:
    @pytest.mark.parametrize("bad", NOT_POSITIVE_INTEGERS, ids=repr)
    def test_solve_penalized(self, standard_spec, bad):
        tree = build_tree(4, 1, standard_spec.horizon)
        with pytest.raises(DataError, match=r"^n must be a positive integer; got "):
            solve_penalized(standard_spec, tree, bad)
        np.testing.assert_array_equal(solve_penalized(standard_spec, tree, np.int64(4)).root,
                                      solve_penalized(standard_spec, tree, 4).root)

    @pytest.mark.parametrize("bad", NOT_POSITIVE_INTEGERS, ids=repr)
    @pytest.mark.parametrize("name", ["n", "m"])
    def test_solve_double_penalized(self, standard_spec, name, bad):
        tree = build_tree(4, 1, standard_spec.horizon)
        with pytest.raises(DataError, match=rf"^{name} must be a positive integer; got "):
            solve_double_penalized(standard_spec, tree, **{"n": 2, "m": 2, name: bad})
        numpy_level = solve_double_penalized(standard_spec, tree,
                                             **{"n": 2, "m": 2, name: np.int32(2)})
        np.testing.assert_array_equal(numpy_level.root,
                                      solve_double_penalized(standard_spec, tree, 2, 2).root)

    @pytest.mark.parametrize("bad", NOT_POSITIVE_INTEGERS, ids=repr)
    def test_penalization_report(self, standard_spec, bad):
        tree = build_tree(4, 1, standard_spec.horizon)
        with pytest.raises(DataError, match=r"^each entry of n_list must be a positive integer"):
            penalization_report(standard_spec, tree, [1, bad])
        rows = penalization_report(standard_spec, tree, np.array([2, 1])).rows
        assert [row.n for row in rows] == [1, 2]


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
        xi = spec.check_terminal(tree)
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

    def test_intensity_is_computed_on_first_read_only(self, standard_spec, monkeypatch):
        # the backward pass calls the intensity inside the driver only; beta
        # is filled on its first read, with the values the solve used to
        # compute eagerly, and cached
        calls = []
        intensity = penalty.lower_penalty_intensity
        monkeypatch.setattr(penalty, "lower_penalty_intensity",
                            lambda *args: calls.append(1) or intensity(*args))
        at_return = []      # intensity calls made when the backward pass returned
        backward = bsde.backward

        def counted_backward(*args, **kwargs):
            out = backward(*args, **kwargs)
            at_return.append(len(calls))
            return out

        monkeypatch.setattr(bsde, "backward", counted_backward)
        tree = build_tree(8, 1, standard_spec.horizon)
        sol = solve_penalized(standard_spec, tree, 8)
        assert len(calls) == at_return[0] > 0
        assert not hasattr(sol, "Z")
        eager = [np.moveaxis(intensity(np.moveaxis(y, 0, -1), standard_spec.costs.l, 8), -1, 0)
                 for y in sol.Y]
        beta = sol.beta
        assert len(calls) == at_return[0] + tree.N + 1
        for b, e in zip(beta, eager):
            np.testing.assert_array_equal(b.view(np.uint64), e.view(np.uint64))
        assert sol.beta is beta and len(calls) == at_return[0] + tree.N + 1

    def test_double_penalty_intensities_are_computed_on_first_read(self, standard_spec):
        tree = build_tree(6, 1, standard_spec.horizon)
        sol = solve_double_penalized(standard_spec, tree, 4, 4)
        assert not hasattr(sol, "Z") and not {"alpha", "beta"} & vars(sol).keys()
        costs = standard_spec.costs
        Ym = [np.moveaxis(y, 0, -1) for y in sol.Y]
        for got, want in [(sol.alpha, [upper_penalty_intensity(y, costs.k, 4) for y in Ym]),
                          (sol.beta, [lower_penalty_intensity(y, costs.l, 4) for y in Ym])]:
            for g, w in zip(got, want, strict=True):
                assert_bitwise(np.moveaxis(g, 0, -1), w)

    def test_gap_shrinks_along_the_sweep(self, standard_run):
        _, _, _, report = standard_run
        gaps = report.gaps()
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("N,scale,recombining", [(5, 1.0, False), (4, 2.0, False),
                                                     (4, 1.0, True)])
    def test_direct_solution_on_another_tree_is_refused(self, standard_spec, N, scale,
                                                        recombining):
        T = standard_spec.horizon
        direct = solve_rbsde(standard_spec, build_tree(4, 1, T))
        other = build_tree(N, 1, scale * T, recombining=recombining)
        message = (f"the direct solution is on the tree (N=4, d=1, horizon={T!r}, "
                   f"recombining=False), not on the report's tree (N={N}, d=1, "
                   f"horizon={scale * T!r}, recombining={recombining})")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            penalization_report(standard_spec, other, [1, 2], direct=direct)
        # a tree of the same shape, built on its own, is the same tree
        gaps = penalization_report(standard_spec, build_tree(4, 1, T), [1, 2],
                                   direct=direct).gaps()
        assert gaps == penalization_report(standard_spec, direct.tree, [1, 2],
                                           direct=direct).gaps()

    @pytest.mark.parametrize("other,parts", [
        (lambda spec: make_standard(driver="zero"), "generator"),
        (lambda spec: make_standard(T=2 * spec.horizon), "horizon"),
        (lambda spec: dataclasses.replace(
            spec, costs=CostTables(k=spec.costs.k, l=spec.costs.l * 2.0),
            terminal=TerminalSpec("constant", 2, 2, alpha=np.zeros((2, 2)))),
         "cost tables, terminal"),
    ], ids=["generator", "horizon", "costs_and_terminal"])
    def test_direct_solution_of_another_game_is_refused(self, standard_spec, other, parts):
        # the zero-driver game's direct solve read as the standard game's gave
        # gaps [0.48, 0.48] in place of [0.832, 0.729], without an error.  The
        # report takes the other game: no solver takes a game whose horizon
        # is not its tree's, so only a report can be handed that mismatch
        tree = build_tree(4, 1, standard_spec.horizon)
        direct = solve_rbsde(standard_spec, tree)
        message = ("the direct solution solves another game: it differs from the report's "
                   f"in its {parts}")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            penalization_report(other(standard_spec), tree, [1, 2], direct=direct)
        # a game equal in content, built on its own, is the same game
        gaps = penalization_report(make_standard(), tree, [1, 2],
                                   direct=solve_rbsde(standard_spec, tree)).gaps()
        np.testing.assert_allclose(gaps, [0.832, 0.729], atol=5e-4)


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

    def test_convergence_error_names_the_penalty_level(self):
        # dt * (C + n + m) = 0.9999 with n = m = 1: the driver alone contracts
        # at rate dt * |a| = 0.9979 and stops at the iteration cap on the
        # first level, in a message that names its level as a sweep's does
        gen = GeneratorSpec("saturated_affine", 2, 2, a=-997.9, M=10.0)
        term = TerminalSpec("constant", 2, 2, alpha=STANDARD_ALPHA)
        spec = GameSpec(standard_costs(), gen, term, horizon=1.0)
        tree = build_tree(1000, 1, 1.0, recombining=True)
        with time_budget(20):
            with pytest.raises(ConvergenceError,
                               match=r"^tree level 999: penalty level 1: .*did not converge"):
                solve_double_penalized(spec, tree, 1, 1)

    def test_alpha_uniformly_bounded_in_m(self, standard_spec):
        tree = build_tree(8, 1, standard_spec.horizon)
        maxima = []
        for m in (2, 4, 8, 16):
            sol = solve_double_penalized(standard_spec, tree, 2, m)
            maxima.append(max(float(a.max()) for a in sol.alpha))
        # recorded bound: the intensities do not blow up as m grows
        assert max(maxima) < 10.0 * max(maxima[0], 1.0)


def refine_instance(seed=0):
    """The refinement ladder's instance, drawn as its workload draws it:
    standard costs and alpha, a uniform beta and a saturated-affine driver."""
    rng = np.random.default_rng([seed, 2])
    beta = np.full((2, 2), rng.uniform(0.8, 1.2))
    c0 = rng.uniform(1.0, 2.0)
    gen = GeneratorSpec("saturated_affine", 2, 2, a=rng.uniform(0.3, 0.7),
                        b=[rng.uniform(0.1, 0.4)], M=1.0, c=[[c0, -c0], [-c0, c0]])
    term = TerminalSpec("affine", 2, 2, alpha=STANDARD_ALPHA, beta=beta)
    return GameSpec(CostTables(k=STANDARD_K, l=STANDARD_L), gen, term, horizon=STANDARD_T)


def sweep_instance(rng, family, m1, m2, d, T):
    """A random valid m1 x m2 instance with a Markovian terminal in the region
    at every leaf (affine, uniform beta) and a `family` driver.  Off-diagonal
    costs in [1, 1.5] meet every triangle inequality."""
    while True:
        k, l = rng.uniform(1.0, 1.5, (m1, m1)), rng.uniform(1.0, 1.5, (m2, m2))
        np.fill_diagonal(k, 0.0)
        np.fill_diagonal(l, 0.0)
        costs = CostTables(k=k, l=l)
        if validate_cost_matrices(costs).ok and check_loop_costs(costs).ok:
            break
    alpha = project_oblique(rng.uniform(-2.0, 2.0, (m1, m2)), costs)[0]
    term = TerminalSpec("affine", m1, m2, alpha=alpha, beta=np.full((m1, m2), 0.6))
    c = rng.uniform(-2.0, 2.0, (m1, m2))
    gen = {"zero": lambda: GeneratorSpec("zero", m1, m2, d=d),
           "mode_constant": lambda: GeneratorSpec("mode_constant", m1, m2, d=d, c=c),
           "saturated_affine": lambda: GeneratorSpec(
               "saturated_affine", m1, m2, d=d, c=c, a=-0.7, b=rng.uniform(-0.5, 0.5, d),
               M=0.8)}[family]()
    return GameSpec(costs, gen, term, horizon=T, d=d)


def sweep_levels(tree, spec):
    """Two or three distinct levels, the last with half the largest level
    that contracts (a Picard rate of about 1/2)."""
    top = 40 if spec.m2 == 1 else max_penalty_level(tree, spec)
    return sorted({1, max(top // 8, 1), max(top // 2, 1)})


# every mode grid with m1, m2 <= 3, and the widest Player-II grid whose loop
# enumeration a test can afford: 1 x 8, past NumPy's eight-term pairwise sum
GRIDS = [(m1, m2) for m1 in (1, 2, 3) for m2 in (1, 2, 3)] + [(1, 8)]
FAMILIES = ("zero", "mode_constant", "saturated_affine")
CARRIERS = [(False, 1, 5), (False, 2, 3), (True, 1, 24), (True, 2, 8)]  # (recombining, d, N)


class TestSweep:
    """One backward pass for every level of a sweep, against the level-by-level
    oracle of `conftest`: bit for bit, the same Picard iterations per level,
    a bounded memory peak, and failures that name the level."""

    @pytest.mark.parametrize("recombining,d,N", CARRIERS)
    @pytest.mark.parametrize("m1,m2", GRIDS)
    def test_sweep_equals_separate_solves_bit_for_bit(self, recombining, d, N, m1, m2):
        seed = GRIDS.index((m1, m2)) * len(CARRIERS) + CARRIERS.index((recombining, d, N))
        rng = np.random.default_rng(seed)
        family = FAMILIES[seed % 3]
        tree = build_tree(N, d, 0.01 * N, recombining=recombining)
        spec = sweep_instance(rng, family, m1, m2, d, tree.T)
        levels = sweep_levels(tree, spec)
        direct = solve_rbsde(spec, tree)
        rows = penalization_report(spec, tree, levels, direct=direct).rows
        want = sequential_report(spec, tree, levels, direct=direct)
        assert len(rows) == len(want) >= 2
        for got, row in zip(rows, want):
            assert (got.n, got.monotone_ok, got.penalty_bound) == (row.n, row.monotone_ok,
                                                                   row.penalty_bound)
            np.testing.assert_array_equal(got.root.view(np.uint64), row.root.view(np.uint64))
            for name in ("monotone_worst", "penalty_stat", "gap"):
                assert repr(getattr(got, name)) == repr(getattr(row, name)), name
        sol = solve_penalized(spec, tree, levels[-1])
        Y, dK = sequential_penalized(spec, tree, levels[-1])
        for got, want in zip(sol.Y + sol.dK, Y + dK, strict=True):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("m2", [1, 2, 3, 5, 7, 8, 9, 12])
    def test_intensity_equals_the_tensor_sum(self, rng, m2):
        # per problem n on a stack, a trailing run of it, and a scalar n;
        # exact ties y_j' - y_j = l with mode 0 and without it, equal
        # columns, signed zeros
        l = rng.uniform(1.0, 1.5, (m2, m2))
        np.fill_diagonal(l, 0.0)
        y = rng.normal(size=(40, 3, 2, m2)) * 10.0 ** rng.integers(-3, 3, (40, 3, 2, m2))
        y[::5, ..., 0] = y[::5, ..., -1] + l[-1, 0]
        y[1::5, ..., -1] = y[1::5, ..., 0]
        y[2::5, ..., ::2] = -0.0
        y[3::5, ..., -1] = y[3::5, ..., min(1, m2 - 1)] + l[min(1, m2 - 1), -1]
        # the intensity reads mode-major fields: problems first, nodes last
        n = np.array([1.0, 7.0, 416.0])[:, None, None]
        field = np.moveaxis(y, 0, -1)
        got = lower_penalty_intensity(field, l, n[..., None])
        want = np.moveaxis(np.stack([tensor_lower_intensity(y[:, s], l, n[s])
                                     for s in range(3)], axis=1), 0, -1)
        assert_bitwise(got, want)
        assert_bitwise(lower_penalty_intensity(field[1:], l, n[1:, ..., None]), want[1:])
        assert_bitwise(lower_penalty_intensity(field[1], l, 7), want[1])

    @pytest.mark.parametrize("recombining,N", [(False, 8), (True, 100)])
    def test_each_level_takes_the_iterations_of_its_own_solve(self, monkeypatch,
                                                              recombining, N):
        spec = refine_instance()
        tree = build_tree(N, 1, spec.horizon, recombining=recombining)
        levels = [1, 8, 3 * max_penalty_level(tree, spec) // 4]
        # both passes count per tree level, told apart by its size: on `tree`
        # alone, on the carrier of its distinct nodes (the path tree's) stacked
        run = carrier(tree, spec.terminal.markovian)
        level_of = [{on.level_size(t): t for t in range(N + 1)} for on in (tree, run)]
        assert all(len(sizes) == N + 1 for sizes in level_of)
        alone = {}
        for n in levels:
            sequential_penalized(spec, tree, n, counts=alone)
        alone = {(level_of[0][size], n): count for (size, n), count in alone.items()}
        stacked = {}
        intensity = penalty.lower_penalty_intensity

        def counted(y, l, n):
            # y is (S, m1, m2, n_t): problems on axis 0, one level of n each
            assert y.ndim == 4 and np.size(n) in (1, y.shape[0])
            for level in np.ravel(n):
                key = (level_of[1][y.shape[-1]], int(level))
                stacked[key] = stacked.get(key, 0) + 1
            return intensity(y, l, n)

        monkeypatch.setattr(penalty, "lower_penalty_intensity", counted)
        penalization_report(spec, tree, levels)
        assert stacked == alone
        assert len({alone[(0, n)] for n in levels}) == len(levels)   # they differ

    def test_sweep_keeps_less_than_two_full_solutions(self):
        spec = refine_instance()
        tree = build_tree(200, 1, spec.horizon, recombining=True)
        levels = [2 ** e for e in range(9)]
        direct = solve_rbsde(spec, tree)
        full = sum(y.nbytes for y in solve_penalized(spec, tree, levels[-1]).Y)
        tracemalloc.start()
        try:
            penalization_report(spec, tree, levels, direct=direct)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * full, (peak, full)

    @pytest.mark.parametrize("levels,named", [([1, 2, 10 ** 6], 10 ** 6),
                                              ([1, 10 ** 5, 10 ** 6], 10 ** 5)])
    def test_sweep_refuses_a_failing_level_before_any_picard_call(self, monkeypatch,
                                                                  standard_spec, levels, named):
        calls = []
        solve = bsde.picard_solve
        monkeypatch.setattr(bsde, "picard_solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
        tree = build_tree(8, 1, standard_spec.horizon)
        with pytest.raises(SizingError, match=f"penalty level {named};"):
            penalization_report(standard_spec, tree, levels)
        assert calls == []

    def test_convergence_error_names_the_penalty_level(self):
        # max_penalty_level is a contraction bound: at N=100 its level, 416,
        # has rate 0.9992 and stops at the iteration cap on the first level
        spec = refine_instance()
        tree = build_tree(100, 1, spec.horizon, recombining=True)
        assert max_penalty_level(tree, spec) == 416
        with time_budget(20):
            with pytest.raises(ConvergenceError,
                               match=r"tree level 99: penalty level 416: .*did not converge"):
                penalization_report(spec, tree, [1, 416])


class TestOnePostContract:
    """The sweep hands the kernel its caller's ``post(t, y, z)`` as it is, and
    only a clamping post reads the upper barrier, once per tree level."""

    def test_the_sweep_passes_its_post_to_the_kernel(self, monkeypatch, standard_spec,
                                                     standard_tree_n8):
        posts = []
        backward = bsde.backward
        monkeypatch.setattr(bsde, "backward",
                            lambda tree, xi, driver, post, **k: posts.append(post)
                            or backward(tree, xi, driver, post, **k))

        def post(t, y, z):
            return (y,)

        penalty._sweep(standard_spec, standard_tree_n8, [2], post)
        assert posts == [post]

    @pytest.mark.parametrize("solve,calls", [
        (lambda spec, tree: solve_double_penalized(spec, tree, 2, 2), 0),
        (lambda spec, tree: solve_penalized(spec, tree, 2), 8),
        (lambda spec, tree: penalization_report(spec, tree, [1, 2, 4]), 8),
    ], ids=["double", "penalized", "report"])
    def test_upper_barrier_calls_per_solve(self, monkeypatch, standard_spec, standard_tree_n8,
                                           solve, calls):
        # each clamp reads the barrier of its own y once per tree level (8 on
        # this tree), and the double penalty, which clamps nothing, reads none
        seen = []
        upper = penalty._upper
        monkeypatch.setattr(penalty, "_upper", lambda y, costs: seen.append(1) or upper(y, costs))
        solve(standard_spec, standard_tree_n8)
        assert len(seen) == calls
