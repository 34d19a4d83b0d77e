"""The implicit backward-induction kernel: fixed-point steps, closed-form
checks, the contraction guard, residuals, comparison, and a priori bounds;
the level form and the problem-first layout against the per-iterate oracle."""

import warnings

import numpy as np
import pytest

from switchgame import bsde, build_tree, penalty
from switchgame.bsde import (
    DriverFn,
    backward,
    check_contraction,
    picard_solve,
    solve_system,
)
from switchgame.errors import ConvergenceError, SizingError
from switchgame.model import GameSpec, GeneratorSpec, TerminalSpec, project_oblique, upper_barrier
from switchgame.penalty import max_penalty_level

from conftest import (
    assert_bitwise,
    fieldwise_generator,
    iterate_backward,
    iterate_picard_solve,
    make_3x3,
    sequential_penalized,
    standard_costs,
    tensor_lower_intensity,
)


def zero_driver():
    return DriverFn(lambda t, w, y, z: np.zeros_like(y), 0.0)


def last_step(tree, nxt, driver):
    """Level N-1 of the kernel from node-first leaf values `nxt` with the
    identity post-step: (y, z), node-first."""
    Y, Z = solve_system(tree, driver, nxt)
    t = tree.N - 1
    return Y[t], Z[t]


class TestStep:
    def test_zero_driver_reduces_to_expectation(self, rng):
        tree = build_tree(2, 1, 1.0)
        nxt = rng.normal(size=(4, 2, 2))
        driver = zero_driver()
        y, z = last_step(tree, nxt, driver)
        E = tree.expect_next(1, nxt)
        np.testing.assert_allclose(y, E, atol=1e-15)
        np.testing.assert_allclose(z, tree.z_next(1, nxt), atol=1e-15)
        # the same level's Picard solve, called directly, stops at once
        direct, iters = picard_solve(
            E, lambda y: tree.dt * driver(tree.time(1), tree.level_w(1), y, z))
        assert iters <= 2
        np.testing.assert_array_equal(direct, y)

    def test_constant_driver(self, rng):
        # dt = 0.5, psi = c  ->  y = E[next] + 0.5 c
        tree = build_tree(2, 1, 1.0)
        c = 1.3
        driver = DriverFn(lambda t, w, y, z: np.full_like(y, c), 0.0)
        nxt = rng.normal(size=(4, 1, 1))
        y, _ = last_step(tree, nxt, driver)
        np.testing.assert_allclose(y, tree.expect_next(1, nxt) + 0.5 * c, atol=1e-14)

    def test_linear_driver_has_closed_form(self, rng):
        # psi = -y with dt = 0.5: the implicit equation y = E - 0.5 y gives
        # y = E / 1.5
        tree = build_tree(2, 1, 1.0)
        gen = GeneratorSpec("saturated_affine", 1, 1, a=-1.0, M=1e9)
        assert gen.lipschitz == 1.0
        nxt = rng.normal(size=(4, 1, 1))
        y, _ = last_step(tree, nxt, gen)
        np.testing.assert_allclose(y, tree.expect_next(1, nxt) / 1.5, atol=1e-11)

    def test_single_node_values(self, rng):
        # node 1 of level 1 has the leaves 2 (down) and 3 (up) as its children
        tree = build_tree(2, 1, 1.0)
        nxt = rng.normal(size=(4, 1, 1))
        Y, Z = solve_system(tree, zero_driver(), nxt)
        assert Y[1][1] == pytest.approx(nxt[2:4].mean())
        assert Z[1][1].shape == (1, 1, 1)
        up, down = nxt[3, 0, 0], nxt[2, 0, 0]
        assert Z[1][1, 0, 0, 0] == pytest.approx((up - down) / (2 * np.sqrt(tree.dt)))

    def test_kernel_keeps_only_what_the_step_returns(self, rng):
        tree = build_tree(3, 1, 1.0)
        xi = rng.normal(size=(8, 2, 2))
        seen, driven = [], []

        def fn(t, w, y, z):
            driven.append((t, w.shape, y.shape, z.shape))
            return np.zeros_like(y)

        def post(t, y, z):
            seen.append((t, y.shape, z.shape))
            return (y,)

        out = backward(tree, xi, DriverFn(fn, 0.0), post)
        assert len(out) == 1 and len(out[0]) == 4 and out[0][3] is xi
        # the driver sees each level's time and W-states and node-first
        # fields; post sees (t, y, z) for t = N-1..0, stored mode-major
        assert list(dict.fromkeys(driven)) == [
            (t / 3, (2 ** t, 1), (2 ** t, 2, 2), (2 ** t, 1, 2, 2)) for t in (2, 1, 0)]
        assert seen == [(t, (2, 2, 2 ** t), (1, 2, 2, 2 ** t)) for t in (2, 1, 0)]
        np.testing.assert_allclose(out[0][0][0], xi.mean(axis=0), atol=1e-15)
        with pytest.raises(SizingError, match="refine the tree"):
            backward(tree, xi, DriverFn(fn, 3.0), post)

    def test_contraction_guard(self):
        with pytest.raises(SizingError, match="refine the tree"):
            check_contraction(0.5, 2.0)
        check_contraction(0.5, 1.9)  # strict inequality is enough

    @pytest.mark.parametrize("dt,lip,factor", [(0.5, 3.0, 2), (0.5, 2.0, 2), (1.0, 2.5, 3),
                                               (0.25, 16.0, 5)])
    def test_contraction_guard_names_the_smallest_refinement(self, dt, lip, factor):
        # dt*C / factor < 1 holds, and it fails one factor lower
        assert dt * lip / factor < 1.0 <= dt * lip / (factor - 1)
        with pytest.raises(SizingError, match=f"by a factor of at least {factor}$"):
            check_contraction(dt, lip)

    def test_picard_divergence_is_reported(self):
        E = np.zeros(1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            picard_solve(E, lambda y: y + 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_iterate_stops_at_once(self, bad):
        calls = []

        def update(y):
            calls.append(1)
            return np.where(np.arange(y.size) == 1, bad, 0.0)

        with pytest.raises(ConvergenceError, match="iterate 1 holds a non-finite value"):
            picard_solve(np.zeros(3), update)
        assert len(calls) == 1

    def test_an_overflowing_step_is_non_finite(self):
        # finite E and update whose sum overflows, as a value and as a function
        E = np.array([[1.0, 2.0], [0.0, 1e308]])
        for update in (np.full(2, 1e308), lambda y: np.full_like(y, 1e308)):
            with pytest.raises(ConvergenceError,
                               match=r"^Picard iterate 1 holds a non-finite value \(update inf\)$"), \
                    np.errstate(over="ignore"):
                picard_solve(E[1], update)
            with pytest.raises(ConvergenceError,
                               match=r"^second: Picard iterate 1 holds a non-finite value"), \
                    np.errstate(over="ignore"):
                picard_solve(E, update, problems=["first", "second"])
        # finite values whose sum overflows are no failure, and warn of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, its = picard_solve(np.full((2, 3), 1e308), np.zeros(3), problems=["a", "b"])
        assert its == 2 and (y == 1e308).all()

    def test_non_finite_driver_names_the_tree_level(self):
        # NaN only at level 1 (time 1/3): levels 2 and 1 are reached, 0 is not
        tree = build_tree(3, 1, 1.0)
        times = []

        def fn(t, w, y, z):
            times.append(t)
            return np.full_like(y, np.nan) if abs(t - 1 / 3) < 1e-12 else np.zeros_like(y)

        with pytest.raises(ConvergenceError, match=r"tree level 1: .*non-finite"):
            solve_system(tree, DriverFn(fn, 0.0), np.zeros((8, 2, 2)))
        assert times.count(times[-1]) == 1 and min(times) > 0.3


def run_of(a, y):
    """The entries of `a` for the problems of a level form's y: the trailing
    run of the stack, ``a[len(a) - len(y):]``."""
    return a[len(a) - len(y):]


def rated(E, rates):
    """(stacked level form of y <- E + r * sin(y), which contracts at rate r,
    the run length of every call, and each problem's solo pass (y, its))."""
    runs = []

    def update(y):
        runs.append(len(y))
        return run_of(rates, y)[:, None, None, None] * np.sin(y)

    alone = [picard_solve(E[s], lambda v, r=rates[s]: r * np.sin(v)) for s in range(len(E))]
    return update, runs, alone


def on_axis_1(update):
    """A stacked level form on axis 0 as the per-iterate oracle's
    ``update(live)`` on axis 1, while the last problem is live: the oracle
    drops finished problems, here filled in as NaN."""
    def oracle(live):
        def step(y):
            full = np.full((live[-1] + 1,) + np.moveaxis(y, 1, 0).shape[1:], np.nan)
            full[live] = np.moveaxis(y, 1, 0)
            return np.moveaxis(update(full[live[0]:])[live - live[0]], 0, 1)
        return step
    return oracle


class TestStackedProblems:
    """Several problems on one tree, stacked problem-first in the kernel's
    fields, (S, m1, m2, n_t), and after the node axis in its node-first views.
    The level form takes the trailing run of problems still live."""

    def test_each_problem_stops_where_it_would_alone(self, rng):
        # the problems need different iteration counts and leave the run one
        # by one, lowest rate first
        E = rng.normal(size=(3, 5, 2, 2))
        update, runs, alone = rated(E, np.array([0.0, 0.3, 0.9]))
        y, total = picard_solve(E, update, problems=["a", "b", "c"])
        for s, (want, _) in enumerate(alone):
            assert_bitwise(y[s], want)
        iterations = [its for _, its in alone]
        assert total == sum(iterations) and len(set(iterations)) == 3
        assert list(dict.fromkeys(runs)) == [3, 2, 1]
        assert len(runs) == max(iterations)

    def test_a_later_problem_may_finish_first(self, rng):
        # b and c finish behind a: they ride along to a's last iterate, and
        # what they give is still their own pass
        E = rng.normal(size=(3, 5, 2, 2))
        update, runs, alone = rated(E, np.array([0.9, 0.0, 0.3]))
        y, total = picard_solve(E, update, problems=["a", "b", "c"])
        for s, (want, _) in enumerate(alone):
            assert_bitwise(y[s], want)
        iterations = [its for _, its in alone]
        assert iterations[0] > iterations[2] > iterations[1]
        assert total == sum(iterations) and runs == [3] * iterations[0]

    @pytest.mark.parametrize("rates", [[0.3, 0.3, 0.9], [0.9, 0.3, 0.3]])
    def test_two_problems_finish_on_the_same_iterate(self, rng, rates):
        E = rng.normal(size=(3, 5, 2, 2))
        E[1] = E[2] if rates[0] > rates[1] else E[0]
        update, runs, alone = rated(E, np.array(rates))
        y, total = picard_solve(E, update, problems=["a", "b", "c"])
        for s, (want, _) in enumerate(alone):
            assert_bitwise(y[s], want)
        iterations = [its for _, its in alone]
        assert total == sum(iterations) and len(set(iterations)) == 2
        assert list(dict.fromkeys(runs)) == ([3, 1] if rates[0] < rates[2] else [3])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_finished_problem_is_not_checked_again(self, rng):
        # b stops at iterate 1 behind a; its later iterates turn NaN, and are
        # neither checked nor kept
        E = rng.normal(size=(2, 5, 2, 2))
        calls = []

        def update(y):
            calls.append(len(y))
            out = run_of(np.array([0.5, 0.0]), y)[:, None, None, None] * np.sin(y)
            if len(calls) > 1:
                out[1] = np.nan
            return out

        y, total = picard_solve(E, update, problems=["a", "b"])
        want, its = picard_solve(E[0], lambda v: 0.5 * np.sin(v))
        assert_bitwise(y[0], want)
        assert_bitwise(y[1], E[1])
        assert total == its + 1 and calls == [2] * its

    def test_a_failing_problem_is_named(self):
        E = np.zeros((2, 2, 1, 1))

        def update(y):
            return np.where(run_of(np.arange(2), y)[:, None, None, None] == 1, y + 1.0, 0.0)

        with pytest.raises(ConvergenceError, match="^second: .*within 10000 iterations"):
            picard_solve(E, update, problems=["first", "second"])
        with pytest.raises(ConvergenceError, match="^second: Picard iterate 1 holds a non-finite"):
            picard_solve(E, lambda y: np.where(run_of(np.arange(2), y)[:, None, None, None] == 1,
                                               np.nan, y),
                         problems=["first", "second"])
        # a NaN behind a finite update that is not settling, at iterate 3
        calls = []

        def late_nan(y):
            calls.append(1)
            late = (run_of(np.arange(2), y) == 1) & (len(calls) == 3)
            return y + np.where(late[:, None, None, None], np.nan, 1.0)

        with pytest.raises(ConvergenceError,
                           match=r"^second: Picard iterate 3 holds a non-finite value \(update nan\)$"):
            picard_solve(E, late_nan, problems=["first", "second"])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fail_at,message", [
        (5, "c: Picard iterate 5 holds a non-finite value (update {bad})"),
        (None, "a: Picard iteration did not converge within 10000 iterations (last update 2)")])
    def test_an_unfinished_problem_is_named_as_before(self, bad, fail_at, message):
        # a grows by 1 and c by 2 per iterate; b stops at iterate 1 behind
        # them, then turns non-finite and later moves by thousands, neither
        # checked nor counted as the last update.  c's iterate `fail_at` is
        # non-finite.  The messages are the per-iterate loop's.
        def level_form():
            calls = []

            def update(y):
                calls.append(1)
                p = run_of(np.arange(3), y)[:, None, None, None]
                out = np.where(p == 0, y + 1.0, np.where(p == 2, y + 2.0, 0.0))
                if len(calls) > 1 and len(y) == 3:
                    out[1] = bad if len(calls) < 4 else 1e3 * len(calls)
                if len(calls) == fail_at:
                    out[-1] = bad
                return out
            return update

        E, names = np.zeros((3, 2, 1, 1)), ["a", "b", "c"]
        got = outcome(lambda: picard_solve(E, level_form(), problems=names))
        want = outcome(lambda: iterate_picard_solve(np.moveaxis(E, 0, 1),
                                                    on_axis_1(level_form()), problems=names))
        assert got == want == message.format(bad=bad)

    def test_the_last_update_is_an_unfinished_problems(self):
        # b stops at iterate 1 and then moves by thousands behind the others;
        # a stops on the cap's iterate, and c never settles: the last update
        # is c's, as the per-iterate loop words it
        def level_form():
            calls = []

            def update(y):
                calls.append(1)
                p = run_of(np.arange(3), y)[:, None, None, None]
                out = np.where(p == 0, y + 1.0, np.where(p == 2, y + 2.0, 0.0))
                if len(calls) > 1 and len(y) == 3:
                    out[1] = 1e3 * len(calls)
                if len(calls) == bsde.MAX_PICARD_ITER:
                    out[0] = y[0]
                return out
            return update

        E, names = np.zeros((3, 2, 1, 1)), ["a", "b", "c"]
        got = outcome(lambda: picard_solve(E, level_form(), problems=names))
        want = outcome(lambda: iterate_picard_solve(np.moveaxis(E, 0, 1),
                                                    on_axis_1(level_form()), problems=names))
        assert got == want == ("c: Picard iteration did not converge within "
                               f"{bsde.MAX_PICARD_ITER} iterations (last update 2)")

    def test_stacked_pass_equals_separate_passes(self, rng):
        # two driver levels on a 2-d lattice: the driver sees node-first
        # fields with the problems on axis 1, (n, S, m1, m2)
        tree = build_tree(4, 2, 0.5, recombining=True)
        gen = GeneratorSpec("saturated_affine", 2, 2, d=2, a=0.6, b=[0.5, -0.3], M=0.7,
                            c=[[0.3, -0.3], [0.1, 0.0]])
        xi = rng.uniform(-1, 1, (tree.level_size(4), 2, 2))
        shift = np.array([0.0, 0.25])

        def driver(t, w, y, z):     # y (n, S', m1, m2): the last S' problems
            return gen(t, w, y, z) + run_of(shift, y[0])[:, None, None]

        stacked = backward(tree, np.stack([xi, xi], axis=1), DriverFn(driver, gen.lipschitz),
                           lambda t, y, z: (y, z), problems=["low", "high"])
        for s in range(2):
            alone = solve_system(tree, DriverFn(lambda t, w, y, z: gen(t, w, y, z) + shift[s],
                                                gen.lipschitz), xi)
            # each solved level's values, and each component of its z, is
            # one run of a problem's mode-major field
            pairs = [(got[:, s], want) for got, want in zip(stacked[0], alone[0], strict=True)]
            pairs += [(got[:, p, s], want[:, p]) for got, want in zip(stacked[1], alone[1],
                                                                      strict=True)
                      for p in range(tree.d)]
            for level, (got, want) in enumerate(pairs):
                assert level == tree.N or np.moveaxis(got, 0, -1).flags.c_contiguous
                assert_bitwise(got, want)

    def test_a_post_step_that_returns_nothing_keeps_nothing(self, rng):
        # the values left in y, changed in place, condition the next level
        tree = build_tree(3, 1, 1.0)
        xi = rng.normal(size=(8, 2, 2))
        roots = []

        def post(t, y, z):
            y += 1.0
            if t == 0:
                roots.append(y.copy())
            return ()

        assert backward(tree, xi, zero_driver(), post) == ()
        Y, _ = backward(tree, xi, zero_driver(), lambda t, y, z: (y + 1.0, z))
        np.testing.assert_array_equal(np.moveaxis(roots[0], -1, 0), Y[0])

class TestSolveSystem:
    def test_constant_terminal_is_a_martingale(self):
        tree = build_tree(4, 1, 1.0)
        c = np.array([[0.7, -0.1], [0.2, 0.3]])
        xi = np.broadcast_to(c, (tree.level_size(4), 2, 2)).copy()
        Y, Z = solve_system(tree, zero_driver(), xi)
        for t in range(5):
            np.testing.assert_allclose(Y[t], np.broadcast_to(c, Y[t].shape), atol=1e-15)
        for t in range(4):
            np.testing.assert_allclose(Z[t], 0.0, atol=1e-15)

    def test_random_walk_is_a_martingale(self):
        tree = build_tree(5, 1, 2.0)
        xi = tree.leaf_w[:, 0][:, None, None] * np.ones((1, 1, 1))
        Y, Z = solve_system(tree, zero_driver(), xi)
        for t in range(5):
            np.testing.assert_allclose(Y[t][:, 0, 0], tree.level_w(t)[:, 0], atol=1e-13)
            np.testing.assert_allclose(Z[t][:, 0, 0, 0], 1.0, atol=1e-13)

    def test_mode_constant_driver_telescopes_to_cT(self):
        T, N = 0.8, 8
        tree = build_tree(N, 1, T)
        c = np.array([[2.0, -2.0], [-2.0, 2.0]])
        gen = GeneratorSpec("mode_constant", 2, 2, c=c)
        xi = np.zeros((tree.level_size(N), 2, 2))
        Y, _ = solve_system(tree, gen, xi)
        np.testing.assert_allclose(Y[0][0], c * T, atol=1e-12)

    def test_residuals_at_every_node(self, rng):
        tree = build_tree(4, 1, 1.0)
        gen = GeneratorSpec("saturated_affine", 2, 2, a=0.8, b=[0.5], M=2.0,
                            c=[[0.3, -0.3], [0.1, 0.0]])
        xi = rng.uniform(-1, 1, (tree.level_size(4), 2, 2))
        Y, Z = solve_system(tree, gen, xi)
        for t in range(4):
            E = tree.expect_next(t, Y[t + 1])
            res = Y[t] - E - tree.dt * gen(tree.time(t), tree.level_w(t), Y[t], Z[t])
            assert np.abs(res).max() <= 2e-12

    def test_comparison_principle(self, rng):
        # driver A >= driver B pointwise and terminal A >= terminal B
        # implies Y_A >= Y_B
        tree = build_tree(5, 1, 1.0)
        base = GeneratorSpec("saturated_affine", 1, 1, a=-0.5, b=[0.2], M=3.0)
        drv_b = base
        drv_a = DriverFn(lambda t, w, y, z: base(t, w, y, z) + 0.4, base.lipschitz)
        xi_b = rng.uniform(-1, 1, (tree.level_size(5), 1, 1))
        xi_a = xi_b + rng.uniform(0, 0.5, xi_b.shape)
        Ya, _ = solve_system(tree, drv_a, xi_a)
        Yb, _ = solve_system(tree, drv_b, xi_b)
        for t in range(6):
            assert np.min(Ya[t] - Yb[t]) >= -1e-10

    def test_a_priori_bound(self, rng):
        tree = build_tree(5, 1, 1.5)
        gen = GeneratorSpec("mode_constant", 2, 2, c=[[1.0, -2.0], [0.5, 2.0]])
        xi = rng.uniform(-3, 3, (tree.level_size(5), 2, 2))
        Y, _ = solve_system(tree, gen, xi)
        bound = np.abs(xi).max() + gen.sup_bound * tree.T + 1e-9
        for t in range(6):
            assert np.abs(Y[t]).max() <= bound


FAMILIES = ("zero", "mode_constant", "saturated_affine")
CARRIERS = [(False, 1, 5), (False, 2, 3), (False, 3, 2),
            (True, 1, 6), (True, 2, 4), (True, 3, 3)]   # (recombining, d, N)
COSTS = {2: standard_costs, 3: lambda: make_3x3().costs}


class PlantedTree:
    """A tree whose conditioned E carries planted entries on every level: -0.0
    at node 0, an exact tie ``y[i, 1] - y[i, 0] = l(0, 1)`` on node 1, and at
    level `bad[0]` the value `bad[2]` in problem `bad[1]` of the last node.
    Both kernels condition node-major fields, so both see the same E."""

    def __init__(self, tree, l, bad=None):
        self.tree, self.l, self.bad = tree, l, bad

    def __getattr__(self, name):
        return getattr(self.tree, name)

    def expect_next(self, t, values):
        E = self.tree.expect_next(t, values)
        rows = E.reshape((E.shape[0], -1) + E.shape[-2:])    # (n_t, problems, m1, m2)
        rows[0, :, 0, 0] = -0.0
        if len(rows) > 1:
            rows[1, :, :, 0], rows[1, :, :, 1] = 0.0, self.l[0, 1]
        if self.bad is not None and self.bad[0] == t:
            rows[-1, self.bad[1], -1, -1] = self.bad[2]
        return E


def planted_case(family, m, carrier, bad=None):
    """(spec, planted tree, penalty levels) of a random m x m instance whose
    affine terminal (uniform beta) lies in the region at every leaf."""
    recombining, d, N = carrier
    rng = np.random.default_rng([FAMILIES.index(family), m, *map(int, carrier)])
    costs = COSTS[m]()
    alpha = project_oblique(rng.uniform(-1.0, 1.0, (m, m)), costs)[0]
    term = TerminalSpec("affine", m, m, alpha=alpha, beta=np.full((m, m), 0.6))
    c = rng.uniform(-2.0, 2.0, (m, m))
    c[0, 0] = -0.0
    gen = {"zero": lambda: GeneratorSpec("zero", m, m, d=d),
           "mode_constant": lambda: GeneratorSpec("mode_constant", m, m, d=d, c=c),
           "saturated_affine": lambda: GeneratorSpec(
               "saturated_affine", m, m, d=d, c=c, a=-0.7, b=rng.uniform(-0.5, 0.5, d),
               M=0.8)}[family]()
    tree = build_tree(N, d, 0.05 * N, recombining=recombining)
    spec = GameSpec(costs, gen, term, horizon=tree.T, d=d)
    top = max_penalty_level(tree, spec)
    return spec, PlantedTree(tree, costs.l, bad), sorted({1, max(top // 8, 1), max(top // 2, 2)})


def oracle_sweep(spec, tree, levels):
    """The penalized sweep as it ran on the per-iterate kernel, levels stacked on
    axis 1: (Y, dK) with that axis."""
    gen, l, ns = fieldwise_generator(spec.generator), spec.costs.l, np.asarray(levels, float)

    def driver(live):
        n = ns[live][:, None, None] if live.size > 1 else float(ns[live[0]])
        return lambda t, w, y, z: gen(t, w, y, z) + tensor_lower_intensity(y, l, n)

    def post(t, y, z):
        out = np.minimum(y, upper_barrier(y, spec.costs))
        return out, y - out

    xi = np.repeat(spec.check_terminal(tree.tree)[:, None], len(levels), axis=1)
    lip = max(penalty._require_penalty_contraction(tree.tree, spec, n, 0) for n in levels)
    return iterate_backward(tree, xi, DriverFn(driver, lip), post,
                            problems=[f"penalty level {n}" for n in levels])


def new_sweep(spec, tree, levels):
    def clamp(t, y, bar):
        out = np.minimum(y, bar)
        return out, y - out

    return penalty._sweep(spec, tree, levels, clamp)[1]


def outcome(fn):
    """fn()'s result, or the text of the ConvergenceError it raised."""
    try:
        return fn()
    except ConvergenceError as exc:
        return str(exc)


class TestLevelForm:
    """The level form on problem-first fields against the per-iterate kernel
    on axis-1 fields (`conftest.iterate_backward`): bit for bit, with -0.0,
    ties at l and non-finite values planted in E, and the same messages."""

    @pytest.mark.parametrize("carrier", CARRIERS)
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_single_problem_matches_the_oracle(self, family, m, carrier):
        spec, tree, _ = planted_case(family, m, carrier)
        xi = spec.check_terminal(tree.tree)
        got = solve_system(tree, spec.generator, xi)
        want = iterate_backward(tree, xi, fieldwise_generator(spec.generator),
                                lambda t, y, z: (y, z))
        for g, w in zip(got[0] + got[1], want[0] + want[1], strict=True):
            assert_bitwise(g, w)

    @pytest.mark.parametrize("carrier", CARRIERS)
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_stacked_problems_match_the_oracle(self, family, m, carrier):
        spec, tree, levels = planted_case(family, m, carrier)
        (Y, dK), (Yo, dKo) = new_sweep(spec, tree, levels), oracle_sweep(spec, tree, levels)
        for got, want in zip(Y + dK, Yo + dKo, strict=True):
            for s in range(len(levels)):
                assert_bitwise(got[:, s], want[:, s])
        # one penalty level alone, and one generator for several terminals
        sol = penalty.solve_penalized(spec, tree, levels[-1])
        Y1, dK1 = sequential_penalized(spec, tree, levels[-1])
        for got, want in zip(sol.Y + sol.dK, Y1 + dK1, strict=True):
            assert_bitwise(got, want)
        gen = spec.generator
        xi = spec.check_terminal(tree.tree)
        xis = np.stack([xi, xi + 0.5, -xi], axis=1)
        got = backward(tree, xis, gen, lambda t, y, z: (y, z), problems=["a", "b", "c"])
        want = iterate_backward(tree, xis,
                                DriverFn(lambda live: fieldwise_generator(gen), gen.lipschitz),
                                lambda t, y, z: (y, z), problems=["a", "b", "c"])
        for s in range(3):
            for g, w in zip(got[0], want[0], strict=True):      # (n_t, S, m1, m2)
                assert_bitwise(g[:, s], w[:, s])
            for g, w in zip(got[1], want[1], strict=True):      # (n_t, d, S, m1, m2)
                assert_bitwise(g[:, :, s], w[:, s])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_non_finite_values_raise_the_same_error(self, family, bad):
        for carrier in [(False, 2, 3), (True, 1, 6)]:
            t = carrier[2] - 2      # the second level solved
            spec, tree, levels = planted_case(family, 3, carrier, bad=(t, 0, bad))
            xi = spec.check_terminal(tree.tree)
            got = outcome(lambda: solve_system(tree, spec.generator, xi))
            want = outcome(lambda: iterate_backward(
                tree, xi, fieldwise_generator(spec.generator), lambda t, y, z: (y, z)))
            assert got == want == (f"tree level {t}: Picard iterate 1 holds a "
                                   f"non-finite value (update nan)")
            tree.bad = (t, 1, bad)      # in the second problem of the sweep
            got = outcome(lambda: new_sweep(spec, tree, levels))
            want = outcome(lambda: oracle_sweep(spec, tree, levels))
            assert got == want == (f"tree level {t}: penalty level {levels[1]}: "
                                   f"Picard iterate 1 holds a non-finite value (update nan)")


    def test_non_convergence_is_reported_as_before(self):
        # y <- E + y + 1 never settles: the cap's message, alone and stacked
        def grow(y):
            return np.where(run_of(np.arange(2), y)[:, None, None, None] == 1, y + 1.0, 0.0)

        def grow_axis1(live):
            return lambda y: np.where(live[:, None, None] == 1, y + 1.0, 0.0)

        got = outcome(lambda: picard_solve(np.zeros((2, 3, 1, 1)), grow,
                                           problems=["first", "second"]))
        want = outcome(lambda: iterate_picard_solve(np.zeros((3, 2, 1, 1)), grow_axis1,
                                                    problems=["first", "second"]))
        assert got == want == ("second: Picard iteration did not converge within 10000 "
                               "iterations (last update 1)")
        got = outcome(lambda: picard_solve(np.zeros(3), lambda y: y + 1.0))
        want = outcome(lambda: iterate_picard_solve(np.zeros(3), lambda y: y + 1.0))
        assert got == want == ("Picard iteration did not converge within 10000 iterations "
                               "(last update 1)")


class CountingGenerator(GeneratorSpec):
    """A generator that counts its level forms (each builds the z term) per
    (level size, problems), and the calls of each form per (level size, run
    of problems it is evaluated on)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built, self.calls = {}, {}

    def at_level(self, t, w, z):
        key = (z.shape[-1], z.shape[1] if z.ndim == 5 else 1)
        self.built[key] = self.built.get(key, 0) + 1
        f = super().at_level(t, w, z)
        if not callable(f):
            return f

        def counted(y):
            run = (key[0], len(y) if y.ndim == 4 else 1)
            self.calls[run] = self.calls.get(run, 0) + 1
            return f(y)
        return counted


class TestOncePerLevel:
    def test_z_term_is_built_once_per_level(self):
        # the refine ladder's driver on a sweep whose levels leave the Picard
        # loop at different iterations: one build per tree level for all of
        # them, evaluated on the run still live at each iterate
        gen = CountingGenerator("saturated_affine", 2, 2, a=0.5, b=[0.3], M=1.0,
                                c=[[1.5, -1.5], [-1.5, 1.5]])
        spec = GameSpec(standard_costs(), gen,
                        TerminalSpec("affine", 2, 2, alpha=[[0.3, 0.9], [-0.4, 0.4]],
                                     beta=np.ones((2, 2))), horizon=0.24)
        tree = build_tree(40, 1, spec.horizon, recombining=True)
        levels = [1, 8, 3 * max_penalty_level(tree, spec) // 4]
        alone = {}
        for n in levels:
            sequential_penalized(spec, tree, n, counts=alone)
        penalty.penalization_report(spec, tree, levels)
        for t in range(tree.N):
            size = tree.level_size(t)
            its = [alone[(size, n)] for n in levels]
            assert its == sorted(its) and its[-1] > 1     # lowest levels leave first
            assert {key: v for key, v in gen.built.items() if key[0] == size} == {
                (size, len(levels)): 1}
            # iterate i evaluates the levels that have not stopped before it
            runs = [sum(k >= i for k in its) for i in range(1, its[-1] + 1)]
            assert {key[1]: v for key, v in gen.calls.items() if key[0] == size} == {
                r: runs.count(r) for r in set(runs)}
        gen.built.clear()
        xi = spec.check_terminal(tree)
        solve_system(tree, gen, xi)
        assert gen.built == {(tree.level_size(t), 1): 1 for t in range(tree.N)}

    @pytest.mark.parametrize("family", ["zero", "mode_constant"])
    def test_y_independent_driver_takes_one_step_per_level(self, monkeypatch, family):
        steps = []
        solve = bsde.picard_solve

        def counted(*args, **kwargs):
            y, its = solve(*args, **kwargs)
            steps.append(its)
            return y, its

        monkeypatch.setattr(bsde, "picard_solve", counted)
        gen = CountingGenerator(family, 2, 2, c=None if family == "zero" else
                                [[2.0, -2.0], [-2.0, 2.0]])
        tree = build_tree(6, 1, 0.24)
        xi = np.random.default_rng(5).normal(size=(tree.level_size(6), 2, 2))
        Y, _ = solve_system(tree, gen, xi)
        backward(tree, np.stack([xi, -xi], axis=1), gen, lambda t, y, z: (y,),
                 problems=["a", "b"])
        assert steps == [1] * tree.N + [2] * tree.N     # one step per problem and level
        sizes = [tree.level_size(t) for t in range(tree.N)]
        assert gen.calls == {} and gen.built == {(n, s): 1 for n in sizes for s in (1, 2)}
        # the step is E + dt * c, the value the per-iterate loop settled on
        for t in range(tree.N):
            E = tree.expect_next(t, Y[t + 1])
            assert_bitwise(Y[t], E + tree.dt * np.broadcast_to(gen.c, E.shape))
