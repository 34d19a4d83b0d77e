"""The implicit backward-induction kernel: fixed-point steps, closed-form
checks, the contraction guard, residuals, comparison, and a priori bounds."""

import numpy as np
import pytest

from switchgame import build_tree
from switchgame.bsde import (
    DriverFn,
    backward,
    check_contraction,
    picard_solve,
    solve_system,
)
from switchgame.errors import ConvergenceError, SizingError
from switchgame.model import GeneratorSpec


def zero_driver():
    return DriverFn(lambda t, w, y, z: np.zeros_like(y), 0.0)


def last_step(tree, nxt, driver):
    """Level N-1 of the kernel from leaf values `nxt` with the identity
    post-step: (y, z)."""
    Y, Z = backward(tree, nxt, driver, lambda t, y, z: (y, z))
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
        # the driver sees each level's time and W-states; post sees (t, y, z)
        # for t = N-1..0
        assert list(dict.fromkeys(driven)) == [
            (t / 3, (2 ** t, 1), (2 ** t, 2, 2), (2 ** t, 1, 2, 2)) for t in (2, 1, 0)]
        assert seen == [(t, (2 ** t, 2, 2), (2 ** t, 1, 2, 2)) for t in (2, 1, 0)]
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
            picard_solve(E, lambda y: y + 1.0, max_iter=50)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_iterate_stops_at_once(self, bad):
        calls = []

        def update(y):
            calls.append(1)
            return np.where(np.arange(y.size) == 1, bad, 0.0)

        with pytest.raises(ConvergenceError, match="iterate 1 holds a non-finite value"):
            picard_solve(np.zeros(3), update)
        assert len(calls) == 1

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
