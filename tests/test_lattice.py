"""Exactness of the discrete filtration: moments, tower property, martingale
coefficients, and path/recombining agreement on Markovian data."""

import tracemalloc

import numpy as np
import pytest

from switchgame.errors import DataError, SizingError
from switchgame.game import FeedbackStrategy, simulate_path
from switchgame.lattice import PathTree, RecombiningTree, _Tree, build_tree

from conftest import carrier_conditioning, make_standard, time_budget


class TestConstruction:
    def test_one_step_tree(self):
        tree = build_tree(1, 1, 1.0)
        assert tree.num_nodes == 3
        assert tree.dt == 1.0
        np.testing.assert_allclose(np.sort(tree.leaf_w[:, 0]), [-1.0, 1.0])

    def test_two_step_tree(self):
        tree = build_tree(2, 1, 1.0)
        assert tree.num_nodes == 7
        assert tree.dt == 0.5
        # every increment is +-sqrt(dt)
        for t in range(2):
            parent = tree.level_w(t)
            child = tree.level_w(t + 1).reshape(-1, tree.branching, 1)
            steps = child - parent[:, None, :]
            np.testing.assert_allclose(np.abs(steps), np.sqrt(0.5))

    def test_two_dimensional_node_count(self):
        tree = build_tree(2, 2, 1.0)
        assert tree.num_nodes == 1 + 4 + 16
        assert tree.branching == 4

    def test_node_cap(self):
        with pytest.raises(SizingError, match="cap"):
            build_tree(30, 1, 1.0)
        with pytest.raises(DataError):
            build_tree(0, 1, 1.0)
        with pytest.raises(DataError):
            build_tree(2, 1, -1.0)

    def test_node_cap_is_exact(self):
        assert build_tree(3, 1, 1.0, node_cap=15).num_nodes == 15
        with pytest.raises(SizingError, match="N=3, d=1 passes the cap of 14 nodes by level 3"):
            build_tree(3, 1, 1.0, node_cap=14)

    def test_huge_N_is_refused_at_the_first_level_past_the_cap(self):
        # summing every level size first was quadratic in N, and printing a
        # count past 4,300 digits raised a ValueError instead
        with time_budget(5):
            with pytest.raises(SizingError, match=r"tree with N=100000, d=1 .* 4194304 nodes"):
                build_tree(100_000, 1, 1.0)
            with pytest.raises(SizingError,
                               match=r"lattice with N=100000000, d=1 .* 4194304 states"):
                build_tree(10 ** 8, 1, 1.0, recombining=True)

    @pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0])
    @pytest.mark.parametrize("recombining", [False, True])
    def test_horizon_must_be_positive_and_finite(self, T, recombining):
        with pytest.raises(DataError, match="horizon"):
            build_tree(2, 1, T, recombining=recombining)

    def test_recombining_level_sizes(self):
        tree = build_tree(20, 1, 1.0, recombining=True)
        assert tree.level_size(20) == 21
        assert tree.num_nodes == sum(t + 1 for t in range(21))


class TestExactMoments:
    @pytest.mark.parametrize("d", [1, 2])
    def test_increment_moments(self, d):
        tree = build_tree(3, d, 0.75)
        incr = tree._increments  # (B, d)
        np.testing.assert_allclose(incr.mean(axis=0), 0.0, atol=1e-15)
        cov = incr.T @ incr / tree.branching
        np.testing.assert_allclose(cov, tree.dt * np.eye(d), atol=1e-15)

    def test_node_expectation_examples(self):
        tree = build_tree(1, 1, 1.0)
        assert tree.expect_next(0, np.array([1.0, 3.0]))[0] == 2.0
        assert tree.expect_next(0, np.array([7.0, 7.0]))[0] == 7.0
        tree2 = build_tree(1, 2, 1.0)
        assert tree2.expect_next(0, np.array([1.0, 2.0, 3.0, 4.0]))[0] == 2.5

    def test_martingale_coefficient_examples(self):
        tree = build_tree(1, 1, 1.0)
        assert tree.z_next(0, np.array([5.0, 5.0]))[0, 0] == 0.0
        # value equal to the increment itself has coefficient 1
        vals = tree.level_w(1)[:, 0]
        assert tree.z_next(0, vals)[0, 0] == pytest.approx(1.0)

    def test_martingale_coefficient_hand_sum(self):
        # dt = 0.25: children (up=1, down=0) -> E[Y dW]/dt = 1
        tree = build_tree(4, 1, 1.0)
        up_first = tree._increments[0, 0] > 0
        vals = np.array([1.0, 0.0]) if up_first else np.array([0.0, 1.0])
        assert tree.z_next(0, np.tile(vals, 1))[0, 0] == pytest.approx(1.0)

    def test_tower_property_exact(self, rng):
        tree = build_tree(4, 1, 2.0)
        leaf_field = rng.normal(size=(tree.level_size(4), 2, 2))
        two_step = tree.expect_next(2, tree.expect_next(3, leaf_field))
        # direct two-step expectation: average over the four grandchildren
        direct = leaf_field.reshape(tree.level_size(2), 4, 2, 2).mean(axis=1)
        np.testing.assert_allclose(two_step, direct, rtol=1e-14, atol=1e-14)

    def test_root_expectation_is_leaf_average(self, rng):
        tree = build_tree(5, 1, 1.0)
        field = np.sin(3.0 * tree.leaf_w[:, 0]) + rng.normal(size=tree.level_size(5))
        val = field
        for t in range(tree.N - 1, -1, -1):
            val = tree.expect_next(t, val)
        assert val[0] == pytest.approx(field.mean(), rel=1e-14)

    def test_z_of_constant_field_vanishes(self):
        tree = build_tree(3, 2, 1.0)
        z = tree.z_next(1, np.full(tree.level_size(2), 4.2))
        np.testing.assert_allclose(z, 0.0, atol=1e-14)

    def test_z_of_affine_field_is_the_slope(self):
        tree = build_tree(6, 1, 0.5)
        beta = -1.7
        for t in range(tree.N):
            z = tree.z_next(t, beta * tree.level_w(t + 1)[:, 0])
            np.testing.assert_allclose(z, beta, rtol=1e-13)

    def test_level_shape_mismatch_raises(self):
        tree = build_tree(2, 1, 1.0)
        with pytest.raises(DataError):
            tree.expect_next(0, np.zeros(3))
        with pytest.raises(DataError):
            tree.expect_next(2, np.zeros(4))

    @pytest.mark.parametrize("recombining", [False, True])
    @pytest.mark.parametrize("method", ["expect_next", "z_next"])
    def test_every_conditioning_refuses_a_level_of_the_wrong_size(self, recombining, method):
        tree = build_tree(3, 2, 1.0, recombining=recombining)
        condition = getattr(tree, method)
        rows = tree.level_size(2)
        for t, values in [(1, np.zeros(rows - 1)), (1, np.zeros((rows + 1, 2, 2))),
                          (1, np.float64(0.0)), (3, np.zeros(rows)), (-1, np.zeros(rows))]:
            with pytest.raises(DataError):
                condition(t, values)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestSharedConditioning:
    """`expect_next` and `z_next` are one routine on both carriers; each
    carrier only says where a node's children sit."""

    @pytest.mark.parametrize("recombining", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_each_carriers_own_routine_bitwise(self, recombining, d, rng):
        # two corners differ, each within its bound: on the lattice a node
        # whose children are all -0.0 gets +0.0 (the sum starts from +0.0,
        # as the path tree's always did); on the path tree with one entry
        # per node and 8 or more children, the sum runs in branch order where
        # NumPy summed pairwise, so it moves by rounding only
        N = {1: 5, 2: 3, 3: 2, 4: 2}[d]
        tree = build_tree(N, d, 0.7, recombining=recombining)
        B = tree.branching
        for t in range(N):
            for tail in [(), (1, 1), (1, 3), (2, 2), (3, 3)]:
                v = rng.uniform(-1e3, 1e3, (tree.level_size(t + 1),) + tail)
                v[rng.random(v.shape) < 0.5] = -0.0
                v[: B + 1] = -0.0       # a node, or a lattice state, with -0.0 children only
                E, z = tree.expect_next(t, v), tree.z_next(t, v)
                E_ref, z_ref = carrier_conditioning(tree, t, v)
                assert E.shape == E_ref.shape and z.shape == z_ref.shape
                np.testing.assert_array_equal(_bits(z), _bits(z_ref))
                moved = _bits(E) != _bits(E_ref)
                if recombining:
                    # every moved entry is a -0.0 turned +0.0
                    negative_zero = _bits(np.float64(-0.0))
                    assert np.all(_bits(E_ref)[moved] == negative_zero)
                    assert not E[moved].any() and not np.signbit(E[moved]).any()
                    assert moved.any() or d > 1
                elif d < 3 or tail not in [(), (1, 1)]:
                    assert not moved.any()
                else:
                    # two summation orders of B terms differ by at most
                    # 2 (B - 1) eps sum|x|; the mean divides that by B
                    children = np.abs(v).reshape((-1, B) + tail).sum(axis=1)
                    assert np.all(np.abs(E - E_ref) <= 2 * np.finfo(float).eps * children)

    def test_all_negative_zero_children_give_positive_zero_on_both_carriers(self):
        for recombining in (False, True):
            tree = build_tree(2, 2, 1.0, recombining=recombining)
            E = tree.expect_next(1, np.full((tree.level_size(2), 2, 2), -0.0))
            np.testing.assert_array_equal(_bits(E), _bits(np.zeros(E.shape)))

    @pytest.mark.parametrize("recombining", [False, True])
    def test_expect_next_holds_its_result_and_at_most_one_child_block(self, recombining, rng):
        N = 60 if recombining else 6
        tree = build_tree(N, 2, 1.0, recombining=recombining)
        v = rng.normal(size=(tree.level_size(N), 3, 3))
        result_bytes = tree.level_size(N - 1) * 9 * 8      # a child block is as large
        tree.expect_next(N - 1, v)                           # warm up
        tracemalloc.start()
        try:
            E = tree.expect_next(N - 1, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert E.nbytes == result_bytes
        assert peak <= 2 * result_bytes

    def test_carriers_bind_the_shared_routine(self):
        # each carrier names the routine in its own namespace, where the
        # benchmark's tracer finds it, and neither has a body of its own
        for cls in (PathTree, RecombiningTree):
            assert cls.__dict__["expect_next"] is _Tree.expect_next
            assert cls.__dict__["z_next"] is _Tree.z_next


class TestRecombining:
    def test_matches_path_tree_on_markovian_fields(self):
        T, N = 0.8, 6
        path = build_tree(N, 1, T)
        lat = build_tree(N, 1, T, recombining=True)

        def f(w):
            return np.cos(w) + 0.3 * w ** 2

        vp = f(path.leaf_w[:, 0])
        vl = f(lat.leaf_w[:, 0])
        for t in range(N - 1, -1, -1):
            vp = path.expect_next(t, vp)
            vl = lat.expect_next(t, vl)
            # compare state-by-state via the W values
            wp = np.round(path.level_w(t)[:, 0] / path._increments[0].max(), 9)
            wl = np.round(lat.level_w(t)[:, 0] / path._increments[0].max(), 9)
            for s, w in enumerate(wl):
                match = np.isclose(wp, w)
                assert match.any()
                np.testing.assert_allclose(vp[match], vl[s], rtol=1e-12)
        assert vp[0] == pytest.approx(vl[0], rel=1e-13)

    def test_z_agrees_at_the_root(self):
        path = build_tree(4, 1, 1.0)
        lat = build_tree(4, 1, 1.0, recombining=True)
        vp = path.leaf_w[:, 0] ** 3
        vl = lat.leaf_w[:, 0] ** 3
        for t in range(3, 0, -1):
            vp = path.expect_next(t, vp)
            vl = lat.expect_next(t, vl)
        np.testing.assert_allclose(path.z_next(0, vp), lat.z_next(0, vl), rtol=1e-12)

    def test_per_node_access_requires_path_tree(self):
        # following one node's path needs the path, which a lattice state
        # does not determine
        lat = build_tree(2, 1, 1.0, recombining=True)
        a = FeedbackStrategy.stay("I", lat, 2, 2)
        b = FeedbackStrategy.stay("II", lat, 2, 2)
        with pytest.raises(DataError, match="path tree"):
            simulate_path(make_standard(), lat, a, b, (0, 0), [0, 1])
