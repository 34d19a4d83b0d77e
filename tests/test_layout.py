"""Mode-major storage.  Every solver stores each level field mode-major, with
the node axis last, and exposes a node-first view of it; each routine that
moved to that layout gives, bit for bit, what its node-major predecessor in
`conftest` gives, on inputs with -0.0, ties, NaN and +/-inf planted."""

import numpy as np
import pytest

from switchgame import build_tree, penalty
from switchgame.bsde import DriverFn, solve_system
from switchgame.errors import DataError
from switchgame.game import (
    FeedbackStrategy,
    _resolve_modes,
    eval_switched,
    solve_lower_reflected,
)
from switchgame.model import (
    REGION_TOL,
    CostTables,
    GameSpec,
    GeneratorSpec,
    TerminalSpec,
    _outside_region,
    in_Qbar,
    lower_barrier,
    project_oblique_batch,
    upper_barrier,
)
from switchgame.penalty import (
    lower_penalty_intensity,
    solve_double_penalized,
    solve_penalized,
    upper_penalty_intensity,
)
from switchgame.reflected import solve_rbsde

from conftest import (
    assert_bitwise,
    fieldwise_generator,
    fieldwise_outside_region,
    iterate_backward,
    nodemajor_barrier,
    nodemajor_conditioning,
    nodemajor_lower_intensity,
    nodemajor_projection,
    nodemajor_resolve_modes,
    nodemajor_upper_intensity,
    sequential_penalized,
)

GRIDS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (1, 8), (1, 9)]
CARRIERS = [(False, 1, 4), (False, 2, 2), (False, 3, 2),
            (True, 1, 5), (True, 2, 3), (True, 3, 2)]      # (recombining, d, N)
FAMILIES = ("zero", "mode_constant", "saturated_affine")


def grid_costs(m1, m2, rng):
    """Random cost tables on an m1 x m2 grid: off-diagonal entries in [1, 1.5]
    meet every strict triangle inequality (the solvers check the loops)."""
    k, l = rng.uniform(1.0, 1.5, (m1, m1)), rng.uniform(1.0, 1.5, (m2, m2))
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(l, 0.0)
    return CostTables(k=k, l=l)


def planted(rng, shape, costs, bad=True):
    """Random values with exact barrier ties, equal entries, signed zeros and
    (with `bad`) NaN and +/-inf planted along the first axis."""
    y = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, shape)
    m1, m2 = costs.m1, costs.m2
    if m1 > 1:
        y[1::7, ..., 0, :] = y[1::7, ..., 1, :] + costs.k[0, 1]       # upper tie
    if m2 > 1:
        y[2::7, ..., :, 0] = y[2::7, ..., :, 1] - costs.l[0, 1]       # lower tie
        y[3::7, ..., :, -1] = y[3::7, ..., :, 0]
    y[4::7] = -0.0
    y[5::7, ..., ::2, :] = 0.0
    if bad:
        y[6::7, ..., 0, 0] = np.nan
        y[6::14, ..., -1, -1] = np.inf
        y[0::14, ..., -1, 0] = -np.inf
    return y


def mode_major(y):
    """A node-first (n, ...) array stored mode-major: its node-first view."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(y, 0, -1)), -1, 0)


class TestRoutines:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("m1,m2", GRIDS)
    def test_barriers_and_region_check(self, m1, m2):
        rng = np.random.default_rng([m1, m2])
        costs = grid_costs(m1, m2, rng)
        y = planted(rng, (29, 3, m1, m2), costs)
        for case in (y, y[:, 1], y[3, 1], mode_major(y[:, 2]), np.moveaxis(y, 0, 1)):
            for side, fn in (("upper", upper_barrier), ("lower", lower_barrier)):
                want, to = nodemajor_barrier(case, costs, side, targets=True)
                got, got_to = fn(case, costs, targets=True)
                assert_bitwise(got, want)
                np.testing.assert_array_equal(got_to, to)
                assert_bitwise(fn(case, costs), want)
            for tol in (0.0, REGION_TOL, 0.5):
                mask = fieldwise_outside_region(case, costs, tol)
                np.testing.assert_array_equal(_outside_region(case, costs, tol), mask)
                if tol == REGION_TOL:
                    assert in_Qbar(case, costs) == (not mask.any())

    @pytest.mark.parametrize("m1,m2", GRIDS)
    def test_projection(self, m1, m2):
        rng = np.random.default_rng([m1, m2, 1])
        costs = grid_costs(m1, m2, rng)
        y = planted(rng, (40, m1, m2), costs, bad=False)
        inside = nodemajor_projection(y, costs)[0]
        y[::3] = inside[::3]        # ties and strict interiors among the moving rows
        for case in (y, mode_major(y), y.reshape(5, 8, m1, m2), y[7]):
            for got, want in zip(project_oblique_batch(case, costs),
                                 nodemajor_projection(case, costs), strict=True):
                assert_bitwise(got, want)
        for bad in (np.nan, np.inf, -np.inf):
            case = y.copy()
            case[11, -1, 0] = bad
            with pytest.raises(DataError) as got:
                project_oblique_batch(mode_major(case), costs)
            with pytest.raises(DataError) as want:
                nodemajor_projection(case, costs)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("recombining,d,N", CARRIERS)
    def test_conditioning(self, recombining, d, N):
        tree = build_tree(N, d, 0.1 * N, recombining=recombining)
        rng = np.random.default_rng([d, N])
        costs = grid_costs(3, 2, rng)
        for t in range(N):
            v = planted(rng, (tree.level_size(t + 1), 2, 3, 2), costs)
            for case in (v, v[:, 0], mode_major(v), mode_major(v[:, 1]), v[:, 0, :, :1]):
                E, z = nodemajor_conditioning(tree, t, case)
                assert_bitwise(tree.expect_next(t, case), E)
                assert_bitwise(tree.z_next(t, case), z)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("m1,m2", GRIDS + [(8, 1), (9, 1)])
    def test_penalty_intensities(self, m1, m2):
        rng = np.random.default_rng([m1, m2, 2])
        costs = grid_costs(m1, m2, rng)
        y = planted(rng, (31, 3, m1, m2), costs)    # nodes, problems, modes
        levels = np.array([1.0, 7.0, 416.0])
        stored = np.ascontiguousarray(np.moveaxis(y, 0, -1))        # (S, m1, m2, n)
        for got, want in (
                (lower_penalty_intensity(stored, costs.l, levels[:, None, None, None]),
                 nodemajor_lower_intensity(y, costs.l, levels[:, None, None])),
                (upper_penalty_intensity(stored, costs.k, levels[:, None, None, None]),
                 nodemajor_upper_intensity(y, costs.k, levels[:, None, None])),
                (lower_penalty_intensity(stored[1, ..., :1], costs.l, 7.0),
                 nodemajor_lower_intensity(y[:1, 1], costs.l, 7.0)),
                (upper_penalty_intensity(stored[1, ..., :1], costs.k, 7.0),
                 nodemajor_upper_intensity(y[:1, 1], costs.k, 7.0))):
            assert_bitwise(np.moveaxis(got, -1, 0), want)

    @pytest.mark.parametrize("m1,m2", GRIDS[:7])
    def test_mode_resolution(self, m1, m2):
        rng = np.random.default_rng([m1, m2, 3])
        k, l = rng.uniform(0.1, 2.0, (m1, m1)), rng.uniform(0.1, 2.0, (m2, m2))
        for n in (1, 6):
            for derange in (False, True):
                A = rng.integers(0, m1, (n, m1, m2))
                B = rng.integers(0, m2, (n, m1, m2))
                if derange:     # every read asks for a switch: the walks reach the cap
                    A = (np.arange(m1)[:, None] + rng.integers(1, max(m1, 2), A.shape)) % m1
                    B = (np.arange(m2) + rng.integers(1, max(m2, 2), B.shape)) % m2
                pos, costA, costB = _resolve_modes(A, B, m1, m2, k, l)
                i, j, oA, oB = nodemajor_resolve_modes(A, B, m1, m2, k, l)
                want = (i * m2 + j) * n + np.arange(n)[:, None, None]
                np.testing.assert_array_equal(np.moveaxis(pos, -1, 0), want)
                assert_bitwise(np.moveaxis(costA, -1, 0), oA)
                assert_bitwise(np.moveaxis(costB, -1, 0), oB)

    def test_z_term_of_one_mode_pair_sums_in_brownian_order(self):
        # with one mode pair the node-major z was (n, d, 1, 1), and NumPy's
        # einsum summed its Brownian axis with a dot kernel that pairs the
        # terms at d >= 3; mode-major storage sums b[p] * z[p] in p order
        # from 0.0, as the einsum did on every larger grid
        gen = GeneratorSpec("saturated_affine", 1, 1, d=3, b=[0.3, -0.2, 0.7], M=5.0)
        z = np.random.default_rng(0).standard_normal((3, 1, 1, 1000))
        want = np.zeros(z.shape[1:])
        for bp, zp in zip(gen.b, z):
            want += bp * zp
        assert_bitwise(gen.at_level(0.0, None, z)(np.zeros(want.shape)), want)
        old = np.einsum("p,...pij->...ij", gen.b, np.moveaxis(z, -1, 0))
        np.testing.assert_allclose(np.moveaxis(want, -1, 0), old, rtol=4e-16, atol=0.0)


def solver_case(rng, family, m1, m2, carrier):
    """(spec, tree) of a random admissible instance with -0.0 and barrier ties
    planted: a projected leaf table holding a -0.0 leaf on a path tree, a
    projected affine terminal with uniform beta on a lattice, and a -0.0
    driver entry."""
    recombining, d, N = carrier
    tree = build_tree(N, d, 0.02 * N, recombining=recombining)
    costs = grid_costs(m1, m2, rng)
    c = rng.uniform(-2.0, 2.0, (m1, m2))
    c[0, 0] = -0.0
    gen = {"zero": lambda: GeneratorSpec("zero", m1, m2, d=d),
           "mode_constant": lambda: GeneratorSpec("mode_constant", m1, m2, d=d, c=c),
           "saturated_affine": lambda: GeneratorSpec(
               "saturated_affine", m1, m2, d=d, c=c, a=-0.7, b=rng.uniform(-0.5, 0.5, d),
               M=0.8)}[family]()
    if recombining:
        alpha = nodemajor_projection(rng.uniform(-1.0, 1.0, (m1, m2)), costs)[0]
        term = TerminalSpec("affine", m1, m2, alpha=alpha, beta=np.full((m1, m2), 0.6))
    else:
        table = nodemajor_projection(rng.uniform(-1.0, 1.0, (tree.level_size(N), m1, m2)),
                                     costs)[0]
        table[0] = -0.0
        term = TerminalSpec("leaf_table", m1, m2, table=table)
    return GameSpec(costs, gen, term, horizon=tree.T, d=d), tree


def node_major_solutions(spec, tree, a, b, a_uniform, n, m):
    """Every solver's fields as the per-iterate kernel and the node-major
    routines give them, by name."""
    costs, gen = spec.costs, fieldwise_generator(spec.generator)
    xi = np.ascontiguousarray(spec.check_terminal(tree))
    out = {}
    out["solve_system"] = iterate_backward(tree, xi, gen, lambda t, y, z: (y, z))

    def project(t, y, z):
        y, dK, dL = nodemajor_projection(y, costs)
        return y, z, dK, dL
    out["solve_rbsde"] = iterate_backward(tree, xi, gen, project)
    out["solve_penalized"] = sequential_penalized(spec, tree, n)

    def double(t, w, y, z):
        return (nodemajor_lower_intensity(y, costs.l, n) + gen(t, w, y, z)
                - nodemajor_upper_intensity(y, costs.k, m))
    lip = penalty._require_penalty_contraction(tree, spec, n, m)
    out["solve_double_penalized"] = iterate_backward(tree, xi, DriverFn(double, lip),
                                                     lambda t, y, z: (y,))
    i_grid, j_grid = np.arange(spec.m1)[:, None], np.arange(spec.m2)[None, None, :]

    def switched(t, W, z):
        i, j, costA, costB = nodemajor_resolve_modes(a.actions[t], b.actions[t], spec.m1,
                                                     spec.m2, costs.k, costs.l)
        return (W[np.arange(len(W))[:, None, None], i, j] + costA - costB,)
    out["eval_switched"] = iterate_backward(tree, xi, gen, switched)

    def lower(t, W, z):
        ia = a_uniform.actions[t]
        y = W[np.arange(len(W))[:, None, None], ia, j_grid] + costs.k[i_grid, ia]
        return (np.maximum(y, nodemajor_barrier(y, costs, "lower")),)
    out["solve_lower_reflected"] = iterate_backward(tree, xi, gen, lower)
    return out


def mode_major_solutions(spec, tree, a, b, a_uniform, n, m):
    """Every solver's level fields, by name, in the order of
    `node_major_solutions`."""
    rbsde = solve_rbsde(spec, tree)
    pen = solve_penalized(spec, tree, n)
    double = solve_double_penalized(spec, tree, n, m)
    return {"solve_system": solve_system(tree, spec.generator, spec.check_terminal(tree)),
            "solve_rbsde": (rbsde.Y, rbsde.Z, rbsde.dK, rbsde.dL),
            "solve_penalized": (pen.Y, pen.dK),
            "solve_double_penalized": (double.Y,),
            "eval_switched": (eval_switched(spec, tree, a, b).U,),
            "solve_lower_reflected": (solve_lower_reflected(spec, tree, a_uniform),)}, (
        rbsde.K or [], rbsde.L or [], pen.beta, double.beta, double.alpha)


def strategies(rng, spec, tree):
    m1, m2 = spec.m1, spec.m2
    a = FeedbackStrategy.random("I", tree, m1, m2, rng)
    b = FeedbackStrategy.random("II", tree, m1, m2, rng)
    a_uniform = FeedbackStrategy("I", [
        np.repeat(rng.integers(0, m1, (tree.level_size(t), m1, 1)), m2, axis=2)
        for t in range(tree.N)])
    return a, b, a_uniform


class TestSolvers:
    @pytest.mark.parametrize("carrier", CARRIERS)
    @pytest.mark.parametrize("m1,m2", GRIDS)
    def test_fields_match_the_node_major_solvers(self, m1, m2, carrier):
        for family in FAMILIES:
            if family == "saturated_affine" and (m1, m2) == (1, 1) and carrier[1] >= 3:
                continue    # the z term's summation order, see TestRoutines
            rng = np.random.default_rng([m1, m2, *map(int, carrier), FAMILIES.index(family)])
            spec, tree = solver_case(rng, family, m1, m2, carrier)
            a, b, a_uniform = strategies(rng, spec, tree)
            got, _ = mode_major_solutions(spec, tree, a, b, a_uniform, 2, 2)
            want = node_major_solutions(spec, tree, a, b, a_uniform, 2, 2)
            for name, fields in got.items():
                for g, w in zip(fields, want[name], strict=True):
                    for gt, wt in zip(g, w, strict=True):
                        assert_bitwise(gt, wt)

    @pytest.mark.parametrize("recombining", [False, True])
    def test_every_level_field_is_stored_mode_major(self, recombining):
        rng = np.random.default_rng(4)
        spec, tree = solver_case(rng, "saturated_affine", 2, 3, (recombining, 2, 3))
        fields, derived = mode_major_solutions(spec, tree, *strategies(rng, spec, tree), 2, 2)
        for f in [f for kept in fields.values() for level in kept for f in level] + [
                f for level in derived for f in level]:
            assert np.moveaxis(f, 0, -1).flags.c_contiguous
