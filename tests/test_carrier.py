"""The distinct-node carrier of a path tree: its classes, when the solvers
choose it, and their results on it against the whole tree, bit for bit.

The oracle for a game with an affine terminal is the same game with a
`leaf_table` terminal holding the affine terminal's leaf values: a table
reads the path, so every solver runs it on every node of the tree."""

from pathlib import Path

import numpy as np
import pytest

from switchgame import build_tree
from switchgame.errors import SizingError
from switchgame.game import verify_saddle
from switchgame.lattice import PathTree, _DistinctTree, carrier
from switchgame.model import GameSpec, GeneratorSpec, TerminalSpec, project_oblique
from switchgame.penalty import (
    max_penalty_level,
    penalization_report,
    solve_double_penalized,
    solve_penalized,
)
from switchgame.reflected import solve_rbsde
from switchgame.runner import parse_scenario

from conftest import assert_bitwise, random_costs

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "switchgame" / "scenarios"
DRIVERS = ("zero", "mode_constant", "saturated_affine")


def affine_game(rng, d, driver):
    """A random game with an affine terminal inside the region at every
    leaf (projected alpha, one slope for every pair), and its path tree."""
    m1, m2 = (int(m) for m in rng.integers(1, 4, 2))
    costs = random_costs(rng, m1, m2)
    tree = build_tree(int(rng.integers(2, 9) if d == 1 else rng.integers(1, 5)), d,
                      float(rng.choice([0.25, 0.5])))
    params = {} if driver == "zero" else {"c": rng.uniform(-2.0, 2.0, (m1, m2))}
    if driver == "saturated_affine":
        params.update(a=rng.uniform(-1.0, 1.0), b=rng.uniform(-1.0, 1.0, d),
                      M=float(rng.choice([0.5, 1.0, 2.0])))
    alpha = project_oblique(rng.uniform(-2.0, 2.0, (m1, m2)), costs)[0]
    terminal = TerminalSpec("affine", m1, m2, alpha=alpha,
                            beta=np.full((m1, m2), rng.uniform(-1.0, 1.0)))
    generator = GeneratorSpec(driver, m1, m2, d=d, **params)
    return GameSpec(costs, generator, terminal, horizon=tree.T, d=d), tree


def as_leaf_table(spec, tree):
    """The same game with its terminal's leaf values on `tree` as a table."""
    table = spec.terminal.evaluate(tree.leaf_w)
    return GameSpec(spec.costs, spec.generator,
                    TerminalSpec("leaf_table", spec.m1, spec.m2, table=table),
                    horizon=spec.horizon, d=spec.d)


def bits(x):
    """A comparable record of `x` that tells -0.0 from 0.0: the bits of a
    float or an array, record by record for the fields of a report."""
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, np.ascontiguousarray(x).tobytes()
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (list, tuple)):
        return tuple(map(bits, x))
    if isinstance(x, dict):
        return tuple((k, bits(v)) for k, v in x.items())
    if hasattr(x, "__dataclass_fields__"):
        return tuple((name, bits(getattr(x, name))) for name in x.__dataclass_fields__)
    return x


def penalty_levels(spec, tree):
    """Lower penalty levels whose solves contract with room to spare."""
    try:
        top = max_penalty_level(tree, spec)
    except SizingError:     # one Player-II mode: every level contracts
        top = 4
    return [n for n in (1, 2) if 2 * n <= top]


class TestDistinctTree:
    @pytest.mark.parametrize("name,sizes", [
        ("perf_3x3", list(range(1, 14))),
        ("standard_2x2", [1, 2, 3, 4, 7, 8, 11, 12, 15]),
    ])
    def test_bundled_trees(self, name, sizes):
        tree = parse_scenario(SCENARIOS / f"{name}.json").build_tree()
        run = tree.distinct
        assert [run.level_size(t) for t in range(tree.N + 1)] == sizes
        assert run.num_nodes == sum(sizes)

    @pytest.mark.parametrize("d,N", [(1, 6), (2, 3), (3, 2)])
    def test_classes_are_the_nodes_of_equal_bits_and_children(self, d, N):
        tree = build_tree(N, d, 0.3 * N)
        run = tree.distinct
        B = tree.branching
        for t in range(N + 1):
            classes, reps = run.classes[t], run.reps[t]
            w = tree.level_w(t).view(np.uint64)
            kids = run.classes[t + 1].reshape(-1, B) if t < N else np.empty((len(w), 0), int)
            key = [(*map(int, w[q]), *map(int, kids[q])) for q in range(len(w))]
            first = {}
            for q, k in enumerate(key):
                first.setdefault(k, len(first))
            # numbered in order of first appearance, each read at its first node
            assert classes.tolist() == [first[k] for k in key]
            assert reps.tolist() == [key.index(k) for k in first]
            assert_bitwise(run.level_w(t), tree.level_w(t)[reps])
            if t < N:
                assert (run._kids[t] == kids[reps].T).all()

    def test_bits_not_values_tell_states_apart(self):
        # both middle leaves of N=2 sit at W = 0.0; one written as -0.0
        # becomes a class of its own
        tree = build_tree(2, 1, 1.0)
        assert tree.distinct.level_size(2) == 3
        tree = build_tree(2, 1, 1.0)
        tree.level_w(2)[2] = -0.0
        run = tree.distinct
        assert run.classes[2].tolist() == [0, 1, 2, 3]
        assert run.classes[1].tolist() == [0, 1]

    def test_built_on_first_read_and_kept(self):
        tree = build_tree(5, 1, 1.0)
        assert "distinct" not in vars(tree)
        run = tree.distinct
        assert tree.distinct is run and vars(tree)["distinct"] is run

    def test_conditioning_is_the_path_trees_own(self):
        # the carrier finds expect_next and z_next on `PathTree`, where the
        # benchmark's tracer replaces them
        assert issubclass(_DistinctTree, PathTree)
        for name in ("expect_next", "z_next"):
            assert name not in vars(_DistinctTree)

    def test_conditioning_matches_the_path_tree(self):
        rng = np.random.default_rng(3)
        tree = build_tree(4, 2, 1.0)
        run = tree.distinct
        for t in range(tree.N):
            v = rng.normal(size=(run.level_size(t + 1), 2, 3))
            paths = run.expand([v], t + 1)[0]
            for method in ("expect_next", "z_next"):
                got = run.expand([getattr(run, method)(t, v)], t)[0]
                assert_bitwise(got, getattr(tree, method)(t, paths))

    def test_expand_gather_and_restrict(self):
        rng = np.random.default_rng(4)
        tree = build_tree(3, 1, 1.0)
        run = tree.distinct
        fields = [rng.normal(size=(run.level_size(t), 2, 2)) for t in range(tree.N + 1)]
        paths = run.expand(fields)
        for t, f in enumerate(paths):
            assert f.shape == (tree.level_size(t), 2, 2)
            assert np.moveaxis(f, 0, -1).flags.c_contiguous
        for got, want in zip(run.gather(paths), fields, strict=True):
            assert_bitwise(got, want)
        for got, want in zip(run.restrict(paths), fields, strict=True):
            assert_bitwise(got, want)
        assert_bitwise(run.gather(paths[2:], 2)[0], fields[2])
        # one path node off its class, by a sign of zero alone
        assert run.reps[2][run.classes[2][2]] == 1
        paths[2][:] = 0.0
        assert run.restrict(paths) is not None
        paths[2][-2, 1, 0] = -0.0
        assert run.restrict(paths) is None

    def test_carrier_choice(self):
        path, lat = build_tree(3, 1, 1.0), build_tree(3, 1, 1.0, recombining=True)
        assert carrier(path, True) is path.distinct
        assert carrier(path, False) is path
        assert carrier(lat, True) is lat
        # a carrier is its own
        assert carrier(path.distinct, True) is path.distinct


class TestBitForBit:
    """Every solver on a game with an affine terminal, against the same game
    with the leaf-table terminal of its leaf values."""

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_random_games(self, d, driver):
        rng = np.random.default_rng([d, DRIVERS.index(driver), 32])
        for _ in range(10):
            spec, tree = affine_game(rng, d, driver)
            oracle = as_leaf_table(spec, tree)
            sol, want = solve_rbsde(spec, tree), solve_rbsde(oracle, tree)
            assert "distinct" in vars(tree)
            for name in ("Y", "Z", "dK", "dL", "K", "L"):
                for g, w in zip(getattr(sol, name), getattr(want, name), strict=True):
                    assert_bitwise(g, w)
                    assert np.moveaxis(g, 0, -1).flags.c_contiguous
            levels = penalty_levels(spec, tree)
            for n in levels:
                got, ref = solve_penalized(spec, tree, n), solve_penalized(oracle, tree, n)
                assert bits(got.Y) == bits(ref.Y) and bits(got.dK) == bits(ref.dK)
                try:
                    got = solve_double_penalized(spec, tree, n, 1)
                except SizingError:
                    continue
                assert bits(got.Y) == bits(solve_double_penalized(oracle, tree, n, 1).Y)
            assert bits(penalization_report(spec, tree, levels, direct=sol).rows) == bits(
                penalization_report(oracle, tree, levels, direct=want).rows)
            assert bits(verify_saddle(sol, catalog_size=3, seed=1)) == bits(
                verify_saddle(want, catalog_size=3, seed=1))

    @pytest.mark.parametrize("name", ["standard_2x2", "perf_3x3", "bind_3x3"])
    def test_bundled_games(self, name):
        scenario = parse_scenario(SCENARIOS / f"{name}.json")
        spec, tree = scenario.spec, scenario.build_tree()
        oracle = as_leaf_table(spec, tree)
        sol, want = solve_rbsde(spec, tree), solve_rbsde(oracle, tree)
        for field in ("Y", "Z", "dK", "dL", "K", "L"):
            assert bits(getattr(sol, field)) == bits(getattr(want, field))
        assert bits(penalization_report(spec, tree, [1, 2, 4, 8], direct=sol).rows) == bits(
            penalization_report(oracle, tree, [1, 2, 4, 8], direct=want).rows)
        report = verify_saddle(sol, catalog_size=200)
        assert report.certified
        assert bits(report) == bits(verify_saddle(want, catalog_size=200))


class TestNeverBuilt:
    """A leaf-table terminal reads the path, and a lattice state has no
    path: neither builds the carrier."""

    @pytest.fixture
    def refuse_the_carrier(self, monkeypatch):
        def refuse(self, tree):
            raise AssertionError("the distinct-node carrier was built")
        monkeypatch.setattr(_DistinctTree, "__init__", refuse)

    @pytest.mark.parametrize("recombining", [False, True])
    def test_solvers(self, refuse_the_carrier, recombining):
        rng = np.random.default_rng(5)
        spec, tree = affine_game(rng, 1, "mode_constant")
        tree = build_tree(tree.N, 1, tree.T, recombining=recombining)
        if not recombining:
            spec = as_leaf_table(spec, tree)
        sol = solve_rbsde(spec, tree)
        solve_penalized(spec, tree, 1)
        penalization_report(spec, tree, [1], direct=sol)
        verify_saddle(sol, catalog_size=2)
        assert "distinct" not in vars(tree)
