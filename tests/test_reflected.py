"""The direct obliquely reflected solver: boundary behavior, push accounting,
cross-solver agreement, and the one-sided reduction."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from switchgame import build_tree, model, reflected
from switchgame.bsde import PICARD_TOL, DriverFn, backward, solve_system
from switchgame.errors import DataError
from switchgame.game import (
    FeedbackStrategy,
    brute_force_value,
    eval_switched,
    solve_lower_reflected,
)
from switchgame.model import (
    CostTables,
    GameSpec,
    GeneratorSpec,
    TerminalSpec,
    in_Qbar,
    project_oblique,
    project_oblique_batch,
    upper_barrier,
)
from switchgame.penalty import solve_double_penalized, solve_penalized
from switchgame.reflected import (
    RbsdeSolution,
    check_minimality,
    domain_report,
    export_header,
    export_rows,
    solve_rbsde,
    write_fields,
)
from switchgame.runner import parse_scenario

from conftest import (
    STANDARD_ALPHA,
    STANDARD_BETA,
    STANDARD_C,
    NoEntryReads,
    assert_bitwise,
    csv_writer_fields,
    fieldwise_check_minimality,
    levelwise_export_rows,
    make_standard,
    mirror,
    random_admissible_spec,
    random_costs,
    repr_text,
    standard_costs,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "switchgame" / "scenarios"
BIND_3X3 = SCENARIOS / "bind_3x3.json"

# Entries whose text a value-keyed memo would get wrong: both zeros, NaNs of
# four payloads (signs and a signalling one), both infinities and subnormals.
PLANTED = np.concatenate([
    [-0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.225073858507e-308],
    np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
              0x7FF0000000000001], dtype=np.uint64).view(float),
])


class TestTrivialInstances:
    def test_interior_constant_terminal_is_untouched(self):
        spec = GameSpec(
            costs=standard_costs(),
            generator=GeneratorSpec("zero", 2, 2),
            terminal=TerminalSpec("constant", 2, 2, alpha=[[0.1, 0.2], [0.0, 0.1]]),
            horizon=1.0,
        )
        tree = build_tree(6, 1, 1.0)
        sol = solve_rbsde(spec, tree)
        for t in range(7):
            np.testing.assert_allclose(
                sol.Y[t], np.broadcast_to([[0.1, 0.2], [0.0, 0.1]], sol.Y[t].shape),
                atol=1e-12)
        for t in range(6):
            assert sol.dK[t].max() == 0.0 and sol.dL[t].max() == 0.0
            assert sol.K[t].max() == 0.0 and sol.L[t].max() == 0.0

    def test_two_by_one_terminal_clamp(self):
        # terminal (3, 0) violates the upper constraint at the last step:
        # one clamp to (1, 0) with dK = (2, 0)
        costs = CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0]])
        spec = GameSpec(
            costs=costs,
            generator=GeneratorSpec("zero", 2, 1),
            terminal=TerminalSpec("constant", 2, 1, alpha=[[1.0], [0.0]]),
            horizon=1.0,
        )
        tree = build_tree(1, 1, 1.0)
        Y, _ = solve_system(tree, DriverFn(lambda t, w, y, z: np.zeros_like(y), 0.0),
                            np.broadcast_to([[3.0], [0.0]], (2, 2, 1)))
        y_star, dK, dL = project_oblique_batch(Y[0], costs)
        np.testing.assert_allclose(y_star, [[[1.0], [0.0]]])
        np.testing.assert_allclose(dK, [[[2.0], [0.0]]])
        assert not dL.any()


class TestAgainstBruteForce:
    @pytest.mark.parametrize("N", [2, 3])
    def test_standard_instance_matches_strategy_enumeration(self, N):
        spec = make_standard()
        tree = build_tree(N, 1, spec.horizon)
        sol = solve_rbsde(spec, tree)
        best = brute_force_value(spec, tree)
        np.testing.assert_allclose(sol.root, best, atol=1e-9)


class TestStructure:
    def test_scaling_shift(self, standard_spec):
        # adding a constant to every terminal entry shifts Y by that constant
        # and leaves the pushes untouched (the constraints are differences)
        gamma = 0.37
        tree = build_tree(4, 1, standard_spec.horizon)
        shifted = GameSpec(
            costs=standard_spec.costs,
            generator=standard_spec.generator,
            terminal=TerminalSpec(
                "affine", 2, 2,
                alpha=np.asarray([[0.3, 0.9], [-0.4, 0.4]]) + gamma,
                beta=[[1.0, 1.0], [0.9, 0.9]],
            ),
            horizon=standard_spec.horizon,
        )
        a = solve_rbsde(standard_spec, tree)
        b = solve_rbsde(shifted, tree)
        for t in range(5):
            np.testing.assert_allclose(b.Y[t], a.Y[t] + gamma, atol=1e-10)
        for t in range(4):
            np.testing.assert_allclose(b.dK[t], a.dK[t], atol=1e-10)
            np.testing.assert_allclose(b.dL[t], a.dL[t], atol=1e-10)

    def test_push_accumulation(self, standard_spec):
        tree = build_tree(5, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        assert sol.K[0].max() == 0.0 and sol.L[0].max() == 0.0
        for t in range(tree.N):
            kids = sol.K[t + 1].reshape(tree.level_size(t), 2, 2, 2)
            parents = sol.K[t][:, None] + sol.dK[t][:, None]
            np.testing.assert_allclose(kids, np.broadcast_to(parents, kids.shape))
            # cumulative pushes never decrease along a path
            assert np.min(kids - sol.K[t][:, None]) >= 0.0

    def test_domain_complementarity_minimality(self, standard_spec):
        tree = build_tree(6, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        assert domain_report(sol).ok
        assert check_minimality(sol).ok
        for t in range(tree.N):
            assert np.max(sol.dK[t] * sol.dL[t]) == 0.0
            assert in_Qbar(sol.Y[t], standard_spec.costs, tol=1e-9)

    def test_random_instances_satisfy_minimality(self, rng):
        for _ in range(10):
            tree = build_tree(int(rng.integers(2, 5)), 1, 1.0)
            spec = random_admissible_spec(rng, 2, 2, tree)
            sol = solve_rbsde(spec, tree)
            assert domain_report(sol).ok
            assert check_minimality(sol).ok

    def test_recombining_fast_path_agrees(self, standard_spec):
        N = 6
        path = build_tree(N, 1, standard_spec.horizon)
        lat = build_tree(N, 1, standard_spec.horizon, recombining=True)
        a = solve_rbsde(standard_spec, path)
        b = solve_rbsde(standard_spec, lat)
        np.testing.assert_allclose(a.root, b.root, atol=1e-11)
        assert b.K is None and b.L is None

    def test_refinement_gap_is_monitored_not_asserted(self, standard_spec):
        roots = {}
        for N in (4, 8):
            sol = solve_rbsde(standard_spec, build_tree(N, 1, standard_spec.horizon,
                                                        recombining=True))
            roots[N] = sol.root
        # recorded diagnostic: the two refinements stay close on this instance
        assert np.abs(roots[4] - roots[8]).max() < 0.2


class TestMinimalityCheck:
    # 3 rows divide no level of the N=5 tree past level 1; 1 row copies one
    # matrix at a time
    @pytest.mark.parametrize("block_rows", [model._REGION_ROWS, 3, 1])
    def test_mode_major_check_matches_the_fieldwise_one(self, rng, block_rows, monkeypatch):
        # pushes planted off their barriers on every level, at exactly
        # PUSH_TOL (no violation), as -0.0, NaN and +inf, next to values
        # that are NaN, +-inf, -0.0 or tie with a barrier
        monkeypatch.setattr(model, "_REGION_ROWS", block_rows)
        for m1, m2 in [(2, 2), (3, 3), (2, 3)]:
            tree = build_tree(5, 1, 1.0)
            spec = random_admissible_spec(rng, m1, m2, tree)
            sol = solve_rbsde(spec, tree)
            assert check_minimality(sol).violations == fieldwise_check_minimality(sol)
            Y = [y.copy() for y in sol.Y]
            dK, dL = [k.copy() for k in sol.dK], [x.copy() for x in sol.dL]
            for t in range(tree.N):
                shape = Y[t].shape
                hit = rng.random(shape) < 0.3
                dK[t][hit] = rng.choice([1e-9, 0.5, -0.0, np.nan, np.inf], hit.sum())
                hit = rng.random(shape) < 0.3
                dL[t][hit] = rng.choice([1e-9, 0.25, -0.0, np.nan, 2.0], hit.sum())
                hit = rng.random(shape) < 0.2
                Y[t][hit] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.75], hit.sum())
                with np.errstate(invalid="ignore"):
                    Y[t][0, 0, 0] = upper_barrier(Y[t], spec.costs)[0, 0, 0]
            planted = RbsdeSolution(tree=tree, spec=spec, Y=Y, Z=sol.Z, dK=dK, dL=dL)
            with np.errstate(invalid="ignore"):
                got = check_minimality(planted).violations
                want = fieldwise_check_minimality(planted)
                assert got == want and len(got) > 2 * tree.N
                with monkeypatch.context() as patch:
                    patch.setattr(reflected, "MINIMALITY_TOL", 0.3)
                    patch.setattr(reflected, "PUSH_TOL", 0.3)
                    assert (check_minimality(planted).violations
                            == fieldwise_check_minimality(planted, tol=0.3, push_tol=0.3))


class TestOneSidedReduction:
    def test_upper_only_equals_independent_columns(self, rng):
        # with the lower clamps disabled the 2x2 system decouples into two
        # 2x1 systems, one per Player-II mode; the upper clamp of the
        # penalized solver against the sweep of the direct solver on 2x1
        spec = make_standard()
        tree = build_tree(4, 1, spec.horizon)

        def post(t, y, z):      # y is stored mode-major, (m1, m2, n_t)
            bar = np.moveaxis(upper_barrier(np.moveaxis(y, -1, 0), spec.costs), 0, -1)
            return (np.minimum(y, bar),)

        upper_only = backward(tree, spec.check_terminal(tree), spec.generator, post)[0]

        costs_col = CostTables(k=spec.costs.k, l=[[0.0]])
        for j in range(2):
            col = GameSpec(
                costs=costs_col,
                generator=GeneratorSpec("mode_constant", 2, 1,
                                        c=spec.generator.c[:, [j]]),
                terminal=TerminalSpec(
                    "affine", 2, 1,
                    alpha=np.asarray([[0.3, 0.9], [-0.4, 0.4]])[:, [j]],
                    beta=np.asarray([[1.0, 1.0], [0.9, 0.9]])[:, [j]],
                ),
                horizon=spec.horizon,
            )
            sol = solve_rbsde(col, tree)
            for t in range(tree.N + 1):
                np.testing.assert_allclose(sol.Y[t][:, :, 0], upper_only[t][:, :, j],
                                           atol=1e-10)


class TestErrorsAndExport:
    def test_terminal_outside_domain_is_a_hard_error(self):
        spec = GameSpec(
            costs=standard_costs(),
            generator=GeneratorSpec("zero", 2, 2),
            terminal=TerminalSpec("constant", 2, 2, alpha=[[5.0, 0.0], [0.0, 0.0]]),
            horizon=1.0,
        )
        with pytest.raises(DataError, match="outside"):
            solve_rbsde(spec, build_tree(2, 1, 1.0))

    def test_recombining_needs_markovian_terminal(self):
        tree = build_tree(2, 1, 1.0, recombining=True)
        spec = GameSpec(
            costs=standard_costs(),
            generator=GeneratorSpec("zero", 2, 2),
            terminal=TerminalSpec("leaf_table", 2, 2, table=np.zeros((3, 2, 2))),
            horizon=1.0,
        )
        with pytest.raises(DataError, match="Markovian"):
            solve_rbsde(spec, tree)

    @pytest.mark.parametrize("solver", ["solve_penalized", "solve_double_penalized",
                                        "eval_switched", "solve_lower_reflected"])
    def test_every_solver_refuses_a_non_markovian_terminal_on_a_lattice(self, solver):
        # a 5-row leaf table fits the N=4 lattice's 5 states in shape, but a
        # state does not determine the path the table is indexed by
        tree = build_tree(4, 1, 1.0, recombining=True)
        spec = GameSpec(
            costs=standard_costs(),
            generator=GeneratorSpec("zero", 2, 2),
            terminal=TerminalSpec("leaf_table", 2, 2, table=np.zeros((5, 2, 2))),
            horizon=1.0,
        )
        a = FeedbackStrategy.stay("I", tree, 2, 2)
        run = {
            "solve_penalized": lambda: solve_penalized(spec, tree, 1),
            "solve_double_penalized": lambda: solve_double_penalized(spec, tree, 1, 1),
            "eval_switched": lambda: eval_switched(spec, tree, a,
                                                   FeedbackStrategy.stay("II", tree, 2, 2)),
            "solve_lower_reflected": lambda: solve_lower_reflected(spec, tree, a),
        }[solver]
        with pytest.raises(DataError, match="Markovian"):
            run()

    def test_export_schema(self, standard_spec):
        tree = build_tree(2, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        header = export_header(1)
        rows = list(export_rows(sol))
        assert len(rows) == (1 + 2 + 4) * 4
        assert all(len(r) == len(header) for r in rows)
        # leaf rows carry no Z or push columns
        leaf_rows = [r for r in rows if r[0] == 2]
        zcol = header.index("Z1")
        assert all(r[zcol] == "" for r in leaf_rows)


def standard_in_dimension(d):
    """The standard 2x2 instance with d Brownian components (W1 drives the terminal)."""
    return GameSpec(standard_costs(), GeneratorSpec("mode_constant", 2, 2, d=d, c=STANDARD_C),
                    TerminalSpec("affine", 2, 2, alpha=STANDARD_ALPHA, beta=STANDARD_BETA),
                    horizon=0.24, d=d)


def affine_instance(rng, m1, m2, d):
    """A random m1 x m2 game with d Brownian components and an affine terminal
    of one slope for every mode pair: its differences across modes are those
    of its intercept, a point of the constraint region, so it stays in the
    region at every leaf of a path tree and of a lattice."""
    base = random_admissible_spec(rng, m1, m2, build_tree(1, 1, 1.0))
    return GameSpec(base.costs, GeneratorSpec("mode_constant", m1, m2, d=d, c=base.generator.c),
                    TerminalSpec("affine", m1, m2, alpha=base.terminal.table[0],
                                 beta=np.full((m1, m2), 0.7)),
                    horizon=0.04 * d, d=d)


class TestExportAndCumulants:
    @pytest.mark.parametrize("recombining", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    def test_every_field_reads_back_exactly(self, d, recombining):
        spec = standard_in_dimension(d)
        tree = build_tree(3, d, spec.horizon, recombining=recombining)
        sol = solve_rbsde(spec, tree)
        header = export_header(d)
        col = {name: header.index(name) for name in header}
        rows = list(export_rows(sol))
        assert len(rows) == tree.num_nodes * 4
        assert [tuple(r[:4]) for r in rows] == [
            (t, n, i, j) for t in range(tree.N + 1) for n in range(tree.level_size(t))
            for i in (1, 2) for j in (1, 2)]
        for row in rows:
            t, n, i, j = row[:4]
            fields = {"Y": sol.Y[t][n, i - 1, j - 1]}
            fields.update({f"W{p + 1}": tree.level_w(t)[n, p] for p in range(d)})
            leaf = t == tree.N
            if not leaf:
                fields.update({f"Z{p + 1}": sol.Z[t][n, p, i - 1, j - 1] for p in range(d)})
                fields.update(dK=sol.dK[t][n, i - 1, j - 1], dL=sol.dL[t][n, i - 1, j - 1])
            if not recombining:
                fields.update(K=sol.K[t][n, i - 1, j - 1], L=sol.L[t][n, i - 1, j - 1])
            for name, value in fields.items():
                assert float(row[col[name]]) == value, (name, row)
            blank = [f"Z{p + 1}" for p in range(d)] + ["dK", "dL"] if leaf else []
            blank += ["K", "L"] if recombining else []
            assert [row[col[name]] for name in blank] == [""] * len(blank)
        assert any(float(r[col["dL"]]) > 0.0 for r in rows if r[0] < tree.N)

    def test_cumulants_are_summed_on_first_read(self, standard_spec, monkeypatch):
        calls = []
        original = reflected._accumulate
        monkeypatch.setattr(reflected, "_accumulate",
                            lambda tree, inc: calls.append(1) or original(tree, inc))
        tree = build_tree(4, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        assert calls == []
        for name, increments in (("K", sol.dK), ("L", sol.dL)):
            # a node's cumulant sums the increments of its strict ancestors
            expected = [sum(increments[s][np.arange(tree.level_size(t)) // 2 ** (t - s)]
                            for s in range(t)) + np.zeros((tree.level_size(t), 2, 2))
                        for t in range(tree.N + 1)]
            for got, want in zip(getattr(sol, name), expected):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert len(calls) == 2
        sol.K, sol.L
        assert len(calls) == 2
        assert sum(float(a.max()) for a in sol.dL) > 0.0

    def test_export_reads_whole_arrays_only(self, standard_spec, tmp_path):
        tree = build_tree(3, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        guarded = RbsdeSolution(
            tree=tree, spec=standard_spec,
            **{name: [a.view(NoEntryReads) for a in getattr(sol, name)]
               for name in ("Y", "Z", "dK", "dL")})
        assert list(export_rows(guarded)) == list(export_rows(sol))
        write_fields(tmp_path / "guarded.csv", guarded)
        write_fields(tmp_path / "plain.csv", sol)
        assert (tmp_path / "guarded.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    # The writer repeats a node's key and W text once per mode pair and cycles
    # the pair text, so it is checked on grids of one row or one column, with
    # up to three W columns, and in blocks of the default size, of 3 nodes (which
    # divide no path-tree level past the root) and of 1 row (less than a node,
    # so each block holds one node; written a line at a time).  On the
    # 3-dimensional path tree the default block also splits the leaf level into
    # blocks and a shorter rest, each written in slices and a shorter rest.
    @pytest.mark.parametrize("block", ["default", "3 nodes", "1 row"])
    @pytest.mark.parametrize("recombining", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m1,m2", [(2, 2), (1, 1), (1, 3), (3, 1)])
    def test_writer_matches_csv_writer_byte_for_byte(self, m1, m2, d, recombining, block,
                                                     tmp_path, monkeypatch):
        rows = {"default": reflected._EXPORT_BLOCK_ROWS, "3 nodes": 3 * m1 * m2, "1 row": 1}
        monkeypatch.setattr(reflected, "_EXPORT_BLOCK_ROWS", rows[block])
        if block == "1 row":
            monkeypatch.setattr(reflected, "_WRITE_ROWS", 1)
        spec = (standard_in_dimension(d) if (m1, m2) == (2, 2)
                else affine_instance(np.random.default_rng(m1 + 3 * m2 + 9 * d), m1, m2, d))
        tree = build_tree(4, d, spec.horizon, recombining=recombining)
        sol = solve_rbsde(spec, tree)
        if block == "default" and d == 3 and not recombining:
            assert tree.level_size(tree.N) * m1 * m2 > 3 * reflected._EXPORT_BLOCK_ROWS
            assert reflected._EXPORT_BLOCK_ROWS // (m1 * m2) * m1 * m2 % reflected._WRITE_ROWS
        assert list(export_rows(sol)) == list(levelwise_export_rows(sol))
        write_fields(tmp_path / "fields.csv", sol)
        assert ((tmp_path / "fields.csv").read_bytes()
                == csv_writer_fields(sol, tmp_path / "oracle.csv"))

    @pytest.mark.parametrize("recombining", [False, True])
    def test_writer_keeps_planted_nans_and_signed_zeros(self, recombining, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(reflected, "_EXPORT_BLOCK_ROWS", 3 * 3)    # 3 nodes of a 1x3 grid
        spec = affine_instance(np.random.default_rng(4), 1, 3, 2)
        tree = build_tree(4, 2, spec.horizon, recombining=recombining)
        sol = solve_rbsde(spec, tree)
        rng = np.random.default_rng(12)
        fields = {name: [a.copy() for a in getattr(sol, name)] for name in ("Y", "Z", "dK", "dL")}
        planted = RbsdeSolution(tree=tree, spec=spec, **fields)
        cumulants = [] if recombining else [*planted.K, *planted.L]
        for a in itertools.chain(*fields.values(), cumulants):
            a.flat[rng.choice(a.size, size=max(1, a.size // 10), replace=False)] = rng.choice(
                PLANTED, size=max(1, a.size // 10))
        assert list(export_rows(planted)) == list(levelwise_export_rows(planted))
        write_fields(tmp_path / "fields.csv", planted)
        written = (tmp_path / "fields.csv").read_bytes()
        assert b",nan," in written and b",-0.0," in written
        assert written == csv_writer_fields(planted, tmp_path / "oracle.csv")

    @pytest.mark.parametrize("block", ["default", "3 nodes"])
    @pytest.mark.parametrize("cell", ["K sign", "Z ulp", "Y nan payload"])
    def test_nodes_one_bit_apart_are_never_merged(self, cell, block, tmp_path, monkeypatch):
        # nodes a and b of one block share W and differ in one cell's bits;
        # c, in the next block, is a's twin
        if block == "3 nodes":
            monkeypatch.setattr(reflected, "_EXPORT_BLOCK_ROWS", 3 * 4)
        size = reflected._EXPORT_BLOCK_ROWS // 4
        spec = standard_in_dimension(1)
        tree = build_tree(10, 1, spec.horizon)     # level 9 spans two default blocks
        sol = solve_rbsde(spec, tree)
        fields = {name: [a.copy() for a in getattr(sol, name)] for name in ("Y", "Z", "dK", "dL")}
        planted = RbsdeSolution(tree=tree, spec=spec, **fields)
        t = tree.N - 1
        w = tree.level_w(t)[:, 0].tolist()
        a, b, c = next((a, b, c) for a in range(len(w) - size)
                       for b in range(a + 1, (a // size + 1) * size) if w[b] == w[a]
                       for c in range((a // size + 1) * size, len(w)) if w[c] == w[a])
        nan, other_nan = np.array([0x7FF8000000000000, 0x7FF8000000000001], np.uint64).view(float)
        field, at, value, other = {
            "K sign": (planted.K, (0, 1), 0.0, -0.0),
            "Z ulp": (planted.Z, (0, 1, 0), 0.5, np.nextafter(0.5, 1.0)),
            "Y nan payload": (planted.Y, (1, 1), nan, other_nan),
        }[cell]
        field[t][(a, *at)] = value
        for f in (planted.Y, planted.Z, planted.dK, planted.dL, planted.K, planted.L):
            f[t][b] = f[t][c] = f[t][a]
        field[t][(b, *at)] = other
        index = {n: (nodes.start, k) for level, nodes, ks, _ in reflected._export_blocks(planted)
                 if level == t for n, k in zip(nodes, ks)}
        assert index[a][0] == index[b][0] != index[c][0]
        assert index[a][1] != index[b][1]
        assert list(export_rows(planted)) == list(levelwise_export_rows(planted))
        path = tmp_path / "fields.csv"
        write_fields(path, planted)
        assert path.read_bytes() == csv_writer_fields(planted, tmp_path / "oracle.csv")

    def test_writer_keeps_pushes_and_negative_zeros(self, tmp_path):
        # bind_3x3 pushes both ways; each level past 128 nodes spans several blocks
        scenario = parse_scenario(BIND_3X3)
        tree = scenario.build_tree()
        sol = solve_rbsde(scenario.spec, tree)
        assert all(sum(int((a > 0.0).sum()) for a in pushes) > 0 for pushes in (sol.dK, sol.dL))
        rng = np.random.default_rng(11)
        fields = {name: [a.copy() for a in getattr(sol, name)] for name in ("Y", "Z", "dK", "dL")}
        planted = RbsdeSolution(tree=tree, spec=scenario.spec, **fields)
        for a in itertools.chain(*fields.values(), planted.K, planted.L):
            a.flat[rng.choice(a.size, size=max(1, a.size // 50), replace=False)] = -0.0
        assert list(export_rows(planted)) == list(levelwise_export_rows(planted))
        write_fields(tmp_path / "fields.csv", planted)
        written = (tmp_path / "fields.csv").read_bytes()
        assert b",-0.0," in written
        assert written == csv_writer_fields(planted, tmp_path / "oracle.csv")


def distinct_bits(a):
    return np.unique(np.asarray(a, dtype=float).ravel().view(np.uint64)).size


def block_of(rng, size, distinct):
    """`size` entries taking exactly `distinct` bit patterns, each at least
    once, drawn from the planted entries first and then from random floats."""
    pool = np.concatenate([PLANTED, rng.normal(scale=10.0, size=distinct)])[:distinct]
    index = np.concatenate([np.arange(distinct), rng.integers(0, distinct, size - distinct)])
    return pool[rng.permutation(index)]


class TestText:
    """`reflected._text` formats each distinct bit pattern of a block once;
    its text must be `repr` of every entry."""

    @pytest.mark.parametrize("case", ["empty", "zero", "negative_zero", "nan", "ties",
                                      "planted", "all_distinct"])
    def test_named_blocks_match_repr(self, case):
        rng = np.random.default_rng(3)
        a = {
            "empty": np.empty((0, 3, 3)),
            "zero": np.zeros(252),
            "negative_zero": np.full(252, -0.0),
            "nan": np.full(9, PLANTED[-1]),
            "ties": np.repeat([0.1, 0.2, 0.30000000000000004, 0.1 + 0.2], 63),
            "planted": np.tile(PLANTED, 23),
            "all_distinct": np.concatenate([PLANTED, rng.normal(size=241)]),
        }[case]
        assert reflected._text(a) == repr_text(a)

    @pytest.mark.parametrize("size", [1, 2, 9, 28, 252, 256])
    def test_random_blocks_match_repr(self, size):
        # from one bit pattern up to all distinct
        rng = np.random.default_rng(size)
        counts = {1, 2, size // 2, size // 2 + 1, size}
        for distinct in sorted(d for d in counts if 1 <= d <= size):
            for _ in range(5):
                a = block_of(rng, size, distinct)
                assert distinct_bits(a) == distinct
                assert reflected._text(a) == repr_text(a), (size, distinct)

    def test_a_repeating_block_formats_each_bit_pattern_once(self):
        a = block_of(np.random.default_rng(7), 252, 20)
        text = reflected._text(a)
        assert text == repr_text(a)
        assert len(set(map(id, text))) <= distinct_bits(a) == 20

    def test_strided_field_slices_match_repr(self):
        # the export formats Z[t][:, p] and W[:, p] block slices, which are not contiguous
        rng = np.random.default_rng(9)
        z = block_of(rng, 28 * 2 * 9, 40).reshape(28, 2, 3, 3)
        for p in range(2):
            assert reflected._text(z[:, p]) == repr_text(z[:, p])
            assert reflected._text(z[::3, p, :, 1]) == repr_text(z[::3, p, :, 1])


# ---------------------------------------------------------------------------
# The player-swapped game
# ---------------------------------------------------------------------------

DRIVERS = ("zero", "mode_constant", "saturated_affine")


def admissible_game(rng, recombining, d, driver):
    """A random game that `solve_rbsde` admits, and its tree: 1 to 3 modes a
    player, and a terminal inside the region at every leaf (a projected leaf
    table on the path tree; on the lattice an affine terminal with one slope
    for every pair, whose differences do not move).  dt <= 1/2 and every
    coefficient lies in [-1, 1], so dt times the Lipschitz constant stays
    below sqrt(2)/2."""
    m1, m2 = (int(m) for m in rng.integers(1, 4, 2))
    costs = random_costs(rng, m1, m2)
    N = int(rng.integers(2, 41 if d == 1 else 13) if recombining
            else rng.integers(1, 9 if d == 1 else 5))
    tree = build_tree(N, d, float(rng.choice([0.25, 0.5])), recombining=recombining)
    params = {} if driver == "zero" else {"c": rng.uniform(-2.0, 2.0, (m1, m2))}
    if driver == "saturated_affine":
        params.update(a=rng.uniform(-1.0, 1.0), b=rng.uniform(-1.0, 1.0, d),
                      M=float(rng.choice([0.5, 1.0, 2.0])))
    if recombining:
        alpha = project_oblique(rng.uniform(-2.0, 2.0, (m1, m2)), costs)[0]
        terminal = TerminalSpec("affine", m1, m2, alpha=alpha,
                                beta=np.full((m1, m2), rng.uniform(-1.0, 1.0)))
    else:
        raw = rng.uniform(-2.0, 2.0, (tree.level_size(N), m1, m2))
        terminal = TerminalSpec("leaf_table", m1, m2,
                                table=[project_oblique(x, costs)[0] for x in raw])
    generator = GeneratorSpec(driver, m1, m2, d=d, **params)
    return GameSpec(costs, generator, terminal, horizon=tree.T, d=d), tree


def mirror_bound(sol):
    """(bound, one level's roundings): how far the mirror's Y may miss the
    negated transpose at any level, and what one side rounds in one level.

    Negation and transposition are exact, so the two solves differ only
    where they round the same sums in another order, as when the projection
    sweeps the mirror's pairs in transposed order.  Per level and side that
    is at most R = (m1*m2 - 1) + 2**(d+1) + d + 8 roundings: the links of
    one push chain, and the implicit step's count of
    `game._certificate_margin`.  Each is within u = 2**-53 of a magnitude
    S = max|Y| + (m1*m2 - 1)*max(k, l), which no partial chain sum passes.
    For `saturated_affine` the Picard stop adds q/(1 - q)*tau, q = dt*|a|.
    A change of the next level moves the step by at most
    g = (1 + sqrt(dt)*||b||_1)/(1 - q) times as much (z reads the children
    through +/-sqrt(dt)/dt), and the projection by at most as much.  Over
    both sides and every level:

        bound = 2 * sum_{t<N} g**t * (R*u*S + [q/(1 - q)*tau]).
    """
    spec, tree, gen = sol.spec, sol.tree, sol.spec.generator
    links = spec.m1 * spec.m2 - 1
    scale = (max(float(np.abs(y).max()) for y in sol.Y)
             + links * float(max(spec.costs.k.max(), spec.costs.l.max())))
    unit = (links + 2 ** (tree.d + 1) + tree.d + 8) * (np.finfo(float).eps / 2) * scale
    q = tree.dt * abs(gen.a)
    picard = q / (1.0 - q) * PICARD_TOL if gen.family == "saturated_affine" else 0.0
    g = (1.0 + math.sqrt(tree.dt) * float(np.abs(gen.b).sum())) / (1.0 - q)
    return 2.0 * sum(g ** t for t in range(tree.N)) * (unit + picard), unit


def mirrored(sol):
    """The fields the mirror's solution should hold: Y and Z negated, the
    pushes of the other player, each with its mode axes swapped."""
    return ([-np.swapaxes(y, 1, 2) for y in sol.Y], [-np.swapaxes(z, 2, 3) for z in sol.Z],
            [np.swapaxes(x, 1, 2) for x in sol.dL], [np.swapaxes(x, 1, 2) for x in sol.dK])


class TestMirror:
    """The player-swapped game (`conftest.mirror`) solves to the negated
    transpose: Y' = -Y^T, Z' = -Z^T, dK' = dL^T and dL' = dK^T.  Z is
    compared by value, since the solves may write a zero with either sign."""

    # (carrier, d, driver) -> the draws of `test_random_games` whose Y
    # misses the negated transpose by a rounding, each within `mirror_bound`:
    # two 3x3 lattices, at N=11 and N=10, each by 1.1e-16 at most
    ROUNDED = {("lattice", 1, "zero"): {10}, ("lattice", 2, "mode_constant"): {17}}

    @pytest.mark.parametrize("name", ["standard_2x2", "perf_3x3", "bind_3x3"])
    @pytest.mark.parametrize("N,recombining", [(8, False), (12, False), (12, True), (40, True)])
    def test_bundled_games_bit_for_bit(self, name, N, recombining):
        spec = parse_scenario(SCENARIOS / f"{name}.json").spec
        tree = build_tree(N, spec.d, spec.horizon, recombining=recombining)
        if (name, N, recombining) == ("standard_2x2", 40, True):
            # the terminal leaves the region on this lattice, and so does the mirror's
            for game in (spec, mirror(spec)):
                with pytest.raises(DataError, match="outside the constraint region"):
                    solve_rbsde(game, tree)
            return
        sol, swapped = solve_rbsde(spec, tree), solve_rbsde(mirror(spec), tree)
        Y, Z, dK, dL = mirrored(sol)
        for got, want in zip(swapped.Y, Y, strict=True):
            assert_bitwise(got, want)
        for got, want in zip(swapped.Z, Z, strict=True):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(swapped.dK + swapped.dL, dK + dL, strict=True):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("carrier", ["path", "lattice"])
    def test_random_games(self, carrier, d, driver):
        rng = np.random.default_rng([len(carrier), d, DRIVERS.index(driver)])
        rounded = set()
        for draw in range(20):
            spec, tree = admissible_game(rng, carrier == "lattice", d, driver)
            sol, swapped = solve_rbsde(spec, tree), solve_rbsde(mirror(spec), tree)
            Y, Z, dK, dL = mirrored(sol)
            if all(map(np.array_equal, swapped.Y, Y)):
                for got, want in zip(swapped.Z, Z, strict=True):
                    np.testing.assert_array_equal(got, want)
                for got, want in zip(swapped.dK + swapped.dL, dK + dL, strict=True):
                    assert_bitwise(got, want)
                continue
            rounded.add(draw)
            bound, unit = mirror_bound(sol)
            # z divides the children's values by sqrt(dt); a push is the
            # difference of two values, each within the bound, rounded once
            for fields, tol in (((swapped.Y, Y), bound),
                                ((swapped.Z, Z), (bound + unit) / math.sqrt(tree.dt)),
                                ((swapped.dK + swapped.dL, dK + dL), 2.0 * bound + unit)):
                assert max(float(np.abs(g - w).max()) for g, w in zip(*fields)) <= tol
        assert rounded <= self.ROUNDED.get((carrier, d, driver), set())
