"""The direct obliquely reflected solver: boundary behavior, push accounting,
cross-solver agreement, and the one-sided reduction."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from switchgame import build_tree, model, reflected, runner
from switchgame.bsde import DriverFn, backward, solve_system
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
)
from switchgame.runner import _write_fields, parse_scenario

from conftest import (
    STANDARD_ALPHA,
    STANDARD_BETA,
    STANDARD_C,
    NoEntryReads,
    csv_writer_fields,
    fieldwise_check_minimality,
    levelwise_export_rows,
    make_standard,
    random_admissible_spec,
    repr_text,
    standard_costs,
)

BIND_3X3 = Path(__file__).resolve().parents[1] / "src" / "switchgame" / "scenarios" / "bind_3x3.json"

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
        # push_tol (no violation), as -0.0, NaN and +inf, next to values
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
                assert (check_minimality(planted, tol=0.3, push_tol=0.3).violations
                        == fieldwise_check_minimality(planted, tol=0.3, push_tol=0.3))


    def test_a_tolerance_that_is_not_finite_and_nonnegative_is_refused(self):
        # a push planted off its barrier is found at the default tolerances;
        # with tol = NaN every gap test was false and the check passed
        spec = make_standard()
        tree = build_tree(4, 1, spec.horizon)
        sol = solve_rbsde(spec, tree)
        sol.dK[1][0, 0, 0] = 0.5
        assert check_minimality(sol).violations
        for name in ("tol", "push_tol"):
            for bad in (np.nan, np.inf, -1e-9):
                with pytest.raises(DataError, match=f"^{name} must be a finite nonnegative"):
                    check_minimality(sol, **{name: bad})


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
        _write_fields(tmp_path / "guarded.csv", guarded)
        _write_fields(tmp_path / "plain.csv", sol)
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
            monkeypatch.setattr(runner, "_WRITE_ROWS", 1)
        spec = (standard_in_dimension(d) if (m1, m2) == (2, 2)
                else affine_instance(np.random.default_rng(m1 + 3 * m2 + 9 * d), m1, m2, d))
        tree = build_tree(4, d, spec.horizon, recombining=recombining)
        sol = solve_rbsde(spec, tree)
        if block == "default" and d == 3 and not recombining:
            assert tree.level_size(tree.N) * m1 * m2 > 3 * reflected._EXPORT_BLOCK_ROWS
            assert reflected._EXPORT_BLOCK_ROWS // (m1 * m2) * m1 * m2 % runner._WRITE_ROWS
        assert list(export_rows(sol)) == list(levelwise_export_rows(sol))
        _write_fields(tmp_path / "fields.csv", sol)
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
        _write_fields(tmp_path / "fields.csv", planted)
        written = (tmp_path / "fields.csv").read_bytes()
        assert b",nan," in written and b",-0.0," in written
        assert written == csv_writer_fields(planted, tmp_path / "oracle.csv")

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
        _write_fields(tmp_path / "fields.csv", planted)
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
        # one bit pattern takes the shortcut, any more the memo, up to all distinct
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
