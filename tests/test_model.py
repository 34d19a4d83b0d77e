"""Cost-table validation, loop enumeration, domain geometry, and the oblique
projection, checked against independent brute-force oracles."""

import itertools
import re
import traceback
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchgame import build_tree, model, solve_rbsde
from switchgame.errors import ConvergenceError, DataError, SizingError
from switchgame.game import _barrier_actions
from switchgame.model import (
    CostTables,
    GameSpec,
    GeneratorSpec,
    TerminalSpec,
    check_loop_costs,
    enumerate_primary_loops,
    in_Qbar,
    loop_alternating_cost,
    lower_barrier,
    project_oblique,
    project_oblique_batch,
    upper_barrier,
    validate_cost_matrices,
)

from conftest import (
    STANDARD_ALPHA,
    STANDARD_BETA,
    STANDARD_C,
    STANDARD_K,
    STANDARD_L,
    _sweep_cap,
    canonical_loop,
    canonicalizing_walk_loops,
    fieldwise_generator,
    fieldwise_outside_region,
    lower_sweep,
    make_3x3,
    standard_costs,
    make_standard,
    reduction_sweeps,
    swapped_projection,
    sweep_every_matrix,
    tensor_barriers,
    time_budget,
    tolerance_sweep,
    upper_sweep,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def closed_walk_loops(m1, m2):
    """Independent primary-loop oracle: enumerate every closed walk of length
    <= m1*m2 on the mode grid that moves along one axis per step and repeats
    no intermediate pair, then deduplicate up to rotation and reversal."""
    pairs = [(i, j) for i in range(m1) for j in range(m2)]
    found = set()

    def canon(walk):
        best = None
        for seq in (walk, walk[::-1]):
            for r in range(len(seq)):
                cand = seq[r:] + seq[:r]
                if best is None or cand < best:
                    best = cand
        return best

    for length in range(2, m1 * m2 + 1):
        for walk in itertools.permutations(pairs, length):
            closed = walk + (walk[0],)
            ok = all(
                (p[0] == q[0]) != (p[1] == q[1])
                for p, q in zip(closed, closed[1:])
            )
            if ok:
                found.add(canon(walk))
    return sorted(found)


def random_sweep_projection(y0, costs, rng, tol=1e-12, max_sweeps=10_000):
    """Projection oracle: same reset-and-clamp rule, but coordinates are
    visited in a random permutation per sweep instead of row-major order."""
    y0 = np.asarray(y0, dtype=float)
    out = y0.copy()
    m1, m2 = costs.m1, costs.m2
    coords = [(i, j) for i in range(m1) for j in range(m2)]
    for _ in range(max_sweeps):
        prev = out.copy()
        order = [coords[p] for p in rng.permutation(len(coords))]
        for i, j in order:
            val = y0[i, j]
            if m1 > 1:
                val = min(val, np.min(np.delete(out[:, j], i) + np.delete(costs.k[i], i)))
            if m2 > 1:
                val = max(val, np.max(np.delete(out[i], j) - np.delete(costs.l[j], j)))
            out[i, j] = val
        if np.abs(out - prev).max() <= tol:
            return out
    raise AssertionError("oracle projection did not settle")


def admissible_costs(rng, m1, m2):
    while True:
        k = rng.uniform(0.5, 2.0, (m1, m1))
        l = rng.uniform(0.3, 1.5, (m2, m2))
        np.fill_diagonal(k, 0.0)
        np.fill_diagonal(l, 0.0)
        costs = CostTables(k=k, l=l)
        if validate_cost_matrices(costs).ok and check_loop_costs(costs).ok:
            return costs


# ---------------------------------------------------------------------------
# cost validation
# ---------------------------------------------------------------------------

class TestCostValidation:
    def test_smallest_admissible_table(self):
        costs = CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0]])
        assert validate_cost_matrices(costs).ok

    @pytest.mark.parametrize("k,l", [(np.zeros((0, 0)), [[0.0]]), ([[0.0]], np.zeros((0, 0)))])
    def test_empty_table_is_rejected(self, k, l):
        # a player without modes has no barrier: the reduction over its
        # modes would start from nothing
        with pytest.raises(DataError, match="must be a non-empty square matrix"):
            CostTables(k=k, l=l)

    def test_triangle_equality_fails(self):
        # k(1,2) + k(2,3) = k(1,3) violates the *strict* triangle condition
        k = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        report = validate_cost_matrices(CostTables(k=k, l=[[0.0]]))
        assert not report.ok
        assert any("is not >" in v for v in report.violations)

    def test_zero_off_diagonal_fails(self):
        report = validate_cost_matrices(CostTables(k=[[0.0, 0.0], [1.0, 0.0]], l=[[0.0]]))
        assert not report.ok
        assert any("positive" in v for v in report.violations)

    def test_nonzero_diagonal_fails(self):
        report = validate_cost_matrices(CostTables(k=[[0.5, 1.0], [1.0, 0.0]], l=[[0.0]]))
        assert not report.ok

    def test_standard_costs_pass_both_validators(self):
        costs = standard_costs()
        assert validate_cost_matrices(costs).ok
        assert check_loop_costs(costs).ok

    def test_tables_are_read_only_copies(self):
        k, l = np.array(STANDARD_K), np.array(STANDARD_L)
        costs = CostTables(k=k, l=l)
        k[0, 1] = l[0, 1] = 5.0
        assert costs.k[0, 1] == 1.0 and costs.l[0, 1] == 0.8
        np.testing.assert_array_equal(costs.k_off, [[np.inf, 1.0], [1.0, np.inf]])
        np.testing.assert_array_equal(costs.l_off, [[np.inf, 0.8], [0.8, np.inf]])
        for table in (costs.k, costs.l, costs.k_off, costs.l_off):
            with pytest.raises(ValueError):
                table[0, 1] = 2.0
        for name in ("k", "l", "k_off", "m1", "min_loop_cost"):
            with pytest.raises(AttributeError):
                setattr(costs, name, 0.0)
        assert costs.k[0, 1] == 1.0 and costs.m1 == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["k", "l", "c", "a", "b", "M", "alpha", "beta", "table"])
def test_non_finite_input_is_rejected_naming_the_field(field, bad):
    fields = {
        "k": np.array(STANDARD_K), "l": np.array(STANDARD_L),
        "c": np.array(STANDARD_C), "a": 0.5, "b": np.array([0.3]), "M": 1.0,
        "alpha": np.array(STANDARD_ALPHA), "beta": np.array(STANDARD_BETA),
        "table": np.zeros((4, 2, 2)),
    }
    value = fields[field]
    if np.ndim(value):
        value.flat[-1] = bad
    else:
        fields[field] = bad
    with pytest.raises(DataError, match=rf"^{field} must be finite"):
        CostTables(k=fields["k"], l=fields["l"])
        GeneratorSpec("saturated_affine", 2, 2, c=fields["c"], a=fields["a"],
                      b=fields["b"], M=fields["M"])
        TerminalSpec("affine", 2, 2, alpha=fields["alpha"], beta=fields["beta"])
        TerminalSpec("leaf_table", 2, 2, table=fields["table"])


class TestLoops:
    def test_loop_costs_are_computed_once_per_cost_table(self, monkeypatch):
        # validation, the solver's own validation and the projection at each
        # of the six levels all read the tables' cached loop costs
        calls = Counter()
        original = model.loop_alternating_cost

        def counting(loop, costs):
            calls[id(costs)] += 1
            return original(loop, costs)

        monkeypatch.setattr(model, "loop_alternating_cost", counting)
        spec = make_3x3()
        assert spec.validate().ok
        tree = build_tree(6, 1, spec.horizon)
        solve_rbsde(spec, tree)
        assert calls == {id(spec.costs): len(enumerate_primary_loops(3, 3))}

    def test_single_pair_has_no_loops(self):
        assert enumerate_primary_loops(1, 1) == []

    def test_two_by_one_single_loop(self):
        loops = enumerate_primary_loops(2, 1)
        assert loops == [((0, 0), (1, 0))]

    def test_two_by_two_contains_the_four_cycle(self):
        loops = enumerate_primary_loops(2, 2)
        assert ((0, 0), (0, 1), (1, 1), (1, 0)) in loops or \
            ((0, 0), (1, 0), (1, 1), (0, 1)) in loops

    @pytest.mark.parametrize("m1,m2", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_matches_closed_walk_oracle(self, m1, m2):
        assert enumerate_primary_loops(m1, m2) == closed_walk_loops(m1, m2)

    @pytest.mark.parametrize("m1,m2", [(m1, m2) for m1 in range(1, 8) for m2 in range(1, 8)
                                       if m1 * m2 <= 7] + [(2, 4), (4, 2), (3, 3), (2, 5), (5, 2)])
    def test_matches_the_canonicalizing_walk(self, m1, m2):
        # the same tuples in the same order as a walk from every pair that
        # canonicalizes each find and removes the repeats
        assert enumerate_primary_loops(m1, m2) == canonicalizing_walk_loops(m1, m2)

    @pytest.mark.parametrize("m1,m2,count", [(3, 4, 13_975), (4, 3, 13_975), (2, 6, 74_815),
                                             (6, 2, 74_815), (1, 9, 62_850), (9, 1, 62_850)])
    def test_grids_at_the_cap_list_every_loop_once_in_canonical_form(self, m1, m2, count):
        # the canonicalizing walk's counts on these grids: as many distinct
        # canonical primary loops is the same set
        loops = enumerate_primary_loops(m1, m2)
        assert len(loops) == count
        assert loops == sorted(set(loops))
        for loop in loops:
            assert len(set(loop)) == len(loop) >= 2
            assert all(0 <= i < m1 and 0 <= j < m2 for i, j in loop)
            assert all((p[0] == q[0]) != (p[1] == q[1])
                       for p, q in zip(loop, loop[1:] + loop[:1]))
            assert canonical_loop(loop) == loop

    def test_cold_two_by_six_walk_finishes_in_seconds(self):
        # the canonicalizing walk took over 30 s on this grid
        model._primary_loops.cache_clear()
        with time_budget(5):
            assert len(enumerate_primary_loops(2, 6)) == 74_815

    def test_standard_four_loop_cost(self):
        costs = standard_costs()
        loops = enumerate_primary_loops(2, 2)
        four = [lp for lp in loops if len(lp) == 4]
        assert len(four) == 1
        assert loop_alternating_cost(four[0], costs) == pytest.approx(0.4)
        assert check_loop_costs(costs).ok

    def test_symmetric_costs_cancel(self):
        costs = CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0, 1.0], [1.0, 0.0]])
        report = check_loop_costs(costs)
        assert not report.ok
        assert any("zero alternating cost" in v for v in report.violations)

    def test_two_by_one_always_passes(self):
        costs = CostTables(k=[[0.0, 0.3], [2.0, 0.0]], l=[[0.0]])
        assert check_loop_costs(costs).ok

    @pytest.mark.parametrize("m1,m2", [(4, 4), (2, 7)])
    def test_grids_past_the_cap_are_refused_before_enumerating(self, m1, m2):
        # 12 pairs is the cap: 3x4 enumerates in seconds, while 4x4 and 2x7
        # would not finish in minutes, so they must be refused at once
        costs = CostTables(k=1.0 - np.eye(m1), l=0.8 * (1.0 - np.eye(m2)))
        spec = GameSpec(costs, GeneratorSpec("zero", m1, m2),
                        TerminalSpec("constant", m1, m2, alpha=np.zeros((m1, m2))),
                        horizon=1.0)
        with time_budget(5), pytest.raises(SizingError, match="enumeration cap of 12 pairs"):
            spec.validate()

    @pytest.mark.parametrize("m1,m2", [(1, 10), (1, 11), (1, 12), (12, 1)])
    def test_line_grids_with_too_many_loops_are_refused(self, m1, m2):
        # within the pair cap, but 1x10 alone has 556,059 primary loops, and
        # validating 1x11 ran past 40 s before the walk stopped at a count
        costs = CostTables(k=1.0 - np.eye(m1), l=0.8 * (1.0 - np.eye(m2)))
        spec = GameSpec(costs, GeneratorSpec("zero", m1, m2),
                        TerminalSpec("constant", m1, m2, alpha=np.zeros((m1, m2))),
                        horizon=1.0)
        with time_budget(5), pytest.raises(
                SizingError, match=rf"^mode grid {m1}x{m2} has more than 131072 primary loops$"):
            spec.validate()


def test_time_budget_error_carries_no_frame_of_the_block():
    # the error of a budget that expires deep in a recursion must not point
    # into it: pytest could not render such a traceback
    def descend(depth):
        if depth:
            return descend(depth - 1)
        while True:
            pass

    with pytest.raises(TimeoutError, match="1 s budget") as info:
        with time_budget(1):
            descend(200)
    frames, exc = [], info.value
    while exc is not None:
        frames += [f.f_code.co_name for f, _ in traceback.walk_tb(exc.__traceback__)]
        exc = exc.__cause__ or exc.__context__
    assert frames and "descend" not in frames


# ---------------------------------------------------------------------------
# domain membership
# ---------------------------------------------------------------------------

class TestDomain:
    def test_upper_violation(self):
        costs = CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0]])
        assert in_Qbar(np.array([[0.5], [0.0]]), costs, tol=1e-12)
        assert not in_Qbar(np.array([[3.0], [0.0]]), costs, tol=1e-12)

    def test_lower_violation(self):
        costs = CostTables(k=[[0.0]], l=[[0.0, 1.0], [1.0, 0.0]])
        assert not in_Qbar(np.array([[0.0, 3.0]]), costs, tol=1e-12)

    def test_membership_is_shift_invariant(self, rng):
        costs = admissible_costs(rng, 3, 2)
        for _ in range(50):
            y = rng.uniform(-3, 3, (3, 2))
            y, _, _ = project_oblique(y, costs)
            assert in_Qbar(y + rng.normal() * 5.0, costs, tol=1e-9)

    def test_barriers_match_direct_formulas(self, rng):
        # barriers and switch targets against per-coordinate brute force on
        # 1-3 modes per player; the equal-cost tables on a flat y make every
        # candidate tie, where the target must be the smallest index
        fire_all = lambda bar: np.ones(bar.shape, dtype=bool)  # noqa: E731
        for m1, m2 in itertools.product((1, 2, 3), repeat=2):
            ties = CostTables(k=1.0 - np.eye(m1), l=0.8 * (1.0 - np.eye(m2)))
            cases = [(admissible_costs(rng, m1, m2), rng.uniform(-2, 2, (m1, m2))),
                     (ties, np.zeros((m1, m2)))]
            for costs, y in cases:
                up = upper_barrier(y, costs)
                lo = lower_barrier(y, costs)
                to_I, _ = _barrier_actions(y, costs, "I", fire_all)
                to_II, _ = _barrier_actions(y, costs, "II", fire_all)
                for i in range(m1):
                    for j in range(m2):
                        ups = {i2: y[i2, j] + costs.k[i, i2] for i2 in range(m1) if i2 != i}
                        los = {j2: y[i, j2] - costs.l[j, j2] for j2 in range(m2) if j2 != j}
                        assert up[i, j] == pytest.approx(min(ups.values(), default=np.inf))
                        assert lo[i, j] == pytest.approx(max(los.values(), default=-np.inf))
                        # first index attaining the extremum; one mode stays put
                        assert to_I[i, j] == (min(ups, key=ups.get) if ups else i)
                        assert to_II[i, j] == (max(los, key=los.get) if los else j)

    def test_barriers_equal_the_tensor_form_bitwise(self, rng):
        # the running reductions against the candidate-tensor oracle on 1-5
        # modes per player, batches of 0-7 rows and a bare matrix; quarter
        # grids make sums exact, so candidates tie often, and the last
        # variant scatters +inf, -inf and NaN entries
        tol = 1e-9

        def fire_rules(y, up):
            # extract_saddle's (Player II defers where Player I fires) and
            # greedy_strategy's
            yield (lambda bar: y >= bar - tol), (lambda bar: (y <= bar + tol) & ~(y >= up - tol))
            yield (lambda bar: bar < y), (lambda bar: bar > y)

        for m1, m2 in itertools.product(range(1, 6), repeat=2):
            k = rng.integers(1, 8, (m1, m1)) / 4.0
            l = rng.integers(1, 8, (m2, m2)) / 4.0
            np.fill_diagonal(k, 0.0)
            np.fill_diagonal(l, 0.0)
            tables = (CostTables(k=k, l=l),
                      CostTables(k=1.0 - np.eye(m1), l=0.8 * (1.0 - np.eye(m2))))
            for costs, rows in itertools.product(tables, (None, *range(8))):
                shape = (m1, m2) if rows is None else (rows, m1, m2)
                flat = np.zeros(shape)
                quarters = rng.integers(-8, 9, shape) / 4.0
                special = quarters.copy()
                hit = rng.random(shape) < 0.2
                special[hit] = rng.choice([np.inf, -np.inf, np.nan], hit.sum())
                # -inf + inf on a diagonal is NaN, as in the tensor form
                with np.errstate(invalid="ignore"):
                    for y in (flat, quarters, special):
                        up, to_I, lo, to_II = tensor_barriers(y, costs)
                        np.testing.assert_array_equal(upper_barrier(y, costs), up)
                        np.testing.assert_array_equal(lower_barrier(y, costs), lo)
                        stay_I, stay_II = np.arange(m1)[:, None], np.arange(m2)
                        for fire_I, fire_II in fire_rules(y, up):
                            for player, fire, bar, to, stay in (
                                    ("I", fire_I, up, to_I, stay_I),
                                    ("II", fire_II, lo, to_II, stay_II)):
                                table, fired = _barrier_actions(y, costs, player, fire)
                                np.testing.assert_array_equal(fired, fire(bar))
                                np.testing.assert_array_equal(
                                    table, np.where(fire(bar), to, stay))

    # 3 rows divide none of the batches of 4-7 rows; 1 row copies one matrix at a time
    @pytest.mark.parametrize("block_rows", [model._REGION_ROWS, 3, 1])
    def test_mode_major_region_check_matches_the_fieldwise_one(self, rng, block_rows,
                                                               monkeypatch):
        # 1-4 modes per player (a 1 x m or m x 1 grid has an infinite
        # barrier), a bare matrix, batches of 0-7 rows and a (2, 3) batch;
        # quarter grids tie often, and the last variant scatters +inf, -inf
        # and NaN entries
        monkeypatch.setattr(model, "_REGION_ROWS", block_rows)
        for m1, m2 in itertools.product(range(1, 5), repeat=2):
            k = rng.integers(1, 8, (m1, m1)) / 4.0
            l = rng.integers(1, 8, (m2, m2)) / 4.0
            np.fill_diagonal(k, 0.0)
            np.fill_diagonal(l, 0.0)
            tables = (CostTables(k=k, l=l),
                      CostTables(k=1.0 - np.eye(m1), l=0.8 * (1.0 - np.eye(m2))))
            for costs, batch in itertools.product(tables, ((), *((n,) for n in range(8)),
                                                           (2, 3))):
                shape = (*batch, m1, m2)
                quarters = rng.integers(-8, 9, shape) / 4.0
                special = quarters.copy()
                hit = rng.random(shape) < 0.2
                special[hit] = rng.choice([np.inf, -np.inf, np.nan], hit.sum())
                with np.errstate(invalid="ignore"):
                    for y, tol in itertools.product((np.zeros(shape), quarters, special),
                                                    (0.0, 1e-9, 0.25)):
                        got = model._outside_region(y, costs, tol)
                        assert got.shape == shape
                        np.testing.assert_array_equal(
                            got, fieldwise_outside_region(y, costs, tol))

    def test_terminal_check_names_the_first_offender(self, rng):
        costs = make_3x3().costs
        tree = build_tree(5, 1, 1.0)
        table = rng.uniform(-2.0, 2.0, (tree.level_size(tree.N), 3, 3))
        table = np.stack([project_oblique(leaf, costs)[0] for leaf in table])
        table[[7, 7, 20], [2, 1, 0], [0, 2, 1]] += [5.0, -5.0, 5.0]
        spec = GameSpec(costs=costs, generator=GeneratorSpec("zero", 3, 3),
                        terminal=TerminalSpec("leaf_table", 3, 3, table=table),
                        horizon=1.0, d=1)
        n, i, j = np.argwhere(fieldwise_outside_region(table, costs, model.REGION_TOL))[0]
        assert n == 7
        with pytest.raises(DataError, match=rf"at leaf 7, mode pair \({i + 1},{j + 1}\) lies "):
            spec.check_terminal(tree)

    def test_region_check_holds_a_fraction_of_a_field(self):
        # the barriers of a whole batch hold two fields at once, and a
        # mode-major copy of it one more; blocks of rows hold the mask and
        # three fields of one block
        costs = make_3x3().costs
        y = np.random.default_rng(0).uniform(-2.0, 2.0, (16 * model._REGION_ROWS, 3, 3))
        in_Qbar(y, costs)
        tracemalloc.start()
        try:
            in_Qbar(y, costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= y.nbytes / 2, peak / y.nbytes

    @pytest.mark.parametrize("shape", [(2, 3), (4, 3), (3, 3), (3,), (5, 2, 3)])
    def test_a_field_off_the_mode_grid_is_refused_naming_both_shapes(self, shape):
        # a (2, 3) field on a 3x2 grid used to pass the region check as one
        # (3, 2) matrix, and a (3, 3) field got (3, 3) barriers
        costs = CostTables(k=1.0 - np.eye(3), l=0.8 * (1.0 - np.eye(2)))
        message = re.escape(f"value shape {shape[-2:]} does not match mode grid (3, 2)")
        for check in (in_Qbar, upper_barrier, lower_barrier, project_oblique_batch):
            with pytest.raises(DataError, match=message):
                check(np.zeros(shape), costs)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-9])
    def test_a_tolerance_that_is_not_finite_and_nonnegative_is_refused(self, tol):
        # a NaN tolerance made every comparison false, so nothing was outside
        with pytest.raises(DataError, match="^tol must be a finite nonnegative number"):
            in_Qbar(np.array([[5.0, 0.0], [0.0, 0.0]]), standard_costs(), tol=tol)
        assert in_Qbar(np.zeros((2, 2)), standard_costs(), tol=0.0)

    def test_barriers_build_no_candidate_tensor(self):
        # a (..., m, m, m') candidate tensor alone holds three fields on a
        # 3x3 grid; the running reduction peaks near two
        costs = make_3x3().costs
        y = np.random.default_rng(0).uniform(-2.0, 2.0, (4096, 3, 3))
        for barrier in (upper_barrier, lower_barrier):
            barrier(y, costs)
            tracemalloc.start()
            try:
                barrier(y, costs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * y.nbytes, (barrier.__name__, peak / y.nbytes)


# ---------------------------------------------------------------------------
# oblique projection
# ---------------------------------------------------------------------------

class TestProjection:
    def test_identity_on_the_domain(self):
        costs = standard_costs()
        y = np.array([[0.1, 0.2], [0.0, 0.1]])
        assert in_Qbar(y, costs, tol=0.0)
        y2, dK, dL = project_oblique(y, costs)
        assert np.array_equal(y2, y)
        assert not dK.any() and not dL.any()

    def test_single_upper_clamp(self):
        costs = CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0]])
        y2, dK, dL = project_oblique(np.array([[3.0], [0.0]]), costs)
        assert np.allclose(y2, [[1.0], [0.0]])
        assert np.allclose(dK, [[2.0], [0.0]])
        assert not dL.any()

    def test_single_lower_clamp(self):
        costs = CostTables(k=[[0.0]], l=[[0.0, 1.0], [1.0, 0.0]])
        y2, dK, dL = project_oblique(np.array([[0.0, 3.0]]), costs)
        assert np.allclose(y2, [[2.0, 3.0]])
        assert np.allclose(dL, [[2.0, 0.0]])
        assert not dK.any()

    def test_mixed_violation_against_randomized_oracle(self, rng):
        costs = standard_costs()
        y = np.array([[4.0, 0.0], [0.0, 0.0]])
        y2, _, _ = project_oblique(y, costs)
        for _ in range(20):
            oracle = random_sweep_projection(y, costs, rng)
            assert np.abs(y2 - oracle).max() < 1e-9

    def test_random_instances_against_randomized_oracle(self, rng):
        for _ in range(30):
            m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            costs = admissible_costs(rng, m1, m2)
            y = rng.uniform(-5, 5, (m1, m2))
            y2, _, _ = project_oblique(y, costs)
            oracle = random_sweep_projection(y, costs, rng)
            assert np.abs(y2 - oracle).max() < 1e-9

    def test_projection_lands_in_domain_and_is_idempotent(self, rng):
        for _ in range(200):
            m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            costs = admissible_costs(rng, m1, m2)
            y = rng.uniform(-5, 5, (m1, m2))
            y2, dK, dL = project_oblique(y, costs)
            assert in_Qbar(y2, costs, tol=2e-12)
            assert np.min(np.minimum(dK, dL)) == 0.0
            assert np.max(dK * dL) == 0.0
            y3, dK3, dL3 = project_oblique(y2, costs)
            assert np.abs(y3 - y2).max() < 1e-9
            assert dK3.max() < 1e-9 and dL3.max() < 1e-9

    def test_sweep_orders_agree(self, rng):
        for _ in range(200):
            m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            costs = admissible_costs(rng, m1, m2)
            y = rng.uniform(-5, 5, (m1, m2))
            ya, _, _ = project_oblique(y, costs)
            yb = swapped_projection(y, costs)
            assert np.abs(ya - yb).max() <= 1e-9, (y, costs.k, costs.l)

    def test_complementarity_pins_pushed_coordinates_to_barriers(self, rng):
        for _ in range(100):
            costs = admissible_costs(rng, 2, 2)
            y = rng.uniform(-5, 5, (2, 2))
            y2, dK, dL = project_oblique(y, costs)
            up = upper_barrier(y2, costs)
            lo = lower_barrier(y2, costs)
            assert np.all(np.abs(y2 - up)[dK > 1e-9] < 1e-9)
            assert np.all(np.abs(y2 - lo)[dL > 1e-9] < 1e-9)

    def test_batch_agrees_with_single(self, rng):
        costs = admissible_costs(rng, 2, 2)
        ys = rng.uniform(-5, 5, (16, 2, 2))
        batch, dK, dL = project_oblique_batch(ys, costs)
        for p in range(16):
            one, dk1, dl1 = project_oblique(ys[p], costs)
            assert np.abs(batch[p] - one).max() < 1e-12
            assert np.abs(dK[p] - dk1).max() < 1e-12

    def test_zero_cost_loop_raises_naming_the_loop(self):
        # symmetric costs cancel around the four-cycle; the projection can
        # chase its tail forever, so the guard must trip with a diagnosis
        costs = CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConvergenceError, match=r"\(1,1\)->"):
            project_oblique(np.array([[4.0, 0.0], [0.0, 3.0]]), costs)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DataError):
            project_oblique(np.zeros((3, 2)), standard_costs())

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_property_projection_contract(self, seed):
        r = np.random.default_rng(seed)
        m1, m2 = int(r.integers(1, 4)), int(r.integers(1, 4))
        costs = admissible_costs(r, m1, m2)
        y = r.uniform(-5, 5, (m1, m2))
        y2, dK, dL = project_oblique(y, costs)
        assert in_Qbar(y2, costs, tol=2e-12)
        assert np.max(dK * dL) == 0.0
        assert np.abs(y2 - swapped_projection(y, costs)).max() <= 1e-9

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_property_one_sided_clamps_equal_the_sweep(self, seed):
        # under the strict triangle inequality one clamp from the original
        # values is the one-sided sweep's fixed point, bit for bit; costs in
        # [1, 2) always satisfy it, so 4-mode tables need no rejection loop
        r = np.random.default_rng(seed)
        m1, m2 = (int(m) for m in r.integers(1, 5, 2))
        k, l = r.uniform(1.0, 2.0, (m1, m1)), r.uniform(1.0, 2.0, (m2, m2))
        np.fill_diagonal(k, 0.0)
        np.fill_diagonal(l, 0.0)
        costs = CostTables(k=k, l=l)
        assert validate_cost_matrices(costs).ok
        y = r.uniform(-5, 5, (int(r.integers(1, 9)), m1, m2))
        np.testing.assert_array_equal(np.minimum(y, upper_barrier(y, costs)),
                                      upper_sweep(y, costs))
        np.testing.assert_array_equal(np.maximum(y, lower_barrier(y, costs)),
                                      lower_sweep(y, costs))


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


def planted_batch(rng, costs, kind, n=60):
    """A batch of n matrices that are all strictly inside the region, all
    outside it, or mixed, with exact ties with each barrier and -0.0 planted
    in some of them."""
    m1, m2 = costs.m1, costs.m2
    half = min(costs.k_off.min(), costs.l_off.min(), 2.0) / 2.0    # strictly inside below
    y = rng.uniform(-half, half, (n, m1, m2)) * 0.99
    wild = {"inside": np.zeros(n, bool), "outside": np.ones(n, bool),
            "mixed": rng.random(n) < 0.5}[kind]
    y[wild] = rng.uniform(-5.0, 5.0, (int(wild.sum()), m1, m2))
    y[::7, 0, 0] = -0.0
    if m1 > 1:          # on the upper barrier through i' = 1, exactly
        y[1::7, 0, -1] = y[1::7, 1, -1] + costs.k[0, 1]
    if m2 > 1:          # on the lower barrier through j' = 1, exactly
        y[2::7, -1, 0] = y[2::7, -1, 1] - costs.l[0, 1]
    return y


class TestProjectionSkipsInsideMatrices:
    """Only the matrices outside the region are swept; the rest are copied.
    Outputs are bit for bit those of sweeping every matrix."""

    @pytest.mark.parametrize("kind", ["inside", "outside", "mixed"])
    @pytest.mark.parametrize("m1, m2", list(itertools.product([1, 2, 3], repeat=2)))
    def test_bitwise_equal_to_sweeping_every_matrix(self, m1, m2, kind):
        rng = np.random.default_rng([m1, m2, len(kind)])
        for _ in range(4):
            costs = admissible_costs(rng, m1, m2)
            y = planted_batch(rng, costs, kind)
            assert_same_bits(project_oblique_batch(y, costs), sweep_every_matrix(y, costs))
            assert_same_bits(project_oblique(y[1], costs), sweep_every_matrix(y[1], costs))

    def test_a_signed_zero_tie_is_swept(self):
        # -0.0 sits exactly on its upper barrier -1.0 + 1.0 = +0.0, inside in
        # value; the sweep's clamp returns +0.0 there, so the matrix is swept
        y = np.array([[[-0.0, 0.5], [-1.0, -0.3]], [[0.1, 0.2], [0.0, 0.1]]])
        got = project_oblique_batch(y, standard_costs())
        assert not np.signbit(got[0][0, 0, 0])
        assert_same_bits(got, sweep_every_matrix(y, standard_costs()))

    def test_a_sweep_that_only_flips_signed_zeros_is_the_fixed_point(self):
        # -0.0 ties its upper barrier -1.0 + 1.0 = +0.0 in the first matrix
        # and its lower barrier 0.8 - 0.8 = +0.0 in the third; +0.0 ties in
        # the second.  The first sweep turns each -0.0 into +0.0 and moves
        # nothing else, and -0.0 == +0.0, so that sweep ends the loop
        assert not hasattr(model, "PROJECTION_TOL")
        costs = standard_costs()
        y = np.array([[[-0.0, 0.5], [-1.0, -0.3]], [[0.0, 0.5], [-1.0, -0.3]],
                      [[0.8, -0.0], [0.5, 0.3]]])
        flipped = np.where(y == 0.0, 0.0, y)
        assert np.signbit(y).sum() - np.signbit(flipped).sum() == 2
        settled = np.ascontiguousarray(np.moveaxis(y, 0, -1))
        model._sweep(settled, np.arange(len(y)), costs, 1)
        assert_same_bits([np.moveaxis(settled, -1, 0)], [flipped])
        got = project_oblique_batch(y, costs)
        assert_same_bits(got, (flipped, np.zeros_like(y), np.zeros_like(y)))
        assert_same_bits(got, sweep_every_matrix(y, costs))

    def test_no_sweep_runs_when_every_matrix_is_inside(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("swept a batch that is inside the region")

        monkeypatch.setattr(model, "_sweep", refuse)
        costs = make_3x3().costs
        y = planted_batch(np.random.default_rng(5), costs, "inside")[3:7]
        assert_same_bits(project_oblique_batch(y, costs), (y, np.zeros_like(y), np.zeros_like(y)))
        assert_same_bits(project_oblique_batch(y[:0], costs), (y[:0], y[:0], y[:0]))

    def test_any_leading_batch_shape_projects_each_matrix(self, rng):
        # a (2, 3, 4) batch of matrices projects as the flat batch of 24
        costs = admissible_costs(rng, 2, 3)
        flat = planted_batch(rng, costs, "mixed", n=24)
        got = project_oblique_batch(flat.reshape(2, 3, 4, 2, 3), costs)
        assert_same_bits([a.reshape(flat.shape) for a in got], sweep_every_matrix(flat, costs))

    def test_zero_cost_loop_fails_with_the_same_message(self):
        costs = CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0, 1.0], [1.0, 0.0]])
        inside = np.array([[0.1, 0.2], [0.0, 0.1]])
        y = np.stack([inside, [[4.0, 0.0], [0.0, 3.0]], inside])
        with pytest.raises(ConvergenceError) as want:
            sweep_every_matrix(y, costs)
        with pytest.raises(ConvergenceError) as got:
            project_oblique_batch(y, costs)
        assert str(got.value) == str(want.value)
        # inside matrices alone settle under any costs
        assert_same_bits(project_oblique_batch(y[[0, 2]], costs),
                         sweep_every_matrix(y[[0, 2]], costs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("m2", [1, 2])
    def test_non_finite_values_raise_a_data_error_naming_the_entry(self, bad, m2):
        costs = CostTables(k=STANDARD_K, l=STANDARD_L if m2 == 2 else [[0.0]])
        y = np.zeros((5, 2, m2))
        y[3, 1, 0] = bad
        y[4, 0, 0] = bad
        with pytest.raises(DataError, match=rf"{bad!r} at matrix 3, mode pair \(2,1\)"):
            project_oblique_batch(y, costs)
        with pytest.raises(DataError, match=r"matrix 0, mode pair \(2,1\)"):
            project_oblique(y[3], costs)

    def test_a_span_past_the_float_range_raises_a_data_error(self):
        with pytest.raises(DataError, match="span"):
            project_oblique(np.array([[1e308, 0.0], [0.0, -1e308]]), standard_costs())

    def test_peak_memory_stays_below_sweeping_every_matrix(self):
        # the three outputs hold three fields of the batch and the sweep's
        # copies a quarter of one each; one more temporary the size of the
        # batch passes the bound (sweeping every matrix peaked at 8.1 fields
        # under tracemalloc, NumPy 2.4)
        rng = np.random.default_rng(0)
        costs = make_3x3().costs
        y = rng.uniform(-0.3, 0.3, (65536, 3, 3))
        wild = rng.random(len(y)) < 0.25
        y[wild] = rng.uniform(-2.0, 2.0, (int(wild.sum()), 3, 3))
        project_oblique_batch(y[:64], costs)
        tracemalloc.start()
        try:
            project_oblique_batch(y, costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * y.nbytes, peak / y.nbytes


def sweep_grid_costs(rng, m1, m2):
    """Admissible costs on an m1 x m2 grid, for the sweep alone past the loop
    cap.  Random tables past three modes rarely pass the triangle test, so
    the player with more modes pays 1.5 to 1.6 per switch and the other 0.9
    to 1.1.  A primary loop longer than two steps never switches the player
    with two modes twice in a row, so its alternating cost is at least 0.4
    per switch of the player with more modes away from zero."""
    if max(m1, m2) <= 3:
        return admissible_costs(rng, m1, m2)
    big, small = (1.5, 1.6), (0.9, 1.1)
    k = rng.uniform(*(big if m1 > m2 else small), (m1, m1))
    l = rng.uniform(*(big if m2 > m1 else small), (m2, m2))
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(l, 0.0)
    costs = CostTables(k=k, l=l)
    assert validate_cost_matrices(costs).ok
    return costs


def first_repeats(y, costs, sweeps=64):
    """Per matrix of the (rows, m1, m2) batch y, the first sweep of
    `reduction_sweeps` that reproduces it bit for bit (0: none of `sweeps`)."""
    orig = np.ascontiguousarray(np.moveaxis(y, 0, -1))
    first = np.zeros(len(y), dtype=int)
    prev = orig
    for sweep, work in zip(range(1, sweeps + 1), reduction_sweeps(orig, costs)):
        repeat = (work.view(np.int64) == prev.view(np.int64)).all(axis=(0, 1))
        first[repeat & (first == 0)] = sweep
        prev = work
    return first


class TestSettledMatricesLeaveTheSweep:
    """A matrix leaves the sweep at its first bit-for-bit repeat, and each
    barrier folds only the other modes; the bits are those of the reduction
    over all modes that swept every matrix until the batch settled."""

    GRIDS = [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (2, 8), (8, 2), (1, 9)]

    @pytest.mark.parametrize("kind", ["inside", "outside", "mixed"])
    @pytest.mark.parametrize("m1, m2", GRIDS)
    def test_bitwise_equal_to_the_reduction_sweep(self, m1, m2, kind):
        rng = np.random.default_rng([m1, m2, len(kind), 23])
        for _ in range(3):
            costs = sweep_grid_costs(rng, m1, m2)
            y = planted_batch(rng, costs, kind, n=120)
            # the sweep on every matrix, inside or not; past the loop cap the
            # costs above keep 2000 sweeps past need
            enumerable = m1 * m2 <= model.DEFAULT_LOOP_CAP
            cap = _sweep_cap(y, costs) if enumerable else 2000
            orig = np.ascontiguousarray(np.moveaxis(y, 0, -1))
            got = orig.copy()
            model._sweep(got, np.arange(len(y)), costs, cap)
            assert_same_bits([got], [tolerance_sweep(orig, costs, cap, 0.0)])
            if enumerable:
                assert_same_bits(project_oblique_batch(y, costs),
                                 sweep_every_matrix(y, costs, tol=0.0))

    def test_matrices_settling_at_every_sweep_count_in_one_batch(self):
        costs = make_3x3().costs
        y = planted_batch(np.random.default_rng(1), costs, "mixed", n=200)
        counts = np.bincount(first_repeats(y, costs))
        assert counts[0] == 0 and (counts[1:6] > 0).all() and counts[6:].sum() > 0, counts
        assert_same_bits(project_oblique_batch(y, costs), sweep_every_matrix(y, costs, tol=0.0))

    def test_random_batch_drawn_like_the_bench_setup(self):
        # the leaf tables of direct_path_3x3: uniform(-2, 2) on the perf costs
        costs = make_3x3().costs
        y = np.random.default_rng(23).uniform(-2.0, 2.0, (2 ** 12, 3, 3))
        assert_same_bits(project_oblique_batch(y, costs), sweep_every_matrix(y, costs, tol=0.0))

    def test_peak_memory_makes_no_copy_of_the_live_matrices(self):
        # sweeping until the whole batch settled peaked at 4.67 fields of
        # this batch under tracemalloc (NumPy 2.4): the output, the sweep's
        # three buffers, its (m, rows) reduction temporaries and the row
        # indices.  One compacted copy of the live matrices adds most of a
        # field in the first sweeps, where nearly every matrix is live
        costs = make_3x3().costs
        y = np.random.default_rng(0).uniform(-2.0, 2.0, (2 ** 17, 3, 3))
        project_oblique_batch(y[:64], costs)
        tracemalloc.start()
        try:
            project_oblique_batch(y, costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.7 * y.nbytes, peak / y.nbytes


# ---------------------------------------------------------------------------
# generators / terminals / game spec
# ---------------------------------------------------------------------------

class TestGeneratorSpec:
    def test_zero_family(self):
        gen = GeneratorSpec("zero", 2, 2)
        assert gen.lipschitz == 0.0 and gen.sup_bound == 0.0
        assert not gen(0.0, None, np.ones((2, 2)), np.ones((1, 2, 2))).any()

    def test_mode_constant_bounds(self):
        gen = GeneratorSpec("mode_constant", 2, 2, c=[[2.0, -2.0], [-2.0, 2.0]])
        assert gen.lipschitz == 0.0
        assert gen.sup_bound == 2.0
        np.testing.assert_array_equal(
            gen.at_modes(0.0, None, np.zeros(2), np.zeros((2, 1)),
                         np.array([0, 1]), np.array([1, 0])),
            [-2.0, -2.0],
        )

    def test_saturated_affine_constants_are_exact(self):
        gen = GeneratorSpec("saturated_affine", 2, 2, d=2, a=-1.5,
                            b=[0.3, -0.4], M=2.0, c=[[0.1, 0.0], [0.0, 0.1]])
        assert gen.lipschitz == pytest.approx(1.5)
        assert gen.sup_bound == pytest.approx(1.5 * 2 + 0.7 * 2 + 0.1)

    def test_saturation_clamps(self):
        gen = GeneratorSpec("saturated_affine", 2, 2, a=1.0, M=1.0)
        out = gen(0.0, None, np.full((2, 2), 50.0), np.zeros((1, 2, 2)))
        np.testing.assert_allclose(out, 1.0)

    @pytest.mark.parametrize("M", [0.8, 0.0])
    def test_level_form_saturates_as_np_clip(self, M):
        # planted: both saturation levels exactly, signed zeros, infinities
        gen = GeneratorSpec("saturated_affine", 2, 2, d=2, a=-0.7, b=[0.3, -0.4], M=M,
                            c=[[0.0, -0.0], [0.5, -0.5]])
        rng = np.random.default_rng(3)
        y, z = rng.uniform(-2.0, 2.0, (50, 2, 2)), rng.uniform(-2.0, 2.0, (50, 2, 2, 2))
        for a in (y, z):
            flat = a.reshape(-1)
            flat[:6] = [M, -M, 0.0, -0.0, np.inf, -np.inf]
            flat[6::11] = -0.0
        want = fieldwise_generator(gen)(0.0, None, y, z)
        # the level form reads the kernel's mode-major fields, nodes last
        got = gen.at_level(0.0, None, np.moveaxis(z, 0, -1))(np.moveaxis(y, 0, -1))
        np.testing.assert_array_equal(got.view(np.uint64),
                                      np.moveaxis(want, 0, -1).view(np.uint64))
        np.testing.assert_array_equal(gen(0.0, None, y, z).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 3])
    def test_call_broadcasts_a_z_without_the_leading_axes(self, n):
        # z carries no leading axes, so c and the z term keep their m1 rows
        # on axis 0: none of them is taken for a stacked problem
        gen = GeneratorSpec("saturated_affine", 2, 2, d=2, a=0.5, b=[0.3, -0.4], M=1.0,
                            c=[[1.0, -1.0], [-1.0, 1.0]])
        rng = np.random.default_rng(5)
        y, z = rng.uniform(-2.0, 2.0, (n, 2, 2)), rng.uniform(-2.0, 2.0, (2, 2, 2))
        want = fieldwise_generator(gen)(0.0, None, y, z)
        np.testing.assert_array_equal(gen(0.0, None, y, z).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("M", [-1.0, -0.5, -5e-324])
    def test_negative_saturation_level_is_refused(self, M):
        # M = -1 made sat_M the constant -1 and put sup_bound at 1.3, below
        # max|c| = 2, so penalize.csv's penalty_bound was wrong
        with pytest.raises(DataError, match=rf"^M must be a nonnegative number; got {M!r}$"):
            GeneratorSpec("saturated_affine", 2, 2, a=0.5, b=[0.2], M=M, c=STANDARD_C)

    def test_zero_saturation_level_is_accepted(self):
        gen = GeneratorSpec("saturated_affine", 2, 2, a=0.5, b=[0.2], M=-0.0, c=STANDARD_C)
        assert gen.sup_bound == 2.0

    def test_family_misuse_rejected(self):
        with pytest.raises(DataError):
            GeneratorSpec("zero", 2, 2, c=[[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DataError):
            GeneratorSpec("mode_constant", 2, 2, c=np.zeros((2, 2)), a=1.0)
        with pytest.raises(DataError):
            GeneratorSpec("fancy", 2, 2)


class TestTerminalSpec:
    def test_constant_and_affine_evaluation(self):
        leaf_w = np.array([[0.5], [-0.5]])
        const = TerminalSpec("constant", 2, 2, alpha=[[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(const.evaluate(leaf_w)[0], [[1.0, 2.0], [3.0, 4.0]])
        aff = TerminalSpec("affine", 2, 2, alpha=np.zeros((2, 2)), beta=np.ones((2, 2)))
        np.testing.assert_allclose(aff.evaluate(leaf_w)[:, 0, 0], [0.5, -0.5])
        assert const.markovian and aff.markovian

    def test_leaf_table_is_tied_to_one_tree_shape(self):
        term = TerminalSpec("leaf_table", 2, 2, table=np.zeros((4, 2, 2)))
        assert not term.markovian
        with pytest.raises(DataError):
            term.evaluate(np.zeros((8, 1)))

    def test_terminal_outside_domain_names_leaf_and_pair(self):
        spec = GameSpec(
            costs=standard_costs(),
            generator=GeneratorSpec("zero", 2, 2),
            terminal=TerminalSpec("constant", 2, 2, alpha=[[5.0, 0.0], [0.0, 0.0]]),
            horizon=1.0,
        )
        with pytest.raises(DataError, match=r"leaf 0.*\(1,1\)"):
            spec.check_terminal(build_tree(1, 1, 1.0))

    def test_grid_mismatch_rejected(self):
        with pytest.raises(DataError):
            GameSpec(
                costs=standard_costs(),
                generator=GeneratorSpec("zero", 3, 2),
                terminal=TerminalSpec("constant", 2, 2, alpha=np.zeros((2, 2))),
                horizon=1.0,
            )

    def test_generator_of_another_brownian_dimension_is_refused(self):
        # a d=2 game with a d=1 generator read its z term off z[0] alone
        with pytest.raises(DataError, match=r"^generator has Brownian dimension d=1, "
                                            r"but the game has d=2$"):
            GameSpec(costs=standard_costs(),
                     generator=GeneratorSpec("saturated_affine", 2, 2, a=0.5, b=[0.2]),
                     terminal=TerminalSpec("constant", 2, 2, alpha=np.zeros((2, 2))),
                     horizon=1.0, d=2)

    @pytest.mark.parametrize("N,d,T,differ", [
        (4, 1, 1.0, "horizon 1.0 against the game's 0.24"),
        (2, 2, 0.24, "d 2 against the game's 1"),
        (2, 2, 1.0, "d 2 against the game's 1; horizon 1.0 against the game's 0.24"),
    ], ids=["horizon", "d", "d_and_horizon"])
    def test_tree_of_another_game_is_refused(self, N, d, T, differ):
        # solve_rbsde of this horizon-0.24 game on build_tree(4, 1, 1.0)
        # returned a root without an error
        tree = build_tree(N, d, T)
        message = re.escape(f"the tree does not fit the game: {differ}")
        with pytest.raises(DataError, match=f"^{message}$"):
            make_standard().check_terminal(tree)
        with pytest.raises(DataError, match=f"^{message}$"):
            solve_rbsde(make_standard(), tree)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0, 0.0])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        with pytest.raises(DataError, match="horizon"):
            GameSpec(
                costs=standard_costs(),
                generator=GeneratorSpec("zero", 2, 2),
                terminal=TerminalSpec("constant", 2, 2, alpha=np.zeros((2, 2))),
                horizon=horizon,
            )
