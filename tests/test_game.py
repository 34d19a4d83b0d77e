"""Strategies, the switched system, saddle extraction/verification, and the
strategy-enumeration oracles."""

import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from switchgame import build_tree, game
from switchgame.errors import DataError, SizingError
from switchgame.game import (
    FeedbackStrategy,
    SwitchedValue,
    _best_reply,
    _catalog,
    _certificate_margin,
    _resolve_modes,
    brute_force_value,
    eval_switched,
    extract_saddle,
    greedy_strategy,
    simulate_path,
    solve_lower_reflected,
    verify_saddle,
)
from switchgame.bsde import PICARD_TOL, picard_solve
from switchgame.model import (
    CostTables,
    GameSpec,
    GeneratorSpec,
    TerminalSpec,
)
from switchgame.reflected import RbsdeSolution, solve_rbsde
from switchgame.runner import parse_scenario

from conftest import (
    NoEntryReads,
    feedback_strategies,
    lower_sweep,
    make_standard,
    n2_fixture_set,
    per_strategy_brute_force,
    random_admissible_spec,
    standard_costs,
    time_budget,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "switchgame" / "scenarios"


def resolve_oracle(a_tbl, b_tbl, node, i, j, k, l, cap):
    """Scalar re-implementation of the within-step mode settlement: alternate
    reading the two tables, Player I first, until neither moves.  Returns the
    final modes, both charged costs, and the event list [('I'|'II', frm, to)].
    """
    events = []
    costA = costB = 0.0
    switches = 0
    while switches < cap:
        moved = False
        ni = int(a_tbl[node, i, j])
        if ni != i:
            events.append(("I", i, ni))
            costA += k[i, ni]
            i = ni
            moved = True
            switches += 1
        if switches < cap:
            nj = int(b_tbl[node, i, j])
            if nj != j:
                events.append(("II", j, nj))
                costB += l[j, nj]
                j = nj
                moved = True
                switches += 1
        if not moved:
            break
    return i, j, costA, costB, events


def resolve_modes_loop(A, B, m1, m2, k, l):
    """Round-by-round vectorized mode settlement, the oracle for
    `game._resolve_modes` (same signature and results): alternate the two
    read-outs over every (node, i, j), Player I first, for at most
    4*m1*m2 + 1 rounds, stopping switches at 4*m1*m2 per entry.
    """
    cap = 4 * m1 * m2
    n_idx = np.arange(A.shape[0])[:, None, None]
    ci = np.broadcast_to(np.arange(m1)[None, :, None], A.shape).copy()
    cj = np.broadcast_to(np.arange(m2)[None, None, :], A.shape).copy()
    costA = np.zeros(A.shape)
    costB = np.zeros(A.shape)
    switches = np.zeros(A.shape, dtype=int)
    for _ in range(cap + 1):
        ni = A[n_idx, ci, cj]
        movI = (ni != ci) & (switches < cap)
        costA += np.where(movI, k[ci, ni], 0.0)
        ci = np.where(movI, ni, ci)
        switches += movI
        nj = B[n_idx, ci, cj]
        movJ = (nj != cj) & (switches < cap)
        costB += np.where(movJ, l[cj, nj], 0.0)
        cj = np.where(movJ, nj, cj)
        switches += movJ
        if not (movI.any() or movJ.any()):
            break
    return ci, cj, costA, costB


def settled(A, B, m1, m2, k, l):
    """`game._resolve_modes` in the node-major terms of its loop oracle: the
    settled (i, j) tables and both players' costs, shaped like A."""
    pos, costA, costB = _resolve_modes(A, B, m1, m2, k, l)
    i, j = np.divmod(pos // A.shape[0], m2)
    return tuple(np.moveaxis(f, -1, 0) for f in (i, j, costA, costB))


def flat_positions(resolve):
    """A resolver of node-major (i, j, costA, costB) tables made to answer as
    `game._resolve_modes` does: flat positions ``pair * n + node`` in a
    mode-major field, and both costs, all mode-major."""
    def wrapped(A, B, m1, m2, k, l):
        i, j, costA, costB = (np.moveaxis(f, 0, -1) for f in resolve(A, B, m1, m2, k, l))
        n = A.shape[0]
        return (i * m2 + j) * n + np.arange(n), costA, costB
    return wrapped


class TestModeResolution:
    def test_matches_scalar_oracle_on_random_tables(self, rng):
        k = np.array(standard_costs().k)
        l = np.array(standard_costs().l)
        for _ in range(200):
            n_t = int(rng.integers(1, 5))
            A = rng.integers(0, 2, (n_t, 2, 2))
            B = rng.integers(0, 2, (n_t, 2, 2))
            ci, cj, cA, cB = settled(A, B, 2, 2, k, l)
            for n in range(n_t):
                for i in range(2):
                    for j in range(2):
                        oi, oj, oA, oB, _ = resolve_oracle(A, B, n, i, j, k, l, 16)
                        assert (ci[n, i, j], cj[n, i, j]) == (oi, oj)
                        assert cA[n, i, j] == pytest.approx(oA)
                        assert cB[n, i, j] == pytest.approx(oB)

    def test_chain_cost_dominates_direct_switch(self, rng):
        # consequence of the strict triangle inequalities: a settled chain
        # never beats the direct switch to the same final mode, and a chain
        # with a repeated-player switch is strictly more expensive
        k = np.array(standard_costs().k)
        l = np.array(standard_costs().l)
        for _ in range(300):
            A = rng.integers(0, 2, (1, 2, 2))
            B = rng.integers(0, 2, (1, 2, 2))
            for i in range(2):
                for j in range(2):
                    fi, fj, cA, cB, events = resolve_oracle(A, B, 0, i, j, k, l, 16)
                    direct_A = 0.0 if fi == i else k[i, fi]
                    direct_B = 0.0 if fj == j else l[j, fj]
                    assert cA >= direct_A - 1e-12
                    assert cB >= direct_B - 1e-12
                    if sum(e[0] == "I" for e in events) >= 2:
                        assert cA > direct_A
                    if sum(e[0] == "II" for e in events) >= 2:
                        assert cB > direct_B

    def test_stay_tables_never_move(self):
        tree = build_tree(2, 1, 1.0)
        a = FeedbackStrategy.stay("I", tree, 2, 2)
        b = FeedbackStrategy.stay("II", tree, 2, 2)
        ci, cj, cA, cB = settled(a.actions[0], b.actions[0], 2, 2,
                                        np.array(standard_costs().k),
                                        np.array(standard_costs().l))
        np.testing.assert_array_equal(ci[0], [[0, 0], [1, 1]])
        np.testing.assert_array_equal(cj[0], [[0, 1], [0, 1]])
        assert not cA.any() and not cB.any()


class TestClosedFormResolution:
    """`_resolve_modes` (flat-position reads, masked at the cap) against the
    round-by-round loop oracle, bit for bit."""

    @staticmethod
    def _tables(rng, n_t, m1, m2, derange):
        if derange:
            # every read asks for a switch, so the walks cycle into the cap
            A = (np.arange(m1)[None, :, None]
                 + rng.integers(1, max(m1, 2), (n_t, m1, m2))) % m1
            B = (np.arange(m2)[None, None, :]
                 + rng.integers(1, max(m2, 2), (n_t, m1, m2))) % m2
        else:
            A = rng.integers(0, m1, (n_t, m1, m2))
            B = rng.integers(0, m2, (n_t, m1, m2))
        return A, B

    def test_matches_loop_oracle_fuzz(self, rng):
        capped = cut = bitwise = 0
        for m1 in range(1, 5):
            for m2 in range(1, 5):
                cap = 4 * m1 * m2
                for trial in range(12):
                    n_t = int(rng.integers(1, 6))
                    A, B = self._tables(rng, n_t, m1, m2, derange=trial % 2 == 1)
                    # nonzero diagonals: only switches that happen may be charged
                    k = rng.uniform(0.1, 2.0, (m1, m1))
                    l = rng.uniform(0.1, 2.0, (m2, m2))
                    ci, cj, cA, cB = settled(A, B, m1, m2, k, l)
                    oi, oj, oA, oB = resolve_modes_loop(A, B, m1, m2, k, l)
                    np.testing.assert_array_equal(ci, oi)
                    np.testing.assert_array_equal(cj, oj)
                    np.testing.assert_array_equal(cA, oA)
                    np.testing.assert_array_equal(cB, oB)
                    # unit costs turn the charges into per-player switch counts
                    ones_k, ones_l = np.ones((m1, m1)), np.ones((m2, m2))
                    _, _, nA, nB = settled(A, B, m1, m2, ones_k, ones_l)
                    _, _, onA, onB = resolve_modes_loop(A, B, m1, m2,
                                                        ones_k, ones_l)
                    np.testing.assert_array_equal(nA, onA)
                    np.testing.assert_array_equal(nB, onB)
                    few = (onA <= 2) & (onB <= 2)
                    np.testing.assert_array_equal(cA[few], oA[few])
                    np.testing.assert_array_equal(cB[few], oB[few])
                    bitwise += int(few.sum())
                    for n, i, j in zip(*np.nonzero(onA + onB == cap)):
                        capped += 1
                        fi, fj, _, _, events = resolve_oracle(A, B, n, i, j, k, l, cap)
                        # the cap-th switch was Player I's and cut Player II off
                        cut += events[-1][0] == "I" and B[n, fi, fj] != fj
        assert capped > 0 and cut > 0 and bitwise > 0


class TestEvalSwitched:
    def test_stay_pair_is_plain_expectation(self, standard_spec):
        spec = make_standard(driver="zero")
        tree = build_tree(3, 1, spec.horizon)
        a = FeedbackStrategy.stay("I", tree, 2, 2)
        b = FeedbackStrategy.stay("II", tree, 2, 2)
        val = eval_switched(spec, tree, a, b)
        xi = spec.check_terminal(tree)
        np.testing.assert_allclose(val.root, xi.mean(axis=0), atol=1e-12)

    def test_single_switch_adds_one_cost(self):
        spec = make_standard(driver="zero")
        tree = build_tree(3, 1, spec.horizon)
        a = FeedbackStrategy.constant("I", tree, 2, 2, 1)  # always hold mode 2
        b = FeedbackStrategy.stay("II", tree, 2, 2)
        val = eval_switched(spec, tree, a, b)
        xi = spec.check_terminal(tree)
        for j in range(2):
            assert val.root[0, j] == pytest.approx(xi.mean(axis=0)[1, j] + 1.0)
            assert val.root[1, j] == pytest.approx(xi.mean(axis=0)[1, j])

    def test_player_II_switch_subtracts_cost(self):
        spec = make_standard(driver="zero")
        tree = build_tree(2, 1, spec.horizon)
        a = FeedbackStrategy.stay("I", tree, 2, 2)
        b = FeedbackStrategy.constant("II", tree, 2, 2, 0)
        val = eval_switched(spec, tree, a, b)
        xi = spec.check_terminal(tree)
        assert val.root[0, 1] == pytest.approx(xi.mean(axis=0)[0, 0] - 0.8)

    def test_forward_backward_equivalence(self, rng, standard_spec):
        # backward evaluation must equal the forward oracle: average over all
        # paths of terminal value + sum of driver contributions + cost delta
        tree = build_tree(3, 1, standard_spec.horizon)
        c = standard_spec.generator.c
        xi = standard_spec.check_terminal(tree)
        for _ in range(5):
            a = FeedbackStrategy.random("I", tree, 2, 2, rng)
            b = FeedbackStrategy.random("II", tree, 2, 2, rng)
            val = eval_switched(standard_spec, tree, a, b)
            for start in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                total = 0.0
                for path in range(2 ** 3):
                    branches = [(path >> t) & 1 for t in range(3)]
                    nodes, modes, A, B = simulate_path(
                        standard_spec, tree, a, b, start, branches)
                    drift = sum(tree.dt * c[modes[t + 1]] for t in range(3))
                    total += xi[nodes[-1], modes[-1][0], modes[-1][1]] \
                        + drift + A[-1] - B[-1]
                total /= 2 ** 3
                assert val.root[start] == pytest.approx(total, abs=1e-10)

    def test_cost_accounting_is_exact(self, rng, standard_spec):
        tree = build_tree(4, 1, standard_spec.horizon)
        k = np.array(standard_costs().k)
        l = np.array(standard_costs().l)
        for _ in range(10):
            a = FeedbackStrategy.random("I", tree, 2, 2, rng)
            b = FeedbackStrategy.random("II", tree, 2, 2, rng)
            branches = rng.integers(0, 2, 4)
            nodes, modes, A, B = simulate_path(standard_spec, tree, a, b, (0, 0),
                                               branches)
            i, j = 0, 0
            expA = expB = 0.0
            for t in range(4):
                fi, fj, _, _, events = resolve_oracle(
                    a.actions[t], b.actions[t], nodes[t], i, j, k, l, 16)
                # replay the additions event by event so the float sums match
                # the simulator's bit for bit
                for who, frm, to in events:
                    if who == "I":
                        expA += k[frm, to]
                    else:
                        expB += l[frm, to]
                i, j = fi, fj
                assert modes[t + 1] == (fi, fj)
                assert A[t + 1] == expA  # exact, no tolerance
                assert B[t + 1] == expB
            # cumulative costs never decrease
            assert all(x2 >= x1 for x1, x2 in zip(A, A[1:]))
            assert all(x2 >= x1 for x1, x2 in zip(B, B[1:]))

    def test_player_order_is_checked(self, standard_spec):
        tree = build_tree(2, 1, standard_spec.horizon)
        a = FeedbackStrategy.stay("I", tree, 2, 2)
        with pytest.raises(DataError):
            eval_switched(standard_spec, tree, a, a)

    def test_action_tables_are_checked(self, standard_spec):
        tree = build_tree(2, 1, standard_spec.horizon)
        a = FeedbackStrategy.stay("I", tree, 2, 2)
        b = FeedbackStrategy.stay("II", tree, 2, 2)
        bad = FeedbackStrategy("I", [x.copy() for x in a.actions])
        bad.actions[1][0, 1, 0] = 2            # mode 3 of a 2-mode player
        with pytest.raises(DataError, match="modes 1..2"):
            eval_switched(standard_spec, tree, bad, b)
        bad.actions[1][0, 1, 0] = -1
        with pytest.raises(DataError):
            eval_switched(standard_spec, tree, bad, b)
        with pytest.raises(DataError):
            eval_switched(standard_spec, tree, a,
                          FeedbackStrategy("II", [x[:, :1] for x in b.actions]))
        with pytest.raises(DataError):
            eval_switched(standard_spec, tree, a, FeedbackStrategy("II", b.actions[:1]))

    def test_every_entry_point_rejects_out_of_range_modes(self, standard_spec):
        # -1 would wrap to the last mode and 2 overruns a 2-mode player.  The
        # bad Player-I rows stay j-uniform, so the representation route
        # reaches the range check, and the paths below visit the bad entries.
        tree = build_tree(2, 1, standard_spec.horizon)
        a = FeedbackStrategy.stay("I", tree, 2, 2)
        b = FeedbackStrategy.stay("II", tree, 2, 2)
        for mode in (-1, 2):
            bad_a = FeedbackStrategy("I", [x.copy() for x in a.actions])
            bad_a.actions[1][1, 1, :] = mode
            bad_b = FeedbackStrategy("II", [x.copy() for x in b.actions])
            bad_b.actions[1][1, :, 1] = mode
            calls = (
                lambda: eval_switched(standard_spec, tree, bad_a, b),
                lambda: eval_switched(standard_spec, tree, a, bad_b),
                lambda: solve_lower_reflected(standard_spec, tree, bad_a),
                lambda: simulate_path(standard_spec, tree, bad_a, b, (1, 0), [1, 0]),
                lambda: simulate_path(standard_spec, tree, a, bad_b, (0, 1), [1, 0]),
            )
            for call in calls:
                with pytest.raises(DataError, match="modes 1..2"):
                    call()

    def test_outside_start_pairs_and_branches_are_rejected(self, standard_spec):
        # NumPy would wrap -1 to the last mode or node instead of failing, and
        # read past the range into a bare IndexError
        tree = build_tree(3, 1, standard_spec.horizon)
        a = FeedbackStrategy.stay("I", tree, 2, 2)
        b = FeedbackStrategy.stay("II", tree, 2, 2)
        for start in [(-1, 0), (0, -1), (2, 0), (0, 2), (0,), (0, 1, 0), (0.0, 1), 1]:
            with pytest.raises(DataError, match="start must hold 2 integers in 0..1"):
                simulate_path(standard_spec, tree, a, b, start, [0, 1, 0])
        for branches in ([-1, -1, -1], [0, 2, 0], [0, 1], [0, 1, 0, 1], [0, 0.5, 1]):
            with pytest.raises(DataError, match="branches must hold 3 integers in 0..1"):
                simulate_path(standard_spec, tree, a, b, (0, 1), branches)
        # the checks admit what every caller passes: NumPy integers and arrays
        nodes, modes, _, _ = simulate_path(standard_spec, tree, a, b, np.array([1, 0]),
                                           np.array([1, 1, 0]))
        assert nodes == [0, 1, 3, 6] and modes[-1] == (1, 0)


class TestSaddle:
    def test_a_tolerance_that_is_not_finite_and_nonnegative_is_refused(self, standard_spec):
        # a root raised by 0.5 breaks the saddle inequalities at tol = 1e-8;
        # with tol = NaN no comparison held and the report came back ok
        tree = build_tree(6, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        sol.Y[0] = sol.Y[0] + 0.5
        assert len(verify_saddle(sol, catalog_size=4, tol=1e-8).violations) > 4
        for bad in (np.nan, np.inf, -1e-9):
            with pytest.raises(DataError, match="^tol must be a finite nonnegative"):
                verify_saddle(sol, catalog_size=4, tol=bad)

    @pytest.mark.parametrize("name,bad", [("catalog_size", 2.5), ("catalog_size", -1),
                                          ("catalog_size", True), ("seed", -1),
                                          ("seed", 1.0), ("seed", False)])
    def test_a_catalog_size_or_seed_that_is_not_a_nonnegative_integer_is_refused(
            self, standard_spec, name, bad):
        # catalog_size 2.5 raised a TypeError from range and -1 ran as 0; a
        # seed of -1 passed whenever the best replies certified
        sol = solve_rbsde(standard_spec, build_tree(4, 1, standard_spec.horizon))
        with pytest.raises(DataError, match=rf"^{name} must be a non-negative integer; got "):
            verify_saddle(sol, **{name: bad})
        assert verify_saddle(sol, **{name: np.int64(0)}).ok     # NumPy integers pass

    def test_interior_solution_yields_stay_strategies(self):
        spec = GameSpec(
            costs=standard_costs(),
            generator=GeneratorSpec("zero", 2, 2),
            terminal=TerminalSpec("constant", 2, 2, alpha=[[0.1, 0.2], [0.0, 0.1]]),
            horizon=1.0,
        )
        tree = build_tree(3, 1, 1.0)
        sol = solve_rbsde(spec, tree)
        a_star, b_star = extract_saddle(sol)
        stay_a = FeedbackStrategy.stay("I", tree, 2, 2)
        stay_b = FeedbackStrategy.stay("II", tree, 2, 2)
        for t in range(3):
            np.testing.assert_array_equal(a_star.actions[t], stay_a.actions[t])
            np.testing.assert_array_equal(b_star.actions[t], stay_b.actions[t])

    def test_simultaneous_trigger_tie_rule(self, standard_spec):
        # Y[0][0] sits on both barriers at (1,1): Player I must switch and
        # Player II must stay there
        tree = build_tree(1, 1, standard_spec.horizon)
        y0 = np.array([[[0.0, 0.8], [-1.0, 0.0]]])
        y1 = np.zeros((2, 2, 2))
        zeros = [np.zeros((1, 1, 2, 2))]
        sol = RbsdeSolution(tree=tree, spec=standard_spec, Y=[y0, y1], Z=zeros,
                            dK=[np.zeros((1, 2, 2))], dL=[np.zeros((1, 2, 2))])
        a_star, b_star = extract_saddle(sol)
        assert a_star.actions[0][0, 0, 0] == 1   # fires: on the upper barrier
        assert b_star.actions[0][0, 0, 0] == 0   # would fire, but I wins ties

    def test_verify_saddle_on_small_instance(self, standard_spec):
        tree = build_tree(3, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        report = verify_saddle(sol, catalog_size=30, seed=7)
        assert report.ok
        assert max(report.value_gap.values()) <= 1e-8
        assert report.catalog_size_I == report.catalog_size_II == 34

    def test_corrupted_solution_is_flagged_with_strategies(self, standard_spec):
        tree = build_tree(3, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        sol.Y[0] = sol.Y[0] + 0.25
        report = verify_saddle(sol, catalog_size=10, seed=7)
        assert not report.ok
        kinds = {v[0] for v in report.violations}
        assert "value" in kinds or "lower" in kinds or "upper" in kinds

    def test_greedy_strategy_shapes(self, standard_spec):
        tree = build_tree(2, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        g = greedy_strategy(sol, "I")
        assert g.player == "I"
        assert [a.shape for a in g.actions] == [(1, 2, 2), (2, 2, 2)]

    def test_strategy_serialization_rows(self, standard_spec):
        tree = build_tree(2, 1, standard_spec.horizon)
        b = FeedbackStrategy.stay("II", tree, 2, 2)
        rows = list(b.serialize_rows())
        assert len(rows) == (1 + 2) * 4
        assert rows[0] == [0, 0, 1, 1, 1]

    def test_strategy_serialization_reads_whole_tables(self, standard_spec, rng):
        tree = build_tree(3, 1, standard_spec.horizon)
        a = FeedbackStrategy.random("I", tree, 2, 2, rng)
        guarded = FeedbackStrategy("I", [x.view(NoEntryReads) for x in a.actions])
        rows = list(guarded.serialize_rows())
        assert rows == [[t, n, i + 1, j + 1, int(x[n, i, j]) + 1]
                        for t, x in enumerate(a.actions) for n in range(x.shape[0])
                        for i in range(2) for j in range(2)]
        assert {type(v) for r in rows for v in r} == {int}

    def test_catalog_keeps_the_draw_order(self, standard_spec):
        # the catalog is drawn lazily; exhausting Player II's before starting
        # Player I's must reproduce the eager draw order from one generator
        tree = build_tree(3, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        rng = np.random.default_rng(11)
        drawn = [s for player in ("II", "I")
                 for name, s in _catalog(sol, player, 5, rng) if name.startswith("random_")]
        eager = np.random.default_rng(11)
        expected = [FeedbackStrategy.random(player, tree, 2, 2, eager)
                    for player in ("II", "I") for _ in range(5)]
        assert len(drawn) == len(expected) == 10
        for got, want in zip(drawn, expected):
            assert got.player == want.player
            for x, y in zip(got.actions, want.actions):
                np.testing.assert_array_equal(x, y)


class TestResolutionDifferential:
    """Switched evaluation and saddle verification with `_resolve_modes`
    against the same code with the loop oracle patched in."""

    @staticmethod
    def _instances():
        spec = make_standard()
        yield spec, build_tree(8, 1, spec.horizon)
        scenario = parse_scenario(SCENARIOS / "perf_3x3.json")
        yield scenario.spec, scenario.build_tree()

    def test_eval_switched_roots_match_the_loop(self, monkeypatch, rng):
        for spec, tree in self._instances():
            a_star, b_star = extract_saddle(solve_rbsde(spec, tree))
            pairs = [(FeedbackStrategy.random("I", tree, spec.m1, spec.m2, rng),
                      FeedbackStrategy.random("II", tree, spec.m1, spec.m2, rng))
                     for _ in range(20)]
            resolved = [eval_switched(spec, tree, a, b).root
                        for a, b in [(a_star, b_star)] + pairs]
            with monkeypatch.context() as patch:
                patch.setattr(game, "_resolve_modes", flat_positions(resolve_modes_loop))
                looped = [eval_switched(spec, tree, a, b).root
                          for a, b in [(a_star, b_star)] + pairs]
            # the saddle pair and the cyclic random pairs alike add up bit for bit
            np.testing.assert_array_equal(resolved[0], looped[0])
            for new, old in zip(resolved[1:], looped[1:]):
                np.testing.assert_array_equal(new, old)

    def test_verify_saddle_outcome_matches_the_loop(self, monkeypatch, standard_spec):
        tree = build_tree(8, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        # the solved field passes; shifted up at the root it must fail the same way
        for shift in (0.0, 0.25):
            sol.Y[0] = sol.Y[0] + shift
            new = verify_saddle(sol, catalog_size=30, seed=7)
            with monkeypatch.context() as patch:
                patch.setattr(game, "_resolve_modes", flat_positions(resolve_modes_loop))
                old = verify_saddle(sol, catalog_size=30, seed=7)
            assert new.value_gap == old.value_gap
            assert [v[:3] for v in new.violations] == [v[:3] for v in old.violations]
            np.testing.assert_array_equal([v[3] for v in new.violations],
                                          [v[3] for v in old.violations])
            assert bool(new.violations) == (shift > 0.0)
            assert (new.catalog_size_I, new.catalog_size_II) == (34, 34)
            assert (old.catalog_size_I, old.catalog_size_II) == (34, 34)


def gathered_backward(spec, tree, settle, finish):
    """The switched step as solved before the kernel solved whole fields:
    at each level, E and a `moveaxis` copy of Z are gathered at the settled
    pair (I, J) = settle(t), Picard runs on them with `gen.at_modes`, and
    finish(t, y, I) turns the solve into the level's values."""
    gen = spec.generator
    Y = [None] * tree.N + [spec.check_terminal(tree)]
    for t in range(tree.N - 1, -1, -1):
        E, Z = tree.expect_next(t, Y[t + 1]), tree.z_next(t, Y[t + 1])
        I, J = settle(t)
        n_idx = np.arange(E.shape[0])[:, None, None]
        Zg = np.moveaxis(Z, 1, -1)[n_idx, I, J]
        time, w = tree.time(t), tree.level_w(t)
        y, _ = picard_solve(
            E[n_idx, I, J],
            lambda y: tree.dt * np.asarray(gen.at_modes(time, w, y, Zg, I, J), dtype=float),
        )
        Y[t] = finish(t, y, I)
    return Y


def gathered_switched(spec, tree, a, b):
    """`eval_switched(...).U` by the gathered path."""
    k, l = spec.costs.k, spec.costs.l
    resolved = {t: settled(a.actions[t], b.actions[t], spec.m1, spec.m2, k, l)
                for t in range(tree.N)}
    return gathered_backward(
        spec, tree, lambda t: resolved[t][:2],
        lambda t, y, I: y + resolved[t][2] - resolved[t][3])


def gathered_lower_reflected(spec, tree, a):
    """`solve_lower_reflected` by the gathered path."""
    i_grid = np.arange(spec.m1)[:, None]
    J = np.arange(spec.m2)[None, None, :]

    def finish(t, y, I):
        return lower_sweep(y + spec.costs.k[i_grid, I], spec.costs)

    return gathered_backward(
        spec, tree, lambda t: (a.actions[t], np.broadcast_to(J, a.actions[t].shape)), finish)


class TestKernelDifferential:
    """The kernel solves the implicit step on the whole (node, pair) field and
    the switched solvers gather its solution at the settled pairs; gathering
    first and solving at the settled pairs, as before, reaches the same fixed
    point, with the same float operations when the driver ignores y and z.

    A saturated-affine driver depends on y, so the two Picard solves stop at
    different iterates, each within q/(1 - q) * tau of the fixed point
    (q = dt*|a|, tau the Picard tolerance).  Its `a` is scaled to q < 1/4
    here, which keeps that below tau/3 per level and the gap within 1e-12;
    near the contraction boundary the gap grows with q/(1 - q)."""

    @pytest.mark.parametrize("family,d", [("zero", 1), ("mode_constant", 1),
                                          ("saturated_affine", 1), ("saturated_affine", 2)])
    def test_solve_then_gather_equals_gather_then_solve(self, rng, family, d):
        for m1, m2, N in [(2, 2, 4), (3, 2, 3), (2, 3, 3), (3, 3, 2), (2, 1, 4)]:
            tree = build_tree(N, d, 0.3)
            spec = random_family_spec(rng, m1, m2, tree, family)
            if family == "saturated_affine":
                g = spec.generator
                gen = GeneratorSpec(family, m1, m2, d=d, a=g.a / 4, b=g.b, M=g.M, c=g.c)
                spec = GameSpec(spec.costs, gen, spec.terminal, horizon=tree.T, d=d)
            for _ in range(3):
                a = FeedbackStrategy.random("I", tree, m1, m2, rng)
                b = FeedbackStrategy.random("II", tree, m1, m2, rng)
                a_uniform = FeedbackStrategy("I", [
                    np.repeat(rng.integers(0, m1, (tree.level_size(t), m1, 1)), m2, axis=2)
                    for t in range(N)])
                pairs = [(eval_switched(spec, tree, a, b).U, gathered_switched(spec, tree, a, b)),
                         (solve_lower_reflected(spec, tree, a_uniform),
                          gathered_lower_reflected(spec, tree, a_uniform))]
                for new, old in pairs:
                    for t in range(N + 1):
                        if family == "saturated_affine":
                            np.testing.assert_allclose(new[t], old[t], rtol=0, atol=1e-12)
                        else:
                            np.testing.assert_array_equal(new[t], old[t])


def exhaustive_reply(spec, tree, opponent):
    """Best root values over every feedback table of the replying player:
    the max over Player-II tables against a Player-I table, the min over
    Player-I tables against a Player-II table."""
    if opponent.player == "I":
        return np.max([eval_switched(spec, tree, opponent, b).root
                       for b in feedback_strategies(tree, "II", spec.m1, spec.m2)],
                      axis=0)
    return np.min([eval_switched(spec, tree, a, opponent).root
                   for a in feedback_strategies(tree, "I", spec.m1, spec.m2)],
                  axis=0)


def catalog_sweep(spec, tree, sol, catalog_size, seed, tol):
    """The seeded catalog sweep on its own, through `eval_switched`: value
    gaps, violation records and catalog sizes, as `verify_saddle` reports
    them when it does not certify."""
    a_star, b_star = extract_saddle(sol)
    Y = sol.root
    u = eval_switched(spec, tree, a_star, b_star).root
    gaps = {(i, j): abs(u[i, j] - Y[i, j]) for i in range(spec.m1) for j in range(spec.m2)}
    violations = [("value", "saddle_pair", p, g, None) for p, g in gaps.items() if g > tol]
    rng = np.random.default_rng(seed)
    sizes = {}
    for player, kind in (("II", "upper"), ("I", "lower")):
        catalog = list(_catalog(sol, player, catalog_size, rng))
        sizes[player] = len(catalog)
        for name, s in catalog:
            pair = (a_star, s) if player == "II" else (s, b_star)
            u = eval_switched(spec, tree, *pair).root
            slack = u - Y if player == "II" else Y - u
            violations += [(kind, name, (i, j), slack[i, j], s)
                           for i in range(spec.m1) for j in range(spec.m2)
                           if slack[i, j] > tol]
    return gaps, violations, sizes


def random_family_spec(rng, m1, m2, tree, family):
    """A random admissible instance on `tree` with a driver of `family`; a
    saturated-affine driver keeps sqrt(dt) * ||b||_1 <= 1 and dt*|a| < 1."""
    spec = random_admissible_spec(rng, m1, m2, tree)
    if family == "zero":
        gen = GeneratorSpec("zero", m1, m2, d=tree.d)
    elif family == "mode_constant":
        gen = spec.generator
    else:
        b = rng.uniform(-1.0, 1.0, tree.d)
        b *= rng.uniform(0.2, 1.0) / (math.sqrt(tree.dt) * np.abs(b).sum())
        gen = GeneratorSpec("saturated_affine", m1, m2, d=tree.d,
                            a=rng.uniform(-0.9, 0.9) / tree.dt, b=b,
                            M=rng.uniform(0.3, 2.0), c=rng.uniform(-2.0, 2.0, (m1, m2)))
    return GameSpec(spec.costs, gen, spec.terminal, horizon=tree.T, d=tree.d)


def perturbed(strategy, rng, share, hi):
    """A copy of `strategy` with about `share` of its entries redrawn."""
    acts = []
    for x in strategy.actions:
        flip = rng.random(x.shape) < share
        acts.append(np.where(flip, rng.integers(0, hi, x.shape), x))
    return FeedbackStrategy(strategy.player, acts)


class TestBestReplyCertificate:
    """`_best_reply` against exhaustive enumeration and the catalog, and the
    certified `verify_saddle` path against the catalog sweep."""

    @staticmethod
    def _reply(spec, tree, opponent):
        return _best_reply(spec, tree, spec.check_terminal(tree), opponent).root

    def test_bounds_every_feedback_table_against_random_opponents(self, rng):
        # N <= 2: the state-dependent reply is at least the exhaustive best
        # table for Player II (at most, for Player I), and exploits a cycle
        # of the opponent's table strictly somewhere
        strict = 0
        cases = [(spec, 1, 6) for _, spec in n2_fixture_set()]
        for grid in ((2, 1), (1, 2)):
            cases.append((random_family_spec(rng, *grid, build_tree(2, 1, 0.5),
                                             "mode_constant"), 2, 3))
        cases.append((make_standard(), 2, 1))
        for spec, N, trials in cases:
            tree = build_tree(N, 1, spec.horizon)
            for _ in range(trials):
                for player, sign in (("I", 1.0), ("II", -1.0)):
                    if N == 2 and spec.m1 * spec.m2 == 4 and player == "II":
                        continue  # one 4096-table sweep per player is enough
                    opp = FeedbackStrategy.random(player, tree, spec.m1, spec.m2, rng)
                    gap = sign * (self._reply(spec, tree, opp)
                                  - exhaustive_reply(spec, tree, opp))
                    assert gap.min() >= -1e-12
                    strict += int(gap.max() > 1e-9)
        assert strict > 0

    def test_player_I_reads_before_a_player_II_table(self):
        # a draw whose value depends on the read-out order: with Player II's
        # forced turn taken first, Player I's reply would pass the exhaustive
        # best table by 0.023 at start (1, 2)
        rng = np.random.default_rng(20)
        tree = build_tree(1, 1, 0.5)
        spec = random_admissible_spec(rng, 2, 2, tree)
        opponent = FeedbackStrategy.random("II", tree, 2, 2, rng)
        assert np.all(self._reply(spec, tree, opponent)
                      <= exhaustive_reply(spec, tree, opponent) + 1e-12)

    def test_equals_the_exhaustive_value_against_the_saddle_strategies(self):
        spec = make_standard()
        tree = build_tree(2, 1, spec.horizon)
        sol = solve_rbsde(spec, tree)
        for opponent in extract_saddle(sol):
            reply = self._reply(spec, tree, opponent)
            np.testing.assert_allclose(reply, exhaustive_reply(spec, tree, opponent),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(reply, sol.root, rtol=0, atol=1e-12)

    def test_dominates_the_catalog_on_random_instances(self, rng):
        families = ("zero", "mode_constant", "saturated_affine")
        for trial in range(18):
            m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            tree = build_tree(int(rng.integers(1, 5)), 1, 0.5)
            spec = random_family_spec(rng, m1, m2, tree, families[trial % 3])
            xi = spec.check_terminal(tree)
            margin = _certificate_margin(spec, tree, xi)
            assert margin is not None and margin >= 1e-12
            sol = solve_rbsde(spec, tree)
            a_star, b_star = extract_saddle(sol)
            opponents = [a_star, b_star, FeedbackStrategy.random("I", tree, m1, m2, rng),
                         FeedbackStrategy.random("II", tree, m1, m2, rng)]
            for opp in opponents:
                reply = self._reply(spec, tree, opp)
                player = "II" if opp.player == "I" else "I"
                for _, s in _catalog(sol, player, 8, rng):
                    if player == "II":
                        assert np.all(eval_switched(spec, tree, opp, s).root
                                      <= reply + margin)
                    else:
                        assert np.all(eval_switched(spec, tree, s, opp).root
                                      >= reply - margin)

    def test_flags_every_violation_the_catalog_finds(self, rng):
        # against perturbed, non-saddle strategies: wherever a catalog reply
        # beats the value by more than tol, the best reply does too
        tol = 1e-8
        found = 0
        scenario = parse_scenario(SCENARIOS / "bind_3x3.json")
        instances = [(make_standard(), build_tree(4, 1, 0.24)),
                     (scenario.spec, build_tree(5, 1, scenario.spec.horizon))]
        for spec, tree in instances:
            sol = solve_rbsde(spec, tree)
            xi = spec.check_terminal(tree)
            margin = _certificate_margin(spec, tree, xi)
            for opp, hi in zip(extract_saddle(sol), (spec.m1, spec.m2)):
                for _ in range(3):
                    bad = perturbed(opp, rng, 0.3, hi)
                    reply = self._reply(spec, tree, bad)
                    player = "II" if bad.player == "I" else "I"
                    flagged = (reply - sol.root if player == "II" else sol.root - reply)
                    for _, s in _catalog(sol, player, 10, rng):
                        pair = (bad, s) if player == "II" else (s, bad)
                        u = eval_switched(spec, tree, *pair).root
                        slack = u - sol.root if player == "II" else sol.root - u
                        hit = slack > tol
                        found += int(hit.sum())
                        assert np.all(flagged[hit] > tol)
                        assert np.all(flagged >= slack - margin)
        assert found > 0

    def test_certified_run_draws_and_evaluates_no_catalog(self, monkeypatch, standard_spec):
        tree = build_tree(8, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        passes = []
        switched = game._switched_backward

        def counted(*args):
            passes.append(1)
            return switched(*args)

        def no_catalog(*args):
            raise AssertionError("the catalog was drawn")

        monkeypatch.setattr(game, "_switched_backward", counted)
        monkeypatch.setattr(game, "_catalog", no_catalog)
        report = verify_saddle(sol, catalog_size=200, seed=0)
        assert report.ok and report.certified
        assert len(passes) == 1          # the (a*, b*) value rows only
        assert report.reply_slack_I <= 1e-8 - report.certificate_margin
        assert report.reply_slack_II <= 1e-8 - report.certificate_margin
        assert (report.catalog_size_I, report.catalog_size_II) == (204, 204)

    def test_uncertified_run_reports_what_the_catalog_sweep_finds(self, standard_spec):
        tree = build_tree(4, 1, standard_spec.horizon)
        sol = solve_rbsde(standard_spec, tree)
        sol.Y[0] = sol.Y[0] + 0.25
        report = verify_saddle(sol, catalog_size=12, seed=5)
        # Y(root) raised: Player I's best reply now lies 0.25 below it
        assert not report.certified and report.reply_slack_I > 1e-8
        gaps, violations, sizes = catalog_sweep(standard_spec, tree, sol, 12, 5, 1e-8)
        assert violations and report.value_gap == gaps
        assert [v[:3] for v in report.violations] == [v[:3] for v in violations]
        assert [v[3] for v in report.violations] == [v[3] for v in violations]
        assert (report.catalog_size_I, report.catalog_size_II) == (sizes["I"], sizes["II"])

    def test_non_monotone_step_falls_back_to_the_catalog(self, monkeypatch):
        # sqrt(dt) * |b| = sqrt(0.25) * 3 = 1.5 > 1, while dt * |b| = 0.75 < 1
        # still contracts: the comparison principle fails, so no certificate,
        # and the report is the catalog sweep's
        spec = GameSpec(standard_costs(),
                        GeneratorSpec("saturated_affine", 2, 2, a=0.5, b=[3.0], M=1.0,
                                      c=[[0.4, -0.4], [-0.4, 0.4]]),
                        TerminalSpec("affine", 2, 2, alpha=[[0.1, 0.3], [-0.2, 0.2]],
                                     beta=[[0.5, 0.5], [0.4, 0.4]]),
                        horizon=0.5)
        tree = build_tree(2, 1, spec.horizon)
        assert _certificate_margin(spec, tree, spec.check_terminal(tree)) is None
        sol = solve_rbsde(spec, tree)

        def no_reply(*args):
            raise AssertionError("a best reply was solved")

        monkeypatch.setattr(game, "_best_reply", no_reply)
        for shift in (0.0, 0.25):
            sol.Y[0] = sol.Y[0] + shift
            report = verify_saddle(sol, catalog_size=10, seed=3)
            assert not report.certified
            assert report.reply_slack_I is report.reply_slack_II is None
            gaps, violations, sizes = catalog_sweep(spec, tree, sol, 10, 3, 1e-8)
            assert report.value_gap == gaps
            assert [v[:4] for v in report.violations] == [v[:4] for v in violations]
            assert (report.catalog_size_I, report.catalog_size_II) == (sizes["I"], sizes["II"])
            # without the comparison principle the extracted pair is no saddle
            # point here: the catalog finds a Player-I deviation even unshifted
            assert any(v[0] == "lower" for v in violations)

    def test_monotonicity_condition_boundary(self):
        tree = build_tree(4, 2, 1.0)          # sqrt(dt) = 1/2
        costs = standard_costs()
        term = TerminalSpec("constant", 2, 2, alpha=[[0.1, 0.2], [0.0, 0.1]])
        xi = term.evaluate(tree.leaf_w)
        margins = []
        for b in ([1.5, 0.5], [1.5, 0.5 + 1e-9]):   # ||b||_1 = 2 on the boundary
            gen = GeneratorSpec("saturated_affine", 2, 2, d=2, a=0.5, b=b)
            margins.append(_certificate_margin(
                GameSpec(costs, gen, term, horizon=1.0, d=2), tree, xi))
        assert margins[0] is not None and margins[0] >= 1e-12
        assert margins[1] is None
        for family in ("zero", "mode_constant"):
            spec = GameSpec(costs, GeneratorSpec(family, 2, 2, d=2), term, horizon=1.0, d=2)
            assert _certificate_margin(spec, tree, xi) >= 1e-12


def slow_contraction_2x1():
    """A 2x1 saturated-affine game with a = -3 on horizon 0.5, so dt*|a| is
    3/4 at N = 2 and 1/2 at N = 3: Picard contracts slowly at every level."""
    return GameSpec(CostTables([[0.0, 1.0], [1.0, 0.0]], [[0.0]]),
                    GeneratorSpec("saturated_affine", 2, 1, a=-3.0, M=1.0, c=[[1.0], [-1.0]]),
                    TerminalSpec("affine", 2, 1, alpha=[[0.2], [-0.1]], beta=[[0.5], [0.5]]),
                    horizon=0.5)


def picard_stopping_margin(spec, tree):
    """The Picard term of `_certificate_margin`: a saturated-affine iterate that
    stops once no entry moves more than PICARD_TOL lies within q/(1 - q) *
    PICARD_TOL of its fixed point, q = dt*|a|, and under the comparison
    condition a level grows an error in the next level's values by at most
    1/(1 - q), so two such solves of one scheme differ by at most
    2 * sum_{t<N} (1 - q)**-t * q/(1 - q) * PICARD_TOL."""
    q = tree.dt * abs(spec.generator.a)
    return 2.0 * sum((1.0 - q) ** -t for t in range(tree.N)) * q / (1.0 - q) * PICARD_TOL


class TestRepresentation:
    def test_lower_reflected_requires_j_uniform_player_I(self, standard_spec, rng):
        tree = build_tree(2, 1, standard_spec.horizon)
        acts = [rng.integers(0, 2, (tree.level_size(t), 2, 2)) for t in range(2)]
        acts[0][0, 0, 0], acts[0][0, 0, 1] = 0, 1  # depends on j
        a = FeedbackStrategy("I", acts)
        with pytest.raises(DataError, match="j-independent"):
            solve_lower_reflected(standard_spec, tree, a)
        with pytest.raises(DataError, match="Player-I"):
            solve_lower_reflected(standard_spec, tree,
                                  FeedbackStrategy.stay("II", tree, 2, 2))

    def test_degenerate_single_opponent_mode(self):
        # m2 = 1: no lower constraints; the representation solve is just the
        # switched evaluation against the only Player-II strategy
        costs = CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0]])
        spec = GameSpec(
            costs=costs,
            generator=GeneratorSpec("mode_constant", 2, 1, c=[[1.0], [-1.0]]),
            terminal=TerminalSpec("affine", 2, 1, alpha=[[0.2], [-0.1]],
                                  beta=[[0.5], [0.5]]),
            horizon=0.5,
        )
        tree = build_tree(3, 1, 0.5)
        a = FeedbackStrategy.constant("I", tree, 2, 1, 0)
        U = solve_lower_reflected(spec, tree, a)
        val = eval_switched(spec, tree, a, FeedbackStrategy.stay("II", tree, 2, 1))
        for t in range(4):
            np.testing.assert_allclose(U[t], val.U[t], atol=1e-12)

    def test_single_step_hand_recursion(self):
        # N=1, 2x1: the best strategy picks the cheaper of "stay" and
        # "switch now", each worth E[xi] + dt*c + switching cost
        costs = CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0]])
        spec = GameSpec(
            costs=costs,
            generator=GeneratorSpec("mode_constant", 2, 1, c=[[2.0], [-2.0]]),
            terminal=TerminalSpec("affine", 2, 1, alpha=[[0.4], [0.0]],
                                  beta=[[0.3], [0.3]]),
            horizon=0.5,
        )
        tree = build_tree(1, 1, 0.5)
        xi = spec.check_terminal(tree)
        E = xi.mean(axis=0)
        by_hand = np.empty((2, 1))
        for i in range(2):
            stay = E[i, 0] + 0.5 * spec.generator.c[i, 0]
            other = E[1 - i, 0] + 0.5 * spec.generator.c[1 - i, 0] + 1.0
            by_hand[i, 0] = min(stay, other)
        np.testing.assert_allclose(brute_force_value(spec, tree), by_hand,
                                   atol=1e-12)

    def test_constant_interior_terminal_never_switches(self):
        spec = GameSpec(
            costs=standard_costs(),
            generator=GeneratorSpec("zero", 2, 2),
            terminal=TerminalSpec("constant", 2, 2, alpha=[[0.1, 0.2], [0.0, 0.1]]),
            horizon=1.0,
        )
        tree = build_tree(2, 1, 1.0)
        np.testing.assert_allclose(brute_force_value(spec, tree),
                                   [[0.1, 0.2], [0.0, 0.1]], atol=1e-10)

    def test_caps_are_enforced(self, standard_spec):
        tree = build_tree(4, 1, standard_spec.horizon)
        with pytest.raises(SizingError, match="capped"):
            brute_force_value(standard_spec, tree)

    def test_strategy_count_is_capped(self):
        # 3x1: 3**9 tables and 3**10 values at N = 2; at N = 3 level 2 alone
        # holds 3**12 tables of 4 nodes x 3 pairs, past 2**22 values
        k = [[0.0, 1.0, 1.1], [1.2, 0.0, 0.9], [1.0, 1.3, 0.0]]
        spec = GameSpec(CostTables(k, [[0.0]]), GeneratorSpec("zero", 3, 1),
                        TerminalSpec("constant", 3, 1, alpha=[[0.0]] * 3), horizon=1.0)
        for N in (1, 2):
            assert brute_force_value(spec, build_tree(N, 1, 1.0)).shape == (3, 1)
        message = "4194304 values per tree level; level 2 holds 3**12 strategy suffixes x 4 nodes"
        with pytest.raises(SizingError, match=re.escape(message) + " x 3 mode pairs$"):
            brute_force_value(spec, build_tree(3, 1, 1.0))

    def test_a_count_past_the_cap_is_named_as_a_power(self, standard_spec):
        # 2**16384 tables at the N = 14 tree's last level, named as a power:
        # str() of such a count raises a ValueError past 4,300 digits
        tree = build_tree(14, 1, standard_spec.horizon)
        with time_budget(1), pytest.raises(SizingError, match=re.escape(
                "level 13 holds 2**16384 strategy suffixes x 8192 nodes x 4 mode pairs") + "$"):
            brute_force_value(standard_spec, tree)

    @pytest.mark.parametrize("N", [3, 5, 10])
    def test_a_single_player_I_mode_is_one_strategy_at_any_N(self, N):
        # 1x3: the one table stays, and the lower clamp is the projection
        l = [[0.0, 0.8, 0.9], [0.7, 0.0, 0.85], [0.95, 0.75, 0.0]]
        spec = GameSpec(CostTables([[0.0]], l),
                        GeneratorSpec("mode_constant", 1, 3, c=[[2.0, -1.0, -3.0]]),
                        TerminalSpec("affine", 1, 3, alpha=[[0.1, 0.3, -0.2]],
                                     beta=[[0.5, 0.5, 0.5]]), horizon=0.5)
        tree = build_tree(N, 1, spec.horizon)
        direct = solve_rbsde(spec, tree)
        assert max(float(x.max()) for x in direct.dL) > 0.1     # the lower barriers bind
        np.testing.assert_array_equal(brute_force_value(spec, tree), direct.root)

    def test_the_recombining_lattice_at_N_4_equals_the_direct_root(self, standard_spec):
        # 2**20 strategies, 2**22 values at the root: exactly at the cap
        tree = build_tree(4, 1, standard_spec.horizon, recombining=True)
        np.testing.assert_array_equal(brute_force_value(standard_spec, tree),
                                      solve_rbsde(standard_spec, tree).root)

    def test_a_slow_contraction_is_enumerated_in_time(self):
        # 2 x 1 with a = -3 at N = 3, dt*|a| = 1/2: 16,384 strategies, whose
        # one-at-a-time solves took 41-50 s
        spec, tree = slow_contraction_2x1(), build_tree(3, 1, 0.5)
        with time_budget(5):
            best = brute_force_value(spec, tree)
        np.testing.assert_allclose(best, solve_rbsde(spec, tree).root, rtol=0,
                                   atol=picard_stopping_margin(spec, tree))

    @pytest.mark.parametrize("case", ["n2_fixtures", "path_N3", "lattice_N3", "slow_2x1"])
    def test_one_pass_equals_the_per_strategy_minimum(self, case):
        # bit for bit when the driver ignores y; a saturated-affine stack
        # stops its Picard loop jointly, each strategy's iterate within the
        # Picard stopping margin of its fixed point
        standard = make_standard()
        cases = {"n2_fixtures": [(spec, build_tree(2, 1, spec.horizon))
                                 for _, spec in n2_fixture_set()],
                 "path_N3": [(standard, build_tree(3, 1, standard.horizon))],
                 "lattice_N3": [(standard, build_tree(3, 1, standard.horizon,
                                                      recombining=True))],
                 "slow_2x1": [(slow_contraction_2x1(), build_tree(2, 1, 0.5))]}[case]
        for spec, tree in cases:
            got, want = brute_force_value(spec, tree), per_strategy_brute_force(spec, tree)
            if spec.generator.family == "saturated_affine":
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=picard_stopping_margin(spec, tree))
            else:
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_enumeration_counts(self, standard_spec):
        tree = build_tree(1, 1, standard_spec.horizon)
        assert sum(1 for _ in feedback_strategies(tree, "I", 2, 1)) == 2 ** 2
        assert sum(1 for _ in feedback_strategies(tree, "II", 2, 2)) == 2 ** 4

    def test_enumeration_runs_over_every_entry_in_product_order(self):
        # the (level, node, i, j) entries flattened level by level run through
        # itertools.product, the last entry fastest
        tree = build_tree(2, 1, 1.0)
        got = [np.concatenate([x.ravel() for x in a.actions]).tolist()
               for a in feedback_strategies(tree, "I", 2, 1)]
        assert got == [list(p) for p in itertools.product(range(2), repeat=6)]
        got = [np.concatenate([x.ravel() for x in b.actions]).tolist()
               for b in feedback_strategies(build_tree(1, 1, 1.0), "II", 2, 3)]
        assert got == [list(p) for p in itertools.product(range(3), repeat=6)]
