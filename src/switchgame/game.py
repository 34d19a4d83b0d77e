"""Switching strategies, the switched BSDE, and the saddle-point machinery.

A feedback strategy is an action table over (node, i, j): on a path tree the
node is exactly the Brownian history, so feedback tables represent every
adapted strategy.  Actions equal to the player's own current mode mean
"stay".

Within a step the two action tables are resolved at the step's left endpoint
by an alternating read-out with Player I first, repeated until neither table
asks for a further switch.  Such same-instant chains are essential: when a
switch lands on a coordinate that itself sits on a barrier, the reflected
system reacts at the same time point, and the saddle strategies realize that
as a cascade of switches at one node, every leg charged its cost.  The
no-zero-cost-loop hypothesis makes the cascades of the extracted saddle
strategies terminate; cyclic tables are cut off by a switch-count cap.  The
BSDE step then runs under the settled pair, and the switch costs are charged.

`verify_saddle` certifies the saddle point by backward induction.  With the
opponent's table fixed, a player's best reply is a one-player switching
problem: `_best_reply` solves it exactly, once for Player II against a* (a
max) and once for Player I against b* (a min).  Each level takes the
implicit step at every pair, then runs the same-instant read-out as a
dynamic programme in which the replying player may choose by the whole
read-out state (pair, switches used, whose turn, whether anyone moved this
round).  Every feedback table is one such choice, so the best-reply value
bounds every catalog strategy's value, provided the implicit step is
monotone in the continuation values (see `_certificate_margin`).  When both
best replies stay within the tolerance the catalog is not evaluated; when
either fails, or the step is not monotone, the seeded catalog runs and
names the violating strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bsde
from .errors import DataError, SizingError, _require_count, _require_tolerance
from .lattice import carrier
from .model import (
    GameSpec,
    _lower,
    _upper,
    lower_barrier,
    upper_barrier,
)
from .reflected import RbsdeSolution

TRIGGER_TOL = 1e-9     # how close to its barrier a value must sit to fire a switch


@dataclass
class FeedbackStrategy:
    """Per-level action tables for one player.

    actions[t] is an integer array (n_t, m1, m2): the player's next mode when
    the tree sits at node n of level t with current modes (i, j).  Leaf
    actions do not exist (no switching at the horizon).
    """

    player: str  # "I" or "II"
    actions: list

    def __post_init__(self):
        if self.player not in ("I", "II"):
            raise DataError("player must be 'I' or 'II'")

    @classmethod
    def stay(cls, player, tree, m1, m2):
        grid = np.arange(m1)[:, None] if player == "I" else np.arange(m2)[None, :]
        return cls(player, [np.broadcast_to(grid, (tree.level_size(t), m1, m2)).astype(int)
                            for t in range(tree.N)])

    @classmethod
    def constant(cls, player, tree, m1, m2, mode):
        return cls(player, [np.full((tree.level_size(t), m1, m2), mode, dtype=int)
                            for t in range(tree.N)])

    @classmethod
    def random(cls, player, tree, m1, m2, rng):
        hi = m1 if player == "I" else m2
        return cls(player, [rng.integers(0, hi, size=(tree.level_size(t), m1, m2))
                            for t in range(tree.N)])

    def j_uniform(self) -> bool:
        """True when the action never depends on the opponent coordinate."""
        axis = 2 if self.player == "I" else 1
        return all(np.all(a == a.take([0], axis=axis)) for a in self.actions)

    def serialize_rows(self):
        """Flat (level, node, i, j, action) records for counterexample replay."""
        for t, a in enumerate(self.actions):
            n, i, j = np.indices(a.shape).reshape(3, -1)
            yield from np.stack([np.full_like(n, t), n, i + 1, j + 1,
                                 np.ravel(a) + 1], axis=1).tolist()


@dataclass
class SwitchedValue:
    """Value field of the switched BSDE under a fixed strategy pair."""

    tree: object
    U: list  # per level, (n_t, m1, m2): payoff given current modes (i, j)

    @property
    def root(self) -> np.ndarray:
        return self.U[0][0]


def _check_indices(name, values, highs):
    """`values` as a tuple, once it holds one integer per bound in `highs`, each
    in 0..bound-1; NumPy would wrap a negative index instead of rejecting it."""
    if np.ndim(values) != 1 or len(values) != len(highs) or not all(
            isinstance(v, (int, np.integer)) and 0 <= v < h for v, h in zip(values, highs)):
        ranges = ", ".join(f"0..{h - 1}" for h in dict.fromkeys(highs))
        raise DataError(f"{name} must hold {len(highs)} integers in {ranges}; got {values!r}")
    return tuple(values)


def _switch_cap(m1, m2):
    """Switches after which the within-step read-out stops both players."""
    return 4 * m1 * m2


def _resolve_modes(A, B, m1, m2, k, l, paid=(0.0, 0.0)):
    """Settle one step's mode pair from both (n, m1, m2) action tables.

    The read-out runs round by round over every (node, i, j) entry: Player I
    reads its table at the current pair and switches if the read differs,
    then Player II, each switch charged its cost, until a round in which no
    entry moves.  An entry stops switching once it has made `_switch_cap`
    switches (only adversarially cyclic tables reach it).  Returns (m1, m2, n)
    arrays of flat positions ``(i * m2 + j) * n + node`` and of both costs,
    each switch's cost added in turn to the costs `paid` before the step.
    """
    cap = _switch_cap(m1, m2)
    A, B = np.moveaxis(A, 0, -1), np.moveaxis(B, 0, -1)
    n = A.shape[-1]
    i0, j0, _ = np.indices(A.shape)
    costA, costB = (np.full(A.shape, p) for p in paid)
    # each player's read as a move of the flat entry position, and what the
    # move charges (a stay is free); an entry at the cap neither moves nor pays
    reads = ((np.ravel((A - i0) * (m2 * n)), np.ravel(np.where(A == i0, 0.0, k[i0, A])), costA),
             (np.ravel((B - j0) * n), np.ravel(np.where(B == j0, 0.0, l[j0, B])), costB))
    pos, switches = np.arange(A.size).reshape(A.shape), np.zeros(A.shape, dtype=int)
    moved = True
    while moved:
        moved = False
        for jump, charge, cost in reads:
            open_ = switches < cap
            step = jump[pos] * open_
            cost += charge[pos] * open_
            switches += step != 0
            pos += step
            moved = moved or step.any()
    return pos, costA, costB


def _check_actions(spec: GameSpec, tree, strategy: FeedbackStrategy):
    """Require one (level size, m1, m2) action table per tree level, holding
    modes inside the player's range.

    NumPy would read a mode of -1 as the last mode, and the flat gathers of
    `_resolve_modes` would read a neighbouring node's entry for a mode past
    the range, so both are rejected here rather than evaluated.
    """
    hi = spec.m1 if strategy.player == "I" else spec.m2
    acts = strategy.actions
    if len(acts) != tree.N or any(
            np.shape(x) != (tree.level_size(t), spec.m1, spec.m2)
            or np.min(x) < 0 or np.max(x) >= hi for t, x in enumerate(acts)):
        raise DataError(
            f"Player-{strategy.player} action tables must have shape "
            f"(level size, {spec.m1}, {spec.m2}) on each of the tree's {tree.N} "
            f"levels and hold modes 1..{hi}"
        )


def eval_switched(spec: GameSpec, tree, a: FeedbackStrategy,
                  b: FeedbackStrategy) -> SwitchedValue:
    """Backward evaluation of the switched BSDE for every start mode pair.

    At each (node, i, j) the mode pair settles by the alternating read-out
    (Player I first, repeated until neither table moves), the value is the
    implicit step's value at the settled pair, then Player I's accumulated
    cost is added and Player II's subtracted.
    """
    if a.player != "I" or b.player != "II":
        raise DataError("eval_switched expects (Player-I strategy, Player-II strategy)")
    _check_actions(spec, tree, a)
    _check_actions(spec, tree, b)
    return _switched_backward(spec, tree, spec.check_terminal(tree), a, b)


def _switched_backward(spec, tree, xi, a, b):
    """The backward pass of `eval_switched` from checked leaf values `xi`."""
    def post(t, W, z):
        pos, costA, costB = _resolve_modes(
            a.actions[t], b.actions[t], spec.m1, spec.m2, spec.costs.k, spec.costs.l)
        return (W.reshape(-1)[pos] + costA - costB,)

    return SwitchedValue(tree=tree, U=bsde.backward(tree, xi, spec.generator, post)[0])


def simulate_path(spec: GameSpec, tree, a: FeedbackStrategy, b: FeedbackStrategy,
                  start, branches):
    """Forward mode/cost bookkeeping along one concrete path (path trees).

    `branches` is a length-N sequence of branch indices.  Returns the visited
    nodes, the mode pair after each step, and the cumulative cost processes
    A (Player I) and B (Player II) sampled after each step.
    """
    if tree.recombining:
        raise DataError("forward simulation requires a path tree")
    _check_actions(spec, tree, a)
    _check_actions(spec, tree, b)
    i, j = _check_indices("start", start, (spec.m1, spec.m2))
    _check_indices("branches", branches, (tree.branching,) * tree.N)
    node = 0
    nodes, modes, A, B = [0], [(i, j)], [0.0], [0.0]
    for t, c in enumerate(branches):
        # the read-out of `eval_switched` on the node's one-row tables
        pos, costA, costB = _resolve_modes(
            a.actions[t][node:node + 1], b.actions[t][node:node + 1], spec.m1, spec.m2,
            spec.costs.k, spec.costs.l, paid=(A[-1], B[-1]))
        A.append(float(costA[i, j, 0]))
        B.append(float(costB[i, j, 0]))
        i, j = divmod(int(pos[i, j, 0]), spec.m2)
        node = node * tree.branching + int(c)
        nodes.append(node)
        modes.append((i, j))
    return nodes, modes, A, B


# ---------------------------------------------------------------------------
# Saddle extraction and verification
# ---------------------------------------------------------------------------

def _barrier_actions(y, costs, player, fire):
    """One player's action table on level values y, and the mask where it fires.

    The barrier (Player I: upper, Player II: lower) and the switch target
    (the first mode attaining it, as argmin/argmax would pick) come from
    the same running reduction over the player's modes.  The table holds
    the target where `fire(barrier)` holds and stay elsewhere.  A player
    with a single mode has no target but its own mode, so its table is all
    stays whatever fires.
    """
    side, stay = upper_barrier, np.arange(costs.m1)[:, None]
    if player == "II":
        side, stay = lower_barrier, np.arange(costs.m2)
    barrier, target = side(y, costs, targets=True)
    fired = fire(barrier)
    return np.where(fired, target, stay), fired


def extract_saddle(sol: RbsdeSolution):
    """Candidate saddle strategies from the solved value field.

    Player I's trigger fires when the value sits on its upper barrier (within
    TRIGGER_TOL); Player II's when it sits on its lower barrier.  When both
    fire at once, Player I switches and Player II stays.  Switch targets are
    the barrier argmin/argmax, smallest index on ties.
    """
    costs = sol.spec.costs
    acts_I, acts_II = [], []
    for y in sol.Y[:sol.tree.N]:
        a, fire_I = _barrier_actions(y, costs, "I", lambda up: y >= up - TRIGGER_TOL)
        b, _ = _barrier_actions(y, costs, "II", lambda lo: (y <= lo + TRIGGER_TOL) & ~fire_I)
        acts_I.append(a)
        acts_II.append(b)
    return (FeedbackStrategy("I", acts_I), FeedbackStrategy("II", acts_II))


def greedy_strategy(sol: RbsdeSolution, player: str) -> FeedbackStrategy:
    """Myopic strategy: switch whenever the barrier move looks immediately
    profitable on the solved value field, ignoring future consequences."""
    costs = sol.spec.costs
    acts = []
    for y in sol.Y[:sol.tree.N]:
        fire = (lambda up: up < y) if player == "I" else (lambda lo: lo > y)
        acts.append(_barrier_actions(y, costs, player, fire)[0])
    return FeedbackStrategy(player, acts)


@dataclass
class SaddleReport:
    """Outcome of the saddle verification.

    `certified` is True when the best replies settled every catalog
    strategy without evaluating it.  The best-reply slacks are the largest
    max_b U(a*, b) - Y(root) (Player II) and Y(root) - min_a U(a, b*)
    (Player I) over start pairs; they and the margin are None when the step
    is not monotone and no certificate was attempted.
    """

    value_gap: dict            # start pair -> |U(a*, b*) - Y(root)|
    violations: list           # (kind, strategy_id, start, slack, strategy)
    catalog_size_I: int
    catalog_size_II: int
    certified: bool = False
    reply_slack_I: float | None = None
    reply_slack_II: float | None = None
    certificate_margin: float | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def _catalog(sol, player, catalog_size, rng):
    """Yield the player's named catalog strategies one at a time.

    The random strategies draw from `rng` only when reached, so exhausting
    one player's catalog before starting the other's keeps the draw order.
    """
    spec, tree = sol.spec, sol.tree
    m1, m2 = spec.m1, spec.m2
    yield "stay", FeedbackStrategy.stay(player, tree, m1, m2)
    count = m1 if player == "I" else m2
    for mode in range(count):
        yield f"constant_{mode + 1}", FeedbackStrategy.constant(player, tree, m1, m2, mode)
    yield "greedy", greedy_strategy(sol, player)
    for s in range(catalog_size):
        yield f"random_{s}", FeedbackStrategy.random(player, tree, m1, m2, rng)


def _catalog_size(spec, player, catalog_size):
    """Number of strategies `_catalog` yields: stay, the constants, greedy, the draws."""
    return 2 + (spec.m1 if player == "I" else spec.m2) + len(range(catalog_size))


def _best_reply(spec: GameSpec, tree, xi, opponent: FeedbackStrategy) -> SwitchedValue:
    """Value of the best reply to the opponent's fixed table, from leaf values `xi`.

    Player II replies to a Player-I table and maximizes; Player I replies to
    a Player-II table and minimizes.  At each level the kernel's implicit
    step gives W at every pair, and the post-step runs the read-out of
    `_resolve_modes` (Player I first, the opponent's moves forced, at most
    `_switch_cap` switches) as a programme over the states (pair, switches
    used s, whose turn, whether anyone moved this round):

        I(p, s)     = the I move into II1(p', s + 1), charged k, or II0(p, s)
        II0(p, s)   = the II move into I(p', s + 1), less l, or W(p)
        II1(p, s)   = the II move into I(p', s + 1), less l, or I(p, s)

    with every state worth W(p) at s = cap, and the value I(p, 0).  The
    replier's turns take the best option.  The recursion does not depend on
    s, so it stops once a pass reproduces the previous one exactly.  The
    value bounds every feedback table's, and can pass the best table's by
    exploiting a cycle of an arbitrary opponent.
    """
    m1, m2 = spec.m1, spec.m2
    costs = spec.costs
    cap = _switch_cap(m1, m2)
    i_grid = np.arange(m1)[:, None, None]
    j_grid = np.arange(m2)[None, :, None]

    def post(t, W, z):
        act = np.moveaxis(opponent.actions[t], 0, -1)       # mode-major, like W
        node = np.arange(act.shape[-1])

        def forced(stay, move):
            return np.where(stays, stay, move[at] + charge)

        def reply(stay, move):
            return best(stay, barrier(move, costs))

        if opponent.player == "I":
            stays, at, charge = act == i_grid, (act, j_grid, node), costs.k[i_grid, act]
            best, barrier, turn_I, turn_II = np.maximum, _lower, forced, reply
        else:
            stays, at, charge = act == j_grid, (i_grid, act, node), -costs.l[j_grid, act]
            best, barrier, turn_I, turn_II = np.minimum, _upper, reply, forced

        # states with s = cap are worth W; descend in s
        I_next = II1_next = W
        for _ in range(cap):
            II0 = turn_II(W, I_next)
            I_s = turn_I(II0, II1_next)
            II1 = turn_II(I_s, I_next)
            if np.array_equal(I_s, I_next) and np.array_equal(II1, II1_next):
                break
            I_next, II1_next = I_s, II1
        return (I_s,)

    return SwitchedValue(tree=tree, U=bsde.backward(tree, xi, spec.generator, post)[0])


def _certificate_margin(spec: GameSpec, tree, xi):
    """How far a computed catalog value may pass the computed best-reply value
    although the exact values are ordered; None when they need not be.

    Monotonicity.  The comparison needs the implicit step to be nondecreasing
    in the next level's values.  The `zero` and `mode_constant` steps are
    E + dt*c.  For `saturated_affine`, the branches' increments are
    +/-sqrt(dt) per component with weight 2**-d, so E + dt*b.sat(z) weights
    a child c by 2**-d * (1 + sqrt(dt) * sum_p b_p theta_p sign_p(c)) with
    every theta_p in [0, 1] (the clamp's slope).  All weights are
    nonnegative exactly when sqrt(dt) * ||b||_1 <= 1; the y-term a*sat(y)
    keeps the solution nondecreasing in its right-hand side since
    dt*|a| < 1 (the contraction condition).  Without that
    (`GeneratorSpec.comparison_holds`), None.

    Margin.  The exact step then moves by at most 1/(1 - q), q = dt*|a|,
    per unit change of its input, and the read-out programme by at most
    one.  Each level adds to either side's computed value
      * rounding: at most R = cap + 2**(d+1) + d + 8 roundings, each within
        u = 2**-53 of a magnitude S = max|xi| + T*sup|psi| +
        N*cap*max(k, l), the largest value or running cost sum any
        read-out reaches (cap = `_switch_cap`, 4*m1*m2);
      * for `saturated_affine`, the Picard stopping error: iteration stops
        once an update moves no entry by more than tau = `bsde.PICARD_TOL`,
        which leaves the iterate within q/(1 - q) * tau of the fixed
        point.  The other two families do not iterate: their driver
        ignores y, and the kernel takes the one step E + dt*c.
    Summed over the levels with the growth factor, and over both sides:

        margin = 2 * sum_{t<N} (1 - q)**-t * (R*u*S + [q/(1 - q) * tau]),

    floored at 1e-12.
    """
    gen = spec.generator
    if not gen.comparison_holds(tree.dt):
        return None
    affine = gen.family == "saturated_affine"
    cap = _switch_cap(spec.m1, spec.m2)
    q = tree.dt * abs(gen.a)
    rounds = cap + 2 ** (tree.d + 1) + tree.d + 8
    scale = (float(np.abs(xi).max()) + tree.T * gen.sup_bound
             + tree.N * cap * float(max(spec.costs.k.max(), spec.costs.l.max())))
    per_level = rounds * (np.finfo(float).eps / 2) * scale
    if affine:
        per_level += q / (1.0 - q) * bsde.PICARD_TOL
    growth = sum((1.0 - q) ** -t for t in range(tree.N))
    return max(1e-12, float(2.0 * growth * per_level))


def _add_violations(violations, kind, name, slack, tol, strategy):
    """Append a violation per start pair whose (m1, m2) slack exceeds tol, in
    row-major order; start pairs are tuples of Python ints."""
    for i, j in zip(*np.nonzero(slack > tol)):
        violations.append((kind, name, (int(i), int(j)), slack[i, j], strategy))


def verify_saddle(sol: RbsdeSolution, catalog_size: int = 200, seed: int = 0,
                  tol: float = 1e-8) -> SaddleReport:
    """Check the saddle inequalities on the game and tree `sol` was solved
    on: certify them by best replies, or name the catalog strategies that
    break them.

    Asserts, per start mode pair: |U(a*, b*) - Y(root)| <= tol; for every
    catalog Player-II strategy b, U(a*, b) <= Y(root) + tol; for every catalog
    Player-I strategy a, U(a, b*) >= Y(root) - tol.  The catalog always
    contains the stay, all constant-mode, and the greedy strategies plus
    seeded random ones.

    When the implicit step is monotone, `_best_reply` first solves each
    player's best reply to the other's extracted strategy.  If Player II's
    stays below Y(root) + tol and Player I's above Y(root) - tol, each with
    `_certificate_margin` to spare, no catalog strategy can violate, and
    the catalog is neither drawn nor evaluated.  Otherwise the catalog is
    evaluated, drawn one strategy at a time, and each violation carries the
    strategy for replay.  `tol` must be finite and nonnegative,
    `catalog_size` and `seed` nonnegative integers (DataError otherwise).

    The saddle pair and the best replies run on the tree's `carrier`, the
    distinct nodes of a path tree with a Markovian terminal, when the values
    they read (the levels of `sol.Y` below the leaves, and the leaf values)
    are the same bits at every node of each of its classes; otherwise, as
    after an edit of one node, on the whole tree.  The catalog and its
    replay tables are always on the whole tree.
    """
    _require_tolerance("tol", tol)
    _require_count("catalog_size", catalog_size, 0)
    _require_count("seed", seed, 0)
    spec, tree = sol.spec, sol.tree
    spec.require_valid()
    xi = spec.check_terminal(tree)
    run = carrier(tree, spec.terminal.markovian)
    levels = run.restrict(sol.Y[:tree.N] + [xi])
    if levels is None:
        run, levels = tree, sol.Y[:tree.N] + [xi]
    run_a, run_b = extract_saddle(RbsdeSolution(run, spec, levels, [], [], []))
    root_Y = sol.root
    gaps = np.abs(_switched_backward(spec, run, levels[-1], run_a, run_b).root - root_Y)
    report = SaddleReport(
        value_gap=dict(np.ndenumerate(gaps)), violations=[],
        catalog_size_I=_catalog_size(spec, "I", catalog_size),
        catalog_size_II=_catalog_size(spec, "II", catalog_size),
        certificate_margin=_certificate_margin(spec, tree, xi),
    )
    _add_violations(report.violations, "value", "saddle_pair", gaps, tol, None)
    if report.certificate_margin is not None:
        reply_II = _best_reply(spec, run, levels[-1], run_a).root
        reply_I = _best_reply(spec, run, levels[-1], run_b).root
        report.reply_slack_II = float((reply_II - root_Y).max())
        report.reply_slack_I = float((root_Y - reply_I).max())
        report.certified = (max(report.reply_slack_I, report.reply_slack_II)
                            <= tol - report.certificate_margin)
        if report.certified:
            return report

    # the catalog and its replay tables are on the whole tree
    a_star, b_star = (run_a, run_b) if run is tree else extract_saddle(sol)
    # all Player-II draws come first, then the Player-I draws, from one rng
    rng = np.random.default_rng(seed)
    for name, b in _catalog(sol, "II", catalog_size, rng):
        u = _switched_backward(spec, tree, xi, a_star, b)
        _add_violations(report.violations, "upper", name, u.root - root_Y, tol, b)
    for name, a in _catalog(sol, "I", catalog_size, rng):
        u = _switched_backward(spec, tree, xi, a, b_star)
        _add_violations(report.violations, "lower", name, root_Y - u.root, tol, a)
    return report


# ---------------------------------------------------------------------------
# The representation route: lower-reflected systems and brute force
# ---------------------------------------------------------------------------

# Values (strategy suffixes x nodes x m1 x m2) in any level of brute force's
# pass.  Within the former caps (2**14 strategies, 2**18 strategies x interior
# nodes) a level held at most 2**18 * m1 * m2 < 2**22, as m1 * m2 <= 12 always
# (`model.DEFAULT_LOOP_CAP`), so every game they admitted passes.
_MAX_BRUTE_FORCE_VALUES = 2 ** 22


def solve_lower_reflected(spec: GameSpec, tree, a: FeedbackStrategy):
    """Solve the Player-II-reflected system under a fixed Player-I strategy.

    The strategy must not read the opponent coordinate (its action table is
    constant across j).  Each step takes the implicit step's value at the
    strategy's mode choice plus the Player-I switch cost, then the minimal
    upward push ``max(y, lower_barrier(y))``, exact under the strict triangle
    inequality that `spec.require_valid()` checks.  Returns the list of
    per-level (n_t, m1, m2) value fields.
    """
    if a.player != "I":
        raise DataError("expected a Player-I strategy")
    spec.require_valid()
    _check_actions(spec, tree, a)
    if not a.j_uniform():
        raise DataError("the representation route needs a j-independent strategy")
    xi, tables = spec.check_terminal(tree), [x[None, :, :, 0] for x in a.actions]
    return [y[:, 0] for y in _lower_reflected_backward(spec, tree, xi, tables)]


def _lower_reflected_backward(spec, tree, xi, tables):
    """The lower-reflected systems from checked leaf values `xi` under stacks
    of checked j-uniform Player-I tables, `tables[t]` (T_t, n_t, m1).  Level
    t's problems are each level-(t+1) problem under each level-t table,
    suffix-major, on the leading axis of one field that the kernel solves as
    one problem.  Returns the kernel's node-first levels, (n_t, problems, m1, m2)."""
    def post(t, W, z):
        S, m1, m2, n = W.shape
        a = np.moveaxis(tables[t], 1, -1)[:, :, None]    # (T, m1, 1, n)
        at = np.ravel_multi_index((a, np.arange(m2)[:, None], np.arange(n)), (m1, m2, n))
        y = np.take(W.reshape(S, -1), at, axis=1)        # W[:, a, j, node]
        y += spec.costs.k[np.arange(m1)[:, None, None], a]
        y = y.reshape(-1, m1, m2, n)
        return (np.maximum(y, _lower(y, spec.costs), out=y),)

    return bsde.backward(tree, xi[:, None], spec.generator, post)[0]


def feedback_tables(tree, player, m1, m2):
    """Every (n_t, m1, m2) action table of one player, one stack per level, in
    the order of `itertools.product` over the table's entries."""
    hi, stacks = (m1 if player == "I" else m2), []
    for t in range(tree.N):
        slots = tree.level_size(t) * m1 * m2
        codes = np.arange(hi ** slots)[:, None] // hi ** np.arange(slots - 1, -1, -1)
        stacks.append((codes % hi).reshape(-1, tree.level_size(t), m1, m2))
    return stacks


def brute_force_value(spec: GameSpec, tree):
    """Exhaustive minimum over Player-I strategies of the lower-reflected solve.

    Returns the (m1, m2) matrix of root values.  This is the independent
    oracle for the representation theorem; it never calls the direct
    reflected solver.  One pass solves every j-independent Player-I
    strategy.  Past its size cap, SizingError before any table is built.
    """
    power = 0   # level t holds m1 ** power strategy suffixes
    for t in range(tree.N - 1, -1, -1):
        n_t = tree.level_size(t)
        power += n_t * spec.m1
        # past the cap's bit length the power alone exceeds it
        if (spec.m1 > 1 and power >= _MAX_BRUTE_FORCE_VALUES.bit_length()
                or spec.m1 ** power * n_t * spec.m1 * spec.m2 > _MAX_BRUTE_FORCE_VALUES):
            raise SizingError(f"brute force capped at {_MAX_BRUTE_FORCE_VALUES} values per "
                              f"tree level; level {t} holds {spec.m1}**{power} strategy "
                              f"suffixes x {n_t} nodes x {spec.m1 * spec.m2} mode pairs")
    spec.require_valid()
    # one mode per (node, i), as if Player II had one mode: j-uniform and in range
    tables = [x[..., 0] for x in feedback_tables(tree, "I", spec.m1, 1)]
    roots = _lower_reflected_backward(spec, tree, spec.check_terminal(tree), tables)[0][0]
    return roots.min(axis=0)
