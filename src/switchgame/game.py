"""Switching strategies, the switched BSDE, and the saddle-point machinery.

A feedback strategy is an action table over (node, i, j): on a path tree the
node is exactly the Brownian history, so feedback tables represent every
adapted strategy.  Actions equal to the player's own current mode mean
"stay".

Within a step the two action tables are resolved at the step's left endpoint
by an alternating read-out with Player I first: I acts on the current pair,
II acts on the post-I pair, and the alternation repeats until neither table
asks for a further switch.  Such same-instant chains are essential, not a
corner case: when a switch lands on a coordinate that itself sits on a
barrier, the reflected system reacts at the same time point, and the saddle
strategies realize that reaction as a cascade of switches at one node (every
leg charged its cost).  The no-zero-cost-loop hypothesis guarantees the
cascades of the extracted saddle strategies terminate; adversarially cyclic
tables are cut off by a switch-count cap and only pay for the detour.  The
BSDE step then runs under the settled pair, and the switch costs are
charged.

The read-out is not replayed round by round.  One round (I reads, then II
reads) is a map on each node's m1*m2 pairs; `_resolve_modes` composes it
with itself by powers of two, lets each entry take the longest run of
rounds that stays within the cap, and replays the one round the cap can cut
partway.  Settled pairs and switch counts are those of the round-by-round
read-out.  Costs agree with it to rounding, and bit for bit whenever each
player switches at most twice in a step, which covers every cascade of the
extracted saddle strategies on the bundled scenarios.

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
either fails, or the step is not monotone, the seeded catalog runs as
before and names the violating strategies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import bsde
from .errors import DataError, SizingError
from .model import GameSpec, lower_barrier, upper_barrier
from .reflected import RbsdeSolution

BRUTE_FORCE_MAX_STEPS = 3
BRUTE_FORCE_MAX_MODES = 4
_MAX_STRATEGIES = 2 ** 14      # Player I's tables at those caps with 2x2 modes and d = 1


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

    def root(self, start=None):
        if start is None:
            return self.U[0][0]
        i, j = start
        return float(self.U[0][0, i, j])


def _resolve_modes(A, B, m1, m2, k, l):
    """Settle one step's mode pair from both action tables.

    Alternating read-out with Player I first: each player in turn reads its
    table at the current pair and switches if the read differs, repeated
    until neither player moves.  Switching stops for both players once
    4*m1*m2 switches have been made (only adversarially cyclic tables hit
    the cap; every switch costs, so cyclists only hurt themselves).  Returns
    the settled (i, j) tables and each player's accumulated switch cost, all
    shaped like A.

    The read-out is resolved in closed form.  One round (I reads, then II
    reads) maps each (node, pair) entry to its next pair, with the round's
    switch count and each player's cost, masked by whether that player
    moved.  Composing the round map with itself gives jump tables for 1, 2,
    4, ... rounds, enough to cover cap + 1 rounds; descending from the
    largest jump, an entry takes each jump that keeps its switch total
    within the cap.  Rounds taken this way are exactly the rounds of the
    read-out, since no switch in them meets the cap.  One more round with
    the cap checks then replays the round the cap can cut partway (I
    switches, II is blocked).  Settled pairs and switch counts equal the
    round-by-round read-out's exactly; costs are sums of the same terms in
    another grouping, so they agree to rounding, and bit for bit when each
    player switches at most twice (every other term added is an exact zero).
    """
    n_t = A.shape[0]
    M = int(m1 * m2)
    T = n_t * M
    cap = 4 * M
    A, B = A.reshape(-1), B.reshape(-1)
    # cost tables with the diagonal zeroed: a player who does not move reads
    # its own diagonal entry, so the charge is masked by "moved" exactly
    kz = np.where(np.eye(m1, dtype=bool), 0.0, k).reshape(-1)
    lz = np.where(np.eye(m2, dtype=bool), 0.0, l).reshape(-1)
    pair = np.arange(M)
    base = np.repeat(np.arange(n_t) * M, M)          # flat node offset
    i0 = np.tile(pair // m2, n_t)
    j0 = np.tile(pair % m2, n_t)

    def one_round(i, j, switches):
        """One capped round from modes (i, j) at the flat entries' nodes."""
        ni = A[base + i * m2 + j]
        ni = i + ((ni != i) & (switches < cap)) * (ni - i)
        switches = switches + (ni != i)
        nj = B[base + ni * m2 + j]
        nj = j + ((nj != j) & (switches < cap)) * (nj - j)
        return ni, nj, switches + (nj != j), kz[i * m1 + ni], lz[j * m2 + nj]

    # Jump tables (next flat entry, switches, Player-I cost, Player-II cost)
    # for 1, 2, 4, ... rounds.  Entry T is an absorbing no-op that a skipped
    # jump reads, so skipping adds an exact zero.
    i1, j1, s1, cA1, cB1 = one_round(i0, j0, 0)
    jumps = [(np.append(base + i1 * m2 + j1, T), np.append(s1, 0),
              np.append(cA1, 0.0), np.append(cB1, 0.0))]
    for _ in range(cap.bit_length() - 1):
        nxt, s, cA, cB = jumps[-1]
        jumps.append((nxt[nxt], s + s[nxt], cA + cA[nxt], cB + cB[nxt]))

    pos = np.arange(T)
    switches = np.zeros(T, dtype=int)
    costA = np.zeros(T)
    costB = np.zeros(T)
    for nxt, s, cA, cB in reversed(jumps):
        take = switches + s[pos] <= cap
        q = pos + ~take * (T - pos)
        switches = switches + s[q]
        costA = costA + cA[q]
        costB = costB + cB[q]
        pos = pos + take * (nxt[q] - pos)
    ci, cj, _, cA, cB = one_round(i0[pos], j0[pos], switches)
    shape = (n_t, m1, m2)
    return (ci.reshape(shape), cj.reshape(shape),
            (costA + cA).reshape(shape), (costB + cB).reshape(shape))


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
        i_fin, j_fin, costA, costB = _resolve_modes(
            a.actions[t], b.actions[t], spec.m1, spec.m2, spec.costs.k, spec.costs.l)
        n_idx = np.arange(W.shape[0])[:, None, None]
        return (W[n_idx, i_fin, j_fin] + costA - costB,)

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
    i, j = start
    node = 0
    nodes, modes, A, B = [0], [(i, j)], [0.0], [0.0]
    cumA = cumB = 0.0
    cap = 4 * spec.m1 * spec.m2
    for t, c in enumerate(branches):
        moved, switches = True, 0
        while moved and switches < cap:
            moved = False
            ni = int(a.actions[t][node, i, j])
            if ni != i:
                cumA += spec.costs.k[i, ni]
                i, moved = ni, True
                switches += 1
            nj = int(b.actions[t][node, i, j])
            if nj != j and switches < cap:
                cumB += spec.costs.l[j, nj]
                j, moved = nj, True
                switches += 1
        node = node * tree.branching + int(c)
        nodes.append(node)
        modes.append((i, j))
        A.append(cumA)
        B.append(cumB)
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
    if player == "I":
        barrier, target = upper_barrier(y, costs, targets=True)
        stay = np.arange(costs.m1)[:, None]
    else:
        barrier, target = lower_barrier(y, costs, targets=True)
        stay = np.arange(costs.m2)
    fired = fire(barrier)
    return np.where(fired, target, stay), fired


def extract_saddle(sol: RbsdeSolution, spec: GameSpec | None = None,
                   tol: float = 1e-9):
    """Candidate saddle strategies from the solved value field.

    Player I's trigger fires when the value sits on its upper barrier (within
    tol); Player II's when it sits on its lower barrier.  When both fire at
    once, Player I switches and Player II stays.  Switch targets are the
    barrier argmin/argmax, smallest index on ties.
    """
    costs = (spec or sol.spec).costs
    acts_I, acts_II = [], []
    for y in sol.Y[:sol.tree.N]:
        a, fire_I = _barrier_actions(y, costs, "I", lambda up: y >= up - tol)
        b, _ = _barrier_actions(y, costs, "II", lambda lo: (y <= lo + tol) & ~fire_I)
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
    step gives W, the step value at every pair the read-out can settle on;
    the post-step runs the same-instant programme on it.

    * Same-instant programme.  The read-out of `_resolve_modes` (Player I
      reads first, the opponent's moves are forced, switching stops at
      4*m1*m2 switches) becomes a programme over the states (pair, switches
      used s, whose turn, whether anyone moved this round):

        I(p, s)     = the I move into II1(p', s + 1), charged k, or II0(p, s)
        II0(p, s)   = the II move into I(p', s + 1), less l, or W(p)
        II1(p, s)   = the II move into I(p', s + 1), less l, or I(p, s)

      with every state worth W(p) at s = 4*m1*m2, and the value I(p, 0).
      The opponent's turns follow its table; the replier's take the best
      option.  The recursion in s does not depend on s, so it stops as soon
      as one pass reproduces the previous one exactly.

    The replier may choose by the whole state, so the value is at least (or
    at most) every feedback table's value, not only equal to the best one:
    against an arbitrary opponent it can sit strictly above the best table
    by exploiting a cycle.
    """
    m1, m2 = spec.m1, spec.m2
    costs = spec.costs
    cap = 4 * m1 * m2
    i_grid = np.arange(m1)[:, None]
    j_grid = np.arange(m2)[None, :]

    def post(t, W, z):
        act = opponent.actions[t]
        n_idx = np.arange(act.shape[0])[:, None, None]
        if opponent.player == "I":
            stays = act == i_grid
            charge = costs.k[i_grid, act]

            def turn_I(stay, move):
                return np.where(stays, stay, charge + move[n_idx, act, j_grid])

            def turn_II(stay, move):
                return np.maximum(stay, lower_barrier(move, costs))
        else:
            stays = act == j_grid
            charge = costs.l[j_grid, act]

            def turn_I(stay, move):
                return np.minimum(stay, upper_barrier(move, costs))

            def turn_II(stay, move):
                return np.where(stays, stay, move[n_idx, i_grid, act] - charge)

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
        read-out reaches (cap = 4*m1*m2);
      * for `saturated_affine`, the Picard stopping error: iteration stops
        once an update moves no entry by more than the Picard tolerance
        tau, which leaves the iterate within q/(1 - q) * tau of the fixed
        point.  The other two families' update ignores y, so their second
        iterate repeats the first exactly.
    Summed over the levels with the growth factor, and over both sides:

        margin = 2 * sum_{t<N} (1 - q)**-t * (R*u*S + [q/(1 - q) * tau]),

    floored at 1e-12.
    """
    gen = spec.generator
    if not gen.comparison_holds(tree.dt):
        return None
    affine = gen.family == "saturated_affine"
    cap = 4 * spec.m1 * spec.m2
    q = tree.dt * abs(gen.a)
    rounds = cap + 2 ** (tree.d + 1) + tree.d + 8
    scale = (float(np.abs(xi).max()) + tree.T * gen.sup_bound
             + tree.N * cap * float(max(spec.costs.k.max(), spec.costs.l.max())))
    per_level = rounds * (np.finfo(float).eps / 2) * scale
    if affine:
        per_level += q / (1.0 - q) * bsde.DEFAULT_PICARD_TOL
    growth = sum((1.0 - q) ** -t for t in range(tree.N))
    return max(1e-12, float(2.0 * growth * per_level))


def _add_violations(violations, kind, name, slack, tol, strategy):
    """Append a violation per start pair whose (m1, m2) slack exceeds tol, in
    row-major order; start pairs are tuples of Python ints."""
    for i, j in zip(*np.nonzero(slack > tol)):
        violations.append((kind, name, (int(i), int(j)), slack[i, j], strategy))


def verify_saddle(spec: GameSpec, tree, sol: RbsdeSolution, catalog_size: int = 200,
                  seed: int = 0, tol: float = 1e-8) -> SaddleReport:
    """Check the saddle inequalities: certify them by best replies, or name
    the catalog strategies that break them.

    Asserts, per start mode pair: |U(a*, b*) - Y(root)| <= tol; for every
    catalog Player-II strategy b, U(a*, b) <= Y(root) + tol; for every catalog
    Player-I strategy a, U(a, b*) >= Y(root) - tol.  The catalog always
    contains the stay, all constant-mode, and the greedy strategies plus
    seeded random ones.

    When the implicit step is monotone, both players' best replies are
    solved first.  If Player II's best reply stays below Y(root) + tol and
    Player I's above Y(root) - tol, each with `_certificate_margin` to
    spare, no catalog strategy can violate, and the catalog is neither drawn
    nor evaluated.  Otherwise the catalog is evaluated from the checked
    terminal, drawn one strategy at a time, and each violation carries the
    serialized strategy for replay.
    """
    spec.require_valid()
    xi = spec.check_terminal(tree)
    a_star, b_star = extract_saddle(sol, spec)
    root_Y = sol.root
    gaps = np.abs(_switched_backward(spec, tree, xi, a_star, b_star).root() - root_Y)
    report = SaddleReport(
        value_gap=dict(np.ndenumerate(gaps)), violations=[],
        catalog_size_I=_catalog_size(spec, "I", catalog_size),
        catalog_size_II=_catalog_size(spec, "II", catalog_size),
        certificate_margin=_certificate_margin(spec, tree, xi),
    )
    _add_violations(report.violations, "value", "saddle_pair", gaps, tol, None)
    if report.certificate_margin is not None:
        reply_II = _best_reply(spec, tree, xi, a_star).root()
        reply_I = _best_reply(spec, tree, xi, b_star).root()
        report.reply_slack_II = float((reply_II - root_Y).max())
        report.reply_slack_I = float((root_Y - reply_I).max())
        report.certified = (max(report.reply_slack_I, report.reply_slack_II)
                            <= tol - report.certificate_margin)
        if report.certified:
            return report

    # all Player-II draws come first, then the Player-I draws, from one rng
    rng = np.random.default_rng(seed)
    for name, b in _catalog(sol, "II", catalog_size, rng):
        u = _switched_backward(spec, tree, xi, a_star, b)
        _add_violations(report.violations, "upper", name, u.root() - root_Y, tol, b)
    for name, a in _catalog(sol, "I", catalog_size, rng):
        u = _switched_backward(spec, tree, xi, a, b_star)
        _add_violations(report.violations, "lower", name, root_Y - u.root(), tol, a)
    return report


# ---------------------------------------------------------------------------
# The representation route: lower-reflected systems and brute force
# ---------------------------------------------------------------------------

def solve_lower_reflected(spec: GameSpec, tree, a: FeedbackStrategy):
    """Solve the Player-II-reflected system under a fixed Player-I strategy.

    The strategy must not read the opponent coordinate (its action table is
    constant across j).  Each step: the implicit step's value at the
    strategy's mode choice, plus the Player-I switch cost, then the lower (l)
    barriers are enforced by the minimal upward push, one clamp
    ``max(y, lower_barrier(y))``; it is exact under the strict triangle
    inequality, which `spec.require_valid()` checks.

    Returns the list of per-level (n_t, m1, m2) value fields.
    """
    if a.player != "I":
        raise DataError("expected a Player-I strategy")
    spec.require_valid()
    _check_actions(spec, tree, a)
    if not a.j_uniform():
        raise DataError("the representation route needs a j-independent strategy")
    i_grid = np.arange(spec.m1)[:, None]
    j_grid = np.arange(spec.m2)[None, None, :]

    def post(t, W, z):
        ia = a.actions[t]                           # (n, m1, m2), j-uniform
        n_idx = np.arange(W.shape[0])[:, None, None]
        y = W[n_idx, ia, j_grid] + spec.costs.k[i_grid, ia]
        return (np.maximum(y, lower_barrier(y, spec.costs)),)

    return bsde.backward(tree, spec.check_terminal(tree), spec.generator, post)[0]


def enumerate_feedback_strategies(tree, player, m1, m2):
    """All feedback strategies (node, i, j) -> mode for one player.

    One mode choice per (interior node, i, j); the count is
    (m1 or m2) ** (num_interior_nodes * m1 * m2), so callers must respect
    the brute-force caps.
    """
    sizes = [tree.level_size(t) for t in range(tree.N)]
    hi = m1 if player == "I" else m2
    slots = sum(sizes) * m1 * m2
    for combo in itertools.product(range(hi), repeat=slots):
        acts = []
        pos = 0
        for n_t in sizes:
            block = np.array(combo[pos:pos + n_t * m1 * m2], dtype=int)
            pos += n_t * m1 * m2
            acts.append(block.reshape(n_t, m1, m2))
        yield FeedbackStrategy(player, acts)


def brute_force_value(spec: GameSpec, tree, start=None,
                      max_steps: int = BRUTE_FORCE_MAX_STEPS,
                      max_modes: int = BRUTE_FORCE_MAX_MODES):
    """Exhaustive minimum over Player-I strategies of the lower-reflected solve.

    Returns the (m1, m2) matrix of root values (or the scalar for `start`).
    This is the independent oracle for the representation theorem; it never
    calls the direct reflected solver.
    """
    if tree.N > max_steps or spec.m1 * spec.m2 > max_modes:
        raise SizingError(
            f"brute force capped at N <= {max_steps} and m1*m2 <= {max_modes}; "
            f"got N={tree.N}, m1*m2={spec.m1 * spec.m2}"
        )
    count = spec.m1 ** (spec.m1 * sum(tree.level_size(t) for t in range(tree.N)))
    if count > _MAX_STRATEGIES:
        raise SizingError(f"brute force capped at {_MAX_STRATEGIES} Player-I strategies; "
                          f"got {count}")
    spec.require_valid()
    best = None
    # the j-independent Player-I strategies: one table per (node, i), repeated over j
    for table in enumerate_feedback_strategies(tree, "I", spec.m1, 1):
        a = FeedbackStrategy("I", [np.repeat(x, spec.m2, axis=2) for x in table.actions])
        root = solve_lower_reflected(spec, tree, a)[0][0]
        best = root.copy() if best is None else np.minimum(best, root)
    if start is None:
        return best
    return float(best[start[0], start[1]])
