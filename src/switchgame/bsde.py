"""The backward-induction kernel shared by every solver in the package.

Each solver is one backward recursion over the tree levels.  `backward` owns
that recursion: it puts the terminal values in the leaf slot, checks the
contraction condition, and for t = N-1, ..., 0 conditions the level-(t+1)
values on level t, ``E = E[Y_next]`` and ``z_p = E[Y_next * dW_p] / dt`` per
node, solves the implicit equation ``y = E + driver(t, w, y, z) * dt`` on the
whole (node, mode pair) field, and hands (y, z) to the solver's post-step:
the identity (`solve_system`), the oblique projection (`reflected`), an exact
clamp behind a penalty driver (`penalty`), a gather at settled pairs plus
switch costs, or the best-reply read-out (`game`).  The drivers act entrywise
on (node, pair), so a gather after the solve gives the fixed point of a solve
at the gathered pairs.  This is the discretely obliquely reflected scheme of
Chassagneux, Elie & Kharroubi (AAP 2012): an implicit step and a projection.

A driver enters the kernel in its level form, ``driver.at_level(t, w, z)``,
built once per level while z is fixed.  It is either the level's driver
value, an array that does not depend on y (the `zero` and `mode_constant`
generators), and then one step ``E + dt * value`` is the fixed point; or a
function of y alone, which Picard iteration started from E solves.  A future
resolvent wraps this level form.

Fields are stored problems first, then modes, then nodes: ``(S, m1, m2,
n_t)`` and z ``(d, S, m1, m2, n_t)``, or ``(m1, m2, n_t)`` and z ``(d, m1,
m2, n_t)`` for one problem, so the modes are axes -3 and -2 and the nodes
the last; callers see node-first views.  Problems on one tree can share a
pass, each bit for bit as from its own.  The level form is built once per
level for all of them, and evaluates y of any trailing run ``Y[k:]`` of axis
0 on the same run of its own arrays (`lattice.trailing`); for one problem
the run is the whole field.  The Picard loop keeps its live problems a
trailing run: finished leading problems leave as views, and one that
finishes behind a live one rides along, its later iterates neither checked
nor kept.

The contraction condition ``dt * C < 1`` (C the driver's Lipschitz constant)
makes the fixed point unique.  Iteration stops once an update moves no entry
by more than PICARD_TOL, and fails after MAX_PICARD_ITER iterations.  Both
are fixed: the values are exact up to them.  The cap is generous because
the convergence rate degrades like 1/(1 - dt*C) near the boundary (penalized
drivers deliberately run close to it).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, SizingError, _require_tolerance
from .lattice import node_first, node_last

PICARD_TOL = 1e-12
MAX_PICARD_ITER = 10000


class DriverFn:
    """A driver with a declared Lipschitz constant, a finite number >= 0
    (DataError otherwise).

    `fn(t, w, y, z)` is evaluated on whole levels: w is (n, d), y is
    (n, m1, m2), z is (n, d, m1, m2); the result has y's shape.  A
    `GeneratorSpec` has the same call, level form and attribute, so it is a
    driver too.  For problems stacked in one pass, y is (n, S', m1, m2) and
    z (n, S', d, m1, m2), the last S' of the S problems (a trailing run).
    """

    def __init__(self, fn, lipschitz: float):
        self.fn = fn
        self.lipschitz = float(lipschitz)
        _require_tolerance("lipschitz", self.lipschitz)

    def __call__(self, *args):
        return self.fn(*args)

    def at_level(self, t, w, z):
        """The level form: `fn` at this level on node-first views, z's axis 1
        cut to y's trailing run of the stored axis 0 before its axes move."""
        def f(y):
            zy = np.moveaxis(z[:, z.shape[1] - len(y):], (0, -1), (-3, 0))
            return node_last(np.asarray(self.fn(t, w, node_first(y), zy), float)).copy()
        return f


def check_contraction(dt: float, lipschitz: float):
    """SizingError unless dt*C < 1, naming the smallest factor f with dt*C/f < 1."""
    if dt * lipschitz >= 1.0:
        n_min = math.floor(dt * lipschitz) + 1
        raise SizingError(
            f"time step dt={dt:g} is too coarse for the driver Lipschitz constant "
            f"{lipschitz:g} (need dt*C < 1); refine the tree by a factor of at least {n_min}"
        )


def picard_solve(E, update, problems=None):
    """Iterate ``y <- E + update(y)`` until no entry moves more than PICARD_TOL.

    Returns (y, iterations).  `update` already includes the dt factor; it
    returns a new array shaped like y, into which the loop adds E.  An update
    that does not depend on y may be given as its value, an array that
    broadcasts against E: then one step ``E + update`` is the fixed point,
    checked as iterate 1.  An iterate holding a NaN or an infinity makes the
    update non-finite, and raises ConvergenceError at once.

    With `problems`, one name per entry of E's axis 0, the problems are
    solved together and `update` takes the iterate of any trailing run
    ``E[k:]`` of them.  Each stops at the iteration where it would stop
    alone: finished leading problems leave as views, so the live ones stay a
    trailing run, and one that finishes behind a live one rides along, its
    later iterates neither checked nor kept.  `iterations` is summed over
    the problems, and a failure names its problem.
    """
    if problems is not None:
        return _stacked_picard(E, update, problems)
    one = update if not callable(update) else (lambda y: update(y[0])[None])
    y, iterations = _stacked_picard(E[None], one, [None])
    return y[0], iterations


def _stacked_picard(E, step, names):
    """`picard_solve` on problems stacked on axis 0; a name None is left out of
    the messages.  The live problems are ``k:``; `riders` are those among
    them that have finished."""
    S = len(E)
    if not callable(step):
        y = E + step
        if not np.isfinite(y).all():     # the update is formed only to word the error
            _require_finite(enumerate(problem_max(np.abs(y - E))), 1, names)
        return y, S
    k, total, out, riders = 0, 0, None, set()
    y = live_E = E
    for it in range(1, MAX_PICARD_ITER + 1):
        y_new = step(y)
        y_new += live_E
        change = y_new - y
        delta = problem_max(np.abs(change, out=change))
        unfinished = enumerate(delta, k)    # (problem, update) pairs, before k moves
        if riders or not math.isfinite(sum(delta)) or min(delta) <= PICARD_TOL:
            unfinished = [(s, d) for s, d in unfinished if s not in riders]
            _require_finite(unfinished, it, names)
            done = [s for s, d in unfinished if d <= PICARD_TOL]
            if done:
                total += it * len(done)
                if out is None:
                    if len(done) == S:
                        return y_new, total
                    out = np.empty_like(y_new)
                for s in done:
                    out[s] = y_new[s - k]
                riders.update(done)
                first = k
                while first in riders:
                    riders.remove(first)
                    first += 1
                if first == S:
                    return out, total
                y_new, live_E, k = y_new[first - k:], E[first:], first
        y = y_new
    last = max(d for s, d in unfinished if d > PICARD_TOL)
    raise ConvergenceError(f"{_prefix(names[k])}Picard iteration did not converge "
                           f"within {MAX_PICARD_ITER} iterations (last update {last:g})")


def _require_finite(deltas, it, names):
    """ConvergenceError naming the first problem whose update is not finite,
    `deltas` (problem, update) pairs in problem order."""
    for s, d in deltas:
        if not math.isfinite(d):
            raise ConvergenceError(f"{_prefix(names[s])}Picard iterate {it} holds a "
                                   f"non-finite value (update {d:g})")


def _prefix(name):
    return "" if name is None else f"{name}: "


def problem_max(a):
    """Largest entry per problem (axis 0), as floats."""
    if len(a) == 1:
        return [float(a.max())] if a.size else [0.0]
    return a.reshape(len(a), math.prod(a.shape[1:])).max(axis=1).tolist()


def _level_update(driver, t, w, z, dt):
    """dt times the driver's level form: its value, or a function of y."""
    f = driver.at_level(t, w, z)
    if not callable(f):
        return dt * np.asarray(f, dtype=float)

    def step(y):
        out = f(y)
        out *= dt
        return out
    return step


def backward(tree, terminal, driver, post, problems=None):
    """Run the backward induction from the leaf values `terminal` to the root.

    Each level t solves ``y = E + dt * driver(time, w, y, z)`` on the whole
    stored field, modes at -3 and -2 and nodes last, with E and z conditioned
    from level t + 1, then calls ``post(t, y, z)``.  The driver enters in its
    level form, evaluated on trailing runs of y's axis 0 (see the module
    docstring), its `lipschitz` checked once against the contraction
    condition.  A ConvergenceError at a level is raised again with the level
    named.

    The kernel keeps only what `post` returns.  A tuple of level t's values
    and further entries gives ``(Y, *kept)`` as node-first views: Y[0..N]
    with the node-first `terminal` at N, then a list of N entries, root
    first, per further entry.  ``()`` leaves the values in y, maybe changed
    in place, and gives ``()``.  With `problems` (see `picard_solve`),
    `terminal` is (n_N, S, m1, m2), y (S, m1, m2, n_t) and z (d, S, m1, m2,
    n_t); without, y is (m1, m2, n_t) and z (d, m1, m2, n_t).
    """
    check_contraction(tree.dt, driver.lipschitz)
    N, dt = tree.N, tree.dt
    kept = [None] * N
    values = terminal
    for t in range(N - 1, -1, -1):
        E = node_last(tree.expect_next(t, values))
        z = node_last(tree.z_next(t, values))
        values = None
        try:    # the level form, and the arrays it holds, last as long as the solve
            y, _ = picard_solve(E, _level_update(driver, tree.time(t), tree.level_w(t), z, dt),
                                problems=problems)
            kept[t] = [node_first(f) for f in post(t, y, z)]
        except ConvergenceError as exc:
            raise ConvergenceError(f"tree level {t}: {exc}") from exc
        values = kept[t][0] if kept[t] else node_first(y)
        del y
    kept = list(map(list, zip(*kept)))
    return (kept[0] + [terminal], *kept[1:]) if kept else ()


def solve_system(tree, driver, terminal_values):
    """Full unreflected backward solve.

    Parameters
    ----------
    terminal_values : (n_leaves, m1, m2) array of leaf values.

    Returns
    -------
    Y : list of per-level value arrays, index 0 (root) to N (leaves).
    Z : list of per-level martingale coefficient arrays, index 0 to N-1.
    """
    return backward(tree, np.asarray(terminal_values, dtype=float), driver,
                    lambda t, y, z: (y, z))
