"""The backward-induction kernel shared by every solver in the package.

Each solver is one backward recursion over the tree levels.  `backward` owns
that recursion: it puts the terminal values in the leaf slot, checks the
contraction condition, and for t = N-1, ..., 0 conditions the level-(t+1)
values on level t,

    E   = E[Y_next]                  (per node)
    z_p = E[Y_next * dW_p] / dt,

solves the implicit equation ``y = E + driver(t, w, y, z) * dt`` on the
whole (node, mode pair) field, and hands (y, z) to the solver's post-step:
the identity (`solve_system`), the oblique projection (`reflected`), the
exact upper clamp ``min(y, upper_barrier(y))`` behind a penalty driver
(`penalty`), a gather at the settled pairs plus switch costs
(`game.eval_switched`), the best-reply read-out (`game.verify_saddle`), or a
gather plus the exact lower clamp ``max(y, lower_barrier(y))``
(`game.solve_lower_reflected`).  The drivers act entrywise on (node, pair),
so a gather after the solve gives the fixed point of a solve at the gathered
pairs.  This is the discretely obliquely reflected scheme of Chassagneux,
Elie & Kharroubi (AAP 2012): an implicit step followed by a projection.

A driver enters the kernel in its level form, ``driver.at_level(t, w, z)``,
built once per level while z is fixed.  It is either the level's driver
value, an array that does not depend on y (the `zero` and `mode_constant`
generators), and then one step ``E + dt * value`` is the fixed point; or a
function of y alone, which Picard iteration started from E solves.  A future
resolvent wraps this level form.

Problems on one tree can share a pass, stacked problem-first on axis 0 of
every field, ``(S, n_t, m1, m2)``: each problem's field is one contiguous run,
and each comes out bit for bit as from its own pass.

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

from .errors import ConvergenceError, SizingError

PICARD_TOL = 1e-12
MAX_PICARD_ITER = 10000


class DriverFn:
    """A driver with a declared Lipschitz constant.

    `fn(t, w, y, z)` is evaluated on whole levels: w is (n, d), y is
    (n, m1, m2), z is (n, d, m1, m2); the result has y's shape.  A
    `GeneratorSpec` has the same call, level form and attribute, so it is a
    driver too.  For problems stacked in one pass, `fn(live)` gives the
    driver of the problems `live` instead.
    """

    def __init__(self, fn, lipschitz: float):
        self.fn = fn
        self.lipschitz = float(lipschitz)

    def __call__(self, *args):
        return self.fn(*args)

    def at_level(self, t, w, z):
        """The level form: `fn` at this level, as a function of y."""
        return lambda y: np.array(self.fn(t, w, y, z), dtype=float)


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

    With `problems`, one name per entry of E's axis 0, ``update(live)`` gives
    the update of the problems `live` and is asked again whenever one leaves:
    each leaves at the iteration where it would stop alone, `iterations` is
    summed over them, and a failure names its problem.
    """
    if problems is not None:
        return _stacked_picard(E, update, problems)
    one = update if not callable(update) else (lambda y: update(y[0])[None])
    y, iterations = _stacked_picard(E[None], lambda live: one, [None])
    return y[0], iterations


def _stacked_picard(E, update, names):
    """`picard_solve` on problems stacked on axis 0; a name None is left out of
    the messages."""
    live, out, total = np.arange(len(E)), None, 0
    step = update(live)
    if not callable(step):
        y = E + step
        _require_finite(problem_max(np.abs(y - E)), 1, live, names)
        return y, len(E)
    y = E
    for it in range(1, MAX_PICARD_ITER + 1):
        y_new = step(y)
        y_new += E
        change = y_new - y
        delta = problem_max(np.abs(change, out=change))
        _require_finite(delta, it, live, names)
        if min(delta) <= PICARD_TOL:
            done = np.array(delta) <= PICARD_TOL
            total += it * int(done.sum())
            if out is None:
                if done.all():
                    return y_new, total
                out = np.empty_like(y_new)
            out[live[done]] = y_new[done]
            live, E, y_new = live[~done], E[~done], y_new[~done]
            if not live.size:
                return out, total
            step = update(live)
        y = y_new
    raise ConvergenceError(f"{_prefix(names[live[0]])}Picard iteration did not converge "
                           f"within {MAX_PICARD_ITER} iterations (last update {max(delta):g})")


def _require_finite(delta, it, live, names):
    for s, d in enumerate(delta):
        if not math.isfinite(d):
            raise ConvergenceError(f"{_prefix(names[live[s]])}Picard iterate {it} holds a "
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
    (n_t, m1, m2) field, with E and z (n_t, d, m1, m2) conditioned from level
    t + 1, then calls ``post(t, y, z)``.  The driver enters in its level form
    (``driver.at_level(time, w, z)``, see the module docstring): a driver value
    that does not depend on y takes one step, any other driver is iterated.
    Its `lipschitz` is checked once against the contraction condition.  A
    ConvergenceError at a level is raised again with the level named.

    The kernel keeps only what `post` returns.  A tuple of level t's values
    and further entries gives ``(Y, *kept)``: Y[0..N] with `terminal` at N,
    then a list of N entries, root first, per further entry.  ``()`` leaves
    the values in y, maybe changed in place, released once level t - 1 is
    conditioned, and gives ``()``.  With `problems` (see `picard_solve`), every
    field, `terminal` included, holds the problems on a new axis 0: y is
    (S, n_t, m1, m2) and z (S, n_t, d, m1, m2).  ``driver(live)`` gives the
    driver of the problems `live`, whose level form is built again each time
    the working set shrinks.
    """
    check_contraction(tree.dt, driver.lipschitz)
    N, dt = tree.N, tree.dt
    kept = [None] * N
    values = terminal
    for t in range(N - 1, -1, -1):
        if problems is not None:    # conditioned node-major, solved problem-major
            values = np.ascontiguousarray(np.moveaxis(values, 0, 1))
        E, z = tree.expect_next(t, values), tree.z_next(t, values)
        values = None
        w, time = tree.level_w(t), tree.time(t)
        if problems is None:
            update = _level_update(driver, time, w, z, dt)
        else:
            E = np.ascontiguousarray(np.moveaxis(E, 1, 0))
            z = np.ascontiguousarray(np.moveaxis(z, 2, 0))

            def update(live):
                zl = z if live.size == len(z) else z[live]
                return _level_update(driver(live), time, w, zl, dt)
        try:
            y, _ = picard_solve(E, update, problems=problems)
            kept[t] = post(t, y, z)
        except ConvergenceError as exc:
            raise ConvergenceError(f"tree level {t}: {exc}") from exc
        values = kept[t][0] if kept[t] else y
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
