"""The backward-induction kernel shared by every solver in the package.

Each solver is one backward recursion over the tree levels.  `backward` owns
that recursion: it puts the terminal values in the leaf slot, checks the
contraction condition, and for t = N-1, ..., 0 conditions the level-(t+1)
values on level t,

    E   = E[Y_next]                  (per node)
    z_p = E[Y_next * dW_p] / dt,

solves the implicit equation ``y = E + driver(t, w, y, z) * dt`` on the
whole (node, mode pair) field by Picard iteration started from E, and hands
(y, z) to the solver's post-step: the identity (`solve_system`), the oblique
projection (`reflected`), the exact upper clamp ``min(y, upper_barrier(y))``
behind a penalty driver (`penalty`), a gather at the settled pairs plus
switch costs (`game.eval_switched`), the best-reply read-out
(`game.verify_saddle`), or a gather plus the exact lower clamp
``max(y, lower_barrier(y))`` (`game.solve_lower_reflected`).  The
drivers act entrywise on (node, pair), so a gather after the solve gives the
fixed point of a solve at the gathered pairs.  This is the discretely
obliquely reflected scheme of Chassagneux, Elie & Kharroubi (AAP 2012): an
implicit step followed by a projection.  Problems on one tree can share a
pass, stacked on axis 1; each comes out bit for bit as from its own pass.

The contraction condition ``dt * C < 1`` (C the driver's Lipschitz constant)
makes the fixed point unique; the iteration cap is generous because the
convergence rate degrades like 1/(1 - dt*C) near the boundary (penalized
drivers deliberately run close to it).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, SizingError

DEFAULT_PICARD_TOL = 1e-12
DEFAULT_MAX_ITER = 10000


class DriverFn:
    """A driver with a declared Lipschitz constant.

    `fn(t, w, y, z)` is evaluated on whole levels: w is (n, d), y is
    (n, m1, m2), z is (n, d, m1, m2); the result has y's shape.  A
    `GeneratorSpec` has the same call and attribute, so it is a driver too.
    """

    def __init__(self, fn, lipschitz: float):
        self.fn = fn
        self.lipschitz = float(lipschitz)

    def __call__(self, *args):
        return self.fn(*args)


def check_contraction(dt: float, lipschitz: float):
    """SizingError unless dt*C < 1, naming the smallest factor f with dt*C/f < 1."""
    if dt * lipschitz >= 1.0:
        n_min = math.floor(dt * lipschitz) + 1
        raise SizingError(
            f"time step dt={dt:g} is too coarse for the driver Lipschitz constant "
            f"{lipschitz:g} (need dt*C < 1); refine the tree by a factor of at least {n_min}"
        )


def picard_solve(E, update, picard_tol=DEFAULT_PICARD_TOL, max_iter=DEFAULT_MAX_ITER,
                 problems=None):
    """Iterate ``y <- E + update(y)`` to its fixed point.

    Returns (y, iterations).  `update` already includes the dt factor.  An
    iterate holding a NaN or an infinity makes the update non-finite, and
    raises ConvergenceError at once.

    With `problems`, one name per entry of E's axis 1, ``update(live)`` gives
    the update of the problems `live` and is asked again whenever one leaves:
    each leaves at the iteration where it would stop alone, `iterations` is
    summed over them, and a failure names its problem.
    """
    y = E.copy()
    if problems is None:
        for it in range(1, max_iter + 1):
            y_new = E + update(y)
            delta = float(np.abs(y_new - y).max()) if y.size else 0.0
            if not math.isfinite(delta):
                raise ConvergenceError(
                    f"Picard iterate {it} holds a non-finite value (update {delta:g})"
                )
            y = y_new
            if delta <= picard_tol:
                return y, it
        raise ConvergenceError(
            f"Picard iteration did not converge within {max_iter} iterations "
            f"(last update {delta:g})"
        )
    out, live, total = y, np.arange(E.shape[1]), 0
    step = update(live)
    for it in range(1, max_iter + 1):
        y_new = E + step(y)
        delta = problem_max(np.abs(y_new - y))
        for s, d in enumerate(delta):
            if not math.isfinite(d):
                raise ConvergenceError(f"{problems[live[s]]}: Picard iterate {it} holds a "
                                       f"non-finite value (update {d:g})")
        if min(delta) <= picard_tol:
            done = np.array(delta) <= picard_tol
            out[:, live[done]] = y_new[:, done]
            total += it * int(done.sum())
            live, E, y_new = live[~done], E[:, ~done], y_new[:, ~done]
            if not live.size:
                return out, total
            step = update(live)
        y = y_new
    raise ConvergenceError(f"{problems[live[0]]}: Picard iteration did not converge within "
                           f"{max_iter} iterations (last update {max(delta):g})")


def problem_max(a):
    """Largest entry per problem (axis 1), as floats; axis 0 first, far faster."""
    if a.shape[1] == 1:
        return [float(a.max())]
    return a.max(axis=0).reshape(a.shape[1], math.prod(a.shape[2:])).max(axis=1).tolist()


def backward(tree, terminal, driver, post, picard_tol=DEFAULT_PICARD_TOL, problems=None):
    """Run the backward induction from the leaf values `terminal` to the root.

    Each level t solves ``y = E + dt * driver(time, w, y, z)`` on the whole
    (n_t, m1, m2) field, with E and z (n_t, d, m1, m2) conditioned from level
    t + 1, then calls ``post(t, y, z)``.  The driver's `lipschitz` is checked
    once against the contraction condition.  A ConvergenceError at a level is
    raised again with the level named.

    The kernel keeps only what `post` returns.  A tuple of level t's values
    and further entries gives ``(Y, *kept)``: Y[0..N] with `terminal` at N,
    then a list of N entries, root first, per further entry.  ``()`` leaves
    the values in y, maybe changed in place, released once level t - 1 is
    conditioned, and gives ``()``.  With `problems` (see `picard_solve`), z is
    (n_t, S, d, m1, m2), every field has that axis 1, and ``driver(live)``
    gives the driver of the problems `live` each time the working set shrinks.
    """
    check_contraction(tree.dt, driver.lipschitz)
    N, dt = tree.N, tree.dt
    kept = [None] * N
    values = terminal
    for t in range(N - 1, -1, -1):
        E, z = tree.expect_next(t, values), tree.z_next(t, values)
        values = None
        w, time = tree.level_w(t), tree.time(t)
        if problems is None:
            def update(y):
                return dt * np.asarray(driver(time, w, y, z), dtype=float)
        else:
            z = np.moveaxis(z, 1, 2)   # drivers read the Brownian axis just before (i, j)

            def update(live):
                zl, fn = z[:, live], driver(live)
                return lambda y: dt * np.asarray(fn(time, w, y, zl), dtype=float)
        try:
            y, _ = picard_solve(E, update, picard_tol=picard_tol, problems=problems)
            kept[t] = post(t, y, z)
        except ConvergenceError as exc:
            raise ConvergenceError(f"tree level {t}: {exc}") from exc
        values = kept[t][0] if kept[t] else y
        del y
    kept = list(map(list, zip(*kept)))
    return (kept[0] + [terminal], *kept[1:]) if kept else ()


def solve_system(tree, driver, terminal_values, picard_tol=DEFAULT_PICARD_TOL):
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
                    lambda t, y, z: (y, z), picard_tol=picard_tol)
