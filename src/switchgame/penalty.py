"""Penalization route: lower barriers as penalty drivers, upper barriers as
reflection, plus the doubly penalized plain system and convergence reporting.

At penalty level n the driver gains ``n * sum_j' (y[i,j] - y[i,j'] + l(j,j'))^-``
(the j'=j term vanishes identically because l(j,j) = 0) and each step is
followed by the exact upper clamp ``min(y, upper_barrier(y))``, the minimal
downward push under the strict triangle inequality.  The solution gives the
penalty intensity beta at every node on first read; beta * dt is the implied
lower push increment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bsde
from .errors import SizingError
from .model import GameSpec, upper_barrier
from .reflected import RbsdeSolution

_MONOTONE_SLACK = 1e-10     # rounding allowance of penalization_report's nonincreasing test


def _lower_penalty_terms(y, l):
    """(n, m1, m2, m2) array of (y[i,j] - y[i,j'] + l(j,j'))^- over j'."""
    diff = y[..., :, :, None] - y[..., :, None, :] + l[None, None, :, :]
    return np.maximum(-diff, 0.0)


def _upper_penalty_terms(y, k):
    """(n, m1, m1, m2) array of (y[i,j] - y[i',j] - k(i,i'))^+ over i'."""
    diff = y[..., :, None, :] - y[..., None, :, :] - k[:, :, None]
    return np.maximum(diff, 0.0)


def lower_penalty_intensity(y, l, n):
    """beta = n * sum_j' (y[i,j] - y[i,j'] + l(j,j'))^-."""
    return n * _lower_penalty_terms(y, l).sum(axis=-1)


def upper_penalty_intensity(y, k, m):
    """alpha = m * sum_i' (y[i,j] - y[i',j] - k(i,i'))^+."""
    return m * _upper_penalty_terms(y, k).sum(axis=-2)


def penalty_rate(n: int, m: int) -> float:
    """Picard contraction rate contributed by a level-n penalty over m modes.

    For m == 2 only one direction of the single (j, j') pair can be active at
    a time, so the penalty Jacobian's eigenvalues per row pair are {-n, 0}
    and the rate is n exactly; for m > 2 the Gershgorin bound 2*n*(m-1)
    applies.
    """
    return float(n) if m == 2 else 2.0 * n * (m - 1)


def max_penalty_level(tree, spec: GameSpec) -> int:
    """Largest integer n whose penalty keeps dt * (C + rate) < 1 on this tree."""
    return _largest_level(tree, spec, spec.generator.lipschitz)


def _largest_level(tree, spec, lip):
    """Largest n with dt * (lip + rate of the level-n lower penalty) < 1; 0 if none.

    The rate is r*n with r = penalty_rate(1, m2), so n < (1/dt - lip) / r.
    The quotient's floor is only a first guess: the answer is decided by the
    float expression itself, stepped down while it fails at n and up while
    it holds at n + 1.  With one Player-II mode r is 0 and the lower penalty
    vanishes, so either no level contracts or every level does (SizingError).
    """
    def contracts(n):
        return tree.dt * (lip + penalty_rate(n, spec.m2)) < 1.0

    r = penalty_rate(1, spec.m2)
    if r == 0.0:
        if not contracts(1):
            return 0
        raise SizingError(
            "Player II has a single mode, so the lower penalty vanishes and every "
            "penalty level contracts; there is no largest level"
        )
    n = max(int((1.0 / tree.dt - lip) // r), 0)
    while n > 0 and not contracts(n):
        n -= 1
    while contracts(n + 1):
        n += 1
    return n


def _require_penalty_contraction(tree, spec, n, m):
    """Lipschitz constant of the driver penalized at levels n (lower) and m
    (upper; 0 for none).  SizingError when it breaks the contraction
    condition, naming the largest n that contracts at the same m."""
    lip = spec.generator.lipschitz + penalty_rate(m, spec.m1)
    if tree.dt * (lip + penalty_rate(n, spec.m2)) >= 1.0:
        extra = f" with upper penalty level {m}" if m else ""
        best = _largest_level(tree, spec, lip)
        usable = (f"the largest usable n on this tree is {best}" if best
                  else "no n is usable on this tree")
        raise SizingError(
            f"dt={tree.dt:g} breaks the contraction condition for penalty level "
            f"{n}{extra}; {usable} (refine the tree for higher levels)"
        )
    return lip + penalty_rate(n, spec.m2)


@dataclass
class PenalizedSolution:
    """Solution of the level-n penalized system.

    dK[t] holds the upper push increments of level t (t < N); beta[t] is the
    penalty intensity at the solved values of level t, computed on first read.
    """

    tree: object
    spec: GameSpec
    n: int
    Y: list
    dK: list

    @property
    def root(self) -> np.ndarray:
        return self.Y[0][0]

    @cached_property
    def beta(self) -> list:
        return [lower_penalty_intensity(y, self.spec.costs.l, self.n) for y in self.Y]


def solve_penalized(spec: GameSpec, tree, n: int,
                    picard_tol=bsde.DEFAULT_PICARD_TOL) -> PenalizedSolution:
    """Solve the penalized system at penalty level n.

    Each step solves the implicit BSDE with the penalty-augmented driver by a
    joint Picard loop over all mode pairs (the penalty couples the j
    coordinates), then clamps by the upper (k) constraints only,
    ``min(y, upper_barrier(y))``, recording dK.  Under the strict triangle
    inequality (`spec.require_valid()`) that one clamp is the minimal push.
    """
    spec.require_valid()
    gen = spec.generator
    l = spec.costs.l
    lip = _require_penalty_contraction(tree, spec, n, 0)

    def driver(t, w, y, z):
        return np.asarray(gen(t, w, y, z), dtype=float) + lower_penalty_intensity(y, l, n)

    def post(t, y, z):
        out = np.minimum(y, upper_barrier(y, spec.costs))
        return out, y - out

    Y, dK = bsde.backward(tree, spec.check_terminal(tree), bsde.DriverFn(driver, lip),
                          post, picard_tol=picard_tol)
    return PenalizedSolution(tree=tree, spec=spec, n=n, Y=Y, dK=dK)


@dataclass
class DoublePenalizedSolution:
    """Plain solve with both penalty terms (levels n down, m up); the
    intensities alpha and beta at the solved values are computed on first
    read."""

    tree: object
    spec: GameSpec
    n: int
    m: int
    Y: list

    @property
    def root(self) -> np.ndarray:
        return self.Y[0][0]

    @cached_property
    def alpha(self) -> list:
        return [upper_penalty_intensity(y, self.spec.costs.k, self.m) for y in self.Y]

    @cached_property
    def beta(self) -> list:
        return [lower_penalty_intensity(y, self.spec.costs.l, self.n) for y in self.Y]


def solve_double_penalized(spec: GameSpec, tree, n: int, m: int,
                           picard_tol=bsde.DEFAULT_PICARD_TOL) -> DoublePenalizedSolution:
    """Unreflected solve with the lower penalty at level n and the upper
    penalty at level m."""
    spec.require_valid()
    gen = spec.generator
    k, l = spec.costs.k, spec.costs.l
    lip = _require_penalty_contraction(tree, spec, n, m)

    def driver(t, w, y, z):
        return (np.asarray(gen(t, w, y, z), dtype=float)
                + lower_penalty_intensity(y, l, n)
                - upper_penalty_intensity(y, k, m))

    Y = bsde.backward(tree, spec.check_terminal(tree), bsde.DriverFn(driver, lip),
                      lambda t, y, z: (y,), picard_tol=picard_tol)[0]
    return DoublePenalizedSolution(tree=tree, spec=spec, n=n, m=m, Y=Y)


@dataclass
class ConvergenceRow:
    n: int
    root: np.ndarray            # (m1, m2) root values
    # Tests *nonincreasing* vs the previous row at slack 1e-10.  The proven
    # direction is nondecreasing, so False with monotone_worst > 0 is the
    # expected outcome wherever lower barriers bind.
    monotone_ok: bool
    monotone_worst: float       # largest increase vs the previous row
    penalty_stat: float         # max over nodes/pairs of n * (...)^-
    penalty_bound: float        # 2 * sup|psi| (+ tolerance applied by callers)
    gap: float | None           # sup-norm distance to the direct solution


@dataclass
class ConvergenceReport:
    rows: list

    def gaps(self):
        return [r.gap for r in self.rows]


def penalization_report(spec: GameSpec, tree, n_list,
                        direct: RbsdeSolution | None = None) -> ConvergenceReport:
    """Solve the penalized system along n_list and report the convergence
    diagnostics: componentwise monotonicity in n, the penalty-intensity bound
    against 2 * sup|psi|, and sup-norm gaps to the direct solution.

    ``monotone_ok`` tests that the values are nonincreasing in n (largest
    increase ``monotone_worst`` at most ``_MONOTONE_SLACK``).  The penalty is
    nonnegative and grows with n, so by comparison the values are in fact
    nondecreasing: ``monotone_ok`` is False with a positive ``monotone_worst``
    wherever lower barriers bind.
    """
    n_list = sorted(n_list)
    bound = 2.0 * spec.generator.sup_bound
    rows = []
    prev = None
    for n in n_list:
        sol = solve_penalized(spec, tree, n)
        stat = max(
            float((n * _lower_penalty_terms(y, spec.costs.l)).max())
            for y in sol.Y
        )
        if prev is None:
            mono_ok, worst = True, 0.0
        else:
            worst = max(float((y - p).max()) for y, p in zip(sol.Y, prev))
            mono_ok = worst <= _MONOTONE_SLACK
        gap = None
        if direct is not None:
            gap = max(
                float(np.abs(y - yd).max()) for y, yd in zip(sol.Y, direct.Y)
            )
        rows.append(ConvergenceRow(
            n=n, root=sol.root.copy(), monotone_ok=mono_ok, monotone_worst=worst,
            penalty_stat=stat, penalty_bound=bound, gap=gap,
        ))
        prev = sol.Y
    return ConvergenceReport(rows=rows)
