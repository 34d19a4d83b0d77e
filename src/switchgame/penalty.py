"""Penalization route: lower barriers as penalty drivers, upper barriers as
reflection, plus the doubly penalized plain system and convergence reporting.

At penalty level n the driver gains ``n * sum_j' (y[i,j] - y[i,j'] + l(j,j'))^-``
(the j'=j term vanishes identically because l(j,j) = 0) and each step is
followed by the exact upper clamp ``min(y, upper_barrier(y))``, the minimal
downward push under the strict triangle inequality.  The solution gives the
penalty intensity beta at every node on first read; beta * dt is the implied
lower push increment.

A sweep solves all its levels in one backward pass; `solve_penalized` one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import bsde
from .errors import DataError, SizingError
from .lattice import node_first, node_last, trailing
from .model import GameSpec, _require_count, _upper
from .reflected import RbsdeSolution

_MONOTONE_SLACK = 1e-10     # rounding allowance of penalization_report's nonincreasing test


@cache
def _mode_pairs(m):
    """The mode pairs j < j' of m modes in `itertools.combinations` order, each
    with whether its term of j and its term of j' is that mode's first."""
    return tuple((j, b, j == 0 and b == 1, j == 0)
                 for j, b in itertools.combinations(range(m), 2))


def _lower_excess(y, l):
    """(j, y[..., j', :] - y[..., j, :] - l(j,j'), first) for each j' != j of a
    mode-major field, whose positive part is term j' of (y[i,j] - y[i,j'] +
    l(j,j'))^-, `first` whether it is j's first term.  A pair j < j' takes one
    difference d for both its terms: -l(j',j) - d is the same float as
    y[..., j, :] - y[..., j', :] - l(j',j).  Each j's terms come in j' order,
    each a new array."""
    rows = [y[..., j, :] for j in range(l.shape[0])]
    for j, b, j_first, b_first in _mode_pairs(l.shape[0]):
        d = np.subtract(rows[b], rows[j])
        yield j, np.subtract(d, l[j, b]), j_first
        yield b, np.subtract(-l[b, j], d, out=d), b_first


def lower_penalty_intensity(y, l, n):
    """beta = n * sum_j' (y[i,j] - y[i,j'] + l(j,j'))^- on a mode-major (..., m1,
    m2, nodes) field, n one level or the levels of stacked problems, (S, 1, 1,
    1) or a trailing run of them.  Summed as NumPy sums a contiguous last axis
    of m2 terms: in j' order below eight, and pairwise from eight, on a copy
    of y with j' last.  Below eight, each mode's first term, never -0.0, is
    what 0.0 + term would give, so it is clipped straight into beta, which
    then needs no zero fill unless there is no term (one mode).  Two modes
    skip `_lower_excess`'s generator: both terms are first, so one difference
    and one clip give them, 7-12% of `small_ref` on the 2x2 benchmarks."""
    m = y.shape[-2]
    if m >= 8:
        last = np.ascontiguousarray(np.moveaxis(y, -2, -1))
        return n * np.stack([np.maximum(last - y[..., j, :, None] - l[j], 0.0).sum(axis=-1)
                             for j in range(l.shape[0])], axis=-2)
    if m == 2:      # both terms are first: one difference, and one clip for both
        beta = np.empty(y.shape)
        d = np.subtract(y[..., 1, :], y[..., 0, :])
        np.subtract(d, l[0, 1], out=beta[..., 0, :])
        np.subtract(-l[1, 0], d, out=beta[..., 1, :])
        np.maximum(beta, 0.0, out=beta)
    else:
        beta = np.zeros(y.shape) if m == 1 else np.empty(y.shape)
        for j, term, first in _lower_excess(y, l):
            if first:
                np.maximum(term, 0.0, out=beta[..., j, :])
            else:
                beta[..., j, :] += np.maximum(term, 0.0, out=term)
    beta *= n
    return beta


def upper_penalty_intensity(y, k, m):
    """alpha = m * sum_i' (y[i,j] - y[i',j] - k(i,i'))^+ on a mode-major field, in i'
    order from 0.0, or pairwise from eight terms with one Player-II mode."""
    terms = np.maximum(y[..., :, None, :, :] - y[..., None, :, :, :] - k[:, :, None, None], 0.0)
    if y.shape[-2] == 1:
        return m * np.ascontiguousarray(np.moveaxis(terms, -3, -1)).sum(axis=-1)
    return m * terms.sum(axis=-3)


def penalty_rate(n: int, m: int) -> float:
    """Picard contraction rate contributed by a level-n penalty over m modes.

    For m == 2 only one direction of the single (j, j') pair can be active at
    a time, so the penalty Jacobian's eigenvalues per row pair are {-n, 0}
    and the rate is n exactly; for m > 2 the Gershgorin bound 2*n*(m-1)
    applies.
    """
    return float(n) if m == 2 else 2.0 * n * (m - 1)


def max_penalty_level(tree, spec: GameSpec) -> int:
    """Largest integer n whose penalty keeps dt * (C + rate) < 1 on this tree: a
    contraction bound, not a promise that Picard converges there (rate ~ 1)."""
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
class _Penalized:
    """Values Y of a penalized system at lower level n; the lower penalty
    intensity beta at them is computed on first read."""

    tree: object
    spec: GameSpec
    n: int
    Y: list

    @property
    def root(self) -> np.ndarray:
        return self.Y[0][0]

    @cached_property
    def beta(self) -> list:
        return [node_first(lower_penalty_intensity(node_last(y), self.spec.costs.l, self.n))
                for y in self.Y]


@dataclass
class PenalizedSolution(_Penalized):
    """Solution of the level-n penalized system; dK[t] holds the upper push
    increments of level t (t < N)."""

    dK: list


class _PenaltyDriver:
    """The generator plus the lower penalty at level n, minus the upper penalty
    at level m (none for m = 0), in the kernel's level form.  n is one level or
    the (S, 1, 1, 1) levels of problems stacked on axis 0: the level form is
    then built once for all S, and evaluates a trailing run of them by
    slicing n and the generator's arrays."""

    def __init__(self, spec, n, lipschitz, m=0):
        self.gen, self.costs, self.n, self.m = spec.generator, spec.costs, n, m
        self.lipschitz = lipschitz

    def at_level(self, t, w, z):
        g = self.gen.at_level(t, w, z)
        # a y-independent value is broadcast to the field once
        c = None if callable(g) else np.broadcast_to(g, z.shape[1:]).copy()
        costs, n, m = self.costs, self.n, self.m
        stacked = np.ndim(n) > 0

        def f(y):
            out = lower_penalty_intensity(y, costs.l, trailing(n, y) if stacked else n)
            out += g(y) if c is None else trailing(c, y)
            if m:
                out -= upper_penalty_intensity(y, costs.k, m)
            return out
        return f


def _sweep(spec: GameSpec, tree, n_list, post):
    """One backward pass of the penalized system at every level of n_list, each checked
    first, ascending, so a SizingError names the smallest failing n before any Picard
    call.  The levels are stacked, y (S, m1, m2, n_t), under one `_PenaltyDriver` (a
    float n for one level) whose level form is built once per tree level; a level
    leaves the Picard loop where its own pass would stop.  Each step returns
    ``post(t, y, bar)``, `bar` the upper barrier of y.  Returns the leaf values and
    the result."""
    spec.require_valid()
    lip = max(_require_penalty_contraction(tree, spec, n, 0) for n in sorted(n_list))
    levels = (np.asarray(n_list, dtype=float)[:, None, None, None] if len(n_list) > 1
              else float(n_list[0]))
    driver = _PenaltyDriver(spec, levels, lip)

    def step(t, y, z):      # the barrier of (S, m1, m2, n_t) values, on a mode-first view
        return post(t, y, np.moveaxis(_upper(np.moveaxis(y, 0, -2), spec.costs), -2, 0))

    xi = node_first(np.repeat(node_last(spec.check_terminal(tree))[None], len(n_list), axis=0))
    return xi, bsde.backward(tree, xi, driver, step,
                             problems=[f"penalty level {n}" for n in n_list])


def solve_penalized(spec: GameSpec, tree, n: int) -> PenalizedSolution:
    """Solve the penalized system at penalty level n, the one-level sweep: a
    joint Picard loop over all mode pairs (the penalty couples the j
    coordinates), then the upper clamp, recording dK.  Under the strict
    triangle inequality (`spec.require_valid()`) it is the minimal push.  n
    must be a positive integer, else DataError."""
    _require_count("n", n)

    def clamp(t, y, bar):
        clamped = np.minimum(y, bar)
        return clamped, y - clamped

    _, (Y, dK) = _sweep(spec, tree, [n], clamp)
    return PenalizedSolution(tree, spec, n, [y[:, 0] for y in Y], [k[:, 0] for k in dK])


@dataclass
class DoublePenalizedSolution(_Penalized):
    """Plain solve with both penalty terms (levels n down, m up); the upper
    intensity alpha is computed on first read too."""

    m: int

    @cached_property
    def alpha(self) -> list:
        return [node_first(upper_penalty_intensity(node_last(y), self.spec.costs.k, self.m))
                for y in self.Y]


def solve_double_penalized(spec: GameSpec, tree, n: int, m: int) -> DoublePenalizedSolution:
    """Unreflected solve with the lower penalty at level n and the upper
    penalty at level m, both positive integers (DataError otherwise)."""
    _require_count("n", n)
    _require_count("m", m)
    spec.require_valid()
    driver = _PenaltyDriver(spec, n, _require_penalty_contraction(tree, spec, n, m), m)
    Y = bsde.backward(tree, spec.check_terminal(tree), driver, lambda t, y, z: (y,))[0]
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


def _tree_shape(tree):
    """The parameters that fix a tree's levels and values, as text."""
    return f"(N={tree.N}, d={tree.d}, horizon={tree.T!r}, recombining={tree.recombining})"


def _spec_parts(spec):
    """The parts of a game that fix its solution on a tree, by name, each a
    tuple of values and arrays to compare by content: `GameSpec` holds
    arrays, so ``==`` cannot compare two of them.  Each tuple starts with
    what fixes the length of the rest."""
    gen, term = spec.generator, spec.terminal
    return {
        "cost tables": (spec.costs.k, spec.costs.l),
        "generator": (gen.family, gen.c, gen.a, gen.b, gen.M),
        "terminal": (term.family, *(getattr(term, name) for name in ("alpha", "beta", "table")
                                    if hasattr(term, name))),
        "horizon": (spec.horizon,),
        "d": (spec.d,),
    }


def penalization_report(spec: GameSpec, tree, n_list,
                        direct: RbsdeSolution | None = None) -> ConvergenceReport:
    """Solve the penalized system along n_list and report the convergence
    diagnostics: componentwise monotonicity in n, the penalty-intensity bound
    against 2 * sup|psi|, and sup-norm gaps to the direct solution.

    ``monotone_ok`` tests that the values are nonincreasing in n (largest
    increase ``monotone_worst`` at most ``_MONOTONE_SLACK``); by comparison
    they are in fact nondecreasing, so it is False wherever lower barriers
    bind.  One pass solves every level, and its post-step folds each
    statistic over the tree levels.  Every level must be a positive integer,
    and `direct` must be solved on a tree of the same shape, for a game equal
    in content to `spec`, else DataError.
    """
    if direct is not None and _tree_shape(direct.tree) != _tree_shape(tree):
        raise DataError(f"the direct solution is on the tree {_tree_shape(direct.tree)}, "
                        f"not on the report's tree {_tree_shape(tree)}")
    if direct is not None and direct.spec is not spec:
        theirs = _spec_parts(direct.spec)
        parts = [name for name, part in _spec_parts(spec).items()
                 if not all(map(np.array_equal, part, theirs[name]))]
        if parts:
            raise DataError(f"the direct solution solves another game: it differs from "
                            f"the report's in its {', '.join(parts)}")
    for n in n_list:
        _require_count("each entry of n_list", n)
    n_list = sorted(n_list)
    if not n_list:
        return ConvergenceReport(rows=[])
    S, l, n = len(n_list), spec.costs.l, np.asarray(n_list, dtype=float)[:, None, None]
    stat, worst, gap = np.zeros(S), np.zeros(S), np.zeros(S)
    roots = np.empty((S, spec.m1, spec.m2))

    def fold(t, y):
        for _, term, _ in _lower_excess(y, l):
            np.maximum(stat, bsde.problem_max(n * np.maximum(term, 0.0, out=term)), out=stat)
        np.maximum(worst[1:], bsde.problem_max(y[1:] - y[:-1]), out=worst[1:])
        if direct is not None:
            np.maximum(gap, bsde.problem_max(np.abs(y - node_last(direct.Y[t]))), out=gap)
        if t == 0:
            roots[...] = y[..., 0]
        return ()

    # the clamp is in place: fold keeps nothing, so the kernel reads y on
    xi, _ = _sweep(spec, tree, n_list, lambda t, y, bar: fold(t, np.minimum(y, bar, out=y)))
    fold(tree.N, node_last(xi))
    bound = 2.0 * spec.generator.sup_bound
    return ConvergenceReport(rows=[ConvergenceRow(
        n=level, root=roots[s], monotone_ok=bool(worst[s] <= _MONOTONE_SLACK),
        monotone_worst=float(worst[s]), penalty_stat=float(stat[s]), penalty_bound=bound,
        gap=None if direct is None else float(gap[s])) for s, level in enumerate(n_list)])
