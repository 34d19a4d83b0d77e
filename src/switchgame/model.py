"""Game specification: switching costs, drivers, terminals, and the constraint domain.

The unknown of the reflected system is an m1 x m2 matrix of values, one entry
per mode pair (i, j).  Player I controls i (switch cost k), Player II controls
j (switch cost l).  The matrix is constrained to the closed convex region

    y[i, j] <= y[i', j] + k[i, i']    for all i' != i,
    y[i, j] >= y[i, j'] - l[j, j']    for all j' != j,

and the reflection pushes individual coordinates down (recorded in dK) or up
(recorded in dL) onto those barriers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DataError, SizingError
from .lattice import node_first, node_last, trailing

LOOP_TOL = 1e-12       # |alternating cost| at most this counts as a zero-cost loop
REGION_TOL = 1e-9      # how far past a barrier a value may sit and count as inside
DEFAULT_LOOP_CAP = 12
MAX_PRIMARY_LOOPS = 2 ** 17     # 2x6 has 74,815 primary loops; 1x10 has 556,059


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural validation: a list of violation messages."""

    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def merged(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport(self.violations + other.violations)


def _require_finite(name, a):
    """DataError naming the field `name` when array `a` holds a NaN or an infinity."""
    bad = ~np.isfinite(a)
    if bad.any():
        idx = tuple(int(x) for x in np.argwhere(bad)[0])
        at = f" at index {idx}" if idx else ""
        raise DataError(f"{name} must be finite; found {float(a[idx])!r}{at}")


class CostTables:
    """Switching cost tables for both players, and the constraint geometry they fix.

    Parameters
    ----------
    k : (m1, m1) array_like
        Player-I switch costs, zero diagonal, positive off-diagonal.
    l : (m2, m2) array_like
        Player-II switch costs, same structure.

    The tables are copied into read-only arrays and attributes cannot be
    reassigned, so what derives from them is computed once: `k_off`/`l_off`
    carry +inf on the diagonal (no barrier reads a player's own mode), and
    `loop_costs`/`min_loop_cost` are filled on first use, since loop
    enumeration raises SizingError above DEFAULT_LOOP_CAP pairs or
    MAX_PRIMARY_LOOPS loops.  Entries must be finite, or alternating loop
    costs could be `inf - inf`.
    """

    def __init__(self, k, l):
        for name, raw in (("k", k), ("l", l)):
            table = np.array(raw, dtype=float)
            if table.ndim != 2 or table.shape[0] != table.shape[1] or not table.size:
                raise DataError(f"{name} must be a non-empty square matrix")
            _require_finite(name, table)
            off = np.where(np.eye(len(table), dtype=bool), np.inf, table)
            for attr, arr in ((name, table), (name + "_off", off)):
                arr.setflags(write=False)
                object.__setattr__(self, attr, arr)
        object.__setattr__(self, "m1", self.k.shape[0])
        object.__setattr__(self, "m2", self.l.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError(f"CostTables is immutable; cannot set {name!r}")

    @functools.cached_property
    def loop_costs(self):
        """((loop, alternating cost), ...) over the grid's primary loops."""
        return tuple((loop, loop_alternating_cost(loop, self))
                     for loop in enumerate_primary_loops(self.m1, self.m2))

    @functools.cached_property
    def min_loop_cost(self):
        """Smallest absolute alternating loop cost; infinite without loops."""
        return min((abs(cost) for _, cost in self.loop_costs), default=math.inf)

    def __repr__(self):
        return f"CostTables(m1={self.m1}, m2={self.m2})"


def _triangle_violations(table, name):
    out = []
    m = table.shape[0]
    for i, i1, i2 in itertools.product(range(m), repeat=3):
        if i == i1 or i1 == i2:
            continue
        if not table[i, i1] + table[i1, i2] > table[i, i2]:
            out.append(
                f"{name}({i + 1},{i1 + 1})+{name}({i1 + 1},{i2 + 1}) = "
                f"{table[i, i1] + table[i1, i2]:g} is not > "
                f"{name}({i + 1},{i2 + 1}) = {table[i, i2]:g}"
            )
    return out


def validate_cost_matrices(costs: CostTables) -> ValidationReport:
    """Check zero diagonals, off-diagonal positivity, and strict triangle inequalities.

    Violations are returned in the report; nothing raises.
    """
    bad = []
    for name, table, off in (("k", costs.k, costs.k_off), ("l", costs.l, costs.l_off)):
        if np.any(np.diag(table) != 0.0):
            bad.append(f"{name} has a nonzero diagonal entry")
        if np.any(off <= 0.0):  # the +inf diagonal never counts
            bad.append(f"{name} has a nonpositive off-diagonal entry")
        bad.extend(_triangle_violations(table, name))
    return ValidationReport(tuple(bad))


# ---------------------------------------------------------------------------
# Primary loops and the no-zero-cost-loop condition
# ---------------------------------------------------------------------------

def enumerate_primary_loops(m1: int, m2: int):
    """Enumerate all primary loops on the m1 x m2 mode grid, in sorted order.

    A loop is a closed walk of mode pairs in which each step changes exactly
    one player's mode; a primary loop visits no intermediate pair twice.
    Each loop is one tuple of 0-based (i, j) pairs without the repeated
    endpoint, in its canonical form: the lexicographically smallest of its
    rotations and reversals.  The enumeration runs once per (m1, m2); each
    call returns a new list.
    """
    return list(_primary_loops(m1, m2))


@functools.cache
def _primary_loops(m1, m2):
    # Each loop is walked once, from its smallest pair through larger ones,
    # in the orientation whose second pair is not larger than its last:
    # that walk is its canonical form.
    if m1 * m2 > DEFAULT_LOOP_CAP:
        raise SizingError(
            f"mode grid {m1}x{m2} exceeds the loop enumeration cap of {DEFAULT_LOOP_CAP} pairs"
        )
    neighbors = {(i, j): [(a, j) for a in range(m1) if a != i]
                 + [(i, b) for b in range(m2) if b != j]
                 for i in range(m1) for j in range(m2)}
    found = []

    def extend(path):
        tail = path[-1]
        for q in neighbors[tail]:
            if q == path[0] and path[1] <= tail:
                found.append(tuple(path))
                if len(found) > MAX_PRIMARY_LOOPS:
                    raise SizingError(
                        f"mode grid {m1}x{m2} has more than {MAX_PRIMARY_LOOPS} primary loops"
                    )
            elif q > path[0] and q not in path:
                path.append(q)
                extend(path)
                path.pop()

    for start in neighbors:
        extend([start])
    return tuple(sorted(found))


def loop_alternating_cost(loop, costs: CostTables) -> float:
    """Sum of Player-I costs minus Player-II costs along a closed loop."""
    total = 0.0
    n = len(loop)
    for p in range(n):
        (i, j), (i2, j2) = loop[p], loop[(p + 1) % n]
        total += costs.k[i, i2] - costs.l[j, j2]
    return total


def _pretty_loop(loop):
    return "->".join(f"({i + 1},{j + 1})" for i, j in loop)


def check_loop_costs(costs: CostTables) -> ValidationReport:
    """Report every primary loop whose alternating cost is zero within LOOP_TOL."""
    return ValidationReport(tuple(
        f"loop {_pretty_loop(loop)} has zero alternating cost ({cost:g})"
        for loop, cost in costs.loop_costs if abs(cost) <= LOOP_TOL
    ))


def min_loop_cost(costs: CostTables) -> float:
    """`CostTables.min_loop_cost`: it bounds the number of projection sweeps."""
    return costs.min_loop_cost


# ---------------------------------------------------------------------------
# The constraint domain and its oblique projection
# ---------------------------------------------------------------------------

def _running_extreme(pairs, op, keep, wins, targets):
    """Fold the fields op(*pair) into the first with `keep`, in place; with
    `targets`, also the first index attaining the result (a strict `wins`)."""
    out = op(*next(pairs))
    if not targets:     # no name keeps a term alive: peak memory stays two fields
        for pair in pairs:
            keep(out, op(*pair), out=out)
        return out
    target = np.zeros(out.shape, dtype=int)
    for mode, pair in enumerate(pairs, 1):
        term = op(*pair)
        target[wins(term, out)] = mode
        keep(out, term, out=out)
    return out, target


def _upper(ym, costs: CostTables, targets: bool = False):
    """`upper_barrier` of a mode-first (m1, m2, ...) array."""
    k = costs.k_off.reshape(costs.k_off.shape + (1,) * (ym.ndim - 1))
    return _running_extreme(((ym[a:a + 1], k[:, a]) for a in range(costs.m1)),
                            np.add, np.minimum, np.less, targets)


def _lower(ym, costs: CostTables, targets: bool = False):
    """`lower_barrier` of a mode-first (m1, m2, ...) array."""
    l = costs.l_off.reshape(costs.l_off.shape + (1,) * (ym.ndim - 2))
    return _running_extreme(((ym[:, b:b + 1], l[:, b]) for b in range(costs.m2)),
                            np.subtract, np.maximum, np.greater, targets)


def _modes_first(y, costs: CostTables):
    """A (..., m1, m2) array as a float view with the mode axes first; DataError
    naming both shapes when its last two axes are not the mode grid."""
    y = np.asarray(y, dtype=float)
    if y.shape[-2:] != (costs.m1, costs.m2):
        raise DataError(f"value shape {y.shape[-2:]} does not match mode grid "
                        f"{(costs.m1, costs.m2)}")
    return y.transpose(-2, -1, *range(y.ndim - 2))


def _modes_last(a):
    """The view of a mode-first array that undoes `_modes_first`."""
    return a.transpose(*range(2, a.ndim), 0, 1)


def upper_barrier(y, costs: CostTables, targets: bool = False):
    """min over i' != i of y[..., i', j] + k[i, i'] per (i, j); +inf for a single mode.

    A running np.minimum over i' on a mode-first view of y, with no (..., m1,
    m1, m2) tensor; exact, and a NaN propagates.  With `targets`, also the
    smallest i' attaining it.
    """
    out = _upper(_modes_first(y, costs), costs, targets)
    return tuple(map(_modes_last, out)) if targets else _modes_last(out)


def lower_barrier(y, costs: CostTables, targets: bool = False):
    """max over j' != j of y[..., i, j'] - l[j, j'] per (i, j); -inf for a single mode.

    The mirror of :func:`upper_barrier`, over j' with np.maximum."""
    out = _lower(_modes_first(y, costs), costs, targets)
    return tuple(map(_modes_last, out)) if targets else _modes_last(out)


# Matrices the region check reduces at once, a bound on its working set
_REGION_ROWS = 4096


def _mode_major_blocks(ym):
    """(rows, block) per `_REGION_ROWS` rows of a mode-first (m1, m2, rows)
    array: the slice and a contiguous array of those rows."""
    for start in range(0, ym.shape[-1], _REGION_ROWS):
        rows = slice(start, start + _REGION_ROWS)
        yield rows, np.ascontiguousarray(ym[..., rows])


def _outside_region(y, costs: CostTables, tol: float):
    """Mask of the coordinates of y beyond a barrier by more than tol (NaN
    counts), reduced on the blocks of `_mode_major_blocks` and shaped like y."""
    ym = _modes_first(y, costs)
    out = np.empty(ym.shape, dtype=bool)
    flat = out.reshape(costs.m1, costs.m2, -1)
    for rows, block in _mode_major_blocks(ym.reshape(flat.shape)):
        inside = block <= _upper(block, costs) + tol
        inside &= block >= _lower(block, costs) - tol
        np.logical_not(inside, out=flat[..., rows])
    return _modes_last(out)


def _require_tolerance(name, tol):
    """DataError naming the parameter `name` unless tol is a finite number >= 0."""
    if not 0.0 <= tol < math.inf:
        raise DataError(f"{name} must be a finite nonnegative number; got {tol!r}")


def _require_count(name, value, least=1):
    """DataError naming the parameter `name` unless value is an integer of at
    least `least` (1 or 0): NumPy integers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise DataError(f"{name} must be a {kind} integer; got {value!r}")


def in_Qbar(y, costs: CostTables, tol: float = REGION_TOL) -> bool:
    """True when every coordinate of y satisfies both barrier constraints within tol."""
    _require_tolerance("tol", tol)
    return not _outside_region(y, costs, tol).any()


def _outside_matrices(ym, costs: CostTables):
    """Indices of the rows of a mode-first (m1, m2, rows) batch with an entry
    not strictly inside both its barriers (a tie counts)."""
    outside = np.empty(ym.shape[-1], dtype=bool)
    for rows, block in _mode_major_blocks(ym):
        inside = block < _upper(block, costs)
        inside &= block > _lower(block, costs)
        outside[rows] = ~inside.all(axis=(0, 1))
    return np.flatnonzero(outside)


def _fold(keep, op, rows, terms, into, scratch):
    """`into` = op(rows[r], cost) over the ((r, cost), ...) `terms`, folded in
    their order as keep(running, next), with `scratch` for each next term."""
    (r, cost), *rest = terms
    op(rows[r], cost, out=into)
    for r, cost in rest:
        keep(into, op(rows[r], cost, out=scratch), out=into)


def _sweep(out, live, costs: CostTables, sweep_cap: int):
    """Gauss-Seidel sweeps of `project_oblique_batch` over the matrices `live`
    (indices on the last axis) of the C-ordered mode-first (m1, m2, rows)
    batch `out`, written into `out` in place; `live` is compacted in place.
    The loop ends at the first sweep that moves no live coordinate by value,
    so a -0.0 -> +0.0 flip alone settles.

    A matrix's sweep reads that matrix alone, so one that a sweep reproduces
    bit for bit (compared as int64) repeats from then on: it is written into
    `out` at once and leaves the loop.  The live matrices stay packed at the
    front of the flat `orig`, `work` and `prev` buffers, as one contiguous
    (m1 * m2, live) array each, compacted one coordinate at a time.

    Each barrier folds only the other modes, in ascending order, with
    np.minimum / np.maximum(running, next); the upper one folds in the
    coordinate's own row of `work`, which none of its barriers reads.  That
    is bit for bit the reduction over all modes, own entry included: on ties
    NumPy returns the second operand, as the reduction's fold does; the own
    +inf (upper) or -inf (lower) entry never wins; and with finite positive
    costs no term is -0.0.  A single-mode side copies the original value, as
    its clamp by an infinite barrier does.
    """
    m1, m2, m = costs.m1, costs.m2, costs.m1 * costs.m2
    k, l = costs.k.tolist(), costs.l.tolist()
    # per coordinate c = i * m2 + j, the (coordinate, cost) of each barrier term
    uppers = [[(a * m2 + j, k[i][a]) for a in range(m1) if a != i]
              for i in range(m1) for j in range(m2)]
    lowers = [[(i * m2 + b, l[j][b]) for b in range(m2) if b != j]
              for i in range(m1) for j in range(m2)]
    rows = out.reshape(m, -1)
    orig = np.take(rows, live, axis=1).reshape(-1)
    work, prev = orig.copy(), np.empty_like(orig)
    lower, scratch = np.empty(len(live)), np.empty(len(live))
    for _ in range(sweep_cap):
        n = len(live)
        O, W, P = (buf[:m * n].reshape(m, n) for buf in (orig, work, prev))
        np.copyto(P, W)
        cells, lo, tmp = list(W), lower[:n], scratch[:n]
        for c, cell in enumerate(cells):
            if uppers[c]:
                _fold(np.minimum, np.add, cells, uppers[c], cell, tmp)
                np.minimum(O[c], cell, out=cell)
            else:
                np.copyto(cell, O[c])
            if lowers[c]:
                _fold(np.maximum, np.subtract, cells, lowers[c], lo, tmp)
                np.maximum(cell, lo, out=cell)
        same = np.equal(W.view(np.int64), P.view(np.int64)).all(axis=0)
        first = same.argmin()       # the first matrix the sweep changed, if any
        if not (W[:, first] != P[:, first]).any() and not (W != P).any():
            rows[:, live] = W
            return
        if same.any():
            gone, kept = np.flatnonzero(same), np.flatnonzero(~same)
            done = live[gone]
            live[:len(kept)] = live[kept]
            live = live[:len(kept)]
            O2, W2 = (buf[:m * len(kept)].reshape(m, -1) for buf in (orig, work))
            for c in range(m):      # "clip" copies `out` only where it overlaps
                rows[c][done] = cells[c].take(gone)
                O[c].take(kept, out=O2[c], mode="clip")
                cells[c].take(kept, out=W2[c], mode="clip")
    detail = ""
    if costs.loop_costs:
        worst, cost = min(costs.loop_costs, key=lambda lc: abs(lc[1]))
        detail = f"; nearest-to-zero loop cost is {cost:g} on {_pretty_loop(worst)}"
    raise ConvergenceError(f"oblique projection did not settle in {sweep_cap} sweeps{detail}")


def project_oblique_batch(y, costs: CostTables):
    """Project a batch of mode matrices onto the two-sided constraint region.

    Gauss-Seidel sweeps over coordinates in row-major order; at each coordinate
    visit the value is reset to its pre-projection value and clamped down by
    its upper (k) barrier, then up by its lower (l) barrier, both computed
    from the current values of the other coordinates.  Sweeps repeat until
    one moves no coordinate, an exact fixed point; the sweep cap (with its
    zero-cost-loop message) is only a guard.  Re-clamping from the original
    value (rather than the previous iterate) is what makes this a genuine
    fixed point of the complementarity system: a push is undone when the
    barrier that caused it moves away, so the pushes are minimal.  The batch
    axis is vectorized; the coordinate sweep is sequential and deterministic.

    The sweep sees only the matrices outside the region, found once before
    it: a matrix strictly inside (every entry strictly below its upper and
    above its lower barrier) is a fixed point of every sweep, and is copied
    through unchanged.  A tie with a barrier counts as outside, so it is
    swept; the clamp can still turn a -0.0 there into +0.0.  A swept matrix
    leaves the loop at the first sweep that reproduces it bit for bit, and
    is written into the output then; the rest stay packed at the front of
    the sweep's buffers, compacted in place, so no batch-sized array is made
    for them.  Each barrier folds only the other modes, in ascending order,
    bit for bit the reduction over all modes (see `_sweep`).

    A one-sided reflection needs no sweep: under the strict triangle
    inequality one clamp, ``min(y, upper_barrier(y))`` or ``max(y,
    lower_barrier(y))``, is its fixed point; on a single column or row this
    routine is that clamp, since a single mode's barrier is infinite.

    Parameters
    ----------
    y : (..., m1, m2) array_like, finite; a NaN or an infinity raises
        DataError naming its matrix (counted in C order) and mode pair.

    Returns
    -------
    y_star, dK, dL : views shaped like `y`; dK is the net downward push and
    dL the net upward push, with dK * dL == 0 per coordinate.
    """
    m1, m2 = costs.m1, costs.m2
    base = _modes_first(y, costs).reshape(m1, m2, -1)
    span = float(base.max()) - float(base.min()) if base.size else 0.0
    if not math.isfinite(span):
        bad = np.argwhere(~np.isfinite(node_first(base)))
        if len(bad):
            n, i, j = bad[0]
            raise DataError(f"value {float(base[i, j, n])!r} at matrix {n}, mode pair "
                            f"({i + 1},{j + 1}) cannot be projected; values must be finite")
        raise DataError(f"values span {span!r}, past the float range; cannot project")

    rounds = 1      # a one-sided grid settles within m1*m2 sweeps
    if m1 > 1 and m2 > 1:
        c = min_loop_cost(costs)
        # a zero-cost loop is diagnosed by `_sweep` when the sweeps do not settle
        rounds = math.ceil(span / c + 1.0) if c > 0.0 else 64
    sweep_cap = m1 * m2 * rounds + 64

    moving = _outside_matrices(base, costs)
    out = np.array(base, order="C")
    if moving.size:
        _sweep(out, moving, costs, sweep_cap)
    net = base - out
    dK = np.maximum(net, 0.0)
    dL = np.maximum(np.negative(net, out=net), 0.0, out=net)     # in net's buffer
    shape = (m1, m2, *np.shape(y)[:-2])
    return (_modes_last(out.reshape(shape)), _modes_last(dK.reshape(shape)),
            _modes_last(dL.reshape(shape)))


project_oblique = project_oblique_batch     # a single matrix is a batch too


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class GeneratorSpec:
    """Driver family for the BSDE system, with exact Lipschitz and sup bounds.

    Families
    --------
    "zero"            : psi = 0
    "mode_constant"   : psi = c[i, j]
    "saturated_affine": psi = a * sat_M(y) + sum_p b[p] * sat_M(z[p]) + c[i, j]
                        with sat_M clamping to [-M, M].

    The declared Lipschitz constant and sup norm are computed from the
    parameters, never asserted by the caller.  Every parameter must be
    finite, and the saturation level M nonnegative.
    """

    FAMILIES = ("zero", "mode_constant", "saturated_affine")

    def __init__(self, family: str, m1: int, m2: int, d: int = 1,
                 c=None, a: float = 0.0, b=None, M: float = 1.0):
        if family not in self.FAMILIES:
            raise DataError(f"unknown generator family {family!r}")
        self.family = family
        self.m1, self.m2, self.d = m1, m2, d
        self.c = np.zeros((m1, m2)) if c is None else np.asarray(c, dtype=float)
        if self.c.shape != (m1, m2):
            raise DataError(f"c must have shape {(m1, m2)}, got {self.c.shape}")
        self.a = float(a)
        self.b = np.zeros(d) if b is None else np.asarray(b, dtype=float)
        if self.b.shape != (d,):
            raise DataError(f"b must have shape ({d},), got {self.b.shape}")
        self.M = float(M)
        for name in ("c", "a", "b", "M"):
            _require_finite(name, np.asarray(getattr(self, name)))
        if self.M < 0.0:
            raise DataError(f"M must be a nonnegative number; got {self.M!r}")
        if family != "saturated_affine" and (self.a != 0.0 or np.any(self.b != 0.0)):
            raise DataError("a and b are only meaningful for the saturated_affine family")
        if family == "zero" and np.any(self.c != 0.0):
            raise DataError("the zero family takes no c table")

    @property
    def lipschitz(self) -> float:
        if self.family == "saturated_affine":
            return max(abs(self.a), float(np.linalg.norm(self.b)))
        return 0.0

    @property
    def sup_bound(self) -> float:
        if self.family == "zero":
            return 0.0
        if self.family == "mode_constant":
            return float(np.abs(self.c).max())
        return abs(self.a) * self.M + float(np.abs(self.b).sum()) * self.M + float(
            np.abs(self.c).max()
        )

    def comparison_holds(self, dt: float) -> bool:
        """sqrt(dt) * ||b||_1 <= 1: the implicit step is then nondecreasing in
        the next level's values (`game._certificate_margin`); b = 0 unless
        the family is `saturated_affine`."""
        return math.sqrt(dt) * float(np.abs(self.b).sum()) <= 1.0

    def __call__(self, t, w, y, z):
        """Evaluate on a full mode field: y (..., m1, m2), z (..., d, m1, m2)."""
        y = np.asarray(y, dtype=float)[..., None]
        f = self.at_level(t, w, np.moveaxis(np.asarray(z, dtype=float), -3, 0)[..., None],
                          stacked=False)
        return (f(y) if callable(f) else np.broadcast_to(f, y.shape).copy())[..., 0]

    def at_level(self, t, w, z, stacked=None):
        """The driver on one level with z fixed, in the kernel's level form.

        z is the kernel's ``(d, ..., m1, m2, n)`` field and y is z without its
        Brownian axis; `stacked`, by default whether z is ``(d, S, m1, m2,
        n)``, says that axis 1 of z holds stacked problems.  `zero` and `mode_constant` give their (m1, m2, 1)
        value table, which does not depend on y or z (zeros for `zero`,
        whatever the sign of c's zeros).  `saturated_affine` gives the
        function ``y -> (a * sat_M(y) + c) + sum_p b[p] * sat_M(z[p])``, the z
        term summed in p order from 0.0 and broadcast with c once, here, for
        every stacked problem; a y of the trailing run of S' < S of them
        reads the last S' of both arrays.
        """
        if self.family == "zero":
            return np.zeros((self.m1, self.m2, 1))
        if self.family == "mode_constant":
            return self.c[:, :, None]
        a, M = self.a, self.M
        zsat = np.maximum(-M, z)    # sat_M as np.clip gives it, bit for bit
        np.minimum(M, zsat, out=zsat)
        zterm = np.zeros(zsat.shape[1:])
        for bp, zp in zip(self.b, zsat):
            zterm += bp * zp
        c = np.empty_like(zterm)
        c[...] = self.c[:, :, None]
        if stacked is None:
            stacked = z.ndim == 5

        def f(y):
            out = np.maximum(-M, y)
            np.minimum(M, out, out=out)
            out *= a
            out += trailing(c, y) if stacked else c
            out += trailing(zterm, y) if stacked else zterm
            return out
        return f

    def at_modes(self, t, w, y, z, I, J):
        """Evaluate at explicit mode-index arrays.

        y : (...,); z : (..., d) with the Brownian component last; I, J are
        integer arrays broadcastable against y.
        """
        if self.family == "zero":
            return np.zeros_like(np.asarray(y, dtype=float))
        if self.family == "mode_constant":
            return self.c[I, J]
        sat = np.clip(y, -self.M, self.M)
        zsat = np.clip(z, -self.M, self.M)
        return self.a * sat + zsat @ self.b + self.c[I, J]


# ---------------------------------------------------------------------------
# Terminals
# ---------------------------------------------------------------------------

class TerminalSpec:
    """Terminal value family, evaluated per leaf of a tree.

    Families
    --------
    "constant"   : xi[i, j] = alpha[i, j] at every leaf.
    "affine"     : xi[i, j] = alpha[i, j] + beta[i, j] * W_T(1) (first Brownian
                   component at the leaf).
    "leaf_table" : explicit (num_leaves, m1, m2) table; tied to one tree shape.

    Every entry of alpha, beta and table must be finite.
    """

    FAMILIES = ("constant", "affine", "leaf_table")

    def __init__(self, family: str, m1: int, m2: int, alpha=None, beta=None, table=None):
        if family not in self.FAMILIES:
            raise DataError(f"unknown terminal family {family!r}")
        self.family = family
        self.m1, self.m2 = m1, m2
        if family in ("constant", "affine"):
            self.alpha = np.asarray(alpha, dtype=float)
            if self.alpha.shape != (m1, m2):
                raise DataError(f"alpha must have shape {(m1, m2)}")
            _require_finite("alpha", self.alpha)
        if family == "affine":
            self.beta = np.asarray(beta, dtype=float)
            if self.beta.shape != (m1, m2):
                raise DataError(f"beta must have shape {(m1, m2)}")
            _require_finite("beta", self.beta)
        if family == "leaf_table":
            self.table = np.asarray(table, dtype=float)
            if self.table.ndim != 3 or self.table.shape[1:] != (m1, m2):
                raise DataError("leaf table must have shape (num_leaves, m1, m2)")
            _require_finite("table", self.table)

    @property
    def markovian(self) -> bool:
        return self.family in ("constant", "affine")

    def evaluate(self, leaf_w):
        """Terminal matrix per leaf, (n_leaves, m1, m2) for the (n_leaves, d)
        W-states `leaf_w`: a view of a new mode-major array."""
        n = leaf_w.shape[0]
        if self.family == "constant":
            xi = np.broadcast_to(self.alpha[:, :, None], (self.m1, self.m2, n)).copy()
        elif self.family == "affine":
            xi = self.alpha[:, :, None] + self.beta[:, :, None] * leaf_w[:, 0]
        elif self.table.shape[0] != n:
            raise DataError(f"leaf table has {self.table.shape[0]} rows but the tree "
                            f"has {n} leaves")
        else:
            xi = node_last(self.table).copy()
        return node_first(xi)


# ---------------------------------------------------------------------------
# The full game specification
# ---------------------------------------------------------------------------

@dataclass
class GameSpec:
    """Everything that defines one switching game instance."""

    costs: CostTables
    generator: GeneratorSpec
    terminal: TerminalSpec
    horizon: float
    d: int = 1

    def __post_init__(self):
        if not (0 < self.horizon < math.inf):
            raise DataError(f"horizon must be a positive finite number; got {self.horizon!r}")
        if self.d < 1:
            raise DataError("Brownian dimension must be at least 1")
        for other in (self.generator, self.terminal):
            if (other.m1, other.m2) != (self.costs.m1, self.costs.m2):
                raise DataError("generator/terminal mode grid does not match the cost tables")
        if self.generator.d != self.d:
            raise DataError(f"generator has Brownian dimension d={self.generator.d}, "
                            f"but the game has d={self.d}")

    @property
    def m1(self):
        return self.costs.m1

    @property
    def m2(self):
        return self.costs.m2

    def validate(self) -> ValidationReport:
        """Cost-structure and loop-cost validation in one report."""
        return validate_cost_matrices(self.costs).merged(check_loop_costs(self.costs))

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            raise DataError("invalid game specification: " + "; ".join(report.violations))

    def check_terminal(self, tree):
        """Leaf values of the terminal on `tree`, where every solver starts.  Hard
        error for a tree whose Brownian dimension or horizon is not the game's,
        for a non-Markovian terminal on a recombining lattice (a state does not
        determine the path) and for a leaf value outside the region."""
        differ = [f"{name} {theirs!r} against the game's {ours!r}"
                  for name, theirs, ours in (("d", tree.d, self.d),
                                             ("horizon", tree.T, self.horizon))
                  if theirs != ours]
        if differ:
            raise DataError("the tree does not fit the game: " + "; ".join(differ))
        if tree.recombining and not self.terminal.markovian:
            raise DataError("the recombining fast path requires a Markovian terminal")
        xi = self.terminal.evaluate(tree.leaf_w)
        bad = _outside_region(xi, self.costs, REGION_TOL)
        if bad.any():
            n, i, j = np.argwhere(bad)[0]
            raise DataError(
                f"terminal value at leaf {n}, mode pair ({i + 1},{j + 1}) lies outside "
                "the constraint region"
            )
        return xi
