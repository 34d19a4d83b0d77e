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

DEFAULT_LOOP_TOL = 1e-12
DEFAULT_PROJECTION_TOL = 1e-12
DEFAULT_LOOP_CAP = 16


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


class CostTables:
    """Switching cost tables for both players.

    Parameters
    ----------
    k : (m1, m1) array_like
        Player-I switch costs, zero diagonal, positive off-diagonal.
    l : (m2, m2) array_like
        Player-II switch costs, same structure.
    """

    def __init__(self, k, l):
        self.k = np.asarray(k, dtype=float)
        self.l = np.asarray(l, dtype=float)
        if self.k.ndim != 2 or self.k.shape[0] != self.k.shape[1]:
            raise DataError("k must be a square matrix")
        if self.l.ndim != 2 or self.l.shape[0] != self.l.shape[1]:
            raise DataError("l must be a square matrix")
        self.m1 = self.k.shape[0]
        self.m2 = self.l.shape[0]

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
    for name, table in (("k", costs.k), ("l", costs.l)):
        diag = np.diag(table)
        if np.any(diag != 0.0):
            bad.append(f"{name} has a nonzero diagonal entry")
        off = table[~np.eye(table.shape[0], dtype=bool)]
        if off.size and np.any(off <= 0.0):
            bad.append(f"{name} has a nonpositive off-diagonal entry")
        bad.extend(_triangle_violations(table, name))
    return ValidationReport(tuple(bad))


# ---------------------------------------------------------------------------
# Primary loops and the no-zero-cost-loop condition
# ---------------------------------------------------------------------------

def _canonical_loop(loop):
    """Canonical form of a closed mode-pair walk: smallest rotation, forward or
    reversed orientation, whichever is lexicographically smaller.

    `loop` is a tuple of pairs without the repeated endpoint.
    """
    n = len(loop)
    candidates = []
    for seq in (loop, loop[::-1]):
        for r in range(n):
            candidates.append(seq[r:] + seq[:r])
    return min(candidates)


def enumerate_primary_loops(m1: int, m2: int, cap: int = DEFAULT_LOOP_CAP):
    """Enumerate all primary loops on the m1 x m2 mode grid.

    A loop is a closed walk of mode pairs in which each step changes exactly
    one player's mode; a primary loop visits no intermediate pair twice.
    Loops are returned canonicalized (deduplicated up to rotation and
    reversal) as tuples of 0-based (i, j) pairs without the repeated endpoint.
    The enumeration runs once per (m1, m2, cap); each call returns a new list.
    """
    return list(_primary_loops(m1, m2, cap))


@functools.cache
def _primary_loops(m1, m2, cap):
    if m1 * m2 > cap:
        raise SizingError(
            f"mode grid {m1}x{m2} exceeds the loop enumeration cap of {cap} pairs"
        )
    pairs = [(i, j) for i in range(m1) for j in range(m2)]
    found = set()

    def neighbors(p):
        i, j = p
        for i2 in range(m1):
            if i2 != i:
                yield (i2, j)
        for j2 in range(m2):
            if j2 != j:
                yield (i, j2)

    def extend(path, on_path):
        head = path[0]
        for q in neighbors(path[-1]):
            if q == head and len(path) >= 2:
                found.add(_canonical_loop(tuple(path)))
            if q not in on_path and len(path) < m1 * m2:
                on_path.add(q)
                path.append(q)
                extend(path, on_path)
                path.pop()
                on_path.remove(q)

    for start in pairs:
        extend([start], {start})
    return tuple(sorted(found))


def loop_alternating_cost(loop, costs: CostTables) -> float:
    """Sum of Player-I costs minus Player-II costs along a closed loop."""
    total = 0.0
    n = len(loop)
    for p in range(n):
        (i, j), (i2, j2) = loop[p], loop[(p + 1) % n]
        total += costs.k[i, i2] - costs.l[j, j2]
    return total


def check_loop_costs(costs: CostTables, tol: float = DEFAULT_LOOP_TOL) -> ValidationReport:
    """Report every primary loop whose alternating cost is zero within `tol`."""
    bad = []
    for loop in enumerate_primary_loops(costs.m1, costs.m2):
        cost = loop_alternating_cost(loop, costs)
        if abs(cost) <= tol:
            pretty = "->".join(f"({i + 1},{j + 1})" for i, j in loop)
            bad.append(f"loop {pretty} has zero alternating cost ({cost:g})")
    return ValidationReport(tuple(bad))


def min_loop_cost(costs: CostTables) -> float:
    """Smallest absolute alternating cost over all primary loops.

    Used to bound the number of projection sweeps; infinite when the grid has
    no loops at all (1 x 1).
    """
    best = math.inf
    for loop in enumerate_primary_loops(costs.m1, costs.m2):
        best = min(best, abs(loop_alternating_cost(loop, costs)))
    return best


# ---------------------------------------------------------------------------
# The constraint domain and its oblique projection
# ---------------------------------------------------------------------------

def upper_barrier(y, costs: CostTables):
    """min over i' != i of y[..., i', j] + k[i, i'], per coordinate (i, j).

    `y` may carry leading batch axes; the last two axes are (i, j).
    """
    m1 = costs.m1
    if m1 == 1:
        return np.full_like(np.asarray(y, dtype=float), np.inf)
    y = np.asarray(y, dtype=float)
    # shifted[..., i, i', j] = y[..., i', j] + k[i, i']
    shifted = y[..., None, :, :] + costs.k[:, :, None]
    eye = np.eye(m1, dtype=bool)
    shifted = np.where(eye[:, :, None], np.inf, shifted)
    return shifted.min(axis=-2)


def lower_barrier(y, costs: CostTables):
    """max over j' != j of y[..., i, j'] - l[j, j'], per coordinate (i, j)."""
    m2 = costs.m2
    if m2 == 1:
        return np.full_like(np.asarray(y, dtype=float), -np.inf)
    y = np.asarray(y, dtype=float)
    # shifted[..., i, j, j'] = y[..., i, j'] - l[j, j']
    shifted = y[..., :, None, :] - costs.l[None, :, :]
    eye = np.eye(m2, dtype=bool)
    shifted = np.where(eye[None, :, :], -np.inf, shifted)
    return shifted.max(axis=-1)


def in_Qbar(y, costs: CostTables, tol: float = 1e-9) -> bool:
    """True when every coordinate of y satisfies both barrier constraints within tol."""
    y = np.asarray(y, dtype=float)
    up = upper_barrier(y, costs)
    lo = lower_barrier(y, costs)
    return bool(np.all(y <= up + tol) and np.all(y >= lo - tol))


def project_oblique_batch(
    y,
    costs: CostTables,
    tol: float = DEFAULT_PROJECTION_TOL,
    order: str = "min_first",
    upper_only: bool = False,
    lower_only: bool = False,
    max_sweeps: int | None = None,
):
    """Project a batch of mode matrices onto the constraint region.

    Gauss-Seidel sweeps over coordinates in row-major order; at each coordinate
    visit the value is reset to its pre-projection value and clamped down by
    its upper (k) barrier, then up by its lower (l) barrier, both computed
    from the current values of the other coordinates.  Sweeps repeat until no
    coordinate moves more than `tol`.  Re-clamping from the original value
    (rather than the previous iterate) is what makes this a genuine fixed
    point of the complementarity system: a push is undone when the barrier
    that caused it moves away, so the pushes are minimal.  The batch axis is
    vectorized; the coordinate sweep is sequential and deterministic.

    Parameters
    ----------
    y : (n, m1, m2) or (m1, m2) array_like
    order : "min_first" clamps by the upper barrier before the lower one at
        each coordinate visit; "max_first" does the opposite.  Under the
        no-zero-cost-loop condition both orders reach the same fixed point.
    upper_only, lower_only : restrict to one family of constraints (used by the
        penalized solver and by the switched-system solver respectively).

    Returns
    -------
    y_star, dK, dL : arrays shaped like `y`; dK is the net downward push and
    dL the net upward push, with dK * dL == 0 per coordinate.
    """
    y0 = np.asarray(y, dtype=float)
    squeeze = y0.ndim == 2
    out = (y0[None] if squeeze else y0).copy()
    m1, m2 = costs.m1, costs.m2
    if out.shape[-2:] != (m1, m2):
        raise DataError(f"value shape {out.shape[-2:]} does not match mode grid {(m1, m2)}")

    do_upper = not lower_only and m1 > 1
    do_lower = not upper_only and m2 > 1

    if max_sweeps is None:
        if do_upper and do_lower:
            c = min_loop_cost(costs)
            span = float(out.max() - out.min()) if out.size else 0.0
            if not math.isfinite(c) or c <= 0.0:
                worst = None  # diagnosed below on non-termination
                max_sweeps = m1 * m2 * 64 + 64
            else:
                max_sweeps = m1 * m2 * math.ceil(span / c + 1.0) + 64
        else:
            # one-sided projections settle in at most m1*m2 sweeps
            max_sweeps = m1 * m2 + 2

    if order not in ("min_first", "max_first"):
        raise ValueError(f"unknown sweep order {order!r}")
    base = (y0[None] if squeeze else y0)
    not_i = [[i2 for i2 in range(m1) if i2 != i] for i in range(m1)]
    not_j = [[j2 for j2 in range(m2) if j2 != j] for j in range(m2)]

    def up_bar(i, j):
        return (out[:, not_i[i], j] + costs.k[i, not_i[i]][None, :]).min(axis=1)

    def low_bar(i, j):
        return (out[:, i, not_j[j]] - costs.l[j, not_j[j]][None, :]).max(axis=1)

    converged = False
    for _ in range(max_sweeps):
        prev = out.copy()
        for i in range(m1):
            for j in range(m2):
                val = base[:, i, j]
                if order == "min_first":
                    if do_upper:
                        val = np.minimum(val, up_bar(i, j))
                    if do_lower:
                        val = np.maximum(val, low_bar(i, j))
                else:
                    if do_lower:
                        val = np.maximum(val, low_bar(i, j))
                    if do_upper:
                        val = np.minimum(val, up_bar(i, j))
                out[:, i, j] = val
        if np.abs(out - prev).max() <= tol:
            converged = True
            break
    if not converged:
        loops = enumerate_primary_loops(m1, m2)
        if loops:
            worst = min(loops, key=lambda lp: abs(loop_alternating_cost(lp, costs)))
            pretty = "->".join(f"({i + 1},{j + 1})" for i, j in worst)
            detail = f"; nearest-to-zero loop cost is {loop_alternating_cost(worst, costs):g} on {pretty}"
        else:
            detail = ""
        raise ConvergenceError(
            f"oblique projection did not settle in {max_sweeps} sweeps{detail}"
        )

    y_in = y0[None] if squeeze else y0
    net = y_in - out
    dK = np.maximum(net, 0.0)
    dL = np.maximum(-net, 0.0)
    if squeeze:
        return out[0], dK[0], dL[0]
    return out, dK, dL


def project_oblique(y, costs: CostTables, tol: float = DEFAULT_PROJECTION_TOL, **kw):
    """Single-matrix convenience wrapper around :func:`project_oblique_batch`."""
    return project_oblique_batch(y, costs, tol=tol, **kw)


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
    parameters, never asserted by the caller.
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

    def __call__(self, t, w, y, z):
        """Evaluate on a full mode field.

        y : (..., m1, m2); z : (..., d, m1, m2).  Returns (..., m1, m2).
        """
        if self.family == "zero":
            return np.zeros_like(np.asarray(y, dtype=float))
        if self.family == "mode_constant":
            return np.broadcast_to(self.c, np.shape(y)).copy()
        sat = np.clip(y, -self.M, self.M)
        zsat = np.clip(z, -self.M, self.M)
        return self.a * sat + self.c + np.einsum("p,...pij->...ij", self.b, zsat)

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
        if family == "affine":
            self.beta = np.asarray(beta, dtype=float)
            if self.beta.shape != (m1, m2):
                raise DataError(f"beta must have shape {(m1, m2)}")
        if family == "leaf_table":
            self.table = np.asarray(table, dtype=float)
            if self.table.ndim != 3 or self.table.shape[1:] != (m1, m2):
                raise DataError("leaf table must have shape (num_leaves, m1, m2)")

    @property
    def markovian(self) -> bool:
        return self.family in ("constant", "affine")

    def evaluate(self, leaf_w):
        """Terminal matrix per leaf.

        leaf_w : (n_leaves, d) array of terminal W-states.
        Returns (n_leaves, m1, m2).
        """
        n = leaf_w.shape[0]
        if self.family == "constant":
            return np.broadcast_to(self.alpha, (n, self.m1, self.m2)).copy()
        if self.family == "affine":
            return self.alpha[None] + self.beta[None] * leaf_w[:, 0, None, None]
        if self.table.shape[0] != n:
            raise DataError(
                f"leaf table has {self.table.shape[0]} rows but the tree has {n} leaves"
            )
        return self.table.copy()


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
        if self.horizon <= 0:
            raise DataError("horizon must be positive")
        if self.d < 1:
            raise DataError("Brownian dimension must be at least 1")
        for other in (self.generator, self.terminal):
            if (other.m1, other.m2) != (self.costs.m1, self.costs.m2):
                raise DataError("generator/terminal mode grid does not match the cost tables")

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

    def check_terminal(self, leaf_w, tol: float = 1e-9):
        """Hard error when any leaf's terminal matrix leaves the constraint region."""
        xi = self.terminal.evaluate(leaf_w)
        up = upper_barrier(xi, self.costs)
        lo = lower_barrier(xi, self.costs)
        bad_up = xi > up + tol
        bad_lo = xi < lo - tol
        if np.any(bad_up) or np.any(bad_lo):
            n, i, j = np.argwhere(bad_up | bad_lo)[0]
            raise DataError(
                f"terminal value at leaf {n}, mode pair ({i + 1},{j + 1}) lies outside "
                "the constraint region"
            )
        return xi
