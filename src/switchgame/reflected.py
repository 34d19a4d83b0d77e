"""Direct dynamic-programming solver for the obliquely reflected system.

Each backward step is a splitting: the implicit BSDE step with the raw
generator, then the oblique projection onto the constraint region.  The
projection's pushes are the discrete reflection increments; Z is the
pre-projection martingale coefficient (the push is of bounded variation and
does not load on the Brownian increments).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bsde
from .lattice import node_first, node_last
from .model import (
    REGION_TOL,
    GameSpec,
    ValidationReport,
    _lower,
    _mode_major_blocks,
    _modes_first,
    _require_tolerance,
    _upper,
    in_Qbar,
    project_oblique_batch,
)


@dataclass
class RbsdeSolution:
    """Backward solution fields, level-indexed (0 = root, N = leaves).

    Each field is a node-first view of a mode-major array: ``np.moveaxis(f,
    0, -1)`` is the contiguous stored (m1, m2, n_t) or (d, m1, m2, n_t) array.

    Y[t]            : (n_t, m1, m2) values.
    Z[t], t < N     : (n_t, d, m1, m2) martingale coefficients.
    dK[t], dL[t]    : per-node push increments applied at level t (t < N);
                      the increment computed at a node accrues over [t, t+dt),
                      so cumulative K at a node sums the increments of its
                      strict ancestors and K(root) = 0.
    K[t], L[t]      : cumulative pushes per node, summed from dK and dL on
                      first read (path trees only; on the recombining lattice
                      a state does not determine the path, so they are None).
    """

    tree: object
    spec: GameSpec
    Y: list
    Z: list
    dK: list
    dL: list

    @property
    def root(self) -> np.ndarray:
        """(m1, m2) matrix of root values."""
        return self.Y[0][0]

    @cached_property
    def K(self) -> list | None:
        return _accumulate(self.tree, self.dK)

    @cached_property
    def L(self) -> list | None:
        return _accumulate(self.tree, self.dL)


def _accumulate(tree, increments):
    """Root-to-node cumulative sums of per-level push increments on a path
    tree, stored mode-major; None on a recombining lattice."""
    if tree.recombining:
        return None
    out = [np.zeros(increments[0].shape[1:] + (1,))]
    for t in range(tree.N):
        out.append(np.repeat(out[t] + node_last(increments[t]), tree.branching, -1))
    return list(map(node_first, out))


def solve_rbsde(spec: GameSpec, tree) -> RbsdeSolution:
    """Solve the reflected system on the whole tree.

    Validates the cost structure, checks the terminal matrix lies in the
    constraint region at every leaf (hard error otherwise), then runs the
    reflected backward induction: per level the implicit BSDE step with the
    raw generator, then the oblique projection.
    """
    spec.require_valid()

    def post(t, y, z):
        y, dK, dL = map(node_last, project_oblique_batch(node_first(y), spec.costs))
        return y, z, dK, dL

    Y, Z, dK, dL = bsde.backward(tree, spec.check_terminal(tree), spec.generator, post)
    return RbsdeSolution(tree=tree, spec=spec, Y=Y, Z=Z, dK=dK, dL=dL)


def check_minimality(sol: RbsdeSolution, tol: float = 1e-8,
                     push_tol: float = 1e-9) -> ValidationReport:
    """Every strictly positive push must sit exactly on its barrier.

    For nodes with dK > push_tol the value must equal its upper barrier within
    `tol`; symmetrically for dL and the lower barrier.  Violations are report
    entries, never exceptions, per level the upper ones first, each in node
    order, reduced on mode-major blocks of nodes.  Both tolerances must be
    finite and nonnegative (DataError otherwise).
    """
    _require_tolerance("tol", tol)
    _require_tolerance("push_tol", push_tol)
    spec = sol.spec
    bad = []
    for t in range(sol.tree.N):
        found = {"upper": [], "lower": []}
        for rows, y in _mode_major_blocks(_modes_first(sol.Y[t], spec.costs)):
            for pushes, barrier, name in ((sol.dK[t], _upper, "upper"),
                                          (sol.dL[t], _lower, "lower")):
                bar = barrier(y, spec.costs)
                gaps = np.abs(np.subtract(y, bar, out=bar), out=bar)
                push = _modes_first(pushes, spec.costs)[..., rows]
                viol = (push > push_tol) & (gaps > tol)
                for n, i, j in np.argwhere(node_first(viol)):
                    found[name].append(
                        f"level {t} node {rows.start + n} mode ({i + 1},{j + 1}): {name} "
                        f"push {push[i, j, n]:g} off the barrier by {gaps[i, j, n]:g}"
                    )
        bad += found["upper"] + found["lower"]
    return ValidationReport(tuple(bad))


def domain_report(sol: RbsdeSolution) -> ValidationReport:
    """Constraint-region membership of Y at every node, within REGION_TOL."""
    bad = []
    for t, y in enumerate(sol.Y):
        if not in_Qbar(y, sol.spec.costs):
            bad.append(f"level {t}: a value violates the constraint region beyond {REGION_TOL:g}")
    return ValidationReport(tuple(bad))


# Rows (node, mode pair) of `fields.csv` held as text at once: the export
# formats a level in blocks of whole nodes, so its memory does not grow with
# the level.  A larger block formats a float that repeats across its nodes
# once and spreads each call's fixed costs over more rows; past 1152 rows (128
# nodes of a 3x3 grid) perf_3x3's write got no faster.
_EXPORT_BLOCK_ROWS = 1152


def _text(a):
    """``repr`` text of the entries of `a` as floats, in C order.

    Each distinct bit pattern is formatted once and its text indexed: the
    fields repeat heavily on a path tree.  Bits, not values, tell entries
    apart, so -0.0 keeps its sign (NaNs of any payload all read ``nan``)."""
    a = np.asarray(a, dtype=float).ravel()
    if not a.size:
        return []
    bits = a.view(np.uint64)
    if bits.min() == bits.max():    # zero pushes and cumulants: skip the sort
        return [repr(float(a[0]))] * a.size
    keys, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)
    return text[inverse].tolist()


def _export_blocks(sol: RbsdeSolution):
    """The cells of the export rows, in blocks of at most `_EXPORT_BLOCK_ROWS`
    rows (one node at least) of a level, read from whole-array slices.

    Yields ``(t, nodes, w, cols)``: the level, the range of its nodes in the
    block, the W text columns (one cell per node and component) and the row
    text columns Y, Z1..Zd, dK, dL, K, L (one cell per node and mode pair, in
    (node, i, j) order).  Z/dK/dL are blank on leaf rows and K/L on a
    recombining lattice.  This is the one place the export formats a float.
    """
    tree, K, L = sol.tree, sol.K, sol.L
    m1, m2 = sol.Y[0].shape[1:]
    size = max(1, _EXPORT_BLOCK_ROWS // (m1 * m2))     # nodes per block
    for t in range(tree.N + 1):
        fields = [sol.Y[t]]
        if t < tree.N:
            fields += [sol.Z[t][:, p] for p in range(tree.d)] + [sol.dK[t], sol.dL[t]]
        if K is not None:
            fields += [K[t], L[t]]
        w, n_t = tree.level_w(t), len(sol.Y[t])
        for start in range(0, n_t, size):
            block = slice(start, start + size)
            cols = [_text(f[block]) for f in fields]
            blank = [""] * len(cols[0])
            if t == tree.N:
                cols[1:1] = [blank] * (tree.d + 2)
            if K is None:
                cols += [blank] * 2
            yield t, range(n_t)[block], [_text(w[block, p]) for p in range(tree.d)], cols


def export_rows(sol: RbsdeSolution):
    """Yield one flat record per (node, mode pair) for tabular export.

    Columns: level, node, i, j, W components, Y, Z components, dK, dL,
    cumulative K, cumulative L.  Z/dK/dL are empty strings on leaf rows;
    cumulants are empty when the tree is recombining.  The cells are the
    text of `_export_blocks`.
    """
    m1, m2 = sol.Y[0].shape[1:]
    pairs = list(itertools.product(range(1, m1 + 1), range(1, m2 + 1)))
    for t, nodes, w, cols in _export_blocks(sol):
        keys = ((n, *pair, *wn) for n, *wn in zip(nodes, *w) for pair in pairs)
        for key, *cells in zip(keys, *cols):
            yield [t, *key, *cells]


def export_header(d: int):
    return (["level", "node", "i", "j"]
            + [f"W{p + 1}" for p in range(d)]
            + ["Y"] + [f"Z{p + 1}" for p in range(d)]
            + ["dK", "dL", "K", "L"])
