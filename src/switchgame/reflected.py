"""Direct dynamic-programming solver for the obliquely reflected system.

Each backward step is a splitting: the implicit BSDE step with the raw
generator, then the oblique projection onto the constraint region.  The
projection's pushes are the discrete reflection increments; Z is the
pre-projection martingale coefficient (the push is of bounded variation and
does not load on the Brownian increments).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bsde
from .lattice import carrier, node_first, node_last
from .model import (
    REGION_TOL,
    GameSpec,
    ValidationReport,
    _lower,
    _mode_major_blocks,
    _upper,
    in_Qbar,
    project_oblique_batch,
)

# A push larger than PUSH_TOL must leave its value within MINIMALITY_TOL of the
# barrier it acts on
MINIMALITY_TOL = 1e-8
PUSH_TOL = 1e-9


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
    raw generator, then the oblique projection.  The induction runs on the
    tree's `carrier` (a path tree's distinct nodes for a Markovian
    terminal), and its fields are expanded to every node of `tree`.
    """
    spec.require_valid()

    def post(t, y, z):
        y, dK, dL = map(node_last, project_oblique_batch(node_first(y), spec.costs))
        return y, z, dK, dL

    run = carrier(tree, spec.terminal.markovian)
    xi = run.gather([spec.check_terminal(tree)], tree.N)[0]
    Y, Z, dK, dL = map(run.expand, bsde.backward(run, xi, spec.generator, post))
    return RbsdeSolution(tree=tree, spec=spec, Y=Y, Z=Z, dK=dK, dL=dL)


def check_minimality(sol: RbsdeSolution) -> ValidationReport:
    """Every strictly positive push must sit exactly on its barrier.

    For nodes with dK > PUSH_TOL the value must equal its upper barrier within
    MINIMALITY_TOL; symmetrically for dL and the lower barrier.  A NaN push
    or gap is a violation whatever the other reads.  Violations are report
    entries, never exceptions, per level the upper ones first, each in node
    order, reduced on mode-major blocks of nodes.
    """
    spec = sol.spec
    bad = []
    for t in range(sol.tree.N):
        found = {"upper": [], "lower": []}
        for rows, y in _mode_major_blocks(node_last(sol.Y[t])):
            for pushes, barrier, name in ((sol.dK[t], _upper, "upper"),
                                          (sol.dL[t], _lower, "lower")):
                bar = barrier(y, spec.costs)
                gaps = np.abs(np.subtract(y, bar, out=bar), out=bar)
                push = node_last(pushes)[..., rows]
                viol = np.isnan(push) | np.isnan(gaps) | (
                    (push > PUSH_TOL) & (gaps > MINIMALITY_TOL))
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


# The export's transient memory is bounded by two sizes.
# `_EXPORT_BLOCK_ROWS` bounds the rows (node, mode pair) of `fields.csv` held
# as text at once: the export formats a level in blocks of whole nodes that
# hold at most that many rows' worth of distinct nodes, so its memory does not
# grow with the level but for one list entry (a pointer) per node of a block.
# A larger block formats a node that repeats across blocks once more often,
# and spreads each block's fixed costs over more rows.  `_WRITE_ROWS` bounds
# the lines joined and written at once: the joined text and its encoding are
# much of the writer's memory, so a block is written in slices of whole nodes
# of at most these many lines (or of one node).
_EXPORT_BLOCK_ROWS = 1152
_WRITE_ROWS = 256


def _text(a):
    """``repr`` text of the entries of `a` as floats, in C order.

    Each distinct bit pattern is formatted once and its text indexed: the
    fields repeat heavily on a path tree.  Bits, not values, tell entries
    apart, so -0.0 keeps its sign (NaNs of any payload all read ``nan``)."""
    bits = np.asarray(a, dtype=float).ravel().view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)
    return text[inverse].tolist()


def _node_keys(fields):
    """The key of each node of a slice of `fields`: the bytes of its cells,
    laid out as the fields are, so -0.0 is not 0.0 and NaNs of different
    payloads differ."""
    n, width = len(fields[0]), sum(math.prod(f.shape[1:]) for f in fields)
    cells = np.concatenate([np.reshape(f, (n, -1)) for f in fields], axis=1,
                           out=np.empty((n, width)))
    return cells.view(np.dtype((np.void, width * 8))).ravel().tolist()


def _node_text(keys, d, filled, pairs):
    """The tails of the distinct nodes with `keys` (of `_node_keys`) whose
    cells are W (`d` of them), and then the row columns filled at their
    level (those of `filled` that are true, out of Y, Z1..Zd, dK, dL, K, L).

    Each key is formatted once, into its tails: ``""`` and then, per mode
    pair in (i, j) order, the row text from the pair's ``i,j`` (of `pairs`)
    on, without a line break."""
    width = len(keys[0]) // 8
    text = _text(np.frombuffer(b"".join(keys), dtype=float).reshape(len(keys), width).T)
    # one list of texts, over the distinct nodes, per cell of the key; the
    # cells of a row column are one per mode pair
    text = [text[c:c + len(keys)] for c in range(0, len(text), len(keys))]
    w = list(map(",".join, zip(*text[:d])))
    blank = [[""] * len(keys)] * len(pairs)
    filled_cols = iter(text[c:c + len(pairs)] for c in range(d, width, len(pairs)))
    cols = [next(filled_cols) if f else blank for f in filled]
    return list(zip(itertools.repeat(""), *(
        map(",".join, zip(itertools.repeat(pair), w, *(c[q] for c in cols)))
        for q, pair in enumerate(pairs))))


def _export_blocks(sol: RbsdeSolution):
    """The text of the export rows, in blocks of a level that each hold at
    most `_EXPORT_BLOCK_ROWS` rows' worth of distinct nodes (one node at
    least), read from whole-array slices.

    Yields ``(t, nodes, index, tails)``: the level, the range of its nodes
    in the block, each node's index among the block's distinct nodes, and
    those nodes' tails.  A node's key is the bit pattern of all its cells: W,
    then Y, Z1..Zd, dK, dL, K and L over its mode pairs; only the first node
    with each key is formatted.  A block is the longest run of nodes with at
    most `size` keys, so it ends just before the node whose key would be the
    (`size` + 1)-th.  ``tails[k]`` is ``""`` and then distinct node k's
    ``i,j,W..,Y,Z..,dK,dL,K,L`` text per mode pair, in (i, j) order.
    Z/dK/dL are blank on leaf rows and K/L on a recombining lattice.  This
    is the one place the export formats a float or joins a cell.
    """
    tree, K, L = sol.tree, sol.K, sol.L
    m1, m2 = sol.Y[0].shape[1:]
    pairs = [f"{i},{j}" for i in range(1, m1 + 1) for j in range(1, m2 + 1)]
    size = max(1, _EXPORT_BLOCK_ROWS // len(pairs))     # distinct nodes per block
    for t in range(tree.N + 1):
        fields = [tree.level_w(t), sol.Y[t]]
        if t < tree.N:
            fields += [sol.Z[t], sol.dK[t], sol.dL[t]]
        if K is not None:
            fields += [K[t], L[t]]
        filled = [True] + [t < tree.N] * (tree.d + 2) + [K is not None] * 2
        start, ids, index = 0, {}, []
        # the keys are built in slices of at most `size` nodes, and a slice
        # that brings the block past `size` keys ends it at its first node
        # with index `size`: the rest of the slice opens the next block
        for at in range(0, len(sol.Y[t]), size):
            keys, first = _node_keys([f[at:at + size] for f in fields]), len(index)
            index += [ids.setdefault(key, len(ids)) for key in keys]
            if len(ids) > size:
                cut = index.index(size, first)
                yield (t, range(start, start + cut), index[:cut],
                       _node_text(list(itertools.islice(ids, size)), tree.d, filled, pairs))
                keys = keys[cut - first:]
                start, ids = start + cut, {}
                index = [ids.setdefault(key, len(ids)) for key in keys]
        yield t, range(start, len(sol.Y[t])), index, _node_text(list(ids), tree.d, filled, pairs)


def write_fields(path, sol: RbsdeSolution):
    """Write `fields.csv` byte for byte as `csv.writer` would from
    `export_rows`: no cell needs quoting, and each row ends in CR LF.
    Returns (rows written, nodes whose text was formatted).

    Every node of a block of `_export_blocks` is written as its line break
    and ``level,node,`` prefix joined into its distinct node's tails, at most
    `_WRITE_ROWS` lines at a time: each line break comes before its row, and
    the file's last one is written at the end."""
    pairs = math.prod(sol.Y[0].shape[1:])
    nodes_at_once = max(1, _WRITE_ROWS // pairs)
    rows = distinct = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(export_header(sol.tree.d)))
        for t, nodes, index, tails in _export_blocks(sol):
            text = map(str.join, map(f"\r\n{t},{{}},".format, nodes),
                       map(tails.__getitem__, index))
            for _ in range(0, len(nodes), nodes_at_once):
                fh.write("".join(itertools.islice(text, nodes_at_once)))
            rows += len(nodes) * pairs
            distinct += len(tails)
            del tails, text     # the next block is formatted with this one freed
        fh.write("\r\n")
    return rows, distinct


def export_rows(sol: RbsdeSolution):
    """Yield one flat record per (node, mode pair) for tabular export.

    Columns: level, node, i, j, W components, Y, Z components, dK, dL,
    cumulative K, cumulative L.  Z/dK/dL are empty strings on leaf rows;
    cumulants are empty when the tree is recombining.  The cells are read
    back from the tails of `_export_blocks`, which `write_fields` writes (no
    cell holds a comma), each distinct node's for every node that shares
    its key.
    """
    m1, m2 = sol.Y[0].shape[1:]
    pairs = list(itertools.product(range(1, m1 + 1), range(1, m2 + 1)))
    for t, nodes, index, tails in _export_blocks(sol):
        for n, k in zip(nodes, index):
            for pair, tail in zip(pairs, tails[k][1:]):
                yield [t, n, *pair, *tail.split(",")[2:]]


def export_header(d: int):
    return (["level", "node", "i", "j"]
            + [f"W{p + 1}" for p in range(d)]
            + ["Y"] + [f"Z{p + 1}" for p in range(d)]
            + ["dK", "dL", "K", "L"])
