"""Discrete Brownian filtrations on which every expectation is an exact finite sum.

Both carriers are the scaled random walk: per-component increments are
``+/- sqrt(dt)`` with probability ``2**-d`` per joint sign pattern, so
``E[dW] = 0`` and ``E[dW_p dW_q] = dt * delta_pq`` hold exactly at every
node.  `_Tree` owns the conditioning; a carrier states its level sizes,
W-states and where a node's 2**d children sit:

* :class:`PathTree` -- a non-recombining tree.  Level t holds ``(2**d)**t``
  nodes; node q at level t has children ``q * 2**d + c`` at level t+1, one per
  sign pattern c of the d Brownian increments.  This is the primary filtration:
  a node is exactly the history of the walk, so path-dependent terminals and
  feedback strategies live here without approximation.

* :class:`RecombiningTree` -- the Markovian fast path.  Level t holds
  ``(t+1)**d`` walk states; valid only when driver and terminal depend on the
  current W-state alone.

* the distinct nodes of a path tree (`PathTree.distinct`, built on first
  read and kept on the tree).  Two path nodes of a level share a class when
  their W-states are the same bits and their children's classes match in
  branch order; a level of the carrier holds one node per class, its first
  path node the representative.  A backward solve whose terminal reads W_T
  alone gives bitwise-equal values at the nodes of a class, so it may run
  on the carrier and be expanded to the path tree afterwards.  `carrier`
  chooses it for a Markovian terminal on a path tree, and the tree itself
  otherwise: on a lattice, and for a `leaf_table` terminal, which reads the
  path.  Every tree gathers and expands fields through the same three
  methods (`gather`, `restrict`, `expand`); on a tree that is its own
  carrier they return the fields as they are.

Values on a level are node-first, ``(n_t, m1, m2)`` or ``(n_t, d, m1, m2)``,
summed as views with the node axis last, whose slices are a node's children.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DataError, SizingError, _require_count

DEFAULT_NODE_CAP = 2 ** 22


def node_last(a):
    """A node-first (n, ...) array as a view with its node axis last."""
    return a.transpose(*range(1, a.ndim), 0)


def node_first(a):
    """A node-last (..., n) array as a view with its node axis first."""
    return a.transpose(-1, *range(a.ndim - 1))


def trailing(a, y):
    """The part of `a` that belongs to `y`, a trailing run of axis 0 of the
    field that `a` was built for: `a` itself when y holds as many entries on
    axis 0 (always so for one problem), else a view of its last len(y)."""
    return a if len(a) == len(y) else a[len(a) - len(y):]


def _branch_signs(d: int) -> np.ndarray:
    """(2**d, d) matrix of increment signs; bit p of the branch index gives
    the sign of component p (+1 for a set bit)."""
    B = 1 << d
    c = np.arange(B)[:, None]
    bits = (c >> np.arange(d)[None, :]) & 1
    return 2.0 * bits - 1.0


class _Tree:
    """Constructor checks, time grid and the conditioning shared by both carriers.

    A subclass defines `level_size` (used here to count its nodes), the noun
    and unit of its node-cap message, the per-level W-states `_w`, and
    `_children(t, v)`: the 2**d blocks of an (entries, rows) level-(t+1) array
    holding each node's child in branch c, node axes last, in branch order.
    """

    def __init__(self, N: int, d: int, T: float, node_cap: int):
        _require_count("N", N)
        _require_count("d", d)
        if not (0 < T < math.inf):
            raise DataError(f"horizon must be a positive finite number; got {T!r}")
        self.N = N
        self.d = d
        self.T = float(T)
        self.dt = float(T) / N
        self.branching = 1 << d
        # the count stops at the first level that passes the cap, so a huge
        # N is refused without summing (or printing) its exact size
        self.num_nodes = 0
        for t in range(N + 1):
            self.num_nodes += self.level_size(t)
            if self.num_nodes > node_cap:
                raise SizingError(f"{self._noun} with N={N}, d={d} passes the cap of "
                                  f"{node_cap} {self._unit} by level {t}")
        self.signs = _branch_signs(d)
        # (B, d) weights of z_next: increment / (B * dt)
        self._z_weights = self.signs * math.sqrt(self.dt) / (self.branching * self.dt)

    def level_w(self, t: int) -> np.ndarray:
        """(n_t, d) W-states of level t."""
        return self._w[t]

    @property
    def leaf_w(self) -> np.ndarray:
        return self._w[self.N]

    def time(self, t: int) -> float:
        return t * self.dt

    # A tree is its own carrier: its fields need no gather or expansion.
    def gather(self, levels, t=0):
        """Carrier fields of the node-first path fields `levels` of tree
        levels t, t+1, ...: here the fields themselves."""
        return levels

    restrict = expand = gather

    def _next_level(self, t: int, values) -> np.ndarray:
        """Level-(t+1) `values` as an (entries per node, rows) view."""
        if not 0 <= t < self.N:
            raise DataError(f"level {t} has no next level; levels 0..{self.N - 1} do")
        v = np.asarray(values, dtype=float)
        rows = self.level_size(t + 1)
        if v.shape[:1] != (rows,):
            raise DataError(f"expected {rows} level-{t + 1} values, got shape {v.shape}")
        return node_last(v).reshape(math.prod(v.shape[1:]), rows)

    def expect_next(self, t: int, values: np.ndarray) -> np.ndarray:
        """Conditional expectation of level-(t+1) values, per level-t node."""
        blocks = self._children(t, self._next_level(t, values))
        out = np.zeros(blocks[0].shape)
        for block in blocks:
            out += block
        out /= self.branching
        return node_first(out.reshape((*np.shape(values)[1:], -1)))

    def z_next(self, t: int, values: np.ndarray) -> np.ndarray:
        """Martingale coefficients E[value * dW_p | node] / dt, all components:
        ``(n_t, d) + tail`` for input ``(n_{t+1},) + tail``."""
        blocks = self._children(t, self._next_level(t, values))
        out = np.zeros((self.d,) + blocks[0].shape)
        lift = (slice(None),) + (None,) * blocks[0].ndim
        for block, weights in zip(blocks, self._z_weights):
            out += block * weights[lift]
        return node_first(out.reshape((self.d, *np.shape(values)[1:], -1)))


class PathTree(_Tree):
    """Non-recombining binary-per-component tree over N steps in dimension d;
    node q's children are rows ``q * B + c``: branch c's, a stride-B slice."""

    recombining = False
    _noun = "tree"
    _unit = "nodes"

    def __init__(self, N: int, d: int, T: float, node_cap: int = DEFAULT_NODE_CAP):
        super().__init__(N, d, T, node_cap)
        self._increments = self.signs * math.sqrt(self.dt)  # (B, d)
        self._w = [np.zeros((1, d))]
        for t in range(N):
            parent = self._w[t]
            w = parent[:, None, :] + self._increments[None, :, :]
            self._w.append(w.reshape(-1, d))

    def level_size(self, t: int) -> int:
        return self.branching ** t

    def _children(self, t: int, v: np.ndarray) -> list:
        return [v[:, c::self.branching] for c in range(self.branching)]

    # bound in the class body because the benchmark's span tracer times each
    # carrier's conditioning as found in the carrier's own namespace
    expect_next, z_next = _Tree.expect_next, _Tree.z_next

    @cached_property
    def distinct(self):
        """The carrier of this tree's distinct nodes, built on first read."""
        return _DistinctTree(self)


def _first_classes(keys):
    """(class of each row, first row of each class) of an (n, k) integer
    array whose equal rows share a class, the classes numbered in order of
    their first rows.  A stable sort of the rows puts each class's first row
    at the head of its run."""
    order = np.lexsort(keys.T[::-1])
    runs = keys[order]
    head = np.empty(len(runs), dtype=bool)
    head[0] = True
    np.any(runs[1:] != runs[:-1], axis=1, out=head[1:])
    first = order[head]
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    classes = np.empty(len(runs), dtype=np.intp)
    classes[order] = rank[np.cumsum(head) - 1]
    return classes, np.sort(first)


class _DistinctTree(PathTree):
    """The distinct nodes of a path tree, one per class (see the module
    docstring), built from the leaves up.

    `classes[t]` maps each path node of level t to its class and `reps[t]`
    each class to its first path node, whose W-state it has; class k's
    child in branch c is the class of its representative's.  A subclass of
    `PathTree`, so that its conditioning is `PathTree`'s own attributes,
    found through the class at each call."""

    def __init__(self, tree: PathTree):
        B, N = tree.branching, tree.N
        self.classes, self.reps = [None] * (N + 1), [None] * (N + 1)
        for t in range(N, -1, -1):
            # bits, not values: -0.0 and 0.0 are different states
            keys = np.ascontiguousarray(tree.level_w(t)).view(np.int64)
            if t < N:
                keys = np.concatenate([keys, self.classes[t + 1].reshape(-1, B)], axis=1)
            self.classes[t], self.reps[t] = _first_classes(keys)
        # (B, classes) per level: each class's child class in branch c
        self._kids = [self.classes[t + 1].reshape(-1, B)[self.reps[t]].T for t in range(N)]
        self._w = [tree.level_w(t)[r] for t, r in enumerate(self.reps)]
        _Tree.__init__(self, N, tree.d, tree.T, tree.num_nodes)

    def level_size(self, t: int) -> int:
        return len(self.reps[t])

    def _children(self, t: int, v: np.ndarray) -> list:
        return [v[:, kids] for kids in self._kids[t]]

    def gather(self, levels, t=0):
        """Carrier fields of the node-first path fields `levels` of tree
        levels t, t+1, ...: each read at its classes' representatives."""
        return [node_first(node_last(f).take(r, axis=-1)) for f, r in zip(levels, self.reps[t:])]

    def expand(self, levels, t=0):
        """Path fields of the node-first carrier fields `levels` of tree
        levels t, t+1, ...: each path node reads its class, into node-first
        views of new contiguous mode-major arrays."""
        return [node_first(node_last(f).take(c, axis=-1))
                for f, c in zip(levels, self.classes[t:])]

    def restrict(self, levels):
        """`gather(levels)` when every level of the path fields `levels` is
        the same bits at the nodes of each class, else None."""
        out = self.gather(levels)
        same = all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(self.expand(out), levels))
        return out if same else None


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class RecombiningTree(_Tree):
    """Recombining scaled-random-walk lattice; level t holds (t+1)**d states.

    State u (a multi-index, one entry per component) at level t maps to
    ``W_p = (2 u_p - t) * sqrt(dt)``.  Only valid for Markovian data: node
    identity is the walk state, not the path.  A state's children are its
    shifts on the next level's grid.
    """

    recombining = True
    _noun = "lattice"
    _unit = "states"

    def __init__(self, N: int, d: int, T: float, node_cap: int = DEFAULT_NODE_CAP):
        super().__init__(N, d, T, node_cap)
        sqdt = math.sqrt(self.dt)
        self._w = [(2.0 * np.indices((t + 1,) * d).reshape(d, -1).T - t) * sqdt
                   for t in range(N + 1)]

    def level_size(self, t: int) -> int:
        return (t + 1) ** self.d

    def _children(self, t: int, v: np.ndarray) -> list:
        """On the (t+2)**d grid of level t+1, state u's child in branch c is
        u shifted up by one in every component whose bit is set in c."""
        grid = v.reshape(v.shape[:1] + (t + 2,) * self.d)
        return [grid[(slice(None),) + tuple(slice(1, t + 2) if (c >> p) & 1 else slice(0, t + 1)
                                            for p in range(self.d))]
                for c in range(self.branching)]

    # see PathTree
    expect_next, z_next = _Tree.expect_next, _Tree.z_next


def carrier(tree, markovian: bool):
    """The tree a backward solve runs on for data on `tree`: its distinct
    nodes when `tree` is a path tree and the terminal is Markovian (it reads
    W_T alone), else `tree` itself.  Only a `PathTree` proper has them: a
    wrapper or a subclass may condition otherwise."""
    return tree.distinct if markovian and type(tree) is PathTree else tree


def build_tree(N: int, d: int, T: float, recombining: bool = False,
               node_cap: int = DEFAULT_NODE_CAP):
    """Build the requested filtration carrier.

    The recombining form is an opt-in fast path for Markovian data; every
    solver refuses a non-Markovian terminal on it.  N and d must be positive
    integers (DataError otherwise).
    """
    cls = RecombiningTree if recombining else PathTree
    return cls(N, d, T, node_cap=node_cap)
