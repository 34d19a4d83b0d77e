"""Discrete Brownian filtrations on which every expectation is an exact finite sum.

Two carriers share one interface:

* :class:`PathTree` -- a non-recombining tree.  Level t holds ``(2**d)**t``
  nodes; node q at level t has children ``q * 2**d + c`` at level t+1, one per
  sign pattern c of the d Brownian increments.  This is the primary filtration:
  a node is exactly the history of the walk, so path-dependent terminals and
  feedback strategies live here without approximation.

* :class:`RecombiningTree` -- the Markovian fast path.  Level t holds
  ``(t+1)**d`` walk states; valid only when driver and terminal depend on the
  current W-state alone.

Per-component increments are ``+/- sqrt(dt)`` with probability ``2**-d`` per
joint sign pattern, so ``E[dW] = 0`` and ``E[dW_p dW_q] = dt * delta_pq``
hold exactly at every node.

Values on a level are arrays with the node axis first: ``(n_t, m1, m2)`` for a
mode field, ``(n_t, d, m1, m2)`` for its martingale coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, SizingError

DEFAULT_NODE_CAP = 2 ** 22


def _branch_signs(d: int) -> np.ndarray:
    """(2**d, d) matrix of increment signs; bit p of the branch index gives
    the sign of component p (+1 for a set bit)."""
    B = 1 << d
    c = np.arange(B)[:, None]
    bits = (c >> np.arange(d)[None, :]) & 1
    return 2.0 * bits - 1.0


class _Tree:
    """Constructor checks, time grid and leaf states shared by both carriers.

    A subclass defines `level_size` (used here to count its nodes) and the
    noun and unit its node-cap message uses.
    """

    def __init__(self, N: int, d: int, T: float, node_cap: int):
        if N < 1 or d < 1:
            raise DataError("need N >= 1 and d >= 1")
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

    @property
    def leaf_w(self) -> np.ndarray:
        return self.level_w(self.N)

    def time(self, t: int) -> float:
        return t * self.dt


class PathTree(_Tree):
    """Non-recombining binary-per-component tree over N steps in dimension d."""

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

    def level_w(self, t: int) -> np.ndarray:
        """(n_t, d) W-states of level t."""
        return self._w[t]

    def expect_next(self, t: int, values: np.ndarray) -> np.ndarray:
        """Conditional expectation of level-(t+1) values, per level-t node."""
        if t >= self.N:
            raise DataError("no level beyond the leaves")
        n = self.level_size(t)
        v = np.asarray(values, dtype=float)
        if v.shape[0] != n * self.branching:
            raise DataError(
                f"expected {n * self.branching} next-level values, got {v.shape[0]}"
            )
        return v.reshape((n, self.branching) + v.shape[1:]).mean(axis=1)

    def z_next(self, t: int, values: np.ndarray) -> np.ndarray:
        """Martingale coefficients E[value * dW_p | node] / dt, all components.

        Returns ``(n_t, d) + tail`` for input ``(n_{t+1},) + tail``.
        """
        if t >= self.N:
            raise DataError("no level beyond the leaves")
        n = self.level_size(t)
        v = np.asarray(values, dtype=float)
        grouped = v.reshape((n, self.branching) + v.shape[1:])
        # weights (B, d): increment / (B * dt)
        wgt = self._increments / (self.branching * self.dt)
        return np.einsum("nb...,bp->np...", grouped, wgt)


class RecombiningTree(_Tree):
    """Recombining scaled-random-walk lattice; level t holds (t+1)**d states.

    State u (a multi-index, one entry per component) at level t maps to
    ``W_p = (2 u_p - t) * sqrt(dt)``.  Only valid for Markovian data: node
    identity is the walk state, not the path.
    """

    recombining = True
    _noun = "lattice"
    _unit = "states"

    def __init__(self, N: int, d: int, T: float, node_cap: int = DEFAULT_NODE_CAP):
        super().__init__(N, d, T, node_cap)
        self._sqdt = math.sqrt(self.dt)

    def level_size(self, t: int) -> int:
        return (t + 1) ** self.d

    def _grid(self, t: int):
        return (t + 1,) * self.d

    def level_w(self, t: int) -> np.ndarray:
        axes = np.indices(self._grid(t)).reshape(self.d, -1).T  # (n_t, d)
        return (2.0 * axes - t) * self._sqdt

    def expect_next(self, t: int, values: np.ndarray) -> np.ndarray:
        if t >= self.N:
            raise DataError("no level beyond the leaves")
        v = np.asarray(values, dtype=float)
        tail = v.shape[1:]
        grid = v.reshape(self._grid(t + 1) + tail)
        acc = None
        for c in range(self.branching):
            sl = tuple(
                slice(1, t + 2) if (c >> p) & 1 else slice(0, t + 1)
                for p in range(self.d)
            )
            piece = grid[sl]
            acc = piece.copy() if acc is None else acc + piece
        out = acc / self.branching
        return out.reshape((self.level_size(t),) + tail)

    def z_next(self, t: int, values: np.ndarray) -> np.ndarray:
        if t >= self.N:
            raise DataError("no level beyond the leaves")
        v = np.asarray(values, dtype=float)
        tail = v.shape[1:]
        grid = v.reshape(self._grid(t + 1) + tail)
        out = np.zeros((self.level_size(t), self.d) + tail)
        for c in range(self.branching):
            sl = tuple(
                slice(1, t + 2) if (c >> p) & 1 else slice(0, t + 1)
                for p in range(self.d)
            )
            piece = grid[sl].reshape((self.level_size(t),) + tail)
            for p in range(self.d):
                sign = 1.0 if (c >> p) & 1 else -1.0
                out[:, p] += piece * (sign * self._sqdt / (self.branching * self.dt))
        return out


def build_tree(N: int, d: int, T: float, recombining: bool = False,
               node_cap: int = DEFAULT_NODE_CAP):
    """Build the requested filtration carrier.

    The recombining form is an opt-in fast path; callers must only request it
    for Markovian data (the solvers check this).
    """
    cls = RecombiningTree if recombining else PathTree
    return cls(N, d, T, node_cap=node_cap)
