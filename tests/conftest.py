"""Shared fixtures: the standard 2x2 instance, trees, random-instance helpers,
a wall-time budget, an array that refuses per-entry reads, and the
candidate-tensor barrier oracle."""

import contextlib
import signal

import numpy as np
import pytest

from switchgame import build_tree
from switchgame.model import (
    CostTables,
    GameSpec,
    GeneratorSpec,
    TerminalSpec,
    check_loop_costs,
    project_oblique,
    project_oblique_batch,
    validate_cost_matrices,
)

# The standard 2x2 instance used throughout: unit Player-I costs, 0.8
# Player-II costs, an antisymmetric mode-constant driver, and an affine
# terminal whose second row sits exactly on its lower barrier (so the lower
# pushes stay active at every refinement level).
STANDARD_K = [[0.0, 1.0], [1.0, 0.0]]
STANDARD_L = [[0.0, 0.8], [0.8, 0.0]]
STANDARD_C = [[2.0, -2.0], [-2.0, 2.0]]
STANDARD_ALPHA = [[0.3, 0.9], [-0.4, 0.4]]
STANDARD_BETA = [[1.0, 1.0], [0.9, 0.9]]
STANDARD_T = 0.24


@contextlib.contextmanager
def time_budget(seconds: int):
    """Raise TimeoutError inside the block once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past its {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class NoEntryReads(np.ndarray):
    """An array that fails any read by integer index alone (one node, or one
    entry); whole-array operations, slices and iteration of `.flat` pass."""

    def __getitem__(self, key):
        keys = key if isinstance(key, tuple) else (key,)
        if all(isinstance(k, (int, np.integer)) for k in keys):
            raise AssertionError(f"per-entry read {key!r}")
        return super().__getitem__(key)


def swapped_projection(y, costs: CostTables):
    """`project_oblique(y, costs)[0]` reached through the player-swapped dual:
    -y.T with the two cost tables exchanged has the same region, so the
    projection is the same, but each coordinate visit clamps by the lower
    barrier first and the sweep runs column-major."""
    dual = project_oblique(-np.asarray(y, dtype=float).T, CostTables(k=costs.l, l=costs.k))[0]
    return -dual.T


def upper_sweep(y, costs: CostTables):
    """Upper-only projection of a batch `y` by the sweep, column by column:
    on one column (`l = [[0.0]]`) the two-sided projection has no lower
    barrier, so it is the one-sided sweep."""
    column = CostTables(k=costs.k, l=[[0.0]])
    return np.concatenate([project_oblique_batch(y[..., [j]], column)[0]
                           for j in range(costs.m2)], axis=-1)


def lower_sweep(y, costs: CostTables):
    """Lower-only projection of a batch `y` by the sweep, row by row."""
    row = CostTables(k=[[0.0]], l=costs.l)
    return np.concatenate([project_oblique_batch(y[..., [i], :], row)[0]
                           for i in range(costs.m1)], axis=-2)


def tensor_barriers(y, costs: CostTables):
    """Barriers and switch targets reduced from whole candidate tensors, an
    oracle for the package's running reductions: c[..., i, i', j] =
    y[..., i', j] + k[i, i'] reduced over i' and c[..., i, j, j'] =
    y[..., i, j'] - l[j, j'] reduced over j'.  Returns (upper barrier, its
    argmin i', lower barrier, its argmax j')."""
    y = np.asarray(y, dtype=float)
    up = y[..., None, :, :] + costs.k_off[:, :, None]
    lo = y[..., :, None, :] - costs.l_off
    return up.min(axis=-2), up.argmin(axis=-2), lo.max(axis=-1), lo.argmax(axis=-1)


def standard_costs() -> CostTables:
    return CostTables(k=STANDARD_K, l=STANDARD_L)


def make_standard(T: float = STANDARD_T, driver: str = "mode_constant") -> GameSpec:
    """The standard 2x2 game specification (optionally with a zero driver)."""
    costs = standard_costs()
    if driver == "zero":
        gen = GeneratorSpec("zero", 2, 2)
    else:
        gen = GeneratorSpec("mode_constant", 2, 2, c=STANDARD_C)
    term = TerminalSpec("affine", 2, 2, alpha=STANDARD_ALPHA, beta=STANDARD_BETA)
    return GameSpec(costs=costs, generator=gen, terminal=term, horizon=T, d=1)


def make_3x3() -> GameSpec:
    """A 3x3 instance, checked admissible at build time.

    The jittered costs matter: arithmetic progressions such as
    1 + 0.1 |i - i'| make several six-step loops cancel exactly, which the
    loop validator rightly rejects.
    """
    k = np.array([[0.0, 1.253, 1.222],
                  [1.079, 0.0, 1.247],
                  [1.021, 1.234, 0.0]])
    l = np.array([[0.0, 0.768, 0.765],
                  [0.761, 0.0, 0.801],
                  [0.809, 0.879, 0.0]])
    costs = CostTables(k=k, l=l)
    c = np.array([[1.0, -1.0, 0.5], [-1.0, 1.0, -0.5], [0.5, -0.5, 1.0]])
    gen = GeneratorSpec("mode_constant", 3, 3, c=c)
    alpha = np.array([[0.3, 0.5, 0.1], [-0.2, 0.0, -0.3], [0.1, 0.2, -0.1]])
    beta = np.full((3, 3), 0.7)
    term = TerminalSpec("affine", 3, 3, alpha=alpha, beta=beta)
    spec = GameSpec(costs=costs, generator=gen, terminal=term, horizon=STANDARD_T, d=1)
    spec.require_valid()
    return spec


def random_admissible_spec(rng: np.random.Generator, m1: int, m2: int, tree) -> GameSpec:
    """A random valid instance on `tree`: random costs passing both validators
    and a random leaf-table terminal projected into the constraint region."""
    while True:
        k = rng.uniform(0.5, 2.0, (m1, m1))
        l = rng.uniform(0.3, 1.5, (m2, m2))
        np.fill_diagonal(k, 0.0)
        np.fill_diagonal(l, 0.0)
        costs = CostTables(k=k, l=l)
        if validate_cost_matrices(costs).ok and check_loop_costs(costs).ok:
            break
    raw = rng.uniform(-2.0, 2.0, (tree.level_size(tree.N), m1, m2))
    table = np.stack([project_oblique(raw[p], costs)[0] for p in range(raw.shape[0])])
    gen = GeneratorSpec("mode_constant", m1, m2, c=rng.uniform(-2.0, 2.0, (m1, m2)))
    term = TerminalSpec("leaf_table", m1, m2, table=table)
    return GameSpec(costs=costs, generator=gen, terminal=term, horizon=tree.T, d=tree.d)


def n2_fixture_set():
    """Named N=2 instances covering interior, lower-active, upper-active, and
    y/z-dependent drivers.  Each entry is (name, spec); trees are built by the
    caller with N=2, d=1, T=spec.horizon."""
    out = [("standard", make_standard()), ("standard_zero_driver", make_standard(driver="zero"))]

    # second row of the terminal pinned to its upper (k) barrier
    costs = standard_costs()
    gen = GeneratorSpec("mode_constant", 2, 2, c=STANDARD_C)
    term = TerminalSpec(
        "affine", 2, 2,
        alpha=[[0.6, 1.4], [-0.4, 0.4]],
        beta=[[0.9, 0.9], [0.9, 0.9]],
    )
    out.append(("upper_active", GameSpec(costs, gen, term, horizon=STANDARD_T, d=1)))

    gen = GeneratorSpec("saturated_affine", 2, 2, a=0.5, b=[0.3], M=1.0,
                        c=[[0.4, -0.4], [-0.4, 0.4]])
    term = TerminalSpec(
        "affine", 2, 2,
        alpha=[[0.1, 0.3], [-0.2, 0.2]],
        beta=[[0.5, 0.5], [0.4, 0.4]],
    )
    out.append(("saturated_affine", GameSpec(costs, gen, term, horizon=0.2, d=1)))
    return out


@pytest.fixture
def standard_spec():
    return make_standard()


@pytest.fixture
def standard_tree_n8(standard_spec):
    return build_tree(8, 1, standard_spec.horizon)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
