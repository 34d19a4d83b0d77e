"""Shared fixtures: the standard 2x2 instance, trees, random-instance helpers,
the player-swapped game, a wall-time budget, an array that refuses
per-entry reads, every feedback strategy of a player, the
canonicalizing loop-walk oracle, the candidate-tensor barrier oracle, the
per-carrier conditioning oracle, the level-by-level penalization oracle,
the csv.writer export oracle, the entry-by-entry text oracle, the
field-layout region-check and minimality oracles, the per-iterate kernel
oracle, the per-strategy brute-force oracle, the sweep-every-matrix
projection oracle, and the node-major routines (barriers, region check,
projection, conditioning, penalty intensities, mode resolution) that ran
before fields were stored mode-major."""

import contextlib
import csv
import itertools
import math
import signal

import numpy as np
import pytest

from switchgame import build_tree
from switchgame.bsde import DriverFn, check_contraction
from switchgame.errors import ConvergenceError, DataError
from switchgame.game import FeedbackStrategy, feedback_tables
from switchgame.model import (
    CostTables,
    GameSpec,
    GeneratorSpec,
    TerminalSpec,
    _pretty_loop,
    check_loop_costs,
    project_oblique,
    project_oblique_batch,
    validate_cost_matrices,
)
from switchgame.penalty import ConvergenceRow, penalty_rate
from switchgame.reflected import export_header

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


class _Expired(BaseException):
    """Raised by `time_budget`'s alarm inside the block; a BaseException so
    that no `except Exception` in the block swallows it."""


@contextlib.contextmanager
def time_budget(seconds: int):
    """Fail with TimeoutError once `seconds` of wall time pass in the block.

    The alarm interrupts the block; the TimeoutError is raised here after
    the block has unwound, with the interrupted frames dropped, so its
    traceback holds no frame of the block.  (pytest crashed rendering one
    raised from deep inside a recursion.)
    """
    def expire(signum, frame):
        raise _Expired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    expired = False
    try:
        yield
    except _Expired as exc:
        exc.__traceback__ = None
        expired = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        raise TimeoutError(f"ran past its {seconds} s budget") from None


class NoEntryReads(np.ndarray):
    """An array that fails any read by integer index alone (one node, or one
    entry); whole-array operations, slices and iteration of `.flat` pass."""

    def __getitem__(self, key):
        keys = key if isinstance(key, tuple) else (key,)
        if all(isinstance(k, (int, np.integer)) for k in keys):
            raise AssertionError(f"per-entry read {key!r}")
        return super().__getitem__(key)


def assert_bitwise(got, want):
    """Equal shapes and equal bits, entry by entry: -0.0 is not +0.0."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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


def canonical_loop(loop):
    """Smallest rotation of a closed walk, forward or reversed."""
    return min(seq[r:] + seq[:r] for seq in (loop, loop[::-1]) for r in range(len(loop)))


def canonicalizing_walk_loops(m1, m2):
    """Primary-loop oracle: a depth-first walk from every pair finds each loop
    of length L 2L times, and canonicalizing plus a set removes the repeats."""
    found = set()

    def neighbors(p):
        i, j = p
        yield from ((i2, j) for i2 in range(m1) if i2 != i)
        yield from ((i, j2) for j2 in range(m2) if j2 != j)

    def extend(path, on_path):
        for q in neighbors(path[-1]):
            if q == path[0] and len(path) >= 2:
                found.add(canonical_loop(tuple(path)))
            if q not in on_path:
                on_path.add(q)
                path.append(q)
                extend(path, on_path)
                path.pop()
                on_path.remove(q)

    for start in itertools.product(range(m1), range(m2)):
        extend([start], {start})
    return sorted(found)


def _sweep_cap(base, costs: CostTables):
    """The projection's sweep cap for the (rows, m1, m2) batch `base`."""
    m1, m2 = costs.m1, costs.m2
    rounds = 1
    if m1 > 1 and m2 > 1:
        c = costs.min_loop_cost
        span = float(base.max()) - float(base.min()) if base.size else 0.0
        rounds = math.ceil(span / c + 1.0) if c > 0.0 else 64
    return m1 * m2 * rounds + 64


def reduction_sweeps(orig, costs: CostTables):
    """The batch after each Gauss-Seidel sweep of the projection on a
    mode-major (m1, m2, rows) batch, as each barrier was one reduction over
    all m modes, the coordinate's own +inf (upper) or -inf (lower) entry
    included, and every matrix was swept until the whole batch settled.
    Yields a new array per sweep, without end."""
    work = orig.copy()
    k_off, l_off = costs.k_off[:, :, None], costs.l_off[:, :, None]
    while True:
        for i in range(costs.m1):
            for j in range(costs.m2):
                val = np.minimum(orig[i, j], (work[:, j] + k_off[i]).min(axis=0))
                work[i, j] = np.maximum(val, (work[i] - l_off[j]).max(axis=0))
        yield work.copy()


def tolerance_sweep(orig, costs: CostTables, sweep_cap: int, tol: float):
    """The sweeps of `reduction_sweeps` as they stopped once no coordinate
    moved more than `tol`; with tol 0.0, at the exact fixed point, as the
    projection's sweep did before settled matrices left it."""
    prev = orig
    for _, work in zip(range(sweep_cap), reduction_sweeps(orig, costs)):
        if np.abs(work - prev).max() <= tol:
            return work
        prev = work
    detail = ""
    if costs.loop_costs:
        worst, cost = min(costs.loop_costs, key=lambda lc: abs(lc[1]))
        detail = f"; nearest-to-zero loop cost is {cost:g} on {_pretty_loop(worst)}"
    raise ConvergenceError(f"oblique projection did not settle in {sweep_cap} sweeps{detail}")


def sweep_every_matrix(y, costs: CostTables, tol: float = 1e-12):
    """`project_oblique_batch` as it swept every matrix of the batch, inside
    the region or not, on one mode-major copy of the whole batch: an oracle
    for sweeping only the matrices outside."""
    y0 = np.asarray(y, dtype=float)
    squeeze = y0.ndim == 2
    base = y0[None] if squeeze else y0
    m1, m2 = costs.m1, costs.m2
    if base.shape[-2:] != (m1, m2):
        raise DataError(f"value shape {base.shape[-2:]} does not match mode grid {(m1, m2)}")
    orig = np.ascontiguousarray(np.moveaxis(base, 0, -1))
    work = tolerance_sweep(orig, costs, _sweep_cap(base, costs), tol)
    out = np.ascontiguousarray(np.moveaxis(work, -1, 0))
    net = base - out
    dK = np.maximum(net, 0.0)
    dL = np.maximum(-net, 0.0)
    if squeeze:
        return out[0], dK[0], dL[0]
    return out, dK, dL


def fieldwise_outside_region(y, costs: CostTables, tol: float):
    """The region check's mask as it was reduced in y's own (..., m1, m2)
    layout, from the two node-major barriers: an oracle for the blocks."""
    y = np.asarray(y, dtype=float)
    up, lo = nodemajor_barrier(y, costs, "upper"), nodemajor_barrier(y, costs, "lower")
    return ~((y <= up + tol) & (y >= lo - tol))


def fieldwise_check_minimality(sol, tol=1e-8, push_tol=1e-9):
    """The violations of `reflected.check_minimality` as it reduced both
    barriers and both gaps in each level's (nodes, m1, m2) layout: an oracle
    for the mode-major blocks."""
    spec = sol.spec
    bad = []
    for t in range(sol.tree.N):
        y = sol.Y[t]
        up = nodemajor_barrier(y, spec.costs, "upper")
        lo = nodemajor_barrier(y, spec.costs, "lower")
        for push, bar, name in ((sol.dK[t], up, "upper"),
                                (sol.dL[t], lo, "lower")):
            gaps = np.abs(y - bar)
            viol = np.isnan(push) | np.isnan(gaps) | ((push > push_tol) & (gaps > tol))
            for n, i, j in np.argwhere(viol):
                bad.append(
                    f"level {t} node {n} mode ({i + 1},{j + 1}): {name} push "
                    f"{push[n, i, j]:g} off the barrier by {gaps[n, i, j]:g}"
                )
    return tuple(bad)


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


def carrier_conditioning(tree, t, values):
    """(E, z) of level-(t+1) `values` as each carrier computed them on its
    own, an oracle for the shared `expect_next`/`z_next`: a mean over the
    grouped children and an einsum on the path tree; on the lattice, a sum
    of shifted grid slices started from a copy of the first, and a
    zero-initialised accumulation per slice and component."""
    v = np.asarray(values, dtype=float)
    B, d, dt, tail = tree.branching, tree.d, tree.dt, v.shape[1:]
    n = tree.level_size(t)
    if not tree.recombining:
        grouped = v.reshape((n, B) + tail)
        wgt = tree.signs * math.sqrt(dt) / (B * dt)
        return grouped.mean(axis=1), np.einsum("nb...,bp->np...", grouped, wgt)
    grid = v.reshape((t + 2,) * d + tail)
    acc, z = None, np.zeros((n, d) + tail)
    for c in range(B):
        piece = grid[tuple(slice(1, t + 2) if (c >> p) & 1 else slice(0, t + 1)
                           for p in range(d))]
        acc = piece.copy() if acc is None else acc + piece
        for p in range(d):
            sign = 1.0 if (c >> p) & 1 else -1.0
            z[:, p] += piece.reshape((n,) + tail) * (sign * math.sqrt(dt) / (B * dt))
    return (acc / B).reshape((n,) + tail), z


def _running_extreme(pairs, op, keep, wins, targets):
    out = op(*next(pairs))
    if not targets:
        for pair in pairs:
            keep(out, op(*pair), out=out)
        return out
    target = np.zeros(out.shape, dtype=int)
    for mode, pair in enumerate(pairs, 1):
        term = op(*pair)
        target[wins(term, out)] = mode
        keep(out, term, out=out)
    return out, target


def nodemajor_barrier(y, costs: CostTables, side, targets=False):
    """`upper_barrier` (side "upper") or `lower_barrier` as they reduced a
    node-major (..., m1, m2) field over its 3-entry inner axes."""
    y = np.asarray(y, dtype=float)
    if side == "upper":
        pairs = ((y[..., a:a + 1, :], costs.k_off[:, a:a + 1]) for a in range(costs.m1))
        return _running_extreme(pairs, np.add, np.minimum, np.less, targets)
    pairs = ((y[..., b:b + 1], costs.l_off[:, b]) for b in range(costs.m2))
    return _running_extreme(pairs, np.subtract, np.maximum, np.greater, targets)


def nodemajor_projection(y, costs: CostTables):
    """`project_oblique_batch` as it ran on node-major batches: the matrices
    not strictly inside gathered into a mode-major copy, swept until no
    coordinate moved more than 1e-12, and scattered back."""
    y = np.asarray(y, dtype=float)
    m1, m2 = costs.m1, costs.m2
    if y.shape[-2:] != (m1, m2):
        raise DataError(f"value shape {y.shape[-2:]} does not match mode grid {(m1, m2)}")
    base = y.reshape(-1, m1, m2)
    span = float(base.max()) - float(base.min()) if base.size else 0.0
    if not math.isfinite(span):
        bad = np.argwhere(~np.isfinite(base))
        if len(bad):
            n, i, j = bad[0]
            raise DataError(f"value {float(base[n, i, j])!r} at matrix {n}, mode pair "
                            f"({i + 1},{j + 1}) cannot be projected; values must be finite")
        raise DataError(f"values span {span!r}, past the float range; cannot project")
    inside = ((base < nodemajor_barrier(base, costs, "upper"))
              & (base > nodemajor_barrier(base, costs, "lower")))
    moving = np.flatnonzero(~inside.all(axis=(1, 2)))
    out = base.copy()
    if moving.size:
        orig = base[moving].transpose(1, 2, 0).copy()
        out[moving] = tolerance_sweep(orig, costs, _sweep_cap(base, costs),
                                      1e-12).transpose(2, 0, 1)
    net = base - out
    dK = np.maximum(net, 0.0)
    dL = np.maximum(np.negative(net, out=net), 0.0, out=net)
    return out.reshape(y.shape), dK.reshape(y.shape), dL.reshape(y.shape)


def nodemajor_conditioning(tree, t, values):
    """(E, z) of level-(t+1) `values` as the shared `_Tree` conditioning
    summed them on node-first (rows, entries) blocks."""
    v = np.asarray(values, dtype=float)
    B, d, n = tree.branching, tree.d, tree.level_size(t)
    rows = v.reshape(len(v), -1)
    if tree.recombining:
        grid = rows.reshape((t + 2,) * d + rows.shape[1:])
        blocks = [grid[tuple(slice(1, t + 2) if (c >> p) & 1 else slice(0, t + 1)
                             for p in range(d))] for c in range(B)]
    else:
        grouped = rows.reshape(n, B, rows.shape[1])
        blocks = [grouped[:, c] for c in range(B)]
    E = np.zeros(blocks[0].shape)
    for block in blocks:
        E += block
    E /= B
    z = np.zeros(blocks[0].shape[:-1] + (d,) + blocks[0].shape[-1:])
    for block, weights in zip(blocks, tree.signs * math.sqrt(tree.dt) / (B * tree.dt)):
        z += block[..., None, :] * weights[:, None]
    return E.reshape((n,) + v.shape[1:]), z.reshape((n, d) + v.shape[1:])


def nodemajor_lower_intensity(y, l, n):
    """`penalty.lower_penalty_intensity` as it summed a node-major (..., m1, m2)
    field: slice by slice in j' order below eight Player-II modes, by
    NumPy's pairwise sum over the contiguous last axis from eight."""
    if y.shape[-1] >= 8:
        return n * np.stack([np.maximum(y - y[..., j, None] - l[j], 0.0).sum(axis=-1)
                             for j in range(l.shape[0])], axis=-1)
    beta, started = np.zeros(y.shape), set()
    for j, b in itertools.combinations(range(l.shape[0]), 2):
        d = np.subtract(y[..., b], y[..., j])
        for col, term in ((j, np.subtract(d, l[j, b])), (b, np.subtract(-l[b, j], d, out=d))):
            if col in started:
                beta[..., col] += np.maximum(term, 0.0, out=term)
            else:
                np.maximum(term, 0.0, out=beta[..., col])
                started.add(col)
    beta *= n
    return beta


def nodemajor_upper_intensity(y, k, m):
    """`penalty.upper_penalty_intensity` on a node-major (..., m1, m2) field."""
    return m * np.maximum(y[..., :, None, :] - y[..., None, :, :] - k[:, :, None], 0.0).sum(-2)


def nodemajor_resolve_modes(A, B, m1, m2, k, l):
    """`game._resolve_modes` as it walked node-major flat positions
    ``node * m1 * m2 + pair``: the settled (i, j) tables and both costs."""
    cap = 4 * m1 * m2
    _, i0, j0 = np.indices(A.shape)
    costA, costB = np.zeros(A.shape), np.zeros(A.shape)
    reads = ((np.ravel((A - i0) * m2), np.ravel(np.where(A == i0, 0.0, k[i0, A])), costA),
             (np.ravel(B - j0), np.ravel(np.where(B == j0, 0.0, l[j0, B])), costB))
    pos, switches = np.arange(A.size).reshape(A.shape), np.zeros(A.shape, dtype=int)
    moved = True
    while moved:
        moved = False
        for jump, charge, cost in reads:
            open_ = switches < cap
            step = jump[pos] * open_
            cost += charge[pos] * open_
            switches += step != 0
            pos += step
            moved = moved or step.any()
    pair = pos % (m1 * m2)
    return pair // m2, pair % m2, costA, costB


def tensor_lower_intensity(y, l, n):
    """n * sum_j' (y[i,j] - y[i,j'] + l(j,j'))^- reduced with `.sum(-1)` from
    the whole (..., m1, m2, m2) tensor of terms, as the penalty driver did
    before it summed slice by slice."""
    diff = y[..., :, :, None] - y[..., :, None, :] + np.asarray(l)[None, None, :, :]
    return n * np.maximum(-diff, 0.0).sum(axis=-1)


def fieldwise_generator(gen):
    """`GeneratorSpec.__call__` as it evaluated a whole field on every call,
    z clipped and its einsum run again each time, as a driver."""
    def fn(t, w, y, z):
        if gen.family == "zero":
            return np.zeros_like(np.asarray(y, dtype=float))
        if gen.family == "mode_constant":
            return np.broadcast_to(gen.c, np.shape(y)).copy()
        sat = np.clip(y, -gen.M, gen.M)
        zsat = np.clip(z, -gen.M, gen.M)
        return gen.a * sat + gen.c + np.einsum("p,...pij->...ij", gen.b, zsat)
    return DriverFn(fn, gen.lipschitz)


def iterate_picard_solve(E, update, picard_tol=1e-12, max_iter=10000, problems=None):
    """The Picard loop as it called the driver on every iterate: unstacked, or
    with problems stacked on axis 1 (``update(live)`` gives their update).
    An oracle for `bsde.picard_solve`, whose messages must stay these."""
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
        a = np.abs(y_new - y)
        delta = a.max(axis=0).reshape(a.shape[1], -1).max(axis=1).tolist()
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


def iterate_backward(tree, terminal, driver, post, picard_tol=1e-12, problems=None):
    """`bsde.backward` as it called ``driver(time, w, y, z)`` on every Picard
    iterate, with stacked problems on axis 1 of every field and z (n_t, S, d,
    m1, m2); ``driver(live)`` gives the driver function of the problems
    `live`.  An oracle for the level form and the problem-first layout."""
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
            z = np.moveaxis(z, 1, 2)

            def update(live):
                zl, fn = z[:, live], driver(live)
                return lambda y: dt * np.asarray(fn(time, w, y, zl), dtype=float)
        try:
            y, _ = iterate_picard_solve(E, update, picard_tol=picard_tol, problems=problems)
            kept[t] = post(t, y, z)
        except ConvergenceError as exc:
            raise ConvergenceError(f"tree level {t}: {exc}") from exc
        values = kept[t][0] if kept[t] else y
        del y
    kept = list(map(list, zip(*kept)))
    return (kept[0] + [terminal], *kept[1:]) if kept else ()


def feedback_strategies(tree, player, m1, m2):
    """Every feedback strategy of one player: each combination of the levels'
    `feedback_tables`, in the order of `itertools.product` over them."""
    for acts in itertools.product(*feedback_tables(tree, player, m1, m2)):
        yield FeedbackStrategy(player, list(acts))


def per_strategy_brute_force(spec, tree):
    """`game.brute_force_value` as it ran one lower-reflected backward pass per
    Player-I strategy, keeping the running minimum of the roots: each
    j-independent table of `feedback_strategies`, gathered at
    (node, table mode, j) plus the switch cost and pushed up to the lower
    barrier, solved by the per-iterate kernel `iterate_backward`."""
    costs, gen = spec.costs, fieldwise_generator(spec.generator)
    xi = spec.check_terminal(tree)
    i_grid, j_grid = np.arange(spec.m1)[:, None], np.arange(spec.m2)[None, None, :]
    best = None
    for a in feedback_strategies(tree, "I", spec.m1, 1):
        def lower(t, W, z, acts=a.actions):
            ia = acts[t]        # (n_t, m1, 1), the same mode for every j
            y = W[np.arange(len(W))[:, None, None], ia, j_grid] + costs.k[i_grid, ia]
            return (np.maximum(y, nodemajor_barrier(y, costs, "lower")),)
        root = iterate_backward(tree, xi, gen, lower)[0][0][0]
        best = root.copy() if best is None else np.minimum(best, root)
    return best


def sequential_penalized(spec, tree, n, counts=None):
    """(Y, dK) of the level-n penalized system solved on its own, with the
    tensor driver and the upper clamp, by the per-iterate kernel
    `iterate_backward`.  With `counts`, each driver call adds one to
    ``counts[(level size, n)]``: the Picard iterations per tree level."""
    gen, l = fieldwise_generator(spec.generator), spec.costs.l

    def driver(t, w, y, z):
        if counts is not None:
            counts[(y.shape[0], n)] = counts.get((y.shape[0], n), 0) + 1
        return np.asarray(gen(t, w, y, z), dtype=float) + tensor_lower_intensity(y, l, n)

    def post(t, y, z):
        out = np.minimum(y, nodemajor_barrier(y, spec.costs, "upper"))
        return out, y - out

    lip = gen.lipschitz + penalty_rate(n, spec.m2)
    return iterate_backward(tree, spec.check_terminal(tree), DriverFn(driver, lip), post)


def sequential_report(spec, tree, n_list, direct=None):
    """The rows of `penalization_report` as they were computed one level at a
    time from full solutions of `sequential_penalized`."""
    rows, prev = [], None
    l, bound = spec.costs.l, 2.0 * spec.generator.sup_bound
    for n in sorted(n_list):
        Y, _ = sequential_penalized(spec, tree, n)
        diff = [y[..., :, :, None] - y[..., :, None, :] + l[None, None] for y in Y]
        stat = max(float((n * np.maximum(-d, 0.0)).max()) for d in diff)
        worst = 0.0 if prev is None else max(float((y - p).max()) for y, p in zip(Y, prev))
        gap = None if direct is None else max(float(np.abs(y - yd).max())
                                              for y, yd in zip(Y, direct.Y))
        rows.append(ConvergenceRow(n=n, root=Y[0][0].copy(), monotone_ok=worst <= 1e-10,
                                   monotone_worst=worst, penalty_stat=stat,
                                   penalty_bound=bound, gap=gap))
        prev = Y
    return rows


def levelwise_export_rows(sol):
    """The rows of `reflected.export_rows` as it streamed them level by level:
    lazy ``repr(float(x))`` text over whole level arrays, zipped with the
    (node, i, j) keys, and endless blank columns."""
    def text(a):
        return map(repr, map(float, a.flat))

    tree = sol.tree
    blank = itertools.repeat("")
    for t in range(tree.N + 1):
        y = sol.Y[t]
        n_t, m1, m2 = y.shape
        w = tree.level_w(t)
        cols = [text(np.broadcast_to(w[:, p, None, None], y.shape)) for p in range(tree.d)]
        cols.append(text(y))
        if t < tree.N:
            cols += [text(sol.Z[t][:, p]) for p in range(tree.d)]
            cols += [text(sol.dK[t]), text(sol.dL[t])]
        else:
            cols += [blank] * (tree.d + 2)
        cols += [blank] * 2 if sol.K is None else [text(sol.K[t]), text(sol.L[t])]
        keys = itertools.product(range(n_t), range(1, m1 + 1), range(1, m2 + 1))
        for key, *cells in zip(keys, *cols):
            yield [t, *key, *cells]


def repr_text(a):
    """``repr`` of every entry of `a` as a float, in C order, one call per
    entry: an oracle for the export's text once per distinct value."""
    return list(map(repr, np.asarray(a, dtype=float).ravel().tolist()))


def csv_writer_fields(sol, path) -> bytes:
    """The bytes of `fields.csv` as csv.writer wrote them from
    `levelwise_export_rows`, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(export_header(sol.tree.d))
        writer.writerows(levelwise_export_rows(sol))
    return path.read_bytes()


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


def random_costs(rng: np.random.Generator, m1: int, m2: int) -> CostTables:
    """Random cost tables passing both validators."""
    while True:
        k = rng.uniform(0.5, 2.0, (m1, m1))
        l = rng.uniform(0.3, 1.5, (m2, m2))
        np.fill_diagonal(k, 0.0)
        np.fill_diagonal(l, 0.0)
        costs = CostTables(k=k, l=l)
        if validate_cost_matrices(costs).ok and check_loop_costs(costs).ok:
            return costs


def random_admissible_spec(rng: np.random.Generator, m1: int, m2: int, tree) -> GameSpec:
    """A random valid instance on `tree`: random costs passing both validators
    and a random leaf-table terminal projected into the constraint region."""
    costs = random_costs(rng, m1, m2)
    raw = rng.uniform(-2.0, 2.0, (tree.level_size(tree.N), m1, m2))
    table = np.stack([project_oblique(raw[p], costs)[0] for p in range(raw.shape[0])])
    gen = GeneratorSpec("mode_constant", m1, m2, d=tree.d, c=rng.uniform(-2.0, 2.0, (m1, m2)))
    term = TerminalSpec("leaf_table", m1, m2, table=table)
    return GameSpec(costs=costs, generator=gen, terminal=term, horizon=tree.T, d=tree.d)


def mirror(spec: GameSpec) -> GameSpec:
    """The player-swapped game: k and l trade places, c, alpha, beta and a
    leaf table go to their negated transposes, and a, b and M stay, since
    sat_M is odd.  Its reflected solution is the negated transpose."""
    def flip(x):
        return -np.swapaxes(x, -1, -2)

    gen, term = spec.generator, spec.terminal
    m1, m2 = spec.m2, spec.m1
    names = {"constant": ("alpha",), "affine": ("alpha", "beta"),
             "leaf_table": ("table",)}[term.family]
    return GameSpec(
        costs=CostTables(k=spec.costs.l, l=spec.costs.k),
        generator=GeneratorSpec(gen.family, m1, m2, d=gen.d, c=flip(gen.c), a=gen.a, b=gen.b,
                                M=gen.M),
        terminal=TerminalSpec(term.family, m1, m2,
                              **{name: flip(getattr(term, name)) for name in names}),
        horizon=spec.horizon, d=spec.d)


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
