"""Two solvers for the Cauchy problem of the continuity equation
d_t rho + div(u rho) = f on the periodic torus, with a source f that is None
or one constant-in-time value per cell.

* ``lagrangian_solve`` solves problems without a source.  It pushes
  cell-center particles along characteristics (closed-form flow when the
  family has one, adaptive ODE integration otherwise) and deposits the
  transported cell masses conservatively: in 1-d each moved cell becomes the
  interval between the midpoints of neighboring trajectories and its mass is
  split among grid cells by overlap length; in 2-d the moved cell keeps its
  h x h footprint and is split by overlap area (the cloud-in-cell rule).
  Both deposits scatter all shares with one ``np.bincount`` in a fixed piece
  order, so each cell's sum is, bit for bit, that of an ``np.add.at`` loop
  over the pieces.  The 2-d deposit leaves out the upper corner of an axis
  along which every particle sits on a cell center (both axes at t = 0, the
  shear's y axis at every t): its shares are exactly +-0.0, which change no
  sum.

* ``eulerian_solve`` is the first-order upwind finite-volume scheme in flux
  form, so the discrete mass balance telescopes exactly on the torus, and it
  adds the source, if there is one, at every step.  Where one axis moves
  (every field an experiment advects), each grid line along it is an
  independent 1-d problem: the lines are stepped in slabs that fit in one
  core's cache, each slab through every step of the horizon, in place in
  contiguous buffers that start on cache lines.  The calling thread and one
  helper thread per further CPU share the slabs out, bit for bit; the caller
  allocates every buffer and makes every ``source_at`` call.  A field that
  moves both axes is one slab, the whole grid.  Where exactly one axis moves
  and h is a power of two, ``/ h`` and ``* dt`` fold into one exact multiply
  by ``dt / h``.  An axis whose face velocities are all zero adds no flux.

Both solvers emit snapshots at a shared uniform time grid, which is what the
stability harness diffs.  Fields with discontinuous characteristics
(``advectable = False``, e.g. the +-1 step) are refused rather than given an
ad-hoc Filippov convention.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dop853 import dop853
from .fields import VelocityField
from .measures import Grid, SignedDensity, lq_norm


def _require_finite(name: str, values: np.ndarray) -> None:
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise ValueError(f"{name} has NaN or inf in {bad} of {values.size} cells; every cell "
                         "must hold a finite number")


@dataclass
class CauchyData:
    """Velocity, source and initial datum for the continuity equation on
    [0, horizon].

    ``source`` is None or one constant-in-time value per cell of the initial
    datum's grid, stored as a float array; only ``eulerian_solve`` integrates
    a source.  The horizon is finite and positive, and every cell of the
    datum and of the source holds a finite number.
    """

    velocity: VelocityField
    source: np.ndarray | None
    initial: SignedDensity
    horizon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        _require_finite("initial datum", self.initial.values)
        if self.source is None:
            return
        shape = self.initial.grid.shape
        if callable(self.source):
            raise ValueError("a source is constant in time: pass its value per cell, an "
                             f"array of shape {shape}, not a callable")
        source = np.asarray(self.source, dtype=float)
        if source.shape != shape:
            raise ValueError(f"a source has one value per cell: expected shape {shape}, "
                             f"got {source.shape}")
        _require_finite("source", source)
        self.source = source

    def source_at(self, t: float, grid: Grid) -> np.ndarray | None:
        """The source at time t, the same at every t.  ``eulerian_solve`` asks
        for it once per step, which is how the benchmark tracer counts steps."""
        return self.source


@dataclass
class SolutionTrajectory:
    grid: Grid
    times: np.ndarray
    frames: np.ndarray  # (n_times, *grid.shape)
    meta: dict = field(default_factory=dict)

    def frame(self, k: int) -> SignedDensity:
        return SignedDensity(self.grid, self.frames[k])

    @property
    def n_frames(self) -> int:
        return len(self.times)


def _check_advectable(u: VelocityField) -> None:
    if not u.advectable:
        raise ValueError(
            f"field {u.name!r} has a discontinuous characteristic ODE and is "
            "refused as an advecting field")


def _store_times(horizon: float, n_frames: int) -> np.ndarray:
    if not 2 <= n_frames <= 65:
        raise ValueError(f"n_frames must be in [2, 65], got {n_frames}")
    return np.linspace(0.0, horizon, int(n_frames))


# ---------------------------------------------------------------------------
# Lagrangian solver

def _wrap(x: np.ndarray, L: float) -> np.ndarray:
    """``np.mod(x, L)`` bit for bit, taken only off the open interval (0, L),
    where it is x itself; it maps -0.0 and 0.0 to +0.0."""
    return np.mod(x, L, out=x.copy(), where=~((x > 0) & (x < L)))


def _deposit_intervals_1d(left: np.ndarray, right: np.ndarray, masses: np.ndarray,
                          grid: Grid) -> np.ndarray:
    """Split interval masses among grid cells by overlap length (exact).

    The pieces are scattered with one ``bincount`` over their concatenation,
    piece k = 0..span in turn, so each cell adds its shares in that order; a
    ``bincount`` per piece would reassociate the sums.  n is a power of two
    (``Grid`` checks it), so ``& (n - 1)`` wraps a cell index as ``% n``
    does, negative ones included.
    """
    n, h, L = grid.n, grid.h, grid.length
    a = _wrap(left, L)
    width = np.maximum(right - left, 1e-300)
    b = a + width
    ia = np.floor(a / h).astype(np.int64)
    ib = np.floor((b - 1e-300) / h).astype(np.int64)
    span = int((ib - ia).max(initial=0))
    cells, weights = [], []
    for k in range(span + 1):
        cell = ia + k
        lo = np.maximum(a, cell * h)
        hi = np.minimum(b, (cell + 1) * h)
        w = np.clip(hi - lo, 0.0, None)
        cells.append(cell & (n - 1))
        weights.append(masses * (w / width))
    return np.bincount(np.concatenate(cells), np.concatenate(weights), minlength=n) / h


def _deposit_cic_2d(pos: np.ndarray, masses: np.ndarray, grid: Grid) -> np.ndarray:
    """Overlap-area split of an h x h cell footprint (bilinear weights).

    The corners' shares are scattered with one ``bincount`` over their
    concatenation, corners (dx, dy) in the order (0, 0), (0, 1), (1, 0),
    (1, 1), so each cell adds its shares in that order; a ``bincount`` per
    corner would reassociate the sums.  Row and column indices wrap with
    ``& (n - 1)``, which is ``% n`` for the power of two n.

    Only the corners that can carry mass are scattered: on an axis where
    every particle's fractional offset is exactly 0 (particles on cell
    centers along it), the upper corner's shares are mass * 0 = +-0.0 for
    finite masses (``CauchyData`` refuses others).  A ``bincount`` sum starts
    at +0.0 and is never -0.0, so adding +-0.0 to it changes no bit, and the
    kept corners keep their order.
    """
    n, h, L = grid.n, grid.h, grid.length
    frac = _wrap(pos, L) / h - 0.5
    base = np.floor(frac).astype(np.int64)
    frac -= base
    dxs, dys = ((0, 1) if frac[:, axis].any() else (0,) for axis in (0, 1))
    cols = [(base[:, 1] + dy) & (n - 1) for dy in dys]
    wy = [frac[:, 1] if dy else 1.0 - frac[:, 1] for dy in dys]
    m = len(masses)
    cells = np.empty(len(dxs) * len(dys) * m, dtype=np.int64)
    weights = np.empty(len(cells))
    part = 0
    for dx in dxs:
        row = ((base[:, 0] + dx) & (n - 1)) * n
        mx = masses * (frac[:, 0] if dx else 1.0 - frac[:, 0])
        for col, w in zip(cols, wy):
            np.add(row, col, out=cells[part:part + m])
            np.multiply(mx, w, out=weights[part:part + m])
            part += m
    out = np.bincount(cells, weights, minlength=n * n)
    return out.reshape(n, n) / grid.cell_volume


def _integrate_characteristics(u: VelocityField, x0: np.ndarray, times: np.ndarray,
                               rtol: float, atol: float,
                               use_exact_flow: bool = True) -> tuple[np.ndarray, int]:
    """Positions at the requested times, shape (n_times, *x0.shape), and the
    number of right-hand-side evaluations DOP853 made (0 for an exact flow).
    DOP853 is krlab's own (``dop853``), bit for bit scipy's ``solve_ivp``
    with ``method="DOP853"`` and ``t_eval=times``."""
    first = u.exact_flow(times[0], x0) if use_exact_flow else None
    if first is not None:
        first = np.asarray(first)
        out = np.empty((len(times),) + first.shape)
        out[0] = first
        for k in range(1, len(times)):
            out[k] = u.exact_flow(times[k], x0)
        return out, 0
    shape = x0.shape

    def rhs(t, y):
        return np.asarray(u(t, y.reshape(shape))).ravel()

    positions, nfev = dop853(rhs, x0.ravel(), times, rtol, atol)
    return positions.reshape((len(times),) + shape), nfev


def lagrangian_solve(data: CauchyData, grid: Grid, n_frames: int = 33,
                     ode_rtol: float = 1e-10, ode_atol: float = 1e-12,
                     use_exact_flow: bool = True) -> SolutionTrajectory:
    """Characteristics solver implementing the push-forward formula, for a
    problem without a source.  ``meta`` records ``nfev``, the right-hand-side
    evaluations of the DOP853 integration, or 0 where the field's exact flow
    was used.

    The positions at every stored time are found first, stacked in one
    (n_times, ...) array, and each frame is then deposited into one
    (n_times, *grid.shape) array; both are allocated once.  Depositing each
    frame as soon as its positions were found was slower, 36 against 27 ms
    for the 256^2 shear in a fresh process (2-CPU x86-64 host): the freed
    arrays were paged in again."""
    u = data.velocity
    _check_advectable(u)
    if data.source is not None:
        raise ValueError("lagrangian_solve transports the initial datum only; solve a "
                         "problem with a source with eulerian_solve")
    store = _store_times(data.horizon, n_frames)
    traj, nfev = _integrate_characteristics(u, grid.centers(), store, ode_rtol, ode_atol,
                                            use_exact_flow)

    masses = data.initial.values * grid.cell_volume
    frames = np.empty((len(store),) + grid.shape)
    for frame, pos in zip(frames, traj):
        if grid.dim == 1:
            nxt = np.roll(pos, -1)
            nxt[-1] += grid.length
            prv = np.roll(pos, 1)
            prv[0] -= grid.length
            left = 0.5 * (prv + pos)
            right = 0.5 * (pos + nxt)
            frame[...] = _deposit_intervals_1d(left, right, masses, grid)
        else:
            frame[...] = _deposit_cic_2d(pos.reshape(-1, 2), masses.ravel(), grid)
    return SolutionTrajectory(grid, store, frames,
                              meta={"ode_rtol": ode_rtol, "field": u.name, "nfev": nfev})


# ---------------------------------------------------------------------------
# Eulerian solver

# cells per slab of the upwind sweep.  A slab's density, face velocities,
# flux and difference buffers are 256 KiB each at this size, so all steps of
# the horizon pass over a working set that stays in the 2 MiB L2 cache of
# the core that steps it, instead of streaming each full-grid array through
# it once per step; each worker thread keeps its own slab in its own core's
# L2.  The 512^2 shear solve was fastest at 2^15 cells, 4% slower at 2^14,
# 22% at 2^16 and 25% at 2^13 (one thread, 2-CPU x86-64 host).  Smaller
# slabs spend more of each step holding the GIL, so on two threads 2^13 and
# 2^14 took 187 and 118 ms, against 118 and 91 ms on one, where 2^15 took
# 59 ms against 82.  The face velocities are evaluated in blocks of rows of
# this size too
BLOCK_CELLS = 1 << 15

# the CPUs this process may run on: the most worker threads, the calling
# one included, that step the slabs of one solve
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)


def _face_velocities(u: VelocityField, grid: Grid):
    """Velocity normal to each cell's lower face; fields are autonomous.  The
    2-d field is evaluated at one block of rows of faces, at most
    ``BLOCK_CELLS`` cells, at a time, and only the component normal to the
    faces (``VelocityField.component``) is written straight into its
    contiguous (n, n) array, so no full-grid points or (n, n, 2) field output
    is built."""
    n, h = grid.n, grid.h
    edges = np.arange(n) * h
    if grid.dim == 1:
        return (np.asarray(u(0.0, edges)),)
    c = grid.axis_centers()
    ux, uy = np.empty((n, n)), np.empty((n, n))
    for rows, p in _row_blocks(n):
        # x-faces at (edges[i], c[j]), y-faces at (c[i], edges[j])
        ux[rows] = u.component(0.0, _points(p, edges[rows], c), 0)
        uy[rows] = u.component(0.0, _points(p, c[rows], edges), 1)
    return ux, uy


def _row_blocks(n: int):
    """The blocks of whole rows of an n x n grid, at most ``BLOCK_CELLS``
    cells each: per block its rows, a slice, and the leading part of one
    (rows, n, 2) points buffer that every block reuses."""
    rows = min(max(1, BLOCK_CELLS // n), n)
    pts = np.empty((rows, n, 2))
    for i0 in range(0, n, rows):
        block = slice(i0, min(i0 + rows, n))
        yield block, pts[:block.stop - i0]


def _points(p: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The block buffer ``p`` filled with the points (x[i], y[j])."""
    p[..., 0] = x[:, None]
    p[..., 1] = y
    return p


def _lined(shape) -> np.ndarray:
    """An empty float array whose data starts on a 64-byte cache line, which
    numpy's own (16-byte aligned) need not: a slab's rows then start on one
    too, and its ufuncs load no vector that straddles two lines.  A step of
    a (512, 64) slab took 1.2 ns per cell, against 2.2 ns at numpy's
    alignment (x86-64 host with AVX-512)."""
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


def _flux_ops(uf, own, rho, cells, below, out) -> list:
    """The calls that set ``out = uf[cells] * rho[below]``, the lower
    neighbor's value, and then ``uf[cells] * rho[cells]`` by one multiply
    masked to the cells where ``own`` (u <= 0) is set, bound to views of
    ``rho`` that stay valid as it is updated.  Face 0's one line of cells
    broadcasts to the two ends of ``out`` it is written to."""
    ops = [partial(np.multiply, uf[cells], rho[below], out)]
    if own is None:
        return ops
    return ops + [partial(np.multiply, uf[cells], rho[cells], out, where=own[cells])]


def eulerian_solve(data: CauchyData, grid: Grid, cfl: float = 0.5,
                   n_frames: int = 33) -> SolutionTrajectory:
    """First-order upwind finite-volume scheme in conservative flux form.

    The floating-point operations and their order are those of
    ``rho - dt * sum_axis (roll(F, -1) - F) / h`` with the upwind flux
    ``F = where(u > 0, u * roll(rho, 1), u * rho)``, the x term before the y
    term, then ``+ dt * f`` for a source ``f``.  An axis whose face velocities
    are all zero adds no flux: its term would be exactly +-0.

    The dt of every step is found once per solve, with one
    ``data.source_at`` call per step.  Where at most one axis moves, every
    grid line along it is an independent 1-d problem.  The lines are split
    into slabs of at most ``BLOCK_CELLS`` cells.  Each slab is copied into
    contiguous buffers that start on cache lines (``_lined``), with the
    moving axis first, shape (n, lines): a cell's neighbor along that axis is
    one whole row away, and every row starts on a cache line too.  The slab
    is stepped in place through every step of the horizon while it stays in
    cache, and written into each stored frame.  Where both axes move, the
    whole grid is one slab.  The flux buffer of each moving slab axis holds
    the n + 1 faces 0..n along it, and the flux of face 0, from the old
    cells n - 1 and 0, is written to both ends: face n is face 0 on the
    torus, so one subtract differences every cell, on either axis.  The
    slabs change only where values are stored: each cell gets the same ufunc
    calls on the same operands.  With exactly one moving axis and h a power
    of two, ``/ h`` and ``* dt`` are one multiply by ``dt / h``: dividing by
    a power of two only rescales (short of overflow or the subnormal range),
    so both forms round the same real number once.  With two moving axes, or
    any other h, the step divides and then multiplies, as folding would
    change the rounding.

    The slabs are independent, so they are stepped on every CPU the process
    may use: with w = min(``CPUS``, slabs) workers, the calling thread steps
    slabs 0, w, 2w, ... and helper thread k steps slabs k, k + w, ...; a solve
    of one slab starts no thread.  Each worker keeps the slab it steps in its
    own core's L2 cache, and writes only that slab's lines of the frames.
    The calling thread allocates every worker's buffers, once per solve and
    sized for the widest slab, before any helper starts: a narrower slab
    takes the leading part of each flat buffer.  A thread that allocated its
    own would get a fresh glibc malloc arena, which raised the pde benchmark
    workload's peak RSS by 1.8 MiB in a prototype.  The helpers hold the GIL
    only to bind and dispatch ufunc calls, and every per-step call passes
    ``out`` positionally, which numpy dispatches faster than a keyword (1.17
    against 1.37 us a bound multiply of a small array), so each thread holds
    the GIL for less of each step.  The schedule, and with it every
    ``source_at`` call, is built in the calling thread before any helper
    starts.  An error in a helper is raised in the calling thread after
    every helper has been joined; no thread outlives the call.

    ``meta`` records the number of ``steps``, ``dt_max`` and the discrete
    ``mass_defect``: the mass change less the mass the source added.
    """
    u = data.velocity
    _check_advectable(u)
    if not 0.0 < cfl < 1.0:
        raise ValueError("cfl must be in (0, 1)")
    store = _store_times(data.horizon, n_frames)
    n, h = grid.n, grid.h
    faces = _face_velocities(u, grid)
    if not all(np.isfinite(f).all() for f in faces):
        raise ValueError("velocity field produced non-finite face values")
    speed = sum(np.abs(f).max() for f in faces)
    dt_max = cfl * h / speed if speed > 0 else data.horizon
    # the face velocities of each moving axis; the grid of an axis that does
    # not move (the shear's y faces, all zero) is freed here, not after the solve
    moving = {axis: uf for axis, uf in enumerate(faces) if np.any(uf)}
    del faces
    fold = len(moving) == 1 and math.frexp(h)[0] == 0.5
    # per stored frame, its steps: the multiplier of the flux difference
    # (dt / h when folded, else dt), dt and the source
    schedule = []
    t = 0.0
    for target in store[1:]:
        schedule.append([])
        while t < target - 1e-14:
            dt = float(min(dt_max, target - t))
            schedule[-1].append((dt / h if fold else dt, dt, data.source_at(t, grid)))
            t += dt
    # a grid array as its lines along the one moving axis, shape (n, lines);
    # where both axes move, the grid itself, stepped as one slab
    def lines(a):
        return a.T if list(moving) == [1] else a.reshape(n, -1)

    frames = np.empty((len(store),) + grid.shape)
    frames[0] = data.initial.values
    width = lines(frames[0]).shape[1]
    slab = width if len(moving) > 1 else max(1, BLOCK_CELLS // n)
    starts = range(0, width, slab)
    workers = min(CPUS, len(starts))

    def buffers():
        """One worker's flat buffers for its widest slab: rho and d, and per
        moving axis its face velocities, their u <= 0 mask, the difference
        (d itself on the first axis) and the n + 1 faces."""
        size = n * min(slab, width)
        return _lined((size,)), _lined((size,)), [
            (_lined((size,)), np.empty(size, dtype=bool), _lined((size,)) if s else None,
             _lined((size + size // n,))) for s in range(len(moving))]

    def fit(buf, shape):  # a slab's array: the leading part of a flat buffer
        return buf[:math.prod(shape)].reshape(shape)

    bufs = [buffers() for _ in range(workers)]  # in this thread, before any helper starts

    def step(k):
        """Step the slabs k, k + workers, ... in worker k's buffers."""
        rho_buf, d_buf, axis_bufs = bufs[k]
        for j0 in starts[k::workers]:
            cols = slice(j0, min(j0 + slab, width))
            shape = (n, cols.stop - j0)
            rho, d = fit(rho_buf, shape), fit(d_buf, shape)
            rho[...] = lines(frames[0])[:, cols]
            # each step's calls that depend on neither dt nor the source,
            # bound once per slab: per moving slab axis its fluxes (face 0
            # first, written to both ends of the axis), their difference and
            # the sum of the two axes' terms
            ops = []
            for s, (whole, (uf, own, out, flux)) in enumerate(zip(moving.values(), axis_bufs)):
                uf, own = fit(uf, shape), fit(own, shape)
                uf[...] = lines(whole)[:, cols]
                np.less_equal(uf, 0, own)
                own = own if own.any() else None
                out = d if s == 0 else fit(out, shape)
                flux = fit(flux, shape[:s] + (n + 1,) + shape[s + 1:])

                def at(sl):  # the index of sl along slab axis s
                    return (slice(None),) * s + (sl,)
                ops += _flux_ops(uf, own, rho, at(np.s_[:1]), at(np.s_[n - 1:]),
                                 flux[at(np.s_[::n])])
                ops += _flux_ops(uf, own, rho, at(np.s_[1:]), at(np.s_[:-1]), flux[at(np.s_[1:n])])
                ops.append(partial(np.subtract, flux[at(np.s_[1:])], flux[at(np.s_[:-1])], out))
                if not fold:
                    ops.append(partial(np.divide, out, h, out))
                if s > 0:
                    ops.append(partial(np.add, d, out, d))
            for frame, steps in zip(frames[1:], schedule):
                for scale, dt, f in steps:
                    for op in ops:
                        op()
                    if moving:
                        np.multiply(d, scale, d)
                        np.subtract(rho, d, rho)
                    if f is not None:
                        np.multiply(lines(f)[:, cols], dt, d)
                        np.add(rho, d, rho)
                lines(frame)[:, cols] = rho

    # the caller steps its share of the slabs while each helper steps its
    # own; a helper's error is raised here
    errors = []

    def helper(k):
        try:
            step(k)
        except BaseException as exc:
            errors.append(exc)

    helpers = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=helper, args=(k,))
            thread.start()
            helpers.append(thread)
        step(0)
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]

    # exact discrete mass balance bookkeeping
    total_source = 0.0
    if data.source is not None:
        total_source = float(np.sum(data.source) * grid.cell_volume * store[-1])
    mass_defect = float(frames[-1].sum() - frames[0].sum()) * grid.cell_volume - total_source
    return SolutionTrajectory(grid, store, frames,
                              meta={"cfl": cfl, "field": u.name,
                                    "steps": sum(len(steps) for steps in schedule),
                                    "dt_max": float(dt_max), "mass_defect": mass_defect})


# ---------------------------------------------------------------------------
# a-priori L^q bound

@dataclass
class AprioriReport:
    q: float
    lhs: float
    rhs: float
    slack: float      # lhs/rhs - 1; negative means the bound holds with margin
    div_l1_linf: float


def apriori_lq_check(traj: SolutionTrajectory, data: CauchyData, qs) -> list[AprioriReport]:
    """Both sides of the growth bound
    ||rho||_{L^inf(L^q)} <= exp^{1-1/q}(||div u||_{L^1(L^inf)}) (||rho0||_q + ||f||_{L^1(L^q)})
    for each exponent q of ``qs``, one report per q; the field's divergence
    is evaluated once, on the 2-d grid one block of rows of cell centers at
    a time (``_row_blocks``), so no full-grid points are built beside the
    frames.  A max is exact, so the blocks change no bit."""
    grid = traj.grid
    c = grid.axis_centers()
    points = [c] if grid.dim == 1 else (_points(p, c[rows], c) for rows, p in _row_blocks(grid.n))
    div_sup = float(np.max([np.abs(np.asarray(data.velocity.divergence(0.0, pts))).max()
                            for pts in points]))
    div_l1 = div_sup * data.horizon
    reports = []
    for q in qs:
        lhs = max(lq_norm(traj.frame(k), q) for k in range(traj.n_frames))
        fnorm = 0.0
        if data.source is not None:
            fnorm = lq_norm(SignedDensity(grid, data.source), q) * data.horizon
        rho0 = lq_norm(SignedDensity(grid, traj.frames[0]), q)
        rhs = np.exp((1.0 - 1.0 / q) * div_l1) * (rho0 + fnorm)
        slack = lhs / rhs - 1.0 if rhs > 0 else (0.0 if lhs == 0 else np.inf)
        reports.append(AprioriReport(q, lhs, float(rhs), float(slack), div_l1))
    return reports
