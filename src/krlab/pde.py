"""Two solvers for the Cauchy problem of the continuity equation
d_t rho + div(u rho) = f on the periodic torus.

* ``lagrangian_solve`` pushes cell-center particles along characteristics
  (closed-form flow when the family has one, adaptive ODE integration
  otherwise), accumulates the source along trajectories, and deposits the
  transported cell masses conservatively: in 1-d each moved cell becomes the
  interval between the midpoints of neighboring trajectories and its mass is
  split among grid cells by overlap length; in 2-d the moved cell keeps its
  h x h footprint and is split by overlap area (the cloud-in-cell rule).

* ``eulerian_solve`` is the first-order upwind finite-volume scheme in flux
  form, so the discrete mass balance telescopes exactly on the torus.  It
  updates the density in place through buffers allocated once per solve, and
  an axis whose face velocities are all zero adds no flux.

Both solvers emit snapshots at a shared uniform time grid, which is what the
stability harness diffs.  Fields with discontinuous characteristics
(``advectable = False``, e.g. the +-1 step) are refused rather than given an
ad-hoc Filippov convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .fields import VelocityField
from .measures import Grid, SignedDensity, lq_norm


@dataclass
class CauchyData:
    """Velocity, source and initial datum for the continuity equation.

    ``source`` may be None, a constant-in-time cell array, or a callable
    t -> cell array.
    """

    velocity: VelocityField
    source: object
    initial: SignedDensity
    horizon: float

    def source_at(self, t: float, grid: Grid) -> np.ndarray | None:
        if self.source is None:
            return None
        if callable(self.source):
            return np.asarray(self.source(t), dtype=float)
        arr = np.asarray(self.source, dtype=float)
        if arr.ndim == 0:
            return np.full(grid.shape, float(arr))
        return arr


@dataclass
class SolutionTrajectory:
    grid: Grid
    times: np.ndarray
    frames: np.ndarray  # (n_times, *grid.shape)
    scheme: str
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

def _deposit_intervals_1d(left: np.ndarray, right: np.ndarray, masses: np.ndarray,
                          grid: Grid) -> np.ndarray:
    """Split interval masses among grid cells by overlap length (exact)."""
    n, h, L = grid.n, grid.h, grid.length
    a = np.mod(left, L)
    width = np.maximum(right - left, 1e-300)
    b = a + width
    out = np.zeros(n)
    ia = np.floor(a / h).astype(np.int64)
    ib = np.floor((b - 1e-300) / h).astype(np.int64)
    span = int((ib - ia).max(initial=0))
    for k in range(span + 1):
        cell = ia + k
        lo = np.maximum(a, cell * h)
        hi = np.minimum(b, (cell + 1) * h)
        w = np.clip(hi - lo, 0.0, None)
        np.add.at(out, cell % n, masses * (w / width))
    return out / h


def _deposit_cic_2d(pos: np.ndarray, masses: np.ndarray, grid: Grid) -> np.ndarray:
    """Overlap-area split of an h x h cell footprint (bilinear weights)."""
    n, h, L = grid.n, grid.h, grid.length
    xi = np.mod(pos, L) / h - 0.5
    base = np.floor(xi).astype(np.int64)
    frac = xi - base
    out = np.zeros((n, n))
    for dx in (0, 1):
        for dy in (0, 1):
            wx = frac[:, 0] if dx else 1.0 - frac[:, 0]
            wy = frac[:, 1] if dy else 1.0 - frac[:, 1]
            ii = (base[:, 0] + dx) % n
            jj = (base[:, 1] + dy) % n
            np.add.at(out, (ii, jj), masses * wx * wy)
    return out / grid.cell_volume


def det_grad_flow(positions: np.ndarray, grid: Grid) -> np.ndarray:
    """det(grad phi) by centered differences of neighbor trajectories.

    ``positions`` holds unwrapped particle positions in grid shape
    (n,) for d=1 or (n, n, 2) for d=2; the periodic neighbor on the seam is
    shifted by one period.
    """
    h, L = grid.h, grid.length
    if grid.dim == 1:
        p = positions
        fwd = np.roll(p, -1)
        bwd = np.roll(p, 1)
        fwd[-1] += L
        bwd[0] -= L
        return (fwd - bwd) / (2 * h)
    p = positions
    jac = np.empty(grid.shape + (2, 2))
    for axis in (0, 1):
        fwd = np.roll(p, -1, axis=axis)
        bwd = np.roll(p, 1, axis=axis)
        if axis == 0:
            fwd[-1, :, 0] += L
            bwd[0, :, 0] -= L
        else:
            fwd[:, -1, 1] += L
            bwd[:, 0, 1] -= L
        jac[..., :, axis] = (fwd - bwd) / (2 * h)
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]


def _integrate_characteristics(u: VelocityField, x0: np.ndarray, times: np.ndarray,
                               rtol: float, atol: float,
                               use_exact_flow: bool = True) -> np.ndarray:
    """Positions at the requested times, shape (n_times, *x0.shape)."""
    if use_exact_flow and u.exact_flow(0.0, x0) is not None:
        return np.stack([np.asarray(u.exact_flow(t, x0)) for t in times])
    shape = x0.shape

    def rhs(t, y):
        return np.asarray(u(t, y.reshape(shape))).ravel()

    sol = solve_ivp(rhs, (times[0], times[-1]), x0.ravel(), method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"characteristic integration failed: {sol.message}")
    return sol.y.T.reshape((len(times),) + shape)


def lagrangian_solve(data: CauchyData, grid: Grid, n_frames: int = 33,
                     ode_rtol: float = 1e-10, ode_atol: float = 1e-12,
                     use_exact_flow: bool = True) -> SolutionTrajectory:
    """Characteristics solver implementing the push-forward formula."""
    u = data.velocity
    _check_advectable(u)
    store = _store_times(data.horizon, n_frames)
    # with a source, 4 substeps per stored interval for its trapezoid quadrature
    nsub = 4 if data.source is not None else 1
    t_int = np.unique(np.concatenate([
        np.linspace(store[i], store[i + 1], nsub + 1) for i in range(len(store) - 1)
    ])) if len(store) > 1 else store

    if grid.dim == 1:
        x0 = grid.axis_centers()
    else:
        c = grid.axis_centers()
        X, Y = np.meshgrid(c, c, indexing="ij")
        x0 = np.stack([X, Y], axis=-1)
    traj = _integrate_characteristics(u, x0, t_int, ode_rtol, ode_atol, use_exact_flow)

    hv = grid.cell_volume
    masses = np.full(grid.shape, 1.0) * data.initial.values * hv
    frames = []
    store_set = {round(float(t), 12) for t in store}
    acc = np.zeros(grid.shape)

    def detj(k):
        if use_exact_flow:
            jac_exact = u.exact_flow_jacobian(t_int[k], x0)
            if jac_exact is not None:
                return np.asarray(jac_exact)
        return det_grad_flow(traj[k], grid)

    def source_term(k):
        f = data.source_at(t_int[k], grid)
        if f is None:
            return None
        # f evaluated along the characteristic, weighted by the volume factor
        pos = np.mod(traj[k], grid.length)
        if grid.dim == 1:
            idx = np.minimum((pos / grid.h).astype(np.int64), grid.n - 1)
            fvals = f[idx]
        else:
            ij = np.minimum((pos / grid.h).astype(np.int64), grid.n - 1)
            fvals = f[ij[..., 0], ij[..., 1]]
        return fvals * detj(k)

    prev = source_term(0)
    for k, t in enumerate(t_int):
        if k > 0 and prev is not None:
            cur = source_term(k)
            acc += 0.5 * (t_int[k] - t_int[k - 1]) * (prev + cur) * hv
            prev = cur
        if round(float(t), 12) in store_set:
            m = masses + acc
            if grid.dim == 1:
                centers = traj[k]
                nxt = np.roll(centers, -1).copy()
                nxt[-1] += grid.length
                prv = np.roll(centers, 1).copy()
                prv[0] -= grid.length
                left = 0.5 * (prv + centers)
                right = 0.5 * (centers + nxt)
                frames.append(_deposit_intervals_1d(left, right, m, grid))
            else:
                frames.append(_deposit_cic_2d(traj[k].reshape(-1, 2), m.ravel(), grid))
    return SolutionTrajectory(grid, store, np.stack(frames), "lagrangian",
                              meta={"ode_rtol": ode_rtol, "field": u.name})


# ---------------------------------------------------------------------------
# Eulerian solver

def _face_velocities(u: VelocityField, grid: Grid):
    """Velocity normal to each cell's lower face; fields are autonomous."""
    n, h = grid.n, grid.h
    edges = np.arange(n) * h
    if grid.dim == 1:
        return (np.asarray(u(0.0, edges)),)
    c = grid.axis_centers()
    EX, CY = np.meshgrid(edges, c, indexing="ij")
    ux = np.asarray(u(0.0, np.stack([EX, CY], axis=-1)))[..., 0]
    CX, EY = np.meshgrid(c, edges, indexing="ij")
    uy = np.asarray(u(0.0, np.stack([CX, EY], axis=-1)))[..., 1]
    return ux, uy


def _axis_slices(dim: int, axis: int):
    """Index tuples selecting cells 1.., ..n-2, 0 and n-1 along ``axis``."""
    def at(s):
        idx = [slice(None)] * dim
        idx[axis] = s
        return tuple(idx)
    return at(slice(1, None)), at(slice(None, -1)), at(slice(None, 1)), at(slice(-1, None))


def eulerian_solve(data: CauchyData, grid: Grid, cfl: float = 0.5,
                   n_frames: int = 33) -> SolutionTrajectory:
    """First-order upwind finite-volume scheme in conservative flux form.

    Each step updates ``rho`` in place through buffers allocated once per
    solve.  An axis whose face velocities are all zero adds no flux: its
    term would be exactly +-0.  The floating-point operations and their
    order are those of ``rho - dt * sum_axis (roll(F, -1) - F) / h`` with
    the upwind flux ``F = where(u > 0, u * roll(rho, 1), u * rho)``, the
    x term before the y term.  ``meta`` records the number of ``steps``,
    ``dt_max`` and the discrete ``mass_defect``.
    """
    u = data.velocity
    _check_advectable(u)
    if not 0.0 < cfl < 1.0:
        raise ValueError("cfl must be in (0, 1)")
    store = _store_times(data.horizon, n_frames)
    h = grid.h
    faces = _face_velocities(u, grid)
    for f in faces:
        if not np.all(np.isfinite(f)):
            raise ValueError("velocity field produced non-finite face values")
    speed = sum(np.abs(f).max() for f in faces)
    dt_max = cfl * h / speed if speed > 0 else data.horizon
    # per moving axis: face velocities, where the flux takes the cell's own
    # value (u <= 0) instead of its lower neighbor's, and the index slices
    moving = [(np.ascontiguousarray(uf), uf <= 0, _axis_slices(grid.dim, axis))
              for axis, uf in enumerate(faces) if np.any(uf)]
    frames = np.empty((len(store),) + grid.shape)
    frames[0] = data.initial.values
    rho = frames[0].copy()
    shifted, flux, div = (np.empty(grid.shape) for _ in range(3))
    term = np.empty(grid.shape) if len(moving) > 1 else None
    t = 0.0
    steps = 0
    f = None
    for k in range(1, len(store)):
        target = store[k]
        while t < target - 1e-14:
            dt = min(dt_max, target - t)
            for i, (uf, own, (hi, lo, first, last)) in enumerate(moving):
                out = div if i == 0 else term
                shifted[hi] = rho[lo]          # shifted = roll(rho, 1, axis)
                shifted[first] = rho[last]
                np.copyto(shifted, rho, where=own)
                np.multiply(uf, shifted, out=flux)
                np.subtract(flux[hi], flux[lo], out=out[lo])  # roll(flux, -1) - flux
                np.subtract(flux[first], flux[last], out=out[last])
                np.divide(out, h, out=out)
                if i > 0:
                    np.add(div, term, out=div)
            if moving:
                np.multiply(div, dt, out=div)
                np.subtract(rho, div, out=rho)
            f = data.source_at(t, grid)
            if f is not None:
                np.multiply(f, dt, out=shifted)
                np.add(rho, shifted, out=rho)
            t += dt
            steps += 1
        frames[k] = rho
    # exact discrete mass balance bookkeeping; a constant-in-time source is
    # the one the last step added, so each step keeps a single source_at call
    total_source = 0.0
    if data.source is not None and not callable(data.source):
        if f is None:  # no step was taken
            f = data.source_at(0.0, grid)
        total_source = float(np.sum(f) * grid.cell_volume * store[-1])
    mass_defect = float(frames[-1].sum() - frames[0].sum()) * grid.cell_volume - total_source
    return SolutionTrajectory(grid, store, frames, "eulerian",
                              meta={"cfl": cfl, "field": u.name, "steps": steps,
                                    "dt_max": float(dt_max), "mass_defect": mass_defect})


# ---------------------------------------------------------------------------
# a-priori L^q bound

@dataclass
class AprioriReport:
    q: float
    lhs: float
    rhs: float
    slack: float      # lhs/rhs - 1; negative means the bound holds with margin
    holds: bool
    div_l1_linf: float


def apriori_lq_check(traj: SolutionTrajectory, data: CauchyData, q: float,
                     tol: float = 0.05) -> AprioriReport:
    """Both sides of the growth bound
    ||rho||_{L^inf(L^q)} <= exp^{1-1/q}(||div u||_{L^1(L^inf)}) (||rho0||_q + ||f||_{L^1(L^q)})."""
    grid = traj.grid
    lhs = max(lq_norm(traj.frame(k), q) for k in range(traj.n_frames))
    c = grid.axis_centers()
    if grid.dim == 1:
        pts = c
    else:
        X, Y = np.meshgrid(c, c, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
    div_sup = float(np.abs(np.asarray(data.velocity.divergence(0.0, pts))).max())
    div_l1 = div_sup * data.horizon
    fnorm = 0.0
    if data.source is not None:
        f0 = data.source_at(0.0, grid)
        fnorm = lq_norm(SignedDensity(grid, f0), q) * data.horizon
    rho0 = lq_norm(SignedDensity(grid, traj.frames[0]), q)
    rhs = np.exp((1.0 - 1.0 / q) * div_l1) * (rho0 + fnorm)
    slack = lhs / rhs - 1.0 if rhs > 0 else (0.0 if lhs == 0 else np.inf)
    return AprioriReport(q, lhs, float(rhs), float(slack), bool(slack <= tol), div_l1)
