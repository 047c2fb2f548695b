import math

import numpy as np
import pytest
from scipy.optimize import brentq

from krlab.fields import (ConstantField, E1StepField, OscillatoryField, PowerCuspField,
                          SmoothShear2D, VelocityField)
from krlab.measures import Grid, SignedDensity, density_from_function, lq_norm
from krlab.pde import CauchyData, _face_velocities, apriori_lq_check, det_grad_flow, \
    eulerian_solve, lagrangian_solve

TWO_PI = 2 * math.pi


def smooth_1d(grid):
    return density_from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))


# ---------------------------------------------------------------------------
# trivial identities

@pytest.mark.parametrize("solver", [lagrangian_solve, eulerian_solve])
def test_zero_field_zero_source(solver):
    g = Grid(1, 64)
    rho0 = smooth_1d(g)
    data = CauchyData(ConstantField([0.0]), None, rho0, 1.0)
    traj = solver(data, g)
    for k in range(traj.n_frames):
        assert np.abs(traj.frames[k] - rho0.values).max() < 1e-13


@pytest.mark.parametrize("solver", [lagrangian_solve, eulerian_solve])
def test_zero_field_constant_source(solver):
    g = Grid(1, 64)
    rho0 = smooth_1d(g)
    data = CauchyData(ConstantField([0.0]), np.ones(64), rho0, 1.0)
    traj = solver(data, g)
    for k, t in enumerate(traj.times):
        assert np.abs(traj.frames[k] - (rho0.values + t)).max() < 1e-12


def test_step_field_refused():
    g = Grid(1, 64)
    data = CauchyData(E1StepField(), None, smooth_1d(g), 1.0)
    with pytest.raises(ValueError):
        lagrangian_solve(data, g)
    with pytest.raises(ValueError):
        eulerian_solve(data, g)


def test_cfl_validated():
    g = Grid(1, 64)
    data = CauchyData(ConstantField([1.0]), None, smooth_1d(g), 1.0)
    with pytest.raises(ValueError):
        eulerian_solve(data, g, cfl=1.5)


# ---------------------------------------------------------------------------
# Lagrangian solver vs the closed-form Jacobian formula

def test_lagrangian_oscillatory_jacobian_formula():
    # oracle: rho(T, y) = 1 / dphi(T, phi^{-1}(T, y)) with the inverse found
    # by bisection, fully independent of the deposit machinery
    k, T, n = 1, 1.0, 512
    g = Grid(1, n, length=TWO_PI)
    field = OscillatoryField(k)
    data = CauchyData(field, None, density_from_function(g, lambda x: np.ones_like(x)), T)
    traj = lagrangian_solve(data, g, n_frames=5)
    centers = g.axis_centers()

    def flow_scalar(x):
        return float(np.asarray(field.exact_flow(T, np.array([x])))[0])

    oracle = np.empty(n)
    for i, y in enumerate(centers):
        lo = y - math.pi  # flow deviates by less than pi from the identity
        hi = y + math.pi
        x = brentq(lambda s: flow_scalar(s) - y, lo, hi, xtol=1e-13)
        oracle[i] = 1.0 / float(np.asarray(field.exact_flow_jacobian(T, np.array([x])))[0])
    err = np.abs(traj.frames[-1] - oracle).mean() * g.h * n
    assert err < 0.02  # first-order deposit at n = 512

    # refinement improves the agreement
    g2 = Grid(1, 2 * n, length=TWO_PI)
    data2 = CauchyData(field, None, density_from_function(g2, lambda x: np.ones_like(x)), T)
    traj2 = lagrangian_solve(data2, g2, n_frames=5)
    c2 = g2.axis_centers()
    oracle2 = np.interp(c2, centers, oracle, period=TWO_PI)
    err2 = np.abs(traj2.frames[-1] - oracle2).mean() * g2.h * 2 * n
    assert err2 < err


def test_lagrangian_mass_conservation_2d():
    g = Grid(2, 32)
    rho0 = density_from_function(g, lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y))
    data = CauchyData(SmoothShear2D(), None, rho0, 0.7)
    traj = lagrangian_solve(data, g, n_frames=5)
    m0 = rho0.values.sum() * g.cell_volume
    for k in range(traj.n_frames):
        assert traj.frames[k].sum() * g.cell_volume == pytest.approx(m0, abs=1e-12)


def test_det_grad_flow_matches_analytic():
    g = Grid(1, 256, length=TWO_PI)
    field = OscillatoryField(2)
    x0 = g.axis_centers()
    pos = np.asarray(field.exact_flow(0.8, x0))
    numeric = det_grad_flow(pos, g)
    analytic = np.asarray(field.exact_flow_jacobian(0.8, x0))
    assert np.abs(numeric - analytic).max() < 5e-3  # centered differences, O(h^2)


# ---------------------------------------------------------------------------
# Eulerian solver

def test_translation_refinement():
    errs = []
    for n in (64, 128, 256):
        g = Grid(1, n)
        rho0 = smooth_1d(g)
        data = CauchyData(ConstantField([1.0]), None, rho0, 1.0)
        traj = eulerian_solve(data, g, cfl=0.45, n_frames=5)
        errs.append(lq_norm(SignedDensity(g, traj.frames[-1] - rho0.values), 1))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    # smooth data: first-order convergence, comfortably inside C h^{2/3}
    c = errs[0] / (1 / 64) ** (2 / 3)
    for e, n in zip(errs, (64, 128, 256)):
        assert e <= c * (1 / n) ** (2 / 3) + 1e-12


def test_mass_balance_with_source():
    g = Grid(1, 512)
    rho0 = smooth_1d(g)
    f = 0.3 * np.cos(2 * np.pi * g.axis_centers())
    data = CauchyData(ConstantField([1.0]), f, rho0, 1.0)
    traj = eulerian_solve(data, g, cfl=0.5, n_frames=9)
    assert abs(traj.meta["mass_defect"]) <= 1e-11 * (1 + lq_norm(rho0, 1))


def test_positivity_preserved():
    g = Grid(1, 128, length=TWO_PI)
    rho0 = density_from_function(g, lambda x: 1.0 + np.sin(x))  # touches zero
    data = CauchyData(OscillatoryField(2), None, rho0, 1.0)
    traj = eulerian_solve(data, g, cfl=0.9, n_frames=9)
    assert traj.frames.min() >= -1e-14


def test_eulerian_nonfinite_field_rejected():
    class BadField(ConstantField):
        def __call__(self, t, pos):
            out = super().__call__(t, pos)
            return out * np.nan

    g = Grid(1, 32)
    data = CauchyData(BadField([1.0]), None, smooth_1d(g), 1.0)
    with pytest.raises(ValueError):
        eulerian_solve(data, g)


def test_lagrangian_eulerian_agreement_2d():
    field = SmoothShear2D()
    gaps = []
    for n in (32, 64):
        g = Grid(2, n)
        rho0 = density_from_function(
            g, lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * X) * (0.5 + 0.5 * np.cos(2 * np.pi * Y)))
        data = CauchyData(field, None, rho0, 0.5)
        lag = lagrangian_solve(data, g, n_frames=3)
        eul = eulerian_solve(data, g, cfl=0.45, n_frames=3)
        gaps.append(lq_norm(SignedDensity(g, lag.frames[-1] - eul.frames[-1]), 1))
    assert gaps[1] <= 0.7 * gaps[0]


# ---------------------------------------------------------------------------
# weak form and a-priori bound

def test_weak_form_residual_decreases():
    # distributional identity against 5 fixed smooth space-time test
    # functions; exp(sin) puts mass in every Fourier mode so no pairing
    # degenerates to zero by circulant orthogonality
    def residual(n):
        g = Grid(1, n)
        rho0 = density_from_function(g, lambda x: np.exp(np.sin(2 * np.pi * x)))
        T = 0.5
        data = CauchyData(ConstantField([1.0]), None, rho0, T)
        traj = eulerian_solve(data, g, cfl=0.45, n_frames=17)
        x = g.axis_centers()
        out = []
        for m, phase in ((1, 0.0), (2, 0.4), (3, 1.1), (1, 2.0), (4, 0.7)):
            zeta_x = np.cos(2 * np.pi * m * x + phase)
            dzeta_x = -2 * np.pi * m * np.sin(2 * np.pi * m * x + phase)
            w = np.cos(math.pi * traj.times / (2 * T)) ** 2   # w(T) = 0
            dw = -math.pi / (2 * T) * np.sin(math.pi * traj.times / T)
            integrand = np.array([
                (traj.frames[k] * (dw[k] * zeta_x + w[k] * 1.0 * dzeta_x)).sum() * g.h
                for k in range(traj.n_frames)])
            space_time = np.trapezoid(integrand, traj.times)
            initial = (rho0.values * zeta_x).sum() * g.h  # w(0) = 1
            out.append(abs(space_time + initial))
        return out

    r64 = residual(64)
    r128 = residual(128)
    assert all(b < a for a, b in zip(r64, r128))


def test_apriori_trivial_cases():
    g = Grid(1, 128)
    rho0 = smooth_1d(g)
    # divergence-free (constant) field, q = 1: L1 never grows
    data = CauchyData(ConstantField([1.0]), None, rho0, 1.0)
    traj = eulerian_solve(data, g, cfl=0.5, n_frames=5)
    rep = apriori_lq_check(traj, data, 1.0)
    assert rep.holds and rep.lhs <= rep.rhs + 1e-12
    # u = 0, f = 1, T = 1, q = 1: the bound ||rho0||_1 + 1 is attained
    data2 = CauchyData(ConstantField([0.0]), np.ones(128), rho0, 1.0)
    traj2 = eulerian_solve(data2, g, cfl=0.5, n_frames=5)
    rep2 = apriori_lq_check(traj2, data2, 1.0)
    assert rep2.lhs == pytest.approx(rep2.rhs, rel=1e-12)
    assert rep2.holds


def test_apriori_oscillatory_q2():
    g = Grid(1, 256, length=TWO_PI)
    field = OscillatoryField(4)
    data = CauchyData(field, None, density_from_function(g, lambda x: np.ones_like(x)), 1.0)
    traj = eulerian_solve(data, g, cfl=0.5, n_frames=9)
    rep = apriori_lq_check(traj, data, 2.0)
    assert rep.holds and rep.slack <= 0.05


@pytest.mark.parametrize("solver", [lagrangian_solve, eulerian_solve])
@pytest.mark.parametrize("n_frames", [1, 66])
def test_frame_count_out_of_range_is_refused(solver, n_frames):
    g = Grid(1, 16)
    data = CauchyData(ConstantField([1.0]), None, smooth_1d(g), 0.25)
    with pytest.raises(ValueError, match=r"n_frames must be in \[2, 65\], got " + str(n_frames)):
        solver(data, g, n_frames=n_frames)


# ---------------------------------------------------------------------------
# the in-place upwind stepper against the roll/where loop it replaced

def reference_eulerian(data, grid, cfl, n_frames):
    """Frames, step count and mass defect of the allocate-per-step upwind loop."""
    faces = _face_velocities(data.velocity, grid)
    h = grid.h
    speed = sum(np.abs(f).max() for f in faces)
    dt_max = cfl * h / speed if speed > 0 else data.horizon
    store = np.linspace(0.0, data.horizon, n_frames)
    rho = data.initial.values.astype(float).copy()
    frames = [rho.copy()]
    t = 0.0
    steps = 0
    for k in range(1, len(store)):
        target = store[k]
        while t < target - 1e-14:
            dt = min(dt_max, target - t)
            if grid.dim == 1:
                uf = faces[0]
                flux = np.where(uf > 0, uf * np.roll(rho, 1), uf * rho)
                div = (np.roll(flux, -1) - flux) / h
            else:
                ux, uy = faces
                fx = np.where(ux > 0, ux * np.roll(rho, 1, axis=0), ux * rho)
                fy = np.where(uy > 0, uy * np.roll(rho, 1, axis=1), uy * rho)
                div = (np.roll(fx, -1, axis=0) - fx) / h + (np.roll(fy, -1, axis=1) - fy) / h
            rho = rho - dt * div
            f = data.source_at(t, grid)
            if f is not None:
                rho = rho + dt * f
            t += dt
            steps += 1
        frames.append(rho.copy())
    total_source = 0.0
    if data.source is not None and not callable(data.source):
        total_source = float(np.sum(data.source_at(0.0, grid)) * grid.cell_volume * store[-1])
    mass_defect = float(frames[-1].sum() - frames[0].sum()) * grid.cell_volume - total_source
    return np.stack(frames), steps, mass_defect


class SwirlField(VelocityField):
    """Both components nonzero and of both signs: u = (0.1 + 0.3 sin 2pi y, 0.2 cos 2pi x)."""

    dim = 2
    name = "swirl"

    def __call__(self, t, pos):
        p = np.asarray(pos, dtype=float)
        out = np.empty_like(p)
        out[..., 0] = 0.1 + 0.3 * np.sin(TWO_PI * p[..., 1])
        out[..., 1] = 0.2 * np.cos(TWO_PI * p[..., 0])
        return out


class CountingData(CauchyData):
    """CauchyData that counts its source_at calls, as the benchmark tracer does."""

    calls = 0

    def source_at(self, t, grid):
        self.calls += 1
        return super().source_at(t, grid)


def _cusp_1d():
    g = Grid(1, 128)
    return g, PowerCuspField(0.6, x0=0.31, amp=0.4), \
        density_from_function(g, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))


def _blob_2d(n=32):
    g = Grid(2, n)
    return g, density_from_function(
        g, lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * X) * (0.5 + 0.5 * np.cos(2 * np.pi * Y)))


def stepper_cases():
    g, cusp, rho0 = _cusp_1d()
    f = 0.3 * np.cos(2 * np.pi * g.axis_centers())
    g2, rho2 = _blob_2d()
    return {
        "cusp-1d": (g, CountingData(cusp, None, rho0, 0.5)),
        "cusp-1d-constant-source": (g, CountingData(cusp, f, rho0, 0.5)),
        "cusp-1d-callable-source": (g, CountingData(cusp, lambda t: (1.0 + t) * f, rho0, 0.5)),
        "shear-2d": (g2, CountingData(SmoothShear2D(), None, rho2, 0.5)),
        "swirl-2d": (g2, CountingData(SwirlField(), None, rho2, 0.5)),
        "zero-1d": (Grid(1, 64), CountingData(ConstantField([0.0]), None, smooth_1d(Grid(1, 64)),
                                              1.0)),
    }


@pytest.mark.parametrize("case", sorted(stepper_cases()))
def test_in_place_stepper_is_bit_identical(case):
    grid, data = stepper_cases()[case]
    frames, steps, mass_defect = reference_eulerian(data, grid, cfl=0.45, n_frames=9)
    data.calls = 0
    traj = eulerian_solve(data, grid, cfl=0.45, n_frames=9)
    assert np.array_equal(traj.frames, frames)
    assert traj.meta["mass_defect"] == mass_defect
    assert traj.meta["steps"] == steps > 0
    # the benchmark tracer counts one upwind step per source_at call
    assert data.calls == steps


def test_stepper_meta_reports_steps_and_dt_max():
    g = Grid(1, 64)
    data = CauchyData(ConstantField([2.0]), None, smooth_1d(g), 1.0)
    traj = eulerian_solve(data, g, cfl=0.5, n_frames=5)
    assert traj.meta["dt_max"] == 0.5 * g.h / 2.0
    assert traj.meta["steps"] == 256  # 64 steps of dt_max per stored interval
