import math
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import brentq

from krlab import pde
from krlab.fields import (ConstantField, E1StepField, OscillatoryField, PowerCuspField,
                          SmoothShear2D, VelocityField)
from krlab.measures import Grid, SignedDensity, density_from_function, lq_norm
from krlab.pde import CauchyData, _face_velocities, apriori_lq_check, eulerian_solve, \
    lagrangian_solve

TWO_PI = 2 * math.pi


def smooth_1d(grid):
    return density_from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))


def bits(a):
    """The float64 bit patterns, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


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


@pytest.mark.parametrize("solver", [eulerian_solve])  # lagrangian_solve refuses a source
def test_zero_field_constant_source(solver):
    g = Grid(1, 64)
    rho0 = smooth_1d(g)
    data = CauchyData(ConstantField([0.0]), np.ones(64), rho0, 1.0)
    traj = solver(data, g)
    for k, t in enumerate(traj.times):
        assert np.abs(traj.frames[k] - (rho0.values + t)).max() < 1e-12


def test_lagrangian_refuses_a_source():
    g = Grid(1, 64)
    data = CauchyData(ConstantField([0.0]), np.ones(64), smooth_1d(g), 1.0)
    with pytest.raises(ValueError, match="eulerian_solve"):
        lagrangian_solve(data, g)


@pytest.mark.parametrize("source, horizon, message", [
    (lambda t: np.ones(64), 1.0, "not a callable"),
    (np.ones(32), 1.0, r"expected shape \(64,\), got \(32,\)"),
    (1.0, 1.0, r"expected shape \(64,\), got \(\)"),
    (None, math.inf, "horizon must be finite and > 0, got inf"),
    (None, math.nan, "horizon must be finite and > 0, got nan"),
    (None, 0.0, "horizon must be finite and > 0, got 0.0"),
    (None, -1.0, "horizon must be finite and > 0, got -1.0"),
], ids=["callable-source", "source-shape", "scalar-source", "inf", "nan", "zero", "negative"])
def test_cauchy_data_refuses_what_no_solver_can_step(source, horizon, message):
    # an infinite horizon would step forever, and one <= 0 or NaN would give
    # frames after 0 steps
    g = Grid(1, 64)
    with pytest.raises(ValueError, match=message):
        CauchyData(ConstantField([1.0]), source, smooth_1d(g), horizon)


@pytest.mark.parametrize("where", ["initial datum", "source"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("dim", [1, 2])
def test_cauchy_data_refuses_non_finite_data(dim, bad, where):
    # the 2-d deposit leaves out corners whose shares are mass * 0, exact
    # only for finite masses
    g = Grid(dim, 8)
    good = np.ones(g.shape)
    values = good.copy()
    values.flat[[3, 5]] = bad
    initial, source = (values, good) if where == "initial datum" else (good, values)
    field = ConstantField([1.0]) if dim == 1 else SmoothShear2D()
    message = f"^{where} has NaN or inf in 2 of {g.ncells} cells; every cell must hold a " \
              "finite number$"
    with pytest.raises(ValueError, match=message):
        CauchyData(field, source, SignedDensity(g, initial), 1.0)


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
    rho0 = density_from_function(g, lambda X, Y: 1.0 + 0.5 * np.sin(TWO_PI * X) * np.cos(Y))
    data = CauchyData(SmoothShear2D(), None, rho0, 0.7)
    traj = lagrangian_solve(data, g, n_frames=5)
    m0 = rho0.values.sum() * g.cell_volume
    for k in range(traj.n_frames):
        assert traj.frames[k].sum() * g.cell_volume == pytest.approx(m0, abs=1e-12)


def test_lagrangian_meta_counts_the_ode_evaluations(monkeypatch):
    g = Grid(1, 64, length=TWO_PI)
    data = CauchyData(OscillatoryField(1), None, density_from_function(g, np.cos), 0.5)
    assert lagrangian_solve(data, g, n_frames=3).meta["nfev"] == 0  # the exact flow
    nfevs = []
    solve_ivp = pde.solve_ivp

    def spy(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfevs.append(sol.nfev)
        return sol

    monkeypatch.setattr(pde, "solve_ivp", spy)
    traj = lagrangian_solve(data, g, n_frames=3, use_exact_flow=False)
    assert [traj.meta["nfev"]] == nfevs and nfevs[0] > 0


def test_lagrangian_evaluates_the_exact_flow_once_per_frame(monkeypatch):
    # the flow at t = 0 both tells that the field has one and is frame 0
    g = Grid(2, 16)
    data = CauchyData(SmoothShear2D(), None, _blob_2d(16)[1], 0.5)
    want = lagrangian_solve(data, g, n_frames=5).frames
    times = []
    exact_flow = SmoothShear2D.exact_flow

    def counted(self, t, pos):
        times.append(t)
        return exact_flow(self, t, pos)

    monkeypatch.setattr(SmoothShear2D, "exact_flow", counted)
    traj = lagrangian_solve(data, g, n_frames=5)
    assert times == list(traj.times)
    assert np.array_equal(bits(traj.frames), bits(want))


@pytest.mark.parametrize("length", [1.0, TWO_PI])
def test_wrap_is_np_mod_bit_for_bit(length):
    L = length
    # the signed zeros, L and the float below it, a tiny negative, and values
    # above L and below -L
    x = np.array([-0.0, 0.0, L, np.nextafter(L, 0.0), -1e-300, 1e-300, 0.5 * L, L + 1e-12,
                  1.75 * L, 3.0 * L, -L, -1.25 * L, -7.5 * L, np.nextafter(-L, 0.0), np.nan,
                  2.0 * L])
    x = np.concatenate([x, np.random.default_rng(5).uniform(-3.0 * L, 3.0 * L, size=64)])
    for pts in (x, x.reshape(-1, 2)):
        assert np.array_equal(bits(pde._wrap(pts, L)), bits(np.mod(pts, L)))


def add_at_intervals(left, right, masses, grid):
    """The np.add.at loop that _deposit_intervals_1d replaced."""
    n, h, L = grid.n, grid.h, grid.length
    a = np.mod(left, L)
    width = np.maximum(right - left, 1e-300)
    b = a + width
    out = np.zeros(n)
    ia = np.floor(a / h).astype(np.int64)
    ib = np.floor((b - 1e-300) / h).astype(np.int64)
    for k in range(int((ib - ia).max(initial=0)) + 1):
        cell = ia + k
        lo = np.maximum(a, cell * h)
        hi = np.minimum(b, (cell + 1) * h)
        w = np.clip(hi - lo, 0.0, None)
        np.add.at(out, cell % n, masses * (w / width))
    return out / h


def add_at_cic(pos, masses, grid):
    """The np.add.at loop that _deposit_cic_2d replaced."""
    n, h, L = grid.n, grid.h, grid.length
    xi = np.mod(pos, L) / h - 0.5
    base = np.floor(xi).astype(np.int64)
    frac = xi - base
    out = np.zeros((n, n))
    for dx in (0, 1):
        for dy in (0, 1):
            wx = frac[:, 0] if dx else 1.0 - frac[:, 0]
            wy = frac[:, 1] if dy else 1.0 - frac[:, 1]
            np.add.at(out, ((base[:, 0] + dx) % n, (base[:, 1] + dy) % n), masses * wx * wy)
    return out / grid.cell_volume


def _masses(rng, m):
    # signs and magnitudes that make any reassociated cell sum round differently
    return rng.normal(size=m) * 10.0 ** rng.uniform(-6, 6, size=m)


@pytest.mark.parametrize("length", [1.0, TWO_PI])
def test_deposits_are_the_add_at_loops_bit_for_bit(length):
    rng = np.random.default_rng(11)
    g = Grid(2, 8, length=length)
    h, L = g.h, g.length
    # across the seam, negative and >= L, and a crowd around the vertex at
    # (2h, 3h) that reaches each of the four cells there from every corner
    seam = np.array([[-1e-3, 0.2 * h], [L - 1e-3, L + 0.3 * h], [-0.3 * h, -2.6 * L],
                     [L, 0.0], [2.0 * L + 0.1 * h, L - 0.5 * h], [0.5 * h, 0.5 * h]])
    crowd = np.array([2.0 * h, 3.0 * h]) + rng.uniform(-0.99 * h, 0.99 * h, size=(64, 2))
    spread = rng.uniform(-L, 2.0 * L, size=(256, 2))
    pos = np.concatenate([seam, crowd, spread])
    masses = _masses(rng, len(pos))
    assert np.array_equal(bits(pde._deposit_cic_2d(pos, masses, g)),
                          bits(add_at_cic(pos, masses, g)))

    g1 = Grid(1, 16, length=length)
    h1 = g1.h
    left = np.concatenate([[-0.2 * h1, L - 0.5 * h1, -L - 3.7 * h1, 2.0 * L],
                           rng.uniform(-L, 2.0 * L, size=60)])
    right = left + np.concatenate([[0.5 * h1, 3.2 * h1, 4.9 * h1, 0.0],
                                   rng.exponential(1.5 * h1, size=60)])
    masses1 = _masses(rng, len(left))
    span = np.floor((np.mod(left, L) + (right - left)) / h1) - np.floor(np.mod(left, L) / h1)
    assert span.max() >= 3  # some interval covers four cells or more
    assert np.array_equal(bits(pde._deposit_intervals_1d(left, right, masses1, g1)),
                          bits(add_at_intervals(left, right, masses1, g1)))


@pytest.mark.parametrize("length", [1.0, TWO_PI])
@pytest.mark.parametrize("on_centers, pieces", [
    ((0, 1), 1), ((0,), 2), ((1,), 2), ((), 4)], ids=["both", "x", "y", "neither"])
def test_deposit_leaves_out_only_corners_without_mass(monkeypatch, length, on_centers, pieces):
    # particles on cell centers along the axes of on_centers, anywhere along
    # the others; some masses are exactly 0.  On the unit torus the centers'
    # fractional offsets are exactly 0 and the upper corners along those
    # axes are left out; on the 2*pi torus they are not exactly 0, and every
    # corner is kept
    rng = np.random.default_rng(17)
    g = Grid(2, 16, length=length)
    h, L, m = g.h, g.length, 200
    pos = rng.uniform(-L, 2.0 * L, size=(m, 2))
    for axis in on_centers:
        pos[:, axis] = (rng.integers(-16, 32, size=m) + 0.5) * h
    masses = _masses(rng, m)
    masses[::7] = 0.0
    counted = []
    bincount = np.bincount

    def spy(cells, weights, minlength):
        counted.append(len(cells))
        return bincount(cells, weights, minlength=minlength)

    monkeypatch.setattr(pde.np, "bincount", spy)
    got = pde._deposit_cic_2d(pos, masses, g)
    monkeypatch.undo()
    assert np.array_equal(bits(got), bits(add_at_cic(pos, masses, g)))
    assert counted == [(pieces if length == 1.0 else 4) * m]


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
    [rep] = apriori_lq_check(traj, data, (1.0,))
    assert rep.slack <= 0.05 and rep.lhs <= rep.rhs + 1e-12
    # u = 0, f = 1, T = 1, q = 1: the bound ||rho0||_1 + 1 is attained
    data2 = CauchyData(ConstantField([0.0]), np.ones(128), rho0, 1.0)
    traj2 = eulerian_solve(data2, g, cfl=0.5, n_frames=5)
    [rep2] = apriori_lq_check(traj2, data2, (1.0,))
    assert rep2.lhs == pytest.approx(rep2.rhs, rel=1e-12)
    assert rep2.slack <= 0.05


def test_apriori_oscillatory_q2():
    g = Grid(1, 256, length=TWO_PI)
    field = OscillatoryField(4)
    data = CauchyData(field, None, density_from_function(g, lambda x: np.ones_like(x)), 1.0)
    traj = eulerian_solve(data, g, cfl=0.5, n_frames=9)
    [rep] = apriori_lq_check(traj, data, (2.0,))
    assert rep.slack <= 0.05


def test_apriori_evaluates_the_divergence_once_for_every_q(monkeypatch):
    g = Grid(2, 32)
    rho0 = density_from_function(g, lambda X, Y: 1.0 + 0.5 * np.sin(TWO_PI * X) * np.cos(Y))
    data = CauchyData(SmoothShear2D(), None, rho0, 0.5)
    traj = eulerian_solve(data, g, cfl=0.5, n_frames=5)
    single = [apriori_lq_check(traj, data, (q,))[0] for q in (1.0, 2.0)]
    calls = []
    divergence = SmoothShear2D.divergence

    def counted(self, t, pos):
        calls.append(np.shape(pos))
        return divergence(self, t, pos)

    monkeypatch.setattr(SmoothShear2D, "divergence", counted)
    reports = apriori_lq_check(traj, data, (1.0, 2.0))
    assert calls == [(32, 32, 2)]
    assert [r.q for r in reports] == [1.0, 2.0]
    assert reports == single


def centers_apriori(traj, data, qs):
    """apriori_lq_check with the divergence taken on the full (n, n, 2) cell
    centers at once, as it was."""
    grid = traj.grid
    div_sup = float(np.abs(np.asarray(data.velocity.divergence(0.0, grid.centers()))).max())
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
        reports.append(pde.AprioriReport(q, lhs, float(rhs), float(slack), div_l1))
    return reports


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("case", ["shear-512", "spreading-64", "spreading-64-source"])
def test_apriori_by_row_blocks_is_the_centers_one(monkeypatch, case, rows):
    # blocks of 1 or 3 rows (a shorter last block), or the default
    # BLOCK_CELLS: the 512^2 shear in 8 blocks, 64^2 in one
    name, n = case.split("-")[:2]
    grid, rho0 = _blob_2d(int(n))
    field = SmoothShear2D() if name == "shear" else SPREADING
    source = 0.1 * rho0.values if case.endswith("source") else None
    data = CauchyData(field, source, rho0, 0.25)
    traj = eulerian_solve(data, grid, cfl=0.45, n_frames=3)
    if rows is not None:
        monkeypatch.setattr(pde, "BLOCK_CELLS", rows * grid.n)
    got = apriori_lq_check(traj, data, (1.0, 2.0, 3.5))
    want = centers_apriori(traj, data, (1.0, 2.0, 3.5))
    assert (got[0].div_l1_linf > 0) == (name == "spreading")
    for a, b in zip(got, want):
        assert [bits(x) for x in (a.q, a.lhs, a.rhs, a.slack, a.div_l1_linf)] == \
            [bits(x) for x in (b.q, b.lhs, b.rhs, b.slack, b.div_l1_linf)]


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
    if data.source is not None:
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


class PlaneField(VelocityField):
    """u = (ux(x, y), uy(x, y)) from two callables of the coordinates."""

    dim = 2

    def __init__(self, name, ux, uy):
        self.name, self.ux, self.uy = name, ux, uy

    def __call__(self, t, pos):
        p = np.asarray(pos, dtype=float)
        out = np.empty_like(p)
        out[..., 0] = self.ux(p[..., 0], p[..., 1])
        out[..., 1] = self.uy(p[..., 0], p[..., 1])
        return out


# moves y only, at a speed that varies with x
Y_ONLY = PlaneField("y-only", lambda x, y: 0.0 * x, lambda x, y: 0.25 + 0.1 * np.cos(TWO_PI * x))
# moves x only, in both directions, with the sign changing along x and y
MIXED_X = PlaneField("mixed-x",
                     lambda x, y: 0.3 * np.sin(TWO_PI * y + 0.1) + 0.1 * np.cos(TWO_PI * x),
                     lambda x, y: 0.0 * x)
# both components vary along both axes
CROSS = PlaneField("cross", lambda x, y: 0.2 * np.sin(TWO_PI * x) + 0.1 * np.cos(TWO_PI * y),
                   lambda x, y: 0.1 + 0.2 * np.sin(TWO_PI * y) * np.cos(TWO_PI * x))


class SpreadingField(PlaneField):
    """The cross field, with its divergence 0.4 pi cos(2 pi x) (1 + cos(2 pi y))."""

    def divergence(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return 0.4 * math.pi * np.cos(TWO_PI * p[..., 0]) * (1.0 + np.cos(TWO_PI * p[..., 1]))


SPREADING = SpreadingField("spreading", CROSS.ux, CROSS.uy)


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
    # 256^2 is two slabs of 128 lines for a field that moves one axis
    gb, rhob = _blob_2d(256)
    g_osc = Grid(1, 256, length=TWO_PI)  # h is not a power of two: no fold
    rho_osc = density_from_function(g_osc, lambda x: 1.0 + 0.5 * np.sin(x))
    return {
        "cusp-1d": (g, CountingData(cusp, None, rho0, 0.5)),
        "cusp-1d-constant-source": (g, CountingData(cusp, f, rho0, 0.5)),
        "oscillatory-1d-2pi": (g_osc, CountingData(OscillatoryField(3), None, rho_osc, 0.5)),
        # eight separate runs of u <= 0 under the one masked multiply
        "oscillatory-1d-many-runs": (g_osc, CountingData(OscillatoryField(8), None, rho_osc, 0.5)),
        "shear-2d": (g2, CountingData(SmoothShear2D(), None, rho2, 0.5)),
        "swirl-2d": (g2, CountingData(SwirlField(), None, rho2, 0.5)),
        "y-only-2d": (g2, CountingData(Y_ONLY, None, rho2, 0.5)),
        "shear-2d-blocks": (gb, CountingData(SmoothShear2D(), None, rhob, 0.02)),
        "swirl-2d-blocks": (gb, CountingData(SwirlField(), None, rhob, 0.02)),
        "mixed-x-2d-blocks": (gb, CountingData(MIXED_X, None, SignedDensity(gb, rhob.values - 1.0),
                                               0.02)),
        # each slab takes its own cells (u <= 0) by the mask and adds a source
        "mixed-x-2d-blocks-constant-source": (gb, CountingData(
            MIXED_X, 0.3 * (rhob.values - 1.0), SignedDensity(gb, rhob.values - 1.0), 0.02)),
        "zero-1d": (Grid(1, 64), CountingData(ConstantField([0.0]), None, smooth_1d(Grid(1, 64)),
                                              1.0)),
    }


@pytest.mark.parametrize("case", sorted(stepper_cases()))
def test_in_place_stepper_is_bit_identical(case):
    grid, data = stepper_cases()[case]
    frames, steps, mass_defect = reference_eulerian(data, grid, cfl=0.45, n_frames=9)
    data.calls = 0
    traj = eulerian_solve(data, grid, cfl=0.45, n_frames=9)
    assert np.array_equal(bits(traj.frames), bits(frames))
    assert bits(traj.meta["mass_defect"]) == bits(mass_defect)
    assert traj.meta["steps"] == steps > 0
    # the benchmark tracer counts one upwind step per source_at call
    assert data.calls == steps


@pytest.mark.parametrize("case", sorted(c for c in stepper_cases() if "-blocks" in c))
@pytest.mark.parametrize("cpus", [1, 2])
def test_slabs_on_one_or_two_workers_are_bit_identical(monkeypatch, case, cpus):
    # at 256^2 a field that moves one axis is two slabs, stepped by the
    # caller alone or by the caller and one helper
    monkeypatch.setattr(pde, "CPUS", cpus)
    grid, data = stepper_cases()[case]
    frames, steps, mass_defect = reference_eulerian(data, grid, cfl=0.45, n_frames=9)
    data.calls = 0
    traj = eulerian_solve(data, grid, cfl=0.45, n_frames=9)
    assert np.array_equal(bits(traj.frames), bits(frames))
    assert bits(traj.meta["mass_defect"]) == bits(mass_defect)
    assert traj.meta["steps"] == steps == data.calls


@pytest.mark.parametrize("rows", [1, 3, 4, 16, 32])
@pytest.mark.parametrize("field", [SmoothShear2D(), SwirlField(), Y_ONLY, MIXED_X],
                         ids=lambda fld: fld.name)
def test_row_blocks_do_not_change_a_bit(monkeypatch, field, rows):
    # BLOCK_CELLS of 1, 3, 4, n/2 = 16 or n = 32 lines of 32 cells: the
    # stepper's slabs, and the face velocities' blocks of rows.  A field that
    # moves one axis (shear and mixed-x along x, y-only along y) is stepped
    # in slabs of that many lines, 3 leaving a shorter last slab, and 32 all
    # lines in one; the swirl moves both axes and is always one slab.  The
    # slabs are shared among 1, 2 or 3 workers
    grid, rho0 = _blob_2d()
    data = CauchyData(field, 0.1 * rho0.values, rho0, 0.25)
    frames, steps, mass_defect = reference_eulerian(data, grid, cfl=0.45, n_frames=5)
    solves = [eulerian_solve(data, grid, cfl=0.45, n_frames=5)]
    monkeypatch.setattr(pde, "BLOCK_CELLS", rows * grid.n)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(pde, "CPUS", cpus)
        solves.append(eulerian_solve(data, grid, cfl=0.45, n_frames=5))
    for traj in solves:
        assert np.array_equal(bits(traj.frames), bits(frames))
        assert bits(traj.meta["mass_defect"]) == bits(mass_defect)
        assert traj.meta["steps"] == steps


def test_more_workers_than_cores_switching_often_are_bit_identical(monkeypatch):
    # 32 slabs of one line on 8 workers, with the interpreter handing the
    # GIL between threads every microsecond: a slab left out, or stepped in
    # a buffer that another worker also uses, would change the frames
    grid, rho0 = _blob_2d()
    data = CauchyData(MIXED_X, 0.1 * rho0.values, rho0, 0.25)
    frames, steps, _ = reference_eulerian(data, grid, cfl=0.45, n_frames=5)
    monkeypatch.setattr(pde, "BLOCK_CELLS", grid.n)
    monkeypatch.setattr(pde, "CPUS", 8)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        traj = eulerian_solve(data, grid, cfl=0.45, n_frames=5)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(bits(traj.frames), bits(frames))
    assert traj.meta["steps"] == steps
    assert threading.active_count() == before


def test_an_error_in_a_helper_reaches_the_caller(monkeypatch):
    # four slabs on two workers: the helper's first slab raises, the
    # caller's slabs do not, and the helper is joined before the error is
    # raised
    grid, rho0 = _blob_2d()
    data = CauchyData(SmoothShear2D(), None, rho0, 0.25)
    flux_ops = pde._flux_ops

    def main_thread_only(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("flux bound in a helper")
        return flux_ops(*args)

    monkeypatch.setattr(pde, "_flux_ops", main_thread_only)
    monkeypatch.setattr(pde, "BLOCK_CELLS", 8 * grid.n)
    monkeypatch.setattr(pde, "CPUS", 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="flux bound in a helper"):
        eulerian_solve(data, grid, cfl=0.45, n_frames=5)
    assert threading.active_count() == before


def test_a_solve_of_one_slab_starts_no_thread(monkeypatch):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    monkeypatch.setattr(pde, "CPUS", 4)
    g1 = Grid(1, 512)
    eulerian_solve(CauchyData(ConstantField([1.0]), None, smooth_1d(g1), 0.1), g1)
    grid, rho0 = _blob_2d(128)  # 2^14 cells, under BLOCK_CELLS
    eulerian_solve(CauchyData(SmoothShear2D(), None, rho0, 0.1), grid)
    grid, rho0 = _blob_2d(256)  # moves both axes: the whole grid is one slab
    eulerian_solve(CauchyData(SwirlField(), None, rho0, 0.01), grid)
    assert started == []
    # two slabs of 128 lines: one helper
    eulerian_solve(CauchyData(SmoothShear2D(), None, rho0, 0.01), grid)
    assert len(started) == 1


@pytest.mark.parametrize("shape", [(1,), (7,), (512, 1), (32, 3), (513, 64)])
def test_lined_buffers_start_on_a_cache_line(shape):
    for _ in range(8):  # whatever offset numpy's allocation lands on
        a = pde._lined(shape)
        assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
        assert a.ctypes.data % 64 == 0


def meshgrid_face_velocities(u, grid):
    """The full-grid meshgrid and stack form that _face_velocities replaced."""
    n, h = grid.n, grid.h
    edges = np.arange(n) * h
    c = grid.axis_centers()
    EX, CY = np.meshgrid(edges, c, indexing="ij")
    ux = np.asarray(u(0.0, np.stack([EX, CY], axis=-1)))[..., 0]
    CX, EY = np.meshgrid(c, edges, indexing="ij")
    uy = np.asarray(u(0.0, np.stack([CX, EY], axis=-1)))[..., 1]
    return ux, uy


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("field", [SmoothShear2D(), SwirlField(), Y_ONLY, MIXED_X, CROSS],
                         ids=lambda fld: fld.name)
def test_face_velocities_by_row_blocks_are_the_full_grid_ones(monkeypatch, field, rows):
    # blocks of 1 or 3 rows (a shorter last block) of 256 cells, or the
    # default BLOCK_CELLS, which 256^2 cells exceed
    grid = Grid(2, 256)
    if rows is not None:
        monkeypatch.setattr(pde, "BLOCK_CELLS", rows * grid.n)
    assert grid.ncells > pde.BLOCK_CELLS
    for got, want in zip(_face_velocities(field, grid), meshgrid_face_velocities(field, grid)):
        assert got.flags.c_contiguous
        assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("field", [SmoothShear2D(), SwirlField(), Y_ONLY, MIXED_X, CROSS],
                         ids=lambda fld: fld.name)
def test_a_component_is_that_of_the_whole_field(field):
    pts = np.random.default_rng(3).uniform(-0.5, 1.5, size=(6, 9, 2))
    strided = np.random.default_rng(4).uniform(-0.5, 1.5, size=(12, 9, 2))[::2]
    for pos in (pts, strided):
        for axis in (0, 1):
            got = np.asarray(field.component(0.0, pos, axis))
            assert got.shape == pos.shape[:-1]
            assert np.array_equal(bits(got), bits(np.asarray(field(0.0, pos))[..., axis]))


def test_face_velocities_evaluate_the_shear_once_per_block_of_rows(monkeypatch):
    grid = Grid(2, 64)
    monkeypatch.setattr(pde, "BLOCK_CELLS", 5 * grid.n)  # 13 blocks, the last of 4 rows
    calls = []
    u1 = SmoothShear2D._u1

    def counted(self, y):
        calls.append(np.shape(y))
        return u1(self, y)

    monkeypatch.setattr(SmoothShear2D, "_u1", counted)
    _face_velocities(SmoothShear2D(), grid)
    assert calls == [(5, 64)] * 12 + [(4, 64)]


def test_stepper_meta_reports_steps_and_dt_max():
    g = Grid(1, 64)
    data = CauchyData(ConstantField([2.0]), None, smooth_1d(g), 1.0)
    traj = eulerian_solve(data, g, cfl=0.5, n_frames=5)
    assert traj.meta["dt_max"] == 0.5 * g.h / 2.0
    assert traj.meta["steps"] == 256  # 64 steps of dt_max per stored interval
