import math

import numpy as np
import pytest

import krlab.estimates
from krlab import transport
from krlab.cost import bounded_log, truncated_linear
from krlab.estimates import (SCHEDULE_SLACK_TOL, StabilityInstance, build_eta,
                             check_derivative_identity, check_prop1, check_rate_bounds,
                             frame_plans, lemma4_combine, linear_fit, stability_rate, track_kr,
                             uniqueness_drive)
from krlab.fields import ConstantField, OscillatoryField
from krlab.measures import Grid, SignedDensity, density_from_function, lq_norm, \
    mean_zero_projection
from krlab.pde import CauchyData, SolutionTrajectory, eulerian_solve
from krlab.transport import SOLVER_COUNTS, kr_distance, solve_batch, solve_primal

TWO_PI = 2 * math.pi


def test_exponent_validation():
    g = Grid(1, 32)
    rho = density_from_function(g, lambda x: np.ones_like(x))
    data = CauchyData(ConstantField([0.0]), None, rho, 1.0)
    with pytest.raises(ValueError):
        StabilityInstance(data, data, p=2.0, q=3.0)
    StabilityInstance(data, data, p=2.0, q=2.0)
    StabilityInstance(data, data, p=1.0, q=math.inf)
    StabilityInstance(data, data, p=math.inf, q=1.0)


def test_build_eta_identical_data():
    g = Grid(1, 64)
    rho0 = density_from_function(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    data = CauchyData(ConstantField([1.0]), None, rho0, 1.0)
    traj = eulerian_solve(data, g, n_frames=9)
    inst = StabilityInstance(data, data, p=2.0, q=2.0)
    eta = build_eta(inst, traj, traj)
    assert np.abs(eta.frames).max() == 0.0
    assert inst.perturbation_size() == 0.0


def test_build_eta_constant_source_difference():
    # u = 0, f1 - f2 = const: the source integral cancels rho1 - rho2 exactly
    g = Grid(1, 64)
    rho0 = density_from_function(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    d1 = CauchyData(ConstantField([0.0]), np.full(64, 0.7), rho0, 1.0)
    d2 = CauchyData(ConstantField([0.0]), np.full(64, 0.2), rho0, 1.0)
    t1 = eulerian_solve(d1, g, n_frames=9)
    t2 = eulerian_solve(d2, g, n_frames=9)
    inst = StabilityInstance(d1, d2, p=2.0, q=2.0)
    eta = build_eta(inst, t1, t2)
    assert np.abs(eta.frames).max() < 1e-13
    assert eta.meta["projection_magnitudes"].max() < 1e-13


def test_build_eta_initial_perturbation_triangle():
    g = Grid(1, 128)
    rho0 = density_from_function(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    bump = density_from_function(g, lambda x: np.exp(-np.sin(np.pi * x) ** 2 * 40))
    rho0b = SignedDensity(g, rho0.values + 0.1 * bump.values)
    d1 = CauchyData(ConstantField([1.0]), None, rho0, 0.5)
    d2 = CauchyData(ConstantField([1.0]), None, rho0b, 0.5)
    t1 = eulerian_solve(d1, g, n_frames=9)
    t2 = eulerian_solve(d2, g, n_frames=9)
    inst = StabilityInstance(d1, d2, p=2.0, q=2.0)
    eta = build_eta(inst, t1, t2)
    # eta(0) = P(rho0_1 - rho0_2): the initial perturbation is measured
    drho0 = mean_zero_projection(SignedDensity(g, rho0.values - rho0b.values))
    assert np.abs(eta.frames[0] - drho0.values).max() < 1e-14
    drho = lq_norm(SignedDensity(g, rho0.values - rho0b.values), 1)
    for k in range(eta.n_frames):
        rho_diff = lq_norm(SignedDensity(g, t1.frames[k] - t2.frames[k]), 1)
        assert lq_norm(eta.frame(k), 1) <= rho_diff + drho + 1e-12


def test_build_eta_rejects_mismatched_grids():
    g1, g2 = Grid(1, 64), Grid(1, 32)
    rho1 = density_from_function(g1, lambda x: np.ones_like(x))
    rho2 = density_from_function(g2, lambda x: np.ones_like(x))
    d1 = CauchyData(ConstantField([0.0]), None, rho1, 1.0)
    d2 = CauchyData(ConstantField([0.0]), None, rho2, 1.0)
    t1 = eulerian_solve(d1, g1, n_frames=5)
    t2 = eulerian_solve(d2, g2, n_frames=5)
    inst = StabilityInstance(d1, d1, p=2.0, q=2.0)
    with pytest.raises(ValueError):
        build_eta(inst, t1, t2)


def test_track_kr_frozen_step():
    # frozen eta: the series is constant and equals the step's distance
    g = Grid(1, 256)
    step = density_from_function(g, lambda x: np.where(x < 0.5, 1.0, -1.0))
    d = CauchyData(ConstantField([0.0]), None, step, 1.0)
    traj = eulerian_solve(d, g, n_frames=5)
    inst = StabilityInstance(d, CauchyData(ConstantField([0.0]), None,
                                           SignedDensity(g, np.zeros(256)), 1.0),
                             p=2.0, q=2.0)
    eta = build_eta(inst, traj, eulerian_solve(inst.data2, g, n_frames=5))
    series = track_kr(frame_plans(eta, [0.01], 0.5)[0.01])
    direct = kr_distance(mean_zero_projection(step), bounded_log(0.01, 0.5))
    assert np.allclose(series, direct, rtol=1e-12)


def test_rate_bounds_constant_field():
    g = Grid(1, 64)
    rng = np.random.default_rng(3)
    eta = mean_zero_projection(SignedDensity(g, rng.standard_normal(64)))
    plan, _ = solve_primal(eta, bounded_log(0.05, 0.5))
    rep = check_rate_bounds(plan, ConstantField([2.0]), p=2.0, q=2.0)
    assert rep.lhs_pairing == 0.0
    assert rep.difference_quotient == 0.0


def test_rate_bounds_chain_random():
    g = Grid(1, 128, length=TWO_PI)
    rng = np.random.default_rng(4)
    u = OscillatoryField(2)
    for _ in range(5):
        eta = mean_zero_projection(SignedDensity(g, rng.standard_normal(128)))
        rep = check_rate_bounds(solve_primal(eta, bounded_log(0.05, 1.0))[0], u, p=2.0, q=2.0)
        assert rep.chain_slack <= 1e-9
        assert rep.c_l3 is not None and rep.c_l3 > 0


def test_lemma4_two_atom_closed_form():
    # everything in closed form for a two-atom density
    g = Grid(1, 64)
    v = np.zeros(64)
    i, j = 10, 29
    v[i], v[j] = 1.0 / g.h, -1.0 / g.h   # masses +-1
    eta = SignedDensity(g, v)
    dist = (j - i) * g.h
    delta, radius, eps = 0.01, 1.0, 0.2
    d_log = kr_distance(eta, bounded_log(delta, radius))
    assert d_log == pytest.approx(math.log(dist / delta + 1.0), rel=1e-12)
    d_trunc = kr_distance(eta, truncated_linear(radius))
    assert d_trunc == pytest.approx(dist, rel=1e-12)
    bound = lemma4_combine(d_log, lq_norm(eta, 1), eps, delta, radius)
    expected = delta * math.exp(d_log / eps) * 2.0 + eps * radius \
        + radius * d_log / math.log(radius / delta + 1.0)
    assert bound == pytest.approx(expected, rel=1e-12)
    assert d_trunc <= bound + 1e-9


def test_lemma4_zero_density():
    bound = lemma4_combine(0.0, 0.0, 0.2, 0.01, 1.0)
    assert bound == pytest.approx(0.2 * 1.0)


def test_lemma4_overflow_guard():
    bound = lemma4_combine(50.0, 1.0, 1e-3, 0.01, 1.0)
    assert math.isinf(bound)
    with pytest.raises(ValueError):
        lemma4_combine(1.0, 1.0, -0.1, 0.01, 1.0)


def test_uniqueness_drive_synthetic():
    # D(delta) = m log(dbar/delta + 1) with tiny mass: bounds fall; the
    # BV-scale coefficient makes them explode
    deltas = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    small = {d: 1e-6 * math.log(0.01 / d + 1.0) for d in deltas}
    drive = uniqueness_drive(small, eta_l1=2e-6)
    assert drive.worst_rise <= 1e-12
    assert drive.reduction > 1.5
    big = {d: 0.5 * abs(math.log(d)) for d in deltas}
    ctrl = uniqueness_drive(big, eta_l1=1.0)
    assert ctrl.worst_rise > 1e-12
    assert ctrl.bounds_dr[-1] > 10 * ctrl.bounds_dr[0]


def test_stability_rate_synthetic():
    rs = [1e-2, 1e-3, 1e-4]
    report = stability_rate(rs, [0.3 * r for r in rs])
    assert report.c_growth <= 1.0 + 1e-12
    assert report.dominated.all()
    # slower-than-1/log decay must register as growth
    bad = stability_rate(rs, [0.05, 0.04, 0.035])
    assert bad.c_growth > 3.0


def test_dominated_is_the_slack_against_the_schedule_tolerance():
    rs = [1e-2, 1e-3, 1e-4]
    total = stability_rate(rs, [0.0, 0.0, 0.0]).schedule_terms.sum(axis=1)
    report = stability_rate(rs, [total[0], total[1] + 0.5 * SCHEDULE_SLACK_TOL,
                                 total[2] + 2.0 * SCHEDULE_SLACK_TOL])
    slack = report.schedule_terms.sum(axis=1) - report.sup_w
    assert report.dominated.tolist() == (slack >= -SCHEDULE_SLACK_TOL).tolist()
    assert report.dominated.tolist() == [True, True, False]
    assert report.min_slack == slack.min()


def test_linear_fit_exact_line():
    slope, intercept, r2 = linear_fit([0, 1, 2, 3], [1, 3, 5, 7])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def _upwind_twin():
    """Twin upwind runs of one oscillatory field, the second from rho0 plus a
    small smooth bump of nonzero mass; eta solves the continuity equation
    with the flux u * (eta + mean(drho0)) that eta_flux returns."""
    g = Grid(1, 64, length=TWO_PI)
    field = OscillatoryField(1)
    rho0 = density_from_function(g, lambda x: 1.0 + 0.3 * np.sin(x))
    bump = density_from_function(g, lambda x: np.exp(-(x - 2.0) ** 2))
    rho0b = SignedDensity(g, rho0.values + 0.05 * bump.values)
    d1 = CauchyData(field, None, rho0, 1.0)
    d2 = CauchyData(field, None, rho0b, 1.0)
    t1 = eulerian_solve(d1, g, cfl=0.5, n_frames=17)
    t2 = eulerian_solve(d2, g, cfl=0.5, n_frames=17)
    inst = StabilityInstance(d1, d2, p=2.0, q=2.0)
    return inst, build_eta(inst, t1, t2), t2


def test_derivative_identity_twin():
    inst, eta, t2 = _upwind_twin()
    rep = check_derivative_identity(inst, eta, t2, delta=0.05, radius=math.pi)
    # the pairing and dD/dt agree up to the upwind discretization error
    assert rep.rel_gap < 0.6
    assert np.isfinite(rep.lhs).all() and np.isfinite(rep.rhs).all()


def test_derivative_identity_solves_each_frame_once(monkeypatch):
    inst, eta, t2 = _upwind_twin()
    calls = []

    def counted(batch):
        calls.extend(spec for _, spec in batch)
        return solve_batch(batch)

    monkeypatch.setattr(krlab.estimates, "solve_batch", counted)
    rep = check_derivative_identity(inst, eta, t2, delta=0.05, radius=math.pi)
    nonzero = sum(bool(np.abs(eta.frames[k]).max() > 0) for k in range(eta.n_frames))
    assert nonzero == eta.n_frames
    assert len(calls) == nonzero
    # the same value as when each interior frame was solved a second time
    assert rep.rel_gap == pytest.approx(0.06428890712575, rel=1e-10)
    D = track_kr(frame_plans(eta, [0.05], math.pi)[0.05])
    assert np.array_equal(rep.lhs, (D[2:] - D[:-2]) / (eta.times[2:] - eta.times[:-2]))


def _rate_bounds_frames():
    g = Grid(1, 64)
    rng = np.random.default_rng(5)
    return [mean_zero_projection(SignedDensity(g, rng.standard_normal(64))) for _ in range(2)]


def test_rate_bounds_reuses_a_matching_plan():
    # the frame and delta are read off the plan, which is solved once
    eta, _ = _rate_bounds_frames()
    u = OscillatoryField(2)
    plan, _ = solve_primal(eta, bounded_log(0.05, 0.5))
    counts = dict(SOLVER_COUNTS)
    reused = check_rate_bounds(plan, u, p=2.0, q=2.0)
    assert SOLVER_COUNTS == counts
    assert reused == check_rate_bounds(solve_primal(eta, bounded_log(0.05, 0.5))[0], u,
                                       p=2.0, q=2.0)
    assert reused.delta == 0.05 and reused.c_l3 is not None


def test_track_kr_reads_values_off_matching_plans():
    _, eta, _ = _upwind_twin()
    plans = frame_plans(eta, [0.05], math.pi)[0.05]
    direct = [kr_distance(eta.frame(k), bounded_log(0.05, math.pi))
              for k in range(eta.n_frames)]
    assert np.array_equal(track_kr(plans), direct)


def test_check_prop1_carries_the_plans_it_solved():
    inst, eta, _ = _upwind_twin()
    rep = check_prop1(inst, eta, [0.1, 0.01], math.pi)
    assert sorted(rep.plans) == [0.01, 0.1]
    for i, d in enumerate(rep.deltas):
        plans = rep.plans[d]
        assert len(plans) == eta.n_frames
        for k, plan in enumerate(plans):
            # each plan carries the frame and the cost it was solved for
            assert np.array_equal(plan.eta.values.view(np.uint64),
                                  eta.frames[k].view(np.uint64))
            assert plan.cost.delta == d
        assert track_kr(plans).max() == rep.sup_d[i]


def spy_densities(monkeypatch):
    """The number of densities given to each level pass, one entry a pass."""
    densities = []
    real = transport._density_levels
    monkeypatch.setattr(transport, "_density_levels",
                        lambda *args: densities.append(len(args[4])) or real(*args))
    return densities


def test_check_prop1_finds_each_frames_levels_once(monkeypatch):
    # one batch over every (delta, frame): the level pass sees each nonzero
    # frame once, however many deltas it is solved for
    inst, eta, _ = _upwind_twin()
    densities = spy_densities(monkeypatch)
    check_prop1(inst, eta, [0.1, 0.01, 0.001], math.pi)
    assert sum(densities) == sum(bool(frame.any()) for frame in eta.frames) == eta.n_frames


def test_frame_plans_solve_every_delta_of_the_nonzero_frames(monkeypatch):
    _, eta, _ = _upwind_twin()
    frames = eta.frames.copy()
    frames[[0, 5]] = 0.0
    eta = SolutionTrajectory(eta.grid, eta.times, frames, eta.meta)
    densities = spy_densities(monkeypatch)
    plans = frame_plans(eta, [0.1, 0.01], math.pi)
    assert sum(densities) == eta.n_frames - 2
    assert sorted(plans) == [0.01, 0.1]
    for d, by_frame in plans.items():
        assert [plan.value for plan in by_frame] == [
            kr_distance(eta.frame(k), bounded_log(d, math.pi)) for k in range(eta.n_frames)]
        assert by_frame[0].n_entries == by_frame[5].n_entries == 0


def test_check_prop1_zero_twin():
    g = Grid(1, 64)
    rho0 = density_from_function(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    data = CauchyData(ConstantField([1.0]), None, rho0, 0.5)
    traj = eulerian_solve(data, g, n_frames=9)
    inst = StabilityInstance(data, data, p=2.0, q=2.0)
    eta = build_eta(inst, traj, traj)
    counts = dict(SOLVER_COUNTS)
    rep = check_prop1(inst, eta, [1e-1, 1e-2], 0.5)
    assert rep.sup_d.max() == 0.0
    assert rep.c1_joint == 0.0 and rep.c2_joint == 0.0
    # every frame is zero: each gets the empty plan, and none is an instance
    assert all(plan.n_entries == 0 and plan.value == 0.0
               for plans in rep.plans.values() for plan in plans)
    assert SOLVER_COUNTS == counts
