"""The verification harness: eta construction along twin solutions, KR
distance tracking, and the numerical counterparts of every stability
inequality.

Constants that the theory leaves existential (C, C_1, C_2, ...) are never
assumed here: each check fits the smallest admissible constant from the data
and the verdicts only concern sweep-uniformity of those fits.  Reports return
numbers, and a verdict compares one of them with its tolerance.
Exact discrete inequalities (the rate-of-change chain, the truncated-distance
combination bound) are held to float tolerance, not to a statistical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import bounded_log
from .fields import IntegrabilityModulus, VelocityField, default_modulus, psi_one
from .measures import Grid, SignedDensity, lq_norm, mass, mean_zero_projection
from .pde import CauchyData, SolutionTrajectory
from .transport import TransportPlan, potential_gradient_on_support, solve_primal


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = a*x + b; returns (a, b, R^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


# ---------------------------------------------------------------------------
# stability instances and eta trajectories

@dataclass
class StabilityInstance:
    """Two Cauchy problems with conjugate exponents 1/p + 1/q = 1."""

    data1: CauchyData
    data2: CauchyData
    p: float
    q: float

    def __post_init__(self) -> None:
        inv = (0.0 if self.p == math.inf else 1.0 / self.p) + \
              (0.0 if self.q == math.inf else 1.0 / self.q)
        if abs(inv - 1.0) > 1e-12:
            raise ValueError(f"exponents must satisfy 1/p + 1/q = 1, got p={self.p} q={self.q}")

    def perturbation_size(self, grid: Grid) -> float:
        """r = ||u1-u2||_{L^1(L^p)} + ||f1-f2||_{L^1(L^q)} + ||rho0_1-rho0_2||_q
        on a 1-d grid."""
        T = self.data1.horizon
        centers = grid.axis_centers()
        du = np.asarray(self.data1.velocity(0.0, centers)) - \
            np.asarray(self.data2.velocity(0.0, centers))
        u_term = T * lq_norm(SignedDensity(grid, np.abs(du)), self.p)
        df = self._source_difference()
        f_term = 0.0 if df is None else T * lq_norm(SignedDensity(grid, df), self.q)
        rho_term = lq_norm(SignedDensity(
            grid, self.data1.initial.values - self.data2.initial.values), self.q)
        return float(u_term + f_term + rho_term)

    def _source_difference(self) -> np.ndarray | None:
        """f1 - f2 per cell, a missing source counting as zero; None when
        neither problem has a source."""
        f1, f2 = self.data1.source, self.data2.source
        if f1 is None and f2 is None:
            return None
        return (0.0 if f1 is None else f1) - (0.0 if f2 is None else f2)


@dataclass
class EtaTrajectory:
    """Frames of eta(t) = P(rho1(t) - rho2(t) - int_0^t (f1 - f2)), with P the
    mean-zero projection, plus the magnitudes |mass| that P removed.

    eta measures the distance between the two solutions, so eta(0) =
    P(rho0_1 - rho0_2): the initial perturbation, which ``perturbation_size``
    charges to r, is part of what is measured.  The constant P removes is the
    initial mass difference, the same at every frame.
    """

    grid: Grid
    times: np.ndarray
    frames: np.ndarray
    projection_magnitudes: np.ndarray

    def frame(self, k: int) -> SignedDensity:
        return SignedDensity(self.grid, self.frames[k])

    @property
    def n_frames(self) -> int:
        return len(self.times)


def _source_integral(instance: StabilityInstance, t: float):
    """int_0^t (f1 - f2) ds = (f1 - f2) t per cell, the sources being
    constant in time; the scalar 0.0 when neither problem has a source."""
    df = instance._source_difference()
    return 0.0 if df is None else df * t


def build_eta(instance: StabilityInstance, traj1: SolutionTrajectory,
              traj2: SolutionTrajectory) -> EtaTrajectory:
    """eta(t) = P(rho1(t) - rho2(t) - int_0^t (f1 - f2)) at every stored frame;
    see ``EtaTrajectory``."""
    if traj1.grid != traj2.grid:
        raise ValueError("trajectories live on different grids")
    if len(traj1.times) != len(traj2.times) or np.max(np.abs(traj1.times - traj2.times)) > 1e-12:
        raise ValueError("trajectories have different time stamps")
    grid = traj1.grid
    frames, projections = [], []
    for k, t in enumerate(traj1.times):
        raw = traj1.frames[k] - traj2.frames[k] - _source_integral(instance, t)
        eta = SignedDensity(grid, raw)
        projections.append(abs(mass(eta)))
        frames.append(mean_zero_projection(eta).values)
    return EtaTrajectory(grid, traj1.times.copy(), np.stack(frames), np.asarray(projections))


def eta_flux(instance: StabilityInstance, eta: EtaTrajectory,
             traj2: SolutionTrajectory, k: int) -> np.ndarray:
    """The flux j with d_t eta + div j = 0, on the cells of a 1-d grid:
    j = u1*eta + (u1-u2)*rho2 + u1*(mean(drho0) + int_0^t (f1-f2)).

    It follows from d_t rho_i + div(u_i rho_i) = f_i: the constant
    mean(drho0) = mean(rho0_1 - rho0_2) is what P removed from eta, and the
    source integral is the one ``build_eta`` subtracts.
    """
    grid = eta.grid
    t = float(eta.times[k])
    centers = grid.axis_centers()
    u1 = np.asarray(instance.data1.velocity(t, centers))
    u2 = np.asarray(instance.data2.velocity(t, centers))
    drho0_mean = float((instance.data1.initial.values - instance.data2.initial.values).mean())
    offset = drho0_mean + _source_integral(instance, t)
    return u1 * eta.frames[k] + (u1 - u2) * traj2.frames[k] + u1 * offset


def frame_plans(eta: EtaTrajectory, delta: float, radius: float) -> list[TransportPlan]:
    """The optimal plan of every stored frame for D_{delta,R}: one exact
    solve per frame.  A zero frame gets the empty plan, of value 0."""
    spec = bounded_log(delta, radius)
    return [solve_primal(eta.frame(k), spec)[0] for k in range(eta.n_frames)]


def track_kr(plans: list[TransportPlan]) -> np.ndarray:
    """D_{delta,R}(eta(t)) for every stored frame, read off the frame's plan
    (``frame_plans``)."""
    return np.array([plan.value for plan in plans])


# ---------------------------------------------------------------------------
# rate-of-change identity (weak time derivative of the KR distance)

@dataclass
class DerivativeIdentityReport:
    times: np.ndarray
    lhs: np.ndarray          # centered differences of D(t)
    rhs: np.ndarray          # int j . grad(phi_opt) via the plan pairing
    rel_gap: float           # time-integrated |lhs-rhs| / |rhs|


def check_derivative_identity(instance: StabilityInstance, eta: EtaTrajectory,
                              traj2: SolutionTrajectory, delta: float,
                              radius: float) -> DerivativeIdentityReport:
    """Centered-difference dD/dt against the plan-support pairing.

    The right side pairs the flux j of ``eta_flux`` with grad(phi_opt)
    through the marginal identity, evaluated only on the plan support where
    the gradient formula holds; the potential is never differentiated
    off-support.  The identity presumes that eta solves d_t eta + div j = 0
    for that j, i.e. that traj1 and traj2 solve their Cauchy problems.  An
    eta that is the error between two solvers of one problem does not: the
    truncation error acts as a source, and the two sides need not agree.
    """
    if eta.n_frames < 5:
        raise ValueError("need at least 5 stored frames")
    plans = frame_plans(eta, delta, radius)
    D = track_kr(plans)
    hv = eta.grid.cell_volume
    times, lhs, rhs = [], [], []
    for k in range(1, eta.n_frames - 1):
        dt = eta.times[k + 1] - eta.times[k - 1]
        lhs.append((D[k + 1] - D[k - 1]) / dt)
        times.append(eta.times[k])
        j = eta_flux(instance, eta, traj2, k)
        g = potential_gradient_on_support(plans[k])
        # deposit the support gradient at both endpoint cells, mass-averaged
        acc = np.zeros(eta.grid.ncells)
        wts = np.zeros(eta.grid.ncells)
        np.add.at(acc, g.src_cells, g.grad * g.mass)
        np.add.at(acc, g.dst_cells, g.grad * g.mass)
        np.add.at(wts, g.src_cells, g.mass)
        np.add.at(wts, g.dst_cells, g.mass)
        covered = wts > 0
        rhs.append(float((j[covered] * (acc[covered] / wts[covered])).sum() * hv))
    times = np.asarray(times)
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    num = np.trapezoid(np.abs(lhs - rhs), times)
    den = np.trapezoid(np.abs(rhs), times)
    rel = float(num / den) if den > 0 else (0.0 if num == 0 else math.inf)
    return DerivativeIdentityReport(times, lhs, rhs, rel)


# ---------------------------------------------------------------------------
# the three-link rate bound chain

CHAIN_SLACK_TOL = 1e-9  # the chain is exact math: its slack is float rounding only


@dataclass
class RateBoundsReport:
    delta: float
    lhs_pairing: float        # |int u . grad(phi) eta|
    difference_quotient: float  # iint |u(x)-u(y)|/(delta+|x-y|) dpi
    chain_slack: float        # lhs - quotient; <= CHAIN_SLACK_TOL
    over_distance: float      # iint |u(x)-u(y)|/|x-y| dpi (p > 1 route)
    c_l3: float | None        # fitted constant of the Sobolev route
    c_l5: float | None        # fitted constant of the W^{1,1} route
    psi1: float | None


def check_rate_bounds(plan: TransportPlan, u: VelocityField, p: float, q: float,
                      modulus: IntegrabilityModulus | None = None,
                      modulus_integral: float | None = None) -> RateBoundsReport:
    """The rate-of-change chain on ``plan``, an optimal plan of a frame of
    eta for D_{delta,R}; the frame and delta are the plan's."""
    eta_frame, delta = plan.eta, plan.cost.delta
    if plan.n_entries == 0:
        return RateBoundsReport(delta, 0.0, 0.0, 0.0, 0.0, None, None, None)
    g = potential_gradient_on_support(plan)
    du = np.asarray(u(0.0, plan.src_pos[g.src_idx])) - np.asarray(u(0.0, plan.dst_pos[g.dst_idx]))
    pairing = float((g.mass * du * g.grad).sum())
    du_mag = np.abs(du)
    quotient = float((g.mass * du_mag / (delta + g.dist)).sum())
    over_d = float((g.mass * du_mag / g.dist).sum())
    lhs = abs(pairing)
    c_l3 = c_l5 = psi1 = None
    if p > 1:
        denom = lq_norm(eta_frame, q) * u.grad_norm_lp(p)
        if 0 < denom < math.inf:
            c_l3 = over_d / denom
    else:
        modulus = modulus or default_modulus()
        if modulus_integral is not None and modulus_integral < math.inf:
            psi1 = psi_one(modulus, delta)
            denom = psi1 * (lq_norm(eta_frame, 1)
                            + lq_norm(eta_frame, math.inf) * modulus_integral)
            if denom > 0:
                c_l5 = quotient / denom
    return RateBoundsReport(delta, lhs, quotient, lhs - quotient, over_d, c_l3, c_l5, psi1)


# ---------------------------------------------------------------------------
# the main stability estimate

@dataclass
class Prop1Report:
    deltas: np.ndarray
    sup_d: np.ndarray          # sup_t D_{delta,R}(eta(t)) per delta
    r: float
    log_slope: float           # growth of sup_d against log(1/delta)
    log_intercept: float
    r2: float
    c1_joint: float            # minimal constants with the r/delta term
    c2_joint: float
    ratio: float               # max/min of sup_d across the sweep
    short_time_excess: float   # worst |D(t1)-D(t0)| - 2 x extrapolated; -inf if no rise
    eta: EtaTrajectory
    plans: dict[float, list[TransportPlan]]  # frame_plans(eta, delta) by delta


def check_prop1(instance: StabilityInstance, traj1: SolutionTrajectory,
                traj2: SolutionTrajectory, deltas, radius: float) -> Prop1Report:
    """Fits the smallest constants in
    sup_t D <= C1 * psi_p(delta) + (C2/delta) * r across the delta sweep and
    regresses the sweep against log(1/delta); the paper's dichotomy is read
    off the regression slope (the |log delta| coefficient equals the mass
    transported at scale one)."""
    eta = build_eta(instance, traj1, traj2)
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    sup_d = np.zeros(len(deltas))
    short_excess = -math.inf
    plans = {}
    for i, d in enumerate(deltas):
        plans[float(d)] = frame_plans(eta, d, radius)
        series = track_kr(plans[float(d)])
        sup_d[i] = series.max()
        # the change of D from its initial value (zero for equal initial
        # data) vanishes at least linearly as t -> t0
        if len(series) > 2:
            rise1, rise2 = abs(series[1] - series[0]), abs(series[2] - series[0])
            if rise2 > 0:
                t0, t1, t2 = eta.times[0], eta.times[1], eta.times[2]
                extrapolated = rise2 * ((t1 - t0) / (t2 - t0))
                short_excess = max(short_excess, rise1 - 2.0 * extrapolated)
    r = instance.perturbation_size(traj1.grid)
    slope, intercept, r2 = linear_fit(np.log(1.0 / deltas), sup_d)
    psi = np.ones_like(deltas)
    if instance.p == 1:
        modulus = default_modulus()
        psi = np.array([psi_one(modulus, d) for d in deltas])
    if sup_d.max() == 0.0:
        c1_joint = c2_joint = 0.0
    elif r > 0:
        # least max-ratio fit of S <= C1 psi_p + (C2/delta) r: nonnegative
        # least squares for the shape, then inflate to cover every point
        from scipy.optimize import nnls
        X = np.column_stack([psi, r / deltas])
        coef, _ = nnls(X, sup_d)
        pred = X @ coef
        if np.any((pred <= 0) & (sup_d > 0)):
            c1_joint, c2_joint = float((sup_d / psi).max()), 0.0
        else:
            ok = pred > 0
            factor = float(np.max(sup_d[ok] / pred[ok], initial=1.0))
            c1_joint, c2_joint = float(coef[0] * max(factor, 1.0)), \
                float(coef[1] * max(factor, 1.0))
    else:
        c1_joint, c2_joint = float((sup_d / psi).max()), 0.0
    ratio = float(sup_d.max() / sup_d.min()) if sup_d.min() > 0 else math.inf
    return Prop1Report(deltas, sup_d, r, slope, intercept, r2, c1_joint, c2_joint,
                       ratio, short_excess, eta, plans)


# ---------------------------------------------------------------------------
# truncated-distance combination bound and the uniqueness drive

def lemma4_combine(d_val: float, eta_l1: float, eps: float, delta: float,
                   radius: float) -> float:
    """Upper bound delta*exp(D/eps)*||eta||_1 + eps*R + R*D/log(R/delta+1).

    The exponential is evaluated in log space and saturates to +inf instead
    of overflowing.
    """
    if min(eps, delta, radius) <= 0:
        raise ValueError("eps, delta, radius must be positive")
    log_first = math.log(delta) + d_val / eps + (math.log(eta_l1) if eta_l1 > 0 else -math.inf)
    first = math.exp(log_first) if log_first < 700 else math.inf
    return first + eps * radius + radius * d_val / math.log1p(radius / delta)


@dataclass
class UniquenessReport:
    deltas: np.ndarray
    bounds_dr: np.ndarray     # bound on D_R(eta) per delta, eps = 1/sqrt|log delta|
    bounds_w: np.ndarray      # implied bound on ||eta||_{W^-1,1} (R = 1)
    worst_rise: float         # max (b[i+1] - b[i]) / b[i]; -inf for one delta
    reduction: float          # bound(first) / bound(last)


def uniqueness_drive(d_by_delta: dict[float, float], eta_l1: float,
                     radius: float = 1.0) -> UniquenessReport:
    """Replays the uniqueness mechanism: combine the sweep through the
    truncated bound with eps = 1/sqrt(|log delta|) and watch the bound fall."""
    deltas = np.asarray(sorted(d_by_delta, reverse=True), dtype=float)
    bounds = []
    for d in deltas:
        eps = 1.0 / math.sqrt(abs(math.log(d))) if d not in (1.0,) else 1.0
        bounds.append(lemma4_combine(d_by_delta[d], eta_l1, eps, d, radius))
    bounds = np.asarray(bounds)
    # D_1 and the W^{-1,1} norm sandwich within a factor 2 (R = 1)
    bounds_w = 2.0 * bounds
    worst_rise = float(np.max(np.diff(bounds) / np.maximum(bounds[:-1], 1e-300),
                              initial=-math.inf))
    reduction = float(bounds[0] / bounds[-1]) if bounds[-1] > 0 else math.inf
    return UniquenessReport(deltas, bounds, bounds_w, worst_rise, reduction)


# ---------------------------------------------------------------------------
# stability rate in the W^{-1,1} norm

SCHEDULE_SLACK_TOL = 1e-12  # the schedule dominates a norm up to float rounding


@dataclass
class StabilityRateReport:
    rs: np.ndarray
    sup_w: np.ndarray
    fitted_c: np.ndarray        # sup_w * |log r|
    r_star: np.ndarray          # exp(-C_0 / sup_w): the r the calibrated rate needs
    c_growth: float             # max r_star / r; <= 1 under the 1/|log r| rate
    schedule_terms: np.ndarray  # (len(rs), 3): sqrt(r), eps, 1/log(1/r+1)
    dominated: np.ndarray       # measured norm <= sum of schedule terms + SCHEDULE_SLACK_TOL
    min_slack: float            # min over r of the schedule total - measured norm


def stability_rate(rs, sup_w) -> StabilityRateReport:
    """Tests sup_w <= C_0 / |log r| with C_0 calibrated at the largest r.

    r_star_i = exp(-C_0 / sup_w_i) is the perturbation size at which the
    calibrated rate would cover the measured norm; c_growth = max r_star/r
    is how much larger r would have to be.  It is 1 at the largest r, stays
    at or below 1 under the paper's rate, and is not capped by the sweep: a
    norm that does not decay gives r_max / r_min.
    """
    rs = np.asarray(rs, dtype=float)
    sup_w = np.asarray(sup_w, dtype=float)
    logs = np.abs(np.log(rs))
    fitted = sup_w * logs
    c0 = fitted[np.argmax(rs)]
    r_star = np.zeros_like(rs)
    moved = sup_w > 0
    r_star[moved] = np.exp(-c0 / sup_w[moved])
    c_growth = float((r_star / rs).max())
    terms = np.zeros((len(rs), 3))
    for i, r in enumerate(rs):
        eps = 1.0 / abs(math.log(math.sqrt(r)))
        terms[i] = (r * math.exp(1.0 / eps), eps, 1.0 / math.log(1.0 / r + 1.0))
    dominated = sup_w <= terms.sum(axis=1) + SCHEDULE_SLACK_TOL
    return StabilityRateReport(rs, sup_w, fitted, r_star, c_growth, terms, dominated,
                               float((terms.sum(axis=1) - sup_w).min()))
