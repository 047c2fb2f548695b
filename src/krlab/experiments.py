"""The experiment battery behind the CLI.

Each experiment is a pure function of its parameter dict (plus the seed
inside it) and returns an ``ExperimentRecord`` with sweep tables and
verdicts.  Defaults are the acceptance-grade parameters; ``merge_params``
lays given values over them and rejects unknown keys, and
``run_experiment`` hands the merged dict to the experiment.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad

from .cost import bounded_log, cost_eval, cost_sup, truncated_linear
from .estimates import (CHAIN_SLACK_TOL, SCHEDULE_SLACK_TOL, StabilityInstance, build_eta,
                        check_prop1, check_rate_bounds, lemma4_combine, linear_fit,
                        stability_rate, uniqueness_drive)
from .fields import (ConstantField, E1StepField, OscillatoryField, PowerCuspField,
                     SmoothShear2D, default_modulus, modulus_gradient_integral)
from .measures import (Grid, SignedDensity, check_grid_size, density_from_function, lq_norm,
                       mean_zero_projection)
from .pde import CauchyData, SolutionTrajectory, apriori_lq_check, eulerian_solve, \
    lagrangian_solve
from .records import ExperimentRecord
from .transport import (SOLVER_COUNTS, duality_gap, kr_distance, solve_dual, solve_primal,
                        w_neg11_norm)

TWO_PI = 2.0 * math.pi


# parameters that size a Grid, one size or a list of sizes
GRID_SIZE_KEYS = ("n", "n_grid", "apriori_n", "e1_control_n", "control_n", "triple_n",
                  "sandwich_n")
GRID_SIZE_LIST_KEYS = ("sizes", "translation_ns", "agreement_ns")
# the range of each of these parameters, or of every entry of its list, as
# (test, text).  Out of range, a count or a horizon of 0 can pass verdicts on
# no data, and the other values end in a traceback, some after all the work
PARAM_RANGES = {
    "seed": (lambda x: x >= 0, ">= 0"),
    **dict.fromkeys(("n_instances", "n_triples", "n_sandwich", "trials", "ks", "apriori_k"),
                    (lambda x: x >= 1, ">= 1")),
    **dict.fromkeys(("deltas", "radius", "horizon", "horizon_2d"), (lambda x: x > 0, "> 0")),
    **dict.fromkeys(("cfl", "rs"), (lambda x: 0 < x < 1, "in (0, 1)")),
    "n_frames": (lambda x: 2 <= x <= 65, "in [2, 65]"),
}


def _check_number(label: str, x, integer: bool) -> None:
    """Raise ValueError naming ``label`` unless ``x`` is an int, or with
    ``integer`` false a float (never a bool).  A string that parses as a
    float gets the YAML spelling that reads as one."""
    if isinstance(x, int if integer else (int, float)) and not isinstance(x, bool):
        return
    if integer:
        raise ValueError(f"{label} = {x!r}: expected an integer")
    hint = ""
    if isinstance(x, str):
        try:
            float(x)
        except ValueError:
            pass
        else:
            mant, e, exp = x.strip().lower().partition("e")
            if mant.lstrip("+-").isdigit():
                mant += ".0"
            hint = (f"; write it as {mant}{e}{exp}: YAML reads 1e-3, without a dot, "
                    "as a string and 1.0e-3 as a float")
    raise ValueError(f"{label} = {x!r}: expected a number{hint}")


def merge_params(name: str, params: dict | None) -> dict:
    """The defaults of experiment ``name`` with ``params`` laid over them.

    Raises ValueError naming the valid experiments for an unknown name, the
    valid keys for an unknown parameter, the key of a value that is not of
    its default's kind (an integer where the default is one, else a number,
    or a non-empty list of them; a ``*_range`` holds two increasing
    numbers), the key and range of a value outside ``PARAM_RANGES``, a
    report delta outside the sweep or a chain frame outside the stored
    frames, and the nearest powers of two for a grid size that is not one.
    """
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; valid names: "
                         + ", ".join(sorted(EXPERIMENTS)))
    defaults = EXPERIMENTS[name][1]
    unknown = sorted(set(params or {}) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameter keys {unknown} for {name!r}; "
                         f"valid keys: {', '.join(sorted(defaults))}")
    for key, value in (params or {}).items():
        default = defaults[key]
        if not isinstance(default, list):
            _check_number(key, value, isinstance(default, int))
            continue
        if not isinstance(value, list) or not value:
            raise ValueError(f"{key} = {value!r}: expected a non-empty list of numbers")
        for i, x in enumerate(value):
            _check_number(f"{key}[{i}]", x, isinstance(default[0], int))
        if key.endswith("_range") and not (len(value) == 2 and value[0] < value[1]):
            raise ValueError(f"{key} = {value!r}: expected two increasing numbers [low, high]")
    merged = {**defaults, **(params or {})}
    for key, (in_range, text) in PARAM_RANGES.items():
        value = merged.get(key, [])
        if not all(map(in_range, value if isinstance(value, list) else [value])):
            every = "every entry " if isinstance(value, list) else ""
            raise ValueError(f"{key} = {value!r}: {every}must be {text}")
    # e1-example checks the closed form only at deltas it sweeps, and
    # prop1-sweep measures the chain only on frames it stores
    for i, delta in enumerate(merged.get("report_deltas", [])):
        if delta not in merged["deltas"]:
            raise ValueError(f"report_deltas[{i}] = {delta!r} is not in the sweep "
                             f"deltas = {merged['deltas']!r}")
    for i, k in enumerate(merged.get("chain_frames", [])):
        last = merged["n_frames"] - 1
        if not 0 <= k <= last:
            raise ValueError(f"chain_frames[{i}] = {k!r}: must be in [0, {last}], the frames "
                             f"of n_frames = {merged['n_frames']}")
    for key in GRID_SIZE_KEYS:
        if key in merged:
            check_grid_size(f"{key} = {merged[key]!r}", merged[key])
    for key in GRID_SIZE_LIST_KEYS:
        if key in merged:
            for i, n in enumerate(merged[key]):
                check_grid_size(f"{key}[{i}] = {n!r}", n)
    return merged


def random_mean_zero(grid: Grid, rng, smooth: bool = False) -> SignedDensity:
    """A standard normal value per cell of a 1-d grid, projected to mean zero;
    ``smooth`` keeps only the four lowest Fourier modes of the sample."""
    vals = rng.standard_normal(grid.shape)
    if smooth:
        spec = np.fft.rfft(vals)
        spec[4:] = 0.0
        vals = np.fft.irfft(spec, grid.n)
    return mean_zero_projection(SignedDensity(grid, vals))


def step_density(grid: Grid) -> SignedDensity:
    return density_from_function(grid, lambda x: np.where(x < grid.length / 2, 1.0, -1.0))


def _thin(traj: SolutionTrajectory, step: int) -> SolutionTrajectory:
    idx = list(range(0, traj.n_frames, step))
    if idx[-1] != traj.n_frames - 1:
        idx.append(traj.n_frames - 1)
    return SolutionTrajectory(traj.grid, traj.times[idx], traj.frames[idx], dict(traj.meta))


# ---------------------------------------------------------------------------
# transport-selftest

TRANSPORT_SELFTEST_DEFAULTS = {
    "seed": 2024,
    "sizes": [32, 64, 128],
    "n_instances": 50,
    "deltas": [0.2, 0.05, 0.01],
    "radius": 0.5,
    "n_triples": 100,
    "triple_n": 32,
    "n_sandwich": 50,
    "sandwich_n": 64,
}


def run_transport_selftest(p: dict) -> ExperimentRecord:
    rng = np.random.default_rng(p["seed"])
    rec = ExperimentRecord("transport-selftest", p)

    max_gap = max_sat = max_phi_excess = max_slope_excess = 0.0
    for i in range(p["n_instances"]):
        n = p["sizes"][i % len(p["sizes"])]
        delta = p["deltas"][i % len(p["deltas"])]
        grid = Grid(1, n)
        eta = random_mean_zero(grid, rng)
        spec = bounded_log(delta, p["radius"])
        plan, primal = solve_primal(eta, spec)
        pot, dual = solve_dual(plan)
        gap = duality_gap(pot) / (1.0 + abs(primal))
        phi = pot.values.ravel()
        sat = float(np.abs(np.abs(phi[plan.src_cells[plan.src_idx]]
                                  - phi[plan.dst_cells[plan.dst_idx]])
                           - cost_eval(spec, plan.entry_distances())).max())
        phi_excess = float(np.abs(phi).max() - cost_sup(spec))
        slopes = np.abs(np.diff(np.r_[phi, phi[0]])) / grid.h
        slope_excess = float(slopes.max() - 1.0 / delta)
        rec.row("instances", n=n, delta=delta, primal=primal, dual=dual,
                rel_gap=gap, saturation=sat, phi_sup_excess=phi_excess,
                slope_excess=slope_excess)
        max_gap = max(max_gap, gap)
        max_sat = max(max_sat, sat)
        max_phi_excess = max(max_phi_excess, phi_excess)
        max_slope_excess = max(max_slope_excess, slope_excess)
    rec.add("duality-gap-relative", max_gap, 1e-8)
    rec.add("plan-saturates-potential", max_sat, 1e-8)
    rec.add("potential-sup-bound", max_phi_excess, 1e-12,
            detail="||phi||_inf <= log(R/delta+1) + R/(R+delta)")
    rec.add("potential-slope-bound", max_slope_excess, 1e-9,
            detail="neighbor difference quotients <= 1/delta")

    grid3 = Grid(1, p["triple_n"])
    worst_tri = -math.inf
    worst_sym = 0.0
    for i in range(p["n_triples"]):
        a, b, c = (random_mean_zero(grid3, rng) for _ in range(3))
        kind = bounded_log(0.05, p["radius"]) if i % 2 == 0 else truncated_linear(p["radius"])
        dab = kr_distance(SignedDensity(grid3, a.values - b.values), kind)
        dbc = kr_distance(SignedDensity(grid3, b.values - c.values), kind)
        dac = kr_distance(SignedDensity(grid3, a.values - c.values), kind)
        dba = kr_distance(SignedDensity(grid3, b.values - a.values), kind)
        worst_tri = max(worst_tri, dac - dab - dbc)
        worst_sym = max(worst_sym, abs(dab - dba))
        rec.row("triples", i=i, kind=kind.kind.value, d_ab=dab, d_bc=dbc, d_ac=dac,
                violation=dac - dab - dbc)
    rec.add("triangle-inequality", worst_tri, 1e-9)
    rec.add("metric-symmetry", worst_sym, 1e-10)

    gridw = Grid(1, p["sandwich_n"])
    lo_ok, hi_worst = math.inf, -math.inf
    for i in range(p["n_sandwich"]):
        eta = random_mean_zero(gridw, rng)
        d1 = kr_distance(eta, truncated_linear(1.0))
        w = w_neg11_norm(eta)
        lo_ok = min(lo_ok, w - d1)
        hi_worst = max(hi_worst, w - 2.0 * d1)
        rec.row("sandwich", i=i, d1=d1, w_neg11=w)
    rec.add("d1-lower-bounds-w", lo_ok, -1e-9, comparator=">=")
    rec.add("w-below-twice-d1", hi_worst, 1e-9)
    return rec


# ---------------------------------------------------------------------------
# e1-example

E1_DEFAULTS = {
    "n": 4096,
    "deltas": [1e-1, 1e-2, 1e-3, 1e-4],
    "report_deltas": [1e-1, 1e-2],
    "radius": 0.5,
    "rel_tol": 0.02,
}


def run_e1_example(p: dict) -> ExperimentRecord:
    rec = ExperimentRecord("e1-example", p)
    deltas = sorted(p["deltas"], reverse=True)
    grid = Grid(1, p["n"])
    eta = step_density(grid)
    worst_chain = 0.0
    dvals = []
    for delta in deltas:
        spec = bounded_log(delta, p["radius"])
        plan, value = solve_primal(eta, spec)
        report = check_rate_bounds(plan, E1StepField(), p=1.0, q=math.inf)
        integral, chain_slack = report.difference_quotient, report.chain_slack
        closed = 2.0 * math.log(1.0 / (2.0 * delta) + 1.0)
        rel = integral / closed - 1.0
        exact_d = (0.5 + delta) * math.log(0.5 / delta + 1.0) - 0.5
        rec.row("sweep", delta=delta, measured_integral=integral, closed_form=closed,
                rel_error=rel, kr_value=value, kr_continuum=exact_d,
                chain_lhs=report.lhs_pairing, chain_slack=chain_slack)
        worst_chain = max(worst_chain, chain_slack)
        dvals.append(value)
        if delta in p["report_deltas"]:
            rec.add(f"e1-closed-form-delta={delta:g}", abs(rel), p["rel_tol"],
                    detail=f"measured {integral:.4f} vs 2log(1/(2delta)+1) = {closed:.4f}")
    slope, intercept, r2 = linear_fit(np.log(1.0 / np.asarray(deltas)), dvals)
    rec.meta["bv_slope"] = slope
    rec.meta["bv_r2"] = r2
    rec.add("bv-log-growth-slope", slope, 0.3, comparator=">=",
            detail="D_{delta,R}(step) regressed against log(1/delta)")
    rec.add("bv-log-growth-r2", r2, 0.95, comparator=">=")
    rec.add("rate-chain-slack", worst_chain, CHAIN_SLACK_TOL,
            detail="|int u.grad(phi) eta| <= iint |u(x)-u(y)|/(delta+|x-y|) dpi")
    return rec


# ---------------------------------------------------------------------------
# oscillatory-example

OSCILLATORY_DEFAULTS = {
    "ks": [1, 4, 16],
    "horizon": 1.0,
    "n_grid": 2048,
    "l1_agree_tol": 1e-6,
    "w_decay_factor": 3.0,
}


def _oscillatory_l1(k: int, T: float) -> float:
    breaks = [m * math.pi / k for m in range(2 * k + 1)]
    jacobian = OscillatoryField(k).jacobian_point(-T)
    val, _ = quad(lambda y: abs(jacobian(y) - 1.0), 0.0, TWO_PI,
                  points=breaks[1:-1], limit=800, epsabs=1e-11, epsrel=1e-11)
    return val


def run_oscillatory_example(p: dict) -> ExperimentRecord:
    rec = ExperimentRecord("oscillatory-example", p)
    T = p["horizon"]
    grid = Grid(1, p["n_grid"], length=TWO_PI)
    centers = grid.axis_centers()
    l1s, wnorms = [], []
    for k in p["ks"]:
        field = OscillatoryField(k)
        l1 = _oscillatory_l1(k, T)
        rho = np.asarray(field.exact_flow_jacobian(-T, centers))
        eta = mean_zero_projection(SignedDensity(grid, rho - 1.0))
        w = w_neg11_norm(eta)
        sup_dev = float(np.abs(np.asarray(field.exact_flow(T, centers)) - centers).max())
        rec.row("sweep", k=k, l1_norm=l1, w_neg11=w, sup_flow_deviation=sup_dev,
                k_times_dev=k * sup_dev)
        l1s.append(l1)
        wnorms.append(w)
    spread = max(l1s) - min(l1s)
    rec.add("l1-scaling-agreement", spread, p["l1_agree_tol"],
            detail=f"||rho_k(T)-1||_L1 across k={p['ks']}")
    decay = wnorms[0] / wnorms[-1] if wnorms[-1] > 0 else math.inf
    rec.add("w-neg11-decay-factor", decay, p["w_decay_factor"], comparator=">=",
            detail=f"k={p['ks'][0]} vs k={p['ks'][-1]}")
    rec.meta["l1_values"] = l1s
    rec.meta["w_values"] = wnorms
    return rec


# ---------------------------------------------------------------------------
# prop1-sweep (the delta-uniformity dichotomy)

PROP1_DEFAULTS = {
    "n": 256,
    "horizon": 0.5,
    "alpha": 0.6,
    "amp": 0.4,
    "x0": 0.31,
    "deltas": [1e-1, 1e-2, 1e-3, 1e-4],
    "radius": 0.5,
    "n_frames": 33,
    "cfl": 0.5,
    "ode_rtol": 1e-10,
    "sobolev_slope_max": 0.15,
    "e1_control_n": 1024,
    "chain_frames": [4, 12, 20, 28],
    "l5_alpha": 0.25,
}


def _twin_cusp_instance(p: dict):
    grid = Grid(1, p["n"])
    field = PowerCuspField(p["alpha"], x0=p["x0"], amp=p["amp"])
    rho0 = density_from_function(grid, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
    data = CauchyData(field, None, rho0, p["horizon"])
    inst = StabilityInstance(data, CauchyData(field, None, rho0, p["horizon"]), p=2.0, q=2.0)
    traj1 = lagrangian_solve(data, grid, n_frames=p["n_frames"], ode_rtol=p["ode_rtol"])
    traj2 = eulerian_solve(data, grid, cfl=p["cfl"], n_frames=p["n_frames"])
    return grid, field, inst, traj1, traj2


def run_prop1_sweep(p: dict) -> ExperimentRecord:
    rec = ExperimentRecord("prop1-sweep", p)
    grid, field, inst, traj1, traj2 = _twin_cusp_instance(p)
    report = check_prop1(inst, traj1, traj2, p["deltas"], p["radius"])
    eta = report.eta
    for d, s in zip(report.deltas, report.sup_d):
        rec.row("twin_sweep", delta=float(d), sup_d=float(s))
    rec.meta.update(upwind_steps=traj2.meta["steps"],
                    twin_slope=report.log_slope, twin_r2=report.r2,
                    twin_ratio=report.ratio, c1_joint=report.c1_joint,
                    c2_joint=report.c2_joint, r=report.r,
                    eta_l1_sup=max(lq_norm(eta.frame(k), 1) for k in range(eta.n_frames)),
                    div_l1_linf=float(p["horizon"]) * float(np.abs(
                        field.divergence(0.0, grid.axis_centers()[1:])).max()))
    rec.add("sobolev-twin-log-slope", report.log_slope, p["sobolev_slope_max"],
            detail="|log delta| coefficient of sup_t D for the W^{1,2} twin")
    rec.add("short-time-vanishing", report.short_time_excess, 1e-12,
            detail="D(t1) <= 2 x extrapolated D(t2)")

    # exact chain + Sobolev-route constants on selected frames, on the plans
    # that check_prop1 solved for them; a zero frame has no chain rows
    worst_chain = 0.0
    c3_by_delta: dict[float, list[float]] = {}
    for k in p["chain_frames"]:
        if not eta.frames[k].any():
            continue
        for d in p["deltas"]:
            rb = check_rate_bounds(report.plans[d][k], field, p=2.0, q=2.0)
            worst_chain = max(worst_chain, rb.chain_slack)
            if rb.c_l3 is not None:
                c3_by_delta.setdefault(d, []).append(rb.c_l3)
            rec.row("chain", frame=k, delta=d, lhs=rb.lhs_pairing,
                    quotient=rb.difference_quotient, slack=rb.chain_slack, c_l3=rb.c_l3)
    rec.add("rate-chain-slack", worst_chain, CHAIN_SLACK_TOL)
    c3_sweep = [max(v) for v in c3_by_delta.values()]
    if c3_sweep:
        c3_ratio = max(c3_sweep) / min(c3_sweep)
        rec.add("sobolev-route-uniformity", c3_ratio, 2.0,
                detail="max/min fitted L^2-route constant across the delta sweep")

    # W^{1,1}-route constants for a p = 1 cusp on a frozen frame
    l5field = PowerCuspField(p["l5_alpha"], x0=p["x0"], amp=p["amp"])
    modulus = default_modulus()
    e_int = modulus_gradient_integral(l5field, modulus)
    c5_sweep = []
    for d in p["deltas"]:
        rb = check_rate_bounds(report.plans[d][-1], l5field, p=1.0, q=math.inf,
                               modulus=modulus, modulus_integral=e_int)
        if rb.c_l5 is not None:
            c5_sweep.append(rb.c_l5)
            rec.row("l5_route", delta=d, c_l5=rb.c_l5, psi1=rb.psi1)
    if c5_sweep:
        c5_ratio = max(c5_sweep) / min(c5_sweep)
        rec.add("w11-route-uniformity", c5_ratio, 3.0,
                detail="max/min fitted W^{1,1}-route constant across the delta sweep")

    # negative control: the static BV construction
    e1grid = Grid(1, p["e1_control_n"])
    e1 = step_density(e1grid)
    dvals = []
    for d in sorted(p["deltas"], reverse=True):
        spec = bounded_log(d, p["radius"])
        dvals.append(kr_distance(e1, spec))
        rec.row("e1_control", delta=d, sup_d=dvals[-1])
    slope, _, r2 = linear_fit(np.log(1.0 / np.asarray(sorted(p["deltas"], reverse=True))), dvals)
    rec.meta["e1_slope"] = slope
    rec.meta["e1_r2"] = r2
    rec.add("bv-control-slope", slope, 0.3, comparator=">=",
            detail="static step: D grows affinely in log(1/delta)")
    rec.add("bv-control-r2", r2, 0.95, comparator=">=")
    return rec


# ---------------------------------------------------------------------------
# lemma4-suite

LEMMA4_DEFAULTS = {
    "seed": 7,
    "n": 64,
    "radius": 1.0,
    "trials": 20,
    "delta_range": [1e-3, 0.3],
    "eps_range": [0.05, 0.5],
}


def run_lemma4_suite(p: dict) -> ExperimentRecord:
    rng = np.random.default_rng(p["seed"])
    rec = ExperimentRecord("lemma4-suite", p)
    grid = Grid(1, p["n"])
    R = p["radius"]
    worst = math.inf
    for i in range(p["trials"]):
        eta = random_mean_zero(grid, rng, smooth=bool(i % 2))
        delta = math.exp(rng.uniform(math.log(p["delta_range"][0]),
                                     math.log(p["delta_range"][1])))
        eps = rng.uniform(*p["eps_range"])
        d_log = kr_distance(eta, bounded_log(delta, R))
        d_trunc = kr_distance(eta, truncated_linear(R))
        eta_l1 = lq_norm(eta, 1)
        bound = lemma4_combine(d_log, eta_l1, eps, delta, R)
        slack = bound - d_trunc
        worst = min(worst, slack)
        rec.row("trials", i=i, delta=delta, eps=eps, d_log=d_log, d_trunc=d_trunc,
                eta_l1=eta_l1, bound=bound, slack=slack)
    rec.add("truncated-distance-bound", worst, -1e-9, comparator=">=",
            detail="D_R <= delta e^{D/eps} ||eta||_1 + eps R + R D / log(R/delta+1)")
    return rec


# ---------------------------------------------------------------------------
# uniqueness-drive

UNIQUENESS_DEFAULTS = {
    "n": 128,
    "horizon": 1.0,
    "rtol_coarse": 1e-6,
    "rtol_fine": 1e-10,
    "deltas": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
    "radius": 1.0,
    "control_n": 256,
    "min_reduction": 1.5,
}


def run_uniqueness_drive(p: dict) -> ExperimentRecord:
    rec = ExperimentRecord("uniqueness-drive", p)
    grid = Grid(1, p["n"], length=TWO_PI)
    field = OscillatoryField(1)
    rho0 = density_from_function(grid, lambda x: 1.0 + 0.3 * np.sin(x))
    data = CauchyData(field, None, rho0, p["horizon"])
    # twin Lagrangian runs: same instance, two ODE tolerances (no exact flow)
    t1 = lagrangian_solve(data, grid, n_frames=9, ode_rtol=p["rtol_coarse"],
                          ode_atol=p["rtol_coarse"] * 1e-2, use_exact_flow=False)
    t2 = lagrangian_solve(data, grid, n_frames=9, ode_rtol=p["rtol_fine"],
                          ode_atol=p["rtol_fine"] * 1e-2, use_exact_flow=False)
    inst = StabilityInstance(data, CauchyData(field, None, rho0, p["horizon"]), p=2.0, q=2.0)
    eta = build_eta(inst, t1, t2)
    frame = eta.frame(eta.n_frames - 1)
    eta_l1 = lq_norm(frame, 1)
    d_by_delta = {}
    for d in p["deltas"]:
        spec = bounded_log(d, p["radius"])
        d_by_delta[d] = kr_distance(frame, spec) if eta_l1 > 0 else 0.0
    drive = uniqueness_drive(d_by_delta, eta_l1, p["radius"])
    for d, b, bw in zip(drive.deltas, drive.bounds_dr, drive.bounds_w):
        rec.row("twin_drive", delta=float(d), d_value=d_by_delta[float(d)],
                bound_dr=float(b), bound_w=float(bw))
    rec.meta["eta_l1"] = eta_l1
    rec.add("uniqueness-bound-monotone", drive.worst_rise, 1e-12,
            detail="lemma-4 combination decreases along delta -> 0")
    rec.add("uniqueness-bound-reduction", drive.reduction, p["min_reduction"],
            comparator=">=")

    # negative control: BV-scale eta defeats the combination
    cgrid = Grid(1, p["control_n"])
    e1 = step_density(cgrid)
    d_ctrl = {}
    for d in p["deltas"]:
        spec = bounded_log(d, p["radius"])
        d_ctrl[d] = kr_distance(e1, spec)
    ctrl = uniqueness_drive(d_ctrl, lq_norm(e1, 1), p["radius"])
    for d, b in zip(ctrl.deltas, ctrl.bounds_dr):
        rec.row("control_drive", delta=float(d), d_value=d_ctrl[float(d)], bound_dr=float(b))
    growth = float(ctrl.bounds_dr[-1] / ctrl.bounds_dr[0]) if ctrl.bounds_dr[0] > 0 else math.inf
    rec.add("bv-control-bound-grows", growth, 10.0, comparator=">=",
            detail="negative control: bound must NOT decrease for the step")
    return rec


# ---------------------------------------------------------------------------
# stability-rate

STABILITY_DEFAULTS = {
    "n": 256,
    "horizon": 1.0,
    "rs": [1e-2, 1e-3, 1e-4],
    "n_frames": 33,
    "cfl": 0.5,
    "c_growth_max": 3.0,
    "prop1_deltas": [1e-1, 1e-2, 1e-3],
    "radius": 1.0,
}


def _bump(x):
    s = (x - math.pi) / 1.0
    out = np.zeros_like(x)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def run_stability_rate(p: dict) -> ExperimentRecord:
    rec = ExperimentRecord("stability-rate", p)
    grid = Grid(1, p["n"], length=TWO_PI)
    field = OscillatoryField(1)
    base = density_from_function(grid, lambda x: 1.0 + 0.3 * np.sin(x))
    g = _bump(grid.axis_centers())
    g_density = SignedDensity(grid, g)
    g = g / lq_norm(g_density, 2)  # unit L^2 so r is exactly the coefficient
    sup_w, c2s = [], []
    upwind_steps = 0
    for r in p["rs"]:
        rho0_2 = SignedDensity(grid, base.values + r * g)
        data1 = CauchyData(field, None, base, p["horizon"])
        data2 = CauchyData(field, None, rho0_2, p["horizon"])
        inst = StabilityInstance(data1, data2, p=2.0, q=2.0)
        traj1 = eulerian_solve(data1, grid, cfl=p["cfl"], n_frames=p["n_frames"])
        traj2 = eulerian_solve(data2, grid, cfl=p["cfl"], n_frames=p["n_frames"])
        upwind_steps += traj1.meta["steps"] + traj2.meta["steps"]
        eta = build_eta(inst, traj1, traj2)
        norms = [w_neg11_norm(eta.frame(k)) for k in range(eta.n_frames)]
        sup_w.append(max(norms))
        r_measured = inst.perturbation_size(grid)
        prop1 = check_prop1(inst, _thin(traj1, 4), _thin(traj2, 4),
                            p["prop1_deltas"], p["radius"])
        c2s.append(prop1.c2_joint)
        rho2_lq = max(lq_norm(traj2.frame(k), 2) for k in range(traj2.n_frames))
        u1_l1lp = p["horizon"] * math.sqrt(math.pi)  # ||u_1||_{L^1(L^2)} of sin(x)
        rec.row("rate", r=r, r_measured=r_measured, sup_w_neg11=sup_w[-1],
                fitted_c=sup_w[-1] * abs(math.log(r)), c2_joint=prop1.c2_joint,
                c2_normalized=prop1.c2_joint / max(rho2_lq * u1_l1lp, 1e-300))
    rec.meta["upwind_steps"] = upwind_steps
    report = stability_rate(p["rs"], sup_w)
    for i, r in enumerate(p["rs"]):
        t = report.schedule_terms[i]
        rec.row("schedule", r=r, sqrt_r=float(t[0]), eps_term=float(t[1]), log_term=float(t[2]),
                total=float(t.sum()), measured=sup_w[i], dominated=bool(report.dominated[i]),
                r_star=float(report.r_star[i]))
    rec.add("stability-c-growth", report.c_growth, p["c_growth_max"],
            detail="max r*/r, r* = exp(-C0/sup_t ||eta||_W), C0 = sup_t ||eta||_W x |log r| "
                   "at the largest r")
    rec.add("schedule-dominates-norm", report.min_slack, -SCHEDULE_SLACK_TOL, comparator=">=",
            detail="sqrt(r) + eps + 1/log(1/r+1) dominates the measured norm")
    if min(c2s) > 0:
        c2_ratio = max(c2s) / min(c2s)
        rec.add("c2-stability-across-r", c2_ratio, 3.0,
                detail="joint-fit C2 stable across the r sweep")
    return rec


# ---------------------------------------------------------------------------
# pde-convergence

PDE_DEFAULTS = {
    "translation_ns": [64, 128, 256],
    "agreement_ns": [64, 128, 256],
    "horizon_2d": 0.5,
    "cfl": 0.45,
    "apriori_n": 512,
    "apriori_k": 4,
    "mass_tol_scale": 1e-11,
    "error_ratio_max": 0.7,
    "apriori_slack": 0.05,
}


def run_pde_convergence(p: dict) -> ExperimentRecord:
    rec = ExperimentRecord("pde-convergence", p)
    upwind_steps = 0

    # 1-d translation refinement: constant field over one full period
    errs = []
    for n in p["translation_ns"]:
        grid = Grid(1, n)
        rho0 = density_from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
        data = CauchyData(ConstantField([1.0]), None, rho0, 1.0)
        traj = eulerian_solve(data, grid, cfl=p["cfl"], n_frames=9)
        upwind_steps += traj.meta["steps"]
        err = lq_norm(SignedDensity(grid, traj.frames[-1] - rho0.values), 1)
        errs.append(err)
        rec.row("translation", n=n, l1_error=err,
                mass_defect=abs(traj.meta["mass_defect"]))
    worst_ratio = max(errs[i + 1] / errs[i] for i in range(len(errs) - 1))
    rec.add("translation-error-monotone", worst_ratio, 1.0, comparator="<")
    ns = p["translation_ns"]
    h23 = [e / (1.0 / n) ** (2.0 / 3.0) for e, n in zip(errs, ns)]
    rec.add("translation-h23-envelope", max(h23), h23[ns.index(min(ns))] * (1 + 1e-12),
            detail="L1 error <= C h^{2/3} with C fixed by the coarsest run")

    # 2-d Lagrangian/Eulerian agreement under refinement
    field = SmoothShear2D()
    agree = []
    worst_mass = 0.0
    min_rho = math.inf
    for n in p["agreement_ns"]:
        grid = Grid(2, n)
        rho0 = density_from_function(
            grid, lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * X) * (0.5 + 0.5 * np.cos(2 * np.pi * Y)))
        data = CauchyData(field, None, rho0, p["horizon_2d"])
        lag = lagrangian_solve(data, grid, n_frames=5)
        eul = eulerian_solve(data, grid, cfl=p["cfl"], n_frames=5)
        upwind_steps += eul.meta["steps"]
        diff = lq_norm(SignedDensity(grid, lag.frames[-1] - eul.frames[-1]), 1)
        agree.append(diff)
        worst_mass = max(worst_mass, abs(eul.meta["mass_defect"])
                         / (1.0 + lq_norm(rho0, 1)))
        min_rho = min(min_rho, float(eul.frames[-1].min()))
        rec.row("agreement2d", n=n, l1_gap=diff)
    ratios = [agree[i + 1] / agree[i] for i in range(len(agree) - 1)]
    rec.add("lagrangian-eulerian-ratio", max(ratios), p["error_ratio_max"],
            detail="successive L1 gaps on smooth 2-d data")
    rec.add("eulerian-mass-balance", worst_mass, p["mass_tol_scale"],
            detail="|mass change - integrated source| / (1+||rho0||_1)")
    rec.add("upwind-positivity", min_rho, -1e-14, comparator=">=")

    # a-priori L^q bound on the oscillatory and shear instances
    worst_slack = -math.inf
    gridk = Grid(1, p["apriori_n"], length=TWO_PI)
    fieldk = OscillatoryField(p["apriori_k"])
    datak = CauchyData(fieldk, None, density_from_function(gridk, lambda x: np.ones_like(x)), 1.0)
    trajk = eulerian_solve(datak, gridk, cfl=p["cfl"], n_frames=9)
    for q in (1.0, 2.0):
        rep = apriori_lq_check(trajk, datak, q)
        rec.row("apriori", instance="oscillatory", q=q, lhs=rep.lhs, rhs=rep.rhs,
                slack=rep.slack, div_l1_linf=rep.div_l1_linf)
        worst_slack = max(worst_slack, rep.slack)
    grids = Grid(2, p["apriori_n"])
    rho0s = density_from_function(
        grids, lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * X) * (0.5 + 0.5 * np.cos(2 * np.pi * Y)))
    datas = CauchyData(field, None, rho0s, p["horizon_2d"])
    trajs = eulerian_solve(datas, grids, cfl=p["cfl"], n_frames=5)
    rec.meta["upwind_steps"] = upwind_steps + trajk.meta["steps"] + trajs.meta["steps"]
    for q in (1.0, 2.0):
        rep = apriori_lq_check(trajs, datas, q)
        rec.row("apriori", instance="shear2d", q=q, lhs=rep.lhs, rhs=rep.rhs,
                slack=rep.slack, div_l1_linf=rep.div_l1_linf)
        worst_slack = max(worst_slack, rep.slack)
    rec.add("apriori-lq-bound", worst_slack, p["apriori_slack"],
            detail="growth bound with q in {1,2}")
    return rec


EXPERIMENTS = {
    "transport-selftest": (run_transport_selftest, TRANSPORT_SELFTEST_DEFAULTS),
    "e1-example": (run_e1_example, E1_DEFAULTS),
    "oscillatory-example": (run_oscillatory_example, OSCILLATORY_DEFAULTS),
    "prop1-sweep": (run_prop1_sweep, PROP1_DEFAULTS),
    "lemma4-suite": (run_lemma4_suite, LEMMA4_DEFAULTS),
    "uniqueness-drive": (run_uniqueness_drive, UNIQUENESS_DEFAULTS),
    "stability-rate": (run_stability_rate, STABILITY_DEFAULTS),
    "pde-convergence": (run_pde_convergence, PDE_DEFAULTS),
}


def run_experiment(name: str, params: dict | None = None) -> ExperimentRecord:
    p = merge_params(name, params)
    t0 = time.time()
    SOLVER_COUNTS["worst_marginal_defect"] = 0.0  # a maximum over this run, not a total
    before = dict(SOLVER_COUNTS)
    rec = EXPERIMENTS[name][0](p)
    rec.meta["runtime_s"] = round(time.time() - t0, 3)
    rec.meta["transport"] = {key: n - before[key] for key, n in SOLVER_COUNTS.items()}
    return rec
