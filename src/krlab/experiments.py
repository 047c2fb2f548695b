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

from .cost import bounded_log, cost_eval, cost_sup, truncated_linear
from .estimates import (CHAIN_SLACK_TOL, SCHEDULE_SLACK_TOL, StabilityInstance, build_eta,
                        check_prop1, check_rate_bounds, lemma4_combine, linear_fit, ratio,
                        stability_rate, uniqueness_drive)
from .fields import (TWO_PI, ConstantField, E1StepField, OscillatoryField, PowerCuspField,
                     SmoothShear2D, _bump_f, gauss_legendre)
from .measures import (Grid, SignedDensity, check_grid_size, density_from_function, lq_norm,
                       mean_zero_projection)
from .pde import CauchyData, SolutionTrajectory, apriori_lq_check, eulerian_solve, \
    lagrangian_solve
from .records import ExperimentRecord
from .transport import (SOLVER_COUNTS, duality_gap, kr_distances, solve_batch, solve_dual,
                        w_neg11_norms)
# bound here too: the benchmark's tracer tests (perfbench/test_perfbench.py)
# call them through this module
from .transport import kr_distance, solve_primal  # noqa: F401


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
    **dict.fromkeys(("deltas", "prop1_deltas", "delta_range", "eps_range", "radius", "horizon",
                     "horizon_2d", "ode_rtol", "rtol_coarse", "rtol_fine"),
                    (lambda x: 0 < x < math.inf, "finite and > 0")),
    **dict.fromkeys(("cfl", "rs", "l5_alpha"), (lambda x: 0 < x < 1, "in (0, 1)")),
    "n_frames": (lambda x: 2 <= x <= 65, "in [2, 65]"),
    # prop1-sweep's cusp: its twin is W^{1,2}, and the gradient of
    # |x - x0|^alpha is in L^2 only for alpha > 1/2 (else the L^2-route
    # constants read NaN); amp 0 is a field that moves nothing, whose route
    # constants read NaN; every finite x0 gives the same cusp, shifted
    "alpha": (lambda x: 0.5 < x < 1, "in (1/2, 1)"),
    "amp": (lambda x: 0 < x < math.inf, "finite and > 0"),
    "x0": (math.isfinite, "finite"),
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
    numbers), the key and range of a value outside ``PARAM_RANGES``, the
    key of a sweep with fewer than two values or a repeated one, a report delta
    outside the sweep or a chain frame outside the stored frames, and the
    nearest powers of two for a grid size that is not one.
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
    # a fit or a ratio across a sweep reads two distinct values of it at
    # least, and each entry as a new point; transport-selftest's deltas only
    # cycle over its instances
    for key in ("deltas", "rs", "prop1_deltas", "ks", "translation_ns", "agreement_ns"):
        if key in merged and name != "transport-selftest" and (
                len(set(merged[key])) < max(2, len(merged[key]))):
            raise ValueError(f"{key} = {merged[key]!r}: a sweep needs at least two distinct "
                             "values, each once, which its fit or ratio reads")
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


def _spread(values) -> float:
    """max/min of a sweep's constants for a uniformity verdict: NaN with no
    values (or a NaN among them) and inf for a minimum <= 0, so the verdict
    FAILs on either."""
    if len(values) == 0:
        return math.nan
    return ratio(np.max(values), np.min(values))


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
    """Every ``step``-th frame and the last; ``traj.meta`` describes all
    the frames, so it is not carried."""
    idx = list(range(0, traj.n_frames, step))
    if idx[-1] != traj.n_frames - 1:
        idx.append(traj.n_frames - 1)
    return SolutionTrajectory(traj.grid, traj.times[idx], traj.frames[idx])


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

    instances = [(random_mean_zero(Grid(1, p["sizes"][i % len(p["sizes"])]), rng),
                  bounded_log(p["deltas"][i % len(p["deltas"])], p["radius"]))
                 for i in range(p["n_instances"])]
    for (eta, spec), (plan, primal) in zip(instances, solve_batch(instances)):
        grid, n, delta = eta.grid, eta.grid.n, spec.delta
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

    def worst(key):
        return np.max(rec.column("instances", key), initial=0.0)
    rec.add("duality-gap-relative", worst("rel_gap"), 1e-8)
    rec.add("plan-saturates-potential", worst("saturation"), 1e-8)
    rec.add("potential-sup-bound", worst("phi_sup_excess"), 1e-12,
            detail="||phi||_inf <= log(R/delta+1) + R/(R+delta)")
    rec.add("potential-slope-bound", worst("slope_excess"), 1e-9,
            detail="neighbor difference quotients <= 1/delta")

    grid3 = Grid(1, p["triple_n"])
    worst_sym = 0.0
    kinds, pairs = [], []
    for i in range(p["n_triples"]):
        a, b, c = (random_mean_zero(grid3, rng) for _ in range(3))
        kinds.append(bounded_log(0.05, p["radius"]) if i % 2 == 0
                     else truncated_linear(p["radius"]))
        pairs += [(SignedDensity(grid3, x.values - y.values), kinds[-1])
                  for x, y in ((a, b), (b, c), (a, c), (b, a))]
    d = kr_distances(pairs)
    for i, kind in enumerate(kinds):
        dab, dbc, dac, dba = d[4 * i:4 * i + 4]
        worst_sym = np.maximum(worst_sym, abs(dab - dba))
        rec.row("triples", i=i, kind=kind.kind.value, d_ab=dab, d_bc=dbc, d_ac=dac,
                violation=dac - dab - dbc)
    rec.add("triangle-inequality", np.max(rec.column("triples", "violation"), initial=-math.inf),
            1e-9)
    rec.add("metric-symmetry", worst_sym, 1e-10)

    gridw = Grid(1, p["sandwich_n"])
    etas = [random_mean_zero(gridw, rng) for _ in range(p["n_sandwich"])]
    d1s = kr_distances([(eta, truncated_linear(1.0)) for eta in etas])
    for i, (d1, w) in enumerate(zip(d1s, w_neg11_norms(etas))):
        rec.row("sandwich", i=i, d1=d1, w_neg11=w)
    d1, w = rec.column("sandwich", "d1"), rec.column("sandwich", "w_neg11")
    rec.add("d1-lower-bounds-w", np.min(w - d1, initial=math.inf), -1e-9, comparator=">=")
    rec.add("w-below-twice-d1", np.max(w - 2.0 * d1, initial=-math.inf), 1e-9)
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
    solved = solve_batch([(eta, bounded_log(delta, p["radius"])) for delta in deltas])
    for delta, (plan, value) in zip(deltas, solved):
        report = check_rate_bounds(plan, E1StepField(), p=1.0, q=math.inf)
        integral, chain_slack = report.difference_quotient, report.chain_slack
        closed = 2.0 * math.log(1.0 / (2.0 * delta) + 1.0)
        rel = integral / closed - 1.0
        exact_d = (0.5 + delta) * math.log(0.5 / delta + 1.0) - 0.5
        rec.row("sweep", delta=delta, measured_integral=integral, closed_form=closed,
                rel_error=rel, kr_value=value, kr_continuum=exact_d,
                chain_lhs=report.lhs_pairing, chain_slack=chain_slack)
        if delta in p["report_deltas"]:
            rec.add(f"e1-closed-form-delta={delta:g}", abs(rel), p["rel_tol"],
                    detail=f"measured {integral:.4f} vs 2log(1/(2delta)+1) = {closed:.4f}")
    slope, _, r2 = linear_fit(np.log(1.0 / np.asarray(deltas)), rec.column("sweep", "kr_value"))
    rec.add("bv-log-growth-slope", slope, 0.3, comparator=">=",
            detail="D_{delta,R}(step) regressed against log(1/delta)")
    rec.add("bv-log-growth-r2", r2, 0.95, comparator=">=")
    rec.add("rate-chain-slack", np.max(rec.column("sweep", "chain_slack"), initial=0.0),
            CHAIN_SLACK_TOL, detail="|int u.grad(phi) eta| <= iint |u(x)-u(y)|/(delta+|x-y|) dpi")
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
    """||rho_k(T) - 1||_{L^1}, rho_k(T) = J(-T, .): the fixed rule on the 4k
    pieces of [0, 2 pi] between the cell edges m pi/k and the points where
    J = 1, at tan(z/2) = e^(T/2) in even cells and e^(-T/2) in odd ones
    (z = k y - m pi)."""
    m = np.arange(2 * k)
    cells = m * math.pi
    ones = cells + 2.0 * np.arctan(np.exp(0.5 * T * (-1.0) ** m))
    edges = np.sort(np.r_[cells, ones, 2 * k * math.pi]) / k
    jacobian = OscillatoryField(k).exact_flow_jacobian
    return gauss_legendre(lambda y: np.abs(jacobian(-T, y) - 1.0), edges)


def run_oscillatory_example(p: dict) -> ExperimentRecord:
    rec = ExperimentRecord("oscillatory-example", p)
    T = p["horizon"]
    grid = Grid(1, p["n_grid"], length=TWO_PI)
    centers = grid.axis_centers()
    fields = [OscillatoryField(k) for k in p["ks"]]
    wnorms = w_neg11_norms([
        mean_zero_projection(SignedDensity(grid, np.asarray(field.exact_flow_jacobian(-T, centers))
                                           - 1.0)) for field in fields])
    for k, field, w in zip(p["ks"], fields, wnorms):
        l1 = _oscillatory_l1(k, T)
        sup_dev = float(np.abs(np.asarray(field.exact_flow(T, centers)) - centers).max())
        rec.row("sweep", k=k, l1_norm=l1, w_neg11=w, sup_flow_deviation=sup_dev,
                k_times_dev=k * sup_dev)
    # the integral of J - 1 between its sign changes is the flow's
    # displacement there, the same for every k
    exact = 8.0 * (math.atan(math.exp(0.5 * T)) - math.atan(math.exp(-0.5 * T)))
    rec.add("l1-scaling-agreement", np.max(np.abs(rec.column("sweep", "l1_norm") - exact)),
            p["l1_agree_tol"],
            detail=f"||rho_k(T)-1||_L1 at k={p['ks']} vs 8(atan e^(T/2) - atan e^(-T/2)) "
                   f"= {exact:.6f}")
    rec.add("w-neg11-decay-factor", ratio(wnorms[0], wnorms[-1]), p["w_decay_factor"],
            comparator=">=", detail=f"k={p['ks'][0]} vs k={p['ks'][-1]}")
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
    inst = StabilityInstance(data, data, p=2.0, q=2.0)
    traj1 = lagrangian_solve(data, grid, n_frames=p["n_frames"], ode_rtol=p["ode_rtol"])
    traj2 = eulerian_solve(data, grid, cfl=p["cfl"], n_frames=p["n_frames"])
    return grid, field, inst, traj1, traj2


def run_prop1_sweep(p: dict) -> ExperimentRecord:
    rec = ExperimentRecord("prop1-sweep", p)
    grid, field, inst, traj1, traj2 = _twin_cusp_instance(p)
    eta = build_eta(inst, traj1, traj2)
    report = check_prop1(inst, eta, p["deltas"], p["radius"])
    for d, s in zip(report.deltas, report.sup_d):
        rec.row("twin_sweep", delta=float(d), sup_d=float(s))
    rec.meta.update(upwind_steps=traj2.meta["steps"], ode_nfev=traj1.meta["nfev"],
                    twin_r2=report.r2, twin_ratio=report.ratio, c1_joint=report.c1_joint,
                    c2_joint=report.c2_joint, r=report.r,
                    eta_l1_sup=max(lq_norm(eta.frame(k), 1) for k in range(eta.n_frames)),
                    div_l1_linf=float(p["horizon"]) * float(np.abs(
                        field.divergence(0.0, grid.axis_centers()[1:])).max()))
    rec.add("sobolev-twin-log-slope", report.log_slope, p["sobolev_slope_max"],
            detail="|log delta| coefficient of sup_t D for the W^{1,2} twin")
    rec.add("short-time-vanishing", report.short_time_excess, 1e-12,
            detail="D(t1) <= 2 x extrapolated D(t2)")

    # exact chain + Sobolev-route constants on selected frames, on the plans
    # that check_prop1 solved for them; a zero frame has no chain rows, and
    # with no rows the chain and route verdicts read NaN
    c3_by_delta: dict[float, list[float]] = {}
    for k in p["chain_frames"]:
        if not eta.frames[k].any():
            continue
        for d in p["deltas"]:
            rb = check_rate_bounds(report.plans[d][k], field, p=2.0, q=2.0)
            if rb.c_l3 is not None:
                c3_by_delta.setdefault(d, []).append(rb.c_l3)
            rec.row("chain", frame=k, delta=d, lhs=rb.lhs_pairing,
                    quotient=rb.difference_quotient, slack=rb.chain_slack, c_l3=rb.c_l3)
    rec.add("rate-chain-slack", np.max(rec.column("chain", "slack"), initial=0.0)
            if "chain" in rec.tables else math.nan, CHAIN_SLACK_TOL)
    rec.add("sobolev-route-uniformity", _spread([np.max(v) for v in c3_by_delta.values()]), 2.0,
            detail="max/min fitted L^2-route constant across the delta sweep")

    # W^{1,1}-route constants for a p = 1 cusp on a frozen frame
    l5field = PowerCuspField(p["l5_alpha"], x0=p["x0"], amp=p["amp"])
    e_int = l5field.modulus_integral()
    for d in p["deltas"]:
        rb = check_rate_bounds(report.plans[d][-1], l5field, p=1.0, q=math.inf,
                               modulus_integral=e_int)
        if rb.c_l5 is not None:
            rec.row("l5_route", delta=d, c_l5=rb.c_l5, psi1=rb.psi1)
    rec.add("w11-route-uniformity", _spread(rec.column("l5_route", "c_l5")), 3.0,
            detail="max/min fitted W^{1,1}-route constant across the delta sweep")

    # negative control: the static BV construction
    e1 = step_density(Grid(1, p["e1_control_n"]))
    control = sorted(p["deltas"], reverse=True)
    dvals = kr_distances([(e1, bounded_log(d, p["radius"])) for d in control])
    for d, value in zip(control, dvals):
        rec.row("e1_control", delta=d, sup_d=value)
    slope, _, r2 = linear_fit(np.log(1.0 / np.asarray(control)), dvals)
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
    trials = []
    for i in range(p["trials"]):
        eta = random_mean_zero(grid, rng, smooth=bool(i % 2))
        delta = math.exp(rng.uniform(math.log(p["delta_range"][0]),
                                     math.log(p["delta_range"][1])))
        trials.append((eta, delta, rng.uniform(*p["eps_range"])))
    d = kr_distances([(eta, spec) for eta, delta, _ in trials
                      for spec in (bounded_log(delta, R), truncated_linear(R))])
    for i, (eta, delta, eps) in enumerate(trials):
        d_log, d_trunc = d[2 * i:2 * i + 2]
        eta_l1 = lq_norm(eta, 1)
        bound = lemma4_combine(d_log, eta_l1, eps, delta, R)
        rec.row("trials", i=i, delta=delta, eps=eps, d_log=d_log, d_trunc=d_trunc,
                eta_l1=eta_l1, bound=bound, slack=bound - d_trunc)
    rec.add("truncated-distance-bound", np.min(rec.column("trials", "slack"), initial=math.inf),
            -1e-9, comparator=">=",
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
    inst = StabilityInstance(data, data, p=2.0, q=2.0)
    eta = build_eta(inst, t1, t2)
    frame = eta.frame(eta.n_frames - 1)
    eta_l1 = lq_norm(frame, 1)
    d_by_delta = dict(zip(p["deltas"], kr_distances(
        [(frame, bounded_log(d, p["radius"])) for d in p["deltas"]])))
    drive = uniqueness_drive(d_by_delta, eta_l1, p["radius"])
    for d, b, bw in zip(drive.deltas, drive.bounds_dr, drive.bounds_w):
        rec.row("twin_drive", delta=float(d), d_value=d_by_delta[float(d)],
                bound_dr=float(b), bound_w=float(bw))
    rec.meta["eta_l1"] = eta_l1
    rec.meta["ode_nfev"] = t1.meta["nfev"] + t2.meta["nfev"]
    rec.add("uniqueness-bound-monotone", drive.worst_rise, 1e-12,
            detail="lemma-4 combination decreases along delta -> 0")
    rec.add("uniqueness-bound-reduction", drive.reduction, p["min_reduction"],
            comparator=">=")

    # negative control: BV-scale eta defeats the combination
    cgrid = Grid(1, p["control_n"])
    e1 = step_density(cgrid)
    d_ctrl = dict(zip(p["deltas"], kr_distances(
        [(e1, bounded_log(d, p["radius"])) for d in p["deltas"]])))
    ctrl = uniqueness_drive(d_ctrl, lq_norm(e1, 1), p["radius"])
    for d, b in zip(ctrl.deltas, ctrl.bounds_dr):
        rec.row("control_drive", delta=float(d), d_value=d_ctrl[float(d)], bound_dr=float(b))
    rec.add("bv-control-bound-grows", ratio(ctrl.bounds_dr[-1], ctrl.bounds_dr[0]), 10.0,
            comparator=">=", detail="negative control: bound must NOT decrease for the step")
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


def run_stability_rate(p: dict) -> ExperimentRecord:
    rec = ExperimentRecord("stability-rate", p)
    grid = Grid(1, p["n"], length=TWO_PI)
    field = OscillatoryField(1)
    base = density_from_function(grid, lambda x: 1.0 + 0.3 * np.sin(x))
    s = grid.axis_centers() - math.pi
    g = _bump_f(1.0 - s ** 2)  # exp(-1/(1 - s^2)) for |s| < 1, else 0
    g_density = SignedDensity(grid, g)
    g = g / lq_norm(g_density, 2)  # unit L^2 so r is exactly the coefficient
    # the unperturbed problem is the same at every r: one solve serves them all
    data1 = CauchyData(field, None, base, p["horizon"])
    traj1 = eulerian_solve(data1, grid, cfl=p["cfl"], n_frames=p["n_frames"])
    upwind_steps = traj1.meta["steps"]
    for r in p["rs"]:
        data2 = CauchyData(field, None, SignedDensity(grid, base.values + r * g), p["horizon"])
        inst = StabilityInstance(data1, data2, p=2.0, q=2.0)
        traj2 = eulerian_solve(data2, grid, cfl=p["cfl"], n_frames=p["n_frames"])
        upwind_steps += traj2.meta["steps"]
        eta = build_eta(inst, traj1, traj2)
        norms = w_neg11_norms([eta.frame(k) for k in range(eta.n_frames)])
        sup_w = float(np.max(norms))
        r_measured = inst.perturbation_size()
        prop1 = check_prop1(inst, _thin(eta, 4), p["prop1_deltas"], p["radius"])
        rho2_lq = max(lq_norm(traj2.frame(k), 2) for k in range(traj2.n_frames))
        u1_l1lp = p["horizon"] * math.sqrt(math.pi)  # ||u_1||_{L^1(L^2)} of sin(x)
        rec.row("rate", r=r, r_measured=r_measured, sup_w_neg11=sup_w,
                fitted_c=sup_w * abs(math.log(r)), c2_joint=prop1.c2_joint,
                c2_normalized=prop1.c2_joint / max(rho2_lq * u1_l1lp, 1e-300))
    rec.meta["upwind_steps"] = upwind_steps
    report = stability_rate(p["rs"], rec.column("rate", "sup_w_neg11"))
    for i, r in enumerate(p["rs"]):
        t = report.schedule_terms[i]
        rec.row("schedule", r=r, sqrt_r=float(t[0]), eps_term=float(t[1]), log_term=float(t[2]),
                total=float(t.sum()), measured=float(report.sup_w[i]),
                dominated=bool(report.dominated[i]), r_star=float(report.r_star[i]))
    rec.add("stability-c-growth", report.c_growth, p["c_growth_max"],
            detail="max r*/r, r* = exp(-C0/sup_t ||eta||_W), C0 = sup_t ||eta||_W x |log r| "
                   "at the largest r")
    rec.add("schedule-dominates-norm", report.min_slack, -SCHEDULE_SLACK_TOL, comparator=">=",
            detail="sqrt(r) + eps + 1/log(1/r+1) dominates the measured norm")
    rec.add("c2-stability-across-r", _spread(rec.column("rate", "c2_joint")), 3.0,
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
    """Three sections, each a function that writes its rows and verdicts and
    returns only its upwind steps, so that the grids of one are freed before
    the next builds its own: the 256^2 agreement trajectories are gone
    before the 512^2 a-priori solve."""
    rec = ExperimentRecord("pde-convergence", p)
    upwind_steps = _pde_translation(rec, p) + _pde_agreement(rec, p) + _pde_apriori(rec, p)
    rec.meta["upwind_steps"] = upwind_steps
    return rec


def _pde_translation(rec: ExperimentRecord, p: dict) -> int:
    """1-d translation refinement: constant field over one full period."""
    upwind_steps = 0
    for n in p["translation_ns"]:
        grid = Grid(1, n)
        rho0 = density_from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
        data = CauchyData(ConstantField([1.0]), None, rho0, 1.0)
        traj = eulerian_solve(data, grid, cfl=p["cfl"], n_frames=9)
        upwind_steps += traj.meta["steps"]
        rec.row("translation", n=n,
                l1_error=lq_norm(SignedDensity(grid, traj.frames[-1] - rho0.values), 1),
                mass_defect=abs(traj.meta["mass_defect"]))
    errs = rec.column("translation", "l1_error")
    rec.add("translation-error-monotone", np.max(errs[1:] / errs[:-1]), 1.0, comparator="<")
    ns = p["translation_ns"]
    h23 = [e / (1.0 / n) ** (2.0 / 3.0) for e, n in zip(errs, ns)]
    rec.add("translation-h23-envelope", np.max(h23), h23[ns.index(min(ns))] * (1 + 1e-12),
            detail="L1 error <= C h^{2/3} with C fixed by the coarsest run")
    return upwind_steps


def _shear(n: int, p: dict) -> CauchyData:
    """The smooth 2-d datum of the agreement and a-priori runs."""
    return CauchyData(SmoothShear2D(), None, density_from_function(
        Grid(2, n), lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * X)
        * (0.5 + 0.5 * np.cos(2 * np.pi * Y))), p["horizon_2d"])


def _pde_agreement(rec: ExperimentRecord, p: dict) -> int:
    """2-d Lagrangian/Eulerian agreement under refinement."""
    upwind_steps = 0
    worst_mass = 0.0
    min_rho = math.inf
    for n in p["agreement_ns"]:
        data = _shear(n, p)
        grid = data.initial.grid
        lag = lagrangian_solve(data, grid, n_frames=5)
        eul = eulerian_solve(data, grid, cfl=p["cfl"], n_frames=5)
        upwind_steps += eul.meta["steps"]
        worst_mass = np.maximum(worst_mass, abs(eul.meta["mass_defect"])
                                / (1.0 + lq_norm(data.initial, 1)))
        min_rho = np.minimum(min_rho, float(eul.frames[-1].min()))
        rec.row("agreement2d", n=n,
                l1_gap=lq_norm(SignedDensity(grid, lag.frames[-1] - eul.frames[-1]), 1))
    gaps = rec.column("agreement2d", "l1_gap")
    rec.add("lagrangian-eulerian-ratio", np.max(gaps[1:] / gaps[:-1]), p["error_ratio_max"],
            detail="successive L1 gaps on smooth 2-d data")
    rec.add("eulerian-mass-balance", worst_mass, p["mass_tol_scale"],
            detail="|mass change - integrated source| / (1+||rho0||_1)")
    rec.add("upwind-positivity", min_rho, -1e-14, comparator=">=")
    return upwind_steps


def _pde_apriori(rec: ExperimentRecord, p: dict) -> int:
    """A-priori L^q bound on the oscillatory and shear instances."""
    upwind_steps = 0
    oscillatory = CauchyData(OscillatoryField(p["apriori_k"]), None, density_from_function(
        Grid(1, p["apriori_n"], length=TWO_PI), lambda x: np.ones_like(x)), 1.0)
    for name, data, n_frames in (("oscillatory", oscillatory, 9),
                                 ("shear2d", _shear(p["apriori_n"], p), 5)):
        traj = eulerian_solve(data, data.initial.grid, cfl=p["cfl"], n_frames=n_frames)
        upwind_steps += traj.meta["steps"]
        for rep in apriori_lq_check(traj, data, (1.0, 2.0)):
            rec.row("apriori", instance=name, q=rep.q, lhs=rep.lhs, rhs=rep.rhs,
                    slack=rep.slack, div_l1_linf=rep.div_l1_linf)
    rec.add("apriori-lq-bound", np.max(rec.column("apriori", "slack"), initial=-math.inf),
            p["apriori_slack"], detail="growth bound with q in {1,2}")
    return upwind_steps


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
