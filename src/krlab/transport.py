"""Exact discrete optimal transport for concave metric costs.

A mean-zero signed density is split into its Jordan parts, the parts become
atoms at the cell centers, and the transport problem between them is solved
as an exact linear program.  Two backends, both certified by LP optimality:

* balanced instances whose atoms all carry the same mass reduce to an
  assignment problem (Birkhoff: the extreme plans are permutations), solved
  by ``scipy.optimize.linear_sum_assignment``;
* everything else goes through the sparse transportation LP with the HiGHS
  simplex, which also returns the node duals used to build Kantorovich-
  Rubinstein potentials.

The potential is built from the plan and never from a second solve.  An LP
plan keeps the target duals of the LP that produced it; an assignment plan
gets its column duals in ``solve_dual`` as shortest-path distances in its
residual graph.  ``solve_dual(eta, cost, plan)`` extends the target duals to
the whole grid by the metric envelope ``phi(z) = min_j (c(dist(z, y_j)) -
v_j)``, which is c-Lipschitz by construction and attains the dual optimum,
hence saturates the constraint on the support of every optimal plan.

Callers solve an instance once and pass the plan to every check that reads
it; ``check_plan`` rejects a plan that was solved for another density or
cost.  ``SOLVER_COUNTS`` tallies the solves of this process.

Every HiGHS solve, transportation and W^{-1,1} LP alike, goes through
``linprog`` below.  It drives scipy's own HiGHS bindings
(``scipy.optimize._highspy._core``) with exactly the options that
``scipy.optimize.linprog(method="highs")`` sets, and its ``x``, row duals,
``fun``, ``nit`` and ``status`` are linprog's bit for bit.  It skips what
linprog does around the solver: input cleaning, option validation, sparse
format conversion and a Python loop over the basis of every column.  On the
few-hundred-variable LPs of transport-selftest that glue took longer than
HiGHS.  linprog's feasibility check of the solution is kept
(``lp_feasible``).  The function keeps the name ``linprog``, with the cost
vector first, because the benchmark's tracer wraps ``transport.linprog`` as
its ``transport.lp`` span and reads ``len(c)``, ``nit`` and ``status``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy import _core as highs

from .cost import CostSpec, cost_derivative, cost_eval
from .measures import (Grid, SignedDensity, jordan_decompose, lq_norm, mass,
                       periodic_distance_matrix, periodic_wrap)

MASS_TOL = 1e-10
# the assignment duals stop once no dual drops by more than this fraction of
# the largest cost: arc lengths are differences of costs, so the cycles of an
# optimal plan can read a few ulps of that scale below zero and never settle
DUAL_DROP_TOL = 1e-12
# the options scipy.optimize.linprog(method="highs") sets on every solve:
# presolve on, no output, the dual simplex
_LINPROG_OPTS = {
    "presolve": "on",
    "highs_debug_level": highs.HighsDebugLevel.kHighsDebugLevelNone,
    "log_to_console": False,
    "output_flag": False,
    "simplex_strategy": highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
}


def _highs_options(**opts) -> highs.HighsOptions:
    """linprog's HiGHS options with ``opts`` laid over them.  HiGHS copies
    the options it is passed, so one object serves every solve."""
    out = highs.HighsOptions()
    for key, val in {**_LINPROG_OPTS, **opts}.items():
        setattr(out, key, val)
    return out


_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_HIGHS_OPTS = _highs_options(**_TIGHT)
# with presolve, HiGHS can call a feasible transportation LP infeasible (three
# prop1-sweep frames of the lp-large benchmark); fall back deterministically
# to no presolve, then to HiGHS's own tolerances
_LP_LADDER = (_HIGHS_OPTS, _highs_options(**_TIGHT, presolve="off"), _highs_options())
# linprog's own check of a solution HiGHS calls optimal (scipy's _check_result
# at its default tol 1e-9): bounds and rows may be off by sqrt(1e-9) * 10.
# HiGHS works to 1e-7 at its loosest, so a larger defect is a wrong answer
LP_CHECK_TOL = math.sqrt(1e-9) * 10

# running totals of the exact solves made by this process: transportation LPs
# (one per instance), their variables (m * n each), the simplex iterations of
# all their HiGHS attempts, the extra attempts after presolve failed, and the
# uniform-mass instances solved as assignments
SOLVER_COUNTS = {"lp": 0, "lp_vars": 0, "lp_nit": 0, "lp_presolve_retries": 0, "assignment": 0}


@dataclass
class TransportPlan:
    """Sparse optimal coupling between the Jordan parts of a density."""

    grid: Grid
    cost: CostSpec
    src_pos: np.ndarray = field(repr=False)  # (m, d) atom positions
    src_mass: np.ndarray = field(repr=False)
    dst_pos: np.ndarray = field(repr=False)
    dst_mass: np.ndarray = field(repr=False)
    src_cells: np.ndarray = field(repr=False)  # flat cell indices of the atoms
    dst_cells: np.ndarray = field(repr=False)
    src_idx: np.ndarray = field(repr=False)  # plan entries: src atom index
    dst_idx: np.ndarray = field(repr=False)
    plan_mass: np.ndarray = field(repr=False)
    value: float = 0.0
    dst_dual: np.ndarray | None = field(default=None, repr=False)  # target duals of its LP

    @property
    def n_entries(self) -> int:
        return len(self.plan_mass)

    def displacements(self) -> np.ndarray:
        """Periodic displacement x - y of every plan entry, shape (k, d)."""
        return periodic_wrap(self.src_pos[self.src_idx] - self.dst_pos[self.dst_idx],
                             self.grid.length)

    def entry_distances(self) -> np.ndarray:
        d = self.displacements()
        return np.sqrt((d * d).sum(axis=1))

    def marginal_deviation(self) -> float:
        """Worst relative defect of row/column sums against the marginals."""
        if self.n_entries == 0:
            return 0.0
        row = np.bincount(self.src_idx, weights=self.plan_mass, minlength=len(self.src_mass))
        col = np.bincount(self.dst_idx, weights=self.plan_mass, minlength=len(self.dst_mass))
        scale = max(self.src_mass.max(), self.dst_mass.max())
        return float(max(np.abs(row - self.src_mass).max(), np.abs(col - self.dst_mass).max()) / scale)


@dataclass
class Potential:
    """Kantorovich-Rubinstein potential on the full grid, normalized so that
    max(phi) + min(phi) = 0."""

    grid: Grid
    cost: CostSpec
    values: np.ndarray = field(repr=False)


def _atoms(part: SignedDensity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero cells of a nonnegative density as (positions, masses, cells)."""
    flat = part.values.ravel()
    cells = np.nonzero(flat > 0.0)[0]
    pos = part.grid.centers()[cells]
    return pos, flat[cells] * part.grid.cell_volume, cells


def cost_matrix(spec: CostSpec, pos_a: np.ndarray, pos_b: np.ndarray, length: float,
                block_rows: int = 4096) -> np.ndarray:
    """Dense cost matrix c(dist(x_i, y_j)), generated in row blocks."""
    m = len(pos_a)
    out = np.empty((m, len(pos_b)))
    for lo in range(0, m, block_rows):
        hi = min(lo + block_rows, m)
        d = periodic_distance_matrix(pos_a[lo:hi], pos_b, length)
        out[lo:hi] = cost_eval(spec, d)
    return out


def _uniform(masses: np.ndarray) -> bool:
    return bool(masses.size and np.ptp(masses) <= 1e-12 * masses.max())


class LPResult(NamedTuple):
    """What krlab reads of a HiGHS solve; ``x`` and ``row_dual`` are None
    unless ``status`` is 0."""

    x: np.ndarray | None
    row_dual: np.ndarray | None
    fun: float
    nit: int
    status: int
    message: str


def lp_feasible(x: np.ndarray, fun: float, row_value: np.ndarray, lhs: np.ndarray,
                rhs: np.ndarray, lb: float, ub: float) -> bool:
    """linprog's feasibility check of a solution: no NaN, and the bounds
    ``lb <= x <= ub`` and rows ``lhs <= row_value <= rhs`` hold to within
    ``LP_CHECK_TOL``.  A NaN propagates through min and max and fails its
    comparison."""
    tol = LP_CHECK_TOL
    return bool(not math.isnan(fun) and x.min() >= lb - tol and x.max() <= ub + tol
                and (rhs - row_value).min() >= -tol and (row_value - lhs).min() >= -tol)


def linprog(c: np.ndarray, A: tuple, lhs: np.ndarray, rhs: np.ndarray, lb: float, ub: float,
            options: highs.HighsOptions) -> LPResult:
    """Minimize ``c @ x`` subject to ``lhs <= A @ x <= rhs`` and
    ``lb <= x <= ub`` as ``scipy.optimize.linprog(method="highs")`` does,
    bit for bit (see the module docstring, also for the name).  ``A`` is
    (indptr, indices, data) in CSC form with sorted row indices, and
    ``options`` comes from ``_highs_options``.  A solution that HiGHS calls
    optimal must also pass ``lp_feasible``, or the status is 4.
    """
    numcol, numrow = len(c), len(rhs)
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = numcol
    lp.num_row_ = lp.a_matrix_.num_row_ = numrow
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    # only col_cost_ reads a numpy array as a buffer; the other vectors take
    # a list faster than an array, which they convert element by element
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = (v.tolist() for v in A)
    lp.col_cost_ = c
    lp.col_lower_ = [lb] * numcol
    lp.col_upper_ = [ub] * numcol
    lp.row_lower_ = lhs
    lp.row_upper_ = rhs
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    model_status = solver.getModelStatus()
    info = solver.getInfo()
    if model_status != highs.HighsModelStatus.kOptimal:
        # linprog's codes: 2 infeasible, 4 any other failure (1 for a limit
        # and 3 for unbounded cannot occur: no limit is set, every LP is bounded)
        status = 2 if model_status == highs.HighsModelStatus.kInfeasible else 4
        return LPResult(None, None, math.nan, info.simplex_iteration_count, status,
                        f"HiGHS model status {solver.modelStatusToString(model_status)}")
    sol = solver.getSolution()
    x = np.array(sol.col_value)
    fun = info.objective_function_value
    if not lp_feasible(x, fun, np.array(sol.row_value), lhs, rhs, lb, ub):
        return LPResult(None, None, fun, info.simplex_iteration_count, 4,
                        f"HiGHS called a solution optimal that violates a bound or row "
                        f"by more than {LP_CHECK_TOL:.2e}")
    return LPResult(x, np.array(sol.row_dual), fun, info.simplex_iteration_count, 0, "optimal")


def _solve_transport_lp(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Exact transportation LP; returns (entries, target duals v).

    Marginals are normalized to unit total for the solver (pure scaling:
    plan masses scale back, duals are per-unit prices and are unchanged).
    """
    m, n = C.shape
    mn = m * n
    # column i*n + j carries source i (row i) to target j (row m + j)
    rows = np.empty((m, n, 2), dtype=np.int32)
    rows[:, :, 0] = np.arange(m, dtype=np.int32)[:, None]
    rows[:, :, 1] = np.arange(m, m + n, dtype=np.int32)
    A = (np.arange(0, 2 * mn + 1, 2, dtype=np.int32), rows.ravel(), np.ones(2 * mn))
    scale = a.sum()
    rhs = np.concatenate([a, b]) / scale
    c = C.ravel()
    for retries, opts in enumerate(_LP_LADDER):
        res = linprog(c, A, rhs, rhs, 0.0, np.inf, opts)
        SOLVER_COUNTS["lp_nit"] += res.nit
        if res.status == 0:
            break
    SOLVER_COUNTS["lp"] += 1
    SOLVER_COUNTS["lp_vars"] += mn
    SOLVER_COUNTS["lp_presolve_retries"] += retries
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    x = res.x * scale
    keep = np.nonzero(x > 1e-15 * max(a.max(), b.max()))[0]
    si, di = np.divmod(keep, n)
    return (si, di, x[keep]), res.row_dual[m:]


def _prune_atoms(pos, masses, cells):
    # drop roundoff-level atoms (mean-zero projection residue); the pruned
    # fraction is <= n_atoms * 1e-13 of the largest atom, far below every
    # tolerance the distances are asserted at
    if len(masses) == 0:
        return pos, masses, cells
    keep = masses > 1e-13 * masses.max()
    return pos[keep], masses[keep], cells[keep]


def _require_mean_zero(eta: SignedDensity) -> None:
    total = mass(eta)
    l1 = lq_norm(eta, 1)
    if l1 > 0 and abs(total) > MASS_TOL * l1:
        raise ValueError(
            f"density is not mean-zero (mass {total:.3e} vs L1 {l1:.3e}); "
            "apply mean_zero_projection first")


def _prepare_instance(eta: SignedDensity):
    _require_mean_zero(eta)
    pos_part, neg_part = jordan_decompose(eta)
    pos_p, mass_p, cells_p = _prune_atoms(*_atoms(pos_part))
    pos_n, mass_n, cells_n = _prune_atoms(*_atoms(neg_part))
    if len(mass_p) and len(mass_n):
        # remove the residual float imbalance exactly
        mass_n = mass_n * (mass_p.sum() / mass_n.sum())
    return pos_p, mass_p, cells_p, pos_n, mass_n, cells_n


def solve_primal(eta: SignedDensity, cost: CostSpec) -> tuple[TransportPlan, float]:
    """Exact optimal plan between the Jordan parts and its transport cost."""
    pos_p, mass_p, cells_p, pos_n, mass_n, cells_n = _prepare_instance(eta)
    empty = TransportPlan(eta.grid, cost, pos_p, mass_p, pos_n, mass_n, cells_p, cells_n,
                          np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    if len(mass_p) == 0 or len(mass_n) == 0:
        return empty, 0.0
    C = cost_matrix(cost, pos_p, pos_n, eta.grid.length)
    v = None
    if len(mass_p) == len(mass_n) and _uniform(mass_p) and _uniform(mass_n):
        si, dj = linear_sum_assignment(C)
        pm = np.full(len(si), mass_p.mean())
        SOLVER_COUNTS["assignment"] += 1
    else:
        (si, dj, pm), v = _solve_transport_lp(mass_p, mass_n, C)
    value = float((C[si, dj] * pm).sum())
    plan = TransportPlan(eta.grid, cost, pos_p, mass_p, pos_n, mass_n, cells_p, cells_n,
                         si, dj, pm, value, v)
    return plan, value


def check_plan(plan: TransportPlan, eta: SignedDensity, cost: CostSpec) -> None:
    """Raise ValueError, naming the mismatch, unless ``plan`` was solved for
    ``eta`` and ``cost``: the same grid and cost, and the atom cells and
    masses of eta's Jordan parts.  Atoms are compared bit for bit, since a
    reused plan comes from the same deterministic solve."""
    if plan.grid != eta.grid:
        raise ValueError(f"plan was solved on a different grid: {plan.grid} vs {eta.grid}")
    if plan.cost != cost:
        raise ValueError(f"plan was solved for a different cost: {plan.cost} vs {cost}")
    _, mass_p, cells_p, _, mass_n, cells_n = _prepare_instance(eta)
    if not (np.array_equal(plan.src_cells, cells_p) and np.array_equal(plan.dst_cells, cells_n)):
        raise ValueError("plan atoms sit on other cells than the Jordan parts of the "
                         "density: it was solved for another density")
    if not (np.array_equal(plan.src_mass, mass_p) and np.array_equal(plan.dst_mass, mass_n)):
        raise ValueError("plan atom masses differ from the Jordan parts of the density: "
                         "it was solved for another density")


def _assignment_duals(C: np.ndarray, si: np.ndarray, dj: np.ndarray) -> np.ndarray:
    """Column duals of the assignment ``si -> dj`` on the cost matrix ``C``.

    They are the shortest-path distances from a zero source over the arcs
    j -> j' of length C[s(j), j'] - C[s(j), j], s(j) the row assigned to j
    (the residual-graph optimality condition of the assignment LP), found by
    Jacobi Bellman-Ford.  A plan that is not optimal has a negative cycle,
    and the distances do not settle within n rounds.
    """
    n = len(dj)
    rows = np.empty(n, dtype=int)
    rows[dj] = si
    arcs = C[rows]
    arcs -= arcs[np.arange(n), np.arange(n)][:, None]
    tol = DUAL_DROP_TOL * np.abs(C).max()
    v = np.zeros(n)
    for _ in range(n):
        nxt = (v[:, None] + arcs).min(axis=0)
        drop = (v - nxt).max()
        v = nxt
        if drop <= tol:
            return v
    raise ValueError(f"the assignment plan is not optimal: its duals still drop by "
                     f"{drop:.3e} after {n} Bellman-Ford rounds (a negative cycle)")


def solve_dual(eta: SignedDensity, cost: CostSpec,
               plan: TransportPlan | None = None) -> tuple[Potential, float]:
    """Optimal potential on the full grid and the dual value (= primal value).

    The potential is the metric envelope of ``plan``'s target duals
    (``check_plan`` must accept the plan): the duals of its LP, or for an
    assignment plan the shortest-path duals of its residual graph.  Without
    a plan, ``solve_primal`` makes one.  No LP is solved here.
    """
    if plan is None:
        plan, _ = solve_primal(eta, cost)
    else:
        check_plan(plan, eta, cost)
    if plan.n_entries == 0:
        return Potential(eta.grid, cost, np.zeros(eta.grid.shape)), 0.0
    pos_n, v = plan.dst_pos, plan.dst_dual
    if v is None:
        C = cost_matrix(cost, plan.src_pos, pos_n, eta.grid.length)
        v = _assignment_duals(C, plan.src_idx, plan.dst_idx)
    # metric envelope from the target duals; c-Lipschitz and optimal
    all_centers = eta.grid.centers()
    phi = np.full(eta.grid.ncells, np.inf)
    for lo in range(0, eta.grid.ncells, 4096):
        hi = min(lo + 4096, eta.grid.ncells)
        d = periodic_distance_matrix(all_centers[lo:hi], pos_n, eta.grid.length)
        phi[lo:hi] = (cost_eval(cost, d) - v[None, :]).min(axis=1)
    phi -= (phi.max() + phi.min()) / 2.0
    phi = phi.reshape(eta.grid.shape)
    value = float((phi.ravel() * eta.values.ravel()).sum() * eta.grid.cell_volume)
    return Potential(eta.grid, cost, phi), value


def duality_gap(plan: TransportPlan, potential: Potential) -> float:
    """Primal minus dual objective; certified nonnegative up to float noise."""
    if plan.grid is not potential.grid and plan.grid != potential.grid:
        raise ValueError("plan and potential live on different grids")
    if plan.cost != potential.cost:
        raise ValueError("plan and potential use different cost specs")
    phi = potential.values.ravel()
    dual = float((phi[plan.src_cells] * plan.src_mass).sum()
                 - (phi[plan.dst_cells] * plan.dst_mass).sum())
    gap = plan.value - dual
    if gap < -1e-12 * (1.0 + abs(plan.value)):
        raise AssertionError(f"negative duality gap {gap}: potential infeasible?")
    return gap


def kr_distance(eta: SignedDensity, cost: CostSpec) -> float:
    """Kantorovich-Rubinstein distance of eta to zero for the given cost."""
    return solve_primal(eta, cost)[1]


def w_neg11_norm(eta: SignedDensity) -> float:
    """Dual-Lipschitz norm: sup of the pairing over grid functions with
    |phi| <= 1 and axis-neighbor slopes <= 1, solved as an LP."""
    g = eta.grid
    v = eta.values.ravel()
    if np.abs(v).max(initial=0.0) == 0.0:
        return 0.0
    _require_mean_zero(eta)
    N = g.ncells
    idx = np.arange(N)
    if g.dim == 1:
        neighbors = [np.roll(idx, -1)]
    else:
        grid_idx = idx.reshape(g.shape)
        neighbors = [np.roll(grid_idx, -1, axis=0).ravel(), np.roll(grid_idx, -1, axis=1).ravel()]
    rows, cols, vals = [], [], []
    r = 0
    for nb in neighbors:
        rows += [np.arange(r, r + N), np.arange(r, r + N)]
        cols += [idx, nb]
        vals += [np.ones(N), -np.ones(N)]
        r += N
    rows = np.concatenate(rows + [x + r for x in rows])
    cols = np.concatenate(cols * 2)
    vals = np.concatenate(vals + [-x for x in vals])
    A = sparse.csc_array((vals, (rows, cols)), shape=(2 * r, N))
    res = linprog(-v * g.cell_volume, (A.indptr, A.indices, A.data), np.full(2 * r, -np.inf),
                  np.full(2 * r, g.h), -1.0, 1.0, _HIGHS_OPTS)
    if res.status != 0:
        raise RuntimeError(f"W^-1,1 LP failed: {res.message}")
    return float(-res.fun)


@dataclass
class GradientSamples:
    """Potential gradients on the plan support per formula (9)-style rule:
    grad phi at both endpoints equals c'(dist) * (x - y)/|x - y|."""

    src_idx: np.ndarray
    dst_idx: np.ndarray
    src_cells: np.ndarray
    dst_cells: np.ndarray
    mass: np.ndarray
    dist: np.ndarray  # periodic |x - y|, > 0
    grad: np.ndarray  # (k, d)
    magnitude: np.ndarray


def potential_gradient_on_support(plan: TransportPlan, cost: CostSpec) -> GradientSamples:
    if cost != plan.cost:
        raise ValueError("cost spec does not match the plan")
    delta = plan.displacements()
    dist = np.sqrt((delta * delta).sum(axis=1))
    keep = dist > 0  # diagonal mass transports at zero cost; skip
    delta, dist = delta[keep], dist[keep]
    mag = cost_derivative(cost, dist)
    grad = mag[:, None] * delta / dist[:, None]
    return GradientSamples(plan.src_idx[keep], plan.dst_idx[keep],
                           plan.src_cells[plan.src_idx[keep]], plan.dst_cells[plan.dst_idx[keep]],
                           plan.plan_mass[keep], dist, grad, mag)
