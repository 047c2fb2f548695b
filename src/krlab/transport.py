"""Exact discrete optimal transport for concave metric costs on the circle.

Transport is implemented on 1-d grids, the circle [0, L), only: every entry
point raises a ValueError on a 2-d density.  A mean-zero signed density is
split into its Jordan parts, the parts become atoms at the cell centers (one
float each, held in flat arrays), and one exact solver, the level split
below, finds an optimal plan between them.

For a cost c(dist) with c concave and nondecreasing, c of the arc length is
concave on [0, L], so two crossing pairs can be swapped for two that do not
cross at no higher cost, and some optimal plan is non-crossing (McCann,
"Exact solutions to the transportation problem on the line", Proc. R. Soc.
A, 1999; Delon, Salomon & Sobolevski, "Local matching indicators for
transport problems with concave costs", SIAM J. Discrete Math., 2012).  Put
the signed atom masses on the cells in order, with G their inclusive and E
their exclusive prefix sum, and close G exactly: it is 0 at the last atom.
A source at cell k covers the heights [E_k, G_k) and a target [G_k, E_k).
Cut the range of heights at every G_k.  On each elementary interval, a
level, the atoms whose interval contains it are equally many sources and
targets, since the closed walk G crosses every height as often upward as
downward.  Cut every atom into slivers of one common small mass: the
slivers form a uniform-mass instance, a non-crossing pair leaves equally
much source and target mass on each arc between its atoms, so an optimal
non-crossing plan pairs only slivers of the same height.  Hence the levels
are independent uniform-mass assignments, each weighted by its width, and
the plan is their union with repeated pairs merged.  When every atom
carries the same mass, each level is one atom wide; the step density of
e1-example at n = 4096 has 2048 levels of one atom pair each, and its
masses 1/4096 sum without roundoff.  The costs of all level blocks are
evaluated in one pass, and each block of two or more pairs is solved by
``scipy.optimize.linear_sum_assignment``.

``solve_primal`` measures the marginal defect of every plan it returns.
The potential is built from the plan and never from a second solve:
``solve_dual`` finds the target duals v as shortest-path distances in the
plan's residual graph and extends them to the whole grid by the metric
envelope ``phi(z) = min_j (c(dist(z, y_j)) - v_j)``, which is c-Lipschitz
by construction and attains the dual optimum, hence saturates the
constraint on the support of every optimal plan.  A plan that is not
optimal has a negative cycle there, and ``solve_dual`` raises.

Callers solve an instance once and pass the plan to every check that reads
it; ``check_plan`` rejects a plan that was solved for another density or
cost.  ``SOLVER_COUNTS`` tallies the solves of this process.

HiGHS is left only for the W^{-1,1} norm, a linear program.  It goes through
``linprog`` below, which drives scipy's own HiGHS bindings
(``scipy.optimize._highspy._core``) with exactly the options that
``scipy.optimize.linprog(method="highs")`` sets; its ``x``, row duals,
``fun``, ``nit`` and ``status`` are linprog's bit for bit.  It skips what
linprog does around the solver: input cleaning, option validation, sparse
format conversion and a Python loop over the basis of every column.
linprog's feasibility check of the solution is kept (``lp_feasible``).  The
function keeps the name ``linprog``, with the cost vector first, because
the benchmark's tracer wraps ``transport.linprog`` as its ``transport.lp``
span and reads ``len(c)``, ``nit`` and ``status``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy import _core as highs

from .cost import CostSpec, cost_derivative, cost_eval
from .measures import (Grid, SignedDensity, jordan_decompose, lq_norm, mass,
                       periodic_distance_matrix, periodic_wrap)

MASS_TOL = 1e-10
# the duals stop once no dual drops by more than this fraction of the
# largest cost: arc lengths are differences of costs, so the cycles of an
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


_HIGHS_OPTS = _highs_options(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)
# linprog's own check of a solution HiGHS calls optimal (scipy's _check_result
# at its default tol 1e-9): bounds and rows may be off by sqrt(1e-9) * 10.
# HiGHS works to 1e-7 at its loosest, so a larger defect is a wrong answer
LP_CHECK_TOL = math.sqrt(1e-9) * 10

# the exact solves made by this process: the nonempty instances, their
# levels, the entries of their level blocks (the sum of k * k over the
# levels), and the worst marginal defect of a plan (a maximum, not a total)
SOLVER_COUNTS = {"instances": 0, "levels": 0, "assignment_vars": 0,
                 "worst_marginal_defect": 0.0}


@dataclass
class TransportPlan:
    """Sparse optimal coupling between the Jordan parts of a density."""

    grid: Grid
    cost: CostSpec
    src_pos: np.ndarray = field(repr=False)  # (m,) atom positions on the circle
    src_mass: np.ndarray = field(repr=False)
    dst_pos: np.ndarray = field(repr=False)
    dst_mass: np.ndarray = field(repr=False)
    src_cells: np.ndarray = field(repr=False)  # flat cell indices of the atoms
    dst_cells: np.ndarray = field(repr=False)
    src_idx: np.ndarray = field(repr=False)  # plan entries: src atom index
    dst_idx: np.ndarray = field(repr=False)
    plan_mass: np.ndarray = field(repr=False)
    value: float = 0.0

    @property
    def n_entries(self) -> int:
        return len(self.plan_mass)

    def displacements(self) -> np.ndarray:
        """Periodic displacement x - y of every plan entry, shape (k,)."""
        return periodic_wrap(self.src_pos[self.src_idx] - self.dst_pos[self.dst_idx],
                             self.grid.length)

    def entry_distances(self) -> np.ndarray:
        return np.abs(self.displacements())

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
    cells = np.nonzero(part.values > 0.0)[0]
    return part.grid.axis_centers()[cells], part.values[cells] * part.grid.cell_volume, cells


def cost_matrix(spec: CostSpec, pos_a: np.ndarray, pos_b: np.ndarray, length: float) -> np.ndarray:
    """Dense cost matrix c(dist(x_i, y_j))."""
    return cost_eval(spec, periodic_distance_matrix(pos_a, pos_b, length))


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


def _prune_atoms(pos, masses, cells):
    # drop roundoff-level atoms (mean-zero projection residue); the pruned
    # fraction is <= n_atoms * 1e-13 of the largest atom, far below every
    # tolerance the distances are asserted at
    if len(masses) == 0:
        return pos, masses, cells
    keep = masses > 1e-13 * masses.max()
    return pos[keep], masses[keep], cells[keep]


def _require_valid(eta: SignedDensity) -> None:
    """Raise ValueError unless eta is a finite mean-zero density on a 1-d grid."""
    if eta.grid.dim != 1:
        raise ValueError(f"transport is implemented on 1-d grids only, got a "
                         f"{eta.grid.dim}-d grid")
    bad = eta.values.size - np.count_nonzero(np.isfinite(eta.values))
    if bad:
        raise ValueError(f"density has NaN or inf in {bad} of {eta.values.size} cells; "
                         "every cell must hold a finite number")
    total = mass(eta)
    l1 = lq_norm(eta, 1)
    if l1 > 0 and abs(total) > MASS_TOL * l1:
        raise ValueError(
            f"density is not mean-zero (mass {total:.3e} vs L1 {l1:.3e}); "
            "apply mean_zero_projection first")


def _prepare_instance(eta: SignedDensity):
    _require_valid(eta)
    pos_part, neg_part = jordan_decompose(eta)
    pos_p, mass_p, cells_p = _prune_atoms(*_atoms(pos_part))
    pos_n, mass_n, cells_n = _prune_atoms(*_atoms(neg_part))
    if len(mass_p) and len(mass_n):
        # remove the residual float imbalance exactly
        mass_n = mass_n * (mass_p.sum() / mass_n.sum())
    return pos_p, mass_p, cells_p, pos_n, mass_n, cells_n


def _level_members(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(atom, level) for each level lo[a] <= level < hi[a] of each atom a,
    sorted by level and, within a level, by atom."""
    span = hi - lo
    atom = np.repeat(np.arange(len(lo)), span)
    level = np.arange(span.sum()) + np.repeat(lo - (np.cumsum(span) - span), span)
    order = np.argsort(level, kind="stable")
    return atom[order], level[order]


def _level_plan(cost: CostSpec, length: float, pos_p: np.ndarray, mass_p: np.ndarray,
                cells_p: np.ndarray, pos_n: np.ndarray, mass_n: np.ndarray, cells_n: np.ndarray):
    """Optimal plan between balanced sources and targets on the circle: the
    union of the uniform-mass assignments on the levels of the mass prefix
    sum (module docstring).  The atoms of each side are in cell order.

    Returns the plan entries (source, target, mass), sorted by source and
    then target, the cost of each entry, the number of levels and the
    number of block entries, the sum of k * k over the levels.
    """
    m, n = len(mass_p), len(mass_n)
    order = np.argsort(np.concatenate([cells_p, cells_n]))
    G = np.cumsum(np.concatenate([mass_p, -mass_n])[order])
    G[-1] = 0.0  # the atoms balance, so G closes at 0: roundoff goes to the last atom
    E = np.roll(G, 1)
    heights = np.unique(G)
    lo, hi = np.empty(m + n, dtype=np.intp), np.empty(m + n, dtype=np.intp)
    lo[order] = np.searchsorted(heights, np.minimum(E, G))
    hi[order] = np.searchsorted(heights, np.maximum(E, G))
    # the closed walk G crosses every level as often upward as downward, and
    # at least once, so both sides list every level equally often
    src, lvl = _level_members(lo[:m], hi[:m])
    dst, _ = _level_members(lo[m:], hi[m:])
    starts = np.flatnonzero(np.diff(lvl, prepend=-1))
    ks = np.diff(starts, append=len(lvl))
    first = np.cumsum(ks * ks) - ks * ks  # where each level's block starts in costs
    kr, row = ks[lvl], np.arange(len(lvl)) - starts[lvl]
    # a level's targets take the same places in the target members as its
    # sources in the source members.  Row i of its k x k block, stored
    # row-major, pairs source member starts + i with the target members
    # starts, ..., starts + k - 1
    tgt = np.arange(kr.sum()) - np.repeat(first[lvl] + row * kr - starts[lvl], kr)
    costs = cost_eval(cost, np.abs(periodic_wrap(np.repeat(pos_p[src], kr) - pos_n[dst][tgt],
                                                 length)))
    # linear_sum_assignment returns a square block's rows as arange(k), so
    # its column indices are the solution; a 1 x 1 block pairs its atoms
    col = np.zeros(len(lvl), dtype=np.intp)
    big = np.flatnonzero(ks > 1)
    for s0, e0, k in zip(starts[big].tolist(), first[big].tolist(), ks[big].tolist()):
        col[s0:s0 + k] = linear_sum_assignment(costs[e0:e0 + k * k].reshape(k, k))[1]
    # merge the pairs that several levels repeat
    key = src * n + dst[starts[lvl] + col]
    by_pair = np.argsort(key, kind="stable")
    pairs = np.flatnonzero(np.diff(key[by_pair], prepend=-1))
    si, dj = np.divmod(key[by_pair][pairs], n)
    pm = np.add.reduceat(np.diff(heights)[lvl][by_pair], pairs)
    picked = costs[first[lvl] + row * kr + col][by_pair][pairs]
    return (si, dj, pm), picked, len(ks), len(costs)


def solve_primal(eta: SignedDensity, cost: CostSpec) -> tuple[TransportPlan, float]:
    """Exact optimal plan between the Jordan parts and its transport cost.

    The instance is split into the levels of its mass prefix sum and each
    level is solved on its own (``_level_plan``): some optimal plan for a
    concave cost is non-crossing (McCann 1999; Delon, Salomon & Sobolevski
    2012), and a non-crossing plan pairs only mass of the same height, so the
    split loses nothing.  The value sums the cost of each entry times its
    mass in entry order, by source and then target.  The plan's marginal
    defect goes into ``SOLVER_COUNTS``.
    """
    pos_p, mass_p, cells_p, pos_n, mass_n, cells_n = _prepare_instance(eta)
    if len(mass_p) == 0 or len(mass_n) == 0:
        empty = np.zeros(0, dtype=np.intp)
        return TransportPlan(eta.grid, cost, pos_p, mass_p, pos_n, mass_n, cells_p, cells_n,
                             empty, empty, np.zeros(0)), 0.0
    (si, dj, pm), costs, levels, entries = _level_plan(cost, eta.grid.length, pos_p, mass_p,
                                                      cells_p, pos_n, mass_n, cells_n)
    value = float((costs * pm).sum())
    plan = TransportPlan(eta.grid, cost, pos_p, mass_p, pos_n, mass_n, cells_p, cells_n,
                         si, dj, pm, value)
    SOLVER_COUNTS["instances"] += 1
    SOLVER_COUNTS["levels"] += levels
    SOLVER_COUNTS["assignment_vars"] += entries
    SOLVER_COUNTS["worst_marginal_defect"] = max(SOLVER_COUNTS["worst_marginal_defect"],
                                                 plan.marginal_deviation())
    return plan, value


def check_plan(plan: TransportPlan, eta: SignedDensity, cost: CostSpec) -> None:
    """Raise ValueError, naming the mismatch, unless ``plan`` was solved for
    ``eta`` and ``cost``: the same grid and cost, and the atom cells and
    masses of eta's Jordan parts.  Atoms are compared bit for bit, since a
    reused plan comes from the same deterministic solve."""
    _, mass_p, cells_p, _, mass_n, cells_n = _prepare_instance(eta)
    if plan.grid != eta.grid:
        raise ValueError(f"plan was solved on a different grid: {plan.grid} vs {eta.grid}")
    if plan.cost != cost:
        raise ValueError(f"plan was solved for a different cost: {plan.cost} vs {cost}")
    if not (np.array_equal(plan.src_cells, cells_p) and np.array_equal(plan.dst_cells, cells_n)):
        raise ValueError("plan atoms sit on other cells than the Jordan parts of the "
                         "density: it was solved for another density")
    if not (np.array_equal(plan.src_mass, mass_p) and np.array_equal(plan.dst_mass, mass_n)):
        raise ValueError("plan atom masses differ from the Jordan parts of the density: "
                         "it was solved for another density")


def _plan_duals(plan: TransportPlan) -> np.ndarray:
    """Target duals of ``plan``.

    They are the shortest-path distances from a zero source over the arcs
    j -> j' of length min over the sources i that the plan sends to j of
    C[i, j'] - C[i, j] (the residual-graph optimality condition of the
    transportation LP), found by Jacobi Bellman-Ford.  A plan that is not
    optimal has a negative cycle, and the distances do not settle within n
    rounds.
    """
    n = len(plan.dst_mass)
    by_dst = np.argsort(plan.dst_idx, kind="stable")
    si, dj = plan.src_idx[by_dst], plan.dst_idx[by_dst]
    rows = cost_matrix(plan.cost, plan.src_pos[si], plan.dst_pos, plan.grid.length)
    scale = np.abs(rows).max()
    rows -= rows[np.arange(len(dj)), dj][:, None]
    heads = np.flatnonzero(np.diff(dj, prepend=-1))
    arcs = np.full((n, n), np.inf)
    arcs[dj[heads]] = np.minimum.reduceat(rows, heads, axis=0)
    np.fill_diagonal(arcs, 0.0)  # a target that the plan does not reach keeps its dual
    tol = DUAL_DROP_TOL * scale
    v = np.zeros(n)
    for _ in range(n):
        nxt = (v[:, None] + arcs).min(axis=0)
        drop = (v - nxt).max()
        v = nxt
        if drop <= tol:
            return v
    raise ValueError(f"the transport plan is not optimal: its duals still drop by "
                     f"{drop:.3e} after {n} Bellman-Ford rounds (a negative cycle)")


def solve_dual(eta: SignedDensity, cost: CostSpec,
               plan: TransportPlan | None = None) -> tuple[Potential, float]:
    """Optimal potential on the full grid and the dual value (= primal value).

    The potential is the metric envelope of ``plan``'s target duals, the
    shortest-path duals of its residual graph (``check_plan`` must accept
    the plan).  Without a plan, ``solve_primal`` makes one.
    """
    if plan is None:
        plan, _ = solve_primal(eta, cost)
    else:
        check_plan(plan, eta, cost)
    if plan.n_entries == 0:
        return Potential(eta.grid, cost, np.zeros(eta.grid.shape)), 0.0
    v = _plan_duals(plan)
    # metric envelope from the target duals; c-Lipschitz and optimal
    d = periodic_distance_matrix(eta.grid.axis_centers(), plan.dst_pos, eta.grid.length)
    phi = (cost_eval(cost, d) - v[None, :]).min(axis=1)
    phi -= (phi.max() + phi.min()) / 2.0
    value = float((phi * eta.values).sum() * eta.grid.cell_volume)
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
    |phi| <= 1 and neighbour slopes <= 1, solved as an LP."""
    _require_valid(eta)
    g = eta.grid
    if np.abs(eta.values).max(initial=0.0) == 0.0:
        return 0.0
    N = g.ncells
    # row j is phi_j - phi_{j+1} <= h and row N + j its negation, so column j
    # has its entries in rows j - 1, j, N + j - 1 and N + j (CSC, rows sorted);
    # column 0 meets the wrapped pair N - 1, 2N - 1 after its own rows 0, N
    j = np.arange(N)
    rows = np.stack([j - 1, j, N + j - 1, N + j], axis=1)
    vals = np.tile([-1.0, 1.0, 1.0, -1.0], (N, 1))
    rows[0], vals[0] = [0, N - 1, N, 2 * N - 1], [1.0, -1.0, -1.0, 1.0]
    A = (np.arange(0, 4 * N + 1, 4), rows.ravel(), vals.ravel())
    res = linprog(-eta.values * g.cell_volume, A, np.full(2 * N, -np.inf), np.full(2 * N, g.h),
                  -1.0, 1.0, _HIGHS_OPTS)
    if res.status != 0:
        raise RuntimeError(f"W^-1,1 LP failed: {res.message}")
    return float(-res.fun)


@dataclass
class GradientSamples:
    """Potential gradients on the plan support per formula (9)-style rule:
    grad phi at both endpoints equals c'(dist) * (x - y)/|x - y|, one float
    per entry on the circle."""

    src_idx: np.ndarray
    dst_idx: np.ndarray
    src_cells: np.ndarray
    dst_cells: np.ndarray
    mass: np.ndarray
    dist: np.ndarray  # periodic |x - y|, > 0
    grad: np.ndarray  # (k,)
    magnitude: np.ndarray


def potential_gradient_on_support(plan: TransportPlan, cost: CostSpec) -> GradientSamples:
    if cost != plan.cost:
        raise ValueError("cost spec does not match the plan")
    delta = plan.displacements()
    dist = np.abs(delta)
    keep = dist > 0  # diagonal mass transports at zero cost; skip
    delta, dist = delta[keep], dist[keep]
    mag = cost_derivative(cost, dist)
    grad = mag * delta / dist
    return GradientSamples(plan.src_idx[keep], plan.dst_idx[keep],
                           plan.src_cells[plan.src_idx[keep]], plan.dst_cells[plan.dst_idx[keep]],
                           plan.plan_mass[keep], dist, grad, mag)
