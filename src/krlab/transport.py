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
masses 1/4096 sum without roundoff.  The costs of the level blocks are
evaluated one run of whole levels at a time (``BLOCK_RUN_ENTRIES``), and
each block of two or more pairs is solved by
``scipy.optimize.linear_sum_assignment``.

Small instances (n = 32-128) cost as much in per-call overhead as in
arithmetic, so each step of the per-instance path outside the assignment
loop is one array method, slice or ufunc, never a numpy helper written in
Python: on 64 floats ``np.roll`` takes 12 us against 2 us for joining two
slices, and ``np.unique`` 10 us against 4.5 us for a sort and a neighbour
mask; a solve at n = 64 takes 264 us against 358 us with the helpers
(2-CPU x86-64 host).  Each step gives the same array bit for bit as the
helper it stands for.

``solve_primal`` measures the marginal defect of every plan it returns.
The potential is built from the plan and never from a second solve:
``solve_dual`` finds the target duals v as shortest-path distances in the
plan's residual graph and extends them to the whole grid by the metric
envelope ``phi(z) = min_j (c(dist(z, y_j)) - v_j)``, which is c-Lipschitz
by construction and attains the dual optimum, hence saturates the
constraint on the support of every optimal plan.  Both read one matrix,
the costs from every cell to every target.  A plan that is not
optimal has a negative cycle there, and ``solve_dual`` raises.

A plan carries the density and the cost it was solved for, so a check that
reads a plan reads its instance off the plan, and no caller can pair a plan
with another instance.  Callers solve an instance once and pass the plan to
every check that reads it.  ``SOLVER_COUNTS`` tallies the solves of this
process.

The W^{-1,1} norm is a KR distance too.  Its dual-Lipschitz form takes the
sup of the pairing over grid functions with |phi| <= 1 and neighbour slopes
<= 1.  Those are, up to a constant that a mean-zero density does not see,
the functions that are 1-Lipschitz for the metric min(d, 2): a function
with |phi| <= 1 moves by at most 2 and, along the grid, by at most d, and
one that is 1-Lipschitz for min(d, 2) oscillates by at most 2.  By
Kantorovich-Rubinstein duality on the grid (bounded-Lipschitz duality:
Hanin, "Kantorovich-Rubinstein norm and its application in the theory of
Lipschitz spaces", Proc. AMS, 1992) the norm is the transport cost for
min(d, 2), the truncated-linear cost with R = 2, which is concave, so the
level solver gives it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cost import CostSpec, cost_derivative, cost_eval, truncated_linear
from .measures import (Grid, SignedDensity, lq_norm, mass, periodic_distance_matrix,
                       periodic_wrap)

MASS_TOL = 1e-10
# the duals stop once no dual drops by more than this fraction of the
# largest cost: arc lengths are differences of costs, so the cycles of an
# optimal plan can read a few ulps of that scale below zero and never settle
DUAL_DROP_TOL = 1e-12
# the level blocks' costs are evaluated in runs of whole levels of at most
# this many entries, so that memory stays flat however large the sum of k * k
# over the levels grows (510,128 entries at n = 2048 in oscillatory-example);
# a single level with more entries is a run of its own.  A run's costs, 128
# KiB, stay in cache: the k = 16 instance took 19-21 ms against 23-25 ms in
# runs of 2^12 or 2^16 entries (2-CPU x86-64 host)
BLOCK_RUN_ENTRIES = 1 << 14

# the exact solves made by this process: the nonempty instances, their
# levels, the entries of their level blocks (the sum of k * k over the
# levels), the linear_sum_assignment calls (one per level of two or more
# pairs), and the worst marginal defect of a plan (a maximum, not a total)
SOLVER_COUNTS = {"instances": 0, "levels": 0, "assignment_vars": 0, "assignment_calls": 0,
                 "worst_marginal_defect": 0.0}


@dataclass
class TransportPlan:
    """Sparse optimal coupling for ``cost`` between the Jordan parts of
    ``eta``: the plan carries the instance it was solved for."""

    eta: SignedDensity
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
    def grid(self) -> Grid:
        return self.eta.grid

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
    """Kantorovich-Rubinstein potential of ``plan``'s instance on the full
    grid, normalized so that max(phi) + min(phi) = 0."""

    plan: TransportPlan = field(repr=False)
    values: np.ndarray = field(repr=False)


def cost_matrix(spec: CostSpec, pos_a: np.ndarray, pos_b: np.ndarray, length: float) -> np.ndarray:
    """Dense cost matrix c(dist(x_i, y_j))."""
    return cost_eval(spec, periodic_distance_matrix(pos_a, pos_b, length))


def _pruned_atoms(cells: np.ndarray, masses: np.ndarray, h: float):
    """Atoms (positions, masses, cells) on ``cells`` of a 1-d grid of cell width h."""
    # drop roundoff-level atoms (mean-zero projection residue); the pruned
    # fraction is <= n_atoms * 1e-13 of the largest atom, far below every
    # tolerance the distances are asserted at
    if len(masses):
        keep = masses > 1e-13 * masses.max()
        cells, masses = cells[keep], masses[keep]
    return (cells + 0.5) * h, masses, cells


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
    # the Jordan parts' atoms, at the cell centers (Grid.axis_centers)
    v, h, volume = eta.values, eta.grid.h, eta.grid.cell_volume
    cells = (v > 0.0).nonzero()[0]
    pos_p, mass_p, cells_p = _pruned_atoms(cells, v[cells] * volume, h)
    cells = (v < 0.0).nonzero()[0]
    pos_n, mass_n, cells_n = _pruned_atoms(cells, (-v[cells]) * volume, h)
    if len(mass_p) and len(mass_n):
        # remove the residual float imbalance exactly
        mass_n = mass_n * (mass_p.sum() / mass_n.sum())
    return pos_p, mass_p, cells_p, pos_n, mass_n, cells_n


def _level_members(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(atom, level) for each level lo[a] <= level < hi[a] of each atom a,
    sorted by level and, within a level, by atom."""
    span = hi - lo
    atom = np.arange(len(lo)).repeat(span)
    level = np.arange(span.sum()) + (lo - (span.cumsum() - span)).repeat(span)
    order = level.argsort(kind="stable")
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
    order = np.concatenate((cells_p, cells_n)).argsort()
    G = np.concatenate((mass_p, -mass_n))[order].cumsum()
    G[-1] = 0.0  # the atoms balance, so G closes at 0: roundoff goes to the last atom
    E = np.concatenate((G[-1:], G[:-1]))
    heights = np.sort(G)
    heights = heights[np.concatenate(([True], heights[1:] != heights[:-1]))]
    lo, hi = np.empty(m + n, dtype=np.intp), np.empty(m + n, dtype=np.intp)
    lo[order] = heights.searchsorted(np.minimum(E, G))
    hi[order] = heights.searchsorted(np.maximum(E, G))
    # the closed walk G crosses every level as often upward as downward, and
    # at least once, so both sides list every level equally often
    src, lvl = _level_members(lo[:m], hi[:m])
    dst, _ = _level_members(lo[m:], hi[m:])
    bounds = np.concatenate(([0], (lvl[1:] != lvl[:-1]).nonzero()[0] + 1, [len(lvl)]))
    starts = bounds[:-1]
    ks = bounds[1:] - starts
    kk = ks * ks
    ends = kk.cumsum()
    first = ends - kk  # where each level's block starts in the entries
    row = np.arange(len(lvl)) - starts[lvl]
    dst_pos = pos_n[dst]
    # linear_sum_assignment returns a square block's rows as arange(k), so
    # its column indices are the solution; a 1 x 1 block pairs its atoms
    col = np.zeros(len(lvl), dtype=np.intp)
    picked = np.empty(len(lvl))  # the cost of each member's pair
    a = 0
    while a < len(ks):
        # levels a, ..., b - 1: as many as fit in BLOCK_RUN_ENTRIES, and at least one
        b = max(int(ends.searchsorted(first[a] + BLOCK_RUN_ENTRIES, side="right")), a + 1)
        run = slice(bounds[a], bounds[b])
        lr = lvl[run]
        kr = ks[lr]
        at = first[lr] - first[a] + row[run] * kr  # where each member's row starts
        # a level's targets take the same places in the target members as
        # its sources in the source members.  Row i of its k x k block,
        # stored row-major from ``at``, pairs source member starts + i with
        # the target members starts, ..., starts + k - 1
        tgt = np.arange(kr.sum()) - (at - starts[lr]).repeat(kr)
        costs = cost_eval(cost, np.abs(periodic_wrap(pos_p[src[run]].repeat(kr)
                                                     - dst_pos[tgt], length)))
        big = (ks[a:b] > 1).nonzero()[0] + a
        SOLVER_COUNTS["assignment_calls"] += len(big)
        for s0, e0, k in zip(starts[big].tolist(), (first[big] - first[a]).tolist(),
                             ks[big].tolist()):
            col[s0:s0 + k] = linear_sum_assignment(costs[e0:e0 + k * k].reshape(k, k))[1]
        picked[run] = costs[at + col[run]]
        a = b
    # merge the pairs that several levels repeat
    key = src * n + dst[starts[lvl] + col]
    by_pair = key.argsort(kind="stable")
    key = key[by_pair]
    pairs = np.concatenate(([0], (key[1:] != key[:-1]).nonzero()[0] + 1))
    si, dj = np.divmod(key[pairs], n)
    pm = np.add.reduceat((heights[1:] - heights[:-1])[lvl][by_pair], pairs)
    return (si, dj, pm), picked[by_pair][pairs], len(ks), int(ends[-1])


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
        return TransportPlan(eta, cost, pos_p, mass_p, pos_n, mass_n, cells_p, cells_n,
                             empty, empty, np.zeros(0)), 0.0
    (si, dj, pm), costs, levels, entries = _level_plan(cost, eta.grid.length, pos_p, mass_p,
                                                      cells_p, pos_n, mass_n, cells_n)
    value = float((costs * pm).sum())
    plan = TransportPlan(eta, cost, pos_p, mass_p, pos_n, mass_n, cells_p, cells_n,
                         si, dj, pm, value)
    SOLVER_COUNTS["instances"] += 1
    SOLVER_COUNTS["levels"] += levels
    SOLVER_COUNTS["assignment_vars"] += entries
    SOLVER_COUNTS["worst_marginal_defect"] = max(SOLVER_COUNTS["worst_marginal_defect"],
                                                 plan.marginal_deviation())
    return plan, value


def _plan_duals(plan: TransportPlan, costs: np.ndarray) -> np.ndarray:
    """Target duals of ``plan``, given ``costs``, the cost from every grid cell
    to every target.

    They are the shortest-path distances from a zero source in the plan's
    residual graph (the optimality condition of the transportation LP): a
    plan entry e = (i, j) gives the arcs j -> j' of length C[i, j'] - C[i, j].
    Each Jacobi Bellman-Ford round relaxes every entry into every target at
    once, v_j' = min(v_j', min_e (v_j + C[i, j'] - C[i, j])).  That is
    exactly the round over the shortest arc j -> j' alone: rounding is
    monotone, so min_e fl(v_j + x_e) = fl(v_j + min_e x_e) over the entries
    e into j.  A plan that is not optimal has a negative cycle, and the
    distances do not settle within n rounds.
    """
    n = len(plan.dst_mass)
    rows = costs[plan.src_cells[plan.src_idx]]  # a source atom sits at its cell's center
    tol = DUAL_DROP_TOL * np.abs(rows).max()
    rows -= rows[np.arange(plan.n_entries), plan.dst_idx][:, None]
    v = np.zeros(n)
    for _ in range(n):
        nxt = np.minimum(v, (v[plan.dst_idx][:, None] + rows).min(axis=0))
        drop = (v - nxt).max()
        v = nxt
        if drop <= tol:
            return v
    raise ValueError(f"the transport plan is not optimal: its duals still drop by "
                     f"{drop:.3e} after {n} Bellman-Ford rounds (a negative cycle)")


def solve_dual(plan: TransportPlan) -> tuple[Potential, float]:
    """Optimal potential of ``plan``'s instance on the full grid and the dual
    value (= primal value).

    The potential is the metric envelope of ``plan``'s target duals, the
    shortest-path duals of its residual graph, over the one matrix of costs
    from every cell to every target.
    """
    eta, cost = plan.eta, plan.cost
    if plan.n_entries == 0:
        return Potential(plan, np.zeros(eta.grid.shape)), 0.0
    costs = cost_matrix(cost, eta.grid.axis_centers(), plan.dst_pos, eta.grid.length)
    v = _plan_duals(plan, costs)
    # metric envelope from the target duals; c-Lipschitz and optimal
    phi = (costs - v).min(axis=1)
    phi -= (phi.max() + phi.min()) / 2.0
    value = float((phi * eta.values).sum() * eta.grid.cell_volume)
    return Potential(plan, phi), value


def duality_gap(potential: Potential) -> float:
    """Primal minus dual objective of ``potential``'s plan; certified
    nonnegative up to float noise."""
    plan = potential.plan
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
    |phi| <= 1 and neighbour slopes <= 1, which is the KR distance for the
    cost min(d, 2) (module docstring)."""
    return kr_distance(eta, truncated_linear(2.0))


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


def potential_gradient_on_support(plan: TransportPlan) -> GradientSamples:
    delta = plan.displacements()
    dist = np.abs(delta)
    keep = dist > 0  # diagonal mass transports at zero cost; skip
    delta, dist = delta[keep], dist[keep]
    mag = cost_derivative(plan.cost, dist)
    grad = mag * delta / dist
    return GradientSamples(plan.src_idx[keep], plan.dst_idx[keep],
                           plan.src_cells[plan.src_idx[keep]], plan.dst_cells[plan.dst_idx[keep]],
                           plan.plan_mass[keep], dist, grad, mag)
