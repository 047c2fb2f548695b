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
evaluated one run of whole levels at a time (``BLOCK_RUN_ENTRIES``).  A
block of one pair pairs its atoms.  A block of two, three or four pairs
takes the cheapest of its k! target orders, found for all such blocks of a
pass at once, one numpy pass per k; where the two cheapest totals tie
within ``TIE_MARGIN`` of the block's largest cost, and for every block of
five or more pairs, ``scipy.optimize.linear_sum_assignment`` solves it.

Small instances (n = 32-128) cost as much in per-call overhead as in
arithmetic, and an experiment solves hundreds of them, so every solve is
part of a batch (``solve_batch``; ``solve_primal``, ``kr_distance`` and
``w_neg11_norm`` are batches of one).  One level pass takes the atoms,
prefix sums, levels, block costs, merge and marginal defects of all the
densities of a batch at once, up to ``BATCH_ATOMS`` atoms, finds the levels
of a density once however many instances share it, and hands back each
plan's entries and value, the last fields of its ``TransportPlan``.  The
per-call cost of each step is paid once per pass instead of once per
instance: an lp-small pass (590 solves at n = 32-128) spent 139-155 ms in
solves one at a time and 65-66 ms in batches (fastest of nine passes, 2-CPU
x86-64 host).  A batch gives every plan bit for bit as it was solved alone.
The float sums whose rounding depends on their grouping stay one call on
each density's or instance's slice: the mass sums of the checks and of the
rescaling, each prefix sum G, and each plan's value.  The heights are ranked
by one sort of all G and a stable sort by density.

``solve_batch`` measures the marginal defect of every plan it returns.
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

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cost import CostSpec, cost_derivative, cost_eval, truncated_linear
from .measures import Grid, SignedDensity, periodic_distance_matrix, periodic_wrap

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
# a batch's densities go through the level pass in groups of at most this
# many atoms (and at least one density), so that memory stays flat however
# large the batch grows: in the lp-large benchmark pass, oscillatory-example's
# three 2048-cell W^{-1,1} norms in one level pass raised the peak RSS by
# 1.8 MiB over one density a pass.  An lp-small benchmark pass peaked 0.33
# MiB lower at 2^10 atoms than at 2^11 and took 3 ms (3%) longer; 2^9 was
# slower again and peaked no lower (2-CPU x86-64 host)
BATCH_ATOMS = 1 << 10


# the k! target orders of a block of k = 2, 3 or 4 pairs, one a row, in
# lexicographic order (argmin keeps the first of two equal totals): a batch
# solves these blocks by trying every order, one numpy pass per k
PERMUTATIONS = {k: np.array(list(itertools.permutations(range(k)))) for k in (2, 3, 4)}
# a tie: a block whose two cheapest orders' totals differ by at most this
# fraction of its largest cost.  linear_sum_assignment adds the costs in
# another order than the enumeration, so on a near-tie the two can pick
# different orders; ties go to linear_sum_assignment, which keeps every
# plan as it was.  Of the 49,982 such blocks of the perfbench configs
# (lp-small at seeds 0-2), 669 tie; a margin of 0 let 2 near-ties take
# another order than linear_sum_assignment's, this margin none
TIE_MARGIN = 1e-9

# the exact solves made by this process: the nonempty instances, their
# levels, the entries of their level blocks (the sum of k * k over the
# levels), the linear_sum_assignment calls, the blocks of two to four pairs
# solved by trying every order instead, and the worst marginal defect of a
# plan (a maximum, not a total)
SOLVER_COUNTS = {"instances": 0, "levels": 0, "assignment_vars": 0, "assignment_calls": 0,
                 "enumerated_blocks": 0, "worst_marginal_defect": 0.0}


def linear_sum_assignment(cost_matrix):
    """``scipy.optimize.linear_sum_assignment``, imported at the first call:
    importing ``scipy.optimize`` took 0.64-0.68 s (2-CPU x86-64 host), longer
    than most runs, and a run whose levels hold four pairs or fewer and no
    tie never calls it (e1-example's hold one pair each).  The first call
    puts scipy's function in this name's place, so no later call imports; a
    spy or a tracer's wrapper that holds the name already stays in place,
    and its calls import each time.  Every assignment goes through this
    name."""
    global linear_sum_assignment
    from scipy.optimize import linear_sum_assignment as solve
    if getattr(linear_sum_assignment, "__code__", None) is _FIRST_CALL:
        linear_sum_assignment = solve
    return solve(cost_matrix)


# the code of the stub above: the name holds the stub while it holds this code
_FIRST_CALL = linear_sum_assignment.__code__


@dataclass
class TransportPlan:
    """Sparse optimal coupling for ``cost`` between the Jordan parts of
    ``eta``: the plan carries the instance it was solved for."""

    eta: SignedDensity
    cost: CostSpec
    src_pos: np.ndarray = field(repr=False)  # (m,) atom positions on the circle
    src_mass: np.ndarray = field(repr=False)
    src_cells: np.ndarray = field(repr=False)  # flat cell indices of the atoms
    dst_pos: np.ndarray = field(repr=False)
    dst_mass: np.ndarray = field(repr=False)
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


@dataclass
class _Atoms:
    """The atoms of the distinct densities of a batch, side by side: the
    sources of density u are ``pos_p[off_p[u]:off_p[u + 1]]``, and so on.
    Instance i of the batch has density ``of[i]``."""

    pos_p: np.ndarray
    mass_p: np.ndarray
    cells_p: np.ndarray
    pos_n: np.ndarray
    mass_n: np.ndarray
    cells_n: np.ndarray
    off_p: list[int]
    off_n: list[int]
    of: list[int]

    def instance(self, i: int) -> tuple[np.ndarray, ...]:
        """(pos_p, mass_p, cells_p, pos_n, mass_n, cells_n) of instance i."""
        u = self.of[i]
        p, n = slice(self.off_p[u], self.off_p[u + 1]), slice(self.off_n[u], self.off_n[u + 1])
        return (self.pos_p[p], self.mass_p[p], self.cells_p[p], self.pos_n[n], self.mass_n[n],
                self.cells_n[n])


def _prepare(etas: list[SignedDensity]) -> _Atoms:
    """Check the densities of a batch and split each into its Jordan parts'
    atoms, once for each distinct density object.

    Raises ValueError, prefixed with ``instance i:``, at the first instance
    that is not a finite mean-zero density on a 1-d grid, checking each
    instance's grid, then its values, then its mass.
    """
    slot: dict[int, int] = {}
    named = []  # the first instance of each distinct density
    for i, eta in enumerate(etas):
        if slot.setdefault(id(eta), len(named)) == len(named):
            named.append(i)
    of = [slot[id(eta)] for eta in etas]
    etas = [etas[i] for i in named]
    sizes = [eta.values.size for eta in etas]
    bounds = np.cumsum([0] + sizes).tolist()
    values = np.concatenate([eta.values.ravel() for eta in etas])
    finite = bool(np.isfinite(values).all())
    absval = np.abs(values)
    for i, eta in zip(named, etas):
        u = of[i]
        if eta.grid.dim != 1:
            raise ValueError(f"instance {i}: transport is implemented on 1-d grids only, got a "
                             f"{eta.grid.dim}-d grid")
        cells = slice(bounds[u], bounds[u + 1])
        bad = 0 if finite else sizes[u] - np.count_nonzero(np.isfinite(values[cells]))
        if bad:
            raise ValueError(f"instance {i}: density has NaN or inf in {bad} of {sizes[u]} "
                             "cells; every cell must hold a finite number")
        # mass(eta) and lq_norm(eta, 1), one sum of the density's cells each
        volume = eta.grid.cell_volume
        total = float(values[cells].sum() * volume)
        l1 = float(absval[cells].sum() * volume)
        if l1 > 0 and abs(total) > MASS_TOL * l1:
            raise ValueError(
                f"instance {i}: density is not mean-zero (mass {total:.3e} vs L1 {l1:.3e}); "
                "apply mean_zero_projection first")
    owner = np.arange(len(etas)).repeat(sizes)
    first = np.array(bounds[:-1])
    h = np.array([eta.grid.h for eta in etas])
    volume = np.array([eta.grid.cell_volume for eta in etas])
    sides = []
    for part in (values, -values):
        # the part's atoms at the cell centers (Grid.axis_centers)
        cells = (part > 0.0).nonzero()[0]
        own = owner[cells]
        masses = part[cells] * volume[own]
        # drop roundoff-level atoms (mean-zero projection residue); the
        # pruned fraction is <= n_atoms * 1e-13 of the density's largest
        # atom, far below every tolerance the distances are asserted at
        count = np.bincount(own, minlength=len(etas))
        top = np.zeros(len(etas))
        if len(masses):
            some = count > 0
            top[some] = np.maximum.reduceat(masses, (count.cumsum() - count)[some])
        keep = masses > (1e-13 * top)[own]
        cells, own, masses = cells[keep], own[keep], masses[keep]
        local = cells - first[own]
        count = np.bincount(own, minlength=len(etas))
        sides.append(((local + 0.5) * h[own], masses, local, own,
                      np.concatenate(([0], count.cumsum())).tolist()))
    (pos_p, mass_p, cells_p, _, off_p), (pos_n, mass_n, cells_n, own_n, off_n) = sides
    # remove the residual float imbalance of each density exactly
    scale = np.ones(len(etas))
    for u in range(len(etas)):
        p, n = slice(off_p[u], off_p[u + 1]), slice(off_n[u], off_n[u + 1])
        if p.start < p.stop and n.start < n.stop:
            scale[u] = mass_p[p].sum() / mass_n[n].sum()
    return _Atoms(pos_p, mass_p, cells_p, pos_n, mass_n * scale[own_n], cells_n, off_p, off_n,
                  of)


def _ranges(lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The ranges lo[a], ..., lo[a] + span[a] - 1, one after another."""
    return np.arange(span.sum()) + (lo - (span.cumsum() - span)).repeat(span)


def _level_members(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(atom, level) for each level lo[a] <= level < hi[a] of each atom a,
    sorted by level and, within a level, by atom."""
    span = hi - lo
    atom = np.arange(len(lo)).repeat(span)
    level = _ranges(lo, span)
    order = level.argsort(kind="stable")
    return atom[order], level[order]


def _best_orders(blocks: np.ndarray) -> np.ndarray:
    """The optimal target order of each k x k block of ``blocks``, shape
    (nb, k, k) for k in ``PERMUTATIONS``: the cheapest of the k! orders, or
    ``linear_sum_assignment``'s where the two cheapest totals tie within
    ``TIE_MARGIN`` times the block's largest cost."""
    k = blocks.shape[1]
    orders = PERMUTATIONS[k]
    # the totals of every order, one row of the blocks at a time: an
    # (nb, k!) array, where all k terms at once would take k times that
    totals = blocks[:, 0, orders[:, 0]]
    for r in range(1, k):
        totals += blocks[:, r, orders[:, r]]
    best = totals.argmin(axis=1)
    cols = orders[best]
    # the runner-up: the least total once the best is set aside
    rows = np.arange(len(totals))
    low = totals[rows, best]
    totals[rows, best] = np.inf
    ties = (totals.min(axis=1) - low <= TIE_MARGIN * blocks.max(axis=(1, 2))).nonzero()[0]
    for b in ties.tolist():
        cols[b] = linear_sum_assignment(blocks[b])[1]
    SOLVER_COUNTS["assignment_calls"] += len(ties)
    SOLVER_COUNTS["enumerated_blocks"] += len(blocks) - len(ties)
    return cols


def _density_levels(cells_p: np.ndarray, mass_p: np.ndarray, cells_n: np.ndarray,
                    mass_n: np.ndarray, m_u: np.ndarray, n_u: np.ndarray):
    """The levels of densities whose atoms come side by side, m_u[u] sources
    and n_u[u] targets of density u, each side in cell order.

    Returns the source members (atom, level) and the target atoms of the
    members, sorted by level and, within a level, by atom; the size and
    the width of each level; and the number of levels of each density.
    The levels are numbered density after density.
    """
    m, n = len(mass_p), len(mass_n)
    # the signed atom masses of each density in cell order, one after another
    owner = np.concatenate((np.arange(len(m_u)).repeat(m_u), np.arange(len(n_u)).repeat(n_u)))
    width = int(max(cells_p.max(), cells_n.max())) + 1
    # each side is in (density, cell) order already: the stable sort merges
    # the two runs
    order = (owner * width + np.concatenate((cells_p, cells_n))).argsort(kind="stable")
    signed = np.concatenate((mass_p, -mass_n))[order]
    owner = owner[order]
    bounds = np.concatenate(([0], (m_u + n_u).cumsum())).tolist()
    G = np.empty(m + n)
    for a, b in zip(bounds[:-1], bounds[1:]):
        np.cumsum(signed[a:b], out=G[a:b])
    last = np.array(bounds[1:]) - 1
    G[last] = 0.0  # the atoms balance, so G closes at 0: roundoff goes to the last atom
    # each G's rank among the distinct heights of all densities, density by
    # density.  The levels lie between a density's neighbouring heights, so
    # the level above rank r of the u-th density is level r - u
    by_height = G.argsort()
    by_height = by_height[owner[by_height].argsort(kind="stable")]
    heights, holder = G[by_height], owner[by_height]
    fresh = np.empty(m + n, dtype=bool)
    fresh[0] = True
    fresh[1:] = (heights[1:] != heights[:-1]) | (holder[1:] != holder[:-1])
    rank = np.empty(m + n, dtype=np.intp)
    rank[by_height] = fresh.cumsum() - 1
    heights, holder = heights[fresh], holder[fresh]
    widths = (heights[1:] - heights[:-1])[holder[1:] == holder[:-1]]
    # E_k = G_{k-1}, and the first atom's E is its density's closing G
    prev = np.empty_like(rank)
    prev[1:] = rank[:-1]
    prev[bounds[:-1]] = rank[last]
    lo, hi = np.empty(m + n, dtype=np.intp), np.empty(m + n, dtype=np.intp)
    lo[order] = np.minimum(rank, prev) - owner
    hi[order] = np.maximum(rank, prev) - owner
    # the closed walk G crosses every level as often upward as downward, and
    # at least once, so both sides list every level equally often
    src, lvl = _level_members(lo[:m], hi[:m])
    dst = _level_members(lo[m:], hi[m:])[0]
    ks = np.diff(np.concatenate(([0], (lvl[1:] != lvl[:-1]).nonzero()[0] + 1, [len(lvl)])))
    return src, dst, lvl, ks, widths, np.bincount(holder) - 1


def _solve_levels(spans, pos_p: np.ndarray, pos_n: np.ndarray, src: np.ndarray,
                  dst: np.ndarray, lvl: np.ndarray, ks: np.ndarray):
    """Solve the level blocks: each source member's partner, the target
    member it is paired with, and the cost of the pair.

    ``spans`` lists (a, b, (cost, length)): the levels a, ..., b - 1 are
    those of one cost and circle length.  Their block costs are evaluated in
    runs of whole levels of at most ``BLOCK_RUN_ENTRIES`` entries, one
    ``cost_eval`` call a run.  A block of one pair pairs its atoms, a block
    of five or more pairs is one ``linear_sum_assignment`` call, and the
    blocks of two to four pairs are set aside and solved together
    (``_best_orders``).
    """
    level_bounds = np.concatenate(([0], ks.cumsum()))
    starts = level_bounds[:-1]
    kk = ks * ks
    ends = kk.cumsum()
    first = ends - kk  # where each level's block starts in the entries
    row = np.arange(len(lvl)) - starts[lvl]
    dst_pos = pos_n[dst]
    # linear_sum_assignment returns a square block's rows as arange(k), so
    # its column indices are the solution
    col = np.zeros(len(lvl), dtype=np.intp)
    picked = np.empty(len(lvl))  # the cost of each member's pair
    small = {k: ([], []) for k in PERMUTATIONS}  # for each size, its levels and blocks
    for a, stop, (cost, length) in spans:
        while a < stop:
            # levels a, ..., b - 1: as many as fit in BLOCK_RUN_ENTRIES, and at least one
            b = min(max(int(ends.searchsorted(first[a] + BLOCK_RUN_ENTRIES, side="right")),
                        a + 1), stop)
            run = slice(level_bounds[a], level_bounds[b])
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
            sizes = ks[a:b]
            for k, (levels, blocks) in small.items():
                sized = (sizes == k).nonzero()[0] + a
                levels.append(sized)
                blocks.append(costs[(first[sized] - first[a])[:, None] + np.arange(k * k)])
            big = (sizes > max(PERMUTATIONS)).nonzero()[0] + a
            if len(big):
                SOLVER_COUNTS["assignment_calls"] += len(big)
                col[_ranges(starts[big], ks[big])] = np.concatenate([
                    linear_sum_assignment(costs[e0:e0 + k * k].reshape(k, k))[1]
                    for e0, k in zip((first[big] - first[a]).tolist(), ks[big].tolist())])
            picked[run] = costs[at + col[run]]
            a = b
    for k, (levels, blocks) in small.items():
        blocks = np.concatenate(blocks).reshape(-1, k, k)
        if len(blocks):
            members = starts[np.concatenate(levels)][:, None] + np.arange(k)
            col[members] = _best_orders(blocks)
            picked[members] = blocks[np.arange(len(blocks))[:, None], np.arange(k), col[members]]
    return starts[lvl] + col, picked


def _level_plans(atoms: _Atoms, specs: list[tuple[CostSpec, float]]):
    """Optimal plans between balanced sources and targets on the circle:
    yields (i, (si, dj, pm, value)) for each instance i of ``atoms`` that has
    sources and targets, with ``specs[i]`` = (cost, length).  The plan is the
    union of the uniform-mass assignments on the levels of its mass prefix
    sum (module docstring): its entries (source, target, mass), sorted by
    source and then target, and its value, the cost of each entry times its
    mass summed in entry order.  The counts of the solves go into
    ``SOLVER_COUNTS``.

    One level pass finds the levels of the distinct densities of up to
    ``BATCH_ATOMS`` atoms, and each instance takes those of its density; a
    pass's plans are yielded when it is done, so that a caller that keeps
    only their values frees each pass's arrays before the next.  The
    instances are ordered by the first appearance of their specs, so that
    the levels of one spec follow each other and each run of their block
    costs is one ``cost_eval`` call.
    """
    count_p, count_n = np.diff(atoms.off_p), np.diff(atoms.off_n)
    group: dict = {}
    keys = [group.setdefault(spec, len(group)) for spec in specs]
    inst = sorted((i for i, u in enumerate(atoms.of) if count_p[u] and count_n[u]),
                  key=keys.__getitem__)
    # the densities of the live instances, in the order of first use, in
    # passes of at most BATCH_ATOMS atoms
    passes: list[list[int]] = []
    size = BATCH_ATOMS
    for u in dict.fromkeys(atoms.of[i] for i in inst):
        if size + count_p[u] + count_n[u] > BATCH_ATOMS:
            passes.append([])
            size = 0
        passes[-1].append(u)
        size += count_p[u] + count_n[u]
    for dens in passes:
        chosen = set(dens)
        yield from _plan_pass(atoms, specs, keys, [i for i in inst if atoms.of[i] in chosen], dens)


def _plan_pass(atoms: _Atoms, specs: list[tuple[CostSpec, float]], keys: list[int],
               inst: list[int], dens: list[int]) -> list[tuple[int, tuple]]:
    """One level pass of ``_level_plans``: (i, (si, dj, pm, value)) for the
    instances i of ``inst``, whose densities are ``dens``, in order of first
    use; the instances of one spec key follow each other."""
    count_p, count_n = np.diff(atoms.off_p), np.diff(atoms.off_n)
    m_i, n_i = count_p[dens], count_n[dens]
    take_p = _ranges(np.asarray(atoms.off_p)[dens], m_i)
    take_n = _ranges(np.asarray(atoms.off_n)[dens], n_i)
    pos_p, mass_p = atoms.pos_p[take_p], atoms.mass_p[take_p]
    pos_n, mass_n = atoms.pos_n[take_n], atoms.mass_n[take_n]
    src, dst, lvl, ks, widths, n_lvl = _density_levels(
        atoms.cells_p[take_p], mass_p, atoms.cells_n[take_n], mass_n, m_i, n_i)
    # each instance takes its density's levels and their members.  An
    # instance numbers its atoms after those of the instances before it, so
    # that the pairs of two instances of one density stay apart.  Only a
    # pass with a shared density does this: copying the members of every
    # pass raised lp-large's peak RSS by 0.9 MiB
    key_p, key_n = src, dst
    if len(dens) < len(inst):
        where = {u: k for k, u in enumerate(dens)}
        use = np.array([where[atoms.of[i]] for i in inst])
        lvl_u = np.concatenate(([0], n_lvl.cumsum()))
        mem_u = np.concatenate(([0], ks.cumsum()))[lvl_u]
        span = (mem_u[1:] - mem_u[:-1])[use]
        taken = _ranges(mem_u[:-1][use], span)
        first_lvl = np.concatenate(([0], n_lvl[use].cumsum()[:-1]))
        lvl = lvl[taken] + (first_lvl - lvl_u[:-1][use]).repeat(span)
        take = _ranges(lvl_u[:-1][use], n_lvl[use])
        ks, widths, n_lvl = ks[take], widths[take], n_lvl[use]
        src_u = np.concatenate(([0], m_i.cumsum()))[:-1][use]
        dst_u = np.concatenate(([0], n_i.cumsum()))[:-1][use]
        m_i, n_i = m_i[use], n_i[use]
        src, dst = src[taken], dst[taken]
        key_p = src + (np.concatenate(([0], m_i.cumsum()[:-1])) - src_u).repeat(span)
        key_n = dst + (np.concatenate(([0], n_i.cumsum()[:-1])) - dst_u).repeat(span)
        mass_p, mass_n = mass_p[_ranges(src_u, m_i)], mass_n[_ranges(dst_u, n_i)]
    # the levels of each instance, and those of each spec
    lvl_off = np.concatenate(([0], n_lvl.cumsum()))
    cuts = [j for j in range(len(inst)) if j == 0 or keys[inst[j]] != keys[inst[j - 1]]]
    spans = [(int(lvl_off[j]), int(lvl_off[k]), specs[inst[j]])
             for j, k in zip(cuts, cuts[1:] + [len(inst)])]
    partner, picked = _solve_levels(spans, pos_p, pos_n, src, dst, lvl, ks)
    # merge the pairs that several levels repeat
    nt = len(mass_n)
    key = key_p * nt + key_n[partner]
    del src, dst, key_p, key_n, partner
    by_pair = key.argsort(kind="stable")
    key = key[by_pair]
    pairs = np.concatenate(([0], (key[1:] != key[:-1]).nonzero()[0] + 1))
    si, dj = np.divmod(key[pairs], nt)
    pm = np.add.reduceat(widths[lvl][by_pair], pairs)
    weighted = picked[by_pair][pairs] * pm  # the cost of each entry times its mass
    # the worst relative defect of an instance's row and column sums
    # against its atom masses (TransportPlan.marginal_deviation)
    src_off = np.concatenate(([0], m_i.cumsum()))
    dst_off = np.concatenate(([0], n_i.cumsum()))
    defect = np.maximum(
        np.maximum.reduceat(np.abs(np.bincount(si, weights=pm, minlength=len(mass_p)) - mass_p),
                            src_off[:-1]),
        np.maximum.reduceat(np.abs(np.bincount(dj, weights=pm, minlength=nt) - mass_n),
                            dst_off[:-1]))
    scale = np.maximum(np.maximum.reduceat(mass_p, src_off[:-1]),
                       np.maximum.reduceat(mass_n, dst_off[:-1]))
    # each instance's entries, numbered by its own atoms
    cut = si.searchsorted(src_off).tolist()
    per_entry = np.diff(cut)
    si = si - src_off[:-1].repeat(per_entry)
    dj = dj - dst_off[:-1].repeat(per_entry)
    SOLVER_COUNTS["instances"] += len(inst)
    SOLVER_COUNTS["levels"] += len(ks)
    SOLVER_COUNTS["assignment_vars"] += int((ks * ks).sum())
    SOLVER_COUNTS["worst_marginal_defect"] = max(SOLVER_COUNTS["worst_marginal_defect"],
                                                 float((defect / scale).max()))
    return [(i, (si[a:b], dj[a:b], pm[a:b], float(weighted[a:b].sum())))
            for i, a, b in zip(inst, cut, cut[1:])]


def solve_batch(batch) -> list[tuple[TransportPlan, float]]:
    """Exact optimal plan and transport cost of each instance (eta, cost) of
    ``batch``, in batch order.

    Each instance is split into the levels of its mass prefix sum and each
    level is solved on its own (``_level_plans``): some optimal plan for a
    concave cost is non-crossing (McCann 1999; Delon, Salomon & Sobolevski
    2012), and a non-crossing plan pairs only mass of the same height, so the
    split loses nothing.  A value sums the cost of each entry times its mass
    in entry order, by source and then target, and is the same whatever
    else is in the batch.  A bad density raises ValueError, prefixed with
    ``instance i:``, before anything is solved.
    """
    batch = list(batch)
    if not batch:
        return []
    atoms = _prepare([eta for eta, _ in batch])
    solved = dict(_level_plans(atoms, [(cost, eta.grid.length) for eta, cost in batch]))
    empty = np.zeros(0, dtype=np.intp)
    plans = [TransportPlan(eta, cost, *atoms.instance(i),
                           *solved.get(i, (empty, empty, np.zeros(0), 0.0)))
             for i, (eta, cost) in enumerate(batch)]
    return [(plan, plan.value) for plan in plans]


def solve_primal(eta: SignedDensity, cost: CostSpec) -> tuple[TransportPlan, float]:
    """Exact optimal plan between the Jordan parts and its transport cost: a
    batch of one (``solve_batch``)."""
    return solve_batch([(eta, cost)])[0]


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


def kr_distances(batch) -> list[float]:
    """The KR distance of each instance (eta, cost) of ``batch``, solved as
    one batch (``solve_batch``).  Only the values are kept, so each level
    pass's arrays are freed before the next pass."""
    batch = list(batch)
    values = [0.0] * len(batch)
    if batch:
        for i, (*_, value) in _level_plans(_prepare([eta for eta, _ in batch]),
                                           [(cost, eta.grid.length) for eta, cost in batch]):
            values[i] = value
    return values


def w_neg11_norms(etas) -> list[float]:
    """Dual-Lipschitz norm of each density: sup of the pairing over grid
    functions with |phi| <= 1 and neighbour slopes <= 1, which is the KR
    distance for the cost min(d, 2) (module docstring), solved as one batch."""
    return kr_distances([(eta, truncated_linear(2.0)) for eta in etas])


def w_neg11_norm(eta: SignedDensity) -> float:
    """The W^{-1,1} norm of one density: a batch of one (``w_neg11_norms``)."""
    return w_neg11_norms([eta])[0]


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


def potential_gradient_on_support(plan: TransportPlan) -> GradientSamples:
    delta = plan.displacements()
    dist = np.abs(delta)
    keep = dist > 0  # diagonal mass transports at zero cost; skip
    delta, dist = delta[keep], dist[keep]
    grad = cost_derivative(plan.cost, dist) * delta / dist
    return GradientSamples(plan.src_idx[keep], plan.dst_idx[keep],
                           plan.src_cells[plan.src_idx[keep]], plan.dst_cells[plan.dst_idx[keep]],
                           plan.plan_mass[keep], dist, grad)
