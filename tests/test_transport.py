import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import optimize, sparse
from scipy.optimize._linprog_util import _check_result

from krlab import transport
from krlab.cost import CostKind, CostSpec, bounded_log, cost_eval, cost_sup, truncated_linear
from krlab.estimates import build_eta
from krlab.experiments import PROP1_DEFAULTS, _twin_cusp_instance
from krlab.measures import (Grid, SignedDensity, density_from_function, jordan_decompose,
                            lq_norm, mean_zero_projection, periodic_distance_matrix)
from krlab.transport import (SOLVER_COUNTS, _prepare_instance, check_plan, cost_matrix,
                             duality_gap, kr_distance, potential_gradient_on_support,
                             solve_dual, solve_primal, w_neg11_norm)

real_linprog = transport.linprog


def step(n):
    return density_from_function(Grid(1, n), lambda x: np.where(x < 0.5, 1.0, -1.0))


def two_atoms(n=64, i=10, j=29, m=1.0):
    """Signed density carrying atoms of mass +-m at cells i and j."""
    g = Grid(1, n)
    v = np.zeros(n)
    v[i] = m / g.h
    v[j] = -m / g.h
    return SignedDensity(g, v), g.axis_centers()[i], g.axis_centers()[j]


def random_mean_zero(grid, rng):
    return mean_zero_projection(SignedDensity(grid, rng.standard_normal(grid.shape)))


# ---------------------------------------------------------------------------
# closed-form instances

def test_empty_instance():
    g = Grid(1, 32)
    zero = SignedDensity(g, np.zeros(32))
    plan, val = solve_primal(zero, bounded_log(0.1, 0.5))
    assert val == 0.0 and plan.n_entries == 0
    pot, dval = solve_dual(zero, bounded_log(0.1, 0.5))
    assert dval == 0.0 and not pot.values.any()
    assert kr_distance(zero, truncated_linear(1.0)) == 0.0
    assert w_neg11_norm(zero) == 0.0
    g_empty = potential_gradient_on_support(plan, bounded_log(0.1, 0.5))
    assert g_empty.mass.size == 0


def test_two_atom_primal_dual():
    eta, x, y = two_atoms()
    dist = abs(x - y)
    spec = bounded_log(0.1, 0.5)
    plan, val = solve_primal(eta, spec)
    # single feasible pairing: value = c(dist) exactly
    assert plan.n_entries == 1
    assert val == pytest.approx(math.log(dist / 0.1 + 1.0), rel=1e-14)
    pot, dval = solve_dual(eta, spec)
    assert dval == pytest.approx(val, rel=1e-12)
    # the potential saturates the constraint between the two atoms
    i, j = np.nonzero(eta.values > 0)[0][0], np.nonzero(eta.values < 0)[0][0]
    assert pot.values[i] - pot.values[j] == pytest.approx(val, abs=1e-12)
    assert duality_gap(plan, pot) <= 1e-12


def test_dual_from_the_plan_needs_no_second_lp(rng):
    eta = random_mean_zero(Grid(1, 64), rng)
    spec = bounded_log(0.05, 0.5)
    plan, primal = solve_primal(eta, spec)
    solves = SOLVER_COUNTS["instances"]
    pot, dual = solve_dual(eta, spec, plan)
    assert SOLVER_COUNTS["instances"] == solves
    # the same plan, so the same duals, bit for bit, as a solve of its own
    alone, dual_alone = solve_dual(eta, spec)
    assert SOLVER_COUNTS["instances"] == solves + 1
    assert np.array_equal(pot.values, alone.values) and dual == dual_alone
    assert duality_gap(plan, pot) <= 1e-9 * (1 + abs(primal))


def test_dual_rejects_a_plan_of_another_instance(rng):
    eta, other = random_mean_zero(Grid(1, 32), rng), random_mean_zero(Grid(1, 32), rng)
    plan, _ = solve_primal(other, bounded_log(0.05, 0.5))
    with pytest.raises(ValueError, match="another density"):
        solve_dual(eta, bounded_log(0.05, 0.5), plan)
    with pytest.raises(ValueError, match="different cost"):
        solve_dual(other, bounded_log(0.1, 0.5), plan)


def test_assignment_potential_solves_no_lp():
    eta = step(16)
    spec = bounded_log(0.1, 0.5)
    counts = dict(SOLVER_COUNTS)
    plan, primal = solve_primal(eta, spec)
    assert SOLVER_COUNTS["instances"] == counts["instances"] + 1
    pot, dual = solve_dual(eta, spec, plan)
    # 8 levels of one atom pair each, with exact marginals
    assert SOLVER_COUNTS == {**counts, "instances": counts["instances"] + 1,
                             "levels": counts["levels"] + 8,
                             "assignment_vars": counts["assignment_vars"] + 8}
    assert dual == pytest.approx(primal, rel=1e-10)
    # without a plan, solve_primal's one solve is the only one
    alone, _ = solve_dual(eta, spec)
    assert SOLVER_COUNTS == {**counts, "instances": counts["instances"] + 2,
                             "levels": counts["levels"] + 16,
                             "assignment_vars": counts["assignment_vars"] + 16}
    assert np.array_equal(alone.values, pot.values)


@pytest.mark.parametrize("n", [16, 256, 1024])
@pytest.mark.parametrize("delta", [0.1, 0.01, 1e-3, 1e-4])
def test_assignment_potential_is_certified(n, delta):
    # transport-selftest's thresholds: relative gap, sup bound, slope bound.
    # The step's plan is its own inverse; the scattered signs' plan is not.
    signs = np.where(np.random.default_rng(n).permutation(n) < n // 2, 1.0, -1.0)
    spec = bounded_log(delta, 0.5)
    for eta in (step(n), SignedDensity(Grid(1, n), signs)):
        plan, primal = solve_primal(eta, spec)
        pot, dual = solve_dual(eta, spec, plan)
        phi = pot.values.ravel()
        assert duality_gap(plan, pot) / (1.0 + abs(primal)) <= 1e-8
        assert abs(dual - primal) <= 1e-8 * (1.0 + abs(primal))
        assert np.abs(phi).max() <= cost_sup(spec) + 1e-12
        slopes = np.abs(np.diff(np.r_[phi, phi[0]])) / eta.grid.h
        assert slopes.max() <= 1.0 / delta + 1e-9


@pytest.mark.parametrize("a, b", [(0, 1), (5, 20), (0, 31)])
def test_assignment_plan_with_two_targets_swapped_is_not_optimal(a, b):
    eta = step(64)
    spec = bounded_log(0.01, 0.5)
    plan, _ = solve_primal(eta, spec)
    dst = plan.dst_idx.copy()
    dst[[a, b]] = dst[[b, a]]
    with pytest.raises(ValueError, match="transport plan is not optimal"):
        solve_dual(eta, spec, dataclasses.replace(plan, dst_idx=dst))


def test_two_atom_truncated():
    eta, x, y = two_atoms()
    assert kr_distance(eta, truncated_linear(1.0)) == pytest.approx(abs(x - y), rel=1e-14)
    # truncation bites when R < dist
    assert kr_distance(eta, truncated_linear(0.1)) == pytest.approx(0.1, rel=1e-14)


def test_two_atom_w_neg11():
    eta, x, y = two_atoms()
    # optimal phi is a capped ramp: value = min(dist, 2) * mass
    assert w_neg11_norm(eta) == pytest.approx(abs(x - y), rel=1e-10)


def test_e1_step_truncated_linear_value():
    # the optimal map of the periodic step gives int |x - T(x)| = 1/8
    for n in (256, 1024):
        val = kr_distance(step(n), truncated_linear(0.5))
        assert abs(val - 0.125) <= 2.0 / n


def test_e1_step_duality_bounded_log():
    eta = step(1024)
    spec = bounded_log(0.01, 0.5)
    plan, primal = solve_primal(eta, spec)
    pot, dual = solve_dual(eta, spec)
    assert abs(primal - dual) <= 1e-8 * (1 + abs(primal))
    assert duality_gap(plan, pot) <= 1e-8 * (1 + abs(primal))


def test_kr_coarse_fine_consistency():
    # fine-grid distances match the coarse brute-force LP within 3 coarse cells
    for delta in (0.1, 0.01):
        spec = bounded_log(delta, 0.5)
        fine = kr_distance(step(2048), spec)
        coarse = kr_distance(step(256), spec)
        assert abs(fine - coarse) <= 3.0 / 256


# ---------------------------------------------------------------------------
# exact-solver certification against independent oracles

def brute_force_permutations(eta, spec):
    """True exhaustive enumeration for uniform-mass instances (<= 8 atoms)."""
    pos, neg = jordan_decompose(eta)
    g = eta.grid
    cells_p = np.nonzero(pos.values.ravel() > 0)[0]
    cells_n = np.nonzero(neg.values.ravel() > 0)[0]
    m = pos.values.ravel()[cells_p[0]] * g.cell_volume
    xp = g.axis_centers()[cells_p]
    xn = g.axis_centers()[cells_n]
    C = cost_eval(spec, periodic_distance_matrix(xp, xn, g.length))
    best = math.inf
    for perm in itertools.permutations(range(len(cells_n))):
        best = min(best, sum(C[i, p] for i, p in enumerate(perm)))
    return best * m


def dense_lp_oracle(eta, spec):
    """Generic dense LP with explicit equality matrix (independent assembly)."""
    pos, neg = jordan_decompose(eta)
    g = eta.grid
    cp = np.nonzero(pos.values.ravel() > 0)[0]
    cn = np.nonzero(neg.values.ravel() > 0)[0]
    a = pos.values.ravel()[cp] * g.cell_volume
    b = neg.values.ravel()[cn] * g.cell_volume
    b *= a.sum() / b.sum()
    C = cost_eval(spec, periodic_distance_matrix(g.axis_centers()[cp], g.axis_centers()[cn],
                                                 g.length))
    m, n = C.shape
    A = np.zeros((m + n, m * n))
    for i in range(m):
        A[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A[m + j, j::n] = 1.0
    res = optimize.linprog(C.ravel(), A_eq=A, b_eq=np.concatenate([a, b]),
                           bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def test_solver_matches_permutation_enumeration(rng):
    g = Grid(1, 32)
    spec = bounded_log(0.05, 0.5)
    for k in (2, 4, 6):
        cells = rng.choice(32, size=2 * k, replace=False)
        v = np.zeros(32)
        v[cells[:k]] = 1.0
        v[cells[k:]] = -1.0
        eta = SignedDensity(g, v)
        _, val = solve_primal(eta, spec)
        assert val == pytest.approx(brute_force_permutations(eta, spec), abs=1e-10)


def test_solver_matches_dense_lp(rng):
    spec = bounded_log(0.05, 0.5)
    for k_pos, k_neg in ((3, 5), (8, 8), (12, 7)):
        g = Grid(1, 64)
        v = np.zeros(64)
        cells = rng.choice(64, size=k_pos + k_neg, replace=False)
        v[cells[:k_pos]] = rng.uniform(0.5, 2.0, k_pos)
        wneg = rng.uniform(0.5, 2.0, k_neg)
        v[cells[k_pos:]] = -wneg * (v.sum() / wneg.sum())
        eta = SignedDensity(g, v)
        _, val = solve_primal(eta, spec)
        assert val == pytest.approx(dense_lp_oracle(eta, spec), abs=1e-10)


def test_plan_feasibility_and_sparsity(rng):
    g = Grid(1, 64)
    eta = random_mean_zero(g, rng)
    spec = bounded_log(0.05, 0.5)
    plan, val = solve_primal(eta, spec)
    assert plan.marginal_deviation() <= 1e-10
    assert plan.n_entries <= len(plan.src_mass) + len(plan.dst_mass) - 1


def test_unbalanced_rejected(rng):
    g = Grid(1, 32)
    eta = SignedDensity(g, rng.standard_normal(32) + 1.0)
    with pytest.raises(ValueError, match="apply mean_zero_projection first"):
        solve_primal(eta, bounded_log(0.1, 0.5))
    with pytest.raises(ValueError, match="apply mean_zero_projection first"):
        w_neg11_norm(eta)


@pytest.mark.parametrize("bad, solve", [
    (np.nan, lambda eta: kr_distance(eta, bounded_log(0.1, 0.5))),
    (np.inf, lambda eta: kr_distance(eta, bounded_log(0.1, 0.5))),
    (np.nan, w_neg11_norm),
    (np.inf, w_neg11_norm),
    (-np.inf, lambda eta: check_plan(solve_primal(step(16), bounded_log(0.1, 0.5))[0], eta,
                                     bounded_log(0.1, 0.5))),
], ids=["kr-nan", "kr-inf", "wneg11-nan", "wneg11-inf", "check-plan-neg-inf"])
def test_non_finite_density_is_rejected(bad, solve):
    # unchecked, a NaN cell drops out of the Jordan parts (kr_distance 0.496
    # on a rebalanced 7-against-8 step), an inf cell reads 0.0, and the
    # W^{-1,1} LP fails its feasibility check
    v = step(16).values.copy()
    v[[3, 11]] = bad
    with pytest.raises(ValueError, match="NaN or inf in 2 of 16 cells"):
        solve(SignedDensity(Grid(1, 16), v))


def test_suboptimal_plan_has_positive_gap(rng):
    g = Grid(1, 64)
    eta = random_mean_zero(g, rng)
    spec = bounded_log(0.05, 0.5)
    plan, val = solve_primal(eta, spec)
    pot, _ = solve_dual(eta, spec)
    assert plan.n_entries >= 2
    # swap two targets to build a feasible but suboptimal plan; for a concave
    # cost some swaps tie, so pick the worst one
    from dataclasses import replace
    bad = None
    for a in range(min(plan.n_entries, 12)):
        for b in range(a + 1, min(plan.n_entries, 12)):
            swapped = plan.dst_idx.copy()
            swapped[a], swapped[b] = swapped[b], swapped[a]
            cand = replace(plan, dst_idx=swapped)
            cand = replace(cand, value=float(
                (cost_eval(spec, cand.entry_distances()) * cand.plan_mass).sum()))
            if bad is None or cand.value > bad.value:
                bad = cand
    assert bad.value > val + 1e-9
    assert duality_gap(bad, pot) > 0


def test_duality_gap_instance_mismatch(rng):
    g = Grid(1, 32)
    eta = random_mean_zero(g, rng)
    plan, _ = solve_primal(eta, bounded_log(0.1, 0.5))
    pot, _ = solve_dual(eta, bounded_log(0.2, 0.5))
    with pytest.raises(ValueError):
        duality_gap(plan, pot)


def test_potential_feasibility_full_grid(rng):
    g = Grid(1, 64)
    eta = random_mean_zero(g, rng)
    spec = bounded_log(0.05, 0.5)
    pot, _ = solve_dual(eta, spec)
    phi = pot.values
    # d-Lipschitz on every pair, and the normalization bound
    centers = g.axis_centers()
    D = cost_eval(spec, periodic_distance_matrix(centers, centers, 1.0))
    assert (np.abs(phi[:, None] - phi[None, :]) - D).max() <= 1e-10
    assert np.abs(phi).max() <= cost_sup(spec) + 1e-12
    assert phi.max() + phi.min() == pytest.approx(0.0, abs=1e-12)


def test_gradient_on_support_branches():
    # entries on both cost branches carry the respective gradient magnitudes
    g = Grid(1, 64)
    spec = bounded_log(0.01, 0.1)  # R small so some pairs exceed it
    eta, x, y = two_atoms(i=5, j=40)  # distance 35/64 > R
    plan, _ = solve_primal(eta, spec)
    gs = potential_gradient_on_support(plan, spec)
    dist = abs(x - y) if abs(x - y) <= 0.5 else 1 - abs(x - y)
    expect = (0.1**2 / (0.1 + 0.01)) / dist**2
    assert gs.magnitude[0] == pytest.approx(expect, rel=1e-12)
    eta2, x2, y2 = two_atoms(i=5, j=8)  # distance 3/64 < R
    plan2, _ = solve_primal(eta2, spec)
    gs2 = potential_gradient_on_support(plan2, spec)
    assert gs2.magnitude[0] == pytest.approx(1.0 / (0.01 + 3 / 64), rel=1e-12)
    # gradient points from the negative atom toward the positive one in 1-d
    assert gs2.grad[0] < 0  # source at 5 is left of target at 8


def test_metric_axioms_small(rng):
    g = Grid(1, 32)
    for kind in (bounded_log(0.05, 0.5), truncated_linear(0.5)):
        for _ in range(20):
            a, b, c = (random_mean_zero(g, rng) for _ in range(3))
            dab = kr_distance(SignedDensity(g, a.values - b.values), kind)
            dbc = kr_distance(SignedDensity(g, b.values - c.values), kind)
            dac = kr_distance(SignedDensity(g, a.values - c.values), kind)
            assert dac <= dab + dbc + 1e-9
            dba = kr_distance(SignedDensity(g, b.values - a.values), kind)
            assert abs(dab - dba) <= 1e-10


def test_identity_of_indiscernibles(rng):
    g = Grid(1, 32)
    spec = bounded_log(0.05, 0.5)
    # nonzero density has distance bounded below by c(h) * mass
    eta = random_mean_zero(g, rng)
    val = kr_distance(eta, spec)
    pos, _ = jordan_decompose(eta)
    assert val >= cost_eval(spec, g.h) * pos.values.sum() * g.h * (1 - 1e-9)
    if val <= 1e-12:
        assert lq_norm(eta, 1) <= 1e-10


def test_w_neg11_sandwich(rng):
    g = Grid(1, 64)
    for _ in range(10):
        eta = random_mean_zero(g, rng)
        d1 = kr_distance(eta, truncated_linear(1.0))
        w = w_neg11_norm(eta)
        assert d1 <= w + 1e-9
        assert w <= 2 * d1 + 1e-9


@pytest.mark.parametrize("solve", [
    lambda eta: solve_primal(eta, bounded_log(0.05, 0.5)),
    lambda eta: check_plan(solve_primal(step(16), bounded_log(0.05, 0.5))[0], eta,
                           bounded_log(0.05, 0.5)),
    lambda eta: solve_dual(eta, bounded_log(0.05, 0.5)),
    lambda eta: kr_distance(eta, truncated_linear(1.0)),
    w_neg11_norm,
], ids=["solve_primal", "check_plan", "solve_dual", "kr_distance", "w_neg11_norm"])
def test_transport_rejects_a_2d_density(rng, solve):
    # transport is on the circle: a uniform-mass 2-d density and a
    # non-uniform one are refused alike, before any solve
    signs = np.zeros(64)
    signs[rng.choice(64, size=40, replace=False)] = np.repeat([1.0, -1.0], 20)
    uniform, lp = SignedDensity(Grid(2, 8), signs.reshape(8, 8)), random_mean_zero(Grid(2, 16), rng)
    for eta in (uniform, lp):
        with pytest.raises(ValueError, match="transport is implemented on 1-d grids only, "
                                             "got a 2-d grid"):
            solve(eta)


# ---------------------------------------------------------------------------
# uniform-mass assignments, solved level by level, against one dense
# scipy.optimize.linear_sum_assignment over all atoms

def dense_assignment(eta, spec):
    """The dense oracle: each source's target and the value, summed in
    source order as solve_primal sums it."""
    pos_p, mass_p, _, pos_n, _, _ = _prepare_instance(eta)
    C = cost_matrix(spec, pos_p, pos_n, eta.grid.length)
    rows, cols = optimize.linear_sum_assignment(C)
    return cols, float((C[rows, cols] * np.full(len(rows), mass_p.mean())).sum())


def circle_signs(rng, n, pattern):
    """Signs of a uniform-mass instance on n cells: equally many +1 and -1
    cells, the rest empty."""
    if pattern == "alternating":  # one level holds every atom: the worst case
        return np.tile([1.0, -1.0], n // 2)
    k = int(rng.integers(1, n // 2 + 1))
    cells = np.sort(rng.choice(n, size=2 * k, replace=False))
    if pattern == "scattered":
        seq = rng.permutation(np.repeat([1.0, -1.0], k))
    else:  # clustered: runs of each sign, r runs of each
        r = int(rng.integers(1, min(k, 4) + 1))
        cut_p = np.diff(np.r_[0, np.sort(rng.choice(np.arange(1, k), r - 1, replace=False)), k])
        cut_n = np.diff(np.r_[0, np.sort(rng.choice(np.arange(1, k), r - 1, replace=False)), k])
        seq = np.concatenate([np.repeat([1.0, -1.0], [a, b]) for a, b in zip(cut_p, cut_n)])
    v = np.zeros(n)
    v[np.roll(cells, int(rng.integers(2 * k)))] = seq
    return v


def random_circle_spec(rng, length):
    if rng.random() < 0.5:
        return bounded_log(10.0 ** rng.uniform(-4, 0), length * rng.uniform(0.05, 1.0))
    return truncated_linear(length * rng.uniform(0.02, 1.0))


SIGN_PATTERNS = ("scattered", "clustered", "alternating")


@pytest.mark.parametrize("pattern", SIGN_PATTERNS)
@pytest.mark.parametrize("length", [1.0, 2 * math.pi])
def test_level_assignment_matches_dense_assignment(pattern, length):
    rng = np.random.default_rng([7, SIGN_PATTERNS.index(pattern), int(length)])
    for trial in range(24):
        g = Grid(1, int(rng.choice([8, 32, 128])), length)
        eta = SignedDensity(g, circle_signs(rng, g.n, pattern) / g.h)
        spec = random_circle_spec(rng, length)
        plan, value = solve_primal(eta, spec)
        _, oracle = dense_assignment(eta, spec)
        assert abs(value - oracle) <= 1e-12 * oracle, (trial, spec)
        assert plan.marginal_deviation() == 0.0
        if trial % 4 == 0:  # a sample of level plans is certified by its duals
            pot, _ = solve_dual(eta, spec, plan)
            assert duality_gap(plan, pot) <= 1e-8 * value, (trial, spec)


@pytest.mark.parametrize("n", [2048, 4096])
def test_level_assignment_of_the_step_is_the_dense_one(n):
    # e1-example's instance at the bv-step deltas: the same permutation and
    # the same value, bit for bit
    eta = step(n)
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        spec = bounded_log(delta, 0.5)
        plan, value = solve_primal(eta, spec)
        cols, oracle = dense_assignment(eta, spec)
        assert np.array_equal(plan.src_idx, np.arange(n // 2))
        assert np.array_equal(plan.dst_idx, cols)
        assert value == oracle


@pytest.mark.parametrize("pattern, blocks", [("step", [1] * 32), ("alternating", [32])])
def test_every_level_of_two_or_more_pairs_is_one_linear_sum_assignment(monkeypatch, pattern,
                                                                       blocks):
    sizes = []

    def spy(C):
        sizes.append(C.shape)
        return optimize.linear_sum_assignment(C)

    monkeypatch.setattr(transport, "linear_sum_assignment", spy)
    eta = step(64) if pattern == "step" else SignedDensity(Grid(1, 64), np.tile([1.0, -1.0], 32))
    before = dict(SOLVER_COUNTS)
    solve_primal(eta, bounded_log(0.01, 0.5))
    # a level of one atom pair pairs its atoms without a call
    assert sizes == [(k, k) for k in blocks if k > 1]
    assert SOLVER_COUNTS["levels"] == before["levels"] + len(blocks)
    entries = sum(k * k for k in blocks)
    assert SOLVER_COUNTS["assignment_vars"] == before["assignment_vars"] + entries


# ---------------------------------------------------------------------------
# the level solver on instances of any mass, against
# scipy.optimize.linprog(method="highs") and against brute force

TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def transport_a_eq(m, n):
    """The transportation constraint matrix, built as a COO -> CSR."""
    cols = np.arange(m * n)
    rows = np.concatenate([np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)])
    return sparse.csr_matrix((np.ones(2 * m * n), (rows, np.concatenate([cols, cols]))),
                             shape=(m + n, m * n))


def linprog_value(eta, spec, presolve=False):
    """The transportation LP of eta's atoms by scipy's linprog, as
    (status, value), the value None unless the status is 0.  By default
    without presolve, which can call these LPs infeasible, and at tight
    tolerances."""
    pos_p, mass_p, _, pos_n, mass_n, _ = _prepare_instance(eta)
    C = cost_matrix(spec, pos_p, pos_n, eta.grid.length)
    res = optimize.linprog(C.ravel(), A_eq=transport_a_eq(*C.shape),
                           b_eq=np.concatenate([mass_p, mass_n]) / mass_p.sum(),
                           bounds=(0, None), method="highs",
                           options={"presolve": presolve, **TIGHT})
    return res.status, res.fun * mass_p.sum() if res.status == 0 else None


def random_atoms(rng, n):
    """Sources and targets of random mass on random cells of a 1-d grid."""
    g = Grid(1, n)
    k = int(rng.integers(2, n // 2 + 1))
    cells = rng.choice(n, size=k, replace=False)
    n_pos = int(rng.integers(1, k))
    v = np.zeros(n)
    v[cells[:n_pos]] = rng.uniform(0.1, 2.0, n_pos)
    neg = rng.uniform(0.1, 2.0, k - n_pos)
    v[cells[n_pos:]] = -neg * (v.sum() / neg.sum())
    return SignedDensity(g, v)


LEVEL_SPECS = [bounded_log(0.2, 0.5), bounded_log(1e-2, 0.5), bounded_log(1e-4, 0.5),
               truncated_linear(0.5), truncated_linear(0.1)]
LEVEL_SPEC_IDS = ["log-0.2", "log-1e-2", "log-1e-4", "lin-0.5", "lin-0.1"]


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("spec", LEVEL_SPECS, ids=LEVEL_SPEC_IDS)
def test_level_solver_matches_linprog(n, spec):
    # dense random densities and sparse atoms of random mass
    rng = np.random.default_rng([n, LEVEL_SPECS.index(spec)])
    for trial in range(6):
        eta = random_mean_zero(Grid(1, n), rng) if trial % 2 else random_atoms(rng, n)
        plan, value = solve_primal(eta, spec)
        status, oracle = linprog_value(eta, spec)
        assert status == 0
        assert abs(value - oracle) <= 1e-9 * oracle, trial
        assert plan.marginal_deviation() <= 1e-13, trial
        pot, _ = solve_dual(eta, spec, plan)
        assert duality_gap(plan, pot) >= -1e-12 * value, trial


def sliver_brute_force(eta, spec):
    """Exhaustive: integer atom masses cut into unit slivers, and every
    assignment of source slivers to target slivers.  The transportation LP
    with integer marginals has an integer optimal plan, so this is its
    value."""
    pos_p, mass_p, _, pos_n, mass_n, _ = _prepare_instance(eta)
    xs = np.repeat(pos_p, np.rint(mass_p).astype(int))
    ys = np.repeat(pos_n, np.rint(mass_n).astype(int))
    C = cost_eval(spec, periodic_distance_matrix(xs, ys, eta.grid.length))
    rows = np.arange(len(xs))
    return min(C[rows, list(perm)].sum() for perm in itertools.permutations(rows))


def integer_atoms(g, cells, masses):
    """Atoms of the given signed integer masses on the given cells."""
    v = np.zeros(g.n)
    v[cells] = np.asarray(masses, dtype=float) / g.h
    return SignedDensity(g, v)


def composition(rng, total, parts):
    cuts = np.sort(rng.choice(np.arange(1, total), parts - 1, replace=False))
    return np.diff(np.r_[0, cuts, total])


@pytest.mark.parametrize("spec", [bounded_log(0.05, 0.5), truncated_linear(0.3)],
                         ids=["log", "lin"])
def test_level_solver_matches_sliver_brute_force(spec):
    # on 16 cells of width 1/16 the integer masses are exact in floats
    rng = np.random.default_rng(11)
    g = Grid(1, 16)
    for trial in range(12):
        total = int(rng.integers(2, 8))
        n_pos, n_neg = (int(rng.integers(1, total + 1)) for _ in range(2))
        cells = rng.choice(16, size=n_pos + n_neg, replace=False)
        masses = np.r_[composition(rng, total, n_pos), -composition(rng, total, n_neg)]
        eta = integer_atoms(g, cells, masses)
        plan, value = solve_primal(eta, spec)
        assert value == pytest.approx(sliver_brute_force(eta, spec), rel=1e-12), trial
        assert plan.marginal_deviation() == 0.0


def test_prefix_sum_that_revisits_a_height():
    # masses +2, -1, +1, -2 in cell order: F reads 2, 1, 2, 0 and reaches the
    # height 2 twice.  The level [0, 1) pairs the first source with the last
    # target; the level [1, 2) holds two sources and two targets
    g = Grid(1, 16)
    eta = integer_atoms(g, [1, 4, 9, 13], [2, -1, 1, -2])
    spec = bounded_log(0.05, 0.5)
    before = dict(SOLVER_COUNTS)
    plan, value = solve_primal(eta, spec)
    assert SOLVER_COUNTS["levels"] == before["levels"] + 2
    assert SOLVER_COUNTS["assignment_vars"] == before["assignment_vars"] + 1 + 4
    assert plan.marginal_deviation() == 0.0
    assert value == pytest.approx(sliver_brute_force(eta, spec), rel=1e-14)
    assert value == pytest.approx(linprog_value(eta, spec)[1], rel=1e-12)


def test_plan_with_entries_of_two_levels_swapped_is_not_optimal(rng):
    eta = random_atoms(rng, 64)
    spec = bounded_log(0.01, 0.5)
    plan, _ = solve_primal(eta, spec)
    # the heights [E, G) each source covers, from the mass prefix sum in cell order
    pos_p, mass_p, cells_p, pos_n, mass_n, cells_n = _prepare_instance(eta)
    signed = np.zeros(eta.grid.n)
    signed[cells_p], signed[cells_n] = mass_p, -mass_n
    top = np.cumsum(signed)[cells_p]
    bottom = top - mass_p
    C = cost_matrix(spec, pos_p, pos_n, eta.grid.length)
    si, dj = plan.src_idx, plan.dst_idx
    for a, b in itertools.combinations(range(plan.n_entries), 2):
        i, j, k, l = si[a], dj[a], si[b], dj[b]
        disjoint = top[i] <= bottom[k] or top[k] <= bottom[i]
        if disjoint and C[i, l] + C[k, j] > C[i, j] + C[k, l] + 1e-6:
            break
    else:
        pytest.fail("no two entries of different levels whose swap costs more")
    dst = dj.copy()
    dst[[a, b]] = dst[[b, a]]
    with pytest.raises(ValueError, match="transport plan is not optimal"):
        solve_dual(eta, spec, dataclasses.replace(plan, dst_idx=dst))


def capture_lps(monkeypatch):
    """Record (args, result) of every transport.linprog call."""
    calls = []

    def spy(*args):
        res = real_linprog(*args)
        calls.append((args, res))
        return res

    monkeypatch.setattr(transport, "linprog", spy)
    return calls


def test_prop1_frame_that_presolve_calls_infeasible_is_certified(monkeypatch):
    # frame 2 of the lp-large benchmark instance: HiGHS with presolve on reads
    # its transportation LP as infeasible.  The level solver calls no HiGHS,
    # and its plan is certified at a value no lower than HiGHS's without
    # presolve
    p = {**PROP1_DEFAULTS, "n": 256, "n_frames": 9, "deltas": [0.1], "e1_control_n": 512,
         "chain_frames": [2, 6]}
    _, _, inst, traj1, traj2 = _twin_cusp_instance(p)
    frame = build_eta(inst, traj1, traj2).frame(2)
    spec = bounded_log(0.1, 0.5)
    calls = capture_lps(monkeypatch)
    plan, value = solve_primal(frame, spec)
    assert calls == []
    assert linprog_value(frame, spec, presolve=True)[0] == 2
    status, oracle = linprog_value(frame, spec)
    assert status == 0
    assert oracle <= value <= oracle * (1 + 1e-10)
    assert plan.marginal_deviation() <= 1e-13
    pot, _ = solve_dual(frame, spec, plan)
    assert abs(duality_gap(plan, pot)) <= 1e-12 * value


# ---------------------------------------------------------------------------
# the direct HiGHS call against scipy.optimize.linprog(method="highs"): every
# field krlab reads must agree bit for bit, so a scipy whose private HiGHS
# bindings (scipy.optimize._highspy._core) change shape fails here.  The
# W^{-1,1} norm solves its LP this way; a transportation LP exercises the
# equality rows

# presolve, no presolve, HiGHS defaults: as HiGHS options and as linprog options
HIGHS_LADDER = [transport._HIGHS_OPTS, transport._highs_options(**TIGHT, presolve="off"),
                transport._highs_options()]
LINPROG_LADDER = [{"presolve": True, **TIGHT}, {"presolve": False, **TIGHT}, {}]


def assert_same_solve(mine, ref, ref_row_dual):
    assert mine.status == ref.status and mine.nit == ref.nit
    if ref.status == 0:
        assert mine.fun == ref.fun
        assert np.array_equal(mine.x, ref.x)
        assert np.array_equal(mine.row_dual, ref_row_dual)


def transport_lp(a, b, C):
    """The transportation LP as ``transport.linprog`` takes it: column
    i * n + j carries source i (row i) to target j (row m + j), in CSC form,
    with the marginals scaled to unit total."""
    m, n = C.shape
    rows = np.stack([np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)], axis=1)
    A = (np.arange(0, 2 * m * n + 1, 2), rows.ravel(), np.ones(2 * m * n))
    return C.ravel(), A, np.concatenate([a, b]) / a.sum()


@pytest.mark.parametrize("m, n", [(8, 8), (24, 40), (128, 128)])
@pytest.mark.parametrize("spec", [bounded_log(0.2, 0.5), bounded_log(1e-2, 0.5),
                                  bounded_log(1e-4, 0.5), truncated_linear(0.5),
                                  truncated_linear(0.2)],
                         ids=["log-0.2", "log-1e-2", "log-1e-4", "lin-0.5", "lin-0.2"])
def test_transport_lp_is_linprog_bit_for_bit(m, n, spec):
    rng = np.random.default_rng(m * n)
    a, b = rng.random(m), rng.random(n)
    b *= a.sum() / b.sum()
    c, A, rhs = transport_lp(a, b, cost_matrix(spec, rng.random(m), rng.random(n), 1.0))
    for opts, linprog_opts in zip(HIGHS_LADDER, LINPROG_LADDER):
        ref = optimize.linprog(c, A_eq=transport_a_eq(m, n), b_eq=rhs, bounds=(0, None),
                               method="highs", options=linprog_opts)
        assert ref.status == 0
        assert_same_solve(real_linprog(c, A, rhs, rhs, 0.0, np.inf, opts), ref,
                          ref.eqlin.marginals)


@pytest.mark.parametrize("dim, n", [(1, 64), (1, 512)])
def test_w_neg11_lp_is_linprog_bit_for_bit(monkeypatch, rng, dim, n):
    eta = random_mean_zero(Grid(dim, n), rng)
    calls = capture_lps(monkeypatch)
    w = w_neg11_norm(eta)
    [((c, A, lhs, rhs, lb, ub, _), mine)] = calls
    assert np.all(lhs == -np.inf) and (lb, ub) == (-1.0, 1.0)
    # the CSC arrays of the neighbour rows phi_j - phi_{j+1} <= h and their
    # negations, assembled by scipy's COO -> CSC conversion
    j, nb = np.arange(n), np.roll(np.arange(n), -1)
    one = np.ones(n)
    coo = sparse.csc_array((np.r_[one, -one, -one, one], (np.r_[j, j, n + j, n + j],
                                                         np.r_[j, nb, j, nb])), shape=(2 * n, n))
    assert all(np.array_equal(a, b) for a, b in zip(A, (coo.indptr, coo.indices, coo.data)))
    A_ub = sparse.csr_matrix(sparse.csc_array((A[2], A[1], A[0]), shape=(len(rhs), len(c))))
    ref = optimize.linprog(c, A_ub=A_ub, b_ub=rhs, bounds=(-1.0, 1.0), method="highs",
                           options=LINPROG_LADDER[0])
    assert ref.status == 0
    assert_same_solve(mine, ref, ref.ineqlin.marginals)
    assert w == -ref.fun


def test_infeasible_lp_reports_highs_status():
    m, n = 6, 9
    a, b = np.ones(m), np.full(n, 2.0)  # total masses 6 and 18
    C = cost_matrix(truncated_linear(0.2), np.linspace(0, 1, m), np.linspace(0, 1, n), 1.0)
    c, A, rhs = transport_lp(a, b, C)
    for opts, linprog_opts in zip(HIGHS_LADDER, LINPROG_LADDER):
        mine = real_linprog(c, A, rhs, rhs, 0.0, np.inf, opts)
        ref = optimize.linprog(c, A_eq=transport_a_eq(m, n), b_eq=rhs, bounds=(0, None),
                               method="highs", options=linprog_opts)
        assert ref.status == mine.status == 2
        assert_same_solve(mine, ref, None)
        assert mine.x is None and mine.row_dual is None


def test_feasibility_check_is_linprogs():
    # a solved 3x3 transportation LP, then its row values pushed off
    m = n = 3
    A_eq = transport_a_eq(m, n)
    rhs = np.full(m + n, 1.0 / 3)
    res = optimize.linprog(np.arange(9.0), A_eq=A_eq, b_eq=rhs, bounds=(0, None), method="highs")
    row = A_eq @ res.x
    tol = transport.LP_CHECK_TOL
    assert tol == np.sqrt(1e-9) * 10

    def linprog_accepts(x, fun, row_value):
        con = rhs - row_value
        status, _ = _check_result(x, fun, 0, np.zeros(0), con, np.array([[0, np.inf]] * 9),
                                  1e-9, "", None)
        return status == 0

    for x, fun, row_value in [
        (res.x, res.fun, row),
        (res.x, res.fun, row + 0.9 * tol),
        (res.x, res.fun, row - 2 * tol),
        (res.x, res.fun, np.where(np.arange(m + n) == 4, row[4] + 2 * tol, row)),
        (np.where(np.arange(9) == 2, -2 * tol, res.x), res.fun, row),
        (np.where(np.arange(9) == 2, np.nan, res.x), res.fun, row),
        (res.x, np.nan, row),
    ]:
        mine = transport.lp_feasible(x, fun, row_value, rhs, rhs, 0.0, np.inf)
        assert mine == linprog_accepts(x, fun, row_value)
    assert transport.lp_feasible(res.x, res.fun, row, rhs, rhs, 0.0, np.inf)
    assert not transport.lp_feasible(res.x, res.fun, row + 2 * tol, rhs, rhs, 0.0, np.inf)
