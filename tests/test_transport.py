import dataclasses
import itertools
import math
import types

import numpy as np
import pytest
from scipy import optimize, sparse

from krlab import transport
from krlab.cost import CostKind, CostSpec, bounded_log, cost_eval, cost_sup, truncated_linear
from krlab.experiments import PROP1_DEFAULTS, TRANSPORT_SELFTEST_DEFAULTS, _twin_cusp_instance
from krlab.measures import (Grid, SignedDensity, density_from_function, jordan_decompose,
                            lq_norm, periodic_distance_matrix)
from krlab.estimates import build_eta, check_rate_bounds
from krlab.fields import OscillatoryField
from krlab.transport import (SOLVER_COUNTS, cost_matrix, duality_gap, kr_distance,
                             potential_gradient_on_support, solve_dual, solve_primal,
                             w_neg11_norm)
from reference_transport import (oracle_density, random_mean_zero, reference_level_plan,
                                 reference_prepare_instance)


def step(n):
    return density_from_function(Grid(1, n), lambda x: np.where(x < 0.5, 1.0, -1.0))


def two_atoms(n=64, i=10, j=29, m=1.0):
    """Signed density carrying atoms of mass +-m at cells i and j."""
    g = Grid(1, n)
    v = np.zeros(n)
    v[i] = m / g.h
    v[j] = -m / g.h
    return SignedDensity(g, v), g.axis_centers()[i], g.axis_centers()[j]


def prepare(eta):
    """The atoms of eta's instance: (pos_p, mass_p, cells_p, pos_n, mass_n, cells_n)."""
    return transport._prepare([eta]).instance(0)


# ---------------------------------------------------------------------------
# closed-form instances

def test_empty_instance():
    # the empty plan of a zero density is what every reader gets for a zero
    # frame of eta: it counts no instance and reads as zero everywhere
    g = Grid(1, 32)
    zero = SignedDensity(g, np.zeros(32))
    counts = dict(SOLVER_COUNTS)
    plan, val = solve_primal(zero, bounded_log(0.1, 0.5))
    assert SOLVER_COUNTS == counts
    assert val == 0.0 and plan.value == 0.0 and plan.n_entries == 0
    assert plan.eta is zero and plan.grid == g
    pot, dval = solve_dual(plan)
    assert dval == 0.0 and pot.values.shape == (32,) and not pot.values.any()
    assert duality_gap(pot) == 0.0
    assert kr_distance(zero, truncated_linear(1.0)) == 0.0
    assert w_neg11_norm(zero) == 0.0
    assert SOLVER_COUNTS == counts
    g_empty = potential_gradient_on_support(plan)
    assert g_empty.mass.size == 0
    rep = check_rate_bounds(plan, OscillatoryField(2), p=2.0, q=2.0)
    assert (rep.delta, rep.lhs_pairing, rep.difference_quotient, rep.chain_slack,
            rep.c_l3, rep.c_l5, rep.psi1) == (0.1, 0.0, 0.0, 0.0, None, None, None)


def test_two_atom_primal_dual():
    eta, x, y = two_atoms()
    dist = abs(x - y)
    spec = bounded_log(0.1, 0.5)
    plan, val = solve_primal(eta, spec)
    # single feasible pairing: value = c(dist) exactly
    assert plan.n_entries == 1
    assert val == pytest.approx(math.log(dist / 0.1 + 1.0), rel=1e-14)
    pot, dval = solve_dual(plan)
    assert dval == pytest.approx(val, rel=1e-12)
    # the potential saturates the constraint between the two atoms
    i, j = np.nonzero(eta.values > 0)[0][0], np.nonzero(eta.values < 0)[0][0]
    assert pot.values[i] - pot.values[j] == pytest.approx(val, abs=1e-12)
    assert duality_gap(pot) <= 1e-12


def test_dual_from_the_plan_needs_no_second_lp(rng):
    eta = random_mean_zero(Grid(1, 64), rng)
    spec = bounded_log(0.05, 0.5)
    plan, primal = solve_primal(eta, spec)
    solves = SOLVER_COUNTS["instances"]
    pot, dual = solve_dual(plan)
    assert SOLVER_COUNTS["instances"] == solves
    assert pot.plan is plan and plan.eta is eta and plan.cost == spec
    assert duality_gap(pot) <= 1e-9 * (1 + abs(primal))


def test_assignment_potential_solves_no_lp():
    eta = step(16)
    spec = bounded_log(0.1, 0.5)
    counts = dict(SOLVER_COUNTS)
    plan, primal = solve_primal(eta, spec)
    assert SOLVER_COUNTS["instances"] == counts["instances"] + 1
    pot, dual = solve_dual(plan)
    # 8 levels of one atom pair each, with exact marginals
    assert SOLVER_COUNTS == {**counts, "instances": counts["instances"] + 1,
                             "levels": counts["levels"] + 8,
                             "assignment_vars": counts["assignment_vars"] + 8}
    assert dual == pytest.approx(primal, rel=1e-10)


@pytest.mark.parametrize("n", [16, 256, 1024])
@pytest.mark.parametrize("delta", [0.1, 0.01, 1e-3, 1e-4])
def test_assignment_potential_is_certified(n, delta):
    # transport-selftest's thresholds: relative gap, sup bound, slope bound.
    # The step's plan is its own inverse; the scattered signs' plan is not.
    signs = np.where(np.random.default_rng(n).permutation(n) < n // 2, 1.0, -1.0)
    spec = bounded_log(delta, 0.5)
    for eta in (step(n), SignedDensity(Grid(1, n), signs)):
        plan, primal = solve_primal(eta, spec)
        pot, dual = solve_dual(plan)
        phi = pot.values.ravel()
        assert duality_gap(pot) / (1.0 + abs(primal)) <= 1e-8
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
        solve_dual(dataclasses.replace(plan, dst_idx=dst))


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
    pot, dual = solve_dual(plan)
    assert abs(primal - dual) <= 1e-8 * (1 + abs(primal))
    assert duality_gap(pot) <= 1e-8 * (1 + abs(primal))


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
], ids=["kr-nan", "kr-inf", "wneg11-nan", "wneg11-inf"])
def test_non_finite_density_is_rejected(bad, solve):
    # unchecked, a NaN cell drops out of the Jordan parts (kr_distance 0.496
    # on a rebalanced 7-against-8 step) and an inf cell reads 0.0
    v = step(16).values.copy()
    v[[3, 11]] = bad
    with pytest.raises(ValueError, match="NaN or inf in 2 of 16 cells"):
        solve(SignedDensity(Grid(1, 16), v))


def test_suboptimal_plan_has_positive_gap(rng):
    g = Grid(1, 64)
    eta = random_mean_zero(g, rng)
    spec = bounded_log(0.05, 0.5)
    plan, val = solve_primal(eta, spec)
    pot, _ = solve_dual(plan)
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
    # the optimal plan's potential is feasible for the same instance, and
    # the swapped plan's value exceeds its pairing
    assert duality_gap(dataclasses.replace(pot, plan=bad)) > 0


def test_potential_feasibility_full_grid(rng):
    g = Grid(1, 64)
    eta = random_mean_zero(g, rng)
    spec = bounded_log(0.05, 0.5)
    pot, _ = solve_dual(solve_primal(eta, spec)[0])
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
    gs = potential_gradient_on_support(plan)
    dist = abs(x - y) if abs(x - y) <= 0.5 else 1 - abs(x - y)
    expect = (0.1**2 / (0.1 + 0.01)) / dist**2
    assert abs(gs.grad[0]) == pytest.approx(expect, rel=1e-12)
    eta2, x2, y2 = two_atoms(i=5, j=8)  # distance 3/64 < R
    plan2, _ = solve_primal(eta2, spec)
    gs2 = potential_gradient_on_support(plan2)
    assert abs(gs2.grad[0]) == pytest.approx(1.0 / (0.01 + 3 / 64), rel=1e-12)
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
    lambda eta: solve_dual(solve_primal(eta, bounded_log(0.05, 0.5))[0]),
    lambda eta: kr_distance(eta, truncated_linear(1.0)),
    w_neg11_norm,
], ids=["solve_primal", "solve_dual", "kr_distance", "w_neg11_norm"])
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
    pos_p, mass_p, _, pos_n, _, _ = prepare(eta)
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
            pot, _ = solve_dual(plan)
            assert duality_gap(pot) <= 1e-8 * value, (trial, spec)


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
    """The levels of one pair and of five or more pairs: a level of k = 1
    takes no call and one of k = 32 is one ``linear_sum_assignment`` call.
    The levels of two to four pairs are enumerated, and reach
    ``linear_sum_assignment`` only on a tie: tests/test_batch.py."""
    sizes = []

    def spy(C):
        sizes.append(C.shape)
        return optimize.linear_sum_assignment(C)

    monkeypatch.setattr(transport, "linear_sum_assignment", spy)
    eta = step(64) if pattern == "step" else SignedDensity(Grid(1, 64), np.tile([1.0, -1.0], 32))
    before = dict(SOLVER_COUNTS)
    solve_primal(eta, bounded_log(0.01, 0.5))
    # a level of one atom pair pairs its atoms without a call, and one of 32
    # pairs is one call (the blocks of two to four pairs: tests/test_batch.py)
    assert sizes == [(k, k) for k in blocks if k > 1]
    assert SOLVER_COUNTS["levels"] == before["levels"] + len(blocks)
    entries = sum(k * k for k in blocks)
    assert SOLVER_COUNTS["assignment_vars"] == before["assignment_vars"] + entries
    assert SOLVER_COUNTS["assignment_calls"] == before["assignment_calls"] + len(sizes)


def test_the_first_assignment_puts_scipys_function_in_the_names_place(monkeypatch):
    """``transport.linear_sum_assignment`` starts as a stub that imports
    scipy's function; its first call binds scipy's in its place, unless a
    spy holds the name, which then stays."""
    eta = SignedDensity(Grid(1, 64), np.tile([1.0, -1.0], 32))  # one level of 32 pairs
    want = solve_primal(eta, bounded_log(0.01, 0.5))
    stub = types.FunctionType(transport._FIRST_CALL, vars(transport))
    calls = []

    def spy(C):
        calls.append(len(C))
        return stub(C)

    monkeypatch.setattr(transport, "linear_sum_assignment", spy)
    for _ in range(2):
        plan, value = solve_primal(eta, bounded_log(0.01, 0.5))
        assert transport.linear_sum_assignment is spy
    assert calls == [32, 32]
    assert np.array_equal(plan.dst_idx, want[0].dst_idx) and value == want[1]
    monkeypatch.setattr(transport, "linear_sum_assignment", stub)
    solve_primal(eta, bounded_log(0.01, 0.5))
    assert transport.linear_sum_assignment is optimize.linear_sum_assignment


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
    pos_p, mass_p, _, pos_n, mass_n, _ = prepare(eta)
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
        pot, _ = solve_dual(plan)
        assert duality_gap(pot) >= -1e-12 * value, trial


@pytest.mark.parametrize("m, n", [(8, 8), (24, 40), (128, 128)])
@pytest.mark.parametrize("spec", [bounded_log(0.2, 0.5), bounded_log(1e-2, 0.5),
                                  bounded_log(1e-4, 0.5), truncated_linear(0.5),
                                  truncated_linear(0.2)],
                         ids=["log-0.2", "log-1e-2", "log-1e-4", "lin-0.5", "lin-0.2"])
def test_transport_lp_is_linprog_bit_for_bit(m, n, spec):
    # m sources and n targets of random mass on distinct cells, against
    # linprog with presolve, without presolve and at HiGHS's defaults.  A
    # bounded-log cost is strictly concave in the distance, so the optimal
    # plan is unique and linprog's support is the level plan's, bit for bit
    rng = np.random.default_rng(m * n)
    g = Grid(1, 4096)
    cells = rng.choice(g.n, size=m + n, replace=False)
    a, b = rng.random(m), rng.random(n)
    b *= a.sum() / b.sum()
    v = np.zeros(g.n)
    v[cells[:m]], v[cells[m:]] = a / g.h, -b / g.h
    eta = SignedDensity(g, v)
    plan, value = solve_primal(eta, spec)
    pos_p, mass_p, _, pos_n, mass_n, _ = prepare(eta)
    assert (len(mass_p), len(mass_n)) == (m, n)
    mine = np.zeros((m, n))
    mine[plan.src_idx, plan.dst_idx] = plan.plan_mass / mass_p.sum()
    C = cost_matrix(spec, pos_p, pos_n, g.length)
    for options in [{"presolve": True, **TIGHT}, {"presolve": False, **TIGHT}, {}]:
        res = optimize.linprog(C.ravel(), A_eq=transport_a_eq(m, n),
                               b_eq=np.concatenate([mass_p, mass_n]) / mass_p.sum(),
                               bounds=(0, None), method="highs", options=options)
        assert res.status == 0, options
        assert abs(res.fun * mass_p.sum() - value) <= 1e-12 * value, options
        if spec.kind is CostKind.BOUNDED_LOG:
            x = res.x.reshape(m, n)
            assert np.array_equal(x > 1e-12, mine > 0), options
            assert np.abs(x - mine).max() <= 1e-12, options


def sliver_brute_force(eta, spec):
    """Exhaustive: integer atom masses cut into unit slivers, and every
    assignment of source slivers to target slivers.  The transportation LP
    with integer marginals has an integer optimal plan, so this is its
    value."""
    pos_p, mass_p, _, pos_n, mass_n, _ = prepare(eta)
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
    pos_p, mass_p, cells_p, pos_n, mass_n, cells_n = prepare(eta)
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
        solve_dual(dataclasses.replace(plan, dst_idx=dst))


def test_prop1_frame_that_presolve_calls_infeasible_is_certified():
    # frame 2 of the lp-large benchmark instance: HiGHS with presolve on reads
    # its transportation LP as infeasible.  The level solver calls no HiGHS,
    # and its plan is certified at a value no lower than HiGHS's without
    # presolve
    p = {**PROP1_DEFAULTS, "n": 256, "n_frames": 9, "deltas": [0.1], "e1_control_n": 512,
         "chain_frames": [2, 6]}
    _, _, inst, traj1, traj2 = _twin_cusp_instance(p)
    frame = build_eta(inst, traj1, traj2).frame(2)
    spec = bounded_log(0.1, 0.5)
    plan, value = solve_primal(frame, spec)
    assert linprog_value(frame, spec, presolve=True)[0] == 2
    status, oracle = linprog_value(frame, spec)
    assert status == 0
    assert oracle <= value <= oracle * (1 + 1e-10)
    assert plan.marginal_deviation() <= 1e-13
    pot, _ = solve_dual(plan)
    assert abs(duality_gap(pot)) <= 1e-12 * value


# ---------------------------------------------------------------------------
# the W^{-1,1} norm against its LP, solved by scipy.optimize.linprog(method="highs")

def w_neg11_linprog(eta):
    """Sup of the pairing over phi in [-1, 1]^n with phi_j - phi_{j+1} <= h
    and phi_{j+1} - phi_j <= h around the circle, by scipy's linprog."""
    g = eta.grid
    n = g.ncells
    j = np.arange(n)
    diff = sparse.csr_matrix((np.r_[np.ones(n), -np.ones(n)], (np.r_[j, j], np.r_[j, (j + 1) % n])),
                             shape=(n, n))
    res = optimize.linprog(-eta.values * g.cell_volume, A_ub=sparse.vstack([diff, -diff]),
                           b_ub=np.full(2 * n, g.h), bounds=(-1.0, 1.0), method="highs",
                           options=TIGHT)
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("length", [1.0, 2 * np.pi, 7.0], ids=["L1", "L2pi", "L7"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_w_neg11_is_its_lp(rng, length, n):
    # on the circles longer than 4 the truncation of the cost at 2 binds:
    # the KR distance for the untruncated arc length is larger somewhere
    g = Grid(1, n, length=length)
    binds = False
    for _ in range(4):
        eta = random_mean_zero(g, rng)
        w = w_neg11_norm(eta)
        assert abs(w - w_neg11_linprog(eta)) <= 1e-12 * w
        binds |= kr_distance(eta, truncated_linear(length)) > w * (1 + 1e-12)
    assert binds == (length > 4.0)


# ---------------------------------------------------------------------------
# the level blocks' costs, evaluated in runs of BLOCK_RUN_ENTRIES entries

def test_runs_of_few_block_entries_give_the_same_solves(monkeypatch, rng):
    instances = [(random_mean_zero(Grid(1, n), rng), spec) for n in (64, 256, 1024)
                 for spec in (bounded_log(0.01, 0.5), truncated_linear(0.3))]
    blocks = []
    real = transport.linear_sum_assignment
    monkeypatch.setattr(transport, "linear_sum_assignment",
                        lambda c: blocks.append(len(c)) or real(c))

    def solve_all(limit):
        monkeypatch.setattr(transport, "BLOCK_RUN_ENTRIES", limit)
        counts = dict.fromkeys(SOLVER_COUNTS, 0)
        monkeypatch.setattr(transport, "SOLVER_COUNTS", counts)
        return [solve_primal(eta, spec) for eta, spec in instances], counts

    default, default_counts = solve_all(transport.BLOCK_RUN_ENTRIES)
    assert max(blocks) ** 2 > 16
    small, small_counts = solve_all(16)
    assert small_counts == default_counts
    for (plan, value), (ref, ref_value) in zip(small, default):
        assert value == ref_value
        for name in ("src_idx", "dst_idx", "plan_mass"):
            assert np.array_equal(getattr(plan, name), getattr(ref, name)), name


# ---------------------------------------------------------------------------
# the level solver against the per-instance path it replaced
# (reference_transport.py): the same atoms and plans bit for bit

@pytest.mark.parametrize("length", [1.0, 2 * math.pi], ids=["L1", "L2pi"])
@pytest.mark.parametrize("kind", list(CostKind), ids=[k.value for k in CostKind])
def test_level_plan_is_the_reference_bit_for_bit(kind, length):
    rng = np.random.default_rng([7, list(CostKind).index(kind), int(length)])
    shapes = ("random", "quantized", "threshold", "step")
    for trial in range(260):
        g = Grid(1, int(rng.choice([8, 16, 32, 64, 128, 256])), length)
        eta = oracle_density(rng, g, shapes[trial % 4])
        if kind is CostKind.BOUNDED_LOG:
            spec = bounded_log(10.0 ** rng.uniform(-4, 0), length * rng.uniform(0.05, 1.0))
        else:
            spec = truncated_linear(length * rng.uniform(0.02, 1.0))
        ref_inst = reference_prepare_instance(eta)
        atoms = transport._prepare([eta])
        inst = atoms.instance(0)
        for mine, ref in zip(inst, ref_inst):
            assert mine.dtype == ref.dtype and np.array_equal(mine, ref), trial
            assert np.array_equal(mine.view(np.uint64), ref.view(np.uint64)), trial
        before = dict(SOLVER_COUNTS)
        plan, value = solve_primal(eta, spec)
        # the instance's levels and sum of k * k, counted around its solve
        counted = (SOLVER_COUNTS["levels"] - before["levels"],
                   SOLVER_COUNTS["assignment_vars"] - before["assignment_vars"])
        if plan.n_entries == 0:
            assert len(ref_inst[1]) == 0 or len(ref_inst[4]) == 0
            assert counted == (0, 0), trial
            continue
        (si, dj, pm), costs, levels, entries = reference_level_plan(spec, length, *ref_inst)
        ((_, (mine_si, mine_dj, mine_pm, mine_value)),) = transport._level_plans(
            atoms, [(spec, length)])
        assert counted == (levels, entries), trial
        for got, want in [(plan.src_idx, si), (plan.dst_idx, dj), (mine_si, si), (mine_dj, dj)]:
            assert got.dtype == want.dtype and np.array_equal(got, want), trial
        for got, want in [(plan.plan_mass, pm), (mine_pm, pm)]:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), trial
        assert value == float((costs * pm).sum()) == plan.value == mine_value, trial


# ---------------------------------------------------------------------------
# the plan duals relaxed from the plan's entries, against the arc-matrix form

def reference_plan_duals(plan):
    """Target duals by Jacobi Bellman-Ford over an n x n matrix of arcs, each
    the shortest of the arcs that the entries into one target give."""
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
    tol = transport.DUAL_DROP_TOL * scale
    v = np.zeros(n)
    for _ in range(n):
        nxt = (v[:, None] + arcs).min(axis=0)
        drop = (v - nxt).max()
        v = nxt
        if drop <= tol:
            return v
    raise ValueError(f"the transport plan is not optimal: its duals still drop by "
                     f"{drop:.3e} after {n} Bellman-Ford rounds (a negative cycle)")


def reference_envelope(plan, v):
    """The potential as the metric envelope over a second distance matrix."""
    g = plan.grid
    d = periodic_distance_matrix(g.axis_centers(), plan.dst_pos, g.length)
    phi = (cost_eval(plan.cost, d) - v[None, :]).min(axis=1)
    phi -= (phi.max() + phi.min()) / 2.0
    return phi


def dual_oracle_instances(kind):
    """(eta, cost) of the 50 transport-selftest instances at their defaults,
    of random and clustered instances for the truncated-linear cost, of
    instances on L = 2 pi for both costs, or of the e1 step at n = 1024."""
    if kind == "transport-selftest":
        p = TRANSPORT_SELFTEST_DEFAULTS
        rng = np.random.default_rng(p["seed"])
        for i in range(p["n_instances"]):
            grid = Grid(1, p["sizes"][i % len(p["sizes"])])
            eta = random_mean_zero(grid, rng)
            yield eta, bounded_log(p["deltas"][i % len(p["deltas"])], p["radius"])
    elif kind == "e1-step":
        yield step(1024), bounded_log(0.01, 0.5)
    else:
        length = 1.0 if kind == "truncated-linear" else 2 * math.pi
        rng = np.random.default_rng(11 if kind == "truncated-linear" else 12)
        for n in (16, 64, 256):
            g = Grid(1, n, length)
            yield random_mean_zero(g, rng), truncated_linear(length * rng.uniform(0.02, 1.0))
            yield SignedDensity(g, circle_signs(rng, n, "clustered")), truncated_linear(length / 3)
            if kind == "L2pi":
                yield random_mean_zero(g, rng), bounded_log(10.0 ** rng.uniform(-4, 0), length / 2)


@pytest.mark.parametrize("kind, cases", [("transport-selftest", 50), ("truncated-linear", 6),
                                         ("L2pi", 9), ("e1-step", 1)])
def test_plan_duals_are_the_arc_matrix_duals_bit_for_bit(kind, cases):
    done = 0
    for eta, spec in dual_oracle_instances(kind):
        plan, _ = solve_primal(eta, spec)
        costs = cost_matrix(spec, eta.grid.axis_centers(), plan.dst_pos, eta.grid.length)
        v = transport._plan_duals(plan, costs)
        ref = reference_plan_duals(plan)
        assert np.array_equal(v.view(np.uint64), ref.view(np.uint64)), done
        pot, _ = solve_dual(plan)
        want = reference_envelope(plan, ref)
        assert np.array_equal(pot.values.view(np.uint64), want.view(np.uint64)), done
        done += 1
    assert done == cases
