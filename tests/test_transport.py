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
from krlab.transport import (SOLVER_COUNTS, _solve_transport_lp, cost_matrix, duality_gap,
                             kr_distance, potential_gradient_on_support, solve_dual, solve_primal,
                             w_neg11_norm)

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
    assert plan.dst_dual is not None
    lps = SOLVER_COUNTS["lp"]
    pot, dual = solve_dual(eta, spec, plan)
    assert SOLVER_COUNTS["lp"] == lps
    # the same LP, so the same duals, bit for bit, as a solve of its own
    alone, dual_alone = solve_dual(eta, spec)
    assert SOLVER_COUNTS["lp"] == lps + 1
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
    assert plan.dst_dual is None
    assert SOLVER_COUNTS["assignment"] == counts["assignment"] + 1
    pot, dual = solve_dual(eta, spec, plan)
    assert SOLVER_COUNTS == {**counts, "assignment": counts["assignment"] + 1}
    assert dual == pytest.approx(primal, rel=1e-10)
    # without a plan, solve_primal's one assignment is the only solve
    alone, _ = solve_dual(eta, spec)
    assert SOLVER_COUNTS == {**counts, "assignment": counts["assignment"] + 2}
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
        assert plan.dst_dual is None
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
    with pytest.raises(ValueError, match="assignment plan is not optimal"):
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
    xp = g.centers()[cells_p]
    xn = g.centers()[cells_n]
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
    C = cost_eval(spec, periodic_distance_matrix(g.centers()[cp], g.centers()[cn], g.length))
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
    D = cost_eval(spec, periodic_distance_matrix(centers[:, None], centers[:, None], 1.0))
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
    assert gs2.grad[0, 0] < 0  # source at 5 is left of target at 8


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


def test_w_neg11_2d(rng):
    g = Grid(2, 16)
    eta = random_mean_zero(g, rng)
    w = w_neg11_norm(eta)
    assert w > 0
    # the axis-neighbor LP relaxes the Euclidean constraint, so it upper
    # bounds the pairing achieved by any true Lipschitz test function
    d1 = kr_distance(eta, truncated_linear(1.0))
    assert w >= d1 - 1e-9


# ---------------------------------------------------------------------------
# the direct HiGHS call against scipy.optimize.linprog(method="highs"): every
# field krlab reads must agree bit for bit, so a scipy whose private HiGHS
# bindings (scipy.optimize._highspy._core) change shape fails here

TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# the retry ladder as linprog options: presolve, no presolve, HiGHS defaults
LINPROG_LADDER = [{"presolve": True, **TIGHT}, {"presolve": False, **TIGHT}, {}]


def capture_lps(monkeypatch):
    """Record (args, result) of every transport.linprog call."""
    calls = []

    def spy(*args):
        res = real_linprog(*args)
        calls.append((args, res))
        return res

    monkeypatch.setattr(transport, "linprog", spy)
    return calls


def assert_same_solve(mine, ref, ref_row_dual):
    assert mine.status == ref.status and mine.nit == ref.nit
    if ref.status == 0:
        assert mine.fun == ref.fun
        assert np.array_equal(mine.x, ref.x)
        assert np.array_equal(mine.row_dual, ref_row_dual)


def transport_a_eq(m, n):
    """The transportation constraint matrix, built as a COO -> CSR."""
    cols = np.arange(m * n)
    rows = np.concatenate([np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)])
    return sparse.csr_matrix((np.ones(2 * m * n), (rows, np.concatenate([cols, cols]))),
                             shape=(m + n, m * n))


@pytest.mark.parametrize("m, n", [(8, 8), (24, 40), (128, 128)])
@pytest.mark.parametrize("spec", [bounded_log(0.2, 0.5), bounded_log(1e-2, 0.5),
                                  bounded_log(1e-4, 0.5), truncated_linear(0.5),
                                  truncated_linear(0.2)],
                         ids=["log-0.2", "log-1e-2", "log-1e-4", "lin-0.5", "lin-0.2"])
def test_transport_lp_is_linprog_bit_for_bit(monkeypatch, m, n, spec):
    rng = np.random.default_rng(m * n)
    a, b = rng.random(m), rng.random(n)
    b *= a.sum() / b.sum()
    C = cost_matrix(spec, rng.random((m, 1)), rng.random((n, 1)), 1.0)
    calls = capture_lps(monkeypatch)
    (si, dj, pm), v = _solve_transport_lp(a, b, C)
    (c, A, lhs, rhs, lb, ub, _), _ = calls[0]
    assert len(calls) == 1 and np.array_equal(c, C.ravel())
    A_eq, b_eq = transport_a_eq(m, n), np.concatenate([a, b]) / a.sum()
    refs = []
    for opts, linprog_opts in zip(transport._LP_LADDER, LINPROG_LADDER):
        refs.append(optimize.linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                                     method="highs", options=linprog_opts))
        assert refs[-1].status == 0
        assert_same_solve(real_linprog(c, A, lhs, rhs, lb, ub, opts), refs[-1],
                          refs[-1].eqlin.marginals)
    first = refs[0]
    assert np.array_equal(v, first.eqlin.marginals[m:])
    assert np.array_equal(pm, (first.x * a.sum())[si * n + dj])


def test_prop1_frame_retries_without_presolve_like_linprog(monkeypatch):
    # frame 2 of the lp-large benchmark instance: presolve on reads it as
    # infeasible, the attempt without presolve solves it
    p = {**PROP1_DEFAULTS, "n": 256, "n_frames": 9, "deltas": [0.1], "e1_control_n": 512,
         "chain_frames": [2, 6]}
    _, _, inst, traj1, traj2 = _twin_cusp_instance(p)
    frame = build_eta(inst, traj1, traj2).frame(2)
    calls = capture_lps(monkeypatch)
    retries = SOLVER_COUNTS["lp_presolve_retries"]
    plan, _ = solve_primal(frame, bounded_log(0.1, 0.5))
    assert SOLVER_COUNTS["lp_presolve_retries"] == retries + 1
    assert [res.status for _, res in calls] == [2, 0]
    m, n = len(plan.src_mass), len(plan.dst_mass)
    A_eq = transport_a_eq(m, n)
    for ((c, _, _, rhs, _, _, _), mine), opts in zip(calls, LINPROG_LADDER):
        ref = optimize.linprog(c, A_eq=A_eq, b_eq=rhs, bounds=(0, None), method="highs",
                               options=opts)
        assert_same_solve(mine, ref, ref.eqlin.marginals)
    assert np.array_equal(plan.dst_dual, calls[-1][1].row_dual[m:])


@pytest.mark.parametrize("dim, n", [(1, 64), (1, 512), (2, 16)])
def test_w_neg11_lp_is_linprog_bit_for_bit(monkeypatch, rng, dim, n):
    eta = random_mean_zero(Grid(dim, n), rng)
    calls = capture_lps(monkeypatch)
    w = w_neg11_norm(eta)
    [((c, A, lhs, rhs, lb, ub, _), mine)] = calls
    assert np.all(lhs == -np.inf) and (lb, ub) == (-1.0, 1.0)
    A_ub = sparse.csr_matrix(sparse.csc_array((A[2], A[1], A[0]), shape=(len(rhs), len(c))))
    ref = optimize.linprog(c, A_ub=A_ub, b_ub=rhs, bounds=(-1.0, 1.0), method="highs",
                           options=LINPROG_LADDER[0])
    assert ref.status == 0
    assert_same_solve(mine, ref, ref.ineqlin.marginals)
    assert w == -ref.fun


def test_infeasible_lp_reports_highs_status(monkeypatch):
    m, n = 6, 9
    a, b = np.ones(m), np.full(n, 2.0)  # total masses 6 and 18
    C = cost_matrix(truncated_linear(0.2), np.linspace(0, 1, m)[:, None],
                    np.linspace(0, 1, n)[:, None], 1.0)
    calls = capture_lps(monkeypatch)
    with pytest.raises(RuntimeError, match="transport LP failed: HiGHS model status Infeasible"):
        _solve_transport_lp(a, b, C)
    assert len(calls) == 3
    A_eq = transport_a_eq(m, n)
    for ((c, _, _, rhs, _, _, _), mine), opts in zip(calls, LINPROG_LADDER):
        ref = optimize.linprog(c, A_eq=A_eq, b_eq=rhs, bounds=(0, None), method="highs",
                               options=opts)
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
