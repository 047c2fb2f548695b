"""One batched exact solve: ``transport.solve_batch`` against the per-instance
path it replaced, solved one instance at a time, bit for bit; the tie rule of
the blocks of two to four pairs; and the errors that name a bad instance."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

import reference_transport
from krlab import transport
from krlab.cost import bounded_log, truncated_linear
from krlab.measures import Grid, SignedDensity
from krlab.transport import SOLVER_COUNTS, TransportPlan, solve_batch, solve_primal
from reference_transport import (oracle_density, random_mean_zero, reference_level_plan,
                                 reference_prepare_instance)

LENGTHS = (1.0, 2 * math.pi, 7.0)
SHAPES = ("random", "quantized", "threshold", "step")


def random_spec(rng, length):
    if rng.random() < 0.5:
        return bounded_log(10.0 ** rng.uniform(-4, 0), length * rng.uniform(0.05, 1.0))
    return truncated_linear(length * rng.uniform(0.02, 1.0))


def mixed_batch(rng, size):
    """Instances of mixed n, length, shape and cost, with zero frames among
    them, and densities that come back later in the batch: with the same
    cost, instance after instance, or with another cost."""
    batch = []
    while len(batch) < size:
        g = Grid(1, int(rng.choice([8, 16, 32, 64, 128, 256])), float(rng.choice(LENGTHS)))
        if rng.random() < 0.1:
            batch.append((SignedDensity(g, np.zeros(g.n)), bounded_log(0.1, 0.5)))
        elif batch and rng.random() < 0.2:
            eta = batch[int(rng.integers(len(batch)))][0]
            batch.append((eta, random_spec(rng, eta.grid.length)))
        else:
            eta = oracle_density(rng, g, SHAPES[int(rng.integers(len(SHAPES)))])
            batch += [(eta, random_spec(rng, g.length))] * int(rng.choice([1, 1, 1, 3]))
    batch[0] = (SignedDensity(batch[0][0].grid, np.zeros(batch[0][0].grid.n)), batch[0][1])
    return batch


def bits(x):
    return x.view(np.uint64)


# (BLOCK_RUN_ENTRIES, BATCH_ATOMS): as set, runs of few entries and one
# density a pass, and the whole batch in one pass
LIMITS = {"default": (transport.BLOCK_RUN_ENTRIES, transport.BATCH_ATOMS), "small": (16, 1),
          "one-pass": (transport.BLOCK_RUN_ENTRIES, 1 << 30)}


@pytest.mark.parametrize("limits", sorted(LIMITS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_is_the_reference_one_instance_at_a_time(monkeypatch, seed, limits):
    for name, value in zip(("BLOCK_RUN_ENTRIES", "BATCH_ATOMS"), LIMITS[limits]):
        monkeypatch.setattr(transport, name, value)
    rng = np.random.default_rng([21, seed])
    batch = mixed_batch(rng, 120)
    # the reference, one instance at a time, with its linear_sum_assignment calls counted
    calls = []
    monkeypatch.setattr(reference_transport, "optimize", SimpleNamespace(
        linear_sum_assignment=lambda c: calls.append(len(c)) or optimize.linear_sum_assignment(c)))
    refs, worst = [], 0.0
    for eta, spec in batch:
        atoms = reference_prepare_instance(eta)
        if len(atoms[1]) == 0 or len(atoms[4]) == 0:
            refs.append((atoms, None))
            continue
        refs.append((atoms, reference_level_plan(spec, eta.grid.length, *atoms)))
        (si, dj, pm), _, _, _ = refs[-1][1]
        plan = TransportPlan(eta, spec, *atoms, si, dj, pm)
        worst = max(worst, plan.marginal_deviation())
    solved = [ref for _, ref in refs if ref is not None]
    monkeypatch.setitem(SOLVER_COUNTS, "worst_marginal_defect", 0.0)  # a maximum, not a total
    before = dict(SOLVER_COUNTS)
    out = solve_batch(batch)
    counts = {key: n - before[key] for key, n in SOLVER_COUNTS.items()}
    assert {key: counts[key] for key in ("instances", "levels", "assignment_vars")} == {
        "instances": len(solved), "levels": sum(ref[2] for ref in solved),
        "assignment_vars": sum(ref[3] for ref in solved)}
    assert bits(np.float64(counts["worst_marginal_defect"])) == bits(np.float64(worst))
    # each block the reference gave linear_sum_assignment is either
    # enumerated or given to it here
    assert counts["assignment_calls"] + counts["enumerated_blocks"] == len(calls)
    assert counts["assignment_calls"] > 0 and counts["enumerated_blocks"] > 0
    mine = dict(transport._level_plans(transport._prepare([eta for eta, _ in batch]),
                                       [(spec, eta.grid.length) for eta, spec in batch]))
    assert len(out) == len(batch) and len(mine) == len(solved)
    for i, ((eta, spec), (plan, value), (atoms, ref)) in enumerate(zip(batch, out, refs)):
        lp = mine.get(i)
        assert plan.eta is eta and plan.cost is spec, i
        got = (plan.src_pos, plan.src_mass, plan.src_cells, plan.dst_pos, plan.dst_mass,
               plan.dst_cells)
        for a, b in zip(got, atoms):
            assert a.dtype == b.dtype and np.array_equal(bits(a), bits(b)), i
        if ref is None:
            assert lp is None and plan.n_entries == 0 and value == plan.value == 0.0, i
            continue
        (si, dj, pm), costs, levels, entries = ref
        lp_si, lp_dj, lp_pm, lp_value = lp
        for a, b in [(plan.src_idx, si), (plan.dst_idx, dj), (lp_si, si), (lp_dj, dj)]:
            assert a.dtype == b.dtype and np.array_equal(a, b), i
        for a, b in [(plan.plan_mass, pm), (lp_pm, pm)]:
            assert np.array_equal(bits(a), bits(b)), i
        assert value == plan.value == lp_value == float((costs * pm).sum()), i
        # the instance's levels and sum of k * k, counted around a solve of it alone
        before = dict(SOLVER_COUNTS)
        assert solve_primal(eta, spec)[1] == value, i
        counted = (SOLVER_COUNTS["levels"] - before["levels"],
                   SOLVER_COUNTS["assignment_vars"] - before["assignment_vars"])
        assert counted == (levels, entries), i


def test_batch_of_zero_frames_and_empty_batch():
    g = Grid(1, 16)
    zero = SignedDensity(g, np.zeros(16))
    counts = dict(SOLVER_COUNTS)
    assert solve_batch([]) == []
    out = solve_batch([(zero, bounded_log(0.1, 0.5)), (zero, truncated_linear(0.5))])
    assert SOLVER_COUNTS == counts
    assert [(p.n_entries, v) for p, v in out] == [(0, 0.0), (0, 0.0)]
    assert all(p.eta is zero and p.src_idx.dtype == np.intp for p, _ in out)


def test_single_solves_are_batches_of_one(rng):
    g = Grid(1, 64, 2 * math.pi)
    batch = [(random_mean_zero(g, rng), spec) for spec in
             (bounded_log(0.01, 1.0), truncated_linear(2.0), bounded_log(0.3, 0.5))]
    for (eta, spec), (plan, value) in zip(batch, solve_batch(batch)):
        alone, alone_value = solve_primal(eta, spec)
        assert value == alone_value == transport.kr_distance(eta, spec)
        for name in ("src_idx", "dst_idx", "plan_mass"):
            assert np.array_equal(getattr(plan, name), getattr(alone, name)), name
    etas = [eta for eta, _ in batch]
    assert transport.w_neg11_norms(etas) == [transport.w_neg11_norm(eta) for eta in etas]
    assert transport.kr_distances(batch) == [v for _, v in solve_batch(batch)]


# ---------------------------------------------------------------------------
# the blocks of two to four pairs: every order tried, ties to linear_sum_assignment

def rolled(c):
    """The spy's answer for block c: linear_sum_assignment's order rolled by
    one place, so that it is told from any order the solver finds itself."""
    return np.roll(optimize.linear_sum_assignment(c)[1], 1)


def spy_assignment(monkeypatch):
    """Spy on transport.linear_sum_assignment, answering ``rolled``."""
    calls = []

    def spy(c):
        calls.append(c.copy())
        return np.arange(len(c)), rolled(c)
    monkeypatch.setattr(transport, "linear_sum_assignment", spy)
    return calls


def tie_blocks():
    """A clear 2 x 2 block, an exact tie and a tie within 1e-9 of the
    largest cost: identity costs 1 + 3 + 5e-10 against 2 + 2 swapped."""
    clear = np.array([[1.0, 2.0], [2.0, 5.0]])
    exact = np.array([[1.0, 2.0], [2.0, 3.0]])
    near = np.array([[1.0, 2.0], [2.0, 3.0 + 5e-10]])
    return np.stack([clear, exact, near])


def test_ties_go_to_linear_sum_assignment(monkeypatch):
    calls = spy_assignment(monkeypatch)
    before = dict(SOLVER_COUNTS)
    cols = transport._best_orders(tie_blocks())
    # the clear block is enumerated: swapped costs 4 against 6
    assert cols[0].tolist() == [1, 0]
    # both ties reach linear_sum_assignment and take its order
    assert len(calls) == 2
    assert np.array_equal(calls[0], tie_blocks()[1]) and np.array_equal(calls[1], tie_blocks()[2])
    assert np.array_equal(cols[1], rolled(tie_blocks()[1]))
    assert cols[2].tolist() == rolled(tie_blocks()[2]).tolist() == [0, 1]
    assert SOLVER_COUNTS["assignment_calls"] == before["assignment_calls"] + 2
    assert SOLVER_COUNTS["enumerated_blocks"] == before["enumerated_blocks"] + 1


def test_the_tie_margin_is_what_sends_a_near_tie(monkeypatch):
    calls = spy_assignment(monkeypatch)
    near = tie_blocks()[2:]
    assert transport._best_orders(near)[0].tolist() == [0, 1] and len(calls) == 1
    # without the margin the near-tie is enumerated: the order is the cheapest
    # of the totals as numpy sums them, and linear_sum_assignment is not asked
    monkeypatch.setattr(transport, "TIE_MARGIN", 0.0)
    assert transport._best_orders(near)[0].tolist() == [1, 0] and len(calls) == 1


def test_an_instance_whose_level_ties_takes_linear_sum_assignment_order(monkeypatch):
    # +, -, +, - on every second cell of 8: one level of two pairs, every
    # pair two cells apart, so both orders cost the same
    v = np.zeros(8)
    v[[0, 2, 4, 6]] = [8.0, -8.0, 8.0, -8.0]
    eta = SignedDensity(Grid(1, 8), v)
    calls = spy_assignment(monkeypatch)
    plan, value = solve_primal(eta, bounded_log(0.1, 0.5))
    assert [c.shape for c in calls] == [(2, 2)]
    assert plan.src_idx.tolist() == [0, 1]
    assert plan.dst_idx.tolist() == rolled(calls[0]).tolist() == [1, 0]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_permutations_list_every_order_lexicographically(k):
    # argmin keeps the first of two equal totals, so the row order is part
    # of the plan an exact tie gets
    rows = [tuple(row) for row in transport.PERMUTATIONS[k].tolist()]
    assert len(rows) == math.factorial(k)
    assert all(sorted(row) == list(range(k)) for row in rows)
    assert all(a < b for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("k", sorted(transport.PERMUTATIONS))
def test_enumerated_orders_are_linear_sum_assignment_off_ties(monkeypatch, rng, k):
    # random blocks, and blocks of few distinct costs that tie often
    blocks = np.concatenate([rng.random((400, k, k)),
                             rng.integers(0, 3, (400, k, k)).astype(float)])
    calls = []
    real = transport.linear_sum_assignment
    monkeypatch.setattr(transport, "linear_sum_assignment", lambda c: calls.append(1) or real(c))
    cols = transport._best_orders(blocks)
    assert 0 < len(calls) < len(blocks)
    for block, c in zip(blocks, cols):
        best = optimize.linear_sum_assignment(block)[1]
        assert block[np.arange(k), c].sum() == block[np.arange(k), best].sum()
    totals = blocks[:, np.arange(k), transport.PERMUTATIONS[k]].sum(axis=2)
    two = np.sort(totals, axis=1)[:, :2]
    clear = two[:, 1] - two[:, 0] > transport.TIE_MARGIN * blocks.max(axis=(1, 2))
    assert len(blocks) - clear.sum() == len(calls)
    for block, c in zip(blocks[clear], cols[clear]):
        assert np.array_equal(c, optimize.linear_sum_assignment(block)[1])


# ---------------------------------------------------------------------------
# a bad density names its place in the batch

def bad_densities():
    nan = np.tile([1.0, -1.0], 8)
    nan[3] = np.nan
    return {
        "nan": (SignedDensity(Grid(1, 16), nan),
                "density has NaN or inf in 1 of 16 cells; every cell must hold a finite number"),
        "2-d": (SignedDensity(Grid(2, 4), np.tile([1.0, -1.0], 8).reshape(4, 4)),
                "transport is implemented on 1-d grids only, got a 2-d grid"),
        "not-mean-zero": (SignedDensity(Grid(1, 16), np.ones(16)),
                          "density is not mean-zero (mass 1.000e+00 vs L1 1.000e+00); "
                          "apply mean_zero_projection first"),
    }


@pytest.mark.parametrize("bad", ["nan", "2-d", "not-mean-zero"])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_a_bad_density_names_its_instance(rng, bad, at):
    good = [(random_mean_zero(Grid(1, 16), rng), bounded_log(0.1, 0.5)) for _ in range(5)]
    eta, message = bad_densities()[bad]
    batch = good[:at] + [(eta, truncated_linear(0.5))] + good[at:]
    counts = dict(SOLVER_COUNTS)
    with pytest.raises(ValueError, match=f"^{re.escape(f'instance {at}: {message}')}$"):
        solve_batch(batch)
    # the checks come before any solve
    assert SOLVER_COUNTS == counts
    # the first bad instance is the one named
    again = SignedDensity(eta.grid, eta.values.copy())
    with pytest.raises(ValueError, match=f"^instance {at}: "):
        solve_batch(batch + [(again, truncated_linear(0.5))])
