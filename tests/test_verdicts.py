"""The verdict rule and one negative control per verdict whose margin is a
number derived from a report: a known-bad input on which that verdict FAILs."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
import yaml

from krlab import estimates, experiments
from krlab.cli import main
from krlab.cost import cost_sup
from krlab.estimates import stability_rate
from krlab.experiments import run_experiment
from krlab.pde import SolutionTrajectory
from krlab.records import ExperimentRecord
from krlab.transport import Potential


@pytest.mark.parametrize("comparator, below, at, above", [
    ("<=", True, True, False),
    (">=", False, True, True),
    ("<", True, False, False),
])
def test_add_derives_passed_from_measured_and_threshold(comparator, below, at, above):
    rec = ExperimentRecord("rule", {})
    for measured, expected in ((0.5, below), (1.0, at), (1.5, above)):
        v = rec.add("v", measured, 1.0, comparator=comparator)
        assert v.passed is expected, (comparator, measured)
        assert v.line().startswith("PASS" if expected else "FAIL")
    assert rec.ok is (below and at and above)


@pytest.mark.parametrize("comparator", ["<=", ">=", "<"])
def test_nan_measured_fails(comparator):
    rec = ExperimentRecord("rule", {})
    assert not rec.add("v", math.nan, 1.0, comparator=comparator).passed
    assert not rec.ok


@pytest.mark.parametrize("comparator", [">", "==", "=<", ""])
def test_unknown_comparator_is_refused(comparator):
    rec = ExperimentRecord("rule", {})
    with pytest.raises(ValueError, match="valid: <=, >=, <"):
        rec.add("v", 0.0, 1.0, comparator=comparator)
    assert rec.verdicts == []


@pytest.mark.parametrize("a, b, expected", [
    (math.nan, 2.0, math.nan),
    (1.0, math.nan, math.nan),
    (1.0, 0.0, math.inf),
    (1.0, -2.0, math.inf),
    (3.0, 2.0, 1.5),
], ids=["nan-numerator", "nan-denominator", "zero", "negative", "positive"])
def test_ratio_is_inf_below_zero_and_nan_on_nan(a, b, expected):
    assert estimates.ratio(a, b) == pytest.approx(expected, nan_ok=True)


def test_column_reads_a_table_in_row_order():
    rec = ExperimentRecord("rule", {})
    for i, x in enumerate([3.0, None, -1.0]):
        rec.row("t", i=i, x=x)
    x = rec.column("t", "x")
    assert x.dtype == float
    np.testing.assert_array_equal(x, [3.0, math.nan, -1.0])
    np.testing.assert_array_equal(rec.column("t", "i"), [0.0, 1.0, 2.0])
    absent = rec.column("none", "x")
    assert absent.dtype == float and absent.shape == (0,)


def test_failing_run_exits_1(tmp_path, capsys):
    # at n = 128 the measured E1 integral is 5.5e-4 off its closed form
    cfg = tmp_path / "e1.yaml"
    cfg.write_text(yaml.safe_dump({"experiment": "e1-example", "params": {
        "n": 128, "deltas": [0.1, 0.01], "report_deltas": [0.1], "rel_tol": 1.0e-12}}))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    lines = (tmp_path / "e1-example" / "verdict.txt").read_text().splitlines()
    assert lines[1].startswith("FAIL  e1-closed-form-delta=0.1 ")
    assert lines[-1] == "3/4 checks passed"
    assert capsys.readouterr().out.startswith("\n".join(lines))


# ---------------------------------------------------------------------------
# negative controls: each row makes its verdict FAIL on a known-bad input

def rising_series(monkeypatch):
    """The twin's D values replaced by a BV-scale series, whose lemma-4
    bound rises as delta -> 0."""
    real = experiments.uniqueness_drive
    monkeypatch.setattr(experiments, "uniqueness_drive", lambda d_by_delta, eta_l1, radius: real(
        {d: 0.5 * abs(math.log(d)) for d in d_by_delta}, 1.0, radius))


def norms_above_schedule(monkeypatch):
    """Every W^{-1,1} norm of eta 1000 times too large: above the schedule
    total, with the decay in r (and so c_growth) unchanged."""
    real = experiments.w_neg11_norms
    monkeypatch.setattr(experiments, "w_neg11_norms", lambda etas: [1e3 * w for w in real(etas)])


def scaled_w_neg11(factor):
    """Every W^{-1,1} norm ``factor`` times the real one: at 0.5 below the
    truncated-linear distance d1 (R = 1), at 3 above twice d1."""
    def patch(monkeypatch):
        real = experiments.w_neg11_norms
        monkeypatch.setattr(experiments, "w_neg11_norms",
                            lambda etas: [factor * w for w in real(etas)])
    return patch


def jump_at_t1(monkeypatch):
    """Hand-built twin trajectories: eta is c_k times one bump with
    c = (0, 1, 1/2, 1/2, ...), so D jumps at t1 and is half that at t2."""
    real = experiments._twin_cusp_instance

    def twin(p):
        grid, field, inst, traj1, traj2 = real(p)
        bump = np.exp(-((grid.axis_centers() - 0.5) / 0.1) ** 2)
        c = np.full(traj2.n_frames, 0.5)
        c[:2] = (0.0, 1.0)
        frames = traj2.frames + c[:, None] * bump
        # it stands in for the Lagrangian solve, whose meta (ode nfev) it keeps
        return grid, field, inst, SolutionTrajectory(grid, traj2.times, frames, traj1.meta), \
            traj2
    monkeypatch.setattr(experiments, "_twin_cusp_instance", twin)


def half_potential(monkeypatch):
    """Every potential halved: still c-Lipschitz, so feasible,
    but its pairing is half the primal value.  (Twice the potential is
    infeasible, and duality_gap raises on it.)"""
    real = experiments.solve_dual

    def halved(plan):
        pot, dual = real(plan)
        return Potential(pot.plan, 0.5 * pot.values), 0.5 * dual
    monkeypatch.setattr(experiments, "solve_dual", halved)


def shifted_potential(monkeypatch):
    """Every potential shifted up by cost_sup: eta is mean-zero, so the gap,
    the saturation and the slopes stay, and only the sup bound breaks."""
    real = experiments.solve_dual

    def shifted(plan):
        pot, dual = real(plan)
        return Potential(pot.plan, pot.values + cost_sup(plan.cost)), dual
    monkeypatch.setattr(experiments, "solve_dual", shifted)


def late_jacobian(monkeypatch):
    """The Jacobian of every k taken at 1.1 T: the L^1 norms still agree
    with one another, but not with the closed form at T."""
    real = experiments.OscillatoryField.exact_flow_jacobian
    monkeypatch.setattr(experiments.OscillatoryField, "exact_flow_jacobian",
                        lambda self, t, pos: real(self, 1.1 * t, pos))


SELFTEST_SMALL = {"sizes": [32], "n_instances": 3, "n_triples": 2, "triple_n": 16,
                  "n_sandwich": 2, "sandwich_n": 16}

NEGATIVE_CONTROLS = [
    # verdict, experiment, params, patch
    ("duality-gap-relative", "transport-selftest", SELFTEST_SMALL, half_potential),
    ("potential-sup-bound", "transport-selftest", SELFTEST_SMALL, shifted_potential),
    ("d1-lower-bounds-w", "transport-selftest", SELFTEST_SMALL, scaled_w_neg11(0.5)),
    ("w-below-twice-d1", "transport-selftest", SELFTEST_SMALL, scaled_w_neg11(3.0)),
    ("uniqueness-bound-monotone", "uniqueness-drive", {"n": 32, "control_n": 32}, rising_series),
    # a step series over one decade too few: its bound rises 1.56-fold, not tenfold
    ("bv-control-bound-grows", "uniqueness-drive",
     {"n": 32, "control_n": 32, "deltas": [1e-1, 1e-2, 1e-3]}, None),
    ("schedule-dominates-norm", "stability-rate",
     {"n": 64, "rs": [1e-2, 1e-3], "n_frames": 9, "prop1_deltas": [0.1, 0.01]},
     norms_above_schedule),
    ("short-time-vanishing", "prop1-sweep",
     {"n": 32, "n_frames": 5, "chain_frames": [2], "deltas": [0.1, 0.01], "e1_control_n": 32},
     jump_at_t1),
    ("l1-scaling-agreement", "oscillatory-example", {"ks": [1, 2], "n_grid": 64}, late_jacobian),
    # the finer grid first: the error grows 1.85-fold along the list
    ("translation-error-monotone", "pde-convergence",
     {"translation_ns": [64, 32], "agreement_ns": [16, 32], "apriori_n": 32}, None),
]


@pytest.mark.parametrize("verdict, experiment, params, patch", NEGATIVE_CONTROLS,
                         ids=[row[0] for row in NEGATIVE_CONTROLS])
def test_negative_control_fails_its_verdict(monkeypatch, verdict, experiment, params, patch):
    if patch is not None:
        patch(monkeypatch)
    rec = run_experiment(experiment, params)
    (v,) = [v for v in rec.verdicts if v.name == verdict]
    assert not v.passed, v.line()
    assert not rec.ok


@pytest.mark.parametrize("verdict, experiment, params, name, table, column", [
    ("duality-gap-relative", "transport-selftest", SELFTEST_SMALL, "duality_gap",
     "instances", "rel_gap"),
    ("truncated-distance-bound", "lemma4-suite", {"n": 16, "trials": 3}, "lemma4_combine",
     "trials", "slack"),
], ids=["duality-gap-relative", "truncated-distance-bound"])
def test_a_nan_row_fails_its_verdict(monkeypatch, verdict, experiment, params, name, table,
                                     column):
    """The second value of ``name`` NaN: the verdict reduces its rows to NaN
    and FAILs, where a running max or min over floats would drop the NaN."""
    real = getattr(experiments, name)
    calls = itertools.count()
    monkeypatch.setattr(experiments, name,
                        lambda *args: math.nan if next(calls) == 1 else real(*args))
    rec = run_experiment(experiment, params)
    assert [math.isnan(row[column]) for row in rec.tables[table]] == [False, True, False]
    (v,) = [v for v in rec.verdicts if v.name == verdict]
    assert math.isnan(v.measured) and not v.passed, v.line()


def nan_entry(module, name, call, index):
    """Entry ``index`` of what the ``call``-th call of ``module.name``
    returns made NaN (of a (plan, value) pair, the value)."""
    def patch(monkeypatch):
        real = getattr(module, name)
        calls = itertools.count()

        def patched(*args):
            out = real(*args)
            if next(calls) == call:
                out = out.copy()
                entry = out[index]
                out[index] = (entry[0], math.nan) if isinstance(entry, tuple) else math.nan
            return out
        monkeypatch.setattr(module, name, patched)
    return patch


UNIQUENESS_SMALL = {"n": 32, "control_n": 32}

NAN_GUARDS = [
    # verdict, experiment, params, patch: a NaN that a guard of the form
    # x > 0 would turn into a passing value
    ("bv-log-growth-r2", "e1-example",
     {"n": 128, "deltas": [0.1, 0.01, 0.001], "report_deltas": [0.1]},
     nan_entry(experiments, "solve_batch", 0, 1)),
    ("uniqueness-bound-reduction", "uniqueness-drive", UNIQUENESS_SMALL,
     nan_entry(experiments, "kr_distances", 0, -1)),
    ("bv-control-bound-grows", "uniqueness-drive", UNIQUENESS_SMALL,
     nan_entry(experiments, "kr_distances", 1, 0)),
    # the second r: the largest r calibrates C_0
    ("stability-c-growth", "stability-rate",
     {"n": 64, "rs": [1e-2, 1e-3], "n_frames": 9, "prop1_deltas": [0.1, 0.01]},
     nan_entry(experiments, "w_neg11_norms", 1, 0)),
    ("short-time-vanishing", "prop1-sweep",
     {"n": 32, "n_frames": 5, "chain_frames": [2], "deltas": [0.1, 0.01], "e1_control_n": 32},
     nan_entry(estimates, "track_kr", 0, 2)),
    ("w-neg11-decay-factor", "oscillatory-example", {"ks": [1, 2], "n_grid": 64},
     nan_entry(experiments, "w_neg11_norms", 0, -1)),
]


@pytest.mark.parametrize("verdict, experiment, params, patch", NAN_GUARDS,
                         ids=[row[0] for row in NAN_GUARDS])
def test_a_nan_value_passes_no_guard(monkeypatch, verdict, experiment, params, patch):
    """A guard against a zero denominator or a flat series is written
    ``not x <= 0``, so a NaN goes on to its verdict and FAILs it."""
    patch(monkeypatch)
    rec = run_experiment(experiment, params)
    (v,) = [v for v in rec.verdicts if v.name == verdict]
    assert math.isnan(v.measured) and not v.passed, v.line()


def test_a_nan_sweep_reads_a_nan_twin_ratio(monkeypatch):
    """``twin_ratio`` (max/min of the sweep) carries a NaN series as NaN,
    not as the inf of a zero minimum."""
    nan_entry(estimates, "track_kr", 0, 2)(monkeypatch)
    rec = run_experiment("prop1-sweep", {"n": 32, "n_frames": 5, "chain_frames": [2],
                                         "deltas": [0.1, 0.01], "e1_control_n": 32})
    assert math.isnan(rec.meta["twin_ratio"])


def no_l5_constant(monkeypatch):
    """No W^{1,1}-route constant at any delta: the route has no rows."""
    real = experiments.check_rate_bounds
    monkeypatch.setattr(experiments, "check_rate_bounds", lambda *args, **kwargs: (
        dataclasses.replace(real(*args, **kwargs), c_l5=None)))


def zero_c2_at_the_first_r(monkeypatch):
    """The joint-fit C2 of the first r set to 0, the nnls fit's floor."""
    real = experiments.check_prop1
    calls = itertools.count()
    monkeypatch.setattr(experiments, "check_prop1", lambda *args: (
        dataclasses.replace(real(*args), c2_joint=0.0) if next(calls) == 0 else real(*args)))


PROP1_SMALL = {"n": 32, "n_frames": 5, "chain_frames": [2], "deltas": [0.1, 0.01],
               "e1_control_n": 32}

EMPTY_OR_ZERO_SWEEPS = [
    # verdict, experiment, params, patch, measured
    ("w11-route-uniformity", "prop1-sweep", PROP1_SMALL, no_l5_constant, math.nan),
    ("c2-stability-across-r", "stability-rate",
     {"n": 64, "rs": [1e-2, 1e-3], "n_frames": 9, "prop1_deltas": [0.1, 0.01]},
     zero_c2_at_the_first_r, math.inf),
]


@pytest.mark.parametrize("verdict, experiment, params, patch, measured", EMPTY_OR_ZERO_SWEEPS,
                         ids=[row[0] for row in EMPTY_OR_ZERO_SWEEPS])
def test_an_empty_or_zero_sweep_fails_its_verdict(monkeypatch, verdict, experiment, params,
                                                  patch, measured):
    """A verdict over a sweep's rows is there on every run: with no rows it
    reads NaN, and a ratio with a minimum of 0 reads inf; both FAIL.  Each
    verdict was missing from the record."""
    patch(monkeypatch)
    rec = run_experiment(experiment, params)
    (v,) = [v for v in rec.verdicts if v.name == verdict]
    assert np.array_equal(v.measured, measured, equal_nan=True), v.line()
    assert not v.passed and not rec.ok, v.line()


def test_a_zero_chain_frame_exits_1(tmp_path):
    # frame 0 of the twin is zero, so it has no chain rows: the chain slack
    # PASSed at 0.0 over them and sobolev-route-uniformity was missing
    cfg = tmp_path / "prop1.yaml"
    cfg.write_text(yaml.safe_dump({"experiment": "prop1-sweep",
                                   "params": {**PROP1_SMALL, "chain_frames": [0]}}))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    record = json.loads((tmp_path / "prop1-sweep" / "record.json").read_text())
    failed = [(v["name"], math.isnan(v["measured"])) for v in record["verdicts"] if not v["passed"]]
    assert failed == [("rate-chain-slack", True), ("sobolev-route-uniformity", True)]
    assert len(record["verdicts"]) == 7


def test_shifted_potential_fails_only_the_sup_bound(monkeypatch):
    shifted_potential(monkeypatch)
    rec = run_experiment("transport-selftest", SELFTEST_SMALL)
    assert [v.name for v in rec.verdicts if not v.passed] == ["potential-sup-bound"]


@pytest.mark.parametrize("factor, verdict", [(0.5, "d1-lower-bounds-w"), (3.0, "w-below-twice-d1")])
def test_scaled_w_neg11_fails_only_its_bound(monkeypatch, factor, verdict):
    scaled_w_neg11(factor)(monkeypatch)
    rec = run_experiment("transport-selftest", SELFTEST_SMALL)
    assert [v.name for v in rec.verdicts if not v.passed] == [verdict]


def test_reversed_translation_grids_measure_the_error_ratio():
    rec = run_experiment("pde-convergence", NEGATIVE_CONTROLS[-1][2])
    (v,) = [v for v in rec.verdicts if v.name == "translation-error-monotone"]
    errs = [row["l1_error"] for row in rec.tables["translation"]]
    assert v.measured == errs[1] / errs[0]
    assert v.measured == pytest.approx(1.848556, rel=1e-6)


def test_h23_constant_comes_from_the_coarsest_grid():
    """The h^{2/3} envelope fixes C on the smallest n wherever it sits in
    the list; with the finer grid first only the monotone verdict FAILs."""
    base = {"agreement_ns": [16, 32], "apriori_n": 32}
    recs = [run_experiment("pde-convergence", {**base, "translation_ns": ns})
            for ns in ([32, 64], [64, 32])]
    up, down = [next(v for v in r.verdicts if v.name == "translation-h23-envelope")
                for r in recs]
    assert (up.measured, up.threshold) == (down.measured, down.threshold)
    assert up.passed and down.passed
    assert [v.name for v in recs[1].verdicts if not v.passed] == ["translation-error-monotone"]


def test_schedule_slack_is_the_worst_r():
    rs = [1e-2, 1e-3, 1e-4]
    total = stability_rate(rs, [0.0, 0.0, 0.0]).schedule_terms.sum(axis=1)
    report = stability_rate(rs, [0.3 * rs[0], 0.3 * rs[1], total[2] + 0.1])
    assert report.min_slack == pytest.approx(-0.1, rel=1e-12)
    assert report.dominated.tolist() == [True, True, False]
