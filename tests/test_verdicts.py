"""The verdict rule and one negative control per verdict whose margin is a
number derived from a report: a known-bad input on which that verdict FAILs."""

import math

import numpy as np
import pytest
import yaml

from krlab import experiments
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
    real = experiments.w_neg11_norm
    monkeypatch.setattr(experiments, "w_neg11_norm", lambda eta: 1e3 * real(eta))


def scaled_w_neg11(factor):
    """Every W^{-1,1} norm ``factor`` times the real one: at 0.5 below the
    truncated-linear distance d1 (R = 1), at 3 above twice d1."""
    def patch(monkeypatch):
        real = experiments.w_neg11_norm
        monkeypatch.setattr(experiments, "w_neg11_norm", lambda eta: factor * real(eta))
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
        return grid, field, inst, SolutionTrajectory(grid, traj2.times, frames), traj2
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
