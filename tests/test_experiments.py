import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from krlab import transport
from krlab.cli import main
from krlab.experiments import EXPERIMENTS, PARAM_RANGES, run_experiment

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "csv_schema.md"

# prop1-sweep shrunk to about a second: 4 nonzero frames x 2 deltas
SHRUNK_PROP1 = {"n": 64, "n_frames": 5, "deltas": [0.1, 0.01], "chain_frames": [2],
                "e1_control_n": 64}


def test_prop1_sweep_cli_smoke(tmp_path, monkeypatch):
    solves = []
    level_plan = transport._level_plan

    def spy(cost, length, pos_p, mass_p, *args):
        out = level_plan(cost, length, pos_p, mass_p, *args)
        solves.append((bool(np.ptp(mass_p) > 0), *out[2:]))  # (unequal masses, levels, Σk²)
        return out

    monkeypatch.setattr(transport, "_level_plan", spy)
    cfg = tmp_path / "prop1.yaml"
    cfg.write_text(yaml.safe_dump({"experiment": "prop1-sweep", "params": SHRUNK_PROP1}))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    out = tmp_path / "prop1-sweep"
    lines = (out / "verdict.txt").read_text().splitlines()
    verdicts = [line.split()[:2] for line in lines[1:-1]]
    assert verdicts == [["PASS", name] for name in (
        "sobolev-twin-log-slope", "short-time-vanishing", "rate-chain-slack",
        "sobolev-route-uniformity", "w11-route-uniformity", "bv-control-slope",
        "bv-control-r2")]
    assert lines[-1] == "7/7 checks passed"
    # every column written is documented in the experiment's schema section
    section = SCHEMA.read_text().split("## prop1-sweep")[1].split("\n## ")[0]
    for table in ("twin_sweep", "chain", "l5_route", "e1_control"):
        assert f"`{table}.csv`" in section
        with open(out / f"{table}.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert all(f"`{col}`" in section for col in header), (table, header)
    # one solve per distinct nonzero (frame, delta), 8 instances of atoms of
    # unequal mass: the rate-bound checks reuse the plans that check_prop1
    # solved, so a second solve fails here.  The 2 uniform-mass solves are
    # the BV control, one per delta
    counts = json.loads((out / "record.json").read_text())["meta"]["transport"]
    assert set(counts) == {"instances", "levels", "assignment_vars", "worst_marginal_defect"}
    assert counts["instances"] == 10 == len(solves)
    assert [s[0] for s in solves].count(True) == 8
    # the control is the step on 64 cells: 32 levels of one atom pair each
    assert [s[1:] for s in solves if not s[0]] == [(32, 32)] * 2
    assert counts["levels"] == sum(s[1] for s in solves)
    assert counts["assignment_vars"] == sum(s[2] for s in solves)
    assert 0.0 < counts["worst_marginal_defect"] <= 1e-13


# every experiment shrunk to well under a second: the parameters of the
# benchmark's self-test (perfbench/test_perfbench.py), plus stability-rate
SMOKE = {
    "e1-example": {"n": 128, "deltas": [0.1, 0.01], "report_deltas": [0.1]},
    "prop1-sweep": {"n": 32, "n_frames": 5, "chain_frames": [2], "deltas": [0.1, 0.01],
                    "e1_control_n": 32},
    "oscillatory-example": {"ks": [1, 4], "n_grid": 128},
    "transport-selftest": {"sizes": [16], "n_instances": 2, "n_triples": 2, "triple_n": 16,
                           "n_sandwich": 2, "sandwich_n": 16},
    "lemma4-suite": {"n": 16, "trials": 2},
    "pde-convergence": {"translation_ns": [16, 32], "agreement_ns": [16, 32], "apriori_n": 32},
    "uniqueness-drive": {"n": 32, "control_n": 32},
    "stability-rate": {"n": 64, "rs": [1e-2, 1e-3], "n_frames": 9, "prop1_deltas": [0.1, 0.01]},
}

VERDICTS = {
    "e1-example": ["e1-closed-form-delta=0.1", "bv-log-growth-slope", "bv-log-growth-r2",
                   "rate-chain-slack"],
    "prop1-sweep": ["sobolev-twin-log-slope", "short-time-vanishing", "rate-chain-slack",
                    "sobolev-route-uniformity", "w11-route-uniformity", "bv-control-slope",
                    "bv-control-r2"],
    "oscillatory-example": ["l1-scaling-agreement", "w-neg11-decay-factor"],
    "transport-selftest": ["duality-gap-relative", "plan-saturates-potential",
                           "potential-sup-bound", "potential-slope-bound", "triangle-inequality",
                           "metric-symmetry", "d1-lower-bounds-w", "w-below-twice-d1"],
    "lemma4-suite": ["truncated-distance-bound"],
    "pde-convergence": ["translation-error-monotone", "translation-h23-envelope",
                        "lagrangian-eulerian-ratio", "eulerian-mass-balance",
                        "upwind-positivity", "apriori-lq-bound"],
    "uniqueness-drive": ["uniqueness-bound-monotone", "uniqueness-bound-reduction",
                         "bv-control-bound-grows"],
    "stability-rate": ["stability-c-growth", "schedule-dominates-norm", "c2-stability-across-r"],
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_every_experiment_passes_shrunk(name):
    rec = run_experiment(name, SMOKE[name])
    assert [v.name for v in rec.verdicts] == VERDICTS[name]
    assert rec.ok, rec.verdict_text()


def test_e1_example_at_its_defaults():
    # the paper's BV step at n = 4096: four 2048-atom assignments, each split
    # into 2048 levels of one atom pair
    rec = run_experiment("e1-example")
    assert [v.name for v in rec.verdicts] == [
        "e1-closed-form-delta=0.1", "e1-closed-form-delta=0.01", "bv-log-growth-slope",
        "bv-log-growth-r2", "rate-chain-slack"]
    assert rec.ok, rec.verdict_text()
    assert rec.meta["transport"]["assignment_vars"] == 4 * 2048


# ---------------------------------------------------------------------------
# config and command-line errors exit 2 with a message that names the fix

def write_config(tmp_path, **raw) -> str:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_unknown_param_key_lists_the_valid_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="lemma4-suite", params={"trails": 2})
    assert main(["run", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown parameter keys ['trails']" in err
    assert "valid keys: delta_range, eps_range, n, radius, seed, trials" in err
    assert not (tmp_path / "lemma4-suite").exists()


@pytest.mark.parametrize("key", ["jobs", "seed"])
def test_top_level_jobs_and_seed_are_unknown_config_keys(tmp_path, capsys, key):
    cfg = write_config(tmp_path, experiment="lemma4-suite", **{key: 2})
    assert main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert f"unknown config keys ['{key}']" in capsys.readouterr().err


def test_jobs_option_is_rejected(tmp_path):
    cfg = write_config(tmp_path, experiment="lemma4-suite")
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--jobs", "2"])
    assert exc.value.code == 2


def test_grid_sets_the_main_grid_size(tmp_path):
    cfg = write_config(tmp_path, experiment="lemma4-suite", params={"trials": 2})
    assert main(["run", cfg, "--grid", "16", "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "lemma4-suite" / "record.json").read_text())["params"]
    assert params["n"] == 16


def test_grid_without_a_main_grid_size_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="transport-selftest")
    assert main(["run", cfg, "--grid", "64", "--out", str(tmp_path)]) == 2
    assert "has no main grid size" in capsys.readouterr().err


def test_grid_that_is_not_a_power_of_two_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="lemma4-suite")
    assert main(["run", cfg, "--grid", "100", "--out", str(tmp_path)]) == 2
    assert "must be a power of two >= 2; use 64 or 128" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, params, message", [
    ("lemma4-suite", {"n": 100}, "n = 100: the grid size must be a power of two >= 2; "
                                 "use 64 or 128"),
    ("pde-convergence", {"agreement_ns": [64, 100]},
     "agreement_ns[1] = 100: the grid size must be a power of two >= 2; use 64 or 128"),
    ("transport-selftest", {"sizes": [32, 48]},
     "sizes[1] = 48: the grid size must be a power of two >= 2; use 32 or 64"),
])
def test_param_grid_size_that_is_not_a_power_of_two_is_refused(tmp_path, capsys, experiment,
                                                                params, message):
    cfg = write_config(tmp_path, experiment=experiment, params=params)
    assert main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / experiment).exists()


def test_experiment_that_is_not_a_name_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment=["e1-example"])
    assert main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown experiment ['e1-example']; valid names: e1-example," in capsys.readouterr().err


@pytest.mark.parametrize("experiment, params, message", [
    ("lemma4-suite", {"trials": 2.5}, "trials = 2.5: expected an integer"),
    ("oscillatory-example", {"ks": [1, 4.0]}, "ks[1] = 4.0: expected an integer"),
    ("lemma4-suite", {"delta_range": [0.3]},
     "delta_range = [0.3]: expected two increasing numbers [low, high]"),
    ("lemma4-suite", {"eps_range": [0.5, 0.05]},
     "eps_range = [0.5, 0.05]: expected two increasing numbers [low, high]"),
    ("e1-example", {"deltas": []}, "deltas = []: expected a non-empty list of numbers"),
])
def test_param_of_the_wrong_kind_or_length_is_refused(tmp_path, capsys, experiment, params,
                                                      message):
    cfg = write_config(tmp_path, experiment=experiment, params=params)
    assert main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / experiment).exists()


@pytest.mark.parametrize("experiment, key", [
    ("transport-selftest", "n_instances"), ("transport-selftest", "n_triples"),
    ("transport-selftest", "n_sandwich"), ("lemma4-suite", "trials"),
])
def test_count_below_one_is_refused(tmp_path, capsys, experiment, key):
    # unchecked, a count of 0 passes on no data: lemma4-suite with trials 0
    # printed PASS truncated-distance-bound measured= inf and exited 0
    cfg = write_config(tmp_path, experiment=experiment, params={key: 0})
    assert main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert f"{key} = 0: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / experiment).exists()


@pytest.mark.parametrize("experiment, params, message", [
    ("pde-convergence", {"cfl": 1.5}, "cfl = 1.5: must be in (0, 1)"),
    ("uniqueness-drive", {"radius": 0.0}, "radius = 0.0: must be > 0"),
    ("e1-example", {"deltas": [0.1, -0.01]}, "deltas = [0.1, -0.01]: every entry must be > 0"),
    ("stability-rate", {"rs": [1.0, 0.1]}, "rs = [1.0, 0.1]: every entry must be in (0, 1)"),
    ("prop1-sweep", {"n_frames": 1}, "n_frames = 1: must be in [2, 65]"),
    ("stability-rate", {"n_frames": 66}, "n_frames = 66: must be in [2, 65]"),
    ("oscillatory-example", {"ks": [0, 4]}, "ks = [0, 4]: every entry must be >= 1"),
    ("pde-convergence", {"apriori_k": 0}, "apriori_k = 0: must be >= 1"),
    ("prop1-sweep", {"horizon": 0.0}, "horizon = 0.0: must be > 0"),
    ("pde-convergence", {"horizon_2d": 0.0}, "horizon_2d = 0.0: must be > 0"),
    ("lemma4-suite", {"seed": -1}, "seed = -1: must be >= 0"),
])
def test_param_out_of_range_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                       experiment, params, message):
    # unchecked, each ended in a traceback with exit 1, stability-rate's
    # rs = 1.0 in a ZeroDivisionError after all its PDE solves
    monkeypatch.setitem(EXPERIMENTS, experiment, (None, EXPERIMENTS[experiment][1]))
    cfg = write_config(tmp_path, experiment=experiment, params=params)
    assert main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / experiment).exists()


@pytest.mark.parametrize("experiment, params, message", [
    ("e1-example", {"deltas": [0.1, 0.01], "report_deltas": [0.5]},
     "report_deltas[0] = 0.5 is not in the sweep deltas = [0.1, 0.01]"),
    ("prop1-sweep", {"n_frames": 5, "chain_frames": [2, 5]},
     "chain_frames[1] = 5: must be in [0, 4], the frames of n_frames = 5"),
    ("prop1-sweep", {"chain_frames": [-1]},
     "chain_frames[0] = -1: must be in [0, 32], the frames of n_frames = 33"),
], ids=["report-delta-outside-sweep", "chain-frame-past-the-last", "chain-frame-negative"])
def test_param_outside_its_sweep_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                          experiment, params, message):
    # unchecked, e1-example dropped the closed-form check of a report delta
    # outside the sweep, and prop1-sweep measured the last frame for a chain
    # frame past it but labelled the row with the frame asked for; both
    # exited 0 with every verdict PASS
    monkeypatch.setitem(EXPERIMENTS, experiment, (None, EXPERIMENTS[experiment][1]))
    cfg = write_config(tmp_path, experiment=experiment, params=params)
    assert main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / experiment).exists()


def test_every_ranged_key_is_a_parameter():
    assert set(PARAM_RANGES) <= {key for _, defaults in EXPERIMENTS.values() for key in defaults}


def test_float_without_a_dot_is_refused_with_its_yaml_spelling(tmp_path, capsys):
    # YAML 1.1 reads 1e-3 as the string '1e-3'
    path = tmp_path / "config.yaml"
    path.write_text("experiment: lemma4-suite\nparams:\n  delta_range: [1e-3, 0.3]\n")
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "delta_range[0] = '1e-3': expected a number; write it as 1.0e-3" in err
    assert not (tmp_path / "lemma4-suite").exists()


def test_upwind_steps_of_the_pde_benchmark_config():
    # the benchmark tracer counts 1596 upwind steps on this config
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "pde-convergence.yaml"
    params = yaml.safe_load(config.read_text())["params"]
    rec = run_experiment("pde-convergence", params)
    assert rec.meta["upwind_steps"] == 1596
