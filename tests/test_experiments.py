import csv
import json
from pathlib import Path

import pytest
import yaml

from krlab import transport
from krlab.cli import main
from krlab.experiments import run_experiment

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "csv_schema.md"

# prop1-sweep shrunk to about a second: 4 nonzero frames x 2 deltas
SHRUNK_PROP1 = {"n": 64, "n_frames": 5, "deltas": [0.1, 0.01], "chain_frames": [2],
                "e1_control_n": 64}


def test_prop1_sweep_cli_smoke(tmp_path, monkeypatch):
    shapes = []
    solve_lp = transport._solve_transport_lp

    def spy(a, b, C):
        shapes.append(C.shape)
        return solve_lp(a, b, C)

    monkeypatch.setattr(transport, "_solve_transport_lp", spy)
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
    # one LP per distinct nonzero (frame, delta): the rate-bound checks reuse
    # the plans that check_prop1 solved, so a second solve fails here
    counts = json.loads((out / "record.json").read_text())["meta"]["transport"]
    assert set(counts) == {"lp", "lp_vars", "lp_nit", "lp_presolve_retries", "assignment"}
    assert counts["lp"] == 8 == len(shapes)
    assert counts["assignment"] == 2  # the uniform-mass BV control, one per delta
    # LP sizes: m * n variables per plan, and the simplex iterations
    assert counts["lp_vars"] == sum(m * n for m, n in shapes) > 0
    assert counts["lp_nit"] > 0


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
