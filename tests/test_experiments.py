import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import krlab
from krlab import estimates, experiments, pde, transport
from krlab.cli import main
from krlab.experiments import EXPERIMENTS, PARAM_RANGES, run_experiment

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "csv_schema.md"

# prop1-sweep shrunk to about a second: 4 nonzero frames x 2 deltas
SHRUNK_PROP1 = {"n": 64, "n_frames": 5, "deltas": [0.1, 0.01], "chain_frames": [2],
                "e1_control_n": 64}


def test_prop1_sweep_cli_smoke(tmp_path, monkeypatch):
    solves = []
    level_plans = transport._level_plans

    def spy(atoms, specs):
        for i, entries in level_plans(atoms, specs):
            solves.append((atoms.instance(i), specs[i], entries[-1]))
            yield i, entries

    monkeypatch.setattr(transport, "_level_plans", spy)
    blocks = []
    assignment = transport.linear_sum_assignment
    monkeypatch.setattr(transport, "linear_sum_assignment",
                        lambda c: blocks.append(c.shape) or assignment(c))
    small = []
    best_orders = transport._best_orders
    monkeypatch.setattr(transport, "_best_orders", lambda c: small.append(len(c)) or best_orders(c))
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
    assert set(counts) == {"instances", "levels", "assignment_vars", "assignment_calls",
                           "enumerated_blocks", "worst_marginal_defect"}
    assert counts["instances"] == 10 == len(solves)
    # every linear_sum_assignment call is counted: one per level of five or
    # more pairs, and one per tied level of two to four pairs; the other
    # levels of two to four pairs are solved by trying every order
    assert counts["assignment_calls"] == len(blocks) > 0
    assert all(k == j > 1 for k, j in blocks)
    assert counts["enumerated_blocks"] + sum(k <= 4 for k, _ in blocks) == sum(small) > 0
    assert 0.0 < counts["worst_marginal_defect"] <= 1e-13
    # each instance's levels and sum of k * k, counted around a solve of its
    # atoms alone, which gives its value again: (unequal masses, levels, Σk²)
    alone = []
    for atoms, spec, value in solves:
        before = dict(transport.SOLVER_COUNTS)
        one = transport._Atoms(*atoms, [0, len(atoms[0])], [0, len(atoms[3])], [0])
        ((_, entries),) = level_plans(one, [spec])
        assert entries[-1] == value
        after = transport.SOLVER_COUNTS
        alone.append((bool(np.ptp(atoms[1]) > 0), after["levels"] - before["levels"],
                      after["assignment_vars"] - before["assignment_vars"]))
    assert [s[0] for s in alone].count(True) == 8
    # the control is the step on 64 cells: 32 levels of one atom pair each
    assert [s[1:] for s in alone if not s[0]] == [(32, 32)] * 2
    assert counts["levels"] == sum(s[1] for s in alone)
    assert counts["assignment_vars"] == sum(s[2] for s in alone)


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


@pytest.mark.parametrize("name, solves", [("prop1-sweep", 1), ("uniqueness-drive", 2)])
def test_ode_nfev_sums_the_dop853_evaluations(monkeypatch, name, solves):
    # the right-hand side's calls, counted one by one in each integration
    counts = []
    dop853 = pde.dop853

    def spy(fun, *args):
        counts.append(0)

        def counted(t, y):
            counts[-1] += 1
            return fun(t, y)

        return dop853(counted, *args)

    monkeypatch.setattr(pde, "dop853", spy)
    rec = run_experiment(name, SMOKE[name])
    assert len(counts) == solves
    assert rec.meta["ode_nfev"] == sum(counts) > 0


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules that a fresh interpreter holds after running ``code``."""
    path = [str(Path(krlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    script = code + ("\nimport sys\nprint(*sorted(m for m in sys.modules "
                     "if m == 'scipy' or m.startswith('scipy.')))")
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules_after("import krlab.cli") == []


# a run loads scipy.optimize only when it solves an assignment of five or more
# pairs or a tie (or calls nnls), and no run loads scipy.integrate
@pytest.mark.parametrize("name, absent", [("e1-example", "scipy"), ("pde-convergence", "scipy"),
                                          ("prop1-sweep", "scipy.integrate"),
                                          ("uniqueness-drive", "scipy.integrate")])
def test_a_run_loads_only_the_scipy_it_calls(name, absent):
    loaded = scipy_modules_after("from krlab.experiments import run_experiment\n"
                                 f"assert run_experiment({name!r}, {SMOKE[name]!r}).ok")
    assert [m for m in loaded if m == absent or m.startswith(absent + ".")] == []


def test_e1_example_at_its_defaults():
    # the paper's BV step at n = 4096: four 2048-atom assignments, each split
    # into 2048 levels of one atom pair
    rec = run_experiment("e1-example")
    assert [v.name for v in rec.verdicts] == [
        "e1-closed-form-delta=0.1", "e1-closed-form-delta=0.01", "bv-log-growth-slope",
        "bv-log-growth-r2", "rate-chain-slack"]
    assert rec.ok, rec.verdict_text()
    assert rec.meta["transport"]["assignment_vars"] == 4 * 2048
    assert rec.meta["transport"]["assignment_calls"] == 0


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


def test_malformed_config_names_line_and_column(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("experiment: lemma4-suite\nparams:\n  n: [16, 32\n  trials: 2\n")
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: config parse error in {path} at line 4, column 9: " in err
    assert not (tmp_path / "lemma4-suite").exists()


def test_jobs_option_is_rejected(tmp_path):
    # neither option exists: argparse exits 2
    cfg = write_config(tmp_path, experiment="lemma4-suite")
    for option in (["--jobs", "2"], ["--grid", "16"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", cfg, *option])
        assert exc.value.code == 2


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
    ("uniqueness-drive", {"radius": 0.0}, "radius = 0.0: must be finite and > 0"),
    ("e1-example", {"deltas": [0.1, -0.01]},
     "deltas = [0.1, -0.01]: every entry must be finite and > 0"),
    ("stability-rate", {"rs": [1.0, 0.1]}, "rs = [1.0, 0.1]: every entry must be in (0, 1)"),
    ("prop1-sweep", {"n_frames": 1}, "n_frames = 1: must be in [2, 65]"),
    ("stability-rate", {"n_frames": 66}, "n_frames = 66: must be in [2, 65]"),
    ("oscillatory-example", {"ks": [0, 4]}, "ks = [0, 4]: every entry must be >= 1"),
    ("pde-convergence", {"apriori_k": 0}, "apriori_k = 0: must be >= 1"),
    ("prop1-sweep", {"horizon": 0.0}, "horizon = 0.0: must be finite and > 0"),
    ("pde-convergence", {"horizon_2d": 0.0}, "horizon_2d = 0.0: must be finite and > 0"),
    ("lemma4-suite", {"seed": -1}, "seed = -1: must be >= 0"),
    # YAML's .inf and .nan: an infinite horizon ended in CauchyData's traceback
    ("uniqueness-drive", {"horizon": math.inf}, "horizon = inf: must be finite and > 0"),
    ("pde-convergence", {"horizon_2d": math.nan}, "horizon_2d = nan: must be finite and > 0"),
    ("uniqueness-drive", {"radius": math.inf}, "radius = inf: must be finite and > 0"),
    ("prop1-sweep", {"deltas": [0.1, math.nan]},
     "deltas = [0.1, nan]: every entry must be finite and > 0"),
    # each of these ended in a traceback with exit 1, some after the PDE and
    # transport work, and ode_rtol = -1.0 exited 0
    ("prop1-sweep", {"alpha": 1.5}, "alpha = 1.5: must be in (1/2, 1)"),
    ("prop1-sweep", {"l5_alpha": 1.5}, "l5_alpha = 1.5: must be in (0, 1)"),
    ("prop1-sweep", {"ode_rtol": -1.0}, "ode_rtol = -1.0: must be finite and > 0"),
    ("stability-rate", {"prop1_deltas": [-0.1]},
     "prop1_deltas = [-0.1]: every entry must be finite and > 0"),
    ("lemma4-suite", {"delta_range": [-1.0, 0.3]},
     "delta_range = [-1.0, 0.3]: every entry must be finite and > 0"),
    ("lemma4-suite", {"eps_range": [-1.0, 0.5]},
     "eps_range = [-1.0, 0.5]: every entry must be finite and > 0"),
    ("uniqueness-drive", {"rtol_coarse": -1.0}, "rtol_coarse = -1.0: must be finite and > 0"),
    ("uniqueness-drive", {"rtol_fine": -1.0}, "rtol_fine = -1.0: must be finite and > 0"),
    # a sweep of one value: prop1-sweep and stability-rate passed every
    # verdict on a one-point fit or a ratio of 1, pde-convergence ended in a
    # traceback after its solves, and e1-example wrote one verdict twice
    ("e1-example", {"deltas": [0.1, 0.1]},
     "deltas = [0.1, 0.1]: a sweep needs at least two distinct values"),
    ("prop1-sweep", {"deltas": [0.01]}, "deltas = [0.01]: a sweep needs at least two distinct"),
    ("uniqueness-drive", {"deltas": [0.1]}, "deltas = [0.1]: a sweep needs at least two distinct"),
    ("stability-rate", {"rs": [0.01]}, "rs = [0.01]: a sweep needs at least two distinct"),
    ("stability-rate", {"prop1_deltas": [0.1]},
     "prop1_deltas = [0.1]: a sweep needs at least two distinct"),
    ("oscillatory-example", {"ks": [4, 4]}, "ks = [4, 4]: a sweep needs at least two distinct"),
    ("pde-convergence", {"translation_ns": [64]},
     "translation_ns = [64]: a sweep needs at least two distinct"),
    ("pde-convergence", {"agreement_ns": [64]},
     "agreement_ns = [64]: a sweep needs at least two distinct"),
    # a repeated value: e1-example wrote e1-closed-form-delta=0.1 twice and
    # fitted its slope with that point counted twice; prop1-sweep solved it twice
    ("e1-example", {"deltas": [0.1, 0.1, 0.01]},
     "deltas = [0.1, 0.1, 0.01]: a sweep needs at least two distinct values, each once"),
    ("prop1-sweep", {"deltas": [0.1, 0.1, 0.01]},
     "deltas = [0.1, 0.1, 0.01]: a sweep needs at least two distinct values, each once"),
    ("oscillatory-example", {"ks": [1, 4, 4]},
     "ks = [1, 4, 4]: a sweep needs at least two distinct values, each once"),
    # prop1-sweep's cusp: alpha <= 1/2 FAILed sobolev-route-uniformity at nan
    # (its gradient is not in L^2), and amp = 0 three verdicts at nan
    ("prop1-sweep", {"alpha": 0.5}, "alpha = 0.5: must be in (1/2, 1)"),
    ("prop1-sweep", {"amp": 0.0}, "amp = 0.0: must be finite and > 0"),
    ("prop1-sweep", {"amp": math.inf}, "amp = inf: must be finite and > 0"),
    ("prop1-sweep", {"x0": math.nan}, "x0 = nan: must be finite"),
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


@pytest.mark.parametrize("out", [None, 5, ""], ids=["empty", "number", "empty-string"])
def test_out_that_is_not_a_path_is_refused(tmp_path, capsys, monkeypatch, out):
    # unchecked, an empty out: wrote into a directory named None and out: 5
    # into one named 5, both relative to the working directory
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, experiment="lemma4-suite", out=out, params={"trials": 2})
    assert main(["run", cfg]) == 2
    assert f"out = {out!r}: expected a non-empty output directory path" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["config.yaml"]


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


def test_stability_rate_steps_the_unperturbed_problem_once(monkeypatch):
    # the unperturbed problem is the same at every r, and each twin is
    # differenced once: check_prop1 gets the thinned frames of that eta
    calls = {"eulerian_solve": [], "build_eta": []}
    for module, name in ((experiments, "eulerian_solve"), (experiments, "build_eta"),
                         (estimates, "build_eta")):
        def spy(*args, real=getattr(module, name), made=calls[name], **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]
        monkeypatch.setattr(module, name, spy)
    rs = [1e-2, 1e-3, 1e-4]
    rec = run_experiment("stability-rate", {"n": 64, "rs": rs, "n_frames": 9,
                                            "prop1_deltas": [0.1, 0.01]})
    assert len(calls["eulerian_solve"]) == 1 + len(rs)
    assert len(calls["build_eta"]) == len(rs)
    assert rec.meta["upwind_steps"] == sum(t.meta["steps"] for t in calls["eulerian_solve"])


def test_upwind_steps_of_the_pde_benchmark_config():
    # the benchmark tracer counts 1596 upwind steps on this config
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "pde-convergence.yaml"
    params = yaml.safe_load(config.read_text())["params"]
    rec = run_experiment("pde-convergence", params)
    assert rec.meta["upwind_steps"] == 1596


def test_pde_benchmark_config_traced_peak(monkeypatch):
    # each section frees its grids before the next builds its own, the 2-d
    # data come from their axes, the deposits and a-priori divergence
    # build no full-grid temporaries, and the upwind solve frees the shear's
    # all-zero y faces before it steps.  Traced
    # peak with the slabs on two workers (one buffer set each): 16.80 MiB,
    # against 18.18 MiB with those faces alive through the solve and
    # 25.03 MiB with the 256^2 agreement trajectories still alive in the
    # 512^2 a-priori solve; the bound leaves 3.2 MiB of margin
    monkeypatch.setattr(pde, "CPUS", 2)
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "pde-convergence.yaml"
    params = yaml.safe_load(config.read_text())["params"]
    tracemalloc.start()
    try:
        run_experiment("pde-convergence", params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20
