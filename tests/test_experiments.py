import csv
import json
from pathlib import Path

import yaml

from krlab.cli import main
from krlab.experiments import run_experiment

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "csv_schema.md"

# prop1-sweep shrunk to about a second: 4 nonzero frames x 2 deltas
SHRUNK_PROP1 = {"n": 64, "n_frames": 5, "deltas": [0.1, 0.01], "chain_frames": [2],
                "e1_control_n": 64}


def test_prop1_sweep_cli_smoke(tmp_path):
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
    transport = json.loads((out / "record.json").read_text())["meta"]["transport"]
    assert set(transport) == {"lp", "lp_presolve_retries", "assignment"}
    assert transport["lp"] == 8
    assert transport["assignment"] == 2  # the uniform-mass BV control, one per delta


def test_solver_counts_include_pool_workers():
    # e1-example at two deltas: one uniform-mass assignment each, made in the
    # worker processes when jobs > 1
    params = {"n": 64, "deltas": [0.1, 0.01], "report_deltas": [0.1]}
    serial = run_experiment("e1-example", params).meta["transport"]
    pooled = run_experiment("e1-example", params, jobs=2).meta["transport"]
    assert serial == pooled == {"lp": 0, "lp_presolve_retries": 0, "assignment": 2}
