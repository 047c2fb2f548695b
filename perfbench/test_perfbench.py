"""Self-tests of the benchmark on shrunken configs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

import bench_pass
import run
from tracing import Target, Tracer

sys.path.insert(0, str(run.ROOT / "src"))

import krlab.experiments  # noqa: E402
import krlab.transport  # noqa: E402
from krlab.cost import bounded_log  # noqa: E402
from krlab.measures import Grid, density_from_function  # noqa: E402

# small enough for seconds, large enough to reach every traced layer
SHRUNK = {
    "e1-example": {"n": 128, "deltas": [0.1, 0.01], "report_deltas": [0.1]},
    "prop1-sweep": {"n": 32, "n_frames": 5, "chain_frames": [2], "deltas": [0.1, 0.01],
                    "e1_control_n": 32},
    "oscillatory-example": {"ks": [1, 4], "n_grid": 128},
    "transport-selftest": {"sizes": [16], "n_instances": 2, "n_triples": 2, "triple_n": 16,
                           "n_sandwich": 2, "sandwich_n": 16},
    "lemma4-suite": {"n": 16, "trials": 2},
    "pde-convergence": {"translation_ns": [16, 32], "agreement_ns": [16, 32], "apriori_n": 32},
    "uniqueness-drive": {"n": 32, "control_n": 32},
}


def shrunk_configs(tmp: Path) -> list[Path]:
    out = []
    for exps in run.WORKLOADS.values():
        for exp in exps:
            cfg = yaml.safe_load((run.HERE / "configs" / f"{exp}.yaml").read_text())
            cfg["params"].update(SHRUNK[exp])
            path = tmp / f"{exp}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            out.append(path)
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced passes and one untraced pass over every experiment, shrunk."""
    tmp = tmp_path_factory.mktemp("traced")
    configs = shrunk_configs(tmp)
    passes = [bench_pass.run_pass(configs, tmp / f"out{i}", Tracer() if i else None)
              for i in range(3)]
    return passes[0], passes[1:]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in run.PER_LAYER.items()]


def test_configs_pin_every_parameter_and_no_jobs():
    for exps in run.WORKLOADS.values():
        for exp in exps:
            cfg = yaml.safe_load((run.HERE / "configs" / f"{exp}.yaml").read_text())
            assert cfg["experiment"] == exp
            assert "jobs" not in cfg
            assert set(cfg["params"]) == set(krlab.experiments.EXPERIMENTS[exp][1]), exp


def test_traced_pass_reports_every_metric(traced):
    plain, passes = traced
    assert all(r["exit_code"] is not None for p in passes for r in p["runs"])
    lines: list[str] = []
    metrics = run.layer_metrics([plain], passes, lines)
    assert list(metrics) == list(run.PER_LAYER)
    counts = passes[0]["trace"]["counts"]
    for name, (source, unit) in run.PER_LAYER.items():
        if name in ("transport.lp.retries", "transport.lp.retry_s", "trace_overhead_s",
                    "trace.counts_unstable", "trace.absent"):
            continue  # zero on these inputs; covered by the tests below
        assert metrics[name]["value"] > 0, name
    assert metrics["trace.absent"]["value"] == 0
    assert metrics["trace.counts_unstable"]["value"] == 0, lines
    assert counts["pde.eulerian_solve.cell_updates"] >= counts["pde.eulerian_solve.steps"] * 16


def test_self_times_sum_to_at_most_wall(traced):
    _, passes = traced
    for p in passes:
        rep = p["trace"]
        assert 0 < sum(rep["self_s"].values()) <= p["wall_s"]
        assert sum(rep["layer_self_s"].values()) == pytest.approx(sum(rep["self_s"].values()))
        assert all(v >= 0 for v in rep["self_s"].values())


def test_each_call_is_counted_once_whichever_binding_it_uses():
    grid = Grid(1, 16)
    eta = density_from_function(grid, lambda x: (x < 0.5) - 0.5)
    spec = bounded_log(0.1, 0.5)
    original = krlab.transport.solve_primal
    tracer = Tracer()
    tracer.install()
    try:
        assert krlab.experiments.solve_primal is krlab.transport.solve_primal
        krlab.experiments.solve_primal(eta, spec)
        krlab.experiments.kr_distance(eta, spec)
    finally:
        tracer.uninstall()
    assert krlab.transport.solve_primal is original
    assert tracer.counts["transport.solve_primal.calls"] == 2
    assert tracer.counts["transport.kr_distance.calls"] == 1
    with pytest.raises(RuntimeError):
        tracer.install()
        tracer.install()
    tracer.uninstall()


def test_absent_names_are_reported_not_fatal():
    targets = (Target("transport.gone", "krlab.transport", "no_such_function"),
               Target("pde.gone", "krlab.pde", "CauchyData.no_such_method"),
               Target("nowhere.gone", "krlab.no_such_module", "f"))
    tracer = Tracer(targets)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["transport.gone", "pde.gone", "nowhere.gone"]


def test_lp_after_a_failed_lp_counts_as_a_retry():
    tracer = Tracer()
    statuses = iter([2, 0, 0])

    def fake_linprog(c, **kwargs):
        return SimpleNamespace(status=next(statuses), nit=3)

    lp = tracer._wrap("transport.lp", fake_linprog)
    outer = tracer._open("transport.solve_primal")
    lp([1.0, 2.0], options={"presolve": True})
    lp([1.0, 2.0], options={"presolve": False})
    tracer._close(outer)
    lp([1.0, 2.0])
    assert tracer.counts["transport.lp.calls"] == 3
    assert tracer.counts["transport.lp.vars"] == 6
    assert tracer.counts["transport.lp.nit"] == 9
    assert tracer.counts["transport.lp.retries"] == 1
    assert tracer.counts["transport.lp.retry_s"] >= 0


def test_verdict_mismatch_and_crash_count_as_failures():
    ref = {"verdicts": {"e1-example": [["a", "PASS"], ["b", "PASS"]]}}
    ok = {"experiment": "e1-example", "error": None, "exit_code": 0,
          "verdicts": [["a", "PASS"], ["b", "PASS"]]}
    assert run.check_pass({"runs": [ok]}, "bv-step", ref) == (1, 0, [])
    flipped = dict(ok, verdicts=[["a", "PASS"], ["b", "FAIL"]])
    assert run.check_pass({"runs": [flipped]}, "bv-step", ref)[:2] == (1, 1)
    raised = dict(ok, error="RuntimeError: boom", exit_code=None)
    assert run.check_pass({"runs": [raised]}, "bv-step", ref)[:2] == (1, 1)
    assert run.check_pass({"crashed": "exit 1"}, "lp-large", ref)[:2] == (2, 2)


def test_outside_a_checkout_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pde", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
