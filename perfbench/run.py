"""krlab benchmark: drives ``krlab run`` on pinned configs and reports
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

    python3 perfbench/run.py --workload lp-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the repository root.  A run repeats passes, each in a fresh
interpreter, until ``--seconds`` have passed, and reports medians.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> experiments it runs, in order; only lp-small takes the seed
WORKLOADS = {
    "bv-step": ("e1-example",),
    "lp-large": ("prop1-sweep", "oscillatory-example"),
    "lp-small": ("transport-selftest", "lemma4-suite"),
    "pde": ("pde-convergence", "uniqueness-drive"),
}
SEEDED = {"lp-small"}

END_TO_END = (("wall_cal_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# per-layer metric -> (source in the trace report, unit)
_COUNT, _S = "count", "s"
PER_LAYER = {
    "transport.assignment.s": ("s", _S),
    "transport.assignment.calls": ("counts", _COUNT),
    "transport.assignment.rows": ("counts", _COUNT),
    "transport.cost_matrix.s": ("s", _S),
    "transport.cost_matrix.entries": ("counts", _COUNT),
    "transport.lp.s": ("s", _S),
    "transport.lp.calls": ("counts", _COUNT),
    "transport.lp.vars": ("counts", _COUNT),
    "transport.lp.nit": ("counts", _COUNT),
    "transport.lp.retries": ("counts", _COUNT),
    "transport.lp.retry_s": ("counts", _S),
    "transport.wneg11.s": ("s", _S),
    "transport.wneg11.calls": ("counts", _COUNT),
    "transport.wneg11.cells": ("counts", _COUNT),
    "transport.solve_primal.s": ("s", _S),
    "transport.solve_primal.calls": ("counts", _COUNT),
    "transport.kr_distance.calls": ("counts", _COUNT),
    "transport.solve_dual.self_s": ("self_s", _S),
    "cost.cost_eval.s": ("s", _S),
    "cost.cost_eval.elements": ("counts", _COUNT),
    "measures.periodic_distance_matrix.s": ("s", _S),
    "measures.periodic_distance_matrix.entries": ("counts", _COUNT),
    "pde.eulerian_solve.s": ("s", _S),
    "pde.eulerian_solve.steps": ("counts", _COUNT),
    "pde.eulerian_solve.cell_updates": ("counts", _COUNT),
    "pde.lagrangian_solve.s": ("s", _S),
    "pde.ode.s": ("s", _S),
    "pde.ode.nfev": ("counts", _COUNT),
    **{f"estimates.{fn}.{kind}": ("s" if kind == "s" else "counts", _S if kind == "s" else _COUNT)
       for fn in ("track_kr", "check_rate_bounds", "check_prop1", "build_eta")
       for kind in ("s", "calls")},
    **{f"experiments.{exp}.s": ("s", _S) for exps in WORKLOADS.values() for exp in exps},
    "records.write.s": ("s", _S),
    **{f"layer.{layer}.self_s": ("layer_self_s", _S)
       for layer in ("cli", "experiments", "estimates", "pde", "transport", "cost", "measures",
                     "records")},
    "wall_s": ("pass", _S),
    "probe_s": ("pass", _S),
    "cpu_s": ("pass", _S),
    "traced_wall_s": ("pass", _S),
    "trace_overhead_s": ("pass", _S),
    "trace.counts_unstable": ("pass", _COUNT),
    "trace.absent": ("pass", _COUNT),
}

MIN_PASSES = 3        # untraced passes per untraced run
DEADLINE_S = 150.0    # start no pass that would end after this
PASS_TIMEOUT_S = 170.0


def thread_env() -> dict:
    """Child environment with BLAS/OpenMP threads capped at the usable CPU count."""
    n = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    env.pop("PYTHONPATH", None)
    return env


def git_sha() -> str:
    """HEAD of the checkout from .git files; no git process, nothing outside the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def write_configs(workload: str, seed: int, work: Path) -> list[Path]:
    """The workload's pinned configs, with --seed applied where the workload is seeded."""
    out = []
    (work / "configs").mkdir(parents=True, exist_ok=True)
    for exp in WORKLOADS[workload]:
        cfg = yaml.safe_load((HERE / "configs" / f"{exp}.yaml").read_text())
        if workload in SEEDED:
            cfg["params"]["seed"] = seed
        path = work / "configs" / f"{exp}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=False))
        out.append(path)
    return out


def run_one_pass(configs: list[Path], out: Path, trace: bool, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "bench_pass.py"), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    launch = time.monotonic()
    proc = subprocess.run(cmd + ["--launch", repr(launch)] + [str(c) for c in configs],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


def ref_hash_key(workload: str, seed: int) -> str:
    return f"seed={seed}" if workload in SEEDED else "any"


def check_pass(res: dict, workload: str, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one pass against the reference verdicts."""
    n = len(WORKLOADS[workload])
    if "crashed" in res:
        return n, n, [f"pass crashed: {res['crashed']}"]
    failed, reasons = 0, []
    for run in res["runs"]:
        exp = run["experiment"]
        why = None
        if run["error"]:
            why = run["error"]
        elif run["exit_code"] != 0:
            why = f"exit code {run['exit_code']}"
        elif run["verdicts"] != reference["verdicts"].get(exp):
            why = f"verdicts {run['verdicts']} != reference {reference['verdicts'].get(exp)}"
        if why:
            failed += 1
            reasons.append(f"{exp}: {why}")
    return n, failed, reasons


def hashes(res: dict) -> dict:
    return {f"{r['experiment']}/{name}": h for r in res.get("runs", ())
            for name, h in r["sha256"].items()}


def changed_files(got: dict, want: dict | None) -> list[str]:
    if want is None:
        return []
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Repeat passes for ``seconds``; return the result object and summary lines."""
    reference = load_reference(workload)
    work = HERE / "_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    configs = write_configs(workload, seed, work)
    env = thread_env()
    # fill the page cache and the bytecode cache before anything is timed
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r});"
                    " import krlab.cli"], cwd=ROOT, env=env, check=True, timeout=PASS_TIMEOUT_S,
                   capture_output=True)

    plain, traced = [], []
    attempted = failed = 0
    notes: list[str] = []
    start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        if trace:
            done = elapsed >= seconds and len(plain) >= 1 and len(traced) >= 2
        else:
            done = elapsed >= seconds and len(plain) >= MIN_PASSES
        if done or elapsed + 1.5 * last > DEADLINE_S:
            break
        do_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        res = run_one_pass(configs, work / f"pass-{len(plain) + len(traced)}", do_trace, env)
        last = time.monotonic() - t0
        a, f, reasons = check_pass(res, workload, reference)
        attempted += a
        failed += f
        notes += reasons
        if "crashed" in res:
            break  # the program is broken; more passes would only repeat it
        (traced if do_trace else plain).append(res)

    lines = [f"workload {workload} seed={seed} trace={int(trace)}: {len(plain)} untraced "
             f"and {len(traced)} traced passes in {time.monotonic() - start:.1f} s"]
    lines += [f"  failure: {r}" for r in notes]
    lines.append(f"  fail_frac     {failed}/{attempted} = {failed / max(attempted, 1):.4g} "
                 "(failed / attempted experiment runs)")
    want = reference["sha256"].get(ref_hash_key(workload, seed))
    passes = plain + traced
    changed = sorted({f for res in passes for f in changed_files(hashes(res), want)})
    if want is None:
        lines.append(f"  outputs: no reference hashes for {ref_hash_key(workload, seed)}")
    elif changed:
        lines.append(f"  outputs differing from the reference (information): {', '.join(changed)}")
    else:
        lines.append("  outputs: every verdict.txt and CSV matches the reference bytes")
    if len({json.dumps(hashes(r), sort_keys=True) for r in passes}) > 1:
        lines.append("  outputs differ between passes of this run (information)")

    metrics: dict[str, dict] = {}
    if plain and (traced or not trace):
        if not trace:
            for name, unit in END_TO_END + (("wall_s", "s"), ("probe_s", "s")):
                vals = [r[name] for r in plain]
                if (name, unit) in END_TO_END:
                    metrics[name] = {"value": statistics.median(vals), "unit": unit}
                lines.append(f"  {name:<13s} {statistics.median(vals):.4f} {unit} "
                             f"(median; {spread(vals)})")
        else:
            metrics = layer_metrics(plain, traced, lines)
        lines.append("  stamp: " + json.dumps(stamp(passes[0])))
    result = {"correct": bool(metrics) and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    per_pass = [{k: v for k, v in r.items() if k not in ("runs", "trace")}
                | {"traced": "trace" in r} for r in passes]
    (work / "result.json").write_text(json.dumps(
        {"result": result, "notes": lines, "passes": per_pass}, indent=1))
    return result, lines


def stamp(res: dict) -> dict:
    env = thread_env()
    return {"git_sha": git_sha(), "src_sha256": src_sha256(),
            "nproc": len(os.sched_getaffinity(0)), **res.get("versions", {}),
            "threads": {v: env[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                             "MKL_NUM_THREADS")}}


def layer_metrics(plain: list[dict], traced: list[dict], lines: list[str]) -> dict:
    """Per-layer metrics: medians of traced times, exact counts from the first traced pass."""
    reports = [r["trace"] for r in traced]
    first = reports[0]
    unstable = sorted(k for k in set().union(*(r["counts"] for r in reports))
                      if not k.endswith("_s") and len({r["counts"].get(k) for r in reports}) > 1)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    overhead = (statistics.median(r["wall_cal_s"] for r in traced)
                - statistics.median(r["wall_cal_s"] for r in plain))
    diag = {"wall_s": statistics.median(r["wall_s"] for r in plain),
            "probe_s": statistics.median(r["probe_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "traced_wall_s": traced_wall,
            "trace_overhead_s": overhead,
            "trace.counts_unstable": len(unstable),
            "trace.absent": len(first["absent"])}

    def value(name, source, unit):
        if source == "pass":
            return diag[name]
        if source == "counts" and unit == _COUNT:
            return first["counts"].get(name, 0)
        if source == "counts":
            return statistics.median(r["counts"].get(name, 0.0) for r in reports)
        key = name.rsplit(".", 1)[0]
        if source == "layer_self_s":
            key = key.split(".", 1)[1]
        return statistics.median(r[source].get(key, 0.0) for r in reports)

    metrics = {name: {"value": value(name, source, unit), "unit": unit}
               for name, (source, unit) in PER_LAYER.items()}
    own = first["self_s"]
    top = max(own, key=own.get) if own else "none"
    lines.append(f"  dominant span by self time: {top} "
                 f"({own.get(top, 0.0) / traced[0]['wall_s']:.0%} of traced wall)")
    if first["absent"]:
        lines.append(f"  absent, reported as 0: {', '.join(first['absent'])}")
    for key in unstable:
        lines.append(f"  count not repeated across traced passes: {key} = "
                     f"{[r['counts'].get(key) for r in reports]}")
    for name, m in metrics.items():
        lines.append(f"  {name:<45s} {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "krlab" / "cli.py").is_file():
        print(f"error: no krlab source under {ROOT / 'src'}; run from a krlab checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
