"""One benchmark pass, run in a fresh interpreter by ``run.py``.

    python3 perfbench/bench_pass.py --launch T --out DIR [--trace] CONFIG...

``--launch`` is the ``time.monotonic()`` reading taken by the parent just
before it started this process, so ``setup_s`` spans interpreter start up to
the import of ``krlab.cli``.  The pass then calls ``krlab run <config> --out
DIR`` in-process for each config (the config file's stem names the
experiment), times the calls, reads back the verdicts and output hashes, and
prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The shared machine's speed drifts by up to ~40% over tens of seconds, and a
# fixed HiGHS solve slows with the solvers.  wall_cal_s rescales the pass's
# wall time by P_REF_S / (median probe time around the pass): seconds on the
# machine as it runs when the probe takes P_REF_S.
P_REF_S = 0.007


def parse_verdicts(text: str) -> list[list[str]]:
    """[name, PASS|FAIL] for each verdict line of a ``verdict.txt``."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("PASS", "FAIL"):
            out.append([parts[1], parts[0]])
    return out


def read_outputs(exp_dir: Path) -> dict:
    """Verdicts and sha256 of ``verdict.txt`` and every CSV of one run."""
    verdict = exp_dir / "verdict.txt"
    files = sorted(p for p in exp_dir.iterdir() if p.name == "verdict.txt" or p.suffix == ".csv") \
        if exp_dir.is_dir() else []
    return {
        "verdicts": parse_verdicts(verdict.read_text()) if verdict.is_file() else None,
        "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def probe_times(reps: int = 30) -> list[float]:
    """Times of a fixed HiGHS solve (a random 30x30 transportation LP, called
    through scipy directly) that no krlab change can move; they track the
    speed of the shared machine."""
    import numpy as np
    from scipy import sparse
    from scipy.optimize import linprog

    m = 30
    c = np.random.default_rng(0).random(m * m)
    rows = np.concatenate([np.repeat(np.arange(m), m), m + np.tile(np.arange(m), m)])
    cols = np.concatenate([np.arange(m * m)] * 2)
    a_eq = sparse.csr_matrix((np.ones(2 * m * m), (rows, cols)), shape=(2 * m, m * m))
    b_eq = np.full(2 * m, 1.0 / m)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        times.append(time.perf_counter() - t0)
    return times


def run_pass(configs: list[Path], out_dir: Path, tracer=None) -> dict:
    """Run each config through ``krlab run``; timings cover the runs only."""
    import krlab.cli

    runs = []
    if tracer is not None:
        tracer.install()
    probes = probe_times()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        for cfg in configs:
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = krlab.cli.main(["run", str(cfg), "--out", str(out_dir)])
                error = None
            except SystemExit as exc:
                code, error = exc.code, f"SystemExit: {exc.code}"
            except Exception as exc:  # a raising run is a failed run; the pass goes on
                code, error = None, f"{type(exc).__name__}: {exc}"
            runs.append({"experiment": cfg.stem, "exit_code": code, "error": error,
                         "output": sink.getvalue()[-2000:] if error or code else ""})
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        probes += probe_times()
    finally:
        if tracer is not None:
            tracer.uninstall()
    for run in runs:
        run.update(read_outputs(out_dir / run["experiment"]))
    probe = statistics.median(probes)
    result = {"wall_s": wall, "wall_cal_s": wall * P_REF_S / probe, "probe_s": probe,
              "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "runs": runs}
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("configs", type=Path, nargs="+")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import krlab.cli  # noqa: F401  (the end of set-up)

    setup_s = time.monotonic() - args.launch
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    result = run_pass(args.configs, args.out, tracer)
    result["setup_s"] = setup_s
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
