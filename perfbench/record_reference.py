"""Record the reference verdicts and output hashes the benchmark checks against.

    python3 perfbench/record_reference.py [--seeds 0-20] [WORKLOAD...]

For each workload, runs one untraced pass (one per seed for a seeded
workload) and writes perfbench/reference/<workload>.json: the verdict names
and PASS/FAIL states per experiment, which every later run must reproduce,
and the sha256 of every verdict.txt and CSV, which later runs only report.
Re-record only when a change is meant to alter verdicts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import HERE, SEEDED, WORKLOADS, git_sha, hashes, run_one_pass, src_sha256, \
    thread_env, write_configs


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-20"),
                    help="seeds to hash for a seeded workload, as LO-HI")
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args(argv)

    env = thread_env()
    for workload in args.workloads:
        work = HERE / "_work" / "reference" / workload
        verdicts, sha = None, {}
        for seed in args.seeds if workload in SEEDED else [0]:
            shutil.rmtree(work, ignore_errors=True)
            res = run_one_pass(write_configs(workload, seed, work), work / "out", False, env)
            if "crashed" in res:
                print(f"{workload} seed={seed}: {res['crashed']}", file=sys.stderr)
                return 1
            bad = [r for r in res["runs"] if r["error"] or r["exit_code"] != 0]
            if bad:
                print(f"{workload} seed={seed}: failed runs {bad}", file=sys.stderr)
                return 1
            got = {r["experiment"]: r["verdicts"] for r in res["runs"]}
            if verdicts is not None and got != verdicts:
                print(f"{workload} seed={seed}: verdicts depend on the seed", file=sys.stderr)
                return 1
            verdicts = got
            sha[f"seed={seed}" if workload in SEEDED else "any"] = hashes(res)
            print(f"{workload} seed={seed}: {res['wall_s']:.2f} s", flush=True)
        ref = {"workload": workload, "git_sha": git_sha(), "src_sha256": src_sha256(),
               "verdicts": verdicts, "sha256": sha}
        (HERE / "reference" / f"{workload}.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
