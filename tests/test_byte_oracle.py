"""Byte oracle: the eight experiments, run on the small configs in
``tests/byte_oracle/`` and at their defaults, write ``verdict.txt`` and CSV
files whose sha256 digests equal the committed table
``tests/byte_oracle/sha256.json``.

The configs cover every experiment and every verdict name; the outputs at
the defaults are under ``defaults/`` in the table.  The bytes depend on the
numpy and scipy builds, so the table records the versions it was made with;
on other versions the test skips and names both sets.  They also depend on
the SIMD loops numpy dispatches to (a few files move without AVX-512), so
the table holds one set of digests per x86-64 level: X86_V4, X86_V3 and
baseline, the widest level whose ``__cpu_features__`` flag is on.  A change
that means to move bytes regenerates the table with

    PYTHONPATH=src python tests/test_byte_oracle.py

which runs the configs once per level, each in a fresh interpreter with
``NPY_DISABLE_CPU_FEATURES`` switching off the levels above it, prints the
files that moved against the committed table, and lists them in CHANGES.md.
A level this machine cannot reach keeps its committed set, if the table
was made with the same versions.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
import scipy
from numpy._core._multiarray_umath import __cpu_features__

import krlab.experiments
from krlab.cli import RunConfig
from krlab.experiments import EXPERIMENTS, run_experiment
from krlab.records import ExperimentRecord

CONFIGS = Path(__file__).parent / "byte_oracle"
TABLE = CONFIGS / "sha256.json"
# x86-64 level -> the NPY_DISABLE_CPU_FEATURES value that makes it the widest one on
LEVELS = {"X86_V4": "", "X86_V3": "X86_V4", "baseline": "X86_V3 X86_V4"}


def versions() -> dict[str, str]:
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def simd_level() -> str:
    """The widest x86-64 level numpy dispatches to in this interpreter."""
    return next((level for level in ("X86_V4", "X86_V3") if __cpu_features__.get(level)),
                "baseline")


def run_configs(out: Path) -> tuple[dict[str, str], dict[str, ExperimentRecord]]:
    """Run every config, then every experiment at its defaults, into ``out``.
    Returns the sha256 of each verdict.txt and CSV by its path under ``out``,
    and the records of the configs by experiment."""
    records = {}
    for cfg in sorted(CONFIGS.glob("*.yaml")):
        config = RunConfig.from_file(cfg)
        rec = run_experiment(config.experiment, config.params)
        rec.write(out / config.experiment)
        records[config.experiment] = rec
    for name in sorted(EXPERIMENTS):
        run_experiment(name).write(out / "defaults" / name)
    digests = {f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.rglob("*")) if f.suffix in (".txt", ".csv")}
    return digests, records


def moved_files(table: dict[str, str], digests: dict[str, str]) -> list[str]:
    return sorted(k for k in table.keys() | digests.keys() if table.get(k) != digests.get(k))


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    return run_configs(tmp_path_factory.mktemp("byte_oracle"))


def test_configs_cover_every_experiment_and_verdict(run):
    names = {name: [v.name for v in rec.verdicts] for name, rec in run[1].items()}
    assert sorted(names) == sorted(EXPERIMENTS)
    produced = {n for v in names.values() for n in v}
    # the literal name, or the part before the first field of an f-string name
    source = re.findall(r'rec\.add\(f?"([^"{]+)', Path(krlab.experiments.__file__).read_text())
    assert source
    missing = [s for s in source if not any(n.startswith(s) for n in produced)]
    assert not missing, f"no config produces the verdicts {missing}"


def test_table_cells_are_plain_python_values(run):
    # a numpy scalar in a table writes its CSV cell through _fmt and its JSON
    # through default=float: np.float64 formats like a float only because it
    # subclasses one, and np.float32 or np.int64 would not
    plain = (int, float, bool, str, type(None))
    odd = sorted({f"{name} {table}.{col}: {type(value).__name__}"
                  for name, rec in run[1].items() for table, rows in rec.tables.items()
                  for row in rows for col, value in row.items() if type(value) not in plain})
    assert not odd


def test_outputs_match_the_table(run):
    table = json.loads(TABLE.read_text())
    if table["versions"] != versions():
        pytest.skip(f"the table was made with {table['versions']}; this is {versions()}")
    level = simd_level()
    if level not in table["sha256"]:
        pytest.skip(f"the table has no digests for {level}")
    digests, _ = run
    moved = moved_files(table["sha256"][level], digests)
    assert not moved, f"files that moved against {TABLE.name} at {level}: {moved}"


def digests_at(level: str) -> dict[str, str] | None:
    """The digests of a fresh interpreter run at ``level``, or None where this
    machine cannot reach it."""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": LEVELS[level]}
    out = subprocess.run([sys.executable, __file__, "--digests"], env=env, check=True,
                         capture_output=True, text=True).stdout
    reached, digests = json.loads(out.splitlines()[-1])
    return digests if reached == level else None


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps([simd_level(), run_configs(Path(tmp))[0]]))
        sys.exit()
    old = json.loads(TABLE.read_text()) if TABLE.is_file() else {"versions": {}, "sha256": {}}
    table = dict(old["sha256"])
    if old["versions"] != versions():
        print(f"the committed table was made with {old['versions']}; this is {versions()}")
        table = {}  # no set of other versions is kept
    for level in LEVELS:
        digests = digests_at(level)
        if digests is None:
            print(f"{level}: not reached on this machine; the committed set is kept")
            continue
        if level not in old["sha256"]:
            print(f"{level}: {len(digests)} files, a new set")
        else:
            moved = moved_files(old["sha256"][level], digests)
            print(f"{level}: {len(moved)} files moved against the committed table")
            for name in moved:
                print(f"  {name}")
        table[level] = digests
    TABLE.write_text(json.dumps({"versions": versions(), "sha256": table}, indent=1,
                                sort_keys=True) + "\n")
    print(f"wrote the digests of {sorted(table)} to {TABLE}", file=sys.stderr)
