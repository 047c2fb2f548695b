"""Byte oracle: the eight experiments, run on the small configs in
``tests/byte_oracle/``, write ``verdict.txt`` and CSV files whose sha256
digests equal the committed table ``tests/byte_oracle/sha256.json``.

The configs cover every experiment and every verdict name.  The bytes depend
on the numpy and scipy builds, so the table records the versions it was made
with; on other versions the test skips and names both sets.  A change that
means to move bytes regenerates the table with

    PYTHONPATH=src python tests/test_byte_oracle.py

and lists the moved files in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
import scipy

import krlab.experiments
from krlab.cli import RunConfig
from krlab.experiments import EXPERIMENTS, run_experiment

CONFIGS = Path(__file__).parent / "byte_oracle"
TABLE = CONFIGS / "sha256.json"


def versions() -> dict[str, str]:
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_configs(out: Path) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Run every config into ``out``.  Returns the sha256 of each verdict.txt
    and CSV by its path under ``out``, and the verdict names by experiment."""
    names = {}
    for cfg in sorted(CONFIGS.glob("*.yaml")):
        config = RunConfig.from_file(cfg)
        rec = run_experiment(config.experiment, config.params)
        rec.write(out / config.experiment)
        names[config.experiment] = [v.name for v in rec.verdicts]
    digests = {f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.rglob("*")) if f.suffix in (".txt", ".csv")}
    return digests, names


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    return run_configs(tmp_path_factory.mktemp("byte_oracle"))


def test_configs_cover_every_experiment_and_verdict(run):
    _, names = run
    assert sorted(names) == sorted(EXPERIMENTS)
    produced = {n for v in names.values() for n in v}
    # the literal name, or the part before the first field of an f-string name
    source = re.findall(r'rec\.add\(f?"([^"{]+)', Path(krlab.experiments.__file__).read_text())
    assert source
    missing = [s for s in source if not any(n.startswith(s) for n in produced)]
    assert not missing, f"no config produces the verdicts {missing}"


def test_outputs_match_the_table(run):
    table = json.loads(TABLE.read_text())
    if table["versions"] != versions():
        pytest.skip(f"the table was made with {table['versions']}; this is {versions()}")
    digests, _ = run
    moved = sorted(k for k in table["sha256"].keys() | digests.keys()
                   if table["sha256"].get(k) != digests.get(k))
    assert not moved, f"files that moved against {TABLE.name}: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests, _ = run_configs(Path(tmp))
    TABLE.write_text(json.dumps({"versions": versions(), "sha256": digests}, indent=1,
                                sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}", file=sys.stderr)
