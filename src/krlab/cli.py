"""Batch front end: ``krlab run <config> [--grid N] [--out DIR]`` and
``krlab list``.

Configs are YAML with one table per section::

    experiment: e1-example
    out: results/e1
    params:
      n: 4096
      deltas: [1.0e-1, 1.0e-2]

A seed, where the experiment takes one, is the ``seed`` key under
``params``.  ``--grid`` sets the experiment's main grid size (``n``,
``n_grid`` or ``apriori_n``).  Every grid size, given by ``--grid`` or
under ``params``, must be a power of two; any other exits 2 with the two
nearest powers of two.

Outputs per run: ``record.json``, one ``<table>.csv`` per sweep table, and
``verdict.txt`` (one inequality per line; byte-stable for a fixed config and
seed).  Exit status 0 iff every check passed, 1 if one failed, 2 for a
config or command-line error.  The CSV columns and the verdict fields are
documented in docs/csv_schema.md.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .experiments import EXPERIMENTS, merge_params, run_experiment
from .measures import check_grid_size

GRID_KEYS = ("n", "n_grid", "apriori_n")


@dataclass
class RunConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    out: str = "results"

    _KEYS = {"experiment", "params", "out"}

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        text = Path(path).read_text()
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise ValueError(f"config parse error in {path}{where}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"config {path} must be a mapping, got {type(raw).__name__}")
        unknown = set(raw) - cls._KEYS
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}; "
                             f"valid keys: {sorted(cls._KEYS)}")
        if "experiment" not in raw:
            raise ValueError("config is missing the required key 'experiment'")
        params = raw.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("'params' must be a table of experiment parameters")
        out = raw.get("out", "results")
        if not (isinstance(out, str) and out):
            raise ValueError(f"out = {out!r}: expected a non-empty output directory path")
        return cls(experiment=raw["experiment"], params=merge_params(raw["experiment"], params),
                   out=out)

    def set_grid(self, n: int) -> None:
        """Put ``--grid n`` on the experiment's main grid size parameter."""
        key = next((k for k in GRID_KEYS if k in self.params), None)
        if key is None:
            raise ValueError(f"--grid: {self.experiment!r} has no main grid size "
                             f"({', '.join(GRID_KEYS)}); drop --grid and set its sizes "
                             "under params in the config")
        check_grid_size(f"--grid {n}", n)
        self.params[key] = n


def run(config: RunConfig, out_override: str | None = None) -> int:
    rec = run_experiment(config.experiment, config.params)
    out_dir = Path(out_override or config.out) / config.experiment
    rec.write(out_dir)
    sys.stdout.write(rec.verdict_text())
    sys.stdout.write(f"artifacts written to {out_dir}\n")
    return 0 if rec.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="krlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a YAML config")
    p_run.add_argument("config", help="path to the YAML config file")
    p_run.add_argument("--grid", type=int, default=None,
                       help="override the main grid size (a power of two)")
    p_run.add_argument("--out", default=None, help="override the output directory")
    sub.add_parser("list", help="print the available experiment names")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    try:
        config = RunConfig.from_file(args.config)
        if args.grid is not None:
            config.set_grid(args.grid)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
