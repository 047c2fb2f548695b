"""Experiment records: verdicts, sweep tables, and their serializations.

A verdict names one inequality, states the measured number against its
tolerance, and says PASS iff ``measured comparator threshold``.  Records
serialize to ``record.json`` plus one CSV per sweep table; the verdict
summary is a stable plain-text table (one inequality per line) whose bytes
depend only on the inputs and the seed.
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COMPARATORS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}


@dataclass
class Verdict:
    name: str
    passed: bool
    measured: float
    threshold: float
    comparator: str = "<="       # how measured relates to threshold on PASS
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status:4s}  {self.name:<46s} measured={self.measured: .6e} "
                f"{self.comparator} {self.threshold:.6e}"
                + (f"  [{self.detail}]" if self.detail else ""))


@dataclass
class ExperimentRecord:
    experiment: str
    params: dict
    verdicts: list[Verdict] = field(default_factory=list)
    tables: dict[str, list[dict]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def add(self, name: str, measured: float, threshold: float,
            comparator: str = "<=", detail: str = "") -> Verdict:
        """PASS iff ``measured comparator threshold``; a NaN measured FAILs."""
        if comparator not in COMPARATORS:
            raise ValueError(f"comparator {comparator!r}; valid: {', '.join(COMPARATORS)}")
        measured, threshold = float(measured), float(threshold)
        v = Verdict(name, COMPARATORS[comparator](measured, threshold), measured, threshold,
                    comparator, detail)
        self.verdicts.append(v)
        return v

    def row(self, table: str, **kwargs) -> None:
        self.tables.setdefault(table, []).append(kwargs)

    def column(self, table: str, key: str) -> np.ndarray:
        """The ``key`` cells of ``table`` as floats, in row order (a missing
        or ``None`` cell is NaN); empty for a table without rows."""
        rows = self.tables.get(table, [])
        return np.array([r.get(key) for r in rows], dtype=float)

    @property
    def ok(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict_text(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        lines += [v.line() for v in self.verdicts]
        n_fail = sum(not v.passed for v in self.verdicts)
        lines.append(f"{len(self.verdicts) - n_fail}/{len(self.verdicts)} checks passed")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "verdicts": [vars(v) for v in self.verdicts],
            "tables": self.tables,
            "meta": self.meta,
        }

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "record.json").write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True, default=float))
        (out / "verdict.txt").write_text(self.verdict_text())
        for name, rows in self.tables.items():
            if not rows:
                continue
            cols = sorted({k for r in rows for k in r})
            with open(out / f"{name}.csv", "w", newline="") as fh:
                w = csv.DictWriter(fh, fieldnames=cols)
                w.writeheader()
                for r in rows:
                    w.writerow({k: _fmt(r.get(k)) for k in cols})
        return out


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return v
