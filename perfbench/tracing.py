"""Span tracer for traced benchmark passes.

The tracer wraps krlab's public functions, and the scipy entry points as
``krlab.transport`` and ``krlab.pde`` bind them, from outside the program: it
replaces module attributes at run time and restores them on ``uninstall``.
Each wrapped call records a span (name, parent, start, end), so every layer
gets a self time, and adds exact work counts (LP variables, assignment rows,
ODE right-hand-side evaluations, upwind steps) at the same boundary.

A name is resolved in its home module, and every ``krlab`` module that binds
the same object gets the same single wrapper, so a call is counted once
whichever binding it goes through.  A name that no longer exists is reported
as absent instead of failing the pass.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

LAYERS = ("cli", "experiments", "estimates", "pde", "transport", "cost", "measures", "records")


@dataclass(frozen=True)
class Target:
    span: str    # span name and metric prefix; "experiments" gets the experiment name added
    module: str  # home module of the name
    attr: str    # attribute in that module, "Class.method" for a method


TARGETS = (
    Target("cli.run", "krlab.cli", "run"),
    Target("experiments", "krlab.experiments", "run_experiment"),
    Target("records.write", "krlab.records", "ExperimentRecord.write"),
    Target("estimates.build_eta", "krlab.estimates", "build_eta"),
    Target("estimates.track_kr", "krlab.estimates", "track_kr"),
    Target("estimates.check_rate_bounds", "krlab.estimates", "check_rate_bounds"),
    Target("estimates.check_prop1", "krlab.estimates", "check_prop1"),
    Target("transport.kr_distance", "krlab.transport", "kr_distance"),
    Target("transport.solve_primal", "krlab.transport", "solve_primal"),
    Target("transport.solve_dual", "krlab.transport", "solve_dual"),
    Target("transport.wneg11", "krlab.transport", "w_neg11_norm"),
    Target("transport.cost_matrix", "krlab.transport", "cost_matrix"),
    Target("transport.assignment", "krlab.transport", "linear_sum_assignment"),
    Target("transport.lp", "krlab.transport", "linprog"),
    Target("cost.cost_eval", "krlab.cost", "cost_eval"),
    Target("measures.periodic_distance_matrix", "krlab.measures", "periodic_distance_matrix"),
    Target("pde.eulerian_solve", "krlab.pde", "eulerian_solve"),
    Target("pde.lagrangian_solve", "krlab.pde", "lagrangian_solve"),
    Target("pde.ode", "krlab.pde", "solve_ivp"),
    Target("pde.source_at", "krlab.pde", "CauchyData.source_at"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


class Tracer:
    """In-memory spans and counts of one traced pass."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []   # [name, parent index or -1, start, end]
        self.stack: list[int] = []    # indices of the open spans
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._depth: dict[str, int] = {}
        self._undo: list[tuple] = []
        self._lp_failed_under = None  # parent span of the last transportation LP that failed

    # -- spans and counts ---------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), None])
        self.stack.append(idx)
        self._depth[name] = self._depth.get(name, 0) + 1
        return idx

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self.stack.pop()
        self._depth[span[0]] -= 1
        return span[3] - span[2]

    def inside(self, name: str) -> bool:
        return self._depth.get(name, 0) > 0

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded krlab module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "krlab" or n.startswith("krlab."))]
        for target in self.targets:
            home = sys.modules.get(target.module)
            owner_name, _, method = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                fn = vars(owner).get(method) if owner is not None else None
            else:
                fn = getattr(home, method, None)
            if fn is None:
                self.absent.append(target.span)
                continue
            if getattr(fn, "_perfbench_span", None) is not None:
                raise RuntimeError(f"{target.module}.{target.attr} is already wrapped")
            wrapper = self._wrap(target.span, fn)
            if owner_name:
                setattr(owner, method, wrapper)
                self._undo.append((owner, method, fn))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        for obj, key, fn in reversed(self._undo):
            setattr(obj, key, fn)
        self._undo.clear()

    def _wrap(self, span: str, fn):
        special = {"transport.lp": self._call_lp, "pde.source_at": self._call_source_at}.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if special is not None:
                return special(fn, args, kwargs)
            name = f"experiments.{_arg(args, kwargs, 0, 'name')}" if span == "experiments" else span
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.add(f"{name}.calls")
            self._count(name, args, kwargs, result)
            return result

        wrapper._perfbench_span = span
        return wrapper

    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "transport.assignment":
            self.add("transport.assignment.rows", len(_arg(args, kwargs, 0, "cost_matrix")))
        elif name == "transport.cost_matrix":
            self.add("transport.cost_matrix.entries", _size(result))
        elif name == "transport.wneg11":
            self.add("transport.wneg11.cells", _arg(args, kwargs, 0, "eta").grid.ncells)
        elif name == "cost.cost_eval":
            self.add("cost.cost_eval.elements", _size(_arg(args, kwargs, 1, "z")))
        elif name == "measures.periodic_distance_matrix":
            self.add("measures.periodic_distance_matrix.entries",
                     len(_arg(args, kwargs, 0, "pos_a")) * len(_arg(args, kwargs, 1, "pos_b")))
        elif name == "pde.ode":
            self.add("pde.ode.nfev", result.nfev)

    def _call_lp(self, fn, args, kwargs):
        # the LP inside w_neg11_norm belongs to the W^{-1,1} span
        if self.inside("transport.wneg11"):
            return fn(*args, **kwargs)
        parent = self.stack[-1] if self.stack else -1
        idx = self._open("transport.lp")
        try:
            res = fn(*args, **kwargs)
        finally:
            dur = self._close(idx)
        self.add("transport.lp.calls")
        self.add("transport.lp.vars", len(_arg(args, kwargs, 0, "c")))
        self.add("transport.lp.nit", int(getattr(res, "nit", 0) or 0))
        # a retry is an LP that follows a failed one under the same caller
        if self._lp_failed_under == parent:
            self.add("transport.lp.retries")
            self.add("transport.lp.retry_s", dur)
        self._lp_failed_under = parent if res.status != 0 else None
        return res

    def _call_source_at(self, fn, args, kwargs):
        # one upwind step asks for the source once
        if self.inside("pde.eulerian_solve"):
            self.add("pde.eulerian_solve.steps")
            self.add("pde.eulerian_solve.cell_updates", _arg(args, kwargs, 2, "grid").ncells)
        return fn(*args, **kwargs)

    # -- report -------------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive seconds (outermost spans of a name only) and self seconds per name."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            own[name] = own.get(name, 0.0) + (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
        return inclusive, own

    def report(self) -> dict:
        """Counts, inclusive and self seconds per span name, and self seconds per layer."""
        inclusive, own = self.times()
        layers = {layer: 0.0 for layer in LAYERS}
        for name, sec in own.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + sec
        return {"counts": dict(self.counts), "s": inclusive, "self_s": own,
                "layer_self_s": layers, "absent": list(self.absent)}
