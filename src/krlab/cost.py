"""Concave metric transport costs: the bounded-log family and the truncated
linear cost.

Both families are concave, bounded and vanish at zero, so ``d(x, y) =
c(|x - y|)`` is a (bounded) metric.  The bounded-log cost is the workhorse:

    c(z) = log(z/delta + 1)                                  for z <= radius,
    c(z) = log(radius/delta + 1)
           + radius/(radius + delta) * (1 - radius/z)        for z >= radius.

It is C^1 across ``z = radius`` (both one-sided slopes equal
``1/(delta + radius)``), strictly concave, and bounded by
``log(radius/delta + 1) + radius/(radius + delta)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class CostKind(enum.Enum):
    BOUNDED_LOG = "bounded_log"
    TRUNCATED_LINEAR = "truncated_linear"


@dataclass(frozen=True)
class CostSpec:
    """Cost family with its length scales.

    ``delta`` is the short-distance scale of the bounded-log cost (ignored by
    the truncated linear cost), ``radius`` the saturation/truncation scale.
    """

    kind: CostKind
    radius: float
    delta: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.kind is CostKind.BOUNDED_LOG:
            if self.delta is None or not (math.isfinite(self.delta) and self.delta > 0):
                raise ValueError(f"bounded-log cost needs delta > 0, got {self.delta}")


def bounded_log(delta: float, radius: float) -> CostSpec:
    return CostSpec(CostKind.BOUNDED_LOG, radius=radius, delta=delta)


def truncated_linear(radius: float) -> CostSpec:
    return CostSpec(CostKind.TRUNCATED_LINEAR, radius=radius)


def _validate_arg(z):
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    if (z < 0).any():
        raise ValueError("z must be nonnegative")
    return z


def cost_eval(spec: CostSpec, z):
    """Evaluate c(z) elementwise for z >= 0."""
    zs = _validate_arg(z)
    if spec.kind is CostKind.TRUNCATED_LINEAR:
        out = np.minimum(zs, spec.radius)
    else:
        d, r = spec.delta, spec.radius
        # log1p keeps full accuracy for z << delta
        out = np.log1p(np.minimum(zs, r) / d, out=np.empty(zs.shape))
        far = zs > r  # the outer branch, evaluated only where it applies
        if far.any():
            out[far] = math.log1p(r / d) + r / (r + d) * (1.0 - r / zs[far])
    return out if isinstance(z, np.ndarray) else float(out)


def cost_derivative(spec: CostSpec, z):
    """c'(z) for the bounded-log cost; finite 1/delta at z = 0."""
    if spec.kind is not CostKind.BOUNDED_LOG:
        raise ValueError("cost_derivative is defined for the bounded-log cost only")
    zs = _validate_arg(z)
    d, r = spec.delta, spec.radius
    out = np.divide(1.0, d + zs, out=np.empty(zs.shape))
    far = zs > r
    if far.any():
        zf = zs[far]
        out[far] = r * r / ((r + d) * zf * zf)
    return out if isinstance(z, np.ndarray) else float(out)


def cost_sup(spec: CostSpec) -> float:
    """Supremum of c over [0, inf): the global cost bound."""
    if spec.kind is CostKind.TRUNCATED_LINEAR:
        return spec.radius
    r, d = spec.radius, spec.delta
    return math.log1p(r / d) + r / (r + d)
