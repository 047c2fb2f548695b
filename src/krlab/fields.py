"""Velocity fields, maximal functions, Sobolev seminorms, and the
superlinear integrability modulus.

Field families (identifier strings in parentheses):

* ``E1StepField`` ("e1_step") -- the +-1 step on the unit circle; BV but not
  Sobolev.  Refused as an advecting field (discontinuous characteristic ODE).
* ``OscillatoryField(k)`` ("oscillatory:k") -- u(x) = sin(k x)/k on the
  2*pi-periodic circle, with the closed-form flow obtained by separation of
  variables on each k-cell.
* ``PowerCuspField(alpha)`` ("power_cusp:alpha") -- sign-symmetric
  |x - x0|^alpha cusp, smoothly cut off away from the cusp; the gradient is
  in L^p exactly when p*(1 - alpha) < 1.
* ``SmoothShear2D`` ("shear2d") and ``Rotation2D`` ("rotation2d") -- C-infty
  divergence-free planar fields with exact flows.

All fields are autonomous; they take positions of shape (..., dim) and
return velocities of the same shape.  Flows act on unwrapped (real-line)
coordinates and commute with period shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.optimize import minimize_scalar

from .measures import Grid

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# smooth cutoff machinery (C-infty transition used by cusp and rotation)

def _bump_f(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _bump_fprime(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def smoothstep_down(s, s0: float, s1: float):
    """C-infty function equal to 1 for s <= s0 and 0 for s >= s1."""
    t = (np.asarray(s, dtype=float) - s0) / (s1 - s0)
    f1 = _bump_f(1.0 - t)
    f2 = _bump_f(t)
    return f1 / (f1 + f2)


def smoothstep_down_prime(s, s0: float, s1: float):
    t = (np.asarray(s, dtype=float) - s0) / (s1 - s0)
    f1, f2 = _bump_f(1.0 - t), _bump_f(t)
    d1, d2 = -_bump_fprime(1.0 - t), _bump_fprime(t)
    return (d1 * f2 - f1 * d2) / (f1 + f2) ** 2 / (s1 - s0)


# ---------------------------------------------------------------------------
# field families

class VelocityField:
    """Common interface; subclasses fill in the analytic pieces they have."""

    dim: int = 1
    length: float = 1.0
    time_dependent: bool = False
    advectable: bool = True
    name: str = "field"

    def __call__(self, t: float, pos: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def divergence(self, t: float, pos: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def max_speed(self) -> float:
        probe = np.linspace(0.0, self.length, 4096, endpoint=False)
        if self.dim == 1:
            v = self(0.0, probe[:, None])
        else:
            X, Y = np.meshgrid(probe[::8], probe[::8], indexing="ij")
            v = self(0.0, np.stack([X.ravel(), Y.ravel()], axis=1))
        return float(np.abs(v).max())

    def grad_norm_lp(self, p: float) -> float | None:
        """Analytic ||grad u||_{L^p} over one period, or None if unknown."""
        return None

    def exact_flow(self, t: float, pos: np.ndarray) -> np.ndarray | None:
        return None

    def exact_flow_jacobian(self, t: float, pos: np.ndarray) -> np.ndarray | None:
        """d=1: d(phi)/dx; d=2 families here are volume preserving (det = 1)."""
        return None

    def grad_magnitude(self, t: float, pos: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def singular_points(self) -> list[float]:
        return []


def _abs_cos_lp_factor(p: float) -> float:
    # mean of |cos|^p over a period: Gamma((p+1)/2) / (sqrt(pi) Gamma(p/2+1))
    return math.gamma((p + 1) / 2.0) / (math.sqrt(math.pi) * math.gamma(p / 2.0 + 1.0))


class E1StepField(VelocityField):
    """+1 on [0, 1/2), -1 on [1/2, 1); BV seminorm 4 (two jumps of size 2)."""

    dim = 1
    length = 1.0
    advectable = False
    name = "e1_step"

    def __call__(self, t, pos):
        x = np.mod(np.asarray(pos, dtype=float), 1.0)
        return np.where(x < 0.5, 1.0, -1.0)

    def grad_norm_lp(self, p):
        return 4.0 if p == 1 else math.inf


def _flow_unit_circle(t: float, y):
    """Closed-form flow of y' = sin(y) and its y-derivative.

    Separation of variables gives tan(y_t/2) = exp(t) tan(y_0/2) on (0, pi);
    odd pi-cells run backwards.  Evaluated in the half of each cell where the
    half-angle tangent is <= 1 so nothing overflows.
    """
    y = np.asarray(y, dtype=float)
    m = np.floor(y / math.pi)
    z = y - m * math.pi
    tau = np.where(m.astype(np.int64) % 2 == 0, t, -t)
    lower = z <= math.pi / 2
    zz = np.where(lower, z, math.pi - z)
    s = np.tan(zz / 2.0)
    e = np.exp(np.where(lower, tau, -tau))
    zt_lower = 2.0 * np.arctan(s * e)
    jac = e * (1.0 + s * s) / (1.0 + (s * e) ** 2)
    zt = np.where(lower, zt_lower, math.pi - zt_lower)
    return m * math.pi + zt, jac


def exact_flow_oscillatory(k: int, t: float, x):
    """Flow of x' = sin(k x)/k, exact per k-cell; scales as phi_1(t, kx)/k."""
    y, _ = _flow_unit_circle(t, np.asarray(x, dtype=float) * k)
    out = y / k
    return out if isinstance(x, np.ndarray) else float(out)


class OscillatoryField(VelocityField):
    """u_k(x) = sin(k x)/k on the 2*pi circle; converges uniformly to 0."""

    dim = 1

    def __init__(self, k: int):
        if k < 1 or k != int(k):
            raise ValueError("k must be a positive integer")
        self.k = int(k)
        self.length = TWO_PI
        self.name = f"oscillatory:{self.k}"

    def __call__(self, t, pos):
        return np.sin(self.k * np.asarray(pos, dtype=float)) / self.k

    def divergence(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return np.cos(self.k * (p[..., 0] if p.ndim > 1 else p))

    def max_speed(self):
        return 1.0 / self.k

    def grad_norm_lp(self, p):
        if p == math.inf:
            return 1.0
        return (TWO_PI * _abs_cos_lp_factor(p)) ** (1.0 / p)

    def grad_magnitude(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return np.abs(np.cos(self.k * (p[..., 0] if p.ndim > 1 else p)))

    def exact_flow(self, t, pos):
        p = np.asarray(pos, dtype=float)
        x = p[..., 0] if p.ndim > 1 else p
        y, _ = _flow_unit_circle(t, self.k * x)
        out = y / self.k
        return out[..., None] if p.ndim > 1 else out

    def exact_flow_jacobian(self, t, pos):
        p = np.asarray(pos, dtype=float)
        x = p[..., 0] if p.ndim > 1 else p
        _, jac = _flow_unit_circle(t, self.k * x)
        return jac


class PowerCuspField(VelocityField):
    """Sign-symmetric |x - x0|^alpha cusp with a C-infty far cutoff.

    grad u is in L^p iff p*(1 - alpha) < 1, which makes the family the
    Sobolev-but-not-Lipschitz test bench.
    """

    dim = 1
    length = 1.0

    def __init__(self, alpha: float, x0: float = 0.5, amp: float = 0.4,
                 cut0: float = 0.2, cut1: float = 0.45):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha, self.x0, self.amp = alpha, x0, amp
        self.cut0, self.cut1 = cut0, cut1
        self.name = f"power_cusp:{alpha:g}"
        self._grad_norms: dict[float, float] = {}  # by p; the field is never mutated

    @property
    def p_max(self) -> float:
        return 1.0 / (1.0 - self.alpha)

    def _xi(self, pos):
        x = np.asarray(pos, dtype=float)
        xi = x - self.x0
        return xi - np.round(xi)

    def __call__(self, t, pos):
        xi = self._xi(pos)
        a = np.abs(xi)
        return self.amp * np.sign(xi) * a**self.alpha * smoothstep_down(a, self.cut0, self.cut1)

    def derivative(self, pos):
        xi = self._xi(pos)
        a = np.abs(xi)
        w = smoothstep_down(a, self.cut0, self.cut1)
        wp = smoothstep_down_prime(a, self.cut0, self.cut1)
        with np.errstate(divide="ignore"):
            core = self.alpha * a ** (self.alpha - 1.0)
        return self.amp * (core * w + a**self.alpha * wp)

    def divergence(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return self.derivative(p[..., 0] if p.ndim > 1 else p)

    def grad_magnitude(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return np.abs(self.derivative(p[..., 0] if p.ndim > 1 else p))

    def singular_points(self):
        return [self.x0]

    def grad_norm_lp(self, p):
        if p >= self.p_max:
            return math.inf
        if p not in self._grad_norms:
            val, _ = integrate.quad(lambda x: float(np.abs(self.derivative(x))) ** p,
                                    0.0, 1.0, points=[self.x0], limit=400)
            self._grad_norms[p] = val ** (1.0 / p)
        return self._grad_norms[p]


class SmoothShear2D(VelocityField):
    """u(x, y) = (base + amp*sin(2*pi*y), 0); divergence free, exact flow."""

    dim = 2
    length = 1.0
    name = "shear2d"

    def __init__(self, base: float = 0.3, amp: float = 0.2):
        self.base, self.amp = base, amp

    def _u1(self, y):
        return self.base + self.amp * np.sin(TWO_PI * y)

    def __call__(self, t, pos):
        p = np.asarray(pos, dtype=float)
        out = np.zeros_like(p)
        out[..., 0] = self._u1(p[..., 1])
        return out

    def divergence(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return np.zeros(p.shape[:-1])

    def max_speed(self):
        return abs(self.base) + abs(self.amp)

    def grad_norm_lp(self, p):
        if p == math.inf:
            return TWO_PI * self.amp
        return TWO_PI * self.amp * _abs_cos_lp_factor(p) ** (1.0 / p)

    def grad_magnitude(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return TWO_PI * self.amp * np.abs(np.cos(TWO_PI * p[..., 1]))

    def exact_flow(self, t, pos):
        p = np.asarray(pos, dtype=float).copy()
        p[..., 0] = p[..., 0] + t * self._u1(p[..., 1])
        return p

    def exact_flow_jacobian(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return np.ones(p.shape[:-1])


class Rotation2D(VelocityField):
    """Localized rigid rotation: angular speed omega inside radius r0,
    C-infty decay to zero by r1 < 1/2; trajectories are circles."""

    dim = 2
    length = 1.0
    name = "rotation2d"

    def __init__(self, omega: float = 1.5, center=(0.5, 0.5),
                 r0: float = 0.15, r1: float = 0.42):
        self.omega, self.center, self.r0, self.r1 = omega, np.asarray(center), r0, r1

    def _ang(self, r):
        return self.omega * smoothstep_down(r, self.r0, self.r1)

    def __call__(self, t, pos):
        p = np.asarray(pos, dtype=float)
        rel = p - self.center
        r = np.sqrt((rel * rel).sum(axis=-1))
        a = self._ang(r)
        out = np.empty_like(p)
        out[..., 0] = -a * rel[..., 1]
        out[..., 1] = a * rel[..., 0]
        return out

    def divergence(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return np.zeros(p.shape[:-1])

    def max_speed(self):
        rr = np.linspace(0, 0.5 * math.sqrt(2), 2048)
        return float(np.max(np.abs(self._ang(rr)) * rr))

    def grad_magnitude(self, t, pos):
        p = np.asarray(pos, dtype=float)
        rel = p - self.center
        r = np.maximum(np.sqrt((rel * rel).sum(axis=-1)), 1e-300)
        a = self._ang(r)
        ap = self.omega * smoothstep_down_prime(r, self.r0, self.r1)
        xb, yb = rel[..., 0], rel[..., 1]
        g11 = -ap * xb * yb / r
        g12 = -a - ap * yb * yb / r
        g21 = a + ap * xb * xb / r
        g22 = ap * xb * yb / r
        return np.sqrt(g11**2 + g12**2 + g21**2 + g22**2)

    def grad_norm_lp(self, p):
        n = 1024
        c = (np.arange(n) + 0.5) / n
        X, Y = np.meshgrid(c, c, indexing="ij")
        g = self.grad_magnitude(0.0, np.stack([X, Y], axis=-1))
        if p == math.inf:
            return float(g.max())
        return float(((g**p).sum() / n**2) ** (1.0 / p))

    def exact_flow(self, t, pos):
        p = np.asarray(pos, dtype=float)
        rel = p - self.center
        r = np.sqrt((rel * rel).sum(axis=-1))
        theta = self._ang(r) * t
        ct, st = np.cos(theta), np.sin(theta)
        out = np.empty_like(p)
        out[..., 0] = self.center[0] + ct * rel[..., 0] - st * rel[..., 1]
        out[..., 1] = self.center[1] + st * rel[..., 0] + ct * rel[..., 1]
        return out

    def exact_flow_jacobian(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return np.ones(p.shape[:-1])


class ConstantField(VelocityField):
    def __init__(self, velocity, dim: int = 1, length: float = 1.0):
        self.dim = dim
        self.length = length
        self.velocity = np.atleast_1d(np.asarray(velocity, dtype=float))
        self.name = f"constant:{','.join(f'{v:g}' for v in self.velocity)}"

    def __call__(self, t, pos):
        p = np.asarray(pos, dtype=float)
        if self.dim == 1 and p.ndim >= 1 and (p.ndim == 0 or p.shape[-1] != 1):
            return np.full_like(p, self.velocity[0])
        return np.broadcast_to(self.velocity, p.shape).copy()

    def divergence(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return np.zeros(p.shape[:-1] if p.ndim > 1 else p.shape)

    def max_speed(self):
        return float(np.abs(self.velocity).max())

    def grad_norm_lp(self, p):
        return 0.0

    def grad_magnitude(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return np.zeros(p.shape[:-1] if p.ndim > 1 else p.shape)

    def exact_flow(self, t, pos):
        p = np.asarray(pos, dtype=float)
        if self.dim == 1 and (p.ndim == 0 or p.shape[-1] != 1):
            return p + t * self.velocity[0]
        return p + t * self.velocity

    def exact_flow_jacobian(self, t, pos):
        p = np.asarray(pos, dtype=float)
        return np.ones(p.shape[:-1] if p.ndim > 1 else p.shape)


def field_from_name(name: str) -> VelocityField:
    """Registry for the identifier strings used in config files."""
    head, _, arg = name.partition(":")
    if head == "e1_step":
        return E1StepField()
    if head == "oscillatory":
        return OscillatoryField(int(arg))
    if head == "power_cusp":
        return PowerCuspField(float(arg))
    if head == "shear2d":
        return SmoothShear2D()
    if head == "rotation2d":
        return Rotation2D()
    if head == "constant":
        return ConstantField([float(v) for v in arg.split(",")])
    raise ValueError(f"unknown field family {name!r}")


# ---------------------------------------------------------------------------
# maximal function

def maximal_function(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete Hardy-Littlewood maximal function over dyadic radii.

    For each cell the supremum over r in {h, 2h, 4h, ..., length/2} of the
    average of |f| over the periodic ball of radius r (cells at center
    distance strictly below r).  r = h reproduces |f| itself.
    """
    v = np.abs(np.asarray(values, dtype=float))
    if v.shape != grid.shape:
        raise ValueError("values shape does not match the grid")
    n = grid.n
    fhat = np.fft.rfftn(v)
    out = np.zeros_like(v)
    m = 1
    offs = np.arange(n)
    offs = np.minimum(offs, n - offs)  # periodic |offset| in cells
    while m <= n // 2:
        if grid.dim == 1:
            kernel = (offs < m).astype(float)
        else:
            kernel = ((offs[:, None] ** 2 + offs[None, :] ** 2) < m * m).astype(float)
        axes = tuple(range(grid.dim))
        avg = np.fft.irfftn(fhat * np.fft.rfftn(kernel), s=grid.shape, axes=axes) / kernel.sum()
        np.maximum(out, avg, out=out)
        m *= 2
    return out


# ---------------------------------------------------------------------------
# Sobolev seminorms

def sobolev_seminorm(field: VelocityField, p: float, grid: Grid | None = None) -> float:
    """Spatial ||grad u||_{L^p} over one period.

    Analytic values are preferred; fields that only have BV regularity report
    +inf for p > 1 (the divergent discrete sums are never trusted).  The grid
    fallback uses centered periodic differences.
    """
    analytic = field.grad_norm_lp(p)
    if analytic is not None:
        return analytic
    if grid is None:
        raise ValueError(f"{field.name} needs a grid for the discrete seminorm")
    c = grid.axis_centers()
    if grid.dim == 1:
        u = field(0.0, c)
        du = (np.roll(u, -1) - np.roll(u, 1)) / (2 * grid.h)
        g = np.abs(du)
    else:
        X, Y = np.meshgrid(c, c, indexing="ij")
        u = field(0.0, np.stack([X, Y], axis=-1))
        comps = []
        for axis in (0, 1):
            comps.append((np.roll(u, -1, axis=axis) - np.roll(u, 1, axis=axis)) / (2 * grid.h))
        g = np.sqrt(sum((cmp**2).sum(axis=-1) for cmp in comps))
    if p == math.inf:
        return float(g.max())
    return float(((np.abs(g) ** p).sum() * grid.cell_volume) ** (1.0 / p))


# ---------------------------------------------------------------------------
# integrability modulus and the psi_1 rate

@dataclass(frozen=True)
class IntegrabilityModulus:
    """Superlinear function e with e(xi)/xi nondecreasing and -> infinity."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]


def default_modulus() -> IntegrabilityModulus:
    def e(xi):
        x = np.asarray(xi, dtype=float)
        return x * (1.0 + np.maximum(np.log(np.maximum(x, 1e-300)), 0.0))

    return IntegrabilityModulus("xi*(1+log+xi)", e)


def psi_one(modulus: IntegrabilityModulus, delta: float) -> float:
    """inf over M > 0 of  M + M/e(M) * (|log delta| + 1).

    Scanned on a log-spaced M grid and refined by golden-section around the
    best grid point (the objective is unimodal in log M).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    L = abs(math.log(delta)) + 1.0

    def obj(logm: float) -> float:
        m = math.exp(logm)
        return m + m / float(modulus.fn(m)) * L

    grid = np.linspace(math.log(1e-12), math.log(1e10), 3001)
    vals = np.array([obj(g) for g in grid])
    i = int(np.argmin(vals))
    best = vals[i]
    if 0 < i < len(grid) - 1:
        res = minimize_scalar(obj, bracket=(grid[i - 1], grid[i], grid[i + 1]), method="golden",
                              options={"xtol": 1e-12})
        best = min(best, float(res.fun))
    return float(best)


def modulus_gradient_integral(field: VelocityField, modulus: IntegrabilityModulus) -> float:
    """|| e(|grad u|) ||_{L^1} over one period of a 1-d field.

    Integrable gradient blow-ups at the field's singular points are handled
    by dyadic subdivision towards the singularity.  Evaluation works in
    absolute coordinates, so the resolved neighborhood of a singular point
    floors at its float ulp; for the steepest admissible cusp this leaves a
    ~1e-3 relative tail, far below the fitted-constant resolution these
    integrals feed.
    """
    if field.dim != 1:
        raise ValueError("implemented for 1-d fields")

    def f(x):
        return float(modulus.fn(float(field.grad_magnitude(0.0, x))))

    sing = sorted(s for s in field.singular_points() if 0.0 < s < field.length)
    edges = [0.0] + sing + [field.length]
    total = 0.0
    import warnings as _warnings
    with _warnings.catch_warnings():
        # e(xi) = xi(1+log+ xi) has a kink at xi = 1; quad resolves it far
        # beyond the fitted-constant accuracy but flags the slow convergence
        _warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            # dyadic refinement towards both endpoints (possible singularities)
            pts = [a + (b - a) * 2.0**-j for j in range(60, 0, -1)]
            pts += [b - (b - a) * 2.0**-j for j in range(1, 61)]
            pts = [a] + [x for x in pts if a < x < b] + [b]
            for lo, hi in zip(pts[:-1], pts[1:]):
                if hi - lo <= 0:
                    continue
                val, _ = integrate.quad(f, lo, hi, limit=200)
                total += val
    return total
