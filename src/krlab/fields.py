"""Velocity fields and the superlinear integrability modulus.

Field families:

* ``E1StepField`` -- the +-1 step on the unit circle; BV but not Sobolev.
  Refused as an advecting field (discontinuous characteristic ODE).
* ``OscillatoryField(k)`` -- u(x) = sin(k x)/k on the 2*pi-periodic circle,
  with the closed-form flow obtained by separation of variables on each
  k-cell.
* ``PowerCuspField(alpha)`` -- sign-symmetric |x - x0|^alpha cusp, smoothly
  cut off away from the cusp; the gradient is in L^p exactly when
  p*(1 - alpha) < 1.
* ``SmoothShear2D`` -- a C-infty divergence-free planar shear with an exact
  flow.
* ``ConstantField`` -- uniform translation of the unit circle.

All fields are autonomous and share one interface (``VelocityField``).

Point forms.  ``scipy.integrate.quad`` calls its integrand once per node with
one Python float, and wrapping that float in an array to run 15-40 small
numpy operations costs far more than the arithmetic.  So the fields and the
modulus that feed a ``quad`` integral also have a point form that takes and
returns one float: ``PowerCuspField.derivative_at``,
``OscillatoryField.jacobian_point(t)`` and ``modulus_at``.
A point form must stay bit-identical to its array form: the same IEEE
operations in the same order, with exp, log, tan and power taken from the
numpy ufuncs (``math.exp`` and the scalar ``**`` round differently), every
square written ``t * t`` (what numpy does for ``** 2``), Python's ``round``
(half to even, like ``np.round``) and ``max(x, c)`` for ``np.maximum`` (both
keep a NaN ``x``).  A numpy call on one float costs about a microsecond, so
a point form does no per-node work with a fixed answer: it computes a value
that is constant over an integral once, when the integrand is built
(``exp(+-t)`` of the Jacobian), and skips the cutoff's terms where the
cutoff is exactly 1 or exactly 0 (and w' exactly -0.0).  The array forms
stay for grid evaluations; ``tests/test_point_forms.py`` holds the two to
``==``.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.optimize import minimize_scalar

from .measures import periodic_wrap

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# smooth cutoff machinery (the C-infty transition of the cusp)

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


def _bump_at(t: float) -> tuple[float, float]:
    """(_bump_f(t), _bump_fprime(t)) at one float, bit for bit."""
    if not t > 0:
        return 0.0, 0.0
    f = float(np.exp(-1.0 / t))
    tt = t * t
    return f, f / tt if tt else math.nan  # t*t underflows only where f is 0: 0/0


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


def _smoothstep_down_at(s: float, s0: float, s1: float) -> tuple[float, float]:
    """(smoothstep_down, smoothstep_down_prime) at one float, bit for bit."""
    t = (s - s0) / (s1 - s0)
    f1, d1 = _bump_at(1.0 - t)
    f2, d2 = _bump_at(t)
    total = f1 + f2
    return f1 / total, (-d1 * f2 - f1 * d2) / (total * total) / (s1 - s0)


# ---------------------------------------------------------------------------
# field families

class VelocityField:
    """The field interface.  ``field(t, pos)`` is the velocity at ``pos``, an
    array on the circle (1-d) or of shape (..., 2) on the torus, in the shape
    of ``pos``; an advected field also has ``divergence(t, pos)``.
    ``grad_norm_lp(p)``, where a field has it, is ||grad u||_{L^p} over one
    period; +inf where u is not W^{1,p}.  ``exact_flow(t, pos)`` is the
    closed-form flow, or None: it acts on unwrapped (real-line) coordinates
    and commutes with period shifts."""

    dim: int = 1
    length: float = 1.0
    advectable: bool = True
    name: str = "field"

    def exact_flow(self, t: float, pos: np.ndarray) -> np.ndarray | None:
        return None

    def derivative_at(self, x: float) -> float:
        """Point form of u' for a 1-d field (see the module docstring)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no point form: define derivative_at(x), which "
            "returns u'(x) for one float x bit-identical to the array derivative, "
            "to integrate its gradient with quad")

    def singular_points(self) -> list[float]:
        return []


def _abs_cos_lp_factor(p: float) -> float:
    # mean of |cos|^p over a period: Gamma((p+1)/2) / (sqrt(pi) Gamma(p/2+1))
    return math.gamma((p + 1) / 2.0) / (math.sqrt(math.pi) * math.gamma(p / 2.0 + 1.0))


class E1StepField(VelocityField):
    """+1 on [0, 1/2), -1 on [1/2, 1); BV seminorm 4 (two jumps of size 2)."""

    advectable = False
    name = "e1_step"

    def __call__(self, t, pos):
        x = np.mod(np.asarray(pos, dtype=float), 1.0)
        return np.where(x < 0.5, 1.0, -1.0)


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


class OscillatoryField(VelocityField):
    """u_k(x) = sin(k x)/k on the 2*pi circle; converges uniformly to 0."""

    def __init__(self, k: int):
        if k < 1 or k != int(k):
            raise ValueError("k must be a positive integer")
        self.k = int(k)
        self.length = TWO_PI
        self.name = f"oscillatory:{self.k}"

    def __call__(self, t, pos):
        return np.sin(self.k * np.asarray(pos, dtype=float)) / self.k

    def divergence(self, t, pos):
        return np.cos(self.k * np.asarray(pos, dtype=float))

    def grad_norm_lp(self, p):
        if p == math.inf:
            return 1.0
        return (TWO_PI * _abs_cos_lp_factor(p)) ** (1.0 / p)

    def exact_flow(self, t, pos):
        y, _ = _flow_unit_circle(t, self.k * np.asarray(pos, dtype=float))
        return y / self.k

    def exact_flow_jacobian(self, t, pos):
        _, jac = _flow_unit_circle(t, self.k * np.asarray(pos, dtype=float))
        return jac

    def jacobian_point(self, t: float) -> Callable[[float], float]:
        """exact_flow_jacobian(t, .) at one float x, bit for bit: the Jacobian
        half of _flow_unit_circle, whose exponent is +-t."""
        k, exp_t, exp_neg_t = self.k, float(np.exp(t)), float(np.exp(-t))

        def at(x: float) -> float:
            y = k * x
            m = math.floor(y / math.pi)
            z = y - m * math.pi
            lower = z <= math.pi / 2
            s = float(np.tan((z if lower else math.pi - z) / 2.0))
            e = exp_t if (m % 2 == 0) == lower else exp_neg_t
            se = s * e
            return e * (1.0 + s * s) / (1.0 + se * se)

        return at


class PowerCuspField(VelocityField):
    """Sign-symmetric |x - x0|^alpha cusp with a C-infty far cutoff.

    grad u is in L^p iff p*(1 - alpha) < 1, which makes the family the
    Sobolev-but-not-Lipschitz test bench.
    """

    cut0, cut1 = 0.2, 0.45  # the cutoff falls from 1 to 0 over cut0 <= |x - x0| <= cut1

    def __init__(self, alpha: float, x0: float = 0.5, amp: float = 0.4):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha, self.x0, self.amp = alpha, x0, amp
        self.name = f"power_cusp:{alpha:g}"
        self._grad_norms: dict[float, float] = {}  # by p; the field is never mutated

    @property
    def p_max(self) -> float:
        return 1.0 / (1.0 - self.alpha)

    def _xi(self, pos):
        return periodic_wrap(np.asarray(pos, dtype=float) - self.x0, self.length)

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

    def derivative_at(self, x: float) -> float:
        """derivative at one float x, bit for bit."""
        d = x - self.x0
        a = abs(d - self.length * round(d / self.length))
        if a >= self.cut1:  # w = 0.0 and w' = -0.0: core * 0.0 + a**alpha * -0.0
            return self.amp * 0.0
        core = math.inf if a == 0.0 else self.alpha * float(np.power(a, self.alpha - 1.0))
        if a <= self.cut0:  # w = 1.0 and w' = -0.0: core * 1.0 + a**alpha * -0.0
            return self.amp * core
        w, wp = _smoothstep_down_at(a, self.cut0, self.cut1)
        return self.amp * (core * w + float(np.power(a, self.alpha)) * wp)

    def divergence(self, t, pos):
        return self.derivative(pos)

    def singular_points(self):
        return [self.x0]

    def grad_norm_lp(self, p):
        if p >= self.p_max:
            return math.inf
        if p not in self._grad_norms:
            val, _ = integrate.quad(lambda x: abs(self.derivative_at(x)) ** p,
                                    0.0, 1.0, points=[self.x0], limit=400)
            self._grad_norms[p] = val ** (1.0 / p)
        return self._grad_norms[p]


class SmoothShear2D(VelocityField):
    """u(x, y) = (base + amp*sin(2*pi*y), 0); divergence free, exact flow."""

    dim = 2
    name = "shear2d"
    base, amp = 0.3, 0.2

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

    def exact_flow(self, t, pos):
        p = np.asarray(pos, dtype=float).copy()
        p[..., 0] = p[..., 0] + t * self._u1(p[..., 1])
        return p


class ConstantField(VelocityField):
    """u = c on the unit circle, given as ``[c]``."""

    def __init__(self, velocity):
        self.velocity = np.atleast_1d(np.asarray(velocity, dtype=float))
        if self.velocity.shape != (1,):
            raise ValueError(f"a constant field on the circle has one speed, e.g. [1.0]; "
                             f"got {velocity!r}")
        self.name = f"constant:{self.velocity[0]:g}"

    def __call__(self, t, pos):
        return np.full_like(np.asarray(pos, dtype=float), self.velocity[0])

    def divergence(self, t, pos):
        return np.zeros_like(np.asarray(pos, dtype=float))

    def grad_norm_lp(self, p):
        return 0.0

    def exact_flow(self, t, pos):
        return np.asarray(pos, dtype=float) + t * self.velocity[0]


# ---------------------------------------------------------------------------
# integrability modulus and the psi_1 rate

def modulus(xi):
    """The superlinear integrability modulus e(xi) = xi (1 + log+ xi), with
    e(xi)/xi nondecreasing and -> infinity, elementwise."""
    x = np.asarray(xi, dtype=float)
    return x * (1.0 + np.maximum(np.log(np.maximum(x, 1e-300)), 0.0))


def modulus_at(x: float) -> float:
    """``modulus`` at one float, bit for bit."""
    return x * (1.0 + max(float(np.log(max(x, 1e-300))), 0.0))


_PSI_LOG_GRID = np.linspace(math.log(1e-12), math.log(1e10), 3001)  # log M scanned by psi_one


def _psi_one_scan(L: float) -> np.ndarray:
    """M + M/e(M) * L at each M = exp(_PSI_LOG_GRID), with e applied once to
    the whole grid: bit for bit the objective psi_one minimizes."""
    ms = np.array([math.exp(g) for g in _PSI_LOG_GRID])
    return ms + ms / modulus(ms) * L


def psi_one(delta: float) -> float:
    """inf over M > 0 of  M + M/e(M) * (|log delta| + 1).

    Scanned on a log-spaced M grid and refined by golden-section around the
    best grid point (the objective is unimodal in log M).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    L = abs(math.log(delta)) + 1.0

    def obj(logm: float) -> float:
        m = math.exp(logm)
        return m + m / modulus_at(m) * L

    grid = _PSI_LOG_GRID
    vals = _psi_one_scan(L)
    i = int(np.argmin(vals))
    best = vals[i]
    if 0 < i < len(grid) - 1:
        res = minimize_scalar(obj, bracket=(grid[i - 1], grid[i], grid[i + 1]), method="golden",
                              options={"xtol": 1e-12})
        best = min(best, float(res.fun))
    return float(best)


def modulus_gradient_integral(field: VelocityField) -> float:
    """|| e(|grad u|) ||_{L^1} over one period of a 1-d field.

    The integrand is the point forms ``derivative_at`` and ``modulus_at``.
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
        return modulus_at(abs(field.derivative_at(x)))

    sing = sorted(s for s in field.singular_points() if 0.0 < s < field.length)
    edges = [0.0] + sing + [field.length]
    total = 0.0
    with warnings.catch_warnings():
        # e(xi) = xi(1+log+ xi) has a kink at xi = 1; quad resolves it far
        # beyond the fitted-constant accuracy but flags the slow convergence
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
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
