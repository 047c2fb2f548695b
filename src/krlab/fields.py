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

Integrals over a period are a closed form where one exists, else a fixed
64-point Gauss-Legendre rule (``gauss_legendre``) on the array forms, over
pieces split at every kink of the integrand.  The cusp's integrals
(``PowerCuspField.grad_norm_lp`` and ``.modulus_integral``) are twice a
closed core on |x - x0| <= ``cut0``, where u' = amp*alpha*|x - x0|^(alpha-1),
plus the rule on the cutoff band ``cut0`` <= |x - x0| <= ``cut1``, split
where u' is -1, 0 or 1 (the kinks of |u'| and of e); beyond ``cut1`` u' = 0.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .measures import periodic_wrap

TWO_PI = 2.0 * math.pi


@functools.cache
def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1]: Newton on
    the Legendre recurrence from Tricomi's guesses.  Built at first use, not
    at import, and not by ``leggauss``, whose LAPACK eigensolve maps about
    1 MiB more: a run that integrates nothing pages in none of it."""
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(4):  # quadratic convergence from guesses within 1e-3
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        one = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one  # P_n'(x)
        x = x - p1 / dp
    return x, 2.0 / (one * dp * dp)


def gauss_legendre(g, edges) -> float:
    """The integral of ``g``, an elementwise array function, from
    ``edges[0]`` to ``edges[-1]``: the fixed rule on each piece between
    consecutive edges, one call of ``g`` on every node."""
    nodes, weights = gauss_legendre_rule(64)
    edges = np.asarray(edges, dtype=float)
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return float((g(lo + half * (nodes + 1.0)) * weights * half).sum())


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

    def component(self, t: float, pos: np.ndarray, axis: int) -> np.ndarray:
        """The velocity's ``axis`` component at ``pos`` (shape (..., 2)), as
        ``field(t, pos)[..., axis]``; a field may give it without computing
        the other."""
        return np.asarray(self(t, pos))[..., axis]


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


class PowerCuspField(VelocityField):
    """Sign-symmetric |x - x0|^alpha cusp with a C-infty far cutoff.

    grad u is in L^p iff p*(1 - alpha) < 1, which makes the family the
    Sobolev-but-not-Lipschitz test bench.
    """

    cut0, cut1 = 0.2, 0.45  # the cutoff falls from 1 to 0 over cut0 <= |x - x0| <= cut1

    def __init__(self, alpha: float, x0: float = 0.5, amp: float = 0.4):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        # amp 0 has no core slope to take the log of, in modulus_integral
        if not (math.isfinite(amp) and amp != 0.0):
            raise ValueError(f"amp must be finite and nonzero, got {amp}")
        if not math.isfinite(x0):
            raise ValueError(f"x0 must be finite, got {x0}")
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
        return self._slope(np.abs(self._xi(pos)))

    def _slope(self, a):
        """u' at the distance ``a`` from the cusp (u' is even about x0)."""
        w = smoothstep_down(a, self.cut0, self.cut1)
        wp = smoothstep_down_prime(a, self.cut0, self.cut1)
        with np.errstate(divide="ignore"):
            core = self.alpha * a ** (self.alpha - 1.0)
        return self.amp * (core * w + a**self.alpha * wp)

    def divergence(self, t, pos):
        return self.derivative(pos)

    def _band_integral(self, g) -> float:
        """The integral of g(u') over the cutoff band cut0 <= a <= cut1: the
        fixed rule on the pieces between the points where u' is -1, 0 or 1,
        each bracketed on a grid of the band and bisected to roundoff."""
        levels = np.array([[-1.0], [0.0], [1.0]])
        grid = np.linspace(self.cut0, self.cut1, 257)
        f = self._slope(grid) - levels
        i, j = np.nonzero(f[:, :-1] * f[:, 1:] < 0)
        lo, hi, level, sign = grid[j], grid[j + 1], levels[i, 0], np.sign(f[i, j])
        for _ in range(40):  # the grid step 2^-10 halved to below 1e-15
            mid = 0.5 * (lo + hi)
            right = np.sign(self._slope(mid) - level) == sign
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
        edges = np.sort(np.r_[self.cut0, 0.5 * (lo + hi), self.cut1])
        return gauss_legendre(lambda a: g(self._slope(a)), edges)

    def grad_norm_lp(self, p):
        if p >= self.p_max:
            return math.inf
        if p not in self._grad_norms:
            c, k = abs(self.amp) * self.alpha, p * (self.alpha - 1.0) + 1.0
            core = c**p * self.cut0**k / k  # of |u'|^p = (c a^(alpha-1))^p over [0, cut0]
            band = self._band_integral(lambda d: np.abs(d) ** p)
            self._grad_norms[p] = (2.0 * (core + band)) ** (1.0 / p)
        return self._grad_norms[p]

    def modulus_integral(self) -> float:
        """|| e(|u'|) ||_{L^1} over one period; it does not depend on x0."""
        c, al = abs(self.amp) * self.alpha, self.alpha
        top = min(c ** (1.0 / (1.0 - al)), self.cut0)  # |u'| >= 1 on a <= top
        # of e(|u'|) over [0, cut0]: |u'| everywhere, and |u'| log|u'| on
        # [0, top], where int_0^A a^(al-1) log a da = A^al (log A / al - 1/al^2)
        core = c * self.cut0**al / al + c * top**al * (
            math.log(c) / al + (al - 1.0) * (math.log(top) / al - 1.0 / al**2))
        return 2.0 * (core + self._band_integral(lambda d: modulus(np.abs(d))))


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

    def component(self, t, pos, axis):
        p = np.asarray(pos, dtype=float)
        return self._u1(p[..., 1]) if axis == 0 else np.zeros(p.shape[:-1])

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


def psi_one(delta: float) -> float:
    """inf over M > 0 of  M + M/e(M) * L, with L = |log delta| + 1.

    For M < 1 the objective is M + L, whose infimum is L.  For M >= 1, with
    s = 1 + log M, it is e^(s-1) + L/s, least where log s + s/2 = (1 + log L)/2
    (a Lambert W equation), so psi_1 = min(L, e^(s-1) + L/s); a root s < 1
    gives e^(s-1) + L/s > L.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    L = abs(math.log(delta)) + 1.0
    b = 0.5 * (1.0 + math.log(L))
    # Newton on the concave increasing log s + s/2 - b rises monotonically
    # to its root from s = 1, where it is <= 0 (L >= 1)
    s = 1.0
    while True:
        nxt = s + (b - math.log(s) - 0.5 * s) / (1.0 / s + 0.5)
        if not nxt > s:
            return min(L, math.exp(s - 1.0) + L / s)
        s = nxt
