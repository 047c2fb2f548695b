"""Independent references for the lab's integrals: adaptive quadrature split
at every kink of the integrand, and a dense scan for psi_1.  Shared by
test_integrals.py and test_point_forms.py."""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from krlab.fields import modulus, smoothstep_down, smoothstep_down_prime


def profile_derivative(f, a):
    """u' at the distance a from the cusp, from the family's definition."""
    return f.amp * (f.alpha * a ** (f.alpha - 1.0) * smoothstep_down(a, f.cut0, f.cut1)
                    + a**f.alpha * smoothstep_down_prime(a, f.cut0, f.cut1))


def tight_quad(g, lo, hi):
    return quad(g, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]


def crossings(h, lo, hi, levels, n=4001):
    """The points of [lo, hi] where the elementwise h crosses each level,
    bracketed on an n-point grid and solved by brentq."""
    grid = np.linspace(lo, hi, n)
    values = h(grid)
    roots = []
    for level in levels:
        for j in np.flatnonzero((values[:-1] - level) * (values[1:] - level) < 0):
            roots.append(brentq(lambda x: float(h(np.array([x]))[0]) - level, grid[j],
                                grid[j + 1], xtol=1e-16))
    return roots


def split_quad(f, g, slope=None):
    """The integral of g(|u'|) over one period of the cusp f: twice the
    integral over a = |x - x0| in [0, cut1].  ``slope(a)`` gives u' at one
    float distance a (the family's definition by default).  On [0, cut0] it
    substitutes a = v^(1/alpha), where |u'| da = amp dv, and splits at
    |u'| = 1; on the band it splits wherever u' is -1, 0 or 1."""
    if slope is None:
        slope = lambda a: profile_derivative(f, a)  # noqa: E731
    m = 1.0 / f.alpha
    u1 = (f.amp * f.alpha) ** (1.0 / (1.0 - f.alpha) / m)  # |u'| = 1 at a = u1^m
    core = lambda v: g(abs(slope(v**m))) * m * v ** (m - 1.0)  # noqa: E731
    edges = sorted({0.0, min(u1, f.cut0 ** (1.0 / m)), f.cut0 ** (1.0 / m)})
    total = sum(tight_quad(core, lo, hi) for lo, hi in zip(edges, edges[1:]))
    cuts = sorted([f.cut0, f.cut1] + crossings(lambda a: profile_derivative(f, a), f.cut0,
                                               f.cut1, (-1.0, 0.0, 1.0)))
    band = lambda a: g(abs(slope(a)))  # noqa: E731
    total += sum(tight_quad(band, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    return 2.0 * total


def oscillatory_split_quad(field, T, jacobian_at):
    """||J(-T, .) - 1||_{L^1} over [0, 2 pi], ``jacobian_at(y)`` J at one
    float y, split at the cell edges m pi/k and wherever J crosses 1."""
    k = field.k
    cuts = [m * math.pi / k for m in range(2 * k + 1)]
    cuts += crossings(lambda y: field.exact_flow_jacobian(-T, y), 0.0, 2.0 * math.pi, (1.0,),
                      n=400 * k + 1)
    cuts.sort()
    return sum(tight_quad(lambda y: abs(jacobian_at(y) - 1.0), lo, hi)
               for lo, hi in zip(cuts, cuts[1:]))


def dense_psi_scan(delta, e=modulus):
    """min over a log M grid of M + M/e(M) L, refined around its best point;
    log M = -40 stands for the infimum L of the M < 1 branch."""
    L = abs(math.log(delta)) + 1.0

    def objective(log_m):
        m = np.exp(log_m)
        return m + m / e(m) * L

    grid = np.linspace(-40.0, 30.0, 200_001)
    i = int(np.argmin(objective(grid)))
    fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], 200_001)
    return min(objective(grid).min(), objective(fine).min())
