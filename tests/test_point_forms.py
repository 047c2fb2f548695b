"""Point forms (one float in, one float out) against their array forms, and
the quad integrals built on them against the integrands they replaced.

Every comparison is bit for bit: a point form that rounds differently from
its array form moves verdict bytes."""

import math
import warnings

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import minimize_scalar

from krlab.experiments import _oscillatory_l1
from krlab.fields import (ConstantField, IntegrabilityModulus, OscillatoryField, PowerCuspField,
                          _bump_at, _bump_f, _bump_fprime, _psi_one_scan, _smoothstep_down_at,
                          default_modulus, modulus_gradient_integral, psi_one, smoothstep_down,
                          smoothstep_down_prime)

TWO_PI = 2.0 * math.pi

STRONGER_MODULUS = IntegrabilityModulus(
    "xi*(1+log+xi)^2",
    lambda x: np.asarray(x) * (1 + np.maximum(np.log(np.maximum(np.asarray(x), 1e-300)), 0)) ** 2)


# ---------------------------------------------------------------------------
# the integrands and the scan used before the point forms: the oracles

def _old_oscillatory_l1(k, T):
    field = OscillatoryField(k)
    breaks = [m * math.pi / k for m in range(2 * k + 1)]
    val, _ = quad(lambda y: abs(float(field.exact_flow_jacobian(-T, np.array([y]))[0]) - 1.0),
                  0.0, TWO_PI, points=breaks[1:-1], limit=800, epsabs=1e-11, epsrel=1e-11)
    return val


def _old_grad_norm_lp(field, p, as_array=False):
    """as_array passes each node as a 1-element array instead of a float, so
    the powers inside ``derivative`` run in numpy's array loop and not in
    its scalar ``**`` (C pow), which rounds differently on some nodes."""
    def f(x):
        d = field.derivative(np.array([x]))[0] if as_array else field.derivative(x)
        return float(np.abs(d)) ** p

    val, _ = quad(f, 0.0, 1.0, points=[field.x0], limit=400)
    return val ** (1.0 / p)


def _old_modulus_gradient_integral(field, modulus):
    return _dyadic_quad(lambda x: float(modulus.fn(float(np.abs(field.derivative(x))))), field)


def _dyadic_quad(f, field):
    """modulus_gradient_integral's subdivision and summation, with integrand f."""
    sing = sorted(s for s in field.singular_points() if 0.0 < s < field.length)
    edges = [0.0] + sing + [field.length]
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            pts = [a + (b - a) * 2.0**-j for j in range(60, 0, -1)]
            pts += [b - (b - a) * 2.0**-j for j in range(1, 61)]
            pts = [a] + [x for x in pts if a < x < b] + [b]
            for lo, hi in zip(pts[:-1], pts[1:]):
                if hi - lo <= 0:
                    continue
                val, _ = quad(f, lo, hi, limit=200)
                total += val
    return total


def _old_psi_one_obj(modulus, L, logm):
    m = math.exp(logm)
    return m + m / float(modulus.fn(m)) * L


def _old_psi_one_scan(modulus, L):
    grid = np.linspace(math.log(1e-12), math.log(1e10), 3001)
    return np.array([_old_psi_one_obj(modulus, L, g) for g in grid])


def _old_psi_one(modulus, delta):
    L = abs(math.log(delta)) + 1.0

    def obj(logm):
        return _old_psi_one_obj(modulus, L, logm)

    grid = np.linspace(math.log(1e-12), math.log(1e10), 3001)
    vals = _old_psi_one_scan(modulus, L)
    i = int(np.argmin(vals))
    best = vals[i]
    if 0 < i < len(grid) - 1:
        res = minimize_scalar(obj, bracket=(grid[i - 1], grid[i], grid[i + 1]), method="golden",
                              options={"xtol": 1e-12})
        best = min(best, float(res.fun))
    return float(best)


# ---------------------------------------------------------------------------
# the point forms that did all their work at every node, and the integrals
# on them: the oracles of the per-integral constants and the cutoff shortcuts

def _full_derivative_at(f, x):
    """PowerCuspField.derivative_at with the cutoff evaluated at every node."""
    d = x - f.x0
    a = abs(d - f.length * round(d / f.length))
    w, wp = _smoothstep_down_at(a, f.cut0, f.cut1)
    core = math.inf if a == 0.0 else f.alpha * float(np.power(a, f.alpha - 1.0))
    return f.amp * (core * w + float(np.power(a, f.alpha)) * wp)


def _per_node_jacobian_at(field, t, x):
    """OscillatoryField's Jacobian point form with exp(+-t) taken at every node."""
    y = field.k * x
    m = math.floor(y / math.pi)
    z = y - m * math.pi
    tau = t if m % 2 == 0 else -t
    lower = z <= math.pi / 2
    s = float(np.tan((z if lower else math.pi - z) / 2.0))
    e = float(np.exp(tau if lower else -tau))
    se = s * e
    return e * (1.0 + s * s) / (1.0 + se * se)


def _per_node_oscillatory_l1(k, T):
    field = OscillatoryField(k)
    breaks = [m * math.pi / k for m in range(2 * k + 1)]
    val, _ = quad(lambda y: abs(_per_node_jacobian_at(field, -T, y) - 1.0), 0.0, TWO_PI,
                  points=breaks[1:-1], limit=800, epsabs=1e-11, epsrel=1e-11)
    return val


def _per_node_grad_norm_lp(f, p):
    val, _ = quad(lambda x: abs(_full_derivative_at(f, x)) ** p, 0.0, 1.0, points=[f.x0],
                  limit=400)
    return val ** (1.0 / p)


def _per_node_modulus_gradient_integral(field, modulus):
    return _dyadic_quad(lambda x: float(modulus.fn(abs(_full_derivative_at(field, x)))), field)


# ---------------------------------------------------------------------------
# point forms against array forms on dense point sets

def _same_bits(got, expected):
    """Bit-identical, with any NaN matching any NaN."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    nan = np.isnan(expected)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64)))


def _at_points(fn, xs):
    """fn at each entry of xs, passed as the Python float quad passes."""
    out = [fn(x) for x in np.asarray(xs, dtype=float).tolist()]
    assert all(type(v) is float for v in out)
    return out


def _with_neighbors(points):
    pts = np.asarray(points, dtype=float)
    return np.concatenate([pts, np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf)])


def test_bump_point_form_is_bit_identical():
    ts = np.concatenate([np.linspace(-1.0, 2.0, 30001), np.logspace(-300, 0, 2000),
                         _with_neighbors([0.0, 1.0, 0.5, 1e-3])])
    f, fp = zip(*(_bump_at(t) for t in ts.tolist()))
    with np.errstate(all="ignore"):  # t**2 underflows and -1/t overflows near 0
        assert _same_bits(f, _bump_f(ts))
        assert _same_bits(fp, _bump_fprime(ts))


@pytest.mark.parametrize("s0, s1", [(0.2, 0.45), (0.1, 0.3)])
def test_smoothstep_point_form_is_bit_identical(s0, s1):
    ss = np.concatenate([np.linspace(-0.1, 0.6, 20001), _with_neighbors([s0, s1])])
    w, wp = zip(*(_smoothstep_down_at(s, s0, s1) for s in ss.tolist()))
    assert _same_bits(w, smoothstep_down(ss, s0, s1))
    assert _same_bits(wp, smoothstep_down_prime(ss, s0, s1))


def _cusp_points(f):
    offs = np.concatenate([np.logspace(-17, math.log10(0.5), 400),
                           [f.cut0, f.cut1, 0.5, 1.0, 1.5]])
    edges = _with_neighbors(np.concatenate([[f.x0, 0.0, f.length], f.x0 - offs, f.x0 + offs]))
    return np.concatenate([edges, np.linspace(-0.25, 1.25, 20001)])


# at x0 = 0 the distance a is x itself, so a = cut0 and a = cut1, where the
# cutoff becomes exactly 1 and exactly 0, are hit exactly; amp < 0 gives -0.0
@pytest.mark.parametrize("alpha, x0", [(0.6, 0.31), (0.25, 0.31), (0.5, 0.5), (0.9, 0.0)])
def test_cusp_derivative_point_form_is_bit_identical(alpha, x0):
    for amp in (0.4, -0.4):
        f = PowerCuspField(alpha, x0=x0, amp=amp)
        xs = _cusp_points(f)
        with np.errstate(divide="ignore"):
            expected = f.derivative(xs)
        got = _at_points(f.derivative_at, xs)
        assert _same_bits(got, expected), amp
        assert _same_bits(got, [_full_derivative_at(f, x) for x in xs.tolist()]), amp


def _oscillatory_points(k):
    cells = np.arange(-2 * k, 4 * k + 1) * math.pi / k
    edges = _with_neighbors(np.concatenate([cells, cells + 0.5 * math.pi / k, [0.0, TWO_PI]]))
    return np.concatenate([edges, np.linspace(-TWO_PI, 2 * TWO_PI, 6001)])


def test_cusp_cutoff_must_have_width():
    for cut0, cut1 in [(0.3, 0.3), (0.45, 0.2), (-0.1, 0.45), (math.nan, 0.45)]:
        with pytest.raises(ValueError, match="0 <= cut0 < cut1"):
            PowerCuspField(0.6, cut0=cut0, cut1=cut1)


MODULUS_POINTS = np.concatenate([np.logspace(-320, 300, 20001),
                                 _with_neighbors([1e-300, 1.0, math.e]),
                                 [0.0, -0.0, math.inf, math.nan]])


def test_modulus_point_form_is_bit_identical():
    modulus = default_modulus()
    with np.errstate(over="ignore"):
        expected = modulus.fn(MODULUS_POINTS)
    assert _same_bits(_at_points(modulus.at, MODULUS_POINTS), expected)


def test_modulus_without_a_point_form_calls_fn_on_each_float():
    xs = MODULUS_POINTS.tolist()
    with np.errstate(over="ignore"):
        expected = [float(STRONGER_MODULUS.fn(x)) for x in xs]
    assert _same_bits(_at_points(STRONGER_MODULUS.at, xs), expected)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_oscillatory_jacobian_point_form_is_bit_identical(k):
    field = OscillatoryField(k)
    xs = _oscillatory_points(k)
    for t in np.linspace(-2.0, 2.0, 21).tolist() + [1.0, -1.0, 0.5, -0.5, 0.0, -0.0]:
        got = _at_points(field.jacobian_point(t), xs)
        assert _same_bits(got, field.exact_flow_jacobian(t, xs)), t
        assert _same_bits(got, [_per_node_jacobian_at(field, t, x) for x in xs.tolist()]), t


# ---------------------------------------------------------------------------
# the integrals against the old integrands

@pytest.mark.parametrize("k", [1, 4, 16])
def test_oscillatory_l1_matches_the_array_integrand(k):
    assert _oscillatory_l1(k, 1.0) == _old_oscillatory_l1(k, 1.0)


def test_oscillatory_l1_matches_the_array_integrand_at_another_horizon():
    assert _oscillatory_l1(4, 0.37) == _old_oscillatory_l1(4, 0.37)


def test_grad_norm_lp_matches_the_old_integrand_at_the_prop1_cusp():
    f = PowerCuspField(0.6, x0=0.31, amp=0.4)
    assert f.grad_norm_lp(2.0) == _old_grad_norm_lp(f, 2.0)


def test_old_integrand_took_powers_through_the_scalar_path():
    """Why the float-fed old integrands are oracles only at the cusps the
    experiments integrate: on a 0-d input ``derivative`` took its powers
    through numpy's scalar ``**``, one ulp off the array loop at this node
    where numpy runs its AVX-512 (X86_V4) power loop; without it the two
    agree here.  The integrals there still agree to the bit; grad_norm_lp at
    p = 1.5 or 1.2 moves in the last digit."""
    f = PowerCuspField(0.6, x0=0.31, amp=0.4)
    x = 0.38561788432768623
    assert f.derivative_at(x) == f.derivative(np.array([x]))[0]
    if __cpu_features__.get("X86_V4"):
        assert f.derivative_at(x) != f.derivative(x)


@pytest.mark.parametrize("alpha, p", [(0.6, 2.0), (0.6, 1.5), (0.25, 1.2)])
def test_grad_norm_lp_matches_the_array_integrand(alpha, p):
    f = PowerCuspField(alpha, x0=0.31, amp=0.4)
    assert f.grad_norm_lp(p) == _old_grad_norm_lp(f, p, as_array=True)


@pytest.mark.parametrize("alpha, x0", [(0.25, 0.31), (0.6, 0.5)])
def test_modulus_gradient_integral_matches_the_old_integrand(alpha, x0):
    f = PowerCuspField(alpha, x0=x0, amp=0.4)
    mod = default_modulus()
    assert modulus_gradient_integral(f, mod) == _old_modulus_gradient_integral(f, mod)


@pytest.mark.parametrize("k, T", [(1, 1.0), (4, 1.0), (16, 1.0), (4, 0.37)])
def test_oscillatory_l1_matches_the_per_node_integrand(k, T):
    assert _oscillatory_l1(k, T) == _per_node_oscillatory_l1(k, T)


@pytest.mark.parametrize("alpha, x0, p", [(0.6, 0.31, 2.0), (0.6, 0.31, 1.5), (0.25, 0.31, 1.2),
                                          (0.6, 0.0, 2.0)])
def test_grad_norm_lp_matches_the_per_node_integrand(alpha, x0, p):
    f = PowerCuspField(alpha, x0=x0, amp=0.4)
    assert f.grad_norm_lp(p) == _per_node_grad_norm_lp(f, p)


@pytest.mark.parametrize("modulus", [default_modulus(), STRONGER_MODULUS],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("alpha, x0", [(0.25, 0.31), (0.6, 0.31), (0.6, 0.0)])
def test_modulus_gradient_integral_matches_the_per_node_integrand(alpha, x0, modulus):
    f = PowerCuspField(alpha, x0=x0, amp=0.4)
    assert modulus_gradient_integral(f, modulus) == _per_node_modulus_gradient_integral(f, modulus)


@pytest.mark.parametrize("modulus", [default_modulus(), STRONGER_MODULUS],
                         ids=lambda m: m.name)
def test_psi_one_matches_the_pointwise_scan(modulus):
    for delta in (0.9, 0.5, 1e-1, 1e-2, 1e-4, 1e-8, 1e-12):
        assert psi_one(modulus, delta) == _old_psi_one(modulus, delta), delta


@pytest.mark.parametrize("modulus", [default_modulus(), STRONGER_MODULUS],
                         ids=lambda m: m.name)
def test_psi_one_scan_is_bit_identical_to_the_pointwise_scan(modulus):
    for delta in (0.9, 1e-2, 1e-8):
        L = abs(math.log(delta)) + 1.0
        assert _same_bits(_psi_one_scan(modulus, L), _old_psi_one_scan(modulus, L))


def test_field_without_a_point_form_names_the_fix():
    with pytest.raises(NotImplementedError, match="derivative_at"):
        modulus_gradient_integral(ConstantField([1.0]), default_modulus())
