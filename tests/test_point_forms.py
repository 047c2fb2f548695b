"""Point forms (one float in, one float out, scalar code) against the array
forms, and the integrals built on the array forms against kink-split
quadrature of the integrands written out per node.

The point forms live here as oracles of the array forms, which compute the
integrals: a Python transcription of each definition that must agree with
the array form bit for bit.  The integral references are adaptive
quadrature of the same integrand (``reference_integrals``); they agree with
the fixed rule to the rule's accuracy, not to the bit."""

import math

import numpy as np
import pytest
from reference_integrals import dense_psi_scan, oscillatory_split_quad, split_quad

from krlab.experiments import _oscillatory_l1
from krlab.fields import (OscillatoryField, PowerCuspField, _bump_f, _bump_fprime, modulus,
                          psi_one, smoothstep_down, smoothstep_down_prime)

TWO_PI = 2.0 * math.pi

# the references below evaluate the array form of the modulus on each float;
# the cases that use it name it in their ids
ARRAY_MODULUS = [pytest.param(modulus, id="xi*(1+log+xi)")]


# ---------------------------------------------------------------------------
# the point forms: exp, log, tan and power from the numpy ufuncs (math.exp
# and the scalar ** round differently), every square written t * t

def _bump_at(t):
    """(_bump_f(t), _bump_fprime(t)) at one float."""
    if not t > 0:
        return 0.0, 0.0
    f = float(np.exp(-1.0 / t))
    tt = t * t
    return f, f / tt if tt else math.nan  # t*t underflows only where f is 0: 0/0


def _smoothstep_down_at(s, s0, s1):
    """(smoothstep_down, smoothstep_down_prime) at one float."""
    t = (s - s0) / (s1 - s0)
    f1, d1 = _bump_at(1.0 - t)
    f2, d2 = _bump_at(t)
    total = f1 + f2
    return f1 / total, (-d1 * f2 - f1 * d2) / (total * total) / (s1 - s0)


def _slope_at(f, a):
    """The cusp's u' at the float distance a from x0, the cutoff at every a."""
    w, wp = _smoothstep_down_at(a, f.cut0, f.cut1)
    core = math.inf if a == 0.0 else f.alpha * float(np.power(a, f.alpha - 1.0))
    return f.amp * (core * w + float(np.power(a, f.alpha)) * wp)


def _derivative_at(f, x):
    """The cusp's u' at one float x (Python's round is half to even, like np.round)."""
    d = x - f.x0
    return _slope_at(f, abs(d - f.length * round(d / f.length)))


def _jacobian_at(field, t, x):
    """OscillatoryField.exact_flow_jacobian(t, .) at one float x."""
    y = field.k * x
    m = math.floor(y / math.pi)
    z = y - m * math.pi
    tau = t if m % 2 == 0 else -t
    lower = z <= math.pi / 2
    s = float(np.tan((z if lower else math.pi - z) / 2.0))
    e = float(np.exp(tau if lower else -tau))
    se = s * e
    return e * (1.0 + s * s) / (1.0 + se * se)


def _modulus_at(x):
    """``modulus`` at one float (max(x, c) keeps a NaN x, like np.maximum)."""
    return x * (1.0 + max(float(np.log(max(x, 1e-300))), 0.0))


# ---------------------------------------------------------------------------
# point forms against array forms on dense point sets

def _same_bits(got, expected):
    """Bit-identical, with any NaN matching any NaN."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    nan = np.isnan(expected)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64)))


def _at_points(fn, xs):
    """fn at each entry of xs, passed as a Python float."""
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
        assert _same_bits(_at_points(lambda x: _derivative_at(f, x), xs), expected), amp


def _oscillatory_points(k):
    cells = np.arange(-2 * k, 4 * k + 1) * math.pi / k
    edges = _with_neighbors(np.concatenate([cells, cells + 0.5 * math.pi / k, [0.0, TWO_PI]]))
    return np.concatenate([edges, np.linspace(-TWO_PI, 2 * TWO_PI, 6001)])


MODULUS_POINTS = np.concatenate([np.logspace(-320, 300, 20001),
                                 _with_neighbors([1e-300, 1.0, math.e]),
                                 [0.0, -0.0, math.inf, math.nan]])


def test_modulus_point_form_is_bit_identical():
    with np.errstate(over="ignore"):
        expected = modulus(MODULUS_POINTS)
    assert _same_bits(_at_points(_modulus_at, MODULUS_POINTS), expected)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_oscillatory_jacobian_point_form_is_bit_identical(k):
    field = OscillatoryField(k)
    xs = _oscillatory_points(k)
    for t in np.linspace(-2.0, 2.0, 21).tolist() + [1.0, -1.0, 0.5, -0.5, 0.0, -0.0]:
        got = _at_points(lambda x: _jacobian_at(field, t, x), xs)
        assert _same_bits(got, field.exact_flow_jacobian(t, xs)), t


# ---------------------------------------------------------------------------
# the integrals against kink-split quadrature of the integrand evaluated one
# float at a time: through the array form ("array integrand"), the array
# form on a float ("old integrand") or the point forms ("per node").  The
# cusp's integrals do not depend on x0, so the references integrate over the
# distance a from the cusp, where floats near the cusp keep their precision.

# at an even p, |u'|^p is smooth across the zero of u'; elsewhere it has an
# (a - r)^p end there, on which the fixed rule converges algebraically
def _lp_rel(p):
    return 1e-12 if p % 2 == 0 else 1e-9


def _array_slope(f):
    """u' at one float distance a, through the array derivative of f's twin
    with the cusp at 0 (where x = a exactly)."""
    twin = PowerCuspField(f.alpha, x0=0.0, amp=f.amp)
    return lambda a: float(twin.derivative(np.array([a]))[0])


def _lp_reference(f, p, slope):
    return split_quad(f, lambda xi: xi**p, slope) ** (1.0 / p)


def _osc_reference(k, T, jacobian_at):
    return oscillatory_split_quad(OscillatoryField(k), T, jacobian_at)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_oscillatory_l1_matches_the_array_integrand(k):
    field = OscillatoryField(k)
    ref = _osc_reference(k, 1.0, lambda y: float(field.exact_flow_jacobian(-1.0, np.array([y]))[0]))
    assert _oscillatory_l1(k, 1.0) == pytest.approx(ref, rel=0.0, abs=1e-13)


def test_oscillatory_l1_matches_the_array_integrand_at_another_horizon():
    field = OscillatoryField(4)
    ref = _osc_reference(4, 0.37,
                         lambda y: float(field.exact_flow_jacobian(-0.37, np.array([y]))[0]))
    assert _oscillatory_l1(4, 0.37) == pytest.approx(ref, rel=0.0, abs=1e-13)


def test_grad_norm_lp_matches_the_old_integrand_at_the_prop1_cusp():
    f = PowerCuspField(0.6, x0=0.31, amp=0.4)
    twin = PowerCuspField(f.alpha, x0=0.0, amp=f.amp)
    ref = _lp_reference(f, 2.0, lambda a: float(twin.derivative(a)))
    assert f.grad_norm_lp(2.0) == pytest.approx(ref, rel=_lp_rel(2.0), abs=0.0)


@pytest.mark.parametrize("alpha, p", [(0.6, 2.0), (0.6, 1.5), (0.25, 1.2)])
def test_grad_norm_lp_matches_the_array_integrand(alpha, p):
    f = PowerCuspField(alpha, x0=0.31, amp=0.4)
    ref = _lp_reference(f, p, _array_slope(f))
    assert f.grad_norm_lp(p) == pytest.approx(ref, rel=_lp_rel(p), abs=0.0)


@pytest.mark.parametrize("alpha, x0", [(0.25, 0.31), (0.6, 0.5)])
def test_modulus_gradient_integral_matches_the_old_integrand(alpha, x0):
    f = PowerCuspField(alpha, x0=x0, amp=0.4)
    slope = _array_slope(f)
    ref = split_quad(f, lambda xi: float(modulus(xi)), slope)
    assert f.modulus_integral() == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k, T", [(1, 1.0), (4, 1.0), (16, 1.0), (4, 0.37)])
def test_oscillatory_l1_matches_the_per_node_integrand(k, T):
    field = OscillatoryField(k)
    ref = _osc_reference(k, T, lambda y: _jacobian_at(field, -T, y))
    assert _oscillatory_l1(k, T) == pytest.approx(ref, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("alpha, x0, p", [(0.6, 0.31, 2.0), (0.6, 0.31, 1.5), (0.25, 0.31, 1.2),
                                          (0.6, 0.0, 2.0)])
def test_grad_norm_lp_matches_the_per_node_integrand(alpha, x0, p):
    f = PowerCuspField(alpha, x0=x0, amp=0.4)
    ref = _lp_reference(f, p, lambda a: _slope_at(f, a))
    assert f.grad_norm_lp(p) == pytest.approx(ref, rel=_lp_rel(p), abs=0.0)


@pytest.mark.parametrize("e", ARRAY_MODULUS)
@pytest.mark.parametrize("alpha, x0", [(0.25, 0.31), (0.6, 0.31), (0.6, 0.0)])
def test_modulus_gradient_integral_matches_the_per_node_integrand(alpha, x0, e):
    f = PowerCuspField(alpha, x0=x0, amp=0.4)
    ref = split_quad(f, lambda xi: float(e(xi)), lambda a: _slope_at(f, a))
    assert f.modulus_integral() == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("e", ARRAY_MODULUS)
def test_psi_one_matches_the_pointwise_scan(e):
    for delta in (0.9, 0.5, 1e-1, 1e-2, 1e-4, 1e-8, 1e-12):
        assert psi_one(delta) == pytest.approx(dense_psi_scan(delta, e), rel=1e-14, abs=0.0), delta
