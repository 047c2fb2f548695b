import math

import numpy as np
import pytest

from krlab.cost import (CostKind, CostSpec, bounded_log, cost_derivative, cost_eval, cost_sup,
                        truncated_linear)

SPEC = bounded_log(delta=0.1, radius=1.0)


def test_zero_and_branch_values():
    assert cost_eval(SPEC, 0.0) == 0.0
    # value at z = R, the branch point
    assert cost_eval(SPEC, 1.0) == pytest.approx(math.log(11.0), rel=1e-15)
    # z -> infinity approaches the sup bound log(11) + 10/11
    assert cost_eval(SPEC, 1e12) == pytest.approx(math.log(11.0) + 10.0 / 11.0, rel=1e-9)
    assert cost_sup(SPEC) == pytest.approx(math.log(11.0) + 10.0 / 11.0, rel=1e-15)


def test_truncated_linear():
    spec = truncated_linear(1.0)
    assert cost_eval(spec, 2.0) == 1.0
    assert cost_eval(spec, 0.25) == 0.25
    assert cost_sup(spec) == 1.0


def test_derivative_values():
    assert cost_derivative(SPEC, 0.0) == pytest.approx(10.0)
    # both branches agree at z = R
    assert cost_derivative(SPEC, 1.0) == pytest.approx(1.0 / 1.1, rel=1e-15)
    assert cost_derivative(SPEC, 1.0 - 1e-12) == pytest.approx(1.0 / 1.1, rel=1e-9)
    # outer branch: (R^2/(R+delta)) z^-2, cross-checked by central differences
    assert cost_derivative(SPEC, 2.0) == pytest.approx((1.0 / 1.1) * 0.25, rel=1e-15)
    h = 1e-6
    fd = (cost_eval(SPEC, 2.0 + h) - cost_eval(SPEC, 2.0 - h)) / (2 * h)
    assert cost_derivative(SPEC, 2.0) == pytest.approx(fd, rel=1e-8)


def test_derivative_only_for_bounded_log():
    with pytest.raises(ValueError):
        cost_derivative(truncated_linear(1.0), 0.5)


def test_c1_matching_at_radius():
    # continuity across the branch point
    assert abs(cost_eval(SPEC, 1.0 - 1e-15) - cost_eval(SPEC, 1.0 + 1e-15)) < 1e-12
    # one-sided derivatives, evaluated from each branch formula at z = R
    d, r = SPEC.delta, SPEC.radius
    inner = 1.0 / (d + r)
    outer = r * r / ((r + d) * r * r)
    assert abs(inner - outer) <= 1e-12
    # and the same seen through finite differences
    eps = 1e-7
    left = (cost_eval(SPEC, 1.0) - cost_eval(SPEC, 1.0 - eps)) / eps
    right = (cost_eval(SPEC, 1.0 + eps) - cost_eval(SPEC, 1.0)) / eps
    assert abs(left - right) < 1e-6


def test_strict_concavity_and_subadditivity(rng):
    for spec in (SPEC, bounded_log(delta=1e-3, radius=0.3)):
        a = rng.uniform(1e-6, 3.0, size=200)
        b = a + rng.uniform(1e-6, 3.0, size=200)
        mid = cost_eval(spec, (a + b) / 2)
        assert np.all(mid > (cost_eval(spec, a) + cost_eval(spec, b)) / 2)
        assert np.all(cost_eval(spec, a + b) <= cost_eval(spec, a) + cost_eval(spec, b) + 1e-12)


def test_monotone_and_bounded(rng):
    z = np.sort(rng.uniform(0, 50.0, size=500))
    c = cost_eval(SPEC, z)
    assert np.all(np.diff(c) > 0)
    assert np.all(c <= cost_sup(SPEC))


def test_log1p_accuracy_small_z():
    spec = bounded_log(delta=1e-6, radius=1.0)
    z = 1e-12
    # exact to machine precision thanks to log1p, where log(1 + z/d) would lose digits
    assert cost_eval(spec, z) == pytest.approx(math.log1p(z / 1e-6), rel=1e-15)


def test_validation_errors():
    with pytest.raises(ValueError):
        CostSpec(CostKind.BOUNDED_LOG, radius=1.0, delta=-0.1)
    with pytest.raises(ValueError):
        CostSpec(CostKind.BOUNDED_LOG, radius=0.0, delta=0.1)
    with pytest.raises(ValueError):
        cost_eval(SPEC, -1.0)
    with pytest.raises(ValueError):
        cost_eval(SPEC, math.nan)


@pytest.mark.parametrize("fn", [cost_eval, cost_derivative])
def test_argument_checks_see_every_entry(fn):
    # one bad entry among good ones, at either end of an array or as a
    # scalar; -0.0 is a distance of zero
    for bad, message in [(math.nan, "z must be finite"), (math.inf, "z must be finite"),
                         (-math.inf, "z must be finite"), (-1e-300, "z must be nonnegative")]:
        for z in (bad, np.array([bad, 0.5, 1.0]), np.array([0.5, 1.0, bad])):
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(SPEC, z)
    assert fn(SPEC, -0.0) == fn(SPEC, 0.0)
    assert np.array_equal(fn(SPEC, np.array([-0.0, 0.5])), fn(SPEC, np.array([0.0, 0.5])))


def _where_cost_eval(spec, z):
    """cost_eval for the bounded-log cost as it was: both branches on every
    entry, picked by np.where."""
    zs = np.asarray(z, dtype=float)
    d, r = spec.delta, spec.radius
    inner = np.log1p(np.minimum(zs, r) / d)
    zsafe = np.maximum(zs, r)
    outer = math.log1p(r / d) + r / (r + d) * (1.0 - r / zsafe)
    out = np.where(zs <= r, inner, outer)
    return out if isinstance(z, np.ndarray) else float(out)


def _where_cost_derivative(spec, z):
    zs = np.asarray(z, dtype=float)
    d, r = spec.delta, spec.radius
    zsafe = np.maximum(zs, r)
    out = np.where(zs <= r, 1.0 / (d + zs), r * r / ((r + d) * zsafe * zsafe))
    return out if isinstance(z, np.ndarray) else float(out)


# at z = radius the two branches round apart: the values for (0.1, 0.2), the
# slopes for (1e-4, 0.3), so a branch taken on the wrong side of z = r shows
@pytest.mark.parametrize("spec", [SPEC, bounded_log(delta=0.1, radius=0.2),
                                  bounded_log(delta=1e-4, radius=0.3)])
def test_each_branch_only_where_it_applies_is_bit_identical(spec, rng):
    r = spec.radius
    edges = [0.0, -0.0, r, math.nextafter(r, math.inf), math.nextafter(r, -math.inf), 10 * r]
    mixed = np.concatenate([edges, rng.uniform(0.0, 2 * r, 999)])
    cases = [*edges, np.array(edges), mixed, mixed.reshape(-1, 3),
             rng.uniform(0.0, r, 64), rng.uniform(r, 10 * r, 64),  # one branch only
             np.array([]), np.zeros((0, 3)), np.array(0.25 * r), np.array(10 * r)]
    for fn, oracle in [(cost_eval, _where_cost_eval), (cost_derivative, _where_cost_derivative)]:
        for z in cases:
            got, expected = fn(spec, z), oracle(spec, z)
            assert type(got) is type(expected)
            assert np.shape(got) == np.shape(expected)
            assert np.array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(expected).view(np.uint64)), (fn.__name__, z)
