"""The lab's integrals against independent references: the cusp's
||grad u||_{L^p} and ||e(|grad u|)||_{L^1} against adaptive quadrature split
at every kink, psi_1 against a dense scan of its objective, and the
oscillatory L^1 norm against its closed form."""

import math

import numpy as np
import pytest
import yaml
from reference_integrals import dense_psi_scan, split_quad

from krlab.cli import main
from krlab.experiments import _oscillatory_l1
from krlab.fields import PowerCuspField, gauss_legendre_rule, modulus, psi_one


def test_gauss_legendre_rule_matches_leggauss_and_integrates_degree_127():
    nodes, weights = gauss_legendre_rule(64)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(64)
    assert np.abs(nodes[::-1] - ref_nodes).max() <= 2e-16
    assert np.abs(weights[::-1] / ref_weights - 1.0).max() <= 2e-12
    for k in range(0, 128, 2):
        assert (weights * nodes**k).sum() == pytest.approx(2.0 / (k + 1), rel=2e-14)


@pytest.mark.parametrize("alpha", [0.25, 0.6, 0.9])
def test_modulus_integral_matches_a_split_quad(alpha):
    f = PowerCuspField(alpha, x0=0.31, amp=0.4)
    ref = split_quad(f, lambda xi: float(modulus(xi)))
    assert f.modulus_integral() == pytest.approx(ref, rel=1e-12, abs=0.0)


# the dyadic quad it replaced returned inf at each of these (a node on the
# cusp, or a cusp outside (0, 1)) and was finite only near 0.31
@pytest.mark.parametrize("x0", [0.0, 0.1, 0.5, 1.0, 2.31, -0.69])
def test_modulus_integral_does_not_depend_on_x0(x0):
    value = PowerCuspField(0.25, x0=x0, amp=0.4).modulus_integral()
    assert math.isfinite(value)
    assert value == pytest.approx(PowerCuspField(0.25, x0=0.31, amp=0.4).modulus_integral(),
                                  rel=1e-12, abs=0.0)


# at an even p, |u'|^p is smooth across the zero of u'; elsewhere it has an
# (a - r)^p end there, on which the fixed rule converges algebraically
@pytest.mark.parametrize("alpha, x0, p, rel", [
    (0.6, 0.31, 2.0, 1e-12), (0.9, 0.31, 2.0, 1e-12), (0.6, 0.0, 2.0, 1e-12),
    (0.6, 0.31, 1.5, 1e-9), (0.25, 0.31, 1.2, 1e-9), (0.9, 0.5, 1.2, 1e-9)])
def test_grad_norm_lp_matches_a_split_quad(alpha, x0, p, rel):
    f = PowerCuspField(alpha, x0=x0, amp=0.4)
    ref = split_quad(f, lambda xi: xi**p) ** (1.0 / p)
    assert f.grad_norm_lp(p) == pytest.approx(ref, rel=rel, abs=0.0)


@pytest.mark.parametrize("delta", [1.0, 0.9, 0.5, 0.1, 0.05, 1e-2, 1e-4, 1e-8, 1e-12, 1e-300])
def test_psi_one_matches_a_dense_scan(delta):
    assert psi_one(delta) == pytest.approx(dense_psi_scan(delta), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k, T", [(1, 1.0), (4, 1.0), (16, 1.0), (1000, 1.0), (4, 0.37),
                                  (16, 3.0)])
def test_oscillatory_l1_matches_the_closed_form(k, T):
    exact = 8.0 * (math.atan(math.exp(T / 2)) - math.atan(math.exp(-T / 2)))
    assert _oscillatory_l1(k, T) == pytest.approx(exact, rel=0.0, abs=1e-13)


# the dyadic modulus integral was inf at x0 = 0.5, which FAILed
# w11-route-uniformity at nan; quad refused ks up to 1000 (1999 break points)
@pytest.mark.parametrize("experiment, params", [
    ("prop1-sweep", {"n": 64, "n_frames": 5, "deltas": [0.1, 0.01], "chain_frames": [2],
                     "e1_control_n": 64, "x0": 0.5}),
    ("oscillatory-example", {"ks": [1, 1000], "n_grid": 256}),
], ids=["prop1-sweep-x0=0.5", "oscillatory-example-ks=1,1000"])
def test_run_passes_where_quadrature_failed(tmp_path, experiment, params):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({"experiment": experiment, "params": params}))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
