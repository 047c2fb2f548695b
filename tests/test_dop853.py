"""krlab's DOP853 against scipy's: the tableau entry for entry, and the
integration bit for bit in the positions and the count of right-hand-side
evaluations, as ``solve_ivp(method="DOP853", t_eval=times)`` gives them."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as ref

from krlab import dop853 as kr
from krlab.fields import PowerCuspField, SmoothShear2D
from krlab.measures import Grid
from krlab.pde import _integrate_characteristics


def bits(a):
    """The float64 bit patterns, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def scipy_characteristics(u, x0, times, rtol, atol):
    """The positions and nfev of ``solve_ivp``, called as the characteristics
    integration called it before krlab had its own DOP853."""
    shape = x0.shape

    def rhs(t, y):
        return np.asarray(u(t, y.reshape(shape))).ravel()

    sol = solve_ivp(rhs, (times[0], times[-1]), x0.ravel(), method="DOP853", t_eval=times,
                    rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y.T.reshape((len(times),) + shape), sol.nfev


@pytest.mark.parametrize("name", ["A", "B", "C", "E3", "E5", "D"])
def test_tableau_is_scipys_entry_for_entry(name):
    want = {"A": ref.A, "B": ref.B, "C": ref.C, "E3": ref.E3, "E5": ref.E5, "D": ref.D}[name]
    assert np.array_equal(bits(getattr(kr, name)), bits(want))
    assert kr.N_STAGES == ref.N_STAGES


@pytest.mark.parametrize("rtol", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9])
def test_cusp_characteristics_are_solve_ivps_bit_for_bit(alpha, rtol):
    u = PowerCuspField(alpha)
    for n in (64, 256, 1024):
        x0 = Grid(1, n).centers()
        for horizon in (0.1, 0.5, 1.0):
            times = np.linspace(0.0, horizon, 9)
            want, nfev = scipy_characteristics(u, x0, times, rtol, rtol * 1e-2)
            got, got_nfev = _integrate_characteristics(u, x0, times, rtol, rtol * 1e-2,
                                                       use_exact_flow=False)
            assert np.array_equal(bits(got), bits(want)), (n, horizon)
            assert got_nfev == nfev, (n, horizon)


def test_2d_positions_are_solve_ivps_bit_for_bit():
    x0 = Grid(2, 16).centers()
    times = np.linspace(0.0, 0.7, 5)
    want, nfev = scipy_characteristics(SmoothShear2D(), x0, times, 1e-10, 1e-12)
    got, got_nfev = _integrate_characteristics(SmoothShear2D(), x0, times, 1e-10, 1e-12,
                                               use_exact_flow=False)
    assert got.shape == (5, 16, 16, 2)
    assert np.array_equal(bits(got), bits(want))
    assert got_nfev == nfev > 0


def test_an_rtol_below_100_eps_is_raised_to_it_as_scipy_does():
    u, x0, times = PowerCuspField(0.6), Grid(1, 64).centers(), np.linspace(0.0, 0.5, 5)
    with pytest.warns(UserWarning, match="rtol"):
        want, nfev = scipy_characteristics(u, x0, times, 1e-17, 1e-19)
    with pytest.warns(UserWarning, match="below 100 eps"):
        got, got_nfev = _integrate_characteristics(u, x0, times, 1e-17, 1e-19,
                                                   use_exact_flow=False)
    assert np.array_equal(bits(got), bits(want))
    assert got_nfev == nfev


def test_a_blow_up_raises_where_solve_ivp_fails():
    # y' = y^2, y(0) = 1 blows up at t = 1, inside [0, 2]
    def square(t, y):
        return y * y

    times = np.linspace(0.0, 2.0, 5)
    sol = solve_ivp(square, (0.0, 2.0), [1.0], method="DOP853", t_eval=times)
    assert not sol.success and "step size" in sol.message
    with pytest.raises(RuntimeError, match="required step size is less than spacing"):
        kr.dop853(square, np.array([1.0]), times, 1e-3, 1e-6)
