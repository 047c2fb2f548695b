import math
import re
import tracemalloc

import numpy as np
import pytest

from krlab.measures import (Grid, SignedDensity, density_from_function, jordan_decompose,
                            lq_norm, mass, mean_zero_projection, periodic_wrap)


def test_grid_invariants():
    g = Grid(1, 64)
    assert g.h == 1.0 / 64
    centers = g.axis_centers()
    assert centers[0] == pytest.approx(0.5 * g.h)
    assert np.all(np.diff(centers) == pytest.approx(g.h))
    # periodic distance is capped by half the diameter per axis
    g2 = Grid(2, 32)
    c = g2.axis_centers()
    X, Y = np.meshgrid(c, c, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    d = periodic_wrap(pts[:50, None, :] - pts[None, :50, :], g2.length)
    assert np.abs(d).max() <= g2.length / 2
    assert np.sqrt((d * d).sum(axis=-1)).max() <= math.sqrt(2) / 2 + 1e-15


def test_grid_centers_are_the_axis_centers_per_axis():
    g1 = Grid(1, 16, length=2 * math.pi)
    assert np.array_equal(g1.centers(), g1.axis_centers())
    g2 = Grid(2, 8)
    c, pts = g2.axis_centers(), g2.centers()
    assert pts.shape == (8, 8, 2)
    assert np.array_equal(pts[..., 0], np.repeat(c[:, None], 8, axis=1))
    assert np.array_equal(pts[..., 1], np.repeat(c[None, :], 8, axis=0))


def bits(a):
    """The float64 bit patterns, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def meshgrid_density(grid, fn):
    """The full-grid evaluation that density_from_function replaced: fn(X, Y)
    on the (n, n, 2) cell centers."""
    c = grid.centers()
    return np.asarray(fn(c[..., 0], c[..., 1]), dtype=float)


DATA_2D = {
    # pde-convergence's shear datum
    "shear": lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * X) * (0.5 + 0.5 * np.cos(2 * np.pi * Y)),
    # the datum of the 2-d Lagrangian mass and a-priori divergence tests
    "sin-cos": lambda X, Y: 1.0 + 0.5 * np.sin(2 * math.pi * X) * np.cos(Y),
    "non-separable": lambda X, Y: np.sin(2 * np.pi * (X + Y)),
    # a result that is not a full grid is broadcast to one
    "x-only": lambda X, Y: np.exp(np.cos(2 * np.pi * X)),
    "y-only": lambda X, Y: np.where(Y < 0.5, 1.0, -1.0),
}


@pytest.mark.parametrize("n", [2, 64, 512])
@pytest.mark.parametrize("name", sorted(DATA_2D))
def test_a_2d_datum_from_its_axes_is_the_meshgrid_one_bit_for_bit(name, n):
    g = Grid(2, n)
    got = density_from_function(g, DATA_2D[name]).values
    assert got.shape == (n, n) and got.flags.c_contiguous and got.flags.writeable
    assert np.array_equal(bits(got), bits(meshgrid_density(g, DATA_2D[name])))


def test_the_512_shear_datum_peaks_at_two_grids():
    # the meshgrid evaluation peaked at 10.0 MiB: the (n, n, 2) centers, X, Y,
    # the sines, the cosines and their products, each of n^2 values
    g = Grid(2, 512)
    tracemalloc.start()
    try:
        density_from_function(g, DATA_2D["shear"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two (n, n) grids, the product and the datum, and the O(n) axis arrays
    assert peak <= 2 * g.ncells * 8 + 32 * g.n * 8


def test_grid_validation():
    for dim in (3, "1", 1.5):
        with pytest.raises(ValueError, match=f"^{re.escape(f'dim must be 1 or 2, got {dim!r}')}$"):
            Grid(dim, 32)
    # the one rule for grid sizes: Grid states it, and krlab run's check of
    # the grid sizes under params calls the same function
    for n, fix in [(48, "; use 32 or 64"), (1, "; use 2 or 4"), (0, "; use 2 or 4"),
                   (4.0, "; use 4 or 8"),  # a float, even of a power of two, is no cell count
                   ("8", "; use 8 or 16"), (None, "")]:
        message = f"cells per axis n = {n!r}: the grid size must be a power of two >= 2{fix}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Grid(1, n)
    # a length that is no real number is a bad length too, not a TypeError
    for length in (-1.0, 0.0, math.inf, math.nan, "1", None, 1j, True, np.True_):
        message = f"length must be positive and finite, got {length!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Grid(1, 32, length=length)
    assert Grid(1, 32, length=np.float64(2.0)).h == 2.0 / 32


def test_jordan_zero():
    g = Grid(1, 32)
    pos, neg = jordan_decompose(SignedDensity(g, np.zeros(32)))
    assert not pos.values.any() and not neg.values.any()


def test_jordan_step():
    g = Grid(1, 64)
    eta = density_from_function(g, lambda x: np.where(x < 0.5, 1.0, -1.0))
    pos, neg = jordan_decompose(eta)
    assert np.array_equal(pos.values, (eta.values > 0).astype(float))
    assert np.array_equal(neg.values, (eta.values < 0).astype(float))
    assert np.all(pos.values * neg.values == 0)
    assert mass(pos) == pytest.approx(0.5)


def test_jordan_sine_masses():
    g = Grid(1, 64)
    eta = density_from_function(g, lambda x: np.sin(2 * np.pi * x))
    pos, neg = jordan_decompose(eta)
    # analytic: integral of the positive part of sin(2 pi x) is 1/pi
    assert mass(pos) == pytest.approx(1 / math.pi, abs=2.0 / 64**2)
    assert mass(neg) == pytest.approx(1 / math.pi, abs=2.0 / 64**2)


def test_lq_norm_examples():
    g = Grid(1, 64)
    zero = SignedDensity(g, np.zeros(64))
    for q in (1, 2, np.inf):
        assert lq_norm(zero, q) == 0.0
    step = density_from_function(g, lambda x: np.where(x < 0.5, 1.0, -1.0))
    assert lq_norm(step, 1) == pytest.approx(1.0, rel=1e-14)
    assert lq_norm(step, np.inf) == 1.0
    with pytest.raises(ValueError):
        lq_norm(step, 0.5)


def test_lq_monotone_in_q(rng):
    g = Grid(1, 32)
    eta = SignedDensity(g, rng.standard_normal(32))
    norms = [lq_norm(eta, q) for q in (1, 1.5, 2, 4, np.inf)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_lq_refinement_consistency():
    # sampling a fixed smooth density on refined grids moves the norm by
    # O(h^2); q = 1 keeps the kinks of |eta| between grid points, so the
    # error is genuinely second order (it oscillates with the kink phase,
    # hence an envelope assertion rather than a rate fit; the constant 2
    # is ~1.7x the largest observed err*n^2)
    f = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
    ref = lq_norm(density_from_function(Grid(1, 8192), f), 1)
    for n in (64, 128, 256, 512):
        val = lq_norm(density_from_function(Grid(1, n), f), 1)
        assert abs(val - ref) <= 2.0 / n**2


def test_mean_zero_projection(rng):
    g = Grid(1, 32)
    const = SignedDensity(g, np.full(32, 3.0))
    assert np.allclose(mean_zero_projection(const).values, 0.0)
    step = density_from_function(g, lambda x: np.where(x < 0.5, 1.0, -1.0))
    shifted = SignedDensity(g, step.values + 0.25)
    assert np.allclose(mean_zero_projection(shifted).values, step.values, atol=1e-15)
    eta = SignedDensity(g, rng.standard_normal(32) * 10)
    out = mean_zero_projection(eta)
    assert abs(out.values.sum() * g.cell_volume) <= 1e-14 * lq_norm(out, 1)


def test_mass_decomposition_consistency(rng):
    g = Grid(2, 16)
    for _ in range(10):
        eta = SignedDensity(g, rng.standard_normal((16, 16)))
        pos, neg = jordan_decompose(eta)
        mean_term = eta.values.mean() * g.length**g.dim
        assert mass(pos) - mass(neg) == pytest.approx(mean_term, abs=1e-13)
