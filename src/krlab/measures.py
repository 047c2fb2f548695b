"""Periodic grids and signed cell-average densities.

The computational domain is the flat torus [0, L)^d with d in {1, 2}.  A
``SignedDensity`` stores one value per cell, interpreted as the cell average;
as a measure it is the sum of atoms of weight ``value * h^d`` at the cell
centers.  The length L defaults to 1; the oscillatory velocity family lives
on its native 2*pi-periodic circle, which is why L is kept general.

The PDE solvers run on both dimensions; transport runs on the circle (d = 1),
where a position is one float and a point set is a flat array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np


def check_grid_size(label: str, n) -> None:
    """Raise ValueError unless ``n`` is an integer power of two >= 2, the cells
    per axis of a ``Grid``; a value that reads as a number gets the two
    nearest powers of two."""
    try:
        k = operator.index(n)
    except TypeError:
        k = None
    if k is not None and k >= 2 and not k & (k - 1):
        return
    message = f"{label}: the grid size must be a power of two >= 2"
    if k is None:
        try:
            k = int(float(n))  # 4.0 or "8" names 4 or 8
        except (TypeError, ValueError, OverflowError):
            raise ValueError(message) from None
    lower = 1 << max(k.bit_length() - 1, 1)
    raise ValueError(f"{message}; use {lower} or {2 * lower}")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, length)^dim with n cells per axis."""

    dim: int
    n: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim!r}")
        check_grid_size(f"cells per axis n = {self.n!r}", self.n)
        try:  # a bool is a number to math, but no length
            ok = (not isinstance(self.length, (bool, np.bool_))
                  and math.isfinite(self.length) and self.length > 0)
        except TypeError:  # not a real number, e.g. the string "1"
            ok = False
        if not ok:
            raise ValueError(f"length must be positive and finite, got {self.length!r}")

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def ncells(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis_centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h

    def centers(self) -> np.ndarray:
        """Cell centers: shape (n,) on the circle, (n, n, 2) on the torus."""
        c = self.axis_centers()
        if self.dim == 1:
            return c
        X, Y = np.meshgrid(c, c, indexing="ij")
        return np.stack([X, Y], axis=-1)


def periodic_wrap(d, length: float) -> np.ndarray:
    """Displacements d wrapped to [-length/2, length/2] per axis: the
    shortest representative on the torus."""
    return d - length * np.round(d / length)


def periodic_distance_matrix(pos_a: np.ndarray, pos_b: np.ndarray, length: float) -> np.ndarray:
    """Pairwise arc lengths between points on the circle, of shape (m,), (k,)."""
    return np.abs(periodic_wrap(pos_a[:, None] - pos_b[None, :], length))


@dataclass
class SignedDensity:
    """Signed grid function; values are cell averages."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")


def density_from_function(grid: Grid, fn) -> SignedDensity:
    """Sample a function of position at the cell centers (midpoint rule):
    ``fn(x)`` on the circle, ``fn(X, Y)`` on the torus.

    On the torus ``fn`` must be elementwise and broadcast like a ufunc: it is
    called with the column ``X`` (n, 1) and the row ``Y`` (1, n) of cell
    centers, and its result is broadcast to (n, n), copied only where it is
    not already a full grid.  Every cell gets the same operations on the same
    inputs as from the full (n, n) meshgrid, so the values are the same bit
    for bit, while a separable datum takes its sines and cosines of n values
    each, not of n^2."""
    c = grid.axis_centers()
    if grid.dim == 1:
        return SignedDensity(grid, fn(c))
    values = np.asarray(fn(c[:, None], c[None, :]), dtype=float)
    if values.shape != grid.shape:
        values = np.broadcast_to(values, grid.shape).copy()
    return SignedDensity(grid, values)


def mass(eta: SignedDensity) -> float:
    return float(eta.values.sum() * eta.grid.cell_volume)


def jordan_decompose(eta: SignedDensity) -> tuple[SignedDensity, SignedDensity]:
    """Split into nonnegative parts eta = pos - neg with disjoint supports."""
    pos = np.maximum(eta.values, 0.0)
    neg = np.maximum(-eta.values, 0.0)
    return SignedDensity(eta.grid, pos), SignedDensity(eta.grid, neg)


def lq_norm(eta: SignedDensity, q: float) -> float:
    """Discrete L^q norm of the cell averages; q in [1, inf]."""
    if q != np.inf and q < 1:
        raise ValueError(f"q must be in [1, inf], got {q}")
    v = np.abs(eta.values)
    if q == np.inf:
        return float(v.max()) if v.size else 0.0
    if q != 1:
        v **= q  # in place: |values| is the one full-grid temporary
    return float(v.sum() * eta.grid.cell_volume) ** (1.0 / q)


def mean_zero_projection(eta: SignedDensity) -> SignedDensity:
    """Subtract the mean (twice, to kill the floating-point residual)."""
    v = eta.values - eta.values.mean()
    v -= v.mean()
    return SignedDensity(eta.grid, v)
