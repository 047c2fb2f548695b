"""The exact transport path that the level solver replaced, kept as the
oracle of its bit-for-bit tests.

``reference_prepare_instance`` and ``reference_level_plan`` are the earlier
per-instance ``_prepare_instance`` and ``_level_plan`` with their helpers,
verbatim but for names and comments, built from np.roll, np.unique, np.diff
and jordan_decompose; ``reference_require_valid`` is the earlier
``_require_valid``.  ``oracle_density`` draws the densities those tests
compare on.
"""

import numpy as np
from scipy import optimize

from krlab import transport
from krlab.cost import cost_eval
from krlab.measures import (SignedDensity, density_from_function, jordan_decompose, lq_norm,
                            mass, mean_zero_projection, periodic_wrap)


def random_mean_zero(grid, rng):
    return mean_zero_projection(SignedDensity(grid, rng.standard_normal(grid.shape)))


def reference_atoms(part):
    """Nonzero cells of a nonnegative density as (positions, masses, cells)."""
    cells = np.nonzero(part.values > 0.0)[0]
    return part.grid.axis_centers()[cells], part.values[cells] * part.grid.cell_volume, cells


def reference_prune_atoms(pos, masses, cells):
    if len(masses) == 0:
        return pos, masses, cells
    keep = masses > 1e-13 * masses.max()
    return pos[keep], masses[keep], cells[keep]


def reference_require_valid(eta):
    if eta.grid.dim != 1:
        raise ValueError(f"transport is implemented on 1-d grids only, got a "
                         f"{eta.grid.dim}-d grid")
    bad = eta.values.size - np.count_nonzero(np.isfinite(eta.values))
    if bad:
        raise ValueError(f"density has NaN or inf in {bad} of {eta.values.size} cells; "
                         "every cell must hold a finite number")
    total = mass(eta)
    l1 = lq_norm(eta, 1)
    if l1 > 0 and abs(total) > transport.MASS_TOL * l1:
        raise ValueError(
            f"density is not mean-zero (mass {total:.3e} vs L1 {l1:.3e}); "
            "apply mean_zero_projection first")


def reference_prepare_instance(eta):
    reference_require_valid(eta)
    pos_part, neg_part = jordan_decompose(eta)
    pos_p, mass_p, cells_p = reference_prune_atoms(*reference_atoms(pos_part))
    pos_n, mass_n, cells_n = reference_prune_atoms(*reference_atoms(neg_part))
    if len(mass_p) and len(mass_n):
        # remove the residual float imbalance exactly
        mass_n = mass_n * (mass_p.sum() / mass_n.sum())
    return pos_p, mass_p, cells_p, pos_n, mass_n, cells_n


def reference_level_members(lo, hi):
    span = hi - lo
    atom = np.repeat(np.arange(len(lo)), span)
    level = np.arange(span.sum()) + np.repeat(lo - (np.cumsum(span) - span), span)
    order = np.argsort(level, kind="stable")
    return atom[order], level[order]


def reference_level_plan(cost, length, pos_p, mass_p, cells_p, pos_n, mass_n, cells_n):
    m, n = len(mass_p), len(mass_n)
    order = np.argsort(np.concatenate([cells_p, cells_n]))
    G = np.cumsum(np.concatenate([mass_p, -mass_n])[order])
    G[-1] = 0.0  # the atoms balance, so G closes at 0: roundoff goes to the last atom
    E = np.roll(G, 1)
    heights = np.unique(G)
    lo, hi = np.empty(m + n, dtype=np.intp), np.empty(m + n, dtype=np.intp)
    lo[order] = np.searchsorted(heights, np.minimum(E, G))
    hi[order] = np.searchsorted(heights, np.maximum(E, G))
    src, lvl = reference_level_members(lo[:m], hi[:m])
    dst, _ = reference_level_members(lo[m:], hi[m:])
    starts = np.flatnonzero(np.diff(lvl, prepend=-1))
    ks = np.diff(starts, append=len(lvl))
    kk = ks * ks
    ends = np.cumsum(kk)
    first = ends - kk  # where each level's block starts in the entries
    row = np.arange(len(lvl)) - starts[lvl]
    dst_pos = pos_n[dst]
    bounds = np.append(starts, len(lvl))
    col = np.zeros(len(lvl), dtype=np.intp)
    picked = np.empty(len(lvl))  # the cost of each member's pair
    a = 0
    while a < len(ks):
        b = max(int(np.searchsorted(ends, first[a] + transport.BLOCK_RUN_ENTRIES,
                                    side="right")), a + 1)
        run = slice(bounds[a], bounds[b])
        lr = lvl[run]
        kr = ks[lr]
        at = first[lr] - first[a] + row[run] * kr  # where each member's row starts
        tgt = np.arange(kr.sum()) - np.repeat(at - starts[lr], kr)
        costs = cost_eval(cost, np.abs(periodic_wrap(np.repeat(pos_p[src[run]], kr)
                                                     - dst_pos[tgt], length)))
        big = np.flatnonzero(ks[a:b] > 1) + a
        for s0, e0, k in zip(starts[big].tolist(), (first[big] - first[a]).tolist(),
                             ks[big].tolist()):
            col[s0:s0 + k] = optimize.linear_sum_assignment(costs[e0:e0 + k * k].reshape(k, k))[1]
        picked[run] = costs[at + col[run]]
        a = b
    # merge the pairs that several levels repeat
    key = src * n + dst[starts[lvl] + col]
    by_pair = np.argsort(key, kind="stable")
    pairs = np.flatnonzero(np.diff(key[by_pair], prepend=-1))
    si, dj = np.divmod(key[by_pair][pairs], n)
    pm = np.add.reduceat(np.diff(heights)[lvl][by_pair], pairs)
    return (si, dj, pm), picked[by_pair][pairs], len(ks), int(ends[-1])


def oracle_density(rng, g, kind):
    """A mean-zero density of one of the shapes the oracle test covers."""
    n = g.n
    if kind == "step":
        return density_from_function(g, lambda x: np.where(x < g.length / 2, 1.0, -1.0))
    if kind == "random":
        return random_mean_zero(g, rng)
    v = np.zeros(n)
    if kind == "quantized":
        # small integers and their negatives in random cells, so the prefix
        # sum revisits its heights, and -0.0 in the empty cells
        k = int(rng.integers(1, n // 2 + 1))
        q = rng.integers(1, 4, k) * rng.choice([0.25, 1.0, 3.0])
        cells = rng.choice(n, size=2 * k, replace=False)
        v[cells] = np.concatenate([q, -rng.permutation(q)])
        v[v == 0.0] = -0.0
        return SignedDensity(g, v)
    # atoms at the pruning threshold, in the empty cells of sparse atoms:
    # exactly 1e-13 of the largest atom of their side (pruned, and exact in
    # the masses when h is a power of two) and one ulp either way of it
    cells = rng.permutation(n)
    k = int(rng.integers(2, n // 2 + 1))
    v[cells[:k]] = rng.uniform(0.1, 2.0, k) * rng.permutation(np.arange(k) % 2 * 2 - 1)
    v[cells[:k]] -= v[cells[:k]].mean()
    tiny = cells[k:k + max(1, n // 8)]
    side = rng.choice([-1.0, 1.0], len(tiny))
    at = 1e-13 * np.where(side > 0, v.max(), -v.min())
    shift = rng.integers(3, size=len(tiny))
    v[tiny] = side * np.choose(shift, [np.nextafter(at, 0.0), at, np.nextafter(at, np.inf)])
    if rng.random() < 0.5:
        v[cells[k + len(tiny):]] = -0.0
    return SignedDensity(g, v)
