"""Ensemble sampling and the statistical verification suite.

Initial momenta (or guidance-model positions) are drawn from the grid
density by one inverse-CDF sampler for any dof: a uniform u picks a cell from
the cumulative cell masses in row-major order, and the point is placed
uniformly inside that cell. Sampling is reproducible bit-for-bit for a fixed
(seed, state, N).

The suite checks every frame over its active rows, which each check takes
as a mask; the moment and equivariance checks take a block of frames, frame
axis first, per call:
* the position expectation identity  mean(x_i) ~ <x_hat>  within 4 sigma_hat/sqrt(N),
* the spread inequality              std(x_i) <= sigma_hat (1 + 4/sqrt(N)),
* the exact second-moment identity   <x^2> = <x_hat^2> - hbar^2 * int (d|psi~|/dp)^2 dp
  by grid quadrature (ratio-form derivative, never |psi~| differentiation),
* equivariance of the propagated momenta against |psi~(.,t)|^2 via a
  Kolmogorov-Smirnov statistic below the 99% band 1.63/sqrt(N),
* macrostate occupancy frequencies with binomial standard errors.

Each check returns plain dicts (the block checks one per frame) keyed as the
frame rows of stats.json, which store them as they come (numpy leftovers are
converted when the file is written); the suite reads its pass flags and worst
cases from the same keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from typing import NamedTuple

import numpy as np

from .dynamics import NORM_TOL
from .errors import ConfigurationError, NormalizationError
from .grid import ComplexField, GridSpec, Representation, grid_axes, node_mask
from .trajectories import EnsembleHistory

KS_BAND_99 = 1.63  # asymptotic one-sample KS critical coefficient at 99%
RADIAL_SLICE = 1 << 16  # sorted sub-cells per slice of the radial reference's running sum
RADIAL_REFINE = 4  # sub-cells per grid cell and axis of the radial reference


# -- sampling ---------------------------------------------------------------------


def _cell_edges(grid: GridSpec, rep: Representation, axis: int) -> np.ndarray:
    pts = grid.axis_points(rep, axis)
    step = grid.step(rep, axis)
    return np.concatenate([pts - step / 2.0, [pts[-1] + step / 2.0]])


def _check_normalized(fld: ComplexField) -> None:
    if abs(fld.norm() - 1.0) > NORM_TOL:
        raise NormalizationError(f"state norm {fld.norm():.9f} deviates from 1 beyond {NORM_TOL}")


def sample_momenta(psi_p: ComplexField, n: int, seed: int) -> np.ndarray:
    """Draw n momenta from |psi~|^2; returns shape (n, dof)."""
    if psi_p.rep is not Representation.MOMENTUM:
        raise ConfigurationError("sample_momenta expects a momentum-representation field")
    _check_normalized(psi_p)
    return _sample_grid_density(psi_p, n, np.random.default_rng(seed))


def sample_positions(psi_x: ComplexField, n: int, seed: int) -> np.ndarray:
    """Draw n positions from |psi|^2 (guidance-model initial conditions)."""
    if psi_x.rep is not Representation.POSITION:
        raise ConfigurationError("sample_positions expects a position-representation field")
    _check_normalized(psi_x)
    return _sample_grid_density(psi_x, n, np.random.default_rng(seed))


def _sample_grid_density(fld: ComplexField, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw over the raveled cell masses of |fld|^2.

    The last axis places each point inside its cell by where u falls within
    the cell's step of the CDF; every other axis takes a fresh uniform jitter.
    """
    grid = fld.grid
    edges = [_cell_edges(grid, fld.rep, a) for a in range(grid.dof)]
    widths = [np.diff(e) for e in edges]
    masses = (np.clip(fld.density(), 0.0, None) * reduce(np.multiply.outer, widths)).ravel()
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    u = rng.random(n)
    cells = np.clip(np.searchsorted(cdf, u, side="right"), 0, len(cdf) - 1)
    lo = np.concatenate([[0.0], cdf])[cells]
    span = cdf[cells] - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(span > 0, (u - lo) / span, 0.5)
    idx = np.unravel_index(cells, grid.shape)
    out = np.empty((n, grid.dof))
    for a in range(grid.dof):
        f = frac if a == grid.dof - 1 else rng.random(n)
        out[:, a] = edges[a][idx[a]] + f * widths[a][idx[a]]
    return out


# -- Kolmogorov-Smirnov machinery ---------------------------------------------------


def ks_band(n: int) -> float:
    return float(KS_BAND_99 / np.sqrt(n))


def _ks_rows(values: np.ndarray, active: np.ndarray, xp: np.ndarray,
             cdf: np.ndarray) -> np.ndarray:
    """KS distance max(D+, D-) per frame of the active `values` against `cdf` (normalized
    here, in place) on the points `xp`; a retired row sorts last as +inf, uncounted."""
    f = np.where(active, values, np.inf)
    f.sort(axis=-1)
    for row, ref in zip(f, cdf):
        ref /= ref[-1]
        row[:] = np.interp(row, xp, ref)
    i, n = np.arange(f.shape[-1]), active.sum(axis=-1, keepdims=True)
    live, count = i < n, np.maximum(n, 1)
    d = np.divide(i + 1, count)
    d -= f
    d_plus = np.max(d, axis=-1, where=live, initial=-np.inf)
    np.subtract(f, np.divide(i, count, out=d), out=d)
    return np.maximum(d_plus, np.max(d, axis=-1, where=live, initial=-np.inf))


def ks_statistic(samples: np.ndarray, density: np.ndarray, edges: np.ndarray,
                 active: np.ndarray) -> np.ndarray:
    """One-sample KS distance of samples (B, N) against the piecewise-linear grid CDF of
    density (B, cells), one per frame over its `active` (B, N) rows."""
    masses = np.clip(density, 0.0, None) * np.diff(edges)
    cdf = np.concatenate([np.zeros((len(masses), 1)), np.cumsum(masses, axis=-1)], axis=-1)
    return _ks_rows(samples, active, edges, cdf)


def equivariance_check(samples: np.ndarray, psi: ComplexField,
                       active: np.ndarray) -> list[dict[str, dict] | None]:
    """KS of propagated points against |psi(.,t)|^2 in psi's representation, per frame
    of a block: psi with a frame axis first, samples (B, N, dof) and the `active` (B, N)
    rows of each frame. Each frame's record is {label: {"statistic", "band",
    "passed"}}, for momenta the `ks` entry of a stats.json frame row, and equals bit
    for bit the record of that frame's active rows alone; it is None where no row is
    active.

    Each axis p<a> (x<a> for positions) is tested against its marginal (in
    1d, the density itself). 2d adds the radial CDF (the full 2d KS is not
    used); the radial reference is refined 4x per axis so its quantization
    bias is far below the band, and each frame sums it a slice at a time.
    """
    grid, rep = psi.grid, psi.rep
    rho = psi.density()
    prefix = "p" if rep is Representation.MOMENTUM else "x"
    stats = {}
    for a in range(grid.dof):
        others = tuple(b for b in range(grid.dof) if b != a)
        marg = rho.sum(axis=tuple(1 + b for b in others)) * prod(grid.step(rep, b) for b in others)
        stats[f"{prefix}{a}"] = ks_statistic(samples[..., a], marg, _cell_edges(grid, rep, a),
                                             active).tolist()
    if grid.dof == 2:
        stats["radial"] = _radial_ks(samples, active, rho, grid, rep).tolist()
    bands = [ks_band(n) if n else None for n in active.sum(axis=-1).tolist()]
    return [{label: {"statistic": d[f], "band": band, "passed": d[f] <= band}
             for label, d in stats.items()} if band else None for f, band in enumerate(bands)]


def _radial_order(grid: GridSpec, rep: Representation) -> tuple[np.ndarray, np.ndarray]:
    """The radial reference's sub-cell radii in ascending (stable) order, and
    the flat grid cell (int32) each sub-cell belongs to, on the grid of `rep`
    refined RADIAL_REFINE times per axis. Read-only: every frame on the grid shares
    them. Both are filled from the argsort a slice at a time, the radii in place.
    """
    off = (np.arange(RADIAL_REFINE) + 0.5) / RADIAL_REFINE - 0.5
    sq0, sq1 = ((grid.axis_points(rep, a)[:, None] + off[None, :] * grid.step(rep, a)).ravel()
                ** 2 for a in range(2))
    r_sub = np.add.outer(sq0, sq1).ravel()
    order = np.argsort(np.sqrt(r_sub, out=r_sub), kind="stable")
    cells = np.empty(len(order), np.int32)
    for s in range(0, len(order), RADIAL_SLICE):
        row, col = np.divmod(order[s:s + RADIAL_SLICE], len(sq1))
        np.sqrt(sq0[row] + sq1[col], out=r_sub[s:s + RADIAL_SLICE])
        cells[s:s + RADIAL_SLICE] = row // RADIAL_REFINE * grid.shape[1] + col // RADIAL_REFINE
    for arr in (r_sub, cells):
        arr.setflags(write=False)
    return r_sub, cells


def _radial_ks(q: np.ndarray, active: np.ndarray, rho: np.ndarray, grid: GridSpec,
               rep: Representation) -> np.ndarray:
    """Radial KS per frame against `_radial_order`'s sub-cells, each 1/RADIAL_REFINE^2 of its
    cell, summed RADIAL_SLICE at a time with the carry added to each slice's first
    term: one cumsum's additions. Only the nodes np.interp reads are kept, the ends
    and each sample's bracket (j, j + 1), j the last node <= r (+inf, a retired row,
    takes the last), so the statistic equals the one over every node, bit for bit."""
    r_sorted, cells = grid.derived(_radial_order, rep)
    r = np.where(active, np.sqrt(q[..., 0] ** 2 + q[..., 1] ** 2), np.inf)
    last, d = len(cells) - 1, np.empty(len(r))
    for f, (row, w) in enumerate(zip(r, rho.reshape(len(rho), -1))):
        j = np.searchsorted(r_sorted, row, side="right") - 1
        need = np.unique(np.concatenate(([0, last], j.clip(0), (j + 1).clip(max=last))))
        cdf, carry = np.empty(len(need)), 0.0
        for s in range(0, len(cells), RADIAL_SLICE):
            part = w[cells[s:s + RADIAL_SLICE]] / RADIAL_REFINE**2
            part[0] += carry
            np.cumsum(part, out=part)
            lo, hi = np.searchsorted(need, (s, s + RADIAL_SLICE))
            cdf[lo:hi], carry = part[need[lo:hi] - s], part[-1]
        d[f] = _ks_rows(row[None], active[f:f + 1], r_sorted[need], cdf[None])[0]
    return d


# -- grid moments and the moment checks ----------------------------------------------


class GridMoments(NamedTuple):
    """The grid side of `moment_checks`, per axis and (after the axis) per frame:
    <x_hat>, sigma_hat, <x_hat^2> and the two sides of the second-moment identity."""

    mean: np.ndarray
    std: np.ndarray
    mean2: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray


def grid_moments(psi_x: ComplexField, psi_p: ComplexField, grad: np.ndarray) -> GridMoments:
    """Grid moments of one frame or a block of frames, `grad` psi_p's `spectral_gradient`.

    <x_hat>, sigma_hat and <x_hat^2> come from position-grid quadrature. The
    identity's sides come from the momentum gradient:
    * lhs = int |psi~|^2 (dS~/dp_k)^2 dp, <x^2> under the flow distribution;
    * rhs = <x_hat^2> - hbar^2 int (d|psi~|/dp_k)^2 dp, the modulus term by
      the ratio form [Re(psi~* d psi~/dp)]^2 / |psi~|^2 away from nodes.
      Node-flagged points fall back to |d psi~/dp|^2 (the correct limit for
      states with a real profile, where the modulus kinks square away).
    """
    grid = psi_p.grid
    axes = grid_axes(grid)
    rho_x, rho = psi_x.density(), psi_p.density()
    valid = node_mask(rho, grid)
    vol_x = grid.cell_volume(Representation.POSITION)
    vol = grid.cell_volume(Representation.MOMENTUM)
    mesh = grid.mesh(Representation.POSITION)
    mean, mean2, flow, modulus = np.empty((4, grid.dof) + rho.shape[:rho.ndim - grid.dof])
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(grid.dof):
            mean[a] = np.sum(mesh[a] * rho_x, axis=axes) * vol_x
            mean2[a] = np.sum(mesh[a] ** 2 * rho_x, axis=axes) * vol_x
            psi_grad = np.conj(psi_p.values) * grad[a]
            num = (grid.hbar * np.imag(psi_grad)) ** 2 / rho
            flow[a] = np.sum(np.where(valid, num, 0.0), axis=axes) * vol
            ratio = np.real(psi_grad) ** 2 / rho
            modulus[a] = np.sum(np.where(valid, ratio, np.abs(grad[a]) ** 2), axis=axes) * vol
    std = np.sqrt(np.maximum(mean2 - mean**2, 0.0))
    return GridMoments(mean, std, mean2, flow, mean2 - grid.hbar**2 * modulus)


MOMENT_IDENTITY_TOL = 1e-6


def moment_checks(xs: np.ndarray, grid: GridMoments,
                  active: np.ndarray) -> list[dict | None]:
    """Expectation identity, spread inequality, and the quadrature second-moment identity
    per frame of a block whose `grid_moments` are `grid`, over samples (B, N, dof) and
    the `active` (B, N) rows of each frame: the `moments` entry of a stats.json frame
    row, one record per frame as `equivariance_check` gives them.
    """
    n = active.sum(axis=-1)
    mean_s, std_s = xs.mean(axis=1), xs.std(axis=1)
    for f in np.flatnonzero((n > 0) & (n < xs.shape[1])):  # retired rows drop out as before
        mean_s[f], std_s[f] = xs[f][active[f]].mean(axis=0), xs[f][active[f]].std(axis=0)
    mean_grid, std_grid, mean2_grid, lhs, rhs = (m.T for m in grid)
    root_n = np.sqrt(np.maximum(n, 1))[:, None]
    band, bound = 4.0 * std_grid / root_n, std_grid * (1.0 + 4.0 / root_n)
    rel = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(mean2_grid), 1e-30), axis=-1)
    # per-axis values as lists: a row outlives its frame, and a list of one or two
    # floats takes less memory than an ndarray
    columns = {"mean_sample": mean_s, "mean_grid": mean_grid, "mean_band": band,
               "mean_ok": np.all(np.abs(mean_s - mean_grid) <= band, axis=-1),
               "std_sample": std_s, "std_grid": std_grid, "std_bound": bound,
               "std_ok": np.all(std_s <= bound, axis=-1), "second_moment_identity_rel_err": rel,
               "identity_ok": rel <= MOMENT_IDENTITY_TOL, "n_used": n}
    return [dict(zip(columns, row)) if row[-1] else None
            for row in zip(*(c.tolist() for c in columns.values()))]


# -- histograms and macrostates -------------------------------------------------------


def rho_histogram(
    x_samples: np.ndarray,
    bins: int,
    bounds: list[tuple[float, float]],
    active: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Normalized histogram density of the `active` rows of the ensemble positions (N, dof).

    `bounds` holds one (lo, hi) range per axis. Returns (edges, density):
    the bin edges of each axis and the density, with one array dimension per
    axis, that integrates to 1 over the bounds (all zero when no sample falls
    inside them).
    """
    counts, edges = np.histogramdd(x_samples[active], bins=bins, range=bounds)
    cell = prod(e[1] - e[0] for e in edges)
    density = counts / (counts.sum() * cell) if counts.sum() else counts
    return edges, density


@dataclass(frozen=True)
class Region:
    """Named axis-aligned region; None bounds mean 'any value on that axis'."""

    name: str
    intervals: tuple[tuple[float, float] | None, ...]

    def contains(self, xs: np.ndarray) -> np.ndarray:
        inside = np.ones(xs.shape[0], dtype=bool)
        for a, iv in enumerate(self.intervals):
            if iv is None:
                continue
            lo, hi = iv
            inside &= (xs[:, a] >= lo) & (xs[:, a] <= hi)
        return inside


def region_1d(name: str, lo: float, hi: float) -> Region:
    return Region(name, ((lo, hi),))


def _regions_overlap(a: Region, b: Region) -> bool:
    """Axis-aligned boxes overlap iff their intervals intersect on every axis."""
    for iva, ivb in zip(a.intervals, b.intervals):
        if iva is None or ivb is None:
            continue
        if iva[1] < ivb[0] or ivb[1] < iva[0]:
            return False
    return True


def macrostate_frequencies(
    x_samples: np.ndarray,
    regions: list[Region],
    active: np.ndarray,
) -> dict[str, dict[str, float]]:
    """Occupancy fraction and binomial standard error, {"frequency", "stderr"}, of the
    `active` rows of the positions (N, dof) per region plus 'other': the
    `macrostate_occupancy` entry of a stats.json frame row.

    Regions must be disjoint; overlap raises a configuration error.
    """
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            if _regions_overlap(a, b):
                raise ConfigurationError(
                    f"macrostate regions {a.name!r} and {b.name!r} overlap"
                )
    xs = x_samples[active]
    n = xs.shape[0]
    hit = np.zeros(n, dtype=int)
    counts = {}
    for reg in regions:
        mask = reg.contains(xs)
        hit += mask.astype(int)
        counts[reg.name] = mask.sum()
    counts["other"] = np.sum(hit == 0)
    out = {}
    for name, count in counts.items():
        f = float(count) / n if n else 0.0
        out[name] = {"frequency": f, "stderr": float(np.sqrt(f * (1.0 - f) / n)) if n else 0.0}
    return out


# -- ensemble container ----------------------------------------------------------------


@dataclass
class Ensemble:
    """Sampled trajectory batch with its frame histories."""

    history: EnsembleHistory
