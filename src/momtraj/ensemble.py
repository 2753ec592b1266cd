"""Ensemble sampling and the statistical verification suite.

Initial momenta (or guidance-model positions) are drawn from the grid
density by one inverse-CDF sampler for any dof: a uniform u picks a cell from
the cumulative cell masses in row-major order, and the point is placed
uniformly inside that cell. Sampling is reproducible bit-for-bit for a fixed
(seed, state, N).

The suite checks, per frame:
* the position expectation identity  mean(x_i) ~ <x_hat>  within 4 sigma_hat/sqrt(N),
* the spread inequality              std(x_i) <= sigma_hat (1 + 4/sqrt(N)),
* the exact second-moment identity   <x^2> = <x_hat^2> - hbar^2 * int (d|psi~|/dp)^2 dp
  by grid quadrature (ratio-form derivative, never |psi~| differentiation),
* equivariance of the propagated momenta against |psi~(.,t)|^2 via a
  Kolmogorov-Smirnov statistic below the 99% band 1.63/sqrt(N),
* macrostate occupancy frequencies with binomial standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import prod

import numpy as np

from .errors import ConfigurationError, NormalizationError
from .grid import ComplexField, GridSpec, Representation, node_mask, spectral_gradient
from .trajectories import EnsembleHistory, TrajStatus

KS_BAND_99 = 1.63  # asymptotic one-sample KS critical coefficient at 99%


# -- sampling ---------------------------------------------------------------------


def _cell_edges(grid: GridSpec, rep: Representation, axis: int) -> np.ndarray:
    pts = grid.axis_points(rep, axis)
    step = grid.step(rep, axis)
    return np.concatenate([pts - step / 2.0, [pts[-1] + step / 2.0]])


def _check_normalized(fld: ComplexField) -> None:
    if abs(fld.norm() - 1.0) > 1e-6:
        raise NormalizationError(f"state norm {fld.norm():.9f} deviates from 1 beyond 1e-6")


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


def ks_band(n: int, coefficient: float = KS_BAND_99) -> float:
    return float(coefficient / np.sqrt(n))


def _grid_cdf_interp(density: np.ndarray, edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    w = np.clip(density, 0.0, None)
    masses = w * np.diff(edges)
    cdf_edges = np.concatenate([[0.0], np.cumsum(masses)])
    cdf_edges /= cdf_edges[-1]
    return np.interp(x, edges, cdf_edges)


def ks_statistic(samples: np.ndarray, density: np.ndarray, edges: np.ndarray) -> float:
    """One-sample KS distance of samples against the piecewise-linear grid CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = len(s)
    f = _grid_cdf_interp(density, edges, s)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    return float(max(d_plus, d_minus))


@dataclass(frozen=True)
class KSResult:
    statistic: float
    band: float
    passed: bool
    label: str = ""


def equivariance_check(p_samples: np.ndarray, psi_p: ComplexField) -> list[KSResult]:
    """KS of the propagated momenta against |psi~(.,t)|^2.

    1d: a single test. 2d: per-axis marginals plus the radial CDF (the full
    2d KS is not used); the radial reference is refined 4x per axis so its
    quantization bias is far below the band.
    """
    grid = psi_p.grid
    rho = psi_p.density()
    q = np.atleast_2d(p_samples)
    n = q.shape[0]
    band = ks_band(n)
    results: list[KSResult] = []
    if grid.dof == 1:
        edges = _cell_edges(grid, Representation.MOMENTUM, 0)
        d = ks_statistic(q[:, 0], rho, edges)
        return [KSResult(d, band, bool(d <= band), "p0")]
    vol_other = [grid.step(Representation.MOMENTUM, 1), grid.step(Representation.MOMENTUM, 0)]
    for a in range(2):
        marg = rho.sum(axis=1 - a) * vol_other[a]
        edges = _cell_edges(grid, Representation.MOMENTUM, a)
        d = ks_statistic(q[:, a], marg, edges)
        results.append(KSResult(d, band, bool(d <= band), f"p{a}"))
    results.append(_radial_ks(q, rho, grid, band))
    return results


@lru_cache(maxsize=8)
def _radial_order(grid: GridSpec, refine: int) -> tuple[np.ndarray, np.ndarray]:
    """The radial reference's sub-cell radii in ascending (stable) order, and
    the flat grid cell each sub-cell belongs to, on a momentum grid refined
    `refine` times per axis. Read-only: every frame on the grid shares them.
    """
    pts0 = grid.axis_points(Representation.MOMENTUM, 0)
    pts1 = grid.axis_points(Representation.MOMENTUM, 1)
    s0 = grid.step(Representation.MOMENTUM, 0)
    s1 = grid.step(Representation.MOMENTUM, 1)
    off = (np.arange(refine) + 0.5) / refine - 0.5
    sub0 = (pts0[:, None] + off[None, :] * s0).ravel()
    sub1 = (pts1[:, None] + off[None, :] * s1).ravel()
    r_sub = np.sqrt(sub0[:, None] ** 2 + sub1[None, :] ** 2).ravel()
    order = np.argsort(r_sub, kind="stable")
    cells = np.repeat(np.repeat(np.arange(grid.size).reshape(grid.shape), refine, 0),
                      refine, 1).ravel()
    out = (r_sub[order], cells[order])
    for arr in out:
        arr.setflags(write=False)
    return out


def _radial_ks(q: np.ndarray, rho: np.ndarray, grid: GridSpec, band: float,
               refine: int = 4) -> KSResult:
    r_sorted, cells = _radial_order(grid, refine)
    cdf = np.cumsum(rho.ravel()[cells] / refine**2)  # each sub-cell weighs 1/refine^2 of its cell
    cdf /= cdf[-1]
    r_samples = np.sort(np.sqrt(q[:, 0] ** 2 + q[:, 1] ** 2))
    f = np.interp(r_samples, r_sorted, cdf)
    n = len(r_samples)
    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    return KSResult(d, band, bool(d <= band), "radial")


# -- grid moments and the moment checks ----------------------------------------------


def grid_position_moments(psi_x: ComplexField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<x_hat>, sigma_hat, <x_hat^2>) per axis by position-grid quadrature."""
    grid = psi_x.grid
    rho = psi_x.density()
    vol = grid.cell_volume(Representation.POSITION)
    mesh = grid.mesh(Representation.POSITION)
    mean = np.empty(grid.dof)
    mean2 = np.empty(grid.dof)
    for a in range(grid.dof):
        mean[a] = np.sum(mesh[a] * rho) * vol
        mean2[a] = np.sum(mesh[a] ** 2 * rho) * vol
    var = np.maximum(mean2 - mean**2, 0.0)
    return mean, np.sqrt(var), mean2


def momentum_gradient_integrals(psi_p: ComplexField, grad: np.ndarray | None = None
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis integrals of the second-moment identity from one momentum gradient
    (`grad` as in `local_position_field`).

    Returns (flow, modulus):
    * flow = int |psi~|^2 (dS~/dp_k)^2 dp, <x^2> under the flow distribution;
    * modulus = int (d|psi~|/dp_k)^2 dp, via the ratio form
      [Re(psi~* d psi~/dp)]^2 / |psi~|^2 away from nodes. Node-flagged points
      fall back to |d psi~/dp|^2 (the correct limit for states with a real
      profile, where the modulus kinks square away).
    """
    grid = psi_p.grid
    rho = psi_p.density()
    valid = node_mask(rho)
    if grad is None:
        grad = spectral_gradient(psi_p.values, grid, Representation.MOMENTUM)
    vol = grid.cell_volume(Representation.MOMENTUM)
    flow = np.empty(grid.dof)
    modulus = np.empty(grid.dof)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(grid.dof):
            psi_grad = np.conj(psi_p.values) * grad[a]
            num = (grid.hbar * np.imag(psi_grad)) ** 2 / rho
            flow[a] = np.sum(np.where(valid, num, 0.0)) * vol
            ratio = np.real(psi_grad) ** 2 / rho
            modulus[a] = np.sum(np.where(valid, ratio, np.abs(grad[a]) ** 2)) * vol
    return flow, modulus


@dataclass(frozen=True)
class MomentReport:
    mean_sample: np.ndarray
    mean_grid: np.ndarray
    mean_band: np.ndarray
    mean_ok: bool
    std_sample: np.ndarray
    std_grid: np.ndarray
    std_bound: np.ndarray
    std_ok: bool
    second_moment_lhs: np.ndarray
    second_moment_rhs: np.ndarray
    identity_rel_err: float
    identity_ok: bool
    n_used: int


MOMENT_IDENTITY_TOL = 1e-6


def moment_checks(
    x_samples: np.ndarray,
    psi_x: ComplexField,
    psi_p: ComplexField,
    active: np.ndarray | None = None,
    grad: np.ndarray | None = None,
) -> MomentReport:
    """Expectation identity, spread inequality, and the quadrature second-moment identity
    (`grad` as in `local_position_field`)."""
    xs = np.atleast_2d(x_samples)
    if active is not None:
        xs = xs[active]
    n = xs.shape[0]
    if n < 1:
        raise ConfigurationError("moment checks need at least one active trajectory")
    mean_grid, std_grid, mean2_grid = grid_position_moments(psi_x)
    mean_s = xs.mean(axis=0)
    std_s = xs.std(axis=0)
    band = 4.0 * std_grid / np.sqrt(n)
    mean_ok = bool(np.all(np.abs(mean_s - mean_grid) <= band))
    bound = std_grid * (1.0 + 4.0 / np.sqrt(n))
    std_ok = bool(np.all(std_s <= bound))

    lhs, modulus = momentum_gradient_integrals(psi_p, grad)
    rhs = mean2_grid - psi_p.grid.hbar**2 * modulus
    scale = np.maximum(np.abs(mean2_grid), 1e-30)
    rel = float(np.max(np.abs(lhs - rhs) / scale))
    return MomentReport(
        mean_s, mean_grid, band, mean_ok,
        std_s, std_grid, bound, std_ok,
        lhs, rhs, rel, rel <= MOMENT_IDENTITY_TOL, n,
    )


# -- histograms and macrostates -------------------------------------------------------


def rho_histogram(
    x_samples: np.ndarray,
    bins: int,
    bounds: list[tuple[float, float]],
    active: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Normalized histogram density of the ensemble positions.

    `bounds` holds one (lo, hi) range per axis. Returns (edges, density):
    the bin edges of each axis and the density, with one array dimension per
    axis, that integrates to 1 over the bounds (all zero when no sample falls
    inside them).
    """
    xs = np.atleast_2d(x_samples)
    if active is not None:
        xs = xs[active]
    counts, edges = np.histogramdd(xs, bins=bins, range=bounds)
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
    active: np.ndarray | None = None,
) -> dict[str, tuple[float, float]]:
    """Occupancy fraction and binomial standard error per region plus 'other'.

    Regions must be disjoint; overlap raises a configuration error.
    """
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            if _regions_overlap(a, b):
                raise ConfigurationError(
                    f"macrostate regions {a.name!r} and {b.name!r} overlap"
                )
    xs = np.atleast_2d(x_samples)
    if active is not None:
        xs = xs[active]
    n = xs.shape[0]
    hit = np.zeros(n, dtype=int)
    out: dict[str, tuple[float, float]] = {}
    for reg in regions:
        mask = reg.contains(xs)
        hit += mask.astype(int)
        f = float(mask.sum()) / n if n else 0.0
        out[reg.name] = (f, float(np.sqrt(f * (1.0 - f) / n)) if n else 0.0)
    f_other = float(np.sum(hit == 0)) / n if n else 0.0
    out["other"] = (f_other, float(np.sqrt(f_other * (1.0 - f_other) / n)) if n else 0.0)
    return out


# -- ensemble container ----------------------------------------------------------------


@dataclass
class Ensemble:
    """Sampled trajectory batch with its frame histories."""

    history: EnsembleHistory

    def active_at(self, frame: int) -> np.ndarray:
        return self.history.status[frame] == TrajStatus.ACTIVE
