"""Uniform Fourier-dual grids, complex fields, and spectral calculus.

Position and momentum grids form an exact discrete Fourier pair: with n
points, spacing dx and dual spacing dp, n * dx * dp = 2*pi*hbar holds by
construction. The transform pair approximates the continuum convention

    psi~(p) = (2*pi*hbar)^(-d/2) * integral dx exp(-i x.p/hbar) psi(x)

with the Riemann cell weight folded in, which makes it exactly unitary with
respect to the grid quadrature norms (Plancherel holds to roundoff).

Spectral derivatives on the momentum grid treat fields as periodic; they are
exact for states whose position-space content lies inside the centered
window [-extent/2, extent/2). Keep grids centered at the origin and keep
probability mass away from the edges (the propagator enforces this) and the
spectral calculus is accurate to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, IllPosedSourceError

MAX_DOF = 2


class Representation(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class GridAxis:
    """One scalar degree of freedom: point count, full width, window center."""

    points: int
    extent: float
    center: float = 0.0

    def __post_init__(self) -> None:
        if self.points < 64 or self.points & (self.points - 1) != 0:
            raise ConfigurationError(
                f"axis points must be a power of two >= 64, got {self.points}"
            )
        if not self.extent > 0:
            raise ConfigurationError(f"axis extent must be positive, got {self.extent}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over 1 or 2 degrees of freedom plus its Fourier dual."""

    axes: tuple[GridAxis, ...]
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= MAX_DOF:
            raise ConfigurationError(f"supported dof count is 1..{MAX_DOF}")
        if not self.hbar > 0:
            raise ConfigurationError("hbar must be positive")

    # Computed once per instance: cached_property stores into the instance
    # dict, which a frozen dataclass without slots allows; equality and hash
    # still come from the fields alone.
    @cached_property
    def dof(self) -> int:
        return len(self.axes)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.points for ax in self.axes)

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def spacing(self, axis: int) -> float:
        ax = self.axes[axis]
        return ax.extent / ax.points

    def dual_spacing(self, axis: int) -> float:
        ax = self.axes[axis]
        return 2.0 * np.pi * self.hbar / (ax.points * self.spacing(axis))

    def positions(self, axis: int) -> np.ndarray:
        ax = self.axes[axis]
        return ax.center + (np.arange(ax.points) - ax.points // 2) * self.spacing(axis)

    def momenta(self, axis: int) -> np.ndarray:
        ax = self.axes[axis]
        return (np.arange(ax.points) - ax.points // 2) * self.dual_spacing(axis)

    def axis_points(self, rep: Representation, axis: int) -> np.ndarray:
        return self.positions(axis) if rep is Representation.POSITION else self.momenta(axis)

    def step(self, rep: Representation, axis: int) -> float:
        return self.spacing(axis) if rep is Representation.POSITION else self.dual_spacing(axis)

    def mesh(self, rep: Representation) -> tuple[np.ndarray, ...]:
        """Sparse broadcastable coordinate arrays, one per axis."""
        pts = [self.axis_points(rep, a) for a in range(self.dof)]
        return tuple(np.meshgrid(*pts, indexing="ij", sparse=True))

    def cell_volume(self, rep: Representation) -> float:
        out = 1.0
        for a in range(self.dof):
            out *= self.step(rep, a)
        return out


def grid_1d(points: int, extent: float, center: float = 0.0, hbar: float = 1.0) -> GridSpec:
    return GridSpec(axes=(GridAxis(points, extent, center),), hbar=hbar)


def grid_2d(
    points: int,
    extent: float,
    points2: int | None = None,
    extent2: float | None = None,
    hbar: float = 1.0,
) -> GridSpec:
    p2 = points if points2 is None else points2
    e2 = extent if extent2 is None else extent2
    return GridSpec(axes=(GridAxis(points, extent), GridAxis(p2, e2)), hbar=hbar)


@dataclass(frozen=True)
class ComplexField:
    """Complex wavefunction samples on a grid, tagged by representation.

    Values are copied on construction and frozen; fields are immutable
    snapshots safe for concurrent readers.
    """

    grid: GridSpec
    rep: Representation
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.shape != self.grid.shape:
            raise ConfigurationError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm(self) -> float:
        """Quadrature L2 norm: sqrt(sum |psi|^2 * cell volume)."""
        return float(
            np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume(self.rep))
        )

    def normalized(self) -> "ComplexField":
        n = self.norm()
        if n == 0.0:
            raise ConfigurationError("cannot normalize a zero field")
        return ComplexField(self.grid, self.rep, self.values / n, self.time)

    def with_values(self, values: np.ndarray, time: float | None = None) -> "ComplexField":
        return ComplexField(self.grid, self.rep, values, self.time if time is None else time)


@dataclass(frozen=True)
class MaskedVectorField:
    """Real vector field on a grid with a per-point validity mask.

    ``components`` has shape (k,) + grid.shape: k = dof for a velocity or
    position field, 2 dof for a pair of such fields stacked so that one
    interpolation stencil serves both. Points where the underlying density
    falls below the node threshold are marked invalid and must not be used by
    interpolation stencils.
    """

    grid: GridSpec
    rep: Representation
    components: np.ndarray
    valid: np.ndarray
    time: float = 0.0


NODE_DENSITY_FACTOR = 1e-12


def node_mask(density: np.ndarray) -> np.ndarray:
    """Valid points: density at or above 1e-12 of its maximum."""
    peak = density.max()
    if peak <= 0.0:
        return np.zeros_like(density, dtype=bool)
    return density >= NODE_DENSITY_FACTOR * peak


# -- Fourier transform pair ----------------------------------------------------


@lru_cache(maxsize=64)
def _transform_plan(grid: GridSpec):
    """Per-axis phase and scale factors for the forward/backward transforms."""
    pre_f, post_f, pre_b, post_b = [], [], [], []
    scale_f = 1.0
    scale_b = 1.0
    for a in range(grid.dof):
        n = grid.axes[a].points
        dx = grid.spacing(a)
        dp = grid.dual_spacing(a)
        x = grid.positions(a)
        p = grid.momenta(a)
        hb = grid.hbar
        pre_f.append(np.exp(-1j * (np.arange(n) * dx) * p[0] / hb))
        post_f.append(np.exp(-1j * x[0] * p / hb))
        pre_b.append(np.exp(1j * x[0] * (np.arange(n) * dp) / hb))
        post_b.append(np.exp(1j * x * p[0] / hb))
        scale_f *= dx / np.sqrt(2.0 * np.pi * hb)
        scale_b *= dp * n / np.sqrt(2.0 * np.pi * hb)
    return pre_f, post_f, pre_b, post_b, scale_f, scale_b


def _outer(vectors: list[np.ndarray]) -> np.ndarray:
    out = vectors[0]
    for v in vectors[1:]:
        out = out[..., None] * v
    return out


def to_momentum(field: ComplexField) -> ComplexField:
    """Forward transform, position -> momentum representation.

    Unitary with respect to the quadrature norms; the exact inverse of
    :func:`to_position`.
    """
    if field.rep is not Representation.POSITION:
        raise ConfigurationError("to_momentum expects a position-representation field")
    pre_f, post_f, _, _, scale_f, _ = _transform_plan(field.grid)
    out = scale_f * _outer(post_f) * np.fft.fftn(_outer(pre_f) * field.values)
    return ComplexField(field.grid, Representation.MOMENTUM, out, field.time)


def to_position(field: ComplexField) -> ComplexField:
    """Backward transform, momentum -> position representation."""
    if field.rep is not Representation.MOMENTUM:
        raise ConfigurationError("to_position expects a momentum-representation field")
    _, _, pre_b, post_b, _, scale_b = _transform_plan(field.grid)
    out = scale_b * _outer(post_b) * np.fft.ifftn(_outer(pre_b) * field.values)
    return ComplexField(field.grid, Representation.POSITION, out, field.time)


# -- spectral calculus -----------------------------------------------------------


@lru_cache(maxsize=64)
def _wavenumbers(grid: GridSpec, rep: Representation):
    """Angular frequencies conjugate to each axis, Nyquist mode zeroed for
    odd-derivative use."""
    ws = []
    for a in range(grid.dof):
        n = grid.axes[a].points
        w = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.step(rep, a))
        ws.append(w)
    return ws


@lru_cache(maxsize=64)
def _k_squared(grid: GridSpec, rep: Representation) -> np.ndarray:
    """|k|^2 on the grid, the Laplacian's symbol up to sign (read-only)."""
    k2 = np.zeros(grid.shape)
    for a, w in enumerate(_wavenumbers(grid, rep)):
        shape = [1] * grid.dof
        shape[a] = len(w)
        k2 = k2 + (w**2).reshape(shape)
    k2.setflags(write=False)
    return k2


def _axis_multiplier(grid: GridSpec, rep: Representation, axis: int) -> np.ndarray:
    w = _wavenumbers(grid, rep)[axis].copy()
    n = grid.axes[axis].points
    w[n // 2] = 0.0  # drop the unpaired Nyquist mode in first derivatives
    shape = [1] * grid.dof
    shape[axis] = n
    return (1j * w).reshape(shape)


def spectral_gradient(values: np.ndarray, grid: GridSpec, rep: Representation) -> np.ndarray:
    """Per-axis spectral derivative; shape (dof,) + grid.shape.

    Real input yields real output (up to roundoff, which is discarded).
    """
    fhat = np.fft.fftn(values)
    comps = np.empty((grid.dof,) + grid.shape, dtype=np.complex128)
    for a in range(grid.dof):
        comps[a] = np.fft.ifftn(_axis_multiplier(grid, rep, a) * fhat)
    if not np.iscomplexobj(values):
        return comps.real
    return comps


def spectral_divergence(components: np.ndarray, grid: GridSpec, rep: Representation) -> np.ndarray:
    out = np.zeros(grid.shape, dtype=np.complex128)
    for a in range(grid.dof):
        fhat = np.fft.fftn(components[a])
        out += np.fft.ifftn(_axis_multiplier(grid, rep, a) * fhat)
    if not np.iscomplexobj(components):
        return out.real
    return out


def spectral_laplacian(values: np.ndarray, grid: GridSpec, rep: Representation) -> np.ndarray:
    out = np.fft.ifftn(-_k_squared(grid, rep) * np.fft.fftn(values))
    return out.real if not np.iscomplexobj(values) else out


INVERSE_LAPLACIAN_MEAN_TOL = 1e-6
INVERSE_LAPLACIAN_DEAD_BAND = 1e-12


def spectral_inverse_laplacian(
    values: np.ndarray, grid: GridSpec, rep: Representation
) -> np.ndarray:
    """Solve laplacian(F) = f on the periodic grid with zero-mean gauge.

    The source must integrate to ~0 over the grid (|integral| <= 1e-6 * L1
    norm), otherwise the problem has no periodic solution and an
    IllPosedSourceError is raised. Sources whose integral is below an
    absolute dead band count as balanced (a source that is zero up to
    roundoff carries no meaningful L1 scale to compare against). The
    zero-frequency mode of F is set to 0.
    """
    vol = grid.cell_volume(rep)
    total = abs(np.sum(values) * vol)
    l1 = np.sum(np.abs(values)) * vol
    if total > max(INVERSE_LAPLACIAN_MEAN_TOL * l1, INVERSE_LAPLACIAN_DEAD_BAND):
        raise IllPosedSourceError(
            f"source integral {total:.3e} exceeds {INVERSE_LAPLACIAN_MEAN_TOL:.0e} * L1 ({l1:.3e})"
        )
    k2 = _k_squared(grid, rep)
    fhat = np.fft.fftn(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        out_hat = np.where(k2 > 0.0, -fhat / k2, 0.0)
    out = np.fft.ifftn(out_hat)
    return out.real if not np.iscomplexobj(values) else out


def local_position_field(field: ComplexField, grad: np.ndarray | None = None) -> MaskedVectorField:
    """Position readout x(p) = Re(psi~* (i hbar grad) psi~) / |psi~|^2.

    Equals minus the momentum-space phase gradient, computed in ratio form
    (never by phase unwrapping, which is ill-defined at nodes). Grid points
    with density below the node threshold are flagged invalid. `grad` passes
    in the field's `spectral_gradient` when the caller already has it.
    """
    if field.rep is not Representation.MOMENTUM:
        raise ConfigurationError("local_position_field expects a momentum-representation field")
    rho = field.density()
    valid = node_mask(rho)
    if grad is None:
        grad = spectral_gradient(field.values, field.grid, field.rep)
    comps = np.zeros((field.grid.dof,) + field.grid.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(field.grid.dof):
            raw = np.real(np.conj(field.values) * (1j * field.grid.hbar * grad[a])) / rho
            comps[a] = np.where(valid, raw, 0.0)
    return MaskedVectorField(field.grid, field.rep, comps, valid, field.time)


# -- diagnostics -----------------------------------------------------------------


def boundary_mass_fraction(field: ComplexField, cells: int = 3) -> float:
    """Largest per-axis probability fraction within `cells` of either edge."""
    rho = field.density()
    total = rho.sum()
    if total == 0.0:
        return 0.0
    worst = 0.0
    for a in range(field.grid.dof):
        sl_lo = [slice(None)] * field.grid.dof
        sl_hi = [slice(None)] * field.grid.dof
        sl_lo[a] = slice(0, cells)
        sl_hi[a] = slice(-cells, None)
        frac = (rho[tuple(sl_lo)].sum() + rho[tuple(sl_hi)].sum()) / total
        worst = max(worst, float(frac))
    return worst
