"""Uniform Fourier-dual grids, complex fields, and spectral calculus.

Position and momentum grids form an exact discrete Fourier pair: with n
points, spacing dx and dual spacing dp, n * dx * dp = 2*pi*hbar holds by
construction. The transform pair approximates the continuum convention

    psi~(p) = (2*pi*hbar)^(-d/2) * integral dx exp(-i x.p/hbar) psi(x)

with the Riemann cell weight folded in, which makes it exactly unitary with
respect to the grid quadrature norms (Plancherel holds to roundoff).

Spectral derivatives on the momentum grid treat fields as periodic; they are
exact for states whose position-space content lies inside the centered
window [-extent/2, extent/2), which every grid axis is. Keep probability
mass away from the edges (the propagator enforces this) and the spectral
calculus is accurate to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigurationError, IllPosedSourceError

MAX_DOF = 2

# Grid points per array of a block of frames, which batched calls take at once: 64
# frames of a 512-point grid, one frame of a 256 x 256 grid, whose single frame is
# already enough work per numpy call
BLOCK_POINTS = 2**15


class Representation(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class GridAxis:
    """One scalar degree of freedom: point count and full width of a window centered
    at the origin."""

    points: int
    extent: float

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

    @cached_property
    def block_frames(self) -> int:
        """Frames per block of frames: as many as fit in BLOCK_POINTS points, at least one."""
        return max(1, BLOCK_POINTS // self.size)

    def derived(self, build, *args):
        """`build(self, *args)`, built on first use and kept in the instance dict like the
        properties above, so it lives and dies with this grid, not with the process; an
        equal grid builds its own. `args` must be hashable."""
        memo = self.__dict__.setdefault("_derived", {})
        key = (build, *args)
        if key not in memo:
            memo[key] = build(self, *args)
        return memo[key]

    def spacing(self, axis: int) -> float:
        ax = self.axes[axis]
        return ax.extent / ax.points

    def dual_spacing(self, axis: int) -> float:
        ax = self.axes[axis]
        return 2.0 * np.pi * self.hbar / (ax.points * self.spacing(axis))

    def positions(self, axis: int) -> np.ndarray:
        ax = self.axes[axis]
        return (np.arange(ax.points) - ax.points // 2) * self.spacing(axis)

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


def grid_1d(points: int, extent: float, hbar: float = 1.0) -> GridSpec:
    return GridSpec(axes=(GridAxis(points, extent),), hbar=hbar)


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


def _frozen(values: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, so that a field adopts it without a copy."""
    values.setflags(write=False)
    return values


def _readonly(values, dtype) -> np.ndarray:
    """`values` as a read-only `dtype` array, copied unless it and every array it views
    are read-only (then nothing can change it)."""
    arr = owner = np.asarray(values)
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if isinstance(owner, np.ndarray) or arr.dtype != dtype:
        arr = _frozen(np.array(arr, dtype=dtype))
    return arr


@dataclass(frozen=True)
class ComplexField:
    """Complex wavefunction samples on a grid, tagged by representation.

    One frame, or a block of frames on a leading axis with one time each.
    Values are read-only (adopted by `_readonly`); fields are immutable
    snapshots safe for concurrent readers.
    """

    grid: GridSpec
    rep: Representation
    values: np.ndarray
    time: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        vals = _readonly(self.values, np.complex128)
        if vals.shape[vals.ndim - self.grid.dof:] != self.grid.shape:
            raise ConfigurationError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm(self) -> float:
        """Quadrature L2 norm: sqrt(sum |psi|^2 * cell volume)."""
        return float(np.sqrt(np.sum(self.density()) * self.grid.cell_volume(self.rep)))

    def normalized(self) -> "ComplexField":
        n = self.norm()
        if n == 0.0:
            raise ConfigurationError("cannot normalize a zero field")
        return ComplexField(self.grid, self.rep, self.values / n, self.time)

    def with_values(self, values: np.ndarray) -> "ComplexField":
        return ComplexField(self.grid, self.rep, values, self.time)


@dataclass(frozen=True)
class MaskedVectorField:
    """Real vector field on a grid with a per-point validity mask.

    ``components`` has shape (k,) + grid.shape: k = dof for a velocity or
    position field, a multiple of dof for several such fields stacked so that
    one interpolation stencil serves them all. Points where the underlying
    density falls below the node threshold are marked invalid and must not be
    used by interpolation stencils. A block of frames puts its frame axis
    before the grid axes of both arrays.
    """

    grid: GridSpec
    rep: Representation
    components: np.ndarray
    valid: np.ndarray


NODE_DENSITY_FACTOR = 1e-12


def grid_axes(grid: GridSpec) -> tuple[int, ...]:
    """The trailing array axes that hold the grid; any axis before them counts frames."""
    return tuple(range(-grid.dof, 0))


def node_mask(density: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Valid points: density at or above 1e-12 of its frame's maximum (none if that is 0)."""
    peak = density.max(axis=grid_axes(grid), keepdims=True)
    return (density >= NODE_DENSITY_FACTOR * peak) & (peak > 0.0)


# -- Fourier transform pair ----------------------------------------------------


def _transform_plan(grid: GridSpec):
    """`_transform`'s read-only factors pre_f, post_f, pre_b and post_b, the post factors
    carrying the scales, then the grid's array axes in the order its 1d FFTs take them."""
    pre_f, post_f, pre_b, post_b = [], [], [], []
    scale_f = scale_b = 1.0
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
    pre_f, post_f, pre_b, post_b = (reduce(np.multiply.outer, factors)
                                    for factors in (pre_f, post_f, pre_b, post_b))
    return tuple(_frozen(arr) for arr in (pre_f, scale_f * post_f, pre_b, scale_b * post_b)) + (
        tuple(reversed(grid_axes(grid))),)


def _transform(plan: tuple, values: np.ndarray, backward: bool = False,
               out: np.ndarray | None = None) -> np.ndarray:
    """post_f * fftn(pre_f * values) over the grid axes, or post_b * ifftn(pre_b * values),
    by a grid's `_transform_plan`, each step in place in `out` (a new array by default),
    which may be `values`."""
    pre, post = plan[2:4] if backward else plan[:2]
    # factor first in every product: a*b and b*a may round differently (FMA)
    out = np.multiply(pre, values, out=out)
    fft = np.fft.ifft if backward else np.fft.fft
    for axis in plan[4]:  # fftn's loop and bits, without its nd wrapper
        fft(out, axis=axis, out=out)
    return np.multiply(post, out, out=out)


def to_momentum(field: ComplexField) -> ComplexField:
    """Forward transform, position -> momentum representation.

    Unitary with respect to the quadrature norms; the exact inverse of
    :func:`to_position`.
    """
    if field.rep is not Representation.POSITION:
        raise ConfigurationError("to_momentum expects a position-representation field")
    out = _transform(field.grid.derived(_transform_plan), field.values)
    return ComplexField(field.grid, Representation.MOMENTUM, _frozen(out), field.time)


def to_position(field: ComplexField) -> ComplexField:
    """Backward transform, momentum -> position representation."""
    if field.rep is not Representation.MOMENTUM:
        raise ConfigurationError("to_position expects a momentum-representation field")
    out = _transform(field.grid.derived(_transform_plan), field.values, backward=True)
    return ComplexField(field.grid, Representation.POSITION, _frozen(out), field.time)


# -- spectral calculus -----------------------------------------------------------


def _wavenumbers(grid: GridSpec, rep: Representation, axis: int) -> np.ndarray:
    """Angular frequencies conjugate to one axis, a fresh array shaped to broadcast
    over the grid."""
    shape = [1] * grid.dof
    shape[axis] = n = grid.axes[axis].points
    return (2.0 * np.pi * np.fft.fftfreq(n, d=grid.step(rep, axis))).reshape(shape)


def _k_squared(grid: GridSpec, rep: Representation) -> np.ndarray:
    """|k|^2 on the grid, the Laplacian's symbol up to sign."""
    return sum(_wavenumbers(grid, rep, a) ** 2 for a in range(grid.dof))


def _axis_multiplier(grid: GridSpec, rep: Representation, axis: int) -> np.ndarray:
    w = _wavenumbers(grid, rep, axis)
    w.flat[grid.axes[axis].points // 2] = 0.0  # drop the unpaired Nyquist mode in first derivatives
    return 1j * w


def spectral_gradient(values: np.ndarray, grid: GridSpec, rep: Representation) -> np.ndarray:
    """Per-axis spectral derivative; shape (dof,) + values.shape.

    Real input yields real output (up to roundoff, which is discarded).
    """
    axes = grid_axes(grid)
    fhat = np.fft.fftn(values, axes=axes)
    comps = np.empty((grid.dof,) + fhat.shape, dtype=np.complex128)
    for a in range(grid.dof):
        comps[a] = np.fft.ifftn(_axis_multiplier(grid, rep, a) * fhat, axes=axes)
    return comps.real if not np.iscomplexobj(values) else comps


def spectral_divergence(components: np.ndarray, grid: GridSpec, rep: Representation) -> np.ndarray:
    axes = grid_axes(grid)
    out = np.zeros(components.shape[1:], dtype=np.complex128)
    for a in range(grid.dof):
        fhat = np.fft.fftn(components[a], axes=axes)
        out += np.fft.ifftn(_axis_multiplier(grid, rep, a) * fhat, axes=axes)
    return out.real if not np.iscomplexobj(components) else out


def spectral_laplacian(values: np.ndarray, grid: GridSpec, rep: Representation) -> np.ndarray:
    axes = grid_axes(grid)
    out = np.fft.ifftn(-_k_squared(grid, rep) * np.fft.fftn(values, axes=axes), axes=axes)
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
    zero-frequency mode of F is set to 0. A block of sources is solved frame
    by frame; the error names the first ill-posed frame.
    """
    axes = grid_axes(grid)
    vol = grid.cell_volume(rep)
    total = np.abs(np.sum(values, axis=axes) * vol)
    l1 = np.sum(np.abs(values), axis=axes) * vol
    bad = total > np.maximum(INVERSE_LAPLACIAN_MEAN_TOL * l1, INVERSE_LAPLACIAN_DEAD_BAND)
    if bad.any():
        total, l1 = total.flat[bad.argmax()], l1.flat[bad.argmax()]
        raise IllPosedSourceError(
            f"source integral {total:.3e} exceeds {INVERSE_LAPLACIAN_MEAN_TOL:.0e} * L1 ({l1:.3e})"
        )
    k2 = _k_squared(grid, rep)
    fhat = np.fft.fftn(values, axes=axes)
    with np.errstate(divide="ignore", invalid="ignore"):
        out_hat = np.where(k2 > 0.0, -fhat / k2, 0.0)
    out = np.fft.ifftn(out_hat, axes=axes)
    return out.real if not np.iscomplexobj(values) else out


def local_position_field(field: ComplexField, grad: np.ndarray) -> MaskedVectorField:
    """Position readout x(p) = Re(psi~* (i hbar grad) psi~) / |psi~|^2.

    Equals minus the momentum-space phase gradient, computed in ratio form
    (never by phase unwrapping, which is ill-defined at nodes). Grid points
    with density below the node threshold are flagged invalid. `grad` is the
    field's `spectral_gradient`, which a FrameBlock computes once for all its readers.
    """
    if field.rep is not Representation.MOMENTUM:
        raise ConfigurationError("local_position_field expects a momentum-representation field")
    numerator = np.real(np.conj(field.values) * (1j * field.grid.hbar * grad))
    return _masked_ratio(field.grid, field.rep, numerator, field.density())


def _masked_ratio(grid: GridSpec, rep: Representation, numerator: np.ndarray,
                 density: np.ndarray, masses: tuple[float, ...] | None = None
                 ) -> MaskedVectorField:
    """numerator[a] / density, or numerator[a] / (masses[a] * density), per axis a, and 0
    at the points `node_mask` flags: the read-only x(p) readout and velocity fields."""
    valid = node_mask(density, grid)
    comps = np.zeros(numerator.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(grid.dof):
            divisor = density if masses is None else masses[a] * density
            comps[a] = np.where(valid, numerator[a] / divisor, 0.0)
    return MaskedVectorField(grid, rep, _frozen(comps), _frozen(valid))


# -- diagnostics -----------------------------------------------------------------


# The edge band: the cells at either end of each axis, and the probability
# fraction it may hold before propagation stops with BoundaryMassError.
BOUNDARY_CELLS = 3
BOUNDARY_MASS_TOL = 1e-8


def boundary_mass_fraction(field: ComplexField) -> np.ndarray:
    """Largest per-axis probability fraction within BOUNDARY_CELLS of either edge, per
    frame (0 for a zero frame)."""
    rho = field.density()
    axes = grid_axes(field.grid)
    total = rho.sum(axis=axes)
    worst = np.zeros(total.shape)
    for a in axes:
        edge = [slice(None)] * rho.ndim
        edge[a] = slice(0, BOUNDARY_CELLS)
        lo = rho[tuple(edge)].sum(axis=axes)
        edge[a] = slice(-BOUNDARY_CELLS, None)
        frac = np.divide(lo + rho[tuple(edge)].sum(axis=axes), total,
                         out=np.zeros(total.shape), where=total != 0.0)
        worst = np.maximum(worst, frac)
    return worst
