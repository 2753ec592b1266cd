"""Initial-state recipes used by the scenario catalog.

All builders return grid-normalized position-representation fields. Gaussian
width convention: psi(x) ~ exp(-(x-x0)^2 / (2 sigma^2)), so the position
density has standard deviation sigma/sqrt(2) and the momentum density
hbar/(sigma*sqrt(2)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import ComplexField, GridSpec, Representation


def _gaussian_1d(x: np.ndarray, sigma: float, center: float, boost: float, hbar: float) -> np.ndarray:
    amp = (np.pi * sigma**2) ** -0.25
    return amp * np.exp(-((x - center) ** 2) / (2.0 * sigma**2) + 1j * boost * x / hbar)


def gaussian_state(
    grid: GridSpec,
    sigma: float = 1.0,
    center: float | tuple[float, ...] = 0.0,
    boost: float | tuple[float, ...] = 0.0,
) -> ComplexField:
    """Product Gaussian packet, optionally shifted and momentum-boosted per axis."""
    centers = np.broadcast_to(np.asarray(center, dtype=float), (grid.dof,))
    boosts = np.broadcast_to(np.asarray(boost, dtype=float), (grid.dof,))
    vals = np.ones(grid.shape, dtype=np.complex128)
    for a in range(grid.dof):
        axis_vals = _gaussian_1d(grid.positions(a), sigma, centers[a], boosts[a], grid.hbar)
        shape = [1] * grid.dof
        shape[a] = grid.axes[a].points
        vals = vals * axis_vals.reshape(shape)
    return ComplexField(grid, Representation.POSITION, vals).normalized()


@dataclass(frozen=True)
class SuperpositionState:
    """Normalized superposition plus its overlap-aware normalization factor."""

    field: ComplexField
    norm_factor: float
    overlap: float


OVERLAP_WARN_RATIO = 3.0  # superposition_state warns when 0 < |a| < this many sigma


def superposition_state(grid: GridSpec, a: float, sigma: float = 1.0) -> SuperpositionState:
    """Equal-weight superposition of two packets shifted to +-a along every axis.

    The returned norm factor N satisfies field = N*c*(psi_{+a} + psi_{-a})
    with grid-normalized field and c = 1/sqrt(2).
    """
    if abs(a) < OVERLAP_WARN_RATIO * sigma and a != 0.0:
        warnings.warn(
            f"packet shift |a|={abs(a):.3g} below {OVERLAP_WARN_RATIO} sigma: "
            "packets overlap appreciably",
            stacklevel=2,
        )
    plus = gaussian_state(grid, sigma=sigma, center=a)
    minus = gaussian_state(grid, sigma=sigma, center=-a)
    c = 2**-0.5
    raw = c * plus.values + c * minus.values
    raw_field = ComplexField(grid, Representation.POSITION, raw)
    nf = 1.0 / raw_field.norm()
    ov = float(
        np.real(np.sum(np.conj(plus.values) * minus.values))
        * grid.cell_volume(Representation.POSITION)
    )
    return SuperpositionState(raw_field.normalized(), nf, ov)


@dataclass(frozen=True)
class TwoPacketState:
    """Momentum-space two-packet superposition with its normalized branches."""

    field: ComplexField
    branches: tuple[ComplexField, ComplexField]
    branch_weights: tuple[float, float]
    norm_factor: float


def two_packet_momentum_state(
    grid: GridSpec, delta_p: float, sigma: float = 1.0
) -> TwoPacketState:
    """Equal-weight superposition of packets boosted to +-delta_p/2.

    In the momentum representation this is two Gaussians separated by
    delta_p. Branch weights give the squared amplitude each normalized
    branch carries inside the full state.
    """
    plus = gaussian_state(grid, sigma=sigma, boost=delta_p / 2.0)
    minus = gaussian_state(grid, sigma=sigma, boost=-delta_p / 2.0)
    raw = (plus.values + minus.values) / np.sqrt(2.0)
    raw_field = ComplexField(grid, Representation.POSITION, raw)
    nf = 1.0 / raw_field.norm()
    w = nf**2 / 2.0
    return TwoPacketState(raw_field.normalized(), (plus, minus), (w, w), nf)


@dataclass(frozen=True)
class MeasurementState:
    """Pointer (+) environment product-superposition for the 2-dof scenario."""

    field: ComplexField
    weights: tuple[float, float]
    env_overlap: float


ENV_OVERLAP_TOL = 1e-8  # largest environment packet overlap measurement_state accepts


def measurement_state(
    grid: GridSpec,
    a: float,
    dpe: float,
    c1: float,
    c2: float,
    sigma: float = 1.0,
    sigma_env: float = 1.0,
) -> MeasurementState:
    """c1*psi(x-a)*chi_+(xe) + c2*psi(x+a)*chi_-(xe) on a 2-dof grid.

    chi_+- are environment packets boosted by +-dpe/2; their momentum-space
    overlap must not exceed ENV_OVERLAP_TOL, otherwise the post-measurement
    factorization assumed by the scenario does not hold.
    """
    if grid.dof != 2:
        raise ConfigurationError("measurement state requires a 2-dof grid")
    csum = c1**2 + c2**2
    c1, c2 = c1 / np.sqrt(csum), c2 / np.sqrt(csum)
    x0 = grid.positions(0)
    x1 = grid.positions(1)
    pointer_plus = _gaussian_1d(x0, sigma, a, 0.0, grid.hbar)
    pointer_minus = _gaussian_1d(x0, sigma, -a, 0.0, grid.hbar)
    env_plus = _gaussian_1d(x1, sigma_env, 0.0, dpe / 2.0, grid.hbar)
    env_minus = _gaussian_1d(x1, sigma_env, 0.0, -dpe / 2.0, grid.hbar)
    dx1 = grid.spacing(1)
    env_overlap = abs(np.sum(np.conj(env_plus) * env_minus) * dx1)
    if env_overlap > ENV_OVERLAP_TOL:
        raise ConfigurationError(
            f"environment packet overlap {env_overlap:.3e} exceeds {ENV_OVERLAP_TOL:.0e}; "
            "increase dpe or sigma_env"
        )
    vals = c1 * np.outer(pointer_plus, env_plus) + c2 * np.outer(pointer_minus, env_minus)
    f = ComplexField(grid, Representation.POSITION, vals).normalized()
    return MeasurementState(f, (float(c1**2), float(c2**2)), float(env_overlap))


def coherent_state(grid: GridSpec, displacement: float, mass: float = 1.0, omega: float = 1.0) -> ComplexField:
    """Harmonic-oscillator coherent state: displaced ground-state Gaussian."""
    sigma = np.sqrt(grid.hbar / (mass * omega))
    return gaussian_state(grid, sigma=sigma, center=displacement)
