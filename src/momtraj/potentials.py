"""Potential variants, their application, and the interaction source.

The catalog is exactly the potentials with a momentum-space differential-
operator form, the polynomials of degree <= 2:

    Free     0          <->  0
    Linear   c.x        <->  c . (i hbar d/dp)
    Harmonic m w^2 x^2/2 <-> -(m w^2 hbar^2 / 2) d^2/dp^2   (per axis)

The interaction source is the divergence source of the momentum-density
continuity equation:

    I(p) = (2/hbar) Re( i psi~*(p) F[V psi](p) )

Its grid integral vanishes (global probability conservation) to roundoff
because the transform is quadrature-unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import (
    ComplexField,
    GridSpec,
    Representation,
    _frozen,
    spectral_gradient,
    to_momentum,
)


@dataclass(frozen=True)
class Free:
    pass


@dataclass(frozen=True)
class Linear:
    """V(x) = sum_k c_k x_k."""

    c: tuple[float, ...]

    def __init__(self, c: float | tuple[float, ...]):
        object.__setattr__(self, "c", tuple(np.atleast_1d(np.asarray(c, dtype=float))))


@dataclass(frozen=True)
class Harmonic:
    """V(x) = sum_k m_k w_k^2 x_k^2 / 2."""

    mass: tuple[float, ...]
    omega: tuple[float, ...]

    def __init__(self, mass: float | tuple[float, ...], omega: float | tuple[float, ...]):
        m = tuple(np.atleast_1d(np.asarray(mass, dtype=float)))
        w = tuple(np.atleast_1d(np.asarray(omega, dtype=float)))
        if any(v <= 0 for v in m) or any(v <= 0 for v in w):
            raise ConfigurationError("harmonic potential requires mass > 0 and omega > 0")
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "omega", w)


Potential = Free | Linear | Harmonic


def _per_axis(values: float | tuple[float, ...], dof: int, name: str) -> tuple[float, ...]:
    """`values`, a scalar or 1 or `dof` of them, as a tuple of `dof` floats, one per axis."""
    values = tuple(np.atleast_1d(np.asarray(values, dtype=float)))
    if len(values) == 1:
        return values * dof
    if len(values) != dof:
        raise ConfigurationError(f"{name} needs 1 or {dof} per-axis values, got {len(values)}")
    return values


def evaluate_potential(potential: Potential, grid: GridSpec) -> np.ndarray:
    """V sampled on the position grid."""
    if isinstance(potential, Free):
        return np.zeros(grid.shape)
    if isinstance(potential, Linear):
        cs = _per_axis(potential.c, grid.dof, "linear coefficients")
        mesh = grid.mesh(Representation.POSITION)
        out = np.zeros(grid.shape)
        for a in range(grid.dof):
            out = out + cs[a] * mesh[a]
        return out
    ms = _per_axis(potential.mass, grid.dof, "harmonic masses")
    ws = _per_axis(potential.omega, grid.dof, "harmonic frequencies")
    mesh = grid.mesh(Representation.POSITION)
    out = np.zeros(grid.shape)
    for a in range(grid.dof):
        out = out + 0.5 * ms[a] * ws[a] ** 2 * mesh[a] ** 2
    return out


def apply_potential(potential: Potential, psi_x: ComplexField) -> ComplexField:
    """Pointwise product V(x) psi(x)."""
    if psi_x.rep is not Representation.POSITION:
        raise ConfigurationError("apply_potential expects a position-representation field")
    v = evaluate_potential(potential, psi_x.grid)
    return psi_x.with_values(_frozen(v * psi_x.values))


def apply_potential_momentum_operator(potential: Potential, psi_p: ComplexField) -> ComplexField:
    """F[V psi] computed directly in the momentum representation: the
    independent route when cross-checking the interaction source."""
    if psi_p.rep is not Representation.MOMENTUM:
        raise ConfigurationError("expected a momentum-representation field")
    grid = psi_p.grid
    if isinstance(potential, Free):
        return psi_p.with_values(np.zeros(grid.shape, dtype=np.complex128))
    if isinstance(potential, Linear):
        cs = _per_axis(potential.c, grid.dof, "linear coefficients")
        grad = spectral_gradient(psi_p.values, grid, Representation.MOMENTUM)
        out = np.zeros(grid.shape, dtype=np.complex128)
        for a in range(grid.dof):
            out += cs[a] * (1j * grid.hbar) * grad[a]
        return psi_p.with_values(out)
    ms = _per_axis(potential.mass, grid.dof, "harmonic masses")
    ws = _per_axis(potential.omega, grid.dof, "harmonic frequencies")
    grad = spectral_gradient(psi_p.values, grid, Representation.MOMENTUM)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for a in range(grid.dof):
        grad2 = spectral_gradient(grad[a], grid, Representation.MOMENTUM)[a]
        out += -0.5 * ms[a] * ws[a] ** 2 * grid.hbar**2 * grad2
    return psi_p.with_values(out)


def interaction_source(
    potential: Potential, psi_x: ComplexField, psi_p: ComplexField
) -> np.ndarray:
    """Continuity-equation source I = (2/hbar) Re(i psi~* F[V psi]), frame by frame."""
    if psi_x.grid != psi_p.grid:
        raise ConfigurationError("position and momentum fields must share a grid")
    if np.any(np.not_equal(psi_x.time, psi_p.time)):
        raise ConfigurationError(
            f"field time stamps differ: {psi_x.time} vs {psi_p.time}"
        )
    v_psi = apply_potential(potential, psi_x)
    fv = to_momentum(v_psi)
    hb = psi_p.grid.hbar
    return (2.0 / hb) * np.real(1j * np.conj(psi_p.values) * fv.values)


def interaction_source_operator(potential: Potential, psi_p: ComplexField) -> np.ndarray:
    """Interaction source via the momentum-space operator form (dual route)."""
    fv = apply_potential_momentum_operator(potential, psi_p)
    hb = psi_p.grid.hbar
    return (2.0 / hb) * np.real(1j * np.conj(psi_p.values) * fv.values)
