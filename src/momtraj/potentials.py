"""The quadratic potential, its application, and the interaction source.

The catalog is exactly the potentials with a momentum-space differential-
operator form, the polynomials of degree <= 2, each one per-axis sum:

    V(x) = sum_a c_a x_a + k_a x_a^2 / 2
         <->  sum_a c_a (i hbar d/dp_a) - (k_a hbar^2 / 2) d^2/dp_a^2

`Free()` builds c = k = 0, `Linear(c)` k = 0 and `Harmonic(k)` c = 0.

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
class Potential:
    """V(x) = sum_a c_a x_a + k_a x_a^2 / 2; c and k each hold 1 value (every
    axis's) or one per axis."""

    c: tuple[float, ...]
    k: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("c", "k"):
            values = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, tuple(values))

    @property
    def is_zero(self) -> bool:
        return not any(self.c) and not any(self.k)

    def axes(self, dof: int) -> list[tuple[int, float, float]]:
        """(a, c_a, k_a) of each axis a of a `dof`-axis grid."""
        for name, values in (("linear coefficients", self.c), ("spring constants", self.k)):
            if len(values) not in (1, dof):
                raise ConfigurationError(
                    f"{name} need 1 or {dof} per-axis values, got {len(values)}")
        return [(a, self.c[a % len(self.c)], self.k[a % len(self.k)]) for a in range(dof)]


def Free() -> Potential:
    return Potential(0.0, 0.0)


def Linear(c: float | tuple[float, ...]) -> Potential:
    """V(x) = sum_a c_a x_a."""
    return Potential(c, 0.0)


def Harmonic(k: float | tuple[float, ...]) -> Potential:
    """V(x) = sum_a k_a x_a^2 / 2, each spring constant k_a > 0 (m w^2 for a mass m
    oscillating at w)."""
    pot = Potential(0.0, k)
    if not all(v > 0 for v in pot.k):
        raise ConfigurationError(f"harmonic potential requires spring constants > 0, got {k}")
    return pot


def evaluate_potential(potential: Potential, grid: GridSpec) -> np.ndarray:
    """V sampled on the position grid."""
    mesh = grid.mesh(Representation.POSITION)
    out = np.zeros(grid.shape)
    for a, c, k in potential.axes(grid.dof):
        if c:
            out = out + c * mesh[a]
        if k:
            out = out + 0.5 * k * mesh[a] ** 2
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
    grad = spectral_gradient(psi_p.values, grid, Representation.MOMENTUM)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for a, c, k in potential.axes(grid.dof):
        if c:
            out += c * (1j * grid.hbar) * grad[a]
        if k:
            grad2 = spectral_gradient(grad[a], grid, Representation.MOMENTUM)[a]
            out += -0.5 * k * grid.hbar**2 * grad2
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
