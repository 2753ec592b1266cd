"""Momentum-space probability currents and the continuity residual.

The momentum density obeys d|psi~|^2/dt + div j = 0. Two constructions of j
are provided:

* closed form, for every potential of the catalog:
    Free            j = 0
    Linear(c)       j_k = -c_k |psi~|^2
    Harmonic(m, w)  j_k = m_k w_k^2 hbar Im(psi~* d psi~/dp_k)
* Poisson route: solve laplacian(F) = I on the momentum grid and take
  j = grad F (curl-free by construction). Runs under `current = "poisson"`,
  the 1d cross-method check and collapse's leakage report build it.

In 1d the additive constant of the Poisson current is fixed by the no-flux
convention: the current must die off where the state is silent, so the far-
field (grid edge) value is subtracted after the spectral solve. The zero-mean
gauge of the periodic solve alone leaves a spurious constant of order 1/L.
In 2d no constant shift can enforce decay in every direction, so only the
divergence of the two constructions is comparable there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .grid import (
    ComplexField,
    GridSpec,
    Representation,
    _frozen,
    _readonly,
    grid_axes,
    spectral_divergence,
    spectral_gradient,
    spectral_inverse_laplacian,
    to_position,
)
from .potentials import Free, Linear, Potential, _per_axis, interaction_source


class CurrentMethod(Enum):
    CLOSED_FORM = "closed"
    POISSON = "poisson"


@dataclass(frozen=True)
class CurrentField:
    """Real current components on the momentum grid, one per dof, each of one
    frame or of a block of frames (read-only, adopted by `_readonly`)."""

    grid: GridSpec
    components: np.ndarray
    method: CurrentMethod
    time: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        comps = _readonly(self.components, np.float64)
        dof = self.grid.dof
        if comps.shape[:1] != (dof,) or comps.shape[comps.ndim - dof:] != self.grid.shape:
            raise ConfigurationError("current components must have shape (dof,) + grid.shape")
        object.__setattr__(self, "components", comps)

    def divergence(self) -> np.ndarray:
        return spectral_divergence(self.components, self.grid, Representation.MOMENTUM)


def current_closed_form(potential: Potential, psi_p: ComplexField,
                        grad: np.ndarray | None = None) -> CurrentField:
    """Closed-form current of a Free, Linear or Harmonic potential; `grad`, psi_p's
    `spectral_gradient`, is computed here when not given."""
    if psi_p.rep is not Representation.MOMENTUM:
        raise ConfigurationError("current construction expects a momentum-representation field")
    grid = psi_p.grid
    if isinstance(potential, Free):
        comps = np.zeros((grid.dof,) + psi_p.values.shape)
    elif isinstance(potential, Linear):
        cs = _per_axis(potential.c, grid.dof, "linear coefficients")
        rho = psi_p.density()
        comps = np.stack([-cs[a] * rho for a in range(grid.dof)])
    else:
        ms = _per_axis(potential.mass, grid.dof, "harmonic masses")
        ws = _per_axis(potential.omega, grid.dof, "harmonic frequencies")
        if grad is None:
            grad = spectral_gradient(psi_p.values, grid, Representation.MOMENTUM)
        comps = np.stack(
            [
                ms[a] * ws[a] ** 2 * grid.hbar * np.imag(np.conj(psi_p.values) * grad[a])
                for a in range(grid.dof)
            ]
        )
    return CurrentField(grid, _frozen(comps), CurrentMethod.CLOSED_FORM, psi_p.time)


EDGE_GAUGE_CELLS = 3
VANISHING_DIVERGENCE = 1e-14  # ||div j|| below which a frame's current vanishes (Free)


def current_poisson(source: np.ndarray, grid: GridSpec, time: float = 0.0) -> CurrentField:
    """Curl-free current j = grad(inverse_laplacian(source)) on the momentum grid.

    Raises IllPosedSourceError (via the inverse Laplacian) when the source
    does not integrate to zero. In 1d the far-field constant is removed so
    the current vanishes where the cumulative source vanishes; each frame of
    a block of sources is gauged by its own edges.
    """
    F = spectral_inverse_laplacian(np.asarray(source, dtype=float), grid, Representation.MOMENTUM)
    comps = spectral_gradient(F, grid, Representation.MOMENTUM)
    if grid.dof == 1:
        j = comps[0]
        edges = np.concatenate([j[..., :EDGE_GAUGE_CELLS], j[..., -EDGE_GAUGE_CELLS:]], axis=-1)
        comps = comps - edges.mean(axis=-1)[..., None]
    return CurrentField(grid, _frozen(comps), CurrentMethod.POISSON, time)


def current_for(
    potential: Potential,
    psi_x: ComplexField | None,
    psi_p: ComplexField,
    method: CurrentMethod,
    grad: np.ndarray | None = None,
) -> CurrentField:
    """Dispatch on the configured current construction; `grad` as in `current_closed_form`.
    Only the Poisson route reads psi_x, and transforms psi_p when it is None."""
    if method is CurrentMethod.CLOSED_FORM:
        return current_closed_form(potential, psi_p, grad)
    src = interaction_source(potential, to_position(psi_p) if psi_x is None else psi_x, psi_p)
    return current_poisson(src, psi_p.grid, psi_p.time)


def continuity_residual(
    psi_p_before: ComplexField,
    psi_p_after: ComplexField,
    current_mid: CurrentField,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Relative L2 residual of (rho_after - rho_before)/dt + div j, and ||div j||,
    one of each per frame.

    The residual is absolute when ||div j|| < VANISHING_DIVERGENCE.
    """
    grid = psi_p_before.grid
    vol = grid.cell_volume(Representation.MOMENTUM)
    drho = (psi_p_after.density() - psi_p_before.density()) / dt
    div = current_mid.divergence()
    num = np.sqrt(np.sum((drho + div) ** 2, axis=grid_axes(grid)) * vol)
    den = np.sqrt(np.sum(div**2, axis=grid_axes(grid)) * vol)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den < VANISHING_DIVERGENCE, num, num / den), den
