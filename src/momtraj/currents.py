"""Momentum-space probability currents and the continuity residual.

The momentum density obeys d|psi~|^2/dt + div j = 0, and i hbar d psi~/dt =
H psi~ gives d|psi~|^2/dt = -I at each frame, with I the interaction source
of `potentials`: the kinetic term is real and drops out. So div j = I, and
the continuity residual of a frame is ||div j - I|| / ||div j||, with no step
size. Two constructions of j are provided:

* closed form, for every potential V = sum_a c_a x_a + k_a x_a^2 / 2:
    j_a = -c_a |psi~|^2 + k_a hbar Im(psi~* d psi~/dp_a)
  It goes through the momentum derivative and I through position space
  (F[V psi]), so the residual compares two independent routes.
* Poisson route: solve laplacian(F) = I on the momentum grid and take
  j = grad F (curl-free by construction), so its residual checks the solve.
  Runs under `current = "poisson"`, the 1d cross-method check and collapse's
  leakage report build it.

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
)
from .potentials import Potential, interaction_source


class CurrentMethod(Enum):
    CLOSED_FORM = "closed"
    POISSON = "poisson"


@dataclass(frozen=True)
class CurrentField:
    """Real current components on the momentum grid, one per dof, each of one
    frame or of a block of frames (read-only, adopted by `_readonly`). A Poisson
    current keeps the interaction source it solves for; a closed-form one, None."""

    grid: GridSpec
    components: np.ndarray
    method: CurrentMethod
    time: float | np.ndarray = 0.0
    source: np.ndarray | None = None

    def __post_init__(self) -> None:
        comps = _readonly(self.components, np.float64)
        dof = self.grid.dof
        if comps.shape[:1] != (dof,) or comps.shape[comps.ndim - dof:] != self.grid.shape:
            raise ConfigurationError("current components must have shape (dof,) + grid.shape")
        object.__setattr__(self, "components", comps)
        if self.source is not None:
            object.__setattr__(self, "source", _readonly(self.source, np.float64))

    def divergence(self) -> np.ndarray:
        return spectral_divergence(self.components, self.grid, Representation.MOMENTUM)


def current_closed_form(potential: Potential, psi_p: ComplexField,
                        grad: np.ndarray | None = None) -> CurrentField:
    """Closed-form current of a quadratic potential; `grad`, psi_p's `spectral_gradient`,
    is computed here when a spring constant needs it and it is not given. A term whose
    coefficient is zero is skipped, and an axis's first term is assigned, not added to
    zero, so its signed zeros stand."""
    if psi_p.rep is not Representation.MOMENTUM:
        raise ConfigurationError("current construction expects a momentum-representation field")
    grid = psi_p.grid
    rho = psi_p.density() if any(potential.c) else None
    if grad is None and any(potential.k):
        grad = spectral_gradient(psi_p.values, grid, Representation.MOMENTUM)
    comps = np.zeros((grid.dof,) + psi_p.values.shape)
    for a, c, k in potential.axes(grid.dof):
        if c:
            comps[a] = -c * rho
        if k:
            j = k * grid.hbar * np.imag(np.conj(psi_p.values) * grad[a])
            comps[a] = comps[a] + j if c else j
    return CurrentField(grid, _frozen(comps), CurrentMethod.CLOSED_FORM, psi_p.time)


EDGE_GAUGE_CELLS = 3
VANISHING_DIVERGENCE = 1e-14  # ||div j|| below which a frame's current vanishes (stationary)


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
    return CurrentField(grid, _frozen(comps), CurrentMethod.POISSON, time, source)


def current_for(
    potential: Potential,
    psi_x: ComplexField,
    psi_p: ComplexField,
    method: CurrentMethod,
    grad: np.ndarray | None = None,
) -> CurrentField:
    """Dispatch on the configured current construction; `grad` as in `current_closed_form`.
    Only the Poisson route reads psi_x, psi_p's transform."""
    if method is CurrentMethod.CLOSED_FORM:
        return current_closed_form(potential, psi_p, grad)
    source = _frozen(interaction_source(potential, psi_x, psi_p))
    return current_poisson(source, psi_p.grid, psi_p.time)


def continuity_residual(source: np.ndarray,
                        current: CurrentField) -> tuple[np.ndarray, np.ndarray]:
    """Relative L2 residual ||div j - I|| / ||div j|| of the current against the
    interaction source I = -d|psi~|^2/dt, and ||div j||, one of each per frame.

    The residual is absolute when ||div j|| < VANISHING_DIVERGENCE.
    """
    grid = current.grid
    vol = grid.cell_volume(Representation.MOMENTUM)
    div = current.divergence()
    num = np.sqrt(np.sum((div - source) ** 2, axis=grid_axes(grid)) * vol)
    den = np.sqrt(np.sum(div**2, axis=grid_axes(grid)) * vol)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den < VANISHING_DIVERGENCE, num, num / den), den
