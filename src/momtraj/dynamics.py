"""Unitary split-step (Strang) propagation of the wavefunction.

One step of size dt applies

    exp(-i K dt/2hbar) . exp(-i V dt/hbar) . exp(-i K dt/2hbar)

with the kinetic factor diagonal in the momentum representation and the
potential factor diagonal in the position representation. The scheme is
exactly unitary on the grid and second-order accurate in dt. For a free
potential the kinetic phase alone is the exact propagator, so the loop skips
the transforms entirely in that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import BoundaryMassError, ConfigurationError, NormalizationError
from .grid import (
    BOUNDARY_MASS_TOL,
    ComplexField,
    Representation,
    _frozen,
    _transform,
    boundary_mass_fraction,
    to_momentum,
    to_position,
)
from .potentials import Free, Potential, evaluate_potential

NORM_TOL = 1e-6


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float
    steps_per_frame: int = 10
    check_boundary: bool = True

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")
        if self.steps_per_frame < 1:
            raise ConfigurationError("steps_per_frame must be >= 1")


@dataclass(frozen=True)
class Frame:
    """Immutable propagation snapshot delivered to frame subscribers."""

    index: int
    time: float
    psi_x: ComplexField
    psi_p: ComplexField

    @cached_property
    def boundary_mass(self) -> tuple[float, float]:
        """Boundary mass fractions of psi_x and psi_p, computed on first use."""
        return boundary_mass_fraction(self.psi_x), boundary_mass_fraction(self.psi_p)


FrameCallback = Callable[[Frame], None]


def _masses(masses, dof: int) -> tuple[float, ...]:
    ms = tuple(np.atleast_1d(np.asarray(masses, dtype=float)))
    if len(ms) == 1:
        ms = ms * dof
    if len(ms) != dof:
        raise ConfigurationError(f"need 1 or {dof} masses, got {len(ms)}")
    if any(m <= 0 for m in ms):
        raise ConfigurationError("masses must be positive")
    return ms


def kinetic_energy_grid(grid, masses) -> np.ndarray:
    """sum_k p_k^2 / 2 m_k on the momentum grid."""
    ms = _masses(masses, grid.dof)
    mesh = grid.mesh(Representation.MOMENTUM)
    out = np.zeros(grid.shape)
    for a in range(grid.dof):
        out = out + mesh[a] ** 2 / (2.0 * ms[a])
    return out


@lru_cache(maxsize=64)
def _step_phases(grid, potential: Potential, masses: tuple[float, ...], dt: float):
    """Kinetic energy grid and the phase factors of one step of size dt (read-only).

    masses is `_masses`'s per-axis tuple. Returns (kin, kin_half, pot_phase);
    the two phases are None for a Free potential, whose steps are exact phase
    multiplications by kin alone.
    """
    kin = kinetic_energy_grid(grid, masses)
    max_phase = float(kin.max()) * dt / grid.hbar
    if max_phase >= np.pi:
        raise ConfigurationError(
            f"kinetic phase per step {max_phase:.3f} >= pi; reduce dt or the momentum extent"
        )
    kin.setflags(write=False)
    if isinstance(potential, Free):
        return kin, None, None
    kin_half = np.exp(-0.5j * kin * dt / grid.hbar)
    pot_phase = np.exp(-1j * evaluate_potential(potential, grid) * dt / grid.hbar)
    kin_half.setflags(write=False)
    pot_phase.setflags(write=False)
    return kin, kin_half, pot_phase


def _strang_step(grid, vals: np.ndarray, kin_half: np.ndarray, pot_phase: np.ndarray) -> np.ndarray:
    """One split step of momentum values (one frame or a block); two transforms."""
    pos = _transform(grid, kin_half * vals, backward=True)
    back = _transform(grid, pot_phase * pos)
    return kin_half * back


def propagate(
    psi: ComplexField,
    potential: Potential,
    config: PropagatorConfig,
    n_steps: int,
    masses: float | tuple[float, ...] = 1.0,
    on_frame: FrameCallback | None = None,
) -> Frame:
    """Advance `psi` by n_steps of size config.dt, emitting frames.

    Frames (including the initial one) are emitted every steps_per_frame
    steps and at the final step. The boundary-mass diagnostic runs in both
    representations at every frame and aborts the run when mass approaches
    the grid edge. Returns the final frame.
    """
    grid = psi.grid
    if abs(psi.norm() - 1.0) > NORM_TOL:
        raise NormalizationError(f"initial state norm {psi.norm():.9f} deviates from 1")
    kin, kin_half, pot_phase = _step_phases(grid, potential, _masses(masses, grid.dof), config.dt)

    if psi.rep is Representation.POSITION:
        psi_p = to_momentum(psi)
    else:
        psi_p = psi

    t0 = psi.time

    def emit(index: int, step: int, values_p: np.ndarray) -> Frame:
        t = t0 + step * config.dt
        fp = ComplexField(grid, Representation.MOMENTUM, _frozen(values_p), t)
        fx = to_position(fp)
        fr = Frame(index, t, fx, fp)
        if config.check_boundary:
            for rep_field, frac in zip((fx, fp), fr.boundary_mass):
                if frac > BOUNDARY_MASS_TOL:
                    raise BoundaryMassError(
                        f"boundary mass fraction {frac:.3e} in {rep_field.rep.value} "
                        f"representation at t={t:.6f} exceeds {BOUNDARY_MASS_TOL:.0e}"
                    )
        if on_frame is not None:
            on_frame(fr)
        return fr

    vals = psi_p.values
    frame = emit(0, 0, vals)
    # one emission schedule for both paths: every steps_per_frame steps and the last step
    frame_steps = [s for s in range(1, n_steps + 1)
                   if s % config.steps_per_frame == 0 or s == n_steps]
    done = 0
    for findex, step in enumerate(frame_steps, 1):
        if pot_phase is None:
            # exact phase multiplication from the initial state: no per-step
            # roundoff accumulation, modulus stable to machine precision
            vals = psi_p.values * np.exp(-1j * kin * (step * config.dt) / grid.hbar)
        else:
            for _ in range(step - done):
                vals = _strang_step(grid, vals, kin_half, pot_phase)
            done = step
        frame = emit(findex, step, vals)
    return frame


def collect_frames(
    psi: ComplexField,
    potential: Potential,
    config: PropagatorConfig,
    n_steps: int,
    masses: float | tuple[float, ...] = 1.0,
) -> list[Frame]:
    frames: list[Frame] = []
    propagate(psi, potential, config, n_steps, masses, frames.append)
    return frames


def total_energy(frame: Frame, potential: Potential, masses: float | tuple[float, ...] = 1.0) -> float:
    """<H> from momentum-rep kinetic quadrature plus position-rep potential quadrature."""
    grid = frame.psi_p.grid
    kin = kinetic_energy_grid(grid, masses)
    e_kin = np.sum(kin * frame.psi_p.density()) * grid.cell_volume(Representation.MOMENTUM)
    v = evaluate_potential(potential, grid)
    e_pot = np.sum(v * frame.psi_x.density()) * grid.cell_volume(Representation.POSITION)
    return float(e_kin + e_pot)


def continuity_probe(
    psi_p: ComplexField,
    potential: Potential,
    dt: float,
    masses: float | tuple[float, ...] = 1.0,
) -> tuple[ComplexField, ComplexField, ComplexField]:
    """Midpoint psi and psi~, and psi~ at t + dt, of a momentum state or a block of them.

    Two steps of dt/2, the same as two one-step `propagate` calls, but the
    only position-space state transformed is the midpoint's. The two
    half-steps compose to the full step up to O(dt^3), far below the
    continuity tolerance; the midpoint state centers the finite difference.
    """
    grid = psi_p.grid
    half = dt / 2.0
    kin, kin_half, pot_phase = _step_phases(grid, potential, _masses(masses, grid.dof), half)

    def step(vals: np.ndarray) -> np.ndarray:
        if pot_phase is None:
            return vals * np.exp(-1j * kin * half / grid.hbar)
        return _strang_step(grid, vals, kin_half, pot_phase)

    t_mid = psi_p.time + half
    mid_p = ComplexField(grid, Representation.MOMENTUM, _frozen(step(psi_p.values)), t_mid)
    after = ComplexField(grid, Representation.MOMENTUM, _frozen(step(mid_p.values)), t_mid + half)
    return to_position(mid_p), mid_p, after
