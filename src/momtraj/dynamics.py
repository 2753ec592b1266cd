"""Unitary split-step (Strang) propagation of the wavefunction.

One step of size dt applies

    exp(-i K dt/2hbar) . exp(-i V dt/hbar) . exp(-i K dt/2hbar)

with the kinetic factor diagonal in the momentum representation and the
potential factor diagonal in the position representation. The scheme is
exactly unitary on the grid and second-order accurate in dt. For a free
potential the kinetic phase alone is the exact propagator, so the loop skips
the transforms entirely in that case.

The steps run in place in one work buffer. Emitted states are gathered into
blocks of max(1, BLOCK_POINTS // grid size) frames, the same blocks as the
trajectories' FrameBlocks; each block takes one batched transform to position
space and one boundary-mass call per representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundaryMassError, ConfigurationError, NormalizationError
from .grid import (
    BLOCK_POINTS,
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

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")
        if self.steps_per_frame < 1:
            raise ConfigurationError("steps_per_frame must be >= 1")


@dataclass(frozen=True)
class Frame:
    """Immutable propagation snapshot delivered to frame subscribers.

    psi_x and psi_p are read-only rows of its emission block's arrays;
    boundary_mass holds their boundary mass fractions, in that order.
    """

    index: int
    time: float
    psi_x: ComplexField
    psi_p: ComplexField
    boundary_mass: tuple[float, float]


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


def _strang_step(grid, vals: np.ndarray, kin_half: np.ndarray, pot_phase: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """One split step of momentum values (one frame or a block); two transforms, each
    product in place in `out` (a new array by default), which may be `vals`."""
    out = np.multiply(kin_half, vals, out=out)
    _transform(grid, out, backward=True, out=out)
    np.multiply(pot_phase, out, out=out)
    _transform(grid, out, out=out)
    return np.multiply(kin_half, out, out=out)


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
    steps and at the final step, one block of frames at a time; on_frame sees
    each in order. The boundary-mass diagnostic aborts the run when mass
    approaches the grid edge, before on_frame sees the offending frame.
    Returns the final frame.
    """
    grid = psi.grid
    if abs(psi.norm() - 1.0) > NORM_TOL:
        raise NormalizationError(f"initial state norm {psi.norm():.9f} deviates from 1")
    kin, kin_half, pot_phase = grid.derived(_step_phases, potential, _masses(masses, grid.dof),
                                           config.dt)
    psi_p = to_momentum(psi) if psi.rep is Representation.POSITION else psi
    # one emission schedule for both paths: step 0, every steps_per_frame steps and the last
    steps = [0] + [s for s in range(1, n_steps + 1)
                   if s % config.steps_per_frame == 0 or s == n_steps]
    size = max(1, BLOCK_POINTS // grid.size)
    work = np.array(psi_p.values)
    done = 0
    for lo in range(0, len(steps), size):
        chunk = steps[lo:lo + size]
        times = [psi.time + step * config.dt for step in chunk]
        block = np.empty((len(chunk),) + grid.shape, dtype=complex)
        for row, step in enumerate(chunk):
            if pot_phase is None and step:
                # exact phase multiplication from the initial state: no per-step
                # roundoff accumulation, modulus stable to machine precision
                block[row] = psi_p.values * np.exp(-1j * kin * (step * config.dt) / grid.hbar)
            else:
                for _ in range(step - done):
                    _strang_step(grid, work, kin_half, pot_phase, out=work)
                block[row] = work
                done = step
        fp = ComplexField(grid, Representation.MOMENTUM, _frozen(block), np.array(times))
        fx = to_position(fp)
        edge = zip(boundary_mass_fraction(fx).tolist(), boundary_mass_fraction(fp).tolist())
        for row, (t, masses_xp) in enumerate(zip(times, edge)):
            frame = Frame(lo + row, t, ComplexField(grid, fx.rep, fx.values[row], t),
                          ComplexField(grid, fp.rep, fp.values[row], t), masses_xp)
            for rep, frac in zip((fx.rep, fp.rep), masses_xp):
                if frac > BOUNDARY_MASS_TOL:
                    raise BoundaryMassError(
                        f"boundary mass fraction {frac:.3e} in {rep.value} "
                        f"representation at t={t:.6f} exceeds {BOUNDARY_MASS_TOL:.0e}"
                    )
            if on_frame is not None:
                on_frame(frame)
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
    kin, kin_half, pot_phase = grid.derived(_step_phases, potential, _masses(masses, grid.dof), half)

    def step(vals: np.ndarray) -> np.ndarray:
        if pot_phase is None:
            return vals * np.exp(-1j * kin * half / grid.hbar)
        return _strang_step(grid, vals, kin_half, pot_phase)

    t_mid = psi_p.time + half
    mid_p = ComplexField(grid, Representation.MOMENTUM, _frozen(step(psi_p.values)), t_mid)
    after = ComplexField(grid, Representation.MOMENTUM, _frozen(step(mid_p.values)), t_mid + half)
    return to_position(mid_p), mid_p, after
