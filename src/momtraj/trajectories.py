"""Trajectory integration for the momentum-flow model and the guidance-law reference.

Momentum-flow (Epstein-type) trajectories evolve an auxiliary momentum
variable by dp/dt = j(p,t)/|psi~(p,t)|^2 and read the particle position off
the state as the local expectation value x(p) = -grad S~(p), evaluated at the
trajectory's p. The de Broglie-Bohm reference integrator evolves positions
directly by dx/dt = grad S / m.

Both integrators use fixed-step RK4 over velocity fields precomputed on the
grid, multilinear interpolation in space, and linear interpolation in time
between propagator frames. Stencils touching node-flagged grid points freeze
the trajectory (conservative; freezes are counted and reported, never
silently extrapolated). Trajectories that leave the grid are likewise
retired. Trajectories are independent given the immutable frame fields, so
per-trajectory results are deterministic regardless of batch composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import reduce
from math import prod

import numpy as np

from .currents import CurrentField, CurrentMethod, current_for
from .dynamics import Frame, _masses
from .errors import ConfigurationError
from .grid import (
    ComplexField,
    MaskedVectorField,
    Representation,
    local_position_field,
    node_mask,
    spectral_gradient,
)
from .potentials import Potential


class TrajStatus(IntEnum):
    ACTIVE = 0
    FROZEN_AT_NODE = 1
    LEFT_GRID = 2


@dataclass
class PTrajectory:
    """Momentum-flow trajectory: auxiliary momentum p plus derived position x."""

    id: int
    p: np.ndarray
    x: np.ndarray
    status: TrajStatus = TrajStatus.ACTIVE
    history: list[tuple[float, np.ndarray, np.ndarray]] = field(default_factory=list)

    def record(self, t: float) -> None:
        self.history.append((t, self.p.copy(), self.x.copy()))


@dataclass
class XTrajectory:
    """Guidance-law reference trajectory carrying the position only."""

    id: int
    x: np.ndarray
    status: TrajStatus = TrajStatus.ACTIVE
    history: list[tuple[float, np.ndarray]] = field(default_factory=list)

    def record(self, t: float) -> None:
        self.history.append((t, self.x.copy()))


# -- masked multilinear interpolation -------------------------------------------


def interpolate_masked(
    fld: MaskedVectorField, query: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate a masked vector grid at query points (N, dof).

    Returns (values (N, dof), stencil_ok (N,), inside (N,)). Values are only
    meaningful where stencil_ok & inside.
    """
    grid = fld.grid
    q = np.atleast_2d(np.asarray(query, dtype=float))
    n_pts = q.shape[0]
    inside = np.ones(n_pts, dtype=bool)
    weights = []  # per axis: (weight of the lower neighbour, of the upper)
    for a in range(grid.dof):
        pts = grid.axis_points(fld.rep, a)
        u = (q[:, a] - pts[0]) / grid.step(fld.rep, a)
        inside &= (u >= 0.0) & (u <= len(pts) - 1)
        # np.minimum/np.maximum rather than np.clip, whose Python-level
        # dispatch costs microseconds per call on RK4's small batches
        i = np.minimum(np.maximum(np.floor(u).astype(np.intp), 0), len(pts) - 2)
        frac = np.minimum(np.maximum(u - i, 0.0), 1.0)
        weights.append((1.0 - frac, frac))
        base = i if a == 0 else base * len(pts) + i  # row-major flat index
    strides = [prod(grid.shape[a + 1:]) for a in range(grid.dof)]

    # Sum over the 2^dof stencil corners; bit a of `corner` selects the upper
    # neighbour on axis a. Starting from -0.0, the additive identity, keeps
    # the sum equal bit for bit to the corner terms added in order.
    valid = fld.valid.ravel()
    comps = fld.components.reshape(grid.dof, -1)
    vals = np.full((grid.dof, n_pts), -0.0)
    ok = np.ones(n_pts, dtype=bool)
    for corner in range(2**grid.dof):
        upper = [(corner >> a) & 1 for a in range(grid.dof)]
        offset = sum(u * s for u, s in zip(upper, strides))
        flat = base + offset if offset else base
        ok &= valid[flat]
        weight = reduce(np.multiply, [weights[a][u] for a, u in enumerate(upper)])
        for c in range(grid.dof):
            vals[c] += comps[c][flat] * weight
    return vals.T, ok, inside


# -- velocity fields --------------------------------------------------------------


def velocity_from_current(current: CurrentField, density: np.ndarray) -> MaskedVectorField:
    """w = j / |psi~|^2 with node-flagged points masked out."""
    valid = node_mask(density)
    comps = np.zeros_like(current.components)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(current.grid.dof):
            comps[a] = np.where(valid, current.components[a] / density, 0.0)
    return MaskedVectorField(current.grid, Representation.MOMENTUM, comps, valid, current.time)


def velocity_field_dbb(
    psi_x: ComplexField, masses: float | tuple[float, ...] = 1.0
) -> MaskedVectorField:
    """Guidance velocity grad S / m = Re(psi* (-i hbar grad) psi) / (m |psi|^2)."""
    if psi_x.rep is not Representation.POSITION:
        raise ConfigurationError("guidance velocity expects a position-representation field")
    grid = psi_x.grid
    ms = _masses(masses, grid.dof)
    rho = psi_x.density()
    valid = node_mask(rho)
    grad = spectral_gradient(psi_x.values, grid, Representation.POSITION)
    comps = np.zeros((grid.dof,) + grid.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(grid.dof):
            raw = np.real(np.conj(psi_x.values) * (-1j * grid.hbar) * grad[a]) / (ms[a] * rho)
            comps[a] = np.where(valid, raw, 0.0)
    return MaskedVectorField(grid, Representation.POSITION, comps, valid, psi_x.time)


# -- RK4 over interpolated fields --------------------------------------------------


def _rk4_batch(
    q: np.ndarray,
    active: np.ndarray,
    w0: MaskedVectorField,
    w1: MaskedVectorField,
    theta0: float,
    theta1: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One RK4 step for all active points, fields lerped in time.

    theta0/theta1 are the interval fractions of the step endpoints inside
    [t(w0), t(w1)]. Returns (q_new, hit_node, left_grid) with the failure
    masks referring to active points only (inactive rows are untouched).
    """
    thetas = (theta0, 0.5 * (theta0 + theta1), 0.5 * (theta0 + theta1), theta1)
    qa = q[active]
    if qa.shape[0] == 0:
        return q, np.zeros(q.shape[0], bool), np.zeros(q.shape[0], bool)

    def eval_w(points: np.ndarray, theta: float):
        v0, ok0, in0 = interpolate_masked(w0, points)
        v1, ok1, in1 = interpolate_masked(w1, points)
        return (1.0 - theta) * v0 + theta * v1, ok0 & ok1, in0 & in1

    bad_node = np.zeros(qa.shape[0], dtype=bool)
    bad_grid = np.zeros(qa.shape[0], dtype=bool)

    k1, ok, ins = eval_w(qa, thetas[0])
    bad_node |= ~ok
    bad_grid |= ~ins
    k2, ok, ins = eval_w(qa + 0.5 * dt * k1, thetas[1])
    bad_node |= ~ok
    bad_grid |= ~ins
    k3, ok, ins = eval_w(qa + 0.5 * dt * k2, thetas[2])
    bad_node |= ~ok
    bad_grid |= ~ins
    k4, ok, ins = eval_w(qa + dt * k3, thetas[3])
    bad_node |= ~ok
    bad_grid |= ~ins

    stepped = qa + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    moved = ~(bad_node | bad_grid)
    qa_new = np.where(moved[:, None], stepped, qa)

    q_out = q.copy()
    q_out[active] = qa_new
    hit_node = np.zeros(q.shape[0], dtype=bool)
    left = np.zeros(q.shape[0], dtype=bool)
    hit_node[np.flatnonzero(active)[bad_node & ~bad_grid]] = True
    left[np.flatnonzero(active)[bad_grid]] = True
    return q_out, hit_node, left


# -- single-trajectory operations (unit-level contracts) ---------------------------


def _rk4_single(traj: PTrajectory | XTrajectory, q: np.ndarray, w: MaskedVectorField,
                dt: float) -> np.ndarray:
    """One RK4 step of the point q through the fixed field w.

    Marks traj frozen or off the grid when the step fails; the returned
    point is then q unchanged.
    """
    q_new, hit_node, left = _rk4_batch(q[None, :], np.ones(1, bool), w, w, 0.0, 0.0, dt)
    if left[0]:
        traj.status = TrajStatus.LEFT_GRID
    elif hit_node[0]:
        traj.status = TrajStatus.FROZEN_AT_NODE
    return q_new[0]


def step_epstein(
    traj: PTrajectory, current: CurrentField, density: np.ndarray, dt: float
) -> PTrajectory:
    """One RK4 step of dp/dt = j/|psi~|^2 with the fields held fixed."""
    if traj.status is TrajStatus.ACTIVE:
        traj.p = _rk4_single(traj, traj.p, velocity_from_current(current, density), dt)
    return traj


def position_of(traj: PTrajectory, psi_p: ComplexField) -> np.ndarray:
    """Local position expectation at the trajectory's p; freezes at nodes."""
    xf = local_position_field(psi_p)
    vals, ok, inside = interpolate_masked(xf, traj.p[None, :])
    if not inside[0]:
        traj.status = TrajStatus.LEFT_GRID
        return traj.x
    if not ok[0]:
        traj.status = TrajStatus.FROZEN_AT_NODE
        return traj.x
    traj.x = vals[0]
    return traj.x


def step_dbb(
    traj: XTrajectory, psi_x: ComplexField, dt: float,
    masses: float | tuple[float, ...] = 1.0,
) -> XTrajectory:
    """One RK4 step of the guidance equation with the field held fixed."""
    if traj.status is TrajStatus.ACTIVE:
        traj.x = _rk4_single(traj, traj.x, velocity_field_dbb(psi_x, masses), dt)
    return traj


# -- batch integration over a frame sequence ---------------------------------------


@dataclass
class EnsembleHistory:
    """Frame-resolution histories for a batch of trajectories.

    For the momentum-flow model `p` holds the auxiliary momenta and `x` the
    derived positions; for the guidance reference `p` is None and `x` holds
    the integrated positions. Status is recorded per frame; ACTIVE rows of
    the final frame are the statistically usable ensemble.
    """

    model: str
    times: np.ndarray
    x: np.ndarray
    status: np.ndarray
    p: np.ndarray | None = None

    @property
    def n_trajectories(self) -> int:
        return self.x.shape[1]

    def final_status(self) -> np.ndarray:
        return self.status[-1]

    def frozen_count(self) -> int:
        return int(np.sum(self.final_status() == TrajStatus.FROZEN_AT_NODE))

    def left_grid_count(self) -> int:
        return int(np.sum(self.final_status() == TrajStatus.LEFT_GRID))

    def trajectory(self, i: int) -> PTrajectory | XTrajectory:
        """Materialize one trajectory view with its full history."""
        if self.p is not None:
            tr = PTrajectory(i, self.p[-1, i].copy(), self.x[-1, i].copy(),
                             TrajStatus(int(self.status[-1, i])))
            tr.history = [
                (float(t), self.p[f, i].copy(), self.x[f, i].copy())
                for f, t in enumerate(self.times)
            ]
            return tr
        tr = XTrajectory(i, self.x[-1, i].copy(), TrajStatus(int(self.status[-1, i])))
        tr.history = [(float(t), self.x[f, i].copy()) for f, t in enumerate(self.times)]
        return tr


def _readout_positions(
    x_store: np.ndarray, status: np.ndarray, psi_p: ComplexField, p: np.ndarray
) -> None:
    """Update derived positions in place for active rows; freeze on bad stencils."""
    active = status == TrajStatus.ACTIVE
    if not active.any():
        return
    xf = local_position_field(psi_p)
    vals, ok, inside = interpolate_masked(xf, p[active])
    rows = np.flatnonzero(active)
    x_store[rows[ok & inside]] = vals[ok & inside]
    status[rows[~inside]] = TrajStatus.LEFT_GRID
    status[rows[inside & ~ok]] = TrajStatus.FROZEN_AT_NODE


def integrate_epstein(
    frames: list[Frame],
    potential: Potential,
    p_initial: np.ndarray,
    method: CurrentMethod = CurrentMethod.CLOSED_FORM,
    substeps_per_frame: int = 1,
) -> EnsembleHistory:
    """Advance momentum-flow trajectories through a propagated frame sequence.

    Pass the propagator's steps_per_frame as substeps_per_frame to take one
    RK4 step per propagator step. Velocity fields at the interval endpoints
    come from the frame states; stage evaluations linearly interpolate
    between them in time.
    """
    if len(frames) == 0:
        raise ConfigurationError("no frames to integrate over")
    p = np.atleast_2d(np.asarray(p_initial, dtype=float)).copy()
    n = p.shape[0]
    dof = frames[0].psi_p.grid.dof
    if p.shape[1] != dof:
        raise ConfigurationError(f"initial momenta must have shape (N, {dof})")

    times = np.array([fr.time for fr in frames])
    n_frames = len(frames)
    x = np.full((n_frames, n, dof), np.nan)
    ph = np.empty((n_frames, n, dof))
    status_hist = np.empty((n_frames, n), dtype=np.int8)
    status = np.zeros(n, dtype=np.int8)

    def w_of(fr: Frame) -> MaskedVectorField:
        cur = current_for(potential, fr.psi_x, fr.psi_p, method)
        return velocity_from_current(cur, fr.psi_p.density())

    x_cur = np.full((n, dof), np.nan)
    _readout_positions(x_cur, status, frames[0].psi_p, p)
    ph[0] = p
    x[0] = x_cur
    status_hist[0] = status

    w1 = w_of(frames[0])
    for f in range(1, n_frames):
        w0, w1 = w1, w_of(frames[f])
        t0, t1 = times[f - 1], times[f]
        nsub = substeps_per_frame
        dt = (t1 - t0) / nsub
        for s in range(nsub):
            active = status == TrajStatus.ACTIVE
            p, hit_node, left = _rk4_batch(
                p, active, w0, w1, s / nsub, (s + 1) / nsub, dt
            )
            status[hit_node] = TrajStatus.FROZEN_AT_NODE
            status[left] = TrajStatus.LEFT_GRID
        _readout_positions(x_cur, status, frames[f].psi_p, p)
        ph[f] = p
        x[f] = x_cur
        status_hist[f] = status

    return EnsembleHistory("epstein", times, x.copy(), status_hist, ph)


def integrate_dbb(
    frames: list[Frame],
    x_initial: np.ndarray,
    masses: float | tuple[float, ...] = 1.0,
    substeps_per_frame: int = 1,
) -> EnsembleHistory:
    """Advance guidance-law trajectories through a propagated frame sequence."""
    if len(frames) == 0:
        raise ConfigurationError("no frames to integrate over")
    x = np.atleast_2d(np.asarray(x_initial, dtype=float)).copy()
    n = x.shape[0]
    dof = frames[0].psi_x.grid.dof
    times = np.array([fr.time for fr in frames])
    n_frames = len(frames)
    xh = np.empty((n_frames, n, dof))
    status_hist = np.empty((n_frames, n), dtype=np.int8)
    status = np.zeros(n, dtype=np.int8)

    xh[0] = x
    status_hist[0] = status
    w1 = velocity_field_dbb(frames[0].psi_x, masses)
    for f in range(1, n_frames):
        w0, w1 = w1, velocity_field_dbb(frames[f].psi_x, masses)
        t0, t1 = times[f - 1], times[f]
        nsub = substeps_per_frame
        dt = (t1 - t0) / nsub
        for s in range(nsub):
            active = status == TrajStatus.ACTIVE
            x, hit_node, left = _rk4_batch(x, active, w0, w1, s / nsub, (s + 1) / nsub, dt)
            status[hit_node] = TrajStatus.FROZEN_AT_NODE
            status[left] = TrajStatus.LEFT_GRID
        xh[f] = x
        status_hist[f] = status

    return EnsembleHistory("dbb", times, xh, status_hist, None)
