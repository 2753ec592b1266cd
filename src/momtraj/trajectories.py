"""Trajectory integration for the momentum-flow model and the guidance-law reference.

Momentum-flow (Epstein-type) trajectories evolve an auxiliary momentum
variable by dp/dt = j(p,t)/|psi~(p,t)|^2 and read the particle position off
the state as the local expectation value x(p) = -grad S~(p), evaluated at the
trajectory's p. The de Broglie-Bohm reference integrator evolves positions
directly by dx/dt = grad S / m.

Both models run through one frame loop and one RK4 step over velocity fields
derived on the grid once per frame (for the momentum-flow model, with the
other fields it shares, in a FrameFields), with multilinear interpolation in
space and linear interpolation in time between propagator frames. The two
endpoint fields of a frame interval are stacked into one masked field, so
each RK4 stage builds a single interpolation stencil and lerps its two halves.
The first step of every frame interval also estimates the RK4 error by step
doubling on a fixed subsample of the trajectories.
Stencils touching node-flagged grid points freeze the trajectory
(conservative; freezes are counted and reported, never silently
extrapolated). Trajectories that leave the grid are likewise retired.
Trajectories are independent given the immutable frame fields, so
per-trajectory results are deterministic regardless of batch composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache, reduce
from math import prod
from typing import Callable

import numpy as np

from .currents import CurrentField, CurrentMethod, current_for
from .dynamics import Frame, _masses
from .errors import ConfigurationError
from .grid import (
    ComplexField,
    GridSpec,
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


# -- masked multilinear interpolation -------------------------------------------


@lru_cache(maxsize=64)
def _stencil_geometry(grid: GridSpec, rep: Representation):
    """The interpolation stencil's geometry on one grid representation.

    Returns (axes, corners): per axis (first point, step, point count), and
    per stencil corner (the upper-neighbour bit of each axis, the corner's
    offset in the row-major flat index). Corner 0 is the all-lower one, at
    offset 0.
    """
    axes = tuple((grid.axis_points(rep, a)[0], grid.step(rep, a), grid.axes[a].points)
                 for a in range(grid.dof))
    strides = [prod(grid.shape[a + 1:]) for a in range(grid.dof)]
    corners = []
    for corner in range(2**grid.dof):
        upper = tuple((corner >> a) & 1 for a in range(grid.dof))
        corners.append((upper, sum(u * s for u, s in zip(upper, strides))))
    return axes, tuple(corners)


def interpolate_masked(
    fld: MaskedVectorField, query: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate a masked field of k components at query points (N, dof).

    Returns (values (N, k), stencil_ok (N,), inside (N,)). Values are only
    meaningful where stencil_ok & inside.
    """
    axes, corners = _stencil_geometry(fld.grid, fld.rep)
    q = np.atleast_2d(np.asarray(query, dtype=float))
    weights = []  # per axis: (weight of the lower neighbour, of the upper)
    for a, (p0, step, n) in enumerate(axes):
        u = (q[:, a] - p0) / step
        in_a = (u >= 0.0) & (u <= n - 1)
        # np.minimum/np.maximum rather than np.clip, whose Python-level
        # dispatch costs microseconds per call on RK4's small batches
        i = np.minimum(np.maximum(np.floor(u).astype(np.intp), 0), n - 2)
        frac = np.minimum(np.maximum(u - i, 0.0), 1.0)
        weights.append((1.0 - frac, frac))
        if a == 0:
            inside, base = in_a, i
        else:
            inside &= in_a
            base = base * n + i  # row-major flat index

    # Sum over the 2^dof stencil corners. Starting from -0.0, the additive
    # identity, keeps the sum equal bit for bit to the corner terms added in
    # order.
    valid = fld.valid.ravel()
    comps = fld.components.reshape(len(fld.components), -1)
    vals = np.full((len(comps), len(q)), -0.0)
    ok = valid[base]  # corner 0's mask
    for upper, offset in corners:
        flat = base
        if offset:
            flat = base + offset
            ok &= valid[flat]
        weight = reduce(np.multiply, [weights[a][u] for a, u in enumerate(upper)])
        vals += comps.take(flat, axis=1) * weight
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


def _endpoints(w0: MaskedVectorField, w1: MaskedVectorField) -> MaskedVectorField:
    """w0's components followed by w1's, valid where both are.

    One stencil over this field gives both endpoint values: each component's
    corner sum is independent, and the AND of the corner masks equals the
    AND of the two fields' stencil masks.
    """
    return MaskedVectorField(w0.grid, w0.rep, np.concatenate([w0.components, w1.components]),
                             w0.valid & w1.valid, w0.time)


def _retire(status: np.ndarray, rows: np.ndarray, ok: np.ndarray, inside: np.ndarray) -> None:
    """Mark rows whose stencil left the grid LEFT_GRID, other failed ones FROZEN_AT_NODE."""
    status[rows[~inside]] = TrajStatus.LEFT_GRID
    status[rows[inside & ~ok]] = TrajStatus.FROZEN_AT_NODE


def _rk4_step(q: np.ndarray, status: np.ndarray, w: MaskedVectorField,
              theta0: float, theta1: float | np.ndarray, dt: float | np.ndarray) -> None:
    """One RK4 step of the active rows of q, in place, through an endpoint pair.

    w is an `_endpoints` pair; theta0/theta1 are the interval fractions of the
    step's ends, and each stage lerps the pair at its own fraction. theta1 and
    dt may also be (len(q), 1) columns, one end and step size per row. A row
    whose stencil fails at any stage keeps its point and is retired. On a
    field that is zero everywhere, one stencil at the start point stands in
    for the four stages.
    """
    rows = np.flatnonzero(status == TrajStatus.ACTIVE)
    if rows.size == 0:
        return
    qa = q[rows]
    if not w.components.any():
        # A zero field (a free particle's current): every stage reads +-0 at
        # the start point, so the four stages leave q as it is (bar turning
        # an exact -0.0 coordinate into +0.0) and one stencil gives the
        # statuses.
        _, ok, inside = interpolate_masked(w, qa)
        _retire(status, rows, ok, inside)
        return
    if np.ndim(dt):
        theta1, dt = theta1[rows], dt[rows]
    dof = q.shape[1]
    ok = np.ones(rows.size, dtype=bool)
    inside = np.ones(rows.size, dtype=bool)
    mid = 0.5 * (theta0 + theta1)
    k = None
    for h, theta, weight in ((0.0, theta0, 1.0), (0.5, mid, 2.0), (0.5, mid, 2.0),
                             (1.0, theta1, 1.0)):
        vals, ok_s, in_s = interpolate_masked(w, qa if k is None else qa + h * dt * k)
        k = (1.0 - theta) * vals[:, :dof] + theta * vals[:, dof:]
        ok &= ok_s
        inside &= in_s
        total = k if h == 0.0 else total + weight * k
    moved = ok & inside
    q[rows[moved]] = (qa + (dt / 6.0) * total)[moved]
    _retire(status, rows, ok, inside)


def _doubled_step(q: np.ndarray, status: np.ndarray, probe: np.ndarray,
                  w: MaskedVectorField, theta0: float, theta1: float, dt: float) -> float:
    """An RK4 step of the leading rows of q that also estimates its error by step doubling.

    The last len(probe) rows of q and status are scratch: they take copies of
    the probe rows, which advance from the same start by two half steps
    through the same pair. The first half step rides in the full step's
    interpolation calls, with its own end and step size per row. Returns
    max |one step - two half steps| over the probe rows active after both.
    """
    n = len(q) - len(probe)
    q[n:], status[n:] = q[probe], status[probe]
    half = np.arange(len(q))[:, None] >= n
    theta_mid = 0.5 * (theta0 + theta1)
    _rk4_step(q, status, w, theta0, np.where(half, theta_mid, theta1), np.where(half, dt / 2.0, dt))
    _rk4_step(q[n:], status[n:], w, theta_mid, theta1, dt / 2.0)
    both = (status[probe] == TrajStatus.ACTIVE) & (status[n:] == TrajStatus.ACTIVE)
    return float(np.abs(q[probe[both]] - q[n:][both]).max()) if both.any() else 0.0


# -- batch integration over a frame sequence ---------------------------------------


@dataclass
class EnsembleHistory:
    """Frame-resolution histories for a batch of trajectories.

    For the momentum-flow model `p` holds the auxiliary momenta and `x` the
    derived positions; for the guidance reference `p` is None and `x` holds
    the integrated positions. Status is recorded per frame; ACTIVE rows of
    the final frame are the statistically usable ensemble. `step_error` is
    the step-doubling estimate of the RK4 error (see `_integrate`).
    """

    model: str
    times: np.ndarray
    x: np.ndarray
    status: np.ndarray
    p: np.ndarray | None = None
    step_error: float = 0.0

    @property
    def n_trajectories(self) -> int:
        return self.x.shape[1]

    def final_status(self) -> np.ndarray:
        return self.status[-1]

    def frozen_count(self) -> int:
        return int(np.sum(self.final_status() == TrajStatus.FROZEN_AT_NODE))

    def left_grid_count(self) -> int:
        return int(np.sum(self.final_status() == TrajStatus.LEFT_GRID))


def _readout_positions(
    x_store: np.ndarray, status: np.ndarray, x_field: MaskedVectorField, p: np.ndarray
) -> None:
    """Read x(p) off x_field in place for active rows; freeze on bad stencils."""
    rows = np.flatnonzero(status == TrajStatus.ACTIVE)
    if rows.size == 0:
        return
    vals, ok, inside = interpolate_masked(x_field, p[rows])
    x_store[rows[ok & inside]] = vals[ok & inside]
    _retire(status, rows, ok, inside)


class FrameFields:
    """One frame's derived fields, built once by the frame loop and shared by its consumers.

    Holds the frame, the momentum gradient of psi~, the readout field x(p),
    the configured current and the velocity j/|psi~|^2. `current_of` gives
    the current of either construction, each built at most once per frame.
    """

    def __init__(self, frame: Frame, potential: Potential, method: CurrentMethod):
        psi_p = frame.psi_p
        self.frame = frame
        self.potential = potential
        self.grad = spectral_gradient(psi_p.values, psi_p.grid, Representation.MOMENTUM)
        self.position = local_position_field(psi_p, self.grad)
        self._currents: dict[CurrentMethod, CurrentField] = {}
        self.current = self.current_of(method)
        self.velocity = velocity_from_current(self.current, psi_p.density())

    def current_of(self, method: CurrentMethod) -> CurrentField:
        """The frame's current by `method`, built on first use."""
        if method not in self._currents:
            fr = self.frame
            self._currents[method] = current_for(self.potential, fr.psi_x, fr.psi_p, method,
                                                 self.grad)
        return self._currents[method]


ESTIMATE_ROWS = 64  # rows of the step-doubling error estimate, spread evenly over the batch


def _integrate(
    frames: list[Frame],
    q0: np.ndarray,
    field_of: Callable[[Frame], MaskedVectorField],
    substeps: int,
    at_frame: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The frame loop of both models: RK4 substeps through each frame interval.

    field_of(frame) gives the velocity field at a frame; at_frame(f, q, status),
    when given, runs at every frame once q has reached it, before the frame's
    state is recorded, and may retire rows. The first step of every frame
    interval is a `_doubled_step` over a fixed subsample of at most
    ESTIMATE_ROWS rows. Returns (times, q and status histories, step error),
    where the step error is the max of those step-doubling estimates.
    """
    if len(frames) == 0:
        raise ConfigurationError("no frames to integrate over")
    q = np.atleast_2d(np.asarray(q0, dtype=float))
    dof = frames[0].psi_p.grid.dof
    if q.shape[1] != dof:
        raise ConfigurationError(f"initial points must have shape (N, {dof})")
    n = len(q)
    times = np.array([fr.time for fr in frames])
    q_hist = np.empty((len(frames),) + q.shape)
    status_hist = np.empty((len(frames), n), dtype=np.int8)
    probe = np.arange(n)[::max(1, -(-n // ESTIMATE_ROWS))]
    q = np.concatenate([q, q[probe]])  # rows n: are _doubled_step's scratch rows
    status = np.zeros(len(q), dtype=np.int8)
    step_error = 0.0

    w1 = field_of(frames[0])
    for f in range(len(frames)):
        if f:
            # The pair copies both fields. Rebinding w1 in the call and deleting
            # the pair after the step keep neither the older field nor the pair
            # alive while at_frame runs (a 2d frame's fields take megabytes).
            pair = _endpoints(w1, w1 := field_of(frames[f]))
            dt = (times[f] - times[f - 1]) / substeps
            for s in range(substeps):
                theta0, theta1 = s / substeps, (s + 1) / substeps
                if s == 0:
                    step_error = max(step_error,
                                     _doubled_step(q, status, probe, pair, theta0, theta1, dt))
                else:
                    _rk4_step(q[:n], status[:n], pair, theta0, theta1, dt)
            del pair
        if at_frame is not None:
            at_frame(f, q[:n], status[:n])
        q_hist[f] = q[:n]
        status_hist[f] = status[:n]
    return times, q_hist, status_hist, step_error


def integrate_epstein(
    frames: list[Frame],
    potential: Potential,
    p_initial: np.ndarray,
    method: CurrentMethod = CurrentMethod.CLOSED_FORM,
    substeps_per_frame: int = 1,
    on_frame: Callable[[FrameFields, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> EnsembleHistory:
    """Advance momentum-flow trajectories through a propagated frame sequence.

    Velocity fields at the interval endpoints come from the frame states;
    stage evaluations linearly interpolate between them in time. RK4 is
    exact for a field linear in time, so extra substeps only resolve the
    field's spatial variation, which is weak here. One RK4 step per frame
    interval (the default) is therefore enough: on every catalog scenario it
    stays within 1e-12 of a run with 4 x steps_per_frame substeps, and no
    farther from it than steps_per_frame substeps
    (scripts/traj_convergence.py). Positions are read out at every frame; a
    row that cannot be read out keeps its last position (NaN before the first).
    on_frame(fields, p, x, status), when given, runs at every frame after the
    readout and reads the frame's FrameFields and state without changing them.
    """
    x = np.full((len(frames),) + np.atleast_2d(p_initial).shape, np.nan)
    fields: FrameFields | None = None  # the frame the trajectories are moving to

    def velocity_of(fr: Frame) -> MaskedVectorField:
        nonlocal fields
        fields = None  # release the previous frame's fields before building the next
        fields = FrameFields(fr, potential, method)
        return fields.velocity

    def at_frame(f: int, p: np.ndarray, status: np.ndarray) -> None:
        if f:
            x[f] = x[f - 1]
        _readout_positions(x[f], status, fields.position, p)
        if on_frame is not None:
            on_frame(fields, p, x[f], status)

    times, p, status, step_error = _integrate(frames, p_initial, velocity_of,
                                              substeps_per_frame, at_frame)
    return EnsembleHistory("epstein", times, x, status, p, step_error)


def integrate_dbb(
    frames: list[Frame],
    x_initial: np.ndarray,
    masses: float | tuple[float, ...] = 1.0,
    substeps_per_frame: int = 1,
) -> EnsembleHistory:
    """Advance guidance-law trajectories through a propagated frame sequence."""
    times, x, status, step_error = _integrate(
        frames, x_initial, lambda fr: velocity_field_dbb(fr.psi_x, masses), substeps_per_frame
    )
    return EnsembleHistory("dbb", times, x, status, None, step_error)
