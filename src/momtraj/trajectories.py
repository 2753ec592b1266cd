"""Trajectory integration for the momentum-flow model and the guidance-law reference.

Momentum-flow (Epstein-type) trajectories evolve an auxiliary momentum
variable by dp/dt = j(p,t)/|psi~(p,t)|^2 and read the particle position off
the state as the local expectation value x(p) = -grad S~(p), evaluated at the
trajectory's p. The de Broglie-Bohm reference integrator evolves positions
directly by dx/dt = grad S / m.

Both models run through one RK4 stepper over velocity fields derived on the
grid a block of frames at a time, interpolated multilinearly in space and,
in time, by the cubic through four frames around each frame interval, so the
one RK4 step each interval takes is Simpson's rule, fourth order in the frame
spacing, and the cubic through the next four frames over gives the error
estimate. Shorter runs lerp, with no estimate unless the field is zero. The
momentum-flow model builds its velocity, readout field x(p) and currents a
FrameBlock at a time and hands each finished block, with its frames' history
rows, to its consumers. An interval's fields are stacked into one masked
field, so an RK4 stage builds one interpolation stencil for all of them.
Stencils touching node-flagged grid points freeze the trajectory
(conservative; freezes are counted and reported, never silently
extrapolated). Trajectories that leave the grid are likewise retired.
Trajectories are independent given the immutable frame fields, so
per-trajectory results are deterministic regardless of batch composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import reduce
from math import prod
from typing import Callable

import numpy as np

from .currents import CurrentField, CurrentMethod, current_for
from .dynamics import Frame, _masses
from .errors import ConfigurationError
from .grid import (
    BLOCK_POINTS,
    ComplexField,
    GridSpec,
    MaskedVectorField,
    Representation,
    _frozen,
    _masked_ratio,
    local_position_field,
    spectral_gradient,
)
from .potentials import Free, Potential


class TrajStatus(IntEnum):
    ACTIVE = 0
    FROZEN_AT_NODE = 1
    LEFT_GRID = 2


# -- masked multilinear interpolation -------------------------------------------


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
    axes, corners = fld.grid.derived(_stencil_geometry, fld.rep)
    q = np.atleast_2d(np.asarray(query, dtype=float))
    weights = []  # per axis: (weight of the lower neighbour, of the upper)
    base = None  # row-major flat index
    for a, (p0, step, n) in enumerate(axes):
        u = (q[:, a] - p0) / step
        in_a = (u >= 0.0) & (u <= n - 1)
        # np.minimum/np.maximum rather than np.clip, whose Python-level
        # dispatch costs microseconds per call on RK4's small batches
        i = np.minimum(np.maximum(np.floor(u).astype(np.intp), 0), n - 2)
        frac = np.minimum(np.maximum(u - i, 0.0), 1.0)
        weights.append((1.0 - frac, frac))
        inside = in_a if a == 0 else inside & in_a
        base = i if base is None else base * n + i

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
    return _masked_ratio(current.grid, Representation.MOMENTUM, current.components, density)


def velocity_field_dbb(
    psi_x: ComplexField, masses: float | tuple[float, ...] = 1.0
) -> MaskedVectorField:
    """Guidance velocity grad S / m = Re(psi* (-i hbar grad) psi) / (m |psi|^2),
    of one frame or of a block of frames on a leading axis."""
    if psi_x.rep is not Representation.POSITION:
        raise ConfigurationError("guidance velocity expects a position-representation field")
    grid = psi_x.grid
    grad = spectral_gradient(psi_x.values, grid, Representation.POSITION)
    numerator = np.real(np.conj(psi_x.values) * (-1j * grid.hbar) * grad)
    return _masked_ratio(grid, Representation.POSITION, numerator, psi_x.density(),
                         _masses(masses, grid.dof))


# -- RK4 over interpolated fields --------------------------------------------------


def _retire(status: np.ndarray, rows: np.ndarray, ok: np.ndarray, inside: np.ndarray) -> None:
    """Mark rows whose stencil left the grid LEFT_GRID, other failed ones FROZEN_AT_NODE."""
    status[rows[~inside]] = TrajStatus.LEFT_GRID
    status[rows[inside & ~ok]] = TrajStatus.FROZEN_AT_NODE


def _rk4_step(q: np.ndarray, status: np.ndarray, w: MaskedVectorField, dt: float,
              error: np.ndarray | None) -> None:
    """One RK4 step of the active rows of q over one frame interval, in place.

    w stacks the interval's fields (w0, w1, mid, diff), dof components each,
    under one mask: the stages read w0, (mid, diff) twice, then w1, and
    `error`, unless None, gains per moved row |the step's RK4 sum of diff|.
    A row whose stencil fails at any stage keeps its point and is retired.
    On a field that is zero everywhere, one stencil at the start point stands
    in for the four stages.
    """
    rows = np.flatnonzero(status == TrajStatus.ACTIVE)
    if rows.size == 0:
        return
    qa = q[rows]
    if not w.components.any():
        # A zero field (a free particle's current): every stage reads +-0 at the
        # start point, so the four stages leave q as it is (bar turning an exact
        # -0.0 coordinate into +0.0) and one stencil gives the statuses.
        _, ok, inside = interpolate_masked(w, qa)
        _retire(status, rows, ok, inside)
        return
    dof = q.shape[1]
    w0, middle, w1 = (MaskedVectorField(w.grid, w.rep, w.components[lo * dof:hi * dof], w.valid)
                      for lo, hi in ((0, 1), (2, 4), (1, 2)))
    k1, ok1, in1 = interpolate_masked(w0, qa)
    m2, ok2, in2 = interpolate_masked(middle, qa + 0.5 * dt * k1)  # (k2, diff)
    m3, ok3, in3 = interpolate_masked(middle, qa + 0.5 * dt * m2[:, :dof])
    k4, ok4, in4 = interpolate_masked(w1, qa + dt * m3[:, :dof])
    ok, inside = ok1 & ok2 & ok3 & ok4, in1 & in2 & in3 & in4
    moved = ok & inside
    total = k1 + 2.0 * m2[:, :dof] + 2.0 * m3[:, :dof] + k4
    q[rows[moved]] = (qa + (dt / 6.0) * total)[moved]
    if error is not None:
        change = 2.0 * m2[:, dof:] + 2.0 * m3[:, dof:]
        error[rows[moved]] += (dt / 6.0 * np.abs(change).max(axis=1))[moved]
    _retire(status, rows, ok, inside)


def _frames(fld: MaskedVectorField, sel: int | slice) -> MaskedVectorField:
    """Frame or frames `sel` of a field with a frame axis, as views."""
    return MaskedVectorField(fld.grid, fld.rep, fld.components[:, sel], fld.valid[sel])


# -- batch integration over a frame sequence ---------------------------------------


@dataclass
class EnsembleHistory:
    """Frame-resolution histories for a batch of trajectories.

    For the momentum-flow model `p` holds the auxiliary momenta and `x` the
    derived positions; for the guidance reference `p` is None and `x` holds
    the integrated positions. Status is recorded per frame; ACTIVE rows of
    the final frame are the statistically usable ensemble. `error_estimate`
    is the largest row sum of the time-interpolation error estimate, or None
    where a non-zero field was lerped (`_Stepper`).
    """

    times: np.ndarray
    x: np.ndarray
    status: np.ndarray
    p: np.ndarray | None = None
    error_estimate: float | None = 0.0


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


class FrameBlock:
    """Consecutive frames' derived fields, each built by one batched call per block.

    Holds the frames' states stacked on a frame axis, the momentum gradient
    of psi~, the readout field x(p), the configured current and the velocity
    j/|psi~|^2, all read-only. `current_of` gives the current of either
    construction, built at most once per block; `position_at` and
    `current_at` give one frame's row of the readout and of the configured
    current as read-only views.
    """

    def __init__(self, frames: list[Frame], potential: Potential, method: CurrentMethod):
        self.frames = frames
        self.potential = potential
        self.method = method
        grid = frames[0].psi_p.grid
        times = np.array([fr.time for fr in frames])
        self.psi_p = ComplexField(grid, Representation.MOMENTUM,
                                  _frozen(np.stack([fr.psi_p.values for fr in frames])), times)
        self.psi_x = ComplexField(grid, Representation.POSITION,
                                  _frozen(np.stack([fr.psi_x.values for fr in frames])), times)
        self.grad = _frozen(spectral_gradient(self.psi_p.values, grid, Representation.MOMENTUM))
        self.position = local_position_field(self.psi_p, self.grad)
        self._currents: dict[CurrentMethod, CurrentField] = {}
        self.velocity = velocity_from_current(self.current_of(method), self.psi_p.density())

    def current_of(self, method: CurrentMethod) -> CurrentField:
        """The block's current by `method`, built on first use."""
        if method not in self._currents:
            self._currents[method] = current_for(self.potential, self.psi_x, self.psi_p, method,
                                                 self.grad)
        return self._currents[method]

    def position_at(self, row: int) -> MaskedVectorField:
        return _frames(self.position, row)

    def current_at(self, row: int) -> CurrentField:
        """Frame `row`'s current by the block's configured method."""
        cur = self.current_of(self.method)
        return CurrentField(cur.grid, cur.components[:, row], cur.method, cur.time[row])


# Lagrange weights, at a frame interval's midpoint, of the cubic through four
# frames, by the offset (-3 .. 1) of its first frame from the interval's first
# frame: (-1, 9, 9, -1)/16 at -1, (5, 15, -5, 1)/16 at 0. Each is k/16, exact.
MIDPOINT_WEIGHTS = np.array([
    [prod(0.5 - b for b in nodes if b != a) / prod(a - b for b in nodes if b != a) for a in nodes]
    for nodes in (range(offset, offset + 4) for offset in range(-3, 2))])


class _Stepper:
    """The frame loop of both models, driven by its caller a block of frames at a time.

    `load(w)` takes the next block's velocity fields (frame axis first),
    stacks the fields of the frame intervals whose frames are now loaded, and
    returns the frames they end at. For each in order, `advance()` takes the
    active rows through its interval in one RK4 step and returns the live
    (q, status), whose rows the caller may still retire, and `record()`
    writes the history rows. With `cubic` and n >= 4 frames, interval g
    (frames g - 1, g) takes its midpoint from the cubic through frames
    g - 2 .. g + 1, kept within 0 .. n - 1, valid where all four frames are,
    and its diff from the cubic one frame earlier (later where none
    precedes); so it waits for frame max(g + 1, 4). Otherwise its midpoint is
    the lerp's, its diff 0, and a non-zero field leaves no error estimate.
    """

    def __init__(self, q0: np.ndarray, frames: list[Frame], cubic: bool = True):
        if not frames:
            raise ConfigurationError("no frames to integrate over")
        grid = frames[0].psi_p.grid
        self.q = np.array(q0, dtype=float, ndmin=2)
        n, dof = self.q.shape
        if dof != grid.dof:
            raise ConfigurationError(f"initial points must have shape (N, {grid.dof})")
        size = max(1, BLOCK_POINTS // grid.size)
        self.blocks = [(lo, frames[lo:lo + size]) for lo in range(0, len(frames), size)]
        self.times = np.array([fr.time for fr in frames])
        self.cubic = cubic and len(frames) >= 4
        self.status = np.zeros(n, dtype=np.int8)
        self.q_hist = np.empty((len(frames), n, dof))
        self.status_hist = np.empty((len(frames), n), dtype=np.int8)
        self.error: np.ndarray | None = np.zeros(n)
        # (components, valid) of the loaded frames from frame self.base on
        self.window = np.empty((dof, 0) + grid.shape), np.empty((0,) + grid.shape, bool)
        self.base = 0
        self.f = 0  # the frame that advance moves to

    def load(self, w: MaskedVectorField) -> range:
        comps = np.concatenate([self.window[0], w.components], axis=1)
        valid = np.concatenate([self.window[1], w.valid])
        n, loaded, base = len(self.times), self.base + len(valid), self.base
        ready = loaded if loaded == n or not self.cubic else (loaded - 1 if loaded > 4 else 1)
        self.first = max(self.f, 1)  # the frame the first built interval ends at
        g = np.arange(self.first, ready)
        w0, w1 = comps[:, g - 1 - base], comps[:, g - base]
        ok = valid[g - 1 - base] & valid[g - base]
        if self.cubic:
            def midpoint(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                weights = MIDPOINT_WEIGHTS[first - g + 4].T.reshape(
                    (4,) + g.shape + (1,) * w.grid.dof)
                return (sum(weights[i] * comps[:, first + i - base] for i in range(4)),
                        np.logical_and.reduce([valid[first + i - base] for i in range(4)]))

            start = np.clip(g - 2, 0, n - 4)
            (mid, ok), (other, ok_other) = midpoint(start), midpoint(
                start if n == 4 else np.where(start > 0, start - 1, start + 1))
            diff = np.where(ok_other, mid - other, 0.0)
        else:
            mid, diff = 0.5 * (w0 + w1), np.zeros_like(w0)
            if w.components.any():  # a lerp's error goes unseen
                self.error = None
        self.intervals = MaskedVectorField(w.grid, w.rep, np.concatenate([w0, w1, mid, diff]), ok)
        # keep from the first frame a later interval reads
        self.base = max(0, min(ready - 3, n - 5)) if self.cubic else ready - 1
        self.window = comps[:, self.base - base:].copy(), valid[self.base - base:].copy()
        return range(self.f, ready)

    def advance(self) -> tuple[np.ndarray, np.ndarray]:
        f = self.f
        if f:
            _rk4_step(self.q, self.status, _frames(self.intervals, f - self.first),
                      self.times[f] - self.times[f - 1], self.error)
        return self.q, self.status

    def record(self) -> None:
        self.q_hist[self.f] = self.q
        self.status_hist[self.f] = self.status
        self.f += 1

    def history(self, x: np.ndarray, p: np.ndarray | None) -> EnsembleHistory:
        error = None if self.error is None else float(self.error.max(initial=0.0))
        return EnsembleHistory(self.times, x, self.status_hist, p, error)


BlockHook = Callable[[FrameBlock, int, np.ndarray, np.ndarray, np.ndarray], None]


def integrate_epstein(
    frames: list[Frame],
    potential: Potential,
    p_initial: np.ndarray,
    method: CurrentMethod = CurrentMethod.CLOSED_FORM,
    on_block: BlockHook | None = None,
) -> EnsembleHistory:
    """Advance momentum-flow trajectories through a propagated frame sequence.

    One RK4 step per frame interval is Simpson's rule over the cubic in time
    (see `_Stepper`). A free particle's field is zero: it takes the lerp and
    no look-ahead. Positions are read out at every frame; a row that cannot
    be read out keeps its last position (NaN before the first).

    The frames' fields come in FrameBlocks of max(1, BLOCK_POINTS // grid size)
    frames. on_block(block, lo, p, x, status), when given, runs once the last
    frame of each block is recorded, with the index lo of its first frame and
    views of its frames' history rows, which it reads without changing.
    """
    stepper = _Stepper(p_initial, frames, not isinstance(potential, Free))
    x = np.full(stepper.q_hist.shape, np.nan)
    pending = []  # (lo, block) of the blocks with frames still to record, oldest first
    for lo, run in stepper.blocks:
        pending.append((lo, FrameBlock(run, potential, method)))
        for f in stepper.load(pending[-1][1].velocity):
            first, oldest = pending[0]
            p, status = stepper.advance()
            if f:
                x[f] = x[f - 1]
            _readout_positions(x[f], status, oldest.position_at(f - first), p)
            stepper.record()
            if f + 1 == first + len(oldest.frames):
                if on_block is not None:
                    rows = slice(first, f + 1)
                    on_block(oldest, first, stepper.q_hist[rows], x[rows],
                             stepper.status_hist[rows])
                del pending[0]
        oldest = None  # a recorded block is freed before the next one is built
    return stepper.history(x, stepper.q_hist)


def integrate_dbb(
    frames: list[Frame],
    x_initial: np.ndarray,
    masses: float | tuple[float, ...] = 1.0,
) -> EnsembleHistory:
    """Advance guidance-law trajectories through a propagated frame sequence,
    one velocity_field_dbb call per block of frames, as in integrate_epstein."""
    stepper = _Stepper(x_initial, frames)
    for lo, run in stepper.blocks:
        psi_x = ComplexField(run[0].psi_x.grid, Representation.POSITION,
                             _frozen(np.stack([fr.psi_x.values for fr in run])),
                             stepper.times[lo:lo + len(run)])
        for _ in stepper.load(velocity_field_dbb(psi_x, masses)):
            stepper.advance()
            stepper.record()
    return stepper.history(stepper.q_hist, None)
