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
spacing. Shorter runs and zero fields lerp. The momentum-flow model builds
its velocity, readout field x(p) and currents a FrameBlock at a time and
hands each finished block, with its frames' history rows, to its consumers.
One interpolation stencil serves each point set: an RK4 stage reads its
field through one, stage 1 reads the x(p) readout's stencil, and a zero
field's step (a free particle's) builds none.
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
from .dynamics import Frame, _masses, momentum_block
from .errors import ConfigurationError
from .grid import (
    ComplexField,
    GridSpec,
    MaskedVectorField,
    Representation,
    _frozen,
    _masked_ratio,
    local_position_field,
    spectral_gradient,
    to_position,
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
    per stencil corner (each axis's tap, 1 for the upper neighbour, and the
    corner's offset in the row-major flat index). Corner 0 is at offset 0.
    """
    axes = tuple((grid.axis_points(rep, a)[0], grid.step(rep, a), grid.axes[a].points)
                 for a in range(grid.dof))
    strides = [prod(grid.shape[a + 1:]) for a in range(grid.dof)]
    corners = []
    for corner in range(2**grid.dof):
        taps = tuple((corner >> a) & 1 for a in range(grid.dof))
        corners.append((taps, sum(t * s for t, s in zip(taps, strides))))
    return axes, tuple(corners)


class Stencil:
    """The multilinear stencil of query points (N, dof) on one grid representation:
    `base`, each point's row-major flat index of its all-lower corner, `weights[a, t]`,
    the weight of axis a's tap t (0 the lower neighbour, 1 the upper), and `inside`.
    Only `interpolate_masked` builds one, so that its calls count every stencil."""

    def __init__(self, grid: GridSpec, rep: Representation, query: np.ndarray):
        axes, self.corners = grid.derived(_stencil_geometry, rep)
        q = np.atleast_2d(np.asarray(query, dtype=float))
        self.weights = np.empty((grid.dof, 2, len(q)))
        for a, (p0, step, n) in enumerate(axes):
            u = (q[:, a] - p0) / step
            in_a = (u >= 0.0) & (u <= n - 1)
            lower = np.floor(u)  # clamped in float before the one cast; fmax takes NaN to 0
            np.fmin(np.fmax(lower, 0.0, out=lower), n - 2, out=lower)
            frac = np.subtract(u, lower, out=self.weights[a, 1])
            np.minimum(np.maximum(frac, 0.0, out=frac), 1.0, out=frac)
            np.subtract(1.0, frac, out=self.weights[a, 0])
            i = lower.astype(np.intp)
            self.inside = in_a if a == 0 else self.inside & in_a
            self.base = i if a == 0 else self.base * n + i

    def apply(self, fld: MaskedVectorField) -> tuple[np.ndarray, np.ndarray]:
        """(values (N, k), stencil_ok (N,)) of a field of k components on the
        stencil's grid representation; corner 0's term starts the sum."""
        valid = fld.valid.ravel()
        comps = fld.components.reshape(len(fld.components), -1)
        for taps, offset in self.corners:
            flat = self.base + offset if offset else self.base
            term = comps.take(flat, axis=1) * reduce(
                np.multiply, [self.weights[a, t] for a, t in enumerate(taps)])
            vals, ok = (vals + term, ok & valid[flat]) if offset else (term, valid[flat])
        return vals.T, ok

    def keep(self, rows: np.ndarray | slice) -> Stencil:
        """Keep, in place, only the points that `rows` (a boolean mask or a slice) selects."""
        self.base, self.weights, self.inside = (
            self.base[rows], self.weights[:, :, rows], self.inside[rows])
        return self


def interpolate_masked(
    fld: MaskedVectorField, query: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Stencil]:
    """Evaluate a masked field of k components at query points (N, dof).

    Returns (values (N, k), stencil_ok (N,), inside (N,), the stencil, which
    reads other fields there). Values are only meaningful where stencil_ok & inside.
    """
    stencil = Stencil(fld.grid, fld.rep, query)
    return (*stencil.apply(fld), stencil.inside, stencil)


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


def _settle(status: np.ndarray, rows: np.ndarray, ok: np.ndarray, inside: np.ndarray,
            whole: bool) -> tuple[np.ndarray | slice, np.ndarray | slice]:
    """Retire the rows whose read failed, LEFT_GRID off the grid, else FROZEN_AT_NODE.
    Returns (the rows to write, the reads that go there): slices where none failed."""
    good = ok & inside
    if good.all():
        return (slice(None) if whole else rows), slice(None)
    status[rows[~inside]] = TrajStatus.LEFT_GRID
    status[rows[inside & ~ok]] = TrajStatus.FROZEN_AT_NODE
    return rows[good], good


def _read(fld: MaskedVectorField, q: np.ndarray, stencil: Stencil | None):
    """interpolate_masked(fld, q), through `stencil`, the stencil of q, where one is given."""
    if stencil is None:
        return interpolate_masked(fld, q)
    return (*stencil.apply(fld), stencil.inside, stencil)


def _rk4_step(q: np.ndarray, status: np.ndarray, w: MaskedVectorField, dt: float,
              stencil: Stencil | None = None) -> Stencil | None:
    """One RK4 step of the active rows of q over one frame interval, in place.

    w stacks the interval's fields (w0, w1, mid), dof components each, under
    one mask: the stages read w0, mid twice, then w1. A row whose stencil
    fails at any stage keeps its point and is retired.
    `stencil`, if given, is the active rows' stencil (the readout's) and
    serves stage 1. A zero field moves no row, so it returns that stencil,
    less the rows it retires, for the next read; any other returns None.
    """
    rows = np.flatnonzero(status == TrajStatus.ACTIVE)
    if rows.size == 0:
        return None
    qa = q if rows.size == len(q) else q[rows]
    if not w.components.any():
        # A zero field (a free particle's current): every stage reads +-0, so the
        # four stages leave q as it is (bar turning an exact -0.0 into +0.0).
        _, ok, inside, stencil = _read(w, qa, stencil)
        return stencil.keep(_settle(status, rows, ok, inside, False)[1])
    dof = q.shape[1]
    w0, w1, mid = (MaskedVectorField(w.grid, w.rep, w.components[i * dof:(i + 1) * dof], w.valid)
                   for i in range(3))
    k1, ok1, in1, _ = _read(w0, qa, stencil)
    k2, ok2, in2, _ = interpolate_masked(mid, qa + 0.5 * dt * k1)
    k3, ok3, in3, _ = interpolate_masked(mid, qa + 0.5 * dt * k2)
    k4, ok4, in4, _ = interpolate_masked(w1, qa + dt * k3)
    ok, inside = ok1 & ok2 & ok3 & ok4, in1 & in2 & in3 & in4
    rows, moved = _settle(status, rows, ok, inside, qa is q)
    q[rows] = (qa + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))[moved]
    return None


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
    the final frame are the statistically usable ensemble.
    """

    times: np.ndarray
    x: np.ndarray
    status: np.ndarray
    p: np.ndarray | None = None


def _readout_positions(x_store: np.ndarray, status: np.ndarray, x_field: MaskedVectorField,
                       p: np.ndarray, stencil: Stencil | None = None) -> Stencil | None:
    """Read x(p) off x_field in place for active rows, through their `stencil` (and no
    gather of p) if given; freeze on bad stencils. Returns the active rows' stencil."""
    rows = np.flatnonzero(status == TrajStatus.ACTIVE)
    if rows.size == 0:
        return None
    whole = rows.size == len(p)
    q = p if whole or stencil is not None else p[rows]
    vals, ok, inside, stencil = _read(x_field, q, stencil)
    rows, good = _settle(status, rows, ok, inside, whole)
    x_store[rows] = vals[good]
    return stencil.keep(good)


class FrameBlock:
    """Consecutive frames' derived fields, each built by one batched call per block.

    Holds the frames' psi~ stacked on a frame axis, psi(x) from one batched
    transform of it, the momentum gradient of psi~, the readout field x(p),
    the configured current and the velocity j/|psi~|^2, all read-only.
    `current_of` gives the current of either construction, built at most
    once per block; `position_at` and `current_at` give one frame's row of
    the readout and of the configured current as read-only views.
    """

    def __init__(self, frames: list[Frame], potential: Potential, method: CurrentMethod):
        self.frames = frames
        self.potential = potential
        self.method = method
        grid = frames[0].psi_p.grid
        self.psi_p = momentum_block(frames)
        self.psi_x = to_position(self.psi_p)
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
# frames, by the offset (-2 .. 0) of its first frame from the interval's first
# frame: (-1, 9, 9, -1)/16 at -1, (5, 15, -5, 1)/16 at 0. Each is k/16, exact.
MIDPOINT_WEIGHTS = np.array([
    [prod(0.5 - b for b in nodes if b != a) / prod(a - b for b in nodes if b != a) for a in nodes]
    for nodes in (range(offset, offset + 4) for offset in range(-2, 1))])


class _Stepper:
    """The frame loop of both models, driven by its caller a block of frames at a time.

    `load(w)` takes the next block's velocity fields (frame axis first),
    stacks the fields of the frame intervals whose frames are now loaded, and
    returns the frames they end at. For each in order, `advance()` takes the
    active rows through its interval in one RK4 step and returns the live
    (q, status), whose rows the caller may retire if it sets `stencil`, which
    the next step's stage 1 reads, to the rest's or None; `record()` writes
    the history rows. With `cubic` and n >= 4 frames, interval g (frames
    g - 1, g) takes its midpoint from the cubic through frames g - 2 .. g + 1,
    kept within 0 .. n - 1, valid where all four frames are; so it waits for
    frame max(g + 1, 3). Otherwise its midpoint is the lerp's.
    """

    def __init__(self, q0: np.ndarray, frames: list[Frame], cubic: bool = True):
        if not frames:
            raise ConfigurationError("no frames to integrate over")
        grid = frames[0].psi_p.grid
        self.q = np.array(q0, dtype=float, ndmin=2)
        n, dof = self.q.shape
        if dof != grid.dof:
            raise ConfigurationError(f"initial points must have shape (N, {grid.dof})")
        size = grid.block_frames
        self.blocks = [(lo, frames[lo:lo + size]) for lo in range(0, len(frames), size)]
        self.times = np.array([fr.time for fr in frames])
        self.cubic = cubic and len(frames) >= 4
        self.status = np.zeros(n, dtype=np.int8)
        self.q_hist = np.empty((len(frames), n, dof))
        self.status_hist = np.empty((len(frames), n), dtype=np.int8)
        self.stencil: Stencil | None = None  # of the active rows of q, where one is known
        # (components, valid) of the loaded frames from frame self.base on
        self.window = np.empty((dof, 0) + grid.shape), np.empty((0,) + grid.shape, bool)
        self.base = 0
        self.f = 0  # the frame that advance moves to

    def load(self, w: MaskedVectorField) -> range:
        comps = np.concatenate([self.window[0], w.components], axis=1)
        valid = np.concatenate([self.window[1], w.valid])
        n, loaded, base = len(self.times), self.base + len(valid), self.base
        ready = loaded if loaded == n or not self.cubic else (loaded - 1 if loaded > 3 else 1)
        self.first = max(self.f, 1)  # the frame the first built interval ends at
        g = np.arange(self.first, ready)
        w0, w1 = comps[:, g - 1 - base], comps[:, g - base]
        if self.cubic:
            start = np.clip(g - 2, 0, n - 4)  # the first of the frames the interval reads
            weights = MIDPOINT_WEIGHTS[start - g + 3].T.reshape((4,) + g.shape + (1,) * w.grid.dof)
            mid = sum(weights[i] * comps[:, start + i - base] for i in range(4))
        else:
            start, mid = g - 1, 0.5 * (w0 + w1)
        ok = np.logical_and.reduce([valid[start + i - base] for i in range(4 if self.cubic else 2)])
        self.intervals = MaskedVectorField(w.grid, w.rep, np.concatenate([w0, w1, mid]), ok)
        # keep from the first frame a later interval reads
        self.base = max(0, min(ready - 2, n - 4)) if self.cubic else ready - 1
        self.window = comps[:, self.base - base:].copy(), valid[self.base - base:].copy()
        return range(self.f, ready)

    def advance(self) -> tuple[np.ndarray, np.ndarray]:
        f = self.f
        if f:
            self.stencil = _rk4_step(self.q, self.status, _frames(self.intervals, f - self.first),
                                     self.times[f] - self.times[f - 1], self.stencil)
        return self.q, self.status

    def record(self) -> None:
        self.q_hist[self.f] = self.q
        self.status_hist[self.f] = self.status
        self.f += 1

    def history(self, x: np.ndarray, p: np.ndarray | None) -> EnsembleHistory:
        return EnsembleHistory(self.times, x, self.status_hist, p)


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

    The frames' fields come in FrameBlocks of `GridSpec.block_frames` frames.
    on_block(block, lo, p, x, status), when given, runs once the last frame of
    each block is recorded, with the index lo of its first frame and views of
    its frames' history rows, which it reads without changing.
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
            stepper.stencil = _readout_positions(x[f], status, oldest.position_at(f - first), p,
                                                 stepper.stencil)
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
    for _, run in stepper.blocks:
        for _ in stepper.load(velocity_field_dbb(to_position(momentum_block(run)), masses)):
            stepper.advance()
            stepper.record()
    return stepper.history(stepper.q_hist, None)
