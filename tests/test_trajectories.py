import re
import weakref
from functools import reduce

import numpy as np
import pytest

import momtraj.dynamics
import momtraj.trajectories
from momtraj import (
    ComplexField,
    CurrentMethod,
    Free,
    Harmonic,
    IllPosedSourceError,
    Linear,
    Representation,
    spectral_gradient,
    spectral_inverse_laplacian,
    to_momentum,
)
from momtraj.currents import continuity_residual, current_closed_form, current_for, current_poisson
from momtraj.dynamics import Frame, PropagatorConfig, collect_frames
from momtraj.ensemble import grid_moments, sample_momenta
from momtraj.grid import (GridAxis, GridSpec, MaskedVectorField, grid_1d, grid_2d,
                          local_position_field)
from momtraj.grid import boundary_mass_fraction, node_mask, to_position
from momtraj.states import coherent_state, gaussian_state, superposition_state
from momtraj.trajectories import (
    FrameBlock,
    Stencil,
    TrajStatus,
    _frames,
    _readout_positions,
    _rk4_step,
    integrate_dbb,
    integrate_epstein,
    interpolate_masked,
    velocity_field_dbb,
    velocity_from_current,
)


def momentum_state(grid, sigma=1.0, x0=0.0, p0=0.0, time=0.0):
    p = grid.momenta(0)
    hb = grid.hbar
    vals = (sigma**2 / (np.pi * hb**2)) ** 0.25 * np.exp(
        -((p - p0) ** 2) * sigma**2 / (2 * hb**2) - 1j * (p - p0) * x0 / hb
    )
    return ComplexField(grid, Representation.MOMENTUM, vals, time)


def _endpoints(w0, w1):
    """Two fields stacked as one: w0's components, then w1's, valid where both are."""
    return MaskedVectorField(w0.grid, w0.rep, np.concatenate([w0.components, w1.components]),
                             w0.valid & w1.valid)


def lerp_interval(w0, w1):
    """An interval's fields as `_rk4_step` reads them where the stepper lerps:
    w0, w1 and their mean, valid where both ends are."""
    mid = 0.5 * (w0.components + w1.components)
    return MaskedVectorField(w0.grid, w0.rep, np.concatenate(
        [w0.components, w1.components, mid]), w0.valid & w1.valid)


# -- interpolation ------------------------------------------------------------------


def assert_endpoint_pair_matches(w0, w1, q):
    """One stencil over the stacked pair equals the two separate calls bit for bit."""
    v0, ok0, in0, _ = interpolate_masked(w0, q)
    v1, ok1, in1, _ = interpolate_masked(w1, q)
    vals, ok, inside, _ = interpolate_masked(_endpoints(w0, w1), q)
    dof = w0.grid.dof
    assert vals.shape == (len(q), 2 * dof)
    assert vals[:, :dof].tobytes() == v0.tobytes()
    assert vals[:, dof:].tobytes() == v1.tobytes()
    assert np.array_equal(ok, ok0 & ok1) and np.array_equal(inside, in0 & in1)
    assert not ok.all() and not inside.all()


def test_interpolation_exact_on_linear_field(grid512):
    p = grid512.momenta(0)
    fld = MaskedVectorField(grid512, Representation.MOMENTUM,
                            (3.0 * p + 1.0)[None, :], np.ones(512, bool))
    q = np.array([[0.123], [-4.567], [7.7]])
    vals, ok, inside, _ = interpolate_masked(fld, q)
    assert ok.all() and inside.all()
    assert np.abs(vals[:, 0] - (3.0 * q[:, 0] + 1.0)).max() <= 1e-12


def test_interpolation_detects_outside(grid512):
    fld = MaskedVectorField(grid512, Representation.MOMENTUM,
                            np.zeros((1, 512)), np.ones(512, bool))
    p_max = grid512.momenta(0)[-1]
    _, _, inside, _ = interpolate_masked(fld, np.array([[p_max + 1.0]]))
    assert not inside[0]


def test_interpolation_respects_mask(grid512):
    valid = np.ones(512, bool)
    valid[300] = False
    fld = MaskedVectorField(grid512, Representation.MOMENTUM,
                            np.zeros((1, 512)), valid)
    p = grid512.momenta(0)
    mid = 0.5 * (p[299] + p[300])
    _, ok, _, _ = interpolate_masked(fld, np.array([[mid], [p[100]]]))
    assert not ok[0] and ok[1]

    # a stacked endpoint pair of random masked fields, some points off the grid
    rng = np.random.default_rng(3)
    w0, w1 = (MaskedVectorField(grid512, Representation.MOMENTUM, rng.normal(size=(1, 512)),
                                rng.random(512) > 0.05) for _ in range(2))
    assert_endpoint_pair_matches(w0, w1, rng.uniform(p[0] - 1.0, p[-1] + 1.0, size=(2000, 1)))


def test_interpolation_bilinear_2d():
    from momtraj import grid_2d

    grid = grid_2d(64, 16.0)
    p0, p1 = grid.mesh(Representation.MOMENTUM)
    comps = np.stack([p0 + 2 * p1, p0 * 0 + p1 * 0 + 5.0])
    fld = MaskedVectorField(grid, Representation.MOMENTUM, comps,
                            np.ones(grid.shape, bool))
    q = np.array([[0.3, -1.1], [2.2, 3.3]])
    vals, ok, inside, _ = interpolate_masked(fld, q)
    assert ok.all() and inside.all()
    assert np.abs(vals[:, 0] - (q[:, 0] + 2 * q[:, 1])).max() <= 1e-12
    assert np.abs(vals[:, 1] - 5.0).max() <= 1e-12

    # random masked field at random points, some off the grid, against a
    # bilinear reference written out corner by corner
    rng = np.random.default_rng(7)
    comps = rng.normal(size=(2,) + grid.shape)
    valid = rng.random(grid.shape) > 0.05
    fld = MaskedVectorField(grid, Representation.MOMENTUM, comps, valid)
    p = grid.momenta(0)
    dp = grid.dual_spacing(0)
    q = rng.uniform(p[0] - 2 * dp, p[-1] + 2 * dp, size=(3000, 2))
    vals, ok, inside, _ = interpolate_masked(fld, q)
    u = (q - p[0]) / dp
    expect_inside = np.all((u >= 0) & (u <= len(p) - 1), axis=1)
    assert np.array_equal(inside, expect_inside)
    assert 0 < expect_inside.sum() < len(q)
    masked_stencils = 0
    for k in np.flatnonzero(expect_inside):
        i, j = np.minimum(np.floor(u[k]).astype(int), len(p) - 2)
        fi, fj = u[k, 0] - i, u[k, 1] - j
        corners = [((i, j), (1 - fi) * (1 - fj)), ((i + 1, j), fi * (1 - fj)),
                   ((i, j + 1), (1 - fi) * fj), ((i + 1, j + 1), fi * fj)]
        expected = sum(w * comps[:, a, b] for (a, b), w in corners)
        assert np.abs(vals[k] - expected).max() <= 1e-12
        stencil_ok = all(valid[a, b] for (a, b), _ in corners)
        assert ok[k] == stencil_ok
        masked_stencils += not stencil_ok
    assert masked_stencils > 0

    w1 = MaskedVectorField(grid, Representation.MOMENTUM, rng.normal(size=(2,) + grid.shape),
                           rng.random(grid.shape) > 0.05)
    assert_endpoint_pair_matches(fld, w1, q)


def interpolate_reference(fld, q):
    """interpolate_masked's arithmetic with every axis rebuilt by grid.axis_points."""
    grid = fld.grid
    inside = np.ones(len(q), bool)
    lower, weights = [], []
    for a in range(grid.dof):
        pts = grid.axis_points(fld.rep, a)
        u = (q[:, a] - pts[0]) / grid.step(fld.rep, a)
        inside &= (u >= 0.0) & (u <= len(pts) - 1)
        i = np.clip(np.floor(u).astype(int), 0, len(pts) - 2)
        frac = np.clip(u - i, 0.0, 1.0)
        lower.append(i)
        weights.append((1.0 - frac, frac))
    vals = np.full((len(fld.components), len(q)), -0.0)
    ok = np.ones(len(q), bool)
    for corner in range(2**grid.dof):  # bit a: upper neighbour on axis a
        upper = [(corner >> a) & 1 for a in range(grid.dof)]
        node = tuple(i + u for i, u in zip(lower, upper))
        ok &= fld.valid[node]
        weight = reduce(np.multiply, [weights[a][u] for a, u in enumerate(upper)])
        vals += fld.components[(slice(None),) + node] * weight
    return vals.T, ok, inside


def test_interpolation_equals_the_axis_points_reference():
    # grids that differ only in their extent, and a second representation of
    # each, called in turn: a stencil geometry cached under the wrong key reads
    # another grid's origin
    rng = np.random.default_rng(11)
    grids = [grid_1d(128, 20.0), grid_1d(128, 23.4),
             GridSpec((GridAxis(64, 12.0), GridAxis(128, 16.0))),
             GridSpec((GridAxis(64, 13.0), GridAxis(128, 18.5)))]
    cases = []
    for grid in grids:
        for rep in Representation:
            fld = MaskedVectorField(grid, rep, rng.normal(size=(2 * grid.dof,) + grid.shape),
                                    rng.random(grid.shape) > 0.05)
            lo = np.array([grid.axis_points(rep, a)[0] for a in range(grid.dof)])
            hi = np.array([grid.axis_points(rep, a)[-1] for a in range(grid.dof)])
            pad = hi - lo
            q = rng.uniform(lo - 0.05 * pad, hi + 0.05 * pad, size=(500, grid.dof))
            q[:5] = lo  # the first node and the last, exactly
            q[5:10] = hi
            cases.append((fld, q))
    for _ in range(2):
        for fld, q in cases:
            got = interpolate_masked(fld, q)
            want = interpolate_reference(fld, q)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
            assert not got[1].all() and not got[2].all() and got[2].any()


# -- trajectories through one fixed state ------------------------------------------------


def fixed_frames(psi, t_end):
    """Two frames, at t = 0 and t_end, of one state that does not change."""
    psi_x = psi if psi.rep is Representation.POSITION else to_position(psi)
    psi_p = psi if psi.rep is Representation.MOMENTUM else to_momentum(psi)
    masses = (float(boundary_mass_fraction(psi_x)), float(boundary_mass_fraction(psi_p)))
    return [Frame(0.0, psi_p, masses), Frame(t_end, psi_p, masses)]


def read_x(phi, p, x_before=0.0):
    """x(p) read off phi for one row, and the row's status after the readout."""
    x = np.array([[x_before]])
    status = np.zeros(1, dtype=np.int8)
    grad = spectral_gradient(phi.values, phi.grid, Representation.MOMENTUM)
    _readout_positions(x, status, local_position_field(phi, grad), np.array([[p]]))
    return x[0], TrajStatus(int(status[0]))


def test_step_epstein_free_is_exact(grid512):
    phi = momentum_state(grid512)
    hist = integrate_epstein(fixed_frames(phi, 1.0), Free(), np.array([[1.25]]))
    assert hist.p[-1, 0, 0] == 1.25
    assert hist.status[-1][0] == TrajStatus.ACTIVE


def test_step_epstein_linear_constant_force(grid512):
    # w = j / rho = -c everywhere: RK4 is exact for the constant field
    c = 2.0
    phi = momentum_state(grid512)
    hist = integrate_epstein(fixed_frames(phi, 1.0), Linear(c), np.array([[0.5]]))
    assert abs(hist.p[-1, 0, 0] - (0.5 - c * 1.0)) <= 1e-8


def test_step_epstein_harmonic_ground_frozen_momentum(grid512):
    phi = momentum_state(grid512)  # real profile
    hist = integrate_epstein(fixed_frames(phi, 1.0), Harmonic(1.0), np.array([[0.8]]))
    assert abs(hist.p[-1, 0, 0] - 0.8) <= 1e-10
    assert abs(hist.x[-1, 0, 0]) <= 1e-9


def test_step_epstein_leaves_grid(grid512):
    # uniform density keeps every stencil valid, so the edge is reachable
    length = 512 * grid512.dual_spacing(0)
    flat = ComplexField(grid512, Representation.MOMENTUM,
                        np.full(512, length**-0.5, dtype=complex))
    p_edge = grid512.momenta(0)[-1]
    # Linear(-5): w = +5 pushes p upward
    hist = integrate_epstein(fixed_frames(flat, 0.1), Linear(-5.0),
                             np.array([[p_edge - 1e-3]]))
    assert hist.status[-1][0] == TrajStatus.LEFT_GRID
    assert hist.p[-1, 0, 0] <= p_edge  # retired in place, not extrapolated


def test_position_of_free_drift(grid512):
    t, mass = 5.0, 1.0
    grid = grid_1d(512, 80.0)
    p = grid.momenta(0)
    base = momentum_state(grid).values
    phi_t = ComplexField(grid, Representation.MOMENTUM,
                         base * np.exp(-1j * p**2 * t / (2 * mass)), time=t)
    x, _ = read_x(phi_t, 1.0)
    assert abs(x[0] - 5.0) <= 1e-8


def test_position_of_superposition_origin(grid512):
    grid = grid_1d(512, 45.0)
    sup = superposition_state(grid, 5.0)
    phi = to_momentum(sup.field)
    for pval in (-1.1, 0.3, 2.2):
        x, _ = read_x(phi, pval, np.nan)
        assert abs(x[0]) <= 1e-8


def test_position_of_boosted_packet(grid512):
    x0 = 3.0
    phi = momentum_state(grid512, x0=x0)
    x, _ = read_x(phi, 0.7)
    assert abs(x[0] - x0) <= 1e-8


def test_position_of_freezes_at_node(grid512):
    vals = momentum_state(grid512).values.copy()
    vals[250:262] = 0.0
    phi = ComplexField(grid512, Representation.MOMENTUM, vals)
    p_in_hole = grid512.momenta(0)[255]
    x, status = read_x(phi, p_in_hole, 123.0)
    assert status is TrajStatus.FROZEN_AT_NODE
    assert x[0] == 123.0  # last valid position retained


def test_step_dbb_plane_wave_velocity(grid512):
    p0 = 1.5
    psi = gaussian_state(grid512, sigma=4.0, boost=p0)
    hist = integrate_dbb(fixed_frames(psi, 1e-3), np.array([[0.0]]))
    assert hist.x[-1, 0, 0] == pytest.approx(p0 * 1e-3, rel=1e-4)


def test_step_dbb_symmetric_center_is_fixed(grid512):
    psi = gaussian_state(grid512, sigma=1.0)
    hist = integrate_dbb(fixed_frames(psi, 0.5), np.array([[0.0]]))
    assert abs(hist.x[-1, 0, 0]) <= 1e-12


# -- batch integration ------------------------------------------------------------------


def test_dbb_trajectories_never_cross_epstein_do(grid_wide):
    psi = gaussian_state(grid_wide, sigma=1.0)
    pot = Free()
    frames = collect_frames(psi, pot, PropagatorConfig(dt=1e-3, steps_per_frame=50), 1000)

    x0 = np.linspace(-2.0, 2.0, 41)[:, None]
    dbb = integrate_dbb(frames, x0)
    order0 = np.argsort(dbb.x[0, :, 0])
    for f in range(len(frames)):
        assert np.array_equal(np.argsort(dbb.x[f, :, 0], kind="stable"), order0)

    p0 = np.linspace(-2.0, 2.0, 41)[:, None]
    eps = integrate_epstein(frames, pot, p0)
    # distinct momenta share x = 0 at t = 0 (crossing), then fan out
    assert np.abs(eps.x[0, :, 0]).max() <= 1e-8
    assert np.std(eps.x[-1, :, 0]) > 0.5


def test_epstein_history_readout_consistency(grid_wide):
    psi = gaussian_state(grid_wide, sigma=1.0)
    frames = collect_frames(psi, Free(), PropagatorConfig(dt=1e-3, steps_per_frame=100), 500)
    p0 = np.array([[0.5], [1.0], [-1.5]])
    hist = integrate_epstein(frames, Free(), p0)
    for f, fr in enumerate(frames):
        xf = local_position_field(fr.psi_p, spectral_gradient(fr.psi_p.values, grid_wide,
                                                              Representation.MOMENTUM))
        vals, ok, inside, _ = interpolate_masked(xf, hist.p[f])
        assert ok.all() and inside.all()
        assert np.abs(vals - hist.x[f]).max() <= 1e-12


def test_trajectory_views_carry_history(grid_wide):
    psi = gaussian_state(grid_wide, sigma=1.0)
    frames = collect_frames(psi, Free(), PropagatorConfig(dt=1e-3, steps_per_frame=100), 300)
    hist = integrate_epstein(frames, Free(), np.array([[1.0]]))
    assert len(hist.times) == len(hist.p) == len(hist.x) == len(frames)
    assert hist.times[-1] == pytest.approx(0.3)
    assert hist.p[-1, 0, 0] == pytest.approx(1.0)
    assert hist.x[-1, 0, 0] == pytest.approx(0.3, abs=1e-8)


def test_node_freeze_counted_on_commensurate_fringes():
    # extent 40 with shift 5 puts exact fringe nodes on grid points
    grid = grid_1d(512, 40.0)
    sup = superposition_state(grid, 5.0)
    frames = collect_frames(sup.field, Free(),
                            PropagatorConfig(dt=1e-3, steps_per_frame=10), 10)
    rng = np.random.default_rng(7)
    p0 = rng.uniform(-2.0, 2.0, size=(500, 1))
    hist = integrate_epstein(frames, Free(), p0)
    assert np.sum(hist.status[-1] == TrajStatus.FROZEN_AT_NODE) > 0
    frozen = hist.status[-1] == TrajStatus.FROZEN_AT_NODE
    active = hist.status[-1] == TrajStatus.ACTIVE
    assert np.isnan(hist.x[0][frozen]).sum() >= 0  # frozen-at-start carry no position
    assert not np.isnan(hist.x[-1][active]).any()


def test_batch_momenta_leaving_the_grid_stay_retired(monkeypatch):
    # under Linear(c) every momentum falls at the rate c and the density moves
    # with it, so the low momenta run off the lower edge of the grid (the
    # boundary check, which would stop the propagation, is off on purpose)
    monkeypatch.setattr(momtraj.dynamics, "BOUNDARY_MASS_TOL", np.inf)
    grid = grid_1d(128, 40.0)
    c = 10.0
    pot = Linear(c)
    prop = PropagatorConfig(dt=1e-3, steps_per_frame=50)
    frames = collect_frames(gaussian_state(grid, sigma=0.5), pot, prop, 500)
    p0 = np.linspace(-9.5, 2.0, 24)[:, None]
    hist = integrate_epstein(frames, pot, p0)
    left = hist.status == TrajStatus.LEFT_GRID
    gone = left[-1]
    assert 0 < gone.sum() < len(p0)
    assert not (hist.status == TrajStatus.FROZEN_AT_NODE).any()
    p_min = grid.momenta(0)[0]
    for i in np.flatnonzero(gone):
        first = int(np.argmax(left[:, i]))
        assert first > 0 and left[first:, i].all()
        assert np.all(hist.p[first:, i] == hist.p[first, i])
        # retired in place on the grid, within one step (a frame interval) of the edge
        assert p_min <= hist.p[first, i, 0] <= p_min + c * (hist.times[1] - hist.times[0]) + 1e-12
    kept = ~gone
    expected = p0[kept, 0] - c * hist.times[-1]
    assert np.abs(hist.p[-1, kept, 0] - expected).max() <= 1e-8


def test_harmonic_coherent_classical_force_small(grid512):
    pot = Harmonic(1.0)
    psi = coherent_state(grid512, 2.0)
    frames = collect_frames(psi, pot, PropagatorConfig(dt=1e-3, steps_per_frame=10), 1000)
    p0 = np.array([[0.3], [-0.9], [1.4]])
    hist = integrate_epstein(frames, pot, p0)
    dtf = hist.times[1] - hist.times[0]
    dpdt = (hist.p[2:, :, 0] - hist.p[:-2, :, 0]) / (2 * dtf)
    resid = np.abs(dpdt + hist.x[1:-1, :, 0])
    assert resid.max() <= 1e-4


def test_momentum_flow_of_psi_is_the_guidance_flow_of_its_momentum_wavefunction():
    # x <-> p duality: under V = x^2 / 2 (m = w = hbar = 1) the Schrodinger
    # equation for psi~(p, t) has the position-space form, so on a self-dual
    # grid (dx = dp) psi~ relabelled as a position wavefunction phi
    # propagates as phi(x, t), and psi's momentum-flow trajectories p(t) are
    # phi's guidance trajectories x(t), with either current
    grid = grid_1d(512, np.sqrt(2 * np.pi * 512))
    pot = Harmonic(1.0)
    prop = PropagatorConfig(dt=np.pi / 3200, steps_per_frame=10)
    frames = collect_frames(coherent_state(grid, 2.0), pot, prop, 3200)
    phi = ComplexField(grid, Representation.POSITION, frames[0].psi_p.values)
    p0 = sample_momenta(frames[0].psi_p, 300, 8)
    dbb = integrate_dbb(collect_frames(phi, pot, prop, 3200), p0)
    assert (dbb.status == TrajStatus.ACTIVE).all()
    for method in CurrentMethod:
        eps = integrate_epstein(frames, pot, p0, method)
        assert (eps.status == TrajStatus.ACTIVE).all()
        assert np.abs(eps.p - dbb.x).max() <= 1e-6, method


def test_rows_do_not_depend_on_the_batch(grid512):
    # a row's arithmetic is its own: the batch's other rows must not change it
    pot = Harmonic(1.0)
    frames = collect_frames(coherent_state(grid512, 2.0), pot,
                            PropagatorConfig(dt=1e-3, steps_per_frame=10), 100)
    p0 = sample_momenta(frames[0].psi_p, 300, 5)
    batch = integrate_epstein(frames, pot, p0)
    for rows in (slice(0, 7), slice(150, 151)):
        part = integrate_epstein(frames, pot, p0[rows])
        assert part.p.tobytes() == batch.p[:, rows].tobytes()
        assert part.x.tobytes() == batch.x[:, rows].tobytes()
        assert np.array_equal(part.status, batch.status[:, rows])


def test_trajectory_error_falls_fourth_order_with_the_frame_spacing(grid512):
    # the same propagation with frames every 40, 20 and 10 steps of one dt,
    # against frames at every step on the shared frames: the time
    # interpolation's error in p falls about 16-fold per halving of the
    # frame spacing (12x and 14x here)
    pot = Harmonic(1.0)
    runs = {}
    for spf in (40, 20, 10, 1):
        frames = collect_frames(coherent_state(grid512, 2.0), pot,
                                PropagatorConfig(dt=1e-3, steps_per_frame=spf), 400)
        if spf == 40:
            p0 = sample_momenta(frames[0].psi_p, 300, 5)
        runs[spf] = integrate_epstein(frames, pot, p0)
    errors = []
    for spf in (40, 20, 10):
        assert (runs[spf].status == TrajStatus.ACTIVE).all()
        errors.append(float(np.abs(runs[spf].p - runs[1].p[::spf]).max()))
    assert errors[0] > 8.0 * errors[1] > 64.0 * errors[2] > 0.0


def test_zero_field_step_equals_the_four_stage_step(grid512, monkeypatch):
    # a zero interval takes the one-stencil short circuit; the same interval
    # with one node of w1 far from every row nudged takes the four stages,
    # which read zero at every row, so both must agree bit for bit, with or
    # without the readout's stencil of the start points handed in for stage 1
    p = grid512.momenta(0)
    valid = np.ones(512, bool)
    valid[300] = False
    zero = lerp_interval(*(MaskedVectorField(grid512, Representation.MOMENTUM,
                                             np.zeros((1, 512)), valid) for _ in range(2)))
    nudged_comps = zero.components.copy()
    nudged_comps[1, 100] = 1.0
    nudged = MaskedVectorField(grid512, Representation.MOMENTUM, nudged_comps, zero.valid)
    q0 = np.concatenate([
        np.linspace(p[150], p[250], 40),               # on the grid
        [p[0] - 1.0, p[-1] + 1.0, p[-1] + 1e-9],       # off the grid
        0.5 * (p[299] + p[300]) + [-0.05, 0.0, 0.05],  # stencils touching node 300
    ])[:, None]
    calls = []
    interp = momtraj.trajectories.interpolate_masked
    monkeypatch.setattr(momtraj.trajectories, "interpolate_masked",
                        lambda w, q: calls.append(w) or interp(w, q))
    results = {}
    for name, interval in (("zero", zero), ("nudged", nudged)):
        for shared in (False, True):
            q = q0.copy()
            status = np.zeros(len(q), np.int8)
            status[3] = TrajStatus.FROZEN_AT_NODE  # retired rows are left alone
            counts = []
            for _ in range(2):
                active = status == TrajStatus.ACTIVE
                stencil = interp(interval, q[active])[3] if shared else None
                calls.clear()
                kept = _rk4_step(q, status, interval, 0.015, stencil)
                counts.append(len(calls))
                if name == "nudged":
                    assert kept is None
                else:  # the start points' stencil, less the rows the step retired
                    fresh = Stencil(grid512, Representation.MOMENTUM,
                                    q[status == TrajStatus.ACTIVE])
                    for attr in ("base", "weights", "inside"):
                        assert getattr(kept, attr).tobytes() == getattr(fresh, attr).tobytes()
            results[name, shared] = (q.tobytes(), status.tobytes(), counts)
    for key in results:
        assert results[key][:2] == results["nudged", False][:2]
    assert [results[key][2] for key in results] == [[1, 1], [0, 0], [4, 4], [3, 3]]
    status = np.frombuffer(results["zero", False][1], np.int8)
    assert (status[:40] == TrajStatus.ACTIVE).sum() == 39
    assert (status[40:43] == TrajStatus.LEFT_GRID).all()
    assert (status[43:46] == TrajStatus.FROZEN_AT_NODE).all()


@pytest.mark.parametrize("pot", [Harmonic(1.0), Free()], ids=["harmonic", "free"])
def test_rows_the_readout_retires_leave_stage_1_a_subset(pot, monkeypatch):
    # momenta over the fringes of a commensurate superposition: the stencils
    # of about half of them touch an exact node at frame 0, where only the
    # readout reads, so stage 1 of the first step reads the readout's stencil
    # less those rows
    frames = collect_frames(superposition_state(grid_1d(512, 40.0), 5.0).field, pot,
                            PropagatorConfig(dt=1e-3, steps_per_frame=2), 258)
    p0 = np.linspace(-2.0, 2.0, 300)[:, None]
    calls = []
    interp = momtraj.trajectories.interpolate_masked
    monkeypatch.setattr(momtraj.trajectories, "interpolate_masked",
                        lambda w, q: calls.append(w) or interp(w, q))
    hist = integrate_epstein(frames, pot, p0)
    frozen = hist.status[0] == TrajStatus.FROZEN_AT_NODE
    assert 0 < frozen.sum() < len(p0) and not (hist.status[0] == TrajStatus.LEFT_GRID).any()
    if pot.is_zero:  # no point moves: the run's one stencil is the first readout's
        assert len(calls) == 1
    block = FrameBlock(frames, pot, CurrentMethod.CLOSED_FORM)
    assert_history_equals_the_per_interval_reference(
        hist, lambda f: _frames(block.velocity, f), cubic=not pot.is_zero)
    for f in range(len(frames)):
        active = hist.status[f] == TrajStatus.ACTIVE
        vals, ok, inside, _ = interp(block.position_at(f), hist.p[f][active])
        assert ok.all() and inside.all()
        assert vals.tobytes() == hist.x[f][active].tobytes()


# -- the interval fields -----------------------------------------------------------------


# 16 x the midpoint weights of the cubic through four frames, by the offset of
# its first frame from the interval's first frame
CUBIC_MIDPOINT = {-2: (1, -5, 15, 5), -1: (-1, 9, 9, -1), 0: (5, 15, -5, 1)}


def reference_interval(velocity, n, g):
    """Interval g's fields built on their own from the frames' velocity fields:
    (w0, w1, cubic midpoint), the cubic through frames g-2..g+1 kept inside
    the run and valid where all four frames are."""
    w0, w1 = velocity(g - 1), velocity(g)
    start = min(max(g - 2, 0), n - 4)
    fields = [velocity(start + i) for i in range(4)]
    weights = CUBIC_MIDPOINT[start - (g - 1)]
    mid = sum(wt / 16 * fld.components for wt, fld in zip(weights, fields))
    return MaskedVectorField(w0.grid, w0.rep, np.concatenate([w0.components, w1.components, mid]),
                             np.logical_and.reduce([fld.valid for fld in fields]))


def assert_history_equals_the_per_interval_reference(hist, velocity, cubic=True):
    """Every interval stepped on its own, from the history rows at its first
    frame, lands on the history rows at its last, bit for bit."""
    q_hist = hist.x if hist.p is None else hist.p
    n = len(hist.times)
    for g in range(1, n):
        w = (reference_interval(velocity, n, g) if cubic
             else lerp_interval(velocity(g - 1), velocity(g)))
        q, status = q_hist[g - 1].copy(), hist.status[g - 1].copy()
        _rk4_step(q, status, w, hist.times[g] - hist.times[g - 1])
        assert q.tobytes() == q_hist[g].tobytes()


@pytest.mark.parametrize("case", ["harmonic-130", "free", "leaving", "2d"])
def test_block_estimate_equals_the_per_interval_reference(case, monkeypatch):
    # 1d: 130 frames of 512 points come in blocks of 64, 64 and 2; 2d: one
    # 256 x 256 frame per block
    if case == "harmonic-130":
        pot = Harmonic(1.0)
        frames = collect_frames(coherent_state(grid_1d(512, 40.0), 2.0), pot,
                                PropagatorConfig(dt=1e-3, steps_per_frame=2), 258)
        p0 = sample_momenta(frames[0].psi_p, 500, 9)
    elif case == "free":
        pot = Free()
        frames = collect_frames(superposition_state(grid_1d(512, 40.0), 5.0).field, pot,
                                PropagatorConfig(dt=1e-3, steps_per_frame=2), 258)
        p0 = np.linspace(-2.0, 2.0, 300)[:, None]
    elif case == "leaving":  # under Linear(10) momenta run off the lower edge of the grid
        monkeypatch.setattr(momtraj.dynamics, "BOUNDARY_MASS_TOL", np.inf)  # unchecked on purpose
        pot = Linear(10.0)
        frames = collect_frames(gaussian_state(grid_1d(128, 40.0), sigma=0.5), pot,
                                PropagatorConfig(dt=1e-3, steps_per_frame=5),
                                500)
        p0 = np.linspace(-9.5, 2.0, 150)[:, None]
    else:
        pot = Harmonic((1.0, 0.25))
        frames = collect_frames(gaussian_state(grid_2d(256, 40.0), sigma=1.0, center=(1.0, -0.5)),
                                pot, PropagatorConfig(dt=1e-3, steps_per_frame=10), 40)
        p0 = sample_momenta(frames[0].psi_p, 200, 4)
    hist = integrate_epstein(frames, pot, p0)
    block = FrameBlock(frames, pot, CurrentMethod.CLOSED_FORM)
    assert_history_equals_the_per_interval_reference(
        hist, lambda f: _frames(block.velocity, f), cubic=case != "free")
    if case == "harmonic-130":
        assert len(frames) == 130
    if case == "leaving":  # the run is one block of 101 frames; rows leave inside it
        left = (hist.status[0] == TrajStatus.ACTIVE) & (hist.status[-2] == TrajStatus.LEFT_GRID)
        assert left.any() and not left.all()


def test_block_estimate_equals_the_per_interval_reference_dbb():
    # the guidance law, its velocity one call per block
    sup = superposition_state(grid_1d(512, 40.0), 5.0)
    frames = collect_frames(sup.field, Free(), PropagatorConfig(dt=1e-3, steps_per_frame=20),
                            2000)
    x0 = np.linspace(-3.0, 3.0, 300)[:, None]
    hist = integrate_dbb(frames, x0)
    assert len(frames) == 101
    assert_history_equals_the_per_interval_reference(
        hist, lambda f: velocity_field_dbb(frames[f].psi_x))


def test_velocity_from_current_masks_nodes(grid512):
    phi = momentum_state(grid512)
    j = current_closed_form(Linear(1.0), phi)
    w = velocity_from_current(j, phi.density())
    assert w.valid.sum() < 512  # far tails flagged
    assert np.all(np.abs(w.components[0][w.valid] + 1.0) <= 1e-9)


def test_guidance_velocity_divides_every_axis_by_the_mass(grid2d):
    # catalog runs use unit mass; another mass must reach every axis
    mass = 2.5
    psi = gaussian_state(grid2d, sigma=1.0, center=(1.0, -0.5), boost=(0.7, -0.3))
    w = velocity_field_dbb(psi, mass)
    rho = psi.density()
    valid = node_mask(rho, grid2d)
    grad = spectral_gradient(psi.values, grid2d, Representation.POSITION)
    assert np.array_equal(w.valid, valid) and not valid.all()
    for a in range(grid2d.dof):
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.real(np.conj(psi.values) * (-1j * grid2d.hbar) * grad[a]) / (mass * rho)
        assert np.array_equal(w.components[a], np.where(valid, raw, 0.0))
    assert not np.array_equal(w.components, velocity_field_dbb(psi).components)


def test_a_free_run_holds_one_frame_block_at_a_time(monkeypatch):
    # a zero field moves the same under the cubic in time, but the lerp that Free
    # takes frees each block before the next is built; with one frame a block,
    # the cubic's look-ahead would keep three live
    grid = grid_2d(256, 40.0, 128)
    assert grid.block_frames == 1
    live, counts = weakref.WeakSet(), []
    init = FrameBlock.__init__

    def counted(self, *args):
        init(self, *args)
        live.add(self)
        counts.append(len(live))

    monkeypatch.setattr(FrameBlock, "__init__", counted)
    frames = collect_frames(gaussian_state(grid), Free(), PropagatorConfig(1e-3, 1), 6)
    integrate_epstein(frames, Free(), sample_momenta(frames[0].psi_p, 100, 1))
    assert counts == [1] * len(frames)


# -- shared per-frame fields ------------------------------------------------------------


def _assert_frame_fields_exact(frames, pot, method):
    """Each frame's row views of one FrameBlock equal, bit for bit, each field
    built on its own for that frame."""
    block = FrameBlock(frames, pot, method)
    assert block.frames is frames
    for row, frame in enumerate(frames):
        xf = local_position_field(frame.psi_p, spectral_gradient(
            frame.psi_p.values, frame.psi_p.grid, Representation.MOMENTUM))
        cur = current_for(pot, frame.psi_x, frame.psi_p, method)
        w = velocity_from_current(cur, frame.psi_p.density())
        for got, want in ((block.position_at(row), xf), (_frames(block.velocity, row), w)):
            assert got.components.tobytes() == want.components.tobytes()
            assert np.array_equal(got.valid, want.valid)
        got = block.current_at(row)
        assert got.method is method and got.time == frame.time
        assert got.components.tobytes() == cur.components.tobytes()
        for other in CurrentMethod:  # either construction, built once per block
            want = current_for(pot, frame.psi_x, frame.psi_p, other)
            got = block.current_of(other)
            assert got.method is other and got.time[row] == frame.time
            assert block.current_of(other) is got
            assert got.components[:, row].tobytes() == want.components.tobytes()


@pytest.mark.parametrize("method", list(CurrentMethod))
@pytest.mark.parametrize("pot", [Free(), Linear(2.0), Harmonic(1.0)])
def test_frame_fields_equal_the_separate_constructions(grid512, pot, method):
    prop = PropagatorConfig(dt=1e-3, steps_per_frame=50)
    frames = collect_frames(coherent_state(grid512, 2.0), pot, prop, 100)
    _assert_frame_fields_exact(frames, pot, method)


@pytest.mark.parametrize("method", list(CurrentMethod))
def test_frame_fields_equal_the_separate_constructions_2d(grid2d, method):
    pot = Harmonic((1.0, 0.25))
    psi = gaussian_state(grid2d, sigma=1.0, center=(1.0, -0.5))
    frames = collect_frames(psi, pot, PropagatorConfig(dt=1e-3, steps_per_frame=20), 40)
    _assert_frame_fields_exact(frames, pot, method)


def _block_arrays(block):
    """Per frame of `block`: every row view's arrays, both currents, the source,
    and the suite's continuity residual, its denominator and the grid moments."""
    resid, den = continuity_residual(block.source, block.current_of(block.method))
    moments = grid_moments(block.psi_x, block.psi_p, block.grad)
    out = []
    for row in range(len(block.frames)):
        position, velocity = block.position_at(row), _frames(block.velocity, row)
        out.append([block.grad[:, row], position.components, position.valid,
                    velocity.components, velocity.valid,
                    *(block.current_of(m).components[:, row] for m in CurrentMethod),
                    block.source[row], resid[row], den[row], *(m[:, row] for m in moments)])
    return out


@pytest.mark.parametrize("pot,method,dof", [
    (Harmonic(1.0), CurrentMethod.CLOSED_FORM, 1),
    (Harmonic(1.0), CurrentMethod.POISSON, 1),
    (Linear(2.0), CurrentMethod.CLOSED_FORM, 1),
    (Free(), CurrentMethod.CLOSED_FORM, 1),
    (Harmonic((1.0, 0.25)), CurrentMethod.POISSON, 2),
])
def test_frame_block_equals_single_frame_blocks(grid512, grid2d, pot, method, dof):
    # 1d: a full block of 64 frames, whose arrays are large enough for numpy
    # to reuse temporaries in place
    if dof == 1:
        frames = collect_frames(coherent_state(grid512, 2.0), pot,
                                PropagatorConfig(dt=1e-3, steps_per_frame=1), 63)
    else:
        frames = collect_frames(gaussian_state(grid2d, sigma=1.0, center=(1.0, -0.5)), pot,
                                PropagatorConfig(dt=1e-3, steps_per_frame=10), 40)
    whole = _block_arrays(FrameBlock(frames, pot, method))
    assert len(whole) == len(frames) == (64 if dof == 1 else 5)
    for row, frame in enumerate(frames):
        (single,) = _block_arrays(FrameBlock([frame], pot, method))
        assert len(single) == len(whole[row]) == 15
        for got, want in zip(whole[row], single):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_frame_fields_come_in_blocks_of_block_points(grid512):
    # 64 frames of a 512-point grid share a block; frames of a 256 x 256 grid do not
    pot = Harmonic(1.0)
    frames = collect_frames(coherent_state(grid512, 2.0), pot,
                            PropagatorConfig(dt=1e-3, steps_per_frame=1), 69)
    blocks = []
    integrate_epstein(frames, pot, np.array([[0.5]]), on_block=lambda b, *_: blocks.append(b))
    assert [len(b.frames) for b in blocks] == [64, 6]
    assert blocks[0].frames + blocks[1].frames == frames
    for block in blocks:  # each frame's row views are read-only views into its block
        for row in range(len(block.frames)):
            for fld, view in ((block.position, block.position_at(row)),
                              (block.velocity, _frames(block.velocity, row)),
                              (block.current_of(block.method), block.current_at(row))):
                assert np.shares_memory(view.components, fld.components)
                assert not view.components.flags.writeable
            assert block.current_at(row).time == block.frames[row].time
    frames2d = collect_frames(gaussian_state(grid_2d(256, 40.0), sigma=1.0), Free(),
                              PropagatorConfig(dt=1e-3, steps_per_frame=1), 2)
    blocks.clear()
    integrate_epstein(frames2d, Free(), np.zeros((1, 2)), on_block=lambda b, *_: blocks.append(b))
    assert [len(b.frames) for b in blocks] == [1] * 3


@pytest.mark.parametrize("dof", [1, 2])
def test_on_block_sees_every_frame_once_with_its_history_rows(dof):
    # 1d: 130 frames of 512 points come in blocks of 64, 64 and 2; 2d: one
    # 256 x 256 frame per block. The last start point lies off the grid and
    # retires at frame 0.
    if dof == 1:
        grid, pot, n_steps, sizes = grid_1d(512, 40.0), Harmonic(1.0), 129, [64, 64, 2]
        p0 = np.array([[-1.0], [0.0], [0.7], [1.5], [99.0]])
    else:
        grid, pot, n_steps, sizes = grid_2d(256, 40.0), Linear((1.0, -0.5)), 2, [1, 1, 1]
        p0 = np.array([[-1.0, 0.5], [0.0, 0.0], [0.7, -0.3], [99.0, 0.0]])
    frames = collect_frames(gaussian_state(grid, sigma=1.0), pot,
                            PropagatorConfig(dt=1e-3, steps_per_frame=1), n_steps)
    seen = []

    def on_block(block, lo, p, x, status):
        seen.append((block.frames, lo, p.copy(), x.copy(), status.copy()))

    hist = integrate_epstein(frames, pot, p0, on_block=on_block)
    assert [len(b) for b, *_ in seen] == sizes
    assert [lo for _, lo, *_ in seen] == [0] + list(np.cumsum(sizes)[:-1])
    assert [fr for b, *_ in seen for fr in b] == frames
    for b, lo, p, x, status in seen:
        rows = slice(lo, lo + len(b))
        for got, want in ((p, hist.p), (x, hist.x), (status, hist.status)):
            assert got.tobytes() == want[rows].tobytes()
    assert hist.status[0, -1] == TrajStatus.LEFT_GRID
    assert (hist.status[:, :-1] == TrajStatus.ACTIVE).all()


def test_poisson_block_names_its_first_ill_posed_frame(grid512):
    p = grid512.momenta(0)
    balanced = np.real(spectral_gradient(np.exp(-p**2), grid512, Representation.MOMENTUM)[0])
    sources = np.stack([balanced, 0.5 * np.exp(-(p - 1.0) ** 2), np.exp(-p**2), balanced])
    with pytest.raises(IllPosedSourceError) as first:
        spectral_inverse_laplacian(sources[1], grid512, Representation.MOMENTUM)
    assert str(first.value).startswith("source integral ")
    with pytest.raises(IllPosedSourceError, match=f"^{re.escape(str(first.value))}$"):
        current_poisson(sources, grid512)
    current_poisson(sources[[0, 3]], grid512)  # balanced rows alone are well posed
