import tracemalloc

import numpy as np
import pytest

import momtraj.dynamics
import momtraj.grid
from momtraj import (
    BoundaryMassError,
    ComplexField,
    ConfigurationError,
    CurrentMethod,
    Free,
    Harmonic,
    Linear,
    NormalizationError,
    Representation,
    to_momentum,
    total_energy,
)
from momtraj.dynamics import (PropagatorConfig, _step_phases, collect_frames, continuity_probe,
                              momentum_block, propagate)
from momtraj.grid import BLOCK_POINTS, BOUNDARY_MASS_TOL, grid_1d, grid_2d, to_position
from momtraj.states import coherent_state, gaussian_state
from momtraj.trajectories import FrameBlock


def free_gaussian_exact(x, t, sigma=1.0, mass=1.0, hbar=1.0):
    """Closed-form spreading Gaussian under free evolution."""
    s = sigma**2 + 1j * hbar * t / mass
    return (np.pi * sigma**2) ** -0.25 * np.sqrt(sigma**2 / s) * np.exp(-(x**2) / (2 * s))


def coherent_exact(x, t, x0, mass=1.0, omega=1.0, hbar=1.0):
    """Closed-form coherent-state evolution for the displaced ground state."""
    xc = x0 * np.cos(omega * t)
    pc = -mass * omega * x0 * np.sin(omega * t)
    mw = mass * omega / hbar
    return (mw / np.pi) ** 0.25 * np.exp(
        -mw * (x - xc) ** 2 / 2
        + 1j * (pc * x - xc * pc / 2.0 - hbar * omega * t / 2.0) / hbar
    )


def test_free_gaussian_matches_analytic(grid_wide):
    psi = gaussian_state(grid_wide, sigma=1.0)
    cfg = PropagatorConfig(dt=1e-3, steps_per_frame=1000)
    final = propagate(psi, Free(), cfg, 5000)
    exact = free_gaussian_exact(grid_wide.positions(0), 5.0)
    assert np.abs(final.psi_x.values - exact).max() <= 1e-9


def test_coherent_state_oracle_is_consistent(grid512):
    # sanity for the test's own oracle: it must satisfy the dynamics too
    psi = coherent_state(grid512, 2.0)
    cfg = PropagatorConfig(dt=1e-3, steps_per_frame=100)
    final = propagate(psi, Harmonic(1.0, 1.0), cfg, 700)
    exact = coherent_exact(grid512.positions(0), 0.7, 2.0)
    assert np.abs(final.psi_x.values - exact).max() <= 1e-5


def test_coherent_period_fidelity(grid512):
    x0 = 2.0
    psi = coherent_state(grid512, x0)
    steps = int(round(2 * np.pi / 1e-3))
    cfg = PropagatorConfig(dt=1e-3, steps_per_frame=steps)
    final = propagate(psi, Harmonic(1.0, 1.0), cfg, steps)
    exact = coherent_exact(grid512.positions(0), steps * 1e-3, x0)
    dx = grid512.spacing(0)
    fidelity = abs(np.sum(np.conj(final.psi_x.values) * exact) * dx)
    assert fidelity >= 1.0 - 1e-6


def test_strang_order_is_two(grid512):
    x0, T = 2.0, 1.6
    psi = coherent_state(grid512, x0)
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        steps = int(round(T / dt))
        cfg = PropagatorConfig(dt=dt, steps_per_frame=steps)
        final = propagate(psi, Harmonic(1.0, 1.0), cfg, steps)
        exact = coherent_exact(grid512.positions(0), T, x0)
        errs.append(np.sqrt(np.sum(np.abs(final.psi_x.values - exact) ** 2)
                            * grid512.spacing(0)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_norm_conservation_long_run(grid512):
    psi = coherent_state(grid512, 2.0)
    cfg = PropagatorConfig(dt=1e-3, steps_per_frame=10_000)
    final = propagate(psi, Harmonic(1.0, 1.0), cfg, 10_000)
    assert abs(final.psi_p.norm() - 1.0) <= 1e-10


def test_energy_drift_small_step(grid512):
    # symmetric splitting: energy error is a bounded O(dt^2) oscillation
    pot = Harmonic(1.0, 1.0)
    psi = coherent_state(grid512, 2.0)
    frames = collect_frames(psi, pot, PropagatorConfig(dt=1e-4, steps_per_frame=1500), 15_000)
    energies = [total_energy(fr, pot) for fr in frames]
    e0 = energies[0]
    assert max(abs(e - e0) for e in energies) <= 1e-8 * abs(e0)


def test_energy_bounded_not_secular_default_step(grid512):
    pot = Harmonic(1.0, 1.0)
    psi = coherent_state(grid512, 2.0)
    frames = collect_frames(psi, pot, PropagatorConfig(dt=1e-3, steps_per_frame=200), 12_000)
    energies = np.array([total_energy(fr, pot) for fr in frames])
    err = np.abs(energies - energies[0]) / abs(energies[0])
    assert err.max() <= 1e-6
    half = len(err) // 2
    assert err[half:].max() <= 1.05 * err[:half].max()  # no secular growth


def test_energy_drift_linear(grid512):
    pot = Linear(2.0)
    psi = gaussian_state(grid512, sigma=1.0)
    frames = collect_frames(psi, pot, PropagatorConfig(dt=1e-3, steps_per_frame=250), 1000)
    energies = [total_energy(fr, pot) for fr in frames]
    assert max(abs(e - energies[0]) for e in energies) <= 1e-8 * max(abs(energies[0]), 1.0)


def test_free_modulus_is_static(grid_wide):
    # free evolution applies one exact phase per frame: modulus at roundoff
    psi = to_momentum(gaussian_state(grid_wide))
    rho0 = psi.density()
    cfg = PropagatorConfig(dt=1e-3, steps_per_frame=500)
    final = propagate(psi, Free(), cfg, 5000)
    drift = np.abs(final.psi_p.density() - rho0).max() / rho0.max()
    assert drift <= 1e-14


def test_frame_cadence_and_reps():
    grid = grid_1d(128, 40.0)
    psi = gaussian_state(grid)
    frames = collect_frames(psi, Free(), PropagatorConfig(dt=1e-3, steps_per_frame=10), 30)
    times = [fr.time for fr in frames]
    assert times == pytest.approx([0.0, 0.01, 0.02, 0.03])
    for fr in frames:
        assert fr.psi_x.rep is Representation.POSITION
        assert fr.psi_p.rep is Representation.MOMENTUM
        assert fr.psi_x.time == fr.psi_p.time == fr.time


@pytest.mark.parametrize("run", [propagate, collect_frames])
def test_frame_interval_must_divide_the_step_count(run):
    # frames are evenly spaced: no short last interval at 0.025 after 0.02
    psi = gaussian_state(grid_1d(128, 40.0))
    with pytest.raises(ConfigurationError, match="frames must be evenly spaced"):
        run(psi, Free(), PropagatorConfig(dt=1e-3, steps_per_frame=10), 25)


def test_propagate_accepts_momentum_input(grid512):
    phi = to_momentum(gaussian_state(grid512))
    final = propagate(phi, Free(), PropagatorConfig(dt=1e-3, steps_per_frame=10), 10)
    assert final.time == pytest.approx(0.01)


def test_boundary_violation_aborts():
    grid = grid_1d(128, 16.0)
    psi = gaussian_state(grid, sigma=1.0, boost=3.0)  # drifts into the wall
    cfg = PropagatorConfig(dt=1e-3, steps_per_frame=100)
    with pytest.raises(BoundaryMassError):
        propagate(psi, Free(), cfg, 3000)


def test_boundary_violation_inside_a_block_stops_before_the_offending_frame(monkeypatch):
    grid = grid_1d(128, 16.0)
    psi = gaussian_state(grid, sigma=1.0, boost=3.0)  # drifts into the wall
    with monkeypatch.context() as m:  # an unchecked propagation as the oracle
        m.setattr(momtraj.dynamics, "BOUNDARY_MASS_TOL", np.inf)
        unchecked = collect_frames(psi, Free(), PropagatorConfig(1e-3, 10), 3000)
    index = next(i for i, fr in enumerate(unchecked) if max(fr.boundary_mass) > BOUNDARY_MASS_TOL)
    assert index % (BLOCK_POINTS // grid.size) > 0  # not the first frame of its block
    seen = []
    with pytest.raises(BoundaryMassError) as err:
        propagate(psi, Free(), PropagatorConfig(1e-3, 10), 3000, on_frame=seen.append)
    assert [fr.time for fr in seen] == [fr.time for fr in unchecked[:index]]
    assert [fr.psi_p.values.tobytes() for fr in seen] == [
        fr.psi_p.values.tobytes() for fr in unchecked[:index]]
    rep, frac = next((rep, frac) for rep, frac in
                     zip(("position", "momentum"), unchecked[index].boundary_mass)
                     if frac > BOUNDARY_MASS_TOL)
    t = 0.0 + index * 10 * 1e-3
    assert str(err.value) == (f"boundary mass fraction {frac:.3e} in {rep} representation "
                              f"at t={t:.6f} exceeds 1e-08")


def test_kinetic_phase_wrap_rejected(grid512):
    psi = gaussian_state(grid512)
    with pytest.raises(ConfigurationError):
        propagate(psi, Free(), PropagatorConfig(dt=1.0, steps_per_frame=1), 1)


@pytest.mark.parametrize("dt", [1.0, -1.0])
def test_kinetic_phase_guard_reads_the_step_size_not_its_sign(grid512, dt):
    # |kin.max() * dt| is about 257 pi on this grid either way
    with pytest.raises(ConfigurationError, match="kinetic phase per step"):
        _step_phases(grid512, Harmonic(1.0, 1.0), (1.0,), dt)


@pytest.mark.parametrize("dt", [0.0, -2.0, float("nan")])
def test_continuity_probe_rejects_a_step_that_is_not_positive(grid512, dt):
    psi_p = to_momentum(gaussian_state(grid512))
    with pytest.raises(ConfigurationError, match="dt must be positive"):
        continuity_probe(psi_p, Harmonic(1.0, 1.0), dt)


def test_unnormalized_state_rejected(grid512):
    vals = 2.0 * gaussian_state(grid512).values
    psi = ComplexField(grid512, Representation.POSITION, vals)
    with pytest.raises(NormalizationError):
        propagate(psi, Free(), PropagatorConfig(dt=1e-3, steps_per_frame=1), 1)


def test_masses_validation(grid2d):
    psi = gaussian_state(grid2d)
    with pytest.raises(ConfigurationError):
        propagate(psi, Free(), PropagatorConfig(dt=1e-3, steps_per_frame=1), 1,
                  masses=(1.0, 1.0, 1.0))


@pytest.mark.parametrize("pot", [Free(), Harmonic(1.0, 1.0)])
def test_zero_steps_emit_only_the_initial_frame(grid512, pot):
    # the free path and the split-step path share one emission schedule
    frames = collect_frames(gaussian_state(grid512), pot, PropagatorConfig(1e-3, 10), 0)
    assert [fr.time for fr in frames] == [0.0]


@pytest.mark.parametrize("pot", [Free(), Linear(2.0), Harmonic(1.0, 1.0)])
def test_continuity_probe_equals_two_half_step_propagations(grid512, pot, monkeypatch):
    # one probe of a block of frames equals, row by row and bit for bit, two
    # half-step propagations of each frame
    frames = collect_frames(coherent_state(grid512, 2.0), pot,
                            PropagatorConfig(dt=1e-3, steps_per_frame=5), 10)
    half = PropagatorConfig(dt=1e-3 / 2.0, steps_per_frame=1)
    refs = []
    for frame in frames:
        mid_ref = propagate(frame.psi_p, pot, half, 1)
        refs.append((mid_ref, propagate(mid_ref.psi_p, pot, half, 1).psi_p))
    block = ComplexField(grid512, Representation.MOMENTUM,
                         np.stack([fr.psi_p.values for fr in frames]),
                         np.array([fr.time for fr in frames]))

    calls = []
    ifft = np.fft.ifft  # an inverse transform calls it once per grid axis
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **kw: calls.append(1) or ifft(*a, **kw))
    mid_p, after = continuity_probe(block, pot, 1e-3)
    # inverse transforms for the whole block: one per split step (Free has
    # none); the probe keeps no position-space state
    assert len(calls) == (0 if isinstance(pot, Free) else 2)
    assert len(frames) == 3
    mid_x = to_position(mid_p)  # what the Poisson current reads
    for row, (mid_ref, after_ref) in enumerate(refs):
        for got, want in ((mid_x, mid_ref.psi_x), (mid_p, mid_ref.psi_p), (after, after_ref)):
            assert got.rep is want.rep and got.time[row] == want.time
            assert got.values[row].tobytes() == want.values.tobytes()


# -- block emission against the one-frame-at-a-time propagator -------------------------


def _reference_transform(grid, values, backward=False):
    """The transform of the propagator that emitted one frame at a time, expression for
    expression: numpy's complex products round a*b and b*a differently."""
    plan = grid.derived(momtraj.grid._transform_plan)
    pre, post = plan[2:4] if backward else plan[:2]
    out = (np.fft.ifftn if backward else np.fft.fftn)(pre * values,
                                                       axes=tuple(range(-grid.dof, 0)))
    return np.multiply(post, out, out=out)


def _reference_boundary_mass(values):
    """One frame's boundary mass fraction, summed as the one-frame propagator summed it."""
    rho = np.abs(values) ** 2
    total = rho.sum()
    worst = 0.0
    for a in range(rho.ndim):
        lo = [slice(None)] * rho.ndim
        hi = [slice(None)] * rho.ndim
        lo[a] = slice(0, 3)
        hi[a] = slice(-3, None)
        worst = max(worst, float((rho[tuple(lo)].sum() + rho[tuple(hi)].sum()) / total))
    return worst


def _reference_frames(psi, potential, config, n_steps):
    """(time, psi_x, psi_p, boundary masses) of each frame, stepped and emitted one
    frame at a time with the one-frame propagator's expressions."""
    grid = psi.grid
    kin, kin_half, pot_phase = _step_phases(grid, potential, (1.0,) * grid.dof, config.dt)
    psi_p = _reference_transform(grid, psi.values)
    out = []

    def emit(step, vals):
        vals_x = _reference_transform(grid, vals, backward=True)
        masses = (_reference_boundary_mass(vals_x), _reference_boundary_mass(vals))
        out.append((0.0 + step * config.dt, vals_x, vals, masses))

    vals = psi_p
    emit(0, vals)
    done = 0
    for step in range(config.steps_per_frame, n_steps + 1, config.steps_per_frame):
        if pot_phase is None:
            vals = psi_p * np.exp(-1j * kin * (step * config.dt) / grid.hbar)
        else:
            for _ in range(step - done):
                pos = _reference_transform(grid, kin_half * vals, backward=True)
                back = _reference_transform(grid, pot_phase * pos)
                vals = kin_half * back
            done = step
        emit(step, vals)
    return out


@pytest.mark.parametrize("grid, pot, steps_per_frame, n_steps", [
    (grid_1d(512, 40.0), Harmonic(1.0, 1.0), 2, 300),  # 151 frames: blocks of 64, 64, 23
    (grid_1d(512, 40.0), Free(), 3, 201),  # 68 frames: blocks of 64, 4
    (grid_2d(64, 20.0), Harmonic(1.0, 1.0), 1, 20),  # blocks of 8 frames
    (grid_2d(256, 40.0), Free(), 2, 6),  # 2^16 points: products of 1 MiB, one frame a block
    (grid_2d(256, 40.0), Harmonic(1.0, 1.0), 2, 6),
])
def test_block_emission_gives_the_one_frame_propagators_frames(grid, pot, steps_per_frame,
                                                                 n_steps):
    psi = coherent_state(grid, 1.0)
    cfg = PropagatorConfig(1e-3, steps_per_frame)
    frames = collect_frames(psi, pot, cfg, n_steps)
    want = _reference_frames(psi, pot, cfg, n_steps)
    assert len(frames) == len(want)
    for fr, (t, vals_x, vals_p, masses) in zip(frames, want):
        assert fr.time == fr.psi_x.time == fr.psi_p.time == t
        assert fr.psi_p.values.tobytes() == vals_p.tobytes()
        assert fr.psi_x.values.tobytes() == vals_x.tobytes()
        assert fr.boundary_mass == masses


@pytest.mark.parametrize("grid, n_steps", [
    (grid_1d(512, 40.0), 300),  # 151 frames: blocks of 64, 64, 23
    (grid_2d(256, 40.0), 6),  # measurement's grid: one frame a block
])
def test_frame_psi_x_equals_its_row_of_every_batched_transform(grid, n_steps):
    # frames keep psi~ only; psi(x) derived from one row, from the frame's emission
    # block (FrameBlock's and a plain batched transform) or from the whole run's
    # stack (the guidance reference's) has the same bits
    pot = Harmonic(1.0, 1.0)
    frames = collect_frames(coherent_state(grid, 1.0), pot, PropagatorConfig(1e-3, 2), n_steps)
    size = max(1, BLOCK_POINTS // grid.size)
    whole = to_position(momentum_block(frames)).values
    for lo in range(0, len(frames), size):
        run = frames[lo:lo + size]
        block = FrameBlock(run, pot, CurrentMethod.CLOSED_FORM).psi_x.values
        batched = to_position(momentum_block(run)).values
        for row, fr in enumerate(run):
            got = fr.psi_x.values.tobytes()
            assert got == block[row].tobytes() == batched[row].tobytes()
            assert got == whole[lo + row].tobytes()


def test_frames_retain_only_their_momentum_rows():
    # 3 emission blocks (16, 16, 8 frames); the warm-up run builds the grid's step
    # phases and transform plans, so the traced run retains its frames alone, and
    # reading each frame's psi_x keeps nothing
    grid, pot = grid_1d(2048, 80.0), Harmonic(1.0, 1.0)
    psi, cfg = coherent_state(grid, 1.0), PropagatorConfig(5e-4, 1)
    collect_frames(psi, pot, cfg, 39)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        frames = collect_frames(psi, pot, cfg, 39)
        assert all(fr.psi_x.grid is grid for fr in frames)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(frames) == 40
    assert held <= 1.1 * len(frames) * grid.size * 16
