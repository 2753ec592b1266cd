import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import momtraj.currents
import momtraj.dynamics
import momtraj.grid
import momtraj.potentials
import momtraj.scenarios
import momtraj.trajectories
from momtraj import (
    SCENARIOS,
    ComplexField,
    ConfigurationError,
    CurrentMethod,
    Harmonic,
    Representation,
    coverage_manifest,
    default_config,
    grid_2d,
    run_scenario,
)
from momtraj.dynamics import PropagatorConfig, collect_frames
from momtraj.ensemble import sample_momenta
from momtraj.scenarios import COMMON_FIELDS, FrameSuite, ScenarioConfig, _grid_for
from momtraj.states import coherent_state, gaussian_state, two_packet_momentum_state
from momtraj.trajectories import TrajStatus, integrate_epstein

SMALL_N = 600


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_passes_at_reduced_size(name):
    res = run_scenario(default_config(name, n_samples=SMALL_N, seed=0))
    failed = [v for v in res.verdicts if not v.passed]
    assert not failed, [(v.name, v.measured, v.tolerance) for v in failed]


def test_verdicts_deterministic():
    a = run_scenario(default_config("linear-drift", n_samples=400, seed=9))
    b = run_scenario(default_config("linear-drift", n_samples=400, seed=9))
    assert [(v.name, v.measured) for v in a.verdicts] == [
        (v.name, v.measured) for v in b.verdicts
    ]


def test_seed_changes_measured_statistics():
    a = run_scenario(default_config("free-particle", n_samples=400, seed=1))
    b = run_scenario(default_config("free-particle", n_samples=400, seed=2))
    ka = a.stats_rows[0]["ks"]["p0"]["statistic"]
    kb = b.stats_rows[0]["ks"]["p0"]["statistic"]
    assert ka != kb


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigurationError):
        default_config("nope")
    with pytest.raises(ConfigurationError):
        run_scenario(ScenarioConfig(name="nope"))


def test_bad_time_grid_rejected():
    cfg = default_config("linear-drift", t_final=0.0015, dt=1e-3)
    with pytest.raises(ConfigurationError):
        run_scenario(cfg)


def test_bad_model_rejected():
    cfg = default_config("free-particle", model="wrong")
    with pytest.raises(ConfigurationError):
        run_scenario(cfg)


def test_uneven_frames_rejected():
    # 1000 steps do not split into intervals of 333; the short last interval
    # would break the central differences of the force verdicts
    cfg = default_config("linear-drift", steps_per_frame=333)
    with pytest.raises(ConfigurationError, match="frames"):
        run_scenario(cfg)


def test_config_dict_round_trip():
    cfg = default_config("collapse", n_samples=123, seed=7)
    back = ScenarioConfig.from_dict(cfg.as_dict())
    assert back == cfg
    with pytest.raises(ConfigurationError):
        ScenarioConfig.from_dict({"bogus_key": 1})


# -- declared inputs ------------------------------------------------------------------


def _reads(name: str) -> set[str]:
    return set(COMMON_FIELDS) | {field for field, _ in SCENARIOS[name].params}


_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)]
_UNDECLARED = [(n, f) for n in sorted(SCENARIOS) for f in _FIELDS if f not in _reads(n)]
_DECLARED = [(n, f) for n in sorted(SCENARIOS) for f, _ in SCENARIOS[n].params]


def _off_default(value):
    """A value other than `value` that run_scenario accepts up to the runner call.

    run_scenario builds the grid before it calls the runner, so an int steps
    by 64, which takes grid_points2 from 0 to the smallest valid axis.
    """
    if isinstance(value, str):  # `model` is the only such field outside COMMON_FIELDS
        return "both" if value == "epstein" else "epstein"
    return value + 64 if isinstance(value, int) else value + 0.25


class _RunnerCalled(Exception):
    pass


def _stub_runner(monkeypatch, name):
    def runner(config, grid, potential):
        raise _RunnerCalled(config)
    monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(SCENARIOS[name], runner=runner))


def test_every_field_is_read_by_some_scenario():
    declared = {f for name in SCENARIOS for f, _ in SCENARIOS[name].params}
    assert set(_FIELDS) == set(COMMON_FIELDS) | declared
    for name, sdef in SCENARIOS.items():
        params = [f for f, _ in sdef.params]
        assert len(params) == len(set(params)), name
        assert not set(params) & set(COMMON_FIELDS), name


@pytest.mark.parametrize("name, field", _UNDECLARED)
def test_undeclared_field_is_rejected_before_the_run(monkeypatch, name, field):
    _stub_runner(monkeypatch, name)
    cfg = default_config(name)
    setattr(cfg, field, _off_default(getattr(cfg, field)))
    with pytest.raises(ConfigurationError, match=rf"does not read {field} "):
        run_scenario(cfg)


@pytest.mark.parametrize("name, field", _DECLARED)
def test_declared_field_reaches_the_runner(monkeypatch, name, field):
    _stub_runner(monkeypatch, name)
    cfg = default_config(name)
    setattr(cfg, field, _off_default(getattr(cfg, field)))
    with pytest.raises(_RunnerCalled):
        run_scenario(cfg)


def test_range_checks_come_before_the_declared_inputs():
    cfg = default_config("harmonic-coherent", sigma=-1.0)
    with pytest.raises(ConfigurationError, match="must be positive"):
        run_scenario(cfg)


def test_superposition_overlap_warning():
    with pytest.warns(UserWarning, match="overlap"):
        run_scenario(default_config("superposition", a=2.0, n_samples=200,
                                    model="epstein", t_final=0.02))


def test_measurement_zero_dpe_rejected():
    with pytest.raises(ConfigurationError, match="overlap"):
        run_scenario(default_config("measurement", dpe=0.0, n_samples=200))


def test_measurement_unequal_weights():
    res = run_scenario(default_config("measurement", c1_sq=0.64, n_samples=2000, seed=4))
    freqs = {
        name: entry["frequency"]
        for name, entry in res.stats_rows[0]["macrostate_occupancy"].items()
    }
    assert freqs["plus"] == pytest.approx(0.64, abs=4 * np.sqrt(0.64 * 0.36 / 2000))
    assert freqs["minus"] == pytest.approx(0.36, abs=4 * np.sqrt(0.64 * 0.36 / 2000))
    assert res.passed


@pytest.mark.parametrize("name,a,extra", [("measurement", -6.0, {"c1_sq": 0.64}),
                                          ("superposition", -5.0, {})])
def test_negative_packet_shift_runs_as_the_mirror_image(name, a, extra):
    # the state at a < 0 mirrors the one at |a|: the same verdicts run and pass,
    # and "plus" still names the region around +a, the c1 packet's
    runs = {s: run_scenario(default_config(name, a=s, n_samples=2000, seed=42, **extra))
            for s in (a, -a)}
    for res in runs.values():
        assert res.passed, [v for v in res.verdicts if not v.passed]
    assert [v.name for v in runs[a].verdicts] == [v.name for v in runs[-a].verdicts]
    if name == "superposition":
        assert "guidance-bimodality" in [v.name for v in runs[a].verdicts]
    else:
        occupancy = runs[a].stats_rows[0]["macrostate_occupancy"]
        assert occupancy["plus"]["frequency"] == pytest.approx(0.64, abs=0.05)


def test_collapse_poisson_route_reports_leakage():
    res = run_scenario(default_config("collapse", n_samples=400, current="poisson"))
    leak = res.diagnostics["gap_current_leakage"]
    assert leak["poisson"] >= 0.0
    assert "min_silent_gap_cells" in res.diagnostics
    names = [v.name for v in res.verdicts]
    assert "branch-current-decomposition" in names
    assert "single-branch-tracking" in names


def test_collapse_insufficient_separation_fails_gap_verdict():
    res = run_scenario(default_config("collapse", delta_p=6.0, n_samples=200,
                                      t_final=0.1))
    gap = next(v for v in res.verdicts if v.name == "silent-gap-maintained")
    assert not gap.passed


def test_free_particle_wrapper_runs():
    res = run_scenario(default_config("free-particle", n_samples=300, seed=1))
    assert res.passed
    assert res.config.grid_extent == 80.0


def test_superposition_a_zero_degenerate():
    res = run_scenario(default_config("superposition", a=0.0, n_samples=300, model="epstein"))
    assert res.passed


def test_harmonic_ground_state_verdicts():
    res = run_scenario(default_config("harmonic-coherent", displacement=0.0,
                                      n_samples=300))
    names = [v.name for v in res.verdicts]
    assert "ground-position-frozen" in names
    assert "ground-momentum-frozen" in names
    assert res.passed


def test_coverage_manifest_complete():
    cov = coverage_manifest()
    assert set(cov) == set(SCENARIOS)
    for name, entry in cov.items():
        assert entry["claims"], name
        assert entry["summary"], name


def test_stats_rows_carry_diagnostics():
    res = run_scenario(default_config("linear-drift", n_samples=300))
    row = res.stats_rows[0]
    for key in ("time", "boundary_mass_position", "boundary_mass_momentum",
                "frozen_count", "left_grid_count", "ks", "moments",
                "continuity_residual"):
        assert key in row, key


def test_measurement_reports_transitions():
    res = run_scenario(default_config("measurement", n_samples=500))
    assert "pointer_region_transitions" in res.diagnostics
    assert res.diagnostics["pointer_region_transitions"] == 0


def test_each_frame_derives_its_momentum_gradients_once(monkeypatch):
    # one gradient of psi~ shared by the readout, the moment identity and the
    # closed-form cross-check, plus one per Poisson current (the run's and the
    # continuity probe's)
    calls = []
    original = momtraj.grid.spectral_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (momtraj.grid, momtraj.currents, momtraj.potentials, momtraj.trajectories):
        monkeypatch.setattr(module, "spectral_gradient", counted)
    cfg = default_config("harmonic-coherent", n_samples=100, current="poisson",
                         t_final=float(np.pi / 160.0), steps_per_frame=2)
    res = run_scenario(cfg)
    assert res.passed
    assert len(res.frames) == 11
    assert len(calls) <= 3 * len(res.frames)


def test_collapse_builds_each_frames_currents_once(monkeypatch):
    # closed-form currents: the frame's, the continuity probe's and the
    # branch's; Poisson: the frame's, shared by the cross-method check and
    # the gap leakage
    calls = {"current_closed_form": 0, "current_poisson": 0}

    def counter(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        counted = counter(name, getattr(momtraj.currents, name))
        for module in (momtraj.currents, momtraj.scenarios, momtraj.trajectories):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    res = run_scenario(default_config("collapse", n_samples=100, t_final=0.1))
    assert res.passed
    assert len(res.frames) == 11
    assert calls["current_closed_form"] <= 3 * len(res.frames)
    assert calls["current_poisson"] <= len(res.frames)


@pytest.mark.parametrize("name", ["collapse", "superposition", "measurement"])
def test_every_stencil_is_built_by_a_counted_call(monkeypatch, name):
    # the benchmark counts interpolation stencils by wrapping interpolate_masked
    # where its callers import it; a stencil built anywhere else goes uncounted
    built, calls = [], []
    init = momtraj.trajectories.Stencil.__init__
    monkeypatch.setattr(momtraj.trajectories.Stencil, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    for module in (momtraj.trajectories, momtraj.scenarios):
        monkeypatch.setattr(module, "interpolate_masked",
                            lambda *args, fn=module.interpolate_masked: calls.append(1) or fn(*args))
    res = run_scenario(default_config(name, n_samples=200, seed=0))
    assert res.passed
    assert len(built) == len(calls) > 0


def test_suite_checks_each_block_of_frames_in_one_call(monkeypatch):
    # the equivariance and moment checks take a whole FrameBlock per call; the
    # names matter, since perfbench traces these two functions by name in the
    # scenarios namespace, and its call counts show the batching
    calls = {"equivariance_check": 0, "moment_checks": 0}

    def counter(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(momtraj.scenarios, name, counter(name, getattr(momtraj.scenarios, name)))
    res = run_scenario(default_config("harmonic-coherent", n_samples=200, seed=0))
    assert res.passed
    assert len(res.stats_rows) == 321  # in blocks of 64: 6 blocks
    assert calls == {"equivariance_check": 6, "moment_checks": 6}


def test_collapse_branch_blocks_cover_the_main_blocks_frames(monkeypatch):
    # 81 frames: blocks of 64 and 17, for the run and for the branch alike
    built = {"main": [], "branch": []}
    original = momtraj.trajectories.FrameBlock

    def recording(kind):
        class Recorded(original):
            def __init__(self, frames, *args):
                built[kind].append([fr.time for fr in frames])
                super().__init__(frames, *args)
        return Recorded

    monkeypatch.setattr(momtraj.trajectories, "FrameBlock", recording("main"))
    monkeypatch.setattr(momtraj.scenarios, "FrameBlock", recording("branch"))
    res = run_scenario(default_config("collapse", n_samples=100, steps_per_frame=5))
    assert res.passed
    times = [fr.time for fr in res.frames]
    assert len(times) == 81
    assert built["main"] == [times[:64], times[64:81]]
    assert built["branch"] == built["main"]


def test_force_checks_read_the_history_frame_by_frame():
    # a synthetic history whose row 2 leaves the grid at frame 4 of 7
    rng = np.random.default_rng(3)
    status = np.zeros((7, 5), dtype=np.int8)
    status[4:, 2] = momtraj.trajectories.TrajStatus.LEFT_GRID
    hist = momtraj.trajectories.EnsembleHistory(np.arange(7) * 0.1, rng.normal(size=(7, 5, 1)),
                                                status, rng.normal(size=(7, 5, 1)))
    always = hist.status[-1] == momtraj.trajectories.TrajStatus.ACTIVE
    assert always.sum() == len(always) - 1
    p, x = hist.p[:, always, 0], hist.x[:, always, 0]
    dpdt = ((p[:-4] - 8.0 * p[1:-3] + 8.0 * p[3:-1] - p[4:])
            / (12.0 * float(hist.times[1] - hist.times[0])))  # 5-point central differences
    cfg = default_config("harmonic-coherent", displacement=0.0, mass=1.5, omega=0.7)
    k = cfg.mass * cfg.omega**2
    measured = {v.name: v.measured for v in
                momtraj.scenarios._classical_force_verdicts(hist, cfg)}
    assert measured == {"classical-force-relation": float(np.abs(dpdt + k * x[2:-2]).max()),
                        "ground-position-frozen": float(np.abs(x).max()),
                        "ground-momentum-frozen": float(np.abs(p - p[0]).max())}
    linear = momtraj.scenarios._force_residual(hist, lambda x: 2.0)
    assert linear == float(np.abs(dpdt + 2.0).max())

    # the reduction's two masks: row 2 reads 10 + f at frames 0-3 and NaN once
    # retired, the other rows f / 10
    def residual(f):
        r = np.full((5, 1), f / 10.0)
        r[2] = 10.0 + f if f < 4 else np.nan
        return r

    worst = momtraj.scenarios._worst
    assert worst(hist, residual) == 13.0  # per frame: row 2 counts in frames 0-3 only
    assert worst(hist, residual, range(4, 7)) == 0.6
    assert worst(hist, residual, rows=always) == 0.6  # the last frame's mask: nowhere
    assert worst(hist, residual, range(2), always) == 0.1


def test_suite_verdicts_read_the_stats_rows():
    # each suite verdict is a reduction over the rows stats.json stores: a flag
    # flipped in one row fails the matching verdict and no other
    cfg = default_config("linear-drift", n_samples=200, seed=0, t_final=0.1)
    grid = _grid_for(cfg, 1)
    suite = momtraj.scenarios._simulate(cfg, gaussian_state(grid, sigma=cfg.sigma),
                                        SCENARIOS["linear-drift"].potential(cfg))

    assert all(v.passed for v in suite.verdicts())
    row = suite.rows[5]
    for record, flag, verdict in ((row["ks"]["p0"], "passed", "equivariance-all-frames"),
                                  (row["moments"], "identity_ok", "moment-checks-all-frames")):
        record[flag] = False
        assert [v.name for v in suite.verdicts() if not v.passed] == [verdict]
        record[flag] = True


def test_cross_method_verdict_only_where_the_rows_compare_the_currents():
    # in 2d only divergences compare, so no row holds the relative difference and
    # the suite reports no cross-method verdict, rather than a pass at 0.0
    cfg = ScenarioConfig(n_samples=50, seed=1, dt=1e-3, steps_per_frame=5, t_final=0.02)
    psi = gaussian_state(grid_2d(64, 20.0), sigma=1.0, center=(1.0, -0.5))
    suite = momtraj.scenarios._simulate(cfg, psi, Harmonic(1.0, (1.0, 0.5)))
    assert len(suite.rows) == 5
    assert not any("current_cross_method_rel" in row for row in suite.rows)
    names = [v.name for v in suite.verdicts()]
    assert names == ["equivariance-all-frames", "moment-checks-all-frames",
                     "continuity-residual"]


def test_step_phases_are_built_once_per_run(monkeypatch):
    # one set for the propagator's step and one for the continuity probe's
    # half step, however many frames the suite probes
    built = []
    original = momtraj.dynamics._step_phases

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(momtraj.dynamics, "_step_phases", counted)
    cfg = default_config("harmonic-coherent", n_samples=100,
                         t_final=float(np.pi / 160.0), steps_per_frame=2)
    res = run_scenario(cfg)
    assert res.passed
    assert len(res.frames) == 11
    assert len(built) == 2
    kin, kin_half, pot_phase = res.frames[0].psi_p.grid.derived(
        counted, SCENARIOS[cfg.name].potential(cfg), (cfg.mass,), cfg.dt)
    assert len(built) == 2
    assert not (kin.flags.writeable or kin_half.flags.writeable or pot_phase.flags.writeable)


def test_a_dropped_run_frees_its_grid_constants():
    # the transform plan, stencil geometry, step phases and 2d radial order live
    # on the run's grid, so nothing of the run outlives its result; a grid no
    # other test runs, so that no constant could come from an earlier run
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = run_scenario(default_config("measurement", n_samples=200, seed=0,
                                          grid_extent2=36.0))
        assert res.passed
        grid = weakref.ref(res.frames[0].psi_p.grid)
        del res
        gc.collect()
        held = (tracemalloc.get_traced_memory()[0] - start) / 2**20
    finally:
        tracemalloc.stop()
    assert grid() is None
    assert held <= 4, held


def test_equal_grids_build_their_own_derived_values():
    built = []

    def build(grid, rep):
        built.append(rep)
        return np.zeros(grid.shape)

    a, b = (_grid_for(default_config("measurement"), 2) for _ in range(2))
    assert a == b and a is not b
    position, momentum = momtraj.grid.Representation
    first = a.derived(build, momentum)
    assert a.derived(build, momentum) is first
    assert len(built) == 1
    assert b.derived(build, momentum) is not first
    a.derived(build, position)
    assert len(built) == 3


def test_each_frame_computes_its_boundary_mass_once(monkeypatch):
    # the propagator's boundary check and the suite's stats row share one
    # value per representation, from one call per emission block
    calls = []
    original = momtraj.dynamics.boundary_mass_fraction

    def counted(fld):
        calls.append(fld.rep)
        return original(fld)

    for module in (momtraj.grid, momtraj.dynamics, momtraj.scenarios):
        if hasattr(module, "boundary_mass_fraction"):
            monkeypatch.setattr(module, "boundary_mass_fraction", counted)
    cfg = default_config("harmonic-coherent", n_samples=100,
                         t_final=float(np.pi / 160.0), steps_per_frame=2)
    res = run_scenario(cfg)
    assert res.passed
    assert len(res.frames) == 11  # one emission block
    assert calls == [momtraj.grid.Representation.POSITION, momtraj.grid.Representation.MOMENTUM]
    assert [(row["boundary_mass_position"], row["boundary_mass_momentum"])
            for row in res.stats_rows] == [fr.boundary_mass for fr in res.frames]


_CROSS_METHOD = {"collapse", "harmonic-coherent", "linear-drift"}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_scenario_runs_under_its_declared_potential(monkeypatch, name):
    # every propagation of a run, collapse's branch and macroscopic's
    # reference included, uses the registry's potential
    seen = []
    original = momtraj.scenarios.collect_frames

    def recording(psi, potential, *args, **kwargs):
        seen.append(potential)
        return original(psi, potential, *args, **kwargs)

    monkeypatch.setattr(momtraj.scenarios, "collect_frames", recording)
    cfg = default_config(name, n_samples=100)
    res = run_scenario(cfg)
    assert res.passed
    declared = SCENARIOS[name].potential(cfg)
    assert len(seen) == (2 if name in ("collapse", "macroscopic") else 1)
    assert all(pot == declared for pot in seen), (seen, declared)
    cross = any("current_cross_method_rel" in row for row in res.stats_rows)
    assert cross == (name in _CROSS_METHOD)
    assert ("current-cross-method" in [v.name for v in res.verdicts]) == (name in _CROSS_METHOD)


# -- metamorphic relations ------------------------------------------------------------------


def test_coherent_state_momenta_shift_rigidly_with_the_classical_orbit():
    # in a coherent state every momentum trajectory moves with the classical
    # orbit, p_i(t) - p_i(0) = -m w x0 sin(w t); the error peaks at t = pi/2
    # and cancels at t = pi, so every frame is checked
    cfg = default_config("harmonic-coherent", n_samples=2000, seed=42)
    hist = run_scenario(cfg).ensembles["epstein"].history
    assert (hist.status == TrajStatus.ACTIVE).all()
    shift = -cfg.mass * cfg.omega * cfg.displacement * np.sin(cfg.omega * hist.times)
    err = np.abs(hist.p[..., 0] - hist.p[0, :, 0] - shift[:, None]).max()
    assert err <= 1e-6, err


def _bools(obj) -> list[bool]:
    """Every pass flag in a nest of dicts and lists, in key order."""
    if isinstance(obj, dict):
        return [b for key in sorted(obj) for b in _bools(obj[key])]
    if isinstance(obj, list):
        return [b for item in obj for b in _bools(item)]
    return [obj] if isinstance(obj, bool) else []


# (scenario, tolerance on p, tolerance on x); measured at N = 2 000, seed 42:
# 3.7e-10 and 1.5e-9 on harmonic-coherent, 2.6e-11 and 3.0e-10 on collapse
_MIRROR_CASES = [("harmonic-coherent", 1e-9, 5e-9), ("collapse", 1e-10, 1e-9)]


@pytest.mark.parametrize("name,p_tol,x_tol", _MIRROR_CASES)
def test_mirrored_state_gives_mirrored_trajectories_and_the_same_verdicts(name, p_tol, x_tol):
    # mirror relation under the even harmonic potential: psi(-x) started at
    # -p0 gives -p(t) and -x(t), the same statuses and pass flags, and KS
    # statistics equal to rounding, since mirroring swaps D+ and D-. On the
    # even grid k -> -k permutes the nodes except k = -N/2, where the tails
    # vanish. Harmonic-coherent's mirror is the coherent state at
    # -displacement; collapse's two-packet state is its own mirror, so the
    # same frames serve both runs.
    cfg = default_config(name, n_samples=2000, seed=42)
    grid, pot = _grid_for(cfg, 1), SCENARIOS[name].potential(cfg)

    def frames_of(psi):
        return collect_frames(psi, pot, PropagatorConfig(cfg.dt, cfg.steps_per_frame),
                              cfg.n_steps(), cfg.mass)

    if name == "harmonic-coherent":
        frames, mirror = (frames_of(coherent_state(grid, c * cfg.displacement, cfg.mass,
                                                   cfg.omega))
                          for c in (1, -1))
    else:
        frames = mirror = frames_of(two_packet_momentum_state(grid, cfg.delta_p, cfg.sigma).field)
    p0 = sample_momenta(frames[0].psi_p, cfg.n_samples, cfg.seed)
    runs = []
    for fr, start in ((frames, p0), (mirror, -p0)):
        suite = FrameSuite(pot, cfg)
        runs.append((integrate_epstein(fr, pot, start, CurrentMethod(cfg.current),
                                       on_block=suite.add), suite))
    (hist, suite), (hist_m, suite_m) = runs
    assert np.array_equal(hist.status, hist_m.status)
    active = hist.status == TrajStatus.ACTIVE
    assert active.all()
    assert np.abs(hist.p + hist_m.p)[active].max() <= p_tol
    assert np.abs(hist.x + hist_m.x)[active].max() <= x_tol
    flags = _bools(suite.rows)
    assert len(flags) == 4 * len(suite.rows)  # the KS flag and three moment flags per frame
    assert flags == _bools(suite_m.rows)
    verdicts, verdicts_m = suite.verdicts(), suite_m.verdicts()
    assert [(v.name, v.passed) for v in verdicts] == [(v.name, v.passed) for v in verdicts_m]
    # KS: measured 5.0e-12 (harmonic-coherent) and 8.8e-12 (collapse) on the margin
    assert verdicts[0].name == "equivariance-all-frames"
    assert abs(verdicts[0].measured - verdicts_m[0].measured) <= 1e-10
    for row, row_m in zip(suite.rows, suite_m.rows):
        assert abs(row["ks"]["p0"]["statistic"] - row_m["ks"]["p0"]["statistic"]) <= 1e-10


@pytest.mark.parametrize("name", ["collapse", "harmonic-coherent", "linear-drift", "superposition"])
def test_one_dof_trajectories_never_change_order(name):
    # in one dof no trajectory of a velocity field overtakes another: at every
    # frame the active rows keep their t = 0 order (superposition's
    # momentum-flow field is zero, so its guidance ensemble is the one checked)
    res = run_scenario(default_config(name, n_samples=SMALL_N, seed=3))
    for model, ens in res.ensembles.items():
        if model == "epstein" and name == "superposition":
            continue
        hist = ens.history
        q = hist.p if model == "epstein" else hist.x
        order = np.argsort(q[0, :, 0])
        for f in range(len(hist.times)):
            active = hist.status[f][order] == TrajStatus.ACTIVE
            assert np.all(np.diff(q[f, order[active], 0]) >= 0.0), (model, f)
    assert res.diagnostics["out_of_order_pairs"] == 0
    assert all(row["out_of_order_pairs"] == 0 for row in res.stats_rows)


def test_out_of_order_pairs_count_the_overtakes_of_a_two_packet_state():
    # a generic two-packet state under the oscillator: its trajectories
    # overtake each other near a near-node, with no row retired, and the suite
    # counts the adjacent out-of-order pairs of each frame
    grid = _grid_for(ScenarioConfig(), 1)
    vals = ((0.16 - 0.59j) * gaussian_state(grid, 0.81, 3.66, 1.89).values
            + (0.99 - 0.16j) * gaussian_state(grid, 0.93, -0.16, 1.21).values)
    psi = ComplexField(grid, Representation.POSITION, vals).normalized()
    config = ScenarioConfig(n_samples=300, seed=1)
    suite = momtraj.scenarios._simulate(config, psi, Harmonic(1.0, 1.04))
    hist = suite.ensemble.history
    assert (hist.status == TrajStatus.ACTIVE).all()
    order = np.argsort(hist.p[0, :, 0])
    counts = [int(np.sum(np.diff(p[order, 0]) < 0.0)) for p in hist.p]
    assert [row["out_of_order_pairs"] for row in suite.rows] == counts
    assert sum(counts) == 66


def test_superposition_contrast_verdicts():
    # the guidance positions are |psi(x,t)|^2-distributed, the momentum-flow
    # readout is not, at every frame
    res = run_scenario(default_config("superposition", n_samples=2000, seed=42))
    verdicts = {v.name: v for v in res.verdicts}
    assert verdicts["guidance-equivariance"].passed
    assert verdicts["readout-contrast"].passed
    assert verdicts["readout-contrast"].measured >= 0.4
    assert SCENARIOS["superposition"].claims[3:5] == ("guidance-equivariance",
                                                      "readout-contrast")
