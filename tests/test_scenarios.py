import numpy as np
import pytest

import momtraj.currents
import momtraj.dynamics
import momtraj.ensemble
import momtraj.grid
import momtraj.potentials
import momtraj.scenarios
import momtraj.trajectories
from momtraj import (
    SCENARIOS,
    ConfigurationError,
    coverage_manifest,
    default_config,
    run_scenario,
)
from momtraj.scenarios import ScenarioConfig

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

    for module in (momtraj.grid, momtraj.currents, momtraj.ensemble, momtraj.potentials,
                   momtraj.trajectories):
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


def test_step_phases_are_built_once_per_run(monkeypatch):
    # one set for the propagator's step and one for the continuity probe's
    # half step, however many frames the suite probes
    calls = []
    original = momtraj.dynamics._step_phases

    def counted(grid, potential, masses, dt):
        calls.append(dt)
        return original(grid, potential, masses, dt)

    for module in (momtraj.dynamics, momtraj.scenarios):
        monkeypatch.setattr(module, "_step_phases", counted)
    cfg = default_config("harmonic-coherent", n_samples=100,
                         t_final=float(np.pi / 160.0), steps_per_frame=2)
    res = run_scenario(cfg)
    assert res.passed
    assert len(res.frames) == 11
    assert sorted(calls) == [5e-4, cfg.dt]
