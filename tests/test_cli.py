import gc
import json
import re
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momtraj import cli
from momtraj.cli import main
from momtraj.ensemble import Ensemble
from momtraj.output import (
    fmt,
    read_config_ini,
    to_json,
    write_config_ini,
    write_trajectories_csv,
)
from momtraj.scenarios import SCENARIOS, default_config
from momtraj.trajectories import EnsembleHistory, TrajStatus


def run_cli(*argv):
    return main(list(argv))


def test_run_free_particle_exits_zero(tmp_path):
    code = run_cli("run", "free-particle", "--n", "400", "--seed", "42",
                   "--out", str(tmp_path / "out"))
    assert code == 0
    out = tmp_path / "out"
    for name in ("manifest.json", "config.ini", "stats.json",
                 "field_final_position.csv", "field_final_momentum.csv",
                 "current_final.csv", "trajectories_epstein.csv",
                 "histogram_epstein.csv"):
        assert (out / name).exists(), name


def test_same_seed_runs_are_digest_identical(tmp_path):
    for d in ("a", "b"):
        code = run_cli("run", "superposition", "--a", "5", "--n", "400",
                       "--seed", "7", "--t-final", "0.1",
                       "--out", str(tmp_path / d))
        assert code == 0
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert ma["outputs"] == mb["outputs"]
    for name in ma["outputs"]:
        if name != "manifest.json":
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_error_estimate_is_in_stats_and_repeats(tmp_path):
    estimates = []
    for d in ("a", "b"):
        code = run_cli("run", "superposition", "--model", "both", "--n", "300",
                       "--seed", "7", "--t-final", "0.1", "--out", str(tmp_path / d))
        assert code == 0
        stats = json.loads((tmp_path / d / "stats.json").read_text())
        estimates.append(stats["diagnostics"]["trajectory_error_estimate"])
    assert set(estimates[0]) == {"epstein", "dbb"}
    assert all(np.isfinite(v) and v >= 0.0 for v in estimates[0].values())
    assert estimates[0]["dbb"] > 0.0
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize("name", ["superposition", "collapse"])
def test_runs_of_fewer_than_four_frames_have_no_error_estimate(tmp_path, name):
    # two frame intervals are three frames, too few for the cubic: the stepper
    # lerps, which has no second interpolant, so a non-zero field's estimate
    # is null; superposition's momentum flow runs in a zero field, exactly
    code = run_cli("run", name, "--frames", "2", "--n", "200", "--seed", "42",
                   "--out", str(tmp_path / name))
    assert code == 0
    stats = json.loads((tmp_path / name / "stats.json").read_text())
    expected = {"dbb": None, "epstein": 0.0} if name == "superposition" else {"epstein": None}
    assert stats["diagnostics"]["trajectory_error_estimate"] == expected


def test_measurement_zero_dpe_exits_two(tmp_path, capsys):
    code = run_cli("run", "measurement", "--dpe", "0", "--n", "200",
                   "--out", str(tmp_path / "m"))
    assert code == 2
    assert "overlap" in capsys.readouterr().err


def test_unknown_scenario_exits_two(capsys):
    assert run_cli("run", "does-not-exist") == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_stdout_carries_report_stderr_clean(tmp_path, capsys):
    code = run_cli("run", "linear-drift", "--n", "300", "--out", str(tmp_path / "r"))
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    assert captured.err == ""


def test_config_file_round_trip(tmp_path):
    cfg = default_config("collapse", n_samples=222, seed=5, delta_p=17.5)
    path = write_config_ini(cfg, tmp_path / "c.ini")
    back = read_config_ini(path)
    assert back == cfg


def test_run_from_config_file(tmp_path):
    cfg = default_config("linear-drift", n_samples=250, seed=3, t_final=0.2)
    path = write_config_ini(cfg, tmp_path / "run.ini")
    code = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert code == 0
    eff = read_config_ini(tmp_path / "out" / "config.ini")
    assert eff.n_samples == 250 and eff.seed == 3


def test_flag_overrides_config_file(tmp_path):
    cfg = default_config("linear-drift", n_samples=250, t_final=0.2)
    path = write_config_ini(cfg, tmp_path / "run.ini")
    code = run_cli("run", str(path), "--n", "123", "--out", str(tmp_path / "out"))
    assert code == 0
    eff = read_config_ini(tmp_path / "out" / "config.ini")
    assert eff.n_samples == 123


def test_frames_flag_sets_cadence(tmp_path):
    code = run_cli("run", "linear-drift", "--n", "200", "--t-final", "0.2",
                   "--frames", "4", "--out", str(tmp_path / "f"))
    assert code == 0
    stats = json.loads((tmp_path / "f" / "stats.json").read_text())
    assert len(stats["frames"]) == 5  # initial frame plus four intervals


@pytest.mark.parametrize("frames", ["160", "80"])
def test_harmonic_coherent_passes_at_coarser_frames(tmp_path, frames):
    # the classical-force relation's 5-point dp/dt stays within 1e-4 with
    # frames 2x and 4x farther apart than the default 320
    code = run_cli("run", "harmonic-coherent", "--n", "300", "--seed", "42",
                   "--frames", frames, "--out", str(tmp_path / "h"))
    assert code == 0


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == 0
    out = capsys.readouterr().out
    for name in ("free-particle", "superposition", "macroscopic", "measurement",
                 "collapse", "harmonic-coherent", "linear-drift"):
        assert name in out
    assert "claims:" in out


def test_validate_reduced(capsys):
    code = run_cli("validate", "--n", "300", "--threads", "2")
    out = capsys.readouterr().out
    assert code == 0, out
    assert "result: PASS" in out


def test_validate_frees_each_run_and_prints_one_report_at_any_thread_count(
        capsys, monkeypatch):
    """A job keeps its scenario's verdicts only: no earlier run is alive when a job starts."""
    real, runs, alive = cli.run_scenario, [], []

    def spy(cfg):
        gc.collect()
        alive.append([r().config.name for r in runs if r() is not None])
        result = real(cfg)
        runs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "run_scenario", spy)
    assert run_cli("validate", "--n", "300", "--threads", "1") == 0
    serial = capsys.readouterr().out
    assert alive == [[]] * len(SCENARIOS)
    monkeypatch.undo()
    assert run_cli("validate", "--n", "300", "--threads", "2") == 0
    assert capsys.readouterr().out == serial


def test_stats_json_sorted_keys(tmp_path):
    run_cli("run", "linear-drift", "--n", "200", "--t-final", "0.1",
            "--out", str(tmp_path / "s"))
    raw = (tmp_path / "s" / "stats.json").read_text()
    payload = json.loads(raw)
    assert raw == json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_trajectory_csv_format(tmp_path):
    run_cli("run", "linear-drift", "--n", "50", "--t-final", "0.1",
            "--out", str(tmp_path / "t"))
    lines = (tmp_path / "t" / "trajectories_epstein.csv").read_text().splitlines()
    assert lines[0] == "traj_id,t,p0,x0,status"
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] == "active"
    assert float(first[1]) == 0.0


def test_histogram_csv_format(tmp_path):
    run_cli("run", "linear-drift", "--n", "50", "--t-final", "0.1",
            "--out", str(tmp_path / "h"))
    lines = (tmp_path / "h" / "histogram_epstein.csv").read_text().splitlines()
    assert lines[0] == "bin_center,density"


def test_float_formatting_round_trips():
    for v in (0.1, 1 / 3, 1e-17, -2.5e300, 0.0):
        assert float(fmt(v)) == v


def test_json_artifacts_write_numpy_leaves_as_python_values():
    payload = {"f": np.float64(0.1), "b": np.bool_(True), "i": np.int64(7),
               "a": np.array([1.5, -2.0]), "t": (np.float64(3.0), 4)}
    plain = {"f": 0.1, "b": True, "i": 7, "a": [1.5, -2.0], "t": [3.0, 4]}
    expected = json.dumps(plain, indent=1, sort_keys=True) + "\n"
    assert to_json(payload).encode() == to_json(plain).encode() == expected.encode()
    with pytest.raises(TypeError, match="not JSON serializable"):
        to_json({"x": object()})


@pytest.mark.parametrize("with_p", [True, False])
def test_trajectories_csv_rows(tmp_path, with_p):
    rng = np.random.default_rng(5)
    times = np.array([0.0, 0.1, 0.2])
    x = rng.normal(size=(3, 4, 1))
    p = rng.normal(size=(3, 4, 1)) if with_p else None
    status = np.zeros((3, 4), dtype=np.int8)
    status[1:, 1] = TrajStatus.FROZEN_AT_NODE
    status[2, 2] = TrajStatus.LEFT_GRID
    ens = Ensemble(EnsembleHistory(times, x, status, p))
    names = {0: "active", 1: "frozen_at_node", 2: "left_grid"}
    expected = ["traj_id,t," + ("p0," if with_p else "") + "x0,status"]
    for i in range(3):  # limit 3 leaves trajectory 3 out
        for f, t in enumerate(times):
            row = [str(i), fmt(t)] + ([fmt(p[f, i, 0])] if with_p else [])
            expected.append(",".join(row + [fmt(x[f, i, 0]), names[status[f, i]]]))
    path = write_trajectories_csv(ens, tmp_path / "t.csv", limit=3)
    assert path.read_text() == "\n".join(expected) + "\n"
    assert "left_grid" in path.read_text()


def test_current_csv_format(tmp_path):
    run_cli("run", "linear-drift", "--n", "50", "--t-final", "0.1",
            "--out", str(tmp_path / "c"))
    lines = (tmp_path / "c" / "current_final.csv").read_text().splitlines()
    assert lines[0] == "p0,j0"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape[0] == 512


def test_run_threads_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "linear-drift", "--threads", "2")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (("measurement", "--c1sq", "1.5"), "c1_sq"),
    (("free-particle", "--sigma", "0"), "sigma"),
    (("linear-drift", "--t-final", "0.01"), "frames"),
    (("harmonic-coherent", "--frames", "1"), "frames"),
    (("free-particle", "--model", "dbb"), "model"),
    (("linear-drift", "--frames", "3"), "frames"),
    (("linear-drift", "--frames", "600"), "frames"),
    (("superposition", "--model", "dbb"), "model"),
    (("linear-drift", "--dt", "nan"), "dt must be finite"),
    (("linear-drift", "--t-final", "nan"), "t_final must be finite"),
    (("superposition", "--a", "nan"), "a must be finite"),
    (("linear-drift", "--linear-c", "nan"), "linear_coeff must be finite"),
    (("harmonic-coherent", "--displacement", "nan"), "displacement must be finite"),
    (("measurement", "--dpe", "nan"), "dpe must be finite"),
    (("collapse", "--delta-p", "nan"), "delta_p must be finite"),
    (("linear-drift", "--seed", "-1"), "seed"),
    (("harmonic-coherent", "--sigma", "5"), "does not read sigma"),
    (("free-particle", "--model", "both"), "does not read model"),
    (("free-particle", "--delta-p", "1"), "does not read delta_p"),
    (("superposition", "--c1sq", "0.8"), "does not read c1_sq"),
    (("macroscopic", "--c1sq", "0.8"), "does not read c1_sq"),
])
def test_bad_scenario_input_exits_two_before_running(tmp_path, capsys, argv, message):
    code = run_cli("run", *argv, "--n", "50", "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value, message", [
    ("n_samples", "abc", "n_samples must be a number"),
    ("seed", "1.5", "seed must be a whole number"),
    ("dt", "fast", "dt must be a number"),
    ("traj_csv_limit", "-3", "traj_csv_limit"),
    ("histogram_bins", "0", "histogram_bins"),
])
def test_bad_config_file_value_exits_two(tmp_path, capsys, key, value, message):
    cfg = default_config("linear-drift", n_samples=50)
    text = write_config_ini(cfg, tmp_path / "run.ini").read_text()
    bad, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    (tmp_path / "run.ini").write_text(bad)
    code = run_cli("run", str(tmp_path / "run.ini"), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", [
    b"model = free\n",
    b"[run]\nmodel = free\n[run]\n",
    b"[run]\nn_samples = 50\nn_samples = 60\n",
    b"[run]\nmodel\n",
    b"[run]\nmodel = %(x)s\n",
    b"[run]\nmodel = \xff\n",
], ids=["no-section-header", "repeated-section", "repeated-key", "no-equals-sign",
        "missing-interpolation-key", "not-utf-8"])
def test_malformed_config_file_exits_two(tmp_path, capsys, text):
    (tmp_path / "bad.ini").write_bytes(text)
    code = run_cli("run", str(tmp_path / "bad.ini"), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_config_file_key_the_scenario_ignores_exits_two(tmp_path, capsys):
    # the measurement histogram artifact has fixed 2d bins, so histogram_bins
    # would be recorded in config.ini and change nothing
    cfg = default_config("measurement", n_samples=50, histogram_bins=100)
    path = write_config_ini(cfg, tmp_path / "run.ini")
    code = run_cli("run", str(path), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert "does not read histogram_bins" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (("--seed", "-1"), "seed"),
    (("--threads", "0"), "threads"),
])
def test_bad_validate_input_exits_two(capsys, argv, message):
    code = run_cli("validate", "--n", "50", *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


def test_reused_out_dir_keeps_no_stale_artifacts(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "notes.txt").write_text("not an artifact\n")
    for model in ("both", "epstein"):
        code = run_cli("run", "superposition", "--model", model, "--a", "5", "--n", "400",
                       "--seed", "7", "--t-final", "0.1", "--out", str(out))
        assert code == 0
    assert not (out / "histogram_dbb.csv").exists()
    assert not (out / "trajectories_dbb.csv").exists()
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert {p.name for p in out.iterdir()} == set(listed) | {"manifest.json", "notes.txt"}
    assert (out / "notes.txt").read_text() == "not an artifact\n"


def test_superposition_both_without_shift_keeps_the_guidance_ensemble(tmp_path):
    code = run_cli("run", "superposition", "--a", "0", "--n", "200", "--t-final", "0.1",
                   "--out", str(tmp_path / "o"))
    assert code == 0
    listed = json.loads((tmp_path / "o" / "manifest.json").read_text())["outputs"]
    assert "trajectories_dbb.csv" in listed and "histogram_dbb.csv" in listed


# Flag values for the fuzz test: small, zero, negative, NaN and inf. Each
# example starts from a tiny valid run and overrides up to three flags.
_FUZZ_FLOATS = ("0.5", "2", "0", "-1", "nan", "inf", "-inf")
_FUZZ_VALUES = {
    "--n": ("50", "1", "0", "-1"),
    "--t-final": ("0.05", "0.01", "0", "-0.05", "nan", "inf"),
    "--seed": ("3", "-1"),
    "--dt": ("0.005", "0.01", "0", "-0.001", "nan", "inf"),
    "--frames": ("1", "5", "0", "-1"),
    "--grid-extent": ("40", "10", "0", "-5", "nan", "inf"),
    "--current": ("closed", "poisson"),
    "--model": ("epstein", "both", "dbb"),
    **{flag: _FUZZ_FLOATS for flag in ("--a", "--sigma", "--dpe", "--c1sq", "--delta-p",
                                       "--displacement", "--linear-c")},
}
_FUZZ_PAIRS = [(flag, value) for flag, values in _FUZZ_VALUES.items() for value in values]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    grid_points=st.sampled_from(["64", "100", "128"]),
    overrides=st.lists(st.sampled_from(_FUZZ_PAIRS), max_size=3),
)
def test_run_flags_fuzz_end_in_an_exit_code(scenario, grid_points, overrides):
    base = {"--n": "50", "--t-final": "0.02", "--dt": "0.001", "--frames": "2",
            "--grid-points": grid_points}
    with tempfile.TemporaryDirectory() as tmp:
        # --flag=value, so that argparse reads values such as -inf as values;
        # a repeated flag takes its last value
        argv = [f"{flag}={value}" for flag, value in [*base.items(), *overrides]]
        code = run_cli("run", scenario, *argv, "--out", str(Path(tmp) / "o"))
    assert code in (0, 1, 2)
