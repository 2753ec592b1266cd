"""Deterministic run outputs: CSV exports, stats JSON, config INI, manifests.

All numeric output uses round-trip decimal formatting (shortest string that
parses back to the identical IEEE-754 double), so identical runs produce
byte-identical data files. Wall-clock timestamps appear only in the manifest,
never in data files.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

import numpy as np

from .currents import CurrentField
from .ensemble import rho_histogram
from .errors import ConfigurationError
from .grid import ComplexField, Representation
from .scenarios import RunResult, ScenarioConfig
from .trajectories import TrajStatus


def fmt(x: float) -> str:
    return repr(float(x))


# -- CSV writers ----------------------------------------------------------------------

# Rows formatted per write, so that the text in memory stays small
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: str | Path, header: list[str], blocks: Iterable[list[np.ndarray]]) -> Path:
    """`header`, then one row per entry of each block's equal-length columns.

    Float columns are written as `fmt` writes them, any other column with str.
    Each run of at most _CSV_BLOCK_ROWS rows is formatted column by column,
    then joined in one write.
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            formats = [repr if c.dtype.kind == "f" else str for c in columns]
            for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
                cells = [list(map(f, c[lo:lo + _CSV_BLOCK_ROWS].tolist()))
                         for f, c in zip(formats, columns)]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def _mesh_columns(*axes: np.ndarray) -> list[np.ndarray]:
    """Coordinate columns of every point of a product grid, row-major."""
    return [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]


def write_field_csv(field: ComplexField, path: str | Path) -> Path:
    """`axis0[,axis1],re,im` rows in row-major grid order."""
    grid = field.grid
    vals = field.values.ravel()
    return _write_csv(
        path, [f"axis{a}" for a in range(grid.dof)] + ["re", "im"],
        [_mesh_columns(*[grid.axis_points(field.rep, a) for a in range(grid.dof)])
         + [vals.real, vals.imag]],
    )


def read_field_csv(path: str | Path, grid, rep: Representation, time: float = 0.0) -> ComplexField:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape[0] != grid.size:
        raise ConfigurationError(f"field CSV has {data.shape[0]} rows, grid expects {grid.size}")
    vals = (data[:, -2] + 1j * data[:, -1]).reshape(grid.shape)
    return ComplexField(grid, rep, vals, time)


def write_current_csv(current: CurrentField, path: str | Path) -> Path:
    """`p0[,p1],j0[,j1]` rows in row-major grid order."""
    dof = current.grid.dof
    return _write_csv(
        path, [f"p{a}" for a in range(dof)] + [f"j{a}" for a in range(dof)],
        [_mesh_columns(*[current.grid.momenta(a) for a in range(dof)])
         + [current.components[a].ravel() for a in range(dof)]],
    )


# the CSV name of each TrajStatus, indexed by its value
_STATUS_NAMES = np.array([s.name.lower() for s in TrajStatus], dtype=object)


def write_trajectories_csv(ensemble, path: str | Path, limit: int = 200) -> Path:
    """`traj_id,t,p0[,p1],x0[,x1],status` at frame resolution.

    Writes the first `limit` trajectories (0 = all); full histories stay in
    memory for the statistics either way.
    """
    hist = ensemble.history
    n = hist.x.shape[1] if limit == 0 else min(limit, hist.x.shape[1])
    n_frames, dof = hist.x.shape[0], hist.x.shape[2]
    variables = {"x": hist.x} if hist.p is None else {"p": hist.p, "x": hist.x}
    times = np.array([fmt(t) for t in hist.times], dtype=object)  # formatted once per frame
    per = max(1, _CSV_BLOCK_ROWS // n_frames)  # trajectories per block of rows

    def blocks():  # one row per (trajectory, frame), trajectory-major
        for lo in range(0, n, per):
            hi = min(lo + per, n)
            yield ([np.repeat(np.arange(lo, hi), n_frames), np.tile(times, hi - lo)]
                   + [h[:, lo:hi, a].T.ravel() for h in variables.values() for a in range(dof)]
                   + [_STATUS_NAMES[hist.status[:, lo:hi].T.ravel()]])

    return _write_csv(
        path, ["traj_id", "t"] + [f"{v}{a}" for v in variables for a in range(dof)] + ["status"],
        blocks(),
    )


def write_histogram_csv(edges, density, path: str | Path) -> Path:
    """`bin_center[,bin_center1],density` rows in row-major bin order."""
    return _write_csv(
        path, ["bin_center"] + [f"bin_center{a}" for a in range(1, len(edges))] + ["density"],
        [_mesh_columns(*[0.5 * (e[:-1] + e[1:]) for e in edges]) + [np.ravel(density)]],
    )


# -- JSON / INI -----------------------------------------------------------------------


def _numpy_leaf(obj):
    """`json.dumps`'s `default`: numpy arrays become lists, numpy scalars Python scalars."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def to_json(payload) -> str:
    """The text of a JSON artifact: sorted keys, one-space indent, numpy leaves as Python."""
    return json.dumps(payload, indent=1, sort_keys=True, default=_numpy_leaf) + "\n"


def write_stats_json(result: RunResult, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(to_json({
        "scenario": result.config.name,
        "seed": result.config.seed,
        "n_samples": result.config.n_samples,
        "frames": result.stats_rows,
        "diagnostics": result.diagnostics,
        "verdicts": [dataclasses.asdict(v) for v in result.verdicts],
    }))
    return path


_INI_SECTIONS = {
    "scenario": ("name", "model", "current", "seed", "n_samples"),
    "grid": ("grid_points", "grid_extent", "grid_points2", "grid_extent2"),
    "time": ("dt", "steps_per_frame", "t_final"),
    "state": ("sigma", "sigma_env", "a", "dpe", "c1_sq", "delta_p",
              "displacement", "linear_coeff"),
    "units": ("mass", "omega", "hbar"),
    "output": ("histogram_bins", "traj_csv_limit"),
}


def write_config_ini(config: ScenarioConfig, path: str | Path) -> Path:
    path = Path(path)
    data = config.as_dict()
    cp = configparser.ConfigParser()
    for section, keys in _INI_SECTIONS.items():
        cp[section] = {}
        for k in keys:
            v = data[k]
            cp[section][k] = fmt(v) if isinstance(v, float) else str(v)
    with path.open("w") as fh:
        cp.write(fh)
    return path


def _ini_number(key: str, text: str, kind: type) -> int | float:
    """The value of a numeric config key; an int key takes whole numbers only."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"{key} must be a number, got {text!r}") from None
    if kind is float:
        return value
    if not value.is_integer():
        raise ConfigurationError(f"{key} must be a whole number, got {text!r}")
    return int(value)


def read_config_ini(path: str | Path) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path, encoding="utf-8"):
            raise ConfigurationError(f"config file not found or unreadable: {path}")
        items = [(section, k, v) for section in cp.sections() for k, v in cp[section].items()]
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from None
    types = {f.name: type(f.default) for f in dataclasses.fields(ScenarioConfig)}
    flat: dict = {}
    for section, k, v in items:
        if k not in types:
            raise ConfigurationError(f"unknown config key {k!r} in [{section}]")
        flat[k] = v if types[k] is str else _ini_number(k, v, types[k])
    return ScenarioConfig.from_dict(flat)


# -- manifest and full run output --------------------------------------------------------


def sha256_of(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# Bins per axis of the 2-dof histogram artifact; `histogram_bins` sets the
# 1-dof binning only.
HISTOGRAM_BINS_2D = 50


def _remove_listed_outputs(out: Path) -> None:
    """Delete the outputs listed by a manifest.json already in `out`."""
    mpath = out / "manifest.json"
    if not mpath.is_file():
        return
    try:
        listed = json.loads(mpath.read_text())["outputs"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"unreadable manifest in output directory: {mpath}") from exc
    for name in listed:
        # a manifest names files inside its own directory; skip anything else
        if Path(name).name == name and (out / name).is_file():
            (out / name).unlink()


def write_run_outputs(result: RunResult, out_dir: str | Path, tool_version: str,
                      started: str, finished: str) -> Path:
    """Write the full artifact set for a run and its digest manifest.

    The files an earlier run's manifest lists in `out_dir` are deleted first,
    so that none of them outlives the run; other files there are left alone.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _remove_listed_outputs(out)
    files: list[Path] = []
    files.append(write_config_ini(result.config, out / "config.ini"))
    files.append(write_stats_json(result, out / "stats.json"))

    final = result.frames[-1]
    files.append(write_field_csv(final.psi_x, out / "field_final_position.csv"))
    files.append(write_field_csv(final.psi_p, out / "field_final_momentum.csv"))
    files.append(write_current_csv(result.current, out / "current_final.csv"))

    grid = final.psi_x.grid
    bins = result.config.histogram_bins if grid.dof == 1 else HISTOGRAM_BINS_2D
    bounds = [(grid.positions(a)[0], grid.positions(a)[-1]) for a in range(grid.dof)]
    for model, ens in result.ensembles.items():
        files.append(
            write_trajectories_csv(ens, out / f"trajectories_{model}.csv",
                                   result.config.traj_csv_limit)
        )
        act = ens.history.status[-1] == TrajStatus.ACTIVE
        edges, dens = rho_histogram(ens.history.x[-1], bins, bounds, act)
        files.append(write_histogram_csv(edges, dens, out / f"histogram_{model}.csv"))

    manifest = {
        "tool": f"momtraj {tool_version}",
        "config": result.config.as_dict(),
        "seed": result.config.seed,
        "started_utc": started,
        "finished_utc": finished,
        "verdicts": [dataclasses.asdict(v) for v in result.verdicts],
        "passed": result.passed,
        "outputs": {f.name: f"sha256:{sha256_of(f)}" for f in sorted(files)},
    }
    mpath = out / "manifest.json"
    mpath.write_text(to_json(manifest))
    return mpath


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()
