"""Command-line entry point.

Subcommands:
  run <scenario|config.ini> [flags]   execute one scenario, write artifacts
  validate [--n N] [--threads K]      reduced-size invariant suite
  list-scenarios                      catalog with parameters and claims

Exit codes: 0 all assertions passed, 1 assertion failure, 2 configuration
error. Diagnostics go to stderr; the human-readable report goes to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .currents import CurrentMethod
from .errors import ConfigurationError, SimulationError
from .output import read_config_ini, utc_now, write_run_outputs
from .scenarios import (
    COMMON_FIELDS,
    SCENARIOS,
    RunResult,
    ScenarioConfig,
    _grid_for,
    coverage_manifest,
    default_config,
    run_scenario,
)

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="momtraj",
                                 description="momentum-space quantum trajectory engine")
    ap.add_argument("--version", action="version", version=f"momtraj {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a built-in scenario or a config file")
    runp.add_argument("target", help="scenario name or path to a config .ini")
    # each scenario flag's dest is the ScenarioConfig field it sets
    runp.add_argument("--n", type=int, dest="n_samples", help="ensemble size")
    runp.add_argument("--seed", type=int, help="sampling seed (default 0)")
    runp.add_argument("--dt", type=float, help="propagator step")
    runp.add_argument("--frames", type=int,
                      help="frame intervals over the run; must divide the step count")
    runp.add_argument("--grid-points", type=int, dest="grid_points")
    runp.add_argument("--grid-extent", type=float, dest="grid_extent")
    runp.add_argument("--current", choices=[m.value for m in CurrentMethod])
    runp.add_argument("--model", help="epstein, or both to add the guidance-law ensemble")
    runp.add_argument("--out", type=str, help="output directory (default run_<scenario>)")
    runp.add_argument("--a", type=float, help="packet shift")
    runp.add_argument("--sigma", type=float, help="packet width")
    runp.add_argument("--dpe", type=float, help="environment momentum separation")
    runp.add_argument("--c1sq", type=float, dest="c1_sq", help="first outcome weight |c1|^2")
    runp.add_argument("--delta-p", type=float, dest="delta_p", help="packet momentum separation")
    runp.add_argument("--displacement", type=float, help="coherent-state displacement")
    runp.add_argument("--linear-c", type=float, dest="linear_coeff",
                      help="linear potential slope")
    runp.add_argument("--t-final", type=float, dest="t_final", help="run end time")

    valp = sub.add_parser("validate", help="run the invariant suite at reduced size")
    valp.add_argument("--n", type=int, default=2000, help="ensemble size (default 2000)")
    valp.add_argument("--threads", type=int, default=1, help="parallel scenario jobs")
    valp.add_argument("--seed", type=int, default=0)

    sub.add_parser("list-scenarios", help="list scenarios, parameters, and claims")
    return ap


def _config_from_args(args) -> ScenarioConfig:
    target = args.target
    if Path(target).suffix == ".ini" or Path(target).is_file():
        config = read_config_ini(target)
    else:
        config = default_config(target)
    for f in dataclasses.fields(ScenarioConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(config, f.name, val)
    if args.frames is not None:
        steps = config.n_steps()
        if args.frames < 1 or steps % args.frames:
            raise ConfigurationError(
                f"--frames {args.frames} does not split the run's {steps} steps into "
                "equal frame intervals"
            )
        config.steps_per_frame = steps // args.frames
    return config


def _print_verdicts(result: RunResult) -> None:
    width = max(len(v.name) for v in result.verdicts)
    print(f"scenario {result.config.name} (seed {result.config.seed}, "
          f"N {result.config.n_samples})")
    for v in result.verdicts:
        mark = "PASS" if v.passed else "FAIL"
        print(f"  [{mark}] {v.name:<{width}}  measured {v.measured:.3e}  "
              f"tolerance {v.tolerance:.3e}")
        if not v.passed:
            print(f"         {v.note}")
    print(f"result: {'PASS' if result.passed else 'FAIL'}")


def _cmd_run(args) -> int:
    started = utc_now()
    config = _config_from_args(args)
    out_dir = Path(args.out or f"run_{config.name}")
    # checked before the run, which would otherwise fail only in the write
    if any(path.exists() and not path.is_dir() for path in (out_dir, *out_dir.parents)):
        raise ConfigurationError(f"output path {out_dir} is a file or lies under one")
    result = run_scenario(config)
    finished = utc_now()
    manifest = write_run_outputs(result, out_dir, __version__, started, finished)
    _print_verdicts(result)
    print(f"artifacts: {out_dir.resolve()} (manifest {manifest.name})")
    return 0 if result.passed else 1


def _cmd_validate(args) -> int:
    """Run the catalog on lanes; each job keeps only its verdicts, so its run is freed on return.

    A lane is a list of jobs that one pool thread runs one after another. A job whose grid
    takes one frame a block (`GridSpec.block_frames`; measurement) gets a lane of its own:
    its numpy calls are large enough to overlap a 1d job. The 1d jobs share one lane, since
    two of them on two threads convoy on the GIL. It runs them smallest n_frames x grid size
    first, so the largest histories (free-particle's) come after measurement's peak, not
    beside it. `--threads` above the lane count adds nothing; `--threads 1` runs them in turn.
    """
    if args.threads < 1:
        raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
    jobs = [default_config(name, n_samples=args.n, seed=args.seed) for name in sorted(SCENARIOS)]
    grids = {cfg.name: _grid_for(cfg, SCENARIOS[cfg.name].dof) for cfg in jobs}
    shared = sorted((cfg for cfg in jobs if grids[cfg.name].block_frames > 1),
                    key=lambda cfg: cfg.n_frames() * grids[cfg.name].size)
    lanes = [[cfg] for cfg in jobs if grids[cfg.name].block_frames == 1] + [shared]

    def run_lane(lane):
        return {cfg.name: run_scenario(cfg).verdicts for cfg in lane}

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        verdicts = {name: vs for lane in pool.map(run_lane, lanes) for name, vs in lane.items()}

    all_ok = True
    print(f"validation suite (N={args.n}, seed={args.seed})")
    for cfg in jobs:
        for v in verdicts[cfg.name]:
            all_ok &= v.passed
            mark = "PASS" if v.passed else "FAIL"
            print(f"  [{mark}] {cfg.name}: {v.name}  measured {v.measured:.3e}  "
                  f"tol {v.tolerance:.3e}")
    print(f"result: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def _cmd_list(_args) -> int:
    manifest = coverage_manifest()
    print(f"every scenario reads: {', '.join(COMMON_FIELDS)}")
    for name in sorted(SCENARIOS):
        d = SCENARIOS[name]
        print(name)
        print(f"  {d.summary}")
        for pname, doc in d.params:
            print(f"    {pname}: {doc}")
        defaults = ", ".join(f"{k}={v}" for k, v in sorted(d.defaults.items()))
        print(f"  defaults: {defaults or '(none)'}")
        print(f"  claims: {', '.join(manifest[name]['claims'])}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_list(args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
