#!/usr/bin/env python3
"""Convergence ladders for the trajectory ensembles: frame spacing and RK4 substeps.

Frame-spacing ladder: each scenario runs at steps_per_frame, steps_per_frame/2
(when even) and 1 steps per frame, all at the same dt, so the shared frames
hold the same wavefunctions and only the frame spacing that the velocity
field is interpolated over changes. Every ensemble is compared with the
spf = 1 rung on the shared frames: max |dp| and max |dx| over those frames
and the rows active in both, and the number of trajectories whose status
differs at some shared frame. The default rung also prints the run's reported
`trajectory_error_estimate` and its ratio to the measured max |dp| (or |dx|
for the guidance law).

Substep ladder: each scenario runs once at its defaults, and every ensemble
is integrated again over the same frames at 1, 2, steps_per_frame and
4 x steps_per_frame RK4 substeps per frame interval, against the finest rung.
The rung each model runs at is marked: one step per frame interval for the
momentum-flow model, GUIDANCE_SUBSTEPS for the guidance law. A scenario's
second ensemble of one model (macroscopic's reference run) is labelled
model#2.

    PYTHONPATH=src python3 scripts/traj_convergence.py [--n N] [--seed S]
        [--scenarios NAME ...]

Measurement (2d) is left out of the frame ladder unless named: its
momentum-flow field is zero, and its spf = 1 rung holds 501 frames of
256 x 256 points (about 1 GiB).
"""

import argparse
import dataclasses

import numpy as np

import momtraj.scenarios as scenarios
from momtraj import SCENARIOS, default_config, run_scenario
from momtraj.scenarios import GUIDANCE_SUBSTEPS
from momtraj.trajectories import TrajStatus, integrate_dbb, integrate_epstein


def labelled(names):
    """model, model#2, ... for repeated names, in order."""
    seen = []
    for name in names:
        seen.append(name)
        yield name if seen.count(name) == 1 else f"{name}#{seen.count(name)}"


def max_diff(a, b, both):
    return float(np.abs(a[both] - b[both]).max()) if both.any() else 0.0


def compare(h, ref):
    """(max |dp| or None, max |dx|, rows whose status differs) of h against ref."""
    both = (h.status == TrajStatus.ACTIVE) & (ref.status == TrajStatus.ACTIVE)
    dp = max_diff(h.p, ref.p, both) if h.p is not None else None
    statuses = int(np.any(h.status != ref.status, axis=0).sum())
    return dp, max_diff(h.x, ref.x, both), statuses


def row(name, label, rung, dp, dx, statuses, tail=""):
    dp = f"{dp:10.2e}" if dp is not None else f"{'-':>10}"
    return f"{name:<18} {label:<10} {rung:8d} {dp} {dx:10.2e} {statuses:8d}{tail}"


def frame_ladder(config):
    spf = config.steps_per_frame
    rungs = [spf] + ([spf // 2] if spf % 2 == 0 and spf > 2 else []) + [1]
    runs = {r: run_scenario(dataclasses.replace(config, steps_per_frame=r)) for r in rungs}
    ref = runs[1]
    for r in rungs[:-1]:
        res = runs[r]
        for label, (model, ens) in zip(labelled(res.ensembles), res.ensembles.items()):
            h = ens.history
            full = ref.ensembles[model].history
            shared = type(h)(full.times[::r], full.x[::r], full.status[::r],
                             None if full.p is None else full.p[::r])
            dp, dx, statuses = compare(h, shared)
            tail = ""
            if r == spf:
                est = res.diagnostics["trajectory_error_estimate"][model]
                err = dx if dp is None else dp
                ratio = f"{est / err:8.1f}" if err > 0 else f"{'-':>8}"
                tail = f"  estimate {est:9.2e}  ratio {ratio}"
            print(row(config.name, label, r, dp, dx, statuses, tail))


def recorded_ensembles(config):
    """Run the scenario and return (model, rerun(substeps)) for each ensemble it integrated."""
    calls = []

    def epstein(frames, potential, p0, method, substeps_per_frame=1, on_block=None):
        calls.append(("epstein", lambda s: integrate_epstein(frames, potential, p0, method, s)))
        return integrate_epstein(frames, potential, p0, method, substeps_per_frame, on_block)

    def dbb(frames, x0, masses=1.0, substeps_per_frame=1):
        calls.append(("dbb", lambda s: integrate_dbb(frames, x0, masses, s)))
        return integrate_dbb(frames, x0, masses, substeps_per_frame)

    saved = scenarios.integrate_epstein, scenarios.integrate_dbb
    scenarios.integrate_epstein, scenarios.integrate_dbb = epstein, dbb
    try:
        run_scenario(config)
    finally:
        scenarios.integrate_epstein, scenarios.integrate_dbb = saved
    return calls


def substep_ladder(config):
    spf = config.steps_per_frame
    rungs = sorted({1, 2, spf, 4 * spf})
    calls = recorded_ensembles(config)
    for label, (model, rerun) in zip(labelled(m for m, _ in calls), calls):
        in_use = 1 if model == "epstein" else GUIDANCE_SUBSTEPS
        hists = {s: rerun(s) for s in rungs}
        for s in rungs[:-1]:
            mark = "  <- in use" if s == in_use else ""
            print(row(config.name, label, s, *compare(hists[s], hists[rungs[-1]]), mark))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--scenarios", nargs="+")
    args = ap.parse_args()
    header = (f"{'scenario':<18} {'model':<10} {{:>8}} {'max |dp|':>10} {'max |dx|':>10} "
              f"{'statuses':>8}")
    print("frame-spacing ladder, against steps_per_frame = 1 on the shared frames")
    print(header.format("spf"))
    for name in args.scenarios or sorted(set(SCENARIOS) - {"measurement"}):
        frame_ladder(default_config(name, n_samples=args.n, seed=args.seed))
    print("substep ladder, against 4 x steps_per_frame substeps")
    print(header.format("substeps"))
    for name in args.scenarios or sorted(SCENARIOS):
        substep_ladder(default_config(name, n_samples=args.n, seed=args.seed))


if __name__ == "__main__":
    main()
