#!/usr/bin/env python3
"""RK4 substep convergence ladder for the trajectory ensembles.

Runs each catalog scenario once, records the inputs of every ensemble it
integrates (frames, initial points, potential and current), and integrates
each ensemble again at 1, 2, steps_per_frame and 4 x steps_per_frame RK4
substeps per frame interval. For every rung it prints max |dp| and max |dx|
against the finest rung, over all frames and the rows active in both, and the
number of trajectories whose status differs at some frame. The rung each
model runs at is marked: one step per frame interval for the momentum-flow
model, steps_per_frame steps for the guidance law. A scenario's second
ensemble of one model (macroscopic's reference run) is labelled model#2.
"""

import argparse

import numpy as np

import momtraj.scenarios as scenarios
from momtraj import SCENARIOS, default_config, run_scenario
from momtraj.trajectories import TrajStatus, integrate_dbb, integrate_epstein


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


def max_diff(a, b, both):
    return float(np.abs(a[both] - b[both]).max()) if both.any() else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--scenarios", nargs="+", default=sorted(SCENARIOS))
    args = ap.parse_args()

    print(f"{'scenario':<18} {'model':<10} {'substeps':>8} {'max |dp|':>10} "
          f"{'max |dx|':>10} {'statuses':>8}")
    for name in args.scenarios:
        config = default_config(name, n_samples=args.n, seed=args.seed)
        spf = config.steps_per_frame
        rungs = sorted({1, 2, spf, 4 * spf})
        seen = []
        for model, rerun in recorded_ensembles(config):
            seen.append(model)
            label = model if seen.count(model) == 1 else f"{model}#{seen.count(model)}"
            in_use = 1 if model == "epstein" else spf
            hists = {s: rerun(s) for s in rungs}
            ref = hists[rungs[-1]]
            for s in rungs[:-1]:
                h = hists[s]
                both = (h.status == TrajStatus.ACTIVE) & (ref.status == TrajStatus.ACTIVE)
                dp = f"{max_diff(h.p, ref.p, both):10.2e}" if h.p is not None else f"{'-':>10}"
                dx = max_diff(h.x, ref.x, both)
                statuses = int(np.any(h.status != ref.status, axis=0).sum())
                mark = "  <- in use" if s == in_use else ""
                print(f"{name:<18} {label:<10} {s:8d} {dp} {dx:10.2e} {statuses:8d}{mark}")


if __name__ == "__main__":
    main()
