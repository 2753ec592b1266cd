#!/usr/bin/env python3
"""Frame-spacing convergence ladder for the trajectory ensembles.

Each scenario runs at steps_per_frame, steps_per_frame/2 (when even) and 1
steps per frame, all at the same dt, so the shared frames hold the same
wavefunctions and only the frame spacing that the velocity field is
interpolated over changes. Every ensemble is compared with the spf = 1 rung
on the shared frames: max |dp| and max |dx| over those frames and the rows
active in both, and the number of trajectories whose status differs at some
shared frame. A scenario's second ensemble of one model (macroscopic's
reference run) is labelled model#2.

    PYTHONPATH=src python3 scripts/traj_convergence.py [--n N] [--seed S]
        [--scenarios NAME ...]

Measurement (2d) is left out unless named: its momentum-flow field is zero,
and its spf = 1 rung holds 501 frames of 256 x 256 points (about 1 GiB).
"""

import argparse
import dataclasses

import numpy as np

from momtraj import SCENARIOS, default_config, run_scenario
from momtraj.trajectories import TrajStatus


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


def row(name, label, rung, dp, dx, statuses):
    dp = f"{'-':>10}" if dp is None else f"{dp:10.2e}"  # the guidance law has no p
    return f"{name:<18} {label:<10} {rung:8d} {dp} {dx:10.2e} {statuses:8d}"


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
            print(row(config.name, label, r, *compare(h, shared)))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--scenarios", nargs="+")
    args = ap.parse_args()
    print("frame-spacing ladder, against steps_per_frame = 1 on the shared frames")
    print(f"{'scenario':<18} {'model':<10} {'spf':>8} {'max |dp|':>10} {'max |dx|':>10} "
          f"{'statuses':>8}")
    for name in args.scenarios or sorted(set(SCENARIOS) - {"measurement"}):
        frame_ladder(default_config(name, n_samples=args.n, seed=args.seed))


if __name__ == "__main__":
    main()
