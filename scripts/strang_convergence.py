#!/usr/bin/env python3
"""Step-size convergence study for the split-step propagator.

Propagates a displaced oscillator state to a fixed time at a ladder of step
sizes and prints the L2 error against the closed-form coherent evolution,
with the measured convergence order between consecutive rungs.
"""

import argparse

import numpy as np

from momtraj import Harmonic, PropagatorConfig, grid_1d, propagate
from momtraj.states import coherent_state


def coherent_exact(x, t, x0):
    xc, pc = x0 * np.cos(t), -x0 * np.sin(t)
    return (1 / np.pi) ** 0.25 * np.exp(
        -((x - xc) ** 2) / 2 + 1j * (pc * x - xc * pc / 2 - t / 2)
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-final", type=float, default=1.6)
    ap.add_argument("--displacement", type=float, default=2.0)
    ap.add_argument("--rungs", type=int, default=5)
    ap.add_argument("--dt0", type=float, default=2e-3)
    args = ap.parse_args()

    grid = grid_1d(512, 40.0)
    psi = coherent_state(grid, args.displacement)
    pot = Harmonic(1.0)
    exact = coherent_exact(grid.positions(0), args.t_final, args.displacement)

    print(f"{'dt':>12} {'steps':>8} {'L2 error':>12} {'order':>7}")
    prev = None
    dt = args.dt0
    for _ in range(args.rungs):
        steps = int(round(args.t_final / dt))
        final = propagate(psi, pot, PropagatorConfig(dt=dt, steps_per_frame=steps), steps)
        err = float(np.sqrt(np.sum(np.abs(final.psi_x.values - exact) ** 2)
                            * grid.spacing(0)))
        order = f"{np.log2(prev / err):7.3f}" if prev else "      -"
        print(f"{dt:12.2e} {steps:8d} {err:12.3e} {order}")
        prev = err
        dt /= 2.0


if __name__ == "__main__":
    main()
