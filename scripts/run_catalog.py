#!/usr/bin/env python3
"""Run every built-in scenario and write full artifact sets under runs/.

Each scenario's wall time (its `run_scenario` call) goes to stderr; stdout
carries the verdict lines only.
"""

import argparse
import sys
import time
from pathlib import Path

from momtraj import SCENARIOS, __version__, default_config, run_scenario
from momtraj.output import utc_now, write_run_outputs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=str, default="runs")
    args = ap.parse_args()

    base = Path(args.out)
    all_ok = True
    for name in sorted(SCENARIOS):
        started = utc_now()
        t0 = time.perf_counter()
        res = run_scenario(default_config(name, n_samples=args.n, seed=args.seed))
        print(f"{name}: run_scenario {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        write_run_outputs(res, base / name, __version__, started, utc_now())
        status = "PASS" if res.passed else "FAIL"
        all_ok &= res.passed
        print(f"[{status}] {name}: {sum(v.passed for v in res.verdicts)}"
              f"/{len(res.verdicts)} verdicts")
    print(f"catalog: {'PASS' if all_ok else 'FAIL'}; artifacts under {base.resolve()}")
    raise SystemExit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
