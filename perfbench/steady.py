"""Steadiness check: run workloads repeatedly and print the spread of each metric.

    python3 perfbench/steady.py --runs 10 --traced 3 catalog-1d measurement-2d

Run it from the root of a checkout. Each workload runs --runs times untraced,
with seeds 1, 2, ..., --runs, then --traced times traced. For every metric
it prints the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median. End-to-end metrics are compared with
their bound in BENCHMARK.json: a spread under a third of the bound is
steady, one over the bound fails. It also checks that every run is correct
with no failed operation, that the data digest is the same in every run and
that the per-layer counts repeat exactly, and prints the tracing overhead as
the median traced wall time minus the median untraced wall_s.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metrics that count work or size and must repeat exactly.
EXACT = re.compile(r"(_calls|_points|\.frozen|\.left_grid|_mib|\.bytes|\.files|\.frames)$")


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = out.stdout.strip().splitlines()
    digest = re.search(r"data_digest=(\w+)", out.stdout).group(1)
    return json.loads(lines[-1]), digest


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def _report(results: list[dict], bounds: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Print each metric's spread; return the medians and the metrics wider than their bound."""
    medians = {}
    too_wide = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med, q1, q3, spread = _spread(values)
        medians[name] = med
        verdict = ""
        if name in bounds:
            bound = bounds[name]
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            if verdict == "TOO WIDE":
                too_wide.append(name)
            verdict = f"bound {bound:.2f}  {verdict}"
        print(f"  {name:<36} median {med:14.6f} {unit:<6} q1 {q1:14.6f} q3 {q3:14.6f} "
              f"spread {spread:7.4f}  {verdict}")
    return medians, too_wide


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        print(f"{workload}: {args.runs} untraced runs, {args.traced} traced, "
              f"{spec['run_seconds']} s each")
        seeds = range(1, args.runs + 1)
        runs = [_run(workload, s, spec["run_seconds"], 0) for s in seeds]
        traced = [_run(workload, s, spec["run_seconds"], 1) for s in seeds[: args.traced]]
        results = [r for r, _ in runs]
        shares = {r["failed"] / r["attempted"] for r in results + [r for r, _ in traced]}
        digests = {d for _, d in runs + traced}
        correct = all(r["correct"] for r in results + [r for r, _ in traced])
        print(f"  failed share {sorted(shares)}, data digests {sorted(digests)}, "
              f"correct {correct}")
        ok &= shares == {0.0} and len(digests) == 1 and correct
        medians, too_wide = _report(results, bounds)
        ok &= not too_wide
        if traced:
            print("  traced:")
            layers = [r for r, _ in traced]
            traced_medians, _ = _report(layers, {})
            for name in layers[0]["metrics"]:
                values = {r["metrics"][name]["value"] for r in layers}
                if EXACT.search(name) and len(values) > 1:
                    print(f"  COUNT DIFFERS: {name} {sorted(values)}")
                    ok = False
            selfs = {n[len("self_s."):]: v for n, v in traced_medians.items()
                     if n.startswith("self_s.")}
            total = sum(selfs.values())
            print("  layer shares of self time: " + ", ".join(
                f"{layer} {100 * v / total:.1f} %" for layer, v in selfs.items()))
            over = traced_medians["trace.wall_s"] - medians["wall_s"]
            print(f"  tracing overhead: {over:+.3f} s ({100 * over / medians['wall_s']:+.1f} % "
                  f"of the untraced median wall_s)")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
