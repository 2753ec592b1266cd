#!/usr/bin/env python3
"""Benchmark the working tree against a git revision in alternating pairs.

    python3 scripts/bench_pairs.py REV --workload W --pairs N [--seconds S]

REV is extracted with git archive under .bench_pairs/ (ignored by git). Pair
i (from 1) runs the working tree's perfbench/run.py --workload W --seed i
--seconds S --trace 0 once from the root of the extracted tree and once from
the working tree, REV first in odd pairs. Each run's metrics are printed as
it ends.

Then, for each end-to-end metric that BENCHMARK.json declares, one line gives
each side's median and quartiles and the pairs the working tree won (a
strictly better value), and whether the claim rule holds for it: the working
tree wins at least 9 of every 10 pairs, over 10 pairs or more, and its median
is better than REV's by more than the distance between REV's quartiles.
The line also flags a regression: the working tree's median is worse than
REV's by more than the metric's `bound` in BENCHMARK.json, a fraction of REV's
median. Quartiles are statistics.quantiles' default (exclusive) cut points.

Exit code 0 when every run finished and was correct, 1 otherwise, 2 on a bad
REV. The extracted tree is deleted when the script ends.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import revtree  # noqa: E402

ROOT = revtree.ROOT
SCRATCH = ROOT / ".bench_pairs"
RUN_TIMEOUT_S = 240.0  # perfbench/run.py ends its own runs within 180 s


@dataclass(frozen=True)
class Summary:
    """One metric over the pairs: each side's median and quartiles, the claim rule, and
    whether the change's median is worse than the parent's by more than the bound."""

    parent: tuple[float, float, float]  # (Q1, median, Q3)
    change: tuple[float, float, float]
    wins: int
    pairs: int
    claim: bool
    regressed: bool


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str = "lower",
              bound: float = float("inf")) -> Summary:
    """Pair i is (parent[i], change[i]); `better` is "lower" or "higher"; `bound` is
    the worsening of the median, as a fraction of the parent's, that is flagged."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    ref, new = _quartiles(parent), _quartiles(change)
    gap = sign * (ref[1] - new[1])
    claim = len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gap > ref[2] - ref[0]
    return Summary(ref, new, wins, len(parent), claim, -gap > bound * abs(ref[1]))


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run from the root of `tree`; the JSON object its last line prints."""
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                          workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
                          "--trace", "0"], cwd=tree, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    if out.returncode:
        raise RuntimeError(f"perfbench/run.py exited {out.returncode}: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision to compare the working tree against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0, help="perfbench/run.py --seconds")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    ref_tree = SCRATCH / "ref"
    try:
        revtree.extract(args.rev, ref_tree)
    except ValueError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    values: dict[str, dict[str, list[float]]] = {"ref": {}, "new": {}}
    ok = True
    try:
        for i in range(1, args.pairs + 1):
            sides = [("ref", ref_tree), ("new", ROOT)]
            for side, tree in sides if i % 2 else sides[::-1]:
                result = _run(tree, args.workload, i, args.seconds)
                ok &= result["correct"] and not result["failed"]
                shown = []
                for m in metrics:
                    value = result["metrics"][m["name"]]["value"]
                    values[side].setdefault(m["name"], []).append(value)
                    shown.append(f"{m['name']} {value:.4g}")
                print(f"pair {i} {side}: correct={result['correct']} failed={result['failed']} "
                      f"{', '.join(shown)}", flush=True)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{args.workload}, {args.pairs} pairs, {args.rev} -> working tree "
          "(median [Q1, Q3]):")
    for m in metrics:
        s = summarize(values["ref"][m["name"]], values["new"][m["name"]], m["better"],
                      m["bound"])
        print(f"  {m['name']}: {s.parent[1]:.4g} [{s.parent[0]:.4g}, {s.parent[2]:.4g}] -> "
              f"{s.change[1]:.4g} [{s.change[0]:.4g}, {s.change[2]:.4g}], better in "
              f"{s.wins} of {s.pairs}; claim rule {'holds' if s.claim else 'does not hold'}; "
              f"{'WORSE than' if s.regressed else 'within'} the {m['bound']:g} bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
