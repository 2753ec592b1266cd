"""One pass of a workload in a fresh interpreter.

    python worker.py --setup-only
    python worker.py --workload NAME --seed N --trace 0|1 --work DIR --result FILE

The interpreter's first act is ``import momtraj.cli``; the monotonic clock
right after it ends ``setup_s``, which the parent started just before it
spawned this process. The pass then calls momtraj.cli.main once per operation
with stdout captured, checks each call's outputs, and writes a JSON result.
With ``--trace 1`` every layer is wrapped (see spans.py) and the spans are
written next to the result.
"""

import sys
import time

if __name__ == "__main__":
    import momtraj.cli  # noqa: F401  (setup_s ends when this import does)

    SETUP_END = time.monotonic()

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import traceback
from pathlib import Path

import checks
import spans
import workloads


def run_operation(cli, op, out_dir: Path, tracer=None) -> tuple[list[str], dict, float, float]:
    """Call momtraj.cli.main for `op` and check what it produced.

    Returns (problems, digests, wall_s, cpu_s); wall and CPU time cover the
    CLI call alone, not the checks.
    """
    captured = []
    entry = cli.run_scenario

    def capture(config):
        result = entry(config)
        captured.append(result)
        return result

    argv = list(op.argv) if op.validate else list(op.argv) + ["--out", str(out_dir)]
    stdout = io.StringIO()
    problems: list[str] = []
    if not op.validate:
        cli.run_scenario = capture
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, (argv,))
    except Exception:  # the CLI must not raise; a traceback is a failed operation
        code = None
        problems.append("momtraj.cli.main raised:\n" + traceback.format_exc())
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    cli.run_scenario = entry

    digests: dict = {}
    if code is not None:
        try:
            digests = _check(op, code, stdout.getvalue(), out_dir, captured, problems)
        except Exception:  # a check that cannot even run marks the output wrong
            problems.append("a check raised:\n" + traceback.format_exc())
    return [f"{op.label}: {p}" for p in problems], digests, wall, cpu


def _check(op, code: int, report: str, out_dir: Path, captured: list, problems: list) -> dict:
    """Append the problems found in one call's outputs; return its manifest digests."""
    if op.validate:
        problems += checks.check_validate_report(code, report)
        return {}
    problems += checks.check_exit(code, report)
    digests, found = checks.manifest_digests(out_dir)
    problems += found
    if len(captured) != 1:
        problems.append(f"expected one scenario run, saw {len(captured)}")
    else:
        problems += checks.check_unitarity(captured[0])
        for check in op.checks:
            problems += check(captured[0])
    return digests


def run_pass(ops, work_dir: Path, tracer=None) -> dict:
    """Run every operation of one pass; artifacts are removed once checked."""
    import momtraj.cli as cli

    wall = cpu = 0.0
    failed = 0
    problems: list[str] = []
    digests = {}
    for i, op in enumerate(ops):
        out_dir = work_dir / f"op{i}-{op.label}"
        found, digests[op.label], w, c = run_operation(cli, op, out_dir, tracer)
        shutil.rmtree(out_dir, ignore_errors=True)
        wall += w
        cpu += c
        failed += bool(found)
        problems += found
    digest = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    return {"wall_s": wall, "cpu_s": cpu, "attempted": len(ops), "failed": failed,
            "problems": problems, "digest": digest}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args()
    if args.setup_only:
        print(repr(SETUP_END))
        return 0

    ops = workloads.operations(args.workload, args.seed)
    args.work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    out = run_pass(ops, args.work, tracer)
    out["setup_end"] = SETUP_END
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(args.result.with_suffix(".spans.csv"))
        out["layers"] = spans.layer_metrics(tracer, out["wall_s"])
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
