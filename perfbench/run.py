"""Run one momtraj benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog-1d --seed 1 --seconds 5 --trace 0

Run it from the root of a momtraj checkout: the program is imported from
./src. Workloads: catalog-1d, measurement-2d, frames-poisson,
validate-threads (see README.md). Each pass of the workload runs in a fresh
interpreter (worker.py); passes repeat until --seconds have gone by, with at
least one. With --trace 0 the run also spawns three interpreters that only
import momtraj.cli before each pass and after the last, for setup_s, and
reports the end-to-end metrics. With --trace 1 the passes are traced and the
per-layer metrics are reported.

Every metric is printed by name with its unit, then the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Exit code 0
means the run finished; correct is false if any operation failed its checks
or two passes wrote different data.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SPAWNS = 3         # import-only interpreters before each untraced pass and after the last
RUN_LIMIT_S = 170.0      # a run ends within 180 s; a pass still running then is killed


def _git_sha(root: Path) -> str:
    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _numpy_version() -> str:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "not installed"


def _setup_sample(env: dict, timeout: float) -> float:
    start = time.monotonic()
    out = subprocess.run([sys.executable, str(HERE / "worker.py"), "--setup-only"], env=env,
                         capture_output=True, text=True, timeout=timeout, check=True)
    return float(out.stdout.strip()) - start


def _pass(args, env: dict, work: Path, index: int, timeout: float) -> dict:
    result = work / f"pass{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--work", str(work / f"pass{index}"), "--result", str(result)]
    start = time.monotonic()
    subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=timeout, check=True)
    out = json.loads(result.read_text())
    out["setup_s"] = out.pop("setup_end") - start
    return out


def verdict(passes: list[dict]) -> tuple[int, int, bool, list[str]]:
    """Operations attempted and failed over the passes, whether the run is correct, and why not."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"passes wrote different data: digests {digests}")
    return attempted, failed, failed == 0 and len(digests) == 1, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind so the running worker is killed and waited for and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "momtraj" / "cli.py").is_file():
        print(f"perfbench: no momtraj source at {root / 'src' / 'momtraj'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    try:
        # import-only interpreters between the passes, so that the setup
        # samples are spread over the run
        spawns = 0 if args.trace else SETUP_SPAWNS
        setups: list[float] = []
        passes = []
        measure_start = time.monotonic()
        while not passes or time.monotonic() - measure_start < args.seconds:
            setups += [_setup_sample(env, remaining()) for _ in range(spawns)]
            passes.append(_pass(args, env, work, len(passes), remaining()))
        setups += [_setup_sample(env, remaining()) for _ in range(spawns)]
        if args.trace:
            spans_csv = work / f"pass{len(passes) - 1}.spans.csv"
            shutil.copyfile(spans_csv, HERE / ".work" / f"{args.workload}.spans.csv")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: a worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, correct, problems = verdict(passes)

    metrics: dict[str, dict] = {}
    if args.trace:
        names = passes[0]["layers"]
        for name in names:
            value = statistics.median(p["layers"][name][0] for p in passes)
            metrics[name] = {"value": value, "unit": names[name][1]}
    else:
        metrics["wall_s"] = {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"}
        metrics["cpu_s"] = {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setups + [p["setup_s"] for p in passes]),
                              "unit": "s"}
        metrics["peak_rss_mib"] = {"value": statistics.median(p["peak_rss_mib"] for p in passes),
                                   "unit": "MiB"}

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"git_sha={_git_sha(root)} python={platform.python_version()} "
          f"numpy={_numpy_version()} nproc={os.cpu_count()}")
    print(f"passes={len(passes)} operations attempted={attempted} failed={failed} "
          f"data_digest={passes[0]['digest'][:16]}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
