"""Fast self-test of the benchmark's own machinery, at tiny sizes.

    python3 perfbench/selftest.py          (from the root of a checkout)

It checks the self-time arithmetic on nested spans, and that a deliberately
corrupted output, on disk or in memory, or a check that raises, is counted
as a failed operation and makes the run's result incorrect.
The functions are also collected by pytest when the file is named on its
command line.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import Operation  # noqa: E402

TINY = Operation("tiny-free", ("run", "free-particle", "--n", "200", "--t-final", "0.2",
                               "--seed", "42"), (checks.check_free_particle,))


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))

    def g():
        return None

    def a():
        tracer.call("layer.g", g)

    def root():
        tracer.call("layer.a", a)
        tracer.call("layer.b", g)

    tracer.call("top.root", root)
    summary = spans.summarize(tracer.spans)
    assert summary["top.root"] == {"calls": 1, "total_s": 10, "self_s": 3}
    assert summary["layer.a"] == {"calls": 1, "total_s": 3, "self_s": 2}
    assert summary["layer.g"]["self_s"] == 1
    assert summary["layer.b"]["self_s"] == 4


def test_self_time_counts_overlapping_children_once():
    # children reported by two threads may overlap and overrun their parent
    recorded = [(1, 0, "p", 0.0, 10.0, 1), (2, 1, "c", 2.0, 6.0, 1),
                (3, 1, "c", 4.0, 8.0, 1), (4, 1, "c", 9.0, 12.0, 1)]
    assert spans.self_times(recorded)[1] == 10.0 - 6.0 - 1.0


def test_clean_tiny_run_passes(tmp=HERE / ".work" / "selftest-clean"):
    out = worker.run_pass([TINY], tmp)
    shutil.rmtree(tmp, ignore_errors=True)
    assert (out["attempted"], out["failed"]) == (1, 0), out["problems"]
    assert run.verdict([out, out]) == (2, 0, True, [])
    assert run.verdict([out, dict(out, digest="other")])[2] is False


def test_raising_check_is_a_failed_operation(tmp=HERE / ".work" / "selftest-raise"):
    def broken(_result):
        raise ValueError("check cannot run")

    out = worker.run_pass([Operation("tiny-raise", TINY.argv, (broken,))], tmp)
    shutil.rmtree(tmp, ignore_errors=True)
    assert (out["attempted"], out["failed"]) == (1, 1)
    assert any("a check raised" in p for p in out["problems"]), out["problems"]
    assert run.verdict([out])[2] is False


def test_corrupted_file_is_a_failed_operation(tmp=HERE / ".work" / "selftest-file"):
    import momtraj.cli as cli

    write = cli.write_run_outputs

    def corrupting_write(result, out_dir, *args):
        manifest = write(result, out_dir, *args)
        with open(Path(out_dir) / "trajectories_epstein.csv", "a") as fh:
            fh.write("0,0.0,0.0,0.0,active\n")
        return manifest

    cli.write_run_outputs = corrupting_write
    try:
        out = worker.run_pass([TINY], tmp)
    finally:
        cli.write_run_outputs = write
        shutil.rmtree(tmp, ignore_errors=True)
    assert (out["attempted"], out["failed"]) == (1, 1)
    assert any("manifest digest" in p for p in out["problems"]), out["problems"]
    assert run.verdict([out])[2] is False


def test_corrupted_trajectory_is_a_failed_operation(tmp=HERE / ".work" / "selftest-memory"):
    import momtraj.cli as cli

    run_scenario = cli.run_scenario

    def corrupting_run(config):
        result = run_scenario(config)
        result.ensembles["epstein"].history.x[-1, 0, 0] += 1e-3
        return result

    cli.run_scenario = corrupting_run
    try:
        out = worker.run_pass([TINY], tmp)
    finally:
        cli.run_scenario = run_scenario
        shutil.rmtree(tmp, ignore_errors=True)
    assert (out["attempted"], out["failed"]) == (1, 1)
    assert any("x - p t/m" in p for p in out["problems"]), out["problems"]
    assert run.verdict([out])[2] is False


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
