#!/usr/bin/env python3
"""Compare the run artifacts and the validate report of the working tree with
those of a git revision.

    python3 scripts/identity.py REV [--tol T]

REV is extracted with git archive under .identity/ (ignored by git). The
fixed set of 11 commands runs on both trees, alternating which tree goes
first, each with its own src/ on PYTHONPATH:

* the 7 catalog scenarios at --n 10000 --seed 42;
* run measurement --c1sq 0.64 --n 10000 --seed 42;
* run harmonic-coherent --n 1000 --frames 1600 --current poisson --seed 42;
* validate --n 2000 --seed 42, with --threads 2 and with --threads 1.

For a `run`, every file that either run's manifest lists is compared. A file
prints "identical", or for a CSV the max absolute and relative difference of
each column that differs, or for JSON the leaves that differ, grouped by path
pattern with list indices shown as `*`: one line per pattern and kind (added,
removed or changed), with its count and its first leaf, so that a key added
to every frame row of a stats.json prints one line. `validate` writes no
files, so its stdout report is compared byte for byte, and each differing
line is printed; each tree's --threads 1 report is also compared with its
own --threads 2 report. Each command's wall time and peak RSS (the child's
own ru_maxrss) on both trees are printed too, and first the line count of
src/momtraj/*.py in each tree, as `wc -l` totals it, and each module whose
line count changed, as `grid.py: 442 → 437`.
Outputs are deleted as soon as they are compared, and the extracted tree when
the script ends. Next to the line counts it prints each tree's count of
settable values (`settable_values`) and, when the totals differ, each module
whose count changed, as `scenarios.py: 40 → 30`.

Exit code 0: every file and every report are identical. With --tol T, exit code
0 also when every numeric difference in a file is within T,
|a - b| <= T * max(1, |a|, |b|), every non-numeric value is equal and the
reports are identical. Exit code 1 otherwise, 2 on a bad REV.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import revtree  # noqa: E402

ROOT = revtree.ROOT
SCRATCH = ROOT / ".identity"

CATALOG = ("collapse", "free-particle", "harmonic-coherent", "linear-drift", "macroscopic",
           "measurement", "superposition")
ACCEPTANCE = ("--n", "10000", "--seed", "42")
COMMANDS = tuple((name, ("run", name) + ACCEPTANCE) for name in CATALOG) + (
    ("measurement-c1sq-0.64", ("run", "measurement", "--c1sq", "0.64") + ACCEPTANCE),
    ("frames-poisson", ("run", "harmonic-coherent", "--n", "1000", "--frames", "1600",
                        "--current", "poisson", "--seed", "42")),
    ("validate-threads-2", ("validate", "--n", "2000", "--seed", "42", "--threads", "2")),
    ("validate-threads-1", ("validate", "--n", "2000", "--seed", "42", "--threads", "1")),
)

MISSING = object()  # the value of a JSON key that one side lacks


@dataclass
class Report:
    """What differs between two artifact directories."""

    lines: list[str] = field(default_factory=list)
    identical: bool = True   # every listed file is byte-identical
    worst: float = 0.0       # largest numeric difference, scaled as --tol reads it
    other: bool = False      # a non-numeric value, a file or the layout differs

    def numeric(self, line: str | None, scaled: float) -> None:
        """A numeric difference; `line`, unless None, says what differs."""
        self.lines += [line] if line else []
        self.identical = False
        self.worst = max(self.worst, scaled)

    def mismatch(self, line: str | None) -> None:
        """A difference that no tolerance accepts."""
        self.lines += [line] if line else []
        self.identical = False
        self.other = True

    def passes(self, tol: float | None) -> bool:
        return self.identical or (tol is not None and not self.other and self.worst <= tol)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _short(v, width: int = 60) -> str:
    text = repr(v)
    return text if len(text) <= width else text[:width - 3] + "..."


def _scaled(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _compare_csv(name: str, a: str, b: str, report: Report) -> None:
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        report.mismatch(f"{name}: header or row count differs")
        return
    for j, col in enumerate(rows_a[0]):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:]) if ra[j] != rb[j]]
        if not pairs:
            continue
        try:
            nums = [(float(x), float(y)) for x, y in pairs]
        except ValueError:
            nums = None
        if nums is None or not all(math.isfinite(x - y) for x, y in nums):
            report.mismatch(f"{name}: column {col}: {len(pairs)} non-numeric values differ")
            continue
        abs_max = max(abs(x - y) for x, y in nums)
        rel_max = max(abs(x - y) / (max(abs(x), abs(y)) or 1.0) for x, y in nums)
        report.numeric(f"{name}: column {col}: {len(pairs)} values differ, max abs "
                       f"{abs_max:.3e}, max rel {rel_max:.3e}",
                       max(_scaled(x, y) for x, y in nums))


def _json_leaves(a, b, path: str, pattern: str,
                 out: list[tuple[str, str, object, object]]) -> None:
    """Append (path, pattern, a, b) for every leaf or branch at which a and b differ;
    the pattern is the path with list indices as `*`, and a key one side lacks is MISSING."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            _json_leaves(a.get(key, MISSING), b.get(key, MISSING), f"{path}/{key}",
                         f"{pattern}/{key}", out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _json_leaves(x, y, f"{path}/{i}", f"{pattern}/*", out)
    elif a != b and not (_is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b)):
        out.append((path, pattern, a, b))


def _compare_json(name: str, a: str, b: str, report: Report) -> None:
    leaves: list[tuple[str, str, object, object]] = []
    _json_leaves(json.loads(a), json.loads(b), "", "", leaves)
    groups: dict[tuple[str, str], list[tuple[str, object, object]]] = {}
    for path, pattern, x, y in leaves:
        kind = "added" if x is MISSING else "removed" if y is MISSING else "changed"
        groups.setdefault((pattern, kind), []).append((path, x, y))
        if _is_number(x) and _is_number(y) and math.isfinite(x - y):
            report.numeric(None, _scaled(x, y))
        else:
            report.mismatch(None)
    for (pattern, kind), group in groups.items():
        path, x, y = group[0]
        first = {"added": _short(y), "removed": _short(x)}.get(kind, f"{_short(x)} != {_short(y)}")
        report.lines.append(f"{name}: {pattern}: {len(group)} {kind}, first {path}: {first}")


def _listed(out_dir: Path) -> set[str]:
    mpath = out_dir / "manifest.json"
    return set(json.loads(mpath.read_text())["outputs"]) if mpath.is_file() else set()


def compare_dirs(ref: Path, new: Path) -> Report:
    """Compare every file either directory's manifest.json lists."""
    report = Report()
    listed_ref, listed_new = _listed(ref), _listed(new)
    if not listed_ref and not listed_new:
        report.mismatch("no manifest lists any output")
    for name in sorted(listed_ref | listed_new):
        if name not in listed_ref or name not in listed_new:
            report.mismatch(f"{name}: listed by one manifest only")
            continue
        a, b = (ref / name).read_bytes(), (new / name).read_bytes()
        if a == b:
            report.lines.append(f"{name}: identical")
        elif name.endswith(".csv"):
            _compare_csv(name, a.decode(), b.decode(), report)
        elif name.endswith(".json"):
            _compare_json(name, a.decode(), b.decode(), report)
        else:
            report.mismatch(f"{name}: differs")
    return report


def compare_reports(ref: bytes, new: bytes) -> Report:
    """Compare two stdout reports byte for byte; any difference is a mismatch."""
    report = Report()
    if ref == new:
        report.lines.append("stdout: identical")
        return report
    pairs = itertools.zip_longest(ref.decode(errors="replace").splitlines(),
                                  new.decode(errors="replace").splitlines())
    for i, (a, b) in enumerate(pairs, 1):
        if a != b:
            report.mismatch(f"stdout line {i}: {a!r} != {b!r}")
    if report.identical:
        report.mismatch("stdout: same lines, different line endings")
    return report


def source_lines(tree: Path) -> dict[str, int]:
    """Lines of each module of src/momtraj/*.py in `tree`, by file name, counted as
    `wc -l` counts them."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in sorted((tree / "src" / "momtraj").glob("*.py"))}


def _decorator_names(node: ast.ClassDef):
    """The name each decorator of `node` calls or is: `dataclass` for `@dataclass`,
    `@dataclass(frozen=True)` and `@dataclasses.dataclass`."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        yield getattr(target, "id", getattr(target, "attr", None))


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def settable_values(source: str) -> int:
    """Settable values of one module: the parameters with defaults of its public
    functions and of the public methods (`__init__` included) of its public classes,
    plus the fields with defaults of its public dataclasses. A name is public unless
    it starts with an underscore."""
    count = 0
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            fields = "dataclass" in _decorator_names(node)
            for item in node.body:
                if isinstance(item, functions) and (not item.name.startswith("_")
                                                    or item.name == "__init__"):
                    count += _defaults(item)
                elif fields and isinstance(item, ast.AnnAssign) and item.value is not None:
                    count += 1
    return count


def source_settable_values(tree: Path) -> dict[str, int]:
    """`settable_values` of each module of src/momtraj/*.py in `tree`, by file name."""
    return {p.name: settable_values(p.read_text())
            for p in sorted((tree / "src" / "momtraj").glob("*.py"))}


def count_changes(ref: dict[str, int], new: dict[str, int]) -> list[str]:
    """One line per module whose count (of lines or of settable values) differs, as
    `scenarios.py: 40 → 30`; a module that one tree lacks counts 0 there."""
    return [f"{name}: {ref.get(name, 0)} → {new.get(name, 0)}"
            for name in sorted(set(ref) | set(new)) if ref.get(name, 0) != new.get(name, 0)]


@dataclass(frozen=True)
class Run:
    """One momtraj command on one tree."""

    code: int
    wall_s: float
    peak_mib: float  # the child's own ru_maxrss, not the maximum over all children
    stdout: bytes


def _run(tree: Path, argv: tuple[str, ...], out: Path) -> Run:
    """Run one momtraj command on `tree`'s sources; a `run` writes its artifacts to `out`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    flags = ("--out", str(out)) if argv[0] == "run" else ()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "momtraj.cli", *argv, *flags],
                            cwd=tree, env=env, stdout=subprocess.PIPE)
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024, stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision to compare the working tree against")
    ap.add_argument("--tol", type=float, help="accept numeric differences within this bound")
    args = ap.parse_args(argv)
    ref_tree = SCRATCH / "ref"
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        revtree.extract(args.rev, ref_tree)
    except ValueError as exc:
        print(f"identity: {exc}", file=sys.stderr)
        return 2
    ok = True
    reports: dict[str, dict[str, bytes]] = {}  # validate label -> side -> stdout
    try:
        for what, unit, count in (("src/momtraj/*.py", " lines", source_lines),
                                  ("settable values", "", source_settable_values)):
            ref_counts, new_counts = count(ref_tree), count(ROOT)
            print(f"{what}: {sum(ref_counts.values())}{unit} at {args.rev}, "
                  f"{sum(new_counts.values())} in the working tree")
            for line in count_changes(ref_counts, new_counts):
                print(f"  {line}")
        for i, (label, cmd) in enumerate(COMMANDS):
            trees = [("ref", ref_tree), ("new", ROOT)]
            runs = {side: _run(tree, cmd, SCRATCH / "out" / side / label)
                    for side, tree in (trees if i % 2 == 0 else trees[::-1])}
            ref, new = runs["ref"], runs["new"]
            if cmd[0] == "validate":
                reports[label] = {side: run.stdout for side, run in runs.items()}
            report = (compare_dirs(SCRATCH / "out" / "ref" / label,
                                   SCRATCH / "out" / "new" / label)
                      if cmd[0] == "run" else compare_reports(ref.stdout, new.stdout))
            if ref.code != new.code:
                report.mismatch(f"exit code {ref.code} at {args.rev}, "
                                f"{new.code} in the working tree")
            passed = report.passes(args.tol)
            ok &= passed
            verdict = ("identical" if report.identical
                       else f"within {args.tol:g}" if passed else "DIFFERS")
            print(f"{label}: {verdict} (wall {ref.wall_s:.2f} s, peak {ref.peak_mib:.1f} MiB "
                  f"at {args.rev}; {new.wall_s:.2f} s, {new.peak_mib:.1f} MiB in the "
                  "working tree)")
            for line in report.lines:
                print(f"  {line}")
            sys.stdout.flush()  # one command's report at a time, also through a pipe
            shutil.rmtree(SCRATCH / "out", ignore_errors=True)
        for side, where in (("ref", f"at {args.rev}"), ("new", "in the working tree")):
            report = compare_reports(reports["validate-threads-1"][side],
                                     reports["validate-threads-2"][side])
            ok &= report.identical
            print(f"validate --threads 1 against --threads 2 {where}: "
                  f"{'identical' if report.identical else 'DIFFERS'}")
            for line in report.lines:
                print(f"  {line}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
