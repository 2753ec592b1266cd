"""The artifact comparison of scripts/identity.py, on small directories."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parent.parent / "scripts" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = identity  # dataclasses resolve annotations through it
_SPEC.loader.exec_module(identity)


def _artifacts(path: Path, value: float, status: str = "active") -> Path:
    """A run directory whose manifest lists a stats file and a trajectory CSV."""
    path.mkdir()
    stats = {"frames": [{"time": 0.0, "continuity_residual": value}], "passed": True}
    (path / "stats.json").write_text(json.dumps(stats, indent=1, sort_keys=True) + "\n")
    (path / "trajectories.csv").write_text(
        f"traj_id,t,p0,status\n0,0.0,{value!r},{status}\n1,0.0,0.25,active\n")
    outputs = {name: "sha256:unused" for name in ("stats.json", "trajectories.csv")}
    (path / "manifest.json").write_text(json.dumps({"outputs": outputs}))
    return path


@pytest.mark.parametrize("offset,identical,within", [
    (0.0, True, True),
    (1e-13, False, True),
    (1e-9, False, False),
])
def test_compare_dirs_numeric_offsets(tmp_path, offset, identical, within):
    ref = _artifacts(tmp_path / "ref", 0.5)
    new = _artifacts(tmp_path / "new", 0.5 + offset)
    report = identity.compare_dirs(ref, new)
    assert report.identical is identical
    assert report.passes(None) is identical
    assert report.passes(1e-12) is within
    assert not report.other
    if identical:
        assert report.lines == ["stats.json: identical", "trajectories.csv: identical"]
    else:
        assert any(line.startswith("trajectories.csv: column p0: 1 values differ, max abs")
                   for line in report.lines)
        assert any(line.startswith("stats.json: /frames/*/continuity_residual: 1 changed, "
                                   "first /frames/0/continuity_residual: 0.5 != ")
                   for line in report.lines)


def test_compare_dirs_rejects_a_changed_status_at_any_tolerance(tmp_path):
    ref = _artifacts(tmp_path / "ref", 0.5)
    new = _artifacts(tmp_path / "new", 0.5, status="frozen_at_node")
    report = identity.compare_dirs(ref, new)
    assert not report.identical and report.other
    assert not report.passes(1.0)
    assert "trajectories.csv: column status: 1 non-numeric values differ" in report.lines
    assert "stats.json: identical" in report.lines


def test_compare_dirs_groups_json_leaves_by_path_pattern(tmp_path):
    # a key added to every frame row, one removed and one changed print one line each
    stats = {"frames": [{"time": t, "frozen": 0} for t in (0.0, 0.5, 1.0)],
             "diagnostics": {"estimate": {"epstein": 0.25}, "total": 3}}
    ref, new = (tmp_path / "ref", tmp_path / "new")
    for path in (ref, new):
        path.mkdir()
        (path / "manifest.json").write_text(json.dumps({"outputs": {"stats.json": "unused"}}))
    (ref / "stats.json").write_text(json.dumps(stats))
    for row in stats["frames"]:
        row["pairs"] = 0
    stats["frames"][1]["frozen"] = 2
    stats["diagnostics"] = {"total": 3, "pairs": 0}
    (new / "stats.json").write_text(json.dumps(stats))
    report = identity.compare_dirs(ref, new)
    assert not report.identical and report.other and not report.passes(1.0)
    assert report.lines == [
        "stats.json: /diagnostics/estimate: 1 removed, first /diagnostics/estimate: "
        "{'epstein': 0.25}",
        "stats.json: /diagnostics/pairs: 1 added, first /diagnostics/pairs: 0",
        "stats.json: /frames/*/pairs: 3 added, first /frames/0/pairs: 0",
        "stats.json: /frames/*/frozen: 1 changed, first /frames/1/frozen: 0 != 2",
    ]


_REPORT = (b"validation suite (N=2000, seed=42)\n"
           b"  [PASS] collapse: branch-current-split  measured 1.234e-05  tol 1.000e-03\n"
           b"  [PASS] free-particle: exact-straight-lines  measured 0.000e+00  tol 1.000e-10\n"
           b"result: PASS\n")


def test_compare_reports_identical():
    report = identity.compare_reports(_REPORT, bytes(_REPORT))
    assert report.identical and report.passes(None)
    assert report.lines == ["stdout: identical"]


def test_compare_reports_rejects_a_changed_verdict_line_at_any_tolerance():
    changed = _REPORT.replace(b"[PASS] collapse", b"[FAIL] collapse").replace(
        b"1.234e-05", b"2.500e-03")
    report = identity.compare_reports(_REPORT, changed)
    assert not report.identical and report.other
    assert not report.passes(1.0)
    assert len(report.lines) == 1
    assert report.lines[0].startswith("stdout line 2: '  [PASS] collapse: ")
    assert "!= '  [FAIL] collapse: branch-current-split  measured 2.500e-03" in report.lines[0]


def test_settable_values_counts_public_defaults_and_dataclass_fields():
    source = '''
import dataclasses
from dataclasses import dataclass


def run(n, seed=0, *, threads=1, verbose):
    def inner(x=1):
        return x


def _private(a=1, b=2):
    pass


@dataclass(frozen=True)
class Config:
    name: str
    dt: float = 1e-3
    steps: int = dataclasses.field(default=10)
    total = 5

    def scaled(self, factor=2.0):
        pass

    def _helper(self, k=3):
        pass


@dataclasses.dataclass
class Other:
    flag: bool = True


class Plain:
    size: int = 4

    def __init__(self, size=4):
        self.size = size


class _Hidden:
    def method(self, x=1):
        pass
'''
    # run: seed, threads; Config: dt, steps, scaled's factor; Other: flag; Plain: __init__'s size
    assert identity.settable_values(source) == 7


def test_settable_changes_name_each_module_whose_count_changed(tmp_path):
    for tree, counts in (("ref", {"a.py": 2, "b.py": 1, "gone.py": 1}),
                         ("new", {"a.py": 2, "b.py": 3, "added.py": 1})):
        src = tmp_path / tree / "src" / "momtraj"
        src.mkdir(parents=True)
        for name, n in counts.items():
            params = ", ".join(f"k{i}=0" for i in range(n))
            (src / name).write_text(f"def run({params}):\n    pass\n")
    ref, new = (identity.source_settable_values(tmp_path / tree) for tree in ("ref", "new"))
    assert ref == {"a.py": 2, "b.py": 1, "gone.py": 1}
    assert identity.count_changes(ref, new) == ["added.py: 0 → 1", "b.py: 1 → 3",
                                                "gone.py: 1 → 0"]
    assert identity.count_changes(ref, ref) == []


def test_line_changes_name_each_module_whose_line_count_changed(tmp_path):
    for tree, counts in (("ref", {"a.py": 2, "grid.py": 442, "gone.py": 1}),
                         ("new", {"a.py": 2, "grid.py": 437, "added.py": 3})):
        src = tmp_path / tree / "src" / "momtraj"
        src.mkdir(parents=True)
        for name, n in counts.items():
            (src / name).write_text("pass\n" * n)
    ref, new = (identity.source_lines(tmp_path / tree) for tree in ("ref", "new"))
    assert ref == {"a.py": 2, "gone.py": 1, "grid.py": 442}
    assert sum(new.values()) == 442
    assert identity.count_changes(ref, new) == ["added.py: 0 → 3", "gone.py: 1 → 0",
                                                "grid.py: 442 → 437"]
