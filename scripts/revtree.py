"""Extract a git revision of this repository, for the scripts that compare it
with the working tree (identity.py and bench_pairs.py)."""

from __future__ import annotations

import shutil
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> str:
    """Extract the files of commit `rev` into `dest`, made afresh, with git archive.

    Returns the commit's full hash. Raises ValueError if `rev` names no commit.
    """
    commit = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True)
    if commit.returncode:
        raise ValueError(f"not a commit: {rev}")
    sha = commit.stdout.strip()
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait():
        raise RuntimeError(f"git archive {rev} failed")
    return sha
