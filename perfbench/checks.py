"""Correctness checks made apart from the program.

Each check compares what one CLI call produced with a reference that does not
come from momtraj's own verdict code: an analytic formula, the flags the
benchmark passed, or a digest recomputed from the files on disk. A check
returns a list of problems; an empty list means the operation is correct.

The parameters below restate the catalog defaults the workloads rely on
(unit mass, frequency and hbar; sigma = 1; linear slope 2; coherent
displacement 2; measurement shift a = 6).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

MASS = 1.0
OMEGA = 1.0
HBAR = 1.0
SIGMA = 1.0
LINEAR_C = 2.0
DISPLACEMENT = 2.0
POINTER_SHIFT = 6.0

EXACT_TOL = 1e-8        # closed-form trajectory laws, as tight as the program claims
NORM_TOL = 1e-9         # split-step propagation is unitary to roundoff
ENERGY_TOL = 1e-5       # relative; Strang splitting keeps <H> to O(dt^2)
SPLIT_STEP_C = 0.5      # |psi - psi_exact| <= C t dt^2; measured C is about 0.1

ACTIVE = 0              # TrajStatus.ACTIVE as stored in the history arrays


def _spacing(points: np.ndarray) -> float:
    return float(points[1] - points[0])


def _epstein(result):
    return result.ensembles["epstein"].history


# -- common to every `run` call ---------------------------------------------------


def check_exit(exit_code: int, stdout: str) -> list[str]:
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if "result: PASS" not in stdout.splitlines():
        problems.append("report has no 'result: PASS' line")
    return problems


def manifest_digests(out_dir: Path) -> tuple[dict[str, str], list[str]]:
    """Digests listed in manifest.json, and problems if a file disagrees with them."""
    problems = []
    mpath = out_dir / "manifest.json"
    if not mpath.is_file():
        return {}, ["no manifest.json"]
    try:
        listed = json.loads(mpath.read_text())["outputs"]
    except (ValueError, KeyError) as exc:
        return {}, [f"unreadable manifest.json: {exc!r}"]
    for name, digest in sorted(listed.items()):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"listed output {name} missing")
            continue
        actual = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        if actual != digest:
            problems.append(f"{name} does not match its manifest digest")
    unlisted = sorted(p.name for p in out_dir.iterdir()
                      if p.name != "manifest.json" and p.name not in listed)
    if unlisted:
        problems.append(f"unlisted files in the artifact directory: {unlisted}")
    return listed, problems


def check_unitarity(result) -> list[str]:
    """Every frame keeps norm 1 in both representations."""
    worst = 0.0
    for fr in result.frames:
        for fld in (fr.psi_x, fr.psi_p):
            norm = float(np.sum(np.abs(fld.values) ** 2)) * fld.grid.cell_volume(fld.rep)
            worst = max(worst, abs(norm - 1.0))
    return [] if worst <= NORM_TOL else [f"norm drifts by {worst:.3e} > {NORM_TOL:g}"]


# -- scenario-specific references ---------------------------------------------------


def check_free_particle(result) -> list[str]:
    """x_i(t) = p_i t / m, and |psi~(p, t)|^2 is the analytic Gaussian."""
    hist = _epstein(result)
    law = 0.0
    for f, t in enumerate(hist.times):
        act = hist.status[f] == ACTIVE
        law = max(law, float(np.abs(hist.x[f][act] - hist.p[f][act] * t / MASS).max()))
    dens = 0.0
    for fr in result.frames:
        p = fr.psi_p.grid.axis_points(fr.psi_p.rep, 0)
        exact = math.sqrt(SIGMA**2 / (math.pi * HBAR**2)) * np.exp(-(p**2) * SIGMA**2 / HBAR**2)
        dens = max(dens, float(np.abs(np.abs(fr.psi_p.values) ** 2 - exact).max()))
    problems = []
    if not law <= EXACT_TOL:
        problems.append(f"free-particle: max |x - p t/m| = {law:.3e}")
    if not dens <= EXACT_TOL:
        problems.append(f"free-particle: momentum density off the Gaussian by {dens:.3e}")
    return problems


def check_linear_drift(result) -> list[str]:
    """p_i(t) = p_i(0) - c t."""
    hist = _epstein(result)
    worst = 0.0
    for f, t in enumerate(hist.times):
        act = hist.status[f] == ACTIVE
        worst = max(worst, float(np.abs(hist.p[f][act] - (hist.p[0][act] - LINEAR_C * t)).max()))
    return [] if worst <= EXACT_TOL else [f"linear-drift: max |p - (p0 - c t)| = {worst:.3e}"]


def _energy(fr) -> float:
    x = fr.psi_x.grid.axis_points(fr.psi_x.rep, 0)
    p = fr.psi_p.grid.axis_points(fr.psi_p.rep, 0)
    kin = np.sum(p**2 / (2.0 * MASS) * np.abs(fr.psi_p.values) ** 2) * _spacing(p)
    pot = np.sum(0.5 * MASS * OMEGA**2 * x**2 * np.abs(fr.psi_x.values) ** 2) * _spacing(x)
    return float(kin + pot)


def check_harmonic(result) -> list[str]:
    """<H> = hbar w (1/2 + x0^2/2) and the mean momentum follows -m w x0 sin(w t)."""
    problems = []
    h_exact = HBAR * OMEGA * (0.5 + DISPLACEMENT**2 / 2.0)
    drift = max(abs(_energy(fr) - h_exact) / h_exact for fr in result.frames)
    if not drift <= ENERGY_TOL:
        problems.append(f"harmonic: <H> deviates by {drift:.3e} (relative)")
    hist = _epstein(result)
    sigma_p = math.sqrt(MASS * OMEGA * HBAR / 2.0)
    worst = 0.0
    for f, t in enumerate(hist.times):
        act = hist.status[f] == ACTIVE
        n = int(act.sum())
        mean = float(hist.p[f][act, 0].mean())
        expected = -MASS * OMEGA * DISPLACEMENT * math.sin(OMEGA * t)
        worst = max(worst, abs(mean - expected) / (4.0 * sigma_p / math.sqrt(n)))
    if not worst <= 1.0:
        problems.append(f"harmonic: mean momentum outside 4 sigma/sqrt(N) ({worst:.2f} of the band)")
    return problems


def check_superposition(result) -> list[str]:
    """Every t = 0 position sits at the origin."""
    hist = _epstein(result)
    act = hist.status[0] == ACTIVE
    worst = float(np.abs(hist.x[0][act]).max())
    return [] if worst <= EXACT_TOL else [f"superposition: max |x_i(0)| = {worst:.3e}"]


def check_born_weights(result, c1_sq: float) -> list[str]:
    """t = 0 pointer-region frequencies equal the c1^2 passed in, within 4 binomial sigma."""
    hist = _epstein(result)
    act = hist.status[0] == ACTIVE
    x = hist.x[0][act, 0]
    n = x.size
    a = POINTER_SHIFT
    problems = []
    for label, lo, hi, w in (("plus", a / 2, 5 * a / 2, c1_sq),
                             ("minus", -5 * a / 2, -a / 2, 1.0 - c1_sq)):
        freq = float(np.mean((x >= lo) & (x <= hi)))
        band = 4.0 * math.sqrt(w * (1.0 - w) / n)
        if not abs(freq - w) <= band:
            problems.append(f"measurement: {label} frequency {freq:.4f} vs {w:.4f} (band {band:.4f})")
    return problems


def coherent_state_exact(x: np.ndarray, t: float) -> np.ndarray:
    """Exact coherent state of the unit oscillator started at x0 = DISPLACEMENT.

    psi(x, t) = pi^-1/4 exp(-x^2/2 + sqrt(2) al x - al^2/2 - |al|^2/2 - i t/2),
    al = (x0/sqrt 2) e^{-i t}; in units m = w = hbar = 1.
    """
    al = DISPLACEMENT / math.sqrt(2.0) * np.exp(-1j * t)
    return np.pi**-0.25 * np.exp(-(x**2) / 2.0 + math.sqrt(2.0) * al * x - al**2 / 2.0
                                 - abs(al) ** 2 / 2.0 - 0.5j * t)


def check_coherent_final(result) -> list[str]:
    """The final psi(x) agrees with the exact coherent state within the split-step error."""
    dt = result.config.dt
    fr = result.frames[-1]
    x = fr.psi_x.grid.axis_points(fr.psi_x.rep, 0)
    err = float(np.abs(fr.psi_x.values - coherent_state_exact(x, fr.time)).max())
    tol = SPLIT_STEP_C * fr.time * dt**2
    return [] if err <= tol else [f"coherent state: max |psi - psi_exact| = {err:.3e} > {tol:.3e}"]


# -- validate ---------------------------------------------------------------------------


_VERDICT_LINE = re.compile(r"^\s+\[(PASS|FAIL)\] ([\w-]+): ")


def check_validate_report(exit_code: int, stdout: str) -> list[str]:
    """Exit code 0 and every catalog scenario reported, with every verdict PASS."""
    from momtraj.scenarios import SCENARIOS

    problems = check_exit(exit_code, stdout)
    seen: set[str] = set()
    for line in stdout.splitlines():
        m = _VERDICT_LINE.match(line)
        if m:
            seen.add(m.group(2))
            if m.group(1) != "PASS":
                problems.append(f"verdict failed: {line.strip()}")
    missing = sorted(set(SCENARIOS) - seen)
    if missing:
        problems.append(f"scenarios not reported: {missing}")
    return problems
