"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the PASS
lines). Scenario runs are cached module-wide so each configuration executes
once at full ensemble size.
"""

import json
import time

import numpy as np
import pytest

from momtraj import default_config, run_scenario
from momtraj.cli import main as cli_main
from momtraj.dynamics import PropagatorConfig, propagate
from momtraj.grid import grid_1d
from momtraj.states import coherent_state, gaussian_state

N_FULL = 10_000
SEED = 42

_cache: dict[str, tuple] = {}


def scenario(name, tag="", **overrides):
    key = name + tag
    if key not in _cache:
        cfg = default_config(name, n_samples=N_FULL, seed=SEED, **overrides)
        t0 = time.perf_counter()
        res = run_scenario(cfg)
        _cache[key] = (res, time.perf_counter() - t0)
    return _cache[key]


def verdict(res, name):
    return next(v for v in res.verdicts if v.name == name)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_free_particle_exactness():
    res, elapsed = scenario("free-particle")
    law = verdict(res, "free-trajectory-law")
    drift = verdict(res, "momentum-constancy")
    ok = law.passed and drift.passed and elapsed <= 30.0
    report(
        "1 free-particle exactness",
        ok,
        f"max|x - p t/m| = {law.measured:.2e} (tol 1e-8), "
        f"p drift = {drift.measured:.2e} (tol 1e-10), runtime {elapsed:.1f}s (max 30s)",
    )


def test_criterion_02_origin_concentration_and_shift_independence():
    res5, _ = scenario("superposition")
    res0, _ = scenario("superposition", tag="-a0", a=0.0, model="epstein")
    o5 = verdict(res5, "origin-concentration")
    o0 = verdict(res0, "origin-concentration")
    f5 = verdict(res5, "fringe-momentum-density")
    f0 = verdict(res0, "fringe-momentum-density")

    bins = 201  # odd count: x = 0 sits at a bin center, not on an edge
    lo, hi = -22.5, 22.5
    h = []
    for res in (res5, res0):
        hist = res.ensembles["epstein"].history
        act = hist.status[0] == 0
        counts, edges = np.histogram(hist.x[0][act][:, 0], bins=bins, range=(lo, hi))
        width = edges[1] - edges[0]
        h.append(counts / (counts.sum() * width))
    l1 = float(np.sum(np.abs(h[0] - h[1])) * width)
    l1_tol = 2.0 * np.sqrt(bins / N_FULL)

    ok = all(v.passed for v in (o5, o0, f5, f0)) and l1 <= l1_tol
    report(
        "2 origin concentration, shift independence",
        ok,
        f"max|x(0)| = {max(o5.measured, o0.measured):.2e} (tol 1e-8), "
        f"density err = {max(f5.measured, f0.measured):.2e} (tol 1e-8), "
        f"histogram L1(a=0 vs a=5) = {l1:.3f} (tol {l1_tol:.3f})",
    )


CATALOG = (
    ("free-particle", {}),
    ("superposition", {}),
    ("macroscopic", {}),
    ("measurement", {}),
    ("collapse", {}),
    ("harmonic-coherent", {}),
    ("linear-drift", {}),
)


def test_criterion_03_moment_identity_every_frame():
    worst = 0.0
    all_ok = True
    for name, kw in CATALOG:
        res, _ = scenario(name, **kw)
        v = verdict(res, "moment-checks-all-frames")
        all_ok &= v.passed
        worst = max(worst, v.measured)
    report(
        "3 moment identity and variance inequality",
        all_ok and worst <= 1e-6,
        f"all catalog frames pass the mean/spread bands; "
        f"worst second-moment identity error {worst:.2e} (tol 1e-6)",
    )


def test_criterion_04_equivariance_harmonic():
    res, _ = scenario("harmonic-coherent")
    targets = (0.0, np.pi / 4, np.pi / 2, np.pi)
    checked = []
    for t in targets:
        row = min(res.stats_rows, key=lambda r: abs(r["time"] - t))
        assert abs(row["time"] - t) < 1e-9, f"no frame lands on t={t}"
        ks = row["ks"]["p0"]
        checked.append((t, ks["statistic"], ks["band"], ks["passed"]))
    every = verdict(res, "equivariance-all-frames")
    ok = all(c[3] for c in checked) and every.passed
    detail = ", ".join(f"t={t:.3f}: {s:.4f}<{b:.4f}" for t, s, b, _ in checked)
    report("4 equivariance at the coherent-state frames", ok, detail)


def test_criterion_05_continuity_and_cross_validation():
    res_h, _ = scenario("harmonic-coherent")
    res_l, _ = scenario("linear-drift")
    ch = verdict(res_h, "continuity-residual")
    cl = verdict(res_l, "continuity-residual")
    xh = verdict(res_h, "current-cross-method")
    xl = verdict(res_l, "current-cross-method")
    ok = all(v.passed for v in (ch, cl, xh, xl))
    report(
        "5 continuity and current cross-validation",
        ok,
        f"continuity residual harmonic {ch.measured:.2e}, linear {cl.measured:.2e} "
        f"(tol 1e-4); poisson-vs-closed harmonic {xh.measured:.2e}, "
        f"linear {xl.measured:.2e} (tol 1e-6)",
    )


def test_criterion_06_classical_force_consistency():
    res, _ = scenario("harmonic-coherent")
    force = verdict(res, "classical-force-relation")
    res_g, _ = scenario("harmonic-coherent", tag="-ground", displacement=0.0)
    gx = verdict(res_g, "ground-position-frozen")
    gp = verdict(res_g, "ground-momentum-frozen")
    ok = force.passed and gx.passed and gp.passed
    report(
        "6 classical-force consistency",
        ok,
        f"|dp/dt + m w^2 x| = {force.measured:.2e} (tol 1e-4); ground state "
        f"max|x| = {gx.measured:.2e}, p drift = {gp.measured:.2e} (tol 1e-4)",
    )


def test_criterion_07_born_weights_with_environment():
    res_eq, _ = scenario("measurement")
    res_uneq, _ = scenario("measurement", tag="-64", c1_sq=0.64)
    checks = []
    for res, w in ((res_eq, 0.5), (res_uneq, 0.64)):
        vp = verdict(res, "born-weight-plus")
        vm = verdict(res, "born-weight-minus")
        vd = verdict(res, "factorized-momentum-density")
        checks += [vp, vm, vd]
    ok = all(v.passed for v in checks)
    dev = max(v.measured for v in checks if "weight" in v.name)
    report(
        "7 Born weights with environment",
        ok,
        f"pointer frequencies within 4 sqrt(w(1-w)/N) for (0.5,0.5) and (0.64,0.36), "
        f"worst deviation {dev:.4f}; factorized density err "
        f"{max(v.measured for v in checks if 'density' in v.name):.2e} (tol 1e-6)",
    )


def test_criterion_08_effective_collapse():
    res, _ = scenario("collapse")
    dec = verdict(res, "branch-current-decomposition")
    trk = verdict(res, "single-branch-tracking")
    res_p, _ = scenario("collapse", tag="-poisson", current="poisson")
    leak = res_p.diagnostics["gap_current_leakage"]
    ok = dec.passed and trk.passed
    report(
        "8 effective collapse",
        ok,
        f"decomposition residual {dec.measured:.2e} (tol 1e-6); branch tracking "
        f"{trk.measured:.2e} (tol {trk.tolerance:.1e}); poisson-route gap leakage "
        f"reported: {leak['poisson']:.3e} (closed form: {leak['closed']:.3e}; no threshold)",
    )


def test_criterion_09_propagator_quality():
    grid = grid_1d(512, 80.0)
    psi = gaussian_state(grid, sigma=1.0)
    final = propagate(psi, __import__("momtraj").Free(),
                      PropagatorConfig(dt=1e-3, steps_per_frame=1000), 5000)
    s = 1.0 + 1j * 5.0
    exact = (np.pi) ** -0.25 * np.sqrt(1.0 / s) * np.exp(-grid.positions(0) ** 2 / (2 * s))
    free_err = float(np.abs(final.psi_x.values - exact).max())

    grid2 = grid_1d(512, 40.0)
    x0 = 2.0
    psi_c = coherent_state(grid2, x0)
    from momtraj import Harmonic

    def coherent_exact(x, t):
        xc, pc = x0 * np.cos(t), -x0 * np.sin(t)
        return (1 / np.pi) ** 0.25 * np.exp(
            -((x - xc) ** 2) / 2 + 1j * (pc * x - xc * pc / 2 - t / 2)
        )

    steps = int(round(2 * np.pi / 1e-3))
    fin = propagate(psi_c, Harmonic(1.0),
                    PropagatorConfig(dt=1e-3, steps_per_frame=steps), steps)
    fid = abs(np.sum(np.conj(fin.psi_x.values)
                     * coherent_exact(grid2.positions(0), steps * 1e-3))
              * grid2.spacing(0))

    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        n = int(round(1.6 / dt))
        f = propagate(psi_c, Harmonic(1.0), PropagatorConfig(dt=dt, steps_per_frame=n), n)
        e = np.sqrt(np.sum(np.abs(f.psi_x.values - coherent_exact(grid2.positions(0), 1.6)) ** 2)
                    * grid2.spacing(0))
        errs.append(float(e))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]

    ok = (free_err <= 1e-9 and fid >= 1 - 1e-6
          and all(1.8 <= o <= 2.2 for o in orders))
    report(
        "9 propagator quality",
        ok,
        f"free-Gaussian pointwise err {free_err:.2e} (tol 1e-9); one-period fidelity "
        f"deficit {1 - fid:.2e} (tol 1e-6); measured orders {orders[0]:.3f}, {orders[1]:.3f} "
        f"(2.0 +- 0.2)",
    )


def test_criterion_10_determinism(tmp_path):
    argv = ["run", "collapse", "--n", "2000", "--seed", "11", "--t-final", "0.1"]
    codes = [cli_main(argv + ["--out", str(tmp_path / d)]) for d in ("a", "b")]
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    same = ma["outputs"] == mb["outputs"]
    ok = codes == [0, 0] and same
    report(
        "10 determinism",
        ok,
        f"two identical runs: exit codes {codes}, "
        f"{len(ma['outputs'])} output files digest-identical: {same}",
    )
