import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momtraj import (
    ComplexField,
    ConfigurationError,
    Free,
    Linear,
    NormalizationError,
    Region,
    Representation,
    equivariance_check,
    grid_moments,
    ks_band,
    macrostate_frequencies,
    moment_checks,
    region_1d,
    rho_histogram,
    sample_momenta,
    sample_positions,
    spectral_gradient,
    to_momentum,
)
from momtraj.dynamics import PropagatorConfig, collect_frames
from momtraj import ensemble
from momtraj.ensemble import _cell_edges, _radial_ks, _radial_order, ks_statistic
from momtraj.grid import BLOCK_POINTS, GridAxis, GridSpec, grid_1d
from momtraj.scenarios import _grid_for, default_config
from momtraj.states import gaussian_state, superposition_state
from momtraj.trajectories import integrate_epstein


def _block_of_one(field):
    """`field` as a block of one frame."""
    return ComplexField(field.grid, field.rep, field.values[None], np.array([field.time]))


def _all_rows(q):
    """A mask that keeps every row of the samples q (N, ...), for a block of one."""
    return np.ones((1, len(q)), bool)


def _equivariance(q, psi):
    """The `equivariance_check` record of every row of q (N, dof) against one frame."""
    (record,) = equivariance_check(q[None], _block_of_one(psi), _all_rows(q))
    return record


def _ks(q, density, edges):
    """The KS distance of every sample of q (N,) against one frame's density."""
    return ks_statistic(q[None], density[None], edges, _all_rows(q))[0]


def _moment_record(xs, psi, phi):
    """The `moment_checks` record of every row of xs (N, dof) against one frame."""
    phi = _block_of_one(phi)
    moments = grid_moments(_block_of_one(psi), phi,
                           spectral_gradient(phi.values, phi.grid, Representation.MOMENTUM))
    (record,) = moment_checks(xs[None], moments, _all_rows(xs))
    return record


# -- sampling ----------------------------------------------------------------------


def test_sampling_reproducible_bit_for_bit(grid512):
    phi = to_momentum(gaussian_state(grid512))
    a = sample_momenta(phi, 5000, seed=42)
    b = sample_momenta(phi, 5000, seed=42)
    assert np.array_equal(a, b)
    c = sample_momenta(phi, 5000, seed=43)
    assert not np.array_equal(a, c)


def test_sampling_1d_matches_inverse_cdf_reference(grid512):
    # one uniform per sample picks the cell and the place inside it
    phi = to_momentum(gaussian_state(grid512, sigma=1.1, boost=0.4))
    edges = _cell_edges(grid512, Representation.MOMENTUM, 0)
    widths = np.diff(edges)
    cdf = np.cumsum(np.clip(phi.density(), 0.0, None) * widths)
    cdf /= cdf[-1]
    u = np.random.default_rng(9).random(3000)
    cells = np.clip(np.searchsorted(cdf, u, side="right"), 0, len(cdf) - 1)
    lo = np.concatenate([[0.0], cdf])[cells]
    expected = edges[cells] + (u - lo) / (cdf[cells] - lo) * widths[cells]
    assert np.array_equal(sample_momenta(phi, 3000, seed=9)[:, 0], expected)


def test_sampling_rejects_unnormalized(grid512):
    phi = to_momentum(gaussian_state(grid512))
    bad = ComplexField(grid512, Representation.MOMENTUM, 1.5 * phi.values)
    with pytest.raises(NormalizationError):
        sample_momenta(bad, 100, 0)


def test_point_mass_density_sampling(grid512):
    vals = np.zeros(512, dtype=complex)
    vals[300] = 1.0
    field = ComplexField(grid512, Representation.MOMENTUM, vals).normalized()
    samples = sample_momenta(field, 1000, 5)
    p = grid512.momenta(0)
    dp = grid512.dual_spacing(0)
    assert np.all(samples[:, 0] >= p[300] - dp / 2)
    assert np.all(samples[:, 0] <= p[300] + dp / 2)


def test_point_mass_density_sampling_2d(grid2d):
    vals = np.zeros(grid2d.shape, dtype=complex)
    vals[40, 90] = 1.0
    field = ComplexField(grid2d, Representation.MOMENTUM, vals).normalized()
    samples = sample_momenta(field, 500, 5)
    for a, idx in ((0, 40), (1, 90)):
        lo = grid2d.momenta(a)[idx] - grid2d.dual_spacing(a) / 2
        hi = grid2d.momenta(a)[idx] + grid2d.dual_spacing(a) / 2
        assert np.all(samples[:, a] >= lo) and np.all(samples[:, a] <= hi)


def test_gaussian_sample_mean_within_band(grid512):
    phi = to_momentum(gaussian_state(grid512, sigma=1.0))
    n = 10_000
    samples = sample_momenta(phi, n, seed=42)
    sigma_p = grid512.hbar / (1.0 * np.sqrt(2))
    assert abs(samples[:, 0].mean()) <= 4 * sigma_p / np.sqrt(n)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ks_self_consistency(grid512, seed):
    phi = to_momentum(gaussian_state(grid512, sigma=1.1, boost=0.4))
    n = 10_000
    samples = sample_momenta(phi, n, seed=seed)
    edges = _cell_edges(grid512, Representation.MOMENTUM, 0)
    d = _ks(samples[:, 0], phi.density(), edges)
    assert d <= ks_band(n)


def test_ks_detects_wrong_density(grid512):
    phi = to_momentum(gaussian_state(grid512, sigma=1.0))
    shifted = to_momentum(gaussian_state(grid512, sigma=1.0, boost=0.5))
    samples = sample_momenta(phi, 10_000, seed=0)
    edges = _cell_edges(grid512, Representation.MOMENTUM, 0)
    d = _ks(samples[:, 0], shifted.density(), edges)
    assert d > 5 * ks_band(10_000)


def test_equivariance_2d_self_consistency(grid2d):
    phi = to_momentum(gaussian_state(grid2d, sigma=1.0, boost=(1.0, -0.5)))
    samples = sample_momenta(phi, 10_000, seed=3)
    results = _equivariance(samples, phi)
    assert list(results) == ["p0", "p1", "radial"]  # two marginals plus the radial CDF
    for label, r in results.items():
        assert r["passed"], (label, r["statistic"], r["band"])


def test_equivariance_tests_each_axis_marginal_in_any_dof(grid512, grid2d):
    # one loop for both dof: in 1d the marginal is the density itself
    for grid in (grid512, grid2d):
        phi = to_momentum(gaussian_state(grid, sigma=1.0))
        q = sample_momenta(phi, 2_000, seed=4)
        rho = phi.density()
        got = _equivariance(q, phi)
        assert list(got) == [f"p{a}" for a in range(grid.dof)] + ["radial"] * (grid.dof == 2)
        for a in range(grid.dof):
            marg = rho if grid.dof == 1 else (
                rho.sum(axis=1 - a) * grid.step(Representation.MOMENTUM, 1 - a))
            edges = _cell_edges(grid, Representation.MOMENTUM, a)
            assert got[f"p{a}"]["statistic"] == _ks(q[:, a], marg, edges)


def radial_ks_reference(q, rho, grid, refine=4):
    """The radial KS statistic with its sub-cell order sorted afresh."""
    pts0, pts1 = (grid.axis_points(Representation.MOMENTUM, a) for a in range(2))
    off = (np.arange(refine) + 0.5) / refine - 0.5
    sub0 = (pts0[:, None] + off[None, :] * grid.step(Representation.MOMENTUM, 0)).ravel()
    sub1 = (pts1[:, None] + off[None, :] * grid.step(Representation.MOMENTUM, 1)).ravel()
    r_sub = np.sqrt(sub0[:, None] ** 2 + sub1[None, :] ** 2).ravel()
    w_sub = np.repeat(np.repeat(rho, refine, 0), refine, 1).ravel() / refine**2
    order = np.argsort(r_sub, kind="stable")
    cdf = np.cumsum(w_sub[order])
    cdf /= cdf[-1]
    r_samples = np.sort(np.sqrt(q[:, 0] ** 2 + q[:, 1] ** 2))
    f = np.interp(r_samples, r_sub[order], cdf)
    i = np.arange(1, len(q) + 1)
    return float(max(np.max(i / len(q) - f), np.max(f - (i - 1) / len(q))))


def test_radial_ks_equals_a_fresh_sort_on_each_grid(grid2d):
    # two grids in turn, so that a radial order cached for one and read for
    # the other fails
    other = GridSpec((GridAxis(64, 30.0), GridAxis(128, 20.0)))
    cases = []
    for grid, seed in ((grid2d, 1), (other, 2), (grid2d, 3)):
        phi = to_momentum(gaussian_state(grid, sigma=1.0, boost=(1.0, -0.5)))
        cases.append((sample_momenta(phi, 2_000, seed=seed), phi, grid))
    for q, phi, grid in cases + cases:
        got = _equivariance(q, phi)["radial"]
        assert got["statistic"] == radial_ks_reference(q, phi.density(), grid)
        assert got["passed"]


@pytest.mark.parametrize("slice_size", [ensemble.RADIAL_SLICE, 10_007, 1 << 20],
                         ids=["two-slices", "not-a-multiple", "one-partial-slice"])
def test_sliced_radial_ks_equals_a_fresh_sort_per_frame(monkeypatch, slice_size):
    # 64 x 128 refined 4x is 131 072 sub-cells: two default slices, 13.1 slices
    # of 10 007, or one slice of 2**20 that the grid does not fill
    grid = GridSpec((GridAxis(64, 30.0), GridAxis(128, 20.0)))  # builds its order with this slice
    monkeypatch.setattr(ensemble, "RADIAL_SLICE", slice_size)
    _, psi_p, p, _, active = _block_case(grid)
    sub = [grid.axis_points(Representation.MOMENTUM, a)[3]
           + 0.125 * grid.step(Representation.MOMENTUM, a) for a in range(2)]
    # samples inside the innermost sub-cell radius, past the outermost and on a
    # sub-cell centre's radius
    p[0, :3] = p[2, :3] = [(0.0, 0.0), (1e3, 0.0), sub]
    rho, size = psi_p.density(), max(1, BLOCK_POINTS // grid.size)
    assert size == 4
    for b in range(0, 5, size):  # the blocks the propagator emits: frames 0-3, then 4
        block = ComplexField(grid, psi_p.rep, psi_p.values[b:b + size], psi_p.time[b:b + size])
        records = equivariance_check(p[b:b + size], block, active[b:b + size])
        for f, rec in enumerate(records, start=b):
            if not active[f].any():
                assert rec is None
                continue
            ref = radial_ks_reference(p[f][active[f]], rho[f], grid)
            assert rec["radial"]["statistic"] == ref


def test_radial_reference_memory_is_bounded():
    # measurement's 256 x 256 grid: 1 048 576 sub-cells
    grid = _grid_for(default_config("measurement"), 2)
    phi = to_momentum(gaussian_state(grid, sigma=1.0))
    q = sample_momenta(phi, 2_000, seed=5)[None]
    rho, active = phi.density()[None], np.ones(q.shape[:2], bool)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _radial_ks(q, active, rho, grid, Representation.MOMENTUM)
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / 2**20)
    finally:
        tracemalloc.stop()
    cached = sum(a.nbytes for a in grid.derived(_radial_order, Representation.MOMENTUM)) / 2**20
    assert cached <= 12.5, cached
    assert peaks[0] <= 26, peaks  # the first call builds the order
    assert peaks[1] <= 2, peaks  # a later call holds no array of the sub-cells' size


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sampling_stays_in_support_property(seed):
    grid = grid_1d(256, 40.0)
    phi = to_momentum(gaussian_state(grid, sigma=0.7, boost=1.0))
    samples = sample_momenta(phi, 200, seed=seed)
    p = grid.momenta(0)
    assert samples.min() >= p[0] - grid.dual_spacing(0)
    assert samples.max() <= p[-1] + grid.dual_spacing(0)
    # all samples land where the density is non-negligible
    rho = phi.density()
    cell = np.clip(((samples[:, 0] - p[0]) / grid.dual_spacing(0)).round().astype(int),
                   0, 255)
    assert rho[cell].min() > 1e-14 * rho.max()


# -- histograms and regions ---------------------------------------------------------


def test_rho_histogram_free_t0_all_mass_at_origin(grid_wide):
    psi = gaussian_state(grid_wide)
    frames = collect_frames(psi, Free(), PropagatorConfig(dt=1e-3, steps_per_frame=1), 1)
    p0 = sample_momenta(frames[0].psi_p, 2000, 0)
    hist = integrate_epstein(frames, Free(), p0)
    (edges,), density = rho_histogram(hist.x[0], bins=200, bounds=[(-40.0, 40.0)],
                                      active=np.ones(2000, bool))
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    occupied = density > 0
    assert np.abs(centers[occupied]).max() <= width  # only the origin bin(s)


def test_rho_histogram_change_of_variables(grid_wide):
    # at time t the position histogram is the momentum density mapped by x = p t / m
    psi = gaussian_state(grid_wide)
    t = 5.0
    frames = collect_frames(psi, Free(),
                            PropagatorConfig(dt=1e-3, steps_per_frame=1000), 5000)
    n = 20_000
    p0 = sample_momenta(frames[0].psi_p, n, 1)
    hist = integrate_epstein(frames, Free(), p0)
    bins = 100
    (edges,), density = rho_histogram(hist.x[-1], bins=bins, bounds=[(-40.0, 40.0)],
                                      active=np.ones(n, bool))
    centers = 0.5 * (edges[:-1] + edges[1:])
    rho_p = frames[-1].psi_p.density()
    p = grid_wide.momenta(0)
    mapped = np.interp(centers / t, p, rho_p) / t
    width = edges[1] - edges[0]
    l1 = np.sum(np.abs(density - mapped)) * width
    assert l1 <= 2 * np.sqrt(bins / n)


def test_macrostate_frequencies_single_packet():
    xs = np.full((500, 1), 3.2)
    freqs = macrostate_frequencies(xs, [region_1d("here", 3.0, 3.5)], np.ones(500, bool))
    assert freqs["here"] == {"frequency": 1.0, "stderr": 0.0}
    assert freqs["other"] == {"frequency": 0.0, "stderr": 0.0}


def test_macrostate_frequencies_binomial_se():
    xs = np.concatenate([np.full((640, 1), 1.0), np.full((360, 1), -1.0)])
    freqs = macrostate_frequencies(
        xs, [region_1d("plus", 0.5, 1.5), region_1d("minus", -1.5, -0.5)], np.ones(1000, bool)
    )
    assert freqs["plus"]["frequency"] == pytest.approx(0.64)
    assert freqs["plus"]["stderr"] == pytest.approx(np.sqrt(0.64 * 0.36 / 1000))
    total = sum(entry["frequency"] for entry in freqs.values())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_macrostate_overlapping_regions_rejected():
    xs = np.zeros((10, 1))
    with pytest.raises(ConfigurationError):
        macrostate_frequencies(
            xs, [region_1d("a", -1.0, 1.0), region_1d("b", 0.5, 2.0)], np.ones(10, bool)
        )


def test_region_2d_contains():
    reg = Region("box", ((0.0, 1.0), None))
    xs = np.array([[0.5, 99.0], [1.5, 0.0]])
    assert reg.contains(xs).tolist() == [True, False]


# -- moment checks ------------------------------------------------------------------


def test_grid_moments_match_analytic(grid512):
    x0, sigma = 1.5, 0.8
    psi = gaussian_state(grid512, sigma=sigma, center=x0)
    phi = to_momentum(psi)
    mean, std, mean2 = grid_moments(
        psi, phi, spectral_gradient(phi.values, grid512, Representation.MOMENTUM))[:3]
    assert mean[0] == pytest.approx(x0, abs=1e-9)
    assert std[0] == pytest.approx(sigma / np.sqrt(2), rel=1e-9)
    assert mean2[0] == pytest.approx(x0**2 + sigma**2 / 2, rel=1e-9)


def test_moment_checks_boosted_packet(grid512):
    x0 = 3.0
    psi = gaussian_state(grid512, sigma=1.0, center=x0)
    phi = to_momentum(psi)
    samples = sample_momenta(phi, 5000, seed=2)
    # positions of the flow at t=0 all equal the packet center
    xs = np.full((5000, 1), x0)
    rep = _moment_record(xs, psi, phi)
    assert rep["mean_ok"] and rep["std_ok"] and rep["identity_ok"]
    assert rep["mean_grid"][0] == pytest.approx(x0, abs=1e-9)
    assert rep["second_moment_identity_rel_err"] <= 1e-6
    assert rep["n_used"] == 5000
    del samples


@pytest.mark.parametrize("a", [0.0, 5.0])
def test_second_moment_identity_superposition(a):
    # identity must hold for fringed states too, at every valid-node handling
    grid = grid_1d(512, 45.0)
    sup = superposition_state(grid, a) if a else None
    psi = sup.field if sup else gaussian_state(grid)
    phi = to_momentum(psi)
    xs = np.zeros((1000, 1))
    rep = _moment_record(xs, psi, phi)
    assert rep["identity_ok"], rep["second_moment_identity_rel_err"]


def test_moment_checks_detect_displaced_ensemble(grid512):
    psi = gaussian_state(grid512, sigma=1.0)
    phi = to_momentum(psi)
    xs = np.full((5000, 1), 2.0)  # grossly displaced ensemble
    rep = _moment_record(xs, psi, phi)
    assert not rep["mean_ok"]


# -- equivariance through dynamics -----------------------------------------------------


def test_equivariance_linear_translation(grid512):
    pot = Linear(2.0)
    psi = gaussian_state(grid512, sigma=1.0)
    frames = collect_frames(psi, pot, PropagatorConfig(dt=1e-3, steps_per_frame=100), 1000)
    n = 10_000
    p0 = sample_momenta(frames[0].psi_p, n, seed=11)
    hist = integrate_epstein(frames, pot, p0)
    for f in (0, 5, 10):
        res = _equivariance(hist.p[f], frames[f].psi_p)["p0"]
        assert res["passed"], (f, res["statistic"], res["band"])
    # and the samples really did translate by -c t
    assert np.abs(hist.p[-1] - (p0 - 2.0 * 1.0)).max() <= 1e-8


# -- block checks ---------------------------------------------------------------------


def _block_case(grid):
    """Five frames (displaced, boosted packets) with their position and
    momentum fields on a frame axis, samples (5, 300, dof) and a mask that
    retires different rows in different frames, one row in frame 3 and every
    row in frame 4. Retired rows hold NaN or points far below the grid, which
    sort first where a mask is ignored."""
    dof = grid.dof
    psis = [gaussian_state(grid, sigma=1.0 + 0.1 * k, center=(0.3 * k,) * dof,
                           boost=(0.5 - 0.2 * k,) * dof) for k in range(5)]
    phis = [to_momentum(psi) for psi in psis]
    times = np.arange(5.0)
    psi_x, psi_p = (ComplexField(grid, fields[0].rep, np.stack([f.values for f in fields]), times)
                    for fields in (psis, phis))
    p = np.stack([sample_momenta(phi, 300, seed=k) for k, phi in enumerate(phis)])
    x = np.stack([sample_positions(psi, 300, seed=10 + k) for k, psi in enumerate(psis)])
    active = np.ones((5, 300), bool)
    active[1, :50] = False
    active[2, 100:250] = False
    active[3] = np.arange(300) == 7
    active[4] = False
    for q in (p, x):
        q[1, :50] = -1e3
        q[2, 100:250] = np.nan
    return psi_x, psi_p, p, x, active


@pytest.mark.parametrize("grid_name", ["grid512", "grid2d"])
def test_block_records_equal_single_frame_records(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    psi_x, psi_p, p, x, active = _block_case(grid)
    moments = grid_moments(psi_x, psi_p,
                           spectral_gradient(psi_p.values, grid, Representation.MOMENTUM))
    ks = equivariance_check(p, psi_p, active)
    mom = moment_checks(x, moments, active)
    assert len(ks) == len(mom) == 5
    assert ks[4] is None and mom[4] is None  # no active row: no record
    for f in range(4):
        assert list(ks[f]) == [f"p{a}" for a in range(grid.dof)] + ["radial"] * (grid.dof == 2)
        one = ComplexField(grid, psi_p.rep, psi_p.values[f:f + 1], psi_p.time[f:f + 1])
        moments_f = type(moments)(*(m[:, f:f + 1] for m in moments))
        # a block of one gives the same record, bit for bit
        assert equivariance_check(p[f:f + 1], one, active[f:f + 1]) == [ks[f]]
        assert moment_checks(x[f:f + 1], moments_f, active[f:f + 1]) == [mom[f]]
        # a retired row drops out as if its row were not there: the record equals
        # that of a block of one that holds only the active rows, all of them kept
        kept = active[f]
        assert equivariance_check(p[f][kept][None], one, _all_rows(p[f][kept])) == [ks[f]]
        assert moment_checks(x[f][kept][None], moments_f, _all_rows(x[f][kept])) == [mom[f]]
        assert mom[f]["n_used"] == kept.sum()
        assert all(r["band"] == ks_band(int(kept.sum())) for r in ks[f].values())
    one = ComplexField(grid, psi_p.rep, psi_p.values[4:5], psi_p.time[4:5])
    assert equivariance_check(p[4][active[4]][None], one, _all_rows(p[4][active[4]])) == [None]
