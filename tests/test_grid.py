import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momtraj import (
    ComplexField,
    ConfigurationError,
    CurrentField,
    CurrentMethod,
    GridAxis,
    IllPosedSourceError,
    Representation,
    boundary_mass_fraction,
    grid_1d,
    grid_2d,
    local_position_field,
    spectral_gradient,
    spectral_inverse_laplacian,
    to_momentum,
    to_position,
)
from momtraj.grid import _k_squared, _wavenumbers, spectral_laplacian
from momtraj.output import read_field_csv, write_field_csv
from momtraj.states import gaussian_state


def analytic_gaussian_x(x, sigma=1.0, x0=0.0, p0=0.0, hbar=1.0):
    """Normalized Gaussian packet, the position-space reference."""
    return (np.pi * sigma**2) ** -0.25 * np.exp(
        -((x - x0) ** 2) / (2 * sigma**2) + 1j * p0 * x / hbar
    )


def analytic_gaussian_p(p, sigma=1.0, x0=0.0, p0=0.0, hbar=1.0):
    """Closed-form transform of analytic_gaussian_x (shift and boost theorems)."""
    return (sigma**2 / (np.pi * hbar**2)) ** 0.25 * np.exp(
        -((p - p0) ** 2) * sigma**2 / (2 * hbar**2) - 1j * (p - p0) * x0 / hbar
    )


# -- grid construction ------------------------------------------------------------


def test_dual_spacing_identity(grid512):
    n = grid512.axes[0].points
    dx = grid512.spacing(0)
    dp = grid512.dual_spacing(0)
    target = 2 * np.pi * grid512.hbar / dx
    assert abs(dp * n - target) <= 4 * math.ulp(target)


@pytest.mark.parametrize("points", [63, 100, 96, 32])
def test_rejects_bad_point_counts(points):
    with pytest.raises(ConfigurationError):
        GridAxis(points, 10.0)


def test_rejects_nonpositive_extent():
    with pytest.raises(ConfigurationError):
        GridAxis(128, 0.0)


def test_rejects_three_dof():
    with pytest.raises(ConfigurationError):
        grid_2d(128, 10.0).__class__(axes=(GridAxis(64, 1.0),) * 3)


def test_cached_grid_properties_keep_field_equality():
    a, b = grid_2d(128, 10.0, points2=64), grid_2d(128, 10.0, points2=64)
    assert (a.dof, a.shape, a.size) == (2, (128, 64), 128 * 64)
    assert a.shape is a.shape  # computed once
    assert a == b and hash(a) == hash(b)  # b has computed nothing yet
    assert a != grid_2d(128, 10.0, points2=128)


# -- transform pair ----------------------------------------------------------------


def test_gaussian_transform_matches_closed_form(grid512):
    x = grid512.positions(0)
    psi = ComplexField(grid512, Representation.POSITION, analytic_gaussian_x(x))
    phi = to_momentum(psi)
    expected = analytic_gaussian_p(grid512.momenta(0))
    assert np.abs(phi.values - expected).max() <= 1e-8


def test_round_trip_identity(grid512):
    x = grid512.positions(0)
    psi = ComplexField(grid512, Representation.POSITION,
                       analytic_gaussian_x(x, sigma=1.3, x0=0.7, p0=-1.1))
    back = to_position(to_momentum(psi))
    assert np.abs(back.values - psi.values).max() <= 1e-12


def test_plancherel(grid512):
    psi = gaussian_state(grid512, sigma=0.8, center=1.0, boost=2.0)
    phi = to_momentum(psi)
    assert abs(phi.norm() - psi.norm()) <= 1e-12


def test_zero_field_transforms_to_zero(grid512):
    zero = ComplexField(grid512, Representation.MOMENTUM, np.zeros(512))
    out = to_position(zero)
    assert np.all(out.values == 0)


def test_minimal_uncertainty_pair(grid512):
    # narrow momentum Gaussian -> wide position Gaussian with std product hbar/2
    sigma = 2.5
    psi = gaussian_state(grid512, sigma=sigma)
    phi = to_momentum(psi)
    x = grid512.positions(0)
    p = grid512.momenta(0)
    dx = grid512.spacing(0)
    dp = grid512.dual_spacing(0)
    std_x = np.sqrt(np.sum(x**2 * psi.density()) * dx)
    std_p = np.sqrt(np.sum(p**2 * phi.density()) * dp)
    assert std_x == pytest.approx(sigma / np.sqrt(2), rel=1e-9)
    assert std_x * std_p == pytest.approx(grid512.hbar / 2, rel=1e-9)


def test_transform_rejects_wrong_representation(grid512):
    psi = gaussian_state(grid512)
    with pytest.raises(ConfigurationError):
        to_position(psi)
    with pytest.raises(ConfigurationError):
        to_momentum(to_momentum(psi))


def test_2d_transform_is_tensor_product(grid2d):
    g1 = grid_1d(128, 40.0)
    a = analytic_gaussian_x(g1.positions(0), sigma=1.0, x0=0.5)
    b = analytic_gaussian_x(g1.positions(0), sigma=1.4, p0=1.0)
    psi2 = ComplexField(grid2d, Representation.POSITION, np.outer(a, b))
    phi2 = to_momentum(psi2)
    fa = to_momentum(ComplexField(g1, Representation.POSITION, a)).values
    fb = to_momentum(ComplexField(g1, Representation.POSITION, b)).values
    assert np.abs(phi2.values - np.outer(fa, fb)).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    sigma=st.floats(0.5, 2.0),
    x0=st.floats(-3.0, 3.0),
    p0=st.floats(-3.0, 3.0),
)
def test_plancherel_and_round_trip_property(sigma, x0, p0):
    grid = grid_1d(256, 40.0)
    x = grid.positions(0)
    psi = ComplexField(grid, Representation.POSITION,
                       analytic_gaussian_x(x, sigma, x0, p0))
    phi = to_momentum(psi)
    assert abs(phi.norm() - psi.norm()) <= 1e-12
    back = to_position(phi)
    assert np.abs(back.values - psi.values).max() <= 1e-12


# -- local position field -----------------------------------------------------------


def test_position_field_free_drift(grid_wide):
    # exact free evolution applied by hand: the readout must equal p t / m
    t, mass = 5.0, 1.0
    p = grid_wide.momenta(0)
    phi0 = analytic_gaussian_p(p)
    phi_t = ComplexField(
        grid_wide, Representation.MOMENTUM,
        phi0 * np.exp(-1j * p**2 * t / (2 * mass * grid_wide.hbar)), time=t,
    )
    xf = local_position_field(phi_t, spectral_gradient(phi_t.values, grid_wide,
                                                       Representation.MOMENTUM))
    sampled = np.abs(p) < 3.2
    err = np.abs(xf.components[0] - p * t / mass)
    assert err[sampled & xf.valid].max() <= 1e-8


def test_position_field_zero_for_real_profile(grid512):
    phi = ComplexField(grid512, Representation.MOMENTUM,
                       analytic_gaussian_p(grid512.momenta(0)))
    xf = local_position_field(phi, spectral_gradient(phi.values, grid512, Representation.MOMENTUM))
    assert np.abs(xf.components[0][xf.valid]).max() <= 1e-9


def test_position_field_shift_theorem(grid512):
    x0 = 3.0
    p = grid512.momenta(0)
    phi = ComplexField(grid512, Representation.MOMENTUM,
                       analytic_gaussian_p(p) * np.exp(-1j * p * x0 / grid512.hbar))
    xf = local_position_field(phi, spectral_gradient(phi.values, grid512, Representation.MOMENTUM))
    core = np.abs(p) < 3.0
    assert np.abs(xf.components[0][core] - x0).max() <= 1e-9


def test_position_field_global_phase_invariance(grid512):
    p = grid512.momenta(0)
    base = analytic_gaussian_p(p, x0=1.0, p0=0.5)
    a, b = (local_position_field(ComplexField(grid512, Representation.MOMENTUM, vals),
                                 spectral_gradient(vals, grid512, Representation.MOMENTUM))
            for vals in (base, base * np.exp(1j * 0.7312)))
    assert np.array_equal(a.valid, b.valid)
    core = np.abs(p) < 4.0
    assert np.abs(a.components - b.components)[0][core].max() <= 1e-10


def test_position_field_flags_nodes(grid512):
    vals = analytic_gaussian_p(grid512.momenta(0))
    vals = vals.copy()
    vals[254:258] = 0.0  # punch a hole at the packet core
    xf = local_position_field(ComplexField(grid512, Representation.MOMENTUM, vals),
                              spectral_gradient(vals, grid512, Representation.MOMENTUM))
    assert not xf.valid[254:258].any()
    assert xf.valid[247]


def test_position_field_requires_momentum_rep(grid512):
    psi = gaussian_state(grid512)
    with pytest.raises(ConfigurationError):
        local_position_field(psi, spectral_gradient(psi.values, grid512, psi.rep))


# -- spectral calculus ----------------------------------------------------------------


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@pytest.mark.parametrize("cls", [ComplexField, CurrentField])
def test_fields_adopt_only_values_nothing_else_can_change(grid512, cls):
    # a read-only owned array, or a read-only view of one, is adopted; a
    # writable array, a read-only view of a writable base or a wrong dtype is
    # copied; the field's values are read-only either way
    dtype = complex if cls is ComplexField else float

    def values_of(arr):
        if cls is ComplexField:
            out = ComplexField(grid512, Representation.MOMENTUM, arr).values
        else:
            out = CurrentField(grid512, arr, CurrentMethod.CLOSED_FORM).components
        assert not out.flags.writeable
        return out

    shape = (3, 512) if cls is ComplexField else (1, 3, 512)
    owned = _read_only(np.ones(shape, dtype))
    assert values_of(owned) is owned
    assert np.shares_memory(values_of(owned[..., 1:, :]), owned)
    for copied in (np.ones(shape, dtype), _read_only(np.ones(shape, dtype)[:]),
                   _read_only(np.ones(shape, np.int64))):
        assert not np.shares_memory(values_of(copied), copied)


def test_inverse_laplacian_eigenfunction(grid512):
    p = grid512.momenta(0)
    length = grid512.axes[0].points * grid512.dual_spacing(0)
    k = 2 * np.pi * 3 / length  # commensurate mode
    f = np.sin(k * p)
    out = spectral_inverse_laplacian(f, grid512, Representation.MOMENTUM)
    assert np.abs(out - (-f / k**2)).max() <= 1e-12


def test_inverse_laplacian_zero_source(grid512):
    out = spectral_inverse_laplacian(np.zeros(512), grid512, Representation.MOMENTUM)
    assert np.all(out == 0)


def test_inverse_laplacian_rejects_net_source(grid512):
    f = np.ones(512)
    with pytest.raises(IllPosedSourceError):
        spectral_inverse_laplacian(f, grid512, Representation.MOMENTUM)


def test_inverse_laplacian_left_inverse(grid512):
    # laplacian(inverse_laplacian(f)) = f - mean(f) on band-limited input
    p = grid512.momenta(0)
    rho = analytic_gaussian_p(p).real ** 2
    f = np.real(spectral_gradient(rho, grid512, Representation.MOMENTUM)[0])
    out = spectral_inverse_laplacian(f, grid512, Representation.MOMENTUM)
    lap = spectral_laplacian(out, grid512, Representation.MOMENTUM)
    target = f - f.mean()
    assert np.abs(lap - target).max() <= 1e-9 * max(1.0, np.abs(f).max())


def test_k_squared_equals_a_fresh_build_on_each_grid():
    # grids that differ only in spacing, called in turn, each get their own
    # wavenumbers and k^2; the spectral operators give the same bits as with a
    # k^2 built on the spot
    grids = [grid_1d(512, 40.0), grid_1d(512, 80.0), grid_2d(64, 20.0, 128, 10.0),
             grid_1d(512, 40.0)]
    rng = np.random.default_rng(3)
    for grid in grids:
        for rep in Representation:
            want = np.zeros(grid.shape)
            for a, ax in enumerate(grid.axes):
                w = 2.0 * np.pi * np.fft.fftfreq(ax.points, d=grid.step(rep, a))
                shape = [1] * grid.dof
                shape[a] = len(w)
                got = _wavenumbers(grid, rep, a)
                assert got.shape == tuple(shape) and got.tobytes() == w.tobytes()
                want = want + (w**2).reshape(shape)
            k2 = _k_squared(grid, rep)
            assert k2.tobytes() == want.tobytes()
            f = rng.normal(size=grid.shape)
            f -= f.mean()
            lap = np.fft.ifftn(-want * np.fft.fftn(f)).real
            assert spectral_laplacian(f, grid, rep).tobytes() == lap.tobytes()
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.fft.ifftn(np.where(want > 0.0, -np.fft.fftn(f) / want, 0.0)).real
            assert spectral_inverse_laplacian(f, grid, rep).tobytes() == inv.tobytes()


def test_gradient_of_constant_vanishes(grid512):
    g = spectral_gradient(np.full(512, 2.5), grid512, Representation.MOMENTUM)
    assert np.abs(g).max() <= 1e-12


def test_gradient_of_density_integrates_to_zero(grid512):
    phi = to_momentum(gaussian_state(grid512, sigma=0.9, boost=1.5))
    g = spectral_gradient(phi.density(), grid512, Representation.MOMENTUM)
    total = abs(np.sum(g[0]) * grid512.dual_spacing(0))
    assert total <= 1e-10


def test_gradient_2d_shape_and_axis(grid2d):
    p0, p1 = grid2d.mesh(Representation.MOMENTUM)
    length0 = grid2d.axes[0].points * grid2d.dual_spacing(0)
    k = 2 * np.pi * 2 / length0
    f = np.sin(k * p0) * np.ones_like(p1)
    g = spectral_gradient(f, grid2d, Representation.MOMENTUM)
    assert g.shape == (2, 128, 128)
    assert np.abs(g[0] - k * np.cos(k * p0)).max() <= 1e-10
    assert np.abs(g[1]).max() <= 1e-12


# -- diagnostics and export -------------------------------------------------------------


def test_boundary_mass_detects_edge_packet():
    grid = grid_1d(128, 20.0)
    centered = gaussian_state(grid, sigma=1.0)
    shifted = gaussian_state(grid, sigma=1.0, center=9.0)
    assert boundary_mass_fraction(centered) <= 1e-12
    assert boundary_mass_fraction(shifted) > 1e-3


def test_field_shape_mismatch_rejected(grid512):
    with pytest.raises(ConfigurationError):
        ComplexField(grid512, Representation.POSITION, np.zeros(100))


def test_field_values_immutable(grid512):
    psi = gaussian_state(grid512)
    with pytest.raises(ValueError):
        psi.values[0] = 1.0


def test_field_csv_round_trip(tmp_path, grid512):
    psi = gaussian_state(grid512, sigma=1.1, boost=0.3)
    path = write_field_csv(psi, tmp_path / "field.csv")
    header = path.read_text().splitlines()[0]
    assert header == "axis0,re,im"
    back = read_field_csv(path, grid512, Representation.POSITION)
    assert np.array_equal(back.values, psi.values)


def test_field_csv_2d_header(tmp_path, grid2d, plain_csv):
    psi = gaussian_state(grid2d)
    values = psi.values.copy()
    values[0, :3] = (complex(np.nan, -0.0), complex(3e-7, 2e16), complex(np.inf, -np.inf))
    psi = psi.with_values(values)
    path = write_field_csv(psi, tmp_path / "field2.csv")
    assert path.read_text().splitlines()[0] == "axis0,axis1,re,im"
    # 128 x 128 rows: four blocks of the writer, compared byte for byte
    axes = [grid2d.axis_points(Representation.POSITION, a).tolist() for a in range(2)]
    rows = [(a0, a1, v.real, v.imag)
            for a0, line in zip(axes[0], psi.values.tolist()) for a1, v in zip(axes[1], line)]
    assert path.read_text() == plain_csv(["axis0", "axis1", "re", "im"], rows)
