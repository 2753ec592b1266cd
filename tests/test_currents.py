import numpy as np
import pytest

from momtraj import (
    ComplexField,
    CurrentMethod,
    Free,
    Harmonic,
    Linear,
    Representation,
    continuity_residual,
    current_closed_form,
    current_for,
    current_poisson,
    interaction_source,
    to_momentum,
    to_position,
)
from momtraj.dynamics import PropagatorConfig, propagate
from momtraj.grid import spectral_gradient
from momtraj.states import gaussian_state, two_packet_momentum_state


def momentum_state(grid, sigma=1.0, x0=0.0, p0=0.0):
    """Analytic Gaussian in the momentum representation (complex when shifted)."""
    p = grid.momenta(0)
    hb = grid.hbar
    vals = (sigma**2 / (np.pi * hb**2)) ** 0.25 * np.exp(
        -((p - p0) ** 2) * sigma**2 / (2 * hb**2) - 1j * (p - p0) * x0 / hb
    )
    return ComplexField(grid, Representation.MOMENTUM, vals)


# -- closed forms -------------------------------------------------------------------


def test_free_current_is_zero(grid512):
    phi = momentum_state(grid512, x0=1.0, p0=0.5)
    j = current_closed_form(Free(), phi)
    assert np.all(j.components == 0)
    assert j.method is CurrentMethod.CLOSED_FORM


def test_linear_current_is_minus_c_density(grid512):
    c = 2.0
    phi = momentum_state(grid512)
    j = current_closed_form(Linear(c), phi)
    assert np.abs(j.components[0] + c * phi.density()).max() <= 1e-15


def test_harmonic_current_vanishes_for_real_profile(grid512):
    phi = momentum_state(grid512)  # real Gaussian: ground-state-like profile
    j = current_closed_form(Harmonic(1.0), phi)
    assert np.abs(j.components[0]).max() <= 1e-14


@pytest.mark.parametrize("pot", [Linear(2.0), Harmonic(1.0)])
def test_divergence_reproduces_source(grid512, pot):
    psi = gaussian_state(grid512, sigma=0.9, center=1.0, boost=-0.8)
    phi = to_momentum(psi)
    j = current_closed_form(pot, phi)
    src = interaction_source(pot, psi, phi)
    div = j.divergence()
    rel = np.linalg.norm(div - src) / np.linalg.norm(src)
    assert rel <= 1e-7


# -- Poisson route -------------------------------------------------------------------


def test_poisson_zero_source(grid512):
    j = current_poisson(np.zeros(512), grid512)
    assert np.all(j.components == 0)
    assert j.method is CurrentMethod.POISSON


@pytest.mark.parametrize("pot", [Linear(2.0), Harmonic(1.0)])
def test_poisson_equals_closed_form_1d(grid512, pot):
    psi = gaussian_state(grid512, sigma=1.0, center=1.2, boost=0.6)
    phi = to_momentum(psi)
    jc = current_closed_form(pot, phi)
    jp = current_poisson(interaction_source(pot, psi, phi), grid512)
    rel = np.linalg.norm(jp.components - jc.components) / np.linalg.norm(jc.components)
    assert rel <= 1e-6


def test_poisson_current_vanishes_at_edges(grid512):
    psi = gaussian_state(grid512, sigma=1.0, boost=1.0)
    phi = to_momentum(psi)
    jp = current_poisson(interaction_source(Linear(2.0), psi, phi), grid512)
    edge = np.r_[jp.components[0][:3], jp.components[0][-3:]]
    assert np.abs(edge).max() <= 1e-12 * np.abs(jp.components[0]).max()


def test_poisson_divergence_reproduces_source_2d(grid2d):
    psi = gaussian_state(grid2d, sigma=1.0, center=(0.5, 0.0), boost=(0.0, 1.0))
    phi = to_momentum(psi)
    pot = Harmonic((1.0, 2.25))
    src = interaction_source(pot, psi, phi)
    jp = current_poisson(src, grid2d)
    div = jp.divergence()
    rel = np.linalg.norm(div - src) / np.linalg.norm(src)
    assert rel <= 1e-7


def test_poisson_2d_is_curl_free(grid2d):
    psi = gaussian_state(grid2d, sigma=1.0, boost=(1.0, -0.5))
    phi = to_momentum(psi)
    src = interaction_source(Harmonic((1.0, 1.0)), psi, phi)
    jp = current_poisson(src, grid2d)
    d0 = spectral_gradient(jp.components[1], grid2d, Representation.MOMENTUM)[0]
    d1 = spectral_gradient(jp.components[0], grid2d, Representation.MOMENTUM)[1]
    curl = d0 - d1
    assert np.abs(curl).max() <= 1e-10 * max(np.abs(jp.components).max(), 1e-30)


def test_closed_form_divergence_matches_source_2d(grid2d):
    psi = gaussian_state(grid2d, sigma=1.0, center=(1.0, -0.5), boost=(0.5, 0.5))
    phi = to_momentum(psi)
    pot = Linear((2.0, -1.0))
    j = current_closed_form(pot, phi)
    src = interaction_source(pot, psi, phi)
    rel = np.linalg.norm(j.divergence() - src) / np.linalg.norm(src)
    assert rel <= 1e-7


def test_current_for_dispatch(grid512):
    psi = gaussian_state(grid512, boost=0.5)
    phi = to_momentum(psi)
    jc = current_for(Linear(1.0), psi, phi, CurrentMethod.CLOSED_FORM)
    jp = current_for(Linear(1.0), psi, phi, CurrentMethod.POISSON)
    assert jc.method is CurrentMethod.CLOSED_FORM and jc.source is None
    assert jp.method is CurrentMethod.POISSON
    # the Poisson route keeps the source it solves for, read-only
    src = interaction_source(Linear(1.0), psi, phi)
    assert jp.source.tobytes() == src.tobytes() and not jp.source.flags.writeable
    assert jp.components.tobytes() == current_poisson(src, grid512).components.tobytes()


# -- continuity residual ---------------------------------------------------------------


def test_continuity_free_particle(grid512):
    # I and j both vanish under a zero potential: the residual compares nothing
    phi = to_momentum(gaussian_state(grid512))
    src = interaction_source(Free(), to_position(phi), phi)
    resid, div_norm = continuity_residual(src, current_closed_form(Free(), phi))
    assert resid == 0.0 and div_norm == 0.0


@pytest.mark.parametrize(
    "pot,state_kw",
    [
        (Harmonic(1.0), {"sigma": 1.0, "center": 2.0}),
        (Linear(2.0), {"sigma": 1.0}),
    ],
)
def test_continuity_residual_second_order(grid512, pot, state_kw):
    # ||div j - I|| / ||div j|| of the closed form at a propagated frame: 6.2e-12
    # (Harmonic) and 7.9e-13 (Linear) measured, far below the verdict's 1e-4
    psi = gaussian_state(grid512, **state_kw)
    cfg = PropagatorConfig(dt=1e-3, steps_per_frame=100)
    frame = propagate(psi, pot, cfg, 300)
    src = interaction_source(pot, frame.psi_x, frame.psi_p)
    resid, div_norm = continuity_residual(src, current_closed_form(pot, frame.psi_p))
    assert resid <= 1e-10 and div_norm > 0.0


# -- branch decomposition ------------------------------------------------------------------


def test_two_packet_free_potential_trivially_collapsed(grid512):
    # zero potential: zero current, momenta frozen, each branch evolves alone
    state = two_packet_momentum_state(grid512, delta_p=18.0)
    phi = to_momentum(state.field)
    j = current_closed_form(Free(), phi)
    assert np.all(j.components == 0)
    branch = to_momentum(state.branches[0])
    supp = np.abs(branch.values) >= 1e-5 * np.abs(branch.values).max()
    from momtraj import local_position_field

    xf_full, xf_branch = (local_position_field(
        f, spectral_gradient(f.values, grid512, Representation.MOMENTUM)) for f in (phi, branch))
    diff = np.abs(xf_full.components[0] - xf_branch.components[0])
    assert diff[supp & xf_full.valid].max() <= 1e-8


def test_two_packet_current_decomposes_branchwise(grid512):
    # branches carry position shifts so their currents are nonzero
    dp = 18.0
    p = grid512.momenta(0)
    hb = grid512.hbar
    g = lambda c, x0: (1.0 / np.pi) ** 0.25 * np.exp(
        -((p - c) ** 2) / 2 - 1j * (p - c) * x0 / hb
    )
    b1 = g(dp / 2, 1.5)
    b2 = g(-dp / 2, -1.5)
    full = ComplexField(grid512, Representation.MOMENTUM, (b1 + b2) / np.sqrt(2))
    branch = ComplexField(grid512, Representation.MOMENTUM, b1)
    pot = Harmonic(1.0)
    j_full = current_closed_form(pot, full).components[0]
    j_branch = 0.5 * current_closed_form(pot, branch).components[0]

    amp = np.abs(full.values)
    silent = amp < 1e-10 * amp.max()
    gap = silent & (np.abs(p) < dp / 2)
    assert gap.sum() >= 10

    supp = np.abs(branch.values) >= 1e-5 * np.abs(branch.values).max()
    rel = np.linalg.norm((j_full - j_branch)[supp]) / np.linalg.norm(j_branch[supp])
    assert rel <= 1e-6
