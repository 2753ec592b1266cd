import typing

import numpy as np
import pytest

from momtraj import (
    ComplexField,
    ConfigurationError,
    Free,
    Harmonic,
    Linear,
    Potential,
    Representation,
    apply_potential,
    current_closed_form,
    evaluate_potential,
    interaction_source,
    interaction_source_operator,
    to_momentum,
    to_position,
)
from momtraj.dynamics import PropagatorConfig, propagate
from momtraj.grid import grid_1d, spectral_gradient
from momtraj.states import gaussian_state


def kinetic_apply(psi_x, mass=1.0):
    """(-hbar^2/2m) laplacian psi via the momentum representation."""
    phi = to_momentum(psi_x)
    p = phi.grid.momenta(0)
    return to_position(phi.with_values(p**2 / (2 * mass) * phi.values)).values


def test_harmonic_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        Harmonic(-1.0, 1.0)
    with pytest.raises(ConfigurationError):
        Harmonic(1.0, 0.0)


# -- apply_potential -----------------------------------------------------------------


def test_apply_free_is_zero(grid512):
    psi = gaussian_state(grid512)
    out = apply_potential(Free(), psi)
    assert np.all(out.values == 0)


def test_apply_linear_pointwise(grid512):
    psi = gaussian_state(grid512)
    out = apply_potential(Linear(2.0), psi)
    x = grid512.positions(0)
    assert np.array_equal(out.values, 2.0 * x * psi.values)


def test_apply_harmonic_pointwise(grid512):
    psi = gaussian_state(grid512)
    out = apply_potential(Harmonic(1.0, 1.0), psi)
    x = grid512.positions(0)
    assert np.abs(out.values - 0.5 * x**2 * psi.values).max() <= 1e-15


def test_harmonic_ground_state_eigenvalue(grid512):
    # (T + V) psi0 = (hbar w / 2) psi0 for the m = w = 1 oscillator
    psi0 = gaussian_state(grid512, sigma=1.0)
    h_psi = kinetic_apply(psi0) + apply_potential(Harmonic(1.0, 1.0), psi0).values
    assert np.abs(h_psi - 0.5 * psi0.values).max() <= 1e-8


def test_apply_requires_position_rep(grid512):
    phi = to_momentum(gaussian_state(grid512))
    with pytest.raises(ConfigurationError):
        apply_potential(Linear(1.0), phi)


def test_evaluate_2d_harmonic(grid2d):
    v = evaluate_potential(Harmonic((1.0, 2.0), (1.0, 0.5)), grid2d)
    x0, x1 = grid2d.mesh(Representation.POSITION)
    expected = 0.5 * x0**2 + 0.5 * 2.0 * 0.25 * x1**2
    assert np.abs(v - expected).max() <= 1e-12


# -- interaction source ------------------------------------------------------------------


def test_source_free_is_zero(grid512):
    psi = gaussian_state(grid512)
    src = interaction_source(Free(), psi, to_momentum(psi))
    assert np.abs(src).max() <= 1e-15


def test_source_linear_matches_density_gradient(grid512):
    c = 2.0
    psi = gaussian_state(grid512, sigma=0.9, boost=1.0)
    phi = to_momentum(psi)
    src = interaction_source(Linear(c), psi, phi)
    drho = np.real(spectral_gradient(phi.density(), grid512, Representation.MOMENTUM)[0])
    assert np.abs(src + c * drho).max() <= 1e-9


def test_source_is_real_and_balanced(grid512):
    psi = gaussian_state(grid512, sigma=1.2, center=1.0, boost=-0.5)
    phi = to_momentum(psi)
    for pot in (Linear(2.0), Harmonic(1.0, 1.0)):
        src = interaction_source(pot, psi, phi)
        assert np.isrealobj(src)
        vol = grid512.dual_spacing(0)
        assert abs(np.sum(src) * vol) <= 1e-8 * np.sum(np.abs(src)) * vol


def test_source_operator_route_agrees(grid512):
    # one instance per member of the Potential alias: a potential added without a
    # momentum operator form or a closed-form current fails here
    pots = (Free(), Linear(1.3), Harmonic(1.0, 1.2))
    assert tuple(type(pot) for pot in pots) == typing.get_args(Potential)
    psi = gaussian_state(grid512, sigma=0.8, center=1.5, boost=0.7)
    phi = to_momentum(psi)
    for pot in pots:
        a = interaction_source(pot, psi, phi)
        b = interaction_source_operator(pot, phi)
        scale = max(np.abs(a).max(), 1e-30)
        assert np.abs(a - b).max() <= 1e-8 * scale
        j = current_closed_form(pot, phi).components
        assert j.shape == (grid512.dof,) + grid512.shape and np.all(np.isfinite(j))


def test_source_operator_route_agrees_2d(grid2d):
    psi = gaussian_state(grid2d, sigma=1.0, center=(0.5, -0.5), boost=(1.0, 0.0))
    phi = to_momentum(psi)
    for pot in (Linear((1.0, -2.0)), Harmonic((1.0, 1.0), (1.0, 2.0))):
        a = interaction_source(pot, psi, phi)
        b = interaction_source_operator(pot, phi)
        assert np.abs(a - b).max() <= 1e-8 * np.abs(a).max()


def test_source_rejects_mismatched_time_stamps(grid512):
    psi = gaussian_state(grid512)
    phi = ComplexField(grid512, Representation.MOMENTUM, to_momentum(psi).values, 1.0)
    with pytest.raises(ConfigurationError, match="time stamps"):
        interaction_source(Linear(1.0), psi, phi)


def test_source_continuity_finite_difference_oracle(grid512):
    # (|psi~(t+d)|^2 - |psi~(t-d)|^2) / 2d + I  ->  O(d^2)
    for pot in (Linear(2.0), Harmonic(1.0, 1.0)):
        psi = gaussian_state(grid512, sigma=1.0, center=1.0)
        delta = 1e-3
        cfg = PropagatorConfig(dt=delta, steps_per_frame=1)
        after = propagate(to_momentum(psi), pot, cfg, 1).psi_p
        mid = propagate(to_momentum(psi), pot,
                        PropagatorConfig(dt=delta / 2, steps_per_frame=1), 1)
        src = interaction_source(pot, mid.psi_x, mid.psi_p)
        fd = (after.density() - to_momentum(psi).density()) / delta
        resid = np.linalg.norm(fd + src) / np.linalg.norm(src)
        assert resid <= 1e-4

