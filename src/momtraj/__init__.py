"""Momentum-space quantum trajectory engine with a guidance-law reference model."""

__version__ = "0.1.0"

from .currents import (
    CurrentField,
    CurrentMethod,
    continuity_residual,
    current_closed_form,
    current_for,
    current_poisson,
)
from .dynamics import Frame, PropagatorConfig, collect_frames, propagate, total_energy
from .ensemble import (
    Ensemble,
    Region,
    equivariance_check,
    ks_band,
    ks_statistic,
    macrostate_frequencies,
    moment_checks,
    region_1d,
    rho_histogram,
    sample_momenta,
    sample_positions,
)
from .errors import (
    BoundaryMassError,
    ConfigurationError,
    IllPosedSourceError,
    NormalizationError,
    SimulationError,
    UnsupportedPotentialError,
)
from .grid import (
    ComplexField,
    GridAxis,
    GridSpec,
    MaskedVectorField,
    Representation,
    boundary_mass_fraction,
    grid_1d,
    grid_2d,
    local_position_field,
    spectral_divergence,
    spectral_gradient,
    spectral_inverse_laplacian,
    to_momentum,
    to_position,
)
from .potentials import (
    Free,
    Harmonic,
    Linear,
    Potential,
    Tabulated,
    apply_potential,
    apply_potential_momentum_operator,
    evaluate_potential,
    has_operator_form,
    interaction_source,
    interaction_source_operator,
    load_tabulated_csv,
)
from .scenarios import (
    SCENARIOS,
    RunResult,
    ScenarioConfig,
    Verdict,
    coverage_manifest,
    default_config,
    run_scenario,
)
from .states import (
    coherent_state,
    gaussian_state,
    measurement_state,
    superposition_state,
    two_packet_momentum_state,
)
from .trajectories import (
    EnsembleHistory,
    TrajStatus,
    integrate_dbb,
    integrate_epstein,
    interpolate_masked,
    velocity_field_dbb,
    velocity_from_current,
)
