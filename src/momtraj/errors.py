"""Exception types shared across the engine."""


class SimulationError(Exception):
    """Base class for all engine errors."""


class ConfigurationError(SimulationError):
    """Invalid grid, scenario, or run configuration."""


class NormalizationError(ConfigurationError):
    """State norm deviates from 1 beyond the allowed tolerance."""


class IllPosedSourceError(SimulationError):
    """Inverse Laplacian applied to a source with a nonzero grid integral."""


class BoundaryMassError(SimulationError):
    """Probability mass reached the grid boundary during a run."""
