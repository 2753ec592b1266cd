"""Built-in experiment catalog: configuration, runner, and verdicts.

Each scenario propagates a prepared state, integrates trajectory ensembles
over the emitted frames, evaluates the statistical suite at every frame as
the trajectories reach it, and returns machine-checkable verdicts. Verdicts
are deterministic given (config, seed).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .currents import CurrentField, CurrentMethod, continuity_residual, current_for
from .dynamics import Frame, PropagatorConfig, _step_phases, collect_frames, continuity_probe
from .ensemble import (
    Ensemble,
    MomentReport,
    Region,
    equivariance_check,
    ks_band,
    macrostate_frequencies,
    moment_checks,
    region_1d,
    rho_histogram,
    sample_momenta,
    sample_positions,
)
from .errors import ConfigurationError
from .grid import GridSpec, boundary_mass_fraction, grid_1d, grid_2d
from .potentials import Free, Harmonic, Linear, Potential
from .states import (
    gaussian_state,
    measurement_state,
    superposition_state,
    two_packet_momentum_state,
)
from .trajectories import (
    EnsembleHistory,
    FrameFields,
    TrajStatus,
    integrate_dbb,
    integrate_epstein,
    interpolate_masked,
)

MODELS = ("epstein", "both")  # "both" adds the guidance-law ensemble
CURRENTS = {"closed": CurrentMethod.CLOSED_FORM, "poisson": CurrentMethod.POISSON}


@dataclass
class ScenarioConfig:
    """Flat configuration for every built-in scenario; unused fields are ignored."""

    name: str = "free-particle"
    n_samples: int = 10_000
    seed: int = 0
    grid_points: int = 512
    grid_extent: float = 40.0
    grid_points2: int = 0        # 0: same as grid_points (2-dof scenarios only)
    grid_extent2: float = 0.0    # 0: same as grid_extent
    dt: float = 1e-3
    steps_per_frame: int = 10
    t_final: float = 1.0
    sigma: float = 1.0
    sigma_env: float = 1.0
    a: float = 5.0
    dpe: float = 12.0
    c1_sq: float = 0.5
    delta_p: float = 18.0
    displacement: float = 2.0
    linear_coeff: float = 2.0
    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    model: str = "epstein"
    current: str = "closed"
    histogram_bins: int = 200
    traj_csv_limit: int = 200

    def validate(self) -> None:
        for name, value in self.as_dict().items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.model not in MODELS:
            raise ConfigurationError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.current not in CURRENTS:
            raise ConfigurationError(f"current must be one of {tuple(CURRENTS)}, got {self.current!r}")
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if self.histogram_bins < 1:
            raise ConfigurationError(f"histogram_bins must be >= 1, got {self.histogram_bins}")
        if self.traj_csv_limit < 0:
            raise ConfigurationError(f"traj_csv_limit must be >= 0, got {self.traj_csv_limit}")
        if self.steps_per_frame < 1:
            raise ConfigurationError("steps_per_frame must be >= 1")
        if self.n_steps() % self.steps_per_frame:
            raise ConfigurationError(
                f"frames must be evenly spaced: steps_per_frame={self.steps_per_frame} "
                f"does not divide the run's {self.n_steps()} steps"
            )
        if not (self.sigma > 0 and self.sigma_env > 0):
            raise ConfigurationError("packet widths sigma and sigma_env must be positive")
        if not 0.0 <= self.c1_sq <= 1.0:
            raise ConfigurationError(f"c1_sq must lie in [0, 1], got {self.c1_sq}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def n_steps(self) -> int:
        if not (0 < self.t_final < math.inf and 0 < self.dt < math.inf):
            raise ConfigurationError("t_final and dt must be positive and finite")
        steps = int(round(self.t_final / self.dt))
        if abs(steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ConfigurationError("t_final must be an integer multiple of dt")
        return steps

    def n_frames(self) -> int:
        """Frames a run emits: the initial one plus one per frame interval."""
        return 1 + self.n_steps() // self.steps_per_frame


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    measured: float
    tolerance: float
    claim: str
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "tolerance", float(self.tolerance))


@dataclass
class RunResult:
    config: ScenarioConfig
    current: CurrentField  # the configured current at the last frame
    frames: list[Frame]
    ensembles: dict[str, Ensemble]
    stats_rows: list[dict]
    verdicts: list[Verdict]
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# -- shared runner pieces -----------------------------------------------------------


def _grid_for(config: ScenarioConfig, dof: int) -> GridSpec:
    if dof == 1:
        return grid_1d(config.grid_points, config.grid_extent, hbar=config.hbar)
    return grid_2d(
        config.grid_points,
        config.grid_extent,
        config.grid_points2 or None,
        config.grid_extent2 or None,
        hbar=config.hbar,
    )


def _propagator(config: ScenarioConfig) -> PropagatorConfig:
    return PropagatorConfig(dt=config.dt, steps_per_frame=config.steps_per_frame)


def _run_epstein(
    frames: list[Frame], potential: Potential, config: ScenarioConfig,
    on_frame: Callable[[FrameFields, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> Ensemble:
    p0 = sample_momenta(frames[0].psi_p, config.n_samples, config.seed)
    return Ensemble(integrate_epstein(frames, potential, p0, CURRENTS[config.current],
                                      on_frame=on_frame))


def _run_dbb(frames: list[Frame], config: ScenarioConfig) -> Ensemble:
    x0 = sample_positions(frames[0].psi_x, config.n_samples, config.seed)
    return Ensemble(integrate_dbb(frames, x0, config.mass, config.steps_per_frame))


def _moments_to_row(rep: MomentReport) -> dict:
    return {
        "mean_sample": rep.mean_sample.tolist(),
        "mean_grid": rep.mean_grid.tolist(),
        "mean_band": rep.mean_band.tolist(),
        "mean_ok": rep.mean_ok,
        "std_sample": rep.std_sample.tolist(),
        "std_grid": rep.std_grid.tolist(),
        "std_bound": rep.std_bound.tolist(),
        "std_ok": rep.std_ok,
        "second_moment_identity_rel_err": rep.identity_rel_err,
        "identity_ok": rep.identity_ok,
        "n_used": rep.n_used,
    }


# Frames whose reference quantity has quadrature norm below this floor carry no
# relative information (stationary states: currents and density rates vanish);
# their residuals are measured against the floor or the run's own scale instead.
VANISHING_SCALE_FLOOR = 1e-6

CONTINUITY_DT = 1e-3  # step of the continuity residual's central difference


def _robust_max_ratio(pairs: list[tuple[float, float]]) -> float:
    if not pairs:
        return 0.0
    den_max = max(d for _, d in pairs)
    worst = 0.0
    for num, den in pairs:
        ref = max(den if den >= 1e-3 * den_max else den_max, VANISHING_SCALE_FLOOR)
        worst = max(worst, num / ref)
    return worst


@dataclass
class FrameSuite:
    """The statistical suite, fed each frame by the integrator as the trajectories reach it.

    `add` reads the frame's FrameFields and keeps one stats row per frame and
    the worst cases for `verdicts`; `current` is the last frame's current.
    `probe_phases` holds the continuity probe's step phases, built on the
    first frame.
    """

    potential: Potential
    config: ScenarioConfig
    regions: list[Region] | None = None
    cross_method: bool = False
    rows: list[dict] = field(default_factory=list)
    all_ks_ok: bool = True
    worst_ks_margin: float = 0.0
    all_moments_ok: bool = True
    worst_identity: float = 0.0
    cross_pairs: list[tuple[float, float]] = field(default_factory=list)
    continuity_pairs: list[tuple[float, float]] = field(default_factory=list)
    current: CurrentField | None = None
    probe_phases: tuple | None = field(default=None, init=False, repr=False)

    def add(self, fields: FrameFields, p: np.ndarray, x: np.ndarray, status: np.ndarray) -> None:
        fr = fields.frame
        self.current = fields.current  # first, so that the previous current is freed early
        active = status == TrajStatus.ACTIVE
        row: dict = {
            "time": fr.time,
            "boundary_mass_position": boundary_mass_fraction(fr.psi_x),
            "boundary_mass_momentum": boundary_mass_fraction(fr.psi_p),
            "frozen_count": int(np.sum(status == TrajStatus.FROZEN_AT_NODE)),
            "left_grid_count": int(np.sum(status == TrajStatus.LEFT_GRID)),
        }
        if active.any():
            row["ks"] = {}
            for r in equivariance_check(p[active], fr.psi_p):
                row["ks"][r.label or "p0"] = {"statistic": r.statistic, "band": r.band,
                                              "passed": bool(r.passed)}
                self.all_ks_ok &= bool(r.passed)
                self.worst_ks_margin = max(self.worst_ks_margin, r.statistic / r.band)
            rep = moment_checks(x, fr.psi_x, fr.psi_p, active, fields.grad)
            row["moments"] = _moments_to_row(rep)
            self.all_moments_ok &= rep.mean_ok and rep.std_ok and rep.identity_ok
            self.worst_identity = max(self.worst_identity, rep.identity_rel_err)
            if self.regions:
                freqs = macrostate_frequencies(x, self.regions, active)
                row["macrostate_occupancy"] = {
                    k: {"frequency": v[0], "stderr": v[1]} for k, v in freqs.items()
                }

        if self.probe_phases is None:  # one grid, potential and mass per run
            self.probe_phases = _step_phases(fr.psi_p.grid, self.potential, self.config.mass,
                                             CONTINUITY_DT / 2.0)
        before, mid, after = continuity_probe(fr, self.potential, CONTINUITY_DT,
                                              self.config.mass, self.probe_phases)
        cur = current_for(self.potential, mid.psi_x, mid.psi_p, fields.current.method)
        resid, den = continuity_residual(before, after, cur, CONTINUITY_DT)
        row["continuity_residual"] = resid
        self.continuity_pairs.append((resid * den if den >= 1e-14 else resid, den))

        if self.cross_method and fr.psi_p.grid.dof == 1:
            jc = fields.current_of(CurrentMethod.CLOSED_FORM)
            jp = fields.current_of(CurrentMethod.POISSON)
            diff = float(np.linalg.norm(jp.components - jc.components))
            den = float(np.linalg.norm(jc.components))
            self.cross_pairs.append((diff, den))
            row["current_cross_method_rel"] = diff / den if den > 0 else 0.0
        self.rows.append(row)

    def verdicts(self) -> list[Verdict]:
        continuity = _robust_max_ratio(self.continuity_pairs)
        out = [
            Verdict("equivariance-all-frames", self.all_ks_ok, self.worst_ks_margin, 1.0,
                    "equivariance of the momentum ensemble",
                    "worst KS statistic / 99% band over all frames "
                    f"(band {ks_band(self.config.n_samples):.4f})"),
            Verdict("moment-checks-all-frames", self.all_moments_ok, self.worst_identity, 1e-6,
                    "position expectation identity, spread inequality, second-moment identity",
                    "worst second-moment identity relative error; mean/std bands per frame"),
            Verdict("continuity-residual", continuity <= 1e-4, continuity, 1e-4,
                    "momentum-density continuity equation",
                    "max over frames of the central-difference residual at dt=1e-3"),
        ]
        if self.cross_method:
            cross = _robust_max_ratio(self.cross_pairs)
            out.append(Verdict("current-cross-method", cross <= 1e-6, cross, 1e-6,
                               "1d Poisson current equals the closed form",
                               "max over frames of the L2-relative difference"))
        return out


# -- scenario: free particle ---------------------------------------------------------


def _run_free_particle(config: ScenarioConfig) -> RunResult:
    grid = _grid_for(config, 1)
    psi = gaussian_state(grid, sigma=config.sigma)
    pot = Free()
    frames = collect_frames(psi, pot, _propagator(config), config.n_steps(), config.mass)
    suite = FrameSuite(pot, config)
    ens = _run_epstein(frames, pot, config, suite.add)

    hist = ens.history
    active_always = hist.status[-1] == TrajStatus.ACTIVE
    times = hist.times
    p0 = hist.p[0]
    law_err = 0.0
    drift = 0.0
    for f, t in enumerate(times):
        act = hist.status[f] == TrajStatus.ACTIVE
        law_err = max(law_err, float(np.abs(hist.x[f][act] - hist.p[f][act] * t / config.mass).max()))
        drift = max(drift, float(np.abs(hist.p[f][act] - p0[act]).max()))
    origin = float(np.abs(hist.x[0][hist.status[0] == TrajStatus.ACTIVE]).max())

    # final-frame position histogram against the transported momentum density
    t_end = times[-1]
    (edges,), emp = rho_histogram(hist.x[-1], config.histogram_bins,
                                  [(grid.positions(0)[0], grid.positions(0)[-1])], active_always)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    rho_p = frames[-1].psi_p.density()
    pgrid = grid.momenta(0)
    mapped = np.interp(centers * config.mass / t_end, pgrid, rho_p) * config.mass / t_end
    l1 = float(np.sum(np.abs(emp - mapped)) * width)
    l1_tol = 2.0 * np.sqrt(config.histogram_bins / config.n_samples)

    verdicts = [
        Verdict("free-trajectory-law", law_err <= 1e-8, law_err, 1e-8,
                "free trajectories follow x = p t / m",
                "max |x_i(t) - p_i t/m| over all frames"),
        Verdict("momentum-constancy", drift <= 1e-10, drift, 1e-10,
                "free momenta are constants of the motion", "max |p_i(t) - p_i(0)|"),
        Verdict("origin-concentration", origin <= 1e-8, origin, 1e-8,
                "all trajectories pass through the origin at t=0", "max |x_i(0)|"),
        Verdict("transported-density", l1 <= l1_tol, l1, l1_tol,
                "position histogram is the transported momentum density",
                "L1 distance at the final frame"),
    ]
    verdicts += suite.verdicts()
    return RunResult(config, suite.current, frames, {"epstein": ens}, suite.rows, verdicts,
                     {"final_histogram": {"centers": centers.tolist(), "density": emp.tolist()}})


# -- scenario: superposition (and the macroscopic variant) ----------------------------


def _superposition_common(config: ScenarioConfig) -> tuple:
    grid = _grid_for(config, 1)
    c1 = np.sqrt(config.c1_sq)
    c2 = np.sqrt(1.0 - config.c1_sq)
    sup = superposition_state(grid, config.a, config.sigma, (c1, c2))
    pot = Free()
    frames = collect_frames(sup.field, pot, _propagator(config), config.n_steps(), config.mass)
    return grid, sup, pot, frames


def _fringe_density_verdict(grid: GridSpec, frame0: Frame, config: ScenarioConfig,
                            norm_factor: float) -> Verdict:
    p = grid.momenta(0)
    hb = grid.hbar
    sig = config.sigma
    base = (sig**2 / (np.pi * hb**2)) ** 0.5 * np.exp(-(p**2) * sig**2 / hb**2)
    c1 = np.sqrt(config.c1_sq)
    c2 = np.sqrt(1.0 - config.c1_sq)
    # |c1 e^{-iap} + c2 e^{+iap}|^2 reduces to 2 cos^2(ap) for equal weights
    mod = (c1**2 + c2**2) + 2.0 * c1 * c2 * np.cos(2.0 * config.a * p / hb)
    pred = norm_factor**2 * mod * base
    err = float(np.abs(frame0.psi_p.density() - pred).max())
    return Verdict("fringe-momentum-density", err <= 1e-8, err, 1e-8,
                   "shift-modulated momentum density of the superposition",
                   "max pointwise deviation from the modulated Gaussian")


def _run_superposition(config: ScenarioConfig) -> RunResult:
    grid, sup, pot, frames = _superposition_common(config)
    suite = FrameSuite(pot, config)
    ens = _run_epstein(frames, pot, config, suite.add)
    hist = ens.history

    origin = float(np.abs(hist.x[0][hist.status[0] == TrajStatus.ACTIVE]).max())
    verdicts = [
        _fringe_density_verdict(grid, frames[0], config, sup.norm_factor),
        Verdict("origin-concentration", origin <= 1e-8, origin, 1e-8,
                "t=0 positions sit at the origin for every packet shift",
                f"max |x_i(0)| at a={config.a}"),
    ]
    ensembles = {"epstein": ens}
    if config.model == "both":
        dens = _run_dbb(frames, config)
        ensembles["dbb"] = dens
        if config.a > 0:  # at a = 0 there are no two packets to split between
            half = config.a / 2.0
            regions = [region_1d("plus", half, 3 * config.a - half),
                       region_1d("minus", -(3 * config.a - half), -half)]
            freqs = macrostate_frequencies(dens.history.x[0], regions,
                                           dens.history.status[0] == TrajStatus.ACTIVE)
            band = 4.0 * np.sqrt(0.25 / config.n_samples)
            dev = max(abs(freqs["plus"][0] - 0.5), abs(freqs["minus"][0] - 0.5))
            verdicts.append(
                Verdict("guidance-bimodality", dev <= band, dev, band,
                        "guidance-model positions split between the shifted packets",
                        "max deviation of the +-a region frequencies from 1/2 at t=0")
            )
    verdicts += suite.verdicts()
    return RunResult(config, suite.current, frames, ensembles, suite.rows, verdicts,
                     {"norm_factor": sup.norm_factor, "packet_overlap": sup.overlap})


def _run_macroscopic(config: ScenarioConfig) -> RunResult:
    grid, sup, pot, frames = _superposition_common(config)
    regions = [
        region_1d("origin", -abs(config.a) / 2.0, abs(config.a) / 2.0),
        region_1d("plus", abs(config.a) / 2.0 + 1e-12, 3 * abs(config.a) / 2.0),
        region_1d("minus", -3 * abs(config.a) / 2.0, -abs(config.a) / 2.0 - 1e-12),
    ] if config.a != 0 else []
    suite = FrameSuite(pot, config, regions)
    ens = _run_epstein(frames, pot, config, suite.add)

    verdicts = [_fringe_density_verdict(grid, frames[0], config, sup.norm_factor)]
    act0 = ens.history.status[0] == TrajStatus.ACTIVE
    if regions:
        freqs = macrostate_frequencies(ens.history.x[0], regions, act0)
        occ = freqs["origin"][0]
        away = freqs["plus"][0] + freqs["minus"][0]
        verdicts += [
            Verdict("origin-occupancy", occ >= 0.99, occ, 0.99,
                    "the superposed pointer concentrates at the origin",
                    "t=0 occupancy of the origin region (pass: >= 0.99)"),
            Verdict("shifted-regions-empty", away <= 0.005, away, 0.005,
                    "no occupancy at the macroscopically shifted locations",
                    "t=0 occupancy of the +-a regions"),
        ]

    # bin-wise density bound against a reference single-packet run
    ref_cfg = dataclasses.replace(config, a=0.0, c1_sq=0.5)
    ref_state = gaussian_state(grid, sigma=config.sigma)
    ref_frames = collect_frames(ref_state, pot, _propagator(config), config.n_steps(), config.mass)
    ref_ens = _run_epstein(ref_frames, pot, ref_cfg)
    bounds = [(grid.positions(0)[0], grid.positions(0)[-1])]
    n = config.n_samples

    def bin_fractions(e: Ensemble) -> np.ndarray:
        (edges,), density = rho_histogram(e.history.x[-1], config.histogram_bins, bounds,
                                          e.active_at(-1))
        return density * (edges[1] - edges[0])

    f_sup = bin_fractions(ens)
    f_ref = bin_fractions(ref_ens)
    bound_scale = 2.0 * sup.norm_factor**2
    se = np.sqrt(f_sup * (1 - f_sup) / n) + bound_scale * np.sqrt(f_ref * (1 - f_ref) / n)
    slack = 3.0 * np.maximum(se, 1.0 / n)
    excess = float(np.max(f_sup - bound_scale * f_ref - slack))
    verdicts.append(
        Verdict("density-bound", excess <= 0.0, excess, 0.0,
                "superposed-pointer density bounded by twice the bare-pointer density",
                "max bin-wise excess over 2 N^2 rho_ref + 3 binomial sigma at the final frame")
    )
    verdicts += suite.verdicts()
    return RunResult(config, suite.current, frames, {"epstein": ens, "reference": ref_ens},
                     suite.rows,
                     verdicts, {"norm_factor": sup.norm_factor})


# -- scenario: measurement with environment -------------------------------------------


def _run_measurement(config: ScenarioConfig) -> RunResult:
    grid = _grid_for(config, 2)
    c1 = np.sqrt(config.c1_sq)
    c2 = np.sqrt(1.0 - config.c1_sq)
    ms = measurement_state(grid, config.a, config.dpe, c1, c2,
                           config.sigma, config.sigma_env)
    pot = Free()
    frames = collect_frames(ms.field, pot, _propagator(config), config.n_steps(), config.mass)
    half = config.a / 2.0
    regions = [
        Region("plus", ((half, 3 * config.a - half), None)),
        Region("minus", ((-(3 * config.a - half), -half), None)),
    ]
    suite = FrameSuite(pot, config, regions)
    ens = _run_epstein(frames, pot, config, suite.add)

    # factorized momentum density against the analytic mixture
    p0g = grid.momenta(0)
    p1g = grid.momenta(1)
    hb = grid.hbar
    pointer = (config.sigma**2 / (np.pi * hb**2)) ** 0.5 * np.exp(
        -(p0g**2) * config.sigma**2 / hb**2
    )
    env = lambda b: (config.sigma_env**2 / (np.pi * hb**2)) ** 0.5 * np.exp(
        -((p1g - b) ** 2) * config.sigma_env**2 / hb**2
    )
    term1 = ms.weights[0] * np.outer(pointer, env(config.dpe / 2.0))
    term2 = ms.weights[1] * np.outer(pointer, env(-config.dpe / 2.0))
    pred = term1 + term2
    mask = (term1 > 1e-10) | (term2 > 1e-10)
    dens_err = float(np.abs(frames[0].psi_p.density() - pred)[mask].max())

    act0 = ens.history.status[0] == TrajStatus.ACTIVE
    freqs = macrostate_frequencies(ens.history.x[0], regions, act0)
    w1, w2 = ms.weights
    band1 = 4.0 * np.sqrt(w1 * (1 - w1) / config.n_samples)
    band2 = 4.0 * np.sqrt(w2 * (1 - w2) / config.n_samples)
    dev1 = abs(freqs["plus"][0] - w1)
    dev2 = abs(freqs["minus"][0] - w2)
    confined = freqs["plus"][0] + freqs["minus"][0]

    # pointer-region transition counts over the run (reported, no claim tested)
    region_ids = np.full(ens.history.x.shape[:2], -1, dtype=np.int8)
    for rid, reg in enumerate(regions):
        for f in range(len(frames)):
            region_ids[f][reg.contains(ens.history.x[f])] = rid
    transitions = int(np.sum(region_ids[1:] != region_ids[:-1]))

    verdicts = [
        Verdict("factorized-momentum-density", dens_err <= 1e-6, dens_err, 1e-6,
                "environment-factorized momentum density of the post-measurement state",
                "max pointwise deviation where either mixture term exceeds 1e-10"),
        Verdict("born-weight-plus", dev1 <= band1, dev1, band1,
                "pointer lands in the + outcome with the squared-coefficient weight",
                f"|freq - {w1:.4f}| at t=0"),
        Verdict("born-weight-minus", dev2 <= band2, dev2, band2,
                "pointer lands in the - outcome with the squared-coefficient weight",
                f"|freq - {w2:.4f}| at t=0"),
        Verdict("pointer-confinement", confined >= 0.999, confined, 0.999,
                "pointer positions display exactly one outcome region",
                "summed occupancy of the two outcome regions at t=0 (pass: >= 0.999)"),
    ]
    verdicts += suite.verdicts()
    return RunResult(config, suite.current, frames, {"epstein": ens}, suite.rows, verdicts,
                     {"env_overlap": ms.env_overlap, "weights": list(ms.weights),
                      "pointer_region_transitions": transitions})


# -- scenario: effective collapse -------------------------------------------------------


SILENT_AMPLITUDE = 1e-10
SUPPORT_AMPLITUDE = 1e-5
MIN_SILENT_CELLS = 10


def _run_collapse(config: ScenarioConfig) -> RunResult:
    grid = _grid_for(config, 1)
    state = two_packet_momentum_state(grid, config.delta_p, config.sigma)
    pot = Harmonic(config.mass, config.omega)
    prop = _propagator(config)
    steps = config.n_steps()
    frames = collect_frames(state.field, pot, prop, steps, config.mass)
    branch_frames = collect_frames(state.branches[0], pot, prop, steps, config.mass)
    suite = FrameSuite(pot, config, cross_method=True)

    # Collapse's checks run in the integrator's frame loop after the suite and
    # read the frame's fields; the branch frame of the same index gives the
    # branch's x(p) and closed-form current, both from one FrameFields.
    p = grid.momenta(0)
    weight = state.branch_weights[0]
    in_branch = None  # rows seeded in the branch, set at frame 0
    gap_cells: list[int] = []
    decomp_worst = 0.0
    track_worst = 0.0
    pairs_closed: list[tuple[float, float]] = []
    pairs_poisson: list[tuple[float, float]] = []

    def on_frame(fields: FrameFields, p_traj: np.ndarray, x: np.ndarray,
                 status: np.ndarray) -> None:
        nonlocal in_branch, decomp_worst, track_worst
        suite.add(fields, p_traj, x, status)
        fr = fields.frame
        if fr.index == 0:
            in_branch = p_traj[:, 0] > 0.0
        amp = np.abs(fr.psi_p.values)
        silent = amp < SILENT_AMPLITUDE * amp.max()
        rho = fr.psi_p.density()
        upper = p > np.sum(p * rho) / rho.sum()
        hi_peak = p[upper][np.argmax(rho[upper])]
        lo_peak = p[~upper][np.argmax(rho[~upper])]
        gap_cells.append(int(np.sum(silent & (p > lo_peak) & (p < hi_peak))))

        br = FrameFields(branch_frames[fr.index], pot, CurrentMethod.CLOSED_FORM)
        br_amp = np.abs(br.frame.psi_p.values)
        supp = br_amp >= SUPPORT_AMPLITUDE * br_amp.max()
        j_full = fields.current_of(CurrentMethod.CLOSED_FORM).components[0]
        j_br = weight * br.current.components[0]
        den = np.linalg.norm(j_br[supp])
        if den > 1e-12:
            decomp_worst = max(decomp_worst, float(np.linalg.norm((j_full - j_br)[supp]) / den))
        act = (status == TrajStatus.ACTIVE) & in_branch
        if act.any():
            vals, ok, inside = interpolate_masked(br.position, p_traj[act])
            good = ok & inside
            if good.any():
                track_worst = max(track_worst, float(np.abs(x[act][good] - vals[good]).max()))

        gap = silent & (np.abs(p) < config.delta_p / 2.0)
        if gap.any():
            jp = fields.current_of(CurrentMethod.POISSON).components[0]
            pairs_closed.append((float(np.abs(j_full[gap]).max()), float(np.abs(j_full).max())))
            pairs_poisson.append((float(np.abs(jp[gap]).max()), float(np.abs(jp).max())))

    ens = _run_epstein(frames, pot, config, on_frame)
    scale = config.grid_extent / 2.0
    min_gap = min(gap_cells)
    verdicts = [
        Verdict("silent-gap-maintained", min_gap >= MIN_SILENT_CELLS, float(min_gap),
                float(MIN_SILENT_CELLS),
                "momentum supports stay separated for the whole run",
                "min over frames of silent cells between the packets (pass: >= 10)"),
        Verdict("branch-current-decomposition", decomp_worst <= 1e-6, decomp_worst, 1e-6,
                "the closed-form current decomposes branch by branch",
                "max over frames of the support-restricted L2-relative residual"),
        Verdict("single-branch-tracking", track_worst <= 1e-6 * scale, track_worst,
                1e-6 * scale,
                "trajectories seeded in one branch follow that branch's phase gradient",
                f"max |x_i(t) - x_branch(p_i(t))|; scale = half extent = {scale:g}"),
    ]

    # The leakage is reported without a pass/fail threshold. Frames where the
    # current itself (nearly) vanishes carry no information and are skipped
    # relative to the run's peak current.
    def leak_of(pairs: list[tuple[float, float]]) -> float:
        if not pairs:
            return 0.0
        peak = max(full for _, full in pairs)
        vals = [g / full for g, full in pairs if full >= 1e-3 * peak]
        return max(vals) if vals else 0.0

    verdicts += suite.verdicts()
    return RunResult(
        config, suite.current, frames, {"epstein": ens}, suite.rows, verdicts,
        {
            "norm_factor": state.norm_factor,
            "gap_current_leakage": {"closed": leak_of(pairs_closed),
                                    "poisson": leak_of(pairs_poisson)},
            "min_silent_gap_cells": min_gap,
        },
    )


# -- scenario: harmonic coherent / ground state ------------------------------------------


def _central_dpdt(times: np.ndarray, p: np.ndarray) -> np.ndarray:
    """dp/dt at the interior frames by central differences; frames run along axis 0.

    Needs at least 3 frames, which run_scenario checks against
    ScenarioDef.min_frames before the run starts.
    """
    return (p[2:] - p[:-2]) / (2.0 * float(times[1] - times[0]))


def _classical_force_verdicts(hist: EnsembleHistory, config: ScenarioConfig) -> list[Verdict]:
    always = hist.status[-1] == TrajStatus.ACTIVE
    p = hist.p[:, always, 0]
    x = hist.x[:, always, 0]
    dpdt = _central_dpdt(hist.times, p)
    resid = float(np.abs(dpdt + config.mass * config.omega**2 * x[1:-1]).max())
    out = [
        Verdict("classical-force-relation", resid <= 1e-4, resid, 1e-4,
                "dp/dt = -m w^2 x along recorded histories",
                "max |dp/dt + m w^2 x| by central differences at frame resolution"),
    ]
    if config.displacement == 0.0:
        xmax = float(np.abs(x).max())
        pdrift = float(np.abs(p - p[0]).max())
        out += [
            Verdict("ground-position-frozen", xmax <= 1e-4, xmax, 1e-4,
                    "ground-state trajectories sit at the origin", "max |x_i(t)|"),
            Verdict("ground-momentum-frozen", pdrift <= 1e-4, pdrift, 1e-4,
                    "ground-state momenta are frozen", "max |p_i(t) - p_i(0)|"),
        ]
    return out


def _run_harmonic(config: ScenarioConfig) -> RunResult:
    grid = _grid_for(config, 1)
    sigma = np.sqrt(config.hbar / (config.mass * config.omega))
    psi = gaussian_state(grid, sigma=sigma, center=config.displacement)
    pot = Harmonic(config.mass, config.omega)
    frames = collect_frames(psi, pot, _propagator(config), config.n_steps(), config.mass)
    suite = FrameSuite(pot, config, cross_method=True)
    ens = _run_epstein(frames, pot, config, suite.add)

    # the grid mean, which the suite computed at every frame, tracks the classical orbit
    worst_mean = max(abs(row["moments"]["mean_grid"][0]
                         - config.displacement * np.cos(config.omega * row["time"]))
                     for row in suite.rows)
    verdicts = [
        Verdict("mean-tracks-classical-orbit", worst_mean <= 1e-5, worst_mean, 1e-5,
                "the position expectation follows the classical oscillation",
                "max |<x>(t) - x0 cos(w t)| over frames"),
    ]
    verdicts += _classical_force_verdicts(ens.history, config)
    verdicts += suite.verdicts()
    return RunResult(config, suite.current, frames, {"epstein": ens}, suite.rows, verdicts, {})


# -- scenario: linear drift ----------------------------------------------------------------


def _run_linear(config: ScenarioConfig) -> RunResult:
    grid = _grid_for(config, 1)
    psi = gaussian_state(grid, sigma=config.sigma)
    pot = Linear(config.linear_coeff)
    frames = collect_frames(psi, pot, _propagator(config), config.n_steps(), config.mass)
    suite = FrameSuite(pot, config, cross_method=True)
    ens = _run_epstein(frames, pot, config, suite.add)

    hist = ens.history
    law = 0.0
    for f, t in enumerate(hist.times):
        act = hist.status[f] == TrajStatus.ACTIVE
        expected = hist.p[0][act] - config.linear_coeff * t
        law = max(law, float(np.abs(hist.p[f][act] - expected).max()))
    always = hist.status[-1] == TrajStatus.ACTIVE
    dpdt = _central_dpdt(hist.times, hist.p[:, always, 0])
    force = float(np.abs(dpdt + config.linear_coeff).max())

    verdicts = [
        Verdict("constant-force-momentum-law", law <= 1e-8, law, 1e-8,
                "momenta fall at the classical rate -c",
                "max |p_i(t) - (p_i(0) - c t)| over frames"),
        Verdict("classical-force-relation", force <= 1e-4, force, 1e-4,
                "dp/dt equals minus the potential slope",
                "max |dp/dt + c| by central differences"),
    ]
    verdicts += suite.verdicts()
    return RunResult(config, suite.current, frames, {"epstein": ens}, suite.rows, verdicts, {})


# -- registry ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioDef:
    name: str
    runner: Callable[[ScenarioConfig], RunResult]
    defaults: dict
    summary: str
    claims: tuple[str, ...]
    params: tuple[tuple[str, str], ...] = ()
    models: tuple[str, ...] = ("epstein",)  # the `model` values the runner reads
    min_frames: int = 2


SCENARIOS: dict[str, ScenarioDef] = {
    "free-particle": ScenarioDef(
        "free-particle", _run_free_particle,
        {"grid_extent": 80.0, "t_final": 5.0},
        "Free Gaussian: straight-line trajectories x = p t / m through the origin.",
        ("free-trajectory-law", "origin-concentration", "transported-density",
         "moment-identity", "variance-bound", "equivariance", "continuity"),
        (("sigma", "packet width"), ("t_final", "run end time")),
    ),
    "superposition": ScenarioDef(
        "superposition", _run_superposition,
        {"a": 5.0, "grid_extent": 45.0, "t_final": 1.0, "steps_per_frame": 20,
         "model": "both"},
        "Two shifted free packets: fringe-modulated momentum density, all t=0 "
        "positions at the origin regardless of the shift; guidance-model contrast.",
        ("fringe-momentum-density", "origin-concentration-shift-independent",
         "guidance-bimodality", "moment-identity", "equivariance"),
        (("a", "packet shift (warn when below 3 sigma)"), ("sigma", "packet width"),
         ("model", "epstein, or both for the guidance-law contrast")),
        models=MODELS,
    ),
    "macroscopic": ScenarioDef(
        "macroscopic", _run_macroscopic,
        {"a": 6.0, "grid_extent": 45.0, "t_final": 1.0, "steps_per_frame": 20},
        "Superposed pointer without environment: occupancy concentrates at the "
        "origin and the density obeys the twice-bare-pointer bound.",
        ("origin-occupancy", "density-bound", "fringe-momentum-density"),
        (("a", "pointer displacement"), ("sigma", "pointer packet width")),
    ),
    "measurement": ScenarioDef(
        "measurement", _run_measurement,
        {"a": 6.0, "dpe": 12.0, "grid_points": 256, "t_final": 0.5,
         "steps_per_frame": 100, "c1_sq": 0.5},
        "Pointer plus momentum-kicked environment: factorized momentum density "
        "and Born-weight outcome frequencies.",
        ("factorized-momentum-density", "born-weights", "pointer-confinement",
         "moment-identity", "equivariance"),
        (("c1_sq", "first outcome weight |c1|^2"), ("a", "pointer displacement"),
         ("dpe", "environment momentum separation (reject when packets overlap)")),
    ),
    "collapse": ScenarioDef(
        "collapse", _run_collapse,
        {"delta_p": 18.0, "t_final": 0.4, "omega": 1.0},
        "Two separated momentum packets under a harmonic potential: branch-wise "
        "current decomposition, single-branch trajectory dependence, and the "
        "Poisson-route leakage report.",
        ("branch-current-decomposition", "single-branch-tracking",
         "silent-gap-maintained", "poisson-leakage-report", "current-cross-validation"),
        (("delta_p", "packet momentum separation"), ("current", "closed or poisson"),
         ("t_final", "run length; supports must stay separated throughout")),
    ),
    "harmonic-coherent": ScenarioDef(
        "harmonic-coherent", _run_harmonic,
        {"displacement": 2.0, "dt": float(np.pi / 3200.0), "t_final": float(np.pi),
         "steps_per_frame": 10},
        "Coherent state: equivariance under oscillation, classical-force relation, "
        "continuity residual, and the 1d current cross-validation.",
        ("classical-force", "equivariance", "continuity", "current-cross-validation"),
        (("displacement", "initial offset (0 freezes the ground state)"),
         ("omega", "oscillator frequency")),
        min_frames=3,  # central-difference dp/dt
    ),
    "linear-drift": ScenarioDef(
        "linear-drift", _run_linear,
        {"linear_coeff": 2.0, "t_final": 1.0},
        "Uniform-force drift: p(t) = p(0) - c t, translation-covariant equivariance, "
        "continuity residual, and the 1d current cross-validation.",
        ("constant-force-momentum-law", "equivariance", "continuity",
         "current-cross-validation"),
        (("linear_coeff", "potential slope c"),),
        min_frames=3,  # central-difference dp/dt
    ),
}


def default_config(name: str, **overrides) -> ScenarioConfig:
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    params = {"name": name}
    params.update(SCENARIOS[name].defaults)
    params.update(overrides)
    return ScenarioConfig(**params)


def run_scenario(config: ScenarioConfig) -> RunResult:
    config.validate()
    if config.name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {config.name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    sdef = SCENARIOS[config.name]
    if config.model not in sdef.models:
        raise ConfigurationError(
            f"scenario {config.name!r} runs model {' or '.join(sdef.models)}, "
            f"not {config.model!r}"
        )
    if config.n_frames() < sdef.min_frames:
        raise ConfigurationError(
            f"scenario {config.name!r} needs at least {sdef.min_frames} frames, got "
            f"{config.n_frames()} from t_final={config.t_final}, dt={config.dt}, "
            f"steps_per_frame={config.steps_per_frame}"
        )
    result = sdef.runner(config)
    result.diagnostics["rk4_step_doubling"] = {
        model: ens.history.step_error for model, ens in result.ensembles.items()
    }
    return result


def coverage_manifest() -> dict[str, dict]:
    """Map each scenario to the physics claims its verdicts exercise."""
    return {
        name: {"summary": d.summary, "claims": list(d.claims)}
        for name, d in SCENARIOS.items()
    }
