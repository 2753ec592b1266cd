"""Built-in experiment catalog: configuration, runner, and verdicts.

Each catalog entry declares its dof and potential; its runner prepares a
state, and `_simulate` propagates it, integrates the momentum-flow ensemble
over the emitted frames and evaluates the statistical suite on each block of
frames once the trajectories have passed it. The runner adds its own
machine-checkable verdicts, which are deterministic given (config, seed).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .currents import (VANISHING_DIVERGENCE, CurrentField, CurrentMethod, continuity_residual,
                       current_for)
from .dynamics import (Frame, PropagatorConfig, collect_frames, continuity_probe, frame_steps,
                       momentum_block)
from .ensemble import (
    Ensemble,
    GridMoments,
    Region,
    equivariance_check,
    grid_moments,
    ks_band,
    macrostate_frequencies,
    moment_checks,
    region_1d,
    rho_histogram,
    sample_momenta,
    sample_positions,
)
from .errors import ConfigurationError
from .grid import ComplexField, GridSpec, grid_1d, grid_2d, to_position
from .potentials import Free, Harmonic, Linear, Potential
from .states import (
    coherent_state,
    gaussian_state,
    measurement_state,
    superposition_state,
    two_packet_momentum_state,
)
from .trajectories import (
    BlockHook,
    EnsembleHistory,
    FrameBlock,
    TrajStatus,
    integrate_dbb,
    integrate_epstein,
    interpolate_masked,
)

MODELS = ("epstein", "both")  # "both" adds the guidance-law ensemble


@dataclass
class ScenarioConfig:
    """Flat configuration for the built-in scenarios.

    A scenario reads COMMON_FIELDS and the fields its ScenarioDef.params
    names; run_scenario rejects a run that sets any other field away from the
    scenario's default.
    """

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
        currents = tuple(m.value for m in CurrentMethod)
        if self.current not in currents:
            raise ConfigurationError(f"current must be one of {currents}, got {self.current!r}")
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if self.histogram_bins < 1:
            raise ConfigurationError(f"histogram_bins must be >= 1, got {self.histogram_bins}")
        if self.traj_csv_limit < 0:
            raise ConfigurationError(f"traj_csv_limit must be >= 0, got {self.traj_csv_limit}")
        frame_steps(self.n_steps(), self.steps_per_frame)
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
        return len(frame_steps(self.n_steps(), self.steps_per_frame))


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


# Frames whose reference quantity has quadrature norm below this floor carry no
# relative information (stationary states: currents and density rates vanish);
# their residuals are measured against the floor or the run's own scale instead.
VANISHING_SCALE_FLOOR = 1e-6

CONTINUITY_DT = 1e-3  # step of the continuity residual's central difference


def _grid_checks(block: FrameBlock, potential: Potential,
                 mass: float) -> tuple[np.ndarray, np.ndarray, GridMoments]:
    """Per frame of a block, in one batched call each: the continuity residual and
    its denominator, and the grid moments of the moment checks."""
    mid_p, after = continuity_probe(block.psi_p, potential, CONTINUITY_DT, mass)
    cur = current_for(potential, None, mid_p, block.method)
    resid, den = continuity_residual(block.psi_p, after, cur, CONTINUITY_DT)
    return resid, den, grid_moments(block.psi_x, block.psi_p, block.grad)


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
    """The statistical suite, fed each FrameBlock by the integrator once the
    trajectories have passed its frames.

    `add` checks a block at a time: the grid-only checks, equivariance,
    moments and status counts take one call per block. It keeps one stats
    row per frame, which stores the checks' records as they come, and
    `verdicts` reads its pass flags and worst cases from those rows; `current`
    is the last frame's current. `_simulate` sets `frames` and `ensemble`, and
    `result` builds the RunResult. The cross-method check compares the two
    currents in 1d under a potential other than Free, whose currents vanish;
    in 2d only their divergences compare. `add` records its pairs and
    `verdicts` reports it only there. In 1d, where no trajectory can overtake
    another, each row counts `out_of_order_pairs`: the pairs of rows adjacent
    in frame 0's momentum order, both active, whose momenta are out of that
    order; `run_scenario` adds the run's total to the diagnostics.
    """

    potential: Potential
    config: ScenarioConfig
    regions: list[Region] | None = None

    def __post_init__(self) -> None:
        self.rows: list[dict] = []
        self.cross_pairs: list[tuple[float, float]] = []
        self.continuity_pairs: list[tuple[float, float]] = []
        self.current: CurrentField | None = None
        self.frames: list[Frame] = []
        self.ensemble: Ensemble | None = None
        self._order: np.ndarray | None = None  # frame 0's momentum order (1d), from block 0

    def add(self, block: FrameBlock, lo: int, p: np.ndarray, x: np.ndarray,
            status: np.ndarray) -> None:
        """Read the frames of `block`, the first of which is frame lo, and their
        history rows p, x and status."""
        self.current = block.current_at(-1)  # first, so that the previous one is freed early
        resids, dens, moments = _grid_checks(block, self.potential, self.config.mass)
        active = status == TrajStatus.ACTIVE
        ks_rows = equivariance_check(p, block.psi_p, active)
        moment_rows = moment_checks(x, moments, active)
        frozen = np.sum(status == TrajStatus.FROZEN_AT_NODE, axis=1).tolist()
        left = np.sum(status == TrajStatus.LEFT_GRID, axis=1).tolist()
        if lo == 0 and block.psi_p.grid.dof == 1:
            self._order = np.argsort(p[0, :, 0], kind="stable")
        if self._order is not None:
            q, act = p[:, self._order, 0], active[:, self._order]
            disorder = ((np.diff(q, axis=1) < 0.0) & act[:, 1:] & act[:, :-1]).sum(axis=1).tolist()
        cross = not isinstance(self.potential, Free) and block.psi_p.grid.dof == 1
        if cross:
            jc = block.current_of(CurrentMethod.CLOSED_FORM).components[0]
            jdiff = block.current_of(CurrentMethod.POISSON).components[0] - jc
        for f, fr in enumerate(block.frames):
            x_mass, p_mass = fr.boundary_mass
            row: dict = {"time": fr.time, "boundary_mass_position": x_mass,
                         "boundary_mass_momentum": p_mass, "frozen_count": frozen[f],
                         "left_grid_count": left[f]}
            if self._order is not None:
                row["out_of_order_pairs"] = disorder[f]
            if ks_rows[f] is not None:  # a frame with no active row has no ks or moments
                row["ks"] = ks_rows[f]
                row["moments"] = moment_rows[f]
                if self.regions:
                    row["macrostate_occupancy"] = macrostate_frequencies(x[f], self.regions,
                                                                         active[f])

            resid, den = float(resids[f]), float(dens[f])
            row["continuity_residual"] = resid
            self.continuity_pairs.append((resid * den if den >= VANISHING_DIVERGENCE else resid,
                                          den))

            if cross:
                diff, den = float(np.linalg.norm(jdiff[f])), float(np.linalg.norm(jc[f]))
                self.cross_pairs.append((diff, den))
                row["current_cross_method_rel"] = diff / den if den > 0 else 0.0
            self.rows.append(row)

    def verdicts(self) -> list[Verdict]:
        ks = [k for row in self.rows for k in row.get("ks", {}).values()]
        moments = [row["moments"] for row in self.rows if "moments" in row]
        ks_margin = max((k["statistic"] / k["band"] for k in ks), default=0.0)
        identity = max((m["second_moment_identity_rel_err"] for m in moments), default=0.0)
        continuity = _robust_max_ratio(self.continuity_pairs)
        out = [
            Verdict("equivariance-all-frames", all(k["passed"] for k in ks), ks_margin, 1.0,
                    "equivariance of the momentum ensemble",
                    "worst KS statistic / 99% band over all frames "
                    f"(band {ks_band(self.config.n_samples):.4f})"),
            Verdict("moment-checks-all-frames",
                    all(m["mean_ok"] and m["std_ok"] and m["identity_ok"] for m in moments),
                    identity, 1e-6,
                    "position expectation identity, spread inequality, second-moment identity",
                    "worst second-moment identity relative error; mean/std bands per frame"),
            Verdict("continuity-residual", continuity <= 1e-4, continuity, 1e-4,
                    "momentum-density continuity equation",
                    "max over frames of the central-difference residual at dt=1e-3"),
        ]
        if self.cross_pairs:
            cross = _robust_max_ratio(self.cross_pairs)
            out.append(Verdict("current-cross-method", cross <= 1e-6, cross, 1e-6,
                               "1d Poisson current equals the closed form",
                               "max over frames of the L2-relative difference"))
        return out

    def result(self, verdicts: list[Verdict], diagnostics: dict | None = None,
               **ensembles: Ensemble) -> RunResult:
        """The RunResult: verdicts before the suite's, `ensembles` after the momentum-flow one."""
        return RunResult(self.config, self.current, self.frames,
                         {"epstein": self.ensemble, **ensembles}, self.rows,
                         verdicts + self.verdicts(), diagnostics or {})


def _trajectories(config: ScenarioConfig, psi: ComplexField, potential: Potential,
                  on_block: BlockHook | None = None) -> tuple[list[Frame], Ensemble]:
    """Propagate psi, sample momenta from its t=0 density and integrate them over the frames."""
    frames = collect_frames(psi, potential, PropagatorConfig(config.dt, config.steps_per_frame),
                            config.n_steps(), config.mass)
    p0 = sample_momenta(frames[0].psi_p, config.n_samples, config.seed)
    return frames, Ensemble(integrate_epstein(frames, potential, p0,
                                              CurrentMethod(config.current), on_block=on_block))


def _simulate(config: ScenarioConfig, psi: ComplexField, potential: Potential,
              regions: list[Region] | None = None,
              on_block: BlockHook | None = None) -> FrameSuite:
    """Run psi through every scenario's pipeline, the suite fed every block of frames
    and `on_block`, if given, each block after the suite."""
    suite = FrameSuite(potential, config, regions)

    def hook(*args) -> None:
        suite.add(*args)
        if on_block is not None:
            on_block(*args)

    suite.frames, suite.ensemble = _trajectories(config, psi, potential, hook)
    return suite


def _worst(hist: EnsembleHistory, residual: Callable[[int], np.ndarray],
           frames: range | None = None, rows: np.ndarray | None = None) -> float:
    """max |residual(f)| over `frames` (every frame by default), at each frame f over
    the `rows` mask if given, else over the rows active at f. residual(f) holds
    every row of frame f, so the rows outside the mask may hold anything."""
    worst = 0.0
    for f in range(len(hist.times)) if frames is None else frames:
        mask = hist.status[f] == TrajStatus.ACTIVE if rows is None else rows
        worst = max(worst, float(np.abs(residual(f)[mask]).max()))
    return worst


# -- scenario: free particle ---------------------------------------------------------


def _run_free_particle(config: ScenarioConfig, grid: GridSpec, potential: Potential) -> RunResult:
    suite = _simulate(config, gaussian_state(grid, sigma=config.sigma), potential)
    hist = suite.ensemble.history
    law_err = _worst(hist, lambda f: hist.x[f] - hist.p[f] * hist.times[f] / config.mass)
    drift = _worst(hist, lambda f: hist.p[f] - hist.p[0])
    origin = _worst(hist, lambda f: hist.x[f], range(1))

    # final-frame position histogram against the transported momentum density
    t_end = hist.times[-1]
    (edges,), emp = rho_histogram(hist.x[-1], config.histogram_bins,
                                  [(grid.positions(0)[0], grid.positions(0)[-1])],
                                  hist.status[-1] == TrajStatus.ACTIVE)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    rho_p = suite.frames[-1].psi_p.density()
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
    return suite.result(verdicts, {"final_histogram": {"centers": centers.tolist(),
                                                       "density": emp.tolist()}})


# -- scenario: superposition (and the macroscopic variant) ----------------------------


def _momentum_gaussian(p: np.ndarray, sigma: float, hbar: float,
                       center: float = 0.0) -> np.ndarray:
    """The momentum density of a width-sigma Gaussian packet centred at p = center."""
    return (sigma**2 / (np.pi * hbar**2)) ** 0.5 * np.exp(-((p - center) ** 2) * sigma**2
                                                            / hbar**2)


def _fringe_density_verdict(grid: GridSpec, frame0: Frame, config: ScenarioConfig,
                            norm_factor: float) -> Verdict:
    p = grid.momenta(0)
    hb = grid.hbar
    base = _momentum_gaussian(p, config.sigma, hb)
    c = np.sqrt(0.5)  # superposition_state's equal weights
    # |c e^{-iap} + c e^{+iap}|^2 = 2 cos^2(ap)
    mod = (c**2 + c**2) + 2.0 * c * c * np.cos(2.0 * config.a * p / hb)
    pred = norm_factor**2 * mod * base
    err = float(np.abs(frame0.psi_p.density() - pred).max())
    return Verdict("fringe-momentum-density", err <= 1e-8, err, 1e-8,
                   "shift-modulated momentum density of the superposition",
                   "max pointwise deviation from the modulated Gaussian")


# The readout contrast's margin: 10 KS bands (0.16 at N = 10 000), capped at
# half the 0.5 that a readout concentrated between two equal packets reads,
# where 10 bands would exceed what a small sample resolves.
CONTRAST_BANDS = 10.0
CONTRAST_KS_CAP = 0.25


def _run_superposition(config: ScenarioConfig, grid: GridSpec, potential: Potential) -> RunResult:
    sup = superposition_state(grid, config.a, config.sigma)
    suite = _simulate(config, sup.field, potential)
    hist = suite.ensemble.history

    origin = _worst(hist, lambda f: hist.x[f], range(1))
    verdicts = [
        _fringe_density_verdict(grid, suite.frames[0], config, sup.norm_factor),
        Verdict("origin-concentration", origin <= 1e-8, origin, 1e-8,
                "t=0 positions sit at the origin for every packet shift",
                f"max |x_i(0)| at a={config.a}"),
    ]
    ensembles = {}
    if config.model == "both":
        x0 = sample_positions(suite.frames[0].psi_x, config.n_samples, config.seed)
        dens = ensembles["dbb"] = Ensemble(integrate_dbb(suite.frames, x0, config.mass))

        # both position sets against |psi(x, t)|^2, one call per history; the readout
        # after t = 0, and only where two packets split |psi|^2 away from it
        psi_x = to_position(momentum_block(suite.frames))

        def ks(h: EnsembleHistory) -> list[float]:
            return [r["x0"]["statistic"] for r in
                    equivariance_check(h.x, psi_x, h.status == TrajStatus.ACTIVE)]

        guidance_ks = ks(dens.history)
        if config.a != 0:  # at a = 0 there are no two packets to split between
            a = abs(config.a)  # the state is symmetric in a
            half = a / 2.0
            regions = [region_1d("plus", half, 3 * a - half),
                       region_1d("minus", -(3 * a - half), -half)]
            freqs = macrostate_frequencies(dens.history.x[0], regions,
                                           dens.history.status[0] == TrajStatus.ACTIVE)
            band = 4.0 * np.sqrt(0.25 / config.n_samples)
            dev = max(abs(freqs[name]["frequency"] - 0.5) for name in ("plus", "minus"))
            verdicts.append(
                Verdict("guidance-bimodality", dev <= band, dev, band,
                        "guidance-model positions split between the shifted packets",
                        "max deviation of the +-a region frequencies from 1/2 at t=0")
            )
            nearest = min(ks(hist)[1:])
            margin = min(CONTRAST_BANDS * ks_band(config.n_samples), CONTRAST_KS_CAP)
            verdicts.append(
                Verdict("readout-contrast", nearest >= margin, nearest, margin,
                        "momentum-flow positions are not |psi(x,t)|^2-distributed, unlike "
                        "the guidance law's",
                        f"min KS statistic of the readout x(p) against |psi(x,t)|^2 over "
                        f"frames after t=0 (pass: >= min({CONTRAST_BANDS:g} bands, "
                        f"{CONTRAST_KS_CAP:g}))")
            )
        worst, band = max(guidance_ks), ks_band(config.n_samples)
        verdicts.append(
            Verdict("guidance-equivariance", worst <= band, worst, band,
                    "guidance-law positions stay |psi(x,t)|^2-distributed",
                    "worst KS statistic against |psi(x,t)|^2 over all frames")
        )
    return suite.result(verdicts, {"norm_factor": sup.norm_factor, "packet_overlap": sup.overlap},
                        **ensembles)


def _run_macroscopic(config: ScenarioConfig, grid: GridSpec, potential: Potential) -> RunResult:
    sup = superposition_state(grid, config.a, config.sigma)
    regions = [
        region_1d("origin", -abs(config.a) / 2.0, abs(config.a) / 2.0),
        region_1d("plus", abs(config.a) / 2.0 + 1e-12, 3 * abs(config.a) / 2.0),
        region_1d("minus", -3 * abs(config.a) / 2.0, -abs(config.a) / 2.0 - 1e-12),
    ] if config.a != 0 else []
    suite = _simulate(config, sup.field, potential, regions)
    ens = suite.ensemble

    verdicts = [_fringe_density_verdict(grid, suite.frames[0], config, sup.norm_factor)]
    if regions:
        freqs = suite.rows[0]["macrostate_occupancy"]  # the suite's t = 0 occupancy
        occ = freqs["origin"]["frequency"]
        away = freqs["plus"]["frequency"] + freqs["minus"]["frequency"]
        verdicts += [
            Verdict("origin-occupancy", occ >= 0.99, occ, 0.99,
                    "the superposed pointer concentrates at the origin",
                    "t=0 occupancy of the origin region (pass: >= 0.99)"),
            Verdict("shifted-regions-empty", away <= 0.005, away, 0.005,
                    "no occupancy at the macroscopically shifted locations",
                    "t=0 occupancy of the +-a regions"),
        ]

    # bin-wise density bound against a reference single-packet run
    _, ref_ens = _trajectories(config, gaussian_state(grid, sigma=config.sigma), potential)
    bounds = [(grid.positions(0)[0], grid.positions(0)[-1])]
    n = config.n_samples

    def bin_fractions(e: Ensemble) -> np.ndarray:
        (edges,), density = rho_histogram(e.history.x[-1], config.histogram_bins, bounds,
                                          e.history.status[-1] == TrajStatus.ACTIVE)
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
    return suite.result(verdicts, {"norm_factor": sup.norm_factor}, reference=ref_ens)


# -- scenario: measurement with environment -------------------------------------------


def _run_measurement(config: ScenarioConfig, grid: GridSpec, potential: Potential) -> RunResult:
    c1 = np.sqrt(config.c1_sq)
    c2 = np.sqrt(1.0 - config.c1_sq)
    ms = measurement_state(grid, config.a, config.dpe, c1, c2,
                           config.sigma, config.sigma_env)
    # the pointer's outcome regions around +a and -a; sorted, so that a < 0 works too
    half = config.a / 2.0
    plus = tuple(sorted((half, 3 * config.a - half)))
    regions = [Region("plus", (plus, None)), Region("minus", ((-plus[1], -plus[0]), None))]
    suite = _simulate(config, ms.field, potential, regions)
    ens = suite.ensemble

    # factorized momentum density against the analytic mixture
    pointer = _momentum_gaussian(grid.momenta(0), config.sigma, grid.hbar)
    env = lambda b: _momentum_gaussian(grid.momenta(1), config.sigma_env, grid.hbar, b)
    term1 = ms.weights[0] * np.outer(pointer, env(config.dpe / 2.0))
    term2 = ms.weights[1] * np.outer(pointer, env(-config.dpe / 2.0))
    pred = term1 + term2
    mask = (term1 > 1e-10) | (term2 > 1e-10)
    dens_err = float(np.abs(suite.frames[0].psi_p.density() - pred)[mask].max())

    freqs = suite.rows[0]["macrostate_occupancy"]  # the suite's t = 0 occupancy
    w1, w2 = ms.weights
    band1 = 4.0 * np.sqrt(w1 * (1 - w1) / config.n_samples)
    band2 = 4.0 * np.sqrt(w2 * (1 - w2) / config.n_samples)
    f_plus, f_minus = freqs["plus"]["frequency"], freqs["minus"]["frequency"]
    dev1 = abs(f_plus - w1)
    dev2 = abs(f_minus - w2)
    confined = f_plus + f_minus

    # pointer-region transition counts over the run (reported, no claim tested)
    region_ids = np.full(ens.history.x.shape[:2], -1, dtype=np.int8)
    for rid, reg in enumerate(regions):
        for f in range(len(suite.frames)):
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
    return suite.result(verdicts, {"env_overlap": ms.env_overlap, "weights": list(ms.weights),
                                   "pointer_region_transitions": transitions})


# -- scenario: effective collapse -------------------------------------------------------


SILENT_AMPLITUDE = 1e-10
SUPPORT_AMPLITUDE = 1e-5
MIN_SILENT_CELLS = 10


def _run_collapse(config: ScenarioConfig, grid: GridSpec, potential: Potential) -> RunResult:
    state = two_packet_momentum_state(grid, config.delta_p, config.sigma)
    branch_frames = collect_frames(state.branches[0], potential,
                                   PropagatorConfig(config.dt, config.steps_per_frame),
                                   config.n_steps(), config.mass)

    # Collapse's checks read each block of frames after the suite; the branch's
    # block of the same frames gives the branch's x(p) and closed-form current.
    p = grid.momenta(0)
    weight = state.branch_weights[0]
    in_branch = None  # rows seeded in the branch, set at frame 0
    gap_cells: list[int] = []
    decomp_worst = 0.0
    track_worst = 0.0
    pairs_closed: list[tuple[float, float]] = []
    pairs_poisson: list[tuple[float, float]] = []

    def on_block(block: FrameBlock, lo: int, p_traj: np.ndarray, x: np.ndarray,
                 status: np.ndarray) -> None:
        nonlocal in_branch, decomp_worst, track_worst
        if lo == 0:
            in_branch = p_traj[0, :, 0] > 0.0
        br = FrameBlock(branch_frames[lo:lo + len(block.frames)], potential,
                        CurrentMethod.CLOSED_FORM)
        for f, fr in enumerate(block.frames):
            amp = np.abs(fr.psi_p.values)
            silent = amp < SILENT_AMPLITUDE * amp.max()
            rho = fr.psi_p.density()
            upper = p > np.sum(p * rho) / rho.sum()
            hi_peak = p[upper][np.argmax(rho[upper])]
            lo_peak = p[~upper][np.argmax(rho[~upper])]
            gap_cells.append(int(np.sum(silent & (p > lo_peak) & (p < hi_peak))))

            br_amp = np.abs(br.frames[f].psi_p.values)
            supp = br_amp >= SUPPORT_AMPLITUDE * br_amp.max()
            j_full = block.current_of(CurrentMethod.CLOSED_FORM).components[0, f]
            j_br = weight * br.current_of(CurrentMethod.CLOSED_FORM).components[0, f]
            den = np.linalg.norm(j_br[supp])
            if den > 1e-12:
                decomp_worst = max(decomp_worst,
                                   float(np.linalg.norm((j_full - j_br)[supp]) / den))
            act = (status[f] == TrajStatus.ACTIVE) & in_branch
            if act.any():
                vals, ok, inside, _ = interpolate_masked(br.position_at(f), p_traj[f][act])
                good = ok & inside
                if good.any():
                    track_worst = max(track_worst,
                                      float(np.abs(x[f][act][good] - vals[good]).max()))

            gap = silent & (np.abs(p) < config.delta_p / 2.0)
            if gap.any():
                jp = block.current_of(CurrentMethod.POISSON).components[0, f]
                pairs_closed.append((float(np.abs(j_full[gap]).max()),
                                     float(np.abs(j_full).max())))
                pairs_poisson.append((float(np.abs(jp[gap]).max()), float(np.abs(jp).max())))

    suite = _simulate(config, state.field, potential, on_block=on_block)
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

    return suite.result(verdicts, {
        "norm_factor": state.norm_factor,
        "gap_current_leakage": {"closed": leak_of(pairs_closed),
                                "poisson": leak_of(pairs_poisson)},
        "min_silent_gap_cells": min_gap,
    })


# -- scenario: harmonic coherent / ground state ------------------------------------------


def _force_residual(hist: EnsembleHistory,
                    restoring: Callable[[np.ndarray], np.ndarray | float]) -> float:
    """max |dp/dt + restoring(x)| over the frames two or more from either end and
    the rows active at the last frame, dp/dt by 5-point central differences;
    `_worst` takes it frame by frame.

    Needs at least 5 frames, which run_scenario checks against
    ScenarioDef.min_frames before the run starts.
    """
    p, x = hist.p[..., 0], hist.x[..., 0]
    twelve_dt = 12.0 * float(hist.times[1] - hist.times[0])
    return _worst(hist, lambda f: (p[f - 2] - 8.0 * p[f - 1] + 8.0 * p[f + 1] - p[f + 2])
                  / twelve_dt + restoring(x[f]),
                  range(2, len(hist.times) - 2), hist.status[-1] == TrajStatus.ACTIVE)


def _classical_force_verdicts(hist: EnsembleHistory, config: ScenarioConfig) -> list[Verdict]:
    k = config.mass * config.omega**2
    resid = _force_residual(hist, lambda x: k * x)
    out = [
        Verdict("classical-force-relation", resid <= 1e-4, resid, 1e-4,
                "dp/dt = -m w^2 x along recorded histories",
                "max |dp/dt + m w^2 x| by 5-point central differences at frame resolution"),
    ]
    if config.displacement == 0.0:
        always = hist.status[-1] == TrajStatus.ACTIVE
        xmax = _worst(hist, lambda f: hist.x[f], rows=always)
        pdrift = _worst(hist, lambda f: hist.p[f] - hist.p[0], rows=always)
        out += [
            Verdict("ground-position-frozen", xmax <= 1e-4, xmax, 1e-4,
                    "ground-state trajectories sit at the origin", "max |x_i(t)|"),
            Verdict("ground-momentum-frozen", pdrift <= 1e-4, pdrift, 1e-4,
                    "ground-state momenta are frozen", "max |p_i(t) - p_i(0)|"),
        ]
    return out


def _run_harmonic(config: ScenarioConfig, grid: GridSpec, potential: Potential) -> RunResult:
    suite = _simulate(config, coherent_state(grid, config.displacement, config.mass,
                                             config.omega), potential)

    # the grid mean, which the suite computed at every frame, tracks the classical orbit
    worst_mean = max(abs(row["moments"]["mean_grid"][0]
                         - config.displacement * np.cos(config.omega * row["time"]))
                     for row in suite.rows)
    verdicts = [
        Verdict("mean-tracks-classical-orbit", worst_mean <= 1e-5, worst_mean, 1e-5,
                "the position expectation follows the classical oscillation",
                "max |<x>(t) - x0 cos(w t)| over frames"),
    ]
    return suite.result(verdicts + _classical_force_verdicts(suite.ensemble.history, config))


# -- scenario: linear drift ----------------------------------------------------------------


def _run_linear(config: ScenarioConfig, grid: GridSpec, potential: Potential) -> RunResult:
    suite = _simulate(config, gaussian_state(grid, sigma=config.sigma), potential)
    hist = suite.ensemble.history
    law = _worst(hist, lambda f: hist.p[f] - (hist.p[0] - config.linear_coeff * hist.times[f]))
    force = _force_residual(hist, lambda x: config.linear_coeff)

    verdicts = [
        Verdict("constant-force-momentum-law", law <= 1e-8, law, 1e-8,
                "momenta fall at the classical rate -c",
                "max |p_i(t) - (p_i(0) - c t)| over frames"),
        Verdict("classical-force-relation", force <= 1e-4, force, 1e-4,
                "dp/dt equals minus the potential slope",
                "max |dp/dt + c| by 5-point central differences"),
    ]
    return suite.result(verdicts)


# -- registry ---------------------------------------------------------------------------


# The fields every run reads; a scenario's params name the rest of its inputs.
COMMON_FIELDS = ("name", "n_samples", "seed", "grid_points", "grid_extent", "dt",
                 "steps_per_frame", "t_final", "mass", "hbar", "current", "traj_csv_limit")

_BINS_DOC = "bins of the final position histogram"


@dataclass(frozen=True)
class ScenarioDef:
    """A catalog entry; run_scenario hands `runner` a `dof`-axis grid and the `potential`."""

    name: str
    runner: Callable[[ScenarioConfig, GridSpec, Potential], RunResult]
    dof: int
    potential: Callable[[ScenarioConfig], Potential]
    defaults: dict
    summary: str
    claims: tuple[str, ...]
    params: tuple[tuple[str, str], ...]  # (field, doc): every input beyond COMMON_FIELDS
    min_frames: int = 2


SCENARIOS: dict[str, ScenarioDef] = {
    "free-particle": ScenarioDef(
        "free-particle", _run_free_particle, 1, lambda c: Free(),
        {"grid_extent": 80.0, "t_final": 5.0},
        "Free Gaussian: straight-line trajectories x = p t / m through the origin.",
        ("free-trajectory-law", "origin-concentration", "transported-density",
         "moment-identity", "variance-bound", "equivariance", "continuity"),
        (("sigma", "packet width"), ("histogram_bins", _BINS_DOC)),
    ),
    "superposition": ScenarioDef(
        "superposition", _run_superposition, 1, lambda c: Free(),
        {"a": 5.0, "grid_extent": 45.0, "t_final": 1.0, "steps_per_frame": 20,
         "model": "both"},
        "Two shifted free packets: fringe-modulated momentum density, all t=0 "
        "positions at the origin regardless of the shift; guidance-model contrast.",
        ("fringe-momentum-density", "origin-concentration-shift-independent",
         "guidance-bimodality", "guidance-equivariance", "readout-contrast",
         "moment-identity", "equivariance"),
        (("a", "packet shift (warn when below 3 sigma)"), ("sigma", "packet width"),
         ("model", "epstein, or both for the guidance-law contrast"),
         ("histogram_bins", _BINS_DOC)),
    ),
    "macroscopic": ScenarioDef(
        "macroscopic", _run_macroscopic, 1, lambda c: Free(),
        {"a": 6.0, "grid_extent": 45.0, "t_final": 1.0, "steps_per_frame": 20},
        "Superposed pointer without environment: occupancy concentrates at the "
        "origin and the density obeys the twice-bare-pointer bound.",
        ("origin-occupancy", "density-bound", "fringe-momentum-density"),
        (("a", "pointer displacement"), ("sigma", "pointer packet width"),
         ("histogram_bins", _BINS_DOC)),
    ),
    "measurement": ScenarioDef(
        "measurement", _run_measurement, 2, lambda c: Free(),
        {"a": 6.0, "dpe": 12.0, "grid_points": 256, "t_final": 0.5,
         "steps_per_frame": 100, "c1_sq": 0.5},
        "Pointer plus momentum-kicked environment: factorized momentum density "
        "and Born-weight outcome frequencies.",
        ("factorized-momentum-density", "born-weights", "pointer-confinement",
         "moment-identity", "equivariance"),
        (("a", "pointer displacement"),
         ("dpe", "environment momentum separation (reject when packets overlap)"),
         ("c1_sq", "first outcome weight |c1|^2"), ("sigma", "pointer packet width"),
         ("sigma_env", "environment packet width"),
         ("grid_points2", "environment axis points (0: grid_points)"),
         ("grid_extent2", "environment axis extent (0: grid_extent)")),
    ),
    "collapse": ScenarioDef(
        "collapse", _run_collapse, 1, lambda c: Harmonic(c.mass, c.omega),
        {"delta_p": 18.0, "t_final": 0.4, "omega": 1.0},
        "Two separated momentum packets under a harmonic potential: branch-wise "
        "current decomposition, single-branch trajectory dependence, and the "
        "Poisson-route leakage report.",
        ("branch-current-decomposition", "single-branch-tracking",
         "silent-gap-maintained", "poisson-leakage-report", "current-cross-validation"),
        (("delta_p", "packet momentum separation; supports must stay separated to t_final"),
         ("sigma", "width of each packet"), ("omega", "oscillator frequency"),
         ("histogram_bins", _BINS_DOC)),
    ),
    "harmonic-coherent": ScenarioDef(
        "harmonic-coherent", _run_harmonic, 1, lambda c: Harmonic(c.mass, c.omega),
        {"displacement": 2.0, "dt": float(np.pi / 3200.0), "t_final": float(np.pi),
         "steps_per_frame": 10},
        "Coherent state: equivariance under oscillation, classical-force relation, "
        "continuity residual, and the 1d current cross-validation.",
        ("classical-force", "equivariance", "continuity", "current-cross-validation"),
        (("displacement", "initial offset (0 freezes the ground state)"),
         ("omega", "oscillator frequency"), ("histogram_bins", _BINS_DOC)),
        min_frames=5,  # 5-point central-difference dp/dt
    ),
    "linear-drift": ScenarioDef(
        "linear-drift", _run_linear, 1, lambda c: Linear(c.linear_coeff),
        {"linear_coeff": 2.0, "t_final": 1.0},
        "Uniform-force drift: p(t) = p(0) - c t, translation-covariant equivariance, "
        "continuity residual, and the 1d current cross-validation.",
        ("constant-force-momentum-law", "equivariance", "continuity",
         "current-cross-validation"),
        (("linear_coeff", "potential slope c"), ("sigma", "packet width"),
         ("histogram_bins", _BINS_DOC)),
        min_frames=5,  # 5-point central-difference dp/dt
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
    default = default_config(config.name)  # rejects an unknown name
    sdef = SCENARIOS[config.name]
    reads = set(COMMON_FIELDS).union(name for name, _ in sdef.params)
    for f in dataclasses.fields(config):
        value, kept = getattr(config, f.name), getattr(default, f.name)
        if f.name not in reads and value != kept:
            raise ConfigurationError(
                f"scenario {config.name!r} does not read {f.name} (list-scenarios shows "
                f"what it reads); leave it at {kept!r}, got {value!r}"
            )
    if config.n_frames() < sdef.min_frames:
        raise ConfigurationError(
            f"scenario {config.name!r} needs at least {sdef.min_frames} frames, got "
            f"{config.n_frames()} from t_final={config.t_final}, dt={config.dt}, "
            f"steps_per_frame={config.steps_per_frame}"
        )
    result = sdef.runner(config, _grid_for(config, sdef.dof), sdef.potential(config))
    if sdef.dof == 1:
        result.diagnostics["out_of_order_pairs"] = sum(row["out_of_order_pairs"]
                                                       for row in result.stats_rows)
    return result


def coverage_manifest() -> dict[str, dict]:
    """Map each scenario to the physics claims its verdicts exercise."""
    return {
        name: {"summary": d.summary, "claims": list(d.claims)}
        for name, d in SCENARIOS.items()
    }
