"""Trial simulation, calibration, and operating characteristics.

Subjects follow a two-arm Weibull model in which the treatment arm may
change both the rate and the shape, so the hazard ratio can move over
time (shape_offset != 0) or stay proportional (shape_offset == 0).
Covariates scale the rate through a shared log-linear term. Entry is
staggered uniformly over the accrual window and the trial locks at
``accrual + tau``, giving every subject the full horizon of potential
follow-up.

Calibration runs in three steps: root-find the treatment rate offset
that zeroes the true restricted-mean difference, measure the
information trajectory by Monte Carlo to place the analysis times and
the information cap, then root-find the offset hitting a target power
for a fixed test at full information.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm

from .adjusted_rmst import AnalysisResult, _require_events, analyze
from .errors import ConfigError, DataError, EstimationError
from .gs_design import DesignConfig, MonitoringState, SpendingFunction, update_monitoring
from .km_rmst import km_rmst_test
from .stratified_cox import fit as cox_fit
from .trial_data import Snapshot, SubjectRecord, snapshot_from_arrays

__all__ = [
    "SimScenario",
    "InformationCalibration",
    "PowerCalibration",
    "OperatingCharacteristics",
    "draw_trial",
    "true_rmst",
    "true_survival",
    "hazard_ratio",
    "average_hazard_ratio",
    "calibrate_null",
    "calibrate_information",
    "calibrate_power",
    "cox_hr_test",
    "run_study",
    "curve_table",
]

SCENARIO_SCHEMA = "rmstgst.scenario/1"
CALIBRATION_SCHEMA = "rmstgst.calibration/1"

COVARIATE_KINDS = ("normal1", "bernoulli2")
CENSORING_KINDS = ("5pct_per_year", None)

_YEARLY_5PCT_RATE = -math.log(0.95)


@dataclass(frozen=True)
class SimScenario:
    """One simulated-trial configuration.

    Event times are Weibull with survival exp(-rate * t**shape) where
    shape = shape_base + shape_offset * arm and rate scales as
    rate_base * exp(log_rate_ratio * arm + b'Z); each covariate gets
    coefficient covariate_strength / sqrt(p). ``covariates`` picks one
    standard normal ("normal1") or standardized Bernoulli(0.3) and
    Bernoulli(0.5) ("bernoulli2"). Censoring is exponential at 5% per
    year or absent. Entry is uniform on [0, accrual].
    """

    n_per_arm: int = 200
    tau: float = 1.0
    accrual: float = 2.0
    shape_base: float = 1.5
    shape_offset: float = 0.0
    rate_base: float = -math.log(0.4)
    log_rate_ratio: float = 0.0
    covariate_strength: float = 0.0
    covariates: str = "normal1"
    censoring: str | None = "5pct_per_year"
    fractions: tuple[float, ...] = (0.5, 0.75, 1.0)

    def __post_init__(self):
        if self.n_per_arm < 1:
            raise ConfigError(f"n_per_arm must be >= 1, got {self.n_per_arm}")
        if not (self.tau > 0 and self.accrual >= 0):
            raise ConfigError("tau must be > 0 and accrual >= 0")
        if self.covariates not in COVARIATE_KINDS:
            raise ConfigError(f"covariates must be one of {COVARIATE_KINDS}, got {self.covariates!r}")
        if self.censoring not in CENSORING_KINDS:
            raise ConfigError(f"censoring must be one of {CENSORING_KINDS}, got {self.censoring!r}")
        if not (self.shape_base > 0 and self.shape_base + self.shape_offset > 0):
            raise ConfigError("both arms need positive Weibull shape")
        if not (self.rate_base > 0):
            raise ConfigError("rate_base must be > 0")
        fr = tuple(float(x) for x in self.fractions)
        if not fr or any(b <= a for a, b in zip(fr, fr[1:])) or fr[-1] != 1.0 or fr[0] <= 0:
            raise ConfigError("fractions must increase within (0, 1] and end at 1.0")

    @property
    def n_covariates(self) -> int:
        return 1 if self.covariates == "normal1" else 2

    @property
    def coefficients(self) -> np.ndarray:
        p = self.n_covariates
        return np.full(p, self.covariate_strength / math.sqrt(p))

    @property
    def total_duration(self) -> float:
        """Calendar time of the final analysis: accrual plus the horizon."""
        return self.accrual + self.tau

    @property
    def censoring_rate(self) -> float:
        return _YEARLY_5PCT_RATE if self.censoring == "5pct_per_year" else 0.0

    def arm_shape(self, arm: int) -> float:
        return self.shape_base + self.shape_offset * arm

    def to_dict(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA,
            "n_per_arm": self.n_per_arm,
            "tau": self.tau,
            "accrual": self.accrual,
            "shape_base": self.shape_base,
            "shape_offset": self.shape_offset,
            "rate_base": self.rate_base,
            "log_rate_ratio": self.log_rate_ratio,
            "covariate_strength": self.covariate_strength,
            "covariates": self.covariates,
            "censoring": self.censoring,
            "fractions": list(self.fractions),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimScenario":
        if not isinstance(d, dict):
            raise ConfigError("scenario must be a JSON object")
        schema = d.get("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ConfigError(f"unsupported scenario schema {schema!r}")
        kwargs = {}
        for f in (
            "n_per_arm", "tau", "accrual", "shape_base", "shape_offset", "rate_base",
            "log_rate_ratio", "covariate_strength", "covariates", "censoring",
        ):
            if f in d:
                kwargs[f] = d[f]
        if "fractions" in d:
            kwargs["fractions"] = tuple(d["fractions"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad scenario config: {exc}") from exc


def _covariate_atoms(scn: SimScenario, normal_nodes: int = 80):
    """Discrete covariate support (rows) and weights for exact mixing.

    The normal covariate uses Gauss-Hermite nodes; the Bernoulli pair is
    enumerated exactly.
    """
    if scn.covariates == "normal1":
        x, w = np.polynomial.hermite.hermgauss(normal_nodes)
        return (math.sqrt(2.0) * x)[:, None], w / math.sqrt(math.pi)
    atoms = []
    weights = []
    for b1, q1 in ((0, 0.7), (1, 0.3)):
        for b2, q2 in ((0, 0.5), (1, 0.5)):
            z1 = (b1 - 0.3) / math.sqrt(0.3 * 0.7)
            z2 = (b2 - 0.5) / math.sqrt(0.5 * 0.5)
            atoms.append((z1, z2))
            weights.append(q1 * q2)
    return np.asarray(atoms), np.asarray(weights)


def _atom_rates(scn: SimScenario, arm: int, atoms: np.ndarray) -> np.ndarray:
    lin = atoms @ scn.coefficients
    return scn.rate_base * np.exp(scn.log_rate_ratio * arm + lin)


def true_survival(scn: SimScenario, arm: int, t) -> np.ndarray:
    """Marginal survival P(T > t) for one arm, covariates mixed out."""
    atoms, weights = _covariate_atoms(scn)
    rates = _atom_rates(scn, arm, atoms)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    shape = scn.arm_shape(arm)
    s = np.exp(-rates[None, :] * t[:, None] ** shape) @ weights
    return s


def true_rmst(scn: SimScenario, arm: int, tau: float | None = None) -> float:
    """Restricted mean survival time of one arm by adaptive quadrature."""
    tau = scn.tau if tau is None else float(tau)
    atoms, weights = _covariate_atoms(scn)
    rates = _atom_rates(scn, arm, atoms)
    shape = scn.arm_shape(arm)

    def surv(t: float) -> float:
        return float(np.exp(-rates * t**shape) @ weights)

    value, err = quad(surv, 0.0, tau, epsabs=1e-10, epsrel=1e-10, limit=200)
    return float(value)


def true_delta(scn: SimScenario, tau: float | None = None) -> float:
    return true_rmst(scn, 1, tau) - true_rmst(scn, 0, tau)


def hazard_ratio(scn: SimScenario, t) -> np.ndarray:
    """Treatment-to-control hazard ratio at fixed covariates.

    Equals (shape1/shape0) * exp(log_rate_ratio) * t**shape_offset; free
    of the covariates, which scale both hazards alike.
    """
    t = np.asarray(t, dtype=np.float64)
    lead = (scn.arm_shape(1) / scn.arm_shape(0)) * math.exp(scn.log_rate_ratio)
    return lead * t**scn.shape_offset


def average_hazard_ratio(scn: SimScenario) -> float:
    """Event-weighted mean hazard ratio over [0, tau].

    Weights are the density of events observed by the end of the trial:
    arm-mixed (1:1) event densities thinned by the censoring survival
    function. Administrative censoring never bites inside [0, tau]
    because the lock sits at accrual + tau. One number cannot summarize
    a crossing hazard ratio; this weighting is reported alongside the
    value wherever it is printed.
    """
    atoms, weights = _covariate_atoms(scn)
    crate = scn.censoring_rate

    def arm_event_density(arm: int, t: float) -> float:
        shape = scn.arm_shape(arm)
        rates = _atom_rates(scn, arm, atoms)
        dens = rates * shape * t ** (shape - 1.0) * np.exp(-rates * t**shape)
        return float(dens @ weights)

    def weighted(t: float) -> float:
        return 0.5 * (arm_event_density(0, t) + arm_event_density(1, t)) * math.exp(-crate * t)

    def numerator(t: float) -> float:
        return weighted(t) * float(hazard_ratio(scn, t))

    den, _ = quad(weighted, 0.0, scn.tau, epsabs=1e-11, epsrel=1e-11, limit=400)
    num, _ = quad(numerator, 0.0, scn.tau, epsabs=1e-11, epsrel=1e-11, limit=400)
    return num / den


def weibull_time_from_uniform(u: float, shape: float, rate: float) -> float:
    """Invert S(t) = exp(-rate * t**shape) at survival quantile ``u``."""
    return (-math.log(u) / rate) ** (1.0 / shape)


def _draw_covariates(scn: SimScenario, n: int, rng) -> np.ndarray:
    if scn.covariates == "normal1":
        return rng.standard_normal((n, 1))
    b1 = rng.random(n) < 0.3
    b2 = rng.random(n) < 0.5
    z1 = (b1 - 0.3) / math.sqrt(0.3 * 0.7)
    z2 = (b2 - 0.5) / math.sqrt(0.5 * 0.5)
    return np.column_stack([z1, z2])


def _draw_arm_arrays(scn: SimScenario, arm: int, n: int, rng):
    """Vectorized subject draws for one arm; field order fixed for determinism."""
    z = _draw_covariates(scn, n, rng)
    u01 = rng.random(n)
    shape = scn.arm_shape(arm)
    rates = scn.rate_base * np.exp(scn.log_rate_ratio * arm + z @ scn.coefficients)
    t = (-np.log1p(-u01) / rates) ** (1.0 / shape)
    if scn.censoring_rate > 0:
        c = rng.exponential(1.0 / scn.censoring_rate, size=n)
    else:
        c = np.full(n, np.inf)
    entry = rng.uniform(0.0, scn.accrual, size=n) if scn.accrual > 0 else np.zeros(n)
    x = np.minimum(t, c)
    d = (t <= c).astype(np.int8)
    return entry, x, d, z


def _draw_trial_arrays(scn: SimScenario, rng):
    parts = [_draw_arm_arrays(scn, arm, scn.n_per_arm, rng) for arm in (0, 1)]
    entry = np.concatenate([p[0] for p in parts])
    x = np.concatenate([p[1] for p in parts])
    d = np.concatenate([p[2] for p in parts])
    z = np.vstack([p[3] for p in parts])
    arm = np.repeat(np.array([0, 1], dtype=np.int8), scn.n_per_arm)
    return entry, x, d, arm, z


def draw_trial(scn: SimScenario, rng) -> list[SubjectRecord]:
    """Draw a full trial as records, arm 0 first then arm 1."""
    entry, x, d, arm, z = _draw_trial_arrays(scn, rng)
    return [
        SubjectRecord(
            subject_id=f"s{i}",
            arm=int(arm[i]),
            entry_time=float(entry[i]),
            followup_time=float(x[i]),
            event=int(d[i]),
            covariates=tuple(float(v) for v in z[i]),
        )
        for i in range(entry.size)
    ]


def _rng_for_replicate(master_seed: int, rep: int):
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(rep,)))


def calibrate_null(scn: SimScenario, bracket: tuple[float, float] = (-5.0, 5.0)) -> float:
    """Treatment rate offset that equalizes the arms' true restricted means.

    Root-found with Brent's method on the stated bracket; the returned
    offset leaves a restricted-mean gap below 1e-8 in absolute value.
    """
    mu0 = true_rmst(scn, 0)

    def gap(b: float) -> float:
        return true_rmst(replace(scn, log_rate_ratio=b), 1) - mu0

    lo, hi = bracket
    root = float(brentq(gap, lo, hi, xtol=1e-12, rtol=8.9e-16))
    residual = gap(root)
    if abs(residual) >= 1e-8:
        raise EstimationError(f"null calibration residual {residual:.2e} exceeds 1e-8")
    return root


def cox_hr_test(snap: Snapshot) -> AnalysisResult:
    """Wald test of no treatment effect in an unstratified hazards model.

    Refits a single-stratum model with the treatment indicator prepended
    to the covariates and tests its coefficient, with the same event
    horizon min(u, tau) as the restricted-mean analyses. Returns the
    ``"cox"`` :class:`AnalysisResult`, whose ``delta`` is the treatment
    log hazard ratio; it has no arm means.
    """
    _require_events(snap)
    z_aug = np.column_stack([snap.arm.astype(np.float64), snap.z])
    pooled = Snapshot(
        u=snap.u, tau=snap.tau, arm=np.zeros(snap.n, dtype=np.int8),
        time=snap.time, event=snap.event, z=z_aug,
    )
    fitted = cox_fit(pooled)
    cov = np.linalg.inv(fitted.info)
    return AnalysisResult(
        method="cox", u=snap.u, tau=snap.tau, delta=float(fitted.beta[0]),
        info_level=1.0 / cov[0, 0],
    )


# Analysis methods by name. ``calibrate_information`` reads the first
# column of its final-analysis information as the adjusted method's.
METHODS = {"adjusted": analyze, "km": km_rmst_test, "cox": cox_hr_test}


@dataclass(frozen=True)
class InformationCalibration:
    """Monte Carlo information trajectory and the analysis schedule it implies.

    ``i_max`` caps the adjusted method's information at the final
    analysis; the comparators carry their own caps on their own scales.
    ``analysis_times`` hit the scenario's information fractions on the
    mean adjusted trajectory; the last one is the trial end.
    """

    fractions: tuple[float, ...]
    analysis_times: tuple[float, ...]
    i_max: float
    i_max_by_method: dict[str, float]
    grid: tuple[float, ...]
    mean_info: tuple[float, ...]
    reps: int
    master_seed: int
    failures: int

    def to_dict(self) -> dict:
        return {
            "schema": CALIBRATION_SCHEMA,
            "fractions": list(self.fractions),
            "analysis_times": list(self.analysis_times),
            "i_max": self.i_max,
            "i_max_by_method": dict(self.i_max_by_method),
            "grid": list(self.grid),
            "mean_info": list(self.mean_info),
            "reps": self.reps,
            "master_seed": self.master_seed,
            "failures": self.failures,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InformationCalibration":
        if not isinstance(d, dict):
            raise ConfigError("calibration must be a JSON object")
        if d.get("schema") != CALIBRATION_SCHEMA:
            raise ConfigError(f"unsupported calibration schema {d.get('schema')!r}")
        try:
            return cls(
                fractions=tuple(d["fractions"]),
                analysis_times=tuple(d["analysis_times"]),
                i_max=float(d["i_max"]),
                i_max_by_method={k: float(v) for k, v in d["i_max_by_method"].items()},
                grid=tuple(d["grid"]),
                mean_info=tuple(d["mean_info"]),
                reps=int(d["reps"]),
                master_seed=int(d["master_seed"]),
                failures=int(d["failures"]),
            )
        except KeyError as exc:
            raise ConfigError(f"calibration is missing key {exc.args[0]!r}") from exc


def _information_worker(args):
    scn, master_seed, reps_slice, grid = args
    rows = np.full((len(reps_slice), len(grid)), np.nan)
    finals = np.full((len(reps_slice), len(METHODS)), np.nan)
    tau = scn.tau
    for i, rep in enumerate(reps_slice):
        rng = _rng_for_replicate(master_seed, rep)
        entry, x, d, arm, z = _draw_trial_arrays(scn, rng)
        for j, u in enumerate(grid):
            try:
                snap = snapshot_from_arrays(entry, x, d, arm, z, u=u, tau=tau)
                rows[i, j] = analyze(snap).info_level
            except (DataError, EstimationError):
                pass
        try:
            snap = snapshot_from_arrays(entry, x, d, arm, z, u=grid[-1], tau=tau)
        except DataError:
            continue
        for k, run in enumerate(METHODS.values()):
            try:
                finals[i, k] = run(snap).info_level
            except EstimationError:
                pass
    return rows, finals


def calibrate_information(scn: SimScenario, reps: int = 1000, master_seed: int = 20200920,
                          grid_step: float = 0.1, threads: int = 1) -> InformationCalibration:
    """Monte Carlo placement of analysis times and the information cap.

    Simulates ``reps`` trials, measures mean adjusted information on a
    calendar grid (step ``grid_step``) up to the trial end, and inverts
    the running-max trajectory at the scenario's fractions by linear
    interpolation. The final fraction maps to the trial end exactly.
    Comparator information caps are measured on the same replicates at
    the trial end.
    """
    if reps < 100:
        raise ConfigError(f"information calibration needs reps >= 100, got {reps}")
    total = scn.total_duration
    grid = np.arange(grid_step, total + 1e-9, grid_step)
    if grid.size == 0 or grid[-1] < total - 1e-9:
        grid = np.append(grid, total)
    grid[-1] = total
    rows, finals = _map_replicates(
        _information_worker, scn, master_seed, reps, threads, extra=(tuple(grid),),
    )
    ok = np.sum(~np.isnan(rows), axis=0)
    usable = ok >= max(1, int(0.9 * reps))
    if not usable[-1]:
        raise EstimationError("information calibration failed at the trial end; raise reps")
    mean_info = np.where(ok > 0, np.nansum(rows, axis=0) / np.maximum(ok, 1), np.nan)
    grid_u = grid[usable]
    traj = np.maximum.accumulate(mean_info[usable])
    i_max = float(traj[-1])
    times = []
    for f in scn.fractions:
        if f >= 1.0:
            times.append(total)
        else:
            times.append(float(np.interp(f * i_max, traj, grid_u)))
    if any(b <= a for a, b in zip(times, times[1:])):
        raise EstimationError(f"calibrated analysis times are not increasing: {times}; raise reps")
    i_by_method = {}
    for k, method in enumerate(METHODS):
        col = finals[:, k]
        if np.all(np.isnan(col)):
            continue
        i_by_method[method] = float(np.nanmean(col))
    i_by_method["adjusted"] = i_max
    failures = int(np.sum(np.isnan(finals[:, 0])))
    return InformationCalibration(
        fractions=tuple(float(f) for f in scn.fractions),
        analysis_times=tuple(times),
        i_max=i_max,
        i_max_by_method=i_by_method,
        grid=tuple(float(g) for g in grid_u),
        mean_info=tuple(float(v) for v in traj),
        reps=reps,
        master_seed=master_seed,
        failures=failures,
    )


@dataclass(frozen=True)
class PowerCalibration:
    """Effect size and rate offset hitting a target power at full information."""

    target_power: float
    alpha: float
    sided: str
    delta: float
    log_rate_ratio: float

    def to_dict(self) -> dict:
        return {
            "target_power": self.target_power,
            "alpha": self.alpha,
            "sidedness": self.sided,
            "delta": self.delta,
            "log_rate_ratio": self.log_rate_ratio,
        }


def _fixed_test_power(delta: float, i_max: float, alpha: float, sided: str) -> float:
    drift = delta * math.sqrt(i_max)
    if sided == "two_sided":
        crit = norm.isf(alpha / 2.0)
        return float(norm.sf(crit - drift) + norm.cdf(-crit - drift))
    crit = norm.isf(alpha)
    return float(norm.sf(crit - drift))


def calibrate_power(scn: SimScenario, calib: InformationCalibration,
                    target_power: float = 0.80, alpha: float = 0.05,
                    sided: str = "two_sided",
                    bracket: tuple[float, float] = (-5.0, 5.0)) -> PowerCalibration:
    """Rate offset at which a fixed final-analysis test hits the target power.

    First solves the restricted-mean difference ``delta`` giving the
    target power for a normal test at the calibrated full information,
    then root-finds the treatment rate offset whose true difference
    equals ``delta`` (within 1e-6). ``target_power`` equal to ``alpha``
    returns the null offset itself.
    """
    if not (0 < alpha < 1) or not (alpha <= target_power < 1):
        raise ConfigError("need alpha in (0,1) and target_power in [alpha, 1)")
    i_max = calib.i_max

    def power_gap(delta: float) -> float:
        return _fixed_test_power(delta, i_max, alpha, sided) - target_power

    delta = 0.0 if target_power <= alpha else float(
        brentq(power_gap, 0.0, scn.tau, xtol=1e-12, rtol=8.9e-16)
    )
    mu0 = true_rmst(scn, 0)

    def gap(b: float) -> float:
        return (true_rmst(replace(scn, log_rate_ratio=b), 1) - mu0) - delta

    root = float(brentq(gap, bracket[0], bracket[1], xtol=1e-12, rtol=8.9e-16))
    if abs(gap(root)) >= 1e-6:
        raise EstimationError("power calibration residual exceeds 1e-6")
    return PowerCalibration(
        target_power=target_power, alpha=alpha, sided=sided,
        delta=delta, log_rate_ratio=root,
    )


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Stagewise rejection summary of a simulated group-sequential study."""

    scenario: SimScenario
    methods: tuple[str, ...]
    analysis_times: tuple[float, ...]
    reps: int
    master_seed: int
    cumulative_rejection: dict[str, tuple[float, ...]]
    mc_se: dict[str, tuple[float, ...]]
    failures: dict[str, int]
    first_rejection_stage: dict[str, np.ndarray] = field(repr=False)
    estimates: dict[str, np.ndarray] | None = field(repr=False, default=None)
    info_levels: dict[str, np.ndarray] | None = field(repr=False, default=None)

    def to_rows(self) -> list[dict]:
        rows = []
        for m in self.methods:
            for k in range(len(self.analysis_times)):
                rows.append(
                    {
                        "method": m,
                        "stage": k + 1,
                        "cumulative_rejection": self.cumulative_rejection[m][k],
                        "mc_se": self.mc_se[m][k],
                    }
                )
        return rows


def _study_worker(args):
    scn, master_seed, reps_slice, times, methods = args
    n_stage = len(times)
    n_m = len(methods)
    infos = np.full((len(reps_slice), n_stage, n_m), np.nan)
    deltas = np.full((len(reps_slice), n_stage, n_m), np.nan)
    for i, rep in enumerate(reps_slice):
        rng = _rng_for_replicate(master_seed, rep)
        entry, x, d, arm, z = _draw_trial_arrays(scn, rng)
        for k, u in enumerate(times):
            try:
                snap = snapshot_from_arrays(entry, x, d, arm, z, u=u, tau=scn.tau)
            except DataError:
                continue
            for m, method in enumerate(methods):
                try:
                    r = METHODS[method](snap)
                except EstimationError:
                    continue
                infos[i, k, m] = r.info_level
                deltas[i, k, m] = r.delta
    return infos, deltas


def _map_replicates(worker, scn, master_seed, reps, threads, extra=()):
    """Run a replicate-indexed worker, serially or across processes.

    Results are identical for any thread count: replicates own their
    seed streams and results are reassembled in replicate order.
    """
    all_reps = list(range(reps))
    if threads <= 1:
        parts = [worker((scn, master_seed, all_reps, *extra))]
    else:
        chunk = max(1, math.ceil(reps / (threads * 4)))
        slices = [all_reps[i:i + chunk] for i in range(0, reps, chunk)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(worker, [(scn, master_seed, s, *extra) for s in slices]))
    return tuple(np.concatenate(cols, axis=0) for cols in zip(*parts))


def run_study(scn: SimScenario, spending: SpendingFunction, calib: InformationCalibration,
              reps: int = 2000, methods=("adjusted",), master_seed: int = 0,
              threads: int = 1, collect_estimates: bool = False) -> OperatingCharacteristics:
    """Simulate the scenario and monitor every replicate to a decision.

    Each replicate is analyzed at the calibrated calendar times with
    every requested method; each method is then monitored through the
    observed-information respending machinery against its own
    information cap, the last stage declared final. Analyses that fail
    (for example, no events in an arm) are counted per method and the
    stage is skipped for that replicate.

    Identical scenario, seed, and reps give bit-identical results for
    any ``threads``.
    """
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
        if m not in calib.i_max_by_method:
            raise ConfigError(f"calibration lacks an information cap for method {m!r}")
    times = calib.analysis_times
    n_stage = len(times)
    infos, deltas = _map_replicates(
        _study_worker, scn, master_seed, reps, threads, extra=(times, methods),
    )
    cumulative = {}
    mc_se = {}
    failures = {}
    first_stage = {}
    for m, method in enumerate(methods):
        design = DesignConfig(
            spending=spending,
            planned_fractions=scn.fractions,
            i_max=calib.i_max_by_method[method],
        )
        firsts = np.zeros(reps, dtype=np.int64)
        fail_count = 0
        for rep in range(reps):
            state = MonitoringState(design=design)
            for k in range(n_stage):
                info = infos[rep, k, m]
                if np.isnan(info):
                    fail_count += 1
                    continue
                state = update_monitoring(
                    state,
                    AnalysisResult(
                        method=method, u=times[k], tau=scn.tau,
                        delta=deltas[rep, k, m], info_level=info,
                    ),
                    final=(k == n_stage - 1),
                )
                if state.analyses[-1].decision == "reject":
                    firsts[rep] = k + 1
                    break
        first_stage[method] = firsts
        rej = np.array(
            [np.mean((firsts > 0) & (firsts <= k + 1)) for k in range(n_stage)]
        )
        cumulative[method] = tuple(float(r) for r in rej)
        mc_se[method] = tuple(float(math.sqrt(r * (1 - r) / reps)) for r in rej)
        failures[method] = fail_count
    return OperatingCharacteristics(
        scenario=scn,
        methods=methods,
        analysis_times=times,
        reps=reps,
        master_seed=master_seed,
        cumulative_rejection=cumulative,
        mc_se=mc_se,
        failures=failures,
        first_rejection_stage=first_stage,
        estimates={m: deltas[:, :, i] for i, m in enumerate(methods)} if collect_estimates else None,
        info_levels={m: infos[:, :, i] for i, m in enumerate(methods)} if collect_estimates else None,
    )


def curve_table(scn: SimScenario, n_points: int = 200) -> list[dict]:
    """Marginal survival and hazard-ratio curves on a time grid.

    The tabular stand-in for a survival/hazard-ratio plot: rows of
    (time, arm-0 survival, arm-1 survival, hazard ratio) from just above
    0 to tau.
    """
    ts = np.linspace(0.0, scn.tau, n_points + 1)[1:]
    s0 = true_survival(scn, 0, ts)
    s1 = true_survival(scn, 1, ts)
    hr = hazard_ratio(scn, ts)
    return [
        {"time": float(t), "survival_0": float(a), "survival_1": float(b), "hazard_ratio": float(h)}
        for t, a, b, h in zip(ts, s0, s1, hr)
    ]
