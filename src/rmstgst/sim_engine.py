"""Trial simulation, calibration, and operating characteristics.

Subjects follow a two-arm Weibull model in which the treatment arm may
change both the rate and the shape, so the hazard ratio can move over
time (shape_offset != 0) or stay proportional (shape_offset == 0).
Covariates scale the rate through a shared log-linear term. Entry is
staggered uniformly over the accrual window and the trial locks at
``accrual + tau``, giving every subject the full horizon of potential
follow-up.

True restricted means and the average hazard ratio mix the covariates
out over fixed atoms (Gauss-Hermite nodes or the Bernoulli support) and
integrate over [0, tau] on one fixed Gauss-Legendre rule, graded toward 0
by t = tau * s**4 so the survival curve of a Weibull shape below 1 is
smooth in s.

Calibration runs in three steps: bisect for the treatment rate offset
that zeroes the true restricted-mean difference, measure the
information trajectory by Monte Carlo to place the analysis times and
the information cap, then bisect for the offset hitting a target power
for a fixed test at full information.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial

import numpy as np

from .adjusted_rmst import AnalysisResult, _events_error, analyze
from .errors import ConfigError, DataError, EstimationError
from .gs_design import (
    DesignConfig, MonitoringState, SpendingFunction, _find_root, ndtr, ndtri, update_monitoring,
)
from .km_rmst import km_rmst_test
from .records import Record, dict_of, integer, list_of, number, optional, string
from .stratified_cox import fit as cox_fit
from .trial_data import Snapshot, Trial, snapshot

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
_NORMAL_NODES = 80  # Gauss-Hermite atoms of the normal covariate
_TIME_NODES = 48  # Gauss-Legendre nodes of the graded rule on [0, tau]


@dataclass(frozen=True)
class SimScenario(Record):
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

    _what, _error, _schema, _closed = "scenario", ConfigError, SCENARIO_SCHEMA, True
    _keys = (
        ("n_per_arm", "n_per_arm", integer),
        ("tau", "tau", number),
        ("accrual", "accrual", number),
        ("shape_base", "shape_base", number),
        ("shape_offset", "shape_offset", number),
        ("rate_base", "rate_base", number),
        ("log_rate_ratio", "log_rate_ratio", number),
        ("covariate_strength", "covariate_strength", number),
        ("covariates", "covariates", string),
        ("censoring", "censoring", optional(string)),
        ("fractions", "fractions", list_of(number)),
    )

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.type == "float"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
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


def _bernoulli_pair(b1, b2) -> np.ndarray:
    """Standardized Bernoulli(0.3) and Bernoulli(0.5) covariate columns."""
    return np.column_stack([(b1 - 0.3) / math.sqrt(0.3 * 0.7), (b2 - 0.5) / math.sqrt(0.5 * 0.5)])


@cache
def _covariate_atoms(kind: str):
    """Discrete covariate support (rows) and weights for exact mixing, built once per kind.

    The normal covariate uses Gauss-Hermite nodes; the Bernoulli pair is
    enumerated exactly.
    """
    if kind == "normal1":
        x, w = np.polynomial.hermite.hermgauss(_NORMAL_NODES)
        atoms, weights = (math.sqrt(2.0) * x)[:, None], w / math.sqrt(math.pi)
    else:
        b1, b2 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        atoms, weights = _bernoulli_pair(b1, b2), np.where(b1, 0.3, 0.7) * 0.5
    atoms.setflags(write=False)
    weights.setflags(write=False)
    return atoms, weights


def _atom_rates(scn: SimScenario, arm: int, atoms: np.ndarray) -> np.ndarray:
    lin = atoms @ scn.coefficients
    return scn.rate_base * np.exp(scn.log_rate_ratio * arm + lin)


def true_survival(scn: SimScenario, arm: int, t) -> np.ndarray:
    """Marginal survival P(T > t) for one arm, covariates mixed out."""
    atoms, weights = _covariate_atoms(scn.covariates)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))[:, None]
    return np.exp(-_atom_rates(scn, arm, atoms) * t ** scn.arm_shape(arm)) @ weights


@cache
def _time_rule():
    """Nodes and weights on [0, 1] of t = s**4, s on a Gauss-Legendre rule, built on first use."""
    x, w = np.polynomial.legendre.leggauss(_TIME_NODES)
    s = 0.5 * (x + 1.0)
    t, w = s**4, 2.0 * w * s**3
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def true_rmst(scn: SimScenario, arm: int, tau: float | None = None) -> float:
    """Restricted mean survival time of one arm: ``true_survival`` on the graded rule."""
    tau = scn.tau if tau is None else float(tau)
    t, w = _time_rule()
    return float(tau * w @ true_survival(scn, arm, tau * t))


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
    a crossing hazard ratio. Near 0 the weighted integrand behaves like
    t**(m - 1), m = min(shape0, shape1, 2*shape1 - shape0), and the
    graded rule loses digits as m falls below 1: relative error about
    1e-9 at m = 0.6 and 4e-5 at m = 0.3. At m <= 0 the integral diverges
    and the value is ``inf``.
    """
    if 2.0 * scn.arm_shape(1) - scn.arm_shape(0) <= 0:
        return math.inf
    atoms, weights = _covariate_atoms(scn.covariates)
    s, w = _time_rule()
    t = scn.tau * s[:, None]
    dens = 0.0
    for arm in (0, 1):
        shape, rates = scn.arm_shape(arm), _atom_rates(scn, arm, atoms)
        dens = dens + (rates * shape * t ** (shape - 1.0) * np.exp(-rates * t**shape)) @ weights
    weighted = w * dens * np.exp(-scn.censoring_rate * t[:, 0])
    return float(weighted @ hazard_ratio(scn, t[:, 0]) / weighted.sum())


def _draw_covariates(scn: SimScenario, n: int, rng) -> np.ndarray:
    if scn.covariates == "normal1":
        return rng.standard_normal((n, 1))
    b1 = rng.random(n) < 0.3
    b2 = rng.random(n) < 0.5
    return _bernoulli_pair(b1, b2)


def draw_trial(scn: SimScenario, rng) -> Trial:
    """Draw a full trial, arm 0 first then arm 1, in a fixed draw order."""
    n = scn.n_per_arm
    arms = []
    for arm in (0, 1):
        z = _draw_covariates(scn, n, rng)
        rates = scn.rate_base * np.exp(scn.log_rate_ratio * arm + z @ scn.coefficients)
        t = (-np.log1p(-rng.random(n)) / rates) ** (1.0 / scn.arm_shape(arm))
        c = rng.exponential(1.0 / scn.censoring_rate, size=n) if scn.censoring_rate > 0 else np.inf
        entry = rng.uniform(0.0, scn.accrual, size=n) if scn.accrual > 0 else np.zeros(n)
        arms.append((np.full(n, arm), entry, np.minimum(t, c), t <= c, z))
    arm, entry, followup, event, z = (np.concatenate(column) for column in zip(*arms))
    return Trial(arm=arm, entry=entry, followup=followup, event=event, z=z)


def _rng_for_replicate(master_seed: int, rep: int):
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(rep,)))


def _rate_offset(scn: SimScenario, delta: float, bracket: tuple[float, float]) -> tuple[float, float]:
    """Treatment rate offset whose true restricted-mean difference is ``delta``, and its residual.

    The difference falls as the offset rises, so the offset is bisected on ``bracket``.
    """
    mu0 = true_rmst(scn, 0)

    def gap(b: float) -> float:
        return (true_rmst(replace(scn, log_rate_ratio=b), 1) - mu0) - delta

    root = _find_root(gap, *bracket)
    return root, gap(root)


def calibrate_null(scn: SimScenario, bracket: tuple[float, float] = (-5.0, 5.0)) -> float:
    """Treatment rate offset that equalizes the arms' true restricted means.

    Bisected on the stated bracket; the returned offset leaves a
    restricted-mean gap below 1e-8 in absolute value.
    """
    root, residual = _rate_offset(scn, 0.0, bracket)
    if abs(residual) >= 1e-8:
        raise EstimationError(f"null calibration residual {residual:.2e} exceeds 1e-8")
    return root


def cox_hr_test(snap: Snapshot, k: int = 0, fits=None, at: int | None = None) -> AnalysisResult:
    """Wald test of no treatment effect in an unstratified hazards model, at look ``k``.

    Tests the treatment coefficient of look k's fit of ``snap.pooled()``,
    one stratum with the arm prepended to the covariates and the event
    horizon min(u, tau) of the restricted-mean analyses: ``fits[at]``
    when ``fits`` is given, else fitted here. Returns the
    ``"cox"`` :class:`AnalysisResult`; ``delta`` is the log hazard ratio.
    """
    if error := _events_error(snap, k):
        raise error
    fitted = cox_fit(snap.pooled())[k] if fits is None else fits[at]
    cov = np.linalg.inv(fitted.info)
    return AnalysisResult(method="cox", u=float(snap.u[k]), tau=snap.tau, delta=float(fitted.beta[0]),
                          info_level=1 / cov[0, 0])


def _pooled_cox(snap: Snapshot, first: int):
    """Cox results by look, from one fit of the pooled looks ``first`` on that have events in both arms."""
    fits = cox_fit(snap.pooled(slice(first, None)), looks=snap.events_in_every_stratum()[first:])
    return lambda k: cox_hr_test(snap, k, fits, k - first)


# ``METHODS[m](snap, first)(k)``: look k's result by method m; ``first``, the first look asked for, limits
# only the pooled Cox fit, as the adjusted fit covers every look and Kaplan-Meier fits nothing
METHODS = {"adjusted": lambda snap, first: analyze(snap).__getitem__,
           "km": lambda snap, first: partial(km_rmst_test, snap),
           "cox": _pooled_cox}


@dataclass(frozen=True)
class InformationCalibration(Record):
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

    _what, _error, _schema, _strict = "calibration", ConfigError, CALIBRATION_SCHEMA, True
    _keys = (
        ("fractions", "fractions", list_of(number)),
        ("analysis_times", "analysis_times", list_of(number)),
        ("i_max", "i_max", number),
        ("i_max_by_method", "i_max_by_method", dict_of(number)),
        ("grid", "grid", list_of(number)),
        ("mean_info", "mean_info", list_of(number)),
        ("reps", "reps", integer),
        ("master_seed", "master_seed", integer),
        ("failures", "failures", integer),
    )

    def __post_init__(self):
        times = self.analysis_times
        if len(times) != len(self.fractions) or not all(b > a for a, b in zip((0.0, *times), times)):
            raise ConfigError(f"analysis_times {times} must increase from 0, one per fraction {self.fractions}")


def calibrate_information(scn: SimScenario, reps: int = 1000, master_seed: int = 20200920,
                          grid_step: float = 0.1, threads: int = 1) -> InformationCalibration:
    """Monte Carlo placement of analysis times and the information cap.

    Simulates ``reps`` trials, measures mean adjusted information on a
    calendar grid (step ``grid_step``) up to the trial end, and inverts
    the running-max trajectory at the scenario's fractions by linear
    interpolation. The final fraction maps to the trial end exactly.
    Comparator information caps are measured in the same pass, at the
    same snapshots' last look, the trial end.
    """
    if reps < 100:
        raise ConfigError(f"information calibration needs reps >= 100, got {reps}")
    total = scn.total_duration
    grid = np.arange(grid_step, total + 1e-9, grid_step)
    if grid.size == 0 or grid[-1] < total - 1e-9:
        grid = np.append(grid, total)
    grid[-1] = total
    comparators = tuple(m for m in METHODS if m != "adjusted")
    infos, _ = _map_replicates(
        _study_worker, scn, master_seed, reps, threads, extra=(tuple(grid), ("adjusted", *comparators), comparators),
    )
    rows, finals = infos[:, :, 0], infos[:, -1, 1:]
    ok = np.sum(~np.isnan(rows), axis=0)
    usable = ok >= max(1, int(0.9 * reps))
    if not usable[-1]:
        raise EstimationError("information calibration failed at the trial end; raise reps")
    mean_info = np.where(ok > 0, np.nansum(rows, axis=0) / np.maximum(ok, 1), np.nan)
    grid_u = grid[usable]
    traj = np.maximum.accumulate(mean_info[usable])
    i_max = float(traj[-1])
    times = [total if f >= 1.0 else float(np.interp(f * i_max, traj, grid_u)) for f in scn.fractions]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise EstimationError(f"calibrated analysis times are not increasing: {times}; raise reps")
    i_by_method = {"adjusted": i_max}
    i_by_method.update((m, float(np.nanmean(finals[:, j])))
                       for j, m in enumerate(comparators) if not np.all(np.isnan(finals[:, j])))
    return InformationCalibration(
        fractions=tuple(float(f) for f in scn.fractions), analysis_times=tuple(times), i_max=i_max,
        i_max_by_method=i_by_method, grid=tuple(float(g) for g in grid_u), mean_info=tuple(float(v) for v in traj),
        reps=reps, master_seed=master_seed, failures=int(np.sum(np.isnan(rows[:, -1]))),
    )


@dataclass(frozen=True)
class PowerCalibration(Record):
    """Effect size and rate offset hitting a target power at full information."""

    target_power: float
    alpha: float
    sided: str
    delta: float
    log_rate_ratio: float

    _what, _error = "power calibration", ConfigError
    _keys = (
        ("target_power", "target_power", number),
        ("alpha", "alpha", number),
        ("sidedness", "sided", string),
        ("delta", "delta", number),
        ("log_rate_ratio", "log_rate_ratio", number),
    )


def _fixed_test_power(delta: float, i_max: float, alpha: float, sided: str) -> float:
    drift = delta * math.sqrt(i_max)
    if sided == "two_sided":
        crit = -ndtri(alpha / 2.0)
        return float(ndtr(drift - crit) + ndtr(-crit - drift))
    crit = -ndtri(alpha)
    return float(ndtr(drift - crit))


def calibrate_power(scn: SimScenario, calib: InformationCalibration,
                    target_power: float = 0.80, alpha: float = 0.05,
                    sided: str = "two_sided",
                    bracket: tuple[float, float] = (-5.0, 5.0)) -> PowerCalibration:
    """Rate offset at which a fixed final-analysis test hits the target power.

    First solves the restricted-mean difference ``delta`` giving the
    target power for a normal test at the calibrated full information,
    then bisects for the treatment rate offset whose true difference
    equals ``delta`` (within 1e-6). ``target_power`` equal to ``alpha``
    returns the null offset itself. A target that no difference in
    [0, tau] reaches raises ``EstimationError``.
    """
    if not (0 < alpha < 1) or not (alpha <= target_power < 1):
        raise ConfigError("need alpha in (0,1) and target_power in [alpha, 1)")

    def power_shortfall(delta: float) -> float:
        return target_power - _fixed_test_power(delta, calib.i_max, alpha, sided)

    reached = _fixed_test_power(scn.tau, calib.i_max, alpha, sided)
    if reached < target_power:
        raise EstimationError(
            f"target power {target_power} is unreachable: a difference of tau = {scn.tau} "
            f"reaches power {reached:.6g} at i_max = {calib.i_max:.6g}"
        )
    delta = 0.0 if target_power <= alpha else _find_root(power_shortfall, 0.0, scn.tau)
    root, residual = _rate_offset(scn, delta, bracket)
    if abs(residual) >= 1e-6:
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
    """Information and estimate of each method at each calendar time (``last_only`` methods: the last), per
    replicate; NaN where one fails."""
    scn, master_seed, reps_slice, times, methods, last_only = args
    infos = np.full((len(reps_slice), len(times), len(methods)), np.nan)
    deltas = np.full_like(infos, np.nan)
    for i, rep in enumerate(reps_slice):
        try:
            snap = snapshot(draw_trial(scn, _rng_for_replicate(master_seed, rep)), u=times, tau=scn.tau)
        except DataError:
            continue
        for m, method in enumerate(methods):
            first = len(times) - 1 if method in last_only else 0
            analysis = METHODS[method](snap, first)
            for k in range(first, len(times)):
                try:
                    r = analysis(k)
                except (DataError, EstimationError):
                    continue
                infos[i, k, m] = r.info_level
                deltas[i, k, m] = r.delta
        snap = analysis = None  # let this trial's layout go before the next is drawn
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
    if reps < 1:
        raise ConfigError(f"simulation needs reps >= 1, got {reps}")
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
        if m not in calib.i_max_by_method:
            raise ConfigError(f"calibration lacks an information cap for method {m!r}")
    times = calib.analysis_times
    n_stage = len(times)
    infos, deltas = _map_replicates(
        _study_worker, scn, master_seed, reps, threads, extra=(times, methods, ()),
    )
    cumulative, mc_se, failures, first_stage = {}, {}, {}, {}
    for m, method in enumerate(methods):
        design = DesignConfig(spending=spending, planned_fractions=scn.fractions,
                              i_max=calib.i_max_by_method[method])
        firsts = np.zeros(reps, dtype=np.int64)
        fail_count = 0
        for rep in range(reps):
            state = MonitoringState(design=design)
            for k in range(n_stage):
                info = infos[rep, k, m]
                if np.isnan(info):
                    fail_count += 1
                    continue
                result = AnalysisResult(method=method, u=times[k], tau=scn.tau, delta=deltas[rep, k, m],
                                        info_level=info)
                state = update_monitoring(state, result, final=(k == n_stage - 1))
                if state.analyses[-1].decision == "reject":
                    firsts[rep] = k + 1
                    break
        first_stage[method] = firsts
        rej = np.array([np.mean((firsts > 0) & (firsts <= k + 1)) for k in range(n_stage)])
        cumulative[method] = tuple(float(r) for r in rej)
        mc_se[method] = tuple(float(math.sqrt(r * (1 - r) / reps)) for r in rej)
        failures[method] = fail_count
    return OperatingCharacteristics(
        scenario=scn, methods=methods, analysis_times=times, reps=reps, master_seed=master_seed,
        cumulative_rejection=cumulative, mc_se=mc_se, failures=failures, first_rejection_stage=first_stage,
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
