"""Trial simulation, calibration, and operating characteristics.

Subjects follow a two-arm Weibull model in which the treatment arm may
change both the rate and the shape, so the hazard ratio can move over
time (shape_offset != 0) or stay proportional (shape_offset == 0).
Covariates scale the rate through a shared log-linear term. Entry is
staggered uniformly over the accrual window and the trial locks at
``accrual + tau``, giving every subject the full horizon of potential
follow-up.

True restricted means mix the covariates out over fixed atoms
(Gauss-Hermite nodes or the Bernoulli support) and integrate over
[0, tau] on one fixed Gauss-Legendre rule, graded toward 0 by
t = tau * s**4 so the survival curve of a Weibull shape below 1 is
smooth in s.

Calibration runs in three steps: bisect on [-5, 5] for the treatment
rate offset that zeroes the true restricted-mean difference, measure
the information trajectory by Monte Carlo to place the analysis times
and the information cap, then bisect on [-5, 5] for the offset hitting
a target power for a fixed test at full information. A difference
outside what the ends of [-5, 5] give is refused.

The Monte Carlo runs stack as many replicates in one snapshot as a place
budget allows (the calibration grid's pass its own, larger one), and
analyze every look of the group in one pass; a look sees only its own
replicate, so no result depends on the grouping.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .adjusted_rmst import Analyses, analyze
from .errors import ConfigError, DataError, EstimationError
from .gs_design import SpendingFunction, _find_root, _unit_legendre, _validate_fractions, _walk, ndtr, ndtri
from .km_rmst import km_rmst_test
from .records import Record
from .stratified_cox import SharedBaseline, fit as cox_fit
from .trial_data import Snapshot, Trial, snapshot

__all__ = [
    "SimScenario",
    "InformationCalibration",
    "PowerCalibration",
    "Calibration",
    "OperatingCharacteristics",
    "draw_trial",
    "true_rmst",
    "true_survival",
    "hazard_ratio",
    "calibrate_null",
    "calibrate_information",
    "calibrate_power",
    "calibrate",
    "cox_hr_test",
    "check_methods",
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
_OFFSET_BRACKET = (-5.0, 5.0)  # treatment rate offsets bisected by the calibrations
_GRID_STEP = 0.1  # step of the calendar grid on which calibration measures the information trajectory
_ANALYZED_SHARE = 0.9  # share of replicates a grid time or a comparator's trial end needs analyzed in calibration
_CURVE_POINTS = 200  # rows of the survival and hazard-ratio curve table


@dataclass(frozen=True)
class SimScenario(Record):
    """One simulated-trial configuration.

    Event times are Weibull with survival exp(-rate * t**shape) where
    shape = shape_base + shape_offset * arm and rate scales as
    rate_base * exp(log_rate_ratio * arm + b'Z); each covariate gets
    coefficient covariate_strength / sqrt(p). ``covariates`` picks one
    standard normal ("normal1") or standardized Bernoulli(0.3) and
    Bernoulli(0.5) ("bernoulli2"). Censoring is exponential at 5% per
    year or absent. Entry is uniform on [0, accrual]. Every covariate
    atom's rate must be finite and > 0 in both arms at the ends of the
    offsets the calibrations bisect, or ``covariate_strength`` is refused,
    and in arm 1 at ``log_rate_ratio``, or ``log_rate_ratio`` is refused.
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

    _what, _error, _schema = "scenario", ConfigError, SCENARIO_SCHEMA

    def _validate(self):
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
        if _validate_fractions(self.fractions)[-1] != 1.0:
            raise ConfigError(f"a scenario's fractions must end at 1.0, got {tuple(self.fractions)}")
        lin = _covariate_atoms(self.covariates)[0] @ self.coefficients
        for name, offsets in (("covariate_strength", [*_OFFSET_BRACKET]), ("log_rate_ratio", [self.log_rate_ratio])):
            with np.errstate(over="ignore"):  # arm 0's rates, then arm 1's at the offsets
                rates = self.rate_base * np.exp(np.add.outer((0.0, *offsets), lin))
            if not np.all(np.isfinite(rates) & (rates > 0)):
                raise ConfigError(f"{name} {getattr(self, name)} gives Weibull rates that are not finite and > 0 at "
                                  f"treatment rate offsets in {offsets} (rate_base {self.rate_base})")

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
    """One arm's Weibull rates at covariate rows ``atoms``: mixing atoms or drawn subjects."""
    lin = atoms @ scn.coefficients
    return scn.rate_base * np.exp(scn.log_rate_ratio * arm + lin)


def true_survival(scn: SimScenario, arm: int, t) -> np.ndarray:
    """Marginal survival P(T > t) for one arm, covariates mixed out."""
    atoms, weights = _covariate_atoms(scn.covariates)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))[:, None]
    return np.exp(-_atom_rates(scn, arm, atoms) * t ** scn.arm_shape(arm)) @ weights


def _time_rule():
    """Nodes and weights on [0, 1] of t = s**4, s on the Gauss-Legendre rule of ``_TIME_NODES`` nodes."""
    s, w = _unit_legendre(_TIME_NODES)
    return s**4, 4.0 * w * s**3


def true_rmst(scn: SimScenario, arm: int) -> float:
    """Restricted mean survival time of one arm to ``scn.tau``: ``true_survival`` on the graded rule."""
    t, w = _time_rule()
    return float(scn.tau * w @ true_survival(scn, arm, scn.tau * t))


def hazard_ratio(scn: SimScenario, t) -> np.ndarray:
    """Treatment-to-control hazard ratio at fixed covariates.

    Equals (shape1/shape0) * exp(log_rate_ratio) * t**shape_offset; free
    of the covariates, which scale both hazards alike.
    """
    t = np.asarray(t, dtype=np.float64)
    lead = (scn.arm_shape(1) / scn.arm_shape(0)) * math.exp(scn.log_rate_ratio)
    return lead * t**scn.shape_offset


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
        with np.errstate(over="ignore"):  # an overflowing time is infinite follow-up, which the Trial refuses
            t = (-np.log1p(-rng.random(n)) / _atom_rates(scn, arm, z)) ** (1.0 / scn.arm_shape(arm))
        c = rng.exponential(1.0 / scn.censoring_rate, size=n) if scn.censoring_rate > 0 else np.inf
        entry = rng.uniform(0.0, scn.accrual, size=n) if scn.accrual > 0 else np.zeros(n)
        arms.append((np.full(n, arm), entry, np.minimum(t, c), t <= c, z))
    arm, entry, followup, event, z = (np.concatenate(column) for column in zip(*arms))
    return Trial(arm=arm, entry=entry, followup=followup, event=event, z=z)


def _rng_for_replicate(master_seed: int, rep: int):
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(rep,)))


def _rate_offset(scn: SimScenario, delta: float) -> float:
    """Treatment rate offset in ``_OFFSET_BRACKET`` whose true restricted-mean difference is ``delta``.

    The difference falls strictly as the offset rises, so a ``delta`` outside the differences of the bracket's
    ends raises ``EstimationError``; any other is bisected on the bracket.
    """
    mu0 = true_rmst(scn, 0)

    def difference(b: float) -> float:
        return true_rmst(replace(scn, log_rate_ratio=b), 1) - mu0

    lo, hi = _OFFSET_BRACKET
    least, most = difference(hi), difference(lo)
    if not least <= delta <= most:
        raise EstimationError(f"no treatment rate offset in [{lo}, {hi}] gives a true restricted-mean difference "
                              f"of {delta:.6g}; those offsets give {least:.6g} to {most:.6g}")
    return float(_find_root(lambda b, rows: (difference(float(b[0])) - delta, 0.0), lo, hi)[0])


def calibrate_null(scn: SimScenario) -> float:
    """Treatment rate offset that equalizes the arms' true restricted means; see ``_rate_offset``."""
    return _rate_offset(scn, 0.0)


def cox_hr_test(snap: Snapshot) -> Analyses:
    """Wald tests of no treatment effect in an unstratified hazards model, at every look.

    Fits the snapshot's :class:`SharedBaseline` once: both arms under one
    baseline, the arm the first covariate, to the horizon min(u, tau) of
    the restricted-mean analyses, at the looks with an event in each arm.
    Returns the ``"cox"`` :class:`Analyses`, whose ``delta`` is the log
    hazard ratio; a look whose fit failed keeps the fit's error.
    """
    fits = cox_fit(SharedBaseline(snap))
    fitted = np.array([error is None for error in fits.errors], dtype=bool)
    info = np.full(snap.u.size, np.nan)
    info[fitted] = 1 / np.linalg.inv(fits.info[fitted])[:, 0, 0]
    return Analyses("cox", snap, fits.beta[:, 0], info, fits.errors)


def check_methods(methods, caps) -> tuple[str, ...]:
    """``methods`` as a tuple of at least one name in ``METHODS``, each named once and with an information cap in
    ``caps``; anything else raises ``ConfigError``."""
    methods = tuple(methods)
    if not methods:
        raise ConfigError(f"no method named; choose from {tuple(METHODS)}")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
        if methods.count(m) > 1:
            raise ConfigError(f"method {m!r} is named more than once")
        if m not in caps:
            raise ConfigError(f"calibration lacks an information cap for method {m!r}: calibrate gives a comparator "
                              f"a cap only when at least {_ANALYZED_SHARE:.0%} of its trial-end analyses succeed")
    return methods


# ``METHODS[m](snap)``: the ``Analyses`` of method m at every look of ``snap``
METHODS = {"adjusted": analyze, "km": km_rmst_test, "cox": cox_hr_test}


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

    _what, _error, _schema, _strict = "information calibration", ConfigError, CALIBRATION_SCHEMA, True

    def _validate(self):
        for name, cap in {"i_max": self.i_max, **{f"{m} i_max": v for m, v in self.i_max_by_method.items()}}.items():
            if not cap > 0:
                raise ConfigError(f"{name} must be > 0, got {cap!r}")
        times = self.analysis_times
        if len(times) != len(self.fractions) or not all(b > a for a, b in zip((0.0, *times), times)):
            raise ConfigError(f"analysis_times {times} must increase from 0, one per fraction {self.fractions}")


def calibrate_information(scn: SimScenario, reps: int = 1000, master_seed: int = 20200920,
                          threads: int = 1) -> InformationCalibration:
    """Monte Carlo placement of analysis times and the information cap.

    Simulates ``reps`` trials, measures mean adjusted information on a
    calendar grid (step ``_GRID_STEP``) up to the trial end, and inverts
    the running-max trajectory at the scenario's fractions by linear
    interpolation. The final fraction maps to the trial end exactly.
    Comparator caps come from a second pass at the trial end alone; like
    the adjusted information at a grid time, each needs 90% of the
    replicates analyzed, or the comparator gets no cap.
    """
    if reps < 100:
        raise ConfigError(f"information calibration needs reps >= 100, got {reps}")
    total = scn.total_duration
    grid = np.append(np.arange(_GRID_STEP, total - 1e-9, _GRID_STEP), total)
    comparators = tuple(m for m in METHODS if m != "adjusted")
    rows, _, failed, _ = _map_replicates(scn, master_seed, reps, threads, tuple(grid), ("adjusted",), _GRID_PLACES)
    rows = rows[:, :, 0]
    finals = _map_replicates(scn, master_seed, reps, threads, (total,), comparators)[0][:, 0]
    enough = max(1, int(_ANALYZED_SHARE * reps))
    ok = np.sum(~np.isnan(rows), axis=0)
    usable = ok >= enough
    if not usable[-1]:
        failures = dict(sorted(Counter(e for e in failed[:, -1, 0].tolist() if e).items()))
        raise EstimationError(f"information calibration failed at the trial end: {ok[-1]} of {reps} replicates "
                              f"analyzed, {enough} needed; failures {failures}")
    mean_info = np.where(ok > 0, np.nansum(rows, axis=0) / np.maximum(ok, 1), np.nan)
    grid_u = grid[usable]
    traj = np.maximum.accumulate(mean_info[usable])
    i_max = float(traj[-1])
    times = [total if f >= 1.0 else float(np.interp(f * i_max, traj, grid_u)) for f in scn.fractions]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise EstimationError(f"calibrated analysis times are not increasing: {times}; raise reps")
    i_by_method = {"adjusted": i_max}
    i_by_method.update((m, float(np.nanmean(finals[:, j])))
                       for j, m in enumerate(comparators) if np.sum(~np.isnan(finals[:, j])) >= enough)
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
    sided: str = field(metadata={"key": "sidedness"})
    delta: float
    log_rate_ratio: float

    _what, _error = "power calibration", ConfigError


def _fixed_test_power(delta: float, i_max: float, alpha: float, sided: str) -> float:
    drift = delta * math.sqrt(i_max)
    if sided == "two_sided":
        crit = -ndtri(alpha / 2.0)
        return float(ndtr(drift - crit) + ndtr(-crit - drift))
    crit = -ndtri(alpha)
    return float(ndtr(drift - crit))


def _check_power_target(target_power: float, alpha: float) -> None:
    if not (0 < alpha < 1) or not (alpha <= target_power < 1):
        raise ConfigError("need alpha in (0,1) and target_power in [alpha, 1)")


def calibrate_power(scn: SimScenario, calib: InformationCalibration,
                    target_power: float = 0.80, alpha: float = 0.05,
                    sided: str = "two_sided") -> PowerCalibration:
    """Rate offset at which a fixed final-analysis test hits the target power.

    First solves the restricted-mean difference ``delta`` giving the
    target power for a normal test at the calibrated full information,
    then bisects for the treatment rate offset whose true difference
    equals ``delta`` (``_rate_offset``). ``target_power`` equal to
    ``alpha`` returns the null offset itself. A target that no difference
    in [0, tau] reaches, or no offset gives, raises ``EstimationError``.
    """
    _check_power_target(target_power, alpha)

    def power_shortfall(delta: float) -> float:
        return target_power - _fixed_test_power(delta, calib.i_max, alpha, sided)

    reached = _fixed_test_power(scn.tau, calib.i_max, alpha, sided)
    if reached < target_power:
        raise EstimationError(
            f"target power {target_power} is unreachable: a difference of tau = {scn.tau} "
            f"reaches power {reached:.6g} at i_max = {calib.i_max:.6g}"
        )
    delta = 0.0 if target_power <= alpha else float(
        _find_root(lambda d, rows: (power_shortfall(float(d[0])), 0.0), 0.0, scn.tau)[0])
    return PowerCalibration(target_power=target_power, alpha=alpha, sided=sided, delta=delta,
                            log_rate_ratio=_rate_offset(scn, delta))


@dataclass(frozen=True)
class Calibration(InformationCalibration):
    """A scenario's calibration file: its information schedule, null and power offsets, and the scenario."""

    null_log_rate_ratio: float
    power: PowerCalibration
    scenario: SimScenario

    _what = "calibration"


def calibrate(scn: SimScenario, reps: int, master_seed: int, threads: int, target_power: float, alpha: float,
              sided: str) -> Calibration:
    """Check the power target; then the null offset, the information schedule at the null, and the power offset."""
    _check_power_target(target_power, alpha)
    null_offset = calibrate_null(scn)
    info = calibrate_information(replace(scn, log_rate_ratio=null_offset), reps=reps, master_seed=master_seed,
                                 threads=threads)
    power = calibrate_power(scn, info, target_power=target_power, alpha=alpha, sided=sided)
    return Calibration(**vars(info), null_log_rate_ratio=null_offset, power=power, scenario=scn)


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Stagewise rejection summary of a simulated group-sequential study, keyed by method in the order run.

    ``cumulative_rejection`` holds each method's share of replicates
    rejected by each stage. ``failures_by_type`` counts each method's
    failed analyses at the stages monitoring reached by the class name of
    each failure's error, and ``failures_by_stage`` by stage. A stage whose
    information is too close to the last one's for the spending step's
    grid fails with ``ConfigError``. ``estimates`` and ``info_levels`` hold
    each method's delta and information, (reps, stages), NaN where an
    analysis failed. ``phase_seconds`` holds the wall seconds of the
    replicate ``analyses`` and of their ``monitoring``; within the
    analyses, those of the ``draws`` and snapshots and of each method's
    calls, under its name, summed over the worker processes.
    """

    cumulative_rejection: dict[str, tuple[float, ...]]
    failures_by_type: dict[str, dict[str, int]]
    failures_by_stage: dict[str, list[int]]
    phase_seconds: dict[str, float]
    estimates: dict[str, np.ndarray] = field(repr=False)
    info_levels: dict[str, np.ndarray] = field(repr=False)

    def to_rows(self) -> list[dict]:
        """One row a method and stage, with the Monte Carlo standard error of its cumulative rejection."""
        return [{"method": m, "stage": k, "cumulative_rejection": r,
                 "mc_se": float(math.sqrt(r * (1 - r) / len(self.estimates[m])))}
                for m, rejections in self.cumulative_rejection.items() for k, r in enumerate(rejections, start=1)]


# places of one group's (looks, subjects) arrays in ``simulate`` and the comparators' trial-end pass: 8 replicates
# of 3 looks of 400 subjects (a 0.8 MB snapshot, a 2.5 MB analyses' peak by tracemalloc), 24 of the trial end alone
_GROUP_PLACES = 9600
# places of a group in calibration's grid pass: 2 replicates of 30 looks of 400 subjects. Against 1 a group, a
# 100-replicate calibrate at 200 per arm took 8-9% less time for 0.7-0.9 MB more peak RSS (one Xeon core; a group's
# analysis peaks at 2.9 against 1.9 MB by tracemalloc); 3 a group cost 1.5-2.1 MB
_GRID_PLACES = 24000


def _study_worker(scn, master_seed, reps_slice, times, methods, places=None):
    """Information, estimate and failure of each method at each calendar time, per replicate.

    Replicates are drawn in groups of as many as keep their looks x
    subjects within the place budget ``places`` (``_GROUP_PLACES`` if
    None; calibration's grid pass gives ``_GRID_PLACES``), and a replicate
    that alone exceeds it runs alone. A group is one snapshot whose looks
    run replicate by replicate, so each method runs once a group. A look
    reads only its own replicate's rows, so no result depends on the
    grouping. Where an analysis fails, info and delta are NaN and
    ``failed`` holds the class name of its error; a replicate that cannot
    be drawn, or has nobody enrolled at any look, fails at every look with
    ``DataError``, as its snapshot alone would. ``seconds`` holds the wall
    seconds of the draws and snapshots, then of each method's calls.
    """
    n_looks = len(times)
    infos = np.full((len(reps_slice), n_looks, len(methods)), np.nan)
    deltas = np.full_like(infos, np.nan)
    failed = np.full(infos.shape, None, dtype=object)
    seconds = np.zeros(1 + len(methods))
    size = max(1, (places or _GROUP_PLACES) // (n_looks * 2 * scn.n_per_arm))
    for start in range(0, len(reps_slice), size):
        clock = time.perf_counter()
        rows, trials = [], []
        for i in range(start, min(start + size, len(reps_slice))):
            try:
                trials.append(draw_trial(scn, _rng_for_replicate(master_seed, reps_slice[i])))
                rows.append(i)
            except DataError:
                failed[i] = "DataError"
        try:
            snap = snapshot(trials, u=times, tau=scn.tau)
        except DataError:
            failed[rows] = "DataError"
            continue
        finally:
            seconds[0] += time.perf_counter() - clock
        rows = np.array(rows)
        at = np.repeat(rows, n_looks), np.tile(np.arange(n_looks), rows.size)  # the snapshot's looks in order
        for m, method in enumerate(methods):
            clock = time.perf_counter()
            analyses = METHODS[method](snap)
            seconds[1 + m] += time.perf_counter() - clock
            infos[:, :, m][at], deltas[:, :, m][at] = analyses.info, analyses.delta
            failed[:, :, m][at] = [error and type(error).__name__ for error in analyses.errors]
        failed[rows[~snap.stratum_n.reshape(rows.size, -1).any(axis=1)]] = "DataError"  # nobody enrolled
        snap = analyses = None  # let this group's layouts go before the next is drawn
    return infos, deltas, failed, seconds


def _map_replicates(scn, master_seed, reps, threads, times, methods, places=None):
    """Run ``_study_worker`` over the replicates, serially or across processes, ``places`` its group budget.

    Results are identical for any thread count: replicates own their
    seed streams and results are reassembled in replicate order; the
    workers' ``seconds`` are summed, over processes too. The pool
    starts no more processes than there are CPUs or chunks of replicates,
    and only a run across processes loads it and ``multiprocessing``.
    """
    if master_seed < 0:  # the replicates' seed sequences take no negative entropy
        raise ConfigError(f"master_seed must be >= 0, got {master_seed}")
    worker = partial(_study_worker, scn, master_seed, times=times, methods=methods, places=places)
    all_reps = list(range(reps))
    if threads <= 1:
        parts = [worker(all_reps)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(threads, os.cpu_count() or 1)
        chunk = max(1, math.ceil(reps / (workers * 4)))
        chunks = [all_reps[i:i + chunk] for i in range(0, reps, chunk)]
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            parts = list(pool.map(worker, chunks))
    infos, deltas, failed, seconds = zip(*parts)
    return *(np.concatenate(cols, axis=0) for cols in (infos, deltas, failed)), np.sum(seconds, axis=0)


def run_study(scn: SimScenario, spending: SpendingFunction, calib: InformationCalibration,
              reps: int = 2000, methods=("adjusted",), master_seed: int = 0,
              threads: int = 1) -> OperatingCharacteristics:
    """Simulate the scenario and monitor every replicate to a decision.

    Each replicate is analyzed at the calibrated calendar times with
    every requested method. Each method then monitors its replicates
    against its own information cap, the last stage declared final, by
    one spending walk over the batch of its replicates. Analyses that fail
    (for example, no events in an arm), and stages too close to the last
    one for the walk's grid, are counted per method, by error class and
    by stage, and the replicate keeps its last stage.

    Identical scenario, seed, and reps give bit-identical results for
    any ``threads``.
    """
    if reps < 1:
        raise ConfigError(f"simulation needs reps >= 1, got {reps}")
    methods = check_methods(methods, calib.i_max_by_method)
    times = calib.analysis_times
    n_stage = len(times)
    clock = time.perf_counter()
    infos, deltas, failed, worker_seconds = _map_replicates(scn, master_seed, reps, threads, times, methods)
    seconds = {"analyses": time.perf_counter() - clock, **dict(zip(("draws", *methods), worker_seconds.tolist()))}
    clock = time.perf_counter()
    cumulative, failures_by_type, failures_by_stage = {}, {}, {}
    for m, method in enumerate(methods):
        fractions = infos[:, :, m] / calib.i_max_by_method[method]
        z = deltas[:, :, m] * np.sqrt(infos[:, :, m])
        decisions = _walk(spending, fractions, z, np.arange(n_stage) == n_stage - 1)[0]
        failed_as, by_stage = Counter(), [0] * n_stage
        for k in range(n_stage):
            # a failed analysis has a NaN fraction, which the walk skips; None is a look after its replicate stopped
            errors = failed[np.isnan(fractions[:, k]) & np.not_equal(decisions[:, k], None), k, m].tolist()
            errors += [type(d).__name__ for d in decisions[:, k].tolist() if isinstance(d, ConfigError)]
            failed_as.update(errors)
            by_stage[k] = len(errors)
        rej = (decisions == "reject").sum(axis=0).cumsum() / reps  # each replicate rejects at most once
        cumulative[method] = tuple(float(r) for r in rej)
        failures_by_type[method] = dict(sorted(failed_as.items()))
        failures_by_stage[method] = by_stage
    seconds["monitoring"] = time.perf_counter() - clock
    return OperatingCharacteristics(
        cumulative_rejection=cumulative, failures_by_type=failures_by_type, failures_by_stage=failures_by_stage,
        phase_seconds=seconds,
        estimates={m: deltas[:, :, i] for i, m in enumerate(methods)},
        info_levels={m: infos[:, :, i] for i, m in enumerate(methods)},
    )


def curve_table(scn: SimScenario) -> list[dict]:
    """Marginal survival and hazard-ratio curves on a time grid.

    The tabular stand-in for a survival/hazard-ratio plot: rows of
    (time, arm-0 survival, arm-1 survival, hazard ratio) at ``_CURVE_POINTS``
    even steps from just above 0 to tau.
    """
    ts = np.linspace(0.0, scn.tau, _CURVE_POINTS + 1)[1:]
    s0 = true_survival(scn, 0, ts)
    s1 = true_survival(scn, 1, ts)
    hr = hazard_ratio(scn, ts)
    return [
        {"time": float(t), "survival_0": float(a), "survival_1": float(b), "hazard_ratio": float(h)}
        for t, a, b, h in zip(ts, s0, s1, hr)
    ]
