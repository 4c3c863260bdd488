"""Error-spending boundaries and sequential monitoring state.

Critical values come from the standard recursion for sequentially
computed Gaussian statistics with independent increments: the joint law
of the score statistics is propagated stage to stage as a numerical
density on the continuation region, and each stage's critical value is
solved so the cumulative crossing probability under the null equals the
spending target at the observed information fraction: by Newton's method,
whose slope is a normal-density sum over the same grid, bracketed by
bisection on [0, 40]; the calibrations of ``sim_engine`` bisect with the
same solver. The grid is panels of one 10-point Gauss-Legendre rule, each
at most two sds wide of the narrower normal transition kernel into or out
of the stage (sd sqrt(f_k - f_{k-1})), so close looks do not alias; a
stage that would need over ``MAX_NODES`` nodes is a ``ConfigError``.

The recursion is Markov: a stage needs only the density it started
from, its fraction, critical value and cumulative spend, and ``_Stages``
holds these for a batch of replicates, flat over the batch. ``_walk``
steps a batch over its looks, each replicate to its rejection or
effective final, and every running replicate at once: one density
advance over ragged grids, each sized to its replicate's increments, one
vectorised Newton for every critical value and one decision on each
statistic; a skipped or failed look keeps its stage. Planned boundaries
walk one replicate that never rejects, simulated studies each method's
replicates, and a monitored look replays the state's looks, then its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, StateError
from .records import Record, number, optional

__all__ = [
    "SPENDING_KINDS",
    "SpendingFunction",
    "BoundarySchedule",
    "boundaries",
    "DesignConfig",
    "AnalysisRecord",
    "MonitoringState",
    "update_monitoring",
]

SPENDING_KINDS = ("cubic_min", "power_family", "obrien_fleming_like", "pocock_like")
SIDEDNESS = ("one_sided", "two_sided")

DESIGN_SCHEMA = "rmstgst.design/1"
STATE_SCHEMA = "rmstgst.state/1"

DEFAULT_SPAN = 8.0
MAX_NODES = 4000  # density nodes per stage; a stage at the cap takes about 0.3 s, 2 MB per row block
_PANEL_NODES = 10
_PANEL_SDS = 2.0  # panel width, in sds of the narrower adjacent increment
_MIN_PANELS = 5
_BLOCK_ROWS = 64  # rows of the previous grid per block of the transition kernel
_SPEND_FLOOR = 1e-14
_SQRT_HALF = math.sqrt(0.5)

ndtri = NormalDist().inv_cdf


def ndtr(x):
    """Standard normal cdf of a float or a 1-d array, by ``math.erfc``."""
    if isinstance(x, np.ndarray):
        return 0.5 * np.fromiter(map(math.erfc, (x * -_SQRT_HALF).tolist()), float, x.size)
    return 0.5 * math.erfc(-x * _SQRT_HALF)


@dataclass(frozen=True)
class SpendingFunction:
    """Cumulative alpha-spending rule on the information-fraction scale.

    Kinds:
        cubic_min: alpha * min(1, f**3).
        power_family: alpha * min(1, f)**rho, rho > 0.
        obrien_fleming_like: 2 - 2*Phi(z_{alpha/2} / sqrt(f)).
        pocock_like: alpha * log(1 + (e-1)*f).

    Fractions past 1 are clamped, so every kind spends exactly alpha at
    (or beyond) full information.
    """

    kind: str
    alpha: float = 0.05
    rho: float | None = None
    sided: str = "two_sided"
    KEYS = ("alpha", "sidedness", "spending")  # not a field: its keys in a design file

    def __post_init__(self):
        if self.kind not in SPENDING_KINDS:
            raise ConfigError(f"unknown spending kind {self.kind!r}; choose from {SPENDING_KINDS}")
        if not (0 < self.alpha < 1):
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.sided not in SIDEDNESS:
            raise ConfigError(f"sidedness must be one of {SIDEDNESS}, got {self.sided!r}")
        if self.kind == "power_family":
            if self.rho is None or not (0 < self.rho < math.inf):
                raise ConfigError(f"power_family spending needs 0 < rho < inf, got {self.rho!r}")
        elif self.rho is not None:
            raise ConfigError(f"rho applies only to power_family, not {self.kind!r}")

    def __call__(self, fraction: float) -> float:
        f = min(float(fraction), 1.0)
        if f < 0:
            raise ConfigError(f"information fraction must be >= 0, got {fraction!r}")
        if f == 0:
            return 0.0
        if self.kind == "cubic_min":
            return self.alpha * min(1.0, f**3)
        if self.kind == "power_family":
            return self.alpha * f**self.rho
        if self.kind == "obrien_fleming_like":
            return float(2.0 - 2.0 * ndtr(ndtri(1.0 - self.alpha / 2.0) / math.sqrt(f)))
        return self.alpha * math.log1p((math.e - 1.0) * f)

    def to_dict(self) -> dict:
        """The ``alpha``, ``sidedness`` and ``spending`` keys of a design file."""
        spec = {"kind": self.kind}
        if self.rho is not None:
            spec["rho"] = self.rho
        return dict(zip(self.KEYS, (self.alpha, self.sided, spec)))

    @classmethod
    def from_dict(cls, d: dict) -> "SpendingFunction":
        d = {"sidedness": "two_sided", **d}
        missing = set(cls.KEYS) - set(d)
        if missing:
            raise ConfigError(f"spending rule missing keys: {sorted(missing)}")
        alpha, sided, spec = (d[key] for key in cls.KEYS)
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError("design spending must be an object with a 'kind'")
        if unknown := sorted(set(spec) - {"kind", "rho"}):
            raise ConfigError(f"unknown design spending keys: {unknown}")
        return cls(kind=spec["kind"], alpha=number(alpha), rho=optional(number)(spec.get("rho")), sided=sided)


@cache
def _unit_legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1], read-only, built once for each number of ``nodes``."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``starts[i]`` to ``starts[i] + counts[i]``, run after run."""
    return (starts - counts.cumsum() + counts).repeat(counts) + np.arange(counts.sum())


class _Stages(NamedTuple):
    """The stages of a batch of replicates, flat over the batch.

    Replicate r's stage started from the sub-density of the running score statistic on its last continuation
    region: nodes ``x[bounds[r]:bounds[r + 1]]``, the density times the quadrature weight there ``gw``, at
    information fraction ``before[r]``. The stage is at fraction ``fraction[r]``, with critical value
    ``critical[r]`` and cumulative spend ``spent[r]``. A replicate before its first stage is at fraction 0
    with no nodes, and its next stage starts from the point mass at 0.
    """

    x: np.ndarray
    gw: np.ndarray
    bounds: np.ndarray
    before: np.ndarray
    fraction: np.ndarray
    critical: np.ndarray
    spent: np.ndarray

    @staticmethod
    def first(n: int) -> "_Stages":
        """``n`` replicates before their first stages."""
        return _Stages(np.zeros(0), np.zeros(0), np.zeros(n + 1, dtype=np.int64), np.zeros(n), np.zeros(n),
                       np.full(n, math.inf), np.zeros(n))

    def take(self, rows: np.ndarray) -> "_Stages":
        """The batch of replicates ``rows``, in that order; rows that name every replicate must increase."""
        if rows.size == self.fraction.size:
            return self
        counts = (self.bounds[1:] - self.bounds[:-1])[rows]
        nodes = _ranges(self.bounds[rows], counts)
        return _Stages(self.x[nodes], self.gw[nodes], np.concatenate(([0], counts.cumsum())),
                       *(values[rows] for values in self[3:]))

    def put(self, rows: np.ndarray, new: "_Stages") -> "_Stages":
        """This batch with its replicates ``rows``, increasing, replaced by those of ``new``."""
        n = self.fraction.size
        if rows.size == n:
            return new
        order = np.arange(n)
        order[rows] = np.arange(n, n + rows.size)
        both = _Stages(np.concatenate((self.x, new.x)), np.concatenate((self.gw, new.gw)),
                       np.concatenate((self.bounds, new.bounds[1:] + self.bounds[-1])),
                       *(np.concatenate(pair) for pair in zip(self[3:], new[3:])))
        return both.take(order)


def _crossing(prev: _Stages, critical: np.ndarray, sided: str):
    """Null probability of first crossing at each replicate's stage, at critical values ``critical``, given
    the density it starts from, and its slope in the critical value: two arrays."""
    if not prev.x.size:
        return np.zeros(0), np.zeros(0)
    counts, sd, sigma = prev.bounds[1:] - prev.bounds[:-1], np.sqrt(prev.fraction), np.sqrt(prev.fraction - prev.before)
    bound, scale = (critical * sd).repeat(counts), sigma.repeat(counts)
    upper = (prev.x - bound) / scale
    cross, dens = ndtr(upper), _normal_pdf(upper)
    if sided == "two_sided":
        lower = (prev.x + bound) / scale
        cross, dens = cross + ndtr(-lower), dens + _normal_pdf(lower)
    starts = prev.bounds[:-1]
    return np.add.reduceat(prev.gw * cross, starts), -(sd / sigma) * np.add.reduceat(prev.gw * dens, starts)


def _transition(prev: _Stages, x: np.ndarray, owner: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """At each node ``x``, the sum over its replicate's nodes in ``prev`` of gw times the normal density of
    the step there, in sds ``sigma`` (by replicate); ``owner`` is the replicate of each node.

    Replicates are taken a previous grid size at a time, so a block of the kernel is dense and holds at
    most ``_BLOCK_ROWS`` rows of the batch's largest previous grid (of five panels, if that is larger).
    """
    sizes = prev.bounds[1:] - prev.bounds[:-1]
    out = np.empty(x.size)
    if not sizes.size:
        return out
    rows_per_block = _BLOCK_ROWS * max(int(sizes.max()), _MIN_PANELS * _PANEL_NODES)
    local = np.empty(sizes.size, dtype=np.int64)
    for size in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == size)
        local[group] = np.arange(group.size)
        nodes = prev.bounds[group, None] + np.arange(size)
        px, pgw = prev.x[nodes], prev.gw[nodes]
        rows = np.flatnonzero(sizes[owner] == size)
        xs, scale, g = x[rows, None], sigma[owner[rows], None], local[owner[rows]]
        for i in range(0, rows.size, rows_per_block // size):
            block = slice(i, i + rows_per_block // size)
            kernel = _normal_pdf((xs[block] - px[g[block]]) / scale[block])
            out[rows[block]] = (kernel * pgw[g[block]]).sum(axis=1)
    return out


def _density_after(stages: _Stages, sided: str, fractions) -> tuple[_Stages, dict[int, ConfigError]]:
    """The stages after ``stages`` at ``fractions``, critical values unsolved (NaN) and with the spend so far:
    each starts from the density that leaves its stage in ``stages`` without crossing, on a grid sized for
    the step to its fraction, or from the point mass at 0 before a first stage.

    A stage whose grid would need more than ``MAX_NODES`` nodes has no stage after it in the batch, and its
    ConfigError is returned under its position in ``stages``.
    """
    fractions = np.asarray(fractions, dtype=float)
    n, steps = fractions.size, np.flatnonzero(stages.fraction > 0.0)
    points = _Stages(np.zeros(n), np.ones(n), np.arange(n + 1), stages.fraction, fractions, np.full(n, math.nan),
                     stages.spent)
    if not steps.size:  # before first stages only: no grid, so a cold first look builds no rule
        return points, {}
    before, fraction, critical = stages.before[steps], stages.fraction[steps], stages.critical[steps]
    after = fractions[steps]
    sd = np.sqrt(fraction)
    hi = np.minimum(critical, DEFAULT_SPAN) * sd
    lo = -hi if sided == "two_sided" else -DEFAULT_SPAN * sd
    sigma, sigma_out = np.sqrt(fraction - before), np.sqrt(after - fraction)
    panels = np.maximum(_MIN_PANELS, np.ceil((hi - lo) / (_PANEL_SDS * np.minimum(sigma, sigma_out))))
    fits = panels * _PANEL_NODES <= MAX_NODES
    errors = {}
    for j in np.flatnonzero(~fits).tolist():
        a, b = (before[j], fraction[j]) if sigma[j] <= sigma_out[j] else (fraction[j], after[j])
        smallest = ((hi[j] - lo[j]) * _PANEL_NODES / (_PANEL_SDS * MAX_NODES)) ** 2
        errors[int(steps[j])] = ConfigError(
            f"information fractions {float(a)} and {float(b)} are too close: the {MAX_NODES}-node grid at "
            f"fraction {float(fraction[j])} resolves increments of at least {smallest:.3g}")
    prev = stages.take(steps[fits])
    panels, lo, width, sigma = panels[fits].astype(np.int64), lo[fits], (hi - lo)[fits] / panels[fits], sigma[fits]
    t, w = _unit_legendre(_PANEL_NODES)
    panel = np.repeat(np.arange(panels.size), panels)  # the replicate of each panel
    k = np.arange(panel.size) - np.repeat(np.cumsum(panels) - panels, panels)  # its place in the replicate's grid
    x = (lo[panel, None] + width[panel, None] * (k[:, None] + t)).ravel()
    owner = np.repeat(np.arange(panels.size), panels * _PANEL_NODES)
    gw = _transition(prev, x, owner, sigma) / sigma[owner] * (width[panel, None] * w).ravel()
    grids = _Stages(x, gw, np.concatenate(([0], np.cumsum(panels * _PANEL_NODES))),
                    *(values[steps[fits]] for values in points[3:]))
    return points.put(steps[fits], grids).take(np.delete(np.arange(n), steps[~fits])), errors


def _solve_critical(start: _Stages, target: np.ndarray, sided: str) -> np.ndarray:
    """Critical values whose null crossing probabilities take each replicate's spend ``start.spent`` to
    ``target``, one a replicate."""
    increment = target - start.spent
    critical = np.full(increment.size, math.inf)  # a rounding residue spends nothing
    live = np.flatnonzero(increment > _SPEND_FLOOR + 1e-9 * target)
    # One-stage values for the whole target: a stage crosses at least target - spent there, a first stage exactly.
    critical[live] = [-ndtri(t / 2.0 if sided == "two_sided" else t) for t in target[live].tolist()]
    rows = live[start.before[live] > 0.0]
    crosses = _crossing(start.take(rows), np.zeros(rows.size), sided)[0] <= increment[rows]
    critical[rows[crosses]] = 0.0
    rows = rows[~crosses]
    prev, increment = start.take(rows), increment[rows]

    def gap(c: np.ndarray, at: np.ndarray):
        cross, slope = _crossing(prev.take(at), c, sided)  # ``take`` gives ``prev`` itself while every row iterates
        return cross - increment[at], slope

    critical[rows] = _find_root(gap, np.zeros(rows.size), np.full(rows.size, 40.0),
                                start=np.clip(critical[rows], 0.0, 40.0))
    return critical


def _find_root(fn, lo, hi, start=None) -> np.ndarray:
    """Roots of decreasing functions, one a row of the brackets ``[lo, hi]``, each to ``1e-12 + 1e-14 * |x|``.

    ``fn(x, rows)`` gives the functions of ``rows`` at ``x`` and their slopes (0 for none). A Newton step
    is kept while it stays in the row's shrinking bracket and at most halves the row's last step; any
    other step, or every step without a slope, bisects. A row that has converged is evaluated no more.
    """
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    x = 0.5 * (lo + hi) if start is None else np.array(start, dtype=float, ndmin=1)
    root, rows, step = x.copy(), np.arange(x.size), hi - lo
    while rows.size:
        gap, slope = (np.asarray(v, dtype=float) for v in fn(x, rows))
        up = gap > 0.0
        lo, hi = np.where(up, x, lo), np.where(up, hi, x)
        with np.errstate(all="ignore"):  # the steps where there is no slope are not kept
            newton = np.where(slope < 0.0, x - gap / slope, math.nan)
        kept = (lo <= newton) & (newton <= hi) & (np.abs(newton - x) <= 0.5 * step)
        newton = np.where(kept, newton, 0.5 * (lo + hi))
        step, x = np.abs(newton - x), newton
        root[rows] = x
        going = step > 1e-12 + 1e-14 * np.abs(x)
        if not going.all():
            rows, x, lo, hi, step = rows[going], x[going], lo[going], hi[going], step[going]
    return root


def _validate_fractions(fractions) -> tuple[float, ...]:
    fr = tuple(float(f) for f in fractions)
    if not fr:
        raise ConfigError("at least one information fraction is required")
    if any(not (0 < f <= 1 + 1e-9) for f in fr):
        raise ConfigError(f"planned information fractions must lie in (0, 1], got {fr}")
    if any(b <= a for a, b in zip(fr, fr[1:])):
        raise ConfigError(f"information fractions must be strictly increasing, got {fr}")
    return fr


def _walk(spending: SpendingFunction, fractions, z, final):
    """Each look's decision, critical value and cumulative spend (replicates, looks), over the rows of
    ``fractions`` and ``z``, each look ``final`` or not, with every running replicate stepped at once.

    A look whose fraction is not past its stage's is ``"skipped"``. Otherwise the stage's density is advanced to the raw
    fraction, and the critical value solved whose null crossing takes the spend to ``spending(fraction)``, or to alpha
    at a ``final`` look; an increment within rounding of nothing (1e-14 plus 1e-9 of the target) gives an infinite
    critical value. ``z`` at or past it (``|z|`` when two sided) is ``"reject"``, else ``"continue"``; a look whose grid
    would need over ``MAX_NODES`` nodes has its ConfigError. A skipped or failed look keeps its stage, whose critical
    value and spend it records; after a rejection or an effective (not skipped) final, a replicate's looks have None and
    NaNs.
    """
    fractions, z = np.asarray(fractions, dtype=float), np.asarray(z, dtype=float)
    decisions, (critical, spent) = np.full(fractions.shape, None), np.full((2, *fractions.shape), math.nan)
    running, stages = np.arange(len(fractions)), _Stages.first(len(fractions))
    for k, last in enumerate(final):
        look = np.full(running.size, "skipped", dtype=object)
        steps = np.flatnonzero(fractions[running, k] > stages.fraction)
        start, errors = _density_after(stages.take(steps), spending.sided, fractions[running[steps], k])
        for j, error in errors.items():
            look[steps[j]] = error
        rows = np.delete(steps, list(errors))
        target = np.array([spending.alpha if last else spending(f) for f in start.fraction.tolist()])
        solved = _solve_critical(start, target, spending.sided)
        at = z[running[rows], k]
        look[rows] = np.where((np.abs(at) if spending.sided == "two_sided" else at) >= solved, "reject", "continue")
        stages = stages.put(rows, start._replace(critical=solved,
                                                 spent=start.spent + _crossing(start, solved, spending.sided)[0]))
        decisions[running, k], critical[running, k], spent[running, k] = look, stages.critical, stages.spent
        stops = ("reject", "continue") if last else ("reject",)
        going = np.flatnonzero([d not in stops for d in look.tolist()])
        running, stages = running[going], stages.take(going)
    return decisions, critical, spent


@dataclass(frozen=True)
class BoundarySchedule:
    """Solved boundary for a planned analysis schedule."""

    cumulative_spend: tuple[float, ...]
    critical_values: tuple[float, ...]


def boundaries(f: SpendingFunction, info_fractions) -> BoundarySchedule:
    """Critical values for a planned schedule of information fractions.

    Each stage's cumulative crossing probability under the null equals
    the spending function at that fraction; ``_walk`` gives the rules,
    over one replicate whose NaN statistic never rejects.
    """
    fr = _validate_fractions(info_fractions)
    (decisions,), (critical,), (spent,) = _walk(f, [fr], [[math.nan] * len(fr)], [False] * len(fr))
    for error in (d for d in decisions if isinstance(d, ConfigError)):  # the first
        raise error
    return BoundarySchedule(cumulative_spend=tuple(spent.tolist()), critical_values=tuple(critical.tolist()))


@dataclass(frozen=True)
class DesignConfig(Record):
    """Design half of a monitoring state: spending rule plus the plan."""

    spending: SpendingFunction = field(metadata={"key": None, "keys": SpendingFunction.KEYS})
    planned_fractions: tuple[float, ...]
    i_max: float | None = None

    _what, _error, _schema = "design config", ConfigError, DESIGN_SCHEMA

    def _validate(self):
        _validate_fractions(self.planned_fractions)
        if self.i_max is not None and not self.i_max > 0:
            raise ConfigError(f"i_max must be > 0, got {self.i_max!r}")


@dataclass(frozen=True)
class AnalysisRecord(Record):
    """One monitored analysis: the inputs seen and the decision taken."""

    stage: int
    u: float
    info_level: float
    info_fraction: float
    z: float
    critical_value: float | None = field(metadata={"infinite": True})
    cumulative_spend: float
    decision: str  # "continue" | "reject" | "skipped"
    final: bool = False
    tau: float | None = None  # the restriction horizon; None in a state written before looks recorded it

    _what, _error = "analysis record", StateError

    def _validate(self):
        if self.decision not in ("continue", "reject", "skipped"):
            raise StateError(f"decision must be continue, reject or skipped, got {self.decision!r}")
        for name, ok, rule in (("info_level", self.info_level > 0, "> 0"),
                               ("info_fraction", self.info_fraction > 0, "> 0"),
                               ("cumulative_spend", self.cumulative_spend >= 0, ">= 0"),
                               ("critical_value", self.critical_value is None or self.critical_value >= 0, ">= 0")):
            if not ok:
                raise StateError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.critical_value is None and self.decision != "skipped":  # an infinity is stored as null
            object.__setattr__(self, "critical_value", math.inf)


@dataclass(frozen=True)
class MonitoringState(Record):
    """Append-only record of a monitored trial."""

    design: DesignConfig
    analyses: tuple[AnalysisRecord, ...] = ()

    _what, _error, _schema, _strict = "monitoring state", StateError, STATE_SCHEMA, True

    def _validate(self):
        if self.design.i_max is None:
            raise ConfigError("monitoring requires i_max in the design config")
        for k, a in enumerate(self.analyses):
            self.check(a.u, a.tau, after=k)
        fr = [a.info_fraction for a in self.analyses if a.decision != "skipped"]
        if any(b <= a for a, b in zip(fr, fr[1:])):
            raise StateError(f"information fractions must increase over the analyses not skipped, got {fr}")
        for k, a in enumerate(self.analyses, start=1):
            fraction = a.info_level / self.design.i_max
            if a.stage != k or not math.isclose(a.info_fraction, fraction, rel_tol=1e-12):
                raise StateError(f"analysis {k} records stage {a.stage} and info_fraction {a.info_fraction}; its "
                                 f"place and its info_level over i_max give {k} and {fraction}")

    def check(self, u: float, tau: float | None, after: int | None = None) -> None:
        """Refuse (StateError) a look at time ``u`` and horizon ``tau`` after the first ``after`` analyses (all by
        default) that follows a rejection or an effective final, is not past the last ``u`` or changes ``tau``."""
        before = self.analyses[:after]
        if any(a.decision == "reject" for a in before):
            raise StateError("trial already rejected; no further analyses are allowed")
        final_at = next((a for a in before if a.final and a.decision != "skipped"), None)
        if final_at is not None:
            raise StateError(f"the final analysis (stage {final_at.stage}, u={final_at.u}) is recorded; no further "
                             "analyses are allowed")
        if before and u <= before[-1].u:
            raise StateError(f"non-increasing analysis time: u={u} is not past the last recorded u={before[-1].u}")
        recorded = next((a.tau for a in before if a.tau is not None), None)
        if None not in (tau, recorded) and tau != recorded:
            raise StateError(f"tau={tau} differs from the recorded tau={recorded}; every analysis of one trial "
                             "restricts its means at one horizon")


def update_monitoring(state: MonitoringState, u, z, info_level, final: bool = False,
                      tau: float | None = None) -> MonitoringState:
    """Fold one analysis, at calendar time ``u`` with statistic ``z`` and information ``info_level``, into the state.

    The information fraction is the observed information over the design's
    ``i_max``. The look replays the state: ``_walk`` steps the recorded
    looks, then this one, and the new record is the walk's last look.

    Raises StateError for a look ``MonitoringState.check`` refuses, a bad ``info_level``, or a recorded analysis
    whose decision, critical value or cumulative spend is not the replay's, within 1e-9 relative or 1e-12 absolute.
    """
    u, z, info_level = float(u), float(z), float(info_level)
    state.check(u, tau)
    if not (info_level > 0 and math.isfinite(info_level)):
        raise StateError(f"info_level must be positive and finite, got {info_level!r}")
    looks = [(a.info_level / state.design.i_max, a.z, a.final) for a in state.analyses]
    fractions, zs, finals = zip(*looks, (info_level / state.design.i_max, z, final))
    (decisions,), (critical,), (spent,) = _walk(state.design.spending, [fractions], [zs], finals)
    for error in (d for d in decisions if isinstance(d, ConfigError)):  # the first
        raise error
    critical, spent = [None if d == "skipped" else c for d, c in zip(decisions, critical.tolist())], spent.tolist()
    for k, (a, decision, c, s) in enumerate(zip(state.analyses, decisions, critical, spent), start=1):
        agree = [x == y or None not in (x, y) and math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
                 for x, y in ((a.critical_value, c), (a.cumulative_spend, s))]
        if a.decision != decision or not all(agree):
            raise StateError(f"analysis {k} records {a.decision} at critical value {a.critical_value}, cumulative "
                             f"spend {a.cumulative_spend}; replaying the recorded looks gives {decision} at {c}, {s}")
    record = AnalysisRecord(stage=len(state.analyses) + 1, u=u, info_level=info_level, info_fraction=fractions[-1],
                            z=z, critical_value=critical[-1], cumulative_spend=spent[-1], decision=decisions[-1],
                            final=final, tau=tau)
    return replace(state, analyses=state.analyses + (record,))
