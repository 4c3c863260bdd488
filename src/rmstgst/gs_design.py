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

The recursion is Markov: the density after stage k depends only on the
fractions and critical values already used, and the monitoring state
records both. A new analysis therefore replays the recorded boundary to
rebuild that density, then solves only its own critical value so the
cumulative spend, counted from the recorded one, reaches the spending
function at the observed information. A declared final analysis spends
the full alpha regardless of how much information accrued.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cache
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, StateError
from .records import Record, boolean, integer, list_of, number, optional, string

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
_BLOCK_ROWS = 64  # grid nodes per block of the transition kernel
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

    def __post_init__(self):
        if self.kind not in SPENDING_KINDS:
            raise ConfigError(f"unknown spending kind {self.kind!r}; choose from {SPENDING_KINDS}")
        if not (0 < self.alpha < 1):
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.sided not in SIDEDNESS:
            raise ConfigError(f"sidedness must be one of {SIDEDNESS}, got {self.sided!r}")
        if self.kind == "power_family":
            if self.rho is None or not (self.rho > 0):
                raise ConfigError("power_family spending needs rho > 0")
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
        """The ``alpha``, ``sidedness`` and ``spending`` keys of design and boundary files."""
        spec = {"kind": self.kind}
        if self.rho is not None:
            spec["rho"] = self.rho
        return {"alpha": self.alpha, "sidedness": self.sided, "spending": spec}

    @classmethod
    def from_dict(cls, d: dict) -> "SpendingFunction":
        missing = {"alpha", "spending"} - set(d)
        if missing:
            raise ConfigError(f"spending rule missing keys: {sorted(missing)}")
        spec = d["spending"]
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError("design spending must be an object with a 'kind'")
        return cls(kind=spec["kind"], alpha=number(d["alpha"]), rho=optional(number)(spec.get("rho")),
                   sided=d.get("sidedness", "two_sided"))


@cache
def _panel_rule():
    """Gauss-Legendre nodes and weights of one panel, on [0, 1], built on first use."""
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


class _ScoreDensity(NamedTuple):
    """Sub-density of the running score statistic on its continuation region."""

    x: np.ndarray
    gw: np.ndarray
    fraction: float


def _stage_crossing(prev: _ScoreDensity | None, fraction: float, critical: float, sided: str) -> float:
    """Null probability of first crossing at this stage given the prior density."""
    if math.isinf(critical):
        return 0.0
    if prev is None:
        tail = float(ndtr(-critical))
        return 2.0 * tail if sided == "two_sided" else tail
    bound = critical * math.sqrt(fraction)
    sigma = math.sqrt(fraction - prev.fraction)
    upper = ndtr((prev.x - bound) / sigma)
    if sided == "two_sided":
        lower = ndtr((-bound - prev.x) / sigma)
        return float(prev.gw @ (upper + lower))
    return float(prev.gw @ upper)


def _advance_density(prev: _ScoreDensity | None, fraction: float, critical: float,
                     sided: str, next_fraction: float) -> _ScoreDensity:
    """Density restricted to this stage's continuation region, on a grid sized for the next step.

    Raises ConfigError where the grid would need more than ``MAX_NODES`` nodes.
    """
    sd = math.sqrt(fraction)
    hi = min(critical, DEFAULT_SPAN) * sd
    lo = -hi if sided == "two_sided" else -DEFAULT_SPAN * sd
    before = prev.fraction if prev is not None else 0.0
    sigma, sigma_out = math.sqrt(fraction - before), math.sqrt(next_fraction - fraction)
    panels = max(_MIN_PANELS, math.ceil((hi - lo) / (_PANEL_SDS * min(sigma, sigma_out))))
    if panels * _PANEL_NODES > MAX_NODES:
        a, b = (before, fraction) if sigma <= sigma_out else (fraction, next_fraction)
        smallest = ((hi - lo) * _PANEL_NODES / (_PANEL_SDS * MAX_NODES)) ** 2
        raise ConfigError(f"information fractions {a} and {b} are too close: the {MAX_NODES}-node "
                          f"grid at fraction {fraction} resolves increments of at least {smallest:.3g}")
    t, w = _panel_rule()
    width = (hi - lo) / panels
    x = (lo + width * (np.arange(panels)[:, None] + t)).ravel()
    if prev is None:
        dens = _normal_pdf(x / sd) / sd
    else:
        dens = np.concatenate([
            _normal_pdf((x[i:i + _BLOCK_ROWS, None] - prev.x) / sigma) @ prev.gw
            for i in range(0, x.size, _BLOCK_ROWS)
        ]) / sigma
    return _ScoreDensity(x=x, gw=dens * np.tile(width * w, panels), fraction=fraction)


def _solve_critical(prev: _ScoreDensity | None, fraction: float, target: float, spent: float,
                    sided: str) -> float:
    """Critical value whose null crossing probability spends ``target - spent``."""
    increment = target - spent
    if increment <= _SPEND_FLOOR + 1e-9 * target:  # a rounding residue spends nothing
        return math.inf
    # One-stage value for the whole target: this stage crosses at least target - spent there.
    c = float(-ndtri(target / 2.0 if sided == "two_sided" else target))
    if prev is None:
        return c
    if _stage_crossing(prev, fraction, 0.0, sided) <= increment:
        return 0.0
    sd, sigma = math.sqrt(fraction), math.sqrt(fraction - prev.fraction)

    def slope(c: float) -> float:
        dens = _normal_pdf((prev.x - c * sd) / sigma)
        if sided == "two_sided":
            dens = dens + _normal_pdf((prev.x + c * sd) / sigma)
        return -(sd / sigma) * float(prev.gw @ dens)

    return _find_root(lambda c: _stage_crossing(prev, fraction, c, sided) - increment,
                      0.0, 40.0, start=min(max(c, 0.0), 40.0), slope=slope)


def _find_root(fn, lo: float, hi: float, start: float | None = None, slope=None) -> float:
    """Root of a decreasing ``fn`` on ``[lo, hi]``, to ``1e-12 + 1e-14 * |x|``.

    A Newton step on ``slope`` is kept while it stays in the shrinking bracket
    and at most halves the last step; any other step, or every step without
    a slope, bisects.
    """
    x, step = (0.5 * (lo + hi) if start is None else start), hi - lo
    while True:
        gap = fn(x)
        lo, hi = (x, hi) if gap > 0.0 else (lo, x)
        d = slope(x) if slope is not None else 0.0
        newton = x - gap / d if d < 0.0 else math.nan
        if not (lo <= newton <= hi and abs(newton - x) <= 0.5 * step):
            newton = 0.5 * (lo + hi)
        step, x = abs(newton - x), newton
        if step <= 1e-12 + 1e-14 * abs(x):
            return x


def _validate_fractions(fractions) -> tuple[float, ...]:
    fr = tuple(float(f) for f in fractions)
    if not fr:
        raise ConfigError("at least one information fraction is required")
    if any(not (0 < f <= 1 + 1e-9) or not math.isfinite(f) for f in fr):
        raise ConfigError(f"planned information fractions must lie in (0, 1], got {fr}")
    if any(b <= a for a, b in zip(fr, fr[1:])):
        raise ConfigError(f"information fractions must be strictly increasing, got {fr}")
    return fr


def _replay(fractions, criticals, sided: str, next_fraction: float | None = None):
    """Per-stage null crossing probabilities on a fixed boundary, and the density after it.

    The density is advanced past the last stage only toward a given ``next_fraction``.
    An infinite critical value never rejects; raw observed fractions are fine.
    """
    probs: list[float] = []
    prev: _ScoreDensity | None = None
    for fraction, c, after in zip(fractions, criticals, [*fractions[1:], next_fraction]):
        probs.append(_stage_crossing(prev, fraction, c, sided))
        if after is not None:
            prev = _advance_density(prev, fraction, c, sided, after)
    return probs, prev


@dataclass(frozen=True)
class BoundarySchedule:
    """Solved boundary for a planned analysis schedule."""

    spending: SpendingFunction
    fractions: tuple[float, ...]
    cumulative_spend: tuple[float, ...]
    critical_values: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "schema": DESIGN_SCHEMA,
            **self.spending.to_dict(),
            "planned_fractions": list(self.fractions),
            "stages": [
                {
                    "fraction": f,
                    "cumulative_spend": s,
                    "critical_value": None if math.isinf(c) else c,
                }
                for f, s, c in zip(self.fractions, self.cumulative_spend, self.critical_values)
            ],
        }


def boundaries(f: SpendingFunction, info_fractions) -> BoundarySchedule:
    """Critical values for a planned schedule of information fractions.

    Each stage's cumulative crossing probability under the null equals
    the spending function at that fraction. A stage whose spend
    increment is within rounding of nothing (1e-14 plus 1e-9 of the
    target) gets an infinite critical value: it can never reject.
    """
    fr = _validate_fractions(info_fractions)
    criticals: list[float] = []
    cumulative: list[float] = []
    prev: _ScoreDensity | None = None
    spent = 0.0
    for k, fraction in enumerate(fr):
        if k:
            prev = _advance_density(prev, fr[k - 1], criticals[-1], f.sided, fraction)
        c = _solve_critical(prev, fraction, f(fraction), spent, f.sided)
        spent += _stage_crossing(prev, fraction, c, f.sided)
        criticals.append(c)
        cumulative.append(spent)
    return BoundarySchedule(
        spending=f, fractions=fr, cumulative_spend=tuple(cumulative), critical_values=tuple(criticals),
    )


@dataclass(frozen=True)
class DesignConfig(Record):
    """Design half of a monitoring state: spending rule plus the plan."""

    spending: SpendingFunction
    planned_fractions: tuple[float, ...]
    i_max: float | None = None

    _what, _error, _schema = "design config", ConfigError, DESIGN_SCHEMA
    _keys = (
        (None, "spending", SpendingFunction.from_dict),
        ("planned_fractions", "planned_fractions", list_of(number)),
        ("i_max", "i_max", optional(number)),
    )

    def __post_init__(self):
        _validate_fractions(self.planned_fractions)
        if self.i_max is not None and not (math.isfinite(self.i_max) and self.i_max > 0):
            raise ConfigError(f"i_max must be finite and > 0, got {self.i_max!r}")


@dataclass(frozen=True)
class AnalysisRecord(Record):
    """One monitored analysis: the inputs seen and the decision taken."""

    stage: int
    u: float
    info_level: float
    info_fraction: float
    z: float
    critical_value: float | None
    cumulative_spend: float
    decision: str  # "continue" | "reject" | "skipped"
    final: bool = False

    _what, _error = "analysis record", StateError
    _keys = (
        ("stage", "stage", integer),
        ("u", "u", number),
        ("info_level", "info_level", number),
        ("info_fraction", "info_fraction", number),
        ("z", "z", number),
        ("critical_value", "critical_value", optional(number)),
        ("cumulative_spend", "cumulative_spend", number),
        ("decision", "decision", string),
        ("final", "final", boolean),
    )

    def __post_init__(self):
        if self.decision not in ("continue", "reject", "skipped"):
            raise StateError(f"decision must be continue, reject or skipped, got {self.decision!r}")
        if self.critical_value is None and self.decision != "skipped":  # an infinity is stored as null
            object.__setattr__(self, "critical_value", math.inf)


@dataclass(frozen=True)
class MonitoringState(Record):
    """Append-only record of a monitored trial."""

    design: DesignConfig
    analyses: tuple[AnalysisRecord, ...] = ()

    _what, _error, _schema, _strict = "monitoring state", StateError, STATE_SCHEMA, True
    _keys = (
        ("design", "design", DesignConfig.from_dict),
        ("analyses", "analyses", list_of(AnalysisRecord.from_dict)),
    )

    @property
    def rejected(self) -> bool:
        return any(a.decision == "reject" for a in self.analyses)

    @property
    def effective(self) -> tuple[AnalysisRecord, ...]:
        """Analyses that consumed spending (everything not skipped)."""
        return tuple(a for a in self.analyses if a.decision != "skipped")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MonitoringState":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StateError(f"monitoring state is not valid JSON: {exc}") from exc
        return cls.from_dict(d)


def update_monitoring(state: MonitoringState, result, final: bool = False) -> MonitoringState:
    """Fold one analysis result into the monitoring state.

    ``result`` needs attributes ``u``, ``z``, and ``info_level``. The
    information fraction is the observed information over the design's
    ``i_max``; spending is evaluated at the clamped fraction while the
    recursion's covariance uses the raw one. The recorded fractions and
    critical values of the earlier effective analyses are replayed, not
    re-solved, to give the density the new stage starts from; only the
    new stage's critical value is solved, for the increment from the
    last recorded cumulative spend to the target; an increment within
    rounding of nothing gives an infinite critical value, as in
    :func:`boundaries`. If information did not increase since the last
    effective analysis the stage is recorded as skipped and no spending
    occurs. A ``final`` analysis spends all remaining alpha.

    Raises:
        StateError: state already rejected, or ``u`` not past the last
            recorded analysis.
        ConfigError: the design has no ``i_max``.
    """
    if state.rejected:
        raise StateError("trial already rejected; no further analyses are allowed")
    if state.design.i_max is None:
        raise ConfigError("monitoring requires i_max in the design config")
    u = float(result.u)
    z = float(result.z)
    info_level = float(result.info_level)
    if not (info_level > 0 and math.isfinite(info_level)):
        raise StateError(f"info_level must be positive and finite, got {info_level!r}")
    if state.analyses and u <= state.analyses[-1].u:
        raise StateError(
            f"non-increasing analysis time: u={u} is not past the last recorded u={state.analyses[-1].u}"
        )
    fraction = info_level / state.design.i_max
    prior = state.effective
    spent = prior[-1].cumulative_spend if prior else 0.0
    if prior and fraction <= prior[-1].info_fraction:
        critical, cumulative, decision = None, spent, "skipped"
    else:
        spending = state.design.spending
        fractions, criticals = [a.info_fraction for a in prior], [a.critical_value for a in prior]
        _, prev = _replay(fractions, criticals, spending.sided, fraction)
        target = spending.alpha if final else spending(min(fraction, 1.0))
        critical = _solve_critical(prev, fraction, target, spent, spending.sided)
        cumulative = spent + _stage_crossing(prev, fraction, critical, spending.sided)
        exceeds = abs(z) >= critical if spending.sided == "two_sided" else z >= critical
        decision = "reject" if exceeds else "continue"
    record = AnalysisRecord(
        stage=len(state.analyses) + 1, u=u, info_level=info_level, info_fraction=fraction, z=z,
        critical_value=critical, cumulative_spend=cumulative, decision=decision, final=final,
    )
    return replace(state, analyses=state.analyses + (record,))
