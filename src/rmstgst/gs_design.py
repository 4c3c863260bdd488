"""Error-spending boundaries and sequential monitoring state.

Critical values come from the standard recursion for sequentially
computed Gaussian statistics with independent increments: the joint law
of the score statistics is propagated stage to stage as a numerical
density on a Gauss-Legendre grid restricted to the continuation region,
and each stage's critical value is solved so the cumulative crossing
probability under the null equals the spending target at the observed
information fraction.

Monitoring respends at the observed information: each new analysis
recomputes the boundary recursion over the fractions actually seen, so
earlier stages reproduce their recorded critical values and the new
stage pins the cumulative spend to target. A declared final analysis
spends the full alpha regardless of how much information accrued.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import norm

from .errors import ConfigError, StateError

__all__ = [
    "SPENDING_KINDS",
    "SpendingFunction",
    "BoundarySchedule",
    "boundaries",
    "crossing_probabilities",
    "DesignConfig",
    "AnalysisRecord",
    "MonitoringState",
    "update_monitoring",
]

SPENDING_KINDS = ("cubic_min", "power_family", "obrien_fleming_like", "pocock_like")
SIDEDNESS = ("one_sided", "two_sided")

DESIGN_SCHEMA = "rmstgst.design/1"
STATE_SCHEMA = "rmstgst.state/1"

DEFAULT_NODES = 301
DEFAULT_SPAN = 8.0
_SPEND_FLOOR = 1e-14


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
            return float(2.0 - 2.0 * norm.cdf(norm.ppf(1.0 - self.alpha / 2.0) / math.sqrt(f)))
        return self.alpha * math.log1p((math.e - 1.0) * f)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.rho is not None:
            out["rho"] = self.rho
        return out


@lru_cache(maxsize=8)
def _leggauss_reference(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_legendre(lo: float, hi: float, nodes: int):
    x, w = _leggauss_reference(nodes)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


class _ScoreDensity:
    """Sub-density of the running score statistic on its continuation region."""

    __slots__ = ("x", "gw", "fraction")

    def __init__(self, x, gw, fraction):
        self.x = x
        self.gw = gw
        self.fraction = fraction


def _stage_crossing(prev: _ScoreDensity | None, fraction: float, critical: float, sided: str) -> float:
    """Null probability of first crossing at this stage given the prior density."""
    sd = math.sqrt(fraction)
    bound = critical * sd
    if prev is None:
        if math.isinf(critical):
            return 0.0
        tail = float(norm.sf(critical))
        return 2.0 * tail if sided == "two_sided" else tail
    if math.isinf(critical):
        return 0.0
    sigma = math.sqrt(fraction - prev.fraction)
    upper = ndtr((prev.x - bound) / sigma)
    if sided == "two_sided":
        lower = ndtr((-bound - prev.x) / sigma)
        return float(prev.gw @ (upper + lower))
    return float(prev.gw @ upper)


def _advance_density(prev: _ScoreDensity | None, fraction: float, critical: float,
                     sided: str, nodes: int, span: float) -> _ScoreDensity:
    """Density restricted to this stage's continuation region, on a fresh grid."""
    sd = math.sqrt(fraction)
    hi = min(critical, span) * sd
    lo = -hi if sided == "two_sided" else -span * sd
    x, w = _gauss_legendre(lo, hi, nodes)
    if prev is None:
        dens = _normal_pdf(x / sd) / sd
    else:
        sigma = math.sqrt(fraction - prev.fraction)
        dens = (_normal_pdf((x[:, None] - prev.x[None, :]) / sigma) / sigma) @ prev.gw
    return _ScoreDensity(x=x, gw=dens * w, fraction=fraction)


def _solve_critical(prev: _ScoreDensity | None, fraction: float, increment: float, sided: str) -> float:
    if increment <= _SPEND_FLOOR:
        return math.inf
    if prev is None:
        q = increment / 2.0 if sided == "two_sided" else increment
        return float(norm.isf(q))

    def gap(c: float) -> float:
        return _stage_crossing(prev, fraction, c, sided) - increment

    lo, hi = 0.0, 40.0
    if gap(lo) <= 0.0:
        return 0.0
    return float(brentq(gap, lo, hi, xtol=1e-12, rtol=1e-14))


def _validate_fractions(fractions) -> tuple[float, ...]:
    fr = tuple(float(f) for f in fractions)
    if not fr:
        raise ConfigError("at least one information fraction is required")
    if any(not (0 < f <= 1 + 1e-9) or not math.isfinite(f) for f in fr):
        raise ConfigError(f"planned information fractions must lie in (0, 1], got {fr}")
    if any(b <= a for a, b in zip(fr, fr[1:])):
        raise ConfigError(f"information fractions must be strictly increasing, got {fr}")
    return fr


def _boundary_recursion(fractions, cum_targets, sided: str, nodes: int, span: float):
    """Solve all stages' critical values for given cumulative spend targets.

    ``fractions`` here are the variance scale of the score statistic, so
    raw (unclamped) observed fractions are fine; only their ordering and
    ratios matter. Returns (criticals, increments actually spendable).
    """
    criticals: list[float] = []
    increments: list[float] = []
    prev: _ScoreDensity | None = None
    spent = 0.0
    for fraction, target in zip(fractions, cum_targets):
        inc = target - spent
        c = _solve_critical(prev, fraction, inc, sided)
        realized = _stage_crossing(prev, fraction, c, sided)
        criticals.append(c)
        increments.append(realized)
        spent += realized
        prev = _advance_density(prev, fraction, c, sided, nodes, span)
    return criticals, increments


def crossing_probabilities(fractions, criticals, sided: str = "two_sided",
                           nodes: int = DEFAULT_NODES, span: float = DEFAULT_SPAN) -> np.ndarray:
    """Per-stage null crossing probabilities for given boundary values."""
    fr = _validate_fractions(fractions)
    if len(criticals) != len(fr):
        raise ConfigError("need one critical value per information fraction")
    out = []
    prev: _ScoreDensity | None = None
    for fraction, c in zip(fr, criticals):
        out.append(_stage_crossing(prev, fraction, float(c), sided))
        prev = _advance_density(prev, fraction, float(c), sided, nodes, span)
    return np.asarray(out)


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
            "alpha": self.spending.alpha,
            "sidedness": self.spending.sided,
            "spending": self.spending.to_dict(),
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

    @classmethod
    def from_dict(cls, d: dict) -> "BoundarySchedule":
        spending = SpendingFunction(
            kind=d["spending"]["kind"],
            alpha=d["alpha"],
            rho=d["spending"].get("rho"),
            sided=d["sidedness"],
        )
        stages = d["stages"]
        return cls(
            spending=spending,
            fractions=tuple(s["fraction"] for s in stages),
            cumulative_spend=tuple(s["cumulative_spend"] for s in stages),
            critical_values=tuple(
                math.inf if s["critical_value"] is None else s["critical_value"] for s in stages
            ),
        )


def boundaries(f: SpendingFunction, info_fractions,
               nodes: int = DEFAULT_NODES, span: float = DEFAULT_SPAN) -> BoundarySchedule:
    """Critical values for a planned schedule of information fractions.

    Each stage's cumulative crossing probability under the null equals
    the spending function at that fraction. A stage whose spend
    increment is zero (or negative, possible only through rounding) gets
    an infinite critical value: it can never reject.
    """
    fr = _validate_fractions(info_fractions)
    targets = [f(x) for x in fr]
    criticals, increments = _boundary_recursion(fr, targets, f.sided, nodes, span)
    return BoundarySchedule(
        spending=f,
        fractions=fr,
        cumulative_spend=tuple(float(np.cumsum(increments)[k]) for k in range(len(fr))),
        critical_values=tuple(criticals),
    )


@dataclass(frozen=True)
class DesignConfig:
    """Design half of a monitoring state: spending rule plus the plan."""

    spending: SpendingFunction
    planned_fractions: tuple[float, ...]
    i_max: float | None = None

    def __post_init__(self):
        _validate_fractions(self.planned_fractions)
        if self.i_max is not None and not (self.i_max > 0):
            raise ConfigError(f"i_max must be > 0, got {self.i_max!r}")

    def to_dict(self) -> dict:
        return {
            "schema": DESIGN_SCHEMA,
            "alpha": self.spending.alpha,
            "sidedness": self.spending.sided,
            "spending": self.spending.to_dict(),
            "planned_fractions": list(self.planned_fractions),
            "i_max": self.i_max,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DesignConfig":
        if not isinstance(d, dict):
            raise ConfigError("design config must be a JSON object")
        schema = d.get("schema", DESIGN_SCHEMA)
        if schema != DESIGN_SCHEMA:
            raise ConfigError(f"unsupported design schema {schema!r}, expected {DESIGN_SCHEMA!r}")
        missing = {"alpha", "spending", "planned_fractions"} - set(d)
        if missing:
            raise ConfigError(f"design config missing keys: {sorted(missing)}")
        spending_spec = d["spending"]
        if not isinstance(spending_spec, dict) or "kind" not in spending_spec:
            raise ConfigError("design spending must be an object with a 'kind'")
        spending = SpendingFunction(
            kind=spending_spec["kind"],
            alpha=d["alpha"],
            rho=spending_spec.get("rho"),
            sided=d.get("sidedness", "two_sided"),
        )
        return cls(
            spending=spending,
            planned_fractions=tuple(float(x) for x in d["planned_fractions"]),
            i_max=None if d.get("i_max") is None else float(d["i_max"]),
        )


@dataclass(frozen=True)
class AnalysisRecord:
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

    def to_dict(self) -> dict:
        c = self.critical_value
        return {
            "stage": self.stage,
            "u": self.u,
            "info_level": self.info_level,
            "info_fraction": self.info_fraction,
            "z": self.z,
            "critical_value": None if c is None or math.isinf(c) else c,
            "cumulative_spend": self.cumulative_spend,
            "decision": self.decision,
            "final": self.final,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisRecord":
        c = d["critical_value"]
        return cls(
            stage=int(d["stage"]),
            u=float(d["u"]),
            info_level=float(d["info_level"]),
            info_fraction=float(d["info_fraction"]),
            z=float(d["z"]),
            critical_value=math.inf if c is None and d["decision"] != "skipped" else c,
            cumulative_spend=float(d["cumulative_spend"]),
            decision=str(d["decision"]),
            final=bool(d.get("final", False)),
        )


@dataclass(frozen=True)
class MonitoringState:
    """Append-only record of a monitored trial."""

    design: DesignConfig
    analyses: tuple[AnalysisRecord, ...] = ()

    @property
    def rejected(self) -> bool:
        return any(a.decision == "reject" for a in self.analyses)

    @property
    def effective(self) -> tuple[AnalysisRecord, ...]:
        """Analyses that consumed spending (everything not skipped)."""
        return tuple(a for a in self.analyses if a.decision != "skipped")

    def to_dict(self) -> dict:
        return {
            "schema": STATE_SCHEMA,
            "design": self.design.to_dict(),
            "analyses": [a.to_dict() for a in self.analyses],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "MonitoringState":
        if not isinstance(d, dict):
            raise StateError("monitoring state must be a JSON object")
        schema = d.get("schema")
        if schema != STATE_SCHEMA:
            raise StateError(f"unsupported state schema {schema!r}, expected {STATE_SCHEMA!r}")
        try:
            design = DesignConfig.from_dict(d["design"])
            analyses = tuple(AnalysisRecord.from_dict(a) for a in d["analyses"])
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise StateError(f"malformed monitoring state: {exc}") from exc
        return cls(design=design, analyses=analyses)

    @classmethod
    def from_json(cls, text: str) -> "MonitoringState":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StateError(f"monitoring state is not valid JSON: {exc}") from exc
        return cls.from_dict(d)


def update_monitoring(state: MonitoringState, result, final: bool = False,
                      nodes: int = DEFAULT_NODES, span: float = DEFAULT_SPAN) -> MonitoringState:
    """Fold one analysis result into the monitoring state.

    ``result`` needs attributes ``u``, ``z``, and ``info_level``. The
    information fraction is the observed information over the design's
    ``i_max``; spending is evaluated at the clamped fraction while the
    recursion's covariance uses the raw one. If information did not
    increase since the last effective analysis the stage is recorded as
    skipped and no spending occurs. A ``final`` analysis spends all
    remaining alpha.

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
    stage = len(state.analyses) + 1
    if prior and fraction <= prior[-1].info_fraction:
        record = AnalysisRecord(
            stage=stage, u=u, info_level=info_level, info_fraction=fraction, z=z,
            critical_value=None, cumulative_spend=prior[-1].cumulative_spend,
            decision="skipped", final=final,
        )
        return replace(state, analyses=state.analyses + (record,))
    spending = state.design.spending
    fractions = [a.info_fraction for a in prior] + [fraction]
    targets = [a.cumulative_spend for a in prior] + [
        spending.alpha if final else spending(min(fraction, 1.0))
    ]
    criticals, increments = _boundary_recursion(fractions, targets, spending.sided, nodes, span)
    critical = criticals[-1]
    cumulative = (prior[-1].cumulative_spend if prior else 0.0) + increments[-1]
    exceeds = abs(z) >= critical if spending.sided == "two_sided" else z >= critical
    record = AnalysisRecord(
        stage=stage, u=u, info_level=info_level, info_fraction=fraction, z=z,
        critical_value=critical, cumulative_spend=cumulative,
        decision="reject" if exceeds else "continue", final=final,
    )
    return replace(state, analyses=state.analyses + (record,))
