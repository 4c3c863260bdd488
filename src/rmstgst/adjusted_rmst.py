"""Covariate-adjusted restricted mean survival time and its variance.

The adjusted survival curve for an arm averages model-based conditional
survival exp(-exp(beta'Z) * Lambda0_arm(t)) over every enrolled
subject's covariates, both arms pooled, so the two arms are standardized
to the same covariate mix. Restricted means integrate those step curves
to the horizon tau, and the variance estimator accounts for baseline-
hazard noise (per arm), coefficient noise, and the covariate spread of
the conditional effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, InsufficientEventsError
from .stratified_cox import CoxFit, _arm_risk_sums, fit as cox_fit
from .trial_data import Snapshot

__all__ = [
    "AdjustedSurvival",
    "ArmVarianceDetail",
    "VarianceComponents",
    "AnalysisResult",
    "adjusted_survival",
    "rmst",
    "variance",
    "analyze",
]


@dataclass(frozen=True)
class AdjustedSurvival:
    """Adjusted survival step curve for one arm on [0, tau].

    ``grid`` starts at 0, walks the arm's distinct event times, and ends
    at tau; ``values`` are the right-continuous curve heights at those
    points, starting at 1. ``conditional`` holds the per-subject curves
    (n rows, one column per event time) used to build the average.
    """

    arm: int
    grid: np.ndarray
    values: np.ndarray
    conditional: np.ndarray = field(repr=False, compare=False)


def _conditional_matrix(fit: CoxFit, snap: Snapshot, lam_values: np.ndarray):
    """exp(-w_g * Lambda(t_k)) over all enrolled subjects g and grid times k."""
    w = np.exp(snap.z @ fit.beta) if fit.beta.size else np.ones(snap.n)
    cond = np.exp(-np.outer(w, lam_values)) if lam_values.size else np.ones((snap.n, 0))
    return w, cond


def adjusted_survival(fit: CoxFit, snap: Snapshot, arm: int) -> AdjustedSurvival:
    """Average conditional survival for one arm over the pooled covariates.

    With no covariates this is exactly the exponentiated Nelson-Aalen
    curve; with no events in the arm it is identically 1.
    """
    base = fit.baseline(arm)
    te = base.times
    lam = base.values
    _, cond = _conditional_matrix(fit, snap, lam)
    vals = cond.mean(axis=0) if te.size else np.empty(0)
    tau = snap.tau
    if te.size and te[-1] >= tau:
        grid = np.concatenate(([0.0], te))
        values = np.concatenate(([1.0], vals))
    else:
        grid = np.concatenate(([0.0], te, [tau]))
        values = np.concatenate(([1.0], vals, vals[-1:] if te.size else [1.0]))
    return AdjustedSurvival(arm=arm, grid=grid, values=values, conditional=cond)


def rmst(adj: AdjustedSurvival) -> float:
    """Area under the adjusted survival step curve, 0 to tau."""
    return float(np.sum(adj.values[:-1] * np.diff(adj.grid)))


@dataclass(frozen=True)
class ArmVarianceDetail:
    """Per-arm grids entering the variance estimator.

    All arrays are indexed by the arm's distinct event times: ``c1`` and
    ``c2`` are weighted averages of conditional survival (scalar and
    times-covariate), ``gamma`` the cumulative baseline-noise scale,
    ``q`` the cumulative risk-weighted covariate mean, and ``psi`` the
    integrated sensitivity of the arm's restricted mean to the
    coefficients.
    """

    event_times: np.ndarray
    widths: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    gamma: np.ndarray
    q: np.ndarray
    psi: np.ndarray


@dataclass(frozen=True)
class VarianceComponents:
    """Decomposition of the variance of the adjusted RMST difference.

    ``b10``/``b11`` are the baseline-hazard noise contributions of arms
    0 and 1, ``b3`` the shared-coefficient contribution, and
    ``var_cond`` the covariate spread of the conditional RMST
    difference. All are on the root-n scale: the variance of the
    estimate itself is ``v_eta2 / n``.
    """

    b10: float
    b11: float
    b3: float
    var_cond: float
    v_xi2: float
    v_eta2: float
    arm0: ArmVarianceDetail = field(repr=False, compare=False)
    arm1: ArmVarianceDetail = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"B10": self.b10, "B11": self.b11, "B3": self.b3, "var_cond": self.var_cond}


def _arm_variance_pieces(fit: CoxFit, snap: Snapshot, arm: int, adj: AdjustedSurvival, w: np.ndarray):
    n = snap.n
    n_arm = snap.n1 if arm == 1 else snap.n0
    p = fit.beta.size
    data = fit.arms[arm]
    te, d = data.event_times, data.event_counts
    r0, r1, _, shift, _ = _arm_risk_sums(data, fit.beta, want_s2=False)
    scale = np.exp(shift)
    r0, r1 = r0 * scale, r1 * scale
    r = te.size
    if r == 0:
        detail = ArmVarianceDetail(
            event_times=te, widths=np.empty(0), c1=np.empty(0), c2=np.zeros((0, p)),
            gamma=np.empty(0), q=np.zeros((0, p)), psi=np.zeros(p),
        )
        return 0.0, np.zeros(p), np.full(n, snap.tau), detail
    lam = fit.baseline(arm).values
    cond = adj.conditional
    if cond.shape[1] != r:
        raise ValueError("adjusted survival grids disagree with the fit baselines")
    widths = np.diff(np.append(te, snap.tau))
    cw = cond * w[:, None]
    c1 = cw.mean(axis=0)
    c2 = (cw.T @ snap.z) / n if p else np.zeros((r, 0))
    gamma_inc = n_arm * d / r0**2
    gamma = np.cumsum(gamma_inc)
    q = np.cumsum(d[:, None] * r1 / (r0**2)[:, None], axis=0) if p else np.zeros((r, 0))
    psi = ((c1[:, None] * q - lam[:, None] * c2) * widths[:, None]).sum(axis=0) if p else np.zeros(0)
    a = c1 * widths
    tail = np.cumsum(a[::-1])[::-1]
    b1 = (n / n_arm) * float(gamma_inc @ tail**2)
    mu_cond = te[0] + cond @ widths
    detail = ArmVarianceDetail(
        event_times=te, widths=widths, c1=c1, c2=c2, gamma=gamma, q=q, psi=psi,
    )
    return b1, psi, mu_cond, detail


def variance(fit: CoxFit, snap: Snapshot, adj0: AdjustedSurvival, adj1: AdjustedSurvival) -> VarianceComponents:
    """Variance components for the adjusted RMST difference at this analysis.

    Expects ``adj0``/``adj1`` built from the same fit and snapshot. The
    total ``v_eta2`` scales the estimate's variance as ``v_eta2 / n``.
    """
    w, _ = _conditional_matrix(fit, snap, np.empty(0))
    b10, psi0, mu_cond0, det0 = _arm_variance_pieces(fit, snap, 0, adj0, w)
    b11, psi1, mu_cond1, det1 = _arm_variance_pieces(fit, snap, 1, adj1, w)
    n = snap.n
    p = fit.beta.size
    if p:
        psi_diff = psi1 - psi0
        b3 = float(n * psi_diff @ np.linalg.solve(fit.info, psi_diff))
    else:
        b3 = 0.0
    cond_diff = mu_cond1 - mu_cond0
    var_cond = float(np.mean((cond_diff - cond_diff.mean()) ** 2))
    v_xi2 = b10 + b11 + b3
    return VarianceComponents(
        b10=b10, b11=b11, b3=b3, var_cond=var_cond,
        v_xi2=v_xi2, v_eta2=v_xi2 + var_cond, arm0=det0, arm1=det1,
    )


@dataclass(frozen=True)
class AnalysisResult:
    """One method's analysis of one snapshot.

    ``delta`` is the method's effect estimate and ``info_level`` its
    reciprocal variance, the scale on which monitoring information
    accrues; ``se`` and ``z`` follow from the two. ``mu0``/``mu1`` are
    the arms' restricted means (RMST methods only) and ``components``
    the variance decomposition (adjusted method only).

    Raises:
        EstimationError: ``delta`` or ``info_level`` is not finite, or
            ``info_level`` is not positive.
    """

    method: str
    u: float
    tau: float
    delta: float
    info_level: float
    mu0: float | None = None
    mu1: float | None = None
    components: VarianceComponents | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.delta) and math.isfinite(self.info_level) and self.info_level > 0):
            raise EstimationError(
                f"{self.method} analysis at u={self.u} gave delta={self.delta!r}, "
                f"info={self.info_level!r}; both must be finite and info positive"
            )

    @property
    def se(self) -> float:
        return 1.0 / math.sqrt(self.info_level)

    @property
    def z(self) -> float:
        return self.delta * math.sqrt(self.info_level)

    def to_dict(self) -> dict:
        out = {"u": self.u, "tau": self.tau}
        if self.mu0 is not None:
            out.update(mu0=self.mu0, mu1=self.mu1)
        out.update(delta=self.delta, se=self.se, z=self.z, info=self.info_level)
        if self.components is not None:
            out["components"] = self.components.to_dict()
        return out


def _require_events(snap: Snapshot) -> None:
    """Raise InsufficientEventsError unless each arm has an event by min(u, tau)."""
    t_max = min(snap.u, snap.tau)
    for arm in (0, 1):
        mask = snap.arm == arm
        if not np.any(snap.event[mask] & (snap.time[mask] <= t_max)):
            raise InsufficientEventsError(
                f"arm {arm} has no events at or before min(u, tau)={t_max}; "
                "the analysis needs at least one per arm"
            )


def analyze(snap: Snapshot, tol: float = 1e-8, max_iter: int = 50) -> AnalysisResult:
    """Full adjusted analysis of a snapshot: fit, curves, difference, variance.

    Returns the ``"adjusted"`` :class:`AnalysisResult`, with arm means
    and variance components.

    Raises:
        InsufficientEventsError: an arm has no event at or before
            min(u, tau); the adjusted difference is not estimable.
        ConvergenceError, SingularInformationError: propagated from the
            model fit.
        EstimationError: the difference or its information is not finite.
    """
    _require_events(snap)
    fitted = cox_fit(snap, tol=tol, max_iter=max_iter)
    adj0 = adjusted_survival(fitted, snap, 0)
    adj1 = adjusted_survival(fitted, snap, 1)
    mu0 = rmst(adj0)
    mu1 = rmst(adj1)
    comp = variance(fitted, snap, adj0, adj1)
    return AnalysisResult(
        method="adjusted",
        u=snap.u,
        tau=snap.tau,
        delta=mu1 - mu0,
        info_level=snap.n / comp.v_eta2,
        mu0=mu0,
        mu1=mu1,
        components=comp,
    )
