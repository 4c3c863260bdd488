"""Proportional-hazards fitting with one baseline hazard per arm.

Both arms share the coefficient vector; each arm keeps its own
nonparametric baseline hazard, so the treatment effect is never forced
through a proportionality assumption. Ties are handled the Breslow way:
tied events share the same risk-set denominator.

All fitting is restricted to event times at or below ``min(u, tau)``;
subjects followed past that point still contribute risk time up to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError, SingularInformationError
from .trial_data import Snapshot, _ArmData

__all__ = [
    "StepFunction",
    "CoxFit",
    "score_and_info",
    "fit",
    "breslow",
]


class StepFunction:
    """Right-continuous nondecreasing step function starting at 0.

    ``times`` are the distinct ascending jump locations and
    ``increments`` the (positive) jump sizes; ``values`` are the
    cumulative heights at the jump times.
    """

    __slots__ = ("times", "increments", "values")

    def __init__(self, times, increments):
        times = np.asarray(times, dtype=np.float64)
        increments = np.asarray(increments, dtype=np.float64)
        if times.shape != increments.shape or times.ndim != 1:
            raise ValueError("times and increments must be 1-d and equally long")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        self.times = times
        self.increments = increments
        self.values = np.cumsum(increments)
        for a in (self.times, self.increments, self.values):
            a.setflags(write=False)

    def __call__(self, t):
        """Evaluate at ``t`` (scalar or array), right-continuously."""
        idx = np.searchsorted(self.times, t, side="right")
        padded = np.concatenate(([0.0], self.values))
        out = padded[idx]
        return float(out) if np.isscalar(t) else out

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class CoxFit:
    """Converged fit of the two-baseline proportional-hazards model.

    ``baseline0``/``baseline1`` are Breslow cumulative baseline hazards
    per arm with jumps at that arm's event times up to ``min(u, tau)``.
    ``info`` is the observed information at ``beta`` (unnormalized sum
    over events).
    """

    beta: np.ndarray
    info: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    baseline0: StepFunction
    baseline1: StepFunction

    def baseline(self, arm: int) -> StepFunction:
        return self.baseline1 if arm == 1 else self.baseline0


def _arm_risk_sums(arm: _ArmData, beta: np.ndarray, want_s2: bool):
    """Suffix risk sums at the arm's event times, in max-shifted scale.

    Returns (r0, r1, r2, shift) where the true sums are r* times
    exp(shift).
    """
    p = beta.size
    if arm.n == 0 or arm.event_times.size == 0:
        return np.empty(0), np.zeros((0, p)), np.zeros((0, p, p)), 0.0
    lp = arm.zs @ beta if p else np.zeros(arm.n)
    shift = float(lp.max()) if arm.n else 0.0
    w = np.exp(lp - shift)
    s0_suffix = np.cumsum(w[::-1])[::-1]
    r0 = s0_suffix[arm.risk_start]
    if p:
        wz = w[:, None] * arm.zs
        s1_suffix = np.cumsum(wz[::-1], axis=0)[::-1]
        r1 = s1_suffix[arm.risk_start]
    else:
        r1 = np.zeros((arm.event_times.size, 0))
    if want_s2 and p:
        wzz = wz[:, :, None] * arm.zs[:, None, :]
        s2_suffix = np.cumsum(wzz[::-1], axis=0)[::-1]
        r2 = s2_suffix[arm.risk_start]
    else:
        r2 = np.zeros((arm.event_times.size, p, p))
    return r0, r1, r2, shift


def _score_info(arms, beta: np.ndarray):
    p = beta.size
    score = np.zeros(p)
    info = np.zeros((p, p))
    loglik = 0.0
    for arm in arms:
        if arm.event_times.size == 0:
            continue
        r0, r1, r2, shift = _arm_risk_sums(arm, beta, want_s2=True)
        d = arm.event_counts
        # r0 can underflow to 0 at extreme trial steps; the resulting
        # -inf/nan log likelihood makes the Newton loop halve the step.
        with np.errstate(divide="ignore", invalid="ignore"):
            e = r1 / r0[:, None] if p else r1
            if p:
                z_total = arm.event_z_sums.sum(axis=0)
                score += z_total - (d[:, None] * e).sum(axis=0)
                v = r2 / r0[:, None, None] - e[:, :, None] * e[:, None, :]
                info += (d[:, None, None] * v).sum(axis=0)
                loglik += float(z_total @ beta) - d.sum() * shift
            loglik -= float(d @ np.log(r0))
    return score, info, loglik


def score_and_info(snap: Snapshot, beta):
    """Score vector, observed information, and log partial likelihood.

    Events strictly after ``min(u, tau)`` are ignored; risk sets are
    unaffected for times at or below it. With no events in range all
    three are zero.

    Returns:
        (score, info, loglik) with shapes (p,), (p, p), scalar.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    if beta.shape != (snap.n_covariates,):
        raise DataError(f"beta must have shape ({snap.n_covariates},), got {beta.shape}")
    return _score_info(snap.arms, beta)


def _check_nonsingular(info: np.ndarray):
    if info.shape[0] == 0:
        return
    eigval, eigvec = np.linalg.eigh(info)
    floor = 1e-10 * max(1.0, float(eigval[-1]))
    if eigval[0] <= floor:
        direction = eigvec[:, 0]
        raise SingularInformationError(
            f"observed information is singular along direction {np.round(direction, 6).tolist()}"
            " (constant or collinear covariate, or one that separates events from"
            " survivors so the likelihood is monotone?)",
            direction=tuple(float(x) for x in direction),
        )


def fit(snap: Snapshot, tol: float = 1e-8, max_iter: int = 50) -> CoxFit:
    """Maximize the stratified log partial likelihood by Newton iteration.

    Starts at beta = 0, declares convergence when the score max-norm
    drops below ``tol``, and halves steps that would decrease the log
    partial likelihood. With no covariates the fit is immediate and the
    baselines reduce to Nelson-Aalen estimates.

    Raises:
        ConvergenceError: iteration budget exhausted or halving failed.
        SingularInformationError: information not positive definite.
        DataError: no events at or before min(u, tau).
    """
    arms = snap.arms
    n_events = sum(a.event_counts.sum() for a in arms)
    if n_events == 0:
        raise DataError(f"no events at or before t_max={min(snap.u, snap.tau)}; nothing to fit")
    p = snap.n_covariates
    beta = np.zeros(p)
    score, info, loglik = _score_info(arms, beta)
    iterations = 0
    while p and float(np.max(np.abs(score))) >= tol:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence in {max_iter} iterations (score max-norm "
                f"{float(np.max(np.abs(score))):.3e})"
            )
        _check_nonsingular(info)
        step = np.linalg.solve(info, score)
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            c_score, c_info, c_loglik = _score_info(arms, cand)
            # relative slack: near the optimum a full step's gain is below
            # one ulp of loglik, and rounding must not reject it
            if np.isfinite(c_loglik) and c_loglik >= loglik - 1e-12 * max(1.0, abs(loglik)):
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed to improve the log partial likelihood")
        beta, score, info, loglik = cand, c_score, c_info, c_loglik
        iterations += 1
    _check_nonsingular(info)
    baselines = [breslow(snap, beta, arm) for arm in (0, 1)]
    return CoxFit(
        beta=beta,
        info=info,
        loglik=float(loglik),
        iterations=iterations,
        converged=True,
        baseline0=baselines[0],
        baseline1=baselines[1],
    )


def breslow(snap: Snapshot, beta, arm: int) -> StepFunction:
    """Breslow cumulative baseline hazard for one arm at fixed ``beta``.

    Each event time up to ``min(u, tau)`` contributes (number of events)
    divided by the sum of exp(beta'Z) over subjects still at risk in that
    arm. At beta = 0 this is the Nelson-Aalen estimator.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    data = snap.arms[arm]
    r0, _, _, shift = _arm_risk_sums(data, beta, want_s2=False)
    if data.event_times.size == 0:
        return StepFunction(np.empty(0), np.empty(0))
    increments = data.event_counts / (r0 * np.exp(shift))
    return StepFunction(data.event_times, increments)
