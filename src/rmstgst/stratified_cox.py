"""Proportional-hazards fitting with one baseline hazard per arm.

Both arms share the coefficient vector; each arm keeps its own
nonparametric baseline hazard, so the treatment effect is never forced
through a proportionality assumption. Ties are handled the Breslow way:
tied events share the same risk-set denominator.

All fitting is restricted to event times at or below ``min(u, tau)``;
subjects followed past that point still contribute risk time up to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DataError, SingularInformationError
from .trial_data import Snapshot

__all__ = [
    "StepFunction",
    "CoxFit",
    "fit",
]


class StepFunction:
    """Right-continuous nondecreasing step function starting at 0.

    ``times`` are the distinct ascending jump locations and
    ``increments`` the (positive) jump sizes; ``values`` are the
    cumulative heights at the jump times. The fit builds it from a
    snapshot's distinct event times, so its inputs are not checked here.
    """

    __slots__ = ("times", "increments", "values")

    def __init__(self, times, increments):
        times = np.asarray(times, dtype=np.float64)
        increments = np.asarray(increments, dtype=np.float64)
        self.times = times
        self.increments = increments
        self.values = np.cumsum(increments)
        for a in (self.times, self.increments, self.values):
            a.setflags(write=False)


@dataclass(frozen=True)
class CoxFit:
    """Converged fit of the two-baseline proportional-hazards model.

    ``baselines`` are the Breslow cumulative baseline hazards of arms 0
    and 1, with jumps at that arm's event times up to ``min(u, tau)``.
    ``info`` is the observed information at ``beta`` (unnormalized sum
    over events). ``risk_sums`` holds each arm's risk-set sums at
    ``beta``, ``(r0, r1)`` at its event times: the sum of exp(beta'Z)
    and of exp(beta'Z) Z over the subjects at risk.
    """

    beta: np.ndarray
    info: np.ndarray
    loglik: float
    iterations: int
    baselines: tuple[StepFunction, StepFunction]
    risk_sums: tuple = field(repr=False, compare=False)

    def baseline(self, arm: int) -> StepFunction:
        return self.baselines[arm]


def _score_info(snap: Snapshot, beta: np.ndarray):
    """Score, information and log partial likelihood of both arms in one pass.

    Also returns the risk sums at the snapshot's event rows, which the
    Breslow baselines reuse: ``r0`` in a per-stratum max-shifted scale (the
    true sum is ``r0 * exp(shift)``), the risk-weighted covariate means
    ``e = r1 / r0``, and each row's ``shift``.
    """
    p = beta.size
    lp = snap.risk_z @ beta
    shift = lp.max(axis=1, keepdims=True)
    w = np.exp(lp - shift)
    cols = snap.risk_cols
    sums = np.cumsum(w[:, ::-1, None] * cols[:, ::-1], axis=1).reshape(-1, cols.shape[2])[snap.risk_rows]
    r0, d, row_shift = sums[:, 0], snap.event_counts, shift[snap.event_stratum, 0]
    # r0 can underflow to 0 at extreme trial steps; the resulting
    # -inf/nan log likelihood makes the Newton loop halve the step.
    with np.errstate(divide="ignore", invalid="ignore"):
        e = sums[:, 1:p + 1] / r0[:, None]
        v = sums[:, p + 1:] / r0[:, None] - (e[:, :, None] * e[:, None, :]).reshape(r0.size, p * p)
        score = snap.event_z_total - d @ e
        info = (d @ v).reshape(p, p)
        loglik = float(snap.event_z_total @ beta - d @ (np.log(r0) + row_shift))
    return score, info, loglik, (r0, e, row_shift)


def _check_nonsingular(info: np.ndarray):
    """Eigenvalues and eigenvectors of ``info``, raising if it is not positive definite."""
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
    return eigval, eigvec


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
    if not snap.event_counts.size:
        raise DataError(f"no events at or before t_max={min(snap.u, snap.tau)}; nothing to fit")
    p = snap.n_covariates
    beta = np.zeros(p)
    score, info, loglik, sums = _score_info(snap, beta)
    iterations = 0
    while p and float(np.max(np.abs(score))) >= tol:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence in {max_iter} iterations (score max-norm "
                f"{float(np.max(np.abs(score))):.3e})"
            )
        eigval, eigvec = _check_nonsingular(info)
        step = eigvec @ ((eigvec.T @ score) / eigval)
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            evaluated = _score_info(snap, cand)
            c_loglik = evaluated[2]
            # relative slack: near the optimum a full step's gain is below
            # one ulp of loglik, and rounding must not reject it
            if np.isfinite(c_loglik) and c_loglik >= loglik - 1e-12 * max(1.0, abs(loglik)):
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed to improve the log partial likelihood")
        beta = cand
        score, info, loglik, sums = evaluated
        iterations += 1
    if p:
        _check_nonsingular(info)
    baselines, risk_sums = _baselines(snap, *sums)
    return CoxFit(
        beta=beta,
        info=info,
        loglik=float(loglik),
        iterations=iterations,
        baselines=baselines,
        risk_sums=risk_sums,
    )


def _baselines(snap: Snapshot, r0, e, shift):
    """Each arm's Breslow baseline and true-scale risk sums ``(r0, r1)`` from one evaluation."""
    # exp(log r0 + shift) overflows only where the true sum does, not where exp(shift) would
    r0 = np.exp(np.log(r0) + shift)
    increments = snap.event_counts / r0
    k0 = snap.arms[0].event_times.size
    rows = (slice(0, k0), slice(k0, None))
    baselines = tuple(StepFunction(arm.event_times, increments[sl]) for arm, sl in zip(snap.arms, rows))
    return baselines, tuple((r0[sl], e[sl] * r0[sl, None]) for sl in rows)

