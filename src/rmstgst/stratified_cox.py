"""Proportional-hazards fitting with one baseline hazard per arm.

Both arms share the coefficient vector; each arm keeps its own
nonparametric baseline hazard, so the treatment effect is never forced
through a proportionality assumption. Ties are handled the Breslow way:
tied events share the same risk-set denominator.

All fitting is restricted to event times at or below ``min(u, tau)``;
subjects followed past that point still contribute risk time up to it.
A snapshot's looks are fitted together: one Newton iteration steps every
look's coefficients at once, each look reducing only its own strata, so a
look's fit is the same whatever other looks share its snapshot.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError, InsufficientEventsError, SingularInformationError
from .trial_data import Snapshot, look_sums

__all__ = ["CoxFit", "CoxFits", "fit"]


@dataclass(frozen=True)
class CoxFit:
    """One look's converged fit of the two-baseline proportional-hazards model.

    ``info`` is the observed information at ``beta``. Newton took
    ``iterations`` steps and halved rejected ones ``step_halvings`` times.
    The arms' Breslow baseline hazards jump by each event row's count over
    its ``CoxFits.risk_sums`` r0, at the arm's event times up to min(u, tau).
    """

    beta: np.ndarray
    info: np.ndarray
    loglik: float
    iterations: int
    step_halvings: int


class CoxFits:
    """The fits of every look of one snapshot, from one batched Newton iteration.

    ``fits[k]`` is look k's :class:`CoxFit`, or raises the error its fit
    met, as a snapshot of that look alone would; ``iterations`` totals the
    Newton iterations of the looks that fit.
    """

    def __init__(self, snap: Snapshot, beta, info, loglik, iterations, step_halvings, errors, sums):
        self.snap, self.beta, self.info, self.loglik, self.sums = snap, beta, info, loglik, sums
        self.look_iterations, self.step_halvings, self.errors = iterations, step_halvings, errors

    @property
    def iterations(self) -> int:
        return int(sum(it for it, err in zip(self.look_iterations.tolist(), self.errors) if err is None))

    def risk_sums(self):
        """Risk-set sums of exp(beta'Z) and exp(beta'Z) Z (rows, p) at every event row of the snapshot."""
        r0, e, shift = self.sums
        # exp(log r0 + shift) overflows only where the true sum does, not where exp(shift) would
        r0 = np.exp(np.log(r0) + shift)
        return r0, (e * r0).T

    def __getitem__(self, k: int) -> CoxFit:
        if self.errors[k] is not None:  # a copy, so no traceback ties the error to these fits
            raise copy.copy(self.errors[k])
        return CoxFit(self.beta[k], self.info[k], float(self.loglik[k]), int(self.look_iterations[k]),
                      int(self.step_halvings[k]))


def _score_info(snap: Snapshot, beta: np.ndarray, lo: int = 0):
    """Score, information and log partial likelihood of looks ``lo, lo + 1, ...``, one beta row each.

    Also returns the risk sums at their event rows, which the baselines
    reuse: ``r0`` scaled by each stratum's largest exp(beta'Z) (the true
    sum is ``r0 * exp(shift)``), ``e = r1 / r0`` (p, rows) and each row's
    ``shift``. A look's values add only its own rows, so no other look
    changes them.
    """
    looks, p = beta.shape
    g, (c, m) = len(snap.orders), snap.risk_cols.shape[1:]
    strata = slice(lo * g, (lo + looks) * g)
    bounds = snap.look_rows[lo:lo + looks + 1]
    rows = slice(bounds[0], bounds[-1])
    w = np.einsum("spm,sp->sm", snap.risk_z[strata], np.repeat(beta, g, axis=0))  # linear predictors
    shift = w.max(axis=1, keepdims=True)
    w = np.exp(np.subtract(w, shift, out=w), out=w)
    sums = w[:, None, :] * snap.risk_cols[strata]
    sums = np.cumsum(sums, axis=2, out=sums).ravel()[snap.risk_index[:, rows] - strata.start * c * m]
    r0, d, row_shift = sums[0].copy(), snap.event_counts[rows], shift[snap.event_stratum[rows] - strata.start, 0]
    # r0 can underflow to 0 at extreme trial steps; the resulting
    # -inf/nan log likelihood makes the Newton loop halve the step.
    with np.errstate(divide="ignore", invalid="ignore"):
        sums[1:] /= r0  # e = r1 / r0, then the second moments
        e, upper = sums[1:p + 1], snap.upper
        sums[p + 1:] -= e[upper[0]] * e[upper[1]]  # the covariance's upper triangle
        sums[0] = np.log(r0) + row_shift
    terms = look_sums(d * sums, bounds - bounds[0]).T
    z_total = snap.event_z_total[lo:lo + looks]
    score = z_total - terms[:, 1:p + 1]
    info = np.empty((looks, p, p))
    info[:, upper[0], upper[1]] = info[:, upper[1], upper[0]] = terms[:, p + 1:]
    loglik = (z_total * beta).sum(axis=1) - terms[:, 0]
    return score, info, loglik, (r0, e, row_shift)


def _eigh_nonsingular(info: np.ndarray, looks, errors, active):
    """Eigen-decompositions of ``info`` at ``looks``; a singular one gets an error and leaves ``active``."""
    eigval, eigvec = np.linalg.eigh(info[looks])
    singular = eigval[:, 0] <= 1e-10 * np.maximum(1.0, eigval[:, -1])
    for k, direction in zip(looks[singular], eigvec[singular, :, 0]):
        errors[k] = SingularInformationError(
            f"observed information is singular along direction {np.round(direction, 6).tolist()} (constant or"
            " collinear covariate, or one that separates events from survivors so the likelihood is monotone?)",
            direction=tuple(float(x) for x in direction))
        active[k] = False
    return looks[~singular], eigval[~singular], eigvec[~singular]


def fit(snap: Snapshot, tol: float = 1e-8, max_iter: int = 50, looks=None) -> CoxFits:
    """Maximize each look's stratified log partial likelihood by Newton iteration, all looks at once.

    Every look starts at beta = 0, converges when its score max-norm drops
    below ``tol``, and halves steps that would decrease its log partial
    likelihood; a look that converges or fails is frozen while the rest go
    on. With no covariates the baselines are Nelson-Aalen estimates. A
    look's failure is kept and raised by ``fits[k]``: ``ConvergenceError``
    (budget spent or halving failed), ``SingularInformationError``,
    ``DataError`` (no events at or before min(u, tau)), or
    ``InsufficientEventsError`` for a look that the mask ``looks`` leaves out.
    """
    wanted = [True] * snap.u.size if looks is None else np.asarray(looks, dtype=bool).tolist()
    errors = [InsufficientEventsError(f"the look at u={u} was left out of the fit") if not want else None if rows
              else DataError(f"no events at or before t_max={min(u, snap.tau)}; nothing to fit")
              for u, rows, want in zip(snap.u.tolist(), np.diff(snap.look_rows).tolist(), wanted)]
    n_looks, p = snap.u.size, snap.z.shape[1]
    beta, step = np.zeros((n_looks, p)), np.zeros((n_looks, p))
    scale, iterations, halvings = (np.zeros(n_looks, dtype=t) for t in (np.float64, np.int64, np.int64))
    score, info, loglik, sums = _score_info(snap, beta)
    row_look = snap.event_stratum // len(snap.orders)
    active = np.array([err is None and p > 0 for err in errors])  # looks still iterating
    fresh = np.flatnonzero(active)  # looks at a new iterate: test it, then step from it
    while True:
        for k, norm in zip(fresh.tolist(), np.abs(score[fresh]).max(axis=1, initial=0.0).tolist()):
            if norm < tol:
                active[k] = False
            elif iterations[k] >= max_iter:
                errors[k] = ConvergenceError(f"no convergence in {max_iter} iterations (score max-norm {norm:.3e})")
                active[k] = False
        stepping = fresh[active[fresh]]
        if stepping.size:
            stepping, eigval, eigvec = _eigh_nonsingular(info, stepping, errors, active)
            coef = (np.swapaxes(eigvec, 1, 2) @ score[stepping, :, None])[:, :, 0] / eigval
            step[stepping], scale[stepping] = (eigvec @ coef[:, :, None])[:, :, 0], 1.0
        live = np.flatnonzero(active)
        if not live.size:
            break
        # evaluate the looks from the first active one to the last; the frozen ones stay where they are
        lo, hi = int(live[0]), int(live[-1]) + 1
        trying = active[lo:hi]
        cand = beta[lo:hi] + (scale[lo:hi] * trying)[:, None] * step[lo:hi]
        c_score, c_info, c_loglik, c_sums = _score_info(snap, cand, lo)
        # relative slack: near the optimum a full step's gain is below
        # one ulp of loglik, and rounding must not reject it
        took = trying & np.isfinite(c_loglik) & (
            c_loglik >= loglik[lo:hi] - 1e-12 * np.maximum(1.0, np.abs(loglik[lo:hi])))
        fresh, halved = lo + np.flatnonzero(took), lo + np.flatnonzero(trying & ~took)
        if fresh.size:
            for state, new in zip((beta, score, info, loglik), (cand, c_score, c_info, c_loglik)):
                state[fresh] = new[fresh - lo]
            rows = slice(snap.look_rows[lo], snap.look_rows[hi])
            for state, new in zip(sums, c_sums):
                np.copyto(state[..., rows], new, where=took[row_look[rows] - lo])
            iterations[fresh] += 1
        halvings[halved] += 1
        scale[halved] *= 0.5
        for k in halved[scale[halved] < 0.5**39].tolist():  # 40 halvings
            errors[k] = ConvergenceError("step halving failed to improve the log partial likelihood")
            active[k] = False
    converged = np.flatnonzero([err is None for err in errors])
    if p and converged.size:
        _eigh_nonsingular(info, converged, errors, active)
    return CoxFits(snap, beta, info, loglik, iterations, halvings, errors, sums)
