"""Proportional-hazards fitting with one baseline hazard per arm.

Both arms share the coefficient vector; each arm keeps its own
nonparametric baseline hazard, so the treatment effect is never forced
through a proportionality assumption. Ties are handled the Breslow way:
tied events share the same risk-set denominator.

All fitting is restricted to event times at or below ``min(u, tau)``;
subjects followed past that point still contribute risk time up to it.
A snapshot's looks are fitted together: one Newton iteration steps every
look's coefficients at once, each look reducing only its own strata, so a
look's fit is the same whatever other looks share its snapshot. The fit
is one :class:`CoxFits`, whose arrays hold every look's results side by
side. The shared-baseline case (the arm a covariate) keeps the
snapshot's event rows and adds both arms' stratum sums at each, so it
needs no layout of its own (ties across arms: :class:`SharedBaseline`).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DataError, InsufficientEventsError, SingularInformationError
from .trial_data import Snapshot, look_sums

__all__ = ["CoxFits", "SharedBaseline", "fit"]

_SCORE_TOL = 1e-8  # a look converges when its score max-norm drops below this
_MAX_ITER = 50  # Newton iterations a look may take


class CoxFits:
    """The fits of every look of one snapshot, from one batched Newton iteration.

    Look k's coefficients are ``beta[k]``, its observed information there
    ``info[k]``, both on the snapshot's standardized covariate scale, and
    its log partial likelihood ``loglik[k]``; ``diagnostics``
    holds (L,) arrays of each look's Newton steps, ``iterations``, and
    halvings of rejected steps, ``step_halvings``. ``errors[k]`` is the error
    its fit met, as a snapshot of that look alone would meet it, or None;
    the property ``iterations`` totals the steps of the looks that fit. The
    arms' Breslow baseline hazards jump by each event row's count over its
    :meth:`risk_sums` r0, at the arm's event times up to min(u, tau).
    """

    def __init__(self, beta, info, loglik, diagnostics, errors, sums):
        self.beta, self.info, self.loglik, self.sums = beta, info, loglik, sums
        self.diagnostics, self.errors = diagnostics, errors

    @property
    def iterations(self) -> int:
        return int(sum(it for it, err in zip(self.diagnostics["iterations"].tolist(), self.errors) if err is None))

    def risk_sums(self):
        """Risk-set sums of exp(beta'Z) and exp(beta'Z) Z (rows, p) at every event row of the snapshot."""
        r0, e, shift = self.sums
        # exp(log r0 + shift) overflows only where the true sum does, not where exp(shift) would
        r0 = np.exp(np.log(r0) + shift)
        return r0, (e * r0).T


class SharedBaseline:
    """A snapshot's looks under one baseline hazard, the arm the first covariate.

    Its event rows are the snapshot's own, each arm's distinct event times by look. Row i reads each arm's stratum
    at its ``at_risk[:, i]`` places, as the snapshot's ``risk_index`` does: its own arm's are the snapshot's
    ``at_risk[i]``, the other arm's those followed at least to its time. Under Breslow's rule for ties a time
    with events in both arms is then two rows, each with the pooled risk set, whose terms add to the one row of
    that time in a pooled layout. The rest is as a :class:`Snapshot`'s."""

    def __init__(self, snap: Snapshot):
        self.snap, self.u, self.tau = snap, snap.u, snap.tau
        self.event_counts, self.event_stratum, self.look_rows = snap.event_counts, snap.event_stratum, snap.look_rows
        arm1 = look_sums(snap.event_counts, snap.stratum_rows)[1::2]  # the treatment arm's events
        self.event_z_total = np.column_stack((arm1, snap.event_z_total))
        self.upper = np.triu_indices(self.event_z_total.shape[1])
        s, m = snap.stratum_times.shape
        own, other = snap.event_stratum, snap.event_stratum ^ 1
        # the other arm's places from the first followed to the row's time on: strata as stratum + i time, ascending
        other_n = (other + 1) * m - np.searchsorted((np.arange(s)[:, None] + 1j * snap.stratum_times).ravel(),
                                                    other + 1j * snap.event_times)
        self.at_risk = np.where(own % 2, (other_n, snap.at_risk), (snap.at_risk, other_n))
        stratum = own - own % 2 + [[0], [1]]  # each row's two strata
        self.risk_index = stratum * snap.risk_cols[0].size + np.maximum(self.at_risk - 1, 0)
        self.live = self.at_risk > 0  # False where the other arm has nobody at risk


def _score_info(snap, beta: np.ndarray, lo: int = 0):
    """Score, information and log partial likelihood of looks ``lo, lo + 1, ...``, one beta row each.

    ``snap`` is a :class:`Snapshot` or a :class:`SharedBaseline` of one.
    Also returns the risk sums at their event rows, which the baselines
    reuse: ``r0`` scaled by exp(-shift) (the true sum is ``r0 *
    exp(shift)``), ``e = r1 / r0`` (p, rows) and each row's ``shift``, the
    largest linear predictor of its stratum, or of its look. A look's
    values add only its own rows, so no other look changes them.
    """
    (looks, q), shared = beta.shape, isinstance(snap, SharedBaseline)
    base, strata = snap.snap if shared else snap, slice(2 * lo, 2 * (lo + looks))
    c, m, p = *base.risk_cols.shape[1:], base.z.shape[1]
    w = np.einsum("spm,sp->sm", base.risk_cols[strata, 1:p + 1], np.repeat(beta[:, shared:], 2, axis=0))  # predictors
    if shared:
        w[1::2] += beta[:, :1]  # gamma, the treatment arm's
    shift = w.max(axis=1)
    if shared:  # the larger of a look's two shifts; a stratum without subjects keeps its own and weighs 0
        real = base.stratum_n[strata] > 0
        shift = np.where(real, np.repeat(np.where(real, shift, -np.inf).reshape(-1, 2).max(axis=1), 2), shift)
    w = np.exp(np.subtract(w, shift[:, None], out=w), out=w)
    w *= base.risk_cols[strata, 0]  # 0 on padding
    sums = w[:, None, :] * base.risk_cols[strata]
    sums = np.cumsum(sums, axis=2, out=sums).ravel()
    bounds = snap.look_rows[lo:lo + looks + 1]
    rows = slice(bounds[0], bounds[-1])
    # a row's risk set is the first at_risk places of each column of its stratum
    columns, index = (np.arange(c) * m)[:, None], snap.risk_index[..., rows] - 2 * lo * c * m
    if shared:  # both arms' sums, under their look's shift; 0 for an arm with nobody at risk
        arms = np.take(sums, columns[:, None] + index)
        arms *= snap.live[:, rows]
        both, treated = np.add(arms[:, 0], arms[:, 1], out=arms[:, 0]), arms[:, 1]
        sums = np.concatenate((both[:1], treated[:1], both[1:p + 1], treated[:p + 1], both[p + 1:]))
    else:
        sums = np.take(sums, columns + index)
    row_shift = shift[snap.event_stratum[rows] - 2 * lo]
    r0, d = sums[0].copy(), snap.event_counts[rows]
    # r0 can underflow to 0 at extreme trial steps; the resulting
    # -inf/nan log likelihood makes the Newton loop halve the step.
    with np.errstate(divide="ignore", invalid="ignore"):
        sums[1:] /= r0  # e = r1 / r0, then the second moments
        e, upper = sums[1:q + 1].copy(), snap.upper
        sums[q + 1:] -= e[upper[0]] * e[upper[1]]  # the covariance's upper triangle
        sums[0] = np.log(r0) + row_shift
    terms = look_sums(np.multiply(sums, d, out=sums), bounds - bounds[0]).T
    z_total = snap.event_z_total[lo:lo + looks]
    score = z_total - terms[:, 1:q + 1]
    info = np.empty((looks, q, q))
    info[:, upper[0], upper[1]] = info[:, upper[1], upper[0]] = terms[:, q + 1:]
    loglik = (z_total * beta).sum(axis=1) - terms[:, 0]
    return score, info, loglik, (r0, e, row_shift)


def _eigh_nonsingular(info: np.ndarray, looks, errors, active):
    """Eigen-decompositions of ``info`` at ``looks``; a singular one gets an error and leaves ``active``."""
    eigval, eigvec = np.linalg.eigh(info[looks])
    singular = eigval[:, 0] <= 1e-10 * np.maximum(1.0, eigval[:, -1])
    for k, direction in zip(looks[singular], eigvec[singular, :, 0]):
        errors[k] = SingularInformationError(
            f"observed information is singular along direction {np.round(direction, 6).tolist()} (constant or"
            " collinear covariate, or one that separates events from survivors so the likelihood is monotone?)")
        active[k] = False
    return looks[~singular], eigval[~singular], eigvec[~singular]


def fit(snap: Snapshot | SharedBaseline, looks=None) -> CoxFits:
    """Maximize each look's stratified, or shared-baseline, log partial likelihood by Newton iteration, all at once.

    Every look starts at beta = 0, converges when its score max-norm drops
    below ``_SCORE_TOL``, and halves steps that would decrease its log partial
    likelihood; a look that converges or fails is frozen while the rest go
    on. With no covariates the baselines are Nelson-Aalen estimates. A
    look's failure is kept in ``errors[k]``: ``ConvergenceError`` (its
    ``_MAX_ITER`` iterations spent, or halving failed),
    ``SingularInformationError``, ``DataError`` (no events at or before
    min(u, tau)), or ``InsufficientEventsError`` for a look that the mask
    ``looks`` leaves out.
    """
    wanted = [True] * snap.u.size if looks is None else np.asarray(looks, dtype=bool).tolist()
    errors = [InsufficientEventsError(f"the look at u={u} was left out of the fit") if not want else None if rows
              else DataError(f"no events at or before t_max={min(u, snap.tau)}; nothing to fit")
              for u, rows, want in zip(snap.u.tolist(), np.diff(snap.look_rows).tolist(), wanted)]
    n_looks, p = snap.u.size, snap.event_z_total.shape[1]
    beta, step = np.zeros((n_looks, p)), np.zeros((n_looks, p))
    scale, iterations, halvings = (np.zeros(n_looks, dtype=t) for t in (np.float64, np.int64, np.int64))
    score, info, loglik, sums = _score_info(snap, beta)
    row_look = np.repeat(np.arange(n_looks), np.diff(snap.look_rows))
    active = np.array([err is None and p > 0 for err in errors])  # looks still iterating
    fresh = np.flatnonzero(active)  # looks at a new iterate: test it, then step from it
    while True:
        for k, norm in zip(fresh.tolist(), np.abs(score[fresh]).max(axis=1, initial=0.0).tolist()):
            if norm < _SCORE_TOL:
                active[k] = False
            elif iterations[k] >= _MAX_ITER:
                errors[k] = ConvergenceError(f"no convergence in {_MAX_ITER} iterations (score max-norm {norm:.3e})")
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
    return CoxFits(beta, info, loglik, {"iterations": iterations, "step_halvings": halvings}, errors, sums)
