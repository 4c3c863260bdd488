"""Unadjusted Kaplan-Meier restricted mean comparison.

The benchmark the adjusted analysis is measured against: product-limit
curves per arm, restricted means by rectangle sums on [0, tau], and the
classical variance built from remaining-area weights, with the arms
treated as independent. Each arm's curve is read straight off the
snapshot's event rows of that (look, arm) stratum: its distinct event
times up to min(u, tau), their event counts and risk-set sizes.
"""

from __future__ import annotations

import numpy as np

from .adjusted_rmst import AnalysisResult, _events_error
from .errors import InsufficientEventsError
from .trial_data import Snapshot

__all__ = ["km_rmst_test"]


def km_rmst_test(snap: Snapshot, k: int = 0) -> AnalysisResult:
    """Two-arm unadjusted RMST difference at look ``k``, independent-arm variance.

    Each arm's mean is the rectangle sum of its product-limit curve from 0
    to tau (unit height before the first event). Its variance weights
    each event time's hazard noise d/(y(y-d)) by the squared area
    remaining under the curve from that time to tau; a time where the
    risk set is exhausted leaves no remaining area and contributes
    nothing. Returns the ``"km"`` :class:`AnalysisResult`, with arm means
    and no variance components.

    Raises:
        InsufficientEventsError: an arm has no event at or before
            min(u, tau), or the variance degenerates to zero.
        EstimationError: the difference or its information is not finite.
    """
    if error := _events_error(snap, k):
        raise error
    means, var = [], 0.0
    rows = snap.stratum_rows[2 * k:2 * k + 3].tolist()
    for lo, hi in zip(rows, rows[1:]):
        times, d, y = snap.event_times[lo:hi], snap.event_counts[lo:hi], snap.at_risk[lo:hi]
        survival = np.cumprod(1.0 - d / y)
        widths = np.diff(np.append(times, snap.tau))
        means.append(float(times[0] + survival @ widths))
        remaining = np.cumsum((survival * widths)[::-1])[::-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            noise = np.where(y > d, d / (y * (y - d)), 0.0)
        var += float(np.sum(remaining**2 * noise))
    if var <= 0:
        raise InsufficientEventsError("degenerate variance: both risk sets exhausted at tau")
    mu0, mu1 = means
    return AnalysisResult(method="km", u=float(snap.u[k]), tau=snap.tau, delta=mu1 - mu0, info_level=1.0 / var,
                          mu0=mu0, mu1=mu1)
