"""Unadjusted Kaplan-Meier restricted mean comparison.

The benchmark the adjusted analysis is measured against: product-limit
curves per arm, restricted means by rectangle sums on [0, tau], and the
classical variance built from remaining-area weights, with the arms
treated as independent. Each arm's curve is read straight off the
snapshot's event rows of that (look, arm) stratum: its distinct event
times up to min(u, tau), their event counts and risk-set sizes. Every
look of the snapshot is computed, one at a time.
"""

from __future__ import annotations

import numpy as np

from .adjusted_rmst import Analyses
from .errors import InsufficientEventsError
from .trial_data import Snapshot

__all__ = ["km_rmst_test"]


def km_rmst_test(snap: Snapshot) -> Analyses:
    """Two-arm unadjusted RMST difference at every look, independent-arm variance.

    Each arm's mean is the rectangle sum of its product-limit curve from 0
    to tau (unit height before the first event). Its variance weights
    each event time's hazard noise d/(y(y-d)) by the squared area
    remaining under the curve from that time to tau; a time where the
    risk set is exhausted leaves no remaining area and contributes
    nothing. Returns the ``"km"`` :class:`Analyses`, with arm means and no
    variance components. A look whose variance degenerates to zero keeps
    ``InsufficientEventsError``; a look without an event in each arm has
    NaN means.
    """
    mu, info = np.full((snap.u.size, 2), np.nan), np.full(snap.u.size, np.nan)
    errors = [None] * snap.u.size
    for k in np.flatnonzero(snap.events_in_every_stratum()).tolist():
        var = 0.0
        rows = snap.stratum_rows[2 * k:2 * k + 3].tolist()
        for arm, (lo, hi) in enumerate(zip(rows, rows[1:])):
            times, d, y = snap.event_times[lo:hi], snap.event_counts[lo:hi], snap.at_risk[lo:hi]
            survival = np.cumprod(1.0 - d / y)
            widths = np.diff(np.append(times, snap.tau))
            mu[k, arm] = times[0] + survival @ widths
            remaining = np.cumsum((survival * widths)[::-1])[::-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                noise = np.where(y > d, d / (y * (y - d)), 0.0)
            var += float(np.sum(remaining**2 * noise))
        if var <= 0:
            errors[k] = InsufficientEventsError("degenerate variance: both risk sets exhausted at tau")
        else:
            info[k] = 1.0 / var
    return Analyses("km", snap, mu[:, 1] - mu[:, 0], info, errors, mu)
