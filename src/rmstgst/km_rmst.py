"""Unadjusted Kaplan-Meier restricted mean comparison.

The benchmark the adjusted analysis is measured against: product-limit
curves per arm, restricted means by rectangle sums on [0, tau], and the
classical variance built from remaining-area weights, with the arms
treated as independent. Each arm's curve is read straight off the
snapshot's event rows of that (look, arm) stratum: its distinct event
times up to min(u, tau), their event counts and risk-set sizes. Every
look of the snapshot is computed in one pass over the stacked event rows,
each stratum's running products and sums taken over its own rows alone.
"""

from __future__ import annotations

import numpy as np

from .adjusted_rmst import Analyses
from .errors import InsufficientEventsError
from .trial_data import Snapshot, look_sums

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
    ``InsufficientEventsError``; a look without an event in each arm keeps
    the snapshot's error and has NaN means.
    """
    d, y, bounds = snap.event_counts, snap.at_risk, snap.stratum_rows
    widths, firsts = snap.row_widths()
    area = snap.accumulate(1.0 - d / y, op=np.multiply) * widths  # under each row's step of the curve
    remaining = snap.accumulate(area, reverse=True)
    errors = snap.look_errors()
    both = np.array([error is None for error in errors])
    with np.errstate(divide="ignore", invalid="ignore"):
        var = look_sums(remaining**2 * np.where(y > d, d / (y * (y - d)), 0.0), bounds).reshape(-1, 2).sum(axis=1)
        info = np.where(both & (var > 0), 1.0 / var, np.nan)
    mu = np.where(both[:, None], firsts + look_sums(area, bounds).reshape(-1, 2), np.nan)
    for k in np.flatnonzero(both & (var <= 0)).tolist():
        errors[k] = InsufficientEventsError("degenerate variance: both risk sets exhausted at tau")
    return Analyses("km", snap, mu[:, 1] - mu[:, 0], info, errors, mu)
