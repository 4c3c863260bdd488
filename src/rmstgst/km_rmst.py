"""Unadjusted Kaplan-Meier restricted mean comparison.

The benchmark the adjusted analysis is measured against: product-limit
curves per arm, restricted means by rectangle sums on [0, tau], and the
classical variance built from remaining-area weights, with the arms
treated as independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjusted_rmst import AnalysisResult, _require_events
from .errors import InsufficientEventsError
from .trial_data import Look, Snapshot

__all__ = ["KmCurve", "km_fit", "km_rmst", "km_rmst_test"]


@dataclass(frozen=True)
class KmCurve:
    """Product-limit estimate for one arm, tracked to the snapshot horizon.

    Arrays are indexed by the arm's distinct event times at or below
    tau: ``at_risk`` counts subjects with follow-up reaching each time,
    ``events`` the events there, ``survival`` the post-drop curve value.
    """

    arm: int
    tau: float
    times: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    survival: np.ndarray


def km_fit(snap: Look, arm: int) -> KmCurve:
    """Kaplan-Meier curve for one arm of a look, horizon ``tau``, from its ``arms`` layout."""
    data = snap.arms[arm]
    return KmCurve(
        arm=arm,
        tau=snap.tau,
        times=data.event_times,
        at_risk=data.at_risk.astype(np.int64),
        events=data.event_counts.astype(np.int64),
        survival=np.cumprod(1.0 - data.event_counts / data.at_risk),
    )


def km_rmst(curve: KmCurve) -> tuple[float, float]:
    """Restricted mean and its variance for one Kaplan-Meier curve.

    The mean is the rectangle sum of the step curve from 0 to tau
    (unit height before the first event). The variance weights each
    event time's hazard noise d/(y(y-d)) by the squared area remaining
    under the curve from that time to tau; a time where the risk set is
    exhausted leaves no remaining area and contributes nothing.
    """
    tau = curve.tau
    te = curve.times
    if te.size == 0:
        return tau, 0.0
    widths = np.diff(np.append(te, tau))
    mu = float(te[0] + curve.survival @ widths)
    remaining = np.cumsum((curve.survival * widths)[::-1])[::-1]
    y = curve.at_risk.astype(np.float64)
    d = curve.events.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        noise = np.where(y > d, d / (y * (y - d)), 0.0)
    var = float(np.sum(remaining**2 * noise))
    return mu, var


def km_rmst_test(snap: Snapshot, fits=None, k: int = 0) -> AnalysisResult:
    """Two-arm unadjusted RMST difference at look ``k``, independent-arm variance; ``fits`` is unused.

    Returns the ``"km"`` :class:`AnalysisResult`, with arm means and no
    variance components.

    Raises:
        InsufficientEventsError: an arm has no event at or before
            min(u, tau), or the variance degenerates to zero.
        EstimationError: the difference or its information is not finite.
    """
    look = snap[k]
    _require_events(look)
    mu0, var0 = km_rmst(km_fit(look, 0))
    mu1, var1 = km_rmst(km_fit(look, 1))
    var = var0 + var1
    if var <= 0:
        raise InsufficientEventsError("degenerate variance: both risk sets exhausted at tau")
    return AnalysisResult(method="km", u=look.u, tau=look.tau, delta=mu1 - mu0, info_level=1.0 / var,
                          mu0=mu0, mu1=mu1)
