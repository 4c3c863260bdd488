"""Covariate-adjusted restricted mean survival time and its variance, every look of a snapshot at once.

The adjusted survival curve for an arm averages model-based conditional
survival exp(-exp(beta'Z) * Lambda0_arm(t)) over every enrolled
subject's covariates, both arms pooled, so the two arms are standardized
to the same covariate mix. Restricted means integrate those step curves
to the horizon tau, and the variance estimator accounts for baseline-
hazard noise (per arm), coefficient noise, and the covariate spread of
the conditional effect. One stacked pass reads the snapshot's event rows
and the fits' risk sums there: per-stratum cumulative sums give every
Breslow hazard and variance term, and one batched solve every coefficient
term. A look's conditional survival, subjects x event rows of both arms,
enters only through sums over subjects, and a subject only through its
linear predictor eta = beta'Z. A look of at most one block of cells
evaluates it exactly, in one block; a larger look evaluates it at 24
Chebyshev nodes in each unit panel of eta that holds a subject, and
interpolates each subject's row from its panel's nodes. For the nodes
only, eta is clamped to the nodes just past where every cell is exactly 1
or exactly 0, so a run-off fit's huge eta spans a bounded window of panels
and a clamped subject's cells stay exact; the weights exp(eta) in the sums
are not clamped, so such a look still turns NaN as the exact kernel makes
it. A look reads only its own rows, so its numbers do not depend on the
other looks.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError
from .stratified_cox import CoxFits, fit as cox_fit
from .trial_data import Snapshot, look_sums

__all__ = [
    "AdjustedSurvival",
    "Analyses",
    "adjusted_survival",
    "variance",
    "analyze",
]


# subjects x event rows of the largest look whose conditional survival is evaluated exactly, in one block:
# 1 MiB of float64, in a 2 MiB L2 cache with its inputs. Near one block the exact and the node kernel cost
# about the same (0.34 and 0.37 ms at 400 x 330 cells); past it the nodes win, by ~50x at 5 000 per arm.
# Every look of a 200-per-arm trial is within one block. A block also sizes the node path's memory.
_BLOCK_CELLS = 2**17
# Chebyshev points of the second kind on [0, 1], so each end is a node, and their barycentric weights; built
# in Python, since numpy's sin and power loops, used nowhere else, add ~0.15 MB to a cold analyze's peak RSS
_NODES = np.array([math.sin(math.pi * m / 46) ** 2 for m in range(24)])
_NODE_WEIGHTS = np.array([(-1.0) ** m / (2.0 if m in (0, 23) else 1.0) for m in range(24)])


@dataclass(frozen=True)
class AdjustedSurvival:
    """Adjusted survival of each arm at the analyzed looks of a snapshot, on its event rows.

    Event row i (see :class:`Snapshot`) carries its stratum's curve from
    its event time on, ``values[i]`` (1 before the first row), the arm's
    Breslow cumulative hazard ``hazard[i]``, and ``widths[i]`` to the next
    row or tau; ``mu`` (L, 2) holds each look's restricted means. Only the
    reductions the variance needs are kept: ``c1``/``c2``, the curve
    averages weighted by exp(beta'Z) and exp(beta'Z) Z at each row, and
    ``cond_diff[k]``, the (n_k,) conditional RMST differences of look k's
    subjects. Rows and means of looks not analyzed are NaN. ``risk`` holds
    the fits' risk sums (r0, r1) at every row, which the variance reuses.
    A look of more than ``_BLOCK_CELLS`` subjects x rows takes its curves,
    ``c1``, ``c2`` and ``cond_diff`` from the conditional survival at nodes
    in the linear predictor, which agree with the exact ones to about 1e-15.
    """

    values: np.ndarray
    hazard: np.ndarray
    widths: np.ndarray
    mu: np.ndarray
    c1: np.ndarray = field(repr=False, compare=False)
    c2: np.ndarray = field(repr=False, compare=False)
    cond_diff: dict = field(repr=False, compare=False)
    risk: tuple = field(repr=False, compare=False)


def adjusted_survival(snap: Snapshot, fits: CoxFits, looks) -> AdjustedSurvival:
    """Average conditional survival of each arm over each look's pooled covariates, at looks ``looks``.

    Each look needs a fit; an arm without events keeps survival 1 and mean tau.
    With no covariates an arm's curve is exactly its exponentiated Nelson-Aalen curve.
    """
    risk = fits.risk_sums()
    hazard = snap.accumulate(snap.event_counts / risk[0])
    times = snap.event_times
    bounds = snap.stratum_rows
    widths, firsts = snap.row_widths()
    spans = np.zeros((times.size, 2))  # each row's width in its arm's column
    spans[np.arange(times.size), snap.event_stratum % 2] = widths
    # a block's conditional survival times the rows [1, w, w*z] sums the curve,
    # c1 and c2 in one product, and times the spans gives both arms' conditional means
    weights = np.column_stack((np.ones((snap.z.shape[0], 2)), snap.z))
    sums = np.full((weights.shape[1], times.size), np.nan)
    cond_diff = {}
    for k in looks:
        lo, hi = bounds[2 * k:2 * k + 3:2].tolist()
        look_w = np.compress(snap.time[k] >= 0, weights[snap.offset[k]:], axis=0)  # its own trial's enrolled
        n = look_w.shape[0]
        eta = look_w[:, 2:] @ fits.beta[k]
        w = np.exp(eta)
        look_w[:, 1:] *= w[:, None]
        if n * (hi - lo) <= _BLOCK_CELLS:
            look_sum, cond_mu = _exact_kernel(look_w, w, hazard[lo:hi], spans[lo:hi])
        else:
            look_sum, cond_mu = _node_kernel(look_w, eta, hazard[lo:hi], spans[lo:hi])
        sums[:, lo:hi] = look_sum / n
        cond_diff[k] = (cond_mu[:, 1] + firsts[k, 1]) - (cond_mu[:, 0] + firsts[k, 0])
    mu = np.full((snap.u.size, 2), np.nan)
    mu[looks] = (firsts + look_sums(sums[0] * widths, bounds).reshape(-1, 2))[looks]
    return AdjustedSurvival(values=sums[0], hazard=hazard, widths=widths, mu=mu, c1=sums[1], c2=sums[2:].T,
                            cond_diff=cond_diff, risk=risk)


def _exact_kernel(look_w: np.ndarray, w: np.ndarray, hazard: np.ndarray, spans: np.ndarray) -> tuple:
    """``look_w.T @ cond`` and ``cond @ spans`` of the conditional survival cond = exp(-w (x) hazard)."""
    # outputs before cond, and the products' temporaries after it: cond's block is then freed last and the
    # next look's cond reuses it. Other orders stranded it and raised calibrate's peak RSS by up to 0.6 MB
    look_sum, cond_mu = np.zeros((look_w.shape[1], hazard.size)), np.empty((w.size, 2))
    cond = np.einsum("i,j->ij", -w, hazard)  # faster than np.multiply.outer; only a 0's sign differs, and exp drops it
    np.exp(cond, out=cond)
    look_sum += look_w.T @ cond
    cond_mu[:] = cond @ spans
    return look_sum, cond_mu


def _kernel_eta(eta: np.ndarray, hazard: np.ndarray) -> np.ndarray:
    """``eta`` clamped to the integers, and so nodes, around where exp(-exp(eta) H) varies over the hazards H.

    At and below the lower bound every cell is exactly 1 (exp(eta) H <= 2**-60 at the largest H),
    at and above the upper one exactly 0 (exp(eta) H >= 750 at the smallest H > 0, past the smallest
    subnormal), so a clamped subject takes the cells its own eta gives. Without hazard every cell is 1.
    """
    positive = hazard[hazard > 0]
    if not positive.size:
        return np.zeros_like(eta)
    return np.clip(eta, np.floor(np.log(2.0**-60 / positive.max())), np.ceil(np.log(750.0 / positive.min())))


def _node_kernel(look_w: np.ndarray, eta: np.ndarray, hazard: np.ndarray, spans: np.ndarray) -> tuple:
    """What :func:`_exact_kernel` returns, from the conditional survival at nodes in eta = log(w).

    A subject's row of cond depends on it only through eta, so it is the barycentric
    interpolant of the rows at the 24 nodes of the unit panel [floor(eta), floor(eta) + 1]
    holding its eta (:func:`_kernel_eta` clamped), exact at a node. Only the panels that hold
    a subject are evaluated, one (24, rows) kernel at a time, and the interpolation weights
    of a panel's subjects are built an eighth of a block at a time, so the peak memory stays
    about one block, as the exact kernel's.
    """
    x = _kernel_eta(eta, hazard)
    order = np.argsort(x, kind="stable")
    chunk = max(1, _BLOCK_CELLS // (8 * _NODES.size))
    look_sum = np.zeros((look_w.shape[1], hazard.size))
    cond_mu = np.empty((x.size, 2))
    for panel in np.split(order, np.flatnonzero(np.diff(np.floor(x[order]))) + 1):
        start = np.floor(x[panel[0]])
        kernel = np.multiply.outer(-np.exp(start + _NODES), hazard)
        np.exp(kernel, out=kernel)
        node_mu = kernel @ spans
        node_w = np.zeros((_NODES.size, look_w.shape[1]))  # the panel's look_w summed onto its nodes
        for rows in np.split(panel, range(chunk, panel.size, chunk)):
            lagrange = (x[rows] - start)[:, None] - _NODES
            hit = lagrange == 0.0
            lagrange[hit] = 1.0
            np.divide(_NODE_WEIGHTS, lagrange, out=lagrange)
            on = hit.any(axis=1)
            lagrange[on] = hit[on]  # a subject on a node takes that node's row
            lagrange /= lagrange.sum(axis=1, keepdims=True)
            node_w += lagrange.T @ look_w[rows]
            cond_mu[rows] = lagrange @ node_mu
            del lagrange  # as the kernel below: one chunk's weights alive at a time
        look_sum += node_w.T @ kernel
        del kernel  # freed before the next panel's is allocated, so one is alive at a time
    return look_sum, cond_mu


def variance(snap: Snapshot, fits: CoxFits, adj: AdjustedSurvival) -> dict:
    """Variance components of the adjusted RMST difference at each look ``adj`` analyzed; NaN at the others.

    Returns (L,) arrays under ``B10``/``B11``, the baseline-hazard noise
    of arms 0 and 1, ``B3``, the shared-coefficient noise, and
    ``var_cond``, the covariate spread, the variance of ``adj.cond_diff[k]``.
    All are on the root-n scale: their sum v_eta2 = B10 + B11 + B3 +
    var_cond scales a look's estimate's variance as v_eta2 / n. Expects
    ``adj`` built from the same fits and snapshot, whose risk sums it reuses.
    """
    looks = list(adj.cond_diff)
    bounds = snap.stratum_rows
    d = snap.event_counts
    arm_n = snap.stratum_n
    n = arm_n.reshape(-1, 2).sum(axis=1)
    r0, r1 = adj.risk
    gamma_inc = arm_n[snap.event_stratum] * d / r0**2
    q = snap.accumulate(d[:, None] * r1 / (r0**2)[:, None])
    psi = look_sums(((adj.c1[:, None] * q - adj.hazard[:, None] * adj.c2) * adj.widths[:, None]).T, bounds)
    tail = snap.accumulate(adj.c1 * adj.widths, reverse=True)
    b1 = ((np.repeat(n, 2) / arm_n) * look_sums(gamma_inc * tail**2, bounds)).reshape(-1, 2)
    psi_diff = (psi[:, 1::2] - psi[:, ::2]).T[looks]
    out = np.full((4, n.size), np.nan)  # B10, B11, B3 and var_cond of each look
    out[:2, looks] = b1[looks].T
    out[2, looks] = 0.0
    if psi_diff.size:
        solved = np.linalg.solve(fits.info[looks], psi_diff[:, :, None])[:, :, 0]
        out[2, looks] = (n[looks, None] * psi_diff * solved).sum(axis=1)
    # each look's subjects' differences end to end; the [] lets a snapshot with no look analyzed concatenate
    diff, at = np.concatenate([*adj.cond_diff.values(), []]), np.cumsum([0, *n[looks]])
    spread = diff - np.repeat(look_sums(diff, at) / n[looks], n[looks])
    out[3, looks] = look_sums(spread**2, at) / n[looks]
    return dict(zip(("B10", "B11", "B3", "var_cond"), out))


@dataclass(eq=False)
class Analyses:
    """Every look's analysis of one snapshot by one method, as per-look arrays.

    ``delta`` and ``info`` (L,) hold each look's effect estimate and its
    information; ``mu`` (L, 2) the arms' restricted means, ``components``
    the variance components and ``diagnostics`` the fit's diagnostics,
    each a dict of (L,) arrays, where the method has them. ``errors[k]`` is
    what keeps look k from a result, as a snapshot of that look alone
    would meet it: the method's error as given, each method starting from
    :meth:`Snapshot.look_errors` (an arm with no event by min(u, tau)),
    else, decided here, a delta or information that is not finite and
    positive (``EstimationError``). ``delta`` and ``info`` are copies of
    the arrays given, NaN where a look has an error. :meth:`report` gives
    one look as the CLI prints it.
    """

    method: str
    snap: Snapshot
    delta: np.ndarray
    info: np.ndarray
    errors: list
    mu: np.ndarray | None = None
    components: dict | None = field(default=None, repr=False)
    diagnostics: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        self.delta, self.info = np.array(self.delta, dtype=np.float64), np.array(self.info, dtype=np.float64)
        errors = self.errors = list(self.errors)
        for k, (u, delta, info) in enumerate(zip(self.snap.u.tolist(), self.delta.tolist(), self.info.tolist())):
            if errors[k] is None and not (math.isfinite(delta) and math.isfinite(info) and info > 0):
                errors[k] = EstimationError(f"{self.method} analysis at u={u} gave delta={delta!r}, info={info!r}; "
                                            "both must be finite and info positive")
        failed = [error is not None for error in errors]
        self.delta[failed] = self.info[failed] = np.nan

    def report(self, k: int) -> dict:
        """Look k as the CLI prints it, or raise a copy of its error: ``u``, ``tau``, the arms' means ``mu0`` and
        ``mu1`` (RMST methods), ``delta``, ``se`` = 1/sqrt(info), ``z`` = delta sqrt(info) and ``info``, then the
        variance ``components`` and fit ``diagnostics`` (adjusted method), in this order."""
        if self.errors[k] is not None:  # a copy, so no traceback ties the error to these analyses
            raise copy.copy(self.errors[k])
        delta, info = float(self.delta[k]), float(self.info[k])
        out = {"u": float(self.snap.u[k]), "tau": self.snap.tau}
        if self.mu is not None:
            out["mu0"], out["mu1"] = self.mu[k].tolist()
        out.update(delta=delta, se=1.0 / math.sqrt(info), z=delta * math.sqrt(info), info=info)
        for block, arrays in (("components", self.components), ("diagnostics", self.diagnostics)):
            if arrays is not None:
                out[block] = {name: values[k].item() for name, values in arrays.items()}
        return out


def analyze(snap: Snapshot) -> Analyses:
    """Full adjusted analysis of every look of a snapshot: fit, curves, difference, variance.

    The model is fitted at the looks with an event in each arm. Returns the
    ``"adjusted"`` :class:`Analyses`, with arm means, variance components
    and fit diagnostics; a look whose model fit failed keeps the fit's
    ``ConvergenceError`` or ``SingularInformationError``.
    """
    fits = cox_fit(snap)
    # a look whose fit ran off overflows here; its difference or information is then not finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        adj = adjusted_survival(snap, fits, [k for k, error in enumerate(fits.errors) if error is None])
        comp = variance(snap, fits, adj)
        info = snap.stratum_n.reshape(-1, 2).sum(axis=1) / (comp["B10"] + comp["B11"] + comp["B3"] + comp["var_cond"])
    return Analyses("adjusted", snap, adj.mu[:, 1] - adj.mu[:, 0], info, fits.errors, adj.mu, comp, fits.diagnostics)
