"""Partial-likelihood fit, score, information, and baseline estimators."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    baseline,
    enrolled,
    height,
    look_fit,
    monotone_trial,
    sim_snapshot,
    toy_snapshot,
    with_covariates,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmstgst import stratified_cox
from rmstgst.errors import (
    ConvergenceError, DataError, InsufficientEventsError, RmstgstError, SingularInformationError,
)
from rmstgst.sim_engine import SimScenario, _rng_for_replicate, cox_hr_test, draw_trial
from rmstgst.stratified_cox import CoxFits, SharedBaseline, _score_info, fit
from rmstgst.trial_data import snapshot, snapshot_from_arrays


def score_and_info(snap, beta):
    """Score vector, observed information and log partial likelihood of a one-look snapshot at ``beta``."""
    score, info, loglik, _ = _score_info(snap, np.atleast_1d(np.asarray(beta, dtype=np.float64))[None])
    return score[0], info[0], loglik[0]


def fits_at(snap, beta):
    """The fits of a one-look snapshot, or its shared baseline, held at fixed ``beta``."""
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))[None]
    _, info, loglik, sums = _score_info(snap, beta)
    none = np.zeros(1, dtype=np.int64)
    return CoxFits(beta, info, loglik, {"iterations": none, "step_halvings": none}, [None], sums)


def breslow(snap, beta, arm):
    """One arm's Breslow cumulative baseline hazard of a one-look snapshot at fixed ``beta``."""
    return baseline(snap, fits_at(snap, beta), 0, arm)


def arrays_snapshot(time, event, arm, z, u=10.0, tau=10.0):
    time = np.asarray(time, dtype=float)
    n = time.size
    z = np.asarray(z, dtype=float).reshape(n, -1)
    return snapshot_from_arrays(
        np.zeros(n), time, np.asarray(event), np.asarray(arm), z, u=u, tau=tau,
    )


def naive_loglik(snap, beta, t_max=None):
    """Literal stratified Breslow log partial likelihood of a one-look snapshot, one event at a time."""
    snap = enrolled(snap)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if t_max is None:
        t_max = min(snap.u, snap.tau)
    total = 0.0
    for arm in (0, 1):
        idx = np.asarray(snap.arm) == arm
        times = np.asarray(snap.time)[idx]
        events = np.asarray(snap.event)[idx]
        z = np.asarray(snap.z)[idx]
        for j in range(times.size):
            if events[j] and times[j] <= t_max:
                at_risk = times >= times[j]
                total += float(z[j] @ beta) - math.log(float(np.exp(z[at_risk] @ beta).sum()))
    return total


class TestScoreAndInfo:
    def test_single_event_score_is_centered_covariate(self):
        snap = arrays_snapshot([1.0, 2.0, 3.0, 4.0], [1, 0, 0, 0], [0, 0, 0, 0], [0.3, -0.2, 0.8, 0.1])
        z = snap.z[:, 0]  # the snapshot's standardized covariate
        score, info, _ = score_and_info(snap, [0.0])
        assert score[0] == pytest.approx(z[0] - np.mean(z))
        assert info[0, 0] == pytest.approx(np.var(z))

    def test_no_events(self):
        snap = arrays_snapshot([1.0, 2.0], [0, 0], [0, 1], [0.5, -0.5])
        score, info, loglik = score_and_info(snap, [0.7])
        assert score[0] == 0.0 and info[0, 0] == 0.0 and loglik == 0.0

    def test_score_matches_finite_difference(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.5, 2.0, 2.5], [1, 1, 0, 1, 1], [0, 1, 0, 1, 0],
            [0.2, -0.4, 1.0, 0.0, 0.6],
        )
        beta = np.array([0.3])
        score, info, loglik = score_and_info(snap, beta)
        h = 1e-6
        fd = (naive_loglik(snap, beta + h) - naive_loglik(snap, beta - h)) / (2 * h)
        assert score[0] == pytest.approx(fd, rel=1e-6)
        assert loglik == pytest.approx(naive_loglik(snap, beta), rel=1e-12)
        h2 = 1e-4
        fd2 = (
            naive_loglik(snap, beta + h2) - 2 * naive_loglik(snap, beta)
            + naive_loglik(snap, beta - h2)
        ) / h2**2
        assert info[0, 0] == pytest.approx(-fd2, rel=1e-4)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(0.1, 5.0), st.integers(0, 1), st.integers(0, 1),
                st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
            ),
            min_size=4, max_size=20,
        ),
        beta=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    @settings(max_examples=200)
    def test_gradient_property(self, data, beta):
        time = [row[0] for row in data]
        event = [row[1] for row in data]
        arm = [row[2] for row in data]
        z = [[row[3], row[4]] for row in data]
        snap = arrays_snapshot(time, event, arm, z)
        beta = np.asarray(beta)
        score, _, loglik = score_and_info(snap, beta)
        assert loglik == pytest.approx(naive_loglik(snap, beta), abs=1e-9)
        h = 1e-6
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            fd = (naive_loglik(snap, beta + step) - naive_loglik(snap, beta - step)) / (2 * h)
            assert score[j] == pytest.approx(fd, rel=2e-5, abs=2e-6)

    def test_events_beyond_window_ignored(self):
        late_only = arrays_snapshot([3.0, 4.0], [1, 1], [1, 1], [0.4, 0.3], u=10.0, tau=2.0)
        s, i, ll = score_and_info(late_only, [0.0])
        assert s[0] == 0.0 and i[0, 0] == 0.0 and ll == 0.0


class TestFit:
    def test_six_subject_grid_search_oracle(self):
        snap = arrays_snapshot(
            [0.4, 0.8, 1.2, 1.6, 2.0, 2.4], [1, 1, 1, 1, 1, 1],
            [0, 0, 0, 1, 1, 1], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        )
        grid = np.arange(-5.0, 5.0 + 1e-12, 1e-4)
        values = np.array([naive_loglik(snap, [b]) for b in grid[:: 2000]])
        coarse = grid[::2000][np.argmax(values)]
        fine = np.arange(coarse - 0.25, coarse + 0.25, 1e-4)
        values = np.array([naive_loglik(snap, [b]) for b in fine])
        oracle = fine[np.argmax(values)]
        fitted = look_fit(fit(snap), 0)
        assert fitted.beta[0] == pytest.approx(oracle, abs=1e-3)
        assert fitted.loglik >= naive_loglik(snap, [0.0]) - 1e-12

    def test_constant_covariate_singular(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.5, 2.0], [1, 1, 1, 1], [0, 0, 1, 1],
            [[1.0, 0.3], [1.0, -0.2], [1.0, 0.8], [1.0, 0.4]],
        )
        fits = fit(snap)
        with pytest.raises(SingularInformationError, match="singular along direction"):
            look_fit(fits, 0)
        direction = np.abs(np.linalg.eigh(fits.info[0])[1][:, 0])
        assert direction[0] > 0.99

    def test_monotone_likelihood_hint(self):
        # One event per arm: the covariate separates events from
        # survivors, so beta runs off and the information vanishes.
        snap = snapshot(monotone_trial(), u=0.2, tau=1.0)
        with pytest.raises(SingularInformationError, match="separates events from survivors"):
            cox_hr_test(snap).report(0)

    def test_no_events_rejected(self):
        snap = arrays_snapshot([1.0, 2.0], [0, 0], [0, 1], [0.5, -0.5])
        with pytest.raises(DataError, match="no events"):
            look_fit(fit(snap), 0)

    def test_identical_arms_zero_covariate_effect(self):
        time = [0.5, 1.0, 1.5, 2.0] * 2
        event = [1, 1, 0, 1] * 2
        arm = [0] * 4 + [1] * 4
        z = [0.2, -0.4, 1.0, 0.0] * 2
        snap = arrays_snapshot(time, event, arm, z)
        fitted = look_fit(fit(snap), 0)
        assert np.all(np.isfinite(fitted.beta))
        assert fitted.loglik >= naive_loglik(snap, [0.0]) - 1e-12

    def test_p_zero_pure_baselines(self):
        time = [0.5, 1.0, 1.5, 2.0]
        snap = arrays_snapshot(time, [1, 1, 1, 0], [0, 0, 1, 1], [[]] * 4)
        fits = fit(snap)
        assert fits.beta[0].size == 0 and fits.info[0].shape == (0, 0)
        base0 = baseline(snap, fits, 0, 0)
        assert height(base0, 0.5) == pytest.approx(0.5)
        assert height(base0, 1.0) == pytest.approx(0.5 + 1.0)
        assert height(baseline(snap, fits, 0, 1), 2.0) == pytest.approx(0.5)

    def test_covariate_shift_invariance(self):
        snap = toy_snapshot()
        fits = fit(snap)
        shift = 2.5
        shifted = with_covariates(snap, snap.z + shift)  # the fit itself, past the snapshot's standardization
        refits = fit(shifted)
        assert refits.beta[0, 0] == pytest.approx(fits.beta[0, 0], abs=1e-8)
        scale = math.exp(-refits.beta[0, 0] * shift)
        for arm in (0, 1):
            t = 1.4
            assert height(baseline(shifted, refits, 0, arm), t) == pytest.approx(
                height(baseline(snap, fits, 0, arm), t) * scale, rel=1e-8
            )

    def test_statsmodels_cross_check(self):
        sm = pytest.importorskip("statsmodels.api")
        scn = SimScenario(
            n_per_arm=120, shape_offset=-0.3, covariate_strength=math.log(1.5),
            covariates="bernoulli2",
        )
        snap = sim_snapshot(scn, seed=42, tau=scn.total_duration)
        fitted = look_fit(fit(snap), 0)
        look = enrolled(snap)
        model = sm.PHReg(look.time, look.z, status=look.event, strata=look.arm, ties="breslow")
        res = model.fit()
        np.testing.assert_allclose(fitted.beta, res.params, atol=1e-6)

    def test_full_step_accepted_near_optimum_of_large_trial(self):
        # 5 000 per arm at u=1.5: loglik is about -2e4, so near the optimum
        # the likelihood gain of a full Newton step is below one ulp. An
        # absolute acceptance slack rejected that step, halved it 26 times
        # and ran out of iterations with score max-norm 1.3e-8.
        rng = np.random.default_rng((91, 4, 5000))
        n = 10_000
        arm = np.repeat([0, 1], 5000)
        x1 = rng.standard_normal(n)
        x2 = (rng.random(n) < 0.3).astype(np.int64)
        x3 = (rng.random(n) < 0.5).astype(np.int64)
        lin = math.log(1.5) / math.sqrt(3.0) * (
            x1 + (x2 - 0.3) / math.sqrt(0.21) + (x3 - 0.5) / 0.5
        )
        rate = -math.log(0.4) * np.exp(lin)
        event_time = (-np.log1p(-rng.random(n)) / rate) ** (1.0 / 1.5)
        censor = rng.exponential(1.0 / -math.log(0.95), n)
        entry = rng.uniform(0.0, 2.0, n)
        cap = np.minimum(censor, 3.0 - entry)
        snap = snapshot_from_arrays(
            entry, np.minimum(event_time, cap), (event_time <= cap).astype(np.int64), arm,
            np.column_stack((x1, x2, x3)), u=1.5, tau=1.0,
        )
        fitted = look_fit(fit(snap), 0)
        assert fitted.iterations <= 8
        score, _, _ = score_and_info(snap, fitted.beta)
        assert float(np.max(np.abs(score))) < 1e-8

    def test_stratified_vs_pooled_population_identity(self):
        scn = SimScenario(
            n_per_arm=2500, shape_offset=0.0, log_rate_ratio=-0.4,
            covariate_strength=math.log(1.5), covariates="normal1", censoring=None,
        )
        snap = sim_snapshot(scn, seed=7)
        stratified = look_fit(fit(snap), 0)
        unstratified = look_fit(fit(SharedBaseline(snap)), 0)
        se = math.sqrt(np.linalg.inv(stratified.info)[0, 0])
        assert unstratified.beta[1] == pytest.approx(stratified.beta[0], abs=4 * se)
        assert unstratified.beta[0] == pytest.approx(-0.4, abs=0.1)


class TestBreslow:
    def test_no_events_zero_function(self):
        snap = arrays_snapshot([1.0, 2.0, 1.5], [0, 0, 1], [0, 0, 1], [0.1, 0.2, 0.3])
        base = breslow(snap, [0.0], arm=0)
        assert height(base, 5.0) == 0.0 and base.times.size == 0

    def test_beta_zero_is_nelson_aalen(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.0, 2.0, 2.5], [1, 1, 1, 0, 1], [0] * 5, [0.0] * 5,
        )
        base = breslow(snap, [0.0], arm=0)
        assert height(base, 0.49) == 0.0
        assert height(base, 0.5) == pytest.approx(1 / 5)
        assert height(base, 1.0) == pytest.approx(1 / 5 + 2 / 4)
        assert height(base, 2.5) == pytest.approx(1 / 5 + 2 / 4 + 1 / 1)

    def test_hand_computed_weighted_increments(self):
        snap = arrays_snapshot([0.5, 1.0, 1.5, 2.0], [1, 1, 0, 1], [0] * 4, [0.2, -0.4, 1.0, 0.0])
        z = snap.z[:, 0].tolist()  # the snapshot's standardized covariate
        beta = 0.5
        base = breslow(snap, [beta], arm=0)
        inc1 = 1.0 / sum(math.exp(beta * v) for v in z)
        inc2 = 1.0 / sum(math.exp(beta * v) for v in z[1:])
        inc3 = 1.0 / math.exp(beta * z[3])
        assert height(base, 0.5) == pytest.approx(inc1, rel=1e-12)
        assert height(base, 1.0) == pytest.approx(inc1 + inc2, rel=1e-12)
        assert height(base, 2.0) == pytest.approx(inc1 + inc2 + inc3, rel=1e-12)

    def test_monotone_and_zero_at_origin(self):
        snap = toy_snapshot()
        fits = fit(snap)
        for arm in (0, 1):
            base = baseline(snap, fits, 0, arm)
            assert height(base, 0.0) == 0.0
            ts = np.linspace(0.0, 2.0, 50)
            vals = height(base, ts)
            assert np.all(np.diff(vals) >= 0)

    def test_tied_events_share_denominator(self):
        snap = arrays_snapshot([1.0, 1.0, 2.0], [1, 1, 1], [0] * 3, [0.0] * 3)
        base = breslow(snap, [0.0], arm=0)
        assert height(base, 1.0) == pytest.approx(2 / 3)
        assert height(base, 2.0) == pytest.approx(2 / 3 + 1.0)


# Brute-force risk-set oracle: one time point, no sorting.


@dataclass(frozen=True)
class RiskSetSums:
    """Risk-set averages for one arm at a single time point.

    ``s0`` is the average of exp(beta'Z) over the arm's subjects still at
    risk, ``s1`` adds a factor Z, and ``s2`` a factor ZZ'. Averages are
    over the arm's full snapshot size, so they shrink as the risk set
    empties.
    """

    s0: float
    s1: np.ndarray
    s2: np.ndarray


def risk_set_sums(snap, beta, arm: int, t: float) -> RiskSetSums:
    """Risk-set averages s0, s1, s2 for one arm at time ``t``.

    Averages are taken over all the arm's snapshot subjects; with an
    empty risk set all three are zero.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    idx = snap.arm == arm
    times = snap.time[idx]
    z = snap.z[idx]
    n_arm = times.size
    if n_arm == 0:
        raise DataError(f"arm {arm} has no subjects in the snapshot")
    at_risk = times >= t
    w = np.exp(z[at_risk] @ beta) if beta.size else np.ones(int(at_risk.sum()))
    zr = z[at_risk]
    s0 = float(w.sum()) / n_arm
    s1 = (w[:, None] * zr).sum(axis=0) / n_arm
    s2 = (w[:, None, None] * zr[:, :, None] * zr[:, None, :]).sum(axis=0) / n_arm
    return RiskSetSums(s0=s0, s1=s1, s2=s2)


class TestRiskSetSums:
    def test_at_risk_averages(self):
        snap = arrays_snapshot([0.5, 1.0, 1.5, 2.0], [1, 1, 0, 1], [0] * 4, [0.2, -0.4, 1.0, 0.0])
        z = snap.z[:, 0].tolist()  # the snapshot's standardized covariate
        sums = risk_set_sums(enrolled(snap), [0.5], arm=0, t=1.2)
        at_risk = z[2:]
        w = [math.exp(0.5 * v) for v in at_risk]
        assert sums.s0 == pytest.approx(sum(w) / 4)
        assert sums.s1[0] == pytest.approx(sum(wi * zi for wi, zi in zip(w, at_risk)) / 4)
        assert sums.s2[0, 0] == pytest.approx(
            sum(wi * zi * zi for wi, zi in zip(w, at_risk)) / 4
        )

    def test_breslow_increments_match_oracle(self):
        snap = toy_snapshot()
        fits = fit(snap)
        fitted, look = look_fit(fits, 0), enrolled(snap)
        for arm in (0, 1):
            base = baseline(snap, fits, 0, arm)
            n_arm = int(np.sum(look.arm == arm))
            events = (look.arm == arm) & (look.event == 1)
            assert base.times.size > 0
            for t, inc in zip(base.times, base.increments):
                d = int(np.sum(events & (look.time == t)))
                s0 = risk_set_sums(look, fitted.beta, arm, t).s0
                assert inc == pytest.approx(d / (n_arm * s0), rel=1e-12)


# Per-arm reference: each arm sorted and summed on its own, the plain
# form of the fit's one pass over both arms.


def per_arm_reference(snap, beta):
    """Score, information, log likelihood and per-arm Breslow increments of an ``enrolled`` look, arm by arm.

    Each arm's subjects are sorted by follow-up; its risk-set sums are
    suffix sums of exp(beta'Z - shift) times 1, Z and ZZ' at the first
    subject followed at least as long as each distinct event time up to
    min(u, tau), with the shift the arm's largest linear predictor. A look
    whose subjects are all arm 0 has one baseline.
    """
    p = beta.size
    t_max = min(snap.u, snap.tau)
    score, info, loglik, increments = np.zeros(p), np.zeros((p, p)), 0.0, []
    for arm in (0, 1):
        idx = snap.arm == arm
        order = np.argsort(snap.time[idx], kind="stable")
        xs, zs = snap.time[idx][order], snap.z[idx][order]
        ds = snap.event[idx][order].astype(bool) & (xs <= t_max)
        times, counts = np.unique(xs[ds], return_counts=True)
        if times.size == 0:
            increments.append(np.empty(0))
            continue
        d = counts.astype(float)
        lp = zs @ beta
        shift = lp.max()
        w = np.exp(lp - shift)
        start = np.searchsorted(xs, times, side="left")
        r0 = np.cumsum(w[::-1])[::-1][start]
        r1 = np.cumsum((w[:, None] * zs)[::-1], axis=0)[::-1][start]
        r2 = np.cumsum((w[:, None, None] * zs[:, :, None] * zs[:, None, :])[::-1], axis=0)[::-1][start]
        e = r1 / r0[:, None]
        z_total = zs[ds].sum(axis=0)
        score += z_total - (d[:, None] * e).sum(axis=0)
        info += (d[:, None, None] * (r2 / r0[:, None, None] - e[:, :, None] * e[:, None, :])).sum(axis=0)
        loglik += float(z_total @ beta) - d.sum() * shift - float(d @ np.log(r0))
        increments.append(d / (r0 * np.exp(shift)))
    return score, info, loglik, increments


ROW = st.tuples(
    st.integers(0, 1),  # arm
    st.integers(1, 12).map(lambda k: k / 4),  # follow-up on a coarse grid, so times tie
    st.integers(0, 1),  # event
    st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
)


class TestOnePassMatchesPerArmReference:
    """Both arms in one pass agree with the arm-by-arm formulas at rel 1e-12.

    Score, information and log likelihood are sums whose terms can cancel,
    so each also gets an absolute allowance of 1e-12 times the size of
    its terms.
    """

    @given(
        p=st.integers(0, 3),
        rows=st.lists(ROW, min_size=1, max_size=40),
        tau=st.sampled_from([0.6, 1.5, 4.0]),
        pooled=st.booleans(),
        beta=st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
    )
    @example(p=2, rows=[(0, 0.5, 1, [0.1, 0.2, 0.0])] * 3
             + [(1, 2.0, 1, [1.0, -1.0, 0.0]), (1, 1.0, 0, [0.3, 0.4, 0.0])],
             tau=1.5, pooled=False, beta=[0.5, -0.5, 0.0, 0.0])  # arm 1's only event lies past tau
    @example(p=1, rows=[(a, 0.25 * (1 + k % 3), 1, [0.1 * k, 0.0, 0.0]) for k in range(9) for a in (0, 0, 1)],
             tau=4.0, pooled=True, beta=[0.3, -0.2, 0.0, 0.0])  # cox_hr_test's one-stratum snapshot
    @example(p=0, rows=[(0, 1.0, 1, [0.0] * 3), (0, 1.0, 1, [0.0] * 3), (1, 0.5, 1, [0.0] * 3)],
             tau=4.0, pooled=False, beta=[0.0] * 4)
    @example(p=3, rows=[(k % 2, 0.25 * (1 + k % 5), k % 3 != 0, [0.3 * k - 2.0, 1.0 - 0.1 * k, (-1) ** k])
                        for k in range(13)], tau=1.5, pooled=False, beta=[0.4, -0.3, 0.2, 0.0])
    @settings(max_examples=200)
    def test_score_info_loglik_and_breslow(self, p, rows, tau, pooled, beta):
        arm = np.array([r[0] for r in rows], dtype=np.int8)
        z = np.array([r[3][:p] for r in rows], dtype=float).reshape(len(rows), p)
        time = np.array([r[1] for r in rows])
        event = np.array([r[2] for r in rows], dtype=np.int8)
        snap = snapshot_from_arrays(np.zeros(len(rows)), time, event, arm, z, u=10.0, tau=tau)
        look = enrolled(snap)
        if pooled:  # as cox_hr_test fits it: both arms under one baseline, the arm the first covariate
            snap, z = SharedBaseline(snap), np.column_stack([arm.astype(float), z])
            look = SimpleNamespace(**{**vars(look), "arm": 0 * look.arm, "z": np.column_stack([look.arm, look.z])})
        beta = np.array(beta[:z.shape[1]])
        score, info, loglik = score_and_info(snap, beta)
        ref_score, ref_info, ref_loglik, ref_increments = per_arm_reference(look, beta)
        events = float(np.sum(event * (time <= tau)))
        zmax = float(np.abs(z).max()) if z.size else 0.0
        rel = 1e-12
        np.testing.assert_allclose(score, ref_score, rtol=rel, atol=rel * events * zmax)
        np.testing.assert_allclose(info, ref_info, rtol=rel, atol=rel * events * zmax**2)
        lp_max = float(np.abs(z @ beta).max()) if z.size else 0.0
        assert loglik == pytest.approx(ref_loglik, rel=rel, abs=rel * events * (lp_max + math.log(len(rows))))
        for a in (0, 1) if not pooled else ():
            np.testing.assert_allclose(breslow(snap, beta, a).increments, ref_increments[a], rtol=rel)
        if pooled:  # the shared baseline jumps at every event time, by its rows' counts over the pooled risk sum
            r0 = fits_at(snap, beta).risk_sums()[0]
            _, time_of_row = np.unique(snap.snap.event_times, return_inverse=True)  # one row per arm with events
            jumps = np.bincount(time_of_row, snap.event_counts / r0)
            np.testing.assert_allclose(jumps, ref_increments[0], rtol=rel)
            np.testing.assert_allclose(r0, (np.bincount(time_of_row, snap.event_counts) / jumps)[time_of_row],
                                       rtol=rel)  # the arms' rows of a tied time share the pooled risk set
            assert ref_increments[1].size == 0


def fit_outcome(snap, fits, k):
    """Look k's fit of ``snap`` as (beta, info, loglik, increments of arms 0 and 1, iterations, step halvings),
    or the class of the error it raises."""
    try:
        f = look_fit(fits, k)
    except RmstgstError as exc:
        return type(exc)
    return (f.beta, f.info, f.loglik, *(baseline(snap, fits, k, arm).increments for arm in (0, 1)), f.iterations,
            f.step_halvings)


def solo_outcome(trial, u):
    """The outcome of fitting a snapshot of the one look ``u`` on its own."""
    try:
        snap = snapshot(trial, u=u, tau=1.0)
    except RmstgstError as exc:
        return type(exc)
    return fit_outcome(snap, fit(snap), 0)


def assert_same_outcome(got, want, rel):
    """Both outcomes are the same error class, or their numbers agree to ``rel`` (0: bit for bit)."""
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
        return
    for x, y in zip(got, want, strict=True):
        if rel:
            np.testing.assert_allclose(x, y, rtol=rel, atol=0)
        else:
            np.testing.assert_array_equal(x, y)


class TestStackedLooks:
    """A snapshot of many looks fits each look as a snapshot of that look alone does."""

    def test_calendar_grid_matches_solo_fits(self):
        scn = SimScenario(n_per_arm=200, covariates="normal1", covariate_strength=math.log(1.5),
                          shape_offset=-0.3)
        trial = draw_trial(scn, _rng_for_replicate(20200920, 5))
        grid = np.round(np.arange(1, 31) * 0.1, 10)
        snap = snapshot(trial, u=grid, tau=1.0)
        fits = fit(snap)
        outcomes = [fit_outcome(snap, fits, k) for k in range(grid.size)]
        assert sum(not isinstance(o, type) for o in outcomes) >= 25
        for u, got in zip(grid, outcomes):
            assert_same_outcome(got, solo_outcome(trial, u), rel=1e-12)

    @pytest.mark.parametrize("budget", [20, 21])
    def test_odd_looks_get_their_solo_outcome_and_leave_the_others_alone(self, monkeypatch, budget):
        # the monotone likelihood's looks at 0.2 and 0.26 converge on their 21st iteration: at a budget of 21
        # they fit (the score test comes before the budget's refusal), at 20 they are one over it
        monkeypatch.setattr(stratified_cox, "_MAX_ITER", budget)
        trial = monotone_trial()
        run_off = None if budget == 21 else ConvergenceError
        odd = {
            0.001: DataError,  # nobody enrolled yet
            0.1: DataError,  # no event yet
            0.12: None,  # arm 1 has no event; the fit runs off to beta ~ 15 in 18 iterations
            0.2: run_off,  # beta ~ 301 after 21 iterations
            0.26: run_off,  # beta ~ 289 after 21 iterations
        }
        looks = sorted([*odd, *np.round(np.arange(3, 31) * 0.1, 10)])
        snap = snapshot(trial, u=looks, tau=1.0)
        fits = fit(snap)
        outcomes = {u: fit_outcome(snap, fits, k) for k, u in enumerate(looks)}
        for u in looks:
            assert_same_outcome(outcomes[u], solo_outcome(trial, u), rel=1e-12)
            if odd.get(u) is not None:
                assert outcomes[u] is odd[u]
        assert outcomes[0.12][0][0] > 10 and outcomes[0.12][-2] == 18
        if budget == 21:
            for u in (0.2, 0.26):
                assert outcomes[u][0][0] > 100 and outcomes[u][-2] == 21
        for left_out in odd:
            others = [u for u in looks if u != left_out]
            others_snap = snapshot(trial, u=others, tau=1.0)
            without = fit(others_snap)
            for k, u in enumerate(others):
                assert_same_outcome(fit_outcome(others_snap, without, k), outcomes[u], rel=0)

    def test_looks_left_out_by_the_mask(self):
        snap = snapshot(monotone_trial(), u=[0.1, 0.12, 0.2, 0.5, 3.0], tau=1.0)
        both = snap.events_in_every_stratum()
        assert both.tolist() == [False, False, True, True, True]  # no event yet; arm 1 has none
        every, masked = fit(snap), fit(snap, looks=both)
        assert masked.iterations == every.iterations - every.diagnostics["iterations"][1]
        for k in range(5):
            want = fit_outcome(snap, every, k) if both[k] else InsufficientEventsError
            assert_same_outcome(fit_outcome(snap, masked, k), want, rel=0)
        assert str(masked.errors[0]) == "the look at u=0.1 was left out of the fit"


class TestNoNewWarnings:
    def test_diverged_look_fits_without_runtime_warning(self):
        # calibrate's delayed-effect scenario; at u = 0.2 one arm has no
        # event and the likelihood is monotone, so beta runs off to ~270
        scn = SimScenario(n_per_arm=200, covariates="normal1", covariate_strength=math.log(1.5),
                          shape_offset=-0.3)
        snap = snapshot(draw_trial(scn, _rng_for_replicate(3, 75)), u=0.2, tau=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = look_fit(fit(snap), 0)
        assert fitted.beta[0] > 100
