"""Partial-likelihood fit, score, information, and baseline estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import make_record, sim_snapshot, toy_snapshot
from hypothesis import given, settings
from hypothesis import strategies as st

from rmstgst.errors import DataError, SingularInformationError
from rmstgst.sim_engine import SimScenario
from rmstgst.stratified_cox import (
    StepFunction,
    breslow,
    fit,
    score_and_info,
)
from rmstgst.trial_data import Snapshot, snapshot, snapshot_from_arrays


def arrays_snapshot(time, event, arm, z, u=10.0, tau=10.0):
    time = np.asarray(time, dtype=float)
    n = time.size
    z = np.asarray(z, dtype=float).reshape(n, -1)
    return snapshot_from_arrays(
        np.zeros(n), time, np.asarray(event), np.asarray(arm), z, u=u, tau=tau,
    )


def naive_loglik(snap, beta, t_max=None):
    """Literal stratified Breslow log partial likelihood, one event at a time."""
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
        z = [0.3, -0.2, 0.8, 0.1]
        snap = arrays_snapshot([1.0, 2.0, 3.0, 4.0], [1, 0, 0, 0], [0, 0, 0, 0], z)
        score, info, _ = score_and_info(snap, [0.0])
        assert score[0] == pytest.approx(0.3 - np.mean(z))
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
        snap = arrays_snapshot(
            [0.5, 1.0, 3.0, 4.0], [1, 1, 1, 1], [0, 0, 1, 1],
            [0.2, -0.1, 0.4, 0.3], u=10.0, tau=2.0,
        )
        score_full, _, _ = score_and_info(snap, [0.0])
        score_window, _, _ = score_and_info(snap, [0.0], t_max=2.0)
        assert score_window == pytest.approx(score_full)
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
        fitted = fit(snap)
        assert fitted.converged
        assert fitted.beta[0] == pytest.approx(oracle, abs=1e-3)
        assert fitted.loglik >= naive_loglik(snap, [0.0]) - 1e-12

    def test_constant_covariate_singular(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.5, 2.0], [1, 1, 1, 1], [0, 0, 1, 1],
            [[1.0, 0.3], [1.0, -0.2], [1.0, 0.8], [1.0, 0.4]],
        )
        with pytest.raises(SingularInformationError) as err:
            fit(snap)
        direction = np.abs(err.value.direction)
        assert direction[0] > 0.99

    def test_no_events_rejected(self):
        snap = arrays_snapshot([1.0, 2.0], [0, 0], [0, 1], [0.5, -0.5])
        with pytest.raises(DataError, match="no events"):
            fit(snap)

    def test_identical_arms_zero_covariate_effect(self):
        time = [0.5, 1.0, 1.5, 2.0] * 2
        event = [1, 1, 0, 1] * 2
        arm = [0] * 4 + [1] * 4
        z = [0.2, -0.4, 1.0, 0.0] * 2
        snap = arrays_snapshot(time, event, arm, z)
        fitted = fit(snap)
        assert np.all(np.isfinite(fitted.beta))
        assert fitted.loglik >= naive_loglik(snap, [0.0]) - 1e-12

    def test_p_zero_pure_baselines(self):
        time = [0.5, 1.0, 1.5, 2.0]
        snap = arrays_snapshot(time, [1, 1, 1, 0], [0, 0, 1, 1], [[]] * 4)
        fitted = fit(snap)
        assert fitted.beta.size == 0 and fitted.info.shape == (0, 0)
        base0 = fitted.baseline(0)
        assert base0(0.5) == pytest.approx(0.5)
        assert base0(1.0) == pytest.approx(0.5 + 1.0)
        assert fitted.baseline(1)(2.0) == pytest.approx(0.5)

    def test_covariate_shift_invariance(self):
        snap = toy_snapshot()
        fitted = fit(snap)
        shift = 2.5
        shifted = snapshot_from_arrays(
            np.zeros(snap.n), np.asarray(snap.time), np.asarray(snap.event),
            np.asarray(snap.arm), np.asarray(snap.z) + shift, u=snap.u, tau=snap.tau,
        )
        refitted = fit(shifted)
        assert refitted.beta[0] == pytest.approx(fitted.beta[0], abs=1e-8)
        scale = math.exp(-refitted.beta[0] * shift)
        for arm in (0, 1):
            t = 1.4
            assert refitted.baseline(arm)(t) == pytest.approx(
                fitted.baseline(arm)(t) * scale, rel=1e-8
            )

    def test_statsmodels_cross_check(self):
        sm = pytest.importorskip("statsmodels.api")
        scn = SimScenario(
            n_per_arm=120, shape_offset=-0.3, covariate_strength=math.log(1.5),
            covariates="bernoulli2",
        )
        snap = sim_snapshot(scn, seed=42, tau=scn.total_duration)
        fitted = fit(snap)
        model = sm.PHReg(
            np.asarray(snap.time), np.asarray(snap.z), status=np.asarray(snap.event),
            strata=np.asarray(snap.arm), ties="breslow",
        )
        res = model.fit()
        np.testing.assert_allclose(fitted.beta, res.params, atol=1e-6)

    def test_stratified_vs_pooled_population_identity(self):
        scn = SimScenario(
            n_per_arm=2500, shape_offset=0.0, log_rate_ratio=-0.4,
            covariate_strength=math.log(1.5), covariates="normal1", censoring=None,
        )
        snap = sim_snapshot(scn, seed=7)
        stratified = fit(snap)
        pooled = snapshot_from_arrays(
            np.zeros(snap.n), np.asarray(snap.time), np.asarray(snap.event),
            np.zeros(snap.n, dtype=np.int8),
            np.column_stack([np.asarray(snap.arm, dtype=float), np.asarray(snap.z)]),
            u=snap.u, tau=snap.tau,
        )
        unstratified = fit(pooled)
        se = math.sqrt(np.linalg.inv(stratified.info)[0, 0])
        assert unstratified.beta[1] == pytest.approx(stratified.beta[0], abs=4 * se)
        assert unstratified.beta[0] == pytest.approx(-0.4, abs=0.1)


class TestBreslow:
    def test_no_events_zero_function(self):
        snap = arrays_snapshot([1.0, 2.0, 1.5], [0, 0, 1], [0, 0, 1], [0.1, 0.2, 0.3])
        base = breslow(snap, [0.0], arm=0)
        assert base(5.0) == 0.0 and len(base) == 0

    def test_beta_zero_is_nelson_aalen(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.0, 2.0, 2.5], [1, 1, 1, 0, 1], [0] * 5, [0.0] * 5,
        )
        base = breslow(snap, [0.0], arm=0)
        assert base(0.49) == 0.0
        assert base(0.5) == pytest.approx(1 / 5)
        assert base(1.0) == pytest.approx(1 / 5 + 2 / 4)
        assert base(2.5) == pytest.approx(1 / 5 + 2 / 4 + 1 / 1)

    def test_hand_computed_weighted_increments(self):
        z = [0.2, -0.4, 1.0, 0.0]
        snap = arrays_snapshot([0.5, 1.0, 1.5, 2.0], [1, 1, 0, 1], [0] * 4, z)
        beta = 0.5
        base = breslow(snap, [beta], arm=0)
        inc1 = 1.0 / sum(math.exp(beta * v) for v in z)
        inc2 = 1.0 / sum(math.exp(beta * v) for v in z[1:])
        inc3 = 1.0 / math.exp(beta * z[3])
        assert base(0.5) == pytest.approx(inc1, rel=1e-12)
        assert base(1.0) == pytest.approx(inc1 + inc2, rel=1e-12)
        assert base(2.0) == pytest.approx(inc1 + inc2 + inc3, rel=1e-12)

    def test_monotone_and_zero_at_origin(self):
        snap = toy_snapshot()
        fitted = fit(snap)
        for arm in (0, 1):
            base = fitted.baseline(arm)
            assert base(0.0) == 0.0
            ts = np.linspace(0.0, 2.0, 50)
            vals = base(ts)
            assert np.all(np.diff(vals) >= 0)

    def test_tied_events_share_denominator(self):
        snap = arrays_snapshot([1.0, 1.0, 2.0], [1, 1, 1], [0] * 3, [0.0] * 3)
        base = breslow(snap, [0.0], arm=0)
        assert base(1.0) == pytest.approx(2 / 3)
        assert base(2.0) == pytest.approx(2 / 3 + 1.0)


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


def risk_set_sums(snap: Snapshot, beta, arm: int, t: float) -> RiskSetSums:
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
        z = [0.2, -0.4, 1.0, 0.0]
        snap = arrays_snapshot([0.5, 1.0, 1.5, 2.0], [1, 1, 0, 1], [0] * 4, z)
        sums = risk_set_sums(snap, [0.5], arm=0, t=1.2)
        at_risk = z[2:]
        w = [math.exp(0.5 * v) for v in at_risk]
        assert sums.s0 == pytest.approx(sum(w) / 4)
        assert sums.s1[0] == pytest.approx(sum(wi * zi for wi, zi in zip(w, at_risk)) / 4)
        assert sums.s2[0, 0] == pytest.approx(
            sum(wi * zi * zi for wi, zi in zip(w, at_risk)) / 4
        )

    def test_breslow_increments_match_oracle(self):
        snap = toy_snapshot()
        fitted = fit(snap)
        for arm in (0, 1):
            base = fitted.baseline(arm)
            n_arm = int(np.sum(snap.arm == arm))
            events = (snap.arm == arm) & (snap.event == 1)
            assert base.times.size > 0
            for t, inc in zip(base.times, base.increments):
                d = int(np.sum(events & (snap.time == t)))
                s0 = risk_set_sums(snap, fitted.beta, arm, t).s0
                assert inc == pytest.approx(d / (n_arm * s0), rel=1e-12)


class TestStepFunction:
    def test_right_continuity_and_bounds(self):
        fn = StepFunction(np.array([1.0, 2.0]), np.array([0.3, 0.8]))
        assert fn(0.999999) == 0.0
        assert fn(1.0) == pytest.approx(0.3)
        assert fn(1.5) == pytest.approx(0.3)
        assert fn(2.0) == pytest.approx(1.1)
        assert fn(99.0) == pytest.approx(1.1)
