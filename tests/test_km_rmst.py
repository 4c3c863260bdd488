"""Kaplan-Meier restricted mean comparison tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import sim_snapshot
from hypothesis import given, settings
from hypothesis import strategies as st

from rmstgst.adjusted_rmst import analyze
from rmstgst.errors import InsufficientEventsError
from rmstgst.km_rmst import km_fit, km_rmst, km_rmst_test
from rmstgst.sim_engine import SimScenario
from rmstgst.trial_data import snapshot_from_arrays


def two_arm_snapshot(time0, event0, time1, event1, u=10.0, tau=6.0):
    time = np.concatenate([time0, time1]).astype(float)
    event = np.concatenate([event0, event1])
    arm = np.concatenate([np.zeros(len(time0), int), np.ones(len(time1), int)])
    z = np.empty((time.size, 0))
    return snapshot_from_arrays(np.zeros(time.size), time, event, arm, z, u=u, tau=tau)


class TestKmFit:
    def test_hand_product_limit_with_censoring(self):
        snap = two_arm_snapshot(
            [1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1, 0], [1.0, 2.0], [1, 0],
        )
        curve = km_fit(snap[0], 0)
        np.testing.assert_array_equal(curve.times, [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(curve.at_risk, [5, 4, 2])
        np.testing.assert_array_equal(curve.events, [1, 1, 1])
        np.testing.assert_allclose(curve.survival, [0.8, 0.6, 0.3], rtol=1e-12)

    def test_ties_share_risk_set(self):
        snap = two_arm_snapshot([1.0, 1.0, 1.0, 2.0], [1, 1, 0, 1], [1.0], [1])
        curve = km_fit(snap[0], 0)
        np.testing.assert_array_equal(curve.times, [1.0, 2.0])
        np.testing.assert_array_equal(curve.at_risk, [4, 1])
        np.testing.assert_array_equal(curve.events, [2, 1])
        np.testing.assert_allclose(curve.survival, [0.5, 0.0])

    def test_no_censoring_matches_empirical_survival(self):
        rng = np.random.default_rng(42)
        times = rng.exponential(1.0, size=60)
        snap = two_arm_snapshot(times, np.ones(60, int), [1.0], [1], u=100.0, tau=100.0)
        curve = km_fit(snap[0], 0)
        for t, s in zip(curve.times, curve.survival):
            assert s == pytest.approx(np.mean(times > t), abs=1e-12)
        mu, _ = km_rmst(km_fit(snap[0], 0))
        tau_small = 1.5
        snap2 = two_arm_snapshot(times, np.ones(60, int), [1.0], [1], u=100.0, tau=tau_small)
        mu2, _ = km_rmst(km_fit(snap2[0], 0))
        assert mu2 == pytest.approx(np.mean(np.minimum(times, tau_small)), rel=1e-12)

    def test_events_beyond_horizon_ignored(self):
        snap = two_arm_snapshot([0.5, 1.5, 7.0], [1, 1, 1], [1.0], [1], u=10.0, tau=6.0)
        curve = km_fit(snap[0], 0)
        np.testing.assert_array_equal(curve.times, [0.5, 1.5])


class TestKmRmst:
    def test_hand_mean_and_variance(self):
        snap = two_arm_snapshot(
            [1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1, 0], [1.0, 2.0], [1, 0],
        )
        mu, var = km_rmst(km_fit(snap[0], 0))
        assert mu == pytest.approx(1.0 + 0.8 * 1.0 + 0.6 * 2.0 + 0.3 * 2.0, rel=1e-12)
        expected_var = 2.6**2 * (1 / 20) + 1.8**2 * (1 / 12) + 0.6**2 * 0.5
        assert var == pytest.approx(expected_var, rel=1e-12)

    def test_no_events_gives_tau_and_zero_variance(self):
        snap = two_arm_snapshot([2.0, 3.0], [0, 0], [1.0], [1])
        mu, var = km_rmst(km_fit(snap[0], 0))
        assert mu == snap.tau
        assert var == 0.0

    def test_exhausted_risk_set_contributes_nothing(self):
        snap = two_arm_snapshot([0.5, 1.0], [1, 1], [1.0], [1], tau=4.0)
        mu, var = km_rmst(km_fit(snap[0], 0))
        assert mu == pytest.approx(0.5 + 0.5 * 0.5, rel=1e-12)
        assert math.isfinite(var)
        assert var == pytest.approx((0.5 * 0.5) ** 2 * (1 / 2), rel=1e-12)


class TestKmRmstTest:
    def test_identical_arms_zero_statistic(self):
        time = [0.5, 1.0, 1.5, 2.5, 3.0]
        event = [1, 1, 0, 1, 0]
        snap = two_arm_snapshot(time, event, time, event)
        result = km_rmst_test(snap)
        assert result.delta == 0.0
        assert result.z == 0.0
        assert result.se > 0.0
        assert result.info_level == pytest.approx(1.0 / result.se**2, rel=1e-12)

    def test_variance_adds_across_arms(self):
        snap = two_arm_snapshot(
            [1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1, 0],
            [0.5, 1.5, 2.5], [1, 1, 1],
        )
        _, var0 = km_rmst(km_fit(snap[0], 0))
        _, var1 = km_rmst(km_fit(snap[0], 1))
        result = km_rmst_test(snap)
        assert result.se == pytest.approx(math.sqrt(var0 + var1), rel=1e-12)

    def test_requires_events_in_both_arms(self):
        snap = two_arm_snapshot([1.0, 2.0], [1, 0], [1.5, 2.5], [0, 0])
        with pytest.raises(InsufficientEventsError, match="arm 1"):
            km_rmst_test(snap)

    def test_serialization_shape_matches_adjusted_minus_components(self):
        scn = SimScenario(n_per_arm=60, covariate_strength=math.log(1.5))
        snap = sim_snapshot(scn, seed=11)
        km_payload = km_rmst_test(snap).to_dict()
        adj_payload = analyze(snap)[0].to_dict()
        assert set(km_payload) == set(adj_payload) - {"components", "diagnostics"}

    def test_agrees_with_adjusted_when_no_covariates_large_n(self):
        rng = np.random.default_rng(7)
        diffs = {}
        for n in (250, 2500):
            gaps = []
            for _ in range(8):
                t0 = rng.weibull(1.5, n)
                t1 = rng.weibull(1.5, n) * 1.2
                snap = two_arm_snapshot(
                    t0, np.ones(n, int), t1, np.ones(n, int), u=50.0, tau=1.0,
                )
                km = km_rmst_test(snap)
                gaps.append(abs(km.delta - analyze(snap)[0].delta))
            diffs[n] = float(np.mean(gaps))
        assert diffs[2500] < diffs[250]
        assert diffs[2500] < 0.01


class TestProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 80))
    @settings(max_examples=200)
    def test_curve_and_mean_ranges(self, seed, n):
        scn = SimScenario(n_per_arm=n, shape_offset=-0.3)
        snap = sim_snapshot(scn, seed=seed)
        for arm in (0, 1):
            curve = km_fit(snap[0], arm)
            surv = np.asarray(curve.survival)
            assert np.all((surv >= -1e-15) & (surv <= 1.0))
            assert np.all(np.diff(surv) <= 1e-15)
            mu, var = km_rmst(curve)
            assert 0.0 <= mu <= snap.tau + 1e-12
            assert var >= 0.0
