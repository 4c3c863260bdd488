"""Kaplan-Meier restricted mean comparison tests."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import arm_rows, monotone_trial, sim_snapshot
from hypothesis import given, settings
from hypothesis import strategies as st

from rmstgst.adjusted_rmst import Analyses, analyze
from rmstgst.errors import DataError, InsufficientEventsError, RmstgstError
from rmstgst.km_rmst import km_rmst_test
from rmstgst.sim_engine import SimScenario, _rng_for_replicate, draw_trial
from rmstgst.trial_data import snapshot, snapshot_from_arrays


def two_arm_snapshot(time0, event0, time1, event1, u=10.0, tau=6.0):
    time = np.concatenate([time0, time1]).astype(float)
    event = np.concatenate([event0, event1])
    arm = np.concatenate([np.zeros(len(time0), int), np.ones(len(time1), int)])
    z = np.empty((time.size, 0))
    return snapshot_from_arrays(np.zeros(time.size), time, event, arm, z, u=u, tau=tau)


def event_rows(snap, arm):
    """The one look's event rows of one arm, what Kaplan-Meier reads: (times, at risk, events)."""
    rows = arm_rows(snap, 0, arm)
    return snap.event_times[rows], snap.at_risk[rows], snap.event_counts[rows]


class TestProductLimit:
    def test_hand_product_limit_with_censoring(self):
        snap = two_arm_snapshot(
            [1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1, 0], [1.0, 2.0], [1, 0],
        )
        times, at_risk, events = event_rows(snap, 0)
        np.testing.assert_array_equal(times, [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(at_risk, [5, 4, 2])
        np.testing.assert_array_equal(events, [1, 1, 1])
        # survival 0.8, 0.6, 0.3 after the three drops, to tau = 6
        assert km_rmst_test(snap).report(0)["mu0"] == pytest.approx(1.0 + 0.8 * 1.0 + 0.6 * 2.0 + 0.3 * 2.0, rel=1e-12)

    def test_ties_share_risk_set(self):
        snap = two_arm_snapshot([1.0, 1.0, 1.0, 2.0], [1, 1, 0, 1], [1.0], [1])
        times, at_risk, events = event_rows(snap, 0)
        np.testing.assert_array_equal(times, [1.0, 2.0])
        np.testing.assert_array_equal(at_risk, [4, 1])
        np.testing.assert_array_equal(events, [2, 1])
        result = km_rmst_test(snap).report(0)
        # survival 0.5 then 0; only the tied time has a risk set left over, 2 / (4 * 2)
        assert result["mu0"] == pytest.approx(1.0 + 0.5 * 1.0, rel=1e-12)
        assert result["mu1"] == 1.0
        assert result["info"] == pytest.approx(1.0 / (0.5**2 * 0.25), rel=1e-12)

    def test_no_censoring_matches_empirical_mean(self):
        rng = np.random.default_rng(42)
        times = rng.exponential(1.0, size=60)
        snap = two_arm_snapshot(times, np.ones(60, int), [1.0], [1], u=100.0, tau=100.0)
        assert km_rmst_test(snap).report(0)["mu0"] == pytest.approx(np.mean(times), rel=1e-12)
        tau_small = 1.5
        snap2 = two_arm_snapshot(times, np.ones(60, int), [1.0], [1], u=100.0, tau=tau_small)
        assert km_rmst_test(snap2).report(0)["mu0"] == pytest.approx(np.mean(np.minimum(times, tau_small)), rel=1e-12)

    def test_events_beyond_horizon_ignored(self):
        snap = two_arm_snapshot([0.5, 1.5, 7.0], [1, 1, 1], [1.0], [1], u=10.0, tau=6.0)
        np.testing.assert_array_equal(event_rows(snap, 0)[0], [0.5, 1.5])
        result = km_rmst_test(snap).report(0)
        # survival 2/3 then 1/3 to tau = 6; the event at 7 neither drops the curve nor adds noise
        assert result["mu0"] == pytest.approx(0.5 + 2 / 3 * 1.0 + 1 / 3 * 4.5, rel=1e-12)
        assert result["info"] == pytest.approx(1.0 / ((2 / 3 + 1.5) ** 2 / 6 + 1.5**2 / 2), rel=1e-12)


class TestMeanAndVariance:
    def test_hand_mean_and_variance(self):
        snap = two_arm_snapshot(
            [1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1, 0], [1.0, 2.0], [1, 0],
        )
        result = km_rmst_test(snap).report(0)
        assert result["mu0"] == pytest.approx(1.0 + 0.8 * 1.0 + 0.6 * 2.0 + 0.3 * 2.0, rel=1e-12)
        assert result["mu1"] == pytest.approx(1.0 + 0.5 * 5.0, rel=1e-12)
        var0 = 2.6**2 * (1 / 20) + 1.8**2 * (1 / 12) + 0.6**2 * 0.5
        var1 = 2.5**2 * 0.5
        assert result["info"] == pytest.approx(1.0 / (var0 + var1), rel=1e-12)

    def test_exhausted_risk_set_contributes_nothing(self):
        snap = two_arm_snapshot([0.5, 1.0], [1, 1], [1.0], [1], tau=4.0)
        result = km_rmst_test(snap).report(0)
        assert result["mu0"] == pytest.approx(0.5 + 0.5 * 0.5, rel=1e-12)
        assert result["mu1"] == 1.0  # one subject, one event: exhausted at once, no variance
        assert math.isfinite(result["info"])
        assert result["info"] == pytest.approx(1.0 / ((0.5 * 0.5) ** 2 * (1 / 2)), rel=1e-12)

    def test_both_risk_sets_exhausted_is_degenerate(self):
        snap = two_arm_snapshot([1.0], [1], [2.0], [1])
        with pytest.raises(InsufficientEventsError, match="degenerate variance"):
            km_rmst_test(snap).report(0)


class TestKmRmstTest:
    def test_identical_arms_zero_statistic(self):
        time = [0.5, 1.0, 1.5, 2.5, 3.0]
        event = [1, 1, 0, 1, 0]
        snap = two_arm_snapshot(time, event, time, event)
        result = km_rmst_test(snap).report(0)
        assert result["delta"] == 0.0
        assert result["z"] == 0.0
        assert result["se"] > 0.0
        assert result["info"] == pytest.approx(1.0 / result["se"]**2, rel=1e-12)

    def test_variance_adds_across_arms(self):
        snap = two_arm_snapshot(
            [1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1, 0],
            [0.5, 1.5, 2.5], [1, 1, 1],
        )
        var0 = 2.6**2 * (1 / 20) + 1.8**2 * (1 / 12) + 0.6**2 * 0.5
        var1 = 1.0**2 / 6 + (1 / 3) ** 2 / 2  # the last event exhausts arm 1's risk set
        result = km_rmst_test(snap).report(0)
        assert result["se"] == pytest.approx(math.sqrt(var0 + var1), rel=1e-12)

    def test_requires_events_in_both_arms(self):
        snap = two_arm_snapshot([1.0, 2.0], [1, 0], [1.5, 2.5], [0, 0])
        with pytest.raises(InsufficientEventsError, match="arm 1"):
            km_rmst_test(snap).report(0)

    def test_serialization_shape_matches_adjusted_minus_components(self):
        scn = SimScenario(n_per_arm=60, covariate_strength=math.log(1.5))
        snap = sim_snapshot(scn, seed=11)
        km_payload = km_rmst_test(snap).report(0)
        adj_payload = analyze(snap).report(0)
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
                km = km_rmst_test(snap).report(0)
                gaps.append(abs(km["delta"] - analyze(snap).report(0)["delta"]))
            diffs[n] = float(np.mean(gaps))
        assert diffs[2500] < diffs[250]
        assert diffs[2500] < 0.01


def km_outcome(snap, k):
    """Look k's Kaplan-Meier result as (delta, info, mu0, mu1), or its error class."""
    try:
        r = km_rmst_test(snap).report(k)
    except RmstgstError as exc:
        return type(exc)
    return r["delta"], r["info"], r["mu0"], r["mu1"]


class TestStackedLooks:
    def test_each_look_reads_only_its_own_rows(self):
        trial = monotone_trial()
        looks = [0.001, 0.12, 0.2, 0.58, *np.round(np.arange(6, 31) * 0.1, 10)]
        snap = snapshot(trial, u=looks, tau=1.0)
        exhausted = snap.event_stratum[snap.at_risk == snap.event_counts] // 2
        assert looks.index(0.58) in exhausted  # a risk set runs out at one of its event times
        outcomes = [km_outcome(snap, k) for k in range(len(looks))]
        assert outcomes[0] is InsufficientEventsError  # nobody enrolled yet
        assert outcomes[1] is InsufficientEventsError  # arm 1 has no event
        assert sum(not isinstance(o, type) for o in outcomes) == len(looks) - 2
        for u, got in zip(looks, outcomes):
            try:
                alone = snapshot(trial, u=u, tau=1.0)
            except DataError:
                assert u == 0.001
                continue
            assert got == km_outcome(alone, 0)  # bit for bit, or the same error class


def km_reference(snap):
    """Kaplan-Meier at every look by a loop over the looks and arms, each arm's curve from its own rows: a
    product-limit ``cumprod``, the mean a dot product, the remaining area a reversed ``cumsum``."""
    mu, info = np.full((snap.u.size, 2), np.nan), np.full(snap.u.size, np.nan)
    errors = snap.look_errors()
    for k in [k for k, error in enumerate(errors) if error is None]:
        var = 0.0
        for arm in (0, 1):
            rows = arm_rows(snap, k, arm)
            times, d, y = snap.event_times[rows], snap.event_counts[rows], snap.at_risk[rows]
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


class TestOnePassMatchesLookLoop:
    """One pass over the stacked event rows gives every look the errors, NaN, means and information of a loop
    over the looks and arms, ``mu`` and ``info`` within RTOL relative (the worst seen is 5e-16) and ``delta``
    within RTOL tau."""

    RTOL = 1e-14
    DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"

    def check(self, snap):
        got, want = km_rmst_test(snap), km_reference(snap)
        assert [type(e) for e in got.errors] == [type(e) for e in want.errors]
        for name in ("mu", "info"):  # NaN at the same looks
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=self.RTOL, atol=0)
        np.testing.assert_allclose(got.delta, want.delta, rtol=0, atol=self.RTOL * snap.tau)
        return got

    def test_stacked_simulation_group(self):
        scn = SimScenario.read(self.DATA / "sim_scenario.json")
        calib = json.loads((self.DATA / "sim_calibration.json").read_text())
        scn = replace(scn, log_rate_ratio=calib["power"]["log_rate_ratio"])
        for group in range(2):
            trials = [draw_trial(scn, _rng_for_replicate(5, rep)) for rep in range(8 * group, 8 * group + 8)]
            got = self.check(snapshot(trials, u=calib["analysis_times"], tau=scn.tau))
            assert all(error is None for error in got.errors)

    def test_calibration_grid(self):
        scn = SimScenario.read(self.DATA / "cal_scenario.json")
        grid = np.append(np.arange(0.1, scn.total_duration - 1e-9, 0.1), scn.total_duration)
        for rep in range(3):
            got = self.check(snapshot(draw_trial(scn, _rng_for_replicate(4, rep)), u=grid, tau=scn.tau))
            assert got.errors.count(None) >= 25

    def test_odd_looks(self):
        looks = [0.001, 0.12, 0.2, 0.58, *np.round(np.arange(6, 31) * 0.1, 10)]
        snap = snapshot(monotone_trial(), u=looks, tau=1.0)
        assert snap.event_stratum[snap.at_risk == snap.event_counts].size  # exhausted risk sets
        assert (np.diff(snap.stratum_rows) == 1).any()  # a stratum of one event row
        assert [error is None for error in snap.look_errors()[:3]] == [False, False, True]  # nobody, then arm 1 none
        got = self.check(snap)
        assert np.isnan(got.mu[:2]).all() and np.isfinite(got.mu[2:]).all()

    def test_both_risk_sets_exhausted(self):
        got = self.check(two_arm_snapshot([1.0, 0.5], [1, 0], [2.0], [1]))
        assert type(got.errors[0]) is InsufficientEventsError and np.isfinite(got.mu).all()


class TestProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 80))
    @settings(max_examples=200)
    def test_mean_and_information_ranges(self, seed, n):
        scn = SimScenario(n_per_arm=n, shape_offset=-0.3)
        snap = sim_snapshot(scn, seed=seed)
        try:
            result = km_rmst_test(snap).report(0)
        except InsufficientEventsError:
            return
        for mu in (result["mu0"], result["mu1"]):
            assert 0.0 <= mu <= snap.tau + 1e-12
        assert result["info"] > 0.0
