"""Scenario generator, truth functionals, calibration, and study loop tests."""

from __future__ import annotations

import concurrent.futures
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import arm_rows, monotone_trial, sim_snapshot
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm

from rmstgst import sim_engine
from rmstgst.adjusted_rmst import Analyses, analyze
from rmstgst.errors import ConfigError, DataError, EstimationError, InsufficientEventsError, RmstgstError
from rmstgst.gs_design import DesignConfig, MonitoringState, SpendingFunction, boundaries, update_monitoring
from rmstgst.km_rmst import km_rmst_test
from rmstgst.sim_engine import (
    COVARIATE_KINDS,
    METHODS,
    Calibration,
    InformationCalibration,
    SimScenario,
    calibrate_information,
    calibrate_null,
    calibrate_power,
    cox_hr_test,
    curve_table,
    draw_trial,
    hazard_ratio,
    run_study,
    true_rmst,
    true_survival,
    _fixed_test_power,
    _rng_for_replicate,
)
from rmstgst.stratified_cox import SharedBaseline, fit
from rmstgst.trial_data import Snapshot, Trial, snapshot, snapshot_from_arrays

PERFBENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
LOG15 = math.log(1.5)
# The truth-relevant settings of every scenario the tests and perfbench/data evaluate.
TRUTH_SCENARIOS = [
    SimScenario(),
    SimScenario(covariate_strength=LOG15),
    SimScenario(shape_offset=-0.3, covariate_strength=LOG15),
    SimScenario(shape_offset=-0.3, covariate_strength=LOG15, log_rate_ratio=-0.16),
    SimScenario(shape_offset=-0.3, covariate_strength=LOG15, covariates="bernoulli2"),
    SimScenario(shape_offset=-0.3, covariate_strength=LOG15, censoring=None),
    SimScenario(shape_offset=-0.3, covariate_strength=LOG15, log_rate_ratio=-0.2, censoring=None),
    SimScenario(shape_offset=-0.3, covariate_strength=0.5),
    SimScenario(shape_offset=-0.3, covariate_strength=0.5, covariates="bernoulli2"),
    SimScenario(shape_offset=-0.3, log_rate_ratio=-0.16),
    SimScenario(covariates="bernoulli2", covariate_strength=0.7, log_rate_ratio=-0.3, censoring=None),
    SimScenario(log_rate_ratio=-0.4, covariate_strength=0.3),
    SimScenario(log_rate_ratio=-0.5, covariate_strength=0.4),
    SimScenario(log_rate_ratio=-0.35, covariate_strength=LOG15),
    SimScenario(log_rate_ratio=-0.4, covariate_strength=LOG15, censoring=None),
    SimScenario(shape_base=1.0, covariate_strength=0.0),
    *(SimScenario.from_dict(json.loads(path.read_text()))
      for path in sorted(PERFBENCH_DATA.glob("*scenario.json"))),
]
# Shapes below 1, where plain adaptive quadrature is itself only good to about 1e-9.
LOW_SHAPE_SCENARIOS = [
    SimScenario(shape_base=0.6, shape_offset=0.2, covariate_strength=0.5),
    SimScenario(shape_base=0.5, shape_offset=0.4, covariates="bernoulli2", covariate_strength=0.7),
    SimScenario(shape_base=0.8, shape_offset=-0.1, covariate_strength=LOG15, log_rate_ratio=-0.3),
    SimScenario(shape_base=0.3, shape_offset=0.0, covariate_strength=LOG15, tau=3.0),
]


def _quad(f, tau, power=1):
    """Adaptive quadrature over [0, tau] on t = tau * s**power.

    A power of 16 turns a t**(shape - 1) singularity into the bounded
    s**(16 * shape - 1) for any shape above 1/16; that is the refined
    rule for shapes below 1.
    """
    return quad(lambda s: f(tau * s**power) * power * tau * s ** (power - 1), 0.0, 1.0,
                epsabs=1e-14, epsrel=1e-13, limit=400)[0]


def _oracle_rmst(scn, arm, power=1):
    return _quad(lambda t: float(true_survival(scn, arm, t)[0]), scn.tau, power)


@pytest.fixture(scope="module")
def small_scn():
    return SimScenario(
        n_per_arm=50, shape_offset=-0.3, covariate_strength=math.log(1.5),
        fractions=(0.5, 1.0),
    )


@pytest.fixture(scope="module")
def small_calib(small_scn):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_engine, "_GRID_STEP", 0.5)
        return calibrate_information(small_scn, reps=120, master_seed=7)


class TestScenario:
    def test_defaults_and_derived_quantities(self):
        scn = SimScenario()
        assert scn.n_covariates == 1
        assert scn.total_duration == pytest.approx(3.0)
        assert scn.arm_shape(0) == pytest.approx(1.5)
        assert scn.arm_shape(1) == pytest.approx(1.5)
        assert scn.censoring_rate == pytest.approx(-math.log(0.95))
        assert replace(scn, censoring=None).censoring_rate == 0.0

    def test_coefficients_split_strength_across_covariates(self):
        strength = math.log(1.5)
        one = SimScenario(covariate_strength=strength)
        two = SimScenario(covariate_strength=strength, covariates="bernoulli2")
        np.testing.assert_allclose(one.coefficients, [strength])
        np.testing.assert_allclose(two.coefficients, [strength / math.sqrt(2)] * 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_per_arm=0),
            dict(tau=0.0),
            dict(accrual=-1.0),
            dict(covariates="normal3"),
            dict(censoring="10pct"),
            dict(shape_base=-1.0),
            dict(shape_base=0.5, shape_offset=-0.5),
            dict(rate_base=0.0),
            dict(fractions=(0.5, 0.75)),
            dict(fractions=(0.75, 0.5, 1.0)),
            dict(fractions=()),
        ],
    )
    def test_invalid_scenarios(self, kwargs):
        with pytest.raises(ConfigError):
            SimScenario(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "tau", "accrual", "shape_base", "shape_offset", "rate_base", "log_rate_ratio", "covariate_strength",
    ])
    def test_non_finite_numbers_name_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            SimScenario(**{name: value})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("covariates", COVARIATE_KINDS)
    @pytest.mark.parametrize("strength", [800.0, -800.0])
    def test_covariate_strength_bounded_by_the_rates(self, covariates, strength):
        # a covariate effect this large overflows or underflows the atoms' Weibull rates in both arms
        with pytest.raises(ConfigError, match=rf"^covariate_strength {strength} gives Weibull rates that are not "
                                              r"finite and > 0 at treatment rate offsets in \[-5.0, 5.0\]"):
            SimScenario(n_per_arm=50, covariate_strength=strength, covariates=covariates, censoring=None)
        SimScenario(covariate_strength=strength / 100, covariates=covariates)  # 8 is well inside the float range

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("covariates", COVARIATE_KINDS)
    @pytest.mark.parametrize("offset", [800.0, -800.0])
    def test_log_rate_ratio_bounded_by_arm_1_rates(self, covariates, offset):
        # the scenario's own offset, which simulate --effect as-given draws arm 1 at, over- or underflows its rates
        with pytest.raises(ConfigError, match=rf"^log_rate_ratio {offset} gives Weibull rates that are not finite and "
                                              rf"> 0 at treatment rate offsets in \[{offset}\] \(rate_base "
                                              r"0.916290731874155\)$"):
            SimScenario(n_per_arm=50, log_rate_ratio=offset, covariate_strength=0.5, covariates=covariates,
                        censoring=None)
        SimScenario(log_rate_ratio=offset / 100, covariate_strength=0.5, covariates=covariates)  # 8 is inside it

    def test_non_finite_fraction_rejected(self):
        doc = SimScenario().to_dict()
        doc["fractions"] = [0.5, math.nan, 1.0]
        with pytest.raises(ConfigError, match=r"^malformed scenario: fractions must be finite, got \(0.5, nan, 1.0\)$"):
            SimScenario.from_dict(doc)

    def test_round_trip_and_schema_errors(self):
        scn = SimScenario(
            n_per_arm=77, shape_offset=-0.2, covariates="bernoulli2",
            censoring=None, fractions=(0.25, 1.0),
        )
        assert SimScenario.from_dict(scn.to_dict()) == scn
        with pytest.raises(ConfigError, match="schema"):
            SimScenario.from_dict({"schema": "rmstgst.scenario/2"})
        with pytest.raises(ConfigError, match="JSON object"):
            SimScenario.from_dict("nope")


class TestTruthFunctionals:
    @pytest.mark.parametrize("scn", TRUTH_SCENARIOS)
    def test_graded_rule_matches_adaptive_quadrature(self, scn):
        for arm in (0, 1):
            assert true_rmst(scn, arm) == pytest.approx(_oracle_rmst(scn, arm), rel=1e-10)

    @pytest.mark.parametrize("scn", LOW_SHAPE_SCENARIOS)
    def test_graded_rule_below_shape_one(self, scn):
        """Against the refined rule, since plain adaptive quadrature degrades below shape 1.

        The graded rule keeps the restricted mean to about 1e-15 on these
        scenarios.
        """
        for arm in (0, 1):
            assert true_rmst(scn, arm) == pytest.approx(_oracle_rmst(scn, arm, power=16), rel=1e-10)

    def test_true_rmst_to_another_horizon(self):
        scn = SimScenario(shape_offset=-0.3, covariate_strength=LOG15)
        longer = replace(scn, tau=2.5)
        assert true_rmst(longer, 1) == pytest.approx(_oracle_rmst(longer, 1), rel=1e-10)

    def test_true_survival_boundaries(self):
        scn = SimScenario(covariate_strength=math.log(1.5), shape_offset=-0.3)
        ts = np.linspace(0.01, 1.0, 25)
        for arm in (0, 1):
            s = true_survival(scn, arm, ts)
            assert np.all((s > 0) & (s < 1))
            assert np.all(np.diff(s) < 0)
            assert true_survival(scn, arm, 0.0) == pytest.approx(1.0)

    def test_true_rmst_against_simulation(self):
        scn = SimScenario(
            n_per_arm=150_000, shape_offset=-0.3, log_rate_ratio=-0.2,
            covariate_strength=math.log(1.5), censoring=None,
        )
        rng = np.random.default_rng(99)
        trial = draw_trial(scn, rng)
        for arm in (0, 1):
            times = trial.followup[trial.arm == arm]
            clipped = np.minimum(times, scn.tau)
            se = clipped.std(ddof=1) / math.sqrt(times.size)
            assert abs(clipped.mean() - true_rmst(scn, arm)) < 3 * se

    def test_true_rmst_bernoulli_against_simulation(self):
        scn = SimScenario(
            n_per_arm=120_000, covariates="bernoulli2", covariate_strength=0.7,
            log_rate_ratio=-0.3, censoring=None,
        )
        rng = np.random.default_rng(5)
        trial = draw_trial(scn, rng)
        times = trial.followup[trial.arm == 1]
        clipped = np.minimum(times, scn.tau)
        se = clipped.std(ddof=1) / math.sqrt(times.size)
        assert abs(clipped.mean() - true_rmst(scn, 1)) < 3 * se


    def test_proportional_hazards_reduction(self):
        scn = SimScenario(shape_offset=0.0, log_rate_ratio=-0.5, covariate_strength=0.4)
        hr = hazard_ratio(scn, np.array([0.05, 0.3, 0.8, 1.0]))
        np.testing.assert_allclose(hr, math.exp(-0.5), rtol=1e-12)

    def test_delayed_effect_crosses_one(self):
        base = SimScenario(shape_offset=-0.3, covariate_strength=math.log(1.5))
        offset = calibrate_null(base)
        scn = replace(base, log_rate_ratio=offset)
        hr = hazard_ratio(scn, np.array([0.1, 1.0]))
        assert hr[0] > 1.0 > hr[1]
        assert np.all(np.diff(hazard_ratio(scn, np.linspace(0.05, 1.0, 40))) < 0)

    def test_curve_table_rows(self):
        scn = SimScenario(shape_offset=-0.3, log_rate_ratio=-0.16)
        rows = curve_table(scn)
        assert len(rows) == 200
        assert set(rows[0]) == {"time", "survival_0", "survival_1", "hazard_ratio"}
        assert rows[-1]["time"] == pytest.approx(scn.tau)
        surv0 = [r["survival_0"] for r in rows]
        assert all(b < a for a, b in zip(surv0, surv0[1:]))


class TestDraws:
    def test_replicate_streams_deterministic_and_distinct(self):
        scn = SimScenario(n_per_arm=20)
        a = draw_trial(scn, _rng_for_replicate(11, 3))
        b = draw_trial(scn, _rng_for_replicate(11, 3))
        c = draw_trial(scn, _rng_for_replicate(11, 4))
        for name in ("arm", "entry", "followup", "event", "z"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(a.entry, c.entry)

    def test_trial_structure(self):
        scn = SimScenario(n_per_arm=30, covariates="bernoulli2")
        trial = draw_trial(scn, _rng_for_replicate(0, 0))
        assert len(trial) == 60
        assert int(trial.arm.sum()) == 30
        assert np.all((0.0 <= trial.entry) & (trial.entry <= scn.accrual))
        assert np.all(trial.followup > 0)
        assert set(trial.event.tolist()) <= {0, 1}
        assert trial.z.shape == (60, 2)

    def test_no_censoring_all_events(self):
        scn = SimScenario(n_per_arm=40, censoring=None)
        trial = draw_trial(scn, _rng_for_replicate(2, 0))
        assert np.all(trial.event == 1)

    def test_exponential_censoring_fraction(self):
        scn = SimScenario(
            n_per_arm=60_000, shape_base=1.0, covariate_strength=0.0, censoring="5pct_per_year",
        )
        trial = draw_trial(scn, _rng_for_replicate(8, 0))
        lam = scn.rate_base
        c = scn.censoring_rate
        expect = lam / (lam + c)
        observed = np.mean(trial.event)
        se = math.sqrt(expect * (1 - expect) / len(trial))
        assert abs(observed - expect) < 3 * se


class TestCalibration:
    def test_null_offset_trivial_under_proportional_hazards(self):
        scn = SimScenario(shape_offset=0.0, covariate_strength=math.log(1.5))
        assert calibrate_null(scn) == pytest.approx(0.0, abs=1e-8)

    def test_null_offset_kills_delta(self):
        scn = SimScenario(shape_offset=-0.3, covariate_strength=math.log(1.5))
        offset = calibrate_null(scn)
        assert offset != 0.0
        nulled = replace(scn, log_rate_ratio=offset)
        assert true_rmst(nulled, 1) - true_rmst(nulled, 0) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("scn", TRUTH_SCENARIOS[2::3] + LOW_SHAPE_SCENARIOS[:2])
    def test_null_offset_matches_brentq(self, scn):
        mu0 = true_rmst(scn, 0)
        oracle = brentq(lambda b: true_rmst(replace(scn, log_rate_ratio=b), 1) - mu0, -5.0, 5.0,
                        xtol=1e-14, rtol=4 * np.finfo(float).eps)
        assert calibrate_null(scn) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("target", [0.5, 0.8, 0.9])
    @pytest.mark.parametrize("sided", ["one_sided", "two_sided"])
    def test_power_offset_matches_brentq(self, small_scn, small_calib, target, sided):
        pc = calibrate_power(small_scn, small_calib, target_power=target, sided=sided)
        delta = brentq(lambda d: _fixed_test_power(d, small_calib.i_max, 0.05, sided) - target,
                       0.0, small_scn.tau, xtol=1e-14, rtol=4 * np.finfo(float).eps)
        mu0 = true_rmst(small_scn, 0)
        offset = brentq(lambda b: true_rmst(replace(small_scn, log_rate_ratio=b), 1) - mu0 - delta,
                        -5.0, 5.0, xtol=1e-14, rtol=4 * np.finfo(float).eps)
        assert pc.delta == pytest.approx(delta, abs=1e-10)
        assert pc.log_rate_ratio == pytest.approx(offset, abs=1e-10)

    def test_unreachable_power_is_estimation_error(self, small_scn, small_calib):
        tiny = replace(small_calib, i_max=1e-3)
        with pytest.raises(EstimationError, match=r"target power 0\.8 is unreachable: a difference of "
                           r"tau = 1\.0 reaches power 0\.05\d* at i_max = 0\.001"):
            calibrate_power(small_scn, tiny, target_power=0.8)

    def test_null_offset_beyond_the_bracket_is_refused(self):
        # a control arm that fails fast and a treatment shape 1.4 lower: the treatment's restricted mean stays
        # below the control's at every offset in [-5, 5]
        with pytest.raises(EstimationError, match=r"no treatment rate offset in \[-5\.0, 5\.0\] gives a true "
                           r"restricted-mean difference of 0; those offsets give -0\.00568694 to -0\.00567108$"):
            calibrate_null(SimScenario(rate_base=2000.0, shape_offset=-1.4))

    def test_power_difference_beyond_the_bracket_is_refused(self, small_calib):
        # 90% power at i_max = 30 needs a difference of 0.59, and no offset gives so slow a control arm more than
        # 0.0196; a difference of tau would reach the power, so the bracket refuses it, not the power rule
        with pytest.raises(EstimationError, match=r"no treatment rate offset in \[-5\.0, 5\.0\] gives a true "
                           r"restricted-mean difference of 0\.591817; those offsets give -0\.743075 to "
                           r"0\.0195565$"):
            calibrate_power(SimScenario(rate_base=0.05), replace(small_calib, i_max=30.0), target_power=0.9)

    def test_information_calibration_fails_where_the_trial_end_does(self):
        # two subjects an arm followed to 0.3: 7 of 100 replicates have an event in each arm at the trial end
        with pytest.raises(EstimationError) as err:
            calibrate_information(SimScenario(n_per_arm=2, tau=0.3, accrual=0.5), reps=100, master_seed=1)
        assert str(err.value) == ("information calibration failed at the trial end: 7 of 100 replicates analyzed, "
                                  "90 needed; failures {'InsufficientEventsError': 93}")

    def test_information_calibration_contract(self, small_scn, small_calib):
        calib = small_calib
        assert calib.fractions == small_scn.fractions
        times = calib.analysis_times
        assert len(times) == len(small_scn.fractions)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[-1] == pytest.approx(small_scn.total_duration)
        assert calib.i_max > 0
        assert set(calib.i_max_by_method) == set(METHODS)
        assert calib.i_max_by_method["adjusted"] == calib.i_max
        mean_info = np.asarray(calib.mean_info)
        assert mean_info.size == len(calib.grid)
        assert np.all(np.diff(mean_info) >= 0)
        assert calib.i_max == pytest.approx(mean_info[-1])

    def test_information_calibration_round_trip(self, small_calib):
        back = InformationCalibration.from_dict(small_calib.to_dict())
        assert back == small_calib
        broken = small_calib.to_dict()
        del broken["i_max"]
        with pytest.raises(ConfigError, match="missing key"):
            InformationCalibration.from_dict(broken)

    @pytest.mark.parametrize("key", ["null_log_rate_ratio", "delta", "log_rate_ratio"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_calibrated_offset_refused_on_read(self, key, value):
        doc = json.loads((PERFBENCH_DATA / "sim_calibration.json").read_text())
        (doc if key == "null_log_rate_ratio" else doc["power"])[key] = value
        with pytest.raises(ConfigError, match=rf"^malformed calibration: .*\b{key} must be finite, got {value!r}$"):
            Calibration.from_dict(doc)

    def test_information_calibration_analyzes_each_grid_point_once(self, small_scn, monkeypatch):
        calls = []

        def counted(snap):
            calls.append(snap.u.tolist())
            return analyze(snap)

        monkeypatch.setitem(sim_engine.METHODS, "adjusted", counted)
        monkeypatch.setattr(sim_engine, "_GRID_STEP", 0.5)
        calibrate_information(small_scn, reps=100, master_seed=7)
        grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]  # step 0.5 up to the trial end
        # one stacked analysis a group of replicates, each replicate's looks the grid once
        stacked = [len(u) // len(grid) for u in calls]
        assert all(u == grid * n for u, n in zip(calls, stacked))
        assert sum(stacked) == 100 and len(calls) < 100

    def test_information_calibration_whatever_the_grid_group(self, small_scn, monkeypatch):
        # the grid pass stacks 1, 2 or 3 replicates of the grid's 30 looks a group; a look reads only its own
        # replicate, so the calibration is the same record
        records, stacked = [], []

        def counted(snap):
            stacked.append(snap.u.size // 30)
            return analyze(snap)

        monkeypatch.setitem(sim_engine.METHODS, "adjusted", counted)
        for group in (1, 2, 3):
            monkeypatch.setattr(sim_engine, "_GRID_PLACES", group * 30 * 2 * small_scn.n_per_arm)
            records.append(calibrate_information(small_scn, reps=100, master_seed=7).to_dict())
            assert max(stacked) == group and sum(stacked) == 100
            stacked.clear()
        assert records[0] == records[1] == records[2]

    def test_comparator_caps_are_the_solo_trial_end_analyses(self, small_scn, small_calib):
        # km and cox analyze stacks of the replicates at the trial end, bit for bit a snapshot of each alone
        infos = {"km": [], "cox": []}
        for rep in range(small_calib.reps):
            trial = draw_trial(small_scn, _rng_for_replicate(small_calib.master_seed, rep))
            snap = snapshot(trial, u=small_scn.total_duration, tau=small_scn.tau)
            for method, test in (("km", km_rmst_test), ("cox", cox_hr_test)):
                try:
                    infos[method].append(test(snap).report(0)["info"])
                except (DataError, EstimationError):
                    infos[method].append(np.nan)
        for method, values in infos.items():
            assert small_calib.i_max_by_method[method] == float(np.nanmean(values))

    # bernoulli2 covariates of a strong effect at 4 per arm, everyone followed to 3: the Cox comparator's trial-end
    # fit fails in 8 of 100 replicates at seed 6, in 7 at seed 6 with entry over a year, and in 12 at seed 5; each
    # count is at least two fits from the 90% threshold, which test_comparator_cap_at_exactly_90_percent pins
    @pytest.mark.parametrize("accrual, seed, analyzed, capped", [(0.0, 6, [100, 92], ["adjusted", "cox", "km"]),
                                                                 (1.0, 6, [99, 93], ["adjusted", "cox", "km"]),
                                                                 (0.0, 5, [98, 88], ["adjusted", "km"])])
    def test_comparator_cap_needs_90_percent_of_the_replicates(self, accrual, seed, analyzed, capped):
        scn = SimScenario(n_per_arm=4, covariates="bernoulli2", covariate_strength=3.0, accrual=accrual, tau=3.0,
                          censoring=None, fractions=(0.5, 1.0))
        infos = sim_engine._map_replicates(scn, seed, 100, 1, (scn.total_duration,), ("km", "cox"))[0]
        assert np.isfinite(infos[:, 0]).sum(axis=0).tolist() == analyzed
        calib = calibrate_information(scn, reps=100, master_seed=seed)
        assert sorted(calib.i_max_by_method) == capped
        if "cox" not in capped:
            with pytest.raises(ConfigError, match="calibration lacks an information cap for method 'cox'"):
                run_study(scn, SpendingFunction("cubic_min"), calib, reps=5, methods=("km", "cox"))

    @pytest.mark.parametrize("analyzed, capped", [(90, True), (89, False)])
    def test_comparator_cap_at_exactly_90_percent(self, small_scn, monkeypatch, analyzed, capped):
        def replicates(scn, master_seed, reps, threads, times, methods, places=None):
            infos = np.tile(np.array(times)[None, :, None] * 10.0, (reps, 1, len(methods)))
            if "cox" in methods:
                infos[analyzed:, :, methods.index("cox")] = np.nan
            return infos, np.zeros_like(infos), np.full(infos.shape, None, dtype=object), np.zeros(len(methods))

        monkeypatch.setattr(sim_engine, "_map_replicates", replicates)
        calib = calibrate_information(small_scn, reps=100)
        assert ("cox" in calib.i_max_by_method) is capped
        assert calib.i_max_by_method["km"] == pytest.approx(small_scn.total_duration * 10.0)

    @pytest.mark.xfail(strict=True, raises=EstimationError,
                       reason="ROADMAP item 15: the calendar grid's fixed step of 0.1 puts both analysis times of a "
                              "trial of length 0.08 at 0.08")
    def test_information_calibration_of_a_short_trial(self):
        scn = SimScenario(n_per_arm=50, accrual=0.04, tau=0.04, rate_base=100.0, fractions=(0.5, 1.0))
        calib = calibrate_information(replace(scn, log_rate_ratio=calibrate_null(scn)), reps=100)
        assert 0.0 < calib.analysis_times[0] < calib.analysis_times[1] == scn.total_duration

    def test_information_calibration_needs_reps(self, small_scn):
        with pytest.raises(ConfigError, match="reps"):
            calibrate_information(small_scn, reps=50)

    def test_power_calibration_solves_fixed_test(self, small_scn, small_calib):
        pc = calibrate_power(small_scn, small_calib, target_power=0.80)
        drift = pc.delta * math.sqrt(small_calib.i_max)
        crit = norm.isf(pc.alpha / 2.0)
        power = norm.sf(crit - drift) + norm.cdf(-crit - drift)
        assert power == pytest.approx(0.80, abs=1e-6)
        assert pc.delta > 0
        scn_power = replace(small_scn, log_rate_ratio=pc.log_rate_ratio)
        assert true_rmst(scn_power, 1) - true_rmst(scn_power, 0) == pytest.approx(pc.delta, abs=1e-6)

    def test_power_target_alpha_recovers_null(self, small_scn, small_calib):
        pc = calibrate_power(small_scn, small_calib, target_power=0.05, alpha=0.05)
        assert pc.delta == pytest.approx(0.0, abs=1e-9)
        assert pc.log_rate_ratio == pytest.approx(calibrate_null(small_scn), abs=1e-6)

    def test_power_serialization_keys(self, small_scn, small_calib):
        payload = calibrate_power(small_scn, small_calib).to_dict()
        assert set(payload) == {"target_power", "alpha", "sidedness", "delta", "log_rate_ratio"}


class TestMethods:
    def test_method_registry_order(self):
        # error messages and calibration caps list the methods in this order
        assert list(METHODS) == ["adjusted", "km", "cox"]

    def test_method_registry_labels_and_finiteness(self, small_scn):
        snap = sim_snapshot(small_scn, seed=21)
        for name, run in METHODS.items():
            analyses = run(snap)
            res = analyses.report(0)
            assert analyses.method == name
            assert math.isfinite(res["z"])
            assert res["info"] > 0
            assert res["u"] == snap.u[0] and res["tau"] == snap.tau

    @pytest.mark.parametrize("method", list(METHODS))
    def test_report_prints_the_arrays_at_a_look(self, small_scn, method):
        # the dictionary that analyze prints: its keys in order, se and z from delta and info
        snap = snapshot(draw_trial(small_scn, _rng_for_replicate(20200920, 3)), u=[1.0, 2.0, 3.0], tau=1.0)
        analyses = METHODS[method](snap)
        means = ["mu0", "mu1"] if method != "cox" else []
        extras = ["components", "diagnostics"] if method == "adjusted" else []
        for k in range(snap.u.size):
            report, delta, info = analyses.report(k), analyses.delta[k], analyses.info[k]
            assert list(report) == ["u", "tau", *means, "delta", "se", "z", "info", *extras]
            assert (report["u"], report["tau"], report["delta"], report["info"]) == (snap.u[k], 1.0, delta, info)
            assert report["se"] == 1 / math.sqrt(info) and report["z"] == delta * math.sqrt(info)
            if means:
                assert [report["mu0"], report["mu1"]] == analyses.mu[k].tolist()
            if extras:
                assert report["components"] == {name: terms[k] for name, terms in analyses.components.items()}
                assert report["diagnostics"] == {name: counts[k] for name, counts in analyses.diagnostics.items()}

    def test_cox_recovers_proportional_log_hazard_ratio(self):
        scn = SimScenario(
            n_per_arm=3000, shape_offset=0.0, log_rate_ratio=-0.4,
            covariate_strength=0.3, censoring=None,
        )
        res = cox_hr_test(sim_snapshot(scn, seed=4)).report(0)
        assert abs(res["delta"] - (-0.4)) < 3 * res["se"]
        assert res["info"] == pytest.approx(1.0 / res["se"]**2, rel=1e-10)

    def test_cox_needs_events_in_both_arms(self):
        snap = snapshot_from_arrays(
            np.zeros(4), np.array([0.5, 1.0, 0.8, 0.9]), np.array([1, 1, 0, 0]),
            np.array([0, 0, 1, 1]), np.zeros((4, 1)), u=5.0, tau=2.0,
        )
        with pytest.raises(InsufficientEventsError):
            cox_hr_test(snap).report(0)

    def test_unknown_method_rejected(self, small_scn, small_calib):
        spending = SpendingFunction("cubic_min")
        with pytest.raises(ConfigError, match=r"unknown method 'bayes'; choose from \('adjusted', 'km', 'cox'\)"):
            run_study(small_scn, spending, small_calib, reps=5, methods=("bayes",))

    def test_empty_method_list_rejected(self, small_scn, small_calib):
        with pytest.raises(ConfigError, match=r"no method named; choose from \('adjusted', 'km', 'cox'\)"):
            run_study(small_scn, SpendingFunction("cubic_min"), small_calib, reps=5, methods=())

    def test_repeated_method_rejected(self, small_scn, small_calib):
        with pytest.raises(ConfigError, match=r"method 'km' is named more than once"):
            run_study(small_scn, SpendingFunction("cubic_min"), small_calib, reps=5, methods=("km", "km"))

    def test_negative_seed_rejected(self, small_scn, small_calib):
        with pytest.raises(ConfigError, match=r"master_seed must be >= 0, got -1"):
            run_study(small_scn, SpendingFunction("cubic_min"), small_calib, reps=5, master_seed=-1)
        with pytest.raises(ConfigError, match=r"master_seed must be >= 0, got -1"):
            calibrate_information(small_scn, reps=100, master_seed=-1)

    def test_zero_reps_rejected(self, small_scn, small_calib):
        with pytest.raises(ConfigError, match=r"simulation needs reps >= 1, got 0"):
            run_study(small_scn, SpendingFunction("cubic_min"), small_calib, reps=0)


class PooledSnapshot(Snapshot):
    """A snapshot whose subjects are all in arm 0, fitted at the looks without an error in ``errors``, not at its own
    looks with an event in each arm (it has none)."""

    __slots__ = ("errors",)

    def look_errors(self):
        return list(self.errors)


def pooled_reference(snap):
    """The Cox comparator from a layout of its own: every subject in one stratum, the arm prepended to the
    covariates, fitted at the looks with an event in each arm, as the comparator's ``Analyses``."""
    pooled = PooledSnapshot(snap.u, snap.tau, np.zeros_like(snap.arm), snap.time, snap.event,
                            np.column_stack((snap.arm, snap.z)), snap.offset)
    pooled.errors = snap.look_errors()
    fits = fit(pooled)
    fitted = np.array([error is None for error in fits.errors])
    info = np.full(snap.u.size, np.nan)
    info[fitted] = 1 / np.linalg.inv(fits.info[fitted])[:, 0, 0]
    return Analyses("cox", snap, fits.beta[:, 0], info, fits.errors)


class TestCoxComparatorTolerance:
    """The comparator reads each look's two arm strata under one baseline hazard. Its delta and info stay
    within 1e-10 relative of the same model fitted on a pooled layout of its own (the worst seen is 5e-12, on
    the early looks of the calibration grid), with the same error class on every look."""

    RTOL = 1e-10

    def check(self, snap):
        got, want = cox_hr_test(snap), pooled_reference(snap)
        assert [type(e) for e in got.errors] == [type(e) for e in want.errors]
        for name in ("delta", "info"):  # NaN at the same looks
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=self.RTOL, atol=0)
        return got

    def test_benchmark_simulation_eight_a_group(self):
        scn = SimScenario.read(PERFBENCH_DATA / "sim_scenario.json")
        calib = json.loads((PERFBENCH_DATA / "sim_calibration.json").read_text())
        scn = replace(scn, log_rate_ratio=calib["power"]["log_rate_ratio"])
        for group in range(2):
            trials = [draw_trial(scn, _rng_for_replicate(5, rep)) for rep in range(8 * group, 8 * group + 8)]
            got = self.check(snapshot(trials, u=calib["analysis_times"], tau=scn.tau))
            assert all(error is None for error in got.errors)

    def test_calibration_grid(self):
        scn = SimScenario.read(PERFBENCH_DATA / "cal_scenario.json")
        grid = np.append(np.arange(0.1, scn.total_duration - 1e-9, 0.1), scn.total_duration)
        for rep in range(3):
            trial = draw_trial(scn, _rng_for_replicate(4, rep))
            got = self.check(snapshot(trial, u=grid, tau=scn.tau))
            assert got.errors.count(None) >= 25
            self.check(snapshot(trial, u=grid[-1:], tau=scn.tau))  # as calibration asks: the trial end only

    def test_monotone_trial(self):
        got = self.check(snapshot(monotone_trial(), u=TestStackedReplicates.TIMES, tau=1.0))
        assert [error and type(error).__name__ for error in got.errors] == [
            "InsufficientEventsError", "InsufficientEventsError", "SingularInformationError", None]

    @staticmethod
    def rounded(trial, step=0.05):
        """The trial with its follow-up rounded to ``step``, so both arms have events and censorings at the same
        times."""
        return Trial(arm=trial.arm, entry=trial.entry, followup=np.round(trial.followup / step) * step,
                     event=trial.event, z=trial.z)

    @staticmethod
    def tied_looks(snap):
        """The looks with an event time in both arms: under one baseline, two event rows with one risk set."""
        return [k for k in range(snap.u.size)
                if np.intersect1d(*(snap.event_times[arm_rows(snap, k, arm)] for arm in (0, 1))).size]

    def test_times_tied_across_arms(self):
        scn = SimScenario.read(PERFBENCH_DATA / "sim_scenario.json")
        calib = json.loads((PERFBENCH_DATA / "sim_calibration.json").read_text())
        scn = replace(scn, log_rate_ratio=calib["power"]["log_rate_ratio"])
        trials = [self.rounded(draw_trial(scn, _rng_for_replicate(5, rep))) for rep in range(8)]
        snap = snapshot(trials, u=calib["analysis_times"], tau=scn.tau)
        assert len(self.tied_looks(snap)) == snap.u.size
        assert all(error is None for error in self.check(snap).errors)
        scn = SimScenario.read(PERFBENCH_DATA / "cal_scenario.json")
        grid = np.append(np.arange(0.1, scn.total_duration - 1e-9, 0.1), scn.total_duration)
        snap = snapshot(self.rounded(draw_trial(scn, _rng_for_replicate(4, 0))), u=grid, tau=scn.tau)
        assert len(self.tied_looks(snap)) >= 20
        assert self.check(snap).errors.count(None) >= 25

    def test_other_arm_with_nobody_at_risk(self):
        # arm 0 is followed to 0.4 at the longest, so arm 1's events at 0.5 and 0.9 leave it nobody at risk
        trial = Trial(arm=np.repeat([0, 1], 5), entry=np.zeros(10),
                      followup=[0.1, 0.2, 0.3, 0.4, 0.35, 0.15, 0.2, 0.5, 0.9, 0.3], event=[1, 1, 0, 1, 1, 1, 1, 1, 1, 0],
                      z=[[0.3], [-0.2], [0.8], [0.1], [-0.5], [0.4], [-0.1], [0.6], [-0.7], [0.2]])
        snap = snapshot(trial, u=[0.45, 2.0], tau=1.0)
        dead = ~SharedBaseline(snap).live  # per arm, the event rows where it has nobody at risk
        assert snap.event_times[dead[0]].tolist() == [0.5, 0.9] and not dead[1].any()
        assert self.check(snap).errors == [None, None]


def solo_rows(scn, master_seed, reps, times, methods):
    """Info, delta and error class of each method at each look, per replicate, each from a snapshot of the
    replicate alone; NaN (and the class name) where an analysis fails, "DataError" throughout where the
    snapshot does."""
    shape = (len(reps), len(times), len(methods))
    infos, deltas, failed = np.full(shape, np.nan), np.full(shape, np.nan), np.full(shape, None, dtype=object)
    for i, rep in enumerate(reps):
        try:
            snap = snapshot(draw_trial(scn, _rng_for_replicate(master_seed, rep)), u=times, tau=scn.tau)
        except DataError:
            failed[i] = "DataError"
            continue
        tests = {"adjusted": analyze(snap), "km": km_rmst_test(snap), "cox": cox_hr_test(snap)}
        for m, method in enumerate(methods):
            for k in range(len(times)):
                try:
                    result = tests[method].report(k)
                except (DataError, EstimationError) as exc:
                    failed[i, k, m] = type(exc).__name__
                    continue
                infos[i, k, m], deltas[i, k, m] = result["info"], result["delta"]
    return infos, deltas, failed


class TestStackedReplicates:
    """The study worker stacks a group of replicates in one snapshot; each replicate's results are those of
    its snapshot alone, bit for bit, whatever the group."""

    MONOTONE = SimScenario(covariate_strength=1.0)  # replicate 43 of seed 20200920 is monotone at u = 0.2
    # nobody enrolled at u = 0.004 in most replicates, one arm only in some; no event in an arm in several
    # looks at u = 0.05 and 0.2
    TIMES = (0.004, 0.05, 0.2, 3.0)
    METHODS = ("adjusted", "km", "cox")

    def worker(self, monkeypatch, group, scn, seed, reps, times):
        """The study worker, with the place budget set to stack ``group`` replicates a group."""
        monkeypatch.setattr(sim_engine, "_GROUP_PLACES", group * len(times) * 2 * scn.n_per_arm)
        return sim_engine._study_worker(scn, seed, reps, times, self.METHODS)

    @pytest.mark.parametrize("times", [TIMES, TIMES[-1:]], ids=["looks", "trial_end"])
    @pytest.mark.parametrize("group", [1, 2, 3, 7, 8])
    def test_each_replicate_as_alone(self, monkeypatch, group, times):
        reps = list(range(40, 47))  # 7 replicates: groups of 2 and 3 leave a ragged last group
        infos, deltas, failed, _ = self.worker(monkeypatch, group, self.MONOTONE, 20200920, reps, times)
        want = solo_rows(self.MONOTONE, 20200920, reps, times, self.METHODS)
        for got, expected in zip((infos, deltas, failed), want):
            np.testing.assert_array_equal(got, expected)
        assert np.isfinite(infos[:, -1]).all()
        if times == self.TIMES:  # the odd looks are there
            assert np.all(failed[:, 0] == "InsufficientEventsError")
            assert failed[reps.index(43), 2, 0] == "EstimationError"  # the monotone look
            assert failed[reps.index(43), 2, 2] == "SingularInformationError"

    @pytest.mark.parametrize("method", list(METHODS))
    def test_every_method_decides_a_looks_error_alike(self, method):
        # replicates 40-46 at u = 0.05 and 0.2: looks with no event in an arm, and the monotone look
        reps, times = list(range(40, 47)), (0.05, 0.2, 3.0)
        snap = snapshot([draw_trial(self.MONOTONE, _rng_for_replicate(20200920, rep)) for rep in reps],
                        u=times, tau=1.0)
        analyses = METHODS[method](snap)
        _, _, failed, _ = sim_engine._study_worker(self.MONOTONE, 20200920, reps, times, (method,))
        raised = []
        for j, (u, empty) in enumerate(zip(snap.u.tolist(), np.diff(snap.stratum_rows).reshape(-1, 2) == 0)):
            try:
                analyses.report(j)
                raised.append(None)
            except RmstgstError as exc:
                raised.append(type(exc).__name__)
                if empty.any():
                    assert str(exc) == (f"arm {np.argmax(empty)} has no events at or before min(u, tau)={min(u, 1.0)}"
                                        "; the analysis needs at least one per arm")
        assert failed[:, :, 0].ravel().tolist() == raised
        assert raised.count("InsufficientEventsError") >= 3 and raised[2::3] == [None] * len(reps)

    def test_replicate_with_nobody_enrolled_fails_alone(self, monkeypatch):
        scn = SimScenario(n_per_arm=2, accrual=2.0, covariate_strength=0.5)
        reps, times = list(range(12)), (0.3, 0.6)
        want = solo_rows(scn, 5, reps, times, self.METHODS)
        nobody = [i for i in range(len(reps)) if np.all(want[2][i] == "DataError")]
        assert 0 < len(nobody) < len(reps)
        for group in (1, 5, 12):
            for a, b in zip(self.worker(monkeypatch, group, scn, 5, reps, times), want):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a Weibull shape of 0.001 overflows the drawn times, quietly
    def test_replicate_that_cannot_be_drawn_fails_at_every_look(self):
        scn = SimScenario(n_per_arm=50, shape_base=0.001, censoring=None)
        with pytest.raises(DataError, match="followup_time must be finite"):
            draw_trial(scn, _rng_for_replicate(0, 0))
        failed = sim_engine._map_replicates(scn, 0, 3, 1, (0.5, 1.0, 3.0), self.METHODS)[2]
        assert failed.shape == (3, 3, 3) and np.all(failed == "DataError")

    GRID = tuple(np.round(np.arange(1, 31) * 0.1, 10))

    @pytest.mark.parametrize("scn, times, grid_pass, groups", [(SimScenario(), (1.0, 2.0, 3.0), False, [8, 8, 1]),
                                                               (SimScenario(), GRID, True, [2] * 8 + [1]),
                                                               (SimScenario(n_per_arm=1000), GRID, True, [1, 1]),
                                                               (SimScenario(), (3.0,), False, [24, 24, 2])],
                             ids=["looks", "grid", "grid_alone", "trial_end"])
    def test_group_size_from_the_place_budget(self, monkeypatch, scn, times, grid_pass, groups):
        # 3 looks of 400 subjects stack 8 replicates a group; the calibration grid's 30 looks stack 2 in its own
        # budget, and a replicate whose grid alone exceeds that budget stays alone; the trial-end pass stacks 24
        stacked = []

        def counted(snap):
            stacked.append(snap.u.size // len(times))
            return analyze(snap)

        monkeypatch.setitem(sim_engine.METHODS, "adjusted", counted)
        places = sim_engine._GRID_PLACES if grid_pass else None
        sim_engine._study_worker(scn, 1, list(range(sum(groups))), times, ("adjusted",), places)
        assert stacked == groups


class TestRunStudy:
    def test_deterministic_across_thread_counts(self, small_scn, small_calib):
        spending = SpendingFunction("cubic_min")
        kwargs = dict(reps=36, methods=("adjusted", "km"), master_seed=13)
        serial = run_study(small_scn, spending, small_calib, threads=1, **kwargs)
        threaded = run_study(small_scn, spending, small_calib, threads=2, **kwargs)
        assert serial.cumulative_rejection == threaded.cumulative_rejection
        for m in kwargs["methods"]:
            np.testing.assert_array_equal(serial.estimates[m], threaded.estimates[m])
            np.testing.assert_array_equal(serial.info_levels[m], threaded.info_levels[m])

    def test_information_calibration_deterministic_across_thread_counts(self, small_scn):
        # the comparators' trial-end pass runs in the pool's workers too
        serial = calibrate_information(small_scn, reps=100, master_seed=11, threads=1)
        threaded = calibrate_information(small_scn, reps=100, master_seed=11, threads=2)
        assert threaded == serial
        assert set(serial.i_max_by_method) == {"adjusted", "km", "cox"}

    @pytest.mark.parametrize("threads, cpus, reps, pool", [(5000, 64, 100, 64), (5000, None, 100, 1), (8, 64, 3, 3),
                                                           (3, 64, 100, 3)])
    def test_pool_no_larger_than_the_machine_or_the_work(self, monkeypatch, small_scn, threads, cpus, reps, pool):
        sizes = []

        class SerialPool:  # records the pool size and maps in this process, so no worker is started
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        # _map_replicates imports the pool from concurrent.futures when it runs; with cpu_count faked as 64,
        # a fake not in place would fork real workers, so check that it is before any run
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(sim_engine, "os", SimpleNamespace(cpu_count=lambda: cpus))
        from concurrent.futures import ProcessPoolExecutor
        assert ProcessPoolExecutor is SerialPool and "ProcessPoolExecutor" not in vars(sim_engine)
        pooled = sim_engine._map_replicates(small_scn, 13, reps, threads, (1.5, 3.0), ("km",))
        serial = sim_engine._map_replicates(small_scn, 13, reps, 1, (1.5, 3.0), ("km",))
        assert sizes == [pool]
        for got, want in zip(pooled[:3], serial[:3], strict=True):  # the results; the seconds are timings
            np.testing.assert_array_equal(got, want)

    def test_monotone_rejection_and_rows(self, small_scn, small_calib):
        spending = SpendingFunction("cubic_min")
        oc = run_study(
            small_scn, spending, small_calib, reps=40,
            methods=("adjusted",), master_seed=3,
        )
        rej = oc.cumulative_rejection["adjusted"]
        assert all(b >= a for a, b in zip(rej, rej[1:]))
        assert all(0.0 <= r <= 1.0 for r in rej)
        rows = oc.to_rows()
        assert len(rows) == len(small_calib.analysis_times)
        assert {"method", "stage", "cumulative_rejection", "mc_se"} <= set(rows[0])
        assert oc.estimates["adjusted"].shape == (40, len(small_calib.analysis_times))
        assert oc.info_levels["adjusted"].shape == (40, len(small_calib.analysis_times))

    def test_large_effect_rejects_almost_always(self, small_scn, small_calib):
        spending = SpendingFunction("cubic_min")
        strong = replace(small_scn, log_rate_ratio=-2.0)
        oc = run_study(strong, spending, small_calib, reps=30, master_seed=1)
        assert oc.cumulative_rejection["adjusted"][-1] > 0.85

    def test_failures_by_type(self, small_scn, small_calib):
        # at u = 0.02 about one subject an arm is enrolled and none has had an event
        calib = replace(small_calib, analysis_times=(0.02, small_calib.analysis_times[-1]))
        oc = run_study(small_scn, SpendingFunction("cubic_min"), calib, reps=20, methods=("adjusted", "km"),
                       master_seed=2)
        assert list(oc.failures_by_type) == ["adjusted", "km"]
        for m in oc.failures_by_type:
            assert np.isnan(oc.info_levels[m][:, 0]).all() and np.isfinite(oc.info_levels[m][:, 1]).all()
            assert oc.failures_by_type[m] == {"InsufficientEventsError": 20}
            assert oc.failures_by_stage[m] == [20, 0]

    def test_missing_method_cap_rejected(self, small_scn, small_calib):
        spending = SpendingFunction("cubic_min")
        capless = replace(
            small_calib,
            i_max_by_method={"adjusted": small_calib.i_max},
        )
        with pytest.raises(ConfigError, match="information cap"):
            run_study(small_scn, spending, capless, reps=5, methods=("km",))


def monitored_firsts(infos, deltas, spending, i_max):
    """First rejecting stage of each replicate (0 for none), by folding ``update_monitoring`` over its stages
    with a state of its own: the monitoring path of the CLI."""
    design = DesignConfig(spending=spending, planned_fractions=(0.5, 1.0), i_max=i_max)
    firsts = []
    for info_row, delta_row in zip(infos.tolist(), deltas.tolist()):
        state, first = MonitoringState(design=design), 0
        for k, (info, delta) in enumerate(zip(info_row, delta_row)):
            if math.isnan(info):
                continue
            state = update_monitoring(state, k + 1.0, delta * math.sqrt(info), info, final=k == len(info_row) - 1)
            if state.analyses[-1].decision == "reject":
                first = k + 1
                break
        firsts.append(first)
    return np.array(firsts)


class TestMonitoringOracle:
    """``run_study`` folds the spending step over each replicate's stages; folding ``update_monitoring`` over
    the same estimates and information must give the same first rejection, replicate by replicate."""

    TINY = SimScenario.from_dict(json.loads((PERFBENCH_DATA / "tiny_sim_scenario.json").read_text()))
    TINY_DOC = json.loads((PERFBENCH_DATA / "tiny_sim_calibration.json").read_text())
    METHODS = ("adjusted", "km", "cox")

    def study_firsts(self, monkeypatch, spending, i_max, infos, deltas):
        """``run_study``'s first rejecting stage of each replicate (0 for none), each replicate monitored alone
        on its given rows: with one replicate, the cumulative rejection steps from 0 to 1 at that stage."""
        calib = replace(Calibration.from_dict(self.TINY_DOC), i_max_by_method={"adjusted": i_max})
        failed = np.where(np.isnan(infos), "EstimationError", None)
        firsts = []
        for rep in range(infos.shape[0]):
            rows = *(a[rep:rep + 1, :, None] for a in (infos, deltas, failed)), np.zeros(2)
            monkeypatch.setattr(sim_engine, "_map_replicates", lambda *args, **kwargs: rows)
            rejected = run_study(self.TINY, spending, calib, reps=1).cumulative_rejection["adjusted"]
            firsts.append(rejected.index(1.0) + 1 if 1.0 in rejected else 0)
        return np.array(firsts)

    @pytest.mark.parametrize("kind", ["obrien_fleming_like", "pocock_like"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_studies_match_update_monitoring(self, monkeypatch, kind, seed):
        scn = replace(self.TINY, log_rate_ratio=self.TINY_DOC["power"]["log_rate_ratio"])
        calib = Calibration.from_dict(self.TINY_DOC)
        spending = SpendingFunction(kind)
        oc = run_study(scn, spending, calib, reps=60, methods=self.METHODS, master_seed=seed)
        stages = len(calib.analysis_times)
        for m in self.METHODS:
            infos, deltas = oc.info_levels[m], oc.estimates[m]
            want = monitored_firsts(infos, deltas, spending, calib.i_max_by_method[m])
            rejected = [float(np.mean((want > 0) & (want <= k + 1))) for k in range(stages)]
            assert oc.cumulative_rejection[m] == tuple(rejected)
            got = self.study_firsts(monkeypatch, spending, calib.i_max_by_method[m], infos, deltas)
            np.testing.assert_array_equal(got, want)

    def test_failed_skipped_and_infinite_stages(self, monkeypatch):
        nan = math.nan
        infos = np.array([
            [nan, 100.0, 180.0],  # a failed first stage
            [100.0, nan, 200.0],  # a failed middle stage
            [100.0, 90.0, 180.0],  # information falls: the second stage is skipped
            [100.0, 100.0, 100.0],  # information stays: every later stage is skipped
            [80.0, 200.0, 210.0],  # full information at stage 2: the final stage's critical value is infinite
            [nan, nan, nan],  # every stage failed
            [100.0, 150.0, 200.0],  # a plain path
        ])
        z = np.array([
            [nan, 1.0, 2.5],
            [1.0, nan, 3.0],
            [1.0, 3.2, 2.3],
            [1.0, 9.0, 9.0],
            [1.0, 1.5, 30.0],
            [nan, nan, nan],
            [3.5, 1.0, 1.0],
        ])
        deltas = z / np.sqrt(infos)
        spending = SpendingFunction("pocock_like")
        want = monitored_firsts(infos, deltas, spending, 200.0)
        assert want.tolist() == [3, 3, 3, 0, 0, 0, 1]
        np.testing.assert_array_equal(self.study_firsts(monkeypatch, spending, 200.0, infos, deltas), want)
        state = MonitoringState(design=DesignConfig(spending=spending, planned_fractions=(0.5, 1.0), i_max=200.0))
        for k in range(3):
            state = update_monitoring(state, k + 1.0, deltas[4, k] * math.sqrt(infos[4, k]), infos[4, k], final=k == 2)
        assert state.analyses[-1].critical_value == math.inf
        assert all(a.decision != "reject" for a in state.analyses)

    def test_stage_too_close_for_the_grid_fails_that_replicate_only(self, monkeypatch):
        """Information that grows by less than the 4 000-node grid resolves is that stage's ConfigError; the
        replicate goes on from its last stage, and the other replicates are not touched."""
        infos = np.array([[100.0, 100.0 + 1e-6, 200.0], [100.0, 150.0, 200.0]])
        deltas = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0]]) / np.sqrt(infos)
        rows = infos[:, :, None], deltas[:, :, None], np.full((2, 3, 1), None, dtype=object), np.zeros(2)
        monkeypatch.setattr(sim_engine, "_map_replicates", lambda *args, **kwargs: rows)
        calib = replace(Calibration.from_dict(self.TINY_DOC), i_max_by_method={"adjusted": 200.0})
        oc = run_study(self.TINY, SpendingFunction("pocock_like"), calib, reps=2)
        assert oc.failures_by_type == {"adjusted": {"ConfigError": 1}}
        assert oc.failures_by_stage == {"adjusted": [0, 1, 0]}
        assert oc.cumulative_rejection["adjusted"] == (0.0, 0.0, 0.5)

    @pytest.mark.parametrize("kind, fractions", [
        ("obrien_fleming_like", (0.5, 0.75, 1.0)),
        ("pocock_like", (0.2, 0.4, 0.6, 0.8, 1.0)),
        ("cubic_min", (1e-5, 0.5, 1.0)),  # the first stage spends within rounding of nothing
        ("power_family", (0.1, 0.1001, 1.0)),
    ])
    def test_boundaries_are_update_monitoring_at_unit_i_max(self, kind, fractions):
        f = SpendingFunction(kind, rho=2.0 if kind == "power_family" else None)
        sched = boundaries(f, fractions)
        state = MonitoringState(design=DesignConfig(spending=f, planned_fractions=fractions, i_max=1.0))
        for k, fraction in enumerate(fractions):
            state = update_monitoring(state, k + 1.0, 0.0, fraction)
        assert tuple(a.critical_value for a in state.analyses) == sched.critical_values
        assert tuple(a.cumulative_spend for a in state.analyses) == sched.cumulative_spend
        if kind == "cubic_min":
            assert sched.critical_values[0] == math.inf
