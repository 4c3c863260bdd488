"""Scenario generator, truth functionals, calibration, and study loop tests."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import sim_snapshot
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm

from rmstgst import sim_engine
from rmstgst.adjusted_rmst import analyze
from rmstgst.errors import ConfigError, DataError, EstimationError, InsufficientEventsError
from rmstgst.gs_design import SpendingFunction
from rmstgst.km_rmst import km_rmst_test
from rmstgst.sim_engine import (
    METHODS,
    InformationCalibration,
    SimScenario,
    average_hazard_ratio,
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
    _atom_rates,
    _covariate_atoms,
    _fixed_test_power,
    _rng_for_replicate,
)
from rmstgst.trial_data import snapshot, snapshot_from_arrays

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


def _event_weight(scn, t):
    """Arm-averaged event density at time ``t``, covariates mixed out, thinned by censoring."""
    atoms, weights = _covariate_atoms(scn.covariates)
    dens = 0.0
    for arm in (0, 1):
        shape, rates = scn.arm_shape(arm), _atom_rates(scn, arm, atoms)
        dens += float((rates * shape * t ** (shape - 1.0) * np.exp(-rates * t**shape)) @ weights)
    return 0.5 * dens * math.exp(-scn.censoring_rate * t)


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


def _oracle_ahr(scn, power=1):
    num = _quad(lambda t: _event_weight(scn, t) * float(hazard_ratio(scn, t)), scn.tau, power)
    return num / _quad(lambda t: _event_weight(scn, t), scn.tau, power)


@pytest.fixture(scope="module")
def small_scn():
    return SimScenario(
        n_per_arm=50, shape_offset=-0.3, covariate_strength=math.log(1.5),
        fractions=(0.5, 1.0),
    )


@pytest.fixture(scope="module")
def small_calib(small_scn):
    return calibrate_information(small_scn, reps=120, master_seed=7, grid_step=0.5)


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
        assert average_hazard_ratio(scn) == pytest.approx(_oracle_ahr(scn), rel=1e-10)

    @pytest.mark.parametrize("scn", LOW_SHAPE_SCENARIOS)
    def test_graded_rule_below_shape_one(self, scn):
        """Against the refined rule, since plain adaptive quadrature degrades below shape 1.

        The event density t**(shape - 1) is singular at 0, and the rule's
        t = tau * s**4 leaves s**(4 * shape - 1) in the average hazard
        ratio: it keeps about 1e-9 on these scenarios, the restricted mean
        about 1e-15.
        """
        for arm in (0, 1):
            assert true_rmst(scn, arm) == pytest.approx(_oracle_rmst(scn, arm, power=16), rel=1e-10)
        assert average_hazard_ratio(scn) == pytest.approx(_oracle_ahr(scn, power=16), rel=1e-8)

    def test_true_rmst_to_another_horizon(self):
        scn = SimScenario(shape_offset=-0.3, covariate_strength=LOG15)
        longer = replace(scn, tau=2.5)
        assert true_rmst(scn, 1, tau=2.5) == pytest.approx(_oracle_rmst(longer, 1), rel=1e-10)

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
        assert average_hazard_ratio(scn) == pytest.approx(math.exp(-0.5), rel=1e-6)

    @pytest.mark.parametrize("offset, finite", [(-0.5, True), (-0.75, False), (-1.0, False)])
    def test_average_hazard_ratio_infinite_where_integral_diverges(self, offset, finite):
        # with shape_base 1.5 the integral diverges once 2*shape1 - shape0 = 1.5 + 2*offset <= 0
        ahr = average_hazard_ratio(SimScenario(shape_base=1.5, shape_offset=offset))
        assert math.isfinite(ahr) == finite
        assert finite or ahr == math.inf

    def test_delayed_effect_crosses_one(self):
        base = SimScenario(shape_offset=-0.3, covariate_strength=math.log(1.5))
        offset = calibrate_null(base)
        scn = replace(base, log_rate_ratio=offset)
        hr = hazard_ratio(scn, np.array([0.1, 1.0]))
        assert hr[0] > 1.0 > hr[1]
        assert np.all(np.diff(hazard_ratio(scn, np.linspace(0.05, 1.0, 40))) < 0)

    def test_curve_table_rows(self):
        scn = SimScenario(shape_offset=-0.3, log_rate_ratio=-0.16)
        rows = curve_table(scn, n_points=50)
        assert len(rows) == 50
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
        assert a == b
        assert a != c

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

    def test_information_calibration_analyzes_each_grid_point_once(self, small_scn, monkeypatch):
        calls = []

        def counted(snap, fits=None):
            calls.extend(snap.u.tolist())
            return analyze(snap, fits)

        monkeypatch.setattr(sim_engine, "analyze", counted)
        calibrate_information(small_scn, reps=100, master_seed=7, grid_step=0.5)
        grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]  # step 0.5 up to the trial end
        assert len(calls) == 100 * len(grid)
        assert {u: calls.count(u) for u in grid} == {u: 100 for u in grid}

    def test_comparator_caps_are_the_solo_trial_end_analyses(self, small_scn, small_calib):
        # km and cox read the grid snapshot's last look, bit for bit a snapshot of the trial end alone
        infos = {"km": [], "cox": []}
        for rep in range(small_calib.reps):
            trial = draw_trial(small_scn, _rng_for_replicate(small_calib.master_seed, rep))
            snap = snapshot(trial, u=small_scn.total_duration, tau=small_scn.tau)
            for method, test in (("km", km_rmst_test), ("cox", cox_hr_test)):
                try:
                    infos[method].append(test(snap).info_level)
                except (DataError, EstimationError):
                    infos[method].append(np.nan)
        for method, values in infos.items():
            assert small_calib.i_max_by_method[method] == float(np.nanmean(values))

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
            res = run(snap, 0)(0)
            assert res.method == name
            assert math.isfinite(res.z)
            assert res.info_level > 0
            assert res.u == snap.u[0] and res.tau == snap.tau

    def test_cox_recovers_proportional_log_hazard_ratio(self):
        scn = SimScenario(
            n_per_arm=3000, shape_offset=0.0, log_rate_ratio=-0.4,
            covariate_strength=0.3, censoring=None,
        )
        res = cox_hr_test(sim_snapshot(scn, seed=4))
        assert abs(res.delta - (-0.4)) < 3 * res.se
        assert res.info_level == pytest.approx(1.0 / res.se**2, rel=1e-10)

    def test_cox_needs_events_in_both_arms(self):
        snap = snapshot_from_arrays(
            np.zeros(4), np.array([0.5, 1.0, 0.8, 0.9]), np.array([1, 1, 0, 0]),
            np.array([0, 0, 1, 1]), np.zeros((4, 1)), u=5.0, tau=2.0,
        )
        with pytest.raises(InsufficientEventsError):
            cox_hr_test(snap)

    def test_unknown_method_rejected(self, small_scn, small_calib):
        spending = SpendingFunction("cubic_min")
        with pytest.raises(ConfigError, match=r"unknown method 'bayes'; choose from \('adjusted', 'km', 'cox'\)"):
            run_study(small_scn, spending, small_calib, reps=5, methods=("bayes",))


class TestRunStudy:
    def test_deterministic_across_thread_counts(self, small_scn, small_calib):
        spending = SpendingFunction("cubic_min")
        kwargs = dict(reps=36, methods=("adjusted", "km"), master_seed=13)
        serial = run_study(small_scn, spending, small_calib, threads=1, **kwargs)
        threaded = run_study(small_scn, spending, small_calib, threads=2, **kwargs)
        assert serial.cumulative_rejection == threaded.cumulative_rejection
        for m in kwargs["methods"]:
            np.testing.assert_array_equal(
                serial.first_rejection_stage[m], threaded.first_rejection_stage[m]
            )

    def test_monotone_rejection_and_rows(self, small_scn, small_calib):
        spending = SpendingFunction("cubic_min")
        oc = run_study(
            small_scn, spending, small_calib, reps=40,
            methods=("adjusted",), master_seed=3, collect_estimates=True,
        )
        rej = oc.cumulative_rejection["adjusted"]
        assert all(b >= a for a, b in zip(rej, rej[1:]))
        assert all(0.0 <= r <= 1.0 for r in rej)
        rows = oc.to_rows()
        assert len(rows) == len(oc.analysis_times)
        assert {"method", "stage", "cumulative_rejection", "mc_se"} <= set(rows[0])
        assert oc.estimates["adjusted"].shape == (40, len(oc.analysis_times))
        assert oc.info_levels["adjusted"].shape == (40, len(oc.analysis_times))

    def test_large_effect_rejects_almost_always(self, small_scn, small_calib):
        spending = SpendingFunction("cubic_min")
        strong = replace(small_scn, log_rate_ratio=-2.0)
        oc = run_study(strong, spending, small_calib, reps=30, master_seed=1)
        assert oc.cumulative_rejection["adjusted"][-1] > 0.85

    def test_missing_method_cap_rejected(self, small_scn, small_calib):
        spending = SpendingFunction("cubic_min")
        capless = replace(
            small_calib,
            i_max_by_method={"adjusted": small_calib.i_max},
        )
        with pytest.raises(ConfigError, match="information cap"):
            run_study(small_scn, spending, capless, reps=5, methods=("km",))
