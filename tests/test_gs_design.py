"""Error-spending boundaries and monitoring state machine tests."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import norm

from rmstgst import gs_design
from rmstgst.errors import ConfigError, StateError
from rmstgst.gs_design import (
    DesignConfig,
    MonitoringState,
    SpendingFunction,
    boundaries,
    update_monitoring,
)

ALPHA = 0.05


def crossing_probabilities(fractions, criticals, sided="two_sided"):
    """Per-stage null crossing probabilities on a fixed boundary, by the recursion's density steps."""
    probs, stage = [], gs_design._Stages.first(1)
    for fraction, c in zip(fractions, map(float, criticals)):
        start, _ = gs_design._density_after(stage, sided, [fraction])
        probs.append(gs_design._crossing(start, np.array([c]), sided)[0][0])
        stage = start._replace(critical=np.array([c]), spent=start.spent + probs[-1])
    return np.asarray(probs)


def make_spending(kind, alpha=ALPHA, sided="two_sided"):
    rho = 3.0 if kind == "power_family" else None
    return SpendingFunction(kind=kind, alpha=alpha, rho=rho, sided=sided)


def mc_first_crossing(fractions, criticals, sided, reps=1_000_000, seed=2024):
    """Direct simulation of the sequential z statistics under the null."""
    rng = np.random.default_rng(seed)
    fr = np.asarray(fractions, dtype=float)
    inc_sd = np.sqrt(np.diff(np.concatenate(([0.0], fr))))
    counts = np.zeros(fr.size)
    done = 0
    while done < reps:
        m = min(200_000, reps - done)
        score = np.cumsum(rng.standard_normal((m, fr.size)) * inc_sd, axis=1)
        z = score / np.sqrt(fr)
        alive = np.ones(m, dtype=bool)
        for k, c in enumerate(criticals):
            stat = np.abs(z[:, k]) if sided == "two_sided" else z[:, k]
            hit = alive & (stat >= c)
            counts[k] += int(hit.sum())
            alive &= ~hit
        done += m
    return counts / reps


class TestSpendingFunction:
    def test_cubic_min_values(self):
        f = make_spending("cubic_min")
        assert f(0.5) == pytest.approx(ALPHA / 8, rel=1e-12)
        assert f(0.75) == pytest.approx(ALPHA * 0.421875, rel=1e-12)
        assert f(1.0) == pytest.approx(ALPHA)
        assert f(1.7) == pytest.approx(ALPHA)

    def test_power_family_matches_cubic_at_rho_three(self):
        cubic = make_spending("cubic_min")
        power = SpendingFunction("power_family", alpha=ALPHA, rho=3.0)
        for f in (0.1, 0.4, 0.9, 1.0):
            assert power(f) == pytest.approx(cubic(f), rel=1e-12)

    def test_obrien_fleming_like_values(self):
        f = make_spending("obrien_fleming_like")
        z_half = norm.isf(ALPHA / 2)
        assert f(0.5) == pytest.approx(2 - 2 * norm.cdf(z_half / math.sqrt(0.5)), rel=1e-12)
        assert f(1.0) == pytest.approx(ALPHA, abs=1e-12)

    def test_pocock_like_values(self):
        f = make_spending("pocock_like")
        assert f(1.0) == pytest.approx(ALPHA, rel=1e-12)
        assert f(0.5) == pytest.approx(ALPHA * math.log1p((math.e - 1) / 2), rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(kind="linear"), "unknown spending kind"),
            (dict(kind="cubic_min", alpha=0.0), "alpha"),
            (dict(kind="cubic_min", alpha=1.5), "alpha"),
            (dict(kind="power_family"), "rho"),
            (dict(kind="power_family", rho=-1.0), "rho"),
            (dict(kind="power_family", rho=math.inf), r"^power_family spending needs 0 < rho < inf, got inf$"),
            (dict(kind="power_family", rho=math.nan), r"^power_family spending needs 0 < rho < inf, got nan$"),
            (dict(kind="cubic_min", rho=2.0), "rho"),
            (dict(kind="cubic_min", sided="both"), "sidedness"),
        ],
    )
    def test_invalid_configurations(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            SpendingFunction(**kwargs)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ConfigError, match="fraction"):
            make_spending("cubic_min")(-0.2)

    @pytest.mark.parametrize("kind", ["cubic_min", "power_family", "obrien_fleming_like", "pocock_like"])
    @given(f1=st.floats(0.0, 1.3), f2=st.floats(0.0, 1.3))
    @settings(max_examples=200)
    def test_monotone_and_bounded(self, kind, f1, f2):
        f = make_spending(kind)
        lo, hi = sorted((f1, f2))
        s_lo, s_hi = f(lo), f(hi)
        assert 0.0 <= s_lo <= s_hi <= ALPHA + 1e-12
        assert f(0.0) == 0.0
        assert f(1.0) == pytest.approx(ALPHA, abs=1e-12)


class TestBoundaries:
    def test_single_stage_matches_fixed_test(self):
        sched = boundaries(make_spending("cubic_min"), (1.0,))
        assert sched.critical_values[0] == pytest.approx(1.9599639845400545, abs=1e-10)
        assert sched.cumulative_spend[0] == pytest.approx(ALPHA, abs=1e-10)

    def test_single_stage_one_sided(self):
        sched = boundaries(make_spending("cubic_min", sided="one_sided"), (1.0,))
        assert sched.critical_values[0] == pytest.approx(norm.isf(ALPHA), abs=1e-10)

    def test_obf_like_first_stage_closed_form(self):
        sched = boundaries(make_spending("obrien_fleming_like"), (0.5, 1.0))
        assert sched.critical_values[0] == pytest.approx(
            norm.isf(ALPHA / 2) / math.sqrt(0.5), abs=1e-9
        )

    def test_obf_like_two_stage_reference_values(self):
        sched = boundaries(make_spending("obrien_fleming_like"), (0.5, 1.0))
        np.testing.assert_allclose(sched.critical_values, (2.771807648699349, 1.9793113426785223), rtol=1e-9)
        np.testing.assert_allclose(sched.cumulative_spend, (0.005574596680784529, 0.050000000000000044), rtol=1e-9)

    def test_three_stage_cubic_reference_values(self):
        sched = boundaries(make_spending("cubic_min"), (0.5, 0.75, 1.0))
        np.testing.assert_allclose(
            sched.critical_values, (2.734369, 2.356815, 2.028525), atol=5e-6
        )
        assert all(a > b for a, b in zip(sched.critical_values, sched.critical_values[1:]))

    def test_crossing_probabilities_recover_spend(self):
        for kind in ("cubic_min", "pocock_like", "obrien_fleming_like"):
            f = make_spending(kind)
            fr = (0.3, 0.6, 1.0)
            sched = boundaries(f, fr)
            probs = crossing_probabilities(fr, sched.critical_values)
            np.testing.assert_allclose(np.cumsum(probs), [f(x) for x in fr], atol=1e-9)
            np.testing.assert_allclose(np.cumsum(probs), sched.cumulative_spend, atol=1e-12)

    def test_boundary_mc_first_crossing(self):
        fr = (0.5, 0.75, 1.0)
        sched = boundaries(make_spending("cubic_min"), fr)
        reps = 1_000_000
        observed = mc_first_crossing(fr, sched.critical_values, "two_sided", reps=reps)
        expected = np.diff(np.concatenate(([0.0], sched.cumulative_spend)))
        for obs, exp in zip(observed, expected):
            se = math.sqrt(exp * (1 - exp) / reps)
            assert abs(obs - exp) < 3.5 * se

    def test_one_sided_mc_first_crossing(self):
        fr = (0.4, 1.0)
        sched = boundaries(make_spending("pocock_like", sided="one_sided"), fr)
        reps = 600_000
        observed = mc_first_crossing(fr, sched.critical_values, "one_sided", reps=reps)
        expected = np.diff(np.concatenate(([0.0], sched.cumulative_spend)))
        for obs, exp in zip(observed, expected):
            se = math.sqrt(exp * (1 - exp) / reps)
            assert abs(obs - exp) < 3.5 * se

    @pytest.mark.parametrize("fractions", [(0.2, 0.4, 0.6, 0.8, 1.0), (0.35, 0.7, 1.0)])
    @pytest.mark.parametrize("sided", ["one_sided", "two_sided"])
    @pytest.mark.parametrize("kind", ["cubic_min", "power_family", "obrien_fleming_like", "pocock_like"])
    def test_solver_matches_brentq_oracle(self, kind, sided, fractions):
        """Each stage re-solved by Brent's method on the public crossing probabilities."""
        f = make_spending(kind, sided=sided)
        sched = boundaries(f, fractions)
        oracle: list[float] = []
        for k, fraction in enumerate(fractions):
            def gap(c):
                probs = crossing_probabilities(fractions[: k + 1], oracle + [c], sided)
                return probs.sum() - f(fraction)

            oracle.append(brentq(gap, 0.0, 40.0, xtol=1e-14, rtol=4 * np.finfo(float).eps))
        np.testing.assert_allclose(sched.critical_values, oracle, rtol=1e-10)
        spends = np.cumsum(crossing_probabilities(fractions, oracle, sided))
        np.testing.assert_allclose(sched.cumulative_spend, spends, rtol=1e-10)
        recovered = np.cumsum(crossing_probabilities(fractions, sched.critical_values, sided))
        np.testing.assert_allclose(recovered, [f(x) for x in fractions], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "fractions", [(), (0.0, 0.5), (0.5, 0.5), (0.8, 0.4), (0.5, 1.2), (-0.1,)],
    )
    def test_bad_fraction_schedules(self, fractions):
        with pytest.raises(ConfigError):
            boundaries(make_spending("cubic_min"), fractions)

    def test_infinite_criticals_never_cross(self):
        probs = crossing_probabilities((0.5, 1.0), (math.inf, math.inf))
        np.testing.assert_array_equal(probs, [0.0, 0.0])

    def test_zero_critical_crosses_immediately(self):
        probs = crossing_probabilities((0.5, 1.0), (0.0, 1.0))
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0, abs=1e-12)

    @given(
        gaps=st.lists(st.floats(0.1, 0.45), min_size=1, max_size=4),
        kind=st.sampled_from(["cubic_min", "pocock_like"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_schedule_properties(self, gaps, kind):
        raw = np.cumsum(gaps)
        fr = tuple(raw / raw[-1]) if raw[-1] > 1.0 else tuple(raw)
        sched = boundaries(make_spending(kind), fr)
        spent = sched.cumulative_spend
        assert all(b >= a - 1e-12 for a, b in zip(spent, spent[1:]))
        assert spent[-1] <= ALPHA + 1e-9
        for c in sched.critical_values:
            assert c > 0.0
        probs = crossing_probabilities(fr, sched.critical_values)
        np.testing.assert_allclose(np.cumsum(probs), spent, atol=5e-9)


CLOSE_LOOKS = [
    (0.5, 0.51, 1.0),
    (0.3, 0.305, 0.9, 0.901, 1.0),
    (0.1, 0.1001, 1.0),
    (0.274, 0.354, 0.5311, 0.5317, 1.0),
]


class TestDensityGrid:
    """The density grid is sized to the information increments around each stage."""

    @pytest.mark.parametrize(
        "sided, final", [("two_sided", 1.959963986935), ("one_sided", 1.644853629013)],
    )
    def test_close_looks_match_fine_grid_oracle(self, sided, final):
        """The oracle is a 3 001-node Gauss-Legendre grid over each continuation region."""
        sched = boundaries(make_spending("obrien_fleming_like", sided=sided), (0.1, 0.1001, 1.0))
        assert sched.critical_values[-1] == pytest.approx(final, rel=1e-10)

    @pytest.mark.parametrize("fractions", CLOSE_LOOKS)
    @pytest.mark.parametrize("sided", ["one_sided", "two_sided"])
    def test_close_looks_converged_in_panel_width(self, fractions, sided, monkeypatch):
        f = make_spending("obrien_fleming_like", sided=sided)
        sched = boundaries(f, fractions)
        monkeypatch.setattr(gs_design, "_PANEL_SDS", gs_design._PANEL_SDS / 4)
        monkeypatch.setattr(gs_design, "MAX_NODES", 4 * gs_design.MAX_NODES)
        fine = boundaries(f, fractions)
        np.testing.assert_allclose(sched.critical_values, fine.critical_values, rtol=1e-10)
        np.testing.assert_allclose(sched.cumulative_spend, fine.cumulative_spend, rtol=1e-10)

    def test_stage_past_node_cap_is_config_error(self):
        with pytest.raises(ConfigError, match=r"0\.1 and 0\.1000001 are too close.*4000-node"):
            boundaries(make_spending("obrien_fleming_like"), (0.1, 0.1000001, 1.0))
        state = update_monitoring(fresh_state(), 1.0, 0.0, 10.0)
        with pytest.raises(ConfigError, match="too close"):
            update_monitoring(state, 2.0, 0.0, 10.00001)


SCALAR_FOLD = json.loads((Path(__file__).parent / "data" / "scalar_fold_tiny_sim.json").read_text())


def stacked_fold(fraction, z, spending, together=True):
    """Critical value, cumulative spend and decision of each replicate at each stage (NaN, NaN and None where
    it takes no step), as ``run_study`` monitors them: every replicate still running that has an analysis
    steps at once, each from its own last stage; a NaN fraction is a failed analysis. With ``together``
    false, each replicate steps alone."""
    reps, n = fraction.shape
    critical, spent = np.full((reps, n), np.nan), np.full((reps, n), np.nan)
    decision = np.full((reps, n), None, dtype=object)
    stages, running = gs_design._Stages.first(reps), np.arange(reps)
    for k in range(n):
        rows = running[~np.isnan(fraction[running, k])]
        for batch in [rows] if together else rows[:, None]:
            stepped, decision[batch, k] = gs_design._next_stage(stages.take(batch), spending, fraction[batch, k],
                                                                z[batch, k], final=k == n - 1)
            stages = stages.put(batch, stepped)
            took = (decision[batch, k] == "continue") | (decision[batch, k] == "reject")
            critical[batch[took], k], spent[batch[took], k] = stepped.critical[took], stepped.spent[took]
        running = running[decision[running, k] != "reject"]
    return critical, spent, decision


def as_array(rows):
    return np.array([[math.nan if v is None else v for v in row] for row in rows])


class TestStackedStep:
    """``_next_stage`` steps a batch of replicates at once, each from its own last stage."""

    @pytest.mark.parametrize("kind", sorted(SCALAR_FOLD["spendings"]))
    def test_matches_the_scalar_fold(self, kind):
        """The record holds the per-replicate scalar fold of commit 760e443 on the tiny perfbench scenario's
        replicates at seeds 0-2 (20 each, the power effect, every method), one-sided."""
        spending = SpendingFunction.from_dict(SCALAR_FOLD["spendings"][kind])
        for case in SCALAR_FOLD["cases"]:
            want = case["monitoring"][kind]
            fraction, z = as_array(case["fraction"]), as_array(case["z"])
            critical, spent, decision = stacked_fold(fraction, z, spending)
            assert decision.tolist() == want["decision"]
            stepped = ~np.isnan(as_array(want["spent"]))
            np.testing.assert_array_equal(~np.isnan(spent), stepped)
            # the record writes an infinite critical value as null, as the state file does
            np.testing.assert_allclose(critical[stepped], np.nan_to_num(as_array(want["critical"]), nan=math.inf)[stepped],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(spent[stepped], as_array(want["spent"])[stepped], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sided", ["one_sided", "two_sided"])
    def test_mixed_batch_is_each_replicate_alone(self, sided):
        nan = math.nan
        fraction = np.array([
            [nan, 0.5, 1.0],  # a failed first look: the second is its first stage
            [0.5, 0.75, 1.0],
            [0.1, 0.1001, 1.0],  # close looks: a grid of hundreds of panels, the rest have five
            [0.5, 0.4, 1.0],  # information falls: the second stage is skipped
            [1e-5, 0.5, 1.0],  # the first stage spends within rounding of nothing: an infinite critical value
            [0.4, 1.0, 1.05],  # full information at stage 2: the final stage's critical value is infinite
            [0.5, 0.500000005, 1.0],  # too close for the grid: the second stage fails
        ])
        z = np.ones_like(fraction)
        spending = make_spending("cubic_min", sided=sided)
        critical, spent, decision = stacked_fold(fraction, z, spending)
        alone = stacked_fold(fraction, z, spending, together=False)
        np.testing.assert_array_equal(critical, alone[0])
        np.testing.assert_array_equal(spent, alone[1])
        assert [[str(d) for d in row] for row in decision] == [[str(d) for d in row] for row in alone[2]]
        for r, schedule in ((0, (0.5, 1.0)), (1, (0.5, 0.75, 1.0)), (2, (0.1, 0.1001, 1.0)), (4, (1e-5, 0.5, 1.0))):
            sched = boundaries(spending, schedule)
            np.testing.assert_allclose(critical[r][-len(schedule):], sched.critical_values, rtol=1e-14)
            np.testing.assert_allclose(spent[r][-len(schedule):], sched.cumulative_spend, rtol=1e-14)
        assert math.isinf(critical[4, 0]) and math.isinf(critical[5, 2])
        assert decision[3, 1] == "skipped" and math.isnan(critical[3, 1]) and spent[3, 2] > spent[3, 0]
        assert isinstance(decision[6, 1], ConfigError) and "too close" in str(decision[6, 1])
        # the failed stage is skipped: the final stage steps from the first
        np.testing.assert_allclose(critical[6, [0, 2]], boundaries(spending, (0.5, 1.0)).critical_values, rtol=1e-14)
        assert decision[:, 0].tolist() == [None, "continue", "continue", "continue", "continue", "continue",
                                           "continue"]

    def test_every_replicate_failing_or_skipped(self):
        spending = make_spending("pocock_like")
        both, _ = gs_design._next_stage(gs_design._Stages.first(2), spending, [0.5, 0.5], [0.0, 0.0])
        stages, decisions = gs_design._next_stage(both, spending, [0.4, 0.500000001], [1.0, 1.0])
        for kept, was in zip(stages, both):  # both replicates keep their stage bit for bit
            np.testing.assert_array_equal(kept, was)
        assert decisions[0] == "skipped" and isinstance(decisions[1], ConfigError)


def fresh_state(i_max=100.0, kind="cubic_min", fractions=(0.5, 0.75, 1.0), sided="two_sided"):
    design = DesignConfig(
        spending=make_spending(kind, sided=sided),
        planned_fractions=fractions,
        i_max=i_max,
    )
    return MonitoringState(design=design)


class TestMonitoring:
    def test_first_stage_exact_tail_inversion(self):
        state = fresh_state()
        state = update_monitoring(state, 1.0, 0.4, 41.2)
        rec = state.analyses[0]
        target = ALPHA * (41.2 / 100.0) ** 3
        assert rec.info_fraction == pytest.approx(0.412)
        assert rec.critical_value == pytest.approx(norm.isf(target / 2), abs=1e-10)
        assert rec.cumulative_spend == pytest.approx(target, abs=1e-12)
        assert rec.decision == "continue"
        assert not state.rejected

    def test_zero_z_never_rejects(self):
        state = fresh_state()
        state = update_monitoring(state, 1.0, 0.0, 99.0)
        assert state.analyses[-1].decision == "continue"

    def test_reject_on_large_z(self):
        state = fresh_state()
        state = update_monitoring(state, 1.0, 5.3, 50.0)
        assert state.analyses[-1].decision == "reject"
        assert state.rejected
        with pytest.raises(StateError, match="already rejected"):
            update_monitoring(state, 2.0, 1.0, 60.0)

    def test_no_analysis_after_the_final(self):
        state = fresh_state(kind="obrien_fleming_like", fractions=(0.5, 1.0))
        state = update_monitoring(state, 1.0, 0.5, 50.0)
        state = update_monitoring(state, 2.0, 0.5, 100.0, final=True)
        assert state.analyses[-1].decision == "continue"
        for final in (False, True):
            with pytest.raises(StateError, match=r"the final analysis \(stage 2, u=2\.0\) is recorded; no further"):
                update_monitoring(state, 3.0, 0.5, 110.0, final=final)

    def test_a_skipped_final_does_not_end_monitoring(self):
        state = fresh_state(kind="obrien_fleming_like", fractions=(0.5, 1.0))
        state = update_monitoring(state, 1.0, 0.5, 50.0)
        state = update_monitoring(state, 2.0, 0.5, 40.0, final=True)  # not past the last fraction: skipped
        assert state.analyses[-1].decision == "skipped"
        state = update_monitoring(state, 3.0, 0.5, 100.0, final=True)
        assert state.analyses[-1].final and state.analyses[-1].decision == "continue"

    def test_respending_reproduces_earlier_criticals(self):
        state = fresh_state()
        state = update_monitoring(state, 1.0, 0.5, 41.2)
        state = update_monitoring(state, 2.0, 1.1, 65.2)
        observed = tuple(a.info_fraction for a in state.analyses)
        sched = boundaries(state.design.spending, observed)
        for rec, c in zip(state.analyses, sched.critical_values):
            assert rec.critical_value == pytest.approx(c, abs=1e-9)

    def test_final_spends_all_alpha(self):
        state = fresh_state()
        state = update_monitoring(state, 1.0, 0.5, 41.2)
        underran = update_monitoring(state, 3.0, 1.0, 80.0, final=True)
        rec = underran.analyses[-1]
        assert rec.final
        assert rec.cumulative_spend == pytest.approx(ALPHA, abs=1e-10)
        not_final = update_monitoring(state, 3.0, 1.0, 80.0)
        assert rec.critical_value < not_final.analyses[-1].critical_value

    @pytest.mark.parametrize("sided", ["two_sided", "one_sided"])
    def test_first_look_declared_final_is_the_fixed_sample_test(self, sided):
        rec = update_monitoring(fresh_state(sided=sided), 1.0, 0.5, 41.2, final=True).analyses[-1]
        assert rec.final
        assert rec.critical_value == pytest.approx(-ndtri(ALPHA / 2 if sided == "two_sided" else ALPHA), abs=1e-9)
        assert rec.cumulative_spend == pytest.approx(ALPHA, abs=1e-10)

    def test_overrun_clamps_spending_but_not_covariance(self):
        state = fresh_state()
        state = update_monitoring(state, 1.0, 0.2, 100.0)
        assert state.analyses[0].cumulative_spend == pytest.approx(ALPHA)
        state = update_monitoring(state, 2.0, 1.0, 109.0)
        rec = state.analyses[-1]
        assert rec.info_fraction == pytest.approx(1.09)
        assert rec.critical_value is not None and math.isinf(rec.critical_value)
        assert rec.decision == "continue"

    def test_skipped_stage_records_and_preserves_spend(self):
        state = fresh_state()
        state = update_monitoring(state, 1.0, 0.5, 50.0)
        state = update_monitoring(state, 2.0, 2.2, 48.0)
        rec = state.analyses[-1]
        assert rec.decision == "skipped"
        assert rec.critical_value is None
        assert rec.cumulative_spend == state.analyses[0].cumulative_spend
        state = update_monitoring(state, 3.0, 0.7, 70.0)
        assert state.analyses[-1].stage == 3
        assert state.analyses[-1].decision == "continue"
        sched = boundaries(state.design.spending, (0.5, 0.7))
        assert state.analyses[-1].critical_value == pytest.approx(sched.critical_values[-1], abs=1e-9)

    def test_stale_analysis_time_rejected(self):
        state = fresh_state()
        state = update_monitoring(state, 1.5, 0.5, 50.0)
        with pytest.raises(StateError, match="non-increasing analysis time"):
            update_monitoring(state, 1.5, 0.6, 60.0)

    def test_monitoring_needs_i_max(self):
        design = DesignConfig(
            spending=make_spending("cubic_min"), planned_fractions=(0.5, 1.0), i_max=None,
        )
        with pytest.raises(ConfigError, match="i_max"):
            update_monitoring(MonitoringState(design=design), 1.0, 0.0, 10.0)

    def test_bad_info_level_rejected(self):
        state = fresh_state()
        for bad in (0.0, -5.0, math.inf, math.nan):
            with pytest.raises(StateError, match="info_level"):
                update_monitoring(state, 1.0, 0.0, bad)

    def test_cumulative_spend_monotone_along_path(self):
        state = fresh_state(kind="pocock_like")
        path = [(1.0, 30.0), (2.0, 55.0), (3.0, 52.0), (4.0, 90.0)]
        for u, info in path:
            state = update_monitoring(state, u, 0.3, info)
        spends = [a.cumulative_spend for a in state.analyses]
        assert all(b >= a - 1e-12 for a, b in zip(spends, spends[1:]))
        final = update_monitoring(state, 5.0, 0.3, 104.0, final=True)
        assert final.analyses[-1].cumulative_spend == pytest.approx(ALPHA, abs=1e-10)

    def test_rounding_residue_of_full_spend_spends_nothing(self):
        """A look past i_max after alpha was spent up to rounding never rejects."""
        state = fresh_state()
        state = update_monitoring(state, 1.0, 0.1, 40.0)
        state = update_monitoring(state, 2.0, 0.1, 101.0)
        payload = state.to_dict()
        payload["analyses"][-1]["cumulative_spend"] = ALPHA - 3e-14
        state = update_monitoring(
            MonitoringState.from_dict(payload), 3.0, 5.0, 110.0,
        )
        rec = state.analyses[-1]
        assert rec.critical_value == math.inf
        assert rec.cumulative_spend == ALPHA - 3e-14
        assert rec.decision == "continue"

    def test_look_after_full_information_gets_infinite_critical(self):
        """Looks after alpha was spent up to rounding get an infinite critical value, whatever the residue."""
        state = fresh_state(fractions=(0.5, 1.0))
        for u, info in enumerate([5.66, 33.15, 42.52, 101.96, 114.19, 117.15], start=1):
            state = MonitoringState.from_dict(json.loads(state.to_json()))
            state = update_monitoring(state, float(u), 0.1, info)
        assert [a.critical_value for a in state.analyses[4:]] == [math.inf, math.inf]
        assert [a.cumulative_spend for a in state.analyses[3:]] == [state.analyses[3].cumulative_spend] * 3
        assert state.analyses[3].cumulative_spend == pytest.approx(ALPHA, rel=1e-12)

    def test_replay_matches_resolved_recursion(self):
        """Replaying recorded boundaries reproduces the values of re-solving every stage.

        The expected values come from the earlier monitor, which re-solved
        all earlier stages' critical values at each look.
        """
        state = fresh_state(kind="pocock_like", fractions=(0.3, 0.6, 1.0), i_max=100.0)
        path = [20.0, 35.0, 33.0, 62.0, 104.0, 110.0, 120.0]
        expected = [
            (2.4379766880500116, 0.01476972645601738, "continue"),
            (2.4854398923824546, 0.02354386986872863, "continue"),
            (None, 0.02354386986872863, "skipped"),
            (2.3613592489922945, 0.03626461559468366, "continue"),
            (2.29664531689612, 0.05000000000000031, "continue"),
            (math.inf, 0.05000000000000031, "continue"),
            (math.inf, 0.05000000000000031, "continue"),
        ]
        for u, info in enumerate(path, start=1):
            state = MonitoringState.from_dict(json.loads(state.to_json()))
            state = update_monitoring(
                state, float(u), 0.1, info, final=(u == len(path)),
            )
        assert [a.decision for a in state.analyses] == [d for _, _, d in expected]
        for record, (critical, spend, _) in zip(state.analyses, expected):
            if critical is None or math.isinf(critical):
                assert record.critical_value == critical
            else:
                assert record.critical_value == pytest.approx(critical, rel=1e-9)
            assert record.cumulative_spend == pytest.approx(spend, rel=1e-9)


class TestSerialization:
    def test_design_without_spending_is_config_error(self):
        payload = DesignConfig(make_spending("cubic_min"), (0.5, 1.0)).to_dict()
        del payload["spending"]
        with pytest.raises(ConfigError, match="missing keys"):
            SpendingFunction.from_dict(payload)

    def test_spending_keys_in_file_order(self):
        spending = make_spending("power_family", sided="one_sided")
        design = DesignConfig(spending=spending, planned_fractions=(0.5, 1.0), i_max=10.0)
        assert list(design.to_dict()) == [
            "schema", "alpha", "sidedness", "spending", "planned_fractions", "i_max",
        ]
        assert design.to_dict()["spending"] == {"kind": "power_family", "rho": 3.0}
        assert SpendingFunction.from_dict(design.to_dict()) == spending

    def test_design_config_round_trip_and_errors(self):
        design = DesignConfig(
            spending=make_spending("power_family"), planned_fractions=(0.25, 1.0), i_max=321.5,
        )
        back = DesignConfig.from_dict(json.loads(json.dumps(design.to_dict())))
        assert back == design
        with pytest.raises(ConfigError, match="schema"):
            DesignConfig.from_dict({"schema": "rmstgst.design/9", "alpha": 0.05})
        with pytest.raises(ConfigError, match="missing keys"):
            DesignConfig.from_dict({"schema": "rmstgst.design/1", "alpha": 0.05})
        with pytest.raises(ConfigError, match="JSON object"):
            DesignConfig.from_dict([1, 2])

    def test_monitoring_state_json_round_trip(self, tmp_path):
        state = fresh_state()
        state = update_monitoring(state, 1.0, 0.5, 41.2)
        state = update_monitoring(state, 2.0, 1.4, 39.0)
        state = update_monitoring(state, 3.0, 1.8, 70.0)
        path = tmp_path / "state.json"
        path.write_text(state.to_json())
        back = MonitoringState.read(path)
        assert back == state
        assert [a.decision for a in back.analyses] == ["continue", "skipped", "continue"]

    def test_monitoring_state_schema_errors(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{nope")
        with pytest.raises(StateError, match="not valid JSON at line 1 column 2"):
            MonitoringState.read(path)
        with pytest.raises(StateError, match="schema"):
            MonitoringState.from_dict({"schema": "rmstgst.state/2", "design": {}, "analyses": []})
        with pytest.raises(StateError, match="malformed monitoring state: design config must be a JSON"):
            MonitoringState.from_dict(
                {"schema": "rmstgst.state/1", "design": None, "analyses": []}
            )
        good_design = fresh_state().design.to_dict()
        with pytest.raises(StateError, match="malformed monitoring state: malformed design config"):
            MonitoringState.from_dict(
                {"schema": "rmstgst.state/1", "design": {**good_design, "alpha": "0.05"}, "analyses": []}
            )
        with pytest.raises(StateError, match="malformed"):
            MonitoringState.from_dict(
                {"schema": "rmstgst.state/1", "design": good_design, "analyses": [{}]}
            )
