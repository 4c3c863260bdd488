"""Adjusted survival curves, restricted means, and the closed-form variance."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import monotone_records, sim_snapshot, toy_snapshot
from hypothesis import given, settings
from hypothesis import strategies as st

from rmstgst.adjusted_rmst import AnalysisResult, adjusted_survival, analyze, rmst, variance
from rmstgst.errors import EstimationError, InsufficientEventsError
from rmstgst.sim_engine import SimScenario, true_delta
from rmstgst.stratified_cox import fit
from rmstgst.trial_data import snapshot, snapshot_from_arrays


def arrays_snapshot(time, event, arm, z, u=10.0, tau=2.0):
    time = np.asarray(time, dtype=float)
    n = time.size
    z = np.asarray(z, dtype=float).reshape(n, -1)
    return snapshot_from_arrays(
        np.zeros(n), time, np.asarray(event), np.asarray(arm), z, u=u, tau=tau,
    )


def naive_everything(snap, beta):
    """Literal per-definition recomputation of every estimator piece.

    Slow loops on purpose: no shared code with the implementation
    beyond the fitted coefficients passed in.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    t_max = min(snap.u, snap.tau)
    tau = snap.tau
    arm = np.asarray(snap.arm)
    time = np.asarray(snap.time)
    event = np.asarray(snap.event)
    z = np.asarray(snap.z)
    n = time.size
    w_all = np.exp(z @ beta)

    out = {}
    psi = {}
    mu_cond = {0: None, 1: None}
    for i in (0, 1):
        mask = arm == i
        t_i = time[mask]
        d_i = event[mask].astype(bool)
        z_i = z[mask]
        n_i = t_i.size
        ev = np.unique(t_i[d_i & (t_i <= t_max)])
        ev = ev[ev <= tau]
        r = ev.size

        def s0_s1(s):
            at = t_i >= s
            wr = np.exp(z_i[at] @ beta)
            return float(wr.sum()) / n_i, (wr[:, None] * z_i[at]).sum(axis=0) / n_i

        lam = np.zeros(r)
        gamma = np.zeros(r)
        q = np.zeros((r, beta.size))
        running_lam = 0.0
        running_gamma = 0.0
        running_q = np.zeros(beta.size)
        for j, s in enumerate(ev):
            d_s = int(np.sum((t_i == s) & d_i))
            s0, s1 = s0_s1(s)
            running_lam += d_s / (n_i * s0)
            running_gamma += d_s / (n_i * s0**2)
            running_q += d_s * s1 / (n_i * s0**2)
            lam[j] = running_lam
            gamma[j] = running_gamma
            q[j] = running_q

        surv_marginal = np.array([np.mean(np.exp(-w_all * v)) for v in lam])
        c1 = np.array([np.mean(np.exp(-w_all * v) * w_all) for v in lam])
        c2 = np.array(
            [(np.exp(-w_all * v) * w_all)[:, None] * z for v in lam]
        ).sum(axis=1) / n if r else np.zeros((0, beta.size))

        if r and ev[-1] >= tau:
            grid = np.concatenate(([0.0], ev))
            values = np.concatenate(([1.0], surv_marginal))
        else:
            grid = np.concatenate(([0.0], ev, [tau]))
            tail_height = surv_marginal[-1:] if r else [1.0]
            values = np.concatenate(([1.0], surv_marginal, tail_height))
        mu = float(values[:-1] @ np.diff(grid))

        psi_i = np.zeros(beta.size)
        b1 = 0.0
        if r:
            dt = np.diff(np.concatenate((ev, [tau]))) if ev[-1] < tau else np.concatenate((np.diff(ev), [0.0]))
            for j in range(r):
                psi_i += (c1[j] * q[j] - lam[j] * c2[j]) * dt[j]
                for k in range(r):
                    b1 += c1[j] * c1[k] * gamma[min(j, k)] * dt[j] * dt[k]
            b1 *= n / n_i
        psi[i] = psi_i

        cond = np.exp(-np.outer(w_all, lam))
        if r:
            mu_cond[i] = ev[0] + cond @ (np.diff(np.concatenate((ev, [tau]))) if ev[-1] < tau else np.concatenate((np.diff(ev), [0.0])))
        else:
            mu_cond[i] = np.full(n, tau)
        out[i] = {"grid": grid, "values": values, "mu": mu, "b1": b1,
                  "c1": c1, "gamma": gamma, "q": q, "lam": lam}

    delta = out[1]["mu"] - out[0]["mu"]
    cond_diff = mu_cond[1] - mu_cond[0]
    out["var_cond"] = float(np.mean((cond_diff - np.mean(cond_diff)) ** 2))
    out["psi_diff"] = psi[1] - psi[0]
    out["delta"] = delta
    return out


class TestAdjustedSurvival:
    def test_p_zero_exponentiated_nelson_aalen(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.5, 2.0, 0.7, 1.2], [1, 1, 0, 1, 1, 0],
            [0, 0, 0, 0, 1, 1], [[]] * 6,
        )
        fitted = fit(snap)
        adj0 = adjusted_survival(fitted, snap, 0)
        na = fitted.baseline(0)
        for t, s in zip(adj0.grid, adj0.values):
            assert s == pytest.approx(math.exp(-na(t)), rel=1e-12)

    def test_no_events_arm_flat_one(self):
        snap = arrays_snapshot(
            [0.5, 1.5, 1.0, 2.0], [1, 1, 0, 0], [0, 0, 1, 1], [0.2, -0.1, 0.4, 0.3],
        )
        fitted = fit(snap)
        adj1 = adjusted_survival(fitted, snap, 1)
        assert np.all(np.asarray(adj1.values) == 1.0)
        assert rmst(adj1) == pytest.approx(snap.tau)

    def test_double_sum_average_oracle(self):
        snap = toy_snapshot(u=5.0, tau=2.0)
        fitted = fit(snap)
        ref = naive_everything(snap, fitted.beta)
        for arm in (0, 1):
            adj = adjusted_survival(fitted, snap, arm)
            np.testing.assert_allclose(adj.grid, ref[arm]["grid"], atol=1e-12)
            np.testing.assert_allclose(adj.values, ref[arm]["values"], rtol=1e-12)

    def test_values_monotone_in_unit_interval(self):
        snap = toy_snapshot()
        fitted = fit(snap)
        for arm in (0, 1):
            vals = np.asarray(adjusted_survival(fitted, snap, arm).values)
            assert vals[0] == 1.0
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.all(np.diff(vals) <= 1e-15)


class TestRmst:
    def test_single_event_two_rectangles(self):
        snap = arrays_snapshot([1.0, 3.0], [1, 0], [0, 0], [[]] * 2, tau=2.0)
        fitted = fit(snap)
        adj = adjusted_survival(fitted, snap, 0)
        s = math.exp(-0.5)
        assert adj.values[1] == pytest.approx(s)
        assert rmst(adj) == pytest.approx(1.0 + s * (2.0 - 1.0), rel=1e-12)

    def test_dense_grid_integration_oracle(self):
        snap = toy_snapshot(u=5.0, tau=2.0)
        fitted = fit(snap)
        for arm in (0, 1):
            adj = adjusted_survival(fitted, snap, arm)
            grid = np.asarray(adj.grid)
            values = np.asarray(adj.values)
            edges = np.union1d(np.linspace(0.0, snap.tau, 100_001), grid)
            idx = np.searchsorted(grid, edges[:-1], side="right") - 1
            heights = values[idx]
            dense = float(heights @ np.diff(edges))
            assert rmst(adj) == pytest.approx(dense, abs=1e-9)


class TestVariance:
    def test_all_pieces_match_literal_recomputation(self):
        snap = toy_snapshot(u=5.0, tau=2.0)
        fitted = fit(snap)
        adj0 = adjusted_survival(fitted, snap, 0)
        adj1 = adjusted_survival(fitted, snap, 1)
        comp = variance(fitted, snap, adj0, adj1)
        ref = naive_everything(snap, fitted.beta)
        assert comp.b10 == pytest.approx(ref[0]["b1"], rel=1e-10)
        assert comp.b11 == pytest.approx(ref[1]["b1"], rel=1e-10)
        psi_diff = ref["psi_diff"]
        b3 = snap.n * float(psi_diff @ np.linalg.solve(np.asarray(fitted.info), psi_diff))
        assert comp.b3 == pytest.approx(b3, rel=1e-10)
        assert comp.var_cond == pytest.approx(ref["var_cond"], rel=1e-10)
        assert comp.v_xi2 == pytest.approx(comp.b10 + comp.b11 + comp.b3, rel=1e-12)
        assert comp.v_eta2 == pytest.approx(comp.v_xi2 + comp.var_cond, rel=1e-12)
        for arm in (0, 1):
            detail = comp.arm0 if arm == 0 else comp.arm1
            np.testing.assert_allclose(detail.c1, ref[arm]["c1"], rtol=1e-10)
            np.testing.assert_allclose(detail.gamma, ref[arm]["gamma"], rtol=1e-10)
            np.testing.assert_allclose(detail.q, ref[arm]["q"], rtol=1e-10)

    def test_simulated_dataset_matches_literal_recomputation(self):
        scn = SimScenario(
            n_per_arm=40, shape_offset=-0.3, covariate_strength=math.log(1.5),
            covariates="bernoulli2",
        )
        snap = sim_snapshot(scn, seed=3, u=2.4)
        fitted = fit(snap)
        adj0 = adjusted_survival(fitted, snap, 0)
        adj1 = adjusted_survival(fitted, snap, 1)
        comp = variance(fitted, snap, adj0, adj1)
        ref = naive_everything(snap, fitted.beta)
        assert comp.b10 == pytest.approx(ref[0]["b1"], rel=1e-9)
        assert comp.b11 == pytest.approx(ref[1]["b1"], rel=1e-9)
        assert comp.var_cond == pytest.approx(ref["var_cond"], rel=1e-9)
        assert rmst(adj1) - rmst(adj0) == pytest.approx(ref["delta"], abs=1e-12)

    def test_no_covariates_var_cond_zero(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.5, 0.7, 1.2, 2.0], [1, 1, 0, 1, 1, 0],
            [0, 0, 0, 1, 1, 1], [[]] * 6,
        )
        fitted = fit(snap)
        comp = variance(
            fitted, snap, adjusted_survival(fitted, snap, 0), adjusted_survival(fitted, snap, 1)
        )
        assert comp.var_cond == 0.0
        assert comp.b3 == 0.0
        assert comp.v_eta2 == comp.v_xi2 > 0.0

    def test_components_serialization_shape(self):
        snap = toy_snapshot()
        result = analyze(snap)
        payload = result.to_dict()
        assert set(payload["components"]) == {"B10", "B11", "B3", "var_cond"}
        for key in ("u", "tau", "mu0", "mu1", "delta", "se", "z", "info"):
            assert key in payload


class TestAnalyze:
    def test_identical_arms_zero_statistic(self):
        time = [0.5, 1.0, 1.5, 2.5]
        event = [1, 1, 0, 1]
        z = [0.2, -0.4, 1.0, 0.3]
        snap = arrays_snapshot(time * 2, event * 2, [0] * 4 + [1] * 4, z * 2)
        result = analyze(snap)
        assert result.delta == pytest.approx(0.0, abs=1e-14)
        assert result.z == pytest.approx(0.0, abs=1e-12)
        assert result.se > 0.0

    def test_insufficient_events(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.2, 2.0], [1, 1, 0, 0], [0, 0, 1, 1], [0.1, -0.2, 0.4, 0.0],
        )
        with pytest.raises(InsufficientEventsError, match="arm 1"):
            analyze(snap)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_monotone_likelihood_raises_instead_of_nan(self):
        snap = snapshot(monotone_records(), u=0.2, tau=1.0)
        with pytest.raises(EstimationError, match="must be finite"):
            analyze(snap)

    @pytest.mark.parametrize("delta, info", [
        (math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan), (0.1, math.inf), (0.1, 0.0), (0.1, -2.0),
    ])
    def test_result_rejects_non_finite(self, delta, info):
        with pytest.raises(EstimationError):
            AnalysisResult(method="km", u=1.0, tau=1.0, delta=delta, info_level=info)

    def test_scaling_relations(self):
        snap = toy_snapshot()
        result = analyze(snap)
        assert result.se == pytest.approx(
            math.sqrt(result.components.v_eta2 / snap.n), rel=1e-12
        )
        assert result.z == pytest.approx(result.delta / result.se, rel=1e-12)
        assert result.info_level == pytest.approx(snap.n / result.components.v_eta2, rel=1e-12)

    def test_unbiased_at_trial_end(self):
        scn = SimScenario(
            n_per_arm=100, shape_offset=0.0, log_rate_ratio=-0.35,
            covariate_strength=math.log(1.5), covariates="normal1",
        )
        truth = true_delta(scn)
        reps = 400
        estimates = np.empty(reps)
        for rep in range(reps):
            snap = sim_snapshot(scn, seed=1000 + rep)
            estimates[rep] = analyze(snap).delta
        se = estimates.std(ddof=1) / math.sqrt(reps)
        assert abs(estimates.mean() - truth) < 3 * se

    def test_sampling_variance_halves_as_n_doubles(self):
        reps = 300
        deltas = {}
        for n in (100, 200):
            scn = SimScenario(
                n_per_arm=n, shape_offset=-0.3, covariate_strength=math.log(1.5),
            )
            scn = replace(scn, log_rate_ratio=0.0)
            vals = np.empty(reps)
            for rep in range(reps):
                vals[rep] = analyze(sim_snapshot(scn, seed=5000 + rep)).delta
            deltas[n] = vals.var(ddof=1)
        ratio = deltas[100] / deltas[200]
        assert 1.4 < ratio < 2.9

    def test_closed_form_tracks_bootstrap_on_frozen_dataset(self):
        scn = SimScenario(
            n_per_arm=200, shape_offset=0.0, covariate_strength=math.log(1.5),
        )
        snap = sim_snapshot(scn, seed=77)
        result = analyze(snap)
        rng = np.random.default_rng(123)
        arm = np.asarray(snap.arm)
        time = np.asarray(snap.time)
        event = np.asarray(snap.event)
        z = np.asarray(snap.z)
        idx0 = np.flatnonzero(arm == 0)
        idx1 = np.flatnonzero(arm == 1)
        boots = []
        for _ in range(300):
            pick = np.concatenate([
                rng.choice(idx0, idx0.size, replace=True),
                rng.choice(idx1, idx1.size, replace=True),
            ])
            bsnap = snapshot_from_arrays(
                np.zeros(pick.size), time[pick], event[pick], arm[pick], z[pick],
                u=snap.u, tau=snap.tau,
            )
            bfit = fit(bsnap)
            boots.append(
                rmst(adjusted_survival(bfit, bsnap, 1)) - rmst(adjusted_survival(bfit, bsnap, 0))
            )
        ratio = (result.components.v_eta2 / snap.n) / np.var(boots, ddof=1)
        assert 0.6 < ratio < 1.6


svm_seeds = st.integers(0, 10_000)


class TestProperties:
    @given(seed=svm_seeds, n=st.integers(15, 60), censor=st.booleans())
    @settings(max_examples=200)
    def test_ranges_and_variance_ordering(self, seed, n, censor):
        scn = SimScenario(
            n_per_arm=n, shape_offset=-0.3, covariate_strength=math.log(1.5),
            covariates="normal1", censoring="5pct_per_year" if censor else None,
        )
        snap = sim_snapshot(scn, seed=seed)
        try:
            result = analyze(snap)
        except InsufficientEventsError:
            return
        assert 0.0 <= result.mu0 <= snap.tau + 1e-12
        assert 0.0 <= result.mu1 <= snap.tau + 1e-12
        assert abs(result.delta) <= snap.tau + 1e-12
        comp = result.components
        assert comp.v_xi2 >= 0.0
        assert comp.v_eta2 >= comp.v_xi2
        assert comp.b10 >= 0.0 and comp.b11 >= 0.0 and comp.b3 >= -1e-12
        assert result.se > 0.0 and math.isfinite(result.z)
