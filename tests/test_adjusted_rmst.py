"""Adjusted survival curves, restricted means, and the closed-form variance."""

from __future__ import annotations

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    arm_rows,
    baseline,
    enrolled,
    height,
    monotone_trial,
    sim_snapshot,
    toy_snapshot,
    with_covariates,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from rmstgst import adjusted_rmst, stratified_cox
from rmstgst.adjusted_rmst import Analyses, adjusted_survival, analyze, variance
from rmstgst.errors import DataError, EstimationError, InsufficientEventsError, RmstgstError
from rmstgst.sim_engine import SimScenario, _rng_for_replicate, cox_hr_test, draw_trial, true_rmst
from rmstgst.stratified_cox import CoxFits, fit
from rmstgst.trial_data import Trial, look_sums, snapshot, snapshot_from_arrays

PERFBENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


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
                  "c1": c1, "c2": c2, "gamma": gamma, "q": q, "lam": lam}

    delta = out[1]["mu"] - out[0]["mu"]
    cond_diff = mu_cond[1] - mu_cond[0]
    out["var_cond"] = float(np.mean((cond_diff - np.mean(cond_diff)) ** 2))
    out["mu_cond"] = np.column_stack((mu_cond[0], mu_cond[1]))
    out["cond_diff"] = cond_diff
    out["psi_diff"] = psi[1] - psi[0]
    out["delta"] = delta
    return out


def stacked(snap, k=0):
    """Look k's fits, adjusted survival and variance components from the stacked pass's steps."""
    fits = fit(snap)
    adj = adjusted_survival(snap, fits, [k])
    return fits, adj, variance(snap, fits, adj)


def kernel_means(monkeypatch, snap, fits, looks=(0,)):
    """``adjusted_survival`` at ``looks``, and each look's conditional restricted means (n_k, 2) of both arms from
    the kernel that ran: its own ``cond @ spans`` plus each arm's first event time."""
    means = []
    for name in ("_exact_kernel", "_node_kernel"):
        def recorded(*args, kernel=getattr(adjusted_rmst, name)):
            means.append(kernel(*args))
            return means[-1]

        monkeypatch.setattr(adjusted_rmst, name, recorded)
    adj = adjusted_survival(snap, fits, list(looks))
    firsts = snap.row_widths()[1]
    return adj, [cond_mu + firsts[k] for k, (_, cond_mu) in zip(looks, means, strict=True)]


def curve(snap, adj, k, arm):
    """Look k's adjusted curve of one arm as a step function on [0, tau]: (grid, values)."""
    rows = arm_rows(snap, k, arm)
    grid, values = np.concatenate(([0.0], snap.event_times[rows])), np.concatenate(([1.0], adj.values[rows]))
    if grid[-1] < snap.tau:
        grid, values = np.append(grid, snap.tau), np.append(values, values[-1])
    return grid, values


def outcome(analyses, k):
    """Look k's adjusted result as (delta, info, mu0, mu1, B10, B11, B3, var_cond), or its error class."""
    try:
        r = analyses.report(k)
    except RmstgstError as exc:
        return type(exc)
    return (r["delta"], r["info"], r["mu0"], r["mu1"], *r["components"].values())


def solo(trial, u):
    """The outcome of analyzing a snapshot of the one look ``u`` on its own."""
    try:
        snap = snapshot(trial, u=u, tau=1.0)
    except RmstgstError as exc:
        return type(exc)
    return outcome(analyze(snap), 0)


def blocked_snapshot(p=2, event_at_tau=False, tau=2.0):
    """Arms of 150 and 157 subjects: blocks of 64 rows leave a partial last block.

    Positive covariates with a real effect keep every ``c2`` entry away
    from zero, and a treatment effect keeps the arms' ``psi`` apart, so a
    relative tolerance is meaningful for every compared number. The
    snapshot holds them raw: standardized, they would be centred on 0.
    """
    rng = np.random.default_rng(2024)
    arm = np.repeat([0, 1], [150, 157])
    z = rng.uniform(0.0, 1.0, (arm.size, 2))
    time = rng.exponential(1.0 / np.exp(0.8 * z.sum(axis=1) - 0.7 * arm))
    event = rng.random(arm.size) < 0.8
    if event_at_tau:
        time[0], event[0] = tau, True  # arm 0's last event falls on tau
    return with_covariates(arrays_snapshot(time, event, arm, z[:, :p], tau=tau), z[:, :p])


class TestAdjustedSurvival:
    def test_p_zero_exponentiated_nelson_aalen(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.5, 2.0, 0.7, 1.2], [1, 1, 0, 1, 1, 0],
            [0, 0, 0, 0, 1, 1], [[]] * 6,
        )
        fits, adj, _ = stacked(snap)
        na = baseline(snap, fits, 0, 0)
        for t, s in zip(*curve(snap, adj, 0, 0)):
            assert s == pytest.approx(math.exp(-height(na, t)), rel=1e-12)

    def test_double_sum_average_oracle(self):
        snap = toy_snapshot(u=5.0, tau=2.0)
        fits, adj, _ = stacked(snap)
        ref = naive_everything(enrolled(snap), fits.beta[0])
        for arm in (0, 1):
            grid, values = curve(snap, adj, 0, arm)
            np.testing.assert_allclose(grid, ref[arm]["grid"], atol=1e-12)
            np.testing.assert_allclose(values, ref[arm]["values"], rtol=1e-12)

    def test_values_monotone_in_unit_interval(self):
        snap = toy_snapshot()
        _, adj, _ = stacked(snap)
        for arm in (0, 1):
            vals = curve(snap, adj, 0, arm)[1]
            assert vals[0] == 1.0
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.all(np.diff(vals) <= 1e-15)

    def test_no_events_arm_flat_one(self):
        snap = arrays_snapshot(
            [0.5, 1.5, 1.0, 2.0], [1, 1, 0, 0], [0, 0, 1, 1], [0.2, -0.1, 0.4, 0.3],
        )
        _, adj, _ = stacked(snap)
        assert np.all(curve(snap, adj, 0, 1)[1] == 1.0)
        assert adj.mu[0, 1] == pytest.approx(snap.tau)


class TestRmst:
    def test_single_event_two_rectangles(self):
        snap = arrays_snapshot([1.0, 3.0, 0.5, 2.5], [1, 0, 1, 0], [0, 0, 1, 1], [[]] * 4, tau=2.0)
        _, adj, _ = stacked(snap)
        s = math.exp(-0.5)
        assert curve(snap, adj, 0, 0)[1][1] == pytest.approx(s)
        assert adj.mu[0, 0] == pytest.approx(1.0 + s * (2.0 - 1.0), rel=1e-12)

    def test_dense_grid_integration_oracle(self):
        snap = toy_snapshot(u=5.0, tau=2.0)
        _, adj, _ = stacked(snap)
        for arm in (0, 1):
            grid, values = curve(snap, adj, 0, arm)
            edges = np.union1d(np.linspace(0.0, snap.tau, 100_001), grid)
            idx = np.searchsorted(grid, edges[:-1], side="right") - 1
            heights = values[idx]
            dense = float(heights @ np.diff(edges))
            assert adj.mu[0, arm] == pytest.approx(dense, abs=1e-9)


class TestVariance:
    def test_all_pieces_match_literal_recomputation(self):
        snap = toy_snapshot(u=5.0, tau=2.0)
        fits, adj, comp = stacked(snap)
        look = enrolled(snap)
        ref = naive_everything(look, fits.beta[0])
        assert comp["B10"][0] == pytest.approx(ref[0]["b1"], rel=1e-10)
        assert comp["B11"][0] == pytest.approx(ref[1]["b1"], rel=1e-10)
        psi_diff = ref["psi_diff"]
        b3 = look.n * float(psi_diff @ np.linalg.solve(fits.info[0], psi_diff))
        assert comp["B3"][0] == pytest.approx(b3, rel=1e-10)
        assert comp["var_cond"][0] == pytest.approx(ref["var_cond"], rel=1e-10)
        # the information is n over the components' sum, added in this order, bit for bit
        v_eta2 = ((comp["B10"] + comp["B11"]) + comp["B3"]) + comp["var_cond"]
        assert analyze(snap).info[0] == look.n / v_eta2[0]
        for arm in (0, 1):
            np.testing.assert_allclose(adj.c1[arm_rows(snap, 0, arm)], ref[arm]["c1"], rtol=1e-10)

    def test_simulated_dataset_matches_literal_recomputation(self):
        scn = SimScenario(
            n_per_arm=40, shape_offset=-0.3, covariate_strength=math.log(1.5),
            covariates="bernoulli2",
        )
        snap = sim_snapshot(scn, seed=3, u=2.4)
        fits, adj, comp = stacked(snap)
        ref = naive_everything(enrolled(snap), fits.beta[0])
        assert comp["B10"][0] == pytest.approx(ref[0]["b1"], rel=1e-9)
        assert comp["B11"][0] == pytest.approx(ref[1]["b1"], rel=1e-9)
        assert comp["var_cond"][0] == pytest.approx(ref["var_cond"], rel=1e-9)
        assert adj.mu[0, 1] - adj.mu[0, 0] == pytest.approx(ref["delta"], abs=1e-12)

    @pytest.mark.parametrize("empty", [0, 1])
    def test_arm_without_events_matches_literal_recomputation(self, empty, monkeypatch):
        rng = np.random.default_rng(11)
        arm = np.repeat([0, 1], 40)
        z = rng.uniform(0.0, 1.0, (arm.size, 1))
        time = rng.exponential(1.0 / np.exp(0.8 * z[:, 0] - 0.5 * arm))
        event = (rng.random(arm.size) < 0.8) & (arm != empty)
        snap = arrays_snapshot(time, event, arm, z)
        fits = fit(snap)
        adj, (means,) = kernel_means(monkeypatch, snap, fits)
        comp = variance(snap, fits, adj)
        ref = naive_everything(enrolled(snap), fits.beta[0])
        assert adj.mu[0, empty] == snap.tau
        np.testing.assert_allclose(adj.mu[0], [ref[0]["mu"], ref[1]["mu"]], rtol=1e-12)
        np.testing.assert_allclose(means, ref["mu_cond"], rtol=1e-12)
        np.testing.assert_allclose(adj.cond_diff[0], ref["cond_diff"], rtol=1e-12)
        assert (comp["B10"][0], comp["B11"][0])[empty] == 0.0
        assert (comp["B10"][0], comp["B11"][0])[1 - empty] == pytest.approx(ref[1 - empty]["b1"], rel=1e-10)
        psi_diff = ref["psi_diff"]
        b3 = enrolled(snap).n * float(psi_diff @ np.linalg.solve(fits.info[0], psi_diff))
        assert comp["B3"][0] == pytest.approx(b3, rel=1e-10)
        assert comp["var_cond"][0] == pytest.approx(ref["var_cond"], rel=1e-10)

    @pytest.mark.parametrize("block", ["exact", "nodes"])
    def test_var_cond_of_a_grid_group_is_the_spread_of_the_arms_means(self, block, monkeypatch):
        # two replicates at calibration's calendar grid in one snapshot, as its grid pass stacks them: var_cond is
        # bit for bit the spread of each look's arm 1 conditional means less arm 0's, as the kernel gave them
        scn = SimScenario.read(PERFBENCH_DATA / "cal_scenario.json")
        grid = np.append(np.arange(0.1, scn.total_duration - 1e-9, 0.1), scn.total_duration)
        snap = snapshot([draw_trial(scn, _rng_for_replicate(20200920, rep)) for rep in (5, 6)], u=grid, tau=scn.tau)
        if block == "nodes":
            monkeypatch.setattr(adjusted_rmst, "_BLOCK_CELLS", 0)  # every look at nodes, one subject a chunk
        fits = fit(snap)
        looks = [k for k, error in enumerate(fits.errors) if error is None]
        adj, means = kernel_means(monkeypatch, snap, fits, looks)
        assert snap.u.size == 2 * grid.size and len(looks) > grid.size
        diffs = [cond[:, 1] - cond[:, 0] for cond in means]
        at, diff = np.cumsum([0] + [d.size for d in diffs]), np.concatenate(diffs)
        n = snap.stratum_n.reshape(-1, 2).sum(axis=1)[looks]
        want = np.full(snap.u.size, np.nan)
        want[looks] = look_sums((diff - np.repeat(look_sums(diff, at) / n, n)) ** 2, at) / n
        assert variance(snap, fits, adj)["var_cond"].tobytes() == want.tobytes()

    def test_no_covariates_var_cond_zero(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.5, 0.7, 1.2, 2.0], [1, 1, 0, 1, 1, 0],
            [0, 0, 0, 1, 1, 1], [[]] * 6,
        )
        comp = stacked(snap)[2]
        assert comp["var_cond"][0] == 0.0
        assert comp["B3"][0] == 0.0
        assert comp["B10"][0] + comp["B11"][0] > 0.0

    def test_components_serialization_shape(self):
        snap = toy_snapshot()
        payload = analyze(snap).report(0)
        assert set(payload["components"]) == {"B10", "B11", "B3", "var_cond"}
        for key in ("u", "tau", "mu0", "mu1", "delta", "se", "z", "info"):
            assert key in payload


literal_cases = pytest.mark.parametrize("snap", [
    blocked_snapshot(),
    blocked_snapshot(p=0),
    blocked_snapshot(event_at_tau=True),
], ids=["partial-last-block", "no-covariates", "event-at-tau"])


class TestBlockedKernel:
    """The exact kernel, and the node kernel past a smaller block, against the literal n x r formulas."""

    @literal_cases
    def test_matches_literal_recomputation(self, snap, monkeypatch):
        fits = fit(snap)
        adj, (means,) = kernel_means(monkeypatch, snap, fits)
        comp = variance(snap, fits, adj)
        look = enrolled(snap)
        ref = naive_everything(look, fits.beta[0])
        rel = 1e-12
        for arm in (0, 1):
            rows = arm_rows(snap, 0, arm)
            grid, values = curve(snap, adj, 0, arm)
            np.testing.assert_array_equal(grid, ref[arm]["grid"])
            np.testing.assert_allclose(values, ref[arm]["values"], rtol=rel)
            np.testing.assert_allclose(adj.c1[rows], ref[arm]["c1"], rtol=rel)
            np.testing.assert_allclose(adj.c2[rows], ref[arm]["c2"], rtol=rel)
        np.testing.assert_allclose(means, ref["mu_cond"], rtol=rel)
        np.testing.assert_allclose(adj.cond_diff[0], ref["cond_diff"], rtol=rel)
        assert comp["B10"][0] == pytest.approx(ref[0]["b1"], rel=rel)
        assert comp["B11"][0] == pytest.approx(ref[1]["b1"], rel=rel)
        psi_diff = ref["psi_diff"]
        b3 = look.n * float(psi_diff @ np.linalg.solve(fits.info[0], psi_diff)) if psi_diff.size else 0.0
        assert comp["B3"][0] == pytest.approx(b3, rel=rel)
        assert comp["var_cond"][0] == pytest.approx(ref["var_cond"], rel=rel)
        assert adj.mu[0, 1] - adj.mu[0, 0] == pytest.approx(ref["delta"], rel=rel)

    @literal_cases
    def test_node_path_matches_literal_recomputation(self, snap, monkeypatch):
        monkeypatch.setattr(adjusted_rmst, "_BLOCK_CELLS", 1)  # the node path, one subject's weights a chunk
        self.test_matches_literal_recomputation(snap, monkeypatch)

    @pytest.mark.parametrize("p", [0, 2])
    def test_block_size_does_not_change_the_result(self, p, monkeypatch):
        snap = blocked_snapshot(p=p)
        fits = fit(snap)
        r = snap.event_times.size  # both arms' rows
        results = {}
        for name, cells in (("one row", 1), ("64 rows", 64 * r), ("one block", enrolled(snap).n * r)):
            monkeypatch.setattr(adjusted_rmst, "_BLOCK_CELLS", cells)
            results[name] = kernel_means(monkeypatch, snap, fits)
        ref, (ref_means,) = results["one row"]
        for name in ("64 rows", "one block"):
            adj, (means,) = results[name]
            for field in ("values", "c1", "c2", "mu"):
                np.testing.assert_allclose(getattr(adj, field), getattr(ref, field), rtol=1e-13, err_msg=name)
            np.testing.assert_allclose(means, ref_means, rtol=1e-13, err_msg=name)
            np.testing.assert_allclose(adj.cond_diff[0], ref.cond_diff[0], rtol=1e-13, err_msg=name)

    @pytest.mark.parametrize("case", ["random", "w of 0", "run-off w", "hazard of 0"])
    def test_exact_kernel_is_the_outer_product_kernel(self, case):
        # the kernel's block, bit for bit as np.multiply.outer's: that keeps a run-off look's NaN and its error
        rng = np.random.default_rng(3)
        eta = rng.normal(0.0, 1.5, 400)
        hazard = np.cumsum(rng.exponential(0.01, 250))
        if case == "w of 0":
            eta[::7] = -np.inf
        elif case == "run-off w":
            eta[::5], hazard[0] = 800.0, 0.0  # exp overflows to inf, and inf x 0 is NaN
        elif case == "hazard of 0":
            hazard[:40] = 0.0
        spans = np.zeros((hazard.size, 2))
        spans[np.arange(hazard.size), rng.integers(0, 2, hazard.size)] = rng.exponential(0.01, hazard.size)
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.exp(eta)
            look_w = np.column_stack((np.ones(eta.size), w, w[:, None] * rng.standard_normal((eta.size, 2))))
            got = adjusted_rmst._exact_kernel(look_w, w, hazard, spans)
            cond = np.exp(np.multiply.outer(-w, hazard))
            want = np.zeros((look_w.shape[1], hazard.size)) + look_w.T @ cond, cond @ spans
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert np.isnan(got[0]).any() == (case == "run-off w")

    def test_one_block_alive_at_a_time(self):
        # each look's kernel is freed before the next is allocated, so many looks peak about as high as the largest
        scn = SimScenario(n_per_arm=200, covariate_strength=math.log(1.5), shape_offset=-0.3)
        snap = snapshot(draw_trial(scn, _rng_for_replicate(7, 3)), u=np.round(np.arange(10, 31) * 0.1, 10), tau=1.0)
        fits, looks = fit(snap), [k for k, error in enumerate(snap.look_errors()) if error is None]
        peaks = {}
        for name, chosen in (("largest", looks[-1:]), ("all", looks)):
            tracemalloc.start()
            try:
                adjusted_survival(snap, fits, chosen)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["all"] < 1.4 * peaks["largest"]

    def test_peak_memory_below_a_quarter_of_the_conditional_matrix(self):
        scn = SimScenario(n_per_arm=2000, covariate_strength=math.log(1.5))
        snap = sim_snapshot(scn, seed=11)
        r = max(baseline(snap, fit(snap), 0, arm).times.size for arm in (0, 1))
        tracemalloc.start()
        try:
            analyze(snap).report(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < enrolled(snap).n * r * 8 / 4


def fits_at(snap, beta, info, hazard_beta=None):
    """Fits of a one-look snapshot stopped at ``beta`` with information ``info``, wherever Newton would stop;
    the baseline hazards are those at ``hazard_beta`` (default ``beta``)."""
    beta = np.array([beta], dtype=float)
    sums = stratified_cox._score_info(snap, beta if hazard_beta is None else np.array([hazard_beta], dtype=float))[3]
    counts = np.zeros(1, dtype=int)
    return CoxFits(beta, np.array([info], dtype=float), np.zeros(1), {"iterations": counts, "step_halvings": counts},
                   [None], sums)


def fitted(snap):
    return snap, fit(snap)


def wide_eta():
    return fitted(sim_snapshot(SimScenario(n_per_arm=200, covariates="normal1", covariate_strength=2.5), seed=4))


def tied_eta():
    snap = blocked_snapshot(p=1)
    snap = arrays_snapshot(snap.time[0], snap.event[0], snap.arm, np.full(snap.arm.size, 0.37), tau=snap.tau)
    return snap, fits_at(snap, [1.3], [[5.0]])  # every subject at eta = 0.481, off the nodes


def clamped_eta():
    snap = blocked_snapshot(p=1)
    z = np.random.default_rng(5).standard_normal(snap.arm.size)
    snap = arrays_snapshot(snap.time[0], snap.event[0], snap.arm, z, tau=snap.tau)
    return snap, fits_at(snap, [40.0], [[5.0]], hazard_beta=[0.5])  # eta over about +-100: clamped at both ends


def arm_without_events():
    rng = np.random.default_rng(11)
    arm = np.repeat([0, 1], 40)
    z = rng.uniform(0.0, 1.0, (arm.size, 1))
    time = rng.exponential(1.0 / np.exp(0.8 * z[:, 0] - 0.5 * arm))
    return fitted(arrays_snapshot(time, (rng.random(arm.size) < 0.8) & (arm == 0), arm, z))


class TestNodeKernel:
    """A look past one block takes its kernel at nodes in the linear predictor, against the exact kernel."""

    NODE_CELLS = 8 * 24 * 5  # small looks past this take the node path, 5 subjects' weights a chunk

    @pytest.mark.parametrize("case", [
        wide_eta,
        tied_eta,
        clamped_eta,
        lambda: fitted(blocked_snapshot(p=0)),
        arm_without_events,
        lambda: fitted(blocked_snapshot(event_at_tau=True)),
    ], ids=["wide-eta", "tied-eta", "clamped-eta", "no-covariates", "arm-without-events", "event-at-tau"])
    def test_matches_the_exact_kernel(self, case, monkeypatch):
        snap, fits = case()
        cells = enrolled(snap).n * snap.event_times.size
        assert self.NODE_CELLS < cells <= adjusted_rmst._BLOCK_CELLS
        calls = []
        node_kernel = adjusted_rmst._node_kernel

        def counted(*args):
            calls.append(args)
            return node_kernel(*args)

        monkeypatch.setattr(adjusted_rmst, "_node_kernel", counted)
        paths = {}
        for name, block in (("exact", adjusted_rmst._BLOCK_CELLS), ("nodes", self.NODE_CELLS)):
            monkeypatch.setattr(adjusted_rmst, "_BLOCK_CELLS", block)
            adj, (means,) = kernel_means(monkeypatch, snap, fits)
            comp = variance(snap, fits, adj)
            paths[name] = adj, means, [adj.mu[0, 1] - adj.mu[0, 0], enrolled(snap).n / sum(comp.values())[0],
                                       *(term[0] for term in comp.values())]
        assert len(calls) == 1  # the node path ran once, with the smaller block
        (exact, exact_means, exact_stats), (nodes, nodes_means, nodes_stats) = paths["exact"], paths["nodes"]
        for field in ("values", "c1", "c2"):
            np.testing.assert_allclose(getattr(nodes, field), getattr(exact, field), rtol=0, atol=1e-13,
                                       err_msg=field)
        np.testing.assert_allclose(nodes_means, exact_means, rtol=0, atol=1e-13)
        np.testing.assert_allclose(nodes.cond_diff[0], exact.cond_diff[0], rtol=0, atol=1e-13)
        # delta, info, b10, b11, b3 and var_cond; the tied look's b3 and var_cond are 0 but for rounding (~1e-31)
        np.testing.assert_allclose(nodes_stats, exact_stats, rtol=1e-11, atol=1e-20)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_run_off_look_still_raises_and_keeps_few_panels(self, monkeypatch):
        snap = snapshot(monotone_trial(), u=0.2, tau=1.0)  # the fit runs off to beta ~ 282
        clamped = []
        kernel_eta = adjusted_rmst._kernel_eta

        def recorded(eta, hazard):
            clamped.append((eta, kernel_eta(eta, hazard)))
            return clamped[-1][1]

        monkeypatch.setattr(adjusted_rmst, "_kernel_eta", recorded)
        monkeypatch.setattr(adjusted_rmst, "_BLOCK_CELLS", 0)
        analyses = analyze(snap)
        with pytest.raises(EstimationError, match="must be finite"):
            analyses.report(0)
        (eta, x), = clamped
        assert np.ptp(eta) > 1000  # unclamped, its 39 subjects' eta spread over 1 247 unit panels
        # clamped, the window is log(750 * 2**60 * H_max / H_min) ~ 94 panels wide, and every subject
        # below it sits on its lower end, where each cell is exactly 1
        panels = np.unique(np.floor(x))
        assert np.ptp(panels) < 100 and panels.size <= 64

    def test_peak_memory_of_a_large_look(self):
        # a trial-end 5 000-per-arm look, as in the interim benchmark: 2.86 MiB measured. A second panel kernel
        # alive at once, or the weights of a block's worth of subjects at once, would each add about 1 MiB.
        scn = SimScenario(n_per_arm=5000, covariate_strength=math.log(1.5), shape_offset=-0.3)
        snap = sim_snapshot(scn, seed=17)
        fits = fit(snap)
        assert enrolled(snap).n * snap.event_times.size > 400 * adjusted_rmst._BLOCK_CELLS
        tracemalloc.start()
        try:
            adjusted_survival(snap, fits, [0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 2.86 * 2**20  # measured plus 10%


class TestAnalyze:
    def test_identical_arms_zero_statistic(self):
        time = [0.5, 1.0, 1.5, 2.5]
        event = [1, 1, 0, 1]
        z = [0.2, -0.4, 1.0, 0.3]
        snap = arrays_snapshot(time * 2, event * 2, [0] * 4 + [1] * 4, z * 2)
        result = analyze(snap).report(0)
        assert result["delta"] == pytest.approx(0.0, abs=1e-14)
        assert result["z"] == pytest.approx(0.0, abs=1e-12)
        assert result["se"] > 0.0

    def test_insufficient_events(self):
        snap = arrays_snapshot(
            [0.5, 1.0, 1.2, 2.0], [1, 1, 0, 0], [0, 0, 1, 1], [0.1, -0.2, 0.4, 0.0],
        )
        with pytest.raises(InsufficientEventsError, match="arm 1"):
            analyze(snap).report(0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_monotone_likelihood_raises_instead_of_nan(self):
        snap = snapshot(monotone_trial(), u=0.2, tau=1.0)
        with pytest.raises(EstimationError, match="must be finite"):
            analyze(snap).report(0)

    @pytest.mark.parametrize("delta, info", [
        (math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan), (0.1, math.inf), (0.1, 0.0), (0.1, -2.0),
    ])
    def test_result_rejects_non_finite(self, delta, info):
        analyses = Analyses("km", toy_snapshot(), np.array([delta]), np.array([info]), [None])
        assert type(analyses.errors[0]) is EstimationError
        with pytest.raises(EstimationError, match="must be finite"):
            analyses.report(0)

    def test_report_prints_diagnostics_as_their_arrays_hold_them(self):
        # the rule the variance components print by: an int array prints ints, a float array floats
        diagnostics = {"iterations": np.array([4]), "score_norm": np.array([2.5e-9])}
        analyses = Analyses("adjusted", toy_snapshot(), np.array([0.3]), np.array([4.0]), [None],
                            diagnostics=diagnostics)
        report = analyses.report(0)
        assert report["diagnostics"] == {"iterations": 4, "score_norm": 2.5e-9}
        assert [type(v) for v in report["diagnostics"].values()] == [int, float]

    def test_leaves_the_callers_arrays_alone(self):
        # a look that fails turns NaN in the analyses' own arrays, not in those it was given (a fit's beta, say)
        beta, info = np.array([[0.3, 1.0]]), np.array([-1.0])
        analyses = Analyses("cox", toy_snapshot(), beta[:, 0], info, [None])
        assert type(analyses.errors[0]) is EstimationError and np.isnan(analyses.delta[0])
        assert beta.tolist() == [[0.3, 1.0]] and info.tolist() == [-1.0]

    def test_scaling_relations(self):
        snap = toy_snapshot()
        analyses = analyze(snap)
        result, v_eta2 = analyses.report(0), sum(analyses.components.values())[0]
        assert result["se"] == pytest.approx(
            math.sqrt(v_eta2 / enrolled(snap).n), rel=1e-12
        )
        assert result["z"] == pytest.approx(result["delta"] / result["se"], rel=1e-12)
        assert result["info"] == pytest.approx(enrolled(snap).n / v_eta2, rel=1e-12)

    def test_unbiased_at_trial_end(self):
        scn = SimScenario(
            n_per_arm=100, shape_offset=0.0, log_rate_ratio=-0.35,
            covariate_strength=math.log(1.5), covariates="normal1",
        )
        truth = true_rmst(scn, 1) - true_rmst(scn, 0)
        reps = 400
        estimates = np.empty(reps)
        for rep in range(reps):
            snap = sim_snapshot(scn, seed=1000 + rep)
            estimates[rep] = analyze(snap).report(0)["delta"]
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
                vals[rep] = analyze(sim_snapshot(scn, seed=5000 + rep)).report(0)["delta"]
            deltas[n] = vals.var(ddof=1)
        ratio = deltas[100] / deltas[200]
        assert 1.4 < ratio < 2.9

    def test_closed_form_tracks_bootstrap_on_frozen_dataset(self):
        scn = SimScenario(
            n_per_arm=200, shape_offset=0.0, covariate_strength=math.log(1.5),
        )
        snap = sim_snapshot(scn, seed=77)
        analyses = analyze(snap)
        rng = np.random.default_rng(123)
        look = enrolled(snap)
        arm, time, event, z = look.arm, look.time, look.event, look.z
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
                u=look.u, tau=look.tau,
            )
            boots.append(analyze(bsnap).report(0)["delta"])
        ratio = (sum(analyses.components.values())[0] / look.n) / np.var(boots, ddof=1)
        assert 0.6 < ratio < 1.6


class TestStackedLooks:
    """Every look of a stacked snapshot gets the analysis a snapshot of that look alone gets."""

    def test_calendar_grid_matches_solo_analyses(self):
        scn = SimScenario(n_per_arm=200, covariates="normal1", covariate_strength=math.log(1.5),
                          shape_offset=-0.3)
        trial = draw_trial(scn, _rng_for_replicate(20200920, 5))
        grid = np.round(np.arange(1, 31) * 0.1, 10)
        analyses = analyze(snapshot(trial, u=grid, tau=1.0))
        outcomes = [outcome(analyses, k) for k in range(grid.size)]
        assert sum(not isinstance(o, type) for o in outcomes) >= 25
        for u, got in zip(grid, outcomes):
            assert got == solo(trial, u)  # bit for bit, or the same error class
        # each stratum's stacked Breslow hazard is its arm's own cumulative sum, bit for bit
        snap = analyses.snap
        fits = fit(snap)
        hazard = adjusted_survival(snap, fits, []).hazard
        for k in range(grid.size):
            for arm in (0, 1):
                np.testing.assert_array_equal(hazard[arm_rows(snap, k, arm)], baseline(snap, fits, k, arm).values)

    def test_stratum_cumsum_is_each_strata_own_cumsum(self):
        trial = monotone_trial()
        snap = snapshot(trial, u=[0.001, 0.12, 0.5, 1.0], tau=1.0)  # empty strata at the first two looks
        assert None not in snap.look_errors()[:2]
        values = np.random.default_rng(3).uniform(size=(snap.event_times.size, 2))
        forward = snap.accumulate(values)
        backward = snap.accumulate(values, reverse=True)
        product = snap.accumulate(values, op=np.multiply)  # Kaplan-Meier's curve
        for lo, hi in zip(snap.stratum_rows[:-1], snap.stratum_rows[1:]):
            np.testing.assert_array_equal(forward[lo:hi], np.cumsum(values[lo:hi], axis=0))
            np.testing.assert_array_equal(backward[lo:hi], np.cumsum(values[lo:hi][::-1], axis=0)[::-1])
            np.testing.assert_array_equal(product[lo:hi], np.cumprod(values[lo:hi], axis=0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_odd_looks_get_their_solo_outcome_and_leave_the_others_alone(self):
        trial = monotone_trial()
        odd = {
            0.001: InsufficientEventsError,  # nobody enrolled yet (alone, no snapshot at all)
            0.12: InsufficientEventsError,  # arm 1 has no event
            0.2: EstimationError,  # the monotone likelihood: beta ~ 282, the variance overflows
        }
        looks = sorted([*odd, *np.round(np.arange(3, 31) * 0.1, 10)])

        def analyses(us):
            return analyze(snapshot(trial, u=us, tau=1.0))

        stacked_looks = analyses(looks)
        outcomes = {u: outcome(stacked_looks, k) for k, u in enumerate(looks)}
        for u in looks:
            if u in odd:
                assert outcomes[u] is odd[u]
                assert solo(trial, u) is (DataError if u == 0.001 else odd[u])
            else:
                assert outcomes[u] == solo(trial, u)
        for left_out in odd:
            others = [u for u in looks if u != left_out]
            without = analyses(others)
            for k, u in enumerate(others):
                assert outcome(without, k) == outcomes[u]


def interim_looks():
    """The benchmark's five interim looks at a null trial of 5 000 per arm like its own: Weibull shape 1.5 with
    S(1) = 0.4, a normal and two Bernoulli covariates of log hazard ratio log(1.5)/sqrt(3) per SD, entry over 2 years
    and 5% censoring a year."""
    rng = np.random.default_rng(91)
    n = 10_000
    z = np.column_stack((rng.standard_normal(n), rng.random(n) < 0.3, rng.random(n) < 0.5)).astype(float)
    lin = math.log(1.5) / math.sqrt(3.0) * (z[:, 0] + (z[:, 1] - 0.3) / math.sqrt(0.21) + (z[:, 2] - 0.5) / 0.5)
    event_time = (-np.log1p(-rng.random(n)) / (-math.log(0.4) * np.exp(lin))) ** (1.0 / 1.5)
    entry = rng.uniform(0.0, 2.0, n)
    cap = np.minimum(rng.exponential(-1.0 / math.log(0.95), n), 3.0 - entry)
    return [Trial(arm=np.repeat([0, 1], n // 2), entry=entry, followup=np.minimum(event_time, cap),
                  event=event_time <= cap, z=z)], [1.0, 1.5, 2.0, 2.5, 3.0]


def sim_group():
    """Eight replicates of the benchmark's simulation scenario, at its calibrated looks."""
    scn = SimScenario.read(PERFBENCH_DATA / "sim_scenario.json")
    times = json.loads((PERFBENCH_DATA / "sim_calibration.json").read_text())["analysis_times"]
    return [draw_trial(scn, _rng_for_replicate(3, rep)) for rep in range(8)], times


def calendar_grid():
    """One trial at 30 looks a tenth of a year apart."""
    scn = SimScenario(n_per_arm=200, covariates="normal1", covariate_strength=math.log(1.5), shape_offset=-0.3)
    return [draw_trial(scn, _rng_for_replicate(20200920, 5))], np.round(np.arange(1, 31) * 0.1, 10)


class TestCovariateScale:
    """The units a covariate is recorded in change no result: each trial's covariates are standardized."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale, shift", [([1.0, 1.0], [1000.0, 0.0]), ([1.0, 1.0], [300.0, 300.0]),
                                              ([1e-6, 1e-6], [0.0, 0.0]), ([1e4, 1e4], [1e6, 1e6])],
                             ids=["first+1000", "both+300", "both*1e-6", "both*1e4+1e6"])
    def test_mapped_covariates_give_the_unmapped_analysis(self, scale, shift):
        # before standardization these overflowed the risk sums, or the fit met a singular or unconverged information
        trial = draw_trial(SimScenario(covariates="bernoulli2", covariate_strength=1.0), np.random.default_rng(5))
        mapped = replace(trial, z=trial.z * scale + shift)
        want, got = (analyze(snapshot(t, u=[1.5, 3.0], tau=1.0)) for t in (trial, mapped))
        assert got.errors == [None, None] and want.errors == [None, None]
        np.testing.assert_allclose(got.delta, want.delta, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.info, want.info, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", [sim_group, calendar_grid, interim_looks], ids=["sim-group", "calendar-grid",
                                                                                   "interim-5000"])
    def test_standardizing_moves_the_results_only_by_rounding(self, case):
        # The bounds are the contract: standardizing may move a result only by rounding. They were set against the
        # drifts seen with numpy 2.4 on OpenBLAS 0.3.31 (x86-64): at worst 2.4e-13 on the adjusted delta
        # (sim-group), 2.2e-13 on the Cox delta (interim-5000, 10 000 rows summed) and 2.6e-15 on info, so about
        # 4x and 38x headroom. A failure by a small multiple of those on another build or summation order is a
        # rounding difference, not a regression; a move in the leading digits is.
        trials, u = case()
        snap = snapshot(trials, u=u, tau=1.0)
        raw = with_covariates(snap, np.concatenate([t.z for t in trials]))
        for method in (analyze, cox_hr_test):
            got, want = method(snap), method(raw)
            assert [type(e) for e in got.errors] == [type(e) for e in want.errors]
            assert sum(e is None for e in got.errors) >= 0.8 * snap.u.size
            np.testing.assert_allclose(got.delta, want.delta, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.info, want.info, rtol=1e-13, atol=0)


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
        analyses = analyze(snap)
        try:
            result = analyses.report(0)
        except InsufficientEventsError:
            return
        assert 0.0 <= result["mu0"] <= snap.tau + 1e-12
        assert 0.0 <= result["mu1"] <= snap.tau + 1e-12
        assert abs(result["delta"]) <= snap.tau + 1e-12
        comp = {name: values[0] for name, values in analyses.components.items()}
        v_xi2 = comp["B10"] + comp["B11"] + comp["B3"]
        assert v_xi2 >= 0.0
        assert sum(comp.values()) >= v_xi2
        assert comp["B10"] >= 0.0 and comp["B11"] >= 0.0 and comp["B3"] >= -1e-12
        assert result["se"] > 0.0 and math.isfinite(result["z"])
