"""Shared builders, hypothesis profiles, and the acceptance report hook."""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rmstgst.sim_engine import SimScenario, calibrate_null, draw_trial
from rmstgst.trial_data import Trial, snapshot

settings.register_profile(
    "suite",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    """Append one pass/fail line for the terminal summary, then assert."""
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] criterion {number}: {detail}"
    ACCEPTANCE_LINES.append(line)
    assert passed, line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def baseline(fits, k, arm):
    """Look k's Breslow cumulative baseline hazard of one arm: its jump ``times``, ``increments``
    (each event row's count over its risk sum) and cumulative ``values``."""
    lo, split, hi = fits.snap.look_bounds(k)
    rows = slice(lo, split) if arm == 0 else slice(split, hi)
    increments = fits.snap.event_counts[rows] / fits.risk_sums()[0][rows]
    return SimpleNamespace(times=fits.snap.event_times[rows], increments=increments, values=np.cumsum(increments))


def height(step, t):
    """A baseline's right-continuous height at ``t`` (scalar or array), 0 before its first jump."""
    out = np.concatenate(([0.0], step.values))[np.searchsorted(step.times, t, side="right")]
    return float(out) if np.isscalar(t) else out


def make_trial(*rows):
    """A trial from ``(arm, entry, followup, event, covariates)`` rows."""
    arm, entry, followup, event, z = zip(*rows)
    return Trial(arm=arm, entry=entry, followup=followup, event=event, z=np.array(z, dtype=float))


def toy_trial():
    """Eight subjects, two arms, one covariate, mixed censoring."""
    return make_trial(
        (0, 0.0, 0.9, 1, (0.2,)),
        (0, 0.1, 1.4, 1, (-0.5,)),
        (0, 0.2, 2.5, 0, (1.1,)),
        (0, 0.3, 0.4, 1, (0.0,)),
        (1, 0.0, 1.1, 1, (-0.2,)),
        (1, 0.1, 0.7, 0, (0.4,)),
        (1, 0.2, 1.8, 1, (-1.0,)),
        (1, 0.3, 2.2, 1, (0.6,)),
    )


def toy_snapshot(u=5.0, tau=2.0):
    return snapshot(toy_trial(), u=u, tau=tau)


@pytest.fixture(scope="session")
def ph_scenario():
    """Proportional hazards, moderate covariate effect, no treatment effect."""
    return SimScenario(
        n_per_arm=150, tau=1.0, accrual=2.0, shape_base=1.5, shape_offset=0.0,
        rate_base=-math.log(0.4), log_rate_ratio=0.0,
        covariate_strength=math.log(1.5), covariates="normal1",
        censoring="5pct_per_year",
    )


@pytest.fixture(scope="session")
def nph_scenario():
    """Delayed treatment effect (shape shift) calibrated to a null difference."""
    base = SimScenario(
        n_per_arm=150, tau=1.0, accrual=2.0, shape_base=1.5, shape_offset=-0.3,
        rate_base=-math.log(0.4), log_rate_ratio=0.0,
        covariate_strength=math.log(1.5), covariates="normal1",
        censoring="5pct_per_year",
    )
    return replace(base, log_rate_ratio=calibrate_null(base))


def sim_snapshot(scn, seed, u=None, tau=None):
    """One simulated trial snapshot from a scenario."""
    trial = draw_trial(scn, np.random.default_rng(seed))
    return snapshot(trial, u=scn.total_duration if u is None else u,
                    tau=scn.tau if tau is None else tau)


def monotone_trial():
    """A trial whose snapshot at u=0.2 has one event per arm.

    The Cox fit there runs off to beta ~ 282 with information ~3e-10
    (a monotone likelihood), and the adjusted variance overflows.
    """
    scn = SimScenario(covariate_strength=1.0)
    return draw_trial(scn, np.random.default_rng(np.random.SeedSequence(20200920, spawn_key=(43,))))
