"""Shared builders, hypothesis profiles, and the acceptance report hook."""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rmstgst.sim_engine import SimScenario, calibrate_null, draw_trial
from rmstgst.trial_data import Snapshot, Trial, snapshot

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


def enrolled(snap, k=0):
    """Look k's enrolled subjects in trial order: ``arm``, ``time``, ``event``, ``z`` and their count ``n``,
    with the look's ``u`` and ``tau``. Look k's columns are its trial's subjects from ``offset[k]`` on."""
    idx = np.flatnonzero(snap.time[k] >= 0)
    subjects = snap.offset[k] + idx
    return SimpleNamespace(u=float(snap.u[k]), tau=snap.tau, n=idx.size, arm=snap.arm[subjects],
                           time=snap.time[k, idx], event=snap.event[k, idx], z=snap.z[subjects])


def with_covariates(snap, z):
    """``snap`` holding covariates ``z``, one row per subject in trial order, in place of its standardized ones."""
    return Snapshot(snap.u, snap.tau, snap.arm, snap.time, snap.event, np.asarray(z, dtype=float), snap.offset)


def arm_rows(snap, k, arm):
    """The event rows of look k's arm, its stratum 2 k + arm, as a slice."""
    return slice(*snap.stratum_rows[[2 * k + arm, 2 * k + arm + 1]].tolist())


def baseline(snap, fits, k, arm):
    """Look k's Breslow cumulative baseline hazard of one arm, from the ``fits`` of ``snap``: its jump ``times``,
    ``increments`` (each event row's count over its risk sum) and cumulative ``values``."""
    rows = arm_rows(snap, k, arm)
    increments = snap.event_counts[rows] / fits.risk_sums()[0][rows]
    return SimpleNamespace(times=snap.event_times[rows], increments=increments, values=np.cumsum(increments))


def look_fit(fits, k):
    """Look k's fit as ``beta``, ``info``, ``loglik``, ``iterations`` and ``step_halvings``, or raise its error."""
    if fits.errors[k] is not None:
        raise fits.errors[k]
    return SimpleNamespace(beta=fits.beta[k], info=fits.info[k], loglik=float(fits.loglik[k]),
                           **{name: int(counts[k]) for name, counts in fits.diagnostics.items()})


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

    The Cox fit there runs off to beta ~ 301 with information ~3e-10
    (a monotone likelihood), and the adjusted variance overflows.
    """
    scn = SimScenario(covariate_strength=1.0)
    return draw_trial(scn, np.random.default_rng(np.random.SeedSequence(20200920, spawn_key=(43,))))
