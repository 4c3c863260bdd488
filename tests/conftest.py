"""Shared builders, hypothesis profiles, and the acceptance report hook."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rmstgst.sim_engine import SimScenario, calibrate_null, draw_trial
from rmstgst.trial_data import SubjectRecord, snapshot

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


def make_record(sid="s1", arm=0, entry=0.0, time=1.0, event=1, cov=(0.0,)):
    return SubjectRecord(
        subject_id=sid, arm=arm, entry_time=entry, followup_time=time,
        event=event, covariates=tuple(cov),
    )


def toy_records():
    """Eight subjects, two arms, one covariate, mixed censoring."""
    rows = [
        ("a1", 0, 0.0, 0.9, 1, 0.2),
        ("a2", 0, 0.1, 1.4, 1, -0.5),
        ("a3", 0, 0.2, 2.5, 0, 1.1),
        ("a4", 0, 0.3, 0.4, 1, 0.0),
        ("b1", 1, 0.0, 1.1, 1, -0.2),
        ("b2", 1, 0.1, 0.7, 0, 0.4),
        ("b3", 1, 0.2, 1.8, 1, -1.0),
        ("b4", 1, 0.3, 2.2, 1, 0.6),
    ]
    return [make_record(*row[:2], *row[2:5], (row[5],)) for row in rows]


def toy_snapshot(u=5.0, tau=2.0):
    return snapshot(toy_records(), u=u, tau=tau)


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
    records = draw_trial(scn, np.random.default_rng(seed))
    return snapshot(records, u=scn.total_duration if u is None else u,
                    tau=scn.tau if tau is None else tau)


def monotone_records():
    """A trial whose snapshot at u=0.2 has one event per arm.

    The Cox fit there runs off to beta ~ 282 with information ~3e-10
    (a monotone likelihood), and the adjusted variance overflows.
    """
    scn = SimScenario(covariate_strength=1.0)
    return draw_trial(scn, np.random.default_rng(np.random.SeedSequence(20200920, spawn_key=(43,))))
