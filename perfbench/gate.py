"""Correctness gate: compare each timed operation with the seed reference.

References were recorded from the program at the commit that added the
benchmark (``make_refs.py``). Tolerances allow the last digits to move,
as exact-arithmetic refactors do (chunked reductions, a different but
equivalent recursion, a Newton path that stops one step apart), and
catch a wrong formula, which moves the third or fourth digit.

Each check returns ``(failed, problems)``. ``failed`` marks an operation
that produced no correct answer: it exited non-zero, gave NaN or did not
match. ``problems`` lists wrong answers only; a non-zero exit is a
failure but not a wrong answer, so a change that makes a look fail shows
in the failure count, and one that makes a look succeed that failed at
the reference commit is accepted if its answer is finite.
"""

from __future__ import annotations

import math

RTOL = 1e-6
ATOL = 1e-9
# A decision may differ from the reference only when |z| sits this close
# to the critical value, where a 1e-8 change in the boundary flips it.
DECISION_MARGIN = 1e-6
# Simulated counts may differ by one replicate: a borderline fit or
# boundary can flip one replicate without anything being wrong.
COUNT_SLACK = 1


def close(got, want, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def _numbers(label: str, got: dict, want: dict, keys) -> list[str]:
    problems = []
    for key in keys:
        value = float(got.get(key, math.nan))
        if math.isnan(value):
            problems.append(f"{label}: {key} is NaN or missing")
        elif not close(value, want[key]):
            problems.append(f"{label}: {key}={value!r}, reference {want[key]!r}")
    return problems


def check_look(label: str, want: dict, got: dict) -> tuple[bool, list[str]]:
    """One interim look: ``delta``, ``se``, ``z`` and the decision."""
    if got["exit"] != 0:
        return True, []
    if want["exit"] != 0:
        # Failed at the reference commit; the value cannot be checked, but a
        # NaN is still wrong.
        return _finite_look(label, got)
    problems = _numbers(label, got, want, ("delta", "se", "z"))
    if not problems and got["decision"] != want["decision"]:
        crit = want["critical_value"]
        if crit is None or abs(abs(float(got["z"])) - crit) > DECISION_MARGIN:
            problems.append(f"{label}: decision {got['decision']!r}, reference {want['decision']!r}")
    return bool(problems), problems


def _finite_look(label: str, got: dict) -> tuple[bool, list[str]]:
    bad = [k for k in ("delta", "se", "z") if not math.isfinite(float(got.get(k, math.nan)))]
    problems = [f"{label}: {k} is NaN or missing" for k in bad]
    return bool(problems), problems


def check_calibration(label: str, want: dict, got: dict) -> tuple[bool, list[str]]:
    """One calibrate command: ``i_max``, analysis times and the power offset."""
    if got["exit"] != 0:
        return True, []
    problems = _numbers(label, got, want, ("i_max", "power_log_rate_ratio"))
    times, ref_times = got.get("analysis_times", []), want["analysis_times"]
    if len(times) != len(ref_times) or not all(close(float(a), b) for a, b in zip(times, ref_times)):
        problems.append(f"{label}: analysis_times {times}, reference {ref_times}")
    return bool(problems), problems


def check_simulation(label: str, want: dict, got: dict) -> tuple[bool, list[str]]:
    """One simulate command: cumulative rejections per method and stage, failures."""
    if got["exit"] != 0:
        return True, []
    problems = []
    for method, ref_counts in want["rejections"].items():
        counts = got["rejections"].get(method)
        if counts is None or len(counts) != len(ref_counts):
            problems.append(f"{label}: no rejection counts for {method}")
            continue
        for stage, (n, ref) in enumerate(zip(counts, ref_counts), start=1):
            if not abs(n - ref) <= COUNT_SLACK:
                problems.append(f"{label}: {method} stage {stage} rejected {n}, reference {ref}")
    for method, ref in want["failures"].items():
        n = got["failures"].get(method)
        if n is None or not abs(n - ref) <= COUNT_SLACK:
            problems.append(f"{label}: {method} failures {n}, reference {ref}")
    return bool(problems), problems
