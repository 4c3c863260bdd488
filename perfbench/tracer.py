"""Span tracer that times rmstgst's layers from outside the package.

``Tracer.install`` replaces each target function at every place the
package looks it up: module globals such as ``sim_engine.analyze`` or
``adjusted_rmst.cox_fit``, and values of module-level dicts such as a
method registry. ``src/`` is not edited. A target that no longer exists
is recorded in ``absent`` and its metrics read 0 with a note; the tracer
never fails on it.

Spans carry a name, start, end, parent span and operation id. They stay
in memory and are written out once, when the run ends. A span's self
time is its duration minus the time its direct children cover, so the
self times of a call tree add up to the duration of its root.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field

PACKAGE = "rmstgst"

# (module, function) pairs wrapped in a traced run; the layers are the
# package's modules.
TARGETS = (
    ("trial_data", "ingest_csv"),
    ("trial_data", "snapshot"),
    ("trial_data", "snapshot_from_arrays"),
    ("stratified_cox", "fit"),
    ("adjusted_rmst", "analyze"),
    ("adjusted_rmst", "adjusted_survival"),
    ("adjusted_rmst", "variance"),
    ("km_rmst", "km_rmst_test"),
    ("gs_design", "update_monitoring"),
    ("sim_engine", "run_study"),
    ("sim_engine", "calibrate_information"),
    ("sim_engine", "calibrate_null"),
    ("sim_engine", "calibrate_power"),
    ("sim_engine", "cox_hr_test"),
    ("cli", "main"),
)

# Calls that produce one analysis result with a ``z`` statistic.
ANALYSES = frozenset({"adjusted_rmst.analyze", "km_rmst.km_rmst_test", "sim_engine.cox_hr_test"})

# Counts and ratios reported beside the per-function metrics.
EXTRA_METRICS = (
    ("trial_data.ingest_csv.rows", "count", "higher"),
    ("stratified_cox.fit.iterations", "count", "lower"),
    ("adjusted_rmst.cells", "count", "lower"),
    ("sim_engine.analysis_ok_ratio", "fraction", "higher"),
    ("cli.import_s", "s", "lower"),
    ("runtime_warnings", "count", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, func in TARGETS:
        base = f"{module}.{func}"
        out += [(f"{base}.self_s", "s", "lower"), (f"{base}.calls", "count", "lower"),
                (f"{base}.failed", "count", "lower")]
    return out + list(EXTRA_METRICS)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    failed: bool = False


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count(counts: Counter, name: str, args, kwargs, result, failed: bool) -> None:
    """Counters measured at the wrapped call; shapes it cannot read are noted."""
    try:
        if name in ANALYSES:
            counts["analysis.attempted"] += 1
            if not failed and math.isfinite(float(result.z)):
                counts["analysis.ok"] += 1
        if failed:
            return
        if name == "trial_data.ingest_csv":
            counts["trial_data.ingest_csv.rows"] += len(result)
        elif name == "stratified_cox.fit":
            counts["stratified_cox.fit.iterations"] += int(result.iterations)
        elif name == "adjusted_rmst.adjusted_survival":
            fit, snap, arm = (_arg(args, kwargs, i, k) for i, k in enumerate(("fit", "snap", "arm")))
            counts["adjusted_rmst.cells"] += int(snap.n) * len(fit.baseline(arm).times)
    except (AttributeError, TypeError, ValueError, IndexError, KeyError) as exc:
        counts[f"uncounted:{name}:{type(exc).__name__}"] += 1


class Tracer:
    """Collects spans and counters for one benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        """Return ``func`` wrapped so each call records one span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self.clock(), math.nan, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(index)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
                _count(self.counts, name, args, kwargs, result, span.failed)

        return traced

    def install(self, package: str = PACKAGE, targets=TARGETS) -> None:
        """Wrap every target at every lookup site inside ``package``."""
        importlib.import_module(package)
        for module_name, func_name in targets:
            name = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            prefix = package + "."
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(prefix)):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper

    @contextlib.contextmanager
    def counting_warnings(self):
        """Count every RuntimeWarning raised inside the block."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            yield
        self.counts["runtime_warnings"] += sum(issubclass(w.category, RuntimeWarning) for w in caught)

    def to_dict(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**self.to_dict(), **extra}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


@dataclass
class LayerTotals:
    """Per-function sums over the traced operations of one run."""

    self_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    absent: set = field(default_factory=set)

    def add(self, spans, counts, absent) -> None:
        for span, own in zip(spans, self_times(spans)):
            self.self_s[span.name] += own
            self.calls[span.name] += 1
            self.failed[span.name] += int(span.failed)
        self.counts.update(counts)
        self.absent.update(absent)

    def add_dump(self, doc: dict) -> None:
        self.add([Span(**s) for s in doc["spans"]], doc["counts"], doc["absent"])

    def metrics(self, extra: dict[str, float]) -> tuple[dict[str, float], list[str]]:
        """Values for every per-layer metric, and notes on absent names."""
        values: dict[str, float] = {}
        notes = []
        for module, func in TARGETS:
            base = f"{module}.{func}"
            if base in self.absent:
                notes.append(f"{base} is not defined in {PACKAGE}; its metrics read 0")
            values[f"{base}.self_s"] = self.self_s[base]
            values[f"{base}.calls"] = self.calls[base]
            values[f"{base}.failed"] = self.failed[base]
        for name in ("trial_data.ingest_csv.rows", "stratified_cox.fit.iterations",
                     "adjusted_rmst.cells", "runtime_warnings"):
            values[name] = self.counts[name]
        attempted = self.counts["analysis.attempted"]
        values["sim_engine.analysis_ok_ratio"] = self.counts["analysis.ok"] / attempted if attempted else 0.0
        values.update(extra)
        for key in sorted(k for k in self.counts if k.startswith("uncounted:")):
            notes.append(f"counter skipped {self.counts[key]} time(s): {key}")
        return values, notes
