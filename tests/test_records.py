"""The JSON keys of every record, pinned: each record's file format as written and read back, and the one
finiteness rule every record keeps, built in memory or read."""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import pkgutil
import re
import typing

import pytest

import rmstgst
from rmstgst.errors import ConfigError, DataError, StateError
from rmstgst.gs_design import AnalysisRecord, DesignConfig, MonitoringState, SpendingFunction
from rmstgst.records import Record
from rmstgst.sim_engine import Calibration, InformationCalibration, PowerCalibration, SimScenario
from rmstgst.trial_data import CsvSchema

INFO = InformationCalibration(
    fractions=(0.5, 1.0), analysis_times=(1.5, 3.0), i_max=200.0, i_max_by_method={"adjusted": 200.0, "km": 150.0},
    grid=(1.0, 2.0, 3.0), mean_info=(50.0, 120.0, 200.0), reps=100, master_seed=7, failures=2,
)
POWER = PowerCalibration(target_power=0.8, alpha=0.05, sided="one_sided", delta=0.1, log_rate_ratio=-0.3)
DESIGN = DesignConfig(spending=SpendingFunction("power_family", rho=2.0), planned_fractions=(0.5, 1.0), i_max=90.0)
ANALYSIS = AnalysisRecord(stage=1, u=1.5, info_level=45.0, info_fraction=0.5, z=2.1, critical_value=2.9,
                          cumulative_spend=0.01, decision="continue")
INFO_KEYS = ["schema", "fractions", "analysis_times", "i_max", "i_max_by_method", "grid", "mean_info", "reps",
             "master_seed", "failures"]

# each record: an instance and the keys of its JSON object, in file order
EXAMPLES = {
    SimScenario: (SimScenario(n_per_arm=30, covariates="bernoulli2", censoring=None, fractions=(0.4, 1.0)),
                  ["schema", "n_per_arm", "tau", "accrual", "shape_base", "shape_offset", "rate_base",
                   "log_rate_ratio", "covariate_strength", "covariates", "censoring", "fractions"]),
    InformationCalibration: (INFO, INFO_KEYS),
    PowerCalibration: (POWER, ["target_power", "alpha", "sidedness", "delta", "log_rate_ratio"]),
    Calibration: (Calibration(info=INFO, null_log_rate_ratio=0.02, power=POWER, scenario=SimScenario()),
                  [*INFO_KEYS, "null_log_rate_ratio", "power", "scenario"]),
    DesignConfig: (DESIGN, ["schema", "alpha", "sidedness", "spending", "planned_fractions", "i_max"]),
    AnalysisRecord: (ANALYSIS, ["stage", "u", "info_level", "info_fraction", "z", "critical_value",
                                "cumulative_spend", "decision", "final"]),
    MonitoringState: (MonitoringState(design=DESIGN, analyses=(ANALYSIS,)), ["schema", "design", "analyses"]),
    CsvSchema: (CsvSchema(subject_id="subject", covariates=("age", "sex")),
                ["id", "arm", "entry_time", "followup_time", "event", "covariates"]),
}


def _all_records():
    for info in pkgutil.iter_modules(rmstgst.__path__):
        if info.name != "__main__":
            importlib.import_module(f"rmstgst.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return found


def test_every_record_has_an_example():
    assert _all_records() == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_key_list_and_round_trip(cls, tmp_path):
    record, keys = EXAMPLES[cls]
    payload = record.to_dict()
    assert list(payload) == keys
    path = tmp_path / "record.json"
    path.write_text(json.dumps(payload))
    assert cls.read(path) == record


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_one_byte_order_mark_reads_as_the_plain_file(cls, tmp_path):
    record, _ = EXAMPLES[cls]
    text = json.dumps(record.to_dict()).encode()
    for name, prefix in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        (tmp_path / f"{name}.json").write_bytes(prefix + text)
    assert cls.read(tmp_path / "marked.json") == cls.read(tmp_path / "plain.json") == record
    (tmp_path / "twice.json").write_bytes(b"\xef\xbb\xbf" * 2 + text)
    with pytest.raises(cls._error, match="not valid JSON at line 1 column 1: Unexpected UTF-8 BOM"):
        cls.read(tmp_path / "twice.json")


def test_renamed_keys_are_named_in_errors():
    payload = POWER.to_dict()
    payload["sided"] = payload.pop("sidedness")
    with pytest.raises(ConfigError, match=r"^power calibration missing keys: \['sidedness'\]$"):
        PowerCalibration.from_dict(payload)
    with pytest.raises(DataError, match=r"^malformed CSV schema: id: a string expected, got 5$"):
        CsvSchema.from_dict({"id": 5})
    with pytest.raises(DataError, match=r"^unknown CSV schema keys: \['subject_id'\]$"):
        CsvSchema.from_dict({"subject_id": "subject"})


def test_flattened_fields_read_their_parent_object():
    payload = EXAMPLES[Calibration][0].to_dict()
    del payload["i_max"]
    with pytest.raises(ConfigError, match=r"^malformed calibration: information calibration missing keys: "
                                          r"\['i_max'\]$"):
        Calibration.from_dict(payload)
    payload = DESIGN.to_dict()
    del payload["alpha"]
    with pytest.raises(ConfigError, match=r"^malformed design config: spending rule missing keys: \['alpha'\]$"):
        DesignConfig.from_dict(payload)


def _float_fields():
    """``(cls, field)`` of each record field that holds floats: a scalar, a tuple or a dict of them."""
    for cls in EXAMPLES:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if float in (hints[f.name], *typing.get_args(hints[f.name])):
                yield cls, f


def _holding(value, bad):
    """``value`` with ``bad`` in place of its float, or of its last one in a tuple or a dict."""
    if isinstance(value, tuple):
        return (*value[:-1], bad)
    if isinstance(value, dict):
        return {**value, list(value)[-1]: bad}
    return bad


def test_records_without_a_float_field():
    # a monitoring state's numbers are its analyses', which check themselves when it is read
    assert set(EXAMPLES) - {cls for cls, _ in _float_fields()} == {MonitoringState, CsvSchema}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("cls, f", list(_float_fields()), ids=lambda v: getattr(v, "__name__", None) or v.name)
def test_every_float_a_record_holds_is_finite(cls, f, bad, tmp_path):
    record, _ = EXAMPLES[cls]
    value = _holding(getattr(record, f.name), bad)
    payload = record.to_dict()
    payload[f.metadata.get("key", f.name)] = list(value) if isinstance(value, tuple) else value
    path = tmp_path / "record.json"
    path.write_text(json.dumps(payload))  # json writes NaN, Infinity and -Infinity, and reads them back
    if f.metadata.get("infinite") and bad > 0:  # an infinite critical value: written as null, read as null or Infinity
        infinite = dataclasses.replace(record, **{f.name: value})
        assert infinite.to_dict()[f.name] is None
        assert cls.read(path) == cls.from_dict(infinite.to_dict()) == infinite
        return
    rule = (f"{f.name} must be >= 0, got -inf" if f.metadata.get("infinite") and bad < 0
            else f"{f.name} must be finite, got {value!r}")
    with pytest.raises(cls._error, match=rf"^{re.escape(rule)}$"):
        dataclasses.replace(record, **{f.name: value})
    with pytest.raises(cls._error, match=rf"^{re.escape(f'{path}: malformed {cls._what}: {rule}')}$"):
        cls.read(path)


def test_a_nested_record_checks_itself_when_read(tmp_path):
    payload = EXAMPLES[MonitoringState][0].to_dict()
    payload["analyses"][0]["z"] = math.nan
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(StateError, match=rf"^{re.escape(str(path))}: malformed monitoring state: malformed analysis "
                                         r"record: z must be finite, got nan$"):
        MonitoringState.read(path)
