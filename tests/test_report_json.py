"""report_json writes the bytes json.dumps(doc, indent=2, sort_keys=True)
gives for a report's document, and raises TypeError exactly where
json.dumps does. The reference documents do not go through report_json:
an audit report's is oracles.audit_document, with an encoder of its own,
and a threshold result's is dataclasses.asdict. AuditReport.to_dict,
the written text parsed, gives the reference document, and from_dict
reads it back.

The drawn reports reach every corner the schema allows: NaN, +-inf, -0.0,
subnormal and 17-digit floats; witnesses that are None, empty or 2-4
vertices long; strings with quotes, backslashes, control characters and
non-ASCII text; params and tolerances given as int, float or numpy
float64; parameter domains with an infinite end.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from graphprox import (
    AuditReport,
    MeasureAudit,
    PropertyReport,
    ThresholdResult,
    find_threshold,
    report_json,
    run_audit,
)
from oracles import audit_document

SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
    1e308, -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 1e-9, 123456789.01234567,
]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
numbers = st.one_of(
    st.integers(-(2**70), 2**70), floats, floats.map(np.float64)
)
texts = st.text(
    st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé \U0001f600'), st.characters())
)
witnesses = st.one_of(
    st.none(), st.just(()), st.lists(st.integers(1, 10**6), min_size=2, max_size=4).map(tuple)
)


def audit_reports(floats, numbers):
    """Audit reports whose float fields are drawn from floats, and whose
    params and tolerance from numbers."""
    checks = st.builds(
        PropertyReport,
        property=texts,
        holds=st.booleans(),
        tolerance=floats,
        witness=witnesses,
        slack=st.one_of(st.none(), floats),
        sigma=st.one_of(st.none(), floats),
        indeterminate=st.booleans(),
        note=st.one_of(st.none(), texts),
    )
    measures = st.builds(
        MeasureAudit,
        measure=texts,
        param=numbers,
        param_domain=st.tuples(floats, st.one_of(st.just(math.inf), floats)),
        symmetric=st.booleans(),
        checks=st.lists(checks, max_size=15).map(tuple),
    )
    return st.builds(
        AuditReport,
        graph=texts,
        n=st.integers(0, 10**4),
        tolerance=numbers,
        tool_version=texts,
        results=st.lists(measures, max_size=3).map(tuple),
    )


reports = audit_reports(floats, numbers)
# Reports the JSON holds losslessly: no NaN, which no parse gives back as
# the same object, and no infinity but a domain's upper end, which from_dict
# reads back from null.
finite = st.one_of(
    st.sampled_from([x for x in SPECIAL_FLOATS if math.isfinite(x)]),
    st.floats(allow_nan=False, allow_infinity=False),
)
lossless_reports = audit_reports(
    finite, st.one_of(st.integers(-(2**70), 2**70), finite, finite.map(np.float64))
)
thresholds = st.builds(
    ThresholdResult,
    measure=texts,
    property=texts,
    bracket_low=floats,
    bracket_high=floats,
    direction=st.sampled_from(["holds_below", "holds_above"]),
    evaluations=st.integers(0, 10**6),
    resolution=st.one_of(st.just(math.inf), floats),
    monotonic_assumed=st.booleans(),
)


def document(report) -> dict:
    if isinstance(report, AuditReport):
        return audit_document(report)
    return dataclasses.asdict(report)


def dumped(report) -> str:
    return json.dumps(document(report), indent=2, sort_keys=True)


def same_document(report: AuditReport) -> bool:
    """Whether to_dict gives the reference document; compared as text,
    as a NaN never equals itself."""
    return json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
        audit_document(report), sort_keys=True
    )


@given(reports)
def test_audit_report_bytes_match_json_dumps(report):
    assert report_json(report) == dumped(report)
    assert same_document(report)


@given(lossless_reports)
def test_audit_report_round_trips(report):
    assert AuditReport.from_dict(report.to_dict()) == report


@given(thresholds)
def test_threshold_result_bytes_match_json_dumps(result):
    assert report_json(result) == dumped(result)


def test_real_reports_match(path4):
    report = run_audit(path4, [("regL", 1.0), ("ppr", 0.9), ("katz", 0.2)], checks=["all"])
    assert report_json(report) == dumped(report)
    assert AuditReport.from_dict(report.to_dict()) == report
    result = find_threshold(path4, "heat", "proximity", 0.1, 1.0)
    assert report_json(result) == dumped(result)


def test_threshold_result_to_dict_is_its_document(path4):
    result = find_threshold(path4, "katz", "order:13<14", 0.3, 0.385)
    assert report_json(result) == json.dumps(result.to_dict(), indent=2, sort_keys=True)


# Values outside the schema: json.dumps takes some (containers, a plain
# int for a float) and rejects the rest with TypeError.
ODD_VALUES = [
    np.int64(3), np.float32(0.5), np.bool_(True), object(), b"bytes", {1, 2}, 1 + 2j,
    7, True, None, "text", np.float64(-math.inf), -math.inf,
    ("a", math.inf, [math.inf, (math.inf,)]), [math.nan, ("x", -math.inf)],
    {"k": (1.0, math.inf), "j": []}, (), [], {},
]
AUDIT_SLOTS = ["graph", "n", "tolerance", "tool_version", "measure", "param",
               "domain_low", "domain_high", "symmetric", "property", "note"]
THRESHOLD_SLOTS = [f.name for f in dataclasses.fields(ThresholdResult)]


def placed(slot: str, value) -> AuditReport:
    """A one-check report with value in slot."""
    check = PropertyReport("psd", holds=True, tolerance=1e-9, slack=0.5, note="n")
    if slot in ("property", "note"):
        check = dataclasses.replace(check, **{slot: value})
    measure = MeasureAudit("regL", 1.0, (0.0, math.inf), True, (check,))
    if slot == "domain_low":
        measure = dataclasses.replace(measure, param_domain=(value, math.inf))
    elif slot == "domain_high":
        measure = dataclasses.replace(measure, param_domain=(0.0, value))
    elif slot in ("measure", "param", "symmetric"):
        measure = dataclasses.replace(measure, **{slot: value})
    report = AuditReport("g", 4, 1e-9, "0.1.0", (measure,))
    if slot in ("graph", "n", "tolerance", "tool_version"):
        report = dataclasses.replace(report, **{slot: value})
    return report


def outcome(write, report):
    try:
        return write(report)
    except TypeError:
        return TypeError


def test_audit_report_raises_where_json_dumps_does():
    for slot, value in itertools.product(AUDIT_SLOTS, ODD_VALUES):
        report = placed(slot, value)
        written = outcome(report_json, report)
        assert written == outcome(dumped, report), (slot, value)
        parsed = outcome(AuditReport.to_dict, report)
        assert (parsed is TypeError) == (written is TypeError), (slot, value)
    assert outcome(report_json, placed("param", np.int64(1))) is TypeError
    assert outcome(AuditReport.to_dict, placed("param", np.int64(1))) is TypeError


def test_threshold_result_raises_where_json_dumps_does():
    result = ThresholdResult("heat", "proximity", 0.4, 0.5, "holds_below", 9, 1e-4)
    for slot, value in itertools.product(THRESHOLD_SLOTS, ODD_VALUES):
        odd = dataclasses.replace(result, **{slot: value})
        assert outcome(report_json, odd) == outcome(dumped, odd), (slot, value)

