"""Verdict pin: every audit outcome on the test corpus, frozen.

verdict_pin.json was recorded with the in-package Jacobi eigensolver
before the eigensolver moved to LAPACK. It holds, for each corpus graph
and each measure at the parameter listed under "params", the reports of
'--check all' plus the log_* checks. Verdicts, witnesses, indeterminate
flags and notes must match exactly; slacks to a relative 1e-9, since a
different eigensolver or summation order moves them in the last digits.
"""

import json
from pathlib import Path

import pytest

from graphprox import run_audit
from graphprox.audit import default_checks
from graphprox.kernels import MEASURES, SYMMETRIC_MEASURES

PIN = json.loads((Path(__file__).parent / "verdict_pin.json").read_text(encoding="utf-8"))


# The measure's flag, not KernelResult.symmetric, picks the checks, so
# the pin keeps sym_psd on the triangle for ppr and heatppr, whose
# matrices there are symmetric and whose '--check all' now omits it.
def pinned_checks(measure: str, n: int) -> list[str]:
    checks = default_checks(measure in SYMMETRIC_MEASURES, n)
    checks += ["log_metric", "log_proximity", "log_psd"]
    if n == 4:
        checks.append("log_order")
    return checks


def test_pin_covers_corpus_and_measures(corpus):
    assert list(PIN["params"]) == list(MEASURES)
    expected = {f"{g.name} {m}" for g, _ in corpus for m in MEASURES}
    assert set(PIN["cases"]) == expected


@pytest.mark.parametrize("measure", MEASURES)
def test_verdicts_match_pin(corpus, measure):
    param = PIN["params"][measure]
    for g, _ in corpus:
        report = run_audit(g, [(measure, param)], checks=pinned_checks(measure, g.n))
        got = report.results[0].checks
        want = [dict(zip(PIN["fields"], row)) for row in PIN["cases"][f"{g.name} {measure}"]]
        assert [c.property for c in got] == [w["property"] for w in want]
        for c, w in zip(got, want):
            where = f"{g.name} {measure}:{param} {c.property}"
            assert c.holds == w["holds"], where
            assert c.witness == (None if w["witness"] is None else tuple(w["witness"])), where
            assert c.indeterminate == w["indeterminate"], where
            assert c.note == w["note"], where
            if w["slack"] is None:
                assert c.slack is None, where
            else:
                assert c.slack == pytest.approx(w["slack"], rel=1e-9), where
