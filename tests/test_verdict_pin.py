"""Verdict pin: every audit outcome on the test corpus, frozen.

verdict_pin.json was recorded with the in-package Jacobi eigensolver
before the eigensolver moved to LAPACK. It holds, for each corpus graph
and each measure at the parameter listed under "params", the reports of
'--check all' plus the log_* checks. Verdicts, witnesses, indeterminate
flags and notes must match exactly; slacks to a relative 1e-9, since a
different eigensolver or summation order moves them in the last digits.

A witness is the first candidate in C order whose value lies within the
rounding floor of the extreme, so that rounding cannot move it between
tied candidates. "moved" keeps the witnesses the pin held before that
rule, each of which must be such a tie behind the pinned one.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from graphprox import compute_kernel, run_audit
from graphprox.audit import default_checks
from graphprox.kernels import MEASURES, SYMMETRIC_MEASURES

from oracles import floor_of

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
    expected = {f"{g.name} {m}" for g in corpus for m in MEASURES}
    assert set(PIN["cases"]) == expected


@pytest.mark.parametrize("measure", MEASURES)
def test_verdicts_match_pin(corpus, measure):
    param = PIN["params"][measure]
    for g in corpus:
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


def tie_values(kres, prop: str, slack: float, witness: tuple[int, ...]):
    """The values of prop's inequality at the 1-based witness, with the
    extremes they must lie within floor of, and the floor."""
    n = kres.matrix.shape[0]
    x, y, *rest = (v - 1 for v in witness)
    if prop == "egocentrism":
        k = kres.matrix
        return [k[x, x] - k[x, y]], [slack], floor_of(n, np.abs(k).max())
    if prop == "sigma_proximity":
        rows = kres.matrix.sum(axis=1)
        return [rows[x], rows[y]], [rows.max(), rows.min()], floor_of(n, np.abs(rows).max())
    (z,) = rest
    if prop == "transitional":
        s = kres.matrix
        rel = (s[x, y] * s[y, z] - s[x, z] * s[y, y]) / (s[x, z] * s[y, y])
        return [rel], [slack], floor_of(n, 1.0 + slack)
    if prop == "log_metric":
        d = kres.log_dist
        return [d[x, z] - d[x, y] - d[y, z]], [slack], floor_of(n, np.abs(d).max())
    if prop == "log_proximity":
        k = kres.log_similarity
        return [k[x, y] + k[x, z] - k[y, z] - k[x, x]], [slack], floor_of(n, np.abs(k).max())
    raise AssertionError(f"no tie test for {prop}")


@pytest.mark.parametrize("row", sorted(PIN["moved"]))
def test_moved_witness_is_a_tie_behind_the_pinned_one(corpus, row):
    name, measure, prop = row.split()
    (g,) = [g for g in corpus if g.name == name]
    kres = compute_kernel(g, measure, PIN["params"][measure])
    (pinned,) = [
        dict(zip(PIN["fields"], r)) for r in PIN["cases"][f"{name} {measure}"] if r[0] == prop
    ]
    new, old = tuple(pinned["witness"]), tuple(PIN["moved"][row])
    assert new < old  # the pinned witness comes first in C order
    for witness in (new, old):
        values, extremes, floor = tie_values(kres, prop, pinned["slack"], witness)
        for value, extreme in zip(values, extremes):
            assert abs(value - extreme) <= floor, (witness, value, extreme, floor)
