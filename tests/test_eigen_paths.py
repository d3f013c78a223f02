"""Each eigenvalue check symmetrizes a matrix at most once.

linalg._min_eigenvalues takes an exactly symmetric stack and forms no
symmetrization of its own. check_psd symmetrizes the matrices it finds
symmetric only to their rounding floor; sym_psd's (K + K^T) / 2, the
centered Gram matrices of sq_euclidean and the logarithmic similarities
of log_psd are formed exactly symmetric. sym_psd decides its matrix
through check_psd's eigenvalue core without testing its symmetry again,
and it and the log_* checks must report what the public check reports
on the same matrix under their own names, margin included.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from graphprox import (
    check_distance_order,
    check_metric,
    check_proximity,
    check_psd,
    compute_kernel,
    find_threshold,
    is_symmetric,
    properties,
    run_audit,
    run_check,
)
from graphprox.audit import default_checks
from graphprox.kernels import MEASURES, SYMMETRIC_MEASURES
from graphprox.linalg import _rounding_floor

PIN = json.loads((Path(__file__).parent / "verdict_pin.json").read_text(encoding="utf-8"))
LOG_CHECKS = ["log_metric", "log_proximity", "log_psd", "log_order"]


def audit_checks(measure: str, n: int) -> list[str]:
    """'--check all' plus the log_* checks that apply at order n."""
    checks = default_checks(measure in SYMMETRIC_MEASURES, n) + LOG_CHECKS
    return checks if n == 4 else checks[:-1]


def exactly_symmetric(a: np.ndarray) -> bool:
    """Whether each matrix of the stack a equals its transpose bit for bit."""
    bits = np.ascontiguousarray(a).view(np.uint64)
    return np.array_equal(bits, bits.transpose(0, 2, 1))


@pytest.fixture
def eigen_stacks(monkeypatch):
    """The stacks the property checks hand the eigensolver, each with
    whether it was exactly symmetric."""
    seen = []
    real = properties._min_eigenvalues

    def recorded(a):
        seen.append((a.shape, exactly_symmetric(a)))
        return real(a)

    monkeypatch.setattr(properties, "_min_eigenvalues", recorded)
    return seen


def test_audits_hand_the_eigensolver_exactly_symmetric_stacks(corpus, eigen_stacks):
    for g in corpus:
        measures = [(m, PIN["params"][m]) for m in MEASURES]
        for measure in measures:
            run_audit(g, [measure], checks=audit_checks(measure[0], g.n))
        run_audit(g, measures, checks=audit_checks("ppr", g.n))  # one stack per check
    assert eigen_stacks
    assert [shape for shape, exact in eigen_stacks if not exact] == []


@pytest.mark.parametrize("measure, lo, hi", [("ppr", 0.9, 0.999), ("heatppr", 0.5, 8.0)])
def test_sym_psd_threshold_hands_the_eigensolver_exact_stacks(
    path4, eigen_stacks, measure, lo, hi
):
    result = find_threshold(path4, measure, "sym_psd", lo, hi, resolution=1e-3)
    assert len(eigen_stacks) == result.evaluations
    assert all(exact for _, exact in eigen_stacks)


def test_check_psd_symmetrizes_what_is_symmetric_to_its_floor(path4, eigen_stacks):
    k = compute_kernel(path4, "regL", 1.0).matrix.copy()
    k[0, 1] = np.nextafter(k[0, 1], 1.0)  # one ulp off, within the floor
    assert is_symmetric(k) and not np.array_equal(k, k.T)
    got = check_psd(k)
    want = check_psd(0.5 * (k + k.T))
    assert got == want and got.margin == want.margin
    # and in a stack beside an exactly symmetric matrix, which keeps its bits
    exact = compute_kernel(path4, "heat", 1.0).matrix
    assert check_psd(np.stack([exact, k])) == (check_psd(exact), want)
    assert all(exact for _, exact in eigen_stacks)


def test_check_psd_reads_the_floor_before_symmetrizing(eigen_stacks):
    # the largest entry belongs to a pair one ulp apart, whose average
    # rounds to the smaller: the floor is that of the matrix as given
    big = np.nextafter(2.0, 3.0)
    k = np.array([[2.0, big], [2.0, 2.0]])  # smallest eigenvalue near 0
    assert is_symmetric(k) and np.abs(0.5 * (k + k.T)).max() < big
    assert _rounding_floor(2, 2.0) < _rounding_floor(2, big)
    got = check_psd(k, 0.0)
    assert got.margin == got.slack + _rounding_floor(2, big)
    assert got.margin != got.slack + _rounding_floor(2, 2.0)
    assert all(exact for _, exact in eigen_stacks)


def outcome(fn):
    """fn()'s report, or the type and message of its error."""
    try:
        return fn()
    except (ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_named_checks_report_what_the_public_check_reports(corpus, tol):
    for g in corpus:
        for measure in MEASURES:
            kres = compute_kernel(g, measure, PIN["params"][measure])
            k = kres.matrix
            public = {
                "sym_psd": lambda: check_psd(0.5 * (k + k.T), tol),
                "log_psd": lambda: check_psd(kres.log_similarity, tol),
                "log_proximity": lambda: check_proximity(kres.log_similarity, tol),
                "log_metric": lambda: check_metric(kres.log_dist, tol),
            }
            if g.n == 4:
                public["log_order"] = lambda: check_distance_order(kres.log_dist)
            for check, report in public.items():
                where = f"{g.name} {measure} {check}"
                want = outcome(report)
                got = outcome(lambda: run_check(check, kres, tol))
                if isinstance(want, tuple):
                    assert got == want, where
                    continue
                assert got == dataclasses.replace(want, property=check), where
                assert repr(got.margin) == repr(want.margin), where

