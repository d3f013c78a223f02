"""The two in-house series entry by entry against their references:
matrix_exp against exact_exp, and dfact against exact_dfact.

The matrices of comm, heat, nheat and heatppr have nonnegative
off-diagonal entries. On them every entry of matrix_exp's result must
match the reference to a relative n eps (m + 2^k), m being its Taylor
degree and k its number of squarings, however small the entry is, as
long as it is a normal float. A squaring doubles the relative error it
is handed, so 2^k, not k, multiplies the rounding of the polynomial: a
relative n eps (m + k) fails on 4 % of these draws, by up to 8 times at
t near 150 (k = 14).

Every term of dfact's series is nonnegative too, and every normal entry
of its kernel must match the reference to the relative (n + 3) k eps
its docstring states, k being the last term the series sums.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphprox import WeightedGraph, double_factorial, matrix_exp

from oracles import EPS, exact_dfact, exact_exp, random_connected_graph

DEGREE = 18  # matrix_exp's Taylor degree m
TINY = float(np.finfo(float).tiny)
HUGE = float(np.finfo(float).max)
WIDE_LONGDOUBLE = float(np.finfo(np.longdouble).eps) < 1e-18


def exp_input(g: WeightedGraph, measure: str, t: float) -> np.ndarray:
    """The matrix whose exponential is the kernel of measure at t."""
    return {
        "comm": lambda: t * g.weights,
        "heat": lambda: -t * g.laplacian,
        "nheat": lambda: -t * g.norm_laplacian,
        "heatppr": lambda: -t * (np.eye(g.n) - g.markov),
    }[measure]()


def squarings(a: np.ndarray) -> int:
    """k: the fewest squarings with d^(m+1) / (2^(km) (m+1)!) <= 2^-60,
    d = max(||A + sI||_inf, n - 1), s = -min diag(A)."""
    n = a.shape[0]
    b = a - np.diag(a).min() * np.eye(n)
    d = max(float(np.abs(b).sum(axis=1).max()), n - 1.0)
    k = 0
    while d ** (DEGREE + 1) / (2.0 ** (k * DEGREE) * math.factorial(DEGREE + 1)) > 2.0**-60:
        k += 1
    return k


def tolerance(a: np.ndarray) -> float:
    return a.shape[0] * EPS * (DEGREE + 2 ** squarings(a))


def path(n: int) -> WeightedGraph:
    w = np.zeros((n, n))
    i = np.arange(n - 1)
    w[i, i + 1] = w[i + 1, i] = 1.0
    return WeightedGraph(w, name=f"path{n}")


def relative_errors(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """|got - want| / want entry by entry, in want's arithmetic; got may
    be float64 or longdouble."""
    if want.dtype == object:
        return np.array([[float(abs(Fraction(*x.as_integer_ratio()) - y) / y)
                          for x, y in zip(gr, wr)] for gr, wr in zip(got, want)])
    return np.asarray(np.abs(got - want) / want, dtype=float)


@pytest.mark.skipif(not WIDE_LONGDOUBLE, reason="np.longdouble is no wider than float64")
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    measure=st.sampled_from(["comm", "heat", "nheat", "heatppr"]),
    log_t=st.floats(math.log(1e-3), math.log(150.0)),
)
def test_every_normal_entry_matches_the_reference(n, seed, measure, log_t):
    g = random_connected_graph(np.random.default_rng(seed), n, name="g")
    a = exp_input(g, measure, math.exp(log_t))
    want = exact_exp(a)
    if want.max() > HUGE:
        with pytest.raises(OverflowError, match="overflowed float64"):
            matrix_exp(a)
        return
    if want.max() > HUGE / 2**20:
        return  # the squarings may overflow just below the top of the range
    got = matrix_exp(a)
    normal = want >= TINY
    assert relative_errors(got[normal], want[normal]).max() <= tolerance(a)
    assert (got[~normal] < TINY).all()


@pytest.mark.parametrize("n,t,smallest", [(20, 0.1, 6.8e-37), (40, 1.0, 7.1e-48)])
def test_unit_path_heat_against_rationals(n, t, smallest):
    # with the former absolute cut-off of 1e-18 on a term's max-norm, every
    # entry of path20 heat:0.1 beyond graph distance 15 was 0 (relative
    # error 1), and path40 heat:1 erred by 3.9e-6 at its smallest entries
    a = exp_input(path(n), "heat", t)
    want = exact_exp(a, exact=True)
    got = matrix_exp(a)
    assert float(want[0, n - 1]) == pytest.approx(smallest, rel=0.01)
    assert got[0, n - 1] == pytest.approx(smallest, rel=0.01)
    errors = relative_errors(got, want)
    assert errors.max() <= min(tolerance(a), 1e-13)


@pytest.mark.skipif(not WIDE_LONGDOUBLE, reason="np.longdouble is no wider than float64")
def test_longdouble_and_rational_references_agree(triangle, path4):
    for g in (triangle, path4):
        for measure in ("comm", "heat", "nheat", "heatppr"):
            a = exp_input(g, measure, 0.7)
            rel = relative_errors(exact_exp(a), exact_exp(a, exact=True))
            assert rel.max() < 1e-17


def test_reference_rejects_negative_off_diagonal_entries():
    a = np.array([[0.0, -1.0], [-1.0, 0.0]])
    for exact in (False, True):
        with pytest.raises(ValueError, match="nonnegative off-diagonal"):
            exact_exp(a, exact=exact)


def dfact_terms(tw: np.ndarray) -> int:
    """k: the last term the double-factorial series of tw sums. It runs
    through term n - 1 and stops at the first later k where terms k - 1
    and k are both at most 2^-60 of the partial sum, entry by entry;
    here on longdouble terms."""
    n = tw.shape[0]
    tw = tw.astype(np.longdouble)
    tw2 = tw @ tw
    prev2, prev1 = np.eye(n, dtype=np.longdouble), tw
    total = prev2 + prev1
    for k in itertools.count(2):
        cur = prev2 @ tw2 / k
        total += cur
        if k >= n - 1 and (np.maximum(prev1, cur) <= np.ldexp(total, -60)).all():
            return k
        prev2, prev1 = prev1, cur


def dfact_tolerance(tw: np.ndarray) -> float:
    return (tw.shape[0] + 3) * dfact_terms(tw) * EPS


@pytest.mark.skipif(not WIDE_LONGDOUBLE, reason="np.longdouble is no wider than float64")
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    log_t=st.floats(math.log(1e-3), math.log(5.0)),
)
def test_every_normal_dfact_entry_matches_the_reference(n, seed, log_t):
    g = random_connected_graph(np.random.default_rng(seed), n, name="g")
    t = math.exp(log_t)
    want = exact_dfact(g.weights, t)
    if want.max() > HUGE:
        with pytest.raises(OverflowError, match="overflowed float64"):
            double_factorial(g, t)
        return
    if want.max() > HUGE / 2**20:
        return  # a term times (tW)^2 may overflow just below the top of the range
    got = double_factorial(g, t).matrix
    normal = want >= TINY
    assert relative_errors(got[normal], want[normal]).max() <= dfact_tolerance(t * g.weights)
    assert (got[~normal] < TINY).all()


@pytest.mark.parametrize("n,t,corner", [(20, 0.1, 1.541e-28), (40, 0.5, 7.22e-36),
                                        (40, 1.0, 8.19e-24)])
def test_unit_path_dfact_against_rationals(n, t, corner):
    # where the series stopped once a term's max-norm fell below an
    # absolute 1e-16, the corner entries of path20 dfact:0.1 and path40
    # dfact:0.5 were 0 (relative error 1), and path40 dfact:1 erred by
    # 1.9e-2 at its smallest entries
    g = path(n)
    want = exact_dfact(g.weights, t, exact=True)
    got = double_factorial(g, t).matrix
    assert float(want[0, n - 1]) == pytest.approx(corner, rel=1e-3)
    assert got[0, n - 1] == pytest.approx(corner, rel=1e-3)
    errors = relative_errors(got, want)
    assert errors.max() <= min(dfact_tolerance(t * g.weights), 1e-13)


@pytest.mark.skipif(not WIDE_LONGDOUBLE, reason="np.longdouble is no wider than float64")
def test_longdouble_and_rational_dfact_references_agree(triangle, path4):
    for g in (triangle, path4):
        rel = relative_errors(exact_dfact(g.weights, 0.7), exact_dfact(g.weights, 0.7, exact=True))
        assert rel.max() < 1e-17


def test_dfact_reference_rejects_negative_entries():
    w = np.array([[0.0, -1.0], [-1.0, 0.0]])
    for exact in (False, True):
        with pytest.raises(ValueError, match="nonnegative entries"):
            exact_dfact(w, 0.5, exact=exact)
