"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths:
resolvents are summed as Neumann series instead of LU-inverted, the
exponential is a raw Taylor sum (taylor_exp, a normwise oracle that cuts
off small entries) or, entry by entry, exact_exp's Taylor sum of the
shifted nonnegative matrix, unscaled and summed in np.longdouble or in
rationals to a remainder below 2^-60 of the smallest entry, the
double-factorial series uses exact integer double factorials with
explicit matrix powers (double_factorial_direct) or, entry by entry, is
exact_dfact's sum in np.longdouble or in rationals to the same
remainder bound, and cut vertices
come from brute-force enumeration of simple paths, from one BFS per
question or from labels_by_bfs, the library's former separation table of
one BFS per removed vertex, instead of the table it builds now from one
depth-first search. The reference_* triple checks at the end are the
library's former scalar loops, kept to pin the vectorized checks to the
exact reports those loops give. Their witnesses, the metric axioms'
negative-entry, asymmetric and self-distance witnesses among them,
follow the rounding-floor rule, from a constant of their own: the
witness is the first candidate in C order within 8 n eps times the
operands' size of the extreme, and the slack is the extreme.
reference_embedding_csv is the library's former CSV writer, kept to pin
export_embedding's bytes;
reference_invert is the library's former Gauss-Jordan loop, kept as an
elimination of its own to compare the LAPACK inverse with, and
exact_invert inverts in rational arithmetic, rounding the result or,
like exact_exp and exact_dfact, returning it as Fractions;
reference_matrices is the library's former build_matrices, kept to pin
the bytes of the matrices a graph caches; and reference_relative_excess
is the library's former relative excess of the transitional check,
which formed its mask of out-of-range products on every block.
audit_document is the library's former AuditReport.to_dict, kept as a
reference for report_json's schema that does not go through its writer.
pin_corpus builds the test corpus once for both of its readers, the
corpus fixture and tests/dump_reports.py.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from collections import deque
from fractions import Fraction

import numpy as np

from graphprox import (
    DEFAULT_TOL,
    AuditReport,
    PropertyReport,
    WeightedGraph,
    builtin_graph,
    is_symmetric,
)
from graphprox.linalg import _as_square

# the absolute pivot test of reference_invert
REFERENCE_PIVOT = 1e-12
# c of the witness rounding floor c n eps |operands|
FLOOR_ULPS = 8
EPS = float(np.finfo(float).eps)


def neumann_series(n_matrix: np.ndarray, tol: float = 1e-14, max_terms: int = 200_000) -> np.ndarray:
    """Sum_k N^k, summed until the additive term max-norm drops below tol."""
    n = n_matrix.shape[0]
    term = np.eye(n)
    total = np.eye(n)
    for _ in range(max_terms):
        term = term @ n_matrix
        total += term
        if np.abs(term).max() < tol:
            return total
    raise AssertionError("Neumann oracle did not converge")


def resolvent_oracle(
    measure: str, g: WeightedGraph, param: float, rates: np.ndarray | None = None
) -> np.ndarray:
    """Series evaluation of each resolvent kernel.

    Every case is rewritten as c^-1 (I - N)^-1 with N nonnegative and
    row sums below one, so the series converges for any valid parameter.
    """
    eye = np.eye(g.n)
    if measure == "katz":
        return neumann_series(param * g.weights)
    if measure == "ppr":
        return neumann_series(param * g.markov)
    if measure == "modifppr":
        d_inv = np.diag(1.0 / np.diag(g.degree))
        return neumann_series(param * g.markov) @ d_inv
    if measure == "regL":
        c = 1.0 + param * np.diag(g.laplacian).max()
        n_mat = ((c - 1.0) * eye - param * g.laplacian) / c
        return neumann_series(n_mat) / c
    if measure == "absorp":
        a = np.ones(g.n) if rates is None else np.asarray(rates, dtype=float)
        h = (param * a + np.diag(g.laplacian)).max()
        n_mat = eye - (param * np.diag(a) + g.laplacian) / h
        return neumann_series(n_mat) / h
    raise ValueError(f"{measure} is not a resolvent kernel")


def taylor_exp(a: np.ndarray, tol: float = 1e-16, max_terms: int = 10_000) -> np.ndarray:
    """Raw Taylor series sum_k a^k / k!, summed until a term's max-norm
    drops below the absolute tol. A normwise oracle only: every entry
    smaller than about tol is cut off, and where signs mix the sum
    cancels. exact_exp is the entrywise reference."""
    n = a.shape[0]
    term = np.eye(n)
    total = np.eye(n)
    for k in range(1, max_terms):
        term = term @ a / k
        total += term
        if np.abs(term).max() < tol:
            return total
    raise AssertionError("Taylor oracle did not converge")


def exact_exp(a: np.ndarray, exact: bool = False, max_terms: int = 100_000) -> np.ndarray:
    """Entrywise reference for e^A where A's off-diagonal entries are
    nonnegative: e^-s times the Taylor sum of B = A + sI, s = -min diag(A),
    whose every term B^j / j! is nonnegative, so nothing cancels.

    The sum stops after the first K terms for which the remainder bound
    ||B||^(K+1) e^||B|| / (K+1)! (infinity norm) lies below 2^-60 times
    the smallest entry of the partial sum, so every entry is truncated by
    less than 2^-60 of itself. It is summed in np.longdouble (meaningful
    only where that type is wider than float64), or with exact=True in
    integers over one common denominator: B is dyadic, so the sum is an
    exact rational, and e^-s is a rational within 2^-80 of itself. The
    exact result is an object array of Fractions; multiplying B's powers
    through its nonzero entries only keeps long sparse paths cheap.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    shift = -float(a.diagonal().min())
    if exact:
        return _rational_exp(a, shift, max_terms)
    b = a.astype(np.longdouble) + np.longdouble(shift) * np.eye(n, dtype=np.longdouble)
    if b.min() < 0:
        raise ValueError("exact_exp requires nonnegative off-diagonal entries")
    norm = b.sum(axis=1).max()
    term = np.eye(n, dtype=np.longdouble)
    total = term.copy()
    remainder = norm * np.exp(norm)  # the bound after term K = 0
    for j in range(1, max_terms):
        if remainder < np.ldexp(total.min(), -60):
            return total * np.exp(-np.longdouble(shift))
        term = term @ b / j
        total += term
        remainder *= norm / (j + 1)
    raise AssertionError("exact_exp did not converge")


def _rational_exp(a: np.ndarray, shift: float, max_terms: int) -> np.ndarray:
    n = a.shape[0]
    fb = [[Fraction(float(v)) + (Fraction(shift) if i == j else 0) for j, v in enumerate(row)]
          for i, row in enumerate(a)]
    if min(min(row) for row in fb) < 0:
        raise ValueError("exact_exp requires nonnegative off-diagonal entries")
    # B = M / 2^e with M integer
    e = max(v.denominator.bit_length() - 1 for row in fb for v in row)
    m = [[int(v * 2**e) for v in row] for row in fb]
    nonzero = [(i, j, v) for i, row in enumerate(m) for j, v in enumerate(row) if v]
    norm = Fraction(max(sum(row) for row in m), 2**e)
    e_norm = 3 ** math.ceil(norm)  # e^||B|| < 3^ceil||B||
    # after term K: total / den is the partial sum, power = M^K
    power = np.identity(n, dtype=int).astype(object)
    total, den = power.copy(), 1
    remainder = norm * e_norm
    for k in range(1, max_terms):
        if remainder < Fraction(int(total.min()), den) / 2**60:
            break
        step = np.zeros((n, n), dtype=int).astype(object)
        for i, j, v in nonzero:
            step[:, j] += power[:, i] * v
        power = step
        total = total * (k << e) + power
        den *= k << e
        remainder *= norm / (k + 1)
    else:
        raise AssertionError("exact_exp did not converge")
    return total * (_rational_exp_scalar(shift) / den)


def _rational_exp_scalar(shift: float) -> Fraction:
    """A rational within a relative 2^-80 of e^-shift: the Taylor sum of
    e^|shift|, inverted where shift > 0."""
    x = Fraction(abs(shift))
    term, total, k = Fraction(1), Fraction(1), 0
    while True:
        k += 1
        term *= x / k
        total += term
        # past k + 1 = x the terms shrink geometrically, and the remainder
        # after term k is below term * x / (k + 1 - x)
        if k + 1 > x and term * x / (k + 1 - x) < total / 2**80:
            break
    return 1 / total if shift >= 0 else total


def exact_dfact(w: np.ndarray, t: float, exact: bool = False,
                max_terms: int = 100_000) -> np.ndarray:
    """Entrywise reference for the double-factorial series
    sum_j (tW)^j / j!! where t > 0 and W >= 0: every term is
    nonnegative, so nothing cancels.

    With x = ||tW|| (infinity norm), no entry of term j exceeds
    a_j = x^j / j!!, and a_(j+2) = a_j x^2 / (j + 2). Once K + 3 > x^2
    the remainder after term K is thus at most
    (a_(K+1) + a_(K+2)) / (1 - x^2 / (K + 3)); the sum stops after the
    first K terms for which that bound lies below 2^-60 times the
    smallest entry of the partial sum, so every entry is truncated by
    less than 2^-60 of itself. It is summed in np.longdouble (meaningful
    only where that type is wider than float64), or with exact=True in
    integers over the common denominator 2^(eK) K!, tW being M / 2^e
    with M integer. The exact result is an object array of Fractions.
    """
    if exact:
        return _rational_dfact(w, t, max_terms)
    tw = np.longdouble(t) * np.asarray(w, dtype=np.longdouble)
    if t <= 0 or tw.min() < 0:
        raise ValueError("exact_dfact requires t > 0 and nonnegative entries")
    n = tw.shape[0]
    x = tw.sum(axis=1).max()
    x2 = x * x
    tw2 = tw @ tw
    prev, last = np.eye(n, dtype=np.longdouble), tw  # terms K - 1 and K
    a_prev, a_last = np.longdouble(1), x  # a_(K-1) and a_K
    total = prev + last
    for k in range(1, max_terms):  # k = K
        a_next = a_prev * x2 / (k + 1)
        q = x2 / (k + 3)
        if q < 1 and (a_next + a_last * x2 / (k + 2)) / (1 - q) < np.ldexp(total.min(), -60):
            return total
        prev, last = last, prev @ tw2 / (k + 1)
        a_prev, a_last = a_last, a_next
        total += last
    raise AssertionError("exact_dfact did not converge")


def _rational_dfact(w: np.ndarray, t: float, max_terms: int) -> np.ndarray:
    rows = np.asarray(w, dtype=float)
    n = rows.shape[0]
    ftw = [[Fraction(t) * Fraction(float(v)) for v in row] for row in rows]
    if t <= 0 or min(min(row) for row in ftw) < 0:
        raise ValueError("exact_dfact requires t > 0 and nonnegative entries")
    # tW = M / 2^e with M integer
    e = max(v.denominator.bit_length() - 1 for row in ftw for v in row)
    m = [[int(v * 2**e) for v in row] for row in ftw]
    nonzero = [(i, j, v) for i, row in enumerate(m) for j, v in enumerate(row) if v]
    x = Fraction(max(sum(row) for row in m), 2**e)
    # after term K: total / den is the partial sum, den = 2^(eK) K!, and
    # power = M^K; term K is M^K (K-1)!! / den, as K! = K!! (K-1)!!
    power = np.identity(n, dtype=int).astype(object)
    total, den = power.copy(), 1
    for k in range(1, max_terms):
        step = np.zeros((n, n), dtype=int).astype(object)
        for i, j, v in nonzero:
            step[:, j] += power[:, i] * v
        power = step
        total = total * (k << e) + power * math.prod(range(k - 1, 0, -2))
        den *= k << e
        q = x * x / (k + 3)
        tail = sum(x**j / math.prod(range(j, 0, -2)) for j in (k + 1, k + 2))  # a_(K+1) + a_(K+2)
        if q < 1 and tail / (1 - q) < Fraction(int(total.min()), den) / 2**60:
            return total * Fraction(1, den)
    raise AssertionError("exact_dfact did not converge")


def double_factorial_direct(w: np.ndarray, t: float, max_terms: int = 500) -> np.ndarray:
    """Sum_k t^k / k!! W^k with exact integer double factorials and
    explicit matrix powers; usable for moderate t."""
    n = w.shape[0]
    total = np.zeros((n, n))
    dfact = [1, 1]
    for k in range(2, max_terms):
        dfact.append(k * dfact[k - 2])
    power = np.eye(n)
    for k in range(max_terms):
        term = (t**k / float(dfact[k])) * power
        total += term
        if k > 3 and np.abs(term).max() < 1e-18:
            return total
        power = power @ w
    raise AssertionError("double-factorial oracle did not converge")


def all_simple_paths(w: np.ndarray, i: int, k: int) -> list[list[int]]:
    paths: list[list[int]] = []

    def dfs(u: int, path: list[int]) -> None:
        if u == k:
            paths.append(list(path))
            return
        for v in np.nonzero(w[u])[0]:
            v = int(v)
            if v not in path:
                path.append(v)
                dfs(v, path)
                path.pop()

    dfs(i, [i])
    return paths


def every_path_visits(w: np.ndarray, j: int, i: int, k: int) -> bool:
    """Brute-force cut oracle: do all simple i->k paths contain j?"""
    return all(j in p for p in all_simple_paths(w, i, k))


def cut_by_bfs(g: WeightedGraph, j: int, i: int, k: int) -> bool:
    """True iff removing vertex j disconnects i from k, by one BFS from i
    over the weight matrix with j left out; independent of the separation
    table the library builds."""
    seen = {i, j}
    queue = deque([i])
    while queue:
        for v in np.flatnonzero(g.weights[queue.popleft()]).tolist():
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return k not in seen


def labels_by_bfs(g: WeightedGraph) -> np.ndarray:
    """comp[j, v]: the component label of v once vertex j is removed, by
    one BFS per removed vertex; comp[j, j] = -1. Labels count up from 0 in
    the order of each component's lowest vertex, in the narrowest signed
    type that holds them all."""
    neighbours = [np.flatnonzero(row).tolist() for row in g.weights]
    rows = []
    for j in range(g.n):
        labels = [-1] * g.n
        label = 0
        for s in range(g.n):
            if s == j or labels[s] >= 0:
                continue
            labels[s] = label
            queue = deque([s])
            while queue:
                for v in neighbours[queue.popleft()]:
                    if v != j and labels[v] < 0:
                        labels[v] = label
                        queue.append(v)
            label += 1
        rows.append(labels)
    return np.array(rows, dtype=np.min_scalar_type(-max(g.n, 1)))


def random_connected_graph(rng: np.random.Generator, n: int, name: str) -> WeightedGraph:
    """Random spanning tree plus extra edges, weights uniform in [0.1, 3]."""
    w = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        w[u, v] = w[v, u] = rng.uniform(0.1, 3.0)
    for i in range(n):
        for j in range(i + 1, n):
            if w[i, j] == 0 and rng.random() < 0.3:
                w[i, j] = w[j, i] = rng.uniform(0.1, 3.0)
    return WeightedGraph(w, name=name)


def pin_corpus() -> list[WeightedGraph]:
    """The test corpus, which the verdict pin and the report dump read:
    paper:path4, paper:path5, the unit triangle, and 20 seeded random
    connected graphs with n <= 7 and weights in (0, 3]."""
    rng = np.random.default_rng(20260808)
    graphs = [builtin_graph("paper:path4"), builtin_graph("paper:path5")]
    graphs.append(WeightedGraph(np.ones((3, 3)) - np.eye(3), name="triangle"))
    for idx in range(20):
        graphs.append(random_connected_graph(rng, 3 + idx % 5, name=f"random{idx}"))
    return graphs


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return (diff * diff).sum(axis=2)


# Reference triple checks: the scalar loops over every vertex triple that
# graphprox.properties replaced with per-slab numpy scans, kept verbatim
# (one cut-vertex BFS per triple included). Each returns the PropertyReport
# the matching check_* function must equal exactly.


def first_near_max(scan, floor: float):
    """The largest value of scan, a list of (value, witness) in C order,
    as a strict `>` loop finds it (NaN never wins), and the first witness
    whose value lies within floor of it."""
    worst, witness = -np.inf, None
    for v, w in scan:
        if v > worst:
            worst, witness = v, w
    cut = worst - floor
    if not cut <= worst:  # inf - inf
        cut = worst
    return worst, next((w for v, w in scan if v >= cut), witness)


def first_near_min(scan, floor: float):
    """first_near_max for the smallest value."""
    worst, witness = first_near_max([(-v, w) for v, w in scan], floor)
    return -worst, witness


def floor_of(n: int, scale: float) -> float:
    return FLOOR_ULPS * n * EPS * scale


def _distinct_triples(n: int):
    for x in range(n):
        for y in range(n):
            if y == x:
                continue
            for z in range(n):
                if z == x or z == y:
                    continue
                yield x, y, z


def reference_proximity(k: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Triangle inequality for proximities:
    k(x,y) + k(x,z) - k(y,z) <= k(x,x) over all ordered triples, strict
    when z = y != x."""
    a = np.asarray(k, dtype=float)
    if not is_symmetric(a):
        raise ValueError("check_proximity requires a symmetric matrix")
    n = a.shape[0]
    floor = floor_of(n, np.abs(a).max())
    worst_weak, weak_witness = first_near_max(
        [
            (a[x, y] + a[x, z] - a[y, z] - a[x, x], (x, y, z))
            for x, y, z in _distinct_triples(n)
        ],
        floor,
    )
    worst_strict, strict_witness = first_near_min(
        [
            (a[x, x] + a[y, y] - 2.0 * a[x, y], (x, y, y))
            for x in range(n)
            for y in range(n)
            if y != x
        ],
        floor,
    )
    weak_fail = worst_weak > tol
    strict_fail = worst_strict < tol
    indeterminate = (0.5 * tol <= worst_weak <= 2.0 * tol) or (
        0.0 <= worst_strict <= 2.0 * tol
    )
    if weak_fail:
        x, y, z = weak_witness
        return PropertyReport(
            "proximity", holds=False, tolerance=tol,
            witness=(x + 1, y + 1, z + 1), slack=float(worst_weak),
            indeterminate=indeterminate,
            note="k(x,y)+k(x,z)-k(y,z)-k(x,x) at witness (x,y,z)",
        )
    if strict_fail:
        x, y, z = strict_witness
        return PropertyReport(
            "proximity", holds=False, tolerance=tol,
            witness=(x + 1, y + 1, z + 1), slack=float(worst_strict),
            indeterminate=indeterminate,
            note="strictness margin k(x,x)+k(y,y)-2k(x,y) at witness (x,y,y)",
        )
    return PropertyReport(
        "proximity", holds=True, tolerance=tol,
        slack=None if weak_witness is None else float(worst_weak),
        indeterminate=indeterminate,
    )


def reference_egocentrism(k: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Strict entrywise diagonal dominance: k(x,x) > k(x,y) for x != y."""
    a = np.asarray(k, dtype=float)
    n = a.shape[0]
    worst, witness = first_near_min(
        [(a[x, x] - a[x, y], (x, y)) for x in range(n) for y in range(n) if y != x],
        floor_of(n, np.abs(a).max()),
    )
    if witness is None:  # 1x1 matrix
        return PropertyReport("egocentrism", holds=True, tolerance=tol)
    x, y = witness
    return PropertyReport(
        "egocentrism",
        holds=worst > tol,
        tolerance=tol,
        witness=None if worst > tol else (x + 1, y + 1),
        slack=float(worst),
        indeterminate=0.0 <= worst <= 2.0 * tol,
        note="diagonal dominance margin k(x,x)-k(x,y)",
    )


def _reference_metric_axioms(
    d: np.ndarray, tol: float, prop: str, require_separation: bool = True
) -> PropertyReport:
    n = d.shape[0]
    floor = floor_of(n, np.abs(d).max())
    pairs = [(x, y) for x in range(n) for y in range(n)]
    neg, (i, j) = first_near_min([(d[x, y], (x, y)) for x, y in pairs], floor)
    if neg < -tol:
        return PropertyReport(
            prop, holds=False, tolerance=tol,
            witness=(i + 1, j + 1), slack=float(neg), note="negative entry",
        )
    asym, (i, j) = first_near_max([(abs(d[x, y] - d[y, x]), (x, y)) for x, y in pairs], floor)
    if asym > tol:
        return PropertyReport(
            prop, holds=False, tolerance=tol,
            witness=(i + 1, j + 1), slack=float(asym), note="asymmetric",
        )
    diag, i = first_near_max([(abs(d[x, x]), x) for x in range(n)], floor)
    if diag > tol:
        return PropertyReport(
            prop, holds=False, tolerance=tol,
            witness=(i + 1, i + 1), slack=float(diag), note="nonzero self-distance",
        )
    if require_separation:
        for x in range(n):
            for y in range(x + 1, n):
                if d[x, y] <= tol:
                    return PropertyReport(
                        prop, holds=False, tolerance=tol,
                        witness=(x + 1, y + 1), slack=float(d[x, y]),
                        note="distinct vertices at zero distance",
                    )
    worst, witness = first_near_max(
        [(d[x, z] - d[x, y] - d[y, z], (x, y, z)) for x, y, z in _distinct_triples(n)],
        floor,
    )
    if witness is None:  # n < 3: nothing to check
        return PropertyReport(prop, holds=True, tolerance=tol)
    x, y, z = witness
    holds = worst <= tol
    return PropertyReport(
        prop,
        holds=holds,
        tolerance=tol,
        witness=None if holds else (x + 1, y + 1, z + 1),
        slack=float(worst),
        indeterminate=0.5 * tol <= worst <= 2.0 * tol,
        note="triangle excess d(x,z)-d(x,y)-d(y,z) at worst (x,y,z)",
    )


def reference_metric(d: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """The four metric axioms: nonnegativity, symmetry, identity of
    indiscernibles, and the triangle inequality over all ordered triples."""
    return _reference_metric_axioms(np.asarray(d, dtype=float), tol, "metric")


def reference_transitional(
    s: np.ndarray, g: WeightedGraph, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Transitional-measure test: s_ij s_jk <= s_ik s_jj for all triples
    with i != j and j != k, where the excess is not 0 by construction
    (relative slack, None on a pass for n < 3), with equality exactly
    when j separates i from k. Equality detection at relative tolerance
    is cross-checked against the cut-vertex predicate in both
    directions."""
    a = np.asarray(s, dtype=float)
    if a.min() <= 0:
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        raise ValueError(
            f"check_transitional requires strictly positive entries; "
            f"entry ({int(i) + 1},{int(j) + 1}) = {a[i, j]:.6g}"
        )
    n = a.shape[0]
    scan = [
        ((a[i, j] * a[j, k] - a[i, k] * a[j, j]) / (a[i, k] * a[j, j]), (i, j, k))
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if i != j and j != k
    ]
    worst = first_near_max(scan, 0.0)[0]
    # the excess is relative: its operands are 1 and 1 + worst
    worst, witness = first_near_max(scan, floor_of(n, 1.0 + max(worst, 0.0)))
    if worst > tol:
        i, j, k = witness
        return PropertyReport(
            "transitional", holds=False, tolerance=tol,
            witness=(i + 1, j + 1, k + 1), slack=float(worst),
            indeterminate=worst <= 2.0 * tol,
            note="relative excess of s(i,j)s(j,k) over s(i,k)s(j,j)",
        )
    boundary_cases = False
    for i, j, k in _distinct_triples(n):
        rel = (a[i, j] * a[j, k] - a[i, k] * a[j, j]) / (a[i, k] * a[j, j])
        equal = abs(rel) <= tol
        boundary_cases = boundary_cases or 0.5 * tol <= abs(rel) <= 2.0 * tol
        cut = cut_by_bfs(g, j, i, k)
        if equal and not cut:
            return PropertyReport(
                "transitional", holds=False, tolerance=tol,
                witness=(i + 1, j + 1, k + 1), slack=float(rel),
                note="product equality although j does not separate i from k",
            )
        if cut and not equal:
            return PropertyReport(
                "transitional", holds=False, tolerance=tol,
                witness=(i + 1, j + 1, k + 1), slack=float(rel),
                note="j separates i from k but products differ",
            )
    return PropertyReport(
        "transitional", holds=True, tolerance=tol,
        slack=None if n < 3 else float(worst), indeterminate=boundary_cases,
    )


def reference_cutpoint_additive(
    d: np.ndarray, g: WeightedGraph, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """d(i,j) + d(j,k) = d(i,k) exactly when j separates i from k, both
    directions checked on every ordered triple."""
    a = np.asarray(d, dtype=float)
    boundary_cases = False
    for i, j, k in _distinct_triples(a.shape[0]):
        gap = a[i, j] + a[j, k] - a[i, k]
        additive = abs(gap) <= tol
        boundary_cases = boundary_cases or 0.5 * tol <= abs(gap) <= 2.0 * tol
        cut = cut_by_bfs(g, j, i, k)
        if additive and not cut:
            return PropertyReport(
                "cutpoint_additive", holds=False, tolerance=tol,
                witness=(i + 1, j + 1, k + 1), slack=float(gap),
                note="additive although j does not separate i from k",
            )
        if cut and not additive:
            return PropertyReport(
                "cutpoint_additive", holds=False, tolerance=tol,
                witness=(i + 1, j + 1, k + 1), slack=float(gap),
                note="j separates i from k but d(i,j)+d(j,k) != d(i,k)",
            )
    return PropertyReport(
        "cutpoint_additive", holds=True, tolerance=tol, indeterminate=boundary_cases
    )


def reference_sqrt_distance(d: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Necessary-condition filter for proximities: d must be entrywise
    nonnegative and its entrywise square root must satisfy the triangle
    inequality. Coinciding points are allowed (an all-zero d passes)."""
    a = np.asarray(d, dtype=float)
    n = a.shape[0]
    neg, (i, j) = first_near_min(
        [(a[x, y], (x, y)) for x in range(n) for y in range(n)], floor_of(n, np.abs(a).max())
    )
    if neg < -tol:
        return PropertyReport(
            "sqrt_distance", holds=False, tolerance=tol,
            witness=(i + 1, j + 1), slack=float(neg),
            note="negative entry, no square-root distance exists",
        )
    root = np.sqrt(np.clip(a, 0.0, None))
    return _reference_metric_axioms(root, tol, "sqrt_distance", require_separation=False)


def reference_relative_excess(a: np.ndarray, xs: slice) -> np.ndarray:
    """(s_ij s_jk - s_ik s_jj) / (s_ik s_jj) for first indices xs, with
    expm1 of the log form where either product is not a normal float."""
    with np.errstate(over="ignore", under="ignore"):
        num = a[xs, :, None] * a
        den = a[xs, None, :] * np.diag(a)[:, None]
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    x, j, k = np.nonzero(~((num >= tiny) & (num <= huge) & (den >= tiny) & (den <= huge)))
    num[x, j, k] = den[x, j, k] = 1.0
    rel = (num - den) / den
    if x.size:
        ln, i = np.log(a), x + xs.start
        rel[x, j, k] = np.expm1((ln[i, j] + ln[j, k]) - (ln[i, k] + ln[j, j]))
    return rel


def reference_embedding_csv(coords: np.ndarray, path: str) -> None:
    """export_embedding's former csv.writer output, kept verbatim."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(coords.shape[1])])
        for row in coords:
            writer.writerow([repr(float(v)) for v in row])


def reference_invert(m: np.ndarray) -> np.ndarray:
    """linalg.invert's former Gauss-Jordan loop with partial pivoting;
    raises ZeroDivisionError where the best pivot is at most
    REFERENCE_PIVOT in magnitude."""
    a = _as_square(m)
    n = a.shape[0]
    sym = is_symmetric(a)
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        p = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[p, col]) <= REFERENCE_PIVOT:
            raise ZeroDivisionError(f"pivot {aug[p, col]:.3e} at elimination column {col}")
        if p != col:
            aug[[col, p]] = aug[[p, col]]
        aug[col] /= aug[col, col]
        factors = aug[:, col].copy()
        factors[col] = 0.0
        aug -= np.outer(factors, aug[col])
    inv = aug[:, n:]
    if sym:
        inv = 0.5 * (inv + inv.T)
    return inv


def exact_invert(m: np.ndarray, exact: bool = False) -> np.ndarray:
    """The exact inverse of m, a float matrix or an object array of
    Fractions, by Gauss-Jordan over Fractions: each entry rounded once to
    the nearest float, or with exact=True the object array of Fractions
    itself."""
    n = m.shape[0]
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        p = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[p] = aug[p], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    if exact:
        return np.array([row[n:] for row in aug], dtype=object)
    return np.array([[float(v) for v in row[n:]] for row in aug])


def reference_matrices(g: WeightedGraph) -> dict[str, np.ndarray]:
    """The library's former build_matrices, kept verbatim: W, D, L, the
    normalized Laplacian and the Markov matrix, by name."""
    w = np.array(g.weights)
    d = w.sum(axis=1)
    # Connectivity with n >= 2 guarantees every degree is positive.
    degree = np.diag(d)
    laplacian = degree - w
    inv_sqrt = np.diag(1.0 / np.sqrt(d))
    norm_laplacian = inv_sqrt @ laplacian @ inv_sqrt
    norm_laplacian = 0.5 * (norm_laplacian + norm_laplacian.T)
    markov = w / d[:, None]
    return {
        "weights": w,
        "degree": degree,
        "laplacian": laplacian,
        "norm_laplacian": norm_laplacian,
        "markov": markov,
    }


# the keys of a check's object: PropertyReport's compared fields
_CHECK_KEYS = tuple(f.name for f in dataclasses.fields(PropertyReport) if f.compare)


def audit_document(report: AuditReport) -> dict:
    """The library's former AuditReport.to_dict, kept with its own
    encoder: the report's schema-2 document, where an infinite end of a
    parameter domain, and an infinite value of a check or one in the
    tuples it holds, is None, and each of those tuples is a list."""

    def enc(value):
        if isinstance(value, float) and math.isinf(value):
            return None
        if isinstance(value, tuple):
            return [enc(v) for v in value]
        return value

    return {
        "schema_version": 2,
        "tool": "graphprox",
        "tool_version": report.tool_version,
        "graph": report.graph,
        "n": report.n,
        "tolerance": report.tolerance,
        "results": [
            {
                "measure": r.measure,
                "param": r.param,
                "param_domain": [enc(r.param_domain[0]), enc(r.param_domain[1])],
                "symmetric": r.symmetric,
                "checks": [{k: enc(getattr(c, k)) for k in _CHECK_KEYS} for c in r.checks],
            }
            for r in report.results
        ],
    }
