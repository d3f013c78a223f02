"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths:
resolvents are summed as Neumann series instead of LU-inverted, the
exponential is a raw Taylor sum, the double-factorial series uses exact
integer double factorials with explicit matrix powers, and cut vertices
come from brute-force enumeration of simple paths or from one BFS per
question instead of the library's separation table. The reference_* triple
checks at the end are the library's former scalar loops, kept to pin the
vectorized checks to the exact reports those loops gave,
reference_embedding_csv is the library's former CSV writer, kept to pin
export_embedding's bytes, reference_invert is the library's former
Gauss-Jordan loop, kept to pin invert's bytes, and reference_matrices is
the library's former build_matrices, kept to pin the bytes of the
matrices a graph caches.
"""

from __future__ import annotations

import csv
from collections import deque

import numpy as np

from graphprox import (
    DEFAULT_TOL,
    PropertyReport,
    WeightedGraph,
    is_symmetric,
)
from graphprox.linalg import _SINGULAR_PIVOT, SingularMatrixError, _as_square


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
    """Raw Taylor series sum_k a^k / k!."""
    n = a.shape[0]
    term = np.eye(n)
    total = np.eye(n)
    for k in range(1, max_terms):
        term = term @ a / k
        total += term
        if np.abs(term).max() < tol:
            return total
    raise AssertionError("Taylor oracle did not converge")


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


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return (diff * diff).sum(axis=2)


# Reference triple checks: the scalar loops over every vertex triple that
# graphprox.properties replaced with per-slab numpy scans, kept verbatim
# (one cut-vertex BFS per triple included). Each returns the PropertyReport
# the matching check_* function must equal exactly.


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
    worst_weak = -np.inf
    weak_witness = None
    for x, y, z in _distinct_triples(n):
        v = a[x, y] + a[x, z] - a[y, z] - a[x, x]
        if v > worst_weak:
            worst_weak, weak_witness = v, (x, y, z)
    worst_strict = np.inf
    strict_witness = None
    for x in range(n):
        for y in range(n):
            if y == x:
                continue
            slack = a[x, x] + a[y, y] - 2.0 * a[x, y]
            if slack < worst_strict:
                worst_strict, strict_witness = slack, (x, y, y)
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
    worst = np.inf
    witness = None
    for x in range(n):
        for y in range(n):
            if y == x:
                continue
            margin = a[x, x] - a[x, y]
            if margin < worst:
                worst, witness = margin, (x, y)
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
    neg = float(d.min())
    if neg < -tol:
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        return PropertyReport(
            prop, holds=False, tolerance=tol,
            witness=(int(i) + 1, int(j) + 1), slack=neg, note="negative entry",
        )
    asym = float(np.abs(d - d.T).max())
    if asym > tol:
        i, j = np.unravel_index(int(np.argmax(np.abs(d - d.T))), d.shape)
        return PropertyReport(
            prop, holds=False, tolerance=tol,
            witness=(int(i) + 1, int(j) + 1), slack=asym, note="asymmetric",
        )
    diag = float(np.abs(np.diag(d)).max())
    if diag > tol:
        i = int(np.argmax(np.abs(np.diag(d))))
        return PropertyReport(
            prop, holds=False, tolerance=tol,
            witness=(i + 1, i + 1), slack=diag, note="nonzero self-distance",
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
    worst = -np.inf
    witness = None
    for x, y, z in _distinct_triples(n):
        v = d[x, z] - d[x, y] - d[y, z]
        if v > worst:
            worst, witness = v, (x, y, z)
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
    (relative slack), with equality exactly when j separates i from k.
    Equality detection at relative tolerance is cross-checked against the
    cut-vertex predicate in both directions."""
    a = np.asarray(s, dtype=float)
    if a.min() <= 0:
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        raise ValueError(
            f"check_transitional requires strictly positive entries; "
            f"entry ({int(i) + 1},{int(j) + 1}) = {a[i, j]:.6g}"
        )
    n = a.shape[0]
    worst = -np.inf
    witness = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rel = (a[i, j] * a[j, k] - a[i, k] * a[j, j]) / (a[i, k] * a[j, j])
                if rel > worst:
                    worst, witness = rel, (i, j, k)
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
        "transitional", holds=True, tolerance=tol, slack=float(worst),
        indeterminate=boundary_cases,
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
    if a.min() < -tol:
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        return PropertyReport(
            "sqrt_distance", holds=False, tolerance=tol,
            witness=(int(i) + 1, int(j) + 1), slack=float(a.min()),
            note="negative entry, no square-root distance exists",
        )
    root = np.sqrt(np.clip(a, 0.0, None))
    return _reference_metric_axioms(root, tol, "sqrt_distance", require_separation=False)


def reference_embedding_csv(coords: np.ndarray, path: str) -> None:
    """export_embedding's former csv.writer output, kept verbatim."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(coords.shape[1])])
        for row in coords:
            writer.writerow([repr(float(v)) for v in row])


def reference_invert(m: np.ndarray) -> np.ndarray:
    """linalg.invert's former Gauss-Jordan loop, kept verbatim."""
    a = _as_square(m)
    n = a.shape[0]
    sym = is_symmetric(a)
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        p = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[p, col]) <= _SINGULAR_PIVOT:
            raise SingularMatrixError(col, abs(aug[p, col]))
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
