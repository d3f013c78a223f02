"""Property checks with explicit witnesses.

Every check returns a PropertyReport. Witness vertex indices are 1-based
to match file and report conventions; the numeric slack is the value of
the defining inequality at the witness, so a reported violation can be
reproduced by re-evaluating it there.

Every check takes one matrix, or a stack (B, n, n) or sequence of
matrices of one size, for which it returns a tuple of reports. Each
numpy operation then runs once over the stack, and validation, rounding
floors, extremes and witnesses are taken matrix by matrix with the
operands and operation order of one matrix, so each report is the one
that matrix gets on its own; a stack raises an error that one of its
matrices raises on its own. One matrix is checked as a stack of one.
Loops over the matrices index the stack rather than iterate it: numpy
ends an iteration by raising and formatting an IndexError, which costs
more than a small check does.

The triple checks (proximity, the metric and square-root triangles,
transitional and cutpoint_additive) share one walker, _walk_triples. It
forms a check's values over blocks of (matrix, first index) pairs, each
one (k, b, n, n) numpy array of at most 2^15 entries (256 KB of
float64). A block holds as many whole matrices as fit, which they do for
n <= 32; larger n takes each matrix in consecutive blocks of first
indices, O(n^3) work in bounded memory. Each term is formed with the
operands and operation order of the defining inequality, so a report
equals the one a scalar loop over all triples would give. The walker
runs the cut-vertex test on the blocks it forms, so transitional forms
each block of relative excesses once for both its largest excess and its
cut-vertex test, and skips that test for a matrix once an excess beyond
tol is known. Transitional forms the mask of products that are not
normal floats only on a block whose extreme products, bounded by the
extremes of its rows and of its matrices, leave the normal range, and
then over the whole block at once: a matrix whose products are all
normal keeps the linear form there, as it does alone. Its repeated
triples i = j and j = k, whose excess is 0 by construction, are filled
with -inf, as proximity and the metric family fill all of theirs, so a
passing slack is the largest excess over the other triples (None for
n < 3) and no witness names one; i = k != j stays, as s_ij s_ji <=
s_ii s_jj is a real instance of the inequality.

The same scan certifies cutpoint_additive, by Chebotarev's graph
bottleneck identity: for a positive s, d = log_distance(s) has
d_ij + d_jk - d_ik = -(ln(1 + rel_ijk) + ln(1 + rel_kji)) / 2, with rel
transitional's relative excess. Where transitional passes at tol and no
distinct triple has |rel| in [tol/2 - w, 2 tol + w], with
w = tol^2 + _rounding_floor(n, 2 + 2 max|ln s|), check_cutpoint_additive
passes d with no triple near its boundary; _transitional returns, beside
its reports, the report check_cutpoint_additive gives d there, built by
that check's own _cutpoint_pass, for the audit to keep. Its cut-vertex
scan forms the mask of that widened band in place of [tol/2, 2 tol], and
the narrower one only for a matrix with a value in the wider. A mismatch
of the cut-vertex scan fails either check through one _separation_report.

The metric family, metric and sqrt_distance (and so the audit's
log_metric), splits a stack once, in _distance_axioms: a negative entry
of d decides a matrix first; the matrices that pass get d's transform
(the identity, or the square root), on which asymmetry, a nonzero
self-distance and, for metric, distinct vertices at zero distance decide
more; one walk of the triangle inequality decides the rest.

Proximity and metric are one inequality (family T1): for a symmetric K
and its pair distance d, metric's excess d(x,z) - d(x,y) - d(y,z) at
(x, y, z) is proximity's k(y,x) + k(y,z) - k(x,z) - k(y,y) at (y, x, z).
So proximity's walk of K, _t1_excess, is the T1 walk: where its report
holds, its slack is metric's largest triangle excess of d. _metric
applies that rule itself: given each matrix's proximity report, it reads
the slack of each report that holds as the top of _distance_axioms,
which then checks only the O(n^2) axioms of d and walks exactly the
matrices without a known top; every other matrix, failing or
asymmetric, walks d, and so gets its witness in metric's own order. The
audit's metric takes that one route; the public check_metric gives no
reports and so always walks d.

Candidates that tie in exact arithmetic can differ in their last bits,
and which one rounding favours depends on operation order and on the
BLAS kernel. So the slack is the extreme of the inequality, and the
witness is the first candidate in C order, (x, y, z) or (x, y), whose
value lies within the rounding floor of that extreme (_rounding_floor:
8 n eps times the size of the inequality's operands), the metric axioms'
negative-entry, asymmetric and self-distance witnesses too. The walker
keeps each block's extreme and searches only the first block of a matrix
that reaches the band, so the witness does not depend on the block size;
it searches only where the report fails, its extreme beyond tol, so a
passing walk forms no block twice. The eigenvalue
checks decide against max(tol, floor), the floor of the operands of the
matrix whose eigenvalues they read; where that floor exceeds tol, a
negative smallest eigenvalue within twice the floor is indeterminate, as
rounding cannot resolve its sign. The floor, that bound and DEFAULT_TOL
live in linalg, whose gram_factor shares them.

The eigensolver reads exactly symmetric matrices, and each matrix is
symmetrized once at most: check_psd symmetrizes the matrices it finds
symmetric only to their rounding floor, reading their floor before it
does, and passes exactly symmetric ones as they are, while the centered
Gram matrices of sq_euclidean and the audit's sym_psd matrix
(K + K^T) / 2 are formed exactly symmetric.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import WeightedGraph, separation_labels
from .linalg import DEFAULT_TOL, _eigen_bound, _max_abs_each, _min_eigenvalues
from .linalg import _require_nonempty, _require_symmetric, _rounding_floor, _symmetrized
from .linalg import _symmetry_gaps
from .transforms import _HUGE, _TINY, _centered_gram, _normal, _require_positive

__all__ = [
    "PropertyReport",
    "DEFAULT_TOL",
    "check_psd",
    "check_proximity",
    "check_sigma_proximity",
    "check_egocentrism",
    "check_metric",
    "check_sq_euclidean",
    "check_transitional",
    "check_cutpoint_additive",
    "check_distance_order",
    "check_sqrt_distance",
]

# Entries per block of (matrix, first index) pairs: large enough that a
# matrix with n <= 32 is one block, small enough that each temporary stays
# cache-sized. On a 2-vCPU Xeon a budget of 2^18 made the checks 1.2-3x
# slower at n = 80 and 160.
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check.

    holds          the property was satisfied at the given tolerance
    witness        1-based vertex indices locating a violation (None if holds)
    slack          value of the deciding inequality at the witness
    sigma          common row sum, for the normalization check
    indeterminate  the deciding slack sits within one tolerance of the
                   pass/fail boundary, so the verdict is a coin toss at
                   this precision
    note           short human-readable qualifier
    margin         signed distance of the deciding value from the bound
                   the verdict was decided against, >= 0 where the
                   property holds; set by the eigenvalue checks, None
                   elsewhere. find_threshold steps on it. It is in neither
                   the JSON form nor equality.
    """

    property: str
    holds: bool
    tolerance: float
    witness: tuple[int, ...] | None = None
    slack: float | None = None
    sigma: float | None = None
    indeterminate: bool = False
    note: str | None = None
    margin: float | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        # numpy scalars serialize badly and break equality after a JSON
        # round trip; pin plain Python types
        object.__setattr__(self, "holds", bool(self.holds))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "indeterminate", bool(self.indeterminate))
        if self.witness is not None:
            object.__setattr__(self, "witness", tuple(int(v) for v in self.witness))
        if self.slack is not None:
            object.__setattr__(self, "slack", float(self.slack))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", float(self.sigma))


def _per_matrix(check):
    """The public form of check, which takes a stack (B, n, n), B >= 1, of
    square matrices and returns one report per matrix: given one matrix,
    it returns its report; given a stack or a sequence of matrices, a
    tuple of their reports, empty for an empty stack."""

    @functools.wraps(check)
    def public(k, *args, **kwargs):
        a = np.asarray(k, dtype=float)
        if a.ndim == 2 and a.shape[0] == a.shape[1]:
            return check(a[None], *args, **kwargs)[0]
        if a.ndim == 3 and a.shape[1] == a.shape[2]:
            return tuple(check(a, *args, **kwargs)) if len(a) else ()
        raise ValueError(
            f"{check.__name__} expects a square matrix or a stack of them, got shape {a.shape}"
        )

    return public


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is negative, NaN or infinite; every public
    check that takes one calls this first."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def _require_finite(a: np.ndarray, check: str) -> None:
    """Reject the stack a if one of its matrices is empty or has an entry
    that is not finite; the error names the first such entry."""
    _require_nonempty(a[0], check)
    bad = ~np.isfinite(a)
    if bad.any():
        idx = int(bad.argmax())
        _, i, j = np.unravel_index(idx, a.shape)
        raise ValueError(
            f"{check} requires finite entries; "
            f"entry ({i + 1},{j + 1}) = {a.flat[idx]}"
        )


def _take(a: np.ndarray, rows: list[int]) -> np.ndarray:
    """The matrices rows of the stack a, without a copy where that is all."""
    return a if len(rows) == len(a) else a[rows]


def _floors(a: np.ndarray) -> list[float]:
    """The rounding floor of each matrix, or row, of the stack a, from its
    entries."""
    n = a.shape[1]
    return [_rounding_floor(n, size) for size in _max_abs_each(a)]


def _blocks(n: int):
    """Consecutive ranges of first indices whose (b, n, n) blocks hold at
    most _BLOCK_ENTRIES entries, or one index each when a slab is larger."""
    b = max(1, _BLOCK_ENTRIES // max(1, n * n))
    for x in range(0, n, b):
        yield slice(x, min(x + b, n))


def _stack_blocks(count: int, n: int):
    """Blocks (ms, xs) of a stack of count n x n matrices: the matrices ms
    and first indices xs whose (k, b, n, n) array holds at most
    _BLOCK_ENTRIES entries. Where a matrix's n^3 entries fit, a block is
    as many whole matrices as fit; else it is one matrix, taken in turn by
    the first indices of _blocks(n)."""
    per = _BLOCK_ENTRIES // max(1, n**3)
    if per:
        for m in range(0, count, per):
            yield slice(m, min(m + per, count)), slice(0, n)
    else:
        for m in range(count):
            for xs in _blocks(n):
                yield slice(m, m + 1), xs


def _fill_repeats(v: np.ndarray, xs: slice, value, outer: bool = True) -> np.ndarray:
    """Write value to each entry of block v (first indices xs, and any
    leading matrix axes) whose x, y, z are not all distinct, or, where
    not outer, to those with x = y or y = z only, and return v. In C
    order, entry (x, y, z) of matrix m lies ((m b + x - s) n + y) n + z
    items into the block, s = xs.start, so each of v[x, x, :], v[x, :, x]
    and v[:, y, y] is one strided view of it, written at once. Any other
    v is copied to C order first."""
    v = np.ascontiguousarray(v)
    b, n = v.shape[-3], v.shape[-1]
    item, s = v.itemsize, xs.start
    shape = (v.size // (b * n * n), b, n)  # matrix, first index, free index
    # start, first-index step and free-index step, in items, of x = y,
    # x = z and y = z
    views = ((s * n, n * n + n, 1), (s, n * n + 1, n), (0, n * n, n + 1))
    for start, x_step, step in views if outer else views[::2]:
        strides = (b * n * n * item, x_step * item, step * item)
        np.ndarray(shape, v.dtype, v, start * item, strides).fill(value)
    return v


@functools.lru_cache(maxsize=None)
def _upper(n: int) -> np.ndarray:
    """The read-only n x n mask of the entries above the diagonal."""
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    upper.setflags(write=False)
    return upper


def _triple(xs: slice, idx: int, n: int) -> tuple[int, int, int]:
    """0-based (x, y, z) of the C-order flat index idx in block xs."""
    x, yz = divmod(idx, n * n)
    return (xs.start + x, *divmod(yz, n))


def _band(extreme: float, floor: float) -> float:
    """The lower end of the band of values within floor of the largest
    value extreme (extreme itself where the difference is NaN: an
    infinite extreme with an infinite floor)."""
    cut = extreme - floor
    return cut if cut <= extreme else extreme


def _walk_triples(
    a: np.ndarray, form, tol: float, floor=None, g: WeightedGraph | None = None, widths=None
):
    """Walk every triple of each matrix of the stack a, one block of
    _stack_blocks at a time; form(a[ms], xs) is the (k, b, n, n) block of
    values of the matrices ms and first indices xs. Returns, per matrix,
    (top, witness, mismatch, near, wide).

    Given floor, top is the largest value, NaN aside (-inf if there is
    none), and, only where top exceeds tol, witness is the first
    (x, y, z) in C order whose value lies within floor(m, top) of it;
    else None, as a report that holds names no witness. Only the first
    block of the matrix whose top reaches the band is searched, formed
    again unless it is the last, so the witness does not depend on the
    block size; a NaN value is never in the band. Given the graph g,
    mismatch, near and wide are those of _separation_scan at tol, with
    each matrix's widening widths[m] (0 without widths), over the blocks
    of a matrix until it has a mismatch or a top beyond tol. A matrix with
    a mismatch and no floor is formed no further.
    """
    count, n = a.shape[:2]
    tops, witness = [-math.inf] * count, [None] * count
    mismatch, near, wide = [None] * count, [False] * count, [False] * count
    seen = [[] for _ in range(count)]  # (top, xs) of each block of each matrix
    comp = None
    for ms, xs in _stack_blocks(count, n):
        if floor is None and mismatch[ms.start] is not None:  # a later block of a decided matrix
            continue
        block = range(ms.start, ms.stop)
        v = form(a[ms], xs)
        if floor is not None:
            for m, top in zip(block, np.fmax.reduce(v.reshape(len(v), -1), axis=1).tolist()):
                top = -math.inf if top != top else top
                seen[m].append((top, xs))
                tops[m] = max(tops[m], top)
        scan = [] if g is None else [
            i for i, m in enumerate(block) if mismatch[m] is None and tops[m] <= tol
        ]
        if scan:
            if comp is None:
                comp = separation_labels(g)
            ws = None if widths is None else [widths[ms.start + i] for i in scan]
            for i, found in zip(scan, _separation_scan(_take(v, scan), xs, comp, tol, ws)):
                m = ms.start + i
                mismatch[m] = found[0]
                near[m], wide[m] = near[m] or found[1], wide[m] or found[2]
        if floor is None or xs.stop < n:
            continue
        for i, m in enumerate(block):
            if tops[m] > tol:
                cut = _band(tops[m], floor(m, tops[m]))
                first = next(s for top, s in seen[m] if top >= cut)
                w = v[i] if first == xs else form(a[m:m + 1], first)[0]
                witness[m] = _triple(first, int((w >= cut).argmax()), n)
    return list(zip(tops, witness, mismatch, near, wide))


def _t1_excess(a: np.ndarray, xs: slice) -> np.ndarray:
    """The T1 block of the symmetric stack a for first indices xs:
    proximity's excess v[x, y, z] = k(x,y) + k(x,z) - k(y,z) - k(x,x),
    left to right, and -inf where x, y, z are not all distinct."""
    diag = a.diagonal(0, 1, 2)
    v = ((a[:, xs, :, None] + a[:, xs, None, :]) - a[:, None]) - diag[:, xs, None, None]
    return _fill_repeats(v, xs, -np.inf)


def _triangle_excess(a: np.ndarray, xs: slice) -> np.ndarray:
    """The triangle block of the stack a of distances for first indices
    xs: v[x, y, z] = d(x,z) - d(x,y) - d(y,z), left to right, and -inf
    where x, y, z are not all distinct."""
    return _fill_repeats((a[:, xs, None, :] - a[:, xs, :, None]) - a[:, None], xs, -np.inf)


def _first_max(v: np.ndarray, floor: float) -> tuple[float, int]:
    """Largest entry of v and the first C-order flat index whose entry
    lies within floor of it. NaN never wins; a result of -inf means
    nothing was found."""
    return _first_max_each(v[None], [floor])[0]


def _first_max_each(v: np.ndarray, floors: list[float]) -> list[tuple[float, int]]:
    """_first_max of each v[i], with floor floors[i], in one pass over the
    stack."""
    flat = v.reshape(len(v), -1)
    tops = [-np.inf if top != top else top for top in np.fmax.reduce(flat, axis=1).tolist()]
    cuts = np.array([_band(top, floor) for top, floor in zip(tops, floors)])
    return list(zip(tops, (flat >= cuts[:, None]).argmax(axis=1).tolist()))


def _first_min(v: np.ndarray, floor: float) -> tuple[float, int]:
    """Smallest entry of v, as _first_max; +inf means nothing was found."""
    val, idx = _first_max(-v, floor)
    return -val, idx


def _off_diagonal_minima(v: np.ndarray, floors: list[float]) -> list[tuple[float, int]]:
    """_first_min of each matrix v[i] of the stack v over its entries off
    the diagonal, with floor floors[i]; (+inf, 0) for a 1 x 1 matrix."""
    neg = -v
    neg.reshape(len(v), -1)[:, ::v.shape[1] + 1] = -np.inf  # the diagonal
    return [(-val, idx) for val, idx in _first_max_each(neg, floors)]


def _asymmetry_report(
    prop: str, a: np.ndarray, tol: float, note: str = "matrix is not symmetric"
) -> PropertyReport:
    """prop fails on the asymmetric float matrix a; the slack is the
    largest |a - a^T| entry."""
    return PropertyReport(
        prop, holds=False, tolerance=tol, slack=float(np.abs(a - a.T).max()), note=note
    )


def _eigen_reports(
    prop: str, a: np.ndarray, tol: float, note: str, scales: list[float]
) -> list[PropertyReport]:
    """prop of each matrix of the symmetric stack a: it holds when the
    smallest eigenvalue is at least -_eigen_bound(n, scale, tol), with
    scale the size of the operands that matrix was formed from; the slack
    is that eigenvalue, and the margin that eigenvalue plus the bound.
    Where the floor exceeds tol, rounding cannot resolve the sign of an
    eigenvalue within it, so every negative one within twice the floor
    is indeterminate."""
    reports = []
    for min_eig, scale in zip(_min_eigenvalues(a), scales):
        bound = _eigen_bound(a.shape[1], scale, tol)
        if bound > tol:
            indeterminate = -2.0 * bound <= min_eig < 0.0
        else:
            indeterminate = -2.0 * bound <= min_eig <= -0.5 * bound
        reports.append(PropertyReport(
            prop,
            holds=min_eig >= -bound,
            tolerance=tol,
            slack=min_eig,
            indeterminate=indeterminate,
            note=note,
            margin=min_eig + bound,
        ))
    return reports


@_per_matrix
def check_psd(k: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Positive semidefiniteness. Asymmetric input is reported as not PSD
    outright; it is never silently symmetrized. Of a stack or sequence
    of matrices, a tuple of reports, one per matrix."""
    _check_tol(tol)
    _require_finite(k, "check_psd")
    gaps = _symmetry_gaps(k)
    rows = [m for m, gap in enumerate(gaps) if gap is not None]
    reports = iter(_psd_reports("psd", _take(k, rows), tol, not any(gaps[m] for m in rows))
                   if rows else ())
    return [
        next(reports) if gaps[m] is not None else _asymmetry_report(
            "psd", k[m], tol, "matrix is not symmetric, hence not positive semidefinite"
        )
        for m in range(len(k))
    ]


def _psd_reports(prop: str, a: np.ndarray, tol: float, exact: bool = True) -> list[PropertyReport]:
    """prop, the PSD verdict, of each matrix of the stack a, which is
    symmetric to its rounding floor, and exactly so where exact. The floor
    is read from a as given; a stack that is not exact is symmetrized
    here, once, as the eigensolver needs it exactly symmetric."""
    scales = _max_abs_each(a)
    return _eigen_reports(
        prop, a if exact else _symmetrized(a), tol, "smallest eigenvalue", scales
    )


@_per_matrix
def check_proximity(k: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Triangle inequality for proximities:
    k(x,y) + k(x,z) - k(y,z) <= k(x,x) over all ordered triples, strict
    when z = y != x. Of a stack or sequence of matrices, a tuple of
    reports, one per matrix."""
    _check_tol(tol)
    _require_finite(k, "check_proximity")
    _require_symmetric(k, "check_proximity")
    n = k.shape[1]
    diag = k.diagonal(0, 1, 2)
    floors = _floors(k)
    weak = _walk_triples(k, _t1_excess, tol, lambda m, top: floors[m])
    strict = _off_diagonal_minima((diag[:, :, None] + diag[:, None, :]) - 2.0 * k, floors)
    return [
        _proximity_report(n, tol, top, witness, *s)
        for (top, witness, *_), s in zip(weak, strict)
    ]


def _proximity_report(
    n: int, tol: float, worst_weak: float, weak_witness, worst_strict: float, strict_idx: int
) -> PropertyReport:
    """check_proximity's report of one matrix from its weak and strict scans."""
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
        x, y = divmod(strict_idx, n)
        return PropertyReport(
            "proximity", holds=False, tolerance=tol,
            witness=(x + 1, y + 1, y + 1), slack=float(worst_strict),
            indeterminate=indeterminate,
            note="strictness margin k(x,x)+k(y,y)-2k(x,y) at witness (x,y,y)",
        )
    return PropertyReport(
        "proximity", holds=True, tolerance=tol,
        slack=None if n < 3 else float(worst_weak),
        indeterminate=indeterminate,
    )


@_per_matrix
def check_sigma_proximity(k: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Proximity plus the normalization condition: all row sums equal.
    Reports the common row sum as sigma when they do. Of a stack or
    sequence of matrices, a tuple of reports, one per matrix."""
    _check_tol(tol)
    _require_nonempty(k[0], "check_sigma_proximity")
    return _sigma_proximity(k, check_proximity(k, tol), tol)


def _sigma_proximity(
    a: np.ndarray, proxs: tuple[PropertyReport, ...], tol: float
) -> list[PropertyReport]:
    """check_sigma_proximity of each matrix of the float stack a, given
    proxs, their check_proximity reports at tol."""
    n = a.shape[1]
    rows = a.sum(axis=2)
    spreads = (rows.max(axis=1) - rows.min(axis=1)).tolist()
    means = (rows.sum(axis=1) / n).tolist()  # each as rows[m].mean() forms it
    reports = []
    for m, prox in enumerate(proxs):
        spread = spreads[m]
        normalized = spread <= tol
        sigma = means[m] if normalized else None
        if not prox.holds:
            reports.append(PropertyReport(
                "sigma_proximity", holds=False, tolerance=tol,
                witness=prox.witness, slack=prox.slack, sigma=sigma,
                indeterminate=prox.indeterminate, note="not a proximity",
            ))
        elif not normalized:
            floor = _floors(rows[m:m + 1])[0]
            hi, lo = _first_max(rows[m], floor)[1], _first_min(rows[m], floor)[1]
            reports.append(PropertyReport(
                "sigma_proximity", holds=False, tolerance=tol,
                witness=(hi + 1, lo + 1), slack=spread,
                note="row-sum spread between witness rows",
            ))
        else:
            reports.append(PropertyReport(
                "sigma_proximity", holds=True, tolerance=tol, sigma=sigma,
                indeterminate=prox.indeterminate,
            ))
    return reports


@_per_matrix
def check_egocentrism(k: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Strict entrywise diagonal dominance: k(x,x) > k(x,y) for x != y. Of
    a stack or sequence of matrices, a tuple of reports, one per matrix."""
    _check_tol(tol)
    _require_finite(k, "check_egocentrism")
    n = k.shape[1]
    found = _off_diagonal_minima(k.diagonal(0, 1, 2)[:, :, None] - k, _floors(k))
    reports = []
    for worst, idx in found:
        if worst == np.inf:  # 1x1 matrix
            reports.append(PropertyReport("egocentrism", holds=True, tolerance=tol))
            continue
        x, y = divmod(idx, n)
        reports.append(PropertyReport(
            "egocentrism",
            holds=worst > tol,
            tolerance=tol,
            witness=None if worst > tol else (x + 1, y + 1),
            slack=float(worst),
            indeterminate=0.0 <= worst <= 2.0 * tol,
            note="diagonal dominance margin k(x,x)-k(x,y)",
        ))
    return reports


def _distance_axioms(
    d: np.ndarray, tol: float, prop: str, note: str, transform, require_separation: bool,
    tops=None,
) -> list[PropertyReport]:
    """prop of each matrix of the stack d: it fails at a negative entry of
    d below -tol (note names it); else the other metric axioms decide it
    on transform of d, which only the matrices left undecided get: the
    symmetry, a zero self-distance, distinct vertices apart where
    require_separation, and then, in one walk, the triangle inequality.
    Where tops gives a matrix's largest triangle excess, known to be
    within tol, it is read instead of walked; a top of None, or no tops,
    leaves the matrix to the walk."""
    n = d.shape[1]
    reports: list[PropertyReport | None] = [None] * len(d)
    for m, neg in enumerate(d.min(axis=(1, 2)).tolist()):
        if neg < -tol:
            i, j = divmod(_first_min(d[m], _floors(d[m:m + 1])[0])[1], n)
            reports[m] = PropertyReport(
                prop, holds=False, tolerance=tol, witness=(i + 1, j + 1), slack=neg, note=note
            )
    rest = [m for m, r in enumerate(reports) if r is None]
    t = transform(_take(d, rest))
    floors = _floors(t)
    gap = np.abs(t - t.transpose(0, 2, 1))
    self_dist = np.abs(t.diagonal(0, 1, 2))
    close = (t <= tol) & _upper(n) if require_separation else None
    asyms, diags = gap.max(axis=(1, 2)).tolist(), self_dist.max(axis=1).tolist()
    undecided = []
    for i, m in enumerate(rest):
        if asyms[i] > tol:
            x, y = divmod(_first_max(gap[i], floors[i])[1], n)
            reports[m] = PropertyReport(
                prop, holds=False, tolerance=tol,
                witness=(x + 1, y + 1), slack=asyms[i], note="asymmetric",
            )
        elif diags[i] > tol:
            x = _first_max(self_dist[i], floors[i])[1]
            reports[m] = PropertyReport(
                prop, holds=False, tolerance=tol,
                witness=(x + 1, x + 1), slack=diags[i], note="nonzero self-distance",
            )
        elif close is not None and close[i].any():
            x, y = divmod(int(close[i].argmax()), n)
            reports[m] = PropertyReport(
                prop, holds=False, tolerance=tol,
                witness=(x + 1, y + 1), slack=float(t[i, x, y]),
                note="distinct vertices at zero distance",
            )
        else:
            undecided.append(i)
    walk = [i for i in undecided if tops is None or tops[rest[i]] is None]
    walked = dict(zip(walk, _walk_triples(
        _take(t, walk), _triangle_excess, tol, lambda k, top: floors[walk[k]]
    )))
    for i in undecided:
        worst, witness, *_ = walked[i] if i in walked else (tops[rest[i]], None)
        if n < 3:  # no distinct triples: nothing to check
            reports[rest[i]] = PropertyReport(prop, holds=True, tolerance=tol)
            continue
        holds = worst <= tol
        reports[rest[i]] = PropertyReport(
            prop,
            holds=holds,
            tolerance=tol,
            witness=None if holds else tuple(v + 1 for v in witness),
            slack=float(worst),
            indeterminate=0.5 * tol <= worst <= 2.0 * tol,
            note="triangle excess d(x,z)-d(x,y)-d(y,z) at worst (x,y,z)",
        )
    return reports


@_per_matrix
def check_metric(d: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """The four metric axioms: nonnegativity, symmetry, identity of
    indiscernibles, and the triangle inequality over all ordered triples.
    Of a stack or sequence of matrices, a tuple of reports, one per
    matrix."""
    return _metric(d, tol)


def _metric(d: np.ndarray, tol: float, t1=None) -> list[PropertyReport]:
    """check_metric of each matrix of the stack d, which applies the T1
    rule itself. t1 gives, per matrix, the proximity report of the kernel
    whose pair distance it is; one that holds is of a symmetric kernel,
    and its slack, the largest T1 excess, is the matrix's largest
    triangle excess, so only the O(n^2) axioms of d are checked. Every
    other matrix, its kernel failing proximity or asymmetric, and every
    matrix without t1, is walked, and so gets its witness in metric's own
    order."""
    _check_tol(tol)
    _require_finite(d, "check_metric")
    tops = None if t1 is None else [r.slack if r.holds else None for r in t1]
    return _distance_axioms(d, tol, "metric", "negative entry", lambda a: a, True, tops)


@_per_matrix
def check_sq_euclidean(
    d: np.ndarray, tol: float = DEFAULT_TOL, scale: float = 0.0
) -> PropertyReport:
    """Realizability of d as squared Euclidean distances: the doubly
    centered matrix -H d H must be PSD. d must be symmetric with a zero
    diagonal, both to its own rounding floor 8 n eps max|d|, whatever tol
    is. The eigenvalue's floor reads the entries of d, or scale if
    larger: the size of the values d was computed from, whose rounding
    it inherits. Of a stack or sequence of matrices, a tuple of reports,
    one per matrix; scale is then one value for all (a number, or an
    array of no dimensions) or one per matrix. Every scale must be finite
    and nonnegative."""
    _check_tol(tol)
    scales = [scale] * len(d) if np.ndim(scale) == 0 else list(scale)
    if len(scales) != len(d) or not all(0 <= s < math.inf for s in scales):
        raise ValueError(f"scale must be finite and nonnegative, one or {len(d)}, got {scale}")
    grams = _centered_gram(d, "check_sq_euclidean")
    return _eigen_reports(
        "sq_euclidean", grams, tol, "smallest eigenvalue of the centered Gram matrix",
        [max(size, s) for size, s in zip(_max_abs_each(d), scales)],
    )


def _require_order(a: np.ndarray, g: WeightedGraph, check: str) -> None:
    if a.shape[1:] != (g.n, g.n):
        raise ValueError(
            f"{check}: matrix of shape {a.shape[1:]} for a graph of order {g.n}"
        )


def _relative_excess(a: np.ndarray, xs: slice) -> np.ndarray:
    """rel[i, j, k] = (s_ij s_jk - s_ik s_jj) / (s_ik s_jj) for first
    indices xs of the positive matrix a, or of each matrix of a stack a.

    Where s_ij s_jk or s_ik s_jj is not a normal float, that entry is
    expm1((ln s_ij + ln s_jk) - (ln s_ik + ln s_jj)), which takes the logs
    before the products; every other entry keeps the products' rounding.
    Each product has one factor from rows xs and one from a, and rounding
    is monotone, so when fl(min a[..., xs, :] min a) and
    fl(max a[..., xs, :] max a) are normal every product is, and no mask
    is formed. Otherwise the mask is formed over the whole block, of one
    matrix or of a stack."""
    with np.errstate(over="ignore", under="ignore"):
        num = a[..., xs, :, None] * a[..., None, :, :]
        den = a[..., xs, None, :] * a.diagonal(0, -2, -1)[..., None, :, None]
        rows = a[..., xs, :]
        lo, hi = rows.min() * a.min(), rows.max() * a.max()
    if _TINY <= lo and hi <= _HUGE:
        return (num - den) / den
    bad = np.nonzero(~(_normal(num) & _normal(den)))  # (*m, x, j, k)
    num[bad] = den[bad] = 1.0  # keeps the division finite; replaced after it
    rel = (num - den) / den
    *m, x, j, k = bad
    if x.size:
        ln, i = np.log(a), x + xs.start
        rel[bad] = np.expm1((ln[(*m, i, j)] + ln[(*m, j, k)]) - (ln[(*m, i, k)] + ln[(*m, j, j)]))
    return rel


def _separation_scan(v: np.ndarray, xs: slice, comp: np.ndarray, tol: float, widths=None):
    """For each matrix v[i] of the block v, first indices xs, find the
    first distinct triple (i, j, k) in C order where |v[i, j, k]| <= tol
    disagrees with "j separates i from k" as the separation table comp
    tells it.

    Returns one (mismatch, near_boundary, wide) per matrix. mismatch is
    None, or the 0-based triple, the value of v there and whether it was
    within tol. near_boundary and wide, reported only when there is no
    mismatch, say whether some |v| over the block's distinct triples lies
    in [tol/2, 2 tol], and in [tol/2 - w, 2 tol + w] for the matrix's
    widening w = widths[i], or w = 0 without widths. Given widths, the
    mask of [tol/2, 2 tol] is formed only for a matrix whose widened band
    holds a value.
    """
    n = comp.shape[0]
    m = np.abs(v)
    small = m <= tol
    mismatch = _fill_repeats(small != (comp[:, xs].T[:, :, None] != comp), xs, False)
    lo, hi = 0.5 * tol, 2.0 * tol
    wide, found = None, []
    for i in range(len(v)):
        row = mismatch[i]
        if row.any():
            idx = int(row.argmax())
            triple = (_triple(xs, idx, n), v[i].flat[idx], bool(small[i].flat[idx]))
            found.append((triple, False, False))
            continue
        if wide is None:
            w = 0.0 if widths is None else np.array(widths)[:, None, None, None]
            wide = _fill_repeats(((lo - w) <= m) & (m <= (hi + w)), xs, False)
        hit = bool(wide[i].any())
        near = hit if widths is None or not hit else bool(
            _fill_repeats((lo <= m[i]) & (m[i] <= hi), xs, False).any()
        )
        found.append((None, near, hit))
    return found


@_per_matrix
def check_transitional(
    s: np.ndarray, g: WeightedGraph, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Transitional-measure test: s_ij s_jk <= s_ik s_jj for all triples
    (relative slack), with equality exactly when j separates i from k.
    Equality detection at relative tolerance is cross-checked against the
    cut-vertex predicate in both directions. Of a stack or sequence of
    matrices on g, a tuple of reports, one per matrix."""
    return _transitional(s, g, tol)[0]


def _transitional(
    s: np.ndarray, g: WeightedGraph, tol: float
) -> tuple[list[PropertyReport], list[PropertyReport | None]]:
    """check_transitional's reports of each matrix of the stack s, and,
    where a pass certifies check_cutpoint_additive(log_distance(s), g, tol),
    the report that check gives, a pass that is not indeterminate; None
    elsewhere. A pass certifies it where no distinct triple has a relative
    excess rel with |rel| in [tol/2 - w, 2 tol + w].

    Then the log distance passes cutpoint_additive with no triple near
    its boundary, since its gap d_ij + d_jk - d_ik is
    -(ln(1 + rel_ijk) + ln(1 + rel_kji)) / 2 and j separates i from k
    exactly when it separates k from i: on those triples both |rel| are
    below tol/2 - w, so |gap| is below tol/2; on every other distinct
    triple both rel are below -2 tol - w, so the gap exceeds 2 tol. The
    widening w = tol^2 + _rounding_floor(n, 2 + 2 max|ln s|) bounds the
    rounding of both sides, as every log that the excess and the log
    distance are formed from, ln(s_ab s_cd) or ln s_ab + ln s_cd, is at
    most 2 max|ln s| in size, and |ln(1 + rel)| - |rel| <= rel^2, which
    holds for |rel| <= 1/2, tol/2 - w being at most 1/16."""
    _check_tol(tol)
    _require_finite(s, "check_transitional")
    _require_order(s, g, "check_transitional")
    _require_positive(s, "check_transitional")
    n = s.shape[1]
    widths = [
        tol * tol + _rounding_floor(n, 2.0 + 2.0 * max(-math.log(lo), math.log(hi)))
        for lo, hi in zip(s.min(axis=(1, 2)).tolist(), s.max(axis=(1, 2)).tolist())
    ]
    # the repeated triples i = j and j = k, whose excess is 0 exactly, are
    # filled with -inf; the witness band of an excess, being relative,
    # reads operands 1 and 1 + top
    found = _walk_triples(
        s, lambda a, xs: _fill_repeats(_relative_excess(a, xs), xs, -np.inf, outer=False),
        tol, lambda m, top: _rounding_floor(n, 1.0 + top), g, widths,
    )
    reports, cutpoints = [], []
    for worst, witness, mismatch, near, wide in found:
        # certified where no witness, mismatch or value in the wide band
        cutpoints.append(None if witness or mismatch or wide else _cutpoint_pass(tol))
        if witness is not None:
            reports.append(PropertyReport(
                "transitional", holds=False, tolerance=tol,
                witness=tuple(v + 1 for v in witness), slack=float(worst),
                indeterminate=worst <= 2.0 * tol,
                note="relative excess of s(i,j)s(j,k) over s(i,k)s(j,j)",
            ))
        elif mismatch is not None:
            reports.append(_separation_report(
                "transitional", tol, mismatch, "product equality", "products differ"
            ))
        else:
            reports.append(PropertyReport(
                "transitional", holds=True, tolerance=tol,
                slack=None if n < 3 else float(worst), indeterminate=near,
            ))
    return reports, cutpoints


def _separation_report(prop: str, tol: float, mismatch, equal: str, differ: str) -> PropertyReport:
    """The failing report of prop, a cut-vertex check, at a mismatch of
    _separation_scan; equal and differ say what a value within tol, and
    one beyond it, means to prop."""
    (i, j, k), value, small = mismatch
    return PropertyReport(
        prop, holds=False, tolerance=tol,
        witness=(i + 1, j + 1, k + 1), slack=float(value),
        note=f"{equal} although j does not separate i from k" if small
        else f"j separates i from k but {differ}",
    )


def _cutpoint_pass(tol: float, near: bool = False) -> PropertyReport:
    """check_cutpoint_additive's passing report, indeterminate where a
    value lies near the boundary; _transitional's certificate too."""
    return PropertyReport("cutpoint_additive", holds=True, tolerance=tol, indeterminate=near)


@_per_matrix
def check_cutpoint_additive(
    d: np.ndarray, g: WeightedGraph, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """d(i,j) + d(j,k) = d(i,k) exactly when j separates i from k, both
    directions checked on every ordered triple. Of a stack or sequence of
    matrices on g, a tuple of reports, one per matrix."""
    _check_tol(tol)
    _require_finite(d, "check_cutpoint_additive")
    _require_order(d, g, "check_cutpoint_additive")
    # gap[i, j, k] = d(i,j) + d(j,k) - d(i,k), left to right
    gaps = _walk_triples(
        d, lambda a, xs: (a[:, xs, :, None] + a[:, None]) - a[:, xs, None, :], tol, g=g
    )
    return [
        _cutpoint_pass(tol, near) if found is None else _separation_report(
            "cutpoint_additive", tol, found, "additive", "d(i,j)+d(j,k) != d(i,k)"
        )
        for _, _, found, near, _ in gaps
    ]


@_per_matrix
def check_distance_order(d: np.ndarray) -> PropertyReport:
    """For the 4-vertex path: d(1,2) < d(1,3) < d(1,4). Of a stack or
    sequence of matrices, a tuple of reports, one per matrix."""
    if d.shape[1:] != (4, 4):
        raise ValueError("check_distance_order expects a 4x4 distance matrix")
    return [_distance_order(d[i]) for i in range(len(d))]


def _distance_order(a: np.ndarray) -> PropertyReport:
    for y in (1, 2):  # 0-based: d(1,2) < d(1,3), then d(1,3) < d(1,4)
        if not a[0, y] < a[0, y + 1]:
            return PropertyReport(
                "distance_order", holds=False, tolerance=0.0,
                witness=(1, y + 1, 1, y + 2), slack=float(a[0, y] - a[0, y + 1]),
                note=f"d(1,{y + 1}) >= d(1,{y + 2})",
            )
    return PropertyReport("distance_order", holds=True, tolerance=0.0)


@_per_matrix
def check_sqrt_distance(d: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Necessary-condition filter for proximities: d must be entrywise
    nonnegative and its entrywise square root must satisfy the triangle
    inequality. Coinciding points are allowed (an all-zero d passes). Of
    a stack or sequence of matrices, a tuple of reports, one per matrix."""
    _check_tol(tol)
    _require_finite(d, "check_sqrt_distance")
    return _distance_axioms(
        d, tol, "sqrt_distance", "negative entry, no square-root distance exists",
        lambda a: np.sqrt(np.clip(a, 0.0, None)), False,
    )
