"""Property checks with explicit witnesses.

Every check returns a PropertyReport. Witness vertex indices are 1-based
to match file and report conventions; the numeric slack is the value of
the defining inequality at the witness, so a reported violation can be
reproduced by re-evaluating it there.

The triple checks scan consecutive blocks of first indices, each one
(b, n, n) numpy array of at most 2^15 entries (256 KB of float64), so
n <= 32 is a single block and larger n takes O(n^3) work in bounded
memory. Each term is formed with the operands and operation order of the
defining inequality, so a report equals the one a scalar loop over all
triples would give. The transitional check forms each block of relative
excesses once and feeds it to both its worst-excess scan and its
cut-vertex scan. It forms the mask of products that are not normal
floats only on a block whose extreme products, bounded by the extremes
of its rows and of the whole matrix, leave the normal range.

Candidates that tie in exact arithmetic can differ in their last bits,
and which one rounding favours depends on operation order and on the
BLAS kernel. So the slack is the extreme of the inequality, and the
witness is the first candidate in C order, (x, y, z) or (x, y), whose
value lies within the rounding floor of that extreme (_rounding_floor:
8 n eps times the size of the inequality's operands), the metric axioms'
negative-entry, asymmetric and self-distance witnesses too. The triple
scans keep each block's extreme and search only the first block that
reaches the band, so the witness does not depend on the block size. The
eigenvalue checks decide against max(tol, floor), the floor of the
operands of the matrix whose eigenvalues they read; where that floor
exceeds tol, a negative smallest eigenvalue within twice the floor is
indeterminate, as rounding cannot resolve its sign. The floor, that
bound and DEFAULT_TOL live in linalg, whose gram_factor shares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import WeightedGraph, separation_labels
from .linalg import DEFAULT_TOL, _eigen_bound, _max_abs, _require_nonempty, _require_symmetric
from .linalg import _rounding_floor, is_symmetric, sym_eigenvalues
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

# Entries per block of first indices: large enough that n <= 32 is one
# block, small enough that each temporary stays cache-sized. On a 2-vCPU
# Xeon a budget of 2^18 made the checks 1.2-3x slower at n = 80 and 160.
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


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is negative, NaN or infinite; every public
    check that takes one calls this first."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def _require_finite(a: np.ndarray, check: str) -> None:
    _require_nonempty(a, check)
    bad = ~np.isfinite(a)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), a.shape[1])
        raise ValueError(
            f"{check} requires finite entries; "
            f"entry ({i + 1},{j + 1}) = {a[i, j]}"
        )


def _blocks(n: int):
    """Consecutive ranges of first indices whose (b, n, n) blocks hold at
    most _BLOCK_ENTRIES entries, or one index each when a slab is larger."""
    b = max(1, _BLOCK_ENTRIES // max(1, n * n))
    for x in range(0, n, b):
        yield slice(x, min(x + b, n))


def _fill_repeats(v: np.ndarray, xs: slice, value) -> np.ndarray:
    """Write value to each entry of block v (first indices xs) whose x, y,
    z are not all distinct, through basic-slice views, and return v. The
    reshaped views need C order, so any other v is copied to it first."""
    v = np.ascontiguousarray(v)
    b, n, _ = v.shape
    s = xs.start
    v.reshape(b * n, n)[s::n + 1][:b] = value  # v[x, x, :]
    np.einsum("iji->ij", v[:, :, s:s + b])[...] = value  # v[x, :, x]
    v.reshape(b, n * n)[:, ::n + 1] = value  # v[:, y, y]
    return v


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


def _top(v: np.ndarray) -> float:
    """Largest entry of v, NaN entries aside; -inf if there is none."""
    top = float(np.fmax.reduce(v, axis=None))
    return -np.inf if top != top else top


def _worst_triple(
    n: int, block, floor: float
) -> tuple[float, tuple[int, int, int] | None]:
    """Largest block(xs)[x, y, z] over distinct triples, and the first
    (x, y, z) in C order whose value lies within floor of it; (-inf,
    None) when n < 3."""
    if n < 3:
        return -np.inf, None

    def form(xs):
        return _fill_repeats(block(xs), xs, -np.inf)

    tops = []
    for xs in _blocks(n):
        v = form(xs)
        tops.append(_top(v))
    return _band_witness(n, tops, floor, v, form)


def _band_witness(n: int, tops: list[float], floor: float, last: np.ndarray, form):
    """The largest of the block maxima tops (one per _blocks(n) slice, in
    order) and the first (x, y, z) in C order whose entry lies within
    floor of it. Only the first block whose maximum reaches that band is
    searched: last, the final block, or else the block form(xs) forms
    again; so the witness does not depend on the block size. A NaN entry
    is never within the band."""
    worst = max(tops)
    cut = _band(worst, floor)
    for i, (xs, top) in enumerate(zip(_blocks(n), tops)):
        if top >= cut:
            v = last if i == len(tops) - 1 else form(xs)
            return worst, _triple(xs, int(np.argmax(v >= cut)), n)


def _first_max(
    v: np.ndarray, floor: float, keep: np.ndarray | None = None
) -> tuple[float, int]:
    """Largest entry of v, where keep holds if given, and the first
    C-order flat index whose entry lies within floor of it. NaN never
    wins; a result of -inf means nothing was found."""
    if keep is not None:
        v = np.where(keep, v, -np.inf)
    val = _top(v)
    return val, int(np.argmax(v >= _band(val, floor)))


def _first_min(
    v: np.ndarray, floor: float, keep: np.ndarray | None = None
) -> tuple[float, int]:
    """Smallest entry of v where keep holds, as _first_max; +inf means
    nothing was found."""
    val, idx = _first_max(-v, floor, keep)
    return -val, idx


def _asymmetry_report(
    prop: str, a: np.ndarray, tol: float, note: str = "matrix is not symmetric"
) -> PropertyReport:
    """prop fails on the asymmetric float array a; the slack is the
    largest |a - a^T| entry."""
    return PropertyReport(
        prop, holds=False, tolerance=tol, slack=float(np.abs(a - a.T).max()), note=note
    )


def _eigen_report(
    prop: str, a: np.ndarray, tol: float, note: str, scale: float
) -> PropertyReport:
    """prop holds when the smallest eigenvalue of the symmetric float
    array a is at least -_eigen_bound(n, scale, tol), with scale the
    size of the operands a was formed from; the slack is that eigenvalue,
    and the margin that eigenvalue plus the bound.
    Where the floor exceeds tol, rounding cannot resolve the sign of an
    eigenvalue within it, so every negative one within twice the floor
    is indeterminate."""
    min_eig = float(sym_eigenvalues(a)[0])
    bound = _eigen_bound(a.shape[0], scale, tol)
    if bound > tol:
        indeterminate = -2.0 * bound <= min_eig < 0.0
    else:
        indeterminate = -2.0 * bound <= min_eig <= -0.5 * bound
    return PropertyReport(
        prop,
        holds=min_eig >= -bound,
        tolerance=tol,
        slack=min_eig,
        indeterminate=indeterminate,
        note=note,
        margin=min_eig + bound,
    )


def check_psd(k: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Positive semidefiniteness. Asymmetric input is reported as not PSD
    outright; it is never silently symmetrized."""
    _check_tol(tol)
    a = np.asarray(k, dtype=float)
    _require_nonempty(a, "check_psd")
    if not is_symmetric(a):
        return _asymmetry_report(
            "psd", a, tol, "matrix is not symmetric, hence not positive semidefinite"
        )
    return _eigen_report("psd", a, tol, "smallest eigenvalue", _max_abs(a))


def check_proximity(k: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Triangle inequality for proximities:
    k(x,y) + k(x,z) - k(y,z) <= k(x,x) over all ordered triples, strict
    when z = y != x."""
    _check_tol(tol)
    a = np.asarray(k, dtype=float)
    _require_finite(a, "check_proximity")
    _require_symmetric(a, "check_proximity")
    n = a.shape[0]
    diag = np.diag(a)
    floor = _rounding_floor(n, _max_abs(a))
    # v[x, y, z] = k(x,y) + k(x,z) - k(y,z) - k(x,x), left to right
    worst_weak, weak_witness = _worst_triple(
        n, lambda xs: ((a[xs, :, None] + a[xs, None, :]) - a) - diag[xs, None, None], floor
    )
    worst_strict, strict_idx = _first_min(
        (diag[:, None] + diag[None, :]) - 2.0 * a, floor, ~np.eye(n, dtype=bool)
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
        x, y = divmod(strict_idx, n)
        return PropertyReport(
            "proximity", holds=False, tolerance=tol,
            witness=(x + 1, y + 1, y + 1), slack=float(worst_strict),
            indeterminate=indeterminate,
            note="strictness margin k(x,x)+k(y,y)-2k(x,y) at witness (x,y,y)",
        )
    return PropertyReport(
        "proximity", holds=True, tolerance=tol,
        slack=None if weak_witness is None else float(worst_weak),
        indeterminate=indeterminate,
    )


def check_sigma_proximity(k: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Proximity plus the normalization condition: all row sums equal.
    Reports the common row sum as sigma when they do."""
    _check_tol(tol)
    a = np.asarray(k, dtype=float)
    _require_nonempty(a, "check_sigma_proximity")
    return _sigma_proximity(a, check_proximity(a, tol), tol)


def _sigma_proximity(a: np.ndarray, prox: PropertyReport, tol: float) -> PropertyReport:
    """check_sigma_proximity of the float array a, given prox, the
    check_proximity report of a at tol."""
    rows = a.sum(axis=1)
    spread = float(rows.max() - rows.min())
    normalized = spread <= tol
    sigma = float(rows.mean()) if normalized else None
    if not prox.holds:
        return PropertyReport(
            "sigma_proximity", holds=False, tolerance=tol,
            witness=prox.witness, slack=prox.slack, sigma=sigma,
            indeterminate=prox.indeterminate, note="not a proximity",
        )
    if not normalized:
        floor = _rounding_floor(a.shape[0], _max_abs(rows))
        hi, lo = _first_max(rows, floor)[1], _first_min(rows, floor)[1]
        return PropertyReport(
            "sigma_proximity", holds=False, tolerance=tol,
            witness=(hi + 1, lo + 1), slack=spread,
            note="row-sum spread between witness rows",
        )
    return PropertyReport(
        "sigma_proximity", holds=True, tolerance=tol, sigma=sigma,
        indeterminate=prox.indeterminate,
    )


def check_egocentrism(k: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Strict entrywise diagonal dominance: k(x,x) > k(x,y) for x != y."""
    _check_tol(tol)
    a = np.asarray(k, dtype=float)
    _require_finite(a, "check_egocentrism")
    n = a.shape[0]
    worst, idx = _first_min(
        np.diag(a)[:, None] - a, _rounding_floor(n, _max_abs(a)), ~np.eye(n, dtype=bool)
    )
    if worst == np.inf:  # 1x1 matrix
        return PropertyReport("egocentrism", holds=True, tolerance=tol)
    x, y = divmod(idx, n)
    return PropertyReport(
        "egocentrism",
        holds=worst > tol,
        tolerance=tol,
        witness=None if worst > tol else (x + 1, y + 1),
        slack=float(worst),
        indeterminate=0.0 <= worst <= 2.0 * tol,
        note="diagonal dominance margin k(x,x)-k(x,y)",
    )


def _negative_entry(d: np.ndarray, tol: float, prop: str, note: str) -> PropertyReport | None:
    """prop failing at the smallest entry of d if it is below -tol, else None."""
    neg = float(d.min())
    if neg < -tol:
        n = d.shape[0]
        i, j = divmod(_first_min(d, _rounding_floor(n, _max_abs(d)))[1], n)
        return PropertyReport(
            prop, holds=False, tolerance=tol, witness=(i + 1, j + 1), slack=neg, note=note
        )
    return None


def _metric_axioms(
    d: np.ndarray, tol: float, prop: str, require_separation: bool = True
) -> PropertyReport:
    """The metric axioms of d but nonnegativity, which _negative_entry checks."""
    n = d.shape[0]
    floor = _rounding_floor(n, _max_abs(d))
    gap = np.abs(d - d.T)
    asym = float(gap.max())
    if asym > tol:
        i, j = divmod(_first_max(gap, floor)[1], n)
        return PropertyReport(
            prop, holds=False, tolerance=tol,
            witness=(i + 1, j + 1), slack=asym, note="asymmetric",
        )
    self_dist = np.abs(np.diag(d))
    diag = float(self_dist.max())
    if diag > tol:
        i = _first_max(self_dist, floor)[1]
        return PropertyReport(
            prop, holds=False, tolerance=tol,
            witness=(i + 1, i + 1), slack=diag, note="nonzero self-distance",
        )
    if require_separation:
        close = np.triu(d <= tol, 1)
        if close.any():
            x, y = divmod(int(np.argmax(close)), n)
            return PropertyReport(
                prop, holds=False, tolerance=tol,
                witness=(x + 1, y + 1), slack=float(d[x, y]),
                note="distinct vertices at zero distance",
            )
    # v[x, y, z] = d(x,z) - d(x,y) - d(y,z), left to right
    worst, witness = _worst_triple(n, lambda xs: (d[xs, None, :] - d[xs, :, None]) - d, floor)
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


def check_metric(d: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """The four metric axioms: nonnegativity, symmetry, identity of
    indiscernibles, and the triangle inequality over all ordered triples."""
    _check_tol(tol)
    a = np.asarray(d, dtype=float)
    _require_finite(a, "check_metric")
    return _negative_entry(a, tol, "metric", "negative entry") or _metric_axioms(a, tol, "metric")


def check_sq_euclidean(
    d: np.ndarray, tol: float = DEFAULT_TOL, scale: float = 0.0
) -> PropertyReport:
    """Realizability of d as squared Euclidean distances: the doubly
    centered matrix -H d H must be PSD. d must be symmetric with a zero
    diagonal, both to its own rounding floor 8 n eps max|d|, whatever tol
    is. The eigenvalue's floor reads the entries of d, or scale if
    larger: the size of the values d was computed from, whose rounding
    it inherits."""
    _check_tol(tol)
    return _eigen_report(
        "sq_euclidean", _centered_gram(d, "check_sq_euclidean"), tol,
        "smallest eigenvalue of the centered Gram matrix", max(_max_abs(d), scale),
    )


def _require_order(a: np.ndarray, g: WeightedGraph, check: str) -> None:
    if a.shape != (g.n, g.n):
        raise ValueError(f"{check}: matrix of shape {a.shape} for a graph of order {g.n}")


def _relative_excess(a: np.ndarray, xs: slice) -> np.ndarray:
    """rel[i, j, k] = (s_ij s_jk - s_ik s_jj) / (s_ik s_jj) for first
    indices xs of the positive array a.

    Where s_ij s_jk or s_ik s_jj is not a normal float, that entry is
    expm1((ln s_ij + ln s_jk) - (ln s_ik + ln s_jj)), which takes the logs
    before the products; every other entry keeps the products' rounding.
    Each product has one factor from rows xs and one from a, and rounding
    is monotone, so when fl(min a[xs] min a) and fl(max a[xs] max a) are
    normal every product is, and no mask is formed."""
    with np.errstate(over="ignore", under="ignore"):
        num = a[xs, :, None] * a
        den = a[xs, None, :] * np.diag(a)[:, None]
        lo, hi = a[xs].min() * a.min(), a[xs].max() * a.max()
    if _TINY <= lo and hi <= _HUGE:
        return (num - den) / den
    x, j, k = np.nonzero(~(_normal(num) & _normal(den)))
    num[x, j, k] = den[x, j, k] = 1.0  # keeps the division finite; replaced after it
    rel = (num - den) / den
    if x.size:
        ln, i = np.log(a), x + xs.start
        rel[x, j, k] = np.expm1((ln[i, j] + ln[j, k]) - (ln[i, k] + ln[j, j]))
    return rel


def _separation_scan(v: np.ndarray, xs: slice, comp: np.ndarray, tol: float):
    """Find the first distinct triple (i, j, k) of block v, first indices
    xs, in C order, where |v[i, j, k]| <= tol disagrees with "j separates
    i from k" as the separation table comp tells it.

    Returns (mismatch, near_boundary). mismatch is None, or the 0-based
    triple, the value of v there and whether it was within tol.
    near_boundary, reported only when there is no mismatch, says whether
    some |v| over the block's distinct triples lies within a factor two
    of tol.
    """
    n = comp.shape[0]
    m = np.abs(v)
    small = m <= tol
    mismatch = _fill_repeats(small != (comp[:, xs].T[:, :, None] != comp), xs, False)
    if mismatch.any():
        idx = int(np.argmax(mismatch))
        return (_triple(xs, idx, n), v.flat[idx], bool(small.flat[idx])), False
    near = _fill_repeats((0.5 * tol <= m) & (m <= 2.0 * tol), xs, False)
    return None, bool(near.any())


def check_transitional(
    s: np.ndarray, g: WeightedGraph, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Transitional-measure test: s_ij s_jk <= s_ik s_jj for all triples
    (relative slack), with equality exactly when j separates i from k.
    Equality detection at relative tolerance is cross-checked against the
    cut-vertex predicate in both directions."""
    _check_tol(tol)
    a = np.asarray(s, dtype=float)
    _require_finite(a, "check_transitional")
    _require_order(a, g, "check_transitional")
    _require_positive(a, "check_transitional")
    n = a.shape[0]
    tops, worst = [], -np.inf
    mismatch, boundary_cases, comp = None, False, None
    for xs in _blocks(n):
        rel = _relative_excess(a, xs)
        tops.append(_top(rel))
        worst = max(worst, tops[-1])
        # the cut-vertex test decides only when no excess beyond tol exists
        if worst <= tol and mismatch is None:
            if comp is None:
                comp = separation_labels(g)
            mismatch, near = _separation_scan(rel, xs, comp, tol)
            boundary_cases = boundary_cases or near
    if worst > tol:
        # the excess is relative: its operands are 1 and 1 + worst
        floor = _rounding_floor(n, 1.0 + worst)
        _, (i, j, k) = _band_witness(n, tops, floor, rel, lambda xs: _relative_excess(a, xs))
        return PropertyReport(
            "transitional", holds=False, tolerance=tol,
            witness=(i + 1, j + 1, k + 1), slack=float(worst),
            indeterminate=worst <= 2.0 * tol,
            note="relative excess of s(i,j)s(j,k) over s(i,k)s(j,j)",
        )
    if mismatch is not None:
        (i, j, k), value, equal = mismatch
        return PropertyReport(
            "transitional", holds=False, tolerance=tol,
            witness=(i + 1, j + 1, k + 1), slack=float(value),
            note="product equality although j does not separate i from k"
            if equal
            else "j separates i from k but products differ",
        )
    return PropertyReport(
        "transitional", holds=True, tolerance=tol, slack=float(worst),
        indeterminate=boundary_cases,
    )


def check_cutpoint_additive(
    d: np.ndarray, g: WeightedGraph, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """d(i,j) + d(j,k) = d(i,k) exactly when j separates i from k, both
    directions checked on every ordered triple."""
    _check_tol(tol)
    a = np.asarray(d, dtype=float)
    _require_finite(a, "check_cutpoint_additive")
    _require_order(a, g, "check_cutpoint_additive")
    comp = separation_labels(g)
    boundary_cases = False
    for xs in _blocks(g.n):
        # gap[i, j, k] = d(i,j) + d(j,k) - d(i,k), left to right
        gap = (a[xs, :, None] + a) - a[xs, None, :]
        mismatch, near = _separation_scan(gap, xs, comp, tol)
        if mismatch is not None:
            (i, j, k), value, additive = mismatch
            return PropertyReport(
                "cutpoint_additive", holds=False, tolerance=tol,
                witness=(i + 1, j + 1, k + 1), slack=float(value),
                note="additive although j does not separate i from k"
                if additive
                else "j separates i from k but d(i,j)+d(j,k) != d(i,k)",
            )
        boundary_cases = boundary_cases or near
    return PropertyReport(
        "cutpoint_additive", holds=True, tolerance=tol, indeterminate=boundary_cases
    )


def check_distance_order(d: np.ndarray) -> PropertyReport:
    """For the 4-vertex path: d(1,2) < d(1,3) < d(1,4)."""
    a = np.asarray(d, dtype=float)
    if a.shape != (4, 4):
        raise ValueError("check_distance_order expects a 4x4 distance matrix")
    for y in (1, 2):  # 0-based: d(1,2) < d(1,3), then d(1,3) < d(1,4)
        if not a[0, y] < a[0, y + 1]:
            return PropertyReport(
                "distance_order", holds=False, tolerance=0.0,
                witness=(1, y + 1, 1, y + 2), slack=float(a[0, y] - a[0, y + 1]),
                note=f"d(1,{y + 1}) >= d(1,{y + 2})",
            )
    return PropertyReport("distance_order", holds=True, tolerance=0.0)


def check_sqrt_distance(d: np.ndarray, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Necessary-condition filter for proximities: d must be entrywise
    nonnegative and its entrywise square root must satisfy the triangle
    inequality. Coinciding points are allowed (an all-zero d passes)."""
    _check_tol(tol)
    a = np.asarray(d, dtype=float)
    _require_finite(a, "check_sqrt_distance")
    return _negative_entry(
        a, tol, "sqrt_distance", "negative entry, no square-root distance exists"
    ) or _metric_axioms(np.sqrt(np.clip(a, 0.0, None)), tol, "sqrt_distance", False)
