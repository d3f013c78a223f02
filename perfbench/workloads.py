"""Seeded inputs and command lists for the three benchmark workloads.

Everything here uses numpy alone and never imports graphprox, so the
parent commit and a change are given byte-identical graph files and
parameter ranges for the same seed. graphprox only ever reads the
edge-list files written here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (value, half-width) the bracket of each paper threshold must sit in.
PAPER_BRACKETS = {
    "heat-proximity": (0.431, 0.005),
    "ppr-triangle": (0.9515, 0.0005),
    "ppr-sym_psd": (0.984, 0.005),
    "katz-order": (0.375, 0.0005),
}

# Margins the self-check demands, so that graphprox's tolerance of 1e-9
# cannot decide a verdict on these inputs.
_EQUAL_MAX = 1e-12
_UNEQUAL_MIN = 1e-7
_FLIP_MARGIN = 1e-6


class InputError(RuntimeError):
    """The generator could not produce inputs that pass its self-check."""


@dataclass
class Command:
    """One CLI invocation with what its outcome must be."""

    name: str
    argv: list[str]
    expect_exit: int | None = None  # None: 0 when every check passes, else 1
    outputs: list[Path] = field(default_factory=list)
    bracket: tuple[float, float] | None = None  # (value, half-width)
    kernels: dict[tuple[str, float], np.ndarray] = field(default_factory=dict)
    structure: bool = False  # transitional and cutpoint_additive must pass


# ---------------------------------------------------------------- graphs

def tree_plus_edges(rng: np.random.Generator, n: int, extra: float, reach: int | None = None):
    """Random spanning tree plus round(extra * (n - 1)) further edges.

    With reach=None every vertex attaches to a uniformly chosen earlier
    one. With reach=r it attaches to one of the r vertices before it and
    extra edges only join vertices at most r + 1 apart, so the graph
    stays a near-path with many cut vertices.
    """
    w = np.zeros((n, n))
    for v in range(1, n):
        lo = 0 if reach is None else max(0, v - reach)
        u = int(rng.integers(lo, v))
        w[u, v] = w[v, u] = round(float(rng.uniform(0.5, 2.0)), 3)
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if w[u, v] == 0 and (reach is None or v - u <= reach + 1)
    ]
    count = min(len(pairs), round(extra * (n - 1)))
    for idx in rng.choice(len(pairs), size=count, replace=False):
        u, v = pairs[int(idx)]
        w[u, v] = w[v, u] = round(float(rng.uniform(0.5, 2.0)), 3)
    return w


def relabel(w: np.ndarray, first: list[int]) -> np.ndarray:
    """Permute vertices so that `first` become vertices 0, 1, 2, ..."""
    rest = [v for v in range(w.shape[0]) if v not in first]
    order = list(first) + rest
    return w[np.ix_(order, order)]


def write_graph(path: Path, w: np.ndarray) -> str:
    lines = [
        f"{i + 1} {j + 1} {w[i, j]:.3f}"
        for i in range(w.shape[0])
        for j in range(i + 1, w.shape[0])
        if w[i, j] > 0
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def path_graph(weights: list[float]) -> np.ndarray:
    n = len(weights) + 1
    w = np.zeros((n, n))
    for i, x in enumerate(weights):
        w[i, i + 1] = w[i + 1, i] = x
    return w


PAPER_PATH4 = path_graph([2.0, 1.0, 2.0])
PAPER_PATH5 = path_graph([2.0, 1.0, 1.0, 2.0])


# --------------------------------------------------------------- kernels

def _sym_fn(m: np.ndarray, f) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * f(vals)) @ vecs.T


def _dfact_series(x: np.ndarray) -> np.ndarray:
    """sum_k x^k / k!! elementwise."""
    total = np.ones_like(x)
    prev2, prev1 = np.ones_like(x), x.copy()
    total = total + prev1
    for k in range(2, 400):
        cur = prev2 * x * x / k
        total = total + cur
        prev2, prev1 = prev1, cur
    return total


def spectral_radius(w: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(w)).max())


def kernel(measure: str, w: np.ndarray, p: float, rates: np.ndarray | None = None) -> np.ndarray:
    """The measure's similarity matrix, computed independently of graphprox."""
    n = w.shape[0]
    eye = np.eye(n)
    d = w.sum(axis=1)
    lap = np.diag(d) - w
    s = w / np.sqrt(np.outer(d, d))  # D^-1/2 W D^-1/2
    if measure == "katz":
        return np.linalg.inv(eye - p * w)
    if measure == "comm":
        return _sym_fn(w, lambda x: np.exp(p * x))
    if measure == "dfact":
        return _sym_fn(w, lambda x: _dfact_series(p * x))
    if measure == "heat":
        return _sym_fn(lap, lambda x: np.exp(-p * x))
    if measure == "nheat":
        return _sym_fn(eye - s, lambda x: np.exp(-p * x))
    if measure == "regL":
        return np.linalg.inv(eye + p * lap)
    if measure == "absorp":
        a = np.ones(n) if rates is None else rates
        return np.linalg.inv(p * np.diag(a) + lap)
    if measure == "ppr":
        return np.linalg.inv(eye - p * (w / d[:, None]))
    if measure == "modifppr":
        return np.linalg.inv(np.diag(d) - p * w)
    if measure == "heatppr":
        root = np.sqrt(d)
        return _sym_fn(s, lambda x: np.exp(-p * (1.0 - x))) / root[:, None] * root[None, :]
    raise ValueError(f"unknown measure {measure!r}")


def pair_dist(k: np.ndarray) -> np.ndarray:
    dg = np.diag(k)
    d = 0.5 * (dg[:, None] + dg[None, :]) - 0.5 * (k + k.T)
    np.fill_diagonal(d, 0.0)
    return d


def sym_min_eig(k: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (k + k.T))[0])


# ------------------------------------------------------------ self-checks

def cut_table(w: np.ndarray) -> np.ndarray:
    """cut[j, i, k]: every path from i to k visits j."""
    n = w.shape[0]
    cut = np.zeros((n, n, n), dtype=bool)
    adj = [np.nonzero(w[u])[0] for u in range(n)]
    for j in range(n):
        comp = np.full(n, -1)
        for start in range(n):
            if start == j or comp[start] >= 0:
                continue
            comp[start] = start
            stack = [start]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v != j and comp[v] < 0:
                        comp[v] = start
                        stack.append(v)
        cut[j] = comp[:, None] != comp[None, :]
        cut[j, j, :] = cut[j, :, j] = False
    return cut


def check_structure(w: np.ndarray, k: np.ndarray) -> None:
    """Raise unless k is clearly transitional and its log distance clearly
    cutpoint additive, so both graphprox checks pass after scanning every
    ordered triple."""
    n = w.shape[0]
    if k.min() <= 0:
        raise InputError("kernel has a non-positive entry")
    # rel[i, j, k] = (s_ij s_jk - s_ik s_jj) / (s_ik s_jj)
    rel = (k[:, :, None] * k[None, :, :]) / (k[:, None, :] * np.diag(k)[None, :, None]) - 1.0
    dg = np.diag(k)
    logd = 0.5 * np.log(np.outer(dg, dg) / (k * k.T))
    gap = logd[:, :, None] + logd[None, :, :] - logd[:, None, :]
    cut = cut_table(w).transpose(1, 0, 2)  # cut[i, j, k]
    idx = np.arange(n)
    distinct = (idx[:, None, None] != idx[None, :, None]) & (
        idx[None, :, None] != idx[None, None, :]) & (idx[:, None, None] != idx[None, None, :])
    if rel.max() > _EQUAL_MAX:
        raise InputError(f"not transitional: worst excess {rel.max():.3g}")
    for name, v in (("transitional", rel), ("cutpoint_additive", gap)):
        on_cut = np.abs(v[distinct & cut])
        off_cut = np.abs(v[distinct & ~cut])
        if (on_cut.size and on_cut.max() > _EQUAL_MAX) or (off_cut.size and off_cut.min() < _UNEQUAL_MIN):
            raise InputError(f"{name} verdict would sit near the tolerance")


def order_flip(w: np.ndarray, measure: str, grid: np.ndarray):
    """First vertex triple (a, b, c) whose order d(a,b) < d(a,c) flips
    exactly once over the parameter grid, with the flip point refined
    by bisection. Returns (a, b, c, root) or None."""
    dists = np.stack([pair_dist(kernel(measure, w, p)) for p in grid])
    n = w.shape[0]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if len({a, b, c}) < 3 or b > c:
                    continue
                diff = dists[:, a, b] - dists[:, a, c]
                signs = np.sign(diff)
                if 0 in signs or np.count_nonzero(np.diff(signs)) != 1:
                    continue
                i = int(np.nonzero(np.diff(signs))[0][0])
                if i == 0 or i >= len(grid) - 2:
                    continue

                def f(p):
                    d = pair_dist(kernel(measure, w, p))
                    return d[a, b] - d[a, c]

                return a, b, c, _bisect_root(f, grid[i], grid[i + 1])
    return None


def _bisect_root(f, lo: float, hi: float) -> float:
    f_lo = f(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_flip(f, lo: float, hi: float, scale: float) -> None:
    """Raise unless f changes sign between lo and hi with a clear margin."""
    a, b = f(lo), f(hi)
    if (a > 0) == (b > 0) or min(abs(a), abs(b)) < _FLIP_MARGIN * scale:
        raise InputError(f"bracket [{lo}, {hi}] does not clearly flip ({a:.3g}, {b:.3g})")


def bracket(rng: np.random.Generator, root: float, width: float) -> tuple[float, float]:
    """A range of the given width around root, root placed off-centre."""
    lo = float(root) - float(width) * float(rng.uniform(0.3, 0.7))
    return lo, lo + float(width)


# -------------------------------------------------------------- workloads

def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _structure_graph(seed: int, tag: int, n: int, extra: float, reach, measure: str, p: float):
    """Retry sub-seeds until the measure passes the structure self-check."""
    for attempt in range(20):
        w = tree_plus_edges(_rng(seed, tag * 100 + attempt), n, extra, reach)
        try:
            check_structure(w, kernel(measure, w, p))
        except InputError:
            continue
        return w
    raise InputError(f"no structure graph for seed {seed} tag {tag}")


def _order_threshold(seed: int, tag: int, work: Path, name: str, measure: str, n: int,
                     span, halvings: int | None = None) -> Command:
    """threshold of `measure` on order:12<13 over a seeded tree-plus-30%
    graph. span(w) gives the parameter grid searched for a vertex triple
    whose order flips and the width of the range handed to graphprox;
    with `halvings` the resolution is set so that bisection takes exactly
    that many steps after its two endpoint evaluations."""
    for attempt in range(20):
        rng = _rng(seed, tag * 100 + attempt)
        w = tree_plus_edges(rng, n, 0.3)
        grid, width = span(w)
        found = order_flip(w, measure, grid)
        if found is None:
            continue
        a, b, c, root = found
        w = relabel(w, [a, b, c])
        lo, hi = bracket(rng, root, width)

        def order(p, w=w):
            d = pair_dist(kernel(measure, w, p))
            return d[0, 1] - d[0, 2]

        try:
            check_flip(order, lo, hi, float(pair_dist(kernel(measure, w, root)).max()))
        except InputError:
            continue
        argv = ["threshold", write_graph(work / f"{name}.txt", w), "--measure", measure,
                "--property", "order:12<13", "--range", repr(lo), repr(hi)]
        if halvings is not None:
            argv += ["--resolution", repr(width / (0.75 * 2.0**halvings))]
        return Command(name, argv, expect_exit=0)
    raise InputError(f"no {measure} order flip for seed {seed} tag {tag}")


def _katz_span(w: np.ndarray):
    inv_rho = 1.0 / spectral_radius(w)
    return inv_rho * np.linspace(0.05, 0.95, 19), 0.005 * inv_rho


def _heatppr_threshold(seed: int, tag: int, work: Path, name: str, n: int) -> Command:
    """threshold of heatppr on sym_psd over a seeded dense graph, sixteen
    evaluations. The symmetrized kernel is PSD for small t and turns
    indefinite once exp(-t(I - P)) nears the rank-one 1 pi^T."""
    rng = _rng(seed, tag)
    w = tree_plus_edges(rng, n, 0.6)

    def min_eig(p):
        return sym_min_eig(kernel("heatppr", w, p))

    t_hi = 0.5
    while min_eig(t_hi) >= 0:
        t_hi *= 2.0
        if t_hi > 1e3:
            raise InputError("heatppr never leaves sym_psd")
    root = _bisect_root(min_eig, 0.0, t_hi)
    width = float(0.5 * root)
    lo, hi = bracket(rng, root, width)
    check_flip(min_eig, lo, hi, 1e-3)
    return Command(name, ["threshold", write_graph(work / f"{name}.txt", w),
                          "--measure", "heatppr", "--property", "sym_psd",
                          "--range", repr(lo), repr(hi),
                          "--resolution", repr(width / (0.75 * 2.0**14))], expect_exit=0)


# Host speed makes one timing of a command scatter by about 15 % whatever
# its length, so steadiness comes from many samples in a run. The two
# heavy workloads therefore use several graphs of moderate size, keeping
# every command between about 0.1 and 0.5 s.

def audit_structure(seed: int, work: Path) -> list[Command]:
    """Each transitional measure on a dense graph (tree plus 30 % extra
    edges) and on a sparse near-path with many cut vertices."""
    measures = [("regL", 1.0), ("absorp", 0.5), ("ppr", 0.85), ("modifppr", 0.85)]
    kinds = [("dense", 20, 0.3, None), ("path", 20, 0.1, 2)]
    cmds = []
    tag = 0
    for kind, n, extra, reach in kinds:
        for measure, p in measures:
            tag += 1
            gname = f"{kind}-{measure}"
            w = _structure_graph(seed, tag, n, extra, reach, measure, p)
            out = work / f"{gname}.json"
            cmds.append(Command(
                name=gname,
                argv=["audit", write_graph(work / f"{gname}.txt", w), "--measure",
                      f"{measure}:{p}", "--check", "all", "--json", str(out)],
                outputs=[out],
                kernels={(measure, p): kernel(measure, w, p)},
                structure=True,
            ))
    return cmds


def threshold_spectral(seed: int, work: Path) -> list[Command]:
    """Two katz order thresholds (ten evaluations, each recomputing the
    spectral radius), two heatppr sym_psd thresholds (sixteen
    evaluations) and two heat embeddings."""
    cmds = [_order_threshold(seed, 10 + i, work, f"katz-order-{i}", "katz", 24, _katz_span,
                             halvings=8) for i in range(2)]
    cmds += [_heatppr_threshold(seed, 20 + i, work, f"heatppr-sym_psd-{i}", 20)
             for i in range(2)]
    for i in range(2):
        name = f"embed-heat-{i}"
        w = tree_plus_edges(_rng(seed, 30 + i), 60, 0.3)
        out = work / f"{name}.csv"
        cmds.append(Command(name, ["embed", write_graph(work / f"{name}.txt", w),
                                   "--measure", "heat:0.5", "--out", str(out)],
                            expect_exit=0, outputs=[out]))
    return cmds


def paper_cli(seed: int, work: Path) -> list[Command]:
    def j(name):
        return work / f"{name}.json"

    cmds = [
        Command("p4-comm-proximity",
                ["audit", "paper:path4", "--measure", "comm:1.0", "--check", "proximity"],
                kernels={("comm", 1.0): kernel("comm", PAPER_PATH4, 1.0)}),
        Command("p4-all", ["audit", "paper:path4", "--measure", "regL:1.0,heat:1.0,katz:0.3",
                           "--check", "all", "--json", str(j("p4-all"))],
                outputs=[j("p4-all")],
                kernels={("regL", 1.0): kernel("regL", PAPER_PATH4, 1.0),
                         ("heat", 1.0): kernel("heat", PAPER_PATH4, 1.0),
                         ("katz", 0.3): kernel("katz", PAPER_PATH4, 0.3)}),
        Command("p4-log", ["audit", "--graph", "paper:path4", "--measure", "ppr:0.9",
                           "--measure", "heatppr:1.0", "--check",
                           "psd,sym_psd,log_metric,log_proximity,log_psd,log_order,distance_order",
                           "--json", str(j("p4-log"))],
                outputs=[j("p4-log")],
                kernels={("ppr", 0.9): kernel("ppr", PAPER_PATH4, 0.9),
                         ("heatppr", 1.0): kernel("heatppr", PAPER_PATH4, 1.0)}),
        Command("p5-rates", ["audit", "paper:path5", "--measure", "absorp:0.5",
                             "--rates", "1,2,1,2,1", "--check", "all", "--tol", "1e-8",
                             "--json", str(j("p5-rates"))],
                outputs=[j("p5-rates")],
                kernels={("absorp", 0.5): kernel("absorp", PAPER_PATH5, 0.5,
                                              np.array([1.0, 2.0, 1.0, 2.0, 1.0]))}),
        Command("heat-proximity", ["threshold", "paper:path4", "--measure", "heat",
                                   "--property", "proximity", "--range", "0.1", "1.0",
                                   "--json", str(j("heat-proximity"))],
                expect_exit=0, outputs=[j("heat-proximity")],
                bracket=PAPER_BRACKETS["heat-proximity"]),
        Command("ppr-triangle", ["threshold", "paper:path5", "--measure", "ppr",
                                 "--property", "triangle:1,3,4", "--range", "0.5", "0.999"],
                expect_exit=0, bracket=PAPER_BRACKETS["ppr-triangle"]),
        Command("ppr-sym_psd", ["threshold", "paper:path4", "--measure", "ppr",
                                "--property", "sym_psd", "--range", "0.9", "0.999"],
                expect_exit=0, bracket=PAPER_BRACKETS["ppr-sym_psd"]),
        Command("katz-order", ["threshold", "--graph", "paper:path4", "--measure", "katz",
                               "--property", "order:13<14", "--range", "0.1", "0.39",
                               "--json", str(j("katz-order"))],
                expect_exit=0, outputs=[j("katz-order")],
                bracket=PAPER_BRACKETS["katz-order"]),
        Command("p5-embed", ["embed", "paper:path5", "--measure", "heat:1.0",
                             "--out", str(work / "p5.csv")],
                expect_exit=0, outputs=[work / "p5.csv"]),
        Command("heat-negative", ["embed", "paper:path4", "--measure", "heat:-1",
                                  "--out", str(work / "never.csv")],
                expect_exit=2),
    ]

    # Seeded small graphs, n = 6..10.
    sizes = [6, 7, 8, 9, 10]
    graphs = {n: tree_plus_edges(_rng(seed, 200 + n), n, 0.3) for n in sizes}
    paths = {n: write_graph(work / f"g{n}.txt", w) for n, w in graphs.items()}
    mix = [("katz", 0.1), ("comm", 0.5), ("dfact", 0.5), ("nheat", 1.0), ("modifppr", 0.5)]
    for n in (6, 8, 10):
        w = graphs[n]
        cmds.append(Command(
            f"g{n}-all",
            ["audit", paths[n], "--measure", ",".join(f"{m}:{p}" for m, p in mix), "--check", "all",
             "--json", str(j(f"g{n}-all"))],
            outputs=[j(f"g{n}-all")],
            kernels={(m, p): kernel(m, w, p) for m, p in mix},
        ))
    w = graphs[7]
    cmds.append(Command(
        "g7-heatppr", ["audit", paths[7], "--measure", "heatppr:0.5,ppr:0.5",
                       "--check", "psd,sym_psd,sq_euclidean,egocentrism",
                       "--json", str(j("g7-heatppr"))],
        outputs=[j("g7-heatppr")],
        kernels={("heatppr", 0.5): kernel("heatppr", w, 0.5), ("ppr", 0.5): kernel("ppr", w, 0.5)},
    ))
    for n in (9, 10):
        out = work / f"g{n}.csv"
        cmds.append(Command(f"g{n}-embed", ["embed", paths[n], "--measure", "regL:2.0",
                                            "--out", str(out)],
                            expect_exit=0, outputs=[out]))
    cmds.append(_order_threshold(
        seed, 3, work, "g8-comm-order", "comm", 8,
        lambda w: (np.linspace(0.05, 3.0, 30), 0.05)))
    return cmds


BUILDERS = {
    "audit-structure": audit_structure,
    "threshold-spectral": threshold_spectral,
    "paper-cli": paper_cli,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, work: Path) -> list[Command]:
    """Write the workload's input files under `work` and return its commands."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, work)
