"""Weighted-graph loading, validation, and the fundamental matrices.

Vertices are 1-based in edge-list files and in all user-facing reports,
0-based everywhere inside the library.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import is_symmetric, spectral_radius

__all__ = [
    "GraphFormatError",
    "GraphValidationError",
    "WeightedGraph",
    "GraphMatrices",
    "load_graph",
    "builtin_graph",
    "BUILTIN_GRAPHS",
    "build_matrices",
    "separation_labels",
    "is_cut_between",
]

_SYMMETRY_TOL = 1e-12


class GraphFormatError(ValueError):
    """Edge-list text could not be parsed."""


class GraphValidationError(ValueError):
    """Parsed input violates a structural requirement (self-loop,
    non-positive weight, duplicate edge, disconnected graph, ...)."""


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _neighbours(weights: np.ndarray) -> list[list[int]]:
    """Sorted neighbour list of every vertex, cut from one np.nonzero:
    its indices come in row-major order, so each row's columns are one
    slice."""
    rows, cols = np.nonzero(weights)
    stops = np.searchsorted(rows, np.arange(1, len(weights) + 1)).tolist()
    cols = cols.tolist()
    return [cols[start:stop] for start, stop in zip([0, *stops], stops)]


def _labels_without(neighbours: list[list[int]], j: int) -> list[int]:
    """Component label of every vertex once vertex j is removed, by BFS;
    j itself gets -1, and j = -1 removes nothing. Labels count up from 0
    in the order of each component's lowest vertex."""
    labels = [-1] * len(neighbours)
    label = 0
    for s in range(len(labels)):
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
    return labels


def _is_connected(weights: np.ndarray) -> bool:
    return max(_labels_without(_neighbours(weights), -1)) == 0


@dataclass(frozen=True)
class WeightedGraph:
    """Connected undirected graph given by a symmetric nonnegative weight
    matrix with zero diagonal. Immutable after construction."""

    n: int
    weights: np.ndarray
    name: str = "graph"

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise GraphValidationError("weight matrix must be square")
        if w.shape[0] != self.n:
            raise GraphValidationError(
                f"vertex count {self.n} does not match weight matrix of order {w.shape[0]}"
            )
        if self.n < 2:
            raise GraphValidationError("graph must have at least 2 vertices")
        if not np.isfinite(w).all():
            raise GraphValidationError("weights must be finite")
        if not is_symmetric(w, _SYMMETRY_TOL):
            raise GraphValidationError("weight matrix must be symmetric")
        if w.min() < 0:
            raise GraphValidationError("weights must be nonnegative")
        if np.abs(np.diag(w)).max() > 0:
            raise GraphValidationError("self-loops are not allowed")
        if not _is_connected(w):
            raise GraphValidationError("graph must be connected")
        object.__setattr__(self, "weights", _frozen(w))

    @cached_property
    def _separation(self) -> np.ndarray:
        neighbours = _neighbours(self.weights)
        # the narrowest signed type that holds every label: the triple
        # checks compare these labels n^3 times
        comp = np.array(
            [_labels_without(neighbours, j) for j in range(self.n)],
            dtype=np.min_scalar_type(-max(self.n, 1)),
        )
        comp.setflags(write=False)
        return comp


@dataclass(frozen=True)
class GraphMatrices:
    """The five fundamental matrices of a weighted graph.

    weights          W, symmetric nonnegative
    degree           D = Diag(W 1)
    laplacian        L = D - W, zero row sums
    norm_laplacian   D^(-1/2) L D^(-1/2)
    markov           P = D^(-1) W, row stochastic
    """

    graph: WeightedGraph
    weights: np.ndarray
    degree: np.ndarray
    laplacian: np.ndarray
    norm_laplacian: np.ndarray
    markov: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def rho(self) -> float:
        """Spectral radius of W, computed on first use and then kept."""
        return spectral_radius(self.weights)


# Weighted paths 1-2-3-4 (edge weights 2, 1, 2) and 1-2-3-4-5
# (edge weights 2, 1, 1, 2), available without a file.
BUILTIN_GRAPHS: dict[str, str] = {
    "paper:path4": "1 2 2\n2 3 1\n3 4 2\n",
    "paper:path5": "1 2 2\n2 3 1\n3 4 1\n4 5 2\n",
}


def load_graph(source: str, name: str = "graph") -> WeightedGraph:
    """Parse edge-list text: one "i j w" edge per line, 1-based vertex
    indices, positive weights, '#' starting a comment line."""
    edges: dict[tuple[int, int], float] = {}
    vertices: set[int] = set()
    max_vertex = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise GraphFormatError(
                f"line {lineno}: expected 'i j w', got {len(fields)} field(s)"
            )
        try:
            i, j = int(fields[0]), int(fields[1])
            w = float(fields[2])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
        if i < 1 or j < 1:
            raise GraphFormatError(f"line {lineno}: vertex indices are 1-based")
        if i == j:
            raise GraphValidationError(f"line {lineno}: self-loop at vertex {i}")
        if not math.isfinite(w) or w <= 0:
            raise GraphValidationError(f"line {lineno}: edge weight must be positive, got {fields[2]}")
        key = (min(i, j), max(i, j))
        if key in edges:
            raise GraphValidationError(f"line {lineno}: duplicate edge {key[0]}-{key[1]}")
        edges[key] = w
        vertices.update(key)
        max_vertex = max(max_vertex, i, j)
    if not edges:
        raise GraphValidationError("no edges found")
    # An unused label is an isolated vertex; rejecting it here also keeps
    # a huge label from sizing the weight matrix.
    if len(vertices) < max_vertex:
        raise GraphValidationError("graph must be connected")
    weights = np.zeros((max_vertex, max_vertex))
    for (i, j), w in edges.items():
        weights[i - 1, j - 1] = w
        weights[j - 1, i - 1] = w
    return WeightedGraph(max_vertex, weights, name=name)


def builtin_graph(name: str) -> WeightedGraph:
    """Return one of the built-in named graphs (see BUILTIN_GRAPHS)."""
    try:
        text = BUILTIN_GRAPHS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_GRAPHS))
        raise KeyError(f"unknown built-in graph {name!r} (known: {known})") from None
    return load_graph(text, name=name)


def build_matrices(g: WeightedGraph) -> GraphMatrices:
    """Construct W, D, L, the normalized Laplacian, and the Markov matrix."""
    w = np.array(g.weights)
    d = w.sum(axis=1)
    # Connectivity with n >= 2 guarantees every degree is positive.
    degree = np.diag(d)
    laplacian = degree - w
    inv_sqrt = np.diag(1.0 / np.sqrt(d))
    norm_laplacian = inv_sqrt @ laplacian @ inv_sqrt
    norm_laplacian = 0.5 * (norm_laplacian + norm_laplacian.T)
    markov = w / d[:, None]
    return GraphMatrices(
        graph=g,
        weights=_frozen(w),
        degree=_frozen(degree),
        laplacian=_frozen(laplacian),
        norm_laplacian=_frozen(norm_laplacian),
        markov=_frozen(markov),
    )


def separation_labels(g: WeightedGraph) -> np.ndarray:
    """comp[j, v] is the component label of v in G - j, with comp[j, j] = -1.

    For distinct i, j, k, vertex j separates i from k exactly when
    comp[j, i] != comp[j, k]. One BFS per removed vertex, O(n (n + m)),
    run once per graph: later calls return the same read-only array.
    """
    return g._separation


def is_cut_between(g: WeightedGraph, j: int, i: int, k: int) -> bool:
    """True iff removing vertex j disconnects i from k, i.e. every path
    from i to k visits j. Vertices are 0-based and must be distinct. Reads
    the graph's separation table (separation_labels)."""
    for v in (j, i, k):
        if not 0 <= v < g.n:
            raise IndexError(f"vertex {v} out of range for graph of order {g.n}")
    if len({i, j, k}) != 3:
        raise ValueError("vertices i, j, k must be distinct")
    comp = separation_labels(g)
    return bool(comp[j, i] != comp[j, k])
