"""Weighted-graph loading, validation, and the fundamental matrices.

Vertices are 1-based in edge-list files and in all user-facing reports,
0-based everywhere inside the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _symmetrized, spectral_radius

__all__ = [
    "GraphFormatError",
    "GraphValidationError",
    "WeightedGraph",
    "load_graph",
    "builtin_graph",
    "BUILTIN_GRAPHS",
    "separation_labels",
]


class GraphFormatError(ValueError):
    """Edge-list text could not be parsed."""


class GraphValidationError(ValueError):
    """Parsed input violates a structural requirement (self-loop,
    non-positive weight, duplicate edge, disconnected graph, ...)."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _neighbours(weights: np.ndarray) -> list[list[int]]:
    """Sorted neighbour list of every vertex, cut from one np.nonzero:
    its indices come in row-major order, so each row's columns are one
    slice."""
    rows, cols = np.nonzero(weights)
    stops = np.searchsorted(rows, np.arange(1, len(weights) + 1)).tolist()
    cols = cols.tolist()
    return [cols[start:stop] for start, stop in zip([0, *stops], stops)]


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Connected undirected graph given by an exactly symmetric
    nonnegative weight matrix with zero diagonal. Immutable after
    construction; graphs compare by identity. A matrix formed in floats,
    such as X @ X.T, may round its two triangles differently: average it
    with its transpose first.

    Its fundamental matrices are computed on first use and then kept,
    each read-only:

    weights          W, symmetric nonnegative
    degree           D = Diag(W 1)
    laplacian        L = D - W, zero row sums
    norm_laplacian   D^(-1/2) L D^(-1/2)
    markov           P = D^(-1) W, row stochastic
    rho              spectral radius of W
    """

    weights: np.ndarray
    name: str = "graph"

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise GraphValidationError("weight matrix must be square")
        if w.shape[0] < 2:
            raise GraphValidationError("graph must have at least 2 vertices")
        if not np.isfinite(w).all():
            raise GraphValidationError("weights must be finite")
        if (w != w.T).any():
            raise GraphValidationError("weight matrix must be symmetric")
        if w.min() < 0:
            raise GraphValidationError("weights must be nonnegative")
        if np.abs(np.diag(w)).max() > 0:
            raise GraphValidationError("self-loops are not allowed")
        object.__setattr__(self, "weights", _read_only(w))
        if len(self._traversal[0]) < self.n:
            raise GraphValidationError("graph must be connected")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    # Connectivity with n >= 2 guarantees every degree is positive.
    @cached_property
    def degree(self) -> np.ndarray:
        return _read_only(np.diag(self.weights.sum(axis=1)))

    @cached_property
    def laplacian(self) -> np.ndarray:
        return _read_only(self.degree - self.weights)

    @cached_property
    def norm_laplacian(self) -> np.ndarray:
        inv_sqrt = np.diag(1.0 / np.sqrt(self.weights.sum(axis=1)))
        norm_laplacian = inv_sqrt @ self.laplacian @ inv_sqrt
        return _read_only(_symmetrized(norm_laplacian))

    @cached_property
    def markov(self) -> np.ndarray:
        return _read_only(self.weights / self.weights.sum(axis=1)[:, None])

    @cached_property
    def rho(self) -> float:
        return spectral_radius(self.weights)

    @cached_property
    def _traversal(self) -> tuple[list[int], list[int], list[int]]:
        """One iterative depth-first search from vertex 0: the reached
        vertices in discovery order, and per vertex its parent in the
        search tree and its discovery time disc. The root's parent is -1,
        and both are -1 where the search did not reach.

        A vertex is discovered when popped, and its parent is the last
        vertex that pushed it, so the search is depth-first: every edge
        joins an ancestor to a descendant, and the subtree of v is one
        discovery-order range starting at disc[v].
        """
        neighbours = _neighbours(self.weights)
        order, parent, disc = [], [-1] * self.n, [-1] * self.n
        stack = [0]
        while stack:
            v = stack.pop()
            if disc[v] < 0:
                disc[v] = len(order)
                order.append(v)
                for u in neighbours[v]:
                    if disc[u] < 0:
                        parent[u] = v
                        stack.append(u)
        return order, parent, disc

    @cached_property
    def _separation(self) -> np.ndarray:
        order, parent, disc = self._traversal
        n = self.n
        # low[v] starts as the least disc adjacent to v and becomes the
        # least over v's subtree; children come before their parents in
        # reverse discovery order, so each is final when read
        low = np.where(self.weights > 0, disc, n).min(axis=1).tolist()
        size, lowest = [1] * n, list(range(n))
        # Removing j splits off the subtree of each child c with
        # low[c] >= disc[j] (Hopcroft & Tarjan, CACM 16(6), 1973), which
        # holds for every child of the root 0.
        # Unless j is 0, what is left holds vertex 0 and takes label 0, and
        # the parts count up from 1 in the order of their lowest vertices.
        parts: dict[int, list[tuple[int, int, int]]] = {}
        for c in reversed(order[1:]):
            j = parent[c]
            if low[c] >= disc[j]:
                parts.setdefault(j, []).append((lowest[c], disc[c], disc[c] + size[c]))
            size[j] += size[c]
            low[j] = min(low[j], low[c])
            lowest[j] = min(lowest[j], lowest[c])
        # the narrowest signed type that holds every label: the triple
        # checks compare these labels n^3 times
        table = np.zeros((n, n), dtype=np.min_scalar_type(-n))
        for j, ranges in parts.items():  # columns in discovery order
            for label, (_, start, stop) in enumerate(sorted(ranges), start=int(j != 0)):
                table[j, start:stop] = label
        comp = table[:, disc]
        np.fill_diagonal(comp, -1)
        return _read_only(comp)


# Weighted paths 1-2-3-4 (edge weights 2, 1, 2) and 1-2-3-4-5
# (edge weights 2, 1, 1, 2), available without a file.
BUILTIN_GRAPHS: dict[str, str] = {
    "paper:path4": "1 2 2\n2 3 1\n3 4 2\n",
    "paper:path5": "1 2 2\n2 3 1\n3 4 1\n4 5 2\n",
}


def load_graph(source: str, name: str = "graph") -> WeightedGraph:
    """Parse edge-list text: one "i j w" edge per line, 1-based vertex
    indices, positive finite weights, '#' starting a comment line."""
    edges: dict[tuple[int, int], float] = {}
    vertices: set[int] = set()
    for lineno, raw in enumerate(source.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
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
            raise GraphValidationError(
                f"line {lineno}: edge weight must be positive and finite, got {fields[2]}"
            )
        key = (i, j) if i < j else (j, i)
        if key in edges:
            raise GraphValidationError(f"line {lineno}: duplicate edge {key[0]}-{key[1]}")
        edges[key] = w
        vertices.update(key)
    if not edges:
        raise GraphValidationError("no edges found")
    max_vertex = max(vertices)
    # An unused label is an isolated vertex; rejecting it here also keeps
    # a huge label from sizing the weight matrix.
    if len(vertices) < max_vertex:
        raise GraphValidationError("graph must be connected")
    weights = np.zeros((max_vertex, max_vertex))
    for (i, j), w in edges.items():
        weights[i - 1, j - 1] = w
        weights[j - 1, i - 1] = w
    return WeightedGraph(weights, name=name)


def builtin_graph(name: str) -> WeightedGraph:
    """Return one of the built-in named graphs (see BUILTIN_GRAPHS)."""
    try:
        text = BUILTIN_GRAPHS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_GRAPHS))
        raise KeyError(f"unknown built-in graph {name!r} (known: {known})") from None
    return load_graph(text, name=name)


def separation_labels(g: WeightedGraph) -> np.ndarray:
    """comp[j, v] is the component label of v in G - j, with comp[j, j] = -1.

    For distinct i, j, k, vertex j separates i from k exactly when
    comp[j, i] != comp[j, k]. Labels count up from 0 in the order of each
    component's lowest vertex. Built once per graph from the depth-first
    search that checked its connectivity, in O(n^2) numpy work and
    O(n + m) Python steps; later calls return the same read-only array.
    """
    return g._separation

