import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphprox import (
    BUILTIN_GRAPHS,
    GraphFormatError,
    GraphValidationError,
    WeightedGraph,
    builtin_graph,
    load_graph,
    separation_labels,
    spectral_radius,
)
from graphprox.graphs import _neighbours

from oracles import (
    every_path_visits,
    labels_by_bfs,
    random_connected_graph,
    reference_matrices,
)

# the matrices a WeightedGraph holds, in reference_matrices' order
MATRICES = ("weights", "degree", "laplacian", "norm_laplacian", "markov")

PATH4_W = np.array(
    [[0, 2, 0, 0], [2, 0, 1, 0], [0, 1, 0, 2], [0, 0, 2, 0]], dtype=float
)
PATH5_W = np.array(
    [
        [0, 2, 0, 0, 0],
        [2, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 2],
        [0, 0, 0, 2, 0],
    ],
    dtype=float,
)


class TestLoadGraph:
    def test_path4_edge_list(self):
        g = load_graph("1 2 2\n2 3 1\n3 4 2")
        npt.assert_array_equal(g.weights, PATH4_W)

    def test_single_edge(self):
        g = load_graph("1 2 1")
        npt.assert_array_equal(g.weights, [[0, 1], [1, 0]])

    def test_path5_edge_list(self):
        g = load_graph("1 2 2\n2 3 1\n3 4 1\n4 5 2")
        npt.assert_array_equal(g.weights, PATH5_W)

    def test_comments_and_blank_lines(self):
        text = "# weighted path\n\n1 2 2\n  # interior edge\n2 3 1\n3 4 2\n"
        npt.assert_array_equal(load_graph(text).weights, PATH4_W)

    def test_builtins_match_hand_matrices(self):
        npt.assert_array_equal(builtin_graph("paper:path4").weights, PATH4_W)
        npt.assert_array_equal(builtin_graph("paper:path5").weights, PATH5_W)
        assert set(BUILTIN_GRAPHS) == {"paper:path4", "paper:path5"}

    def test_unknown_builtin(self):
        with pytest.raises(KeyError, match="paper:path9"):
            builtin_graph("paper:path9")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2", "expected 'i j w'"),
            ("1 2 3 4", "expected 'i j w'"),
            ("a 2 1", "line 1"),
            ("1 2 x", "line 1"),
            ("0 2 1", "1-based"),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            load_graph(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 1 2", "self-loop"),
            ("1 2 -1", "positive"),
            ("1 2 0", "positive"),
            ("1 2 nan", "positive"),
            ("1 2 inf", "positive"),
            ("1 2 -inf", "positive"),
            ("1 2 1e400", "positive"),  # parses as inf
            ("1 2 1\n2 1 3", "duplicate"),
            ("1 2 1\n3 4 1", "connected"),
            ("1 3 1", "connected"),  # vertex 2 is isolated
            ("", "no edges"),
            ("# only a comment", "no edges"),
            # rejected before a 10^8 x 10^8 weight matrix is allocated
            ("1 2 1\n2 100000000 1", "connected"),
        ],
    )
    def test_validation_errors(self, text, message):
        with pytest.raises(GraphValidationError, match=message):
            load_graph(text)

    @pytest.mark.parametrize("weight", ["1e400", "nan"])
    def test_non_finite_weight_is_named_as_such(self, weight):
        with pytest.raises(
            GraphValidationError,
            match=f"line 1: edge weight must be positive and finite, got {weight}$",
        ):
            load_graph(f"1 2 {weight}")

    # Each text with the weight matrix it gives or its exact error, as the
    # parser gave them when it stripped each line before splitting it.
    # Python's str.strip and str.split read the same characters as
    # whitespace, the no-break space U+00A0 among them.
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("   # comment after leading spaces\n1 2 1\n", [[0, 1], [1, 0]]),
            ("\t# comment after a tab\n1\t2\t1\n2 3\t0.5\n",
             [[0, 1, 0], [1, 0, 0.5], [0, 0.5, 0]]),
            ("1 2 1\r\n2 3 2\r\n", [[0, 1, 0], [1, 0, 2], [0, 2, 0]]),
            ("#1 2 5\n1 2 1\n", [[0, 1], [1, 0]]),
            ("1 2 1\n   \n\t\n2 3 1\n", [[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
            ("1\xa02\xa01", [[0, 1], [1, 0]]),
            ("\xa0# comment after a no-break space\n1 2 1", [[0, 1], [1, 0]]),
            ("1 2 1_0", [[0, 10], [10, 0]]),
            ("2 1 3\n3 2 4\n", [[0, 3, 0], [3, 0, 4], [0, 4, 0]]),
            ("1 2 1.5\n2 1 1.5\n", (GraphValidationError, "line 2: duplicate edge 1-2")),
            ("0 3 1", (GraphFormatError, "line 1: vertex indices are 1-based")),
            ("3 0 1", (GraphFormatError, "line 1: vertex indices are 1-based")),
            ("2 2 1", (GraphValidationError, "line 1: self-loop at vertex 2")),
            *[
                (f"1 2 {w}", (
                    GraphValidationError,
                    f"line 1: edge weight must be positive and finite, got {w}",
                ))
                for w in ("nan", "-0.0", "inf", "1e400")
            ],
            ("1 2 1 4", (GraphFormatError, "line 1: expected 'i j w', got 4 field(s)")),
            ("1 2 1 # trailing comment",
             (GraphFormatError, "line 1: expected 'i j w', got 6 field(s)")),
            ("1.0 2 1",
             (GraphFormatError, "line 1: invalid literal for int() with base 10: '1.0'")),
            ("1 2 0x1", (GraphFormatError, "line 1: could not convert string to float: '0x1'")),
        ],
    )
    def test_parse_outcome_table(self, text, expected):
        if isinstance(expected, tuple):
            error, message = expected
            with pytest.raises(Exception) as got:
                load_graph(text)
            assert type(got.value) is error
            assert str(got.value) == message
        else:
            npt.assert_array_equal(load_graph(text).weights, expected)

    def test_reports_offending_line_number(self):
        with pytest.raises(GraphValidationError, match="line 2"):
            load_graph("1 2 1\n2 3 -5")

    def test_weights_immutable(self):
        g = load_graph("1 2 1")
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0

    def test_graphs_compare_by_identity(self):
        g, h = builtin_graph("paper:path4"), builtin_graph("paper:path4")
        assert g == g and not g != g
        assert g != h and not g == h
        assert hash(g) == hash(g)
        assert len({g, h, g}) == 2


class TestWeightedGraphValidation:
    def test_asymmetric_rejected(self):
        w = np.array([[0, 1], [2, 0]], dtype=float)
        with pytest.raises(GraphValidationError, match="symmetric"):
            WeightedGraph(w)

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphValidationError, match="at least 2"):
            WeightedGraph(np.zeros((1, 1)))

    @pytest.mark.parametrize("w", [
        # vertex 1 would have degree 0
        [[0, 1e-13], [0, 0]],
        # a search along rows would follow 0-2 one way only
        [[0, 1, 1e-13], [1, 0, 1], [0, 1, 0]],
    ])
    def test_edge_seen_from_one_end_rejected(self, w):
        with pytest.raises(GraphValidationError, match="symmetric"):
            WeightedGraph(np.array(w, dtype=float))

    @pytest.mark.parametrize("scale", [1.0, 1e13])
    def test_symmetry_is_exact_at_every_scale(self, scale):
        # an absolute tolerance of 1e-12 would pass the unscaled matrix,
        # whose regL:1e12 kernel then fails psd as "not symmetric"
        w = scale * np.array([[0, 1e-13, 0], [5e-13, 0, 1e-13], [0, 1e-13, 0]])
        with pytest.raises(GraphValidationError, match="^weight matrix must be symmetric$"):
            WeightedGraph(w)

    @pytest.mark.parametrize("w, message", [
        (np.zeros((2, 3)), "weight matrix must be square"),
        (np.zeros(4), "weight matrix must be square"),
        # finiteness is tested before symmetry
        ([[0, np.nan], [1, 0]], "weights must be finite"),
        ([[0, np.nan], [np.nan, 0]], "weights must be finite"),
        ([[0, np.inf], [np.inf, 0]], "weights must be finite"),
        ([[0, -1], [-1, 0]], "weights must be nonnegative"),
        ([[1, 1], [1, 0]], "self-loops are not allowed"),
    ])
    def test_constructor_guards(self, w, message):
        with pytest.raises(GraphValidationError, match=f"^{message}$"):
            WeightedGraph(np.array(w, dtype=float))


class TestBuildMatrices:
    """The matrices a WeightedGraph computes on first use."""

    def test_path4_degree_and_laplacian(self, path4):
        npt.assert_allclose(np.diag(path4.degree), [2, 3, 3, 2])
        npt.assert_allclose(path4.laplacian.sum(axis=1), 0, atol=1e-12)

    def test_path4_markov_entries(self, path4):
        # row 2 of W divided by its degree 3
        assert path4.markov[1, 2] == pytest.approx(1 / 3)
        assert path4.markov[1, 0] == pytest.approx(2 / 3)

    def test_single_edge_forced_values(self):
        g = load_graph("1 2 1")
        npt.assert_allclose(g.laplacian, [[1, -1], [-1, 1]])
        npt.assert_allclose(g.markov, [[0, 1], [1, 0]])

    def test_norm_laplacian_symmetric(self, path4):
        npt.assert_allclose(path4.norm_laplacian, path4.norm_laplacian.T, atol=1e-14)

    def test_matrices_cannot_be_replaced(self):
        g = load_graph("1 2 1")
        for name in (*MATRICES, "rho", "n"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
            with pytest.raises(AttributeError):
                delattr(g, name)

    def test_invariants_on_corpus(self, corpus):
        one = 1.0
        for g in corpus:
            npt.assert_allclose(g.weights, g.weights.T, atol=1e-12)
            npt.assert_allclose(g.laplacian.sum(axis=1), 0, atol=1e-12)
            npt.assert_allclose(g.markov.sum(axis=1), one, atol=1e-12)
            assert np.diag(g.degree).min() > 0


def assert_matrices_match_reference(g, order=MATRICES):
    """Each matrix, read in the given order, has the former build_matrices
    bytes, is read-only and is the same object when read again."""
    ref = reference_matrices(g)
    for name in order:
        got = getattr(g, name)
        assert (got.dtype, got.shape) == (ref[name].dtype, ref[name].shape), name
        assert got.tobytes() == ref[name].tobytes(), name
        assert not got.flags.writeable, name
        assert getattr(g, name) is got, name
    assert g.rho == spectral_radius(ref["weights"])
    assert g.rho is g.rho
    assert g.n == ref["weights"].shape[0]


@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    order=st.permutations(MATRICES),
)
def test_cached_matrices_equal_former_build_matrices(n, seed, order):
    g = random_connected_graph(np.random.default_rng(seed), n, name="g")
    assert_matrices_match_reference(g, order)


def test_cached_matrices_equal_former_build_matrices_on_corpus(corpus):
    for g in corpus:
        assert_matrices_match_reference(g)


class TestIsCutBetween:
    """Vertex j separates i from k exactly when comp[j, i] != comp[j, k]
    in the separation table, the library's one cut-vertex query."""

    def test_interior_vertex_separates_path(self, path4):
        comp = separation_labels(path4)
        assert comp[1, 0] != comp[1, 2]  # vertex 2 between 1 and 3

    def test_endpoint_cannot_separate(self, path4):
        comp = separation_labels(path4)
        assert comp[3, 0] == comp[3, 1]

    def test_triangle_has_no_cut_vertex(self, triangle):
        comp = separation_labels(triangle)
        for j in range(3):
            i, k = [v for v in range(3) if v != j]
            assert comp[j, i] == comp[j, k]

    def test_agrees_with_path_enumeration_oracle(self, corpus):
        for g in corpus:
            if g.n > 7:
                continue
            comp = separation_labels(g)
            for j in range(g.n):
                for i in range(g.n):
                    for k in range(g.n):
                        if len({i, j, k}) != 3:
                            continue
                        assert (comp[j, i] != comp[j, k]) == every_path_visits(
                            g.weights, j, i, k
                        ), (g.name, j, i, k)


def test_separation_labels_built_once_and_read_only(path5):
    comp = separation_labels(path5)
    assert separation_labels(path5) is comp
    assert not comp.flags.writeable


def test_neighbours_match_per_row_flatnonzero(corpus, path4):
    # isolated vertices first, inside and last: rows with no neighbour
    isolated = np.zeros((6, 6))
    isolated[1, 3] = isolated[3, 1] = isolated[2, 4] = isolated[4, 2] = 1.0
    extra = [np.asfortranarray(path4.weights), isolated, np.zeros((2, 2))]
    for w in [g.weights for g in corpus] + extra:
        assert _neighbours(w) == [np.flatnonzero(row).tolist() for row in w]


def graph_of_edges(n: int, edges, perm=None) -> WeightedGraph:
    """Unit-weight graph on n vertices; vertex v is renamed perm[v]."""
    perm = range(n) if perm is None else perm
    w = np.zeros((n, n))
    for u, v in edges:
        w[perm[u], perm[v]] = w[perm[v], perm[u]] = 1.0
    return WeightedGraph(w)


def path_edges(n: int):
    return [(v, v + 1) for v in range(n - 1)]


def assert_table_is_bfs(g: WeightedGraph) -> None:
    got, want = separation_labels(g), labels_by_bfs(g)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    extra=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
)
def test_separation_table_equals_bfs_labels(n, seed, extra):
    # a random tree plus each further edge with probability extra, its
    # vertices renamed at random: the sparse ones have many cut vertices
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    edges += [(u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < extra]
    assert_table_is_bfs(graph_of_edges(n, edges, rng.permutation(n)))


@pytest.mark.parametrize("n", range(2, 13))
def test_separation_table_of_paths_complete_graphs_and_stars(n):
    assert_table_is_bfs(graph_of_edges(n, path_edges(n)))
    assert_table_is_bfs(graph_of_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)]))
    for centre in sorted({0, n // 2, n - 1}):
        assert_table_is_bfs(graph_of_edges(n, [(centre, v) for v in range(n) if v != centre]))


@pytest.mark.parametrize("root_cut", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_separation_table_of_permuted_near_paths(seed, root_cut):
    # a 15-path with some chords between vertices two apart; vertex 0 of
    # the graph, where the search starts, sits at an end or inside a run
    # of chordless edges, where it separates the path
    rng = np.random.default_rng(seed)
    n = 15
    edges = path_edges(n) + [(v, v + 2) for v in (1, 2, 9, 10) if rng.random() < 0.7]
    perm = rng.permutation(n)
    at = 7 if root_cut else int(rng.choice([0, n - 1]))
    perm[perm == 0], perm[at] = perm[at], 0
    g = graph_of_edges(n, edges, perm)
    assert (separation_labels(g)[0] > 0).any() == root_cut
    assert_table_is_bfs(g)


@pytest.mark.parametrize("n,dtype", [(127, np.int8), (128, np.int8), (129, np.int16)])
def test_separation_table_of_long_paths(n, dtype):
    # n labels with -1 fit int8 up to n = 128
    g = graph_of_edges(n, path_edges(n))
    assert separation_labels(g).dtype == dtype
    assert_table_is_bfs(g)
