import numpy as np
import numpy.testing as npt
import pytest

from graphprox import (
    BUILTIN_GRAPHS,
    GraphFormatError,
    GraphValidationError,
    WeightedGraph,
    build_matrices,
    builtin_graph,
    is_cut_between,
    load_graph,
    separation_labels,
)
from graphprox.graphs import _neighbours

from oracles import every_path_visits

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

    def test_reports_offending_line_number(self):
        with pytest.raises(GraphValidationError, match="line 2"):
            load_graph("1 2 1\n2 3 -5")

    def test_weights_immutable(self):
        g = load_graph("1 2 1")
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0


class TestWeightedGraphValidation:
    def test_asymmetric_rejected(self):
        w = np.array([[0, 1], [2, 0]], dtype=float)
        with pytest.raises(GraphValidationError, match="symmetric"):
            WeightedGraph(2, w)

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphValidationError, match="at least 2"):
            WeightedGraph(1, np.zeros((1, 1)))

    def test_wrong_order_rejected(self):
        with pytest.raises(GraphValidationError, match="does not match"):
            WeightedGraph(3, np.array([[0, 1], [1, 0]], dtype=float))


class TestBuildMatrices:
    def test_path4_degree_and_laplacian(self, path4_gm):
        npt.assert_allclose(np.diag(path4_gm.degree), [2, 3, 3, 2])
        npt.assert_allclose(path4_gm.laplacian.sum(axis=1), 0, atol=1e-12)

    def test_path4_markov_entries(self, path4_gm):
        # row 2 of W divided by its degree 3
        assert path4_gm.markov[1, 2] == pytest.approx(1 / 3)
        assert path4_gm.markov[1, 0] == pytest.approx(2 / 3)

    def test_single_edge_forced_values(self):
        gm = build_matrices(load_graph("1 2 1"))
        npt.assert_allclose(gm.laplacian, [[1, -1], [-1, 1]])
        npt.assert_allclose(gm.markov, [[0, 1], [1, 0]])

    def test_norm_laplacian_symmetric(self, path4_gm):
        npt.assert_allclose(path4_gm.norm_laplacian, path4_gm.norm_laplacian.T, atol=1e-14)

    def test_invariants_on_corpus(self, corpus):
        one = 1.0
        for g, gm in corpus:
            npt.assert_allclose(gm.weights, gm.weights.T, atol=1e-12)
            npt.assert_allclose(gm.laplacian.sum(axis=1), 0, atol=1e-12)
            npt.assert_allclose(gm.markov.sum(axis=1), one, atol=1e-12)
            assert np.diag(gm.degree).min() > 0


class TestIsCutBetween:
    def test_interior_vertex_separates_path(self, path4):
        assert is_cut_between(path4, 1, 0, 2)  # vertex 2 between 1 and 3

    def test_endpoint_cannot_separate(self, path4):
        assert not is_cut_between(path4, 3, 0, 1)

    def test_triangle_has_no_cut_vertex(self, triangle):
        for j in range(3):
            others = [v for v in range(3) if v != j]
            assert not is_cut_between(triangle, j, others[0], others[1])

    def test_rejects_repeated_vertices(self, path4):
        with pytest.raises(ValueError, match="distinct"):
            is_cut_between(path4, 1, 1, 2)

    def test_rejects_out_of_range(self, path4):
        with pytest.raises(IndexError):
            is_cut_between(path4, 4, 0, 1)

    def test_agrees_with_path_enumeration_oracle(self, corpus):
        for g, _ in corpus:
            if g.n > 7:
                continue
            for j in range(g.n):
                for i in range(g.n):
                    for k in range(g.n):
                        if len({i, j, k}) != 3:
                            continue
                        assert is_cut_between(g, j, i, k) == every_path_visits(
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
    for w in [g.weights for g, _ in corpus] + extra:
        assert _neighbours(w) == [np.flatnonzero(row).tolist() for row in w]
