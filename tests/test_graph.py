import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_laplacian, make_instance
from fjopinion.errors import GraphInputError
from fjopinion.graph import (
    StubbornnessVector,
    build_graph,
    eigen_bounds,
    laplacian_apply,
    load_edge_list,
    operator_matrix,
)


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph([(1, 2, 1.0)])
        assert g.n == 2 and g.m == 1
        assert np.allclose(g.degrees, [1.0, 1.0])

    def test_duplicate_edges_merged_by_summation(self):
        g = build_graph([(7, 9, 2.0), (9, 7, 3.0)])
        assert g.n == 2 and g.m == 1
        assert g.edge_w[0] == 5.0

    def test_self_loop_dropped_with_count(self):
        g = build_graph([(1, 1, 4.0), (1, 2, 1.0)])
        assert g.n == 2 and g.m == 1
        assert g.self_loops_dropped == 1

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphInputError, match="edge 2"):
            build_graph([(1, 2, 1.0), (2, 3, -0.5)])
        with pytest.raises(GraphInputError):
            build_graph([(1, 2, float("nan"))])

    def test_empty_input_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph([])

    def test_declared_isolated_nodes(self):
        g = build_graph([], declared_nodes=[0, 1, 2])
        assert g.n == 3 and g.m == 0

    def test_id_remap_retained(self):
        g = build_graph([("a", "b", 1.0), ("b", "c", 2.0)])
        assert g.ids == ("a", "b", "c")

    def test_deterministic_construction(self):
        triples = [(3, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)]
        assert build_graph(triples).fingerprint() == build_graph(triples).fingerprint()


class TestEdgeList:
    def test_parse_with_comments_and_default_weight(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# snap header\n% koblenz header\n1 2\n2 3 2.5\n")
        g = load_edge_list(path)
        assert g.n == 3 and g.m == 2
        assert sorted(g.edge_w.tolist()) == [1.0, 2.5]

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n1 2 3 4\n")
        with pytest.raises(GraphInputError, match=":2"):
            load_edge_list(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphInputError):
            load_edge_list(path)


class TestLaplacian:
    def test_path_of_two(self, path2):
        assert np.allclose(laplacian_apply(path2, np.array([1.0, -1.0])), [2.0, -2.0])

    def test_annihilates_constants(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g, _, _ = make_instance(rng)
            out = laplacian_apply(g, np.ones(g.n))
            assert np.abs(out).max() <= 1e-12 * g.n * g.w_max

    def test_triangle_against_dense_oracle(self):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        x = np.array([1.0, 0.0, 0.0])
        assert np.allclose(laplacian_apply(g, x), dense_laplacian(g) @ x)
        assert np.allclose(laplacian_apply(g, x), [2.0, -1.0, -1.0])

    def test_dimension_mismatch(self, path2):
        with pytest.raises(GraphInputError):
            laplacian_apply(path2, np.zeros(3))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_incidence_composition_matches(self, seed):
        rng = np.random.default_rng(seed)
        g, _, _ = make_instance(rng, n_max=25)
        x = rng.standard_normal(g.n)
        flow = g.edge_w * (x[g.edge_u] - x[g.edge_v])  # W B x, b_e = e_u - e_v
        btwbx = np.bincount(g.edge_u, flow, g.n) - np.bincount(g.edge_v, flow, g.n)
        lx = laplacian_apply(g, x)
        scale = max(np.abs(lx).max(), 1.0)
        assert np.abs(btwbx - lx).max() <= 1e-12 * scale

    def test_weighted_incidence_norm_is_dirichlet_energy(self):
        rng = np.random.default_rng(3)
        g, _, _ = make_instance(rng)
        x = rng.standard_normal(g.n)
        energy = float(x @ laplacian_apply(g, x))
        assert np.isclose(g.edge_w @ (x[g.edge_u] - x[g.edge_v]) ** 2, energy)


class TestStubbornness:
    def test_extremes_cached(self):
        k = StubbornnessVector.from_values([2.0, 0.5, 1.5])
        assert k.k_min == 0.5 and k.k_max == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphInputError):
            StubbornnessVector.from_values([1.0, 0.0])
        with pytest.raises(GraphInputError):
            StubbornnessVector.from_values([1.0, float("inf")])


class TestEigenBounds:
    def test_two_node_path(self, path2, k21):
        bounds = eigen_bounds(path2, k21)
        eig = np.linalg.eigvalsh(operator_matrix(path2, k21).toarray())
        assert bounds.lower == 1.0
        assert eig.min() >= bounds.lower and eig.max() <= bounds.upper
        assert bounds.coarse_upper == 2.0 + 2 * 1.0

    def test_single_node(self):
        g = build_graph([], declared_nodes=[0])
        k = StubbornnessVector.from_values([5.0])
        bounds = eigen_bounds(g, k)
        assert (bounds.lower, bounds.upper) == (5.0, 5.0)

    def test_star_paper_bound(self):
        g = build_graph([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        k = StubbornnessVector.uniform(4, 1.0)
        bounds = eigen_bounds(g, k)
        assert bounds.lower == 1.0
        assert bounds.coarse_upper == 1.0 + 4 * 1.0

    def test_spectrum_inside_paper_bounds_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g, k, _ = make_instance(rng, n_max=50)
            bounds = eigen_bounds(g, k)
            eig = np.linalg.eigvalsh(operator_matrix(g, k).toarray())
            assert eig.min() >= bounds.lower - 1e-9
            assert eig.max() <= bounds.coarse_upper + 1e-9
