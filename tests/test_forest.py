import numpy as np
import pytest

from fjopinion.dynamics import fundamental_matrix
from fjopinion.errors import SizeGuardError
from fjopinion.forest import COMBINATION_CAP, MappedDigraph, enumerate_forests, forest_matrix
from fjopinion.generate import random_connected_gnp
from fjopinion.graph import Graph, StubbornnessVector, build_graph


def test_mapped_digraph_arcs(path2, k21):
    d = MappedDigraph.of(path2, k21)
    assert len(d.arcs) == 2 * path2.m
    assert set(d.arcs) == {(0, 1, 0.5), (1, 0, 1.0)}


def test_mapped_laplacian_equals_scaled_laplacian():
    rng = np.random.default_rng(3)
    g = random_connected_gnp(6, 0.5, 11)
    k = StubbornnessVector.from_values(rng.uniform(0.5, 3.0, size=g.n))
    lap = MappedDigraph.of(g, k).laplacian()
    dense_l = np.diag(g.degrees) - g.adjacency.toarray()
    assert np.abs(lap - dense_l / k.k[:, None]).max() <= 1e-12


def test_two_node_enumeration(path2, k21):
    enum = enumerate_forests(MappedDigraph.of(path2, k21))
    # admissible subsets: empty (1), {0->1} (1/2), {1->0} (1)
    assert enum.forest_count == 3
    assert enum.total_weight == pytest.approx(2.5, abs=1e-15)
    # sink attribution: entry (0,0) <- {empty, 1->0}; entry (0,1) <- {0->1}
    assert enum.pair_weights[0, 0] == pytest.approx(2.0)
    assert enum.pair_weights[0, 1] == pytest.approx(0.5)


def test_two_node_total_matches_determinant(path2, k21):
    d = MappedDigraph.of(path2, k21)
    det = np.linalg.det(np.eye(2) + d.laplacian())
    assert enumerate_forests(d).total_weight == pytest.approx(det, rel=1e-12)


def test_two_node_forest_matrix(path2, k21):
    phi = forest_matrix(MappedDigraph.of(path2, k21))
    assert np.allclose(phi, [[0.8, 0.2], [0.4, 0.6]], atol=1e-12)


def test_single_node():
    g = Graph.from_arrays([], [], [], 1)
    d = MappedDigraph.of(g, StubbornnessVector.from_values([4.0]))
    enum = enumerate_forests(d)
    assert enum.total_weight == 1.0 and enum.forest_count == 1
    assert np.allclose(forest_matrix(d), [[1.0]])


def test_edgeless_graph_gives_identity():
    g = Graph.from_arrays([], [], [], 4)
    d = MappedDigraph.of(g, StubbornnessVector.uniform(4, 2.0))
    assert np.allclose(forest_matrix(d), np.eye(4))


def test_node_cap_guard():
    g = build_graph([(i, i + 1, 1.0) for i in range(13)])
    d = MappedDigraph.of(g, StubbornnessVector.uniform(g.n, 1.0))
    with pytest.raises(SizeGuardError):
        enumerate_forests(d)


def test_matches_dense_inverse_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        g = random_connected_gnp(n, 0.4, int(rng.integers(0, 2**31)))
        k = StubbornnessVector.from_values(rng.uniform(0.5, 3.0, size=g.n))
        d = MappedDigraph.of(g, k)
        enum = enumerate_forests(d)
        ident_plus = np.eye(g.n) + d.laplacian()
        det = float(np.linalg.det(ident_plus))
        assert enum.total_weight == pytest.approx(det, rel=1e-9)
        phi = enum.pair_weights / enum.total_weight
        assert np.abs(phi - np.linalg.inv(ident_plus)).max() <= 1e-9


def test_agrees_with_fundamental_matrix():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        g = random_connected_gnp(n, 0.4, int(rng.integers(0, 2**31)))
        k = StubbornnessVector.from_values(rng.uniform(0.5, 3.0, size=g.n))
        phi_forest = forest_matrix(MappedDigraph.of(g, k))
        phi_dyn = fundamental_matrix(g, k)
        assert np.abs(phi_forest - phi_dyn).max() <= 1e-9


def test_choice_space_guard():
    g = build_graph([(i, j, 1.0) for i in range(12) for j in range(i + 1, 12)])
    d = MappedDigraph.of(g, StubbornnessVector.uniform(g.n, 1.0))
    with pytest.raises(SizeGuardError) as exc:
        enumerate_forests(d)
    assert str(exc.value) == f"forest enumeration refused: choice space exceeds {COMBINATION_CAP}"
