import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.stats import skew

from fjopinion.errors import GraphInputError
from fjopinion.generate import (
    DISTRIBUTIONS,
    generate_opinions,
    generate_stubbornness,
    random_connected_gnp,
    random_regular_graph,
)


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_values_in_range(dist):
    s = generate_opinions(5000, dist, seed=1)
    assert s.min() >= -1.0 and s.max() <= 1.0


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_same_seed_same_vector(dist):
    assert np.array_equal(generate_opinions(200, dist, 42), generate_opinions(200, dist, 42))


def test_different_seed_differs():
    assert not np.array_equal(
        generate_opinions(200, "uniform", 1), generate_opinions(200, "uniform", 2)
    )


def test_uniform_mean_near_zero():
    s = generate_opinions(100_000, "uniform", 3)
    assert abs(s.mean()) < 0.02


def test_powerlaw_positive_skew():
    s = generate_opinions(100_000, "powerlaw", 5)
    assert skew(s) > 0.0


def test_unknown_distribution():
    with pytest.raises(GraphInputError):
        generate_opinions(10, "cauchy", 0)


def test_stubbornness_range_and_determinism():
    k1 = generate_stubbornness(100, 0.5, 2.0, 9)
    k2 = generate_stubbornness(100, 0.5, 2.0, 9)
    assert np.array_equal(k1.k, k2.k)
    assert k1.k_min >= 0.5 and k1.k_max <= 2.0
    with pytest.raises(GraphInputError):
        generate_stubbornness(10, 0.0, 1.0, 0)


def test_regular_graph_near_regular():
    g = random_regular_graph(500, 4, seed=2)
    assert g.n == 500
    assert g.degrees.max() <= 4
    assert g.degrees.mean() > 3.5  # few stubs lost to loops/parallels


def test_regular_graph_frees_its_stubs_before_the_build():
    # Stubs, the paired halves and the build's peak at once read 3.1 times
    # the graph; the build alone, 1.3.
    tracemalloc.start()
    try:
        g = random_regular_graph(100_000, 4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    a = g.adjacency
    size = sum(x.nbytes for x in (g.edge_u, g.edge_v, g.edge_w, g.degrees, g.ids,
                                  a.data, a.indices, a.indptr))
    assert peak < 1.8 * size


def test_connected_gnp_is_connected():
    import scipy.sparse.csgraph as csgraph

    g = random_connected_gnp(30, 0.1, 4)
    n_comp, _ = csgraph.connected_components(g.adjacency, directed=False)
    assert n_comp == 1


# make_instance, random_instance and the verify sweep rely on a seed giving
# the same graph, weights and edge order included.
@pytest.mark.parametrize(
    "make, args, fingerprint",
    [
        (random_connected_gnp, (40, 0.25, 8), "9c8b4699a2c5a658"),
        (random_connected_gnp, (3, 0.25, 0), "8809e4a4bd6290a5"),
        (random_connected_gnp, (30, 0.1, 4), "e4a3e99412468615"),
        (random_connected_gnp, (2, 0.0, 1), "99f2d78e67e28066"),
        (random_connected_gnp, (60, 0.05, 123), "7ee6ff808fb42ea9"),
        (random_regular_graph, (500, 4, 2), "ab34f4333c28b3e7"),
        (random_regular_graph, (1000, 3, 7), "3dca78d4a72fb18f"),
    ],
)
def test_seeded_graphs_keep_their_fingerprints(make, args, fingerprint, monkeypatch):
    g = make(*args)
    hashes = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda: hashes.append(1) or sha256())
    assert g.fingerprint() == fingerprint
    assert g.fingerprint() == fingerprint and len(hashes) == 1  # hashed once
    assert g.ids.tolist() == list(range(g.n)) and g.self_loops_dropped == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: generate_opinions(0, "uniform", 0), "n must be >= 1"),
        (lambda: random_regular_graph(5, 3, 0), "need n >= 2 and n * degree even"),
    ],
    ids=["no-opinions", "odd-stub-count"],
)
def test_input_checks(call, message):
    with pytest.raises(GraphInputError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("dist", ["exponential", "powerlaw"])
def test_single_rescaled_opinion_is_zero(dist):
    # One sample has no spread to rescale: min == max maps it to 0.
    assert generate_opinions(1, dist, 0).tolist() == [0.0]
