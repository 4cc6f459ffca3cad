import numpy as np
import pytest

from conftest import make_instance
from fjopinion.errors import GraphInputError
from fjopinion.graph import (
    StubbornnessVector,
    build_graph,
    eigen_bounds,
    operator_matrix,
)
from fjopinion.solver import solve


def test_diagonal_system():
    g = build_graph([], declared_nodes=[0, 1])
    k = StubbornnessVector.from_values([2.0, 1.0])
    res = solve(operator_matrix(g, k), np.array([2.0, 1.0]), 1e-6, eigen_bounds(g, k))
    assert np.allclose(res.y, [1.0, 1.0], atol=1e-10)
    assert res.certified


def test_two_node_equilibrium_rhs(path2, k21):
    res = solve(
        operator_matrix(path2, k21), np.array([2.0, -1.0]), 1e-10, eigen_bounds(path2, k21)
    )
    assert res.certified
    assert np.allclose(res.y, [0.6, -0.2], atol=1e-9)


def test_zero_rhs_short_circuits(path2, k21):
    res = solve(operator_matrix(path2, k21), np.zeros(2), 1e-8, eigen_bounds(path2, k21))
    assert res.iterations == 0 and res.certified
    assert np.all(res.y == 0.0)


def test_rejects_bad_delta(path2, k21):
    with pytest.raises(GraphInputError):
        solve(operator_matrix(path2, k21), np.ones(2), 0.0, eigen_bounds(path2, k21))


def test_energy_norm_contract_random():
    rng = np.random.default_rng(41)
    for _ in range(25):
        g, k, _ = make_instance(rng, n_max=120)
        t = operator_matrix(g, k)
        b = rng.standard_normal(g.n)
        delta = float(10.0 ** rng.uniform(-8, -2))
        res = solve(t, b, delta, eigen_bounds(g, k))
        assert res.certified
        x_star = np.linalg.solve(t.toarray(), b)
        err = res.y - x_star
        t_norm = lambda v: np.sqrt(float(v @ (t @ v)))
        assert t_norm(err) <= delta * t_norm(x_star) + 1e-14


def test_unattainable_target_returns_uncertified(path2, k21):
    res = solve(
        operator_matrix(path2, k21), np.array([1.0, 2.0]), 1e-300, eigen_bounds(path2, k21)
    )
    assert not res.certified
    assert res.residual_norm < 1e-10  # still converged to the double-precision floor


def test_deterministic():
    rng = np.random.default_rng(43)
    g, k, _ = make_instance(rng, n_max=60)
    b = rng.standard_normal(g.n)
    r1 = solve(operator_matrix(g, k), b, 1e-9, eigen_bounds(g, k))
    r2 = solve(operator_matrix(g, k), b, 1e-9, eigen_bounds(g, k))
    assert np.array_equal(r1.y, r2.y)
    assert r1.iterations == r2.iterations


def test_iteration_scaling_on_path_family():
    # Fixed-degree family with bounded condition number: iteration growth
    # versus n should be strongly sublinear (log-log slope < 0.75).
    sizes = [100, 200, 400, 800]
    iters = []
    for n in sizes:
        g = build_graph([(i, i + 1, 1.0) for i in range(n - 1)])
        k = StubbornnessVector.uniform(n, 1.0)
        b = np.sin(np.arange(n))
        res = solve(operator_matrix(g, k), b, 1e-8, eigen_bounds(g, k))
        assert res.certified
        iters.append(res.iterations)
    slope = np.polyfit(np.log(sizes), np.log(iters), 1)[0]
    assert slope < 0.75
