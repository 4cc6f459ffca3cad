import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_instance
from fjopinion import solver
from fjopinion.errors import GraphInputError
from fjopinion.graph import Graph, StubbornnessVector, build_graph, operator_matrix
from fjopinion.solver import Certificate, energy_norm_certificate, solve


def solve_to(g, k, b, delta):
    """Solve (L+K) y = b to a certified relative energy-norm error delta."""
    return solve(operator_matrix(g, k), b, k, energy_norm_certificate(b, delta))


def test_diagonal_system():
    g = Graph.from_arrays([], [], [], 2)
    k = StubbornnessVector.from_values([2.0, 1.0])
    res = solve_to(g, k, np.array([2.0, 1.0]), 1e-6)
    assert np.allclose(res.y, [1.0, 1.0], atol=1e-10)
    assert res.certified


def test_two_node_equilibrium_rhs(path2, k21):
    res = solve_to(path2, k21, np.array([2.0, -1.0]), 1e-10)
    assert res.certified
    assert np.allclose(res.y, [0.6, -0.2], atol=1e-9)


def test_zero_rhs_short_circuits(path2, k21):
    res = solve_to(path2, k21, np.zeros(2), 1e-8)
    assert res.iterations == 0 and res.certified
    assert np.all(res.y == 0.0)


def test_rejects_bad_delta(path2, k21):
    with pytest.raises(GraphInputError):
        solve_to(path2, k21, np.ones(2), 0.0)


def test_energy_norm_contract_random():
    rng = np.random.default_rng(41)
    for _ in range(25):
        g, k, _ = make_instance(rng, n_max=120)
        t = operator_matrix(g, k)
        b = rng.standard_normal(g.n)
        delta = float(10.0 ** rng.uniform(-8, -2))
        res = solve(t, b, k, energy_norm_certificate(b, delta))
        assert res.certified
        x_star = np.linalg.solve(t.toarray(), b)
        err = res.y - x_star
        t_norm = lambda v: np.sqrt(float(v @ (t @ v)))
        assert t_norm(err) <= delta * t_norm(x_star) + 1e-14


def test_unattainable_target_returns_uncertified(path2, k21):
    res = solve_to(path2, k21, np.array([1.0, 2.0]), 1e-300)
    assert not res.certified and res.stop_reason == "stagnated"
    assert res.residual_norm < 1e-10  # still converged to the double-precision floor
    assert 1e-300 < res.bound < 1e-10  # the proved bound is reported all the same


def test_deterministic():
    rng = np.random.default_rng(43)
    g, k, _ = make_instance(rng, n_max=60)
    b = rng.standard_normal(g.n)
    r1 = solve_to(g, k, b, 1e-9)
    r2 = solve_to(g, k, b, 1e-9)
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
        res = solve_to(g, k, b, 1e-8)
        assert res.certified
        iters.append(res.iterations)
    slope = np.polyfit(np.log(sizes), np.log(iters), 1)[0]
    assert slope < 0.75


def test_certified_stop_reports_its_bound():
    rng = np.random.default_rng(47)
    g, k, _ = make_instance(rng, n_max=120)
    t = operator_matrix(g, k)
    b = rng.standard_normal(g.n)
    for delta in (1e-3, 1e-6, 1e-9):
        res = solve_to(g, k, b, delta)
        assert res.certified and res.stop_reason == "certified"
        assert 0.0 <= res.bound <= delta
        assert res.residual_norm == pytest.approx(np.linalg.norm(b - t @ res.y), rel=1e-12)


def test_stops_early_on_a_loose_target():
    # The certificate stops as soon as it holds, not at the rounding floor.
    g = build_graph([(i, i + 1, 1.0) for i in range(399)])
    k = StubbornnessVector.uniform(400, 0.1)
    b = np.sin(np.arange(400.0))
    loose, tight = solve_to(g, k, b, 1e-3), solve_to(g, k, b, 1e-12)
    assert loose.certified and tight.certified
    assert loose.iterations < tight.iterations


def test_certificate_is_judged_on_the_true_residual():
    g, k, _ = make_instance(np.random.default_rng(53), n_max=80)
    t = operator_matrix(g, k)
    b = np.sin(np.arange(g.n))
    seen = []

    def bound(y, r, rho):
        # Bit for bit b - (L+K) y: the recurrence residual drifts from it.
        seen.append(np.array_equal(r, b - t @ y))
        return rho / math.sqrt(float(y @ (b - r)))

    res = solve(t, b, k, Certificate(target=1e-8, bound=bound))
    assert res.certified and seen and all(seen)


def test_breakdown_on_an_indefinite_operator(k11):
    # -I is no L + K: p.(-I)p < 0 stops the iteration at once.
    res = solve(-sp.identity(2, format="csr"), np.ones(2), k11,
                energy_norm_certificate(np.ones(2), 1e-6))
    assert not res.certified and res.stop_reason == "breakdown"
    assert res.iterations == 0 and res.bound == math.inf


def test_maxiter_returns_the_last_iterate_with_its_bound(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
    g = build_graph([(i, i + 1, 1.0) for i in range(399)])
    k = StubbornnessVector.uniform(400, 0.1)
    t, b = operator_matrix(g, k), np.sin(np.arange(400.0))
    certify = energy_norm_certificate(b, 1e-12)
    res = solve(t, b, k, certify)
    assert res.iterations == 3 and not res.certified and res.stop_reason == "maxiter"
    r = b - t @ res.y
    assert res.bound == certify.bound(res.y, r, math.sqrt(float(r @ (r / k.k))))
    assert res.bound > 1e-12 and res.residual_norm == float(np.linalg.norm(r))


@pytest.mark.parametrize(
    "b, k, message",
    [
        (np.ones(3), [1.0, 1.0], "right-hand side length does not match operator"),
        (np.ones(2), [1.0, 1.0, 1.0], "stubbornness length does not match operator"),
    ],
    ids=["b", "k"],
)
def test_wrong_lengths_are_input_errors(path2, k11, b, k, message):
    t = operator_matrix(path2, k11)
    with pytest.raises(GraphInputError) as exc:
        solve(t, b, StubbornnessVector.from_values(k), energy_norm_certificate(b, 1e-6))
    assert str(exc.value) == message
