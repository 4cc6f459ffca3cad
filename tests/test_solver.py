import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import count_matmul, diagonal_first_rows, make_instance
from fjopinion import solver
from fjopinion.errors import GraphInputError
from fjopinion.generate import generate_opinions, generate_stubbornness, random_regular_graph
from fjopinion.graph import Graph, StubbornnessVector, build_graph, operator_matrix
from fjopinion.solver import Certificate, energy_norm_certificate, solve


def solve_to(g, k, b, delta):
    """Solve (L+K) y = b to a certified relative energy-norm error delta."""
    return solve(g, k, b, energy_norm_certificate(b, delta))


def negated_operator_rows(g, k):
    """-(L + K), row i summed from -(deg + k)_i on, as PCG sums it."""
    return diagonal_first_rows(g.adjacency, -(g.degrees + k.k))


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


def test_zero_rhs_is_judged_by_one_check(monkeypatch):
    # b = 0 takes no exit of its own: the first step finds p.(L+K)p = 0, and
    # the closing check proves bound 0.0 on y = 0.
    g = random_regular_graph(200, 4, 1)
    k = generate_stubbornness(g.n, 0.01, 1.0, 2)
    b = np.zeros(g.n)
    calls, real_check = [], solver.check

    def counting_check(*args):
        calls.append(args)
        return real_check(*args)

    monkeypatch.setattr(solver, "check", counting_check)
    res = solve(g, k, b, energy_norm_certificate(b, 1e-8))
    assert len(calls) == 1
    assert res.y.tobytes() == np.zeros(g.n).tobytes()
    assert (res.iterations, res.residual_norm, res.certified, res.bound, res.stop_reason) == (
        0, 0.0, True, 0.0, "certified")


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
        res = solve(g, k, b, energy_norm_certificate(b, delta))
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
    oracle = negated_operator_rows(g, k)
    b = np.sin(np.arange(g.n))
    seen = []

    def bound(y, r, rho):
        # Bit for bit b - (L+K) y: the recurrence residual drifts from it.
        seen.append(np.array_equal(r, b + oracle @ y))
        return rho / math.sqrt(float(y @ (b - r)))

    res = solve(g, k, b, Certificate(target=1e-8, bound=bound))
    assert res.certified and seen and all(seen)


def test_pcg_steps_make_no_sparse_product_call(monkeypatch):
    # Each step writes (L + K) p into one buffer, and each true-residual check
    # writes its product into that buffer too: nothing calls ``@``.
    g = random_regular_graph(3000, 4, 1)
    k = generate_stubbornness(g.n, 0.01, 1.0, 2)
    b = k.k * generate_opinions(g.n, "uniform", 3)
    calls = count_matmul(monkeypatch)
    res = solve_to(g, k, b, 1e-10)
    assert res.certified and res.iterations > 20
    assert not calls


def test_certified_solve_holds_only_its_loop_vectors():
    # x, r, z, p, -(L + K) p and -(deg + k); a check forms its residual and
    # its rho in the free -(L + K) p and z, not in two more vectors.
    n = 100_000
    g = random_regular_graph(n, 4, 1)
    k = generate_stubbornness(n, 0.01, 1.0, 2)
    b = k.k * generate_opinions(n, "uniform", 3)
    certify = energy_norm_certificate(b, 1e-8)
    tracemalloc.start()
    try:
        res = solve(g, k, b, certify)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.certified and peak < 6.5 * b.nbytes


def test_breakdown_on_an_indefinite_operator(path2, k11):
    # Degrees -3 make L + K = [[-2, -1], [-1, -2]], no SPD matrix:
    # p.(L+K)p < 0 stops the iteration at once.
    g = dataclasses.replace(path2, degrees=np.array([-3.0, -3.0]))
    res = solve(g, k11, np.ones(2), energy_norm_certificate(np.ones(2), 1e-6))
    assert not res.certified and res.stop_reason == "breakdown"
    assert res.iterations == 0 and res.bound == math.inf


def test_maxiter_returns_the_last_iterate_with_its_bound(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
    g = build_graph([(i, i + 1, 1.0) for i in range(399)])
    k = StubbornnessVector.uniform(400, 0.1)
    oracle, b = negated_operator_rows(g, k), np.sin(np.arange(400.0))
    certify = energy_norm_certificate(b, 1e-12)
    res = solve(g, k, b, certify)
    assert res.iterations == 3 and not res.certified and res.stop_reason == "maxiter"
    r = b + oracle @ res.y
    # The bound is judged on the proved rho: the computed one plus its rounding.
    computed = math.sqrt(float(r @ (r / k.k)))
    assert computed < res.rho <= computed * (1.0 + 1e-12)
    assert res.bound == certify.bound(res.y, r, res.rho)
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
    with pytest.raises(GraphInputError) as exc:
        solve(path2, StubbornnessVector.from_values(k), b, energy_norm_certificate(b, 1e-6))
    assert str(exc.value) == message
