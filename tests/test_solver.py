import dataclasses
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fjopinion
from conftest import (count_joins, count_matmul, count_splu, diagonal_first_rows, force_split,
                      in_forked_child, make_instance, product_onto)
from fjopinion import graph as graph_module
from fjopinion import solver
from fjopinion.errors import GraphInputError
from fjopinion.generate import generate_opinions, generate_stubbornness, random_regular_graph
from fjopinion.graph import Graph, StubbornnessVector, _disagreement, build_graph, operator_matrix
from fjopinion.solver import Certificate, energy_norm_certificate, solve


def solve_to(g, k, b, delta):
    """Solve (L+K) y = b to a certified relative energy-norm error delta."""
    return solve(g, k, b, energy_norm_certificate(b, delta))


def pcg_to(g, k, b, delta):
    """PCG alone on (L+K) y = b, to a certified relative energy-norm error delta."""
    return solver._pcg(g, k, b, energy_norm_certificate(b, delta))


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
    calls, real_check = [], solver.proved_rho

    def counting_check(*args):
        calls.append(args)
        return real_check(*args)

    monkeypatch.setattr(solver, "proved_rho", counting_check)
    res = solve(g, k, b, energy_norm_certificate(b, 1e-8))
    assert len(calls) == 1
    assert res.y.tobytes() == np.zeros(g.n).tobytes()
    assert (res.iterations, res.rho, res.certified, res.bound, res.stop_reason) == (
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
    b = np.array([1.0, 2.0])
    res = pcg_to(path2, k21, b, 1e-300)
    assert not res.certified and res.stop_reason == "stagnated"
    residual = b - operator_matrix(path2, k21) @ res.y
    assert np.linalg.norm(residual) < 1e-10  # still converged to the double-precision floor
    assert 1e-300 < res.bound < 1e-10  # the proved bound is reported all the same


@pytest.mark.parametrize("scale", [1.0, 2.0**-300], ids=["b", "b*2^-300"])
def test_unattainable_targets_stagnate_before_the_recurrence_overflows(scale):
    # At 1e-300 no check is ever aimed: the recurrence residual shrinks past
    # the rounding of the first one, and left to run it reaches subnormal
    # numbers and overflows (a RuntimeWarning, an error in this suite).
    rng = np.random.default_rng(7)
    for _ in range(200):
        g, k, s = make_instance(rng, k_range=(0.01, 3.0))
        b = k.k * s * scale
        res = pcg_to(g, k, b, 1e-300)
        assert not res.certified and res.stop_reason == "stagnated"


def test_a_tiny_right_side_certifies_as_its_twin():
    # The stop on a lost recurrence is relative to the solve: b * 2^-500,
    # whose r.M^{-1}r runs through subnormal numbers at 1e-8, certifies as
    # b does.
    rng = np.random.default_rng(7)
    twins, scaled = [], []
    for _ in range(30):
        g, k, s = make_instance(rng, k_range=(0.01, 3.0))
        b = k.k * s
        twins.append(pcg_to(g, k, b, 1e-8).certified)
        scaled.append(pcg_to(g, k, b * 2.0**-500, 1e-8).certified)
    assert all(twins) and scaled == twins


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       k_range=st.sampled_from([(0.5, 3.0), (1e-6, 1e-3), (1e3, 1e6)]))
def test_preconditioned_residual_is_at_most_rho_squared(seed, k_range):
    # r.M^{-1}r <= ||K^{-1/2} r||^2, the premise of the gate on each check:
    # M^{-1} <= (L + K)^{-1} <= K^{-1}.
    rng = np.random.default_rng(seed)
    g, k, _ = make_instance(rng, k_range=k_range)
    r = rng.standard_normal(g.n)
    # z = (r + A (r / D)) / D as PCG forms it: A (-r / D) added onto -r, over -D.
    neg_diag = -graph_module._diagonal(g, k)
    z = product_onto(g.adjacency, r / neg_diag, -r) / neg_diag
    rz = float(r @ z)
    assert 0.0 < rz <= float(r @ (r / k.k))


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
        res = pcg_to(g, k, b, 1e-8)
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
        r = b - t @ res.y
        assert math.sqrt(float(r @ (r / k.k))) <= res.rho  # the bound rests on a proved rho


def test_stops_early_on_a_loose_target():
    # The certificate stops as soon as it holds, not at the rounding floor.
    g = build_graph([(i, i + 1, 1.0) for i in range(399)])
    k = StubbornnessVector.uniform(400, 0.1)
    b = np.sin(np.arange(400.0))
    loose, tight = pcg_to(g, k, b, 1e-3), pcg_to(g, k, b, 1e-12)
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
    # Each step writes (L + K) p and A (r / D) into its buffers, and each
    # true-residual check writes its products into them too: many products
    # run, and none of them calls ``@``.
    g = random_regular_graph(3000, 4, 1)
    k = generate_stubbornness(g.n, 0.01, 1.0, 2)
    b = k.k * generate_opinions(g.n, "uniform", 3)
    calls = count_matmul(monkeypatch)
    products, real = [], graph_module.csr_matvec
    monkeypatch.setattr(graph_module, "csr_matvec",
                        lambda *args: products.append(args[0]) or real(*args))
    res = pcg_to(g, k, b, 1e-10)
    assert res.certified and len(products) > 20
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
    res = pcg_to(g, k11, np.ones(2), 1e-6)
    assert not res.certified and res.stop_reason == "breakdown"
    assert res.iterations == 0 and res.bound == math.inf


def test_maxiter_returns_the_last_iterate_with_its_bound(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
    g = build_graph([(i, i + 1, 1.0) for i in range(399)])
    k = StubbornnessVector.uniform(400, 0.1)
    oracle, b = negated_operator_rows(g, k), np.sin(np.arange(400.0))
    certify = energy_norm_certificate(b, 1e-12)
    res = solver._pcg(g, k, b, certify)
    assert res.iterations == 3 and not res.certified and res.stop_reason == "maxiter"
    r = b + oracle @ res.y
    # The bound is judged on the proved rho: the computed one plus its rounding.
    computed = math.sqrt(float(r @ (r / k.k)))
    assert computed < res.rho <= computed * (1.0 + 1e-12)
    assert res.bound == certify.bound(res.y, r, res.rho)
    assert res.bound > 1e-12


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


def test_the_exported_solve_refines_where_pcg_stagnates():
    # The exported solve is the path the metrics take.  PCG alone stagnates
    # here at a proved 9.8e-11; refinement sweeps on long-double residuals
    # prove 1e-12.
    g = random_regular_graph(3000, 4, 1)
    k = StubbornnessVector.uniform(g.n, 1e-4)
    b = k.k * generate_opinions(g.n, "powerlaw", 3)
    res = fjopinion.solve(g, k, b, energy_norm_certificate(b, 1e-12))
    assert res.certified and res.stop_reason == "certified" and res.bound <= 1e-12


def test_a_forest_is_factored_and_reads_certified(monkeypatch):
    # Judged by the check that judges PCG's last iterate, and named alike.
    g = build_graph([(i, i + 1, 1.0) for i in range(1999)])
    k = StubbornnessVector.uniform(g.n, 0.05)
    b = k.k * generate_opinions(g.n, "powerlaw", 4)
    calls = count_splu(monkeypatch)
    res = solve_to(g, k, b, 1e-10)
    assert len(calls) == 1
    assert res.certified and res.stop_reason == "certified" and res.iterations == 0


@pytest.mark.parametrize("exponent", [-900, -1000])
def test_a_right_side_whose_squares_underflow_is_not_certified_at_zero(exponent):
    # Every square of b underflows: read unscaled, rho was 0, and y = 0 was
    # certified with bound 0.
    g, k, s = make_instance(np.random.default_rng(7), k_range=(0.01, 3.0))
    b = k.k * s * 2.0**exponent
    for delta in (1e-8, 1e-300):
        res = solve_to(g, k, b, delta)
        assert res.rho > 0.0
        assert not (res.certified and not res.y.any())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.integers(-1000, 500))
def test_rho_scales_exactly_with_its_residual(seed, shift):
    # rho is formed from r scaled by a power of two: r * 2^shift has rho(r) *
    # 2^shift to the last bit, and r is left as it was.
    rng = np.random.default_rng(seed)
    g, k, _ = make_instance(rng)
    r = rng.standard_normal(g.n)
    scaled = r * 2.0**shift
    kept = scaled.copy()
    assert solver._rho(scaled, k, np.empty(g.n)) == solver._rho(r, k, np.empty(g.n)) * 2.0**shift
    assert scaled.tobytes() == kept.tobytes()


def regular_instance(n=500):
    g = random_regular_graph(n, 4, 1)
    k = generate_stubbornness(n, 0.01, 1.0, 2)
    return g, k, k.k * generate_opinions(n, "uniform", 3)


def int64_instance():
    """regular_instance with the adjacency's indices and row pointers int64."""
    g, k, b = regular_instance()
    a = g.adjacency.copy()
    a.indices, a.indptr = a.indices.astype(np.int64), a.indptr.astype(np.int64)
    return dataclasses.replace(g, adjacency=a), k, b


def isolated_at_both_ends():
    # Rows 0-2 and 57-59 are empty: isolated nodes before and after the cut.
    h, _, b = regular_instance(54)
    g = Graph.from_arrays(h.edge_u + 3, h.edge_v + 3, h.edge_w, 60)
    k = generate_stubbornness(60, 0.01, 1.0, 2)
    return g, k, np.concatenate(([1.0, -0.5, 0.25], b, [0.5, -1.0, 2.0]))


def indefinite_path2():
    # Degrees -3 make L + K = [[-2, -1], [-1, -2]]: PCG breaks down at once.
    g = build_graph([(0, 1, 1.0)])
    return (dataclasses.replace(g, degrees=np.array([-3.0, -3.0])),
            StubbornnessVector.uniform(2, 1.0), np.ones(2))


# (instance, target, PCG's stop reason, MAX_ITERATIONS); the reasons span
# every stop of _pcg.
SPLIT_CASES = [
    pytest.param(regular_instance, 1e-10, "certified", None, id="int32"),
    pytest.param(int64_instance, 1e-10, "certified", None, id="int64"),
    pytest.param(isolated_at_both_ends, 1e-10, "certified", None, id="isolated-nodes"),
    pytest.param(lambda: (Graph.from_arrays([], [], [], 1), StubbornnessVector.uniform(1, 0.5),
                          np.array([0.75])), 1e-10, "certified", None, id="n=1"),
    pytest.param(lambda: (build_graph([(0, 1, 1.0)]), StubbornnessVector.from_values([2.0, 1.0]),
                          np.array([1.0, 2.0])), 1e-10, "certified", None, id="n=2"),
    pytest.param(regular_instance, 1e-300, "stagnated", None, id="unreachable-target"),
    pytest.param(lambda: (*regular_instance()[:2], np.zeros(500)), 1e-10, "certified", None,
                 id="zero-b"),  # stops at p.(L+K)p = 0
    pytest.param(regular_instance, 1e-12, "maxiter", 3, id="maxiter"),
    pytest.param(indefinite_path2, 1e-6, "breakdown", None, id="breakdown"),
]


def bits(res):
    """Every field of a SolverResult, floats by their bits."""
    return (res.y.tobytes(), res.iterations, res.certified, float(res.bound).hex(),
            res.stop_reason, float(res.rho).hex())


class TestSplitStep:
    """Each pass of a PCG step split between two threads (``force_split``)
    gives the one-thread results to the last bit."""

    @pytest.mark.parametrize("build, target, reason, max_iterations", SPLIT_CASES)
    def test_pcg_solve_check_and_disagreement_are_the_serial_ones(self, monkeypatch, build, target,
                                                                  reason, max_iterations):
        g, k, b = build()
        if max_iterations is not None:
            monkeypatch.setattr(solver, "MAX_ITERATIONS", max_iterations)

        def run():
            pcg = solver._pcg(g, k, b, energy_norm_certificate(b, target))
            out, scratch = np.empty(g.n), np.empty(g.n)
            rho = solver.proved_rho(g, k, b, pcg.y, out, scratch)
            results = [bits(pcg), float(rho).hex(), out.tobytes(),
                       float(_disagreement(g, pcg.y)).hex()]
            if reason != "breakdown":  # solve factors this path, and L + K is no SPD matrix
                results.append(bits(solve(g, k, b, energy_norm_certificate(b, target))))
            return pcg.stop_reason, results

        serial = run()
        rows = force_split(monkeypatch)
        split = run()
        assert serial[0] == reason
        assert rows and split == serial

    def test_disagreement_slices_alternate_between_the_threads(self, monkeypatch):
        g, _, b = regular_instance()
        monkeypatch.setattr(graph_module, "EDGE_CHUNK", 7)  # 143 slices of the 1000 edges
        total = 0.0  # the slices' totals added in slice order
        for lo in range(0, g.m, 7):
            dq = b[g.edge_u[lo:lo + 7]] - b[g.edge_v[lo:lo + 7]]
            total += float(g.edge_w[lo:lo + 7] @ (dq * dq))
        assert float(_disagreement(g, b)).hex() == total.hex()
        force_split(monkeypatch)
        joins = count_joins(monkeypatch)
        assert float(_disagreement(g, b)).hex() == total.hex()
        assert joins == ["part"]

    def test_a_step_waits_four_times(self, monkeypatch):
        # The passes -(L + K) p; x, r, -r / D and -r; z; p, and no more: a
        # later extra wait shows here.
        g, k, b = regular_instance()
        force_split(monkeypatch)
        joins = count_joins(monkeypatch)
        checks, real = [], solver.proved_rho
        monkeypatch.setattr(solver, "proved_rho", lambda *args: checks.append(1) or real(*args))
        res = solver._pcg(g, k, b, energy_norm_certificate(b, 1e-8))
        assert res.certified and len(checks) == 1
        step = ["product", "update", "finish", "direction"]
        check = ["weights", "spread", "b_term", "residual"]
        assert joins == ["start", "finish"] + step * (res.iterations - 1) + step[:3] + check

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_finishes_a_split_solve(self, monkeypatch):
        # The child has no worker thread: keeping the parent's executor, its
        # first split pass would wait forever for the second half.
        force_split(monkeypatch)
        g, k, b = regular_instance()
        y = solve(g, k, b, energy_norm_certificate(b, 1e-10)).y.tobytes()
        assert graph_module._worker is not None
        assert in_forked_child(
            lambda: solve(g, k, b, energy_norm_certificate(b, 1e-10)).y.tobytes() == y) == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity mask")
    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(graph_module, "SPLIT_ENTRIES", 0)
        monkeypatch.setattr(graph_module, "_worker", None)
        g, k, b = regular_instance()
        mask = os.sched_getaffinity(0)
        threads = threading.active_count()
        os.sched_setaffinity(0, {min(mask)})
        try:
            res = solve(g, k, b, energy_norm_certificate(b, 1e-10))
            _disagreement(g, res.y)
        finally:
            os.sched_setaffinity(0, mask)
        assert res.certified
        assert graph_module._worker is None and threading.active_count() == threads
