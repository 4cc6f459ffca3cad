import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from conftest import count_matmul, count_splu, factors_of, force_split, make_instance
from fjopinion import dynamics, solver
from fjopinion import graph as graph_module
from fjopinion.dynamics import (
    DENSE_CAP,
    EQUILIBRIUM_DELTA,
    OpinionState,
    center_opinions,
    convergence_bound,
    equilibrium,
    fundamental_matrix,
    simulate_until,
    spectral_radius,
    step,
)
from fjopinion.errors import GraphInputError, NumericalError, SizeGuardError
from fjopinion.generate import (
    generate_opinions,
    generate_stubbornness,
    random_connected_gnp,
    random_regular_graph,
)
from fjopinion.graph import Graph, StubbornnessVector, build_graph, operator_matrix
from fjopinion.metrics import metrics_exact
from fjopinion.solver import energy_norm_certificate, solve


def isolated_node():
    return Graph.from_arrays([], [], [], 1)


def long_path(n=2000):
    return build_graph([(i, i + 1, 1.0) for i in range(n - 1)])


def cycle(n):
    """n nodes on a ring: m = n, so no forest."""
    return build_graph([(i, (i + 1) % n, 1.0) for i in range(n)])


def step_instance(name):
    """(g, k, s) of perfbench's ``exact-dynamics`` and of an even cycle."""
    if name == "path-2000":
        g = long_path(2000)
        return g, StubbornnessVector.uniform(g.n, 0.05), generate_opinions(g.n, "uniform", 3)
    if name == "regular-3000":
        g = random_regular_graph(3000, 4, 1)
        return g, generate_stubbornness(g.n, 0.5, 2.0, 2), generate_opinions(g.n, "powerlaw", 3)
    g = cycle(1000)
    return g, generate_stubbornness(g.n, 0.01, 1.0, 4), generate_opinions(g.n, "uniform", 5)


def dense_rho(g, k):
    """Largest eigenvalue of Q^{1/2} A Q^{1/2}, Q = (K + D)^{-1}: rho(QA)."""
    q = 1.0 / np.sqrt(k.k + g.degrees)
    return float(np.linalg.eigvalsh(q[:, None] * g.adjacency.toarray() * q[None, :])[-1])


def path_rho(g, k):
    """rho(QA) of a path from the tridiagonal Q^{1/2} A Q^{1/2} (unit weights)."""
    q = 1.0 / np.sqrt(k.k + g.degrees)
    return sla.eigvalsh_tridiagonal(np.zeros(g.n), q[:-1] * q[1:], select="i",
                                    select_range=(g.n - 1, g.n - 1))[0]


def tree_rho(parent, k, degrees):
    """rho(QA) of a unit-weight tree whose node i + 1 hangs from parent[i] <= i.

    Bisection on the inertia of sigma(K+D) - A: eliminated from the last node
    up, its pivots need no fill, and by Sylvester's law the negative ones
    count the eigenvalues of the pencil A x = lambda (K+D) x above sigma.
    """
    def above(sigma):
        d = (sigma * (k.k + degrees)).tolist()
        for i in range(len(d) - 1, 0, -1):
            d[parent[i - 1]] -= 1.0 / d[i]
        return sum(p < 0.0 for p in d)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


# Rounding slack of the dense reference: eigvalsh is itself off by a few ulp.
RHO_SLACK = 1e-13


@st.composite
def bracket_instances(draw):
    """(family, graph, stubbornness) on at most 32 nodes."""
    family = draw(st.sampled_from(
        ["connected", "disconnected", "path", "even cycle", "uniform rows", "edgeless"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 15))
    seed = int(rng.integers(2**31))
    if family == "connected":
        g = random_connected_gnp(2 * n, 0.2, seed)
        return family, g, StubbornnessVector.from_values(rng.uniform(0.01, 3.0, g.n))
    if family == "disconnected":
        # Two components and an isolated node, stubborn to different degrees,
        # so that their spectral radii differ.
        a, b = random_connected_gnp(n, 0.3, seed), random_connected_gnp(n + 1, 0.3, seed + 1)
        g = Graph.from_arrays(np.r_[a.edge_u, b.edge_u + n], np.r_[a.edge_v, b.edge_v + n],
                              np.r_[a.edge_w, b.edge_w], 2 * n + 2)
        k = np.r_[rng.uniform(0.01, 0.1, n), rng.uniform(1.0, 3.0, n + 1), rng.uniform(0.01, 3.0)]
        return family, g, StubbornnessVector.from_values(k)
    if family in ("path", "even cycle"):
        m = 2 * n if family == "even cycle" else n
        u = np.arange(m if family == "even cycle" else m - 1)
        g = Graph.from_arrays(u, (u + 1) % m, rng.uniform(0.5, 2.0, u.size), m)
        return family, g, StubbornnessVector.from_values(rng.uniform(0.01, 3.0, m))
    if family == "uniform rows":
        # Equal row sums d / (k + d) of QA: a weighted cycle or a complete
        # graph with one weight, and one stubbornness.
        if draw(st.booleans()):
            u = np.arange(n + 1)
            g = Graph.from_arrays(u, (u + 1) % (n + 1), np.full(n + 1, rng.uniform(0.5, 2.0)), n + 1)
        else:
            u, v = np.triu_indices(n, 1)
            g = Graph.from_arrays(u, v, np.full(u.size, rng.uniform(0.5, 2.0)), n)
        return family, g, StubbornnessVector.uniform(g.n, rng.uniform(0.01, 3.0))
    return family, Graph.from_arrays([], [], [], n), StubbornnessVector.from_values(
        rng.uniform(0.01, 3.0, n))


class TestStep:
    def test_symmetric_pair_cancels(self, path2, k11):
        s = np.array([1.0, -1.0])
        out = step(path2, k11, OpinionState(s=s, z=s.copy()))
        assert np.allclose(out.z, [0.0, 0.0])
        assert out.t == 1

    def test_isolated_node_snaps_to_innate(self):
        g = isolated_node()
        k = StubbornnessVector.from_values([3.0])
        out = step(g, k, OpinionState(s=np.array([0.5]), z=np.array([0.0])))
        assert np.allclose(out.z, [0.5])

    def test_hand_evaluated_update(self, path2, k21):
        s = np.array([1.0, -1.0])
        out = step(path2, k21, OpinionState(s=s, z=np.zeros(2)))
        assert np.allclose(out.z, [2.0 / 3.0, -1.0 / 2.0])

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(5)
        g, k, s = make_instance(rng)
        z = rng.uniform(-1, 1, g.n)
        out = step(g, k, OpinionState(s=s, z=z))
        q = 1.0 / (k.k + g.degrees)
        expected = q * (g.adjacency @ z) + q * k.k * s
        assert np.allclose(out.z, expected, atol=1e-15)


class TestEquilibrium:
    def test_symmetric_case(self, path2, k11):
        z = equilibrium(path2, k11, np.array([1.0, -1.0]))
        assert np.allclose(z, [1.0 / 3.0, -1.0 / 3.0], atol=1e-12)

    def test_heterogeneous_case(self, path2, k21):
        z = equilibrium(path2, k21, np.array([1.0, -1.0]))
        assert np.allclose(z, [0.6, -0.2], atol=1e-12)

    def test_constant_vector_is_fixed(self):
        rng = np.random.default_rng(2)
        g, k, _ = make_instance(rng)
        z = equilibrium(g, k, np.full(g.n, 0.7))
        assert np.allclose(z, 0.7, atol=1e-10)

    def test_above_cap_is_the_certified_pcg_solve(self):
        g = cycle(DENSE_CAP + 1)
        rng = np.random.default_rng(9)
        k = StubbornnessVector.from_values(rng.uniform(0.5, 2.0, g.n))
        s = rng.uniform(-1.0, 1.0, g.n)
        z = equilibrium(g, k, s)
        t, b = operator_matrix(g, k), k.k * s
        assert np.array_equal(z, solve(g, k, b, energy_norm_certificate(b, EQUILIBRIUM_DELTA)).y)
        assert np.abs(z - spla.spsolve(t.tocsc(), b)).max() <= 1e-8

    def test_iterative_failure_names_reason_and_bound(self, monkeypatch):
        g = cycle(DENSE_CAP + 1)
        monkeypatch.setattr(dynamics, "EQUILIBRIUM_DELTA", 1e-300)
        with pytest.raises(NumericalError, match=r"stagnated after \d+ iterations with "
                           r"proved relative error \d\.\d{3}e-\d+"):
            equilibrium(g, StubbornnessVector.uniform(g.n, 1.0), np.linspace(-1.0, 1.0, g.n))

    def test_regular_graph_takes_certified_pcg_without_a_factor(self, monkeypatch):
        # PCG proves 1e-12 in a few dozen iterations, where the factor of
        # L + K would fill in.
        g = random_regular_graph(3000, 4, 1)
        k = StubbornnessVector.from_values(np.random.default_rng(4).uniform(0.5, 2.0, g.n))
        s = generate_opinions(g.n, "powerlaw", 3)
        calls = count_splu(monkeypatch)
        r = metrics_exact(g, k, s)
        z = equilibrium(g, k, s)
        assert calls == []
        assert r.certified and r.stop_reason == "certified"
        assert r.solver_iterations > 0 and r.error_bound <= 1e-12
        t, b = operator_matrix(g, k), k.k * s
        assert np.abs(z - spla.spsolve(t.tocsc(), b)).max() <= 1e-8

    def test_certified_pcg_builds_no_operator(self, monkeypatch):
        # PCG applies L + K from g's adjacency; L + K is built only to be factored.
        g = random_regular_graph(3000, 4, 1)
        k = generate_stubbornness(g.n, 0.01, 1.0, 2)
        b = k.k * generate_opinions(g.n, "uniform", 3)
        builds, real_operator = [], solver.operator_matrix
        monkeypatch.setattr(solver, "operator_matrix",
                            lambda *args: builds.append(1) or real_operator(*args))
        res = solve(g, k, b, energy_norm_certificate(b, 1e-10))
        assert res.certified and res.stop_reason == "certified" and res.iterations > 0
        assert builds == []

    def test_certified_pcg_holds_only_its_loop_vectors(self):
        # The six vectors of PCG, and no L + K of 2m + n entries beside them.
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

    def test_forest_above_cap_is_factored(self):
        # Certified PCG stagnates at a proved 4.1e-11 here; a path factors
        # with no fill, so it is solved directly at any size.  The factor's
        # solution proves 5.5e-11 once its rounding is counted, and its
        # refinement sweeps bring that to 1.9e-14.
        g = long_path(DENSE_CAP + 1)
        k = StubbornnessVector.uniform(g.n, 1e-4)
        s = generate_opinions(g.n, "powerlaw", 4)
        banded = np.zeros((2, g.n))
        banded[0, 1:], banded[1] = -1.0, g.degrees + k.k
        expected = sla.solveh_banded(banded, k.k * s)
        z = equilibrium(g, k, s)
        assert np.linalg.norm(z - expected) <= 1e-10 * np.linalg.norm(expected)
        r = metrics_exact(g, k, s)
        assert r.solver_iterations == 0 and r.error_bound <= 1e-11

    @pytest.mark.parametrize("make_graph", [lambda: long_path(50), lambda: cycle(200)],
                             ids=["path-50", "cycle-200"])
    def test_nothing_outlives_a_solve(self, make_graph):
        # The path is factored at once; on the cycle at k = 1e-4 PCG stops
        # uncertified and refinement sweeps follow.  Neither keeps g or k alive.
        g = make_graph()
        k = StubbornnessVector.uniform(g.n, 1e-4)
        s = generate_opinions(g.n, "powerlaw", 4)
        refs = weakref.ref(g), weakref.ref(k)
        equilibrium(g, k, s)
        metrics_exact(g, k, s)
        del g, k
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_fixed_point_property(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g, k, s = make_instance(rng)
            z = equilibrium(g, k, s)
            assert np.abs(step(g, k, OpinionState(s=s, z=z)).z - z).max() <= 1e-10


class TestFundamentalMatrix:
    def test_heterogeneous_two_node(self, path2, k21):
        phi = fundamental_matrix(path2, k21)
        assert np.allclose(phi, [[0.8, 0.2], [0.4, 0.6]], atol=1e-12)

    def test_single_node(self):
        phi = fundamental_matrix(isolated_node(), StubbornnessVector.from_values([3.0]))
        assert np.allclose(phi, [[1.0]])

    def test_symmetric_two_node(self, path2, k11):
        phi = fundamental_matrix(path2, k11)
        expected = [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]]
        assert np.allclose(phi, expected, atol=1e-12)

    def test_row_stochastic_positive(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g, k, _ = make_instance(rng, n_max=60)
            phi = fundamental_matrix(g, k)
            assert np.abs(phi.sum(axis=1) - 1.0).max() <= 1e-10
            assert phi.min() > 0.0


    def test_matches_the_solve_with_diag_k(self):
        rng = np.random.default_rng(22)
        g, k, _ = make_instance(rng, n_max=80, k_range=(0.01, 5.0))
        assert len(set(g.edge_w)) > 1 and k.k_max > 10.0 * k.k_min
        expected = np.linalg.solve(operator_matrix(g, k).toarray(), np.diag(k.k))
        assert np.abs(fundamental_matrix(g, k) - expected).max() <= 1e-13


class TestCentering:
    def test_weighted_centering(self, k21):
        out = center_opinions(np.array([1.0, 0.0]), k21)
        assert np.allclose(out, [1.0 / 3.0, -2.0 / 3.0], atol=1e-15)
        assert abs(k21.k @ out) <= 1e-12 * 2 * k21.k_max

    def test_already_centered_unchanged(self, k21):
        s = np.array([1.0, -2.0])  # weighted sum 2 - 2 = 0
        assert np.allclose(center_opinions(s, k21), s)

    def test_uniform_ones_to_zero(self):
        k = StubbornnessVector.uniform(4, 2.0)
        assert np.allclose(center_opinions(np.ones(4), k), 0.0)


class TestSpectralRadius:
    def test_heterogeneous_two_node(self, path2, k21):
        est = spectral_radius(path2, k21)
        assert est.converged
        assert est.rho_max == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-9)

    def test_more_stubborn_is_smaller(self, path2):
        k31 = StubbornnessVector.from_values([3.0, 1.0])
        est = spectral_radius(path2, k31)
        assert est.rho_max == pytest.approx(math.sqrt(1.0 / 8.0), abs=1e-9)
        assert est.rho_max < math.sqrt(1.0 / 6.0)

    def test_symmetric_two_node(self, path2, k11):
        assert spectral_radius(path2, k11).rho_max == pytest.approx(0.5, abs=1e-9)

    def test_edgeless_graph(self):
        est = spectral_radius(isolated_node(), StubbornnessVector.from_values([1.0]))
        assert est.rho_max == 0.0 and est.converged

    def test_inside_unit_interval(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g, k, _ = make_instance(rng)
            est = spectral_radius(g, k)
            assert 0.0 < est.rho_max < 1.0

    @settings(max_examples=300, deadline=None)
    @given(instance=bracket_instances(), tol=st.sampled_from([1e-12, 1e-10, 1e-6]))
    def test_bracket_holds_the_dense_rho(self, instance, tol):
        family, g, k = instance
        est = spectral_radius(g, k, tol=tol)
        rho = dense_rho(g, k)
        assert 0.0 <= est.lower <= est.upper
        assert est.lower - RHO_SLACK <= rho <= est.upper + RHO_SLACK
        assert est.converged == (est.upper - est.lower <= tol)
        if family in ("uniform rows", "edgeless"):
            # x = 1 is the Perron vector: the bracket closes before any step.
            assert est.converged and est.iterations == 0

    def test_long_path_bracket_converges(self):
        # Power iteration alone stalls here (it once stopped below rho after
        # 100 000 steps); shifted inverse iteration closes the bracket.
        n = 2000
        g = long_path(n)
        k = StubbornnessVector.uniform(n, 0.01)
        est = spectral_radius(g, k)
        assert est.converged and est.upper - est.lower <= 1e-10
        rho = path_rho(g, k)
        assert est.lower - RHO_SLACK <= rho <= est.upper + RHO_SLACK
        row_sum = float((g.degrees / (k.k + g.degrees)).max())
        assert est.upper < row_sum


    def test_forest_above_cap_runs_the_inverse_phase(self, monkeypatch):
        # The power steps alone leave this bracket at width 2.2e-7; a forest's
        # factor has no fill, so the inverse phase runs above DENSE_CAP too,
        # and in place of the power steps.
        g = long_path(20_000)
        k = StubbornnessVector.uniform(g.n, 0.01)
        calls = count_splu(monkeypatch)
        est = spectral_radius(g, k)
        # Each inverse step on a forest factors M once: no step was a power step.
        assert est.converged and est.iterations == len(calls) >= 1
        rho = path_rho(g, k)
        assert est.lower - RHO_SLACK <= rho <= est.upper + RHO_SLACK

    @pytest.mark.parametrize("shape", ["tree-5000", "star-1000"])
    def test_forests_reshift_until_the_bracket_closes(self, shape):
        # M factored once at the row-sum bound leaves the tree's bracket at
        # width 1.4e-4 after INVERSE_SOLVES solves; re-shifted at each upper
        # end it closes in a few.
        rng = np.random.default_rng(1)
        n = int(shape.split("-")[1])
        u = np.arange(1, n)
        parent = (rng.random(n - 1) * u).astype(np.int64) if shape.startswith("tree") else 0 * u
        g = Graph.from_arrays(u, parent, np.ones(n - 1), n)
        k = StubbornnessVector.from_values(rng.uniform(0.01, 3.0, n))
        est = spectral_radius(g, k)
        assert est.converged and est.iterations <= 10
        rho = tree_rho(parent, k, g.degrees)
        if shape.startswith("star"):
            assert rho == pytest.approx(dense_rho(g, k), abs=RHO_SLACK)
        assert est.lower - RHO_SLACK <= rho <= est.upper + RHO_SLACK

    def test_power_steps_make_no_sparse_product_call(self, monkeypatch):
        # Many products run, and neither the power steps nor the bracket's
        # evaluations call ``@``.
        g, k, _ = step_instance("regular-3000")
        calls = count_matmul(monkeypatch)
        products, real = [], graph_module.csr_matvec
        monkeypatch.setattr(graph_module, "csr_matvec",
                            lambda *args: products.append(args[0]) or real(*args))
        est = spectral_radius(g, k)
        assert est.converged and len(products) > 200
        assert calls == []

    def test_cycles_above_cap_skip_the_inverse_phase(self, monkeypatch):
        g = random_regular_graph(20_000, 4, 5)
        k = StubbornnessVector.from_values(np.random.default_rng(5).uniform(0.5, 2.0, g.n))
        calls = count_splu(monkeypatch)
        components, real = [], csgraph.connected_components
        monkeypatch.setattr(csgraph, "connected_components",
                            lambda *a, **kw: components.append(1) or real(*a, **kw))
        est = spectral_radius(g, k, tol=0.0)  # no bracket is that narrow
        assert not est.converged and est.iterations == dynamics.POWER_STEPS
        assert calls == []
        assert components == []  # m >= n: no forest, so no component count


class TestSplitLoops:
    """Each pass of the update and bracket loops split between two threads
    (``force_split``) gives the one-thread results to the last bit."""

    def test_step_is_the_serial_one(self, monkeypatch):
        g, k, s = step_instance("regular-3000")
        state = OpinionState(s=s, z=np.random.default_rng(1).standard_normal(g.n))
        serial = step(g, k, state).z.tobytes()
        rows = force_split(monkeypatch)
        assert step(g, k, state).z.tobytes() == serial
        assert len(rows) == 2

    @pytest.mark.parametrize("name, phases", [
        ("regular-3000", "power"),
        ("cycle", "power and inverse"),  # 1000 nodes, within DENSE_CAP
        ("path-2000", "forest"),  # refactored at each upper end, no power step
    ])
    def test_bracket_is_the_serial_one(self, monkeypatch, name, phases):
        g, k, _ = step_instance(name)

        def run():
            est = spectral_radius(g, k)
            return est.lower.hex(), est.upper.hex(), est.iterations, est.converged

        serial = run()
        rows = force_split(monkeypatch)
        split = run()
        assert split == serial and serial[3]
        # Two kernel calls for each product: a power step's, and each
        # evaluation's of the bracket, at x = 1, after every CHECK_EVERY
        # power steps and after each inverse solve.
        iterations = serial[2]
        power_steps = {"power": iterations, "power and inverse": dynamics.POWER_STEPS,
                       "forest": 0}[phases]
        assert 0 < iterations - power_steps <= dynamics.INVERSE_SOLVES or phases == "power"
        assert len(rows) == 2 * (1 + iterations + power_steps // dynamics.CHECK_EVERY)


class TestConvergenceBound:
    def test_halving_thrice(self):
        assert convergence_bound(0.5, 1.0, 0.125) == 3

    def test_closed_form_evaluation(self):
        rho = math.sqrt(1.0 / 6.0)
        expected = math.ceil((math.log(1e-6)) / math.log(rho))
        assert convergence_bound(rho, 1.0, 1e-6) == expected == 16

    def test_trivial_when_already_small(self):
        assert convergence_bound(0.5, 1.0, 1.0) == 0
        assert convergence_bound(0.5, 1.0, 2.0) == 0

    def test_rejects_bad_rho(self):
        with pytest.raises(GraphInputError):
            convergence_bound(1.5, 1.0, 0.1)


class TestSimulateUntil:
    def test_large_eps_stops_immediately(self, path2, k11):
        s = np.array([1.0, -1.0])
        state, trace = simulate_until(path2, k11, s, z0=s.copy(), eps=10.0)
        assert state.t <= 1
        assert trace.f_norms[-1] <= 10.0

    def test_stop_time_within_bound(self, path2, k11):
        s = np.array([1.0, -1.0])
        state, trace = simulate_until(path2, k11, s, z0=s.copy(), eps=1e-8)
        rho = spectral_radius(path2, k11).rho_max
        bound = convergence_bound(rho, trace.f_norms[0], 1e-8)
        assert state.t <= bound

    def test_isolated_node_converges_in_one_step(self):
        g = isolated_node()
        k = StubbornnessVector.from_values([2.0])
        state, trace = simulate_until(g, k, np.array([0.3]), z0=np.array([-1.0]), eps=1e-12)
        assert state.t <= 1
        assert trace.bound == 0 and trace.spectral is None  # no edges: no check ran

    @settings(max_examples=150, deadline=None)
    @given(instance=bracket_instances(), f0=st.floats(1e-3, 1e3),
           eps=st.sampled_from([1e-4, 1e-8, 1e-12]), seed=st.integers(0, 2**32 - 1))
    def test_goal_stopped_bound_is_the_tight_brackets(self, instance, f0, eps, seed):
        # The goal run follows the iterates of a tol=1e-12 run and stops once
        # both ends give one bound; rho lies between them, so it is final.
        _, g, k = instance
        rng = np.random.default_rng(seed)
        s = rng.uniform(-1.0, 1.0, g.n)
        r = rng.standard_normal(g.n)
        z0 = equilibrium(g, k, s) + r * (f0 / np.linalg.norm(np.sqrt(k.k + g.degrees) * r))
        _, trace = simulate_until(g, k, s, z0=z0, eps=eps)
        if g.m == 0:
            assert trace.bound == 0 and trace.spectral is None
            return
        tight = spectral_radius(g, k, tol=1e-12)
        assert trace.bound == convergence_bound(tight, trace.f_norms[0], eps)
        assert trace.bound == convergence_bound(trace.spectral, trace.f_norms[0], eps)

    def test_path_bound_settles_without_a_factor_of_m(self, monkeypatch):
        # With these opinions the row-sum bound 2/2.05 and the Rayleigh
        # quotient at x = 1 both give the bound 889: the bracket stops there.
        g = long_path(2000)
        k = StubbornnessVector.uniform(g.n, 0.05)
        s = generate_opinions(g.n, "uniform", 0)
        calls = count_splu(monkeypatch)
        state, trace = simulate_until(g, k, s, z0=s.copy(), eps=1e-8)
        assert trace.spectral.iterations == 0 and not trace.spectral.converged
        assert state.t <= trace.bound == 889
        assert len(calls) == factors_of(calls, g, k) == 1  # L + K, for the equilibrium

    def test_row_sum_bound_rounding_to_one(self):
        # At x = 1 the upper end max d/(k + d) rounds to 1, where no bound
        # exists; the goal waits for a refined one.
        g = build_graph([(0, 1, 1.0)])
        k = StubbornnessVector.from_values([1e-16, 100.0])
        state, trace = simulate_until(g, k, np.array([1.0, -1.0]), z0=np.zeros(2), eps=1e-8)
        assert trace.spectral.upper < 1.0
        tight = spectral_radius(g, k)
        assert state.t <= trace.bound == convergence_bound(tight, trace.f_norms[0], 1e-8)

    def test_long_path_bound_uses_the_proved_upper_end(self):
        # The stop time is checked against the bracket's upper end, which is
        # never above the row-sum bound max d/(k+d).
        n = 2000
        g = long_path(n)
        k = StubbornnessVector.uniform(n, 0.01)
        s = generate_opinions(n, "uniform", 3)
        est = spectral_radius(g, k)
        assert est.converged
        state, trace = simulate_until(g, k, s, z0=s.copy(), eps=1e-8)
        row_sum = float((g.degrees / (k.k + g.degrees)).max())
        assert trace.bound == convergence_bound(est, trace.f_norms[0], 1e-8)
        assert state.t <= trace.bound <= convergence_bound(row_sum, trace.f_norms[0], 1e-8) == 4411

    @pytest.mark.parametrize("stop", [1, 2])
    def test_z0_stays_the_callers_at_either_buffer(self, stop):
        # z(1) and z(2) land in different buffers; neither may be z0.
        g = long_path(50)
        k = StubbornnessVector.uniform(g.n, 0.5)
        s = generate_opinions(g.n, "uniform", 3)
        _, trace = simulate_until(g, k, s, z0=np.zeros(g.n), eps=1e-8)
        assert trace.f_norms[stop - 1] > trace.f_norms[stop]
        z0 = np.zeros(g.n)
        state, _ = simulate_until(g, k, s, z0=z0, eps=trace.f_norms[stop])
        assert state.t == stop
        assert z0.tobytes() == np.zeros(g.n).tobytes()
        assert state.z is not z0 and not np.shares_memory(state.z, z0)

    def test_update_steps_make_no_sparse_product_call(self, monkeypatch):
        g, k, s = step_instance("path-2000")
        calls = count_matmul(monkeypatch)
        state, _ = simulate_until(g, k, s, z0=s.copy(), eps=1e-8)
        assert state.t == 798 and len(calls) < state.t

    def test_every_product_is_taken_on_the_adjacency(self, monkeypatch):
        # No QA is built: step, the power steps, the bracket's evaluations
        # and the update steps add their products from g.adjacency itself,
        # one kernel call each on a graph this small.
        g, k, s = step_instance("regular-3000")
        a, matrices, real = g.adjacency, [], graph_module.csr_matvec

        def recorded(n_row, n_col, ptr, indices, data, x, out):
            matrices.append(np.shares_memory(ptr, a.indptr) and indices is a.indices
                            and data is a.data)
            return real(n_row, n_col, ptr, indices, data, x, out)

        monkeypatch.setattr(graph_module, "csr_matvec", recorded)
        step(g, k, OpinionState(s=s, z=s.copy()))
        assert len(matrices) == 1
        est = spectral_radius(g, k)
        assert est.converged and len(matrices) == 1 + est.iterations + est.iterations // 10 + 1
        state, trace = simulate_until(g, k, s, z0=s.copy(), eps=1e-8)
        assert state.t > 0 and trace.spectral is not None
        assert len(matrices) > 2 + est.iterations + state.t
        assert all(matrices)

    @pytest.mark.parametrize("call, vectors", [("spectral_radius", 5.5), ("simulate_until", 9.5)])
    def test_holds_no_iteration_matrix(self, call, vectors):
        # The bracket holds k + d, x, Ax, b * x and one temporary (5.0
        # n-vectors); simulate_until adds z*, k + d, Ks and sqrt(k + d) (9.0),
        # and allocates e and f only after the bracket.  A QA of 2m entries,
        # 6.5 n-vectors at degree 4, is no longer beside them.
        n = 100_000
        g = random_regular_graph(n, 4, 1)
        k = generate_stubbornness(n, 0.01, 1.0, 2)
        s = generate_opinions(n, "uniform", 3)
        run = {"spectral_radius": lambda: spectral_radius(g, k),
               "simulate_until": lambda: simulate_until(g, k, s, z0=s, eps=1e-8)}[call]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vectors * s.nbytes

    @pytest.mark.parametrize("instance", ["random", "path-2000", "regular-3000", "even cycle"])
    def test_simulation_is_the_repeated_step(self, instance):
        # One update kernel: simulate_until's buffered loop is repeated
        # ``step`` and ``np.linalg.norm`` to the last bit.
        if instance == "random":
            rng = np.random.default_rng(41)
            cases = [make_instance(rng) for _ in range(5)]
        else:
            cases = [step_instance(instance)]
        for g, k, s in cases:
            state, trace = simulate_until(g, k, s, z0=s.copy(), eps=1e-8)
            z_star, weight = equilibrium(g, k, s), np.sqrt(k.k + g.degrees)
            stepped, e_norms, f_norms = OpinionState(s=s, z=s.copy()), [], []
            while True:
                e = stepped.z - z_star
                e_norms.append(float(np.linalg.norm(e)))
                f_norms.append(float(np.linalg.norm(weight * e)))
                if f_norms[-1] <= 1e-8:
                    break
                stepped = step(g, k, stepped)
            assert state.t == stepped.t
            assert state.z.tobytes() == stepped.z.tobytes()
            assert trace.e_norms == e_norms and trace.f_norms == f_norms
            assert {type(v) for v in trace.e_norms + trace.f_norms} == {float}
        if instance == "path-2000":
            assert state.t == 798

    def test_stop_past_its_bound_raises_at_the_bound(self, monkeypatch):
        # |f(t)| stalls near 2e-14, the steps' own rounding floor, so eps = 1e-14
        # is never reached.  The refined equilibrium's proved error (about
        # 3.2e-14, its floor) is not below eps, so the run is checked at the
        # bound itself, 129 steps, far below the cap.
        monkeypatch.setattr(dynamics, "SIMULATION_CAP", 10_000)
        g = random_regular_graph(3000, 4, 1)
        k = generate_stubbornness(g.n, 0.5, 2.0, 2)
        s = generate_opinions(g.n, "powerlaw", 3)
        with pytest.raises(NumericalError) as exc:
            simulate_until(g, k, s, z0=s.copy(), eps=1e-14)
        message = str(exc.value)
        assert message.startswith("observed stop time ")
        assert message.endswith(" exceeds the convergence bound 129")
        assert "|f(129)|" in message  # raised after the bound's last step

    def test_tight_eps_stops_against_the_refined_equilibrium(self, monkeypatch):
        # Against the 1e-12 equilibrium |f(t)| stalled near 1e-11 and this run
        # raised at its bound, 111; solved to beta <= eps / 10 in one solve,
        # refinement sweeps included, z* no longer holds |f| up.
        g = random_regular_graph(3000, 4, 1)
        k = generate_stubbornness(g.n, 0.5, 2.0, 2)
        s = generate_opinions(g.n, "powerlaw", 3)
        solves, real = [], dynamics.solve
        monkeypatch.setattr(dynamics, "solve", lambda *args: solves.append(args) or real(*args))
        state, trace = simulate_until(g, k, s, z0=s.copy(), eps=1e-12)
        assert len(solves) == 1  # the equilibrium, to beta <= eps / 10
        assert state.t <= trace.bound == 111
        assert trace.f_norms[-1] <= 1e-12 and 0.0 < trace.equilibrium_error <= 1e-13

    @pytest.mark.parametrize("beta, last", [(0.99e-8, 11), (1e-8, 9)])
    def test_stop_is_checked_where_the_equilibrium_error_allows(self, path2, k11, monkeypatch,
                                                                beta, last):
        # rho(QA) = 1/2, but the bracket says 0.1: the bound, 9, is missed.
        # With z*'s error beta below eps, a violation is proved only from
        # convergence_bound(0.1, |f(0)| + beta, eps - beta) = 11 on; at
        # beta = eps none is, and the run is checked at the bound itself.
        s = np.array([1.0, -1.0])
        f0 = simulate_until(path2, k11, s, z0=s.copy(), eps=1e-8)[1].f_norms[0]
        bracket = dynamics.SpectralEstimate(lower=0.0, upper=0.1, iterations=0, converged=False)
        monkeypatch.setattr(dynamics, "spectral_radius", lambda g, k, **kw: bracket)
        monkeypatch.setattr(dynamics, "_equilibrium_error", lambda *args: beta)
        with pytest.raises(NumericalError) as exc:
            simulate_until(path2, k11, s, z0=s.copy(), eps=1e-8)
        assert convergence_bound(0.1, f0, 1e-8) == 9
        assert last == (convergence_bound(0.1, f0 + beta, 1e-8 - beta) if beta < 1e-8 else 9)
        assert f"|f({last})|" in str(exc.value)
        assert str(exc.value).endswith(" exceeds the convergence bound 9")

    @pytest.mark.parametrize("target", [EQUILIBRIUM_DELTA, 1e-20], ids=["as solved", "refined"])
    def test_equilibrium_error_bounds_the_distance_to_z_star(self, target):
        # z* - z~* is taken from the residual of z~* formed in long double
        # on the exactly summed degrees: at the rounding floor of a factor
        # solve, the computed residual alone can read 0.  At 1e-20 every
        # solve ends in refinement sweeps that stagnate.
        rng = np.random.default_rng(7)
        for _ in range(100):
            g, k, s = make_instance(rng, k_range=(0.01, 3.0))
            b, ks = k.k + g.degrees, k.k * s
            res = solve(g, k, ks, energy_norm_certificate(ks, target))
            z, beta = res.y, dynamics._equilibrium_error(g, k, b, res.rho)
            a = g.adjacency.toarray().astype(np.longdouble)
            exact = np.diag(a.sum(axis=1) + k.k) - a
            r = k.k.astype(np.longdouble) * s - exact @ z
            gap = np.linalg.solve(operator_matrix(g, k).toarray(), r.astype(np.float64))
            assert math.sqrt(float(b @ (gap * gap))) <= beta

    def test_equilibrium_error_is_tight_on_the_slow_mode(self):
        # On a ring with one k, 1 is the slowest mode of QA and 1 - rho is
        # min k / (k + d): an error c * 1 in z~* meets the bound.
        g = cycle(50)
        k = StubbornnessVector.uniform(g.n, 0.01)
        s = generate_opinions(g.n, "uniform", 1)
        b, ks = k.k + g.degrees, k.k * s
        z = equilibrium(g, k, s) + 1e-6
        rho = solver.proved_rho(g, k, ks, z, np.empty(g.n), np.empty(g.n))
        beta = dynamics._equilibrium_error(g, k, b, rho)
        distance = 1e-6 * math.sqrt(float(b.sum()))
        assert distance <= beta <= distance * (1.0 + 1e-6)

    def test_mismatched_z0_fails_before_the_solve(self, path2, k11, monkeypatch):
        solves = []
        monkeypatch.setattr(dynamics, "solve", lambda *args: solves.append(args))
        with pytest.raises(GraphInputError, match="innate and expressed vectors"):
            simulate_until(path2, k11, np.array([1.0, -1.0]), z0=np.zeros(3), eps=1e-8)
        assert solves == []

    def test_geometric_decay_along_trace(self):
        rng = np.random.default_rng(23)
        g, k, s = make_instance(rng, n_max=20)
        _, trace = simulate_until(g, k, s, z0=np.zeros(g.n), eps=1e-8)
        rho = spectral_radius(g, k).rho_max
        for a, b in zip(trace.f_norms, trace.f_norms[1:]):
            assert b <= rho * a + 1e-9


class TestOpinionProperties:
    def test_weighted_sum_preserved(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g, k, s = make_instance(rng)
            s0 = center_opinions(s, k)
            z = equilibrium(g, k, s0)
            assert abs(k.k @ z) <= 1e-9 * g.n * k.k_max

    def test_translation_covariance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g, k, s = make_instance(rng)
            c = float(rng.uniform(-2, 2))
            assert np.abs(
                equilibrium(g, k, s + c) - (equilibrium(g, k, s) + c)
            ).max() <= 1e-10

    def test_sum_not_conserved_heterogeneous(self, path2, k21):
        z = equilibrium(path2, k21, np.array([1.0, -1.0]))
        assert z.sum() == pytest.approx(0.4, abs=1e-12)  # innate total is 0

    def test_sum_conserved_uniform(self):
        rng = np.random.default_rng(37)
        g, _, s = make_instance(rng)
        k = StubbornnessVector.uniform(g.n, 1.7)
        z = equilibrium(g, k, s)
        assert abs(z.sum() - s.sum()) <= 1e-9


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda g, k: OpinionState(s=np.zeros(2), z=np.zeros(3)), GraphInputError,
         "innate and expressed vectors must be 1-d and equal length"),
        (lambda g, k: step(g, k, OpinionState(s=np.zeros(3), z=np.zeros(3))), GraphInputError,
         "state dimensions do not match graph"),
        (lambda g, k: equilibrium(g, k, np.zeros(3)), GraphInputError,
         "opinion vector length does not match graph"),
        (lambda g, k: fundamental_matrix(Graph.from_arrays([], [], [], DENSE_CAP + 1),
                                         StubbornnessVector.uniform(DENSE_CAP + 1, 1.0)),
         SizeGuardError,
         f"dense fundamental matrix refused: n={DENSE_CAP + 1} exceeds cap {DENSE_CAP}"),
        (lambda g, k: convergence_bound(0.5, 1.0, 0.0), GraphInputError, "eps must be > 0"),
        (lambda g, k: simulate_until(g, k, np.ones(2), z0=np.zeros(2), eps=0.0),
         GraphInputError, "eps must be > 0"),
        (lambda g, k: equilibrium(g, k, np.array([np.nan, 0.0])), GraphInputError,
         "opinions must be finite"),
        (lambda g, k: convergence_bound(0.5, 1.0, np.nan), GraphInputError, "eps must be > 0"),
        (lambda g, k: simulate_until(g, k, np.ones(2), z0=np.zeros(2), eps=np.nan),
         GraphInputError, "eps must be > 0"),
        (lambda g, k: simulate_until(g, k, np.ones(2), z0=np.array([np.nan, 0.0]), eps=1e-8),
         GraphInputError, "opinions must be finite"),
        (lambda g, k: simulate_until(g, k, np.ones(2), z0=np.array([np.inf, 0.0]), eps=1e-8),
         GraphInputError, "opinions must be finite"),
        (lambda g, k: simulate_until(g, k, np.array([1.0, -np.inf]), z0=np.zeros(2), eps=1e-8),
         GraphInputError, "opinions must be finite"),
        (lambda g, k: fundamental_matrix(g, StubbornnessVector.uniform(3, 1.0)), GraphInputError,
         "stubbornness length does not match graph"),
        (lambda g, k: convergence_bound(0.5, math.inf, 1e-3), GraphInputError,
         "|f(0)| must be finite and >= 0, got inf"),
        (lambda g, k: convergence_bound(0.5, math.nan, 1e-3), GraphInputError,
         "|f(0)| must be finite and >= 0, got nan"),
        (lambda g, k: convergence_bound(0.5, -1.0, 1e-3), GraphInputError,
         "|f(0)| must be finite and >= 0, got -1.0"),
        (lambda g, k: center_opinions(np.zeros(3), k), GraphInputError,
         "opinion vector length does not match stubbornness"),
        (lambda g, k: spectral_radius(g, k, tol=np.nan), GraphInputError,
         "tol must be >= 0, got nan"),
        (lambda g, k: spectral_radius(g, k, tol=-1e-3), GraphInputError,
         "tol must be >= 0, got -0.001"),
    ],
    ids=["state", "step", "equilibrium", "fundamental_matrix", "convergence_bound",
         "simulate_until", "equilibrium-nan", "convergence_bound-nan-eps",
         "simulate_until-nan-eps", "simulate_until-nan-z0", "simulate_until-inf-z0",
         "simulate_until-inf-s", "fundamental_matrix-length", "convergence_bound-inf-f0",
         "convergence_bound-nan-f0", "convergence_bound-negative-f0", "center_opinions",
         "spectral_radius-nan-tol", "spectral_radius-negative-tol"],
)
def test_input_checks(path2, k21, call, error, message):
    with pytest.raises(error) as exc:
        call(path2, k21)
    assert str(exc.value) == message
