import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from conftest import make_instance
from fjopinion import dynamics
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
from fjopinion.generate import generate_opinions, random_connected_gnp, random_regular_graph
from fjopinion.graph import Graph, StubbornnessVector, build_graph, operator_matrix
from fjopinion.metrics import metrics_exact
from fjopinion.solver import energy_norm_certificate, solve


def isolated_node():
    return Graph.from_arrays([], [], [], 1)


def long_path(n=2000):
    return build_graph([(i, i + 1, 1.0) for i in range(n - 1)])


def dense_rho(g, k):
    """Largest eigenvalue of Q^{1/2} A Q^{1/2}, Q = (K + D)^{-1}: rho(QA)."""
    q = 1.0 / np.sqrt(k.k + g.degrees)
    return float(np.linalg.eigvalsh(q[:, None] * g.adjacency.toarray() * q[None, :])[-1])


def path_rho(g, k):
    """rho(QA) of a path from the tridiagonal Q^{1/2} A Q^{1/2} (unit weights)."""
    q = 1.0 / np.sqrt(k.k + g.degrees)
    return sla.eigvalsh_tridiagonal(np.zeros(g.n), q[:-1] * q[1:], select="i",
                                    select_range=(g.n - 1, g.n - 1))[0]


def count_splu(monkeypatch):
    """Record every matrix that ``splu`` factors from now on."""
    calls, real = [], spla.splu

    def counted(m, **kwargs):
        calls.append(m)
        return real(m, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return calls


def factors_of(calls, g, k):
    """How many of the recorded factorizations were of L + K for (g, k)."""
    t = operator_matrix(g, k)
    return sum(m.shape == t.shape and abs(m - t).max() == 0.0 for m in calls)


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
        g = long_path(DENSE_CAP + 1)
        rng = np.random.default_rng(9)
        k = StubbornnessVector.from_values(rng.uniform(0.5, 2.0, g.n))
        s = rng.uniform(-1.0, 1.0, g.n)
        z = equilibrium(g, k, s)
        t, b = operator_matrix(g, k), k.k * s
        assert np.array_equal(z, solve(t, b, k, energy_norm_certificate(b, EQUILIBRIUM_DELTA)).y)
        assert np.abs(z - spla.spsolve(t.tocsc(), b)).max() <= 1e-8

    def test_iterative_failure_names_reason_and_bound(self, monkeypatch):
        g = long_path(DENSE_CAP + 1)
        monkeypatch.setattr(dynamics, "EQUILIBRIUM_DELTA", 1e-300)
        with pytest.raises(NumericalError, match=r"stagnated after \d+ iterations with "
                           r"proved relative error \d\.\d{3}e-\d+"):
            equilibrium(g, StubbornnessVector.uniform(g.n, 1.0), np.linspace(-1.0, 1.0, g.n))

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


    def test_forest_above_cap_runs_the_inverse_phase(self):
        # The power steps alone leave this bracket at width 2.2e-7; a forest's
        # factor has no fill, so the inverse phase runs above DENSE_CAP too.
        g = long_path(20_000)
        k = StubbornnessVector.uniform(g.n, 0.01)
        est = spectral_radius(g, k)
        assert est.converged and est.iterations > dynamics.POWER_STEPS
        rho = path_rho(g, k)
        assert est.lower - RHO_SLACK <= rho <= est.upper + RHO_SLACK

    def test_cycles_above_cap_skip_the_inverse_phase(self, monkeypatch):
        g = random_regular_graph(20_000, 4, 5)
        k = StubbornnessVector.from_values(np.random.default_rng(5).uniform(0.5, 2.0, g.n))
        calls = count_splu(monkeypatch)
        est = spectral_radius(g, k, tol=0.0)  # no bracket is that narrow
        assert not est.converged and est.iterations == dynamics.POWER_STEPS
        assert calls == []


class TestFactorMemo:
    """``equilibrium`` keeps the factor of L + K for the last (g, k) only."""

    def test_metrics_then_simulation_factor_once(self, monkeypatch):
        rng = np.random.default_rng(31)
        g, k, s = make_instance(rng)
        calls = count_splu(monkeypatch)
        metrics_exact(g, k, s)
        simulate_until(g, k, s, z0=np.zeros(g.n), eps=1e-8)
        assert factors_of(calls, g, k) == 1

    def test_new_objects_factor_again(self, monkeypatch):
        rng = np.random.default_rng(32)
        g, k, s = make_instance(rng)
        other, _, _ = make_instance(rng)
        z = equilibrium(g, k, s)
        calls = count_splu(monkeypatch)
        k_equal = StubbornnessVector.from_values(k.k)
        assert np.array_equal(equilibrium(g, k_equal, s), z)
        assert factors_of(calls, g, k) == 1
        k_other = StubbornnessVector.from_values(rng.uniform(0.5, 3.0, other.n))
        s_other = rng.uniform(-1.0, 1.0, other.n)
        z_other = equilibrium(other, k_other, s_other)
        assert factors_of(calls, other, k_other) == 1
        dynamics._last_factor.clear()  # a fresh solve
        assert np.array_equal(equilibrium(other, k_other, s_other), z_other)
        assert np.array_equal(equilibrium(g, k, s), z)

    def test_one_slot(self):
        rng = np.random.default_rng(33)
        for _ in range(4):
            g, k, s = make_instance(rng)
            equilibrium(g, k, s)
            assert len(dynamics._last_factor) == 1
            assert dynamics._last_factor[0][0] is g and dynamics._last_factor[0][1] is k


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
        state, _ = simulate_until(g, k, np.array([0.3]), z0=np.array([-1.0]), eps=1e-12)
        assert state.t <= 1

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
    ],
    ids=["state", "step", "equilibrium", "fundamental_matrix", "convergence_bound",
         "simulate_until"],
)
def test_input_checks(path2, k21, call, error, message):
    with pytest.raises(error) as exc:
        call(path2, k21)
    assert str(exc.value) == message
