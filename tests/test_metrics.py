import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_laplacian, make_instance
from fjopinion import dynamics, metrics
from fjopinion.errors import GraphInputError, NumericalError, SizeGuardError
from fjopinion.generate import (
    generate_opinions,
    generate_stubbornness,
    random_connected_gnp,
    random_regular_graph,
)
from fjopinion.graph import Graph, StubbornnessVector, build_graph
from fjopinion.metrics import (
    MetricsReport,
    approxim,
    conservation_check,
    delta_budget,
    metrics_exact,
)


class TestExact:
    def test_symmetric_fixture(self, path2, k11):
        r = metrics_exact(path2, k11, np.array([1.0, -1.0]))
        assert r.conflict == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert r.disagreement == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert r.polarization == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert r.pd_index == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert r.conservation_residual <= 1e-12 * 2.0

    def test_heterogeneous_fixture(self, path2, k21):
        r = metrics_exact(path2, k21, np.array([1.0, -1.0]))
        assert r.conflict == pytest.approx(24.0 / 25.0, abs=1e-12)
        assert r.disagreement == pytest.approx(16.0 / 25.0, abs=1e-12)
        assert r.polarization == pytest.approx(19.0 / 25.0, abs=1e-12)
        assert r.pd_index == pytest.approx(7.0 / 5.0, abs=1e-12)
        # C + 2D + P = 3 = sum k_i s_i^2
        assert r.conflict + 2 * r.disagreement + r.polarization == pytest.approx(3.0)

    def test_zero_opinions(self, path2, k21):
        r = metrics_exact(path2, k21, np.zeros(2))
        assert (r.conflict, r.disagreement, r.polarization, r.pd_index) == (0, 0, 0, 0)

    def test_cap_refusal_without_fallback(self):
        n = dynamics.DENSE_CAP + 1
        g = build_graph([(i, i + 1, 1.0) for i in range(n - 1)])
        with pytest.raises(SizeGuardError):
            metrics_exact(g, StubbornnessVector.uniform(n, 1.0), np.zeros(n))

    def test_pd_identity(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            g, k, s = make_instance(rng)
            r = metrics_exact(g, k, s)
            from fjopinion.dynamics import equilibrium

            z = equilibrium(g, k, s)
            assert r.pd_index == pytest.approx(float(k.k @ (s * z)), rel=1e-9)

    def test_quadratic_forms_match_defining_sums(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            g, k, s = make_instance(rng, n_max=60)
            r = metrics_exact(g, k, s)
            lap = dense_laplacian(g)
            t_inv_ks = np.linalg.solve(lap + np.diag(k.k), k.k * s)
            c_quad = t_inv_ks @ lap @ np.diag(1.0 / k.k) @ lap @ t_inv_ks
            d_quad = t_inv_ks @ lap @ t_inv_ks
            p_quad = t_inv_ks @ np.diag(k.k) @ t_inv_ks
            assert r.conflict == pytest.approx(c_quad, rel=1e-9, abs=1e-12)
            assert r.disagreement == pytest.approx(d_quad, rel=1e-9, abs=1e-12)
            assert r.polarization == pytest.approx(p_quad, rel=1e-9, abs=1e-12)


class TestDeltaBudget:
    # Frozen from an independent evaluation of the threshold formulas on
    # the 2-node unit instance with eps = 0.1 and |s| = sqrt(2).
    def test_first_threshold(self, path2, k11):
        b = delta_budget(path2, k11, np.array([1.0, -1.0]), eps=0.1)
        assert b.delta1 == pytest.approx(0.1 / (3 * math.sqrt(3.0)), rel=1e-12)
        assert b.delta1 == pytest.approx(0.019245008972987527, rel=1e-12)

    def test_third_threshold(self, path2, k11):
        b = delta_budget(path2, k11, np.array([1.0, -1.0]), eps=0.1)
        expected = 0.1 * math.sqrt(2.0) / (72.0 * math.sqrt(6.0))
        assert b.delta3 == pytest.approx(expected, rel=1e-12)
        assert b.delta3 == pytest.approx(0.0008018753739745458, rel=1e-12)

    def test_minimum_is_used(self, path2, k11):
        b = delta_budget(path2, k11, np.array([1.0, -1.0]), eps=0.1)
        assert b.delta == min(b.delta1, b.delta2, b.delta3)

    def test_zero_opinions_rejected(self, path2, k11):
        with pytest.raises(GraphInputError):
            delta_budget(path2, k11, np.zeros(2), eps=0.1)

    def test_edgeless_graph_uses_first_threshold(self):
        # No edges: C = D = 0 whatever the solve returns, so only delta1 applies.
        g = Graph.from_arrays([], [], [], 2)
        b = delta_budget(g, StubbornnessVector.from_values([2.0, 1.0]), np.array([1.0, -2.0]), 0.1)
        assert b.delta2 == b.delta3 == math.inf
        assert b.delta == b.delta1 == pytest.approx(0.1 / 3.0, rel=1e-12)  # cap = k_max

    def test_eps_range_enforced(self, path2, k11):
        for eps in (0.0, 0.5, 1.0, -0.1):
            with pytest.raises(GraphInputError):
                delta_budget(path2, k11, np.array([1.0, -1.0]), eps=eps)


METRIC_KEYS = ("conflict", "disagreement", "polarization", "pd_index")

# Relative rounding error allowed to the exact path when it is the reference:
# a bound proved near the floor may be smaller than the reference's own error.
REFERENCE_ROUNDING = 1e-12


def relative_errors(approx, exact):
    return {
        key: abs(getattr(approx, key) - getattr(exact, key)) / abs(getattr(exact, key))
        for key in METRIC_KEYS
    }


class TestApproxim:
    def test_precentered_two_node(self, path2, k21):
        s = np.array([1.0, -2.0])  # weighted sum 2 - 2 = 0
        r = approxim(path2, k21, s, eps=1e-6)
        assert not r.centered
        assert r.polarization == pytest.approx(24.0 / 25.0, rel=1e-6)

    def test_zero_after_centering_guard(self, path2, k21):
        # (0.4, 0.4) centers to a rounding residue of about 6e-17, which the
        # guard turns into exact zero: no solve, only polarization is left.
        r = approxim(path2, k21, np.full(2, 0.4), eps=1e-6)
        assert r.solver_iterations == 0 and r.delta_used == 0.0
        assert r.conflict == r.disagreement == 0.0
        assert r.polarization == pytest.approx(0.48, rel=1e-12)

    @pytest.mark.parametrize("shift", [0.0, 0.5], ids=["raw", "shifted"])
    def test_all_metrics_within_eps(self, shift):
        rng = np.random.default_rng(61)
        for _ in range(5):
            g, k, s = make_instance(rng, n_max=80)
            exact = metrics_exact(g, k, s + shift)
            approx = approxim(g, k, s + shift, eps=1e-6)
            assert approx.conflict == pytest.approx(exact.conflict, rel=1e-6)
            assert approx.disagreement == pytest.approx(exact.disagreement, rel=1e-6)
            assert approx.polarization == pytest.approx(exact.polarization, rel=1e-6)
            assert approx.pd_index == pytest.approx(exact.pd_index, rel=1e-6)

    def test_eps_range_enforced(self, path2, k21):
        with pytest.raises(GraphInputError):
            approxim(path2, k21, np.array([1.0, -1.0]), eps=0.7)

    def test_edgeless_graph_matches_exact(self):
        g = Graph.from_arrays([], [], [], 3)
        k = StubbornnessVector.from_values([0.5, 1.0, 2.0])
        s = np.array([0.5, -0.25, 1.0])
        exact = metrics_exact(g, k, s)
        approx = approxim(g, k, s, eps=1e-6)
        assert approx.certified and approx.solver_iterations >= 1
        assert approx.disagreement == 0.0 and approx.conflict == pytest.approx(0.0, abs=1e-24)
        assert approx.sum_z == pytest.approx(s.sum(), rel=1e-12)  # z = s
        for key in ("polarization", "pd_index", "sum_z", "weighted_sum_z"):
            assert getattr(approx, key) == pytest.approx(getattr(exact, key), rel=1e-12)


class TestCertifiedStop:
    """approxim stops once its residual proves every metric to eps."""

    @pytest.fixture(scope="class")
    def at_exact_cap(self):
        g = random_regular_graph(10_000, 4, seed=5)
        k = generate_stubbornness(g.n, 0.01, 1.0, 6)
        s = generate_opinions(g.n, "powerlaw", 7)
        return g, k, s, metrics_exact(g, k, s)

    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    def test_certified_at_the_exact_cap(self, at_exact_cap, eps):
        g, k, s, exact = at_exact_cap
        approx = approxim(g, k, s, eps)
        assert approx.certified and approx.stop_reason == "certified"
        assert 0.0 < approx.error_bound <= eps
        for key, err in relative_errors(approx, exact).items():
            assert err <= max(approx.error_bound, REFERENCE_ROUNDING), key

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 30),
        k_low=st.floats(0.05, 5.0),
        shift=st.floats(-1.0, 1.0),
        log_eps=st.floats(-10.0, -2.0),
    )
    def test_certified_bound_holds(self, seed, n, k_low, shift, log_eps):
        rng = np.random.default_rng(seed)
        g = random_connected_gnp(n, 0.3, seed)
        k = StubbornnessVector.from_values(rng.uniform(k_low, 4.0 * k_low, size=n))
        s = rng.uniform(-1.0, 1.0, size=n) + shift
        eps = 10.0**log_eps
        approx = approxim(g, k, s, eps)
        if not approx.certified:
            return
        assert approx.error_bound <= eps
        for key, err in relative_errors(approx, metrics_exact(g, k, s)).items():
            assert err <= max(approx.error_bound, REFERENCE_ROUNDING), key
        assert approx.conservation_residual <= eps * float(k.k @ s**2)

    def test_exact_mode_reports_no_bound(self, path2, k21):
        r = metrics_exact(path2, k21, np.array([1.0, -1.0]))
        assert r.error_bound == 0.0 and r.stop_reason == ""


class TestBelowTheFloor:
    """An eps no double-precision residual can prove ends in a prompt "stagnated"."""

    def test_stagnates_soon_after_the_attainable_accuracy(self):
        g = random_regular_graph(3000, 4, 1)
        k = generate_stubbornness(g.n, 0.5, 2.0, 2)
        s = generate_opinions(g.n, "powerlaw", 3)
        near, below = approxim(g, k, s, 1e-13), approxim(g, k, s, 1e-15)
        assert near.certified
        assert not below.certified and below.stop_reason == "stagnated"
        assert below.solver_iterations <= 2 * near.solver_iterations
        assert below.error_bound <= near.error_bound

    def test_spd_operator_never_reports_breakdown(self):
        # L + K is positive definite: running out of accuracy is no breakdown.
        n = 5000
        g = build_graph([(i, i + 1, 1.0) for i in range(n - 1)])
        k = StubbornnessVector.uniform(n, 0.05)
        r = approxim(g, k, generate_opinions(n, "powerlaw", 3), 1e-15)
        assert not r.certified and r.stop_reason == "stagnated"


@pytest.mark.parametrize(
    "make_graph",
    [lambda: build_graph([(i, i + 1, 1.0) for i in range(1999)]),
     lambda: random_regular_graph(3000, 4, 1)],
    ids=["path-2000", "regular-3000"],
)
def test_tiny_stubbornness_factors_without_pivoting(make_graph):
    # Certified PCG could not prove 1e-12 on these inputs; the unpivoted
    # factor of L + K must still solve them to dense-solver accuracy.
    g = make_graph()
    k = StubbornnessVector.uniform(g.n, 1e-4)
    s = generate_opinions(g.n, "powerlaw", 4)
    expected = np.linalg.solve(dense_laplacian(g) + np.diag(k.k), k.k * s)
    z = dynamics.equilibrium(g, k, s)
    assert np.linalg.norm(z - expected) <= 1e-10 * np.linalg.norm(expected)
    metrics_exact(g, k, s)  # raises if its pd-index cross-check fails


def test_pd_index_cross_check_catches_a_wrong_equilibrium(monkeypatch, path2, k21):
    true_fn = metrics.equilibrium
    monkeypatch.setattr(metrics, "equilibrium", lambda g, k, s: 1.001 * true_fn(g, k, s))
    with pytest.raises(NumericalError, match="pd-index cross-check failed"):
        metrics_exact(path2, k21, np.array([1.0, -1.0]))


@pytest.mark.parametrize(
    "call",
    [
        lambda g, k, s: dynamics.step(g, k, dynamics.OpinionState(s=s, z=s)),
        lambda g, k, s: dynamics.spectral_radius(g, k),
        lambda g, k, s: dynamics.equilibrium(g, k, s),
        lambda g, k, s: dynamics.simulate_until(g, k, s, z0=s, eps=1e-8),
        lambda g, k, s: metrics_exact(g, k, s),
        lambda g, k, s: approxim(g, k, s, eps=1e-6),
    ],
    ids=["step", "spectral_radius", "equilibrium", "simulate_until", "metrics_exact", "approxim"],
)
def test_wrong_length_stubbornness_is_an_input_error(path2, call):
    k3 = StubbornnessVector.from_values([1.0, 2.0, 3.0])
    with pytest.raises(GraphInputError, match="stubbornness length does not match graph"):
        call(path2, k3, np.array([1.0, -1.0]))


def run_mode(mode, g, k, s):
    return metrics_exact(g, k, s) if mode == "exact" else approxim(g, k, s, eps=1e-6)


@pytest.mark.parametrize("mode", ["exact", "approx"])
class TestModesAgree:
    """Both modes report the metrics of the opinions as given."""

    def test_readme_quick_start(self, path2, k21, mode):
        r = run_mode(mode, path2, k21, np.array([1.0, -1.0]))
        assert not r.centered
        assert r.conflict == pytest.approx(0.96, rel=1e-6)
        assert r.disagreement == pytest.approx(0.64, rel=1e-6)
        assert r.polarization == pytest.approx(0.76, rel=1e-6)
        assert r.pd_index == pytest.approx(1.40, rel=1e-6)

    def test_constant_opinions(self, path2, k21, mode):
        # z = s = c: polarization is c^2 sum(k), everything else vanishes.
        r = run_mode(mode, path2, k21, np.full(2, 0.4))
        assert r.conflict == pytest.approx(0.0, abs=1e-12)
        assert r.disagreement == pytest.approx(0.0, abs=1e-12)
        assert r.polarization == pytest.approx(0.4**2 * 3.0, rel=1e-6)
        assert r.pd_index == pytest.approx(0.48, rel=1e-6)


class TestConservation:
    def test_symmetric_fixture_residual_zero(self, path2, k11):
        r = metrics_exact(path2, k11, np.array([1.0, -1.0]))
        residual, rel = conservation_check(r, k11, np.array([1.0, -1.0]))
        assert rel <= 1e-12

    def test_heterogeneous_fixture(self, path2, k21):
        r = metrics_exact(path2, k21, np.array([1.0, -1.0]))
        residual, rel = conservation_check(r, k21, np.array([1.0, -1.0]))
        assert rel <= 1e-12

    def test_random_graph(self):
        rng = np.random.default_rng(67)
        g, k, s = make_instance(rng, n_max=30)
        r = metrics_exact(g, k, s)
        _, rel = conservation_check(r, k, s)
        assert rel <= 1e-10

    def test_holds_without_centering(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            g, k, s = make_instance(rng)
            s_shifted = s + 0.5  # deliberately uncentered
            r = metrics_exact(g, k, s_shifted)
            _, rel = conservation_check(r, k, s_shifted)
            assert rel <= 1e-9


class TestReportSerialization:
    def test_round_trip(self, path2, k21):
        r = metrics_exact(path2, k21, np.array([1.0, -1.0]))
        again = MetricsReport.from_json(r.to_json())
        assert again == r

    def test_report_without_solver_fields_loads(self, path2, k21):
        # Reports written before error_bound and stop_reason existed.
        d = metrics_exact(path2, k21, np.array([1.0, -1.0])).to_dict()
        del d["error_bound"], d["stop_reason"]
        again = MetricsReport.from_json(json.dumps(d))
        assert again.error_bound == 0.0 and again.stop_reason == ""

    def test_flat_keys(self, path2, k21):
        r = approxim(path2, k21, np.array([1.0, -2.0]), eps=1e-6)
        d = r.to_dict()
        assert all(not isinstance(v, (dict, list)) for v in d.values())
        assert d["mode"] == "approx" and d["eps_requested"] == 1e-6


@pytest.mark.parametrize(
    "call",
    [metrics_exact, lambda g, k, s: approxim(g, k, s, eps=1e-6)],
    ids=["metrics_exact", "approxim"],
)
def test_wrong_length_opinions_is_an_input_error(path2, k21, call):
    with pytest.raises(GraphInputError) as exc:
        call(path2, k21, np.array([1.0, 0.0, -1.0]))
    assert str(exc.value) == "opinion vector length does not match graph"
