import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_splu, dense_laplacian, factors_of, make_instance
from fjopinion import dynamics, metrics, solver
from fjopinion.errors import GraphInputError, NumericalError
from fjopinion.generate import (
    generate_opinions,
    generate_stubbornness,
    random_connected_gnp,
    random_regular_graph,
)
from fjopinion.graph import Graph, StubbornnessVector, build_graph
from fjopinion.metrics import (
    MetricsReport,
    _metrics_certificate,
    approxim,
    conservation_check,
    delta_budget,
    metrics_exact,
)
from fjopinion.solver import solve


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

    def test_above_cap_is_the_certified_solve(self):
        # A cycle (m = n) is no forest, so above the cap it is not factored.
        n = dynamics.DENSE_CAP + 1
        g = build_graph([(i, (i + 1) % n, 1.0) for i in range(n)])
        k = StubbornnessVector.uniform(n, 1.0)
        s = generate_opinions(n, "powerlaw", 5)
        exact, approx = metrics_exact(g, k, s), approxim(g, k, s, 1e-12)
        assert exact.mode == "exact" and exact.certified and exact.stop_reason == "certified"
        assert exact.solver_iterations >= 1 and exact.error_bound <= 1e-12
        for key, err in relative_errors(exact, approx).items():
            assert err <= exact.error_bound + approx.error_bound, key

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

    def test_stubbornness_near_the_floor(self):
        # k_min k_max = 1e-600 underflows to 0; the thresholds are formed
        # without that product.
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        b = delta_budget(g, StubbornnessVector.uniform(3, 1e-300), np.array([0.5, -0.5, 0.0]), 0.1)
        cap = 1e-300 + 3.0
        assert b.delta1 == pytest.approx(0.1 * 1e-300 / (3.0 * math.sqrt(cap)), rel=1e-12)
        assert 0.0 <= b.delta3 <= b.delta2 <= b.delta1

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


def pcg_under_metrics_certificate(g, k, s, eps):
    """Certified PCG alone on the pipeline's centered system, as no mode runs it on a forest."""
    s0, c = dynamics._center(s, k)
    b = k.k * s0
    certificate, _ = _metrics_certificate(g, k, s0, b, c * c * float(k.k.sum()), eps)
    return solver._pcg(g, k, b, certificate)


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
        assert approx.certified
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

    def test_exact_mode_reports_its_proved_bound(self):
        # The direct solve is judged by the same certificate, at target 1e-12.
        g = build_graph([(i, i + 1, 1.0) for i in range(1999)])
        k = StubbornnessVector.uniform(g.n, 0.05)
        s = generate_opinions(g.n, "powerlaw", 4)
        r = metrics_exact(g, k, s)
        assert r.certified and 0.0 < r.error_bound <= 1e-12
        assert r.solver_iterations == 0 and r.stop_reason == "certified"
        assert r.eps_requested == dynamics.EQUILIBRIUM_DELTA
        s0 = dynamics.center_opinions(s, k)
        assert r.delta_used == delta_budget(g, k, s0, dynamics.EQUILIBRIUM_DELTA).delta
        approx = approxim(g, k, s, 1e-12)
        for key, err in relative_errors(r, approx).items():
            assert err <= r.error_bound + approx.error_bound, key


class TestBelowTheFloor:
    """An eps no refined residual can prove ends in a prompt "stagnated"."""

    def test_stagnates_soon_after_the_attainable_accuracy(self):
        # PCG, then long-double refinement sweeps: 1e-15 is proved (6.9e-16),
        # 1e-16 lies below the floor of the refined bound.
        g = random_regular_graph(dynamics.DENSE_CAP + 1, 4, 1)
        k = generate_stubbornness(g.n, 0.5, 2.0, 2)
        s = generate_opinions(g.n, "powerlaw", 3)
        near, below = approxim(g, k, s, 1e-15), approxim(g, k, s, 1e-16)
        assert near.certified
        assert not below.certified and below.stop_reason == "stagnated"
        assert below.solver_iterations <= 2 * near.solver_iterations
        assert below.error_bound <= near.error_bound

    def test_spd_operator_never_reports_breakdown(self):
        # L + K is positive definite: running out of accuracy is no breakdown.
        n = 5000
        g = build_graph([(i, i + 1, 1.0) for i in range(n - 1)])
        k = StubbornnessVector.uniform(n, 0.05)
        r = pcg_under_metrics_certificate(g, k, generate_opinions(n, "powerlaw", 3), 1e-15)
        assert not r.certified and r.stop_reason == "stagnated"

    @pytest.mark.parametrize("n", [3000, dynamics.DENSE_CAP + 1],
                             ids=["regular-3000", "above-the-cap"])
    def test_stagnation_takes_no_factor_at_any_size(self, n, monkeypatch):
        # approxim follows solver.solve: PCG and its refinement sweeps stop
        # uncertified, and no factor of L + K follows, below the cap or above.
        g = random_regular_graph(n, 4, 1)
        k = generate_stubbornness(g.n, 0.5, 2.0, 2)
        s = generate_opinions(g.n, "powerlaw", 3)
        calls = count_splu(monkeypatch)
        r = approxim(g, k, s, 1e-16)
        assert not r.certified and r.solver_iterations > 0
        assert calls == [] and r.stop_reason == "stagnated"


def test_a_stagnated_solve_reports_the_least_bound_it_judged(monkeypatch):
    # On regular-3000 at eps 1e-16 PCG stagnates, and the refinement sweeps
    # stop once their rho no longer shrinks.  The wrapped bound grows tenfold
    # with each new q the sweeps judge, so the first sweep's q, PCG's own, has
    # the least bound, and the last sweep judges worse.  The report must come
    # from that first q: its bound, and the norms of that q, not the last one's.
    g = random_regular_graph(3000, 4, 1)
    k = generate_stubbornness(g.n, 0.5, 2.0, 2)
    s = generate_opinions(g.n, "powerlaw", 3)
    dtypes, real_rho = [], solver.proved_rho

    def proved_rho(g_, k_, b, y, *rest):
        dtypes.append(y.dtype)  # long double in a sweep, float64 in PCG's own check
        return real_rho(g_, k_, b, y, *rest)

    monkeypatch.setattr(solver, "proved_rho", proved_rho)
    distinct, swept, certificate = [], [], metrics._metrics_certificate

    def wrapped(*args):
        certify, norms_of = certificate(*args)

        def bound(q, r, rho):
            value = certify.bound(q, r, rho)
            if dtypes[-1] == np.float64:
                return value
            if q.tobytes() not in distinct:
                distinct.append(q.tobytes())
            value *= 10.0 ** distinct.index(q.tobytes())
            swept.append((q.copy(), value))
            return value

        return dataclasses.replace(certify, bound=bound), norms_of

    monkeypatch.setattr(metrics, "_metrics_certificate", wrapped)
    report = approxim(g, k, s, 1e-16)
    assert len(distinct) >= 2 and swept[len(distinct) - 1][1] > swept[0][1]
    assert report.stop_reason == "stagnated" and report.error_bound == swept[0][1]
    q, (s0, c) = swept[0][0], dynamics._center(s, k)
    conflict, p0 = metrics._pointwise(k, s0, q)
    assert report.conflict == conflict and report.disagreement == metrics._disagreement(g, q)
    assert report.polarization == p0 + c * c * float(k.k.sum())


@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_an_edgeless_graph_is_reported_without_a_solve(mode, monkeypatch):
    # L = 0, so q = s0 exactly and C = D = 0: no factor and no solve.
    g = Graph.from_arrays([], [], [], 3)
    k = StubbornnessVector.from_values([0.5, 1.0, 2.0])
    s = np.array([0.5, -0.25, 1.0])
    solves, real_solve = [], metrics.solve
    monkeypatch.setattr(metrics, "solve", lambda *args: solves.append(1) or real_solve(*args))
    calls = count_splu(monkeypatch)
    r = approxim(g, k, s, 1e-6) if mode == "approx" else metrics_exact(g, k, s)
    assert calls == [] and solves == []
    assert r.certified and r.solver_iterations == 0
    assert r.error_bound == 0.0 and r.stop_reason == ""
    assert r.delta_used == delta_budget(g, k, dynamics.center_opinions(s, k), r.eps_requested).delta
    assert r.conflict == r.disagreement == 0.0
    assert r.polarization == r.pd_index == pytest.approx(float(k.k @ s**2), rel=1e-15)
    assert r.sum_z == pytest.approx(s.sum(), rel=1e-15)  # z = s


@pytest.fixture(scope="module")
def regular_20k():
    """perfbench's solve instance at n = 20 000: PCG alone, no factor."""
    n = 20_000
    return random_regular_graph(n, 4, 1), generate_stubbornness(n, 0.01, 1.0, 5)


def count_checks(monkeypatch):
    """Counts of true-residual checks and of passes over the edges."""
    calls = {"check": 0, "disagreement": 0}

    def counted(fn, key):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(solver, "proved_rho", counted(solver.proved_rho, "check"))
    monkeypatch.setattr(metrics, "_disagreement", counted(metrics._disagreement, "disagreement"))
    return calls


CERTIFIED_SOLVES = pytest.mark.parametrize(
    "dist, eps", [(d, e) for d in ("uniform", "powerlaw") for e in (1e-4, 1e-8)])


class TestOneCheckPerSolve:
    """The estimate aims the one true residual; the report takes that check's norms."""

    @pytest.mark.parametrize("dist, eps, iterations", [
        ("uniform", 1e-4, 10), ("uniform", 1e-8, 16), ("powerlaw", 1e-4, 8),
        ("powerlaw", 1e-8, 16)])
    def test_one_true_residual_and_one_pass_over_the_edges(self, regular_20k, dist, eps,
                                                           iterations, monkeypatch):
        # The iterations are those of a PCG that forms rho at every step: rho
        # is formed later, and the true residual less often, but no check moves.
        g, k = regular_20k
        calls = count_checks(monkeypatch)
        r = approxim(g, k, generate_opinions(g.n, dist, 3), eps)
        assert r.certified and r.solver_iterations == iterations
        assert calls == {"check": 1, "disagreement": 1}

    def test_a_factor_solve_reports_the_norms_of_its_check(self, monkeypatch):
        g = build_graph([(i, i + 1, 1.0) for i in range(1999)])
        k = StubbornnessVector.uniform(g.n, 0.05)
        calls = count_checks(monkeypatch)
        r = approxim(g, k, generate_opinions(g.n, "powerlaw", 4), 1e-8)
        assert r.certified and r.stop_reason == "certified"
        assert calls == {"check": 1, "disagreement": 1}

    @CERTIFIED_SOLVES
    def test_the_estimate_only_times_the_check(self, regular_20k, dist, eps, monkeypatch):
        g, k = regular_20k
        s = generate_opinions(g.n, dist, 3)
        aimed = approxim(g, k, s, eps)
        certificate = metrics._metrics_certificate

        def without_estimate(*args):
            certify, norms_of = certificate(*args)
            return dataclasses.replace(certify, estimate=None), norms_of

        monkeypatch.setattr(metrics, "_metrics_certificate", without_estimate)
        unaimed = approxim(g, k, s, eps)
        for key in ("solver_iterations", "stop_reason", "error_bound", "certified"):
            assert getattr(aimed, key) == getattr(unaimed, key), key
        for key in METRIC_KEYS + ("sum_z", "weighted_sum_z", "conservation_residual"):
            a, b = getattr(aimed, key), getattr(unaimed, key)
            assert abs(a - b) <= math.ulp(b), key

    @CERTIFIED_SOLVES
    @pytest.mark.parametrize("guess", [0.0, math.inf, math.nan])
    def test_a_guess_that_cannot_defer_the_check_is_no_guess(self, regular_20k, dist, eps,
                                                             guess):
        # Only a finite guess above the target defers the true residual.
        g, k = regular_20k
        s0, c = dynamics._center(generate_opinions(g.n, dist, 3), k)
        b = k.k * s0
        certificate, _ = _metrics_certificate(g, k, s0, b, c * c * float(k.k.sum()), eps)
        free = solve(g, k, b, dataclasses.replace(certificate, estimate=None))
        forced = solve(g, k, b, dataclasses.replace(certificate, estimate=lambda y, r, rho: guess))
        assert forced.y.tobytes() == free.y.tobytes()
        for key in ("iterations", "rho", "certified", "bound", "stop_reason"):
            assert getattr(forced, key) == getattr(free, key), key


def test_approxim_on_a_forest_is_metrics_exact():
    # At eps = EQUILIBRIUM_DELTA both modes are one pipeline on one factor.
    g = build_graph([(i, i + 1, 1.0) for i in range(1999)])
    k = StubbornnessVector.uniform(g.n, 0.05)
    s = generate_opinions(g.n, "powerlaw", 4)
    approx, exact = approxim(g, k, s, dynamics.EQUILIBRIUM_DELTA), metrics_exact(g, k, s)
    for key in METRIC_KEYS + ("sum_z", "weighted_sum_z", "error_bound", "solver_iterations",
                              "stop_reason"):
        assert getattr(approx, key) == getattr(exact, key), key
    assert approx.solver_iterations == 0 and approx.stop_reason == "certified"


def refined_dense_solve(g, k, b, sweeps=3):
    """(L + K)^{-1} b in long double: a dense solve refined on residuals
    formed in long double, on the exact degrees, apart from the solver."""
    a = g.adjacency.toarray().astype(np.longdouble)
    exact = np.diag(a.sum(axis=1) + k.k) - a
    t = exact.astype(np.float64)
    x = np.linalg.solve(t, b.astype(np.float64)).astype(np.longdouble)
    for _ in range(sweeps):
        x += np.linalg.solve(t, (b - exact @ x).astype(np.float64))
    return x


@pytest.mark.parametrize(
    "make_graph, pcg_stops, factors",
    # The path is a forest: factored at once, and the factor kept for its
    # refinement sweeps.  On the other graphs PCG cannot prove 1e-12 in
    # double precision and stagnates; long-double sweeps with PCG
    # corrections certify it, and nothing is factored.  Every report is
    # certified: the metrics read 3.0e-12 on the path's factor alone, and
    # 6.4e-13 on the regular graph before the rounding term was counted.
    [(lambda: build_graph([(i, i + 1, 1.0) for i in range(1999)]), [], 1),
     (lambda: random_regular_graph(3000, 4, 1), ["stagnated"], 0),
     (lambda: build_graph([(i, (i + 1) % 200, 1.0) for i in range(200)]), ["stagnated"], 0)],
    ids=["path-2000", "regular-3000", "cycle-200"],
)
def test_tiny_stubbornness_factors_without_pivoting(make_graph, pcg_stops, factors, monkeypatch):
    # The unpivoted factor of L + K, and the refinement, must solve these
    # to the accuracy of a refined dense solve.
    g = make_graph()
    k = StubbornnessVector.uniform(g.n, 1e-4)
    s = generate_opinions(g.n, "powerlaw", 4)
    expected = refined_dense_solve(g, k, k.k * s).astype(np.float64)
    stops, real_pcg = [], solver._pcg
    monkeypatch.setattr(solver, "_pcg",
                        lambda *args: stops.append(real_pcg(*args)) or stops[-1])
    builds, real_operator = [], solver.operator_matrix
    monkeypatch.setattr(solver, "operator_matrix",
                        lambda *args: builds.append(1) or real_operator(*args))
    calls = count_splu(monkeypatch)
    z = dynamics.equilibrium(g, k, s)
    # The first PCG solve, then one certified correction per sweep.
    assert [res.stop_reason for res in stops[:1]] == pcg_stops
    assert all(res.stop_reason == "certified" for res in stops[1:])
    assert len(calls) == factors_of(calls, g, k) == len(builds) == factors
    assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)
    calls.clear()
    r = metrics_exact(g, k, s)  # raises if its pd-index cross-check fails
    # The reported bound covers the error against the refined dense solve,
    # taken centered as the pipeline does, so that no cancellation blurs it.
    c = float(k.k @ s) / float(k.k.sum())
    s0 = (s - c).astype(np.longdouble)
    q = refined_dense_solve(g, k, k.k * s0)
    lap = dense_laplacian(g).astype(np.longdouble)
    dense = {"conflict": k.k @ (q - s0) ** 2, "disagreement": q @ lap @ q,
             "polarization": k.k @ q**2 + c * c * k.k.sum()}
    dense["pd_index"] = dense["polarization"] + dense["disagreement"]
    for key, value in dense.items():
        assert abs(getattr(r, key) - float(value)) <= r.error_bound * abs(float(value)), key
    assert r.certified and r.stop_reason == "certified"
    assert (r.solver_iterations > 0) == bool(pcg_stops)  # the PCG iterations run
    assert len(calls) == factors_of(calls, g, k) == factors


def test_pd_index_cross_check_catches_a_wrong_equilibrium(monkeypatch, path2, k21):
    # Refinement would correct a wrong factor, so the wrong q comes after the
    # solve, in place: the report keeps the norms its check took of the right q.
    def wrong(*args):
        res = solve(*args)
        np.multiply(res.y, 1.001, out=res.y)
        return res

    monkeypatch.setattr(metrics, "solve", wrong)
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

    def test_subnormal_opinions_are_an_input_error(self, mode):
        # s0 is nonzero, but k s0 and ||s0|| underflow to 0: the budget rejects
        # s0 before the certificate would divide by its zero sum k_i s_i^2.
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        k = StubbornnessVector.from_values([0.01, 0.01, 0.01])
        with pytest.raises(GraphInputError, match="opinion vector is zero"):
            run_mode(mode, g, k, np.array([0.0, 0.0, 1e-322]))

    def test_opinions_whose_k_s0_underflows_are_judged_by_the_check(self, mode):
        # ||s0|| passes the budget, but b = k s0 and sum k_i s_i^2 underflow to 0:
        # the solve stops at y = 0, whose check proves the law exactly, not 0/0.
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        k = StubbornnessVector.from_values([1e-200, 1e-200, 1.0])
        r = run_mode(mode, g, k, np.array([1e-150, -1e-150, 0.0]))
        assert (r.conflict, r.disagreement, r.polarization, r.conservation_residual) == (0.0,) * 4
        assert r.certified and r.error_bound == 0.0 and r.solver_iterations == 0
        assert r.stop_reason == "certified"

    def test_stubbornness_near_the_floor_gets_a_report(self, mode):
        # k = 1e-300: k_min k_max and sum k_i s_i^2 underflow to 0, and so does
        # b = k s0; the solve stops at y = 0, whose check proves the law exactly.
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        r = run_mode(mode, g, StubbornnessVector.uniform(3, 1e-300), np.array([1e-30, -1e-30, 0.0]))
        assert (r.conflict, r.disagreement, r.polarization, r.conservation_residual) == (0.0,) * 4
        assert r.certified and r.error_bound == 0.0 and r.stop_reason == "certified"

    def test_stubbornness_below_the_rounding_of_the_degrees_is_a_numerical_error(self, mode):
        # deg + k rounds to deg, so L + K is the singular L in double
        # precision: the path's factor meets a zero pivot, a NumericalError,
        # not SuperLU's RuntimeError.
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(NumericalError, match="Factor is exactly singular"):
            run_mode(mode, g, StubbornnessVector.uniform(3, 1e-300), np.array([0.5, -0.5, 0.0]))

    def test_stubbornness_below_the_rounding_of_the_degrees_on_a_cycle_is_uncertified(self, mode):
        # No factor is tried on a graph with cycles: PCG and its sweeps stop,
        # and D and P, which underflow to 0, get no relative bound.
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        r = run_mode(mode, g, StubbornnessVector.uniform(3, 1e-300), np.array([0.5, -0.5, 0.0]))
        assert not r.certified and r.stop_reason == "stagnated" and r.error_bound == math.inf


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


def approxim_1e6(g, k, s):
    return approxim(g, k, s, eps=1e-6)


@pytest.mark.parametrize(
    "call, s, message",
    [
        (metrics_exact, [1.0, 0.0, -1.0], "opinion vector length does not match graph"),
        (approxim_1e6, [1.0, 0.0, -1.0], "opinion vector length does not match graph"),
        (metrics_exact, [np.nan, 0.0], "opinions must be finite"),
        (approxim_1e6, [np.nan, 0.0], "opinions must be finite"),
        (approxim_1e6, [1.0, np.inf], "opinions must be finite"),
        (lambda g, k, s: delta_budget(g, k, s, 0.1), [1.0, 0.0, -1.0],
         "opinion vector length does not match graph"),
        (lambda g, k, s: conservation_check(metrics_exact(g, k, np.array([1.0, -1.0])), k, s),
         [1.0, 0.0, -1.0], "opinion vector length does not match stubbornness"),
    ],
    ids=["metrics_exact", "approxim", "metrics_exact-nan", "approxim-nan", "approxim-inf",
         "delta_budget", "conservation_check"],
)
def test_wrong_length_opinions_is_an_input_error(path2, k21, call, s, message):
    with pytest.raises(GraphInputError) as exc:
        call(path2, k21, np.array(s))
    assert str(exc.value) == message


def test_approxim_holds_few_vectors_beside_its_solve():
    # s0, b = k s0, the solve's six vectors and the norms' one temporary of
    # the check: no q is held through the solve, and no L + K is built.
    n = 100_000
    g = random_regular_graph(n, 4, 1)
    k = generate_stubbornness(n, 0.01, 1.0, 2)
    s = generate_opinions(n, "uniform", 3)
    tracemalloc.start()
    try:
        r = approxim(g, k, s, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.certified and r.stop_reason == "certified"
    assert peak < 9.5 * s.nbytes


@pytest.mark.parametrize("make_graph", [lambda: build_graph([(i, (i + 1) % 200, 1.0) for i in range(200)]),
                                        lambda: random_regular_graph(3000, 4, 1)],
                         ids=["cycle-200", "regular-3000"])
def test_no_graph_with_a_cycle_is_factored(make_graph, monkeypatch):
    # At k = 1e-4 PCG stagnates short of 1e-12 on both, below DENSE_CAP:
    # refinement sweeps take over, where a factor of L + K once did.
    g = make_graph()
    k = StubbornnessVector.uniform(g.n, 1e-4)
    s = generate_opinions(g.n, "powerlaw", 4)
    calls = count_splu(monkeypatch)
    reports = approxim(g, k, s, 1e-12), metrics_exact(g, k, s)
    dynamics.equilibrium(g, k, s)
    assert calls == []
    assert all(r.certified and r.stop_reason == "certified" for r in reports)


def test_the_check_counts_the_rounding_of_its_residual():
    # On regular-3000 at k = 1e-4 the double residual's bound alone proves
    # the metrics to 1e-12 (it read 6.97e-13 when PCG stopped on it); with
    # the residual's rounding counted it does not, and the report is
    # certified through a residual formed in long double.
    g = random_regular_graph(3000, 4, 1)
    k = StubbornnessVector.uniform(g.n, 1e-4)
    s = generate_opinions(g.n, "powerlaw", 3)
    s0, c = dynamics._center(s, k)
    b = k.k * s0
    certify, _ = _metrics_certificate(g, k, s0, b, c * c * float(k.k.sum()), 1e-12)
    res = solver._pcg(g, k, b, certify)
    r = b - (g.degrees + k.k) * res.y + g.adjacency @ res.y
    bare = certify.bound(res.y, r, math.sqrt(float(r @ (r / k.k))))
    assert bare <= 1e-12 < res.bound and not res.certified
    report = metrics_exact(g, k, s)
    assert report.certified and report.stop_reason == "certified" and report.error_bound <= 1e-12


def test_a_forest_at_tiny_stubbornness_is_certified_by_refinement(monkeypatch):
    # The factor's own solution misses 1e-12 once its rounding is counted;
    # a long-double sweep on the kept factor proves it.
    g = build_graph([(i, i + 1, 1.0) for i in range(1999)])
    k = StubbornnessVector.uniform(g.n, 1e-4)
    s = generate_opinions(g.n, "powerlaw", 4)
    checks, real_check = [], solver._judged
    monkeypatch.setattr(solver, "_judged",
                        lambda *args: checks.append(real_check(*args)) or checks[-1])
    calls = count_splu(monkeypatch)
    r = metrics_exact(g, k, s)
    assert len(checks) == 1 and checks[0].bound > 1e-12  # the factor's solution, judged in double
    assert r.certified and r.error_bound <= 1e-12 and r.stop_reason == "certified"
    assert r.solver_iterations == 0 and len(calls) == 1
