"""Cross-module property suites driven by the ``verify`` CLI command.

Each check tests one named invariant on one seeded random instance and
returns whether it held; ``run_suite`` runs it over a batch of trials and
reports (name, passed, total).  The last check is the spanning-forest sweep
that certifies the fundamental matrix combinatorially.
"""

from __future__ import annotations

import numpy as np

from fjopinion import dynamics, forest, graph, metrics
from fjopinion.generate import _rng, random_connected_gnp
from fjopinion.graph import StubbornnessVector, eigen_bounds, laplacian_apply, operator_matrix
from fjopinion.solver import energy_norm_certificate, solve


# Relative rounding error allowed to the exact path when it is the reference.
EXACT_ROUNDING = 1e-12


def _instance(rng, n_max=40):
    n = int(rng.integers(3, n_max + 1))
    g = random_connected_gnp(n, 0.25, int(rng.integers(0, 2**31)))
    k = StubbornnessVector.from_values(rng.uniform(0.5, 3.0, size=g.n))
    s = rng.uniform(-1.0, 1.0, size=g.n)
    return g, k, s


def check_laplacian_ones(rng):
    g, _, _ = _instance(rng)
    return np.abs(laplacian_apply(g, np.ones(g.n))).max() <= 1e-12 * g.n * max(g.w_max, 1.0)


def check_incidence_composition(rng):
    g, _, _ = _instance(rng)
    ok = True
    for _ in range(5):
        x = rng.standard_normal(g.n)
        # B^T W B x on the canonical edge arrays, b_e = e_u - e_v.
        flow = g.edge_w * (x[g.edge_u] - x[g.edge_v])
        btwbx = np.bincount(g.edge_u, flow, g.n) - np.bincount(g.edge_v, flow, g.n)
        lx = laplacian_apply(g, x)
        scale = max(np.abs(lx).max(), 1.0)
        ok &= np.abs(btwbx - lx).max() <= 1e-12 * scale
    return ok


def check_eigen_bounds(rng):
    g, k, _ = _instance(rng)
    bounds = eigen_bounds(g, k)
    eig = np.linalg.eigvalsh(operator_matrix(g, k).toarray())
    return eig.min() >= bounds.lower - 1e-9 and eig.max() <= bounds.coarse_upper + 1e-9


def check_row_substochastic(rng):
    g, k, _ = _instance(rng)
    # One update from z = 1 with s = 0 gives the row sums of QA.
    ones = dynamics.OpinionState(s=np.zeros(g.n), z=np.ones(g.n))
    row_sums = dynamics.step(g, k, ones).z
    expected = g.degrees / graph._diagonal(g, k)
    return np.abs(row_sums - expected).max() <= 1e-12 and row_sums.max() < 1.0


def check_fixed_point(rng):
    g, k, s = _instance(rng)
    z = dynamics.equilibrium(g, k, s)
    state = dynamics.step(g, k, dynamics.OpinionState(s=s, z=z))
    return np.abs(state.z - z).max() <= 1e-10


def check_phi_row_stochastic(rng):
    g, k, _ = _instance(rng)
    phi = dynamics.fundamental_matrix(g, k)
    return np.abs(phi.sum(axis=1) - 1.0).max() <= 1e-10 and phi.min() > 0.0


def check_weighted_sum_preserved(rng):
    g, k, s = _instance(rng)
    z = dynamics.equilibrium(g, k, dynamics.center_opinions(s, k))
    return abs(float(k.k @ z)) <= 1e-9 * g.n * k.k_max


def check_translation_covariance(rng):
    g, k, s = _instance(rng)
    c = float(rng.uniform(-2.0, 2.0))
    z = dynamics.equilibrium(g, k, s)
    z_shift = dynamics.equilibrium(g, k, s + c)
    return np.abs(z_shift - (z + c)).max() <= 1e-10


def check_rho_monotone(rng):
    g, k, _ = _instance(rng)
    est = dynamics.spectral_radius(g, k, tol=1e-12)
    k2 = k.k.copy()
    k2[int(rng.integers(g.n))] *= 1.5
    est2 = dynamics.spectral_radius(g, StubbornnessVector.from_values(k2), tol=1e-12)
    return est2.rho_max < est.rho_max - 1e-9


def check_column_monotone(rng):
    g, k, _ = _instance(rng, n_max=30)
    phi = dynamics.fundamental_matrix(g, k)
    v = int(rng.integers(g.n))
    k2 = k.k.copy()
    k2[v] *= 0.5
    diff = dynamics.fundamental_matrix(g, StubbornnessVector.from_values(k2)) - phi
    return np.all(diff[:, v] < -1e-12) and np.all(np.delete(diff, v, axis=1) > 1e-12)


def check_uniform_k_conservation(rng):
    g, _, s = _instance(rng)
    k = StubbornnessVector.uniform(g.n, float(rng.uniform(0.3, 3.0)))
    z = dynamics.equilibrium(g, k, s)
    return abs(z.sum() - s.sum()) <= 1e-9 * max(1.0, abs(s.sum()))


def check_geometric_decay(rng):
    g, k, s = _instance(rng, n_max=20)
    _, trace = dynamics.simulate_until(g, k, s, z0=np.zeros(g.n), eps=1e-8)
    rho = dynamics.spectral_radius(g, k).rho_max
    f = trace.f_norms
    return all(f[t + 1] <= rho * f[t] + 1e-9 for t in range(len(f) - 1))


def check_conservation_law(rng):
    g, k, s = _instance(rng)
    _, rel = metrics.conservation_check(metrics.metrics_exact(g, k, s), k, s)
    return rel <= 1e-9


def check_quadratic_forms(rng):
    g, k, s = _instance(rng)
    report = metrics.metrics_exact(g, k, s)
    t_inv_ks = np.linalg.solve(operator_matrix(g, k).toarray(), k.k * s)
    lap = np.diag(g.degrees) - g.adjacency.toarray()
    pairs = [
        (float(t_inv_ks @ (lap @ ((1.0 / k.k) * (lap @ t_inv_ks)))), report.conflict),
        (float(t_inv_ks @ (lap @ t_inv_ks)), report.disagreement),
        (float(t_inv_ks @ (k.k * t_inv_ks)), report.polarization),
    ]
    return all(abs(quad - got) <= 1e-9 * max(1.0, abs(quad)) for quad, got in pairs)


def check_approx_vs_exact(rng):
    g, k, s = _instance(rng, n_max=60)
    exact = metrics.metrics_exact(g, k, s)
    approx = metrics.approxim(g, k, s, eps=1e-6)
    keys = ("conflict", "disagreement", "polarization", "pd_index")
    # The exact path's own rounding may exceed a bound proved near the floor.
    tol = max(approx.error_bound, EXACT_ROUNDING)
    return approx.certified and approx.error_bound <= 1e-6 and all(
        abs(getattr(approx, key) - getattr(exact, key)) <= tol * abs(getattr(exact, key))
        for key in keys
    )


def check_solver_contract(rng):
    g, k, _ = _instance(rng, n_max=100)
    t = operator_matrix(g, k)
    b = rng.standard_normal(g.n)
    delta = float(10.0 ** rng.uniform(-8, -2))
    res = solve(g, k, b, energy_norm_certificate(b, delta))
    x_star = np.linalg.solve(t.toarray(), b)
    err = res.y - x_star
    t_norm = lambda v: np.sqrt(float(v @ (t @ v)))
    return res.certified and t_norm(err) <= delta * t_norm(x_star) + 1e-14


def check_forest_oracle(rng):
    n = int(rng.integers(2, 8))
    g = random_connected_gnp(n, 0.4, int(rng.integers(0, 2**31)))
    k = StubbornnessVector.from_values(rng.uniform(0.5, 3.0, size=g.n))
    mapped = forest.MappedDigraph.of(g, k)
    enum = forest.enumerate_forests(mapped)
    ident_plus = np.eye(g.n) + mapped.laplacian()
    det = float(np.linalg.det(ident_plus))
    phi = enum.pair_weights / enum.total_weight
    return (
        abs(enum.total_weight - det) <= 1e-9 * abs(det)
        and np.abs(phi - np.linalg.inv(ident_plus)).max() <= 1e-9
    )


SUITE = [
    ("laplacian annihilates constants", check_laplacian_ones, 20),
    ("incidence composition equals laplacian", check_incidence_composition, 20),
    ("spectrum of L+K inside bounds", check_eigen_bounds, 20),
    ("update matrix row sub-stochastic", check_row_substochastic, 20),
    ("equilibrium is a fixed point", check_fixed_point, 20),
    ("fundamental matrix row-stochastic positive", check_phi_row_stochastic, 20),
    ("weighted opinion sum preserved", check_weighted_sum_preserved, 20),
    ("translation covariance", check_translation_covariance, 20),
    ("spectral radius decreases with stubbornness", check_rho_monotone, 10),
    ("column monotonicity of fundamental matrix", check_column_monotone, 10),
    ("uniform stubbornness conserves total opinion", check_uniform_k_conservation, 20),
    ("geometric decay of scaled error", check_geometric_decay, 5),
    ("conservation law", check_conservation_law, 20),
    ("quadratic forms match defining sums", check_quadratic_forms, 20),
    ("approximate metrics within eps of exact", check_approx_vs_exact, 5),
    ("solver energy-norm contract", check_solver_contract, 20),
    ("forest oracle matches dense inverse", check_forest_oracle, 50),
]


def run_suite(seed=0):
    """Run every property; returns a list of (name, passed, total)."""
    results = []
    for name, check, trials in SUITE:
        rng = _rng(seed)
        passed = sum(bool(check(rng)) for _ in range(trials))
        results.append((name, passed, trials))
    return results
