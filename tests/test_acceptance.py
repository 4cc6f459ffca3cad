"""End-to-end acceptance suite.

Each test covers one contract-level criterion, prints a single PASS/FAIL
line with the measured figure, and enforces the stated tolerance and time
budget.  All randomness is seeded; the suite is deterministic.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

import fjopinion
from fjopinion.dynamics import (
    center_opinions,
    convergence_bound,
    equilibrium,
    fundamental_matrix,
    simulate_until,
    spectral_radius,
)
from fjopinion.forest import MappedDigraph, enumerate_forests
from fjopinion.generate import (
    DISTRIBUTIONS,
    generate_opinions,
    random_connected_gnp,
    random_regular_graph,
)
from fjopinion.graph import (
    StubbornnessVector,
    build_graph,
    operator_matrix,
)
from fjopinion.metrics import approxim, conservation_check, metrics_exact
from fjopinion.solver import energy_norm_certificate, solve


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_instance(rng, n_lo, n_hi, p=None, k_range=(0.5, 3.0)):
    n = int(rng.integers(n_lo, n_hi + 1))
    if p is None:
        p = min(1.0, 4.0 / n)
    g = random_connected_gnp(n, p, int(rng.integers(0, 2**31)))
    k = StubbornnessVector.from_values(rng.uniform(*k_range, size=g.n))
    s = rng.uniform(-1.0, 1.0, size=g.n)
    return g, k, s


def test_approximation_accuracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    rel_errors = []
    for trial in range(20):
        dist = DISTRIBUTIONS[trial % len(DISTRIBUTIONS)]
        n = int(rng.integers(100, 2001))
        g = random_connected_gnp(n, min(1.0, 4.0 / n), int(rng.integers(0, 2**31)))
        k = StubbornnessVector.from_values(rng.uniform(0.5, 3.0, size=g.n))
        s = center_opinions(generate_opinions(g.n, dist, int(rng.integers(0, 2**31))), k)
        exact = metrics_exact(g, k, s)
        approx = approxim(g, k, s, eps=1e-6)
        for a, e in [
            (approx.conflict, exact.conflict),
            (approx.disagreement, exact.disagreement),
            (approx.polarization, exact.polarization),
            (approx.pd_index, exact.pd_index),
        ]:
            rel_errors.append(abs(a - e) / abs(e))
    elapsed = time.perf_counter() - t0
    worst, median = max(rel_errors), float(np.median(rel_errors))
    report(
        "approximation accuracy",
        worst <= 1e-6 and elapsed < 120.0,
        f"max rel err {worst:.3e}, median {median:.3e} over 80 values, {elapsed:.1f}s",
    )


def test_conservation_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        g, k, s = random_instance(rng, 3, 200, p=0.1)
        rpt = metrics_exact(g, k, s)
        _, rel = conservation_check(rpt, k, s)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        "conservation law in exact mode",
        worst <= 1e-10 and elapsed < 10.0,
        f"max rel residual {worst:.3e} over 100 instances, {elapsed:.1f}s",
    )


def test_forest_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    worst_entry, worst_det = 0.0, 0.0
    for _ in range(200):
        g, k, _ = random_instance(rng, 2, 7, p=0.5)
        mapped = MappedDigraph.of(g, k)
        enum = enumerate_forests(mapped)
        ident_plus = np.eye(g.n) + mapped.laplacian()
        det = float(np.linalg.det(ident_plus))
        phi = enum.pair_weights / enum.total_weight
        worst_entry = max(worst_entry, float(np.abs(phi - np.linalg.inv(ident_plus)).max()))
        worst_det = max(worst_det, abs(enum.total_weight - det) / abs(det))
    elapsed = time.perf_counter() - t0
    report(
        "forest enumeration matches dense inverse",
        worst_entry <= 1e-9 and worst_det <= 1e-9 and elapsed < 60.0,
        f"max entry err {worst_entry:.3e}, max det rel err {worst_det:.3e}, {elapsed:.1f}s",
    )


def test_spectral_radius_monotone_in_stubbornness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    smallest_drop = np.inf
    for _ in range(50):
        g, k, _ = random_instance(rng, 3, 40, p=0.25)
        rho = spectral_radius(g, k, tol=1e-12).rho_max
        k2 = k.k.copy()
        k2[int(rng.integers(g.n))] *= 1.5
        rho2 = spectral_radius(g, StubbornnessVector.from_values(k2), tol=1e-12).rho_max
        smallest_drop = min(smallest_drop, rho - rho2)
    elapsed = time.perf_counter() - t0
    report(
        "spectral radius strictly decreases with stubbornness",
        smallest_drop > 1e-9 and elapsed < 30.0,
        f"smallest decrease {smallest_drop:.3e} over 50 graphs, {elapsed:.1f}s",
    )


def test_fundamental_matrix_column_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(113)
    ok_all = True
    for _ in range(50):
        g, k, _ = random_instance(rng, 3, 40, p=0.25)
        phi = fundamental_matrix(g, k)
        v = int(rng.integers(g.n))
        k2 = k.k.copy()
        k2[v] *= 0.5
        diff = fundamental_matrix(g, StubbornnessVector.from_values(k2)) - phi
        ok_all &= bool(np.all(diff[:, v] < -1e-12))
        ok_all &= bool(np.all(np.delete(diff, v, axis=1) > 1e-12))
    elapsed = time.perf_counter() - t0
    report(
        "halving one node's stubbornness moves its influence column",
        ok_all and elapsed < 30.0,
        f"sign pattern exact beyond 1e-12 on 50 graphs, {elapsed:.1f}s",
    )


def test_convergence_bound_and_geometric_decay():
    t0 = time.perf_counter()
    rng = np.random.default_rng(127)
    worst_slack, decay_ok = np.inf, True
    for _ in range(50):
        g, k, s = random_instance(rng, 3, 30, p=0.3)
        rho = spectral_radius(g, k, tol=1e-12)
        for eps in (1e-4, 1e-8):
            state, trace = simulate_until(g, k, s, z0=np.zeros(g.n), eps=eps)
            bound = convergence_bound(rho, trace.f_norms[0], eps)
            worst_slack = min(worst_slack, bound - state.t)
            decay_ok &= all(
                trace.f_norms[t + 1] <= rho.rho_max * trace.f_norms[t] + 1e-9
                for t in range(len(trace.f_norms) - 1)
            )
    elapsed = time.perf_counter() - t0
    report(
        "simulation stops within the spectral bound, decaying geometrically",
        worst_slack >= 0 and decay_ok and elapsed < 60.0,
        f"min bound slack {worst_slack} steps, decay holds, {elapsed:.1f}s",
    )


def test_equilibrium_invariances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(131)
    worst = 0.0
    for _ in range(100):
        g, k, s = random_instance(rng, 3, 60, p=0.2)
        # weighted-sum preservation on centered opinions
        s0 = center_opinions(s, k)
        z0 = equilibrium(g, k, s0)
        worst = max(worst, abs(float(k.k @ z0)) / (g.n * k.k_max))
        # translation covariance
        c = float(rng.uniform(-2.0, 2.0))
        z = equilibrium(g, k, s)
        worst = max(worst, float(np.abs(equilibrium(g, k, s + c) - (z + c)).max()))
        # uniform stubbornness conserves the plain total
        ku = StubbornnessVector.uniform(g.n, float(rng.uniform(0.3, 3.0)))
        zu = equilibrium(g, ku, s)
        worst = max(worst, abs(zu.sum() - s.sum()) / max(1.0, abs(s.sum())))
    elapsed = time.perf_counter() - t0
    report(
        "weighted-sum preservation, translation covariance, uniform conservation",
        worst <= 1e-9 and elapsed < 10.0,
        f"max deviation {worst:.3e} over 100 instances, {elapsed:.1f}s",
    )


def test_hand_verified_fixtures():
    g = build_graph([(0, 1, 1.0)])
    s = np.array([1.0, -1.0])
    k11 = StubbornnessVector.uniform(2, 1.0)
    k21 = StubbornnessVector.from_values([2.0, 1.0])
    checks = [
        np.abs(equilibrium(g, k11, s) - [1.0 / 3.0, -1.0 / 3.0]).max(),
        np.abs(equilibrium(g, k21, s) - [3.0 / 5.0, -1.0 / 5.0]).max(),
        np.abs(fundamental_matrix(g, k21) - [[0.8, 0.2], [0.4, 0.6]]).max(),
    ]
    rpt = metrics_exact(g, k21, s)
    checks += [
        abs(rpt.conflict - 24.0 / 25.0),
        abs(rpt.disagreement - 16.0 / 25.0),
        abs(rpt.polarization - 19.0 / 25.0),
        abs(rpt.pd_index - 7.0 / 5.0),
    ]
    worst = max(float(c) for c in checks)
    report("hand-verified two-node fixtures", worst <= 1e-12, f"max abs error {worst:.3e}")


# Times approxim in CPU seconds of a child process whose BLAS runs on one
# thread: wall time swings with the load other processes put on the host, and
# a threaded BLAS adds its workers' time, spinning included, to process time.
# The child also pins itself to one CPU where it can, so that no pass over
# the adjacency splits onto a worker thread (the top rung's 2e6 entries lie
# above graph.SPLIT_ENTRIES) whose time process time would add too, and it
# takes the least of seven calls at every rung.
SCALING_PROBE = """
import json, os, sys, time
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from fjopinion.generate import generate_opinions, random_regular_graph
from fjopinion.graph import StubbornnessVector
from fjopinion.metrics import approxim
ms, times = [], []
for n in json.loads(sys.argv[1]):
    g = random_regular_graph(n, 4, seed=17)
    rng = np.random.default_rng(n)
    k = StubbornnessVector.from_values(rng.uniform(0.5, 2.0, size=g.n))
    s = generate_opinions(g.n, "uniform", n + 1)
    best = float("inf")
    for _ in range(7):
        t = time.process_time()
        approxim(g, k, s, eps=1e-6)
        best = min(best, time.process_time() - t)
    ms.append(g.m)
    times.append(best)
print(json.dumps([ms, times]))
"""


def test_scalability_of_approximate_path():
    t0 = time.perf_counter()
    sizes = [5_000, 15_000, 50_000, 150_000, 500_000]
    path = [os.path.dirname(os.path.dirname(fjopinion.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", SCALING_PROBE, json.dumps(sizes)], env=env,
                         capture_output=True, text=True, check=True).stdout
    ms, times = json.loads(out)
    slope = float(np.polyfit(np.log(ms), np.log(times), 1)[0])
    big, kbig = random_regular_graph(20_000, 4, seed=18), StubbornnessVector.uniform(20_000, 1.0)
    exact = metrics_exact(big, kbig, generate_opinions(big.n, "uniform", 19))
    elapsed = time.perf_counter() - t0
    report(
        "approximate path scales near-linearly, exact certifies above its cap",
        slope <= 1.3 and exact.certified and elapsed < 900.0,
        f"log-log slope {slope:.3f} over m in [{ms[0]}, {ms[-1]}], {elapsed:.1f}s",
    )


def test_solver_energy_norm_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(137)
    worst_ratio = 0.0
    for _ in range(100):
        g, k, _ = random_instance(rng, 3, 500, p=None)
        t = operator_matrix(g, k)
        b = rng.standard_normal(g.n)
        delta = float(10.0 ** rng.uniform(-8, -2))
        res = solve(g, k, b, energy_norm_certificate(b, delta))
        assert res.certified
        err = res.y - np.linalg.solve(t.toarray(), b)
        x_star = np.linalg.solve(t.toarray(), b)
        t_norm = lambda v: np.sqrt(float(v @ (t @ v)))
        worst_ratio = max(worst_ratio, t_norm(err) / (delta * t_norm(x_star)))
    elapsed = time.perf_counter() - t0
    report(
        "certified solves meet the energy-norm tolerance",
        worst_ratio <= 1.0 + 1e-12 and elapsed < 60.0,
        f"worst ||err||_T / (delta ||x*||_T) = {worst_ratio:.3e}, {elapsed:.1f}s",
    )
