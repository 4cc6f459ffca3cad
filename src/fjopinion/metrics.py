"""Conflict, disagreement, and polarization metrics: exact and approximate.

Both modes run one pipeline: center the opinions, solve for the centered
equilibrium (a direct sparse solve in exact mode, one PCG solve in
approximate mode that stops once an a-posteriori certificate proves every
metric to the requested relative eps), read the four metrics of the
opinions as given off that one vector, and build one report.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from fjopinion.errors import GraphInputError, NumericalError, SizeGuardError
from fjopinion.dynamics import DENSE_CAP, equilibrium
from fjopinion.graph import Graph, StubbornnessVector, eigen_bounds, operator_matrix
from fjopinion.solver import Certificate, solve

# Edges per slice when summing the disagreement, so that no edge-sized
# temporary is allocated next to the solver's vectors.
EDGE_CHUNK = 1 << 14


@dataclass(frozen=True)
class MetricsReport:
    """All four metrics plus provenance of how they were computed.

    The metrics are those of the opinion vector as given, in both modes.
    ``centered`` is always False; it is kept so that reports keep their keys.
    ``error_bound`` is what the approximate solve proved: each of the four
    metrics is off by at most that fraction of its value, and the
    conservation law by at most that fraction of sum k_i s_i^2 (0.0 in
    exact mode).  ``stop_reason`` says why the iterative solve stopped (""
    when none ran): "stagnated" when the true residual stopped shrinking
    before eps could be proved, in which case ``error_bound`` is still the
    bound proved for the last iterate; see ``solver.SolverResult``.
    """

    conflict: float
    disagreement: float
    polarization: float
    pd_index: float
    sum_z: float
    weighted_sum_z: float
    mode: str
    delta_used: float
    eps_requested: float
    conservation_residual: float
    certified: bool = True
    centered: bool = False
    graph_fingerprint: str = ""
    n: int = 0
    m: int = 0
    solver_iterations: int = 0
    error_bound: float = 0.0
    stop_reason: str = ""
    solve_seconds: float = 0.0
    norms_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Flat key-value document, one key per line, for machine diffing."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        return cls(**json.loads(text))


@dataclass(frozen=True)
class DeltaBudget:
    """The paper's a-priori per-metric solver tolerances and their minimum.

    delta1 certifies the polarization norm, delta2 the disagreement norm,
    delta3 the conflict norm; the listing of the approximation algorithm
    sets delta = delta3.  ``approxim`` reports the minimum as ``delta_used``
    for provenance; its solve stops on the a-posteriori certificate instead,
    because the minimum sits far below double precision for n >= 1e4.
    """

    delta1: float
    delta2: float
    delta3: float

    @property
    def delta(self) -> float:
        return min(self.delta1, self.delta2, self.delta3)


def delta_budget(g: Graph, k: StubbornnessVector, s: np.ndarray, eps: float) -> DeltaBudget:
    """Solve-tolerance thresholds guaranteeing eps-approximation of each metric.

    Requires eps in (0, 1/2) and a nonzero opinion vector.  The thresholds
    assume the weighted sum k.s vanishes; ``approxim`` meets that by passing
    the centered s0 = s - (k.s)/sum(k), whose equilibrium differs from that
    of s by exactly that constant.  A graph with no edges has C = D = 0 for
    every solve, so delta2 and delta3 do not apply there and are inf.
    """
    if not (0.0 < eps < 0.5):
        raise GraphInputError(f"eps must be in (0, 1/2), got {eps}")
    s = np.asarray(s, dtype=np.float64)
    s_norm = float(np.linalg.norm(s))
    if s_norm == 0.0:
        raise GraphInputError("opinion vector is zero; all metrics are trivially 0")
    n = float(g.n)
    w_min, w_max = g.w_min, g.w_max
    k_min, k_max = k.k_min, k.k_max
    cap = eigen_bounds(g, k).coarse_upper  # k_max + n w_max

    delta1 = eps / (3.0 * math.sqrt(cap / (k_min * k_max)))
    if g.m == 0:
        return DeltaBudget(delta1=delta1, delta2=math.inf, delta3=math.inf)
    delta2 = eps * k_min * s_norm / (3.0 * n * cap) * math.sqrt(w_min / (n * cap))
    delta3 = (
        eps
        * w_min
        * k_min
        * math.sqrt(k_min)
        * s_norm
        / (3.0 * w_max * n**3 * cap * math.sqrt(n * k_max * cap))
    )
    return DeltaBudget(delta1=delta1, delta2=delta2, delta3=delta3)


def conservation_residual_of(conflict, disagreement, polarization, k, s):
    """|C + 2D + P - sum k_i s_i^2|; the law holds for arbitrary s."""
    budget = float(k.k @ np.asarray(s, dtype=np.float64) ** 2)
    return abs(conflict + 2.0 * disagreement + polarization - budget), budget


def _disagreement(g, q):
    """D = sum_e w_e (q_u - q_v)^2, summed over slices of the edge arrays."""
    total = 0.0
    for lo in range(0, g.m, EDGE_CHUNK):
        hi = lo + EDGE_CHUNK
        dq = q[g.edge_u[lo:hi]] - q[g.edge_v[lo:hi]]
        total += float(g.edge_w[lo:hi] @ (dq * dq))
    return total


def _norms(g, k, s0, q):
    """C = k.(q - s0)^2, D and k.q^2 of a centered solve q.

    Without edges L = 0, so q = s0 and C = D = 0 exactly; the computed C
    would only hold the solve's rounding residue.
    """
    sq = q * q
    p0 = float(k.k @ sq)
    if g.m == 0:
        return 0.0, 0.0, p0
    np.subtract(q, s0, out=sq)
    sq *= sq
    return float(k.k @ sq), _disagreement(g, q), p0


def _relative_bound(value, shift, rho):
    """Proved relative error of value + shift when sqrt(value) is off by <= rho.

    For M = value + shift: |M~ - M| <= (2 sqrt(value) + rho) rho and
    M >= max(sqrt(value) - rho, 0)^2 + shift.
    """
    err = (2.0 * math.sqrt(value) + rho) * rho
    if err == 0.0:
        return 0.0
    low = max(math.sqrt(value) - rho, 0.0) ** 2 + shift
    return err / low if low > 0.0 else math.inf


def _metrics_certificate(g, k, s0, b, shift, eps):
    """Certify C, D, P and P + D of a solve of (L+K) q = b = K s0 to relative eps.

    With rho = ||K^{-1/2} r|| the error e = q - q~ has ||e||_{L+K} <= rho, and
    ||e||_{L+K}^2 = ||K^{1/2} e||^2 + ||L^{1/2} e||^2, so sqrt(C), sqrt(D),
    sqrt(k.q^2) and sqrt(k.q^2 + D) = ||q||_{L+K} are each off by at most
    rho; P and P + D also hold the exact shift = c^2 sum(k).  The law
    C + 2D + P = sum k_i s_i^2 is off by exactly 2|q~.r|, which is checked
    against eps times that sum as well.
    """
    budget = float(s0 @ b) + shift  # sum k_i s_i^2 of s as given, as k.s0 = 0

    def bound(q, r, rho):
        conflict, disagreement, p0 = _norms(g, k, s0, q)
        rho_cd = rho if g.m else 0.0  # no edges: C = D = 0 whatever q is
        return max(
            _relative_bound(conflict, 0.0, rho_cd),
            _relative_bound(disagreement, 0.0, rho_cd),
            _relative_bound(p0, shift, rho),
            _relative_bound(p0 + disagreement, shift, rho),
            2.0 * abs(float(q @ r)) / budget,
        )

    return Certificate(target=eps, bound=bound)


def _pipeline(g, k, s, mode, eps, solve_centered):
    """Center, solve, take the norms, report: the one path of both modes.

    With c = (k.s) / sum(k) and s0 = s - c, the equilibrium of s is exactly
    q + c for q = (L+K)^{-1} K s0, because 1^T (L+K) = 1^T K; the same
    identity gives k.q = k.s0 = 0.  So every metric of s as given is read
    off q: C = k.(q - s0)^2, D on the edge arrays, P = k.q^2 + c^2 sum(k).
    Taking P in that form keeps the 2c k.q term, zero at the solution, out
    of an approximate q's error, so a bound on sqrt(k.q^2) covers P too.
    ``solve_centered(s0, shift)`` with shift = c^2 sum(k) returns q and the
    report's solve provenance; it is not called when s0 = 0.  Returns the
    report and z = q + c.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (g.n,):
        raise GraphInputError("opinion vector length does not match graph")
    if len(k) != g.n:
        raise GraphInputError("stubbornness length does not match graph")
    k_sum = float(k.k.sum())
    c = float(k.k @ s) / k_sum
    shift = c * c * k_sum
    s0 = s - c
    # Centering a (numerically) constant vector leaves only rounding
    # residue; treat it as exactly zero.
    if float(np.abs(s0).max(initial=0.0)) <= 1e-14 * float(np.abs(s).max(initial=0.0)):
        s0 = np.zeros(g.n)

    t0 = time.perf_counter()
    if s0.any():
        q, provenance = solve_centered(s0, shift)
    else:
        q, provenance = np.zeros(g.n), {"delta_used": 0.0}
    t1 = time.perf_counter()

    conflict, disagreement, p0 = _norms(g, k, s0, q)
    polarization = p0 + shift
    z = q + c
    residual, _ = conservation_residual_of(conflict, disagreement, polarization, k, s)
    t2 = time.perf_counter()

    report = MetricsReport(
        conflict=conflict,
        disagreement=disagreement,
        polarization=polarization,
        pd_index=polarization + disagreement,
        sum_z=float(z.sum()),
        weighted_sum_z=float(k.k @ z),
        mode=mode,
        eps_requested=eps,
        conservation_residual=residual,
        graph_fingerprint=g.fingerprint(),
        n=g.n,
        m=g.m,
        solve_seconds=t1 - t0,
        norms_seconds=t2 - t1,
        **provenance,
    )
    return report, z


def metrics_exact(g: Graph, k: StubbornnessVector, s: np.ndarray) -> MetricsReport:
    """Exact metrics from a direct sparse solve; refused above ``DENSE_CAP`` nodes."""
    if g.n > DENSE_CAP:
        raise SizeGuardError(f"exact metrics refused: n={g.n} exceeds cap {DENSE_CAP}")
    report, z = _pipeline(
        g, k, s, "exact", 0.0, lambda s0, _: (equilibrium(g, k, s0), {"delta_used": 0.0})
    )

    # Identity I_pd = sum k_i s_i z_i, a free cross-check of the solve.
    pd_identity = float(k.k @ (np.asarray(s, dtype=np.float64) * z))
    scale = max(abs(report.pd_index), abs(pd_identity), 1e-30)
    if abs(report.pd_index - pd_identity) > 1e-9 * scale:
        raise NumericalError(
            f"pd-index cross-check failed: {report.pd_index!r} vs {pd_identity!r}"
        )
    return report


def approxim(g: Graph, k: StubbornnessVector, s: np.ndarray, eps: float) -> MetricsReport:
    """Approximate all four metrics from one certified solve.

    One PCG solve of (L+K) q = K s0 for the weighted-centered s0 = s - c
    gives the equilibrium of s as given as q + c, so the metrics are those
    of s itself, as in exact mode.  The solve stops as soon as its residual
    proves each metric's relative error, and the conservation law's, to be
    at most eps; the report's ``error_bound`` is that proved bound.  A solve
    whose true residual stagnates first is reported with ``certified=False``
    and the values of its last iterate, near the best attainable in double
    precision.  ``delta_used`` is the paper's a-priori tolerance, reported
    as provenance.
    """
    if not (0.0 < eps < 0.5):
        raise GraphInputError(f"eps must be in (0, 1/2), got {eps}")

    def solve_pcg(s0, shift):
        b = k.k * s0
        res = solve(operator_matrix(g, k), b, k, _metrics_certificate(g, k, s0, b, shift, eps))
        return res.y, {
            "delta_used": delta_budget(g, k, s0, eps).delta,
            "certified": res.certified,
            "solver_iterations": res.iterations,
            "error_bound": res.bound,
            "stop_reason": res.stop_reason,
        }

    return _pipeline(g, k, s, "approx", eps, solve_pcg)[0]


def conservation_check(report: MetricsReport, k: StubbornnessVector, s) -> tuple[float, float]:
    """Absolute and relative residual of C + 2D + P = sum k_i s_i^2."""
    residual, budget = conservation_residual_of(
        report.conflict, report.disagreement, report.polarization, k, s
    )
    relative = residual / budget if budget > 0.0 else 0.0
    return residual, relative
