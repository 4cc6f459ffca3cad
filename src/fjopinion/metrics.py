"""Conflict, disagreement, and polarization metrics: exact and approximate.

Both modes run one pipeline: center the opinions, solve for the centered
equilibrium by ``solver.solve``, prove each metric's relative error from
that solve's true residual with one a-posteriori certificate, read the four
metrics of the opinions as given off that one vector, and build one report.
The modes differ only in the accuracy proved: approximate mode the
requested eps, exact mode ``EQUILIBRIUM_DELTA`` (1e-12).  The proof holds
in floating point: the residual's rounding is counted, and where a double
residual cannot prove the target, ``solve`` refines the solution on
residuals formed in long double.  A system with no edges, or with zero
centered opinions, needs no solve: its centered equilibrium is the centered
opinions themselves, and it is reported in closed form.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from fjopinion.errors import GraphInputError, NumericalError
from fjopinion.dynamics import EQUILIBRIUM_DELTA, _center, _opinions
from fjopinion.graph import Graph, StubbornnessVector, _disagreement, eigen_bounds
from fjopinion.solver import Certificate, solve


@dataclass(frozen=True)
class MetricsReport:
    """All four metrics plus provenance of how they were computed.

    The metrics are those of the opinion vector as given, in both modes.
    ``centered`` is always False; it is kept so that reports keep their keys.
    ``error_bound`` is what the solve proved on its true residual, in both
    modes: each of the four metrics is off by at most that fraction of its
    value, and the conservation law by at most that fraction of
    sum k_i s_i^2.  ``certified`` means ``error_bound <= eps_requested``.
    ``stop_reason`` says why the solve stopped: "certified", a forest's
    factor solution included; "stagnated" when neither the first solve nor
    the refinement sweeps after it could shrink the proved residual enough
    to prove eps (see ``solver.SolverResult``); "" where no solve ran.
    ``solver_iterations`` counts the PCG steps of the first solve and of
    every sweep's correction (0 on a forest).  A system with no edges, or
    with zero centered opinions, has the centered opinions as its
    equilibrium and is reported in closed form with no solve: 0 iterations,
    ``error_bound`` 0.0 and ``stop_reason`` "".
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
    sets delta = delta3.  Both modes report the minimum as ``delta_used``
    for provenance; their solves are judged by the a-posteriori certificate
    instead, because the minimum sits far below double precision for
    n >= 1e4.
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
    assume the weighted sum k.s vanishes; the metrics pipeline meets that by
    passing the centered s0 = s - (k.s)/sum(k), whose equilibrium differs
    from that of s by exactly that constant.  A graph with no edges has C = D = 0 for
    every solve, so delta2 and delta3 do not apply there and are inf.
    """
    if not (0.0 < eps < 0.5):
        raise GraphInputError(f"eps must be in (0, 1/2), got {eps}")
    s_norm = float(np.linalg.norm(_opinions(g, k, s)))
    if s_norm == 0.0:
        raise GraphInputError("opinion vector is zero; all metrics are trivially 0")
    n = float(g.n)
    w_min, w_max = g.w_min, g.w_max
    k_min, k_max = k.k_min, k.k_max
    cap = eigen_bounds(g, k).coarse_upper  # k_max + n w_max

    # sqrt(k_min k_max / cap) as two factors: k_min k_max underflows near the floor.
    delta1 = eps * math.sqrt(k_min) * math.sqrt(k_max / cap) / 3.0
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
    s = np.asarray(s, dtype=np.float64)
    if s.shape != k.k.shape:
        raise GraphInputError("opinion vector length does not match stubbornness")
    budget = float(k.k @ s**2)
    return abs(conflict + 2.0 * disagreement + polarization - budget), budget


def _pointwise(k, s0, q):
    """C = k.(q - s0)^2 and k.q^2, the two norms that need no edge."""
    sq = q * q
    p0 = float(k.k @ sq)
    np.subtract(q, s0, out=sq)
    sq *= sq
    return float(k.k @ sq), p0


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
    """Certify C, D, P and P + D of a solve of (L+K) q = b = K s0 to relative
    eps, on a graph with edges.

    With rho = ||K^{-1/2} r|| the error e = q - q~ has ||e||_{L+K} <= rho, and
    ||e||_{L+K}^2 = ||K^{1/2} e||^2 + ||L^{1/2} e||^2, so sqrt(C), sqrt(D),
    sqrt(k.q^2) and sqrt(k.q^2 + D) = ||q||_{L+K} are each off by at most
    rho; P and P + D also hold the exact shift = c^2 sum(k).  For any q and
    its exact residual r, C + 2D + k.q^2 = s0.b - 2 q.r, so the law
    C + 2D + P = sum k_i s_i^2 is off by exactly 2|q.r|; ``bound`` takes
    that gap from the norms themselves, which no rounding of r enters, and
    checks it against eps times that sum as well.

    The estimate is the same bound in O(n), with no pass over the edges: the
    identity gives D from C, k.q^2 and q.r.  Fed PCG's recurrence residual,
    it is only a guess.

    Returns the ``Certificate`` and ``norms_of(q)``: the (C, D, k.q^2) that
    ``bound`` took of q if q is the iterate it judged last, else None, so
    that the report need not take them again.
    """
    s0_b = float(s0 @ b)
    budget = s0_b + shift  # sum k_i s_i^2 of s as given, as k.s0 = 0
    judged = []

    def worst(conflict, disagreement, p0, law, rho):
        return max(
            _relative_bound(conflict, 0.0, rho),
            _relative_bound(disagreement, 0.0, rho),
            _relative_bound(p0, shift, rho),
            _relative_bound(p0 + disagreement, shift, rho),
            law / budget if law else 0.0,  # the law holds exactly, also where budget = 0
        )

    def bound(q, r, rho):
        conflict, p0 = _pointwise(k, s0, q)
        disagreement = _disagreement(g, q)
        judged[:] = q, (conflict, disagreement, p0)
        return worst(conflict, disagreement, p0, abs(conflict + 2.0 * disagreement + p0 - s0_b),
                     rho)

    def estimate(q, r, rho):
        conflict, p0 = _pointwise(k, s0, q)
        qr = float(q @ r)
        disagreement = max(0.5 * (s0_b - 2.0 * qr - conflict - p0), 0.0)
        return worst(conflict, disagreement, p0, 2.0 * abs(qr), rho)

    def norms_of(q):
        return judged[1] if judged and judged[0] is q else None

    return Certificate(target=eps, bound=bound, estimate=estimate), norms_of


def _pipeline(g, k, s, mode, eps):
    """Center, solve, certify, take the norms, report: the one path of both modes.

    With c = (k.s) / sum(k) and s0 = s - c, the equilibrium of s is exactly
    q + c for q = (L+K)^{-1} K s0, because 1^T (L+K) = 1^T K; the same
    identity gives k.q = k.s0 = 0.  So every metric of s as given is read
    off q: C = k.(q - s0)^2, D on the edge arrays, P = k.q^2 + c^2 sum(k).
    Taking P in that form keeps the 2c k.q term, zero at the solution, out
    of an approximate q's error, so a bound on sqrt(k.q^2) covers P too.
    q comes from ``solve`` under that certificate, judged on its
    true residual; every solve ends on a check of the q it returns, so the
    report takes C, D and k.q^2 from that check.  Where L s0 = 0 (no edges,
    or s0 = 0) q = s0 exactly, so C = D = 0 and k.q^2 = k.s0^2, reported
    with no solve: 0 iterations and ``error_bound`` 0.  ``mode`` only labels
    the report.  Returns the report and z = q + c.
    """
    if not (0.0 < eps < 0.5):
        raise GraphInputError(f"eps must be in (0, 1/2), got {eps}")
    s = _opinions(g, k, s)
    s0, c = _center(s, k)
    shift = c * c * float(k.k.sum())
    # Centering a (numerically) constant vector leaves only rounding
    # residue; treat it as exactly zero.
    if float(np.abs(s0).max(initial=0.0)) <= 1e-14 * float(np.abs(s).max(initial=0.0)):
        s0 = np.zeros(g.n)

    t0 = time.perf_counter()
    nonzero = bool(s0.any())
    # delta_budget raises first where ||s0|| underflows to 0.
    provenance = {"delta_used": delta_budget(g, k, s0, eps).delta if nonzero else 0.0}
    if g.m and nonzero:
        b = k.k * s0
        certificate, norms_of = _metrics_certificate(g, k, s0, b, shift, eps)
        res = solve(g, k, b, certificate)
        q, norms = res.y, norms_of(res.y)
        provenance.update(certified=res.certified, solver_iterations=res.iterations,
                          error_bound=res.bound, stop_reason=res.stop_reason)
    else:  # L s0 = 0, so q = s0 exactly and C = D = 0: no solve
        q, norms = s0, (0.0, 0.0, float(k.k @ (s0 * s0)))
    t1 = time.perf_counter()

    conflict, disagreement, p0 = norms
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
    """All four metrics proved to relative ``EQUILIBRIUM_DELTA``, at any n.

    ``solver.solve``: certified PCG, or the sparse factor of L + K on a
    forest, refined on long-double residuals where that misses 1e-12.  A
    solve whose bound still misses it is reported ``certified=False``.  At
    uniform k = 1e-8 on ``random_regular_graph(3000, 4, 1)`` with powerlaw
    opinions (seed 3) the bound is 3.6e-12, disagreement's first-order term
    2 rho / sqrt(D) with rho = 2.9e-20: sqrt(D) = 1.6e-8 shrinks like k as
    the equilibrium nears consensus.  Rounding the solution to double adds
    only 1.7e-24 to rho.
    """
    report, z = _pipeline(g, k, s, "exact", EQUILIBRIUM_DELTA)

    # Identity I_pd = sum k_i s_i z_i, a free cross-check of the solve.
    pd_identity = float(k.k @ (np.asarray(s, dtype=np.float64) * z))
    scale = max(abs(report.pd_index), abs(pd_identity), 1e-30)
    if abs(report.pd_index - pd_identity) > 1e-9 * scale:
        raise NumericalError(
            f"pd-index cross-check failed: {report.pd_index!r} vs {pd_identity!r}"
        )
    return report


def approxim(g: Graph, k: StubbornnessVector, s: np.ndarray, eps: float) -> MetricsReport:
    """All four metrics proved to relative eps by one call of ``solver.solve``.

    That is certified PCG, or the sparse factor of L + K on a forest, with
    refinement sweeps on long-double residuals where the first solve
    misses eps, at any n.  A solve whose bound still misses eps is reported
    ``certified=False``, with values near the best attainable in double
    precision.
    """
    return _pipeline(g, k, s, "approx", eps)[0]


def conservation_check(report: MetricsReport, k: StubbornnessVector, s) -> tuple[float, float]:
    """Absolute and relative residual of C + 2D + P = sum k_i s_i^2."""
    residual, budget = conservation_residual_of(
        report.conflict, report.disagreement, report.polarization, k, s
    )
    relative = residual / budget if budget > 0.0 else 0.0
    return residual, relative
