"""The update rule with heterogeneous stubbornness and its analysis tools.

Covers the synchronous update z(t+1) = QAz(t) + QKs, equilibrium
computation z = (L+K)^{-1} K s, the fundamental matrix, weighted centering,
spectral-radius estimation for the iteration matrix QA, the convergence-time
bound, and error-trace simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fjopinion.errors import GraphInputError, NumericalError, SizeGuardError
from fjopinion.graph import Graph, StubbornnessVector, operator_matrix
from fjopinion.solver import energy_norm_certificate, solve

DENSE_CAP = 10_000
POWER_ITERATION_CAP = 100_000
SIMULATION_CAP = 1_000_000


@dataclass(frozen=True)
class OpinionState:
    """Innate vector s (fixed) and expressed vector z at step t."""

    s: np.ndarray
    z: np.ndarray
    t: int = 0

    def __post_init__(self):
        if self.s.shape != self.z.shape or self.s.ndim != 1:
            raise GraphInputError("innate and expressed vectors must be 1-d and equal length")


@dataclass(frozen=True)
class SpectralEstimate:
    """Estimated spectral radius of QA with iteration diagnostics."""

    rho_max: float
    iterations: int
    residual: float
    converged: bool


@dataclass
class ErrorTrace:
    """Per-step norms of e(t) = z(t) - z* and f(t) with f_i = e_i sqrt(k_i + d_i)."""

    e_norms: list = field(default_factory=list)
    f_norms: list = field(default_factory=list)
    bound: int = 0  # the convergence-time bound checked, 0 when no check ran

    def record(self, e_norm: float, f_norm: float):
        self.e_norms.append(float(e_norm))
        self.f_norms.append(float(f_norm))


def _scaling(g: Graph, k: StubbornnessVector) -> np.ndarray:
    """q_i = 1 / (k_i + d_i), the diagonal scaling of the update rule."""
    if len(k) != g.n:
        raise GraphInputError("stubbornness length does not match graph")
    return 1.0 / (k.k + g.degrees)


def step(g: Graph, k: StubbornnessVector, state: OpinionState) -> OpinionState:
    """One synchronous update of all nodes.

    z_i(t+1) = (k_i s_i + sum_j w_ij z_j(t)) / (k_i + d_i), which is the
    componentwise form of QAz(t) + QKs.
    """
    if state.s.size != g.n:
        raise GraphInputError("state dimensions do not match graph")
    q = _scaling(g, k)
    z_new = q * (g.adjacency @ state.z) + q * (k.k * state.s)
    return OpinionState(s=state.s, z=z_new, t=state.t + 1)


def equilibrium(
    g: Graph,
    k: StubbornnessVector,
    s: np.ndarray,
    mode: str = "exact",
    delta: float = 1e-10,
    cap: int = DENSE_CAP,
) -> np.ndarray:
    """Equilibrium expressed opinions z = (L+K)^{-1} K s.

    Exact mode uses a direct sparse factorization of L + K and is refused
    above ``cap`` nodes.  Iterative mode delegates to the PCG solver with
    right-hand side Ks, which stops once it proves a relative energy-norm
    error of at most ``delta``; ``delta`` must lie in (0, 1).
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (g.n,):
        raise GraphInputError("opinion vector length does not match graph")
    t = operator_matrix(g, k)
    if mode == "exact":
        if g.n > cap:
            raise SizeGuardError(f"exact mode refused: n={g.n} exceeds cap {cap}")
        # L + K is symmetric: order on its own pattern, not on T^T T.
        return spla.spsolve(t.tocsc(), k.k * s, permc_spec="MMD_AT_PLUS_A")
    if mode != "iterative":
        raise GraphInputError(f"unknown mode {mode!r}")
    if not (delta > 0.0):
        raise GraphInputError("delta must be > 0 for iterative mode")
    b = k.k * s
    res = solve(t, b, k, energy_norm_certificate(b, delta))
    if not res.certified:
        raise NumericalError(
            f"solver did not certify delta={delta}: {res.stop_reason} after "
            f"{res.iterations} iterations with proved relative error {res.bound:.3e}"
        )
    return res.y


def fundamental_matrix(g: Graph, k: StubbornnessVector, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense fundamental matrix (L+K)^{-1} K: row-stochastic, positive for connected graphs."""
    if g.n > cap:
        raise SizeGuardError(f"dense fundamental matrix refused: n={g.n} exceeds cap {cap}")
    t = operator_matrix(g, k).toarray()
    return np.linalg.solve(t, np.diag(k.k))


def center_opinions(s: np.ndarray, k: StubbornnessVector) -> np.ndarray:
    """Shift s by (1^T K s) / (1^T K 1) so the weighted sum 1^T K s vanishes."""
    s = np.asarray(s, dtype=np.float64)
    return s - float(k.k @ s) / float(k.k.sum())


def spectral_radius(g: Graph, k: StubbornnessVector, tol: float = 1e-10) -> SpectralEstimate:
    """Estimate the spectral radius of QA by power iteration.

    Runs on the symmetric similarity Q^{1/2} A Q^{1/2} (same spectrum),
    shifted by +I so the dominant eigenvalue is simple-signed even on
    bipartite graphs.  The symmetric residual bound certifies
    |estimate - rho_max| <= residual.
    """
    q = _scaling(g, k)
    if g.m == 0:
        return SpectralEstimate(rho_max=0.0, iterations=0, residual=0.0, converged=True)
    scale = sp.diags(np.sqrt(q))
    sym = (scale @ g.adjacency @ scale).tocsr()

    x = np.full(g.n, 1.0 / math.sqrt(g.n))
    mu = 0.0
    residual = math.inf
    iters = 0
    while iters < POWER_ITERATION_CAP:
        y = sym @ x + x  # (S + I) x
        mu = float(x @ y)
        residual = float(np.linalg.norm(y - mu * x))
        if residual <= tol:
            break
        x = y / np.linalg.norm(y)
        iters += 1

    rho = mu - 1.0
    converged = residual <= tol
    return SpectralEstimate(
        rho_max=rho, iterations=iters, residual=residual, converged=converged
    )


def convergence_bound(rho: SpectralEstimate | float, f0_norm: float, eps: float) -> int:
    """Upper bound on the convergence time: ceil((ln eps - ln |f(0)|) / ln rho)."""
    rho_val = rho.rho_max if isinstance(rho, SpectralEstimate) else float(rho)
    if not (0.0 < rho_val < 1.0):
        raise GraphInputError(f"rho must be in (0, 1), got {rho_val}")
    if eps <= 0.0:
        raise GraphInputError("eps must be > 0")
    if eps >= f0_norm:
        return 0
    return math.ceil((math.log(eps) - math.log(f0_norm)) / math.log(rho_val))


def simulate_until(
    g: Graph,
    k: StubbornnessVector,
    s: np.ndarray,
    z0: np.ndarray,
    eps: float,
) -> tuple[OpinionState, ErrorTrace]:
    """Iterate the update until |f(t)| <= eps, recording the error trace.

    f is the scaled error f_i(t) = e_i(t) sqrt(k_i + d_i) whose norm decays
    geometrically with ratio rho_max.  The observed stop time is checked
    against the convergence-time bound, which the trace keeps as ``bound``;
    it takes rho_max from ``spectral_radius`` when that converged, and the
    proved row-sum bound max_i d_i / (k_i + d_i) when it did not.
    """
    if eps <= 0.0:
        raise GraphInputError("eps must be > 0")
    s = np.asarray(s, dtype=np.float64)
    z0 = np.asarray(z0, dtype=np.float64)
    z_star = equilibrium(g, k, s, mode="exact" if g.n <= DENSE_CAP else "iterative", delta=1e-12)
    weight = np.sqrt(k.k + g.degrees)

    trace = ErrorTrace()
    state = OpinionState(s=s, z=z0, t=0)
    e = state.z - z_star
    f_norm = float(np.linalg.norm(weight * e))
    trace.record(np.linalg.norm(e), f_norm)
    f0_norm = f_norm

    while f_norm > eps:
        if state.t >= SIMULATION_CAP:
            raise NumericalError(
                f"simulation did not reach eps={eps} within {SIMULATION_CAP} steps"
            )
        state = step(g, k, state)
        e = state.z - z_star
        f_norm = float(np.linalg.norm(weight * e))
        trace.record(np.linalg.norm(e), f_norm)

    if g.m >= 1 and f0_norm > eps:
        est = spectral_radius(g, k)
        # Power iteration approaches rho from below; unconverged, its value
        # is no bound.  The row sums of QA, d_i / (k_i + d_i), bound rho.
        rho = est.rho_max if est.converged else float((g.degrees * _scaling(g, k)).max())
        trace.bound = convergence_bound(rho, f0_norm, eps)
        if state.t > trace.bound:
            raise NumericalError(
                f"observed stop time {state.t} exceeds the convergence bound {trace.bound}"
            )
    return state, trace
