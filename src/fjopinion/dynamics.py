"""The update rule with heterogeneous stubbornness and its analysis tools.

Covers the synchronous update z(t+1) = QAz(t) + QKs, equilibrium
computation z = (L+K)^{-1} K s, the fundamental matrix, weighted centering,
a proved bracket on the spectral radius of the iteration matrix QA, the
convergence-time bound it gives, and error-trace simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from fjopinion.errors import GraphInputError, NumericalError, SizeGuardError
from fjopinion.graph import Graph, StubbornnessVector, operator_matrix
from fjopinion.solver import energy_norm_certificate, solve

DENSE_CAP = 10_000
EQUILIBRIUM_DELTA = 1e-12  # relative energy-norm error proved above DENSE_CAP
POWER_STEPS = 1_000
CHECK_EVERY = 10  # power steps between two evaluations of the bracket
INVERSE_SOLVES = 100
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
    """A proved bracket lower <= rho(QA) <= upper with iteration diagnostics."""

    lower: float
    upper: float
    iterations: int
    converged: bool

    @property
    def rho_max(self) -> float:
        """Midpoint of the bracket, within ``residual`` of rho(QA)."""
        return 0.5 * (self.lower + self.upper)

    @property
    def residual(self) -> float:
        """Half-width of the bracket."""
        return 0.5 * (self.upper - self.lower)


@dataclass
class ErrorTrace:
    """Per-step norms of e(t) = z(t) - z* and f(t) with f_i = e_i sqrt(k_i + d_i)."""

    e_norms: list = field(default_factory=list)
    f_norms: list = field(default_factory=list)
    bound: int = 0  # the convergence-time bound checked, 0 when no check ran

    def record(self, e_norm: float, f_norm: float):
        self.e_norms.append(float(e_norm))
        self.f_norms.append(float(f_norm))


def _diagonal(g: Graph, k: StubbornnessVector) -> np.ndarray:
    """k_i + d_i, the diagonal of K + D; the update rule scales by its inverse Q."""
    if len(k) != g.n:
        raise GraphInputError("stubbornness length does not match graph")
    return k.k + g.degrees


def step(g: Graph, k: StubbornnessVector, state: OpinionState) -> OpinionState:
    """One synchronous update of all nodes.

    z_i(t+1) = (k_i s_i + sum_j w_ij z_j(t)) / (k_i + d_i), which is the
    componentwise form of QAz(t) + QKs.
    """
    if state.s.size != g.n:
        raise GraphInputError("state dimensions do not match graph")
    q = 1.0 / _diagonal(g, k)
    z_new = q * (g.adjacency @ state.z) + q * (k.k * state.s)
    return OpinionState(s=state.s, z=z_new, t=state.t + 1)


def _splu_symmetric(m: sp.spmatrix):
    """SuperLU factor of an SPD m, ordered on its own pattern, no pivoting."""
    return spla.splu(m.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


_last_factor: list = []  # at most one (g, k, factor of L + K)


def _factor(g: Graph, k: StubbornnessVector):
    """The factor of L + K (SPD, as k > 0), kept for the last (g, k) only.

    A call hits only for the same ``Graph`` and ``StubbornnessVector``
    objects, which are frozen with read-only arrays.  The old factor is
    dropped before a new one is built.
    """
    if _last_factor and _last_factor[0][0] is g and _last_factor[0][1] is k:
        return _last_factor[0][2]
    _last_factor.clear()
    lu = _splu_symmetric(operator_matrix(g, k))
    _last_factor.append((g, k, lu))
    return lu


def equilibrium(g: Graph, k: StubbornnessVector, s: np.ndarray) -> np.ndarray:
    """Equilibrium expressed opinions z = (L+K)^{-1} K s.

    Up to ``DENSE_CAP`` nodes the sparse factor from ``_factor`` solves it,
    so calls on the same (g, k) factor L + K once.  Above the cap the PCG
    solver does, with right-hand side Ks; it stops once it proves a relative
    energy-norm error of at most ``EQUILIBRIUM_DELTA`` and raises
    ``NumericalError`` if it cannot.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (g.n,):
        raise GraphInputError("opinion vector length does not match graph")
    if g.n <= DENSE_CAP:
        return _factor(g, k).solve(k.k * s)
    t = operator_matrix(g, k)
    b = k.k * s
    res = solve(t, b, k, energy_norm_certificate(b, EQUILIBRIUM_DELTA))
    if not res.certified:
        raise NumericalError(
            f"solver did not certify delta={EQUILIBRIUM_DELTA}: {res.stop_reason} after "
            f"{res.iterations} iterations with proved relative error {res.bound:.3e}"
        )
    return res.y


def fundamental_matrix(g: Graph, k: StubbornnessVector) -> np.ndarray:
    """Dense fundamental matrix (L+K)^{-1} K: row-stochastic, positive for connected graphs."""
    if g.n > DENSE_CAP:
        raise SizeGuardError(f"dense fundamental matrix refused: n={g.n} exceeds cap {DENSE_CAP}")
    # Scale the columns of the inverse: no dense diag(k) next to it.
    return np.linalg.inv(operator_matrix(g, k).toarray()) * k.k


def center_opinions(s: np.ndarray, k: StubbornnessVector) -> np.ndarray:
    """Shift s by (1^T K s) / (1^T K 1) so the weighted sum 1^T K s vanishes."""
    s = np.asarray(s, dtype=np.float64)
    return s - float(k.k @ s) / float(k.k.sum())


def spectral_radius(g: Graph, k: StubbornnessVector, tol: float = 1e-10) -> SpectralEstimate:
    """A proved bracket lower <= rho(QA) <= upper on the iteration matrix QA.

    rho is the largest eigenvalue of the pencil A x = lambda (K+D) x.  Each
    positive vector x gives two bounds, with y = QAx:

    * lower = x.(K+D)y / x.(K+D)x, the Rayleigh quotient of the symmetric
      Q^{1/2} A Q^{1/2}, which never exceeds its largest eigenvalue; it holds
      on disconnected graphs too, where no per-node ratio reaches rho;
    * upper = max_i y_i / x_i, the Collatz-Wielandt bound (Varga, Matrix
      Iterative Analysis, ch. 2); at x = 1 it is the row-sum bound
      max_i d_i / (k_i + d_i).

    x starts at 1 and is refined by up to ``POWER_STEPS`` power steps
    x <- QAx + x, the bracket evaluated every ``CHECK_EVERY`` of them.  If
    the bracket is still wider than ``tol`` and n <= ``DENSE_CAP`` or g is a
    forest (whose minimum-degree factorization has no fill), up to
    ``INVERSE_SOLVES`` steps x <- M^{-1}(K+D)x follow, with M = sigma(K+D) - A
    factored once at sigma = upper: inverse iteration with a near-singular
    shift (Parlett, The Symmetric Eigenvalue Problem, ch. 4).  M is then a
    nonsingular M-matrix, so x stays positive.  Both ends are widened to
    cover the rounding of the products and sums that form them.

    ``converged`` means upper - lower <= tol.  A bracket left wider (above
    ``DENSE_CAP`` on a graph with a cycle the power steps alone must close
    it) is still proved.
    """
    b = _diagonal(g, k)
    qa = (sp.diags(1.0 / b) @ g.adjacency).tocsr()
    # Relative rounding of y (row sums of at most `terms` products) and of
    # numpy's pairwise sums (depth <= 25 + log2 n), in units of eps = 2u.
    terms = int(np.diff(qa.indptr).max())
    slack = (terms + g.n.bit_length() + 32) * float(np.finfo(np.float64).eps)
    lower, upper = 0.0, math.inf

    def refine(x):
        nonlocal lower, upper
        y = qa @ x
        bx = b * x
        lower = max(lower, float((bx * y).sum() / (bx * x).sum()) * (1.0 - slack))
        upper = min(upper, float((y / x).max()) * (1.0 + slack))

    x = np.ones(g.n)
    refine(x)
    iterations = 0
    while upper - lower > tol and iterations < POWER_STEPS:
        for _ in range(CHECK_EVERY):
            x = qa @ x + x
        x = _rescale(x)
        refine(x)
        iterations += CHECK_EVERY
    if upper - lower > tol and (
        g.n <= DENSE_CAP
        or g.m == g.n - connected_components(g.adjacency, directed=False, return_labels=False)
    ):
        # M is SPD, as sigma > rho.
        lu = _splu_symmetric(sp.diags(upper * b) - g.adjacency)
        solves = 0
        while upper - lower > tol and solves < INVERSE_SOLVES:
            x = _rescale(lu.solve(b * x))
            refine(x)
            solves += 1
        iterations += solves
    return SpectralEstimate(
        lower=lower, upper=upper, iterations=iterations, converged=upper - lower <= tol
    )


def _rescale(x: np.ndarray) -> np.ndarray:
    """x scaled to max 1 and kept >= 2^-600, so that no entry underflows to 0."""
    return np.maximum(x / x.max(), 2.0**-600)


def convergence_bound(rho: SpectralEstimate | float, f0_norm: float, eps: float) -> int:
    """Upper bound on the convergence time: ceil((ln eps - ln |f(0)|) / ln rho).

    A ``SpectralEstimate`` contributes its proved upper end: a step bound
    needs an upper bound on rho.
    """
    rho_val = rho.upper if isinstance(rho, SpectralEstimate) else float(rho)
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
    geometrically with ratio rho(QA).  The observed stop time is checked
    against the convergence-time bound, which the trace keeps as ``bound``;
    it takes rho from the upper end of the ``spectral_radius`` bracket, which
    is proved whether or not the bracket converged.
    """
    if eps <= 0.0:
        raise GraphInputError("eps must be > 0")
    s = np.asarray(s, dtype=np.float64)
    z0 = np.asarray(z0, dtype=np.float64)
    z_star = equilibrium(g, k, s)
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
        trace.bound = convergence_bound(spectral_radius(g, k), f0_norm, eps)
        if state.t > trace.bound:
            raise NumericalError(
                f"observed stop time {state.t} exceeds the convergence bound {trace.bound}"
            )
    return state, trace
