"""The update rule with heterogeneous stubbornness and its analysis tools.

Covers the synchronous update z(t+1) = QAz(t) + QKs = (Az(t) + Ks) / (k + d),
equilibrium computation z = (L+K)^{-1} K s, the fundamental matrix, weighted
centering, a proved bracket on the spectral radius of the iteration matrix
QA, the convergence-time bound it gives, and error-trace simulation.  QA is
never built: each pass over rows (an update step, a power step, an
evaluation of the bracket) runs on the row blocks that ``graph._halves``
makes once per loop, each block adding its product from ``g.adjacency``.
The diagonal k + d of K + D, whose inverse is Q, comes from
``graph._diagonal``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from fjopinion.errors import GraphInputError, NumericalError, SizeGuardError
from fjopinion.graph import (Graph, StubbornnessVector, _diagonal, _halves, _on_halves,
                             _row_length_max, operator_matrix)
from fjopinion.solver import (EPS, Certificate, _forest, _splu_symmetric, energy_norm_certificate,
                              solve)

DENSE_CAP = 10_000
EQUILIBRIUM_DELTA = 1e-12  # relative error proved by exact-mode and equilibrium solves
# simulate_until's solve certificate aims beta, its proved error in |f|, at this share of eps.
EQUILIBRIUM_SHARE = 0.1
POWER_STEPS = 1_000
CHECK_EVERY = 10  # power steps between two evaluations of the bracket
INVERSE_SOLVES = 100
SIMULATION_CAP = 1_000_000


@dataclass(frozen=True, eq=False)
class OpinionState:
    """Innate vector s (fixed) and expressed vector z at step t; compared and
    hashed by identity."""

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
    spectral: SpectralEstimate | None = None  # the bracket that bound came from, None likewise
    equilibrium_error: float = 0.0  # proved bound on ||z* - z~*||_{K+D}, the z~* the norms use


def _update(z: np.ndarray, mv, ks: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """z(t+1) = (Az(t) + Ks) / b on one row block of ``_halves(g.adjacency,
    ks, b, out)``: ``out`` starts at ``ks`` = Ks, ``mv`` adds the block's
    rows of Az(t) onto it, and / b = k + d."""
    np.copyto(out, ks)
    mv(z, out)
    np.divide(out, b, out=out)


def step(g: Graph, k: StubbornnessVector, state: OpinionState) -> OpinionState:
    """One synchronous update of all nodes.

    z_i(t+1) = (k_i s_i + sum_j w_ij z_j(t)) / (k_i + d_i), the componentwise
    form of QAz(t) + QKs, formed by ``_update`` as ``simulate_until`` forms it.
    """
    if state.s.size != g.n:
        raise GraphInputError("state dimensions do not match graph")
    b, z = _diagonal(g, k), np.empty(g.n)
    _on_halves(functools.partial(_update, state.z), _halves(g.adjacency, k.k * state.s, b, z))
    return OpinionState(s=state.s, z=z, t=state.t + 1)


def _opinions(g, k, x, mismatch="opinion vector length does not match graph"):
    """x as a float64 vector on g's nodes, checked against g and k; a wrong
    shape raises ``mismatch``, and a NaN or inf entry is an input error too."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise GraphInputError(mismatch)
    if len(k) != g.n:
        raise GraphInputError("stubbornness length does not match graph")
    if not np.isfinite(x).all():
        raise GraphInputError("opinions must be finite")
    return x


def equilibrium(g: Graph, k: StubbornnessVector, s: np.ndarray) -> np.ndarray:
    """Equilibrium expressed opinions z = (L+K)^{-1} K s, solved by ``solve``.

    A solve that cannot prove a relative energy-norm error of
    ``EQUILIBRIUM_DELTA``, refinement included, raises ``NumericalError``.
    """
    b = k.k * _opinions(g, k, s)
    res = solve(g, k, b, energy_norm_certificate(b, EQUILIBRIUM_DELTA))
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
    return _center(s, k)[0]


def _center(s, k):
    """center_opinions(s, k) and the shift c = (1^T K s) / (1^T K 1) it subtracts."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != k.k.shape:
        raise GraphInputError("opinion vector length does not match stubbornness")
    c = float(k.k @ s) / float(k.k.sum())
    return s - c, c


def spectral_radius(
    g: Graph,
    k: StubbornnessVector,
    tol: float = 1e-10,
    *,
    goal: tuple[float, float] | None = None,
) -> SpectralEstimate:
    """A proved bracket lower <= rho(QA) <= upper on the iteration matrix QA.

    rho is the largest eigenvalue of the pencil A x = lambda (K+D) x, and
    K + D = diag(b), b = k + d.  Each positive vector x gives two bounds:

    * lower = x.Ax / x.(b*x), the Rayleigh quotient of the symmetric
      Q^{1/2} A Q^{1/2}, which never exceeds its largest eigenvalue; it holds
      on disconnected graphs too, where no per-node ratio reaches rho;
    * upper = max_i (Ax)_i / (b_i x_i), the Collatz-Wielandt bound on QA
      (Varga, Matrix Iterative Analysis, ch. 2); at x = 1 it is the row-sum
      bound max_i d_i / (k_i + d_i).

    x starts at 1.  On a graph with a cycle it is refined by up to
    ``POWER_STEPS`` power steps x <- (Ax + h*x) / h = (2QA + I) x, h = b/2,
    the bracket evaluated every ``CHECK_EVERY`` of them.  For the pencil's
    eigenvalues rho = lambda_1 >= lambda_2 >= ... >= lambda_n > -1 (as
    rho < 1), they converge at the rate (1/2 + lambda_2) / (1/2 +
    lambda_1), never slower than the (1 + lambda_2) / (1 + lambda_1) of
    QAx + x when lambda_2 >= 0; and 1/2 is the least shift c at which
    lambda_n can never set the rate: |c + lambda_n| <= c + lambda_2 for
    every lambda_n > -1 and lambda_2 >= 0 needs c >= 1/2.  On the ladder's
    4-regular graph (``BENCH_29.json``) ``simulate_until``'s goal-stopped
    bracket took 50, 60 and 70 power steps at 1e4, 1e5 and 1e6 nodes,
    against 70, 80 and 100 with the shift b.  2QA + I is entrywise >= 0, so
    x stays positive.  h is held in b's own buffer:
    halving is exact, so the bounds read from 2h are those of b to the
    last bit.  If the bracket is still open
    and n <= ``DENSE_CAP``, up to ``INVERSE_SOLVES`` steps x <- M^{-1}(K+D)x
    follow, with M = sigma(K+D) - A factored once at sigma = upper: inverse
    iteration with a near-singular shift (Parlett, The Symmetric Eigenvalue
    Problem, ch. 4).  A forest's factor of M has no fill, so on a forest of
    any size the power steps are skipped and M is factored anew at the
    current upper before each of up to ``INVERSE_SOLVES`` solves (the old
    factor freed first); a fixed shift can stall there.  As sigma > rho, M
    is a nonsingular M-matrix and x stays positive.

    Both ends are widened by c eps, eps = 2u = 2^-52, for rounding.  Every
    term is >= 0, so a value formed through j roundings is the exact one
    times 1 + theta_j, |theta_j| <= ju / (1 - ju) (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3).  With t the most entries in a
    row of A, b_i = k_i + d_i and (Ax)_i (summed from 0) carry t roundings,
    b_i x_i t + 1, a ratio (Ax)_i / (b_i x_i) 2t + 2, and x.Ax / x.(b*x), two
    numpy pairwise sums of depth p <= 25 + log2 n, N = 2t + 2p + 4.  So
    c = t + p + 3: the widening rounds once more, (1 + theta_N)(1 - (N+2)u)
    (1 + u) <= 1, and the upper end needs c >= t + 2 (for t < 2^25).
    Underflow is left out: x >= 2^-600 and max x = 1 keep it far below the
    term of the entry x_i = 1.

    Refinement stops once upper - lower <= ``tol``, which must be >= 0, or,
    given ``goal=(f0_norm, eps)``, once both ends give the same
    ``convergence_bound(., f0_norm, eps)``: rho lies in the bracket, so that
    integer is then final, and a caller that needs only it stops early.
    ``converged`` means upper - lower <= tol either way.  A bracket left
    wider (a goal met early, or on graphs with cycles above the cap, where
    the power steps alone must close it) is still proved.
    """
    if not tol >= 0.0:  # NaN included
        raise GraphInputError(f"tol must be >= 0, got {tol}")
    h, a = _diagonal(g, k), g.adjacency
    h *= 0.5  # b / 2, exactly: 2h is b to the last bit
    slack = (_row_length_max(a) + g.n.bit_length() + 28) * EPS
    lower, upper = 0.0, math.inf
    # Two fixed buffers, which a power step swaps with their row blocks; y
    # holds Ax in refine.
    x, y = np.ones(g.n), np.empty(g.n)
    forth, back = _halves(a, x, y, h), _halves(a, y, x, h)

    def power(mv, x_, y_, h_):  # y = (Ax + h*x) / h
        mv(x, np.multiply(h_, x_, out=y_))
        np.divide(y_, h_, out=y_)

    def refine(v):  # x = v / max v, kept >= 2^-600 so that no entry underflows to 0
        nonlocal lower, upper
        np.maximum(np.divide(v, v.max(), out=x), 2.0**-600, out=x)
        y.fill(0.0)
        _on_halves(lambda mv, x_, y_, h_: mv(x, y_), forth)
        bx = h * x
        bx *= 2.0
        lower = max(lower, float((x * y).sum() / (bx * x).sum()) * (1.0 - slack))
        upper = min(upper, float((y / bx).max()) * (1.0 + slack))

    def settled():
        # convergence_bound takes rho in (0, 1); a row-sum bound can round to 1.
        return upper - lower <= tol or (
            goal is not None and 0.0 < lower <= upper < 1.0
            and convergence_bound(lower, *goal) == convergence_bound(upper, *goal))

    refine(x)
    iterations = 0
    forest = not settled() and _forest(g)
    while not forest and not settled() and iterations < POWER_STEPS:
        for _ in range(CHECK_EVERY):
            _on_halves(power, forth)
            x, y, forth, back = y, x, back, forth
        refine(x)
        iterations += CHECK_EVERY
    if not settled() and (forest or g.n <= DENSE_CAP):
        m = operator_matrix(g, k).tocsc()  # L + K, M once its diagonal is upper * b
        on_diagonal = m.indices == np.repeat(np.arange(g.n), np.diff(m.indptr))
        lu, solves = None, 0
        while not settled() and solves < INVERSE_SOLVES:
            if lu is None or forest:
                lu = None  # free the old factor before the next is built
                m.data[on_diagonal] = (2.0 * upper) * h  # upper * b; SPD, as sigma > rho
                lu = _splu_symmetric(m)
            refine(lu.solve(2.0 * (h * x)))  # b * x, as refine forms it
            solves += 1
        iterations += solves
    return SpectralEstimate(
        lower=lower, upper=upper, iterations=iterations, converged=upper - lower <= tol
    )


def convergence_bound(rho: SpectralEstimate | float, f0_norm: float, eps: float) -> int:
    """Upper bound on the convergence time: ceil((ln eps - ln |f(0)|) / ln rho).

    A ``SpectralEstimate`` contributes its proved upper end: a step bound
    needs an upper bound on rho.
    """
    rho_val = rho.upper if isinstance(rho, SpectralEstimate) else float(rho)
    if not (0.0 < rho_val < 1.0):
        raise GraphInputError(f"rho must be in (0, 1), got {rho_val}")
    if not eps > 0.0:  # NaN included
        raise GraphInputError("eps must be > 0")
    if not 0.0 <= f0_norm < math.inf:  # NaN included
        raise GraphInputError(f"|f(0)| must be finite and >= 0, got {f0_norm}")
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
    geometrically with ratio rho(QA).  Before the first step the
    convergence-time bound is computed, which the trace keeps as ``bound``;
    it takes rho from the upper end of the ``spectral_radius`` bracket, which
    is proved whether or not the bracket converged.  The bracket is given
    the goal (|f(0)|, eps), so it is refined only until both of its ends
    give that bound; the trace keeps it as ``spectral``.

    The norms are measured against the computed equilibrium z~*, not z*.
    ``_equilibrium_error`` proves beta >= ||z* - z~*||_{K+D} from the rho
    that ``solve`` proved for z~*, which the trace keeps as
    ``equilibrium_error``.  z~* is solved to what ``equilibrium`` proves and
    to beta <= ``EQUILIBRIUM_SHARE`` eps, refinement sweeps included, but a
    z~* that misses either is used all the same: the stop rests on beta
    alone.  |f(t)| <= rho^t |f(0)| holds for the true
    f, so the measured norm obeys |f~(t)| <= rho^t (|f~(0)| + beta) + beta,
    which is at most eps from the step T' = convergence_bound(rho,
    |f~(0)| + beta, eps - beta) >= ``bound`` on.  The run stops once
    |f~(t)| <= eps, and a stop past T' raises ``NumericalError`` there, as
    does a stop past ``SIMULATION_CAP``.  Where beta >= eps no step is proved
    and T' is ``bound`` itself.

    The steps allocate nothing: z(t) alternates between two buffers, neither
    of them ``z0``, which stays the caller's, and ``_update``, the pass of
    ``step``, forms z(t+1) in them, on row blocks (``graph._halves``) made
    once for each buffer before the first step.  Each norm is sqrt(v.v), as
    ``np.linalg.norm`` forms it.  They and e(t) and f(t) are allocated after
    the bracket, and |f(0)| is formed in temporaries freed before it.
    """
    if not eps > 0.0:  # NaN included
        raise GraphInputError("eps must be > 0")
    s = _opinions(g, k, s)
    z0 = _opinions(g, k, z0, "innate and expressed vectors must be 1-d and equal length")
    b = _diagonal(g, k)
    ks = k.k * s  # as ``step`` and ``equilibrium`` form Ks
    energy, share = energy_norm_certificate(ks, EQUILIBRIUM_DELTA), EQUILIBRIUM_SHARE * eps
    res = solve(g, k, ks, Certificate(EQUILIBRIUM_DELTA, lambda y, r, rho: max(
        energy.bound(y, r, rho), _equilibrium_error(g, k, b, rho) / share * EQUILIBRIUM_DELTA)))
    z_star = res.y

    trace = ErrorTrace()
    trace.equilibrium_error = _equilibrium_error(g, k, b, res.rho)
    weight = np.sqrt(b)

    def record(z, e, f):
        np.subtract(z, z_star, out=e)
        np.multiply(weight, e, out=f)
        trace.e_norms.append(math.sqrt(e @ e))
        trace.f_norms.append(math.sqrt(f @ f))
        return trace.f_norms[-1]

    z, t = z0, 0
    f_norm = record(z, np.empty_like(z0), np.empty_like(z0))  # e(0) and f(0), freed at once
    if g.m >= 1 and f_norm > eps:
        trace.spectral = spectral_radius(g, k, goal=(f_norm, eps))
        trace.bound = convergence_bound(trace.spectral, f_norm, eps)
    beta = trace.equilibrium_error
    last = trace.bound if beta >= eps or trace.spectral is None else convergence_bound(
        trace.spectral, f_norm + beta, eps - beta)
    # After the bracket's peak: e(t) and f(t), and z(t) for t >= 1, alternating.
    e, f, zs = np.empty_like(z0), np.empty_like(z0), (np.empty_like(z0), np.empty_like(z0))
    into = [_halves(g.adjacency, ks, b, out) for out in zs]
    while f_norm > eps:
        if trace.spectral is not None and t >= last:
            raise NumericalError(f"observed stop time (|f({t})| = {f_norm:.3e} > eps = {eps}) "
                                 f"exceeds the convergence bound {trace.bound}")
        if t >= SIMULATION_CAP:
            raise NumericalError(
                f"simulation did not reach eps={eps} within {SIMULATION_CAP} steps"
            )
        _on_halves(functools.partial(_update, z), into[t % 2])
        z, t = zs[t % 2], t + 1
        f_norm = record(z, e, f)
    return OpinionState(s=s, z=z, t=t), trace


def _equilibrium_error(g: Graph, k: StubbornnessVector, b: np.ndarray, rho: float) -> float:
    """A proved bound on ||z* - z~*||_{K+D} from a proved rho >= ||z* - z~*||_{L+K}.

    rho is what ``solve`` proved for z~*, rounding included
    (``solver.proved_rho``), and L + K >= (1 - rho(QA))(K + D) with
    1 - rho(QA) >= min k / (k + d), the row-sum bound on rho(QA), for b =
    k + d.  The ratio and its square root are widened by 8 eps.
    """
    return rho * (1.0 + 8 * EPS) / math.sqrt(float((k.k / b).min()))
