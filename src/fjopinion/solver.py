"""Jacobi-preconditioned conjugate gradient for systems (L + K) x = b.

The matrix is symmetric positive definite with strictly positive diagonal
excess k_i, so plain diagonal preconditioning keeps the condition number
bounded by (k_max + 2 d_max) / k_min.

The solver takes the graph, not a matrix, and builds none: it applies
(L + K) p = (deg + k) * p - A p with one pass of scipy's CSR kernel over
``Graph.adjacency``, onto a buffer that already holds -(deg + k) * p, and
keeps the sign in that one diagonal vector.  So a solve holds six
n-vectors (x, r, z, p, the product and -(deg + k)), and its rho is always
that of the k it applies.

The solve stops on an a-posteriori certificate, not on an a-priori residual
tolerance.  For an iterate y with residual r = b - (L+K) y, let
rho = ||K^{-1/2} r||.  Because L + K >= K in the semidefinite order, the
error e = x* - y satisfies ||e||_{L+K}^2 = r^T (L+K)^{-1} r <= rho^2.  The
caller's ``Certificate`` turns rho into a proved bound on whatever it needs
(a relative energy-norm error, or the relative error of each metric read
off y) and the solve stops as soon as that bound is at most the target.
The rho a certificate gets is proved in floating point: ``proved_rho``
adds the worst-case rounding of the computed residual to its norm, so
``certified=True`` is a proved bound, not one that holds only in exact
arithmetic.
A certificate counts only on the true residual b - (L+K) y, which costs an
SpMV, a second one for the rounding term, and the certificate's own pass
over y, so it is formed only when the
recurrence residual says the bound can hold: its rho must have reached a
goal, and the certificate's optional ``estimate``, an unproved guess of
the bound from the recurrence residual, must not lie above the target.
A guess above it moves the goal instead.  Since diag(L+K) = deg + k >= k,
PCG's own r.D^{-1}r is at most rho^2, so rho is formed only once that has
reached the goal.  If the target lies below the floor of a double
residual, whose rounding term grows like u (deg + k) |y| / sqrt(k), the
recurrence rho keeps shrinking while the true one levels off (Greenbaum,
SIMAX 1997), so stagnation is judged on the true residual: a failed check
whose rho is no smaller than at the previous failed check stops the
solve, and the last iterate is returned uncertified (Strakos & Tichy,
ETNA 2002; Arioli, Numer. Math. 2004).  On regular-3000 at k = 1e-4 that
floor lies above exact mode's 1e-12; ``dynamics._solve`` then refines y on
residuals formed in long double, whose unit roundoff is 2048 times smaller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fjopinion.errors import GraphInputError
from fjopinion.graph import EDGE_CHUNK, Graph, StubbornnessVector, _matvec_into

MAX_ITERATIONS = 50_000
EPS = float(np.finfo(np.float64).eps)  # 2u for double's unit roundoff u = 2^-53


@dataclass(frozen=True)
class Certificate:
    """What a solve must prove before it stops: ``bound(y, r, rho) <= target``.

    ``bound`` gets an iterate y, its computed true residual r = b - (L+K) y
    and a proved rho >= ||K^{-1/2} r|| of the exact residual, so that
    ||y - x*||_{L+K} <= rho, and returns a proved bound that grows with rho.
    After refinement (``dynamics._solve``) y is the double rounding of a
    long-double iterate, r that iterate's residual rounded to double, and
    rho also covers the rounding of y.
    ``estimate``, if given, takes the same arguments with PCG's recurrence
    residual in place of the true one and returns a guess of ``bound``.  The
    guess is not proved and only times the check: a finite guess above the
    target defers the true residual to a goal it scales down linearly, and
    any other guess forms the true residual and judges ``bound`` on it.
    """

    target: float
    bound: Callable[[np.ndarray, np.ndarray, float], float]
    estimate: Callable[[np.ndarray, np.ndarray, float], float] | None = None


def energy_norm_certificate(b: np.ndarray, delta: float) -> Certificate:
    """Certify ||y - x*||_{L+K} <= delta ||x*||_{L+K} for (L+K) x* = b.

    ||y||_{L+K}^2 = y.(b - r), and ||x*||_{L+K} >= ||y||_{L+K} - rho, so
    rho / (||y||_{L+K} - rho) bounds the relative energy-norm error.
    """
    b = np.asarray(b, dtype=np.float64)

    def bound(y, r, rho):
        if rho == 0.0:
            return 0.0
        y_norm = math.sqrt(max(float(y @ b) - float(y @ r), 0.0))
        return rho / (y_norm - rho) if y_norm > rho else math.inf

    return Certificate(target=delta, bound=bound)


@dataclass(frozen=True)
class SolverResult:
    """The returned iterate and how it was obtained.

    ``y`` is the last iterate.  ``stop_reason`` is "certified" exactly when
    ``certified`` is true, but for a forest's certified factor solution
    from ``dynamics._solve``, which reads "".  Otherwise it says why
    iteration ended: "stagnated" (a failed check found rho no smaller than
    at the previous failed check, or the recurrence residual or search
    direction underflowed to zero; for ``dynamics._solve``, a refinement
    sweep that did not shrink rho), "maxiter", or "breakdown" (a direction
    of negative curvature, or NaN: L + K is not positive definite).
    ``bound`` is the certificate's proved bound for ``y``, judged on its
    true residual with its rounding counted, also when it misses the
    target; ``rho`` is the proved bound on ||y - x*||_{L+K} it was judged
    on, and ``residual_norm`` the 2-norm of the computed residual.
    """

    y: np.ndarray
    iterations: int
    residual_norm: float
    certified: bool
    bound: float
    stop_reason: str
    rho: float


def _rho(r: np.ndarray, k: StubbornnessVector, scratch: np.ndarray) -> float:
    """rho = ||K^{-1/2} r||, with ``scratch`` overwritten."""
    np.divide(r, k.k, out=scratch)
    return math.sqrt(max(float(r @ scratch), 0.0))


def _negated_diagonal(g: Graph, k: StubbornnessVector,
                      out: np.ndarray | None = None) -> np.ndarray:
    """-(deg + k), the diagonal of -(L + K), in ``out`` or a new vector."""
    out = np.add(g.degrees, k.k, out=out)
    return np.negative(out, out=out)


def proved_rho(g: Graph, k: StubbornnessVector, b: np.ndarray, y: np.ndarray,
               out: np.ndarray, scratch: np.ndarray) -> tuple[float, float]:
    """A proved rho >= ||K^{-1/2}(b - (L + K) y)||, rounding included, and
    the 2-norm of the computed residual, which is left in ``out``.

    The one routine that bounds a residual: every check of ``check`` and
    every refinement sweep of ``dynamics._solve`` goes through it.  Each row
    of the computed residual is off from the exact one by at most
    gamma w_i, gamma = cu / (1 - cu) for u the unit roundoff of y's dtype
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), and
    gamma ||K^{-1/2} w|| is added to ||K^{-1/2} r||:

    * a float64 y gets its residual as PCG's steps form it, each row's sum
      starting from -(deg + k)_i y_i, then A y and b.  So w = (deg + k)|y| +
      A|y| + |b| and c = 2t + 2, for t the most entries in a row of A: the
      degree's t - 1 additions, deg + k, its product with y_i and the row's
      t + 1 sums;
    * a long-double y (a sweep's) gets r_i = b_i - k_i y_i - sum_j a_ij (y_i
      - y_j) in long double, row block by row block (``_long_residual``),
      rounded into ``out`` only at the end.  So w = A|y_i - y_j| + k|y| +
      |b| and c = t + 3, and w is small where y is smooth, as it is at tiny
      k.  On x86-64 u is 2^-64; where np.longdouble is plain double the same
      code runs and proves double's bound of this form.

    b is taken to be one double rounding off the caller's exact right side,
    as k * s is: that adds u_d |b_i| to row i's bound, for double's u_d,
    which w carries as (1 + u_d / gamma) |b_i|.  The sum is widened by
    (n + t + 8) eps for the norms' own rounding.
    ``out`` and ``scratch`` are free float64 n-vectors that are not y.
    """
    a = g.adjacency
    terms = max((int(np.diff(a.indptr[lo:lo + EDGE_CHUNK + 1]).max(initial=0))
                 for lo in range(0, g.n, EDGE_CHUNK)), default=0)  # no n-vector of row lengths
    long = y.dtype != np.float64
    c = terms + 3 if long else 2 * terms + 2
    unit = float(np.finfo(y.dtype).eps) / 2.0
    gamma = c * unit / (1.0 - c * unit)
    b_weight = 1.0 + 0.5 * EPS / gamma
    if long:
        rho, size = _long_residual(g, k, b, y, b_weight, out)
    else:
        # w = (deg + k)|y| + A|y| + b_weight |b| in out, then r in out.
        np.abs(y, out=scratch)
        np.multiply(np.add(g.degrees, k.k, out=out), scratch, out=out)
        _matvec_into(a, scratch, out)
        out += np.multiply(np.abs(b, out=scratch), b_weight, out=scratch)
        size = _rho(out, k, scratch)
        r = _matvec_into(a, y, np.multiply(_negated_diagonal(g, k, scratch), y, out=out))
        r += b
        rho = _rho(r, k, scratch)
    return (rho + gamma * size) * (1.0 + (g.n + terms + 8) * EPS), float(np.linalg.norm(out))


def _long_residual(g: Graph, k: StubbornnessVector, b: np.ndarray, y: np.ndarray,
                   b_weight: float, out: np.ndarray) -> tuple[float, float]:
    """||K^{-1/2} r|| and ||K^{-1/2} w|| for r = b - (L + K) y formed in
    y's dtype as ``proved_rho`` says, with r rounded into ``out``.

    The rows are taken in blocks of about ``EDGE_CHUNK`` entries, each
    entry's a_ij (y_i - y_j) formed in y's dtype, so that no copy of the
    adjacency in that dtype is held, only one block's products.
    """
    a, ptr = g.adjacency, g.adjacency.indptr
    rho2 = size2 = y.dtype.type(0)
    rows = max(1, EDGE_CHUNK * g.n // max(a.nnz, 1))
    for lo in range(0, g.n, rows):
        hi = min(lo + rows, g.n)
        ky, counts = k.k[lo:hi] * y[lo:hi], np.diff(ptr[lo:hi + 1])
        flow = np.repeat(y[lo:hi], counts) - y[a.indices[ptr[lo]:ptr[hi]]]
        flow *= a.data[ptr[lo]:ptr[hi]]
        lap, spread, filled = np.zeros_like(ky), np.zeros_like(ky), counts > 0
        if filled.any():  # a nonempty row's entries run to the next nonempty row's start
            starts = ptr[lo:hi][filled] - ptr[lo]
            lap[filled] = np.add.reduceat(flow, starts)
            spread[filled] = np.add.reduceat(np.abs(flow, out=flow), starts)
        r = b[lo:hi] - ky - lap
        spread += np.abs(ky) + b_weight * np.abs(b[lo:hi])
        rho2 += (r * r / k.k[lo:hi]).sum()
        size2 += (spread * spread / k.k[lo:hi]).sum()
        out[lo:hi] = r
    return math.sqrt(float(rho2)), math.sqrt(float(size2))


def check(g: Graph, k: StubbornnessVector, b: np.ndarray, y: np.ndarray,
          certify: Certificate, out: np.ndarray,
          scratch: np.ndarray) -> tuple[float, float, float]:
    """``certify``'s bound of y, the proved rho it was judged on, and the
    2-norm of y's computed residual, all from ``proved_rho``.

    It judges every PCG solve and every factor solve of ``dynamics._solve``;
    ``out`` and ``scratch`` are as for ``proved_rho``, and ``out`` keeps the
    residual for ``certify``.
    """
    rho, r_norm = proved_rho(g, k, b, y, out, scratch)
    return certify.bound(y, out, rho), rho, r_norm


def solve(g: Graph, k: StubbornnessVector, b: np.ndarray, certify: Certificate) -> SolverResult:
    """Run PCG on (L + K) y = b until ``certify`` holds.

    Deterministic for fixed inputs.  Each step writes -(L + K) p into one
    buffer: -(deg + k) * p, onto which ``graph._matvec_into`` adds A p from
    ``g.adjacency``; -(deg + k) is also the preconditioner.  A zero b is
    judged by its check like any other: its first step stops at p.(L+K)p =
    0, and its check judges y = 0.
    """
    target = certify.target
    if not (0.0 < target < 1.0):
        raise GraphInputError(f"certificate target must be in (0, 1), got {target}")
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    if g.n != n:
        raise GraphInputError("right-hand side length does not match operator")
    if len(k) != n:
        raise GraphInputError("stubbornness length does not match operator")

    a, neg_diag = g.adjacency, _negated_diagonal(g, k)

    # z holds the preconditioned residual with its sign flipped, r / -(deg + k);
    # between its uses it is scratch (rho is formed in it, then z is formed
    # again), and tp holds -(L+K) p, which the next step forms again; so a
    # step allocates nothing, and a true-residual check forms its residual in
    # tp and its rho in z.
    x = np.zeros(n)
    r = b.copy()
    z = r / neg_diag
    p = -z
    tp = np.empty(n)
    rz = -float(r @ z)
    rho = _rho(r, k, z)
    # ||x*||_{L+K} <= rho0 for x* = (L+K)^{-1} b, so no relative certificate
    # holds above target * rho0; the first true-residual check waits for it.
    goal = target * rho

    # rho of the true residual at the last failed check: the recurrence rho
    # keeps shrinking past the attainable floor, the true one does not.
    failed_rho = math.inf

    iters = 0
    y, reason = None, "maxiter"
    while iters < MAX_ITERATIONS:
        _matvec_into(a, p, np.multiply(neg_diag, p, out=tp))
        ptp = -float(p @ tp)
        if not ptp > 0.0:
            # p.(L+K)p = 0 only once p has underflowed; < 0 or NaN is no SPD matrix.
            reason = "stagnated" if ptp == 0.0 else "breakdown"
            break
        alpha = rz / ptp
        np.multiply(p, alpha, out=z)
        x += z
        tp *= alpha
        r += tp
        iters += 1
        np.divide(r, neg_diag, out=z)
        rz_new = -float(r @ z)
        # rz <= rho^2 (diag(L+K) >= k), so rho cannot be at the goal before
        # sqrt(rz) is; the factor covers rounding where diag = k.
        if math.sqrt(max(rz_new, 0.0)) <= goal * (1.0 + 1e-12):
            rho = _rho(r, k, z)
            if rho <= goal:
                guess = math.nan if certify.estimate is None else certify.estimate(x, r, rho)
                if math.isfinite(guess) and guess > target:
                    # The recurrence says the bound cannot hold yet: aim lower, no SpMV.
                    goal = rho * (target / guess)
                else:
                    bound, true_rho, r_norm = check(g, k, b, x, certify, tp, z)
                    if bound <= target:
                        y, reason = x, "certified"
                        break
                    if true_rho >= failed_rho:  # no gain since the last failed check
                        y, reason = x, "stagnated"
                        break
                    failed_rho = true_rho
                    # The bound grows at least linearly in rho: aim where it would hold.
                    goal = rho * (target / bound if math.isfinite(bound) else target)
            np.divide(r, neg_diag, out=z)
        if rz_new == 0.0:  # the recurrence residual vanished; the next rz_new / rz would be 0/0
            reason = "stagnated"
            break
        p *= rz_new / rz
        p -= z
        rz = rz_new

    if y is None:
        # Judge the last iterate on its true residual, not on the drifting recurrence.
        y = x
        bound, true_rho, r_norm = check(g, k, b, y, certify, tp, z)
        if bound <= target:
            reason = "certified"
    return SolverResult(
        y=y,
        iterations=iters,
        residual_norm=r_norm,
        certified=reason == "certified",
        bound=bound,
        stop_reason=reason,
        rho=true_rho,
    )
