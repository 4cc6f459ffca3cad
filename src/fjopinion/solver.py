"""Jacobi-preconditioned conjugate gradient for systems (L + K) x = b.

The matrix is symmetric positive definite with strictly positive diagonal
excess k_i, so plain diagonal preconditioning keeps the condition number
bounded by (k_max + 2 d_max) / k_min.

The solve stops on an a-posteriori certificate, not on an a-priori residual
tolerance.  For an iterate y with residual r = b - (L+K) y, let
rho = ||K^{-1/2} r||.  Because L + K >= K in the semidefinite order, the
error e = x* - y satisfies ||e||_{L+K}^2 = r^T (L+K)^{-1} r <= rho^2.  The
caller's ``Certificate`` turns rho into a proved bound on whatever it needs
(a relative energy-norm error, or the relative error of each metric read
off y) and the solve stops as soon as that bound is at most the target.
rho costs O(n) per iteration along the recurrence residual, but a
certificate counts only on the true residual b - (L+K) y, which is formed
when the recurrence rho has fallen to where the certificate can hold.  If
the target lies below the double-precision floor, iteration runs until the
residual stagnates and the best iterate is returned uncertified (Strakos &
Tichy, ETNA 2002; Arioli, Numer. Math. 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from fjopinion.errors import GraphInputError
from fjopinion.graph import StubbornnessVector

MAX_ITERATIONS = 50_000

# A residual that stops shrinking by at least this factor over the stagnation
# window means the attainable floor in double precision has been reached.
STAGNATION_WINDOW = 60
STAGNATION_FACTOR = 0.999


@dataclass(frozen=True)
class Certificate:
    """What a solve must prove before it stops: ``bound(y, r, rho) <= target``.

    ``bound`` gets an iterate y, its true residual r = b - (L+K) y and
    rho = ||K^{-1/2} r||, and returns a proved bound that grows with rho.
    """

    target: float
    bound: Callable[[np.ndarray, np.ndarray, float], float]


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

    ``stop_reason`` is "certified" exactly when ``certified`` is true, and
    otherwise says why iteration ended: "stagnated" (the residual stopped
    shrinking, or vanished in the recurrence), "maxiter", or "breakdown"
    (a direction of non-positive curvature: the matrix is not positive
    definite).  ``bound`` is the certificate's proved bound for ``y``, also
    when it misses the target; ``residual_norm`` is the 2-norm of its true
    residual.
    """

    y: np.ndarray
    iterations: int
    residual_norm: float
    certified: bool
    bound: float
    stop_reason: str


def solve(
    matrix: sp.spmatrix, b: np.ndarray, k: StubbornnessVector, certify: Certificate
) -> SolverResult:
    """Run PCG on ``matrix`` y = b, with matrix = L + K, until ``certify`` holds.

    Deterministic for fixed inputs.
    """
    target = certify.target
    if not (0.0 < target < 1.0):
        raise GraphInputError(f"certificate target must be in (0, 1), got {target}")
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    if matrix.shape != (n, n):
        raise GraphInputError("right-hand side length does not match operator")
    if len(k) != n:
        raise GraphInputError("stubbornness length does not match operator")

    if not b.any():
        return SolverResult(
            y=np.zeros(n), iterations=0, residual_norm=0.0, certified=True, bound=0.0,
            stop_reason="certified",
        )

    inv_diag = 1.0 / matrix.diagonal()

    def rho_of(r, scratch):
        np.divide(r, k.k, out=scratch)
        return math.sqrt(max(float(r @ scratch), 0.0))

    def check(y, scratch):
        """Certificate bound of y and the 2-norm of its true residual."""
        r = matrix @ y
        np.subtract(b, r, out=r)
        return certify.bound(y, r, rho_of(r, scratch)), float(np.linalg.norm(r))

    # z holds the preconditioned residual; between its uses it is scratch,
    # so the loop allocates nothing beyond the product (L+K) p.
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    rho = rho_of(r, z)
    # ||x*||_{L+K} <= rho0 for x* = (L+K)^{-1} b, so no relative certificate
    # holds above target * rho0; the first true-residual check waits for it.
    goal = target * rho

    best_x = x.copy()
    best_rho = rho
    window_best = rho
    since_check = 0

    iters = 0
    y, reason = None, "maxiter"
    while iters < MAX_ITERATIONS:
        tp = matrix @ p
        ptp = float(p @ tp)
        if not ptp > 0.0:
            reason = "breakdown"
            break
        alpha = rz / ptp
        np.multiply(p, alpha, out=z)
        x += z
        tp *= alpha
        r -= tp
        del tp
        iters += 1
        rho = rho_of(r, z)
        if rho <= goal:
            bound, r_norm = check(x, z)
            if bound <= target:
                y, reason = x, "certified"
                break
            # The bound grows at least linearly in rho: aim where it would hold.
            goal = rho * (target / bound if math.isfinite(bound) else target)
        if rho < best_rho:
            best_rho = rho
            np.copyto(best_x, x)
        since_check += 1
        if since_check >= STAGNATION_WINDOW:
            if best_rho > window_best * STAGNATION_FACTOR:
                reason = "stagnated"
                break
            window_best = best_rho
            since_check = 0
        np.multiply(inv_diag, r, out=z)
        rz_new = float(r @ z)
        if rz_new == 0.0:  # the recurrence residual vanished: nothing left to gain
            reason = "stagnated"
            break
        p *= rz_new / rz
        p += z
        rz = rz_new

    if y is None:
        # The recurrence residual drifts: judge the best iterate on its true one.
        y = best_x
        bound, r_norm = check(y, z)
        if bound <= target:
            reason = "certified"
    return SolverResult(
        y=y,
        iterations=iters,
        residual_norm=r_norm,
        certified=reason == "certified",
        bound=bound,
        stop_reason=reason,
    )
