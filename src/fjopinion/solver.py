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
the target lies below the double-precision floor, the recurrence rho keeps
shrinking while the true one levels off (Greenbaum, SIMAX 1997), so
stagnation is judged on the true residual: a failed check whose rho is no
smaller than at the previous failed check stops the solve, and the last
iterate is returned uncertified (Strakos & Tichy, ETNA 2002; Arioli,
Numer. Math. 2004).
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

    ``y`` is the last iterate.  ``stop_reason`` is "certified" exactly when
    ``certified`` is true, and otherwise says why iteration ended:
    "stagnated" (a failed check found the true residual's rho no smaller
    than at the previous failed check, or the recurrence residual or search
    direction underflowed to zero), "maxiter", or "breakdown" (a direction
    of negative curvature, or NaN: the matrix is not positive definite).
    ``bound`` is the certificate's proved bound for ``y``, judged on its
    true residual, also when it misses the target; ``residual_norm`` is the
    2-norm of that residual.
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
        """Certificate bound of y, and rho and the 2-norm of its true residual."""
        r = matrix @ y
        np.subtract(b, r, out=r)
        rho = rho_of(r, scratch)
        return certify.bound(y, r, rho), rho, float(np.linalg.norm(r))

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

    # rho of the true residual at the last failed check: the recurrence rho
    # keeps shrinking past the attainable floor, the true one does not.
    failed_rho = math.inf

    iters = 0
    y, reason = None, "maxiter"
    while iters < MAX_ITERATIONS:
        tp = matrix @ p
        ptp = float(p @ tp)
        if not ptp > 0.0:
            # p.(L+K)p = 0 only once p has underflowed; < 0 or NaN is no SPD matrix.
            reason = "stagnated" if ptp == 0.0 else "breakdown"
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
            bound, true_rho, r_norm = check(x, z)
            if bound <= target:
                y, reason = x, "certified"
                break
            if true_rho >= failed_rho:  # no gain since the last failed check
                y, reason = x, "stagnated"
                break
            failed_rho = true_rho
            # The bound grows at least linearly in rho: aim where it would hold.
            goal = rho * (target / bound if math.isfinite(bound) else target)
        np.multiply(inv_diag, r, out=z)
        rz_new = float(r @ z)
        if rz_new == 0.0:  # the recurrence residual vanished; the next rz_new / rz would be 0/0
            reason = "stagnated"
            break
        p *= rz_new / rz
        p += z
        rz = rz_new

    if y is None:
        # Judge the last iterate on its true residual, not on the drifting recurrence.
        y = x
        bound, _, r_norm = check(y, z)
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
