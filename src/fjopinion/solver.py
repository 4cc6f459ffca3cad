"""Jacobi-preconditioned conjugate gradient for systems (L + K) x = b.

The matrix is symmetric positive definite with strictly positive diagonal
excess k_i, so plain diagonal preconditioning keeps the condition number
bounded by (k_max + 2 d_max) / k_min.  The stopping rule is residual-based
and conservative: ||r|| / ||b|| <= delta * sqrt(lambda_lower / lambda_upper)
is sufficient for the energy-norm contract
||y - x*||_T <= delta ||x*||_T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from fjopinion.errors import GraphInputError
from fjopinion.graph import SpectralBounds

MAX_ITERATIONS = 50_000

# A residual that stops shrinking by at least this factor over the stagnation
# window means the attainable floor in double precision has been reached.
STAGNATION_WINDOW = 60
STAGNATION_FACTOR = 0.999


@dataclass(frozen=True)
class SolverResult:
    y: np.ndarray
    iterations: int
    residual_norm: float
    certified: bool
    stop_tolerance: float


def solve(
    matrix: sp.spmatrix, b: np.ndarray, delta: float, bounds: SpectralBounds
) -> SolverResult:
    """Run PCG on ``matrix`` y = b until the delta contract's sufficient condition is met.

    If the target is unattainable (it may sit far below the double-precision
    floor), iteration continues until the residual stagnates and the best
    iterate is returned uncertified.  Deterministic for fixed inputs.
    """
    if not (0.0 < delta < 1.0):
        raise GraphInputError(f"delta must be in (0, 1), got {delta}")
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    if matrix.shape != (n, n):
        raise GraphInputError("right-hand side length does not match operator")

    b_norm = float(np.linalg.norm(b))
    lo, hi = bounds.lower, min(bounds.upper, bounds.coarse_upper)
    tol = delta * np.sqrt(lo / hi) * b_norm

    if b_norm == 0.0:
        return SolverResult(
            y=np.zeros(n), iterations=0, residual_norm=0.0, certified=True, stop_tolerance=tol
        )

    inv_diag = 1.0 / matrix.diagonal()

    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    r_norm = b_norm

    best_x = x.copy()
    best_norm = r_norm
    window_best = r_norm
    since_check = 0

    iters = 0
    while r_norm > tol and iters < MAX_ITERATIONS:
        tp = matrix @ p
        ptp = float(p @ tp)
        if ptp <= 0.0:
            break
        alpha = rz / ptp
        x += alpha * p
        r -= alpha * tp
        iters += 1
        r_norm = float(np.linalg.norm(r))
        if r_norm < best_norm:
            best_norm = r_norm
            best_x = x.copy()
        since_check += 1
        if since_check >= STAGNATION_WINDOW:
            if best_norm > window_best * STAGNATION_FACTOR:
                break
            window_best = best_norm
            since_check = 0
        z = inv_diag * r
        rz_new = float(r @ z)
        if rz_new == 0.0 or rz == 0.0:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new

    # Recompute the true residual of the best iterate; the recurrence drifts.
    true_norm = float(np.linalg.norm(b - matrix @ best_x))
    return SolverResult(
        y=best_x,
        iterations=iters,
        residual_norm=true_norm,
        certified=bool(true_norm <= tol),
        stop_tolerance=tol,
    )
