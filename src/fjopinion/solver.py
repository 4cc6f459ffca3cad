"""Solve (L + K) y = b with a proved error: the one solve of every caller.

``solve`` is the path of ``equilibrium``, ``simulate_until``,
``metrics_exact`` and ``approxim``: the factor of L + K on a forest, whose
factor has no fill, and ``_pcg`` on any other graph, both judged by one
check of the true residual, then refinement sweeps on residuals formed in
long double where that check misses its certificate.

``_pcg`` is conjugate gradient preconditioned by M^{-1} = D^{-1} + D^{-1} A
D^{-1}, for D = deg + k and A the adjacency (L + K = D - A): the Neumann
series of Jacobi cut after its linear term (Dubois, Greenbaum & Rodrigue,
Computing 22, 1979; Johnson, Micchelli & Paul, SIAM J. Numer. Anal. 20,
1983).  The eigenvalues lambda of D^{-1/2} A D^{-1/2} lie in [-rho, rho],
rho = rho(QA) < 1, and M^{-1}(L + K) has the spectrum 1 - lambda^2 in place
of Jacobi's 1 - lambda, a condition number of at most 1 / (1 - rho^2)
against (1 + rho) / (1 - rho).  On sparse random graphs, whose spectrum
comes in near-symmetric pairs, CG takes about half the steps, each with one
more product (``BENCH_29.json``: 9 against 18 steps at eps 1e-4 and 16
against 32 at 1e-8 on the ladder at 1e6 nodes); where the product
dominates a step the fold does not pay (a 20-regular graph read 10-13 %
slower).  PCG builds no matrix: it applies (L + K) p = (deg + k) * p - A p
with one pass of scipy's CSR kernel over ``Graph.adjacency``, onto a buffer
that holds -(deg + k) * p, and M^{-1} r = (r + A (r / D)) / D with one
more, r / D formed in that buffer, free between the residual's update and
the next step.  So a solve holds six n-vectors (x, r, z, p, the product and
-(deg + k), which is ``graph._diagonal`` negated in place), and its rho is
always that of the k it applies.

A step is four passes over rows (the product -(L + K) p; the x and r
updates with -r / D and -r; A (r / D) and the division by -D; and p =
beta p + z), and each check runs the passes of ``proved_rho``, all on the
row blocks of ``graph._halves``, made once per solve and per check: one
block, run in the calling thread, or, where the adjacency holds at least
``graph.SPLIT_ENTRIES`` entries and the process may use two CPUs, two,
the second run by a worker thread.  Each pass waits for the one before it,
because a product reads the whole vector the pass before wrote.  The dot products p.(L+K)p and r.M^{-1}r, and rho's,
stay whole in the calling thread: a dot split in two would add its halves
in another order.  Every element is formed by the same operations either
way, so every iterate, check and bound is the one-thread result to the
last bit.  On 2 vCPUs this took perfbench ``solve`` from 0.227 to
0.194 s an op (``BENCH_33.json``).

The solve stops on an a-posteriori certificate, not on an a-priori residual
tolerance.  For an iterate y with residual r = b - (L+K) y, let rho =
||K^{-1/2} r||.  Because L + K >= K, the error e = x* - y satisfies
||e||_{L+K}^2 = r^T (L+K)^{-1} r <= rho^2.  The caller's ``Certificate``
turns rho into a proved bound on whatever it needs (a relative energy-norm
error, or the relative error of each metric read off y), and the solve
stops once that bound is at most the target.  The rho it gets is proved in
floating point: ``proved_rho`` adds the worst-case rounding of the computed
residual to its norm.  A norm of a residual whose squares sum to a tiny
number is formed again from the vector scaled by a power of two, so a
nonzero residual whose squares underflow never reads 0.  The true residual
costs two SpMVs and the certificate's pass over y, so PCG forms it only
once the recurrence residual's rho has reached a goal and the
certificate's optional ``estimate``, an unproved guess of the bound, does
not lie above the target (a guess above it moves the goal).  As M^{-1} <=
(L + K)^{-1} <= K^{-1}, r.M^{-1}r <= rho^2 gates each rho.  Below the
floor of a double residual, whose rounding grows like
u (deg + k) |y| / sqrt(k), the recurrence keeps shrinking while the true
residual levels off (Greenbaum, SIMAX 1997), so a failed check whose rho is
no smaller than the previous failed check's stops PCG "stagnated" (Strakos
& Tichy, ETNA 2002; Arioli, Numer. Math. 2004); so does r.M^{-1}r falling to
eps^2 of its start, where no check is ever aimed, as at a target of 1e-300
(relative, so b * 2^-500 certifies where b does).  On regular-3000 at k =
1e-4 that floor lies above exact mode's 1e-12, and ``solve``'s sweeps,
whose unit roundoff is 2048 times smaller, prove it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fjopinion.errors import GraphInputError, NumericalError
from fjopinion.graph import (EDGE_CHUNK, Graph, StubbornnessVector, _diagonal, _disagreement,
                             _halves, _on_halves, _row_length_max, operator_matrix)

MAX_ITERATIONS = 50_000
EPS = float(np.finfo(np.float64).eps)  # 2u for double's unit roundoff u = 2^-53
SWEEP_DELTA = 1e-6  # relative energy-norm error of a refinement sweep's PCG correction
RHO_SCALED_BELOW = 2.0**-900  # r.(r / k) under which _rho scales r before it sums


@dataclass(frozen=True)
class Certificate:
    """What a solve must prove before it stops: ``bound(y, r, rho) <= target``.

    ``bound`` gets an iterate y, its computed true residual r = b - (L+K) y
    and a proved rho >= ||K^{-1/2} r|| of the exact residual, so that
    ||y - x*||_{L+K} <= rho, and returns a proved bound that grows with rho.
    After refinement (``solve``'s sweeps) y is the double rounding of a
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

    ``y`` is the last iterate, or, after ``solve``'s refinement sweeps, the
    one of least bound they judged; the certificate's last judgment is of
    ``y``.  ``stop_reason`` is "certified" exactly when ``certified`` is
    true, a forest's factor solution included.  Otherwise it says why
    iteration ended: "stagnated" (a failed check found rho no smaller than
    at the previous failed check, r.M^{-1}r fell to eps^2 of its start, or
    the search direction underflowed to zero; for ``solve``, a refinement
    sweep that did not shrink rho), "maxiter", or "breakdown" (a direction
    of negative curvature, or NaN: L + K is not positive definite).
    ``bound`` is the certificate's proved bound for ``y``, judged on its
    true residual with its rounding counted, also when it misses the
    target; ``rho`` is the proved bound on ||y - x*||_{L+K} it was judged
    on.
    """

    y: np.ndarray
    iterations: int
    certified: bool
    bound: float
    stop_reason: str
    rho: float


def _rho(r: np.ndarray, k: StubbornnessVector, scratch: np.ndarray) -> float:
    """rho = ||K^{-1/2} r||, with ``scratch`` overwritten.

    Where r.(r / k) lies below ``RHO_SCALED_BELOW``, an r below 1 is scaled
    up by a power of two s <= 2^1023 while rho is formed again, max |r| into
    [1/2, 1) where it can, and back in place.  Both are exact, so rho is the
    unscaled one to the last bit wherever no square of r underflows, and a
    nonzero r never reads 0.  Above that level the terms that underflow,
    each below 2^-1022, sum to less than 2^-62 of r.(r / k) for n < 2^60,
    and the unscaled rho stands.
    """
    np.divide(r, k.k, out=scratch)
    square = float(r @ scratch)
    if square >= RHO_SCALED_BELOW:
        return math.sqrt(square)
    top = max(float(r.max(initial=0.0)), -float(r.min(initial=0.0)))
    scale = math.ldexp(1.0, min(-math.frexp(top)[1], 1023)) if 0.0 < top < 1.0 else 1.0
    r *= scale
    np.divide(r, k.k, out=scratch)
    rho = math.sqrt(max(float(r @ scratch), 0.0)) / scale
    r /= scale
    return rho


def proved_rho(g: Graph, k: StubbornnessVector, b: np.ndarray, y: np.ndarray,
               out: np.ndarray, scratch: np.ndarray) -> float:
    """A proved rho >= ||K^{-1/2}(b - (L + K) y)||, rounding included, with
    the computed residual left in ``out``.

    The one routine that bounds a residual, for every check and every
    refinement sweep.  Each row of the computed residual is off from the
    exact one by at most
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
    terms = _row_length_max(a)
    long = y.dtype != np.float64
    c = terms + 3 if long else 2 * terms + 2
    unit = float(np.finfo(y.dtype).eps) / 2.0
    gamma = c * unit / (1.0 - c * unit)
    b_weight = 1.0 + 0.5 * EPS / gamma
    if long:
        rho, size = _long_residual(g, k, b, y, b_weight, out)
    else:
        # w = (deg + k)|y| + A|y| + b_weight |b| in out, then r in out, each
        # pass on the adjacency's row halves (_on_halves); A reads all of
        # |y| in scratch, so the b term, which reuses scratch, waits for it.
        halves = _halves(a, y, b, g.degrees, k.k, out, scratch)

        def weights(mv, y_, b_, deg, k_, out_, scratch_):
            np.abs(y_, out=scratch_)
            np.multiply(np.add(deg, k_, out=out_), scratch_, out=out_)

        def spread(mv, y_, b_, deg, k_, out_, scratch_):
            mv(scratch, out_)

        def b_term(mv, y_, b_, deg, k_, out_, scratch_):
            out_ += np.multiply(np.abs(b_, out=scratch_), b_weight, out=scratch_)

        def residual(mv, y_, b_, deg, k_, out_, scratch_):
            np.negative(np.add(deg, k_, out=scratch_), out=scratch_)
            mv(y, np.multiply(scratch_, y_, out=out_))
            out_ += b_

        for phase in (weights, spread, b_term):
            _on_halves(phase, halves)
        size = _rho(out, k, scratch)
        _on_halves(residual, halves)
        rho = _rho(out, k, scratch)
    return (rho + gamma * size) * (1.0 + (g.n + terms + 8) * EPS)


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
    return _root(rho2), _root(size2)


def _root(x) -> float:
    """sqrt(x) of a long double x >= 0, rounded to double through a power
    of four: math.sqrt(float(x)) to the last bit wherever float(x) is a
    normal number, and not 0 where x > 0 lies below double's range."""
    shift = min(int(np.frexp(x)[1]) // 2, 0)
    return math.sqrt(float(np.ldexp(x, -2 * shift))) * 2.0 ** shift


def _judged(g: Graph, k: StubbornnessVector, b: np.ndarray, y: np.ndarray,
            certify: Certificate, iterations: int, reason: str, out: np.ndarray,
            scratch: np.ndarray) -> SolverResult:
    """y judged by ``certify`` on its true residual (``proved_rho``, into
    ``out``): "certified" if the bound holds, ``reason`` if not.  Every
    check of ``_pcg`` and of a forest's factor solution."""
    rho = proved_rho(g, k, b, y, out, scratch)
    bound = certify.bound(y, out, rho)
    certified = bound <= certify.target
    return SolverResult(y=y, iterations=iterations, certified=certified, bound=bound,
                        stop_reason="certified" if certified else reason, rho=rho)


def _splu_symmetric(m):
    """SuperLU factor of an SPD m, ordered on its own pattern, no pivoting.

    A pivot that is exactly zero in double precision (L + K with every k
    below the rounding of deg + k) raises ``NumericalError``.
    """
    import scipy.sparse.linalg as spla  # only factoring needs it: a lazy import
    try:
        return spla.splu(m.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NumericalError(f"sparse factor failed: {exc}") from None


def _forest(g: Graph) -> bool:
    """Whether g is a forest, whose factor of L + K has no fill.

    Only m < n admits a forest, so only then are the components counted.
    """
    if g.m >= g.n:
        return False
    from scipy.sparse.csgraph import connected_components  # imports scipy.sparse.linalg
    return g.m == g.n - connected_components(g.adjacency, directed=False, return_labels=False)


def solve(g: Graph, k: StubbornnessVector, b: np.ndarray, certify: Certificate) -> SolverResult:
    """Solve (L + K) y = b until ``certify`` holds: the one solve path of
    every graph and every caller.

    A first solve: the factor of L + K on a forest, whose factor has no fill
    (L + K is built only for it), ``_pcg`` from ``g.adjacency`` on any
    other graph; the factor's solution is judged by the check that judges
    PCG's last iterate.  If that misses its certificate, refinement sweeps
    follow: iterative refinement with an extra-precise residual (Demmel et
    al., ACM TOMS 32(2), 2006; Carson & Higham, SISC 40(2), 2018).  Each
    sweep forms r = b - (L + K) y in long double (``proved_rho``), with y
    held in long double, and adds a correction d from the same solver: the
    kept factor, or ``_pcg`` to a relative energy-norm error of
    ``SWEEP_DELTA``.  The returned double q, y rounded, is judged with
    rho(y) + ||y - q||_{L+K}, which bounds ||q - x*||_{L+K}; the first sweep
    judges the first solve's y so, before any correction.  Sweeps stop once
    ``certify`` holds or once a sweep's rho(y) is no smaller than the last
    one's, as PCG's checks stop (stop_reason "stagnated").  The q of least
    bound judged is returned, judged once more where a later sweep judged
    worse: that holds one more q and its residual, only while sweeps run.
    ``iterations`` counts every PCG step run, 0 on a forest.  Nothing is
    kept after the call.  Deterministic for fixed inputs.
    """
    target = certify.target
    if not (0.0 < target < 1.0):
        raise GraphInputError(f"certificate target must be in (0, 1), got {target}")
    b = np.asarray(b, dtype=np.float64)
    if g.n != b.size:
        raise GraphInputError("right-hand side length does not match operator")
    if len(k) != b.size:
        raise GraphInputError("stubbornness length does not match operator")
    if _forest(g):
        lu = _splu_symmetric(operator_matrix(g, k))
        res = _judged(g, k, b, lu.solve(b), certify, 0, "stagnated",
                      np.empty_like(b), np.empty_like(b))
    else:
        lu, res = None, _pcg(g, k, b, certify)
    if res.certified:
        return res
    r, scratch = np.empty_like(b), np.empty_like(b)
    # kept: (bound, q, r, rho) of the least bound judged before the last sweep.
    y, iterations, last, kept = res.y.astype(np.longdouble), res.iterations, math.inf, (math.inf,)
    while True:
        rho = proved_rho(g, k, b, y, r, scratch)
        q = y.astype(np.float64)
        gap = np.subtract(y, q, out=scratch, casting="same_kind")  # y - q, rounded
        gap = math.sqrt(float(k.k @ (gap * gap)) + _disagreement(g, gap)) * (1.0 + (g.n + 8) * EPS)
        bound = certify.bound(q, r, rho + gap)
        if bound <= target or not rho < last:
            break
        if bound < kept[0]:
            kept = bound, q, r.copy(), rho + gap
        last = rho
        if lu is None:
            sweep = _pcg(g, k, r, energy_norm_certificate(r, SWEEP_DELTA))
            y += sweep.y
            iterations += sweep.iterations
        else:
            y += lu.solve(r)
    rho += gap
    if kept[0] < bound:
        # The last sweep judged worse: judge the kept q again, so that the
        # certificate's last judgment is of the q returned.
        _, q, r, rho = kept
        bound = certify.bound(q, r, rho)
    certified = bound <= target
    return SolverResult(y=q, iterations=iterations, certified=certified, bound=bound,
                        stop_reason="certified" if certified else "stagnated", rho=rho)


def _pcg(g: Graph, k: StubbornnessVector, b: np.ndarray, certify: Certificate) -> SolverResult:
    """Run PCG on (L + K) y = b until ``certify`` holds, for ``solve``,
    which has checked b and the target.

    A step is four passes over rows, each run on the row blocks of
    ``graph._halves`` (one block where the step is not split) and
    joined before the next: -(L + K) p; the x and r updates with -r / D
    and -r, where z = M^{-1} r starts; A (r / D) added onto -r and divided
    by -D; and p = beta p + z.  The products read all of p and of r / D, so
    each waits for the pass before it.  A zero b is judged by its check
    like any other: its first step stops at p.(L+K)p = 0.
    """
    target, n = certify.target, b.size
    neg_diag = _diagonal(g, k)
    np.negative(neg_diag, out=neg_diag)  # -(deg + k), the diagonal of -(L + K)

    # z holds the preconditioned residual M^{-1} r; between its uses it is
    # scratch, and tp holds -(L+K) p, which the next step forms again, and
    # in between -r / (deg + k) and rho's terms.  So a step allocates
    # nothing, and a true-residual check forms its residual in tp and its
    # rho in z, after which z is formed again.
    x = np.zeros(n)
    r = b.copy()
    tp, z, p = np.empty(n), np.empty(n), np.empty(n)
    halves = _halves(g.adjacency, x, r, z, p, tp, neg_diag)
    alpha = beta = 0.0

    def product(mv, x_, r_, z_, p_, tp_, d):  # tp = -(L + K) p
        mv(p, np.multiply(d, p_, out=tp_))

    def start(mv, x_, r_, z_, p_, tp_, d):  # tp = -r / D, z = -r
        np.divide(r_, d, out=tp_)
        np.negative(r_, out=z_)

    def update(mv, x_, r_, z_, p_, tp_, d):  # x += alpha p, r -= alpha (L + K) p
        np.multiply(p_, alpha, out=z_)
        x_ += z_
        tp_ *= alpha
        r_ += tp_
        start(mv, x_, r_, z_, p_, tp_, d)

    def finish(mv, x_, r_, z_, p_, tp_, d):  # z = (r + A (r / D)) / D
        mv(tp, z_)
        np.divide(z_, d, out=z_)

    def direction(mv, x_, r_, z_, p_, tp_, d):  # p = beta p + z
        p_ *= beta
        p_ += z_

    def precondition():
        _on_halves(start, halves)
        _on_halves(finish, halves)

    precondition()
    p[:] = z
    rz = float(r @ z)
    rho = _rho(r, k, tp)
    # ||x*||_{L+K} <= rho0 for x* = (L+K)^{-1} b, so no relative certificate
    # holds above target * rho0; the first true-residual check waits for it.
    goal = target * rho
    # Below eps^2 of its start, r.M^{-1}r lies under the rounding of the first
    # residual: the recurrence no longer follows the true residual, and left
    # to run it reaches subnormal numbers, where it diverges.
    floor = EPS * EPS * rz

    # rho of the true residual at the last failed check: the recurrence rho
    # keeps shrinking past the attainable floor, the true one does not.
    failed_rho = math.inf

    iters, reason = 0, "maxiter"
    while iters < MAX_ITERATIONS:
        _on_halves(product, halves)
        ptp = -float(p @ tp)
        if not ptp > 0.0:
            # p.(L+K)p = 0 only once p has underflowed; < 0 or NaN is no SPD matrix.
            reason = "stagnated" if ptp == 0.0 else "breakdown"
            break
        alpha = rz / ptp
        _on_halves(update, halves)
        iters += 1
        _on_halves(finish, halves)
        rz_new = float(r @ z)
        if rz_new <= floor:  # lost its precision, or vanished: the next rz_new / rz means nothing
            reason = "stagnated"
            break
        # rz <= rho^2 (M^{-1} <= K^{-1}), so rho cannot be at the goal before
        # sqrt(rz) is; the factor covers rounding where deg = 0.
        if math.sqrt(rz_new) <= goal * (1.0 + 1e-12):
            rho = _rho(r, k, tp)
            if rho <= goal:
                guess = math.nan if certify.estimate is None else certify.estimate(x, r, rho)
                if math.isfinite(guess) and guess > target:
                    # The recurrence says the bound cannot hold yet: aim lower, no SpMV.
                    goal = rho * (target / guess)
                else:
                    res = _judged(g, k, b, x, certify, iters, "stagnated", tp, z)
                    if res.certified or res.rho >= failed_rho:  # or no gain since the last check
                        return res
                    failed_rho = res.rho
                    # The bound grows at least linearly in rho: aim where it would hold.
                    goal = rho * (target / res.bound if math.isfinite(res.bound) else target)
                    precondition()
        beta = rz_new / rz
        _on_halves(direction, halves)
        rz = rz_new

    # Judge the last iterate on its true residual, not on the drifting recurrence.
    return _judged(g, k, b, x, certify, iters, reason, tp, z)
