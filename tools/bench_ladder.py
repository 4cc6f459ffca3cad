"""Per-layer ladder of one ``approxim`` solve, for the committed BENCH_*.json files.

    python3 tools/bench_ladder.py --src CHECKOUT/src --n 10000 [--repeats 5]

Imports fjopinion from ``--src`` (so a parent checkout and a change can be
measured with this one script), builds ``random_regular_graph(n, 4, 1)`` with
stubbornness ``generate_stubbornness(n, 0.01, 1.0, 5)`` and uniform opinions
(seed 7), and runs ``approxim`` at eps 1e-4 and then 1e-8, ``--repeats``
times each, in one process with BLAS on one thread.  It prints one JSON line
per eps: the iterations, the true-residual checks per solve, the medians of
the operator build, the PCG solve and the report's ``norms_seconds``, the
median of 30 SpMVs with L + K, and the peak RSS so far.  Run each n in its
own process, so that each peak RSS covers one instance.
"""

import argparse
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402


def timed(fn, seconds):
    def wrapped(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            seconds.append(time.perf_counter() - t0)
    return wrapped


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    import numpy as np
    from fjopinion import dynamics, generate, metrics, solver

    t0 = time.perf_counter()
    g = generate.random_regular_graph(args.n, 4, 1)
    k = generate.generate_stubbornness(args.n, 0.01, 1.0, 5)
    s = generate.generate_opinions(args.n, "uniform", 7)
    setup_s = time.perf_counter() - t0
    rss_setup = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t = dynamics.operator_matrix(g, k)
    p = np.ones(g.n)
    spmv = []
    for _ in range(30):
        t1 = time.perf_counter()
        t @ p
        spmv.append(time.perf_counter() - t1)
    del t

    # The names dynamics._solve looks up: L + K, PCG, and the true-residual
    # check (solve itself calls solver.check).
    operator_s, solve_s, checks = [], [], []
    dynamics.operator_matrix = timed(dynamics.operator_matrix, operator_s)
    dynamics.solve = timed(dynamics.solve, solve_s)
    solver.check = timed(solver.check, checks)
    dynamics.check = timed(dynamics.check, checks)

    for eps in (1e-4, 1e-8):
        for seconds in (operator_s, solve_s, checks):
            seconds.clear()
        norms, iterations = [], set()
        for _ in range(args.repeats):
            report = metrics.approxim(g, k, s, eps)
            if not report.certified:
                raise SystemExit(f"uncertified at n={g.n}, eps={eps}: {report.stop_reason}")
            norms.append(report.norms_seconds)
            iterations.add(report.solver_iterations)
        print(json.dumps({
            "n": g.n, "m": g.m, "eps": eps, "repeats": args.repeats,
            "iterations": sorted(iterations),
            "checks_per_solve": len(checks) / args.repeats,
            "setup_s": round(setup_s, 4),
            "operator_s": statistics.median(operator_s),
            "solve_s": statistics.median(solve_s),
            "norms_s": statistics.median(norms),
            "spmv_ms": 1e3 * statistics.median(spmv),
            "rss_after_setup_mb": round(rss_setup, 1),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }), flush=True)


if __name__ == "__main__":
    main()
