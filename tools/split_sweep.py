"""Crossover sweep of the two-thread step: the products and the whole
``approxim`` call split and serial, by the entries of the adjacency, for
choosing ``graph.SPLIT_ENTRIES``.

    python3 tools/split_sweep.py --src CHECKOUT/src [--n 100000 300000 ...] [--rounds 5]

For each n it builds the ladder's instance (``random_regular_graph(n, 4, 1)``,
stubbornness ``generate_stubbornness(n, 0.01, 1.0, 5)``, uniform opinions
seed 7) and runs ``approxim`` at eps 1e-8 ``--rounds`` times with every
pass over rows split (``SPLIT_ENTRIES`` at 0) and as often with none (at
2^62), the two alternating and the side that goes first swapped each round,
in one process with BLAS on one thread.  It times each call of scipy's
kernel that this thread makes (``graph.csr_matvec``, one per product; where
split, the worker runs the other half meanwhile) and each ``approxim``
call, and prints one JSON line per n: the entries, the median product and
``approxim`` call of each side, the rounds whose split median beat the
serial one (``split_wins`` for the product, ``approxim_split_wins`` for
the call), and whether the two sides' reports are the same but for their
timings.  ``--force`` splits whatever the affinity mask holds, to measure
the split under ``taskset -c 0``; there the worker's half waits for this
thread's, so only ``approxim_split_wins`` tells the two sides apart.
"""

import argparse
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--n", type=int, nargs="+",
                        default=[50_000, 100_000, 150_000, 200_000, 250_000, 300_000, 1_000_000])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    from fjopinion import generate, graph
    from fjopinion.metrics import approxim

    if args.force:
        graph._two_cpus = lambda: True
    products, main = [], threading.get_ident()
    real = graph.csr_matvec

    def timed(*args):
        if threading.get_ident() != main:
            return real(*args)
        t0 = time.perf_counter()
        try:
            return real(*args)
        finally:
            products.append(time.perf_counter() - t0)

    graph.csr_matvec = timed
    sides = {"serial": 1 << 62, "split": 0}
    for n in args.n:
        g = generate.random_regular_graph(n, 4, 1)
        k = generate.generate_stubbornness(n, 0.01, 1.0, 5)
        s = generate.generate_opinions(n, "uniform", 7)
        product_ms = {side: [] for side in sides}
        approxim_s = {side: [] for side in sides}
        reports = {}
        for r in range(args.rounds + 1):  # round 0 warms up and starts the worker
            for side in (sorted(sides) if r % 2 else sorted(sides, reverse=True)):
                graph.SPLIT_ENTRIES = sides[side]
                products.clear()
                t0 = time.perf_counter()
                report = approxim(g, k, s, 1e-8).to_dict()
                seconds = time.perf_counter() - t0
                del report["solve_seconds"], report["norms_seconds"]
                reports.setdefault(side, report)
                if r:
                    approxim_s[side].append(seconds)
                    product_ms[side].append(1e3 * statistics.median(products))
        line = {"n": n, "entries": int(g.adjacency.data.size),
                "cpus": len(os.sched_getaffinity(0)), "rounds": args.rounds,
                "same_reports": reports["serial"] == reports["split"]}
        for side in sides:
            line[f"{side}_product_ms"] = round(statistics.median(product_ms[side]), 3)
            line[f"{side}_approxim_s"] = round(statistics.median(approxim_s[side]), 4)
        line["split_wins"] = sum(a < b for a, b in zip(product_ms["split"], product_ms["serial"]))
        line["approxim_split_wins"] = sum(
            a < b for a, b in zip(approxim_s["split"], approxim_s["serial"]))
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
