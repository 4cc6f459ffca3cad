"""Per-layer ladder of one ``approxim`` solve, of ``simulate_until`` and of
loading their instance from files, for the committed BENCH_*.json files.

    python3 tools/bench_ladder.py --src CHECKOUT/src --n 10000 [--repeats 5] [--degree 4]

Imports fjopinion from ``--src`` (a parent checkout is measured with its
own copy of this script, which times the names that checkout has), builds
``random_regular_graph(n, degree, 1)`` with stubbornness
``generate_stubbornness(n, 0.01, 1.0, 5)`` and uniform opinions (seed 7),
and runs ``approxim`` at eps 1e-4 and then 1e-8, ``--repeats`` times each,
in one process with BLAS on one thread.  It prints one JSON line per eps:
the iterations, the true-residual checks (calls of ``solver.proved_rho``)
and the products per solve, the medians of the ``approxim`` call, of its
PCG solve (``solver._pcg``), of the report's ``norms_seconds`` and of one
product of the solve and its checks (``product_ms``), the time of a step
outside its products (``outside_product_ms``: the solve's median less its
products, over its iterations), the threads a pass over the adjacency's
rows runs on (``product_threads``: the row blocks of ``graph._halves``, 2
where it splits the adjacency), the peak RSS so far, and the tracemalloc
peak of one more ``approxim`` call, in MiB and in n-vectors of float64.
Run each n in its own process, so that each peak RSS covers one instance.
A product is timed as the call of scipy's kernel that this thread makes
(``graph.csr_matvec``, the name each ``graph._halves`` call binds into its
row blocks): where the step is split, the worker runs the other half
meanwhile, and the wait for it counts outside the product.  (The ladder of a checkout
before the split step timed ``solver._matvec_into``, a whole product.)

It then runs ``simulate_until`` at eps 1e-8 from z0 = s, ``--repeats`` times,
and prints one JSON line: the medians of the equilibrium's solves (every
``dynamics.solve`` call of a run), of the
spectral bracket (with its iterations: power steps, plus inverse solves on
at most ``DENSE_CAP`` nodes, and its width) and of the rest, ``steps_s``,
which is the update steps with their norms; the update steps and ms per
step, ``product_threads`` as above, the peak RSS so far, and the
tracemalloc peak of one more ``simulate_until`` call, in MiB and in
n-vectors of float64.

It then writes the instance to a temporary folder as the CLI reads it: an
edge list ``u v`` per line with the node ids permuted over [0, 10n) (seed 11),
and the stubbornness and opinion files, ``node value`` per line.  A child
forked before the instance was built loads them as ``fjopinion metrics``
does (the value files through ``value_rows_ahead`` while the edge list
parses), ``--repeats`` times, each load freed before the next, so that its
ru_maxrss covers the loading alone.  It checks the vectors against the
instance each time and prints one more JSON line: the medians over the
loads of the seconds of ``load_edge_list`` and of its three stages (the
read and parse, ``_numeric_rows``; the id remap, ``_first_seen_ints``; and
``Graph.from_arrays``), of the wait for the value rows (from the end of
``load_edge_list`` to the return of ``value_rows_ahead``) and of each
``load_node_values`` call, the dtype of ``g.ids`` (its type where it is no
array), ru_maxrss after the first load, and the tracemalloc peaks of one
more ``load_edge_list`` call, made once the loaded graph and vectors are
freed, and of one more ``load_node_values`` call of each value file, which
parses its file in-process, made with only that graph kept.

The same files are also written with each id i spelled ``v<i>``, which the
C reader refuses, so both loaders read them by their loop over the lines.  A
second child, forked as the first was, loads that copy after the first one
exits: ``load_edge_list``, then ``load_node_values`` of each value file, with
no ``value_rows_ahead``, ``--repeats`` times.  It checks the vectors against
the instance each time and prints one more JSON line: the medians over the
loads of the seconds of each call, with ``load_edge_list`` split
into its three stages (``lines_s``, the read, the loop over the lines and
``_parse_id`` on the distinct tokens; ``id_remap_s``, its two ``_first_seen``
calls; and ``from_arrays_s``, ``Graph.from_arrays``), ru_maxrss after the
first load, and the tracemalloc peak of one more call of each, made with
only its graph kept.
"""

import argparse
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

ID_SEED = 11
SIMULATE_EPS = 1e-8


def maxrss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def timed(fn, seconds):
    def wrapped(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - t0)
    return wrapped


def this_thread_timed(fn, seconds):
    """``fn`` timed into ``seconds`` where this thread calls it, untimed on
    any other."""
    main = threading.get_ident()
    wrapped = timed(fn, seconds)
    return lambda *args: (wrapped if threading.get_ident() == main else fn)(*args)


def values(n):
    """The stubbornness and opinions of the ladder's instance."""
    from fjopinion import generate

    return (generate.generate_stubbornness(n, 0.01, 1.0, 5),
            generate.generate_opinions(n, "uniform", 7))


def instance(n, degree):
    """The instance of the ladder: graph, stubbornness and opinions."""
    from fjopinion import generate

    return (generate.random_regular_graph(n, degree, 1), *values(n))


def file_ids(n):
    """The id of each node in the files: distinct, drawn from [0, 10n)."""
    return np.random.default_rng(ID_SEED).choice(10 * n, n, replace=False)


def product_threads(g):
    """The threads that every pass over the rows of ``g.adjacency`` runs
    on: one for each row block of ``graph._halves``."""
    from fjopinion import graph

    return len(graph._halves(g.adjacency))


def simulate(g, k, s, repeats):
    """Time ``simulate_until`` from z0 = s by layer and print its line."""
    from fjopinion import dynamics

    # The names simulate_until looks up for its two stages: every solve of a
    # run is the equilibrium's.
    solves, equilibrium_s, bracket_s, total_s, brackets, steps = [], [], [], [], set(), set()
    dynamics.solve = timed(dynamics.solve, solves)
    dynamics.spectral_radius = timed(dynamics.spectral_radius, bracket_s)
    for _ in range(repeats):
        solves.clear()
        t0 = time.perf_counter()
        state, trace = dynamics.simulate_until(g, k, s, s, SIMULATE_EPS)
        total_s.append(time.perf_counter() - t0)
        equilibrium_s.append(sum(solves))
        steps.add(state.t)
        brackets.add((trace.spectral.iterations, trace.spectral.upper - trace.spectral.lower))
    if not (len(bracket_s) == repeats and all(equilibrium_s)):
        raise SystemExit("simulate_until no longer calls dynamics.solve and once "
                         f"dynamics.spectral_radius per run: {len(bracket_s)} bracket calls "
                         f"in {repeats} runs")
    steps_s = statistics.median(t - e - b for t, e, b in zip(total_s, equilibrium_s, bracket_s))
    line = {
        "n": g.n, "m": g.m, "simulate_until": True, "eps": SIMULATE_EPS, "repeats": repeats,
        "equilibrium_s": statistics.median(equilibrium_s),
        "bracket_s": statistics.median(bracket_s),
        "bracket_iterations": sorted(i for i, _ in brackets),
        "bracket_width": max(w for _, w in brackets),
        "update_steps": sorted(steps),
        "steps_s": steps_s,
        "step_ms": 1e3 * steps_s / max(steps),
        "product_threads": product_threads(g),
        "peak_rss_mb": maxrss_mb(),
    }
    add_peak(line, "simulate", g.n, dynamics.simulate_until, g, k, s, s, SIMULATE_EPS)
    print(json.dumps(line), flush=True)


FILES = ("g.txt", "k.txt", "s.txt")
STRING_FILES = ("g-v.txt", "k-v.txt", "s-v.txt")  # the same, with ids "v<id>"


def write_files(folder, g, k, s):
    ids = file_ids(g.n)
    for names, labels in ((FILES, ids.tolist()), (STRING_FILES, [f"v{i}" for i in ids.tolist()])):
        g_path, k_path, s_path = (os.path.join(folder, name) for name in names)
        with open(g_path, "w") as fh:
            ends = zip(g.edge_u.tolist(), g.edge_v.tolist())
            fh.writelines(f"{labels[u]} {labels[v]}\n" for u, v in ends)
        for path, values in ((k_path, k.k), (s_path, s)):
            with open(path, "w") as fh:
                fh.writelines(f"{i} {x!r}\n" for i, x in zip(labels, values.tolist()))


def check_values(n, g, k, s, file_id):
    """Exit unless k and s are the instance's values of each loaded node;
    ``file_id`` maps a label of ``g.ids`` to its id in the files."""
    k_ref, s_ref = values(n)
    ids = file_ids(n)
    by_id = np.argsort(ids)
    loaded = np.fromiter(map(file_id, g.ids.tolist()), np.int64, g.n)
    node = by_id[np.searchsorted(ids[by_id], loaded)]  # the instance's node of each loaded node
    if not (np.array_equal(k, k_ref.k[node]) and np.array_equal(s, s_ref[node])):
        raise SystemExit("loaded values differ from the instance")


def traced(fn, *args, **kwargs):
    """fn's result and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    result = fn(*args, **kwargs)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return result, peak


def mib(nbytes):
    return round(nbytes / 2**20, 1)


def add_peak(line, name, n, fn, *args):
    """Add the tracemalloc peak of one more ``fn(*args)`` call to ``line``:
    ``<name>_peak_mb`` in MiB and ``<name>_peak_vectors`` in n-vectors."""
    peak = traced(fn, *args)[1]
    line[f"{name}_peak_mb"], line[f"{name}_peak_vectors"] = mib(peak), round(peak / (8 * n), 2)


def medians(runs):
    """Each key's median over the runs, a list's element by element, in s to 0.1 ms."""
    def median(values):
        return round(statistics.median(values), 4)

    return {key: [median(column) for column in zip(*(run[key] for run in runs))]
            if isinstance(runs[0][key], list) else median([run[key] for run in runs])
            for key in runs[0]}


def load_files(folder, n, repeats):
    """The forked child's run: load the files as the CLI does ``repeats``
    times, print the line."""
    from fjopinion import graph

    # The names load_edge_list looks up for its three stages.
    parse_s, remap_s, build_s = [], [], []
    graph._numeric_rows = timed(graph._numeric_rows, parse_s)
    graph._first_seen_ints = timed(graph._first_seen_ints, remap_s)
    graph.Graph.from_arrays = timed(graph.Graph.from_arrays, build_s)

    g_path, k_path, s_path = (os.path.join(folder, name) for name in FILES)
    parse_end, runs = [], []

    def parse():
        g = graph.load_edge_list(g_path)
        parse_end.append(time.perf_counter())
        return g

    for _ in range(repeats):
        t0 = time.perf_counter()
        g, rows = graph.value_rows_ahead([k_path, s_path], parse)
        t2 = time.perf_counter()
        t1 = parse_end[-1]
        k = graph.load_node_values(k_path, g, name="stubbornness", rows=rows.get(k_path))
        t3 = time.perf_counter()
        s = graph.load_node_values(s_path, g, name="opinion", lo=-1.0, hi=1.0,
                                   rows=rows.get(s_path))
        t4 = time.perf_counter()
        if not runs:  # the first load's
            rss, ids = maxrss_mb(), str(getattr(g.ids, "dtype", type(g.ids).__name__))

        check_values(n, g, k, s, int)
        stages = [len(seconds) for seconds in (parse_s, remap_s, build_s)]
        if stages != [len(runs) + 1] * 3:
            raise SystemExit(f"the edge list did not take the C path: {stages}")
        runs.append({
            "load_edge_list_s": t1 - t0,
            "parse_s": parse_s[-1],
            "id_remap_s": remap_s[-1],
            "from_arrays_s": build_s[-1],
            "value_rows_wait_s": t2 - t1,
            "load_node_values_s": [t3 - t2, t4 - t3],
            "load_s": t4 - t0,
        })
        size = {"n": g.n, "m": g.m}
        del g, k, s, rows
    line = {**size, "files": True, "ids": ids, "repeats": repeats, **medians(runs),
            "maxrss_after_load_mb": rss}
    g, peak = traced(graph.load_edge_list, g_path)
    line["load_edge_list_peak_mb"] = mib(peak)
    line["load_node_values_peak_mb"] = [
        mib(traced(graph.load_node_values, k_path, g, name="stubbornness")[1]),
        mib(traced(graph.load_node_values, s_path, g, name="opinion", lo=-1.0, hi=1.0)[1]),
    ]
    print(json.dumps(line), flush=True)


def load_string_files(folder, n, repeats):
    """The second forked child's run: load the string-id copy ``repeats``
    times, print the line."""
    from fjopinion import graph

    # The names load_edge_list's loop path looks up for its last two stages.
    remap_s, build_s = [], []
    graph._first_seen = timed(graph._first_seen, remap_s)
    graph.Graph.from_arrays = timed(graph.Graph.from_arrays, build_s)

    g_path, k_path, s_path = (os.path.join(folder, name) for name in STRING_FILES)
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        g = graph.load_edge_list(g_path)
        t1 = time.perf_counter()
        k = graph.load_node_values(k_path, g, name="stubbornness")
        t2 = time.perf_counter()
        s = graph.load_node_values(s_path, g, name="opinion", lo=-1.0, hi=1.0)
        t3 = time.perf_counter()
        if not runs:  # the first load's
            rss = maxrss_mb()
        check_values(n, g, k, s, lambda label: int(label[1:]))
        stages = [len(seconds) for seconds in (remap_s, build_s)]
        if stages != [2 * len(runs) + 2, len(runs) + 1]:
            raise SystemExit("the string-id edge list did not number its ids in two stages: "
                             f"{stages}")
        remap, build = sum(remap_s[-2:]), build_s[-1]
        runs.append({
            "load_edge_list_s": t1 - t0,
            "lines_s": t1 - t0 - remap - build,
            "id_remap_s": remap,
            "from_arrays_s": build,
            "load_node_values_s": [t2 - t1, t3 - t2],
        })
        size, ids = {"n": g.n, "m": g.m}, str(g.ids.dtype)
        del g, k, s
    line = {**size, "string_files": True, "ids": ids, "repeats": repeats,
            **medians(runs), "maxrss_after_load_mb": rss}
    g, peak = traced(graph.load_edge_list, g_path)
    line["load_edge_list_peak_mb"] = mib(peak)
    line["load_node_values_peak_mb"] = [
        mib(traced(graph.load_node_values, k_path, g, name="stubbornness")[1]),
        mib(traced(graph.load_node_values, s_path, g, name="opinion", lo=-1.0, hi=1.0)[1]),
    ]
    print(json.dumps(line), flush=True)


def fork_loader(load, n, repeats, others):
    """A child that waits for the folder's name on a pipe, then runs
    ``load(folder, n, repeats)``; returns its pid and the pipe's write end.
    ``others``: the write ends of children forked before, which this one
    closes, or their reads would not see the end of the pipe."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        for fd in (write_end, *others):
            os.close(fd)
        code = 1
        try:
            with os.fdopen(read_end) as pipe:
                folder = pipe.read()
            if folder:  # empty: the parent stopped before writing the files
                load(folder, n, repeats)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(read_end)
    return pid, write_end


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--degree", type=int, default=4)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    from fjopinion import dynamics, graph, metrics, solver

    # Forked while this process is small: a child's ru_maxrss starts from
    # the parent's RSS at the fork.
    loaders = []
    for load in (load_files, load_string_files):
        loaders.append(fork_loader(load, args.n, args.repeats, [pipe for _, pipe in loaders]))
    t0 = time.perf_counter()
    g, k, s = instance(args.n, args.degree)
    setup_s = time.perf_counter() - t0
    rss_setup = maxrss_mb()

    # The names solver.solve looks up: PCG and the routine that bounds every
    # true residual; and the kernel of every product, timed in this thread.
    solve_s, checks, products = [], [], []
    solver._pcg = timed(solver._pcg, solve_s)
    solver.proved_rho = timed(solver.proved_rho, checks)
    kernel = graph.csr_matvec
    graph.csr_matvec = this_thread_timed(kernel, products)

    for eps in (1e-4, 1e-8):
        for seconds in (solve_s, checks, products):
            seconds.clear()
        approxim_s, norms, iterations = [], [], set()
        for _ in range(args.repeats):
            t1 = time.perf_counter()
            report = metrics.approxim(g, k, s, eps)
            approxim_s.append(time.perf_counter() - t1)
            if not report.certified:
                raise SystemExit(f"uncertified at n={g.n}, eps={eps}: {report.stop_reason}")
            norms.append(report.norms_seconds)
            iterations.add(report.solver_iterations)
        per_solve, product_s = len(products) / args.repeats, statistics.median(products)
        line = {
            "n": g.n, "m": g.m, "eps": eps, "repeats": args.repeats,
            "iterations": sorted(iterations),
            "checks_per_solve": len(checks) / args.repeats,
            "products_per_solve": per_solve,
            "setup_s": round(setup_s, 4),
            "approxim_s": statistics.median(approxim_s),
            "solve_s": statistics.median(solve_s),
            "norms_s": statistics.median(norms),
            "product_ms": 1e3 * product_s,
            "outside_product_ms": 1e3 * (statistics.median(solve_s) - per_solve * product_s)
            / max(iterations),
            "product_threads": product_threads(g),
            "rss_after_setup_mb": rss_setup,
            "peak_rss_mb": maxrss_mb(),
        }
        add_peak(line, "approxim", g.n, metrics.approxim, g, k, s, eps)
        print(json.dumps(line), flush=True)
    graph.csr_matvec = kernel

    simulate(g, k, s, args.repeats)

    with tempfile.TemporaryDirectory() as folder:
        write_files(folder, g, k, s)
        del g, k, s  # the children's loads run with this process's instance freed
        for loader, folder_pipe in loaders:  # one after the other
            with os.fdopen(folder_pipe, "w") as pipe:
                pipe.write(folder)
            _, status = os.waitpid(loader, 0)
            if status:
                raise SystemExit(f"a loading child failed with status {status}")


if __name__ == "__main__":
    main()
