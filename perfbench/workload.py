"""The measured process: imports fjopinion, sets up in memory, runs ops.

Started by ``run.py`` with BLAS pinned to one thread; one caller runs one
operation at a time (closed loop).  It writes ``result.json`` and
``arrays.npz`` into the run directory and prints nothing the harness reads.

    python3 perfbench/workload.py probe          # print the import time only
    python3 perfbench/workload.py RUN_DIR        # RUN_DIR/config.json in
"""

import time

T_START = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def import_program():
    import fjopinion  # noqa: F401
    import fjopinion.cli
    import fjopinion.dynamics
    import fjopinion.generate
    import fjopinion.graph
    import fjopinion.metrics

    return fjopinion


if len(sys.argv) == 2 and sys.argv[1] == "probe":
    import_program()
    print(time.perf_counter() - T_START)
    sys.exit(0)

fjopinion = import_program()
IMPORT_S = time.perf_counter() - T_START

import numpy as np  # noqa: E402
import scipy.sparse  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402

cli = fjopinion.cli
dynamics = fjopinion.dynamics
generate = fjopinion.generate
graph = fjopinion.graph
metrics = fjopinion.metrics

SOLVE_CYCLE = [("uniform", 1e-4), ("powerlaw", 1e-8), ("normal", 1e-4), ("exponential", 1e-8)]
EXACT_EPS = 1e-8

CAL_TEXT = "\n".join(f"{i * 7919 % 1000003} {i * 104729 % 1000003} {i / 7:.17g}"
                     for i in range(20_000))
CAL_VEC = np.linspace(0.1, 0.9, 2000)


def calibrate_interpreter():
    """Seconds for a fixed slice of interpreter-bound work, none of it fjopinion's.

    Parses lines into a dict, then makes many small numpy calls: the kind of
    work that dominates the ingest and exact-dynamics ops.
    """
    t = time.perf_counter()
    merged = {}
    for line in CAL_TEXT.split("\n"):
        u, v, w = line.split()
        key = (int(u), int(v))
        merged[key] = merged.get(key, 0.0) + float(w)
    x = np.ones(CAL_VEC.size)
    for _ in range(3000):
        x = CAL_VEC * x + 1.0
        float(x @ x)
    return time.perf_counter() - t


class SpmvCalibration:
    """Seconds for six products with a fixed random sparse matrix shaped like
    the solve workload's operator: memory-bound work, none of it fjopinion's."""

    def __init__(self, n, per_row=5):
        rng = np.random.default_rng(0)
        rows = np.repeat(np.arange(n), per_row)
        cols = rng.integers(0, n, size=rows.size)
        self.matrix = scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        self.x = rng.standard_normal(n)

    def __call__(self):
        t = time.perf_counter()
        for _ in range(6):
            self.matrix @ self.x
        return time.perf_counter() - t


# --- set-up: build the in-memory inputs with the program's own generators ---

def setup_ingest(cfg):
    return {}


def setup_solve(cfg):
    n, sd = cfg["n"], cfg["seeds"]
    g = generate.random_regular_graph(n, cfg["degree"], sd[0])
    k = generate.generate_stubbornness(n, 0.01, 1.0, sd[1])
    s = {d: generate.generate_opinions(n, d, sd[2] + i) for i, (d, _) in enumerate(SOLVE_CYCLE)}
    return {"g": g, "k": k, "s": s}


def setup_exact(cfg):
    sd = cfg["seeds"]
    reg = cfg["regular_n"]
    g = generate.random_regular_graph(reg, 4, sd[0])
    k = generate.generate_stubbornness(reg, 0.5, 2.0, sd[1])
    s = generate.generate_opinions(reg, "powerlaw", sd[2])
    path_n = cfg["path_n"]
    pg = graph.build_graph([(i, i + 1, 1.0) for i in range(path_n - 1)])
    pk = graph.StubbornnessVector.uniform(path_n, cfg["path_k"])
    ps = generate.generate_opinions(path_n, "uniform", sd[3])
    return {"instances": [("regular", g, k, s), ("path", pg, pk, ps)]}


# --- one operation each; returns (edges processed, output record, arrays) ---

def op_ingest(cfg, inputs, j):
    argv = ["metrics", "--graph", cfg["graph"], "--stubbornness", cfg["stubbornness"],
            "--opinions", cfg["opinions"], "--mode", "approx", "--eps", str(cfg["eps"]),
            "--out", cfg["report"]]
    if os.path.exists(cfg["report"]):
        os.remove(cfg["report"])
    t = time.perf_counter()
    rc = cli.main(argv)
    dt = time.perf_counter() - t
    record = {"rc": rc}
    if rc == 0:
        with open(cfg["report"]) as fh:
            record["report"] = json.load(fh)
    return dt, cfg["edge_lines"], record, {}


def op_solve(cfg, inputs, j):
    dist, eps = SOLVE_CYCLE[j]
    g, k = inputs["g"], inputs["k"]
    t = time.perf_counter()
    report = metrics.approxim(g, k, inputs["s"][dist], eps)
    dt = time.perf_counter() - t
    return dt, g.m, {"dist": dist, "eps": eps, "report": report.to_dict()}, {}


def op_exact(cfg, inputs, j):
    record, arrays, edges, dt = {}, {}, 0, 0.0
    for name, g, k, s in inputs["instances"]:
        t = time.perf_counter()
        exact = metrics.metrics_exact(g, k, s)
        approx = metrics.approxim(g, k, s, EXACT_EPS)
        est = dynamics.spectral_radius(g, k)
        state, trace = dynamics.simulate_until(g, k, s, z0=s.copy(), eps=EXACT_EPS)
        dt += time.perf_counter() - t
        edges += g.m
        record[name] = {
            "exact": exact.to_dict(),
            "approx": approx.to_dict(),
            "spectral": {"rho_max": est.rho_max, "residual": est.residual,
                         "iterations": est.iterations, "converged": est.converged},
            "simulation": {"steps": state.t, "f_final": trace.f_norms[-1]},
        }
        arrays[name] = state.z
    return dt, edges, record, arrays


# (set-up, op, ops per cycle, calibration of the op's kind of work).  Each
# calibration runs just before and just after every op and set-up; the
# harness scales times by it, because the shared host's speed drifts.
WORKLOADS = {
    "ingest": (setup_ingest, op_ingest, 1, lambda cfg: calibrate_interpreter),
    "solve": (setup_solve, op_solve, len(SOLVE_CYCLE), lambda cfg: SpmvCalibration(cfg["n"])),
    "exact-dynamics": (setup_exact, op_exact, 1, lambda cfg: calibrate_interpreter),
}


def input_arrays(inputs):
    """The vectors the program was given, for the harness's reference."""
    if "g" in inputs:
        return {"k": inputs["k"].k, **{f"s_{d}": s for d, s in inputs["s"].items()}}
    out = {}
    for name, _, k, s in inputs.get("instances", []):
        out[f"{name}_k"], out[f"{name}_s"] = k.k, s
    return out


def run_ops(cfg, inputs, op, cycle, calibrate, budget, tracer, arrays, alternate):
    """Whole cycles of ops until ``budget`` seconds of wall time have passed.

    With ``alternate``, every second cycle runs traced, and the run ends on
    a traced cycle, so traced and untraced ops are equal in number and
    interleaved in time.
    """
    ops = []
    start = time.perf_counter()
    cycles = 0
    while True:
        traced = alternate and cycles % 2 == 1
        if traced:
            tracer.install()
        else:
            tracer.kept.clear()
        for j in range(cycle):
            index = len(ops)
            before = calibrate()
            gc.collect()
            tracer.op = f"op{index}"
            try:
                dt, edges, record, out_arrays = op(cfg, inputs, j)
            except Exception as exc:  # an op that raises is a counted failure
                traceback.print_exc()
                ops.append({"index": index, "traced": traced, "error": repr(exc)})
                continue
            ops.append({"index": index, "traced": traced, "seconds": dt,
                        "cal": (before + calibrate()) / 2, "edges": edges, "output": record})
            for name, arr in out_arrays.items():
                arrays[f"op{index}_{name}"] = arr
        if traced:
            tracer.uninstall()
        cycles += 1
        if time.perf_counter() - start >= budget and not (alternate and cycles % 2):
            return ops


def time_spmv(matrix, reps=30):
    x = np.random.default_rng(0).standard_normal(matrix.shape[0])
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        matrix @ x
        times.append(time.perf_counter() - t)
    computed = (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
                + 2 * x.nbytes)
    return float(np.median(times)), int(computed)


def main(run_dir):
    with open(os.path.join(run_dir, "config.json")) as fh:
        cfg = json.load(fh)
    setup, op, cycle, make_calibration = WORKLOADS[cfg["workload"]]
    calibrate = make_calibration(cfg)
    traced = bool(cfg["trace"])
    tracer = Tracer()

    # Set up several times; the last inputs are the ones the ops use.  In a
    # traced run the set-ups are traced too (generator and graph-construction layers).
    if traced:
        tracer.install()
    build_s, build_cal = [], []
    inputs = None
    for r in range(cfg["setups"]):
        inputs = None
        before = calibrate()
        gc.collect()
        tracer.op = f"setup{r}"
        t = time.perf_counter()
        inputs = setup(cfg)
        build_s.append(time.perf_counter() - t)
        build_cal.append((before + calibrate()) / 2)
    tracer.uninstall()

    arrays = input_arrays(inputs)

    result = {"import_s": IMPORT_S, "build_s": build_s, "build_cal": build_cal,
              "ops": run_ops(cfg, inputs, op, cycle, calibrate, cfg["seconds"], tracer, arrays, traced)}
    if traced:
        result["sites_missing"] = tracer.sites_missing
        result["spans"] = tracer.spans
        kept = tracer.kept.get("graph.operator_matrix")
        if kept is not None:
            result["spmv_s"], result["spmv_bytes"] = time_spmv(kept)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    np.savez(os.path.join(run_dir, "arrays.npz"), **arrays)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
