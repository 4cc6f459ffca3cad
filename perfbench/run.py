"""fjopinion benchmark: one command that runs a workload, checks it, and
prints every metric by name with its unit.

    python3 perfbench/run.py --workload {ingest,solve,exact-dynamics} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (``src/fjopinion`` must exist).  The
measured program runs in its own process (``workload.py``); this harness
writes input files, computes the independent reference after the run, checks
every op, and prints a provenance line, a metric table and, as the last line
of standard output, the result object.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run.  Generated files
live under ``.bench_build/`` in the checkout and are deleted at exit; the span
file of a traced run is kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer  # noqa: E402

SETUPS = 3
CHILD_TIMEOUT_S = 150
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = {
    "ingest": {"n": 100_000, "degree": 4, "eps": 1e-6, "dup_frac": 0.02, "loops": 8},
    "solve": {"n": 300_000, "degree": 4},
    "exact-dynamics": {"regular_n": 3000, "path_n": 2000, "path_k": 0.05},
}
EXACT_EPS = 1e-8
# End-to-end times are reported at the host speed where the workload's
# calibration (see workload.WORKLOADS) takes this long, about its median on
# the 2-vCPU host the bounds were set on.
CAL_REFERENCE_S = 0.05

END_TO_END = [("setup_s", "s"), ("op_p50_s", "s"), ("edges_per_s", "1/s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("cli.main_s", "s"), ("cli.self_s", "s"),
    ("graph.load_edge_list_s", "s"), ("graph.parse_s", "s"), ("graph.build_graph_s", "s"),
    ("graph.load_node_values_s", "s"), ("graph.merge_ratio", "ratio"),
    ("generate.random_regular_graph_s", "s"), ("graph.operator_matrix_s", "s"),
    ("solver.solve_s", "s"), ("solver.iterations", "count"), ("solver.iter_ms", "ms"),
    ("solver.spmv_ms", "ms"), ("solver.spmv_bytes_computed", "bytes"),
    ("solver.certified_frac", "ratio"),
    ("metrics.approxim_s", "s"), ("metrics.approxim_self_s", "s"), ("metrics.norms_s", "s"),
    ("metrics.centered_frac", "ratio"), ("metrics.max_rel_err", "ratio"),
    ("metrics.metrics_exact_s", "s"), ("dynamics.equilibrium_s", "s"),
    ("dynamics.spectral_radius_s", "s"), ("dynamics.spectral_iterations", "count"),
    ("dynamics.spectral_converged_frac", "ratio"),
    ("dynamics.simulate_until_s", "s"), ("dynamics.simulate_steps", "count"),
    ("trace_overhead_frac", "ratio"), ("certified_frac", "ratio"), ("fail_frac", "ratio"),
]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def powerlaw_opinions(rng, n, exponent=2.5):
    raw = (1.0 - rng.uniform(0.0, 1.0, size=n)) ** (-1.0 / (exponent - 1.0))
    return 2.0 * (raw - raw.min()) / (raw.max() - raw.min()) - 1.0


def write_ingest_inputs(run_dir, seed, spec):
    """Edge list with random integer ids, reverse duplicates, loops, headers.

    Returns the file config for the program and the raw arrays (over dense
    indices) for the reference.
    """
    rng = np.random.default_rng(seed)
    n = spec["n"]
    ids = rng.choice(10**9, size=n, replace=False)
    u, v, _ = reference.configuration_model(n, spec["degree"], int(rng.integers(2**32)))
    w = rng.uniform(0.5, 2.0, size=u.size)
    dup = rng.choice(u.size, size=int(spec["dup_frac"] * u.size), replace=False)
    loop_nodes = rng.choice(n, size=spec["loops"], replace=False)
    u, v = (np.concatenate([u, v[dup], loop_nodes]),
            np.concatenate([v, u[dup], loop_nodes]))
    w = np.concatenate([w, rng.uniform(0.5, 2.0, size=dup.size + loop_nodes.size)])
    order = rng.permutation(u.size)
    u, v, w = u[order], v[order], w[order]
    k = rng.uniform(0.5, 2.0, size=n)
    s = powerlaw_opinions(rng, n)

    paths = {name: os.path.join(run_dir, f"{name}.txt") for name in ("graph", "k", "s")}
    with open(paths["graph"], "w") as fh:
        fh.write("% bip unweighted\n# fjopinion benchmark edge list: u v w\n")
        fh.write("\n".join(f"{a} {b} {c!r}" for a, b, c in
                           zip(ids[u].tolist(), ids[v].tolist(), w.tolist())))
        fh.write("\n")
    for name, values in (("k", k), ("s", s)):
        node_order = rng.permutation(n)
        with open(paths[name], "w") as fh:
            fh.write("\n".join(f"{a} {b!r}" for a, b in
                               zip(ids[node_order].tolist(), values[node_order].tolist())))
            fh.write("\n")
    cfg = {"graph": paths["graph"], "stubbornness": paths["k"], "opinions": paths["s"],
           "report": os.path.join(run_dir, "report.json"), "eps": spec["eps"],
           "edge_lines": int(u.size)}
    return cfg, (n, u, v, w, k, s)


def child_env(root):
    env = dict(os.environ, **BLAS_PIN)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, env, root):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "workload.py"), *args],
                          env=env, cwd=root, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"workload process exited with code {proc.returncode}")
    return proc.stdout.decode()


def provenance(seed, workload, sizes, extra):
    l3 = None
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    if os.path.exists(path):
        with open(path) as fh:
            l3 = fh.read().strip()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_PIN, "l3_cache": l3, "inputs": sizes, **extra}


# --- checks: one list of failures per op --------------------------------------

def check_ingest(ops, ref_inputs):
    n, u, v, w, k, s = ref_inputs
    system = reference.System(n, u, v, w, k)
    z = system.solve_tight(k * s)[:, 0]
    refs = system.solutions(z, s)
    fails, worst, flags = [], 0.0, []
    for op in ops:
        out = op["output"]
        if out["rc"] != 0:
            fails.append([f"cli exit code {out['rc']}"])
            continue
        f, err = reference.check_report(out["report"], refs, system.n, system.m, WORKLOADS["ingest"]["eps"])
        fails.append(f)
        worst = max(worst, err)
        flags.append(out["report"]["certified"])
    return fails, worst, flags, [{"n": system.n, "m": system.m, "lines": int(u.size)}]


def check_solve(ops, arrays, seeds):
    spec = WORKLOADS["solve"]
    u, v, w = reference.configuration_model(spec["n"], spec["degree"], seeds[0])
    k = arrays["k"]
    system = reference.System(spec["n"], u, v, w, k)
    dists = sorted({op["output"]["dist"] for op in ops})
    z = system.solve_tight(np.column_stack([k * arrays[f"s_{d}"] for d in dists]))
    refs = {d: system.solutions(z[:, i], arrays[f"s_{d}"]) for i, d in enumerate(dists)}
    fails, worst, flags = [], 0.0, []
    for op in ops:
        out = op["output"]
        f, err = reference.check_report(out["report"], refs[out["dist"]], system.n, system.m, out["eps"])
        fails.append(f)
        worst = max(worst, err)
        flags.append(out["report"]["certified"])
    return fails, worst, flags, [{"n": system.n, "m": system.m, "lines": int(u.size)}]


def check_exact(ops, arrays, seeds):
    spec = WORKLOADS["exact-dynamics"]
    pn = spec["path_n"]
    u, v, w = reference.configuration_model(spec["regular_n"], 4, seeds[0])
    path = np.arange(pn - 1)
    systems = {
        "regular": (reference.System(spec["regular_n"], u, v, w, arrays["regular_k"]), u.size),
        "path": (reference.System(pn, path, path + 1, np.ones(pn - 1), arrays["path_k"]), pn - 1),
    }
    refs = {}
    for name, (system, _) in systems.items():
        s = arrays[f"{name}_s"]
        z = system.solve_dense(system.k * s)
        rho = system.rho_dense() if name == "regular" else system.rho_path()
        refs[name] = (z, system.solutions(z, s), rho)
    fails, worst, flags = [], 0.0, []
    for op in ops:
        f = []
        for name, (system, _) in systems.items():
            out = op["output"][name]
            z, sol, rho = refs[name]
            for kind in ("exact", "approx"):
                more, err = reference.check_report(out[kind], sol, system.n, system.m, EXACT_EPS)
                f += [f"{name} {kind}: {x}" for x in more]
                worst = max(worst, err)
                flags.append(out[kind]["certified"])
            f += [f"{name}: {x}" for x in reference.check_spectral(out["spectral"], rho)]
            f += [f"{name}: {x}" for x in reference.check_simulation(
                out["simulation"], arrays[f"op{op['index']}_{name}"], system, z, EXACT_EPS)]
            flags.append(out["spectral"]["converged"])
        fails.append(f)
    return fails, worst, flags, [{"name": name, "n": s.n, "m": s.m, "lines": int(lines)}
                                 for name, (s, lines) in systems.items()]


# --- metrics ------------------------------------------------------------------

def frac(flags):
    return sum(map(bool, flags)) / len(flags) if flags else None


def op_p50(ops):
    """Median op time scaled to the reference speed by the op's own calibration."""
    times = [op["seconds"] * CAL_REFERENCE_S / op["cal"] for op in ops if "seconds" in op]
    return statistics.median(times) if times else None


def end_to_end(result, import_s):
    ops = [op for op in result["ops"] if "seconds" in op]
    setup_scale = CAL_REFERENCE_S / statistics.median(result["build_cal"])
    return {
        "setup_s": (statistics.median(import_s) + statistics.median(result["build_s"])) * setup_scale,
        "op_p50_s": op_p50(ops),
        "edges_per_s": statistics.median(op["edges"] * op["cal"] / (op["seconds"] * CAL_REFERENCE_S)
                                         for op in ops),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def wall_summary(result, import_s):
    """The same times unscaled, as the wall clock read them."""
    ops = [op for op in result["ops"] if "seconds" in op]
    return {
        "wall setup_s": statistics.median(import_s) + statistics.median(result["build_s"]),
        "wall op_p50_s": statistics.median(op["seconds"] for op in ops),
        "calibrate_s (median)": statistics.median(op["cal"] for op in ops),
    }


def per_layer(result, sizes, worst, flags, fail_frac):
    spans = result["spans"]
    own = tracer.self_times(spans)
    traced = [op for op in result["ops"] if op["traced"]]
    plain = [op for op in result["ops"] if not op["traced"]]

    def total(name):
        return tracer.per_op_median(spans, name, lambda i, s: s["end"] - s["start"])

    def self_time(name):
        return tracer.per_op_median(spans, name, lambda i, s: own[i])

    def mean(values):
        return sum(values) / len(values) if values else None

    solve_iters = tracer.layer_attrs(spans, "solver.solve", "iterations")
    solve_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "solver.solve")
    spectral = "dynamics.spectral_radius"
    return {
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "graph.load_edge_list_s": total("graph.load_edge_list"),
        "graph.parse_s": self_time("graph.load_edge_list"),
        "graph.build_graph_s": total("graph.build_graph"),
        "graph.load_node_values_s": total("graph.load_node_values"),
        "graph.merge_ratio": sum(x["m"] for x in sizes) / sum(x["lines"] for x in sizes),
        "generate.random_regular_graph_s": total("generate.random_regular_graph"),
        "graph.operator_matrix_s": total("graph.operator_matrix"),
        "solver.solve_s": total("solver.solve"),
        "solver.iterations": mean(solve_iters),
        "solver.iter_ms": 1e3 * solve_s / sum(solve_iters) if sum(solve_iters) else None,
        "solver.spmv_ms": 1e3 * result["spmv_s"] if "spmv_s" in result else None,
        "solver.spmv_bytes_computed": result.get("spmv_bytes"),
        "solver.certified_frac": frac(tracer.layer_attrs(spans, "solver.solve", "certified")),
        "metrics.approxim_s": total("metrics.approxim"),
        "metrics.approxim_self_s": self_time("metrics.approxim"),
        "metrics.norms_s": tracer.per_op_median(spans, "metrics.approxim",
                                                lambda i, s: s["attrs"]["norms_s"]),
        "metrics.centered_frac": frac(tracer.layer_attrs(spans, "metrics.approxim", "centered")),
        "metrics.max_rel_err": worst,
        "metrics.metrics_exact_s": total("metrics.metrics_exact"),
        "dynamics.equilibrium_s": total("dynamics.equilibrium"),
        "dynamics.spectral_radius_s": total(spectral),
        "dynamics.spectral_iterations": mean(tracer.layer_attrs(spans, spectral, "iterations")),
        "dynamics.spectral_converged_frac": frac(tracer.layer_attrs(spans, spectral, "converged")),
        "dynamics.simulate_until_s": total("dynamics.simulate_until"),
        "dynamics.simulate_steps": mean(tracer.layer_attrs(spans, "dynamics.simulate_until", "steps")),
        "trace_overhead_frac": op_p50(traced) / op_p50(plain) - 1.0,
        "certified_frac": frac(flags),
        "fail_frac": fail_frac,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fjopinion", "__init__.py")):
        die("run from the root of a fjopinion checkout: src/fjopinion not found")
    run_dir = os.path.join(root, ".bench_build", f"perfbench-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        spec = WORKLOADS[args.workload]
        seeds = [int(x) for x in np.random.SeedSequence(args.seed).generate_state(4)]
        cfg = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "setups": SETUPS, "seeds": seeds, **spec}
        ref_inputs = None
        if args.workload == "ingest":
            files, ref_inputs = write_ingest_inputs(run_dir, args.seed, spec)
            cfg.update(files)
        with open(os.path.join(run_dir, "config.json"), "w") as fh:
            json.dump(cfg, fh)

        env = child_env(root)
        import_s = [float(run_child(["probe"], env, root)) for _ in range(SETUPS - 1)]
        run_child([run_dir], env, root)
        with open(os.path.join(run_dir, "result.json")) as fh:
            result = json.load(fh)
        with np.load(os.path.join(run_dir, "arrays.npz")) as npz:
            arrays = dict(npz)
        import_s.append(result["import_s"])

        ok_ops = [op for op in result["ops"] if "seconds" in op]
        if not ok_ops:
            die("every op raised; see the tracebacks above")
        if args.workload == "ingest":
            checks = check_ingest(ok_ops, ref_inputs)
        elif args.workload == "solve":
            checks = check_solve(ok_ops, arrays, seeds)
        else:
            checks = check_exact(ok_ops, arrays, seeds)
        op_fails, worst, flags, sizes = checks
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for op in result["ops"]:
        if "error" in op:
            print(f"op{op['index']} raised: {op['error']}")
    for op, fails in zip(ok_ops, op_fails):
        for msg in fails:
            print(f"op{op['index']} check failed: {msg}")
    attempted = len(result["ops"])
    failed = attempted - len(ok_ops) + sum(1 for f in op_fails if f)
    fail_frac = failed / attempted

    extra = {"ops": attempted, "setups": SETUPS, "run_seconds": args.seconds}
    if args.trace:
        metrics = per_layer(result, sizes, worst, flags, fail_frac)
        units = dict(PER_LAYER)
        trace_path = os.path.join(root, ".bench_build", f"perfbench-trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump(result["spans"], fh)
        extra["trace_file"] = os.path.relpath(trace_path, root)
        extra["sites_missing"] = result["sites_missing"]
        extra["not_observed"] = sorted(name for name, value in metrics.items() if value is None)
        metrics = {name: (0.0 if value is None else value) for name, value in metrics.items()}
    else:
        metrics = end_to_end(result, import_s)
        units = dict(END_TO_END)

    print(json.dumps({"provenance": provenance(args.seed, args.workload, sizes, extra)}, sort_keys=True))
    print("op seconds: " + " ".join(f"{op['seconds']:.3f}" for op in ok_ops))
    print(json.dumps(wall_summary(result, import_s)))
    print(f"op_p50_s over {len(ok_ops)} ops; certified_frac {frac(flags)}; "
          f"fail_frac {fail_frac:.4g}; metrics.max_rel_err {worst:.3g}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:<24.10g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
