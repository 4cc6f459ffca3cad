"""Command-line surface: ingestion, metric runs, simulation, spectral
analysis, verification sweeps and seeded opinion files.

Exit codes: 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from fjopinion.errors import GraphInputError, NumericalError
from fjopinion import verify as verify_mod
from fjopinion.dynamics import convergence_bound, simulate_until, spectral_radius
from fjopinion.generate import DISTRIBUTIONS, generate_opinions, generate_stubbornness
from fjopinion.graph import (
    StubbornnessVector,
    ValueRowsAhead,
    eigen_bounds,
    load_edge_list,
    load_node_values,
)
from fjopinion.metrics import approxim, metrics_exact

EXIT_INPUT = 1
EXIT_NUMERICAL = 2


def _load_inputs(args, opinions=None):
    """The run's graph and stubbornness, and the rows of its value files
    (``opinions`` among them) parsed while the edge list parses."""
    if not args.graph:
        raise GraphInputError("--graph is required")
    files = [p for p in (_stubbornness_file(args.stubbornness), opinions) if p]
    with ValueRowsAhead(files) as ahead:
        g = load_edge_list(args.graph)
        rows = ahead.rows()
    return g, _load_stubbornness(g, args.stubbornness, args.seed, rows), rows


def _stubbornness_file(spec):
    """The path a --stubbornness spec names; None for uniform:C and random:LO,HI."""
    form, colon, _ = spec.partition(":")
    return None if colon and form in ("uniform", "random") else spec


def _load_stubbornness(g, spec, seed, rows):
    """file path | uniform:C | random:LO,HI (seeded)."""
    if _stubbornness_file(spec) is not None:
        values = load_node_values(g=g, path=spec, name="stubbornness", rows=rows.get(spec))
        return StubbornnessVector.from_values(values)
    form, _, params = spec.partition(":")
    try:
        values = [float(x) for x in params.split(",")]
    except ValueError:
        values = []
    if form == "uniform" and len(values) == 1:
        return StubbornnessVector.uniform(g.n, values[0])
    if form == "random" and len(values) == 2:
        return generate_stubbornness(g.n, *values, seed)
    raise GraphInputError(
        f"bad --stubbornness {spec!r}: expected a file path, uniform:C or random:LO,HI"
    )


def _load_opinions(g, args, rows):
    if args.opinions:
        return load_node_values(args.opinions, g, name="opinion", lo=-1.0, hi=1.0,
                                rows=rows.get(args.opinions))
    if args.dist:
        return generate_opinions(g.n, args.dist, args.seed)
    raise GraphInputError("provide --opinions FILE or --dist NAME")


def _write_out(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def cmd_metrics(args) -> int:
    g, k, rows = _load_inputs(args, args.opinions)
    s = _load_opinions(g, args, rows)
    if args.mode == "exact":
        report = metrics_exact(g, k, s)
    else:
        report = approxim(g, k, s, args.eps)
    print(f"graph            {args.graph}  (n={g.n}, m={g.m})")
    print(
        f"mode             {report.mode}  certified={report.certified}  "
        f"bound={report.error_bound:.3g}  iterations={report.solver_iterations}  "
        f"stop={report.stop_reason or '-'}"
    )
    print(f"conflict         {report.conflict:.12g}")
    print(f"disagreement     {report.disagreement:.12g}")
    print(f"polarization     {report.polarization:.12g}")
    print(f"pd_index         {report.pd_index:.12g}")
    print(f"sum_z            {report.sum_z:.12g}")
    print(f"weighted_sum_z   {report.weighted_sum_z:.12g}")
    print(f"conservation     {report.conservation_residual:.3e}")
    print(f"timing           solve {report.solve_seconds:.3f}s  norms {report.norms_seconds:.3f}s")
    _write_out(args.out, report.to_json())
    return 0


def cmd_simulate(args) -> int:
    g, k, rows = _load_inputs(args, args.opinions)
    s = _load_opinions(g, args, rows)
    state, trace = simulate_until(g, k, s, z0=s.copy(), eps=args.eps)
    est = trace.spectral
    bracket = f", rho in [{est.lower:.12g}, {est.upper:.12g}]" if est else ""
    print(f"stopped at t={state.t} (bound {trace.bound}{bracket}), |f| = {trace.f_norms[-1]:.3e}")
    if args.out:
        lines = [
            json.dumps({"t": t, "e_norm": e, "f_norm": f})
            for t, (e, f) in enumerate(zip(trace.e_norms, trace.f_norms))
        ]
        _write_out(args.out, "\n".join(lines))
    return 0


def cmd_spectrum(args) -> int:
    g, k, _ = _load_inputs(args)
    est = spectral_radius(g, k)
    bounds = eigen_bounds(g, k)
    print(f"rho in           [{est.lower:.12g}, {est.upper:.12g}]  "
          f"({est.iterations} iterations, converged={est.converged})")
    print(f"spectrum of L+K  [{bounds.lower:.6g}, {bounds.upper:.6g}]  "
          f"(coarse upper {bounds.coarse_upper:.6g})")
    if 0.0 < est.upper < 1.0:
        print(f"steps to 1e-6    {convergence_bound(est, 1.0, 1e-6)} (from |f(0)|=1)")
    _write_out(
        args.out,
        json.dumps(
            {
                "rho_max": est.rho_max,
                "rho_lower": est.lower,
                "rho_upper": est.upper,
                "residual": est.residual,
                "iterations": est.iterations,
                "converged": est.converged,
                "lower": bounds.lower,
                "upper": bounds.upper,
                "coarse_upper": bounds.coarse_upper,
            },
            indent=1,
            sort_keys=True,
        ),
    )
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run_suite(seed=args.seed)
    failed = 0
    for name, passed, total in results:
        status = "PASS" if passed == total else "FAIL"
        if passed != total:
            failed += 1
        print(f"[{status}] {name}: {passed}/{total}")
    if failed:
        print(f"{failed} properties failed")
        return EXIT_NUMERICAL
    print("all properties passed")
    return 0


def cmd_gen_opinions(args) -> int:
    values = generate_opinions(args.n, args.dist, args.seed)
    lines = [f"{i} {float(v)!r}" for i, v in enumerate(values)]
    if args.out:
        _write_out(args.out, "\n".join(lines))
    else:
        print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fjopinion",
        description="Opinion dynamics with heterogeneous stubbornness: metrics, "
        "simulation, spectral analysis, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("--graph", help="edge-list file: 'u v [w]' per line")
            p.add_argument(
                "--stubbornness",
                default="uniform:1.0",
                help="file | uniform:C | random:LO,HI",
            )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write machine-readable report here")

    p = sub.add_parser("metrics", help="exact or approximate metric run")
    common(p)
    p.add_argument("--opinions", help="'node value' file, values in [-1, 1]")
    p.add_argument("--dist", choices=DISTRIBUTIONS)
    p.add_argument("--eps", type=float, default=1e-6,
                   help="relative error approx mode proves; --mode exact always proves 1e-12")
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("simulate", help="iterate the update rule to convergence")
    common(p)
    p.add_argument("--opinions")
    p.add_argument("--dist", choices=DISTRIBUTIONS)
    p.add_argument("--eps", type=float, default=1e-8)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="spectral radius and eigenvalue bounds")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run the cross-module property suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen-opinions", help="write a seeded innate-opinion file")
    common(p, graph=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", choices=DISTRIBUTIONS, required=True)
    p.set_defaults(func=cmd_gen_opinions)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphInputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
