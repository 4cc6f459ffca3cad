import json
import math
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from fjopinion import cli, dynamics, verify
from fjopinion.graph import StubbornnessVector, _numeric_rows, _numeric_source, build_graph
from fjopinion.metrics import MetricsReport


@pytest.fixture
def fixture_files(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("# two nodes\n0 1 1.0\n")
    stub = tmp_path / "stub.txt"
    stub.write_text("0 2.0\n1 1.0\n")
    opinions = tmp_path / "op.txt"
    opinions.write_text("0 1.0\n1 -1.0\n")
    return graph, stub, opinions


@pytest.fixture
def cycle_above_cap(tmp_path):
    """A cycle of DENSE_CAP + 1 nodes: no forest, so every metrics run on it
    is PCG, refined where it stops short."""
    graph = tmp_path / "cycle.txt"
    n = dynamics.DENSE_CAP + 1
    graph.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    return graph


def test_metrics_exact_fixture(fixture_files, tmp_path, capsys):
    graph, stub, opinions = fixture_files
    out = tmp_path / "report.json"
    rc = cli.main(
        [
            "metrics",
            "--graph", str(graph),
            "--stubbornness", str(stub),
            "--opinions", str(opinions),
            "--mode", "exact",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = MetricsReport.from_json(out.read_text())
    assert report.conflict == pytest.approx(24.0 / 25.0, abs=1e-12)
    assert report.disagreement == pytest.approx(16.0 / 25.0, abs=1e-12)
    assert "polarization" in capsys.readouterr().out


def test_metrics_approx_round_trip(cycle_above_cap, tmp_path):
    # Seeded powerlaw opinions are not weighted-centered for seeded random k;
    # approx mode still reports the metrics of the opinions as given, as
    # exact mode does.
    reports = {}
    for mode in ("exact", "approx"):
        out = tmp_path / f"{mode}.json"
        rc = cli.main(
            [
                "metrics",
                "--graph", str(cycle_above_cap),
                "--stubbornness", "random:0.5,2",
                "--dist", "powerlaw",
                "--mode", mode,
                "--eps", "1e-6",
                "--out", str(out),
            ]
        )
        assert rc == 0
        reports[mode] = MetricsReport.from_json(out.read_text())
    approx, exact = reports["approx"], reports["exact"]
    assert approx.mode == "approx" and not approx.centered
    assert approx.certified and approx.stop_reason == "certified"
    assert 0.0 <= approx.error_bound <= 1e-6
    for key in ("conflict", "disagreement", "polarization", "pd_index"):
        assert getattr(approx, key) == pytest.approx(getattr(exact, key), rel=1e-6)


def test_metrics_approx_on_graph_without_edges(tmp_path):
    # Self-loops only: the loader drops them, leaving two isolated nodes.
    graph = tmp_path / "loops.txt"
    graph.write_text("1 1\n2 2\n")
    opinions = tmp_path / "op.txt"
    opinions.write_text("1 0.5\n2 -0.25\n")
    reports = {}
    for mode in ("exact", "approx"):
        out = tmp_path / f"{mode}.json"
        argv = ["metrics", "--graph", str(graph), "--opinions", str(opinions),
                "--stubbornness", "random:0.5,2", "--mode", mode, "--out", str(out)]
        assert cli.main(argv) == 0
        reports[mode] = MetricsReport.from_json(out.read_text())
    approx, exact = reports["approx"], reports["exact"]
    assert approx.m == 0 and approx.certified
    assert exact.sum_z == pytest.approx(0.25, rel=1e-12)  # z = s
    for key in ("conflict", "disagreement", "polarization", "pd_index", "sum_z"):
        assert getattr(approx, key) == pytest.approx(getattr(exact, key), rel=1e-12, abs=1e-24)


def test_import_leaves_the_sparse_factor_out():
    # Only factoring and the forest test need scipy.sparse.linalg; they import
    # it when called.  (Some scipy releases load it with scipy.sparse.)
    code = ("import sys, scipy.sparse; before = 'scipy.sparse.linalg' in sys.modules; "
            "import fjopinion.cli; print(before, 'scipy.sparse.linalg' in sys.modules)")
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out[1] == out[0]


def test_missing_file_exits_1(tmp_path):
    rc = cli.main(["metrics", "--graph", str(tmp_path / "nope.txt"), "--dist", "uniform"])
    assert rc == 1


def test_bad_opinion_value_exits_1(fixture_files, tmp_path):
    graph, stub, _ = fixture_files
    bad = tmp_path / "bad.txt"
    bad.write_text("0 3.5\n1 0.0\n")
    rc = cli.main(["metrics", "--graph", str(graph), "--opinions", str(bad)])
    assert rc == 1


def test_exact_above_cap_is_certified(tmp_path, capsys):
    graph = tmp_path / "big.txt"
    graph.write_text("\n".join(f"{i} {i + 1}" for i in range(dynamics.DENSE_CAP)))
    assert cli.main(["metrics", "--graph", str(graph), "--dist", "uniform"]) == 0
    line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("mode")][0]
    assert line.split()[1:3] == ["exact", "certified=True"]
    assert "iterations=0" in line.split()  # a path is a forest: factored at any n


def test_simulate_on_a_forest_above_cap_exits_0(tmp_path):
    # Certified PCG cannot prove 1e-12 here, the factor of the path can.
    graph = tmp_path / "big.txt"
    graph.write_text("\n".join(f"{i} {i + 1}" for i in range(dynamics.DENSE_CAP)))
    argv = ["simulate", "--graph", str(graph), "--dist", "uniform",
            "--stubbornness", "uniform:0.0001", "--eps", "1000"]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("spec", ["uniform:abc", "random:0.5", "random:a,b"])
def test_malformed_stubbornness_spec_exits_1(fixture_files, spec, capsys):
    graph, _, opinions = fixture_files
    argv = ["metrics", "--graph", str(graph), "--opinions", str(opinions), "--stubbornness", spec]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and repr(spec) in err
    assert all(form in err for form in ("file path", "uniform:C", "random:LO,HI"))


@pytest.mark.parametrize("flag", ["--graph", "--opinions", "--stubbornness"])
@pytest.mark.parametrize("kind", ["directory", "non-utf8", "non-utf8-header", "non-utf8-body"])
def test_unreadable_path_exits_1(fixture_files, tmp_path, flag, kind, capsys):
    graph, stub, opinions = fixture_files
    bad = tmp_path
    if kind == "non-utf8":
        bad = tmp_path / "binary.txt"
        bad.write_bytes(b"\xff\xfe\x00")
    elif kind == "non-utf8-header":
        # Numbers under the header: the file the C reader would take.
        bad = tmp_path / "header.txt"
        bad.write_bytes(b"% \xff\n1 2\n")
    elif kind == "non-utf8-body":
        # A byte the C reader meets only after 4000 bytes of numbers.
        bad = tmp_path / "body.txt"
        bad.write_bytes(b"0 1\n" * 1000 + b"\xff\n")
    # The last of a repeated flag wins.
    argv = ["metrics", "--graph", str(graph), "--stubbornness", str(stub),
            "--opinions", str(opinions), flag, str(bad)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(bad) in err
    if kind == "non-utf8-body":
        assert err == f"input error: {bad}: cannot decode as utf-8 at byte 4000: invalid start byte\n"


def test_missing_input_flag_exits_1(fixture_files, capsys):
    graph, _, _ = fixture_files
    for command in ("metrics", "simulate"):
        assert cli.main([command, "--dist", "uniform"]) == 1
        assert capsys.readouterr().err == "input error: --graph is required\n"
        assert cli.main([command, "--graph", str(graph)]) == 1
        assert capsys.readouterr().err == "input error: provide --opinions FILE or --dist NAME\n"


def test_simulate_with_nan_eps_exits_1(fixture_files, capsys):
    graph, _, opinions = fixture_files
    argv = ["simulate", "--graph", str(graph), "--opinions", str(opinions), "--eps", "nan"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "input error: eps must be > 0\n"


def test_simulation_past_its_cap_exits_2(fixture_files, monkeypatch, capsys):
    graph, _, opinions = fixture_files
    monkeypatch.setattr(dynamics, "SIMULATION_CAP", 2)
    argv = ["simulate", "--graph", str(graph), "--opinions", str(opinions), "--eps", "1e-12"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "numerical failure: simulation did not reach eps=1e-12 within 2 steps\n"
    )


def test_stop_time_past_its_bound_exits_2(fixture_files, monkeypatch, capsys):
    # rho(QA) = 1/sqrt(6) here; a bracket whose upper end is below it gives
    # simulate_until a bound that the observed stop time exceeds.
    graph, stub, opinions = fixture_files
    bracket = dynamics.SpectralEstimate(lower=0.0, upper=0.1, iterations=0, converged=False)
    monkeypatch.setattr(dynamics, "spectral_radius", lambda g, k, **kw: bracket)
    argv = ["simulate", "--graph", str(graph), "--stubbornness", str(stub),
            "--opinions", str(opinions), "--eps", "1e-8"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: observed stop time ")
    assert " exceeds the convergence bound 9\n" in err


def test_simulate(fixture_files, tmp_path, capsys):
    graph, stub, opinions = fixture_files
    out = tmp_path / "trace.jsonl"
    rc = cli.main(
        [
            "simulate",
            "--graph", str(graph),
            "--stubbornness", str(stub),
            "--opinions", str(opinions),
            "--eps", "1e-8",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = [json.loads(line) for line in out.read_text().splitlines() if line]
    assert lines[0]["t"] == 0
    assert lines[-1]["f_norm"] <= 1e-8
    assert "stopped at t=" in capsys.readouterr().out


def test_simulate_runs_power_iteration_once(fixture_files, monkeypatch, capsys):
    graph, stub, opinions = fixture_files
    true_fn = dynamics.spectral_radius
    calls = []

    def counted(g, k, *args, **kwargs):
        calls.append(1)
        return true_fn(g, k, *args, **kwargs)

    # Count calls through both names: simulate_until's and the CLI's own.
    monkeypatch.setattr(dynamics, "spectral_radius", counted)
    monkeypatch.setattr(cli, "spectral_radius", counted)
    argv = ["simulate", "--graph", str(graph), "--stubbornness", str(stub),
            "--opinions", str(opinions), "--eps", "1e-8"]
    assert cli.main(argv) == 0
    assert len(calls) == 1

    g = build_graph([(0, 1, 1.0)])
    k = StubbornnessVector.from_values([2.0, 1.0])
    s = np.array([1.0, -1.0])
    state, trace = dynamics.simulate_until(g, k, s, z0=s.copy(), eps=1e-8)
    bound = dynamics.convergence_bound(true_fn(g, k), trace.f_norms[0], 1e-8)
    assert bound > 0
    # The bracket printed is the one the bound came from, kept by the trace.
    est = trace.spectral
    assert est.lower <= 1.0 / math.sqrt(6.0) <= est.upper
    expected = (f"stopped at t={state.t} (bound {bound}, rho in [{est.lower:.12g}, "
                f"{est.upper:.12g}]), |f| = {trace.f_norms[-1]:.3e}")
    assert capsys.readouterr().out.splitlines() == [expected]


def test_spectrum(fixture_files, tmp_path):
    graph, stub, _ = fixture_files
    out = tmp_path / "spec.json"
    rc = cli.main(
        ["spectrum", "--graph", str(graph), "--stubbornness", str(stub), "--out", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["rho_max"] == pytest.approx((1.0 / 6.0) ** 0.5, abs=1e-9)


def test_spectrum_reports_the_proved_bracket(fixture_files, tmp_path, capsys):
    graph, stub, _ = fixture_files
    out = tmp_path / "spec.json"
    argv = ["spectrum", "--graph", str(graph), "--stubbornness", str(stub), "--out", str(out)]
    assert cli.main(argv) == 0
    data = json.loads(out.read_text())
    rho = (1.0 / 6.0) ** 0.5
    assert data["rho_lower"] <= rho <= data["rho_upper"]
    assert data["rho_upper"] - data["rho_lower"] <= 1e-10 and data["converged"]
    # lower and upper stay the bracket on the spectrum of L + K: [k_min, k_max + 2 d_max].
    assert (data["lower"], data["upper"]) == (1.0, 4.0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"rho in           [{data['rho_lower']:.12g}, {data['rho_upper']:.12g}]")
    steps = dynamics.convergence_bound(data["rho_upper"], 1.0, 1e-6)
    assert lines[2] == f"steps to 1e-6    {steps} (from |f(0)|=1)"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_0_quietly(fixture_files, unbuffered):
    # A reader that stops early, as `spectrum ... | grep -q` may, is no input
    # error.  Unbuffered, the first print meets the closed pipe; buffered, the
    # last flush does.
    graph, stub, _ = fixture_files
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fjopinion.cli", "spectrum", "--graph", str(graph),
             "--stubbornness", str(stub)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_verify_small(capsys):
    rc = cli.main(["verify", "--seed", "3"])
    assert rc == 0
    assert "all properties passed" in capsys.readouterr().out


def test_verify_detects_injected_fault(monkeypatch, capsys):
    # Harness self-test: perturb the fundamental matrix and expect the named
    # row-stochasticity property to fail.
    from fjopinion import dynamics

    true_fn = dynamics.fundamental_matrix

    def perturbed(g, k):
        phi = true_fn(g, k)
        phi[0, 0] += 1e-3
        return phi

    monkeypatch.setattr(dynamics, "fundamental_matrix", perturbed)
    rc = cli.main(["verify", "--seed", "3"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "[FAIL] fundamental matrix row-stochastic positive" in out


def test_gen_opinions_round_trip(tmp_path):
    out = tmp_path / "ops.txt"
    rc = cli.main(["gen-opinions", "--n", "50", "--dist", "normal", "--seed", "7", "--out", str(out)])
    assert rc == 0
    values = np.array([float(line.split()[1]) for line in out.read_text().splitlines()])
    from fjopinion.generate import generate_opinions

    assert np.array_equal(values, generate_opinions(50, "normal", 7))


def test_gen_opinions_to_stdout(capsys):
    assert cli.main(["gen-opinions", "--n", "20", "--dist", "powerlaw", "--seed", "3"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [int(i) for i, _ in rows] == list(range(20))
    values = np.array([float(v) for _, v in rows])
    from fjopinion.generate import generate_opinions

    assert np.array_equal(values, generate_opinions(20, "powerlaw", 3))


def test_run_suite_names_are_unique():
    names = [name for name, _, _ in verify.SUITE]
    assert len(names) == len(set(names))


def test_metrics_prints_bound_iterations_and_stop_reason(fixture_files, cycle_above_cap, capsys):
    argv = ["metrics", "--graph", str(cycle_above_cap), "--stubbornness", "random:0.5,2",
            "--dist", "powerlaw", "--mode", "approx", "--eps", "1e-6"]
    assert cli.main(argv) == 0
    line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("mode")][0]
    fields = dict(f.split("=") for f in line.split()[2:])
    assert line.split()[1] == "approx"
    assert fields["certified"] == "True" and fields["stop"] == "certified"
    assert 0.0 <= float(fields["bound"]) <= 1e-6 and int(fields["iterations"]) >= 1

    graph, stub, opinions = fixture_files
    base = ["metrics", "--graph", str(graph), "--stubbornness", str(stub),
            "--opinions", str(opinions)]
    assert cli.main(base + ["--mode", "exact"]) == 0
    line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("mode")][0]
    fields = dict(f.split("=") for f in line.split()[2:])
    assert line.split()[1] == "exact"
    assert fields["certified"] == "True" and fields["stop"] == "certified"  # a forest's factor
    assert 0.0 <= float(fields["bound"]) <= 1e-12 and fields["iterations"] == "0"


def test_metrics_below_the_floor_prints_stagnated(cycle_above_cap, capsys):
    # L + K is positive definite, so an eps below double precision is no breakdown.
    argv = ["metrics", "--graph", str(cycle_above_cap), "--stubbornness", "uniform:0.05",
            "--dist", "powerlaw", "--seed", "3", "--mode", "approx", "--eps", "1e-15"]
    assert cli.main(argv) == 0
    line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("mode")][0]
    fields = dict(f.split("=") for f in line.split()[2:])
    assert fields["certified"] == "False" and fields["stop"] == "stagnated"


# --- value files parsed in a forked child while the edge list parses --------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


@pytest.fixture
def value_run(tmp_path):
    """A 300-node cycle with integer ids, numeric value files in another node
    order, and the argv of a metrics run on them."""
    rng = np.random.default_rng(7)
    n = 300
    ids = rng.choice(10**6, size=n, replace=False)
    graph = tmp_path / "g.txt"
    weights = rng.uniform(0.5, 2.0, n).tolist()
    graph.write_text("% header\n" + "".join(
        f"{ids[i]} {ids[(i + 1) % n]} {w!r}\n" for i, w in enumerate(weights)))
    files = {}
    for name, values in (("k", rng.uniform(0.1, 2.0, n)), ("s", rng.uniform(-1.0, 1.0, n))):
        order = rng.permutation(n)
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text("".join(f"{ids[i]} {values[i].item()!r}\n" for i in order))
    argv = ["metrics", "--graph", str(graph), "--stubbornness", str(files["k"]),
            "--opinions", str(files["s"]), "--mode", "approx", "--eps", "1e-8"]
    return argv, files


@pytest.fixture
def forks(monkeypatch):
    """Sets the CPUs the run may use, and records the pid of each child forked."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def allow(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return pids

    return allow


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report_lines(path):
    """A --out report without its timing keys."""
    return [line for line in path.read_text().splitlines()
            if not line.lstrip().startswith(('"solve_seconds"', '"norms_seconds"'))]


def run_both_ways(argv, out, forks, capsys):
    """(exit code, report, stderr) of a run with a child, then of one without."""
    results = []
    for cpus in (2, 1):
        pids = forks(cpus)
        pids.clear()
        rc = cli.main(argv + ["--out", str(out)])
        assert len(pids) == (cpus > 1)
        assert_no_child_left()
        results.append((rc, report_lines(out) if rc == 0 else None, capsys.readouterr().err))
        out.unlink(missing_ok=True)
    return results


@needs_fork
def test_forked_parse_gives_the_in_process_report(value_run, tmp_path, forks, capsys):
    argv, _ = value_run
    forked, in_process = run_both_ways(argv, tmp_path / "r.json", forks, capsys)
    assert forked == in_process and forked[0] == 0 and len(forked[1]) > 10


@needs_fork
@pytest.mark.parametrize("flag", ["--stubbornness", "--opinions"])
@pytest.mark.parametrize(
    "line, message",
    [("-1 0.5", ":3: unknown node -1\n"), ("{} abc", ":3: bad "), ("{} 1e999", ":3: non-finite ")],
    ids=["unknown-node", "bad-value", "non-finite"],
)
def test_value_file_errors_match_in_both_runs(value_run, tmp_path, forks, capsys,
                                              flag, line, message):
    # The C reader refuses the bad value; it parses the other two files, whose
    # ids or values load_node_values then rejects.
    argv, files = value_run
    ids = [row.split()[0] for row in files["k"].read_text().splitlines()]
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{ids[0]} 0.5\n{ids[1]} 0.5\n{line.format(ids[2])}\n")
    forked, in_process = run_both_ways(argv + [flag, str(bad)], tmp_path / "r.json", forks, capsys)
    assert forked == in_process and forked[0] == 1
    assert forked[2].startswith(f"input error: {bad}{message}")


@needs_fork
@pytest.mark.parametrize("failure", ["dies", "short-pipe"])
def test_a_failed_child_leaves_the_parse_to_the_parent(value_run, tmp_path, forks, monkeypatch,
                                                       capsys, failure):
    argv, _ = value_run
    expected = run_both_ways(argv, tmp_path / "r.json", forks, capsys)[1]
    parent = os.getpid()
    if failure == "dies":
        def dying(path):
            if os.getpid() != parent:
                os._exit(3)
            return _numeric_source(path)

        monkeypatch.setattr("fjopinion.graph._numeric_source", dying)
    else:
        def short_dump(obj, fh, protocol):
            data = pickle.dumps(obj, protocol)
            fh.write(data[: len(data) // 2])

        monkeypatch.setattr(pickle, "dump", short_dump)
    statuses, waitpid = {}, os.waitpid

    def recorded_waitpid(pid, options):
        reaped, status = waitpid(pid, options)
        statuses[reaped] = status
        return reaped, status

    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    pids = forks(2)
    pids.clear()
    out = tmp_path / "r.json"
    rc = cli.main(argv + ["--out", str(out)])
    assert len(pids) == 1
    assert_no_child_left()
    assert os.waitstatus_to_exitcode(statuses[pids[0]]) == (3 if failure == "dies" else 0)
    assert (rc, report_lines(out), capsys.readouterr().err) == expected


@needs_fork
def test_a_file_the_child_refused_is_not_parsed_again(value_run, tmp_path, forks, monkeypatch,
                                                      capsys):
    # A comment below the stubbornness file's data makes numpy refuse it; the
    # child says so, and the parent reads it by its line loop alone.
    argv, files = value_run
    expected = run_both_ways(argv, tmp_path / "r.json", forks, capsys)[0]
    with open(files["k"], "a") as fh:
        fh.write("# end\n")
    parent, parsed = os.getpid(), []

    def counted(source, row_dtypes):
        if os.getpid() == parent:
            parsed.append(source)
        return _numeric_rows(source, row_dtypes)

    monkeypatch.setattr("fjopinion.graph._numeric_rows", counted)
    pids = forks(2)
    pids.clear()
    out = tmp_path / "r.json"
    rc = cli.main(argv + ["--out", str(out)])
    assert len(pids) == 1 and rc == 0
    assert_no_child_left()
    assert report_lines(out) == expected[1]
    assert not [source for source in parsed if os.path.samefile(source, files["k"])]
    assert len(parsed) == 1  # the edge list, parsed here while the child parses the values


@needs_fork
def test_no_child_outlives_main(value_run, tmp_path, forks, monkeypatch, capsys):
    argv, _ = value_run
    pids = forks(2)
    assert cli.main(argv) == 0
    assert len(pids) == 1
    assert_no_child_left()

    # A bad edge file raises while the child still parses: it is killed, not waited for.
    parent = os.getpid()

    def slow(source, row_dtypes):
        if os.getpid() != parent:
            time.sleep(60)
        return _numeric_rows(source, row_dtypes)

    monkeypatch.setattr("fjopinion.graph._numeric_rows", slow)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 1.0\n2 3 -1.0\n")
    t = time.perf_counter()
    assert cli.main(argv + ["--graph", str(bad)]) == 1
    assert time.perf_counter() - t < 30
    assert len(pids) == 2
    assert_no_child_left()
    assert capsys.readouterr().err == f"input error: {bad}:2: weight must be finite and > 0\n"
