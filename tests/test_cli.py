import json

import numpy as np
import pytest

from fjopinion import cli, dynamics, verify
from fjopinion.graph import StubbornnessVector, build_graph
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


def test_metrics_approx_round_trip(fixture_files, tmp_path):
    # (1, -1) is not weighted-centered for k = (2, 1); approx mode still
    # reports the metrics of the opinions as given, as exact mode does.
    graph, stub, opinions = fixture_files
    reports = {}
    for mode in ("exact", "approx"):
        out = tmp_path / f"{mode}.json"
        rc = cli.main(
            [
                "metrics",
                "--graph", str(graph),
                "--stubbornness", str(stub),
                "--opinions", str(opinions),
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


def test_missing_file_exits_1(tmp_path):
    rc = cli.main(["metrics", "--graph", str(tmp_path / "nope.txt"), "--dist", "uniform"])
    assert rc == 1


def test_bad_opinion_value_exits_1(fixture_files, tmp_path):
    graph, stub, _ = fixture_files
    bad = tmp_path / "bad.txt"
    bad.write_text("0 3.5\n1 0.0\n")
    rc = cli.main(["metrics", "--graph", str(graph), "--opinions", str(bad)])
    assert rc == 1


def test_exact_above_cap_exits_3(tmp_path):
    graph = tmp_path / "big.txt"
    graph.write_text("\n".join(f"{i} {i + 1}" for i in range(dynamics.DENSE_CAP)))
    rc = cli.main(["metrics", "--graph", str(graph), "--dist", "uniform", "--mode", "exact"])
    assert rc == 3


@pytest.mark.parametrize("spec", ["uniform:abc", "random:0.5", "random:a,b"])
def test_malformed_stubbornness_spec_exits_1(fixture_files, spec, capsys):
    graph, _, opinions = fixture_files
    argv = ["metrics", "--graph", str(graph), "--opinions", str(opinions), "--stubbornness", spec]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and repr(spec) in err
    assert all(form in err for form in ("file path", "uniform:C", "random:LO,HI"))


@pytest.mark.parametrize("flag", ["--graph", "--opinions", "--stubbornness"])
@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_path_exits_1(fixture_files, tmp_path, flag, kind, capsys):
    graph, stub, opinions = fixture_files
    bad = tmp_path
    if kind == "non-utf8":
        bad = tmp_path / "binary.txt"
        bad.write_bytes(b"\xff\xfe\x00")
    # The last of a repeated flag wins.
    argv = ["metrics", "--graph", str(graph), "--stubbornness", str(stub),
            "--opinions", str(opinions), flag, str(bad)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(bad) in err


def test_missing_input_flag_exits_1(fixture_files, capsys):
    graph, _, _ = fixture_files
    assert cli.main(["metrics", "--dist", "uniform"]) == 1
    assert capsys.readouterr().err == "input error: --graph is required\n"
    assert cli.main(["metrics", "--graph", str(graph)]) == 1
    assert capsys.readouterr().err == "input error: provide --opinions FILE or --dist NAME\n"


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
    monkeypatch.setattr(dynamics, "spectral_radius", lambda g, k: bracket)
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
    expected = f"stopped at t={state.t} (bound {bound}), |f| = {trace.f_norms[-1]:.3e}"
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


def test_metrics_prints_bound_iterations_and_stop_reason(fixture_files, capsys):
    graph, stub, opinions = fixture_files
    base = ["metrics", "--graph", str(graph), "--stubbornness", str(stub),
            "--opinions", str(opinions)]
    assert cli.main(base + ["--mode", "approx", "--eps", "1e-6"]) == 0
    line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("mode")][0]
    fields = dict(f.split("=") for f in line.split()[2:])
    assert line.split()[1] == "approx"
    assert fields["certified"] == "True" and fields["stop"] == "certified"
    assert 0.0 <= float(fields["bound"]) <= 1e-6 and int(fields["iterations"]) >= 1

    assert cli.main(base + ["--mode", "exact"]) == 0
    line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("mode")][0]
    assert line.split()[1:] == ["exact", "certified=True", "bound=0", "iterations=0", "stop=-"]


def test_metrics_below_the_floor_prints_stagnated(tmp_path, capsys):
    # L + K is positive definite, so an eps below double precision is no breakdown.
    graph = tmp_path / "path.txt"
    graph.write_text("".join(f"{i} {i + 1}\n" for i in range(4999)))
    argv = ["metrics", "--graph", str(graph), "--stubbornness", "uniform:0.05",
            "--dist", "powerlaw", "--seed", "3", "--mode", "approx", "--eps", "1e-15"]
    assert cli.main(argv) == 0
    line = [x for x in capsys.readouterr().out.splitlines() if x.startswith("mode")][0]
    fields = dict(f.split("=") for f in line.split()[2:])
    assert fields["certified"] == "False" and fields["stop"] == "stagnated"
