import os
import signal
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fjopinion import graph as graph_module
from fjopinion.generate import random_connected_gnp
from fjopinion.graph import StubbornnessVector, build_graph, operator_matrix


@pytest.fixture
def path2():
    """Two nodes joined by a unit-weight edge."""
    return build_graph([(0, 1, 1.0)])


@pytest.fixture
def k21():
    return StubbornnessVector.from_values([2.0, 1.0])


@pytest.fixture
def k11():
    return StubbornnessVector.from_values([1.0, 1.0])


def make_instance(rng, n_max=40, p=0.25, k_range=(0.5, 3.0)):
    """Seeded random connected weighted graph with stubbornness and opinions."""
    n = int(rng.integers(3, n_max + 1))
    g = random_connected_gnp(n, p, int(rng.integers(0, 2**31)))
    k = StubbornnessVector.from_values(rng.uniform(*k_range, size=g.n))
    s = rng.uniform(-1.0, 1.0, size=g.n)
    return g, k, s


def dense_laplacian(g):
    lap = np.zeros((g.n, g.n))
    for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def product_onto(a, x, out):
    """``out`` with a @ x added onto it, as each pass of a step loop adds
    its product: on every row block of ``graph._halves``, by
    ``graph._on_halves``."""
    graph_module._on_halves(lambda mv, out_: mv(x, out_), graph_module._halves(a, out))
    return out


def diagonal_first_rows(a, d):
    """A CSR matrix, built apart from the solver, whose row i holds d_i first
    and then a's row i: its product sums each row in the order in which
    ``product_onto(a, x, out)`` does on an ``out`` started at d * x."""
    indptr = a.indptr + np.arange(a.shape[0] + 1)
    first = indptr[:-1]
    rest = np.ones(indptr[-1], dtype=bool)
    rest[first] = False
    indices, data = np.empty(indptr[-1], dtype=a.indices.dtype), np.empty(indptr[-1])
    indices[first], data[first] = np.arange(a.shape[0]), d
    indices[rest], data[rest] = a.indices, a.data
    return sp.csr_matrix((data, indices, indptr), shape=a.shape)


def count_splu(monkeypatch):
    """Record every matrix that ``splu`` factors from now on."""
    calls, real = [], spla.splu

    def counted(m, **kwargs):
        calls.append(m)
        return real(m, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return calls


def count_matmul(monkeypatch):
    """Record the operand of every ``csr_matrix @ x`` from now on."""
    calls, real = [], sp.csr_matrix.__matmul__

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted)
    return calls


def factors_of(calls, g, k):
    """How many of the recorded factorizations were of L + K for (g, k)."""
    t = operator_matrix(g, k)
    return sum(m.shape == t.shape and abs(m - t).max() == 0.0 for m in calls)


def force_split(monkeypatch):
    """Split every pass over rows from now on (``graph._on_halves``),
    whatever the matrix's size and the CPUs, and return a list that gets,
    for each kernel call, the offset of the entries its rows start at and
    its row count."""
    rows, real = [], graph_module.csr_matvec

    def counted(n_row, n_col, ptr, *args):
        rows.append((int(ptr[0]), n_row))
        return real(n_row, n_col, ptr, *args)

    monkeypatch.setattr(graph_module, "SPLIT_ENTRIES", 0)
    monkeypatch.setattr(graph_module, "_two_cpus", lambda: True)
    monkeypatch.setattr(graph_module, "csr_matvec", counted)
    return rows


def count_joins(monkeypatch):
    """Record from now on the name of every part that a split pass hands to
    the worker, one for each wait on it."""
    joins, real = [], graph_module._worker

    class Counted:
        def submit(self, part, *args):
            joins.append(part.__name__)
            return real.submit(part, *args)

    monkeypatch.setattr(graph_module, "_worker", Counted())
    return joins


def refuse_worker(monkeypatch):
    """Fail the test if a pass is handed to the worker from now on."""

    class Refused:
        def submit(self, part, *args):
            pytest.fail(f"{part.__name__} was handed to the worker")

    monkeypatch.setattr(graph_module, "_worker", Refused())


def worker_running():
    """Whether the worker's thread runs in this process."""
    return any(t.name.startswith("fjopinion-product") for t in threading.enumerate())


def in_forked_child(check, seconds=60.0):
    """Exit code of a forked child that runs ``check()``: 0 if it returned
    true, 2 if false, 1 if it raised.  The child is killed, and the test
    fails, if it has not exited within ``seconds``."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if check() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"a forked child did not finish in {seconds} s")
        time.sleep(0.01)
