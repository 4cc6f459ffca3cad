import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def diagonal_first_rows(a, d):
    """A CSR matrix, built apart from the solver, whose row i holds d_i first
    and then a's row i: its product sums each row in the order in which
    ``graph._matvec_into(a, x, out)`` does on an ``out`` started at d * x."""
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
