"""Immutable sparse representation of a weighted undirected graph.

Holds every matrix view the rest of the package needs: the canonical edge
arrays, adjacency, weighted degrees, Laplacian application, and the per-node
stubbornness diagonal with its cached extremes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from fjopinion.errors import GraphInputError


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph with dense node indices [0, n).

    Edges are stored canonically with u < v, merged and loop-free.  ``ids``
    maps internal indices back to the external node labels seen on input.
    """

    n: int
    m: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    degrees: np.ndarray
    ids: tuple
    self_loops_dropped: int = 0
    _adj: sp.csr_matrix = field(repr=False, compare=False, default=None)

    @property
    def adjacency(self) -> sp.csr_matrix:
        return self._adj

    @property
    def w_min(self) -> float:
        return float(self.edge_w.min()) if self.m else 0.0

    @property
    def w_max(self) -> float:
        return float(self.edge_w.max()) if self.m else 0.0

    @property
    def d_max(self) -> float:
        return float(self.degrees.max()) if self.n else 0.0

    def neighbors(self, i: int):
        """Pairs (j, w_ij) for node i, in CSR order."""
        a = self._adj
        lo, hi = a.indptr[i], a.indptr[i + 1]
        return zip(a.indices[lo:hi], a.data[lo:hi])

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(np.int64([self.n, self.m]).tobytes())
        h.update(self.edge_u.tobytes())
        h.update(self.edge_v.tobytes())
        h.update(self.edge_w.tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class StubbornnessVector:
    """Per-node stubbornness k_i > 0 with cached extremes."""

    k: np.ndarray
    k_min: float
    k_max: float

    @classmethod
    def from_values(cls, values) -> "StubbornnessVector":
        k = np.asarray(values, dtype=np.float64)
        if k.ndim != 1 or k.size == 0:
            raise GraphInputError("stubbornness vector must be non-empty and 1-d")
        if not np.all(np.isfinite(k)) or np.any(k <= 0.0):
            raise GraphInputError("all stubbornness values must be finite and > 0")
        k = k.copy()
        k.setflags(write=False)
        return cls(k=k, k_min=float(k.min()), k_max=float(k.max()))

    @classmethod
    def uniform(cls, n: int, value: float) -> "StubbornnessVector":
        return cls.from_values(np.full(n, float(value)))

    def __len__(self) -> int:
        return self.k.size


@dataclass(frozen=True)
class SpectralBounds:
    """Bracket for the spectrum of L + K.

    ``upper`` is the Gershgorin-type bound k_max + 2 d_max, used for solver
    stopping heuristics.  ``coarse_upper`` is the coarser k_max + n w_max used
    by the approximation budget.
    """

    lower: float
    upper: float
    coarse_upper: float


def build_graph(edge_triples, declared_nodes=None) -> Graph:
    """Build a Graph from (u, v, w) triples with arbitrary hashable node ids.

    Self-loops are dropped (counted), parallel edges merged by weight
    summation, node ids remapped to contiguous indices in first-seen order.
    ``declared_nodes`` adds isolated nodes not touched by any edge.
    """
    index = {}
    ids = []

    def idx(node):
        i = index.get(node)
        if i is None:
            i = len(ids)
            index[node] = i
            ids.append(node)
        return i

    if declared_nodes:
        for node in declared_nodes:
            idx(node)

    merged = {}
    loops = 0
    for lineno, triple in enumerate(edge_triples, start=1):
        u, v, w = triple
        w = float(w)
        if not math.isfinite(w) or w <= 0.0:
            raise GraphInputError(
                f"edge {lineno}: weight must be finite and > 0, got {w!r} for ({u!r}, {v!r})"
            )
        iu, iv = idx(u), idx(v)
        if iu == iv:
            loops += 1
            continue
        key = (iu, iv) if iu < iv else (iv, iu)
        merged[key] = merged.get(key, 0.0) + w

    n = len(ids)
    if n == 0:
        raise GraphInputError("empty input: no edges and no declared nodes")

    if merged:
        keys = sorted(merged)
        edge_u = np.array([k[0] for k in keys], dtype=np.int64)
        edge_v = np.array([k[1] for k in keys], dtype=np.int64)
        edge_w = np.array([merged[k] for k in keys], dtype=np.float64)
    else:
        edge_u = np.empty(0, dtype=np.int64)
        edge_v = np.empty(0, dtype=np.int64)
        edge_w = np.empty(0, dtype=np.float64)
    m = edge_u.size

    rows = np.concatenate([edge_u, edge_v])
    cols = np.concatenate([edge_v, edge_u])
    vals = np.concatenate([edge_w, edge_w])
    adj = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    adj.sort_indices()

    # Degrees as row sums of the adjacency view, same summation order.
    degrees = np.asarray(adj.sum(axis=1)).ravel()

    for arr in (edge_u, edge_v, edge_w, degrees):
        arr.setflags(write=False)

    return Graph(
        n=n,
        m=m,
        edge_u=edge_u,
        edge_v=edge_v,
        edge_w=edge_w,
        degrees=degrees,
        ids=tuple(ids),
        self_loops_dropped=loops,
        _adj=adj,
    )


def load_edge_list(path) -> Graph:
    """Parse a whitespace-separated edge list: ``u v [w]`` per line.

    Weight defaults to 1.0.  Lines starting with ``#`` or ``%`` are ignored
    (SNAP and Koblenz headers).  Node ids are kept as strings unless they
    parse as integers.
    """

    def parse_id(tok):
        try:
            return int(tok)
        except ValueError:
            return tok

    triples = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphInputError(f"{path}:{lineno}: expected 'u v [w]', got {line!r}")
            try:
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise GraphInputError(f"{path}:{lineno}: bad weight {parts[2]!r}") from None
            if not math.isfinite(w) or w <= 0.0:
                raise GraphInputError(f"{path}:{lineno}: weight must be finite and > 0")
            triples.append((parse_id(parts[0]), parse_id(parts[1]), w))
    if not triples:
        raise GraphInputError(f"{path}: no edges found")
    return build_graph(triples)


def load_node_values(path, g: Graph, name="value", lo=None, hi=None) -> np.ndarray:
    """Parse a ``node value`` per-line file into a vector indexed like g."""
    index = {node: i for i, node in enumerate(g.ids)}
    out = np.full(g.n, np.nan)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphInputError(f"{path}:{lineno}: expected 'node {name}'")
            try:
                node = int(parts[0])
            except ValueError:
                node = parts[0]
            if node not in index:
                raise GraphInputError(f"{path}:{lineno}: unknown node {node!r}")
            try:
                val = float(parts[1])
            except ValueError:
                raise GraphInputError(f"{path}:{lineno}: bad {name} {parts[1]!r}") from None
            if not math.isfinite(val):
                raise GraphInputError(f"{path}:{lineno}: non-finite {name}")
            if lo is not None and not (lo <= val <= hi):
                raise GraphInputError(f"{path}:{lineno}: {name} {val} outside [{lo}, {hi}]")
            out[index[node]] = val
    if np.any(np.isnan(out)):
        missing = [g.ids[i] for i in np.flatnonzero(np.isnan(out))[:5]]
        raise GraphInputError(f"{path}: missing {name} for nodes {missing}")
    return out


def laplacian_apply(g: Graph, x: np.ndarray) -> np.ndarray:
    """L x = D x - A x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise GraphInputError(f"vector of length {x.size} against graph with n={g.n}")
    return g.degrees * x - g.adjacency @ x


def laplacian_matrix(g: Graph) -> sp.csr_matrix:
    """Sparse L = D - A."""
    return sp.diags(g.degrees, format="csr") - g.adjacency


def operator_matrix(g: Graph, k: StubbornnessVector) -> sp.csr_matrix:
    """Sparse L + K."""
    if len(k) != g.n:
        raise GraphInputError("stubbornness length does not match graph")
    return sp.diags(g.degrees + k.k, format="csr") - g.adjacency


def eigen_bounds(g: Graph, k: StubbornnessVector) -> SpectralBounds:
    """Bracket the spectrum of L + K.

    Lower bound k_min (K is a lower bound of L + K in the semidefinite
    order); tight upper bound k_max + 2 d_max (Gershgorin on L); coarse
    upper bound k_max + n w_max used by the approximation budget.
    """
    if len(k) != g.n:
        raise GraphInputError("stubbornness length does not match graph")
    upper = k.k_max + 2.0 * g.d_max
    coarse_upper = k.k_max + g.n * g.w_max
    if g.m == 0:
        upper = k.k_max
        coarse_upper = k.k_max
    return SpectralBounds(lower=k.k_min, upper=upper, coarse_upper=coarse_upper)
