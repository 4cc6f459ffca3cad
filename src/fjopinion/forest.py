"""Brute-force spanning-forest oracle for the fundamental matrix.

The undirected graph with stubbornness diagonal K maps to a digraph whose
arc i->j carries weight w_ij / k_i; its row Laplacian equals K^{-1} L, so
the fundamental matrix is the forest matrix (I + K^{-1} L)^{-1}.

Attribution convention (fixed by desk verification against the dense
inverse): admissible arc subsets give every node at most one outgoing arc
and contain no cycle; each weakly connected component then has a unique
sink with no outgoing arc, and entry (i, j) accumulates the subsets in
which node i's component sinks at j.  The certification tests compare the
enumerated matrix entrywise against the dense inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fjopinion.errors import GraphInputError, SizeGuardError
from fjopinion.graph import Graph, StubbornnessVector

NODE_CAP = 12
COMBINATION_CAP = 10_000_000


@dataclass(frozen=True)
class MappedDigraph:
    """Arcs (tail, head, weight) of the stubbornness-scaled digraph."""

    n: int
    arcs: tuple

    @classmethod
    def of(cls, g: Graph, k: StubbornnessVector) -> "MappedDigraph":
        if len(k) != g.n:
            raise GraphInputError("stubbornness length does not match graph")
        arcs = []
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
            arcs.append((int(u), int(v), float(w) / k.k[u]))
            arcs.append((int(v), int(u), float(w) / k.k[v]))
        return cls(n=g.n, arcs=tuple(arcs))

    def laplacian(self) -> np.ndarray:
        """Row Laplacian (out-degree diagonal minus arc weights); equals K^{-1} L."""
        lap = np.zeros((self.n, self.n))
        for tail, head, w in self.arcs:
            lap[tail, head] -= w
            lap[tail, tail] += w
        return lap


@dataclass(frozen=True)
class ForestEnumeration:
    """Accumulated weights over all admissible arc subsets."""

    total_weight: float
    pair_weights: np.ndarray
    forest_count: int


def enumerate_forests(d: MappedDigraph) -> ForestEnumeration:
    """Enumerate every acyclic subset with per-node out-degree at most one.

    The empty subset contributes weight 1.  Guarded to tiny instances: the
    oracle exists to certify the fast paths, not to compete with them.
    """
    n = d.n
    if n > NODE_CAP:
        raise SizeGuardError(f"forest enumeration refused: n={n} exceeds cap {NODE_CAP}")
    out_arcs = [[] for _ in range(n)]
    for tail, head, w in d.arcs:
        out_arcs[tail].append((head, w))

    combos = 1
    for arcs in out_arcs:
        combos *= len(arcs) + 1
        if combos > COMBINATION_CAP:
            raise SizeGuardError(
                f"forest enumeration refused: choice space exceeds {COMBINATION_CAP}"
            )

    choice = [-1] * n  # choice[i] = chosen head of i's outgoing arc, -1 for none
    pair = np.zeros((n, n))
    totals = {"weight": 0.0, "count": 0}

    def creates_cycle(i: int, j: int) -> bool:
        node = j
        while node != -1:
            if node == i:
                return True
            node = choice[node]
        return False

    def attribute(weight: float):
        totals["weight"] += weight
        totals["count"] += 1
        for i in range(n):
            node = i
            while choice[node] != -1:
                node = choice[node]
            pair[i, node] += weight

    def recurse(i: int, weight: float):
        if i == n:
            attribute(weight)
            return
        recurse(i + 1, weight)  # no outgoing arc for node i
        for head, w in out_arcs[i]:
            if not creates_cycle(i, head):
                choice[i] = head
                recurse(i + 1, weight * w)
                choice[i] = -1

    recurse(0, 1.0)
    return ForestEnumeration(
        total_weight=totals["weight"], pair_weights=pair, forest_count=totals["count"]
    )


def forest_matrix(d: MappedDigraph) -> np.ndarray:
    """Forest matrix from enumeration; equals (I + K^{-1} L)^{-1} entrywise."""
    enum = enumerate_forests(d)
    return enum.pair_weights / enum.total_weight
