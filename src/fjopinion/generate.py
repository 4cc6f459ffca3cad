"""Seeded generators: innate-opinion distributions and synthetic graphs."""

from __future__ import annotations

import numpy as np

from fjopinion.errors import GraphInputError
from fjopinion.graph import Graph, StubbornnessVector

DISTRIBUTIONS = ("uniform", "powerlaw", "normal", "exponential")

# Shape parameters for the skewed distributions.
POWERLAW_EXPONENT = 2.5
NORMAL_SIGMA = 1.0 / 3.0

# Edge weights of random_connected_gnp are uniform on this range.
EDGE_WEIGHTS = (0.5, 2.0)


def _rng(seed) -> np.random.Generator:
    """numpy's generator for ``seed`` (None draws fresh entropy); a seed
    numpy rejects, negative or not an integer, is an input error."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise GraphInputError(f"seed {seed!r}: {exc}") from None


def generate_opinions(n: int, distribution: str, seed: int) -> np.ndarray:
    """Deterministic innate opinions mapped into [-1, 1].

    uniform: direct on [-1, 1].  normal: N(0, 1/3) clamped.  exponential:
    rate-1 samples min-max rescaled.  powerlaw: exponent-2.5 samples
    min-max rescaled (positively skewed before any centering).
    """
    if n < 1:
        raise GraphInputError("n must be >= 1")
    rng = _rng(seed)
    if distribution == "uniform":
        return rng.uniform(-1.0, 1.0, size=n)
    if distribution == "normal":
        return np.clip(rng.normal(0.0, NORMAL_SIGMA, size=n), -1.0, 1.0)
    if distribution == "exponential":
        raw = rng.exponential(1.0, size=n)
    elif distribution == "powerlaw":
        u = rng.uniform(0.0, 1.0, size=n)
        raw = (1.0 - u) ** (-1.0 / (POWERLAW_EXPONENT - 1.0))
    else:
        raise GraphInputError(
            f"unknown distribution {distribution!r}; choose one of {DISTRIBUTIONS}"
        )
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        return np.zeros(n)
    return 2.0 * (raw - lo) / (hi - lo) - 1.0


def generate_stubbornness(n: int, lo: float, hi: float, seed: int) -> StubbornnessVector:
    """Uniform random stubbornness in [lo, hi], seeded."""
    if not (0.0 < lo <= hi):
        raise GraphInputError("stubbornness range must satisfy 0 < lo <= hi")
    rng = _rng(seed)
    return StubbornnessVector.from_values(rng.uniform(lo, hi, size=n))


def random_regular_graph(n: int, degree: int, seed: int) -> Graph:
    """Near-regular random graph by configuration-model pairing.

    Each node contributes ``degree`` stubs; a seeded permutation pairs them.
    Self-loops and parallel pairs are handled by the graph builder (dropped
    or merged), so node degrees may dip slightly below ``degree``.
    """
    if n < 2 or degree < 1 or n * degree % 2 != 0:
        raise GraphInputError("need n >= 2 and n * degree even")
    rng = _rng(seed)
    stubs = np.repeat(np.arange(n), degree)
    rng.shuffle(stubs)
    u = stubs[0::2]
    v = stubs[1::2]
    keep = u != v
    u, v = u[keep], v[keep]
    del stubs, keep  # freed before the graph is built
    return Graph.from_arrays(u, v, np.ones(u.size), n)


def random_connected_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) plus a random spanning path so the result is connected."""
    rng = _rng(seed)
    order = rng.permutation(n)
    path_u, path_v = order[:-1], order[1:]
    path_w = rng.uniform(*EDGE_WEIGHTS, size=path_v.size)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    w = rng.uniform(*EDGE_WEIGHTS, size=np.count_nonzero(mask))
    return Graph.from_arrays(
        np.concatenate([path_u, iu[mask]]),
        np.concatenate([path_v, iv[mask]]),
        np.concatenate([path_w, w]),
        n,
    )
