"""Immutable sparse representation of a weighted undirected graph.

Holds every matrix view the rest of the package needs: the canonical edge
arrays, adjacency, weighted degrees, Laplacian application, and the per-node
stubbornness diagonal with its cached extremes.
"""

from __future__ import annotations

import hashlib
import io
import re
import warnings
from dataclasses import dataclass, field
from itertools import islice, repeat

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
    adjacency: sp.csr_matrix = field(repr=False, compare=False, default=None)
    _fingerprint: str = field(init=False, repr=False, compare=False, default=None)
    _int_index: tuple = field(init=False, repr=False, compare=False, default=None)

    @property
    def w_min(self) -> float:
        return float(self.edge_w.min()) if self.m else 0.0

    @property
    def w_max(self) -> float:
        return float(self.edge_w.max()) if self.m else 0.0

    @property
    def d_max(self) -> float:
        return float(self.degrees.max()) if self.n else 0.0

    @classmethod
    def from_arrays(cls, u, v, w, n: int, ids=None) -> "Graph":
        """Build a Graph on nodes [0, n) from parallel edge arrays.

        ``u`` and ``v`` hold integer endpoints, ``w`` weights that must be
        finite and > 0.  Self-loops are dropped (counted) and parallel edges
        merged by summing their weights in input order.  ``ids`` gives the
        external label of each node (default: the indices themselves).
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        n = int(n)
        if n < 1:
            raise GraphInputError("empty input: no edges and no declared nodes")
        ids = tuple(range(n)) if ids is None else tuple(ids)
        if len(ids) != n:
            raise GraphInputError(f"{len(ids)} node ids for n={n} nodes")
        if u.ndim != 1 or u.shape != v.shape or u.shape != w.shape:
            raise GraphInputError("edge arrays u, v, w must be 1-d and of one length")
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise GraphInputError(f"edge endpoints must lie in [0, {n})")
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
        if bad.size:
            i = bad[0]
            raise GraphInputError(
                f"edge {i + 1}: weight must be finite and > 0, "
                f"got {float(w[i])!r} for ({ids[u[i]]!r}, {ids[v[i]]!r})"
            )

        keep = u != v
        loops = keep.size - int(np.count_nonzero(keep))
        u, v, w = u[keep], v[keep], w[keep]
        # Pair keys lo * n + hi sort like (lo, hi); bincount adds each pair's
        # weights in input order, starting from 0.0.
        keys, slot = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True)
        # (bincount gives int64 for no edges at all.)
        edge_w = np.bincount(slot, weights=w, minlength=keys.size).astype(np.float64, copy=False)
        edge_u, edge_v = np.divmod(keys, n)

        # The keys are sorted, so with the reverse half first every row's
        # columns arrive in ascending order and sort_indices has nothing to do.
        rows = np.concatenate([edge_v, edge_u])
        cols = np.concatenate([edge_u, edge_v])
        vals = np.concatenate([edge_w, edge_w])
        adj = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        adj.sum_duplicates()
        adj.sort_indices()

        # Degrees as row sums of the adjacency view, same summation order.
        degrees = np.asarray(adj.sum(axis=1)).ravel()

        for arr in (edge_u, edge_v, edge_w, degrees):
            arr.setflags(write=False)

        return cls(
            n=n,
            m=keys.size,
            edge_u=edge_u,
            edge_v=edge_v,
            edge_w=edge_w,
            degrees=degrees,
            ids=ids,
            self_loops_dropped=loops,
            adjacency=adj,
        )

    def fingerprint(self) -> str:
        """16 hex digits of a SHA-256 over n, m and the edge arrays, hashed once."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(np.int64([self.n, self.m]).tobytes())
            h.update(self.edge_u.tobytes())
            h.update(self.edge_v.tobytes())
            h.update(self.edge_w.tobytes())
            object.__setattr__(self, "_fingerprint", h.hexdigest()[:16])
        return self._fingerprint

    def _sorted_int_ids(self):
        """``ids`` as sorted int64 with the node of each, built once; None
        unless every id is a Python int that fits in int64."""
        if self._int_index is None:
            index = ()
            if set(map(type, self.ids)) == {int}:
                try:
                    ids = np.fromiter(self.ids, np.int64, self.n)
                except OverflowError:
                    pass
                else:
                    order = np.argsort(ids)
                    index = (ids[order], order)
            object.__setattr__(self, "_int_index", index)
        return self._int_index or None


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

    ``upper`` is the Gershgorin-type bound k_max + 2 d_max.  ``coarse_upper``
    is the coarser k_max + n w_max used by the paper's approximation budget.
    """

    lower: float
    upper: float
    coarse_upper: float


def build_graph(edge_triples) -> Graph:
    """Build a Graph from (u, v, w) triples with arbitrary hashable node ids.

    Self-loops are dropped (counted), parallel edges merged by weight
    summation, node ids remapped to contiguous indices in first-seen order.
    """
    labels = []
    weights = []
    for u, v, weight in edge_triples:
        labels += (u, v)
        weights.append(weight)
    node, firsts = _first_seen(labels)
    w = np.fromiter(map(float, weights), np.float64, len(weights))
    return Graph.from_arrays(node[0::2], node[1::2], w, firsts.size, [labels[i] for i in firsts])


def _first_seen(keys):
    """Number equal keys as one node, in order of first appearance.

    Returns each key's node index and the position of each node's first key.
    Keys are grouped by hash; the rare key that differs from the first key of
    its hash group (a hash collision) is regrouped by equality.
    """
    keys = np.fromiter(keys, dtype=object, count=len(keys))
    node, firsts, _ = _first_seen_ints(np.fromiter(map(hash, keys), np.int64, keys.size))
    pos = firsts[node]
    collided = np.flatnonzero(keys != keys[pos])
    if collided.size:
        seen = {}
        for i in collided:
            pos[i] = seen.setdefault(keys[i], i)
        node, firsts, _ = _first_seen_ints(pos)
    return node, firsts


def _first_seen_ints(values):
    """Number equal int64 values as one node, in order of first appearance.

    Returns each value's node index, the position of each node's first
    value, and the node of each distinct value in ascending order.  A sort
    plus ``np.minimum.reduceat``: ``np.unique``'s ``return_index`` forces a
    stable sort, twice as slow.
    """
    by_value = np.argsort(values)
    ordered = values[by_value]
    new = np.concatenate((ordered[:1] == ordered[:1], ordered[1:] != ordered[:-1]))  # run starts
    first = np.minimum.reduceat(by_value, np.flatnonzero(new))  # of each distinct value
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    node = np.empty_like(by_value)
    node[by_value] = rank[np.cumsum(new) - 1]
    return node, first[order], rank


def _read_text(path):
    """The decoded text of a file; an undecodable file is an input error."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphInputError(
            f"{path}: cannot decode as {exc.encoding} at byte {exc.start}: {exc.reason}"
        ) from None


# Each is matched from a given position and never backtracks: a failed
# check costs one pass over the text.
_HEADER = re.compile(r"(?:[#%][^\n]*\n)*")  # lines starting with "#" or "%"
_NUMBERS = re.compile(r"[-+.eE0-9 \t\n]*")  # the characters of ints, floats, whitespace
_FIRST_LINE = re.compile(r"\s*(.*)")
_EDGE_ROWS = {2: "i8,i8", 3: "i8,i8,f8"}
_VALUE_ROWS = {2: "i8,f8"}


def _numeric_rows(text, row_dtypes):
    """The rows of an all-numeric file, parsed by numpy's C reader.

    ``row_dtypes`` maps each accepted column count, taken from the first data
    line, to the row dtype.  Returns None for any file this does not take
    whole (a later comment, a ragged line, an id that is not an int64, any
    warning), which the line reader then reads.
    """
    start = _HEADER.match(text).end()
    if _NUMBERS.match(text, start).end() < len(text):
        return None
    dtype = row_dtypes.get(len(_FIRST_LINE.match(text, start)[1].split()))
    if dtype is None:
        return None
    body = io.BytesIO(text[start:].encode("ascii"))  # ASCII: _NUMBERS matched it all
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(body, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None


def _numeric_edge_list(text):
    """load_edge_list's graph for an all-numeric file, or None."""
    rows = _numeric_rows(text, _EDGE_ROWS)
    if rows is None:
        return None
    w = rows["f2"] if len(rows.dtype) == 3 else np.ones(rows.size)
    if not np.all(np.isfinite(w) & (w > 0.0)):
        return None
    ends = np.stack((rows["f0"], rows["f1"]), axis=1).ravel()
    node, firsts, rank = _first_seen_ints(ends)
    ids = ends[firsts]
    del ends  # freed before the graph's arrays are built
    g = Graph.from_arrays(node[0::2], node[1::2], w, ids.size, ids.tolist())
    object.__setattr__(g, "_int_index", (ids[rank], rank))  # what _sorted_int_ids builds
    return g


def _numeric_node_values(rows, g, lo, hi):
    """load_node_values' vector for the rows of an all-numeric file naming
    every node of an integer-id graph with values in range, or None."""
    index = None if rows is None else g._sorted_int_ids()
    if index is None:
        return None
    ids, order = index
    nodes, values = rows["f0"], rows["f1"]
    by_node = np.argsort(nodes)  # searchsorted runs fastest on sorted keys
    at = np.empty_like(by_node)
    at[by_node] = np.minimum(np.searchsorted(ids, nodes[by_node]), ids.size - 1)
    if not (np.all(ids[at] == nodes) and np.all(np.isfinite(values))):
        return None
    if lo is not None and not np.all((lo <= values) & (values <= hi)):
        return None
    out = np.full(g.n, np.nan)
    out[order[at]] = values  # a node given twice keeps its last value
    return None if np.any(np.isnan(out)) else out


def _read_table(text):
    """Whitespace-separated tokens of a file's text, located by line.

    Returns the tokens as an object array and, for each line that is neither
    blank nor a comment (first token starting with ``#`` or ``%``), its
    1-based number, the index of its first token and its token count.
    """
    # Each line end becomes a token of its own: a character the text does not
    # hold.  One-char Latin-1 strings are shared objects in CPython, so these
    # tokens cost no memory; a lone surrogate cannot occur in decoded text.
    # NUL is skipped because numpy drops it from string scalars.
    mark = next((c for c in map(chr, range(1, 256)) if not c.isspace() and c not in text), "\ud800")
    text = text.replace("\n", f" {mark} ")
    tokens = np.array(text.split(), dtype=object)
    del text
    stops = np.append(np.flatnonzero(tokens == mark), tokens.size)
    starts = np.concatenate(([0], stops[:-1] + 1))
    lines = np.flatnonzero(stops > starts)
    heads = tokens[starts[lines]]
    lines = lines[~np.fromiter(map(str.startswith, heads, repeat(("#", "%"))), bool, heads.size)]
    return tokens, lines + 1, starts[lines], (stops - starts)[lines]


class _FirstBadLine:
    """The first line of a file that fails a check, over checks made in the
    order the file format applies them within a line.

    A check counts only for lines before the earliest failure found so far,
    so the line reported is the first bad one, with the message of the first
    check it fails: the error a line-by-line reader would raise.  Lines from
    ``end`` on may be left out of later checks.
    """

    def __init__(self, path, linenos):
        self.path = path
        self.linenos = linenos
        self.end = len(linenos)
        self.message = None

    def check(self, bad, message):
        """``bad``: the ascending indices of the lines that fail the check;
        ``message(i)``: its error text for line i."""
        if bad.size and bad[0] < self.end:
            self.end = int(bad[0])
            self.message = message(self.end)

    def raise_first(self):
        if self.message is not None:
            raise GraphInputError(f"{self.path}:{self.linenos[self.end]}: {self.message}")


def _parse_id(tok):
    try:
        return int(tok)
    except ValueError:
        return tok


def _floats(tokens):
    """float() of each token, and the indices of the tokens it rejects."""
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens)), np.empty(0, np.intp)
    except ValueError:
        pass
    values = np.full(len(tokens), np.nan)
    rejected = []
    for i, tok in enumerate(tokens):
        try:
            values[i] = float(tok)
        except ValueError:
            rejected.append(i)
    return values, np.array(rejected, dtype=np.intp)


def _line_text(path, lineno):
    with open(path) as fh:
        return next(islice(fh, lineno - 1, None)).strip()


def load_edge_list(path) -> Graph:
    """Parse a whitespace-separated edge list: ``u v [w]`` per line.

    Weight defaults to 1.0.  Lines starting with ``#`` or ``%`` are ignored
    (SNAP and Koblenz headers).  Node ids are kept as strings unless they
    parse as integers.  A file of integer ids and float weights under such a
    header is parsed in C; any other file, and any error, is read line by
    line, to the same graph.
    """
    text = _read_text(path)
    g = _numeric_edge_list(text)
    if g is not None:
        return g
    tokens, linenos, starts, ncols = _read_table(text)
    errors = _FirstBadLine(path, linenos)
    errors.check(
        np.flatnonzero((ncols < 2) | (ncols > 3)),
        lambda i: f"expected 'u v [w]', got {_line_text(path, linenos[i])!r}",
    )
    weighted = np.flatnonzero(ncols == 3)
    parsed, rejected = _floats(tokens[starts[weighted] + 2])
    w = np.ones(starts.size)
    w[weighted] = parsed
    errors.check(weighted[rejected], lambda i: f"bad weight {tokens[starts[i] + 2]!r}")
    errors.check(
        np.flatnonzero(~(np.isfinite(w) & (w > 0.0))),
        lambda i: "weight must be finite and > 0",
    )
    errors.raise_first()
    if not starts.size:
        raise GraphInputError(f"{path}: no edges found")

    # Endpoint tokens in file order (u0 v0 u1 v1 ...) to distinct tokens, then
    # distinct tokens to node ids: tokens of one integer ("1", "01") share a node.
    ends = tokens[np.stack((starts, starts + 1), axis=1).ravel()]
    del tokens  # the weight tokens; freed before the graph's arrays are built
    slot, firsts = _first_seen(ends)
    labels = list(map(_parse_id, ends[firsts]))
    del ends
    node_of_slot, firsts = _first_seen(labels)
    node = node_of_slot[slot]
    return Graph.from_arrays(node[0::2], node[1::2], w, firsts.size, [labels[i] for i in firsts])


def load_node_values(path, g: Graph, name="value", lo=None, hi=None, rows=None) -> np.ndarray:
    """Parse a ``node value`` per-line file into a vector indexed like g.

    As for load_edge_list, an all-numeric file for a graph of integer ids is
    parsed in C, and the line reader reads every other file.  ``rows`` are
    the file's rows as ValueRowsAhead parsed them, if it did.
    """
    text = None
    if rows is None:
        text = _read_text(path)
        rows = _numeric_rows(text, _VALUE_ROWS)
    out = _numeric_node_values(rows, g, lo, hi)
    if out is not None:
        return out
    tokens, linenos, starts, ncols = _read_table(_read_text(path) if text is None else text)
    errors = _FirstBadLine(path, linenos)
    errors.check(np.flatnonzero(ncols != 2), lambda i: f"expected 'node {name}'")
    starts = starts[: errors.end]
    nodes = list(map(_parse_id, tokens[starts]))
    index = dict(zip(g.ids, range(g.n)))
    pos = np.fromiter(map(index.get, nodes, repeat(-1)), np.intp, len(nodes))
    errors.check(np.flatnonzero(pos < 0), lambda i: f"unknown node {nodes[i]!r}")
    values, rejected = _floats(tokens[starts[: errors.end] + 1])
    errors.check(rejected, lambda i: f"bad {name} {tokens[starts[i] + 1]!r}")
    errors.check(np.flatnonzero(~np.isfinite(values)), lambda i: f"non-finite {name}")
    if lo is not None:
        errors.check(
            np.flatnonzero(~((lo <= values) & (values <= hi))),
            lambda i: f"{name} {float(values[i])} outside [{lo}, {hi}]",
        )
    errors.raise_first()

    out = np.full(g.n, np.nan)
    out[pos] = values  # a node given twice keeps its last value
    if np.any(np.isnan(out)):
        missing = [g.ids[i] for i in np.flatnonzero(np.isnan(out))[:5]]
        raise GraphInputError(f"{path}: missing {name} for nodes {missing}")
    return out


class ValueRowsAhead:
    """Node-value files parsed by numpy's C reader in a forked child, while
    this process parses the edge list::

        with ValueRowsAhead(paths) as ahead:
            g = load_edge_list(graph_path)
            rows = ahead.rows()
        values = load_node_values(path, g, rows=rows.get(path))

    ``np.loadtxt`` holds the GIL, so only a second process overlaps it with
    the edge list; a forked one, since a spawned one would first import
    numpy again.  The child starts only where it can help and is safe: the
    affinity mask holds two CPUs or more, and the file is a regular one,
    which load_node_values can read again on its fallback (a FIFO cannot
    be).  It sends ``_numeric_rows`` of each file and nothing else, so every
    check, every error and the line reader stay in load_node_values.  What a
    child that fails sent is dropped, and its files are parsed here.
    Leaving the ``with`` block reaps the child, killing it first if
    ``rows`` was not reached.

    Imports are local, to add nothing to ``import fjopinion``.
    """

    def __init__(self, paths):
        import os

        self._pid = None
        paths = [p for p in paths if os.path.isfile(p)]
        if not (paths and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) >= 2):
            return
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the files are parsed here
            os.close(read_end)
            os.close(write_end)
            return
        if pid == 0:
            os.close(read_end)
            _send_rows(paths, write_end)
        os.close(write_end)
        self._pid, self._pipe = pid, open(read_end, "rb")

    def __enter__(self):
        return self

    def rows(self) -> dict:
        """The child's rows by path (None: not an all-numeric file); empty if
        no child ran or it sent less than all of them."""
        import pickle

        if self._pid is None:
            return {}
        try:
            rows = pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError):  # a short pipe: the child died
            rows = {}
        self._reap()
        return rows

    def __exit__(self, *exc):
        if self._pid is not None:
            import os
            import signal

            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _reap(self):
        import os

        self._pipe.close()
        pid, self._pid = self._pid, None
        os.waitpid(pid, 0)


def _send_rows(paths, fd):
    """The forked child's whole run: pickle ``{path: _numeric_rows}`` down
    ``fd`` and leave through ``os._exit``, which skips the parent's cleanup
    (atexit handlers, buffered output) and never returns into its stack.  On
    any error the pickle is left short, and the parent parses every file."""
    import os
    import pickle

    try:
        rows = {path: _numeric_rows(_read_text(path), _VALUE_ROWS) for path in paths}
        with open(fd, "wb") as pipe:
            pickle.dump(rows, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def laplacian_apply(g: Graph, x: np.ndarray) -> np.ndarray:
    """L x = D x - A x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise GraphInputError(f"vector of length {x.size} against graph with n={g.n}")
    return g.degrees * x - g.adjacency @ x


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
    return SpectralBounds(lower=k.k_min, upper=upper, coarse_upper=coarse_upper)
