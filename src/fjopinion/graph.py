"""Immutable sparse representation of a weighted undirected graph.

Holds every matrix view the rest of the package needs: the canonical edge
arrays, adjacency, weighted degrees, Laplacian application, and the per-node
stubbornness diagonal with its cached extremes.  ``_diagonal`` is the one
place deg + k, the diagonal of L + K, is formed and k's length checked
against the graph: for ``operator_matrix``, the update and power steps in
``dynamics``, PCG in ``solver`` and ``verify``'s row sums.  Only
``solver.proved_rho`` adds it again, row block by row block, into its
check's own buffers.

``Graph.from_arrays`` is the one builder, under the generators, the triples
adapter and both edge-file paths.  It sorts once: the sorted pair keys give
the edge arrays, which are the upper triangle U of the adjacency in CSR
order, and the adjacency is U + Uᵀ, two compiled scipy kernels.  So a build
peaks at little above the size of the graph it returns.

``load_edge_list`` and ``load_node_values`` hand a regular file by its path
to numpy's C reader, whose strict parse takes only a file of numbers; any
other is read by one loop over its lines, which raises at the first bad
line.  Holding no table of every token, the loop reads an edge list of
string ids at 1e6 nodes in 3.4–5.8 s (median 3.5 s: 1.2 s the lines, 1.8
s numbering the ids, 0.5 s ``Graph.from_arrays``) at a 472.5 MiB
tracemalloc peak, and a value file in 2.0–4.0 s at 154 MiB
(``BENCH_35.json``, 3 rounds on a shared 2-vCPU host).

It also holds ``_halves``, the one way a pass over the rows of a matrix is
cut: the update steps, power steps and bracket evaluations in ``dynamics``,
the PCG steps and residual checks in ``solver``, and ``laplacian_apply``.
Each row block comes with its own ``csr_matvec``, scipy's compiled kernel,
which adds A x onto a buffer its caller has started: at 0 for a bracket,
at K s for an update, at h * x for a power step, and at -(k + deg) * p for
PCG's -(L + K) p and at -r for its preconditioned residual.  So a step
loop pays no ``@`` dispatch, which on vectors of a few thousand entries
costs as much as the product, every product takes A from
``Graph.adjacency``, and no loop builds QA or L + K.  This module alone
imports the private kernel.

Where a matrix holds at least ``SPLIT_ENTRIES`` entries and the process
may use two CPUs, ``_halves`` cuts the rows at the entries' midpoint, and
``_on_halves`` runs a caller's part on the rows before the cut in the
calling thread and on the rest in one worker thread; otherwise there is
one block and the part runs once, in the calling thread.  The kernel and
numpy's loops over float64 arrays release the GIL, so the halves overlap.
Every pass of a step loop is such a part, and ``_disagreement`` hands
every second slice of the edges to the worker.  Each row is still summed
by the same kernel over its entries in order, each element still formed
by the same operation, and sums across rows (dot products, maxima, the
slices' totals) stay in the calling thread in their serial order, so
every result is the serial one to the last bit.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from fjopinion.errors import GraphInputError

# Edges (or adjacency entries) per slice of a pass over the graph, so that no
# edge-sized temporary is allocated next to a solver's vectors.
EDGE_CHUNK = 1 << 14
# Entries from which ``_halves`` splits a pass over rows across two threads.
# Inside PCG on 2 vCPUs (``tools/split_sweep.py``, ``BENCH_32.json``) the
# split lost at 6e5 entries and won from 7e5 on; on one CPU it was noise.
SPLIT_ENTRIES = 3 << 18


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected graph with dense node indices [0, n).

    Edges are stored canonically with u < v, merged and loop-free.  ``ids``
    maps internal indices back to the external node labels seen on input: a
    read-only array, int64 when every label is an integer within 64 bits and
    object otherwise, so ``ids.tolist()`` gives the labels as read.  Graphs
    compare and hash by identity; ``fingerprint`` compares their edges.
    """

    n: int
    m: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    degrees: np.ndarray
    ids: np.ndarray
    self_loops_dropped: int = 0
    adjacency: sp.csr_matrix = field(repr=False, default=None)
    _fingerprint: str = field(init=False, repr=False, default=None)

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

        ``u`` and ``v`` hold integer endpoints (integral floats are taken),
        ``n`` is an integer, and ``w`` holds weights that must be
        finite and > 0.  Self-loops are dropped (counted) and parallel edges
        merged by summing their weights in input order.  ``ids`` gives the
        external label of each node (default: the indices themselves); they
        are copied into ``Graph.ids``, whose dtype ``_id_array`` decides.

        One sort (``np.unique`` of the pair keys) orders the edges; the
        adjacency is filled from them as U + Uᵀ, with no COO stage, and is
        byte for byte the CSR that scipy's COO conversion gives, index dtype
        included.  The inputs are copied only where they hold a loop, and
        each temporary is freed once used.
        """
        u, v = _integers(u, "edge endpoints"), _integers(v, "edge endpoints")
        w = np.asarray(w, dtype=np.float64)
        n = int(_integers(n, "node count"))
        if n < 1:
            raise GraphInputError("empty input: no edges and no declared nodes")
        ids = np.arange(n, dtype=np.int64) if ids is None else _id_array(ids)
        if ids.size != n:
            raise GraphInputError(f"{ids.size} node ids for n={n} nodes")
        if u.ndim != 1 or u.shape != v.shape or u.shape != w.shape:
            raise GraphInputError("edge arrays u, v, w must be 1-d and of one length")
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise GraphInputError(f"edge endpoints must lie in [0, {n})")
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
        if bad.size:
            i = bad[0]
            raise GraphInputError(
                f"edge {i + 1}: weight must be finite and > 0, "
                f"got {float(w[i])!r} for {tuple(ids[[u[i], v[i]]].tolist())}"
            )

        keep = u != v
        loops = keep.size - int(np.count_nonzero(keep))
        if loops:
            u, v, w = u[keep], v[keep], w[keep]
        del keep
        # Pair keys lo * n + hi sort like (lo, hi); bincount adds each pair's
        # weights in input order, starting from 0.0.
        key = np.minimum(u, v)
        key *= n
        key += np.maximum(u, v)
        keys, slot = np.unique(key, return_inverse=True)
        del key
        # (bincount gives int64 for no edges at all.)
        edge_w = np.bincount(slot, weights=w, minlength=keys.size).astype(np.float64, copy=False)
        del slot
        m = keys.size
        edge_u, edge_v = np.divmod(keys, n)
        del keys

        # The sorted keys are the upper triangle U in CSR order, and U + Uᵀ
        # is the adjacency: the transpose comes back with sorted rows, and
        # the sum of two canonical matrices with no entry in common adds
        # each entry to 0.0, so it is every entry once, in column order.
        # scipy picks the index dtype from the shape and the entries, and
        # widens the sum's to int64 where its 2m entries need it, as its COO
        # conversion does.
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_u, minlength=n), out=indptr[1:])
        upper = sp.csr_matrix((edge_w, edge_v, indptr), shape=(n, n))
        del indptr
        adj = upper + upper.T.tocsr()
        del upper

        # Degrees as row sums of the adjacency view, same summation order.
        degrees = np.asarray(adj.sum(axis=1)).ravel()

        for arr in (edge_u, edge_v, edge_w, degrees, ids):
            arr.setflags(write=False)

        return cls(
            n=n,
            m=m,
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


def _integers(x, what) -> np.ndarray:
    """``x`` as int64: integers with no pass over them, integral floats
    within int64 checked; anything else is an input error.  An unsigned
    integer beyond int64 turns negative, which from_arrays' range check
    refuses."""
    x = np.asarray(x)
    kind = x.dtype.kind
    if kind in "biu" or kind == "f" and np.all((np.trunc(x) == x) & (np.abs(x) < 2.0**63)):
        return x.astype(np.int64, copy=False)
    raise GraphInputError(f"{what} must be integral and within int64")


def _id_array(ids):
    """The labels ``ids`` as a new array: int64 for a signed integer array
    and for Python ints within 64 bits, object for anything else."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind == "i":
        return ids.astype(np.int64)
    labels = np.fromiter(ids, object)
    if set(map(type, labels)) == {int}:
        try:
            return labels.astype(np.int64)
        except OverflowError:  # beyond 64 bits
            pass
    return labels


@dataclass(frozen=True, eq=False)
class StubbornnessVector:
    """Per-node stubbornness k_i > 0 with cached extremes; compared and
    hashed by identity."""

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
    node, firsts = _first_seen_ints(np.fromiter(map(hash, keys), np.int64, keys.size))
    pos = firsts[node]
    collided = np.flatnonzero(keys != keys[pos])
    if collided.size:
        seen = {}
        for i in collided:
            pos[i] = seen.setdefault(keys[i], i)
        node, firsts = _first_seen_ints(pos)
    return node, firsts


def _first_seen_ints(values):
    """Number equal int64 values as one node, in order of first appearance.

    Returns each value's node index and the position of each node's first
    value.  A sort plus ``np.minimum.reduceat``: ``np.unique``'s
    ``return_index`` forces a stable sort, twice as slow.
    """
    by_value = np.argsort(values)
    ordered = values[by_value]
    new = np.concatenate((ordered[:1] == ordered[:1], ordered[1:] != ordered[:-1]))  # run starts
    del ordered
    first = np.minimum.reduceat(by_value, np.flatnonzero(new))  # of each distinct value
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    run = np.cumsum(new)  # each sorted value's run, from 1
    del new
    run -= 1
    node = np.empty_like(by_value)
    node[by_value] = rank[run]
    return node, first[order]


def _read_text(path, source=None):
    """The decoded text of a file, or of ``_numeric_source``'s stream of it;
    an undecodable file is an input error."""
    try:
        with source if isinstance(source, io.TextIOWrapper) else open(path) as fh:
            fh.seek(0)
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphInputError(
            f"{path}: cannot decode as {exc.encoding} at byte {exc.start}: {exc.reason}"
        ) from None


_EDGE_ROWS = {2: "i8,i8", 3: "i8,i8,f8"}
_VALUE_ROWS = {2: "i8,f8"}


def _numeric_source(path):
    """What np.loadtxt reads of a file: the absolute path (never taken for
    a URL) of a regular file under a name numpy does not decompress, else
    the file's bytes, read once, as a text stream the line reader reuses."""
    name = os.path.abspath(os.fsdecode(path))
    if os.path.isfile(name) and not name.endswith((".gz", ".bz2", ".xz", ".lzma")):
        return name
    with open(path, "rb") as fh:
        return io.TextIOWrapper(io.BytesIO(fh.read()))


def _numeric_rows(source, row_dtypes):
    """The rows of an all-numeric file, parsed by numpy's C reader.

    ``source`` is ``_numeric_source``'s.  A short scan skips the top lines
    that are blank or whose first token opens with ``#`` or ``%``, the line
    loops' comments; ``row_dtypes`` maps the next line's column count to the
    row dtype.  None for any file numpy's strict parse does not take whole
    (a later comment, a ragged line, an id not an int64, bytes that do not
    decode, any warning): the line reader reads it.
    """
    try:
        with open(source) if isinstance(source, str) else contextlib.nullcontext(source) as fh:
            header, line = 0, fh.readline()
            while line and line.lstrip()[:1] in ("", "#", "%"):
                header, line = header + 1, fh.readline()
            fh.seek(0)
        dtype = row_dtypes.get(len(line.split()))
        if dtype is None:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(source, dtype=dtype, comments=None, skiprows=header, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None


def _numeric_edge_list(source):
    """load_edge_list's rows for an all-numeric file with weights finite and
    > 0, or None."""
    rows = _numeric_rows(source, _EDGE_ROWS)
    if rows is None or len(rows.dtype) == 2 or np.all(np.isfinite(rows["f2"]) & (rows["f2"] > 0.0)):
        return rows
    return None


def _edge_rows_graph(rows):
    """The graph of ``_numeric_edge_list``'s rows."""
    w = rows["f2"] if len(rows.dtype) == 3 else np.ones(rows.size)
    ends = np.stack((rows["f0"], rows["f1"]), axis=1).ravel()
    node, firsts = _first_seen_ints(ends)
    ids = ends[firsts]
    del ends  # freed before the graph's arrays are built
    return Graph.from_arrays(node[0::2], node[1::2], w, ids.size, ids)


def _numeric_node_values(rows, g, lo, hi):
    """load_node_values' vector for the rows of an all-numeric file naming
    every node of a graph with int64 ids with values in range, or None."""
    if rows is None or g.ids.dtype != np.int64:
        return None
    order = np.argsort(g.ids)
    ids = g.ids[order]
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


def _parse_id(tok):
    # int() takes a token with no whitespace only if a sign or a decimal digit opens it.
    try:
        return int(tok) if tok[0].isdigit() or tok[0] in "+-" else tok
    except ValueError:
        return tok


def load_edge_list(path) -> Graph:
    """Parse a whitespace-separated edge list: ``u v [w]`` per line.

    Weight defaults to 1.0.  Lines starting with ``#`` or ``%`` are ignored
    (SNAP and Koblenz headers).  Node ids are kept as strings unless ``int()``
    accepts them (``01``, ``+1``, ``1_0``, non-ASCII decimal digits).  A file
    of integer ids and float weights under such a header is parsed in C, by
    its name or, for a pipe or a ``.gz`` name, from its bytes read once; any
    other file is read by a loop over its lines, to the same graph.  The loop
    raises at the first bad line, with the message of the first check that
    line fails: the column count, the weight, then its range.
    """
    source = _numeric_source(path)
    rows = _numeric_edge_list(source)
    if rows is not None:
        del source  # freed before the ids are numbered and the graph is built
        return _edge_rows_graph(rows)
    lines = _read_text(path, source).split("\n")  # only "\n": other whitespace stays within a line
    del source
    ends, weights = [], []  # endpoint tokens in file order: u0 v0 u1 v1 ...
    for lineno, line in enumerate(lines, 1):
        cols = line.split()
        if not cols or cols[0][0] in "#%":
            continue
        if not 2 <= len(cols) <= 3:
            raise GraphInputError(f"{path}:{lineno}: expected 'u v [w]', got {line.strip()!r}")
        w = 1.0
        if len(cols) == 3:
            try:
                w = float(cols[2])
            except ValueError:
                raise GraphInputError(f"{path}:{lineno}: bad weight {cols[2]!r}") from None
            if not 0.0 < w < math.inf:
                raise GraphInputError(f"{path}:{lineno}: weight must be finite and > 0")
        ends.append(cols[0])
        ends.append(cols[1])
        weights.append(w)
    del lines
    if not weights:
        raise GraphInputError(f"{path}: no edges found")

    # Endpoint tokens to distinct tokens, then distinct tokens to node ids:
    # tokens of one integer ("1", "01") share a node.
    slot, firsts = _first_seen(ends)
    labels = [_parse_id(ends[i]) for i in firsts.tolist()]
    del ends
    node_of_slot, firsts = _first_seen(labels)
    node = node_of_slot[slot]
    return Graph.from_arrays(node[0::2], node[1::2], weights, firsts.size, [labels[i] for i in firsts])


def load_node_values(path, g: Graph, name="value", lo=None, hi=None, rows=None) -> np.ndarray:
    """Parse a ``node value`` per-line file into a vector indexed like g.

    As for load_edge_list, an all-numeric file for a graph of integer ids is
    parsed in C, and a loop over the lines reads every other file.  The loop
    raises at the first bad line, with the message of the first check that
    line fails: the column count, the node, the value, non-finite, then the
    range [lo, hi], given both or neither.  ``rows`` are the file's rows as
    ``value_rows_ahead`` parsed them, False if its C reader refused the file,
    which then goes straight to the loop, and None if it did not parse it.
    """
    if (lo is None) != (hi is None):
        raise GraphInputError(f"{name} range needs both lo and hi")
    source = None
    if rows is None:
        source = _numeric_source(path)
        rows = _numeric_rows(source, _VALUE_ROWS)
    out = None if rows is False else _numeric_node_values(rows, g, lo, hi)
    if out is not None:
        return out
    lines = _read_text(path, source).split("\n")
    del source
    index = dict(zip(g.ids.tolist(), range(g.n)))
    out = np.full(g.n, np.nan)
    for lineno, line in enumerate(lines, 1):
        cols = line.split()
        if not cols or cols[0][0] in "#%":
            continue
        if len(cols) != 2:
            raise GraphInputError(f"{path}:{lineno}: expected 'node {name}'")
        node = _parse_id(cols[0])
        i = index.get(node)
        if i is None:
            raise GraphInputError(f"{path}:{lineno}: unknown node {node!r}")
        try:
            value = float(cols[1])
        except ValueError:
            raise GraphInputError(f"{path}:{lineno}: bad {name} {cols[1]!r}") from None
        if not math.isfinite(value):
            raise GraphInputError(f"{path}:{lineno}: non-finite {name}")
        if lo is not None and not lo <= value <= hi:
            raise GraphInputError(f"{path}:{lineno}: {name} {value} outside [{lo}, {hi}]")
        out[i] = value  # a node given twice keeps its last value
    if np.any(np.isnan(out)):
        missing = g.ids[np.flatnonzero(np.isnan(out))[:5]].tolist()
        raise GraphInputError(f"{path}: missing {name} for nodes {missing}")
    return out


def _two_cpus() -> bool:
    """Whether this process's affinity mask holds two CPUs or more."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def value_rows_ahead(paths, parse):
    """``parse()``, and the rows of the node-value files at ``paths`` parsed
    by numpy's C reader in a forked child while ``parse`` runs::

        g, rows = value_rows_ahead(paths, lambda: load_edge_list(graph_path))
        values = load_node_values(path, g, rows=rows.get(path))

    ``np.loadtxt`` holds the GIL, so only a second process overlaps it with
    the edge list; a forked one, since a spawned one would first import
    numpy again.  The child starts only where it can help and is safe: the
    affinity mask holds two CPUs or more, and the file is a regular one,
    which load_node_values can read again on its fallback (a FIFO cannot
    be).  It pickles ``{path: _numeric_rows}``, False for a file it refused,
    which numpy reads from disk in the child, and nothing else, so every
    check, every error and the line reader stay in load_node_values; it
    leaves through ``os._exit``, which skips this process's cleanup
    (atexit handlers, buffered output) and never returns into its stack.
    ``rows`` is empty where no child ran or its pickle came short, and those
    files are parsed here.  The child is reaped before this returns, killed
    first if ``parse`` raised.

    Its other imports are local, to add nothing to ``import fjopinion``.
    """
    paths = [p for p in paths if os.path.isfile(p)]
    if not (paths and hasattr(os, "fork") and _two_cpus()):
        return parse(), {}
    import pickle
    import signal

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the files are parsed here
        os.close(read_end)
        os.close(write_end)
        return parse(), {}
    if pid == 0:
        try:
            os.close(read_end)
            rows = {path: _numeric_rows(_numeric_source(path), _VALUE_ROWS) for path in paths}
            with open(write_end, "wb") as pipe:
                pickle.dump({path: False if r is None else r for path, r in rows.items()},
                            pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_end)
    pipe, rows = open(read_end, "rb"), None
    try:
        parsed = parse()
        try:
            rows = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):  # a short pipe: the child died
            rows = {}
        return parsed, rows
    finally:
        pipe.close()
        if rows is None:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def laplacian_apply(g: Graph, x: np.ndarray) -> np.ndarray:
    """L x = D x - A x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise GraphInputError(f"vector of length {x.size} against graph with n={g.n}")
    ax = np.zeros(g.n)
    _on_halves(lambda mv, ax_: mv(x, ax_), _halves(g.adjacency, ax))
    return g.degrees * x - ax


_worker = None  # the executor of split passes' second halves, started on the first
_worker_lock = threading.Lock()


def _drop_worker():
    """Forget the worker and its lock in a forked child, where the worker
    thread does not run: a half handed to it would never be taken."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker)


def _split_worker():
    """The one-thread executor of split passes, started and imported on the
    first call in this process."""
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(1, thread_name_prefix="fjopinion-product")
        return _worker


def _halves(a: sp.csr_matrix, *vectors) -> list[tuple]:
    """The one or two row blocks of every pass over the rows of ``a``, each
    a tuple ``(row_product, v[lo:hi] for each of vectors)``.

    The blocks are (0, cut) and (cut, n), cut where half the entries lie
    before it, where ``a`` holds at least ``SPLIT_ENTRIES`` entries and the
    process may use two CPUs, and (0, n) alone otherwise.
    ``row_product(x, out)`` adds rows lo:hi of a @ x onto ``out``, which
    the caller has started, with scipy's compiled kernel ``csr_matvec``: no
    dispatch, no new array.  scipy's ``a @ x`` calls the same kernel on a
    new zeroed result, so on an ``out`` of zeros each row is that of
    ``a @ x`` to the last bit, and otherwise its sum starts from out_i.
    ``a`` must be a float64 CSR matrix, ``x`` a whole float64 vector and
    ``out`` a C-contiguous float64 block that is not part of ``x``: the
    kernel writes a non-contiguous ``out`` into a copy of it.
    """
    ptr, cuts = a.indptr, [0, a.shape[0]]
    if a.data.size >= SPLIT_ENTRIES and _two_cpus():  # a.data.size: scipy's nnz costs more
        cuts.insert(1, int(np.searchsorted(ptr, ptr[-1] // 2)))
    return [(functools.partial(csr_matvec, hi - lo, a.shape[1], ptr[lo:], a.indices, a.data),
             *(v[lo:hi] for v in vectors)) for lo, hi in zip(cuts, cuts[1:])]


def _on_halves(part, halves) -> None:
    """Run ``part(*half)`` for each of the one or two ``_halves`` and return
    once every part is done: the worker thread (``_split_worker``) runs the
    second while this thread runs the first.

    Each part must touch only its own rows of what the other writes, and
    read nothing the other writes: the two overlap wherever numpy and
    scipy's kernels release the GIL, which their loops over float64 arrays
    do.  A loop makes its halves once and runs each of its passes on them.
    """
    if len(halves) == 1:
        part(*halves[0])
        return
    later = _split_worker().submit(part, *halves[1])
    try:
        part(*halves[0])
    finally:
        later.result()


def _row_length_max(a: sp.csr_matrix) -> int:
    """t, the most entries in a row of ``a``, taken over blocks of
    ``EDGE_CHUNK`` rows: no n-vector of row lengths is held."""
    return max((int(np.diff(a.indptr[lo:lo + EDGE_CHUNK + 1]).max(initial=0))
                for lo in range(0, a.shape[0], EDGE_CHUNK)), default=0)


def _disagreement(g: Graph, q: np.ndarray) -> float:
    """q.Lq = sum_e w_e (q_u - q_v)^2, summed over slices of the edge arrays.

    Where ``_halves`` splits the adjacency, the worker takes every second
    slice (``_on_halves``); the slices' totals are added in slice order
    either way, so the sum is the serial one to the last bit.
    """
    totals = [0.0] * -(-g.m // EDGE_CHUNK)
    step = len(_halves(g.adjacency))

    def part(first):
        for i in range(first, len(totals), step):
            lo, hi = i * EDGE_CHUNK, (i + 1) * EDGE_CHUNK
            dq = q[g.edge_u[lo:hi]]  # in place, as two slices may be in flight at once
            dq -= q[g.edge_v[lo:hi]]
            dq *= dq
            totals[i] = float(g.edge_w[lo:hi] @ dq)

    _on_halves(part, [(first,) for first in range(step)])
    total = 0.0
    for t in totals:  # not sum(), which compensates its rounding from Python 3.12 on
        total += t
    return total


def _diagonal(g: Graph, k: StubbornnessVector) -> np.ndarray:
    """deg + k, the diagonal of L + K, as a new vector: its callers change
    it in place."""
    if len(k) != g.n:
        raise GraphInputError("stubbornness length does not match graph")
    return g.degrees + k.k


def operator_matrix(g: Graph, k: StubbornnessVector) -> sp.csr_matrix:
    """Sparse L + K, with 2m + n entries.

    Built for a factor and for dense checks; PCG applies L + K from
    ``g.adjacency`` and the diagonal deg + k instead.
    """
    return sp.diags(_diagonal(g, k), format="csr") - g.adjacency


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
