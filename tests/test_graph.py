import gzip
import io
import os
import tempfile
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import (dense_laplacian, diagonal_first_rows, force_split, in_forked_child,
                      make_instance, product_onto)
from fjopinion import graph as graph_module
from fjopinion.dynamics import OpinionState, simulate_until
from fjopinion.errors import GraphInputError
from fjopinion.generate import (generate_opinions, generate_stubbornness, random_connected_gnp,
                                random_regular_graph)
from fjopinion.graph import (
    Graph,
    StubbornnessVector,
    _VALUE_ROWS,
    _numeric_edge_list,
    _numeric_node_values,
    _numeric_rows,
    _numeric_source,
    build_graph,
    eigen_bounds,
    laplacian_apply,
    load_edge_list,
    load_node_values,
    operator_matrix,
)
from fjopinion.metrics import approxim


def assert_same_graph(a, b):
    """Bit-identical edge arrays and degrees, equal ids of equal types."""
    for name in ("edge_u", "edge_v", "edge_w", "degrees"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    x, y = a.ids.tolist(), b.ids.tolist()
    assert a.ids.dtype == b.ids.dtype and x == y and list(map(type, x)) == list(map(type, y))
    assert (a.n, a.m, a.self_loops_dropped) == (b.n, b.m, b.self_loops_dropped)


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph([(1, 2, 1.0)])
        assert g.n == 2 and g.m == 1
        assert np.allclose(g.degrees, [1.0, 1.0])

    def test_duplicate_edges_merged_by_summation(self):
        g = build_graph([(7, 9, 2.0), (9, 7, 3.0)])
        assert g.n == 2 and g.m == 1
        assert g.edge_w[0] == 5.0

    def test_self_loop_dropped_with_count(self):
        g = build_graph([(1, 1, 4.0), (1, 2, 1.0)])
        assert g.n == 2 and g.m == 1
        assert g.self_loops_dropped == 1

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphInputError, match="edge 2"):
            build_graph([(1, 2, 1.0), (2, 3, -0.5)])
        with pytest.raises(GraphInputError):
            build_graph([(1, 2, float("nan"))])

    def test_empty_input_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph([])

    def test_declared_isolated_nodes(self):
        g = Graph.from_arrays([], [], [], 3)
        assert g.n == 3 and g.m == 0

    def test_id_remap_retained(self):
        g = build_graph([("a", "b", 1.0), ("b", "c", 2.0)])
        assert g.ids.tolist() == ["a", "b", "c"]

    def test_weight_error_names_edge_and_labels(self):
        with pytest.raises(GraphInputError) as exc:
            build_graph([(1, 2, 1.0), ("a", 3, -0.5)])
        assert str(exc.value) == "edge 2: weight must be finite and > 0, got -0.5 for ('a', 3)"

    def test_labels_with_equal_hashes_stay_apart(self):
        # hash(-1) == hash(-2) in CPython.
        g = build_graph([(-1, -2, 1.0), (-2, 5, 2.0), (-1, 5, 1.0), (-2, -1, 0.5)])
        assert g.ids.tolist() == [-1, -2, 5] and g.m == 3
        assert g.edge_w.tolist() == [1.5, 1.0, 2.0]

    def test_equal_labels_of_two_types_share_a_node(self):
        g = build_graph([(1, 2, 1.0), (2.0, 1.0, 1.0)])
        assert g.ids.tolist() == [1, 2] and g.m == 1 and g.edge_w[0] == 2.0

    def test_deterministic_construction(self):
        triples = [(3, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)]
        assert build_graph(triples).fingerprint() == build_graph(triples).fingerprint()


def traced_peak(fn, *args, **kwargs):
    """fn's result and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFirstSeenInts:
    def test_numbering_and_peak(self):
        # 4e5 values from [0, 8e5): 79 % distinct.  The numbering is checked
        # against np.unique.  The peak is 6.4 times the input when the sorted
        # copy and the run starts are freed once used; 7.5 when they are
        # held to the end beside two more run indices.
        values = np.random.default_rng(0).integers(0, 800_000, 400_000)
        (node, firsts), peak = traced_peak(graph_module._first_seen_ints, values)
        _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        assert np.array_equal(node, rank[inverse]) and np.array_equal(firsts, first[order])
        assert peak <= 7 * values.nbytes


def merge_reference(u, v, w):
    """Loop-dropping, weight-summing dict merge in input order."""
    merged = {}
    for a, b, x in zip(u, v, w):
        if a != b:
            key = (min(a, b), max(a, b))
            merged[key] = merged.get(key, 0.0) + x
    keys = sorted(merged)
    return [k[0] for k in keys], [k[1] for k in keys], [merged[k] for k in keys]


def coo_graph(u, v, w, n):
    """The oracle of from_arrays: the same edge arrays, with the adjacency
    built from both halves as COO, converted to CSR, duplicates summed and
    indices sorted."""
    u, v, w = np.asarray(u, np.int64), np.asarray(v, np.int64), np.asarray(w, np.float64)
    keep = u != v
    loops = keep.size - int(np.count_nonzero(keep))
    u, v, w = u[keep], v[keep], w[keep]
    keys, slot = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True)
    edge_w = np.bincount(slot, weights=w, minlength=keys.size).astype(np.float64, copy=False)
    edge_u, edge_v = np.divmod(keys, n)
    rows = np.concatenate([edge_v, edge_u])
    cols = np.concatenate([edge_u, edge_v])
    vals = np.concatenate([edge_w, edge_w])
    adj = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    adj.sort_indices()
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    return Graph(n=n, m=keys.size, edge_u=edge_u, edge_v=edge_v, edge_w=edge_w, degrees=degrees,
                 ids=np.arange(n), self_loops_dropped=loops, adjacency=adj)


@st.composite
def multigraph_arrays(draw):
    """Edge arrays on n nodes with loops, parallel and reverse duplicates and
    isolated nodes: n = 1 and no edges included."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    if pairs:
        pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=10))]
    pairs = draw(st.permutations(pairs))
    weights = st.one_of(st.just(1.0), st.floats(1e-3, 1e3), st.sampled_from([0.1, 0.2, 0.3, 1e-300, 1e300]))
    w = [draw(weights) for _ in pairs]
    return [a for a, _ in pairs], [b for _, b in pairs], w, n


def assert_same_csr(a, b):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.shape == b.shape and a.has_sorted_indices


def returned_bytes(g):
    a = g.adjacency
    return sum(x.nbytes for x in (g.edge_u, g.edge_v, g.edge_w, g.degrees, g.ids,
                                  a.data, a.indices, a.indptr))


class TestFromArrays:
    def test_merges_canonicalises_and_counts_loops(self):
        g = Graph.from_arrays([2, 0, 1, 2, 2], [0, 2, 1, 1, 0], [1.0, 2.0, 5.0, 0.5, 0.25], 4)
        assert g.edge_u.tolist() == [0, 1] and g.edge_v.tolist() == [2, 2]
        assert g.edge_w.tolist() == [3.25, 0.5]
        assert g.degrees.tolist() == [3.25, 0.5, 3.75, 0.0]
        assert g.self_loops_dropped == 1 and g.ids.tolist() == [0, 1, 2, 3]
        assert not g.edge_w.flags.writeable

    def test_no_edges(self):
        g = Graph.from_arrays([], [], [], 3, ids=("a", "b", "c"))
        assert (g.n, g.m) == (3, 0) and g.edge_w.dtype == np.float64
        assert g.degrees.tolist() == [0.0, 0.0, 0.0]

    def test_takes_integral_floats_and_any_integer_dtype(self):
        g = Graph.from_arrays([0.0, 2.0], np.array([1, 1], dtype=np.uint8), [1.0, 1.0], 3.0)
        assert (g.n, g.edge_u.tolist(), g.edge_v.tolist()) == (3, [0, 1], [1, 2])

    @pytest.mark.parametrize(
        "u, v, w, n, ids, message",
        [
            ([0], [3], [1.0], 3, None, r"endpoints must lie in \[0, 3\)"),
            ([-1], [0], [1.0], 3, None, r"endpoints must lie in \[0, 3\)"),
            ([0, 1], [1], [1.0], 3, None, "of one length"),
            ([0], [1], [1.0], 3, ("a", "b"), "2 node ids for n=3"),
            ([], [], [], 0, None, "empty input"),
            ([0, 1], [1, 2], [1.0, np.inf], 3, "abc", r"^edge 2: .* got inf for \('b', 'c'\)$"),
            ([0.9], [1.7], [1.0], 3, None, "^edge endpoints must be integral and within int64$"),
            ([0], [1], [1.0], 3.7, None, "^node count must be integral and within int64$"),
            (["0"], [1], [1.0], 3, None, "edge endpoints must be integral"),
            ([2**63], [0], [1.0], 3, None, r"endpoints must lie in \[0, 3\)"),
            ([2**64], [0], [1.0], 3, None, "edge endpoints must be integral and within int64"),
        ],
        ids=["endpoint-high", "endpoint-negative", "lengths", "ids", "empty", "weight",
             "endpoint-fraction", "n-fraction", "endpoint-string", "endpoint-beyond-int64",
             "endpoint-beyond-uint64"],
    )
    def test_rejects_bad_input(self, u, v, w, n, ids, message):
        with pytest.raises(GraphInputError, match=message):
            Graph.from_arrays(u, v, w, n, ids=ids)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 12),
        edges=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11), st.floats(1e-3, 1e3)), max_size=60
        ),
    )
    def test_matches_dict_merge(self, n, edges):
        u = [a % n for a, _, _ in edges]
        v = [b % n for _, b, _ in edges]
        w = [x for _, _, x in edges]
        g = Graph.from_arrays(u, v, w, n)
        ref_u, ref_v, ref_w = merge_reference(u, v, w)
        assert g.edge_u.tolist() == ref_u and g.edge_v.tolist() == ref_v
        assert g.edge_w.tolist() == ref_w  # bit-equal: same summation order
        assert g.self_loops_dropped == sum(a == b for a, b in zip(u, v))

    @settings(max_examples=300, deadline=None)
    @given(case=multigraph_arrays())
    def test_matches_the_coo_construction_byte_for_byte(self, case):
        g, ref = Graph.from_arrays(*case), coo_graph(*case)
        assert_same_graph(g, ref)
        assert_same_csr(g.adjacency, ref.adjacency)
        assert g.fingerprint() == ref.fingerprint()

    def test_matches_the_coo_construction_on_a_generated_graph(self):
        g = random_regular_graph(20_000, 4, 1)
        for u, v in ((g.edge_u, g.edge_v), (g.edge_v, g.edge_u)):
            h, ref = Graph.from_arrays(u, v, g.edge_w, g.n), coo_graph(u, v, g.edge_w, g.n)
            assert_same_graph(h, ref)
            assert_same_csr(h.adjacency, ref.adjacency)

    def test_peak_is_near_the_size_of_the_graph(self):
        # The COO construction of coo_graph peaks at 2.8 times these bytes.
        g = random_regular_graph(100_000, 4, 1)
        u, v, w = g.edge_v.copy(), g.edge_u.copy(), g.edge_w.copy()
        del g
        tracemalloc.start()
        try:
            g = Graph.from_arrays(u, v, w, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * returned_bytes(g)


def _label(tok):
    try:
        return int(tok)
    except ValueError:
        return tok


def reference_triples(path):
    """The triples of an edge list read line by line, as the loader reads them."""
    triples = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0][0] not in "#%":
                w = float(parts[2]) if len(parts) == 3 else 1.0
                triples.append((_label(parts[0]), _label(parts[1]), w))
    return triples


ID_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),  # -1 and -2 have equal hashes
    st.integers(0, 12).map(lambda i: f"0{i}"),  # "01" names the node "1" does
    st.sampled_from(["a", "b", "node", "x1", "1a", "-", "#x", "%y"]),
)
WEIGHT_TOKENS = st.one_of(
    st.floats(1e-3, 1e3).map(repr),
    st.integers(1, 9).map(str),
    st.sampled_from(["1e-3", "2.", ".5", "1_0", "3E2"]),
)


@st.composite
def edge_list_text(draw):
    """An edge list with the variety real files have."""
    pairs, lines = [], []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "reverse", "loop", "comment", "blank"]))
        lead = draw(st.sampled_from(["", " ", "\t", "  "]))
        if kind == "comment":
            line = lead + draw(st.sampled_from(["#", "%", "# 1 2", "%% u v w"]))
        elif kind == "blank":
            line = lead
        else:
            if kind == "reverse" and pairs:
                v, u = draw(st.sampled_from(pairs))
            else:
                u = draw(ID_TOKENS)
                v = u if kind == "loop" else draw(ID_TOKENS)
            pairs.append((u, v))
            cols = [u, v] + ([draw(WEIGHT_TOKENS)] if draw(st.booleans()) else [])
            seps = [draw(st.sampled_from([" ", "\t", "  ", " \t ", "\x0c", "\xa0"])) for _ in cols]
            line = lead + "".join(c + s for c, s in zip(cols, seps)).rstrip(" ")
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


class TestEdgeList:
    @settings(max_examples=200, deadline=None)
    @given(text=edge_list_text())
    def test_same_graph_as_triples_read_line_by_line(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "wb") as fh:
                fh.write(text.encode())
            triples = reference_triples(path)
            if not triples:
                with pytest.raises(GraphInputError, match="no edges found"):
                    load_edge_list(path)
                return
            assert_same_graph(load_edge_list(path), build_graph(triples))

    def test_file_holding_every_latin1_character(self, tmp_path):
        path = tmp_path / "g.txt"
        printable = "".join(c for c in map(chr, range(1, 256)) if not c.isspace())
        path.write_text(f"#{printable}\n1 2\n{printable} 1 2.5\n", encoding="utf-8")
        assert_same_graph(load_edge_list(path), build_graph(reference_triples(path)))

    def test_integer_spellings_share_a_node(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("01 2\n1 3\n-1 -2\n-2 -01 2.5\n")
        g = load_edge_list(path)
        assert g.ids.tolist() == [1, 2, 3, -1, -2] and g.m == 3
        assert g.edge_w.tolist() == [1.0, 1.0, 3.5]

    def test_parse_with_comments_and_default_weight(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# snap header\n% koblenz header\n1 2\n2 3 2.5\n")
        g = load_edge_list(path)
        assert g.n == 3 and g.m == 2
        assert sorted(g.edge_w.tolist()) == [1.0, 2.5]

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n1 2 3 4\n")
        with pytest.raises(GraphInputError, match=":2"):
            load_edge_list(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphInputError):
            load_edge_list(path)

    def test_string_id_file_peak(self, tmp_path):
        # 1e5 lines "n<id> n<id>": the loop over the lines peaks at 242 bytes
        # a line; a reader holding a table of every token peaks at 297.
        g = random_regular_graph(50_000, 4, 1)
        label = np.random.default_rng(3).permutation(g.n)
        path = tmp_path / "g.txt"
        ends = zip(label[g.edge_u].tolist(), label[g.edge_v].tolist())
        path.write_text("".join(f"n{a} n{b}\n" for a, b in ends))
        loaded, peak = traced_peak(load_edge_list, path)
        assert loaded.m == g.m and peak < 270 * g.m


    @pytest.mark.parametrize(
        "text, message",
        [
            ("# c\n\n1 2\n2 3 0.5\n3 4 5 6\n", ":5: expected 'u v [w]', got '3 4 5 6'"),
            ("\t1\t2 3  4 \n", ":1: expected 'u v [w]', got '1\\t2 3  4'"),
            ("1 2\n1\n", ":2: expected 'u v [w]', got '1'"),
            ("  % c\n1 2\n\n2 3 x\n", ":4: bad weight 'x'"),
            ("1 2\n2 3 -1\n", ":2: weight must be finite and > 0"),
            ("1 2 nan\n", ":1: weight must be finite and > 0"),
            ("1 2 x\n1 2 3 4\n", ":1: bad weight 'x'"),
            ("1 2 3 4\n1 2 x\n", ":1: expected 'u v [w]', got '1 2 3 4'"),
            ("1 2 0\n1 2 x\n", ":1: weight must be finite and > 0"),
            ("# only\n\n", ": no edges found"),
        ],
    )
    def test_error_names_first_bad_line(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(GraphInputError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}{message}"


class TestNodeValues:
    @pytest.fixture
    def g(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 3\n")
        return load_edge_list(path)

    def test_values_in_node_order(self, g, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# s\n3 0.25\n\n 1\t-0.5\r\n02 1\n")
        out = load_node_values(path, g, name="opinion", lo=-1.0, hi=1.0)
        assert out.tolist() == [-0.5, 1.0, 0.25]

    def test_repeated_node_keeps_last_value(self, g, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 0.5\n2 0.1\n3 0.2\n1 -0.5\n")
        assert load_node_values(path, g).tolist() == [-0.5, 0.1, 0.2]

    def test_string_id_file_peak(self, tmp_path):
        # 1e5 lines "n<id> value": the loop over the lines peaks at 176 bytes
        # a line; a reader holding a table of every token peaks at 301.
        n = 100_000
        rng = np.random.default_rng(3)
        ids = [f"n{i}" for i in rng.permutation(n)]
        g = Graph.from_arrays(np.arange(n - 1), np.arange(1, n), np.ones(n - 1), n, ids)
        values = rng.uniform(-1.0, 1.0, n)
        path = tmp_path / "s.txt"
        path.write_text("".join(f"{i} {x!r}\n" for i, x in zip(ids, values.tolist())))
        out, peak = traced_peak(load_node_values, path, g, lo=-1.0, hi=1.0)
        assert out.tobytes() == values.tobytes() and peak < 240 * n

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# h\n\n1 0.5\n2 0.1 9\n", ":4: expected 'node opinion'"),
            ("1 0.5\n2\n", ":2: expected 'node opinion'"),
            ("1 0.5\n7 0.2\n", ":2: unknown node 7"),
            ("1 0.5\nx 0.2\n", ":2: unknown node 'x'"),
            ("1 0.5\n2 abc\n", ":2: bad opinion 'abc'"),
            ("1 nan\n", ":1: non-finite opinion"),
            ("1 0.5\n2 -inf\n", ":2: non-finite opinion"),
            ("1 0.5\n2 1.5\n", ":2: opinion 1.5 outside [-1.0, 1.0]"),
            ("1 0.5\n9 abc\n2 x\n", ":2: unknown node 9"),
            ("1 abc\n2 0.1 extra\n", ":1: bad opinion 'abc'"),
            ("1 2\n2 0.1\n", ":1: opinion 2.0 outside [-1.0, 1.0]"),
            ("1 0.5\n3 0.1\n", ": missing opinion for nodes [2]"),
        ],
    )
    def test_error_names_first_bad_line(self, g, tmp_path, text, message):
        path = tmp_path / "s.txt"
        path.write_text(text)
        with pytest.raises(GraphInputError) as exc:
            load_node_values(path, g, name="opinion", lo=-1.0, hi=1.0)
        assert str(exc.value) == f"{path}{message}"

    def test_range_needs_both_ends(self, g, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 0.5\n2 0.1\n3 0.2\n")
        with pytest.raises(GraphInputError) as exc:
            load_node_values(path, g, name="opinion", lo=0.0)
        assert str(exc.value) == "opinion range needs both lo and hi"


NUMERIC_IDS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(0, 12).map(lambda i: f"0{i}"),
    st.integers(0, 12).map(lambda i: f"+{i}"),
)
NUMERIC_WEIGHTS = st.one_of(
    st.floats(1e-3, 1e3).map(repr),
    st.sampled_from(["1e-3", "2.", ".5", "3E2", "7"]),
)
NUMERIC_VALUES = st.one_of(
    st.floats(-1.0, 1.0).map(repr),
    st.sampled_from(["-1", "1", "0", "-0.0", ".5", "-.25", "1e-3", "-2E-1"]),
)


def spellings(i):
    """Ways of writing the integer i that int() reads back as i."""
    sign = "-" if i < 0 else ""
    return st.sampled_from([str(i), f"{sign}0{abs(i)}", f"{sign or '+'}{abs(i)}"])


# Whitespace that numpy's C reader and str.split() both split fields on.
NUMERIC_SEPARATORS = [" ", "\t", "  ", " \t ", "\x0c", "\x0b", "\x1c", "\xa0", "\x85", "\u2028", "\u2003"]


@st.composite
def numeric_text(draw, rows):
    """A file of only numbers under an optional ``#``/``%`` header: ``rows``
    with ASCII or Unicode whitespace between fields, blank lines, and \\n,
    \\r\\n or lone \\r endings."""
    lines = draw(st.lists(st.sampled_from(["#", "%", "# u v w", "%% bip unweighted", "#1 2"]), max_size=3))
    for fields in rows:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        seps = [draw(st.sampled_from(NUMERIC_SEPARATORS)) for _ in fields]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + "".join(f + s for f, s in zip(fields, seps)))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@st.composite
def numeric_edge_list_text(draw):
    columns = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.tuples(NUMERIC_IDS, NUMERIC_IDS, NUMERIC_WEIGHTS), min_size=1, max_size=30))
    return draw(numeric_text([row[:columns] for row in rows]))


@st.composite
def numeric_values_case(draw):
    """Distinct integer ids and a values file naming each, some twice."""
    ids = draw(st.lists(st.integers(-3, 12), min_size=2, max_size=12, unique=True))
    rows = [(i, draw(NUMERIC_VALUES)) for i in ids]
    rows += draw(st.lists(st.tuples(st.sampled_from(ids), NUMERIC_VALUES), max_size=10))
    rows = [(draw(spellings(i)), value) for i, value in draw(st.permutations(rows))]
    return ids, draw(numeric_text(rows))


def c_reader_edges(path):
    """load_edge_list's rows from numpy's C reader, or None."""
    return _numeric_edge_list(_numeric_source(path))


def c_reader_values(path, g, lo, hi):
    """load_node_values' vector from numpy's C reader, or None."""
    return _numeric_node_values(_numeric_rows(_numeric_source(path), _VALUE_ROWS), g, lo, hi)


def write_temp(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "wb") as fh:
        fh.write(text.encode())
    return path


class TestNumericFiles:
    """Files of only numbers are parsed by numpy's C reader, to the result
    the line reader gives; every other file and every error is the line
    reader's."""

    @settings(max_examples=200, deadline=None)
    @given(text=numeric_edge_list_text())
    def test_graph_is_the_line_readers(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_temp(tmp, "g.txt", text)
            assert c_reader_edges(path) is not None
            g, reference = load_edge_list(path), build_graph(reference_triples(path))
            assert_same_graph(g, reference)
            assert g.fingerprint() == reference.fingerprint()

    @settings(max_examples=200, deadline=None)
    @given(case=numeric_values_case())
    def test_values_as_read_line_by_line_last_one_wins(self, case):
        ids, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write_temp(tmp, "s.txt", text)
            last = {}
            with open(path) as fh:
                for line in fh:
                    parts = line.split()
                    if parts and parts[0][0] not in "#%":
                        last[int(parts[0])] = float(parts[1])
            expected = np.array([last[i] for i in ids])
            edges = "".join(f"{a} {b}\n" for a, b in zip(ids, ids[1:]))
            loaded = load_edge_list(write_temp(tmp, "g.txt", edges))
            built = build_graph([(a, b, 1.0) for a, b in zip(ids, ids[1:])])
            for g in (loaded, built):
                assert g.ids.tolist() == ids
                assert c_reader_values(path, g, -1.0, 1.0) is not None
                out = load_node_values(path, g, name="opinion", lo=-1.0, hi=1.0)
                assert out.tobytes() == expected.tobytes()

    def test_float_spelled_id_stays_a_string(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1.0 2\n2 3\n")
        assert c_reader_edges(path) is None
        assert load_edge_list(path).ids.tolist() == ["1.0", 2, 3]

    def test_id_beyond_int64_stays_a_python_int(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(f"{2**63} 1\n1 2\n")
        assert c_reader_edges(path) is None
        g = load_edge_list(path)
        assert g.ids.tolist() == [2**63, 1, 2] and all(type(i) is int for i in g.ids.tolist())
        values = tmp_path / "s.txt"
        values.write_text(f"1 0.5\n2 -0.5\n{2**63} 0.25\n")
        assert c_reader_values(values, g, None, None) is None
        assert load_node_values(values, g).tolist() == [0.25, 0.5, -0.5]
        values.write_text("1 0.5\n2 -0.5\n")  # taken by the C reader, but g has no int64 view
        with pytest.raises(GraphInputError) as exc:
            load_node_values(values, g)
        assert str(exc.value) == f"{values}: missing value for nodes [{2**63}]"

    @pytest.mark.parametrize(
        "text", ["1\x0c2\n2\x0c3\n", "1\xa02\n2 3\n"], ids=["form-feed", "no-break-space"]
    )
    def test_unicode_whitespace_agrees_with_the_loop(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        assert c_reader_edges(path) is not None
        assert_same_graph(load_edge_list(path), build_graph(reference_triples(path)))

    @pytest.mark.parametrize(
        "text",
        ["1 2\n# c\n2 3\n", "1 2\n2 3 0.5\n"],
        ids=["later-comment", "mixed-columns"],
    )
    def test_other_files_are_read_line_by_line(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        assert c_reader_edges(path) is None
        assert_same_graph(load_edge_list(path), build_graph(reference_triples(path)))

    def test_indented_header_takes_the_c_path(self, tmp_path):
        # A line is a comment by its first token, in the C reader's header
        # scan as in the loops over the lines.
        edges = tmp_path / "g.txt"
        edges.write_text(" # u v w\n\t% bip\n3 1 0.5\n1 2 2\n")
        assert c_reader_edges(edges) is not None
        g = load_edge_list(edges)
        assert_same_graph(g, build_graph(reference_triples(edges)))
        values = tmp_path / "s.txt"
        values.write_text("  # node value\n2 0.25\n3 -0.5\n1 1\n")
        out = c_reader_values(values, g, -1.0, 1.0)
        assert out is not None
        assert out.tobytes() == load_node_values(values, g, lo=-1.0, hi=1.0, rows=False).tobytes()

    def test_any_warning_sends_the_file_to_the_line_reader(self, tmp_path, monkeypatch):
        # numpy 1.24 reads the id 1.0 as the int 1, with a DeprecationWarning.
        loadtxt = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 3\n")
        assert c_reader_edges(path) is None
        assert_same_graph(load_edge_list(path), build_graph(reference_triples(path)))

    def test_refusing_a_file_takes_one_pass(self):
        # Refused at its first line (2000 columns) or at its last byte, a file
        # is read at most once.
        for text in ("1 " * 2000 + "\n" + "1 2\n" * 50000 + "x", "1 2\n" * 50000 + "x"):
            t = time.perf_counter()
            assert _numeric_edge_list(io.StringIO(text)) is None
            assert time.perf_counter() - t < 1.0

    def test_header_beyond_ascii_is_skipped_by_the_c_reader(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("% naïve ✓\n# Ω\n3 1 0.5\n1 2 2\n", encoding="utf-8")
        assert c_reader_edges(path) is not None
        assert_same_graph(load_edge_list(path), build_graph(reference_triples(path)))

    @pytest.mark.parametrize(
        "name, text",
        [
            ("g.gz", "3 1 0.5\n1 2 2\n"),
            ("g.bz2", "3 1 0.5\n1 2 2\n"),
            ("g.xz", "3 1 0.5\n# c\n1 2 2\n"),
            ("gzip", "3 1 0.5\n1 2 2\n"),
            ("fifo", "3 1 0.5\n1 2 2\n"),
            ("fifo", "3 1 0.5\n# c\n1 2 2\n"),
        ],
        ids=["plain-gz", "plain-bz2", "plain-xz-lines", "gzip", "fifo", "fifo-lines"],
    )
    def test_names_numpy_unpacks_and_pipes_are_read_as_text(self, tmp_path, name, text):
        # numpy would open the path through a decompressor picked by its
        # suffix, and a pipe cannot be read again on a refusal.
        regular = tmp_path / "g.txt"
        regular.write_text(text)
        if name == "gzip":
            path = tmp_path / "g.gz"
            path.write_bytes(gzip.compress(text.encode()))
            with pytest.raises(GraphInputError) as exc:
                load_edge_list(path)
            assert str(exc.value) == f"{path}: cannot decode as utf-8 at byte 1: invalid start byte"
            return
        path = tmp_path / name
        if name == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no os.mkfifo on this platform")
            os.mkfifo(path)
            writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
            writer.start()
            g = load_edge_list(path)
            writer.join()
        else:
            path.write_text(text)
            assert isinstance(_numeric_source(path), io.TextIOWrapper)
            g = load_edge_list(path)
        assert_same_graph(g, load_edge_list(regular))
        assert_same_graph(g, build_graph(reference_triples(regular)))

    def test_parse_holds_the_rows_not_the_text(self, tmp_path):
        # Padded lines under a header: the text is 13 times the rows parsed
        # from it, and numpy reads the file in chunks.
        path = tmp_path / "g.txt"
        path.write_text("# u v\n" + "".join(f"{i} {i + 1}{' ' * 200}\n" for i in range(20000)))
        tracemalloc.start()
        try:
            rows = _numeric_rows(_numeric_source(path), {2: "i8,i8"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.size == 20000 and peak < 2 * rows.nbytes

    def test_text_is_freed_before_the_ids_are_numbered(self, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{i} {i + 1}{' ' * 200}\n" for i in range(5000)))
        held, first_seen_ints = [], graph_module._first_seen_ints

        def traced(values):
            held.append(tracemalloc.get_traced_memory()[0])
            return first_seen_ints(values)

        monkeypatch.setattr(graph_module, "_first_seen_ints", traced)
        tracemalloc.start()
        try:
            g = load_edge_list(path)
        finally:
            tracemalloc.stop()
        # The rows, the endpoints and unit weights: 40 bytes a line, not the text's 205.
        assert g.m == 5000 and len(held) == 1 and held[0] < 100 * 5000

    def test_bad_weight_is_reported_by_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2 1\n2 3 1\n3 4 -1\n")
        assert c_reader_edges(path) is None
        with pytest.raises(GraphInputError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}:3: weight must be finite and > 0"

    @pytest.mark.parametrize(
        "edges, text, message",
        [
            ("1 2\n2 3\n", "1 0.5\n2 0.1\n3 0.2\n7 0.2\n", ":4: unknown node 7"),
            ("1 2\n2 3\n", "1 0.5\n2 1.5\n3 0\n", ":2: opinion 1.5 outside [-1.0, 1.0]"),
            ("1 2\n2 3\n", "1 0.5\n2 1e999\n3 0\n", ":2: non-finite opinion"),
            ("1 2\n2 3\n", "1 0.5\n3 0.1\n", ": missing opinion for nodes [2]"),
            ("1 x\nx 2\n", "1 0.5\n2 0.1\n", ": missing opinion for nodes ['x']"),
        ],
        ids=["unknown-node", "out-of-range", "non-finite", "missing-node", "string-ids"],
    )
    def test_value_errors_are_reported_by_line(self, tmp_path, edges, text, message):
        (tmp_path / "g.txt").write_text(edges)
        g = load_edge_list(tmp_path / "g.txt")
        path = tmp_path / "s.txt"
        path.write_text(text)
        assert c_reader_values(path, g, -1.0, 1.0) is None
        with pytest.raises(GraphInputError) as exc:
            load_node_values(path, g, name="opinion", lo=-1.0, hi=1.0)
        assert str(exc.value) == f"{path}{message}"


def write_graph(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    return load_edge_list(path)


class TestParseId:
    @settings(max_examples=500, deadline=None)
    @given(tok=st.text(alphabet="+-_0123456789٣３²vxé", min_size=1, max_size=6))
    def test_int_where_int_takes_the_token(self, tok):
        try:
            expected = int(tok)
        except ValueError:
            expected = tok
        got = graph_module._parse_id(tok)
        assert type(got) is type(expected) and got == expected

    def test_string_ids_make_no_int_call(self, tmp_path, monkeypatch):
        n = 1000
        ids = [f"v{i}" for i in np.random.default_rng(3).permutation(n)]
        (tmp_path / "g.txt").write_text("".join(f"{a} {b}\n" for a, b in zip(ids, ids[1:])))
        (tmp_path / "s.txt").write_text("".join(f"{i} 0.5\n" for i in ids))
        tokens = []  # the str tokens given to int(), which this shadows in the graph module

        def counting_int(x, *args):
            if isinstance(x, str):
                tokens.append(x)
            return int(x, *args)

        monkeypatch.setattr(graph_module, "int", counting_int, raising=False)
        g = load_edge_list(tmp_path / "g.txt")
        out = load_node_values(tmp_path / "s.txt", g, lo=-1.0, hi=1.0)
        assert g.ids.tolist() == ids and out.tolist() == [0.5] * n
        assert tokens == []


class TestIdArray:
    """``Graph.ids`` is a read-only array, int64 where every label is an
    integer within 64 bits and object otherwise."""

    def test_read_only(self):
        g = Graph.from_arrays([0], [1], [1.0], 2)
        assert not g.ids.flags.writeable
        with pytest.raises(ValueError):
            g.ids[0] = 5

    def test_callers_array_is_copied(self):
        labels = np.array([7, 3, 5])
        g = Graph.from_arrays([0], [1], [1.0], 3, ids=labels)
        assert labels.flags.writeable and not np.shares_memory(labels, g.ids)
        labels[0] = 9
        assert g.ids.tolist() == [7, 3, 5]

    @pytest.mark.parametrize(
        "make, ids",
        [
            (lambda tmp: Graph.from_arrays([0], [1], [1.0], 3), [0, 1, 2]),
            (lambda tmp: random_regular_graph(10, 3, 1), list(range(10))),
            (lambda tmp: random_connected_gnp(8, 0.3, 2), list(range(8))),
            (lambda tmp: write_graph(tmp, "# h\n10 -3\n-3 7 2.5\n"), [10, -3, 7]),
            (lambda tmp: write_graph(tmp, "10 -3\n# c\n-3 7\n"), [10, -3, 7]),
            (lambda tmp: build_graph([(4, 2, 1.0), (2, 9, 1.0)]), [4, 2, 9]),
        ],
        ids=["default", "regular", "gnp", "c-reader", "line-reader", "build_graph"],
    )
    def test_integer_ids_are_int64(self, tmp_path, make, ids):
        g = make(tmp_path)
        assert g.ids.dtype == np.int64 and g.ids.tolist() == ids

    @pytest.mark.parametrize(
        "make, ids",
        [
            (lambda tmp: build_graph([("a", "b", 1.0)]), ["a", "b"]),
            (lambda tmp: write_graph(tmp, "1.0 2\n2 3\n"), ["1.0", 2, 3]),
            (lambda tmp: write_graph(tmp, f"{2**63} 1\n1 2\n"), [2**63, 1, 2]),
        ],
        ids=["strings", "float-spelled", "beyond-int64"],
    )
    def test_other_ids_are_objects(self, tmp_path, make, ids):
        g = make(tmp_path)
        x = g.ids.tolist()
        assert g.ids.dtype == object and x == ids and list(map(type, x)) == list(map(type, ids))

    def test_line_read_integer_ids_take_the_c_value_path(self, tmp_path):
        g = write_graph(tmp_path, "10 -3\n# c\n-3 7\n")
        assert c_reader_edges(tmp_path / "g.txt") is None  # a later comment
        (tmp_path / "s.txt").write_text("7 0.5\n10 -0.25\n-3 1\n")
        expected = [-0.25, 1.0, 0.5]
        assert c_reader_values(tmp_path / "s.txt", g, -1.0, 1.0).tolist() == expected
        assert load_node_values(tmp_path / "s.txt", g, lo=-1.0, hi=1.0).tolist() == expected

    def test_messages_print_ids_as_read(self, tmp_path):
        with pytest.raises(GraphInputError) as exc:
            Graph.from_arrays([0], [1], [0.0], 2, ids=np.array([1, 2]))
        assert str(exc.value) == "edge 1: weight must be finite and > 0, got 0.0 for (1, 2)"
        g = write_graph(tmp_path, "1 5\n")
        (tmp_path / "s.txt").write_text("1 0.5\n")
        with pytest.raises(GraphInputError) as exc:
            load_node_values(tmp_path / "s.txt", g)
        assert str(exc.value) == f"{tmp_path / 's.txt'}: missing value for nodes [5]"


class TestLaplacian:
    def test_path_of_two(self, path2):
        assert np.allclose(laplacian_apply(path2, np.array([1.0, -1.0])), [2.0, -2.0])

    def test_annihilates_constants(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g, _, _ = make_instance(rng)
            out = laplacian_apply(g, np.ones(g.n))
            assert np.abs(out).max() <= 1e-12 * g.n * g.w_max

    def test_triangle_against_dense_oracle(self):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        x = np.array([1.0, 0.0, 0.0])
        assert np.allclose(laplacian_apply(g, x), dense_laplacian(g) @ x)
        assert np.allclose(laplacian_apply(g, x), [2.0, -1.0, -1.0])

    def test_dimension_mismatch(self, path2):
        with pytest.raises(GraphInputError):
            laplacian_apply(path2, np.zeros(3))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_incidence_composition_matches(self, seed):
        rng = np.random.default_rng(seed)
        g, _, _ = make_instance(rng, n_max=25)
        x = rng.standard_normal(g.n)
        flow = g.edge_w * (x[g.edge_u] - x[g.edge_v])  # W B x, b_e = e_u - e_v
        btwbx = np.bincount(g.edge_u, flow, g.n) - np.bincount(g.edge_v, flow, g.n)
        lx = laplacian_apply(g, x)
        scale = max(np.abs(lx).max(), 1.0)
        assert np.abs(btwbx - lx).max() <= 1e-12 * scale

    def test_weighted_incidence_norm_is_dirichlet_energy(self):
        rng = np.random.default_rng(3)
        g, _, _ = make_instance(rng)
        x = rng.standard_normal(g.n)
        energy = float(x @ laplacian_apply(g, x))
        assert np.isclose(g.edge_w @ (x[g.edge_u] - x[g.edge_v]) ** 2, energy)


def csr(row_lengths, index=np.int32, seed=0):
    """A float64 CSR matrix with the given entries per row, columns drawn at
    random, and a vector to multiply it by."""
    rng = np.random.default_rng(seed)
    n = len(row_lengths)
    indptr = np.concatenate(([0], np.cumsum(row_lengths))).astype(index)
    indices = np.concatenate([np.sort(rng.choice(n, t, replace=False))
                              for t in row_lengths]).astype(index)
    a = sp.csr_matrix((rng.standard_normal(indptr[-1]), indices, indptr), shape=(n, n))
    a.indices, a.indptr = indices, indptr  # scipy may narrow the given dtype
    return a, rng.standard_normal(n)


class TestHalves:
    @pytest.fixture
    def halves(self):
        """The kernel calls that ``force_split`` records, and how many one
        product takes: none recorded here, where products are not split."""
        return [], 0

    @pytest.mark.parametrize("index", [np.int32, np.int64])
    @pytest.mark.parametrize("seed", range(3))
    def test_is_the_product_byte_for_byte(self, halves, index, seed):
        rows, calls = halves
        rng = np.random.default_rng(seed)
        g, k, _ = make_instance(rng, n_max=60)
        # L + K, and A, the matrix of every step loop
        for a in (operator_matrix(g, k), g.adjacency):
            a.indices, a.indptr = a.indices.astype(index), a.indptr.astype(index)
            x = rng.standard_normal(g.n)
            out = np.zeros(g.n)
            rows.clear()
            assert product_onto(a, x, out) is out
            assert a.indices.dtype == a.indptr.dtype == index
            assert out.tobytes() == (a @ x).tobytes()
            assert len(rows) == calls
            if calls:
                # This thread's rows up to the first boundary with half the
                # entries before it, the worker's from there.
                (first, cut), (start, rest) = sorted(rows)
                assert first == 0 and 0 < cut < g.n and (start, rest) == (a.indptr[cut], g.n - cut)
                assert a.indptr[cut - 1] < a.nnz // 2 <= a.indptr[cut]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_diagonal_term_starts_each_row(self, halves, seed):
        # out started at d * x, then A x added: each row summed from its
        # diagonal term on, the product of a CSR matrix whose rows hold that
        # term first.
        rows, calls = halves
        rng = np.random.default_rng(seed)
        g, _, _ = make_instance(rng, n_max=60)
        a, d, x = g.adjacency, rng.standard_normal(g.n), rng.standard_normal(g.n)
        out = d * x
        assert product_onto(a, x, out) is out
        assert out.tobytes() == (diagonal_first_rows(a, d) @ x).tobytes()
        assert len(rows) == calls

    def test_blocks_view_each_vector_on_their_rows(self, halves):
        rows, calls = halves
        g = random_regular_graph(40, 4, 1)
        x, y = np.arange(g.n, dtype=np.float64), np.zeros(g.n)
        blocks = graph_module._halves(g.adjacency, x, y)
        assert len(blocks) == max(calls, 1)
        lo = 0
        for _, x_, y_ in blocks:
            assert x_.base is x and y_.base is y and x_[0] == lo and x_.size == y_.size
            lo += x_.size
        assert lo == g.n and rows == []  # no product runs until a part calls one


class TestSplitHalves(TestHalves):
    """TestHalves's tests with every pass split, and the split's own."""

    @pytest.fixture
    def halves(self, monkeypatch):
        return force_split(monkeypatch), 2

    @pytest.mark.parametrize("index", [np.int32, np.int64])
    @pytest.mark.parametrize("row_lengths", [
        [2, 0, 0, 0, 2],  # the cut row is empty, and so are the rows after it
        [0, 0, 2, 2],  # empty rows before the cut
        [3, 0, 0, 3, 0, 0],  # empty rows on both sides, and at the end
        [0, 0, 0],  # no entries: every row goes to the worker
        [1],  # n = 1
        [0],
    ])
    def test_empty_rows_and_one_row(self, monkeypatch, index, row_lengths):
        rows = force_split(monkeypatch)
        a, x = csr(row_lengths, index)
        assert a.indptr.dtype == index
        out = np.zeros(a.shape[0])
        assert product_onto(a, x, out).tobytes() == (a @ x).tobytes()
        assert len(rows) == 2 and sum(n_row for _, n_row in rows) == a.shape[0]
        d = np.random.default_rng(1).standard_normal(a.shape[0])
        out = d * x
        assert product_onto(a, x, out).tobytes() == (diagonal_first_rows(a, d) @ x).tobytes()

    def test_reports_and_dynamics_are_the_serial_ones(self, monkeypatch):
        g = random_regular_graph(2000, 4, 1)
        k = generate_stubbornness(g.n, 0.01, 1.0, 5)
        s = generate_opinions(g.n, "powerlaw", 3)

        def run():
            reports = [approxim(g, k, s, eps).to_dict() for eps in (1e-4, 1e-8)]
            for report in reports:
                del report["solve_seconds"], report["norms_seconds"]
            state, trace = simulate_until(g, k, s, s.copy(), 1e-6)
            return reports, trace, state.t, state.z.tobytes()

        serial = run()
        rows = force_split(monkeypatch)
        split = run()
        assert len(rows) > 100 and len(rows) % 2 == 0
        assert split == serial

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_takes_split_products(self, monkeypatch):
        # The child has no worker thread: keeping the parent's executor, its
        # first split product would wait forever for the second half.
        force_split(monkeypatch)
        g = random_regular_graph(500, 4, 1)
        x = np.random.default_rng(1).standard_normal(g.n)
        product = (g.adjacency @ x).tobytes()
        assert product_onto(g.adjacency, x, np.zeros(g.n)).tobytes() == product
        assert graph_module._worker is not None
        assert in_forked_child(
            lambda: product_onto(g.adjacency, x, np.zeros(g.n)).tobytes() == product) == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity mask")
    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(graph_module, "SPLIT_ENTRIES", 0)
        monkeypatch.setattr(graph_module, "_worker", None)
        g = random_regular_graph(500, 4, 1)
        x = np.random.default_rng(1).standard_normal(g.n)
        mask = os.sched_getaffinity(0)
        threads = threading.active_count()
        os.sched_setaffinity(0, {min(mask)})
        try:
            blocks = len(graph_module._halves(g.adjacency))
            out = product_onto(g.adjacency, x, np.zeros(g.n))
        finally:
            os.sched_setaffinity(0, mask)
        assert blocks == 1 and out.tobytes() == (g.adjacency @ x).tobytes()
        assert graph_module._worker is None and threading.active_count() == threads


class TestIdentity:
    def test_graph_stubbornness_and_state_compare_and_hash_by_identity(self):
        for make in (lambda: build_graph([(0, 1, 1.0), (1, 2, 2.0)]),
                     lambda: StubbornnessVector.uniform(3, 1.0),
                     lambda: OpinionState(s=np.ones(3), z=np.zeros(3))):
            a, b = make(), make()
            assert a == a and not a != a
            assert a != b and not a == b
            assert hash(a) == hash(a) and isinstance(hash(b), int)
            assert a in {a} and b not in {a} and len({a, b, a}) == 2


class TestStubbornness:
    def test_extremes_cached(self):
        k = StubbornnessVector.from_values([2.0, 0.5, 1.5])
        assert k.k_min == 0.5 and k.k_max == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphInputError):
            StubbornnessVector.from_values([1.0, 0.0])
        with pytest.raises(GraphInputError):
            StubbornnessVector.from_values([1.0, float("inf")])


class TestDiagonal:
    def test_a_new_vector_on_every_call(self):
        # Its callers change it in place, so no call may see another's changes.
        g, k, _ = make_instance(np.random.default_rng(5))
        degrees, stubbornness = g.degrees.copy(), k.k.copy()
        first = graph_module._diagonal(g, k)
        first *= 0.5  # as spectral_radius halves it
        second = graph_module._diagonal(g, k)
        np.negative(second, out=second)  # as _pcg negates it
        third = graph_module._diagonal(g, k)
        assert third.tobytes() == (degrees + stubbornness).tobytes()
        for vector in (g.degrees, k.k, first, second):
            assert not np.shares_memory(third, vector)
        assert g.degrees.tobytes() == degrees.tobytes() and k.k.tobytes() == stubbornness.tobytes()


class TestEigenBounds:
    def test_two_node_path(self, path2, k21):
        bounds = eigen_bounds(path2, k21)
        eig = np.linalg.eigvalsh(operator_matrix(path2, k21).toarray())
        assert bounds.lower == 1.0
        assert eig.min() >= bounds.lower and eig.max() <= bounds.upper
        assert bounds.coarse_upper == 2.0 + 2 * 1.0

    def test_single_node(self):
        g = Graph.from_arrays([], [], [], 1)
        k = StubbornnessVector.from_values([5.0])
        bounds = eigen_bounds(g, k)
        assert (bounds.lower, bounds.upper) == (5.0, 5.0)

    def test_star_paper_bound(self):
        g = build_graph([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        k = StubbornnessVector.uniform(4, 1.0)
        bounds = eigen_bounds(g, k)
        assert bounds.lower == 1.0
        assert bounds.coarse_upper == 1.0 + 4 * 1.0

    def test_spectrum_inside_paper_bounds_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g, k, _ = make_instance(rng, n_max=50)
            bounds = eigen_bounds(g, k)
            eig = np.linalg.eigvalsh(operator_matrix(g, k).toarray())
            assert eig.min() >= bounds.lower - 1e-9
            assert eig.max() <= bounds.coarse_upper + 1e-9


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: StubbornnessVector.from_values([]),
         "stubbornness vector must be non-empty and 1-d"),
        (lambda g: eigen_bounds(g, StubbornnessVector.uniform(3, 1.0)),
         "stubbornness length does not match graph"),
        (lambda g: graph_module._diagonal(g, StubbornnessVector.uniform(3, 1.0)),
         "stubbornness length does not match graph"),
    ],
    ids=["empty-stubbornness", "eigen_bounds", "diagonal"],
)
def test_input_checks(path2, call, message):
    with pytest.raises(GraphInputError) as exc:
        call(path2)
    assert str(exc.value) == message
