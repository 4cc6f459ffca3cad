import os
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_laplacian, make_instance
from fjopinion.errors import GraphInputError
from fjopinion.graph import (
    Graph,
    StubbornnessVector,
    _VALUE_ROWS,
    _numeric_edge_list,
    _numeric_node_values,
    _numeric_rows,
    build_graph,
    eigen_bounds,
    laplacian_apply,
    load_edge_list,
    load_node_values,
    operator_matrix,
)


def assert_same_graph(a, b):
    """Bit-identical edge arrays and degrees, equal ids of equal types."""
    for name in ("edge_u", "edge_v", "edge_w", "degrees"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.ids == b.ids and [type(i) for i in a.ids] == [type(i) for i in b.ids]
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
        assert g.ids == ("a", "b", "c")

    def test_weight_error_names_edge_and_labels(self):
        with pytest.raises(GraphInputError) as exc:
            build_graph([(1, 2, 1.0), ("a", 3, -0.5)])
        assert str(exc.value) == "edge 2: weight must be finite and > 0, got -0.5 for ('a', 3)"

    def test_labels_with_equal_hashes_stay_apart(self):
        # hash(-1) == hash(-2) in CPython.
        g = build_graph([(-1, -2, 1.0), (-2, 5, 2.0), (-1, 5, 1.0), (-2, -1, 0.5)])
        assert g.ids == (-1, -2, 5) and g.m == 3
        assert g.edge_w.tolist() == [1.5, 1.0, 2.0]

    def test_equal_labels_of_two_types_share_a_node(self):
        g = build_graph([(1, 2, 1.0), (2.0, 1.0, 1.0)])
        assert g.ids == (1, 2) and g.m == 1 and g.edge_w[0] == 2.0

    def test_deterministic_construction(self):
        triples = [(3, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)]
        assert build_graph(triples).fingerprint() == build_graph(triples).fingerprint()


def merge_reference(u, v, w):
    """Loop-dropping, weight-summing dict merge in input order."""
    merged = {}
    for a, b, x in zip(u, v, w):
        if a != b:
            key = (min(a, b), max(a, b))
            merged[key] = merged.get(key, 0.0) + x
    keys = sorted(merged)
    return [k[0] for k in keys], [k[1] for k in keys], [merged[k] for k in keys]


class TestFromArrays:
    def test_merges_canonicalises_and_counts_loops(self):
        g = Graph.from_arrays([2, 0, 1, 2, 2], [0, 2, 1, 1, 0], [1.0, 2.0, 5.0, 0.5, 0.25], 4)
        assert g.edge_u.tolist() == [0, 1] and g.edge_v.tolist() == [2, 2]
        assert g.edge_w.tolist() == [3.25, 0.5]
        assert g.degrees.tolist() == [3.25, 0.5, 3.75, 0.0]
        assert g.self_loops_dropped == 1 and g.ids == (0, 1, 2, 3)
        assert not g.edge_w.flags.writeable

    def test_no_edges(self):
        g = Graph.from_arrays([], [], [], 3, ids=("a", "b", "c"))
        assert (g.n, g.m) == (3, 0) and g.edge_w.dtype == np.float64
        assert g.degrees.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "u, v, w, n, ids, message",
        [
            ([0], [3], [1.0], 3, None, r"endpoints must lie in \[0, 3\)"),
            ([-1], [0], [1.0], 3, None, r"endpoints must lie in \[0, 3\)"),
            ([0, 1], [1], [1.0], 3, None, "of one length"),
            ([0], [1], [1.0], 3, ("a", "b"), "2 node ids for n=3"),
            ([], [], [], 0, None, "empty input"),
            ([0, 1], [1, 2], [1.0, np.inf], 3, "abc", r"^edge 2: .* got inf for \('b', 'c'\)$"),
        ],
        ids=["endpoint-high", "endpoint-negative", "lengths", "ids", "empty", "weight"],
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
        assert g.ids == (1, 2, 3, -1, -2) and g.m == 3
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


@st.composite
def numeric_text(draw, rows):
    """A file of only numbers under an optional ``#``/``%`` header: ``rows``
    with spaces or tabs between fields, blank lines, \\n or \\r\\n endings."""
    lines = draw(st.lists(st.sampled_from(["#", "%", "# u v w", "%% bip unweighted", "#1 2"]), max_size=3))
    for fields in rows:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        seps = [draw(st.sampled_from([" ", "\t", "  ", " \t "])) for _ in fields]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + "".join(f + s for f, s in zip(fields, seps)))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
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


def c_reader_values(text, g, lo, hi):
    """load_node_values' vector from numpy's C reader, or None."""
    return _numeric_node_values(_numeric_rows(text, _VALUE_ROWS), g, lo, hi)


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
            with open(path) as fh:
                assert _numeric_edge_list(fh.read()) is not None
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
                assert g.ids == tuple(ids)
                with open(path) as fh:
                    assert c_reader_values(fh.read(), g, -1.0, 1.0) is not None
                out = load_node_values(path, g, name="opinion", lo=-1.0, hi=1.0)
                assert out.tobytes() == expected.tobytes()

    def test_float_spelled_id_stays_a_string(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1.0 2\n2 3\n")
        assert _numeric_edge_list(path.read_text()) is None
        assert load_edge_list(path).ids == ("1.0", 2, 3)

    def test_id_beyond_int64_stays_a_python_int(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(f"{2**63} 1\n1 2\n")
        assert _numeric_edge_list(path.read_text()) is None
        g = load_edge_list(path)
        assert g.ids == (2**63, 1, 2) and all(type(i) is int for i in g.ids)
        values = tmp_path / "s.txt"
        values.write_text(f"1 0.5\n2 -0.5\n{2**63} 0.25\n")
        assert c_reader_values(values.read_text(), g, None, None) is None
        assert load_node_values(values, g).tolist() == [0.25, 0.5, -0.5]
        values.write_text("1 0.5\n2 -0.5\n")  # taken by the C reader, but g has no int64 view
        with pytest.raises(GraphInputError) as exc:
            load_node_values(values, g)
        assert str(exc.value) == f"{values}: missing value for nodes [{2**63}]"

    @pytest.mark.parametrize(
        "text",
        ["1\x0c2\n2\x0c3\n", "1\xa02\n2 3\n", "1 2\n# c\n2 3\n", " # c\n1 2\n2 3\n", "1 2\n2 3 0.5\n"],
        ids=["form-feed", "no-break-space", "later-comment", "indented-header", "mixed-columns"],
    )
    def test_other_files_are_read_line_by_line(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        with open(path) as fh:
            assert _numeric_edge_list(fh.read()) is None
        assert_same_graph(load_edge_list(path), build_graph(reference_triples(path)))

    def test_any_warning_sends_the_file_to_the_line_reader(self, tmp_path, monkeypatch):
        # numpy 1.24 reads the id 1.0 as the int 1, with a DeprecationWarning.
        loadtxt = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 3\n")
        assert _numeric_edge_list(path.read_text()) is None
        assert_same_graph(load_edge_list(path), build_graph(reference_triples(path)))

    def test_refusing_a_file_takes_one_pass(self):
        # A check that backtracked would rescan the text once for each
        # character of the first line: about 10 s here, not 1 ms.
        text = "1 " * 2000 + "\n" + "1 2\n" * 50000 + "x"
        t = time.perf_counter()
        assert _numeric_edge_list(text) is None
        assert time.perf_counter() - t < 1.0

    def test_bad_weight_is_reported_by_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2 1\n2 3 1\n3 4 -1\n")
        assert _numeric_edge_list(path.read_text()) is None
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
        assert c_reader_values(text, g, -1.0, 1.0) is None
        with pytest.raises(GraphInputError) as exc:
            load_node_values(path, g, name="opinion", lo=-1.0, hi=1.0)
        assert str(exc.value) == f"{path}{message}"


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


class TestStubbornness:
    def test_extremes_cached(self):
        k = StubbornnessVector.from_values([2.0, 0.5, 1.5])
        assert k.k_min == 0.5 and k.k_max == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphInputError):
            StubbornnessVector.from_values([1.0, 0.0])
        with pytest.raises(GraphInputError):
            StubbornnessVector.from_values([1.0, float("inf")])


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
    ],
    ids=["empty-stubbornness", "eigen_bounds"],
)
def test_input_checks(path2, call, message):
    with pytest.raises(GraphInputError) as exc:
        call(path2)
    assert str(exc.value) == message
