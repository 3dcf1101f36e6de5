"""Graph model, file format, and basic queries."""

from __future__ import annotations

import sys
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wlhom import (
    Graph,
    GraphFormatError,
    empty_graph,
    parse_graph,
    path_graph,
    permute,
    serialize_graph,
)

from wlhom import graphs as graphs_module
from wlhom.graphs import gather

from .conftest import (
    PROPERTY_SETTINGS,
    cycle_graph,
    degree,
    disjoint_union,
    graphs,
    isolated_vertices,
    star_graph,
)


class TestConstruction:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.vertex_count == 3
        assert g.edge_count == 3
        assert [degree(g, v) for v in range(3)] == [2, 2, 2]

    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (0, 1), (3, 0)])
        assert g.adjacency[0] == (1, 2, 3)
        for u in range(4):
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    @pytest.mark.parametrize("n, edges, message", [
        # a list takes an index in [-n, -1]: it must not wrap into a vertex
        (3, [(0, 1), (2, -1)], "vertex index -1 out of range [0, 3)"),
        (3, [(-3, 1)], "vertex index -3 out of range [0, 3)"),
        (3, [(0, 2), (0, -1)], "vertex index -1 out of range [0, 3)"),
        (3, [(0, -4)], "vertex index -4 out of range [0, 3)"),
        (3, [(3, 0)], "vertex index 3 out of range [0, 3)"),
        (3, [(0, 1), (1, 3)], "vertex index 3 out of range [0, 3)"),
        (3, [(0, 1), (sys.maxsize + 1, 2)], "vertex index <19 digits> out of range [0, 3)"),
        (3, [(0, -sys.maxsize - 2)], "vertex index -<19 digits> out of range [0, 3)"),
        (0, [(0, 0)], "vertex index 0 out of range [0, 0)"),
        # the first bad edge in order is the one named
        (3, [(0, 1), (1, 5), (1, 0)], "vertex index 5 out of range [0, 3)"),
        (3, [(0, 1), (1, 0), (1, 5)], "duplicate edge 0 1"),
        (3, [(0, 1), (2, -1), (1, 0)], "vertex index -1 out of range [0, 3)"),
        (3, [(0, 1), (1, 0), (2, -1)], "duplicate edge 0 1"),
        (3, [(1, 1), (0, -1)], "self-loop at vertex 1"),
    ])
    def test_edge_error_message(self, n, edges, message):
        with pytest.raises(GraphFormatError) as exc:
            Graph(n, edges)
        assert exc.value.line is None
        assert str(exc.value) == message

    def test_degree_out_of_range(self):
        with pytest.raises(IndexError):
            degree(path_graph(3), 3)

    def test_equality_ignores_edge_order(self):
        assert Graph(3, [(0, 1), (1, 2)]) == Graph(3, [(2, 1), (0, 1)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])


class TestParse:
    def test_triangle_file(self):
        g = parse_graph("3 3\n0 1\n1 2\n2 0\n")
        assert g == cycle_graph(3)

    def test_single_isolated_vertex(self):
        g = parse_graph("1 0\n")
        assert g.vertex_count == 1
        assert degree(g, 0) == 0

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a triangle\n\n3 3\n# edges\n0 1\n1 2\n2 0\n")
        assert g == cycle_graph(3)

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("2 1\n0 0\n")
        assert exc.value.line == 2
        assert "self-loop" in str(exc.value)

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("# c\n2 2\n0 1\n1 0\n")
        assert exc.value.line == 4

    @pytest.mark.parametrize("text, line, message", [
        ("# c\n4 3\n0 1\n\n# x\n1 2\n2 9\n", 7, "vertex index 9 out of range [0, 4)"),
        ("4 3\n0 1\n1 2\n3 3\n", 4, "self-loop at vertex 3"),
        ("4 3\n0 1\n1 2\n\n2 1\n", 5, "duplicate edge 1 2"),
        ("4 2\n0 7\n1 1\n", 2, "vertex index 7 out of range [0, 4)"),
    ])
    def test_edge_error_message_and_line(self, text, line, message):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_out_of_range_index(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 1\n0 5\n")

    @pytest.mark.parametrize("text, line", [
        ("2 1\n0 " + "9" * 5000, 2),
        ("9" * 5000 + " 0\n", 1),
        ("# c\n2 1\nx " + "9" * 5000 + "\n", 3),
    ])
    def test_number_past_digit_limit_is_too_long_not_echoed(self, text, line):
        # int() refuses 5000 digits; the error names the length, not the line
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: number of 5000 digits is too long"
        assert len(str(exc.value)) < 200

    @pytest.mark.parametrize("text, line, message", [
        ("2 1\n0 " + "9" * 4000, 2, "vertex index <4000 digits> out of range [0, 2)"),
        ("2 1\n" + "9" * 19 + " 0\n", 2, "vertex index <19 digits> out of range [0, 2)"),
        ("2 1\n0 -" + "9" * 19 + "\n", 2, "vertex index -<19 digits> out of range [0, 2)"),
        ("2 " + "9" * 4000, None, "header announces <4000 digits> edges but file contains 0"),
        # up to 18 digits a number is quoted whole, in bulk and line by line
        ("2 1\n0 " + "9" * 18, 2, f"vertex index {'9' * 18} out of range [0, 2)"),
        ("2 1\n0 -" + "9" * 18, 2, f"vertex index -{'9' * 18} out of range [0, 2)"),
        ("2 " + "9" * 18, None, f"header announces {'9' * 18} edges but file contains 0"),
    ])
    def test_long_number_named_by_digit_count(self, text, line, message):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert exc.value.line == line
        assert str(exc.value) == (message if line is None else f"line {line}: {message}")
        assert len(str(exc.value)) < 200

    @pytest.mark.parametrize("text, line, message", [
        ("x" * 4000 + " 1\n", 1, "header must be two integers 'N M', got <4002 characters>"),
        ("2 -" + "9" * 4000 + "\n", 1, "negative count in header <4003 characters>"),
        ("2 1\n0 1 " + "9" * 4000 + "\n", 2, "edge line must be 'u v', got <4004 characters>"),
        # a line whose repr has at most 60 characters is quoted whole
        ("2 -1\n", 1, "negative count in header '2 -1'"),
        ("2 1\n0 1 2\n", 2, "edge line must be 'u v', got '0 1 2'"),
    ])
    def test_long_line_named_by_its_length(self, text, line, message):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"
        assert len(str(exc.value)) < 200

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            parse_graph("three 3\n")
        with pytest.raises(GraphFormatError):
            parse_graph("3\n")
        with pytest.raises(GraphFormatError):
            parse_graph("")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 2\n0 1\n")
        with pytest.raises(GraphFormatError):
            parse_graph("3 1\n0 1\n1 2\n")

    def test_negative_counts(self):
        with pytest.raises(GraphFormatError):
            parse_graph("-1 0\n")
        with pytest.raises(GraphFormatError, match="^negative vertex count -1$"):
            Graph(-1, [])


class TestIsolatedVertices:
    def test_triangle_plus_one(self):
        g = disjoint_union(cycle_graph(3), empty_graph(1))
        assert isolated_vertices(g) == {3}

    def test_hexagon_has_none(self):
        assert isolated_vertices(cycle_graph(6)) == frozenset()

    def test_edgeless(self):
        assert isolated_vertices(empty_graph(4)) == {0, 1, 2, 3}


class TestPermute:
    def test_identity(self):
        g = path_graph(3)
        assert permute(g, [0, 1, 2]) == g

    def test_path_reversal_fixes_graph(self):
        g = path_graph(3)
        assert permute(g, [2, 1, 0]) == g

    def test_star_degree_multiset(self):
        g = permute(star_graph(3), [3, 0, 1, 2])
        assert sorted(degree(g, v) for v in range(4)) == [1, 1, 1, 3]

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permute(path_graph(3), [0, 0, 1])
        with pytest.raises(ValueError):
            permute(path_graph(3), [0, 1])


class TestConstructors:
    def test_path(self):
        assert path_graph(1).edge_count == 0
        assert path_graph(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_cycle_minimum(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star_center(self):
        g = star_graph(3)
        assert degree(g, 0) == 3
        assert all(degree(g, v) == 1 for v in range(1, 4))

    def test_disjoint_union_shifts(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        assert g.edges == frozenset({(0, 1), (2, 3)})


index_lists = st.lists(st.integers(0, 9), max_size=6).flatmap(
    lambda idx: st.sampled_from((idx, tuple(idx))))


@PROPERTY_SETTINGS
@given(index_lists, st.lists(st.integers(), min_size=10, max_size=10),
       st.booleans())
def test_gather_reads_items_in_order(idx, values, as_tuple):
    # lengths 0, 1 and >= 2 take different itemgetter forms; all give a
    # sequence equal to the items at idx, repeats included
    seq = tuple(values) if as_tuple else values
    assert list(gather(idx)(seq)) == [seq[i] for i in idx]


def test_gather_forms_cover_every_length():
    seq = [10, 11, 12]
    assert list(gather(())(seq)) == []
    assert list(gather([2])(seq)) == [12]
    assert list(gather((1, 1, 0))(seq)) == [11, 11, 10]


def test_graph_gathers_built_on_first_use():
    g = parse_graph("4 2\n0 1\n0 2\n")
    assert g._gathers is None
    ranks = ("a", "b", "c", "d")
    assert [list(nbrs(ranks)) for nbrs in g.gathers] == [["b", "c"], ["a"], ["a"], []]
    assert g.gathers is g.gathers


@PROPERTY_SETTINGS
@given(graphs())
def test_handshake(g):
    assert sum(degree(g, v) for v in range(g.vertex_count)) == 2 * g.edge_count


@PROPERTY_SETTINGS
@given(graphs())
def test_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@st.composite
def edge_lists(draw):
    """A vertex count and distinct edges, each in either orientation."""
    n = draw(st.integers(0, 9))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]


@PROPERTY_SETTINGS
@given(edge_lists())
def test_constructor_and_bulk_parse_agree(case):
    n, edges = case
    expected = frozenset((min(e), max(e)) for e in edges)
    built = Graph(n, edges)
    text = serialize_graph(built)
    assert graphs_module._read_bulk(text) is not None  # read in bulk
    parsed = parse_graph(text)
    for g in (built, parsed):
        assert g == built and hash(g) == hash(built)
        assert g != Graph(n + 1, edges)
        assert g.edges == expected
        assert g.edge_count == len(expected)
        assert parse_graph(serialize_graph(g)) == g


@PROPERTY_SETTINGS
@given(graphs())
def test_has_edge_matches_edge_set(g):
    n, edges = g.vertex_count, g.edges
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)


@PROPERTY_SETTINGS
@given(graphs())
def test_serialize_deterministic(g):
    assert serialize_graph(g) == serialize_graph(g)


def test_serialize_with_comments():
    text = serialize_graph(path_graph(2), comments=("root 0",))
    assert text == "# root 0\n2 1\n0 1\n"
    assert parse_graph(text) == path_graph(2)
