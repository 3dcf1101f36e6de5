"""Parser fuzzing: malformed input fails with a ValueError subclass only."""

from __future__ import annotations

import json
import sys
from itertools import chain
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wlhom import (
    GraphFormatError,
    certificate_from_json,
    certificate_to_json,
    empty_graph,
    parse_graph,
    parse_tree,
    path_graph,
    synthesize,
)
from wlhom import graphs as graphs_module

from .conftest import C6, K13, P4, PROPERTY_SETTINGS, TA, TB, TWO_C3, graphs

# parse_graph builds one adjacency list per announced vertex, however few
# edges follow, so the 13-byte file "1000000000 0" exhausts memory. There is
# no size bound yet (ROADMAP item 3), so the graph texts keep headers small.
MAX_HEADER_VERTICES = 1000


def _header_vertices(text: str) -> int:
    """First field of the first line parse_graph would read as the header."""
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                return int(line.split()[0])
            except ValueError:
                return 0
    return 0


def _fails_only_with_value_error(parse, text: str) -> None:
    try:
        parse(text)
    except ValueError:
        pass


small_ints = st.integers(-3, 40).map(str)
junk = st.text(max_size=6)


def _lines(line):
    return st.lists(line, max_size=12).map("\n".join)


graph_line = st.one_of(
    st.tuples(small_ints, small_ints).map(" ".join),
    st.lists(st.one_of(small_ints, junk), max_size=4).map(" ".join),
    st.just("# comment"),
    st.just(""),
)
graph_texts = st.one_of(
    st.text(max_size=200),
    st.tuples(st.tuples(small_ints, small_ints).map(" ".join),
              _lines(graph_line)).map("\n".join),
)


def _reference_parse_graph(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The line-by-line parser, checking each edge as it is added.

    Returns (vertex_count, adjacency); parse_graph must agree with it on
    every text, errors and their line numbers included. A number longer
    than int()'s digit limit is reported by its length, before any other
    error of its line, a message names a number of more than 18 digits by
    its digit count, and it quotes a line whose repr has more than 60
    characters by the line's length.
    """
    def spelled(x):
        digits = len(str(abs(x)))
        return str(x) if digits <= 18 else "-" * (x < 0) + f"<{digits} digits>"

    def quoted(line):
        return repr(line) if len(repr(line)) <= 60 else f"<{len(line)} characters>"

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        for field in fields:
            if field.isascii() and field.isdigit() and 0 < limit < len(field):
                raise GraphFormatError(
                    f"number of {len(field)} digits is too long", lineno)
        if header is None:
            message = f"header must be two integers 'N M', got {quoted(line)}"
            if len(fields) != 2:
                raise GraphFormatError(message, lineno)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError(message, lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"negative count in header {quoted(line)}", lineno)
            header = (n, m)
            continue
        message = f"edge line must be 'u v', got {quoted(line)}"
        if len(fields) != 2:
            raise GraphFormatError(message, lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(message, lineno) from None
        edges.append((lineno, u, v))
    if header is None:
        raise GraphFormatError("missing 'N M' header line")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(
            f"header announces {spelled(m)} edges but file contains {len(edges)}")
    seen = set()
    neighbors = [[] for _ in range(n)]
    for lineno, u, v in edges:
        for x in (u, v):
            if not 0 <= x < n:
                raise GraphFormatError(
                    f"vertex index {spelled(x)} out of range [0, {n})", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"duplicate edge {key[0]} {key[1]}", lineno)
        seen.add(key)
        neighbors[u].append(v)
        neighbors[v].append(u)
    return n, tuple(tuple(sorted(ns)) for ns in neighbors)


def _graph_outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _parsed(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    g = parse_graph(text)
    return g.vertex_count, g.adjacency


def _readers_agree(text: str) -> list[int] | None:
    """The bulk reader's numbers for text, after checking that it declines
    or reads what the line reader reads, and that parse_graph gives the
    outcome it gives when every text goes line by line."""
    numbers = graphs_module._read_bulk(text)
    if numbers is not None:
        n, m, us, vs, lines = graphs_module._read_lines(text)
        assert numbers == [n, m, *chain.from_iterable(zip(us, vs))]
        assert lines == list(range(2, len(us) + 2))
    with patch.object(graphs_module, "_read_bulk", return_value=None):
        line_by_line = _graph_outcome(_parsed, text)
    assert _graph_outcome(_parsed, text) == line_by_line
    return numbers


# tokens the bulk reader must leave to the line reader; int() accepts some
TOKEN_VARIANTS = (
    "+{}".format,
    "-{}".format,
    "0{}".format,
    lambda t: f"{t[0]}_{t[1:] or 0}",
    lambda t: t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda t: t.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    lambda t: t + "²",
    lambda t: "9" * 30,
    lambda t: "9" * 5000,  # past int()'s default digit limit
    lambda t: t + "x" * 60,  # a line too long to quote whole
)


@st.composite
def near_plain_graph_texts(draw) -> str:
    """Edge lists in the plain format, then perturbed: an extra bad edge,
    odd token spellings, tabs, trailing blanks, CRLF, no final newline."""
    g = draw(graphs(max_vertices=14))
    n = g.vertex_count
    rows = [[str(u), str(v)] for u, v in draw(st.permutations(sorted(g.edges)))]
    bad = draw(st.sampled_from(("none", "duplicate", "self-loop", "range")))
    if bad != "none" and n > 0:
        u = draw(st.integers(0, n - 1))
        if bad == "duplicate" and rows:
            row = draw(st.sampled_from(rows))[::-1]
        elif bad == "self-loop":
            row = [str(u), str(u)]
        else:
            row = [str(u), str(n + draw(st.integers(0, 3)))]
        rows.insert(draw(st.sampled_from((len(rows), 0, len(rows) // 2))), row)
    count = len(rows) + draw(st.sampled_from((0, 0, 0, 1, -1)))
    rows.insert(0, [str(n), str(count)])
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, 1))
        row[i] = draw(st.sampled_from(TOKEN_VARIANTS))(row[i])
    sep = draw(st.sampled_from((" ", "\t", "  ", " \t ")))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    trail = draw(st.sampled_from(("", "", " ", "\t")))
    text = eol.join(sep.join(row) + trail for row in rows)
    return text + draw(st.sampled_from((eol, "")))


# Digits and what may stand between them: the blanks, the line breaks that
# str.splitlines knows (CR, VT and U+2028 among them) and tokens' other
# characters.
READER_ALPHABET = "0123456789 \t\n\r-#_\x0b\u2028"


@st.composite
def reader_texts(draw) -> str:
    """Lines of two numbers, most of them plain: now and then a number is
    an empty run or has a leading zero, or a gap gains or becomes another
    character of READER_ALPHABET."""
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        for gap in (" ", "\n"):
            run = str(draw(st.integers(0, 30)))
            if draw(st.integers(0, 7)) == 0:
                run = draw(st.sampled_from(("", "0" + run)))
            if draw(st.integers(0, 7)) == 0:
                extra = draw(st.sampled_from(READER_ALPHABET[10:]))
                gap = draw(st.sampled_from((extra, extra + gap, gap + extra)))
            pieces += [run, gap]
    if draw(st.booleans()):
        pieces.pop()  # no last line end
    return "".join(pieces)


child_token = st.one_of(
    st.tuples(small_ints, small_ints).map("*".join),
    junk,
)
tree_line = st.one_of(
    st.tuples(st.just("node"), small_ints, st.just(":"),
              st.lists(child_token, max_size=3).map(" ".join)).map(" ".join),
    st.tuples(st.just("root"), small_ints).map(" ".join),
    junk,
)
tree_texts = st.one_of(
    st.text(max_size=200),
    st.tuples(st.tuples(st.just("T"), small_ints).map(" ".join),
              _lines(tree_line)).map("\n".join),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
FIELDS = ("mode", "level", "tree", "count_g1", "count_g2", "m_per_level",
          "n_final", "histograms", "extra")
# one certificate of each mode, and a tree certificate with a lift
VALID = tuple(
    json.loads(certificate_to_json(synthesize(g1, g2)))
    for g1, g2 in ((C6, TWO_C3), (empty_graph(1), path_graph(2)), (K13, P4), (TA, TB))
)


@st.composite
def mutated_certificates(draw) -> str:
    data = dict(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(FIELDS))
        if draw(st.booleans()) and field in data:
            del data[field]
        else:
            data[field] = draw(st.one_of(json_values, tree_texts))
    return json.dumps(data)


certificate_texts = st.one_of(
    st.text(max_size=200),
    json_values.map(json.dumps),
    mutated_certificates(),
    # nesting past the recursion limit
    st.tuples(st.integers(0, 5000).map("[".__mul__), junk).map("".join),
)


@PROPERTY_SETTINGS
@given(graph_texts)
def test_parse_graph(text):
    assume(_header_vertices(text) <= MAX_HEADER_VERTICES)
    _fails_only_with_value_error(parse_graph, text)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(st.one_of(graph_texts, near_plain_graph_texts()))
def test_parse_graph_matches_line_reader(text):
    assume(_header_vertices(text) <= MAX_HEADER_VERTICES)
    assert _graph_outcome(_parsed, text) == _graph_outcome(_reference_parse_graph, text)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(st.one_of(st.text(READER_ALPHABET, max_size=40), reader_texts()))
def test_bulk_reader_declines_or_agrees_with_line_reader(text):
    assume(_header_vertices(text) <= MAX_HEADER_VERTICES)
    _readers_agree(text)


@pytest.mark.parametrize("text, numbers", [
    ("2 1\n0 1\n", [2, 1, 0, 1]),
    ("2 1\n0 1", [2, 1, 0, 1]),
    ("2 1\n00 1\n", None),  # leading zero
    ("2  1\n0 1\n", None),  # a run of blanks
    ("2\t1\n0\t1\n", [2, 1, 0, 1]),
    ("2 1\r\n0 1\r\n", [2, 1, 0, 1]),
    ("2 1\n0\r 1\n", None),  # a bare CR breaks the line
    ("2 \r1\n0 1\n", None),  # one that deleting the digits puts before LF
    ("2 1\n0 1 \n", None),  # a trailing blank
    ("2 1\n 1\n", None),  # an empty digit run
    ("2 1\n0 " + "9" * 19 + "\n", [2, 1, 0, 10**19 - 1]),
    ("9" * 5000 + " 0\n", None),  # past int()'s default digit limit
])
def test_bulk_reader_named_cases(text, numbers):
    assert _readers_agree(text) == numbers


def test_bulk_reader_on_every_one_character_edit():
    # a plain text with LF, CRLF, a tab and no last line end
    plain = "3 2\n0 1\r\n10\t2"
    assert _readers_agree(plain) == [3, 2, 0, 1, 10, 2]
    for i in range(len(plain) + 1):
        _readers_agree(plain[:i] + plain[i + 1:])
        for c in READER_ALPHABET:
            _readers_agree(plain[:i] + c + plain[i:])
            _readers_agree(plain[:i] + c + plain[i + 1:])


@PROPERTY_SETTINGS
@given(tree_texts)
def test_parse_tree(text):
    _fails_only_with_value_error(parse_tree, text)


@PROPERTY_SETTINGS
@given(certificate_texts)
def test_certificate_from_json(text):
    _fails_only_with_value_error(certificate_from_json, text)
