"""Parser fuzzing: malformed input fails with a ValueError subclass only."""

from __future__ import annotations

import json

from hypothesis import assume, given
from hypothesis import strategies as st

from wlhom import (
    certificate_from_json,
    certificate_to_json,
    empty_graph,
    parse_graph,
    parse_tree,
    path_graph,
    synthesize,
)

from .conftest import C6, K13, P4, PROPERTY_SETTINGS, TA, TB, TWO_C3

# parse_graph builds one adjacency list per announced vertex, however few
# edges follow, so the 13-byte file "1000000000 0" exhausts memory. There is
# no size bound yet (ROADMAP item 4), so the graph texts keep headers small.
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


@PROPERTY_SETTINGS
@given(tree_texts)
def test_parse_tree(text):
    _fails_only_with_value_error(parse_tree, text)


@PROPERTY_SETTINGS
@given(certificate_texts)
def test_certificate_from_json(text):
    _fails_only_with_value_error(certificate_from_json, text)
