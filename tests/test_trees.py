"""Succinct tree arena, the tree file format, and explicit expansion."""

from __future__ import annotations

import pytest
from hypothesis import given

from wlhom import (
    ExpansionLimitError,
    GraphFormatError,
    TreeArena,
    TreeFormatError,
    expand_tree,
    parse_tree,
    serialize_tree,
)

from .conftest import PROPERTY_SETTINGS, build_shape, shape_depth, shape_size, tree_shapes


def star(arena: TreeArena, n: int) -> int:
    leaf = arena.leaf()
    return arena.attach([(leaf, n)])


class TestArena:
    def test_leaf(self):
        arena = TreeArena()
        t = arena.leaf()
        assert arena.children(t) == ()
        assert arena.depth(t) == 0
        assert arena.explicit_size(t) == 1

    def test_star_shape(self):
        arena = TreeArena()
        t = star(arena, 3)
        assert arena.depth(t) == 1
        assert arena.explicit_size(t) == 4

    def test_h_shape(self):
        arena = TreeArena()
        h = arena.attach([(star(arena, 2), 1)])
        assert arena.depth(h) == 2
        assert arena.explicit_size(h) == 4

    def test_attach_merges_duplicate_children(self):
        arena = TreeArena()
        c = arena.leaf()
        assert arena.children(arena.attach([(c, 1), (c, 2)])) == ((c, 3),)

    def test_attach_rejects_unknown_child(self):
        arena = TreeArena()
        with pytest.raises(ValueError):
            arena.attach([(0, 1)])

    def test_attach_rejects_zero_multiplicity(self):
        arena = TreeArena()
        c = arena.leaf()
        with pytest.raises(ValueError):
            arena.attach([(c, 0)])

    def test_children_unknown_id(self):
        with pytest.raises(ValueError):
            TreeArena().children(0)

    def test_explicit_size_is_exact_bigint(self):
        # 50 stacked powers of 10: 1 + 10 + 10^2 + ... + 10^50 nodes
        arena = TreeArena()
        t = arena.leaf()
        for _ in range(50):
            t = arena.attach([(t, 10)])
        expected = sum(10 ** i for i in range(51))
        assert arena.explicit_size(t) == expected
        assert arena.depth(t) == 50

    def test_reachable_sorted_children_first(self):
        arena = TreeArena()
        a = arena.leaf()
        arena.leaf()  # unreachable from the subtree below
        b = arena.attach([(a, 2)])
        c = arena.attach([(a, 1), (b, 1)])
        assert arena.reachable(c) == [a, b, c]

    def test_extract_compacts(self):
        arena = TreeArena()
        arena.leaf()  # garbage
        a = arena.leaf()
        arena.leaf()  # garbage
        b = arena.attach([(a, 2)])
        compact, root = arena.extract(b)
        assert len(compact) == 2
        assert compact.children(root) == ((0, 2),)

    def test_equal_builds_store_equal_nodes(self):
        # An arena compares by identity; what two equal builds share is
        # their stored nodes, child ids and multiplicities alike.
        a1, a2 = TreeArena(), TreeArena()
        star(a1, 2)
        star(a2, 2)
        assert a1 != a2
        assert [a1.children(t) for t in range(len(a1))] == [
            a2.children(t) for t in range(len(a2))]
        star(a2, 1)
        assert len(a2) == len(a1) + 2
        assert a2.children(len(a2) - 1) != a1.children(len(a1) - 1)


class TestFormat:
    def test_serialize_star(self):
        arena = TreeArena()
        t = star(arena, 2)
        assert serialize_tree(arena, t) == "T 2\nnode 0 :\nnode 1 : 0*2\nroot 1\n"

    def test_serialize_drops_garbage(self):
        arena = TreeArena()
        arena.leaf()
        t = star(arena, 2)
        assert serialize_tree(arena, t) == "T 2\nnode 0 :\nnode 1 : 0*2\nroot 1\n"

    def test_parse_round_trip(self):
        text = "T 3\nnode 0 :\nnode 1 : 0*2\nnode 2 : 0*1 1*3\nroot 2\n"
        arena, root = parse_tree(text)
        assert serialize_tree(arena, root) == text

    @PROPERTY_SETTINGS
    @given(tree_shapes())
    def test_round_trip_arbitrary(self, shape):
        arena = TreeArena()
        t = build_shape(arena, shape)
        text = serialize_tree(arena, t)
        arena2, root2 = parse_tree(text)
        assert serialize_tree(arena2, root2) == text
        assert arena2.explicit_size(root2) == arena.explicit_size(t)
        assert arena2.depth(root2) == arena.depth(t)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", None),
            ("X 1\nnode 0 :\nroot 0\n", 1),
            ("T zero\nnode 0 :\nroot 0\n", 1),
            ("T 0\nroot 0\n", 1),
            ("T 1\nnoddle 0 :\nroot 0\n", 2),
            ("T 2\nnode 0 :\nnode 2 : 0*1\nroot 1\n", 3),
            ("T 1\nnode 0 : 0*1\nroot 0\n", 2),
            ("T 2\nnode 0 :\nnode 1 : 0*0\nroot 1\n", 3),
            ("T 2\nnode 0 :\nnode 1 : 0+1\nroot 1\n", 3),
            ("T 2\nnode 0 :\nnode 1 : 0*x\nroot 1\n", 3),
            ("T 1\nnode 0 :\nroot\n", 3),
            ("T 1\nnode 0 :\nroot 5\n", 3),
            ("T 1\nnode 0 :\nroot x\n", 3),
            ("T 2\nnode 0 :\nroot 0\n", None),
        ],
    )
    def test_parse_errors(self, text, line):
        with pytest.raises(TreeFormatError) as exc:
            parse_tree(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text, line, message", [
        ("T 2\nnode 0 :\nnode 1 : " + "9" * 4000 + "*1\nroot 1\n", 3,
         "child id <4000 digits> must be in [0, 1)"),
        ("T 2\nnode 0 :\nnode 1 : 0*-" + "9" * 4000 + "\nroot 1\n", 3,
         "multiplicity -<4000 digits> < 1"),
        ("T " + "9" * 4000 + "\n", None,
         "expected <4000 digits> node lines plus a root line, found 0"),
        ("T -" + "9" * 4000 + "\n", 1, "node count must be >= 1, got -<4000 digits>"),
        ("T 1\nnode 0 :\nroot " + "9" * 4000 + "\n", 3, "root id <4000 digits> out of range"),
        ("T 1\nnode 0 :\nroot -" + "9" * 19 + "\n", 3, "root id -<19 digits> out of range"),
        # up to 18 digits a number is quoted whole
        ("T 2\nnode 0 :\nnode 1 : " + "9" * 18 + "*1\nroot 1\n", 3,
         f"child id {'9' * 18} must be in [0, 1)"),
        ("T 1\nnode 0 :\nroot " + "9" * 18 + "\n", 3, f"root id {'9' * 18} out of range"),
    ])
    def test_long_number_named_by_digit_count(self, text, line, message):
        with pytest.raises(TreeFormatError) as exc:
            parse_tree(text)
        assert exc.value.line == line
        assert str(exc.value) == (message if line is None else f"line {line}: {message}")
        assert len(str(exc.value)) < 200

    @pytest.mark.parametrize("text, line, message", [
        ("T 1 " + "x" * 4000 + "\n", 1, "expected 'T <node_count>', got <4004 characters>"),
        ("T 1\nnode 0 " + "x" * 4000 + "\nroot 0\n", 2,
         "expected 'node 0 : ...', got <4007 characters>"),
        ("T 1\nnode " + "9" * 4000 + " :\nroot 0\n", 2,
         "node ids must be consecutive; expected 0, got <4000 characters>"),
        ("T 2\nnode 0 :\nnode 1 : " + "9" * 4000 + "\nroot 1\n", 3,
         "bad child token <4000 characters>"),
        ("T 1\nnode 0 :\nroot 0 " + "x" * 4000 + "\n", 3,
         "expected 'root <id>', got <4007 characters>"),
        ("T 1\nnode 0 :\nroot " + "x" * 4000 + "\n", 3, "bad root id <4000 characters>"),
        # text whose repr has at most 60 characters is quoted whole
        ("T 1\nnode 0 :\nroot " + "x" * 58 + "\n", 3, f"bad root id {'x' * 58!r}"),
        ("T 1\nnode 0 :\nroot " + "x" * 59 + "\n", 3, "bad root id <59 characters>"),
        ("T 2\nnode 0 :\nnode 1 : 0\nroot 1\n", 3, "bad child token '0'"),
    ])
    def test_long_text_named_by_its_length(self, text, line, message):
        with pytest.raises(TreeFormatError) as exc:
            parse_tree(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"
        assert len(str(exc.value)) < 200

    @pytest.mark.parametrize("text, line", [
        ("T " + "9" * 5000 + "\n", 1),
        ("T 2\nnode 0 :\nnode 1 : 0*" + "9" * 5000 + "\nroot 1\n", 3),
        ("T 2\nnode 0 :\nnode 1 : " + "9" * 5000 + "*1\nroot 1\n", 3),
        ("T 1\nnode 0 :\nroot " + "9" * 5000 + "\n", 3),
    ])
    def test_number_past_digit_limit_is_too_long_not_echoed(self, text, line):
        # int() refuses 5000 digits; the error names the length, not the token
        with pytest.raises(TreeFormatError) as exc:
            parse_tree(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: number of 5000 digits is too long"

    def test_format_errors_share_a_base_not_each_other(self):
        # one definition of the line prefix serves graph and tree files,
        # and an except clause for either still catches only its own
        assert not issubclass(TreeFormatError, GraphFormatError)
        assert not issubclass(GraphFormatError, TreeFormatError)
        for error in (TreeFormatError, GraphFormatError):
            assert (str(error("bad", 4)), error("bad", 4).line) == ("line 4: bad", 4)
            assert (str(error("bad")), error("bad").line) == ("bad", None)


class TestExpand:
    def test_star3(self):
        arena = TreeArena()
        t = star(arena, 3)
        count, edges = expand_tree(arena, t)
        assert count == 4
        assert edges == [(0, 1), (0, 2), (0, 3)]

    def test_h_over_star2(self):
        arena = TreeArena()
        h = arena.attach([(star(arena, 2), 1)])
        count, edges = expand_tree(arena, h)
        assert count == 4
        assert edges == [(0, 1), (1, 2), (1, 3)]

    def test_power_gluing_size(self):
        arena = TreeArena()
        h = arena.attach([(star(arena, 3), 1)])
        s = arena.explicit_size(h)
        glued = arena.attach([(arena.children(h)[0][0], 2)])
        assert arena.explicit_size(glued) == 1 + 2 * (s - 1)

    def test_bfs_ids(self):
        arena = TreeArena()
        t = build_shape(arena, (((((), 1),), 2), ((), 1)))
        count, edges = expand_tree(arena, t)
        assert count == arena.explicit_size(t)
        seen = {0}
        for u, v in edges:
            assert u in seen and v not in seen
            assert u < v
            seen.add(v)
        assert seen == set(range(count))

    def test_refusal_reports_exact_size(self):
        arena = TreeArena()
        t = arena.leaf()
        for _ in range(40):
            t = arena.attach([(t, 2)])
        with pytest.raises(ExpansionLimitError) as exc:
            expand_tree(arena, t, max_nodes=100_000)
        assert exc.value.size == 2 ** 41 - 1
        assert str(2 ** 41 - 1) in str(exc.value)

    @PROPERTY_SETTINGS
    @given(tree_shapes(max_depth=3, max_children=2, max_mult=2))
    def test_expand_matches_size_and_depth(self, shape):
        arena = TreeArena()
        t = build_shape(arena, shape)
        count, edges = expand_tree(arena, t, max_nodes=10_000)
        assert count == shape_size(shape) == arena.explicit_size(t)
        assert len(edges) == count - 1
        if edges:
            depth = {0: 0}
            for u, v in edges:
                depth[v] = depth[u] + 1
            assert max(depth.values()) == shape_depth(shape)
