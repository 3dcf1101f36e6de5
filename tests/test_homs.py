"""Homomorphism counting: DP vs oracle, closed forms, label grouping."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wlhom import (
    BudgetExceededError,
    Graph,
    LabelConsistencyError,
    LabelTable,
    TreeArena,
    brute_force_hom,
    empty_graph,
    expand_tree,
    hom_by_label,
    hom_count,
    joint_refine,
    path_graph,
    rooted_hom,
)
from wlhom import homs
from wlhom.wl import LevelLabels

from .conftest import (
    C6,
    K13,
    P4,
    PROPERTY_SETTINGS,
    build_shape,
    cycle_graph,
    degree,
    enumerate_graphs,
    graphs,
    rooted_hom_reference,
    rooted_tree_shapes,
    shape_depth,
    shape_size,
    star_graph,
    tree_shapes,
)


def star(arena: TreeArena, n: int) -> int:
    leaf = arena.leaf()
    return arena.attach([(leaf, n)])


class TestRootedHom:
    def test_star2_into_k13(self):
        arena = TreeArena()
        assert rooted_hom(arena, star(arena, 2), K13) == (9, 1, 1, 1)

    def test_leaf_all_ones(self):
        arena = TreeArena()
        t = arena.leaf()
        assert rooted_hom(arena, t, P4) == (1, 1, 1, 1)
        assert rooted_hom(arena, t, empty_graph(3)) == (1, 1, 1)

    def test_edge_into_c6(self):
        arena = TreeArena()
        assert rooted_hom(arena, star(arena, 1), C6) == (2,) * 6

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), st.integers(1, 4))
    def test_star_closed_form(self, g, n):
        arena = TreeArena()
        vec = rooted_hom(arena, star(arena, n), g)
        assert vec == tuple(degree(g, v) ** n for v in range(g.vertex_count))


@st.composite
def shared_dags(draw, max_nodes: int = 7, max_children: int = 3,
                max_mult: int = 5, max_size: int = 3000):
    """(arena, root): each node is a leaf or attaches up to max_children
    earlier nodes, so children are shared across parents. A node whose
    explicit size would pass max_size is made a leaf instead."""
    arena, sizes = TreeArena(), []
    for _ in range(draw(st.integers(1, max_nodes))):
        kids = [] if not sizes else draw(st.lists(
            st.tuples(st.integers(0, len(sizes) - 1), st.integers(1, max_mult)),
            max_size=max_children))
        size = 1 + sum(mult * sizes[c] for c, mult in kids)
        sizes.append(size if size <= max_size else 1)
        arena.attach(kids if size <= max_size else [])
    return arena, len(sizes) - 1


@st.composite
def hosts(draw, max_vertices: int = 40, max_isolated: int = 5):
    """G(n, p) on up to max_vertices vertices, then up to max_isolated
    isolated ones: the vertices whose entries are 0 under any edge."""
    n = draw(st.integers(0, max_vertices))
    rnd = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from([0.05, 0.15, 0.4]))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p]
    return Graph(n + draw(st.integers(0, max_isolated)), edges)


class TestWholeVectorDP:
    """rooted_hom against the per-vertex DP it replaced, exactly."""

    @PROPERTY_SETTINGS
    @given(shared_dags(), hosts())
    def test_matches_per_vertex_reference(self, dag, g):
        arena, t = dag
        assert rooted_hom(arena, t, g) == rooted_hom_reference(arena, t, g)

    def test_child_shared_at_multiplicity_one(self):
        # children sort by id, so `edge` is the first child of both parents
        # and of the root, each of which starts from its sums uncopied; the
        # later children must not write into them
        arena = TreeArena()
        edge = arena.attach([(arena.leaf(), 1)])
        star2 = arena.attach([(edge, 2)])
        left = arena.attach([(edge, 1)])
        right = arena.attach([(edge, 1), (star2, 1)])
        t = arena.attach([(edge, 1), (left, 1), (right, 3)])
        for g in (P4, K13, C6, Graph(5, [(0, 1), (1, 2)])):
            assert rooted_hom(arena, t, g) == rooted_hom_reference(arena, t, g)

    def test_matches_reference_on_multi_thousand_bit_counts(self):
        rnd = random.Random(200)
        edges = [(u, v) for u in range(190) for v in range(u + 1, 190)
                 if rnd.random() < 0.015]
        g = Graph(200, edges)
        arena = TreeArena()
        t = arena.leaf()
        # the top mult stays small: a third 60 would mean 600 000-bit counts
        for mult in (60, 59, 3):
            t = arena.attach([(t, mult)])
        vector = rooted_hom(arena, t, g)
        assert vector == rooted_hom_reference(arena, t, g)
        assert max(vector).bit_length() > 4000


class TestHomCount:
    def test_star2_into_p4(self):
        arena = TreeArena()
        assert hom_count(arena, star(arena, 2), P4) == 10

    def test_star2_into_k13(self):
        arena = TreeArena()
        assert hom_count(arena, star(arena, 2), K13) == 12

    def test_leaf_counts_vertices(self):
        arena = TreeArena()
        t = arena.leaf()
        assert hom_count(arena, t, C6) == 6
        assert hom_count(arena, t, empty_graph(0)) == 0

    def test_count_independent_of_root_choice(self):
        # P3 rooted at an end vs at the middle: same unrooted count
        a1 = TreeArena()
        end_rooted = a1.attach([(star(a1, 1), 1)])
        a2 = TreeArena()
        mid_rooted = star(a2, 2)
        for g in (P4, K13, C6):
            assert hom_count(a1, end_rooted, g) == hom_count(a2, mid_rooted, g)


class TestChainAndPowerIdentities:
    @PROPERTY_SETTINGS
    @given(tree_shapes(max_depth=2), graphs(max_vertices=5))
    def test_chain_identity(self, shape, g):
        arena = TreeArena()
        t = build_shape(arena, shape)
        h = arena.attach([(t, 1)])
        tvec = rooted_hom(arena, t, g)
        hvec = rooted_hom(arena, h, g)
        for v in range(g.vertex_count):
            assert hvec[v] == sum(tvec[w] for w in g.adjacency[v])

    @PROPERTY_SETTINGS
    @given(tree_shapes(max_depth=2), graphs(max_vertices=5), st.integers(1, 4))
    def test_power_identity(self, shape, g, n):
        arena = TreeArena()
        c = build_shape(arena, shape)
        once = rooted_hom(arena, arena.attach([(c, 1)]), g)
        powered = rooted_hom(arena, arena.attach([(c, n)]), g)
        assert powered == tuple(x ** n for x in once)


class TestHomByLabel:
    def test_star2_level1_k13(self):
        arena = TreeArena()
        t = star(arena, 2)
        table = joint_refine(K13, empty_graph())
        # level-1 ranks: 0 = degree 1, 1 = degree 3
        assert hom_by_label(arena, t, table, 0, 1) == {1: 9, 0: 1}

    def test_leaf_level0(self):
        arena = TreeArena()
        t = arena.leaf()
        table = joint_refine(P4, empty_graph())
        assert hom_by_label(arena, t, table, 0, 0) == {0: 1}

    def test_edge_level1_c6(self):
        arena = TreeArena()
        t = star(arena, 1)
        table = joint_refine(C6, empty_graph())
        assert hom_by_label(arena, t, table, 0, 1) == {0: 2}

    def test_depth_above_level_rejected(self):
        arena = TreeArena()
        t = star(arena, 2)
        table = joint_refine(K13, empty_graph())
        with pytest.raises(ValueError):
            hom_by_label(arena, t, table, 0, 0)

    def test_consistency_error_on_corrupt_table(self):
        # claim all P3 vertices share a level-1 rank; the edge tree then
        # sees rooted counts 1 (ends) vs 2 (middle) under one rank
        g = path_graph(3)
        fake = LabelTable(
            graphs=(g, empty_graph()),
            levels=[
                LevelLabels(ranks=(0, 0, 0), classes=1),
                LevelLabels(ranks=(0, 0, 0), classes=1),
            ],
            stabilization_level=0,
        )
        arena = TreeArena()
        t = star(arena, 1)
        with pytest.raises(LabelConsistencyError) as exc:
            hom_by_label(arena, t, fake, 0, 1)
        assert exc.value.rank == 0
        assert set(exc.value.counts) == {1, 2}

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), tree_shapes(max_depth=3))
    def test_label_determinism(self, g, shape):
        # the key observation: same rank, same rooted count; never raises
        arena = TreeArena()
        t = build_shape(arena, shape)
        table = joint_refine(g, empty_graph())
        grouped = hom_by_label(arena, t, table, 0, shape_depth(shape))
        ranks = table.ranks_at(0, shape_depth(shape))
        vec = rooted_hom(arena, t, g)
        for v in range(g.vertex_count):
            assert grouped[ranks[v]] == vec[v]

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), tree_shapes(max_depth=3))
    def test_sum_identity(self, g, shape):
        arena = TreeArena()
        t = build_shape(arena, shape)
        level = shape_depth(shape)
        table = joint_refine(g, empty_graph())
        grouped = hom_by_label(arena, t, table, 0, level)
        hist = table.histogram(0, level)
        assert hom_count(arena, t, g) == sum(
            hist[r] * c for r, c in grouped.items()
        )


class TestBruteForce:
    def test_p3_into_p4(self):
        assert brute_force_hom(3, [(0, 1), (1, 2)], P4) == 10

    def test_edge_into_c6(self):
        assert brute_force_hom(2, [(0, 1)], C6) == 12

    def test_edge_into_edgeless(self):
        assert brute_force_hom(2, [(0, 1)], empty_graph(4)) == 0

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_hom(10, [(0, i) for i in range(1, 10)], C6, budget=100)
        assert exc.value.total_maps == 6 ** 10

    def test_oracle_agrees_with_dp_exhaustively(self):
        # every rooted tree with <= 5 explicit nodes against every graph
        # with <= 4 vertices
        small_graphs = [g for n in range(1, 5) for g in enumerate_graphs(n)]
        for shape in rooted_tree_shapes(5):
            arena = TreeArena()
            t = build_shape(arena, shape)
            count, edges = expand_tree(arena, t)
            for g in small_graphs:
                assert hom_count(arena, t, g) == brute_force_hom(count, edges, g)

    @PROPERTY_SETTINGS
    @given(tree_shapes(max_depth=2, max_children=2, max_mult=2),
           graphs(max_vertices=4, min_vertices=1))
    def test_oracle_agrees_with_dp_random(self, shape, g):
        assume(shape_size(shape) <= 9)
        arena = TreeArena()
        t = build_shape(arena, shape)
        count, edges = expand_tree(arena, t, max_nodes=9)
        assert hom_count(arena, t, g) == brute_force_hom(count, edges, g)


def test_zero_vertex_graph():
    arena = TreeArena()
    assert rooted_hom(arena, star(arena, 2), Graph(0, [])) == ()
    assert hom_count(arena, arena.leaf(), Graph(0, [])) == 0


def _run_time_imports(tree: ast.Module):
    """Modules the top-level statements import, outside `if TYPE_CHECKING:`."""
    for stmt in tree.body:
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test).endswith("TYPE_CHECKING"):
            stmt = ast.Module(body=stmt.orelse, type_ignores=[])
        for node in ast.walk(stmt):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                yield base
                yield from (base.rstrip(".") + "." + alias.name for alias in node.names)


def test_counting_does_not_import_refinement_or_synthesis():
    # the DP reads a LabelTable only through its methods, so wl (and synth,
    # which imports homs) is named for annotations alone
    imported = set(_run_time_imports(ast.parse(Path(homs.__file__).read_text("utf-8"))))
    assert ".graphs" in imported and ".trees" in imported
    for module in (".wl", ".synth"):
        assert not {name for name in imported
                    if name == module or name.endswith(module)}, module
