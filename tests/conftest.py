"""Shared builders, census enumerators, and hypothesis strategies."""

from __future__ import annotations

import functools
from itertools import combinations, permutations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from wlhom import Graph, TreeArena, cycle_graph, disjoint_union, path_graph, star_graph
from wlhom import synth
from wlhom.wl import LabelTable, LevelLabels

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

K2 = path_graph(2)
C3 = cycle_graph(3)
K13 = star_graph(3)
P4 = path_graph(4)
C6 = cycle_graph(6)
TWO_C3 = disjoint_union(cycle_graph(3), cycle_graph(3))
# 6-vertex trees distinguished first at level 2: a path 0-1-2-3-4 with an
# extra leaf on vertex 2 (T_A) respectively vertex 3 (T_B).
TA = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
TB = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])


def force_labels(monkeypatch, defs, ranks) -> None:
    """Make synthesize read the given labels instead of refining.

    Level 0 is one rank; defs[i] and ranks[i] are the definitions and the
    per-graph ranks of level i + 1, and the last level is reported as the
    first differing one.
    """

    def fake_refine(g1, g2, *args, **kwargs):
        return LabelTable(
            graphs=(g1, g2),
            levels=[LevelLabels(defs=((),), ranks=((0,) * g1.vertex_count,
                                                   (0,) * g2.vertex_count))]
            + [LevelLabels(defs=d, ranks=r) for d, r in zip(defs, ranks)],
            distinguishing_level=len(defs),
        )

    monkeypatch.setattr(synth, "joint_refine", fake_refine)


@functools.cache
def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism (canonical edge sets)."""
    pairs = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    seen: set[tuple] = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(Graph(n, list(canon)))
    return tuple(out)


# A tree shape is a tuple of (child shape, multiplicity) pairs; () is a leaf.

def build_shape(arena: TreeArena, shape) -> int:
    if not shape:
        return arena.leaf()
    return arena.attach((build_shape(arena, sub), mult) for sub, mult in shape)


def shape_size(shape) -> int:
    return 1 + sum(mult * shape_size(sub) for sub, mult in shape)


def shape_depth(shape) -> int:
    return 1 + max(shape_depth(sub) for sub, _ in shape) if shape else 0


@functools.cache
def rooted_tree_shapes(max_nodes: int) -> tuple[tuple, ...]:
    """All rooted trees with <= max_nodes explicit nodes, up to isomorphism.

    Multiplicities stay at 1 here; equal subtrees are repeated entries, so
    explicit size equals the stored node count.
    """
    by_size: dict[int, list] = {1: [()]}
    for size in range(2, max_nodes + 1):
        found = set()

        def go(remaining: int, min_child: int, chosen: tuple) -> None:
            if remaining == 0:
                found.add(chosen)
                return
            for csize in range(min_child, remaining + 1):
                for sub in by_size[csize]:
                    # (csize, sub) keys keep children sorted by size then
                    # shape, so each multiset of subtrees appears once
                    if chosen and (csize, sub) < chosen[-1]:
                        continue
                    go(remaining - csize, csize, chosen + ((csize, sub),))

        go(size - 1, 1, ())
        by_size[size] = sorted({tuple((s, 1) for _, s in t) for t in found})
    return tuple(s for size in range(1, max_nodes + 1) for s in by_size[size])


@st.composite
def graphs(draw, max_vertices: int = 8, min_vertices: int = 0) -> Graph:
    n = draw(st.integers(min_vertices, max_vertices))
    possible = list(combinations(range(n), 2))
    if not possible:
        return Graph(n, [])
    edges = draw(st.lists(st.sampled_from(possible), unique=True,
                          max_size=len(possible)))
    return Graph(n, edges)


@st.composite
def tree_shapes(draw, max_depth: int = 3, max_children: int = 3,
                max_mult: int = 3):
    if max_depth == 0:
        return ()
    width = draw(st.integers(0, max_children))
    return tuple(
        (draw(tree_shapes(max_depth=max_depth - 1, max_children=max_children,
                          max_mult=max_mult)),
         draw(st.integers(1, max_mult)))
        for _ in range(width)
    )


@st.composite
def label_defs(draw, max_rank: int = 5, max_mult: int = 3):
    ranks = sorted(draw(st.lists(st.integers(0, max_rank), unique=True,
                                 max_size=4)), reverse=True)
    return tuple((r, draw(st.integers(1, max_mult))) for r in ranks)
