"""Shared builders, census enumerators, and hypothesis strategies."""

from __future__ import annotations

import functools
import random
import warnings
from itertools import combinations, permutations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from wlhom import Graph, TreeArena, joint_refine, path_graph, permute
from wlhom import synth, wl
from wlhom.wl import LabelTable

# A failing property makes hypothesis import its patch writer, which needs
# libcst; where libcst is installed, that import warns of a deprecated
# mypy_extensions.TypedDict, and under -W error the warning ends the run in
# an INTERNALERROR with no failure report. Importing the writer once here,
# with that one warning ignored, leaves -W error strict for every other.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

def degree(g: Graph, u: int) -> int:
    if not 0 <= u < g.vertex_count:
        raise IndexError(f"vertex index {u} out of range [0, {g.vertex_count})")
    return len(g.adjacency[u])


def isolated_vertices(g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.vertex_count) if not g.adjacency[v])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Center is vertex 0 with the given number of leaves."""
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shift = g1.vertex_count
    edges = list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges]
    return Graph(g1.vertex_count + g2.vertex_count, edges)


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


def shuffled(g: Graph, seed) -> Graph:
    """g with its vertices permuted by a shuffle drawn from the seed."""
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return permute(g, perm)


def caterpillar(spine: int, pendant: int) -> Graph:
    """A path on `spine` vertices with one leaf hung off position `pendant`."""
    edges = [(i, i + 1) for i in range(spine - 1)] + [(pendant, spine)]
    return Graph(spine + 1, edges)


def caterpillar_pair(level: int) -> tuple[Graph, Graph]:
    """Shuffled caterpillars with a pendant at p and at p + 1 on a long
    spine, which first differ at level (p + 3) // 2 = `level`. Their round
    1 moves only the leaves and the branch vertices, so the refinement
    driver hands over to its worklist after level 1."""
    p = 2 * level - 3
    spine = 2 * p + 4 + level % 4
    return (shuffled(caterpillar(spine, p), level),
            shuffled(caterpillar(spine, p + 1), -level))


def early_table(g1: Graph, g2: Graph, max_level: int | None = None) -> LabelTable:
    """joint_refine's table cut at its distinguishing level d: levels 0..d
    and no stabilization level. The whole table when no level differs."""
    full = joint_refine(g1, g2, max_level)
    d = full.distinguishing_level
    if d is None:
        return full
    return LabelTable(graphs=full.graphs, levels=full.levels[: d + 1],
                      distinguishing_level=d)


def rooted_hom_reference(arena: TreeArena, t: int, graph: Graph) -> tuple[int, ...]:
    """entry(t, v) computed one vertex at a time, the DP before it worked on
    whole vectors. Kept as the oracle that rooted_hom must equal exactly."""
    adjacency = graph.adjacency
    vectors: dict[int, tuple[int, ...]] = {}
    for node in arena.reachable(t):
        kids = arena.children(node)
        if not kids:
            vectors[node] = (1,) * graph.vertex_count
            continue
        vector = []
        for v in range(graph.vertex_count):
            entry = 1
            for child, mult in kids:
                child_vec = vectors[child]
                entry *= sum(child_vec[w] for w in adjacency[v]) ** mult
                if entry == 0:
                    break
            vector.append(entry)
        vectors[node] = tuple(vector)
    return vectors[t]


def tuple_rounds(g1: Graph, g2: Graph, levels: int) -> list:
    """(defs, ranks) of levels 0..levels, each round keyed by the neighbors'
    previous ranks sorted descending, on which tuple order is the label
    order; every round is generic, level 1 included. The oracle of wl's
    rounds, and the labels every test reads."""
    pair, n1 = (g1, g2), g1.vertex_count
    ranks = (0,) * (n1 + g2.vertex_count)
    out = [(((),), ranks)]
    for _ in range(levels):
        signatures = [
            tuple(sorted(nbr_ranks(part), reverse=True))
            for g, part in zip(pair, (ranks[:n1], ranks[n1:])) for nbr_ranks in g.gathers
        ]
        defs = tuple(sorted(set(signatures)))
        rank_of = {sig: r for r, sig in enumerate(defs)}
        ranks = tuple(map(rank_of.__getitem__, signatures))
        out.append((defs, ranks))
    return out


def replay_to_difference(g1: Graph, g2: Graph, max_level: int | None = None) -> tuple:
    """(distinguishing level, stabilization level, levels) from the record
    of wl._refine stopped at the first difference k, the walk synthesize
    makes, replayed into copies: levels holds, on a distinguished pair, the
    class ids of its levels 1..k as full lists over G1 ⊔ G2, and is []
    otherwise. Past the dense levels, each level is the one before with the
    pieces that moved in its worklist round given their ids."""
    distinguishing, stabilization, levels, rounds = wl._refine(g1, g2, max_level, True)
    if distinguishing is None:
        return distinguishing, stabilization, []
    for moved in rounds:
        color = list(levels[-1])
        for q, piece in moved.items():
            for v in piece:
                color[v] = q
        levels.append(color)
    return distinguishing, stabilization, levels


def force_ids(monkeypatch, ids) -> None:
    """Make synthesize read the given levels instead of refining.

    ids[i] holds the class ids of level i + 1 per graph (g1's, g2's),
    joined into the one id vector of a dense level of wl._refine's record,
    which then has no worklist round, and the last level is reported as
    the first differing one. The ids need not be any true partition's.
    """

    def fake_refine(g1, g2, *args, **kwargs):
        return len(ids), None, [(*r1, *r2) for r1, r2 in ids], []

    monkeypatch.setattr(synth, "_refine", fake_refine)


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
