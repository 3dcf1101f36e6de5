"""Tree-to-graph homomorphism counting.

The rooted count entry(t, v) is the number of homomorphisms of the subtree
at t that send its root to v. A leaf contributes 1 everywhere; otherwise

    entry(t, v) = prod over children (c, mult) of
                  (sum over neighbors w of v of entry(c, w)) ** mult

and the unrooted count is the sum of entry(t, v) over all v. The DP runs on
the succinct DAG directly: a child repeated with multiplicity m costs one
exponentiation, never m subtree copies. `rooted_hom` is the DP of any
tree, and synth.lift runs the same neighbor sums on a chain, one level at
a time. `rooted_hom` computes one vector per reachable node, a whole
vector at a time: a child's neighbor sums over all vertices at once, then
one elementwise power and product per child. A vertex's neighbor sum is
read through the graph's gather (graphs.gather), which the graph builds on
first use and keeps; no count is kept from one call to the next.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .graphs import Graph
from .trees import TreeArena

if TYPE_CHECKING:
    from .wl import LabelTable


class BudgetExceededError(RuntimeError):
    """Brute-force enumeration would exceed its map budget."""

    def __init__(self, total_maps: int, budget: int):
        self.total_maps = total_maps
        self.budget = budget
        super().__init__(
            f"brute force needs {total_maps} candidate maps, budget is {budget}"
        )


class LabelConsistencyError(RuntimeError):
    """Two vertices with the same label produced different rooted counts."""

    def __init__(self, rank: int, v1: int, count1: int, v2: int, count2: int):
        self.rank = rank
        self.vertices = (v1, v2)
        self.counts = (count1, count2)
        super().__init__(
            f"vertices {v1} and {v2} share label rank {rank} but have rooted "
            f"counts {count1} and {count2}"
        )


def rooted_hom(arena: TreeArena, t: int, graph: Graph) -> tuple[int, ...]:
    """Vector of entry(t, v) over all vertices v of the graph.

    One vector per node reachable from t, children first, each computed a
    whole vector at a time. A parent reads a child only through its
    neighbor sums, so those are kept, once per node however often it
    recurs in the DAG; a leaf's are the degrees. A first child of
    multiplicity 1 is its sums themselves, never copied and never changed.
    """
    sums: dict[int, list[int]] = {}
    for node in arena.reachable(t):
        vector = None
        for child, mult in arena.children(node):
            s = sums[child]
            if vector is not None:
                vector = [x * y ** mult for x, y in zip(vector, s)]
            else:
                vector = s if mult == 1 else [y ** mult for y in s]
        if node == t:
            return (1,) * graph.vertex_count if vector is None else tuple(vector)
        sums[node] = ([len(nbrs) for nbrs in graph.adjacency] if vector is None
                      else [sum(nbr_values(vector)) for nbr_values in graph.gathers])


def hom_count(arena: TreeArena, t: int, graph: Graph) -> int:
    return sum(rooted_hom(arena, t, graph))


def hom_by_label(
    arena: TreeArena,
    t: int,
    labels: LabelTable,
    which: int,
    level: int,
) -> dict[int, int]:
    """Rooted counts grouped by level-`level` label rank.

    Requires depth(t) <= level: the level-`level` label then determines the
    rooted count, so each rank maps to a single number. A disagreement
    within a rank would falsify that and raises LabelConsistencyError.
    """
    d = arena.depth(t)
    if d > level:
        raise ValueError(f"tree depth {d} exceeds label level {level}")
    graph = labels.graphs[which]
    vector = rooted_hom(arena, t, graph)
    ranks = labels.ranks_at(which, level)
    out: dict[int, int] = {}
    rep: dict[int, int] = {}
    for v, rank in enumerate(ranks):
        if rank not in out:
            out[rank] = vector[v]
            rep[rank] = v
        elif out[rank] != vector[v]:
            raise LabelConsistencyError(rank, rep[rank], out[rank], v, vector[v])
    return out


def brute_force_hom(
    node_count: int,
    edges: list[tuple[int, int]],
    graph: Graph,
    budget: int = 10**7,
) -> int:
    """Count homomorphisms by enumerating every vertex map. Oracle only.

    Takes an explicit tree (expand_tree output); checks each map against
    each edge with no cleverness whatsoever, so it is trustworthy and slow.
    """
    n = graph.vertex_count
    total_maps = n**node_count
    if total_maps > budget:
        raise BudgetExceededError(total_maps, budget)
    count = 0
    for mapping in itertools.product(range(n), repeat=node_count):
        for u, v in edges:
            if not graph.has_edge(mapping[u], mapping[v]):
                break
        else:
            count += 1
    return count
