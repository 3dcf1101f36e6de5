"""Tree-to-graph homomorphism counting.

The rooted count entry(t, v) is the number of homomorphisms of the subtree
at t that send its root to v. A leaf contributes 1 everywhere; otherwise

    entry(t, v) = prod over children (c, mult) of
                  (sum over neighbors w of v of entry(c, w)) ** mult

and the unrooted count is the sum of entry(t, v) over all v. The DP runs on
the succinct DAG directly: a child repeated with multiplicity m costs one
exponentiation, never m subtree copies. One private producer,
`_root_terms`, is the DP of any tree, and synth.lift runs the same
neighbor sums on a chain, one level at a time. `_root_terms` makes the
root's terms entry(t, v) for each v in order. Every node below the root
is one whole vector, computed a whole vector at a time: a child's
neighbor sums over all vertices at once, then one elementwise power and
product per child. The root's terms are the same powers and products as
lazy C-level maps, made one at a time as they are read. A vertex's
neighbor sum is read through the graph's gather (graphs.gather), which
the graph builds on first use and keeps; no count is kept from one call
to the next.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
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


def _root_terms(arena: TreeArena, t: int, graph: Graph) -> Iterable[int]:
    """entry(t, v) for each vertex v of the graph, in order.

    Every node below t is one whole vector, children first, because its
    parents read it only through its neighbor sums, which are kept once per
    node however often it recurs in the DAG; a leaf's are the degrees. A
    node's terms are its children's sums raised elementwise and multiplied
    across children in order, as flat C-level maps, however many children
    the node has. Below t they are made into a vector at once; t's are
    returned unmade, so a caller that only sums them holds one at a time.
    """
    sums: dict[int, list[int]] = {}
    for node in arena.reachable(t):
        powers = [sums[c] if m == 1 else map(pow, sums[c], itertools.repeat(m))
                  for c, m in arena.children(node)]
        terms = powers[0] if len(powers) == 1 else map(math.prod, zip(*powers))
        if node == t:
            return terms if powers else itertools.repeat(1, graph.vertex_count)
        if not powers:
            sums[node] = [len(nbrs) for nbrs in graph.adjacency]
        else:
            vector = list(terms)
            sums[node] = [sum(nbr_values(vector)) for nbr_values in graph.gathers]


def rooted_hom(arena: TreeArena, t: int, graph: Graph) -> tuple[int, ...]:
    """Vector of entry(t, v) over all vertices v of the graph.

    The root's terms from `_root_terms`, made whole.
    """
    return tuple(_root_terms(arena, t, graph))


def hom_count(arena: TreeArena, t: int, graph: Graph) -> int:
    """Sum of entry(t, v) over all v: the homomorphism count of the tree.

    Sums the root's terms as `_root_terms` makes them, so it holds the
    level below the root and one term, never the root's vector.
    """
    return sum(_root_terms(arena, t, graph))


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
