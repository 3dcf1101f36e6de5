"""Iterated neighbor-multiset labels for pairs of graphs, with a total order.

This is the 1-dimensional Weisfeiler-Leman test in its neighbor-only form:
every vertex starts with the same level-0 label, and the level-(k+1) label of
a vertex is the multiset of level-k labels of its neighbors. The vertex's own
previous label is NOT part of the next one, which is the difference from
classic color refinement; partitions still refine level by level because the
level-(k+1) label determines the level-k label.

Labels are interned per level into integer ranks, jointly over both input
graphs so ranks are directly comparable across them. Ranks respect a total
order extended level by level: level-1 labels order by degree, and two
multisets compare by the largest element they contain a different number of
times (the one with more copies of it is larger). Rank 0 is the smallest
label of its level; the empty multiset (isolated vertices) is always minimal.

joint_refine records these ranks, and the verdict, on a LabelTable. Past
stabilization the partition is fixed but its numbering can cycle, so the
table steps on from its deepest level when asked for a deeper one.

Ranks are read only where a certificate or `wlhom labels` reports them.
The verdict (the first level whose histograms differ) and the
stabilization round (the last before a round that splits no class) are
facts about the joint partition at each level, whatever its classes are
called, so refine_verdict keeps joint but non-canonical class ids. A vertex
whose neighbors all kept their ids has the same neighbor-id multiset as a
round before, which its whole class shared, so each round re-signs only
the neighbors of vertices whose id changed. Each class they touch splits
into its untouched rest and one piece per sorted neighbor-id tuple. The
largest piece keeps the class id, as in Hopcroft's partition refinement,
so the vertices whose id changed, the next round's seeds, are few. No
per-class counts are kept: a class holding equally many vertices of each
graph splits into pieces whose imbalances sum to zero, so the histograms
first differ at the first level where a piece that moved holds unequal
numbers, and as classes only split they differ at every later level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby

from .graphs import Graph

# A label is a multiset of previous-level ranks, canonically encoded as
# (rank, multiplicity) pairs sorted by rank descending. On this encoding,
# and on the flat descending rank sequence it is built from, plain tuple
# order is the label order of the module docstring.
LabelDef = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LevelLabels:
    """Interned labels of one refinement level.

    defs[r] is the definition of the rank-r label in terms of
    previous-level ranks; ranks[i][v] is the rank of vertex v of graph i.
    defs is sorted ascending in tuple order, which is the label order of
    the module docstring, so the integer rank IS the label order.
    """

    defs: tuple[LabelDef, ...]
    ranks: tuple[tuple[int, ...], tuple[int, ...]]

    def histogram(self, which: int) -> Counter:
        return Counter(self.ranks[which])


@dataclass
class LabelTable:
    """Joint label levels for a pair of graphs, with joint_refine's verdict."""

    graphs: tuple[Graph, Graph]
    levels: list[LevelLabels] = field(default_factory=list)
    stabilization_level: int | None = None
    distinguishing_level: int | None = None

    @property
    def max_recorded_level(self) -> int:
        return len(self.levels) - 1

    @property
    def complete(self) -> bool:
        """True when stabilization was reached within the recorded levels."""
        return self.stabilization_level is not None

    @property
    def distinguished(self) -> bool:
        return self.distinguishing_level is not None

    def ranks_at(self, which: int, level: int) -> tuple[int, ...]:
        """Per-vertex ranks of graph `which` at the given level.

        Past the recorded levels of a complete table the partition is fixed
        but its numbering may change: further rounds run until the level is
        reached or a rank vector repeats, and from a repeat on it cycles.
        """
        if level < 0:
            raise ValueError(f"negative level {level}")
        if level <= self.max_recorded_level:
            return self.levels[level].ranks[which]
        if not self.complete:
            raise ValueError(
                f"level {level} not computed (recorded up to "
                f"{self.max_recorded_level} without stabilizing)"
            )
        base, seen = self.max_recorded_level, [self.levels[-1].ranks]
        while base + len(seen) <= level:  # seen[i] is level base + i
            nxt = _next_level(self.graphs, seen[-1]).ranks
            if nxt in seen:
                start = seen.index(nxt)
                return seen[start + (level - base - start) % (len(seen) - start)][which]
            seen.append(nxt)
        return seen[-1][which]

    def defs_at(self, level: int) -> tuple[LabelDef, ...]:
        if not 0 <= level <= self.max_recorded_level:
            raise ValueError(f"level {level} not recorded")
        return self.levels[level].defs

    def histogram(self, which: int, level: int) -> Counter:
        return Counter(self.ranks_at(which, level))


def _next_level(
    pair: tuple[Graph, Graph], prev: tuple[tuple[int, ...], tuple[int, ...]]
) -> LevelLabels:
    """The level after ranks `prev`: each label is a neighbor-rank multiset."""
    # Neighbor ranks sorted descending: tuple order on these is the label
    # order, and each run of equal ranks is one (rank, mult) pair.
    signatures = [
        [tuple(sorted([ranks[w] for w in nbrs], reverse=True)) for nbrs in g.adjacency]
        for g, ranks in zip(pair, prev)
    ]
    order = sorted(set(signatures[0]).union(signatures[1]))
    rank_of = {sig: r for r, sig in enumerate(order)}
    return LevelLabels(
        defs=tuple(tuple((r, len(list(run))) for r, run in groupby(sig))
                   for sig in order),
        ranks=tuple(tuple(map(rank_of.__getitem__, sigs)) for sigs in signatures),
    )


def joint_refine(
    g1: Graph, g2: Graph, max_level: int | None = None, stop_at_difference: bool = False
) -> LabelTable:
    """Refine labels on the disjoint union of g1 and g2, recording the verdict.

    Stops after recording level stabilization+1 (the round that first fails
    to refine the joint partition), or after max_level, whichever is first.
    Default max_level is |V1|+|V2|, which always reaches stabilization.
    The table's distinguishing_level is the first recorded level whose
    histograms differ; None on a complete table means no level ever differs,
    and on an incomplete one merely "none found". With stop_at_difference
    refinement also stops at that level, leaving an incomplete table whose
    levels are the first levels of the full one. Ranks follow the tuple
    order of the label definitions, which is the label order.
    """
    if max_level is None:
        max_level = g1.vertex_count + g2.vertex_count
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    pair = (g1, g2)
    level0 = LevelLabels(defs=((),), ranks=tuple((0,) * g.vertex_count for g in pair))
    table = LabelTable(graphs=pair, levels=[level0])
    if g1.vertex_count != g2.vertex_count:
        table.distinguishing_level = 0
    if g1.vertex_count + g2.vertex_count == 0:
        table.stabilization_level = 0
        return table
    while table.max_recorded_level < max_level and not (
        stop_at_difference and table.distinguished
    ):
        prev = table.levels[-1]
        level = _next_level(pair, prev.ranks)
        table.levels.append(level)
        if not table.distinguished and level.histogram(0) != level.histogram(1):
            table.distinguishing_level = table.max_recorded_level
        # Refinement is monotone (a level's label determines the previous
        # one), so an unchanged class count means an unchanged partition.
        if len(level.defs) == len(prev.defs):
            table.stabilization_level = table.max_recorded_level - 1
            break
    return table


def distinguishing_level(
    g1: Graph, g2: Graph, max_level: int | None = None, stop_at_difference: bool = False
) -> LabelTable:
    """Least level whose label histograms differ, on joint_refine's table.

    The same call as joint_refine; read .distinguishing_level, .distinguished
    and .stabilization_level off the table it returns. A None level after
    stabilization is conclusive: by persistence no deeper level can differ.
    """
    return joint_refine(g1, g2, max_level, stop_at_difference)


def refine_verdict(
    g1: Graph, g2: Graph, max_level: int | None = None, stop_at_difference: bool = False
) -> tuple[int | None, int | None]:
    """(distinguishing_level, stabilization_level), as distinguishing_level
    reports them for the same arguments, from the joint partition alone.

    Vertices of g2 follow those of g1 in one id space; color[v] is the
    class id of vertex v and members[c] the vertex set of class c.
    """
    if max_level is None:
        max_level = g1.vertex_count + g2.vertex_count
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    n1 = g1.vertex_count
    n = n1 + g2.vertex_count
    if n == 0:
        return None, 0
    adjacency = [*g1.adjacency, *([w + n1 for w in nbrs] for nbrs in g2.adjacency)]
    color = [0] * n
    members = [set(range(n))]
    found = 0 if 2 * n1 != n else None
    level = 0
    touched = range(n)
    while level < max_level and not (stop_at_difference and found is not None):
        # Touched vertices only, keyed by class id and then the sorted ids
        # of their neighbors; the rest of each class keeps its old label.
        groups: dict[tuple[int, ...], list[int]] = {}
        for v in touched:
            sig = (color[v], *sorted([color[w] for w in adjacency[v]]))
            groups.setdefault(sig, []).append(v)
        by_class: dict[int, list[list[int]]] = {}
        for sig, piece in groups.items():
            by_class.setdefault(sig[0], []).append(piece)
        moved = []
        for c, pieces in by_class.items():
            rest = len(members[c]) - sum(map(len, pieces))
            if rest < max(map(len, pieces)):
                if rest:
                    pieces.append(list(members[c].difference(*pieces)))
                pieces.sort(key=len)
                pieces.pop()
            for piece in pieces:
                members[c].difference_update(piece)
                for v in piece:
                    color[v] = len(members)
                members.append(set(piece))
                moved.append(piece)
        level += 1
        if not moved:
            return found, level - 1
        if found is None and any(2 * sum(v < n1 for v in piece) != len(piece)
                                 for piece in moved):
            found = level
        touched = {w for piece in moved for v in piece for w in adjacency[v]}
    return found, None
