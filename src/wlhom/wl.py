"""Iterated neighbor-multiset labels for pairs of graphs.

This is the 1-dimensional Weisfeiler-Leman test in its neighbor-only form:
every vertex starts with the same level-0 label, and the level-(k+1) label of
a vertex is the multiset of level-k labels of its neighbors. The vertex's own
previous label is NOT part of the next one, which is the difference from
classic color refinement; partitions still refine level by level because the
level-(k+1) label determines the level-k label.

The verdict (the first level whose histograms differ) and the
stabilization round (the last before a round that splits no class) are
facts about the joint partition at each level, whatever its classes are
called. So the verdict engine, _refine, is a partition refiner on plain
class ids over the disjoint union G1 ⊔ G2, g2's vertices numbered after
g1's: a level is one list of ids 0 .. C - 1 for its C classes, and no
order of labels is sought. Level 1 is read off the degrees, as a level-1
label is d copies of the one level-0 label. A later level keys each vertex
by its label. With w the bit length of the largest degree, no count of one
id among a vertex's neighbors reaches 2^w, so the sum over the neighbors
of 2^(w * id) is the label's count vector packed into one integer: its
base-2^w digit r is the number of id-r neighbors. A key has at most C * w
bits. Past PACKED_KEY_BITS, adding keys that wide costs more than sorting
the ids they encode, so the round keys each vertex by its neighbors' ids
sorted descending instead. Either key determines the label, and the
level numbers the distinct keys by first occurrence, with no sort. A round
reads a vertex's neighbors' ids with its graph's gathers (graphs.gather).
The verdict compares the two graphs' id histograms, and as refinement is
monotone, an unchanged class count means an unchanged partition.

Such a round signs every vertex. While each round moves more than half of
the vertices, a vertex having moved when it lies outside the largest piece
of its previous class, re-signing every vertex costs no more than a
worklist would; these rounds are dense. After the first round that moves
fewer, one hand-over gives the last level's ids to the worklist, which
reads no gather, only the adjacency of the pieces that moved. Each round
splits classes into pieces. The largest piece of a class keeps its id, as
in Hopcroft's partition refinement, and the others, the pieces that moved,
take new ids. The vertices of one class had equal neighbor multisets over
the classes of the round before, and a split class's count is the sum of
its pieces' counts, one of them kept. So two vertices of one class get
equal next labels exactly when they have equal counts into each moved
piece, and a vertex is signed by the ids of its neighbors in the moved
pieces only. The signatures are built by scanning the moved pieces'
adjacency, so a round costs the degree sum of the vertices that moved, not
of the vertices it signs. Each class the moved pieces touch splits into
its untouched rest and one piece per signature. A vertex moves only into a
piece at most half its class's size, so O(log V) times, and a whole
refinement costs O((V + E) log V), the bound of Cardon and Crochemore
(1982) and of Paige and Tarjan (1987), which Berkholz, Bonsma and Grohe
(2013) show is tight for color refinement. No per-class counts are kept:
a class holding equally many vertices of each graph splits into pieces
whose imbalances sum to zero, so the histograms first differ at the first
level where a piece that moved holds unequal numbers, and as classes only
split they differ at every later level. The pieces are read off the joint
ids, since past the first difference a class can hold unequal numbers of
the two graphs' vertices.

refine_verdict returns the verdict and the stabilization round, all that
compare and verify read. synthesize needs, at each level up to the first
differing one, only counts that are distinct over the level's classes, so
any names for the classes serve, and it reads _refine's own record: the
dense levels' ids, and each later level as the last of them with the
pieces that moved in the worklist's rounds up to it given their ids.

joint_refine, which serves `wlhom labels` and the tests' oracle, is the one
place that orders labels. Its levels are LevelLabels, whose ranks respect
a total order extended level by level: level-1 labels order by degree, and
two multisets compare by the largest element they contain a different
number of times (the one with more copies of it is larger). Rank 0 is the
smallest label of its level; the empty multiset (isolated vertices) is
always minimal. On previous ranks both keys order as the labels do: a
descending tuple by plain tuple order, and a packed integer at its highest
differing digit, the largest rank the two labels hold a different number
of times, the one holding more copies being larger. So one sort of a
level's distinct keys ranks it (_intern), and level 1, whose keys are the
degrees, is _degree_level. Past stabilization the partition is fixed but
its numbering can cycle, so the table steps on from its deepest level when
asked for a deeper one.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from itertools import count

from .graphs import Graph

# The widest packed key, in bits, that a round sums: the previous level's
# class count times the bits of the largest degree. Past it the round keys
# each vertex by its neighbors' ids: on G(n, p) pairs a packed round broke
# even with a tuple-keyed one near 500 bits and took twice as long near 3500.
PACKED_KEY_BITS = 384


class LevelLabels(namedtuple("LevelLabels", "ranks classes")):
    """One canonical refinement level, an immutable value record.

    ranks[v] is the rank of vertex v of G1 ⊔ G2, where vertex v of g2 is
    vertex |V1| + v, and the ranks are 0 .. classes - 1. Ranks follow the
    label order of the module docstring.
    """

    __slots__ = ()


class LabelTable:
    """Joint label levels for a pair of graphs, with the verdict they give."""

    __slots__ = ("graphs", "levels", "stabilization_level", "distinguishing_level")

    def __init__(self, graphs: tuple[Graph, Graph], levels=(),
                 stabilization_level: int | None = None,
                 distinguishing_level: int | None = None):
        self.graphs, self.levels = graphs, list(levels)
        self.stabilization_level = stabilization_level
        self.distinguishing_level = distinguishing_level

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
        n1 = self.graphs[0].vertex_count
        cut = slice(n1, None) if which else slice(n1)
        if level <= self.max_recorded_level:
            return self.levels[level].ranks[cut]
        if not self.complete:
            raise ValueError(
                f"level {level} not computed (recorded up to "
                f"{self.max_recorded_level} without stabilizing)"
            )
        base, seen = self.max_recorded_level, [self.levels[-1]]
        while base + len(seen) <= level:  # seen[i] is level base + i
            nxt = _intern(_keys(self.graphs, *seen[-1]))
            if nxt in seen:
                start = seen.index(nxt)
                return seen[start + (level - base - start) % (len(seen) - start)].ranks[cut]
            seen.append(nxt)
        return seen[-1].ranks[cut]

    def histogram(self, which: int, level: int) -> Counter:
        return Counter(self.ranks_at(which, level))


def _intern(keys: list) -> LevelLabels:
    """The canonical level whose vertices have these label keys, integers
    or tuples whose order is the label order."""
    rank_of = {key: r for r, key in enumerate(sorted(set(keys)))}
    return LevelLabels(ranks=tuple(map(rank_of.__getitem__, keys)), classes=len(rank_of))


def _keys(pair: tuple[Graph, Graph], ids, classes: int) -> list:
    """Each vertex's label key for the level after the one whose class ids,
    0 .. classes - 1, these are.

    The key is the label's count vector packed into one integer: an id-r
    neighbor adds 2 ** (width * r), and no count reaches 2 ** width. If the
    keys could pass PACKED_KEY_BITS, the key is the label itself, its
    neighbors' ids sorted descending. Each graph's gathers read its own
    slice of the values.
    """
    n1 = pair[0].vertex_count
    width = max(max(map(len, g.adjacency), default=0) for g in pair).bit_length()
    packed = classes * width <= PACKED_KEY_BITS
    if packed:
        weights = [1 << width * r for r in range(classes)]
        ids = list(map(weights.__getitem__, ids))
    key = sum if packed else (lambda nbr_ids: tuple(sorted(nbr_ids, reverse=True)))
    return [key(of_nbrs(part)) for g, part in zip(pair, (ids[:n1], ids[n1:]))
            for of_nbrs in g.gathers]


def _degree_level(pair: tuple[Graph, Graph]) -> LevelLabels:
    """Canonical level 1, read off the degrees: the level after level 0.

    Each level-1 label is d copies of the one level-0 rank, whose packed
    key is d, so ranks index the sorted distinct degrees.
    """
    return _intern([len(nbrs) for g in pair for nbrs in g.adjacency])


def _level_zero(g1: Graph, g2: Graph, max_level: int | None) -> tuple:
    """(max_level, stabilization level, distinguishing level): max_level
    checked, by default |V1|+|V2|, which reaches stabilization, and the
    levels as level 0 gives them, 0 or None."""
    n = g1.vertex_count + g2.vertex_count
    if max_level is None:
        max_level = n
    elif max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    return max_level, 0 if n == 0 else None, 0 if g1.vertex_count != g2.vertex_count else None


def joint_refine(g1: Graph, g2: Graph, max_level: int | None = None) -> LabelTable:
    """Refine labels on the disjoint union of g1 and g2, recording the verdict.

    Stops after recording level stabilization+1 (the round that first fails
    to refine the joint partition), or after max_level, whichever is first.
    Default max_level is |V1|+|V2|, which always reaches stabilization.
    The table's distinguishing_level is the first recorded level whose
    histograms differ; None on a complete table means no level ever differs,
    and on an incomplete one merely "none found". Ranks follow the label
    order.
    """
    max_level, *verdict = _level_zero(g1, g2, max_level)
    level0 = LevelLabels(ranks=(0,) * (g1.vertex_count + g2.vertex_count), classes=1)
    table = LabelTable((g1, g2), [level0], *verdict)
    while not table.complete and table.max_recorded_level < max_level:
        prev = table.levels[-1]
        level = (_intern(_keys(table.graphs, *prev)) if table.max_recorded_level
                 else _degree_level(table.graphs))
        table.levels.append(level)
        k = table.max_recorded_level
        if not table.distinguished and table.histogram(0, k) != table.histogram(1, k):
            table.distinguishing_level = k
        if level.classes == prev.classes:
            table.stabilization_level = k - 1
    return table


# Least level whose label histograms differ, on joint_refine's table: the
# same call; read .distinguishing_level, .distinguished and
# .stabilization_level off the table it returns. A None level after
# stabilization is conclusive: by persistence no deeper level can differ.
distinguishing_level = joint_refine


def _hand_over(prev, ids, classes: int):
    """The worklist's start from the last two dense levels' class ids, or
    None while the last round moved more than half of the vertices.

    A vertex moved when it lies outside the largest piece of its previous
    class. The start is (color, members, moved): a copy of the ids, each
    class's vertex set, and the vertex set of each class outside the kept
    largest pieces, the pieces that moved, by id ascending.
    """
    parent = dict(zip(ids, prev))
    largest = {}
    for q, size in Counter(ids).items():
        largest[parent[q]] = max(largest.get(parent[q], (0, 0)), (size, q))
    if 2 * sum(size for size, _ in largest.values()) < len(ids):
        return None
    members = [set() for _ in range(classes)]
    for v, q in enumerate(ids):
        members[q].add(v)
    kept = {q for _, q in largest.values()}
    moved = {q: piece for q, piece in enumerate(members) if q not in kept}
    return list(ids), members, moved


def _moving_pieces(members: set[int], pieces: list[list[int]]) -> list[list[int]]:
    """The pieces of a class that take new ids, given its vertex set and
    its touched pieces: all of those and of its untouched rest but one
    largest, which keeps the class's id."""
    rest = len(members) - sum(map(len, pieces))
    if rest < max(map(len, pieces)):
        if rest:
            pieces.append(list(members.difference(*pieces)))
        pieces.sort(key=len)
        pieces.pop()
    return pieces


def _refine(g1: Graph, g2: Graph, max_level: int | None, stop_at_difference: bool):
    """Dense rounds while they move more than half of the vertices, then
    worklist rounds, up to max_level, stabilization or, if
    stop_at_difference, the first difference.

    Returns (distinguishing level, stabilization level, dense levels,
    rounds): the two levels, the worklist's included, each None if not
    reached; the class ids of levels 1 .. h up to the hand-over; and the
    pieces that took new ids in each of the worklist's rounds, each round's
    a dict from new id to piece, by id ascending. A worklist round signs
    only the touched vertices, the neighbors of the pieces that moved in
    the round before (at the hand-over, for the first), each by the ids of
    its neighbors in those pieces, read before the round changes any vertex
    set: the rest of a class share one next label, which no touched vertex
    of the class has.
    """
    pair, n1 = (g1, g2), g1.vertex_count
    max_level, stabilization, distinguishing = _level_zero(g1, g2, max_level)
    levels, classes, start = [[0] * (n1 + g2.vertex_count)], 1, None
    while not (stabilization is not None or len(levels) > max_level
               or stop_at_difference and distinguishing is not None):
        if len(levels) > 1 and (start := _hand_over(*levels[-2:], classes)):
            break
        keys = (_keys(pair, levels[-1], classes) if len(levels) > 1
                else [len(nbrs) for g in pair for nbrs in g.adjacency])
        id_of = dict(zip(dict.fromkeys(keys), count()))
        ids = list(map(id_of.__getitem__, keys))
        if distinguishing is None and Counter(ids[:n1]) != Counter(ids[n1:]):
            distinguishing = len(levels)
        if len(id_of) == classes:
            stabilization = len(levels) - 1
        levels.append(ids)
        classes = len(id_of)
    if start is None:
        return distinguishing, stabilization, levels[1:], []
    color, members, moved = start
    adjacency1, adjacency2 = g1.adjacency, g2.adjacency
    level, rounds = len(levels) - 1, []
    while level < max_level and not (stop_at_difference and distinguishing is not None):
        # The touched vertices, the neighbors of the last moved pieces, each
        # with the ids of its neighbors among them, ascending as the pieces
        # are listed, and keyed by class id and then those ids; the rest of
        # each class keeps its old label. A vertex's neighbors are read off
        # its own graph's adjacency, g2's shifted by n1.
        moved_ids: defaultdict[int, list[int]] = defaultdict(list)
        for q, piece in moved.items():
            for u in piece:
                if u < n1:
                    for w in adjacency1[u]:
                        moved_ids[w].append(q)
                else:
                    for w in adjacency2[u - n1]:
                        moved_ids[w + n1].append(q)
        by_class: defaultdict[int, dict[tuple[int, ...], list[int]]] = defaultdict(dict)
        for v, ids in moved_ids.items():
            by_class[color[v]].setdefault(tuple(ids), []).append(v)
        moved = {}
        for c, groups in by_class.items():
            for piece in _moving_pieces(members[c], list(groups.values())):
                members[c].difference_update(piece)
                for v in piece:
                    color[v] = len(members)
                moved[len(members)] = piece
                members.append(set(piece))
        level += 1
        if not moved:
            stabilization = level - 1
            break
        rounds.append(moved)
        if distinguishing is None and any(2 * sum(map(n1.__gt__, piece)) != len(piece)
                                          for piece in moved.values()):
            distinguishing = level
    return distinguishing, stabilization, levels[1:], rounds


def refine_verdict(
    g1: Graph, g2: Graph, max_level: int | None = None, stop_at_difference: bool = False
) -> tuple[int | None, int | None]:
    """(distinguishing_level, stabilization_level), as distinguishing_level
    reports them for the same arguments, from the joint partition alone."""
    return _refine(g1, g2, max_level, stop_at_difference)[:2]

