"""The source paper's ordering lemma, checked on small graphs.

The paper orders labels: for m large enough, the rooted count of one root
over m copies of the level-(j-1) tree increases strictly with the level-j
label rank. A level-j label is a multiset of level-(j-1) ranks whose counts
already increase with rank, so its count is a sum of m-th powers in which
the largest rank two labels hold a different number of times dominates,
which is the label order. synth.lift takes the other route, distinct values
(Dell, Grohe and Rattan), which needs far smaller m; this module lifts the
paper's way, on the canonical labels of conftest.tuple_rounds, as a
tests-only oracle.
"""

from __future__ import annotations

import operator

from hypothesis import example, given

from wlhom import Graph, hom_count, joint_refine
from wlhom.synth import Certificate, lift

from .conftest import K13, P4, PROPERTY_SETTINGS, TA, TB, early_table, graphs, tuple_rounds

# Every pair of graphs on at most MAX_VERTICES vertices each reaches the
# order by m = 268 at every level up to stabilization (an exhaustive scan
# over their isomorphism classes; the worst pair is K4 against K4 with a
# pendant vertex, at level 3, where the level-2 counts 243 and 244 are
# nearly equal). The lemma is asymptotic, and the m it needs grows with the
# graphs: 8 of 538 levels of random graphs on 2-12 vertices, each against
# itself, needed m > 60.
MAX_VERTICES = 5
M_CAP = 300


def ordering_lift(defs, base: list[int]) -> tuple[int, list[int]] | None:
    """Least m <= M_CAP making a level's counts strictly increase with
    rank, and the counts: the count at rank r sums base[r'] ** m over r' in
    defs[r], the label of r, with repeats. None past M_CAP."""
    for m in range(1, M_CAP + 1):
        powers = [b ** m for b in base]
        values = [sum(map(powers.__getitem__, label)) for label in defs]
        if all(map(operator.lt, values, values[1:])):
            return m, values
    return None


def degree_counts(defs) -> list[int]:
    """The level-1 counts, a one-leaf star's, from the level-1 labels: each
    rank's degree, which increases with rank."""
    return [len(label) for label in defs]


def ordering_chain(g1, g2) -> tuple[int, ...]:
    """The paper's chain for a distinguished pair: each lift's ordering m,
    then the least n that separates the level-k counts."""
    labels = early_table(g1, g2)
    k = labels.distinguishing_level
    if k == 0:
        return ()
    defs = [defs for defs, _ in tuple_rounds(g1, g2, k)]
    counts, mults = degree_counts(defs[1]), []
    for level in range(2, k + 1):
        m, counts = ordering_lift(defs[level], counts)
        mults.append(m)
    hists = [labels.histogram(which, k) for which in (0, 1)]
    for n in range(1, len(counts) + 1):
        c1, c2 = (sum(c * counts[r] ** n for r, c in hist.items()) for hist in hists)
        if c1 != c2:
            return (*mults, n)
    raise AssertionError("strictly increasing counts separate within |ranks| values of n")


K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K4_PENDANT = Graph(5, [*K4.edges, (0, 4)])

pairs = given(graphs(max_vertices=MAX_VERTICES), graphs(max_vertices=MAX_VERTICES))


class TestOrderingLemma:
    @PROPERTY_SETTINGS
    @pairs
    @example(K4, K4_PENDANT)
    def test_order_is_reached_under_the_cap(self, g1, g2):
        labels = joint_refine(g1, g2)
        if labels.max_recorded_level < 1:
            return
        defs = [defs for defs, _ in tuple_rounds(g1, g2, labels.max_recorded_level)]
        counts = degree_counts(defs[1])
        assert counts == sorted(set(counts))
        for level in range(2, labels.max_recorded_level + 1):
            found = ordering_lift(defs[level], counts)
            assert found is not None, level
            counts = found[1]

    @PROPERTY_SETTINGS
    @pairs
    @example(TA, TB)
    @example(K13, P4)
    @example(K4, K4_PENDANT)
    def test_chain_separates_every_distinguished_pair(self, g1, g2):
        if early_table(g1, g2).distinguishing_level is None:
            return
        arena, root = Certificate(ordering_chain(g1, g2)).tree()
        assert hom_count(arena, root, g1) != hom_count(arena, root, g2)

    @PROPERTY_SETTINGS
    @pairs
    @example(TA, TB)
    def test_level_two_m_is_at_least_lifts(self, g1, g2):
        # Both lifts start from the degrees at level 2; a strict order is
        # distinct, so lift's least distinct m is at most the ordering m.
        labels = joint_refine(g1, g2, max_level=2)
        if labels.max_recorded_level < 2:
            return
        _, (defs1, _), (defs2, ranks2) = tuple_rounds(g1, g2, 2)
        if not any(defs2):
            return
        m_order, _ = ordering_lift(defs2, degree_counts(defs1))
        degrees = [len(nbrs) for g in (g1, g2) for nbrs in g.adjacency]
        m_lift, _ = lift((g1, g2), ranks2, 2, degrees)
        assert m_order >= m_lift
