"""Label refinement: the order, the levels, and the comparison verdicts."""

from __future__ import annotations

import functools
import random
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wlhom import (
    Certificate,
    Graph,
    disjoint_union,
    distinguishing_level,
    joint_refine,
    empty_graph,
    path_graph,
    permute,
    refine_verdict,
    star_graph,
    verify,
)
from wlhom.wl import LabelDef

from .conftest import (
    C6,
    K13,
    P4,
    PROPERTY_SETTINGS,
    TA,
    TB,
    TWO_C3,
    graphs,
    label_defs,
)


# The label order's specification, kept here as the oracle that plain
# tuple order on the descending (rank, mult) encoding must realize.
def _validate_label(label: LabelDef) -> None:
    prev = None
    for pair in label:
        if len(pair) != 2:
            raise ValueError(f"label entry {pair!r} is not a (rank, mult) pair")
        rank, mult = pair
        if rank < 0:
            raise ValueError(f"negative rank {rank} in label {label!r}")
        if mult < 1:
            raise ValueError(f"multiplicity {mult} < 1 in label {label!r}")
        if prev is not None and rank >= prev:
            raise ValueError(f"label {label!r} not sorted by rank descending")
        prev = rank


def compare_labels(l1: LabelDef, l2: LabelDef) -> int:
    """Compare two same-level labels; returns -1, 0 or 1.

    The rule: take the largest previous-level rank that occurs a different
    number of times in the two multisets; whichever multiset has more copies
    of it is the greater one. On the canonical descending encoding this is a
    left-to-right scan: at the first differing position the larger rank wins,
    then the larger multiplicity; if one list is a proper prefix of the
    other, the longer one wins (its extra elements are all smaller-ranked,
    and it has more of the largest such).
    """
    _validate_label(l1)
    _validate_label(l2)
    for (r1, m1), (r2, m2) in zip(l1, l2):
        if r1 != r2:
            return 1 if r1 > r2 else -1
        if m1 != m2:
            return 1 if m1 > m2 else -1
    if len(l1) != len(l2):
        return 1 if len(l1) > len(l2) else -1
    return 0


class TestCompareLabels:
    def test_larger_rank_wins(self):
        assert compare_labels(((2, 1),), ((1, 2),)) == 1

    def test_same_top_multiplicity_decides(self):
        assert compare_labels(((3, 1), (1, 1)), ((3, 1), (1, 2))) == -1

    def test_empty_is_minimal(self):
        assert compare_labels((), ((0, 1),)) == -1
        assert compare_labels((), ()) == 0

    def test_prefix_loses(self):
        assert compare_labels(((3, 1),), ((3, 1), (0, 2))) == -1

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            compare_labels(((1, 1), (2, 1)), ())

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            compare_labels(((1, 0),), ())

    def test_rejects_duplicate_rank(self):
        with pytest.raises(ValueError):
            compare_labels(((1, 1), (1, 1)), ())

    @PROPERTY_SETTINGS
    @given(label_defs(), label_defs())
    def test_antisymmetric(self, a, b):
        assert compare_labels(a, b) == -compare_labels(b, a)

    @PROPERTY_SETTINGS
    @given(label_defs(), label_defs())
    def test_equal_iff_identical(self, a, b):
        assert (compare_labels(a, b) == 0) == (a == b)

    @PROPERTY_SETTINGS
    @given(label_defs(), label_defs(), label_defs())
    def test_transitive(self, a, b, c):
        ordered = sorted([a, b, c], key=functools.cmp_to_key(compare_labels))
        assert compare_labels(ordered[0], ordered[2]) <= 0

    @PROPERTY_SETTINGS
    @given(label_defs(), label_defs())
    def test_agrees_with_tuple_order(self, a, b):
        # encoding is descending (rank, mult); plain tuple comparison must
        # realize the multiset order
        assert compare_labels(a, b) == (a > b) - (a < b)


def _stepped_ranks(g, levels):
    """Ranks of g alone at levels 0..levels, one plain round after another."""
    ranks = (0,) * g.vertex_count
    out = [ranks]
    for _ in range(levels):
        defs = [tuple(sorted(Counter(ranks[w] for w in nbrs).items(), reverse=True))
                for nbrs in g.adjacency]
        order = sorted(set(defs), key=functools.cmp_to_key(compare_labels))
        ranks = tuple(order.index(d) for d in defs)
        out.append(ranks)
    return out


class TestJointRefine:
    def test_level0_single_label(self):
        table = joint_refine(K13, P4)
        assert table.defs_at(0) == ((),)
        assert set(table.ranks_at(0, 0)) == {0}
        assert set(table.ranks_at(1, 0)) == {0}

    def test_level1_is_degree(self):
        table = joint_refine(K13, P4)
        for which, g in ((0, K13), (1, P4)):
            ranks = table.ranks_at(which, 1)
            degs = [g.degree(v) for v in range(g.vertex_count)]
            # same rank iff same degree, and rank order = degree order
            for u in range(g.vertex_count):
                for v in range(g.vertex_count):
                    assert (ranks[u] == ranks[v]) == (degs[u] == degs[v])
                    assert (ranks[u] < ranks[v]) == (degs[u] < degs[v])

    def test_k13_p4_level1_histograms(self):
        table = joint_refine(K13, P4)
        # joint degrees: 1 < 2 < 3 so ranks 0, 1, 2
        assert table.histogram(0, 1) == Counter({0: 3, 2: 1})
        assert table.histogram(1, 1) == Counter({0: 2, 1: 2})

    def test_hexagon_vs_triangles_never_split(self):
        table = joint_refine(C6, TWO_C3)
        for level in range(table.max_recorded_level + 1):
            assert set(table.ranks_at(0, level)) == set(table.ranks_at(1, level))
            assert len(set(table.ranks_at(0, level))) == 1

    def test_same_graph_identical_ranks(self):
        table = joint_refine(TA, TA)
        for level in range(table.max_recorded_level + 1):
            assert table.ranks_at(0, level) == table.ranks_at(1, level)

    def test_isolated_keeps_empty_minimal_label(self):
        g = empty_graph(2)
        table = joint_refine(g, star_graph(2))
        for level in range(1, table.max_recorded_level + 1):
            assert table.ranks_at(0, level) == (0, 0)
            assert table.defs_at(level)[0] == ()

    def test_empty_pair(self):
        table = joint_refine(empty_graph(), empty_graph())
        assert table.stabilization_level == 0
        assert table.ranks_at(0, 5) == ()

    def test_max_level_zero_stops(self):
        table = joint_refine(K13, P4, max_level=0)
        assert table.max_recorded_level == 0
        assert not table.complete
        with pytest.raises(ValueError):
            table.ranks_at(0, 1)

    def test_deep_query_answered_after_stabilization(self):
        # K1,3's numbering alternates past level 1: the center is rank 3 at
        # odd levels and rank 0 at even ones.
        table = joint_refine(K13, P4)
        assert table.complete
        assert table.max_recorded_level == 3
        assert table.ranks_at(0, 3) == (3, 0, 0, 0)
        assert table.ranks_at(0, 10 ** 6) == (0, 3, 3, 3)

    def test_negative_max_level(self):
        with pytest.raises(ValueError):
            joint_refine(K13, P4, max_level=-1)

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=8))
    def test_ranks_at_any_level_match_stepping(self, g):
        table = joint_refine(g, empty_graph())
        for level, ranks in enumerate(_stepped_ranks(g, 12)):
            assert table.ranks_at(0, level) == ranks, level

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), graphs(max_vertices=6))
    def test_refinement_property(self, g1, g2):
        table = joint_refine(g1, g2)
        for level in range(1, table.max_recorded_level + 1):
            for which, g in ((0, g1), (1, g2)):
                prev = table.ranks_at(which, level - 1)
                cur = table.ranks_at(which, level)
                classes: dict[int, int] = {}
                for v in range(g.vertex_count):
                    assert classes.setdefault(cur[v], prev[v]) == prev[v]

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), graphs(max_vertices=6))
    def test_stabilizes_within_vertex_budget(self, g1, g2):
        table = joint_refine(g1, g2)
        assert table.complete
        assert table.stabilization_level <= g1.vertex_count + g2.vertex_count

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), graphs(max_vertices=6))
    def test_defs_decode_neighbor_multisets(self, g1, g2):
        table = joint_refine(g1, g2)
        for level in range(1, table.max_recorded_level + 1):
            defs = table.defs_at(level)
            for which, g in ((0, g1), (1, g2)):
                prev = table.ranks_at(which, level - 1)
                cur = table.ranks_at(which, level)
                for v in range(g.vertex_count):
                    decoded = Counter(dict(defs[cur[v]]))
                    assert decoded == Counter(prev[w] for w in g.adjacency[v])


def _continue_refinement(table, rounds):
    """Recompute further rounds from the deepest recorded level.

    Reimplemented here on purpose: tests persistence without relying on the
    early stop inside joint_refine.
    """
    g1, g2 = table.graphs
    ranks = (
        list(table.ranks_at(0, table.max_recorded_level)),
        list(table.ranks_at(1, table.max_recorded_level)),
    )
    out = []
    for _ in range(rounds):
        defs = set()
        vertex_defs = ([], [])
        for i, g in ((0, g1), (1, g2)):
            for v in range(g.vertex_count):
                counts = Counter(ranks[i][w] for w in g.adjacency[v])
                d = tuple(sorted(counts.items(), reverse=True))
                vertex_defs[i].append(d)
                defs.add(d)
        order = sorted(defs, key=functools.cmp_to_key(compare_labels))
        rank_of = {d: r for r, d in enumerate(order)}
        ranks = (
            [rank_of[d] for d in vertex_defs[0]],
            [rank_of[d] for d in vertex_defs[1]],
        )
        out.append((Counter(ranks[0]), Counter(ranks[1])))
    return out


class TestPersistence:
    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), graphs(max_vertices=6))
    def test_histograms_frozen_two_rounds_past_stabilization(self, g1, g2):
        # the partition freezes but rank numbering may permute between
        # rounds, so compare histograms up to the joint rank bijection:
        # the multiset of (count in g1, count in g2) pairs is invariant
        def fingerprint(h1, h2):
            return sorted((h1.get(r, 0), h2.get(r, 0)) for r in set(h1) | set(h2))

        table = joint_refine(g1, g2)
        last = table.max_recorded_level
        base = fingerprint(table.histogram(0, last), table.histogram(1, last))
        for h1, h2 in _continue_refinement(table, 2):
            assert fingerprint(h1, h2) == base
            # in particular equality between the two graphs persists
            assert (h1 == h2) == (
                table.histogram(0, last) == table.histogram(1, last)
            )

    def test_hexagon_stable_at_round_zero(self):
        comp = distinguishing_level(C6, TWO_C3)
        assert comp.stabilization_level == 0


class TestDistinguishingLevel:
    def test_hexagon_vs_triangles_absent(self):
        comp = distinguishing_level(C6, TWO_C3)
        assert not comp.distinguished
        assert comp.distinguishing_level is None

    def test_k13_vs_p4(self):
        comp = distinguishing_level(K13, P4)
        assert comp.distinguishing_level == 1

    def test_level2_tree_pair(self):
        comp = distinguishing_level(TA, TB)
        assert comp.distinguishing_level == 2

    def test_histograms_agree_below_distinguishing_level(self):
        comp = distinguishing_level(TA, TB)
        for level in range(comp.distinguishing_level):
            assert comp.histogram(0, level) == comp.histogram(1, level)

    def test_size_mismatch_found_at_level0(self):
        comp = distinguishing_level(path_graph(2), path_graph(3))
        assert comp.distinguishing_level == 0

    def test_max_level_can_hide_difference(self):
        comp = distinguishing_level(TA, TB, max_level=1)
        assert not comp.distinguished
        assert comp.stabilization_level is None

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=8), st.randoms(use_true_random=False))
    def test_isomorphic_pairs_equivalent(self, g, rnd):
        perm = list(range(g.vertex_count))
        rnd.shuffle(perm)
        assert not distinguishing_level(g, permute(g, perm)).distinguished


class TestEarlyExit:
    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=8), st.data())
    def test_early_table_is_prefix_of_full_table(self, g1, data):
        # equal sizes half the time, so differences show past level 0
        if data.draw(st.booleans()):
            n = g1.vertex_count
            g2 = data.draw(graphs(max_vertices=n, min_vertices=n))
        else:
            g2 = data.draw(graphs(max_vertices=8))
        full = distinguishing_level(g1, g2)
        early = distinguishing_level(g1, g2, stop_at_difference=True)
        assert early.distinguishing_level == full.distinguishing_level
        levels = early.levels
        assert levels == full.levels[: len(levels)]
        if early.distinguished:
            assert len(levels) == early.distinguishing_level + 1
        else:
            assert levels == full.levels
        for lvl in full.levels:
            assert list(lvl.defs) == sorted(
                set(lvl.defs), key=functools.cmp_to_key(compare_labels)
            )

    def test_long_path_vs_half_paths_stops_at_level_1(self):
        # the full run takes 300 rounds to stabilize (see test_cli)
        g1 = path_graph(600)
        g2 = disjoint_union(path_graph(300), path_graph(300))
        early = distinguishing_level(g1, g2, stop_at_difference=True)
        assert early.distinguishing_level == 1
        assert len(early.levels) <= 2
        assert early.stabilization_level is None


def _oracle(g1, g2, max_level, stop_at_difference):
    comp = distinguishing_level(g1, g2, max_level, stop_at_difference)
    return comp.distinguishing_level, comp.stabilization_level


def _agrees_with_oracle(g1, g2, max_levels=(None, 0, 1, 2, 3)):
    for stop in (False, True):
        for max_level in max_levels:
            assert refine_verdict(g1, g2, max_level, stop) == _oracle(
                g1, g2, max_level, stop
            ), (stop, max_level)


def _shuffled(g, seed):
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return permute(g, perm)


def _caterpillar(spine, pendant):
    """A path on `spine` vertices with one leaf hung off position `pendant`."""
    edges = [(i, i + 1) for i in range(spine - 1)] + [(pendant, spine)]
    return Graph(spine + 1, edges)


class TestRefineVerdict:
    """The partition-only verdict against distinguishing_level as oracle."""

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=8), st.data())
    def test_matches_canonical_engine(self, g1, data):
        # equal sizes half the time, so differences show past level 0
        if data.draw(st.booleans()):
            n = g1.vertex_count
            g2 = data.draw(graphs(max_vertices=n, min_vertices=n))
        else:
            g2 = data.draw(graphs(max_vertices=8))
        _agrees_with_oracle(g1, g2)

    @pytest.mark.parametrize("g1, g2", [
        (empty_graph(), empty_graph()),
        (empty_graph(), Graph(1, [])),
        (Graph(3, []), Graph(3, [])),
        (Graph(4, [(0, 1)]), Graph(4, [(2, 3)])),
        (Graph(4, [(0, 1)]), Graph(3, [(0, 1)])),
        (K13, P4),
        (C6, TWO_C3),
        (TA, TB),
    ])
    def test_small_fixed_pairs(self, g1, g2):
        _agrees_with_oracle(g1, g2)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 121])
    def test_path_vs_permuted_copy(self, n):
        g = path_graph(n)
        _agrees_with_oracle(g, _shuffled(g, n), (None, 0, 1, 3, n // 2))
        assert refine_verdict(g, _shuffled(g, n)) == (None, (n - 1) // 2)

    @pytest.mark.parametrize("n", [4, 9, 40, 121])
    def test_path_vs_half_paths(self, n):
        g1 = path_graph(n)
        g2 = _shuffled(disjoint_union(path_graph(n // 2), path_graph(n - n // 2)), n)
        _agrees_with_oracle(g1, g2, (None, 0, 1, 3, n // 2))

    @pytest.mark.parametrize("level", range(5, 12))
    def test_caterpillar_pendant_moved_by_one(self, level):
        # a pendant at p vs p + 1 on a long spine first differs at (p + 3) // 2
        p = 2 * level - 3
        spine = 2 * p + 4 + level % 4
        g1 = _shuffled(_caterpillar(spine, p), level)
        g2 = _shuffled(_caterpillar(spine, p + 1), -level)
        _agrees_with_oracle(g1, g2, (None, 0, level - 1, level, level + 1))
        assert refine_verdict(g1, g2, stop_at_difference=True) == (level, None)

    def test_negative_max_level(self):
        with pytest.raises(ValueError):
            refine_verdict(K13, P4, max_level=-1)

    def test_long_path_vs_permuted_copy_is_fast(self):
        # The canonical engine re-signs all 4000 vertices in each of the
        # 1000 rounds; this pair must not take seconds.
        g = path_graph(2000)
        h = _shuffled(g, 2000)
        start = time.perf_counter()
        assert refine_verdict(g, h) == (None, 999)
        assert verify(Certificate(mode="equivalent"), g, h)
        assert time.perf_counter() - start < 2.0
