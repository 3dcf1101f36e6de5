"""Label refinement: the order, the levels, and the comparison verdicts."""

from __future__ import annotations

import functools
import math
import random
import time
from collections import Counter
from itertools import combinations, groupby

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wlhom import (
    Certificate,
    Graph,
    InconclusiveError,
    certificate_to_json,
    distinguishing_level,
    joint_refine,
    empty_graph,
    lift,
    path_graph,
    permute,
    refine_verdict,
    serialize_graph,
    synthesize,
    verify,
)
from wlhom import synth, wl
from wlhom.cli import main

from .conftest import (
    C6,
    K13,
    P4,
    PROPERTY_SETTINGS,
    TA,
    TB,
    TWO_C3,
    caterpillar,
    caterpillar_pair,
    cycle_graph,
    degree,
    disjoint_union,
    early_table,
    graphs,
    label_defs,
    replay_to_difference,
    shuffled,
    star_graph,
    tuple_rounds,
)


# The label order's specification, kept here as the oracle that plain tuple
# order must realize. The oracle reads a label as its (rank, mult) pairs
# sorted by rank descending; wl stores the ranks with repeats, descending.
PairLabel = tuple[tuple[int, int], ...]


def _validate_label(label: PairLabel) -> None:
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


def compare_labels(l1: PairLabel, l2: PairLabel) -> int:
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
        # plain tuple comparison must realize the multiset order on the
        # descending (rank, mult) pairs and on the flat descending ranks
        # wl stores
        assert compare_labels(a, b) == (a > b) - (a < b)
        fa, fb = (tuple(r for r, k in label for _ in range(k)) for label in (a, b))
        assert compare_labels(a, b) == (fa > fb) - (fa < fb)


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
        assert table.levels[0].classes == 1
        assert set(table.ranks_at(0, 0)) == {0}
        assert set(table.ranks_at(1, 0)) == {0}

    def test_level1_is_degree(self):
        table = joint_refine(K13, P4)
        for which, g in ((0, K13), (1, P4)):
            ranks = table.ranks_at(which, 1)
            degs = [degree(g, v) for v in range(g.vertex_count)]
            # same rank iff same degree, and rank order = degree order
            for u in range(g.vertex_count):
                for v in range(g.vertex_count):
                    assert (ranks[u] == ranks[v]) == (degs[u] == degs[v])
                    assert (ranks[u] < ranks[v]) == (degs[u] < degs[v])

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=8), graphs(max_vertices=8))
    @example(empty_graph(), empty_graph())
    @example(empty_graph(3), empty_graph(2))
    @example(C6, TWO_C3)
    @example(C6, empty_graph(6))
    def test_degree_level_is_the_round_after_level_zero(self, g1, g2):
        # Level 1 is the generic round on the one level-0 class, keyed by
        # labels (bound 0) and packed (bound 10 ** 9): both keys rank the
        # degrees as the oracle's round does. An empty pair is stable at
        # level 0, where its table stops.
        levels = 1 if g1.vertex_count + g2.vertex_count else 0
        expected = [wl.LevelLabels(ranks, len(defs))
                    for defs, ranks in tuple_rounds(g1, g2, levels)]
        for bound in (0, 10 ** 9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(wl, "PACKED_KEY_BITS", bound)
                table = joint_refine(g1, g2, max_level=1)
            assert table.levels == expected

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
        oracle = tuple_rounds(g, star_graph(2), table.max_recorded_level)
        for level in range(1, table.max_recorded_level + 1):
            assert table.ranks_at(0, level) == (0, 0)
            assert oracle[level][0][0] == ()

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
        with pytest.raises(ValueError):
            table.ranks_at(0, -1)

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
    @given(graphs(max_vertices=8), graphs(max_vertices=8))
    @example(K13, empty_graph())
    @example(K13, P4)
    def test_ranks_at_any_level_match_stepping(self, g1, g2):
        # The joint numbering is the numbering of the disjoint union, cut
        # at |V1|, at recorded levels and past stabilization alike.
        table = joint_refine(g1, g2)
        n1 = g1.vertex_count
        for level, ranks in enumerate(_stepped_ranks(disjoint_union(g1, g2), 12)):
            assert table.ranks_at(0, level) == ranks[:n1], level
            assert table.ranks_at(1, level) == ranks[n1:], level

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
        oracle = tuple_rounds(g1, g2, table.max_recorded_level)
        for level in range(1, table.max_recorded_level + 1):
            defs = oracle[level][0]
            for which, g in ((0, g1), (1, g2)):
                prev = table.ranks_at(which, level - 1)
                cur = table.ranks_at(which, level)
                for v in range(g.vertex_count):
                    assert defs[cur[v]] == tuple(
                        sorted((prev[w] for w in g.adjacency[v]), reverse=True))


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
        with pytest.MonkeyPatch.context() as mp:
            dense = _count_dense_rounds(mp)
            k, _, levels = replay_to_difference(g1, g2)
        assert k == full.distinguishing_level
        _induce_canonical_partitions(dense, full)
        _matches_contract(g1, g2, k, levels)
        for defs, _ in tuple_rounds(g1, g2, full.max_recorded_level):
            # the oracle reads the (rank, mult) pairs of each label
            pairs = [tuple((r, len(list(run))) for r, run in groupby(label))
                     for label in defs]
            assert pairs == sorted(
                set(pairs), key=functools.cmp_to_key(compare_labels)
            )

    def test_long_path_vs_half_paths_stops_at_level_1(self):
        # the full run takes 300 rounds to stabilize (see test_cli)
        g1 = path_graph(600)
        g2 = disjoint_union(path_graph(300), path_graph(300))
        with pytest.MonkeyPatch.context() as mp:
            dense = _count_dense_rounds(mp)
            k, stable, levels = replay_to_difference(g1, g2)
        assert k == 1
        assert len(dense) <= 1 and len(levels) == 1
        assert stable is None


def _oracle(g1, g2, max_level, stop_at_difference):
    comp = distinguishing_level(g1, g2, max_level)
    # stopping at the first difference leaves the stabilization unknown
    if stop_at_difference and comp.distinguished:
        return comp.distinguishing_level, None
    return comp.distinguishing_level, comp.stabilization_level


def _count_dense_rounds(mp):
    """The class ids of each level a dense round of wl._refine computes,
    one per round, while `mp` (a pytest MonkeyPatch) holds its patch on
    the driver's two bindings, wl's and the one synthesize calls."""
    dense = []
    refine = wl._refine

    def counted(*args):
        out = refine(*args)
        dense.extend(out[2])
        return out

    for module in (wl, synth):
        mp.setattr(module, "_refine", counted)
    return dense


def _agrees_with_oracle(g1, g2, max_levels=(None, 0, 1, 2, 3)):
    for stop in (False, True):
        for max_level in max_levels:
            assert refine_verdict(g1, g2, max_level, stop) == _oracle(
                g1, g2, max_level, stop
            ), (stop, max_level)
    # synthesize's entry: refine_verdict's verdict after as many dense
    # levels, one hand-over rule serving both, dense levels that induce the
    # partitions of the early-stopping table up to the hand-over, and on a
    # distinguished pair levels up to the difference that meet the contract.
    for max_level in max_levels:
        with pytest.MonkeyPatch.context() as mp:
            dense = _count_dense_rounds(mp)
            k, stable, levels = replay_to_difference(g1, g2, max_level)
            to_difference = len(dense)
            verdict = refine_verdict(g1, g2, max_level, True)
        assert len(dense) == 2 * to_difference, max_level
        assert verdict == (k, stable), max_level
        _induce_canonical_partitions(dense[:to_difference],
                                     early_table(g1, g2, max_level))
        _matches_contract(g1, g2, k, levels)


def _same_partition(ids, ranks):
    """The ids, 0 .. C - 1 for C classes, induce the partition of ranks."""
    rank_of = dict(zip(ids, ranks))
    assert tuple(map(rank_of.__getitem__, ids)) == tuple(ranks)
    assert sorted(rank_of) == list(range(len(set(ranks))))
    assert len(set(rank_of.values())) == len(rank_of)


def _induce_canonical_partitions(dense, table):
    """Dense levels 1, 2, ... induce the partitions of the table's."""
    assert len(dense) <= table.max_recorded_level
    for ids, level in zip(dense, table.levels[1:]):
        _same_partition(ids, level.ranks)


def _matches_contract(g1, g2, k, levels):
    """replay_to_difference's levels against the tuple oracle: levels 1..k
    on a pair first differing at k, else none; at each, the ids, 0 .. C - 1
    for C classes, induce the oracle's partition."""
    assert len(levels) == (k or 0)
    for ids, (_, ranks) in zip(levels, tuple_rounds(g1, g2, k or 0)[1:]):
        _same_partition(ids, ranks)


def _with_hub(g):
    """g with one more vertex, joined to all of g's."""
    n = g.vertex_count
    return Graph(n + 1, [*g.edges, *((v, n) for v in range(n))])


def _fan(n):
    """The fan F_n: a path on n vertices and a hub joined to all of them."""
    return _with_hub(path_graph(n))


def _wheel(n):
    """The wheel W_n: a cycle on n vertices and a hub joined to all of them."""
    return _with_hub(cycle_graph(n))


def _star_of_paths(legs, length):
    """A hub joined to one end of each of `legs` paths on `length` vertices."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges += [(0, first)] + [(v, v + 1) for v in range(first, first + length - 1)]
    return Graph(1 + legs * length, edges)


def _one_swap(g, rng):
    """g after one degree-preserving double-edge swap drawn with rng, with its
    vertices shuffled; g itself, shuffled, when no swap applies."""
    edges = sorted(g.edges)
    rng.shuffle(edges)
    present, swapped = set(edges), edges
    for (a, b), (c, d) in combinations(edges, 2):
        new = [tuple(sorted(e)) for e in ((a, d), (c, b))]
        if len({a, b, c, d}) == 4 and not present.intersection(new):
            swapped = [e for e in edges if e not in ((a, b), (c, d))] + new
            break
    return shuffled(Graph(g.vertex_count, swapped), rng.random())


@st.composite
def graph_pairs(draw):
    """Two graphs on up to 8 vertices, of equal sizes half the time, so
    differences show past level 0."""
    g1 = draw(graphs(max_vertices=8))
    if draw(st.booleans()):
        n = g1.vertex_count
        return g1, draw(graphs(max_vertices=n, min_vertices=n))
    return g1, draw(graphs(max_vertices=8))


class TestRefineVerdict:
    """The partition-only verdicts against distinguishing_level as oracle."""

    @PROPERTY_SETTINGS
    @given(graph_pairs())
    def test_matches_canonical_engine(self, pair):
        _agrees_with_oracle(*pair)

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
        _agrees_with_oracle(g, shuffled(g, n), (None, 0, 1, 3, n // 2))
        assert refine_verdict(g, shuffled(g, n)) == (None, (n - 1) // 2)

    @pytest.mark.parametrize("n", [4, 9, 40, 121])
    def test_path_vs_half_paths(self, n):
        g1 = path_graph(n)
        g2 = shuffled(disjoint_union(path_graph(n // 2), path_graph(n - n // 2)), n)
        _agrees_with_oracle(g1, g2, (None, 0, 1, 3, n // 2))

    @pytest.mark.parametrize("level", range(5, 12))
    def test_caterpillar_pendant_moved_by_one(self, level):
        # a pendant at p vs p + 1 on a long spine first differs at (p + 3) // 2
        g1, g2 = caterpillar_pair(level)
        _agrees_with_oracle(g1, g2, (None, 0, level - 1, level, level + 1))
        assert refine_verdict(g1, g2, stop_at_difference=True) == (level, None)

    @pytest.mark.parametrize("g1, g2", [
        (path_graph(40), path_graph(41)),
        (path_graph(41), shuffled(path_graph(40), 40)),
        (caterpillar_pair(7)[0], disjoint_union(caterpillar_pair(7)[1], Graph(1, []))),
        (disjoint_union(caterpillar_pair(7)[0], Graph(1, [])), caterpillar_pair(7)[1]),
    ])
    def test_unequal_sides_after_hand_over(self, g1, g2):
        # Sides of unequal size differ at level 0; refining on to
        # stabilization hands over after level 1, and the worklist reads
        # g2's rows with its vertices numbered after g1's.
        assert g1.vertex_count != g2.vertex_count
        for max_level in (2, 5, None):
            with pytest.MonkeyPatch.context() as mp:
                dense = _count_dense_rounds(mp)
                verdict = refine_verdict(g1, g2, max_level, stop_at_difference=False)
            assert verdict == _oracle(g1, g2, max_level, False), max_level
            assert len(dense) == 1
        assert verdict[0] == 0 and verdict[1] > 5

    def test_negative_max_level(self):
        with pytest.raises(ValueError):
            refine_verdict(K13, P4, max_level=-1)

    def test_worklist_builds_no_gathers(self):
        # Level 1 moves only the path ends, so the first hand-over is sparse
        # and no canonical round reads a gather.
        g1, g2 = path_graph(40), shuffled(path_graph(40), 40)
        assert refine_verdict(g1, g2) == (None, 19)
        assert g1._gathers is None and g2._gathers is None

    def test_long_path_vs_permuted_copy_is_fast(self):
        # The canonical engine re-signs all 4000 vertices in each of the
        # 1000 rounds; this pair must not take seconds.
        g = path_graph(2000)
        h = shuffled(g, 2000)
        start = time.perf_counter()
        assert refine_verdict(g, h) == (None, 999)
        assert verify(Certificate(), g, h)
        assert time.perf_counter() - start < 2.0


# Fans, wheels and stars of paths: shapes with a hub.
HUB_SHAPES = [
    *(pytest.param(_fan(n), id=f"fan-{n}") for n in (5, 40, 121)),
    *(pytest.param(_wheel(n), id=f"wheel-{n}") for n in (5, 40, 121)),
    *(pytest.param(_star_of_paths(legs, length), id=f"star-{legs}x{length}")
      for legs, length in ((3, 13), (5, 20), (2, 40))),
]


class TestHubs:
    """A hub next to a long path is touched in every worklist round, whose
    signature counts only moved neighbors and so rests on each class's
    shared neighbor multiset."""

    @pytest.mark.parametrize("g", HUB_SHAPES)
    def test_against_permuted_and_swapped_copies(self, g):
        levels = (None, 0, 1, 2, 3, g.vertex_count // 4)
        _agrees_with_oracle(g, shuffled(g, g.vertex_count), levels)
        _agrees_with_oracle(g, _one_swap(g, random.Random(g.vertex_count)), levels)

    @PROPERTY_SETTINGS
    @given(graph_pairs())
    def test_universal_vertex_added(self, pair):
        _agrees_with_oracle(*map(_with_hub, pair))

    def test_distinguished_hub_pair_certificate(self, dense_rounds):
        # Caterpillars with a pendant at 9 and at 10 on a 26-vertex spine,
        # each with a hub: the worklist runs from level 1 to the first
        # difference, and the certificate's levels are read from it.
        g1 = shuffled(_with_hub(caterpillar(26, 9)), 1)
        g2 = shuffled(_with_hub(caterpillar(26, 10)), 2)
        cert = synthesize(g1, g2)
        assert len(dense_rounds) == 1
        assert cert.mode == "tree"
        assert cert.level == distinguishing_level(g1, g2).distinguishing_level > 2
        assert verify(cert, g1, g2)

    def test_fan_refines_in_quasilinear_neighbor_reads(self, monkeypatch):
        # Signing the hub of F_2000 by all of its neighbors in each of the
        # worklist's 999 rounds reads about V^2 / 2 entries. Counted: the
        # entries of both graphs' adjacency rows the worklist reads by
        # index (dense rounds only iterate over the rows), and the entries
        # of the class ids it reads.
        reads = [0]

        class Adjacency(tuple):
            def __getitem__(self, u):
                nbrs = super().__getitem__(u)
                reads[0] += len(nbrs)
                return nbrs

        class Color(list):
            def __getitem__(self, v):
                reads[0] += 1
                return super().__getitem__(v)

        hand_over = wl._hand_over

        def counted(*args):
            start = hand_over(*args)
            if start is not None:
                color, *rest = start
                start = (Color(color), *rest)
            return start

        def counted_rows(g):
            return Graph._from_adjacency(g.vertex_count, Adjacency(g.adjacency))

        monkeypatch.setattr(wl, "_hand_over", counted)
        g = _fan(2000)
        pair = counted_rows(g), counted_rows(shuffled(g, 2000))
        assert refine_verdict(*pair) == (None, 999)
        vertices, edges = 2 * g.vertex_count, 2 * g.edge_count
        assert 0 < reads[0] <= 2 * (vertices + edges) * math.log2(vertices)


@pytest.fixture
def dense_rounds(monkeypatch):
    """The class ids of each level a dense round computes, from here on."""
    return _count_dense_rounds(monkeypatch)


class TestRefineToDifference:
    """Dense rounds while they move more than half of the vertices, then
    the worklist."""

    @pytest.mark.parametrize("level", range(5, 12))
    def test_caterpillar_relabels_after_hand_over(self, level, dense_rounds):
        g1, g2 = caterpillar_pair(level)
        k, _, levels = replay_to_difference(g1, g2)
        # Round 1 moves only the leaves and the branch vertices, so the ids
        # of levels 2..level are the worklist's.
        assert len(dense_rounds) == 1
        assert k == level
        _induce_canonical_partitions(dense_rounds, early_table(g1, g2))
        _matches_contract(g1, g2, k, levels)

    def test_negative_max_level(self):
        with pytest.raises(ValueError):
            synthesize(K13, P4, max_level=-1)

    def test_capped_synthesize_after_hand_over(self, dense_rounds):
        g = path_graph(40)
        with pytest.raises(InconclusiveError):
            synthesize(g, shuffled(g, 40), max_level=5)
        assert len(dense_rounds) == 1

    def test_long_path_vs_permuted_copy_synthesizes_in_few_rounds(
        self, dense_rounds
    ):
        # Dense rounds to stabilization would make about 1000 levels.
        g = path_graph(2000)
        h = shuffled(g, 2000)
        cert = synthesize(g, h)
        assert len(dense_rounds) <= 2
        assert cert == Certificate()
        assert verify(cert, g, h)


def _gnp_and_swap(n, p, rng):
    """G(n, p) drawn with rng, and its _one_swap image."""
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
    return g, _one_swap(g, rng)


@st.composite
def dense_pairs(draw):
    """Dense G(n, p) pairs, n <= 40: a graph and its swap, or two graphs
    drawn alike, which mostly differ at level 1 and so leave unbalanced
    classes for compare --json to refine past the first difference."""
    n = draw(st.integers(2, 40))
    p = draw(st.sampled_from((0.2, 0.35, 0.5, 0.65)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g1, g2 = _gnp_and_swap(n, p, rng)
    if draw(st.booleans()):
        g2 = _gnp_and_swap(n, p, rng)[0]
    return g1, g2


class TestDenseRounds:
    """Both verdict paths lead with dense rounds."""

    @PROPERTY_SETTINGS
    @given(dense_pairs())
    def test_dense_pairs_match_oracle(self, pair):
        _agrees_with_oracle(*pair)

    @pytest.mark.parametrize("stop", [True, False])
    def test_swap_pair_takes_two_canonical_levels(self, stop, dense_rounds):
        # Degrees of G(40, 0.3) spread over many classes, so rounds 1 and 2
        # each move more than half of the vertices.
        g1, g2 = _gnp_and_swap(40, 0.3, random.Random(3))
        verdict = refine_verdict(g1, g2, stop_at_difference=stop)
        assert len(dense_rounds) >= 2
        assert verdict == _oracle(g1, g2, None, stop)


def _star_order(a, b):
    """(a < b, a == b) in the order of one packed round: the labels held by
    the centers of two stars whose leaves have previous ranks with
    multiplicities a[r] and b[r], ranked with the packing bound lifted."""
    leaves = [[r for r, c in enumerate(counts) for _ in range(c)] for counts in (a, b)]
    # Vertices 0 and 1 are the centers, then come a's leaves and b's.
    edges = [(0, 2 + i) for i in range(len(leaves[0]))]
    edges += [(1, 2 + len(leaves[0]) + i) for i in range(len(leaves[1]))]
    g = Graph(2 + len(edges), edges)
    prev = (0, 0, *leaves[0], *leaves[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl, "PACKED_KEY_BITS", 10 ** 9)
        kinds = _key_kinds(mp)
        level = wl._intern(wl._keys((g, empty_graph()), prev, len(a)))
    assert kinds == [int]
    ka, kb = level.ranks[:2]
    return ka < kb, ka == kb


def _descending_label(counts):
    return tuple(r for r in reversed(range(len(counts))) for _ in range(counts[r]))


def _key_kinds(mp):
    """The type of the first key each _keys call returns while `mp` holds
    its patch: int for a packed round, tuple for a round keyed by labels.
    joint_refine's level 1 is a _keys round; _refine's is read off the
    degrees and calls no _keys."""
    kinds = []
    keys_of = wl._keys

    def recorded(*args):
        keys = keys_of(*args)
        kinds.extend(type(key) for key in keys[:1])
        return keys

    mp.setattr(wl, "_keys", recorded)
    return kinds


class TestPackedRounds:
    """A round keys a vertex by its count vector packed into one integer,
    or by its label past PACKED_KEY_BITS; a canonical level records its
    ranks and class count. The dense levels and replay_to_difference's ids
    induce each level's partition, whatever the rounds keyed by."""

    @staticmethod
    def _matches_oracle(g1, g2, bound):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wl, "PACKED_KEY_BITS", bound)
            k, _, levels = replay_to_difference(g1, g2)
            table = joint_refine(g1, g2)
            dense = wl._refine(g1, g2, None, False)[2]
        oracle = tuple_rounds(g1, g2, table.max_recorded_level)
        for level, (defs, ranks) in enumerate(oracle):
            assert table.levels[level].ranks == ranks, level
            assert table.levels[level].classes == len(defs), level
        _induce_canonical_partitions(dense, table)
        _matches_contract(g1, g2, k, levels)

    # 0 sends every unlabeled round with an edge to the tuple branch,
    # 10 ** 9 every one to the packed branch.
    @pytest.mark.parametrize("bound", [0, 10 ** 9])
    @PROPERTY_SETTINGS
    @given(graph_pairs())
    @example((empty_graph(), empty_graph()))
    @example((K13, P4))
    @example((TA, TB))
    def test_levels_match_the_tuple_oracle(self, bound, pair):
        self._matches_oracle(*pair, bound)

    @pytest.mark.parametrize("bound", [0, 10 ** 9])
    @pytest.mark.parametrize("level", [5, 8])
    def test_replayed_levels_match_the_tuple_oracle(self, bound, level):
        self._matches_oracle(*caterpillar_pair(level), bound)

    @pytest.mark.parametrize("bound", [0, 10 ** 9])
    @pytest.mark.parametrize("g", HUB_SHAPES)
    def test_hub_levels_match_the_tuple_oracle(self, bound, g):
        self._matches_oracle(g, shuffled(g, g.vertex_count), bound)
        self._matches_oracle(g, _one_swap(g, random.Random(g.vertex_count)), bound)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_packed_order_is_descending_tuple_order(self, data):
        # The order lemma: over R ranks with every multiplicity below
        # 2 ** width, which the largest degree sets, the packed keys order as
        # the labels' descending tuples.
        rank_count = data.draw(st.integers(1, 6))
        counts = st.lists(st.integers(0, 5), min_size=rank_count, max_size=rank_count)
        a, b = data.draw(counts), data.draw(counts)
        ta, tb = _descending_label(a), _descending_label(b)
        assert _star_order(a, b) == (ta < tb, ta == tb)

    @pytest.mark.parametrize("a, b", [
        ((0, 0, 0), (1, 0, 0)),  # the empty multiset is below every label
        ((0, 0, 0), (0, 0, 3)),
        ((0, 1, 1), (1, 1, 1)),  # (2, 1) is a prefix of (2, 1, 0)
        ((0, 3, 1), (1, 3, 1)),  # (2, 1, 1, 1) is a prefix of (2, 1, 1, 1, 0)
        ((3, 3, 0), (0, 0, 1)),  # one higher rank beats any lower counts
    ])
    def test_packed_order_on_named_cases(self, a, b):
        assert _descending_label(a) < _descending_label(b)
        assert _star_order(a, b) == (True, False)

    @staticmethod
    def _forbid(mp, *names):
        def forbidden(*args):
            raise AssertionError("a label was read")

        for name in names:
            mp.setattr(*name, forbidden)

    @PROPERTY_SETTINGS
    @given(graph_pairs())
    @example((TA, TB))
    @example(caterpillar_pair(5))
    def test_refine_verdict_builds_no_label(self, pair):
        # Keys of graphs this small fit the bound, so every round packs, and
        # none is keyed by labels.
        with pytest.MonkeyPatch.context() as mp:
            kinds = _key_kinds(mp)
            for stop in (False, True):
                refine_verdict(*pair, stop_at_difference=stop)
            # a claim of equivalence is checked by refine_verdict too
            verify(Certificate(), *pair)
        assert tuple not in kinds

    def test_compare_reads_no_label(self, monkeypatch, tmp_path, capsys):
        g1, g2 = _gnp_and_swap(60, 0.2, random.Random(7))
        for name, g in (("a", g1), ("b", g2)):
            (tmp_path / name).write_text(
                f"{g.vertex_count} {g.edge_count}\n"
                + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)), encoding="utf-8")
        # compare refines with refine_verdict alone, never through
        # synthesize's binding of the driver, and never lifts
        self._forbid(monkeypatch, (synth, "_refine"), (synth, "lift"))
        for flags in ([], ["--json"]):
            assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b"), *flags]) == 0
        capsys.readouterr()

    @PROPERTY_SETTINGS
    @given(graph_pairs())
    @example((TA, TB))
    @example(caterpillar_pair(8))
    def test_synthesize_reads_only_kept_labels(self, pair):
        # synthesize runs the driver once and lifts on exactly the class
        # ids of its record past level 1, whose counts are the degrees, as
        # replay_to_difference reads them, and no round it runs is keyed by
        # labels. A lift gets one list that changes between levels, so each
        # level is recorded as a copy.
        handed, refined, lifted = replay_to_difference(*pair)[2], [], []

        def recorded_refine(*args):
            refined.append(args)
            return wl._refine(*args)

        def recorded_lift(pair, ids, *args):
            lifted.append(list(ids))
            return lift(pair, ids, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synth, "_refine", recorded_refine)
            mp.setattr(synth, "lift", recorded_lift)
            kinds = _key_kinds(mp)
            cert = synthesize(*pair)
        assert refined == [(*pair, None, True)]
        assert lifted == handed[1:]
        assert tuple not in kinds
        assert verify(cert, *pair)

    def test_wide_round_takes_the_tuple_branch(self, monkeypatch):
        # A swap-sized G(n, p) against a permuted copy: level 1 has few
        # classes and level 2 hundreds, so round 2 is packed and round 3,
        # whose keys would be R * width bits wide, sorts tuples.
        rng = random.Random(11)
        g = Graph(400, [e for e in combinations(range(400), 2) if rng.random() < 8 / 399])
        h = shuffled(g, 12)
        kinds = _key_kinds(monkeypatch)
        table = joint_refine(g, h, max_level=3)
        # levels 1 and 2 packed, level 3 by label
        assert kinds == [int, int, tuple]
        width = max(map(len, g.adjacency)).bit_length()
        assert table.levels[1].classes * width <= wl.PACKED_KEY_BITS
        assert table.levels[2].classes * width > wl.PACKED_KEY_BITS
        monkeypatch.undo()
        assert [level.ranks for level in table.levels] == [
            ranks for _, ranks in tuple_rounds(g, h, 3)]


def _canonical_order_used(*args, **kwargs):
    raise AssertionError("the canonical order was used")


class TestVerdictBoundary:
    """The canonical order serves joint_refine and `wlhom labels` alone:
    with LabelTable, LevelLabels and _intern made to raise, every verdict
    path gives the answers it gives with them."""

    @pytest.mark.parametrize("pair", [
        pytest.param((K13, P4), id="k13-p4"),
        pytest.param((TA, TB), id="ta-tb"),
        pytest.param(caterpillar_pair(8), id="caterpillar-8"),
        pytest.param(_gnp_and_swap(40, 0.3, random.Random(3)), id="gnp-40-swap"),
    ])
    def test_verdict_paths_build_no_canonical_level(self, pair, tmp_path, capsys):
        g1, g2 = pair
        paths = []
        for name, g in zip("ab", pair):
            (tmp_path / name).write_text(serialize_graph(g), encoding="utf-8")
            paths.append(str(tmp_path / name))

        def answers():
            verdicts = [refine_verdict(g1, g2, max_level, stop)
                        for max_level in (None, 0, 1, 2, 3) for stop in (False, True)]
            to_difference = replay_to_difference(g1, g2)
            cert = synthesize(g1, g2)
            equivalent = verify(Certificate(), g1, g2)
            compared = []
            for flags in ([], ["--json"]):
                status = main(["compare", *paths, *flags])
                compared.append((status, capsys.readouterr().out))
            return verdicts, to_difference, certificate_to_json(cert), equivalent, compared

        expected = answers()
        oracle = [_oracle(g1, g2, max_level, stop)
                  for max_level in (None, 0, 1, 2, 3) for stop in (False, True)]
        assert expected[0] == oracle
        with pytest.MonkeyPatch.context() as mp:
            for name in ("LabelTable", "LevelLabels", "_intern"):
                mp.setattr(wl, name, _canonical_order_used)
            got = answers()
            with pytest.raises(AssertionError, match="canonical order"):
                joint_refine(g1, g2)
            with pytest.raises(AssertionError, match="canonical order"):
                main(["labels", paths[0]])
        assert got == expected
        k, _, levels = got[1]
        _matches_contract(g1, g2, k, levels)
        assert verify(synthesize(g1, g2), g1, g2) and not got[3]
        assert got[4][0] == (0, f"distinguished at level {k}\n")
