"""Synthesis of distinguishing trees, certificates, and verification."""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wlhom import (
    Certificate,
    CertificateError,
    Graph,
    InconclusiveError,
    SynthesisInvariantError,
    TreeArena,
    base_family,
    certificate_from_json,
    certificate_to_json,
    distinguishing_level,
    empty_graph,
    hom_by_label,
    hom_count,
    joint_refine,
    lift,
    parse_tree,
    path_graph,
    permute,
    rooted_hom,
    serialize_graph,
    serialize_tree,
    synthesize,
    verify,
)
from wlhom import synth as synth_module
from wlhom.cli import main
from wlhom.wl import LabelTable, LevelLabels

from .conftest import (
    C3,
    C6,
    K2,
    K13,
    P4,
    PROPERTY_SETTINGS,
    TA,
    TB,
    TWO_C3,
    cycle_graph,
    disjoint_union,
    force_labels,
    graphs,
    isolated_vertices,
    star_graph,
)


class TestBaseFamily:
    def test_n1_is_single_edge(self):
        arena = TreeArena()
        t = base_family(arena, 1)
        assert arena.depth(t) == 1
        assert arena.explicit_size(t) == 2

    def test_rooted_count_is_degree_power(self):
        arena = TreeArena()
        assert rooted_hom(arena, base_family(arena, 2), K13)[0] == 9
        assert rooted_hom(arena, base_family(arena, 5), C6)[0] == 32

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            base_family(TreeArena(), 0)


def _nonisolated_ranks(table, level):
    out = set()
    for which in (0, 1):
        isolated = isolated_vertices(table.graphs[which])
        ranks = table.ranks_at(which, level)
        out |= {ranks[v] for v in range(len(ranks)) if v not in isolated}
    return sorted(out)


def _chain(arena, mults):
    """Leaf under roots repeating their one child mults[0], mults[1], ... times."""
    t = arena.leaf()
    for mult in mults:
        t = arena.attach([(t, mult)])
    return t


def _joint_counts(arena, t, labels, level):
    """Rank -> rooted count of t over both graphs, from the graph DP.

    A rank's count must be the same in both graphs.
    """
    merged = {}
    for which in (0, 1):
        for rank, count in hom_by_label(arena, t, labels, which, level).items():
            assert merged.setdefault(rank, count) == count, rank
    return merged


def _chain_counts(labels, level, mults):
    """Rooted counts by level-`level` rank of the chain, from the graph DP."""
    arena = TreeArena()
    return _joint_counts(arena, _chain(arena, mults), labels, level)


def _degrees(labels):
    """Level-1 counts of the one-leaf star, indexed by rank."""
    by_rank = _chain_counts(labels, 1, (1,))
    return [by_rank[r] for r in range(len(by_rank))]


class TestLift:
    def test_k13_p4_level2(self):
        # least m making the counts of all non-isolated level-2 ranks of the
        # joint K1,3 / P4 labeling distinct; frozen after exact
        # computation: m = 2
        table = joint_refine(K13, P4)
        m, counts = lift(table, 2, _degrees(table), _nonisolated_ranks(table, 2))
        assert m == 2
        assert dict(enumerate(counts)) == _chain_counts(table, 2, (2, 1))

    def test_single_rank_vacuous(self):
        # one non-isolated rank at level 2: its count is trivially
        # distinct, so m = 1
        g = disjoint_union(cycle_graph(3), empty_graph(1))
        table = joint_refine(g, g)
        s = _nonisolated_ranks(table, 2)
        assert len(s) == 1
        m, _ = lift(table, 2, _degrees(table), s)
        assert m == 1

    def test_multiplicity_only_pair_separates_at_m1(self):
        # within the T_A / T_B joint labels, the two level-2 labels whose
        # defs differ only in the multiplicity of the top level-1 rank
        # (neighbor-degree multisets {2,1,1} vs {2,2,1}) already have
        # distinct counts under H_1
        table = joint_refine(TA, TB)
        defs = table.defs_at(2)
        pair = [r for r in _nonisolated_ranks(table, 2)
                if dict(defs[r]).get(1) in (1, 2)
                and sum(m for _, m in defs[r]) == 3]
        assert len(pair) == 2
        m, _ = lift(table, 2, _degrees(table), pair)
        assert m == 1

    def test_rejects_empty_rank_set(self):
        table = joint_refine(K13, P4)
        with pytest.raises(ValueError):
            lift(table, 2, _degrees(table), [])

    def test_shared_definition_stops_at_the_descartes_bound(self):
        # ranks 0 and 1 share a definition, so their counts agree at every
        # m; the search gives up at 1 + (|S| - 1) * sum of |defs[r]| over
        # S = 1 + 2 * (3 + 3 + 1) = 15 candidates
        label = ((0, 1), (1, 2), (2, 3))
        level0 = LevelLabels(defs=((),), ranks=((0, 0), (0, 0)))
        level2 = LevelLabels(defs=(label, label, ((0, 5),)),
                             ranks=((0, 1), (0, 2)))
        table = LabelTable(graphs=(K2, K2), levels=[level0, level0, level2])
        with pytest.raises(SynthesisInvariantError, match="^no m <= 15 "):
            lift(table, 2, [1, 2, 3], [0, 1, 2])

    def test_isolated_rank_trips_invariant(self):
        g = disjoint_union(cycle_graph(3), empty_graph(1))
        table = joint_refine(g, cycle_graph(3))
        ranks = sorted(set(table.ranks_at(0, 2)))  # includes the empty label
        assert len(ranks) == 2
        with pytest.raises(SynthesisInvariantError):
            lift(table, 2, _degrees(table), ranks)


def _reference_lift(labels, level, S, lower):
    """The m-search by definition: build every H_m, count it on the graphs.

    H_m is one root over m copies of the chain `lower` chose at the levels
    below; returns m and the graph DP's counts of H_m by level-`level` rank.
    """
    for m in range(1, 10_001):
        by_rank = _chain_counts(labels, level, (*lower, m, 1))
        values = [by_rank[rank] for rank in S]
        assert min(values) >= 1
        if len(set(values)) == len(values):
            return m, by_rank
    raise AssertionError("no m <= 10000 makes the counts distinct")


@st.composite
def swapped_pairs(draw):
    """A graph and its image under one degree-preserving double-edge swap."""
    g = draw(graphs(max_vertices=7, min_vertices=4))
    edges = sorted(g.edges)
    swaps = []
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) == 4:
            for new in (((a, d), (c, b)), ((a, c), (b, d))):
                new = tuple(tuple(sorted(e)) for e in new)
                if not any(g.has_edge(*e) for e in new):
                    swaps.append(((a, b), (c, d)) + new)
    assume(swaps)
    old1, old2, new1, new2 = draw(st.sampled_from(swaps))
    kept = [e for e in edges if e not in (old1, old2)]
    return g, Graph(g.vertex_count, kept + [new1, new2])


def _first_nonisolated_difference(g1, g2):
    """Joint labels and the non-isolated ranks S of each level.

    The levels run up to the least one whose non-isolated histograms
    differ; the ranks are None when no level differs.
    """
    labels = distinguishing_level(g1, g2, stop_at_difference=True)
    ranks = {}
    for level in range(1, (labels.distinguishing_level or 0) + 1):
        hists = [{r: c for r, c in labels.histogram(which, level).items()
                  if labels.defs_at(level)[r]} for which in (0, 1)]
        ranks[level] = sorted(set(hists[0]) | set(hists[1]))
        if hists[0] != hists[1]:
            return labels, ranks
    return labels, None


class TestLiftSearch:
    # most small swaps leave the labels equal or differ at level 1
    @settings(PROPERTY_SETTINGS, suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(swapped_pairs())
    def test_matches_reference_search(self, pair):
        labels, ranks = _first_nonisolated_difference(*pair)
        assume(ranks is not None and len(ranks) >= 2)
        counts, lower = _degrees(labels), ()
        for level in range(2, len(ranks) + 1):
            m, counts = lift(labels, level, counts, ranks[level])
            ref_m, ref_counts = _reference_lift(labels, level, ranks[level], lower)
            assert m == ref_m
            assert dict(enumerate(counts)) == ref_counts
            lower += (m,)

    def test_rejected_candidates_build_nothing(self, monkeypatch):
        # A wheel over the cube and a K1,5 beside T_A / T_B, which make the
        # pair first differ at level 2. Two level-2 counts still collide at
        # m = 2: the K1,5 center's 5 * 1^2 equals 2^2 + 1^2 at a vertex
        # with neighbors of degrees 2 and 1, so two candidates are rejected
        # and m = 3. Frozen after exact computation.
        cube = [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit]
        wheel = Graph(9, cube + [(u, 8) for u in range(8)])
        g1, g2 = (disjoint_union(disjoint_union(wheel, star_graph(5)), t)
                  for t in (TA, TB))
        attaches, arenas = [], []

        class CountingArena(TreeArena):
            def __init__(self):
                super().__init__()
                arenas.append(self)

            def attach(self, children):
                attaches.append(self)
                return super().attach(children)

        monkeypatch.setattr(synth_module, "TreeArena", CountingArena)
        cert = synthesize(g1, g2)
        assert cert.m_per_level == (3,)
        assert len(arenas) == 1
        arena, root = cert.tree()
        bound = len(arena.reachable(root)) + 4 * len(cert.m_per_level)
        assert len(attaches) <= bound


class TestSynthesizeKnownPairs:
    def test_k13_vs_p4(self):
        cert = synthesize(K13, P4)
        assert cert.mode == "tree"
        assert cert.level == 1
        assert cert.m_per_level == ()
        assert cert.n_final == 2
        assert (cert.count_g1, cert.count_g2) == (12, 10)
        assert verify(cert, K13, P4)

    def test_hexagon_vs_triangles(self):
        cert = synthesize(C6, TWO_C3)
        assert cert.mode == "equivalent"
        assert cert.tree_text is None
        assert verify(cert, C6, TWO_C3)

    def test_capped_run_is_inconclusive(self):
        # level 0 neither separates K1,3 from P4 nor is stable: claiming
        # "equivalent" there would fail verify
        assert issubclass(InconclusiveError, ValueError)
        with pytest.raises(InconclusiveError):
            synthesize(K13, P4, max_level=0)
        # a cap past the difference, or past stabilization, still decides
        assert synthesize(K13, P4, max_level=1).mode == "tree"
        assert synthesize(C6, TWO_C3, max_level=1).mode == "equivalent"

    def test_triangle_plus_point_vs_triangle(self):
        g1 = disjoint_union(cycle_graph(3), empty_graph(1))
        cert = synthesize(g1, cycle_graph(3))
        assert cert.mode == "single-node"
        assert (cert.count_g1, cert.count_g2) == (4, 3)
        arena, root = cert.tree()
        assert arena.children(root) == ()
        assert verify(cert, g1, cycle_graph(3))

    def test_level2_pair(self):
        # frozen after the first oracle-checked run
        cert = synthesize(TA, TB)
        assert cert.mode == "tree"
        assert cert.level == 2
        assert cert.m_per_level == (3,)
        assert cert.n_final == 2
        assert (cert.count_g1, cert.count_g2) == (2714, 2928)
        arena, root = cert.tree()
        assert arena.depth(root) == 2
        assert verify(cert, TA, TB)

    def test_equal_sizes_with_isolated_vertex(self):
        # equal vertex counts force tree mode even though one side has an
        # isolated vertex
        g1 = disjoint_union(path_graph(2), empty_graph(1))
        cert = synthesize(g1, path_graph(3))
        assert cert.mode == "tree"
        assert cert.level == 1
        assert cert.n_final == 1
        assert (cert.count_g1, cert.count_g2) == (2, 4)
        assert verify(cert, g1, path_graph(3))

    def test_single_vertex_vs_edge(self):
        cert = synthesize(empty_graph(1), path_graph(2))
        assert cert.mode == "single-node"
        assert (cert.count_g1, cert.count_g2) == (1, 2)
        assert verify(cert, empty_graph(1), path_graph(2))

    def test_edgeless_pair_vs_edge(self):
        # same totals, all difference in isolation: tree mode with a zero
        # count on one side
        cert = synthesize(empty_graph(2), path_graph(2))
        assert cert.mode == "tree"
        assert (cert.count_g1, cert.count_g2) == (0, 2)
        assert verify(cert, empty_graph(2), path_graph(2))

    def test_empty_graphs(self):
        assert synthesize(empty_graph(), empty_graph()).mode == "equivalent"
        cert = synthesize(empty_graph(), empty_graph(1))
        assert cert.mode == "single-node"
        assert (cert.count_g1, cert.count_g2) == (0, 1)

    def test_symmetry(self):
        cert = synthesize(P4, K13)
        assert (cert.count_g1, cert.count_g2) == (10, 12)
        assert verify(cert, P4, K13)

    def test_deterministic(self):
        a = certificate_to_json(synthesize(TA, TB))
        b = certificate_to_json(synthesize(TA, TB))
        assert a == b


class TestSynthesizeProperties:
    def test_soundness_on_isomorphic_pairs(self):
        rnd = random.Random(20260823)
        for _ in range(100):
            n = rnd.randint(1, 8)
            edges = [e for e in
                     [(u, v) for u in range(n) for v in range(u + 1, n)]
                     if rnd.random() < 0.4]
            g = Graph(n, edges)
            perm = list(range(n))
            rnd.shuffle(perm)
            assert synthesize(g, permute(g, perm)).mode == "equivalent"

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), graphs(max_vertices=6))
    def test_distinguished_pairs_get_passing_certificates(self, g1, g2):
        cert = synthesize(g1, g2)
        assert verify(cert, g1, g2)
        if cert.mode == "tree":
            arena, root = cert.tree()
            assert arena.depth(root) == cert.level
            assert cert.count_g1 != cert.count_g2

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=5), graphs(max_vertices=5))
    def test_certificate_counts_are_true_counts(self, g1, g2):
        cert = synthesize(g1, g2)
        if cert.mode == "tree":
            arena, root = cert.tree()
            assert hom_count(arena, root, g1) == cert.count_g1
            assert hom_count(arena, root, g2) == cert.count_g2

    @PROPERTY_SETTINGS
    @given(st.one_of(st.tuples(graphs(max_vertices=6), graphs(max_vertices=6)),
                     swapped_pairs()))
    def test_tree_is_the_multiplicity_chain(self, pair):
        # the emitted tree is a leaf under roots that repeat their one child
        # m_2, ..., m_k and finally n times
        cert = synthesize(*pair)
        if cert.mode == "tree":
            arena = TreeArena()
            mults = (*cert.m_per_level, cert.n_final)
            assert cert.tree_text == serialize_tree(arena, _chain(arena, mults))

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=8), st.data())
    def test_mode_and_level_match_the_all_levels_search(self, g1, data):
        # equal sizes half the time, so differences show past level 0
        if data.draw(st.booleans()):
            n = g1.vertex_count
            g2 = data.draw(graphs(max_vertices=n, min_vertices=n))
        else:
            g2 = data.draw(graphs(max_vertices=8))
        labels, ranks = _first_nonisolated_difference(g1, g2)
        cert = synthesize(g1, g2)
        if ranks is not None:
            assert (cert.mode, cert.level) == ("tree", max(ranks))
        elif labels.distinguished:
            assert (cert.mode, cert.level) == ("single-node", 0)
        else:
            assert cert.mode == "equivalent"


class TestCertificateJson:
    def test_round_trip_tree_mode(self):
        cert = synthesize(TA, TB)
        text = certificate_to_json(cert)
        again = certificate_from_json(text)
        assert again == cert
        assert certificate_to_json(again) == text

    def test_round_trip_single_node(self):
        cert = synthesize(empty_graph(1), path_graph(2))
        text = certificate_to_json(cert)
        assert certificate_from_json(text) == cert
        assert certificate_to_json(certificate_from_json(text)) == text

    def test_round_trip_equivalent(self):
        cert = synthesize(C6, TWO_C3)
        text = certificate_to_json(cert)
        assert json.loads(text) == {"mode": "equivalent"}
        assert certificate_from_json(text) == cert

    def test_counts_serialized_as_decimal_strings(self):
        data = json.loads(certificate_to_json(synthesize(TA, TB)))
        assert data["count_g1"] == "2714"
        assert data["count_g2"] == "2928"

    def test_tree_field_embeds_tree_format(self):
        cert = synthesize(K13, P4)
        data = json.loads(certificate_to_json(cert))
        arena, root = parse_tree(data["tree"])
        assert arena.explicit_size(root) == 3

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.update(mode="nonsense"),
            lambda d: d.pop("mode"),
            lambda d: d.pop("count_g1"),
            lambda d: d.update(extra=1),
            lambda d: d.update(count_g1=12),
            lambda d: d.update(count_g1="012"),
            lambda d: d.update(count_g1="-5"),
            lambda d: d.update(count_g1="twelve"),
            lambda d: d.update(tree="T 1\nnode 0\nroot 0\n"),
            lambda d: d.update(level="1"),
            lambda d: d.update(level=0),
            lambda d: d.update(m_per_level=[0]),
            lambda d: d.update(m_per_level=[1, 1]),
            lambda d: d.update(n_final=0),
            lambda d: d.update(histograms=[]),
            lambda d: d.update(histograms=[{"rank": 0, "g1": 1}]),
            lambda d: d.update(histograms=[{"rank": 0, "g1": 1, "g2": -1}]),
        ],
    )
    def test_malformed_rejected(self, mangle):
        data = json.loads(certificate_to_json(synthesize(K13, P4)))
        mangle(data)
        with pytest.raises(CertificateError):
            certificate_from_json(json.dumps(data))

    @pytest.mark.parametrize("digits", [
        str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"),  # Arabic-Indic: int() reads them
        {ord("1"): "¹", ord("2"): "²"},  # superscripts: isdigit() but not int()
    ])
    def test_count_needs_ascii_digits(self, digits):
        data = json.loads(certificate_to_json(synthesize(K13, P4)))
        data["count_g1"] = data["count_g1"].translate(digits)
        with pytest.raises(CertificateError,
                           match="^count_g1 must be a nonnegative decimal string$"):
            certificate_from_json(json.dumps(data))

    def test_not_json(self):
        with pytest.raises(CertificateError):
            certificate_from_json("{")
        with pytest.raises(CertificateError):
            certificate_from_json("[1]")

    def test_deeply_nested_json_rejected(self):
        # json.loads raises RecursionError, not JSONDecodeError, past the
        # interpreter's recursion limit
        with pytest.raises(CertificateError, match="not valid JSON"):
            certificate_from_json("[" * 100_000)

    def test_single_node_requires_level_zero(self):
        cert = synthesize(empty_graph(1), path_graph(2))
        data = json.loads(certificate_to_json(cert))
        data["level"] = 1
        with pytest.raises(CertificateError):
            certificate_from_json(json.dumps(data))


class TestVerify:
    def test_tampered_count_fails(self):
        cert = synthesize(K13, P4)
        data = json.loads(certificate_to_json(cert))
        data["count_g1"] = str(int(data["count_g1"]) + 1)
        assert not verify(certificate_from_json(json.dumps(data)), K13, P4)

    def test_tampered_tree_fails(self):
        cert = synthesize(K13, P4)
        data = json.loads(certificate_to_json(cert))
        data["tree"] = "T 2\nnode 0 :\nnode 1 : 0*3\nroot 1\n"
        assert not verify(certificate_from_json(json.dumps(data)), K13, P4)

    def test_equivalent_claim_on_distinguished_pair_fails(self):
        assert not verify(Certificate(mode="equivalent"), K13, P4)

    def test_equivalent_claim_on_equivalent_pair_passes(self):
        assert verify(Certificate(mode="equivalent"), C6, TWO_C3)

    def test_single_node_wrong_counts_fail(self):
        good = synthesize(empty_graph(1), path_graph(2))
        data = json.loads(certificate_to_json(good))
        data["count_g2"] = "3"
        assert not verify(certificate_from_json(json.dumps(data)),
                          empty_graph(1), path_graph(2))

    def test_single_node_equal_counts_fail(self):
        cert = Certificate(
            mode="single-node", level=0, tree_text="T 1\nnode 0 :\nroot 0\n",
            count_g1=3, count_g2=3,
        )
        assert not verify(cert, path_graph(3), cycle_graph(3))

    def test_single_node_non_leaf_tree_fails(self):
        cert = Certificate(
            mode="single-node", level=0,
            tree_text="T 2\nnode 0 :\nnode 1 : 0*1\nroot 1\n",
            count_g1=1, count_g2=2,
        )
        assert not verify(cert, empty_graph(1), path_graph(2))

    def test_true_but_equal_counts_fail(self):
        # correct counts that do not differ prove nothing
        arena = TreeArena()
        t = base_family(arena, 1)
        g1, g2 = path_graph(3), star_graph(2)  # isomorphic
        c = hom_count(arena, t, g1)
        cert = Certificate(
            mode="tree", level=1, m_per_level=(), n_final=1,
            tree_text="T 2\nnode 0 :\nnode 1 : 0*1\nroot 1\n",
            count_g1=c, count_g2=c, histograms=((0, 2, 2),),
        )
        assert not verify(cert, g1, g2)


class TestInvariantMachinery:
    # WLHOM_LIFT_CEILING is no longer read; a stale setting must not
    # reach lift
    def test_env_ceiling_reaches_lift(self, monkeypatch):
        monkeypatch.setenv("WLHOM_LIFT_CEILING", "1")
        assert synthesize(TA, TB).mode == "tree"


class TestQuotient:
    # The count vectors synthesize keeps per level: for a chain with
    # multiplicities (a_1, ..., a_d) above a leaf, entry(rank) at level L is
    # (sum over (r, k) in defs_L[rank] of k * entry(r) at level L-1) ** a_d,
    # down to 1 at every level-(L-d) rank.
    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), graphs(max_vertices=6),
           st.lists(st.integers(1, 3), min_size=1, max_size=3))
    def test_matches_graph_dp_by_rank(self, g1, g2, mults):
        table = joint_refine(g1, g2)
        arena = TreeArena()
        t = _chain(arena, mults)
        for level in range(len(mults), table.max_recorded_level + 1):
            counts = [1] * len(table.defs_at(level - len(mults)))
            for j, mult in enumerate(mults, level - len(mults) + 1):
                counts = [sum(k * counts[r] for r, k in label) ** mult
                          for label in table.defs_at(j)]
            by_rank = _joint_counts(arena, t, table, level)
            # every rank is some vertex's rank, unless both graphs are empty
            expected = dict(enumerate(counts))
            if g1.vertex_count + g2.vertex_count == 0:
                expected = {}
            assert by_rank == expected

    @pytest.mark.parametrize("g1, g2, m_per_level", [(TA, TB, (3,)), (K13, P4, ())])
    def test_graph_dp_covers_only_the_emitted_tree(self, monkeypatch, g1, g2,
                                                   m_per_level):
        calls = []

        def counting_rooted_hom(arena, t, graph):
            calls.append((serialize_tree(arena, t), graph))
            return rooted_hom(arena, t, graph)

        monkeypatch.setattr(synth_module, "rooted_hom", counting_rooted_hom)
        cert = synthesize(g1, g2)
        assert cert.m_per_level == m_per_level
        assert [graph for _, graph in calls] == [g1, g2]
        assert all(text == cert.tree_text for text, _ in calls)

    @pytest.mark.parametrize("defs, ranks", [
        # Each case gives the definitions and the ranks of every level from
        # 1 up; the pair is P4 / K1,3 for 4-vertex ranks, else T_A / T_B.
        # Level 1: rank 1 says degree 2 but also holds K1,3's center, of
        # degree 3.
        (((((0, 1),), ((0, 2),)),), (((0, 1, 1, 0), (1, 0, 0, 0)),)),
        # Level 1: a truthful partition whose rank-2 definition claims
        # degree 4.
        (((((0, 1),), ((0, 2),), ((0, 4),)),),
         (((0, 1, 1, 0), (2, 0, 0, 0)),)),
        # Level 2, first differing there: the top rank, T_B's vertex 2,
        # claims two neighbors of degree 2 where it has one. Its count stays
        # apart from the other ranks', so the lift still succeeds.
        (((((0, 1),), ((0, 2),), ((0, 3),)),
          (((1, 1),), ((1, 1), (0, 1)), ((1, 1), (0, 2)), ((1, 2), (0, 1)),
           ((2, 1),), ((2, 1), (0, 1)), ((2, 1), (1, 2)))),
         (((0, 1, 2, 1, 0, 0), (0, 1, 1, 2, 0, 0)),
          ((0, 5, 3, 5, 0, 4), (0, 1, 6, 2, 4, 4)))),
        # Level 1, K2 / C3: one joint rank claims degree 1 for all five
        # vertices, true in K2 but not in C3.
        (((((0, 1),),),), (((0, 0), (0, 0, 0)),)),
        # Level 1, K2 / C3: the joint rank 0 again claims degree 1 for a C3
        # vertex, and the other two claim degrees 2 and 3, so both graphs'
        # totals are right and only the per-vertex check sees it.
        (((((0, 1),), ((0, 2),), ((0, 3),)),), (((0, 0), (0, 1, 2)),)),
    ])
    def test_end_of_run_check_is_live(self, monkeypatch, tmp_path, capsys,
                                      defs, ranks):
        g1, g2 = {2: (K2, C3), 4: (P4, K13)}.get(len(ranks[0][0]), (TA, TB))
        force_labels(monkeypatch, defs, ranks)
        with pytest.raises(SynthesisInvariantError):
            synthesize(g1, g2)
        a, b, out = tmp_path / "a", tmp_path / "b", tmp_path / "cert.json"
        a.write_text(serialize_graph(g1), encoding="utf-8")
        b.write_text(serialize_graph(g2), encoding="utf-8")
        assert main(["synthesize", str(a), str(b), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
