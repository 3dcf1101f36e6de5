"""Synthesis of distinguishing trees, certificates, and verification."""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from wlhom import (
    Certificate,
    CertificateError,
    Graph,
    InconclusiveError,
    SynthesisInvariantError,
    TreeArena,
    certificate_from_json,
    certificate_to_json,
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
from wlhom import graphs as graphs_module
from wlhom import homs as homs_module
from wlhom import synth as synth_module
from wlhom.cli import main
from wlhom import wl
from wlhom.graphs import gather

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
    caterpillar_pair,
    early_table,
    force_ids,
    graphs,
    isolated_vertices,
    replay_to_difference,
    star_graph,
    tuple_rounds,
)


class TestBaseFamily:
    # the base of every chain: a star, one root over n leaves
    def test_n1_is_single_edge(self):
        arena = TreeArena()
        t = arena.attach([(arena.leaf(), 1)])
        assert arena.depth(t) == 1
        assert arena.explicit_size(t) == 2

    def test_rooted_count_is_degree_power(self):
        arena = TreeArena()
        assert rooted_hom(arena, arena.attach([(arena.leaf(), 2)]), K13)[0] == 9
        assert rooted_hom(arena, arena.attach([(arena.leaf(), 5)]), C6)[0] == 32


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


def _vertex_counts(pair, mults):
    """Rooted counts of the chain at every vertex of G1 ⊔ G2, g2's vertices
    after g1's, from the graph DP."""
    arena = TreeArena()
    t = _chain(arena, mults)
    return [count for g in pair for count in rooted_hom(arena, t, g)]


def _degrees(pair):
    """Level-1 counts of the one-leaf star at every vertex."""
    return _vertex_counts(pair, (1,))


class TestLift:
    def test_k13_p4_level2(self):
        # least m making the counts of all non-isolated level-2 classes of
        # the joint K1,3 / P4 labeling distinct; frozen after exact
        # computation: m = 2
        pair = (K13, P4)
        m, counts = lift(pair, joint_refine(*pair).levels[2].ranks, 2, _degrees(pair))
        assert m == 2
        assert counts == _vertex_counts(pair, (2, 1))

    def test_single_rank_vacuous(self):
        # one non-isolated class at level 2: its count is trivially
        # distinct, so m = 1
        g = disjoint_union(cycle_graph(3), empty_graph(1))
        table = joint_refine(g, g)
        assert len(_nonisolated_ranks(table, 2)) == 1
        m, _ = lift((g, g), table.levels[2].ranks, 2, _degrees((g, g)))
        assert m == 1

    def test_multiplicity_only_pair_separates_at_m1(self):
        # Vertices 0 and 4 have degree 3 and neighbors of degrees {2, 1, 1}
        # and {2, 2, 1}, labels that differ only in the multiplicity of the
        # top level-1 class. With counts 10, 2 and 1 on the degree-3, -2
        # and -1 classes, their sums 4 and 5 already differ under H_1, as
        # do all of the level's six classes.
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (4, 6), (5, 7)])
        pair = (g, empty_graph())
        ids = joint_refine(*pair, max_level=2).levels[2].ranks
        base = [{3: 10, 2: 2, 1: 1}[degree] for degree in _degrees(pair)]
        m, counts = lift(pair, ids, 2, base)
        assert m == 1
        assert (counts[0], counts[4], len(set(ids))) == (4, 5, 6)

    def test_rejects_empty_rank_set(self):
        # base is a count of a tree of depth at least 1, here the degrees,
        # so it is 0 at every vertex of two edgeless graphs
        pair = (empty_graph(2), empty_graph(2))
        with pytest.raises(ValueError):
            lift(pair, (0,) * 4, 2, _degrees(pair))

    def test_shared_definition_stops_at_the_descartes_bound(self):
        # Classes 0 and 1, vertices 0 and 1, share their neighbors 3..8, so
        # their counts agree at every m: a partition too fine. Class 2 holds
        # every other vertex, each with neighbors of one count. The search
        # gives up at 1 + (|S| - 1) * the sum over S of the distinct
        # neighbor counts = 1 + 2 * (3 + 3 + 1) = 15 candidates.
        shared = [(u, w) for u in (0, 1) for w in range(3, 9)]
        g = Graph(14, shared + [(2, w) for w in range(9, 14)])
        base = (1, 1, 1, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1)
        with pytest.raises(SynthesisInvariantError, match="^no m <= 15 "):
            lift((g, empty_graph()), (0, 1) + (2,) * 12, 2, base)

    def test_isolated_rank_trips_invariant(self):
        # one class for every vertex, the isolated one included: its count
        # is 0 where the others' are 2
        g = disjoint_union(cycle_graph(3), empty_graph(1))
        pair = (g, cycle_graph(3))
        with pytest.raises(SynthesisInvariantError, match="not one per class"):
            lift(pair, (0,) * 7, 1, (1,) * 7)


def _reference_lift(pair, ids, S, lower):
    """The m-search by definition: build every H_m, count it on the graphs.

    H_m is one root over m copies of the chain `lower` chose at the levels
    below; returns m and the graph DP's counts of H_m by class of `ids`,
    the level's class at every vertex, once the counts over the
    non-isolated classes S are distinct.
    """
    for m in range(1, 10_001):
        by_class = dict(zip(ids, _vertex_counts(pair, (*lower, m, 1))))
        values = [by_class[c] for c in S]
        assert min(values) >= 1
        if len(set(values)) == len(values):
            return m, by_class
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
    labels = early_table(g1, g2)
    oracle = tuple_rounds(g1, g2, labels.distinguishing_level or 0)
    ranks = {}
    for level in range(1, (labels.distinguishing_level or 0) + 1):
        hists = [{r: c for r, c in labels.histogram(which, level).items()
                  if oracle[level][0][r]} for which in (0, 1)]
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
        counts, lower = _degrees(pair), ()
        for level in range(2, len(ranks) + 1):
            ids = labels.levels[level].ranks
            m, counts = lift(pair, ids, level, counts)
            ref_m, ref_counts = _reference_lift(pair, ids, ranks[level], lower)
            assert m == ref_m
            assert counts == list(map(ref_counts.__getitem__, ids))
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
        assert cert.chain[:-1] == (3,)
        assert len(arenas) == 1
        arena, root = cert.tree()
        bound = len(arena.reachable(root)) + 4 * len(cert.chain[:-1])
        assert len(attaches) <= bound

    def test_rejected_candidates_stop_at_a_collision(self):
        # The pair of test_rejected_candidates_build_nothing, whose level-2
        # search rejects m = 1 and m = 2 and takes m = 3. The accepted
        # candidate reads every representative at least once, so the rest
        # of the search's reads bound what the two rejected candidates
        # read: fewer than |S| per candidate, where a full scan reads |S|.
        pair = _wheel_pair()
        ids = replay_to_difference(*pair)[2][1]
        reads = _count_reads(pair)
        m, _ = lift(pair, ids, 2, _degrees(pair))
        assert m == 3
        S = _nonisolated_classes(pair, ids)
        search = len(reads) - len(ids)  # the final pass reads every vertex
        assert search - len(S) < (m - 1) * len(S)

    def test_kept_pair_rejects_the_next_candidate(self):
        # Vertices 0 and 1 have degree 3 and neighbors of degrees {1, 5, 6}
        # and {2, 3, 7}, each neighbor's other neighbors leaves. Their sums
        # agree at m = 1 (12 = 12) and at m = 2 (62 = 62), so the pair kept
        # from m = 1 rejects m = 2 at once. At m = 3 they read 342 and 378,
        # and all of the level's classes are distinct. Frozen after exact
        # computation.
        edges, n = [], 2
        for center, degrees in ((0, (1, 5, 6)), (1, (2, 3, 7))):
            for degree in degrees:
                edges += [(center, n)] + [(n, n + i) for i in range(1, degree)]
                n += degree
        pair = (Graph(n, edges), empty_graph())
        ids = joint_refine(*pair, max_level=2).levels[2].ranks
        reads = _count_reads(pair)
        m, counts = lift(pair, ids, 2, _degrees(pair))
        assert (m, counts[0], counts[1]) == (3, 342, 378)
        S = _nonisolated_classes(pair, ids)
        # m = 1 collides at the first two representatives, m = 2 on
        # re-reading them, and m = 3 re-reads them before its full scan
        assert reads[:-len(ids) - len(S)] == [0, 1] * 3
        ref_m, ref_counts = _reference_lift(pair, ids, S, ())
        assert m == ref_m
        assert counts == list(map(ref_counts.__getitem__, ids))


def _wheel_pair():
    """A wheel over the cube and a K1,5 beside T_A / T_B: a pair first
    differing at level 2 whose level-2 search takes m = 3."""
    cube = [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit]
    wheel = Graph(9, cube + [(u, 8) for u in range(8)])
    return tuple(disjoint_union(disjoint_union(wheel, star_graph(5)), t)
                 for t in (TA, TB))


def _nonisolated_classes(pair, ids):
    """The classes of ids holding a vertex of G1 ⊔ G2 with a neighbor."""
    adjacency = (*pair[0].adjacency, *pair[1].adjacency)
    return sorted({c for c, nbrs in zip(ids, adjacency) if nbrs})


def _count_reads(pair):
    """Make every gather of the pair log its vertex of G1 ⊔ G2 when read,
    g2's vertices after g1's; returns the log."""
    reads = []

    def logged(of_nbrs, v):
        def read(values):
            reads.append(v)
            return of_nbrs(values)
        return read

    for shift, g in zip((0, pair[0].vertex_count), pair):
        g._gathers = tuple(logged(of, shift + v) for v, of in enumerate(g.gathers))
    return reads


class TestSynthesizeKnownPairs:
    def test_k13_vs_p4(self):
        cert = synthesize(K13, P4)
        assert cert.mode == "tree"
        assert cert.level == 1
        assert cert.chain == (2,)
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
        assert cert.chain == (3, 2)
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
        assert cert.chain == (1,)
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
        # every mode, bytes and record, survives the JSON round trip
        text = certificate_to_json(cert)
        assert certificate_to_json(certificate_from_json(text)) == text
        assert certificate_from_json(text) == cert

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
            assert cert.tree_text == serialize_tree(arena, _chain(arena, cert.chain))

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
            lambda d: d.pop("m_per_level"),
            lambda d: d.pop("n_final"),
            # the histogram rows of the earlier format are a field too many
            lambda d: d.update(histograms=[{"rank": 0, "g1": 1, "g2": 2}]),
        ],
    )
    def test_malformed_rejected(self, mangle):
        data = json.loads(certificate_to_json(synthesize(K13, P4)))
        mangle(data)
        with pytest.raises(CertificateError):
            certificate_from_json(json.dumps(data))

    @pytest.mark.parametrize("field, value, message", [
        ("mode", "x" * 4000, "mode must be one of ('tree', 'single-node', 'equivalent'), "
                             "got <4000 characters>"),
        ("mode", "nonsense", "mode must be one of ('tree', 'single-node', 'equivalent'), "
                             "got 'nonsense'"),
        ("mode", None, "mode must be one of ('tree', 'single-node', 'equivalent'), got None"),
        # a bool is not a JSON integer, whatever the field
        ("level", True, "level must be an integer"),
        ("m_per_level", [True], "m_per_level must be a list of positive integers"),
        ("n_final", True, "n_final must be a positive integer"),
        ("histograms", [{"rank": 0, "g1": 1, "g2": 2}],
         "mode tree certificate must have exactly the fields ['count_g1', "
         "'count_g2', 'level', 'm_per_level', 'mode', 'n_final', 'tree']"),
    ])
    def test_malformed_field_message(self, field, value, message):
        data = json.loads(certificate_to_json(synthesize(TA, TB)))
        data[field] = value
        with pytest.raises(CertificateError) as exc:
            certificate_from_json(json.dumps(data))
        assert str(exc.value) == message
        assert len(str(exc.value)) < 200

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
        assert not verify(Certificate(), K13, P4)

    def test_level_is_the_chain_length(self):
        # A record has no level of its own to claim: T_A / T_B first differ
        # at level 2, and their depth-2 tree cannot be claimed at level 1.
        cert = synthesize(TA, TB)
        with pytest.raises(ValueError):
            cert._replace(level=1)
        assert cert.level == len(cert.chain) == 2
        assert verify(cert, TA, TB)
        assert not verify(cert._replace(chain=(2,)), TA, TB)

    def test_equivalent_claim_on_equivalent_pair_passes(self):
        assert verify(Certificate(), C6, TWO_C3)

    def test_single_node_wrong_counts_fail(self):
        good = synthesize(empty_graph(1), path_graph(2))
        data = json.loads(certificate_to_json(good))
        data["count_g2"] = "3"
        assert not verify(certificate_from_json(json.dumps(data)),
                          empty_graph(1), path_graph(2))

    def test_single_node_equal_counts_fail(self):
        cert = Certificate(
            chain=(), tree_text="T 1\nnode 0 :\nroot 0\n",
            count_g1=3, count_g2=3,
        )
        assert not verify(cert, path_graph(3), cycle_graph(3))

    def test_single_node_non_leaf_tree_fails(self):
        cert = Certificate(
            chain=(),
            tree_text="T 2\nnode 0 :\nnode 1 : 0*1\nroot 1\n",
            count_g1=1, count_g2=2,
        )
        assert not verify(cert, empty_graph(1), path_graph(2))

    def test_true_but_equal_counts_fail(self):
        # correct counts that do not differ prove nothing
        arena = TreeArena()
        t = _chain(arena, (1,))
        g1, g2 = path_graph(3), star_graph(2)  # isomorphic
        c = hom_count(arena, t, g1)
        cert = Certificate(
            chain=(1,),
            tree_text="T 2\nnode 0 :\nnode 1 : 0*1\nroot 1\n",
            count_g1=c, count_g2=c,
        )
        assert not verify(cert, g1, g2)

    @pytest.mark.parametrize("mangle", [
        lambda d: d.update(n_final=d["n_final"] + 1),
        lambda d: d.update(m_per_level=[d["m_per_level"][0] + 1]),
        lambda d: d.update(count_g1=str(int(d["count_g1"]) + 1)),
        lambda d: d.update(count_g2=str(int(d["count_g2"]) - 1)),
        lambda d: d.update(count_g1=d["count_g2"], count_g2=d["count_g1"]),
        # the chain of m_per_level [3] and n 3, where n_final is 2
        lambda d: d.update(
            tree="T 3\nnode 0 :\nnode 1 : 0*3\nnode 2 : 1*3\nroot 2\n"),
    ])
    def test_fields_inconsistent_with_the_tree_fail(self, mangle):
        # each case changes one field, or swaps the counts; every other
        # field keeps its true value
        data = json.loads(certificate_to_json(synthesize(TA, TB)))
        mangle(data)
        assert not verify(certificate_from_json(json.dumps(data)), TA, TB)

    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), graphs(max_vertices=6), st.booleans(),
           st.integers(-1, 1), st.integers(-1, 1))
    def test_single_node_matches_the_lone_leaf_predicate(self, g1, g2, edge,
                                                         d1, d2):
        # A single-node claim is checked as the empty chain; that must
        # accept exactly what a lone leaf whose counts are the vertex counts,
        # and differ, would.
        count_g1, count_g2 = g1.vertex_count + d1, g2.vertex_count + d2
        assume(count_g1 >= 0 and count_g2 >= 0)
        tree_text = ("T 2\nnode 0 :\nnode 1 : 0*1\nroot 1\n" if edge
                     else "T 1\nnode 0 :\nroot 0\n")
        cert = Certificate(chain=(), tree_text=tree_text,
                           count_g1=count_g1, count_g2=count_g2)
        assert verify(cert, g1, g2) == (
            not edge
            and count_g1 == g1.vertex_count
            and count_g2 == g2.vertex_count
            and count_g1 != count_g2
        )


class TestRecords:
    def test_fields_are_read_only(self):
        level = joint_refine(K13, P4).levels[1]
        with pytest.raises(AttributeError):
            level.classes = 0
        cert = synthesize(TA, TB)
        with pytest.raises(AttributeError):
            cert.chain = (3, 3)
        with pytest.raises(AttributeError):
            cert.level = 1
        with pytest.raises(AttributeError):
            cert.extra = 1

    def test_certificate_is_a_hashable_value(self):
        cert = synthesize(TA, TB)
        again = certificate_from_json(certificate_to_json(cert))
        assert again == cert
        assert {cert, again} == {cert}
        assert Certificate() != cert


class TestInvariantMachinery:
    # WLHOM_LIFT_CEILING is no longer read; a stale setting must not
    # reach lift
    def test_stale_env_ceiling_is_ignored(self, monkeypatch):
        monkeypatch.setenv("WLHOM_LIFT_CEILING", "1")
        assert synthesize(TA, TB).mode == "tree"


class TestQuotient:
    # The count vectors of a chain by class, read off the canonical labels
    # alone: for a chain with multiplicities (a_1, ..., a_d) above a leaf,
    # entry(rank) at level L is
    # (sum over r in defs_L[rank], with repeats, of entry(r) at level L-1)
    # ** a_d,
    # down to 1 at every level-(L-d) rank.
    @PROPERTY_SETTINGS
    @given(graphs(max_vertices=6), graphs(max_vertices=6),
           st.lists(st.integers(1, 3), min_size=1, max_size=3))
    def test_matches_graph_dp_by_rank(self, g1, g2, mults):
        table = joint_refine(g1, g2)
        defs = [defs for defs, _ in tuple_rounds(g1, g2, table.max_recorded_level)]
        arena = TreeArena()
        t = _chain(arena, mults)
        for level in range(len(mults), table.max_recorded_level + 1):
            counts = [1] * len(defs[level - len(mults)])
            for j, mult in enumerate(mults, level - len(mults) + 1):
                counts = [sum(counts[r] for r in label) ** mult for label in defs[j]]
            by_rank = _joint_counts(arena, t, table, level)
            # every rank is some vertex's rank, unless both graphs are empty
            expected = dict(enumerate(counts))
            if g1.vertex_count + g2.vertex_count == 0:
                expected = {}
            assert by_rank == expected

    # m_per_level: the chain's lifts, the multiplicities before n
    @pytest.mark.parametrize("g1, g2, m_per_level", [(TA, TB, (3,)), (K13, P4, ())])
    def test_graph_dp_covers_only_the_emitted_tree(self, monkeypatch, g1, g2,
                                                   m_per_level):
        # The lifts are the emitted tree's DP, one level at a time, so
        # synthesize runs no rooted_hom, and on fresh copies of the graphs
        # it builds no gather but the graphs' own, one per vertex, and
        # those only when a lift runs, from level 2 on.
        g1, g2 = (Graph(g.vertex_count, g.edges) for g in (g1, g2))
        dp_calls, gathered = [], []

        def counting_rooted_hom(*args):
            dp_calls.append(args)
            return rooted_hom(*args)

        def counting_gather(idx):
            gathered.append(idx)
            return gather(idx)

        monkeypatch.setattr(homs_module, "rooted_hom", counting_rooted_hom)
        monkeypatch.setattr(graphs_module, "gather", counting_gather)
        cert = synthesize(g1, g2)
        monkeypatch.undo()
        assert cert.chain[:-1] == m_per_level
        assert dp_calls == []
        assert gathered == ([*g1.adjacency, *g2.adjacency] if m_per_level else [])
        assert verify(cert, g1, g2)

    @pytest.mark.parametrize("ids", [
        # Each case gives the class ids per graph of every level from 1 up,
        # on K2 / C3 for 2-vertex ids, else on P4 / K1,3.
        # Class 1 holds P4's middle vertices, of degree 2, and K1,3's
        # center, of degree 3.
        (((0, 1, 1, 0), (1, 0, 0, 0)),),
        # One class for all five vertices, of degrees 1 and 2.
        (((0, 0), (0, 0, 0)),),
        # Class 0 holds K2's vertices, of degree 1, and one C3 vertex, and
        # C3's other two, of degree 2 as well, are split apart.
        (((0, 0), (0, 1, 2)),),
        # Reported first differing: K1,3's center shares class 0 with a leaf
        # and P4's ends, and class 1 holds the other leaves and P4's middle.
        (((0, 1, 1, 0), (0, 1, 1, 0)),),
        # Too fine: C3's vertices, all of degree 2, in two classes.
        (((0, 0), (1, 1, 2)),),
    ], ids=["coarse", "one-class", "coarse-and-fine", "center-with-leaves",
            "too-fine"])
    def test_partition_check_is_live(self, monkeypatch, tmp_path, capsys, ids):
        g1, g2 = {2: (K2, C3), 4: (P4, K13)}[len(ids[0][0])]
        force_ids(monkeypatch, ids)
        with pytest.raises(SynthesisInvariantError):
            synthesize(g1, g2)
        a, b, out = tmp_path / "a", tmp_path / "b", tmp_path / "cert.json"
        a.write_text(serialize_graph(g1), encoding="utf-8")
        b.write_text(serialize_graph(g2), encoding="utf-8")
        assert main(["synthesize", str(a), str(b), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestNamingInvariance:
    """No certificate byte depends on how classes are named: synthesize fed
    the canonical levels of the tuple oracle emits what it emits on the
    refinement driver's own ids."""

    @staticmethod
    def _same_certificate(g1, g2):
        plain = synthesize(g1, g2)
        if not plain.chain:
            return plain
        rounds = tuple_rounds(g1, g2, plain.level)[1:]
        n1 = g1.vertex_count
        with pytest.MonkeyPatch.context() as mp:
            force_ids(mp, [(ranks[:n1], ranks[n1:]) for _, ranks in rounds])
            forced = synthesize(g1, g2)
        assert certificate_to_json(forced) == certificate_to_json(plain)
        return plain

    @PROPERTY_SETTINGS
    @given(st.one_of(st.tuples(graphs(max_vertices=8), graphs(max_vertices=8)),
                     swapped_pairs()))
    def test_drawn_pairs(self, pair):
        self._same_certificate(*pair)

    @pytest.mark.parametrize("level", [5, 8])
    def test_caterpillar_pairs(self, level):
        # Past the hand-over the driver's ids are not the canonical ranks.
        g1, g2 = caterpillar_pair(level)
        ids = replay_to_difference(g1, g2)[2][-1]
        assert tuple(ids) != tuple_rounds(g1, g2, level)[level][1]
        assert self._same_certificate(g1, g2).level == level


def _lose_one_piece(mp, split: int) -> None:
    """Make the worklist's `split`-th class split that moves pieces keep one
    of them in its class: that round loses one moved piece, so its
    partition is too coarse."""
    moving_pieces, splits = wl._moving_pieces, []

    def lossy(members, pieces):
        moving = moving_pieces(members, pieces)
        if moving:
            splits.append(moving)
            if len(splits) == split:
                moving.pop()
        return moving

    mp.setattr(wl, "_moving_pieces", lossy)


class TestDriverFault:
    """A refinement driver whose partition is too coarse makes synthesize
    raise, never emit a wrong distinguishing claim. A wrong claim of
    equivalence is out of synthesize's reach: it holds no partition to
    check it against, and verify re-runs the driver."""

    @PROPERTY_SETTINGS
    @given(st.one_of(st.tuples(graphs(max_vertices=8), graphs(max_vertices=8)),
                     swapped_pairs()),
           st.integers(1, 3))
    @example(caterpillar_pair(5), 1)
    @example(caterpillar_pair(8), 3)
    def test_no_wrong_distinguishing_claim(self, pair, split):
        with pytest.MonkeyPatch.context() as mp:
            _lose_one_piece(mp, split)
            try:
                cert = synthesize(*pair)
            except SynthesisInvariantError:
                return
        if cert.chain is not None:
            assert verify(cert, *pair)

    @pytest.mark.parametrize("split", [1, 2, 3])
    @pytest.mark.parametrize("level", [5, 8])
    def test_caterpillar_pair_raises(self, tmp_path, capsys, level, split):
        g1, g2 = caterpillar_pair(level)
        with pytest.MonkeyPatch.context() as mp:
            _lose_one_piece(mp, split)
            with pytest.raises(SynthesisInvariantError):
                synthesize(g1, g2)
        a, b, out = tmp_path / "a", tmp_path / "b", tmp_path / "cert.json"
        a.write_text(serialize_graph(g1), encoding="utf-8")
        b.write_text(serialize_graph(g2), encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            _lose_one_piece(mp, split)
            assert main(["synthesize", str(a), str(b), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def _split_one_vertex(mp, split: int) -> None:
    """Make the worklist's `split`-th class split that moves pieces also
    move one vertex of the class's kept part, alone: that round's partition
    is too fine."""
    moving_pieces, splits = wl._moving_pieces, []

    def splitting(members, pieces):
        moving = moving_pieces(members, pieces)
        if moving:
            splits.append(moving)
            if len(splits) == split:
                moving.append([min(members.difference(*moving))])
        return moving

    mp.setattr(wl, "_moving_pieces", splitting)


class TestTooFinePartition:
    """A refinement driver whose partition is too fine makes synthesize
    raise, never emit a wrong distinguishing claim."""

    @PROPERTY_SETTINGS
    @given(st.one_of(st.tuples(graphs(max_vertices=8), graphs(max_vertices=8)),
                     swapped_pairs()),
           st.integers(1, 3))
    @example(caterpillar_pair(5), 1)
    @example(caterpillar_pair(8), 3)
    def test_no_wrong_distinguishing_claim(self, pair, split):
        with pytest.MonkeyPatch.context() as mp:
            _split_one_vertex(mp, split)
            try:
                cert = synthesize(*pair)
            except SynthesisInvariantError:
                return
        if cert.chain is not None:
            assert verify(cert, *pair)

    @pytest.mark.parametrize("split", [1, 2, 3])
    @pytest.mark.parametrize("level", [5, 8])
    def test_caterpillar_pair_raises(self, tmp_path, capsys, level, split):
        # Frozen after exact computation: no m separates the split vertex's
        # class from the rest of its old one.
        g1, g2 = caterpillar_pair(level)
        with pytest.MonkeyPatch.context() as mp:
            _split_one_vertex(mp, split)
            with pytest.raises(SynthesisInvariantError,
                               match=f"^no m <= {113 if split == 3 else 61} "):
                synthesize(g1, g2)
        a, b, out = tmp_path / "a", tmp_path / "b", tmp_path / "cert.json"
        a.write_text(serialize_graph(g1), encoding="utf-8")
        b.write_text(serialize_graph(g2), encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            _split_one_vertex(mp, split)
            assert main(["synthesize", str(a), str(b), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
