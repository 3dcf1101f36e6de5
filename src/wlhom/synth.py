"""Synthesis of distinguishing trees from label refinement.

Given two graphs whose label histograms differ at some level, construct an
explicit tree with provably different homomorphism counts into the two
graphs. The construction is a finite-search version of the inductive
argument behind the label test / homomorphism-count correspondence:

  level 0: a lone leaf, the empty chain. Its count in a graph is the
  vertex count, and level 0 differs exactly when the vertex counts do.

  level j -> j+1: the level-j tree is a root over copies of the level-(j-1)
  tree; with one copy its rooted count at a vertex v is s_j(v), with m
  copies s_j(v)^m, and the leaf's is s_0 = 1. One more root above the
  m-copy tree has rooted count s_(j+1)(v) = sum over neighbors w of v of
  s_j(w)^m, the counting DP one level at a time, and lift computes it at
  every vertex through the graphs' gathers. If s_j is constant on each
  level-j class, s_(j+1)(v) is fixed by v's level-(j+1) label, the
  multiset of its neighbors' level-j classes. So each candidate m = 1, 2,
  ... is tried at one vertex of each level-(j+1) class only, until those
  values are pairwise distinct over the non-isolated classes; an isolated
  vertex counts 0, and every other vertex at least 1. A candidate is
  rejected at the first two of those values that collide, and that pair
  is tried first at the next m, so a rejection costs one collision, not
  one value per class. Level 1 is the degrees, s_1, the count of one root
  over one leaf, and the chain starts at m_2. Distinct values are all the
  final step needs (the linear-algebra view of Dell, Grohe and Rattan,
  "Lovasz meets Weisfeiler and Leman", ICALP 2018); no order is sought, so
  the classes may carry any names, and synthesize reads the refinement
  driver's own record (wl._refine), with its distinguishing and
  stabilization levels as plain integers; wl's canonical order is kept
  only for joint_refine and `wlhom labels`.
  Write t(c) for the number of distinct values s_j(w) over the neighbors w
  of class c's vertex; when s_j is distinct over the level-j classes, two
  classes c, c' then differ by a nonzero exponential sum in m of at most
  t(c) + t(c') terms, which by the generalized Descartes rule of signs
  (Polya-Szego, Problems and Theorems in Analysis II, Part V) has fewer
  real zeros than terms. Summed over the pairs of a class set S, some
  m <= 1 + (|S| - 1) * sum over c in S of t(c) works.

  final: the chain's count in a graph is the sum over its vertices of
  s_k(v)^n, so the two counts differ by sum_b delta(b) * b^n over the set
  S_k of nonzero values b of s_k, where delta(b) is how many more vertices
  of g1 than of g2 have s_k(v) = b. If it vanished for n = 1..|S_k| the
  Vandermonde system would force every delta(b) to zero, so the least
  separating n is found within |S_k| steps. The two histograms are
  subtracted once and each step sums over the nonzero delta(b) only; the
  count in g1 is summed once, at the n found, and the count in g2 is it
  minus that step's sum.
  The tree and its two counts are the whole proof: no certificate byte
  names a class, and every byte is the same under any renaming of the
  classes.

So the emitted tree is a chain: a leaf under roots repeating their one
child m_2, ..., m_k and n times, and a certificate record is that chain
and its two counts. The tree is built from the chain where it is written
or counted, and never stored; the JSON writes the tree, its depth and the
counts, and the chain is read back off the tree, never written beside it.
The counts are the tree's own, from the DP, so they hold by construction.
What is checked, once per level, is the one fact the search relies on:
the level's counts are constant on each of the driver's classes and
distinct across them, which every true level-j partition gives. A driver
whose partition is too coarse or too fine fails it, or the search, and
SynthesisInvariantError is raised before anything is emitted.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from collections.abc import Sequence

from .graphs import Graph, gather, quote, too_long
from .homs import hom_count
from .trees import TreeArena, parse_tree, serialize_tree
from .wl import _refine, refine_verdict

MODES = ("tree", "equivalent")


class SynthesisInvariantError(RuntimeError):
    """An identity the construction relies on failed; signals a bug."""


class CertificateError(ValueError):
    """Certificate JSON is malformed."""


class InconclusiveError(ValueError):
    """The level cap was reached before a difference or stabilization."""


class Certificate(namedtuple(
    "Certificate", "chain count_g1 count_g2", defaults=(None,) * 3,
)):
    """A claim about two graphs, checkable on its own; an immutable value
    record whose fields default to None.

    The claim is its chain, the multiplicities m_2, ..., m_k, n of the
    separating tree: () for a lone leaf, None when no level ever separates
    the graphs, so Certificate() claims equivalence. A separating claim
    also holds both counts. Its tree, its mode, "tree" for every
    separating claim, the lone leaf's included, and its level, the tree's
    depth, are read off the chain, and none is stored. The JSON format
    writes the mode, level, tree and counts, not the chain, which is the
    tree's own. As the level-k labels fix a depth-k tree's counts, level
    is certified only as an upper bound on the first differing level.
    """

    __slots__ = ()

    @property
    def mode(self) -> str:
        return "equivalent" if self.chain is None else "tree"

    @property
    def level(self) -> int | None:
        return None if self.chain is None else len(self.chain)

    def tree(self) -> tuple[TreeArena, int]:
        """A leaf under roots repeating their one child chain[0], chain[1],
        ... times: the tree of every separating claim, the empty chain's a
        lone leaf."""
        if self.chain is None:
            raise ValueError(f"{self.mode}-mode certificate carries no tree")
        arena = TreeArena()
        t = arena.leaf()
        for mult in self.chain:
            t = arena.attach([(t, mult)])
        return arena, t


def json_text(payload) -> str:
    """The canonical JSON text of every JSON output."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def certificate_to_json(cert: Certificate) -> str:
    """Canonical JSON form; counts become decimal strings."""
    payload: dict = {"mode": cert.mode}
    if cert.chain is not None:
        payload.update(level=cert.level, tree=serialize_tree(*cert.tree()),
                       count_g1=str(cert.count_g1), count_g2=str(cert.count_g2))
    return json_text(payload)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CertificateError(message)


def _parse_count(value: object, field: str) -> int:
    _require(isinstance(value, str), f"{field} must be a decimal string")
    _require(value.isascii() and value.isdigit(),
             f"{field} must be a nonnegative decimal string")
    _require(value == "0" or not value.startswith("0"),
             f"{field} has a leading zero")
    try:
        return int(value)
    except ValueError:
        raise CertificateError(f"{field}: {too_long((value,))}") from None


def certificate_from_json(text: str) -> Certificate:
    """The record of a certificate's JSON, every field checked.

    A separating certificate's chain is read off its tree: from the root,
    each node must have exactly one child, with its multiplicity, down to
    the leaf, and `level` must be that chain's length, the tree's depth.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CertificateError(f"not valid JSON: {exc}") from None
    _require(isinstance(data, dict), "certificate must be a JSON object")
    mode = data.get("mode")
    _require(mode in MODES, f"mode must be one of {MODES}, got {quote(mode)}")
    expected = {"mode"}
    if mode == "tree":
        expected |= {"level", "tree", "count_g1", "count_g2"}
    _require(
        set(data) == expected,
        f"mode {mode} certificate must have exactly the fields {sorted(expected)}",
    )
    if mode == "equivalent":
        return Certificate()
    level = data["level"]
    # a bool is not a JSON integer
    _require(isinstance(level, int) and not isinstance(level, bool),
             "level must be an integer")
    tree = data["tree"]
    _require(isinstance(tree, str), "tree must be a string")
    try:
        arena, node = parse_tree(tree)
    except ValueError as exc:
        raise CertificateError(f"embedded tree: {exc}") from None
    count_g1 = _parse_count(data["count_g1"], "count_g1")
    count_g2 = _parse_count(data["count_g2"], "count_g2")
    chain = []
    while children := arena.children(node):
        _require(len(children) == 1, "tree must be a chain: a node has "
                                     f"{len(children)} distinct children")
        node, mult = children[0]
        chain.append(mult)
    _require(level == len(chain), f"level must be the tree's depth, {len(chain)}")
    return Certificate(tuple(reversed(chain)), count_g1, count_g2)


def lift(
    pair: tuple[Graph, Graph],
    ids: Sequence[int],
    level: int,
    base: Sequence[int],
) -> tuple[int, list[int]]:
    """Least m >= 1 making the level's counts distinct over its classes, and
    the counts at every vertex.

    ids[v] is the level-`level` class of vertex v of G1 ⊔ G2, g2's vertices
    after g1's, and base[v] the rooted count at v of a tree T of depth at
    least 1, constant on the level-(level-1) classes, so 0 exactly at the
    isolated vertices. The count at v is the sum of base[w] ** m over the
    neighbors w of v: the rooted count of one root over m copies of T.
    Each candidate m is tried at one vertex of each non-isolated class,
    those classes' representatives, and the first whose values there are
    distinct is taken. A candidate is rejected at its first collision: the
    representatives' values go into a dict in order until one repeats, and
    the colliding pair is tried first at the next m, so a pair that still
    collides rejects it after two reads. From the second candidate on, the
    powers base[w] ** m are read from one table over the distinct values of
    `base`. By the Descartes bound in the module docstring some m up to
    1 + (|S| - 1) * sum over c in S of t(c) works for the non-isolated
    classes S when `base` is distinct over the previous level's classes,
    t(c) being the number of distinct base values among the neighbors of
    c's vertex; past it, SynthesisInvariantError. As t(c) >= 1 on S, the
    bound is at least 1 + (|S| - 1) * |S|, and it is computed only once m
    reaches that. The taken m's counts are then computed at every vertex,
    through each graph's gathers, and they must be constant on each class
    and distinct across classes, or SynthesisInvariantError.
    """
    g1, g2 = pair
    n1, of_nbrs = g1.vertex_count, (*g1.gathers, *g2.gathers)
    S = [v for v in dict(zip(ids, range(len(ids)))).values() if base[v]]
    if not S:
        raise ValueError("the level has no non-isolated class")
    # g1's gathers read parts[0] and g2's parts[1]: at m = 1 the vector over
    # G1 ⊔ G2 and its tail, then each graph's powers, spread from the table.
    m, parts, bound, spread = 1, (base, base[n1:]), None, None

    def first_collision(kept: tuple[int, ...]) -> tuple[int, int] | None:
        """The first two vertices with equal values, reading kept's then S's."""
        seen = {}
        for v in (*kept, *S):
            if (u := seen.setdefault(sum(of_nbrs[v](parts[v >= n1])), v)) != v:
                return u, v
        return None

    collision = first_collision(())
    while collision:
        if m > (len(S) - 1) * len(S):
            bound = bound or 1 + (len(S) - 1) * sum(
                len(set(of_nbrs[v](parts[v >= n1]))) for v in S)
            if m == bound:
                raise SynthesisInvariantError(
                    f"no m <= {bound} makes the level-{level} counts distinct"
                )
        m += 1
        if spread is None:
            slot = {b: i for i, b in enumerate(dict.fromkeys(base))}
            slots = list(map(slot.__getitem__, base))
            spread = gather(slots[:n1]), gather(slots[n1:])
        powers = [b ** m for b in slot]
        parts = spread[0](powers), spread[1](powers)
        collision = first_collision(collision)
    counts = [sum(of(parts[0])) for of in g1.gathers]
    counts += [sum(of(parts[1])) for of in g2.gathers]
    _one_per_class(ids, counts, level)
    return m, counts


def _one_per_class(ids: Sequence[int], counts: list[int], level: int) -> None:
    """Raise SynthesisInvariantError unless the counts are constant on each
    level-`level` class of ids and distinct across classes."""
    count_of = dict(zip(ids, counts))
    if (list(map(count_of.__getitem__, ids)) != counts
            or len(set(count_of.values())) < len(count_of)):
        raise SynthesisInvariantError(
            f"the level-{level} counts are not one per class"
        )


def synthesize(
    g1: Graph,
    g2: Graph,
    max_level: int | None = None,
) -> Certificate:
    """Distinguishing chain and counts, or Certificate() if equivalent.

    Refinement runs refine_verdict's driver once (wl._refine), stopped at
    the first difference, so an equivalent pair costs about what
    refine_verdict does. It returns the distinguishing and stabilization
    levels and, on a pair first differing at level k, its record: the class
    ids of the dense levels 1..h, then the pieces that moved in each of the
    worklist's rounds h+1..k. If no level differs up to stabilization, the
    graphs are equivalent; reaching max_level first raises
    InconclusiveError. At k = 0 the vertex counts differ and the empty
    chain, a lone leaf, distinguishes. Otherwise level 1's counts are the
    degrees, one lift per level from 2 on computes that level's counts at
    every vertex, and each level's counts are checked against its classes.
    Past level h, a level's ids are level h's list with its round's moved
    pieces given their ids, in place, just before its lift reads them, so
    no level is copied. The chain is the m each lift chose, then the least
    n whose powers of the level-k counts sum differently over the two
    graphs, searched over the nonzero differences of the two graphs'
    histograms of those counts. Those sums are the tree's counts, and no
    certificate byte depends on how classes are named.
    """
    distinguishing, stabilization, levels, rounds = _refine(g1, g2, max_level, True)
    if distinguishing is None:
        if stabilization is None:
            raise InconclusiveError(f"inconclusive: no verdict by level {max_level}")
        return Certificate()
    n1 = g1.vertex_count
    if distinguishing == 0:
        return Certificate((), n1, g2.vertex_count)
    # s_1, the count of a root over one leaf, is the degree.
    counts = [len(nbrs) for g in (g1, g2) for nbrs in g.adjacency]
    _one_per_class(levels[0], counts, 1)
    lifts = []
    for level, ids in enumerate(levels[1:], 2):
        m, counts = lift((g1, g2), ids, level, counts)
        lifts.append(m)
    # Past the hand-over, each round's moved pieces take their ids in place.
    ids = levels[-1]
    for level, moved in enumerate(rounds, len(levels) + 1):
        for q, piece in moved.items():
            for v in piece:
                ids[v] = q
        m, counts = lift((g1, g2), ids, level, counts)
        lifts.append(m)

    # The chain's rooted count at v is s_k(v) ** n, 0 at an isolated vertex,
    # so c1 - c2 is the sum over b in S_k of delta(b) * b ** n.
    hist1, hist2 = (Counter(filter(None, part)) for part in (counts[:n1], counts[n1:]))
    s_k = hist1.keys() | hist2.keys()
    delta = [(b, d) for b in s_k if (d := hist1[b] - hist2[b])]
    for n in range(1, len(s_k) + 1):
        if gap := sum(d * b ** n for b, d in delta):
            break
    else:
        raise SynthesisInvariantError(
            f"no separating n within |S_k| = {len(s_k)} steps"
        )
    c1 = sum(count * b ** n for b, count in hist1.items())
    return Certificate((*lifts, n), c1, c1 - gap)


def verify(cert: Certificate, g1: Graph, g2: Graph) -> bool:
    """Independently re-check a certificate against the two graphs.

    Recomputes from scratch: the claim of equivalence (chain None) re-runs
    the level comparison on the joint partition alone (refine_verdict).
    Every other claim, the lone leaf's empty chain included, has one check:
    the graph DP counts homomorphisms of the chain's tree, which for a lone
    leaf are the vertex counts, and both must match the claimed counts and
    differ. The record holds no tree of its own, so nothing else can
    disagree with the chain; a certificate's JSON is checked against its
    chain by certificate_from_json.
    """
    if cert.chain is None:
        return refine_verdict(g1, g2, stop_at_difference=True)[0] is None
    arena, root = cert.tree()
    c1 = hom_count(arena, root, g1)
    c2 = hom_count(arena, root, g2)
    return c1 == cert.count_g1 and c2 == cert.count_g2 and c1 != c2
