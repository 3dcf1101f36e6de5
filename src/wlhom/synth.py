"""Synthesis of distinguishing trees from label refinement.

Given two graphs whose label histograms differ at some level, construct an
explicit tree with provably different homomorphism counts into the two
graphs. The construction is a finite-search version of the inductive
argument behind the label test / homomorphism-count correspondence:

  level 0: a lone leaf, the empty chain. Its count in a graph is the
  vertex count, and level 0 differs exactly when the vertex counts do.

  level 1: stars. The rooted count of an n-leaf star at v is deg(v)^n, so
  for every n the count is strictly increasing across level-1 classes. The
  count vector s_1 holds each level-1 class's degree.

  level j -> j+1: the level-j tree is a root over copies of the level-(j-1)
  tree; with one copy its counts are s_j, with m copies s_j^m. One more
  root H_m above the m-copy tree has rooted count at v equal to the
  neighbor sum of those counts, which depends only on v's level-(j+1)
  label, the multiset labels[c] of its neighbors' level-j classes:
  h(H_m, c) = sum over r in labels[c], with repeats, of s_j[r]^m.
  Search m = 1, 2, ... on these sums until they are pairwise distinct over
  the non-isolated level-(j+1) classes; its sums are s_(j+1). Distinct
  values are all the final step needs (the linear-algebra view of Dell,
  Grohe and Rattan, "Lovasz meets Weisfeiler and Leman", ICALP 2018); no
  order is sought, so the classes may carry any names, and synthesize takes
  the refinement driver's own (wl.refine_to_difference); wl's canonical
  order is kept only for joint_refine and `wlhom labels`. The labels name
  only non-isolated level-j classes, whose s_j are distinct and positive.
  Write t(c) for the number of distinct classes in labels[c]; two classes
  c, c' then differ by a nonzero exponential sum in m of at most
  t(c) + t(c') terms, which by the generalized Descartes rule of signs
  (Polya-Szego, Problems and Theorems in Analysis II, Part V) has fewer
  real zeros than terms. Summed over the pairs of a class set S, some
  m <= 1 + (|S| - 1) * sum over c in S of t(c) works.

  final: with distinct positive bases s_k[c], the difference of the two
  histogram-weighted sums is sum_c delta(c) * s_k[c]^n. If it vanished for
  n = 1..|S_k| the Vandermonde system would force every delta(c) to zero,
  so the least separating n is found within |S_k| steps. The tree and its
  two counts are the whole proof: no certificate byte names a class, and
  every byte is the same under any renaming of the classes.

So the search runs on one count vector per level, indexed by class id and
read from the level's labels alone, and the emitted tree is a chain: a leaf
under roots repeating their one child m_2, ..., m_k and n times, and a
certificate is that chain with the tree and its two counts. One graph DP of
it per graph cross-checks the last vector, distinct and positive as lift
accepts it or as degrees are: every vertex must carry its level-k class's
count, or SynthesisInvariantError is raised and nothing is emitted. The
vertex sums are then the histogram-weighted ones, as an isolated class's
count is an empty degree or sum, and 0 ** n is 0.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from collections.abc import Sequence

from .graphs import Graph, gather, quote, too_long
from .homs import hom_count, rooted_hom
from .trees import TreeArena, parse_tree, serialize_tree
from .wl import refine_to_difference, refine_verdict

MODES = ("tree", "single-node", "equivalent")


class SynthesisInvariantError(RuntimeError):
    """An identity the construction relies on failed; signals a bug."""


class CertificateError(ValueError):
    """Certificate JSON is malformed."""


class InconclusiveError(ValueError):
    """The level cap was reached before a difference or stabilization."""


class Certificate(namedtuple(
    "Certificate", "chain tree_text count_g1 count_g2", defaults=(None,) * 4,
)):
    """A claim about two graphs, checkable on its own; an immutable value
    record whose fields default to None.

    The claim is its chain, the multiplicities m_2, ..., m_k, n of the
    separating tree: () for a lone leaf, None when no level ever separates
    the graphs, so Certificate() claims equivalence. A separating claim
    also holds the tree (tree file format) and both counts. mode and level,
    the tree's depth, are read off the chain, and the JSON format is their
    view. As the level-k labels fix a depth-k tree's counts, level is
    certified only as an upper bound on the first differing level.
    """

    __slots__ = ()

    @property
    def mode(self) -> str:
        if self.chain is None:
            return "equivalent"
        return "tree" if self.chain else "single-node"

    @property
    def level(self) -> int | None:
        return None if self.chain is None else len(self.chain)

    def tree(self) -> tuple[TreeArena, int]:
        if self.tree_text is None:
            raise ValueError(f"{self.mode}-mode certificate carries no tree")
        return parse_tree(self.tree_text)


def json_text(payload) -> str:
    """The canonical JSON text of every JSON output."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def certificate_to_json(cert: Certificate) -> str:
    """Canonical JSON form; counts become decimal strings."""
    payload: dict = {"mode": cert.mode}
    if cert.chain is not None:
        payload.update(level=cert.level, tree=cert.tree_text,
                       count_g1=str(cert.count_g1), count_g2=str(cert.count_g2))
    if cert.chain:
        payload.update(m_per_level=list(cert.chain[:-1]), n_final=cert.chain[-1])
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


def _is_int(value: object, least: float = float("-inf")) -> bool:
    """value is a JSON integer of at least `least`; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def certificate_from_json(text: str) -> Certificate:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CertificateError(f"not valid JSON: {exc}") from None
    _require(isinstance(data, dict), "certificate must be a JSON object")
    mode = data.get("mode")
    _require(mode in MODES, f"mode must be one of {MODES}, got {quote(mode)}")
    expected = {"mode"}
    if mode != "equivalent":
        expected |= {"level", "tree", "count_g1", "count_g2"}
    if mode == "tree":
        expected |= {"m_per_level", "n_final"}
    _require(
        set(data) == expected,
        f"mode {mode} certificate must have exactly the fields {sorted(expected)}",
    )
    if mode == "equivalent":
        return Certificate()
    level = data["level"]
    _require(_is_int(level), "level must be an integer")
    tree_text = data["tree"]
    _require(isinstance(tree_text, str), "tree must be a string")
    try:
        parse_tree(tree_text)
    except ValueError as exc:
        raise CertificateError(f"embedded tree: {exc}") from None
    count_g1 = _parse_count(data["count_g1"], "count_g1")
    count_g2 = _parse_count(data["count_g2"], "count_g2")
    if mode == "single-node":
        _require(level == 0, "single-node certificate must have level 0")
        chain = ()
    else:
        _require(level >= 1, "tree certificate must have level >= 1")
        m_per_level = data["m_per_level"]
        _require(
            isinstance(m_per_level, list) and all(_is_int(m, 1) for m in m_per_level),
            "m_per_level must be a list of positive integers",
        )
        _require(len(m_per_level) == level - 1,
                 "m_per_level must have one entry per level from 2 to k")
        n_final = data["n_final"]
        _require(_is_int(n_final, 1), "n_final must be a positive integer")
        chain = (*m_per_level, n_final)
    return Certificate(chain, tree_text, count_g1, count_g2)


def _chain(mults: Sequence[int]) -> tuple[TreeArena, int]:
    """A leaf under roots repeating their one child mults[0], mults[1], ...
    times: the tree of every certificate, the empty chain at level 0."""
    arena = TreeArena()
    t = arena.leaf()
    for mult in mults:
        t = arena.attach([(t, mult)])
    return arena, t


def lift(
    labels: Sequence[Sequence[int]],
    level: int,
    base: Sequence[int],
    S: list[int],
) -> tuple[int, tuple[int, ...]]:
    """Least m >= 1 making the counts over S distinct, with the counts.

    labels[c] holds the level-(level-1) classes of the neighbors of a vertex
    of level-`level` class c, with repeats, in any order; `base` holds a
    count per level-(level-1) class, S lists non-isolated level-`level`
    classes, and the count of class c is the sum of base[r] ** m over r in
    labels[c]: the rooted count of one root over m copies of a tree whose
    level-(level-1) counts are `base`. Each candidate m sums one power
    vector base ** m over every label of the level, read through one gather
    per label built once per call, and the accepted sums are returned. By
    the Descartes bound in the module docstring some m up to
    1 + (|S| - 1) * sum over c in S of the number t(c) of distinct classes
    in labels[c] works when `base` is distinct and positive on the classes
    the labels refer to; past it, SynthesisInvariantError. As t(c) >= 1 on
    S, the bound is at least 1 + (|S| - 1) * |S|, and it is computed only
    once m reaches that. On return the sums over S are distinct and
    positive, so synthesize takes the last lift's sums as its final bases
    unchecked.
    """
    if not S:
        raise ValueError("class set must be nonempty")
    label_gathers = list(map(gather, labels))
    values = [sum(of_label(base)) for of_label in label_gathers]
    if min(values[c] for c in S) < 1:
        raise SynthesisInvariantError(
            f"nonpositive count at a non-isolated level-{level} class"
        )
    # b ** m > 0 exactly when b > 0, so later values stay positive.
    m, powers, bound = 1, base, None
    while len({values[c] for c in S}) < len(S):
        if m > (len(S) - 1) * len(S):
            bound = bound or 1 + (len(S) - 1) * sum(len(set(labels[c])) for c in S)
            if m == bound:
                raise SynthesisInvariantError(
                    f"no m <= {bound} makes the level-{level} counts distinct"
                )
        m += 1
        powers = [p * b for p, b in zip(powers, base)]
        values = [sum(of_label(powers)) for of_label in label_gathers]
    return m, tuple(values)


def synthesize(
    g1: Graph,
    g2: Graph,
    max_level: int | None = None,
) -> Certificate:
    """Distinguishing chain, tree and counts, or Certificate() if equivalent.

    Refinement (refine_to_difference) runs refine_verdict's driver, so an
    equivalent pair costs about what refine_verdict does, and on a pair
    first differing at level k hands over the driver's class ids and labels
    at levels 1..k. Each graph's level-k histogram over non-isolated
    classes is read only to choose n; no certificate byte depends on how
    classes are named. If no level differs up to stabilization, the graphs
    are equivalent; reaching max_level first raises InconclusiveError. At
    k = 0 the vertex counts differ and the empty chain, a lone leaf,
    distinguishes. Otherwise the construction runs at level k; the chain is
    the m each lift chose, then n. The emitted tree is counted once per
    graph, with one DP each, and checked per vertex against the level-k
    counts.
    """
    table, levels = refine_to_difference(g1, g2, max_level)
    if not table.distinguished:
        if not table.complete:
            raise InconclusiveError(f"inconclusive: no verdict by level {max_level}")
        return Certificate()
    k = table.distinguishing_level
    if k == 0:
        return Certificate((), serialize_tree(*_chain(())),
                           g1.vertex_count, g2.vertex_count)
    # s_1: a one-leaf star counts neighbors, the degree each class defines.
    counts = [len(label) for label in levels[0][1]]
    lifts = []
    for lvl, (_, labels) in enumerate(levels[1:], 2):
        # A class is non-isolated exactly when its label is non-empty.
        m, counts = lift(labels, lvl, counts, [c for c, label in enumerate(labels) if label])
        lifts.append(m)

    # Histograms over non-isolated vertices: at levels >= 1 a vertex is
    # isolated exactly when its label is the empty multiset. The vertex
    # counts agree, and so do the isolated ones at every level >= 1, so
    # these differ at k; refinement that breaks this fails the n-search.
    ids, labels = levels[-1]
    n1 = g1.vertex_count
    parts = (ids[:n1], ids[n1:])
    hist1, hist2 = ({c: count for c, count in Counter(part).items() if labels[c]}
                    for part in parts)
    s_k = hist1.keys() | hist2.keys()
    for n in range(1, len(s_k) + 1):
        c1 = sum(count * counts[c] ** n for c, count in hist1.items())
        c2 = sum(count * counts[c] ** n for c, count in hist2.items())
        if c1 != c2:
            break
    else:
        raise SynthesisInvariantError(
            f"no separating n within |S_k| = {len(s_k)} steps"
        )
    chain = (*lifts, n)
    arena, t = _chain(chain)
    # The tree's count at a vertex is fixed by its level-k label, so each
    # vertex must carry the count of its class, in either graph.
    expected = [c ** n for c in counts]
    for which, (graph, part) in enumerate(zip((g1, g2), parts)):
        if rooted_hom(arena, t, graph) != tuple(map(expected.__getitem__, part)):
            raise SynthesisInvariantError(
                f"graph {which + 1} counts of the emitted tree disagree with "
                f"the level-{k} counts"
            )
    return Certificate(chain, serialize_tree(arena, t), c1, c2)


def verify(cert: Certificate, g1: Graph, g2: Graph) -> bool:
    """Independently re-check a certificate against the two graphs.

    Recomputes from scratch: the claim of equivalence (chain None) re-runs
    the level comparison on the joint partition alone (refine_verdict).
    Every other claim, the lone leaf's empty chain included, has one check:
    the embedded tree must be the chain, whose length is the claimed level;
    then the graph DP recounts homomorphisms of the tree, which for a lone
    leaf are the vertex counts, and both must match plus differ.
    """
    if cert.chain is None:
        return refine_verdict(g1, g2, stop_at_difference=True)[0] is None
    arena, root = cert.tree()
    if arena.extract(root) != _chain(cert.chain):
        return False
    c1 = hom_count(arena, root, g1)
    c2 = hom_count(arena, root, g2)
    return c1 == cert.count_g1 and c2 == cert.count_g2 and c1 != c2
