"""Synthesis of distinguishing trees from label refinement.

Given two graphs whose label histograms differ at some level, construct an
explicit tree with provably different homomorphism counts into the two
graphs. The construction is a finite-search version of the inductive
argument behind the label test / homomorphism-count correspondence:

  level 1: stars. The rooted count of an n-leaf star at v is deg(v)^n, so
  for every n the count is strictly increasing across level-1 ranks. The
  count vector s_1 holds each level-1 rank's degree.

  level j -> j+1: the level-j tree is a root over copies of the level-(j-1)
  tree; with one copy its counts are s_j, with m copies s_j^m. One more
  root H_m above the m-copy tree has rooted count at v equal to the
  neighbor sum of those counts, which depends only on v's level-(j+1)
  label: h(H_m, rank) = sum over (r, k) in defs[rank] of k * s_j[r]^m.
  Search m = 1, 2, ... on these sums until they strictly increase over the
  non-isolated level-(j+1) ranks; sums at distinct ranks separate at
  exponentially different rates, so some m works. Its sums are s_(j+1).

  final: with distinct positive bases s_k[r], the difference of the two
  histogram-weighted sums is sum_r delta(r) * s_k[r]^n. If it vanished for
  n = 1..|S_k| the Vandermonde system would force every delta(r) to zero,
  so the least separating n is found within |S_k| steps.

So the search runs on one count vector per level, indexed by rank and read
from the level definitions alone, and the emitted tree is a chain: a leaf
under roots repeating their one child m_2, ..., m_k and n times. One graph
DP of it per graph cross-checks the last vector: every vertex must carry its
level-k rank's count, and the vertex sums must be the histogram-weighted
ones. Any mismatch raises SynthesisInvariantError, so nothing is emitted.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import pairwise

from .graphs import Graph
from .homs import hom_count, rooted_hom
from .trees import TreeArena, parse_tree, serialize_tree
from .wl import LabelTable, refine_to_difference, refine_verdict

DEFAULT_LIFT_CEILING = 10_000

MODES = ("tree", "single-node", "equivalent")


class SynthesisInvariantError(RuntimeError):
    """An identity the construction relies on failed; signals a bug."""


class LiftCeilingError(RuntimeError):
    """No m up to the ceiling ordered the ranks; signals a bug."""

    def __init__(self, level: int, ceiling: int):
        self.level = level
        self.ceiling = ceiling
        super().__init__(
            f"no m <= {ceiling} orders the level-{level} ranks; this should "
            "be impossible for valid inputs"
        )


class CertificateError(ValueError):
    """Certificate JSON is malformed."""


class InconclusiveError(ValueError):
    """The level cap was reached before a difference or stabilization."""


def _check_ceiling(ceiling: int) -> None:
    if ceiling < 1:
        raise ValueError(f"lift ceiling must be >= 1, got {ceiling}")


@dataclass(frozen=True)
class Certificate:
    """Transcript of a synthesis run, sufficient for independent checking.

    mode "tree": level k, the m chosen at each lift (levels 2..k), the
    final n, the tree itself (tree file format), both counts, and the
    level-k histograms the inequality was read off from. mode
    "single-node": a lone leaf whose counts are the vertex counts. mode
    "equivalent": no further fields.
    """

    mode: str
    level: int | None = None
    m_per_level: tuple[int, ...] | None = None
    n_final: int | None = None
    tree_text: str | None = None
    count_g1: int | None = None
    count_g2: int | None = None
    histograms: tuple[tuple[int, int, int], ...] | None = None

    def tree(self) -> tuple[TreeArena, int]:
        if self.tree_text is None:
            raise ValueError(f"mode {self.mode} certificate carries no tree")
        return parse_tree(self.tree_text)


def certificate_to_json(cert: Certificate) -> str:
    """Canonical JSON form; counts become decimal strings."""
    payload: dict = {"mode": cert.mode}
    if cert.mode != "equivalent":
        payload["level"] = cert.level
        payload["tree"] = cert.tree_text
        payload["count_g1"] = str(cert.count_g1)
        payload["count_g2"] = str(cert.count_g2)
    if cert.mode == "tree":
        payload["m_per_level"] = list(cert.m_per_level)
        payload["n_final"] = cert.n_final
        payload["histograms"] = [
            {"rank": r, "g1": c1, "g2": c2} for r, c1, c2 in cert.histograms
        ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CertificateError(message)


def _parse_count(value: object, field: str) -> int:
    _require(isinstance(value, str), f"{field} must be a decimal string")
    _require(value.isascii() and value.isdigit(),
             f"{field} must be a nonnegative decimal string")
    _require(value == "0" or not value.startswith("0"),
             f"{field} has a leading zero")
    return int(value)


def certificate_from_json(text: str) -> Certificate:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CertificateError(f"not valid JSON: {exc}") from None
    _require(isinstance(data, dict), "certificate must be a JSON object")
    mode = data.get("mode")
    _require(mode in MODES, f"mode must be one of {MODES}, got {mode!r}")
    expected = {"mode"}
    if mode != "equivalent":
        expected |= {"level", "tree", "count_g1", "count_g2"}
    if mode == "tree":
        expected |= {"m_per_level", "n_final", "histograms"}
    _require(
        set(data) == expected,
        f"mode {mode} certificate must have exactly the fields {sorted(expected)}",
    )
    if mode == "equivalent":
        return Certificate(mode=mode)
    level = data["level"]
    _require(isinstance(level, int) and not isinstance(level, bool),
             "level must be an integer")
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
        return Certificate(
            mode=mode, level=0, tree_text=tree_text,
            count_g1=count_g1, count_g2=count_g2,
        )
    _require(level >= 1, "tree certificate must have level >= 1")
    m_per_level = data["m_per_level"]
    _require(
        isinstance(m_per_level, list)
        and all(isinstance(m, int) and not isinstance(m, bool) and m >= 1
                for m in m_per_level),
        "m_per_level must be a list of positive integers",
    )
    _require(len(m_per_level) == level - 1,
             "m_per_level must have one entry per level from 2 to k")
    n_final = data["n_final"]
    _require(isinstance(n_final, int) and not isinstance(n_final, bool)
             and n_final >= 1, "n_final must be a positive integer")
    raw_hist = data["histograms"]
    _require(isinstance(raw_hist, list) and raw_hist,
             "histograms must be a nonempty list")
    histograms = []
    for row in raw_hist:
        _require(
            isinstance(row, dict) and set(row) == {"rank", "g1", "g2"}
            and all(isinstance(row[f], int) and not isinstance(row[f], bool)
                    and row[f] >= 0 for f in ("rank", "g1", "g2")),
            "each histogram row must be {rank, g1, g2} with nonnegative integers",
        )
        histograms.append((row["rank"], row["g1"], row["g2"]))
    return Certificate(
        mode=mode,
        level=level,
        m_per_level=tuple(m_per_level),
        n_final=n_final,
        tree_text=tree_text,
        count_g1=count_g1,
        count_g2=count_g2,
        histograms=tuple(histograms),
    )


def base_family(arena: TreeArena, n: int) -> int:
    """Star with n children, the base of every chain: rooted counts deg(v)^n."""
    if n < 1:
        raise ValueError(f"family index must be >= 1, got {n}")
    leaf = arena.leaf()
    return arena.attach([(leaf, n)])


def _first_descent(values: Iterable[int]) -> int | None:
    """Index of the first adjacent pair not strictly increasing, or None."""
    return next((i for i, (a, b) in enumerate(pairwise(values)) if a >= b), None)


def lift(
    labels: LabelTable,
    level: int,
    base: Sequence[int],
    S: list[int],
    ceiling: int = DEFAULT_LIFT_CEILING,
) -> tuple[int, tuple[int, ...]]:
    """Least m >= 1 ordering S, with the level-`level` counts it gives.

    `base` holds a count per level-(level-1) rank, S lists non-isolated
    level-`level` ranks, and the count at rank r is the sum over (r', k) in
    defs_level[r] of k * base[r'] ** m: the rooted count of one root over m
    copies of a tree whose level-(level-1) counts are `base`. Returns m and
    that sum at every rank of the level. The search keeps one power vector
    base ** m: it first re-checks the pair of adjacent ranks that failed at
    m - 1, and only a candidate passing it gets the full ascending scan,
    which stops at the first pair out of order.
    """
    if not S:
        raise ValueError("rank set must be nonempty")
    _check_ceiling(ceiling)
    order = sorted(S)
    defs = labels.defs_at(level)
    powers = base

    def value(rank: int) -> int:
        return sum(k * powers[r] for r, k in defs[rank])

    values = [value(rank) for rank in order]
    if min(values) < 1:
        raise SynthesisInvariantError(
            f"nonpositive count at a non-isolated level-{level} rank"
        )
    # b ** m > 0 exactly when b > 0, so later values stay positive.
    stuck = _first_descent(values)
    m = 1
    while stuck is not None:
        if m == ceiling:
            raise LiftCeilingError(level, ceiling)
        m += 1
        powers = [p * b for p, b in zip(powers, base)]
        if value(order[stuck]) < value(order[stuck + 1]):
            stuck = _first_descent(map(value, order))
    return m, tuple(map(value, range(len(defs))))


def synthesize(
    g1: Graph,
    g2: Graph,
    max_level: int | None = None,
    lift_ceiling: int = DEFAULT_LIFT_CEILING,
) -> Certificate:
    """Distinguishing tree plus transcript, or an equivalent-mode certificate.

    Refinement (refine_to_difference) stops at k, the distinguishing level,
    and builds canonical ranks only for levels up to k; once a round moves
    at most half of the vertices the rest of the search runs on the
    worklist, so an equivalent pair costs about what refine_verdict does.
    Only the non-isolated level-k histograms are read. If no level differs
    up to stabilization, the graphs are equivalent; reaching max_level
    first raises InconclusiveError. If the level-k histograms agree over
    non-isolated vertices, the difference lies in isolated vertices alone,
    the vertex counts must differ and a lone leaf distinguishes. Otherwise
    the construction runs at level k. The emitted tree is counted once per
    graph, with one DP each, and checked per vertex against the level-k
    counts.
    """
    _check_ceiling(lift_ceiling)
    labels = refine_to_difference(g1, g2, max_level)
    if not labels.distinguished:
        if not labels.complete:
            raise InconclusiveError(f"inconclusive: no verdict by level {max_level}")
        return Certificate(mode="equivalent")
    k = labels.distinguishing_level
    # Histograms over non-isolated vertices: at levels >= 1 a vertex is
    # isolated exactly when its label is the empty multiset, and at level 0
    # every label is empty. Below k the full histograms agree, so these
    # can first differ only at k.
    hist1, hist2 = (
        {r: c for r, c in labels.histogram(which, k).items() if labels.defs_at(k)[r]}
        for which in (0, 1)
    )
    if hist1 == hist2:
        # Difference is confined to isolated vertices (or is the level-0
        # size mismatch itself), so the totals cannot agree.
        if g1.vertex_count == g2.vertex_count:
            raise SynthesisInvariantError(
                "equal vertex counts with equal non-isolated histograms at "
                f"distinguishing level {k}"
            )
        arena = TreeArena()
        root = arena.leaf()
        return Certificate(
            mode="single-node",
            level=0,
            tree_text=serialize_tree(arena, root),
            count_g1=g1.vertex_count,
            count_g2=g2.vertex_count,
        )

    # s_1: a one-leaf star counts neighbors, the degree each rank defines.
    counts = [sum(mult for _, mult in label) for label in labels.defs_at(1)]
    m_per_level = []
    for lvl in range(2, k + 1):
        # Every rank is some vertex's, so the non-isolated ones are those
        # with a non-empty definition.
        s_lvl = [r for r, label in enumerate(labels.defs_at(lvl)) if label]
        m, counts = lift(labels, lvl, counts, s_lvl, lift_ceiling)
        m_per_level.append(m)

    s_k = sorted(set(hist1) | set(hist2))
    if not all(counts[r] >= 1 for r in s_k):
        raise SynthesisInvariantError("nonpositive base count at a non-isolated rank")
    if not all(counts[a] < counts[b] for a, b in zip(s_k, s_k[1:])):
        raise SynthesisInvariantError(
            f"level-{k} base counts are not strictly increasing across ranks"
        )
    for n in range(1, len(s_k) + 1):
        c1 = sum(c * counts[r] ** n for r, c in hist1.items())
        c2 = sum(c * counts[r] ** n for r, c in hist2.items())
        if c1 != c2:
            break
    else:
        raise SynthesisInvariantError(
            f"no separating n within |S_k| = {len(s_k)} steps"
        )
    mults = (*m_per_level, n)
    arena = TreeArena()
    t = base_family(arena, mults[0])
    for mult in mults[1:]:
        t = arena.attach([(t, mult)])
    # The tree's count at a vertex is fixed by its level-k label, so each
    # vertex must carry the count of its rank, in either graph.
    expected = [c ** n for c in counts]
    vectors = (rooted_hom(arena, t, g1), rooted_hom(arena, t, g2))
    for which, vector in enumerate(vectors):
        ranks = labels.ranks_at(which, k)
        if any(x != expected[r] for x, r in zip(vector, ranks)):
            raise SynthesisInvariantError(
                f"graph {which + 1} counts of the emitted tree disagree with "
                f"the level-{k} counts"
            )
    if (c1, c2) != tuple(map(sum, vectors)):
        raise SynthesisInvariantError(
            f"histogram-weighted sums disagree with the vertex sums at n={n}"
        )
    return Certificate(
        mode="tree",
        level=k,
        m_per_level=tuple(m_per_level),
        n_final=n,
        tree_text=serialize_tree(arena, t),
        count_g1=c1,
        count_g2=c2,
        histograms=tuple(
            (r, hist1.get(r, 0), hist2.get(r, 0)) for r in s_k
        ),
    )


def verify(cert: Certificate, g1: Graph, g2: Graph) -> bool:
    """Independently re-check a certificate against the two graphs.

    Recomputes from scratch: equivalent mode re-runs the level comparison
    on the joint partition alone (refine_verdict);
    single-node mode checks the counts are the vertex counts and differ;
    tree mode recounts homomorphisms of the embedded tree with the graph
    DP and requires both matches plus a strict difference.
    """
    if cert.mode not in MODES:
        raise CertificateError(f"unknown mode {cert.mode!r}")
    if cert.mode == "equivalent":
        return refine_verdict(g1, g2, stop_at_difference=True)[0] is None
    arena, root = cert.tree()
    if cert.mode == "single-node":
        return (
            arena.children(root) == ()
            and cert.count_g1 == g1.vertex_count
            and cert.count_g2 == g2.vertex_count
            and cert.count_g1 != cert.count_g2
        )
    c1 = hom_count(arena, root, g1)
    c2 = hom_count(arena, root, g2)
    return c1 == cert.count_g1 and c2 == cert.count_g2 and c1 != c2
