"""Seeded inputs for the three benchmark workloads.

Everything here depends only on the seed and on this file, so two runs
with the same seed write byte-identical input files. Nothing here imports
wlhom: the program under test only ever sees the files written out.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

Graph = tuple[int, list[tuple[int, int]]]  # (vertex count, sorted edges u < v)
Tree = list[list[tuple[int, int]]]  # node -> [(child, multiplicity)], children first


def gnp(n: int, d: float, rng: random.Random) -> Graph:
    """G(n, d/(n-1)) by geometric skipping over the pairs u < v."""
    p = d / (n - 1)
    log_q = math.log(1.0 - p)
    edges = []
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return n, sorted(edges)


def double_edge_swap(g: Graph, rng: random.Random) -> Graph:
    """One degree-preserving swap ab, cd -> ad, cb that keeps the graph simple."""
    n, edges = g
    present = set(edges)
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        ad = (min(a, d), max(a, d))
        cb = (min(c, b), max(c, b))
        if ad in present or cb in present:
            continue
        present -= {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
        present |= {ad, cb}
        return n, sorted(present)


def permuted(g: Graph, rng: random.Random) -> Graph:
    n, edges = g
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def path(n: int) -> Graph:
    return n, [(i, i + 1) for i in range(n - 1)]


def two_paths(n: int) -> Graph:
    half = n // 2
    return n, [(i, i + 1) for i in range(n - 1) if i != half - 1]


def caterpillar(spine: int, pendants: list[int]) -> Graph:
    """Path on `spine` vertices with one extra leaf hung off each listed position."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(p, spine + j) for j, p in enumerate(pendants)]
    return spine + len(pendants), sorted(edges)


def blow_up(g: Graph, t: int) -> Graph:
    """Lexicographic product with t independent copies of each vertex.

    Every label scales by t and level differences are kept, so the pair
    stays distinguished at the same level while growing t-fold in vertices
    and t^2-fold in edges.
    """
    n, edges = g
    out = [
        (u * t + i, v * t + j) for u, v in edges for i in range(t) for j in range(t)
    ]
    return n * t, sorted((min(a, b), max(a, b)) for a, b in out)


def graph_text(g: Graph) -> str:
    n, edges = g
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def tree_text(tree: Tree) -> str:
    lines = [f"T {len(tree)}"]
    for i, kids in enumerate(tree):
        parts = "".join(f" {c}*{m}" for c, m in kids)
        lines.append(f"node {i} :{parts}")
    lines.append(f"root {len(tree) - 1}")
    return "\n".join(lines) + "\n"


@dataclass
class Item:
    """One closed-loop item: compare -> synthesize -> verify on a pair, then
    one hom-count.

    In `swap` and `long-refine` the hom-count counts the certificate's own
    tree into g1 (skipped when the pair is equivalent and there is no tree);
    in `hom-count` it counts `tree` into `host` and the pair is small.
    """

    label: str
    g1: Graph
    g2: Graph
    equivalent: bool = False  # equivalent by construction (a permuted copy)
    tree: Tree | None = None
    host: Graph | None = None

    @property
    def dense(self) -> bool:
        """Average degree of g1 is 16 or more."""
        n, edges = self.g1
        return 2 * len(edges) >= 16 * n


# (n, average degree), spread over n 300-1000 and degree 4-32 so the
# latency distribution has no wide gap for a percentile to jump across.
# Sparse pairs spend synthesize in refinement, dense ones in the level-2
# lift; the order interleaves them so any prefix of a pass has both.
SWAP_SHAPES = [
    (300, 4), (300, 32), (350, 8), (400, 16), (1000, 4), (300, 20),
    (450, 6), (300, 12), (500, 10), (350, 5), (600, 6), (350, 24),
    (400, 4), (800, 4), (500, 5), (300, 8),
]


def level2_differs(g1: Graph, g2: Graph) -> bool:
    """Do the multisets of neighbor-degree multisets differ?"""

    def profile(g: Graph) -> Counter:
        n, edges = g
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return Counter(tuple(sorted(len(nbrs[w]) for w in ns)) for ns in nbrs)

    return profile(g1) != profile(g2)


def level2_swap(g: Graph, rng: random.Random) -> Graph:
    """A double-edge swap of g that changes level 2, drawn again until it does.

    Rare swaps leave level 2 unchanged and first differ deeper, where the
    lift's counts grow by orders of magnitude; the swap workloads are
    defined as pairs that first differ at level 2.
    """
    while not level2_differs(g, h := double_edge_swap(g, rng)):
        pass
    return h


def swap_pool(rng: random.Random) -> list[Item]:
    items = []
    for n, d in SWAP_SHAPES:
        g = gnp(n, d, rng)
        items.append(Item(f"swap n={n} d={d}", g, level2_swap(g, rng)))
    return items


# Paths against permuted copies (equivalent, refined to the end three
# times per item) and against two half paths (differ at level 1, stabilize
# after ~n/2 rounds); caterpillar blow-ups (n, level) differ first at 5-11.
LONG_PATHS = [200, 300]
LONG_CATERPILLARS = [
    (200, 5), (300, 8), (250, 11), (400, 7), (200, 9), (300, 6), (250, 10), (350, 5),
]


def long_refine_pool(rng: random.Random) -> list[Item]:
    items = []
    for n in LONG_PATHS:
        items.append(Item(f"path n={n} permuted", path(n), permuted(path(n), rng), True))
        items.append(Item(f"path n={n} vs 2 paths", path(n), two_paths(n)))
    for j, (n, level) in enumerate(LONG_CATERPILLARS):
        # A lone pendant at p vs p+1 on a long spine first differs at
        # level (p + 3) // 2; the spine is kept long enough that p + 1 is
        # not p's mirror image. Sizes are fixed so the seed only relabels.
        p = 2 * level - 3
        spine = 2 * p + 4 + j % 4
        t = max(1, round(n / (spine + 1)))
        g1 = blow_up(permuted(caterpillar(spine, [p]), rng), t)
        g2 = blow_up(permuted(caterpillar(spine, [p + 1]), rng), t)
        items.append(Item(f"caterpillar n={g1[0]} level={level}", g1, g2))
    return items


# Target count sizes in bits, log-spaced from a few hundred to past the
# 4300-decimal-digit (~14,300-bit) str limit, so today's refusals stay in.
HOM_SLOTS = 24
HOM_BITS = (400, 20_000)
HOM_HOSTS = [(600, 12), (800, 8), (1000, 6), (500, 24)]


def sized_tree(depth: int, bits: float, log2_deg: float, rng: random.Random) -> Tree:
    """Chain of `depth` levels whose explicit size gives about `bits` bits.

    Each explicit tree vertex below the root multiplies the count by about
    the average degree, so the multiplicities along the chain multiply to
    about bits / log2(degree), split evenly and each capped at 100. The
    root also takes the leaf as a direct child, so the leaf is shared; its
    multiplicity there is the seeded part, and barely moves the count, so
    each slot's cost is the same for every seed.
    """
    remaining = max(2.0, bits / log2_deg)
    nodes: Tree = [[]]
    for j in range(depth):
        mult = max(1, min(100, round(remaining ** (1 / (depth - j)))))
        remaining /= mult
        nodes.append([(j, mult)])
    nodes[-1] = [(0, rng.randint(1, 3))] + nodes[-1]
    return nodes


def hom_count_pool(rng: random.Random) -> list[Item]:
    items = []
    lo, hi = (math.log2(b) for b in HOM_BITS)
    for j in range(HOM_SLOTS):
        bits = 2 ** (lo + (hi - lo) * j / (HOM_SLOTS - 1))
        depth = 2 + j % 4
        n, d = HOM_HOSTS[j % len(HOM_HOSTS)]
        host = gnp(n, d, rng)
        tree = sized_tree(depth, bits, math.log2(d), rng)
        small = gnp(12 + 2 * (j % 8), 4, rng)
        items.append(Item(
            f"tree depth={depth} ~{round(bits)} bits into n={n} d={d}",
            small, level2_swap(small, rng), tree=tree, host=host,
        ))
    return items


POOLS = {"swap": swap_pool, "long-refine": long_refine_pool, "hom-count": hom_count_pool}


def build_pool(workload: str, seed: int) -> list[Item]:
    return POOLS[workload](random.Random(f"{workload}:{seed}"))
