"""Independent reference answers the benchmark checks wlhom's output against.

This shares no code with wlhom. The refinement interns labels by tuple
equality instead of wlhom's canonical order, so only order-free facts are
compared: histogram equality per level, the least differing level and the
stabilization round. The counting DP accumulates neighbor sums edge by edge
instead of walking adjacency lists.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from dataclasses import dataclass

from workloads import Graph


@dataclass(frozen=True)
class Verdict:
    """Reference outcome of the neighbor-multiset test on one pair.

    level: least level whose label histograms differ, None if none does.
    tree_level: least level >= 1 whose histograms over non-isolated vertices
    differ (the certificate's level), 0 when only isolated vertices differ.
    stable: stabilization round, set when the pair is equivalent.
    rounds_needed: the rounds a caller needs to reach the verdict, level for
    a distinguished pair and stable + 1 for an equivalent one.
    """

    level: int | None
    tree_level: int | None
    stable: int | None

    @property
    def distinguished(self) -> bool:
        return self.level is not None

    @property
    def rounds_needed(self) -> int:
        return self.level if self.distinguished else self.stable + 1


def _adjacency(g: Graph) -> list[list[int]]:
    n, edges = g
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def refine(g1: Graph, g2: Graph) -> Verdict:
    """Joint refinement until the verdict is settled."""
    adjs = (_adjacency(g1), _adjacency(g2))
    live = [[v for v, ns in enumerate(adj) if ns] for adj in adjs]
    labels = ([0] * g1[0], [0] * g2[0])
    level = 0 if g1[0] != g2[0] else None
    tree_level = None
    classes = 1
    k = 0
    while True:
        k += 1
        intern: dict[tuple[int, ...], int] = {}
        labels = tuple(
            [intern.setdefault(tuple(sorted(lab[w] for w in ns)), len(intern)) for ns in adj]
            for adj, lab in zip(adjs, labels)
        )
        if Counter(labels[0]) != Counter(labels[1]):
            level = k if level is None else level
            restricted = [Counter(lab[v] for v in vs) for lab, vs in zip(labels, live)]
            if restricted[0] != restricted[1]:
                tree_level = k
                break
        if len(intern) == classes:
            break
        classes = len(intern)
    if level is None:
        return Verdict(None, None, k - 1)
    return Verdict(level, tree_level if tree_level is not None else 0, None)


def parse_tree(text: str) -> tuple[list[list[tuple[int, int]]], int]:
    lines = text.splitlines()
    nodes = []
    for line in lines[1:-1]:
        tokens = line.split()[3:]
        nodes.append([(int(c), int(m)) for c, m in (t.split("*") for t in tokens)])
    return nodes, int(lines[-1].split()[1])


def tree_depth(nodes: list[list[tuple[int, int]]], root: int) -> int:
    depth: list[int] = []
    for kids in nodes:
        depth.append(1 + max(depth[c] for c, _ in kids) if kids else 0)
    return depth[root]


def hom_count(nodes: list[list[tuple[int, int]]], root: int, g: Graph) -> int:
    """hom(T, G) by the rooted DP, all exact integers."""
    n, edges = g
    rooted: dict[int, list[int]] = {}
    sums: dict[int, list[int]] = {}
    for t in range(root + 1):
        vec = [1] * n
        for c, m in nodes[t]:
            if c not in sums:
                x = rooted[c]
                s = [0] * n
                for u, v in edges:
                    s[u] += x[v]
                    s[v] += x[u]
                sums[c] = s
            s = sums[c]
            vec = [a * b**m for a, b in zip(vec, s)]
        rooted[t] = vec
    return sum(rooted[root])


@contextlib.contextmanager
def unlimited_digits():
    """Lift the int/str digit limit for the checker's own conversions."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
