"""Succinct rooted trees: a DAG arena where children carry multiplicities.

A node with children [(c, 3)] stands for three copies of the subtree rooted
at c. Shared subtrees are stored once, so trees whose explicit form is
exponentially large stay polynomial-size here. Node ids are topological:
every child id is strictly smaller than its parent's.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from .graphs import FormatError, quote, spell, too_long


class TreeFormatError(FormatError):
    """Malformed tree file."""


class ExpansionLimitError(ValueError):
    """Explicit expansion refused; .size holds the exact explicit node count."""

    def __init__(self, size: int, max_nodes: int):
        self.size = size
        self.max_nodes = max_nodes
        super().__init__(
            f"explicit tree has {size} nodes, exceeding the limit of {max_nodes}"
        )


class TreeArena:
    """Append-only store of tree nodes; ids index into construction order."""

    def __init__(self):
        self._children: list[tuple[tuple[int, int], ...]] = []

    def __len__(self) -> int:
        return len(self._children)

    def leaf(self) -> int:
        self._children.append(())
        return len(self._children) - 1

    def attach(self, children: Iterable[tuple[int, int]]) -> int:
        """New node with the given (child id, multiplicity) list.

        Duplicate child ids are merged by summing multiplicities; the stored
        list is sorted by child id, so structurally equal calls produce
        structurally equal nodes.
        """
        merged: dict[int, int] = {}
        for child, mult in children:
            if not 0 <= child < len(self._children):
                raise ValueError(f"unknown child node id {child}")
            if mult < 1:
                raise ValueError(f"multiplicity {mult} < 1 for child {child}")
            merged[child] = merged.get(child, 0) + mult
        self._children.append(tuple(sorted(merged.items())))
        return len(self._children) - 1

    def children(self, t: int) -> tuple[tuple[int, int], ...]:
        if not 0 <= t < len(self._children):
            raise ValueError(f"unknown node id {t}")
        return self._children[t]

    def reachable(self, t: int) -> list[int]:
        """Node ids in the subtree DAG of t, ascending (children first)."""
        self.children(t)
        seen = {t}
        stack = [t]
        while stack:
            node = stack.pop()
            for child, _ in self._children[node]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return sorted(seen)

    def depth(self, t: int) -> int:
        depths: dict[int, int] = {}
        for node in self.reachable(t):
            kids = self._children[node]
            depths[node] = 1 + max(depths[c] for c, _ in kids) if kids else 0
        return depths[t]

    def explicit_size(self, t: int) -> int:
        """Node count of the fully expanded tree; exact, may be huge."""
        sizes: dict[int, int] = {}
        for node in self.reachable(t):
            sizes[node] = 1 + sum(mult * sizes[c] for c, mult in self._children[node])
        return sizes[t]

    def extract(self, t: int) -> tuple[TreeArena, int]:
        """Compact copy containing only the subtree DAG of t."""
        nodes = self.reachable(t)
        remap = {old: new for new, old in enumerate(nodes)}
        out = TreeArena()
        for old in nodes:
            out.attach((remap[c], m) for c, m in self._children[old])
        return out, remap[t]


def serialize_tree(arena: TreeArena, root: int) -> str:
    """Tree file format; always emits the compacted subtree of root."""
    compact, croot = arena.extract(root)
    lines = [f"T {len(compact)}"]
    for node in range(len(compact)):
        parts = " ".join(f"{c}*{m}" for c, m in compact.children(node))
        lines.append(f"node {node} :" + (f" {parts}" if parts else ""))
    lines.append(f"root {croot}")
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> tuple[TreeArena, int]:
    lines = text.splitlines()
    if not lines:
        raise TreeFormatError("empty tree file")
    fields = lines[0].split()
    if len(fields) != 2 or fields[0] != "T":
        raise TreeFormatError(f"expected 'T <node_count>', got {quote(lines[0])}", 1)
    try:
        count = int(fields[1])
    except ValueError:
        raise TreeFormatError(
            too_long(fields[1:]) or f"bad node count {quote(fields[1])}", 1) from None
    if count < 1:
        raise TreeFormatError(f"node count must be >= 1, got {spell(count)}", 1)
    if len(lines) != count + 2:
        raise TreeFormatError(f"expected {spell(count)} node lines plus a root "
                              f"line, found {len(lines) - 1}")
    arena = TreeArena()
    for node in range(count):
        lineno = node + 2
        line = lines[node + 1]
        fields = line.split()
        if len(fields) < 3 or fields[0] != "node" or fields[2] != ":":
            raise TreeFormatError(
                f"expected 'node {node} : ...', got {quote(line)}", lineno)
        if fields[1] != str(node):
            raise TreeFormatError(
                f"node ids must be consecutive; expected {node}, got {quote(fields[1])}",
                lineno,
            )
        children = []
        for token in fields[3:]:
            child_str, sep, mult_str = token.partition("*")
            if not sep:
                raise TreeFormatError(f"bad child token {quote(token)}", lineno)
            try:
                child, mult = int(child_str), int(mult_str)
            except ValueError:
                raise TreeFormatError(
                    too_long((child_str, mult_str)) or f"bad child token {quote(token)}",
                    lineno) from None
            if not 0 <= child < node:
                raise TreeFormatError(
                    f"child id {spell(child)} must be in [0, {node})", lineno
                )
            if mult < 1:
                raise TreeFormatError(f"multiplicity {spell(mult)} < 1", lineno)
            children.append((child, mult))
        arena.attach(children)
    fields = lines[count + 1].split()
    if len(fields) != 2 or fields[0] != "root":
        raise TreeFormatError(
            f"expected 'root <id>', got {quote(lines[count + 1])}", count + 2
        )
    try:
        root = int(fields[1])
    except ValueError:
        raise TreeFormatError(
            too_long(fields[1:]) or f"bad root id {quote(fields[1])}", count + 2) from None
    if not 0 <= root < count:
        raise TreeFormatError(f"root id {spell(root)} out of range", count + 2)
    return arena, root


def expand_tree(
    arena: TreeArena, t: int, max_nodes: int = 100_000
) -> tuple[int, list[tuple[int, int]]]:
    """Explicit rooted tree as (node_count, parent-child edges), BFS ids.

    The root gets id 0. Refuses (with the exact explicit size) when the
    expansion would exceed max_nodes.
    """
    size = arena.explicit_size(t)
    if size > max_nodes:
        raise ExpansionLimitError(size, max_nodes)
    edges: list[tuple[int, int]] = []
    next_id = 1
    queue = deque([(t, 0)])
    while queue:
        node, node_id = queue.popleft()
        for child, mult in arena.children(node):
            for _ in range(mult):
                edges.append((node_id, next_id))
                queue.append((child, next_id))
                next_id += 1
    assert next_id == size
    return size, edges
