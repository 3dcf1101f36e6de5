"""Simple undirected graphs and their plain-text edge-list format.

Vertices are 0-based indices. Graphs are immutable once built; self-loops
and duplicate edges are rejected outright so corpus mistakes surface early.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class GraphFormatError(ValueError):
    """Malformed graph input; carries the 1-based source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1."""

    __slots__ = ("vertex_count", "edges", "adjacency")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise GraphFormatError(f"negative vertex count {vertex_count}")
        edge_set: set[tuple[int, int]] = set()
        neighbors: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in edges:
            for x in (u, v):
                if not 0 <= x < vertex_count:
                    raise GraphFormatError(
                        f"vertex index {x} out of range [0, {vertex_count})"
                    )
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in edge_set:
                raise GraphFormatError(f"duplicate edge {key[0]} {key[1]}")
            edge_set.add(key)
            neighbors[u].append(v)
            neighbors[v].append(u)
        self.vertex_count = vertex_count
        self.edges = frozenset(edge_set)
        self.adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        if not 0 <= u < self.vertex_count:
            raise IndexError(f"vertex index {u} out of range [0, {self.vertex_count})")
        return len(self.adjacency[u])

    def isolated_vertices(self) -> frozenset[int]:
        return frozenset(v for v in range(self.vertex_count) if not self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self.edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, {sorted(self.edges)})"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header ``N M`` then M lines ``u v``.

    Lines starting with ``#`` and blank lines are skipped. All failures
    raise GraphFormatError with the offending line number.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphFormatError(
                    f"header must be two integers 'N M', got {line!r}", lineno
                )
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError(
                    f"header must be two integers 'N M', got {line!r}", lineno
                ) from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"negative count in header {line!r}", lineno)
            header = (n, m)
            continue
        if len(fields) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {line!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(
                f"edge line must be 'u v', got {line!r}", lineno
            ) from None
        edges.append((u, v))
        edge_lines.append(lineno)
    if header is None:
        raise GraphFormatError("missing 'N M' header line")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(
            f"header announces {m} edges but file contains {len(edges)}"
        )
    # The constructor validates the edges in file order and stops at the
    # first bad one, which is the last one the iterator handed out.
    edge_line = 0

    def numbered():
        nonlocal edge_line
        for edge, edge_line in zip(edges, edge_lines):
            yield edge

    try:
        return Graph(n, numbered())
    except GraphFormatError as exc:
        raise GraphFormatError(exc.args[0], edge_line) from None


def serialize_graph(g: Graph, comments: Sequence[str] = ()) -> str:
    """Inverse of parse_graph; edges sorted for byte-stable output."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.vertex_count} {g.edge_count}")
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices: vertex v of g becomes perm[v] of the result."""
    if sorted(perm) != list(range(g.vertex_count)):
        raise ValueError(
            f"perm must be a permutation of 0..{g.vertex_count - 1}, got {list(perm)!r}"
        )
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def empty_graph(n: int = 0) -> Graph:
    return Graph(n, [])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Center is vertex 0 with the given number of leaves."""
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shift = g1.vertex_count
    edges = list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges]
    return Graph(g1.vertex_count + g2.vertex_count, edges)
