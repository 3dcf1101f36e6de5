"""Simple undirected graphs and their plain-text edge-list format.

Vertices are 0-based indices. A graph is its vertex count and its sorted
adjacency lists. The edge set is derived from them on each use; one
neighbor gather per vertex is built on first use and kept. A gather (see
`gather`) reads a vertex's neighbor values out of any per-vertex sequence
in one C-level call, and is how canonical refinement rounds, the lift and
the counting DP read neighbors; refinement's worklist reads only the
adjacency of the vertices that moved. Graphs are immutable once built;
self-loops and duplicate edges are rejected outright so corpus mistakes
surface early.

A plain file, the header line and then one ``u v`` line per edge, each
line two numbers in ASCII digits without leading zeros, one blank or tab
between them and nothing else, with LF or CRLF line ends, the last one
optional, and no comments or blank lines, is read in bulk (`_read_bulk`):
one translate tests its shape and one ``json.loads`` reads every number.
Any other file is read line by line. Either way the adjacency build itself
checks each vertex index's range, self-loops and duplicates are then checked
over all edges at once, and an error has the same text and names the same
line.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter

_SHAPE = str.maketrans("\t", " ", "0123456789")
_COMMAS = str.maketrans(" \t\n", ",,,")


class FormatError(ValueError):
    """Malformed input text; carries the 1-based source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphFormatError(FormatError):
    """Malformed graph input."""


def gather(idx: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """A callable taking seq to the sequence of seq[i] for i in idx, in
    order, repeats included; idx holds nonnegative indices.

    An itemgetter returns a bare item for one index, so one index and none
    become slices, which keep the result a sequence.
    """
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(slice(0))


class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1.

    `edges` is derived from the adjacency on each use; `gathers` is built on
    first use and kept.
    """

    __slots__ = ("vertex_count", "adjacency", "_gathers")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise GraphFormatError(f"negative vertex count {vertex_count}")
        edges = list(edges)
        self.vertex_count = vertex_count
        self.adjacency = _adjacency(
            vertex_count, [u for u, _ in edges], [v for _, v in edges]
        )
        self._gathers: tuple[Callable[[Sequence], Sequence], ...] | None = None

    @classmethod
    def _from_adjacency(cls, vertex_count: int, adjacency) -> Graph:
        g = cls.__new__(cls)
        g.vertex_count, g.adjacency, g._gathers = vertex_count, adjacency, None
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edges as (u, v) with u < v."""
        return frozenset(
            (u, v) for u, ns in enumerate(self.adjacency) for v in ns if u < v
        )

    @property
    def gathers(self) -> tuple[Callable[[Sequence], Sequence], ...]:
        """gathers[v](values) is v's neighbors' values, in adjacency order."""
        if self._gathers is None:
            self._gathers = tuple(map(gather, self.adjacency))
        return self._gathers

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.vertex_count and v in self.adjacency[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash(self.adjacency)

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, {sorted(self.edges)})"


def _adjacency(
    n: int, us: Sequence[int], vs: Sequence[int], lines: Sequence[int] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor tuples of the graph on n vertices with edges (us[i], vs[i]).

    The build itself checks the range: an index at or past n, below -n or
    past sys.maxsize stops it with IndexError, and one in [-n, -1], which a
    list takes, lands in the other endpoint's row and is that sorted row's
    first entry. Repeated neighbors are then checked over all edges at once;
    only when a check fails are the edges scanned in order, so the error
    names the first bad edge, at line lines[i] when lines are given.
    """
    neighbors: list[list[int]] = [[] for _ in range(n)]
    try:
        for u, v in zip(us, vs):
            neighbors[u].append(v)
            neighbors[v].append(u)
    except IndexError:
        pass
    else:
        for ns in neighbors:
            ns.sort()
        adjacency = tuple(map(tuple, neighbors))
        # a wrapped negative index leads its row; a duplicate edge or a
        # self-loop repeats a neighbor
        if (min(map(itemgetter(0), filter(None, adjacency)), default=0) >= 0
                and sum(map(len, map(set, adjacency))) == 2 * len(us)):
            return adjacency
    i, message = _first_bad_edge(n, us, vs)
    raise GraphFormatError(message, None if lines is None else lines[i])


def _first_bad_edge(n: int, us: Sequence[int], vs: Sequence[int]) -> tuple[int, str]:
    """Position and error of the first bad edge; some edge must be bad."""
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(zip(us, vs)):
        for x in (u, v):
            if not 0 <= x < n:
                return i, f"vertex index {spell(x)} out of range [0, {n})"
        if u == v:
            return i, f"self-loop at vertex {u}"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return i, f"duplicate edge {key[0]} {key[1]}"
        seen.add(key)
    raise AssertionError("a bulk edge check failed but no edge is bad")


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header ``N M`` then M lines ``u v``.

    Lines starting with ``#`` and blank lines are skipped. All failures
    raise GraphFormatError with the offending line number. A plain file
    (see the module docstring) is read in bulk, any other line by line,
    with the same result and the same errors.
    """
    numbers = _read_bulk(text)
    if numbers is not None:
        n, m = numbers[:2]
        us, vs, lines = numbers[2::2], numbers[3::2], range(2, len(numbers) // 2 + 1)
    else:
        n, m, us, vs, lines = _read_lines(text)
    if len(us) != m:
        raise GraphFormatError(
            f"header announces {spell(m)} edges but file contains {len(us)}"
        )
    return Graph._from_adjacency(n, _adjacency(n, us, vs, lines))


def _read_bulk(text: str) -> list[int] | None:
    """Every number of a plain file, header first, or None for any other
    text; from a plain text `_read_lines` reads the same numbers.

    CRLF is folded into LF in the text, not in its shape, where a bare CR
    could meet an LF, and one last LF is dropped. With the digits deleted
    and a tab taken for a blank, a plain text leaves " \\n" repeated and one
    " " more; a CR left over fails that, as `str.splitlines` breaks a line
    there. ``json.loads`` reads the digit runs as one list and fails exactly
    on an empty run, a leading zero or a run past the digit limit.
    """
    body = text.replace("\r\n", "\n").removesuffix("\n")
    shape = body.translate(_SHAPE)
    if shape != " \n" * (len(shape) // 2) + " ":
        return None
    try:
        return json.loads(f"[{body.translate(_COMMAS)}]")
    except ValueError:
        return None


def _read_lines(text: str) -> tuple[int, int, list[int], list[int], list[int]]:
    """Header, edge endpoints and edge line numbers, read line by line."""
    header: tuple[int, int] | None = None
    us: list[int] = []
    vs: list[int] = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            u, v = map(int, fields)
        except ValueError:
            expected = ("header must be two integers 'N M'" if header is None
                        else "edge line must be 'u v'")
            raise GraphFormatError(
                too_long(fields) or f"{expected}, got {quote(line)}", lineno) from None
        if header is None:
            if u < 0 or v < 0:
                raise GraphFormatError(f"negative count in header {quote(line)}", lineno)
            header = (u, v)
        else:
            us.append(u)
            vs.append(v)
            lines.append(lineno)
    if header is None:
        raise GraphFormatError("missing 'N M' header line")
    return (*header, us, vs, lines)


def too_long(tokens: Iterable[str]) -> str | None:
    """The error naming the length of the first token of ASCII digits that
    int() refuses, past the interpreter's digit limit, or None."""
    for token in tokens:
        if token.isascii() and token.isdigit():
            try:
                int(token)
            except ValueError:
                return f"number of {len(token)} digits is too long"
    return None


def spell(x: int) -> str:
    """x for an error message: in decimal up to 18 digits, and past that
    by its digit count, so a message quoting a huge number stays short."""
    if -10**18 < x < 10**18:
        return str(x)
    return f"{'-' if x < 0 else ''}<{len(str(abs(x)))} digits>"


def quote(value: object) -> str:
    """value for an error message: its repr up to 60 characters, and past
    that the length of its text, so a message quoting input stays short."""
    shown = repr(value)
    return shown if len(shown) <= 60 else f"<{len(str(value))} characters>"


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

