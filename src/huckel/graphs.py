"""Undirected graphs as bit-packed adjacency rows, plus the graph6 codec."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, TextIO, Tuple

import numpy as np

# graph6 size limits: short form covers n <= 62, long form n <= 258047.
_SHORT_MAX = 62
_LONG_MAX = 258047


class Graph6Error(ValueError):
    """Malformed graph6 record. Carries the byte or bit position when known."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Row i is an int whose bit j is set iff i~j.  Rows are symmetric and the
    diagonal is zero; both are enforced at construction.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        rows = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"loop at vertex {i} not allowed")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def _from_rows_unchecked(cls, n: int, rows: Tuple[int, ...]) -> "Graph":
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "Graph":
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError("row count must equal n")
        mask = (1 << n) - 1
        for i, r in enumerate(rows):
            if r & ~mask:
                raise ValueError(f"row {i} has bits beyond vertex {n - 1}")
            if (r >> i) & 1:
                raise ValueError(f"loop at vertex {i} not allowed")
        for i in range(n):
            for j in range(i + 1, n):
                if ((rows[i] >> j) & 1) != ((rows[j] >> i) & 1):
                    raise ValueError(f"rows not symmetric at pair ({i},{j})")
        return cls._from_rows_unchecked(n, rows)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        mask = (1 << n) - 1
        return cls._from_rows_unchecked(n, tuple(mask ^ (1 << i) for i in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def star(cls, n: int, center: int = 0) -> "Graph":
        if n < 1:
            raise ValueError("star needs n >= 1")
        return cls(n, [(center, v) for v in range(n) if v != center])

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def degrees(self) -> List[int]:
        return [r.bit_count() for r in self.rows]

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        for i in range(self.n):
            r = self.rows[i] >> (i + 1)
            j = i + 1
            while r:
                if r & 1:
                    yield (i, j)
                r >>= 1
                j += 1

    def dense(self) -> np.ndarray:
        """Adjacency matrix as a float64 numpy array."""
        return dense_batch((self,), self.n)[0]

    def is_connected(self) -> bool:
        """Bitmask flood fill from vertex 0; the empty graph counts as connected."""
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= self.rows[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= reach
        return seen == (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def dense_batch(graphs: Sequence[Graph], n: int) -> np.ndarray:
    """Adjacency matrices of graphs of order n as one (B, n, n) float64 array,
    unpacked from the bit rows in bulk."""
    if any(g.n != n for g in graphs):
        raise ValueError(f"dense_batch needs graphs of order {n}")
    width = (n + 7) // 8
    packed = b"".join(r.to_bytes(width, "little") for g in graphs for r in g.rows)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(graphs), n, 8 * width)[:, :, :n].astype(np.float64)


@dataclass(frozen=True)
class GraphStats:
    m: int
    degrees: Tuple[int, ...]
    is_regular: bool
    has_isolated: bool


def stats(g: Graph) -> GraphStats:
    degs = tuple(g.degrees())
    return GraphStats(
        m=sum(degs) // 2,
        degrees=degs,
        is_regular=len(set(degs)) <= 1,
        has_isolated=any(d == 0 for d in degs),
    )


def complement(g: Graph) -> Graph:
    mask = (1 << g.n) - 1
    rows = tuple((r ^ mask) & ~(1 << i) for i, r in enumerate(g.rows))
    return Graph._from_rows_unchecked(g.n, rows)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = g.rows + tuple(r << g.n for r in h.rows)
    return Graph._from_rows_unchecked(g.n + h.n, rows)


def add_isolated_vertex(g: Graph) -> Graph:
    return Graph._from_rows_unchecked(g.n + 1, g.rows + (0,))


def add_duplicate_vertex(g: Graph, v: int) -> Graph:
    """Add a vertex adjacent to N(v) but not to v itself."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    bit_new = 1 << g.n
    nv = g.rows[v]
    rows = tuple(r | bit_new if (nv >> i) & 1 else r for i, r in enumerate(g.rows))
    return Graph._from_rows_unchecked(g.n + 1, rows + (nv,))


def seidel_switch(g: Graph, switch_set: Iterable[int]) -> Graph:
    """Complement all edges/non-edges between switch_set and its complement."""
    y = 0
    for v in switch_set:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
        y |= 1 << v
    mask = (1 << g.n) - 1
    rows = []
    for i, r in enumerate(g.rows):
        flip = (mask & ~y) if (y >> i) & 1 else y
        rows.append(r ^ (flip & ~(1 << i)))
    return Graph._from_rows_unchecked(g.n, tuple(rows))


# ─── graph6 codec ───────────────────────────────────────────────────────────
#
# Byte layout: a size header (n+63 for n <= 62, or '~' plus three 6-bit bytes
# for 63 <= n <= 258047), then the upper triangle read column by column
# (x[0,1], x[0,2], x[1,2], x[0,3], ...) packed big-endian into 6-bit groups,
# each group emitted as chr(group + 63).  Padding bits must be zero.

_HEADER = ">>graph6<<"
# The ASCII characters str.strip() drops by default.
_ASCII_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())
# A 6-bit group, written most significant bit first, to its graph6 byte.
_G6_CHAR = {format(v, "06b"): chr(63 + v) for v in range(64)}


def pair_order(n: int) -> List[Tuple[int, int]]:
    """Upper-triangle pairs in graph6 bit order: (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= _SHORT_MAX:
        head = chr(63 + n)
    elif n <= _LONG_MAX:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    else:
        raise Graph6Error(f"n={n} exceeds the supported graph6 range (max {_LONG_MAX})")
    # Column j of the upper triangle is bits 0..j-1 of row j: OR them into one
    # int at offset j(j-1)/2, whose bit k is then the k-th graph6 bit.
    rows, mask = g.rows, 0
    for j in range(1, n):
        mask |= (rows[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    width = -(-(n * (n - 1) // 2) // 6) * 6
    bits = format(mask, f"0{width}b")[::-1]
    return head + "".join([_G6_CHAR[bits[k:k + 6]] for k in range(0, width, 6)])


def graph6_records(fh: TextIO) -> Iterator[Tuple[int, str]]:
    """(line number, record) for every non-blank line of a graph6 stream.

    Only ASCII whitespace around a record is dropped, so a stream decoded as
    latin-1 hands any non-ASCII byte to parse_graph6, which rejects it with
    its position.
    """
    for ln, line in enumerate(fh, start=1):
        record = line.strip(_ASCII_SPACE)
        if record:
            yield ln, record


def parse_graph6(text: str) -> Graph:
    record = text.rstrip("\r\n")
    if record.startswith(_HEADER):
        record = record[len(_HEADER):]
    if not record:
        raise Graph6Error("empty graph6 record")
    if record[0] in ":;&":
        raise Graph6Error(
            f"record starts with {record[0]!r}: sparse6/digraph6/incremental formats "
            "are not supported (undirected graph6 only)"
        )
    for pos, ch in enumerate(record):
        if not (63 <= ord(ch) <= 126):
            raise Graph6Error(f"byte {ord(ch)} at position {pos} outside graph6 range [63,126]")
    if record[0] == "~":
        if len(record) >= 2 and record[1] == "~":
            raise Graph6Error(f"extra-long size header at position 0: n >= {_LONG_MAX + 1} unsupported")
        if len(record) < 4:
            raise Graph6Error("truncated long-form size header")
        n = ((ord(record[1]) - 63) << 12) | ((ord(record[2]) - 63) << 6) | (ord(record[3]) - 63)
        body_start = 4
    else:
        n = ord(record[0]) - 63
        body_start = 1
    body = record[body_start:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"body for n={n} needs {need} bytes, got {len(body)} (body starts at position {body_start})"
        )
    rows = [0] * n
    k = 0  # index into the upper-triangle bit sequence
    j, i = 1, 0
    for bpos, ch in enumerate(body):
        group = ord(ch) - 63
        for sub in range(5, -1, -1):
            bit = (group >> sub) & 1
            if k < nbits:
                if bit:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                k += 1
                i += 1
                if i == j:
                    j += 1
                    i = 0
            elif bit:
                raise Graph6Error(
                    f"nonzero padding bit in final group (byte position {body_start + bpos})"
                )
    return Graph._from_rows_unchecked(n, tuple(rows))
