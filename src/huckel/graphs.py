"""Undirected graphs as bit-packed adjacency rows, plus the graph6 codec."""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Sequence, TextIO, Tuple

import numpy as np

# graph6 size limits: short form covers n <= 62, long form n <= 258047.
_SHORT_MAX = 62
_LONG_MAX = 258047
# Orders a reader accepts: a dense float64 adjacency of order 8192 is 512 MB.
_ORDER_MAX = 8192


class Graph6Error(ValueError):
    """Malformed graph6 record. Carries the byte or bit position when known."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Row i is an int whose bit j is set iff i~j.  Rows are symmetric and the
    diagonal is zero; both are enforced at construction.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        # operator.index keeps n and the rows Python ints: a numpy integer
        # would shift as int64, dropping bits above 63 and breaking dense().
        n = operator.index(n)
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        rows = [0] * n
        for edge in edges:
            i, j = map(operator.index, edge)
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

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def dense(self) -> np.ndarray:
        """Adjacency matrix as a float64 numpy array."""
        n, width = self.n, (self.n + 7) // 8
        packed = b"".join(r.to_bytes(width, "little") for r in self.rows)
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
        return bits.reshape(n, 8 * width)[:, :n].astype(np.float64)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


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
    for v in map(operator.index, switch_set):
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
# The first character outside the graph6 byte range [63,126], '?' to '~'.
_OUT_OF_RANGE = re.compile(r"[^?-~]")
# A 6-bit group, written most significant bit first, to its graph6 byte.
_G6_CHAR = {format(v, "06b"): chr(63 + v) for v in range(64)}


def pair_order(n: int) -> List[Tuple[int, int]]:
    """Upper-triangle pairs in graph6 bit order: (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def _size_header(n: int) -> str:
    """The graph6 size header of order n: one byte, or four in long form."""
    if n <= _SHORT_MAX:
        return chr(63 + n)
    if n <= _LONG_MAX:
        return "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    raise Graph6Error(f"n={n} exceeds the supported graph6 range (max {_LONG_MAX})")


def mask_graph6(n: int, mask: int) -> str:
    """The graph6 record of the graph on n vertices with pair k an edge iff bit k of mask is set."""
    head = _size_header(n)
    width = -(-(n * (n - 1) // 2) // 6) * 6
    bits = format(mask, f"0{width}b")[::-1]
    return head + "".join([_G6_CHAR[bits[k:k + 6]] for k in range(0, width, 6)])


def write_graph6(g: Graph) -> str:
    # Column j of the upper triangle is bits 0..j-1 of row j: OR them into one
    # int at offset j(j-1)/2, whose bit k is then the k-th graph6 bit.
    rows, mask = g.rows, 0
    for j in range(1, g.n):
        mask |= (rows[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    return mask_graph6(g.n, mask)


def graph6_records(fh: TextIO) -> Iterator[Tuple[int, str]]:
    """(line number, record) for every non-blank line of a graph6 stream.

    Only ASCII whitespace around a record is dropped, so a stream decoded as
    latin-1 hands any non-ASCII byte to decode_graph6, which rejects it with
    its position.
    """
    for ln, line in enumerate(fh, start=1):
        record = line.strip(_ASCII_SPACE)
        if record:
            yield ln, record


@lru_cache(maxsize=None)
def _lower(n: int) -> np.ndarray:
    """Flat indices of the strict lower triangle of order n, row-major, shared by every caller."""
    return np.flatnonzero(np.tri(n, k=-1, dtype=bool))


def pair_batch(n: int, bits: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The (B, n, n) adjacency batch of (B, C(n,2)) pair bits in graph6 order,
    which is the row-major order of the strict lower triangle."""
    lower = _lower(n) if n <= _SHORT_MAX else _lower.__wrapped__(n)  # long forms are not cached
    a = np.zeros((len(bits), n, n), dtype=np.uint8)  # scattered as bytes, then widened: faster
    a.reshape(len(bits), n * n)[:, lower] = bits
    return (a | a.transpose(0, 2, 1)).astype(dtype, copy=False)


def _padding(n: int, k: int) -> int:
    """The mask of the padding bits in the last of k graph6 body bytes at order n."""
    return (1 << (6 * k - n * (n - 1) // 2)) - 1


def _body_bits(n: int, body: np.ndarray) -> np.ndarray:
    """The (..., C(n,2)) uint8 pair bits of (..., k) graph6 bodies less 63,
    six bits per byte, most significant first."""
    bits = np.unpackbits(body[..., None], axis=-1)[..., 2:]
    return bits.reshape(*body.shape[:-1], 6 * body.shape[-1])[..., :n * (n - 1) // 2]


def decode_graph6_batch(records: Sequence[str]) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
    """Decode non-empty records of a latin-1 stream in bulk: each record's
    order, or -1 unless it is short-form with the length its order needs,
    every byte in 63..126 and zero padding (decode_graph6 decides the rest);
    and per order the (k, ceil(C(n,2)/6)) uint8 graph6 bodies less 63 of its
    decoded records, in record order, for _body_bits to unpack.  A decoded
    record is its write_graph6 string."""
    lens = np.fromiter(map(len, records), np.int64, len(records))
    order = np.frombuffer("".join([r[0] for r in records]).encode("latin-1"), np.uint8).astype(np.int64) - 63
    need = (order * (order - 1) // 2 + 5) // 6
    order[(order < 0) | (order > _SHORT_MAX) | (lens != 1 + need)] = -1
    groups = {}
    for n in np.flatnonzero(np.bincount(order[order >= 0])).tolist():
        # Past the length check the records of one order have one length: joined, they are a (k, 1 + need) table.
        idx = np.flatnonzero(order == n)
        text = "".join([records[i] for i in idx.tolist()]).encode("latin-1")
        body = np.frombuffer(text, np.uint8).reshape(len(idx), -1)[:, 1:] - np.uint8(63)
        good = ((body[:, -1:] & _padding(n, body.shape[1])) == 0).all(axis=1) & (body.max(axis=1, initial=0) < 64)
        order[idx[~good]] = -1
        groups[n] = body if good.all() else body[good]
    return order, groups


def decode_graph6(text: str) -> Tuple[int, np.ndarray, str]:
    """(n, pair bits, write_graph6 string) of one graph6 record, its C(n,2)
    uint8 pair bits in graph6 order.  A >>graph6<< header and a line ending
    are dropped; a malformed record raises Graph6Error."""
    record = text.rstrip("\r\n")
    if record.startswith(_HEADER):
        record = record[len(_HEADER):]
    if not record:
        raise Graph6Error("empty graph6 record")
    if record[0] in ":;&":
        raise Graph6Error(f"record starts with {record[0]!r}: sparse6/digraph6/incremental formats "
                          "are not supported (undirected graph6 only)")
    bad = _OUT_OF_RANGE.search(record)
    if bad:
        raise Graph6Error(f"byte {ord(bad.group())} at position {bad.start()} outside graph6 range [63,126]")
    if record[0] == "~":
        if len(record) >= 2 and record[1] == "~":
            raise Graph6Error(f"extra-long size header at position 0: n >= {_LONG_MAX + 1} unsupported")
        if len(record) < 4:
            raise Graph6Error("truncated long-form size header")
        n = ((ord(record[1]) - 63) << 12) | ((ord(record[2]) - 63) << 6) | (ord(record[3]) - 63)
        if n > _ORDER_MAX:
            raise Graph6Error(f"n={n} exceeds the order limit {_ORDER_MAX} "
                              f"(an n x n float64 adjacency is {8 * n * n >> 20:,} MB)")
        body_start = 4
    else:
        n = ord(record[0]) - 63
        body_start = 1
    body = record[body_start:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"body for n={n} needs {need} bytes, got {len(body)} "
                          f"(body starts at position {body_start})")
    if need and (ord(body[-1]) - 63) & _padding(n, need):
        raise Graph6Error(f"nonzero padding bit in final group (byte position {body_start + need - 1})")
    # With zero padding only a long size header of a short-form order is not canonical.
    canonical = chr(63 + n) + body if body_start == 4 and n <= _SHORT_MAX else record
    return n, _body_bits(n, np.frombuffer(body.encode("latin-1"), np.uint8) - np.uint8(63)), canonical


def parse_graph6(text: str) -> Graph:
    n, bits, _ = decode_graph6(text)
    packed = np.packbits(pair_batch(n, bits[None], np.uint8)[0], axis=1, bitorder="little")
    return Graph._from_rows_unchecked(n, tuple(int.from_bytes(row, "little") for row in packed))
