"""Shared test helpers: graph builders, seeded random graphs, corpus records,
and the string-formatting graph6 encoder that graphs.graph6_strings replaced."""

import importlib
import itertools
import random

import numpy as np

from huckel.graphs import Graph, _body_bits, graph6_strings, parse_graph6, write_graph6

S = importlib.import_module("huckel.sweep")  # the package's sweep() shadows the module


# A 6-bit group, written most significant bit first, to its graph6 byte.
_G6_CHAR = {format(v, "06b"): chr(63 + v) for v in range(64)}


def mask_graph6(n: int, mask: int) -> str:
    """The graph6 record of the graph on n vertices with pair k an edge iff
    bit k of mask is set, formatted as a bit string six characters at a time:
    the oracle of graph6_strings and a record generator."""
    head = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    width = -(-(n * (n - 1) // 2) // 6) * 6
    bits = format(mask, f"0{width}b")[::-1]
    return head + "".join([_G6_CHAR[bits[k:k + 6]] for k in range(0, width, 6)])


def complete(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int, center: int = 0) -> Graph:
    return Graph(n, [(center, v) for v in range(n) if v != center])


def pair_bits(g: Graph) -> np.ndarray:
    """The uint8 pair bits of g in graph6 order: pair_batch's inverse."""
    return g.dense()[np.tri(g.n, k=-1, dtype=bool)].astype(np.uint8)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Erdos-Renyi G(n, p) from an explicit RNG, as a bit-packed Graph."""
    return Graph(n, [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p])


def graph_records(graphs):
    """corpus_records sections for a list of graphs, one record each."""
    return [[(g.n, graph6_body(g)[None], np.array([i]))] for i, g in enumerate(graphs)]


def graph6_body(g: Graph) -> np.ndarray:
    """The graph6 body of g less 63, as a corpus segment holds it."""
    return np.frombuffer(write_graph6(g)[1 if g.n <= 62 else 4:].encode("ascii"), np.uint8) - np.uint8(63)


def corpus_graphs(path, on_error="raise"):
    """The graphs of corpus_records(path, on_error) in file order, each
    checked against its segment's order and pair bits."""
    rows = []
    for section in S.corpus_records(str(path), on_error):
        for n, bodies, at in section:
            assert len(bodies) == len(at)
            bits = _body_bits(n, bodies)
            for record, row, pos in zip(graph6_strings(n, bits), bits, at.tolist()):
                g = parse_graph6(record)
                assert g.n == n and np.array_equal(pair_bits(g), row)
                rows.append((pos, g))
    assert len({pos for pos, _ in rows}) == len(rows)
    return [g for _, g in sorted(rows, key=lambda row: row[0])]
