"""Shared test helpers: graph builders, seeded random graphs and corpus records."""

import importlib
import itertools
import random

import numpy as np

from huckel.graphs import Graph, _body_bits, parse_graph6, write_graph6

S = importlib.import_module("huckel.sweep")  # the package's sweep() shadows the module


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
            g6_of = S._body_graph6(n, bodies)
            for k, (row, pos) in enumerate(zip(_body_bits(n, bodies), at.tolist())):
                g = parse_graph6(g6_of(k))
                assert g.n == n and np.array_equal(pair_bits(g), row)
                rows.append((pos, g))
    assert len({pos for pos, _ in rows}) == len(rows)
    return [g for _, g in sorted(rows, key=lambda row: row[0])]
