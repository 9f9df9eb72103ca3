"""Shared test helpers: seeded random graphs and corpus records."""

import importlib
import random

import numpy as np

from huckel.graphs import Graph, pair_bits, parse_graph6, write_graph6

S = importlib.import_module("huckel.sweep")  # the package's sweep() shadows the module


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Erdos-Renyi G(n, p) from an explicit RNG, as a bit-packed Graph."""
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph.from_rows(n, rows)


def graph_records(graphs):
    """corpus_records sections for a list of graphs, one record each."""
    return [[(g.n, pair_bits(g)[None], [write_graph6(g)], np.array([i]))] for i, g in enumerate(graphs)]


def corpus_graphs(path, on_error="raise"):
    """The graphs of corpus_records(path, on_error) in file order, each
    checked against its segment's order and pair bits."""
    rows = []
    for section in S.corpus_records(str(path), on_error):
        for n, bits, strings, at in section:
            assert len(bits) == len(strings) == len(at)
            for row, g6, pos in zip(bits, strings, at.tolist()):
                g = parse_graph6(g6)
                assert g.n == n and np.array_equal(pair_bits(g), row)
                rows.append((pos, g))
    assert len({pos for pos, _ in rows}) == len(rows)
    return [g for _, g in sorted(rows, key=lambda row: row[0])]
