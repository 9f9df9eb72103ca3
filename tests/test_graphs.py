"""Graph container, operations, and the graph6 codec."""

import io
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from conftest import random_graph
from huckel.graphs import (
    _LONG_MAX,
    _ORDER_MAX,
    Graph,
    Graph6Error,
    add_duplicate_vertex,
    add_isolated_vertex,
    complement,
    dense_batch,
    disjoint_union,
    graph6_records,
    pair_order,
    parse_graph6,
    seidel_switch,
    stats,
    write_graph6,
)

SEEDS = [0x1F2E, 0x3D4C, 0x5B6A, 0x7988, 0x97A6]


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_from_rows_validation():
    assert Graph.from_rows(2, [2, 1]) == Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        Graph.from_rows(2, [2])  # row count mismatch
    with pytest.raises(ValueError):
        Graph.from_rows(2, [4, 0])  # bit beyond last vertex
    with pytest.raises(ValueError):
        Graph.from_rows(2, [1, 2])  # loops on the diagonal
    with pytest.raises(ValueError):
        Graph.from_rows(2, [2, 0])  # asymmetric


def test_graph_is_immutable():
    g = Graph.complete(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_builders_and_counts():
    assert Graph.empty(4).m == 0
    assert Graph.complete(5).m == 10
    assert Graph.cycle(6).m == 6
    assert Graph.path(6).m == 5
    star = Graph.star(5)
    assert star.degrees() == [4, 1, 1, 1, 1]
    assert Graph.star(5, center=2).degree(2) == 4
    assert sorted(Graph.cycle(4).edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert Graph.path(3).has_edge(0, 1) and not Graph.path(3).has_edge(0, 2)


def test_stats():
    s = stats(disjoint_union(Graph.complete(3), Graph.empty(1)))
    assert s.m == 3
    assert s.degrees == (2, 2, 2, 0)
    assert not s.is_regular
    assert s.has_isolated
    assert stats(Graph.cycle(5)).is_regular
    assert not stats(Graph.cycle(5)).has_isolated


def test_complement_involution():
    assert complement(Graph.complete(5)) == Graph.empty(5)
    assert complement(Graph.empty(4)) == Graph.complete(4)
    rng = random.Random(0xC0)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 9))
        assert complement(complement(g)) == g
        assert g.m + complement(g).m == g.n * (g.n - 1) // 2


def test_disjoint_union_and_isolated_vertex():
    g = disjoint_union(Graph.complete(3), Graph.complete(2))
    assert g.n == 5 and g.m == 4
    assert g.has_edge(3, 4) and not g.has_edge(2, 3)
    h = add_isolated_vertex(Graph.cycle(4))
    assert h.n == 5 and h.degree(4) == 0 and h.m == 4


def test_add_duplicate_vertex():
    g = add_duplicate_vertex(Graph.complete(3), 0)
    assert g.n == 4
    assert not g.has_edge(3, 0)
    assert g.has_edge(3, 1) and g.has_edge(3, 2)
    assert g.rows[3] == g.rows[0] & ~(1 << 3)
    with pytest.raises(ValueError):
        add_duplicate_vertex(Graph.complete(3), 3)


def test_seidel_switch():
    # Switching the path a-b-c on its endpoint moves the star center.
    assert seidel_switch(Graph.path(3), {0}) == Graph.star(3, center=2)
    rng = random.Random(0x5E1)
    for _ in range(20):
        g = random_graph(rng, 7)
        subset = {v for v in range(7) if rng.random() < 0.5}
        assert seidel_switch(g, ()) == g
        assert seidel_switch(g, range(7)) == g
        assert seidel_switch(seidel_switch(g, subset), subset) == g
    with pytest.raises(ValueError):
        seidel_switch(Graph.path(3), {3})


def test_is_connected():
    assert Graph.empty(0).is_connected()
    assert Graph.empty(1).is_connected()
    assert not Graph.empty(2).is_connected()
    assert Graph.complete(5).is_connected()
    assert Graph.path(6).is_connected()
    assert Graph.star(7).is_connected()
    assert not disjoint_union(Graph.complete(3), Graph.complete(2)).is_connected()
    assert not add_isolated_vertex(Graph.cycle(4)).is_connected()


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17, 70])
def test_dense_batch_matches_networkx(n):
    rng = random.Random(n)
    graphs = [random_graph(rng, n, rng.random()) for _ in range(5)]
    expected = [nx.to_numpy_array(to_networkx(g), nodelist=range(n)) for g in graphs]
    a = dense_batch(graphs, n)
    assert a.shape == (5, n, n) and a.dtype == np.float64
    assert np.array_equal(a, np.array(expected).reshape(5, n, n))
    for g, want in zip(graphs, expected):
        assert np.array_equal(g.dense(), want.reshape(n, n))
    with pytest.raises(ValueError, match="order"):
        dense_batch(graphs + [Graph.empty(n + 1)], n)


def test_graph6_records_strip_only_ascii_space():
    fh = io.StringIO("Bw\n\n \tC~ \r\n\xa0Dhc\n")
    assert list(graph6_records(fh)) == [(1, "Bw"), (3, "C~"), (4, "\xa0Dhc")]


@pytest.mark.parametrize("seed", SEEDS)
def test_is_connected_matches_networkx(seed):
    rng = random.Random(seed)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 11), rng.uniform(0.1, 0.6))
        assert g.is_connected() == nx.is_connected(to_networkx(g))


def test_pair_order():
    assert pair_order(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert pair_order(1) == []


@pytest.mark.parametrize(
    "g,record",
    [
        (Graph.empty(2), "A?"),
        (Graph.complete(2), "A_"),
        (Graph.complete(3), "Bw"),
        (Graph.path(4), "Ch"),
        (Graph.cycle(5), "Dhc"),
        (Graph.star(5), "Ds_"),
        (Graph.complete(5), "D~{"),
    ],
)
def test_graph6_known_records(g, record):
    assert write_graph6(g) == record
    assert parse_graph6(record) == g


def test_graph6_petersen():
    g = parse_graph6("IheA@GUAo")  # Petersen graph, as emitted by networkx
    assert g.n == 10 and g.m == 15
    assert set(g.degrees()) == {3}
    assert nx.is_isomorphic(to_networkx(g), nx.petersen_graph())
    assert write_graph6(g) == "IheA@GUAo"


def test_graph6_long_form():
    g = Graph.empty(63)
    record = write_graph6(g)
    assert record.startswith("~??~")
    assert len(record) == 4 + (63 * 62 // 2 + 5) // 6
    assert parse_graph6(record) == g
    ring = Graph.cycle(100)
    assert parse_graph6(write_graph6(ring)) == ring


def test_graph6_optional_header():
    assert parse_graph6(">>graph6<<Bw") == Graph.complete(3)


def test_graph6_reject_empty():
    with pytest.raises(Graph6Error, match="empty graph6 record"):
        parse_graph6("")


@pytest.mark.parametrize("prefix", [":", ";", "&"])
def test_graph6_reject_other_formats(prefix):
    with pytest.raises(Graph6Error, match="graph6 only"):
        parse_graph6(prefix + "Bw")


def test_graph6_reject_bad_byte():
    with pytest.raises(Graph6Error, match=r"position 1 outside graph6 range"):
        parse_graph6("B\x20w")


def test_graph6_reject_extra_long_header():
    with pytest.raises(Graph6Error, match="extra-long size header"):
        parse_graph6("~~??????")


def test_graph6_reject_truncated():
    with pytest.raises(Graph6Error, match="truncated long-form size header"):
        parse_graph6("~??")
    with pytest.raises(Graph6Error, match=r"needs 2 bytes, got 1"):
        parse_graph6("Dh")


def test_graph6_reject_nonzero_padding():
    with pytest.raises(Graph6Error, match="nonzero padding bit"):
        parse_graph6("A@")


def test_graph6_write_size_limit():
    with pytest.raises(Graph6Error):
        write_graph6(Graph.empty(258048))


@pytest.mark.parametrize("seed", SEEDS)
def test_graph6_roundtrip_random(seed):
    rng = random.Random(seed)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(0, 20), rng.random())
        record = write_graph6(g)
        assert parse_graph6(record) == g
        # Cross-check the byte encoding against networkx.
        if g.n > 0:
            expected = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
            assert record == expected


def _graph6_by_bit_loop(g: Graph) -> str:
    """The bit-by-bit writer: the reference write_graph6 must equal."""
    n = g.n
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))]
    group = nbits = 0
    for j in range(1, n):
        for i in range(j):
            group = (group << 1) | ((g.rows[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + group))
                group = nbits = 0
    if nbits:
        out.append(chr(63 + (group << (6 - nbits))))
    return "".join(out)


def test_write_graph6_equals_the_bit_loop():
    rng = random.Random(0x96)
    graphs = [random_graph(rng, n, rng.random()) for n in range(90)]
    graphs += [random_graph(rng, 300, 0.3), Graph.complete(70), Graph.empty(63)]
    for g in graphs:
        assert write_graph6(g) == _graph6_by_bit_loop(g), g.n


def _size_header(n):
    return "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))


def test_graph6_order_limit():
    # A bare size header is rejected before any n x n array is allocated.
    tracemalloc.start()
    try:
        for n in (_ORDER_MAX + 1, _LONG_MAX):
            with pytest.raises(Graph6Error, match=f"n={n} exceeds the order limit {_ORDER_MAX}"):
                parse_graph6(_size_header(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(Graph6Error, match=rf"body for n={_ORDER_MAX} needs \d+ bytes, got 0"):
        parse_graph6(_size_header(_ORDER_MAX))
