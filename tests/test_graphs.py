"""Graph container, operations, and the graph6 codec."""

import io
import random
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from conftest import complete, cycle, mask_graph6, path, random_graph, star
from huckel.graphs import (
    _LONG_MAX,
    _ORDER_MAX,
    Graph,
    Graph6Error,
    _body_bits,
    add_duplicate_vertex,
    add_isolated_vertex,
    complement,
    decode_graph6,
    disjoint_union,
    graph6_records,
    graph6_strings,
    pair_order,
    parse_graph6,
    seidel_switch,
    write_graph6,
)
from huckel.sweep import _batch_connected

SEEDS = [0x1F2E, 0x3D4C, 0x5B6A, 0x7988, 0x97A6]


def to_networkx(g: Graph) -> nx.Graph:
    """g as a networkx graph, read from its bit rows, not from g.dense()."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((i, j) for i in range(g.n) for j in range(i) if g.rows[i] >> j & 1)
    return h


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_numpy_integer_vertices():
    # A numpy integer vertex would shift as int64: rows dense() cannot read,
    # and bits above 63 silently dropped.
    g = Graph(3, np.array([[0, 1], [1, 2]]))
    assert all(type(r) is int for r in g.rows)
    assert np.array_equal(g.dense(), path(3).dense())
    assert Graph(70, np.array([[0, 69]])) == Graph(70, [(0, 69)])
    assert complement(Graph(np.int64(70))) == complete(70)
    for n in (5, 70):
        assert seidel_switch(Graph(n), np.array([0, n - 1])) == seidel_switch(Graph(n), [0, n - 1])


def test_graph_is_immutable():
    g = complete(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_builders_and_counts():
    assert Graph(4).m == 0
    assert complete(5).m == 10
    assert cycle(6).m == 6
    assert path(6).m == 5
    assert star(5).rows == (0b11110, 1, 1, 1, 1)
    assert star(5, center=2).rows == (0b100, 0b100, 0b11011, 0b100, 0b100)
    assert cycle(4).rows == (0b1010, 0b0101, 0b1010, 0b0101)
    assert path(3).rows == (0b010, 0b101, 0b010)
    assert disjoint_union(complete(3), Graph(1)).rows == (0b110, 0b101, 0b011, 0)


def test_complement_involution():
    assert complement(complete(5)) == Graph(5)
    assert complement(Graph(4)) == complete(4)
    rng = random.Random(0xC0)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 9))
        assert complement(complement(g)) == g
        assert g.m + complement(g).m == g.n * (g.n - 1) // 2


def test_disjoint_union_and_isolated_vertex():
    g = disjoint_union(complete(3), complete(2))
    assert g.n == 5 and g.m == 4
    assert g == Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    h = add_isolated_vertex(cycle(4))
    assert h.n == 5 and h.rows[4] == 0 and h.m == 4


def test_add_duplicate_vertex():
    g = add_duplicate_vertex(complete(3), 0)
    assert g.n == 4
    assert g == Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert g.rows[3] == g.rows[0] & ~(1 << 3)
    with pytest.raises(ValueError):
        add_duplicate_vertex(complete(3), 3)


def test_seidel_switch():
    # Switching the path a-b-c on its endpoint moves the star center.
    assert seidel_switch(path(3), {0}) == star(3, center=2)
    rng = random.Random(0x5E1)
    for _ in range(20):
        g = random_graph(rng, 7)
        subset = {v for v in range(7) if rng.random() < 0.5}
        assert seidel_switch(g, ()) == g
        assert seidel_switch(g, range(7)) == g
        assert seidel_switch(seidel_switch(g, subset), subset) == g
    with pytest.raises(ValueError):
        seidel_switch(path(3), {3})


def is_connected(g: Graph) -> bool:
    """The package's one connectivity test, sweep._batch_connected, on one graph."""
    return bool(_batch_connected(g.dense()[None])[0])


def test_is_connected():
    assert is_connected(Graph(0))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))
    assert is_connected(path(2))
    assert is_connected(complete(5))
    assert is_connected(path(6))
    assert is_connected(star(7))
    assert not is_connected(disjoint_union(complete(3), complete(2)))
    assert not is_connected(add_isolated_vertex(cycle(4)))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17, 70])
def test_dense_batch_matches_networkx(n):
    rng = random.Random(n)
    graphs = [random_graph(rng, n, rng.random()) for _ in range(5)]
    for g in graphs:
        a = g.dense()
        assert a.shape == (n, n) and a.dtype == np.float64
        assert np.array_equal(a, nx.to_numpy_array(to_networkx(g), nodelist=range(n)).reshape(n, n))


def test_graph6_records_strip_only_ascii_space():
    fh = io.StringIO("Bw\n\n \tC~ \r\n\xa0Dhc\n")
    assert list(graph6_records(fh)) == [(1, "Bw"), (3, "C~"), (4, "\xa0Dhc")]


@pytest.mark.parametrize("seed", SEEDS)
def test_is_connected_matches_networkx(seed):
    rng = random.Random(seed)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 11), rng.uniform(0.1, 0.6))
        assert is_connected(g) == nx.is_connected(to_networkx(g))


def test_pair_order():
    assert pair_order(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert pair_order(1) == []


@pytest.mark.parametrize(
    "g,record",
    [
        (Graph(2), "A?"),
        (complete(2), "A_"),
        (complete(3), "Bw"),
        (path(4), "Ch"),
        (cycle(5), "Dhc"),
        (star(5), "Ds_"),
        (complete(5), "D~{"),
    ],
)
def test_graph6_known_records(g, record):
    assert write_graph6(g) == record
    assert parse_graph6(record) == g


def test_graph6_petersen():
    g = parse_graph6("IheA@GUAo")  # Petersen graph, as emitted by networkx
    assert g.n == 10 and g.m == 15
    assert set(g.dense().sum(axis=1)) == {3}
    assert nx.is_isomorphic(to_networkx(g), nx.petersen_graph())
    assert write_graph6(g) == "IheA@GUAo"


def test_graph6_long_form():
    g = Graph(63)
    record = write_graph6(g)
    assert record.startswith("~??~")
    assert len(record) == 4 + (63 * 62 // 2 + 5) // 6
    assert parse_graph6(record) == g
    ring = cycle(100)
    assert parse_graph6(write_graph6(ring)) == ring


def test_graph6_optional_header():
    assert parse_graph6(">>graph6<<Bw") == complete(3)


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
    # The order is refused before its C(n, 2) pair bits are allocated.
    g = Graph(258048)
    tracemalloc.start()
    try:
        with pytest.raises(Graph6Error, match="n=258048 exceeds the supported graph6 range"):
            write_graph6(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def _write_graph6_by_mask(g: Graph) -> str:
    """The writer graph6_strings replaced: every row ORed into one int at
    offset j(j-1)/2, then formatted by mask_graph6."""
    mask = 0
    for j in range(1, g.n):
        mask |= (g.rows[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    return mask_graph6(g.n, mask)


def test_write_graph6_equals_the_bit_loop():
    rng = random.Random(0x96)
    graphs = [random_graph(rng, n, rng.random()) for n in range(90)]
    graphs += [random_graph(rng, 300, 0.3), random_graph(rng, 626, 0.5), complete(70), Graph(63), Graph(626)]
    for g in graphs:
        assert write_graph6(g) == _graph6_by_bit_loop(g) == _write_graph6_by_mask(g), g.n


def _mask_bits(n, masks):
    """(len(masks), C(n,2)) uint8 pair bits of int masks, bit k of a mask pair k."""
    size = n * (n - 1) // 2
    bits = np.zeros((len(masks), size), np.uint8)
    for row, mask in zip(bits, masks):
        row[:] = np.unpackbits(np.frombuffer(mask.to_bytes(size // 8 + 1, "little"), np.uint8), count=size,
                               bitorder="little")
    return bits


def _assert_strings_equal_the_string_encoder(n, masks):
    got = graph6_strings(n, _mask_bits(n, masks))
    assert got == [mask_graph6(n, mask) for mask in masks], n


def test_graph6_strings_equal_the_string_encoder_on_every_small_mask():
    for n in range(6):
        _assert_strings_equal_the_string_encoder(n, range(1 << (n * (n - 1) // 2)))


def test_graph6_strings_equal_the_string_encoder_on_seeded_masks():
    rng = random.Random(0x9A)
    for n in range(6, 21):
        _assert_strings_equal_the_string_encoder(n, [rng.getrandbits(n * (n - 1) // 2) for _ in range(2000)])
    for n in (0, 1, 2, 62, 63, 100, 200):
        size = n * (n - 1) // 2
        masks = [0, (1 << size) - 1] + [rng.getrandbits(size) if size else 0 for _ in range(20)]
        _assert_strings_equal_the_string_encoder(n, masks)
    assert graph6_strings(7, np.zeros((0, 21), np.uint8)) == []


def test_graph6_strings_invert_body_bits_on_the_golden_corpus():
    lines = (Path(__file__).resolve().parent / "golden" / "corpus.g6").read_text().split()
    assert len(lines) == 500
    for record in lines:
        n, bits, canonical = decode_graph6(record)
        head = 1 if n <= 62 else 4
        body = np.frombuffer(record[head:].encode("ascii"), np.uint8) - np.uint8(63)
        assert np.array_equal(_body_bits(n, body[None])[0], bits)
        mask = sum(1 << k for k in np.flatnonzero(bits).tolist())
        assert graph6_strings(n, _body_bits(n, body[None])) == [record] == [mask_graph6(n, mask)] == [canonical]


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
