"""The bulk graph6 decoder and the corpus sweep, against the per-record code
they replaced.

The bit-by-bit parser, the mask-to-Graph witness encoder, the bulk Graph
unpacker and the Graph-at-a-time corpus sweep live on here only as oracles.
"""

import functools
import importlib
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import complete, corpus_graphs, cycle, pair_bits, path, random_graph, star
from huckel import cli
from huckel.graphs import (
    Graph,
    Graph6Error,
    _body_bits,
    decode_graph6_batch,
    graph6_records,
    mask_graph6,
    pair_batch,
    pair_order,
    parse_graph6,
    write_graph6,
)
from huckel.spectra import VIOLATION_TOL

S = importlib.import_module("huckel.sweep")  # the package's sweep() shadows the module
GOLDEN_CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.g6"


# ─── oracles: the per-record code the bulk path replaced ────────────────────


def parse_by_bit_loop(text: str) -> Graph:
    """The parser that visited every body bit in Python."""
    record = text.rstrip("\r\n")
    if record.startswith(">>graph6<<"):
        record = record[len(">>graph6<<"):]
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
            raise Graph6Error("extra-long size header at position 0: n >= 258048 unsupported")
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
    edges = []
    k = 0
    j, i = 1, 0
    for bpos, ch in enumerate(body):
        group = ord(ch) - 63
        for sub in range(5, -1, -1):
            bit = (group >> sub) & 1
            if k < nbits:
                if bit:
                    edges.append((i, j))
                k += 1
                i += 1
                if i == j:
                    j += 1
                    i = 0
            elif bit:
                raise Graph6Error(
                    f"nonzero padding bit in final group (byte position {body_start + bpos})"
                )
    return Graph(n, edges)


def graph_from_mask(n, pairs, mask):
    """The witness encoder's old first step: a Graph per edge mask."""
    return Graph(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1])


def old_stream_corpus(path, on_error="raise"):
    """The reader that parsed and yielded one Graph per record."""
    with open(path, "r", encoding="latin-1") as fh:
        for ln, record in graph6_records(fh):
            try:
                yield parse_by_bit_loop(record)
            except Graph6Error as exc:
                if on_error == "raise":
                    raise Graph6Error(f"{path}:{ln}: {exc}") from exc


def dense_batch(graphs, n):
    """Adjacency matrices of Graphs of order n as one (B, n, n) float64 array,
    unpacked from the bit rows in bulk."""
    width = (n + 7) // 8
    packed = b"".join(r.to_bytes(width, "little") for g in graphs for r in g.rows)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(graphs), n, 8 * width)[:, :, :n].astype(np.float64)


def old_sweep(graphs, checks=S.ALL_CHECKS, tol=VIOLATION_TOL, dump_path=None):
    """The Graph-at-a-time corpus sweep: per-order Graph buffers, dense_batch
    at each flush, write_graph6 for each reported string."""
    checks = S._validate_checks(checks)
    reports, buffers = {}, {}

    def flush(n):
        buf = buffers.pop(n)
        if n not in reports:
            reports[n] = S.SweepReport.for_checks(n, checks)
        a = dense_batch(buf, n)
        m_arr = (a.sum(axis=(1, 2)) / 2).astype(np.int64)
        S._add_batch(reports[n], S._Batch(n, a, m_arr, checks, tol), lambda i: write_graph6(buf[i]), dump)

    with S._dump_writer(dump_path) as dump:
        for g in graphs:
            buffers.setdefault(g.n, []).append(g)
            if len(buffers[g.n]) >= 4096:
                flush(g.n)
        for n in list(buffers):
            flush(n)
    return [reports[n].finalize() for n in sorted(reports)]


# ─── the decoder ────────────────────────────────────────────────────────────


def _seeded_graphs(seed, orders, per_order=3):
    rng = random.Random(seed)
    graphs = []
    for n in orders:
        graphs += [Graph(n), complete(n)]
        graphs += [random_graph(rng, n, rng.random()) for _ in range(per_order)]
    return graphs


def test_parse_graph6_equals_the_bit_loop():
    graphs = _seeded_graphs(0x6A, range(63)) + _seeded_graphs(0x6B, range(63, 71), per_order=1)
    records = [write_graph6(g) for g in graphs]
    assert all(r.startswith("~") for g, r in zip(graphs, records) if g.n >= 63)
    records += [line.strip() for line in GOLDEN_CORPUS.read_text().splitlines()]
    for record in records:
        g = parse_graph6(record)
        assert g == parse_by_bit_loop(record), record
        assert parse_graph6(">>graph6<<" + record + "\r\n") == g
        assert write_graph6(g) == record


def test_golden_corpus_is_what_its_generator_writes():
    # No golden test runs the generator, so this keeps its rewrite command working.
    from test_golden import make_corpus

    assert make_corpus() == GOLDEN_CORPUS.read_text(encoding="ascii")


MALFORMED = [
    "", ">>graph6<<", ":Bw", ";Bw", "&Bw", "B w", "C\xc3~", "C\x7f~", "~~??????", "~", "~??", "Dh",
    "Dhcc", "A@", "Bx", "C~~", "?@", "@?", "~?@~", "~?@~" + "?" * 325 + "@",
]


@pytest.mark.parametrize("record", MALFORMED)
def test_parse_graph6_errors_equal_the_bit_loop(record):
    with pytest.raises(Graph6Error) as want:
        parse_by_bit_loop(record)
    with pytest.raises(Graph6Error) as got:
        parse_graph6(record)
    assert str(got.value) == str(want.value)


def test_decode_graph6_batch_takes_exactly_the_canonical_short_records():
    graphs = _seeded_graphs(0x6C, list(range(63)) + [63, 70])
    good = [write_graph6(g) for g in graphs]
    records = good + [">>graph6<<Bw", "Bww", "A@", "C\xc3~", "~~??????", "~??", ":Bw", "Dh", "?@"]
    rng = random.Random(0x6D)
    rng.shuffle(records)
    order, groups = decode_graph6_batch(records)
    rank = [np.count_nonzero(order[:i] == n) for i, n in enumerate(order.tolist())]
    for record, n, k in zip(records, order.tolist(), rank):
        canonical = record in good and not record.startswith("~")
        assert (n >= 0) == canonical, record
        if canonical:
            g = parse_graph6(record)
            assert n == g.n
            assert np.array_equal(pair_batch(n, _body_bits(n, groups[n][k:k + 1])), dense_batch([g], n))
    assert sum(len(bodies) for bodies in groups.values()) == (order >= 0).sum()


def test_pair_batch_is_the_dense_batch():
    for n in (0, 1, 2, 7, 20):
        graphs = _seeded_graphs(n, [n])
        bits = np.array([[g.rows[i] >> j & 1 for i, j in pair_order(n)] for g in graphs], dtype=np.uint8)
        a = pair_batch(n, bits)
        assert a.dtype == np.float64 and np.array_equal(a, dense_batch(graphs, n))
        assert all(np.array_equal(pair_bits(g), row) for g, row in zip(graphs, bits))


def test_mask_graph6_equals_the_old_composition():
    rng = np.random.default_rng(0x6E)
    for n in range(1, 8):
        size = n * (n - 1) // 2
        if n <= 5:
            masks = np.arange(1 << size, dtype=np.int64)
        else:
            masks = rng.integers(0, 1 << size, 3000, dtype=np.int64)
        encode, pairs = S._mask_graph6(n, masks), pair_order(n)
        for i, mask in enumerate(masks.tolist()):
            assert encode(i) == write_graph6(graph_from_mask(n, pairs, mask)), (n, mask)


# ─── the corpus sweep against the old one ───────────────────────────────────


def _write(path, lines, end="\n"):
    path.write_bytes("".join(line + end for line in lines).encode("latin-1"))


def _run(capsys, monkeypatch, argv, dump, oracle):
    """(exit code, stdout, stderr, dump bytes) of a verify run through the
    bulk corpus path, or through the old reader and sweep if oracle."""
    with monkeypatch.context() as mp:
        if oracle:
            mp.setattr(cli, "corpus_records", old_stream_corpus)
            mp.setattr(cli, "sweep", old_sweep)
        if dump.exists():
            dump.unlink()
        code = cli.main(argv + ["--dump", str(dump)])
    out, err = capsys.readouterr()
    return code, out, err, dump.read_bytes() if dump.exists() else None


def _both(capsys, monkeypatch, tmp_path, path, *flags):
    argv = ["verify", "--corpus", str(path), *flags]
    dump = tmp_path / "rows.csv"
    new = _run(capsys, monkeypatch, argv, dump, oracle=False)
    old = _run(capsys, monkeypatch, argv, dump, oracle=True)
    assert new == old
    return new


def _seeded_corpus(seed):
    """Over 4,096 records of order 6, so that order flushes mid-file,
    shuffled with records of other orders, 0 and 1 among them."""
    return list(_seeded_records(seed))


@functools.lru_cache(maxsize=None)
def _seeded_records(seed):
    rng = random.Random(seed)
    orders = [6] * 4500 + [rng.choice([0, 1, 2, 3, 4, 5, 7, 8, 9, 12]) for _ in range(700)]
    rng.shuffle(orders)
    return tuple(write_graph6(random_graph(rng, n, rng.random())) for n in orders)


def _after_first_flush(records):
    """The index just past the record that fills order 6's first batch."""
    return [i for i, r in enumerate(records) if r[0] == "E"][4095] + 1


# 16,384 records decode the whole seeded corpus as one chunk; _CHUNK at
# its default ends a chunk inside it.
@pytest.mark.parametrize("chunk,cells", [(S._CHUNK, S._SOLVE_CELLS), (16384, S._SOLVE_CELLS), (7, S._SOLVE_CELLS),
                                         (S._CHUNK, 1)],
                         ids=[str(S._CHUNK), "16384", "7", "one_row_batches"])
def test_corpus_sweep_equals_the_old_sweep(chunk, cells, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(S, "_CHUNK", chunk)
    monkeypatch.setattr(S, "_SOLVE_CELLS", cells)
    path = tmp_path / "corpus.g6"
    _write(path, _seeded_corpus(0x6F))
    code, out, err, dump = _both(capsys, monkeypatch, tmp_path, path)
    assert code == 0 and err == ""
    assert dump.count(b"\n") == 1 + 5200


# Each kind of malformed record, as the bulk check and the scalar parser see it.
MIDFILE = {
    "bad_byte": "E?\x7fw",
    "non_ascii": "E?\xc3w",
    "wrong_length": "E?w",
    "nonzero_padding": "E??A",
    "sparse6": ":Bw",
    "incremental": ";Bw",
    "digraph6": "&Bw",
    "extra_long": "~~??????",
    "truncated_long": "~??",
    "header_only": ">>graph6<<",
}


@pytest.mark.parametrize("kind", sorted(MIDFILE))
def test_midfile_error_equals_the_old_sweep(kind, capsys, monkeypatch, tmp_path):
    records = _seeded_corpus(0x70)
    cut = _after_first_flush(records) + 3
    records.insert(cut, MIDFILE[kind])
    path = tmp_path / "corpus.g6"
    _write(path, records)
    code, out, err, dump = _both(capsys, monkeypatch, tmp_path, path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:{cut + 1}: ")
    assert dump.count(b"\n") == 1 + 4096  # the header and the batch flushed before the error


@pytest.mark.parametrize("chunk", [S._CHUNK, 16384, 7])
@pytest.mark.parametrize("offset,flushed", [(-1, 0), (0, 4096)])
def test_error_beside_a_flush_equals_the_old_sweep(offset, flushed, chunk, capsys, monkeypatch, tmp_path):
    # The bad line comes just before or just after the record that fills
    # order 6's first batch, in the chunk that record is decoded in.
    monkeypatch.setattr(S, "_CHUNK", chunk)
    records = _seeded_corpus(0x74)
    cut = _after_first_flush(records) + offset
    records.insert(cut, MIDFILE["bad_byte"])
    path = tmp_path / "corpus.g6"
    _write(path, records)
    code, out, err, dump = _both(capsys, monkeypatch, tmp_path, path)
    assert code == 2 and err.startswith(f"error: {path}:{cut + 1}: ")
    assert dump.count(b"\n") == 1 + flushed


def test_fallback_record_filling_a_batch_equals_the_old_sweep(capsys, monkeypatch, tmp_path):
    # Header records take the scalar path; the first one fills order 6's
    # first batch and the second one opens its next buffer.
    records = _seeded_corpus(0x75)
    cut = _after_first_flush(records)
    records[cut - 1] = ">>graph6<<" + records[cut - 1]
    records.insert(cut, ">>graph6<<" + next(r for r in records[cut:] if r[0] == "E"))
    path = tmp_path / "corpus.g6"
    _write(path, records)
    code, out, err, dump = _both(capsys, monkeypatch, tmp_path, path)
    assert code == 0 and err == ""
    assert dump.count(b"\n") == 1 + 5201


def test_interleaved_flushes_equal_the_old_sweep(capsys, monkeypatch, tmp_path):
    # In one chunk order 4 fills two batches and order 5 one, between them.
    rng = random.Random(0x76)
    orders = [4] * 8300 + [5] * 4200 + [rng.choice([3, 7]) for _ in range(300)]
    rng.shuffle(orders)
    path = tmp_path / "corpus.g6"
    _write(path, [write_graph6(random_graph(rng, n, rng.random())) for n in orders])
    code, out, err, dump = _both(capsys, monkeypatch, tmp_path, path)
    assert code == 0 and err == ""
    assert dump.count(b"\n") == 1 + len(orders)


def test_skip_bad_equals_the_old_sweep(capsys, monkeypatch, tmp_path):
    records = _seeded_corpus(0x71)
    cut = _after_first_flush(records)
    for offset, bad in enumerate(MIDFILE.values()):
        records.insert(cut - 50 + 17 * offset, bad)
    path = tmp_path / "corpus.g6"
    _write(path, records)
    code, out, err, dump = _both(capsys, monkeypatch, tmp_path, path, "--skip-bad")
    assert code == 0 and err == ""
    assert dump.count(b"\n") == 1 + 5200


def test_headers_crlf_long_form_and_tiny_orders(capsys, monkeypatch, tmp_path):
    rng = random.Random(0x72)
    graphs = [Graph(63), random_graph(rng, 63, 0.5), complete(2), star(5), Graph(0),
              Graph(1), path(4), Graph(6), random_graph(rng, 7, 0.5)]
    records = []
    for g in graphs:
        records += [write_graph6(g), ">>graph6<<" + write_graph6(g)]
    corpus = tmp_path / "corpus.g6"
    _write(corpus, records, end="\r\n")
    code, out, err, dump = _both(capsys, monkeypatch, tmp_path, corpus)
    assert code == 0
    reports = {rep.n: rep for rep in S.sweep(S.corpus_records(str(corpus)))}
    assert sorted(reports) == [0, 1, 2, 4, 5, 6, 7, 63]
    reported = [row.split(",")[0] for row in dump.decode().splitlines()[1:]]
    for rep in reports.values():
        reported += [s for t in rep.checks.values() for s in t.witnesses + t.examples]
    assert "~??~" + "?" * 326 in reported and "A_" in reported and "Ds_" in reported
    for s in reported:
        assert s == write_graph6(parse_graph6(s))


def test_corpus_records_yield_the_old_graphs(tmp_path):
    records = _seeded_corpus(0x73)[:300]
    records[100:100] = list(MIDFILE.values()) + [">>graph6<<Bw", write_graph6(cycle(64))]
    path = tmp_path / "corpus.g6"
    _write(path, records)
    assert corpus_graphs(path, "skip") == list(old_stream_corpus(str(path), "skip"))
    with pytest.raises(Graph6Error) as want:
        list(old_stream_corpus(str(path)))
    with pytest.raises(Graph6Error) as got:
        corpus_graphs(path)
    assert str(got.value) == str(want.value)


def test_corpus_sweep_memory_is_bits_strings_and_one_sub_batch(tmp_path):
    # 12,000 records of order 20 in one chunk: the order fills two batches
    # and leaves 3,808 rows to the end.  The pair bits and the record
    # strings are held; a 4,096-row float64 batch (13 MB) must not be.
    rng = random.Random(0x77)
    records = [mask_graph6(20, rng.getrandbits(190)) for _ in range(12000)]
    path = tmp_path / "corpus.g6"
    _write(path, records)
    held = len(records) * 190 + sum(map(sys.getsizeof, records))
    tracemalloc.start()
    try:
        reports = S.sweep(S.corpus_records(str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rep.graph_count for rep in reports] == [12000]
    assert peak < 2 * (held + 8 * S._SOLVE_CELLS)  # 9.0 of 10.7 MB here; the per-record buffers took 24 MB



def test_long_form_buffers_flush_at_the_cell_budget(monkeypatch, tmp_path):
    # Order-100 records (C(100, 2) = 4,950 pair bits each) mixed with short
    # ones: with a budget of 3 rows of pair bits the reports equal the
    # unbudgeted sweep's, and the traced peak stays flat as the record count
    # quadruples, while without the budget it grows with the buffered rows.
    rng = random.Random(0x600)
    records = [mask_graph6(100, rng.getrandbits(4950)) if k % 4 else mask_graph6(9, rng.getrandbits(36))
               for k in range(64)]
    monkeypatch.setattr(S, "_CHUNK", 4)  # the decode chunk holds 4 record strings whatever the file's length

    def run(count, cells):
        monkeypatch.setattr(S, "_FLUSH_CELLS", cells)
        path = tmp_path / f"corpus{count}.g6"
        _write(path, records[:count])
        tracemalloc.start()
        try:
            reports = [rep.to_dict() for rep in S.sweep(S.corpus_records(str(path)))]
            return reports, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    unbudgeted, grown = run(64, 1 << 23)
    budgeted, peak = run(64, 3 * 4950)
    assert budgeted == unbudgeted and [rep["graph_count"] for rep in budgeted] == [16, 48]
    assert run(16, 3 * 4950)[0] == run(16, 1 << 23)[0]
    assert peak < 1.25 * run(16, 3 * 4950)[1]
    assert grown > 2 * peak  # the unbudgeted buffer holds all 48 order-100 rows


def test_order_62_corpus_holds_its_bodies_and_one_sub_batch(tmp_path):
    # 3,000 order-62 records (317 bytes each) fit in one decode chunk and
    # stay buffered to the end.  Held: their 316-byte bodies (0.9 MB), not
    # 1,891 pair bits and a string each; swept: one 2 MB float64 sub-batch
    # with its uint8 scatter.  4.6 MB of the 6.1 MB bound here; holding pair
    # bits and strings, and unpacking a chunk in one go, took 16.8 MB.
    rng = random.Random(0x78)
    records = [mask_graph6(62, rng.getrandbits(1891)) for _ in range(3000)]
    assert len(records) < S._CHUNK and sum(map(len, records)) < S._CHUNK_BYTES
    path = tmp_path / "corpus.g6"
    _write(path, records)
    held = len(records) * 316
    tracemalloc.start()
    try:
        reports = S.sweep(S.corpus_records(str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rep.graph_count for rep in reports] == [3000]
    assert peak < 2 * (held + 8 * S._SOLVE_CELLS)


def test_long_form_decode_chunks_stop_at_the_byte_cap(tmp_path):
    # Order-200 long-form records, 3,321 bytes each: with _CHUNK at its
    # default, a chunk ends at _CHUNK_BYTES (316 records), so reading 1,600
    # records peaks where reading 400 does (1.1 MB here).  A chunk of
    # 16,384 records and no byte cap held every record: 3.8 and 15.4 MB.
    record = mask_graph6(200, random.Random(0x79).getrandbits(19900))

    def peak(count):
        path = tmp_path / f"corpus{count}.g6"
        _write(path, [record] * count)
        tracemalloc.start()
        try:
            assert sum(len(at) for section in S.corpus_records(str(path)) for _, _, at in section) == count
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert 400 * len(record) > S._CHUNK_BYTES and 1600 < S._CHUNK
    assert peak(1600) < 1.1 * peak(400)


def test_buffers_over_all_orders_flush_at_the_hold_cap(monkeypatch, tmp_path):
    # 12 long-form records for each of 8 or 32 orders up to 94, interleaved,
    # so no order fills its buffer and, uncapped, every record is buffered
    # to the end.  With a hold cap of 4,096 body bytes the oldest buffers
    # are swept early: the reports equal the uncapped sweep's, and the
    # traced peak stays flat as the number of orders quadruples.
    rng = random.Random(0x7A)
    orders = range(63, 95)
    records = [[mask_graph6(n, rng.getrandbits(n * (n - 1) // 2)) for n in orders] for _ in range(12)]
    monkeypatch.setattr(S, "_CHUNK", 4)

    def run(step, cap, checks=S.ALL_CHECKS):
        monkeypatch.setattr(S, "_HOLD_BYTES", cap)
        path = tmp_path / f"corpus{step}.g6"
        _write(path, [r for row in records for r in row[::step]])
        tracemalloc.start()
        try:
            reports = [rep.to_dict() for rep in S.sweep(S.corpus_records(str(path)), checks)]
            return reports, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    capped = run(4, 4096)[0]
    assert capped == run(4, 1 << 24)[0] and [rep["graph_count"] for rep in capped] == [12] * 8
    monkeypatch.setattr(S, "_SOLVE_CELLS", 1)  # one-row eigensolves: the buffers, not a sub-batch, set the peak
    few, many = (run(step, 4096, ("upper_n",))[1] for step in (4, 1))
    grown = run(1, 1 << 24, ("upper_n",))[1]
    assert many < 1.25 * few
    assert grown > 1.5 * many  # uncapped, all 384 records are held
