"""analyze decodes each graph6 record once, against the Graph-based path it
replaced.

The parser with a per-character range check that built bit rows, the
Graph-at-a-time _analyze_record and the recursive _round12 live on here only
as oracles.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import random_graph
from huckel import cli, graphs
from huckel.bounds import bound_report, classify_equality
from huckel.constructions import build_extremal_srg, paley_graph
from huckel.graphs import Graph, Graph6Error, add_isolated_vertex, decode_graph6, pair_batch, parse_graph6, write_graph6
from huckel.spectra import eigenvalues
from huckel.srg import srg_params
from test_corpus import MALFORMED, MIDFILE

GOLDEN_CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.g6"


# ─── oracles: the Graph-based analyze path ──────────────────────────────────


def old_parse_graph6(text: str) -> Graph:
    """parse_graph6 as it was: a range check per character, then bit rows."""
    record = text.rstrip("\r\n")
    if record.startswith(">>graph6<<"):
        record = record[len(">>graph6<<"):]
    if not record:
        raise Graph6Error("empty graph6 record")
    if record[0] in ":;&":
        raise Graph6Error(f"record starts with {record[0]!r}: sparse6/digraph6/incremental formats "
                          "are not supported (undirected graph6 only)")
    for pos, ch in enumerate(record):
        if not (63 <= ord(ch) <= 126):
            raise Graph6Error(f"byte {ord(ch)} at position {pos} outside graph6 range [63,126]")
    if record[0] == "~":
        if len(record) >= 2 and record[1] == "~":
            raise Graph6Error("extra-long size header at position 0: n >= 258048 unsupported")
        if len(record) < 4:
            raise Graph6Error("truncated long-form size header")
        n = ((ord(record[1]) - 63) << 12) | ((ord(record[2]) - 63) << 6) | (ord(record[3]) - 63)
        if n > 8192:
            raise Graph6Error(f"n={n} exceeds the order limit 8192 "
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
    bits, clean = graphs._body_bits(n, np.frombuffer(body.encode("latin-1"), np.uint8)[None] - np.uint8(63))
    if not clean[0]:
        raise Graph6Error(f"nonzero padding bit in final group (byte position {body_start + need - 1})")
    packed = np.packbits(pair_batch(n, bits, np.uint8)[0], axis=1, bitorder="little")
    return Graph.from_rows(n, [int.from_bytes(row, "little") for row in packed])


def old_round12(obj):
    """The rounding that called itself once per list element."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: old_round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_round12(v) for v in obj]
    return obj


def old_analyze_record(g: Graph, tol: float) -> dict:
    """The analyze line of a Graph, its graph6 string re-encoded."""
    spec = eigenvalues(g)
    report = bound_report(g, spectrum=spec)
    ev = report.energies
    params = srg_params(g)
    return {
        "graph6": write_graph6(g),
        "n": g.n,
        "m": report.m,
        "spectrum": [float(x) for x in spec.values],
        "residual": spec.residual,
        "energy": ev.energy,
        "huckel": ev.huckel,
        "alpha": ev.alpha,
        "beta": ev.beta,
        "has_isolated": report.has_isolated,
        "bounds": {
            "upper_nm": report.upper_nm,
            "upper_nm_regime": report.upper_nm_regime,
            "upper_nm_applies": report.upper_nm_applies,
            "upper_n": report.upper_n,
            "lower": report.lower,
            "lower_applies": report.lower_applies,
            "f1": report.inter_f1,
            "f2": report.inter_f2,
        },
        "lemma1": report.lemma1,
        "slack_upper": report.slack_upper,
        "slack_lower": report.slack_lower,
        "equality_tags": sorted(classify_equality(report, tol)),
        "srg": list(params.as_tuple()) if params else None,
    }


def _analyze(capsys, monkeypatch, argv, oracle):
    """(exit code, stdout, stderr) of analyze, or of the Graph-based path."""
    with monkeypatch.context() as mp:
        if oracle:
            mp.setattr(cli, "decode_graph6", old_parse_graph6)
            mp.setattr(cli, "_analyze_record", old_analyze_record)
            mp.setattr(cli, "_round12", old_round12)
        code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _both(capsys, monkeypatch, path, *flags):
    argv = ["analyze", str(path), *flags]
    new = _analyze(capsys, monkeypatch, argv, oracle=False)
    assert new == _analyze(capsys, monkeypatch, argv, oracle=True)
    return new


def _write(path, lines, end="\n"):
    path.write_bytes("".join(line + end for line in lines).encode("latin-1"))


def _long_header(n):
    return "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))


def _long_form(record):
    """The long-form encoding of a short-form record."""
    return _long_header(ord(record[0]) - 63) + record[1:]


def _seeded_records():
    """Every order 0..62 in short form and 63..70 in long form: empty,
    complete, random and with isolated vertices; and strongly regular
    graphs: Paley(13) and the extremal graphs for t = 1, 2."""
    rng = random.Random(0xA1)
    gs = []
    for n in range(71):
        gs += [Graph.empty(n), Graph.complete(n), random_graph(rng, n, rng.random())]
        if 2 <= n <= 62:
            gs.append(add_isolated_vertex(random_graph(rng, n - 1, 0.7)))
    gs += [paley_graph(13), build_extremal_srg(1), build_extremal_srg(2)]
    return [write_graph6(g) for g in gs]


# ─── analyze against the oracle ─────────────────────────────────────────────


def test_analyze_equals_the_graph_based_path(capsys, monkeypatch, tmp_path):
    records = _seeded_records()
    assert sum(r.startswith("~") for r in records) == 3 * len(range(63, 71))
    path = tmp_path / "records.g6"
    _write(path, records)
    code, out, err = _both(capsys, monkeypatch, path)
    assert code == 0 and err == ""
    lines = [json.loads(line) for line in out.splitlines()]
    assert [rec["graph6"] for rec in lines] == records
    assert {tuple(rec["srg"]) for rec in lines if rec["srg"]} >= {(13, 6, 2, 3), (10, 6, 3, 4), (26, 15, 8, 9)}
    assert any(rec["has_isolated"] for rec in lines if rec["n"] > 1)


def test_headers_crlf_and_long_form_records(capsys, monkeypatch, tmp_path):
    short = [r for r in _seeded_records() if not r.startswith("~")]
    records = [">>graph6<<" + r for r in short[::3]] + [_long_form(r) for r in short[1::3]] + short[2::3]
    path = tmp_path / "records.g6"
    _write(path, records, end="\r\n")
    code, out, err = _both(capsys, monkeypatch, path)
    assert code == 0 and err == ""
    assert [json.loads(line)["graph6"] for line in out.splitlines()] == short[::3] + short[1::3] + short[2::3]


def test_decode_graph6_is_the_old_parse():
    for record in _seeded_records():
        g = old_parse_graph6(record)
        variants = [record, ">>graph6<<" + record + "\r\n", record + "\n"]
        if not record.startswith("~"):
            variants.append(_long_form(record))
        for text in variants:
            n, bits, g6 = decode_graph6(text)
            assert n == g.n and g6 == write_graph6(g) and bits.dtype == np.uint8
            assert np.array_equal(pair_batch(n, bits[None])[0], g.dense())
            assert parse_graph6(text) == g


# ─── malformed records ──────────────────────────────────────────────────────

# A size header one over the order limit, and a character that a stream
# read with surrogate escapes would hand over.
BAD = sorted(set(MALFORMED) | set(MIDFILE.values()) | {_long_header(8193), "C\udcc3~"})
# The ones a line of a latin-1 file can hold.
BAD_LINES = [r for r in BAD if r.strip() and r.encode("latin-1", "ignore").decode("latin-1") == r]


@pytest.mark.parametrize("record", BAD)
def test_decode_graph6_errors_equal_the_old_parse(record):
    with pytest.raises(Graph6Error) as want:
        old_parse_graph6(record)
    for decode in (decode_graph6, parse_graph6):
        with pytest.raises(Graph6Error) as got:
            decode(record)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("record", BAD_LINES)
def test_analyze_stops_at_a_bad_record_as_before(record, capsys, monkeypatch, tmp_path):
    path = tmp_path / "records.g6"
    _write(path, ["Bw", "Ds_", record, "Dhc"])
    code, out, err = _both(capsys, monkeypatch, path)
    assert code == 2 and len(out.splitlines()) == 2 and err.startswith("error: line 3: ")


def test_analyze_skips_bad_records_as_before(capsys, monkeypatch, tmp_path):
    good = _seeded_records()[40:40 + len(BAD_LINES)]
    path = tmp_path / "records.g6"
    _write(path, [x for pair in zip(good, BAD_LINES) for x in pair])
    code, out, err = _both(capsys, monkeypatch, path, "--skip-bad")
    assert code == 0 and len(out.splitlines()) == len(good)
    assert err.count("warning: line ") == len(BAD_LINES)


# ─── the path stays decode-once ─────────────────────────────────────────────


def test_analyze_decodes_each_record_once(capsys, monkeypatch):
    calls = {"eigh": 0, "write_graph6": 0, "dense": 0, "parse_graph6": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(Graph, "dense", counted("dense", Graph.dense))
    for mod in (cli, graphs):
        monkeypatch.setattr(mod, "write_graph6", counted("write_graph6", mod.write_graph6))
        monkeypatch.setattr(mod, "parse_graph6", counted("parse_graph6", mod.parse_graph6))
    assert cli.main(["analyze", str(GOLDEN_CORPUS)]) == 0
    records = [line.strip() for line in GOLDEN_CORPUS.read_text().splitlines() if line.strip()]
    out = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["graph6"] for line in out] == records  # canonical records
    assert calls == {"eigh": len(records), "write_graph6": 0, "dense": 0, "parse_graph6": 0}
