"""A seeded property test of the CLI, driven in-process through cli.main.

Records mutated from the golden corpus go through analyze and
verify --corpus, each with and without --skip-bad; boundary values go
through bound, construct and verify --n.  Every run must exit 0, 1 or 2,
print exactly one error: line on exit 2 (or argparse's usage), and raise
no exception, traceback or Python warning.  Records that decode_graph6
accepts are the ones analyze prints and verify counts.
"""

import json
import random
import time
import warnings
from pathlib import Path

import pytest

from huckel.cli import main
from huckel.graphs import _LONG_MAX, _ORDER_MAX, Graph6Error, decode_graph6

GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus.g6"
SEED = 0x5EED
FILES = 300
RUN_SECONDS = 5.0  # per run: far above any case here, so only a hang trips it


def _long_header(n: int) -> bytes:
    return bytes([ord("~")] + [63 + (n >> s & 63) for s in (12, 6, 0)])


def _mutant(rng: random.Random, record: bytes) -> bytes:
    """One mutation of a canonical short-form record."""
    n = record[0] - 63
    kind = rng.randrange(12)
    if kind == 0:  # truncated
        return record[:rng.randrange(len(record))]
    if kind == 1:  # extra bytes
        return record + bytes(rng.randrange(63, 127) for _ in range(rng.randint(1, 3)))
    if kind == 2:  # a wrong short header
        return bytes([rng.randrange(63, 127)]) + record[1:]
    if kind == 3:  # the long form of a short order, canonical body
        return _long_header(n) + record[1:]
    if kind == 4:  # the optional header, alone or before the record
        return b">>graph6<<" + (record if rng.random() < 0.7 else b"")
    if kind == 5:  # an extra-long header
        return b"~~" + record[1:]
    if kind == 6:  # a non-ASCII byte
        at = rng.randrange(len(record) + 1)
        return record[:at] + bytes([rng.randrange(128, 256)]) + record[at:]
    if kind == 7:  # a control or out-of-range ASCII byte, a sparse6/digraph6 lead included
        at = rng.randrange(len(record))
        return record[:at] + bytes([rng.choice(b"\x00\x01\x7f !0:;&>")]) + record[at + 1:]
    if kind == 8:  # one body byte replaced by any graph6 byte: a nonzero padding bit, perhaps
        if len(record) < 2:
            return record
        at = rng.randrange(1, len(record))
        return record[:at] + bytes([rng.randrange(63, 127)]) + record[at + 1:]
    if kind == 9:  # near the order limit: a header that is refused, or a body of the wrong length
        big = rng.choice([_ORDER_MAX - 1, _ORDER_MAX, _ORDER_MAX + 1, _LONG_MAX])
        return _long_header(big) + record[1:rng.randrange(1, len(record) + 1)]
    if kind == 10:  # a truncated long header
        return b"~" + record[:rng.randrange(3)]
    return record  # unchanged


def _files(rng: random.Random, records):
    """FILES lists of one to four lines: mutants among unchanged records."""
    for _ in range(FILES):
        lines = [_mutant(rng, rng.choice(records)) for _ in range(rng.randint(1, 3))]
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(records))
        yield lines


def _decodes(lines):
    """Per line, whether decode_graph6 takes it as a latin-1 reader hands it
    over, or None for a blank line, which the reader skips."""
    space = "".join(c for c in map(chr, range(128)) if c.isspace())
    out = []
    for line in lines:
        record = line.decode("latin-1").strip(space)
        try:
            out.append(bool(decode_graph6(record)) if record else None)
        except Graph6Error:
            out.append(False)
    return out


def _run(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), asserting the CLI's contract."""
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = capsys.readouterr()
    assert time.perf_counter() - started < RUN_SECONDS, argv
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    lines = err.splitlines()
    if code == 2 and lines and lines[0].startswith("usage:"):
        assert lines[-1].startswith("huckel") and ": error: " in lines[-1], (argv, err)
    elif code == 2:
        assert [line for line in lines if line.startswith("error: ")] == lines[-1:], (argv, err)
        assert all(line.startswith("warning: line ") for line in lines[:-1]), (argv, err)
    else:
        assert all(line.startswith("warning: line ") for line in lines), (argv, err)
    return code, out, err


def test_mutated_records_through_analyze_and_verify(capsys, tmp_path):
    rng = random.Random(SEED)
    records = GOLDEN.read_bytes().split()
    path = tmp_path / "mutants.g6"
    exits = set()
    for lines in _files(rng, records):
        path.write_bytes(b"".join(line + rng.choice([b"\n", b"\r\n", b"  \n"]) for line in lines))
        decodes = _decodes(lines)
        accepted, whole = decodes.count(True), False not in decodes
        for skip in ([], ["--skip-bad"]):
            code, out, err = _run(capsys, ["analyze", str(path)] + skip)
            assert code == (0 if whole or skip else 2), (lines, err)
            if code == 0:
                assert len([json.loads(line) for line in out.splitlines()]) == accepted
                assert ("warning: line" in err) == (not whole)
            code, out, err = _run(capsys, ["verify", "--corpus", str(path)] + skip)
            exits.add(code)
            assert (code == 2) == (not whole and not skip), (lines, err)
            if code != 2:
                assert err == ""
                reports = json.loads(out)["reports"]
                assert sum(rep["graph_count"] for rep in reports) == accepted
    assert exits == {0, 2}


BOUND = [["--n", n] + m for n in ("-1", "0", "1", "2", "3", "8192", "8193", "10" * 20, "x", "1.5", "")
         for m in ([], ["--m", "-1"], ["--m", "0"], ["--m", "3"], ["--m", "99999999999999999999"])]
CONSTRUCT = [[family] + t + q for family in ("extremal", "switched", "conference", "remark")
             for t in ([], ["--t", "-1"], ["--t", "0"], ["--t", "1"], ["--t", "3"], ["--t", "45"],
                       ["--t", "10" * 20])
             for q in ([], ["--q", "-5"], ["--q", "1"], ["--q", "5"], ["--q", "29"], ["--q", "8193"],
                       ["--q", "10" * 20])]
VERIFY = ([["--n", n] for n in ("-1", "0", "1", "3", "9", "10" * 20, "x")]
          + [["--n", "3", "--jobs", j] for j in ("-1", "0", "1", "x")]
          + [["--n", n, "--jobs", "2"] for n in ("0", "9")]
          + [["--n", "4", "--tol", t]
             for t in ("-0.0", "0", "1", "1.0000001", "-1e-300", "1e-400", "nan", "inf", "x")]
          + [["--n", "4", "--checks", c] for c in ("", ",", "lower", "lower,lower", "bogus", "lower,", " lower")]
          + [["--n", "3", "--corpus", str(GOLDEN)], []])


@pytest.mark.parametrize("command, cases", [("bound", BOUND), ("construct", CONSTRUCT), ("verify", VERIFY)])
def test_boundary_arguments(capsys, command, cases):
    codes = [_run(capsys, [command] + argv)[0] for argv in cases]
    assert 2 in codes and 0 in codes
