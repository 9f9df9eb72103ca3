"""Byte-identical golden output of the CLI.

Every case runs in-process through ``huckel.cli.main(argv)``; its stdout, exit
code, ``--dump`` CSV and ``--cert`` JSON must equal the committed files under
``tests/golden/`` byte for byte.  A refactor that changes any of them changes
what the package computes.

The files are never rewritten by a test.  After a deliberate change of output,
rewrite them (and the seeded corpus they read) with

    PYTHONPATH=src python tests/test_golden.py

or rewrite only the named cases' files and exit codes, leaving the corpus and
every other file as they are, with

    PYTHONPATH=src python tests/test_golden.py construct_remark_t1 construct_remark_t2

and review the diff before committing it.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.g6"
EXIT_CODES = GOLDEN / "exit_codes.json"
CORPUS_SEED = 20090801
CORPUS_SIZE = 500


def _cases():
    """name -> (argv, artifact suffix); '{out}' in argv is the artifact path."""
    cases = {f"verify_n{n}": (["verify", "--n", str(n)], None) for n in range(1, 9)}
    for n in (4, 5):
        cases[f"verify_n{n}_dump"] = (["verify", "--n", str(n), "--dump", "{out}"], ".csv")
    cases["verify_corpus"] = (["verify", "--corpus", str(CORPUS)], None)
    cases["verify_corpus_dump"] = (["verify", "--corpus", str(CORPUS), "--dump", "{out}"], ".csv")
    cases["analyze_corpus"] = (["analyze", str(CORPUS)], None)
    for family in ("extremal", "switched", "remark"):
        for t in (1, 2, 3):
            cases[f"construct_{family}_t{t}"] = (
                ["construct", family, "--t", str(t), "--cert", "{out}"], ".cert.json"
            )
    for q in (5, 9, 13, 17, 25, 29):
        cases[f"construct_conference_q{q}"] = (
            ["construct", "conference", "--q", str(q), "--cert", "{out}"], ".cert.json"
        )
    for n, m in ((4, 3), (5, 4), (5, 2), (10, 20), (11, 30), (7, 0)):
        cases[f"bound_n{n}_m{m}"] = (["bound", "--n", str(n), "--m", str(m)], None)
    for n in (2, 3, 9, 10, 50, 51):
        cases[f"bound_n{n}"] = (["bound", "--n", str(n)], None)
    return cases


CASES = _cases()


def run_case(name, workdir):
    """Run one case; returns (exit code, stdout bytes, artifact bytes or None)."""
    from huckel.cli import main

    argv, suffix = CASES[name]
    out = Path(workdir) / f"{name}{suffix}" if suffix else None
    argv = [str(out) if a == "{out}" else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    artifact = out.read_bytes() if out is not None else None
    return code, buf.getvalue().encode("ascii"), artifact


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    code, stdout, artifact = run_case(name, tmp_path)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    suffix = CASES[name][1]
    if suffix:
        assert artifact == (GOLDEN / f"{name}{suffix}").read_bytes()


@pytest.mark.parametrize("name", sorted(n for n, (_, suffix) in CASES.items() if suffix == ".cert.json"))
def test_construct_certificates_hold_only_rounding_dust(name):
    # The deviations from the proven spectra, and the slacks against the
    # bounds, are dust below 1e-12 relative: a regeneration that moves them
    # further is a real change.  The extremal family attains both bounds,
    # so its slacks are 0; the switched family's are the distance from its
    # exact HE, summed over its integral spectrum.
    from huckel.bounds import upper_bound, upper_bound_order
    from huckel.srg import SrgParams, predicted_spectrum

    cert = json.loads((GOLDEN / f"{name}.cert.json").read_text())
    assert cert["max_spectrum_deviation"] <= 1e-12
    if cert["family"] not in ("switched", "extremal"):
        return
    n = cert["n"]
    values = sorted((v for v, mult in predicted_spectrum(SrgParams(*cert["params"])) for _ in range(mult)), reverse=True)
    assert all(v == int(v) for v in values)
    he = 2 * sum(int(v) for v in values[:n // 2])
    for key, bound in (("upper_n", upper_bound_order(n)), ("upper_nm", upper_bound(n, cert["m"])[0])):
        assert abs(cert[f"slack_{key}"] - (bound - he)) <= 1e-12 * bound, key
        if cert["family"] == "extremal":
            assert bound == he and abs(cert[f"slack_{key}"]) <= 1e-12 * bound, key


def test_golden_set_is_complete():
    expected = {f"{name}.stdout" for name in CASES}
    expected |= {f"{name}{suffix}" for name, (_, suffix) in CASES.items() if suffix}
    expected |= {CORPUS.name, EXIT_CODES.name}
    assert {p.name for p in GOLDEN.iterdir()} == expected


# ─── regeneration ───────────────────────────────────────────────────────────


def _random_rows(rng, n, p):
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _tree_rows(rng, n):
    """Random labeled tree: each vertex after the first joins an earlier one,
    then the labels are shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = perm[u], perm[v]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return rows


def make_corpus(seed=CORPUS_SEED, count=CORPUS_SIZE):
    """Seeded graph6 records: orders 2..20, edge density U[0,1], with every
    fifth record a star, a tree or a graph with isolated vertices planted."""
    from huckel.graphs import Graph, write_graph6

    rng = random.Random(seed)
    records = []
    for k in range(count):
        n = rng.randint(2, 20)
        kind = k % 15
        if kind == 0:
            centre = rng.randrange(n)
            rows = [0] * n
            for v in range(n):
                if v != centre:
                    rows[centre] |= 1 << v
                    rows[v] |= 1 << centre
        elif kind == 5:
            rows = _tree_rows(rng, n)
        elif kind == 10:
            rows = _random_rows(rng, n, rng.random())
            for v in rng.sample(range(n), rng.randint(1, max(1, n // 3))):
                for u in range(n):
                    rows[u] &= ~(1 << v)
                rows[v] = 0
        else:
            rows = _random_rows(rng, n, rng.random())
        edges = [(i, j) for j in range(n) for i in range(j) if rows[j] >> i & 1]
        records.append(write_graph6(Graph(n, edges)))
    return "".join(r + "\n" for r in records)


def regenerate(names=()):
    """Rewrite the named cases' files and exit codes, or with no names every
    golden file and the seeded corpus."""
    import tempfile

    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    if names:
        codes = json.loads(EXIT_CODES.read_text())
    else:
        GOLDEN.mkdir(exist_ok=True)
        for old in GOLDEN.iterdir():
            old.unlink()
        CORPUS.write_text(make_corpus(), encoding="ascii")
        codes, names = {}, sorted(CASES)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            code, stdout, artifact = run_case(name, tmp)
            codes[name] = code
            (GOLDEN / f"{name}.stdout").write_bytes(stdout)
            if artifact is not None:
                (GOLDEN / f"{name}{CASES[name][1]}").write_bytes(artifact)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(names)} case(s) to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
