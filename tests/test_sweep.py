"""Exhaustive verification sweeps over all labeled graphs of small orders."""

import concurrent.futures
import csv
import importlib
import itertools
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from huckel.bounds import lemma1_check, lower_bound, upper_bound, upper_bound_applies, upper_bound_order
from conftest import complete, corpus_graphs, cycle, graph_records, mask_graph6, path, star
from huckel.graphs import Graph, add_isolated_vertex, pair_order, parse_graph6
from huckel.spectra import DUST_TOL, TIGHT_TOL, energy
from huckel.sweep import (
    ALL_CHECKS,
    CHECKS,
    SweepReport,
    _batch_connected,
    _mask_batch,
    corpus_records,
    sweep,
    sweep_labeled,
)


def check_tally_arithmetic(rep):
    for tally in rep.checks.values():
        assert tally.checked == rep.graph_count
        assert tally.holds + tally.violated + tally.not_applicable == tally.checked


def test_sweep_order_3():
    rep = sweep_labeled(3)
    assert rep.graph_count == 8
    assert rep.total_violations == 0
    assert rep.solver_failures == []
    check_tally_arithmetic(rep)

    # The two-parameter bound is asserted for odd orders only from m >= n-1:
    # the three 2-edge paths and the triangle qualify.
    assert (rep.checks["upper_nm"].holds, rep.checks["upper_nm"].not_applicable) == (4, 4)
    assert (rep.checks["odd_strict"].holds, rep.checks["odd_strict"].not_applicable) == (4, 4)
    # Strictness margin is smallest on the triangle: sqrt(10) - 3.
    assert rep.checks["odd_strict"].min_slack == pytest.approx(0.16227766016837997, abs=1e-12)

    # The half-moment inequality is a theorem here only for m >= n: the
    # triangle alone, which meets it with equality.
    assert (rep.checks["lemma1"].holds, rep.checks["lemma1"].not_applicable) == (1, 7)
    assert rep.checks["lemma1"].violated == 0
    assert rep.checks["lemma1"].witnesses == ["Bw"]
    assert rep.checks["lemma1"].min_slack == pytest.approx(0.0, abs=1e-12)

    # Order bound applies to everything; tightest on the triangle.
    assert rep.checks["upper_n"].holds == 8
    assert rep.checks["upper_n"].min_slack == pytest.approx(0.23205080756887742, abs=1e-12)

    # Lower bound: the three labeled 2-edge paths are the stars and attain it.
    assert (rep.checks["lower"].holds, rep.checks["lower"].not_applicable) == (4, 4)
    assert rep.checks["lower"].witnesses == ["BW", "Bg", "Bo"]
    assert rep.checks["lower"].min_slack == pytest.approx(0.0, abs=1e-9)

    # Odd two-step refinement is out of scope below n=5.
    assert rep.checks["intermediate"].not_applicable == 8
    assert rep.checks["intermediate"].min_slack is None


def test_sweep_order_4():
    rep = sweep_labeled(4)
    assert rep.graph_count == 64
    assert rep.total_violations == 0
    check_tally_arithmetic(rep)

    # Half-moment domain: 22 graphs with m >= 4 plus the 16 labeled trees.
    assert rep.checks["lemma1"].holds == 38
    assert rep.checks["lemma1"].not_applicable == 26
    assert rep.checks["lemma1"].violated == 0
    assert rep.checks["lemma1"].min_slack == pytest.approx(0.75, abs=1e-12)

    # Even two-parameter bound applies everywhere; equality exactly on the
    # empty graph and the three perfect matchings.
    assert rep.checks["upper_nm"].holds == 64
    assert rep.checks["upper_nm"].witnesses == ["C?", "CK", "CQ", "C`"]
    assert rep.checks["upper_nm"].witness_count == 4

    # Stars attain the lower bound.
    assert rep.checks["lower"].witnesses == ["CF", "CX", "Ci", "Cs"]

    # Two-step refinement is tight on eight graphs, K4 among them.
    assert rep.checks["intermediate"].witnesses == [
        "CJ", "CT", "C]", "Ce", "Cl", "Cr", "Cw", "C~",
    ]
    assert rep.checks["upper_n"].min_slack == pytest.approx(0.34099598952009114, abs=1e-12)


def test_sweep_order_1():
    rep = sweep_labeled(1)
    assert rep.graph_count == 1
    assert rep.total_violations == 0
    assert rep.checks["upper_n"].holds == 1
    assert rep.checks["upper_nm"].not_applicable == 1
    assert rep.checks["lower"].not_applicable == 1


def test_parallel_matches_serial():
    serial = sweep_labeled(5)
    parallel = sweep_labeled(5, jobs=2)
    assert parallel.to_dict() == serial.to_dict()
    # Frozen half-moment tallies: 638 graphs with m >= 5 plus 125 trees.
    assert serial.checks["lemma1"].holds == 763
    assert serial.checks["lemma1"].not_applicable == 261
    assert serial.checks["lemma1"].min_slack == pytest.approx(0.5599999999999987, abs=1e-12)
    assert serial.checks["odd_strict"].min_slack == pytest.approx(0.4434806740639088, abs=1e-12)


def flood_fill_connected(g: Graph) -> bool:
    """Bitmask flood fill of g's rows from vertex 0; orders 0 and 1 count as connected."""
    seen = frontier = 1 if g.n else 0
    while frontier:
        reach = 0
        for v in range(g.n):
            if frontier >> v & 1:
                reach |= g.rows[v]
        frontier = reach & ~seen
        seen |= reach
    return seen == (1 << g.n) - 1


def test_batch_connected_matches_flood_fill():
    masks = np.arange(1 << 10)
    got = _batch_connected(_mask_batch(5, masks)[0])
    expected = np.array([flood_fill_connected(parse_graph6(mask_graph6(5, int(mask)))) for mask in masks])
    assert (got == expected).all()
    assert int(got.sum()) == 728  # connected labeled graphs on 5 vertices


def test_sweep_checks_subset():
    rep = sweep_labeled(4, checks=("upper_nm",))
    assert list(rep.checks) == ["upper_nm"]
    with pytest.raises(ValueError, match="unknown check"):
        sweep_labeled(4, checks=("upper_nm", "bogus"))


def test_sweep_rejects_large_order():
    with pytest.raises(ValueError, match="exhaustive sweep"):
        sweep_labeled(9)


def test_dump_rows(tmp_path):
    path = tmp_path / "rows.csv"
    rep = sweep_labeled(3, dump_path=str(path))
    assert rep.graph_count == 8
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert set(rows[0]) == {
        "graph6", "n", "m", "he", "energy", "alpha", "beta",
        "upper_nm", "upper_nm_regime", "upper_nm_applies", "slack_upper_nm",
        "upper_n", "slack_upper_n", "lower", "lower_applies", "slack_lower",
        "f1", "f2", "lemma1",
    }
    by_g6 = {row["graph6"]: row for row in rows}
    # The per-graph column evaluates the half-moment inequality truthfully
    # under its stated m >= n-1 hypothesis, so the 2-edge paths show the
    # genuine violation even though the sweep scopes its own check tighter.
    assert by_g6["Bw"]["lemma1"] == "holds"
    for g6 in ("BW", "Bg", "Bo"):
        assert by_g6[g6]["lemma1"] == "violated"
    assert by_g6["B?"]["lemma1"] == "not_applicable"
    assert float(by_g6["Bw"]["he"]) == pytest.approx(3.0, abs=1e-9)
    assert by_g6["Bw"]["upper_nm_regime"] == "second"


def test_dump_requires_serial():
    with pytest.raises(ValueError, match="jobs=1"):
        sweep_labeled(3, jobs=2, dump_path="/tmp/never-written.csv")


def _bound_table_by_loop(n):
    """The per-order table the dump read before it was built from array
    bounds: value, regime and applies of the scalar bound at every m."""
    vals, regimes, applies = [], [], []
    for m in range(n * (n - 1) // 2 + 1):
        value, regime = upper_bound(n, m)
        vals.append(value)
        regimes.append(regime)
        applies.append(upper_bound_applies(n, m))
    return vals, regimes, applies


def _dump_rows_by_loop(b, g6_of):
    """The per-row CSV writer the column-wise one replaced, reading the
    scalar bound table: the oracle of the --dump bytes."""
    n, g = b.n, "{:.12g}".format
    en = energy(b.w)
    lemma1 = lemma1_check(n, b.m, b.alpha, tol=b.tol)
    un = upper_bound_order(n) if n >= 1 else None
    lb = lower_bound(n) if n >= 2 else None
    table = _bound_table_by_loop(n) if n >= 2 else None
    rows = []
    for idx in range(len(b.m)):
        m, he = int(b.m[idx]), b.he[idx]
        row = [g6_of(np.array([idx]))[0], n, m, g(he), g(en[idx]), g(b.alpha[idx]), g(b.beta[idx]) if n % 2 else ""]
        if n >= 2:
            nm = table[0][m]
            row += [g(nm), table[1][m], int(bool(table[2][m])), g(nm - he)]
        else:
            row += [""] * 4
        row += [g(un), g(un - he)] if un is not None else [""] * 2
        if lb is not None:
            row += [g(lb), int(not b.isolated[idx]), g(he - lb), g(b.f1[idx]), g(b.f2[idx])]
        else:
            row += [""] * 5
        row.append(lemma1[idx])
        rows.append(row)
    return rows


def _dumps(run, tmp_path, monkeypatch):
    """The --dump bytes of run(path) with the column-wise writer and with the
    per-row oracle."""
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    run(str(new))
    with monkeypatch.context() as patch:
        patch.setattr(sweep_module, "_dump_rows", _dump_rows_by_loop)
        run(str(old))
    return new.read_bytes(), old.read_bytes()


@pytest.mark.parametrize("n,tol", [(1, 1e-8), (2, 1e-8), (3, 0.0), (6, 1e-8)])
def test_dump_columns_match_the_per_row_writer(n, tol, tmp_path, monkeypatch):
    new, old = _dumps(lambda path: sweep_labeled(n, tol=tol, dump_path=path), tmp_path, monkeypatch)
    assert new.count(b"\n") == (1 << (n * (n - 1) // 2)) + 1
    assert new == old


def test_corpus_dump_columns_match_the_per_row_writer(tmp_path, monkeypatch):
    # Orders 0 and 1 leave the bound columns blank.
    graphs = [Graph(0), Graph(1), complete(2), Graph(2), path(3),
              star(5), cycle(5), add_isolated_vertex(complete(4)), complete(6)]
    new, old = _dumps(lambda path: sweep(graph_records(graphs), dump_path=path), tmp_path, monkeypatch)
    assert new.count(b"\n") == len(graphs) + 1
    assert new == old


def test_corpus_records(tmp_path):
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\n\nC~\n  Dhc  \n")
    graphs = corpus_graphs(path)
    assert [g.n for g in graphs] == [3, 4, 5]
    assert graphs[0] == complete(3)

    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\n:junk\nC~\n")
    with pytest.raises(Exception, match=r"bad\.g6:2"):
        corpus_graphs(bad)
    assert [g.n for g in corpus_graphs(bad, on_error="skip")] == [3, 4]
    with pytest.raises(ValueError, match="on_error"):
        list(corpus_records(str(bad), on_error="ignore"))


def test_sweep_stream_matches_exhaustive():
    reports = sweep(graph_records(parse_graph6(mask_graph6(4, mask)) for mask in range(1 << 6)))
    assert len(reports) == 1
    assert reports[0].to_dict() == sweep_labeled(4).to_dict()


def test_sweep_stream_groups_orders():
    mixed = [complete(3), cycle(5), star(3), complete(4)]
    reports = sweep(graph_records(mixed))
    assert [rep.n for rep in reports] == [3, 4, 5]
    assert [rep.graph_count for rep in reports] == [2, 1, 1]
    assert sum(rep.total_violations for rep in reports) == 0


def test_report_serialization():
    rep = sweep_labeled(3)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob == rep.to_dict()
    assert blob["graph_count"] == 8
    empty = SweepReport.for_checks(3, ("lower",)).to_dict()
    assert empty["checks"] == {"lower": {"checked": 0, "holds": 0, "violated": 0, "not_applicable": 0}}
    assert (empty["min_slack"], empty["equality_witnesses"]) == ({"lower": None}, {"lower": []})


def test_worker_processes_capped(monkeypatch):
    # A recorder in place of the pool: it starts no process and runs each
    # range in this one.
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    sweep_module = importlib.import_module("huckel.sweep")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 4)
    serial = sweep_labeled(6).to_dict()
    assert sweep_labeled(6, jobs=10 ** 6).to_dict() == serial  # 32 ranges, 4 CPUs
    assert sweep_labeled(5, jobs=3).to_dict() == sweep_labeled(5).to_dict()  # one range
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: None)
    sweep_labeled(6, jobs=3)
    assert started == [4, 1, 1]


def test_readme_describes_the_check_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## What the checks assert", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `([a-z0-9_]+)`", section, flags=re.M) == list(ALL_CHECKS)


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(tour, ns)
    # The values its comments state: C5 has E = 2 + 2 sqrt(5) and HE = 4 + 3(sqrt(5) - 1)/2.
    assert (ns["ev"].energy, ns["ev"].huckel) == pytest.approx((2 + 2 * 5 ** 0.5, 4 + 1.5 * (5 ** 0.5 - 1)))
    assert ns["classify_equality"](ns["rep"]) == {"lower_tight"}
    assert ns["report"].total_violations == 0
    assert ns["srg_params"](ns["g"]).as_tuple() == (26, 15, 8, 9)


class _NoPool:
    """A stand-in for ProcessPoolExecutor that runs every part in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_parallel_witness_lists_match_serial_at_order_7(monkeypatch):
    # Order 7 has 1,015 labeled intermediate witnesses, more than the cap, so
    # the capped list must be the smallest strings whatever the part order.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    serial = sweep_labeled(7)
    assert serial.checks["intermediate"].witness_count > 1000
    assert serial.checks["intermediate"].witnesses == sorted(serial.checks["intermediate"].witnesses)
    assert sweep_labeled(7, jobs=2).to_dict() == serial.to_dict()


# ─── the orbit-weighted sweep ───────────────────────────────────────────────

sweep_module = importlib.import_module("huckel.sweep")


def _band(options, monkeypatch):
    """options as sweep_labeled arguments; a "band" entry widens the witness
    band |slack| <= TIGHT_TOL instead."""
    options = dict(options)
    if "band" in options:
        monkeypatch.setattr(sweep_module, "TIGHT_TOL", options.pop("band"))
    return options


def test_class_counts_match_the_atlas():
    import networkx as nx

    atlas = [g.number_of_nodes() for g in nx.graph_atlas_g()]
    for n in range(1, 8):
        reps, sizes = sweep_module._classes(n)
        assert len(reps) == atlas.count(n) == [1, 2, 4, 11, 34, 156, 1044][n - 1]
        assert int(sizes.sum()) == 1 << (n * (n - 1) // 2)
        assert list(reps) == sorted(reps)
        for r in reps[:50]:
            orbit = sweep_module._orbit(n, int(r))
            assert orbit[0] == r  # the representative is the smallest mask of its class
            assert list(orbit) == sorted(set(orbit))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("options", [
    {},
    {"checks": ("lower", "odd_strict", "lemma1")},
    {"tol": 0.0},
    {"band": 1e-3},  # a wide band: many witness and bin-edge expansions
])
def test_orbit_sweep_matches_every_labeled_graph(n, options, monkeypatch):
    # A dump evaluates every labeled graph: the all-labeled oracle.
    options = _band(options, monkeypatch)
    oracle = sweep_labeled(n, dump_path=os.devnull, **options)
    assert sweep_labeled(n, **options).to_dict() == oracle.to_dict()


def _copies(n, masks):
    """The _Batch and check verdicts of graphs given by edge masks."""
    b = sweep_module._Batch(n, *sweep_module._mask_batch(n, masks), ALL_CHECKS, 1e-8)
    return b, b.verdicts


def test_labeled_copies_differ_from_their_class_by_rounding():
    n = 6
    reps, _ = sweep_module._classes(n)
    rep_batch, at_reps = _copies(n, reps)
    deviation, steep_deviation = 0.0, 0.0
    for k, r in enumerate(reps):
        _, at_copies = _copies(n, sweep_module._orbit(n, int(r)))
        for name, (applicable, _, slack, _) in at_reps.items():
            assert (at_copies[name][0] == applicable[k]).all()
            if applicable[k]:
                d = float(np.abs(at_copies[name][2] - slack[k]).max())
                steep = CHECKS[name].steep is not None and CHECKS[name].steep(rep_batch)[k]
                if steep:
                    steep_deviation = max(steep_deviation, d)
                else:
                    deviation = max(deviation, d)
    assert deviation <= 1e-12
    # A square root of a radicand near 0 turns rounding of 1e-15 into about
    # 1e-7, which is why the orbit sweep expands steep rows.
    assert DUST_TOL < steep_deviation < TIGHT_TOL


def test_any_representative_gives_the_labeled_report(monkeypatch):
    # Represent each class by its copy with the largest intermediate slack,
    # up to 1e-7 above its siblings at the steep equality graphs: expanding
    # steep rows keeps the report equal to the labeled one even for witness
    # bands narrower than that spread.
    n = 6
    reps, sizes = sweep_module._classes(n)
    far = []
    for r in reps:
        orbit = sweep_module._orbit(n, int(r))
        applicable, _, slack, _ = _copies(n, orbit)[1]["intermediate"]
        far.append(orbit[int(np.argmax(np.where(applicable, slack, -np.inf)))])
    for band in (0.0, 1e-8):
        monkeypatch.setattr(sweep_module, "TIGHT_TOL", band)
        got = sweep_module._process_classes(n, np.array(far), sizes, ALL_CHECKS, 1e-8)
        oracle = sweep_labeled(n, dump_path=os.devnull)
        assert got.finalize().to_dict() == oracle.to_dict()


def test_violation_threshold_inside_one_class():
    # A (negative) tolerance that puts the upper_n violation threshold in the
    # middle of one class's spread of rounded slacks: some copies violate the
    # bound and others do not, so the class must be evaluated copy by copy.
    n = 6
    for r in sweep_module._classes(n)[0]:
        applicable, _, slack, _ = _copies(n, sweep_module._orbit(n, int(r)))[1]["upper_n"]
        if slack.max() > slack.min():
            break
    tol = -(slack.max() + slack.min()) / 2 / max(1.0, upper_bound_order(n))
    oracle = sweep_labeled(n, checks=("upper_n",), tol=tol, dump_path=os.devnull)
    assert 0 < oracle.checks["upper_n"].violated
    assert sweep_labeled(n, checks=("upper_n",), tol=tol).to_dict() == oracle.to_dict()


def test_parallel_violation_examples_match_serial(monkeypatch):
    # A negative tolerance makes thousands of violations, more than the cap,
    # spread over every part; the examples are still the first in mask order.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    serial = sweep_labeled(6, tol=-0.5)
    assert serial.checks["upper_n"].violated > 20
    assert sweep_labeled(6, tol=-0.5, jobs=4).to_dict() == serial.to_dict()


def test_permutation_table_holds_every_mask_bit():
    # From n = 5 on the table holds bits 7 and up, which an int8 shift loses.
    n = 6
    index = {pair: k for k, pair in enumerate(pair_order(n))}
    expected = [[1 << index[tuple(sorted((p[i], p[j])))] for i, j in pair_order(n)]
                for p in itertools.permutations(range(n))]
    table = sweep_module._perm_bits(n)
    assert table.dtype == np.int64
    assert table.tolist() == expected


# ─── the augmentation pairs ─────────────────────────────────────────────────


def test_pair_weights_count_every_labeled_graph():
    masks, weights, _ = sweep_module._pairs(8)
    assert len(masks) == 1044 << 7  # the classes of order 7, times the 2^7 neighbour sets
    assert len(np.unique(masks)) == len(masks)
    assert int(weights.sum()) == 1 << 28


def test_the_pairs_of_a_class_weigh_its_orbit_size():
    n = 6
    masks, weights, _ = sweep_module._pairs(n)
    for r, size in zip(*sweep_module._classes(n)):
        assert int(weights[np.isin(masks, sweep_module._orbit(n, int(r)))].sum()) == size


def _faddeev_leverrier(a: np.ndarray) -> np.ndarray:
    """The characteristic polynomials of a (B, n, n) integer batch, leading 1
    first, by Faddeev-LeVerrier on the whole matrix in int64."""
    n = a.shape[1]
    a = a.astype(np.int64)
    coef = np.zeros((len(a), n + 1), dtype=np.int64)
    coef[:, 0] = 1
    m = np.broadcast_to(np.eye(n, dtype=np.int64), a.shape)
    for j in range(1, n + 1):
        am = a @ m
        trace = np.trace(am, axis1=1, axis2=2)
        assert (trace % j == 0).all()
        coef[:, j] = -trace // j
        m = am + coef[:, j, None, None] * np.eye(n, dtype=np.int64)
    return coef


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_polynomials_equal_faddeev_leverrier(n):
    reps, _ = sweep_module._classes(n - 1)
    masks = (reps[:, None] | np.arange(1 << (n - 1), dtype=np.int64) << ((n - 1) * (n - 2) // 2)).ravel()
    polys = sweep_module._charpolys(n, reps)
    if n == 8:  # a seeded sample of the 133,632 pairs
        at = np.random.default_rng(8).choice(len(masks), 20_000, replace=False)
        masks, polys = masks[at], polys[at]
    assert polys.dtype == np.int64
    assert np.array_equal(polys, _faddeev_leverrier(sweep_module._mask_batch(n, masks)[0])[:, 1:])


@pytest.mark.parametrize("n, distinct", [(5, 33), (6, 151), (7, 988), (8, 11_453)])
def test_cospectral_pairs_share_one_spectrum(n, distinct):
    # The pairs come sorted by polynomial and ranked: equal ranks are
    # contiguous, and equal polynomials.  The spectra of a run, each solved
    # by itself, agree with its first to rounding.
    masks, _, ranks = sweep_module._pairs(n)
    assert np.array_equal(np.unique(ranks), np.arange(distinct))
    assert (np.diff(ranks) >= 0).all()
    a = sweep_module._mask_batch(n, masks)[0]
    polys = _faddeev_leverrier(a)
    first = np.concatenate(([True], ranks[1:] != ranks[:-1]))
    assert np.array_equal(polys, polys[first][ranks])
    assert len(np.unique(polys[first], axis=0)) == distinct
    w = np.linalg.eigvalsh(a)
    assert float(np.abs(w - w[first][ranks]).max()) <= 1e-12


def test_a_run_shares_its_solve_and_its_solver_failure(monkeypatch):
    n = 6
    masks, _, run = sweep_module._pairs(n)
    first = np.concatenate(([True], run[1:] != run[:-1]))
    failing = int(np.flatnonzero(np.bincount(run) > 1)[0])  # a run of several pairs
    a, m = sweep_module._mask_batch(n, masks)
    bad = a[np.flatnonzero(first)[failing]].copy()
    solve = np.linalg.eigvalsh

    def flaky(x):
        if x.ndim == 3 or np.array_equal(x, bad):
            raise np.linalg.LinAlgError("did not converge")
        return solve(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
    b = sweep_module._Batch(n, a, m, ALL_CHECKS, 1e-8, run)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    assert np.array_equal(~b.ok, run == failing)
    own = solve(a)[:, ::-1]
    assert float(np.abs(b.w - own)[b.ok].max()) <= 1e-12
    assert np.array_equal(b.w, b.w[np.flatnonzero(first)][run])
    assert np.array_equal(b.isolated, (a.sum(axis=2) == 0).any(axis=1))


def test_parallel_order_8_matches_serial(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    serial = sweep_labeled(8)
    assert serial.graph_count == 1 << 28
    assert serial.checks["lower"].holds == 252_522_481  # graphs without isolated vertices, OEIS A006129
    assert sweep_labeled(8, jobs=2).to_dict() == serial.to_dict()


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("options", [
    {},
    {"checks": ("lower", "odd_strict", "lemma1")},
    {"tol": 0.0},
    {"band": 1e-3},
])
def test_pair_sweep_in_tiny_pieces_matches_every_labeled_graph(n, options, monkeypatch):
    # Pieces of 7 masks: the smallest slack must still be the one over all pieces.
    options = _band(options, monkeypatch)
    oracle = sweep_labeled(n, dump_path=os.devnull, **options)
    monkeypatch.setattr(sweep_module, "_BATCH", 7)
    assert sweep_labeled(n, **options).to_dict() == oracle.to_dict()


def test_a_class_flagged_by_some_of_its_pairs_counts_once(monkeypatch):
    # The edge of a witness band inside the rounded slacks of one class's
    # pairs: some of them are flagged and the others, kept by themselves,
    # must give way to the expanded copies of their class.  A class's pairs
    # share one characteristic polynomial, so in one piece they share one
    # solve; pieces of one row solve each pair by itself.
    n = 5
    masks, _, _ = sweep_module._pairs(n)
    b, verdicts = _copies(n, masks)
    applicable, _, slack, _ = verdicts["intermediate"]
    cls = np.array([sweep_module._orbit(n, int(r))[0] for r in masks])
    spread = {c: slack[cls == c] for c in np.unique(cls[applicable & ~CHECKS["intermediate"].steep(b)])}
    widest = max(spread.values(), key=np.ptp)
    band = (widest.min() + widest.max()) / 2 - DUST_TOL
    near = np.abs(widest) <= band + DUST_TOL
    assert near.any() and not near.all()
    monkeypatch.setattr(sweep_module, "TIGHT_TOL", band)
    oracle = sweep_labeled(n, checks=("intermediate",), dump_path=os.devnull)
    assert sweep_labeled(n, checks=("intermediate",)).to_dict() == oracle.to_dict()
    monkeypatch.setattr(sweep_module, "_BATCH", 1)
    assert sweep_labeled(n, checks=("intermediate",)).to_dict() == oracle.to_dict()


@pytest.mark.parametrize("n, classes", [(7, 13), (8, 19)])
def test_each_expanded_class_computes_its_orbit_once(n, classes, monkeypatch):
    # 28 flagged pairs at n = 7 and 39 at n = 8 lie in 13 and 19 classes; a
    # flagged pair inside an orbit already expanded computes no orbit.
    masks, weights, keys = sweep_module._pairs(n)
    orbit, calls = sweep_module._orbit, []
    monkeypatch.setattr(sweep_module, "_orbit", lambda n, mask: calls.append(mask) or orbit(n, mask))
    rep = sweep_module._process_classes(n, masks, weights, ALL_CHECKS, 1e-8, keys=keys)
    assert len(calls) == len(set(calls)) == classes
    assert rep.graph_count == 1 << (n * (n - 1) // 2)


def _count_eigensolved(monkeypatch):
    """A list that np.linalg.eigvalsh appends the number of matrices it gets to."""
    solve, counts = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: counts.append(a.shape[0] if a.ndim == 3 else 1) or solve(a))
    return counts


@pytest.mark.parametrize("n, polynomials, copies", [(7, 988, 2_534), (8, 11_453, 7_704)])
def test_each_row_is_eigensolved_once(n, polynomials, copies, monkeypatch):
    # Pass 1 solves one pair per distinct characteristic polynomial, and once
    # more for each run of equal polynomials that a piece boundary cuts;
    # pass 2 solves every copy of an expanded class once.  No batch is solved
    # again to tally or to flag it.
    counts = _count_eigensolved(monkeypatch)
    sweep_labeled(n)
    pieces = len(sweep_module._pieces(sweep_module._pairs(n)[0], 1))
    assert len(counts) == pieces + 1
    assert polynomials + copies <= sum(counts) <= polynomials + (pieces - 1) + copies
    assert counts[-1] == copies


def test_each_corpus_record_is_eigensolved_once(monkeypatch):
    path = Path(__file__).resolve().parent / "golden" / "corpus.g6"
    counts = _count_eigensolved(monkeypatch)
    reports = sweep(corpus_records(str(path)))
    assert sum(counts) == sum(rep.graph_count for rep in reports) == len(path.read_text().split())


def test_each_reported_list_is_encoded_in_one_call(monkeypatch, tmp_path):
    # _tally encodes the solver failures, and each check's violation examples
    # and witnesses, in one call each; _dump_rows encodes a batch's graph6
    # column in one call.  Every call gets an index array, never one row.
    calls = []

    def counted(tally):
        def wrapped(rep, ok, verdicts, g6_of, weight=None):
            def encode(idx):
                assert isinstance(idx, np.ndarray) and idx.ndim == 1
                calls[-1].append(len(idx))
                return g6_of(idx)
            calls.append([])
            tally(rep, ok, verdicts, encode, weight)
            assert len(calls[-1]) <= 1 + 2 * len(verdicts)
        return wrapped

    monkeypatch.setattr(sweep_module, "_tally", counted(sweep_module._tally))
    rep = sweep_labeled(7)
    assert sum(map(sum, calls)) >= sum(t.witness_count for t in rep.checks.values()) > 1000
    calls.clear()
    sweep(corpus_records(str(Path(__file__).resolve().parent / "golden" / "corpus.g6")), dump_path=str(tmp_path / "d"))
    assert calls and all(len(c) <= 1 + 2 * len(ALL_CHECKS) for c in calls)

    dumped, rows = [], sweep_module._dump_rows
    monkeypatch.setattr(sweep_module, "_dump_rows",
                        lambda b, g6_of: rows(b, lambda idx: dumped.append(len(idx)) or g6_of(idx)))
    sweep_labeled(5, dump_path=str(tmp_path / "labeled.csv"))
    assert dumped == [1 << 10]
