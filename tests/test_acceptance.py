"""Acceptance criteria: ten end-to-end checks, one pass/fail line each.

Each test prints its verdict to the real stdout (visible with or without
capture) before asserting, so a full run always shows ten lines.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import complete, cycle, path, random_graph
from huckel.bounds import scan_order_bound, upper_bound, upper_bound_order
from huckel.constructions import (
    build_extremal_srg,
    build_remark_graph,
    build_switched_srg,
    conference_he_closed_form,
    paley_graph,
    verify_remark_spectrum,
)
from huckel.graphs import Graph, parse_graph6, write_graph6
from huckel.spectra import eigenvalues, energy_values
from huckel.srg import srg_params
from huckel.sweep import sweep_labeled


@pytest.fixture
def report(capsys):
    """One visible pass/fail line per criterion, bypassing output capture."""

    def _report(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\nacceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")

    return _report


@pytest.fixture(scope="module")
def sweeps():
    """Exhaustive sweeps for every order up to 7, shared across criteria."""
    return {n: sweep_labeled(n) for n in range(2, 8)}


def test_criterion_01_spectra_closed_forms_and_invariants(report):
    start = time.perf_counter()
    worst_closed = 0.0
    for n in range(1, 51):
        checks = [
            (complete(n), [float(n - 1)] + [-1.0] * (n - 1)),
            (path(n), sorted((2.0 * math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1)), reverse=True)),
        ]
        if n >= 3:
            checks.append(
                (cycle(n), sorted((2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)), reverse=True))
            )
        for g, expected in checks:
            dev = float(np.abs(eigenvalues(g).values - np.array(expected)).max())
            worst_closed = max(worst_closed, dev)

    rng = random.Random(0xACCE57)
    worst_trace = worst_frob = 0.0
    for _ in range(10_000):
        g = random_graph(rng, rng.randrange(1, 31), rng.random())
        w = eigenvalues(g).values  # raises if residual/trace/Frobenius break
        scale = max(1.0, 2.0 * g.m)
        worst_trace = max(worst_trace, abs(float(w.sum())) / scale)
        worst_frob = max(worst_frob, abs(float((w * w).sum()) - 2.0 * g.m) / scale)
    elapsed = time.perf_counter() - start

    ok = worst_closed <= 1e-10 and worst_trace <= 1e-9 and worst_frob <= 1e-9 and elapsed < 30.0
    report(
        1,
        ok,
        f"closed-form spectra to n=50 (max dev {worst_closed:.2e}), 10000 random "
        f"graphs n<=30 (trace {worst_trace:.2e}, Frobenius {worst_frob:.2e}) in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_exhaustive_sweeps_no_violations(sweeps, report):
    total_graphs = sum(rep.graph_count for rep in sweeps.values())
    violations = sum(rep.total_violations for rep in sweeps.values())
    counts_ok = all(
        sweeps[n].graph_count == 1 << (n * (n - 1) // 2) for n in sweeps
    )
    solver_ok = all(not rep.solver_failures for rep in sweeps.values())
    ok = violations == 0 and counts_ok and solver_ok
    report(
        2,
        ok,
        f"all checks on all {total_graphs} labeled graphs of orders 2..7 at tol 1e-8: "
        f"{violations} violations",
    )
    assert ok


def test_criterion_03_extremal_family_attains_bounds(report):
    start = time.perf_counter()
    expected_he = {1: 20.0, 2: 78.0, 3: 200.0}
    details = []
    ok = True
    for t in (1, 2, 3):
        g = build_extremal_srg(t)
        he = energy_values(eigenvalues(g)).huckel
        order = upper_bound_order(g.n)
        nm_val, _ = upper_bound(g.n, g.m)
        ok &= abs(he - expected_he[t]) <= 1e-8
        ok &= abs(he - order) <= 1e-8 * max(1.0, order)
        ok &= abs(he - nm_val) <= 1e-8 * max(1.0, nm_val)
        details.append(f"t={t}: HE={he:.9g} order={order:.9g} nm={nm_val:.9g}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(3, ok, "; ".join(details) + f" ({elapsed:.1f}s)")
    assert ok


def test_criterion_04_switching_construction_parameters(report):
    start = time.perf_counter()
    ok = True
    ns = []
    for t in (1, 2, 3, 4):
        n = 4 * t * t + 4 * t + 2
        sw = build_switched_srg(t)
        got = srg_params(sw)
        ok &= got is not None and got.as_tuple() == (n, 2 * t * t + t, t * t - 1, t * t)
        ext = srg_params(build_extremal_srg(t))
        ok &= ext is not None and ext.as_tuple() == (
            n, 2 * t * t + 3 * t + 1, t * t + 2 * t, t * t + 2 * t + 1,
        )
        ns.append(n)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(
        4,
        ok,
        f"switched+complement parameters verified for t=1..4 (n={ns}) in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_05_lower_bound_witnesses_are_stars(sweeps, report):
    frozen = {
        5: ["D?{", "DFC", "DXG", "DiO", "Ds_"],
        6: ["E?Bw", "E?{G", "EFCO", "EXG_", "EiP?", "Esa?"],
        7: ["F??Fw", "F?BwG", "F?{GO", "FFCO_", "FXG`?", "FiPA?", "FsaC?"],
    }
    ok = True
    for n, expected in frozen.items():
        witnesses = sweeps[n].checks["lower"].witnesses
        ok &= witnesses == expected
        # Every witness is a star: one center of degree n-1, the rest leaves.
        for g6 in witnesses:
            degs = sorted(parse_graph6(g6).dense().sum(axis=1))
            ok &= degs == [1] * (n - 1) + [n - 1]
    report(
        5,
        ok,
        "lower-bound equality witnesses at n=5,6,7 are exactly the n labeled stars "
        f"({[len(frozen[n]) for n in (5, 6, 7)]} of them)",
    )
    assert ok


def test_criterion_06_duplicated_vertex_graphs(report):
    start = time.perf_counter()
    ok = True
    details = []
    for t in (1, 2):
        h = build_remark_graph(t)
        rep = verify_remark_spectrum(h, t)
        he = energy_values(eigenvalues(h)).huckel
        estimate = 2.0 * (2 * t * t + 2 * t) * (t + 1) + 2.0 * math.sqrt(2.0) * t
        ok &= rep.matches
        ok &= rep.cubic_roots[2] < -math.sqrt(2.0) * t
        ok &= he > estimate
        details.append(
            f"t={t}: spectrum dev {rep.max_deviation:.2e}, HE {he:.6f} > estimate {estimate:.6f}"
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(6, ok, "; ".join(details) + f" ({elapsed:.1f}s)")
    assert ok


def test_criterion_07_odd_orders_strictly_below_bound(sweeps, report):
    frozen = {
        3: 0.16227766016837997,
        5: 0.4434806740639088,
        7: 0.20217734210115346,
    }
    ok = True
    details = []
    for n, expected in frozen.items():
        tally = sweeps[n].checks["odd_strict"]
        margin = sweeps[n].checks["odd_strict"].min_slack
        ok &= tally.violated == 0
        ok &= margin is not None and margin > 0.0
        ok &= abs(margin - expected) <= 1e-9
        details.append(f"n={n}: min margin {margin:.9g}")
    report(7, ok, "strictness margins positive at all odd orders; " + "; ".join(details))
    assert ok


def test_criterion_08_conference_closed_form_flagged(report):
    ok = True
    details = []
    for t, q in ((1, 5), (2, 9), (3, 13)):
        g = paley_graph(q)
        he = energy_values(eigenvalues(g)).huckel
        computed = 4.0 * t + (4.0 * t - 1.0) * (math.sqrt(4.0 * t + 1.0) - 1.0) / 2.0
        stated = conference_he_closed_form(t)
        ok &= abs(he - computed) <= 1e-8 * max(1.0, computed)
        ok &= abs(he - stated) > 1e-3  # discrepancy is real and must be flagged
        nm_val, _ = upper_bound(g.n, g.m)
        order = upper_bound_order(g.n)
        ok &= he <= nm_val + 1e-8 * max(1.0, nm_val)
        ok &= he <= order + 1e-8 * max(1.0, order)
        ok &= he >= 2.0 * math.sqrt(g.n - 1.0) - 1e-8
        details.append(f"q={q}: HE {he:.6f}, stated {stated:.6f} (off by {he - stated:.3f})")
    report(8, ok, "conference HE matches spectrum, stated closed form flagged; " + "; ".join(details))
    assert ok


def test_criterion_09_order_bound_is_the_m_maximum(report):
    ok = True
    worst_even = worst_identity = 0.0
    for n in range(4, 31, 2):
        scan = scan_order_bound(n)
        worst_even = max(worst_even, scan["scan_max"] - scan["order_bound"])
        worst_identity = max(
            worst_identity,
            abs(scan["value_at_optimal_m"] - scan["order_bound"]) / max(1.0, scan["order_bound"]),
        )
    worst_odd = 0.0
    argmax_ok = True
    for n in range(5, 30, 2):
        scan = scan_order_bound(n)
        worst_odd = max(worst_odd, scan["scan_max_first"] - scan["order_bound"])
        worst_identity = max(
            worst_identity,
            abs(scan["value_at_optimal_m"] - scan["order_bound"]) / max(1.0, scan["order_bound"]),
        )
        if n >= 9:
            argmax_ok &= abs(scan["scan_argmax_first"] - round(scan["optimal_m"])) <= 1
    ok = worst_even <= 1e-9 and worst_odd <= 1e-9 and worst_identity <= 1e-9 and argmax_ok
    report(
        9,
        ok,
        f"even n<=30 full scan and odd n<=29 narrow-regime scan stay below the order bound "
        f"(margins {worst_even:.2e}, {worst_odd:.2e}); narrow branch at the real optimizer "
        f"reproduces it to {worst_identity:.2e}",
    )
    assert ok


def test_criterion_10_codec_roundtrip(report):
    rng = random.Random(0xC0DEC)
    ok = True
    count = 10_000
    for _ in range(count):
        g = random_graph(rng, rng.randrange(1, 41), rng.random())
        record = write_graph6(g)
        back = parse_graph6(record)
        if back != g or write_graph6(back) != record:
            ok = False
            break
    report(10, ok, f"{count} random graphs n<=40: write -> parse -> write byte-identical")
    assert ok
