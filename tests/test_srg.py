"""Strongly regular graph detection, spectra, and extremal parameter families."""

import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import complete, cycle, path, star
from huckel.constructions import build_extremal_srg, build_switched_srg, paley_graph
from huckel.graphs import Graph, complement, parse_graph6
from huckel.bounds import upper_bound_order
from huckel.spectra import eigenvalues, group_spectrum, huckel_energy
from huckel.srg import (
    InfeasibleParamsError,
    SrgParams,
    conference_params,
    extremal_family_params,
    predicted_extremal_he,
    predicted_spectrum,
    srg_params,
    switched_family_params,
)


def test_srg_params_detection():
    petersen = parse_graph6("IheA@GUAo")
    assert srg_params(petersen).as_tuple() == (10, 3, 0, 1)
    assert srg_params(complement(petersen)).as_tuple() == (10, 6, 3, 4)
    assert srg_params(cycle(5)).as_tuple() == (5, 2, 0, 1)


def test_srg_params_rejections():
    assert srg_params(path(4)) is None  # not regular
    assert srg_params(cycle(6)) is None  # common-neighbor counts vary
    assert srg_params(complete(4)) is None  # excluded by convention
    assert srg_params(Graph(5)) is None
    assert srg_params(complete(2)) is None  # n < 3


def test_counting_identity():
    assert SrgParams(10, 3, 0, 1).counting_identity_holds()
    assert not SrgParams(10, 3, 0, 2).counting_identity_holds()
    with pytest.raises(InfeasibleParamsError):
        SrgParams(10, 3, 0, 2).validate()
    with pytest.raises(InfeasibleParamsError):
        SrgParams(10, 0, 0, 0).validate()


def test_complement_params():
    assert SrgParams(10, 3, 0, 1).complement().as_tuple() == (10, 6, 3, 4)
    assert SrgParams(10, 6, 3, 4).complement().as_tuple() == (10, 3, 0, 1)


@pytest.mark.parametrize(
    "params,expected",
    [
        ((10, 3, 0, 1), [(3.0, 1), (1.0, 5), (-2.0, 4)]),
        ((10, 6, 3, 4), [(6.0, 1), (1.0, 4), (-2.0, 5)]),
    ],
)
def test_predicted_spectrum_integral(params, expected):
    got = predicted_spectrum(SrgParams(*params))
    assert [mult for _, mult in got] == [mult for _, mult in expected]
    for (val, _), (evall, _) in zip(got, expected):
        assert val == pytest.approx(evall, abs=1e-12)


def test_predicted_spectrum_conference():
    got = predicted_spectrum(SrgParams(5, 2, 0, 1))
    assert [mult for _, mult in got] == [1, 2, 2]
    assert got[1][0] == pytest.approx(0.6180339887498949, abs=1e-12)
    assert got[2][0] == pytest.approx(-1.618033988749895, abs=1e-12)


def test_predicted_spectrum_matches_actual():
    petersen = parse_graph6("IheA@GUAo")
    actual = group_spectrum(eigenvalues(petersen).values)
    predicted = predicted_spectrum(srg_params(petersen))
    assert [m for _, m in actual] == [m for _, m in predicted]
    for (av, _), (pv, _) in zip(actual, predicted):
        assert av == pytest.approx(pv, abs=1e-9)


def test_predicted_spectrum_infeasible():
    # Passes the counting identity but forces fractional multiplicities.
    params = SrgParams(22, 7, 0, 3)
    assert params.counting_identity_holds()
    with pytest.raises(InfeasibleParamsError, match="multiplicity"):
        predicted_spectrum(params)
    # Fails the counting identity outright.
    with pytest.raises(InfeasibleParamsError):
        predicted_spectrum(SrgParams(21, 4, 1, 1))


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_family_params(t):
    ext = extremal_family_params(t)
    sw = switched_family_params(t)
    n = 4 * t * t + 4 * t + 2
    assert ext.as_tuple() == (n, 2 * t * t + 3 * t + 1, t * t + 2 * t, t * t + 2 * t + 1)
    assert sw.as_tuple() == (n, 2 * t * t + t, t * t - 1, t * t)
    ext.validate()
    sw.validate()
    assert sw.complement() == ext
    # Both admit integral spectra.
    assert sum(m for _, m in predicted_spectrum(ext)) == n
    assert sum(m for _, m in predicted_spectrum(sw)) == n


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_predicted_extremal_he_attains_order_bound(t):
    n = 4 * t * t + 4 * t + 2
    he = predicted_extremal_he(t)
    assert he == pytest.approx(upper_bound_order(n), abs=1e-9)
    # Cross-check against the predicted spectrum: HE = 2(k + r*f_top_half)...
    spec = predicted_spectrum(extremal_family_params(t))
    flat = [v for v, mult in spec for _ in range(mult)]
    assert huckel_energy(flat) == pytest.approx(he, abs=1e-9)


def test_family_params_validation():
    with pytest.raises(ValueError):
        extremal_family_params(0)
    with pytest.raises(ValueError):
        switched_family_params(0)
    with pytest.raises(ValueError):
        predicted_extremal_he(-1)


def _srg_by_loop(g):
    """The common-neighbour loop: the reference srg_params must equal."""
    n, rows = g.n, g.rows
    if n < 3:
        return None
    degs = [r.bit_count() for r in rows]
    k = degs[0]
    if any(d != k for d in degs) or k == 0 or k == n - 1:
        return None
    lam = mu = None
    for i in range(n):
        for j in range(i + 1, n):
            common = (rows[i] & rows[j]).bit_count()
            if (rows[i] >> j) & 1:
                if lam is None:
                    lam = common
                elif common != lam:
                    return None
            elif mu is None:
                mu = common
            elif common != mu:
                return None
    return SrgParams(n, k, lam, mu)


def test_srg_params_equals_the_common_neighbour_loop():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cube = Graph(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b])
    graphs = [build_extremal_srg(t) for t in (1, 2, 3)] + [build_switched_srg(t) for t in (1, 2, 3)]
    graphs += [paley_graph(13), two_triangles, cycle(6), cube, path(5), star(4)]
    graphs += [Graph(n) for n in range(5)] + [complete(n) for n in range(5)]
    for g in graphs:
        got = srg_params(g)
        assert got == _srg_by_loop(g), g
        if got is not None:
            assert all(type(x) is int for x in got.as_tuple())
    assert srg_params(two_triangles).as_tuple() == (6, 2, 1, 0)
    assert srg_params(cube) is None and srg_params(cycle(6)) is None


def _srg_by_gather(a):
    """srg_params before the identity check: every common-neighbour count of
    the upper triangle gathered from the full product A @ A."""
    n = len(a)
    if n < 3:
        return None
    degs = a.sum(axis=1)
    k = int(degs[0])
    if (degs != k).any() or k == 0 or k == n - 1:
        return None
    upper = np.triu_indices(n, 1)
    edge, common = a[upper] > 0.0, (a @ a)[upper]
    lam, mu = common[edge], common[~edge]
    if lam.min() != lam.max() or mu.min() != mu.max():
        return None
    return SrgParams(n, k, int(lam[0]), int(mu[0]))


GOLDEN = Path(__file__).resolve().parent / "golden"
SWITCHED_T = [t for t in range(1, 13) if t not in (7, 10)]  # q = 2t+1 a prime power


def _two_switch(g):
    """A degree-preserving 2-switch of g away from vertex 0: the first edges
    ab, cd among the non-neighbours of 0 with ac and bd non-edges become ac
    and bd.  Row 0 of A @ A is unchanged, so only another row shows it."""
    rows, far = g.rows, [v for v in range(1, g.n) if not g.rows[0] >> v & 1]
    for a, b, c, d in ((a, b, c, d) for a in far for b in far for c in far for d in far if len({a, b, c, d}) == 4):
        if rows[a] >> b & 1 and rows[c] >> d & 1 and not rows[a] >> c & 1 and not rows[b] >> d & 1:
            edges = {(i, j) for i in range(g.n) for j in range(i + 1, g.n) if rows[i] >> j & 1}
            edges -= {tuple(sorted(e)) for e in ((a, b), (c, d))}
            return Graph(g.n, edges | {tuple(sorted(e)) for e in ((a, c), (b, d))})
    raise AssertionError("no 2-switch")


def _near_misses():
    """Regular graphs whose common-neighbour counts are not constant."""
    cube = Graph(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b])
    return [cycle(6), cube, _two_switch(build_extremal_srg(2))]


def test_near_misses_are_regular_but_not_strongly_regular():
    for g in _near_misses():
        degs = g.dense().sum(axis=1)
        assert (degs == degs[0]).all() and 0 < degs[0] < g.n - 1
        assert srg_params(g) is None and _srg_by_gather(g.dense()) is None


def test_srg_params_equals_the_gather_version():
    graphs = [parse_graph6(p.read_text().split()[0]) for p in sorted(GOLDEN.glob("construct_*.stdout"))]
    assert len(graphs) == 15
    for t in SWITCHED_T:
        sw = build_switched_srg(t)
        graphs += [sw, complement(sw)]
    graphs += [paley_graph(q) for q in (5, 9, 13, 17, 25, 29, 401)]
    graphs += [parse_graph6(line) for line in (GOLDEN / "corpus.g6").read_text().split()]
    graphs += _near_misses()
    for g in graphs:
        a = g.dense()
        assert srg_params(a) == _srg_by_gather(a), g


@pytest.mark.parametrize("rows", [1, 7])
def test_srg_params_equals_the_gather_version_in_any_block_size(rows, monkeypatch):
    srg = importlib.import_module("huckel.srg")
    monkeypatch.setattr(srg, "_BLOCK_ROWS", rows)
    for g in [build_extremal_srg(2), paley_graph(13)] + _near_misses():
        a = g.dense()
        assert srg_params(a) == _srg_by_gather(a), g
    assert srg_params(paley_graph(13)) == conference_params(13)


def test_srg_params_holds_one_block_beside_the_matrix():
    g = build_extremal_srg(12)
    tracemalloc.start()
    try:
        assert srg_params(g) == extremal_family_params(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6  # the t = 12 matrix is 3.1 MB, one 256-row block 1.3 MB

