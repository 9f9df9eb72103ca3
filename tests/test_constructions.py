"""Paley graphs, the switching pipeline, and duplicated-vertex graphs."""

import hashlib
import importlib
import itertools
import math

import numpy as np
import pytest

from conftest import complete, cycle
from huckel.bounds import upper_bound_order
from huckel.constructions import (
    ConstructionError,
    _paley_from_field,
    build_extremal_srg,
    build_remark_graph,
    build_switched_srg,
    conference_he_closed_form,
    paley_graph,
    remark_cubic,
    verify_remark_spectrum,
)
from huckel.gf import is_prime_power, make_field
from huckel.graphs import Graph, complement, write_graph6
from huckel.spectra import SOLVER_TOL, eigenvalues, energy_values
from huckel.srg import (
    SrgParams,
    extremal_family_params,
    predicted_extremal_he,
    predicted_spectrum,
    srg_params,
    switched_family_params,
)


def test_paley_5_is_pentagon():
    g = paley_graph(5)
    assert g == cycle(5)
    assert write_graph6(g) == "Dhc"


def test_paley_9():
    g = _paley_from_field(make_field(3, 2), False)
    assert srg_params(g).as_tuple() == (9, 4, 1, 2)
    # Squares and nonsquares give complementary graphs of the same kind.
    assert complement(g) == paley_graph(9)
    assert srg_params(paley_graph(9)).as_tuple() == (9, 4, 1, 2)


def test_paley_13():
    assert srg_params(paley_graph(13)).as_tuple() == (13, 6, 2, 3)


def test_paley_errors():
    with pytest.raises(ConstructionError, match="not 1 mod 4"):
        paley_graph(7)
    with pytest.raises(ConstructionError, match="not a prime power"):
        paley_graph(33)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_switching_pipeline(t):
    n = 4 * t * t + 4 * t + 2
    sw = build_switched_srg(t)
    assert sw.n == n
    assert srg_params(sw).as_tuple() == (n, 2 * t * t + t, t * t - 1, t * t)
    ext = build_extremal_srg(t)
    assert srg_params(ext).as_tuple() == (n, 2 * t * t + 3 * t + 1, t * t + 2 * t, t * t + 2 * t + 1)
    assert ext == complement(sw)


def test_switched_graph_deterministic():
    assert write_graph6(build_switched_srg(1)) == "ICOcYgww?"


def test_extremal_he_attains_order_bound():
    for t in (1, 2):
        ext = build_extremal_srg(t)
        he = energy_values(eigenvalues(ext)).huckel
        assert he == pytest.approx(upper_bound_order(ext.n), abs=1e-8)


def test_builders_refuse_a_graph_with_other_parameters(monkeypatch):
    # Each builder returns its graph only once srg_params matches its family,
    # and otherwise names what it built.
    constructions = importlib.import_module("huckel.constructions")
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "switched_family_params", lambda t: SrgParams(10, 3, 0, 2))
        with pytest.raises(ConstructionError) as exc:
            build_switched_srg(1)
    assert str(exc.value) == "switched graph has parameters (10, 3, 0, 1), expected (10, 3, 0, 2)"
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "extremal_family_params", lambda t: SrgParams(10, 6, 3, 3))
        with pytest.raises(ConstructionError) as exc:
            build_extremal_srg(1)
    assert str(exc.value) == "complement has parameters (10, 6, 3, 4), expected (10, 6, 3, 3)"
    monkeypatch.setattr(constructions, "srg_params", lambda g: None)
    with pytest.raises(ConstructionError) as exc:
        build_switched_srg(1)
    assert str(exc.value) == "switched graph has parameters None, expected (10, 3, 0, 1)"


def test_switched_family_needs_prime_power():
    # t=7 gives q=15, not a prime power.
    with pytest.raises(ConstructionError, match="prime power"):
        build_switched_srg(7)
    with pytest.raises(ValueError):
        build_switched_srg(0)


@pytest.mark.parametrize(
    "t,roots",
    [
        (1, (6.574234249637456, 1.2793215138220404, -2.853555763458715)),
        (2, (15.569658864896725, 2.7047126832643524, -4.274371548160913)),
    ],
)
def test_remark_cubic(t, roots):
    coeffs, got = remark_cubic(t)
    assert coeffs[0] == 1.0
    if t == 1:
        assert coeffs == (1.0, -5.0, -14.0, 24.0)
    assert got == pytest.approx(roots, abs=1e-9)
    # Cross-check bisection against the numpy companion-matrix solver.
    np_roots = sorted(np.roots(coeffs).real, reverse=True)
    assert got == pytest.approx(np_roots, abs=1e-8)
    # Vieta: root sum and product match the coefficients.
    assert sum(got) == pytest.approx(-coeffs[1], abs=1e-8)
    assert got[0] * got[1] * got[2] == pytest.approx(-coeffs[3], abs=1e-8)


@pytest.mark.parametrize("t", [1, 2])
def test_remark_graph_spectrum(t):
    h = build_remark_graph(t)
    assert h.n == 4 * t * t + 4 * t + 3
    report = verify_remark_spectrum(h, t)
    assert report.matches
    assert report.max_deviation <= 1e-6
    assert report.cubic_roots[2] < -math.sqrt(2.0) * t
    # HE exceeds the additive estimate 2(2t^2+2t)(t+1)... by a sqrt(2)t margin.
    he = energy_values(eigenvalues(h)).huckel
    closed = 4.0 * t ** 3 + 8.0 * t * t + 4.0 * t - 2.0 * report.cubic_roots[2]
    assert he == pytest.approx(closed, abs=1e-8)
    estimate = 2.0 * (2 * t * t + 2 * t) * (t + 1) + 2.0 * math.sqrt(2.0) * t
    assert he > estimate


def _grid_roots(t):
    """The old root finder, kept as an oracle: sign changes on a 4,097-point
    grid over the Cauchy bound, then bisection.  From t = 32 on one grid cell
    holds both positive roots and it finds fewer than three brackets."""
    _, c2, c1, c0 = remark_cubic(t)[0]

    def poly(x):
        return ((x + c2) * x + c1) * x + c0

    bound = 1.0 + max(abs(c2), abs(c1), abs(c0))
    xs = [-bound + 2.0 * bound * i / 4096 for i in range(4097)]
    brackets = [(a, a) if poly(a) == 0.0 else (a, b) for a, b in zip(xs, xs[1:])
                if poly(a) == 0.0 or poly(a) * poly(b) < 0.0]
    if poly(xs[-1]) == 0.0:
        brackets.append((xs[-1], xs[-1]))
    assert len(brackets) == 3, t
    roots = []
    for a, b in brackets:
        fa = poly(a)
        while b - a > SOLVER_TOL:
            mid = 0.5 * (a + b)
            fm = poly(mid)
            if fm == 0.0:
                a = b = mid
            elif (fa < 0.0) == (fm < 0.0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return sorted(roots, reverse=True)


def test_every_accepted_t_has_its_family_spectra():
    # Every t that construct accepts: the remark graph's order 4t^2+4t+3 is at most 8,192 for t <= 44.
    for t in range(1, 45):
        coeffs, roots = remark_cubic(t)
        assert roots[0] > roots[1] > roots[2]
        assert roots == pytest.approx(sorted(np.roots(coeffs).real, reverse=True), rel=1e-9)
        assert sum(roots) == pytest.approx(-coeffs[1], rel=1e-9)
        assert roots[0] * roots[1] * roots[2] == pytest.approx(-coeffs[3], rel=1e-9)
        if t <= 31:
            old = _grid_roots(t)
            assert max(abs(a - b) for a, b in zip(roots, old)) <= 1e-12
            assert ["%.12g" % x for x in roots] == ["%.12g" % x for x in old]
        n, k, f = 4 * t * t + 4 * t + 2, 2 * t * t + 3 * t + 1, 2 * t * t + 2 * t
        assert predicted_spectrum(extremal_family_params(t)) == [(k, 1), (t, f), (-t - 1, f + 1)]
        assert predicted_spectrum(switched_family_params(t)) == [(n - k - 1, 1), (t, f + 1), (-t - 1, f)]
        assert predicted_extremal_he(t) == upper_bound_order(n)
    remark_cubic(10 ** 5)  # returns: bisection stops once the midpoint no longer moves
    for q in range(5, 8193, 4):
        if is_prime_power(q):
            half, root = (q - 1) // 2, math.sqrt(q)
            spectrum = predicted_spectrum(SrgParams(q, half, (q - 5) // 4, (q - 1) // 4))
            assert spectrum == [(half, 1), (pytest.approx((root - 1) / 2), half),
                                (pytest.approx((-root - 1) / 2), half)]


def test_remark_spectrum_wrong_order():
    with pytest.raises(ValueError, match="vertices"):
        verify_remark_spectrum(complete(5), 1)


def test_remark_known_he():
    h = build_remark_graph(1)
    he = energy_values(eigenvalues(h)).huckel
    assert he == pytest.approx(21.707111526918, abs=1e-8)


def test_conference_closed_form_disagrees_with_spectrum():
    for t, q in ((1, 5), (2, 9), (3, 13)):
        g = paley_graph(q)
        he = energy_values(eigenvalues(g)).huckel
        computed = 4.0 * t + (4.0 * t - 1.0) * (math.sqrt(4.0 * t + 1.0) - 1.0) / 2.0
        stated = conference_he_closed_form(t)
        assert he == pytest.approx(computed, abs=1e-8)
        assert abs(stated - computed) > 1e-3  # genuinely different values
    with pytest.raises(ValueError):
        conference_he_closed_form(0)


def _paley_by_loop(field, adjacency):
    """The scalar field.sub loop: the reference _paley_from_field must equal."""
    want = adjacency == "square"
    sq = [field.is_square(x) for x in range(field.order)]
    pairs = itertools.combinations(range(field.order), 2)
    return Graph(field.order, [(i, j) for i, j in pairs if sq[field.sub(i, j)] == want])


# 4, 8 (characteristic 2) and 27 (-1 a nonsquare) exercise the mirroring.
@pytest.mark.parametrize("q", [4, 5, 8, 9, 13, 25, 27, 49, 81, 121])
@pytest.mark.parametrize("adjacency", ["square", "nonsquare"])
def test_paley_from_field_equals_the_field_sub_loop(q, adjacency):
    field = make_field(*is_prime_power(q))
    g = _paley_from_field(field, adjacency == "square")
    assert g == _paley_by_loop(field, adjacency)
    assert all(type(r) is int for r in g.rows)


@pytest.mark.parametrize("t", [1, 2])
def test_remark_spectrum_takes_a_computed_spectrum(t):
    h = build_remark_graph(t)
    assert verify_remark_spectrum(h, t, spectrum=eigenvalues(h)) == verify_remark_spectrum(h, t)


# sha256 of write_graph6 for constructions over fields with e > 1, where the
# subfield cosets and the squares depend on the modulus and the primitive
# element; the goldens reach only prime q.
CONSTRUCTION_SHA256 = [
    (build_switched_srg, 4, "39757110644354fe169f64db32e9f93c4a3646be40822b77c424442e6c2e9f1a"),
    (build_extremal_srg, 4, "40b610779d8a7a435131ed1302b3cbafc91ec7cd911ace9c8d95ff3dee90df3d"),
    (build_switched_srg, 12, "8b536a119561554d6f36663d37de5249e8522226e55a90bd9b2ae9a80d5a4eb1"),
    (build_extremal_srg, 12, "e5796c3cd944be8448cbf29f79899eb64b417ae72d654e894d71649c117f4e91"),
    (paley_graph, 81, "3d3912f6887894c79ec377bfa369e3ddf7896e2ff63ea168cd101955912f3f69"),
    (paley_graph, 625, "0b8f4acaed67c2f0eb8ccee7cb62b98d52a149050b952d9636ff9e2219cb0c64"),
    (paley_graph, 729, "71d8988fb371aadc2c31234bc3cd6df157c3c63f03031de5059fb6e33ff64335"),
]


@pytest.mark.parametrize("build,arg,digest", CONSTRUCTION_SHA256, ids=[f"{b.__name__}-{a}" for b, a, _ in CONSTRUCTION_SHA256])
def test_prime_power_constructions_are_pinned(build, arg, digest):
    assert hashlib.sha256(write_graph6(build(arg)).encode()).hexdigest() == digest
