"""Paley graphs, the switching pipeline, and duplicated-vertex graphs."""

import hashlib
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
from huckel.spectra import eigenvalues, energy_values
from huckel.srg import srg_params


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
    assert len(report.expected) == h.n
    assert report.cubic_roots[2] < -math.sqrt(2.0) * t
    # HE exceeds the additive estimate 2(2t^2+2t)(t+1)... by a sqrt(2)t margin.
    he = energy_values(eigenvalues(h)).huckel
    closed = 4.0 * t ** 3 + 8.0 * t * t + 4.0 * t - 2.0 * report.cubic_roots[2]
    assert he == pytest.approx(closed, abs=1e-8)
    estimate = 2.0 * (2 * t * t + 2 * t) * (t + 1) + 2.0 * math.sqrt(2.0) * t
    assert he > estimate


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
