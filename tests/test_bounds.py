"""Closed-form energy bounds, per-graph reports, and equality classification."""

import math
import random

import numpy as np
import pytest

from conftest import random_graph
from huckel.graphs import Graph, add_isolated_vertex, disjoint_union
from huckel.bounds import (
    bound_report,
    classify_equality,
    intermediate_bounds,
    intermediate_bounds_even,
    intermediate_bounds_odd,
    lemma1_check,
    lemma1_stated_domain,
    lemma1_theorem_domain,
    lower_bound,
    scan_order_bound,
    upper_bound,
    upper_bound_applies,
    upper_bound_even,
    upper_bound_odd,
    upper_bound_order,
    upper_bound_order_even,
    upper_bound_order_odd,
    violated,
)
from huckel.spectra import eigenvalues, energy_values

SEEDS = [0xB01, 0xB02, 0xB03]


@pytest.mark.parametrize(
    "n,m,value,regime",
    [
        (2, 0, 0.0, "first"),
        (2, 1, 2.0, "first"),
        (10, 30, 20.0, "first"),
        (4, 6, 4.898979485566356, "second"),
    ],
)
def test_upper_bound_even_values(n, m, value, regime):
    got, got_regime = upper_bound_even(n, m)
    assert got == pytest.approx(value, abs=1e-12)
    assert got_regime == regime
    assert upper_bound(n, m) == (got, got_regime)


@pytest.mark.parametrize(
    "n,m,value,regime",
    [
        (5, 3, 4.898529093593286, "first"),
        (5, 4, 6.99714227381436, "second"),
        (5, 5, 7.3484692283495345, "second"),
    ],
)
def test_upper_bound_odd_values(n, m, value, regime):
    got, got_regime = upper_bound_odd(n, m)
    assert got == pytest.approx(value, abs=1e-12)
    assert got_regime == regime
    assert upper_bound(n, m) == (got, got_regime)


def test_upper_bound_regime_thresholds():
    # Even: the first regime applies exactly while 2m(n+2) <= n^3.
    for n in (4, 6, 10):
        cut = n ** 3 // (2 * (n + 2))
        assert upper_bound_even(n, cut)[1] == "first"
        assert upper_bound_even(n, min(cut + 1, n * (n - 1) // 2))[1] == "second"
    # Odd: first regime while 2m(n^2 - 4n + 11) <= n^2 (n-3)^2.
    for n in (7, 9, 11):
        cut = n * n * (n - 3) ** 2 // (2 * (n * n - 4 * n + 11))
        assert upper_bound_odd(n, cut)[1] == "first"
        assert upper_bound_odd(n, cut + 1)[1] == "second"


def test_upper_bound_validation():
    with pytest.raises(ValueError):
        upper_bound_even(5, 4)  # parity mismatch
    with pytest.raises(ValueError):
        upper_bound_odd(4, 3)
    with pytest.raises(ValueError):
        upper_bound_even(4, 7)  # m beyond the complete graph
    with pytest.raises(ValueError):
        upper_bound_odd(5, -1)
    with pytest.raises(ValueError):
        upper_bound_even(0, 0)


def test_upper_bound_applies():
    assert upper_bound_applies(6, 0)
    assert upper_bound_applies(5, 4)
    assert not upper_bound_applies(5, 3)
    # Two disjoint edges plus an isolated vertex: HE above the odd formula.
    g = add_isolated_vertex(Graph(4, [(0, 1), (2, 3)]))
    he = energy_values(eigenvalues(g)).huckel
    assert he > upper_bound_odd(5, 2)[0]


@pytest.mark.parametrize(
    "n,value",
    [(2, 2.0), (9, 16.5), (10, 20.0), (26, 78.0), (50, 200.0)],
)
def test_order_bound_values(n, value):
    assert upper_bound_order(n) == pytest.approx(value, abs=1e-12)


def test_order_bound_closed_forms():
    assert upper_bound_order_even(12) == pytest.approx(6.0 * (1.0 + math.sqrt(11.0)), abs=1e-12)
    rn = math.sqrt(7.0)
    assert upper_bound_order_odd(7) == pytest.approx(3.5 * (1.0 + rn - 1.0 / rn), abs=1e-12)
    with pytest.raises(ValueError):
        upper_bound_order_even(7)
    with pytest.raises(ValueError):
        upper_bound_order_odd(8)


def test_lower_bound_values():
    assert lower_bound(2) == pytest.approx(2.0, abs=1e-12)
    assert lower_bound(4) == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
    with pytest.raises(ValueError):
        lower_bound(1)


def test_lower_bound_star_equality():
    for n in (2, 3, 5, 9, 17):
        he = energy_values(eigenvalues(Graph.star(n))).huckel
        assert he == pytest.approx(lower_bound(n), abs=1e-9)


def test_intermediate_bounds_even():
    assert intermediate_bounds_even(4, 4, 4.0) == pytest.approx((4.0, 5.656854249492381))
    assert intermediate_bounds_even(10, 30, 40.0) == pytest.approx((20.0, 20.0))
    with pytest.raises(ValueError):
        intermediate_bounds_even(4, 2, 5.0)  # alpha over 2m


def test_intermediate_bounds_odd():
    c5 = energy_values(eigenvalues(Graph.cycle(5)))
    f1, f2 = intermediate_bounds_odd(5, 5, c5.alpha, c5.beta)
    # Both refinements are tight on the 5-cycle.
    assert f1 == pytest.approx(c5.huckel, abs=1e-9)
    assert f2 == pytest.approx(c5.huckel, abs=1e-9)
    assert intermediate_bounds_odd(5, 4, 4.0, 0.0) == pytest.approx((5.6, 5.656854249492381))
    with pytest.raises(ValueError):
        intermediate_bounds_odd(5, 2, 4.0, 1.0)  # alpha + beta^2 over 2m


@pytest.mark.parametrize("n", [4, 5, 8, 9])
def test_intermediate_bounds_array_form(n):
    rng = random.Random(n)
    graphs = [random_graph(rng, n, rng.random()) for _ in range(12)]
    evs = [energy_values(eigenvalues(g)) for g in graphs]
    m = np.array([g.m for g in graphs])
    alpha = np.array([ev.alpha for ev in evs])
    beta = np.array([ev.beta for ev in evs]) if n % 2 else None
    f1, f2 = intermediate_bounds(n, m, alpha, beta)
    for i, ev in enumerate(evs):
        assert (f1[i], f2[i]) == intermediate_bounds(n, graphs[i].m, ev.alpha, ev.beta)
    # A row the solver flagged (here: an impossible moment) does not raise in
    # the array form, while the same values as scalars do.
    alpha[0] = 2.0 * m[0] + 5.0
    f1, f2 = intermediate_bounds(n, m, alpha, beta)
    assert np.isfinite(f1).all() and np.isfinite(f2).all()
    with pytest.raises(ValueError, match="exceeds 2m"):
        intermediate_bounds(n, int(m[0]), float(alpha[0]), None if beta is None else float(beta[0]))


def test_violated_is_the_shared_verdict():
    assert not violated(-0.5e-8, 1.0) and violated(-2e-8, 1.0)
    assert not violated(-0.5e-6, 100.0) and violated(-2e-6, 100.0)
    assert violated(0.0, 5.0, strict=True) and not violated(1e-12, 5.0, strict=True)
    assert list(violated(np.array([-1.0, 0.0]), np.array([2.0, 2.0]))) == [True, False]


def test_lemma1_domains():
    m = np.arange(0, 11)
    connected = np.ones(11, dtype=bool)
    connected[4] = False
    stated = lemma1_stated_domain(5, m)
    theorem = lemma1_theorem_domain(5, m, lambda: connected)
    assert list(np.nonzero(stated)[0]) == list(range(4, 11))
    assert list(np.nonzero(theorem)[0]) == list(range(5, 11))  # m = 4 here is disconnected
    connected[4] = True
    assert list(np.nonzero(lemma1_theorem_domain(5, m, lambda: connected))[0]) == list(range(4, 11))
    # Trees at n = 3 are outside the theorem domain; connectivity is not asked for.
    assert not lemma1_theorem_domain(3, np.array([2]), lambda: pytest.fail("called"))[0]
    # Every theorem-domain graph is in the stated domain.
    assert not (theorem & ~stated).any()


@pytest.mark.parametrize("seed", SEEDS)
def test_intermediate_bounds_dominate_random(seed):
    # min(f1, f2) caps HE for m >= n-1 (even n, and odd n >= 5).
    rng = random.Random(seed)
    done = 0
    while done < 30:
        n = rng.randrange(4, 13)
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        if g.m < n - 1:
            continue
        ev = energy_values(eigenvalues(g))
        if n % 2 == 0:
            f1, f2 = intermediate_bounds_even(n, g.m, ev.alpha)
        else:
            f1, f2 = intermediate_bounds_odd(n, g.m, ev.alpha, ev.beta)
        assert ev.huckel <= min(f1, f2) + 1e-8 * max(1.0, min(f1, f2))
        done += 1


def test_half_moment_check_tristate():
    assert lemma1_check(4, 3, 3.0) == "holds"
    assert lemma1_check(5, 3, 2.0) == "not_applicable"
    assert lemma1_check(2, 1, 1.0) == "not_applicable"


def test_half_moment_check_known_violations():
    # The m >= n-1 hypothesis is not sufficient: these two inputs are real
    # graphs (3-vertex path; K4 plus three isolated vertices) that land
    # above the claimed 4m^2/n^2 ceiling, and the check reports it.
    p3 = energy_values(eigenvalues(Graph.path(3)))
    assert p3.alpha == pytest.approx(2.0, abs=1e-12)
    assert lemma1_check(3, 2, p3.alpha) == "violated"

    k4_iso = disjoint_union(Graph.complete(4), Graph.empty(3))
    ev = energy_values(eigenvalues(k4_iso))
    assert ev.alpha == pytest.approx(9.0, abs=1e-9)  # alpha/r = 3 > 144/49
    assert lemma1_check(7, 6, ev.alpha) == "violated"


@pytest.mark.parametrize("seed", SEEDS)
def test_half_moment_holds_above_tree_density(seed):
    rng = random.Random(seed)
    done = 0
    while done < 30:
        n = rng.randrange(3, 14)
        g = random_graph(rng, n, rng.uniform(0.4, 0.9))
        if g.m < n:
            continue
        alpha = energy_values(eigenvalues(g)).alpha
        assert lemma1_check(n, g.m, alpha) == "holds"
        done += 1


def test_bound_report_cycle4():
    rep = bound_report(Graph.cycle(4))
    assert (rep.n, rep.m) == (4, 4)
    assert rep.upper_nm == pytest.approx(16.0 / 3.0, abs=1e-12)
    assert rep.upper_nm_regime == "first"
    assert rep.upper_nm_applies
    # alpha carries ~1e-15 eigensolver noise that the square root in f1
    # amplifies to ~1e-7.
    assert rep.inter_f1 == pytest.approx(4.0, abs=1e-6)
    assert rep.energies.huckel == pytest.approx(4.0, abs=1e-9)
    assert rep.slack_upper == pytest.approx(16.0 / 3.0 - 4.0, abs=1e-9)
    assert rep.slack_lower == pytest.approx(4.0 - 2.0 * math.sqrt(3.0), abs=1e-9)
    assert rep.lemma1 == "holds"
    assert rep.lower_applies and not rep.has_isolated


def test_bound_report_edge_orders():
    rep0 = bound_report(Graph.empty(1))
    assert rep0.upper_nm is None and rep0.lower is None
    assert not rep0.upper_nm_applies
    iso = bound_report(add_isolated_vertex(Graph.complete(3)))
    assert iso.has_isolated and not iso.lower_applies


def test_classify_equality():
    assert classify_equality(bound_report(Graph.star(5))) == {"lower_tight"}
    assert classify_equality(bound_report(Graph.complete(2))) == {
        "lower_tight",
        "upper_n_tight",
        "upper_nm_tight",
    }
    assert classify_equality(bound_report(Graph.cycle(5))) == set()


def test_scan_order_bound_even():
    scan = scan_order_bound(4)
    assert scan["order_bound"] == pytest.approx(5.464101615137754, abs=1e-12)
    assert scan["scan_max"] == pytest.approx(5.441518440112253, abs=1e-12)
    assert scan["scan_argmax"] == 5
    assert scan["optimal_m"] == pytest.approx(4.732050807568877, abs=1e-12)
    assert scan["value_at_optimal_m"] == pytest.approx(scan["order_bound"], abs=1e-9)
    # Even orders: the full integer scan never exceeds the order bound.
    assert scan["scan_max"] <= scan["order_bound"] + 1e-9
    assert scan["scan_max_first"] == scan["scan_max"]


def test_scan_order_bound_odd_small():
    scan = scan_order_bound(5)
    assert scan["order_bound"] == pytest.approx(6.97213595499958, abs=1e-12)
    assert scan["value_at_optimal_m"] == pytest.approx(scan["order_bound"], abs=1e-9)
    assert scan["scan_max_first"] == pytest.approx(4.898529093593286, abs=1e-12)
    assert scan["scan_argmax_first"] == 3
    # The real optimizer sits outside the narrow regime here, so the wide
    # branch (a weaker, still-valid bound) tops the integer scan.
    assert scan["optimal_m"] == pytest.approx(5 * (4 + math.sqrt(5.0)) / 4.0, abs=1e-12)
    assert scan["scan_max"] > scan["order_bound"]


def test_scan_order_bound_odd_large():
    scan = scan_order_bound(9)
    assert scan["order_bound"] == pytest.approx(16.5, abs=1e-12)
    assert scan["scan_max"] == pytest.approx(17.4928556845359, abs=1e-10)
    assert scan["scan_argmax"] == 27
    assert scan["scan_max_first"] == pytest.approx(16.49864489716372, abs=1e-9)
    assert scan["scan_argmax_first"] == 25
    assert scan["optimal_m"] == pytest.approx(24.75, abs=1e-12)
    assert scan["value_at_optimal_m"] == pytest.approx(16.5, abs=1e-9)
    # The narrow-regime scan stays below the order bound and peaks next to
    # the rounded real optimizer.
    assert scan["scan_max_first"] <= scan["order_bound"] + 1e-9
    assert abs(scan["scan_argmax_first"] - round(scan["optimal_m"])) <= 1

    with pytest.raises(ValueError):
        scan_order_bound(1)


@pytest.mark.parametrize("seed", SEEDS)
def test_bounds_hold_on_random_graphs(seed):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randrange(2, 15)
        g = random_graph(rng, n, rng.random())
        rep = bound_report(g)
        he = rep.energies.huckel
        if rep.upper_nm_applies:
            assert he <= rep.upper_nm + 1e-8 * max(1.0, rep.upper_nm)
        assert he <= rep.upper_n + 1e-8 * max(1.0, rep.upper_n)
        if rep.lower_applies:
            assert he >= rep.lower - 1e-8 * max(1.0, rep.lower)
