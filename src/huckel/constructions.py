"""Finite-field graph constructions: Paley graphs, the Seidel-switching
pipeline that produces the strongly regular families attaining the
even-order bound, and the vertex-duplicated odd-order near-extremal graphs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .graphs import _ORDER_MAX, Graph, add_duplicate_vertex, add_isolated_vertex, complement, seidel_switch
from .gf import FiniteField, is_prime_power, make_field, subfield_coset_partition
from .spectra import SOLVER_TOL, Spectrum, eigenvalues, match_spectrum
from .srg import extremal_family_params, srg_params, switched_family_params


class ConstructionError(RuntimeError):
    """A construction's post-condition failed or a hypothesis is unmet."""


def _paley_from_field(field: FiniteField, square: bool) -> Graph:
    """i ~ j iff i - j is a square (square=True) or a nonsquare in field."""
    # Pairs i < j decide and are mirrored: symmetric even if -1 is a nonsquare.
    adj = np.triu(field.squares()[field.difference_table()] == square, 1)
    bits = np.packbits(adj | adj.T, axis=1, bitorder="little")
    return Graph._from_rows_unchecked(field.order, tuple(int.from_bytes(r, "little") for r in bits))


def paley_graph(q: int) -> Graph:
    """Paley graph on GF(q), q a prime power with q = 1 mod 4.

    Vertices are field elements in coefficient order; i ~ j iff i - j is a
    square.  q = 1 mod 4 makes -1 a square, so the relation is symmetric.
    """
    if q > _ORDER_MAX:
        raise ConstructionError(f"q={q} gives a graph of order {q}, above the order limit {_ORDER_MAX}")
    pp = is_prime_power(q)
    if pp is None:
        raise ConstructionError(f"q={q} is not a prime power")
    if q % 4 != 1:
        raise ConstructionError(f"q={q} is not 1 mod 4; the difference relation would not be symmetric")
    return _paley_from_field(make_field(*pp), True)


def _with_params(g: Graph, expected, what: str) -> Graph:
    """g, once srg_params(g) equals expected; else a ConstructionError naming what."""
    if (got := srg_params(g)) != expected:
        raise ConstructionError(f"{what} has parameters {got and got.as_tuple()}, expected {expected.as_tuple()}")
    return g


def build_switched_srg(t: int) -> Graph:
    """Seidel-switching construction of srg(4t^2+4t+2, 2t^2+t, t^2-1, t^2).

    Pipeline: the nonsquare-difference Paley graph on GF(q^2) for q = 2t+1,
    whose order-q subfield and its additive cosets are q disjoint cocliques;
    one isolated vertex added; then a Seidel switch on the union of the
    first t cosets.  The parameter check runs before returning.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    q = 2 * t + 1
    if q * q + 1 > _ORDER_MAX:
        raise ConstructionError(f"t={t} gives a graph of order {q * q + 1}, above the order limit {_ORDER_MAX}")
    pp = is_prime_power(q)
    if pp is None:
        raise ConstructionError(f"construction requires q = 2t+1 to be a prime power; q={q} is not")
    p, e = pp
    big = make_field(p, 2 * e)
    gamma = _paley_from_field(big, False)
    cosets = subfield_coset_partition(big, q)
    switch_set = [v for coset in cosets[:t] for v in coset]
    return _with_params(seidel_switch(add_isolated_vertex(gamma), switch_set), switched_family_params(t),
                        "switched graph")


def build_extremal_srg(t: int) -> Graph:
    """Complement of the switched construction: the strongly regular family
    (4t^2+4t+2, 2t^2+3t+1, t^2+2t, t^2+2t+1) attaining the even-order bound."""
    return _with_params(complement(build_switched_srg(t)), extremal_family_params(t), "complement")


def build_remark_graph(t: int) -> Graph:
    """Duplicate vertex 0 of the extremal graph: the new vertex sees N(0)
    but not 0.  Gives an odd-order graph of size 4t^2+4t+3 whose HE comes
    within o(1) of the odd-order bound."""
    return add_duplicate_vertex(build_extremal_srg(t), 0)


def remark_cubic(t: int) -> Tuple[Tuple[float, float, float, float], Tuple[float, float, float]]:
    """The monic cubic whose roots are the three non-template eigenvalues of
    the duplicated-vertex graph, plus those roots sorted descending.

    Coefficients are returned descending:
    x^3 - (2t^2+3t) x^2 - (5t^2+7t+2) x + (4t^4+10t^3+8t^2+2t).
    The critical points c- < c+ and the Cauchy bound B bracket one root each
    in (-B, c-), (c-, c+) and (c+, B); p must change sign on each, and
    bisection narrows it to SOLVER_TOL or until the midpoint stops moving.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    c2 = -(2.0 * t * t + 3 * t)
    c1 = -(5.0 * t * t + 7 * t + 2)
    c0 = 4.0 * t ** 4 + 10.0 * t ** 3 + 8.0 * t * t + 2.0 * t

    def poly(x: float) -> float:
        return ((x + c2) * x + c1) * x + c0

    bound = 1.0 + max(abs(c2), abs(c1), abs(c0))
    root_disc = math.sqrt(c2 * c2 - 3.0 * c1)  # c1 < 0 for every t >= 1
    lo, hi = (-c2 - root_disc) / 3.0, (-c2 + root_disc) / 3.0
    if not (poly(-bound) < 0.0 < poly(lo) and poly(hi) < 0.0 < poly(bound)):
        raise ConstructionError(f"the cubic for t={t} does not have three sign-bracketed real roots")
    roots = []
    for a, b in ((hi, bound), (lo, hi), (-bound, lo)):
        fa = poly(a)
        while b - a > SOLVER_TOL:
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            fm = poly(mid)
            if fm == 0.0:
                a = b = mid
            elif (fa < 0.0) == (fm < 0.0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return (1.0, c2, c1, c0), (roots[0], roots[1], roots[2])


@dataclass(frozen=True)
class RemarkSpectrumReport:
    matches: bool
    max_deviation: float
    cubic_roots: Tuple[float, float, float]


def verify_remark_spectrum(h: Graph, t: int, spectrum: Optional[Spectrum] = None) -> RemarkSpectrumReport:
    """Match h's spectrum (computed unless given) against the duplicated-vertex
    template {x1, t^(2t^2+2t-1), x2, 0, (-t-1)^(2t^2+2t), x3}, x1 >= x2 >= x3
    the cubic's roots: it matches when every entry is within TIGHT_TOL."""
    n = 4 * t * t + 4 * t + 3
    if h.n != n:
        raise ValueError(f"graph has {h.n} vertices, template needs {n}")
    _, roots = remark_cubic(t)
    template = [roots[0], roots[1], roots[2], 0.0]
    template += [float(t)] * (2 * t * t + 2 * t - 1)
    template += [float(-t - 1)] * (2 * t * t + 2 * t)
    template.sort(reverse=True)
    spec = spectrum if spectrum is not None else eigenvalues(h)
    max_dev, matches = match_spectrum(spec.values, template)
    return RemarkSpectrumReport(matches=matches, max_deviation=max_dev, cubic_roots=roots)


def conference_he_closed_form(t: int) -> float:
    """The stated closed form (2t+1)/2 * (1 + sqrt(4t+1)) for the HE of a
    conference graph srg(4t+1, 2t, t-1, t).

    Direct evaluation of HE from the conference spectrum gives
    4t + (4t-1)(sqrt(4t+1)-1)/2 instead; the two disagree for every t, so
    this value is reported side by side with the computed one and flagged,
    never asserted.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    return (2 * t + 1) / 2.0 * (1.0 + math.sqrt(4.0 * t + 1.0))
