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
from .spectra import SOLVER_TOL, TIGHT_TOL, Spectrum, eigenvalues
from .srg import extremal_family_params, srg_params, switched_family_params


class ConstructionError(RuntimeError):
    """A construction's post-condition failed or a hypothesis is unmet."""


def _paley_from_field(field: FiniteField, adjacency: str) -> Graph:
    if adjacency not in ("square", "nonsquare"):
        raise ValueError(f"adjacency must be 'square' or 'nonsquare', got {adjacency!r}")
    # Pairs i < j decide and are mirrored: symmetric even if -1 is a nonsquare.
    adj = np.triu(field.squares()[field.difference_table()] == (adjacency == "square"), 1)
    bits = np.packbits(adj | adj.T, axis=1, bitorder="little")
    return Graph._from_rows_unchecked(field.order, tuple(int.from_bytes(r, "little") for r in bits))


def paley_graph(q: int, adjacency: str = "square") -> Graph:
    """Paley graph on GF(q), q a prime power with q = 1 mod 4.

    Vertices are field elements in coefficient order; i ~ j iff i - j is a
    square (or a nonsquare, per the adjacency flag).  q = 1 mod 4 makes -1 a
    square, so the relation is symmetric.
    """
    if q > _ORDER_MAX:
        raise ConstructionError(f"q={q} gives a graph of order {q}, above the order limit {_ORDER_MAX}")
    pp = is_prime_power(q)
    if pp is None:
        raise ConstructionError(f"q={q} is not a prime power")
    if q % 4 != 1:
        raise ConstructionError(f"q={q} is not 1 mod 4; the difference relation would not be symmetric")
    return _paley_from_field(make_field(*pp), adjacency)


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
    gamma = _paley_from_field(big, "nonsquare")
    cosets = subfield_coset_partition(big, q)
    g = add_isolated_vertex(gamma)
    switch_set = [v for coset in cosets[:t] for v in coset]
    g = seidel_switch(g, switch_set)
    expected = switched_family_params(t)
    got = srg_params(g)
    if got != expected:
        raise ConstructionError(
            f"switched graph has parameters {got and got.as_tuple()}, expected {expected.as_tuple()}"
        )
    return g


def build_extremal_srg(t: int) -> Graph:
    """Complement of the switched construction: the strongly regular family
    (4t^2+4t+2, 2t^2+3t+1, t^2+2t, t^2+2t+1) attaining the even-order bound."""
    g = complement(build_switched_srg(t))
    expected = extremal_family_params(t)
    got = srg_params(g)
    if got != expected:
        raise ConstructionError(
            f"complement has parameters {got and got.as_tuple()}, expected {expected.as_tuple()}"
        )
    return g


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
    Roots come from sign bracketing and bisection to 1e-12; exactly three
    sign changes must exist.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    c2 = -(2.0 * t * t + 3 * t)
    c1 = -(5.0 * t * t + 7 * t + 2)
    c0 = 4.0 * t ** 4 + 10.0 * t ** 3 + 8.0 * t * t + 2.0 * t

    def poly(x: float) -> float:
        return ((x + c2) * x + c1) * x + c0

    bound = 1.0 + max(abs(c2), abs(c1), abs(c0))
    grid = 4096
    xs = [-bound + 2.0 * bound * i / grid for i in range(grid + 1)]
    brackets = []
    for a, b in zip(xs, xs[1:]):
        fa, fb = poly(a), poly(b)
        if fa == 0.0:
            brackets.append((a, a))
        elif fa * fb < 0.0:
            brackets.append((a, b))
    if poly(xs[-1]) == 0.0:
        brackets.append((xs[-1], xs[-1]))
    if len(brackets) != 3:
        raise ConstructionError(f"expected 3 real-root brackets, found {len(brackets)}")
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
    roots.sort(reverse=True)
    return (1.0, c2, c1, c0), (roots[0], roots[1], roots[2])


@dataclass(frozen=True)
class RemarkSpectrumReport:
    matches: bool
    max_deviation: float
    expected: Tuple[float, ...]
    computed: Tuple[float, ...]
    deviations: Tuple[float, ...]
    cubic_roots: Tuple[float, float, float]


def verify_remark_spectrum(h: Graph, t: int, tol: float = TIGHT_TOL,
                           spectrum: Optional[Spectrum] = None) -> RemarkSpectrumReport:
    """Match h's spectrum (computed unless given) against the duplicated-vertex
    template {x1, t^(2t^2+2t-1), x2, 0, (-t-1)^(2t^2+2t), x3}, x1 >= x2 >= x3
    the cubic's roots.  The report carries per-entry deviations."""
    n = 4 * t * t + 4 * t + 3
    if h.n != n:
        raise ValueError(f"graph has {h.n} vertices, template needs {n}")
    _, roots = remark_cubic(t)
    template = [roots[0], roots[1], roots[2], 0.0]
    template += [float(t)] * (2 * t * t + 2 * t - 1)
    template += [float(-t - 1)] * (2 * t * t + 2 * t)
    template.sort(reverse=True)
    spec = spectrum if spectrum is not None else eigenvalues(h)
    deviations = tuple(float(c) - e for c, e in zip(spec.values, template))
    max_dev = max(abs(d) for d in deviations)
    return RemarkSpectrumReport(
        matches=max_dev <= tol,
        max_deviation=max_dev,
        expected=tuple(template),
        computed=tuple(float(x) for x in spec.values),
        deviations=deviations,
        cubic_roots=roots,
    )


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
