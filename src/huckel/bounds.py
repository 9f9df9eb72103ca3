"""Sharp upper and lower bounds on the Huckel energy, with equality tags.

Two-parameter (order and size) upper bounds with an exact integer threshold
deciding which closed form applies, order-only upper bounds obtained by
maximizing over the size, the 2*sqrt(n-1) lower bound for graphs without
isolated vertices, the intermediate two-step bounds f1/f2, and the
half-spectrum moment inequality used to derive them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Set, Tuple, Union

import numpy as np

from .graphs import Graph
from .spectra import (
    DUST_TOL,
    TIGHT_TOL,
    VIOLATION_TOL,
    EnergyValues,
    Spectrum,
    eigenvalues,
    energy_values,
)

LEMMA_HOLDS = "holds"
LEMMA_VIOLATED = "violated"
LEMMA_NOT_APPLICABLE = "not_applicable"

REGIME_FIRST = "first"
REGIME_SECOND = "second"

# 64 KB float64 arrays: they stay in cache, and peak memory does not grow with n.
_SCAN_CHUNK = 1 << 13


def _checked_sqrt(x, scale, what: str):
    """Square root with rounding dust clamped to zero.  A scalar radicand
    below -DUST_TOL*max(1, scale) is a caller error and raises; an array
    clamps every entry, because a sweep batch carries rows the solver flagged,
    whose meaningless values are discarded later and must not abort it."""
    if isinstance(x, np.ndarray):
        return np.sqrt(np.maximum(x, 0.0))
    if x < 0.0:
        if x >= -DUST_TOL * max(1.0, scale):
            return 0.0
        raise ValueError(f"negative radicand {x:.6e} in {what}")
    return math.sqrt(x)


def _validate_nm(n: int, m) -> None:
    """Raise unless n >= 2 and every size m (a scalar or an array) is in 0..C(n,2)."""
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    for extreme in (np.min(m), np.max(m)) if isinstance(m, np.ndarray) else (m,):
        if extreme < 0 or extreme > n * (n - 1) // 2:
            raise ValueError(f"m={extreme} out of range for n={n}")


def _upper_even_value(n: int, m: float, first: bool) -> float:
    if first:
        rad = 2.0 * m * (n - 2) * (n * n - n - 2.0 * m)
        return 2.0 * m / (n - 1) + _checked_sqrt(rad, rad + 1.0, "even first-regime bound") / (n - 1)
    rad = m * n * (n * n - 2.0 * m)
    return 2.0 / n * _checked_sqrt(rad, rad + 1.0, "even second-regime bound")


def _upper_odd_value(n: int, m: float, first: bool) -> float:
    if first:
        rad = 2.0 * m * n * (n * n - 3 * n + 1) * (n * n - n - 2.0 * m)
        return 2.0 * m / (n - 1) + _checked_sqrt(rad, rad + 1.0, "odd first-regime bound") / (n * (n - 1))
    rad = 2.0 * m * (2 * n - 1) * (n * n - 2.0 * m)
    return _checked_sqrt(rad, rad + 1.0, "odd second-regime bound") / n


def _last_first_m(n: int) -> int:
    """The largest m of the first regime at order n >= 2, in exact integers:
    m <= n^3/(2(n+2)) for even n, m <= n^2(n-3)^2/(2(n^2-4n+11)) for odd n."""
    if n % 2 == 0:
        return n ** 3 // (2 * (n + 2))
    return n * n * (n - 3) ** 2 // (2 * (n * n - 4 * n + 11))


def upper_bound(n: int, m) -> Tuple[float, str]:
    """Upper bound on HE at order n and size m, with its regime tag; the
    threshold (_last_first_m) is exact on integers.  An integer array m gives
    arrays of bounds and tags, computed per regime by the scalar formula code,
    so each value is the scalar one bit for bit (see _branch_max)."""
    _validate_nm(n, m)
    value = _upper_even_value if n % 2 == 0 else _upper_odd_value
    first = m <= _last_first_m(n)
    if not isinstance(m, np.ndarray):
        return value(n, m, first), (REGIME_FIRST if first else REGIME_SECOND)
    vals, mf = np.empty(len(m)), m.astype(np.float64)
    vals[first] = value(n, mf[first], True)
    vals[~first] = value(n, mf[~first], False)
    return vals, np.where(first, REGIME_FIRST, REGIME_SECOND)


def upper_bound_applies(n: int, m) -> bool:
    """Whether the two-parameter bound is asserted for this (n, m), or for
    each size of an array m.

    The even-order bound holds for every graph; the odd-order one is only
    claimed for m >= n-1 (it genuinely fails below that, e.g. two disjoint
    edges plus an isolated vertex at n=5, m=2).
    """
    return (m >= n - 1) | (n % 2 == 0)


def upper_bound_order(n: int) -> float:
    """Order-only upper bound for n >= 1: (n/2)(1 + sqrt(n-1)) for even n,
    (n/2)(1 + sqrt(n) - 1/sqrt(n)) for odd n."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if n % 2 == 0:
        return n / 2.0 * (1.0 + math.sqrt(n - 1.0))
    rn = math.sqrt(float(n))
    return n / 2.0 * (1.0 + rn - 1.0 / rn)


def lower_bound(n: int) -> float:
    """Lower bound 2*sqrt(n-1) on HE for graphs without isolated vertices,
    attained exactly by the star."""
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    return 2.0 * math.sqrt(n - 1.0)


def intermediate_bounds(n: int, m, alpha, beta=None):
    """Two-step bounds from the half-spectrum moments, for n >= 2:
    f1 = 4m/n + 2*sqrt((r-1)(alpha - 4m^2/n^2)) + beta and
    f2 = 2*sqrt(r(2m - alpha - beta^2)) - beta, with r = floor(n/2) and beta
    the median eigenvalue of odd n (0 for even n).

    HE <= min(f1, f2) whenever m >= n-1, for even n and for odd n >= 5 (at
    n=3 the 3-vertex path already slips below f1).  m, alpha and beta are
    scalars, or arrays of one batch (see _checked_sqrt).
    """
    _validate_nm(n, m)
    if n % 2 == 0:
        beta = 0.0
    if not isinstance(alpha, np.ndarray) and alpha + beta * beta > 2.0 * m + DUST_TOL * max(1.0, 2.0 * m):
        raise ValueError(f"top half-spectrum moment {alpha + beta * beta} exceeds 2m={2 * m}")
    (x1, s1), (x2, s2) = _intermediate_radicands(n, m, alpha, beta)
    f1 = 4.0 * m / n + 2.0 * _checked_sqrt(x1, s1, "f1") + beta
    f2 = 2.0 * _checked_sqrt(x2, s2, "f2") - beta
    return f1, f2


def _intermediate_radicands(n: int, m, alpha, beta):
    """(radicand, scale) of the square roots in f1 and in f2."""
    r = n // 2
    return ((r - 1) * (alpha - 4.0 * m * m / (n * n)), alpha), (r * (2.0 * m - alpha - beta * beta), 2.0 * m)


def intermediate_steep(n: int, m, alpha, beta=None):
    """Where f1 or f2 takes the square root of a radicand within
    TIGHT_TOL*max(1, scale) of zero.  There a rounding error e in the
    spectrum moves the bound by up to about sqrt(e), 1e-7 for e = 1e-14, so
    two computations of one spectrum can give bounds further apart than
    DUST_TOL; elsewhere the root's slope is at most 1/(2*sqrt(TIGHT_TOL)) =
    500.  At n <= 3 the f1 radicand is exactly 0 and is not steep.  Scalars
    or arrays, as intermediate_bounds takes them."""
    if n % 2 == 0:
        beta = 0.0
    (x1, s1), (x2, s2) = _intermediate_radicands(n, m, alpha, beta)
    near = lambda x, s: x <= TIGHT_TOL * np.maximum(1.0, s)
    return ((n >= 4) & near(x1, s1)) | near(x2, s2)


def violated(slack, bound, tol: float = VIOLATION_TOL, strict: bool = False):
    """The verdict rule: a bound with this slack (bound minus value for an
    upper bound, value minus bound for a lower one) is violated when slack <
    -tol*max(1, |bound|), or slack <= 0 if strict.  Scalars or arrays."""
    if strict:
        return slack <= 0.0
    return slack < -tol * _scale(bound)


def tight(slack, bound, tol: float = TIGHT_TOL):
    """Equality within tol*max(1, |bound|).  Scalars or arrays."""
    return abs(slack) <= tol * _scale(bound)


def _scale(bound):
    """max(1, |bound|), of a scalar or entry by entry."""
    return np.maximum(1.0, np.abs(bound)) if isinstance(bound, np.ndarray) else max(1.0, abs(bound))


# ─── the half-moment inequality alpha/r <= 4m^2/n^2 ─────────────────────────


def lemma1_terms(n: int, m, alpha):
    """Both sides of the half-moment inequality: (alpha/r, 4m^2/n^2)."""
    return alpha / (n // 2), 4.0 * m * m / (n * n)


def lemma1_stated_domain(n: int, m):
    """The hypothesis the inequality is usually stated under, m >= n-1 >= 2.
    It admits genuine counterexamples: the 3-vertex path has alpha/r = 2 >
    16/9, and K4 plus three isolated vertices has alpha/r = 3 > 144/49."""
    return (m >= n - 1) & (n >= 3)


def lemma1_theorem_domain(n: int, m, connected: Callable[[], np.ndarray]):
    """Where the inequality is a theorem, and so where a sweep asserts it:
    m >= n (a cycle exists, forcing alpha <= 2m-2), or a connected graph with
    m = n-1 (a tree, alpha = m) once n >= 4.  connected() gives the
    connectivity of at least the graphs with m = n-1 (it is read only there),
    and is called only if there is one."""
    domain = m >= n
    if n >= 4:
        trees = m == n - 1
        if np.any(trees):
            domain = domain | (trees & connected())
    return domain


def lemma1_check(n: int, m, alpha, tol: float = VIOLATION_TOL):
    """Tri-state check of the half-spectrum moment inequality on its stated
    domain: "holds", "violated" or "not_applicable", for scalars, or a list of
    them for arrays m and alpha of one batch.  It evaluates rather than
    asserts, so "violated" is a correct answer there, not an error."""
    if n < 3:  # the stated domain is empty (and r = 0)
        return np.full(np.shape(m), LEMMA_NOT_APPLICABLE).tolist()
    value, bound = lemma1_terms(n, m, alpha)
    bad, domain = violated(bound - value, bound, tol), lemma1_stated_domain(n, m)
    if not isinstance(m, np.ndarray):  # one graph: plain Python, several times faster than np.where
        return (LEMMA_VIOLATED if bad else LEMMA_HOLDS) if domain else LEMMA_NOT_APPLICABLE
    return np.where(domain, np.where(bad, LEMMA_VIOLATED, LEMMA_HOLDS), LEMMA_NOT_APPLICABLE).tolist()


# ─── per-graph report ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class BoundReport:
    n: int
    m: int
    energies: EnergyValues
    upper_nm: Optional[float]
    upper_nm_regime: Optional[str]
    upper_nm_applies: bool
    upper_n: Optional[float]
    lower: Optional[float]
    lower_applies: bool
    inter_f1: Optional[float]
    inter_f2: Optional[float]
    lemma1: str
    slack_upper: Optional[float]
    slack_lower: Optional[float]
    has_isolated: bool


def _bound_fields(n: int, m, he, alpha, beta, isolated, tol: float = VIOLATION_TOL) -> dict:
    """The fields of a BoundReport other than n, m, energies and has_isolated,
    for graphs of order n and size m with half-spectrum (he, alpha, beta) and
    isolated vertices where isolated: scalars, or arrays of one batch.  A
    bound that does not exist at order n is None and does not apply; lemma1
    is decided at tolerance tol."""
    fields = dict.fromkeys(("upper_nm", "upper_nm_regime", "upper_n", "lower", "inter_f1", "inter_f2",
                            "slack_upper", "slack_lower"))
    fields.update(upper_nm_applies=False, lower_applies=False, lemma1=lemma1_check(n, m, alpha, tol))
    if n >= 1:
        fields["upper_n"] = upper_bound_order(n)
    if n >= 2:
        upper_nm, regime = upper_bound(n, m)
        lower = lower_bound(n)
        fields["inter_f1"], fields["inter_f2"] = intermediate_bounds(n, m, alpha, beta)
        fields.update(
            upper_nm=upper_nm, upper_nm_regime=regime, upper_nm_applies=upper_bound_applies(n, m),
            lower=lower, lower_applies=~isolated if isinstance(isolated, np.ndarray) else not isolated,
            slack_upper=upper_nm - he, slack_lower=he - lower,
        )
    return fields


def bound_report(g: Union[Graph, np.ndarray], spectrum: Optional[Spectrum] = None) -> BoundReport:
    """Evaluate every bound against one graph's (or adjacency's) spectrum."""
    a = g.dense() if isinstance(g, Graph) else g
    degs = a.sum(axis=1)
    n, m, isolated = len(a), int(degs.sum()) // 2, not degs.all()
    ev = energy_values(spectrum if spectrum is not None else eigenvalues(a))
    return BoundReport(n=n, m=m, energies=ev, has_isolated=isolated,
                       **_bound_fields(n, m, ev.huckel, ev.alpha, ev.beta, isolated))


def classify_equality(report: BoundReport, tol: float = TIGHT_TOL) -> Set[str]:
    """Tags for bounds met with equality, at relative tolerance
    tol*max(1, bound)."""
    he = report.energies.huckel
    bounds = {"upper_nm_tight": report.upper_nm, "upper_n_tight": report.upper_n, "lower_tight": report.lower}
    return {tag for tag, bound in bounds.items() if bound is not None and tight(bound - he, bound, tol)}


def _branch_max(n: int, first: bool, lo: int, hi: int) -> Tuple[float, int]:
    """(max, first m attaining it) of one regime's branch over m = lo..hi-1,
    or (-1.0, -1) if empty, as an ascending scan of upper_bound finds them:
    float64 chunks run the same formula code, and numpy rounds + - * / and
    sqrt correctly as math does, so each value is the scalar one bit for bit;
    argmax takes a chunk's first maximum, and a later chunk must beat it."""
    value = _upper_even_value if n % 2 == 0 else _upper_odd_value
    best, at = -1.0, -1
    for start in range(lo, hi, _SCAN_CHUNK):
        vals = value(n, np.arange(start, min(start + _SCAN_CHUNK, hi), dtype=np.float64), first)
        k = int(vals.argmax())
        if vals[k] > best:
            best, at = float(vals[k]), start + k
    return best, at


def scan_order_bound(n: int) -> dict:
    """Scan the two-parameter bound over every integer m and compare with the
    order-only bound.

    The order bound is the maximum over real m of the bound's narrow-regime
    branch, so the comparison tracks that branch separately: the first-regime
    integer scan stays below the order bound, and evaluating the narrow branch
    at the real optimizer reproduces the order bound to rounding error.  The
    first-regime scan peaks within one edge of the rounded real optimizer
    whenever that optimizer lies inside the regime (always for even orders;
    for odd orders from n = 9 on).  For even orders the full scan stays below
    the order bound as well; for odd orders the wide-regime branch is a weaker
    bound that can exceed the order bound (both still hold for every graph),
    so scan_max may be larger there.
    """
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    even = n % 2 == 0
    top = n * (n - 1) // 2 + 1
    thr = _last_first_m(n)
    best_val_first, best_m_first = _branch_max(n, True, 0, min(thr + 1, top))
    best_val, best_m = _branch_max(n, False, min(thr + 1, top), top)
    if best_val <= best_val_first:  # a tie goes to the smaller, first-regime m
        best_val, best_m = best_val_first, best_m_first
    # The real optimizer is always evaluated on the narrow branch: its
    # unconstrained real-m maximum is exactly the order bound.  (At odd
    # n in {5, 7} the optimizer lies outside the branch's integer regime,
    # yet the algebraic identity still holds.)
    if even:
        m_opt = n * (n - 1 + math.sqrt(n - 1.0)) / 4.0
        val_at_opt = _upper_even_value(n, m_opt, True)
    else:
        m_opt = n * (n - 1 + math.sqrt(float(n))) / 4.0
        val_at_opt = _upper_odd_value(n, m_opt, True)
    return {
        "n": n,
        "order_bound": upper_bound_order(n),
        "scan_max": best_val,
        "scan_argmax": best_m,
        "scan_max_first": best_val_first,
        "scan_argmax_first": best_m_first,
        "optimal_m": m_opt,
        "value_at_optimal_m": val_at_opt,
    }
