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
from typing import Callable, Optional, Set, Tuple

import numpy as np

from .graphs import Graph, stats
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


def _validate_nm(n: int, m, parity: int) -> None:
    if n < 2 or n % 2 != parity:
        raise ValueError(f"n={n} must be {'even' if parity == 0 else 'odd'} and >= 2")
    if m < 0 or m > n * (n - 1) // 2:
        raise ValueError(f"m={m} out of range for n={n}")


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


def upper_bound_even(n: int, m: int) -> Tuple[float, str]:
    """Upper bound on HE for even n, with the regime tag that applied.

    The regime threshold m <= n^3/(2(n+2)) is decided exactly on integers.
    """
    _validate_nm(n, m, 0)
    first = 2 * m * (n + 2) <= n ** 3
    return _upper_even_value(n, m, first), (REGIME_FIRST if first else REGIME_SECOND)


def upper_bound_odd(n: int, m: int) -> Tuple[float, str]:
    """Upper bound on HE for odd n, with the regime tag that applied.

    The regime threshold m <= n^2(n-3)^2/(2(n^2-4n+11)) is decided exactly
    on integers.
    """
    _validate_nm(n, m, 1)
    first = 2 * m * (n * n - 4 * n + 11) <= n * n * (n - 3) ** 2
    return _upper_odd_value(n, m, first), (REGIME_FIRST if first else REGIME_SECOND)


def upper_bound(n: int, m: int) -> Tuple[float, str]:
    """Parity dispatcher for the two-parameter upper bound."""
    return upper_bound_even(n, m) if n % 2 == 0 else upper_bound_odd(n, m)


def upper_bound_applies(n: int, m: int) -> bool:
    """Whether the two-parameter bound is asserted for this (n, m).

    The even-order bound holds for every graph; the odd-order one is only
    claimed for m >= n-1 (it genuinely fails below that, e.g. two disjoint
    edges plus an isolated vertex at n=5, m=2).
    """
    return True if n % 2 == 0 else m >= n - 1


def upper_bound_order_even(n: int) -> float:
    """Order-only upper bound for even n: (n/2)(1 + sqrt(n-1))."""
    if n < 2 or n % 2:
        raise ValueError(f"n={n} must be even and >= 2")
    return n / 2.0 * (1.0 + math.sqrt(n - 1.0))


def upper_bound_order_odd(n: int) -> float:
    """Order-only upper bound for odd n: (n/2)(1 + sqrt(n) - 1/sqrt(n))."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n={n} must be odd and >= 1")
    rn = math.sqrt(float(n))
    return n / 2.0 * (1.0 + rn - 1.0 / rn)


def upper_bound_order(n: int) -> float:
    return upper_bound_order_even(n) if n % 2 == 0 else upper_bound_order_odd(n)


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
    for extreme in (np.min(m), np.max(m)):
        _validate_nm(n, extreme, n % 2)
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


def intermediate_bounds_even(n: int, m, alpha):
    """intermediate_bounds for even n."""
    if n % 2:
        raise ValueError(f"n={n} must be even and >= 2")
    return intermediate_bounds(n, m, alpha)


def intermediate_bounds_odd(n: int, m, alpha, beta):
    """intermediate_bounds for odd n >= 3."""
    if n % 2 == 0:
        raise ValueError(f"n={n} must be odd and >= 2")
    return intermediate_bounds(n, m, alpha, beta)


def violated(slack, bound, tol: float = VIOLATION_TOL, strict: bool = False):
    """The verdict rule: a bound with this slack (bound minus value for an
    upper bound, value minus bound for a lower one) is violated when slack <
    -tol*max(1, |bound|), or slack <= 0 if strict.  Scalars or arrays."""
    if strict:
        return slack <= 0.0
    return slack < -tol * np.maximum(1.0, np.abs(bound))


def tight(slack, bound, tol: float = TIGHT_TOL):
    """Equality within tol*max(1, |bound|).  Scalars or arrays."""
    return np.abs(slack) <= tol * np.maximum(1.0, np.abs(bound))


# ─── the half-moment inequality alpha/r <= 4m^2/n^2 ─────────────────────────


def lemma1_terms(n: int, m, alpha):
    """Both sides of the half-moment inequality: (alpha/r, 4m^2/n^2)."""
    return alpha / (n // 2), 4.0 * m * m / (n * n)


def lemma1_stated_domain(n: int, m):
    """The hypothesis the inequality is usually stated under, m >= n-1 >= 2.
    It admits genuine counterexamples: the 3-vertex path has alpha/r = 2 >
    16/9, and K4 plus three isolated vertices has alpha/r = 3 > 144/49."""
    return np.logical_and(n >= 3, m >= n - 1)


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


def lemma1_check(n: int, m: int, alpha: float, tol: float = VIOLATION_TOL) -> str:
    """Tri-state check of the half-spectrum moment inequality on its stated
    domain: "holds", "violated" or "not_applicable".  It evaluates rather than
    asserts, so "violated" is a correct answer there, not an error."""
    if not lemma1_stated_domain(n, m):
        return LEMMA_NOT_APPLICABLE
    value, bound = lemma1_terms(n, m, alpha)
    return LEMMA_VIOLATED if violated(bound - value, bound, tol) else LEMMA_HOLDS


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


def bound_report(g: Graph, spectrum: Optional[Spectrum] = None) -> BoundReport:
    """Evaluate every bound against one graph's spectrum."""
    st = stats(g)
    n, m = g.n, st.m
    s = spectrum if spectrum is not None else eigenvalues(g)
    ev = energy_values(s)
    upper_nm, regime = upper_bound(n, m) if n >= 2 else (None, None)
    f1, f2 = intermediate_bounds(n, m, ev.alpha, ev.beta) if n >= 2 else (None, None)
    upper_n = upper_bound_order(n) if n >= 1 else None
    lower = lower_bound(n) if n >= 2 else None
    lower_applies = n >= 2 and not st.has_isolated
    return BoundReport(
        n=n,
        m=m,
        energies=ev,
        upper_nm=upper_nm,
        upper_nm_regime=regime,
        upper_nm_applies=n >= 2 and upper_bound_applies(n, m),
        upper_n=upper_n,
        lower=lower,
        lower_applies=lower_applies,
        inter_f1=f1,
        inter_f2=f2,
        lemma1=lemma1_check(n, m, ev.alpha),
        slack_upper=None if upper_nm is None else upper_nm - ev.huckel,
        slack_lower=None if lower is None else ev.huckel - lower,
        has_isolated=st.has_isolated,
    )


def classify_equality(report: BoundReport, tol: float = TIGHT_TOL) -> Set[str]:
    """Tags for bounds met with equality, at relative tolerance
    tol*max(1, bound)."""
    he = report.energies.huckel
    bounds = {"upper_nm_tight": report.upper_nm, "upper_n_tight": report.upper_n, "lower_tight": report.lower}
    return {tag for tag, bound in bounds.items() if bound is not None and tight(bound - he, bound, tol)}


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
    best_val, best_m = -1.0, -1
    best_val_first, best_m_first = -1.0, -1
    for m in range(n * (n - 1) // 2 + 1):
        val, regime = upper_bound(n, m)
        if val > best_val:
            best_val, best_m = val, m
        if regime == REGIME_FIRST and val > best_val_first:
            best_val_first, best_m_first = val, m
    # The real optimizer is always evaluated on the narrow branch: its
    # unconstrained real-m maximum is exactly the order bound.  (At odd
    # n in {5, 7} the optimizer lies outside the branch's integer regime,
    # yet the algebraic identity still holds.)
    if even:
        m_opt = n * (n - 1 + math.sqrt(n - 1.0)) / 4.0
        val_at_opt = _upper_even_value(n, m_opt, True)
        order = upper_bound_order_even(n)
    else:
        m_opt = n * (n - 1 + math.sqrt(float(n))) / 4.0
        val_at_opt = _upper_odd_value(n, m_opt, True)
        order = upper_bound_order_odd(n)
    return {
        "n": n,
        "order_bound": order,
        "scan_max": best_val,
        "scan_argmax": best_m,
        "scan_max_first": best_val_first,
        "scan_argmax_first": best_m_first,
        "optimal_m": m_opt,
        "value_at_optimal_m": val_at_opt,
    }
