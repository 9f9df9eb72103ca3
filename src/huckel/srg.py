"""Strongly regular graphs: combinatorial detection, predicted spectra, and
the parameter families attaining the order-only upper bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .graphs import Graph
from .spectra import DUST_TOL


class InfeasibleParamsError(ValueError):
    """Parameter quadruple admits no strongly regular graph."""


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int

    def counting_identity_holds(self) -> bool:
        """k(k - lam - 1) = (n - k - 1) mu, the two-step counting identity."""
        return self.k * (self.k - self.lam - 1) == (self.n - self.k - 1) * self.mu

    def validate(self) -> None:
        if not (0 < self.k < self.n - 1):
            raise InfeasibleParamsError(f"{self} needs 0 < k < n-1")
        if not (0 <= self.lam < self.k and 0 <= self.mu <= self.k):
            raise InfeasibleParamsError(f"{self} has out-of-range lam or mu")
        if not self.counting_identity_holds():
            raise InfeasibleParamsError(f"{self} fails k(k-lam-1) = (n-k-1)mu")

    def complement(self) -> "SrgParams":
        n, k, lam, mu = self.n, self.k, self.lam, self.mu
        return SrgParams(n, n - k - 1, n - 2 - 2 * k + mu, n - 2 * k + lam)

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)


def srg_params(g: Union[Graph, np.ndarray]) -> Optional[SrgParams]:
    """Detect strong regularity combinatorially via common-neighbor counts.

    Returns the parameters, or None for graphs that are not strongly regular
    (complete and empty graphs are excluded by convention).  Needs n >= 3.
    """
    a = g.dense() if isinstance(g, Graph) else g
    n = len(a)
    if n < 3:
        return None
    degs = a.sum(axis=1)
    k = int(degs[0])
    if (degs != k).any() or k == 0 or k == n - 1:
        return None
    # Common-neighbour counts are the entries of A @ A, exact in float64;
    # 0 < k < n-1 guarantees both an edge and a non-edge.
    upper = np.triu_indices(n, 1)
    edge, common = a[upper] > 0.0, (a @ a)[upper]
    lam, mu = common[edge], common[~edge]
    if lam.min() != lam.max() or mu.min() != mu.max():
        return None
    return SrgParams(n, k, int(lam[0]), int(mu[0]))


def predicted_spectrum(p: SrgParams) -> List[Tuple[float, int]]:
    """Spectrum forced by the parameters: [(k,1), (r,f), (s,g)] sorted
    descending.  Non-integral multiplicities raise InfeasibleParamsError."""
    p.validate()
    n, k, lam, mu = p.as_tuple()
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    if disc <= 0:
        raise InfeasibleParamsError(f"{p} has non-positive discriminant {disc}")
    sq = math.sqrt(float(disc))
    r = ((lam - mu) + sq) / 2.0
    s = ((lam - mu) - sq) / 2.0
    corr = (2 * k + (n - 1) * (lam - mu)) / sq
    f = ((n - 1) - corr) / 2.0
    gmult = ((n - 1) + corr) / 2.0
    out: List[Tuple[float, int]] = []
    for val, mult in ((float(k), 1.0), (r, f), (s, gmult)):
        rounded = round(mult)
        # Multiplicities within rounding dust of an integer are rounded;
        # anything farther marks the parameter set infeasible.
        if abs(mult - rounded) > DUST_TOL * max(1.0, n) or rounded < 0:
            raise InfeasibleParamsError(f"{p} forces non-integral multiplicity {mult}")
        if rounded:
            out.append((val, int(rounded)))
    out.sort(key=lambda t: -t[0])
    if sum(mult for _, mult in out) != n:
        raise InfeasibleParamsError(f"{p} multiplicities do not sum to n")
    return out


def extremal_family_params(t: int) -> SrgParams:
    """Parameters of the family attaining the even-order bound:
    (4t^2+4t+2, 2t^2+3t+1, t^2+2t, t^2+2t+1)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return SrgParams(4 * t * t + 4 * t + 2, 2 * t * t + 3 * t + 1, t * t + 2 * t, t * t + 2 * t + 1)


def switched_family_params(t: int) -> SrgParams:
    """Parameters of the switching construction output (complement of the
    extremal family): (4t^2+4t+2, 2t^2+t, t^2-1, t^2)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return SrgParams(4 * t * t + 4 * t + 2, 2 * t * t + t, t * t - 1, t * t)


def predicted_extremal_he(t: int) -> float:
    """Closed-form HE of the extremal family: 2(2t^3 + 4t^2 + 3t + 1),
    which equals the even-order bound at n = 4t^2+4t+2."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return 2.0 * (2 * t ** 3 + 4 * t ** 2 + 3 * t + 1)
