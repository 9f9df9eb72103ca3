"""Adjacency spectra, graph energy, and the Huckel (half-filled) energy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .graphs import Graph

# The tolerance policy: every tolerance in the package is one of these four.
# A bound is violated when its slack < -VIOLATION_TOL * max(1, |bound|).
VIOLATION_TOL = 1e-8
# Equality and matching: a bound is tight, or a spectrum matches a predicted
# one, within TIGHT_TOL (relative to max(1, |bound|), except the sweep's
# equality witnesses, which use it as an absolute |slack|).
TIGHT_TOL = 1e-6
# Rounding dust, relative to max(1, scale): trace/Frobenius invariants,
# clamped radicands, near-integral SRG multiplicities.
DUST_TOL = 1e-9
# Eigensolver residual (relative to n*max(1, |w1|)) and bisection width.
SOLVER_TOL = 1e-12


class SpectralError(RuntimeError):
    """Eigensolver failure or a spectrum violating its defining invariants."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of an adjacency matrix, sorted non-increasing."""

    values: np.ndarray
    residual: Optional[float]

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EnergyValues:
    energy: float
    huckel: float
    alpha: float
    beta: Optional[float]
    r: int


def eigenvalues(g: Union[Graph, np.ndarray], residual: bool = True) -> Spectrum:
    """Full spectrum of g (or its float64 adjacency) via a backward-stable symmetric eigensolver.

    The residual max_i ||A v_i - w_i v_i||_inf is computed from the returned
    eigenpairs and checked against SOLVER_TOL*n*max(1, |w_1|); trace and Frobenius
    identities are enforced as well.  Failures raise SpectralError.  With
    residual=False, for a graph whose builder has proven its spectrum's form,
    the solver returns no eigenvectors and Spectrum.residual is None.
    """
    a = g.dense() if isinstance(g, Graph) else g
    n = len(a)
    if n == 0:
        return Spectrum(values=np.zeros(0), residual=0.0)
    try:
        w, v = np.linalg.eigh(a) if residual else (np.linalg.eigvalsh(a), None)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver did not converge for n={n}: {exc}") from exc
    res = None if v is None else float(np.abs(a @ v - v * w).max())
    w = w[::-1].copy()
    if res is not None and res > SOLVER_TOL * n * max(1.0, abs(float(w[0]))):
        raise SpectralError(f"residual {res:.3e} exceeds {SOLVER_TOL:.1e}*n*max(1,|w1|) for n={n}")
    m = int(a.sum()) // 2
    trace_ok, frobenius_ok = invariants_hold(w, m)
    if not trace_ok:
        raise SpectralError(f"trace {w.sum():.3e} deviates from 0 beyond tolerance")
    if not frobenius_ok:
        raise SpectralError(f"Frobenius sum {np.dot(w, w):.6e} deviates from 2m={2.0 * m}")
    w.flags.writeable = False
    return Spectrum(values=w, residual=res)


def invariants_hold(w: np.ndarray, m) -> Tuple[np.ndarray, np.ndarray]:
    """Trace 0 and sum of squares 2m, each to DUST_TOL*max(1, 2m), over the
    last axis: for one spectrum and its size m, or a (B, n) batch of spectra
    and their (B,) sizes.  Returns (trace_ok, frobenius_ok)."""
    two_m = 2.0 * m
    limit = DUST_TOL * np.maximum(1.0, two_m)
    return np.abs(w.sum(axis=-1)) <= limit, np.abs((w * w).sum(axis=-1) - two_m) <= limit


def _values(s) -> np.ndarray:
    return s.values if isinstance(s, Spectrum) else np.asarray(s, dtype=np.float64)


def half_spectrum(s):
    """(HE, alpha, beta) of a non-increasing spectrum, or row by row of a
    (B, n) batch of them: HE = 2*sum of the top r = floor(n/2) eigenvalues
    plus, for odd n, the median eigenvalue beta once; alpha = sum of squares
    of the top r.  beta is None for even n."""
    w = _values(s)
    n = w.shape[-1]
    r = n // 2
    top = w[..., :r]
    he = 2.0 * top.sum(axis=-1)
    alpha = (top ** 2).sum(axis=-1)
    beta = None
    if n % 2 == 1:
        beta = w[..., r]
        he = he + beta
    return he, alpha, beta


def energy(s):
    """Graph energy: sum of absolute eigenvalues, of one spectrum or row by
    row of a (B, n) batch."""
    return np.abs(_values(s)).sum(axis=-1)


def huckel_energy(s) -> float:
    """Half-filled energy: 2*sum of the top floor(n/2) eigenvalues, plus the
    median eigenvalue once when n is odd."""
    return float(half_spectrum(s)[0])


def energy_values(s: Spectrum) -> EnergyValues:
    he, alpha, beta = half_spectrum(s)
    return EnergyValues(
        energy=float(energy(s)),
        huckel=float(he),
        alpha=float(alpha),
        beta=None if beta is None else float(beta),
        r=len(_values(s)) // 2,
    )


def group_spectrum(values: Sequence[float]) -> List[Tuple[float, int]]:
    """Collapse a sorted spectrum into (representative, multiplicity) runs.

    Consecutive values within TIGHT_TOL join the same run; the representative
    is the run mean.
    """
    out: List[Tuple[float, int]] = []
    run: List[float] = []
    for x in values:
        if run and abs(run[-1] - float(x)) > TIGHT_TOL:
            out.append((sum(run) / len(run), len(run)))
            run = []
        run.append(float(x))
    if run:
        out.append((sum(run) / len(run), len(run)))
    return out


def match_spectrum(values: Sequence[float], template: Sequence[float]) -> Tuple[float, bool]:
    """A non-increasing spectrum against a descending template of the same
    length, entry by entry: the largest deviation (0.0 for none) and whether
    it is within TIGHT_TOL.  A template of another length raises ValueError."""
    max_dev = max((abs(float(c) - e) for c, e in zip(values, template, strict=True)), default=0.0)
    return max_dev, max_dev <= TIGHT_TOL
