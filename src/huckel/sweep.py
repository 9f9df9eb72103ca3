"""Exhaustive and corpus-driven verification sweeps.

Graphs are eigensolved in batches by a symmetric solver and every enabled
check is evaluated vectorized per batch.  An exhaustive sweep on n vertices
judges each class representative of order n-1 once per neighbour set of a
new vertex, counted with the representative's orbit size, and evaluates
labeled copies only of the classes near a decision point.  Its first pass
sorts these pairs by their exact integer characteristic polynomial
(_charpolys) and eigensolves one pair per run of equal polynomials.  Each
batch is judged once (_Batch), and one tally (_tally) adds its rows to the
report of its order; a sweep cut into pieces tallies their rows in order.
"""

from __future__ import annotations

import csv
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Generator, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import (
    _bound_fields,
    _scale,
    intermediate_bounds,
    intermediate_steep,
    lemma1_terms,
    lemma1_theorem_domain,
    lower_bound,
    upper_bound,
    upper_bound_applies,
    upper_bound_order,
    violated,
)
# parse_graph6 and write_graph6 are not called here: they stay bound for
# perfbench's tracer, which wraps them here.
from .graphs import (Graph6Error, _body_bits, _size_header, decode_graph6, decode_graph6_batch, graph6_records,
                     graph6_strings, pair_batch, pair_order, parse_graph6, write_graph6)
from .spectra import DUST_TOL, TIGHT_TOL, VIOLATION_TOL, energy, half_spectrum, invariants_hold

ENUM_MAX_N = 8
_DUMP_MAX_N = 7  # a dump writes one CSV row per labeled graph
HIST_RESOLUTION = 1e-3
_HIST_BINS = 512  # slack histogram covers [0, 0.512); larger slacks overflow
_WITNESS_CAP = 1000
_VIOLATION_CAP = 20
_BATCH = 1 << 16
_CHUNK = 1 << 12  # corpus records decoded together
_CHUNK_BYTES = 1 << 20  # and their characters at most, but one record at least
_FLUSH = 4096  # corpus records of one order swept together
_FLUSH_CELLS = 1 << 23  # and their pair bits at most, over 4,096 rows of C(62, 2) = 1,891
_HOLD_BYTES = 1 << 24  # corpus body bytes buffered over all orders; past it the oldest buffer is swept
_SOLVE_CELLS = 1 << 18  # adjacency entries per corpus eigensolve: 2 MB of float64
_CLASS_CHUNK = 128  # class representatives whose pairs' polynomials are built together

# A corpus segment: (order n, (k, ceil(C(n,2)/6)) uint8 graph6 bodies less 63, k stream positions).
Segment = Tuple[int, np.ndarray, np.ndarray]


@dataclass
class CheckTally:
    """One check's results over a set of graphs.  witnesses holds the smallest
    _WITNESS_CAP distinct graph6 strings among the check's witnesses, so it
    does not depend on the order in which graphs or parts are met;
    witness_count counts them all.  examples holds the first _VIOLATION_CAP
    violations met, and histogram counts applicable graphs per slack bin."""

    checked: int = 0
    holds: int = 0
    violated: int = 0
    not_applicable: int = 0
    min_slack: Optional[float] = None
    witnesses: List[str] = field(default_factory=list)
    witness_count: int = 0
    examples: List[str] = field(default_factory=list)
    histogram: Dict[int, int] = field(default_factory=dict)

    def add(self, other: "CheckTally") -> None:
        self.checked += other.checked
        self.holds += other.holds
        self.violated += other.violated
        self.not_applicable += other.not_applicable
        if other.min_slack is not None:
            self.min_slack = other.min_slack if self.min_slack is None else min(self.min_slack, other.min_slack)
        if other.witnesses:
            self.witnesses = sorted(set(self.witnesses).union(other.witnesses))[:_WITNESS_CAP]
        self.witness_count += other.witness_count
        self.examples.extend(other.examples[:_VIOLATION_CAP - len(self.examples)])
        for b, c in other.histogram.items():
            self.histogram[b] = self.histogram.get(b, 0) + c


@dataclass
class SweepReport:
    """Verification results for all graphs of one order, one CheckTally per check."""

    n: int
    graph_count: int = 0
    checks: Dict[str, CheckTally] = field(default_factory=dict)
    solver_failures: List[str] = field(default_factory=list)

    @classmethod
    def for_checks(cls, n: int, checks: Sequence[str]) -> "SweepReport":
        return cls(n=n, checks={check: CheckTally() for check in checks})

    @property
    def witness_counts(self) -> Dict[str, int]:
        # Read-only view kept for perfbench's tracer, which sums its values.
        return {c: t.witness_count for c, t in self.checks.items()}

    @property
    def total_violations(self) -> int:
        return sum(t.violated for t in self.checks.values()) + len(self.solver_failures)

    def finalize(self) -> "SweepReport":
        self.solver_failures = sorted(set(self.solver_failures))
        return self

    def to_dict(self) -> dict:
        tallies = sorted(self.checks.items())
        return {
            "n": self.n,
            "graph_count": self.graph_count,
            "violations": self.total_violations,
            "checks": {c: {"checked": t.checked, "holds": t.holds, "violated": t.violated,
                           "not_applicable": t.not_applicable} for c, t in tallies},
            "min_slack": {c: t.min_slack for c, t in tallies},
            "equality_witnesses": {c: t.witnesses for c, t in tallies},
            "witness_counts": {c: t.witness_count for c, t in tallies},
            "violation_examples": {c: t.examples for c, t in tallies},
            "slack_histogram": {c: {str(b): k for b, k in sorted(t.histogram.items())} for c, t in tallies},
            "solver_failures": self.solver_failures,
        }


def _validate_checks(checks: Sequence[str]) -> Tuple[str, ...]:
    out = tuple(dict.fromkeys(checks))  # repeats dropped, first-seen order kept
    for c in out:
        if c not in CHECKS:
            raise ValueError(f"unknown check {c!r}; valid: {', '.join(ALL_CHECKS)}")
    return out


# ─── enumeration and corpora ────────────────────────────────────────────────


def _chunk(stream: Iterator[Tuple[int, str]]) -> List[Tuple[int, str]]:
    """The next _CHUNK items of stream, or fewer once their records reach
    _CHUNK_BYTES characters; one at least unless stream is done."""
    chunk, size = [], 0
    for item in stream:
        chunk.append(item)
        size += len(item[1])
        if len(chunk) == _CHUNK or size >= _CHUNK_BYTES:
            break
    return chunk


def corpus_records(path: str, on_error: str = "raise") -> Iterator[List[Segment]]:
    """The records of a graph6 file, one per non-blank line, as sections of
    segments (n, bodies, positions): the graph6 bodies less 63 of the records
    of order n in the section, in file order, with their indices among the
    file's records.  decode_graph6_batch decodes a _chunk at a time, and the
    segments slice its per-order blocks.  A record it leaves goes through
    decode_graph6 and is a section of its own, between the rows before and
    after it, with the body of its canonical string; a malformed one raises
    (with the line number) or is skipped, per on_error in {"raise", "skip"},
    after the rows before it."""
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    with open(path, "r", encoding="latin-1") as fh:
        stream, base = graph6_records(fh), 0
        # Each chunk is decoded in a frame of its own, gone before the next chunk is read.
        while size := (yield from _sections(path, _chunk(stream), base, on_error)):
            base += size


def _sections(path: str, chunk: List[Tuple[int, str]], base: int,
              on_error: str) -> Generator[List[Segment], None, int]:
    """corpus_records' sections of one chunk of (line number, record) items,
    the first at stream position base; returns the chunk's length."""
    if not chunk:
        return 0
    order, groups = decode_graph6_batch([record for _, record in chunk])
    rows = {n: np.flatnonzero(order == n) for n in groups}

    def section(lo: int, hi: int) -> List[Segment]:
        """The segments of the bulk rows at chunk positions lo..hi-1."""
        cuts = {n: np.searchsorted(at, (lo, hi)).tolist() for n, at in rows.items()}
        return [(n, groups[n][k0:k1], base + rows[n][k0:k1]) for n, (k0, k1) in cuts.items() if k1 > k0]

    lo = 0
    for i in np.flatnonzero(order < 0).tolist():
        ln, record = chunk[i]
        if i > lo:
            yield section(lo, i)
        lo = i + 1
        try:
            n, _, g6 = decode_graph6(record)
        except Graph6Error as exc:
            if on_error == "raise":
                raise Graph6Error(f"{path}:{ln}: {exc}") from exc
            continue
        body = np.frombuffer(g6[len(_size_header(n)):].encode("ascii"), np.uint8) - np.uint8(63)
        yield [(n, body[None], np.array([base + i]))]
    yield section(lo, len(order))
    return len(order)


# ─── the check table ────────────────────────────────────────────────────────


class _Batch:
    """One batch of graphs of order n, given as (B, C(n,2)) uint8 pair bits in
    graph6 order, eigensolved and judged once: sizes m; spectra w, rows
    non-increasing; ok, the rows that converged and keep the trace/Frobenius
    invariants; everything the check rows read; and verdicts, each check's
    (applicable, violated, slack, bound) rows.  Rows the solver flagged (not
    ok), and every row at an order a check skips, are not applicable.  Given
    keys, contiguous labels shared only by equal characteristic polynomials,
    the first row of each run of equal keys is eigensolved for the run (else
    every row); only those rows and the rows tested for connectivity get matrices."""

    def __init__(self, n: int, bits: np.ndarray, checks: Tuple[str, ...], tol: float,
                 keys: Optional[np.ndarray] = None):
        self.n, self.bits, self.tol = n, bits, tol
        self.m = m = bits.sum(axis=1, dtype=np.int64)
        first = np.ones(len(bits), dtype=bool)
        if keys is not None:  # equal characteristic polynomials, equal spectra: solve each run's first row
            first[1:] = keys[1:] != keys[:-1]
        solved, run = pair_batch(n, bits[first]), np.cumsum(first) - 1
        ok = np.ones(len(solved), dtype=bool)
        try:
            w = np.linalg.eigvalsh(solved)
        except np.linalg.LinAlgError:
            w = np.zeros((len(solved), n))
            for idx in range(len(solved)):
                try:
                    w[idx] = np.linalg.eigvalsh(solved[idx])
                except np.linalg.LinAlgError:
                    ok[idx] = False
        self.w, self.ok = w[run][:, ::-1], ok[run]
        trace_ok, frobenius_ok = invariants_hold(self.w, m)
        self.ok &= trace_ok & frobenius_ok
        self.he, self.alpha, self.beta = half_spectrum(self.w)
        touched = np.zeros((n, len(bits)), dtype=np.uint8)  # touched[v]: v lies on a set pair bit
        by_pair = bits.T.copy()  # one row per pair: whole rows are fast to combine
        for j in range(1, n):  # the pairs (i, j), i < j, are rows j(j-1)/2 .. j(j+1)/2 - 1
            touched[:j] |= (rows := by_pair[j * (j - 1) // 2:j * (j + 1) // 2])
            touched[j] = rows.max(axis=0)
        self.isolated = (touched == 0).any(axis=0)
        if n >= 2:
            self.f1, self.f2 = intermediate_bounds(n, m, self.alpha, self.beta)
            self.upper_nm, self.upper_nm_applies = upper_bound(n, m)[0], upper_bound_applies(n, m)
        self.verdicts = {name: self._judge(CHECKS[name]) for name in checks}

    def _judge(self, check: Check):
        if not check.order(self.n):
            none = np.zeros(len(self.m), dtype=bool)
            return none, none, np.zeros(len(self.m)), 0.0
        value, bound = check.value(self), check.bound(self)
        slack = bound - value if check.upper else value - bound
        applicable = check.domain(self) & self.ok
        return applicable, violated(slack, bound, self.tol, check.strict) & applicable, slack, bound

    def connected(self, rows: np.ndarray) -> np.ndarray:
        """Connectivity of the rows the boolean mask rows selects; False on every other row."""
        out = np.zeros(len(self.m), dtype=bool)
        out[rows] = _batch_connected(pair_batch(self.n, self.bits[rows]))
        return out


@dataclass(frozen=True)
class Check:
    """One row of the check table: at orders n with order(n), every graph in
    domain(batch) must satisfy value <= bound (upper) or value >= bound
    (lower), strictly if strict, as bounds.violated decides.  All other graphs
    and the solver's failures count as not_applicable.  steep(batch), if
    given, marks rows whose bound can move by more than DUST_TOL under
    eigensolver rounding (see bounds.intermediate_steep)."""

    name: str
    order: Callable[[int], bool]
    domain: Callable[[_Batch], np.ndarray]
    value: Callable[[_Batch], np.ndarray]
    bound: Callable[[_Batch], np.ndarray]
    upper: bool = True
    strict: bool = False
    steep: Optional[Callable[[_Batch], np.ndarray]] = None


CHECKS: Dict[str, Check] = {c.name: c for c in (
    Check("lemma1", lambda n: n >= 3,
          lambda b: lemma1_theorem_domain(b.n, b.m, lambda: b.connected(b.m == b.n - 1)),
          lambda b: lemma1_terms(b.n, b.m, b.alpha)[0], lambda b: lemma1_terms(b.n, b.m, b.alpha)[1]),
    Check("upper_nm", lambda n: n >= 2, lambda b: b.upper_nm_applies, lambda b: b.he, lambda b: b.upper_nm),
    Check("upper_n", lambda n: n >= 1, lambda b: np.ones(len(b.m), dtype=bool), lambda b: b.he,
          lambda b: upper_bound_order(b.n)),
    Check("lower", lambda n: n >= 2, lambda b: ~b.isolated, lambda b: b.he, lambda b: lower_bound(b.n),
          upper=False),
    Check("odd_strict", lambda n: n % 2 == 1 and n >= 3, lambda b: b.upper_nm_applies, lambda b: b.he,
          lambda b: b.upper_nm, strict=True),
    # The odd two-step refinement assumes m >= n-1 >= 3, so odd n = 3 is out
    # of scope (for the 3-vertex path f1 dips below the half-spectrum sum).
    Check("intermediate", lambda n: n >= 5 or (n >= 2 and n % 2 == 0), lambda b: b.m >= b.n - 1,
          lambda b: b.he, lambda b: np.minimum(b.f1, b.f2),
          steep=lambda b: intermediate_steep(b.n, b.m, b.alpha, b.beta)),
)}
ALL_CHECKS: Tuple[str, ...] = tuple(CHECKS)


_DUMP_FIELDS = [
    "graph6", "n", "m", "he", "energy", "alpha", "beta",
    "upper_nm", "upper_nm_regime", "upper_nm_applies", "slack_upper_nm",
    "upper_n", "slack_upper_n", "lower", "lower_applies", "slack_lower",
    "f1", "f2", "lemma1",
]


@contextmanager
def _dump_writer(path: Optional[str]):
    """A CSV writer for per-graph rows, header written, or None without a path."""
    if not path:
        yield None
        return
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(_DUMP_FIELDS)
        yield writer


def _dump_rows(b: _Batch, g6_of) -> Iterator[tuple]:
    """Per-graph CSV rows, formatted column by column from the bound fields
    of bounds._bound_fields.  The lemma1 column evaluates the inequality on
    its stated domain (lemma1_check), wider than the domain the sweep asserts."""
    n, rows = b.n, len(b.m)
    f = _bound_fields(n, b.m, b.he, b.alpha, b.beta, b.isolated, b.tol)

    def col(x, fmt="{:.12g}".format):
        """x formatted row by row, a scalar repeated, or blanks if x is None."""
        if x is None:
            return [""] * rows
        return [fmt(x)] * rows if np.ndim(x) == 0 else list(map(fmt, x.tolist()))

    def flag(x):
        return col(x.astype(np.int64) if n >= 2 else None, str)

    slack_n = None if f["upper_n"] is None else f["upper_n"] - b.he
    return zip(
        g6_of(np.arange(rows)), [n] * rows, b.m.tolist(), col(b.he), col(energy(b.w)), col(b.alpha),
        col(b.beta), col(f["upper_nm"]), col(f["upper_nm_regime"], str), flag(f["upper_nm_applies"]),
        col(f["slack_upper"]), col(f["upper_n"]), col(slack_n), col(f["lower"]), flag(f["lower_applies"]),
        col(f["slack_lower"]), col(f["inter_f1"]), col(f["inter_f2"]), f["lemma1"],
    )


# ─── the kernel ─────────────────────────────────────────────────────────────


def _batch_connected(a: np.ndarray) -> np.ndarray:
    """Connectivity for a (B, n, n) adjacency batch via boolean squaring of A+I."""
    b, n = a.shape[0], a.shape[1]
    if n <= 1:
        return np.ones(b, dtype=bool)
    reach = (a > 0.0) | np.eye(n, dtype=bool)
    hops = 1
    while hops < n - 1:
        reach = np.matmul(reach.astype(np.uint8), reach.astype(np.uint8)) > 0
        hops *= 2
    return reach[:, 0, :].all(axis=1)


def _tally(rep: SweepReport, ok: np.ndarray, verdicts: Dict[str, Sequence[np.ndarray]], g6_of,
           weight: Optional[np.ndarray] = None) -> None:
    """Add judged rows to rep: ok, the solver's mask, and each check's
    (applicable, violated, slack) rows, each row counted weight times (once
    without weights); g6_of maps an index array to its rows' graph6 strings."""
    if weight is None:
        weight = np.ones(len(ok), dtype=np.int64)
    rep.graph_count += int(weight.sum())
    rep.solver_failures.extend(g6_of(np.flatnonzero(~ok)))
    for name, (applicable, viol, slack, *_) in verdicts.items():
        tally = CheckTally(
            checked=int(weight.sum()),
            holds=int(weight[applicable & ~viol].sum()),
            violated=int(weight[viol].sum()),
            not_applicable=int(weight[~applicable].sum()),
            examples=g6_of(np.flatnonzero(viol)[:_VIOLATION_CAP]),
        )
        if applicable.any():
            sl = slack[applicable]
            tally.min_slack = float(sl.min())
            hist = np.bincount(
                np.minimum(np.floor(np.maximum(sl, 0.0) / HIST_RESOLUTION).astype(np.int64), _HIST_BINS),
                weights=weight[applicable],
            )
            tally.histogram = {int(i): int(hist[i]) for i in np.nonzero(hist)[0]}
            # Witnesses use TIGHT_TOL as an absolute |slack|, unlike the
            # relative equality tags of classify_equality.
            wit = np.nonzero(applicable & (np.abs(slack) <= TIGHT_TOL))[0]
            tally.witness_count = int(weight[wit].sum())
            tally.witnesses = g6_of(wit)
        rep.checks[name].add(tally)


def _add_batch(rep: SweepReport, b: _Batch, g6_of, dump=None) -> None:
    """Tally every row of b into rep, and write its CSV rows to dump if given."""
    _tally(rep, b.ok, b.verdicts, g6_of)
    if dump is not None:
        dump.writerows(_dump_rows(b, g6_of))


# ─── isomorphism classes of edge masks ──────────────────────────────────────


@lru_cache(maxsize=None)
def _perm_bits(n: int) -> np.ndarray:
    """(n!, C(n,2)) table: entry [p, k] is the mask bit of the image of pair k
    under the p-th permutation of the n vertices."""
    pairs = np.array(pair_order(n), dtype=np.int64).reshape(-1, 2)
    # int8 index arithmetic, exact for n <= 12, keeps the n!-row temporaries
    # small; the shift itself runs in int64.
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    i, j = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    table = np.left_shift(np.int64(1), hi * (hi - 1) // 2 + lo, dtype=np.int64)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _orbit(n: int, mask: int) -> np.ndarray:
    """The edge masks of all labeled copies of the graph with edge mask mask,
    sorted; their number is the orbit size n!/|Aut|."""
    table = _perm_bits(n)
    images = np.sort(table[:, [k for k in range(table.shape[1]) if mask >> k & 1]].sum(axis=1))
    return images[np.concatenate(([True], images[1:] != images[:-1]))]


def _classes(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """One representative per isomorphism class of graphs on n vertices, the
    smallest edge mask of its class, ascending, and the class's orbit size.
    This is the base case of sweep_labeled, which augments the classes of
    order n-1 by one vertex, so the scan runs over 2^C(n-1,2) masks.

    Masks are scanned in ascending order; the first one not seen yet starts a
    new class, and its whole orbit is marked seen.
    """
    unseen = np.ones(1 << (n * (n - 1) // 2), dtype=bool)
    reps, sizes = [], []
    mask, left = 0, len(unseen)
    while left:
        mask += int(unseen[mask:].argmax())
        orbit = _orbit(n, mask)
        unseen[orbit] = False
        reps.append(mask)
        sizes.append(len(orbit))
        left -= len(orbit)
    return np.array(reps, dtype=np.int64), np.array(sizes, dtype=np.int64)


def _near_decision(check: Check, b: _Batch, applicable, slack, bound, tol: float):
    """Applicable rows of b whose slack on check lies within DUST_TOL of a
    point where a verdict, the witness test or the histogram bin could change:
    the violation threshold -tol*max(1, |bound|), the band
    |slack| <= TIGHT_TOL (which holds 0, the strict rows' threshold) and a
    bin edge k*HIST_RESOLUTION below the overflow bin; and the rows the
    check calls steep.  Elsewhere the slacks of a graph's
    labeled copies differ from its own by eigensolver rounding, far below
    DUST_TOL, so the graph stands for every copy.  The check's smallest slack
    is the one more such point; it needs every row of the sweep, so
    _process_classes applies it."""
    near = np.abs(slack + tol * _scale(bound)) <= DUST_TOL
    near |= np.abs(slack) <= TIGHT_TOL + DUST_TOL
    edge = np.rint(slack / HIST_RESOLUTION)
    near |= (edge >= 1) & (edge <= _HIST_BINS) & (np.abs(slack - edge * HIST_RESOLUTION) <= DUST_TOL)
    if check.steep is not None:
        near |= check.steep(b)
    return near & applicable


# ─── drivers ────────────────────────────────────────────────────────────────


def _mask_bits(n: int, masks: np.ndarray) -> np.ndarray:
    """The (B, C(n,2)) uint8 pair bits of edge masks: bit k of a mask is pair k,
    unpacked from the masks' little-endian bytes."""
    return np.unpackbits(masks.astype("<i8").view(np.uint8).reshape(-1, 8), axis=1,
                         count=n * (n - 1) // 2, bitorder="little")


def _graph6_of(n: int, rows: np.ndarray, bits_of) -> Callable[[np.ndarray], List[str]]:
    """The report callback: the graph6 strings of the rows an index array picks; an empty pick packs nothing."""
    return lambda idx: graph6_strings(n, bits_of(n, rows[idx])) if len(idx) else []


def _pieces(masks: np.ndarray) -> List[np.ndarray]:
    """masks cut in order into near-equal pieces of at most _BATCH rows."""
    return np.array_split(masks, max(1, -(-len(masks) // _BATCH)))


def _piece(n: int, masks: np.ndarray, checks: Tuple[str, ...], tol: float, keys: np.ndarray):
    """Eigensolve and judge one piece of masks, one solve per run of equal
    keys (_Batch): the rows to expand by every rule but the smallest slack,
    the solver's mask, and each check's (applicable, violated, slack) rows."""
    b = _Batch(n, _mask_bits(n, masks), checks, tol, keys)
    flag = ~b.ok
    for name, (applicable, viol, slack, bound) in b.verdicts.items():
        flag |= viol | _near_decision(CHECKS[name], b, applicable, slack, bound, tol)
    return flag, b.ok, {name: v[:3] for name, v in b.verdicts.items()}


def _charpolys(n: int, reps: np.ndarray) -> np.ndarray:
    """The characteristic polynomials of the pairs (H, S) on n >= 1 vertices,
    H one of the edge masks reps of order k = n-1 and S each of its 2^k
    neighbour sets in _pairs' order: (len(reps) * 2^k, n) int64, the
    coefficients of x^(n-1), ..., x^0 below the leading 1.

    p_H = sum_i a_i x^(k-i) comes from Faddeev-LeVerrier in trace form,
    a_j = -sum_{i<j} a_i tr(A^(j-i)) / j.  By the Schur complement
    p_G(x) = x p_H(x) - s^T adj(xI - A) s, and adj(xI - A) =
    sum_{j<k} x^(k-1-j) sum_{i<=j} a_i A^(j-i), so p_G needs only the walk
    counts w_t = s^T A^t s, t < k: one matmul of the powers of A against
    the 2^k products s s^T.  Every entry is an integer far below 2^53, so
    the float64 arithmetic is exact."""
    k = n - 1
    a = pair_batch(k, _mask_bits(k, reps))
    powers = [np.broadcast_to(np.eye(k), a.shape)]
    for _ in range(k):
        powers.append(powers[-1] @ a)
    powers = np.stack(powers, axis=1)  # (classes, k+1, k, k): A^0 .. A^k
    traces = np.trace(powers, axis1=2, axis2=3)
    coef = np.zeros((len(reps), n + 1))  # of x p_H: a_0 .. a_k, then 0
    coef[:, 0] = 1.0
    for j in range(1, n):
        coef[:, j] = -(coef[:, :j] * traces[:, j:0:-1]).sum(axis=1) / j
    s = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    ssT = (s[:, :, None] & s[:, None, :]).reshape(1 << k, k * k).astype(np.float64)
    walks = (powers[:, :k].reshape(len(reps), k, k * k) @ ssT.T).transpose(0, 2, 1)  # (classes, 2^k, t)
    poly = np.repeat(coef[:, None, 1:], 1 << k, axis=1)
    for i in range(k):  # subtract a_i w_t from the coefficient of x^(k-1-i-t)
        poly[:, :, i + 1:] -= coef[:, None, i, None] * walks[:, :, :k - i]
    return poly.reshape(-1, n).astype(np.int64)


def _pairs(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge masks of the pairs (H, S) on n >= 1 vertices, H a class
    representative of order n-1 and S the neighbour set of vertex n-1 in the
    last n-1 mask bits; their weights, the orbit size of H; and the rank of
    their characteristic polynomial (_charpolys) among the distinct ones.
    The pairs are sorted by polynomial, so cospectral pairs are contiguous;
    the sort is stable.  They are built _CLASS_CHUNK classes at a time into
    int16, which holds every coefficient through order 9 (504 at most; a wider
    one raises), and ranks, not polynomials, go on to pass 1."""
    reps, sizes = _classes(n - 1)
    span = 1 << (n - 1)
    masks = reps[:, None] | np.arange(span, dtype=np.int64) << ((n - 1) * (n - 2) // 2)
    polys = np.empty((len(reps) * span, n), dtype=np.int16)
    for lo in range(0, len(reps), _CLASS_CHUNK):
        chunk = _charpolys(n, reps[lo:lo + _CLASS_CHUNK])
        if np.abs(chunk).max() > np.iinfo(np.int16).max:
            raise OverflowError(f"a characteristic polynomial of order {n} has a coefficient beyond int16")
        polys[lo * span:lo * span + len(chunk)] = chunk
    order = np.lexsort(polys.T[::-1])
    polys = polys[order]
    ranks = np.zeros(len(polys), dtype=np.int64)
    np.cumsum((polys[1:] != polys[:-1]).any(axis=1), out=ranks[1:])
    return masks.ravel()[order], np.repeat(sizes, span)[order], ranks


def _process_classes(
    n: int,
    masks: np.ndarray,
    weights: np.ndarray,
    checks: Tuple[str, ...],
    tol: float,
    keys: Optional[np.ndarray] = None,
) -> SweepReport:
    """Sweep the labeled graphs on n vertices that masks stand for, mask i
    counted weights[i] times: the classes of order n with their orbit sizes,
    or sweep_labeled's augmentation pairs.  keys, if given, label the masks
    by characteristic polynomial, equal labels contiguous (_pairs' ranks);
    each piece eigensolves one row per run of equal keys (_Batch), and the
    masks, distinct, are their own keys without them and in pass 2.

    Both passes judge their masks piece by piece (_piece) and keep only
    each check's row verdicts.  In pass 1 a mask is flagged if the solver
    flagged it, it violates a check or lies near a decision point
    (_near_decision, or within DUST_TOL of the check's smallest slack over
    all masks).  The class of each flagged mask is expanded once into its
    labeled copies, which pass 2 judges in ascending mask order.  Every mask
    in an expanded class is dropped from the weighted tally; every other
    mask is tallied once with its weight, then every copy once.
    """
    rep = SweepReport.for_checks(n, checks)

    def solve(rows: np.ndarray, keys: np.ndarray):
        """flag, ok and each check's verdicts of the masks rows, keyed
        as _Batch takes keys, judged piece by piece and concatenated in order."""
        done = [_piece(n, p, checks, tol, k) for p, k in zip(_pieces(rows), _pieces(keys))]
        flag, ok = (np.concatenate([d[k] for d in done]) for k in (0, 1))
        return flag, ok, {c: [np.concatenate(col) for col in zip(*(d[2][c] for d in done))] for c in checks}

    flag, ok, verdicts = solve(masks, masks if keys is None else keys)
    for applicable, _, slack in verdicts.values():
        if applicable.any():
            flag |= applicable & (slack <= slack[applicable].min() + DUST_TOL)
    copies = np.zeros(0, np.int64)
    # A flagged mask in an orbit already expanded adds nothing; other
    # orbits are disjoint from copies, so sorting the two is their union.
    for r in masks[flag].tolist():
        copies = copies if r in copies else np.sort(np.concatenate((copies, _orbit(n, r))))
    keep = ~np.isin(masks, copies, assume_unique=True)  # masks are distinct; copies sorted, distinct
    for c, v in verdicts.items():  # one check's rows copied at a time: a smaller peak
        verdicts[c] = [x[keep] for x in v]
    _tally(rep, ok[keep], verdicts, _graph6_of(n, masks[keep], _mask_bits), weights[keep])
    if len(copies):
        _tally(rep, *solve(copies, copies)[1:], _graph6_of(n, copies, _mask_bits))
    return rep


def sweep_labeled(
    n: int,
    checks: Sequence[str] = ALL_CHECKS,
    tol: float = VIOLATION_TOL,
    dump_path: Optional[str] = None,
) -> SweepReport:
    """Sweep every labeled graph on n vertices (n <= 8).

    A labeled graph on n vertices is a graph H on vertices 0..n-2 plus the
    neighbour set S of vertex n-1, the last n-1 bits of its edge mask.  So
    the pairs (H, S), with H one representative per class of order n-1
    (_classes) weighted by its orbit size, stand for every labeled graph:
    _process_classes judges each pair once, eigensolving one pair per
    distinct characteristic polynomial, and evaluates copy by copy only the
    classes near a decision point, so the report equals a sweep of every
    labeled graph.  Dumping per-graph CSV rows evaluates every copy,
    in edge-mask order; it requires n <= 7.
    """
    if not (1 <= n <= ENUM_MAX_N):
        raise ValueError(f"exhaustive sweep needs 1 <= n <= {ENUM_MAX_N}, got n={n}")
    checks = _validate_checks(checks)
    if dump_path is not None and n > _DUMP_MAX_N:
        raise ValueError(f"per-graph CSV dump needs n <= {_DUMP_MAX_N}; n={n} would write "
                         f"{1 << (n * (n - 1) // 2):,} rows")
    if not dump_path:
        masks, weights, keys = _pairs(n)
        return _process_classes(n, masks, weights, checks, tol, keys=keys).finalize()
    rep = SweepReport.for_checks(n, checks)
    with _dump_writer(dump_path) as dump:
        for piece in _pieces(np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)):
            _add_batch(rep, _Batch(n, _mask_bits(n, piece), checks, tol), _graph6_of(n, piece, _mask_bits), dump)
    return rep.finalize()


def sweep(
    records: Iterable[Sequence[Segment]],
    checks: Sequence[str] = ALL_CHECKS,
    tol: float = VIOLATION_TOL,
    dump_path: Optional[str] = None,
) -> List[SweepReport]:
    """Sweep the sections of corpus_records, one report per order, sorted by
    order.  Each order's rows are buffered as segments in stream order and
    swept at the record that brings the buffer to _FLUSH rows or, first at
    long-form orders, to _FLUSH_CELLS pair bits; the buffers left at the end
    are swept in the order they were opened or reopened.
    So the --dump rows, violation examples and rows written before a
    mid-file error are those of a record-at-a-time reader.  Once a section
    leaves more than _HOLD_BYTES body bytes buffered over all orders, the
    buffers opened first are swept until they fit.  A buffer is eigensolved
    in sub-batches of at most _SOLVE_CELLS adjacency entries, each unpacked
    from its bodies just before; a row's graph6 string is built only when
    it is reported, from the body's bits."""
    checks = _validate_checks(checks)
    reports: Dict[int, SweepReport] = {}
    buffers: Dict[int, list] = {}  # order -> [position it opened at, rows, [bodies, ...]]
    held = 0  # body bytes buffered over all orders

    def flush(n: int, segments) -> int:
        """Sweep one buffer's segments; the body bytes they held."""
        if n not in reports:
            reports[n] = SweepReport.for_checks(n, checks)
        bodies = np.concatenate(segments)
        step = max(1, _SOLVE_CELLS // max(1, n * n))
        for lo in range(0, len(bodies), step):
            sub = bodies[lo:lo + step]
            # Built inside the call, so no name keeps a sub-batch alive while the next is built.
            _add_batch(reports[n], _Batch(n, _body_bits(n, sub), checks, tol), _graph6_of(n, sub, _body_bits), dump)
        return bodies.nbytes

    with _dump_writer(dump_path) as dump:
        for section in records:
            due = []  # (position, order, segments) of the buffers this section fills
            for n, bodies, at in section:
                lo, rows = 0, min(_FLUSH, max(1, _FLUSH_CELLS // max(1, n * (n - 1) // 2)))
                while lo < len(at):
                    buf = buffers.setdefault(n, [int(at[lo]), 0, []])
                    hi = min(len(at), lo + rows - buf[1])
                    buf[1] += hi - lo
                    buf[2].append(bodies[lo:hi])
                    held += buf[2][-1].nbytes
                    if buf[1] == rows:
                        due.append((int(at[hi - 1]), n, buffers.pop(n)[2]))
                    lo = hi
            for _, n, segments in sorted(due, key=lambda d: d[0]):
                held -= flush(n, segments)
            while held > _HOLD_BYTES:
                n = min(buffers, key=lambda k: buffers[k][0])
                held -= flush(n, buffers.pop(n)[2])
        for n, buf in sorted(buffers.items(), key=lambda item: item[1][0]):
            flush(n, buf[2])
    return [reports[n].finalize() for n in sorted(reports)]
