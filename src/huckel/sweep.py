"""Exhaustive and corpus-driven verification sweeps.

Graphs are eigensolved in batches by a symmetric solver and every enabled
check is evaluated vectorized per batch.  An exhaustive sweep eigensolves one
graph per isomorphism class and counts it with its orbit size, evaluating
labeled copies only of the classes near a decision point.  Reports are
per-order and merge as a commutative monoid, so a sweep partitioned over
parts of the class list (serial or multiprocess) reduces to the identical
report.
"""

from __future__ import annotations

import csv
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import (
    _bound_fields,
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
from .graphs import (Graph, Graph6Error, decode_graph6_batch, graph6_records, mask_graph6, pair_batch, pair_bits,
                     pair_order, parse_graph6, write_graph6)
from .spectra import DUST_TOL, TIGHT_TOL, VIOLATION_TOL, energy, half_spectrum, invariants_hold

ENUM_MAX_N = 7
HIST_RESOLUTION = 1e-3
_HIST_BINS = 512  # slack histogram covers [0, 0.512); larger slacks overflow
_WITNESS_CAP = 1000
_VIOLATION_CAP = 20
_BATCH = 1 << 16
_CHUNK = 1 << 14  # corpus records decoded together


@dataclass
class CheckTally:
    checked: int = 0
    holds: int = 0
    violated: int = 0
    not_applicable: int = 0

    def add(self, other: "CheckTally") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class SweepReport:
    """Verification results for all graphs of one order.

    equality_witnesses[check] holds the smallest _WITNESS_CAP distinct graph6
    strings among the check's witnesses, so it does not depend on the order in
    which graphs or parts are met; witness_counts[check] counts them all.
    """

    n: int
    graph_count: int = 0
    checks: Dict[str, CheckTally] = field(default_factory=dict)
    min_slack: Dict[str, Optional[float]] = field(default_factory=dict)
    equality_witnesses: Dict[str, List[str]] = field(default_factory=dict)
    witness_counts: Dict[str, int] = field(default_factory=dict)
    violation_examples: Dict[str, List[str]] = field(default_factory=dict)
    slack_histogram: Dict[str, Dict[int, int]] = field(default_factory=dict)
    solver_failures: List[str] = field(default_factory=list)

    @classmethod
    def for_checks(cls, n: int, checks: Sequence[str]) -> "SweepReport":
        rep = cls(n=n)
        for check in checks:
            rep._entry(check)
        return rep

    def _entry(self, check: str) -> CheckTally:
        if check not in self.checks:
            self.checks[check] = CheckTally()
            self.min_slack[check] = None
            self.equality_witnesses[check] = []
            self.witness_counts[check] = 0
            self.violation_examples[check] = []
            self.slack_histogram[check] = {}
        return self.checks[check]

    @property
    def total_violations(self) -> int:
        return sum(t.violated for t in self.checks.values()) + len(self.solver_failures)

    def merge(self, other: "SweepReport") -> None:
        if other.n != self.n:
            raise ValueError("cannot merge reports of different orders")
        self.graph_count += other.graph_count
        for check, tally in other.checks.items():
            self._entry(check).add(tally)
            om = other.min_slack.get(check)
            if om is not None:
                mine = self.min_slack[check]
                self.min_slack[check] = om if mine is None else min(mine, om)
            theirs = other.equality_witnesses.get(check, [])
            if theirs:
                mine = self.equality_witnesses[check]
                self.equality_witnesses[check] = sorted(set(mine).union(theirs))[:_WITNESS_CAP]
            self.witness_counts[check] += other.witness_counts.get(check, 0)
            ve = self.violation_examples[check]
            ve.extend(other.violation_examples.get(check, [])[: _VIOLATION_CAP - len(ve)])
            hist = self.slack_histogram[check]
            for b, c in other.slack_histogram.get(check, {}).items():
                hist[b] = hist.get(b, 0) + c
        self.solver_failures.extend(other.solver_failures)

    def finalize(self) -> "SweepReport":
        self.solver_failures = sorted(set(self.solver_failures))
        return self

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "graph_count": self.graph_count,
            "violations": self.total_violations,
            "checks": {c: t.to_dict() for c, t in sorted(self.checks.items())},
            "min_slack": {c: self.min_slack[c] for c in sorted(self.min_slack)},
            "equality_witnesses": {
                c: self.equality_witnesses[c] for c in sorted(self.equality_witnesses)
            },
            "witness_counts": {c: self.witness_counts[c] for c in sorted(self.witness_counts)},
            "violation_examples": {
                c: self.violation_examples[c] for c in sorted(self.violation_examples)
            },
            "slack_histogram": {
                c: {str(b): cnt for b, cnt in sorted(self.slack_histogram[c].items())}
                for c in sorted(self.slack_histogram)
            },
            "solver_failures": self.solver_failures,
        }


def _validate_checks(checks: Sequence[str]) -> Tuple[str, ...]:
    out = tuple(checks)
    for c in out:
        if c not in CHECKS:
            raise ValueError(f"unknown check {c!r}; valid: {', '.join(ALL_CHECKS)}")
    return out


# ─── enumeration and corpora ────────────────────────────────────────────────


def _mask_of(pairs: List[Tuple[int, int]], g6: str) -> int:
    rows = parse_graph6(g6).rows
    return sum(1 << k for k, (i, j) in enumerate(pairs) if rows[i] >> j & 1)


def corpus_records(path: str, on_error: str = "raise") -> Iterator[Tuple[int, np.ndarray, str]]:
    """(order, pair bits, graph6) of each record of a graph6 file, one per
    line, in file order, decoded _CHUNK at a time by decode_graph6_batch.
    Each record it leaves goes through parse_graph6 and, if it parses, is
    re-encoded by write_graph6.  Blank lines are skipped.  Malformed records
    raise (with the line number) or are skipped, per on_error in {"raise", "skip"}."""
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    with open(path, "r", encoding="latin-1") as fh:
        stream = graph6_records(fh)
        while chunk := list(itertools.islice(stream, _CHUNK)):
            order, rank, groups = decode_graph6_batch([record for _, record in chunk])
            for (ln, record), n, k in zip(chunk, order.tolist(), rank.tolist()):
                if n >= 0:
                    yield n, groups[n][k], record
                    continue
                try:
                    g = parse_graph6(record)
                except Graph6Error as exc:
                    if on_error == "raise":
                        raise Graph6Error(f"{path}:{ln}: {exc}") from exc
                    continue
                yield g.n, pair_bits(g), write_graph6(g)


def stream_corpus(path: str, on_error: str = "raise") -> Iterator[Graph]:
    """The graphs of corpus_records(path, on_error)."""
    return (parse_graph6(g6) for _, _, g6 in corpus_records(path, on_error))


# ─── the check table ────────────────────────────────────────────────────────


class _Batch:
    """One eigensolved batch of graphs of order n (spectra w, rows
    non-increasing, and sizes m), with everything the check rows read.
    Connectivity is computed only when a check asks for it, and only on the
    rows it names."""

    def __init__(self, n: int, a: np.ndarray, m: np.ndarray, w: np.ndarray):
        self.n, self.a, self.m, self.w = n, a, m, w
        self.he, self.alpha, self.beta = half_spectrum(w)
        self.isolated = (a.sum(axis=2) == 0.0).any(axis=1)
        if n >= 2:
            self.f1, self.f2 = intermediate_bounds(n, m, self.alpha, self.beta)
            self.upper_nm, self.upper_nm_applies = upper_bound(n, m)[0], upper_bound_applies(n, m)

    def connected(self, rows: np.ndarray) -> np.ndarray:
        """Connectivity of the graphs in the rows selected by the boolean
        mask rows; False on every other row."""
        out = np.zeros(len(self.m), dtype=bool)
        out[rows] = _batch_connected(self.a[rows])
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


def _dump_rows(b: _Batch, tol: float, g6_of) -> Iterator[tuple]:
    """Per-graph CSV rows, formatted column by column from the bound fields
    of bounds._bound_fields.  The lemma1 column evaluates the inequality on
    its stated domain (lemma1_check), wider than the domain the sweep asserts."""
    n, rows = b.n, len(b.m)
    f = _bound_fields(n, b.m, b.he, b.alpha, b.beta, b.isolated, tol)

    def col(x, fmt="{:.12g}".format):
        """x formatted row by row, a scalar repeated, or blanks if x is None."""
        if x is None:
            return [""] * rows
        return [fmt(x)] * rows if np.ndim(x) == 0 else list(map(fmt, x.tolist()))

    def flag(x):
        return col(x.astype(np.int64) if n >= 2 else None, str)

    slack_n = None if f["upper_n"] is None else f["upper_n"] - b.he
    return zip(
        list(map(g6_of, range(rows))), [n] * rows, b.m.tolist(), col(b.he), col(energy(b.w)), col(b.alpha),
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


def _eigensolve(a: np.ndarray, m: np.ndarray):
    """Spectra of a (B, n, n) batch, rows non-increasing, and the mask of rows
    that converged and keep the trace/Frobenius invariants."""
    b, n = a.shape[0], a.shape[1]
    ok = np.ones(b, dtype=bool)
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        w = np.zeros((b, n))
        for idx in range(b):
            try:
                w[idx] = np.linalg.eigvalsh(a[idx])
            except np.linalg.LinAlgError:
                ok[idx] = False
    w = w[:, ::-1]
    trace_ok, frobenius_ok = invariants_hold(w, m)
    return w, ok & trace_ok & frobenius_ok


def _verdicts(b: _Batch, ok: np.ndarray, checks: Tuple[str, ...], tol: float):
    """(applicable, violated, slack, bound) of each check on every row of b.
    Rows the solver flagged (not ok), and every row at an order the check
    skips, are not applicable."""
    out = []
    for name in checks:
        check = CHECKS[name]
        if not check.order(b.n):
            none = np.zeros(len(b.m), dtype=bool)
            out.append((none, none, np.zeros(len(b.m)), 0.0))
            continue
        value, bound = check.value(b), check.bound(b)
        slack = bound - value if check.upper else value - bound
        applicable = check.domain(b) & ok
        out.append((applicable, violated(slack, bound, tol, check.strict) & applicable, slack, bound))
    return out


def _record(rep: SweepReport, check: str, applicable, viol, slack, witness_tol: float, g6_of,
            weight: Optional[np.ndarray] = None) -> None:
    """Merge one batch's verdicts on one check into rep, each row counted
    weight times (once without weights)."""
    if weight is None:
        weight = np.ones(len(applicable), dtype=np.int64)
    part = SweepReport.for_checks(rep.n, (check,))
    part.checks[check] = CheckTally(
        checked=int(weight.sum()),
        holds=int(weight[applicable & ~viol].sum()),
        violated=int(weight[viol].sum()),
        not_applicable=int(weight[~applicable].sum()),
    )
    if applicable.any():
        sl = slack[applicable]
        part.min_slack[check] = float(sl.min())
        hist = np.bincount(
            np.minimum(np.floor(np.maximum(sl, 0.0) / HIST_RESOLUTION).astype(np.int64), _HIST_BINS),
            weights=weight[applicable],
        )
        part.slack_histogram[check] = {int(i): int(hist[i]) for i in np.nonzero(hist)[0]}
        # Witnesses use witness_tol as an absolute |slack|, unlike the
        # relative equality tags of classify_equality.
        wit = np.nonzero(applicable & (np.abs(slack) <= witness_tol))[0]
        part.witness_counts[check] = int(weight[wit].sum())
        part.equality_witnesses[check] = [g6_of(int(i)) for i in wit]
    part.violation_examples[check] = [g6_of(int(i)) for i in np.nonzero(viol)[0][:_VIOLATION_CAP]]
    rep.merge(part)


def _process_batch(
    n: int,
    a: np.ndarray,
    m_arr: np.ndarray,
    checks: Tuple[str, ...],
    tol: float,
    witness_tol: float,
    rep: SweepReport,
    g6_of,
    dump=None,
) -> None:
    rep.graph_count += len(m_arr)
    w, ok = _eigensolve(a, m_arr)
    rep.solver_failures.extend(g6_of(int(idx)) for idx in np.nonzero(~ok)[0])
    b = _Batch(n, a, m_arr, w)
    for name, (applicable, viol, slack, _) in zip(checks, _verdicts(b, ok, checks, tol)):
        _record(rep, name, applicable, viol, slack, witness_tol, g6_of)
    if dump is not None:
        dump.writerows(_dump_rows(b, tol, g6_of))


# ─── isomorphism classes of edge masks ──────────────────────────────────────


@lru_cache(maxsize=None)
def _perm_bits(n: int) -> np.ndarray:
    """(n!, C(n,2)) table: entry [p, k] is the mask bit of the image of pair k
    under the p-th permutation of the n vertices."""
    pairs = np.array(pair_order(n), dtype=np.int64).reshape(-1, 2)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    i, j = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    table = np.left_shift(np.int64(1), hi * (hi - 1) // 2 + lo)
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


def _near_decision(check: Check, b: _Batch, applicable, slack, bound, tol: float, witness_tol: float):
    """Applicable rows of b whose slack on check lies within DUST_TOL of a
    point where a verdict, the witness test, the histogram bin or the check's
    smallest slack could change: the violation threshold
    -tol*max(1, |bound|), the band |slack| <= max(witness_tol, 0) (which
    holds 0, the strict rows' threshold), a bin edge k*HIST_RESOLUTION below
    the overflow bin, and the smallest slack among the rows; and the rows the
    check calls steep.  Elsewhere the slacks of a graph's labeled copies
    differ from its own by eigensolver rounding, far below DUST_TOL, so the
    graph stands for every copy."""
    if not applicable.any():
        return applicable
    near = np.abs(slack + tol * np.maximum(1.0, np.abs(bound))) <= DUST_TOL
    near |= np.abs(slack) <= max(witness_tol, 0.0) + DUST_TOL
    edge = np.rint(slack / HIST_RESOLUTION)
    near |= (edge >= 1) & (edge <= _HIST_BINS) & (np.abs(slack - edge * HIST_RESOLUTION) <= DUST_TOL)
    near |= slack <= slack[applicable].min() + DUST_TOL
    if check.steep is not None:
        near |= check.steep(b)
    return near & applicable


# ─── drivers ────────────────────────────────────────────────────────────────


def _mask_batch(n: int, masks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The (B, n, n) adjacency batch and edge counts of edge masks."""
    bits = (masks[:, None] >> np.arange(n * (n - 1) // 2, dtype=np.int64)) & 1
    return pair_batch(n, bits), bits.sum(axis=1)


def _mask_graph6(n: int, masks: np.ndarray):
    return lambda i: mask_graph6(n, int(masks[i]))


def _process_classes(
    n: int,
    reps: np.ndarray,
    sizes: np.ndarray,
    checks: Tuple[str, ...],
    tol: float,
    witness_tol: float,
    expand_all: bool = False,
    dump=None,
) -> SweepReport:
    """Sweep every labeled graph of the classes with representatives reps and
    orbit sizes sizes.

    The representatives are eigensolved as one batch.  A class is evaluated
    copy by copy if expand_all, or if its representative was flagged by the
    solver, violates a check or lies near a decision point (_near_decision);
    all such copies go through _process_batch together in ascending mask
    order.  Every other class is added once, weighted by its orbit size.
    """
    rep = SweepReport.for_checks(n, checks)
    a, m_arr = _mask_batch(n, reps)
    w, ok = _eigensolve(a, m_arr)
    b = _Batch(n, a, m_arr, w)
    verdicts = _verdicts(b, ok, checks, tol)
    expand = ~ok | expand_all
    for name, (applicable, viol, slack, bound) in zip(checks, verdicts):
        expand |= viol | _near_decision(CHECKS[name], b, applicable, slack, bound, tol, witness_tol)
    keep = ~expand
    rep.graph_count += int(sizes[keep].sum())
    for name, (applicable, viol, slack, _) in zip(checks, verdicts):
        _record(rep, name, applicable[keep], viol[keep], slack[keep], witness_tol,
                _mask_graph6(n, reps[keep]), weight=sizes[keep])
    masks = np.sort(np.concatenate([_orbit(n, int(r)) for r in reps[expand]] + [np.zeros(0, np.int64)]))
    for lo in range(0, len(masks), _BATCH):
        chunk = masks[lo:lo + _BATCH]
        a, m_arr = _mask_batch(n, chunk)
        _process_batch(n, a, m_arr, checks, tol, witness_tol, rep, _mask_graph6(n, chunk), dump)
    return rep


def _worker(args) -> SweepReport:
    n, reps, sizes, checks, tol, witness_tol = args
    return _process_classes(n, reps, sizes, checks, tol, witness_tol)


def default_jobs() -> int:
    env = os.environ.get("HUCKEL_JOBS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"HUCKEL_JOBS={env!r} is not an integer")
    return 1


def sweep_labeled(
    n: int,
    checks: Sequence[str] = ALL_CHECKS,
    tol: float = VIOLATION_TOL,
    witness_tol: float = TIGHT_TOL,
    jobs: Optional[int] = None,
    dump_path: Optional[str] = None,
) -> SweepReport:
    """Sweep every labeled graph on n vertices (n <= 7).

    Each isomorphism class is eigensolved once and counted with its orbit
    size; only classes near a decision point are evaluated copy by copy (see
    _process_classes), so the report equals a sweep of every labeled graph.
    Dumping per-graph CSV rows evaluates every copy, in edge-mask order, and
    requires the serial path.  jobs > 1 splits the class list into parts of
    at least 1024 labeled graphs, at most 8*jobs parts; the merged report is
    identical to the serial one.  At most min(jobs, CPU count, part count)
    worker processes start.
    """
    if not (1 <= n <= ENUM_MAX_N):
        raise ValueError(f"exhaustive sweep needs 1 <= n <= {ENUM_MAX_N}, got n={n}")
    checks = _validate_checks(checks)
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if dump_path is not None and jobs > 1:
        raise ValueError("per-graph CSV dump requires jobs=1")
    reps, sizes = _classes(n)
    if jobs == 1:
        with _dump_writer(dump_path) as dump:
            return _process_classes(
                n, reps, sizes, checks, tol, witness_tol, expand_all=dump is not None, dump=dump
            ).finalize()
    chunk = max(1 << 10, -(-int(sizes.sum()) // (jobs * 8)))
    ends, acc = [], 0
    for i, size in enumerate(sizes.tolist()):
        acc += size
        if acc >= chunk:
            ends.append(i + 1)
            acc = 0
    if acc:
        ends[-1:] = [len(sizes)]  # the remainder joins the last part, or is the only one
    parts = [(n, reps[lo:hi], sizes[lo:hi], checks, tol, witness_tol) for lo, hi in zip([0] + ends, ends)]
    rep = SweepReport.for_checks(n, checks)
    examples: Dict[str, List[str]] = {c: [] for c in checks}
    workers = min(jobs, os.cpu_count() or 1, len(parts))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_worker, parts):
            for c in checks:
                examples[c] += part.violation_examples[c]
            rep.merge(part)
    # Each part met its violations in mask order; keep the first ones overall.
    pairs = pair_order(n)
    for c in checks:
        rep.violation_examples[c] = sorted(examples[c], key=lambda g6: _mask_of(pairs, g6))[:_VIOLATION_CAP]
    return rep.finalize()


def sweep(
    graphs: Iterable[Graph],
    checks: Sequence[str] = ALL_CHECKS,
    tol: float = VIOLATION_TOL,
    witness_tol: float = TIGHT_TOL,
    dump_path: Optional[str] = None,
) -> List[SweepReport]:
    """Sweep a stream of graphs or of corpus_records.  Records are buffered
    per order in stream order; a buffer is swept as one batch when it holds
    4,096 records, and the rest at the end, in the order the buffers were
    opened.  Returns one report per order, sorted by order."""
    checks = _validate_checks(checks)
    reports: Dict[int, SweepReport] = {}
    buffers: Dict[int, Tuple[List[np.ndarray], List[str]]] = {}

    def flush(n: int) -> None:
        bits, g6 = buffers.pop(n)
        if n not in reports:
            reports[n] = SweepReport.for_checks(n, checks)
        bits = np.array(bits)
        _process_batch(n, pair_batch(n, bits), bits.sum(axis=1, dtype=np.int64), checks, tol, witness_tol,
                       reports[n], g6.__getitem__, dump)

    with _dump_writer(dump_path) as dump:
        for item in graphs:
            n, bits, g6 = item if isinstance(item, tuple) else (item.n, pair_bits(item), write_graph6(item))
            buf = buffers.setdefault(n, ([], []))
            buf[0].append(bits)
            buf[1].append(g6)
            if len(buf[1]) >= 4096:
                flush(n)
        for n in list(buffers):
            flush(n)
    return [reports[n].finalize() for n in sorted(reports)]
