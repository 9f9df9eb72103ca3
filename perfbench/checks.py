"""Correctness checks on the CLI's outputs, one function per command kind.

Each checker takes the command (as in the pass spec), its exit code, its
stdout text and certificate text, and returns ``(ops, failures)``: how many
checked outputs the command produced and a list of messages, one per failed
output.  The reference values come from the benchmark itself (its own
generator facts, numpy spectra and closed forms), never from huckel.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Tuple

from inputs import decode_graph6, graph6_order_size, huckel_energy

REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _one_json(stdout: str) -> dict:
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def _report_problems(rep: dict, graph_count: int) -> List[str]:
    out = []
    if rep["graph_count"] != graph_count:
        out.append(f"n={rep['n']}: graph_count {rep['graph_count']} != {graph_count}")
    if rep["violations"] != 0 or rep["solver_failures"]:
        out.append(f"n={rep['n']}: {rep['violations']} violations, {len(rep['solver_failures'])} solver failures")
    for name, t in rep["checks"].items():
        if t["checked"] != t["holds"] + t["violated"] + t["not_applicable"] or t["checked"] != graph_count:
            out.append(f"n={rep['n']}: tally of {name} does not add up: {t}")
    return out


def check_verify_labeled(cmd: dict, rc: Optional[int], stdout: str, cert: Optional[str]) -> Tuple[int, List[str]]:
    n = cmd["n"]
    try:
        out = _one_json(stdout)
        (rep,) = out["reports"]
        problems = _report_problems(rep, 1 << (n * (n - 1) // 2))
        if rep["witness_counts"]["lower"] != n:
            problems.append(f"lower witnesses {rep['witness_counts']['lower']} != {n} labeled stars")
        if out["total_violations"] != 0 or out["pass"] is not True:
            problems.append("verify reports a failure")
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable verify output: {exc!r}"]
    if rc != 0:
        problems.append(f"exit code {rc}")
    return 1, ["; ".join(problems)] if problems else []


def check_verify_corpus(cmd: dict, rc: Optional[int], stdout: str, cert: Optional[str]) -> Tuple[int, List[str]]:
    try:
        out = _one_json(stdout)
        counts = {str(rep["n"]): rep["graph_count"] for rep in out["reports"]}
        problems = []
        if counts != cmd["order_counts"]:
            problems.append(f"per-order counts {counts} != generated {cmd['order_counts']}")
        for rep in out["reports"]:
            problems += _report_problems(rep, cmd["order_counts"].get(str(rep["n"]), -1))
        stars = sum(rep["witness_counts"]["lower"] for rep in out["reports"])
        if stars != cmd["star_count"]:
            problems.append(f"lower witnesses {stars} != {cmd['star_count']} stars in the corpus")
        if out["total_violations"] != 0 or out["pass"] is not True:
            problems.append("verify reports a failure")
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable verify output: {exc!r}"]
    if rc != 0:
        problems.append(f"exit code {rc}")
    return 1, ["; ".join(problems)] if problems else []


def check_analyze(cmd: dict, rc: Optional[int], stdout: str, cert: Optional[str]) -> Tuple[int, List[str]]:
    """One op per input record: the echoed graph6 must match and HE must agree
    with the benchmark's own spectrum to REL_TOL."""
    with open(cmd["stdin"], "r", encoding="ascii") as fh:
        records = fh.read().split()
    lines = stdout.splitlines()
    failures = []
    for k, record in enumerate(records):
        if k >= len(lines):
            failures.append(f"record {k}: no output")
            continue
        try:
            row = json.loads(lines[k])
            if row["graph6"] != record:
                failures.append(f"record {k}: echoed {row['graph6'][:12]!r} != input {record[:12]!r}")
            elif not _close(row["huckel"], huckel_energy(decode_graph6(record))):
                failures.append(f"record {k}: huckel {row['huckel']!r} disagrees with numpy")
        except (ValueError, KeyError, TypeError) as exc:
            failures.append(f"record {k}: unreadable output: {exc!r}")
    if len(lines) > len(records):
        failures.append(f"{len(lines) - len(records)} extra output lines")
    if rc != 0:
        failures.append(f"exit code {rc}")
    return len(records), failures


def _family_order(cmd: dict) -> int:
    if cmd["family"] == "conference":
        return cmd["q"]
    t = cmd["t"]
    return 4 * t * t + 4 * t + 2 + (cmd["family"] == "remark")


def check_construct(cmd: dict, rc: Optional[int], stdout: str, cert: Optional[str]) -> Tuple[int, List[str]]:
    problems = []
    try:
        c = _one_json(cert or "")
        n, m = graph6_order_size(stdout.strip())
        if (n, m) != (_family_order(cmd), c["m"]) or c["n"] != n:
            problems.append(f"graph6 has (n, m) = {(n, m)}, certificate {(c['n'], c['m'])}")
        if cmd["family"] != "remark" and c.get("params_verified") is not True:
            problems.append("params_verified is not true")
        if c.get("spectrum_matches") is not True:
            problems.append("spectrum_matches is not true")
        if cmd["family"] == "extremal":
            t = cmd["t"]
            want = 2.0 * (2 * t ** 3 + 4 * t ** 2 + 3 * t + 1)
            if not _close(c["he"], want):
                problems.append(f"he {c['he']!r} != 2(2t^3+4t^2+3t+1) = {want}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable construct output: {exc!r}"]
    if rc != 0:
        problems.append(f"exit code {rc}")
    return 1, ["; ".join(problems)] if problems else []


def order_bound(n: int) -> float:
    """Closed-form order-only bound: (n/2)(1 + sqrt(n-1)) for even n,
    (n/2)(1 + sqrt(n) - 1/sqrt(n)) for odd n."""
    if n % 2 == 0:
        return n / 2 * (1 + math.sqrt(n - 1))
    return n / 2 * (1 + math.sqrt(n) - 1 / math.sqrt(n))


def check_bound(cmd: dict, rc: Optional[int], stdout: str, cert: Optional[str]) -> Tuple[int, List[str]]:
    problems = []
    try:
        out = _one_json(stdout)
        if out["n"] != cmd["n"] or not _close(out["order_bound"], order_bound(cmd["n"])):
            problems.append(f"order_bound {out['order_bound']!r} != closed form {order_bound(cmd['n'])!r}")
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable bound output: {exc!r}"]
    if rc != 0:
        problems.append(f"exit code {rc}")
    return 1, ["; ".join(problems)] if problems else []


CHECKERS = {
    "verify_labeled": check_verify_labeled,
    "verify_corpus": check_verify_corpus,
    "analyze": check_analyze,
    "construct": check_construct,
    "bound": check_bound,
}
