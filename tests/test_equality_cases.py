"""The equality cases of the paper's bounds, read from the exhaustive goldens.

Each tests/golden/verify_n*.stdout lists, per check, every labeled graph of
order n that meets the check's bound within TIGHT_TOL: its equality
witnesses.  Here they are decoded from graph6 (no eigensolve) and compared,
as edge sets, with the graphs the paper's statements name.
"""

import json
import math
from pathlib import Path

import pytest

from huckel.graphs import decode_graph6, pair_order

GOLDEN = Path(__file__).resolve().parent / "golden"


def edge_set(record: str) -> frozenset:
    n, bits, _ = decode_graph6(record)
    return frozenset(pair for pair, bit in zip(pair_order(n), bits.tolist()) if bit)


def stars(n: int) -> set:
    """The n labeled stars K(1, n-1), one per center (K2 once at n = 2)."""
    return {frozenset((min(c, v), max(c, v)) for v in range(n) if v != c) for c in range(n)}


def perfect_matchings(vertices: tuple) -> set:
    """Every perfect matching of an even vertex tuple, as edge sets."""
    if not vertices:
        return {frozenset()}
    first, rest = vertices[0], vertices[1:]
    return {m | {(first, v)} for k, v in enumerate(rest) for m in perfect_matchings(rest[:k] + rest[k + 1:])}


def expected(n: int) -> dict:
    """check -> the set of witness edge sets the statements below predict."""
    return {
        # bounds.lower_bound: HE >= 2*sqrt(n-1) without isolated vertices,
        # attained exactly by the star (at n = 2 the star is K2).
        "lower": stars(n),
        # The even-order two-parameter bound is 0 at m = 0 and n at m = n/2,
        # so the empty graph (HE 0) and every perfect matching (spectrum +-1,
        # HE n) meet it: (n-1)!! matchings.  At odd n >= 3 the bound is
        # asserted for m >= n-1 only, and there it is strict (odd_strict).
        "upper_nm": {frozenset()} | perfect_matchings(tuple(range(n))) if n % 2 == 0 else set(),
        # PAPER.md: at even n both upper bounds are attained iff G is strongly
        # regular with (n, k, lambda, mu) = (4t^2+4t+2, 2t^2+3t+1, t^2+2t,
        # t^2+2t+1); the first order with t >= 1 is 10.  t = 0 gives
        # (2, 1, 0, 1), which is K2, the one witness at n = 2.
        "upper_n": {frozenset({(0, 1)})} if n == 2 else set(),
        # The odd-order two-parameter bound is strict for m >= n-1.
        "odd_strict": set(),
    }


def problems(path: Path, n: int) -> list:
    """What in the report at path departs from expected(n)."""
    (rep,) = json.loads(path.read_text())["reports"]
    out = []
    for check, want in expected(n).items():
        listed = rep["equality_witnesses"][check]
        got = {edge_set(record) for record in listed}
        if rep["witness_counts"][check] != len(listed) or len(got) != len(listed):
            out.append(f"{check}: {rep['witness_counts'][check]} witnesses counted, {len(listed)} listed")
        if got != want:
            out.append(f"{check}: {len(got - want)} unexpected and {len(want - got)} missing witnesses")
    return out


def test_the_predicted_sets_have_their_sizes():
    for n in range(2, 9):
        assert len(stars(n)) == (1 if n == 2 else n)
        if n % 2 == 0:
            assert len(perfect_matchings(tuple(range(n)))) == math.prod(range(n - 1, 0, -2))
    assert [len(expected(n)["upper_nm"]) for n in (2, 4, 6, 8)] == [2, 4, 16, 106]


@pytest.mark.parametrize("n", range(2, 9))
def test_golden_witnesses_are_the_papers_equality_cases(n):
    assert problems(GOLDEN / f"verify_n{n}.stdout", n) == []


@pytest.mark.parametrize("check,change", [("lower", "add"), ("lower", "remove"), ("upper_nm", "add"),
                                          ("upper_nm", "remove"), ("upper_n", "add"), ("odd_strict", "add")])
def test_a_golden_with_one_witness_added_or_removed_fails(check, change, tmp_path):
    n = 6
    report = json.loads((GOLDEN / f"verify_n{n}.stdout").read_text())
    rep = report["reports"][0]
    listed = rep["equality_witnesses"][check]
    if change == "remove":
        listed.pop()
    else:  # the 6-cycle, which meets none of these bounds
        listed.append("EhEG")
        listed.sort()
    rep["witness_counts"][check] = len(listed)
    copied = tmp_path / f"verify_n{n}.stdout"
    copied.write_text(json.dumps(report))
    assert problems(copied, n) != []
