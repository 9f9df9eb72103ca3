"""Seeded workload inputs and the specs that describe one workload pass.

Nothing here imports huckel.  Graphs come from the benchmark's own numpy RNG
stream (PCG64 seeded with the benchmark seed) and are written with the
graph6 encoder below, so a change to huckel's codec cannot change the inputs.

Workloads (all serial, one caller, each pass in a fresh interpreter):

- labeled7: ``verify --n 7`` sweeps all 2,097,152 labeled 7-vertex graphs.
  The paper's headline verification; nearly all time is in the sweep layer
  (batched eigvalsh, mask->adjacency build, connectivity).  The sweep is
  exhaustive, so the seed changes nothing but the record.
- corpus: ``verify --corpus`` on ~50k seeded graph6 records of order 8-20 with
  edge density uniform on [0, 1], plus planted stars and random trees.  Stresses
  graph6 parsing and Graph.dense, and runs every check domain (isolated
  vertices, m = n-1 trees and connectivity, dense graphs).
- certify: the one-graph-at-a-time path: ``analyze`` on ~2k seeded records
  with n in 20-60, ``construct`` of every extremal/switched/remark family member
  with prime-power 2t+1 up to t = 12 plus conference graphs on q up to 401, and
  two ``bound --n`` scans near n = 1000 and 2000.  The only workload that runs
  gf, srg, constructions, the bound scan and per-graph eigh.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

WORKLOADS = ("labeled7", "corpus", "certify")

_W6 = np.array([32, 16, 8, 4, 2, 1], dtype=np.int64)

# Full-size and toy-size parameters.  Toy sizes back the self-test.
SIZES = {
    "full": {
        "labeled_n": 7,
        "corpus_records": 50_000,
        "corpus_orders": (8, 20),
        "corpus_trees": 500,
        "corpus_stars": (40, 60),
        "analyze_records": 2_000,
        "analyze_orders": (20, 60),
        "construct_t": (1, 2, 3, 4, 5, 6, 8, 9, 11, 12),
        "conference_q": (13, 25, 29, 49, 81, 101, 121, 169, 197, 289, 361, 401),
        "scan_n": (1000, 2000),
        "scan_jitter": 8,
    },
    "toy": {
        "labeled_n": 5,
        "corpus_records": 200,
        "corpus_orders": (8, 12),
        "corpus_trees": 5,
        "corpus_stars": (3, 6),
        "analyze_records": 20,
        "analyze_orders": (20, 30),
        "construct_t": (1,),
        "conference_q": (13,),
        "scan_n": (60,),
        "scan_jitter": 2,
    },
}


# ─── graph6, independent of huckel ──────────────────────────────────────────


def _pair_index(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(i, j) with i < j in graph6 bit order: (0,1), (0,2), (1,2), (0,3), ..."""
    j, i = np.tril_indices(n, -1)
    return i, j


def encode_graph6(n: int, bits: np.ndarray) -> str:
    """Short-form graph6 (n <= 62) from the upper-triangle bits in graph6 order."""
    if not 0 <= n <= 62:
        raise ValueError(f"n={n} outside the short graph6 form")
    bits = np.asarray(bits, dtype=np.int64)
    pad = (-len(bits)) % 6
    groups = np.concatenate([bits, np.zeros(pad, dtype=np.int64)]).reshape(-1, 6) @ _W6
    return chr(63 + n) + bytes((groups + 63).astype(np.uint8)).decode("ascii")


def decode_graph6(text: str) -> np.ndarray:
    """Adjacency matrix (float64) of a short-form graph6 record."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"not a short-form graph6 record: {text[:8]!r}")
    body = np.frombuffer(text[1:].encode("ascii"), dtype=np.uint8) - 63
    bits = np.unpackbits(body[:, None], axis=1)[:, 2:].ravel()
    npairs = n * (n - 1) // 2
    if len(body) != (npairs + 5) // 6 or bits[npairs:].any():
        raise ValueError(f"malformed graph6 body: {text[:8]!r}")
    i, j = _pair_index(n)
    a = np.zeros((n, n))
    a[i, j] = bits[:npairs]
    a[j, i] = bits[:npairs]
    return a


def graph6_order_size(text: str) -> Tuple[int, int]:
    """(n, m) of a graph6 record, short or long form, without decoding rows
    (padding bits are zero, so m is the body's popcount)."""
    if text[0] == "~":
        n = ((ord(text[1]) - 63) << 12) | ((ord(text[2]) - 63) << 6) | (ord(text[3]) - 63)
        body = text[4:]
    else:
        n, body = ord(text[0]) - 63, text[1:]
    m = int(np.unpackbits(np.frombuffer(body.encode("ascii"), dtype=np.uint8) - 63).sum())
    return n, m


def huckel_energy(a: np.ndarray) -> float:
    """HE from the benchmark's own eigensolve: twice the top floor(n/2)
    eigenvalues, plus the median one when n is odd."""
    w = np.linalg.eigvalsh(a)[::-1]
    r = len(w) // 2
    return float(2.0 * w[:r].sum() + (w[r] if len(w) % 2 else 0.0))


# ─── seeded graph families ──────────────────────────────────────────────────


def _random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.random()
    return (rng.random(n * (n - 1) // 2) < p).astype(np.int64)


def _edge_bits(n: int, edges) -> np.ndarray:
    bits = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    return bits


def _star_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    c = int(rng.integers(n))
    return _edge_bits(n, [(c, v) for v in range(n) if v != c])


def _tree_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random labeled tree from a Pruefer sequence."""
    seq = [int(x) for x in rng.integers(n, size=n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [k for k in range(n) if degree[k] == 1]
    edges.append((u, v))
    return _edge_bits(n, edges)


def _is_star(n: int, bits: np.ndarray) -> bool:
    if int(bits.sum()) != n - 1:
        return False
    i, j = _pair_index(n)
    deg = np.bincount(i, weights=bits, minlength=n) + np.bincount(j, weights=bits, minlength=n)
    return bool(deg.max() == n - 1)


def make_corpus(seed: int, size: dict) -> Tuple[List[str], dict]:
    """Corpus records plus the facts the checker needs: per-order counts and
    the number of stars (planted or by chance)."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    lo, hi = size["corpus_orders"]
    stars = int(rng.integers(size["corpus_stars"][0], size["corpus_stars"][1] + 1))
    trees = size["corpus_trees"]
    kinds = np.array(["random"] * (size["corpus_records"] - stars - trees) + ["star"] * stars + ["tree"] * trees)
    kinds = kinds[rng.permutation(len(kinds))]
    make = {"random": _random_bits, "star": _star_bits, "tree": _tree_bits}
    records, counts, star_count = [], {}, 0
    for kind in kinds:
        n = int(rng.integers(lo, hi + 1))
        bits = make[kind](rng, n)
        records.append(encode_graph6(n, bits))
        counts[n] = counts.get(n, 0) + 1
        star_count += _is_star(n, bits)
    facts = {
        "records": len(records),
        "orders": [lo, hi],
        "density": "uniform on [0, 1] per random record",
        "planted_stars": stars,
        "planted_trees": trees,
        "star_count": star_count,
        "order_counts": {str(n): c for n, c in sorted(counts.items())},
    }
    return records, facts


def make_analyze(seed: int, size: dict) -> List[str]:
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    lo, hi = size["analyze_orders"]
    return [
        encode_graph6(n, _random_bits(rng, n))
        for n in (int(x) for x in rng.integers(lo, hi + 1, size=size["analyze_records"]))
    ]


# ─── pass specs ─────────────────────────────────────────────────────────────


def _write_lines(path: str, lines: List[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def make_spec(workload: str, seed: int, work: str, scale: str = "full") -> Dict:
    """Write the workload's seeded inputs under work/ and return the pass spec:
    the CLI commands to run, in order, with what each output must satisfy."""
    size = SIZES[scale]
    os.makedirs(work, exist_ok=True)
    tag = f"{workload}-{scale}-s{seed}"
    commands: List[dict] = []
    facts: dict = {}
    if workload == "labeled7":
        n = size["labeled_n"]
        commands.append({"kind": "verify_labeled", "argv": ["verify", "--n", str(n), "--jobs", "1"], "n": n,
                         "items": 1 << (n * (n - 1) // 2)})
        facts = {"n": n, "note": "exhaustive sweep; the seed selects nothing"}
    elif workload == "corpus":
        records, facts = make_corpus(seed, size)
        path = os.path.join(work, f"{tag}.g6")
        _write_lines(path, records)
        commands.append({"kind": "verify_corpus", "argv": ["verify", "--corpus", path], "items": len(records),
                         "order_counts": facts["order_counts"], "star_count": facts["star_count"]})
    elif workload == "certify":
        records = make_analyze(seed, size)
        path = os.path.join(work, f"{tag}-analyze.g6")
        _write_lines(path, records)
        commands.append({"kind": "analyze", "argv": ["analyze"], "stdin": path, "items": len(records)})
        cert = os.path.join(work, f"{tag}-cert.json")
        for t in size["construct_t"]:
            for family in ("extremal", "switched", "remark"):
                commands.append({"kind": "construct", "argv": ["construct", family, "--t", str(t), "--cert", cert],
                                 "family": family, "t": t, "cert": cert, "items": 1})
        for q in size["conference_q"]:
            commands.append({"kind": "construct", "argv": ["construct", "conference", "--q", str(q), "--cert", cert],
                             "family": "conference", "q": q, "cert": cert, "items": 1})
        rng = np.random.Generator(np.random.PCG64([seed, 3]))
        jitter = size["scan_jitter"]
        scans = [base + int(rng.integers(-jitter, jitter + 1)) for base in size["scan_n"]]
        for n in scans:
            commands.append({"kind": "bound", "argv": ["bound", "--n", str(n)], "n": n, "items": 1})
        facts = {
            "analyze_records": len(records),
            "analyze_orders": list(size["analyze_orders"]),
            "density": "uniform on [0, 1] per record",
            "construct_t": list(size["construct_t"]),
            "conference_q": list(size["conference_q"]),
            "scan_n": scans,
        }
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, "scale": scale, "commands": commands, "inputs": facts}
