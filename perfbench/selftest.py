"""Self-test of the benchmark at toy size (labeled order 5, a 200-record
corpus, t = 1 with one small scan).  Finishes in well under a minute:

    python3 perfbench/selftest.py

It shows that every workload passes its checks traced and untraced with
identical output, that each correctness checker rejects a deliberately
corrupted output, that the tracer leaves nothing wrapped and its self times
add up to the span totals, and that the benchmark refuses to run without a
package to measure.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import types

import checks
import inputs
import passrun
import run
import tracer as tracing

WORK = os.path.join(run.WORK, "selftest")
FAILED: list = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILED.append(what)


def _edit_json(text: str, edit) -> str:
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj) + "\n"


def _rejects(cmd, rc, stdout, cert) -> bool:
    return bool(checks.CHECKERS[cmd["kind"]](cmd, rc, stdout, cert)[1])


def _drop_edge(g6_line: str) -> str:
    """Clear one set bit of a graph6 record (header left alone)."""
    text = g6_line.strip()
    k = max(i for i in range(1, len(text)) if text[i] != "?")
    g = ord(text[k]) - 63
    return text[:k] + chr(63 + (g & (g - 1))) + text[k + 1:] + "\n"


def _corruptions(kind: str, stdout: str, cert):
    """(label, stdout, cert, rc) variants of one good output, each wrong."""
    def rep(edit):
        return lambda o: edit(o["reports"][0])

    out = [("exit code 1", stdout, cert, 1)]
    if kind in ("verify_labeled", "verify_corpus"):
        out += [
            ("graph_count off by one", _edit_json(stdout, rep(lambda r: r.update(graph_count=r["graph_count"] - 1))), cert, 0),
            ("a violation", _edit_json(stdout, rep(lambda r: r.update(violations=1))), cert, 0),
            ("lower witness missing", _edit_json(stdout, rep(lambda r: r["witness_counts"].update(
                lower=r["witness_counts"]["lower"] - 1))), cert, 0),
            ("tally not adding up", _edit_json(stdout, rep(lambda r: r["checks"]["upper_n"].update(
                holds=r["checks"]["upper_n"]["holds"] - 1))), cert, 0),
        ]
    elif kind == "analyze":
        lines = stdout.splitlines()
        row = json.loads(lines[3])
        row["huckel"] *= 1 + 1e-6
        out.append(("huckel off by 1e-6", "\n".join(lines[:3] + [json.dumps(row)] + lines[4:]) + "\n", cert, 0))
        row = json.loads(lines[5])
        row["graph6"] = json.loads(lines[6])["graph6"]
        out.append(("wrong echo", "\n".join(lines[:5] + [json.dumps(row)] + lines[6:]) + "\n", cert, 0))
        out.append(("record dropped", "\n".join(lines[:-1]) + "\n", cert, 0))
    elif kind == "construct":
        out += [
            ("params_verified false", stdout, _edit_json(cert, lambda c: c.update(params_verified=False)), 0),
            ("spectrum_matches false", stdout, _edit_json(cert, lambda c: c.update(spectrum_matches=False)), 0),
            ("he off", stdout, _edit_json(cert, lambda c: c.update(he=c["he"] + 1e-6)), 0),
            ("edge dropped", _drop_edge(stdout), cert, 0),
        ]
    elif kind == "bound":
        out.append(("order_bound off", _edit_json(stdout, lambda o: o.update(order_bound=o["order_bound"] * (1 + 1e-6))),
                    cert, 0))
    return out


def test_passes_and_checkers() -> None:
    cli = passrun.import_cli(run.SRC)
    targets = [(cli, "main"), (cli, "parse_graph6"), (sys.modules["huckel.sweep"], "write_graph6"),
               (sys.modules["huckel.graphs"].Graph, "dense"), (sys.modules["huckel.gf"].FiniteField, "add")]
    import numpy

    targets.append((numpy.linalg, "eigvalsh"))
    before = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in targets]
    for workload in inputs.WORKLOADS:
        spec = inputs.make_spec(workload, 7, WORK, "toy")
        plain, outputs = passrun.run_pass(spec, run.SRC, f"{workload}-plain")
        spans_path = os.path.join(WORK, f"{workload}.spans.jsonl")
        traced, _ = passrun.run_pass(spec, run.SRC, f"{workload}-traced", spans_path)
        expect(plain["failed"] == 0 and traced["failed"] == 0 and plain["ops"] > 0,
               f"{workload}: toy pass passes its checks traced and untraced")
        expect(plain["digest"] == traced["digest"], f"{workload}: traced output equals untraced output")
        after = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in targets]
        expect(all(x is y for x, y in zip(before, after)), f"{workload}: tracer restored every wrapped function")
        _check_spans(workload, spans_path, traced)

        kinds_seen = set()
        for cmd, rc, stdout, cert in outputs:
            if cmd["kind"] in kinds_seen:
                continue
            kinds_seen.add(cmd["kind"])
            expect(not _rejects(cmd, rc, stdout, cert), f"{cmd['kind']}: checker accepts the real output")
            for label, bad_out, bad_cert, bad_rc in _corruptions(cmd["kind"], stdout, cert):
                expect(_rejects(cmd, bad_rc, bad_out, bad_cert), f"{cmd['kind']}: checker rejects {label}")
        if workload == "corpus":
            cmd, rc, stdout, cert = outputs[0]
            wrong = copy.deepcopy(cmd)
            wrong["star_count"] += 1
            expect(_rejects(wrong, rc, stdout, cert), "verify_corpus: checker rejects a wrong star count")


def _check_spans(workload: str, path: str, result: dict) -> None:
    t = tracing.Tracer.load(path)
    roots = sum(end - start for _, _, start, end, parent in t.spans if parent < 0)
    selfs = t.self_times()
    expect(t.run_id == f"{workload}-traced" and len(t.spans) == result["spans"],
           f"{workload}: {len(t.spans)} spans written with their run id")
    expect(abs(sum(selfs) + sum(t.light.values()) - roots) <= 1e-9 * max(1.0, roots) and min(selfs) > -1e-9,
           f"{workload}: self times add up to the root span totals")
    layers = {s[1] for s in t.spans} | set(t.light)
    expect(abs(sum(t.layer_self(lay) for lay in layers) - roots) <= 1e-9 * max(1.0, roots),
           f"{workload}: per-layer self times add up to the root span totals")


def test_tracer_nesting() -> None:
    ns = types.SimpleNamespace()
    ns.leaf = lambda x: x + 1
    ns.pair = lambda x: ns.leaf(x) + ns.leaf(x)
    ns.inner = lambda x: sum(range(x)) + ns.pair(x)
    ns.outer = lambda x: ns.inner(x) + ns.inner(x)
    originals = dict(vars(ns))
    t = tracing.Tracer("nest")
    t.span(ns, "inner", "b", "inner")
    t.span(ns, "outer", "a", "outer")
    t.count(ns, "pair", "ops", layer="c")
    t.count(ns, "leaf", "ops", layer="c")
    ns.outer(20000)
    t.uninstall()
    (o, _, os_, oe, op), (i1, _, s1, e1, p1), (i2, _, s2, e2, p2) = t.spans
    selfs = t.self_times()
    expect((o, i1, i2, op, p1, p2) == ("outer", "inner", "inner", -1, 0, 0), "tracer: nested spans link to their parent")
    expect(abs(selfs[0] - ((oe - os_) - (e1 - s1) - (e2 - s2))) < 1e-12, "tracer: self time is duration minus children")
    expect(abs(t.layer_busy("a") - (oe - os_)) < 1e-12 and abs(t.layer_busy("b") - (e1 - s1) - (e2 - s2)) < 1e-12,
           "tracer: layer busy time sums its outermost spans")
    expect(t.all_counts()["ops"] == 6 and t.light["c"] > 0 and abs(sum(selfs) + t.light["c"] - (oe - os_)) < 1e-12,
           "tracer: counted calls are charged to their layer, not to the enclosing span")
    expect(all(getattr(ns, k) is v for k, v in originals.items()), "tracer: uninstall restores every function")


def test_measure() -> None:
    for workload in inputs.WORKLOADS:
        for trace in (False, True):
            res = run.measure(workload, 3, 0.0, trace, "toy")
            names = set(tracing.LAYER_METRICS) if trace else set(run.END_TO_END)
            expect(res["correct"] and set(res["metrics"]) == names
                   and all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
                   f"{workload} trace={int(trace)}: run reports every metric and passes")


def test_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect({w["name"] for w in bench["workloads"]} == set(inputs.WORKLOADS), "BENCHMARK.json lists the workloads")
    for key, code in (("end_to_end", run.END_TO_END), ("per_layer", tracing.LAYER_METRICS)):
        expect({m["name"]: m["unit"] for m in bench[key]} == code, f"BENCHMARK.json {key} names and units match the code")


def test_refuses_without_package() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, name), os.path.join(bare, "perfbench"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run, and prints no result, without src/")
    shutil.rmtree(bare)


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    test_tracer_nesting()
    test_passes_and_checkers()
    test_measure()
    test_benchmark_json()
    test_refuses_without_package()
    print(f"{len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
