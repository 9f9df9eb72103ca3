"""The huckel benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload labeled7|corpus|certify|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports the package from
``src/`` and from nowhere else, and writes only under ``perfbench/_work/``.

A run makes the workload's inputs from ``--seed`` (see ``inputs.py``), then
runs whole passes of the workload, each in a fresh interpreter (a closed loop
of one caller), while the next pass is expected to end within ``--seconds``.
BLAS is pinned to one thread.  Every output of every pass is checked; all
passes must also produce identical output.

``--trace 0`` reports the end-to-end metrics: medians over the passes of
wall and CPU time per pass, items per second and peak RSS; the median of
``SETUP_SAMPLES`` fresh-interpreter imports of ``huckel.cli`` plus
``build_parser()``; and the median and 99th percentile of per-record latency,
pooled over the passes.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of ``tracer.py`` (medians over traced
passes) and ``trace.overhead_frac``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the error rate, which is
kept out of ``metrics`` because it is 0 when the program is right.  A result
file with provenance goes to ``perfbench/_work/results/``.  Exit code: 0 when
every check passed, 1 when one failed, 2 when the run could not be made (no
package under ``src/``, a pass crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import monotonic
from typing import Dict, List

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("HUCKEL_JOBS", None)

import inputs  # noqa: E402  (after the BLAS pinning above)
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
PASSRUN = os.path.join(HERE, "passrun.py")

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s

END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "record_p50_ms": "ms",
    "record_p99_ms": "ms",
}

ITEM_UNITS = {
    "labeled7": "labeled graphs",
    "corpus": "corpus records",
    "certify": "analyze records + certificates + scans",
}

NOT_MEASURED = (
    "CPU pinning, page-cache dropping and --jobs wall-clock scaling are not measured: "
    "on 2 shared cores they would measure the scheduler, not the program."
)

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import huckel.cli\n"
    "huckel.cli.build_parser()\n"
    "print(time.perf_counter() - t, huckel.cli.__file__)\n"
)


class BenchError(RuntimeError):
    """The run could not be made."""


def _child(argv: List[str], deadline: float) -> str:
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {argv[1:3]}")
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_samples(deadline: float) -> List[float]:
    """Fresh-interpreter import of huckel.cli plus build_parser, timed inside
    the interpreter; one unreported warm-up run first."""
    out = []
    for k in range(SETUP_SAMPLES + 1):
        value, where = _child([sys.executable, "-c", _SETUP_CODE, SRC], deadline).split(" ", 1)
        if not os.path.realpath(where).startswith(os.path.realpath(SRC) + os.sep):
            raise BenchError(f"huckel imported from {where}, not from {SRC}")
        if k:
            out.append(float(value))
    return out


def _percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _timing(values: List[float]) -> dict:
    """Median, sample count, and the highest whole percentile with at least
    ten samples beyond it (absent below 20 samples)."""
    if not values:
        return None
    out = {"median": statistics.median(values), "samples": len(values)}
    pct = int(100 * (1 - 10 / len(values)))
    if pct >= 50:
        out[f"p{pct}"] = _percentile(values, pct)
    return out


def _why(workload: str):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            return next(w["why"] for w in json.load(fh)["workloads"] if w["name"] == workload)
    except (OSError, ValueError, KeyError, StopIteration):
        return None


def provenance(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            src_hash.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                src_hash.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "not_measured": NOT_MEASURED,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Make one run; returns the result with its metrics."""
    if not os.path.isfile(os.path.join(SRC, "huckel", "cli.py")):
        raise BenchError(f"no huckel package under {SRC}")
    started = monotonic()
    deadline = started + RUN_LIMIT_S
    spec = inputs.make_spec(workload, seed, WORK, scale)
    tag = f"{workload}-{scale}-s{seed}"
    spec_path = os.path.join(WORK, f"{tag}.spec.json")
    with open(spec_path, "w", encoding="ascii") as fh:
        json.dump(spec, fh)
    setup = [] if trace else setup_samples(deadline)

    # Whole passes only, and only while the next is expected to end in time.
    passes = []
    t0 = monotonic()
    while True:
        run_id = f"{tag}-p{len(passes)}"
        argv = [sys.executable, PASSRUN, spec_path, SRC, run_id]
        if trace and len(passes) % 2:
            argv.append(os.path.join(WORK, f"{tag}.spans.jsonl"))
        passes.append(json.loads(_child(argv, deadline)))
        elapsed = monotonic() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds and not (trace and len(passes) < 2):
            break

    digests = {p["digest"] for p in passes}
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes) + (len(passes) - 1 if len(digests) > 1 else 0)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace:
        metrics = {
            name: {"value": statistics.median(p["layers"][name] for p in traced), "unit": unit}
            for name, unit in tracer.LAYER_METRICS.items() if name != "trace.overhead_frac"
        }
        overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    else:
        # A pass that wrote no record (a crash) counts its whole duration.
        latencies = [x for p in passes for x in p["latencies_ms"]] or [1e3 * max(p["wall_s"] for p in passes)]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setup),
            "record_p50_ms": statistics.median(latencies),
            "record_p99_ms": _percentile(latencies, 99),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result)
    record.update({
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "run_s": monotonic() - started,
        "error_rate": failed / attempted if attempted else 1.0,
        "why": _why(workload),
        "items": {"per_pass": passes[0]["items"], "unit": ITEM_UNITS[workload]},
        "samples": {"passes": len(passes), "traced_passes": len(traced), "setup": len(setup),
                    "record_latencies": sum(len(p["latencies_ms"]) for p in passes)},
        "timings": {
            "wall_s": _timing([p["wall_s"] for p in plain]),
            "setup_s": _timing(setup),
            "record_ms": _timing([x for p in plain for x in p["latencies_ms"]]),
        },
        "identical_output": len(digests) == 1,
        "inputs": spec["inputs"],
        "provenance": provenance(seed),
        "passes": [{k: v for k, v in p.items() if k != "latencies_ms"} for p in passes],
        "setup_samples_s": setup,
    })
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{tag}-trace{int(trace)}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    result["record"] = record
    result["path"] = path
    return result


def _report(workload: str, res: dict) -> None:
    rec = res["record"]
    samples = rec["samples"]
    print(f"# {workload}: {samples['passes']} passes ({samples['traced_passes']} traced), "
          f"{samples['setup']} setup samples, {samples['record_latencies']} record latencies; "
          f"items are {rec['items']['unit']}, {rec['items']['per_pass']} per pass")
    for name, m in res["metrics"].items():
        print(f"{workload:9s} {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:9s} {'error_rate':28s} {rec['error_rate']:.6g} "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    for p in rec["passes"]:
        for msg in p["failures"] + p["errors"]:
            print(f"{workload:9s} FAILED {msg}")
    if not rec["identical_output"]:
        print(f"{workload:9s} FAILED passes produced different output")
    print(f"# result file: {os.path.relpath(res['path'], ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            _report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
