"""One pass of a workload: every command of the spec, in order, through
``huckel.cli.main(argv)`` in this process, with stdin and stdout replaced.

Run as a script it is the fresh interpreter of one pass and prints one JSON
object: ``python3 perfbench/passrun.py SPEC.json SRC_DIR RUN_ID [SPANS_PATH]``.
A SPANS_PATH turns the tracer on and names the file its spans go to.

The timed region covers the commands only; reading inputs before it and the
correctness checks after it are not timed.  Record latency is taken from
outside the program: for ``analyze``, from the moment the CLI pulls a line
from stdin to the moment it writes that record's newline; for ``verify``,
from the start of the command to the newline of its one report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter
from typing import List, Optional

import checks


class _Capture(io.TextIOBase):
    """A stdout that keeps what is written and the time of each newline."""

    def __init__(self):
        self.parts: List[str] = []
        self.line_ends: List[float] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.parts.append(s)
        k = s.count("\n")
        if k:
            self.line_ends.extend([perf_counter()] * k)
        return len(s)

    def getvalue(self) -> str:
        return "".join(self.parts)


class _TimedLines:
    """A stdin that hands out prepared lines and notes when each is read."""

    def __init__(self, lines: List[str]):
        self._lines = iter(lines)
        self.read_at: List[float] = []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line = next(self._lines)
        self.read_at.append(perf_counter())
        return line


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def import_cli(src: str):
    """Import huckel.cli from src, refusing any other copy of the package."""
    sys.path.insert(0, src)
    import huckel.cli as cli

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"huckel imported from {where}, not from {src}")
    return cli


def _run_command(main, cmd: dict, stdin_lines: Optional[List[str]]):
    out, err = _Capture(), io.StringIO()
    feed = _TimedLines(stdin_lines) if stdin_lines is not None else None
    saved_stdin = sys.stdin
    error = None
    started = perf_counter()
    try:
        if feed is not None:
            sys.stdin = feed
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(cmd["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc, error = None, traceback.format_exc(limit=4)
    finally:
        sys.stdin = saved_stdin
    if feed is not None:
        latencies = [w - r for r, w in zip(feed.read_at, out.line_ends)]
    elif cmd["kind"].startswith("verify") and out.line_ends:
        latencies = [out.line_ends[0] - started]
    else:
        latencies = []
    return rc, out.getvalue(), err.getvalue(), error, latencies


def run_pass(spec: dict, src: str, run_id: str, spans_path: Optional[str] = None):
    """Run one pass; returns (result, outputs) with outputs a list of
    (command, exit code, stdout, certificate text) for the checks."""
    cli = import_cli(src)
    stdin = {}
    for cmd in spec["commands"]:
        if cmd.get("stdin"):
            with open(cmd["stdin"], "r", encoding="ascii") as fh:
                stdin[cmd["stdin"]] = fh.read().splitlines(keepends=True)
    tracer = None
    main = cli.main
    if spans_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer(run_id)
        main = tracing.install(tracer)

    outputs, errors, latencies = [], [], []
    try:
        cpu0, wall0 = _cpu_s(), perf_counter()
        for cmd in spec["commands"]:
            rc, stdout, stderr, error, lat = _run_command(main, cmd, stdin.get(cmd.get("stdin")))
            cert = None
            if cmd.get("cert") and os.path.exists(cmd["cert"]):
                with open(cmd["cert"], "r", encoding="ascii") as fh:
                    cert = fh.read()
                os.remove(cmd["cert"])
            outputs.append((cmd, rc, stdout, cert))
            latencies += lat
            if error or (rc != 0 and stderr):
                errors.append(f"{' '.join(cmd['argv'][:3])}: {error or stderr.strip()}")
        wall, cpu = perf_counter() - wall0, _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops, failures, digest, bytes_out = 0, [], hashlib.sha256(), 0
    for cmd, rc, stdout, cert in outputs:
        k, bad = checks.CHECKERS[cmd["kind"]](cmd, rc, stdout, cert)
        ops += k
        failures += bad
        digest.update(json.dumps([cmd["argv"], rc, stdout, cert]).encode())
        bytes_out += len(stdout.encode()) + len((cert or "").encode())

    result = {
        "run_id": run_id,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "items": sum(cmd["items"] for cmd in spec["commands"]),
        "ops": ops,
        "failed": len(failures),
        "failures": failures[:20],
        "errors": errors[:20],
        "latencies_ms": [1e3 * x for x in latencies],
        "digest": digest.hexdigest(),
        "traced": tracer is not None,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.bytes_out"] = bytes_out
        result["layers"] = layers
        result["kernel_sizes"] = {k: {str(n): c for n, c in sorted(v.items())} for k, v in tracer.sizes.items()}
        result["spans"] = len(tracer.spans)
        tracer.dump(spans_path)
    return result, outputs


def main(argv: List[str]) -> int:
    spec_path, src, run_id = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    with open(spec_path, "r", encoding="ascii") as fh:
        spec = json.load(fh)
    result, _ = run_pass(spec, src, run_id, spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
