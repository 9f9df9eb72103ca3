"""Command-line front end: analyze graph6 streams, construct the
strongly regular families, run verification sweeps, and tabulate bounds.

All outputs are JSON with sorted keys and floats at 12 significant digits.
Exit codes: 0 success, 1 verification violations, 2 usage, parse or I/O errors.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from typing import Optional, Sequence

from .bounds import (
    bound_report,
    classify_equality,
    lower_bound,
    scan_order_bound,
    tight,
    upper_bound,
    upper_bound_applies,
    upper_bound_order,
    violated,
)
from .constructions import (
    ConstructionError,
    build_extremal_srg,
    build_remark_graph,
    build_switched_srg,
    conference_he_closed_form,
    paley_graph,
    verify_remark_spectrum,
)
# parse_graph6 is not called here: it stays bound for perfbench's tracer, which wraps it here.
from .graphs import Graph6Error, decode_graph6, graph6_records, pair_batch, parse_graph6, write_graph6  # noqa: F401
from .spectra import TIGHT_TOL, VIOLATION_TOL, eigenvalues, energy_values, group_spectrum
from .srg import (
    extremal_family_params,
    predicted_extremal_he,
    predicted_spectrum,
    srg_params,
    switched_family_params,
)
from .sweep import ALL_CHECKS, corpus_records, sweep, sweep_labeled

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [float(f"{v:.12g}") if isinstance(v, float) else _round12(v) for v in obj]
    return obj


def _emit(obj, fh=None) -> None:
    print(json.dumps(_round12(obj), sort_keys=True), file=fh or sys.stdout)


def _analyze_record(record: tuple, tol: float) -> dict:
    """The analyze line of one (n, pair bits, graph6) record from decode_graph6."""
    n, bits, g6 = record
    a = pair_batch(n, bits[None])[0]
    spec = eigenvalues(a)
    report = bound_report(a, spectrum=spec)
    ev = report.energies
    params = srg_params(a)
    return {
        "graph6": g6,
        "n": n,
        "m": report.m,
        "spectrum": spec.values.tolist(),
        "residual": spec.residual,
        "energy": ev.energy,
        "huckel": ev.huckel,
        "alpha": ev.alpha,
        "beta": ev.beta,
        "has_isolated": report.has_isolated,
        "bounds": {
            "upper_nm": report.upper_nm,
            "upper_nm_regime": report.upper_nm_regime,
            "upper_nm_applies": report.upper_nm_applies,
            "upper_n": report.upper_n,
            "lower": report.lower,
            "lower_applies": report.lower_applies,
            "f1": report.inter_f1,
            "f2": report.inter_f2,
        },
        "lemma1": report.lemma1,
        "slack_upper": report.slack_upper,
        "slack_lower": report.slack_lower,
        "equality_tags": sorted(classify_equality(report, tol)),
        "srg": list(params.as_tuple()) if params else None,
    }


def _cmd_analyze(args) -> int:
    if args.file and args.file != "-":
        fh = open(args.file, "r", encoding="latin-1")
        release = fh.close
    elif hasattr(sys.stdin, "buffer"):
        # stdin's bytes are read as latin-1 like a file's, so a non-ASCII
        # byte reaches the parser as itself; detaching leaves stdin open.
        fh = io.TextIOWrapper(sys.stdin.buffer, encoding="latin-1")
        release = fh.detach
    else:  # a stdin with no byte buffer underneath is read as it is
        fh, release = sys.stdin, None
    try:
        for ln, record in graph6_records(fh):
            try:
                decoded = decode_graph6(record)
            except Graph6Error as exc:
                if args.skip_bad:
                    print(f"warning: line {ln} skipped: {exc}", file=sys.stderr)
                    continue
                print(f"error: line {ln}: {exc}", file=sys.stderr)
                return EXIT_USAGE
            _emit(_analyze_record(decoded, args.tol))
    finally:
        if release is not None:
            release()
    return EXIT_OK


def _spectrum_match(spec, params) -> dict:
    predicted = predicted_spectrum(params)
    flat = [v for v, mult in predicted for _ in range(mult)]
    flat.sort(reverse=True)
    devs = [abs(float(c) - e) for c, e in zip(spec.values, flat)]
    max_dev = max(devs) if devs else 0.0
    return {
        "spectrum_predicted": [[v, mult] for v, mult in predicted],
        "spectrum_grouped": [[v, mult] for v, mult in group_spectrum(spec.values)],
        "max_spectrum_deviation": max_dev,
        "spectrum_matches": max_dev <= TIGHT_TOL,
    }


def _cmd_construct(args) -> int:
    family = args.family
    t = args.t
    q = args.q
    try:
        if family == "conference":
            if q is None or t is not None:
                raise ConstructionError("construct conference takes --q (a prime power, 1 mod 4) and no --t")
            g = paley_graph(q, adjacency="square")
            t_eff = (q - 1) // 4
            cert = {"family": family, "q": q, "t": t_eff}
        else:
            if t is None or q is not None:
                raise ConstructionError(f"construct {family} takes --t (a positive integer) and no --q")
            if family == "switched":
                g = build_switched_srg(t)
            elif family == "extremal":
                g = build_extremal_srg(t)
            else:
                g = build_remark_graph(t)
            cert = {"family": family, "t": t, "q": 2 * t + 1}
    except (ConstructionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    spec = eigenvalues(g)
    ev = energy_values(spec)
    he = ev.huckel
    cert.update({"n": g.n, "m": g.m, "he": he, "energy": ev.energy})
    if family in ("switched", "extremal"):  # the builder raised unless srg_params(g) equals these
        params = switched_family_params(t) if family == "switched" else extremal_family_params(t)
    else:
        params = srg_params(g)
    cert["params"] = list(params.as_tuple()) if params else None
    cert["upper_n"] = order = upper_bound_order(g.n)
    if family != "remark":
        value, regime = upper_bound(g.n, g.m)
        cert.update({"upper_nm": value, "upper_nm_regime": regime})

    if family == "conference":
        expected = (q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)
        cert["params_expected"] = list(expected)
        cert["params_verified"] = params is not None and params.as_tuple() == expected
        if params:
            cert.update(_spectrum_match(spec, params))
        stated = conference_he_closed_form(cert["t"])
        cert["he_closed_form_stated"] = stated
        cert["closed_form_consistent"] = bool(tight(he - stated, stated))
        cert["closed_form_discrepancy"] = he - stated
        cert["lower"] = lower = lower_bound(g.n)
        cert["upper_nm_satisfied"] = not violated(value - he, value)
        cert["upper_n_satisfied"] = not violated(order - he, order)
        cert["lower_satisfied"] = not violated(he - lower, lower)
    elif family in ("switched", "extremal"):
        cert["params_expected"] = list(params.as_tuple())
        cert["params_verified"] = True
        cert.update(_spectrum_match(spec, params))
        cert["slack_upper_n"] = order - he
        cert["slack_upper_nm"] = value - he
        if family == "extremal":
            cert["he_predicted"] = predicted_extremal_he(t)
    else:  # remark
        rep = verify_remark_spectrum(g, t, spectrum=spec)
        cert["spectrum_matches"] = rep.matches
        cert["max_spectrum_deviation"] = rep.max_deviation
        cert["cubic_roots"] = list(rep.cubic_roots)
        cert["lambda3"] = rep.cubic_roots[2]
        cert["lambda3_threshold"] = threshold = -math.sqrt(2.0) * t
        cert["lambda3_below_threshold"] = rep.cubic_roots[2] < threshold
        estimate = 2.0 * (2 * t * t + 2 * t) * (t + 1) + 2.0 * math.sqrt(2.0) * t
        cert["he_lower_estimate"] = estimate
        cert["he_exceeds_estimate"] = he > estimate
        cert["slack_upper_n"] = order - he

    print(write_graph6(g))
    if args.cert:
        with open(args.cert, "w", encoding="ascii") as fh:
            _emit(cert, fh)
    return EXIT_OK


def _cmd_verify(args) -> int:
    checks = tuple(args.checks.split(",")) if args.checks else ALL_CHECKS
    try:
        if args.n is not None:
            jobs = 1 if args.jobs is None else args.jobs
            reports = [sweep_labeled(args.n, checks=checks, tol=args.tol, jobs=jobs, dump_path=args.dump)]
        elif args.jobs is not None:
            raise ValueError("--jobs applies to --n only; a corpus is swept serially")
        else:
            graphs = corpus_records(args.corpus, on_error="skip" if args.skip_bad else "raise")
            reports = sweep(graphs, checks=checks, tol=args.tol, dump_path=args.dump)
    except (ValueError, Graph6Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    total = sum(r.total_violations for r in reports)
    _emit({
        "reports": [r.to_dict() for r in reports],
        "total_violations": total,
        "pass": total == 0,
    })
    return EXIT_OK if total == 0 else EXIT_VIOLATIONS


def _cmd_bound(args) -> int:
    try:
        if args.m is not None:
            value, regime = upper_bound(args.n, args.m)
            out = {
                "n": args.n,
                "m": args.m,
                "upper_nm": value,
                "regime": regime,
                "applies": upper_bound_applies(args.n, args.m),
                "upper_n": upper_bound_order(args.n),
            }
        else:
            out = scan_order_bound(args.n)
        out["lower"] = lower_bound(args.n) if args.n >= 2 else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(out)
    return EXIT_OK


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite, non-negative float."""
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="huckel",
        description="Graph energy and Huckel energy: spectra, bounds, sweeps, constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-graph spectra, energies, bounds (graph6 in, JSON lines out)")
    p.add_argument("file", nargs="?", default="-", help="graph6 file, one record per line (default stdin)")
    p.add_argument("--skip-bad", action="store_true", help="skip malformed records instead of failing")
    p.add_argument("--tol", type=_tolerance, default=TIGHT_TOL, help="equality-tag tolerance (relative)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct", help="build a named family member, graph6 to stdout")
    p.add_argument("family", choices=["extremal", "switched", "conference", "remark"])
    p.add_argument("--t", type=int, help="family index (extremal/switched/remark)")
    p.add_argument("--q", type=int, help="field order (conference)")
    p.add_argument("--cert", help="write a JSON certificate to this file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="sweep checks over an exhaustive order or a corpus")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="exhaustive sweep over all labeled graphs of this order (at most 8)")
    group.add_argument("--corpus", help="graph6 file to sweep")
    p.add_argument("--checks", help=f"comma-separated subset of: {','.join(ALL_CHECKS)}")
    p.add_argument("--jobs", type=int, help="worker processes for --n (default 1)")
    p.add_argument("--tol", type=_tolerance, default=VIOLATION_TOL, help="violation tolerance (relative)")
    p.add_argument("--dump", help="write per-graph CSV rows to this file (serial only)")
    p.add_argument("--skip-bad", action="store_true", help="skip malformed corpus records")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="bound values for (n, m), or the maximizing-m scan for n alone")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except OSError as exc:  # a file that cannot be read or written, a closed pipe, a full disk
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself failed: send what is left to devnull, so the exit flush is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
