"""Outside-in tracer for the huckel package.

The tracer replaces public functions where each huckel module binds them
(``huckel.cli.parse_graph6``, ``huckel.sweep.write_graph6``, ...), plus
``Graph.dense``, the ``FiniteField`` operations and ``numpy.linalg.eigvalsh``
and ``eigh``, with wrappers that record spans.  Nothing under ``src/`` is
edited, and an untraced pass never imports this module.

A span is ``[name, layer, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the root); all spans of one pass share ``run_id``.
Spans stay in memory until ``dump``.  A span's self time is its duration
minus the durations of its direct children.  Very hot calls are counted, not
spanned: the bound formula inside the scan only counted, the finite-field
operations also timed (outermost call only), with that time moved out of the
enclosing span's self time and into the gf layer.

Kernel counts are labeled "computed": they follow from the matrix sizes, not
from hardware counters.  eigvalsh is taken as (4/3) n^3 flops and eigh with
eigenvectors as 9 n^3 (Golub and Van Loan's symmetric-QR estimates); each
matrix hands 8 n^2 bytes to LAPACK.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional

EIGVALSH_FLOPS = 4.0 / 3.0
EIGH_FLOPS = 9.0

# Metric name -> unit, in the order the benchmark reports them.
LAYER_METRICS: Dict[str, str] = {
    "sweep.eigvalsh_s": "s",
    "sweep.eigvalsh_matrices": "count",
    "sweep.eigvalsh_flops": "flop-computed",
    "sweep.eigvalsh_bytes": "B-computed",
    "sweep.busy_s": "s",
    "sweep.self_s": "s",
    "sweep.graphs": "count",
    "sweep.batches": "count",
    "sweep.solver_failures": "count",
    "sweep.witnesses": "count",
    "graphs.parse_calls": "count",
    "graphs.parse_s": "s",
    "graphs.parse_bytes": "B",
    "graphs.dense_calls": "count",
    "graphs.dense_s": "s",
    "graphs.write_calls": "count",
    "graphs.write_s": "s",
    "graphs.write_bytes": "B",
    "spectra.eigenvalues_calls": "count",
    "spectra.eigenvalues_s": "s",
    "spectra.eigh_s": "s",
    "spectra.eigh_matrices": "count",
    "spectra.eigh_flops": "flop-computed",
    "spectra.eigh_bytes": "B-computed",
    "spectra.self_s": "s",
    "bounds.scan_calls": "count",
    "bounds.scan_s": "s",
    "bounds.report_calls": "count",
    "bounds.report_s": "s",
    "bounds.upper_bound_calls": "count",
    "srg.params_calls": "count",
    "srg.params_s": "s",
    "srg.detected": "count",
    "srg.detected_frac": "frac",
    "gf.make_field_calls": "count",
    "gf.make_field_s": "s",
    "gf.field_ops": "count",
    "gf.field_ops_s": "s",
    "constructions.build_calls": "count",
    "constructions.build_s": "s",
    "constructions.self_s": "s",
    "cli.commands": "count",
    "cli.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "cli.exit_nonzero": "count",
    "trace.overhead_frac": "frac",
}

FIELD_OPS = ("add", "neg", "sub", "mul", "inv", "pow", "is_square")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.sizes: Dict[str, collections.Counter] = {"eigvalsh": collections.Counter(), "eigh": collections.Counter()}
        # One-element lists, so the hot wrappers touch no dict per call.
        self._hot: Dict[str, list] = collections.defaultdict(lambda: [0])
        self._light: Dict[str, list] = collections.defaultdict(lambda: [0.0])
        self._depth: Dict[str, list] = collections.defaultdict(lambda: [0])
        self._light_in: Dict[int, float] = collections.defaultdict(float)
        self._open: List[int] = []
        self._patched: List[tuple] = []

    # ── wrapping ────────────────────────────────────────────────────────

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patched.append((owner, attr, original))

    def span(self, owner, attr: str, layer: str, name: str, note: Optional[Callable] = None) -> None:
        """Record a span around every call of owner.attr; note(tracer, args,
        result) adds counts after a call returns."""
        spans, open_ = self.spans, self._open

        def make(fn):
            def traced(*args, **kwargs):
                rec = [name, layer, 0.0, 0.0, open_[-1] if open_ else -1]
                open_.append(len(spans))
                spans.append(rec)
                rec[2] = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[3] = perf_counter()
                    open_.pop()
                if note is not None:
                    note(self, args, out)
                return out
            return traced

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, key: str, layer: Optional[str] = None) -> None:
        """Count calls of owner.attr without a span.  With a layer, also time
        the outermost of nested counted calls and charge it to that layer
        instead of the enclosing span."""
        calls, open_, light_in = self._hot[key], self._open, self._light_in
        if layer is None:
            def make(fn):
                def counted(*args, **kwargs):
                    calls[0] += 1
                    return fn(*args, **kwargs)
                return counted
            self._patch(owner, attr, make)
            return
        depth, light = self._depth[layer], self._light[layer]

        def make(fn):
            def timed(*args, **kwargs):
                calls[0] += 1
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = perf_counter() - start
                    depth[0] = 0
                    light[0] += took
                    light_in[open_[-1] if open_ else -1] += took
            return timed

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ── reporting ───────────────────────────────────────────────────────

    def self_times(self) -> List[float]:
        out = [end - start - self._light_in.get(k, 0.0) for k, (_, _, start, end, _) in enumerate(self.spans)]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_busy(self, layer: str) -> float:
        """Wall time inside the layer: spans with no enclosing span of it."""
        spans, total = self.spans, 0.0
        for name, lay, start, end, parent in spans:
            if lay != layer:
                continue
            while parent >= 0 and spans[parent][1] != layer:
                parent = spans[parent][4]
            if parent < 0:
                total += end - start
        return total

    def totals(self) -> Dict[str, list]:
        """name -> [calls, total seconds, self seconds], by 'layer.name'."""
        out: Dict[str, list] = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for (name, layer, start, end, _), own in zip(self.spans, self.self_times()):
            row = out[f"{layer}.{name}"]
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out

    def layer_self(self, layer: str) -> float:
        spans = sum(own for span, own in zip(self.spans, self.self_times()) if span[1] == layer)
        return spans + self.light.get(layer, 0.0)

    @property
    def light(self) -> Dict[str, float]:
        """Seconds in timed counted calls, by layer."""
        return {layer: cell[0] for layer, cell in self._light.items()}

    def all_counts(self) -> collections.Counter:
        return self.counts + collections.Counter({k: cell[0] for k, cell in self._hot.items()})

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics of LAYER_METRICS, except those the pass
        measures itself (cli.bytes_out, trace.overhead_frac)."""
        t, c = self.totals(), self.all_counts()
        srg_calls = t["srg.params"][0]
        return {
            "sweep.eigvalsh_s": t["sweep.eigvalsh"][1],
            "sweep.eigvalsh_matrices": c["eigvalsh_matrices"],
            "sweep.eigvalsh_flops": c["eigvalsh_flops"],
            "sweep.eigvalsh_bytes": c["eigvalsh_bytes"],
            "sweep.busy_s": self.layer_busy("sweep"),
            "sweep.self_s": t["sweep.sweep"][2] + t["sweep.sweep_labeled"][2],
            "sweep.graphs": c["sweep_graphs"],
            "sweep.batches": c["eigvalsh_batches"],
            "sweep.solver_failures": c["solver_failures"],
            "sweep.witnesses": c["witnesses"],
            "graphs.parse_calls": t["graphs.parse_graph6"][0],
            "graphs.parse_s": t["graphs.parse_graph6"][1],
            "graphs.parse_bytes": c["parse_bytes"],
            "graphs.dense_calls": t["graphs.dense"][0],
            "graphs.dense_s": t["graphs.dense"][1],
            "graphs.write_calls": t["graphs.write_graph6"][0],
            "graphs.write_s": t["graphs.write_graph6"][1],
            "graphs.write_bytes": c["write_bytes"],
            "spectra.eigenvalues_calls": t["spectra.eigenvalues"][0],
            "spectra.eigenvalues_s": t["spectra.eigenvalues"][1],
            "spectra.eigh_s": t["spectra.eigh"][1],
            "spectra.eigh_matrices": c["eigh_matrices"],
            "spectra.eigh_flops": c["eigh_flops"],
            "spectra.eigh_bytes": c["eigh_bytes"],
            "spectra.self_s": self.layer_self("spectra"),
            "bounds.scan_calls": t["bounds.scan_order_bound"][0],
            "bounds.scan_s": t["bounds.scan_order_bound"][1],
            "bounds.report_calls": t["bounds.bound_report"][0],
            "bounds.report_s": t["bounds.bound_report"][1],
            "bounds.upper_bound_calls": c["upper_bound"],
            "srg.params_calls": srg_calls,
            "srg.params_s": t["srg.params"][1],
            "srg.detected": c["srg_detected"],
            "srg.detected_frac": c["srg_detected"] / srg_calls if srg_calls else 0.0,
            "gf.make_field_calls": t["gf.make_field"][0],
            "gf.make_field_s": t["gf.make_field"][1],
            "gf.field_ops": c["field_ops"],
            "gf.field_ops_s": self.light.get("gf", 0.0),
            "constructions.build_calls": c["builds"],
            "constructions.build_s": self.layer_busy("constructions"),
            "constructions.self_s": self.layer_self("constructions"),
            "cli.commands": t["cli.main"][0],
            "cli.busy_s": t["cli.main"][1],
            "cli.self_s": t["cli.main"][2],
            "cli.exit_nonzero": c["exit_nonzero"],
        }

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: one header line, then one per span."""
        header = {
            "run_id": self.run_id,
            "fields": ["name", "layer", "start", "end", "parent"],
            "counts": dict(self.all_counts()),
            "sizes": {k: dict(v) for k, v in self.sizes.items()},
            "light": dict(self.light),
            "light_in": {str(k): v for k, v in self._light_in.items()},
        }
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """Read back what dump wrote."""
        with open(path, "r", encoding="ascii") as fh:
            header = json.loads(fh.readline())
            t = cls(header["run_id"])
            t.spans = [json.loads(line) for line in fh]
        t.counts.update(header["counts"])
        for layer, seconds in header["light"].items():
            t._light[layer][0] = seconds
        t._light_in.update({int(k): v for k, v in header["light_in"].items()})
        return t


# ── notes: counts taken from arguments and results ──────────────────────────


def _matrices(kind: str, flops_per_n3: float):
    def note(tr: Tracer, args, out) -> None:
        shape = args[0].shape
        n = shape[-1]
        batch = 1
        for d in shape[:-2]:
            batch *= d
        tr.counts[f"{kind}_matrices"] += batch
        tr.counts[f"{kind}_flops"] += batch * flops_per_n3 * n ** 3
        tr.counts[f"{kind}_bytes"] += batch * 8 * n * n
        tr.counts[f"{kind}_batches"] += len(shape) > 2
        tr.sizes[kind][n] += batch
    return note


def _sweep_reports(tr: Tracer, args, out) -> None:
    for rep in out if isinstance(out, list) else [out]:
        tr.counts["sweep_graphs"] += rep.graph_count
        tr.counts["solver_failures"] += len(rep.solver_failures)
        tr.counts["witnesses"] += sum(rep.witness_counts.values())


def _parse_bytes(tr: Tracer, args, out) -> None:
    tr.counts["parse_bytes"] += len(args[0])


def _write_bytes(tr: Tracer, args, out) -> None:
    tr.counts["write_bytes"] += len(out)


def _srg_detected(tr: Tracer, args, out) -> None:
    tr.counts["srg_detected"] += out is not None


def _upper_bound(tr: Tracer, args, out) -> None:
    tr.counts["upper_bound"] += 1


def _build(tr: Tracer, args, out) -> None:
    tr.counts["builds"] += 1


def _exit_code(tr: Tracer, args, out) -> None:
    tr.counts["exit_nonzero"] += out != 0


def install(tracer: Tracer):
    """Wrap huckel's public functions at their binding sites.  Returns the
    wrapped ``huckel.cli.main`` for the pass to call."""
    import numpy as np

    # import_module, not "import huckel.sweep as ...": the package re-exports
    # a function named sweep that shadows the submodule attribute.
    bounds, cli, constructions, gf, graphs, sweep = (
        importlib.import_module(f"huckel.{name}")
        for name in ("bounds", "cli", "constructions", "gf", "graphs", "sweep")
    )

    span = tracer.span
    # LAPACK kernels: batched eigvalsh belongs to sweep, per-graph eigh to spectra.
    span(np.linalg, "eigvalsh", "sweep", "eigvalsh", _matrices("eigvalsh", EIGVALSH_FLOPS))
    span(np.linalg, "eigh", "spectra", "eigh", _matrices("eigh", EIGH_FLOPS))
    span(cli, "sweep_labeled", "sweep", "sweep_labeled", _sweep_reports)
    span(cli, "sweep", "sweep", "sweep", _sweep_reports)
    for mod in (cli, sweep):
        span(mod, "parse_graph6", "graphs", "parse_graph6", _parse_bytes)
        span(mod, "write_graph6", "graphs", "write_graph6", _write_bytes)
        span(mod, "upper_bound", "bounds", "upper_bound", _upper_bound)
        span(mod, "lower_bound", "bounds", "lower_bound")
        span(mod, "upper_bound_order", "bounds", "upper_bound_order")
    span(sweep, "upper_bound_applies", "bounds", "upper_bound_applies")
    span(graphs.Graph, "dense", "graphs", "dense")
    for mod in (cli, bounds, constructions):
        span(mod, "eigenvalues", "spectra", "eigenvalues")
    for mod in (cli, bounds):
        span(mod, "energy_values", "spectra", "energy_values")
    span(cli, "group_spectrum", "spectra", "group_spectrum")
    span(cli, "bound_report", "bounds", "bound_report")
    span(cli, "classify_equality", "bounds", "classify_equality")
    span(cli, "scan_order_bound", "bounds", "scan_order_bound")
    # The scan and bound_report call the formula through huckel.bounds itself.
    tracer.count(bounds, "upper_bound", "upper_bound")
    for mod in (cli, constructions):
        span(mod, "srg_params", "srg", "params", _srg_detected)
    span(constructions, "make_field", "gf", "make_field")
    for op in FIELD_OPS:
        tracer.count(gf.FiniteField, op, "field_ops", layer="gf")
    for name in ("build_extremal_srg", "build_switched_srg", "build_remark_graph", "paley_graph"):
        span(cli, name, "constructions", name, _build)
    span(cli, "verify_remark_spectrum", "constructions", "verify_remark_spectrum")
    span(cli, "main", "cli", "main", _exit_code)
    return cli.main
