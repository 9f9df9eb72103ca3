"""A toy-size pass of each benchmark workload, untraced and traced, judged by
perfbench's own output checkers: a change that breaks what the benchmark
checks, or a report field the tracer reads, fails here, and not only in a
benchmark run."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["labeled7", "corpus", "certify"]


def _toy_pass(workload, monkeypatch, tmp_path, spans_path=None):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # also undoes the pass's own sys.path entry
    inputs, passrun = (importlib.import_module(name) for name in ("inputs", "passrun"))
    spec = inputs.make_spec(workload, 7, str(tmp_path), scale="toy")
    result, _ = passrun.run_pass(spec, str(ROOT / "src"), f"{workload}-toy", spans_path=spans_path)
    assert result["errors"] == []
    assert result["failed"] == 0, result["failures"]
    assert result["ops"] > 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_pass_passes_the_benchmark_checks(workload, monkeypatch, tmp_path):
    assert not _toy_pass(workload, monkeypatch, tmp_path)["traced"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_toy_pass_passes_the_benchmark_checks(workload, monkeypatch, tmp_path):
    result = _toy_pass(workload, monkeypatch, tmp_path, spans_path=str(tmp_path / "spans.jsonl"))
    assert result["traced"] and result["spans"] > 0
