"""A toy-size pass of each benchmark workload, judged by perfbench's own
output checkers: a change that breaks what the benchmark checks fails here,
and not only in a benchmark run."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["labeled7", "corpus", "certify"])
def test_toy_pass_passes_the_benchmark_checks(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # also undoes the pass's own sys.path entry
    inputs, passrun = (importlib.import_module(name) for name in ("inputs", "passrun"))
    spec = inputs.make_spec(workload, 7, str(tmp_path), scale="toy")
    result, _ = passrun.run_pass(spec, str(ROOT / "src"), f"{workload}-toy")
    assert result["errors"] == []
    assert result["failed"] == 0, result["failures"]
    assert result["ops"] > 0
