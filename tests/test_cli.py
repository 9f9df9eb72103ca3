"""End-to-end CLI behavior via in-process main(argv)."""

import csv
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from huckel.cli import main
from huckel.sweep import sweep_labeled


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_analyze_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    code, out, err = run(capsys, ["analyze"])
    assert code == 0 and err == ""
    (rec,) = json_lines(out)
    assert rec["graph6"] == "Bw"
    assert (rec["n"], rec["m"]) == (3, 3)
    assert rec["huckel"] == pytest.approx(3.0, abs=1e-9)
    assert rec["energy"] == pytest.approx(4.0, abs=1e-9)
    assert rec["alpha"] == pytest.approx(4.0, abs=1e-9)
    assert rec["beta"] == pytest.approx(-1.0, abs=1e-9)
    assert rec["spectrum"] == pytest.approx([2.0, -1.0, -1.0], abs=1e-9)
    assert rec["lemma1"] == "holds"
    assert rec["srg"] is None  # complete graphs are excluded by convention
    assert rec["equality_tags"] == []
    assert rec["bounds"]["upper_nm"] == pytest.approx(math.sqrt(10.0), abs=1e-9)
    assert rec["bounds"]["upper_nm_regime"] == "second"
    assert rec["bounds"]["upper_nm_applies"] is True
    assert not rec["has_isolated"]


def test_analyze_file_and_tags(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Ds_\nDhc\n\n")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 0
    star, pentagon = json_lines(out)
    assert star["equality_tags"] == ["lower_tight"]
    assert pentagon["srg"] == [5, 2, 0, 1]
    assert pentagon["huckel"] == pytest.approx(5.854101966250, abs=1e-9)
    # Both two-step refinements are tight on the 5-cycle.
    assert pentagon["bounds"]["f1"] == pytest.approx(pentagon["huckel"], abs=1e-6)
    assert pentagon["bounds"]["f2"] == pytest.approx(pentagon["huckel"], abs=1e-6)


def test_analyze_stdin_reads_latin1(capsys, monkeypatch):
    # A real stdin decodes by the locale; analyze reads its bytes instead.
    stdin = io.TextIOWrapper(io.BytesIO(b"Bw\nC\xc3~\n"), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, ["analyze", "--skip-bad"])
    assert code == 0
    assert "line 2 skipped" in err and "byte 195 at position 1" in err
    assert [rec["graph6"] for rec in json_lines(out)] == ["Bw"]
    assert not stdin.buffer.closed


def test_analyze_bad_record(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\n:sparse\nDhc\n")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert "line 2" in err
    code, out, err = run(capsys, ["analyze", str(path), "--skip-bad"])
    assert code == 0
    assert "line 2 skipped" in err
    assert [rec["graph6"] for rec in json_lines(out)] == ["Bw", "Dhc"]


def test_non_ascii_byte_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "latin.g6"
    path.write_bytes(b"Bw\nC\xc3~\nDhc\n")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert "line 2" in err and "byte 195 at position 1" in err
    code, out, err = run(capsys, ["analyze", str(path), "--skip-bad"])
    assert code == 0 and "line 2 skipped" in err
    assert [rec["graph6"] for rec in json_lines(out)] == ["Bw", "Dhc"]

    code, out, err = run(capsys, ["verify", "--corpus", str(path)])
    assert code == 2
    assert f"{path}:2:" in err and "byte 195 at position 1" in err
    code, out, err = run(capsys, ["verify", "--corpus", str(path), "--skip-bad"])
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [(rep["n"], rep["graph_count"]) for rep in reports] == [(3, 1), (5, 1)]


@pytest.mark.parametrize("command", [["verify", "--n", "3"], ["analyze"]])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "1e308", "1.5"])
def test_bad_tolerance_rejected(capsys, command, tol):
    with pytest.raises(SystemExit) as exc:
        main(command + [f"--tol={tol}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "tolerance must be finite and >= 0" in err
    assert "Warning" not in err


@pytest.mark.parametrize("command", [["verify", "--n", "3"], ["analyze"]])
def test_largest_tolerance_accepted(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    code, out, err = run(capsys, command + ["--tol=1"])
    assert code == 0 and err == ""


def test_analyze_missing_file(capsys):
    code, out, err = run(capsys, ["analyze", "/nonexistent/path.g6"])
    assert code == 2 and err.startswith("error:")


def test_verify_unreadable_corpus_and_unwritable_dump(capsys, tmp_path):
    for argv in (["verify", "--corpus", str(tmp_path / "none.g6")],
                 ["verify", "--n", "4", "--dump", str(tmp_path / "missing" / "d.csv")]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, argv


def test_construct_switched(capsys):
    code, out, err = run(capsys, ["construct", "switched", "--t", "1"])
    assert code == 0
    assert out.strip() == "ICOcYgww?"


def test_construct_extremal_cert(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, err = run(capsys, ["construct", "extremal", "--t", "1", "--cert", str(cert_path)])
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert cert["family"] == "extremal"
    assert cert["params"] == [10, 6, 3, 4]
    assert cert["params_verified"] is True
    assert cert["spectrum_matches"] is True
    assert cert["he"] == pytest.approx(20.0, abs=1e-9)
    assert cert["he_predicted"] == 20.0
    assert cert["slack_upper_n"] == pytest.approx(0.0, abs=1e-9)
    assert cert["slack_upper_nm"] == pytest.approx(0.0, abs=1e-9)
    # Certificate graph matches stdout.
    from huckel.graphs import parse_graph6
    from huckel.srg import srg_params

    assert srg_params(parse_graph6(out.strip())).as_tuple() == (10, 6, 3, 4)


def test_construct_conference_cert(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, err = run(capsys, ["construct", "conference", "--q", "5", "--cert", str(cert_path)])
    assert code == 0
    assert out.strip() == "Dhc"
    cert = json.loads(cert_path.read_text())
    assert cert["params_verified"] is True
    assert cert["he"] == pytest.approx(5.854101966250, abs=1e-9)
    # The stated closed form disagrees with the spectrum by exactly 1 here;
    # it is reported and flagged, not asserted.
    assert cert["he_closed_form_stated"] == pytest.approx(4.854101966250, abs=1e-9)
    assert cert["closed_form_consistent"] is False
    assert cert["closed_form_discrepancy"] == pytest.approx(1.0, abs=1e-9)
    assert cert["upper_nm_satisfied"] and cert["upper_n_satisfied"] and cert["lower_satisfied"]


def test_construct_remark_cert(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, err = run(capsys, ["construct", "remark", "--t", "1", "--cert", str(cert_path)])
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert cert["n"] == 11
    assert cert["spectrum_matches"] is True
    assert cert["he"] == pytest.approx(21.707111526918, abs=1e-8)
    assert cert["lambda3_below_threshold"] is True
    assert cert["he_exceeds_estimate"] is True


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["construct", "conference"], "--q"),
        (["construct", "extremal"], "--t"),
        (["construct", "switched", "--t", "7"], "prime power"),
        (["construct", "remark", "--t", "0"], ">= 1"),
        (["construct", "conference", "--q", "7"], "1 mod 4"),
        # Graphs the graph6 reader would refuse are refused before any field
        # or matrix is built: a prime q = 1 mod 4 of order 8,209, and q = 97
        # (orders 9,410 and 9,411).
        (["construct", "conference", "--q", "8209"], "order limit 8192"),
        (["construct", "extremal", "--t", "48"], "order limit 8192"),
        (["construct", "switched", "--t", "48"], "order limit 8192"),
        (["construct", "remark", "--t", "48"], "order limit 8192"),
        # Each family takes one parameter; the other one is refused, not dropped.
        (["construct", "conference", "--q", "9", "--t", "2"], "no --t"),
        (["construct", "extremal", "--t", "1", "--q", "5"], "no --q"),
        (["construct", "remark", "--t", "1", "--q", "5"], "no --q"),
    ],
)
def test_construct_errors(capsys, argv, needle):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error:") and needle in line


def test_verify_exhaustive(capsys):
    code, out, err = run(capsys, ["verify", "--n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["total_violations"] == 0
    (report,) = payload["reports"]
    assert report["graph_count"] == 64
    assert report["checks"]["upper_nm"]["holds"] == 64


def test_verify_checks_subset(capsys):
    code, out, err = run(capsys, ["verify", "--n", "3", "--checks", "lemma1"])
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert list(report["checks"]) == ["lemma1"]
    assert report["checks"]["lemma1"]["holds"] == 1
    assert report["checks"]["lemma1"]["not_applicable"] == 7


def test_verify_rejects_large_n(capsys):
    code, out, err = run(capsys, ["verify", "--n", "9"])
    assert code == 2 and "error:" in err


def test_verify_bad_check_name(capsys):
    code, out, err = run(capsys, ["verify", "--n", "3", "--checks", "nope"])
    assert code == 2 and "unknown check" in err


@pytest.mark.parametrize("checks", ["", ","])
@pytest.mark.parametrize("source", [["--n", "3"], ["--corpus", str(Path(__file__).resolve().parent / "golden" / "corpus.g6")]])
def test_verify_empty_check_list_is_a_usage_error(capsys, checks, source):
    # An empty --checks names no check; it does not mean every check.
    code, out, err = run(capsys, ["verify", *source, "--checks", checks])
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown check ''") and err.count("\n") == 1


def test_verify_corpus(capsys, tmp_path):
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\nC~\nDhc\n")
    code, out, err = run(capsys, ["verify", "--corpus", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert [rep["n"] for rep in payload["reports"]] == [3, 4, 5]

    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\n&nope\n")
    code, out, err = run(capsys, ["verify", "--corpus", str(bad)])
    assert code == 2
    code, out, err = run(capsys, ["verify", "--corpus", str(bad), "--skip-bad"])
    assert code == 0


def test_verify_dump(capsys, tmp_path):
    dump = tmp_path / "rows.csv"
    code, out, err = run(capsys, ["verify", "--n", "3", "--dump", str(dump)])
    assert code == 0
    with open(dump, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8


def test_verify_reports_violations(capsys, monkeypatch):
    doctored = sweep_labeled(3)
    doctored.checks["upper_n"].violated += 1
    doctored.checks["upper_n"].examples.append("Bw")
    monkeypatch.setattr("huckel.cli.sweep_labeled", lambda *a, **k: doctored)
    code, out, err = run(capsys, ["verify", "--n", "3"])
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["total_violations"] == 1
    assert payload["reports"][0]["violation_examples"]["upper_n"] == ["Bw"]


def test_verify_jobs_env_parity(capsys):
    code, serial, _ = run(capsys, ["verify", "--n", "4"])
    assert code == 0
    code, flagged, _ = run(capsys, ["verify", "--n", "4", "--jobs", "2"])
    assert code == 0
    assert flagged == serial


GOLDEN_CORPUS = str(Path(__file__).resolve().parent / "golden" / "corpus.g6")


@pytest.mark.parametrize("argv,needle", [
    (["verify", "--n", "3", "--jobs", "0"], "jobs must be >= 1"),
    (["verify", "--n", "3", "--jobs", "-5"], "jobs must be >= 1"),
    (["verify", "--corpus", GOLDEN_CORPUS, "--jobs", "4"], "--jobs applies to --n only"),
    (["verify", "--corpus", GOLDEN_CORPUS, "--jobs", "1"], "--jobs applies to --n only"),
])
def test_verify_jobs_where_it_does_nothing(capsys, argv, needle):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error:") and needle in line


@pytest.mark.parametrize("source", [["--n", "3"], ["--corpus", GOLDEN_CORPUS]])
def test_verify_repeated_check_counts_once(capsys, source):
    once = run(capsys, ["verify", *source, "--checks", "lower,upper_n"])
    assert once[0] == 0
    assert run(capsys, ["verify", *source, "--checks", "lower,upper_n,lower"]) == once
    assert run(capsys, ["verify", *source, "--checks", "upper_n,lower,upper_n"])[1] == once[1]


@pytest.mark.parametrize("argv,target", [
    (["verify", "--n", "3", "--checks", "lower", "--jobs", "1", "--tol", "1e-8", "--dump", "{dump}"],
     "sweep_labeled"),
    (["verify", "--corpus", GOLDEN_CORPUS, "--checks", "lower", "--tol", "1e-8", "--dump", "{dump}",
      "--skip-bad"], "sweep"),
])
def test_every_sweep_parameter_has_a_cli_caller(capsys, monkeypatch, tmp_path, argv, target):
    # With every verify option set, the CLI binds every parameter of the
    # sweep it calls: a parameter only tests could set would show up here.
    cli = importlib.import_module("huckel.cli")
    real, seen = getattr(cli, target), []
    signature = inspect.signature(real)

    def spy(*args, **kwargs):
        seen.append(signature.bind(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, target, spy)
    code, _, _ = run(capsys, [a.format(dump=tmp_path / "rows.csv") for a in argv])
    assert code == 0
    (bound,) = seen
    assert set(bound.arguments) == set(signature.parameters)


def test_bound_with_m(capsys):
    code, out, err = run(capsys, ["bound", "--n", "10", "--m", "30"])
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_nm"] == 20.0
    assert payload["regime"] == "first"
    assert payload["applies"] is True
    assert payload["upper_n"] == 20.0
    assert payload["lower"] == 6.0


def test_bound_scan(capsys):
    code, out, err = run(capsys, ["bound", "--n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order_bound"] == pytest.approx(5.464101615138, abs=1e-9)
    assert payload["scan_argmax"] == 5
    assert payload["value_at_optimal_m"] == pytest.approx(payload["order_bound"], abs=1e-9)
    assert payload["lower"] == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-9)


def test_bound_errors(capsys):
    code, out, err = run(capsys, ["bound", "--n", "3", "--m", "9"])
    assert code == 2 and "out of range" in err
    code, out, err = run(capsys, ["bound", "--n", "1"])
    assert code == 2


def test_bound_scan_refuses_orders_above_the_limit(capsys):
    code, out, err = run(capsys, ["bound", "--n", "8193"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "n <= 8192" in err and err.count("\n") == 1
    # The scan is linear in C(n, 2): at n = 10^9 it would not end, so this
    # one runs as its own program, with a time limit.
    proc = _cli(["bound", "--n", "1000000000"], stdout=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out) == (2, "") and "n <= 8192" in err


def test_bound_scan_limit_is_the_order_limit(capsys):
    code, out, err = run(capsys, ["bound", "--n", "8192"])
    assert code == 0 and json.loads(out)["n"] == 8192
    # One (n, m) evaluation takes constant time and keeps any order.
    code, out, err = run(capsys, ["bound", "--n", "1000000000", "--m", "5"])
    assert code == 0 and json.loads(out)["regime"] == "first"


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["construct", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--corpus", "x.g6"])  # mutually exclusive
    assert exc.value.code == 2


def test_repeated_runs_byte_identical(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\nDhc\nIheA@GUAo\n")
    _, first, _ = run(capsys, ["analyze", str(path)])
    _, second, _ = run(capsys, ["analyze", str(path)])
    assert first == second
    _, g6_a, _ = run(capsys, ["construct", "extremal", "--t", "2"])
    _, g6_b, _ = run(capsys, ["construct", "extremal", "--t", "2"])
    assert g6_a == g6_b


@pytest.mark.parametrize("argv", [
    ["construct", "extremal", "--t", "1"],
    ["construct", "switched", "--t", "2"],
    ["construct", "remark", "--t", "1"],
    ["construct", "conference", "--q", "13"],
])
def test_construct_eigensolves_its_graph_once(argv, capsys, monkeypatch, tmp_path):
    # Each builder proves its graph's structure, so construct solves for the
    # eigenvalues alone: one eigvalsh, and no eigh with its eigenvectors.
    # analyze keeps one eigh per record (test_analyze), since it prints the residual.
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(a, name=name, solver=getattr(np.linalg, name)):
            calls[name] += 1
            return solver(a)
        monkeypatch.setattr(np.linalg, name, counted)
    code, out, err = run(capsys, argv + ["--cert", str(tmp_path / "cert.json")])
    assert code == 0 and err == ""
    assert calls == {"eigh": 0, "eigvalsh": 1}


def test_verify_dump_refused_at_order_8(capsys, tmp_path):
    dump = tmp_path / "rows.csv"
    code, out, err = run(capsys, ["verify", "--n", "8", "--dump", str(dump)])
    assert code == 2 and out == "" and "dump needs n <= 7" in err and "268,435,456 rows" in err
    assert not dump.exists()


@pytest.mark.parametrize("argv, graphs", [
    (["construct", "switched", "--t", "2"], 1),  # the builder's post-condition
    (["construct", "extremal", "--t", "1"], 1),  # the switched graph; its complement's follow
    (["construct", "remark", "--t", "1"], 2),  # the switched graph, then the remark graph in the CLI
    (["construct", "conference", "--q", "13"], 1),  # the builder's post-condition
])
def test_construct_computes_srg_parameters_once_per_graph(argv, graphs, capsys, monkeypatch, tmp_path):
    seen = []
    for name in ("huckel.cli", "huckel.constructions"):
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "srg_params", lambda g, f=module.srg_params: seen.append(g) or f(g))
    code, out, err = run(capsys, argv + ["--cert", str(tmp_path / "cert.json")])
    assert code == 0 and err == ""
    assert len(seen) == len(set(seen)) == graphs


def test_records_over_the_order_limit_are_parse_errors(capsys, tmp_path):
    path = tmp_path / "huge.g6"
    path.write_text("Bw\n~A?@\nDhc\n")  # a bare size header for n = 8193
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2 and "line 2" in err and "n=8193 exceeds the order limit 8192" in err
    code, out, err = run(capsys, ["analyze", str(path), "--skip-bad"])
    assert code == 0 and "line 2 skipped" in err
    assert [rec["graph6"] for rec in json_lines(out)] == ["Bw", "Dhc"]
    code, out, err = run(capsys, ["verify", "--corpus", str(path)])
    assert code == 2 and f"{path}:2:" in err and "order limit" in err
    code, out, err = run(capsys, ["verify", "--corpus", str(path), "--skip-bad"])
    assert code == 0
    assert [(rep["n"], rep["graph_count"]) for rep in json.loads(out)["reports"]] == [(3, 1), (5, 1)]


def test_verify_and_analyze_do_not_import_numpy_ma():
    # np.unique and its set routines import numpy.ma on first use, about
    # 10 ms and 1 MB inside every run; the process pool imports
    # multiprocessing, which only verify --n with --jobs > 1 uses.
    corpus = Path(__file__).resolve().parent / "golden" / "corpus.g6"
    code = (
        "import contextlib, io, sys\n"
        "from huckel.cli import main\n"
        f"for argv in (['verify', '--n', '6'], ['verify', '--corpus', {str(corpus)!r}], ['analyze', {str(corpus)!r}]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(argv)\n"
        "print([m for m in ('numpy.ma', 'multiprocessing', 'concurrent.futures.process') if m in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# ─── output failures: exit 2 and one error line, never a traceback ─────────

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cli(argv, **kwargs) -> subprocess.Popen:
    """Start the CLI as its own program, with this checkout's src on the path
    and stdout block-buffered, as Python leaves it for a pipe or a file;
    stderr is a pipe unless kwargs say otherwise."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.Popen([sys.executable, "-m", "huckel.cli", *argv], env=env, text=True, **kwargs)


def _assert_io_error(proc: subprocess.Popen, err: str) -> None:
    assert proc.wait() == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_unwritable_cert_is_an_io_error(tmp_path):
    proc = _cli(["construct", "extremal", "--t", "1", "--cert", str(tmp_path / "missing" / "c.json")],
                stdout=subprocess.PIPE)
    out, err = proc.communicate()
    _assert_io_error(proc, err)
    assert "No such file or directory" in err
    assert out == (GOLDEN / "construct_extremal_t1.stdout").read_text()


@pytest.mark.parametrize("argv", [["analyze", str(GOLDEN / "corpus.g6")], ["verify", "--n", "5"]])
def test_closed_stdout_pipe_is_an_io_error(argv):
    proc = _cli(argv, stdout=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    _assert_io_error(proc, err)
    assert "Broken pipe" in err


@pytest.mark.parametrize("argv", [["analyze", str(GOLDEN / "corpus.g6")], ["verify", "--n", "6"]])
def test_closed_stdout_and_stderr_pipe_exits_2(argv):
    # As in `huckel verify --n 6 2>&1 | head -c 1`: the error line has
    # nowhere to go, and the exit code must still say I/O error.
    proc = _cli(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    proc.stdout.close()
    assert proc.wait() == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_stdout_device_is_an_io_error():
    with open("/dev/full", "w") as full:
        proc = _cli(["bound", "--n", "9"], stdout=full)
        err = proc.stderr.read()
        proc.stderr.close()
    _assert_io_error(proc, err)
    assert "No space left on device" in err
