"""End-to-end CLI behaviour: output formats, schemas, exit codes."""

import argparse
import ast
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import fraclim
from fraclim import leibniz, schemas
from fraclim.cli import build_parser, main, max_threads, read_corpus
from fraclim.exceptions import ExprParseError
from fraclim.fracderiv import QuadratureConfig
from fraclim.funcmodel import derivative, evaluate, format_expr, parse_expr
from fraclim.leibniz import RULE_UNVIOLATED
from fraclim.lfd import CLASS_FINITE, CLASS_ZERO, ScanConfig, lfd_report
from fraclim.specfun import FracOrder

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "corpus" / "smooth30.txt"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- eval ---


def test_eval_text(capsys):
    code, out, _ = run(capsys, [
        "eval", "--f", "pow(c=1,x0=0,beta=2.5)", "--alpha", "0.5",
        "--a", "0", "--x", "1.0",
    ])
    assert code == 0
    assert "value=1.66167548522392" in out
    assert "method=ClosedForm" in out


def test_eval_json_schema(capsys):
    code, out, _ = run(capsys, [
        "eval", "--f", "sin(c=1,w=1)", "--alpha", "0.5", "--a", "0",
        "--x", "0.1", "0.5", "--kind", "caputo", "--output", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schemas.load("eval"))
    assert doc["kind"] == "Caputo"
    assert len(doc["results"]) == 2
    assert doc["results"][0]["value"] == pytest.approx(0.35587389434748903, abs=1e-8)


def test_eval_rl_kind(capsys):
    code, out, _ = run(capsys, [
        "eval", "--f", "pow(c=1,x0=0,beta=0)", "--alpha", "0.5", "--a", "0",
        "--x", "1.0", "--kind", "rl", "--output", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "RiemannLiouville"
    assert doc["results"][0]["value"] == pytest.approx(0.5641895835477563, rel=1e-12)


def test_eval_csv(capsys):
    code, out, _ = run(capsys, [
        "eval", "--f", "pow(c=1,x0=0,beta=2)", "--alpha", "0.5", "--a", "0",
        "--x", "0.5", "1.0", "--output", "csv",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "value", "kind", "method", "est_error"]
    assert len(rows) == 3
    assert rows[1][4] == "-"  # closed form: no quadrature estimate


# --- lfd-scan ---


def test_lfd_scan_json_schema(capsys):
    code, out, _ = run(capsys, [
        "lfd-scan", "--f", "sin(c=1,w=1)", "--alpha", "0.5", "--a", "0",
        "--h0", "0.1", "--count", "10", "--output", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schemas.load("lfd_report"))
    assert doc["report"]["classification"]["kind"] == "Zero"
    assert len(doc["report"]["samples"]) == 10


def test_lfd_scan_csv(capsys):
    code, out, _ = run(capsys, [
        "lfd-scan", "--f", "pow(c=1,x0=0,beta=2)", "--alpha", "0.5", "--a", "0",
        "--count", "8", "--output", "csv",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "value", "est_error"]
    assert len(rows) == 9


def test_lfd_scan_plot_data(capsys, tmp_path):
    target = tmp_path / "scan.csv"
    code, _, _ = run(capsys, [
        "lfd-scan", "--f", "pow(c=1,x0=0,beta=2)", "--alpha", "0.5", "--a", "0",
        "--count", "6", "--plot-data", str(target),
    ])
    assert code == 0
    rows = list(csv.reader(target.open()))
    assert rows[0] == ["x", "value", "log_offset", "log_abs_value"]
    assert len(rows) == 7


def test_lfd_scan_report_serialization_round_trip(capsys):
    argv = ["lfd-scan", "--f", "sin(c=1,w=1)", "--alpha", "0.5", "--a", "0", "--h0", "0.1",
            "--ratio", "0.5", "--count", "16", "--nodes", "512"]
    rep = lfd_report(parse_expr("sin(c=1,w=1)"), FracOrder(0.5), 0.0,
                     ScanConfig(h0=0.1, ratio=0.5, count=16, quad=QuadratureConfig(nodes=512)))
    code, out, _ = run(capsys, argv + ["--output", "json"])
    assert code == 0
    doc = json.loads(out)["report"]
    assert set(doc) == {
        "samples",
        "fitted_exponent",
        "fitted_prefactor",
        "classification",
        "theory_exponent",
        "theory_prefactor",
    }
    assert len(doc["samples"]) == 16
    assert doc["classification"]["kind"] == CLASS_ZERO

    code, out, _ = run(capsys, argv + ["--output", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "value", "est_error"]
    assert len(rows) == 16 + 1
    # repr round-trip: parsing the first data row reproduces the floats
    assert float(rows[1][0]) == rep.samples[0].x
    assert float(rows[1][1]) == rep.samples[0].value


# --- leibniz ---


def test_leibniz_defect_json(capsys):
    code, out, _ = run(capsys, [
        "leibniz", "--f", "pow(c=1,x0=0,beta=1)", "--g", "pow(c=1,x0=0,beta=1)",
        "--alpha", "0.5", "--a", "0", "--x", "1.0", "--output", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schemas.load("leibniz_report"))
    assert doc["report"]["defect"][0] == pytest.approx(-0.752252778063675, abs=1e-9)


def test_leibniz_integer_rule_is_a_parse_error(capsys):
    # at an integer order --rule series is the classical finite sum
    with pytest.raises(SystemExit) as exc:
        main(["leibniz", "--f", "pow(c=1,x0=0,beta=2)", "--g", "pow(c=1,x0=0,beta=3)",
              "--alpha", "2", "--a", "0", "--x", "0.7", "--rule", "integer"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --rule: invalid choice: 'integer'" in captured.err


@pytest.mark.filterwarnings("error")
def test_leibniz_series_large_truncation(capsys):
    # K = 200 reaches 1/Gamma(-198.5) and fractional integrals of order 199.5
    argv = ["leibniz", "--f", "sin(c=1,w=1,phi=0)", "--g", "exp(c=1,lam=1)",
            "--alpha", "0.5", "--a", "0", "--x", "1", "--rule", "series",
            "--output", "json"]
    values = {}
    for k_max in (60, 200):
        code, out, _ = run(capsys, argv + ["--k-max", str(k_max)])
        assert code == 0
        values[k_max] = json.loads(out)["series_values"][0]
    assert math.isfinite(values[200])
    assert values[200] == pytest.approx(values[60], rel=1e-12)


def test_leibniz_series_json(capsys):
    code, out, _ = run(capsys, [
        "leibniz", "--f", "pow(c=1,x0=0,beta=1)", "--g", "pow(c=1,x0=0,beta=1)",
        "--alpha", "0.5", "--a", "0", "--x", "1.0", "--rule", "series",
        "--output", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schemas.load("leibniz_report"))
    assert doc["report"]["rule_form"] == "SymmetrizedSeries"
    assert doc["report"]["truncation_K"] == 2
    assert doc["series_values"][0] == pytest.approx(1.5045055561273501, abs=1e-9)
    # the terminated series reproduces the reference, so the defect is ~0
    assert doc["report"]["max_abs_defect"] <= 1e-9


def test_leibniz_rl_operator(capsys):
    code, out, _ = run(capsys, [
        "leibniz", "--f", "pow(c=1,x0=0,beta=0)", "--g", "pow(c=1,x0=0,beta=0)",
        "--alpha", "0.5", "--a", "0", "--x", "1.0", "--operator", "rl",
        "--output", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["defect"][0] == pytest.approx(-0.5641895835477563, rel=1e-10)


def test_leibniz_report_serialization(capsys):
    argv = ["leibniz", "--f", "pow(c=1,x0=0,beta=1)", "--g", "pow(c=1,x0=0,beta=1)",
            "--alpha", "0.5", "--a", "0", "--x", "0.5", "1.0"]
    code, out, _ = run(capsys, argv + ["--output", "json"])
    assert code == 0
    doc = json.loads(out)["report"]
    assert doc["alpha"] == 0.5
    assert doc["points"] == [0.5, 1.0]
    assert doc["rule_form"] == RULE_UNVIOLATED
    assert doc["truncation_K"] is None
    code, csv_text, _ = run(capsys, argv + ["--output", "csv"])
    assert code == 0
    lines = csv_text.strip().splitlines()
    assert lines[0] == "x,defect"
    assert len(lines) == 3


def _leibniz_rows(doc):
    rep = doc["report"]
    return [{"x": x, "defect": d} for x, d in zip(rep["points"], rep["defect"])]


# argv, schema, CSV columns, and the document's rows that the CSV prints
ROUND_TRIPS = {
    "eval": (
        ["eval", "--f", "pow(c=1,x0=0,beta=2)", "--alpha", "0.5", "--a", "0",
         "--x", "0.5", "1.0"],
        "eval", ["x", "value", "kind", "method", "est_error"], lambda doc: doc["results"]),
    "eval-quadrature": (
        ["eval", "--f", "pow(c=1,x0=0,beta=0.3) + sin(c=1,w=1)", "--alpha", "0.7",
         "--a", "0", "--x", "3"],
        "eval", ["x", "value", "kind", "method", "est_error"], lambda doc: doc["results"]),
    "lfd-scan": (
        ["lfd-scan", "--f", "sin(c=1,w=1) + pow(c=1,x0=0,beta=2)", "--alpha", "0.5",
         "--a", "0", "--count", "8"],
        "lfd_report", ["x", "value", "est_error"], lambda doc: doc["report"]["samples"]),
    "leibniz-defect": (
        ["leibniz", "--f", "sin(c=1,w=1)", "--g", "exp(c=1,lam=2)", "--alpha", "0.5",
         "--a", "0", "--x", "0.4", "1.2", "--operator", "rl"],
        "leibniz_report", ["x", "defect"], _leibniz_rows),
    "leibniz-series": (
        ["leibniz", "--f", "sin(c=1,w=1)", "--g", "exp(c=1,lam=2)", "--alpha", "1.5",
         "--a", "0", "--x", "0.4", "1.2", "--rule", "series", "--k-max", "9"],
        "leibniz_report", ["x", "defect"], _leibniz_rows),
    "verify-theorem": (
        ["verify-theorem", "--corpus", str(CORPUS), "--alphas", "0.5,1"],
        "verify_theorem", ["function", "a", "alpha", "classification", "limit",
                           "fitted_exponent", "theory_exponent", "status"],
        lambda doc: doc["rows"]),
}


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("case", list(ROUND_TRIPS))
def test_output_round_trips(capsys, case, output):
    # one emitter prints every report: the document matches its schema, and
    # each CSV cell reads back to the document's value, bit for bit
    argv, schema, columns, doc_rows = ROUND_TRIPS[case]
    code, out, err = run(capsys, argv + ["--output", "json"])
    assert code == 0, err
    doc = json.loads(out)
    if output == "json":
        jsonschema.validate(doc, schemas.load(schema))
        if case == "leibniz-series":
            # the partial sums sit beside the report, not inside it
            assert len(doc["series_values"]) == len(doc["report"]["points"])
            assert "series_values" not in doc["report"]
            # the series and its reference are both RL, whatever --operator says
            assert doc["operator"] == "rl"
        return
    code, out, err = run(capsys, argv + ["--output", "csv"])
    assert code == 0, err
    header, *rows = csv.reader(io.StringIO(out))
    assert header == columns
    expected = [[r[c] for c in columns] for r in doc_rows(doc)]
    assert len(rows) == len(expected)
    got = [[cell if isinstance(want, str) else None if cell == "-" else float(cell)
            for cell, want in zip(row, wants)] for row, wants in zip(rows, expected)]
    assert repr(got) == repr(expected)  # repr tells every float apart, -0.0 from 0.0 too


@pytest.mark.parametrize("argv", [
    ["leibniz", "--f", "sin(c=1,w=1)", "--g", "exp(c=1,lam=2)", "--alpha", "0.5", "--a", "0",
     "--x", "0.4", "1.2", "--rule", "defect"],
    ["leibniz", "--f", "sin(c=1,w=1)", "--g", "exp(c=1,lam=2)", "--alpha", "1.5", "--a", "0",
     "--x", "0.4", "1.2", "--rule", "series"],
    ["lfd-scan", "--f", "sin(c=1,w=1) + pow(c=1,x0=0,beta=2)", "--alpha", "0.5", "--a", "0",
     "--count", "8"],
    ["eval", "--f", "sin(c=1,w=1) + pow(c=1,x0=0,beta=2)", "--alpha", "0.5", "--a", "0",
     "--x", "0.4", "1.2"],
], ids=["leibniz-defect", "leibniz-series", "lfd-scan", "eval"])
def test_csv_prints_no_numpy_scalars(capsys, argv):
    # the CSV writers print repr(value), which reads np.float64(...) for a
    # NumPy scalar
    code, out, _ = run(capsys, argv + ["--output", "csv"])
    assert code == 0
    assert "np." not in out


# --- verify-theorem ---


def test_verify_theorem_full_corpus(capsys):
    code, out, _ = run(capsys, [
        "verify-theorem", "--corpus", str(CORPUS), "--alphas", "0.5,1,2.5",
        "--count", "24", "--output", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schemas.load("verify_theorem"))
    assert doc["passed"] is True
    assert len(doc["rows"]) == 90


def test_verify_theorem_text_summary(capsys):
    code, out, _ = run(capsys, [
        "verify-theorem", "--corpus", str(CORPUS), "--alphas", "0.5",
    ])
    assert code == 0
    assert "30/30 rows passed" in out


def test_verify_theorem_integer_orders_at_default_count(capsys):
    # the Finite limit is extrapolated to x = a, not the mean of the smallest
    # offsets, so f^(n)(a) is met within the default --tol at the default --count
    code, out, err = run(capsys, [
        "verify-theorem", "--corpus", str(CORPUS), "--alphas", "1,2",
    ])
    assert code == 0, err
    assert "60/60 rows passed" in out


def test_verify_theorem_detects_divergence(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("pow(c=1,x0=0,beta=0.3) @ 0\n")
    code, out, err = run(capsys, [
        "verify-theorem", "--corpus", str(bad), "--alphas", "0.7",
        "--output", "json",
    ])
    assert code == 4
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["rows"][0]["classification"] == "Divergent"
    assert "failed" in err


def test_verify_theorem_csv(capsys, tmp_path):
    small = tmp_path / "small.txt"
    small.write_text("sin(c=1,w=1) @ 0\nexp(c=1,lam=1) @ 0\n")
    code, out, _ = run(capsys, [
        "verify-theorem", "--corpus", str(small), "--alphas", "0.5,1",
        "--output", "csv",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "function"
    assert len(rows) == 5
    assert all(r[7] == "PASS" for r in rows[1:])


def test_verify_theorem_rows_equal_one_report_per_order(capsys):
    # one scan per corpus entry over all its orders gives the rows that one
    # lfd_report per (entry, order) pair gives, every field of them
    alphas = [0.25, 0.5, 0.75, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0]
    code, out, err = run(capsys, [
        "verify-theorem", "--corpus", str(CORPUS), "--alphas", ",".join(map(repr, alphas)),
        "--count", "26", "--nodes", "1024", "--output", "json",
    ])
    assert code == 0, err
    cfg = ScanConfig(h0=0.1, ratio=0.5, count=26, quad=QuadratureConfig(nodes=1024))
    expected = []
    for f, a in read_corpus(str(CORPUS)):
        for alpha in alphas:
            rep = lfd_report(f, alpha, a, cfg)
            cls = rep.classification
            if alpha == round(alpha):
                target = evaluate(derivative(f, round(alpha)), a)
                estimate = {CLASS_FINITE: cls.limit, CLASS_ZERO: 0.0}.get(cls.kind, math.nan)
                ok = abs(estimate - target) <= 1e-6
            else:
                ok = cls.kind == CLASS_ZERO
            expected.append({
                "function": format_expr(f), "a": a, "alpha": alpha,
                "classification": cls.kind, "limit": cls.limit,
                "fitted_exponent": rep.fitted_exponent,
                "theory_exponent": rep.theory_exponent,
                "status": "PASS" if ok else "FAIL",
            })
    assert json.loads(out)["rows"] == expected


@pytest.mark.parametrize("output", ["text", "json", "csv"])
def test_verify_theorem_row_without_a_target_is_a_domain_error(capsys, tmp_path, output):
    # f' = 0.5 x^-0.5 is singular at the base point: no f^(1)(a) to compare
    # with, so the run stops with exit 3 (not 4) and prints no rows
    corpus = tmp_path / "c.txt"
    corpus.write_text("sin(c=1,w=1) @ 0\npow(c=1,x0=0,beta=0.5) @ 0\n")
    code, out, err = run(capsys, [
        "verify-theorem", "--corpus", str(corpus), "--alphas", "0.5,1",
        "--output", output,
    ])
    assert code == 3
    assert out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1


def test_verify_theorem_starts_no_threads():
    # the rows are computed serially: no executor is imported, no worker outlives the run
    code = (
        "import contextlib, io, sys, threading\n"
        "from fraclim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['verify-theorem', '--corpus', {str(CORPUS)!r},"
        " '--alphas', '0.5,1,2.5', '--count', '24']) == 0\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    src = str(Path(fraclim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["False", "1"]


def test_repeat_runs_bit_identical(capsys):
    for argv in (
        ["eval", "--f", "exp(c=1,lam=1)", "--alpha", "1.5", "--a", "0",
         "--x", "0.9", "--output", "json"],
        ["verify-theorem", "--corpus", str(CORPUS), "--alphas", "0.5,1",
         "--output", "json"],
    ):
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


# --- corpus parsing ---


def test_read_corpus_comments_and_blanks(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(
        "# header comment\n"
        "\n"
        "sin(c=1,w=1) @ 0  # trailing comment\n"
        "pow(c=2,x0=1,beta=3) @ 1\n"
    )
    entries = read_corpus(str(p))
    assert len(entries) == 2
    assert entries[0][1] == 0.0
    assert entries[1][1] == 1.0


def test_read_corpus_error_reports_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("sin(c=1,w=1) @ 0\nnonsense line\n")
    with pytest.raises(ExprParseError) as exc:
        read_corpus(str(p))
    assert ":2" in str(exc.value)


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_corpus_is_a_parse_error(capsys, tmp_path, case):
    path = tmp_path / "c.txt"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"sin(c=1,w=1) @ 0  # \xff\n")
    code, out, err = run(capsys, [
        "verify-theorem", "--corpus", str(path), "--alphas", "0.5",
    ])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and str(path) in err


def test_unwritable_plot_data_is_a_parse_error(capsys, tmp_path):
    target = tmp_path / "missing" / "scan.csv"
    code, _, err = run(capsys, [
        "lfd-scan", "--f", "pow(c=1,x0=0,beta=2)", "--alpha", "0.5", "--a", "0",
        "--count", "6", "--plot-data", str(target),
    ])
    assert code == 2
    assert err.count("\n") == 1 and str(target) in err


def test_read_corpus_bad_base_point(tmp_path):
    p = tmp_path / "c.txt"
    for text in ("banana", "nan", "inf", "-inf"):
        p.write_text(f"sin(c=1,w=1) @ {text}\n")
        with pytest.raises(ExprParseError) as exc:
            read_corpus(str(p))
        assert f"{p}:1:" in str(exc.value)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_base_point_is_a_parse_error(capsys, tmp_path, monkeypatch, text):
    # the corpus is read whole before any entry is scanned
    corpus = tmp_path / "c.txt"
    corpus.write_text(f"sin(c=1,w=1) @ 0\nsin(c=1,w=1) @ {text}\n")

    def no_scan(*args, **kwargs):
        raise AssertionError("an entry was scanned")

    monkeypatch.setattr("fraclim.cli.lfd_verify", no_scan)
    code, out, err = run(capsys, [
        "verify-theorem", "--corpus", str(corpus), "--alphas", "0.5",
    ])
    assert code == 2
    assert out == ""
    assert err == f"parse error: {corpus}:2: base point must be finite, got {float(text)!r}\n"


def test_shipped_corpus_parses():
    entries = read_corpus(str(CORPUS))
    assert len(entries) == 30


# --- exit codes and env ---


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, [
        "eval", "--f", "frob(c=1)", "--alpha", "0.5", "--a", "0", "--x", "1",
    ])
    assert code == 2
    assert "parse error" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, [
        "eval", "--f", "pow(c=1,x0=0,beta=2)", "--alpha", "0.5", "--a", "0",
        "--x", "-1",
    ])
    assert code == 3
    assert "domain error" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--f", "pow(c=1,x0=0,beta=0.5)", "--alpha", "1.7", "--a", "0",
     "--x", "1e-300"],
    ["eval", "--f", "sin(c=1,w=1)", "--alpha", "30.5", "--a", "0", "--x", "1e-11",
     "--kind", "rl"],
    ["leibniz", "--f", "sin(c=1,w=1)", "--g", "exp(c=1,lam=1)", "--alpha", "30.5",
     "--a", "0", "--x", "1e-11", "--operator", "rl"],
], ids=["power-rule", "boundary-terms", "leibniz-rl"])
def test_overflowing_power_is_a_domain_error(capsys, argv):
    # (x - a)^(beta - alpha) and (x - a)^(k - alpha) overflow a double here
    code, _, err = run(capsys, argv)
    assert code == 3
    assert "domain error:" in err and "x=1e-" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--f", "exp(c=1,lam=800)", "--alpha", "0.5", "--a", "0", "--x", "1"],
    ["eval", "--f", "pow(c=1e308,x0=0,beta=3) + sin(c=1,w=1)", "--alpha", "0.5",
     "--a", "0", "--x", "10", "--output", "json"],
    ["leibniz", "--f", "exp(c=1,lam=800)", "--g", "sin(c=1,w=1)", "--alpha", "0.5",
     "--a", "0", "--x", "1"],
], ids=["eval-sampled-overflow", "eval-power-coefficient-overflow", "leibniz-overflow"])
def test_non_finite_result_is_a_domain_error(capsys, argv):
    # no nan, inf or Infinity on stdout, and no RuntimeWarning (an error here)
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["lfd-scan", "--f", "sin(c=1,w=1)", "--alpha", "0.5", "--a", "0",
     "--exponent-tol", "nan"],
    ["lfd-scan", "--f", "sin(c=1,w=1)", "--alpha", "0.5", "--a", "0",
     "--exponent-tol", "-0.1"],
    ["verify-theorem", "--corpus", str(CORPUS), "--alphas", "1", "--tol", "nan"],
    ["verify-theorem", "--corpus", str(CORPUS), "--alphas", "1", "--tol=-1e-6"],
    ["verify-theorem", "--corpus", str(CORPUS), "--alphas", "1", "--exponent-tol", "nan"],
], ids=["scan-nan", "scan-negative", "tol-nan", "tol-negative", "verify-exponent-tol-nan"])
def test_bad_tolerance_is_a_domain_error(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 3
    assert "domain error:" in err


def test_negative_numbers_in_scientific_notation_are_values(capsys):
    # one token each, as in --a -1e-3: argparse alone takes -1e-3 for an option
    code, out, err = run(capsys, ["eval", "--f", "sin(c=1,w=1)", "--alpha", "0.5",
                                  "--a", "-1e-3", "--x", "1", "--output", "json"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["a"] == -1e-3 and [r["x"] for r in doc["results"]] == [1.0]
    # inside a list of points
    code, out, err = run(capsys, ["eval", "--f", "sin(c=1,w=1)", "--alpha", "0.5",
                                  "--a", "-1e-2", "--x", "-5e-3", "1e-3", "--output", "json"])
    assert code == 0, err
    assert [r["x"] for r in json.loads(out)["results"]] == [-5e-3, 1e-3]
    code, out, err = run(capsys, ["leibniz", "--f", "sin(c=1,w=1)", "--g", "exp(c=1,lam=1)",
                                  "--alpha", "0.5", "--a", "-1E-2", "--x", "-5E-3", "1.5e+0",
                                  "--output", "json"])
    assert code == 0, err
    assert json.loads(out)["report"]["points"] == [-5e-3, 1.5]
    # a negative value that the library rejects is a domain error, not a parse error
    for argv in (["eval", "--f", "sin(c=1,w=1)", "--alpha", "-5e-1", "--a", "0", "--x", "1"],
                 ["lfd-scan", "--f", "sin(c=1,w=1)", "--alpha", "0.5", "--a", "0",
                  "--h0", "-1e-1"],
                 ["verify-theorem", "--corpus", str(CORPUS), "--alphas", "1",
                  "--tol", "-1e-6"]):
        code, _, err = run(capsys, argv)
        assert code == 3, (argv, err)
        assert "domain error:" in err


def test_bad_alpha_list_exit_code(capsys, tmp_path):
    small = tmp_path / "c.txt"
    small.write_text("sin(c=1,w=1) @ 0\n")
    code, _, _ = run(capsys, [
        "verify-theorem", "--corpus", str(small), "--alphas", "0.5,banana",
    ])
    assert code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_max_threads_env(monkeypatch):
    # a constant: the environment no longer sets a worker count
    monkeypatch.delenv("FRACLIM_MAX_THREADS", raising=False)
    assert max_threads() == 1
    for raw in ("7", "junk"):
        monkeypatch.setenv("FRACLIM_MAX_THREADS", raw)
        assert max_threads() == 1


@pytest.mark.parametrize("module", ["fraclim", "fraclim.cli", "fraclim.lfd",
                                    "fraclim.leibniz", "fraclim.fracderiv",
                                    "fraclim.kernels", "fraclim.funcmodel",
                                    "fraclim.specfun"])
def test_every_export_exists(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        getattr(mod, name)
    if module == "fraclim.fracderiv":
        # one public derivative surface: a re-added alias must fail here
        assert set(mod.__all__) == {
            "DerivResult", "QuadratureConfig", "caputo_derivative",
            "caputo_power_coefficient", "derivative_many", "power_rule",
            "rl_derivative", "singular_integral", "split_powers",
        }
    if module == "fraclim.leibniz":
        # one rule per question: a re-added integer rule or product alias must fail here
        assert set(mod.__all__) == {
            "RULE_SYMMETRIZED", "RULE_UNVIOLATED", "LeibnizReport", "SeriesResult",
            "leibniz_defect", "series_leibniz_report", "symmetrized_series",
        }


def test_leibniz_rules_match_the_schema():
    # the --rule choices are the schema's rule enum, and the RULE_* constants
    # its rule_form enum
    schema = schemas.load("leibniz_report")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    rule = next(a for a in sub.choices["leibniz"]._actions if a.dest == "rule")
    assert list(rule.choices) == schema["properties"]["rule"]["enum"] == ["defect", "series"]
    forms = schema["definitions"]["leibniz_report"]["properties"]["rule_form"]["enum"]
    assert sorted(v for k, v in vars(leibniz).items() if k.startswith("RULE_")) == sorted(forms)


def test_every_module_level_import_is_used():
    # a module-level import that its module never reads is dead code; a name
    # that the module lists in __all__ is a re-export
    pkg = Path(fraclim.__file__).resolve().parent
    unused = []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        unused += [(path.name, name) for name in imported if name not in read | exported]
    assert unused == []


def test_only_the_cli_formats_output():
    # one output layer: no module but the CLI imports csv or json; the schema
    # loader reads JSON and prints nothing
    pkg = Path(fraclim.__file__).resolve().parent
    exempt = {pkg / "cli.py", pkg / "schemas" / "__init__.py"}
    imports = []
    for path in sorted(set(pkg.rglob("*.py")) - exempt):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module))
    assert [(name, mod) for name, mod in imports if mod.split(".")[0] in ("csv", "json")] == []


def test_console_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "fraclim.cli", "eval", "--f", "sin(c=1,w=1)",
         "--alpha", "0.5", "--a", "0", "--x", "0.1", "--output", "json"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["command"] == "eval"
