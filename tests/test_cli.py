"""End-to-end CLI behaviour: output formats, schemas, exit codes."""

import csv
import importlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from fraclim import schemas
from fraclim.cli import main, max_threads, read_corpus
from fraclim.exceptions import ExprParseError

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


def test_leibniz_integer_rule(capsys):
    code, out, _ = run(capsys, [
        "leibniz", "--f", "pow(c=1,x0=0,beta=2)", "--g", "pow(c=1,x0=0,beta=3)",
        "--alpha", "2", "--a", "0", "--x", "0.7", "1.3", "--rule", "integer",
        "--output", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schemas.load("leibniz_report"))
    assert doc["report"]["rule_form"] == "IntegerSum"
    assert doc["report"]["max_abs_defect"] <= 1e-10


def test_leibniz_integer_rule_needs_integer_alpha(capsys):
    code, _, err = run(capsys, [
        "leibniz", "--f", "pow(c=1,x0=0,beta=2)", "--g", "pow(c=1,x0=0,beta=3)",
        "--alpha", "1.5", "--a", "0", "--x", "0.7", "--rule", "integer",
    ])
    assert code == 3
    assert "integer" in err


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


def test_determinism_across_thread_counts(capsys, monkeypatch):
    argv = ["verify-theorem", "--corpus", str(CORPUS), "--alphas", "0.5,1",
            "--output", "json"]
    monkeypatch.setenv("FRACLIM_MAX_THREADS", "7")
    _, out1, _ = run(capsys, argv)
    monkeypatch.setenv("FRACLIM_MAX_THREADS", "1")
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_repeat_runs_bit_identical(capsys):
    argv = ["eval", "--f", "exp(c=1,lam=1)", "--alpha", "1.5", "--a", "0",
            "--x", "0.9", "--output", "json"]
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


def test_read_corpus_bad_base_point(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("sin(c=1,w=1) @ banana\n")
    with pytest.raises(ExprParseError):
        read_corpus(str(p))


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
    monkeypatch.setenv("FRACLIM_MAX_THREADS", "3")
    assert max_threads() == 3
    monkeypatch.setenv("FRACLIM_MAX_THREADS", "0")
    assert max_threads() == 1
    monkeypatch.setenv("FRACLIM_MAX_THREADS", "junk")
    with pytest.raises(ExprParseError):
        max_threads()
    monkeypatch.delenv("FRACLIM_MAX_THREADS")
    assert max_threads() >= 1


@pytest.mark.parametrize("module", ["fraclim", "fraclim.cli", "fraclim.lfd",
                                    "fraclim.leibniz", "fraclim.fracderiv",
                                    "fraclim.kernels", "fraclim.funcmodel",
                                    "fraclim.specfun"])
def test_every_export_exists(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        getattr(mod, name)


def test_console_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "fraclim.cli", "eval", "--f", "sin(c=1,w=1)",
         "--alpha", "0.5", "--a", "0", "--x", "0.1", "--output", "json"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["command"] == "eval"
