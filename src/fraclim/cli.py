"""Command-line interface.

Subcommands
-----------
eval            evaluate a Caputo or Riemann-Liouville derivative at points
lfd-scan        geometric scan toward the base point + limit classification
leibniz         product-rule defect / integer-sum / symmetrized-series report
verify-theorem  run the limit dichotomy over a corpus file and an alpha grid

Each subcommand parses its arguments, makes its library calls and builds
one JSON document and a list of row dicts from their results; the decisions
are the library's.  ``eval`` is one ``derivative_many`` call over all its
points, and ``verify-theorem`` one ``lfd_verify`` call per corpus entry,
which scans the entry at every order and decides its rows.

This module is the package's only formatter: the library's reports are
frozen dataclasses with no serializers.  One emitter, ``_emit``, prints the
document for ``--output json`` or the command's columns of the rows for
``--output csv``; for text the command prints ``key=value`` lines from the
same dicts, each value through ``_cell``.

Exit codes: 0 success, 2 parse error or a file that cannot be read or
written, 3 domain error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import warnings

from .exceptions import ExprParseError, FraclimError
from .fracderiv import (
    KIND_CAPUTO,
    KIND_RL,
    _ESTIMATED,
    QuadratureConfig,
    derivative_many,
)
from .funcmodel import format_expr, parse_expr
from .leibniz import (
    RULE_SYMMETRIZED,
    integer_leibniz_report,
    leibniz_defect,
    series_leibniz_report,
)
from .lfd import CLASS_FINITE, ScanConfig, lfd_report, lfd_verify
from .specfun import FracOrder

__all__ = ["build_parser", "console_main", "main", "max_threads", "read_corpus"]


def max_threads() -> int:
    """Always 1: verify-theorem computes its rows serially.

    The benchmark's context report is the only reader; ROADMAP item 1
    deletes this function together with that read.
    """
    return 1


def read_corpus(path: str):
    """Parse a corpus file: one '<expr> @ <base point>' per line, '#' comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ExprParseError(f"cannot read: {exc.strerror}", field=path)
    except UnicodeDecodeError as exc:
        raise ExprParseError(f"not UTF-8 text: {exc.reason}", field=path)
    entries = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "@" not in line:
            raise ExprParseError("expected '<expr> @ <base point>'", field=where)
        expr_text, _, a_text = line.rpartition("@")
        f = parse_expr(expr_text.strip(), field=where)
        try:
            a = float(a_text.strip())
        except ValueError:
            raise ExprParseError(
                f"bad base point {a_text.strip()!r}", field=where
            )
        if not math.isfinite(a):
            raise ExprParseError(f"base point must be finite, got {a!r}", field=where)
        entries.append((f, a))
    return entries


def _parse_alpha_list(text: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ExprParseError(f"bad alpha list {text!r}", field="--alphas")
    if not values:
        raise ExprParseError("empty alpha list", field="--alphas")
    return values


def _cell(v) -> str:
    """One printed value: '-' for None, a string as it is, repr of a number."""
    return "-" if v is None else v if isinstance(v, str) else repr(v)


def _pairs(row, keys) -> str:
    return " ".join(f"{k}={_cell(row[k])}" for k in keys)


def _write_csv(fh, header, rows) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(header)
    w.writerows([_cell(v) for v in row] for row in rows)


def _emit(args, doc, columns, rows) -> bool:
    """Print ``doc`` for --output json, or the ``columns`` of the dicts in
    ``rows`` for --output csv, and return True; return False for text,
    which the command prints itself."""
    if args.output == "json":
        print(json.dumps(doc, indent=2))
    elif args.output == "csv":
        _write_csv(sys.stdout, columns, ([r[c] for c in columns] for r in rows))
    return args.output != "text"


def _scan_config(args) -> ScanConfig:
    return ScanConfig(h0=args.h0, ratio=args.ratio, count=args.count,
                      quad=QuadratureConfig(nodes=args.nodes))


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    f = parse_expr(args.f, field="--f")
    order = FracOrder(args.alpha)
    kind = KIND_CAPUTO if args.kind == "caputo" else KIND_RL
    values, est_errors, method = derivative_many(f, order, args.a, args.x,
                                                 QuadratureConfig(nodes=args.nodes), kind)
    if method not in _ESTIMATED:
        est_errors = [None] * len(values)
    rows = [{"x": x, "value": v, "kind": kind, "method": method, "est_error": e}
            for x, v, e in zip(args.x, values, est_errors)]
    doc = {
        "command": "eval",
        "function": format_expr(f),
        "alpha": order.alpha,
        "a": args.a,
        "kind": kind,
        "results": rows,
    }
    if not _emit(args, doc, ["x", "value", "kind", "method", "est_error"], rows):
        print(f"# eval kind={kind} alpha={order.alpha!r} a={args.a!r} f={doc['function']}")
        for r in rows:
            print(_pairs(r, ("x", "value", "method", "est_error")))
    return 0


# ---------------------------------------------------------------------------
# lfd-scan


def cmd_lfd_scan(args) -> int:
    f = parse_expr(args.f, field="--f")
    order = FracOrder(args.alpha)
    report = lfd_report(f, order, args.a, _scan_config(args), exponent_tol=args.exponent_tol)
    if args.plot_data:
        _write_plot_data(args.plot_data, report)
    cls = report.classification
    rep = {
        "samples": [{"x": x, "value": v, "est_error": e}
                    for x, v, e in zip(report.xs, report.values, report.est_errors)],
        "fitted_exponent": report.fitted_exponent,
        "fitted_prefactor": report.fitted_prefactor,
        "classification": {"kind": cls.kind, "limit": cls.limit},
        "theory_exponent": report.theory_exponent,
        "theory_prefactor": report.theory_prefactor,
    }
    doc = {
        "command": "lfd-scan",
        "function": format_expr(f),
        "alpha": order.alpha,
        "a": args.a,
        "report": rep,
    }
    if not _emit(args, doc, ["x", "value", "est_error"], rep["samples"]):
        print(f"# lfd-scan alpha={order.alpha!r} a={args.a!r} f={doc['function']}")
        print(f"samples={len(report.xs)} usable={sum(report.usable)}")
        print(_pairs(rep, ("fitted_exponent", "fitted_prefactor")))
        print(_pairs(rep, ("theory_exponent", "theory_prefactor")))
        if cls.kind == CLASS_FINITE:
            print(f"classification={cls.kind} limit={cls.limit!r}")
        else:
            print(f"classification={cls.kind}")
    return 0


def _write_plot_data(path, report):
    # data-only plot emission: linear and log-log columns side by side
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ExprParseError(f"cannot write: {exc.strerror}", field=path)
    with fh:
        _write_csv(fh, ["x", "value", "log_offset", "log_abs_value"],
                   ([x, v, math.log(h), math.log(abs(v)) if v != 0.0 else ""]
                    for x, v, h in zip(report.xs, report.values, report.offsets)))


# ---------------------------------------------------------------------------
# leibniz


def cmd_leibniz(args) -> int:
    f = parse_expr(args.f, field="--f")
    g = parse_expr(args.g, field="--g")
    order = FracOrder(args.alpha)
    cfg = QuadratureConfig(nodes=args.nodes)
    points = tuple(args.x)
    if args.rule == "defect":
        report = leibniz_defect(f, g, order, args.a, points, cfg, operator=args.operator)
    elif args.rule == "integer":
        report = integer_leibniz_report(f, g, order, points)
    else:  # series
        report = series_leibniz_report(f, g, order, args.a, points, args.k_max, cfg)
    rep = {
        "alpha": report.alpha.alpha,
        "points": list(report.points),
        "defect": list(report.defect),
        "max_abs_defect": report.max_abs_defect,
        "rule_form": report.rule_form,
        "truncation_K": report.truncation_K,
        "series_residual": report.series_residual,
    }
    doc = {
        "command": "leibniz",
        "function_f": format_expr(f),
        "function_g": format_expr(g),
        "a": args.a,
        "rule": args.rule,
        "operator": args.operator,
        "report": rep,
    }
    series = report.series_values
    if series is not None:
        doc["series_values"] = series
    rows = [{"x": x, "series": s, "defect": d}
            for x, s, d in zip(points, series or [None] * len(points), report.defect)]
    if not _emit(args, doc, ["x", "defect"], rows):
        print(f"# leibniz rule={args.rule} alpha={order.alpha!r} a={args.a!r}")
        print(f"# f={doc['function_f']}")
        print(f"# g={doc['function_g']}")
        for r in rows:
            print(_pairs(r, ("x", "defect") if series is None else ("x", "series", "defect")))
        print(_pairs(rep, ("max_abs_defect",)))
        if report.rule_form == RULE_SYMMETRIZED:
            print(_pairs(rep, ("truncation_K", "series_residual")))
    return 0


# ---------------------------------------------------------------------------
# verify-theorem


def cmd_verify_theorem(args) -> int:
    entries = read_corpus(args.corpus)
    if not entries:
        raise ExprParseError("corpus has no entries", field=args.corpus)
    alphas = [FracOrder(v) for v in _parse_alpha_list(args.alphas)]
    scan_cfg = _scan_config(args)
    rows = []
    for f, a in entries:
        function = format_expr(f)
        verdicts = lfd_verify(f, alphas, a, scan_cfg, args.tol, args.exponent_tol)
        for order, (report, passed) in zip(alphas, verdicts):
            rows.append({
                "function": function,
                "a": a,
                "alpha": order.alpha,
                "classification": report.classification.kind,
                "limit": report.classification.limit,
                "fitted_exponent": report.fitted_exponent,
                "theory_exponent": report.theory_exponent,
                "status": "PASS" if passed else "FAIL",
            })
    n_pass = sum(r["status"] == "PASS" for r in rows)
    doc = {
        "command": "verify-theorem",
        "alphas": [o.alpha for o in alphas],
        "tol": args.tol,
        "passed": n_pass == len(rows),
        "rows": rows,
    }
    columns = ["function", "a", "alpha", "classification", "limit",
               "fitted_exponent", "theory_exponent", "status"]
    if not _emit(args, doc, columns, rows):
        for r in rows:
            print(f"{r['status']}  alpha={r['alpha']:<6g} a={r['a']:<8g} "
                  f"{r['classification']:<9s} {r['function']}")
        print(f"# {n_pass}/{len(rows)} rows passed")
    if n_pass < len(rows):
        print(f"verification failed for {len(rows) - n_pass} of {len(rows)} rows",
              file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser assembly


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token such as -1e-3 as a negative
    number, not as an option: argparse's own pattern stops at -1.5, and no
    option of fraclim looks like a number.  Subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_common(p):
    p.add_argument("--output", choices=("text", "json", "csv"), default="text",
                   help="output format (default: text)")
    p.add_argument("--nodes", type=int, default=512,
                   help="largest Gauss-Legendre rule of the quadrature; rules "
                        "double from 32 nodes up to min(NODES, 512) (default: 512)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fraclim",
        description="Fractional derivatives, local limit scans and "
                    "Leibniz-rule diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a fractional derivative at points")
    p.add_argument("--f", required=True, help="function expression")
    p.add_argument("--alpha", type=float, required=True, help="derivative order")
    p.add_argument("--a", type=float, required=True, help="base point")
    p.add_argument("--x", type=float, nargs="+", required=True,
                   help="evaluation points (one or more)")
    p.add_argument("--kind", choices=("caputo", "rl"), default="caputo")
    _add_common(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("lfd-scan", help="scan x -> a and classify the limit")
    p.add_argument("--f", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--h0", type=float, default=0.5, help="first offset (default 0.5)")
    p.add_argument("--ratio", type=float, default=0.5, help="geometric ratio")
    p.add_argument("--count", type=int, default=20, help="number of samples")
    p.add_argument("--exponent-tol", type=float, default=0.05,
                   help="dead band around slope 0 for the Finite verdict")
    p.add_argument("--plot-data", metavar="PATH",
                   help="also write (x, value, log offset, log |value|) CSV")
    _add_common(p)
    p.set_defaults(handler=cmd_lfd_scan)

    p = sub.add_parser("leibniz", help="product-rule diagnostics")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--rule", choices=("defect", "integer", "series"),
                   default="defect")
    p.add_argument("--operator", choices=("caputo", "rl"), default="caputo",
                   help="operator used by --rule defect")
    p.add_argument("--k-max", type=int, default=None,
                   help="series truncation (default: poly degree sum, else 12)")
    _add_common(p)
    p.set_defaults(handler=cmd_leibniz)

    p = sub.add_parser("verify-theorem",
                       help="limit dichotomy over a corpus and alpha grid")
    p.add_argument("--corpus", required=True, help="corpus file path")
    p.add_argument("--alphas", required=True,
                   help="comma-separated orders, e.g. 0.5,1,1.5,2")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="|limit - f^(n)(a)| tolerance at integer orders")
    p.add_argument("--h0", type=float, default=0.1,
                   help="first offset (default 0.1: scans stay in the "
                        "scaling regime for oscillatory corpus entries)")
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--exponent-tol", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(handler=cmd_verify_theorem)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # NumPy's floating-point warnings: an overflow ends in a DomainError
            warnings.filterwarnings("ignore", r".* encountered in ", RuntimeWarning)
            return args.handler(args)
    except ExprParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FraclimError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
