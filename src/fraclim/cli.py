"""Command-line interface.

Subcommands
-----------
eval            evaluate a Caputo or Riemann-Liouville derivative at points
lfd-scan        geometric scan toward the base point + limit classification
leibniz         product-rule defect / integer-sum / symmetrized-series report
verify-theorem  run the limit dichotomy over a corpus file and an alpha grid

Exit codes: 0 success, 2 parse error, 3 domain error, 4 verification failure.
FRACLIM_MAX_THREADS caps the corpus fan-out; output is deterministic (input
order) regardless of the thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .exceptions import ExprParseError, FraclimError
from .fracderiv import QuadratureConfig, caputo_derivative, rl_derivative
from .funcmodel import derivative, evaluate, format_expr, parse_expr
from .leibniz import (
    RULE_SYMMETRIZED,
    integer_leibniz_report,
    leibniz_defect,
    series_leibniz_report,
)
from .lfd import CLASS_FINITE, CLASS_ZERO, ScanConfig, lfd_report
from .specfun import FracOrder

__all__ = ["build_parser", "console_main", "main", "max_threads", "read_corpus"]


def max_threads() -> int:
    """Worker cap for corpus fan-out, from FRACLIM_MAX_THREADS when set."""
    raw = os.environ.get("FRACLIM_MAX_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ExprParseError(
                f"expected an integer, got {raw!r}", field="FRACLIM_MAX_THREADS"
            )
    return min(8, os.cpu_count() or 1)


def read_corpus(path: str):
    """Parse a corpus file: one '<expr> @ <base point>' per line, '#' comments."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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


def _fmt(v) -> str:
    return "-" if v is None else repr(v)


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _print_csv(header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    f = parse_expr(args.f, field="--f")
    order = FracOrder(args.alpha)
    cfg = QuadratureConfig(nodes=args.nodes)
    results = []
    for x in args.x:
        if args.kind == "caputo":
            results.append((x, caputo_derivative(f, order, args.a, x, cfg)))
        else:
            results.append((x, rl_derivative(f, order, args.a, x, cfg)))
    if args.output == "json":
        doc = {
            "command": "eval",
            "function": format_expr(f),
            "alpha": order.alpha,
            "a": args.a,
            "kind": results[0][1].kind,
            "results": [
                {
                    "x": x,
                    "value": r.value,
                    "kind": r.kind,
                    "method": r.method,
                    "est_error": r.est_error,
                }
                for x, r in results
            ],
        }
        _print_json(doc)
    elif args.output == "csv":
        _print_csv(
            ["x", "value", "kind", "method", "est_error"],
            [
                [repr(x), repr(r.value), r.kind, r.method, _fmt(r.est_error)]
                for x, r in results
            ],
        )
    else:
        print(f"# eval kind={results[0][1].kind} alpha={order.alpha!r} "
              f"a={args.a!r} f={format_expr(f)}")
        for x, r in results:
            print(f"x={x!r} value={r.value!r} method={r.method} "
                  f"est_error={_fmt(r.est_error)}")
    return 0


# ---------------------------------------------------------------------------
# lfd-scan


def cmd_lfd_scan(args) -> int:
    f = parse_expr(args.f, field="--f")
    order = FracOrder(args.alpha)
    cfg = ScanConfig(
        h0=args.h0,
        ratio=args.ratio,
        count=args.count,
        quad=QuadratureConfig(nodes=args.nodes),
    )
    report = lfd_report(f, order, args.a, cfg, exponent_tol=args.exponent_tol)
    if args.plot_data:
        _write_plot_data(args.plot_data, report)
    if args.output == "json":
        _print_json(
            {
                "command": "lfd-scan",
                "function": format_expr(f),
                "alpha": order.alpha,
                "a": args.a,
                "report": report.to_json_dict(),
            }
        )
    elif args.output == "csv":
        sys.stdout.write(report.to_csv())
    else:
        cls = report.classification
        print(f"# lfd-scan alpha={order.alpha!r} a={args.a!r} f={format_expr(f)}")
        usable = sum(1 for s in report.samples if s.usable)
        print(f"samples={len(report.samples)} usable={usable}")
        print(f"fitted_exponent={_fmt(report.fitted_exponent)} "
              f"fitted_prefactor={_fmt(report.fitted_prefactor)}")
        print(f"theory_exponent={report.theory_exponent!r} "
              f"theory_prefactor={_fmt(report.theory_prefactor)}")
        if cls.kind == CLASS_FINITE:
            print(f"classification={cls.kind} limit={cls.limit!r}")
        else:
            print(f"classification={cls.kind}")
    return 0


def _write_plot_data(path, report):
    # data-only plot emission: linear and log-log columns side by side
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x", "value", "log_offset", "log_abs_value"])
        for s in report.samples:
            logv = repr(math.log(abs(s.value))) if s.value != 0.0 else ""
            w.writerow([repr(s.x), repr(s.value), repr(math.log(s.offset)), logv])


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
    series_values = report.series_values
    if args.output == "json":
        doc = {
            "command": "leibniz",
            "function_f": format_expr(f),
            "function_g": format_expr(g),
            "a": args.a,
            "rule": args.rule,
            "operator": args.operator,
            "report": report.to_json_dict(),
        }
        if series_values is not None:
            doc["series_values"] = series_values
        _print_json(doc)
    elif args.output == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(f"# leibniz rule={args.rule} alpha={order.alpha!r} a={args.a!r}")
        print(f"# f={format_expr(f)}")
        print(f"# g={format_expr(g)}")
        for i, x in enumerate(points):
            if series_values is not None:
                print(f"x={x!r} series={series_values[i]!r} defect={report.defect[i]!r}")
            else:
                print(f"x={x!r} defect={report.defect[i]!r}")
        print(f"max_abs_defect={report.max_abs_defect!r}")
        if report.rule_form == RULE_SYMMETRIZED:
            print(f"truncation_K={report.truncation_K} "
                  f"series_residual={report.series_residual!r}")
    return 0


# ---------------------------------------------------------------------------
# verify-theorem


def _theorem_row(f, a, order, scan_cfg, tol, exponent_tol):
    report = lfd_report(f, order, a, scan_cfg, exponent_tol=exponent_tol)
    cls = report.classification
    if order.is_integer:
        target = evaluate(derivative(f, order.n), a)
        if cls.kind == CLASS_FINITE:
            estimate = cls.limit
        elif cls.kind == CLASS_ZERO:
            estimate = 0.0
        else:
            estimate = math.nan
        ok = math.isfinite(estimate) and abs(estimate - target) <= tol
    else:
        ok = cls.kind == CLASS_ZERO
    return {
        "function": format_expr(f),
        "a": a,
        "alpha": order.alpha,
        "classification": cls.kind,
        "limit": cls.limit,
        "fitted_exponent": report.fitted_exponent,
        "theory_exponent": report.theory_exponent,
        "status": "PASS" if ok else "FAIL",
    }


def cmd_verify_theorem(args) -> int:
    entries = read_corpus(args.corpus)
    if not entries:
        raise ExprParseError("corpus has no entries", field=args.corpus)
    alphas = [FracOrder(v) for v in _parse_alpha_list(args.alphas)]
    scan_cfg = ScanConfig(
        h0=args.h0,
        ratio=args.ratio,
        count=args.count,
        quad=QuadratureConfig(nodes=args.nodes),
    )
    tasks = [(f, a, order) for f, a in entries for order in alphas]
    workers = max_threads()
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(
                    lambda t: _theorem_row(t[0], t[1], t[2], scan_cfg, args.tol,
                                           args.exponent_tol),
                    tasks,
                )
            )
    else:
        rows = [
            _theorem_row(f, a, order, scan_cfg, args.tol, args.exponent_tol)
            for f, a, order in tasks
        ]
    passed = all(r["status"] == "PASS" for r in rows)
    if args.output == "json":
        _print_json(
            {
                "command": "verify-theorem",
                "alphas": [o.alpha for o in alphas],
                "tol": args.tol,
                "passed": passed,
                "rows": rows,
            }
        )
    elif args.output == "csv":
        _print_csv(
            ["function", "a", "alpha", "classification", "limit",
             "fitted_exponent", "theory_exponent", "status"],
            [
                [r["function"], repr(r["a"]), repr(r["alpha"]), r["classification"],
                 _fmt(r["limit"]), _fmt(r["fitted_exponent"]),
                 repr(r["theory_exponent"]), r["status"]]
                for r in rows
            ],
        )
    else:
        for r in rows:
            print(f"{r['status']}  alpha={r['alpha']:<6g} a={r['a']:<8g} "
                  f"{r['classification']:<9s} {r['function']}")
        n_pass = sum(1 for r in rows if r["status"] == "PASS")
        print(f"# {n_pass}/{len(rows)} rows passed")
    if not passed:
        failing = [r for r in rows if r["status"] == "FAIL"]
        print(f"verification failed for {len(failing)} of {len(rows)} rows",
              file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p, with_nodes=True):
    p.add_argument("--output", choices=("text", "json", "csv"), default="text",
                   help="output format (default: text)")
    if with_nodes:
        p.add_argument("--nodes", type=int, default=1024,
                       help="quadrature subintervals (default: 1024)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
