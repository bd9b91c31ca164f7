"""fraclim benchmark: one workload, end-to-end or traced, checked by an oracle.

    python3 perfbench/run.py --workload scan-quad --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  fraclim is imported from ``src/``
in fresh worker interpreters (``worker.py``); this process never imports
it.  It times set-up in several fresh interpreters, runs the measuring
worker, checks every outcome against the mpmath oracle (``oracle.py``,
outside all timings), prints a table of every metric with its unit, and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count distinct inputs, each once, not timed
calls: a repeated call must return its input's first output, and how many
calls fit in ``--seconds`` depends on the host's speed, so only the input
counts are the same on every run of a seed.

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer metrics of a traced pass (``tracer.py``).  A full record of the
run is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402  (benchmark modules beside this file)
import oracle  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed for setup_s: this many minus one set-up-only
# workers, plus the measuring worker itself.
SETUP_RUNS = 5
# The tail percentile needs at least ten inputs beyond it.
TAIL_BEYOND = 10
# A worker is stopped if it runs this long past its measuring time.
WORKER_GRACE_S = 120


def spawn(workload: str, seed: int, mode: str, seconds: float):
    """Run one worker; return (seconds to its first result, its report)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("FRACLIM_MAX_THREADS", None)
    if workload == "verify-serial":
        env["FRACLIM_MAX_THREADS"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, repr(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        first_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker {mode} for {workload} timed out")
    if proc.returncode != 0 or first.strip() != "first":
        raise SystemExit(f"worker {mode} for {workload} exited with {proc.returncode}")
    return first_s, (json.loads(rest.splitlines()[-1]) if mode != "setup" else None)


def input_medians(report: dict) -> list:
    """Each input's median call time over its repeated calls."""
    by_input = {}
    for wall, i in zip(report["times"], report["timed_inputs"]):
        by_input.setdefault(i, []).append(wall)
    return [statistics.median(v) for v in by_input.values()]


def tail(values: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND values
    beyond it, or the largest value when there are fewer."""
    values = sorted(values)
    rank = len(values) - TAIL_BEYOND if len(values) > TAIL_BEYOND else len(values)
    return values[rank - 1], 100.0 * rank / len(values)


def end_to_end(report: dict, tally: check.Tally, setup: list) -> dict:
    # The tail is taken over inputs, not single calls: among thousands of
    # millisecond calls the slowest ten are host stalls, not slow inputs.
    tail_s, _ = tail(input_medians(report))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "call_ms_p50": (1e3 * statistics.median(report["times"]), "ms"),
        "call_ms_tail": (1e3 * tail_s, "ms"),
        "ok_share": (1.0 - tally.failed / tally.attempted, "ratio"),
        "right_share": (1.0 - tally.wrong / max(tally.completed, 1), "ratio"),
        "est_ok_share": (1.0 - tally.est_miss / tally.with_estimate
                         if tally.with_estimate else 1.0, "ratio"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    needed = [ROOT / "src" / "fraclim" / "__init__.py", ROOT / workloads.CORPUS]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"not a fraclim checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    problems = [f"oracle self-check failed: {name}" for name in oracle.self_check()]
    setup = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setup.append(spawn(args.workload, args.seed, "setup", 0.0)[0])
    mode = "trace" if args.trace else "run"
    first_s, report = spawn(args.workload, args.seed, mode, args.seconds)
    setup.append(first_s)

    items = workloads.items(args.workload, args.seed)
    tally = check.check(args.workload, items, report, ROOT)
    problems += tally.unexpected
    if report["repeat_mismatches"]:
        problems.append(f"{report['repeat_mismatches']} repeated calls changed output")
    if args.trace:
        tr = report["trace"]
        acc = tr["accounting"]
        if not tr["identical"]:
            problems.append("traced results differ from untraced results")
        if abs(acc["main_self_s"] + acc["outside_s"] - acc["wall_s"]) > 1e-6 * acc["wall_s"] \
                or acc["min_self_s"] < -1e-6:
            problems.append(f"layer self times do not add up to the wall time: {acc}")
        metrics = {k: tuple(v) for k, v in tr["metrics"].items()}
    else:
        metrics = end_to_end(report, tally, setup)

    ctx = dict(report["context"])
    ctx["workload"] = args.workload
    ctx["trace"] = args.trace
    ctx["calls"] = report["attempted"]
    ctx["timed_calls"] = len(report["times"])
    if report["times"]:
        medians = input_medians(report)
        ctx["tail_inputs"] = len(medians)
        ctx["tail_percentile"] = round(tail(medians)[1], 1)
    ctx["setup_runs_s"] = setup
    ctx["call_errors"] = report["errors"]
    # Printed, not a metric: a maximum over seeded inputs varies by orders of
    # magnitude from seed to seed, so no bound on it could hold.
    ctx["max_rel_err"] = max(tally.rel_errs, default=0.0)
    counts = {k: getattr(tally, k) for k in
              ("attempted", "failed", "completed", "wrong", "with_estimate", "est_miss")}
    for key, value in ctx.items():
        print(f"# {key}: {value}")
    print(f"# outcomes: {counts}")
    if args.trace:
        print(f"# accounting: {report['trace']['accounting']}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")

    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    record = {"context": ctx, "outcomes": counts, "problems": problems, "result": result}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
