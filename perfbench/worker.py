"""One workload in a fresh interpreter: import fraclim from the checkout,
parse the inputs, make the first call, then time calls until the deadline.

    python3 perfbench/worker.py <workload> <seed> <setup|run|trace> <seconds>

Prints ``first`` as soon as the first call has returned (the parent times
set-up up to that line), then, unless the mode is ``setup``, one JSON object
with the calls' timings and outcomes.  ``trace`` mode pairs every untraced
call with a traced call of the same input.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark module beside this file)

clock = time.perf_counter


class CliExit(Exception):
    """The CLI returned a parse (2) or domain (3) error code."""


def reference_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(5):
        t0 = clock()
        s = 0
        for i in range(100_000):
            s += i * i
        times.append(clock() - t0)
    return 1e3 * statistics.median(times)


def build_calls(workload: str, items: list, fr) -> list:
    """One zero-argument callable per item, returning a JSON-ready outcome.
    Modules are looked up at call time so that the tracer's bindings apply."""
    if workload.startswith("verify"):
        argv = items[0]["argv"]

        def verify():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = fr.cli.main(argv)
            if code in (2, 3):
                raise CliExit(f"exit code {code}")
            return {"exit": code, "rows": json.loads(out.getvalue())["rows"]}

        return [verify]

    calls = []
    if workload == "scan-quad":
        for it in items:
            f = fr.funcmodel.parse_expr(it["f"])
            cfg = fr.lfd.ScanConfig(h0=workloads.SCAN_H0, ratio=workloads.SCAN_RATIO,
                                    count=workloads.SCAN_COUNT,
                                    quad=fr.fracderiv.QuadratureConfig(nodes=it["nodes"]))

            def scan(f=f, it=it, cfg=cfg):
                rep = fr.lfd.lfd_report(f, it["alpha"], it["a"], cfg)
                return {
                    "samples": [[s.x, s.value, s.est_error] for s in rep.samples],
                    "kind": rep.classification.kind,
                    "limit": rep.classification.limit,
                }

            calls.append(scan)
        return calls

    for it in items:
        f = fr.funcmodel.parse_expr(it["f"])
        g = fr.funcmodel.parse_expr(it["g"])
        if it["op"] == "series":
            def series(f=f, g=g, it=it):
                r = fr.leibniz.symmetrized_series(f, g, it["alpha"], it["a"], it["x"][0])
                return {"value": r.value, "residual": r.residual,
                        "nonconvergent": r.nonconvergent}
            calls.append(series)
        else:
            def defect(f=f, g=g, it=it):
                r = fr.leibniz.leibniz_defect(f, g, it["alpha"], it["a"], it["x"],
                                              operator=it["op"])
                return {"defect": list(r.defect)}
            calls.append(defect)
    return calls


class Runner:
    """Times calls and keeps the first outcome of each input."""

    def __init__(self, calls):
        self.calls = calls
        self.times = []
        self.timed_inputs = []
        self.attempted = 0
        self.errors = {}
        self.outcomes = {}
        self.counts = {}
        self.digests = {}
        self.mismatches = 0

    def call(self, i: int):
        """Run call i once; return (wall seconds, outcome digest, completed)."""
        self.attempted += 1
        t0 = clock()
        try:
            out = self.calls[i]()
        except Exception as exc:  # every raise is a failed call, never an abort
            wall = clock() - t0
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            out = {"error": name}
        else:
            wall = clock() - t0
        digest = json.dumps(out)
        self.counts[i] = self.counts.get(i, 0) + 1
        if i not in self.outcomes:
            self.outcomes[i] = out
            self.digests[i] = digest
        elif digest != self.digests[i]:
            self.mismatches += 1
        return wall, digest, "error" not in out


def main() -> int:
    workload, seed, mode, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    import numpy

    import fraclim
    import fraclim.cli
    import fraclim.fracderiv
    import fraclim.funcmodel
    import fraclim.leibniz
    import fraclim.lfd

    src = HERE.parent / "src"
    if Path(fraclim.__file__).resolve().parent != (src / "fraclim").resolve():
        print(f"fraclim imported from {fraclim.__file__}, not {src}", file=sys.stderr)
        return 2

    items = workloads.items(workload, seed)
    tracer = stats = None
    if mode == "trace":
        from tracer import LayerStats, Tracer

        tracer, stats = Tracer(), LayerStats()
        tracer.install()
    calls = build_calls(workload, items, fraclim)
    if tracer is not None:
        tracer.uninstall()
        if not workload.startswith("verify"):
            stats.add_parse(tracer.take(), len(calls))

    runner = Runner(calls)
    runner.call(0)
    print("first", flush=True)
    if mode == "setup":
        return 0

    ref_before = reference_ms()
    deadline = clock() + seconds
    main_thread = threading.get_ident()
    i = 1 % len(calls)
    traced_wall = untraced_wall = 0.0
    identical = traced_first = True
    # Stop at the deadline, but only once every input has been called.
    while (clock() < deadline or len(runner.outcomes) < len(calls)
           or (stats is not None and stats.calls == 0)):
        if tracer is None:
            wall, _, completed = runner.call(i)
            if completed:
                runner.times.append(wall)
                runner.timed_inputs.append(i)
        else:
            # Alternate which of the pair goes first, so neither gains from warm caches.
            traced_first = not traced_first
            digests = {}
            for traced in (traced_first, not traced_first):
                if traced:
                    tracer.install()
                wall, digests[traced], _ = runner.call(i)
                if traced:
                    tracer.uninstall()
                    stats.add_call(tracer.take(), wall, main_thread)
                    traced_wall += wall
                else:
                    untraced_wall += wall
            identical &= digests[True] == digests[False]
        i = (i + 1) % len(calls)

    report = {
        "context": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": fraclim.KERNEL_BACKEND,
            "cli_workers": fraclim.cli.max_threads(),
            "seed": seed,
            "reference_ms": [ref_before, reference_ms()],
        },
        "times": runner.times,
        "timed_inputs": runner.timed_inputs,
        "attempted": runner.attempted,
        "errors": runner.errors,
        "outcomes": {str(k): v for k, v in runner.outcomes.items()},
        "counts": {str(k): v for k, v in runner.counts.items()},
        "repeat_mismatches": runner.mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if stats is not None:
        report["trace"] = {
            "identical": identical,
            "metrics": stats.metrics(traced_wall / untraced_wall),
            "accounting": stats.accounting(),
        }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
