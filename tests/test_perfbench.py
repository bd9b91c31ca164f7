"""The names the benchmark harness in ``perfbench/`` reads from fraclim.

The harness runs only when the benchmark does, so a refactor that drops or
renames a name it reads would pass every other test here and fail only in a
benchmark run.  These tests load its worker and tracer by path, leave
``perfbench/`` as it is, and exercise what the two read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import fraclim
import fraclim.cli
import fraclim.fracderiv
import fraclim.funcmodel
import fraclim.leibniz
import fraclim.lfd
from fraclim.exceptions import FraclimError

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("verify-corpus", "verify-serial", "scan-quad", "leibniz-series")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    """(worker, tracer) modules.  The worker puts ``perfbench/`` on sys.path
    and imports its ``workloads`` module; both are undone afterwards."""
    path, had_workloads = list(sys.path), "workloads" in sys.modules
    try:
        yield _load("worker"), _load("tracer")
    finally:
        sys.path[:] = path
        if not had_workloads:
            sys.modules.pop("workloads", None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_calls_run_and_serialise(perfbench, workload, monkeypatch):
    worker, _ = perfbench
    monkeypatch.chdir(ROOT)  # the verify argv names the corpus relative to the checkout
    calls = worker.build_calls(workload, worker.workloads.items(workload, 1), fraclim)
    assert calls
    for call in calls[:2]:
        # a fraclim error is a recorded outcome of an input; any other
        # exception, such as an AttributeError for a dropped name, fails here
        try:
            out = call()
        except FraclimError:
            assert not workload.startswith("verify")
            continue
        json.dumps(out)


def test_worker_context_names():
    assert isinstance(fraclim.KERNEL_BACKEND, str)
    assert fraclim.cli.max_threads() == 1


def test_tracer_uninstall_restores_every_binding(perfbench):
    _, tracer = perfbench

    def bindings():
        return {(name, attr): value
                for name, mod in list(sys.modules.items())
                if name == "fraclim" or name.startswith("fraclim.")
                for attr, value in vars(mod).items()}

    before = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = {key for key, value in bindings().items() if value is not before.get(key)}
        assert ("fraclim.lfd", "lfd_report") in wrapped
        assert ("fraclim", "lfd_report") in wrapped
    finally:
        t.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
