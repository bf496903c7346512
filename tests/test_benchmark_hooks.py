"""The benchmark calls and wraps program attributes by name; they must exist.

perfbench/tracing.py replaces each (owner, attribute) in its WRAPPED table,
the interpreter's `classify` and the scheduler's `threading` module.  The
scheduler does not use `threading`; it keeps the import because the
tracer swaps that attribute for a timed shim and fails if it is missing.
perfbench/workloads.py calls `run_concurrent(..., workers=, on_commit=)` and
the tracer reads `ScheduleOutcome.retries`.  A rename in src/ would break a
benchmark run only when it is made; this checks the names up front.
"""

import dataclasses
import importlib.util
import inspect
import os

import pytest

from sendkernel import interpreter, scheduler

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = load_tracing().WRAPPED


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _, _ in WRAPPED], ids=[n for *_, n, _ in WRAPPED]
)
def test_wrapped_attribute_resolves(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_classify_and_threading_resolve():
    assert callable(getattr(interpreter, "classify", None))
    assert hasattr(scheduler, "threading")
    assert hasattr(scheduler.threading, "Event")


def test_scheduler_call_shape_resolves():
    params = inspect.signature(scheduler.run_concurrent).parameters
    assert "workers" in params and "on_commit" in params
    fields = {f.name for f in dataclasses.fields(scheduler.ScheduleOutcome)}
    assert "retries" in fields
