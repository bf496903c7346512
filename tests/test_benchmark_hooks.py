"""The benchmark's tracer wraps module attributes by name; they must exist.

perfbench/tracing.py replaces each (owner, attribute) in its WRAPPED table,
the interpreter's `classify` and the scheduler's `threading` module.  A rename in src/ would break a
traced benchmark run only when it is made; this checks the names up front.
"""

import importlib.util
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
