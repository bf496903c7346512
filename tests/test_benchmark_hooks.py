"""The benchmark calls and wraps program attributes by name; they must exist.

perfbench/tracing.py replaces each (owner, attribute) in its WRAPPED table,
the interpreter's `classify` and the scheduler's `threading` module.  The
scheduler does not use `threading`; it keeps the import because the
tracer swaps that attribute for a timed shim and fails if it is missing.
perfbench/workloads.py calls `run_concurrent(..., workers=, on_commit=)` and
the tracer reads `ScheduleOutcome.retries`.  A rename in src/ would break a
benchmark run only when it is made; this checks the names up front.

The traced dispatch.*_per_tx metrics count the cases `interpreter.classify`
returns, and interpreter.steps_per_s divides steps by the time in `txn.run`
spans.  So one `Kernel.execute` must call `txn.run` once and `classify`
once per send, both by their module names.

The open metrics divide the time in `durability.scan_frames` and
`durability.decode_record` spans by the records opened, so opening a store
must call each by its module name: the first once, the second once per
record, compressed frames included.
"""

import dataclasses
import importlib.util
import inspect
import os
from collections import Counter

import pytest

from sendkernel import durability, interpreter, scheduler, txn
from sendkernel.assembler import SEED_MESSAGE, Const, ProgramBuilder, Slot
from sendkernel.dispatch import EXTERNAL_TAG
from sendkernel.patterns import ECHO_PROGRAM, creator, poke
from sendkernel.sexpr import parse, unchain
from sendkernel.txn import Kernel, SystemState

from test_acceptance import ReadTracer

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


def test_the_arguments_the_tracer_reads_keep_their_places():
    # WRAPPED's keep functions read Store.append's outcome as args[2], and
    # the text of scan_frames, parse and dumps as args[0] or the result.
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(durability.Store.append) == ["self", "tx", "outcome", "k_len_after"]
    assert names(durability.decode_record)[:4] == ["x", "offset", "last_birth", "version"]
    assert [names(f)[0] for f in (durability.scan_frames, durability.parse, durability.dumps)] == [
        "data",
        "text",
        "x",
    ]


def test_open_calls_the_traced_decoders_by_name(tmp_path, monkeypatch):
    path = str(tmp_path / "s.store")
    batch = creator(ECHO_PROGRAM, ECHO_PROGRAM)
    with durability.DurableSystem.create(path, sync="none") as ds:
        ds.submit(creator(ECHO_PROGRAM))
        for i in range(2):
            ds.submit(poke(14, (i, i)))
            ds.submit(batch)  # the second is a reference to the first
    with open(path, "rb") as fh:
        payloads = durability.scan_frames(fh.read()).payloads[1:]
    assert [len(unchain(parse(p.decode()))) for p in payloads] == [6, 6, 6, 6, 7]
    assert open_calls(path, monkeypatch) == {"scan_frames": 1, "decode_record": 5}


def test_open_of_compressed_frames_calls_the_traced_decoders_by_name(tmp_path, monkeypatch):
    # scan_frames inflates a z frame: decode_record still sees one text a record
    path = str(tmp_path / "s.store")
    with durability.DurableSystem.create(path, sync="none") as ds:
        for tx in (creator(*[ECHO_PROGRAM] * 4), poke(14, (1, 1)), creator(*[ECHO_PROGRAM] * 6)):
            ds.submit(tx)
    with open(path, "rb") as fh:
        assert len(durability.scan_frames(fh.read()).packed) == 2
    assert open_calls(path, monkeypatch) == {"scan_frames": 1, "decode_record": 3}


def open_calls(path, monkeypatch):
    """How often opening the store calls scan_frames and decode_record."""
    calls = {"scan_frames": 0, "decode_record": 0}
    for name in calls:
        original = getattr(durability, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(durability, name, counted)
    durable, _ = durability.DurableSystem.open(path, sync="none")
    durable.close()
    return calls


def forwarder_program(peer):
    """routed's forwarder: send tail(message) out to [7, [peer, head(message)]]."""
    b = ProgramBuilder()
    addressed = b.cons(Const(peer), b.head(Slot(SEED_MESSAGE)))
    b.call(b.cons(Const(EXTERNAL_TAG), addressed), b.tail(Slot(SEED_MESSAGE)))
    return b.halt()


@pytest.mark.parametrize(
    "setup, tx, cases",
    [
        (
            creator(forwarder_program(2)),
            poke(14, (15, 7)),
            {"persistent": 1, "builtin": 2, "pair_form": 2, "external": 1},
        ),
        ((), creator(ECHO_PROGRAM), {"kernel": 1}),
    ],
    ids=["forwarder_poke", "echo_creation"],
)
def test_execute_runs_once_and_classifies_once_per_send(monkeypatch, setup, tx, cases):
    tracer = ReadTracer()  # one window per send the run loop dispatches
    kernel, system = Kernel(tracer=tracer), SystemState.fresh()
    if setup:
        kernel.submit(system, setup)
    runs, classified = [], Counter()
    run, classify = txn.run, interpreter.classify

    def counted_run(*args, **kwargs):
        runs.append(1)
        return run(*args, **kwargs)

    def counted_classify(target, view):
        case = classify(target, view)
        classified[case.value] += 1
        return case

    monkeypatch.setattr(txn, "run", counted_run)
    monkeypatch.setattr(interpreter, "classify", counted_classify)
    tracer.windows = []
    outcome = kernel.execute(system.kernel, system.kernel.size, tx)
    assert outcome.committed
    assert runs == [1]
    assert classified == Counter(case.value for case, _, _ in tracer.windows) == cases
