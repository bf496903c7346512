"""Spans around sendkernel's layers, recorded from outside the program.

Tracer.install() replaces public functions and methods of sendkernel's
modules with wrappers that record one span per call: name, phase of the
round, thread, parent span, start and end.  It also counts dispatch cases
by wrapping `classify` and times garbage collections through
`gc.callbacks`.  restore() puts every original back.  Spans stay in
memory; write() saves them, and layer_metrics() derives the per-layer
metrics from them.

A span's self time is its duration minus the time its child spans (on the
same thread) cover.  Metrics of a layer the workload does not exercise
read 0.
"""

from __future__ import annotations

import gc
import gzip
import json
import threading
import types
from collections import Counter, defaultdict
from time import perf_counter

from sendkernel import compose, durability, interpreter, scheduler, txn
from sendkernel.compose import Instance, Router
from sendkernel.durability import Store
from sendkernel.state import KernelState, StateView
from sendkernel.txn import Kernel

# (owner, attribute, span name, what to keep from (args, result) or None)
WRAPPED = [
    (durability, "dumps", "sexpr.dumps", lambda a, r: len(r)),
    (durability, "parse", "sexpr.parse", lambda a, r: len(a[0])),
    (durability, "equal", "sexpr.equal", None),
    (StateView, "log_of", "state.log_of", lambda a, r: len(r)),
    (interpreter, "encode_log", "state.encode_log", None),
    (StateView, "program_of", "state.program_of", None),
    (StateView, "exists", "state.exists", None),
    (StateView, "registry_len", "state.registry_len", None),
    (KernelState, "append_all", "state.append_all", None),
    # Kernel.__init__ binds the allocator, so this must precede the kernels.
    (txn, "alloc_sequential", "dispatch.alloc", None),
    (txn, "run", "interpreter.run", None),
    (Kernel, "execute", "txn.execute", lambda a, r: r.steps),
    (Kernel, "apply", "txn.apply", None),
    (scheduler, "run_concurrent", "scheduler.run_concurrent", lambda a, r: r.retries),
    (Store, "append", "durability.append", lambda a, r: a[2].steps),
    (Store, "settle", "durability.settle", None),
    (durability, "scan_frames", "durability.scan_frames", lambda a, r: len(a[0])),
    (durability, "decode_record", "durability.decode_record", None),
    (durability, "replay_verify", "durability.replay_verify", None),
    (Router, "pump", "compose.pump", lambda a, r: r.deliveries),
    (Instance, "take_external", "compose.take_external", None),
    (compose, "forwarding_tx", "compose.forwarding_tx", None),
]

DISPATCH_CASES = ("persistent", "builtin", "ephemeral", "kernel", "external")
ADMIT, OPEN, VERIFY = "admit", "open", "verify"  # the phases of a round


class Span:
    __slots__ = ("name", "phase", "thread", "parent", "start", "end", "extra")

    def __init__(self, name, phase, thread, parent):
        self.name = name
        self.phase = phase
        self.thread = thread
        self.parent = parent
        self.extra = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cases: Counter = Counter()  # (phase, dispatch case) -> sends
        self.gc_pauses: list[tuple] = []  # (phase, generation, seconds)
        self._phases = types.SimpleNamespace(current=None)
        self._stacks: dict[int, list] = {}
        self._undo: list[tuple] = []
        self._gc_start = 0.0

    def follow(self, phases) -> None:
        """File spans under phases.current from now on."""
        self._phases = phases

    # installing and removing the wrappers ---------------------------------

    def install(self) -> None:
        for owner, attr, name, keep in WRAPPED:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, keep))
        self._patch(interpreter, "classify", self._count_cases(interpreter.classify))
        # The commit pass waits on one Event per transaction; timing those
        # waits separates the pass's own work from waiting for workers.
        timed_event = type(
            "TimedEvent",
            (threading.Event,),
            {"wait": self._wrap(threading.Event.wait, "scheduler.wait", None)},
        )
        shim = types.SimpleNamespace(
            Event=timed_event, Lock=threading.Lock, Thread=threading.Thread
        )
        self._patch(scheduler, "threading", shim)
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name, keep):
        spans = self.spans
        stacks = self._stacks
        tracer = self

        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            stack = stacks.get(thread)
            if stack is None:
                stack = stacks[thread] = []
            span = Span(name, tracer._phases.current, thread, stack[-1] if stack else None)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)
            if keep is not None:
                span.extra = keep(args, result)
            return result

        return wrapper

    def _count_cases(self, classify):
        cases = self.cases
        tracer = self

        def counting_classify(target, view):
            case = classify(target, view)
            cases[(tracer._phases.current, case.value)] += 1
            return case

        return counting_classify

    def _on_gc(self, event: str, info: dict) -> None:
        if event == "start":
            self._gc_start = perf_counter()
        else:
            pause = perf_counter() - self._gc_start
            self.gc_pauses.append((self._phases.current, info["generation"], pause))

    # output -----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Save the spans as gzipped JSON lines.

        The first line names the fields; each further line is one span,
        its parent given by line number (1 is the first span) and its
        times in microseconds from the first span's start.
        """
        index = {id(s): i for i, s in enumerate(self.spans, 1)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fields = ["name", "phase", "thread", "parent", "start_us", "end_us"]
            fh.write(json.dumps(fields) + "\n")
            for s in self.spans:
                parent = index[id(s.parent)] if s.parent is not None else 0
                start = round((s.start - t0) * 1e6, 1)
                end = round((s.end - t0) * 1e6, 1)
                fh.write(json.dumps([s.name, s.phase, s.thread, parent, start, end]) + "\n")

    def layer_metrics(self, r) -> dict:
        """Per-layer metrics of a traced round r, as name -> (value, unit)."""
        children = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)] += s.end - s.start
        total, own, kept = defaultdict(float), defaultdict(float), defaultdict(float)
        calls = Counter()
        for s in self.spans:
            key = (s.phase, s.name)
            duration = s.end - s.start
            total[key] += duration
            own[key] += duration - children[id(s)]
            calls[key] += 1
            if s.extra is not None:
                kept[key] += s.extra

        tx = r.admitted
        opened = r.records * r.open_repeats
        verified = r.records

        def per(x, n):
            return x / n if n else 0.0

        def us(phase, name, n):
            """Microseconds in spans called name, per unit of n."""
            return per(total[(phase, name)] * 1e6, n)

        def mbps(phase, name):
            return per(kept[(phase, name)] / 1e6, total[(phase, name)])

        deliveries = kept[(ADMIT, "compose.pump")]
        retries = kept[(ADMIT, "scheduler.run_concurrent")]
        scheduled = calls[(ADMIT, "scheduler.run_concurrent")] > 0
        run_self = own[(ADMIT, "interpreter.run")]
        commit_pass = total[(ADMIT, "scheduler.run_concurrent")] - total[(ADMIT, "scheduler.wait")]
        replay_compare = (
            total[(VERIFY, "durability.replay_verify")]
            - total[(VERIFY, "txn.execute")]
            - total[(VERIFY, "state.append_all")]
        )
        sends = sum(n for (phase, _), n in self.cases.items() if phase == ADMIT)
        pauses = [(g, p) for phase, g, p in self.gc_pauses if phase == ADMIT]

        m = {
            "sexpr.dumps_MBps": (mbps(ADMIT, "sexpr.dumps"), "MB/s"),
            "sexpr.parse_MBps": (mbps(OPEN, "sexpr.parse"), "MB/s"),
            "sexpr.equal_us_per_record": (us(VERIFY, "sexpr.equal", verified), "us/rec"),
            "state.log_of_us_per_tx": (us(ADMIT, "state.log_of", tx), "us/tx"),
            "state.log_rows_per_tx": (per(kept[(ADMIT, "state.log_of")], tx), "rows/tx"),
            "state.encode_log_us_per_tx": (us(ADMIT, "state.encode_log", tx), "us/tx"),
            "state.program_of_us_per_tx": (us(ADMIT, "state.program_of", tx), "us/tx"),
            "state.exists_us_per_tx": (us(ADMIT, "state.exists", tx), "us/tx"),
            "state.registry_len_us_per_tx": (us(ADMIT, "state.registry_len", tx), "us/tx"),
            "state.registry_len_calls_per_tx": (
                per(calls[(ADMIT, "state.registry_len")], tx),
                "calls/tx",
            ),
            "state.append_all_us_per_tx": (us(ADMIT, "state.append_all", tx), "us/tx"),
            "dispatch.sends_per_tx": (per(sends, tx), "sends/tx"),
        }
        for case in DISPATCH_CASES:
            m[f"dispatch.{case}_per_tx"] = (per(self.cases[(ADMIT, case)], tx), "sends/tx")
        m.update({
            "dispatch.alloc_us_per_create": (
                us(ADMIT, "dispatch.alloc", calls[(ADMIT, "dispatch.alloc")]),
                "us/create",
            ),
            "interpreter.steps_per_tx": (per(kept[(ADMIT, "durability.append")], tx), "steps/tx"),
            "interpreter.run_self_us_per_tx": (per(run_self * 1e6, tx), "us/tx"),
            "interpreter.steps_per_s": (per(kept[(ADMIT, "txn.execute")], run_self), "steps/s"),
            "txn.execute_us_per_tx": (us(ADMIT, "txn.execute", tx), "us/tx"),
            "txn.apply_us_per_tx": (us(ADMIT, "txn.apply", tx), "us/tx"),
            "scheduler.retries_per_tx": (per(retries, tx), "retries/tx"),
            "scheduler.useful_exec_ratio": (
                per(tx - retries, calls[(ADMIT, "txn.execute")]) if scheduled else 0.0,
                "ratio",
            ),
            "scheduler.commit_pass_us_per_tx": (per(commit_pass * 1e6, tx), "us/tx"),
            "durability.append_us_per_tx": (us(ADMIT, "durability.append", tx), "us/tx"),
            "durability.settle_us_per_tx": (us(ADMIT, "durability.settle", tx), "us/tx"),
            "durability.scan_MBps": (mbps(OPEN, "durability.scan_frames"), "MB/s"),
            "durability.decode_us_per_record": (
                us(OPEN, "durability.decode_record", opened),
                "us/rec",
            ),
            "durability.rebuild_us_per_record": (us(OPEN, "state.append_all", opened), "us/rec"),
            "durability.replay_exec_us_per_record": (
                us(VERIFY, "txn.execute", verified),
                "us/rec",
            ),
            "durability.replay_compare_us_per_record": (
                per(replay_compare * 1e6, verified),
                "us/rec",
            ),
            "compose.pump_self_us_per_delivery": (
                per(own[(ADMIT, "compose.pump")] * 1e6, deliveries),
                "us/delivery",
            ),
            "compose.forwarding_tx_us_per_delivery": (
                us(ADMIT, "compose.forwarding_tx", deliveries),
                "us/delivery",
            ),
            "compose.take_external_us_per_delivery": (
                us(ADMIT, "compose.take_external", deliveries),
                "us/delivery",
            ),
            "compose.deliveries_per_tx": (per(deliveries, tx), "deliveries/tx"),
            "gc.pause_us_per_tx": (per(sum(p for _, p in pauses) * 1e6, tx), "us/tx"),
            "gc.gen2_per_ktx": (per(1000 * sum(g == 2 for g, _ in pauses), tx), "gen2/ktx"),
        })
        return m
