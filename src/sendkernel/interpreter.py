"""The five-instruction interpreter, with every send dispatched in its loop.

A running program owns a context list L seeded with five values:

    L[0] program   L[1] message   L[2] self   L[3] log   L[4] caller

L only grows.  Instructions are values: a bare atom halts (4 aborts, any
other atom returns the top of L); a pair [2,k] sends the top of L the
value below it and continues with k; [3,[j,k]] re-pushes L[j]; [5,[d,k]]
pushes d uninterpreted; any other pair [d,k] pushes its head.  There is
no erase, no mutation, no way to read another object's state except by
sending to it.

Sends to persistent objects run the receiver's program in a fresh
context (positions 2/3/4 rebound to the receiver); sends to plain pairs
run the pair as code in the sender's own context (positions 2/3/4
inherited).  A persistent frame's L[3] is materialised on first read:
the log is encoded only when a recall reads it, or when a send runs
while L holds just its five seeds and so takes L[3] as its message.

run is one loop.  The running frame lives in locals; an explicit stack
holds only the suspended frames, so depth is bounded by the step budget,
not by the host call stack.  Each send calls the module's classify once
and handles its case in place.  Any undefined step aborts the whole
transaction: there is no catch.
"""

from __future__ import annotations

from .dispatch import (
    CASE_BUILTIN,
    CASE_EPHEMERAL,
    CASE_EXTERNAL,
    CASE_KERNEL,
    CASE_PAIR_FORM,
    CASE_PERSISTENT,
    EXTERNAL,
    KERNEL,
    OP_FAIL,
    OP_QUOTE,
    OP_RECALL,
    OP_SEND,
    alloc_sequential,
    builtin,
    classify,
)
from .sexpr import SExpr
from .state import ABORT, Effects, ExternalSend, LogEntry, StateView, TxResult, encode_log

DEFAULT_STEP_BUDGET = 1_000_000

__all__ = ["DEFAULT_STEP_BUDGET", "run"]


class _LazyLog:
    """The receiver's log as of its dispatch, encoded on first read.

    Captures the pinned committed prefix and the pending rows that existed
    at dispatch, so rows appended later in the transaction (say, the
    completion entry of a re-entrant call) never show.  Not an
    s-expression: the run loop forces it before a program can observe it.
    """

    __slots__ = ("view", "receiver", "n_pending", "value")

    def __init__(self, view: StateView, receiver: int) -> None:
        self.view = view
        self.receiver = receiver
        self.n_pending = len(view.pending)
        self.value = None

    def force(self) -> SExpr:
        view = self.view
        if view is not None:
            # A view without a tracer: the projection event fired at dispatch.
            rows = StateView(view.kstate, view.k_len, view.pending[: self.n_pending])
            self.value = encode_log(rows.log_of(self.receiver))
            self.view = None
        return self.value


def run(
    ctx: list,
    instr: SExpr,
    view: StateView,
    effects: Effects,
    budget: int,
    alloc_fn=alloc_sequential,
    builtin_fn=builtin,
) -> tuple[TxResult, int]:
    """Drive a context to completion; ABORT poisons every enclosing frame.

    Returns (result, steps left of budget).  One step is charged per
    interpreter case taken, so exhaustion aborts deterministically: replay
    runs out at exactly the same step.

    The running frame is (ctx, ins, pending) in locals; frames holds the
    suspended ones.  A frame's pending entry, if any, is appended to the
    effects only once the frame returns: an object never sees its own
    in-flight message in its log, and inner entries land before outer
    ones.  The view's pending list is effects.entries, and the kernel case
    appends its rows through the view.  The tracer, if any, is the view's.
    """
    frames: list = []
    ins = instr
    pending = None
    entries = effects.entries
    tracer = view.tracer
    remaining = budget
    while True:
        if remaining <= 0:
            return ABORT, remaining
        remaining -= 1

        if isinstance(ins, int):
            if ins == OP_FAIL:
                return ABORT, remaining
            value = ctx[-1]
            if pending is not None:
                entries.append(pending)
                if tracer is not None:
                    tracer.on_append(pending, pending.caller)
            if not frames:
                return value, remaining
            ctx, ins, pending = frames.pop()
            ctx.append(value)
            continue

        head, rest = ins

        if head == OP_SEND:
            if len(ctx) == 5 and type(ctx[3]) is _LazyLog:
                ctx[3] = ctx[3].force()  # ctx[-2] is L[3]: the log is the message
            target = ctx[-1]
            message = ctx[-2]
            if tracer is not None:
                tracer.on_classify(target)
            case = classify(target, view)
            if tracer is not None:
                tracer.on_case(case, target)

            if case is CASE_BUILTIN:
                value = builtin_fn(target, message)
                if value is None:
                    return ABORT, remaining
            elif case is CASE_PERSISTENT:
                program = view.program_of(target)
                if tracer is not None:
                    tracer.on_projection("log", target)
                frames.append((ctx, rest, pending))
                pending = tuple.__new__(LogEntry, (target, ctx[2], message))
                ctx = [program, message, target, _LazyLog(view, target), ctx[2]]
                ins = program
                continue
            elif case is CASE_PAIR_FORM:
                value = (target[1], message)
            elif case is CASE_EPHEMERAL:
                frames.append((ctx, rest, pending))
                pending = None
                ctx = [target, message, ctx[2], ctx[3], ctx[4]]
                ins = target
                continue
            elif case is CASE_KERNEL:
                sender = ctx[2]
                value = alloc_fn(view)
                creation = tuple.__new__(LogEntry, (KERNEL, sender, value))
                birth = tuple.__new__(LogEntry, (value, sender, message))
                view.append_creation(creation, birth)
                if tracer is not None:
                    tracer.on_append(creation, sender)
                    tracer.on_append(birth, sender)
            elif case is CASE_EXTERNAL:
                effects.externals.append(ExternalSend(ctx[2], target, message))
                value = EXTERNAL
            else:
                return ABORT, remaining
            ctx.append(value)
            ins = rest
            continue

        if head == OP_RECALL:
            if not isinstance(rest, tuple):
                return ABORT, remaining
            j, ins = rest
            if not isinstance(j, int) or j >= len(ctx):
                return ABORT, remaining
            value = ctx[j]
            if type(value) is _LazyLog:
                value = ctx[j] = value.force()
            ctx.append(value)
            continue

        if head == OP_QUOTE:
            if not isinstance(rest, tuple):
                return ABORT, remaining
            ctx.append(rest[0])
            ins = rest[1]
            continue

        # Any other pair: push the head verbatim, continue with the tail.
        ctx.append(head)
        ins = rest
