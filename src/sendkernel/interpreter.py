"""The five-instruction interpreter and the send dispatcher.

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
Nesting is tracked with an explicit frame stack so depth is bounded by
the step budget, not by the host call stack.  Any undefined step aborts
the whole transaction: there is no catch.
"""

from __future__ import annotations

from .dispatch import (
    DispatchCase,
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
from .sexpr import SExpr, is_atom, is_pair
from .state import ABORT, Effects, ExternalSend, LogEntry, StateView, TxResult, encode_log

DEFAULT_STEP_BUDGET = 1_000_000

__all__ = ["Budget", "DEFAULT_STEP_BUDGET", "run"]


class Budget:
    """Per-transaction step allowance; one unit per interpreter case taken.

    Exhaustion aborts the transaction deterministically: replay burns the
    budget at exactly the same step.
    """

    __slots__ = ("start", "remaining")

    def __init__(self, steps: int = DEFAULT_STEP_BUDGET) -> None:
        self.start = steps
        self.remaining = steps

    @property
    def spent(self) -> int:
        return self.start - self.remaining


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


# _dispatch outcome tags
_VALUE = 0
_FRAME = 1
_ABORT = 2


def _dispatch(
    target: SExpr,
    message: SExpr,
    sender: int,
    log_value: SExpr,
    caller: SExpr,
    view: StateView,
    effects: Effects,
    alloc_fn,
    builtin_fn,
    tracer,
):
    """One send, classified and (for the pure cases) fully applied.

    Returns (_VALUE, v), (_ABORT, None), or (_FRAME, ctx, pending_entry)
    when the receiver's code must run before the send has a value.  The
    pending entry, if any, is appended to the effects only after that
    frame completes: an object never sees its own in-flight message in
    its log, and inner entries land before outer ones.
    """
    if tracer is not None:
        tracer.on_classify(target)
    case = classify(target, view)
    if tracer is not None:
        tracer.on_case(case, target)

    if case is DispatchCase.BUILTIN:
        value = builtin_fn(target, message)
        if value is None:
            return (_ABORT, None, None)
        return (_VALUE, value, None)

    if case is DispatchCase.KERNEL:
        ident = alloc_fn(view)
        creation = LogEntry(KERNEL, sender, ident)
        birth = LogEntry(ident, sender, message)
        effects.entries.append(creation)
        effects.entries.append(birth)
        if tracer is not None:
            tracer.on_append(creation, sender)
            tracer.on_append(birth, sender)
        return (_VALUE, ident, None)

    if case is DispatchCase.PERSISTENT:
        program = view.program_of(target)
        if view.tracer is not None:
            view.tracer.on_projection("log", target)
        ctx = [program, message, target, _LazyLog(view, target), sender]
        return (_FRAME, ctx, LogEntry(target, sender, message))

    if case is DispatchCase.PAIR_FORM:
        return (_VALUE, (target[1], message), None)

    if case is DispatchCase.EXTERNAL:
        effects.externals.append(ExternalSend(sender, target, message))
        return (_VALUE, EXTERNAL, None)

    if case is DispatchCase.EPHEMERAL:
        ctx = [target, message, sender, log_value, caller]
        return (_FRAME, ctx, None)

    return (_ABORT, None, None)


def run(
    ctx: list,
    instr: SExpr,
    view: StateView,
    effects: Effects,
    budget: Budget,
    alloc_fn=alloc_sequential,
    builtin_fn=builtin,
    tracer=None,
) -> TxResult:
    """Drive a context to completion; ABORT poisons every enclosing frame."""
    frames: list = [[ctx, instr, None]]
    entries = effects.entries

    while True:
        if budget.remaining <= 0:
            return ABORT
        budget.remaining -= 1

        frame = frames[-1]
        ins = frame[1]

        if is_atom(ins):
            if ins == OP_FAIL:
                return ABORT
            value = frame[0][-1]
            frames.pop()
            pending = frame[2]
            if pending is not None:
                entries.append(pending)
                if tracer is not None:
                    tracer.on_append(pending, pending.caller)
            if not frames:
                return value
            frames[-1][0].append(value)
            continue

        head, rest = ins

        if head == OP_SEND:
            fctx = frame[0]
            if len(fctx) == 5 and type(fctx[3]) is _LazyLog:
                fctx[3] = fctx[3].force()  # fctx[-2] is L[3]: the log is the message
            target = fctx[-1]
            message = fctx[-2]
            kind, payload, pending = _dispatch(
                target,
                message,
                fctx[2],
                fctx[3],
                fctx[4],
                view,
                effects,
                alloc_fn,
                builtin_fn,
                tracer,
            )
            if kind == _ABORT:
                return ABORT
            frame[1] = rest
            if kind == _VALUE:
                fctx.append(payload)
            else:
                frames.append([payload, payload[0], pending])
            continue

        if head == OP_RECALL:
            if not is_pair(rest):
                return ABORT
            j, k = rest
            fctx = frame[0]
            if not is_atom(j) or j >= len(fctx):
                return ABORT
            value = fctx[j]
            if type(value) is _LazyLog:
                value = fctx[j] = value.force()
            fctx.append(value)
            frame[1] = k
            continue

        if head == OP_QUOTE:
            if not is_pair(rest):
                return ABORT
            frame[0].append(rest[0])
            frame[1] = rest[1]
            continue

        # Any other pair: push the head verbatim, continue with the tail.
        frame[0].append(head)
        frame[1] = rest
