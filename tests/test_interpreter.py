"""Interpreter case table, dispatch integration, context rules, budget."""

import random
import sys

import pytest

from sendkernel import interpreter, txn
from sendkernel.assembler import SEED_MESSAGE, ProgramBuilder, Slot
from sendkernel.interpreter import DEFAULT_STEP_BUDGET, run
from sendkernel.patterns import ECHO_PROGRAM, creator, poke
from sendkernel.sexpr import equal
from sendkernel.state import ABORT, Effects, KernelState, LogEntry, StateView, encode_log
from sendkernel.txn import Kernel, KernelConfig, SystemState


def asm(*ops, end=0):
    """Hand assembler for raw instruction chains (tests only).

    push falls back to quote for atoms 2/3/5, which as instruction heads
    would otherwise mean send/recall/quote instead of a plain push.
    """
    out = end
    for op in reversed(ops):
        kind = op[0]
        if kind == "push":
            if op[1] in (2, 3, 5):
                out = (5, (op[1], out))
            else:
                out = (op[1], out)
        elif kind == "quote":
            out = (5, (op[1], out))
        elif kind == "recall":
            out = (3, (op[1], out))
        elif kind == "send":
            out = (2, out)
        else:
            raise ValueError(op)
    return out


# Returns [caller, message]; the workhorse receiver for provenance checks.
ECHO = asm(
    ("recall", 4),
    ("push", 10),
    ("send",),
    ("recall", 1),
    ("recall", 7),
    ("send",),
)

# Returns [self, caller].
SHOW_CTX = asm(
    ("recall", 2),
    ("push", 10),
    ("send",),
    ("recall", 4),
    ("recall", 7),
    ("send",),
)

# Returns the position-3 log view untouched.
SHOW_LOG = asm(("recall", 3))


def state_with(*objects, extra=()):
    entries = []
    for ident, program in objects:
        entries.append(LogEntry(0, 1, ident))
        entries.append(LogEntry(ident, 1, program))
    entries.extend(extra)
    return KernelState.from_entries(entries)


def run_top(program, message, kstate=None, budget=DEFAULT_STEP_BUDGET):
    """Seed the standard top-level context and run; returns the steps spent."""
    kstate = kstate or KernelState()
    effects = Effects()
    view = StateView(kstate, kstate.size, effects.entries)
    ctx = [program, message, 1, 0, 1]
    result, left = run(ctx, program, view, effects, budget)
    return result, effects, budget - left


class TestInstructionCases:
    def test_push_then_halt(self):
        result, _, _ = run_top((42, 0), 0)
        assert result == 42

    def test_atom_instruction_returns_top(self):
        # Any terminal atom except 4 returns the top of the context; the
        # atom's own value is ignored, even when it collides with an opcode.
        for terminal in (0, 1, 2, 3, 5, 13, 99):
            result, _, _ = run_top((42, terminal), 0)
            assert result == 42

    def test_fail_instruction_aborts(self):
        result, _, _ = run_top(4, 0)
        assert result is ABORT
        result, _, _ = run_top((42, 4), 0)
        assert result is ABORT

    def test_pushing_atom_4_is_not_abort(self):
        result, _, _ = run_top((4, 0), 0)
        assert result == 4

    def test_recall_positions(self):
        assert run_top((3, (0, 0)), 9)[0] == (3, (0, 0))  # the program itself
        assert run_top((3, (1, 0)), 9)[0] == 9  # the message
        assert run_top((3, (2, 0)), 9)[0] == 1  # top-level self is the world
        assert run_top((3, (3, 0)), 9)[0] == 0  # top-level log view is empty
        assert run_top((3, (4, 0)), 9)[0] == 1  # top-level caller is the world

    def test_recall_out_of_range_aborts(self):
        assert run_top((3, (5, 0)), 9)[0] is ABORT
        assert run_top((3, (99, 0)), 9)[0] is ABORT

    def test_recall_malformed_aborts(self):
        assert run_top((3, 7), 9)[0] is ABORT
        assert run_top((3, ((1, 1), 0)), 9)[0] is ABORT  # index must be an atom

    def test_quote_pushes_uninterpreted(self):
        prog = (5, ((2, (2, 2)), 0))  # quoted value full of opcode atoms
        assert run_top(prog, 0)[0] == (2, (2, 2))

    def test_quote_malformed_aborts(self):
        assert run_top((5, 7), 0)[0] is ABORT

    def test_push_pair_head(self):
        prog = (((1, 2), 0), 0)  # head is a pair: plain push
        assert run_top(prog, 0)[0] == ((1, 2), 0)

    def test_send_uses_top_as_target_below_as_message(self):
        # push 9 (message), push 8=HEAD target? HEAD(9) undefined -> abort,
        # proving 8 was the target and 9 the message.
        assert run_top(asm(("push", 9), ("push", 8), ("send",)), 0)[0] is ABORT
        # Reversed: message [1,2], target 8 -> HEAD -> 1.
        prog = asm(("quote", (1, 2)), ("push", 8), ("send",))
        assert run_top(prog, 0)[0] == 1


class TestSendCases:
    def test_builtin_send(self):
        prog = asm(("push", 41), ("push", 13), ("send",))
        assert run_top(prog, 0)[0] == 42

    def test_builtin_undefined_aborts_whole_run(self):
        prog = asm(("push", 41), ("push", 8), ("send",))
        assert run_top(prog, 0)[0] is ABORT

    def test_kernel_create(self):
        prog = asm(("quote", ECHO), ("push", 0), ("send",))
        result, effects, _ = run_top(prog, 0)
        assert result == 14
        assert effects.entries == [LogEntry(0, 1, 14), LogEntry(14, 1, ECHO)]

    def test_create_input_driven(self):
        # [5,[prog,[0,[2,0]]]] with the program taken from the input slot.
        prog = asm(("recall", 1), ("push", 0), ("send",))
        result, effects, _ = run_top(prog, (7, 7))
        assert result == 14
        assert effects.entries[1] == LogEntry(14, 1, (7, 7))

    def test_two_creates_sequential_ids(self):
        prog = asm(("quote", ECHO), ("push", 0), ("send",), ("quote", ECHO), ("push", 0), ("send",))
        result, effects, _ = run_top(prog, 0)
        assert result == 15
        assert [e.receiver for e in effects.entries] == [0, 14, 0, 15]

    def test_persistent_send_runs_program_and_logs(self):
        k = state_with((14, ECHO))
        prog = asm(("push", 77), ("quote", 14), ("send",))
        result, effects, _ = run_top(prog, 0, k)
        assert result == (1, 77)  # echo saw the world as caller
        assert effects.entries == [LogEntry(14, 1, 77)]

    def test_persistent_context_rebound(self):
        k = state_with((14, SHOW_CTX))
        prog = asm(("push", 5), ("quote", 14), ("send",))
        assert run_top(prog, 0, k)[0] == (14, 1)

    def test_ephemeral_context_inherited(self):
        prog = asm(("push", 5), ("quote", SHOW_CTX), ("send",))
        assert run_top(prog, 0)[0] == (1, 1)

    def test_ephemeral_does_not_log(self):
        prog = asm(("push", 5), ("quote", SHOW_CTX), ("send",))
        _, effects, _ = run_top(prog, 0)
        assert effects.entries == []

    def test_pair_form(self):
        prog = asm(("push", 9), ("quote", (6, 3)), ("send",))
        assert run_top(prog, 0)[0] == (3, 9)

    def test_pair_form_takes_priority_over_ephemeral(self):
        # [6,a] would also parse as a runnable pair; the former wins.
        prog = asm(("push", 9), ("quote", (6, (5, (1, 0)))), ("send",))
        assert run_top(prog, 0)[0] == ((5, (1, 0)), 9)

    def test_external_send(self):
        prog = asm(("push", 8), ("quote", (7, 5)), ("send",))
        result, effects, _ = run_top(prog, 0)
        assert result == 1
        assert effects.externals == [(1, (7, 5), 8)]

    def test_external_send_records_sender_identity(self):
        k = state_with((14, asm(("push", 8), ("quote", (7, 5)), ("send",))))
        prog = asm(("push", 0), ("quote", 14), ("send",))
        _, effects, _ = run_top(prog, 0, k)
        assert effects.externals == [(14, (7, 5), 8)]

    def test_invalid_targets_abort(self):
        for target in (1, 2, 4, 5, 6, 7, 14, 10**9):
            prog = asm(("push", 0), ("push", target), ("send",))
            assert run_top(prog, 0)[0] is ABORT


class TestViewDuringRun:
    def test_receiver_does_not_see_own_message(self):
        k = state_with((14, SHOW_LOG))
        prog = asm(("push", 55), ("quote", 14), ("send",))
        result, effects, _ = run_top(prog, 0, k)
        # Position 3 held only the birth record; the 55 arrived afterwards.
        assert result == ((1, SHOW_LOG), 0)
        assert effects.entries == [LogEntry(14, 1, 55)]

    def test_read_your_writes_within_transaction(self):
        prog = asm(
            ("quote", ECHO),
            ("push", 0),
            ("send",),
            ("push", 5),
            ("recall", 7),
            ("send",),
        )
        result, effects, _ = run_top(prog, 0)
        assert result == (1, 5)
        assert [e.receiver for e in effects.entries] == [0, 14, 14]

    def test_completion_order_inner_before_outer(self):
        # 14's program forwards its message to 15; 15's entry lands first.
        fwd = asm(("recall", 1), ("quote", 15), ("send",))
        k = state_with((14, fwd), (15, ECHO))
        prog = asm(("push", 9), ("quote", 14), ("send",))
        result, effects, _ = run_top(prog, 0, k)
        assert result == (14, 9)  # echo saw 14, not the world
        assert effects.entries == [LogEntry(15, 14, 9), LogEntry(14, 1, 9)]

    def test_reentrant_self_send(self):
        # On a pair message: send 0 to self.  On an atom message: answer
        # via a pair former.  The inner entry precedes the outer one and
        # the inner run never sees the outer message in its log.
        pinger = asm(
            ("recall", 2),
            ("push", 10),
            ("send",),  # [6,self] @7
            ("push", 0),
            ("recall", 7),
            ("send",),  # [self,0] @10
            ("quote", (6, (6, 5))),
            ("send",),  # arms [[6,5],[self,0]] @12
            ("recall", 1),
            ("push", 10),
            ("send",),  # [6,msg] @15
            ("recall", 12),
            ("recall", 15),
            ("send",),  # [msg,arms] @18
            ("push", 12),
            ("send",),  # selected target @20
            ("push", 0),
            ("recall", 20),
            ("send",),  # answer @23
        )
        k = state_with((14, pinger))
        prog = asm(("quote", (9, 9)), ("quote", 14), ("send",))
        result, effects, _ = run_top(prog, 0, k)
        assert result == (5, 0)
        assert effects.entries == [LogEntry(14, 14, 0), LogEntry(14, 1, (9, 9))]


class TestBudget:
    def test_counts_cases_exactly(self):
        _, _, spent = run_top((42, 0), 0)
        assert spent == 2  # one push, one halt

    def test_exhaustion_aborts(self):
        result, _, spent = run_top((42, 0), 0, budget=1)
        assert result is ABORT
        assert spent == 1
        assert run_top((42, 0), 0, budget=2)[0] == 42

    def test_infinite_loop_cut_deterministically(self):
        # Program sends its message to itself as ephemeral code, forever.
        looper = asm(("recall", 0), ("recall", 0), ("send",))
        r1, _, spent1 = run_top(looper, 0, budget=5000)
        r2, _, spent2 = run_top(looper, 0, budget=5000)
        assert r1 is ABORT and r2 is ABORT
        assert spent1 == spent2 == 5000

    def test_nesting_bounded_by_budget_not_host_stack(self):
        depth = 4 * sys.getrecursionlimit()
        program = (5, (7, 0))
        for _ in range(depth):
            program = asm(("recall", 1), ("quote", program), ("send",))
        result, _, _ = run_top(program, 99)
        assert result == 7


class TestSendFunction:
    """One top-level send through Kernel.execute: what it leaves in the delta."""

    @staticmethod
    def send_once(kstate, target, message):
        tx = (asm(("push", message), ("push", target), ("send",)), 0)
        return Kernel().execute(kstate, kstate.size, tx)

    def test_direct_send_kernel(self):
        outcome = self.send_once(KernelState(), 0, ECHO)
        assert outcome.result == 14
        assert outcome.entries == [LogEntry(0, 1, 14), LogEntry(14, 1, ECHO)]

    def test_direct_send_persistent_appends_after_return(self):
        k = state_with((14, ECHO), (15, SHOW_LOG))
        outcome = self.send_once(k, 14, 3)
        assert outcome.result == (1, 3)
        assert outcome.entries == [LogEntry(14, 1, 3)]
        # A receiver that returns its own log does not see the message in
        # flight: its entry lands only after its frame has returned.
        assert self.send_once(k, 15, 3).result == ((1, SHOW_LOG), 0)

    def test_direct_send_abort_no_partial_entry(self):
        # The receiver creates an object, then runs the abort instruction.
        k = state_with((14, asm(("push", ECHO), ("push", 0), ("send",), end=4)))
        outcome = self.send_once(k, 14, 3)
        assert outcome.result is ABORT
        assert outcome.entries == [] and k.size == 2


def _call_14_or_return():
    """On an atom message: call 14 with 0.  On a pair message: return it."""
    b = ProgramBuilder()
    b.branch(
        Slot(SEED_MESSAGE),
        asm(("push", 0), ("quote", 14), ("send",)),
        asm(("recall", 1)),
        Slot(SEED_MESSAGE),
    )
    return b.halt()


CALL_14_OR_RETURN = _call_14_or_return()


class TestLazyLogSlot:
    """L[3] of a persistent frame is encoded on first read, as of dispatch.

    Every expected value is the eager encoding the slot used to hold:
    encode_log over the receiver's rows visible when it was dispatched.
    """

    @staticmethod
    def eager_log(kstate, pending, ident):
        return encode_log(StateView(kstate, kstate.size, list(pending)).log_of(ident))

    def test_reentered_object_sees_its_log_as_of_dispatch(self):
        # 14 sends 0 to its message, then returns its log; 15 calls 14
        # back with 13.  The top level pokes 14 with 13, then with 15, so
        # 14 is re-entered inside its second call.
        a = asm(("push", 0), ("recall", 1), ("send",), ("recall", 3))
        b = asm(("push", 13), ("quote", 14), ("send",))
        k = state_with((14, a), (15, b), extra=[LogEntry(14, 1, 8)])
        prog = asm(("push", 13), ("quote", 14), ("send",), ("push", 15), ("quote", 14), ("send",))
        result, effects, _ = run_top(prog, 0, k)
        first_call = LogEntry(14, 1, 13)
        inner_call = LogEntry(14, 15, 13)
        assert effects.entries == [first_call, inner_call, LogEntry(15, 14, 0), LogEntry(14, 1, 15)]
        assert result == self.eager_log(k, [first_call], 14)
        assert result != self.eager_log(k, [first_call, inner_call], 14)

    def first_send_hands_log_to_caller(self, program_14):
        k = state_with((14, program_14), (15, CALL_14_OR_RETURN), extra=[LogEntry(14, 1, 8)])
        outcome = Kernel().execute(k, k.size, (asm(("push", 0), ("quote", 15), ("send",)), 0))
        log = self.eager_log(k, [], 14)
        assert outcome.result == log
        assert outcome.entries == [LogEntry(15, 14, log), LogEntry(14, 15, 0), LogEntry(15, 1, 0)]

    def test_persistent_first_send_takes_the_log_as_message(self):
        # A send as the first instruction: target L[4], message L[3].
        self.first_send_hands_log_to_caller((2, 0))

    def test_ephemeral_first_send_takes_the_inherited_log(self):
        # The fragment [2,0] runs with L[3] inherited from 14's frame.
        self.first_send_hands_log_to_caller(asm(("push", 0), ("quote", (2, 0)), ("send",)))

    def test_no_handle_escapes_a_random_corpus(self, monkeypatch):
        # Programs that read their log, send it on first, or inherit it
        # into fragments, next to criterion 6's random send programs.  The
        # same corpus run with every slot forced at dispatch must agree.
        from test_acceptance import _random_value, random_program

        readers = [
            SHOW_LOG,
            (2, 0),
            asm(("push", 0), ("quote", (2, 0)), ("send",)),
            asm(("push", 0), ("quote", SHOW_LOG), ("send",)),
            asm(("push", 0), ("recall", 1), ("send",), ("recall", 3)),
            CALL_14_OR_RETURN,
            ECHO,
        ]

        def corpus_outcomes():
            rng = random.Random(4242)
            kernel, system = Kernel(), SystemState.fresh()
            kernel.submit(system, creator(*readers))
            idents = list(range(14, 14 + len(readers)))
            outcomes = []
            for i in range(600):
                if i % 2:
                    tx = (random_program(rng, idents), _random_value(rng))
                else:
                    target, message = rng.choice(idents), rng.choice(idents + [0, (1, 2)])
                    tx = (asm(("push", message), ("push", target), ("send",)), 0)
                outcome = kernel.execute(system.kernel, system.kernel.size, tx)
                kernel.apply(system, tx, outcome)
                outcomes.append(outcome)
            return outcomes

        def pure(value):
            stack = [value]
            while stack:
                v = stack.pop()
                if isinstance(v, tuple) and len(v) == 2:
                    stack.extend(v)
                elif type(v) is not int:
                    return False
            return True

        encoded = []

        def counting_encode_log(rows):
            encoded.append(1)
            return encode_log(rows)

        monkeypatch.setattr(interpreter, "encode_log", counting_encode_log)
        lazy = corpus_outcomes()
        lazy_reads = len(encoded)
        assert sum(o.committed for o in lazy) > 200
        assert lazy_reads > 100
        for o in lazy:
            assert o.result is ABORT or pure(o.result)
            assert all(pure(e.message) for e in o.entries)
            assert all(pure(x.target) and pure(x.message) for x in o.externals)

        class ForcedAtDispatch(interpreter._LazyLog):
            __slots__ = ()

            def __init__(self, view, receiver):
                super().__init__(view, receiver)
                self.force()

        monkeypatch.setattr(interpreter, "_LazyLog", ForcedAtDispatch)
        eager = corpus_outcomes()
        assert len(encoded) - lazy_reads > lazy_reads
        assert [(o.result, o.entries, o.externals, o.steps) for o in lazy] == [
            (o.result, o.entries, o.externals, o.steps) for o in eager
        ]

    def test_echo_pokes_encode_no_log(self, monkeypatch):
        calls = []

        def counting_encode_log(rows):
            calls.append(1)
            return encode_log(rows)

        monkeypatch.setattr(interpreter, "encode_log", counting_encode_log)
        kernel, system = Kernel(), SystemState.fresh()
        kernel.submit(system, creator(ECHO_PROGRAM, SHOW_LOG))
        for i in range(2000):
            assert kernel.submit(system, poke(14, i)).result == (1, i)
        assert calls == []
        # One log read encodes once, over the history it was dispatched with.
        assert kernel.submit(system, poke(15, 0)).result == ((1, SHOW_LOG), 0)
        assert calls == [1]


LOOPER = asm(("recall", 0), ("recall", 0), ("send",))  # sends itself itself, forever

# One transaction per way to abort, after a creation and a committed poke.
# 14 echoes; 15 creates an object, then runs the abort instruction.
ABORT_WORKLOAD = [
    creator(ECHO, asm(("push", ECHO), ("push", 0), ("send",), end=4)),
    poke(14, 3),
    (LOOPER, 0),  # budget exhaustion
    poke(15, 0),  # OP_FAIL inside a persistent frame
    (asm(("push", 41), ("push", 8), ("send",)), 0),  # HEAD of an atom
    poke(99, 0),  # uncreated target
    (asm(("push", 5), ("quote", 14), ("send",), ("recall", 99)), 0),  # bad recall index
    (asm(("push", 5), ("quote", 14), ("send",), end=(5, 7)), 0),  # malformed quote
    5,  # not a pair
]
ABORT_BUDGET = 5000


class TestPinnedSteps:
    """Every ExecResult.steps of the fixture traffic and of each abort kind.

    Step counts are part of the semantics, so they are literals here.  The
    (result, steps left) pair run returns is read as it returns: budget
    minus steps left must equal ExecResult.steps on every exit.
    """

    FIXTURE_STEPS = [
        [7, 19, 4, 22, 7, 19],  # delegation
        [10, 230, 113, 230, 113, 11158],  # auction
        [10, 92, 136, 151, 65, 56],  # escrow
        [4, 58, 61, 61],  # clone
        [4, 201, 44, 356],  # bootloader
        [10, 59, 175, 291, 407, 357, 747, 1018, 1289, 433, 1045, 1377],  # folds
    ]
    ABORT_STEPS = [7, 11, 5000, 7, 3, 3, 11, 11, 0]

    @staticmethod
    def steps(monkeypatch, kernel, txs):
        spent = []

        def run_then_read_steps(ctx, instr, view, effects, budget, *rest):
            result, left = run(ctx, instr, view, effects, budget, *rest)
            spent.append(budget - left)
            return result, left

        monkeypatch.setattr(txn, "run", run_then_read_steps)
        system = SystemState.fresh()
        steps = []
        for tx in txs:
            del spent[:]
            outcome = kernel.execute(system.kernel, system.k_len, tx)
            kernel.apply(system, tx, outcome)
            assert spent == ([outcome.steps] if isinstance(tx, tuple) else [])
            steps.append(outcome.steps)
        return steps, [r.committed for r in system.records]

    def test_fixture_workloads(self, monkeypatch):
        from test_acceptance import _fixture_workloads

        got = [self.steps(monkeypatch, Kernel(), txs)[0] for txs in _fixture_workloads()]
        assert got == self.FIXTURE_STEPS

    def test_each_abort_kind(self, monkeypatch):
        kernel = Kernel(KernelConfig(step_budget=ABORT_BUDGET))
        steps, committed = self.steps(monkeypatch, kernel, ABORT_WORKLOAD)
        assert committed == [True, True] + [False] * 7
        assert steps[2] == ABORT_BUDGET and steps[-1] == 0
        assert steps == self.ABORT_STEPS
