"""Builder output shapes are frozen against hand-assembled chains, then the
macro layer is exercised by actually running the built programs."""

import pytest

from sendkernel import ABORT
from sendkernel.assembler import (
    ABORT_PROGRAM,
    SEED_CALLER,
    SEED_MESSAGE,
    Const,
    ProgramBuilder,
    Slot,
    runnable,
)

from test_interpreter import asm, run_top


class TestRawEmission:
    def test_push_atom(self):
        a = ProgramBuilder()
        a.push(42)
        assert a.halt() == (42, 0)

    def test_push_pair_is_plain(self):
        # A pair head is never mistaken for an instruction code.
        a = ProgramBuilder()
        a.push((1, 1))
        assert a.halt() == ((1, 1), 0)

    @pytest.mark.parametrize("opcode", [2, 3, 5])
    def test_push_opcode_atom_becomes_quote(self, opcode):
        a = ProgramBuilder()
        a.push(opcode)
        program = a.halt()
        assert program == (5, (opcode, 0))
        result, _, _ = run_top(program, 0)
        assert result == opcode

    def test_recall_and_send_chain(self):
        a = ProgramBuilder()
        a.recall(1)
        a.push(10)
        a.send()
        assert a.halt() == (3, (1, (10, (2, 0))))

    def test_fail_terminator(self):
        a = ProgramBuilder()
        a.push(0)
        assert a.fail() == ABORT_PROGRAM

    def test_slots_are_absolute_positions(self):
        a = ProgramBuilder()
        first = a.push(100)
        a.push(200)
        a.push(300)
        a.value(first)
        assert first == Slot(5)
        result, _, _ = run_top(a.halt(), 0)
        assert result == 100

    def test_recall_out_of_range(self):
        a = ProgramBuilder()
        with pytest.raises(ValueError):
            a.recall(5)

    def test_builder_is_single_use(self):
        a = ProgramBuilder()
        a.push(1)
        a.halt()
        with pytest.raises(RuntimeError):
            a.halt()

    def test_value_rejects_raw_sexprs(self):
        a = ProgramBuilder()
        with pytest.raises(TypeError):
            a.value(7)


class TestTargetGuards:
    def test_runnable_rewrites_pair_former_head(self):
        assert runnable((6, 0)) == (5, (6, 0))

    def test_runnable_rewrites_outward_head(self):
        assert runnable((7, 0)) == (5, (7, 0))

    def test_runnable_passes_other_pairs(self):
        assert runnable((8, 0)) == (8, 0)

    def test_runnable_rejects_atoms(self):
        with pytest.raises(ValueError):
            runnable(4)

    def test_finished_program_head_is_guarded(self):
        # Pushing raw atom 6 first would make the whole program classify
        # as a pair former when sent to.
        a = ProgramBuilder()
        a.push(6)
        program = a.halt()
        assert program == (5, (6, 0))
        result, _, _ = run_top(program, 0)
        assert result == 6


class TestMacros:
    def test_call_sends_message_to_target(self):
        # Target 8 is the head operator.
        a = ProgramBuilder()
        a.call(Const(8), Const((41, 99)))
        result, _, _ = run_top(a.halt(), 0)
        assert result == 41

    def test_cons_const_head(self):
        a = ProgramBuilder()
        a.cons(Const(1), Const(2))
        result, _, _ = run_top(a.halt(), 0)
        assert result == (1, 2)

    def test_cons_slot_head(self):
        a = ProgramBuilder()
        h = a.push(30)
        a.cons(h, Const(40))
        result, _, _ = run_top(a.halt(), 0)
        assert result == (30, 40)

    def test_head_tail_increment(self):
        a = ProgramBuilder()
        msg = Slot(SEED_MESSAGE)
        h = a.head(msg)
        t = a.tail(msg)
        hi = a.increment(h)
        a.cons(hi, t)
        result, _, _ = run_top(a.halt(), (10, 20))
        assert result == (11, 20)

    def test_eq_equal_and_unequal(self):
        a = ProgramBuilder()
        a.eq(Const((1, 2)), Const((1, 2)))
        result, _, _ = run_top(a.halt(), 0)
        assert result == 0

        b = ProgramBuilder()
        b.eq(Const(1), Const(2))
        result, _, _ = run_top(b.halt(), 0)
        assert result == (1, 2)

    def test_halt_with(self):
        a = ProgramBuilder()
        slot = a.push(77)
        a.push(0)
        result, _, _ = run_top(a.halt_with(slot), 0)
        assert result == 77


def arm_returning_caller_and_arg():
    b = ProgramBuilder()
    b.cons(Slot(SEED_CALLER), Slot(SEED_MESSAGE))
    return b.halt()


class TestBranch:
    def build(self, cond_value):
        a = ProgramBuilder()
        cond = a.push(cond_value)
        atom_arm = asm(("push", 100))
        pair_arm = asm(("push", 200))
        a.branch(cond, atom_arm, pair_arm, Const(0))
        return a.halt()

    def test_atom_picks_first_arm(self):
        result, _, _ = run_top(self.build(9), 0)
        assert result == 100

    def test_pair_picks_second_arm(self):
        result, _, _ = run_top(self.build((0, 0)), 0)
        assert result == 200

    def test_arm_inherits_context_and_receives_arg(self):
        a = ProgramBuilder()
        cond = a.push(0)
        a.branch(cond, arm_returning_caller_and_arg(), ABORT_PROGRAM, Const(55))
        result, _, _ = run_top(a.halt(), 0)
        # Top-level frames run with caller 1.
        assert result == (1, 55)

    def test_abort_arm_aborts(self):
        a = ProgramBuilder()
        cond = a.push((1, 1))
        a.branch(cond, asm(("push", 1)), ABORT_PROGRAM, Const(0))
        result, _, _ = run_top(a.halt(), 0)
        assert result is ABORT

    def test_guarded_arm_heads(self):
        # An arm that starts by pushing raw 6 must still run as code.
        arm = (6, 0)
        a = ProgramBuilder()
        cond = a.push(3)
        a.branch(cond, arm, ABORT_PROGRAM, Const(0))
        result, _, _ = run_top(a.halt(), 0)
        assert result == 6


def counting_loop_body(limit):
    """Loop body; argument is [body, current]. Counts current up to limit.

    The body receives its own code in the argument so arms can re-enter it:
    a fresh frame's position 0 is the arm itself, not the enclosing body.
    """
    done = ProgramBuilder()
    done.tail(Slot(SEED_MESSAGE))
    done_arm = done.halt()

    again = ProgramBuilder()
    body = again.head(Slot(SEED_MESSAGE))
    cur = again.tail(Slot(SEED_MESSAGE))
    nxt = again.increment(cur)
    state = again.cons(body, nxt)
    again.call(body, state)
    again_arm = again.halt()

    a = ProgramBuilder()
    cur = a.tail(Slot(SEED_MESSAGE))
    hit = a.eq(cur, Const(limit))
    a.branch(hit, done_arm, again_arm, Slot(SEED_MESSAGE))
    return a.halt()


class TestLooping:
    @pytest.mark.parametrize("limit", [0, 1, 25])
    def test_count_up_to_limit(self, limit):
        body = counting_loop_body(limit)
        result, _, _ = run_top(body, (body, 0))
        assert result == limit

    def test_loop_spends_budget_linearly(self):
        body = counting_loop_body(50)
        _, _, spent_small = run_top(body, (body, 0))
        body2 = counting_loop_body(100)
        _, _, spent_big = run_top(body2, (body2, 0))
        spent_per_iter = (spent_big - spent_small) / 50
        assert 10 <= spent_per_iter <= 60
