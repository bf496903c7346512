"""Scenario fixtures and the checkpointing transform.

The fixtures self-check their pinned traces; here we also freeze the
interesting log shapes directly and drive the fold-structured objects
through randomized message streams.
"""

import random

import pytest

from sendkernel.assembler import Const, ProgramBuilder, Slot
from sendkernel.cli import _print_results
from sendkernel.patterns import (
    CHECKPOINT,
    CLONE,
    DEPOSIT,
    FIXTURES,
    KV_GET,
    KV_SET,
    REVEAL,
    STORE,
    FixtureMismatch,
    FoldSpec,
    build_naive,
    checkpoint_transform,
    counter_spec,
    creator,
    dispatch_tags,
    fixture_auction,
    fixture_auction_abort,
    fixture_delegation,
    fixture_escrow,
    fixture_escrow_wrong_phase,
    kv_spec,
    poke,
)
from sendkernel.patterns import LEQ_PROGRAM, _leq  # noqa: F401
from sendkernel.sexpr import dumps, equal
from sendkernel.state import ABORT, LogEntry, StateView
from sendkernel.txn import Kernel, SystemState


def run_tx(system, kernel, tx):
    return kernel.submit(system, tx)


def fresh():
    return Kernel(), SystemState.fresh()


# fixtures ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_self_checks(name):
    trace = FIXTURES[name]()
    assert trace.system.records, name


def test_delegation_trace_shape():
    trace = fixture_delegation()
    texts = [dumps(r.result) for r in trace.system.records]
    assert texts == [
        "15",
        "[14,100]",
        "16",
        "[16,[42,200]]",
        "18",
        "[17,300]",
    ]
    # the echo object heard from the ephemeral's inheritor, the wrapper's
    # inheritor, and the persistent relay itself
    view = StateView(trace.system.kernel)
    callers = [c for c, _ in view.log_of(15)][1:]
    assert callers == [14, 16, 17]


def test_delegation_table_renders(capsys):
    trace = fixture_delegation()
    _print_results([(r.seq, r.result) for r in trace.system.records], "table")
    table = capsys.readouterr().out
    assert "COMMIT" in table and "[17,300]" in table
    assert len(table.splitlines()) == 7


def test_auction_reveal_appends_reveal_entries():
    trace = fixture_auction()
    view = StateView(trace.system.kernel)
    b1 = view.log_of(17)
    assert len(b1) == 4  # birth, init, store, reveal
    assert b1[3][0] == 14 and equal(b1[3][1], (REVEAL, 0))


def test_auction_forged_store_aborts():
    trace = fixture_auction()
    kernel, system = Kernel(), trace.system
    before = system.kernel.canonical_lines()
    forged = kernel.submit(system, poke(17, (STORE, 999)))  # caller 1, not the proxy
    assert forged.result is ABORT
    assert system.kernel.canonical_lines() == before


def test_auction_reveal_gate_blocks_non_creator():
    trace = fixture_auction()
    kernel, system = Kernel(), trace.system
    stray = kernel.submit(system, poke(15, (17, (REVEAL, 0))))  # proxy, not creator
    assert stray.result is ABORT


def test_auction_abort_variant_is_traceless():
    trace = fixture_auction_abort()
    aborted = [r for r in trace.system.records if not r.committed]
    assert len(aborted) == 1


def test_escrow_wrong_phase_variant():
    fixture_escrow_wrong_phase()


def test_escrow_completion_is_terminal():
    trace = fixture_escrow()
    kernel, system = Kernel(), trace.system
    again = kernel.submit(system, poke(16, (9009, 0)))  # query after completion
    assert again.result is ABORT


def test_fixture_mismatch_raises():
    # a fixture running against the wrong expectation machinery must raise,
    # not silently pass; simulate by corrupting a pinned expectation
    import sendkernel.patterns as patterns

    original = patterns.DELEGATION_RESULTS
    patterns.DELEGATION_RESULTS = [99] + original[1:]
    try:
        with pytest.raises(FixtureMismatch):
            fixture_delegation()
    finally:
        patterns.DELEGATION_RESULTS = original


# builder-level pieces -----------------------------------------------------------


def test_dispatch_tags_defaults_abort():
    kernel, system = fresh()
    program = dispatch_tags([(7000, (0, 0))])
    kernel.submit(system, creator(program))
    assert kernel.submit(system, poke(14, (7000, 1))).result == 0
    assert kernel.submit(system, poke(14, (7001, 1))).result is ABORT
    assert kernel.submit(system, poke(14, 5)).result is ABORT


@pytest.mark.parametrize(
    "a,b,expected", [(0, 0, 0), (3, 5, 0), (5, 3, 1), (4, 4, 0), (0, 9, 0), (9, 0, 1)]
)
def test_leq_loop(a, b, expected):
    kernel, system = fresh()
    builder = ProgramBuilder()
    _leq(builder, Const(a), Const(b))
    record = kernel.submit(system, (builder.halt(), 0))
    assert record.result == expected


# fold-structured objects ----------------------------------------------------------


def build_object(program):
    kernel, system = fresh()
    record = kernel.submit(system, creator(program))
    assert record.result == 14
    return kernel, system


def ask(kernel, system, message):
    return kernel.submit(system, poke(14, message))


def test_naive_counter_counts_every_message():
    kernel, system = build_object(build_naive(counter_spec()))
    answers = [ask(kernel, system, (5000, i)).result for i in range(6)]
    assert answers == [0, 1, 2, 3, 4, 5]


def test_checkpoint_counter_matches_naive():
    naive_k, naive_s = build_object(build_naive(counter_spec()))
    fast_k, fast_s = build_object(checkpoint_transform(counter_spec()))
    for i in range(8):
        a = ask(naive_k, naive_s, (5000, i))
        b = ask(fast_k, fast_s, (5000, i))
        assert a.committed and b.committed
        assert equal(a.result, b.result)


def test_checkpoint_log_interleaves_checkpoints():
    kernel, system = build_object(checkpoint_transform(counter_spec()))
    for i in range(4):
        ask(kernel, system, (5000, i))
    rows = StateView(system.kernel).log_of(14)
    assert len(rows) == 9  # birth + (checkpoint, message) per call
    checkpoints = [(c, m) for c, m in rows if c == 14]
    assert len(checkpoints) == 4
    payloads = [m[1] for _, m in checkpoints]
    assert payloads == [0, 1, 2, 3]  # each carries the state BEFORE its call
    for _, m in checkpoints:
        assert m[0] == CHECKPOINT


def test_forged_checkpoint_is_just_another_message():
    naive_k, naive_s = build_object(build_naive(counter_spec()))
    fast_k, fast_s = build_object(checkpoint_transform(counter_spec()))
    stream = [(5000, 0), (CHECKPOINT, 77), (5000, 1), (CHECKPOINT, (1, 1)), (5000, 2)]
    for message in stream:
        a = ask(naive_k, naive_s, message)
        b = ask(fast_k, fast_s, message)
        assert a.committed and b.committed and equal(a.result, b.result)


def test_malformed_checkpoint_payload_aborts():
    # only the object itself can write a checkpoint-shaped entry; fake the
    # breach below the public interface to prove the failure is loud, not
    # silently repaired
    kernel, system = build_object(checkpoint_transform(kv_spec()))
    ask(kernel, system, (KV_SET, (7, 40)))
    system.kernel.append_all([LogEntry(14, 14, (CHECKPOINT, (3, 3)))])
    wedged = ask(kernel, system, (KV_GET, 7))  # lookup walks the fake state
    assert wedged.result is ABORT

    kernel, system = build_object(checkpoint_transform(counter_spec()))
    ask(kernel, system, (5000, 0))
    system.kernel.append_all([LogEntry(14, 14, (CHECKPOINT, (3, 3)))])
    adopted = ask(kernel, system, (5000, 1))  # nothing pending: garbage echoes
    assert adopted.committed
    stepped = ask(kernel, system, (5000, 2))  # incrementing a pair has no value
    assert stepped.result is ABORT


def test_kv_set_get_and_shadowing():
    kernel, system = build_object(build_naive(kv_spec()))
    assert ask(kernel, system, (KV_GET, 7)).result == 0
    assert ask(kernel, system, (KV_SET, (7, 40))).result == 0
    assert ask(kernel, system, (KV_GET, 7)).result == 40
    ask(kernel, system, (KV_SET, (8, 9)))
    ask(kernel, system, (KV_SET, (7, 41)))
    assert ask(kernel, system, (KV_GET, 7)).result == 41  # newest binding wins
    assert ask(kernel, system, (KV_GET, 8)).result == 9
    assert ask(kernel, system, (KV_GET, 99)).result == 0


def random_kv_stream(rng, length):
    stream = []
    for _ in range(length):
        roll = rng.random()
        key = rng.randrange(6)
        if roll < 0.45:
            stream.append((KV_SET, (key, rng.randrange(50))))
        elif roll < 0.9:
            stream.append((KV_GET, key))
        elif roll < 0.95:
            stream.append(rng.randrange(10))  # stray atom
        else:
            stream.append((CHECKPOINT, key))  # forged tag from outside
    return stream


@pytest.mark.parametrize("seed", range(6))
def test_kv_equivalence_on_random_streams(seed):
    rng = random.Random(seed)
    naive_k, naive_s = build_object(build_naive(kv_spec()))
    fast_k, fast_s = build_object(checkpoint_transform(kv_spec()))
    model = {}
    for message in random_kv_stream(rng, 40):
        a = ask(naive_k, naive_s, message)
        b = ask(fast_k, fast_s, message)
        assert a.committed == b.committed
        if a.committed:
            assert equal(a.result, b.result)
        if isinstance(message, tuple) and message[0] == KV_SET:
            model[message[1][0]] = message[1][1]
        if isinstance(message, tuple) and message[0] == KV_GET:
            assert a.result == model.get(message[1], 0)


def test_clone_child_can_clone_again():
    trace = FIXTURES["clone"]()
    kernel, system = Kernel(), trace.system
    grandchild = kernel.submit(system, poke(15, (CLONE, 0)))
    assert grandchild.result == 16
    view = StateView(system.kernel)
    assert equal(view.program_of(16), view.program_of(14))


def test_bootloader_deposit_does_not_run_code():
    kernel, system = fresh()
    from sendkernel.patterns import BOOTLOADER_PROGRAM

    kernel.submit(system, creator(BOOTLOADER_PROGRAM))
    aborting = ProgramBuilder()
    aborting_code = aborting.fail()
    record = kernel.submit(system, poke(14, (DEPOSIT, aborting_code)))
    assert record.result == 0  # storing a bomb is fine; running it is not
    assert kernel.submit(system, poke(14, 1)).result is ABORT
