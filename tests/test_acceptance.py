"""Acceptance gate: eleven system-level criteria, one test function each.

Every test prints a "[criterion N]" summary line and pytest -v contributes
the pass/fail verdict per criterion.  Criterion 10 checks what the
snapshot rewrite bounds: the fold's step fragment runs once per call.  It
does not ask for constant per-call cost.  The log encoding keeps the
oldest entry outermost, so locating the newest snapshot still walks the
whole history, and the test pins that as a fixed step increment per call.

All randomness is drawn from fixed seeds; the suite is deterministic.
"""

from __future__ import annotations

import random
import time
import zlib

import pytest

from sendkernel import cli
from sendkernel.assembler import (
    ABORT_PROGRAM,
    Const,
    ProgramBuilder,
    SEED_CALLER,
    SEED_MESSAGE,
    Slot,
    runnable,
)
from sendkernel.compose import Router, replicate
from sendkernel.dispatch import (
    B_BRANCH,
    B_EQUAL,
    B_HEAD,
    B_INCREMENT,
    B_PAIR,
    B_TAIL,
    EXTERNAL,
    EXTERNAL_TAG,
    KERNEL,
    PAIR_TAG,
    DispatchCase,
    builtin,
    classify,
)
from sendkernel.durability import (
    DurableSystem,
    Store,
    StoreUninitialized,
    dispatch_externals,
    read_store,
    replay_verify,
)
from sendkernel.patterns import (
    BOOTLOADER_PROGRAM,
    CLONE,
    CLONEABLE_PROGRAM,
    CONFIRM,
    DEPOSIT,
    ECHO_PROGRAM,
    KV_GET,
    KV_SET,
    QUERY,
    RELAY_PROGRAM,
    auction_transactions,
    build_naive,
    checkpoint_transform,
    counter_spec,
    creator,
    delegation_transactions,
    escrow_setup,
    kv_spec,
    poke,
)
from sendkernel.scheduler import run_concurrent
from sendkernel.sexpr import dumps, equal, parse
from sendkernel.state import ABORT, KernelState, LogEntry, StateView
from sendkernel.txn import Kernel, KernelConfig, SystemState

MASTER_SEED = 0xACCE97

# canonical-text alphabet, used by the store mutation harness
_CANON = b"0123456789[],"


# shared generators ------------------------------------------------------------


def _random_value(rng, depth=2):
    if depth == 0 or rng.random() < 0.6:
        return rng.randrange(0, 200)
    return (_random_value(rng, depth - 1), _random_value(rng, depth - 1))


def random_program(rng, idents, allow_external=True):
    """One send program drawn from the instruction grammar.

    Covers pushes, pair construction, built-ins, creation, persistent
    sends, ephemeral fragments, pair formers and outward sends.  Programs
    may abort; an abort is a legitimate recorded outcome.
    """
    b = ProgramBuilder()
    slots = [Slot(SEED_MESSAGE), Slot(SEED_CALLER)]

    def source():
        if rng.random() < 0.5:
            return slots[rng.randrange(len(slots))]
        return Const(_random_value(rng))

    for _ in range(rng.randint(1, 8)):
        op = rng.randrange(9)
        if op == 0:
            slots.append(b.push(_random_value(rng)))
        elif op == 1:
            slots.append(b.cons(source(), source()))
        elif op == 2:
            slots.append(b.call(Const(rng.randrange(B_HEAD, B_INCREMENT + 1)), source()))
        elif op == 3 and idents:
            slots.append(b.call(Const(rng.choice(idents)), source()))
        elif op == 4:
            slots.append(b.call(Const(KERNEL), Const(rng.choice((ECHO_PROGRAM, RELAY_PROGRAM)))))
        elif op == 5:
            slots.append(b.call(Const((PAIR_TAG, _random_value(rng))), source()))
        elif op == 6 and allow_external:
            slots.append(b.call(Const((EXTERNAL_TAG, _random_value(rng))), source()))
        elif op == 7:
            slots.append(b.call(Const(ECHO_PROGRAM), source()))
        else:
            slots.append(b.increment(source()))
    return b.halt_with(slots[rng.randrange(len(slots))])


def created_idents(system):
    """Identities minted so far, read off the creation records."""
    return [e.message for e in system.kernel.entries if e.receiver == KERNEL]


def build_route(hops, final, payload):
    """Relay route [h1,[h2,...[final,payload]]] plus what each hop receives."""
    chain = (final, payload)
    received = [None] * len(hops)
    for i in range(len(hops) - 1, -1, -1):
        received[i] = chain
        chain = (hops[i], chain)
    return chain, received


def result_text(record):
    return "ABORT" if record.result is ABORT else dumps(record.result)


# store file surgery (independent re-derivation of the frame layout) -----------


def walk_frames(data):
    """[(frame_start, payload_start, payload)] for a clean store image."""
    frames = []
    pos = 0
    while pos < len(data):
        start = pos
        colon = data.index(b":", pos)
        length = int(data[start:colon])
        payload_start = colon + 1 + 8 + 1
        payload = data[payload_start : payload_start + length]
        frames.append((start, payload_start, payload))
        pos = payload_start + length + 1
    return frames


def delta_span(payload):
    """(offset, length) of the delta-chain text inside a record payload."""
    text = payload.decode("ascii")
    rec = parse(text)
    seq_v, rest = rec
    tx_v, rest = rest
    tagged, rest = rest
    delta = rest[0]
    offset = 7 + len(dumps(seq_v)) + len(dumps(tx_v)) + len(dumps(tagged))
    span = dumps(delta)
    assert text[offset : offset + len(span)] == span
    return offset, len(span)


# criterion 1 -------------------------------------------------------------------


def test_criterion_01_delegation_trace(tmp_path):
    """Delegation fixture on a fresh sequential-allocator store, bit-exact."""
    started = time.monotonic()
    path = tmp_path / "delegation.store"
    ds = DurableSystem.create(str(path), KernelConfig(allocator="seq"))
    records = [ds.submit(tx) for tx in delegation_transactions()]

    golden = ["15", "[14,100]", "16", "[16,[42,200]]", "18", "[17,300]"]
    got = [result_text(r) for r in records]
    assert got == golden

    view = StateView(ds.system.kernel)
    callers = [caller for caller, _ in view.log_of(15)]
    assert callers[1:] == [14, 16, 17]
    ds.close()
    assert replay_verify(read_store(str(path))) is None

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        f"[criterion 1] delegation results {got}, echo callers {callers[1:]}, "
        f"{elapsed:.3f}s PASS"
    )


# criterion 2 -------------------------------------------------------------------


def test_criterion_02_auction_trace():
    """Auction goldens plus the aborted-reveal variant leaving logs untouched."""
    started = time.monotonic()
    kernel, system = Kernel(), SystemState.fresh()
    records = [kernel.submit(system, tx) for tx in auction_transactions()]

    golden = ["16", "17", "0", "18", "0", "16"]
    got = [result_text(r) for r in records]
    assert got == golden

    view = StateView(system.kernel)
    b1_caller, b1_message = view.log_of(17)[2]
    b2_caller, b2_message = view.log_of(18)[2]
    assert b1_caller == 15 and dumps(b1_message) == "[9002,100]"
    assert b2_caller == 16 and dumps(b2_message) == "[9002,150]"
    assert records[-1].result == 16  # winner answered with the second proxy

    # variant: B2 never stores a bid, so its REVEAL aborts the whole reveal
    kernel2, system2 = Kernel(), SystemState.fresh()
    setup = auction_transactions()[:-1]
    del setup[4]  # drop the second STORE: bid 18 stays empty
    for tx in setup:
        assert kernel2.submit(system2, tx).result is not ABORT
    lines_before = tuple(system2.kernel.canonical_lines())
    reveal = kernel2.submit(system2, poke(14, (9004, 0)))
    assert reveal.result is ABORT
    assert tuple(system2.kernel.canonical_lines()) == lines_before
    aborted = [r for r in system2.records if r.result is ABORT]
    assert len(aborted) == 1

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        f"[criterion 2] auction results {got}, bid rows pinned, aborted reveal "
        f"left {len(lines_before)} entries untouched, {elapsed:.3f}s PASS"
    )


# criterion 3 -------------------------------------------------------------------


SEQUENCES = 1000
SEQUENCE_MAX_LEN = 50
MUTANTS = 120


def _random_sequence(rng):
    """(config, txs): a setup transaction plus random follow-on traffic."""
    if rng.random() < 0.5:
        config = KernelConfig(allocator="seq")
    else:
        config = KernelConfig(allocator="hash", salt=rng.randrange(1 << 30))
    txs = [creator(ECHO_PROGRAM, RELAY_PROGRAM, ECHO_PROGRAM)]
    return config, txs


def _run_sequence(config, setup, rng, length):
    kernel, system = Kernel(config), SystemState.fresh()
    for tx in setup:
        kernel.submit(system, tx)
    idents = created_idents(system)
    txs = list(setup)
    for _ in range(length):
        if rng.random() < 0.2:
            tx = creator(rng.choice((ECHO_PROGRAM, RELAY_PROGRAM)))
        else:
            tx = (random_program(rng, idents), _random_value(rng))
        txs.append(tx)
        kernel.submit(system, tx)
    return txs, [result_text(r) for r in system.records], system.kernel.canonical_lines()


def test_criterion_03_replay_determinism(tmp_path):
    """Re-execution from empty reproduces (K, T results); verify catches lies."""
    rng = random.Random(MASTER_SEED + 3)
    for i in range(SEQUENCES):
        config, setup = _random_sequence(rng)
        length = rng.randint(1, SEQUENCE_MAX_LEN - len(setup))
        txs, results, lines = _run_sequence(config, setup, rng, length)

        replay_kernel, replay_system = Kernel(config), SystemState.fresh()
        for tx in txs:
            replay_kernel.submit(replay_system, tx)
        assert [result_text(r) for r in replay_system.records] == results, f"sequence {i}"
        assert replay_system.kernel.canonical_lines() == lines, f"sequence {i}"

    # honest stores verify clean through the command-line entry point
    honest = tmp_path / "honest.store"
    ds = DurableSystem.create(str(honest), KernelConfig())
    rich_rng = random.Random(MASTER_SEED + 33)
    for tx in delegation_transactions():
        ds.submit(tx)
    idents = created_idents(ds.system)
    for _ in range(12):
        ds.submit((random_program(rich_rng, idents), _random_value(rich_rng)))
    ds.close()
    assert cli.main(["verify", "--store", str(honest)]) == 0

    # every single-byte mutation of a record's delta text must fail verification
    data = honest.read_bytes()
    frames = walk_frames(data)
    record_frames = frames[1:]
    mutant = tmp_path / "mutant.store"
    crc_caught = 0
    for m in range(MUTANTS):
        start, payload_start, payload = record_frames[rich_rng.randrange(len(record_frames))]
        offset, span = delta_span(payload)
        pos = offset + rich_rng.randrange(span)
        original = payload[pos]
        replacement = rich_rng.choice([c for c in _CANON if c != original])
        image = bytearray(data)
        image[payload_start + pos] = replacement
        if m % 4 == 0:
            crc_caught += 1  # frame checksum left stale: the scan itself objects
        else:
            patched = bytes(image[payload_start : payload_start + len(payload)])
            image[payload_start - 9 : payload_start - 1] = b"%08x" % zlib.crc32(patched)
        mutant.write_bytes(bytes(image))
        code = cli.main(["verify", "--store", str(mutant)])
        assert code == 1, f"mutant {m} at payload byte {pos} verified clean"

    print(
        f"[criterion 3] {SEQUENCES} sequences replayed bit-exactly; "
        f"{MUTANTS} delta mutants rejected ({crc_caught} by checksum, "
        f"{MUTANTS - crc_caught} by replay) PASS"
    )


# criterion 4 -------------------------------------------------------------------


ABORT_CASES = 10_000


def _failing_tx(rng, echoes, relays, aborter):
    """A transaction that queues effects, then fails at a random send depth."""
    b = ProgramBuilder()
    queued_external = False
    for _ in range(rng.randrange(0, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            b.call(Const(rng.choice(echoes)), Const(_random_value(rng)))
        elif kind == 1:
            b.call(Const((EXTERNAL_TAG, rng.randrange(6))), Const(_random_value(rng)))
            queued_external = True
        else:
            b.call(Const(KERNEL), Const(ECHO_PROGRAM))

    depth = rng.randrange(0, 7)
    style = rng.randrange(3)
    if style == 0:
        core = ABORT_PROGRAM
        for _ in range(depth):
            wrapper = ProgramBuilder()
            wrapper.call(Const(runnable(core)), Const(0))
            core = wrapper.halt()
        b.call(Const(runnable(core)), Const(0))
        program = b.halt()
    elif style == 1:
        hops = [rng.choice((relays[0], relays[1], RELAY_PROGRAM)) for _ in range(depth)]
        route, _ = build_route(hops, aborter, 0)
        b.call(Const(runnable(RELAY_PROGRAM)), Const(route))
        program = b.halt()
    else:
        program = b.fail()
    return (program, 0), queued_external


def test_criterion_04_abort_atomicity():
    """An abort at any send depth leaves K untouched and releases nothing."""
    rng = random.Random(MASTER_SEED + 4)
    kernel, system = Kernel(), SystemState.fresh()
    kernel.submit(
        system,
        creator(ECHO_PROGRAM, ECHO_PROGRAM, RELAY_PROGRAM, RELAY_PROGRAM, ABORT_PROGRAM),
    )
    echoes, relays, aborter = [14, 15], [16, 17], 18
    base_size = system.kernel.size
    base_lines = tuple(system.kernel.canonical_lines())

    with_externals = 0
    for case in range(ABORT_CASES):
        tx, queued_external = _failing_tx(rng, echoes, relays, aborter)
        record = kernel.submit(system, tx)
        assert record.result is ABORT, f"case {case} unexpectedly committed"
        assert record.externals == (), f"case {case} released external sends"
        assert system.kernel.size == base_size, f"case {case} left entries behind"
        if queued_external:
            with_externals += 1
        if case % 500 == 0:
            assert tuple(system.kernel.canonical_lines()) == base_lines
    assert tuple(system.kernel.canonical_lines()) == base_lines
    assert with_externals >= 1000  # the discarded-externals claim is not vacuous

    # one committed send to Q, then a failing send to R: Q keeps nothing
    q_log_before = len(StateView(system.kernel).log_of(echoes[0]))
    b = ProgramBuilder()
    b.call(Const(echoes[0]), Const(7))
    b.call(Const(aborter), Const(0))
    record = kernel.submit(system, (b.halt(), 0))
    assert record.result is ABORT
    assert len(StateView(system.kernel).log_of(echoes[0])) == q_log_before

    print(
        f"[criterion 4] {ABORT_CASES} injected failures: state unchanged and "
        f"externals empty every time ({with_externals} had queued externals); "
        f"partner log kept nothing PASS"
    )


# criterion 5 -------------------------------------------------------------------


PROVENANCE_CASES = 10_000


def test_criterion_05_provenance():
    """Entry callers always equal the dispatching frame's own identity."""
    rng = random.Random(MASTER_SEED + 5)
    kernel, system = Kernel(), SystemState.fresh()
    kernel.submit(system, creator(RELAY_PROGRAM, RELAY_PROGRAM, RELAY_PROGRAM, ECHO_PROGRAM))
    relays, echo = [14, 15, 16], 17
    k_len = system.k_len

    with_persistent = 0
    with_ephemeral = 0
    for case in range(PROVENANCE_CASES):
        hops = [
            rng.choice((relays[0], relays[1], relays[2], RELAY_PROGRAM))
            for _ in range(rng.randrange(0, 7))
        ]
        payload = _random_value(rng)
        route, received = build_route(hops, echo, payload)
        tx = (RELAY_PROGRAM, route)
        outcome = kernel.execute(system.kernel, k_len, tx)
        assert outcome.committed, f"case {case} aborted"

        current = EXTERNAL
        predicted = []
        for hop, incoming in zip(hops, received):
            if isinstance(hop, int):
                predicted.append((hop, current, incoming))
                current = hop
        predicted.append((echo, current, payload))
        predicted.reverse()  # inner frames complete first

        assert len(outcome.entries) == len(predicted), f"case {case} entry count"
        for entry, (receiver, caller, message) in zip(outcome.entries, predicted):
            assert entry.receiver == receiver, f"case {case} receiver"
            assert entry.caller == caller, f"case {case} caller"
            assert equal(entry.message, message), f"case {case} message"
        assert equal(outcome.result, (current, payload)), f"case {case} echoed caller"

        if any(isinstance(h, int) for h in hops):
            with_persistent += 1
        if any(not isinstance(h, int) for h in hops):
            with_ephemeral += 1

    assert with_persistent >= 3000 and with_ephemeral >= 3000
    print(
        f"[criterion 5] {PROVENANCE_CASES} routed sends: every entry caller matched "
        f"the dispatching frame ({with_persistent} with persistent hops, "
        f"{with_ephemeral} with ephemeral hops) PASS"
    )

# criterion 6 -------------------------------------------------------------------


class ReadTracer:
    """Attributes every log/program projection to the send being dispatched."""

    def __init__(self):
        self.windows = []
        self._current = None

    def on_classify(self, target):
        self._current = [None, target, []]
        self.windows.append(self._current)

    def on_case(self, case, target):
        self._current[0] = case

    def on_projection(self, kind, ident):
        if self._current is not None and kind in ("log", "program"):
            self._current[2].append((kind, ident))

    def on_append(self, entry, caller):
        pass


def _confinement_violations(tracer):
    bad = []
    persistent_windows = 0
    for case, target, projections in tracer.windows:
        if case is DispatchCase.PERSISTENT:
            persistent_windows += 1
            kinds = {kind for kind, _ in projections}
            if kinds != {"log", "program"}:
                bad.append(("persistent window missing a projection", target, projections))
            for kind, ident in projections:
                if ident != target:
                    bad.append(("foreign projection", target, (kind, ident)))
        elif projections:
            bad.append(("projection outside the persistent case", target, projections))
    return bad, persistent_windows


def _fixture_workloads():
    """Transaction lists mirroring every named fixture's traffic."""
    escrow = escrow_setup() + [
        poke(14, (16, (DEPOSIT, 500))),
        poke(15, (16, (CONFIRM, 0))),
        poke(16, (QUERY, 0)),
        poke(15, (16, (DEPOSIT, 1))),
        poke(16, (DEPOSIT, 1)),
    ]
    clone = [
        creator(CLONEABLE_PROGRAM),
        poke(14, (CLONE, 0)),
        poke(14, (77, 8)),
        poke(15, (77, 8)),
    ]
    bootloader = [
        creator(BOOTLOADER_PROGRAM),
        poke(14, 41),
        poke(14, (DEPOSIT, ECHO_PROGRAM)),
        poke(14, 41),
    ]
    folds = [
        creator(
            build_naive(counter_spec()),
            checkpoint_transform(counter_spec()),
            checkpoint_transform(kv_spec()),
        )
    ]
    folds += [poke(14, i) for i in range(4)]
    folds += [poke(15, i) for i in range(4)]
    folds += [poke(16, (KV_SET, (1, 7))), poke(16, (KV_GET, 1)), poke(16, (KV_GET, 9))]
    return [
        delegation_transactions(),
        auction_transactions(),
        escrow,
        clone,
        bootloader,
        folds,
    ]


def test_criterion_06_read_confinement():
    """Only the persistent case projects, and only its own receiver."""
    violations = []
    persistent_total = 0
    windows_total = 0

    for txs in _fixture_workloads():
        tracer = ReadTracer()
        kernel, system = Kernel(tracer=tracer), SystemState.fresh()
        for tx in txs:
            kernel.submit(system, tx)
        bad, persistent = _confinement_violations(tracer)
        violations.extend(bad)
        persistent_total += persistent
        windows_total += len(tracer.windows)

    rng = random.Random(MASTER_SEED + 6)
    tracer = ReadTracer()
    kernel, system = Kernel(tracer=tracer), SystemState.fresh()
    kernel.submit(system, creator(ECHO_PROGRAM, ECHO_PROGRAM, RELAY_PROGRAM, ECHO_PROGRAM))
    idents = created_idents(system)
    for _ in range(1000):
        kernel.submit(system, (random_program(rng, idents), _random_value(rng)))
    for _ in range(800):
        hops = [rng.choice((14, 16, RELAY_PROGRAM)) for _ in range(rng.randrange(0, 5))]
        route, _ = build_route(hops, 17, rng.randrange(100))
        kernel.submit(system, (RELAY_PROGRAM, route))
    bad, persistent = _confinement_violations(tracer)
    violations.extend(bad)
    persistent_total += persistent
    windows_total += len(tracer.windows)

    assert violations == []
    assert persistent_total >= 1000
    print(
        f"[criterion 6] {windows_total} dispatch windows, {persistent_total} persistent, "
        f"zero confinement violations PASS"
    )


# criterion 7 -------------------------------------------------------------------


BUILTIN_ROWS = [
    (B_HEAD, (3, 7), 3),
    (B_HEAD, ((1, 2), 9), (1, 2)),
    (B_HEAD, 5, None),
    (B_HEAD, 0, None),
    (B_TAIL, (3, 7), 7),
    (B_TAIL, (3, (8, 9)), (8, 9)),
    (B_TAIL, 12, None),
    (B_PAIR, 9, (PAIR_TAG, 9)),
    (B_PAIR, (1, 2), (PAIR_TAG, (1, 2))),
    (B_PAIR, 0, (PAIR_TAG, 0)),
    (B_EQUAL, (4, 4), 0),
    (B_EQUAL, (((1, 2), 3), ((1, 2), 3)), 0),
    (B_EQUAL, (4, 5), (4, 5)),
    (B_EQUAL, ((1, 2), (1, 3)), ((1, 2), (1, 3))),
    (B_EQUAL, 4, None),
    (B_BRANCH, 6, None),
    (B_BRANCH, (1, 5), None),
    (B_BRANCH, (1, (5, 6)), None),
    (B_BRANCH, (0, (10, (20, 0))), 10),
    (B_BRANCH, (99, (10, (20, 0))), 10),
    (B_BRANCH, ((0, 0), (10, (20, 0))), 20),
    (B_BRANCH, (7, (10, (20, (99, 77)))), 10),
    (B_INCREMENT, 0, 1),
    (B_INCREMENT, 41, 42),
    (B_INCREMENT, (0, 0), None),
]


def test_criterion_07_builtin_table():
    """Exhaustive operator table, checked directly and through full sends."""
    kernel = Kernel()
    for n, m, expected in BUILTIN_ROWS:
        direct = builtin(n, m)
        if expected is None:
            assert direct is None, f"builtin {n} on {dumps(m)}"
        else:
            assert direct is not None and equal(direct, expected), f"builtin {n} on {dumps(m)}"

        b = ProgramBuilder()
        b.call(Const(n), Const(m))
        record = kernel.submit(SystemState.fresh(), (b.halt(), 0))
        if expected is None:
            assert record.result is ABORT, f"send to {n} with {dumps(m)} should abort"
        else:
            assert equal(record.result, expected), f"send to {n} with {dumps(m)}"

    # full row coverage: every operator has defined rows, and every partial
    # operator has explicit undefined rows
    covered_defined = {n for n, _, e in BUILTIN_ROWS if e is not None}
    covered_bottom = {n for n, _, e in BUILTIN_ROWS if e is None}
    assert covered_defined == {B_HEAD, B_TAIL, B_PAIR, B_EQUAL, B_BRANCH, B_INCREMENT}
    assert covered_bottom == {B_HEAD, B_TAIL, B_EQUAL, B_BRANCH, B_INCREMENT}

    # atoms outside the operator band are never built-ins
    for n in (0, 1, 2, 3, 4, 5, 6, 7, 14, 99):
        assert builtin(n, 5) is None and builtin(n, (1, 2)) is None

    # the partially-applied pair former closes over its head
    b = ProgramBuilder()
    former = b.call(Const(B_PAIR), Const(9))
    b.call(former, Const(33))
    record = kernel.submit(SystemState.fresh(), (b.halt(), 0))
    assert equal(record.result, (9, 33))

    # operator dispatch outranks the registry: even a forged creation record
    # for an operator atom cannot turn it into a persistent object
    forged = KernelState()
    forged.append_all(
        [LogEntry(KERNEL, EXTERNAL, B_INCREMENT), LogEntry(B_INCREMENT, EXTERNAL, ECHO_PROGRAM)]
    )
    view = StateView(forged)
    assert view.exists(B_INCREMENT)
    assert classify(B_INCREMENT, view) is DispatchCase.BUILTIN
    b = ProgramBuilder()
    b.call(Const(B_INCREMENT), Const(41))
    outcome = kernel.execute(forged, forged.size, (b.halt(), 0))
    assert outcome.committed and equal(outcome.result, 42)

    print(
        f"[criterion 7] {len(BUILTIN_ROWS)} operator rows (direct and interpreted), "
        f"closure and priority checks PASS"
    )


# criterion 8 -------------------------------------------------------------------


BATCHES = 200
WORKER_COUNTS = (1, 2, 4, 8)


def test_criterion_08_scheduler_equivalence():
    """Concurrent admission is bit-identical to the serial loop."""
    rng = random.Random(MASTER_SEED + 8)
    hot_batches = 0

    for batch in range(BATCHES):
        config = KernelConfig(allocator="hash", salt=rng.randrange(1 << 30))
        setup = creator(ECHO_PROGRAM, ECHO_PROGRAM, RELAY_PROGRAM)

        def fresh():
            kernel, system = Kernel(config), SystemState.fresh()
            kernel.submit(system, setup)
            return kernel, system

        kernel, system = fresh()
        idents = created_idents(system)

        hot = batch % 5 == 0
        if hot:
            hot_batches += 1
            size = rng.randint(8, 64)
            target = rng.choice(idents)
            txs = [poke(target, i) for i in range(size)]
        else:
            size = rng.randint(1, 64)
            txs = [(random_program(rng, idents), _random_value(rng)) for _ in range(size)]

        for tx in txs:
            kernel.submit(system, tx)
        oracle_results = [result_text(r) for r in system.records]
        oracle_lines = system.kernel.canonical_lines()
        oracle_externals = [
            [(s.sender, dumps(s.target), dumps(s.message)) for s in r.externals]
            for r in system.records
        ]

        for workers in WORKER_COUNTS:
            kernel, system = fresh()
            outcome = run_concurrent(kernel, system, txs, workers=workers)
            assert len(outcome.records) == size, f"batch {batch} phantom records"
            assert len(system.records) == size + 1  # setup plus the batch
            assert [result_text(r) for r in system.records] == oracle_results
            assert system.kernel.canonical_lines() == oracle_lines
            got_externals = [
                [(s.sender, dumps(s.target), dumps(s.message)) for s in r.externals]
                for r in system.records
            ]
            assert got_externals == oracle_externals

    print(
        f"[criterion 8] {BATCHES} batches ({hot_batches} single-hot-object) x workers "
        f"{WORKER_COUNTS}: identical records and state PASS"
    )

# criterion 9 -------------------------------------------------------------------


def _recovery_store(path):
    ds = DurableSystem.create(str(path), KernelConfig())
    for tx in delegation_transactions():
        ds.submit(tx)
    b = ProgramBuilder()
    b.call(Const((EXTERNAL_TAG, 1)), Const(11))
    b.call(Const((EXTERNAL_TAG, 2)), Const(22))
    ds.submit((b.halt(), 0))
    ds.submit((ABORT_PROGRAM, 0))
    ds.submit(poke(15, 5))
    b = ProgramBuilder()
    b.call(Const((EXTERNAL_TAG, 3)), Const(33))
    ds.submit((b.halt(), 0))
    ds.close()


def test_criterion_09_crash_recovery(tmp_path):
    """Truncation at every byte offset recovers the last intact prefix."""
    path = tmp_path / "original.store"
    _recovery_store(path)
    data = path.read_bytes()
    frames = walk_frames(data)
    start0, payload_start0, payload0 = frames[0]
    header_end = payload_start0 + len(payload0) + 1
    record_ends = [ps + len(p) + 1 for _, ps, p in frames[1:]]

    snapshot = read_store(str(path))
    prefix_lines = [[]]
    state = KernelState()
    for record in snapshot.records:
        state.append_all(record.entries)
        prefix_lines.append(list(state.canonical_lines()))

    full_tags = []
    dispatch_externals(
        snapshot.records,
        lambda tag, send: full_tags.append((tag, send.sender, dumps(send.target), dumps(send.message))),
    )
    assert len(full_tags) >= 3
    assert {tag[0][1] for tag in full_tags} >= {0, 1}  # the index axis is exercised

    truncated = tmp_path / "truncated.store"
    uninitialized = 0
    recovered_counts = 0
    for cut in range(len(data) + 1):
        truncated.write_bytes(data[:cut])
        if cut < header_end:
            with pytest.raises(StoreUninitialized):
                Store.open(str(truncated))
            uninitialized += 1
            continue
        expected = sum(1 for end in record_ends if end <= cut)
        clean_end = max([header_end] + [end for end in record_ends if end <= cut])
        store, report = Store.open(str(truncated))
        try:
            assert len(store.records) == expected, f"cut {cut}"
            if cut == clean_end:
                assert report.torn_offset is None and report.dropped_bytes == 0
            else:
                assert report.torn_offset == clean_end
                assert report.dropped_bytes == cut - clean_end
            state = KernelState()
            for record in store.records:
                state.append_all(record.entries)
            assert state.canonical_lines() == prefix_lines[expected], f"cut {cut}"

            redelivered = []
            dispatch_externals(
                store.records,
                lambda tag, send: redelivered.append(
                    (tag, send.sender, dumps(send.target), dumps(send.message))
                ),
            )
            assert redelivered == [t for t in full_tags if t[0][0] < expected], f"cut {cut}"
        finally:
            store.close()
        recovered_counts += 1

    # a failing sink leaves the cursor on the failed send; the retry
    # re-presents it under the same tag
    target_tag = full_tags[len(full_tags) // 2][0]
    seen = []

    def flaky(tag, send):
        if tag == target_tag and not any(t == target_tag for t in seen):
            seen.append(tag)
            raise ConnectionError("sink down")
        seen.append(tag)

    cursor = dispatch_externals(snapshot.records, flaky)
    assert cursor == target_tag
    resumed = []
    dispatch_externals(snapshot.records, lambda tag, send: resumed.append(tag), cursor)
    assert resumed[0] == target_tag
    assert [t[0] for t in full_tags if t[0] >= target_tag] == resumed

    print(
        f"[criterion 9] {len(data) + 1} truncation points: {uninitialized} uninitialized, "
        f"{recovered_counts} recovered to the exact prefix; redelivery tags stable PASS"
    )


# criterion 10 ------------------------------------------------------------------


EQUIVALENCE_SEQUENCES = 1000


def _counter_messages(rng, length):
    out = []
    for _ in range(length):
        r = rng.random()
        if r < 0.6:
            out.append(rng.randrange(10))
        elif r < 0.8:
            out.append((rng.randrange(5), rng.randrange(5)))
        else:
            out.append((9000, _random_value(rng)))  # forged snapshot tag from outside
    return out


def _kv_messages(rng, length):
    out = []
    for _ in range(length):
        r = rng.random()
        if r < 0.45:
            out.append((KV_SET, (rng.randrange(5), rng.randrange(100))))
        elif r < 0.85:
            out.append((KV_GET, rng.randrange(6)))
        elif r < 0.95:
            out.append(rng.randrange(50))
        else:
            out.append((9000, _random_value(rng)))
    return out


def _equivalent_responses(spec, messages):
    kernel, system = Kernel(), SystemState.fresh()
    kernel.submit(system, creator(build_naive(spec), checkpoint_transform(spec)))
    for i, message in enumerate(messages):
        plain = kernel.submit(system, poke(14, message))
        amortized = kernel.submit(system, poke(15, message))
        assert (plain.result is ABORT) == (amortized.result is ABORT), f"message {i}"
        if plain.result is not ABORT:
            assert equal(plain.result, amortized.result), f"message {i}"


def _steps_per_call(program, calls, sample_at):
    kernel, system = Kernel(), SystemState.fresh()
    kernel.submit(system, creator(program))
    samples = {}
    for i in range(1, calls + 1):
        tx = poke(14, 1)
        outcome = kernel.execute(system.kernel, system.k_len, tx)
        assert outcome.committed
        kernel.apply(system, tx, outcome)
        if i in sample_at:
            samples[i] = outcome.steps
    return samples


STEP_RUN_CALLS = 80


def _step_runs_per_call(program, spec, calls):
    """{call: (steps, step-fragment runs)} for calls 1..calls of poke(14, 1)."""
    step = runnable(spec.step)
    tracer = ReadTracer()
    kernel, system = Kernel(tracer=tracer), SystemState.fresh()
    kernel.submit(system, creator(program))
    per_call = {}
    for i in range(1, calls + 1):
        tx = poke(14, 1)
        tracer.windows = []
        outcome = kernel.execute(system.kernel, system.k_len, tx)
        assert outcome.committed
        kernel.apply(system, tx, outcome)
        # == on tuples is structural and stops within the shallow step
        # fragment; sexpr.equal's worklist walk costs more per send
        runs = sum(1 for _, target, _ in tracer.windows if target == step)
        per_call[i] = (outcome.steps, runs)
    return per_call


def test_criterion_10_checkpoint_transform():
    """Fold rewrite: equivalent responses, then one step-fragment run per call."""
    rng = random.Random(MASTER_SEED + 10)
    for i in range(EQUIVALENCE_SEQUENCES // 2):
        _equivalent_responses(counter_spec(), _counter_messages(rng, rng.randint(3, 20)))
    for i in range(EQUIVALENCE_SEQUENCES // 2):
        _equivalent_responses(kv_spec(), _kv_messages(rng, rng.randint(3, 12)))
    print(f"[criterion 10] equivalence over {EQUIVALENCE_SEQUENCES} message sequences PASS")

    plain = _steps_per_call(build_naive(counter_spec()), 160, {20, 40, 80, 160})
    assert plain[20] < plain[40] < plain[80] < plain[160]
    assert 1.5 <= plain[160] / plain[80] <= 2.5
    assert plain[160] / plain[20] >= 3.0
    print(f"[criterion 10] plain fold grows linearly: steps {plain} PASS")

    # The rewrite bounds the fold work, not the scan: each call steps only
    # the entry after the newest checkpoint, but locating that checkpoint
    # walks the whole log, which the encoding keeps oldest entry outermost.
    # So the step fragment runs once per call while total steps still grow
    # by one fixed scan cost per entry.
    for name, spec in (("counter", counter_spec()), ("kv", kv_spec())):
        naive = _step_runs_per_call(build_naive(spec), spec, STEP_RUN_CALLS)
        rewrite = _step_runs_per_call(checkpoint_transform(spec), spec, STEP_RUN_CALLS)
        for i in range(1, STEP_RUN_CALLS + 1):
            assert naive[i][1] == i - 1, f"{name} plain call {i}"
            assert rewrite[i][1] == (0 if i == 1 else 1), f"{name} rewrite call {i}"
        increments = {rewrite[i][0] - rewrite[i - 1][0] for i in range(3, STEP_RUN_CALLS + 1)}
        assert len(increments) == 1, f"{name} rewrite increments {sorted(increments)}"
        (increment,) = increments
        assert increment > 0
        if name == "counter":  # tracing leaves step counts alone
            assert {i: naive[i][0] for i in (20, 40, 80)} == {i: plain[i] for i in (20, 40, 80)}
        curve = {i: rewrite[i][0] for i in (20, 40, 80)}
        print(
            f"[criterion 10] {name}: step fragment runs once per call under the rewrite, "
            f"i-1 times at call i under the plain fold (to call {STEP_RUN_CALLS}); "
            f"rewrite steps {curve} rise by {increment} per call (whole-log scan) PASS"
        )


# criterion 11 ------------------------------------------------------------------


SCENARIOS = 50


def test_criterion_11_composition(tmp_path):
    """Replicas agree; routed sends arrive as outside traffic; aborts stay put."""
    rng = random.Random(MASTER_SEED + 11)
    via_relay_total = 0
    routed_echoes_total = 0

    for scenario in range(SCENARIOS):
        router = Router()
        store_path = tmp_path / f"scenario_{scenario}.store"
        durable = DurableSystem.create(str(store_path), KernelConfig())
        router.add_instance(1, durable=durable)
        router.add_instance(2, config=KernelConfig())
        router.add_instance(3, config=KernelConfig())
        for key in (1, 2, 3):
            record = router.submit(key, creator(ECHO_PROGRAM, ABORT_PROGRAM, RELAY_PROGRAM))
            assert record.result == 16  # echo 14, aborter 15, relay 16
        routed_echoes = {1: 0, 2: 0, 3: 0}

        for _ in range(rng.randint(3, 8)):
            origin = rng.choice((1, 2, 3))
            dest = rng.choice([k for k in (1, 2, 3) if k != origin])
            obj = rng.choice((14, 14, 15))
            payload = rng.randrange(100)
            via_relay = rng.random() < 0.5
            if via_relay:
                tx = poke(16, ((EXTERNAL_TAG, (dest, obj)), payload))
            else:
                b = ProgramBuilder()
                b.call(Const((EXTERNAL_TAG, (dest, obj))), Const(payload))
                tx = (b.halt(), 0)
            record = router.submit(origin, tx)
            assert record.result is not ABORT
            assert len(record.externals) == 1
            # inside the origin the sender is whoever dispatched the outward
            # send; across the boundary the receiver sees only caller 1
            assert record.externals[0].sender == (16 if via_relay else 1)
            if via_relay:
                via_relay_total += 1

            origin_before = tuple(router.instances[origin].canonical_lines())
            report = router.pump()
            assert report.deliveries == 1 and report.dead == 0
            dest_records = router.instances[dest].system.records
            if obj == 15:
                assert dest_records[-1].result is ABORT
                assert tuple(router.instances[origin].canonical_lines()) == origin_before
            else:
                assert equal(dest_records[-1].result, (1, payload))
                routed_echoes[dest] += 1

        for key in (1, 2, 3):
            view = StateView(router.instances[key].system.kernel)
            echo_rows = view.log_of(14)
            assert len(echo_rows) == 1 + routed_echoes[key]
            assert all(caller == 1 for caller, _ in echo_rows[1:])
            assert len(view.log_of(15)) == 1  # aborted deliveries left nothing
            routed_echoes_total += routed_echoes[key]

        durable.close()
        replicas, divergence = replicate(durable.store, 3)
        assert divergence is None and len(replicas) == 3
        want = router.instances[1].canonical_lines()
        for replica in replicas:
            assert replica.kernel.canonical_lines() == want

    assert via_relay_total >= 30 and routed_echoes_total >= 50
    print(
        f"[criterion 11] {SCENARIOS} scenarios: 3-replica agreement, "
        f"{routed_echoes_total} routed deliveries all arrived with caller 1 "
        f"({via_relay_total} originated inside persistent frames), aborts contained PASS"
    )
