"""State projections against brute-force references, log encoding, snapshots."""

import random

from hypothesis import given
from hypothesis import strategies as st

import pytest

from sendkernel.assembler import Const, ProgramBuilder
from sendkernel.dispatch import FIRST_IDENTITY, alloc_sequential, make_hash_allocator
from sendkernel.interpreter import run
from sendkernel.patterns import CLONE, CLONEABLE_PROGRAM, ECHO_PROGRAM
from sendkernel.sexpr import dumps, equal
from sendkernel.state import (
    ABORT,
    Abort,
    Effects,
    KernelState,
    LogEntry,
    StateView,
    TxRecord,
    UndefinedObjectError,
    encode_log,
    rows_equal,
)


def ref_log_of(entries, receiver):
    return [(e.caller, e.message) for e in entries if e.receiver == receiver]


def ref_exists(entries, ident):
    if not isinstance(ident, int) or ident == 0:
        return False
    return any(e.receiver == 0 and e.message == ident for e in entries)


def random_entries(rng, n):
    out = []
    for _ in range(n):
        if rng.random() < 0.3:
            ident = rng.randrange(14, 24)
            out.append(LogEntry(0, rng.randrange(0, 20), ident))
            out.append(LogEntry(ident, rng.randrange(0, 20), rng.randrange(0, 99)))
        else:
            out.append(
                LogEntry(
                    rng.randrange(0, 24),
                    rng.randrange(0, 20),
                    (rng.randrange(9), rng.randrange(9)) if rng.random() < 0.4 else rng.randrange(999),
                )
            )
    return out


class TestAbortMarker:
    def test_singleton_outside_value_domain(self):
        assert Abort() is ABORT
        assert repr(ABORT) == "ABORT"
        assert not isinstance(ABORT, (int, tuple))

    def test_txrecord_committed_flag(self):
        assert TxRecord(0, (0, 0), 5, (), (), 0).committed
        assert not TxRecord(0, (0, 0), ABORT, (), (), 0).committed

    def test_txrecord_parses_a_text_transaction_on_every_read(self):
        held = TxRecord(0, "[1,[2,0]]", 5, (), (), 0)
        assert held.tx == (1, (2, 0)) and held.tx is not held.tx
        assert held == TxRecord(0, (1, (2, 0)), 5, (), (), 0) == held
        assert held == TxRecord(0, "[1,[2,0]]", 5, (), (), 0)
        for other in ("[1,[2,1]]", (1, (2, 1))):
            assert held != TxRecord(0, other, 5, (), (), 0)
            assert TxRecord(0, (1, (2, 0)), 5, (), (), 0) != TxRecord(0, other, 5, (), (), 0)


class TestRowsEqual:
    def test_field_by_field(self):
        rows = [LogEntry(14, 2, (1, 0)), LogEntry(0, 14, 15)]
        assert rows_equal(rows, tuple(rows)) and rows_equal((), [])
        assert not rows_equal(rows, rows[:1])
        assert not rows_equal(rows, [LogEntry(14, 2, (1, 1)), LogEntry(0, 14, 15)])

    def test_values_nested_past_the_recursion_limit(self):
        a, b = 0, 1
        for i in range(50_000):
            a, b = (i, a), (i, b)
        assert rows_equal([LogEntry(14, 2, a)], [LogEntry(14, 2, (49_999, a[1]))])
        assert not rows_equal([LogEntry(14, 2, a)], [LogEntry(14, 2, b)])
        assert not rows_equal([LogEntry(14, 2, a)], [LogEntry(14, 3, a)])


class TestProjections:
    def test_frozen_example_log_and_program(self):
        # An object's log lists (caller, message) rows oldest first; the
        # birth record stays row 0 no matter how much arrives afterwards.
        k = KernelState.from_entries(
            [
                LogEntry(0, 1, 15),
                LogEntry(15, 1, (3, (1, 0))),
                LogEntry(15, 14, 100),
            ]
        )
        v = StateView(k)
        assert v.log_of(15) == [(1, (3, (1, 0))), (14, 100)]
        assert v.program_of(15) == (3, (1, 0))
        assert v.exists(15)
        assert not v.exists(16)
        assert not v.exists(0)
        assert v.registry_len() == 1

    def test_program_of_missing_raises(self):
        v = StateView(KernelState())
        with pytest.raises(UndefinedObjectError):
            v.program_of(14)

    def test_pending_entries_visible(self):
        k = KernelState()
        pending = [LogEntry(0, 1, 14), LogEntry(14, 1, 42)]
        v = StateView(k, pending=pending)
        assert v.exists(14)
        assert v.program_of(14) == 42
        assert v.log_of(14) == [(1, 42)]
        assert v.registry_len() == 1

    def test_prefix_pins_view(self):
        k = KernelState.from_entries([LogEntry(0, 1, 14), LogEntry(14, 1, 7)])
        v = StateView(k, k_len=0)
        assert not v.exists(14)
        assert v.log_of(14) == []
        k.append_all([LogEntry(14, 1, 8)])  # appends beyond the pin stay invisible
        assert v.log_of(14) == []
        assert StateView(k).log_of(14) == [(1, 7), (1, 8)]

    def test_pin_before_birth_falls_through_to_pending(self):
        k = KernelState.from_entries([LogEntry(0, 1, 14), LogEntry(14, 1, 7)])
        assert StateView(k, k_len=1, pending=[LogEntry(14, 1, 9)]).program_of(14) == 9
        with pytest.raises(UndefinedObjectError):
            StateView(k, k_len=1).program_of(14)
        assert StateView(k, k_len=2).program_of(14) == 7
        assert [StateView(k, k_len=n).registry_len() for n in (0, 1, 2)] == [0, 1, 1]
        pending = [LogEntry(0, 1, 15), LogEntry(15, 1, 3), LogEntry(0, 1, 16)]
        assert StateView(k, k_len=1, pending=pending).registry_len() == 3
        # The same view answers again after the pending list grows.
        pending = []
        v = StateView(k, k_len=1, pending=pending)
        with pytest.raises(UndefinedObjectError):
            v.program_of(14)
        pending.append(LogEntry(14, 1, 9))
        assert v.program_of(14) == 9 and v.exists(14) and v.registry_len() == 1

    @given(st.randoms(use_true_random=False))
    def test_pending_lookups_match_linear_scan_as_pending_grows(self, rng):
        committed = random_entries(rng, rng.randrange(0, 30))
        k = KernelState.from_entries(committed)
        cut = rng.randrange(0, len(committed) + 1)
        pending = []
        v = StateView(k, k_len=cut, pending=pending)
        for _ in range(rng.randrange(1, 6)):
            pending.extend(random_entries(rng, rng.randrange(0, 8)))
            visible = committed[:cut] + pending
            for ident in range(0, 26):
                assert v.exists(ident) == ref_exists(visible, ident)
                rows = ref_log_of(visible, ident)
                if rows:
                    assert v.program_of(ident) == rows[0][1]
                else:
                    with pytest.raises(UndefinedObjectError):
                        v.program_of(ident)
            assert v.registry_len() == len(ref_log_of(visible, 0))

    def test_matches_bruteforce_reference(self):
        rng = random.Random(1918)
        for _ in range(200):
            entries = random_entries(rng, rng.randrange(0, 40))
            k = KernelState.from_entries(entries)
            cut = rng.randrange(0, len(entries) + 1)
            pending = entries[cut:]
            v = StateView(k, k_len=cut, pending=pending)
            visible = entries[:cut] + pending
            for ident in range(0, 26):
                assert v.log_of(ident) == ref_log_of(visible, ident)
                assert v.exists(ident) == ref_exists(visible, ident)
            assert v.registry_len() == len(ref_log_of(visible, 0))

    def test_index_reconstructible(self):
        rng = random.Random(7)
        entries = random_entries(rng, 60)
        a = KernelState.from_entries(entries)
        b = KernelState()
        for e in entries:
            b.append_all([e])
        assert a.canonical_lines() == b.canonical_lines()
        assert StateView(a).log_of(14) == StateView(b).log_of(14)


# Receivers by row count: 14 none, 15 one (its birth), 16 two, 17 four, 20
# one with no creation row, and the kernel three, a pair among them.
INDEXED = [
    LogEntry(0, 1, 15),
    LogEntry(15, 1, 7),
    LogEntry(0, 1, 16),
    LogEntry(16, 1, ECHO_PROGRAM),
    LogEntry(17, 16, (3, 0)),
    LogEntry(16, 15, 5),
    LogEntry(20, 1, 9),
    LogEntry(17, 1, 8),
    LogEntry(0, 1, (5, 5)),
    LogEntry(17, 16, (1, 2)),
    LogEntry(17, 1, 9),
]


class TestCommittedIndex:
    """KernelState holds a receiver's one row as a bare int until its second
    arrives; at every prefix, and every pin of it, the projections read the
    index as a linear scan reads the log."""

    def test_every_prefix_and_pin_matches_a_linear_scan(self):
        for n in range(len(INDEXED) + 1):
            kstate = KernelState.from_entries(INDEXED[:n])
            for receiver in (0, 14, 15, 16, 17, 20):
                want = [i for i, e in enumerate(INDEXED[:n]) if e.receiver == receiver]
                got = kstate.positions_of(receiver)
                assert got.__class__ is list and got == want, (n, receiver)
                assert kstate.first_position(receiver) == (want[0] if want else None)
                held = kstate._positions.get(receiver)
                assert (held.__class__ is int) == (len(want) == 1), (n, receiver)
            for cut in range(n + 1):
                for pending in ([], list(INDEXED[cut:n])):
                    view = StateView(kstate, cut, pending)
                    visible = INDEXED[:cut] + pending
                    for ident in (0, 14, 15, 16, 17, 20, (5, 5)):
                        rows = ref_log_of(visible, ident)
                        assert view.log_of(ident) == rows, (n, cut, ident)
                        assert view.exists(ident) == ref_exists(visible, ident)
                        if rows:
                            assert view.program_of(ident) == rows[0][1]
                        else:
                            with pytest.raises(UndefinedObjectError):
                                view.program_of(ident)
                    assert view.registry_len() == len(ref_log_of(visible, 0))


def interleaved_creations():
    """One transaction that creates objects and sends to each just after:
    a cloneable object cloning itself inside its own frame, echoes, and the
    clone answering.  Each persistent frame's return row lands between two
    creations."""
    b = ProgramBuilder()
    parent = b.call(Const(0), Const(CLONEABLE_PROGRAM))
    child = b.call(parent, Const((CLONE, 0)))
    first = b.call(Const(0), Const(ECHO_PROGRAM))
    b.call(first, Const(5))
    b.call(child, Const((77, 8)))
    second = b.call(Const(0), Const(ECHO_PROGRAM))
    b.call(second, Const(6))
    b.call(Const(0), Const(CLONEABLE_PROGRAM))
    b.call(first, Const(7))
    return b.halt()


def registry_blind(view):
    """An allocator that reads no projection: its creations are appended
    while rows before them wait to be indexed."""
    return FIRST_IDENTITY + 1000 + len(view.pending)


def assert_view_matches(view, kstate, k_len):
    """view's lookups equal a fresh view's over the same pending rows and a
    view of KernelState.from_entries of the committed prefix and them."""
    pending = list(view.pending)
    fresh = StateView(kstate, k_len, pending)
    rebuilt = StateView(KernelState.from_entries(kstate.entries[:k_len] + pending))
    rows = kstate.entries[:k_len] + pending
    idents = {e.receiver for e in rows} | {e.message for e in rows if e.receiver == 0}
    idents |= {1, 9999}
    for reference in (fresh, rebuilt):
        assert view.registry_len() == reference.registry_len()
        for ident in sorted(idents):
            assert view.exists(ident) == reference.exists(ident), ident
            if reference.exists(ident):
                assert equal(view.program_of(ident), reference.program_of(ident)), ident
            assert rows_equal(view.log_of(ident), reference.log_of(ident)), ident


class TestPendingIndex:
    """The kernel case indexes its creation and birth rows as it appends
    them when the index is current; frame return rows wait for a lookup."""

    @pytest.mark.parametrize(
        "alloc",
        [alloc_sequential, make_hash_allocator(99), registry_blind],
        ids=["seq", "hash", "blind"],
    )
    def test_every_step_of_interleaved_creations(self, alloc):
        kstate = KernelState.from_entries(
            [LogEntry(0, 1, 14), LogEntry(14, 1, ECHO_PROGRAM), LogEntry(14, 1, 3)]
        )
        program = interleaved_creations()
        stale = 0  # steps after which rows wait to be indexed
        n = 0
        while True:
            n += 1
            effects = Effects()
            view = StateView(kstate, kstate.size, effects.entries)
            result, left = run([program, 0, 1, 0, 1], program, view, effects, n, alloc)
            stale += view._indexed < len(view.pending)
            assert_view_matches(view, kstate, kstate.size)
            if result is not ABORT:
                break
        creations = [e for e in effects.entries if e.receiver == 0]
        assert left == 0 and len(creations) == 5 and stale > 0


class TestEncodeLog:
    def test_frozen_shapes(self):
        assert encode_log([]) == 0
        assert encode_log([(1, 7)]) == ((1, 7), 0)
        e0, e1, e2 = (1, 5), (2, 6), (3, 7)
        assert encode_log([e0, e1, e2]) == ((1, 5), ((2, 6), ((3, 7), 0)))

    def test_oldest_outermost(self):
        chain = encode_log([(1, 100), (2, 200)])
        assert chain[0] == (1, 100)
        assert chain[1][0] == (2, 200)

    @given(
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=12),
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=12),
    )
    def test_injective(self, a, b):
        if a != b:
            assert encode_log(a) != encode_log(b)

    def test_long_chain_iterative(self):
        rows = [(i % 7, i) for i in range(100_000)]
        chain = encode_log(rows)
        assert equal(chain[0], (0, 0))
        assert len(dumps(chain)) > 100_000
