"""Transaction atomicity, record discipline, determinism, replayability."""

import random

import pytest

from sendkernel.patterns import ECHO_PROGRAM, creator, poke
from sendkernel.sexpr import dumps
from sendkernel.state import ABORT, LogEntry
from sendkernel.txn import Kernel, KernelConfig, SystemState

from test_interpreter import ECHO, asm


def fresh():
    return Kernel(), SystemState.fresh()


class TestKernelConfig:
    @pytest.mark.parametrize("salt", [-1, True, 1.5, "x"])
    def test_refuses_a_salt_that_is_not_a_natural(self, salt):
        with pytest.raises(ValueError, match="salt"):
            KernelConfig("hash", salt=salt)

    @pytest.mark.parametrize("budget", [0, -1, True, 1.5, "x"])
    def test_refuses_a_budget_that_is_not_positive(self, budget):
        with pytest.raises(ValueError, match="step_budget"):
            KernelConfig(step_budget=budget)

    def test_accepts_the_least_values(self):
        config = KernelConfig("hash", salt=0, step_budget=1)
        assert (config.salt, config.step_budget) == (0, 1)


class TestExecute:
    def test_trivial_commit(self):
        kernel, system = fresh()
        out = kernel.execute(system.kernel, 0, ((42, 0), 0))
        assert out.result == 42
        assert out.entries == [] and out.externals == []

    def test_non_pair_submission_aborts(self):
        kernel, system = fresh()
        out = kernel.execute(system.kernel, 0, 7)
        assert out.result is ABORT

    def test_execute_does_not_apply(self):
        kernel, system = fresh()
        out = kernel.execute(system.kernel, 0, (asm(("quote", ECHO), ("push", 0), ("send",)), 0))
        assert out.result == 14 and len(out.entries) == 2
        assert system.k_len == 0  # nothing applied until submit commits

    def test_abort_returns_no_effects(self):
        kernel, system = fresh()
        prog = asm(("push", 8), ("quote", (7, 5)), ("send",), end=4)  # external send, then fail
        out = kernel.execute(system.kernel, 0, (prog, 0))
        assert out.result is ABORT
        assert out.entries == [] and out.externals == []


class TestSubmit:
    def test_commit_applies_and_records(self):
        kernel, system = fresh()
        rec = kernel.submit(system, (asm(("quote", ECHO), ("push", 0), ("send",)), 0))
        assert rec.committed and rec.result == 14
        assert system.k_len == 2
        assert len(system.records) == 1

    def test_abort_leaves_state_untouched(self):
        kernel, system = fresh()
        kernel.submit(system, (asm(("quote", ECHO), ("push", 0), ("send",)), 0))
        before = list(system.kernel.canonical_lines())
        rec = kernel.submit(system, (4, 0))
        assert not rec.committed
        assert rec.externals == ()
        assert system.kernel.canonical_lines() == before
        assert len(system.records) == 2  # aborts still get their record

    def test_every_submission_appends_exactly_one_record(self):
        kernel, system = fresh()
        txs = [((42, 0), 0), (4, 0), 7, (asm(("quote", ECHO), ("push", 0), ("send",)), 0)]
        for tx in txs:
            kernel.submit(system, tx)
        assert len(system.records) == len(txs)

    def test_aborted_tx_releases_no_externals(self):
        kernel, system = fresh()
        # One successful external, then an invalid send: all-or-nothing.
        prog = asm(
            ("push", 8),
            ("quote", (7, 1)),
            ("send",),
            ("push", 0),
            ("push", 99),
            ("send",),
        )
        rec = kernel.submit(system, (prog, 0))
        assert not rec.committed and rec.externals == ()

    def test_committed_tx_releases_externals_in_order(self):
        kernel, system = fresh()
        prog = asm(
            ("push", 8),
            ("quote", (7, 1)),
            ("send",),
            ("push", 9),
            ("quote", (7, 2)),
            ("send",),
        )
        rec = kernel.submit(system, (prog, 0))
        assert [x.target for x in rec.externals] == [(7, 1), (7, 2)]

    def test_cross_transaction_visibility(self):
        kernel, system = fresh()
        kernel.submit(system, (asm(("quote", ECHO), ("push", 0), ("send",)), 0))
        rec = kernel.submit(system, (asm(("push", 31), ("quote", 14), ("send",)), 0))
        assert rec.result == (1, 31)
        assert system.kernel.entries[-1] == LogEntry(14, 1, 31)

    def test_budget_abort_is_a_recorded_outcome(self):
        kernel = Kernel(KernelConfig(step_budget=10))
        system = SystemState.fresh()
        looper = asm(("recall", 0), ("recall", 0), ("send",))
        rec = kernel.submit(system, (looper, 0))
        assert not rec.committed
        assert system.k_len == 0

    def test_on_commit_sees_each_outcome_before_it_is_applied(self):
        kernel, system = fresh()
        seen = []

        def on_commit(tx, outcome, k_len_after):
            seen.append((tx, outcome.committed, k_len_after, len(system.records)))

        create = (asm(("quote", ECHO), ("push", 0), ("send",)), 0)
        first = kernel.submit(system, create, on_commit)
        second = kernel.submit(system, (4, 0), on_commit)
        assert seen == [(create, True, 2, 0), ((4, 0), False, 2, 1)]
        assert (first.k_len_after, second.k_len_after) == (2, 2)

        def refuse(tx, outcome, k_len_after):
            raise OSError("disk full")

        with pytest.raises(OSError):
            kernel.submit(system, create, refuse)
        assert len(system.records) == 2 and system.k_len == 2


def deep_value(depth, leaf):
    value = leaf
    for _ in range(depth):
        value = (value, 1)
    return value


class TestDeepRecords:
    def test_records_of_a_200k_deep_message_compare_and_print(self):
        records = []
        for leaf in (5, 5, 6):
            kernel, system = fresh()
            kernel.submit(system, creator(ECHO_PROGRAM))
            records.append(kernel.submit(system, poke(14, deep_value(200_000, leaf))))
        record, twin, other = records
        assert record is not twin and record == twin
        assert record != other
        assert repr(record).startswith("TxRecord(seq=1, result=[1,[[[")
        with pytest.raises(TypeError):
            hash(record)


class TestDeterminism:
    def test_same_sequence_same_state(self):
        txs = _random_tx_sequence(random.Random(5150), 60)
        a = _run_all(txs)
        b = _run_all(txs)
        assert a.kernel.canonical_lines() == b.kernel.canonical_lines()
        assert [dumps_result(r) for r in a.records] == [dumps_result(r) for r in b.records]

    def test_prefix_monotone(self):
        kernel, system = fresh()
        sizes = []
        for tx in _random_tx_sequence(random.Random(77), 40):
            kernel.submit(system, tx)
            sizes.append(system.k_len)
        assert sizes == sorted(sizes)


def dumps_result(record):
    return "ABORT" if not record.committed else dumps(record.result)


def _run_all(txs):
    kernel, system = fresh()
    for tx in txs:
        kernel.submit(system, tx)
    return system


def _random_tx_sequence(rng, n):
    txs = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.3:
            txs.append((asm(("quote", ECHO), ("push", 0), ("send",)), 0))
        elif roll < 0.6:
            ident = rng.randrange(14, 14 + 6)
            txs.append((asm(("push", rng.randrange(100)), ("quote", ident), ("send",)), 0))
        elif roll < 0.7:
            txs.append((4, 0))
        elif roll < 0.8:
            txs.append((asm(("push", rng.randrange(50)), ("push", 13), ("send",)), 0))
        else:
            txs.append(((rng.randrange(1000), 0), 0))
    return txs
