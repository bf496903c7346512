"""Concurrent admission must be indistinguishable from the serial loop.

The oracle is literal: run the same batch through Kernel.submit one at a
time and compare every record and the final log bit for bit.  A kernel
that stalls executions on worker threads (but not on the committing
thread) forces the stale-snapshot path deterministically.
"""

import random
import threading
import time

import pytest

from sendkernel import ABORT, Kernel, KernelConfig, SystemState
from sendkernel.durability import Store, replay_verify
from sendkernel.scheduler import footprint, run_concurrent, write_set

from test_interpreter import ECHO, asm


def tx_create(program=ECHO):
    return (asm(("push", program), ("push", 0), ("send",)), 0)


def tx_send(target, message):
    return (asm(("push", message), ("push", target), ("send",)), 0)


def tx_outward(address, message):
    return (asm(("push", message), ("push", (7, address)), ("send",)), 0)


TX_ABORT = ((0, 4), 0)


def random_batch(rng, size):
    txs = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.30:
            txs.append(tx_create())
        elif roll < 0.70:
            txs.append(tx_send(rng.randrange(14, 14 + size), rng.randrange(1000)))
        elif roll < 0.80:
            txs.append(TX_ABORT)
        elif roll < 0.90:
            txs.append(tx_outward(rng.randrange(5), rng.randrange(100)))
        else:
            txs.append(tx_send(11, (rng.randrange(50), rng.randrange(50))))
    return txs


def serial_oracle(config, txs):
    kernel = Kernel(config)
    system = SystemState.fresh()
    records = [kernel.submit(system, tx) for tx in txs]
    return records, system.kernel.canonical_lines()


class TestFootprints:
    def test_write_set_of_commit(self):
        kernel = Kernel()
        outcome = kernel.execute(SystemState.fresh().kernel, 0, tx_create())
        assert write_set(outcome) == frozenset({0, 14})

    def test_write_set_of_abort_is_empty(self):
        kernel = Kernel()
        outcome = kernel.execute(SystemState.fresh().kernel, 0, TX_ABORT)
        assert write_set(outcome) == frozenset()

    def test_footprint_keeps_probes_of_aborted_execution(self):
        kernel = Kernel()
        outcome = kernel.execute(SystemState.fresh().kernel, 0, tx_send(20, 1))
        assert outcome.result is ABORT
        assert 20 in footprint(outcome)


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_matches_serial_oracle(self, workers):
        rng = random.Random(1000 + workers)
        for round_no in range(8):
            txs = random_batch(rng, rng.randrange(1, 41))
            config = KernelConfig()
            expected_records, expected_lines = serial_oracle(config, txs)

            kernel = Kernel(config)
            system = SystemState.fresh()
            out = run_concurrent(kernel, system, txs, workers=workers)

            assert len(out.records) == len(txs)
            assert out.records == expected_records
            assert system.kernel.canonical_lines() == expected_lines

    def test_hash_allocator_batches_match(self):
        rng = random.Random(7)
        config = KernelConfig("hash", salt=3)
        txs = [tx_create() for _ in range(12)] + [tx_send(14, 5)]
        expected_records, expected_lines = serial_oracle(config, txs)
        system = SystemState.fresh()
        out = run_concurrent(Kernel(config), system, txs, workers=4)
        assert out.records == expected_records
        assert system.kernel.canonical_lines() == expected_lines

    def test_empty_batch(self):
        system = SystemState.fresh()
        out = run_concurrent(Kernel(), system, [], workers=4)
        assert out.records == [] and out.retries == 0

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            run_concurrent(Kernel(), SystemState.fresh(), [], workers=0)


class StallingKernel(Kernel):
    """Sleeps in execute on worker threads, never on the committing thread."""

    def __init__(self, config=None, delay=0.05):
        super().__init__(config)
        self.delay = delay
        self.main = threading.current_thread()

    def execute(self, kstate, k_len, tx):
        if threading.current_thread() is not self.main:
            time.sleep(self.delay)
        return super().execute(kstate, k_len, tx)


class TestValidation:
    def test_probe_of_absent_identity_forces_retry(self):
        # The send to 14 speculates before the creation commits, observes
        # an absent identity, and aborts; validation must catch the
        # creation of 14 and re-execute, or the batch would diverge from
        # the serial loop.
        kernel = StallingKernel()
        system = SystemState.fresh()
        txs = [tx_create(), tx_send(14, 123)]
        out = run_concurrent(kernel, system, txs, workers=2)
        assert out.retries >= 1
        assert out.records[1].committed
        assert out.records[1].result == (1, 123)  # echo: [caller, message]

    def test_allocating_speculations_conflict_on_the_registry(self):
        kernel = StallingKernel(delay=0.02)
        system = SystemState.fresh()
        txs = [tx_create() for _ in range(6)]
        out = run_concurrent(kernel, system, txs, workers=6)
        assert [r.result for r in out.records] == [14, 15, 16, 17, 18, 19]
        assert out.retries >= 1

    def test_worker_exception_propagates(self):
        class BrokenKernel(Kernel):
            def execute(self, kstate, k_len, tx):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("boom")
                return super().execute(kstate, k_len, tx)

        with pytest.raises(RuntimeError):
            run_concurrent(BrokenKernel(), SystemState.fresh(), [tx_create()], workers=1)


class TestDurableWiring:
    def test_on_commit_streams_a_verifiable_store(self, tmp_path):
        rng = random.Random(42)
        txs = random_batch(rng, 30)
        config = KernelConfig()
        store = Store.create(str(tmp_path / "s.log"), config, sync="none")
        kernel = Kernel(config)
        system = SystemState.fresh()
        run_concurrent(
            kernel,
            system,
            txs,
            workers=4,
            on_commit=lambda tx, outcome, k_after: store.append(tx, outcome, k_after),
        )
        store.close()

        back, report = Store.open(str(tmp_path / "s.log"), strict=True)
        assert report.clean and len(back.records) == len(txs)
        assert replay_verify(back) is None
        assert back.committed_state().canonical_lines() == system.kernel.canonical_lines()
        back.close()
