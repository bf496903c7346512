"""Admission: Kernel.submit lets in values only, on every path.

A value is an exact int of at least 0 or an exact 2-tuple of values
(sexpr.check_value).  Anything else is refused before it runs, so nothing
is written, applied or logged, and every admitted transaction runs as the
value its canonical text reads back as.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sendkernel import txn
from sendkernel.compose import Router
from sendkernel.durability import DurableSystem, read_store, replay_compare, replay_verify
from sendkernel.patterns import ECHO_PROGRAM, FIXTURES, creator, poke
from sendkernel.scheduler import run_concurrent
from sendkernel.sexpr import dumps, parse
from sendkernel.state import TxRecord
from sendkernel.txn import Kernel, SystemState


class Nat(int):
    pass


DEEP = 200_000


def deep(leaf, depth=DEEP):
    x = leaf
    for i in range(depth):
        x = (i, x)
    return x


def near_values():
    """Values and the things dumps or == take for them."""
    leaves = st.one_of(
        st.integers(min_value=0, max_value=10**20),
        st.booleans(),
        st.integers(min_value=0, max_value=9).map(Nat),
        st.integers(max_value=-1),
        st.floats(allow_nan=False),
        st.none(),
    )

    def nodes(inner):
        return st.one_of(
            st.tuples(inner, inner),
            st.lists(inner, min_size=2, max_size=2),
            st.tuples(),
            st.tuples(inner),
            st.tuples(inner, inner, inner),
        )

    return st.recursive(leaves, nodes, max_leaves=8)


def replays_from_text(records, lines):
    """Each record's tx read back from its canonical text reruns to the
    same outcome and the same log."""
    read = [
        TxRecord(r.seq, parse(dumps(r.tx)), r.result, r.entries, r.externals, r.k_len_after)
        for r in records
    ]
    system, mismatch = replay_compare(read, Kernel())
    assert mismatch is None and system.kernel.canonical_lines() == lines


class KernelPath:
    """A non-durable kernel."""

    def __init__(self, directory):
        self.kernel, self.system = Kernel(), SystemState.fresh()

    def submit(self, tx):
        return self.kernel.submit(self.system, tx)

    def state(self):
        return self.system.kernel.canonical_lines(), list(self.system.records)

    def check_round_trip(self):
        replays_from_text(self.system.records, self.system.kernel.canonical_lines())

    def close(self):
        pass


class DurablePath:
    def __init__(self, directory):
        self.path = os.path.join(directory, "s.log")
        self.durable = DurableSystem.create(self.path, sync="none")
        self.system = self.durable.system

    def submit(self, tx):
        return self.durable.submit(tx)

    def state(self):
        self.durable.store.settle()
        with open(self.path, "rb") as fh:
            image = fh.read()
        return self.system.kernel.canonical_lines(), list(self.system.records), image

    def check_round_trip(self):
        self.durable.close()
        reopened, report = DurableSystem.open(self.path)
        reopened.close()
        assert report.clean
        assert reopened.system.kernel.canonical_lines() == self.system.kernel.canonical_lines()
        assert replay_verify(read_store(self.path, strict=True)) is None

    def close(self):
        self.durable.close()


class RouterPath:
    """A Router over one non-durable and one durable instance: a
    transaction goes to both."""

    def __init__(self, directory):
        self.router = Router()
        self.router.add_instance(1)
        self.durable = DurableSystem.create(os.path.join(directory, "r.log"), sync="none")
        self.router.add_instance(2, durable=self.durable)

    def submit(self, tx):
        for key in (1, 2):
            self.router.submit(key, tx)

    def state(self):
        self.durable.store.settle()
        with open(self.durable.store.path, "rb") as fh:
            image = fh.read()
        instances = self.router.instances.values()
        return [(i.canonical_lines(), list(i.system.records)) for i in instances], image

    def check_round_trip(self):
        plain = self.router.instances[1].system
        replays_from_text(plain.records, plain.kernel.canonical_lines())
        self.durable.close()
        assert replay_verify(read_store(self.durable.store.path, strict=True)) is None

    def close(self):
        self.durable.close()


PATHS = [KernelPath, DurablePath, RouterPath]


def admit_or_refuse(path, tx):
    """Submit tx after an echo object's creation: either it is refused with
    nothing changed, or everything admitted round-trips through its text."""
    path.submit(creator(ECHO_PROGRAM))
    before = path.state()
    try:
        path.submit(tx)
    except ValueError:
        assert path.state() == before
        path.close()
        return False
    path.check_round_trip()
    return True


class TestRefusals:
    def test_a_durable_system_refuses_a_list(self, tmp_path):
        p = tmp_path / "s.log"
        ds = DurableSystem.create(str(p), sync="none")
        ds.submit(creator(ECHO_PROGRAM))
        ds.store.settle()
        image, records, size = p.read_bytes(), list(ds.system.records), ds.system.kernel.size
        with pytest.raises(ValueError):
            ds.submit(list(poke(14, 5)))  # aborts live, but its text commits
        ds.store.settle()
        assert p.read_bytes() == image
        assert ds.system.records == records and ds.system.kernel.size == size
        ds.close()
        assert replay_verify(read_store(str(p), strict=True)) is None

    def test_a_kernel_without_a_store_refuses_true(self):
        kernel, system = Kernel(), SystemState.fresh()
        kernel.submit(system, creator(ECHO_PROGRAM))
        lines = system.kernel.canonical_lines()
        with pytest.raises(ValueError):
            kernel.submit(system, poke(14, True))  # would log "14 1 true"
        assert system.kernel.canonical_lines() == lines and len(system.records) == 1

    def test_a_router_without_stores_refuses_true(self):
        router = Router()
        router.add_instance(1)
        router.submit(1, creator(ECHO_PROGRAM))
        lines = router.instances[1].canonical_lines()
        with pytest.raises(ValueError):
            router.submit(1, poke(14, True))
        assert router.instances[1].canonical_lines() == lines

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("leaf", [[1, 2], True, -1, (1, 2, 3), None, 1.0, Nat(1)])
    def test_a_deep_near_value_is_refused(self, tmp_path, path, leaf):
        assert not admit_or_refuse(path(str(tmp_path)), poke(14, deep(leaf)))

    @pytest.mark.parametrize("path", [DurablePath, RouterPath])  # the codec walks are slow
    def test_a_deep_value_round_trips(self, tmp_path, path):
        assert admit_or_refuse(path(str(tmp_path)), poke(14, deep(7)))

    @settings(max_examples=60, deadline=None)
    @given(near_values(), st.booleans())
    def test_near_values(self, x, whole):
        tx = x if whole else poke(14, x)
        for path in PATHS:
            with tempfile.TemporaryDirectory() as directory:
                admit_or_refuse(path(directory), tx)


class TestOnePath:
    """Every admission path calls txn.check_value once per transaction."""

    def count(self, monkeypatch, admit):
        calls = []

        def counted(x):
            calls.append(x)
            return check(x)

        check = txn.check_value
        monkeypatch.setattr(txn, "check_value", counted)
        admitted = admit()
        assert len(calls) == admitted

    def txs(self):
        return [creator(ECHO_PROGRAM)] + [poke(14, n) for n in range(5)] + [
            creator(*[ECHO_PROGRAM] * 3), creator(*[ECHO_PROGRAM] * 4)
        ]

    def test_kernel_submit(self, monkeypatch):
        def admit():
            kernel, system = Kernel(), SystemState.fresh()
            for tx in self.txs():
                kernel.submit(system, tx)
            return len(system.records)

        self.count(monkeypatch, admit)

    def test_durable_system_submit(self, monkeypatch, tmp_path):
        def admit():
            with DurableSystem.create(str(tmp_path / "s.log"), sync="none") as ds:
                for tx in self.txs():
                    ds.submit(tx)
            return len(ds.system.records)

        self.count(monkeypatch, admit)

    def test_router_submit(self, monkeypatch, tmp_path):
        def admit():
            router = Router()
            router.add_instance(1)
            router.add_instance(2, durable=DurableSystem.create(str(tmp_path / "s.log")))
            for key in (1, 2):
                for tx in self.txs():
                    router.submit(key, tx)
            router.instances[2].durable.close()
            return sum(len(i.system.records) for i in router.instances.values())

        self.count(monkeypatch, admit)

    def test_run_concurrent(self, monkeypatch):
        def admit():
            kernel, system = Kernel(), SystemState.fresh()
            return len(run_concurrent(kernel, system, self.txs(), workers=2).records)

        self.count(monkeypatch, admit)

    def test_a_fixture_run(self, monkeypatch):
        self.count(monkeypatch, lambda: len(FIXTURES["delegation"]().system.records))

    def test_a_passed_long_transaction_is_not_walked_again(self, monkeypatch):
        long_tx = creator(*[ECHO_PROGRAM] * 3)
        kernel, system = Kernel(), SystemState.fresh()
        calls = []
        check = txn.check_value
        monkeypatch.setattr(txn, "check_value", lambda x: calls.append(x) or check(x))
        for tx in [long_tx, poke(14, 1), long_tx, poke(15, 2), long_tx]:
            kernel.submit(system, tx)
        assert calls == [long_tx, poke(14, 1), poke(15, 2)]
