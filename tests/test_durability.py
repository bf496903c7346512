"""Store framing, crash recovery, and replay auditing.

The torn/corrupt distinction carries the safety story: truncations model
crashes and must always recover to a committed prefix, while any complete
frame that fails its checksum or the record arithmetic is damage that must
be reported, never repaired silently.
"""

import errno
import gc
import hashlib
import os
import subprocess
import sys
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sendkernel import ABORT, KernelConfig
from sendkernel.durability import (
    _SHARED_TEXT,
    PACK_GATE,
    PACK_LEVEL,
    Divergence,
    DurableSystem,
    RecoveryReport,
    Store,
    StoreCorruption,
    StoreLocked,
    StoreSnapshot,
    StoreUninitialized,
    decode_header,
    decode_record,
    dispatch_externals,
    encode_frame,
    encode_header,
    encode_record,
    read_store,
    replay_compare,
    replay_verify,
    scan_frames,
)
from sendkernel.compose import ReplicaDivergence, Router, replicate
from sendkernel.patterns import ECHO_PROGRAM, RELAY_PROGRAM, creator, poke
from sendkernel.scheduler import run_concurrent
from sendkernel import durability
from sendkernel.sexpr import chain, dumps, equal, is_pair, parse, scan_split, unchain
from sendkernel.txn import ExecResult, Kernel
from sendkernel import state
from sendkernel.state import ExternalSend, LogEntry, TxRecord

from test_acceptance import _fixture_workloads
from test_benchmark_hooks import forwarder_program
from test_interpreter import asm


def tx_create(program):
    """Transaction whose program asks the kernel for a new object."""
    return (asm(("push", program), ("push", 0), ("send",)), 0)


def tx_send(target, message):
    return (asm(("push", message), ("push", target), ("send",)), 0)


def tx_outward(address, message):
    return (asm(("push", message), ("push", (7, address)), ("send",)), 0)


TX_ABORT = ((0, 4), 0)

ECHO = asm(("recall", 4), ("push", 10), ("send",), ("recall", 1), ("recall", 7), ("send",))


class TestFrameCodec:
    def test_frame_shape_is_frozen(self):
        assert encode_frame(b"42") == b"2:%08x:42\n" % __import__("zlib").crc32(b"42")

    def test_scan_round_trip(self):
        payloads = [b"0", b"[1,2]", b"x" * 500]
        image = b"".join(encode_frame(p) for p in payloads)
        scan = scan_frames(image)
        assert scan.payloads == payloads
        assert scan.torn_offset is None
        assert scan.clean_end == len(image)

    def test_empty_image_is_clean(self):
        scan = scan_frames(b"")
        assert scan.payloads == [] and scan.torn_offset is None

    def test_every_truncation_is_clean_or_torn(self):
        payloads = [b"10", b"[1,[2,3]]", b"7"]
        image = b"".join(encode_frame(p) for p in payloads)
        boundaries = {0}
        pos = 0
        for p in payloads:
            pos += len(encode_frame(p))
            boundaries.add(pos)
        for cut in range(len(image) + 1):
            scan = scan_frames(image[:cut])
            if cut in boundaries:
                assert scan.torn_offset is None, cut
            else:
                assert scan.torn_offset is not None, cut
            assert scan.clean_end == max(b for b in boundaries if b <= cut)

    def test_strict_rejects_torn_tail(self):
        image = encode_frame(b"123")
        with pytest.raises(StoreCorruption):
            scan_frames(image[:-3], strict=True)

    def test_every_single_byte_substitution_is_corruption(self):
        # Checksums catch payload and checksum-field damage; the grammar
        # catches separator damage; strict mode catches length damage that
        # fakes a truncated file.
        image = b"".join(encode_frame(p) for p in [b"[1,2]", b"0", b"31"])
        for i in range(len(image)):
            for flip in (image[i] ^ 1, image[i] ^ 0x40):
                mutant = image[:i] + bytes([flip]) + image[i + 1 :]
                with pytest.raises(StoreCorruption):
                    scan_frames(mutant, strict=True)

    @pytest.mark.parametrize("strict", [False, True])
    def test_length_field_past_the_int_digit_limit(self, strict):
        # int() refuses decimal text over 4,300 digits; a length that long
        # runs past the end of any file, so it is a torn tail like any other.
        good = encode_frame(b"0")
        image = good + b"9" * 5000 + b":%08x:1\n" % zlib.crc32(b"1")
        if strict:
            with pytest.raises(StoreCorruption) as info:
                scan_frames(image, strict=True)
            assert info.value.offset == len(good)
        else:
            scan = scan_frames(image)
            assert scan.payloads == [b"0"]
            assert scan.torn_offset == scan.clean_end == len(good)

    def test_length_field_value_counts_not_its_width(self):
        image = b"0" * 5000 + encode_frame(b"[1,2]")
        scan = scan_frames(image, strict=True)
        assert scan.payloads == [b"[1,2]"] and scan.torn_offset is None

    def test_interior_garbage_is_corruption_even_when_lax(self):
        image = encode_frame(b"1") + b"!!!" + encode_frame(b"2")
        with pytest.raises(StoreCorruption):
            scan_frames(image)


class TestHeaderCodec:
    @pytest.mark.parametrize(
        "config",
        [
            KernelConfig(),
            KernelConfig("hash", salt=99, step_budget=5000),
        ],
    )
    def test_round_trip(self, config):
        assert decode_header(encode_header(config)) == config

    def test_frozen_shape(self):
        assert encode_header(KernelConfig("seq", 0, 1000)) == (4, (0, (0, (1000, 0))))
        for version in (1, 2, 3):
            assert decode_header((version, (0, (0, (1000, 0))))) == KernelConfig("seq", 0, 1000)

    @pytest.mark.parametrize(
        "bad",
        [
            0,
            (5, (0, (0, (1000, 0)))),  # unknown version
            (1, (9, (0, (1000, 0)))),  # unknown allocator
            (1, (0, ((1, 1), (1000, 0)))),  # salt not an atom
            (1, (0, (0, (0, 0)))),  # zero budget
            chain([1, 0, 0]),  # short
        ],
    )
    def test_malformed_headers(self, bad):
        with pytest.raises(StoreCorruption):
            decode_header(bad)


def record(seq=0, tagged=(1, 9), delta=0, xi=0, k_len_after=0):
    """A record payload with tx (1, 2): six fields chained."""
    return chain([seq, (1, 2), tagged, delta, xi, k_len_after])


class TestRecordCodec:
    def outcome(self, committed=True):
        entries = [LogEntry(0, 1, 14), LogEntry(14, 1, (8, 0))]
        externals = [ExternalSend(1, (3, 4), 77)]
        if committed:
            return ExecResult(14, entries, externals, 10)
        return ExecResult(ABORT, [], [], 10)

    def test_commit_round_trip(self):
        enc = encode_record(3, (1, 2), self.outcome(), 2)
        rec = decode_record(enc, 0)
        assert rec.seq == 3 and rec.tx == (1, 2) and rec.result == 14
        assert rec.entries == (LogEntry(0, 1, 14), LogEntry(14, 1, (8, 0)))
        assert rec.externals == (ExternalSend(1, (3, 4), 77),)
        assert rec.k_len_after == 2 and rec.committed

    def test_abort_round_trip(self):
        enc = encode_record(0, (1, 2), self.outcome(committed=False), 0)
        rec = decode_record(enc, 0)
        assert rec.result is ABORT and not rec.committed
        assert rec.entries == () and rec.externals == ()

    def test_abort_with_effects_rejected(self):
        bad = chain([0, (1, 2), 0, chain([chain([5, 1, 0])]), 0, 0])
        with pytest.raises(StoreCorruption):
            decode_record(bad, 0)

    @pytest.mark.parametrize(
        "result, entries, externals",
        [
            (14, [LogEntry(0, 1, 14), LogEntry(14, 1, (8, 0))], [ExternalSend(1, (3, 4), 77)]),
            (ABORT, [], []),
            ((5, 6), [LogEntry(14, 1, 3), LogEntry(15, 14, ((1, 2), 0))], []),
            (0, [], [ExternalSend(14, (7, (2, 15)), (9, 9)), ExternalSend(1, (3, 4), 10**5000)]),
        ],
        ids=["committed", "aborted", "two_entries", "two_externals"],
    )
    def test_matches_the_chained_form(self, result, entries, externals):
        outcome = ExecResult(result, entries, externals, 10)
        tagged = 0 if result is ABORT else (1, result)
        delta = chain([chain(e) for e in entries])
        xi = chain([chain(s) for s in externals])
        want = record(3, tagged, delta, xi, 2)
        got = encode_record(3, (1, 2), outcome, 2)
        assert got == want and dumps(got) == dumps(want)

    def test_malformed_rows_rejected(self):
        bad = chain([0, (1, 2), (1, 9), chain([chain([5, 1])]), 0, 1])
        with pytest.raises(StoreCorruption):
            decode_record(bad, 0)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (chain([0, (1, 2), 0, 0, 0]), "malformed record"),  # 5 fields
            (chain([0, (1, 2), 0, 0, 0, 0, 0]), "malformed record"),  # 7 fields
            ((0, ((1, 2), (0, (0, (0, (0, 3)))))), "malformed record"),  # chain ends in 3
            (0, "malformed record"),  # an atom record
            (7, "malformed record"),
            (record((1, 1)), "malformed record"),  # seq not an atom
            (record(k_len_after=(0, 0)), "malformed record"),
            (record(tagged=(2, 9)), "malformed result tag"),
            (record(tagged=1), "malformed result tag"),  # a bare tag
            (record(delta=chain([chain([5, 1])]), k_len_after=1), "malformed effect row"),
            (record(delta=chain([chain([5, 1, 0, 0])]), k_len_after=1), "malformed effect row"),
            (record(delta=chain([(5, (1, (0, 4)))]), k_len_after=1), "malformed effect row"),
            (record(delta=chain([7]), k_len_after=1), "malformed effect row"),  # atom row
            (record(delta=chain([chain([(5, 5), 1, 0])]), k_len_after=1), "malformed effect row"),
            (record(delta=chain([chain([5, (1, 1), 0])]), k_len_after=1), "malformed effect row"),
            (record(xi=chain([chain([(1, 1), (3, 4), 77])])), "malformed effect row"),
            (record(xi=chain([chain([1, (3, 4)])])), "malformed effect row"),
            (record(delta=(chain([5, 1, 0]), 3), k_len_after=1), "malformed effect row"),
            (record(xi=(chain([1, (3, 4), 77]), 3)), "malformed effect row"),
            (record(delta=3), "malformed effect row"),
            (record(tagged=0, xi=chain([chain([1, (3, 4), 77])])), "aborted record carries effects"),
        ],
    )
    def test_malformed_record_reasons(self, bad, reason):
        with pytest.raises(StoreCorruption) as info:
            decode_record(bad, 42)
        assert (info.value.reason, info.value.offset) == (reason, 42)


def build_store(path, txs, config=None, sync="none", version=4):
    if version == 4:
        ds = DurableSystem.create(str(path), config, sync=sync)
    else:
        ds = create_versioned(str(path), config, version)
    records = [ds.submit(tx) for tx in txs]
    ds.close()
    return records


SAMPLE_TXS = [
    tx_create(ECHO),
    tx_send(14, 123),
    TX_ABORT,
    tx_outward(5, (1, 2)),
    tx_create((3, 0)),
    tx_send(15, 9),
]


class TestStoreLifecycle:
    def test_create_refuses_existing_path(self, tmp_path):
        p = tmp_path / "s.log"
        Store.create(str(p)).close()
        with pytest.raises(FileExistsError):
            Store.create(str(p))

    @pytest.mark.parametrize("kw", [{"sync": "bogus"}, {"group_size": 0}])
    def test_create_checks_its_arguments_before_writing(self, tmp_path, kw):
        p = tmp_path / "s.log"
        with pytest.raises(ValueError):
            Store.create(str(p), **kw)
        assert not p.exists()
        Store.create(str(p)).close()  # the path is still free

    def test_reopen_reproduces_state_and_records(self, tmp_path):
        p = tmp_path / "s.log"
        live = DurableSystem.create(str(p), sync="none")
        for tx in SAMPLE_TXS:
            live.submit(tx)
        live_lines = live.system.kernel.canonical_lines()
        live.close()

        back, report = DurableSystem.open(str(p))
        assert report.clean and report.records == len(SAMPLE_TXS)
        assert back.system.kernel.canonical_lines() == live_lines
        assert len(back.system.records) == len(SAMPLE_TXS)
        assert back.system.records[2].result is ABORT
        assert back.system.records[3].externals == (ExternalSend(1, (7, 5), (1, 2)),)
        back.close()

    def test_submissions_continue_after_reopen(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS[:3])
        ds, _ = DurableSystem.open(str(p), sync="none")
        ds.submit(tx_send(14, 5))
        ds.close()
        again, _ = DurableSystem.open(str(p))
        assert len(again.store.records) == 4
        assert [r.seq for r in again.store.records] == [0, 1, 2, 3]
        again.close()

    def test_aborted_submission_is_recorded_without_effects(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, [TX_ABORT])
        store, _ = Store.open(str(p))
        rec = store.records[0]
        assert not rec.committed and rec.k_len_after == 0
        assert rec.entries == () and rec.externals == ()
        store.close()

    @pytest.mark.parametrize("sync", ["fsync", "flush", "none"])
    def test_sync_policies(self, tmp_path, sync):
        p = tmp_path / f"{sync}.log"
        ds = DurableSystem.create(str(p), sync=sync, group_size=3)
        for tx in SAMPLE_TXS[:4]:
            ds.submit(tx)
        ds.close()
        _, report = Store.open(str(p), strict=True)
        assert report.records == 4

    def test_unknown_sync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Store.create(str(tmp_path / "x.log"), sync="sometimes")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestSingleWriter:
    """A store has one writer at a time: Store.create and Store.open hold an
    exclusive lock on the file until the store is closed, and a second
    writer is refused before it reads or truncates anything.  Reading a
    store takes no lock."""

    def test_a_second_open_in_one_process_is_refused(self, tmp_path):
        p = str(tmp_path / "s.log")
        build_store(p, SAMPLE_TXS[:2])
        store, _ = Store.open(p)
        with pytest.raises(StoreLocked):
            Store.open(p)
        with pytest.raises(StoreLocked):
            DurableSystem.open(p)
        assert len(read_store(p, strict=True).records) == 2
        store.close()
        again, report = Store.open(p)  # closing released the lock
        assert report.records == 2
        again.close()

    def test_a_created_store_is_held(self, tmp_path):
        p = str(tmp_path / "s.log")
        ds = DurableSystem.create(p, sync="none")
        ds.submit(SAMPLE_TXS[0])
        with pytest.raises(StoreLocked):
            Store.open(p)
        ds.close()
        Store.open(p)[0].close()

    def test_a_refused_writer_leaves_the_holders_tail_alone(self, tmp_path):
        p = str(tmp_path / "s.log")
        build_store(p, SAMPLE_TXS[:2])
        store, _ = Store.open(p)
        with open(p, "ab") as fh:
            fh.write(b"999:aaaa")  # the holder's frame, half written
        before = open(p, "rb").read()
        with pytest.raises(StoreLocked):
            Store.open(p)
        assert open(p, "rb").read() == before
        store.close()

    def test_a_store_held_by_another_process_is_refused(self, tmp_path):
        p = str(tmp_path / "s.log")
        build_store(p, SAMPLE_TXS[:2])
        child = (
            "import sys\n"
            "from sendkernel.durability import Store, StoreLocked\n"
            "try:\n"
            "    Store.open(sys.argv[1])[0].close()\n"
            "except StoreLocked:\n"
            "    sys.exit(3)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)

        def open_in_child():
            return subprocess.run([sys.executable, "-c", child, p], env=env).returncode

        store, _ = Store.open(p)
        assert open_in_child() == 3
        store.close()
        assert open_in_child() == 0

    def test_a_failed_append_releases_the_lock(self, tmp_path):
        p = str(tmp_path / "s.log")
        ds = DurableSystem.create(p, sync="flush")
        ds.submit(SAMPLE_TXS[0])
        ds.store._fh = FailingHandle(ds.store._fh, "write")
        with pytest.raises(OSError):
            ds.submit(SAMPLE_TXS[1])
        back, report = DurableSystem.open(p)
        assert report.clean and len(back.system.records) == 1
        back.close()
        ds.close()


class FailingHandle:
    """The store's real handle, except that one write or flush fails once.

    A failing write first puts half its bytes in the file, as a short write
    on a full disk does.
    """

    def __init__(self, real, fail_on):
        self.real = real
        self.fail_on = fail_on

    def _armed(self, call):
        if self.fail_on != call:
            return False
        self.fail_on = None
        return True

    def write(self, data):
        if self._armed("write"):
            self.real.write(data[: len(data) // 2])
            self.real.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.real.write(data)

    def flush(self):
        if self._armed("flush"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.real.flush()

    def __getattr__(self, name):
        return getattr(self.real, name)


class TestFailedAppend:
    @pytest.mark.parametrize(
        "sync, fail_on", [("flush", "write"), ("flush", "flush"), ("fsync", "fsync")]
    )
    def test_store_reopens_with_exactly_the_acknowledged_records(
        self, tmp_path, monkeypatch, sync, fail_on
    ):
        p = str(tmp_path / "s.log")
        ds = DurableSystem.create(p, sync=sync)
        acknowledged = [ds.submit(tx) for tx in SAMPLE_TXS[:3]]
        ds.store._fh = FailingHandle(ds.store._fh, fail_on)
        if fail_on == "fsync":
            real_fsync = os.fsync

            def fsync_once(fd):
                monkeypatch.setattr(os, "fsync", real_fsync)
                raise OSError(errno.EIO, "Input/output error")

            monkeypatch.setattr(os, "fsync", fsync_once)
        with pytest.raises(OSError):
            ds.submit(SAMPLE_TXS[3])
        assert ds.system.records == acknowledged  # the failed submission was not applied
        with pytest.raises(ValueError):
            ds.submit(SAMPLE_TXS[4])  # refused until reopened
        ds.close()

        snapshot = read_store(p, strict=True)  # no torn or stray bytes
        assert list(snapshot.records) == acknowledged
        back, report = DurableSystem.open(p)
        assert report.clean and back.system.records == acknowledged
        back.submit(SAMPLE_TXS[3])
        back.close()
        assert replay_verify(read_store(p, strict=True)) is None

    def test_a_failure_after_recovering_a_torn_tail_cuts_back_to_the_clean_end(self, tmp_path):
        p = str(tmp_path / "s.log")
        acknowledged = build_store(p, SAMPLE_TXS[:2])
        with open(p, "ab") as fh:
            fh.write(b"999:aaaa")
        ds, report = DurableSystem.open(p, sync="flush")
        assert not report.clean
        ds.store._fh = FailingHandle(ds.store._fh, "write")
        with pytest.raises(OSError):
            ds.submit(SAMPLE_TXS[2])
        ds.close()
        assert list(read_store(p, strict=True).records) == acknowledged

    def test_unsettled_frames_are_dropped_with_the_failure(self, tmp_path):
        p = str(tmp_path / "s.log")
        ds = DurableSystem.create(p, sync="flush", group_size=2)
        acknowledged = [ds.submit(tx) for tx in SAMPLE_TXS[:2]]  # settled as a group
        ds.submit(SAMPLE_TXS[2])  # buffered, not yet settled
        ds.store._fh = FailingHandle(ds.store._fh, "flush")
        with pytest.raises(OSError):
            ds.submit(SAMPLE_TXS[3])
        ds.close()
        assert list(read_store(p, strict=True).records) == acknowledged


def rewrite_record(path, seq, fn):
    """Decode record frame seq, patch its payload, re-frame with a valid sum."""
    with open(path, "rb") as fh:
        data = fh.read()
    scan = scan_frames(data)
    payloads = scan.payloads
    patched = dumps(fn(parse(payloads[seq + 1].decode()))).encode()
    payloads[seq + 1] = patched
    with open(path, "wb") as fh:
        for p in payloads:
            fh.write(encode_frame(p))


class TestOpenValidation:
    def test_recovery_drops_torn_tail_and_truncates(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS)
        clean_size = os.path.getsize(p)
        with open(p, "ab") as fh:
            fh.write(b"999:aaaa")  # unfinished frame
        store, report = Store.open(str(p))
        assert report.torn_offset == clean_size
        assert report.dropped_bytes == 8
        assert len(store.records) == len(SAMPLE_TXS)
        store.close()
        assert os.path.getsize(p) == clean_size

    def test_strict_open_rejects_torn_tail(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS[:2])
        with open(p, "ab") as fh:
            fh.write(b"12")
        with pytest.raises(StoreCorruption):
            Store.open(str(p), strict=True)

    def test_missing_header_is_uninitialized(self, tmp_path):
        p = tmp_path / "s.log"
        p.write_bytes(b"17:0000")
        with pytest.raises(StoreUninitialized):
            Store.open(str(p))

    def test_sequence_gap_is_corruption(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS[:3])

        def bump_seq(rec):
            head, tail = rec
            return (head + 1, tail)

        rewrite_record(str(p), 1, bump_seq)
        with pytest.raises(StoreCorruption):
            Store.open(str(p))

    def test_log_length_mismatch_is_corruption(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS[:2])

        def bump_k_len(rec):
            from sendkernel.sexpr import unchain

            seq, tx, tagged, delta, xi, k_len = unchain(rec)
            return chain([seq, tx, tagged, delta, xi, k_len + 1])

        rewrite_record(str(p), 1, bump_k_len)
        with pytest.raises(StoreCorruption):
            Store.open(str(p))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_reading_leaves_the_collector_as_it_was(self, tmp_path, enabled):
        good, bad = tmp_path / "good.log", tmp_path / "bad.log"
        build_store(good, SAMPLE_TXS[:2])
        build_store(bad, SAMPLE_TXS[:3])
        rewrite_record(str(bad), 1, lambda rec: (rec[0] + 1, rec[1]))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert len(read_store(str(good)).records) == 2
            assert gc.isenabled() is enabled
            with pytest.raises(StoreCorruption):
                read_store(str(bad))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


def write_store(path, *payloads):
    """A store of the default header frame and the given record payloads."""
    Store.create(str(path)).close()
    with open(path, "ab") as fh:
        for payload in payloads:
            fh.write(encode_frame(payload.encode()))


class TestLazyTransaction:
    """A decoded record keeps its transaction as canonical text and parses
    it on every read of tx; open checks it as an eager parse would."""

    def test_fixture_stores_decode_every_tx(self, tmp_path):
        for n, txs in enumerate(_fixture_workloads()):
            p = tmp_path / f"fixture{n}.log"
            live = build_store(p, txs)
            with open(p, "rb") as fh:
                payloads = scan_frames(fh.read()).payloads[1:]
            records = read_store(str(p), strict=True).records
            assert len(records) == len(payloads) == len(live) == len(txs)
            for record, payload, twin in zip(records, payloads, live):
                eager = unchain(parse(payload.decode()))[1]
                assert equal(record.tx, eager)
                assert record == twin and twin == record

    def test_reopened_records_equal_their_live_twins(self, tmp_path):
        p = tmp_path / "s.log"
        live = build_store(p, SAMPLE_TXS)
        first, second = read_store(str(p)).records, read_store(str(p)).records
        assert list(first) == live and live == list(first) and list(first) == list(second)
        assert all(r.tx is not r.tx for r in first if is_pair(r.tx))  # no cache

    @pytest.mark.parametrize(
        "tx_text, want",
        [
            ("[1,2,3]", "unreadable payload: expected ']' (offset 8)"),
            ("[1]", "unreadable payload: expected ',' (offset 6)"),
            ("[]", "unreadable payload: unexpected character ']' (offset 5)"),
            ("01", "unreadable payload: leading zeros are not canonical (offset 4)"),
            ("[01,2]", "unreadable payload: leading zeros are not canonical (offset 5)"),
            ("[[1,2],[3,[4]]]", "unreadable payload: expected ',' (offset 16)"),
            ("[1,[2,]]", "unreadable payload: unexpected character ']' (offset 10)"),
            ("-1", "unreadable payload: unexpected character '-' (offset 4)"),
            (" [1,2]", (1, 2)),
            ("[1, 2]", (1, 2)),
            ("[1,2]\t", (1, 2)),
            ("7", 7),
        ],
    )
    def test_transaction_text_is_checked_as_parse_checks_it(self, tmp_path, tx_text, want):
        p = tmp_path / "s.log"
        write_store(p, f"[0,[{tx_text},[[1,5],[0,[0,[0,0]]]]]]")
        if isinstance(want, str):
            with pytest.raises(StoreCorruption) as info:
                read_store(str(p))
            assert (info.value.reason, info.value.offset) == (want, 1)
        else:
            assert read_store(str(p)).records[0].tx == want

    @pytest.mark.parametrize(
        "payload, reason",
        [
            ("[0,[[1,2],[[1,5],[0,[0,[0]]]]]]", "unreadable payload: expected ',' (offset 25)"),
            (
                "[0,[[1,2],[[1,5],[0,[0,[0,0,0]]]]]]",
                "unreadable payload: expected ']' (offset 27)",
            ),
            (
                "[0,[[1,2],[[1,5],[0,[0,[0,0]]]]]]]",
                "unreadable payload: trailing input after value (offset 33)",
            ),
            ("[0,[[1,2],[[1,5],[0,[0,[0,0]]]]]", "unreadable payload: expected ']' (offset 32)"),
            (
                "[0,[[1,2],[[1,5],[0,[0,[0,00]]]]]]",
                "unreadable payload: leading zeros are not canonical (offset 26)",
            ),
            ("[0,[[1,2],7]]", "malformed record"),
            ("[[0,0],[[1,2],[[1,5],[0,[0,[0,0]]]]]]", "malformed record"),
            ("[0,[[1,2],[[2,5],[0,[0,[0,0]]]]]]", "malformed result tag"),
        ],
    )
    def test_the_other_fields_keep_their_reasons(self, tmp_path, payload, reason):
        p = tmp_path / "s.log"
        write_store(p, payload)
        with pytest.raises(StoreCorruption) as info:
            read_store(str(p))
        assert (info.value.reason, info.value.offset) == (reason, 1)


def birth_programs(entries):
    """The program of every birth row: the row after a creation row
    (0, c, ident) whose receiver is ident."""
    pairs = zip(entries, entries[1:])
    return [b.message for a, b in pairs if a.receiver == 0 and b.receiver == a.message]


class TestSharedBirths:
    """A decoded birth whose program equals the previous birth's takes that
    object, as the live system's creations share the object they pass in;
    unequal programs are never shared."""

    P, Q = ECHO_PROGRAM, RELAY_PROGRAM
    TXS = [creator(P, P, P), creator(P), creator(P, Q, P, Q), poke(14, 5), poke(20, 6)]
    WANT = [P, P, P, P, P, Q, P, Q]

    def check_births(self, births):
        assert len(births) == len(self.WANT)
        assert all(equal(got, want) for got, want in zip(births, self.WANT))
        for a, b in zip(births, births[1:]):
            assert (a is b) == equal(a, b)
        assert len({id(b) for b in births}) == 4  # one object per run of equal births

    def test_read_store_and_open_share_equal_births(self, tmp_path):
        for version in (1, 2, 3):
            p = tmp_path / f"v{version}.log"
            live = build_store(p, self.TXS, version=version)
            with open(p, "rb") as fh:
                payloads = scan_frames(fh.read()).payloads[1:]
            snapshot = read_store(str(p), strict=True)
            records = snapshot.records
            assert len(records) == len(payloads) == len(live)
            last_birth = [None]
            for i, (record, payload, twin) in enumerate(zip(records, payloads, live)):
                assert record == twin and twin == record
                decoded = decode_record(parse(payload.decode()), i + 1, last_birth, version)
                assert record == decoded
            self.check_births([b for r in records for b in birth_programs(r.entries)])
            assert replay_verify(snapshot) is None

            durable, report = DurableSystem.open(str(p))
            assert report.clean and durable.system.records == live
            self.check_births(birth_programs(durable.system.kernel.entries))
            durable.close()


def payloads_of(path, strict=False):
    with open(path, "rb") as fh:
        return scan_frames(fh.read(), strict).payloads


def reference_read(path, strict=False):
    """read_store the reference way: each payload parsed whole, then
    decode_record of its value under the header's version and the records
    read before it, with read_store's checks between records."""
    payloads = payloads_of(path, strict)
    version = unchain(parse(payloads[0].decode()))[0]
    records, k_len, last_birth = [], 0, [None]
    for i, payload in enumerate(payloads[1:]):
        try:
            value = parse(payload.decode())
        except ValueError as exc:
            raise StoreCorruption(f"unreadable payload: {exc}", i + 1) from None
        record = decode_record(value, i + 1, last_birth, version, records=records)
        if record.seq != i:
            raise StoreCorruption(f"record sequence {record.seq} where {i} expected", i + 1)
        expected = k_len + len(record.entries)
        if record.k_len_after != expected:
            raise StoreCorruption(f"record {i} log length {record.k_len_after} != {expected}", i + 1)
        k_len = record.k_len_after
        records.append(record)
    return records


def transaction_references(path):
    """Each record's transaction reference [ref,0], as ref, or None where its
    transaction is written in full."""
    fields = [unchain(parse(q.decode())) for q in payloads_of(path)[1:]]
    return [f[6] if len(f) == 7 else None for f in fields]


def shared_pattern(records):
    """Each pair message of each row, as the index of the first row that
    holds the same object: which rows share one program."""
    first = {}
    rows = [e for r in records for e in r.entries if is_pair(e.message)]
    return [first.setdefault(id(e.message), n) for n, e in enumerate(rows)]


def outcome_of(read):
    """What a read gives: its records, or the reason and offset it raised."""
    try:
        return read()
    except StoreCorruption as exc:
        return (exc.reason, exc.offset)


def reframe(path, seq, edit):
    """Replace record seq's payload text by edit(text), framed with a valid crc."""
    payloads = payloads_of(path)
    payloads[seq + 1] = edit(payloads[seq + 1].decode()).encode()
    with open(path, "wb") as fh:
        for payload in payloads:
            fh.write(encode_frame(payload))


def pair_spans(text, start):
    """(open, comma, close) of every bracketed pair in text from start on."""
    spans, stack = [], []
    for i in range(start, len(text)):
        ch = text[i]
        if ch == "[":
            stack.append([i, None])
        elif ch == "," and stack:
            stack[-1][1] = stack[-1][1] or i
        elif ch == "]" and stack:
            open_, comma = stack.pop()
            spans.append((open_, comma, i))
    return spans


P, Q = ECHO_PROGRAM, RELAY_PROGRAM
BIRTH_RUNS = [creator(*[P] * 30), creator(P), creator(P, Q, P, Q), poke(14, (5, 6)), creator(Q)]


class TestScannerDecode:
    """read_store decodes the C scanner's lists; what it gives must be what
    the reference decode gives: the same records, the same births shared,
    and on damage the same reason at the same offset."""

    def test_records_and_shared_births_match_the_reference(self, tmp_path):
        for version in (1, 2, 3):
            directory = tmp_path / f"v{version}"
            directory.mkdir()
            pinned_stores(str(directory), version)
            births = directory / "births.store"
            build_store(births, BIRTH_RUNS, version=version)
            paths = sorted(str(p) for p in directory.glob("*.store"))
            assert len(paths) == 17
            for path in paths:
                records = read_store(path, strict=True).records
                reference = reference_read(path, strict=True)
                assert list(records) == reference, path
                assert shared_pattern(records) == shared_pattern(reference), path
                programs = [b for r in records for b in birth_programs(r.entries)]
                assert all((a is b) == equal(a, b) for a, b in zip(programs, programs[1:])), path
            records = read_store(str(births)).records
            programs = [b for r in records for b in birth_programs(r.entries)]
            assert len(programs) == 36 and len({id(b) for b in programs}) == 4  # one per run

    def test_a_run_of_equal_births_converts_its_first_program_only(self, tmp_path, monkeypatch):
        # From version 2 on, the writer refers to an equal previous birth.
        converted, convert = [], durability._pairs

        def counted(x):
            value = convert(x)
            if equal(value, P) or equal(value, Q):
                converted.append(value)
            return value

        monkeypatch.setattr(durability, "_pairs", counted)
        for version in (2, 3):
            p = tmp_path / f"v{version}.log"
            build_store(p, BIRTH_RUNS, version=version)
            converted.clear()
            births = [b for r in read_store(str(p)).records for b in birth_programs(r.entries)]
            assert len(births) == 36
            assert [dumps(v) for v in converted] == [dumps(v) for v in (P, Q, P, Q)], version

    @pytest.mark.parametrize("seq", [0, 3, 4])
    def test_damaged_lists_report_what_the_reference_reports(self, tmp_path, seq):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS)
        text = payloads_of(p)[seq + 1].decode()
        tail_start = len(dumps(chain([seq, SAMPLE_TXS[seq]]))) - 3  # [seq,[tx,| [tagged,..]
        assert text[tail_start - 1 : tail_start + 3] == ",[[1"
        spans = pair_spans(text, tail_start)
        assert len(spans) >= 8
        damaged = p.with_name("damaged.log")
        for open_, comma, close in spans:
            head, tail = text[open_ + 1 : comma], text[comma + 1 : close]
            for pair_text in ["[]", f"[{head}]", f"[{head},{tail},0]", "0", "7"]:
                damaged.write_bytes(p.read_bytes())
                reframe(damaged, seq, lambda t: t[:open_] + pair_text + t[close + 1 :])
                for strict in (False, True):
                    want = outcome_of(lambda: reference_read(str(damaged), strict))
                    got = outcome_of(lambda: list(read_store(str(damaged), strict).records))
                    assert got == want, (pair_text, open_, strict)
                    if isinstance(want, list):
                        assert shared_pattern(got) == shared_pattern(want)
                opened = outcome_of(lambda: Store.open(str(damaged), sync="none")[0])
                if isinstance(opened, Store):
                    opened.close()
                    opened = list(opened.records)
                assert opened == want, (pair_text, open_)

    @pytest.mark.parametrize("fallback", ["whitespace", "deep"])
    def test_births_share_across_a_payload_read_the_reference_way(self, tmp_path, fallback):
        deep = P
        for i in range(2 * sys.getrecursionlimit() + 10):
            deep = (i % 7, deep)
        middle = creator(P, P) if fallback == "whitespace" else creator(deep, deep)
        for version in (1, 2, 3):
            p = tmp_path / f"v{version}.log"
            txs = [creator(P, P), creator(P), middle, creator(P, P), creator(Q, P)]
            build_store(p, txs, version=version)
            if fallback == "whitespace":
                reframe(p, 2, lambda t: "[ " + t[1:])
            payloads = payloads_of(p)
            assert scan_split(payloads[3].decode()) is None
            assert all(scan_split(q.decode()) is not None for q in payloads[1:3] + payloads[4:])
            records = read_store(str(p), strict=True).records
            reference = reference_read(str(p), strict=True)
            assert list(records) == reference
            assert shared_pattern(records) == shared_pattern(reference)
            births = [b for r in records for b in birth_programs(r.entries)]
            assert all((a is b) == equal(a, b) for a, b in zip(births, births[1:]))
            assert len({id(b) for b in births}) == (3 if fallback == "whitespace" else 5)


LONG_TX = creator(*[P] * 5)
PREFIX_TX = poke(14, chain(range(30)))
PREFIX_TX_2 = poke(14, chain([*range(29), 99]))  # PREFIX_TX's first _SHARED_TEXT characters
SHORT_TX = poke(14, 1)
ATOM_TX = 10**70  # no pair: it aborts
REPEATS = [LONG_TX, SHORT_TX, LONG_TX, PREFIX_TX, LONG_TX, TX_ABORT, PREFIX_TX_2, LONG_TX]


def counted_parses(monkeypatch):
    """Count replay's parses of transaction texts, by text."""
    counts, parse_ = {}, state.parse

    def counted(text):
        counts[text] = counts.get(text, 0) + 1
        return parse_(text)

    monkeypatch.setattr(state, "parse", counted)
    return counts


class TestRepeatedTransactions:
    """A version-3 transaction reference reads as its referent's str, and a
    replay parses a long text at most twice.  Neither changes a record, a
    divergence or a reason."""

    def test_the_transactions_set_up_each_case(self):
        texts = [dumps(tx) for tx in (LONG_TX, PREFIX_TX, PREFIX_TX_2, ATOM_TX, SHORT_TX)]
        assert min(map(len, texts[:4])) >= _SHARED_TEXT > len(texts[4])
        assert texts[1] != texts[2] and texts[1][:_SHARED_TEXT] == texts[2][:_SHARED_TEXT]

    def test_repeated_long_transactions_share_one_str(self, tmp_path):
        for version in (2, 3):  # version 3 writes record 2 as a reference to 0
            p = tmp_path / f"v{version}.log"
            live = build_store(p, REPEATS, version=version)
            assert transaction_references(p) == [None, None, 0 if version == 3 else None] + [None] * 5
            records = read_store(str(p), strict=True).records
            assert list(records) == reference_read(str(p), strict=True) == live
            if version == 3:
                assert records[2]._tx is records[0]._tx
            assert [dumps(r.tx) for r in records] == [dumps(tx) for tx in REPEATS]

    @pytest.mark.parametrize("edit", [None, lambda t: t.replace("[99,0]", "[99,0,0]", 1)])
    def test_a_transaction_sharing_a_checked_prefix_is_rescanned(self, tmp_path, edit):
        p = tmp_path / "s.log"
        txs = [creator(P), PREFIX_TX, PREFIX_TX_2, PREFIX_TX]
        build_store(p, txs)
        if edit is not None:
            reframe(p, 2, edit)  # a list of three in PREFIX_TX_2, past the shared prefix
        want = outcome_of(lambda: reference_read(str(p)))
        assert outcome_of(lambda: list(read_store(str(p)).records)) == want
        if edit is None:
            assert [r.tx for r in want] == txs and all(r.committed for r in want)
        else:
            assert want[0].startswith("unreadable payload: expected ']'") and want[1] == 3

    def test_an_atom_one_digit_longer(self, tmp_path):
        p = tmp_path / "s.log"
        live = build_store(p, [ATOM_TX, ATOM_TX * 10 + 7, ATOM_TX])
        records = read_store(str(p), strict=True).records
        assert list(records) == live == reference_read(str(p), strict=True)
        assert [r.tx for r in records] == [ATOM_TX, ATOM_TX * 10 + 7, ATOM_TX]
        assert replay_verify(read_store(str(p))) is None

    def test_replay_parses_a_long_text_at_most_twice(self, tmp_path, monkeypatch):
        p = tmp_path / "s.log"
        build_store(p, REPEATS + [SHORT_TX, LONG_TX])
        snapshot = read_store(str(p))
        counts = counted_parses(monkeypatch)
        assert replay_verify(snapshot) is None
        assert counts == {
            dumps(LONG_TX): 2,  # of 5: parsed on first and second sight
            dumps(SHORT_TX): 2,  # below the floor: parsed on every sight
            dumps(TX_ABORT): 1,
            dumps(PREFIX_TX): 1,
            dumps(PREFIX_TX_2): 1,
        }
        counts.clear()
        assert replicate(snapshot, n=2)[1] is None
        assert counts[dumps(LONG_TX)] == 4  # twice for each replica

    def test_divergences_are_unchanged(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, REPEATS)

        def corrupt_message(rec):
            seq, tx, tagged, delta, xi, k_len = unchain(rec)
            rows = unchain(delta)
            r, c, m = unchain(rows[0])
            rows[0] = chain([r, c + 1, m])
            return chain([seq, tx, tagged, chain(rows), xi, k_len])

        def corrupt_result(rec):
            seq, tx, tagged, delta, xi, k_len = unchain(rec)
            return chain([seq, tx, (1, (tagged[1], 0)), delta, xi, k_len])

        for seq, corrupt, field in [(4, corrupt_message, "delta"), (7, corrupt_result, "result")]:
            q = tmp_path / f"{field}.log"
            q.write_bytes(p.read_bytes())
            rewrite_record(str(q), seq, corrupt)
            assert replay_verify(read_store(str(q))) == Divergence(seq, field)
        div = replay_verify(read_store(str(p)), Kernel(KernelConfig("hash", salt=1)))
        assert div is not None and div.seq == 0

    POOL = [LONG_TX, creator(Q, Q), SHORT_TX, PREFIX_TX, PREFIX_TX_2, ATOM_TX, ATOM_TX * 10 + 7]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(POOL), st.just("reopen")), max_size=12))
    def test_round_trip(self, steps):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "s.log")
            ds, live = DurableSystem.create(path, sync="none"), []
            for step in steps:
                if step == "reopen":
                    ds.close()
                    ds, _ = DurableSystem.open(path, sync="none")
                else:
                    live.append(ds.submit(step))
            ds.close()
            reopened, _ = DurableSystem.open(path, sync="none")
            reopened.close()
            assert reopened.system.records == live
            assert replay_verify(read_store(path, strict=True)) is None


class TestNonValues:
    """Only s-expressions reach the file: a transaction carrying anything
    else is refused before a byte is written."""

    @pytest.mark.parametrize("bad", [True, -5, 1.5, None, (1, 2, 3), (5,), ()])
    def test_refused_before_writing(self, tmp_path, bad):
        p = tmp_path / "s.log"
        ds = DurableSystem.create(str(p), sync="none")
        ds.submit(creator(ECHO_PROGRAM))
        size, records = ds.system.kernel.size, list(ds.system.records)
        ds.store.settle()
        before = p.read_bytes()
        with pytest.raises(ValueError):
            ds.submit(poke(14, bad))
        assert ds.system.kernel.size == size and ds.system.records == records
        ds.store.settle()
        assert p.read_bytes() == before
        after = ds.submit(poke(14, 5))
        assert after.committed and after.seq == 1
        ds.close()
        back, report = DurableSystem.open(str(p))
        assert report.clean and back.system.records == records + [after]
        back.close()


FIXTURE_NAMES = ["delegation", "auction", "escrow", "clone", "bootloader", "folds"]
PINNED_CONFIGS = {"seq": KernelConfig(), "hash": KernelConfig("hash", salt=99)}

# sha256 of each version-1 store pinned_stores writes, as the record codec
# wrote them before encode_record, dumps and forwarding_tx lost their
# chain(), their per-call C encoder and their ProgramBuilder, and before
# version 2: a byte moved moves a digest.
PINNED_DIGESTS = {
    "delegation_seq": "059f5340f21260cbfc5038fe3b835a39fa9daeac431f2ef7465bf6a353cf653b",
    "auction_seq": "ce908a4f454bf76dabc89bc99352a3c1602f8ba6edb3db7d1075fe50c682c659",
    "escrow_seq": "137e738d7df7762e81a51ecb2f57fbc6db0be7ae1730508e5371a10b01ff6982",
    "clone_seq": "cbca351c4ee04eeeded8cc8030289c1233fdda2351ca9fcb173cf5f73eb970cd",
    "bootloader_seq": "062168f85776e94ceea9b1b01c6802aa0348cbc8f09bdd3197e69d36029f8ce7",
    "folds_seq": "085e344656206a33243eada2e2cc0afa7f49ef2b5b43021c4190e624e6701dbc",
    "routed_origin_seq": "86948ae667129d178b97077e1a96306339ce4b17a126b41f252c3855ab9e69f7",
    "routed_peer_seq": "ed08186d1da912c6783af8c01b21ab914f627173e48b39c752f97b28d1102da2",
    "delegation_hash": "47a14472be988e5b10bf1ea84061a72b69fe6493308398da3ee85c53d1dab747",
    "auction_hash": "a7ee636bf045685450889a3f4b35c7f21ac3dc6eec96ce30a8690f74e60d410c",
    "escrow_hash": "36a529c5eaac5d4b82d46ae5c13547d9b443cbbb6bc7cc07d9366c07ad0f4bd2",
    "clone_hash": "70314121879603b7f86c9a54c4f13aaa31c937de035e906f7e93ae0569f31019",
    "bootloader_hash": "2477e4f0afdc389eb616ff580e430fe84a1e373d0f1c7379ae1069618331b071",
    "folds_hash": "3736222e440fa217f8cbc2a75961b2a6eb39e67595251db3b0421999748c3442",
    "routed_origin_hash": "07f3ae0ffe66ff01ff9a204dfa2ccaae0bb2abdb3c7da2e7264f541e6a5a10a9",
    "routed_peer_hash": "86aa86861fc30f3a6d35985fad91263a15c80f7716096217c1f0b2ac89fcc6f8",
}

# The same stores written as version 2: a birth row equal to the previous
# birth is [ident,[caller,0]].
PINNED_DIGESTS_V2 = {
    "delegation_seq": "a3a0a84613636997ad1f2f466051f1aa10a957b5ef3118d8738d93cf88d51de4",
    "auction_seq": "01a6af6fcf0435830cf0a5cbdb2b64c6e1a9e201931af6841c81c03157330820",
    "escrow_seq": "faaabab47878f70f6c6d3a1452e1840576fd3f460d5a863b74cdf2e467105e84",
    "clone_seq": "061c86876c057c948a90b11d856a9dd1e3c793156857dd4a0a8008abecb3d317",
    "bootloader_seq": "7fdb0d10b74241155922c09949aa7a9efb1387c8ee600ea1a3f5890419789308",
    "folds_seq": "064b742ed3922bb314a25f32289fc2883952d469dd8a8d349677d6c6cec9a11d",
    "routed_origin_seq": "be2f14b80378bf24950bc9fc0d2a95a1cd7e7cbf5ffe1df836b2c9a3bded05f2",
    "routed_peer_seq": "5fec9aa41f40cf897a038558edb2bc37d6852bfda710571a8624b3eda4fd0c1c",
    "delegation_hash": "560df4317c3b72ad3135618628bcd0a69c080fb0d432302c5e94e1fa4dda88a6",
    "auction_hash": "640df55905755875180930d96455c4585add56ce2189bf039d0bfa3d6fab1f46",
    "escrow_hash": "4e3b51accdde5e43932830bcdb4501183c757f78e9cd164bfe8690b240c5b127",
    "clone_hash": "f4ea39768baf791933e388c8d8fac8ade5aa1ac3275b6618a0e2c8c6ec442725",
    "bootloader_hash": "ac71ce0ea2cb1be13286a7e98af6a1880c31b2c316db81fb9022f79d815157a1",
    "folds_hash": "836146546c8d6b3b5f62f06d3c201bb8d08de727ff329ecc231527beeead2e05",
    "routed_origin_hash": "d8fe1bb1692082090fcd8d76818084698e45777a86c7ae6f569dcfa130ac714c",
    "routed_peer_hash": "f1b5925fc77d95719a971d23142e0077bfaee7b6811faadca594a50b18489ba5",
}


# The same stores written as version 3.  None of them repeats
# a transaction of 16 pairs or more, so past the header they are the
# version-2 bytes.
PINNED_DIGESTS_V3 = {
    "delegation_seq": "14ca1cd712d996dfea2fdce2334edda2e0ac48420484361c95c3f7b106341068",
    "auction_seq": "1a1b1d74a35430627a34bb20635ca075cd186294c04295cbfd467f02cf44b31c",
    "escrow_seq": "6a86d9e54a797b9ad6adbec88a46f31ba722d80992375cfe55dee05a883d6047",
    "clone_seq": "16af820f5ab0c4902732db018cde5818a22f36c4355cd047df9f82337cfdeedd",
    "bootloader_seq": "3930e600e6834303cf5b9b36a0ebb3ad7628db985100f8dc407f6a7af8979547",
    "folds_seq": "595b0857605e065fead0671d529373e368af516e29730d75832501b13fb4c9ee",
    "routed_origin_seq": "56108bb3af02185dc6961ccda438f35d5bdfa7cc3dcb9d567723fb10b28b926e",
    "routed_peer_seq": "72008643acd3ca038d119005e1c9135e729510e2c5772edf4a20fd3e301cb0cb",
    "delegation_hash": "c0fbf5a74849a7303e37750af08ddf5613d07303062ed8f9864bc939e9f3c1a8",
    "auction_hash": "e8ac786169fe572489b4123f3a04a8d5077edea10102b1ebdf7ec2b34a78bb96",
    "escrow_hash": "150c8f902619c54a24e849068fb156b6d8cbb82e8f26b49096e28a013242e031",
    "clone_hash": "fcb4125843b7dbe05bc138aa1695b4fb78d07bf3b111d86092a1df6a25ef1877",
    "bootloader_hash": "4e1fd4c8612dc785b797e79b2de94220a93acad5f179cb8a1884cb2db344bff7",
    "folds_hash": "78c8747035987f1bac002246879114240e1ddcd3daec775d76e8475099202f72",
    "routed_origin_hash": "d54e689fff4e37309d2e132e36e399c2c3a89036c245d1e8852ab18cc54f432c",
    "routed_peer_hash": "bd85f066d45b6f1961da957f84d0e640485cf48ca32e0c978b86406f9969eff8",
}


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def create_versioned(path, config, version):
    """DurableSystem.create for version 4; for an older version, a header
    frame of that version written by hand and then opened, so that it
    appends as that version."""
    if version == 4:
        return DurableSystem.create(path, config, sync="none")
    with open(path, "xb") as fh:
        header = (version, encode_header(config or KernelConfig())[1])
        fh.write(encode_frame(dumps(header).encode()))
    return DurableSystem.open(path, sync="none")[0]


def pinned_stores(directory, version=4):
    """Write every fixture workload, and one routed origin/peer pair, under
    both allocators; return each store's sha256 by name."""
    digests = {}
    for allocator, config in PINNED_CONFIGS.items():
        for name, txs in zip(FIXTURE_NAMES, _fixture_workloads()):
            path = os.path.join(directory, f"{name}_{allocator}.store")
            with create_versioned(path, config, version) as ds:
                for tx in txs:
                    ds.submit(tx)
            digests[f"{name}_{allocator}"] = sha256_of(path)
        paths = [os.path.join(directory, f"routed_{side}_{allocator}.store") for side in "op"]
        origin, peer = [create_versioned(p, config, version) for p in paths]
        router = Router()
        router.add_instance(1, durable=origin)
        router.add_instance(2, durable=peer)
        forwarder = origin.submit(creator(forwarder_program(2))).result
        echo = peer.submit(creator(ECHO_PROGRAM)).result
        assert router.submit(1, poke(forwarder, (echo, 123456))).committed
        assert router.pump().deliveries == 1 and peer.system.records[-1].committed
        origin.close()
        peer.close()
        for side, path in zip(("origin", "peer"), paths):
            digests[f"routed_{side}_{allocator}"] = sha256_of(path)
    return digests


def test_store_bytes_are_pinned(tmp_path):
    for version, pinned in [(1, PINNED_DIGESTS), (2, PINNED_DIGESTS_V2), (3, PINNED_DIGESTS_V3)]:
        directory = tmp_path / f"v{version}"
        directory.mkdir()
        assert pinned_stores(str(directory), version) == pinned


# The same stores written as version 4 by Store.create: version 3's records,
# each payload of PACK_GATE bytes or more stored as one zlib stream.  Those
# bytes are zlib's, so the digests hold under the zlib build they were taken
# with; test_version_4_payloads_are_version_3s holds under any.
PINNED_ZLIB = "1.2.13"
PINNED_DIGESTS_V4 = {
    "delegation_seq": "636d1aeebefb409bf2a6e6e229605373ffcdc2526c8466531c7155bb98d485e2",
    "auction_seq": "bb7d9b2632e1a1f883f901fb83f89128e46bc98627bd241951037044dbc3f9f5",
    "escrow_seq": "2f82f160f4c289456c3a35d80da7f0e2db5c5e0853d7ffc5002bd3e025d33e02",
    "clone_seq": "22734d91b28d4c8908daf57c92238f5d8a9b3f2e999751e46665708ca8642d98",
    "bootloader_seq": "002bd136f50db6e40dfc261e5cf202651abfc7f9658cd2c4c9b8fd0f72fee3c9",
    "folds_seq": "48341fa20462b9a08229822ca392369f2580e8712f6d0a2378f1a39cec779c81",
    "routed_origin_seq": "77fd39045f0b54085cabeb841930da5a7ac9a5549e592fb6e29fb4aee68d49e9",
    "routed_peer_seq": "ec8a733df92ab5c78909337d3457591dae798e0a06621ecadc8dc13b502e9cc7",
    "delegation_hash": "1d7be7203b5d4fc0b5098a045b4017a1c2be4dea52eae9b3817ecb15a65ea2b6",
    "auction_hash": "fd7c204b56dd3d2976d00539da592b1e609795bcb792af9dd67f85c15ced5de9",
    "escrow_hash": "c41cfedbefc8ee0ba469014d826eb909e1d29f8967899e82c661e60c9a6e869b",
    "clone_hash": "17a61501284942618bf0b5bc086e8a67cb1cdb3ef823c110a77cc33bc06590b9",
    "bootloader_hash": "51470b5481be5e2bfd0cc73857154692bfb92194de308b822c5a62b1296701b1",
    "folds_hash": "217a30ca42371e02fc9e7f2008c6bc714f9d4abef38ab168100edf872db17948",
    "routed_origin_hash": "4e7c6a5f15783129867c75fe309194255a3eb785ac0be83f9f978159be7bb09e",
    "routed_peer_hash": "9e142ae92e63eb4a74d17c307fec66f2ed2f1f0a80d979302ea8dc5972828704",
}


def test_version_4_payloads_are_version_3s(tmp_path):
    for version in (3, 4):
        (tmp_path / f"v{version}").mkdir()
        pinned_stores(str(tmp_path / f"v{version}"), version)
    stores = sorted((tmp_path / "v3").glob("*.store"))
    packed = 0
    for v3 in stores:
        with open(tmp_path / "v4" / v3.name, "rb") as fh:
            scan = scan_frames(fh.read(), strict=True)
        header, *records = payloads_of(v3, strict=True)
        assert scan.payloads == [b"[4," + header[3:], *records], v3.name
        packed += len(scan.packed)
    assert len(stores) == 16 and packed > 0


@pytest.mark.skipif(
    zlib.ZLIB_RUNTIME_VERSION != PINNED_ZLIB,
    reason=f"version-4 bytes pinned under zlib {PINNED_ZLIB}, not {zlib.ZLIB_RUNTIME_VERSION}",
)
def test_version_4_bytes_are_pinned(tmp_path):
    assert pinned_stores(str(tmp_path), 4) == PINNED_DIGESTS_V4


class TestUnboundedValues:
    """Atoms past int()'s 4,300-digit limit and values past the recursion
    limit are ordinary values: a store admits, reopens and replays them."""

    def admit_and_reopen(self, path, message):
        ds = DurableSystem.create(str(path))
        ds.submit(creator(ECHO_PROGRAM))
        admitted = ds.submit(poke(14, message))
        assert admitted.committed and equal(admitted.entries[0].message, message)
        ds.close()
        back, report = DurableSystem.open(str(path))
        assert report.clean and back.system.records[1] == admitted
        back.submit(poke(14, 5))
        back.close()
        assert replay_verify(read_store(str(path), strict=True)) is None

    def test_long_atom(self, tmp_path):
        self.admit_and_reopen(tmp_path / "s.log", 10**5000 + 7)

    @pytest.mark.parametrize("left", [True, False])
    def test_deep_message(self, tmp_path, left):
        message = 3
        for i in range(200_000):
            message = (message, i % 10) if left else (i % 10, message)
        self.admit_and_reopen(tmp_path / "s.log", message)


class TestTruncationSweep:
    def test_every_offset_recovers_a_committed_prefix(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS)
        image = p.read_bytes()

        # Stage the expected state after each record count.
        ds, _ = DurableSystem.open(str(p))
        staged = [[]]
        for rec in ds.store.records:
            staged.append(staged[-1] + list(rec.entries))
        expected_lines = {
            n: [f"{e.receiver} {e.caller} {dumps(e.message)}" for e in rows]
            for n, rows in enumerate(staged)
        }
        header_end = image.index(b"\n") + 1
        ds.close()

        for cut in range(len(image) + 1):
            q = tmp_path / "cut.log"
            if q.exists():
                os.remove(q)
            q.write_bytes(image[:cut])
            if cut < header_end:
                with pytest.raises(StoreUninitialized):
                    Store.open(str(q))
                continue
            store, report = Store.open(str(q))
            n = len(store.records)
            got = store.committed_state().canonical_lines()
            assert got == expected_lines[n], cut
            store.close()


def birth_references(path):
    """How many delta rows of the store's records are references
    [ident,[caller,0]]: a full row's third field is a pair."""
    rows = [row for q in payloads_of(path)[1:] for row in unchain(unchain(parse(q.decode()))[3])]
    return sum(1 for row in rows if row[1][1] == 0)


def write_frames(path, version, *payloads):
    """A store of a default header frame of version and the given payloads."""
    with open(path, "wb") as fh:
        for payload in (dumps((version, encode_header(KernelConfig())[1])), *payloads):
            fh.write(encode_frame(payload.encode()))


R = (100, 0)  # a third program: answers 100


def full_births(path):
    """The full birth rows of a store, in file order, as (program, whether
    it equals the previous birth program in the file, full or referred)."""
    births, previous = [], None
    for q in payloads_of(path)[1:]:
        rows = [unchain(row) for row in unchain(unchain(parse(q.decode()))[3])]
        for creation, row in zip(rows, rows[1:]):
            if len(creation) == 3 and creation[0] == 0 and row[0] == creation[2]:
                if len(row) == 3:
                    births.append((row[2], previous is not None and equal(row[2], previous)))
                    previous = row[2]
    return births


class TestFormat2:
    """A version-2 birth row whose program equals the previous birth's is
    written [ident,[caller,0]] and read as that birth's program."""

    def test_no_full_birth_equals_the_previous_birth(self, tmp_path):
        # The reader compares a full birth with the previous one only to
        # share a version-1 store's births: from version 2 on none is equal.
        for version in (1, 2, 3):
            directory = tmp_path / f"v{version}"
            directory.mkdir()
            pinned_stores(str(directory), version)
            build_store(directory / "births.store", BIRTH_RUNS, version=version)
            births = [b for path in directory.glob("*.store") for b in full_births(path)]
            equal_births = sum(same for _, same in births)
            assert (equal_births > 0) == (version == 1), version
            if version > 1:
                assert [dumps(b) for b, _ in full_births(directory / "births.store")] == [
                    dumps(b) for b in (P, Q, P, Q)
                ]

    def test_every_offset_recovers_a_prefix_that_appends(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, [creator(P, P), creator(P), TX_ABORT, creator(Q)])
        ds, _ = DurableSystem.open(str(p), sync="none")
        with ds:  # the writer starts from the last birth it read, Q
            for tx in [creator(Q, P), creator(P), poke(14, 5)]:
                ds.submit(tx)
        # births P P P Q | Q P P: all but the first P, the first Q and the
        # second P refer, across records and across the reopen
        assert birth_references(p) == 4
        image = p.read_bytes()
        live = read_store(str(p), strict=True).records
        q = tmp_path / "cut.log"
        for cut in range(image.index(b"\n") + 1, len(image) + 1):
            q.write_bytes(image[:cut])
            ds, _ = DurableSystem.open(str(q), sync="none")
            n = len(ds.system.records)
            with ds:
                assert ds.system.records == list(live[:n]), cut
                ds.submit(creator(P))
            back = read_store(str(q), strict=True)
            assert list(back.records[:n]) == list(live[:n]), cut
            assert birth_programs(back.records[n].entries) == [P], cut
            assert replay_verify(back) is None, cut

    def test_a_refused_record_leaves_the_last_birth(self, tmp_path):
        p = tmp_path / "s.log"
        with DurableSystem.create(str(p), sync="none") as ds:
            ds.submit(creator(P))
            with pytest.raises(ValueError):
                ds.submit((creator(Q)[0], True))  # a birth of Q in a refused record
            ds.submit(creator(Q))
        births = [b for r in read_store(str(p)).records for b in birth_programs(r.entries)]
        assert births == [P, Q] and birth_references(p) == 0

    # record 1 of each store; record 0 is a plain commit
    REFERENCE_TO_P = chain([chain([0, 1, 14]), chain([14, 1, P]), chain([0, 1, 15]), (15, (1, 0))])

    @pytest.mark.parametrize(
        "version, delta, reason",
        [
            (1, REFERENCE_TO_P, "birth reference in a version-1 store"),
            (2, chain([chain([0, 1, 14]), (14, (1, 0))]), "birth reference before any birth"),
            (2, chain([chain([5, 1, 0]), (5, (1, 0))]), "malformed effect row"),
            (2, chain([chain([0, 1, 14]), (15, (1, 0))]), "malformed effect row"),
            (2, chain([chain([0, 1, 14]), chain([14, 1, 9]), (14, (1, 0))]), "malformed effect row"),
            (2, chain([chain([0, 1, 14]), (14, (1, 5))]), "malformed effect row"),
        ],
        ids=[
            "version-1",
            "no-earlier-birth",
            "after-a-row-to-5",
            "other-receiver",
            "after-a-birth",
            "tail-not-0",
        ],
    )
    def test_two_field_rows_outside_a_version_2_birth(self, tmp_path, version, delta, reason):
        p = tmp_path / "s.log"
        second = record(1, delta=delta, k_len_after=len(unchain(delta)))
        write_frames(p, version, dumps(record(0)), dumps(second))
        for read in (lambda: read_store(str(p)), lambda: reference_read(str(p))):
            with pytest.raises(StoreCorruption) as info:
                read()
            assert (info.value.reason, info.value.offset) == (reason, 2)
        with pytest.raises(StoreCorruption):
            Store.open(str(p))

    def test_a_reference_reads_as_the_previous_birth(self, tmp_path):
        p = tmp_path / "s.log"
        write_frames(p, 2, dumps(record(0, delta=self.REFERENCE_TO_P, k_len_after=4)))
        for records in (read_store(str(p)).records, reference_read(str(p))):
            (first, second) = birth_programs(records[0].entries)
            assert first == P and second is first

    CREATION = st.lists(st.tuples(st.sampled_from([P, Q, R]), st.booleans()), min_size=1, max_size=4)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.one_of(CREATION, st.sampled_from(["abort", "reopen"])), max_size=10))
    def test_round_trip(self, steps):
        """Creations drawn from three programs, each either the shared object
        or an equal parsed copy, with aborts and reopens between them."""
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "s.log")
            ds, live = DurableSystem.create(path, sync="none"), []
            for step in steps:
                if step == "reopen":
                    ds.close()
                    ds, _ = DurableSystem.open(path, sync="none")
                elif step == "abort":
                    live.append(ds.submit(TX_ABORT))
                else:
                    copies = [parse(dumps(prog)) if copy else prog for prog, copy in step]
                    live.append(ds.submit(creator(*copies)))
            ds.close()
            reopened, _ = DurableSystem.open(path, sync="none")
            reopened.close()
            assert reopened.system.records == live
            assert replay_verify(read_store(path, strict=True)) is None
            previous = None
            for payload in payloads_of(path)[1:]:
                rows = unchain(unchain(parse(payload.decode()))[3])
                for before, after in zip(rows, rows[1:]):
                    if before[0] == 0 and after[0] == before[1][1][0] and after[1][1] != 0:
                        assert not equal(after[1][1][0], previous)  # a full birth
                        previous = after[1][1][0]

    def test_fixture_records_match_across_versions(self, tmp_path):
        for name, txs in zip(FIXTURE_NAMES, _fixture_workloads()):
            snapshots = []
            for version in (1, 2, 3):
                path = str(tmp_path / f"{name}_{version}.store")
                with create_versioned(path, KernelConfig(), version) as ds:
                    live = [ds.submit(tx) for tx in txs]
                snapshots.append(read_store(path, strict=True))
            v1, v2, v3 = snapshots
            assert list(v1.records) == list(v2.records) == list(v3.records) == live, name
            lines = v1.committed_state().canonical_lines()
            assert v2.committed_state().canonical_lines() == lines, name
            assert v3.committed_state().canonical_lines() == lines, name


LONG_ABORT = ((0, 4), chain(range(20)))  # 22 pairs; it aborts
ONES = ((0, 4), chain([1] * 20))  # aborts, so nothing of it reaches the record's tail


def reference(seq, ref, tx=0):
    """A record payload that refers to record ref: seven fields chained."""
    return chain([seq, tx, (1, 9), 0, 0, 0, ref])


class TestFormat3:
    """A version-3 record whose transaction has 16 pairs or more and the text
    of the last such transaction written in full is written as a reference
    to that record, [k_len_after,[ref,0]] with 0 for the transaction, and
    reads as that record's transaction, the same str."""

    TXS = [LONG_TX, SHORT_TX, LONG_TX, LONG_ABORT, PREFIX_TX, LONG_TX, LONG_ABORT, LONG_ABORT]
    REFS = [None, None, 0, None, None, None, None, 6]

    def one_session(self, path, txs):
        build_store(path, txs)
        return path.read_bytes()

    def test_every_offset_recovers_a_prefix_that_appends(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, self.TXS[:3])
        with DurableSystem.open(str(p), sync="none")[0] as ds:
            for tx in self.TXS[3:]:
                ds.submit(tx)
        assert transaction_references(p) == self.REFS
        image = p.read_bytes()
        assert image == self.one_session(tmp_path / "one.log", self.TXS)
        live = read_store(str(p), strict=True).records
        assert live[2]._tx is live[0]._tx and live[7]._tx is live[6]._tx
        # what one session writes with LONG_TX after each prefix
        want = [self.one_session(tmp_path / f"{n}.log", self.TXS[:n] + [LONG_TX]) for n in range(9)]
        q = tmp_path / "cut.log"
        for cut in range(image.index(b"\n") + 1, len(image) + 1):
            q.write_bytes(image[:cut])
            ds, _ = DurableSystem.open(str(q), sync="none")
            n = len(ds.system.records)
            with ds:
                assert ds.system.records == list(live[:n]), cut
                ds.submit(LONG_TX)
            assert q.read_bytes() == want[n], cut
            back = read_store(str(q), strict=True)
            assert list(back.records[:n]) == list(live[:n]), cut
            assert replay_verify(back) is None, cut

    @pytest.mark.parametrize(
        "version, second, reason",
        [
            (1, reference(1, 0), "transaction reference in a version-1 store"),
            (2, reference(1, 0), "transaction reference in a version-2 store"),
            (3, reference(1, 1), "transaction reference to no earlier record"),
            (3, reference(1, 10**30), "transaction reference to no earlier record"),
            (3, reference(1, (0, 0)), "malformed transaction reference"),
            (3, reference(1, 0, tx=(1, 2)), "transaction beside a transaction reference"),
            (3, reference(1, 0, tx=7), "transaction beside a transaction reference"),
            (3, chain([1, 0, (1, 9), 0, 0, 0, 0, 0]), "malformed record"),  # eight fields
        ],
        ids=["version-1", "version-2", "itself", "later", "pair", "pair-tx", "atom-tx", "eight"],
    )
    def test_reference_reasons(self, tmp_path, version, second, reason):
        p = tmp_path / "s.log"
        write_frames(p, version, dumps(record(0)), dumps(second))
        for read in (lambda: read_store(str(p)), lambda: reference_read(str(p))):
            with pytest.raises(StoreCorruption) as info:
                read()
            assert (info.value.reason, info.value.offset) == (reason, 2)
        with pytest.raises(StoreCorruption):
            Store.open(str(p))

    @pytest.mark.parametrize("fallback", [None, "whitespace"])
    def test_a_reference_reads_as_the_earlier_transaction(self, tmp_path, fallback):
        p = tmp_path / "s.log"
        write_frames(p, 3, dumps(record(0)), dumps(record(1)), dumps(reference(2, 0)))
        if fallback:
            reframe(p, 0, lambda t: "[ " + t[1:])  # read the reference way
        for records in (read_store(str(p)).records, reference_read(str(p))):
            assert [r.tx for r in records] == [(1, 2)] * 3
            assert records[2]._tx is records[0]._tx is not records[1]._tx

    def test_refers_by_text_and_refuses_a_near_copy(self, tmp_path):
        p = tmp_path / "s.log"
        ds = DurableSystem.create(str(p), sync="none")
        ds.submit(creator(P))
        ds.submit(ONES)
        ds.store.settle()
        before = p.read_bytes()
        # == takes True and 1.0 for 1, and dumps writes a list as a tuple
        near_copies = [((0, 4), chain([bad] + [1] * 19)) for bad in (True, 1.0, -5)]
        assert near_copies[0] == near_copies[1] == ONES and dumps(list(ONES)) == dumps(ONES)
        for near in near_copies + [list(ONES)]:
            with pytest.raises(ValueError):
                ds.submit(near)
            ds.store.settle()
            assert p.read_bytes() == before
        ds.submit(ONES)
        ds.close()
        assert transaction_references(p) == [None, None, 1]
        records = read_store(str(p), strict=True).records
        q = tmp_path / "v2.log"
        build_store(q, [creator(P), ONES, ONES], version=2)
        assert list(records) == list(read_store(str(q), strict=True).records)
        assert records[2]._tx is records[1]._tx and records[2].tx == ONES

    def test_a_transaction_holding_a_list_is_refused(self, tmp_path):
        # a list could change after it was written, under the same object
        p = tmp_path / "s.log"
        tx = poke(14, [1, chain(range(20))])
        with DurableSystem.create(str(p), sync="none") as ds:
            ds.submit(creator(P))
            ds.submit(poke(14, (1, chain(range(20)))))
            ds.store.settle()
            before = p.read_bytes()
            with pytest.raises(ValueError):
                ds.submit(tx)
            assert len(ds.system.records) == 2
            ds.store.settle()
            assert p.read_bytes() == before
        assert transaction_references(p) == [None, None]

    def test_a_store_without_repeats_is_version_2_past_the_header(self, tmp_path):
        # a record that does not refer is written as version 2 writes it
        digests = pinned_stores(str(tmp_path), 3)
        for path in tmp_path.glob("*.store"):
            header, *records = payloads_of(path, strict=True)
            assert header.startswith(b"[3,")
            frames = [encode_frame(b"[2," + header[3:])] + [encode_frame(r) for r in records]
            name = path.stem.replace("routed_o_", "routed_origin_").replace("routed_p_", "routed_peer_")
            assert hashlib.sha256(b"".join(frames)).hexdigest() == PINNED_DIGESTS_V2[name], name
        assert len(digests) == 16

    POOL = [LONG_TX, creator(Q, Q), SHORT_TX, PREFIX_TX, PREFIX_TX_2, LONG_ABORT, ONES, TX_ABORT]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.one_of(st.tuples(st.sampled_from(POOL), st.booleans()), st.just("reopen")),
            max_size=12,
        )
    )
    def test_round_trip(self, steps):
        """Transactions drawn from long, short and prefix-sharing ones, each
        given as the shared object to one store and as an equal parsed copy to
        the other, which is never reopened: the bytes must not differ."""
        with tempfile.TemporaryDirectory() as directory:
            paths = [os.path.join(directory, name) for name in ("reopened.log", "one.log")]
            stores = [DurableSystem.create(path, sync="none") for path in paths]
            live = []
            for step in steps:
                if step == "reopen":
                    stores[0].close()
                    stores[0] = DurableSystem.open(paths[0], sync="none")[0]
                    continue
                tx, copy = step
                txs = [tx, parse(dumps(tx))]
                live.append(stores[0].submit(txs[copy]))
                stores[1].submit(txs[not copy])
            for ds in stores:
                ds.close()
            reopened, _ = DurableSystem.open(paths[0], sync="none")
            reopened.close()
            assert reopened.system.records == live
            assert replay_verify(read_store(paths[0], strict=True)) is None
            with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
                assert a.read() == b.read()


def z_frame(stored):
    """A frame flagged z around stored bytes, whatever they hold, with a valid crc."""
    return b"%d:%08xz%s\n" % (len(stored), zlib.crc32(stored), stored)


class TestFormat4:
    """A version-4 payload of PACK_GATE bytes or more is stored as one zlib
    stream at level PACK_LEVEL, in a frame flagged z in place of its second
    ':'; the crc covers the stored bytes, and scan_frames inflates them."""

    TXS = [
        creator(P), LONG_TX, SHORT_TX, creator(P, Q, P, Q), LONG_TX, TX_ABORT, PREFIX_TX, creator(Q)
    ]

    def frames(self, path):
        """The store's payloads and the frames Store.create's writer makes of
        them, checked against the file."""
        payloads = payloads_of(path, strict=True)
        frames = [encode_frame(q, pack=True) for q in payloads]
        assert b"".join(frames) == path.read_bytes()
        return payloads, frames

    def test_the_transactions_set_up_each_case(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, self.TXS)
        payloads, frames = self.frames(p)
        packed = [len(q) >= PACK_GATE for q in payloads]
        assert any(packed) and not all(packed[1:])
        flags = [f[f.index(b":") + 9 : f.index(b":") + 10] for f in frames]
        assert flags == [b"z" if z else b":" for z in packed]
        assert scan_frames(p.read_bytes()).packed == [
            len(b"".join(frames[:i])) for i, z in enumerate(packed) if z
        ]
        for n in (PACK_GATE - 1, PACK_GATE):  # the gate is inclusive
            frame = encode_frame(b"7" * n, pack=True)
            assert (b"z" in frame[:20]) == (n >= PACK_GATE)
            assert scan_frames(frame).payloads == [b"7" * n]

    def test_every_offset_recovers_a_prefix_that_appends(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, self.TXS)
        payloads, frames = self.frames(p)
        ends = [len(b"".join(frames[: i + 1])) for i in range(len(frames))]
        image = p.read_bytes()
        live = read_store(str(p), strict=True).records
        want = []  # what one session writes with LONG_TX after each prefix
        for n in range(len(self.TXS) + 1):
            build_store(tmp_path / f"{n}.log", self.TXS[:n] + [LONG_TX])
            want.append((tmp_path / f"{n}.log").read_bytes())
        q = tmp_path / "cut.log"
        for cut in range(ends[0], len(image) + 1):
            q.write_bytes(image[:cut])
            ds, report = DurableSystem.open(str(q), sync="none")
            n = len(ds.system.records)
            assert n == sum(end <= cut for end in ends[1:]), cut
            assert report.torn_offset == (None if cut in ends else ends[n]), cut
            with ds:
                assert ds.system.records == list(live[:n]), cut
                ds.submit(LONG_TX)
            assert q.read_bytes() == want[n], cut
            back = read_store(str(q), strict=True)
            assert list(back.records[:n]) == list(live[:n]), cut
            assert replay_verify(back) is None, cut

    @pytest.mark.parametrize("damage", ["flipped", "cut", "trailing"])
    def test_a_damaged_stream_is_corruption_at_its_frame(self, tmp_path, damage):
        p = tmp_path / "s.log"
        build_store(p, self.TXS)
        payloads, frames = self.frames(p)
        i = 2  # record 1, LONG_TX
        stored = zlib.compress(payloads[i], PACK_LEVEL)
        assert frames[i] == z_frame(stored)
        before, after = b"".join(frames[:i]), b"".join(frames[i + 1 :])
        flips = [bytes([b ^ 1]) for b in stored]
        damaged = {
            "flipped": [stored[:k] + flips[k] + stored[k + 1 :] for k in range(len(stored))],
            "cut": [stored[:k] for k in range(len(stored))],
            "trailing": [stored + b"\0", stored + stored, stored + zlib.compress(b"", PACK_LEVEL)],
        }[damage]
        for bad in damaged:
            p.write_bytes(before + z_frame(bad) + after)
            for strict in (False, True):
                with pytest.raises(StoreCorruption) as info:
                    read_store(str(p), strict)
                reason = "damaged compressed payload"
                assert (info.value.reason, info.value.offset) == (reason, len(before))
            with pytest.raises(StoreCorruption):
                Store.open(str(p), sync="none")

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_a_z_frame_below_version_4_is_corruption(self, tmp_path, version):
        p = tmp_path / "s.log"
        build_store(p, self.TXS[:3], version=version)
        with DurableSystem.open(str(p), sync="none")[0] as ds:  # appends as its version
            for tx in self.TXS[3:]:
                ds.submit(tx)
        payloads = payloads_of(p, strict=True)
        frames = [encode_frame(q) for q in payloads]
        assert b"".join(frames) == p.read_bytes()  # plain frames only
        assert sum(len(q) >= PACK_GATE for q in payloads) > 1
        before = b"".join(frames[:2])
        p.write_bytes(before + encode_frame(payloads[2], pack=True) + b"".join(frames[3:]))
        assert scan_frames(p.read_bytes()).payloads == payloads
        reason = f"compressed frame in a version-{version} store"
        for strict in (False, True):
            with pytest.raises(StoreCorruption) as info:
                read_store(str(p), strict)
            assert (info.value.reason, info.value.offset) == (reason, len(before))
        with pytest.raises(StoreCorruption):
            Store.open(str(p), sync="none")

    def test_a_z_frame_under_the_gate_is_corruption(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, self.TXS[:3])
        payloads, frames = self.frames(p)
        assert len(payloads[3]) < PACK_GATE  # record 2, SHORT_TX
        before = b"".join(frames[:3])
        p.write_bytes(before + z_frame(zlib.compress(payloads[3], PACK_LEVEL)))
        for strict in (False, True):
            with pytest.raises(StoreCorruption) as info:
                read_store(str(p), strict)
            reason = "compressed payload under the size gate"
            assert (info.value.reason, info.value.offset) == (reason, len(before))

    def test_a_reopen_after_every_record_changes_no_byte(self, tmp_path):
        one, reopened = tmp_path / "one.log", tmp_path / "reopened.log"
        build_store(one, self.TXS)
        DurableSystem.create(str(reopened), sync="none").close()
        for tx in self.TXS:
            with DurableSystem.open(str(reopened), sync="none")[0] as ds:
                ds.submit(tx)
        assert reopened.read_bytes() == one.read_bytes()
        assert read_store(str(one)).report.packed == 4


class TestOneRecordList:
    def test_scheduler_and_submit_extend_one_list(self, tmp_path):
        # run_concurrent hands each outcome to store.append and then to
        # Kernel.apply; only the second may add the record.
        p = tmp_path / "s.log"
        durable = DurableSystem.create(str(p), sync="none")
        batch = [tx_create(ECHO), tx_send(14, 5), TX_ABORT, tx_outward(5, 1), tx_create(ECHO)]
        run_concurrent(
            durable.kernel, durable.system, batch, workers=2, on_commit=durable.store.append
        )
        later = [tx_send(15, 7), TX_ABORT, tx_create(ECHO)]
        for tx in later:
            durable.submit(tx)

        records = durable.system.records
        assert records is durable.store.records
        assert len(records) == len(batch) + len(later)
        assert [r.seq for r in records] == list(range(len(records)))
        _, divergence = replicate(durable.store, n=1)
        assert divergence is None
        durable.close()

        back, report = DurableSystem.open(str(p), strict=True)
        assert report.clean and back.store.records == records
        back.close()


class TestReplayVerify:
    def test_honest_store_verifies(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS)
        store, _ = Store.open(str(p), strict=True)
        assert replay_verify(store) is None
        store.close()

    def test_tampered_delta_is_reported(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS)

        def corrupt_message(rec):
            from sendkernel.sexpr import unchain

            seq, tx, tagged, delta, xi, k_len = unchain(rec)
            rows = unchain(delta)
            r, c, m = unchain(rows[-1])
            rows[-1] = chain([r, c, (m, m)])
            return chain([seq, tx, tagged, chain(rows), xi, k_len])

        rewrite_record(str(p), 1, corrupt_message)
        store, _ = Store.open(str(p))
        assert replay_verify(store) == Divergence(1, "delta")
        store.close()

    def test_tampered_result_is_reported(self, tmp_path):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS)

        def corrupt_result(rec):
            from sendkernel.sexpr import unchain

            seq, tx, tagged, delta, xi, k_len = unchain(rec)
            return chain([seq, tx, (1, (tagged[1], 0)), delta, xi, k_len])

        rewrite_record(str(p), 4, corrupt_result)
        store, _ = Store.open(str(p))
        assert replay_verify(store) == Divergence(4, "result")
        store.close()

    def test_a_wrong_log_length_is_reported(self, tmp_path):
        # read_store refuses a wrong k_len_after, so only a record list
        # built by hand reaches this check.
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS)
        snapshot = read_store(str(p), strict=True)
        for seq, r in enumerate(snapshot.records):
            off = TxRecord(r.seq, r._tx, r.result, r.entries, r.externals, r.k_len_after + 1)
            records = snapshot.records[:seq] + (off,) + snapshot.records[seq + 1 :]
            tampered = StoreSnapshot(snapshot.config, records, snapshot.report)
            assert replay_verify(tampered) == Divergence(seq, "k_len")
            assert replicate(tampered, n=2) == ([], ReplicaDivergence(0, seq, "k_len"))

    def test_wrong_config_diverges(self, tmp_path):
        # Replaying sequential-allocator records under a hashing allocator
        # must trip on the first creation.
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS)
        store, _ = Store.open(str(p))
        from sendkernel.txn import Kernel

        div = replay_verify(store, Kernel(KernelConfig("hash", salt=1)))
        assert div is not None and div.seq == 0
        store.close()


class TestReplayCollector:
    """Replay pauses the cyclic collector and leaves it as it was, on every
    way out of the loop."""

    def kernel(self, case, config, seen):
        if case == "divergent":
            return Kernel(KernelConfig("hash", salt=1))  # trips on the first creation
        if case == "raising":

            def refusing_builtin(n, m):
                seen.append(gc.isenabled())
                raise RuntimeError("refused")

            return Kernel(config, builtin_fn=refusing_builtin)
        return Kernel(config)

    @pytest.mark.parametrize("case", ["clean", "divergent", "raising"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_replay_leaves_the_collector_as_it_was(self, tmp_path, enabled, case):
        p = tmp_path / "s.log"
        build_store(p, SAMPLE_TXS)
        snapshot = read_store(str(p), strict=True)
        mismatch = (0, "result") if case == "divergent" else None
        replays = [
            (lambda k: replay_verify(snapshot, k), mismatch and Divergence(*mismatch)),
            (lambda k: replay_compare(snapshot.records, k)[1], mismatch),
        ]
        seen = []
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            for replay, want in replays:
                kernel = self.kernel(case, snapshot.config, seen)
                if case == "raising":
                    with pytest.raises(RuntimeError, match="refused"):
                        replay(kernel)
                else:
                    assert replay(kernel) == want
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == ([False, False] if case == "raising" else [])


class TestNoCycles:
    """Replay makes no reference cycles, which is why it may run with the
    collector paused: after replays with the collector off, a collection
    finds nothing unreachable."""

    def test_replay_leaves_nothing_for_the_collector(self, tmp_path):
        workloads = _fixture_workloads() + [
            [creator(*[ECHO_PROGRAM] * 50), creator(ECHO), poke(14, (1, 2)), poke(64, 3)]
        ]
        snapshots = []
        for n, txs in enumerate(workloads):
            p = tmp_path / f"s{n}.log"
            build_store(p, txs)
            snapshots.append(read_store(str(p), strict=True))
        was = gc.isenabled()
        try:
            gc.disable()
            gc.collect()
            for snapshot in snapshots:
                assert replay_verify(snapshot) is None
            assert gc.collect() == 0
        finally:
            (gc.enable if was else gc.disable)()


class TestDispatchExternals:
    def records(self, tmp_path):
        p = tmp_path / "s.log"
        txs = [
            tx_outward(5, 1),
            TX_ABORT,
            (
                asm(
                    ("push", 10),
                    ("push", (7, 8)),
                    ("send",),
                    ("push", 11),
                    ("push", (7, 8)),
                    ("send",),
                ),
                0,
            ),
        ]
        build_store(p, txs)
        store, _ = Store.open(str(p))
        store.close()
        return store.records

    def test_tags_are_stable_across_redelivery(self, tmp_path):
        records = self.records(tmp_path)
        seen1, seen2 = [], []
        assert dispatch_externals(records, lambda t, s: seen1.append((t, s))) == (3, 0)
        dispatch_externals(records, lambda t, s: seen2.append((t, s)))
        assert seen1 == seen2
        assert [t for t, _ in seen1] == [(0, 0), (2, 0), (2, 1)]
        assert all(t[0] != 1 for t, _ in seen1)  # nothing from the abort

    def test_sink_failure_leaves_cursor_on_failed_send(self, tmp_path):
        records = self.records(tmp_path)
        delivered = []

        def flaky(tag, send):
            if tag == (2, 1):
                raise IOError("sink down")
            delivered.append(tag)

        cursor = dispatch_externals(records, flaky)
        assert cursor == (2, 1)
        assert delivered == [(0, 0), (2, 0)]
        cursor = dispatch_externals(records, lambda t, s: delivered.append(t), cursor)
        assert cursor == (3, 0)
        assert delivered == [(0, 0), (2, 0), (2, 1)]
