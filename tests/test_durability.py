"""Store framing, crash recovery, and replay auditing.

The torn/corrupt distinction carries the safety story: truncations model
crashes and must always recover to a committed prefix, while any complete
frame that fails its checksum or the record arithmetic is damage that must
be reported, never repaired silently.
"""

import errno
import os

import pytest

from sendkernel import ABORT, KernelConfig
from sendkernel.durability import (
    Divergence,
    DurableSystem,
    RecoveryReport,
    Store,
    StoreCorruption,
    StoreUninitialized,
    decode_header,
    decode_record,
    dispatch_externals,
    encode_frame,
    encode_header,
    encode_record,
    read_store,
    replay_verify,
    scan_frames,
)
from sendkernel.compose import replicate
from sendkernel.scheduler import run_concurrent
from sendkernel.sexpr import chain, dumps, parse
from sendkernel.txn import ExecResult
from sendkernel.state import ExternalSend, LogEntry

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
        assert encode_header(KernelConfig("seq", 0, 1000)) == (1, (0, (0, (1000, 0))))

    @pytest.mark.parametrize(
        "bad",
        [
            0,
            (2, (0, (0, (1000, 0)))),  # unknown version
            (1, (9, (0, (1000, 0)))),  # unknown allocator
            (1, (0, ((1, 1), (1000, 0)))),  # salt not an atom
            (1, (0, (0, (0, 0)))),  # zero budget
            chain([1, 0, 0]),  # short
        ],
    )
    def test_malformed_headers(self, bad):
        with pytest.raises(StoreCorruption):
            decode_header(bad)


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

    def test_malformed_rows_rejected(self):
        bad = chain([0, (1, 2), (1, 9), chain([chain([5, 1])]), 0, 1])
        with pytest.raises(StoreCorruption):
            decode_record(bad, 0)


def build_store(path, txs, config=None, sync="none"):
    ds = DurableSystem.create(str(path), config, sync=sync)
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
