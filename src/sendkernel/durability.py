"""Durable record store: append-only frames with crash recovery and audit.

One file holds one header frame followed by one frame per admitted
transaction, in admission order.  A frame is

    <decimal payload length> ":" <8 hex digits of crc32> ":" <payload> "\n"

where the payload is canonical s-expression text.  Appends are atomic at
the frame level: a crash can only leave an incomplete final frame, which
recovery drops.  An incomplete tail is only tolerated when opening for
recovery; a complete frame whose checksum or grammar is wrong is
corruption no matter where it sits, and strict opens (used by the audit
commands) treat even a torn tail as a failure so that any damaged file is
reported rather than silently trimmed.

Record payloads carry everything needed to rebuild the system without
re-executing anything: the transaction, its tagged result, the appended
log entries, the outward sends, and the log length after commit: the
fields of a TxRecord, which is what a payload decodes to.  The arithmetic
between those fields is checked on every open; full semantic verification
(re-running each transaction and comparing) is replay_verify.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .sexpr import SExpr, chain, dumps, equal, is_atom, is_pair, parse, unchain
from .state import ABORT, ExternalSend, KernelState, LogEntry, TxRecord, rows_equal
from .txn import ExecResult, Kernel, KernelConfig, SystemState

__all__ = [
    "StoreCorruption",
    "StoreUninitialized",
    "RecoveryReport",
    "Store",
    "StoreSnapshot",
    "read_store",
    "DurableSystem",
    "Divergence",
    "replay_compare",
    "replay_verify",
    "dispatch_externals",
    "next_external",
    "encode_frame",
    "scan_frames",
]

HEADER_VERSION = 1
ALLOC_CODES = {"seq": 0, "hash": 1}
ALLOC_NAMES = {0: "seq", 1: "hash"}
SYNC_POLICIES = ("fsync", "flush", "none")

_DIGITS = frozenset(b"0123456789")
_HEX = frozenset(b"0123456789abcdef")


class StoreCorruption(Exception):
    """A complete frame or the record structure is damaged."""

    def __init__(self, reason: str, offset: int):
        super().__init__(f"{reason} (offset {offset})")
        self.reason = reason
        self.offset = offset


class StoreUninitialized(Exception):
    """The file does not contain a complete header frame."""


# frame codec ---------------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    return b"%d:%08x:%s\n" % (len(payload), zlib.crc32(payload), payload)


@dataclass
class ScanResult:
    payloads: list[bytes]
    clean_end: int
    torn_offset: Optional[int]


def scan_frames(data: bytes, strict: bool = False) -> ScanResult:
    """Split a file image into frame payloads.

    A truncated final frame is reported as torn (clean_end marks the last
    complete frame) unless strict, in which case it is corruption.  Any
    byte sequence that could not be a prefix of a well-formed frame, and
    any complete frame whose checksum does not match, is corruption.
    """
    payloads: list[bytes] = []
    pos = 0
    n = len(data)

    def torn(at: int) -> ScanResult:
        if strict:
            raise StoreCorruption("incomplete final frame", at)
        return ScanResult(payloads, at, at)

    while pos < n:
        start = pos
        while pos < n and data[pos] in _DIGITS:
            pos += 1
        if pos == start:
            raise StoreCorruption("frame length expected", start)
        if pos == n:
            return torn(start)
        if data[pos] != 0x3A:  # ":"
            raise StoreCorruption("':' expected after frame length", pos)
        length = int(data[start:pos])
        pos += 1

        crc_end = pos + 8
        crc_field = data[pos:crc_end]
        if any(b not in _HEX for b in crc_field):
            raise StoreCorruption("malformed checksum field", pos)
        if len(crc_field) < 8:
            return torn(start)
        pos = crc_end
        if pos == n:
            return torn(start)
        if data[pos] != 0x3A:
            raise StoreCorruption("':' expected after checksum", pos)
        pos += 1

        if n - pos < length:
            return torn(start)
        payload = data[pos : pos + length]
        pos += length
        if pos == n:
            return torn(start)
        if data[pos] != 0x0A:  # "\n"
            raise StoreCorruption("frame terminator expected", pos)
        pos += 1

        if zlib.crc32(payload) != int(crc_field, 16):
            raise StoreCorruption("checksum mismatch", start)
        payloads.append(payload)

    return ScanResult(payloads, n, None)


def _parse_payload(payload: bytes, offset_hint: int) -> SExpr:
    try:
        return parse(payload.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise StoreCorruption(f"unreadable payload: {exc}", offset_hint) from None


# header and record payloads -------------------------------------------------


def encode_header(config: KernelConfig) -> SExpr:
    return chain(
        [HEADER_VERSION, ALLOC_CODES[config.allocator], config.salt, config.step_budget]
    )


def decode_header(x: SExpr) -> KernelConfig:
    try:
        version, alloc_code, salt, step_budget = unchain(x)
    except ValueError:
        raise StoreCorruption("malformed header", 0) from None
    if version != HEADER_VERSION:
        raise StoreCorruption(f"unsupported store version {version}", 0)
    if alloc_code not in ALLOC_NAMES or not is_atom(salt) or not is_atom(step_budget):
        raise StoreCorruption("malformed header", 0)
    try:
        return KernelConfig(ALLOC_NAMES[alloc_code], salt, step_budget)
    except ValueError as exc:
        raise StoreCorruption(f"malformed header: {exc}", 0) from None


def encode_record(seq: int, tx: SExpr, outcome: ExecResult, k_len_after: int) -> SExpr:
    if outcome.committed:
        tagged = (1, outcome.result)
    else:
        tagged = 0
    delta = chain([chain([e.receiver, e.caller, e.message]) for e in outcome.entries])
    xi = chain([chain([s.sender, s.target, s.message]) for s in outcome.externals])
    return chain([seq, tx, tagged, delta, xi, k_len_after])


def decode_record(x: SExpr, offset: int) -> TxRecord:
    def bad(reason: str):
        return StoreCorruption(reason, offset)

    try:
        seq, tx, tagged, delta, xi, k_len_after = unchain(x)
    except ValueError:
        raise bad("malformed record") from None
    if not is_atom(seq) or not is_atom(k_len_after):
        raise bad("malformed record")

    if tagged == 0:
        result = ABORT
    elif is_pair(tagged) and tagged[0] == 1:
        result = tagged[1]
    else:
        raise bad("malformed result tag")

    entries = []
    try:
        for row in unchain(delta):
            receiver, caller, message = unchain(row)
            if not is_atom(receiver) or not is_atom(caller):
                raise ValueError
            entries.append(LogEntry(receiver, caller, message))
        externals = []
        for row in unchain(xi):
            sender, target, message = unchain(row)
            if not is_atom(sender):
                raise ValueError
            externals.append(ExternalSend(sender, target, message))
    except ValueError:
        raise bad("malformed effect row") from None

    if result is ABORT and (entries or externals):
        raise bad("aborted record carries effects")
    return TxRecord(seq, tx, result, tuple(entries), tuple(externals), k_len_after)


# the store ------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What open() found: frame count, and whether a torn tail was dropped."""

    records: int
    torn_offset: Optional[int]
    dropped_bytes: int

    @property
    def clean(self) -> bool:
        return self.torn_offset is None


@dataclass(frozen=True)
class StoreSnapshot:
    """A store's decoded content without a write handle.

    Snapshots never truncate or reopen the file, so inspection commands
    built on them are provably read-only.  replay_verify and replicate
    take a snapshot or a Store alike: both read only config and records.
    """

    config: KernelConfig
    records: tuple
    report: RecoveryReport

    def committed_state(self) -> KernelState:
        """The log that the records' deltas add up to."""
        state = KernelState()
        for record in self.records:
            state.append_all(record.entries)
        return state


def read_store(path: str, strict: bool = False) -> StoreSnapshot:
    """Decode a store file touching nothing: no truncation, no handle kept.

    A torn tail is reported, not read, unless strict makes it corruption.
    Every record's arithmetic is revalidated against its predecessor.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    scan = scan_frames(data, strict=strict)
    if not scan.payloads:
        raise StoreUninitialized(f"no complete header frame in {path}")
    config = decode_header(_parse_payload(scan.payloads[0], 0))

    records: list[TxRecord] = []
    k_len = 0
    for i, payload in enumerate(scan.payloads[1:]):
        record = decode_record(_parse_payload(payload, i + 1), i + 1)
        if record.seq != i:
            raise StoreCorruption(
                f"record sequence {record.seq} where {i} expected", i + 1
            )
        expected = k_len + len(record.entries)  # an abort decodes with none
        if record.k_len_after != expected:
            raise StoreCorruption(
                f"record {i} log length {record.k_len_after} != {expected}", i + 1
            )
        k_len = record.k_len_after
        records.append(record)
    report = RecoveryReport(len(records), scan.torn_offset, len(data) - scan.clean_end)
    return StoreSnapshot(config, tuple(records), report)


class Store:
    """Append-only frame file plus the records its frames hold.

    append() writes a frame and nothing else.  The record joins `records`
    when its outcome is applied to a system: a DurableSystem's SystemState
    shares this list, so Kernel.apply extends both at once and each
    admitted transaction is held once.

    sync picks the durability point of each append: "fsync" forces the
    data to disk, "flush" hands it to the OS, "none" leaves it buffered.
    group_size batches appends between durability points; close() always
    settles the tail.  A failed write, flush or fsync cuts the file back
    to its last settled frame and closes the store until it is reopened.
    """

    def __init__(
        self,
        path: str,
        config: KernelConfig,
        records: list[TxRecord],
        handle,
        sync: str,
        group_size: int,
    ):
        if sync not in SYNC_POLICIES:
            raise ValueError(f"unknown sync policy {sync!r}")
        if group_size < 1:
            raise ValueError("group size must be positive")
        self.path = path
        self.config = config
        self.records = records
        self._seq = len(records)  # sequence number of the next frame
        self._fh = handle
        self._sync = sync
        self._group_size = group_size
        self._pending_syncs = 0
        self._settled_end = handle.tell()  # end of the last frame settled

    @classmethod
    def create(
        cls,
        path: str,
        config: Optional[KernelConfig] = None,
        sync: str = "fsync",
        group_size: int = 1,
    ) -> "Store":
        config = config or KernelConfig()
        if os.path.exists(path):
            raise FileExistsError(f"store already exists: {path}")
        fh = open(path, "xb")
        fh.write(encode_frame(dumps(encode_header(config)).encode("ascii")))
        fh.flush()
        os.fsync(fh.fileno())
        return cls(path, config, [], fh, sync, group_size)

    @classmethod
    def open(
        cls,
        path: str,
        sync: str = "fsync",
        group_size: int = 1,
        strict: bool = False,
    ) -> tuple["Store", RecoveryReport]:
        """read_store, then truncate a torn tail and open the write handle.

        Recovery needs no re-execution: the recorded deltas are the state.
        """
        snapshot = read_store(path, strict)
        report = snapshot.report
        if not report.clean:
            with open(path, "r+b") as fh:
                fh.truncate(report.torn_offset)
        handle = open(path, "ab")
        store = cls(path, snapshot.config, list(snapshot.records), handle, sync, group_size)
        return store, report

    def append(self, tx: SExpr, outcome: ExecResult, k_len_after: int) -> None:
        """Write the frame of the next record; records grows when it is applied."""
        if self._fh.closed:
            raise ValueError(f"store {self.path} is closed; reopen it to append")
        payload = dumps(encode_record(self._seq, tx, outcome, k_len_after)).encode("ascii")
        try:
            self._fh.write(encode_frame(payload))
        except BaseException:
            self._abandon()
            raise
        self._seq += 1
        self._pending_syncs += 1
        if self._pending_syncs >= self._group_size:
            self.settle()

    def settle(self) -> None:
        """Apply the sync policy to everything buffered so far."""
        if self._sync != "none":
            self._flush()
        self._pending_syncs = 0

    def _flush(self) -> None:
        try:
            self._fh.flush()
            if self._sync == "fsync":
                os.fsync(self._fh.fileno())
        except BaseException:
            self._abandon()
            raise
        self._settled_end = self._fh.tell()

    def _abandon(self) -> None:
        """Cut the file back to its last settled frame and close it unflushed:
        a buffered writer whose raw file is closed never flushes again.
        """
        raw = self._fh.raw
        try:
            os.ftruncate(raw.fileno(), self._settled_end)
        finally:
            raw.close()

    def close(self) -> None:
        if not self._fh.closed:
            self._flush()
            self._fh.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    committed_state = StoreSnapshot.committed_state


class DurableSystem:
    """A system whose record of admissions lives in a store.

    Writes go to disk before they touch memory: a crash between the two
    loses only the in-memory copy, which the next open rebuilds from the
    file, and a crash before the write means the transaction was never
    admitted.
    """

    def __init__(self, store: Store, kernel: Kernel, system: SystemState):
        self.store = store
        self.kernel = kernel
        self.system = system

    @classmethod
    def create(cls, path: str, config: Optional[KernelConfig] = None, **store_kw) -> "DurableSystem":
        store = Store.create(path, config, **store_kw)
        return cls(store, Kernel(store.config), SystemState(records=store.records))

    @classmethod
    def open(cls, path: str, **store_kw) -> tuple["DurableSystem", RecoveryReport]:
        store, report = Store.open(path, **store_kw)
        system = SystemState(store.committed_state(), store.records)
        return cls(store, Kernel(store.config), system), report

    def submit(self, tx: SExpr) -> TxRecord:
        return self.kernel.submit(self.system, tx, self.store.append)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "DurableSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# audit ------------------------------------------------------------------


@dataclass
class Divergence:
    """First point where re-execution disagrees with the record."""

    seq: int
    field: str  # "result" | "delta" | "externals" | "k_len"

    def __str__(self) -> str:
        return f"record {self.seq} diverges on {self.field}"


def replay_compare(
    records: Sequence[TxRecord], kernel: Kernel
) -> tuple[SystemState, Optional[tuple[int, str]]]:
    """Re-execute records from an empty state against what they recorded.

    Returns the replayed system and the first divergence as (seq, field),
    field being "result", "delta", "k_len" or "externals", or None.  Each
    record itself is applied once its outcome matches, so the system holds
    exactly the records replayed so far.
    """
    system = SystemState.fresh()
    state = system.kernel
    for record in records:
        outcome = kernel.execute(state, state.size, record.tx)
        if outcome.committed != record.committed or (
            record.committed and not equal(outcome.result, record.result)
        ):
            return system, (record.seq, "result")
        if not rows_equal(record.entries, outcome.entries):
            return system, (record.seq, "delta")
        if state.size + len(record.entries) != record.k_len_after:
            return system, (record.seq, "k_len")
        if not rows_equal(record.externals, outcome.externals):
            return system, (record.seq, "externals")
        state.append_all(record.entries)
        system.records.append(record)
    return system, None


def replay_verify(
    store: Union[Store, StoreSnapshot], kernel: Optional[Kernel] = None
) -> Optional[Divergence]:
    """Re-execute every record from an empty state; report the first mismatch."""
    _, mismatch = replay_compare(store.records, kernel or Kernel(store.config))
    return None if mismatch is None else Divergence(*mismatch)


Cursor = tuple[int, int]


def next_external(
    records: Sequence[TxRecord], cursor: Cursor
) -> tuple[Cursor, Optional[ExternalSend]]:
    """The first outward send at or after cursor, with its (seq, index) tag.

    Walks records in admission order; past the last send it returns the
    end cursor (len(records) or beyond, 0) and None.
    """
    seq, index = cursor
    while seq < len(records):
        sends = records[seq].externals
        if index < len(sends):
            return (seq, index), sends[index]
        seq, index = seq + 1, 0
    return (seq, 0), None


def dispatch_externals(
    records: Sequence[TxRecord],
    sink: Callable[[Cursor, ExternalSend], None],
    cursor: Cursor = (0, 0),
) -> Cursor:
    """Deliver outward sends in admission order with stable (seq, index) tags.

    A sink failure stops delivery with the cursor still pointing at the
    failed send, so a retry re-presents it under the same tag.  Nothing
    is ever delivered from an aborted record: its send list is empty.
    """
    while True:
        tag, send = next_external(records, cursor)
        if send is None:
            return tag
        try:
            sink(tag, send)
        except Exception:
            return tag
        cursor = (tag[0], tag[1] + 1)
