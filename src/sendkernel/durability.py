"""Durable record store: append-only frames with crash recovery and audit.

One file holds one header frame followed by one frame per admitted
transaction, in admission order.  A frame is

    <decimal stored length> ":" <8 hex digits of crc32> (":" | "z") <stored bytes> "\n"

where the crc covers the stored bytes: after ":" the payload, canonical
s-expression text; after "z" a version-4 payload of PACK_GATE+ bytes as
one zlib stream at level PACK_LEVEL, which scan_frames inflates.  A
store's content is deterministic; its bytes are so within one zlib build
only.  Appends are atomic at the frame level: a crash can only leave an
incomplete final frame, which recovery drops.  An incomplete tail is only
tolerated when opening for recovery; a complete frame whose checksum or
grammar is wrong is corruption no matter where it sits, and strict opens
(used by the audit commands) treat even a torn tail as a failure so that
any damaged file is reported rather than silently trimmed.

Record payloads carry everything needed to rebuild the system without
re-executing anything: the transaction, its tagged result, the appended
log entries, the outward sends, and the log length after commit: the
fields of a TxRecord, which is what a payload decodes to.  The arithmetic
between those fields is checked on every open; full semantic verification
(re-running each transaction and comparing) is replay_verify.

The header frame holds the format version: Store.create writes version 4,
version 3's records in z frames.  Version 3 has birth and transaction
references, version 2 birth references only, version 1 neither; each opens
and appends as its own version, in plain frames (decode_record).

Open rebuilds the system from the deltas alone, so it checks each
transaction but keeps it as its canonical text: the text is parsed only
when replay reads the record's tx, and a long text at most twice
(replay_compare).  The rest is decoded from the C scanner's lists:
decode_record reads the fields by unpacking and turns into pairs only the
values the record keeps.  A payload the scanner refuses, or whose lists
decode_record refuses, is parsed whole and decoded again, so damage is
reported as the parser and decode_record report it.  Decoded births share
equal programs, as the live system's creations do (decode_record).

A store has one writer at a time: Store.create and Store.open lock the
file, and read_store, which never writes, takes no lock.
"""

from __future__ import annotations

import fcntl
import gc
import os
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .sexpr import (
    SExpr,
    _pairs,
    chain,
    dumps,
    equal,
    is_atom,
    parse,
    scan_split,
    unchain,
)
from .state import ABORT, KERNEL_IDENTITY, ExternalSend, KernelState, LogEntry, TxRecord, rows_equal
from .txn import ExecResult, Kernel, KernelConfig, SystemState

__all__ = [
    "StoreCorruption",
    "StoreUninitialized",
    "StoreLocked",
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

HEADER_VERSION = 4  # the format Store.create writes; versions 1 to 3 still open
PACK_GATE = 256  # the shortest version-4 payload written compressed
PACK_LEVEL = 1  # its zlib level
# The fewest pairs of a transaction Store.append may refer to (_long).
_REPEAT_PAIRS = 16
_STR_BOUND = 10**640  # str writes atoms below under any int_max_str_digits (0 or 640+)
_SHARED_BIRTHS = 8  # the distinct programs a read shares a full birth with
ALLOC_CODES = {"seq": 0, "hash": 1}
ALLOC_NAMES = {0: "seq", 1: "hash"}
SYNC_POLICIES = ("fsync", "flush", "none")

_HEADER = re.compile(rb"([0-9]+):([0-9a-f]{8})([:z])")
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


class StoreLocked(Exception):
    """Another writer holds the store."""


# frame codec ---------------------------------------------------------------


def encode_frame(payload: bytes, pack: bool = False) -> bytes:
    """The frame of payload: with pack, one of PACK_GATE+ bytes is a z frame."""
    flag = b":"
    if pack and len(payload) >= PACK_GATE:
        flag, payload = b"z", zlib.compress(payload, PACK_LEVEL)
    return b"%d:%08x%s%s\n" % (len(payload), zlib.crc32(payload), flag, payload)


@dataclass
class ScanResult:
    payloads: list[bytes]
    clean_end: int
    torn_offset: Optional[int]
    packed: list[int]  # the offset of each z frame


def scan_frames(data: bytes, strict: bool = False) -> ScanResult:
    """Split a file image into frame payloads, z frames inflated.

    A truncated final frame is reported as torn (clean_end marks the last
    complete frame) unless strict, in which case it is corruption.  Any
    byte sequence that could not be a prefix of a well-formed frame, any
    complete frame whose checksum does not match, and a z frame that is not
    one zlib stream of PACK_GATE+ bytes of text, is corruption.
    """
    payloads: list[bytes] = []
    packed: list[int] = []
    pos = 0
    n = len(data)
    width = len(str(n))  # digits of the longest length that can fit

    def torn(at: int) -> ScanResult:
        if strict:
            raise StoreCorruption("incomplete final frame", at)
        return ScanResult(payloads, at, at, packed)

    while pos < n:
        start = pos
        header = _HEADER.match(data, pos)
        if header is None:
            _check_header_prefix(data, start)
            return torn(start)
        digits, crc_field, flag = header.groups()
        pos = header.end()
        # A length of more significant digits than `width` runs past the end
        # of the data, and int() refuses a field of over 4,300 digits.
        digits = digits.lstrip(b"0")
        length = int(digits or b"0") if len(digits) <= width else n + 1

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
        if flag == b"z":
            packed.append(start)
            inflate = zlib.decompressobj()
            try:
                payload = inflate.decompress(payload)
            except zlib.error:
                payload = None
            # damaged data or check value, a stream cut short, bytes after its end
            if payload is None or not inflate.eof or inflate.unused_data:
                raise StoreCorruption("damaged compressed payload", start)
            if len(payload) < PACK_GATE:
                raise StoreCorruption("compressed payload under the size gate", start)
        payloads.append(payload)

    return ScanResult(payloads, n, None, packed)


def _check_header_prefix(data: bytes, start: int) -> None:
    """Raise StoreCorruption unless the bytes from start could begin a frame.

    Called where a whole frame header does not match at start: the header
    is then either cut off by the end of the data, which is a torn tail,
    or damaged, which this reports with the offset of the first bad byte.
    """
    n = len(data)
    pos = start
    while pos < n and data[pos] in _DIGITS:
        pos += 1
    if pos == start:
        raise StoreCorruption("frame length expected", start)
    if pos == n:
        return
    if data[pos] != 0x3A:  # ":"
        raise StoreCorruption("':' expected after frame length", pos)
    pos += 1
    crc_end = pos + 8
    if any(b not in _HEX for b in data[pos:crc_end]):
        raise StoreCorruption("malformed checksum field", pos)
    if crc_end < n and data[crc_end] not in b":z":
        raise StoreCorruption("':' or 'z' expected after checksum", crc_end)


def _parse_payload(payload: bytes, offset_hint: int) -> SExpr:
    try:
        return parse(payload.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise StoreCorruption(f"unreadable payload: {exc}", offset_hint) from None


def _decode_payload(
    payload: bytes, offset: int, recent_births: list, version: int, records: list
) -> TxRecord:
    """decode_record of a record payload read as the C scanner's lists.

    The transaction stays canonical text (sexpr.scan_split).  A payload the
    scanner refuses, or whose lists decode_record refuses, is decoded the
    reference way: parsed whole, transaction and all, then decode_record of
    its value.  So a damaged payload is reported exactly as _parse_payload
    and decode_record report it.
    """
    try:
        split = scan_split(payload.decode("ascii"))
    except UnicodeDecodeError:
        split = None
    if split is not None:
        try:
            return decode_record(split, offset, recent_births, version, records=records)
        except StoreCorruption:
            pass
    value = _parse_payload(payload, offset)
    return decode_record(value, offset, recent_births, version, records=records)


# header and record payloads -------------------------------------------------


def encode_header(config: KernelConfig) -> SExpr:
    return chain([HEADER_VERSION, ALLOC_CODES[config.allocator], config.salt, config.step_budget])


def decode_header(x: SExpr) -> KernelConfig:
    try:
        version, alloc_code, salt, step_budget = unchain(x)
    except ValueError:
        raise StoreCorruption("malformed header", 0) from None
    if version not in (1, 2, 3, HEADER_VERSION):
        raise StoreCorruption(f"unsupported store version {version}", 0)
    if alloc_code not in ALLOC_NAMES or not is_atom(salt) or not is_atom(step_budget):
        raise StoreCorruption("malformed header", 0)
    try:
        return KernelConfig(ALLOC_NAMES[alloc_code], salt, step_budget)
    except ValueError as exc:
        raise StoreCorruption(f"malformed header: {exc}", 0) from None


def encode_record(
    seq: int,
    tx_text: str,
    outcome: ExecResult,
    k_len_after: int,
    last_birth: Optional[list] = None,
    ref: Optional[int] = None,
) -> str:
    """The canonical text of a record payload, written row by row.

    [seq,[tx,[tagged,[delta,[xi,[k_len_after,end]]]]]], each row of delta
    and xi its three fields chained.  last_birth, from version 2 on, is
    [the last birth program written or None]: a birth that is or equals it
    is written [ident,[caller,0]] (decode_record), and the list moves on to
    each birth.  end is 0, or [ref,0] with tx_text "0" for a record whose
    transaction is record ref's.  str writes the message atoms below
    _STR_BOUND, dumps every other value.
    """
    refer = last_birth is not None
    program = last_birth[0] if refer else None
    created = None  # the identity the previous row created, if any
    rows = []
    for receiver, caller, message in outcome.entries:
        if receiver == created and refer:  # a birth row
            if message is program or equal(message, program):
                rows.append(f"[[{receiver},[{caller},0]],")
                program = message
                created = message if receiver == KERNEL_IDENTITY else None
                continue
            program = message
        created = message if receiver == KERNEL_IDENTITY else None
        if message.__class__ is not int or message >= _STR_BOUND:
            message = dumps(message)
        rows.append(f"[[{receiver},[{caller},[{message},0]]],")
    if refer:
        last_birth[0] = program
    sends = [f"[[{s},[{dumps(t)},[{dumps(m)},0]]]," for s, t, m in outcome.externals]
    tagged = f"[1,{dumps(outcome.result)}]" if outcome.committed else "0"
    end = "0" if ref is None else f"[{ref},0]"
    return (
        f"[{seq},[{tx_text},[{tagged},[{''.join(rows)}0{']' * len(rows)},"
        f"[{''.join(sends)}0{']' * len(sends)},[{k_len_after},{end}]]]]]]"
    )


def decode_record(
    x,
    offset: int,
    recent_births: Optional[list] = None,
    version: int = HEADER_VERSION,
    records: Optional[Sequence[TxRecord]] = None,
) -> TxRecord:
    """The record a payload holds; StoreCorruption at offset if malformed.

    x is the payload's value, or sexpr.scan_split's reading of its text:
    the fields are read by unpacking, which takes a two-item list as it
    takes a pair and refuses a list of any other length.  Only what the
    record keeps is turned into pairs: the result, each row's message and
    each outward send's target and message.

    recent_births is the read's table: [] before any birth, then (program,
    form) for each of the last _SHARED_BIRTHS distinct birth programs read,
    most recent first, form being the message as it was read; read_store
    passes one list to every record, and hands a Store it opens only the
    previous birth, encode_record's last_birth.  A birth row is the
    row right after a creation row (0, c, ident) whose receiver is ident,
    and it reads with the creation row's int object as its receiver.  A
    full birth whose program equals one in the table takes that object, the
    way the live system's creations share the object their transaction
    passed in, and the collector walks it once (_shared_birth).  From
    version 2 on, a birth row may be the reference [ident,[caller,0]]: it
    reads as the previous birth's program, recent_births[0][0], as
    encode_record wrote it.  A full row always has three fields, so no
    reference reads as a program.

    records are the records read before this one (read_store's).  From
    version 3 on, a record may end [k_len_after,[ref,0]] in place of
    [k_len_after,0], with 0 in its transaction slot: its transaction is
    record ref's, the same str.  ref must be an atom below seq and below
    len(records); each other case has its own reason.  Without records, a
    record is read alone, and such an end is a malformed record, as it is
    a seventh field to a reader of version 2.  A reference is exact: it
    names a transaction this read has checked, and it is written only where
    the canonical texts are equal (Store.append).
    """
    if recent_births is None:
        recent_births = []

    def bad(reason: str):
        return StoreCorruption(reason, offset)

    # Unpacking an atom where a pair belongs raises TypeError.
    try:
        seq, (tx, (tagged, (delta, (xi, (k_len_after, end))))) = x
        ref = None
        if end != 0:
            ref, end = end
    except (TypeError, ValueError):
        raise bad("malformed record") from None
    if end != 0 or not is_atom(seq) or not is_atom(k_len_after):
        raise bad("malformed record")
    if ref is not None:  # a transaction reference
        if records is None:
            raise bad("malformed record")
        if version < 3:
            raise bad(f"transaction reference in a version-{version} store")
        if not is_atom(ref):
            raise bad("malformed transaction reference")
        if ref >= seq or ref >= len(records):
            raise bad("transaction reference to no earlier record")
        if tx != 0 and tx != "0":
            raise bad("transaction beside a transaction reference")
        tx = records[ref]._tx

    if tagged == 0:
        result = ABORT
    else:
        try:
            tag, result = tagged
            if tag != 1:
                raise ValueError
            result = _pairs(result)
        except (TypeError, ValueError):
            raise bad("malformed result tag") from None

    entries = []
    externals = []
    try:
        created = None  # the identity the previous row created, if any
        while delta.__class__ is not int:
            (receiver, (caller, tail)), delta = delta
            if not is_atom(receiver) or not is_atom(caller):
                raise ValueError
            if receiver == created:  # a birth row
                receiver = created  # the creation row's int object
                if tail.__class__ is not int:
                    message, end = tail
                    if end != 0:
                        raise ValueError
                    message = _shared_birth(message, recent_births)
                elif tail != 0:
                    raise ValueError
                elif version == 1:
                    raise bad("birth reference in a version-1 store")
                elif not recent_births:
                    raise bad("birth reference before any birth")
                else:
                    message = recent_births[0][0]
            else:
                message, end = tail  # an int tail, a reference, raises TypeError
                if end != 0:
                    raise ValueError
                if message.__class__ is list:
                    message = _pairs(message)
            created = message if receiver == KERNEL_IDENTITY else None
            entries.append(tuple.__new__(LogEntry, (receiver, caller, message)))
        while xi.__class__ is not int:
            (sender, (target, (message, end))), xi = xi
            if end != 0 or not is_atom(sender):
                raise ValueError
            externals.append(ExternalSend(sender, _pairs(target), _pairs(message)))
        if delta != 0 or xi != 0:
            raise ValueError
    except (TypeError, ValueError):
        raise bad("malformed effect row") from None

    if result is ABORT and (entries or externals):
        raise bad("aborted record carries effects")
    return TxRecord(seq, tx, result, tuple(entries), tuple(externals), k_len_after)


def _shared_birth(message, recent_births: list) -> SExpr:
    """A full birth row's program, whose entry moves to the front of
    recent_births (decode_record's table): the equal program in the table,
    if any, else the message converted.

    The message is first compared as read with each entry's form: C
    comparison of the scanner's lists, or of a parsed value's pairs, which
    finds an equal program without converting the message.  Only if none is
    equal is it converted, and the value compared by equal with each
    program, which also finds it across forms (a payload parsed whole
    beside the scanner's), or past the depth the C comparison reaches.
    Values are never hashed.  From version 2 on no full birth equals the
    previous one (encode_record), so what it finds is an earlier program,
    as alternating births do.
    """
    for i, (program, form) in enumerate(recent_births):
        try:
            if form == message:
                break
        except RecursionError:
            pass
    else:
        value = _pairs(message, keep=True)
        for i, (program, _) in enumerate(recent_births):
            if equal(value, program):
                break
        else:
            if len(recent_births) == _SHARED_BIRTHS:
                recent_births.pop()
            recent_births.insert(0, (value, message))
            return value
    recent_births.insert(0, recent_births.pop(i))
    return program


# the store ------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What open() found: frame count, any torn tail dropped, format version
    and z frame count."""

    records: int
    torn_offset: Optional[int]
    dropped_bytes: int
    version: int
    packed: int

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


@contextmanager
def _collector_paused():
    """Hold off the cyclic garbage collector while a store decodes or replays.

    Neither makes cycles: their garbage (the scanner's lists, each
    transaction's parsed value and outcome) goes by reference counting,
    and every value they keep survives.  A collection in the middle frees
    nothing, yet walks what has been decoded or replayed so far, and the
    older generations walk it again and again.  Paused, those values meet
    the collector in the first pass after it, which also untracks their
    pairs.  A collector that was off stays off.  tests/test_durability.py's
    TestNoCycles pins the premise: after paused replays of the fixture
    stores, gc.collect() finds nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_store(path: str, strict: bool = False) -> StoreSnapshot:
    """Decode a store file touching nothing: no truncation, no handle kept.

    A torn tail is reported, not read, unless strict makes it corruption.
    Every record's arithmetic is revalidated against its predecessor.
    """
    return _read_store(path, strict)[0]


def _read_store(
    path: str, strict: bool
) -> tuple[StoreSnapshot, Optional[list], Optional[tuple], bool]:
    """read_store, and the births, repeat and pack a Store of it starts from
    (see Store)."""
    with open(path, "rb") as fh:
        data = fh.read()
    scan = scan_frames(data, strict=strict)
    if not scan.payloads:
        raise StoreUninitialized(f"no complete header frame in {path}")
    header = _parse_payload(scan.payloads[0], 0)
    config = decode_header(header)
    version = header[0]
    if scan.packed and version < 4:
        raise StoreCorruption(f"compressed frame in a version-{version} store", scan.packed[0])

    records: list[TxRecord] = []
    k_len = 0
    recent_births: list = []
    repeat = None if version < 3 else _NO_REPEAT
    with _collector_paused():
        for i, payload in enumerate(scan.payloads[1:]):
            record = _decode_payload(payload, i + 1, recent_births, version, records)
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
            tx = record._tx
            if repeat is not None and tx is not repeat[1]:  # as Store.append moves it on
                text = tx if tx.__class__ is str else dumps(tx)
                if text != repeat[1] and _long(text):
                    repeat = (i, text, tx)
    report = RecoveryReport(
        len(records), scan.torn_offset, len(data) - scan.clean_end, version, len(scan.packed)
    )
    births = None if version == 1 else [recent_births[0][0] if recent_births else None]
    return StoreSnapshot(config, tuple(records), report), births, repeat, version >= 4


_NO_REPEAT = (None, None, object())  # before any long text: no tx is its object


def _long(text: str) -> bool:
    """Whether a transaction's canonical text has _REPEAT_PAIRS+ pairs, one
    "[" each; it then has 4 * _REPEAT_PAIRS + 1 characters or more, which
    the length test checks first."""
    return len(text) > 4 * _REPEAT_PAIRS and text.count("[") >= _REPEAT_PAIRS


def _check_policy(sync: str, group_size: int) -> None:
    """Raise ValueError for a sync policy or group size Store cannot take."""
    if sync not in SYNC_POLICIES:
        raise ValueError(f"unknown sync policy {sync!r}")
    if group_size < 1:
        raise ValueError("group size must be positive")


def _take_writer_lock(handle, path: str) -> None:
    """Lock the store for this handle until it is closed, or close it and
    raise StoreLocked: another handle, in this process or another, holds it.
    The lock is flock's, so it is advisory; read_store takes none."""
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        handle.close()
        raise StoreLocked(f"store {path} is open for writing elsewhere") from None


class Store:
    """Append-only frame file plus the records its frames hold.

    A store has one writer: create and open lock the file, and a second
    writer gets StoreLocked before it reads or truncates anything.  The
    lock goes with the handle, when the store is closed or abandoned.

    append() writes a frame and nothing else.  The record joins `records`
    when its outcome is applied to a system: a DurableSystem's SystemState
    shares this list, so Kernel.apply extends both at once and each
    admitted transaction is held once.

    sync picks the durability point of each append: "fsync" forces the
    data to disk, "flush" hands it to the OS, "none" leaves it buffered.
    group_size batches appends between durability points; close() always
    settles the tail.  A failed write, flush or fsync cuts the file back
    to its last settled frame and closes the store until it is reopened.

    Values are checked once, at admission (Kernel.submit), and the kernel
    builds every other field from them, so the store checks none.

    births is encode_record's last_birth, None for a version-1 store.
    repeat, None below version 3, is (seq, text, tx) of the last
    transaction of _REPEAT_PAIRS+ pairs written in full (_long): one of that
    text is written as a reference to record seq (decode_record).  It
    depends on the transactions' texts alone, so open seeds it from the
    read.  tx is the object written, or what the read kept; an admitted
    value cannot change, so the same object has the same text.  Both
    advance only once a frame is written.  pack, true from version 4 on,
    writes payloads of PACK_GATE+ bytes as z frames.
    """

    def __init__(
        self,
        path: str,
        config: KernelConfig,
        records: list[TxRecord],
        handle,
        sync: str,
        group_size: int,
        births: Optional[list],
        repeat: Optional[tuple],
        pack: bool,
    ):
        self.path = path
        self.config = config
        self.records = records
        self._seq = len(records)  # sequence number of the next frame
        self._fh = handle
        self._sync = sync
        self._group_size = group_size
        self._pending_syncs = 0
        self._settled_end = handle.tell()  # end of the last frame settled
        self._torn: Optional[int] = None  # where a torn tail left by open starts
        self._births = births
        self._repeat = repeat
        self._pack = pack

    @classmethod
    def create(
        cls,
        path: str,
        config: Optional[KernelConfig] = None,
        sync: str = "fsync",
        group_size: int = 1,
    ) -> "Store":
        config = config or KernelConfig()
        _check_policy(sync, group_size)
        if os.path.exists(path):
            raise FileExistsError(f"store already exists: {path}")
        fh = open(path, "xb")
        _take_writer_lock(fh, path)
        fh.write(encode_frame(dumps(encode_header(config)).encode("ascii")))
        fh.flush()
        os.fsync(fh.fileno())
        return cls(path, config, [], fh, sync, group_size, [None], _NO_REPEAT, True)

    @classmethod
    def open(
        cls,
        path: str,
        sync: str = "fsync",
        group_size: int = 1,
        strict: bool = False,
        cut: bool = True,
    ) -> tuple["Store", RecoveryReport]:
        """Take the writer lock, read_store, then truncate a torn tail.

        Recovery needs no re-execution: the recorded deltas are the state.
        With cut=False the torn tail stays until cut_torn_tail or the first
        append, so that a caller opening several stores can leave every
        file as it was if one of them fails to open.
        """
        _check_policy(sync, group_size)
        handle = open(os.open(path, os.O_WRONLY | os.O_APPEND), "ab")
        try:
            _take_writer_lock(handle, path)
            snapshot, *writer = _read_store(path, strict)
            records = list(snapshot.records)
            store = cls(path, snapshot.config, records, handle, sync, group_size, *writer)
            store._torn = snapshot.report.torn_offset
            if cut:
                store.cut_torn_tail()
        except BaseException:
            handle.close()
            raise
        return store, snapshot.report

    def cut_torn_tail(self) -> None:
        """Truncate the torn tail open found, if it is still there."""
        if self._torn is not None:
            self._fh.truncate(self._torn)
            self._fh.seek(0, os.SEEK_END)
            self._settled_end, self._torn = self._torn, None

    def append(self, tx: SExpr, outcome: ExecResult, k_len_after: int) -> None:
        """Write the frame of the next record; records grows when it is applied.

        tx must be a value, as Kernel.submit admits it (sexpr.check_value):
        its canonical text goes unchecked into encode_record's text.
        """
        if self._fh.closed:
            raise ValueError(f"store {self.path} is closed; reopen it to append")
        if self._torn is not None:
            self.cut_torn_tail()
        seq, repeat = self._seq, self._repeat
        births = None if self._births is None else list(self._births)
        tx_text = repeat[1] if repeat is not None and tx is repeat[2] else dumps(tx)
        ref = repeat[0] if repeat is not None and tx_text == repeat[1] else None
        text = encode_record(
            seq, tx_text if ref is None else "0", outcome, k_len_after, births, ref
        )
        payload = text.encode("ascii")
        try:
            self._fh.write(encode_frame(payload, self._pack))
        except BaseException:
            self._abandon()
            raise
        self._seq += 1
        self._births = births
        if repeat is not None and ref is None and _long(tx_text):
            self._repeat = (seq, tx_text, tx)
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


_SHARED_TEXT = 64  # the shortest transaction text replay_compare shares
_SEEN_ONCE = object()


def replay_compare(
    records: Sequence[TxRecord], kernel: Kernel
) -> tuple[SystemState, Optional[tuple[int, str]]]:
    """Re-execute records from an empty state against what they recorded.

    Returns the replayed system and the first divergence as (seq, field),
    field being "result", "delta", "k_len" or "externals", or None.  Each
    record itself is applied once its outcome matches, so the system holds
    exactly the records replayed so far.  The loop runs with the collector
    paused (_collector_paused).

    A transaction text of _SHARED_TEXT+ characters is parsed on its first
    two sights, and the second value serves every later one: values are
    immutable.  Keys are texts; hashing a deep value would recurse.
    """
    system = SystemState.fresh()
    state = system.kernel
    parsed: dict = {}  # text -> its value, or _SEEN_ONCE after its first sight
    with _collector_paused():
        for record in records:
            tx = record._tx
            if tx.__class__ is str and len(tx) >= _SHARED_TEXT:
                value = parsed.get(tx)
                if value is None:
                    parsed[tx] = _SEEN_ONCE
                    value = record.tx
                elif value is _SEEN_ONCE:
                    value = parsed[tx] = record.tx  # tx stays the key
                tx = value
            else:
                tx = record.tx
            outcome = kernel.execute(state, state.size, tx)
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
