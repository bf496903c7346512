"""Kernel state: an append-only sequence of log entries, plus projections.

An entry (receiver, caller, message) says: `receiver` was sent `message`
by `caller`.  An object's log is the subsequence addressed to it; its
first entry is the birth record, whose message is the object's program.
Object 0 is the kernel itself: every creation appends a creation record
(0, creator, new_id) to its log, which doubles as the identity registry.

During a transaction, lookups see the committed prefix plus the
transaction's own pending entries (read-your-writes); nothing is visible
to other transactions until commit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .sexpr import SExpr, dumps, equal, is_atom, parse

KERNEL_IDENTITY = 0
EXTERNAL_IDENTITY = 1

__all__ = [
    "ABORT",
    "Abort",
    "LogEntry",
    "ExternalSend",
    "Effects",
    "TxRecord",
    "TxResult",
    "KernelState",
    "StateView",
    "UndefinedObjectError",
    "encode_log",
    "rows_equal",
]


class Abort:
    """Distinguished non-value marking a failed transaction.

    Not an s-expression: it cannot appear inside any message or log.
    """

    _instance: Optional["Abort"] = None

    def __new__(cls) -> "Abort":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABORT"


ABORT = Abort()

TxResult = Union[SExpr, Abort]


class LogEntry(NamedTuple):
    # Hot paths build rows with tuple.__new__, skipping the Python __new__.
    receiver: int
    caller: int
    message: SExpr


class ExternalSend(NamedTuple):
    sender: int
    target: SExpr  # the full outward-form pair the program addressed
    message: SExpr


class Effects:
    """A transaction's pending state: log appends and outbound sends.

    Discarded wholesale on abort; applied wholesale on commit.
    """

    __slots__ = ("entries", "externals")

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        self.externals: list[ExternalSend] = []


def rows_equal(a, b) -> bool:
    """Rows (log entries or outward sends) equal field by field.

    C's tuple comparison first, as in sexpr.equal; a value nested past the
    recursion limit falls back to equal on each field.
    """
    try:
        return tuple(a) == tuple(b)
    except RecursionError:
        pass
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            if not equal(x, y):
                return False
    return True


@dataclass(frozen=True, eq=False, slots=True)
class TxRecord:
    """One admitted transaction's permanent outcome, as held and as stored.

    seq is the admission index and k_len_after the committed log length
    once the record is applied.  `entries` and `externals` are empty
    whenever `result` is ABORT: an aborted transaction appends nothing and
    releases nothing to the outside world.

    The transaction may be given as its value or as its canonical text
    (dumps of the value).  A record decoded from a store keeps the text,
    and `tx` parses it on every read: only replay needs the value, and it
    holds one per long text it has seen twice (durability.replay_compare).

    Equality and repr fall back to explicit-stack walks on deep values,
    so records of any depth compare and print; records are unhashable,
    since hashing would recurse.
    """

    seq: int
    _tx: Union[SExpr, str]
    result: TxResult
    entries: tuple[LogEntry, ...]
    externals: tuple[ExternalSend, ...]
    k_len_after: int

    @property
    def tx(self) -> SExpr:
        tx = self._tx
        return parse(tx) if tx.__class__ is str else tx

    @property
    def committed(self) -> bool:
        return not isinstance(self.result, Abort)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TxRecord):
            return NotImplemented
        return (
            self.seq == other.seq
            and self.k_len_after == other.k_len_after
            and self.committed == other.committed
            and (not self.committed or equal(self.result, other.result))
            and equal(self.tx, other.tx)
            and rows_equal(self.entries, other.entries)
            and rows_equal(self.externals, other.externals)
        )

    def __repr__(self) -> str:
        result = dumps(self.result) if self.committed else "ABORT"
        return f"TxRecord(seq={self.seq}, result={result}, k_len_after={self.k_len_after})"


class UndefinedObjectError(KeyError):
    """Projection of a program from an identity with no birth record."""


class KernelState:
    """Committed entries plus derived per-receiver indexes.

    The indexes are caches only: they are rebuilt from the entry list and
    never persisted.  Entries are appended by commits and never mutated,
    which is what makes prefix views (snapshots) free.
    """

    __slots__ = ("entries", "_positions", "_created")

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        self._positions: dict[int, list[int]] = {}
        self._created: dict[int, int] = {}

    @classmethod
    def from_entries(cls, entries: Iterable[LogEntry]) -> "KernelState":
        st = cls()
        st.append_all(entries)
        return st

    @property
    def size(self) -> int:
        return len(self.entries)

    def append_all(self, entries: Iterable[LogEntry]) -> None:
        log, positions = self.entries, self._positions
        for e in entries:
            if e.__class__ is not LogEntry:
                e = LogEntry(*e)
            pos = len(log)
            log.append(e)
            receiver = e.receiver
            at = positions.get(receiver)
            if at is None:  # not [pos], which grows to 8 slots on its second row
                at = positions[receiver] = []
            at.append(pos)
            if receiver == KERNEL_IDENTITY and is_atom(e.message):
                self._created.setdefault(e.message, pos)

    def created_at(self, ident: int) -> Optional[int]:
        """Position of the creation record for ident, if any."""
        return self._created.get(ident)

    def positions_of(self, receiver: int) -> list[int]:
        return self._positions.get(receiver, ())  # type: ignore[return-value]

    def canonical_lines(self) -> list[str]:
        """One line per entry; bit-exact state comparison format."""
        return [f"{e.receiver} {e.caller} {dumps(e.message)}" for e in self.entries]


class StateView:
    """Lookups over a committed prefix extended by pending entries.

    `k_len` pins the committed prefix so later commits beyond it are
    invisible; `pending` is the live (growing) entry list of the
    transaction being executed.  An optional tracer observes every
    projection for the read-confinement checks.

    `pending` only ever grows, so the lookups that need it read an index
    extended from a high-water mark instead of rescanning the list: the
    identities it creates, its first row per receiver (the birth, for a
    created object) and its count of creation records.  The committed
    prefix's count is fixed, so it is counted once.
    """

    __slots__ = (
        "kstate",
        "k_len",
        "pending",
        "tracer",
        "_indexed",
        "_created",
        "_first",
        "_registry",
        "_committed",
    )

    def __init__(
        self,
        kstate: KernelState,
        k_len: Optional[int] = None,
        pending: Optional[list[LogEntry]] = None,
        tracer: Optional["object"] = None,
    ) -> None:
        self.kstate = kstate
        self.k_len = kstate.size if k_len is None else k_len
        self.pending = pending if pending is not None else []
        self.tracer = tracer
        self._indexed = 0
        self._created: set[int] = set()
        self._first: dict[int, SExpr] = {}
        self._registry = 0
        self._committed: Optional[int] = None  # the committed prefix's count

    def _index_pending(self) -> None:
        """Fold the pending entries appended since the last lookup into the index."""
        pending = self.pending
        n = len(pending)
        for i in range(self._indexed, n):
            e = pending[i]
            self._first.setdefault(e.receiver, e.message)
            if e.receiver == KERNEL_IDENTITY:
                self._registry += 1
                if is_atom(e.message):
                    self._created.add(e.message)
        self._indexed = n

    def log_of(self, receiver: int) -> list[tuple[int, SExpr]]:
        """The (caller, message) rows addressed to receiver, oldest first."""
        if self.tracer is not None:
            self.tracer.on_projection("log", receiver)
        entries = self.kstate.entries
        positions = self.kstate.positions_of(receiver)
        rows = [
            (entries[p].caller, entries[p].message)
            for p in positions[: bisect_left(positions, self.k_len)]
        ]
        for e in self.pending:
            if e.receiver == receiver:
                rows.append((e.caller, e.message))
        return rows

    def exists(self, ident: SExpr) -> bool:
        """True iff ident is a created identity (has a creation record)."""
        if self.tracer is not None:
            self.tracer.on_projection("exists", ident)
        if not isinstance(ident, int) or ident == KERNEL_IDENTITY:
            return False
        pos = self.kstate.created_at(ident)
        if pos is not None and pos < self.k_len:
            return True
        self._index_pending()
        return ident in self._created

    def program_of(self, ident: int) -> SExpr:
        """The birth-record message: immutable for the object's lifetime."""
        if self.tracer is not None:
            self.tracer.on_projection("program", ident)
        positions = self.kstate.positions_of(ident)
        if positions and positions[0] < self.k_len:
            return self.kstate.entries[positions[0]].message
        self._index_pending()
        try:
            return self._first[ident]
        except KeyError:
            raise UndefinedObjectError(ident) from None

    def registry_len(self) -> int:
        """Number of creation records, i.e. |log(0)|; feeds the allocators."""
        if self.tracer is not None:
            self.tracer.on_projection("registry", KERNEL_IDENTITY)
        self._index_pending()
        if self._committed is None:
            self._committed = bisect_left(self.kstate.positions_of(KERNEL_IDENTITY), self.k_len)
        return self._committed + self._registry


def encode_log(rows: Iterable[tuple[int, SExpr]]) -> SExpr:
    """Encode (caller, message) rows as a pair chain, oldest entry outermost.

    [] -> 0;  [e0, e1, e2] -> [e0,[e1,[e2,0]]] with each row as [caller,msg].
    Injective: distinct logs encode to distinct values.
    """
    chain: SExpr = 0
    rows = list(rows)
    for caller, message in reversed(rows):
        chain = ((caller, message), chain)
    return chain
