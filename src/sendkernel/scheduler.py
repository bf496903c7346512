"""Concurrent admission that is observably identical to a serial loop.

Workers execute submissions speculatively against a pinned snapshot of the
committed log.  A single commit pass then walks the submissions in their
original order and asks, for each one: did anything that committed after
this snapshot touch what this execution depended on?  If not, the
speculative outcome is exactly what serial execution would have produced
and is applied as-is; if so, the submission is re-executed on the spot
against the now-complete prefix, which is always valid because nothing
commits concurrently with the commit pass itself.

Dependencies are tracked as two identity sets per execution.  The write
set is the log receivers of the pending delta.  The probe set is every
atom a send was dispatched to, which covers the reads the delta does not
imply: a target that was classified as absent (and perhaps aborted the
transaction) stays in the probe set, so a later creation of that identity
correctly invalidates the snapshot, and any allocation both reads and
writes the kernel registry, so two allocating transactions always
conflict.  Object reads need no separate set: dispatching to a persistent
object also appends that object's completion entry, putting it in the
write set.

The committed log is append-only and the commit pass is its only writer,
so workers read pinned prefixes without locking; the lock only makes the
snapshot pair (committed count, log length) consistent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .sexpr import SExpr
from .state import TxRecord
from .txn import ExecResult, Kernel, SystemState

__all__ = ["ScheduleOutcome", "write_set", "footprint", "run_concurrent"]


def write_set(outcome: ExecResult) -> frozenset:
    """Identities whose logs grow if this outcome commits."""
    return frozenset(e.receiver for e in outcome.entries)


def footprint(outcome: ExecResult) -> frozenset:
    """Everything the outcome depended on: writes plus dispatch probes."""
    return write_set(outcome) | outcome.probes


@dataclass
class _Slot:
    tx: SExpr
    snapshot: int = 0  # committed count when executed
    outcome: Optional[ExecResult] = None
    error: Optional[BaseException] = None


@dataclass
class ScheduleOutcome:
    records: list[TxRecord]
    retries: int  # re-executions forced by failed validation


def run_concurrent(
    kernel: Kernel,
    system: SystemState,
    txs: list[SExpr],
    workers: int = 4,
    on_commit: Optional[Callable[[SExpr, ExecResult, int], None]] = None,
) -> ScheduleOutcome:
    """Admit txs with speculative parallelism; records match the serial loop.

    on_commit, if given, sees (tx, outcome, k_len_after) in commit order
    before the outcome is applied, which is the hook for write-ahead
    persistence.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    n = len(txs)
    slots = [_Slot(tx) for tx in txs]
    ready = [threading.Event() for _ in range(n)]
    records: list[TxRecord] = []
    # identity -> index in `records` of the last commit that wrote it
    last_commit: dict[int, int] = {}
    lock = threading.Lock()
    cursor = iter(range(n))

    def worker() -> None:
        while True:
            with lock:
                i = next(cursor, None)
                if i is None:
                    return
                slot = slots[i]
                slot.snapshot = len(records)
                k_len = system.kernel.size
            try:
                slot.outcome = kernel.execute(system.kernel, k_len, slot.tx)
            except BaseException as exc:  # surfaced by the commit pass
                slot.error = exc
            ready[i].set()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(min(workers, max(n, 1)))]
    for t in threads:
        t.start()

    retries = 0
    try:
        for i in range(n):
            ready[i].wait()
            slot = slots[i]
            if slot.error is not None:
                raise slot.error
            outcome = slot.outcome
            # Stale iff something committed since the snapshot wrote an
            # identity this execution depended on.
            stale = any(
                last_commit.get(ident, -1) >= slot.snapshot for ident in footprint(outcome)
            )
            if stale:
                outcome = kernel.execute(system.kernel, system.kernel.size, slot.tx)
                retries += 1
            if on_commit is not None:
                delta = len(outcome.entries) if outcome.committed else 0
                on_commit(slot.tx, outcome, system.kernel.size + delta)
            for ident in write_set(outcome):
                last_commit[ident] = len(records)
            with lock:
                records.append(kernel.apply(system, slot.tx, outcome))
    finally:
        for t in threads:
            t.join()

    return ScheduleOutcome(records, retries)
