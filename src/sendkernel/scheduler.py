"""Batch admission: a batch goes through Kernel.submit in submission order.

A transaction's meaning is a deterministic function of the committed
prefix, so fixing the order first and then executing each transaction
against the prefix before it is all that serial equivalence needs; nothing
is speculated.  Threads cannot overlap this work under the interpreter
lock, so the batch runs on the calling thread.
"""

from __future__ import annotations

# Unused here; perfbench/tracing.py patches scheduler.threading by name.
import threading  # noqa: F401
from dataclasses import dataclass
from typing import Optional

from .sexpr import SExpr
from .state import TxRecord
from .txn import Kernel, OnCommit, SystemState

__all__ = ["ScheduleOutcome", "run_concurrent"]


@dataclass
class ScheduleOutcome:
    records: list[TxRecord]
    retries: int  # re-executions; always 0 since nothing is speculated


def run_concurrent(
    kernel: Kernel,
    system: SystemState,
    txs: list[SExpr],
    workers: int = 4,
    on_commit: Optional[OnCommit] = None,
) -> ScheduleOutcome:
    """Admit txs in order through Kernel.submit; records match the serial loop.

    workers must be at least 1 and is otherwise unused; on_commit is
    Kernel.submit's write-ahead hook.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    return ScheduleOutcome([kernel.submit(system, tx, on_commit) for tx in txs], 0)
