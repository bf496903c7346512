"""Transactions: all-or-nothing execution of submitted [program, input] pairs.

execute() runs one submission against a state snapshot and returns its
effects without applying them.  submit() is the system step: execute,
then either append the pending entries and release the external sends
(commit), or keep the state untouched and release nothing (abort).
Either way apply() appends exactly one TxRecord, and nothing else appends
to a system's record list (a durable store writes its frame but shares
the list), so the record sequence is a complete, replayable account of
everything that was ever admitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .dispatch import EXTERNAL, alloc_sequential, builtin, make_hash_allocator
from .interpreter import DEFAULT_STEP_BUDGET, run
from .sexpr import SExpr, check_value, is_pair
from .state import (
    ABORT,
    Effects,
    ExternalSend,
    KernelState,
    LogEntry,
    StateView,
    TxRecord,
    TxResult,
)

__all__ = ["KernelConfig", "ExecResult", "OnCommit", "Kernel", "SystemState"]

ALLOCATOR_KINDS = ("seq", "hash")
# Kernel.submit does not walk again the last transaction of this many pairs
# or more that passed check_value; shorter ones in between leave it.
_REMEMBERED_PAIRS = 16


@dataclass(frozen=True)
class KernelConfig:
    """Execution parameters that must match across record and replay."""

    allocator: str = "seq"
    salt: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self) -> None:
        if self.allocator not in ALLOCATOR_KINDS:
            raise ValueError(f"unknown allocator {self.allocator!r}")
        for name, least in (("salt", 0), ("step_budget", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, not {value!r}")


@dataclass(slots=True)
class ExecResult:
    """Outcome of executing one transaction against a snapshot."""

    result: TxResult
    entries: list[LogEntry]
    externals: list[ExternalSend]
    steps: int

    @property
    def committed(self) -> bool:
        return self.result is not ABORT


# on_commit(tx, outcome, k_len_after), called before the outcome is applied
OnCommit = Callable[[SExpr, ExecResult, int], None]


@dataclass
class SystemState:
    """The system: committed entries plus the full transaction record."""

    kernel: KernelState = field(default_factory=KernelState)
    records: list[TxRecord] = field(default_factory=list)

    @classmethod
    def fresh(cls) -> "SystemState":
        return cls()

    @property
    def k_len(self) -> int:
        return self.kernel.size


class Kernel:
    """Deterministic executor for one configuration.

    builtin_fn and tracer are test seams: a perturbed builtin table makes
    replica divergence observable, a tracer makes reads observable.
    Neither is consulted on the normal path beyond cheap None checks.
    """

    def __init__(
        self,
        config: Optional[KernelConfig] = None,
        builtin_fn=builtin,
        tracer=None,
    ) -> None:
        self.config = config or KernelConfig()
        self.builtin_fn = builtin_fn
        self.tracer = tracer
        if self.config.allocator == "seq":
            self.alloc_fn = alloc_sequential
        else:
            self.alloc_fn = make_hash_allocator(self.config.salt)
        self._passed = None  # see _REMEMBERED_PAIRS

    def execute(self, kstate: KernelState, k_len: int, tx: SExpr) -> ExecResult:
        """Run [p, i] against the prefix kstate[:k_len]; apply nothing.

        The top level runs as the outside world: self and caller are 1,
        the log view is empty.  A submission that is not a pair has no
        program to run and aborts.
        """
        effects = Effects()
        view = StateView(kstate, k_len, effects.entries, tracer=self.tracer)
        if not is_pair(tx):
            return ExecResult(ABORT, [], [], 0)
        program, message = tx
        ctx = [program, message, EXTERNAL, 0, EXTERNAL]
        budget = self.config.step_budget
        result, left = run(ctx, program, view, effects, budget, self.alloc_fn, self.builtin_fn)
        steps = budget - left
        if result is ABORT:
            return ExecResult(ABORT, [], [], steps)
        return ExecResult(result, effects.entries, effects.externals, steps)

    def apply(self, system: SystemState, tx: SExpr, outcome: ExecResult) -> TxRecord:
        """Fold an already-computed outcome into the system."""
        if outcome.committed:
            system.kernel.append_all(outcome.entries)
            entries, externals = tuple(outcome.entries), tuple(outcome.externals)
        else:
            entries = externals = ()
        record = TxRecord(
            len(system.records), tx, outcome.result, entries, externals, system.kernel.size
        )
        system.records.append(record)
        return record

    def submit(
        self, system: SystemState, tx: SExpr, on_commit: Optional[OnCommit] = None
    ) -> TxRecord:
        """Admit one transaction: commit its effects or none of them.

        This is the one admission path, and it admits values only: a tx
        holding True, -5, 1.0, None, a list or a tuple of other than two
        items raises ValueError (sexpr.check_value) before anything runs, so
        what runs is what its canonical text reads back as.  A value cannot
        change, so an object that passed passes again (_REMEMBERED_PAIRS).
        on_commit, if given, sees (tx, outcome, k_len_after) before the
        outcome is applied, so a durable store writes its frame first and
        an on_commit that raises leaves the system untouched.
        """
        if tx is not self._passed and check_value(tx) >= _REMEMBERED_PAIRS:
            self._passed = tx
        outcome = self.execute(system.kernel, system.kernel.size, tx)
        if on_commit is not None:
            delta = len(outcome.entries) if outcome.committed else 0
            on_commit(tx, outcome, system.kernel.size + delta)
        return self.apply(system, tx, outcome)
