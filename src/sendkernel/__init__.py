"""Deterministic object-coordination kernel.

Objects are append-only logs of received messages; the only cross-object
verb is send; every transaction either commits atomically or leaves no
trace.  The committed transaction sequence fully determines kernel state,
so replay is verification.
"""

from .sexpr import SExpr, ParseError, check_value, is_atom, is_pair, equal, dumps, parse
from .state import (
    ABORT,
    Effects,
    ExternalSend,
    KernelState,
    LogEntry,
    StateView,
    TxRecord,
    UndefinedObjectError,
    encode_log,
)
from .dispatch import (
    DispatchCase,
    classify,
    builtin,
    alloc_sequential,
    make_hash_allocator,
)
from .interpreter import run
from .txn import ExecResult, Kernel, KernelConfig, SystemState
from .assembler import ABORT_PROGRAM, Const, ProgramBuilder, Slot, runnable
from .durability import (
    Divergence,
    DurableSystem,
    RecoveryReport,
    Store,
    StoreCorruption,
    StoreLocked,
    StoreSnapshot,
    StoreUninitialized,
    dispatch_externals,
    read_store,
    replay_verify,
)
from .scheduler import ScheduleOutcome, run_concurrent
from .compose import (
    DeadLetter,
    Instance,
    ReplicaDivergence,
    Router,
    RoutingLimit,
    replicate,
)
from .patterns import (
    FIXTURES,
    FixtureMismatch,
    FixtureTrace,
    FoldSpec,
    build_naive,
    checkpoint_transform,
    counter_spec,
    kv_spec,
)

__all__ = [
    "SExpr",
    "ParseError",
    "check_value",
    "is_atom",
    "is_pair",
    "equal",
    "dumps",
    "parse",
    "ABORT",
    "Effects",
    "ExternalSend",
    "KernelState",
    "LogEntry",
    "StateView",
    "TxRecord",
    "UndefinedObjectError",
    "encode_log",
    "DispatchCase",
    "classify",
    "builtin",
    "alloc_sequential",
    "make_hash_allocator",
    "run",
    "ExecResult",
    "Kernel",
    "KernelConfig",
    "SystemState",
    "ABORT_PROGRAM",
    "Const",
    "ProgramBuilder",
    "Slot",
    "runnable",
    "Divergence",
    "DurableSystem",
    "RecoveryReport",
    "Store",
    "StoreCorruption",
    "StoreLocked",
    "StoreSnapshot",
    "StoreUninitialized",
    "dispatch_externals",
    "read_store",
    "replay_verify",
    "ScheduleOutcome",
    "run_concurrent",
    "DeadLetter",
    "Instance",
    "ReplicaDivergence",
    "Router",
    "RoutingLimit",
    "replicate",
    "FIXTURES",
    "FixtureMismatch",
    "FixtureTrace",
    "FoldSpec",
    "build_naive",
    "checkpoint_transform",
    "counter_spec",
    "kv_spec",
]
