"""Operator command line: execute transaction files, inspect stores, run demos.

Exit codes are a stable contract: 0 for success, 1 when verification,
recovery, replication, or a fixture finds a mismatch or corruption, 2 for
usage and parse errors.  `--allocator`, `--salt`, and `--budget` shape a
store only at creation; afterwards the store header governs and the flags
are reported as ignored, because replay integrity depends on re-executing
under the recorded configuration.

Transaction files carry one canonical s-expression [program, input] per
line; blank lines are permitted.  Admission is all-or-nothing: any bad
line means nothing from the file is submitted.

Machine output (`--format lines`) emits one canonical s-expression per
line, tagging results the way the store does: [1, value] for a commit,
0 for an abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .compose import Router, RoutingLimit
from .durability import (
    DurableSystem,
    Store,
    StoreCorruption,
    StoreSnapshot,
    StoreUninitialized,
    read_store,
    replay_verify,
)
from .patterns import FIXTURES, FixtureMismatch
from .scheduler import run_concurrent
from .sexpr import ParseError, SExpr, dumps, is_pair, parse
from .state import ABORT, StateView, TxResult
from .txn import DEFAULT_STEP_BUDGET, KernelConfig

__all__ = ["main", "EXIT_OK", "EXIT_MISMATCH", "EXIT_USAGE"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class AdmissionError(ValueError):
    """A transaction or scenario file failed line-level admission."""

    def __init__(self, path: str, line: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason


def _tagged(result: TxResult) -> str:
    return "0" if result is ABORT else dumps((1, result))


def _result_cells(seq: int, result: TxResult) -> tuple[str, str, str]:
    if result is ABORT:
        return (str(seq), "ABORT", "-")
    return (str(seq), "COMMIT", dumps(result))


def _print_results(rows, fmt: str, out) -> None:
    if fmt == "lines":
        for _, result in rows:
            print(_tagged(result), file=out)
        return
    print(f"{'tx':>4}  {'status':<6}  result", file=out)
    for seq, result in rows:
        s, status, text = _result_cells(seq, result)
        print(f"{s:>4}  {status:<6}  {text}", file=out)


def _read_lines(path: str) -> list[tuple[int, str]]:
    """(line number, text) of each non-blank line of an ASCII file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.readlines()
    except OSError as e:
        raise AdmissionError(path, 0, str(e)) from None
    return [(number, line.strip()) for number, line in enumerate(raw, 1) if line.strip()]


def _parse_tx(path: str, number: int, text: str) -> SExpr:
    try:
        value = parse(text)
    except ParseError as e:
        raise AdmissionError(path, number, str(e)) from None
    if not is_pair(value):
        raise AdmissionError(path, number, "transaction must be a [program, input] pair")
    return value


def load_transactions(path: str) -> list[SExpr]:
    """Parse a transaction file, refusing the whole file on any bad line."""
    return [_parse_tx(path, number, text) for number, text in _read_lines(path)]


def _open_or_create(args) -> DurableSystem:
    try:
        durable, report = DurableSystem.open(args.store)
    except FileNotFoundError:
        config = KernelConfig(
            allocator=args.allocator or "seq",
            salt=args.salt if args.salt is not None else 0,
            step_budget=args.budget or DEFAULT_STEP_BUDGET,
        )
        return DurableSystem.create(args.store, config)
    if not report.clean:
        print(
            f"note: dropped {report.dropped_bytes} torn bytes during recovery",
            file=sys.stderr,
        )
    header = durable.store.config
    ignored = []
    if args.allocator is not None and args.allocator != header.allocator:
        ignored.append(f"--allocator {args.allocator}")
    if args.salt is not None and args.salt != header.salt:
        ignored.append(f"--salt {args.salt}")
    if args.budget is not None and args.budget != header.step_budget:
        ignored.append(f"--budget {args.budget}")
    if ignored:
        print(
            "note: store header governs; ignoring " + ", ".join(ignored),
            file=sys.stderr,
        )
    return durable


def cmd_exec(args) -> int:
    txs = load_transactions(args.txfile)
    durable = _open_or_create(args)
    try:
        start = len(durable.system.records)
        records = run_concurrent(
            durable.kernel, durable.system, txs, args.workers, durable.store.append
        ).records
        rows = [(start + i, r.result) for i, r in enumerate(records)]
        _print_results(rows, args.format, sys.stdout)
    finally:
        durable.close()
    return EXIT_OK


def cmd_verify(args) -> int:
    snapshot = read_store(args.store, strict=True)
    divergence = replay_verify(snapshot)
    if divergence is not None:
        print(f"divergence: {divergence}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"verified {len(snapshot.records)} transactions")
    return EXIT_OK


def cmd_recover(args) -> int:
    store, report = Store.open(args.store)
    store.close()
    k_len = store.records[-1].k_len_after if store.records else 0
    if report.clean:
        print(f"recovered {report.records} transactions, clean tail")
    else:
        print(
            f"recovered {report.records} transactions, dropped"
            f" {report.dropped_bytes} torn bytes at offset {report.torn_offset}"
        )
    print(f"log length {k_len}")
    return EXIT_OK


def _dump_object(snapshot: StoreSnapshot, ident: int, fmt: str) -> None:
    view = StateView(snapshot.committed_state())
    rows = view.log_of(ident)
    if fmt == "lines":
        for caller, message in rows:
            print(dumps((caller, message)))
        return
    print(f"{'entry':>5}  {'caller':>6}  message")
    for i, (caller, message) in enumerate(rows):
        print(f"{i:>5}  {caller:>6}  {dumps(message)}")


def cmd_dump(args) -> int:
    snapshot = read_store(args.store)
    if not snapshot.report.clean:
        print(
            f"note: ignoring {snapshot.report.dropped_bytes} torn bytes",
            file=sys.stderr,
        )
    if args.object is not None:
        _dump_object(snapshot, args.object, args.format)
        return EXIT_OK
    rows = [(record.seq, record.result) for record in snapshot.records]
    _print_results(rows, args.format, sys.stdout)
    return EXIT_OK


def cmd_demo(args) -> int:
    trace = FIXTURES[args.fixture](workers=args.workers)
    if args.format == "lines":
        for row in trace.rows:
            print(_tagged(row.result))
    else:
        print(trace.table())
    return EXIT_OK


def _load_topology(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise AdmissionError(path, 0, str(e)) from None
    except json.JSONDecodeError as e:
        raise AdmissionError(path, e.lineno, e.msg) from None
    instances = data.get("instances") if isinstance(data, dict) else None
    if not isinstance(instances, list) or not instances:
        raise AdmissionError(path, 0, "topology needs a non-empty 'instances' list")
    for spot, inst in enumerate(instances):
        if not isinstance(inst, dict) or not isinstance(inst.get("key"), int):
            raise AdmissionError(path, 0, f"instance {spot} needs an integer 'key'")
    return instances


def _load_scenario(path: str, known: set) -> list[tuple[int, SExpr]]:
    sends: list[tuple[int, SExpr]] = []
    for number, text in _read_lines(path):
        parts = text.split(None, 1)
        if len(parts) != 2 or not parts[0].isdigit():
            raise AdmissionError(path, number, "expected '<instance-key> [p,i]'")
        key = int(parts[0])
        if key not in known:
            raise AdmissionError(path, number, f"unknown instance {key}")
        sends.append((key, _parse_tx(path, number, parts[1])))
    return sends


def cmd_compose(args) -> int:
    instances = _load_topology(args.topology)
    router = Router()
    durables: list[DurableSystem] = []
    try:
        for inst in instances:
            config = KernelConfig(
                allocator=inst.get("allocator", "seq"),
                salt=inst.get("salt", 0),
                step_budget=inst.get("budget", DEFAULT_STEP_BUDGET),
            )
            store_path = inst.get("store")
            if store_path:
                try:
                    durable, _ = DurableSystem.open(store_path)
                except FileNotFoundError:
                    durable = DurableSystem.create(store_path, config)
                durables.append(durable)
                router.add_instance(inst["key"], durable=durable)
            else:
                router.add_instance(inst["key"], config=config)

        scenario = _load_scenario(args.scenario, set(router.instances))
        rows = []
        deliveries = 0
        for seq, (key, tx) in enumerate(scenario):
            record = router.submit(key, tx)
            rows.append((seq, record.result))
            deliveries += router.pump(max_hops=args.max_hops).deliveries
        _print_results(rows, args.format, sys.stdout)
        print(f"delivered {deliveries}, dead letters {len(router.dead_letters)}")
        for letter in router.dead_letters:
            print(
                f"dead letter from instance {letter.origin}"
                f" at {letter.tag}: {letter.reason}",
                file=sys.stderr,
            )
    finally:
        for durable in durables:
            durable.close()
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _add_store_flags(sub, creation: bool) -> None:
    sub.add_argument("--store", required=True, help="store file path")
    if creation:
        sub.add_argument("--allocator", choices=("seq", "hash"), default=None)
        sub.add_argument("--salt", type=int, default=None)
        sub.add_argument("--budget", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sendkernel",
        description="deterministic object-coordination kernel",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_exec = commands.add_parser("exec", help="submit a transaction file to a store")
    p_exec.add_argument("txfile", help="one canonical [program, input] per line")
    _add_store_flags(p_exec, creation=True)
    p_exec.add_argument("--workers", type=_positive_int, default=1)
    p_exec.add_argument("--format", choices=("table", "lines"), default="table")
    p_exec.set_defaults(func=cmd_exec)

    p_verify = commands.add_parser("verify", help="re-execute and compare a store")
    _add_store_flags(p_verify, creation=False)
    p_verify.set_defaults(func=cmd_verify)

    p_recover = commands.add_parser("recover", help="drop a torn tail, report state")
    _add_store_flags(p_recover, creation=False)
    p_recover.set_defaults(func=cmd_recover)

    p_dump = commands.add_parser("dump", help="print records or one object's log")
    p_dump.add_argument("object", nargs="?", type=int, default=None)
    _add_store_flags(p_dump, creation=False)
    p_dump.add_argument("--format", choices=("table", "lines"), default="table")
    p_dump.set_defaults(func=cmd_dump)

    p_demo = commands.add_parser("demo", help="run a packaged scenario fixture")
    p_demo.add_argument("fixture", choices=sorted(FIXTURES))
    p_demo.add_argument("--workers", type=_positive_int, default=1)
    p_demo.add_argument("--format", choices=("table", "lines"), default="table")
    p_demo.set_defaults(func=cmd_demo)

    p_compose = commands.add_parser("compose", help="multi-instance simulator")
    compose_commands = p_compose.add_subparsers(dest="compose_command", required=True)
    p_run = compose_commands.add_parser("run", help="route a scenario over a topology")
    p_run.add_argument("--topology", required=True, help="JSON instance list")
    p_run.add_argument("--scenario", required=True, help="lines of '<key> [p,i]'")
    p_run.add_argument("--max-hops", type=int, default=10_000)
    p_run.add_argument("--format", choices=("table", "lines"), default="table")
    p_run.set_defaults(func=cmd_compose)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if not e.code else EXIT_USAGE
    try:
        return args.func(args)
    except (StoreCorruption, StoreUninitialized, RoutingLimit) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except FixtureMismatch as e:
        print(f"fixture mismatch: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except (FileNotFoundError, FileExistsError, ValueError) as e:  # AdmissionError too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
