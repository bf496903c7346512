"""One round of one benchmark workload, run in a process of its own.

A round builds its inputs from the seed, creates durable stores (sync
policy `flush`, group size 1), admits a fixed list of transactions, then
reopens the finished stores and re-verifies them.  Every answer is checked
against a model the benchmark computes itself, and every store against
properties the kernel must have; a mismatch counts as a failed operation.

Run as a script, it prints the round's figures as one JSON line:

    PYTHONPATH=src python3 perfbench/workloads.py --workload routed --seed 1 --out perfbench/_out/r

`--trace` wraps the program's layers for the round (see tracing.py) and
adds the per-layer metrics to the line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

import sendkernel
from sendkernel import durability, scheduler
from sendkernel.assembler import SEED_MESSAGE, Const, ProgramBuilder, Slot
from sendkernel.compose import Router
from sendkernel.dispatch import EXTERNAL_TAG, FIRST_IDENTITY
from sendkernel.patterns import (
    ECHO_PROGRAM,
    KV_GET,
    KV_SET,
    RELAY_PROGRAM,
    build_naive,
    checkpoint_transform,
    creator,
    kv_spec,
    poke,
)

import tracing

SYNC = {"sync": "flush", "group_size": 1}

KernelHook = Optional[Callable[[sendkernel.KernelConfig], sendkernel.Kernel]]


class Checks:
    """Attempted and failed operation counts, plus the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first) < 5:
                self.first.append(what)


class Phases:
    """Wall-clock length of each phase of a round.

    Every phase starts from a collected heap, so that no phase pays for
    garbage an earlier one left.  `current` names the phase in progress,
    so that a tracer can file each span and count under its phase.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.current: Optional[str] = None

    @contextmanager
    def __call__(self, name: str):
        gc.collect()
        self.current = name
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = perf_counter() - start
            self.current = None


class Round:
    """What one workload round measured and checked."""

    def __init__(self, out_dir: str, kernel: KernelHook) -> None:
        self.out_dir = out_dir
        self.kernel = kernel
        self.phases = Phases()
        self.checks = Checks()
        self.latencies: list[float] = []  # seconds, one per timed admission
        self.admitted = 0
        self.durables: list[durability.DurableSystem] = []
        self.records = 0
        self.store_bytes = 0
        # A store that opens in a fraction of a second is opened this many
        # times, so that the open phase is long enough to average out the
        # host's jitter; the rate is taken over all of them.
        self.open_repeats = 1

    def create_store(self, name: str) -> durability.DurableSystem:
        durable = durability.DurableSystem.create(
            os.path.join(self.out_dir, name + ".store"), **SYNC
        )
        if self.kernel is not None:
            durable.kernel = self.kernel(durable.store.config)
        self.durables.append(durable)
        return durable

    def submit_serially(self, durable, txs: list, expected: list) -> None:
        """Admit txs one by one, timing each submit; check every answer."""
        latencies = self.latencies
        records = []
        with self.phases("admit"):
            for tx in txs:
                start = perf_counter()
                record = durable.submit(tx)
                latencies.append(perf_counter() - start)
                records.append(record)
        self.admitted += len(txs)
        for i, (record, want) in enumerate(zip(records, expected)):
            self.checks.check(_answers(record, want), f"tx {i}: {record.result!r} != {want!r}")

    def restart_and_audit(self) -> None:
        """Reopen and re-verify every store; check both against the live system."""
        paths = [d.store.path for d in self.durables]
        live = [d.system.kernel.canonical_lines() for d in self.durables]
        self.records = sum(len(d.system.records) for d in self.durables)
        for d in self.durables:
            d.close()
        # A restarted process holds no live system.
        self.durables = []
        self.store_bytes = sum(os.path.getsize(p) for p in paths)

        reopened = []
        with self.phases("open"):
            for _ in range(self.open_repeats):
                reopened = []
                for path in paths:
                    durable, _ = durability.DurableSystem.open(path, **SYNC)
                    durable.close()
                    reopened.append(durable)
        for path, durable, lines in zip(paths, reopened, live):
            same = durable.store.committed_state().canonical_lines() == lines
            self.checks.check(same, f"{path}: reopened state differs from the live one")
        del reopened, live

        divergences = []
        with self.phases("verify"):
            for path in paths:
                snapshot = durability.read_store(path, strict=True)
                divergences.append(durability.replay_verify(snapshot))
        for path, divergence in zip(paths, divergences):
            self.checks.check(divergence is None, f"{path}: {divergence}")

    def figures(self) -> dict:
        seconds = self.phases.seconds
        return {
            "setup_s": seconds["setup"],
            "admit_s": seconds["admit"],
            "open_s": seconds["open"],
            "verify_s": seconds["verify"],
            "admitted": self.admitted,
            "records": self.records,
            "open_repeats": self.open_repeats,
            "store_bytes": self.store_bytes,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "latencies": self.latencies,
            "attempted": self.checks.attempted,
            "failed": self.checks.failed,
            "first_failures": self.checks.first,
        }


def _answers(record, want) -> bool:
    return record.committed and sendkernel.equal(record.result, want)


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


# hot_echo: a few echo objects with long histories --------------------------

HOT_ECHOES = 2
HOT_TXS = 3000
HOT_RELAYED = 4  # one poke in this many goes through the relay


def hot_echo(rng: random.Random, r: Round, scale: int = 1) -> None:
    n = HOT_TXS // scale
    echoes = [FIRST_IDENTITY + i for i in range(HOT_ECHOES)]
    relay = FIRST_IDENTITY + HOT_ECHOES
    r.open_repeats = 5
    with r.phases("setup"):
        plan = _shuffled(
            rng, [(echoes[i % HOT_ECHOES], i % HOT_RELAYED == 0) for i in range(n)]
        )
        txs, expected = [], []
        sent = {ident: 0 for ident in echoes + [relay]}
        for echo, relayed in plan:
            payload = rng.randrange(1 << 20)
            if relayed:
                txs.append(poke(relay, (echo, payload)))
                expected.append((relay, payload))
                sent[relay] += 1
            else:
                txs.append(poke(echo, payload))
                expected.append((1, payload))
            sent[echo] += 1
        durable = r.create_store("hot_echo")
        made = durable.submit(creator(*[ECHO_PROGRAM] * HOT_ECHOES, RELAY_PROGRAM))
    r.checks.check(_answers(made, relay), "creation of the echo objects")

    r.submit_serially(durable, txs, expected)
    for ident, count in sent.items():
        length = len(durable.system.kernel.positions_of(ident))
        r.checks.check(length == 1 + count, f"object {ident}: log length {length} != 1 + {count}")


# fold_kv: key-value objects that fold their whole log on every call --------

KV_OBJECTS = 50  # half built plainly, half with the checkpoint rewrite
KV_TXS = 1000
KV_KEYS = 8


def fold_kv(rng: random.Random, r: Round, scale: int = 1) -> None:
    n = KV_TXS // scale
    objects = [FIRST_IDENTITY + i for i in range(KV_OBJECTS)]
    with r.phases("setup"):
        spec = kv_spec()
        programs = [build_naive(spec), checkpoint_transform(spec)]
        # Every object gets the same calls, so that every seed builds the
        # same histories: call j sets key j/2 mod KV_KEYS when j is even and
        # otherwise gets a key that may not be bound yet.  The seed draws
        # the values and the order in which the objects are called.
        order = _shuffled(rng, [objects[i % KV_OBJECTS] for i in range(n)])
        calls = {ident: 0 for ident in objects}
        models: dict[int, dict[int, int]] = {ident: {} for ident in objects}
        txs, expected = [], []
        for ident in order:
            j = calls[ident]
            calls[ident] += 1
            if j % 2 == 0:
                key = j // 2 % KV_KEYS
                value = rng.randrange(1, 1 << 20)
                txs.append(poke(ident, (KV_SET, (key, value))))
                expected.append(0)
                models[ident][key] = value
            else:
                key = (3 * (j // 2) + 1) % (KV_KEYS + 2)
                txs.append(poke(ident, (KV_GET, key)))
                expected.append(models[ident].get(key, 0))
        durable = r.create_store("fold_kv")
        made = durable.submit(creator(*[programs[i % 2] for i in range(KV_OBJECTS)]))
    r.checks.check(_answers(made, objects[-1]), "creation of the key-value objects")

    r.submit_serially(durable, txs, expected)


# spread_create: a large registry, short histories, the scheduler ------------

SPREAD_PRESET = 20_000  # objects created before the timed phase
SPREAD_BATCH_OBJECTS = 100  # objects made by one batch-creation transaction
SPREAD_TXS = 4000
SPREAD_BATCH = 100  # transactions handed to one run_concurrent call
SPREAD_WORKERS = 2


def spread_create(rng: random.Random, r: Round, scale: int = 1) -> None:
    n = SPREAD_TXS // scale
    preset = SPREAD_PRESET // scale
    with r.phases("setup"):
        batch_creation = creator(*[ECHO_PROGRAM] * SPREAD_BATCH_OBJECTS)
        single_creation = creator(ECHO_PROGRAM)
        # Every batch holds 1 batch creation, in the middle, and 10 single
        # creations, every tenth transaction; the rest are pokes at objects
        # drawn from all those created so far.  Where the creations sit in a
        # batch sets how much the workers' speculation is wasted, so it is
        # the same for every seed.
        batch = ["single" if i % 10 == 9 else "poke" for i in range(SPREAD_BATCH)]
        batch[SPREAD_BATCH // 2] = "batch"
        kinds = batch * (n // SPREAD_BATCH)
        created = 0
        txs, expected = [], []
        for kind in kinds:
            if kind == "batch":
                txs.append(batch_creation)
                created += SPREAD_BATCH_OBJECTS
                expected.append(FIRST_IDENTITY + preset + created - 1)
            elif kind == "single":
                txs.append(single_creation)
                created += 1
                expected.append(FIRST_IDENTITY + preset + created - 1)
            else:
                payload = rng.randrange(1 << 20)
                target = FIRST_IDENTITY + rng.randrange(preset + created)
                txs.append(poke(target, payload))
                expected.append((1, payload))
        durable = r.create_store("spread_create")
        made = []
        for _ in range(preset // SPREAD_BATCH_OBJECTS):
            made.append(durable.submit(batch_creation))
    for i, record in enumerate(made):
        want = FIRST_IDENTITY + (i + 1) * SPREAD_BATCH_OBJECTS - 1
        r.checks.check(_answers(record, want), f"preset creation {i}")

    latencies = r.latencies
    batch_start = 0.0

    def on_commit(tx, outcome, k_len_after):
        latencies.append(perf_counter() - batch_start)
        durable.store.append(tx, outcome, k_len_after)

    records = []
    with r.phases("admit"):
        for lo in range(0, n, SPREAD_BATCH):
            batch_start = perf_counter()
            outcome = scheduler.run_concurrent(
                durable.kernel,
                durable.system,
                txs[lo : lo + SPREAD_BATCH],
                workers=SPREAD_WORKERS,
                on_commit=on_commit,
            )
            records.extend(outcome.records)
    r.admitted += n
    for i, (record, want) in enumerate(zip(records, expected)):
        r.checks.check(_answers(record, want), f"tx {i}: {record.result!r} != {want!r}")


# routed: two instances, every origin transaction forwarded to the peer -----

ROUTED_ORIGINS = 4000
ROUTED_FORWARDERS = 50
ROUTED_ECHOES = 100
ORIGIN_KEY, PEER_KEY = 1, 2


def _forwarder_program(peer: int) -> sendkernel.SExpr:
    """Send tail(message) out to [7, [peer, head(message)]]; answer 1."""
    b = ProgramBuilder()
    destination = b.head(Slot(SEED_MESSAGE))
    addressed = b.cons(Const(peer), destination)
    target = b.cons(Const(EXTERNAL_TAG), addressed)
    b.call(target, b.tail(Slot(SEED_MESSAGE)))
    return b.halt()


def routed(rng: random.Random, r: Round, scale: int = 1) -> None:
    n = ROUTED_ORIGINS // scale
    forwarders = [FIRST_IDENTITY + i for i in range(ROUTED_FORWARDERS)]
    echoes = [FIRST_IDENTITY + i for i in range(ROUTED_ECHOES)]
    r.open_repeats = 2
    with r.phases("setup"):
        plan = _shuffled(
            rng,
            [(forwarders[i % ROUTED_FORWARDERS], echoes[i % ROUTED_ECHOES]) for i in range(n)],
        )
        txs = []
        payloads: dict[int, list[int]] = {ident: [] for ident in echoes}
        for forwarder, echo in plan:
            payload = rng.randrange(1 << 20)
            txs.append(poke(forwarder, (echo, payload)))
            payloads[echo].append(payload)
        origin = r.create_store("routed_origin")
        peer = r.create_store("routed_peer")
        made = [
            origin.submit(creator(*[_forwarder_program(PEER_KEY)] * ROUTED_FORWARDERS)),
            peer.submit(creator(*[ECHO_PROGRAM] * ROUTED_ECHOES)),
        ]
        router = Router()
        router.add_instance(ORIGIN_KEY, durable=origin)
        router.add_instance(PEER_KEY, durable=peer)
    r.checks.check(_answers(made[0], forwarders[-1]), "creation of the forwarders")
    r.checks.check(_answers(made[1], echoes[-1]), "creation of the peer echo objects")

    latencies = r.latencies
    results = []
    with r.phases("admit"):
        for tx in txs:
            start = perf_counter()
            record = router.submit(ORIGIN_KEY, tx)
            report = router.pump()
            latencies.append(perf_counter() - start)
            results.append((record, report))
    r.admitted += 2 * n
    for i, (record, report) in enumerate(results):
        ok = _answers(record, 1) and report.deliveries == 1 and report.dead == 0
        r.checks.check(ok, f"origin {i}: {record.result!r}, {report}")
    r.checks.check(not router.dead_letters, f"{len(router.dead_letters)} dead letters")
    entries = peer.system.kernel.entries
    for echo in echoes:
        rows = [entries[p] for p in peer.system.kernel.positions_of(echo)[1:]]
        ok = all(e.caller == 1 for e in rows) and [e.message for e in rows] == payloads[echo]
        r.checks.check(ok, f"peer echo {echo}: log differs from the payloads sent")


WORKLOADS = {
    "hot_echo": hot_echo,
    "fold_kv": fold_kv,
    "spread_create": spread_create,
    "routed": routed,
}


def run_round(
    workload: str,
    seed: int,
    out_dir: str,
    kernel: KernelHook = None,
    scale: int = 1,
    phases_hook: Optional[Callable[[Phases], None]] = None,
) -> Round:
    """Run one round in out_dir; kernel, if given, replaces each store's kernel.

    scale divides the workload's operation counts, for quick tests.
    phases_hook sees the round's Phases before any work starts, which is
    how a tracer learns which phase is in progress.
    """
    os.makedirs(out_dir, exist_ok=True)
    r = Round(out_dir, kernel)
    if phases_hook is not None:
        phases_hook(r.phases)
    rng = random.Random(seed * len(WORKLOADS) + list(WORKLOADS).index(workload))
    try:
        WORKLOADS[workload](rng, r, scale)
        r.restart_and_audit()
    finally:
        for durable in r.durables:
            durable.close()
    return r


def run_traced_round(workload: str, seed: int, out_dir: str, scale: int = 1):
    """Run one round with sendkernel's layers wrapped; returns it and its tracer."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        r = run_round(workload, seed, out_dir, scale=scale, phases_hook=tracer.follow)
    finally:
        tracer.restore()
    return r, tracer


def _check_source(root: str) -> None:
    """Refuse to measure a sendkernel that is not the checkout's own."""
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(sendkernel.__file__).startswith(src + os.sep):
        sys.exit(f"sendkernel imported from {sendkernel.__file__}, not from {src}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for this round's stores")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file the traced round writes its spans to")
    args = parser.parse_args()
    _check_source(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    try:
        if args.trace:
            r, tracer = run_traced_round(args.workload, args.seed, args.out)
            figures = r.figures()
            figures["layers"] = tracer.layer_metrics(r)
            if args.spans:
                tracer.write(args.spans)
        else:
            figures = run_round(args.workload, args.seed, args.out).figures()
    finally:
        shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(figures))


if __name__ == "__main__":
    main()
