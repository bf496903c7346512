"""Cross-instance routing and replica agreement.

Routing is pure plumbing over committed records: a send leaves its origin
only after the origin transaction committed, and lands as a brand-new
top-level submission, so the destination can fail without any effect on
the sender's log.
"""

import random

import pytest

from sendkernel import ABORT, Kernel, KernelConfig
from sendkernel.compose import (
    DeadLetter,
    Router,
    RoutingLimit,
    forwarding_tx,
    replicate,
)
from sendkernel.assembler import SEED_MESSAGE, Const, ProgramBuilder, Slot
from sendkernel.dispatch import OP_QUOTE, OP_RECALL, OP_SEND, builtin
from sendkernel.durability import DurableSystem, Store
from sendkernel.sexpr import dumps
from sendkernel.state import ExternalSend

from test_interpreter import ECHO, asm


def tx_create(program=ECHO):
    return (asm(("push", program), ("push", 0), ("send",)), 0)


def tx_send(target, message):
    return (asm(("push", message), ("push", target), ("send",)), 0)


def tx_cross(instance_key, destination, message):
    """Commit one outward send addressed to (instance, destination)."""
    return (
        asm(("push", message), ("push", (7, (instance_key, destination))), ("send",)),
        0,
    )


TX_ABORT = ((0, 4), 0)


def builder_forwarding_program(destination):
    """The program forwarding_tx writes out, as ProgramBuilder assembles it."""
    b = ProgramBuilder()
    b.call(Const(destination), Slot(SEED_MESSAGE))
    return b.halt()


FORWARDING_DESTINATIONS = list(range(21)) + [
    (6, 14),
    (7, (2, 15)),
    ((6, (7, 0)), (3, (5, 2))),
    10**5000 + 3,  # past int()'s 4,300-digit limit
]


@pytest.mark.parametrize("destination", FORWARDING_DESTINATIONS, ids=lambda d: dumps(d)[:16])
def test_forwarding_tx_is_the_builder_program(destination):
    send = ExternalSend(14, (7, (1, destination)), (9, (8, 0)))
    tx = forwarding_tx(send, destination)
    want = (builder_forwarding_program(destination), (9, (8, 0)))
    assert tx == want and dumps(tx) == dumps(want)
    target = (destination, (OP_SEND, 0))
    if destination in (OP_SEND, OP_RECALL, OP_QUOTE):
        target = (OP_QUOTE, target)
    assert tx[0] == (OP_RECALL, (SEED_MESSAGE, target))


class TestRouting:
    def test_delivery_runs_as_fresh_outside_submission(self):
        router = Router()
        router.add_instance(0)
        router.add_instance(1)
        router.submit(1, tx_create())  # object 14 on instance 1, echoes caller
        router.submit(0, tx_cross(1, 14, 777))

        report = router.pump()
        assert report.deliveries == 1 and report.dead == 0
        delivered = router.instances[1].system.records[-1]
        assert delivered.committed
        # The echo object reports caller 1: routed messages arrive as input.
        entries = router.instances[1].system.kernel.entries
        assert entries[-1].receiver == 14 and entries[-1].caller == 1
        assert entries[-1].message == 777

    def test_destination_abort_leaves_origin_untouched(self):
        router = Router()
        a = router.add_instance(0)
        router.add_instance(1)
        router.submit(0, tx_cross(1, 99, 5))  # 99 was never created
        origin_lines = a.canonical_lines()

        router.pump()
        assert a.canonical_lines() == origin_lines
        assert a.system.records[0].committed
        dest_rec = router.instances[1].system.records[-1]
        assert dest_rec.result is ABORT

    def test_chained_hops(self):
        # 0 -> 1 -> 2: the object on 1 relays by committing its own
        # outward send, which the next pump pass picks up.
        router = Router()
        router.add_instance(0)
        router.add_instance(1)
        router.add_instance(2)
        router.submit(2, tx_create())
        relay = asm(
            ("recall", 1),
            ("push", (7, (2, 14))),
            ("send",),
        )
        router.submit(1, tx_create(relay))
        router.submit(0, tx_cross(1, 14, 42))

        report = router.pump()
        assert report.deliveries == 2
        entries = router.instances[2].system.kernel.entries
        assert entries[-1].receiver == 14 and entries[-1].message == 42

    @pytest.mark.parametrize(
        "addressed, reason",
        [
            (5, "destination is not a pair"),
            (((1, 1), 0), "instance key is not an atom"),
            ((9, 14), "no instance 9"),
        ],
    )
    def test_dead_letters(self, addressed, reason):
        router = Router()
        router.add_instance(0)
        router.submit(0, (asm(("push", 1), ("push", (7, addressed)), ("send",)), 0))
        report = router.pump()
        assert report.deliveries == 1 and report.dead == 1
        letter = router.dead_letters[0]
        assert letter.origin == 0 and letter.reason == reason
        assert letter.tag == (0, 0)

    def test_dead_letters_are_not_retried(self):
        router = Router()
        router.add_instance(0)
        router.submit(0, tx_cross(9, 14, 1))
        first = router.pump()
        assert first.deliveries == 1 and first.dead == 1
        second = router.pump()
        assert second.deliveries == 0 and second.dead == 0
        assert len(router.dead_letters) == 1

    def test_ping_pong_hits_the_hop_budget(self):
        router = Router()
        bouncer_a = asm(("recall", 1), ("push", (7, (1, 14))), ("send",))
        bouncer_b = asm(("recall", 1), ("push", (7, (0, 14))), ("send",))
        router.add_instance(0)
        router.add_instance(1)
        router.submit(0, tx_create(bouncer_a))
        router.submit(1, tx_create(bouncer_b))
        router.submit(0, tx_cross(1, 14, 0))
        with pytest.raises(RoutingLimit):
            router.pump(max_hops=50)

    def test_proxy_override(self):
        # A proxy that tags every arriving message with the sender identity.
        def tagging_proxy(send: ExternalSend, destination):
            return forwarding_tx(
                ExternalSend(send.sender, send.target, (send.sender, send.message)),
                destination,
            )

        router = Router()
        router.add_instance(0)
        router.add_instance(1, proxy=tagging_proxy)
        router.submit(1, tx_create())
        # Sent from inside object 14 on instance 0 so the sender is 14.
        sender_prog = asm(("recall", 1), ("push", (7, (1, 14))), ("send",))
        router.submit(0, tx_create(sender_prog))
        router.submit(0, tx_send(14, 66))
        router.pump()
        entries = router.instances[1].system.kernel.entries
        assert entries[-1].message == (14, 66)

    def test_instance_key_validation(self):
        router = Router()
        router.add_instance(3)
        with pytest.raises(ValueError):
            router.add_instance(3)
        with pytest.raises(ValueError):
            router.add_instance((1, 2))

    def test_locality_of_non_creating_transactions(self):
        # The same non-creating transaction against the same object yields
        # the same record no matter what else the instance holds.
        quiet = Router()
        quiet.add_instance(0)
        quiet.submit(0, tx_create())

        busy = Router()
        busy.add_instance(0)
        busy.submit(0, tx_create())
        for _ in range(5):
            busy.submit(0, tx_create((3, 0)))
            busy.submit(0, tx_send(11, (1, 2)))

        probe = tx_send(14, 123)
        rec_quiet = quiet.submit(0, probe)
        rec_busy = busy.submit(0, probe)
        assert rec_quiet.result == rec_busy.result
        assert quiet.instances[0].system.kernel.entries[-1] == (
            busy.instances[0].system.kernel.entries[-1]
        )


def seeded_store(tmp_path, seed=5, count=40):
    rng = random.Random(seed)
    ds = DurableSystem.create(str(tmp_path / "r.log"), sync="none")
    for _ in range(count):
        roll = rng.random()
        if roll < 0.4:
            ds.submit(tx_create())
        elif roll < 0.8:
            ds.submit(tx_send(rng.randrange(14, 14 + count // 2), rng.randrange(100)))
        elif roll < 0.9:
            ds.submit((asm(("push", rng.randrange(50)), ("push", 13), ("send",)), 0))
        else:
            ds.submit(TX_ABORT)
    ds.close()
    store, _ = Store.open(str(tmp_path / "r.log"), strict=True)
    store.close()
    return store


class TestReplication:
    def test_three_replicas_agree(self, tmp_path):
        store = seeded_store(tmp_path)
        replicas, divergence = replicate(store, n=3)
        assert divergence is None
        lines = [s.kernel.canonical_lines() for s in replicas]
        assert lines[0] == lines[1] == lines[2]
        assert all(len(s.records) == len(store.records) for s in replicas)

    def test_perturbed_replica_is_caught(self, tmp_path):
        store = seeded_store(tmp_path)

        def skewed_builtin(n, m):
            value = builtin(n, m)
            if n == 13 and value is not None:
                return value + 1
            return value

        def factory(r):
            if r == 1:
                return Kernel(store.config, builtin_fn=skewed_builtin)
            return Kernel(store.config)

        replicas, divergence = replicate(store, n=3, kernel_factory=factory)
        assert divergence is not None and divergence.replica == 1
        # Replica 0 completed before the divergence surfaced.
        assert len(replicas) == 1
