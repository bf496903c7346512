"""Multiple coordination instances wired together by their outward sends.

Instances share nothing: each owns a kernel, a committed log, and a record
list.  The only traffic between them is the outward send, whose target
[7, [instanceKey, destination]] names a peer instance and something in it.
The router drains each instance's undelivered sends in admission order and
turns every one into a fresh transaction on the destination instance, so a
cross-instance message arrives exactly the way outside input does: as a
new top-level submission whose frames see caller 1.  Anything unroutable
(atom destination, non-atom key, unknown key) is kept as a dead letter
rather than dropped.

A destination abort therefore cannot disturb the origin: the origin's
transaction committed before routing even saw the send, and the failed
delivery is just an aborted record on the destination.

replicate() is the replication check: several independently built replicas
re-execute a store's transaction stream through durability.replay_compare,
the same loop replay_verify runs, which compares each outcome against the
recorded one.  Zero divergence across replicas is the determinism claim
made operational; a replica with a perturbed kernel makes the detector
itself testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .assembler import SEED_MESSAGE
from .dispatch import OP_QUOTE, OP_RECALL, OP_SEND
from .durability import Store, next_external, replay_compare
from .sexpr import SExpr, is_atom, is_pair
from .state import ExternalSend, TxRecord
from .txn import Kernel, KernelConfig, SystemState

__all__ = [
    "Instance",
    "DeadLetter",
    "PumpReport",
    "RoutingLimit",
    "Router",
    "forwarding_tx",
    "ReplicaDivergence",
    "replicate",
]


class RoutingLimit(RuntimeError):
    """pump() exceeded its delivery budget without quiescing."""


@dataclass
class DeadLetter:
    origin: int
    tag: tuple
    send: ExternalSend
    reason: str


@dataclass
class PumpReport:
    deliveries: int
    dead: int  # dead letters added by this pump


class Instance:
    """One named coordination instance plus its delivery cursor.

    With a durable backing, submissions go through the store and the
    delivery cursor starts past recovered records: replaying old outward
    sends is redelivery policy, not routing policy.
    """

    def __init__(self, key: int, kernel: Kernel, durable=None):
        self.key = key
        self.kernel = kernel
        self.durable = durable
        self.system = durable.system if durable is not None else SystemState.fresh()
        self._cursor = (len(self.system.records), 0)

    def submit(self, tx: SExpr) -> TxRecord:
        if self.durable is not None:
            return self.durable.submit(tx)
        return self.kernel.submit(self.system, tx)

    def take_external(self) -> Optional[tuple[tuple[int, int], ExternalSend]]:
        """Next undelivered outward send, tagged (record seq, index)."""
        item = next_external(self.system.records, self._cursor)
        tag, send = item
        if send is None:
            self._cursor = tag
            return None
        self._cursor = (tag[0], tag[1] + 1)
        return item

    def canonical_lines(self) -> list[str]:
        return self.system.kernel.canonical_lines()


def forwarding_tx(send: ExternalSend, destination: SExpr) -> SExpr:
    """Default translation: deliver the payload to the named destination.

    The submitted program re-sends the routed message inside the target
    instance, so the receiving object sees it from caller 1.
    """
    target = (destination, (OP_SEND, 0))
    if isinstance(destination, int) and destination in (OP_SEND, OP_RECALL, OP_QUOTE):
        target = (OP_QUOTE, target)  # as ProgramBuilder.push quotes an opcode atom
    return ((OP_RECALL, (SEED_MESSAGE, target)), send.message)


Proxy = Callable[[ExternalSend, SExpr], SExpr]


class Router:
    """Key-addressed instances plus the delivery loop between them."""

    def __init__(self) -> None:
        self.instances: dict[int, Instance] = {}
        self.proxies: dict[int, Proxy] = {}
        self.dead_letters: list[DeadLetter] = []

    def add_instance(
        self,
        key: int,
        config: Optional[KernelConfig] = None,
        kernel: Optional[Kernel] = None,
        proxy: Optional[Proxy] = None,
        durable=None,
    ) -> Instance:
        if not is_atom(key):
            raise ValueError("instance key must be an atom")
        if key in self.instances:
            raise ValueError(f"instance {key} already exists")
        if durable is not None:
            instance = Instance(key, durable.kernel, durable)
        else:
            instance = Instance(key, kernel or Kernel(config))
        self.instances[key] = instance
        if proxy is not None:
            self.proxies[key] = proxy
        return instance

    def submit(self, key: int, tx: SExpr) -> TxRecord:
        return self.instances[key].submit(tx)

    def _deliver(self, origin: int, tag: tuple, send: ExternalSend) -> None:
        addressed = send.target[1]  # target is the [7, x] pair itself
        if not is_pair(addressed):
            self.dead_letters.append(DeadLetter(origin, tag, send, "destination is not a pair"))
            return
        key, destination = addressed
        if not is_atom(key):
            self.dead_letters.append(DeadLetter(origin, tag, send, "instance key is not an atom"))
            return
        instance = self.instances.get(key)
        if instance is None:
            self.dead_letters.append(DeadLetter(origin, tag, send, f"no instance {key}"))
            return
        proxy = self.proxies.get(key, forwarding_tx)
        instance.submit(proxy(send, destination))

    def pump(self, max_hops: int = 10_000) -> PumpReport:
        """Deliver until every instance is drained.

        Each delivery may commit new outward sends anywhere, including the
        origin, so draining loops until a full pass moves nothing.  The
        hop budget turns a ping-pong loop into an error instead of a hang.
        """
        delivered = 0
        dead_before = len(self.dead_letters)
        progress = True
        while progress:
            progress = False
            for instance in list(self.instances.values()):
                while True:
                    item = instance.take_external()
                    if item is None:
                        break
                    delivered += 1
                    if delivered > max_hops:
                        raise RoutingLimit(f"exceeded {max_hops} deliveries")
                    self._deliver(instance.key, *item)
                    progress = True
        return PumpReport(delivered, len(self.dead_letters) - dead_before)


# replication ----------------------------------------------------------------


@dataclass
class ReplicaDivergence:
    replica: int
    seq: int
    field: str

    def __str__(self) -> str:
        return f"replica {self.replica} diverges from record {self.seq} on {self.field}"


def replicate(
    store: Store,
    n: int = 3,
    kernel_factory: Optional[Callable[[int], Kernel]] = None,
) -> tuple[list[SystemState], Optional[ReplicaDivergence]]:
    """Rebuild a store's history on n independent replicas.

    Every replica re-executes the recorded transaction stream from empty
    and must reproduce each record exactly.  On the first disagreement the
    divergence is reported and the replicas completed before it are
    returned.
    """
    replicas = []
    for r in range(n):
        kernel = kernel_factory(r) if kernel_factory else Kernel(store.config)
        system, mismatch = replay_compare(store.records, kernel)
        if mismatch is not None:
            return replicas, ReplicaDivergence(r, *mismatch)
        replicas.append(system)
    return replicas, None
