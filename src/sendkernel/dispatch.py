"""Send-target classification, built-in operators, identity allocation.

Atoms below 14 are reserved.  0 is the kernel (sending a program to it
creates an object), 1 names the outside world, 2/3/5 are instruction
opcodes, 4 is the abort instruction, 6 tags partially-applied pair
formers, 7 tags outward addresses, 8..13 are the built-in operators.
Allocated identities start at 14 and can therefore never collide with
any reserved meaning.

The dispatch decision is a strict first-match priority over the target's
shape plus, for bare atoms, the identity registry.  Exactly one case
applies to every (target, state) combination.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import Callable, Optional

from .sexpr import SExpr, equal
from .state import StateView

# Reserved atom table.
KERNEL = 0  # the object-creating kernel identity
EXTERNAL = 1  # the outside world, result of an outward send
OP_SEND = 2
OP_RECALL = 3
OP_FAIL = 4
OP_QUOTE = 5
PAIR_TAG = 6  # head of a partially-applied pair former [6,a]
EXTERNAL_TAG = 7  # head of an outward address [7,x]
B_HEAD = 8
B_TAIL = 9
B_PAIR = 10
B_EQUAL = 11
B_BRANCH = 12
B_INCREMENT = 13
FIRST_IDENTITY = 14

BUILTIN_LOW, BUILTIN_HIGH = B_HEAD, B_INCREMENT

__all__ = [
    "KERNEL",
    "EXTERNAL",
    "OP_SEND",
    "OP_RECALL",
    "OP_FAIL",
    "OP_QUOTE",
    "PAIR_TAG",
    "EXTERNAL_TAG",
    "B_HEAD",
    "B_TAIL",
    "B_PAIR",
    "B_EQUAL",
    "B_BRANCH",
    "B_INCREMENT",
    "FIRST_IDENTITY",
    "DispatchCase",
    "CASE_BUILTIN",
    "CASE_KERNEL",
    "CASE_PERSISTENT",
    "CASE_PAIR_FORM",
    "CASE_EXTERNAL",
    "CASE_EPHEMERAL",
    "CASE_INVALID",
    "classify",
    "builtin",
    "alloc_sequential",
    "make_hash_allocator",
    "Allocator",
]


class DispatchCase(Enum):
    BUILTIN = "builtin"
    KERNEL = "kernel"
    PERSISTENT = "persistent"
    PAIR_FORM = "pair_form"
    EXTERNAL = "external"
    EPHEMERAL = "ephemeral"
    INVALID = "invalid"


# The cases as module globals: on CPython 3.11 reading DispatchCase.X costs
# ten times as much, and every send classifies once.
CASE_BUILTIN = DispatchCase.BUILTIN
CASE_KERNEL = DispatchCase.KERNEL
CASE_PERSISTENT = DispatchCase.PERSISTENT
CASE_PAIR_FORM = DispatchCase.PAIR_FORM
CASE_EXTERNAL = DispatchCase.EXTERNAL
CASE_EPHEMERAL = DispatchCase.EPHEMERAL
CASE_INVALID = DispatchCase.INVALID


def classify(target: SExpr, view: StateView) -> DispatchCase:
    """Decide which send case handles `target`, first match wins.

    Atom targets need the registry (a created atom is persistent); pair
    targets are classified by head shape alone.  Atom 1 and uncreated
    atoms are invalid: there is nothing behind them to answer.
    """
    if isinstance(target, int):
        if BUILTIN_LOW <= target <= BUILTIN_HIGH:
            return CASE_BUILTIN
        if target == KERNEL:
            return CASE_KERNEL
        if view.exists(target):
            return CASE_PERSISTENT
        return CASE_INVALID
    head = target[0]
    if head == PAIR_TAG:
        return CASE_PAIR_FORM
    if head == EXTERNAL_TAG:
        return CASE_EXTERNAL
    return CASE_EPHEMERAL


def builtin(n: int, m: SExpr) -> Optional[SExpr]:
    """Apply built-in operator n to message m; None means undefined.

    All operators are pure.  The atom/pair distinction doubles as the
    boolean convention: atoms are true, pairs are false, which is why
    EQUAL returns 0 on a match and the (non-equal) argument pair itself
    otherwise.
    """
    if n == B_HEAD:
        return m[0] if isinstance(m, tuple) else None
    if n == B_TAIL:
        return m[1] if isinstance(m, tuple) else None
    if n == B_PAIR:
        return (PAIR_TAG, m)
    if n == B_EQUAL:
        if not isinstance(m, tuple):
            return None
        return 0 if equal(m[0], m[1]) else m
    if n == B_BRANCH:
        # Shape [t,[x,[y,_]]]: pick x when t is an atom, else y.  The
        # fourth slot is unconstrained; anything shallower is undefined.
        if not isinstance(m, tuple):
            return None
        t, rest = m
        if not isinstance(rest, tuple):
            return None
        x, rest = rest
        if not isinstance(rest, tuple):
            return None
        y = rest[0]
        return x if isinstance(t, int) else y
    if n == B_INCREMENT:
        return m + 1 if isinstance(m, int) else None
    return None


Allocator = Callable[[StateView], int]


def alloc_sequential(view: StateView) -> int:
    """Next identity = 14 + number of creation records so far."""
    return FIRST_IDENTITY + view.registry_len()


def make_hash_allocator(salt: int) -> Allocator:
    """Allocator drawing identities from a 256-bit hash of (salt, nonce).

    The nonce is the registry length, so allocation stays a deterministic
    function of the visible state; the attempt counter only turns over on
    a collision with an existing identity, which at 256 bits is a
    theoretical case kept for completeness.
    """

    def alloc(view: StateView) -> int:
        nonce = view.registry_len()
        attempt = 0
        while True:
            digest = hashlib.sha256(f"{salt}:{nonce}:{attempt}".encode("ascii")).digest()
            ident = FIRST_IDENTITY + int.from_bytes(digest, "big")
            if not view.exists(ident):
                return ident
            attempt += 1

    return alloc
