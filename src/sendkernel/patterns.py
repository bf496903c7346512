"""Coordination patterns and executable scenario fixtures.

Everything here is built from the same five instructions every user
program gets, and every fixture drives the system through the public
submit API only, so these double as end-to-end tests of dispatch,
interpretation, and atomic commit.

Conventions shared by the fixtures (the kernel imposes none of this):

  * Messages are [tag, payload] pairs; tags are atoms in the 9000+ range,
    far above any identity the fixtures allocate is checked by each
    fixture before trusting its trace.
  * Objects derive all state from their own log (frame position 3).
    Identity gates compare the kernel-set caller (position 4) against an
    identity read from the log, so they cannot be forged by message
    content.
  * Loops are programs that receive their own code inside the loop state
    and re-send to it: a branch arm runs in a fresh frame whose position
    0 is the arm itself, so self-application must travel in the argument.
  * A bid object learns its owner from log entry 1 (the INIT entry its
    creator writes immediately after creation) and its creator from the
    caller of log entry 0 (the birth record): both are kernel-attested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .assembler import (
    ABORT_PROGRAM,
    SEED_CALLER,
    SEED_LOG,
    SEED_MESSAGE,
    SEED_PROGRAM,
    SEED_SELF,
    Const,
    ProgramBuilder,
    Slot,
    runnable,
)
from .sexpr import SExpr, dumps, equal, is_atom, is_pair
from .state import ABORT, StateView, TxRecord
from .txn import Kernel, SystemState

__all__ = [
    "CHECKPOINT",
    "REGISTER",
    "STORE",
    "REVEAL",
    "REVEAL_ALL",
    "TRACK",
    "INIT",
    "DEPOSIT",
    "CONFIRM",
    "QUERY",
    "COMPLETE",
    "CLONE",
    "KV_SET",
    "KV_GET",
    "FixtureMismatch",
    "FixtureTrace",
    "poke",
    "creator",
    "dispatch_tags",
    "fold_program",
    "enter_fold",
    "RELAY_PROGRAM",
    "ECHO_PROGRAM",
    "fixture_delegation",
    "fixture_auction",
    "fixture_auction_abort",
    "fixture_escrow",
    "fixture_clone",
    "fixture_bootloader",
    "FIXTURES",
    "FoldSpec",
    "build_naive",
    "checkpoint_transform",
    "counter_spec",
    "kv_spec",
]

CHECKPOINT = 9000
REGISTER = 9001
STORE = 9002
REVEAL = 9003
REVEAL_ALL = 9004
TRACK = 9005
INIT = 9006
DEPOSIT = 9007
CONFIRM = 9008
QUERY = 9009
COMPLETE = 9010
CLONE = 9011
KV_SET = 9201
KV_GET = 9202

RETURN_ZERO: SExpr = (0, 0)  # push 0, halt


class FixtureMismatch(AssertionError):
    """A fixture's observed trace deviated from its pinned expectation."""


# builder idioms -------------------------------------------------------------


def poke(target: SExpr, message: SExpr) -> SExpr:
    """Transaction sending one message to one target from the outside."""
    b = ProgramBuilder()
    b.call(Const(target), Const(message))
    return (b.halt(), 0)


def creator(*programs: SExpr) -> SExpr:
    """Transaction creating one object per program; result is the last id."""
    b = ProgramBuilder()
    for program in programs:
        b.call(Const(0), Const(program))
    return (b.halt(), 0)


def dispatch_tags(
    cases: list[tuple[int, SExpr]],
    default: SExpr = ABORT_PROGRAM,
    on_atom: SExpr = ABORT_PROGRAM,
) -> SExpr:
    """Program dispatching on the head tag of a [tag, payload] message.

    Each arm receives the whole message as its argument and inherits the
    dispatching object's self/log/caller.
    """
    nxt = default
    for tag, arm in reversed(cases):
        level = ProgramBuilder()
        t = level.head(Slot(SEED_MESSAGE))
        hit = level.eq(t, Const(tag))
        level.branch(hit, arm, nxt, Slot(SEED_MESSAGE))
        nxt = level.halt()
    outer = ProgramBuilder()
    outer.branch(Slot(SEED_MESSAGE), on_atom, nxt, Slot(SEED_MESSAGE))
    return outer.halt()


def fold_program(fragment: SExpr) -> SExpr:
    """Loop program folding `fragment` over a log chain.

    Loop state: [body, [rest, acc]].  The fragment is sent
    [acc, [entry, rest_after_entry]] and must return the new acc; giving
    it the tail lets scanning fragments remember positions, not just
    values.
    """
    fragment = runnable(fragment)

    done = ProgramBuilder()
    state = done.tail(Slot(SEED_MESSAGE))
    done.tail(state)  # acc on top
    done_arm = done.halt()

    cont = ProgramBuilder()
    body = cont.head(Slot(SEED_MESSAGE))
    state = cont.tail(Slot(SEED_MESSAGE))
    rest = cont.head(state)
    acc = cont.tail(state)
    entry = cont.head(rest)
    rest_after = cont.tail(rest)
    position = cont.cons(entry, rest_after)
    packed = cont.cons(acc, position)
    acc2 = cont.call(Const(fragment), packed)
    state2 = cont.cons(rest_after, acc2)
    next_state = cont.cons(body, state2)
    cont.call(body, next_state)
    cont_arm = cont.halt()

    b = ProgramBuilder()
    state = b.tail(Slot(SEED_MESSAGE))
    rest = b.head(state)
    b.branch(rest, done_arm, cont_arm, Slot(SEED_MESSAGE))
    return b.halt()


def enter_fold(b: ProgramBuilder, fold: SExpr, rest, acc) -> Slot:
    """Emit the entry call for a fold_program loop; returns the acc slot."""
    inner = b.cons(rest, acc)
    state = b.cons(Const(fold), inner)
    return b.call(Const(fold), state)


# stock programs --------------------------------------------------------------


def _echo_program() -> SExpr:
    b = ProgramBuilder()
    b.cons(Slot(SEED_CALLER), Slot(SEED_MESSAGE))
    return b.halt()


def _relay_program() -> SExpr:
    """Forward tail(message) to head(message); answer with the response.

    The relay's own identity becomes the caller the final receiver sees,
    which is the whole point of routing through a proxy.
    """
    b = ProgramBuilder()
    target = b.head(Slot(SEED_MESSAGE))
    payload = b.tail(Slot(SEED_MESSAGE))
    b.call(target, payload)
    return b.halt()


ECHO_PROGRAM = _echo_program()
RELAY_PROGRAM = _relay_program()


# trace plumbing ---------------------------------------------------------------


@dataclass
class FixtureTrace:
    """A fixture's name and the system it left; system.records is its trace."""

    name: str
    system: SystemState


class _Runner:
    """Submits fixture transactions one at a time through Kernel.submit."""

    def __init__(self) -> None:
        self.kernel = Kernel()
        self.system = SystemState.fresh()

    def submit_all(self, txs: list[SExpr]) -> list[TxRecord]:
        return [self.kernel.submit(self.system, tx) for tx in txs]

    def view(self) -> StateView:
        return StateView(self.system.kernel, self.system.k_len)

    def trace(self, name: str) -> FixtureTrace:
        return FixtureTrace(name, self.system)


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise FixtureMismatch(what)


def _expect_value(label: str, got, want: SExpr) -> None:
    if got is ABORT or not equal(got, want):
        shown = "ABORT" if got is ABORT else dumps(got)
        raise FixtureMismatch(f"{label}: expected {dumps(want)}, got {shown}")


def _callers_of(view: StateView, ident: int) -> list[int]:
    return [caller for caller, _ in view.log_of(ident)]


# delegation -------------------------------------------------------------------
#
# Six transactions over five objects show that an ephemeral intermediary
# preserves the sender's identity while a persistent one substitutes its
# own.  The echo object reports [caller, message], so its answers are the
# identity evidence.


def _delegation_programs() -> dict:
    echo_id = 15

    eph_forward = ProgramBuilder()
    eph_forward.call(Const(echo_id), Slot(SEED_MESSAGE))
    forward_fragment = eph_forward.halt()

    a = ProgramBuilder()
    a.call(Const(forward_fragment), Slot(SEED_MESSAGE))
    first_sender = a.halt()

    eph_wrap = ProgramBuilder()
    wrapped = eph_wrap.cons(Const(42), Slot(SEED_MESSAGE))
    eph_wrap.call(Const(echo_id), wrapped)
    wrap_fragment = eph_wrap.halt()

    a2 = ProgramBuilder()
    a2.call(Const(wrap_fragment), Slot(SEED_MESSAGE))
    second_sender = a2.halt()

    relay = ProgramBuilder()
    relay.call(Const(echo_id), Slot(SEED_MESSAGE))
    persistent_relay = relay.halt()  # same code as forward_fragment, but installed

    a3 = ProgramBuilder()
    a3.call(Const(17), Slot(SEED_MESSAGE))
    third_sender = a3.halt()

    return {
        "first_sender": first_sender,
        "second_sender": second_sender,
        "persistent_relay": persistent_relay,
        "third_sender": third_sender,
    }


def delegation_transactions() -> list[SExpr]:
    p = _delegation_programs()
    return [
        creator(p["first_sender"], ECHO_PROGRAM),  # 14, 15
        poke(14, 100),
        creator(p["second_sender"]),  # 16
        poke(16, 200),
        creator(p["persistent_relay"], p["third_sender"]),  # 17, 18
        poke(18, 300),
    ]


DELEGATION_RESULTS: list[SExpr] = [15, (14, 100), 16, (16, (42, 200)), 18, (17, 300)]
DELEGATION_ECHO_CALLERS = [14, 16, 17]


def fixture_delegation() -> FixtureTrace:
    runner = _Runner()
    runner.submit_all(delegation_transactions())
    for row, want in zip(runner.system.records, DELEGATION_RESULTS):
        _expect_value(f"delegation tx {row.seq}", row.result, want)
    callers = _callers_of(runner.view(), 15)[1:]  # skip the birth record
    _expect(
        callers == DELEGATION_ECHO_CALLERS,
        f"echo object callers {callers}, expected {DELEGATION_ECHO_CALLERS}",
    )
    return runner.trace("delegation")


# auction ----------------------------------------------------------------------
#
# The auctioneer (14) creates one bid object per REGISTER and tracks it by
# writing a TRACK entry to its own log.  Bidders talk only through their
# relay proxies (15, 16), so a bid object's STORE gate can trust position
# 4.  REVEAL_ALL walks the auctioneer's own log, reads every tracked bid
# with a REVEAL (gated to the creator), and answers the proxy identity of
# the highest bid; ties go to the later registrant.


def _leq_program() -> SExpr:
    """Loop: is a <= b for atoms, counting up.  State [body,[i,[a,b]]]."""
    yes = (0, 0)
    no = (1, 0)

    again = ProgramBuilder()
    body = again.head(Slot(SEED_MESSAGE))
    state = again.tail(Slot(SEED_MESSAGE))
    i = again.head(state)
    pair_ab = again.tail(state)
    i2 = again.increment(i)
    state2 = again.cons(i2, pair_ab)
    next_state = again.cons(body, state2)
    again.call(body, next_state)
    again_arm = again.halt()

    check_b = ProgramBuilder()
    state = check_b.tail(Slot(SEED_MESSAGE))
    i = check_b.head(state)
    b_val = check_b.tail(check_b.tail(state))
    hit_b = check_b.eq(i, b_val)
    check_b.branch(hit_b, no, again_arm, Slot(SEED_MESSAGE))
    check_b_arm = check_b.halt()

    top = ProgramBuilder()
    state = top.tail(Slot(SEED_MESSAGE))
    i = top.head(state)
    a_val = top.head(top.tail(state))
    hit_a = top.eq(i, a_val)
    top.branch(hit_a, yes, check_b_arm, Slot(SEED_MESSAGE))
    return top.halt()


LEQ_PROGRAM = _leq_program()


def _leq(b: ProgramBuilder, a_src, b_src) -> Slot:
    """Emit a counted comparison; result slot holds 0 iff a <= b."""
    pair_ab = b.cons(a_src, b_src)
    state = b.cons(Const(0), pair_ab)
    loop_state = b.cons(Const(LEQ_PROGRAM), state)
    return b.call(Const(LEQ_PROGRAM), loop_state)


def _bid_program() -> SExpr:
    """The one program every bid object runs; all identity comes from its log.

    Entry 0 is the birth record (caller = creator), entry 1 the INIT entry
    carrying the owning proxy, entry 2 the first STORE.  STORE is gated on
    the proxy, INIT and REVEAL on the creator, and REVEAL answers the
    payload of entry 2, aborting naturally when no bid was ever stored.
    """
    init_gate = ProgramBuilder()
    chain = Slot(SEED_LOG)
    creator_id = init_gate.head(init_gate.head(chain))
    ok = init_gate.eq(Slot(SEED_CALLER), creator_id)
    init_gate.branch(ok, RETURN_ZERO, ABORT_PROGRAM, Slot(SEED_MESSAGE))
    init_arm = init_gate.halt()

    store_gate = ProgramBuilder()
    entry1 = store_gate.head(store_gate.tail(chain))
    owner = store_gate.tail(store_gate.tail(entry1))
    ok = store_gate.eq(Slot(SEED_CALLER), owner)
    store_gate.branch(ok, RETURN_ZERO, ABORT_PROGRAM, Slot(SEED_MESSAGE))
    store_arm = store_gate.halt()

    read = ProgramBuilder()
    entry2 = read.head(read.tail(read.tail(chain)))
    read.tail(read.tail(entry2))  # stored payload on top
    read_arm = read.halt()

    reveal_gate = ProgramBuilder()
    creator_id = reveal_gate.head(reveal_gate.head(chain))
    ok = reveal_gate.eq(Slot(SEED_CALLER), creator_id)
    reveal_gate.branch(ok, read_arm, ABORT_PROGRAM, Slot(SEED_MESSAGE))
    reveal_arm = reveal_gate.halt()

    return dispatch_tags([(INIT, init_arm), (STORE, store_arm), (REVEAL, reveal_arm)])


def _auctioneer_program() -> SExpr:
    take = ProgramBuilder()  # arg [bid,[proxy,best]]: adopt this bid
    bid = take.head(Slot(SEED_MESSAGE))
    proxy = take.head(take.tail(Slot(SEED_MESSAGE)))
    take.cons(bid, proxy)
    take_arm = take.halt()

    keep = ProgramBuilder()  # arg [bid,[proxy,best]]: stay with best
    keep.tail(keep.tail(Slot(SEED_MESSAGE)))
    keep_arm = keep.halt()

    compare = ProgramBuilder()  # arg [bid,[proxy,best]]
    bid = compare.head(Slot(SEED_MESSAGE))
    best = compare.tail(compare.tail(Slot(SEED_MESSAGE)))
    best_value = compare.head(best)
    not_worse = _leq(compare, best_value, bid)
    replace = compare.eq(not_worse, Const(0))
    compare.branch(replace, take_arm, keep_arm, Slot(SEED_MESSAGE))
    compare_arm = compare.halt()

    track_hit = ProgramBuilder()  # arg [best,[entry,rest]]: reveal and compare
    best = track_hit.head(Slot(SEED_MESSAGE))
    entry = track_hit.head(track_hit.tail(Slot(SEED_MESSAGE)))
    tracked = track_hit.tail(track_hit.tail(entry))  # TRACK payload [bid_id, proxy]
    bid_object = track_hit.head(tracked)
    proxy = track_hit.tail(tracked)
    bid = track_hit.call(bid_object, Const((REVEAL, 0)))
    packed = track_hit.cons(bid, track_hit.cons(proxy, best))
    track_hit.branch(best, take_arm, compare_arm, packed)
    track_arm = track_hit.halt()

    skip = ProgramBuilder()  # arg [best,[entry,rest]]: not a TRACK entry
    skip.head(Slot(SEED_MESSAGE))
    skip_arm = skip.halt()

    tag_check = ProgramBuilder()
    message = tag_check.tail(tag_check.head(tag_check.tail(Slot(SEED_MESSAGE))))
    tag = tag_check.head(message)
    hit = tag_check.eq(tag, Const(TRACK))
    tag_check.branch(hit, track_arm, skip_arm, Slot(SEED_MESSAGE))
    tag_check_arm = tag_check.halt()

    walk_fragment = ProgramBuilder()  # arg [best,[entry,rest]]
    message = walk_fragment.tail(walk_fragment.head(walk_fragment.tail(Slot(SEED_MESSAGE))))
    walk_fragment.branch(message, skip_arm, tag_check_arm, Slot(SEED_MESSAGE))
    reveal_fold = fold_program(walk_fragment.halt())

    winner = ProgramBuilder()  # arg best=[value,proxy]
    winner.tail(Slot(SEED_MESSAGE))
    winner_arm = winner.halt()

    reveal_all = ProgramBuilder()
    best = enter_fold(reveal_all, reveal_fold, Slot(SEED_LOG), Const(0))
    reveal_all.branch(best, ABORT_PROGRAM, winner_arm, best)
    reveal_all_arm = reveal_all.halt()

    track = ProgramBuilder()  # self-logged bookkeeping: only self may write it
    ok = track.eq(Slot(SEED_CALLER), Slot(SEED_SELF))
    track.branch(ok, RETURN_ZERO, ABORT_PROGRAM, Slot(SEED_MESSAGE))
    track_entry_arm = track.halt()

    register = ProgramBuilder()
    bid_object = register.call(Const(0), Const(_bid_program()))
    init_message = register.cons(Const(INIT), Slot(SEED_CALLER))
    register.call(bid_object, init_message)
    tracked = register.cons(bid_object, Slot(SEED_CALLER))
    track_message = register.cons(Const(TRACK), tracked)
    register.call(Slot(SEED_SELF), track_message)
    register_arm = register.halt_with(bid_object)

    return dispatch_tags(
        [
            (REGISTER, register_arm),
            (TRACK, track_entry_arm),
            (REVEAL_ALL, reveal_all_arm),
        ]
    )


AUCTIONEER_PROGRAM = _auctioneer_program()
BID_PROGRAM = _bid_program()


def auction_setup() -> list[SExpr]:
    """Create auctioneer 14 and bidder proxies 15 and 16."""
    return [creator(AUCTIONEER_PROGRAM, RELAY_PROGRAM, RELAY_PROGRAM)]


def auction_transactions() -> list[SExpr]:
    return auction_setup() + [
        poke(15, (14, (REGISTER, 0))),  # via proxy 15 -> bid object 17
        poke(15, (17, (STORE, 100))),
        poke(16, (14, (REGISTER, 0))),  # via proxy 16 -> bid object 18
        poke(16, (18, (STORE, 150))),
        poke(14, (REVEAL_ALL, 0)),
    ]


AUCTION_RESULTS: list[SExpr] = [16, 17, 0, 18, 0, 16]


def fixture_auction() -> FixtureTrace:
    runner = _Runner()
    runner.submit_all(auction_transactions())
    for row, want in zip(runner.system.records, AUCTION_RESULTS):
        _expect_value(f"auction tx {row.seq}", row.result, want)
    view = runner.view()
    b1_log, b2_log = view.log_of(17), view.log_of(18)
    _expect(
        equal(b1_log[2][1], (STORE, 100)) and b1_log[2][0] == 15,
        "first bid object should hold [15, [STORE, 100]] at entry 2",
    )
    _expect(
        equal(b2_log[2][1], (STORE, 150)) and b2_log[2][0] == 16,
        "second bid object should hold [16, [STORE, 150]] at entry 2",
    )
    return runner.trace("auction")


def fixture_auction_abort() -> FixtureTrace:
    """One registrant never stores; the reveal collapses without a trace.

    The reveal of the empty bid object aborts (reading entry 2 of a
    two-entry log fails), and atomicity guarantees the partial answers
    gathered before the failure never reach any log.
    """
    runner = _Runner()
    txs = auction_transactions()[:-1]
    del txs[4]  # drop the second STORE
    runner.submit_all(txs)
    before = runner.system.kernel.canonical_lines()

    records = runner.submit_all([poke(14, (REVEAL_ALL, 0))])
    _expect(records[0].result is ABORT, "reveal over an empty bid should abort")
    _expect(
        runner.system.kernel.canonical_lines() == before,
        "aborted reveal must leave every log unchanged",
    )
    return runner.trace("auction-abort")


# escrow -------------------------------------------------------------------
#
# The escrow owns no counters: its phase is its log length.  One entry
# (the birth record) means nothing has happened; the deposit appends the
# second entry and thereby moves the phase, so a second deposit fails the
# same shape test that admitted the first.


def _escrow_program(buyer: int, seller: int) -> SExpr:
    chain = Slot(SEED_LOG)

    def gated(expected: int, then: SExpr) -> SExpr:
        g = ProgramBuilder()
        ok = g.eq(Slot(SEED_CALLER), Const(expected))
        g.branch(ok, then, ABORT_PROGRAM, Slot(SEED_MESSAGE))
        return g.halt()

    deposit = ProgramBuilder()  # phase 0: only the birth record so far
    rest1 = deposit.tail(chain)
    deposit.branch(rest1, gated(buyer, RETURN_ZERO), ABORT_PROGRAM, Slot(SEED_MESSAGE))
    deposit_arm = deposit.halt()

    confirm_tail = ProgramBuilder()  # phase 1: exactly one entry after birth
    rest2 = confirm_tail.tail(confirm_tail.tail(chain))
    confirm_tail.branch(
        rest2, gated(seller, RETURN_ZERO), ABORT_PROGRAM, Slot(SEED_MESSAGE)
    )
    confirm_check = confirm_tail.halt()

    confirm = ProgramBuilder()
    rest1 = confirm.tail(chain)
    confirm.branch(rest1, ABORT_PROGRAM, confirm_check, Slot(SEED_MESSAGE))
    confirm_arm = confirm.halt()

    done = ProgramBuilder()
    done.push(COMPLETE)
    done_arm = done.halt()

    query_deep = ProgramBuilder()  # phase 2: exactly two entries after birth
    rest3 = query_deep.tail(query_deep.tail(query_deep.tail(chain)))
    query_deep.branch(rest3, done_arm, ABORT_PROGRAM, Slot(SEED_MESSAGE))
    query_check2 = query_deep.halt()

    query_mid = ProgramBuilder()
    rest2 = query_mid.tail(query_mid.tail(chain))
    query_mid.branch(rest2, ABORT_PROGRAM, query_check2, Slot(SEED_MESSAGE))
    query_check1 = query_mid.halt()

    query = ProgramBuilder()
    rest1 = query.tail(chain)
    query.branch(rest1, ABORT_PROGRAM, query_check1, Slot(SEED_MESSAGE))
    query_arm = query.halt()

    return dispatch_tags(
        [(DEPOSIT, deposit_arm), (CONFIRM, confirm_arm), (QUERY, query_arm)]
    )


def escrow_setup() -> list[SExpr]:
    """Buyer proxy 14, seller proxy 15, escrow 16 bound to both."""
    return [creator(RELAY_PROGRAM, RELAY_PROGRAM, _escrow_program(14, 15))]


def fixture_escrow() -> FixtureTrace:
    runner = _Runner()
    runner.submit_all(escrow_setup())

    happy = runner.submit_all(
        [
            poke(14, (16, (DEPOSIT, 500))),
            poke(15, (16, (CONFIRM, 0))),
            poke(16, (QUERY, 0)),
        ]
    )
    _expect_value("escrow deposit", happy[0].result, 0)
    _expect_value("escrow confirm", happy[1].result, 0)
    _expect_value("escrow query", happy[2].result, COMPLETE)

    length_now = runner.system.k_len
    rejected = runner.submit_all(
        [
            poke(15, (16, (DEPOSIT, 1))),  # seller cannot deposit
            poke(14, (16, (DEPOSIT, 1))),  # phase has moved on
            poke(16, (DEPOSIT, 1)),  # outside caller fails the gate
            poke(14, (16, (CONFIRM, 0))),  # confirm is seller-only and phase 1
        ]
    )
    _expect(
        all(r.result is ABORT for r in rejected),
        "every out-of-phase or wrong-caller escrow message must abort",
    )
    _expect(runner.system.k_len == length_now, "aborted escrow messages left entries")
    return runner.trace("escrow")


def fixture_escrow_wrong_phase() -> FixtureTrace:
    """Fresh escrow where the first deposit comes from the seller."""
    runner = _Runner()
    runner.submit_all(escrow_setup())
    records = runner.submit_all([poke(15, (16, (DEPOSIT, 1)))])
    _expect(records[0].result is ABORT, "seller deposit in phase 0 must abort")
    return runner.trace("escrow-wrong-phase")


# clone and bootloader ---------------------------------------------------------


def _cloneable_program() -> SExpr:
    """Echo object that, on CLONE, creates a child running its own program.

    The program recalls position 0 in the main frame (an arm's position 0
    is the arm, not the object's code) and passes it into the arm packed
    with the message.
    """
    make = ProgramBuilder()  # arg [program, message]
    own_code = make.head(Slot(SEED_MESSAGE))
    make.call(Const(0), own_code)
    make_arm = make.halt()

    echo = ProgramBuilder()  # arg [program, message]
    msg = echo.tail(Slot(SEED_MESSAGE))
    echo.cons(Slot(SEED_CALLER), msg)
    echo_arm = echo.halt()

    tag_check = ProgramBuilder()  # arg [program, message]
    msg = tag_check.tail(Slot(SEED_MESSAGE))
    tag = tag_check.head(msg)
    hit = tag_check.eq(tag, Const(CLONE))
    tag_check.branch(hit, make_arm, echo_arm, Slot(SEED_MESSAGE))
    tag_arm = tag_check.halt()

    b = ProgramBuilder()
    packed = b.cons(Slot(SEED_PROGRAM), Slot(SEED_MESSAGE))
    b.branch(Slot(SEED_MESSAGE), echo_arm, tag_arm, packed)
    return b.halt()


CLONEABLE_PROGRAM = _cloneable_program()


def fixture_clone() -> FixtureTrace:
    runner = _Runner()
    runner.submit_all([creator(CLONEABLE_PROGRAM)])
    records = runner.submit_all([poke(14, (CLONE, 0))])
    child = records[0].result
    _expect_value("clone response", child, 15)

    view = runner.view()
    _expect(
        equal(view.program_of(15), view.program_of(14)),
        "child must be born with its parent's program",
    )
    probes = runner.submit_all([poke(14, (77, 8)), poke(15, (77, 8))])
    _expect(
        probes[0].committed
        and probes[1].committed
        and equal(probes[0].result, probes[1].result),
        "parent and child must answer identically",
    )
    return runner.trace("clone")


def _bootloader_program() -> SExpr:
    """Route every non-deposit message to the newest deposited code.

    The log is scanned front to back keeping the last [DEPOSIT, code]
    payload, so a later deposit shadows an earlier one without touching
    the object's identity.  With nothing deposited the route aborts.
    """
    hit = ProgramBuilder()  # arg [acc,[entry,rest]]: keep this entry's code
    entry = hit.head(hit.tail(Slot(SEED_MESSAGE)))
    message = hit.tail(entry)
    hit.tail(message)
    hit_arm = hit.halt()

    skip = ProgramBuilder()
    skip.head(Slot(SEED_MESSAGE))
    skip_arm = skip.halt()

    tag_check = ProgramBuilder()
    message = tag_check.tail(tag_check.head(tag_check.tail(Slot(SEED_MESSAGE))))
    tag = tag_check.head(message)
    hit_tag = tag_check.eq(tag, Const(DEPOSIT))
    tag_check.branch(hit_tag, hit_arm, skip_arm, Slot(SEED_MESSAGE))
    tag_arm = tag_check.halt()

    scan_fragment = ProgramBuilder()
    message = scan_fragment.tail(
        scan_fragment.head(scan_fragment.tail(Slot(SEED_MESSAGE)))
    )
    scan_fragment.branch(message, skip_arm, tag_arm, Slot(SEED_MESSAGE))
    scan_fold = fold_program(scan_fragment.halt())

    run_code = ProgramBuilder()  # arg [code, message]
    code = run_code.head(Slot(SEED_MESSAGE))
    msg = run_code.tail(Slot(SEED_MESSAGE))
    run_code.call(code, msg)
    run_arm = run_code.halt()

    route = ProgramBuilder()  # arg: the original message
    newest = enter_fold(route, scan_fold, Slot(SEED_LOG), Const(0))
    packed = route.cons(newest, Slot(SEED_MESSAGE))
    route.branch(newest, ABORT_PROGRAM, run_arm, packed)
    route_arm = route.halt()

    deposit_check = ProgramBuilder()
    tag = deposit_check.head(Slot(SEED_MESSAGE))
    hit_tag = deposit_check.eq(tag, Const(DEPOSIT))
    deposit_check.branch(hit_tag, RETURN_ZERO, route_arm, Slot(SEED_MESSAGE))
    deposit_arm = deposit_check.halt()

    b = ProgramBuilder()
    b.branch(Slot(SEED_MESSAGE), route_arm, deposit_arm, Slot(SEED_MESSAGE))
    return b.halt()


BOOTLOADER_PROGRAM = _bootloader_program()


def _increment_code() -> SExpr:
    b = ProgramBuilder()
    b.increment(Slot(SEED_MESSAGE))
    return b.halt()


def fixture_bootloader() -> FixtureTrace:
    runner = _Runner()
    runner.submit_all([creator(BOOTLOADER_PROGRAM)])

    empty = runner.submit_all([poke(14, 41)])
    _expect(empty[0].result is ABORT, "bootloader with no code must abort")

    runner.submit_all([poke(14, (DEPOSIT, ECHO_PROGRAM))])
    echoed = runner.submit_all([poke(14, 41)])
    _expect_value("bootloader echo", echoed[0].result, (1, 41))

    runner.submit_all([poke(14, (DEPOSIT, _increment_code()))])
    bumped = runner.submit_all([poke(14, 41)])
    _expect_value("bootloader increment", bumped[0].result, 42)
    return runner.trace("bootloader")


FIXTURES: dict[str, Callable[[], FixtureTrace]] = {
    "delegation": fixture_delegation,
    "auction": fixture_auction,
    "auction-abort": fixture_auction_abort,
    "escrow": fixture_escrow,
    "clone": fixture_clone,
    "bootloader": fixture_bootloader,
}


# checkpointing -----------------------------------------------------------------
#
# A fold-structured object answers from (sigma0, step, use).  The naive
# build refolds its whole history per call.  The transformed build
# self-sends a [CHECKPOINT, sigma] entry each call; because the inner
# self-send completes before the outer frame, the checkpoint lands just
# before the message that produced it, so it must carry the state BEFORE
# that message, and the next call folds exactly the one entry between the
# newest checkpoint and itself.  Finding that checkpoint still scans the
# whole log, since the encoding keeps the oldest entry outermost, so the
# rewrite bounds the step runs per call but not the per-call cost.  Both
# builds answer every message stream identically; they differ only in
# what they read.


@dataclass(frozen=True)
class FoldSpec:
    """A fold-structured object: state seed, per-entry step, responder.

    step receives [sigma, [caller, message]] and returns the new sigma;
    use receives [sigma, message] and returns the response.  Both must be
    pure fragments: no sends to persistent objects, no creation.
    """

    sigma0: SExpr
    step: SExpr
    use: SExpr
    tag: int = CHECKPOINT


def _is_checkpoint_branch(
    tag: int, yes_arm: SExpr, no_arm: SExpr, locate_entry
) -> SExpr:
    """Program testing arg's entry for checkpoint-ness, then branching.

    locate_entry(builder) must emit instructions leaving the (caller,
    message) entry on top and return its slot.  A checkpoint entry is a
    [tag, sigma] message whose caller is the object itself: content alone
    cannot fake one because position 4 is kernel-set.
    """
    caller_check = ProgramBuilder()
    entry = locate_entry(caller_check)
    entry_caller = caller_check.head(entry)
    own = caller_check.eq(entry_caller, Slot(SEED_SELF))
    caller_check.branch(own, yes_arm, no_arm, Slot(SEED_MESSAGE))
    caller_arm = caller_check.halt()

    tag_check = ProgramBuilder()
    entry = locate_entry(tag_check)
    message = tag_check.tail(entry)
    entry_tag = tag_check.head(message)
    hit = tag_check.eq(entry_tag, Const(tag))
    tag_check.branch(hit, caller_arm, no_arm, Slot(SEED_MESSAGE))
    tag_arm = tag_check.halt()

    outer = ProgramBuilder()
    entry = locate_entry(outer)
    message = outer.tail(entry)
    outer.branch(message, no_arm, tag_arm, Slot(SEED_MESSAGE))
    return outer.halt()


def _step_fold(spec: FoldSpec) -> SExpr:
    """Fold fragment: step every entry except checkpoint self-sends."""
    step_arm = runnable(spec.step)

    # The fold hands us [acc, [entry, rest]]; step wants [acc, entry].
    reshape = ProgramBuilder()
    acc = reshape.head(Slot(SEED_MESSAGE))
    entry = reshape.head(reshape.tail(Slot(SEED_MESSAGE)))
    packed = reshape.cons(acc, entry)
    reshape.call(Const(step_arm), packed)
    step_entry_arm = reshape.halt()

    keep = ProgramBuilder()
    keep.head(Slot(SEED_MESSAGE))
    keep_arm = keep.halt()

    def locate(b: ProgramBuilder) -> Slot:
        return b.head(b.tail(Slot(SEED_MESSAGE)))

    return _is_checkpoint_branch(spec.tag, keep_arm, step_entry_arm, locate)


def _scan_fold(spec: FoldSpec) -> SExpr:
    """Fold fragment keeping [sigma, rest-after] of the newest checkpoint."""
    adopt = ProgramBuilder()  # arg [found,[entry,rest]]
    position = adopt.tail(Slot(SEED_MESSAGE))
    entry = adopt.head(position)
    rest = adopt.tail(position)
    sigma = adopt.tail(adopt.tail(entry))
    adopt.cons(sigma, rest)
    adopt_arm = adopt.halt()

    keep = ProgramBuilder()
    keep.head(Slot(SEED_MESSAGE))
    keep_arm = keep.halt()

    def locate(b: ProgramBuilder) -> Slot:
        return b.head(b.tail(Slot(SEED_MESSAGE)))

    return _is_checkpoint_branch(spec.tag, adopt_arm, keep_arm, locate)


def build_naive(spec: FoldSpec) -> SExpr:
    """Refold the full post-birth history on every call."""
    fold = fold_program(_step_fold(spec))
    b = ProgramBuilder()
    history = b.tail(Slot(SEED_LOG))  # skip the birth record
    sigma = enter_fold(b, fold, history, Const(spec.sigma0))
    response_arg = b.cons(sigma, Slot(SEED_MESSAGE))
    b.call(Const(runnable(spec.use)), response_arg)
    return b.halt()


def checkpoint_transform(spec: FoldSpec) -> SExpr:
    """Answer from the newest checkpoint instead of the whole history.

    On a checkpoint self-send: acknowledge with 0 and write nothing, or
    the object would checkpoint its checkpoints forever.  On anything
    else: locate the newest checkpoint, fold the entries after it, answer,
    and self-send the pre-message state for the next call.  Locating the
    checkpoint scans the whole encoded log, oldest entry outermost, so
    per-call steps still grow linearly with history; only the step
    fragment's runs are bounded (one per call after the first).  A
    malformed checkpoint payload aborts inside step/use rather than being
    guessed at.
    """
    step_fold = fold_program(_step_fold(spec))
    scan_fold = fold_program(_scan_fold(spec))

    from_seed = ProgramBuilder()  # arg: original message; no checkpoint found
    history = from_seed.tail(Slot(SEED_LOG))
    sigma = enter_fold(from_seed, step_fold, history, Const(spec.sigma0))
    from_seed_arm = from_seed.halt_with(sigma)

    from_checkpoint = ProgramBuilder()  # arg: [sigma_base, rest-after]
    base = from_checkpoint.head(Slot(SEED_MESSAGE))
    pending = from_checkpoint.tail(Slot(SEED_MESSAGE))
    sigma = enter_fold(from_checkpoint, step_fold, pending, base)
    from_checkpoint_arm = from_checkpoint.halt_with(sigma)

    respond = ProgramBuilder()  # arg: the original message
    found = enter_fold(respond, scan_fold, Slot(SEED_LOG), Const(0))
    sigma_pre = respond.branch(found, from_seed_arm, from_checkpoint_arm, found)
    response_arg = respond.cons(sigma_pre, Slot(SEED_MESSAGE))
    response = respond.call(Const(runnable(spec.use)), response_arg)
    checkpoint_message = respond.cons(Const(spec.tag), sigma_pre)
    respond.call(Slot(SEED_SELF), checkpoint_message)
    respond_arm = respond.halt_with(response)

    def locate_current(b: ProgramBuilder) -> Slot:
        # The in-flight message is not in the log; test it directly by
        # pairing the kernel-set caller with it.
        return b.cons(Slot(SEED_CALLER), Slot(SEED_MESSAGE))

    return _is_checkpoint_branch(spec.tag, RETURN_ZERO, respond_arm, locate_current)


def counter_spec() -> FoldSpec:
    """Count every received message; answer the count."""
    step = ProgramBuilder()
    sigma = step.head(Slot(SEED_MESSAGE))
    step.increment(sigma)
    step_prog = step.halt()

    use = ProgramBuilder()
    use.head(Slot(SEED_MESSAGE))
    use_prog = use.halt()

    return FoldSpec(0, step_prog, use_prog)


def _kv_lookup_program() -> SExpr:
    """Loop: first value bound to key in an association chain, 0 on miss.

    State [body, [rest, key]].
    """
    found = ProgramBuilder()  # arg: loop state, current binding matches
    state = found.tail(Slot(SEED_MESSAGE))
    binding = found.head(found.head(state))
    found.tail(binding)
    found_arm = found.halt()

    again = ProgramBuilder()
    body = again.head(Slot(SEED_MESSAGE))
    state = again.tail(Slot(SEED_MESSAGE))
    rest = again.head(state)
    key = again.tail(state)
    state2 = again.cons(again.tail(rest), key)
    next_state = again.cons(body, state2)
    again.call(body, next_state)
    again_arm = again.halt()

    check = ProgramBuilder()  # rest is non-empty here
    state = check.tail(Slot(SEED_MESSAGE))
    rest = check.head(state)
    key = check.tail(state)
    binding_key = check.head(check.head(rest))
    hit = check.eq(binding_key, key)
    check.branch(hit, found_arm, again_arm, Slot(SEED_MESSAGE))
    check_arm = check.halt()

    b = ProgramBuilder()
    rest = b.head(b.tail(Slot(SEED_MESSAGE)))
    b.branch(rest, RETURN_ZERO, check_arm, Slot(SEED_MESSAGE))
    return b.halt()


KV_LOOKUP_PROGRAM = _kv_lookup_program()


def kv_spec() -> FoldSpec:
    """Association store: [KV_SET, [k, v]] binds, [KV_GET, k] answers.

    The newest binding wins (lookups stop at the first match and the step
    prepends).  Any other message leaves the state alone and answers 0.
    """
    bind = ProgramBuilder()  # arg [sigma, entry-message]
    sigma = bind.head(Slot(SEED_MESSAGE))
    binding = bind.tail(bind.tail(Slot(SEED_MESSAGE)))
    bind.cons(binding, sigma)
    bind_arm = bind.halt()

    keep = ProgramBuilder()
    keep.head(Slot(SEED_MESSAGE))
    keep_arm = keep.halt()

    set_check = ProgramBuilder()  # arg [sigma, entry-message]
    msg = set_check.tail(Slot(SEED_MESSAGE))
    tag = set_check.head(msg)
    hit = set_check.eq(tag, Const(KV_SET))
    set_check.branch(hit, bind_arm, keep_arm, Slot(SEED_MESSAGE))
    set_arm = set_check.halt()

    step = ProgramBuilder()  # arg [sigma, [caller, message]]
    sigma = step.head(Slot(SEED_MESSAGE))
    entry_msg = step.tail(step.tail(Slot(SEED_MESSAGE)))
    packed = step.cons(sigma, entry_msg)
    step.branch(entry_msg, keep_arm, set_arm, packed)
    step_prog = step.halt()

    lookup = ProgramBuilder()  # arg [sigma, message]: message is [KV_GET, k]
    sigma = lookup.head(Slot(SEED_MESSAGE))
    key = lookup.tail(lookup.tail(Slot(SEED_MESSAGE)))
    state = lookup.cons(sigma, key)
    loop_state = lookup.cons(Const(KV_LOOKUP_PROGRAM), state)
    lookup.call(Const(KV_LOOKUP_PROGRAM), loop_state)
    lookup_arm = lookup.halt()

    get_check = ProgramBuilder()  # arg [sigma, message]
    msg = get_check.tail(Slot(SEED_MESSAGE))
    tag = get_check.head(msg)
    hit = get_check.eq(tag, Const(KV_GET))
    get_check.branch(hit, lookup_arm, RETURN_ZERO, Slot(SEED_MESSAGE))
    get_arm = get_check.halt()

    use = ProgramBuilder()  # arg [sigma, message]
    msg = use.tail(Slot(SEED_MESSAGE))
    use.branch(msg, RETURN_ZERO, get_arm, Slot(SEED_MESSAGE))
    use_prog = use.halt()

    return FoldSpec(0, step_prog, use_prog)
