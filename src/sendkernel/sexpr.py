"""S-expression values over unbounded naturals.

A value is either an atom (a non-negative Python int, arbitrary precision)
or an ordered pair of two values (a 2-tuple); check_value refuses anything
else, such as True, -5 or a list.  The canonical text form is

    sexpr := NAT | "[" sexpr "," sexpr "]"

with no whitespace emitted and no leading zeros ("0" is the only natural
starting with a zero digit).  Whitespace between tokens is tolerated on
input only.

Canonical text is exactly compact JSON of nested 2-element arrays of
naturals, so dumps and parse hand the per-node work to CPython's C json
encoder (bound once, at import) and scanner.  parse first checks the text
against the alphabet of digits, brackets, commas and whitespace, has the C
scanner build nested lists, then turns those into pairs in one iterative
pass that requires every list to hold exactly two items.  scan_split reads
a whitespace-free text [a,[b,c]] with three scanner calls and builds no
pairs at all: it checks b's lists and hands back b's text, which a store
reader keeps in place of a transaction until replay parses it, and it
hands back a and c as the scanner's lists, which the store reader unpacks
where it reads fields and turns into pairs only where it keeps a value.

Values nest far deeper than any recursion limit (logs are right-nested
pair chains).  The C code guards its own recursion with the interpreter's
recursion limit and raises RecursionError at about 1,000 levels; dumps and
parse then fall back to walkers with explicit stacks (_dumps_walk,
_parse_walk), as they do for any other text or value the C path refuses:
malformed text, whose ParseError offset the walker reports, and atoms past
int()'s 4,300-digit limit, which the walkers convert through decimal.
sendkernel must never raise the recursion limit: the C path relies on that
guard to give up before the C stack runs out.  equal compares in C and
falls back to a walk with an explicit stack in the same way.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional, Union

SExpr = Union[int, tuple]

__all__ = [
    "SExpr",
    "ParseError",
    "check_value",
    "is_atom",
    "is_pair",
    "equal",
    "dumps",
    "parse",
    "scan_split",
    "in_canonical_alphabet",
    "chain",
    "unchain",
]


class ParseError(ValueError):
    """Raised on malformed canonical text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def is_atom(x: SExpr) -> bool:
    return isinstance(x, int)


def is_pair(x: SExpr) -> bool:
    return isinstance(x, tuple)


def check_value(x) -> int:
    """The number of pairs in x; ValueError unless every node of x is an
    exact int of at least 0 or an exact tuple of two items.

    dumps and == take True, 1.0 and int subclasses for ints and a list for
    a tuple, and the interpreter does not, so only such values run as their
    text reads back.  One breadth-first pass with no recursion, so a value
    of any depth is checked.
    """
    nodes = [x] if x.__class__ is tuple else []
    if nodes or (x.__class__ is int and x >= 0):
        try:
            for head, tail in nodes:  # unpacking checks the length
                if head.__class__ is tuple:
                    nodes.append(head)
                elif head.__class__ is not int or head < 0:
                    break
                if tail.__class__ is tuple:
                    nodes.append(tail)
                elif tail.__class__ is not int or tail < 0:
                    break
            else:
                return len(nodes)
        except ValueError:  # a tuple of other than two items
            pass
    raise ValueError("not a value: a part is neither an int >= 0 nor a 2-tuple")


def equal(a: SExpr, b: SExpr) -> bool:
    """Structural equality: C's tuple comparison, then a worklist walk for
    values nested past the recursion limit."""
    try:
        return a == b
    except RecursionError:
        pass
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, int):
            if not isinstance(y, int) or x != y:
                return False
        else:
            if isinstance(y, int):
                return False
            stack.append((x[0], y[0]))
            stack.append((x[1], y[1]))
    return True


# The C encoder JSONEncoder.encode builds per call, bound once (no markers:
# tuples form no cycles).  Without _json, iterencode takes the same (x, 0).
_encoder = json.JSONEncoder(check_circular=False, separators=(",", ":"))
_c_encode = _encoder.iterencode if c_make_encoder is None else c_make_encoder(
    None, _encoder.default, encode_basestring_ascii, None, ":", ",", False, False, True
)


def dumps(x: SExpr) -> str:
    """Canonical text of a value: injective, whitespace-free."""
    try:
        return "".join(_c_encode(x, 0))
    except (RecursionError, ValueError):  # too deep, or an atom too long
        return _dumps_walk(x)


_CLOSE = object()
_COMMA = object()


def _dumps_walk(x: SExpr) -> str:
    """dumps with an explicit stack: any depth, atoms of any length."""
    out: list[str] = []
    stack: list = [x]
    while stack:
        v = stack.pop()
        if v is _COMMA:
            out.append(",")
        elif v is _CLOSE:
            out.append("]")
        elif isinstance(v, int):
            try:
                out.append(str(v))
            except ValueError:  # past 4,300 digits; Decimal(int) is exact
                out.append(str(Decimal(v)))
        else:
            out.append("[")
            stack.append(_CLOSE)
            stack.append(v[1])
            stack.append(_COMMA)
            stack.append(v[0])
    return "".join(out)


_ALPHABET = re.compile(r"[0-9\[\], \t\r\n]*")  # [0-9], unlike \d, is ASCII only
_CANONICAL_BYTES = b"0123456789[],"
_decode = json.JSONDecoder().decode
_scan = json.JSONDecoder().scan_once  # (value, end) of the JSON value at an index


def in_canonical_alphabet(text: str) -> bool:
    """Whether text holds only what dumps writes: digits, brackets, commas.

    dumps of anything but naturals and pairs writes other characters, such
    as "true", "-5" or "null".  Deleting the canonical bytes and looking
    for a remainder is 3x faster than a regex.
    """
    return text.isascii() and not text.encode("ascii").translate(None, _CANONICAL_BYTES)


def parse(text: str) -> SExpr:
    """Parse canonical text back to a value.  parse(dumps(x)) == x.

    Input may contain whitespace between tokens.  Rejects leading zeros,
    trailing garbage and unterminated pairs, reporting the offense offset.
    """
    if _ALPHABET.fullmatch(text) is not None:
        try:
            return _pairs(_decode(text))
        except (RecursionError, ValueError):  # JSONDecodeError is a ValueError
            pass
    return _parse_walk(text)


def scan_split(text: str) -> Optional[tuple]:
    """The C scanner's reading of a text [a,[b,c]] that leaves b as text:
    (a, (b_text, c)).

    a and c are as the scanner built them, ints and nested lists, and their
    lists are not checked: unpacking one, or _pairs, finds a list of other
    than two items.  b_text is checked as parse would check it, but no value
    is built from it; since the text holds no whitespace, it is exactly
    dumps of that value.  Returns None for any text parse must handle
    itself: one with whitespace or of another shape, and any the C scanner
    refuses (malformed text, nesting past its limit, atoms past 4,300
    digits).
    """
    if text[:1] != "[" or not in_canonical_alphabet(text):  # scans start past [0]
        return None
    try:
        a, i = _scan(text, 1)
        if text[i : i + 2] != ",[":
            return None
        b, j = _scan(text, i + 2)
        if text[j : j + 1] != ",":
            return None
        c, k = _scan(text, j + 1)
        if text[k:] != "]]":
            return None
        _lists(b)
    except (StopIteration, RecursionError, ValueError):  # StopIteration: no value
        return None
    return (a, (text[i + 2 : j], c))


def _lists(x) -> list:
    """Every list in the scanner's output x, each before its children.

    Raises ValueError unless every list holds exactly two items.
    """
    lists = [x] if x.__class__ is list else []
    for head, tail in lists:  # breadth-first; unpacking checks the length
        if head.__class__ is list:
            lists.append(head)
        if tail.__class__ is list:
            lists.append(tail)
    return lists


def _pairs(x) -> SExpr:
    """Turn the scanner's nested lists into pairs, bottom-up; an int or a
    pair comes back as it is.

    Raises ValueError unless every list holds exactly two items.  Each list
    holds its pair at [2] while its parent is converted.
    """
    lists = _lists(x)
    # Children first.  The lists stay alive to the end.  Freeing each as its
    # pair is made lowers the peak of opening fold_kv's store from 108 to
    # 90 MB, but even with the collector paused during open it opens no
    # store faster: fold_kv's 1.4x and routed's 1.2x slower, spread_create's
    # even (4 alternated rounds each).
    for node in reversed(lists):
        head, tail = node
        if head.__class__ is list:
            head = head[2]
        if tail.__class__ is list:
            tail = tail[2]
        node.append((head, tail))
    if not lists:
        return x
    return x[2]


_WS = " \t\r\n"
_DIGITS = frozenset("0123456789")  # str.isdigit would also take other scripts' digits


def _parse_walk(text: str) -> SExpr:
    """parse with an explicit stack: any depth, atoms of any length, and the
    offset of the first offense in malformed text."""
    n = len(text)
    i = 0
    # Each open pair waits first for its head ([] marker None), then, once
    # the comma is consumed, for its tail (marker holds the head).
    stack: list = []
    value: SExpr = 0
    have_value = False

    while True:
        while i < n and text[i] in _WS:
            i += 1
        if not have_value:
            if i >= n:
                raise ParseError("unexpected end of input, expected a value", i)
            ch = text[i]
            if ch == "[":
                stack.append(None)
                i += 1
                continue
            if ch not in _DIGITS:
                raise ParseError(f"unexpected character {ch!r}", i)
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            digits = text[start:i]
            if len(digits) > 1 and digits[0] == "0":
                raise ParseError("leading zeros are not canonical", start)
            try:
                value = int(digits)
            except ValueError:  # past 4,300 digits; Decimal(str) is exact
                value = int(Decimal(digits))
            have_value = True
            continue
        # A complete value in hand: either we are done, or it fills a slot
        # in the innermost open pair.
        if not stack:
            if i < n:
                raise ParseError("trailing input after value", i)
            return value
        if stack[-1] is None:
            if i >= n or text[i] != ",":
                raise ParseError("expected ','", i)
            stack[-1] = (value,)
            have_value = False
            i += 1
        else:
            if i >= n or text[i] != "]":
                raise ParseError("expected ']'", i)
            (head,) = stack.pop()
            value = (head, value)
            i += 1


def chain(items) -> SExpr:
    """Encode a Python sequence as the right-nested list [x0,[x1,[...,0]]]."""
    out: SExpr = 0
    for item in reversed(items):
        out = (item, out)
    return out


def unchain(x: SExpr) -> list:
    """Decode a right-nested list back to a Python list.

    The chain must terminate in the atom 0; anything else is malformed.
    """
    items = []
    while isinstance(x, tuple):
        items.append(x[0])
        x = x[1]
    if x != 0:
        raise ValueError(f"chain ends in atom {x}, expected 0")
    return items
