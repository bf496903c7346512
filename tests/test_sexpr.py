"""Value domain: construction, equality, canonical text round-trips."""

import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sendkernel import sexpr
from sendkernel.durability import DurableSystem
from sendkernel.patterns import ECHO_PROGRAM, creator, poke
from sendkernel.sexpr import (
    ParseError,
    check_value,
    dumps,
    equal,
    in_canonical_alphabet,
    is_atom,
    is_pair,
    parse,
    scan_split,
)
from sendkernel.sexpr import _dumps_walk, _pairs, _parse_walk


def sexprs(max_leaves=40):
    return st.recursive(
        st.integers(min_value=0, max_value=10**30),
        lambda inner: st.tuples(inner, inner),
        max_leaves=max_leaves,
    )


def random_sexpr(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return rng.randrange(0, 1 << rng.randrange(1, 64))
    return (random_sexpr(rng, depth - 1), random_sexpr(rng, depth - 1))


class TestConstruction:
    def test_atom_validates(self):
        assert check_value(0) == 0
        assert check_value(12345678901234567890) == 0
        for bad in (-1, True, "5"):
            with pytest.raises(ValueError):
                check_value(bad)

    def test_predicates(self):
        assert is_atom(7) and not is_pair(7)
        assert is_pair((1, 2)) and not is_atom((1, 2))


class TestEqual:
    def test_basic(self):
        assert equal(5, 5)
        assert not equal(5, 6)
        assert not equal(5, (5, 5))
        assert equal((1, (2, 0)), (1, (2, 0)))
        assert not equal((1, (2, 0)), (1, (2, 1)))

    @given(sexprs())
    def test_reflexive(self, x):
        assert equal(x, x)

    @given(sexprs(), sexprs())
    def test_symmetric_and_matches_tuple_eq(self, x, y):
        assert equal(x, y) == equal(y, x) == (x == y)

    def test_deep_chain_no_recursion(self):
        # 200k-deep right-nested chain; a recursive walk would blow the stack.
        a = 0
        b = 0
        for i in range(200_000):
            a = (i, a)
            b = (i, b)
        assert equal(a, b)
        assert not equal(a, (0, a))

    def test_deep_difference_at_the_bottom(self):
        a, b = 0, 1
        for i in range(50_000):
            a, b = (i, a), (i, b)
        assert not equal(a, b) and not equal((a, 0), (b, 0))
        assert equal((a, 0), (a, 0))


class TestCanonicalText:
    def test_frozen_examples(self):
        assert dumps(5) == "5"
        assert dumps((1, (2, 0))) == "[1,[2,0]]"
        assert dumps((16, (42, 200))) == "[16,[42,200]]"
        assert parse("5") == 5
        assert parse("[1,[2,0]]") == (1, (2, 0))

    def test_whitespace_tolerated_on_input_only(self):
        assert parse(" [ 1 , [ 2 , 0 ] ] ") == (1, (2, 0))
        assert "," in dumps((1, 2)) and " " not in dumps((1, 2))

    @given(sexprs())
    def test_round_trip(self, x):
        assert parse(dumps(x)) == x

    @given(sexprs(), sexprs())
    def test_injective(self, x, y):
        if x != y:
            assert dumps(x) != dumps(y)

    def test_round_trip_randomized_deep(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(300):
            x = random_sexpr(rng, 8)
            assert parse(dumps(x)) == x

    def test_deep_chain_round_trip(self):
        # == on tuples recurses inside CPython and raises RecursionError at
        # this depth, which is exactly why equal() falls back to a walk.
        x = 0
        for i in range(100_000):
            x = (i % 1000, x)
        assert equal(parse(dumps(x)), x)

    @pytest.mark.parametrize(
        "bad",
        [
            "", "[", "[1", "[1,", "[1,2", "]", "01", "[01,2]", "1 2", "[1,2]]", "[1;2]", "-3", "[,1]",
            "[]", "[1]", "[1,2,3]", "[[1,2,3],4]", "[0,[1,[]]]", "1.5", "1e3", "true", "null",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    # Digits outside ASCII 0-9: str.isdigit accepts these, and int() folds
    # some of them onto ASCII values, which would give one value two texts.
    @pytest.mark.parametrize(
        "bad, offset",
        [
            ("٣", 0),  # ARABIC-INDIC DIGIT THREE
            ("[1,٣]", 3),
            ("1٠", 1),  # ARABIC-INDIC DIGIT ZERO after an ASCII digit
            ("７", 0),  # FULLWIDTH DIGIT SEVEN
            ("²", 0),  # SUPERSCRIPT TWO: isdigit, but int() refuses it
            ("[¹,0]", 1),
        ],
    )
    def test_rejects_non_ascii_digits(self, bad, offset):
        with pytest.raises(ParseError) as info:
            parse(bad)
        assert info.value.offset == offset

    def test_error_offset(self):
        err = None
        try:
            parse("[1,[02,3]]")
        except ParseError as e:
            err = e
        assert err is not None and err.offset == 4


ALPHABET = "0123456789[], \t\r\n"
LONG = 10**5000 + 12345  # past int()'s 4,300-digit limit on str and int


def with_long_atoms():
    """Values in which a negative atom -k stands for LONG + k.

    Hypothesis cannot print an int past the digit limit, so the test
    widens the markers itself: see widen().
    """
    return st.recursive(
        st.integers(min_value=-3, max_value=10**30),
        lambda inner: st.tuples(inner, inner),
        max_leaves=20,
    )


def widen(x):
    if is_atom(x):
        return LONG - x if x < 0 else x
    return (widen(x[0]), widen(x[1]))


def outcome(fn, text):
    """What a parser makes of text: its value's canonical text, or the
    ParseError offset."""
    try:
        return ("value", _dumps_walk(fn(text)))
    except ParseError as e:
        return ("error", e.offset)


def mutated(text, data):
    """text after one to three random edits: insertions, deletions,
    replacements and spaces."""
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(["insert", "delete", "replace", "space"]))
        ch = data.draw(st.sampled_from(ALPHABET + "x-"))
        if kind == "insert":
            text = text[:i] + ch + text[i:]
        elif kind == "space":
            text = text[:i] + " " + text[i:]
        elif i < len(text):
            text = text[:i] + (ch if kind == "replace" else "") + text[i + 1 :]
    return text


def nested(depth, left):
    x = 0
    for i in range(depth):
        x = (x, i % 7) if left else (i % 7, x)
    return x


class TestLongAtoms:
    def test_round_trip(self):
        text = dumps(LONG)
        assert len(text) == 5001 and text.endswith("12345")
        assert parse(text) == LONG
        assert parse("1" * 5000) == (10**5000 - 1) // 9

    def test_leading_zeros_still_rejected(self):
        with pytest.raises(ParseError) as info:
            parse("[1,0" + "1" * 5000 + "]")
        assert info.value.offset == 3


class TestDifferential:
    """The C-backed codec against the explicit-stack walkers it falls back to."""

    @given(with_long_atoms())
    def test_dumps_matches_walker(self, x):
        x = widen(x)
        assert dumps(x) == _dumps_walk(x)
        assert equal(parse(dumps(x)), x)

    @settings(max_examples=500)
    @given(st.text(alphabet=ALPHABET, max_size=30))
    def test_parse_matches_walker_on_alphabet_text(self, text):
        assert outcome(parse, text) == outcome(_parse_walk, text)

    @settings(max_examples=500)
    @given(sexprs(), st.data())
    def test_parse_matches_walker_on_mutated_text(self, x, data):
        text = mutated(dumps(x), data)
        assert outcome(parse, text) == outcome(_parse_walk, text)

    @pytest.mark.parametrize("left", [True, False])
    def test_values_deeper_than_the_recursion_limit(self, left):
        x = nested(2 * sys.getrecursionlimit() + 10, left)
        text = dumps(x)
        assert text == _dumps_walk(x)
        assert equal(parse(text), x) and equal(_parse_walk(text), x)
        with pytest.raises(ParseError) as info:
            parse(text + "]")
        assert info.value.offset == len(text)

    def test_canonical_text_takes_the_c_path(self, monkeypatch):
        def refuse(_):
            raise AssertionError("fell back to the walker")

        monkeypatch.setattr(sexpr, "_dumps_walk", refuse)
        monkeypatch.setattr(sexpr, "_parse_walk", refuse)
        x = nested(200, left=False), nested(200, left=True)
        assert equal(parse(dumps(x)), x)
        assert parse(" [ 1 ,\t[ 2 ,\r\n0 ] ] ") == (1, (2, 0))


def json_text(x):
    """The reference for dumps: compact json.dumps."""
    return json.dumps(x, separators=(",", ":"))


def deep_text(depth, left):
    """The text json_text would give nested(depth, left) past the recursion limit."""
    if left:
        return "[" * depth + "0" + "".join(f",{i % 7}]" for i in range(depth))
    return "".join(f"[{i % 7}," for i in reversed(range(depth))) + "0" + "]" * depth


NON_VALUES = [True, -5, 1.5, None, (1, 2, 3), ()]


class TestDumpsAgainstJson:
    """dumps binds the C encoder json.dumps builds per call; it must write
    what json.dumps writes, and fall back to the walker where json cannot."""

    @given(sexprs())
    def test_values(self, x):
        assert dumps(x) == json_text(x)

    @pytest.mark.parametrize("bad", NON_VALUES, ids=repr)
    def test_non_values_write_json_and_are_still_refused(self, tmp_path, bad):
        assert dumps(bad) == json_text(bad)
        ds = DurableSystem.create(str(tmp_path / "s.log"), sync="none")
        ds.submit(creator(ECHO_PROGRAM))
        with pytest.raises(ValueError):
            ds.submit(poke(14, bad))
        ds.close()

    @pytest.mark.parametrize("left", [True, False])
    def test_a_value_past_the_recursion_limit(self, left):
        x = nested(200_000, left)
        assert dumps(x) == deep_text(200_000, left)

    def test_an_atom_past_the_digit_limit(self):
        x = (1, (LONG, 0))
        with pytest.raises(ValueError):
            json_text(x)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # 0: no limit
        try:
            want = json_text(x)
        finally:
            sys.set_int_max_str_digits(limit)
        assert dumps(x) == want

    def test_without_the_c_encoder(self, monkeypatch):
        # What dumps binds where the _json module is missing.
        monkeypatch.setattr(sexpr, "_c_encode", sexpr._encoder.iterencode)
        rng = random.Random(7)
        values = [random_sexpr(rng, 8) for _ in range(50)]
        for x in values + [nested(5000, True), (1, (LONG, 0))]:
            assert dumps(x) == _dumps_walk(x)
        for x in values:
            assert dumps(x) == json_text(x)


def split_values(text):
    """scan_split's reading of text with a and c turned into pairs, as a
    store reader turns what it keeps; None where either refuses."""
    split = scan_split(text)
    if split is None:
        return None
    a, (b_text, c) = split
    try:
        return (_pairs(a), (b_text, _pairs(c)))
    except ValueError:
        return None


class TestParseSplit:
    """scan_split, the splitter a store reader parses records with, leaves
    the b of [a,[b,c]] as text, checked as parse checks it, and a and c as
    the C scanner's lists."""

    @given(sexprs(), sexprs(), sexprs())
    def test_keeps_the_text_of_the_second_item(self, a, b, c):
        assert split_values(dumps((a, (b, c)))) == (a, (dumps(b), c))

    @settings(max_examples=1000)
    @given(sexprs(), sexprs(), sexprs(), st.data())
    def test_agrees_with_parse_on_mutated_text(self, a, b, c, data):
        text = mutated(dumps((a, (b, c))), data)
        split = split_values(text)
        if split is not None:
            head, (b_text, tail) = split
            assert parse(text) == (head, (parse(b_text), tail))
            assert dumps(parse(b_text)) == b_text

    @pytest.mark.parametrize(
        "text",
        [
            "[1,[[2,3],4]] ",  # whitespace: parse accepts it, but b_text would not be canonical
            "[1,[[2, 3],4]]",
            "[1,[2,3]",
            "[1,[2,3]]]",
            "[1,[2,3],4]",
            "[1,2]",
            "7",
            "",
            "0,[1,2]]",
            "[1,[[2,3,4],5]]",  # a list of three in b
            "[1,[[2],5]]",
            "[1,[[],5]]",
            "[1,[01,5]]",  # a leading zero ends b early
            "[1,[2,[3]]]",  # a list of one in c: _pairs refuses it
            "[[1],[2,3]]",  # and one in a
            "[1,[2,true]]",
            "[1,[-2,3]]",
        ],
    )
    def test_refuses_what_parse_must_handle(self, text):
        assert split_values(text) is None

    def test_leaves_the_lists_of_a_and_c_unchecked(self):
        assert scan_split("[[1],[2,[3]]]") == ([1], ("2", [3]))
        assert scan_split("[[1,2,3],[[4,5],[]]]") == ([1, 2, 3], ("[4,5]", []))

    def test_refuses_what_the_c_scanner_refuses(self):
        deep = nested(2 * sys.getrecursionlimit() + 10, left=False)
        assert scan_split(dumps((1, (deep, 0)))) is None
        assert scan_split(dumps((1, (0, deep)))) is None
        assert scan_split(dumps((1, (LONG, 0)))) is None


class TestPairs:
    @pytest.mark.parametrize("x", [7, (1, 2), ((1, 2), 3)])
    def test_ints_and_pairs_come_back_as_they_are(self, x):
        assert _pairs(x) is x


class TestCanonicalAlphabet:
    @given(sexprs())
    def test_accepts_all_that_dumps_writes(self, x):
        assert in_canonical_alphabet(dumps(x))

    @pytest.mark.parametrize("text", ["[1, 2]", "true", "-5", "1.5", "null", "\u0661", "[1,\n2]"])
    def test_refuses_anything_else(self, text):
        assert not in_canonical_alphabet(text)


class TestNodesArePairs:
    """check_value counts the pairs of a value, whose every node is an exact
    int of at least 0 or an exact 2-tuple, and refuses anything else."""

    @given(sexprs())
    def test_accepts_every_value(self, x):
        assert check_value(x) == dumps(x).count("[")

    def test_accepts_a_value_past_the_recursion_limit(self):
        x = 0
        for i in range(4 * sys.getrecursionlimit()):
            x = (x, i)
        assert check_value(x) == 4 * sys.getrecursionlimit()

    class Nat(int):
        pass

    @pytest.mark.parametrize(
        "x",
        [
            (1, 2, 3),
            (5,),
            (),
            ((1, (5,)), 0),
            (0, [1, 2, 3]),
            (1, True),
            (0, "ab"),
            [1, 2],  # a list in place of a pair, which dumps writes alike
            (1, [2, 3]),
            (1, -5),
            (-5, 1),
            (1.0, 2),
            (None, 0),
            (0, Nat(3)),
            (0, (1, 2, 3)),
            False,
            -1,
            None,
        ],
    )
    def test_refuses_other_arities_and_types(self, x):
        with pytest.raises(ValueError):
            check_value(x)

    def test_refuses_a_part_past_the_recursion_limit(self):
        for bad in ([1, 2], True, -1, (1, 2, 3)):
            x = bad
            for i in range(200_000):
                x = (i, x)
            with pytest.raises(ValueError):
                check_value(x)
