"""Divisor expression language: parsing, canonical formatting, error
positions, and the round-trip guarantee."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from osculant import (
    BareSectionSymbol,
    DivisorClass,
    ExprError,
    ExprSyntaxError,
    UnknownSymbol,
    ZERO,
    canonical_class,
    format_divisor,
    parse_divisor,
)
from osculant.lattice import C, F, R, S

import draw_oracle
import expr_oracle


def test_parse_reference_expressions():
    lam = parse_divisor("e*(4*Co + 3*So) - s0 - 3*r0 - 2*r1 - 2*r2 - 2*r3")
    assert lam == DivisorClass(4, 3, (-1, 0, 0, 0), (-3, -2, -2, -2))
    assert parse_divisor("K") == canonical_class()
    assert parse_divisor("e*(So) - s1 - r1") == \
        DivisorClass(0, 1, (0, -1, 0, 0), (0, -1, 0, 0))
    assert parse_divisor("0") == ZERO


def test_parse_is_whitespace_insensitive():
    a = parse_divisor(" e * ( 4 * Co + 3 * So ) - s0 ")
    b = parse_divisor("e*(4*Co+3*So)-s0")
    assert a == b == 4 * C + 3 * F - S[0]


def test_parse_grouping_and_coefficients():
    assert parse_divisor("2*(s0 + r0) - r0") == 2 * S[0] + R[0]
    assert parse_divisor("e*(2*(Co + So))") == 2 * C + 2 * F
    assert parse_divisor("-3*s2") == -3 * S[2]
    assert parse_divisor("s0 + s0") == 2 * S[0]
    assert parse_divisor("e*(0) + s3") == S[3]
    assert parse_divisor("-(s0 - r0)") == R[0] - S[0]


def test_error_positions():
    cases = [
        ("Co + s0", BareSectionSymbol, 0),
        ("e*(s0)", ExprSyntaxError, 3),
        ("s4", UnknownSymbol, 0),
        ("(s0", ExprSyntaxError, 3),
        ("K K", ExprSyntaxError, 2),
        ("3", ExprSyntaxError, 1),
        ("2*-s0", ExprSyntaxError, 2),
        ("", ExprSyntaxError, 0),
        ("0.5*s0", ExprSyntaxError, 1),
        ("e*(K)", ExprSyntaxError, 3),
        ("s0 - - r1", ExprSyntaxError, 5),
        ("e*()", ExprSyntaxError, 3),
    ]
    for text, exc, pos in cases:
        with pytest.raises(exc) as info:
            parse_divisor(text)
        assert info.value.position == pos, text


def test_rejects_other_malformed_input():
    for text in ("+", "++", "s0 +", "2*", "e*(Co", "4 Co", "2**s0", "s0)",
                 "e*(e*(Co))", "x", "e", "r9", "So + s0", "K*2"):
        with pytest.raises(ExprError):
            parse_divisor(text)


def test_format_reference_expressions():
    assert format_divisor(ZERO) == "0"
    assert format_divisor(F - S[0] - R[0]) == "e*(So) - s0 - r0"
    assert format_divisor(canonical_class()) == \
        "e*(-2*Co) + s0 + s1 + s2 + s3 + r0 + r1 + r2 + r3"
    lam = DivisorClass(4, 3, (-1, 0, 0, 0), (-3, -2, -2, -2))
    assert format_divisor(lam) == \
        "e*(4*Co + 3*So) - s0 - 3*r0 - 2*r1 - 2*r2 - 2*r3"


def test_format_sign_handling():
    assert format_divisor(R[1] - S[0]) == "-s0 + r1"
    assert format_divisor(-2 * C) == "e*(-2*Co)"
    assert format_divisor(C - F) == "e*(Co - So)"
    assert format_divisor(-C + 5 * F) == "e*(-Co + 5*So)"
    assert format_divisor(C) == "e*(Co)"
    assert format_divisor(-F) == "e*(-So)"
    assert format_divisor(-10 ** 6 * S[0]) == "-1000000*s0"
    assert format_divisor(DivisorClass(
        10 ** 6, -10 ** 6, (10 ** 6, 0, -10 ** 6, 1),
        (0, -1, 10 ** 6, -10 ** 6))) == (
        "e*(1000000*Co - 1000000*So) + 1000000*s0 - 1000000*s2 + s3 - r1 "
        "+ 1000000*r2 - 1000000*r3")


coeffs = st.integers(-50, 50)


@st.composite
def classes(draw):
    big = draw(st.booleans())
    scale = st.integers(-10**6, 10**6) if big else coeffs
    return DivisorClass(
        draw(scale), draw(scale),
        tuple(draw(scale) for _ in range(4)),
        tuple(draw(scale) for _ in range(4)))


@given(classes())
def test_round_trip(d):
    assert parse_divisor(format_divisor(d)) == d


@given(classes())
def test_format_is_idempotent(d):
    text = format_divisor(d)
    assert format_divisor(parse_divisor(text)) == text


def test_non_decimal_digit_is_a_syntax_error():
    # '²' passes str.isdigit but not str.isdecimal, and int() rejects it
    with pytest.raises(ExprSyntaxError) as info:
        parse_divisor("²*s0")
    assert info.value.position == 0
    with pytest.raises(ExprSyntaxError) as info:
        parse_divisor("s0 + 1²*r1")
    assert info.value.position == 6
    # other decimal digits are still INT runs
    assert parse_divisor("٣*s0") == 3 * S[0]


def test_literal_over_the_int_string_limit_is_a_syntax_error():
    digits = "1" * 4300
    assert parse_divisor(f"{digits}*s0") == int(digits) * S[0]
    for text, pos in ((f"1{digits}*s0", 0), (f"r0 - 1{digits}*s0", 5)):
        with pytest.raises(ExprSyntaxError) as info:
            parse_divisor(text)
        assert info.value.position == pos
        assert "4301 digits" in str(info.value)


# ---------------------------------------------------------------------------
# differential tests against the reference parser (tests/expr_oracle.py)


def _outcome(parse, text):
    """The parsed class, or (exception type, message, position)."""
    try:
        return parse(text)
    except ExprError as exc:
        return type(exc), str(exc), exc.position


_TOP = ("K", "s0", "s1", "s2", "s3", "r0", "r1", "r2", "r3")
_PULL = ("Co", "So")


def _sum_text(draw, atoms, depth):
    """A sum of 1..3 terms over ``atoms``, maybe with a unary minus;
    terms nest groups and (at top level) e*(...) down to ``depth``."""
    parts = [_term_text(draw, atoms, depth)
             for _ in range(draw(st.integers(1, 3)))]
    text = "-" + parts[0] if draw(st.booleans()) else parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + part
    return text


def _term_text(draw, atoms, depth):
    mult = draw(st.sampled_from(["", "", "2*", "13*", "0*", "1000000*"]))
    kinds = ["atom", "zero"]
    if depth:
        kinds += ["group"] if atoms is _PULL else ["group", "pull"]
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return "0"
    if kind == "group":
        return mult + "(" + _sum_text(draw, atoms, depth - 1) + ")"
    if kind == "pull":
        return mult + "e*(" + _sum_text(draw, _PULL, depth - 1) + ")"
    return mult + draw(st.sampled_from(atoms))


@st.composite
def nested_texts(draw):
    return _sum_text(draw, _TOP, draw(st.integers(0, 3)))


_SOUP = st.lists(st.sampled_from(
    ["K", "s0", "s3", "r1", "r4", "Co", "So", "e", "x", "0", "2", "10",
     "+", "-", "*", "(", ")", " ", "e*(", "0.5", "_", "s", "r"]),
    max_size=12).map("".join)


@given(classes())
def test_parse_matches_reference_on_formatted_classes(d):
    text = format_divisor(d)
    assert parse_divisor(text) == expr_oracle.parse(text) == d


@given(nested_texts())
@settings(max_examples=300)
def test_parse_matches_reference_on_nested_sums(text):
    assert _outcome(parse_divisor, text) == _outcome(expr_oracle.parse, text)


@given(_SOUP | st.text(alphabet="Ksre0123456789+-*() CoS_x.", max_size=16))
@settings(max_examples=500)
def test_parse_matches_reference_on_token_soups(text):
    assert _outcome(parse_divisor, text) == _outcome(expr_oracle.parse, text)


# a wrong kind of object is a TypeError naming the expected type, never
# an AttributeError from deep inside the parser or the formatter
@pytest.mark.parametrize("bad", [3, None, b"s0", ["s0"]], ids=repr)
def test_parse_needs_a_str(bad):
    with pytest.raises(TypeError, match="parse takes a str"):
        parse_divisor(bad)


@pytest.mark.parametrize("bad", [3, "s0", None, (1, 0, 0, 0)], ids=repr)
def test_format_needs_a_divisor_class(bad):
    with pytest.raises(TypeError, match="format takes a DivisorClass"):
        format_divisor(bad)


def test_format_rejects_a_quotient_class():
    from osculant import section_image
    with pytest.raises(TypeError, match="got QuotientClass"):
        format_divisor(section_image())


# ---------------------------------------------------------------------------
# differential tests against the reference formatter (tests/expr_oracle.py)


_FORMAT_EDGES = (
    ZERO, C, -C, F, -F, 3 * C, -7 * F, C + F, -C - F,
    S[0], -S[0], R[3], -R[3], -S[2] + R[1], -R[0] - R[1],
    DivisorClass(1, -1, (1, -1, 1, -1), (-1, 1, -1, 1)),
    DivisorClass(10 ** 6, -10 ** 6, (10 ** 6, 0, -10 ** 6, 1),
                 (0, -1, 10 ** 6, -10 ** 6)),
    DivisorClass(-10 ** 6, 0, (0, 0, 0, 0), (0, 0, 0, 10 ** 6)),
    DivisorClass(0, 0, (-10 ** 6, 0, 0, 0), (0, 0, 0, 0)),
    DivisorClass(0, -1, (0, 0, 0, 0), (0, 0, 0, -1)),
)


@pytest.mark.parametrize("d", _FORMAT_EDGES, ids=expr_oracle.format)
def test_format_matches_reference_on_edges(d):
    assert format_divisor(d) == expr_oracle.format(d)
    assert parse_divisor(format_divisor(d)) == d


def test_format_matches_reference_on_seeded_classes():
    rng = random.Random(0)
    for _ in range(10_000):
        d = draw_oracle.random_class(rng)
        text = format_divisor(d)
        assert text == expr_oracle.format(d)
        assert parse_divisor(text) == d
