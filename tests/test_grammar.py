"""Expression grammar: parsing, formatting, round trips, error offsets."""

import pytest

from thresholdlab import (
    Consecutive,
    KOutOfN,
    ParseError,
    Product,
    availability,
    format_expr,
    parse_expr,
)
from thresholdlab.grammar import MAX_DEPTH

from conftest import FIXTURES


def test_parse_kofn_and_sugar():
    assert parse_expr("kofn(2,3)") == KOutOfN(2, 3)
    assert parse_expr("series(3)") == KOutOfN(1, 3)
    assert parse_expr("parallel(3)") == KOutOfN(3, 3)
    assert parse_expr("series(1)") == parse_expr("parallel(1)") == KOutOfN(1, 1)


def test_parse_whitespace_insignificant():
    assert parse_expr(" prod( parallel( 2 ) ,\tseries( 3 ) ) ") == Product(
        KOutOfN(2, 2), KOutOfN(1, 3)
    )


def test_parse_consec_default_topology():
    assert parse_expr("consec(2,5)") == Consecutive(2, 5, "circular")
    assert parse_expr("consec(2,5,linear)") == Consecutive(2, 5, "linear")


def test_parse_explicit():
    expr = parse_expr("explicit(2; 10, 01, 11)")
    assert expr.n == 2
    assert expr.members == frozenset({(1, 0), (0, 1), (1, 1)})


def test_parse_nested_product():
    expr = parse_expr("prod(prod(series(2),parallel(2)),series(5))")
    assert expr.n == 20


def test_nesting_depth_cap():
    def nested(depth):
        return "prod(" * depth + "series(1)" + ",series(1))" * depth

    deepest = parse_expr(nested(MAX_DEPTH))
    assert parse_expr(format_expr(deepest)) == deepest
    assert availability(deepest, 0.3).value == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ParseError) as info:
        parse_expr(nested(MAX_DEPTH + 1))
    assert info.value.offset == len("prod(") * MAX_DEPTH


@pytest.mark.parametrize(
    "text,offset_predicate",
    [
        ("kofn(2;3)", lambda o: o == 6),            # ';' where ',' expected
        ("kofn(2,3) junk", lambda o: o == 10),      # trailing input
        ("mystery(2)", lambda o: o == 0),           # unknown head
        ("kofn(,3)", lambda o: o == 5),             # missing integer
        ("consec(2,5,diagonal)", lambda o: o == 11),
        ("explicit(3;10)", lambda o: o == 11),      # bitstring too short
        ("explicit(2;10)", lambda o: o == 0),       # not up-closed
        ("kofn(0,3)", lambda o: o == 0),            # trivial structure
        ("", lambda o: o == 0),
    ],
)
def test_parse_errors_carry_offsets(text, offset_predicate):
    with pytest.raises(ParseError) as info:
        parse_expr(text)
    assert offset_predicate(info.value.offset), (text, info.value.offset)


@pytest.mark.parametrize("expr", FIXTURES, ids=lambda e: type(e).__name__ + str(e.n))
def test_format_parse_round_trip(expr):
    again = parse_expr(format_expr(expr))
    assert again == expr
    for p in (0.0, 0.2, 0.5, 0.8, 1.0):
        assert availability(again, p).value == availability(expr, p).value


def test_format_uses_sugar():
    assert format_expr(KOutOfN(1, 3)) == "series(3)"
    assert format_expr(KOutOfN(3, 3)) == "parallel(3)"
    assert format_expr(KOutOfN(1, 1)) == "kofn(1,1)"
    assert format_expr(KOutOfN(2, 3)) == "kofn(2,3)"
