from fractions import Fraction

import pytest

from distsym.errors import EmptyInputError, ParseError
from distsym.parsing import (
    parse_point_set,
    parse_scalar_set,
    parse_scalar_token,
    point_set_to_text,
    scalar_set_to_text,
)
from distsym.planar import PlanarPointSet
from distsym.scalar_sets import ScalarSet


def test_parse_scalar_tokens():
    assert parse_scalar_token("42") == 42
    assert parse_scalar_token("-7") == -7
    assert parse_scalar_token("+3") == 3
    assert parse_scalar_token("1/3") == Fraction(1, 3)
    assert parse_scalar_token("-6/4") == Fraction(-3, 2)
    assert parse_scalar_token("4/2") == 2


def test_parse_scalar_token_rejects_garbage():
    for bad in ("", "1.5", "a", "1/0", "1//2", "1 2"):
        with pytest.raises(ParseError):
            parse_scalar_token(bad)


def test_parse_scalar_set_with_comments_and_blanks():
    text = "# header\n\n3\n-1/2\n\n# trailing\n7\n"
    assert parse_scalar_set(text).elements == (Fraction(-1, 2), 3, 7)


def test_parse_point_set():
    p = parse_point_set("0 0\n1/2 -3\n")
    assert p.points == ((0, 0), (Fraction(1, 2), -3))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_scalar_set("1\nbogus\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_point_set("# comment\n0 0\n1\n")
    assert "line 3" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_point_set("0 0\n1 x\n")
    assert "line 2" in str(e.value)


def test_empty_content_raises():
    with pytest.raises(EmptyInputError):
        parse_scalar_set("# nothing here\n\n")
    with pytest.raises(EmptyInputError):
        parse_point_set("")


def test_round_trips():
    s = ScalarSet([Fraction(1, 3), -2, 5])
    assert parse_scalar_set(scalar_set_to_text(s)) == s
    p = PlanarPointSet([(0, Fraction(-7, 2)), (3, 4)])
    assert parse_point_set(point_set_to_text(p)) == p


def test_serialised_text_is_sorted_and_newline_terminated():
    text = scalar_set_to_text(ScalarSet([5, -2]))
    assert text == "-2\n5\n"
    ptext = point_set_to_text(PlanarPointSet([(1, 2), (0, 9)]))
    assert ptext == "0 9\n1 2\n"
