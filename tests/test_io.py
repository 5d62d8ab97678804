from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipencil import io
from bipencil.errors import InputFormatError, PreconditionError
from bipencil.io import entries_to_field
from bipencil.scalars import QQi, format_scalar, lambda_key, parse_rational

from oracles import pencilfile

BAD_EXPONENTS = [True, -1, 1.5, "x", "wrong length"]
# forms that parse_rational reads besides str(Fraction), by the value they hold
COEFFICIENT_FORMS = {Fraction(3): [" 3 "], Fraction(1, 2): ["+1/2", "2/4", "0.5"],
                     Fraction(0): ["-0"]}


def _outcome(parse, dim, data):
    """Each upper entry's terms in their order, or the error's message and position."""
    try:
        f = parse(dim, None, data, "P0")
    except InputFormatError as exc:
        return "error", str(exc), exc.position
    return [(ij, list(poly.terms.items())) for ij, poly in f.upper_entries().items()]


def _exponent(draw, e):
    """e as a JSON number, a digit string or an integral float."""
    return draw(st.sampled_from([e, str(e), float(e)]))


def _coefficient(draw, c):
    """c as str(c) or as another string that parse_rational reads as c."""
    return draw(st.sampled_from([str(c), *COEFFICIENT_FORMS.get(c, [])]))


@st.composite
def pencil_entries(draw):
    """(dim, entries) of one pencil block: terms drawn from two or three
    monomials, their coefficients written in any form parse_rational reads,
    a third of them cancelling what their monomial has summed to so far, so
    that an entry is often absent and a monomial often comes back after it
    cancelled; and at most one bad exponent vector planted."""
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 2)] * dim), min_size=1, max_size=3))
    upper = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    entries = []
    for i, j in draw(st.lists(st.sampled_from(upper), unique=True)) if upper else []:
        terms, sums = [], {}
        for _ in range(draw(st.integers(0, 6))):
            mono = draw(st.sampled_from(pool))
            c = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(3),
                                      Fraction(0)]))
            if sums.get(mono) and draw(st.integers(0, 2)) == 0:
                c = -sums[mono]
            sums[mono] = sums.get(mono, 0) + c
            terms.append({"c": _coefficient(draw, c), "m": [_exponent(draw, e) for e in mono]})
        entries.append({"i": i, "j": j, "poly": terms})
    terms = [t for ent in entries for t in ent["poly"]]
    if terms and draw(st.booleans()):
        term, bad = draw(st.sampled_from(terms)), draw(st.sampled_from(BAD_EXPONENTS))
        term["m"] = term["m"] + [0] if bad == "wrong length" else [bad] + term["m"][1:]
    return dim, entries


@settings(max_examples=200, deadline=None)
@given(pencil_entries())
def test_one_pass_parse_matches_the_poly_sum(case):
    dim, entries = case
    assert _outcome(entries_to_field, dim, entries) == _outcome(
        pencilfile.entries_to_field, dim, entries)


def test_cancelled_entry_is_absent_and_repeats_add_up():
    data = [{"i": 1, "j": 2, "poly": [{"c": "1", "m": ["1", 0, 0]},
                                      {"c": "-1", "m": [1.0, "0", 0]}]},
            {"i": 1, "j": 3, "poly": [{"c": "1/2", "m": [0, 1, 0]}, {"c": "1", "m": [1, 0, 0]},
                                      {"c": "1/2", "m": ["0", "1", "0"]}]}]
    f = entries_to_field(3, None, data, "P0")
    assert list(f.upper_entries()) == [(0, 2)]
    assert list(f.entry(0, 2).terms.items()) == [((0, 1, 0), 1), ((1, 0, 0), 1)]
    assert _outcome(entries_to_field, 3, data) == _outcome(pencilfile.entries_to_field, 3, data)


def test_each_coefficient_is_parsed_once_and_kept_as_parsed(monkeypatch):
    parsed = []

    def spy(text):
        parsed.append(parse_rational(text))
        return parsed[-1]

    monkeypatch.setattr(io, "parse_rational", spy)
    data = [{"i": 1, "j": 2, "poly": [{"c": "1/2", "m": [1, 0, 0]},
                                      {"c": "0.5", "m": [0, 1, 0]}]},
            {"i": 1, "j": 3, "poly": [{"c": "-3", "m": [0, 0, 0]}]}]
    f = entries_to_field(3, None, data, "P0")
    held = [c for poly in f.upper_entries().values() for c in poly.terms.values()]
    assert len(parsed) == 3 and all(c is p for c, p in zip(held, parsed, strict=True))


@pytest.mark.parametrize("bad, message", [
    (True, "bad monomial at P0[0].poly[1]: not an integer: True"),
    (-1, "exponent vector must have length dim and be non-negative at P0[0].poly[1]"),
    (1.5, "bad monomial at P0[0].poly[1]: not an integer: 1.5"),
    ("x", "bad monomial at P0[0].poly[1]: invalid literal for int() with base 10: 'x'"),
    ("wrong length", "exponent vector must have length dim and be non-negative at P0[0].poly[1]"),
])
def test_bad_exponent_keeps_its_message_and_position(bad, message):
    m = [0, 0, 0] if bad == "wrong length" else [bad, 0]
    data = [{"i": 1, "j": 2, "poly": [{"c": "1", "m": [0, 0]}, {"c": "1", "m": m}]}]
    want = ("error", message, "P0[0].poly[1]")
    assert _outcome(entries_to_field, 2, data) == want
    assert _outcome(pencilfile.entries_to_field, 2, data) == want


def _entry(ent):
    """A dim-3 block whose entry P0[1] is ``ent``."""
    return [{"i": 1, "j": 2, "poly": [{"c": "1", "m": [0, 0, 0]}]}, ent]


def _term(term):
    """A dim-3 block whose monomial P0[1].poly[1] is ``term``."""
    return _entry({"i": 2, "j": 3, "poly": [{"c": "1", "m": [1, 0, 0]}, term]})


@pytest.mark.parametrize("data, message, position", [
    ({"i": 1, "j": 2}, "'P0' must be a list", "P0"),
    (_entry({"j": 3}), "bad indices at P0[1]: 'i'", "P0[1]"),
    (_entry({"i": 1}), "bad indices at P0[1]: 'j'", "P0[1]"),
    (_entry({"i": 1.5, "j": 3}), "bad indices at P0[1]: not an integer: 1.5", "P0[1]"),
    (_entry({"i": 1, "j": True}), "bad indices at P0[1]: not an integer: True", "P0[1]"),
    (_entry({"i": "x", "j": 3}),
     "bad indices at P0[1]: invalid literal for int() with base 10: 'x'", "P0[1]"),
    (_entry(5), "bad indices at P0[1]: 'int' object is not subscriptable", "P0[1]"),
    (_entry({"i": 0, "j": 3}), "entry indices must satisfy 1 <= i < j <= dim at P0[1]", "P0[1]"),
    (_entry({"i": 2, "j": 4}), "entry indices must satisfy 1 <= i < j <= dim at P0[1]", "P0[1]"),
    (_entry({"i": 3, "j": 2}), "entry indices must satisfy 1 <= i < j <= dim at P0[1]", "P0[1]"),
    (_entry({"i": "1", "j": 2.0}), "duplicate entry (1, 2) at P0[1]", "P0[1]"),
    (_entry({"i": 2, "j": 3, "poly": 5}), "'P0[1].poly' must be a list", "P0[1].poly"),
    (_entry({"i": 2, "j": 3, "poly": {"c": "1", "m": [0, 0, 0]}}),
     "'P0[1].poly' must be a list", "P0[1].poly"),
    (_term({"m": [0, 1, 0]}), "bad monomial at P0[1].poly[1]: 'c'", "P0[1].poly[1]"),
    (_term({"c": "1"}), "bad monomial at P0[1].poly[1]: 'm'", "P0[1].poly[1]"),
    (_term(5), "bad monomial at P0[1].poly[1]: 'int' object is not subscriptable",
     "P0[1].poly[1]"),
    (_term({"c": "x", "m": [0, 1, 0]}),
     "bad monomial at P0[1].poly[1]: Invalid literal for Fraction: 'x'", "P0[1].poly[1]"),
    (_term({"c": None, "m": [0, 1, 0]}),
     "bad monomial at P0[1].poly[1]: Invalid literal for Fraction: 'None'", "P0[1].poly[1]"),
    (_term({"c": "1/0", "m": [0, 1, 0]}),
     "bad monomial at P0[1].poly[1]: zero denominator in '1/0'", "P0[1].poly[1]"),
    (_term({"c": True, "m": [0, 1, 0]}),
     "bad monomial at P0[1].poly[1]: not a rational: True", "P0[1].poly[1]"),
    (_term({"c": "1", "m": 5}), "'P0[1].poly[1].m' must be a list", "P0[1].poly[1].m"),
    (_term({"c": "1", "m": "010"}), "'P0[1].poly[1].m' must be a list", "P0[1].poly[1].m"),
    (_term({"c": "x", "m": 5}),
     "bad monomial at P0[1].poly[1]: Invalid literal for Fraction: 'x'", "P0[1].poly[1]"),
])
def test_every_entry_error_keeps_its_message_and_position(data, message, position):
    """Each InputFormatError the parse raises, the exponent errors aside
    (above), is the oracle's, in message and position."""
    want = ("error", message, position)
    assert _outcome(entries_to_field, 3, data) == want
    assert _outcome(pencilfile.entries_to_field, 3, data) == want


def test_a_decimal_exponent_is_read_up_to_4300_in_magnitude():
    # int() reads at most 4300 digits from a string by default; an exponent
    # beyond that is refused before any power of 10 is formed, and 1e4300,
    # whose numerator str() could not write back, after it
    with pytest.raises(ValueError, match="1e4300 has more than 4300 digits"):
        parse_rational("1e4300")
    assert parse_rational("-2.5E-4300") == Fraction(-25, 10 ** 4301)
    for text, exponent in (("1e4301", "4301"), ("1E-4301", "-4301"),
                           ("1e10000000", "10000000"), ("-1E-10000000", "-10000000")):
        with pytest.raises(ValueError, match=f"decimal exponent {exponent} exceeds 4300"):
            parse_rational(text)


def test_a_rational_is_read_and_written_up_to_4300_digits():
    # 10^4300 has 4301 digits: str() cannot write it, so parse_rational
    # refuses it as numerator or denominator, and format_scalar and lambda_key
    # refuse it as a PreconditionError, which the CLI reports with exit 2
    for text in ("-1E-4300", "25e4299", "-2.5e+4300", "0.5E-4300"):
        with pytest.raises(ValueError, match="has more than 4300 digits in its numerator"):
            parse_rational(text)
    for text, value in (("9.999e4299", Fraction(9999 * 10 ** 4296)),
                        ("-1e-4299", Fraction(-1, 10 ** 4299))):
        assert parse_rational(text) == value
        assert format_scalar(value) == str(value)
    for value in (Fraction(10 ** 4300), Fraction(-1, 10 ** 4300), QQi(1, Fraction(1, 10 ** 4300))):
        with pytest.raises(PreconditionError, match="cannot write a rational of more than 4300"):
            format_scalar(value)
        with pytest.raises(PreconditionError, match="cannot write a rational of more than 4300"):
            lambda_key(value)
