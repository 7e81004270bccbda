"""Parser fuzzing: any text given to ``parse_arrangement`` or
``parse_incidence`` either parses or raises InputError, nothing else.

The text mixes the header and body tokens of both file formats, near
misses of them, and arbitrary short strings."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnorfiber import geometry
from milnorfiber.bounds import parse_incidence
from milnorfiber.geometry import InputError, parse_arrangement

HEADER_TOKENS = [
    "projective", "affine", "incidence", "Projective", "N=3", "N=2", "N=0", "N=-1", "N=400",
    "N=", "N=x", "m=2", "m=3", "m=", "m=-1", "lines=0,1", "lines=0,1,2", "lines=2,1",
    "lines=", "lines=0,,1", "lines=-1,0", "lines=0,0", "lines=0,9",
]
NUMBER_TOKENS = [
    "0", "1", "-1", "2", "7", "3/2", "-4/6", "1/0", "0/0", "1/-2", "1e3", "1E-2", "1.5",
    "inf", "nan", "+7", "1_0", "x", "/", "--1", "٣", "9" * 5000,
]
SEPARATORS = [" ", "\t", "#", "# note", "\r", "=", ",", "\x00"]

token = st.one_of(
    st.sampled_from(HEADER_TOKENS + NUMBER_TOKENS + SEPARATORS),
    st.text(max_size=4),
)
line = st.builds(lambda parts, sep: sep.join(parts),
                 st.lists(token, max_size=5), st.sampled_from([" ", "", ",", "  "]))
document = st.lists(line, max_size=8).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(document)
def test_parsers_raise_only_input_error(text):
    for parse in (parse_arrangement, parse_incidence):
        try:
            parse(text)
        except InputError:
            pass


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["projective", "affine", "incidence N=4"]), st.lists(line, max_size=6))
def test_parsers_raise_only_input_error_after_a_valid_header(header, body):
    text = "\n".join([header] + body)
    for parse in (parse_arrangement, parse_incidence):
        try:
            parse(text)
        except InputError:
            pass


def outcome(read, token):
    try:
        value = read(token)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return value, None


# pieces of number tokens: signs, separators, ASCII, Arabic-Indic, fullwidth
# and NKo digits, and digit runs on both sides of the 4300-digit limit
TOKEN_PIECES = st.one_of(
    st.text(alphabet="+-_/.0123456789\u0663\uff17\u07c0 ", max_size=8),
    st.integers(4290, 4310).map(lambda k: "9" * k),
    st.integers(4290, 4310).map(lambda k: "1_" + "0" * k),
)


@settings(max_examples=600, deadline=None)
@given(st.lists(TOKEN_PIECES, min_size=1, max_size=3).map("".join))
@example("1_0")
@example("-1_000/3")
@example("7" * 4301)
@example("1/0")
@example("\u0663/\uff17")
def test_token_reads_as_fraction_does(token):
    # same value, or the same exception type and message, on every Python
    assert outcome(geometry._rational, token) == outcome(Fraction, token)


def test_underscore_tokens_read_through_fraction(monkeypatch):
    # Python 3.10's Fraction refuses "1_0", which int reads as 10; the rule
    # holds on every Python, not only where the two readers differ
    seen = []
    monkeypatch.setattr(geometry, "Fraction", lambda token: seen.append(token) or Fraction(token))
    assert outcome(geometry._rational, "1_0") == outcome(Fraction, "1_0")
    assert outcome(geometry._rational, "-7") == (-7, None)
    assert seen == ["1_0"]
