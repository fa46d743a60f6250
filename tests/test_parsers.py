"""Property test of the parsers of outside text: on any input, each returns
a value or raises ValueError, never another exception."""

import pytest

from arccodes import geometry as geo
from arccodes.codes import GeneratorMatrix
from arccodes.field import field_from_order, parse_descriptor, parse_key_values
from arccodes.opoly import parse_opoly_descriptor

# digits, the letters and signs of the text forms, whitespace and a non-ASCII digit
ALPHABET = "0123456789qpmod=,:^g-_+ \t\n\u0663"

F8, F16 = field_from_order(8), field_from_order(16)

PARSERS = {
    # a valid header in front of some inputs, so that rows are parsed too
    "GeneratorMatrix.from_text": (("", "q=4 p=2 m=2 mod=1,1,1\n"), GeneratorMatrix.from_text),
    "parse_descriptor": (("", "p=2 m=3 "), parse_descriptor),
    "parse_key_values": (("",), parse_key_values),
    "parse_opoly_descriptor": (("", "translation:", "subiaco:", "adelaide:", "custom:coeffs="),
                               lambda text: parse_opoly_descriptor(F16, text)),
    "point_from_str": (("",), lambda text: geo.point_from_str(F8, text)),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_parser_raises_only_value_error(name):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    prefixes, parse = PARSERS[name]

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(prefixes), st.text(ALPHABET, max_size=40))
    def check(prefix, text):
        try:
            parse(prefix + text)
        except ValueError:
            pass

    check()
