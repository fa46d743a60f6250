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


# -- the command line: every subcommand, flags drawn with good and bad values

MALFORMED = ["", "+7", "1_0", "\u0667", "-1", "0", "g^", "x", "points:1:0:0;1:0:0",
             "custom:coeffs=", "adelaide:t=0", "70000"]
ORDERS = ["2", "3", "4", "5", "8", "9", "11", "16", "27", "32"]  # valid orders stay <= 32
OPOLY = ["translation:h=1", "translation:h=2", "segre", "glynn1", "subiaco", "adelaide",
         "custom:coeffs=0,0,1", "custom:coeffs=1,1"]
ELEMENT = ["1", "3", "7", "g^1", "g^5"]
COUNT = ["1", "2", "3", "6", "9"]
FORMAT = {"--format": ["table", "json"]}
FIELD = {"--modulus": ["1,1,1", "1,1,0,1", "2,2,1", "1,0,1"], "--p": ["2", "3"],
         "--m": ["1", "2", "3"], **FORMAT}
CLI = {  # subcommand -> (required flags, optional flags); values None for a switch,
    # and the required flag "" is one of the switches listed as its values
    "field-info": ({}, {**FIELD, "--powers": None}),
    "opoly-check": ({"--opoly": OPOLY}, {**FIELD, "--powers": None}),
    "construct": ({"": ["--even", "--odd"]},
                  {**FIELD, "--odd": None, "--opoly": OPOLY, "--v": ELEMENT, "--w": ELEMENT,
                   "--powers": None}),
    "census": ({"": ["--even-A1", "--even-A2", "--odd-B1", "--odd-B2"]},
               {**FIELD, "--even-A1": None, "--odd-B2": None, "--opoly": OPOLY, "--v": ELEMENT,
                "--w": ELEMENT}),
    "analyze": ({}, FORMAT),
    "locality": ({}, FORMAT),
    "bounds": ({"--n": COUNT, "--k": COUNT, "--d": COUNT, "--r": COUNT}, FORMAT),
    "search": ({}, {**FIELD, "--powers": None, "--strategy": ["dfs", "greedy-restart"],
                    "--base": ["hyperoval", "hyperoval:segre", "oval",
                               "points:1:0:0;0:1:0;0:0:1"],
                    "--target": ["5", "9", "12"], "--seed": ["0", "3"],
                    "--restarts": ["1", "4"]}),
}
MATRICES = {  # the positional matrix file of analyze and locality
    "golden.txt": "q=4 p=2 m=2 mod=1,1,1\n1 0 0 1 1 1\n0 1 0 1 2 3\n0 0 1 1 3 2\n",
    "frame.txt": "q=5 p=5 m=1 mod=0,1\n1 0 0 1\n0 1 0 1\n0 0 1 1\n",
    "wide.txt": "q=3 p=3 m=1 mod=0,1\n1 0 0 0 1\n0 1 0 0 1\n0 0 1 0 1\n0 0 0 1 1\n",
    "proportional.txt": "q=5 p=5 m=1 mod=0,1\n1 2 0 0\n0 0 1 0\n0 0 0 1\n",
    "bad-header.txt": "q=+7 p=7 m=1 mod=0,1\n1 0 0\n0 1 0\n0 0 1\n",
}


@pytest.mark.parametrize("command", sorted(CLI))
def test_cli_exits_with_a_documented_code(command, tmp_path, capsys):
    """On any argv drawn from a subcommand's flags, `main` returns 0, 2, 3 or
    4, or argparse exits with 2; no other exception escapes."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from arccodes.cli import main

    for name, text in MATRICES.items():
        (tmp_path / name).write_text(text)
    paths = [str(tmp_path / name) for name in (*MATRICES, "missing.txt")]

    def value(valid):  # valid three times in four, else a malformed token
        return st.one_of(st.sampled_from(MALFORMED), *[st.sampled_from(valid)] * 3)

    def option(flag, valid):
        if valid is None:
            return st.just([flag])
        if not flag:
            return st.sampled_from(valid).map(lambda switch: [switch])
        return value(valid).map(lambda v: [flag, v])

    required, optional = CLI[command]
    if command in ("analyze", "locality"):
        head = value(paths).map(lambda path: [path])
    elif command == "bounds":
        head = st.just([])
    else:
        head = value(ORDERS).map(lambda q: ["--q", q])
    parts = st.tuples(head, *(option(flag, valid) for flag, valid in required.items()),
                      st.lists(st.sampled_from(sorted(optional))
                               .flatmap(lambda flag: option(flag, optional[flag])), max_size=3))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(parts)
    def check(drawn):
        *fixed, extra = drawn
        argv = [command] + [token for part in fixed + extra for token in part]
        if command == "search":
            argv += ["--max-nodes", "200", "--max-seconds", "5"]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
            assert code == 2, argv
        else:
            assert code in (0, 2, 3, 4), argv
        capsys.readouterr()

    check()
