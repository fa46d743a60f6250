import json
import subprocess
import sys
from pathlib import Path

import pytest

import arccodes
from arccodes import cli
from arccodes.cli import COMMANDS, build_parser, main
from arccodes.codes import nmds_closed_form
from arccodes.field import make_field
from arccodes.fixtures import GOLDEN_Q4_EVEN, GOLDEN_Q9_ODD
from conftest import dual_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out.strip() else None), err


def _parse_outcome(capsys, call):
    """(exit code, stdout, stderr) of a call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        call()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


PARSER_ARGVS = ([[], ["--help"], ["no-such-command"], ["verify-paper", "extra"],
                 ["bounds", "--n", "3"]]
                + [[name, "--help"] for name in COMMANDS]
                + [[name, "--no-such-flag"] for name in COMMANDS])


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-argument")
def test_one_command_parser_reads_as_the_full_parser(capsys, monkeypatch, argv):
    """main builds the named command's parser alone, and argparse's help and
    errors read as with every command built."""
    built = []

    def spy(command=None):
        built.append(command)
        return build_parser(command)
    monkeypatch.setattr(cli, "build_parser", spy)
    got = _parse_outcome(capsys, lambda: main(argv))
    assert got == _parse_outcome(capsys, lambda: build_parser().parse_args(argv))
    assert built == [argv[0] if argv and argv[0] in COMMANDS else None]


def test_one_command_parser_holds_that_command_only():
    def names(parser):
        return list(parser._subparsers._group_actions[0].choices)
    assert names(build_parser()) == list(COMMANDS)
    assert all(names(build_parser(name)) == [name] for name in COMMANDS)


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--q", "9")
    assert code == 0
    assert "p=3 m=2 mod=2,2,1" in out


def test_field_info_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "field-info", "--q", "12")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (["--p", "2", "--m", "0"], "m=0 must be >= 1"),
    (["--q", "0"], "q=0 is not a prime power"),
    (["--p", "0"], "p=0 is not prime"),
])
def test_field_info_zero_parameters_rejected(capsys, argv, message):
    code, out, err = run(capsys, "field-info", *argv)
    assert code == 2 and not out and message in err


@pytest.mark.parametrize("argv", [
    ["field-info", "--p", "3", "--m", "100000000"],
    ["field-info", "--p", "1000000000000000003"],
    ["field-info", "--p", "2", "--m", "99999999999"],
    ["field-info", "--q", "2305843009213693951"],
    ["analyze", "HUGE"],
])
def test_huge_field_parameters_exit_promptly(tmp_path, argv):
    matrix = tmp_path / "huge.txt"
    matrix.write_text("p=3 m=100000000 mod=1,1\n1 0 0\n")
    argv = [str(matrix) if a == "HUGE" else a for a in argv]
    src = str(Path(arccodes.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-m", "arccodes.cli", *argv], cwd=src,
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 2 and "exceeds the supported range" in out.stderr


def test_search_above_the_plane_limit_exits_promptly():
    src = str(Path(arccodes.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-m", "arccodes.cli", "search", "--q", "65536",
                          "--max-nodes", "1"], cwd=src, capture_output=True, text=True,
                         timeout=30)
    assert out.returncode == 2 and not out.stdout
    assert "q=65536" in out.stderr and "q=1024" in out.stderr


def test_opoly_check(capsys):
    code, out, _ = run(capsys, "opoly-check", "--q", "8", "--opoly", "segre")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "opoly-check", "--q", "4", "--opoly", "custom:coeffs=0,1")
    assert code == 3 and "FAIL" in out
    code, _, _ = run(capsys, "opoly-check", "--q", "4", "--opoly", "segre")
    assert code == 2  # inapplicable family
    # f(0) != 0 is a failed verdict, not invalid input
    code, out, err = run(capsys, "opoly-check", "--q", "8", "--opoly", "custom:coeffs=1,1")
    assert (code, out, err) == (3, "custom:coeffs=1,1 over q=8: FAIL (f(0)=0, witness=0)\n", "")
    code, data, err = run_json(capsys, "opoly-check", "--q", "8", "--opoly", "custom:coeffs=1")
    assert code == 3 and not err
    assert (data["is_o_polynomial"], data["two_to_one_with_linear"]) == (False, False)


NEEDS_COEFFS = "error: custom: needs coeffs=c0,c1,...\n"


@pytest.mark.parametrize("text, expected", [
    ("custom", (2, "", NEEDS_COEFFS)),
    ("custom:", (2, "", NEEDS_COEFFS)),
    ("custom:h=1", (2, "", NEEDS_COEFFS)),
    ("custom:h=1,coeffs=0,1", (2, "", NEEDS_COEFFS)),
    ("custom:coeffs=", (2, "", "error: bad field element '': expected an index, g or g^e\n")),
    ("custom:coeffs=0,0,1", (0, "custom:coeffs=0,0,1 over q=4: PASS\n", "")),
    ("custom:coeffs=1,1", (3, "custom:coeffs=1,1 over q=4: FAIL (f(0)=0, witness=0)\n", "")),
])
def test_opoly_check_custom_descriptors(capsys, text, expected):
    assert run(capsys, "opoly-check", "--q", "4", "--opoly", text) == expected


def test_field_required(capsys):
    code, out, err = run(capsys, "field-info")
    assert code == 2 and not out
    assert err == "error: a field is required: --q Q or --p P --m M\n"


def test_analyze_over_the_enumeration_budget_exits_4(capsys, tmp_path):
    # k = 5 is enumerated: (256^5-1)/255 * 6 column evaluations exceed 2^32
    rows = [" ".join("1" if j in (i, 5) else "0" for j in range(6)) for i in range(5)]
    matrix = tmp_path / "wide.txt"
    matrix.write_text("q=256 p=2 m=8 mod=1,0,1,1,1,0,0,0,1\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "analyze", str(matrix))
    assert code == 4 and not out
    assert err.startswith("error: ") and "exceed the enumeration budget" in err


SECONDS = ["search", "--q", "4", "--max-nodes", "5", "--max-seconds"]


@pytest.mark.parametrize("argv, error", [
    (["field-info", "--q", "9", "--modulus", "2,2,1_0"], "bad integer '1_0'"),
    (["field-info", "--q", "9", "--modulus", ","], "bad integer ''"),
    (["opoly-check", "--q", "8", "--opoly", "translation:h=\u0663"], "bad integer '\u0663'"),
    (["opoly-check", "--q", "16", "--opoly", "adelaide:t=+5"], "bad integer '+5'"),
    (["opoly-check", "--q", "16", "--opoly", "adelaide:t=-5"], None),
    (["field-info", "--q", "9", "--modulus", "2,2,1"], None),
    (["field-info", "--q", "7", "--modulus", "1,+1,1"], "bad integer '+1'"),
    # integer flags: argparse refuses them before any subcommand runs
    (["field-info", "--q", "\u0667"], "argument --q: bad integer '\u0667'"),
    (["field-info", "--q", "+7"], "argument --q: bad integer '+7'"),
    (["field-info", "--q", "1_1"], "argument --q: bad integer '1_1'"),
    (["field-info", "--p", "+7"], "argument --p: bad integer '+7'"),
    (["field-info", "--p", "7", "--m", "\u0661"], "argument --m: bad integer '\u0661'"),
    (["search", "--q", "4", "--max-nodes", "1_0"], "argument --max-nodes: bad integer '1_0'"),
    (["search", "--q", "4", "--target", "+9"], "argument --target: bad integer '+9'"),
    (["search", "--q", "4", "--seed", "0x1"], "argument --seed: bad integer '0x1'"),
    (["search", "--q", "4", "--restarts", "2.0"], "argument --restarts: bad integer '2.0'"),
    (["search", "--q", "4", "--max-nodes", "20", "--seed", "-1", "--restarts", "2"], None),
    (["bounds", "--n", "+9", "--k", "3", "--d", "6", "--r", "2"], "argument --n: bad integer '+9'"),
    (["bounds", "--n", "9", "--k", "3", "--d", "6", "--r", "2_0"], "argument --r: bad integer '2_0'"),
    (["bounds", "--n", "9", "--k", "3", "--d", "6", "--r", "2"], None),
    # --max-seconds: ASCII decimal digits, finite; the search refuses <= 0
    ([*SECONDS, "1_0"], "argument --max-seconds: bad decimal '1_0'"),
    ([*SECONDS, "inf"], "argument --max-seconds: bad decimal 'inf'"),
    ([*SECONDS, "nan"], "argument --max-seconds: bad decimal 'nan'"),
    ([*SECONDS, "\u0667"], "argument --max-seconds: bad decimal '\u0667'"),
    ([*SECONDS, "+2"], "argument --max-seconds: bad decimal '+2'"),
    ([*SECONDS, "1e3"], "argument --max-seconds: bad decimal '1e3'"),
    ([*SECONDS, ".5"], "argument --max-seconds: bad decimal '.5'"),
    ([*SECONDS, "9" * 400], "argument --max-seconds: bad decimal '999"),  # float() gives inf
    ([*SECONDS, "0"], "max_seconds must be positive, got 0.0"),
    ([*SECONDS, "-1"], "max_seconds must be positive, got -1.0"),
    ([*SECONDS, " 2 "], None),  # surrounding spaces are stripped, as for the integer flags
    ([*SECONDS, "0.5"], None),
])
def test_integers_in_text_are_ascii_digits(capsys, argv, error):
    try:
        code, out, err = run(capsys, *argv)
    except SystemExit as exc:  # argparse's exit on a bad flag value
        code, (out, err) = exc.code, capsys.readouterr()
    if error is None:
        assert code == 0 and out and not err
    else:
        assert code == 2 and not out and f"error: {error}" in err


def test_construct_even_json(capsys):
    code, data, _ = run_json(
        capsys, "construct", "--even", "--q", "4",
        "--opoly", "translation:h=1", "--v", "g^1",
    )
    assert code == 0
    assert data["profile"]["n"] == 9 and data["profile"]["category"] == "NMDS"
    assert data["closed_form_match"] is True
    assert data["weight_distribution"] == [[0, 1], [6, 30], [7, 18], [8, 9], [9, 6]]
    code, out, _ = run(capsys, "construct", "--even", "--q", "4",
                       "--opoly", "translation:h=1", "--v", "g^1")
    assert code == 0
    lines = out.splitlines()
    assert "weights: [[0, 1], [6, 30], [7, 18], [8, 9], [9, 6]]" in lines
    assert "closed form: [[0, 1], [6, 30], [7, 18], [8, 9], [9, 6]]" in lines
    assert "enumerated" not in out


def test_construct_odd_defaults(capsys):
    code, data, _ = run_json(capsys, "construct", "--odd", "--q", "11", "--w", "7")
    assert code == 0
    assert [data["profile"][k] for k in ("n", "k", "d")] == [16, 3, 13]
    # default w picks the least admissible
    code, data, _ = run_json(capsys, "construct", "--odd", "--q", "11")
    assert code == 0 and data["w"] == "7"


def test_construct_errors(capsys):
    assert run(capsys, "construct", "--odd", "--q", "3")[0] == 2
    assert run(capsys, "construct", "--even", "--q", "4", "--v", "1")[0] == 2
    assert run(capsys, "construct", "--q", "4")[0] == 2  # neither parity
    assert run(capsys, "construct", "--even", "--odd", "--q", "4")[0] == 2
    assert run(capsys, "construct", "--even", "--q", "9")[0] == 2


@pytest.mark.parametrize("argv, message", [
    (["construct", "--odd", "--q", "11", "--v", "3"], "--v applies to --even only"),
    (["construct", "--even", "--q", "8", "--w", "3"], "--w applies to --odd only"),
    (["census", "--odd-B1", "--q", "11", "--v", "3"], "--v applies to --even-A1/--even-A2 only"),
    (["census", "--even-A1", "--q", "8", "--w", "3"], "--w applies to --odd-B1/--odd-B2 only"),
    (["construct", "--odd", "--q", "11", "--opoly", "segre"], "--opoly applies to --even only"),
    (["census", "--odd-B1", "--q", "11", "--opoly", "segre"],
     "--opoly applies to --even-A1/--even-A2 only"),
])
def test_flag_of_the_other_construction_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert f"error: {message}" in err


def test_analyze_matrix_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(GOLDEN_Q9_ODD.matrix().to_text())
    code, data, _ = run_json(capsys, "analyze", str(path))
    assert code == 0
    assert data["profile"]["category"] == "NMDS"
    rep = data["lrc"]
    assert (rep["r_primal"], rep["r_dual"]) == (2, 10)
    assert rep["d_optimal"] and rep["k_optimal"]
    assert rep["dual_d_optimal"] and rep["dual_k_optimal"]


def test_analyze_dual_of_the_q4_code(tmp_path, capsys):
    path = tmp_path / "dual.txt"
    path.write_text(dual_matrix(GOLDEN_Q4_EVEN.matrix()).to_text())
    code, data, _ = run_json(capsys, "analyze", str(path))
    assert code == 0
    assert data["profile"]["category"] == "NMDS"
    assert (data["profile"]["d"], data["profile"]["d_dual"]) == (3, 6)
    assert "lrc" not in data  # locality reports are for k = 3


def test_analyze_rank_deficient(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("q=4 p=2 m=2 mod=1,1,1\n1 1 0\n1 1 0\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and "rank" in err


def test_analyze_header_without_modulus(tmp_path, capsys):
    path = tmp_path / "nomod.txt"
    path.write_text("q=9 p=3 m=2\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and not out
    assert "error:" in err and "lacks mod" in err


def test_analyze_header_token_without_equals(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("q=9 p=3 m=2 mod=2,2,1 junk\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and not out
    assert "error:" in err and "'junk'" in err


def test_analyze_header_with_repeated_key(tmp_path, capsys):
    path = tmp_path / "twice.txt"
    path.write_text("q=8 p=2 m=3 mod=1,1,0,1 mod=1,0,1,1\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and not out
    assert "error:" in err and "key 'mod' repeated" in err


@pytest.mark.parametrize("command", ["construct", "analyze", "locality", "search"])
def test_analyze_classifies_once(tmp_path, capsys, monkeypatch, command):
    """Each code command computes the weight distribution once; classify and
    lrc_report work from it.  Under --format json no table text is built."""
    from arccodes import cli, codes, lrc

    calls, real = [], codes.weight_distribution

    def counted(G):
        calls.append(G)
        return real(G)

    def no_table(rep, q):
        raise AssertionError("table text built for --format json")

    monkeypatch.setattr(codes, "weight_distribution", counted)
    monkeypatch.setattr(lrc, "weight_distribution", counted)
    monkeypatch.setattr(cli, "_report_lines", no_table)
    path = tmp_path / "m.txt"
    path.write_text(GOLDEN_Q9_ODD.matrix().to_text())
    q, argv = {"construct": (9, ["--odd", "--q", "9", "--w", "g^5"]),
               "analyze": (9, [str(path)]), "locality": (9, [str(path)]),
               "search": (4, ["--q", "4", "--target", "9"])}[command]
    code, data, _ = run_json(capsys, command, *argv)
    assert code == 0 and len(calls) == 1
    rep = data if command == "locality" else data["lrc"]
    assert rep["r_primal"] == 2 and all(rep[flag] is True for flag in lrc.FLAGS)
    if command != "locality":  # one code report, with the dual weights beside the primal
        assert {"profile", "weight_distribution", "dual_weight_distribution", "lrc"} <= set(data)
        n = data["profile"]["n"]
        dist = codes.WeightDistribution.from_pairs(n, data["weight_distribution"])
        dual = nmds_closed_form(n, 3, q, dist[n - 3])[1]
        assert data["dual_weight_distribution"] == dual.to_pairs()


def test_locality_computes_no_dual_weights(tmp_path, capsys, monkeypatch):
    from arccodes import codes, lrc

    def refused(*args):
        raise AssertionError("work that the locality report does not print")

    monkeypatch.setattr(codes, "dual_weight_distribution", refused)
    monkeypatch.setattr(lrc, "dual_weight_distribution", refused)
    path = tmp_path / "m.txt"
    path.write_text(GOLDEN_Q9_ODD.matrix().to_text())
    code, data, _ = run_json(capsys, "locality", str(path))
    assert code == 0 and (data["r_primal"], data["r_dual"]) == (2, 10)
    # k != 3 is refused before any weight is counted
    monkeypatch.setattr(codes, "weight_distribution", refused)
    monkeypatch.setattr(lrc, "weight_distribution", refused)
    path.write_text(dual_matrix(GOLDEN_Q4_EVEN.matrix()).to_text())
    code, out, err = run(capsys, "locality", str(path))
    assert code == 2 and not out and "locality reports are for k = 3" in err


STATS_KEYS = ["found_n", "nodes", "restarts", "prunes", "seed", "elapsed_ms", "strategy",
              "budget_exhausted", "arc"]
LRC_KEYS = ["n", "k", "d", "r_primal", "r_dual", "d_optimal", "k_optimal", "dual_d_optimal",
            "dual_k_optimal", "supports", "localities", "singleton_like_rhs", "cm_rhs",
            "dual_singleton_like_rhs", "dual_cm_rhs"]


def test_json_keys_pinned(tmp_path, capsys):
    """The JSON keys and their order: a field added to a report dataclass
    shows here before it reaches the output."""
    def keys(*argv):
        code, data, _ = run_json(capsys, *argv)
        return list(data)

    assert keys("search", "--q", "4", "--target", "9") == STATS_KEYS + [
        "matrix", "profile", "weight_distribution", "dual_weight_distribution", "lrc"]
    assert keys("search", "--q", "4", "--base", "points:1:0:0", "--max-nodes", "1") == STATS_KEYS
    assert keys("bounds", "--n", "9", "--k", "3", "--d", "6", "--r", "2") == [
        "d_optimal", "k_optimal", "singleton_like_rhs", "cm_rhs", "cm_bound_model"]
    assert keys("census", "--odd-B1", "--q", "11", "--w", "7") == [
        "kind", "q", "counts", "diagonal_ok", "two_solution_pairs"]
    path = tmp_path / "m.txt"
    path.write_text(GOLDEN_Q9_ODD.matrix().to_text())
    assert keys("locality", str(path)) == LRC_KEYS
    # [3,3,1]: no recovery sets and a zero dual, so no verdict numbers
    path.write_text("q=5 p=5 m=1 mod=0,1\n1 0 0\n0 1 0\n0 0 1\n")
    assert keys("locality", str(path)) == LRC_KEYS[:11]


def test_analyze_missing_file(capsys):
    assert run(capsys, "analyze", "/nonexistent/matrix.txt")[0] == 2


def test_census(capsys):
    code, data, _ = run_json(capsys, "census", "--odd-B1", "--q", "11", "--w", "7")
    assert code == 0
    assert data["two_solution_pairs"] == 40
    assert data["diagonal_ok"] is True
    code, data, _ = run_json(
        capsys, "census", "--even-A1", "--q", "4", "--opoly", "translation:h=1", "--v", "g^1",
    )
    assert code == 0 and data["two_solution_pairs"] == 3
    assert run(capsys, "census", "--q", "11")[0] == 2  # no kind picked


def test_locality(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(GOLDEN_Q9_ODD.matrix().to_text())
    code, data, _ = run_json(capsys, "locality", str(path))
    assert code == 0
    assert data["r_primal"] == 2 and data["r_dual"] == 10
    assert len(data["supports"]) == 160 // 8
    assert data["localities"] == [[2, 10]] * 14
    # the table is the line `analyze` prints, not the JSON
    code, out, _ = run(capsys, "locality", str(path))
    line = ("locality: (2, 10); d-optimal=True k-optimal=True "
            "dual-d-optimal=True dual-k-optimal=True")
    assert code == 0 and out.splitlines() == [line]
    assert line in run(capsys, "analyze", str(path))[1].splitlines()


def test_locality_of_a_frame(tmp_path, capsys):
    # a [4,3,2] code: locality 3 fills the length, n = r + 1
    path = tmp_path / "frame.txt"
    path.write_text("q=5 p=5 m=1 mod=0,1\n1 0 0 1\n0 1 0 1\n0 0 1 1\n")
    code, out, err = run(capsys, "locality", str(path))
    assert code == 0 and not err
    assert out.splitlines() == ["locality: (3, 1); d-optimal=True k-optimal=True "
                                "dual-d-optimal=True dual-k-optimal=True"]
    code, data, _ = run_json(capsys, "bounds", "--n", "4", "--k", "3", "--d", "2", "--r", "3")
    assert code == 0 and (data["cm_rhs"], data["k_optimal"]) == (3, True)


def test_locality_without_a_report(tmp_path, capsys):
    path = tmp_path / "dual.txt"
    path.write_text(dual_matrix(GOLDEN_Q4_EVEN.matrix()).to_text())
    code, out, err = run(capsys, "locality", str(path))
    assert code == 2 and not out and "locality reports are for k = 3" in err
    path.write_text("q=5 p=5 m=1 mod=0,1\n1 2 0 0\n0 0 1 0\n0 0 0 1\n")
    code, out, err = run(capsys, "locality", str(path))
    assert code == 2 and not out and "pairwise non-proportional" in err
    code, data, _ = run_json(capsys, "analyze", str(path))
    assert code == 0 and "pairwise non-proportional" in data["lrc"]["error"]


def test_dual_counts_past_the_int_to_str_limit(tmp_path, capsys):
    """e1, e2, e3 each 310 times over GF(65521): the dual counts of this
    [930,3] code run to about 4,480 digits, past Python's default limit on
    int-to-str conversion, and both formats still print them."""
    reps = 310
    rows = [" ".join("1" if j // reps == i else "0" for j in range(3 * reps)) for i in range(3)]
    path = tmp_path / "long.txt"
    path.write_text("q=65521 p=65521 m=1 mod=0,1\n" + "\n".join(rows) + "\n")
    limit = sys.get_int_max_str_digits()
    code, table, _ = run(capsys, "analyze", str(path))
    assert code == 0 and sys.get_int_max_str_digits() == limit
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    dual = json.loads(out, parse_int=str)["dual_weight_distribution"]
    assert max(len(c) for _, c in dual) > limit
    pairs = ", ".join(f"[{w}, {c}]" for w, c in dual)
    assert f"dual weights: [{pairs}]" in table.splitlines()


def test_bounds(capsys):
    code, data, _ = run_json(
        capsys, "bounds", "--n", "9", "--k", "3", "--d", "6", "--r", "2",
    )
    assert code == 0
    assert data == {
        "d_optimal": True,
        "k_optimal": True,
        "singleton_like_rhs": 6,
        "cm_rhs": 3,
        "cm_bound_model": "singleton-relaxed",
    }
    # d = 1 with (r+1) | n: t = n/(r+1) = 2 is feasible, so cm_rhs = t*r = 4
    code, data, _ = run_json(capsys, "bounds", "--n", "6", "--k", "4", "--d", "1", "--r", "2")
    assert code == 0 and (data["cm_rhs"], data["k_optimal"]) == (4, True)


@pytest.mark.parametrize("argv", [
    ["--n", "5", "--k", "-9", "--d", "0", "--r", "1"],
    ["--n", "9", "--k", "0", "--d", "3", "--r", "2"],
    ["--n", "9", "--k", "3", "--d", "-4", "--r", "2"],
])
def test_bounds_rejects_impossible_codes(capsys, argv):
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 2 and not out
    assert "need 1 <= k <= n and d >= 1" in err


def test_search(capsys):
    code, data, _ = run_json(
        capsys, "search", "--q", "4", "--base", "hyperoval:translation:h=1",
        "--target", "9",
    )
    assert code == 0
    assert data["found_n"] >= 9
    assert data["strategy"] == "dfs"
    # unreachable target exits with the budget code
    code, data, _ = run_json(
        capsys, "search", "--q", "4", "--base", "hyperoval:translation:h=1",
        "--target", "99", "--max-nodes", "50",
    )
    assert code == 4


def test_search_powers_renders_the_arc_as_the_matrix_does(capsys):
    argv = ("search", "--q", "8", "--base", "hyperoval", "--max-nodes", "3000")
    _, plain, _ = run_json(capsys, *argv)
    code, data, _ = run_json(capsys, *argv, "--powers")
    assert code == 0 and data["found_n"] == len(data["arc"]) == 15
    columns = list(zip(*(row.split() for row in data["matrix"][1:])))
    assert [tuple(p.split(":")) for p in data["arc"]] == columns
    assert any(tok.startswith("g^") for p in data["arc"] for tok in p.split(":"))
    F = make_field(2, 3)
    assert [":".join(str(F.element_from_str(t)) for t in p.split(":")) for p in data["arc"]] \
        == plain["arc"]


def test_search_too_short_for_a_code(capsys):
    # one node grows a 1-point base to 2 points: stats only, budget exit
    argv = ("search", "--q", "4", "--base", "points:1:0:0", "--max-nodes", "1")
    code, data, err = run_json(capsys, *argv)
    assert code == 4 and not err
    assert data["found_n"] == 2 and data["nodes"] == 1 and data["budget_exhausted"]
    assert "matrix" not in data and "weight_distribution" not in data
    code, out, err = run(capsys, *argv)
    assert code == 4 and not err
    assert len(out.splitlines()) == 1 and out.startswith("found (2,3)-arc in PG(2,4) [nodes=1 ")


def test_search_ending_on_a_line(capsys):
    # three collinear base points meet the target but span no plane: no code
    argv = ("search", "--q", "3", "--base", "points:1:0:0;0:1:0;1:1:0", "--target", "3")
    code, data, err = run_json(capsys, *argv)
    assert code == 4 and not err
    assert data["found_n"] == 3 and "matrix" not in data and "profile" not in data
    code, out, err = run(capsys, *argv)
    assert code == 4 and not err
    assert len(out.splitlines()) == 1 and out.startswith("found (3,3)-arc in PG(2,3) ")


def test_python_dash_m_runs_the_cli():
    src = str(Path(arccodes.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-m", "arccodes", "field-info", "--q", "9"],
                         cwd=src, capture_output=True, text=True, timeout=30)
    assert out.returncode == 0 and "p=3 m=2 mod=2,2,1" in out.stdout
    out = subprocess.run([sys.executable, "-m", "arccodes", "field-info", "--q", "12"],
                         cwd=src, capture_output=True, text=True, timeout=30)
    assert out.returncode == 2 and "error" in out.stderr


def test_search_reports_weight_distribution(capsys):
    code, data, _ = run_json(capsys, "search", "--q", "8", "--target", "15")
    assert code == 0 and data["found_n"] == 15
    pairs = data["weight_distribution"]
    # an [n,3,n-3] code is NMDS; its distribution follows from A_{n-3}
    assert pairs[1][0] == 12
    primal, _ = nmds_closed_form(15, 3, 8, pairs[1][1])
    assert pairs == primal.to_pairs() == [[0, 1], [12, 189], [13, 168], [14, 42], [15, 112]]
    assert data["dual_weight_distribution"] == nmds_closed_form(15, 3, 8, 189)[1].to_pairs()
    code, out, _ = run(capsys, "search", "--q", "8", "--target", "15")
    lines = out.rstrip().splitlines()
    assert code == 0 and lines[-4:-1] == ["[15,3,12] NMDS over q=8", f"weights: {pairs}",
                                          f"dual weights: {data['dual_weight_distribution']}"]
    assert lines[-1].startswith("locality: (2, 11); ")


@pytest.mark.parametrize("flag,value", [
    ("--max-nodes", "0"), ("--max-nodes", "-3"), ("--restarts", "0"), ("--restarts", "-3"),
    ("--max-seconds", "0"), ("--max-seconds", "-1"), ("--target", "-1"), ("--target", "0"),
])
def test_search_rejects_bad_budgets(capsys, flag, value):
    code, out, err = run(capsys, "search", "--q", "4", "--strategy", "greedy-restart",
                         flag, value)
    assert code == 2 and not out
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("argv", [
    ["verify-paper", "--format", "json"],
    ["census", "--odd-B1", "--q", "11", "--powers"],
    ["bounds", "--n", "9", "--k", "3", "--d", "6", "--r", "2", "--q", "1000000"],
    ["search", "--q", "4", "--threads", "2"],
])
def test_removed_options_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_search_base_descriptors(capsys):
    code, data, _ = run_json(capsys, "search", "--q", "5", "--base", "oval",
                             "--max-nodes", "3000")
    assert code == 0 and data["found_n"] >= 6
    assert run(capsys, "search", "--q", "5", "--base", "bogus")[0] == 2


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 26
    facts = [line.split(": ")[-1] for line in out.splitlines()]
    assert [f for f in facts if f.startswith("locality")] == [
        f"locality (2, {q + 1}), all four bounds met" for q in (4, 9, 11)]
    assert facts.count("MacWilliams dual = NMDS dual formula") == 4
