"""Command-line front end.

Subcommands: field-info, opoly-check, construct, analyze, census, locality,
bounds, search, verify-paper.  Exit codes: 0 success/verified, 2 invalid
input, 3 verification mismatch, 4 budget exhausted.
"""

import argparse
import json
import math
import re
import sys

from .field import GF, make_field, field_from_order, parse_int
from . import opoly, geometry, codes, construct, lrc, arcsearch
from .fixtures import ALL_GOLDEN

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4

DEFAULT_OPOLY = "translation:h=1"  # the even constructions' o-polynomial


def _field_from_args(args) -> GF:
    modulus = None
    if args.modulus is not None:
        modulus = [parse_int(c) for c in args.modulus.split(",")]
    if args.q is not None:
        if args.p is not None or args.m is not None:
            raise ValueError("give either --q or --p/--m, not both")
        return field_from_order(args.q, modulus)
    if args.p is not None:
        return make_field(args.p, 1 if args.m is None else args.m, modulus)
    raise ValueError("a field is required: --q Q or --p P --m M")


def _integer(text: str) -> int:
    """An integer flag, read as `parse_int` reads text integers."""
    try:
        return parse_int(text)
    except ValueError as exc:  # argparse reports it and exits with code 2
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seconds(text: str) -> float:
    """A time budget in ASCII decimal digits, read as `parse_int` reads text
    integers (float() would also take '1_0', 'inf', '1e3' and non-ASCII
    digits).  The search itself refuses a value that is not positive."""
    token = text.strip()
    if re.fullmatch(r"-?[0-9]+(\.[0-9]+)?", token) and math.isfinite(value := float(token)):
        return value
    raise argparse.ArgumentTypeError(
        f"bad decimal {token!r}: expected a finite number in ASCII digits")


def _add_field_args(sub):
    sub.add_argument("--q", type=_integer, help="field order (prime power)")
    sub.add_argument("--p", type=_integer, help="characteristic")
    sub.add_argument("--m", type=_integer, help="extension degree")
    sub.add_argument("--modulus", help="modulus coefficients, low-to-high, e.g. 1,1,0,1")


def _add_output_args(sub, powers: bool):
    sub.add_argument("--format", choices=("table", "json"), default="table")
    if powers:
        sub.add_argument("--powers", action="store_true",
                         help="print field elements as powers of the generator")


def _emit(args, data: dict, table):
    """Print `data` as JSON, or the lines that `table()` builds."""
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        for line in table():
            print(line)


def cmd_field_info(args) -> int:
    F = _field_from_args(args)
    g = F.primitive_element()
    data = {
        "q": F.q,
        "descriptor": F.descriptor(),
        "generator": F.element_to_str(g, args.powers),
        "elements_powers": [F.element_to_str(x, args.powers) for x in F.elements()],
    }
    _emit(args, data, lambda: [
        f"field {F.descriptor()} (q={F.q})",
        f"generator: {data['generator']}",
        "powers order: " + " ".join(data["elements_powers"]),
    ])
    return EXIT_OK


def cmd_opoly_check(args) -> int:
    F = _field_from_args(args)
    f = opoly.parse_opoly_descriptor(F, args.opoly)
    verdict = opoly.is_o_polynomial(f)
    two = opoly.is_two_to_one_with_linear(f)
    data = {
        "opoly": f.descriptor(args.powers),
        "degree": f.degree,
        "is_o_polynomial": verdict.ok,
        "failed_condition": verdict.condition,
        "witness": verdict.witness,
        "two_to_one_with_linear": two.ok,
    }
    status = "PASS" if verdict.ok else f"FAIL ({verdict.condition}, witness={verdict.witness})"
    _emit(args, data, lambda: [f"{f.descriptor(args.powers)} over q={F.q}: {status}"])
    return EXIT_OK if verdict.ok else EXIT_MISMATCH


def _reject_flags(args, even: bool, even_only: str, odd_only: str):
    """Refuse the flags of the construction that was not chosen."""
    others = {"w": odd_only} if even else {"v": even_only, "opoly": even_only}
    for flag, only in others.items():
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies to {only} only")


def _construction(F: GF, even: bool, opoly_text, v_text, w_text):
    """Decode one construction: the o-polynomial (DEFAULT_OPOLY when none is
    given) and v on the even side, or w on the odd side.  A v or w not
    given is the least admissible one.  Returns (f, v, w), with None for
    the other side's parameters."""
    if not even:
        w = F.element_from_str(w_text) if w_text is not None else min(construct.valid_w_set(F))
        return None, None, w
    f = opoly.parse_opoly_descriptor(F, DEFAULT_OPOLY if opoly_text is None else opoly_text)
    v = F.element_from_str(v_text) if v_text is not None else min(construct.valid_v_set(f))
    return f, v, None


def _built(F: GF, f, v, w):
    """(G, closed-form weights) of the construction that `_construction`
    decoded: the even one when f is given, else the odd one."""
    if f is not None:
        return construct.build_even_matrix(f, v), construct.even_closed_form(F.q)
    return construct.build_odd_matrix(F, w), construct.odd_closed_form(F.q)


def _matrix_lines(G: codes.GeneratorMatrix, powers: bool):
    return G.to_text(powers).rstrip("\n").splitlines()


def cmd_construct(args) -> int:
    F = _field_from_args(args)
    if args.even == args.odd:
        raise ValueError("exactly one of --even / --odd is required")
    _reject_flags(args, args.even, "--even", "--odd")
    if args.even and F.p != 2:
        raise ValueError(f"--even needs characteristic 2, got q={F.q}")
    if args.odd and F.p == 2:
        raise ValueError(f"--odd needs odd characteristic, got q={F.q}")
    f, v, w = _construction(F, args.even, args.opoly, args.v, args.w)
    G, closed = _built(F, f, v, w)
    chosen = ({"opoly": f.descriptor(args.powers), "v": F.element_to_str(v, args.powers)}
              if args.even else {"w": F.element_to_str(w, args.powers)})
    rep = lrc.code_report(G)
    match = rep.distribution == closed
    matrix = _matrix_lines(G, args.powers)
    data = {
        **chosen,
        "matrix": matrix,
        **rep.to_dict(),
        "closed_form": closed.to_pairs(),
        "closed_form_match": match,
    }
    _emit(args, data, lambda: matrix + _report_lines(rep, F.q) + [
        f"closed form: {data['closed_form']}",
        "MATCH" if match else "MISMATCH",
    ])
    if rep.profile.category != "NMDS" or not match:
        return EXIT_MISMATCH
    return EXIT_OK


def _read_matrix(path: str) -> codes.GeneratorMatrix:
    with open(path) as fh:
        return codes.GeneratorMatrix.from_text(fh.read())


def _locality_line(rep: dict) -> str:
    """The table line of an lrc_report: localities and the four flags."""
    return (f"locality: ({rep['r_primal']}, {rep['r_dual']}); "
            f"d-optimal={rep['d_optimal']} k-optimal={rep['k_optimal']} "
            f"dual-d-optimal={rep['dual_d_optimal']} dual-k-optimal={rep['dual_k_optimal']}")


def _report_lines(rep: lrc.CodeReport, q: int) -> list[str]:
    """The table lines of a code report; the locality line for k = 3 only."""
    p = rep.profile
    lines = [f"[{p.n},{p.k},{p.d}] {p.category} over q={q}",
             f"weights: {rep.distribution.to_pairs()}",
             f"dual weights: {rep.dual_distribution.to_pairs()}"]
    if rep.lrc is not None:
        lines.append(f"locality: {rep.lrc['error']}" if "error" in rep.lrc
                     else _locality_line(rep.lrc))
    return lines


def cmd_analyze(args) -> int:
    G = _read_matrix(args.matrix)
    rep = lrc.code_report(G)
    _emit(args, rep.to_dict(), lambda: _report_lines(rep, G.field.q))
    return EXIT_OK


def cmd_census(args) -> int:
    kinds = [k for k in construct.CENSUS_KINDS
             if getattr(args, k.replace("-", "_"), False)]
    if len(kinds) != 1:
        raise ValueError("exactly one of --even-A1/--even-A2/--odd-B1/--odd-B2")
    kind = kinds[0]
    F = _field_from_args(args)
    even = kind.startswith("even")
    _reject_flags(args, even, "--even-A1/--even-A2", "--odd-B1/--odd-B2")
    f, v, w = _construction(F, even, args.opoly, args.v, args.w)
    result = construct.solution_count_census(kind, F, f=f, v=v, w=w)
    data = result.to_dict()
    data["two_solution_pairs"] = result.pairs_with(2)
    _emit(args, data, lambda: [
        f"census {kind} over q={F.q}: {dict(sorted(result.counts.items()))}",
        f"two-solution pairs: {result.pairs_with(2)}",
        f"diagonal zero: {result.diagonal_ok}",
    ])
    return EXIT_OK if result.diagonal_ok else EXIT_MISMATCH


def cmd_locality(args) -> int:
    G = _read_matrix(args.matrix)
    if G.k != 3:
        raise ValueError("locality reports are for k = 3")
    loc = lrc.lrc_report(G)
    _emit(args, loc, lambda: [_locality_line(loc)])
    return EXIT_OK


def cmd_bounds(args) -> int:
    verdict = lrc.bound_verdict(args.n, args.k, args.d, args.r)
    data = verdict.to_dict()
    _emit(args, data, lambda: [
        f"singleton-like bound: d <= {verdict.singleton_like_rhs} "
        f"({'met' if verdict.d_optimal else 'not met'} by d={args.d})",
        f"dimension bound: k <= {verdict.cm_rhs} "
        f"({'met' if verdict.k_optimal else 'not met'} by k={args.k})",
    ])
    return EXIT_OK


def _base_points(F: GF, descriptor: str):
    kind, _, rest = descriptor.partition(":")
    if kind == "hyperoval":
        f = opoly.parse_opoly_descriptor(F, rest or DEFAULT_OPOLY)
        return geometry.hyperoval_from_opoly(f)
    if kind == "oval":
        return geometry.standard_oval(F)
    if kind == "points":
        return [geometry.point_from_str(F, tok) for tok in rest.split(";")]
    raise ValueError(f"unknown search base {descriptor!r} "
                     "(use hyperoval[:opoly], oval, or points:x:y:z;...)")


def cmd_search(args) -> int:
    F = _field_from_args(args)
    base = _base_points(F, args.base)
    pts, stats = arcsearch.extend_to_n3_arc(
        F, base,
        strategy=args.strategy,
        max_nodes=args.max_nodes,
        max_seconds=args.max_seconds,
        target_size=args.target,
        seed=args.seed,
        restarts=args.restarts,
    )
    data = stats.to_dict(F, args.powers)
    lines = [
        f"found ({stats.found_n},3)-arc in PG(2,{F.q}) "
        f"[nodes={stats.nodes} restarts={stats.restarts} prunes={stats.prunes} "
        f"elapsed={stats.elapsed_ms}ms]",
    ]
    try:
        G = codes.GeneratorMatrix.from_columns(F, pts)
    except ValueError:  # under 3 points, or all on one line: no code
        _emit(args, data, lambda: lines)
        return EXIT_BUDGET
    rep = lrc.code_report(G)
    data.update(matrix=_matrix_lines(G, args.powers), **rep.to_dict())
    _emit(args, data, lambda: lines + data["matrix"] + _report_lines(rep, F.q))
    if args.target is not None and stats.found_n < args.target:
        return EXIT_BUDGET
    return EXIT_OK


def _golden_checks(golden):
    """Yield (fact, holds) for each fact that verify-paper checks on a golden."""
    F, G = golden.field(), golden.matrix()
    n, q = G.n, F.q
    expected = golden.pinned_distribution()
    # the NMDS distributions that the pinned A_{n-3} determines
    closed, nmds_dual = codes.nmds_closed_form(n, 3, q, expected[n - 3])
    if golden.kind != "fixture":
        f, v, w = _construction(F, golden.kind == "even", golden.opoly, golden.v_or_w,
                                golden.v_or_w)
        built, closed = _built(F, f, v, w)
        yield "matrix reproduced", built == G
        G = built
    rep = lrc.code_report(G)
    p, loc = rep.profile, rep.lrc
    yield "weight distribution", rep.distribution == expected
    yield "closed form", rep.distribution == closed
    yield "NMDS", p.category == "NMDS"
    yield "MacWilliams dual = NMDS dual formula", rep.dual_distribution == nmds_dual
    if golden.kind != "fixture":
        yield (f"locality (2, {q + 1}), all four bounds met",
               (loc.get("r_primal"), loc.get("r_dual")) == (2, q + 1)
               and all(loc.get(flag) is True for flag in lrc.FLAGS))
        return
    lines = G.line_profile()
    bound = q + math.isqrt(4 * q) + 1  # q + floor(2 sqrt q) + 1
    yield f"[{n},3,{n - 3}]", (p.n, p.k, p.d) == (n, 3, n - 3)
    yield f"({n},3)-arc", not (lines.zeros or lines.repeated) and lines.max_line == 3
    yield f"first q+2 = {q + 2} columns form an arc", geometry.is_arc(F, G.columns()[:q + 2])
    yield f"n = {n} > q + floor(2 sqrt q) + 1 = {bound}", n > bound


def cmd_verify_paper(args) -> int:
    failures = 0
    for golden in ALL_GOLDEN:
        for fact, ok in _golden_checks(golden):
            print(f"{'PASS' if ok else 'FAIL'}  {golden.name}: {fact}")
            failures += not ok
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def _fill_field_info(sub):
    _add_field_args(sub)
    _add_output_args(sub, powers=True)


def _fill_opoly_check(sub):
    _add_field_args(sub)
    _add_output_args(sub, powers=True)
    sub.add_argument("--opoly", required=True, help="e.g. translation:h=1, segre, custom:coeffs=0,0,1")


def _fill_construct(sub):
    _add_field_args(sub)
    _add_output_args(sub, powers=True)
    sub.add_argument("--even", action="store_true", help="hyperoval construction (q = 2^m)")
    sub.add_argument("--odd", action="store_true", help="oval construction (odd q)")
    sub.add_argument("--opoly", help=f"o-polynomial (even only); defaults to {DEFAULT_OPOLY}")
    sub.add_argument("--v", help="admissible v (even); defaults to the least")
    sub.add_argument("--w", help="admissible w (odd); defaults to the least")


def _fill_analyze(sub):
    _add_output_args(sub, powers=False)
    sub.add_argument("matrix", help="matrix text file")


def _fill_census(sub):
    _add_field_args(sub)
    _add_output_args(sub, powers=False)
    for kind in construct.CENSUS_KINDS:
        sub.add_argument(f"--{kind}", dest=kind.replace("-", "_"), action="store_true")
    sub.add_argument("--opoly", help=f"o-polynomial (even only); defaults to {DEFAULT_OPOLY}")
    sub.add_argument("--v")
    sub.add_argument("--w")


def _fill_locality(sub):
    _add_output_args(sub, powers=False)
    sub.add_argument("matrix")


def _fill_bounds(sub):
    _add_output_args(sub, powers=False)
    for name in ("n", "k", "d", "r"):
        sub.add_argument(f"--{name}", type=_integer, required=True)


def _fill_search(sub):
    _add_field_args(sub)
    _add_output_args(sub, powers=True)
    sub.add_argument("--base", default="hyperoval:translation:h=1",
                     help="hyperoval[:opoly-descriptor], oval, or points:x:y:z;...")
    sub.add_argument("--strategy", choices=arcsearch.STRATEGIES, default="dfs")
    sub.add_argument("--max-nodes", type=_integer)
    sub.add_argument("--max-seconds", type=_seconds, default=60.0,
                     help="time budget (default 60; the best arc so far survives)")
    sub.add_argument("--target", type=_integer)
    sub.add_argument("--seed", type=_integer, default=0)
    sub.add_argument("--restarts", type=_integer, default=64)


# Each subcommand: (help, the function that adds its arguments, handler).
COMMANDS = {
    "field-info": ("describe a finite field", _fill_field_info, cmd_field_info),
    "opoly-check": ("validate an o-polynomial descriptor", _fill_opoly_check, cmd_opoly_check),
    "construct": ("build a [q+5,3,q+2] code and verify it", _fill_construct, cmd_construct),
    "analyze": ("the code report of a matrix file", _fill_analyze, cmd_analyze),
    "census": ("root counts of the construction line equations", _fill_census, cmd_census),
    "locality": ("locality report of a matrix file", _fill_locality, cmd_locality),
    "bounds": ("locality bound verdicts for given parameters", _fill_bounds, cmd_bounds),
    "search": ("extend an arc to a larger (n,3)-arc", _fill_search, cmd_search),
    "verify-paper": ("run all built-in golden fixtures", lambda sub: None, cmd_verify_paper),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: every subcommand, or only `command`'s when it
    is given.  A parser for one command lists every name as its
    subcommands' metavar, so its usage reads as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="arccodes",
        description="Near-MDS codes of dimension 3 from maximal arcs in PG(2,q)",
    )
    every = "{" + ",".join(COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar=None if command is None else every)
    for name, (help_text, fill, handler) in COMMANDS.items():
        if command in (None, name):
            sub = subs.add_parser(name, help=help_text)
            fill(sub)
            sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run one command line (default sys.argv[1:]) and return its exit code.
    Only the named subcommand's parser is built; with no known name first
    (no argument, --help, a typo), every one is, for argparse's messages."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    # exact counts: the dual weights of an [n, k] code run to about
    # (n - k) log10(q) digits, past Python's default int-to-str limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except codes.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
