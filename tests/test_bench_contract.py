"""The names and call shapes that the benchmark in perfbench/ uses.

perfbench/ is kept unchanged between benchmark revisions, so a library
change that drops or reshapes one of these breaks the benchmark without
breaking any other test.  The tracer and the oracle are loaded by path and
are not changed; the oracle's checks on the goldens are the ones a
benchmark job runs, so a library change that would fail a job fails here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from arccodes import arcsearch, codes, construct, geometry, lrc, opoly
from arccodes.fixtures import GOLDEN_Q4_EVEN, GOLDEN_Q9_ODD
from conftest import paper_code

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, funcs in _load("tracer").TRACED.items() for attr in funcs
])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"arccodes.{module}"), attr))


def test_sweep_call_shapes():
    G = GOLDEN_Q4_EVEN.matrix()
    dist = codes.weight_distribution(G)
    profile = codes.classify(G, dist)
    assert (profile.category, profile.d, profile.d_dual) == ("NMDS", 6, 3)
    report = lrc.lrc_report(G, dist)
    for key in ("supports", "r_primal", "r_dual",
                "d_optimal", "k_optimal", "dual_d_optimal", "dual_k_optimal"):
        assert key in report
    rep = lrc.locality_report(G)
    assert (rep.r_primal, rep.r_dual) == (2, 5)
    assert [list(s) for s in rep.supports] == report["supports"]


@pytest.mark.parametrize("golden, closed_form", [
    (GOLDEN_Q4_EVEN, construct.even_closed_form), (GOLDEN_Q9_ODD, construct.odd_closed_form),
])
def test_oracle_passes_the_goldens(golden, closed_form):
    # the inputs of the sweep's check, built as worker.verify_code builds them
    G = golden.matrix()
    dist = codes.weight_distribution(G)
    closed = closed_form(G.field.q)
    report = lrc.lrc_report(G, dist)
    K = oracle.field_of(G.field)
    assert oracle.nmds_code_problems(K, G.columns(), dist.counts, closed.counts,
                                     codes.classify(G, dist), report) == []
    # the large-q locality job's check
    rep = lrc.locality_report(G)
    assert oracle.locality_problems(K.q, G.n, oracle.rich_lines(K, G.columns()),
                                    rep.supports, (rep.r_primal, rep.r_dual)) == []


@pytest.mark.parametrize("q", [61, 64])
def test_oracle_passes_the_large_q_checks(q):
    # the enumerate and locality jobs' checks, on an odd prime and an even field
    G = paper_code(q)
    K = oracle.field_of(G.field)
    lines = oracle.rich_lines(K, G.columns())
    assert list(codes.weight_distribution(G).counts) == \
        oracle.distribution_from_lines(K.q, G.n, lines)
    rep = lrc.locality_report(G)
    assert oracle.locality_problems(K.q, G.n, lines, rep.supports,
                                    (rep.r_primal, rep.r_dual)) == []


def test_search_call_shapes():
    F = GOLDEN_Q4_EVEN.field()
    base = geometry.hyperoval_from_opoly(opoly.make_family_opoly(F, "translation", h=1))
    pts, stats = arcsearch.extend_to_n3_arc(F, base, strategy="dfs", max_nodes=50,
                                            max_seconds=None, workers=1)
    assert stats.found_n == len(pts) and stats.nodes <= 50
    pts, stats = arcsearch.extend_to_n3_arc(F, base, strategy="greedy-restart", restarts=2,
                                            seed=1, max_seconds=None, workers=1)
    assert (stats.restarts, stats.found_n) == (2, len(pts))


def test_construct_call_shapes():
    f = opoly.make_family_opoly(GOLDEN_Q4_EVEN.field(), "translation", h=1)
    v = min(construct.valid_v_set(f))
    result = construct.solution_count_census("even-A1", f.field, f=f, v=v)
    assert result.kind == "even-A1" and result.diagonal_ok and result.counts
    assert construct.build_even_matrix(f, v).field is f.field
