import subprocess
import sys
from pathlib import Path

import pytest

import arccodes

from arccodes.field import field_from_order, make_field
from arccodes import arcsearch, geometry as geo
from arccodes.arcsearch import (
    conclusion_matrix,
    extend_to_n3_arc,
    line_multiplicities,
    verify_conclusion_matrix,
)
from arccodes.codes import GeneratorMatrix, classify
from arccodes.construct import build_even_matrix, valid_v_set
from arccodes.opoly import make_family_opoly


def _hyperoval(q_m):
    F = make_field(2, q_m)
    f = make_family_opoly(F, "translation", h=1)
    return F, geo.hyperoval_from_opoly(f)


def test_conclusion_matrix_profile():
    G = conclusion_matrix()
    assert (G.k, G.n) == (3, 15)
    assert G.field.modulus == (1, 1, 0, 1)
    p = classify(G)
    assert (p.n, p.k, p.d, p.category) == (15, 3, 12, "NMDS")


def test_conclusion_report():
    rep = verify_conclusion_matrix()
    assert rep.ok()
    assert rep.n3_arc and rep.hyperoval_prefix
    # 15 = 2q-1 beats the elliptic-curve length ceiling q + floor(2 sqrt q) + 1 = 14
    assert rep.exceeds_elliptic_bound
    assert conclusion_matrix().n == 2 * 8 - 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pencils_match_incidence_scan(q):
    F = field_from_order(q)
    plane = arcsearch._Plane(F)
    for point in plane.points:
        scan = tuple(i for i, u in enumerate(plane.lines) if geo.incident(F, point, u))
        assert len(scan) == q + 1
        assert plane.pencil(point) == scan


def test_line_multiplicities_match_recount():
    F, hyper = _hyperoval(2)
    pts, stats = extend_to_n3_arc(F, hyper, strategy="dfs")
    mult = line_multiplicities(F, pts)
    profile, biggest = geo.line_intersection_profile(F, pts)
    assert biggest == max(mult) == 3
    recount = {}
    for c in mult:
        recount[c] = recount.get(c, 0) + 1
    assert recount == profile


def test_dfs_extends_gf4_hyperoval_to_nine():
    F, hyper = _hyperoval(2)
    pts, stats = extend_to_n3_arc(F, hyper, strategy="dfs")
    assert stats.found_n >= 9
    assert geo.is_n3_arc(F, pts)
    assert set(hyper) <= set(pts)
    assert not stats.budget_exhausted


def test_dfs_monotone_in_budget():
    F, hyper = _hyperoval(2)
    sizes = []
    for nodes in (5, 20, 200):
        pts, stats = extend_to_n3_arc(F, hyper, strategy="dfs", max_nodes=nodes)
        assert geo.is_n3_arc(F, pts) or geo.is_arc(F, pts)
        sizes.append(stats.found_n)
    assert sizes == sorted(sizes)


def test_base_already_n3_arc_is_kept():
    F = make_field(2, 2)
    f = make_family_opoly(F, "translation", h=1)
    G = build_even_matrix(f, min(valid_v_set(f)))
    base = G.column_points()
    pts, stats = extend_to_n3_arc(F, base, strategy="dfs")
    assert stats.found_n >= 9
    assert set(base) <= set(pts)


def test_budget_exhaustion_flagged():
    F, hyper = _hyperoval(3)
    pts, stats = extend_to_n3_arc(F, hyper, strategy="dfs", max_nodes=1)
    assert stats.budget_exhausted
    # the one node the budget lets through is expanded
    assert (stats.nodes, stats.found_n) == (1, len(hyper) + 1)
    for strategy in ("dfs", "greedy-restart"):
        for n in (2, 7, 50, 500):
            pts, stats = extend_to_n3_arc(F, hyper, strategy=strategy, max_nodes=n)
            assert stats.nodes == n and stats.budget_exhausted


@pytest.mark.parametrize("bad", [
    {"max_nodes": 0}, {"max_nodes": -3}, {"restarts": 0}, {"restarts": -3},
    {"max_seconds": 0}, {"max_seconds": -1.0}, {"workers": 2}, {"workers": 0},
])
def test_bad_budgets_rejected(bad):
    F, hyper = _hyperoval(2)
    for strategy in ("dfs", "greedy-restart"):
        with pytest.raises(ValueError, match=next(iter(bad))):
            extend_to_n3_arc(F, hyper, strategy=strategy, **bad)


def test_four_on_a_line_base_rejected():
    F = make_field(2, 2)
    bad = [(0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1)]
    with pytest.raises(ValueError):
        extend_to_n3_arc(F, bad)


def test_greedy_restart_deterministic():
    F, hyper = _hyperoval(3)
    runs = [
        extend_to_n3_arc(F, hyper, strategy="greedy-restart", restarts=16, seed=11)
        for _ in range(2)
    ]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].found_n == runs[1][1].found_n
    different = extend_to_n3_arc(F, hyper, strategy="greedy-restart", restarts=16, seed=12)
    assert geo.is_n3_arc(F, different[0]) or geo.is_arc(F, different[0])


def test_greedy_restart_stops_at_target():
    F, hyper = _hyperoval(3)
    pts, stats = extend_to_n3_arc(F, hyper, strategy="greedy-restart", target_size=12)
    assert stats.found_n >= 12 and geo.is_n3_arc(F, pts)
    assert stats.restarts < 64 and not stats.budget_exhausted


def test_import_loads_no_thread_pool():
    src = str(Path(arccodes.__file__).parent.parent)
    code = "import sys, arccodes; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_dfs_reaches_fifteen_at_q8():
    F, hyper = _hyperoval(3)
    pts, stats = extend_to_n3_arc(F, hyper, strategy="dfs", target_size=15,
                                  max_seconds=30)
    assert stats.found_n >= 15
    assert geo.is_n3_arc(F, pts)
    assert classify(GeneratorMatrix.from_columns(F, pts)).category == "NMDS"


def test_unknown_strategy():
    F, hyper = _hyperoval(2)
    with pytest.raises(ValueError):
        extend_to_n3_arc(F, hyper, strategy="bogus")
