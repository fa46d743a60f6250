import hashlib
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import arccodes

from arccodes.field import field_from_order, make_field
from arccodes import arcsearch, geometry as geo
from arccodes.arcsearch import extend_to_n3_arc
from arccodes.codes import GeneratorMatrix, classify, nmds_closed_form
from arccodes.fixtures import GOLDEN_Q8_LENGTH15
from arccodes.lrc import code_report
from arccodes.construct import build_even_matrix, build_odd_matrix, valid_v_set, valid_w_set
from arccodes.opoly import applicable_families, make_family_opoly
from conftest import incident


def _hyperoval(q_m):
    F = make_field(2, q_m)
    f = make_family_opoly(F, "translation", h=1)
    return F, geo.hyperoval_from_opoly(f)


@lru_cache(maxsize=None)
def _pencils(F):
    """Point -> indices of the lines through it, ascending, by the incidence
    test of every point with every line.  Points and lines share one index
    list and incidence is symmetric, so each pair i <= j is tested once."""
    points = geo.all_points(F)
    through = [[] for _ in points]
    for i, p in enumerate(points):
        for j in range(i, len(points)):
            if incident(F, p, points[j]):
                through[i].append(j)
                if j != i:
                    through[j].append(i)
    return {p: tuple(t) for p, t in zip(points, through)}


def line_multiplicities(F, points):
    """Per-line point counts, indexed like geometry.all_points(F)."""
    pencils = _pencils(F)
    mult = [0] * len(pencils)
    for p in points:
        for li in pencils[geo.canonical(F, p)]:
            mult[li] += 1
    return mult


class _Budget:
    """The oracle's node limit and target size: `spend` lets one more node
    through and counts it, or refuses it once a node was refused or `best`
    reaches the target size."""

    def __init__(self, max_nodes, target_size):
        self.max_nodes = max_nodes
        self.target_size = target_size
        self.nodes = 0
        self.exhausted = False

    def done(self, best) -> bool:
        return self.exhausted or (self.target_size is not None and len(best) >= self.target_size)

    def spend(self, best) -> bool:
        if self.done(best):
            return False
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            self.exhausted = True
            return False
        self.nodes += 1
        return True


def _list_rebuild_search(F, base, strategy="dfs", max_nodes=None, target_size=None,
                         seed=0, restarts=64):
    """Slow-path oracle for extend_to_n3_arc: candidates are a list, and every
    node re-tests the pencil of each remaining candidate against the line
    counts.  Returns (points, nodes, restarts, prunes, budget_exhausted)."""
    base_pts = geo.validate_point_set(F, base)
    pencils = _pencils(F)
    mult = line_multiplicities(F, base_pts)
    chosen_set = set(base_pts)
    candidates = [p for p in pencils
                  if p not in chosen_set and all(mult[li] <= 2 for li in pencils[p])]
    budget = _Budget(max_nodes, target_size)
    best = list(base_pts)

    def record(pts):
        nonlocal best
        if len(pts) > len(best) or (len(pts) == len(best) and pts < best):
            best = list(pts)

    done_restarts = prunes = 0
    if strategy == "dfs":
        def dfs(chosen, cands):
            nonlocal prunes
            for i, p in enumerate(cands):
                if len(chosen) + len(cands) - i <= len(best):
                    prunes += 1
                    return
                if not budget.spend(best):
                    return
                for li in pencils[p]:
                    mult[li] += 1
                chosen.append(p)
                record(chosen)
                dfs(chosen, [r for r in cands[i + 1:] if all(mult[li] <= 2 for li in pencils[r])])
                chosen.pop()
                for li in pencils[p]:
                    mult[li] -= 1

        dfs(list(base_pts), candidates)
    else:
        while done_restarts < restarts and not budget.done(best):
            order = list(candidates)
            random.Random(seed * 1_000_003 + done_restarts).shuffle(order)
            local_mult = list(mult)
            pts = list(base_pts)
            for p in order:
                if not budget.spend(best):
                    break
                if all(local_mult[li] <= 2 for li in pencils[p]):
                    pts.append(p)
                    for li in pencils[p]:
                        local_mult[li] += 1
            done_restarts += 1
            record(pts)
    return best, budget.nodes, done_restarts, prunes, budget.exhausted


def _oracle_bases():
    """Two hyperovals per even q (at q=4, the hyperoval and the columns of an
    even-construction code, whose lines with three points start out full),
    and the conic at odd q."""
    F = make_field(2, 2)
    f = make_family_opoly(F, "translation", h=1)
    yield F, geo.hyperoval_from_opoly(f)
    yield F, build_even_matrix(f, min(valid_v_set(f))).columns()
    for m in (3, 4, 5):
        F = make_field(2, m)
        families = applicable_families(F)
        for f in (families[0], families[-1]):
            yield F, geo.hyperoval_from_opoly(f)
    for q in (5, 7, 9, 11):
        F = field_from_order(q)
        yield F, geo.standard_oval(F)


def _outcome(F, base, **kwargs):
    pts, stats = extend_to_n3_arc(F, base, **kwargs)
    assert (stats.arc, stats.found_n) == (pts, len(pts))
    return pts, stats.nodes, stats.restarts, stats.prunes, stats.budget_exhausted


def test_bitset_search_matches_list_rebuild_oracle():
    bases = list(_oracle_bases())
    assert len(bases) == 12
    for F, base in bases:
        # None: the q=4 searches run to completion
        for max_nodes in (1, 7, 50, 2000) + ((None,) if F.q == 4 else ()):
            got = _outcome(F, base, strategy="dfs", max_nodes=max_nodes)
            assert got == _list_rebuild_search(F, base, "dfs", max_nodes), (F.q, max_nodes)
    F, hyper = _hyperoval(3)
    assert (_outcome(F, hyper, strategy="dfs", target_size=15)
            == _list_rebuild_search(F, hyper, "dfs", target_size=15))
    for F, base in (_hyperoval(3), (field_from_order(7), geo.standard_oval(field_from_order(7)))):
        for seed in (0, 5):
            for max_nodes in (None, 1000):
                got = _outcome(F, base, strategy="greedy-restart", seed=seed,
                               max_nodes=max_nodes)
                want = _list_rebuild_search(F, base, "greedy-restart", max_nodes, seed=seed)
                assert got == want, (F.q, seed, max_nodes)


def test_budget_edges_match_list_rebuild_oracle():
    F7 = field_from_order(7)
    for F, base in (_hyperoval(3), (F7, geo.standard_oval(F7))):
        for strategy in ("dfs", "greedy-restart"):
            # a target the base already meets: no node is tried
            for target in (len(base) - 1, len(base)):
                got = _outcome(F, base, strategy=strategy, target_size=target)
                assert got == _list_rebuild_search(F, base, strategy, target_size=target)
                assert (len(got[0]), got[1:]) == (len(base), (0, 0, 0, False))
            # an hour never runs out, so only the node budget stops the search
            got = _outcome(F, base, strategy=strategy, max_nodes=2000, max_seconds=3600)
            assert got == _outcome(F, base, strategy=strategy, max_nodes=2000)
            assert got == _list_rebuild_search(F, base, strategy, 2000)
    # the q=8 DFS reaches 15 points at its 6th node: a node budget of 6 is
    # not exhausted, one of 5 is
    F, hyper = _hyperoval(3)
    for max_nodes, reached in ((5, False), (6, True), (50, True)):
        got = _outcome(F, hyper, strategy="dfs", max_nodes=max_nodes, target_size=15)
        assert got == _list_rebuild_search(F, hyper, "dfs", max_nodes, target_size=15)
        assert (len(got[0]) == 15, got[4]) == (reached, not reached)


def test_bitset_search_matches_list_rebuild_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def bases(draw):
        """A point set with no four on a line whose first three points lie
        on one line, so the search starts with a full line."""
        F = field_from_order(draw(st.sampled_from([4, 5, 7, 8])))
        pencils = _pencils(F)
        points = list(pencils)
        # points and lines share one list: the points on the line with a
        # point's coordinates are that point's pencil
        on_line = pencils[draw(st.sampled_from(points))]
        picks = draw(st.lists(st.sampled_from(on_line), min_size=3, max_size=3, unique=True))
        picks += draw(st.lists(st.integers(0, len(points) - 1), max_size=12, unique=True))
        base, mult = [], [0] * len(points)
        for i in dict.fromkeys(picks):
            through = pencils[points[i]]
            if all(mult[li] < 3 for li in through):
                base.append(points[i])
                for li in through:
                    mult[li] += 1
        return F, base

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(bases(), st.integers(1, 500), st.none() | st.integers(1, 16),
                      st.integers(0, 99), st.integers(1, 8))
    def check(case, max_nodes, target, seed, restarts):
        F, base = case
        assert max(line_multiplicities(F, base)) == 3
        got = _outcome(F, base, strategy="dfs", max_nodes=max_nodes, target_size=target)
        assert got == _list_rebuild_search(F, base, "dfs", max_nodes, target)
        got = _outcome(F, base, strategy="greedy-restart", max_nodes=max_nodes,
                       target_size=target, seed=seed, restarts=restarts)
        assert got == _list_rebuild_search(F, base, "greedy-restart", max_nodes, target,
                                           seed=seed, restarts=restarts)

    check()


def test_q32_dfs_pinned():
    F, hyper = _hyperoval(5)
    pts, stats = extend_to_n3_arc(F, hyper, strategy="dfs", max_nodes=10_000)
    assert (stats.found_n, stats.nodes, stats.prunes) == (44, 10_000, 9363)
    assert stats.budget_exhausted and geo.is_n3_arc(F, pts)


FRAME = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]


@pytest.mark.parametrize("q, pinned", [
    (3, (9, 17, 12)), (4, (9, 438, 351)), (5, (11, 4_679, 4_281)),
    pytest.param(7, (15, 912_924, 902_105), marks=pytest.mark.long),
])
def test_complete_frame_dfs_pinned(q, pinned):
    """The complete DFS from the frame: (found_n, nodes, prunes)."""
    F = field_from_order(q)
    pts, stats = extend_to_n3_arc(F, FRAME, strategy="dfs")
    assert (stats.found_n, stats.nodes, stats.prunes) == pinned
    assert not stats.budget_exhausted and geo.is_n3_arc(F, pts)
    assert set(FRAME) <= set(pts)


@pytest.mark.parametrize("q, tally, nodes, prunes", [
    (4, {9: 2}, 0, 0), (5, {11: 1}, 1, 0), (7, {13: 1}, 1, 1),
    (8, {13: 8, 15: 24}, 48, 24), (9, {15: 2}, 4, 2), (11, {18: 1, 19: 1}, 8, 7),
    (13, {21: 2, 22: 1}, 36, 31), (16, {25: 16, 26: 7, 27: 9}, 2_075, 1_681),
])
def test_paper_codes_extend_completely(q, tally, nodes, prunes):
    """The complete DFS from every paper code's q+5 columns: the largest
    (n,3)-arc holding them, a longer [n,3,n-3] NMDS code that punctures to
    the paper's.  Pinned: the tally of found_n, the total nodes and prunes."""
    F = field_from_order(q)
    if F.p == 2:
        built = [build_even_matrix(f, v) for f in applicable_families(F)
                 for v in sorted(valid_v_set(f))]
    else:
        built = [build_odd_matrix(F, w) for w in sorted(valid_w_set(F))]
    got, total_nodes, total_prunes = {}, 0, 0
    for G in built:
        pts, stats = extend_to_n3_arc(F, G.columns(), max_seconds=None)
        assert not stats.budget_exhausted and geo.is_n3_arc(F, pts)
        assert set(geo.validate_point_set(F, G.columns())) <= set(pts)  # odd columns are not canonical
        n = stats.found_n
        report = code_report(GeneratorMatrix.from_columns(F, pts))
        primal, dual = nmds_closed_form(n, 3, q, report.distribution[n - 3])
        assert (report.distribution, report.dual_distribution) == (primal, dual)
        got[n] = got.get(n, 0) + 1
        total_nodes += stats.nodes
        total_prunes += stats.prunes
    assert (got, total_nodes, total_prunes) == (tally, nodes, prunes)


def test_dfs_path_needs_no_recursion():
    """The DFS holds its path in a list, so it may go deeper than the
    recursion limit: 31 points past the frame at q=31, under a limit 20
    frames above the caller's depth."""
    F = field_from_order(31)
    limit = sys.getrecursionlimit()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(depth + 20)
    try:
        pts, stats = extend_to_n3_arc(F, FRAME, strategy="dfs", max_nodes=200)
    finally:
        sys.setrecursionlimit(limit)
    assert stats.found_n == 35 and geo.is_n3_arc(F, pts)


def _digest(arc):
    return hashlib.sha256(repr(arc).encode()).hexdigest()[:12]


def test_benchmark_searches_pinned():
    """The searches of the benchmark's `search` workload: a 10,000-node DFS
    from every q=32 hyperoval family, as (found_n, prunes, arc digest), and
    the q=31 conic's 16 greedy restarts at seed 1."""
    F = make_field(2, 5)
    pinned = {"translation:h=1": (44, 9363, "15baf9156cd7"),
              "translation:h=2": (46, 9717, "ad80f8cd299b"),
              "translation:h=3": (46, 9727, "88c4667d9afb"),
              "translation:h=4": (44, 9464, "ed979218bbda"),
              "segre": (47, 9772, "7090346b68e7"), "glynn1": (46, 9772, "3d8818374c77"),
              "glynn3": (46, 9739, "1ad16990bd4b"), "cherowitzo": (47, 9864, "5d22bd94a8f0"),
              "payne": (45, 9646, "6591a6d9fb35"), "subiaco:a=1": (45, 9598, "ff3dc44eb69d")}
    families = applicable_families(F)
    assert [f.descriptor() for f in families] == list(pinned)
    for f in families:
        _, stats = extend_to_n3_arc(F, geo.hyperoval_from_opoly(f), strategy="dfs",
                                    max_nodes=10_000)
        got = (stats.found_n, stats.prunes, _digest(stats.arc))
        assert got == pinned[f.descriptor()], f.descriptor()
        assert (stats.nodes, stats.budget_exhausted) == (10_000, True)
    F = field_from_order(31)
    pts, stats = extend_to_n3_arc(F, geo.standard_oval(F), strategy="greedy-restart",
                                  restarts=16, seed=1)
    assert (stats.found_n, stats.nodes, stats.restarts) == (42, 15_376, 16)
    assert _digest(stats.arc) == "e922ace6e875"
    assert not stats.budget_exhausted and geo.is_n3_arc(F, pts)


def test_conclusion_matrix_profile():
    G = GOLDEN_Q8_LENGTH15.matrix()
    assert (G.k, G.n) == (3, 15)
    assert G.field.modulus == (1, 1, 0, 1)
    p = classify(G)
    assert (p.n, p.k, p.d, p.category) == (15, 3, 12, "NMDS")


def test_conclusion_report():
    G = GOLDEN_Q8_LENGTH15.matrix()
    F, pts = G.field, G.columns()
    assert geo.is_n3_arc(F, pts)
    # the first q+2 columns are the translation hyperoval the arc extends
    hyper = geo.hyperoval_from_opoly(make_family_opoly(F, "translation", h=1))
    assert set(pts[:10]) == set(hyper) and geo.is_arc(F, pts[:10])
    # 15 = 2q-1 beats the elliptic-curve length ceiling q + floor(2 sqrt q) + 1 = 14
    assert G.n == 2 * 8 - 1 > 8 + 5 + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_pencils_match_incidence_scan(q):
    F = field_from_order(q)
    plane, pencils = arcsearch._Plane(F), _pencils(F)
    assert plane.points == list(pencils)
    top = len(pencils) - 1  # index li is bit top - li
    assert plane.top == top
    for i, scan in enumerate(pencils.values()):
        assert len(scan) == q + 1
        assert plane.mask(i) == sum(1 << (top - li) for li in scan)


def test_plane_masks_built_on_first_use():
    F = field_from_order(8)
    plane = arcsearch._Plane(F)
    assert plane.masks == [None] * len(plane.points)
    mask = plane.mask(5)
    assert mask.bit_count() == 9
    assert [i for i, m in enumerate(plane.masks) if m is not None] == [5]
    assert plane.mask(5) is mask


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
    base = G.columns()
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


def test_deadline_read_every_1024th_node(monkeypatch):
    """The clock is read before nodes 0, 1024, 2048, ... only: a deadline
    that has passed stops a search by its 1024th node, and one that never
    passes costs one clock read per 1024 nodes."""
    F, hyper = _hyperoval(5)
    for strategy in ("dfs", "greedy-restart"):
        pts, stats = extend_to_n3_arc(F, hyper, strategy=strategy, max_seconds=1e-6)
        assert stats.budget_exhausted and stats.nodes <= 1024, strategy
    reads = 0
    monotonic = arcsearch.time.monotonic

    def counted():
        nonlocal reads
        reads += 1
        return monotonic()

    monkeypatch.setattr(arcsearch.time, "monotonic", counted)
    for strategy in ("dfs", "greedy-restart"):
        counts = []
        for max_seconds in (None, 3600):
            reads = 0
            pts, stats = extend_to_n3_arc(F, hyper, strategy=strategy, max_nodes=5000,
                                          max_seconds=max_seconds)
            assert stats.nodes == 5000 and stats.budget_exhausted
            counts.append(reads)
        # the deadline itself, then nodes 0, 1024, 2048, 3072 and 4096
        assert counts[1] - counts[0] == 6, strategy


@pytest.mark.parametrize("bad", [
    {"max_nodes": 0}, {"max_nodes": -3}, {"restarts": 0}, {"restarts": -3},
    {"max_seconds": 0}, {"max_seconds": -1.0}, {"workers": 2}, {"workers": 0},
    {"target_size": 0}, {"target_size": -1},
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


def test_unknown_strategy(monkeypatch):
    F, hyper = _hyperoval(6)

    def no_plane(F):
        raise AssertionError("the plane was built for a search that cannot run")

    monkeypatch.setattr(arcsearch, "_plane", no_plane)
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        extend_to_n3_arc(F, hyper, strategy="bogus")


def test_prunes_counted_by_dfs_only():
    F, hyper = _hyperoval(2)
    pts, stats = extend_to_n3_arc(F, hyper, strategy="dfs")
    assert not stats.budget_exhausted and stats.prunes > 0
    assert stats.to_dict(F)["prunes"] == stats.prunes
    pts, stats = extend_to_n3_arc(F, hyper, strategy="greedy-restart")
    assert stats.prunes == 0 and stats.to_dict(F)["prunes"] == 0


def test_plane_kept_for_the_last_field_only():
    F7, F8 = field_from_order(7), field_from_order(8)
    extend_to_n3_arc(F7, geo.standard_oval(F7), max_nodes=5)
    extend_to_n3_arc(F8, _hyperoval(3)[1], max_nodes=5)
    assert arcsearch._plane.cache_info().currsize == 1
    assert arcsearch._plane(F8).points == geo.all_points(F8)
