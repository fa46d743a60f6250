import itertools

import pytest

from arccodes.field import field_from_order, make_field
from arccodes import geometry as geo
from arccodes.codes import GeneratorMatrix, classify, weight_distribution
from arccodes.construct import build_even_matrix, build_odd_matrix, valid_v_set
from arccodes.fixtures import ALL_GOLDEN, GOLDEN_Q4_EVEN
from arccodes.lrc import (
    FLAGS,
    bound_verdict,
    cm_bound,
    code_report,
    locality_report,
    lrc_report,
)
from arccodes.opoly import make_family_opoly


def _brute_localities(G):
    """Each coordinate's (primal, dual) locality by definition, from all q^3
    codewords.  Coordinate i is recovered from R when every codeword that
    vanishes on R vanishes at i; None when no R does.  The dual's locality
    at i is one less than the least weight of a codeword nonzero at i."""
    F, n, cols = G.field, G.n, G.columns()
    zero_sets = set()
    for u in itertools.product(range(F.q), repeat=3):
        if any(u):
            zero_sets.add(frozenset(
                j for j, c in enumerate(cols)
                if not F.add(F.add(F.mul(u[0], c[0]), F.mul(u[1], c[1])), F.mul(u[2], c[2]))))
    out = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        primal = next((size for size in range(1, n) for R in itertools.combinations(others, size)
                       if not any(z.issuperset(R) and i not in z for z in zero_sets)), None)
        dual = min(n - len(z) for z in zero_sets if i not in z) - 1
        out.append((primal, dual))
    return tuple(out)


def test_locality_report_even_code():
    G = GOLDEN_Q4_EVEN.matrix()
    rep = locality_report(G)
    assert rep.r_primal == 2
    assert rep.r_dual == 9 - 4 == 4 + 1  # n-k-1 = q+1
    assert rep.coordinates == ((2, 5),) * 9 == _brute_localities(G)
    assert len(rep.supports) == 10
    assert all(len(t) == 3 for t in rep.supports)


@pytest.mark.parametrize("q", [4, 7])
def test_locality_report_mds(q):
    # the [6,3,4] MDS code of six arc points: no collinear triple, yet every
    # coordinate is recovered from 3 others, in the code and in its dual
    F = field_from_order(q)
    if q == 4:
        pts = geo.hyperoval_from_opoly(make_family_opoly(F, "translation", h=1))
    else:
        pts = geo.standard_oval(F)[:6]
    G = GeneratorMatrix.from_columns(F, pts)
    rep = locality_report(G)
    assert rep.supports == ()
    assert (rep.r_primal, rep.r_dual) == (3, 3)
    assert rep.coordinates == ((3, 3),) * 6 == _brute_localities(G)
    out = lrc_report(G)
    assert out["localities"] == [[3, 3]] * 6
    assert all(out[flag] for flag in ("d_optimal", "k_optimal", "dual_d_optimal", "dual_k_optimal"))


def test_locality_report_unrecoverable_coordinate():
    # three points of the line z = 0 and one point off it: the lone point is
    # not in the span of the others, so the code has no locality; its dual
    # [4,1,3] has locality 1
    F = make_field(3, 1)
    G = GeneratorMatrix.from_columns(F, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    rep = locality_report(G)
    assert (rep.r_primal, rep.r_dual) == (None, 1)
    assert rep.coordinates == ((2, 1), (2, 1), (2, 1), (None, 0)) == _brute_localities(G)
    out = lrc_report(G)
    assert [out[f] for f in ("d_optimal", "k_optimal")] == [None, None]
    assert out["dual_d_optimal"] is False and out["dual_k_optimal"] is True


def test_locality_report_matches_brute_force():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def codes_without_four_collinear(draw):
        F = field_from_order(draw(st.sampled_from([3, 4, 5, 7])))
        n = draw(st.integers(3, 9))
        chosen = []  # distinct points, never 4 on a line
        for p in draw(st.lists(st.sampled_from(geo.all_points(F)), min_size=2 * n, max_size=20)):
            if (len(chosen) < n and p not in chosen
                    and geo.LineProfile(F, chosen + [p]).max_line <= 3):
                chosen.append(p)
        scales = draw(st.lists(st.integers(1, F.q - 1), min_size=len(chosen),
                               max_size=len(chosen)))
        try:
            return GeneratorMatrix.from_columns(
                F, [tuple(F.mul(s, e) for e in p) for s, p in zip(scales, chosen)])
        except ValueError:  # fewer than 3 points, or 3 collinear ones spanning a line
            hypothesis.reject()

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(codes_without_four_collinear())
    def check(G):
        rep = locality_report(G)
        assert rep.coordinates == _brute_localities(G), G.rows
        primal = [r for r, _ in rep.coordinates]
        assert rep.r_primal == (None if None in primal else max(primal))
        assert rep.r_dual == max(r for _, r in rep.coordinates)

    check()


def test_singleton_like_check():
    for q in (4, 9, 11):
        v = bound_verdict(q + 5, 3, q + 2, 2)
        assert v.singleton_like_rhs == q + 2 and v.d_optimal
    # r = k recovers the classical bound n-k+1
    v = bound_verdict(10, 3, 8, 3)
    assert v.singleton_like_rhs == 8 and v.d_optimal
    v = bound_verdict(10, 3, 6, 2)
    assert v.singleton_like_rhs == 7 and not v.d_optimal
    with pytest.raises(ValueError):
        bound_verdict(10, 3, 9, 2)  # d above the bound
    with pytest.raises(ValueError):
        bound_verdict(10, 3, 6, 0)
    # no code has k outside [1, n] or d below 1
    for n, k, d, r in ((5, -9, 0, 1), (9, 0, 3, 2), (9, 3, -4, 2), (9, 10, 1, 2), (9, 3, 0, 2)):
        with pytest.raises(ValueError, match="need 1 <= k <= n and d >= 1"):
            bound_verdict(n, k, d, r)


def test_cm_bound_check():
    for q in (4, 9, 11):
        v = bound_verdict(q + 5, 3, q + 2, 2)
        assert v.cm_rhs == 3 and v.k_optimal
        # dual parameters
        v = bound_verdict(q + 5, q + 2, 3, q + 1)
        assert v.cm_rhs == q + 2 and v.k_optimal
    # d > n - (r+1) at t=1 leaves only the tr term
    v = bound_verdict(6, 2, 5, 2)
    assert v.cm_rhs == 2 and v.k_optimal
    assert cm_bound(9, 6, 2) == 3
    with pytest.raises(ValueError):
        cm_bound(3, 1, 3)  # no feasible t
    assert cm_bound(10 ** 12, 5, 1) == 499999999998  # O(1) in n


def _cm_bound_by_scan(n, d, r):
    """The Cadambe-Mazumdar minimum by trying every feasible t; None if none."""
    vals = [t * r + max(n - t * (r + 1) - d + 1, 0)
            for t in range(1, n) if n - t * (r + 1) >= 0]
    return min(vals, default=None)


def test_cm_bound_matches_scan():
    for n in range(70):
        for d in range(-3, n + 3):
            for r in range(1, 12):
                expected = _cm_bound_by_scan(n, d, r)
                if expected is None:
                    with pytest.raises(ValueError):
                        cm_bound(n, d, r)
                else:
                    assert cm_bound(n, d, r) == expected, (n, d, r)


def _frame():
    F = make_field(5, 1)
    return GeneratorMatrix(F, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])


@pytest.mark.parametrize("G", [g.matrix() for g in ALL_GOLDEN] + [_frame()])
def test_lrc_report_from_a_distribution_matches_the_code_report(G):
    assert lrc_report(G, weight_distribution(G)) == code_report(G).lrc


def test_frame_has_full_length_locality():
    # n = r + 1: the one feasible t fills the length, k_opt(0, d) = 0
    rep = lrc_report(_frame())
    assert (rep["n"], rep["k"], rep["d"], rep["r_primal"], rep["r_dual"]) == (4, 3, 2, 3, 1)
    assert rep["localities"] == [[3, 1]] * 4
    assert all(rep[flag] is True for flag in FLAGS)
    assert (rep["cm_rhs"], rep["dual_cm_rhs"]) == (3, 1)
    assert cm_bound(4, 2, 3) == 3


def test_bounds_hold_on_every_small_code_of_pg2_3():
    """Every set of 4 or 5 points of PG(2,3) that spans the plane, with no 4
    collinear: the report exists, and k and d of the code and of its dual
    are within the bounds that judge them."""
    F = make_field(3, 1)
    points, seen = geo.all_points(F), 0
    for n in (4, 5):
        for cols in itertools.combinations(points, n):
            try:
                G = GeneratorMatrix.from_columns(F, cols)
            except ValueError:  # collinear
                continue
            if G.line_profile().max_line >= 4:
                continue
            profile = classify(G)
            rep = lrc_report(G)
            seen += 1
            if rep["r_primal"] is not None:  # else a coordinate has no recovery set
                assert 3 <= rep["cm_rhs"] and profile.d <= rep["singleton_like_rhs"], cols
            assert n - 3 <= rep["dual_cm_rhs"], cols
            assert profile.d_dual <= rep["dual_singleton_like_rhs"], cols
    assert seen == 1872


def test_bound_verdict_fields():
    v = bound_verdict(9, 3, 6, 2)
    assert v.d_optimal and v.k_optimal
    assert v.singleton_like_rhs == 6 and v.cm_rhs == 3
    d = v.to_dict()
    assert d["cm_bound_model"] == "singleton-relaxed"


@pytest.mark.parametrize("q,parity", [(4, "even"), (8, "even"), (9, "odd"), (11, "odd")])
def test_lrc_report_constructed(q, parity):
    from arccodes.field import field_from_order
    from arccodes.construct import valid_w_set

    F = field_from_order(q)
    if parity == "even":
        f = make_family_opoly(F, "translation", h=1)
        G = build_even_matrix(f, min(valid_v_set(f)))
    else:
        G = build_odd_matrix(F, min(valid_w_set(F)))
    rep = lrc_report(G)
    assert rep["n"] == q + 5 and rep["k"] == 3 and rep["d"] == q + 2
    assert rep["r_primal"] == 2 and rep["r_dual"] == q + 1
    assert rep["d_optimal"] and rep["k_optimal"]
    assert rep["dual_d_optimal"] and rep["dual_k_optimal"]
    # every coordinate is covered by some weight-3 dual support
    covered = set()
    for t in rep["supports"]:
        covered.update(t)
    assert covered == set(range(q + 5))


def test_proof_triples_have_empty_intersection():
    F = make_field(2, 3)
    f = make_family_opoly(F, "translation", h=1)
    G = build_even_matrix(f, min(valid_v_set(f)))
    q = F.q
    triples = {tuple(t) for t in lrc_report(G)["supports"]}
    want = {(q, q + 1, q + 2), (q - 1, q + 1, q + 3), (q - 1, q, q + 4)}
    assert want <= triples
    assert set.intersection(*map(set, want)) == set()
