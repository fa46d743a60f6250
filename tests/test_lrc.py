import pytest

from arccodes.field import make_field
from arccodes import geometry as geo
from arccodes.codes import GeneratorMatrix
from arccodes.construct import build_even_matrix, build_odd_matrix, valid_v_set
from arccodes.fixtures import GOLDEN_Q4_EVEN
from arccodes.lrc import (
    bound_verdict,
    cm_bound,
    locality_report,
    lrc_report,
)
from arccodes.opoly import make_family_opoly


def test_locality_report_even_code():
    G = GOLDEN_Q4_EVEN.matrix()
    rep = locality_report(G)
    assert rep.r_primal == 2
    assert rep.r_dual == 9 - 4 == 4 + 1  # n-k-1 = q+1
    assert rep.cover_ok and rep.disjoint_ok
    assert len(rep.supports) == 10
    assert all(len(t) == 3 for t in rep.supports)


def test_locality_report_mds_inconclusive():
    F = make_field(2, 2)
    f = make_family_opoly(F, "translation", h=1)
    G = GeneratorMatrix.from_columns(F, geo.hyperoval_from_opoly(f))
    rep = locality_report(G)
    assert rep.supports == ()
    assert rep.r_primal is None and rep.r_dual is None
    assert not rep.cover_ok and not rep.disjoint_ok
    assert "inconclusive" in rep.remark


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
            for t in range(1, n) if n - t * (r + 1) >= 1]
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
