import random

import pytest

from arccodes.field import make_field, field_from_order
from arccodes import geometry as geo
from arccodes.opoly import make_custom_opoly, make_family_opoly


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_plane_counts(q):
    F = field_from_order(q)
    pts = geo.all_points(F)
    lines = geo.all_lines(F)
    assert len(pts) == q * q + q + 1
    assert len(set(pts)) == len(pts)
    assert pts == sorted(pts)
    assert lines == pts  # self-dual representation
    # every line carries q+1 points
    for u in lines[:5]:
        assert sum(1 for p in pts if geo.incident(F, p, u)) == q + 1


def test_canonicalization():
    F = make_field(3, 2)
    assert geo.canonical(F, (0, 0, 2)) == (0, 0, 1)
    p = geo.canonical(F, (3, 6, 2))
    assert p[2] == 1
    with pytest.raises(ValueError):
        geo.canonical(F, (0, 0, 0))


def test_incidence_basics():
    F2 = make_field(2, 1)
    assert geo.incident(F2, (1, 0, 0), (0, 0, 1))
    assert not geo.incident(F2, (1, 1, 1), (1, 1, 1))  # 1+1+1 = 1 in GF(2)
    F = make_field(2, 2)
    p1, p2 = (3, 2, 1), (1, 1, 1)
    u = geo.line_through(F, p1, p2)
    assert geo.incident(F, p1, u) and geo.incident(F, p2, u)


def test_line_through_basics():
    F = make_field(2, 2)
    assert geo.line_through(F, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert geo.line_through(F, (1, 0, 0), (0, 0, 1)) == (0, 1, 0)
    with pytest.raises(ValueError):
        geo.line_through(F, (1, 0, 0), (1, 0, 0))
    # proportional (projectively equal) triples are also rejected
    F9 = make_field(3, 2)
    with pytest.raises(ValueError):
        geo.line_through(F9, (1, 2, 0), (2, 1, 0))  # (2,1,0) = 2 * (1,2,0)


@pytest.mark.parametrize("q", [2, 4, 5, 9])
def test_line_through_checks_its_points(q):
    F = field_from_order(q)
    for bad in (q, -1, q + 7):
        with pytest.raises(ValueError, match="not an element index"):
            geo.line_through(F, (1, bad, 0), (0, 0, 1))
        with pytest.raises(ValueError, match="not an element index"):
            geo.line_through(F, (1, 0, 0), (0, 1, bad))
    g = F.primitive_element()
    for p1, p2 in (((1, 1, 1), (1, 1, 1)), ((1, 1, 1), (g, g, g)), ((0, 0, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match="coincide"):
            geo.line_through(F, p1, p2)


def test_duality_symmetry():
    F = make_field(2, 2)
    pts = geo.all_points(F)
    for p in pts[:8]:
        for u in pts[:8]:
            assert geo.incident(F, p, u) == geo.incident(F, u, p)


def test_hyperoval_gf4():
    F = make_field(2, 2)
    f = make_family_opoly(F, "translation", h=1)
    pts = geo.hyperoval_from_opoly(f)
    assert len(pts) == 6
    profile, biggest = geo.line_intersection_profile(F, pts)
    assert set(profile) == {0, 2}
    assert biggest == 2
    assert geo.is_arc(F, pts)
    assert not geo.is_n3_arc(F, pts)


def test_hyperoval_gf8_segre():
    F = make_field(2, 3)
    pts = geo.hyperoval_from_opoly(make_family_opoly(F, "segre"))
    assert len(pts) == 10
    profile, _ = geo.line_intersection_profile(F, pts)
    assert set(profile) == {0, 2}


def test_hyperoval_rejects_non_opolynomial():
    F = make_field(2, 2)
    with pytest.raises(ValueError):
        geo.hyperoval_from_opoly(make_custom_opoly(F, [0, 1]))


def test_standard_oval():
    F9 = make_field(3, 2)
    pts = geo.standard_oval(F9)
    assert len(pts) == 10
    profile, biggest = geo.line_intersection_profile(F9, pts)
    assert set(profile) <= {0, 1, 2}
    assert biggest == 2
    assert geo.is_arc(F9, pts)
    F3 = make_field(3, 1)
    assert set(geo.standard_oval(F3)) == {(0, 0, 1), (1, 1, 1), (1, 2, 1), (1, 0, 0)}
    with pytest.raises(ValueError):
        geo.standard_oval(make_field(2, 2))


def test_oval_gf11_profile():
    F = make_field(11)
    pts = geo.standard_oval(F)
    assert len(pts) == 12
    profile, _ = geo.line_intersection_profile(F, pts)
    assert set(profile) == {0, 1, 2}


def _scanned_profile(F, points):
    """Columns per line by testing every point against every line."""
    profile = {}
    for u in geo.all_lines(F):
        c = sum(1 for p in points if geo.incident(F, p, u))
        profile[c] = profile.get(c, 0) + 1
    return profile


def test_line_profile_matches_line_scan():
    rng = random.Random(11)
    for q in (2, 3, 4, 5, 8, 9, 16):
        F = field_from_order(q)
        pts = geo.all_points(F)
        for size in (0, 1, 2, 5, q + 2, 2 * q):
            chosen = [rng.choice(pts) for _ in range(size)]  # repeats allowed
            profile, biggest = geo.line_intersection_profile(F, chosen)
            assert profile == _scanned_profile(F, chosen), (q, chosen)
            assert biggest == max((c for c in profile if c), default=0)


def test_line_profile_summary():
    F = make_field(3, 1)
    # (0,0,1) twice, (1,0,1) and (2,0,1) on the line y = 0; a zero column
    cols = [(0, 0, 1), (0, 0, 2), (1, 0, 1), (0, 0, 0), (2, 0, 1), (1, 1, 1)]
    lp = geo.LineProfile(F, cols)
    assert lp.zeros == 1 and lp.repeated
    # y = 0, and x = y through the doubled point and (1,1,1)
    assert lp.rich == ((0, 1, 2, 4), (0, 1, 5))
    assert lp.max_line == 4
    assert lp.counts == {0: 2, 1: 5, 2: 4, 3: 1, 4: 1}  # 13 lines in PG(2,3)


def test_four_collinear_fails_both_predicates():
    F = make_field(2, 2)
    pts = [(0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]  # all on z = 0
    assert not geo.is_arc(F, pts)
    assert not geo.is_n3_arc(F, pts)


def test_point_set_rejects_duplicates():
    F = make_field(3, 1)
    with pytest.raises(ValueError):
        geo.is_arc(F, [(1, 1, 1), (2, 2, 2)])  # projectively equal


def test_point_text_forms():
    F = make_field(2, 3)
    p = (5, 2, 1)
    assert geo.point_from_str(F, geo.point_to_str(F, p)) == p
    assert geo.point_from_str(F, "g^6:g^1:1") == (5, 2, 1)
    with pytest.raises(ValueError):
        geo.point_from_str(F, "1:2")
