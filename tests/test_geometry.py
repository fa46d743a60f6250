import random
import re
from collections import Counter

import pytest

from arccodes.field import GF, Kernel, make_field, field_from_order, prime_factors
from arccodes import geometry as geo
from arccodes.codes import GeneratorMatrix
from arccodes.construct import (
    build_even_matrix,
    build_odd_matrix,
    even_closed_form,
    odd_closed_form,
    valid_v_set,
    valid_w_set,
)
from arccodes.opoly import applicable_families, make_custom_opoly, make_family_opoly
from conftest import incident, kernel_slopes, paper_code, paper_codes


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_plane_counts(q):
    F = field_from_order(q)
    pts = geo.all_points(F)
    assert len(pts) == q * q + q + 1
    assert len(set(pts)) == len(pts)
    assert pts == sorted(pts)
    # every line carries q+1 points; lines share the points' canonical form
    for u in pts[:5]:
        assert sum(1 for p in pts if incident(F, p, u)) == q + 1


def test_canonicalization():
    F = make_field(3, 2)
    assert geo.canonical(F, (0, 0, 2)) == (0, 0, 1)
    p = geo.canonical(F, (3, 6, 2))
    assert p[2] == 1
    with pytest.raises(ValueError):
        geo.canonical(F, (0, 0, 0))


def test_canonical_refuses_non_integer_coordinates():
    F = make_field(5, 1)
    assert geo.canonical(F, (True, 0, 2)) == (3, 0, 1)
    for bad in ((1.5, 0, 1), (1.0, 0, 1), ("1", 0, 1), (0, 0, 1.0)):
        with pytest.raises(ValueError, match="not an element index"):
            geo.canonical(F, bad)
        with pytest.raises(ValueError, match="not an element index"):
            geo.line_intersection_profile(F, [(0, 1, 0), bad])


def _join(F, p1, p2):
    """The line through two distinct points: their cross product, in the
    canonical form."""
    return geo.canonical(F, (F.sub(F.mul(p1[1], p2[2]), F.mul(p1[2], p2[1])),
                             F.sub(F.mul(p1[2], p2[0]), F.mul(p1[0], p2[2])),
                             F.sub(F.mul(p1[0], p2[1]), F.mul(p1[1], p2[0]))))


def test_incidence_basics():
    F2 = make_field(2, 1)
    assert incident(F2, (1, 0, 0), (0, 0, 1))
    assert not incident(F2, (1, 1, 1), (1, 1, 1))  # 1+1+1 = 1 in GF(2)
    F = make_field(2, 2)
    p1, p2 = (3, 2, 1), (1, 1, 1)
    u = _join(F, p1, p2)
    assert incident(F, p1, u) and incident(F, p2, u)


@pytest.mark.parametrize("q", [2, 4, 5, 9])
def test_join_and_canonical_share_one_form(q):
    """The canonical points are all_points itself, and the join of two of
    them, as a line, is one of them too, incident with both."""
    F = field_from_order(q)
    pts = geo.all_points(F)
    assert [geo.canonical(F, p) for p in pts] == pts
    members = set(pts)
    for p1 in pts[::3]:
        for p2 in pts:
            if p1 == p2:
                continue
            u = _join(F, p1, p2)
            assert u in members and incident(F, p1, u) and incident(F, p2, u)
    with pytest.raises(ValueError, match="the zero vector has no projective point"):
        geo.canonical(F, (0, 0, 0))


def test_duality_symmetry():
    F = make_field(2, 2)
    pts = geo.all_points(F)
    for p in pts[:8]:
        for u in pts[:8]:
            assert incident(F, p, u) == incident(F, u, p)


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
    for u in geo.all_points(F):
        c = sum(1 for p in points if incident(F, p, u))
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


PROFILE_FIELDS = ("counts", "rich", "zeros", "repeated", "max_line")


def _pairwise_profile(F, columns):
    """LineProfile's fields the slow way: a member set for every line
    through two or more points, filled from every pair."""
    groups = {}
    for idx, col in enumerate(columns):
        groups.setdefault(geo.canonical(F, col) if any(col) else None, []).append(idx)
    zeros = len(groups.pop(None, ()))
    pts, mult = list(groups), [len(g) for g in groups.values()]
    lines = {}
    for i, p in enumerate(pts):
        for j in range(i + 1, len(pts)):
            lines.setdefault(_join(F, p, pts[j]), set()).update((i, j))
    through = [0] * len(pts)
    counts = {}
    rich = []
    for members in lines.values():
        for i in members:
            through[i] += 1
        cols = tuple(sorted(c for i in members for c in groups[pts[i]]))
        counts[len(cols)] = counts.get(len(cols), 0) + 1
        if len(cols) >= 3:
            rich.append(cols)
    for i, m in enumerate(mult):
        counts[m] = counts.get(m, 0) + F.q + 1 - through[i]
    counts[0] = F.q * F.q + F.q + 1 - sum(counts.values())
    counts = {c: t for c, t in sorted(counts.items()) if t}
    return {"counts": counts, "rich": tuple(sorted(rich)), "zeros": zeros,
            "repeated": any(m > 1 for m in mult), "max_line": max(counts)}


def _profile_fields(lp):
    return {f: getattr(lp, f) for f in PROFILE_FIELDS}


def _assert_profile_matches_pairwise(F, columns, *also):
    """The profile of the columns, and any profile in `also` of the same
    columns, against the pairwise oracle."""
    expected = _pairwise_profile(F, columns)
    for entry, lp in enumerate((geo.LineProfile(F, columns), *also)):
        assert _profile_fields(lp) == expected, (F.q, entry, columns)


def _random_columns(rng, F, size):
    """Random columns with zero columns, nonzero multiples of earlier columns
    and exact repeats mixed in."""
    g = F.primitive_element()
    cols = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.1:
            cols.append((0, 0, 0))
        elif roll < 0.25 and cols:
            s = F.pow(g, rng.randrange(F.q - 1))
            cols.append(tuple(F.mul(s, e) for e in rng.choice(cols)))
        elif roll < 0.35 and cols:
            cols.append(rng.choice(cols))
        else:
            cols.append(tuple(rng.randrange(F.q) for _ in range(3)))
    return cols


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32])
def test_line_profile_matches_pairwise_on_random_columns(q):
    rng = random.Random(1000 + q)
    F = field_from_order(q)
    for size in (0, 1, 2, 3, 4, 6, q + 2, 2 * q, 3 * q + 1):
        for _ in range(4):
            _assert_profile_matches_pairwise(F, _random_columns(rng, F, size))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_line_profile_matches_pairwise_on_a_full_line(q):
    F = field_from_order(q)
    pts = geo.all_points(F)
    line = geo.all_points(F)[q]
    on = [p for p in pts if incident(F, p, line)]
    off = [p for p in pts if not incident(F, p, line)]
    assert len(on) == q + 1
    _assert_profile_matches_pairwise(F, on)
    _assert_profile_matches_pairwise(F, off[:3] + on + off[-2:])
    _assert_profile_matches_pairwise(F, on[:4] + off[:2] + [on[0], (0, 0, 0)])


def _scaled(F, s, point):
    return tuple(F.mul(s, e) for e in point)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11])
def test_line_profile_matches_pairwise_from_points_at_infinity(q):
    """Each pivot form: rich lines whose lowest column is (1,0,0) or
    (a,1,0), the line z = 0 holding three or more columns, repeated and
    scaled columns at infinity, and columns listed infinity first."""
    F = field_from_order(q)
    rng = random.Random(q)
    g, a, c = F.primitive_element(), rng.randrange(q), rng.randrange(1, q)
    pts = geo.all_points(F)
    infinity = [p for p in pts if p[2] == 0]  # (x,1,0) and (1,0,0): the line z = 0
    affine = [p for p in pts if p[2] == 1]
    on_y_c = [(t, c, 1) for t in range(q)]  # y = c z, through (1,0,0)
    on_x_ay_c = [(F.add(F.mul(a, y), c), y, 1) for y in range(q)]  # x = a y + c z, through (a,1,0)
    cases = {
        "(1,0,0) lowest": [(1, 0, 0)] + on_y_c[:3] + affine[-3:] + on_y_c[3:],
        "(a,1,0) lowest": [(a, 1, 0)] + on_x_ay_c[1:4] + affine[:2] + on_x_ay_c[4:],
        "both lowest": [(1, 0, 0), (a, 1, 0)] + on_y_c[:2] + on_x_ay_c[:2] + affine[::q],
        "z = 0": infinity[:3] + affine[::2] + infinity[3:],
        "repeated at infinity": [(a, 1, 0), _scaled(F, g, (a, 1, 0)), (1, 0, 0), (g, 0, 0),
                                 (1, 0, 0), (0, 0, 0), (F.add(a, 1), 1, 0)] + on_x_ay_c[:3],
        "infinity first": infinity + rng.sample(affine, q + 2),
        "whole plane, infinity first": infinity + affine,
        "scaled, shuffled": rng.sample([_scaled(F, rng.randrange(1, q), p)
                                        for p in infinity + on_y_c + on_x_ay_c], 2 * q + 3),
    }
    for cols in cases.values():
        _assert_profile_matches_pairwise(F, cols)
    for name in ("(1,0,0) lowest", "(a,1,0) lowest"):  # its line holds q or q+1 columns
        assert any(ln[0] == 0 and len(ln) >= q for ln in geo.LineProfile(F, cases[name]).rich)
    assert geo.LineProfile(F, cases["z = 0"]).max_line >= q + 1
    assert geo.LineProfile(F, cases["whole plane, infinity first"]).counts == {q + 1: q * q + q + 1}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_line_profile_matches_pairwise_on_the_whole_plane(q):
    F = field_from_order(q)
    pts = geo.all_points(F)
    _assert_profile_matches_pairwise(F, pts)
    assert geo.LineProfile(F, pts).counts == {q + 1: q * q + q + 1}


@pytest.mark.parametrize("q", [64, 243, 256, 521])
def test_line_profile_matches_pairwise_on_a_paper_code(q):
    """Up to q = 521, the first odd q past 512 (the `large-q` bench's
    locality code): the full profiles and the seeded one."""
    G = paper_code(q)
    _assert_profile_matches_pairwise(G.field, G.columns(), G.line_profile())


def _count_kernel_calls(F):
    """Replace F's kernel with counting wrappers; the counts by operation."""
    calls = Counter()

    def counted(name, op):
        def call(*args):
            calls[name] += 1
            return op(*args)
        return call

    F.kernel = Kernel(*(counted(name, op) for name, op in zip(Kernel._fields, F.kernel)))
    return calls


def test_seeded_profile_rescales_only_columns_off_z_1():
    """The q = 27 paper code's profile on a fresh field with counting kernel
    wrappers: at most one inverse per column whose last coordinate is not
    1, and none for the slopes, which are read off the log tables.  A
    column (x, y, 1) is its own canonical point and is never rescaled: one
    inv per column would add about q calls."""
    F = GF(3, 3)
    G = build_odd_matrix(F, min(valid_w_set(F)))
    calls = _count_kernel_calls(F)
    assert G.line_profile().max_line == 3
    pivots = G.n - G._arc_base
    slopes = sum(G.n - 1 - i for i in range(pivots))
    off_z_1 = sum(col[2] != 1 for col in G.columns())
    assert off_z_1 == 4  # (1,0,0), (0,1,0), (1,1,0), (0,w,-1)
    assert 0 < calls["inv"] <= off_z_1 < slopes


@pytest.mark.parametrize("p, m", [(3, 3), (2, 5)])
def test_seeded_profile_makes_no_kernel_call_per_pair(p, m):
    """The paper code's seeded profile on a fresh field with counting kernel
    wrappers: the kernel only rescales the columns off z = 1 (at most three
    calls each), a constant number per pivot, and every slope is read off
    the log tables.  Four calls per (pivot, later point) pair would be
    about 4(q+4) per pivot."""
    F = GF(p, m)  # q = 27 and 32
    if p == 2:
        f = make_family_opoly(F, "translation", h=1)
        G = build_even_matrix(f, min(valid_v_set(f)))
    else:
        G = build_odd_matrix(F, min(valid_w_set(F)))
    calls = _count_kernel_calls(F)
    assert G.line_profile().counts == paper_code(F.q).line_profile().counts
    pivots = G.n - G._arc_base
    off_z_1 = sum(col[2] != 1 for col in G.columns())
    assert 0 < sum(calls.values()) <= 3 * off_z_1 <= 3 * pivots


@pytest.mark.parametrize("q", [4, 5, 8, 9, 25, 27])
def test_slopes_match_the_kernel_oracle(q):
    """`GF.slopes` from every point of PG(2,q) as pivot, in each of the
    three forms (a,b,1), (a,1,0) and (1,0,0), to every other point, equals
    the slopes on the kernel: pivots and later points with a zero
    coordinate and later points at z = 0 included."""
    F = field_from_order(q)
    pts = geo.all_points(F)
    forms = Counter()
    for i, pivot in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        assert F.slopes(pivot, others) == kernel_slopes(F, pivot, others), (q, pivot)
        forms[max(k for k in range(3) if pivot[k])] += 1  # its last 1
    assert forms == {2: q * q, 1: q, 0: 1}


def _assert_incidence_identities(F, columns, lp):
    """Counting the lines, the incidences and the pairs of the n nonzero
    columns, m_P of them on point P: sum N_c = q^2+q+1, sum c N_c = n(q+1),
    and sum C(c,2) N_c = C(n,2) + q sum C(m_P,2), since two columns on one
    point share its q+1 lines and two on distinct points one line."""
    q = F.q
    mult = Counter(geo.canonical(F, col) for col in columns if any(col))
    n = sum(mult.values())
    assert sum(lp.counts.values()) == q * q + q + 1, (q, columns)
    assert sum(c * t for c, t in lp.counts.items()) == n * (q + 1), (q, columns)
    assert sum(c * (c - 1) // 2 * t for c, t in lp.counts.items()) \
        == n * (n - 1) // 2 + q * sum(m * (m - 1) // 2 for m in mult.values()), (q, columns)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
def test_line_profile_incidence_identities_on_distinct_columns(q):
    """Distinct columns, each scaled, read from the rich lines alone: random
    sets, and random sets holding a full line."""
    rng = random.Random(2000 + q)
    F = field_from_order(q)
    pts = geo.all_points(F)
    line = rng.choice(pts)
    on = [p for p in pts if incident(F, p, line)]
    off = [p for p in pts if not incident(F, p, line)]
    for size in (1, 2, 3, 5, q + 2, 2 * q, 3 * q + 1):
        for chosen in (rng.sample(pts, size), on + rng.sample(off, min(size, len(off)))):
            cols = [_scaled(F, rng.randrange(1, q), p) for p in rng.sample(chosen, len(chosen))]
            lp = geo.LineProfile(F, cols)
            assert not lp.repeated and not lp.zeros
            _assert_incidence_identities(F, cols, lp)
            if len(chosen) > size:
                assert lp.max_line == q + 1


@pytest.mark.parametrize("q", [127, 128])
def test_line_profile_incidence_identities_on_a_paper_code(q):
    """The paper code, seeded and pairwise, and the same columns with scaled
    copies of a few of them, an exact repeat and a zero column appended."""
    G = paper_code(q)
    for lp in (G.line_profile(), geo.LineProfile(G.field, G.columns())):
        _assert_incidence_identities(G.field, G.columns(), lp)
        assert lp.max_line == 3
    F, cols = G.field, list(G.columns())
    g = F.primitive_element()
    extra = [_scaled(F, g, cols[0]), _scaled(F, F.pow(g, 5), cols[-1]),
             _scaled(F, g, cols[-1]), cols[3], (0, 0, 0)]
    H = GeneratorMatrix.from_columns(F, cols + extra)
    lp = H.line_profile()
    assert lp.zeros == 1 and lp.repeated
    _assert_incidence_identities(F, H.columns(), lp)
    assert _profile_fields(lp) == _pairwise_profile(F, H.columns())


EVEN_PAPER_Q = (4, 8, 16, 32, 64)
ODD_PAPER_Q = tuple(q for q in range(5, 62, 2) if len(prime_factors(q)) == 1)


@pytest.mark.parametrize("q", EVEN_PAPER_Q + ODD_PAPER_Q)
def test_seeded_profile_matches_full_profile(q):
    """A constructor's profile, pivoting on the added columns of a certified
    arc base, against the profile from every pair of the same columns, and
    its counts against the closed-form weights: a line holding c columns
    is the zero set of q-1 codewords of weight q+5-c."""
    closed = even_closed_form(q) if q % 2 == 0 else odd_closed_form(q)
    closed_counts = {q + 5 - w: a // (q - 1) for w, a in closed.to_pairs() if w}
    for label, G in paper_codes(q):
        assert G._arc_base in (q + 1, q + 2)
        seeded = G.line_profile()
        assert _profile_fields(seeded) == _profile_fields(geo.LineProfile(G.field, G.columns())), label
        assert seeded.counts == closed_counts, label


def _arc_base(F):
    """The constructors' base: the regular hyperoval, or the conic."""
    if F.p == 2:
        return geo.hyperoval_from_opoly(make_family_opoly(F, "translation", h=1))
    return geo.standard_oval(F)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_seeded_profile_with_many_added_points(q):
    """Every point off the base on a line, so four or more columns on it
    (two of them base points on a secant), plus random others: the seeded
    profile against the pairwise oracle, added columns scaled and shuffled."""
    F = field_from_order(q)
    rng = random.Random(q)
    base = _arc_base(F)
    off = [p for p in geo.all_points(F) if p not in base]
    for _ in range(6):
        line = rng.choice(geo.all_points(F))
        on = [p for p in off if incident(F, p, line)]
        added = on + rng.sample([p for p in off if p not in on], rng.randrange(0, 6))
        added = [_scaled(F, rng.randrange(1, q), p) for p in rng.sample(added, len(added))]
        lp = geo.LineProfile(F, base + added, _arc_base=len(base))
        assert _profile_fields(lp) == _pairwise_profile(F, base + added), (q, added)


@pytest.mark.parametrize("q", [4, 5, 8, 9])
def test_seeded_profile_secant_with_added_points(q):
    """Two base points b1 < b2 on a line with added points a1 < a2 < ...:
    its second column is a base column, the pivot a1 records it as
    (a2, ..., b1, b2), and a2 must skip it; with one added point it is the
    three-point line (a1, b1, b2), read once."""
    F = field_from_order(q)
    base = _arc_base(F)
    k = len(base)
    line = _join(F, base[0], base[1])
    added = [p for p in geo.all_points(F) if incident(F, p, line) and p not in base]
    others = [p for p in geo.all_points(F) if p not in base and p not in added]
    for t in (1, 2, 3):
        cols = base + added[:t] + others[:2]
        lp = geo.LineProfile(F, cols, _arc_base=k)
        assert _profile_fields(lp) == _pairwise_profile(F, cols), (q, t)
        assert [ln for ln in lp.rich if ln[:2] == (0, 1)] == [(0, 1, *range(k, k + t))]


@pytest.mark.parametrize("bad", ["zero", "added repeats added", "added repeats base"])
def test_seeded_profile_rejects_bad_added_columns(bad):
    F = make_field(2, 3)
    base = _arc_base(F)
    g = F.primitive_element()
    added = {"zero": [(1, 1, 0), (0, 0, 0)],
             "added repeats added": [(1, 1, 0), (0, 1, 1), (g, g, 0)],
             "added repeats base": [(1, 1, 0), _scaled(F, g, base[3])]}[bad]
    with pytest.raises(ValueError, match="arc-seeded profile needs distinct nonzero columns"):
        geo.LineProfile(F, base + added, _arc_base=len(base))
    geo.LineProfile(F, base + added)  # the pairwise profile takes them


@pytest.mark.parametrize("q", [q for q in range(3, 126) if len(prime_factors(q)) == 1
                               and (q % 2 or q <= 64)])
def test_paper_bases_are_arcs_with_closed_form_counts(q):
    """The certificates the seeded profile rests on, checked by the pairwise
    profile: the conic at every odd q <= 125 (see standard_oval), and the
    hyperoval of every applicable family at even q <= 64."""
    F = field_from_order(q)
    bases = ([geo.hyperoval_from_opoly(f) for f in applicable_families(F)] if F.p == 2
             else [geo.standard_oval(F)])
    for base in bases:
        k = len(base)
        lp = geo.LineProfile(F, base)
        assert lp.max_line == 2 and lp.rich == ()
        assert lp.counts == {c: t for c, t in {
            0: q * q + q + 1 - k * (k - 1) // 2 - k * (q + 2 - k),
            1: k * (q + 2 - k), 2: k * (k - 1) // 2}.items() if t}


def test_line_profile_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def field_and_columns(draw):
        F = field_from_order(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
        elem = st.integers(0, F.q - 1)
        base = draw(st.lists(st.tuples(elem, elem, elem), max_size=12))
        scaled = draw(st.lists(st.tuples(st.integers(0, 11), st.integers(1, F.q - 1)),
                               max_size=6 if base else 0))
        cols = base + [tuple(F.mul(s, e) for e in base[i % len(base)]) for i, s in scaled]
        return F, draw(st.permutations(cols))

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(field_and_columns())
    def check(case):
        _assert_profile_matches_pairwise(*case)

    check()


def test_four_collinear_fails_both_predicates():
    F = make_field(2, 2)
    pts = [(0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]  # all on z = 0
    assert not geo.is_arc(F, pts)
    assert not geo.is_n3_arc(F, pts)


def test_point_set_rejects_duplicates():
    F = make_field(3, 1)
    with pytest.raises(ValueError):
        geo.is_arc(F, [(1, 1, 1), (2, 2, 2)])  # projectively equal


def test_arc_predicates_check_each_coordinate_once(monkeypatch):
    """is_arc and is_n3_arc refuse a float coordinate, the zero vector and a
    repeated point with validate_point_set's messages, and check each
    coordinate of a good point set once."""
    F = make_field(5, 1)
    for predicate in (geo.is_arc, geo.is_n3_arc):
        for bad, message in (((1.0, 0, 1), "not an element index"), ((0, 0, 0), "zero vector"),
                             ((2, 2, 2), "projectively repeated")):
            with pytest.raises(ValueError, match=message):
                predicate(F, [(1, 1, 1), (0, 1, 0), bad])
    pts = geo.standard_oval(F)
    calls = []
    check = GF.check
    monkeypatch.setattr(GF, "check", lambda self, x: calls.append(x) or check(self, x))
    assert geo.is_arc(F, pts) and not geo.is_n3_arc(F, pts)
    assert len(calls) == 2 * 3 * len(pts)


def test_point_text_forms():
    F = make_field(2, 3)
    p = (5, 2, 1)
    assert geo.point_from_str(F, geo.point_to_str(F, p)) == p
    assert geo.point_from_str(F, "g^6:g^1:1") == (5, 2, 1)
    with pytest.raises(ValueError):
        geo.point_from_str(F, "1:2")
    assert geo.point_from_str(F, " 7 : g^-1 :1") == geo.canonical(F, (7, F.inv(2), 1))
    for token in ("1_0", "+3", "\u0663", "g^", "x", "g^+2", "2.0"):
        with pytest.raises(ValueError, match=re.escape(f"bad field element {token!r}")):
            geo.point_from_str(F, f"1:{token}:1")
