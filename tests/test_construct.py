import pytest

from arccodes.field import GF, make_field, field_from_order, prime_factors
from arccodes import geometry as geo
from arccodes.codes import (
    classify,
    enumerated_weight_distribution,
    min_weight_supports,
    weight_distribution,
)
from arccodes import construct
from arccodes.construct import (
    CensusResult,
    build_even_matrix,
    build_odd_matrix,
    even_closed_form,
    odd_closed_form,
    solution_count_census,
    valid_v_set,
    valid_w_set,
)
from arccodes.fixtures import GOLDEN_Q4_EVEN, GOLDEN_Q9_ODD, GOLDEN_Q11_ODD
from arccodes.opoly import applicable_families, make_custom_opoly, make_family_opoly
from conftest import paper_codes, quadratic_character, shuffled_blocks, w_admissible_by_eta


def test_valid_v_set_gf4():
    F = make_field(2, 2)
    f = make_family_opoly(F, "translation", h=1)
    # image of x^2 + x is {0, 1}, so the complement is {xi, xi^2}
    assert valid_v_set(f) == frozenset({2, 3})
    with pytest.raises(ValueError):
        valid_v_set(make_custom_opoly(F, [0, 1]))


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_valid_v_set_size(q):
    F = field_from_order(q)
    f = make_family_opoly(F, "translation", h=1)
    assert len(valid_v_set(f)) == q // 2


def test_valid_w_set_values():
    assert valid_w_set(make_field(11)) == frozenset({7, 10})
    assert len(valid_w_set(make_field(3, 2))) == 2
    with pytest.raises(ValueError):
        valid_w_set(make_field(3))  # (3-2-1)/4 = 0 admissible w
    with pytest.raises(ValueError):
        valid_w_set(make_field(2, 2))  # even characteristic


def _odd_prime_powers(top):
    return [q for q in range(3, top + 1, 2) if len(prime_factors(q)) == 1]


@pytest.mark.parametrize("top", [243, pytest.param(1021, marks=pytest.mark.long)])
def test_valid_w_set_matches_the_eta_oracle(top):
    """At every odd prime power q <= top, the set read off the log tables
    is the w with eta(w) = eta(1+4w) = -1 on the checked operations; at
    q = 3 there is none, and valid_w_set says so."""
    for q in _odd_prime_powers(top):
        F = field_from_order(q)
        expected = frozenset(w for w in range(q) if w_admissible_by_eta(F, w))
        if q == 3:
            assert not expected
            with pytest.raises(ValueError, match=r"^no admissible w exists at q=3$"):
                valid_w_set(F)
            continue
        assert valid_w_set(F) == expected, q


def test_odd_construction_refuses_even_q_and_q3():
    """The refusals keep their messages: even characteristic at every odd
    entry point, and any w at q = 3, where none is admissible."""
    F4 = make_field(2, 2)
    even = r"^the odd construction needs odd characteristic$"
    with pytest.raises(ValueError, match=even):
        valid_w_set(F4)
    with pytest.raises(ValueError, match=even):
        build_odd_matrix(F4, 1)
    with pytest.raises(ValueError, match=even):
        solution_count_census("odd-B1", F4, w=1)
    F3 = make_field(3)
    for w in range(3):
        with pytest.raises(ValueError, match=rf"^w={w} fails eta\(w\) = eta\(1\+4w\) = -1; "
                                             "not admissible$"):
            build_odd_matrix(F3, w)


def test_admissible_w_computed_once_per_field(monkeypatch):
    """The admissible set is one table pass per field, kept: the listing
    and both odd entry points read it again."""
    calls = []
    twin = GF.twin_nonsquares
    monkeypatch.setattr(GF, "twin_nonsquares", lambda self, c: calls.append(c) or twin(self, c))
    construct._w_set.cache_clear()
    F = make_field(5, 2)
    w = min(valid_w_set(F))
    build_odd_matrix(F, w)
    solution_count_census("odd-B2", F, w=w)
    assert valid_w_set(F) == valid_w_set(field_from_order(25))
    assert calls == [4]


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 49])
def test_valid_w_set_size(q):
    F = field_from_order(q)
    expected = (q - 2 + quadratic_character(F, F.neg(1))) // 4
    assert len(valid_w_set(F)) == expected


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27])
def test_odd_entry_points_accept_exactly_valid_w_set(q):
    F = field_from_order(q)
    squares = {F.mul(x, x) for x in range(1, q)}
    four_w_plus_1 = [F.add(1, F.mul(F.add(F.add(1, 1), F.add(1, 1)), w)) for w in range(q)]
    # eta(x) = -1: x is nonzero and not a square
    nonsquare = [x and x not in squares for x in range(q)]
    admissible = valid_w_set(F)
    assert admissible == {w for w in range(q) if nonsquare[w] and nonsquare[four_w_plus_1[w]]}
    for w in range(q):
        if w in admissible:
            assert build_odd_matrix(F, w).n == q + 5
            for kind in ("odd-B1", "odd-B2"):
                assert solution_count_census(kind, F, w=w).q == q
            continue
        with pytest.raises(ValueError, match=rf"^w={w} fails eta\(w\) = eta\(1\+4w\) = -1; "
                                             "not admissible$"):
            build_odd_matrix(F, w)
        for kind in ("odd-B1", "odd-B2"):
            with pytest.raises(ValueError, match=rf"^w={w} is not admissible$"):
                solution_count_census(kind, F, w=w)


def test_even_matrix_reproduces_reference():
    golden = GOLDEN_Q4_EVEN
    F = golden.field()
    f = make_family_opoly(F, "translation", h=1)
    G = build_even_matrix(f, F.element_from_str(golden.v_or_w))
    assert G == golden.matrix()
    assert G.n == F.q + 5
    assert geo.is_n3_arc(F, G.columns())
    # the first q+2 columns are the hyperoval
    assert list(G.columns()[: F.q + 2]) == geo.hyperoval_from_opoly(f)


def test_even_matrix_rejects_bad_v():
    F = make_field(2, 2)
    f = make_family_opoly(F, "translation", h=1)
    with pytest.raises(ValueError):
        build_even_matrix(f, 1)  # 1 = f(x)+x at x=xi
    with pytest.raises(ValueError):
        build_even_matrix(f, 0)


@pytest.mark.parametrize("golden", [GOLDEN_Q9_ODD, GOLDEN_Q11_ODD])
def test_odd_matrix_reproduces_reference(golden):
    F = golden.field()
    G = build_odd_matrix(F, F.element_from_str(golden.v_or_w))
    assert G == golden.matrix()
    assert geo.is_n3_arc(F, G.columns())
    assert list(G.columns()[: F.q + 1]) == geo.standard_oval(F)


def test_odd_matrix_rejects_bad_w():
    F = make_field(11)
    with pytest.raises(ValueError):
        build_odd_matrix(F, 2)  # eta(1+4*2) = eta(9) = 1
    with pytest.raises(ValueError):
        build_odd_matrix(make_field(2, 2), 1)


def test_closed_form_even():
    assert even_closed_form(4).to_pairs() == [[0, 1], [6, 30], [7, 18], [8, 9], [9, 6]]
    assert even_closed_form(8)[8 + 2] == (3 * 8 + 8) * (8 - 1) // 2 == 112
    for q in (4, 8, 16, 32, 64):
        assert sum(even_closed_form(q).counts) == q ** 3
    with pytest.raises(ValueError):
        even_closed_form(6)
    with pytest.raises(ValueError):
        even_closed_form(2)


def test_closed_form_odd():
    assert odd_closed_form(9).to_pairs() == [[0, 1], [11, 160], [12, 248], [13, 144], [14, 176]]
    assert odd_closed_form(11).to_pairs() == [[0, 1], [13, 230], [14, 510], [15, 210], [16, 380]]
    for q in (5, 7, 9, 11, 13, 25, 27):
        dist = odd_closed_form(q)
        assert sum(dist.counts) == q ** 3
        expected = (2 * q + 2) * (q - 1) if q % 4 == 1 else (2 * q + 1) * (q - 1)
        assert dist[q + 2] == expected
    with pytest.raises(ValueError):
        odd_closed_form(8)


@pytest.mark.parametrize("q", [64, 128, 256, 243, 251, 521])
def test_closed_form_large_q(q):
    # XOR addition (even q) and Zech logarithms (3^5, and the primes 251, 521)
    F = field_from_order(q)
    if F.p == 2:
        f = make_family_opoly(F, "translation", h=1)
        G = build_even_matrix(f, min(valid_v_set(f)))
        closed = even_closed_form(q)
    else:
        G = build_odd_matrix(F, min(valid_w_set(F)))
        closed = odd_closed_form(q)
    dist = weight_distribution(G)
    assert dist == closed
    profile = classify(G, dist)
    assert (profile.n, profile.d, profile.d_dual, profile.category) == (q + 5, q + 2, 3, "NMDS")
    assert (q - 1) * len(min_weight_supports(G)) == dist[q + 2]


def test_q5_brute_force_confirms_closed_form():
    # smallest odd case: verified exhaustively, both admissible w
    F = make_field(5)
    for w in sorted(valid_w_set(F)):
        G = build_odd_matrix(F, w)
        dist = weight_distribution(G)
        assert dist == enumerated_weight_distribution(G)
        assert classify(G, dist).category == "NMDS"
        assert dist == odd_closed_form(5)
        assert dist.to_pairs() == [[0, 1], [7, 48], [8, 36], [9, 24], [10, 16]]


def test_proof_triples_present():
    # 0-based: {q,q+1,q+2} always; {q-1,q+1,q+3}, {q-1,q,q+4} for even q
    F = make_field(2, 3)
    f = make_family_opoly(F, "translation", h=1)
    q = F.q
    G = build_even_matrix(f, min(valid_v_set(f)))
    triples = set(min_weight_supports(G))
    assert (q, q + 1, q + 2) in triples
    assert (q - 1, q + 1, q + 3) in triples
    assert (q - 1, q, q + 4) in triples
    F11 = make_field(11)
    G11 = build_odd_matrix(F11, 7)
    triples11 = set(min_weight_supports(G11))
    assert (11, 12, 13) in triples11


@pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
def test_even_codes_have_collinear_added_points(q):
    """T, the number of lines holding three columns, gives A_(q+2) = (q-1)T.
    Each added point lies on (q+2)/2 secants of the hyperoval and no two
    share one, so T = 3(q+2)/2, plus 1 for the line of the three added
    points, which every paper code has."""
    for label, G in paper_codes(q):
        rich = G.line_profile().rich
        assert (q + 2, q + 3, q + 4) in rich, label
        assert len(rich) == (3 * q + 8) // 2 == even_closed_form(q)[q + 2] // (q - 1), label


@pytest.mark.parametrize("q", [q for q in range(5, 62, 2) if len(prime_factors(q)) == 1])
def test_odd_codes_rich_line_count(q):
    """T for the odd construction, which odd_closed_form's A_(q+2) branches
    on q mod 4 for."""
    for label, G in paper_codes(q):
        T = len(G.line_profile().rich)
        assert T == (2 * q + 2 if q % 4 == 1 else 2 * q + 1), label
        assert T == odd_closed_form(q)[q + 2] // (q - 1), label


def test_census_even_gf4():
    F = make_field(2, 2)
    f = make_family_opoly(F, "translation", h=1)
    for kind in ("even-A1", "even-A2"):
        result = solution_count_census(kind, F, f=f, v=2)
        assert set(result.counts) <= {0, 2}
        assert result.pairs_with(2) == (4 - 1) * (4 - 2) // 2 == 3
        assert result.diagonal_ok


def test_census_odd_gf11():
    F = make_field(11)
    b1 = solution_count_census("odd-B1", F, w=7)
    assert set(b1.counts) <= {0, 1, 2}
    assert b1.pairs_with(2) == (11 - 1) * (11 - 3) // 2 == 40
    b2 = solution_count_census("odd-B2", F, w=7)
    assert b2.pairs_with(2) == (11 - 1) * (11 - 2 - 1) // 2 == 40
    assert b1.diagonal_ok and b2.diagonal_ok


def test_census_argument_validation():
    F = make_field(11)
    with pytest.raises(ValueError):
        solution_count_census("odd-B1", F)  # missing w
    with pytest.raises(ValueError):
        solution_count_census("odd-B1", F, w=2)  # inadmissible
    with pytest.raises(ValueError):
        solution_count_census("bogus", F, w=7)
    F4 = make_field(2, 2)
    f = make_family_opoly(F4, "translation", h=1)
    with pytest.raises(ValueError):
        solution_count_census("even-A1", F4, f=f)  # missing v


def test_census_rejects_inadmissible_v():
    f = make_family_opoly(make_field(2, 2), "translation", h=1)
    with pytest.raises(ValueError, match="v=0 is not admissible"):
        solution_count_census("even-A1", f.field, f=f, v=0)  # 0 = f(0) + 0


def test_census_checks_v_and_w_as_elements():
    # 7.0 in {7, 10} holds, so set membership alone would let the floats in
    F11, F4 = make_field(11), make_field(2, 2)
    f = make_family_opoly(F4, "translation", h=1)
    for kind in ("odd-B1", "odd-B2"):
        for w in (7.0, "7", 11):
            with pytest.raises(ValueError, match="not an element index"):
                solution_count_census(kind, F11, w=w)
    for kind in ("even-A1", "even-A2"):
        for v in (2.0, "2", 4):
            with pytest.raises(ValueError, match="not an element index"):
                solution_count_census(kind, F4, f=f, v=v)


def test_census_rejects_opolynomial_over_another_field():
    # x^3 + x^2 + 1 and the default x^3 + x + 1 give two different GF(8)s;
    # read in the wrong one, f's values give 1-root pairs, which no hyperoval has.
    f = make_family_opoly(make_field(2, 3, [1, 0, 1, 1]), "segre")
    with pytest.raises(ValueError, match="o-polynomial is over"):
        solution_count_census("even-A1", make_field(2, 3), f=f, v=1)


def brute_force_census(kind, F, f=None, v=None, w=None):
    """Count the roots of every (u1, u2) by testing every x: O(q^3)."""
    q = F.q
    add, mul = F.add, F.mul
    rows = [[mul(u, x) for x in range(q)] for u in range(q)]
    if kind.startswith("even"):
        tab = list(f.values)
        const_from_u1 = kind == "even-A2"
        shift = v
    else:
        tab = [mul(x, x) for x in range(q)]
        const_from_u1 = kind == "odd-B2"
        shift = F.neg(w) if const_from_u1 else w
    counts = {}
    diagonal_ok = True
    for u1 in range(1, q):
        for u2 in range(1, q):
            const = mul(u1 if const_from_u1 else u2, shift)
            roots = sum(add(add(rows[u1][tab[x]], rows[u2][x]), const) == 0
                        for x in range(q))
            counts[roots] = counts.get(roots, 0) + 1
            diagonal = u2 == u1 if kind.startswith("even") else u2 == F.neg(u1)
            if diagonal and roots:
                diagonal_ok = False
    return CensusResult(kind, q, counts, diagonal_ok)


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_even_census_matches_brute_force(q):
    F = field_from_order(q)
    families = applicable_families(F)
    if q == 32:
        families = [make_family_opoly(F, "translation", h=1)]
    for f in families:
        for v in sorted(valid_v_set(f)):
            for kind in ("even-A1", "even-A2"):
                assert (solution_count_census(kind, F, f=f, v=v)
                        == brute_force_census(kind, F, f=f, v=v)), (f.descriptor(), v, kind)


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 17, 19, 23, 25, 27])
def test_odd_census_matches_brute_force(q):
    F = field_from_order(q)
    for w in sorted(valid_w_set(F)):
        for kind in ("odd-B1", "odd-B2"):
            assert (solution_count_census(kind, F, w=w)
                    == brute_force_census(kind, F, w=w)), (w, kind)


def test_canonical_order_still_n3_arc():
    F = make_field(2, 2)
    f = make_family_opoly(F, "translation", h=1)
    G = shuffled_blocks(build_even_matrix(f, 2), 4)
    assert G.columns() != build_even_matrix(f, 2).columns()
    assert geo.is_n3_arc(F, G.columns())
    assert weight_distribution(G) == even_closed_form(4)
