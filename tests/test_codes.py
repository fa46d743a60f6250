import random
import re
from itertools import combinations, product

import pytest

from arccodes.field import field_from_order, make_field
from arccodes import geometry as geo
from arccodes.codes import (
    BudgetExceededError,
    GeneratorMatrix,
    WeightDistribution,
    classify,
    dual_weight_distribution,
    enumerated_weight_distribution,
    min_weight_supports,
    nmds_closed_form,
    rref,
    weight_distribution,
)
from arccodes.construct import build_odd_matrix, valid_w_set
from arccodes.fixtures import GOLDEN_Q4_EVEN, GOLDEN_Q9_ODD
from arccodes.opoly import make_family_opoly
from conftest import dual_matrix, enumerated_zero_sets, shuffled_blocks


@pytest.fixture(scope="module")
def q4_code():
    return GOLDEN_Q4_EVEN.matrix()


@pytest.fixture(scope="module")
def q9_code():
    return GOLDEN_Q9_ODD.matrix()


def test_matrix_validation():
    F = make_field(2, 2)
    with pytest.raises(ValueError):
        GeneratorMatrix(F, [[1, 0], [1, 0]])  # rank 1
    with pytest.raises(ValueError):
        GeneratorMatrix(F, [[1, 0], [0, 1, 1]])  # ragged
    with pytest.raises(ValueError):
        GeneratorMatrix(F, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])  # n < k impossible rank
    with pytest.raises(ValueError):
        GeneratorMatrix(F, [])


def test_matrix_refuses_non_integer_entries():
    F = make_field(5, 1)
    for bad in (1.7, 1.0, "1"):
        with pytest.raises(ValueError, match="not an element index"):
            GeneratorMatrix(F, [[bad, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_rref_checks_its_entries():
    F = make_field(5, 1)
    assert rref(F, [[2, 4], [1, 1]]) == ([[1, 0], [0, 1]], [0, 1])
    for rows in ([[1, 0], [0, 5]], [[1, -1]], [[1, 0], [0, 1], [7, 0]], [[1.0, 0]]):
        with pytest.raises(ValueError, match="not an element index"):
            rref(F, rows)


def test_matrix_text_round_trip(q4_code):
    for powers in (False, True):
        text = q4_code.to_text(powers)
        assert GeneratorMatrix.from_text(text) == q4_code
    assert text.splitlines()[0] == "q=4 p=2 m=2 mod=1,1,1"
    with pytest.raises(ValueError):
        GeneratorMatrix.from_text("q=5 p=2 m=2 mod=1,1,1\n1 0 1\n0 1 1\n")
    with pytest.raises(ValueError, match="lacks mod"):
        GeneratorMatrix.from_text("q=9 p=3 m=2\n1 0 0\n0 1 0\n0 0 1\n")
    with pytest.raises(ValueError, match="lacks p, m"):
        GeneratorMatrix.from_text("mod=2,2,1\n1 0\n0 1\n")
    with pytest.raises(ValueError, match="token 'junk'"):
        GeneratorMatrix.from_text("q=9 p=3 m=2 mod=2,2,1 junk\n1 0 0\n0 1 0\n0 0 1\n")
    for head, token in (("q=+9 p=3 m=2 mod=2,2,1", "+9"), ("q=9 p=\u0663 m=2 mod=2,2,1", "\u0663"),
                        ("q=9 p=3 m=2 mod=2,2,1_0", "1_0"),
                        ("q=+9 p=\u0663 m=2 mod=2,2,1_0", "\u0663")):
        with pytest.raises(ValueError, match=re.escape(f"bad integer {token!r}")):
            GeneratorMatrix.from_text(head + "\n1 0 0\n0 1 0\n0 0 1\n")


BAD_ELEMENT_TOKENS = ("1_0", "+3", "\u0663", "g^", "x", "g^--1", "g^1_0", "-1", "0x1")


@pytest.mark.parametrize("token", BAD_ELEMENT_TOKENS)
def test_matrix_text_refuses_a_bad_element(token):
    text = f"q=9 p=3 m=2 mod=2,2,1\n1 0 0\n0 1 {token}\n0 0 1\n"
    with pytest.raises(ValueError, match=re.escape(f"bad field element {token!r}")):
        GeneratorMatrix.from_text(text)


def test_matrix_text_reads_digits_and_powers():
    F = make_field(3, 2)
    G = GeneratorMatrix.from_text("q=9 p=3 m=2 mod=2,2,1\n1 0 g^-1\n0 g^9 g\n")
    g = F.primitive_element()
    assert G.rows == ((1, 0, F.inv(g)), (0, g, g))
    with pytest.raises(ValueError, match="9 is not an element index"):
        GeneratorMatrix.from_text("q=9 p=3 m=2 mod=2,2,1\n1 0 9\n0 1 0\n")


def test_projective_message_count():
    """The enumerator's messages are geometry.projective_points: one per
    point of PG(2,4), each with last nonzero entry 1."""
    F = make_field(2, 2)
    msgs = list(geo.projective_points(F, 3))
    assert len(msgs) == 4 ** 2 + 4 + 1
    assert len(set(msgs)) == len(msgs)
    assert all(next(x for x in reversed(u) if x) == 1 for u in msgs)
    assert sorted(msgs) == geo.all_points(F)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projective_message_order(q, k):
    """projective_points(F, k) holds each projective class of GF(q)^k once,
    as its vector with last nonzero entry 1: the trailing 1 moves left block
    by block, and each block runs through its head lexicographically."""
    normalised = [u for u in product(range(q), repeat=k)
                  if next((x for x in reversed(u) if x), 0) == 1]
    assert len(normalised) == (q ** k - 1) // (q - 1)
    assert list(geo.projective_points(field_from_order(q), k)) == sorted(
        normalised, key=lambda u: u[::-1].index(1))


def test_weight_distribution_golden(q4_code):
    dist = weight_distribution(q4_code)
    assert dist.to_pairs() == [[0, 1], [6, 30], [7, 18], [8, 9], [9, 6]]
    assert sum(dist.counts) == 4 ** 3
    assert dist.minimum_distance() == 6


def test_weight_distribution_repetition_code():
    F = make_field(5)
    G = GeneratorMatrix(F, [[1, 1, 1, 1]])
    dist = weight_distribution(G)
    assert dist.to_pairs() == [[0, 1], [4, 4]]


def test_weight_distribution_budget():
    F = make_field(2, 8)
    rows = [[1 if i == j else 0 for j in range(6)] for i in range(5)]
    with pytest.raises(BudgetExceededError):
        weight_distribution(GeneratorMatrix(F, rows))


def test_enumeration_budget_counts_column_evaluations(q4_code, monkeypatch):
    dual = dual_matrix(q4_code)  # (4^6-1)/3 messages times 9 columns
    work = (4 ** 6 - 1) // 3 * 9
    monkeypatch.setattr("arccodes.codes.ENUMERATION_BUDGET", work - 1)
    with pytest.raises(BudgetExceededError):
        enumerated_weight_distribution(dual)
    monkeypatch.setattr("arccodes.codes.ENUMERATION_BUDGET", work)
    assert enumerated_weight_distribution(dual) == weight_distribution(dual)


@pytest.mark.parametrize("q", [2, 3])
def test_enumeration_budget_edge_at_small_q(q, monkeypatch):
    # (q^3-1)/(q-1) messages times 4 columns: at q <= 3 the exact message
    # count is the only thing that separates work from work + 1
    G = GeneratorMatrix.from_columns(make_field(q), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    work = (q ** 3 - 1) // (q - 1) * 4
    monkeypatch.setattr("arccodes.codes.ENUMERATION_BUDGET", work)
    assert enumerated_weight_distribution(G) == weight_distribution(G)
    monkeypatch.setattr("arccodes.codes.ENUMERATION_BUDGET", work - 1)
    with pytest.raises(BudgetExceededError, match=f"= {work} column evaluations"):
        enumerated_weight_distribution(G)


def test_weight_distribution_generic_k(q4_code):
    dual = dual_matrix(q4_code)  # k=6 exercises the generic enumeration loop
    ddist = weight_distribution(dual)
    assert sum(ddist.counts) == 4 ** 6
    assert ddist.minimum_distance() == 3


def test_dual_matrix(q4_code):
    F = q4_code.field
    H = dual_matrix(q4_code)
    assert (H.k, H.n) == (6, 9)
    for grow in q4_code.rows:
        for hrow in H.rows:
            acc = 0
            for a, b in zip(grow, hrow):
                acc = F.add(acc, F.mul(a, b))
            assert acc == 0
    # double dual spans the original row space
    back = dual_matrix(H)
    assert rref(F, back.rows)[0] == rref(F, q4_code.rows)[0]
    with pytest.raises(ValueError):
        dual_matrix(GeneratorMatrix(F, [[1, 0], [0, 1]]))


def test_classify_golden(q4_code, q9_code):
    p4 = classify(q4_code)
    assert (p4.n, p4.k, p4.d, p4.category) == (9, 3, 6, "NMDS")
    assert p4.defect == p4.defect_dual == 1
    p9 = classify(q9_code)
    assert (p9.n, p9.k, p9.d, p9.category) == (14, 3, 11, "NMDS")


def test_classify_dual_of_the_q4_code(q4_code):
    p = classify(dual_matrix(q4_code))
    assert (p.n, p.k, p.d, p.d_dual, p.category) == (9, 6, 3, 6, "NMDS")
    assert p.defect == p.defect_dual == 1


def test_classify_mds_oval_code(q9_code):
    F = make_field(2, 2)
    f = make_family_opoly(F, "translation", h=1)
    G = GeneratorMatrix.from_columns(F, geo.hyperoval_from_opoly(f))
    p = classify(G)
    assert (p.n, p.k, p.d) == (6, 3, 4)  # d = n-k+1
    assert p.category == "MDS"
    assert p.d_dual == 4 and p.defect_dual == 0
    # the oval alone (first q+1 columns of the odd construction) is MDS too
    F9 = q9_code.field
    oval = GeneratorMatrix.from_columns(F9, q9_code.columns()[: F9.q + 1])
    p9 = classify(oval)
    assert (p9.n, p9.k, p9.d, p9.category) == (10, 3, 8, "MDS")


def test_classify_amds_and_other():
    F = make_field(5)
    oval = geo.standard_oval(F)
    # a repeated column: d = n-3 still, but the dual has weight-2 words
    p = classify(GeneratorMatrix.from_columns(F, oval + [oval[0]]))
    assert (p.n, p.d, p.defect, p.d_dual, p.defect_dual, p.category) == (7, 4, 1, 2, 2, "AMDS")
    # four columns on the line z = 0: d = n-4, defect 2
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1)]
    p = classify(GeneratorMatrix.from_columns(F, cols))
    assert (p.n, p.d, p.defect, p.category) == (5, 1, 2, "other")


def test_nmds_closed_form_golden():
    primal, dual = nmds_closed_form(9, 3, 4, 30)
    assert primal.to_pairs() == [[0, 1], [6, 30], [7, 18], [8, 9], [9, 6]]
    assert dual[3] == 30 and sum(dual.counts) == 4 ** 6
    primal, _ = nmds_closed_form(14, 3, 9, 160)
    assert primal.to_pairs() == [[0, 1], [11, 160], [12, 248], [13, 144], [14, 176]]
    primal, _ = nmds_closed_form(16, 3, 11, 230)
    assert primal.to_pairs() == [[0, 1], [13, 230], [14, 510], [15, 210], [16, 380]]


def test_nmds_closed_form_matches_brute_dual(q4_code):
    dist = weight_distribution(q4_code)
    _, dual_closed = nmds_closed_form(9, 3, 4, dist[6])
    dual_brute = weight_distribution(dual_matrix(q4_code))
    assert dual_closed == dual_brute


def test_nmds_closed_form_rejects_inconsistent_seed():
    with pytest.raises(ValueError, match="primal"):
        nmds_closed_form(9, 3, 4, 1000)
    with pytest.raises(ValueError, match="dual"):
        nmds_closed_form(3, 2, 3, 3)  # the primal counts are fine, the dual's A_3 is not
    with pytest.raises(ValueError):
        nmds_closed_form(3, 4, 4, 1)
    for n in (3, 4):  # k = n has no dual side
        with pytest.raises(ValueError, match=f"bad NMDS parameters n={n}, k={n}"):
            nmds_closed_form(n, n, 3, 2)


def test_nmds_closed_form_at_k_equal_one():
    # [4,1,3] over GF(3): two words of weight 3, and the dual has d = 1
    G = GeneratorMatrix(make_field(3), [[1, 1, 1, 0]])
    p = classify(G)
    assert (p.d, p.d_dual, p.category) == (3, 1, "NMDS")
    primal, dual = nmds_closed_form(4, 1, 3, 2)
    assert primal == weight_distribution(G)
    assert dual == weight_distribution(dual_matrix(G))


def test_min_weight_supports_golden(q4_code):
    triples = min_weight_supports(q4_code)
    assert len(triples) == 30 // (4 - 1)
    assert (4, 5, 6) in triples  # the columns (1,0,0), (0,1,0), (1,1,0)
    dist = weight_distribution(q4_code)
    assert dist[6] == (4 - 1) * len(triples)


def test_min_weight_supports_errors():
    F = make_field(2, 2)
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1)]
    G = GeneratorMatrix.from_columns(F, cols)
    with pytest.raises(ValueError):
        min_weight_supports(G)  # four collinear columns on z=0
    dup = GeneratorMatrix(F, [[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ValueError):
        min_weight_supports(dup)  # proportional columns 0 and 3


def test_weight_distribution_invariant_under_column_order():
    F = make_field(3, 2)
    w = min(valid_w_set(F))
    G = build_odd_matrix(F, w)
    cols = list(G.columns())
    random.Random(9).shuffle(cols)
    d1 = weight_distribution(G)
    assert weight_distribution(shuffled_blocks(G, 9)) == d1
    assert weight_distribution(GeneratorMatrix.from_columns(F, cols)) == d1


def test_weight_distribution_validation():
    with pytest.raises(ValueError):
        WeightDistribution([0, 1])  # A_0 != 1
    with pytest.raises(ValueError):
        WeightDistribution([1, -1])
    with pytest.raises(ValueError):
        WeightDistribution([1, 2], q=2, k=3)  # sum != q^k
    d = WeightDistribution.from_pairs(4, [[0, 1], [4, 4]], q=5, k=1)
    assert d.to_pairs() == [[0, 1], [4, 4]]


def _random_k3_matrix(rng, F):
    """Random 3 x n columns over F with zero and proportional repeats."""
    q = F.q
    while True:
        cols = []
        for _ in range(rng.randint(3, 12)):
            r = rng.random()
            if r < 0.1:
                cols.append((0, 0, 0))
            elif r < 0.25 and cols:
                s = rng.randrange(1, q)
                cols.append(tuple(F.mul(s, e) for e in rng.choice(cols)))
            else:
                cols.append(tuple(rng.randrange(q) for _ in range(3)))
        try:
            return GeneratorMatrix.from_columns(F, cols)
        except ValueError:  # rank below 3; draw again
            continue


def _brute_dual_distance(G):
    """Least number of dependent columns, by rank of each subset of at most
    k + 1 columns; None when there are only k columns (the dual is {0})."""
    for size in range(1, G.k + 2):
        for subset in combinations(range(G.n), size):
            sub = [[row[j] for j in subset] for row in G.rows]
            if len(rref(G.field, sub)[1]) < size:
                return size
    return None


def test_line_profile_matches_enumeration():
    rng = random.Random(20220817)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        F = field_from_order(q)
        for _ in range(12):
            G = _random_k3_matrix(rng, F)
            assert weight_distribution(G) == enumerated_weight_distribution(G), G.columns()
            assert classify(G).d_dual == _brute_dual_distance(G), G.columns()
            zero_sets = enumerated_zero_sets(G)
            points = {geo.canonical(F, c) for c in G.columns() if any(c)}
            if len(points) < G.n or any(len(z) >= 4 for z in zero_sets):
                with pytest.raises(ValueError):
                    min_weight_supports(G)
            else:
                assert min_weight_supports(G) == sorted(z for z in zero_sets if len(z) == 3)


def test_dual_distance_budget_is_not_an_answer():
    # moment-curve columns (1, t, t^2, t^3): every 4 are independent, so the
    # [10,4] code is MDS and so is its dual; d_dual is exact, never a budget
    F = make_field(2, 4)
    cols = [(1, t, F.mul(t, t), F.pow(t, 3)) for t in range(10)]
    G = GeneratorMatrix.from_columns(F, cols)
    profile = classify(G)
    assert (profile.d, profile.d_dual, profile.defect_dual) == (7, 5, 0)
    assert _brute_dual_distance(G) == 5


def test_dual_distance_matches_column_ranks_for_any_k():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        F = field_from_order(draw(st.sampled_from([2, 3, 4, 5])))
        k = draw(st.integers(1, 5))
        n = draw(st.integers(k, 8))
        elem = st.integers(0, F.q - 1)
        rows = draw(st.lists(st.lists(elem, min_size=n, max_size=n), min_size=k, max_size=k))
        try:
            return GeneratorMatrix(F, rows)
        except ValueError:  # rank below k
            hypothesis.reject()

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(matrices())
    def check(G):
        assert classify(G).d_dual == _brute_dual_distance(G), G.rows
        if G.n > G.k:
            dist = enumerated_weight_distribution(G)
            assert dual_weight_distribution(dist, G.field.q, G.k) == \
                enumerated_weight_distribution(dual_matrix(G)), G.rows

    check()
