import math
import random
import re
from collections import Counter
from itertools import combinations, product

import pytest

from arccodes.field import GF, field_from_order, make_field, prime_factors
from arccodes import codes, geometry as geo, lrc
from arccodes.codes import (
    BudgetExceededError,
    _nmds_side,
    GeneratorMatrix,
    WeightDistribution,
    classify,
    dual_weight_distribution,
    enumerated_weight_distribution,
    min_weight_supports,
    nmds_closed_form,
    weight_distribution,
)
from arccodes.construct import build_odd_matrix, even_closed_form, odd_closed_form, valid_w_set
from arccodes.fixtures import GOLDEN_Q4_EVEN, GOLDEN_Q9_ODD
from arccodes.opoly import make_family_opoly
from conftest import (dual_matrix, enumerated_zero_sets, nmds_double_sum, paper_code,
                      paper_codes, rref, shuffled_blocks)


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


def test_from_columns_keeps_columns_and_refuses_ragged():
    F = make_field(2, 2)
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)]
    G = GeneratorMatrix.from_columns(F, cols)
    assert G.columns() == tuple(cols) and (G.k, G.n) == (3, 4)
    assert G.rows == ((1, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 3))
    assert G == GeneratorMatrix(F, G.rows)
    with pytest.raises(ValueError, match="^ragged columns$"):
        GeneratorMatrix.from_columns(F, cols[:3] + [(1, 2)])
    with pytest.raises(ValueError, match="at least one row"):
        GeneratorMatrix.from_columns(F, [])


def test_matrix_refuses_non_integer_entries():
    F = make_field(5, 1)
    for bad in (1.7, 1.0, "1"):
        with pytest.raises(ValueError, match="not an element index"):
            GeneratorMatrix(F, [[bad, 0, 0], [0, 1, 0], [0, 0, 1]])


def _rank_cases(F, rng, k, n):
    """A random k x n matrix over F and rank-deficient ones: zero columns,
    a repeated row, a row summed from the others, and a product of random
    k x r and r x n matrices, r < k."""
    q = F.q
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    yield rows
    dead = set(rng.sample(range(n), rng.randint(1, n)))
    yield [[0 if j in dead else e for j, e in enumerate(row)] for row in rows]
    if k > 1:
        i, j = rng.sample(range(k), 2)
        yield [rows[j] if t == i else row for t, row in enumerate(rows)]
        total = [0] * n
        for row in rows[:i] + rows[i + 1:]:
            total = [F.add(a, F.mul(rng.randrange(1, q), b)) for a, b in zip(total, row)]
        yield [total if t == i else row for t, row in enumerate(rows)]
    r = rng.randrange(k)
    left = [[rng.randrange(q) for _ in range(r)] for _ in range(k)]
    right = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
    product_rows = []
    for a in left:
        row = [0] * n
        for c, b in zip(a, right):
            row = [F.add(x, F.mul(c, y)) for x, y in zip(row, b)]
        product_rows.append(row)
    yield product_rows


def test_column_rank_matches_rref():
    """GeneratorMatrix accepts a matrix exactly when rref finds rank k, and
    otherwise reports rref's rank."""
    rng = random.Random(20221029)
    for q in (2, 3, 4, 5, 8, 9):
        F = field_from_order(q)
        for k in range(1, 5):
            seen = set()
            for n in range(k, 9):
                for _ in range(4):
                    for rows in _rank_cases(F, rng, k, n):
                        r = len(rref(F, rows)[1])
                        seen.add(r)
                        if r == k:
                            assert GeneratorMatrix(F, rows).rows == tuple(map(tuple, rows))
                            continue
                        with pytest.raises(ValueError, match=f"^rank {r} below row count {k}$"):
                            GeneratorMatrix(F, rows)
            assert seen == set(range(k + 1)), (q, k, seen)


def test_matrix_entries_checked_once(monkeypatch):
    """A paper code's matrix and its line profile convert and check each
    entry once: 3n calls of GF.as_element and 3n of GF.check."""
    G = paper_code(27)
    profile = G.line_profile().counts
    calls = Counter()
    for name in ("as_element", "check"):
        def counted(self, x, _name=name, _method=getattr(GF, name)):
            calls[_name] += 1
            return _method(self, x)
        monkeypatch.setattr(GF, name, counted)
    H = GeneratorMatrix.from_columns(G.field, G.columns(), _arc_base=G._arc_base)
    once = {"as_element": 3 * H.n, "check": 3 * H.n}
    assert calls == once
    assert H.line_profile().counts == profile
    assert calls == once


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


def _nmds_outcome(side, *args):
    """A side's counts, or the message of its refusal."""
    try:
        return list(side(*args))
    except ValueError as err:
        return str(err)


def _library_side(*args):
    return _nmds_side(*args).counts


NMDS_ORACLE_Q = tuple(q for q in range(4, 65) if len(prime_factors(q)) == 1) + (128, 256)


@pytest.mark.parametrize("q", NMDS_ORACLE_Q)
def test_nmds_closed_form_matches_double_sum_oracle(q):
    """The recurrence against the double sum, counts and refusals alike, on
    both sides of the paper's [q+5, 3, q+2] code (the dual side has k = q+2)
    with its true a_min and with seeds around it, some of which drive a
    count negative."""
    n = q + 5
    a = (even_closed_form(q) if q % 2 == 0 else odd_closed_form(q))[n - 3]
    for a_min in (0, 1, a - 1, a, a + 1, 7 * a):
        for k, side in ((3, "primal"), (n - 3, "dual")):
            args = (n, k, q, a_min, side)
            assert _nmds_outcome(_library_side, *args) \
                == _nmds_outcome(nmds_double_sum, *args), args


# every (n, k, q, a_min) that the other tests pass to nmds_closed_form
NMDS_SUITE_SEEDS = [
    (3, 2, 3, 3), (4, 1, 3, 2), (9, 3, 4, 30), (9, 3, 4, 1000), (10, 3, 5, 48), (11, 3, 5, 64),
    (12, 3, 7, 90), (13, 3, 7, 120), (13, 3, 8, 112), (14, 3, 9, 160), (15, 3, 8, 189),
    (15, 3, 9, 208), (16, 3, 11, 230), (18, 3, 11, 340), (18, 3, 13, 336), (19, 3, 11, 440),
    (21, 3, 13, 612), (21, 3, 13, 636), (21, 3, 16, 420), (22, 3, 13, 696), (25, 3, 16, 990),
    (25, 3, 16, 1005), (25, 3, 16, 1020), (26, 3, 16, 1155), (26, 3, 16, 1170),
    (26, 3, 16, 1185), (27, 3, 16, 1275), (27, 3, 16, 1395),
]


@pytest.mark.parametrize("n, k, q, a_min", NMDS_SUITE_SEEDS)
def test_nmds_closed_form_matches_double_sum_oracle_on_suite_seeds(n, k, q, a_min):
    for args in ((n, k, q, a_min, "primal"), (n, n - k, q, a_min, "dual")):
        assert _nmds_outcome(_library_side, *args) \
            == _nmds_outcome(nmds_double_sum, *args), args


def test_nmds_closed_form_calls_comb_once_per_side(monkeypatch):
    """The work, not the clock: one math.comb call per side at every q (the
    double sum makes O(k^2) of them, 33,927 on the q = 256 dual)."""
    calls = 0
    comb = math.comb

    def counted(*args):
        nonlocal calls
        calls += 1
        return comb(*args)

    monkeypatch.setattr(math, "comb", counted)
    for q in (4, 256):
        calls = 0
        primal, dual = nmds_closed_form(q + 5, 3, q, even_closed_form(q)[q + 2])
        assert calls == 2
        assert sum(primal.counts) == q ** 3 and sum(dual.counts) == q ** (q + 2)


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


def _assert_dual_distance_oracles(G, brute=True):
    """classify's d_dual (from the line profile when k = 3) against the
    MacWilliams transform of the weights and, if asked, the column ranks."""
    d_dual = classify(G).d_dual
    assert d_dual == codes._dual_distance(weight_distribution(G), G.field.q), G.columns()
    if brute:
        assert d_dual == _brute_dual_distance(G), G.columns()
    return d_dual


def test_line_profile_matches_enumeration():
    rng = random.Random(20220817)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        F = field_from_order(q)
        for _ in range(12):
            G = _random_k3_matrix(rng, F)
            assert weight_distribution(G) == enumerated_weight_distribution(G), G.columns()
            _assert_dual_distance_oracles(G)
            zero_sets = enumerated_zero_sets(G)
            points = {geo.canonical(F, c) for c in G.columns() if any(c)}
            if len(points) < G.n or any(len(z) >= 4 for z in zero_sets):
                with pytest.raises(ValueError):
                    min_weight_supports(G)
            else:
                assert min_weight_supports(G) == sorted(z for z in zero_sets if len(z) == 3)


@pytest.mark.parametrize("q", [q for q in NMDS_ORACLE_Q if q <= 64])
def test_profile_dual_distance_matches_macwilliams_on_paper_codes(q):
    """Every paper code over GF(q), both column orders, against MacWilliams;
    the least admissible v or w also against the column ranks."""
    for label, G in paper_codes(q):
        assert _assert_dual_distance_oracles(G, brute=False) == 3, label
    assert _assert_dual_distance_oracles(paper_code(q)) == 3


def test_profile_dual_distance_at_the_smallest_lengths():
    F = field_from_order(5)
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert _assert_dual_distance_oracles(GeneratorMatrix.from_columns(F, frame)) is None
    four_arc = GeneratorMatrix.from_columns(F, frame + [(1, 1, 1)])
    assert geo.is_arc(F, four_arc.columns())
    assert _assert_dual_distance_oracles(four_arc) == 4


def test_k3_classify_makes_no_macwilliams_step(monkeypatch, q4_code):
    """k = 3 reads d_dual off the line profile, in classify and in
    lrc_report; k = 4 still takes the MacWilliams transform."""
    def no_transform(distribution, q):
        raise AssertionError("MacWilliams step")

    profile, report = classify(q4_code), lrc.lrc_report(q4_code)
    monkeypatch.setattr(codes, "_macwilliams_sums", no_transform)
    assert classify(q4_code) == profile and profile.category == "NMDS"
    assert lrc.lrc_report(q4_code, weight_distribution(q4_code)) == report
    F = make_field(2, 4)
    k4 = GeneratorMatrix.from_columns(F, [(1, t, F.mul(t, t), F.pow(t, 3)) for t in range(10)])
    with pytest.raises(AssertionError, match="MacWilliams step"):
        classify(k4)


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
