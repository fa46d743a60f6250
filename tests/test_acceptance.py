"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every numeric expectation
is exact (tolerance 0); runtime limits are asserted where stated.  The q=16
search target is best-effort and marked `long` (run with ARCCODES_LONG_TESTS=1).
"""

import functools
import random
import time

import pytest

from arccodes.field import field_from_order, make_field
from arccodes import geometry as geo
from arccodes.arcsearch import extend_to_n3_arc
from arccodes.codes import (
    classify,
    dual_weight_distribution,
    min_weight_supports,
    nmds_closed_form,
    weight_distribution,
)
from arccodes.construct import (
    build_even_matrix,
    build_odd_matrix,
    even_closed_form,
    odd_closed_form,
    solution_count_census,
    valid_v_set,
    valid_w_set,
)
from arccodes.fixtures import GOLDEN_Q4_EVEN, GOLDEN_Q8_LENGTH15, GOLDEN_Q9_ODD, GOLDEN_Q11_ODD
from arccodes.lrc import lrc_report
from arccodes.opoly import (
    is_o_polynomial,
    is_two_to_one_with_linear,
    make_custom_opoly,
    make_family_opoly,
)

from conftest import (EVEN_SWEEP_Q, ODD_SWEEP_Q, dual_matrix, enumerated_zero_sets, even_sweep,
                      odd_sweep, quadratic_character)


def _criterion(num, name, fn, limit=None):
    t0 = time.perf_counter()
    try:
        fn()
        elapsed = time.perf_counter() - t0
        if limit is not None and elapsed >= limit:
            print(f"ACCEPTANCE {num:2d} FAIL  {name} [{elapsed:.2f}s over the {limit}s limit]")
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {limit}s limit")
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {name}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {name} [{elapsed:.2f}s]")


def _check_golden(golden, build):
    F = golden.field()
    G = build(F)
    assert G == golden.matrix(), "matrix is not bit-exact"
    dist = weight_distribution(G)
    assert dist == golden.pinned_distribution()
    closed = even_closed_form(F.q) if golden.kind == "even" else odd_closed_form(F.q)
    assert dist == closed
    assert classify(G, dist).category == "NMDS"


def test_criterion_01_golden_q4():
    def run():
        def build(F):
            f = make_family_opoly(F, "translation", h=1)
            return build_even_matrix(f, F.element_from_str("g^1"))
        _check_golden(GOLDEN_Q4_EVEN, build)

    _criterion(1, "golden q=4 even construction, (30,18,9,6)", run, limit=1.0)


def test_criterion_02_golden_q9():
    def run():
        _check_golden(GOLDEN_Q9_ODD,
                      lambda F: build_odd_matrix(F, F.element_from_str("g^5")))

    _criterion(2, "golden q=9 odd construction, (160,248,144,176)", run, limit=1.0)


def test_criterion_03_golden_q11():
    def run():
        _check_golden(GOLDEN_Q11_ODD, lambda F: build_odd_matrix(F, 7))

    _criterion(3, "golden q=11 odd construction, (230,510,210,380)", run, limit=1.0)


def test_criterion_04_even_sweep():
    def run():
        seen_q = set()
        for built in even_sweep():
            q = built.q
            seen_q.add(q)
            profile = classify(built.G, built.dist)
            assert (profile.n, profile.k, profile.d) == (q + 5, 3, q + 2), built.label
            assert profile.category == "NMDS", built.label
            assert built.dist == even_closed_form(q), built.label
        assert seen_q == set(EVEN_SWEEP_Q)

    _criterion(4, "even sweep q in {4,8,16,32}: every family, every v", run, limit=300.0)


def test_criterion_05_odd_sweep():
    def run():
        seen_q = set()
        for built in odd_sweep():
            q = built.q
            seen_q.add(q)
            profile = classify(built.G, built.dist)
            assert (profile.n, profile.k, profile.d) == (q + 5, 3, q + 2), built.label
            assert profile.category == "NMDS", built.label
            match = built.dist == odd_closed_form(q)
            if q == 5:
                # smallest case is recorded either way, never hidden
                print(f"  q=5 {built.label}: closed form "
                      f"{'matches' if match else 'MISMATCH'} brute force "
                      f"{built.dist.to_pairs()}")
            assert match, f"q={q} {built.label}: distribution mismatch"
        assert seen_q == set(ODD_SWEEP_Q)

    _criterion(5, "odd sweep q in {5..27}: every w, branch-exact", run, limit=300.0)


def test_criterion_06_counting():
    def run():
        for q in (4, 8, 16, 32, 64):
            F = field_from_order(q)
            f = make_family_opoly(F, "translation", h=1)
            assert len(valid_v_set(f)) == q // 2, f"valid v count at q={q}"
        for q in (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49):
            F = field_from_order(q)
            expected = (q - 2 + quadratic_character(F, F.neg(1))) // 4
            assert len(valid_w_set(F)) == expected, f"valid w count at q={q}"
        with pytest.raises(ValueError):
            valid_w_set(make_field(3))  # the count formula gives 0 at q=3
        for q in (4, 8, 16, 256):
            F = field_from_order(q)
            f = make_family_opoly(F, "translation", h=1)
            v = min(valid_v_set(f))
            for kind in ("even-A1", "even-A2"):
                res = solution_count_census(kind, F, f=f, v=v)
                assert set(res.counts) <= {0, 2}, f"{kind} q={q}"
                assert res.pairs_with(2) == (q - 1) * (q - 2) // 2, f"{kind} q={q}"
                assert res.diagonal_ok
        for q in (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 251, 521):
            F = field_from_order(q)
            w = min(valid_w_set(F))
            eta_m1 = quadratic_character(F, F.neg(1))
            b1 = solution_count_census("odd-B1", F, w=w)
            b2 = solution_count_census("odd-B2", F, w=w)
            assert set(b1.counts) <= {0, 1, 2} and set(b2.counts) <= {0, 1, 2}
            assert b1.pairs_with(2) == (q - 1) * (q - 3) // 2, f"B1 q={q}"
            assert b2.pairs_with(2) == (q - 1) * (q - 2 + eta_m1) // 2, f"B2 q={q}"
            assert b1.diagonal_ok and b2.diagonal_ok

    _criterion(6, "counting: |valid v| = q/2, |valid w| = (q-2+eta(-1))/4, censuses", run)


def test_criterion_07_character_identities():
    # The quadratic-sum identity is checked against its true closed form:
    # sum_x eta(a x^2 + b x + c) is -eta(a) when b^2 - 4ac != 0 and
    # (q-1) eta(a) when the quadratic degenerates to a times a square
    # (e.g. q=3, a=1, b=c=0 sums to +2).  The reference statement omits the
    # degenerate branch; every construction-facing use has b^2 - 4ac != 0 and
    # lands in the -eta(a) branch, which is asserted for all such triples.
    def run():
        degenerate_seen = 0
        for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27):
            F = field_from_order(q)
            eta = functools.partial(quadratic_character, F)
            chi = [eta(x) for x in range(q)]
            mul, add, sub = F.mul, F.add, F.sub
            for x in range(q):
                for y in range(q):
                    assert chi[mul(x, y)] == chi[x] * chi[y]
            assert sum(chi) == 0
            assert eta(F.neg(1)) == (1 if q % 4 == 1 else -1)
            four = F.add(F.add(1, 1), F.add(1, 1))
            rows = [[mul(u, x) for x in range(q)] for u in range(q)]
            for a in range(1, q):
                arow = rows[a]
                four_a = mul(four, a)
                for b in range(q):
                    brow = rows[b]
                    b2 = mul(b, b)
                    for c in range(q):
                        total = 0
                        for x in range(q):
                            total += chi[add(add(arow[mul(x, x)], brow[x]), c)]
                        if sub(b2, mul(four_a, c)):
                            assert total == -chi[a], f"q={q} a={a} b={b} c={c}"
                        else:
                            degenerate_seen += 1
                            assert total == (q - 1) * chi[a], f"q={q} a={a} b={b} c={c}"
        print(f"  quadratic sums: degenerate branch (b^2 = 4ac) hit "
              f"{degenerate_seen} times and matched (q-1)*eta(a) exactly")

    _criterion(7, "character identities exhaustive for odd q <= 27", run)


def test_criterion_08_nmds_formula_oracle():
    def run():
        codes_small = [b for b in even_sweep() + odd_sweep() if b.q <= 16]
        assert codes_small
        for built in codes_small:
            q, G, dist = built.q, built.G, built.dist
            n = G.n
            a_min = dist[n - 3]
            primal, dual = nmds_closed_form(n, 3, q, a_min)
            assert primal == dist, f"q={q} {built.label}: primal formula"
            assert dual_weight_distribution(dist, q, 3) == dual, \
                f"q={q} {built.label}: MacWilliams dual"
            triples = min_weight_supports(G)
            assert dual[3] == (q - 1) * len(triples), f"q={q} {built.label}: dual seed"
            assert sum(dual.counts) == q ** (n - 3)
            H = dual_matrix(G)
            dual_profile = classify(H, dual)
            assert (dual_profile.d, dual_profile.d_dual, dual_profile.category) == \
                (3, q + 2, "NMDS"), f"q={q} {built.label}: dual profile"
            if q <= 5:
                # the dual is small enough to enumerate outright
                assert dual == weight_distribution(H)
        for built in [b for b in codes_small if b.q <= 9]:
            # each minimum-weight zero set is a weight-3 dual support and back,
            # and the two codes have equally many minimum-weight words
            G, n = built.G, built.G.n
            triples = min_weight_supports(G)
            zero_sets = {z for z in enumerated_zero_sets(G) if len(z) == 3}
            assert zero_sets == set(triples), f"q={built.q} {built.label}: pairing"
            assert built.dist[n - 3] == (built.q - 1) * len(triples), built.label

    _criterion(8, "closed-form oracle, NMDS duals q <= 16; disjoint-support pairing q <= 9", run)


def test_criterion_09_locality_and_bounds():
    def run():
        for built in even_sweep() + odd_sweep():
            q = built.q
            rep = lrc_report(built.G, built.dist)
            assert rep["r_primal"] == 2, built.label
            assert rep["r_dual"] == q + 1, built.label
            for flag in ("d_optimal", "k_optimal", "dual_d_optimal", "dual_k_optimal"):
                assert rep[flag] is True, f"q={q} {built.label}: {flag}"

    _criterion(9, "locality (2, q+1) and all four optimality flags, q <= 32", run)


def test_criterion_10_conclusion_and_search():
    def run():
        G = GOLDEN_Q8_LENGTH15.matrix()
        F, pts = G.field, G.columns()
        dist = weight_distribution(G)
        assert dist == GOLDEN_Q8_LENGTH15.pinned_distribution()
        assert dist == nmds_closed_form(15, 3, 8, dist[12])[0]
        p = classify(G, dist)
        assert (p.n, p.k, p.d, p.category) == (15, 3, 12, "NMDS")
        assert geo.is_n3_arc(F, pts) and geo.is_arc(F, pts[:10])
        assert G.n > 8 + 5 + 1  # q + floor(2 sqrt q) + 1
        f = make_family_opoly(F, "translation", h=1)
        hyper = geo.hyperoval_from_opoly(f)
        t0 = time.perf_counter()
        pts, stats = extend_to_n3_arc(F, hyper, strategy="dfs", target_size=15,
                                      max_seconds=60)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert stats.found_n >= 15
        assert geo.is_n3_arc(F, pts)

    _criterion(10, "length-15 fixture verifies; q=8 search reaches n>=15 in <60s", run)


@pytest.mark.long  # best-effort q=16 target
def test_criterion_10b_q16_best_effort():
    F = make_field(2, 4)
    f = make_family_opoly(F, "translation", h=1)
    hyper = geo.hyperoval_from_opoly(f)
    pts, stats = extend_to_n3_arc(F, hyper, strategy="dfs", target_size=25,
                                  max_seconds=600)
    print(f"ACCEPTANCE 10b REPORT q=16 search: found_n={stats.found_n} "
          f"nodes={stats.nodes} elapsed={stats.elapsed_ms}ms (target 25, not gating)")
    assert geo.is_n3_arc(F, pts) or geo.is_arc(F, pts)


def test_criterion_11_property_suite():
    def run():
        rng = random.Random(1202)
        fields = [field_from_order(q) for q in
                  (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81,
                   125, 128, 243, 256, 1024, 8192, 65521)]
        for F in fields:
            q = F.q
            for _ in range(2000):
                a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.add(a, F.neg(a)) == 0
                if a:
                    assert F.mul(a, F.inv(a)) == 1
        for q in (4, 8, 16):
            F = field_from_order(q)
            for _ in range(50):
                coeffs = [0] + [rng.randrange(q) for _ in range(q - 1)]
                # pin f(1) = 1: the value at 1 is the coefficient sum
                rest = 0
                for i, cc in enumerate(coeffs):
                    if i != 1:
                        rest = F.add(rest, cc)
                coeffs[1] = F.add(1, rest)
                f = make_custom_opoly(F, coeffs)
                assert f.values[0] == 0 and f.values[1] == 1
                agree = is_o_polynomial(f).ok == is_two_to_one_with_linear(f).ok
                assert agree, f"criterion disagreement at q={q}: {f.coeffs}"

    _criterion(11, "2000 axiom checks per field; validator agreement on 150 polys", run)
