import ast
import random
from pathlib import Path

import pytest

import arccodes
from arccodes.field import (
    GF,
    MAX_ORDER,
    _DEFAULT_MODULI,
    _is_irreducible,
    field_from_order,
    make_field,
    parse_descriptor,
    parse_key_values,
    prime_factors,
)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4)]


def test_reference_moduli():
    assert make_field(2, 2).modulus == (1, 1, 1)          # x^2+x+1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)       # x^3+x+1
    assert make_field(3, 2).modulus == (2, 2, 1)          # x^2+2x+2


def test_default_modulus_table_is_valid():
    for (p, m), coeffs in _DEFAULT_MODULI.items():
        assert _is_irreducible(p, coeffs)
        F = make_field(p, m)
        # the table entries are primitive: x generates the multiplicative group
        assert F.generator == p


def test_construction_errors():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 2, [0, 1, 1])  # x^2 + x = x(x+1)
    with pytest.raises(ValueError):
        make_field(2, 2, [1, 1])  # wrong degree
    with pytest.raises(ValueError):
        make_field(2, 17)  # q > 2^16
    assert make_field(2, 16).q == MAX_ORDER


def test_field_from_order():
    assert field_from_order(9).q == 9
    assert field_from_order(11).m == 1
    with pytest.raises(ValueError):
        field_from_order(12)
    with pytest.raises(ValueError):
        field_from_order(1)


def test_huge_parameters_rejected_before_factoring():
    # Each must fail before any trial division or p**m.
    for p, m in ((3, 100_000_000), (1_000_000_000_000_000_003, 1), (2, 99_999_999_999)):
        with pytest.raises(ValueError, match="exceeds the supported range"):
            make_field(p, m)
    with pytest.raises(ValueError, match="exceeds the supported range"):
        field_from_order(2_305_843_009_213_693_951)  # 2^61 - 1
    with pytest.raises(ValueError, match="not prime"):
        make_field(1, 100)


def test_gf4_multiplication():
    # xi = 2, xi^2 = 3; reduced by hand mod x^2+x+1
    F = make_field(2, 2)
    assert F.mul(2, 2) == 3       # xi * xi = xi + 1
    assert F.mul(2, 3) == 1       # xi^3 = 1
    assert all(F.mul(1, a) == a for a in range(4))


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    F = make_field(p, m)
    K = F.kernel
    q = F.q
    for a in range(q):
        for b in range(q):
            assert F.mul(a, b) == F.mul(b, a) == K.mul(a, b) == K.mul(b, a)
            assert F.add(a, b) == F.add(b, a) == K.add(a, b) == K.add(b, a)
            assert K.add(K.sub(a, b), b) == a
        assert F.add(a, F.neg(a)) == 0 == K.add(a, K.sub(0, a)) == K.sub(a, a)
        if a:
            assert F.mul(a, F.inv(a)) == 1 == K.mul(a, K.inv(a))
    if q <= 16:
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert K.mul(a, K.sub(b, c)) == K.sub(K.mul(a, b), K.mul(a, c))
                    assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))


def _digitwise(F, *elements, combine):
    """Combine elements digit by digit from the index encoding sum(c_i p^i)."""
    p = F.p
    digits = [[x // p ** i % p for i in range(F.m)] for x in elements]
    return sum(combine(*cs) % p * p ** i for i, cs in enumerate(zip(*digits)))


def _schoolbook(F, a, b):
    """a * b from the index encoding: the product of the digit polynomials,
    reduced by the field's monic modulus, with no table."""
    p, m = F.p, F.m
    da, db = ([x // p ** i % p for i in range(m)] for x in (a, b))
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for k in range(2 * m - 2, m - 1, -1):  # x^k = -x^(k-m) (modulus - x^m)
        for i in range(m):
            prod[k - m + i] -= prod[k] * F.modulus[i]
    return sum(prod[i] % p * p ** i for i in range(m))


# Both addition rules (XOR, Zech logarithms) and the log-table product, public
# and kernel, at small and large q, in prime fields and extensions, with odd q
# on both sides of 512.
@pytest.mark.parametrize("q", [2, 8, 256, 3, 5, 7, 509, 521, 65521, 9, 25, 27, 243, 529, 729])
def test_addition_matches_digitwise_oracle(q):
    F = field_from_order(q)
    K = F.kernel
    if q <= 27:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        pairs += [(0, 0), (1, F.p - 1), (q - 1, 1), (0, q - 1), (q - 1, 0), (q - 1, q - 1)]
    for a, b in pairs:
        assert F.add(a, b) == K.add(a, b) == _digitwise(F, a, b, combine=lambda x, y: x + y)
        assert F.sub(a, b) == K.sub(a, b) == _digitwise(F, a, b, combine=lambda x, y: x - y)
        assert F.neg(a) == K.sub(0, a) == _digitwise(F, a, combine=lambda x: -x)
        assert F.mul(a, b) == K.mul(a, b) == _schoolbook(F, a, b)
        if b:
            assert F.inv(b) == K.inv(b) and _schoolbook(F, K.inv(b), b) == 1


@pytest.mark.parametrize("q", [2, 8, 5, 521, 9, 243])
def test_kernel_inverse_of_zero_raises(q):
    F = field_from_order(q)
    with pytest.raises(ZeroDivisionError):
        F.kernel.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_only_field_module_reads_field_tables():
    """The element encoding stays in field.py: no other module of the
    package reads a field's log, antilog or Zech table."""
    tables = {"_exp", "_log", "_zech"}
    package = Path(arccodes.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "field.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in tables
    ]
    assert not readers


def test_pow_semantics():
    F = make_field(2, 3)
    g = F.primitive_element()
    assert F.pow(g, F.q - 1) == 1
    assert F.pow(g, -1) == F.inv(g)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_out_of_range_elements_rejected():
    F = make_field(2, 1)
    with pytest.raises(ValueError):
        F.mul(1, 3)  # an element of a bigger field
    with pytest.raises(ValueError):
        F.add(-1, 0)


@pytest.mark.parametrize("q", [5, 8, 9])
def test_non_int_elements_rejected(q):
    # in range but not an index: the unchecked kernel would raise TypeError
    F = field_from_order(q)
    for op in (F.add, F.sub, F.mul):
        for a, b in ((1.5, 2), (2, 2.0), ("1", 1)):
            with pytest.raises(ValueError, match="not an element index"):
                op(a, b)
    for op in (F.neg, F.inv, F.check):
        with pytest.raises(ValueError, match="not an element index"):
            op(1.0)


class _Index:
    def __index__(self):
        return 3


def test_as_element_converts_like_operator_index():
    F = field_from_order(5)
    assert F.as_element(4) == 4
    assert F.as_element(True) == 1 and type(F.as_element(True)) is int
    assert F.as_element(_Index()) == 3
    for bad in (1.5, 1.0, "1", None, 5, -1):
        with pytest.raises(ValueError, match="not an element index"):
            F.as_element(bad)


def test_as_element_accepts_numpy_integers():
    np = pytest.importorskip("numpy")
    F = field_from_order(9)
    assert F.as_element(np.int64(7)) == 7 and type(F.as_element(np.uint8(2))) is int
    with pytest.raises(ValueError, match="not an element index"):
        F.as_element(np.float64(2.0))


def test_primitive_element():
    assert make_field(2, 2).primitive_element() == 2   # xi
    assert make_field(2, 1).primitive_element() == 1
    assert make_field(11).primitive_element() == 2     # 2 has order 10 mod 11


def _schoolbook_order(F, a):
    """The multiplicative order of a nonzero a, by repeated schoolbook products."""
    v, k = a, 1
    while v != 1:
        v, k = _schoolbook(F, v, a), k + 1
    return k


SUPPORTED_ORDERS = [q for q in range(2, 1025) if len(prime_factors(q)) == 1]


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_generator_and_antilog_table_match_schoolbook(q):
    """The generator is the least index of order q-1, and _exp[i] = g^i,
    both checked with table-free products."""
    F = field_from_order(q)
    g, n = F.generator, q - 1
    assert all(_schoolbook_order(F, a) < n for a in range(1, g))
    v = 1
    for i in range(n):
        assert F._exp[i] == v and (v != 1 or i == 0)
        v = _schoolbook(F, v, g)
    assert v == 1


def test_prime_field_modulus_is_x_minus_least_primitive_root():
    for p in range(2, 1000):
        if prime_factors(p) != [p]:
            continue
        g0 = next(g for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
        assert make_field(p).modulus == ((-g0) % p, 1)


@pytest.mark.parametrize("p,m,modulus", [
    (2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)),
    (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
    (2, 16, (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (3, 10, (2, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
    (7, 5, (4, 1, 0, 0, 0, 1)),
])
def test_searched_default_moduli_are_pinned(p, m, modulus):
    """Untabulated (p, m) get the least primitive irreducible by the
    low-to-high encoding; these are the moduli that search gives."""
    assert (p, m) not in _DEFAULT_MODULI
    assert make_field(p, m).modulus == modulus


def test_quadratic_character_gf11():
    F = make_field(11)
    squares = {pow(x, 2, 11) for x in range(1, 11)}
    assert squares == {1, 3, 4, 5, 9}
    for x in range(11):
        expected = 0 if x == 0 else (1 if x in squares else -1)
        assert F.quadratic_character(x) == expected
    assert F.quadratic_character(F.neg(1)) == -1   # 11 = 3 mod 4
    assert F.quadratic_character(7) == -1


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27, 243, 3 ** 10, 65521])
def test_quadratic_character_is_one_exactly_on_the_nonzero_squares(q):
    F = field_from_order(q)
    eta = F.quadratic_character
    squares = {F.mul(y, y) for y in range(1, q)}
    assert eta(0) == 0
    assert {x for x in range(1, q) if eta(x) == 1} == squares
    assert all(eta(x) == -1 for x in range(1, q) if x not in squares)


def test_quadratic_character_even_char_rejected():
    with pytest.raises(ValueError):
        make_field(2, 2).quadratic_character(1)


@pytest.mark.parametrize("q", [3, 5, 9, 11, 13])
def test_character_identities(q):
    F = field_from_order(q)
    eta = F.quadratic_character
    for x in range(q):
        for y in range(q):
            assert eta(F.mul(x, y)) == eta(x) * eta(y)
    assert sum(eta(x) for x in range(q)) == 0
    expected = 1 if q % 4 == 1 else -1
    assert eta(F.neg(1)) == expected


def test_trace():
    F4 = make_field(2, 2)
    assert F4.trace(2) == 1        # xi + xi^2 = 1
    assert F4.trace(0) == 0
    F16 = make_field(2, 4)
    fibers = {}
    for x in range(16):
        fibers.setdefault(F16.trace(x), 0)
        fibers[F16.trace(x)] += 1
    assert fibers == {0: 8, 1: 8}


def test_enumerate_powers_order():
    F9 = make_field(3, 2)
    # descending powers of the generator, hand-reduced mod x^2+2x+2
    assert F9.elements() == [5, 8, 6, 2, 7, 4, 3, 1, 0]
    assert make_field(11).elements() == list(range(10, -1, -1))
    assert make_field(2, 1).elements() == [1, 0]
    for p, m in SMALL_FIELDS:
        F = make_field(p, m)
        seq = F.elements()
        assert sorted(seq) == list(range(F.q))
        assert seq[-1] == 0


def test_element_text_forms():
    F = make_field(2, 3)
    g = F.primitive_element()
    assert F.element_to_str(F.pow(g, 3), powers=True) == "g^3"
    assert F.element_from_str("g^3") == F.pow(g, 3)
    assert F.element_from_str("g") == g
    assert F.element_from_str("0") == 0
    assert F.element_to_str(1, powers=True) == "1"
    for x in range(F.q):
        for powers in (False, True):
            assert F.element_from_str(F.element_to_str(x, powers)) == x


def test_descriptor_round_trip():
    F = make_field(2, 3)
    assert F.descriptor() == "p=2 m=3 mod=1,1,0,1"
    assert parse_descriptor(F.descriptor()) == F
    with pytest.raises(ValueError):
        parse_descriptor("p=2 mod=1,1")
    with pytest.raises(ValueError, match="token 'junk'"):
        parse_descriptor("p=2 m=3 junk")


def test_repeated_key_rejected():
    assert parse_key_values("p=2 m=3 mod=1,1,0,1") == {"p": "2", "m": "3", "mod": "1,1,0,1"}
    with pytest.raises(ValueError, match="key 'mod' repeated"):
        parse_key_values("q=8 p=2 m=3 mod=1,1,0,1 mod=1,0,1,1")
    with pytest.raises(ValueError, match="key 'p' repeated"):
        parse_descriptor("p=2 m=3 p=3 mod=1,1,0,1")


def test_make_field_caches():
    assert make_field(2, 3) is make_field(2, 3)
    assert make_field(2, 3) == GF(2, 3)


def test_prime_factors():
    assert prime_factors(65535) == [3, 5, 17, 257]
    assert prime_factors(8) == [2]


def test_randomized_axioms_medium_fields():
    rng = random.Random(20240817)
    for q in (32, 64, 81, 125):
        F = field_from_order(q)
        for _ in range(200):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            if a:
                assert F.mul(a, F.inv(a)) == 1
                assert F.pow(a, q - 1 + 3) == F.pow(a, 3)
