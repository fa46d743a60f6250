import random
from math import gcd

import pytest

from arccodes.field import make_field, field_from_order
from arccodes.opoly import (
    applicable_families,
    interpolate,
    is_o_polynomial,
    is_two_to_one_with_linear,
    make_custom_opoly,
    make_family_opoly,
    parse_opoly_descriptor,
)
from conftest import quotient_verdict


def test_translation_gf4_is_square():
    F = make_field(2, 2)
    f = make_family_opoly(F, "translation", h=1)
    assert f.coeffs == (0, 0, 1)
    assert f.values[2] == F.mul(2, 2)


def test_segre_is_sixth_power():
    F = make_field(2, 3)
    f = make_family_opoly(F, "segre")
    assert f.coeffs == (0, 0, 0, 0, 0, 0, 1)
    g = F.primitive_element()
    assert f.values[g] == F.pow(g, 6)


def test_family_applicability_errors():
    with pytest.raises(ValueError):
        make_family_opoly(make_field(2, 2), "segre")  # m=2 even
    with pytest.raises(ValueError):
        make_family_opoly(make_field(2, 4), "translation", h=2)  # gcd(2,4)=2
    with pytest.raises(ValueError):
        make_family_opoly(make_field(3, 2), "translation", h=1)  # odd char
    with pytest.raises(ValueError):
        make_family_opoly(make_field(2, 3), "glynn3")  # needs m=1 mod 4, m>=5
    with pytest.raises(ValueError):
        make_family_opoly(make_field(2, 2), "subiaco")  # a would need to leave GF(4)
    with pytest.raises(ValueError):
        make_family_opoly(make_field(2, 3), "adelaide")  # m odd
    with pytest.raises(ValueError):
        make_family_opoly(make_field(2, 3), "nosuch")


FAMILIES = ("translation", "segre", "glynn1", "glynn2", "glynn3", "cherowitzo", "payne",
            "subiaco", "adelaide")


def test_families_left_out_only_by_their_own_rule():
    for m in range(1, 11):
        F = make_field(2, m)
        present = {f.family for f in applicable_families(F)}
        for family in FAMILIES:
            if family not in present:
                with pytest.raises(ValueError, match=f"^{family}:"):
                    make_family_opoly(F, family)


def test_is_o_polynomial_verdicts():
    F = make_field(2, 2)
    assert is_o_polynomial(make_family_opoly(F, "translation", h=1)).ok
    v = is_o_polynomial(make_custom_opoly(F, [0, 1]))  # f(x) = x
    assert not v.ok and v.condition == "quotient-permutation"
    v = is_o_polynomial(make_custom_opoly(F, [1, 1]))  # f(0) != 0
    assert not v.ok
    assert is_o_polynomial(make_family_opoly(make_field(2, 3), "segre")).ok


def _verdict_triple(f):
    v = is_o_polynomial(f)
    return v.ok, v.condition, v.witness


@pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
def test_is_o_polynomial_matches_full_quotient_oracle_on_families(q):
    for f in applicable_families(field_from_order(q)):
        assert _verdict_triple(f) == quotient_verdict(f) == (True, None, None), f.descriptor()


@pytest.mark.parametrize("q", [16, 32, 64])
def test_is_o_polynomial_matches_full_quotient_oracle_on_near_misses(q):
    """A valid value table with two entries swapped.  Unless the swap moves
    f(0) or f(1), the quotient condition decides, and the witness is 0:
    the line through (0, 0) and a moved point meets the hyperoval again in
    a point that did not move."""
    rng = random.Random(q)
    F = field_from_order(q)
    tables = [f.values for f in applicable_families(F)]
    verdicts = []
    for _ in range(100):
        values = list(rng.choice(tables))
        s, t = rng.sample(range(q), 2)
        values[s], values[t] = values[t], values[s]
        f = make_custom_opoly(F, interpolate(F, values))
        assert f.values == tuple(values)
        verdicts.append(_verdict_triple(f))
        assert verdicts[-1] == quotient_verdict(f), (q, s, t)
    assert {v for v in verdicts if v[1] == "quotient-permutation"} == {
        (False, "quotient-permutation", 0)}


def test_is_o_polynomial_matches_full_quotient_oracle_on_monomials():
    """Every permutation monomial x^k at q = 16, 32, 64: x -> c x maps its
    graph to itself, so the nonzero points all lie on a collinear triple or
    none does, and some fail first at a = 1."""
    verdicts = []
    for q in (16, 32, 64):
        F = field_from_order(q)
        for k in range(2, q - 1):
            if gcd(k, q - 1) == 1:
                f = make_custom_opoly(F, [0] * k + [1])
                verdicts.append(_verdict_triple(f))
                assert verdicts[-1] == quotient_verdict(f), (q, k)
    assert (True, None, None) in verdicts
    assert {v[2] for v in verdicts if not v[0]} == {0, 1}


def test_two_to_one_verdicts():
    F = make_field(2, 2)
    assert is_two_to_one_with_linear(make_family_opoly(F, "translation", h=1)).ok
    v = is_two_to_one_with_linear(make_custom_opoly(F, [0, 0, 0, 1]))  # x^3
    assert not v.ok and v.witness is not None
    for coeffs in ([1], [1, 1]):  # f(0) != 0: is_o_polynomial's condition name
        v = is_two_to_one_with_linear(make_custom_opoly(F, coeffs))
        assert (v.ok, v.condition, v.witness) == (False, "f(0)=0", 0)


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_builtin_families_validate(q):
    F = field_from_order(q)
    fams = applicable_families(F)
    assert fams, "at least the translation family applies"
    for f in fams:
        tab = f.values
        assert tab[0] == 0 and tab[1] == 1
        assert is_o_polynomial(f).ok, f.descriptor()
        assert is_two_to_one_with_linear(f).ok, f.descriptor()
        assert len(f.shift_complement) == q // 2


def test_expected_families_present():
    names8 = {f.family for f in applicable_families(make_field(2, 3))}
    assert names8 == {"translation", "segre", "glynn1", "glynn2", "cherowitzo",
                      "payne", "subiaco"}
    names16 = {f.family for f in applicable_families(make_field(2, 4))}
    assert names16 == {"translation", "subiaco", "adelaide"}
    names32 = {f.family for f in applicable_families(make_field(2, 5))}
    assert names32 == {"translation", "segre", "glynn1", "glynn3", "cherowitzo",
                       "payne", "subiaco"}


def test_payne_exponents():
    # q=32: the three exponents are the 1/6, 1/2, 5/6 powers mod q-1
    F = make_field(2, 5)
    f = make_family_opoly(F, "payne")
    exps = {i for i, c in enumerate(f.coeffs) if c}
    assert exps == {6, 16, 26}
    assert (6 * 26) % 31 == 1  # x^26 really is the sixth root


def test_two_to_one_exhaustive_q64():
    F = make_field(2, 6)
    f = make_family_opoly(F, "translation", h=1)
    assert is_two_to_one_with_linear(f).ok
    assert len(f.shift_complement) == 32


def test_descriptor_parse_round_trip():
    F = make_field(2, 3)
    for text in ("translation:h=2", "segre", "subiaco:a=1"):
        f = parse_opoly_descriptor(F, text)
        assert parse_opoly_descriptor(F, f.descriptor()).coeffs == f.coeffs
    f = parse_opoly_descriptor(F, "custom:coeffs=0,0,1")
    assert f.coeffs == (0, 0, 1)
    with pytest.raises(ValueError):
        parse_opoly_descriptor(F, "translation:h")


@pytest.mark.parametrize("text", ["custom:coeffs", "custom:coeffsX", "custom:a=1,coeffs=0,1"])
def test_custom_descriptor_needs_coeffs_first(text):
    with pytest.raises(ValueError, match=r"^custom: needs coeffs=c0,c1,\.\.\.$"):
        parse_opoly_descriptor(make_field(2, 2), text)


def test_custom_descriptor_takes_the_rest_as_coefficients():
    F = make_field(2, 3)
    assert parse_opoly_descriptor(F, "custom: coeffs=0,g^1,1,0").coeffs == (0, 2, 1)
    with pytest.raises(ValueError, match="bad field element 'h=1'"):
        parse_opoly_descriptor(F, "custom:coeffs=0,1,h=1")
    with pytest.raises(ValueError, match="unknown o-polynomial family 'custom'"):
        make_family_opoly(F, "custom", coeffs=(0, 1))


def test_descriptor_repeated_parameter_rejected():
    F = make_field(2, 3)
    with pytest.raises(ValueError, match="'h' repeated"):
        parse_opoly_descriptor(F, "translation:h=1,h=2")
    with pytest.raises(ValueError, match="'a' repeated"):
        parse_opoly_descriptor(F, "subiaco:a=1, a=g^2")


def test_interpolation_reconstructs_values():
    rng = random.Random(7)
    for q in (7, 8, 9, 16, 25):
        F = field_from_order(q)
        for values in ([0] * q, list(range(q)),
                       *([rng.randrange(q) for _ in range(q)] for _ in range(5))):
            coeffs = interpolate(F, values)
            assert len(coeffs) <= q
            assert coeffs == (0,) or coeffs[-1] != 0
            assert make_custom_opoly(F, coeffs).values == tuple(values), (q, values)


def test_interpolation_checks_each_value():
    F = make_field(2, 3)
    with pytest.raises(ValueError, match="one value per field element"):
        interpolate(F, [0] * 7)
    for bad in (8, -1, 1.0, "1"):
        with pytest.raises(ValueError, match="not an element index"):
            interpolate(F, [0] * 7 + [bad])


def test_interpolated_families_pinned_at_q16():
    F = make_field(2, 4)
    assert make_family_opoly(F, "subiaco").coeffs == (
        0, 0, 15, 0, 13, 0, 14, 0, 1, 0, 14, 0, 13, 0, 15)
    assert make_family_opoly(F, "adelaide").coeffs == (
        0, 0, 9, 0, 10, 0, 8, 0, 1, 0, 8, 0, 10, 0, 9)


def test_values_built_once_and_outside_equality():
    F = make_field(2, 4)
    f = make_family_opoly(F, "subiaco")
    assert f.values is f.values
    horner = [0] * F.q
    for c in reversed(f.coeffs):
        horner = [F.add(F.mul(h, x), c) for x, h in enumerate(horner)]
    assert horner == list(f.values)
    g = make_family_opoly(F, "subiaco")
    assert g == f and hash(g) == hash(f)
    assert "values" not in repr(f)


def test_subiaco_interpolated_form_matches_pointwise():
    F = make_field(2, 4)
    f = make_family_opoly(F, "subiaco")
    a = dict(f.params)["a"]
    assert F.trace(F.inv(a)) == 1
    assert f.degree < F.q
    assert make_family_opoly(F, "subiaco", a=a) == f
    for bad in (float(a), a + 0.5, str(a)):
        with pytest.raises(ValueError, match="not an element index"):
            make_family_opoly(F, "subiaco", a=bad)
    with pytest.raises(ValueError, match="not an element index"):
        make_custom_opoly(F, [0, 0, 1.0])


def test_integer_parameters_converted_as_index():
    F = make_field(2, 4)
    for family, key, bad in (("translation", "h", 1.9), ("translation", "h", "3"),
                             ("adelaide", "t", 5.7), ("adelaide", "t", "5"),
                             ("adelaide", "beta_power", 1.0),
                             ("adelaide", "beta_power", "1")):
        with pytest.raises(ValueError, match=f"parameter {key}=.* is not an integer"):
            make_family_opoly(F, family, **{key: bad})
    assert make_family_opoly(F, "translation", h=1).descriptor() == "translation:h=1"
    assert make_family_opoly(F, "translation", h=True) == make_family_opoly(F, "translation", h=1)
    assert dict(make_family_opoly(F, "adelaide", t=-5).params)["t"] == -5
    assert parse_opoly_descriptor(F, "translation:h=3").descriptor() == "translation:h=3"
    assert parse_opoly_descriptor(F, "adelaide:t=-5") == make_family_opoly(F, "adelaide", t=-5)


def test_adelaide_q16():
    F = make_field(2, 4)
    f = make_family_opoly(F, "adelaide")
    assert dict(f.params)["t"] == 5
    assert is_o_polynomial(f).ok
    with pytest.raises(ValueError):
        make_family_opoly(F, "adelaide", t=7)  # not +-(q-1)/3 mod q+1
