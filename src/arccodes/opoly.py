"""O-polynomials over GF(2^m): the nine known families, evaluation, and the
two exhaustive validity checks (permutation/quotient criterion and the
2-to-1-with-linear-term criterion).

A polynomial f of degree < q with f(0)=0 and f(1)=1 parameterizes a
hyperoval {(f(c), c, 1)} + {(1,0,0), (0,1,0)} exactly when f permutes GF(q)
and, for every a, the quotient map x -> (f(x+a)+f(a)) * x^(q-2) also
permutes GF(q).  Equivalently (given f(0)=0): x -> f(x) + u*x is 2-to-1 for
every nonzero u.

The quotient map at a sends x = y + a to the slope of the chord from
(f(a), a) to (f(y), y), so for a permutation f it fails to permute exactly
when a lies on a collinear triple of graph points.  `is_o_polynomial` tests each pair once:
a against the later points y > a only.  A triple shows there at its least
point, so the first a that fails is the same as for the full quotient maps.

Every later step reads only the values of f, so an o-polynomial carries its
value table, `values`: one Horner pass over GF(q) on the field's unchecked
kernel, built on first use and kept with the polynomial.  The coefficients
are checked when the polynomial is built.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import repeat
from math import gcd
from operator import index

from .field import GF, MAX_ORDER, make_field, parse_int


@dataclass(frozen=True)
class OPolynomial:
    """Dense coefficient form (low-to-high, degree < q) plus its provenance."""

    field: GF
    family: str
    params: tuple[tuple[str, int], ...]
    coeffs: tuple[int, ...]

    def __post_init__(self):
        for c in self.coeffs:  # checked here, so the evaluations run unchecked
            self.field.check(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def values(self) -> tuple[int, ...]:
        """f(x) for every x in GF(q), indexed by x; not part of equality."""
        add, mul = self.field.kernel.add, self.field.kernel.mul
        out = []
        for x in range(self.field.q):
            acc = 0
            for c in reversed(self.coeffs):
                acc = add(mul(acc, x), c)
            out.append(acc)
        return tuple(out)

    @cached_property
    def shift_complement(self) -> frozenset[int]:
        """The elements outside the image of x -> f(x) + x: the admissible v
        of the even construction when f is an o-polynomial."""
        q, add = self.field.q, self.field.kernel.add
        return frozenset(range(q)) - frozenset(map(add, self.values, range(q)))

    def descriptor(self, powers: bool = False) -> str:
        if self.family == "custom":
            toks = ",".join(self.field.element_to_str(c, powers) for c in self.coeffs)
            return f"custom:coeffs={toks}"
        if not self.params:
            return self.family
        parts = []
        for key, value in self.params:
            if key == "a":
                parts.append(f"a={self.field.element_to_str(value, True)}")
            else:
                parts.append(f"{key}={value}")
        return self.family + ":" + ",".join(parts)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    condition: str | None = None
    witness: int | None = None

    def __bool__(self):
        return self.ok


def _monomial_opoly(F: GF, family: str, params, exponents) -> OPolynomial:
    # Reduce exponents as functions on GF(q): x^e == x^(((e-1) mod (q-1)) + 1)
    # for e >= 1, then add coefficients (colliding exponents accumulate).
    coeffs = [0] * F.q
    deg = 0
    for e in exponents:
        e = ((e - 1) % (F.q - 1)) + 1
        coeffs[e] = F.add(coeffs[e], 1)
        deg = max(deg, e)
    return OPolynomial(F, family, tuple(params), tuple(coeffs[: deg + 1]))


def interpolate(F: GF, values) -> tuple[int, ...]:
    """The reduced polynomial through (x, values[x]) for all x in GF(q).

    c_0 = f(0) and c_k = -sum_a f(a) a^(q-1-k) for k >= 1, with 0^0 = 1, so
    a = 0 counts for k = q-1 alone and the other terms run over a = g^i.
    Returns dense coefficients low-to-high (degree < q, trailing zeros
    stripped, constant 0 kept as a single coefficient).
    """
    q = F.q
    if len(values) != q:
        raise ValueError("need one value per field element")
    values = [F.check(y) for y in values]
    add, sub, mul = F.kernel.add, F.kernel.sub, F.kernel.mul
    n, g = q - 1, F.primitive_element()
    powers = [1]  # powers[i] = g^i, i < n
    for _ in range(n - 1):
        powers.append(mul(powers[-1], g))
    at_powers = [values[a] for a in powers]
    coeffs = [values[0]]
    for k in range(1, q):
        e = n - k
        acc = values[0] if e == 0 else 0
        for i, y in enumerate(at_powers):
            acc = add(acc, mul(y, powers[i * e % n]))
        coeffs.append(sub(0, acc))
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _inv0(F: GF, x: int) -> int:
    """x^(q-2): the inverse for nonzero x, 0 at 0."""
    return F.inv(x) if x else 0


def _subiaco_values(F: GF, a: int) -> list[int]:
    a2 = F.mul(a, a)
    c = F.mul(a2, F.add(F.add(1, a), a2))  # a^2 (1 + a + a^2)
    half = 2 ** (F.m - 1)
    out = []
    for x in range(F.q):
        x2 = F.mul(x, x)
        x3 = F.mul(x2, x)
        x4 = F.mul(x2, x2)
        num = F.add(F.mul(a2, F.add(x4, x)), F.mul(c, F.add(x3, x2)))
        base = F.add(F.add(x4, F.mul(a2, x2)), 1)
        out.append(F.add(F.mul(num, _inv0(F, base)), F.pow(x, half)))
    return out


def _default_subiaco_a(F: GF) -> int:
    for a in range(1, F.q):
        if F.trace(F.inv(a)) == 1 and not (F.m % 4 == 2 and F.pow(a, 4) == a):
            return a
    raise ValueError(f"subiaco: no admissible parameter a at q={F.q}")


def _adelaide_values(F: GF, beta_power: int, t: int) -> list[int]:
    q = F.q
    E = make_field(2, 2 * F.m)
    # Embed GF(q) into GF(q^2) through the least root of F's modulus (one
    # exists: the modulus is irreducible of degree m, and m divides 2m).
    # Index x has bit i for x^i, so it maps to the sum of root^i over its bits.
    exps = [i for i, c in enumerate(F.modulus) if c]
    root = next(z for z in range(E.q) if not reduce(E.add, (E.pow(z, i) for i in exps)))
    powers = [E.pow(root, i) for i in range(F.m)]
    embed = [reduce(E.add, (r for i, r in enumerate(powers) if x >> i & 1), 0) for x in range(q)]
    unembed = {img: x for x, img in enumerate(embed)}

    gamma = E.pow(E.primitive_element(), q - 1)  # order q+1
    beta = E.pow(gamma, beta_power)
    if beta == 1:
        raise ValueError("adelaide parameter beta must differ from 1")

    def T(z):
        return E.add(z, E.pow(z, q))

    Tb = T(beta)
    Tb_inv = E.inv(Tb)
    Tbt = T(E.pow(beta, t))
    beta_q = E.pow(beta, q)
    half = 2 ** (2 * F.m - 1)
    out = []
    for x in range(q):
        X = embed[x]
        sqrt_x = E.pow(X, half)
        term1 = E.mul(E.mul(Tbt, E.add(X, 1)), Tb_inv)
        num2 = T(E.pow(E.add(E.mul(beta, X), beta_q), t))
        denom_base = E.add(E.add(X, E.mul(Tb, sqrt_x)), 1)
        denom = E.mul(Tb, E.pow(denom_base, t - 1)) if denom_base else 0
        term2 = E.mul(num2, _inv0(E, denom))
        val = E.add(E.add(term1, term2), sqrt_x)
        if val not in unembed:
            raise ValueError(
                "adelaide formula left the base field; parameters are inadmissible"
            )
        out.append(unembed[val])
    return out


def _int_param(family: str, key: str, value) -> int:
    """An integer parameter, converted as operator.index converts (no truncation)."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{family}: parameter {key}={value!r} is not an integer") from None


def make_family_opoly(F: GF, family: str, **params) -> OPolynomial:
    """Build one of the named o-polynomial families over GF(2^m).

    Raises ValueError when the family's applicability constraints fail for
    this field or parameter choice.
    """
    if F.p != 2:
        raise ValueError("o-polynomials live in even characteristic")
    m, q = F.m, F.q

    def need(cond, msg):
        if not cond:
            raise ValueError(f"{family}: {msg}")

    if family == "translation":
        h = _int_param(family, "h", params.pop("h", 1))
        need(not params, f"unknown parameters {sorted(params)}")
        need(h >= 1, "h must be >= 1")
        need(gcd(h, m) == 1, f"gcd(h={h}, m={m}) != 1")
        return _monomial_opoly(F, family, (("h", h),), [2 ** (h % m)])
    if family == "segre":
        need(not params, f"unknown parameters {sorted(params)}")
        need(m % 2 == 1 and m >= 3, "needs odd m >= 3")
        return _monomial_opoly(F, family, (), [6])
    if family == "glynn1":
        need(not params, f"unknown parameters {sorted(params)}")
        need(m % 2 == 1 and m >= 3, "needs odd m >= 3")
        return _monomial_opoly(F, family, (), [3 * 2 ** ((m + 1) // 2) + 4])
    if family == "glynn2":
        need(not params, f"unknown parameters {sorted(params)}")
        need(m % 4 == 3, "needs m = 3 (mod 4)")
        return _monomial_opoly(F, family, (), [2 ** ((m + 1) // 2) + 2 ** ((m + 1) // 4)])
    if family == "glynn3":
        need(not params, f"unknown parameters {sorted(params)}")
        need(m % 4 == 1 and m >= 5, "needs m = 1 (mod 4), m >= 5")
        return _monomial_opoly(F, family, (), [2 ** ((m + 1) // 2) + 2 ** ((3 * m + 1) // 4)])
    if family == "cherowitzo":
        need(not params, f"unknown parameters {sorted(params)}")
        need(m % 2 == 1 and m >= 3, "needs odd m >= 3")
        e = (m + 1) // 2
        return _monomial_opoly(F, family, (), [2 ** e, 2 ** e + 2, 3 * 2 ** e + 4])
    if family == "payne":
        need(not params, f"unknown parameters {sorted(params)}")
        need(m % 2 == 1 and m >= 3, "needs odd m >= 3")
        half = 2 ** (m - 1)
        return _monomial_opoly(F, family, (), [(half + 2) // 3, half, (5 * half - 2) // 3])
    if family == "subiaco":
        need(m >= 2, "needs m >= 2")
        a = params.pop("a", None)
        need(not params, f"unknown parameters {sorted(params)}")
        a = _default_subiaco_a(F) if a is None else F.as_element(a)
        need(a != 0 and F.trace(F.inv(a)) == 1, f"parameter a={a} needs Tr(1/a) = 1")
        if m % 4 == 2:
            need(F.pow(a, 4) != a, f"parameter a={a} must avoid the GF(4) subfield")
        coeffs = interpolate(F, _subiaco_values(F, a))
        return OPolynomial(F, family, (("a", a),), coeffs)
    if family == "adelaide":
        need(m % 2 == 0 and m >= 4, "needs even m >= 4")
        need(q * q <= MAX_ORDER, f"builds GF(q^2), so needs q^2 <= {MAX_ORDER}")
        beta_power = _int_param(family, "beta_power", params.pop("beta_power", 1))
        t = params.pop("t", None)
        need(not params, f"unknown parameters {sorted(params)}")
        third = (q - 1) // 3  # 0 < third < q+1, so -third mod q+1 is q+1-third
        t = third if t is None else _int_param(family, "t", t)
        need(t % (q + 1) in (third, q + 1 - third), f"exponent t={t} must be +-(q-1)/3 mod q+1")
        coeffs = interpolate(F, _adelaide_values(F, beta_power, t))
        f = OPolynomial(F, family, (("beta_power", beta_power), ("t", t)), coeffs)
        verdict = is_o_polynomial(f)
        if not verdict:
            raise ValueError(
                f"adelaide parameters (beta_power={beta_power}, t={t}) do not "
                f"produce an o-polynomial (failed {verdict.condition})"
            )
        return f
    raise ValueError(f"unknown o-polynomial family {family!r}")


def make_custom_opoly(F: GF, coeffs) -> OPolynomial:
    coeffs = [F.as_element(c) for c in coeffs]
    if len(coeffs) > F.q:
        raise ValueError(f"degree must stay below q={F.q}")
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return OPolynomial(F, "custom", (), tuple(coeffs))


def parse_opoly_descriptor(F: GF, text: str) -> OPolynomial:
    """Parse CLI descriptors: 'translation:h=1', 'segre', 'subiaco:a=g^5',
    'custom:coeffs=0,0,1'.  After 'custom:' the text must be 'coeffs='
    and the comma-separated coefficient list, which takes the rest of it."""
    family, _, rest = text.partition(":")
    family = family.strip()
    if family == "custom":
        key, eq, tail = rest.partition("=")
        if key.strip() != "coeffs" or not eq:
            raise ValueError("custom: needs coeffs=c0,c1,...")
        return make_custom_opoly(F, [F.element_from_str(tok) for tok in tail.split(",")])
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"bad o-polynomial parameter {item!r}")
            key = key.strip()
            if key in params:
                raise ValueError(f"o-polynomial parameter {key!r} repeated in {text!r}")
            params[key] = F.element_from_str(value) if key == "a" else parse_int(value)
    return make_family_opoly(F, family, **params)


@lru_cache(maxsize=4096)
def is_o_polynomial(f: OPolynomial) -> Verdict:
    """Full check of the hyperoval criterion.

    Conditions, in order: f permutes GF(q); f(0)=0 and f(1)=1; for every a
    the quotient map g_a(x) = (f(x+a)+f(a)) * x^(q-2) permutes GF(q).  On
    failure the verdict carries the first failing condition and, for the
    quotient condition, the witness a.

    The quotient condition is checked on each pair a < y once: the q-1-a
    slopes (f(y)+f(a)) / (y+a) must be distinct.  g_a repeats a value
    exactly when a and two other points of the graph are collinear, and the
    least point of such a triple sees both others among its later points,
    so the least failing a, the witness, is the same as for the full maps.
    """
    F = f.field
    if F.p != 2:
        raise ValueError("o-polynomials live in even characteristic")
    q, tab = F.q, f.values
    if len(set(tab)) != q:
        return Verdict(False, "permutation")
    if tab[0] != 0:
        return Verdict(False, "f(0)=0", 0)
    if tab[1] != 1:
        return Verdict(False, "f(1)=1", 1)
    add, mul, inv = F.kernel.add, F.kernel.mul, F.kernel.inv
    inverses = [0] + [inv(x) for x in range(1, q)]
    for a in range(q - 2):  # the last two points have under two later points
        fa = tab[a]
        # two equal slopes: two later points on one line through a
        seen = {mul(add(tab[y], fa), inverses[add(y, a)]) for y in range(a + 1, q)}
        if len(seen) != q - 1 - a:
            return Verdict(False, "quotient-permutation", a)
    return Verdict(True)


def is_two_to_one_with_linear(f: OPolynomial) -> Verdict:
    """Check that x -> f(x) + u*x is 2-to-1 for every nonzero u.

    Requires even characteristic.  It fails on condition "f(0)=0" (witness
    0) when f(0) != 0, as `is_o_polynomial` does, and otherwise on the first
    u whose value map has a fiber of size other than 0 or 2.
    """
    F = f.field
    if F.p != 2:
        raise ValueError("2-to-1 criterion lives in even characteristic")
    tab = f.values
    if tab[0] != 0:
        return Verdict(False, "f(0)=0", 0)
    add, mul, xs = F.kernel.add, F.kernel.mul, range(F.q)
    for u in range(1, F.q):
        fibers = Counter(map(add, tab, map(mul, repeat(u), xs)))
        if any(c != 2 for c in fibers.values()):
            return Verdict(False, "fiber-size", u)
    return Verdict(True)


def applicable_families(F: GF) -> list[OPolynomial]:
    """Every built-in family instance valid over this field: all admissible
    translation exponents, default parameters elsewhere.  A family is left
    out only by its own rule, raised as a ValueError that starts with its
    name: adelaide, which builds GF(q^2), is out of range from q = 1024 on."""
    out = []
    for h in range(1, max(F.m, 2)):
        if gcd(h, F.m) == 1:
            out.append(make_family_opoly(F, "translation", h=h))
    for family in ("segre", "glynn1", "glynn2", "glynn3", "cherowitzo", "payne",
                   "subiaco", "adelaide"):
        try:
            out.append(make_family_opoly(F, family))
        except ValueError:
            continue
    return out
