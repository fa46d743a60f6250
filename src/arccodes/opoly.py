"""O-polynomials over GF(2^m): the nine known families, evaluation, and the
two exhaustive validity checks (permutation/quotient criterion and the
2-to-1-with-linear-term criterion).

Six families (segre, glynn1-3, cherowitzo, payne) are a fixed sum of
powers of x at each m: one table, `_POWER_SUMS`, holds each one's rule and
exponents.  Translation, subiaco and adelaide take parameters and keep
their own branches.  Subiaco and adelaide are given by their values, which
`interpolate` turns into coefficients with one `GF.evaluate` call.
Subiaco's values are three more such calls; adelaide's are computed
element by element in GF(q^2).

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

Both criteria check one row per orbit of f's own scaling symmetry.  Let
f = sum c_e x^e (e >= 1, as f(0) = 0) and d = gcd(q-1, e - e1 over f's
exponents e, e1 any one of them).  Every lam with lam^d = 1 has
f(lam x) = lam^e1 f(x), so (f(x), x) -> (lam^e1 f(x), lam x), a linear map,
takes the graph to itself and collinear triples to collinear triples: a
lies on a triple exactly when lam a does.  Likewise f(x) + u x at x = lam y
is lam^e1 (f(y) + u lam^(1-e1) y), so u and u lam^(1-e1) have the same
fibre sizes.  A row fails with its whole orbit, so the least failing row,
the witness, leads its orbit, and the leaders checked in increasing order
find the same witness as every row checked.  An o-monomial x^k (translation,
Segre, Glynn) has d = q-1 and gcd(k-1, q-1) = 1, since its slopes y^(k-1)
from the origin are distinct: the quotient check runs rows 0 and 1 and the
2-to-1 check u = 1 alone, O(q) work each.  d = 1 leaves every row its own
orbit.

Every later step reads only the values of f, so an o-polynomial carries its
value table, `values`: one pass over the field's log tables per nonzero
term (`GF.evaluate`), built on first use and kept with the polynomial.  The
coefficients are checked when the polynomial is built.
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
        """f(x) for every x in GF(q), indexed by x; not part of equality.
        One `GF.evaluate` pass over the log tables per nonzero term, O(q)
        each, so a sparse polynomial of high degree costs its terms only."""
        return tuple(self.field.evaluate((c, e) for e, c in enumerate(self.coeffs) if c))

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


def _sum_of_powers_opoly(F: GF, family: str, params, exponents) -> OPolynomial:
    # Reduce exponents as functions on GF(q): x^e == x^(((e-1) mod (q-1)) + 1)
    # for e >= 1, then add coefficients (colliding exponents accumulate).
    coeffs = [0] * F.q
    deg = 0
    for e in exponents:
        e = ((e - 1) % (F.q - 1)) + 1
        coeffs[e] = F.add(coeffs[e], 1)
        deg = max(deg, e)
    return OPolynomial(F, family, tuple(params), tuple(coeffs[: deg + 1]))


def _odd_m(m: int) -> bool:
    return m % 2 == 1 and m >= 3


# The families that are a fixed sum of powers of x at each m and take no
# parameter: name -> (rule text, test on m, exponents at m).  The order is
# `applicable_families`' order.
_POWER_SUMS = {
    "segre": ("needs odd m >= 3", _odd_m, lambda m: [6]),
    "glynn1": ("needs odd m >= 3", _odd_m, lambda m: [3 * 2 ** ((m + 1) // 2) + 4]),
    "glynn2": ("needs m = 3 (mod 4)", lambda m: m % 4 == 3,
               lambda m: [2 ** ((m + 1) // 2) + 2 ** ((m + 1) // 4)]),
    "glynn3": ("needs m = 1 (mod 4), m >= 5", lambda m: m % 4 == 1 and m >= 5,
               lambda m: [2 ** ((m + 1) // 2) + 2 ** ((3 * m + 1) // 4)]),
    "cherowitzo": ("needs odd m >= 3", _odd_m,
                   lambda m: [2 ** ((m + 1) // 2), 2 ** ((m + 1) // 2) + 2,
                              3 * 2 ** ((m + 1) // 2) + 4]),
    "payne": ("needs odd m >= 3", _odd_m,
              lambda m: [(2 ** (m - 1) + 2) // 3, 2 ** (m - 1), (5 * 2 ** (m - 1) - 2) // 3]),
}


def interpolate(F: GF, values) -> tuple[int, ...]:
    """The reduced polynomial through (x, values[x]) for all x in GF(q).

    c_0 = f(0) and c_k = -sum_a f(a) a^(q-1-k) for k >= 1, with 0^0 = 1, so
    a = 0 counts for k = q-1 alone and the other terms run over a = g^i.
    Those sums are the values of P(y) = sum_i f(g^i) y^i, all read in one
    `GF.evaluate` call: c_k = -P(g^(q-1-k)) for 1 <= k < q-1, and
    c_(q-1) = -(P(1) + f(0)).  Returns dense coefficients low-to-high
    (degree < q, trailing zeros stripped, constant 0 kept as a single
    coefficient).
    """
    q = F.q
    if len(values) != q:
        raise ValueError("need one value per field element")
    values = [F.check(y) for y in values]
    sub, powers = F.kernel.sub, F.powers()  # powers[i] = g^i, i < q-1
    at = F.evaluate((values[a], i) for i, a in enumerate(powers) if values[a])
    coeffs = [values[0], *(sub(0, at[a]) for a in powers[:0:-1]), sub(sub(0, at[1]), values[0])]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _subiaco_values(F: GF, a: int) -> list[int]:
    """f(x) = (a^2 (x^4 + x) + c (x^3 + x^2)) / (x^4 + a^2 x^2 + 1) + x^(q/2),
    c = a^2 (1 + a + a^2), at every x in GF(q).  The denominator is
    (x^2 + a x + 1)^2, which has no root when Tr(1/a) = 1.  The numerator,
    the denominator and x^(q/2) are one `GF.evaluate` call each, and the
    quotient and sum one pass on the kernel."""
    a2 = F.mul(a, a)
    c = F.mul(a2, F.add(F.add(1, a), a2))  # 0 when a^2 + a + 1 = 0
    num = F.evaluate((k, e) for k, e in ((a2, 4), (a2, 1), (c, 3), (c, 2)) if k)
    den = F.evaluate(((1, 4), (a2, 2), (1, 0)))
    root = F.evaluate(((1, F.q // 2),))
    add, mul, inv = F.kernel.add, F.kernel.mul, F.kernel.inv
    return [add(mul(u, inv(v)), r) for u, v, r in zip(num, den, root)]


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
        term2 = E.mul(num2, E.inv(denom)) if denom else 0
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
        return _sum_of_powers_opoly(F, family, (("h", h),), [2 ** (h % m)])
    if family in _POWER_SUMS:
        rule, applies, exponents = _POWER_SUMS[family]
        need(not params, f"unknown parameters {sorted(params)}")
        need(applies(m), rule)
        return _sum_of_powers_opoly(F, family, (), exponents(m))
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


def _orbit_leaders(f: OPolynomial, k: int) -> list[int]:
    """The least element of each orbit of GF(q)* under x -> lam^k x, lam^d = 1,
    in increasing order, with d = gcd(q-1, e - deg f over f's exponents e).

    The multipliers lam^k form the subgroup of order r = d / gcd(d, k), so
    the orbits are its cosets g^c <g^s>, c < s = (q-1)/r, for the primitive
    element g: every s-th of the powers of g, read off the field's antilog
    table (`GF.powers`).
    """
    F = f.field
    q, top = F.q, f.degree
    d = reduce(gcd, (e - top for e, c in enumerate(f.coeffs) if c), q - 1)
    s = (q - 1) // (d // gcd(d, k))
    powers = F.powers()
    return sorted(min(powers[c::s]) for c in range(s))


@lru_cache(maxsize=4096)
def is_o_polynomial(f: OPolynomial) -> Verdict:
    """Full check of the hyperoval criterion.

    Conditions, in order: f permutes GF(q); f(0)=0 and f(1)=1; for every a
    the quotient map g_a(x) = (f(x+a)+f(a)) * x^(q-2) permutes GF(q).  On
    failure the verdict carries the first failing condition and, for the
    quotient condition, the witness a.

    The quotient condition is checked on pairs a < y: the q-1-a slopes
    (f(y)+f(a)) / (y+a) must be distinct.  Each row reads them off the log
    tables with `GF.slopes`, from the graph point (f(a), a, 1) to the later
    points (f(y), y, 1), with no kernel call.  g_a repeats a value exactly
    when a and two other points of the graph are collinear, and the least
    point of such a triple sees both others among its later points, so the
    least failing a, the witness, is the same as for the full maps.  Rows
    run at 0 and at the least a of each scaling orbit (x -> lam x, module
    docstring), in increasing order: every point of a triple fails with its
    orbit, so the least failing a leads its orbit and no earlier leader
    fails.  Monomials run rows 0 and 1 only.
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
    graph, slopes = [(fy, y, 1) for y, fy in enumerate(tab)], F.slopes
    for a in [0] + _orbit_leaders(f, 1):
        # two equal slopes: two later points on one line through a
        if len(set(slopes(graph[a], graph[a + 1:]))) != q - 1 - a:
            return Verdict(False, "quotient-permutation", a)
    return Verdict(True)


def is_two_to_one_with_linear(f: OPolynomial) -> Verdict:
    """Check that x -> f(x) + u*x is 2-to-1 for every nonzero u.

    Requires even characteristic.  It fails on condition "f(0)=0" (witness
    0) when f(0) != 0, as `is_o_polynomial` does, and otherwise on the first
    u whose value map has a fiber of size other than 0 or 2.  Only the
    least u of each orbit u -> lam^(1-e) u runs (e = deg f, module
    docstring), in increasing order: fibre sizes are the same across an
    orbit, so the least failing u leads its orbit and no earlier leader
    fails.  Monomials x^e run one u per coset of the (e-1)-th powers.
    """
    F = f.field
    if F.p != 2:
        raise ValueError("2-to-1 criterion lives in even characteristic")
    tab = f.values
    if tab[0] != 0:
        return Verdict(False, "f(0)=0", 0)
    add, mul, xs = F.kernel.add, F.kernel.mul, range(F.q)
    for u in _orbit_leaders(f, 1 - f.degree):
        fibers = Counter(map(add, tab, map(mul, repeat(u), xs)))
        if any(c != 2 for c in fibers.values()):
            return Verdict(False, "fiber-size", u)
    return Verdict(True)


def applicable_families(F: GF) -> list[OPolynomial]:
    """Every built-in family instance valid over this field: all admissible
    translation exponents, default parameters elsewhere.  A family is left
    out only by its own rule, raised as a ValueError that starts with its
    name: adelaide, which builds GF(q^2), is out of range from q = 1024 on."""
    out = [make_family_opoly(F, "translation", h=h) for h in range(1, max(F.m, 2))
           if gcd(h, F.m) == 1]
    for family in (*_POWER_SUMS, "subiaco", "adelaide"):
        try:
            out.append(make_family_opoly(F, family))
        except ValueError:
            continue
    return out
