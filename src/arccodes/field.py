"""Exact arithmetic in GF(p^m) for small prime powers (q <= 2^16).

Field elements are plain integers in [0, q).  The integer encodes the
coefficient vector of the element base p: index = sum(c_i * p^i) where the
element is sum(c_i * x^i) modulo the field's irreducible modulus.  With this
encoding 0 is the additive identity and 1 the multiplicative identity, and
for m = 1 the index is just the residue mod p.

Each field builds one `Kernel`: unchecked add, sub, mul and inv bound to its
tables, the only code that knows the encoding.  Every field multiplies by
its log/antilog tables (generator g).  Sums have one rule per
characteristic: XOR for p = 2, and for every odd p, prime fields included,
Zech logarithms (K. Huber, IEEE Trans. IT 36(4), 1990),
g^a + g^b = g^(a + zech[b - a]), with -1 folded into a second table for
differences.  Every operation is O(1).

Set-up has one polynomial arithmetic over GF(p) (`_poly_mul`, `_poly_mod`,
`_poly_powmod`) and one primitivity test on it, `_generates`: g^((q-1)/l)
!= 1 for every prime l | q-1.  The default modulus is x - g0 for prime
fields, g0 the least primitive root, and otherwise the tabulated Conway
polynomial or the least irreducible modulo which x generates; the generator
is the least index that generates, and the antilog table is the walk
v <- v*g mod the modulus: q-1 polynomial products, or for m = 1 q-1
integer products mod p.

Input is checked once, where it enters the library: `GF.add/sub/neg/mul/inv`
check their operands and call the kernel, and the hot loops elsewhere check
their inputs on entry and then stay on the kernel.  Elements are bare ints
with no field tag, so mixing fields is only caught when an index falls
outside [0, q) at such a check.
"""

import math
import re
from functools import lru_cache
from operator import index, xor
from typing import Callable, NamedTuple

MAX_ORDER = 2 ** 16

# Default irreducible moduli, coefficients low-to-high, monic.  These are the
# Conway polynomials for the listed (p, m); in particular x^2+x+1 for GF(4),
# x^3+x+1 for GF(8) and x^2+2x+2 for GF(9), which fix the generators used by
# the built-in golden matrices.  Entries are re-verified at construction.
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# Polynomial arithmetic over GF(p), the only arithmetic before the tables
# exist: modulus checks, generator tests and the antilog walk.  Polynomials
# are tuples of coefficients low-to-high; results carry no trailing zeros
# (() == 0), and inputs may.
# ----------------------------------------------------------------------

def _digits(p: int, m: int, i: int) -> tuple[int, ...]:
    """The m base-p digits of index i, low to high: its polynomial."""
    out = []
    for _ in range(m):
        i, c = divmod(i, p)
        out.append(c)
    return tuple(out)


def _index(p: int, digits) -> int:
    """The index sum(c_i * p^i) of a polynomial of degree < m."""
    out = 0
    for c in reversed(digits):
        out = out * p + c
    return out


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _poly_trim([c % p for c in out])


def _poly_mod(p, a, mod):
    a = list(a)
    dm = len(mod) - 1
    lead_inv = 1 if mod[-1] == 1 else pow(mod[-1], p - 2, p)  # monic: no inverse
    while len(a) > dm:
        c = a[-1] % p
        if c:
            f = (c * lead_inv) % p
            off = len(a) - 1 - dm
            for i, mi in enumerate(mod):
                a[off + i] = (a[off + i] - f * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_gcd(p, a, b):
    while b:
        a, b = b, _poly_mod(p, a, b)
    return a


def _poly_powmod(p, base, e, mod):
    result = (1,)
    base = _poly_mod(p, base, mod)
    while e:
        if e & 1:
            result = _poly_mod(p, _poly_mul(p, result, base), mod)
        base = _poly_mod(p, _poly_mul(p, base, base), mod)
        e >>= 1
    return result


def _is_irreducible(p: int, coeffs) -> bool:
    """Rabin's criterion for a monic polynomial over GF(p)."""
    m = len(coeffs) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    x = (0, 1)
    # x^(p^m) == x mod f
    if _poly_powmod(p, x, p ** m, coeffs) != x:
        return False
    # gcd(x^(p^(m/l)) - x, f) == 1 for every prime l | m
    for ell in prime_factors(m):
        t = _poly_powmod(p, x, p ** (m // ell), coeffs)
        diff = list(t) + [0] * max(0, 2 - len(t))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(p, _poly_trim(diff), coeffs)
        if len(g) > 1:
            return False
    return True


def _generates(p: int, g, modulus) -> bool:
    """Whether the nonzero polynomial g has order p^m - 1 modulo the monic
    irreducible modulus of degree m: g^(n/l) != 1 for each prime l | n."""
    n = p ** (len(modulus) - 1) - 1
    return all(_poly_powmod(p, g, n // ell, modulus) != (1,) for ell in prime_factors(n))


def _find_default_modulus(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        # x - g0 with g0 the least primitive root (constants modulo x are
        # GF(p)), so that x = g0 is a generator.
        g0 = next(g for g in range(1, p) if _generates(p, (g,), (0, 1)))
        return ((-g0) % p, 1)
    if (p, m) in _DEFAULT_MODULI:
        return _DEFAULT_MODULI[(p, m)]
    # Smallest irreducible (by low-to-high coefficient encoding) whose root
    # x generates the multiplicative group.  Deterministic.
    for enc in range(1, p ** m):
        coeffs = _digits(p, m, enc) + (1,)
        if _is_irreducible(p, coeffs) and _generates(p, (0, 1), coeffs):
            return coeffs
    raise ValueError(f"no primitive irreducible of degree {m} over GF({p})")


class Kernel(NamedTuple):
    """Unchecked add, sub, mul and inv on the element indices of one field.

    No operand is range-checked: an index outside [0, q) gives a wrong
    answer or an IndexError.  Callers check their inputs once, where they
    enter the library.  inv(0) raises ZeroDivisionError.
    """

    add: Callable[[int, int], int]
    sub: Callable[[int, int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]


def _kernel(p: int, exp: list[int], log: list[int], zech: list[int] | None) -> Kernel:
    """The kernel of GF(p^m), bound to the tables `GF` builds for it."""
    n = len(log) - 1

    def inv(a):
        if not a:  # a table read would return 0 through the log sentinel
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return exp[n - log[a]]

    def mul(a, b):
        return exp[log[a] + log[b]]
    if p == 2:
        return Kernel(xor, xor, mul, inv)

    # g^a +- g^b = g^a (1 +- g^(b - a)), and 1 - g^i = 1 + g^(i + n/2), so
    # zneg[i] = zech[i + n/2].  b - a lies in (-n, n): negative indices wrap.
    half = n // 2
    zneg = zech[half:] + zech[:half]

    def add(a, b):
        if not a or not b:
            return a or b
        la = log[a]
        return exp[la + zech[log[b] - la]]

    def sub(a, b):
        if not b:
            return a
        if not a:
            return exp[log[b] + half]
        la = log[a]
        return exp[la + zneg[log[b] - la]]
    return Kernel(add, sub, mul, inv)


class GF:
    """The finite field GF(p^m) with a fixed irreducible modulus."""

    def __init__(self, p: int, m: int = 1, modulus=None):
        if m < 1:
            raise ValueError(f"extension degree m={m} must be >= 1")
        # Bound p and m (p^m >= 2^m) before trial division and powering.
        if p <= MAX_ORDER and prime_factors(p) != [p]:
            raise ValueError(f"p={p} is not prime")
        if p > MAX_ORDER or m >= MAX_ORDER.bit_length() or p ** m > MAX_ORDER:
            raise ValueError(f"q={p}^{m} exceeds the supported range (q <= {MAX_ORDER})")
        q = p ** m
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            modulus = _find_default_modulus(p, m)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {m}: {list(modulus)}")
        if not _is_irreducible(p, modulus):
            raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.modulus = modulus

        self._build_log_tables()
        n = q - 1
        # Odd p: g^zech[i] = 1 + g^i, the log sentinel where 1 + g^i = 0.
        # Adding 1 changes digit 0 only, wrapping p-1 to 0.
        self._zech = None
        if p != 2:
            self._zech = [
                self._log[0] if x == p - 1 else self._log[x + 1 if x % p != p - 1 else x - p + 1]
                for x in self._exp[:n]
            ]
        self.kernel = _kernel(p, self._exp, self._log, self._zech)

    # -- construction internals -------------------------------------------

    def _build_log_tables(self):
        p, m, q, modulus = self.p, self.m, self.q, self.modulus
        self.generator = next(i for i in range(1, q) if _generates(p, _digits(p, m, i), modulus))
        n = q - 1
        exp = [1] * n
        if m == 1:  # x*g mod p: 0.02 s at GF(65521), the polynomial walk 0.25 s
            for i in range(1, n):
                exp[i] = exp[i - 1] * self.generator % p
        else:
            g, v = _digits(p, m, self.generator), (1,)
            for i in range(1, n):
                v = _poly_mod(p, _poly_mul(p, g, v), modulus)
                exp[i] = _index(p, v)
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        # exp runs twice round the group and then holds zeros, and log[0] is
        # the sentinel 2n: a sum of two logs indexes exp with no reduction,
        # and any sum with the sentinel in it reads a zero.
        log[0] = 2 * n
        self._exp = exp * 2 + [0] * (2 * n + 1)
        self._log = log

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF(p={self.p}, m={self.m}, mod={list(self.modulus)})"

    # -- element validation --------------------------------------------------

    def check(self, x: int) -> int:
        """x itself if it is an element index: an int in [0, q).  The kernel
        behind every checked operation trusts this test alone."""
        if type(x) is not int or not 0 <= x < self.q:
            raise ValueError(f"{x!r} is not an element index of {self!r} (an int in [0, {self.q}))")
        return x

    def as_element(self, x) -> int:
        """Outside input as an element index: converted as operator.index
        converts (ints, bools, numpy integers), then checked.  A float or
        string raises ValueError instead of being truncated."""
        try:
            x = index(x)
        except TypeError:
            pass  # not an integer: check refuses it
        return self.check(x)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.kernel.add(self.check(a), self.check(b))

    def sub(self, a: int, b: int) -> int:
        return self.kernel.sub(self.check(a), self.check(b))

    def neg(self, a: int) -> int:
        return self.kernel.sub(0, self.check(a))

    def mul(self, a: int, b: int) -> int:
        return self.kernel.mul(self.check(a), self.check(b))

    def inv(self, a: int) -> int:
        return self.kernel.inv(self.check(a))

    def pow(self, a: int, e: int) -> int:
        """a**e with exponent reduction mod q-1 for nonzero a; 0**0 == 1."""
        self.check(a)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- characters and traces -------------------------------------------------

    def quadratic_character(self, x: int) -> int:
        """eta(x): 1 for nonzero squares, -1 for nonsquares, 0 at 0.  For odd
        q the squares of g^i are the g^(2i), and g has even order q-1, so
        g^i is a square exactly when its log i is even."""
        if self.p == 2:
            raise ValueError("quadratic character requires odd characteristic")
        if not self.check(x):
            return 0
        return -1 if self._log[x] & 1 else 1

    def trace(self, x: int) -> int:
        """Absolute trace onto GF(p): sum of x^(p^i), i < m."""
        self.check(x)
        acc = 0
        t = x
        for _ in range(self.m):
            acc = self.add(acc, t)
            t = self.pow(t, self.p)
        return acc

    # -- element enumeration -----------------------------------------------------

    def primitive_element(self) -> int:
        """Least-index element of multiplicative order q-1."""
        return self.generator

    def elements(self) -> list[int]:
        """All q elements in the reference column order: descending powers of
        the generator then 0 for m >= 2, and q-1, q-2, ..., 1, 0 for prime
        fields."""
        if self.m == 1:
            return list(range(self.q - 1, -1, -1))
        return [self._exp[i] for i in range(self.q - 2, -1, -1)] + [0]

    # -- text forms -----------------------------------------------------------

    def element_to_str(self, x: int, powers: bool = False) -> str:
        self.check(x)
        if not powers or x in (0, 1):
            return str(x)
        return f"g^{self._log[x]}"

    def element_from_str(self, token: str) -> int:
        """An element from its text: an index, `g` or `g^e`, in ASCII digits
        (e may be negative); anything else raises ValueError naming it."""
        token = token.strip()
        if token == "g":
            return self.primitive_element()
        if not re.fullmatch(r"(g\^-?)?[0-9]+", token):
            raise ValueError(f"bad field element {token!r}: expected an index, g or g^e")
        if token.startswith("g^"):
            return self._exp[int(token[2:]) % (self.q - 1)]
        return self.check(int(token))

    def descriptor(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"p={self.p} m={self.m} mod={mod}"


@lru_cache(maxsize=None)
def _cached_field(p: int, m: int, modulus) -> GF:
    return GF(p, m, modulus)


def make_field(p: int, m: int = 1, modulus=None) -> GF:
    """Construct (or fetch a cached) GF(p^m). Same inputs, same arithmetic."""
    key = tuple(modulus) if modulus is not None else None
    return _cached_field(p, m, key)


def field_from_order(q: int, modulus=None) -> GF:
    """GF(q) for a prime power q, inferring (p, m)."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    if q > MAX_ORDER:  # before the trial division in prime_factors
        raise ValueError(f"q={q} exceeds the supported range (q <= {MAX_ORDER})")
    facs = prime_factors(q)
    if len(facs) != 1:
        raise ValueError(f"q={q} is not a prime power")
    p = facs[0]
    m = round(math.log(q, p))
    if p ** m != q:
        raise ValueError(f"q={q} is not a prime power")
    return make_field(p, m, modulus)


def parse_key_values(text: str) -> dict[str, str]:
    """Split 'key=value key=value ...' into a dict, naming any bad token
    and any key given twice."""
    out = {}
    for tok in text.split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"token {tok!r} in {text!r} is not key=value")
        if key in out:
            raise ValueError(f"key {key!r} repeated in {text!r}")
        out[key] = value
    return out


def parse_int(token: str) -> int:
    """An integer from its text, in ASCII digits with an optional minus sign
    (int() would also take '+3', '1_0' and non-ASCII digits); anything else
    raises ValueError naming the token."""
    token = token.strip()
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(f"bad integer {token!r}: expected ASCII digits")
    return int(token)


def parse_descriptor(text: str) -> GF:
    """Parse 'p=2 m=3 mod=1,1,0,1' back into a field."""
    parts = parse_key_values(text)
    try:
        p, m, mod = parts["p"], parts["m"], parts["mod"]
    except KeyError as exc:
        raise ValueError(f"bad field descriptor {text!r}") from exc
    return make_field(parse_int(p), parse_int(m), [parse_int(c) for c in mod.split(",")])
