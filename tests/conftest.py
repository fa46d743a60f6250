"""Shared sweep builders and brute-force oracles.  The constructed-code
sweeps are expensive enough (q up to 32, every family, every admissible v/w)
that the acceptance criteria share one cached build.  Each distribution is
read from the line profile; for q <= 16 it is also checked against
projective enumeration.  The oracles (`incident`, `dual_matrix`,
`enumerated_zero_sets`, `quotient_verdict`, `fiber_verdict`) recompute by
definition what the library reads off the line profile, the MacWilliams
identities or the o-polynomial checks on one row per scaling orbit; `rref`
recomputes the matrix rank, and `nmds_double_sum` the NMDS weights by the
double sum that `codes.nmds_closed_form` replaces with a recurrence.
`kernel_slopes` and `w_admissible_by_eta` compute on the kernel or the
checked operations, one call per point or element, what `GF.slopes` and
`construct.valid_w_set` read off the log tables; `quadratic_character` is
Euler's criterion.  `polynomial_walk_tables` rebuilds a field's tables on
the polynomial arithmetic, and `horner_values` an o-polynomial's value
table by Horner's rule, the two set-up passes that `GF` and
`OPolynomial.values` run on index arithmetic and the log tables.
`interpolate_by_sums` and `subiaco_by_formula` compute by their defining
sums and formula, one checked call per pair or element, what
`opoly.interpolate` and `opoly._subiaco_values` read through
`GF.evaluate`.  Tests marked `long` run only when ARCCODES_LONG_TESTS is
set."""

import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import pytest

from arccodes.field import GF, field_from_order
from arccodes import codes, construct, field, opoly
from arccodes.codes import GeneratorMatrix
from arccodes.geometry import projective_points

EVEN_SWEEP_Q = (4, 8, 16, 32)
ODD_SWEEP_Q = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27)
ENUMERATED_Q = 16  # sweep codes up to this q are also enumerated


def pytest_collection_modifyitems(config, items):
    if os.environ.get("ARCCODES_LONG_TESTS"):
        return
    skip = pytest.mark.skip(reason="long test; set ARCCODES_LONG_TESTS=1")
    for item in items:
        if item.get_closest_marker("long"):
            item.add_marker(skip)


@dataclass(frozen=True)
class BuiltCode:
    q: int
    label: str
    G: codes.GeneratorMatrix
    dist: codes.WeightDistribution

    @property
    def field(self) -> GF:
        return self.G.field


def _built(q: int, label: str, G: codes.GeneratorMatrix) -> BuiltCode:
    dist = codes.weight_distribution(G)
    if q <= ENUMERATED_Q:
        assert dist == codes.enumerated_weight_distribution(G), f"q={q} {label}"
    return BuiltCode(q, label, G, dist)


@lru_cache(maxsize=None)
def even_sweep() -> tuple[BuiltCode, ...]:
    out = []
    for q in EVEN_SWEEP_Q:
        F = field_from_order(q)
        for f in opoly.applicable_families(F):
            for v in sorted(construct.valid_v_set(f)):
                G = construct.build_even_matrix(f, v)
                out.append(_built(q, f"{f.descriptor()},v={v}", G))
    return tuple(out)


@lru_cache(maxsize=None)
def odd_sweep() -> tuple[BuiltCode, ...]:
    out = []
    for q in ODD_SWEEP_Q:
        F = field_from_order(q)
        for w in sorted(construct.valid_w_set(F)):
            G = construct.build_odd_matrix(F, w)
            out.append(_built(q, f"w={w}", G))
    return tuple(out)


def paper_code(q: int) -> codes.GeneratorMatrix:
    """The paper's code over GF(q) for the least admissible v (translation
    h=1 o-polynomial) or w."""
    F = field_from_order(q)
    if F.p == 2:
        f = opoly.make_family_opoly(F, "translation", h=1)
        return construct.build_even_matrix(f, min(construct.valid_v_set(f)))
    return construct.build_odd_matrix(F, min(construct.valid_w_set(F)))


def shuffled_blocks(G: GeneratorMatrix, seed: int) -> GeneratorMatrix:
    """A constructed code with its columns in a second order: a seeded
    shuffle within the certified arc base and within the added columns, so
    the base is still vouched for."""
    rng = random.Random(seed)
    base, added = list(G.columns()[:G._arc_base]), list(G.columns()[G._arc_base:])
    rng.shuffle(base)
    rng.shuffle(added)
    return GeneratorMatrix.from_columns(G.field, base + added, _arc_base=len(base))


@lru_cache(maxsize=None)
def paper_codes(q: int) -> tuple[tuple[str, codes.GeneratorMatrix], ...]:
    """(label, matrix) for every paper code over GF(q) in two column orders,
    the reference one and a seeded shuffle of each block: every applicable
    family and admissible v, or every admissible w."""
    F = field_from_order(q)
    out = []
    if F.p == 2:
        for f in opoly.applicable_families(F):
            for v in sorted(construct.valid_v_set(f)):
                out.append((f"{f.descriptor()} v={v}", construct.build_even_matrix(f, v)))
    else:
        for w in sorted(construct.valid_w_set(F)):
            out.append((f"w={w}", construct.build_odd_matrix(F, w)))
    return tuple(out) + tuple((f"{label} shuffled", shuffled_blocks(G, seed))
                              for seed, (label, G) in enumerate(out))


def quotient_verdict(f: opoly.OPolynomial) -> tuple[bool, str | None, int | None]:
    """`is_o_polynomial`'s (ok, condition, witness) by the definition: f
    permutes GF(q), f(0)=0, f(1)=1, and for every a the whole quotient map
    x -> (f(x+a)+f(a)) * x^(q-2) permutes GF(q); the witness is the first
    a whose map does not."""
    F = f.field
    q, tab = F.q, f.values
    if len(set(tab)) != q:
        return False, "permutation", None
    if tab[0] != 0:
        return False, "f(0)=0", 0
    if tab[1] != 1:
        return False, "f(1)=1", 1
    for a in range(q):
        image = {F.mul(F.add(tab[F.add(x, a)], tab[a]), F.pow(x, q - 2)) for x in range(q)}
        if len(image) != q:
            return False, "quotient-permutation", a
    return True, None, None


def fiber_verdict(f: opoly.OPolynomial) -> tuple[bool, str | None, int | None]:
    """`is_two_to_one_with_linear`'s (ok, condition, witness) by the
    definition: f(0)=0, and for every nonzero u each value of
    x -> f(x) + u*x is taken by none or two x; the witness is the first u
    whose map has a fibre of another size."""
    F = f.field
    q, tab = F.q, f.values
    if tab[0] != 0:
        return False, "f(0)=0", 0
    for u in range(1, q):
        fibers = Counter(F.add(tab[x], F.mul(u, x)) for x in range(q))
        if set(fibers.values()) != {2}:
            return False, "fiber-size", u
    return True, None, None


def nmds_double_sum(n: int, k: int, q: int, a_min: int, side: str) -> list[int]:
    """`codes._nmds_side`'s counts by the double sum, O(k^2) math.comb calls:
    A_(n-k+s) = C(n, k-s) sum_{j<s} (-1)^j C(n-k+s, j) (q^(s-j) - 1)
    + (-1)^s C(k, s) a_min, with the same ValueError at the first negative
    count."""
    comb = math.comb
    counts = [0] * (n + 1)
    counts[0] = 1
    counts[n - k] = a_min
    for s in range(1, k + 1):
        base = comb(n, k - s) * sum(
            (-1) ** j * comb(n - k + s, j) * (q ** (s - j) - 1) for j in range(s)
        )
        val = base + (-1) ** s * comb(k, s) * a_min
        if val < 0:
            raise ValueError(
                f"{side} A_{n - k + s} = {val} < 0: a_min={a_min} is inconsistent"
            )
        counts[n - k + s] = val
    return counts


def kernel_slopes(F: GF, pivot, later) -> list[int]:
    """`GF.slopes(pivot, later)` on the kernel, four calls per point: for
    (a,b,1) (x - a z)/(y - b z), for (a,1,0) z/(x - a y), for (1,0,0) z/y,
    each q where its denominator is 0."""
    q, (_, sub, mul, inv) = F.q, F.kernel
    a, b, c = pivot
    if c:
        return [(mul(sub(x, a), inv(v)) if (v := sub(y, b)) else q) if z
                else (mul(x, inv(y)) if y else q) for x, y, z in later]
    if b:
        return [mul(z, inv(v)) if (v := sub(x, mul(a, y))) else q for x, y, z in later]
    return [mul(z, inv(y)) if y else q for _, y, z in later]


def quadratic_character(F: GF, x: int) -> int:
    """eta(x) by Euler's criterion on the checked operations: x^((q-1)/2),
    which is 1 on the nonzero squares and -1 on the nonsquares, and 0 at 0.
    Odd q only, as for `GF.twin_nonsquares`."""
    if F.p == 2:
        raise ValueError("quadratic character requires odd characteristic")
    if not F.check(x):
        return 0
    return 1 if F.pow(x, (F.q - 1) // 2) == 1 else -1


def w_admissible_by_eta(F: GF, w: int) -> bool:
    """The odd construction's rule on the checked operations:
    eta(w) = eta(1+4w) = -1, with 4 = (1+1)+(1+1)."""
    two = F.add(1, 1)
    return (quadratic_character(F, w) == -1
            and quadratic_character(F, F.add(1, F.mul(F.add(two, two), w))) == -1)


def polynomial_walk_tables(p: int, m: int, modulus=None) -> dict:
    """`GF`'s modulus, generator, _exp, _log and _zech rebuilt on the
    polynomial arithmetic alone: the modulus as `GF` picks it, the least
    index that generates, the walk v <- v*g, one `_poly_mul` and one
    `_poly_mod` per step, and every table by its definition (odd p:
    g^zech[i] = 1 + g^i, the log sentinel where 1 + g^i = 0)."""
    q, n = p ** m, p ** m - 1
    if modulus is None:
        modulus = field._find_default_modulus(p, m)
    modulus = tuple(c % p for c in modulus)
    g = next(i for i in range(1, q) if field._generates(p, field._digits(p, m, i), modulus))
    gd, v, cyc = field._digits(p, m, g), (1,), []
    for _ in range(n):
        cyc.append(field._index(p, v))
        v = field._poly_mod(p, field._poly_mul(p, gd, v), modulus)
    assert v == (1,) and len(set(cyc)) == n, "g must have order q-1: the modulus makes a field"
    log = [2 * n] + [0] * n
    for i, x in enumerate(cyc):
        log[x] = i
    zech = None
    if p != 2:
        def plus_one(x):  # 1 + x: digit 0 of the index goes up by one, mod p
            return x - x % p + (x % p + 1) % p
        zech = [log[plus_one(x)] for x in cyc]
    return {"modulus": modulus, "generator": g, "_exp": cyc * 2 + [0] * (2 * n + 1),
            "_log": log, "_zech": zech}


def horner_values(f: opoly.OPolynomial) -> list[int]:
    """f(x) for every x in GF(q), indexed by x: Horner's rule over the dense
    coefficient tuple on the checked operations, one pass per coefficient."""
    F = f.field
    out = [0] * F.q
    for c in reversed(f.coeffs):
        out = [F.add(F.mul(h, x), c) for x, h in enumerate(out)]
    return out


def interpolate_by_sums(F: GF, values) -> tuple[int, ...]:
    """The reduced polynomial through (x, values[x]) by the defining sums:
    c_0 = f(0) and c_k = -sum_a f(a) a^(q-1-k) over every a (0^0 = 1), one
    checked add and mul per (coefficient, point) pair, trailing zeros
    stripped."""
    q = F.q
    coeffs = [values[0]]
    for k in range(1, q):
        acc = 0
        for a, y in enumerate(values):
            acc = F.add(acc, F.mul(y, F.pow(a, q - 1 - k)))
        coeffs.append(F.neg(acc))
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def subiaco_by_formula(F: GF, a: int) -> list[int]:
    """Subiaco's values, element by element on the checked operations:
    (a^2 (x^4 + x) + c (x^3 + x^2)) (x^4 + a^2 x^2 + 1)^(q-2) + x^(q/2)
    with c = a^2 (1 + a + a^2)."""
    a2 = F.mul(a, a)
    c = F.mul(a2, F.add(F.add(1, a), a2))
    out = []
    for x in range(F.q):
        x2 = F.mul(x, x)
        x3 = F.mul(x2, x)
        x4 = F.mul(x2, x2)
        num = F.add(F.mul(a2, F.add(x4, x)), F.mul(c, F.add(x3, x2)))
        base = F.add(F.add(x4, F.mul(a2, x2)), 1)
        out.append(F.add(F.mul(num, F.pow(base, F.q - 2)), F.pow(x, F.q // 2)))
    return out


def incident(F: GF, point, line) -> bool:
    """Whether the point lies on the line: the dot product vanishes."""
    a = F.mul(point[0], line[0])
    b = F.mul(point[1], line[1])
    c = F.mul(point[2], line[2])
    return F.add(F.add(a, b), c) == 0


def rref(F: GF, rows):
    """Reduced row echelon form over GF(q); returns (rows, pivot columns).
    The oracle for `GeneratorMatrix`'s column rank and the elimination
    behind `dual_matrix`.  It takes rows that no `GeneratorMatrix` has
    checked, so it checks every entry itself with `F.check`, then eliminates
    on F.kernel."""
    mat = [[F.check(e) for e in r] for r in rows]
    if not mat:
        return [], []
    inv, mul, sub = F.kernel.inv, F.kernel.mul, F.kernel.sub
    n = len(mat[0])
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        s = inv(mat[r][col])
        mat[r] = [mul(s, e) for e in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [sub(a, mul(f, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def dual_matrix(G: GeneratorMatrix) -> GeneratorMatrix:
    """A generator matrix of the dual code (null space basis, G . H^T = 0)."""
    F = G.field
    if G.n == G.k:
        raise ValueError("the dual of a full [n, n] code is zero-dimensional")
    R, pivots = rref(F, G.rows)
    free = [j for j in range(G.n) if j not in pivots]
    rows = []
    for j in free:
        h = [0] * G.n
        h[j] = 1
        for i, pc in enumerate(pivots):
            h[pc] = F.neg(R[i][j])
        rows.append(h)
    return GeneratorMatrix(F, rows)


def enumerated_zero_sets(G: GeneratorMatrix) -> set[tuple[int, ...]]:
    """Zero sets of the codewords u.G of a dimension-3 code, one per
    projective message: the column sets on one line."""
    F = G.field
    zero_sets = set()
    for u in projective_points(F, 3):
        zeros = []
        for j, col in enumerate(G.columns()):
            acc = 0
            for ui, e in zip(u, col):
                acc = F.add(acc, F.mul(ui, e))
            if not acc:
                zeros.append(j)
        zero_sets.add(tuple(zeros))
    return zero_sets
