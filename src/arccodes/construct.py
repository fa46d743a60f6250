"""The two [q+5, 3, q+2] near-MDS constructions.

Even q: take the hyperoval columns (f(a), a, 1) for every field element plus
(1,0,0), (0,1,0), then append (1,1,0), (0,v,1), (v,0,1) for any v outside
the image of x -> f(x)+x (q/2 admissible choices).

Odd q: take the conic columns (a^2, a, 1) plus (1,0,0), then append
(0,1,0), (1,1,0), (0,w,-1), (w,0,1) for any w with eta(w) = eta(1+4w) = -1
((q-2+eta(-1))/4 admissible choices; none exist at q=3).

Both column sets are (q+5, 3)-arcs, and the weight distributions admit
closed forms that the line-profile counts (and, at small q, brute-force
enumeration) reproduce exactly.  The base is a certified arc, so each matrix
is built with its length, and its line profile pivots on the added columns.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache

from .field import GF
from .codes import GeneratorMatrix, WeightDistribution
from .geometry import hyperoval_from_opoly, standard_oval
from .opoly import OPolynomial, is_o_polynomial

CENSUS_KINDS = ("even-A1", "even-A2", "odd-B1", "odd-B2")


def valid_v_set(f: OPolynomial) -> frozenset[int]:
    """Admissible v for the even construction: the complement of the image of
    x -> f(x) + x.  Exactly q/2 elements for an o-polynomial; kept with f."""
    verdict = is_o_polynomial(f)
    if not verdict:
        raise ValueError(f"not an o-polynomial (failed {verdict.condition})")
    return f.shift_complement


@cache
def _w_set(F: GF) -> frozenset[int]:
    """The w with eta(w) = eta(1+4w) = -1, admissible for the odd
    construction, from one pass over F's log tables (`GF.twin_nonsquares`),
    computed once per field.  The one rule behind `valid_w_set` and both odd
    entry points."""
    if F.p == 2:
        raise ValueError("the odd construction needs odd characteristic")
    return frozenset(F.twin_nonsquares(4 % F.p))


def valid_w_set(F: GF) -> frozenset[int]:
    """Admissible w for the odd construction: the field's kept `_w_set`,
    read off its log tables."""
    if not (out := _w_set(F)):
        raise ValueError(f"no admissible w exists at q={F.q}")
    return out


def build_even_matrix(f: OPolynomial, v: int) -> GeneratorMatrix:
    """3 x (q+5) generator matrix for even q; the first q+2 columns are the
    hyperoval of f, in the reference column order."""
    F = f.field
    F.check(v)
    if v not in valid_v_set(f):
        raise ValueError(f"v={v} lies in the image of x -> f(x)+x; not admissible")
    base = hyperoval_from_opoly(f)
    cols = base + [(1, 1, 0), (0, v, 1), (v, 0, 1)]
    return GeneratorMatrix.from_columns(F, cols, _arc_base=len(base))


def build_odd_matrix(F: GF, w: int) -> GeneratorMatrix:
    """3 x (q+5) generator matrix for odd q; the first q+1 columns are the
    standard oval, in the reference column order."""
    F.check(w)
    if w not in _w_set(F):
        raise ValueError(f"w={w} fails eta(w) = eta(1+4w) = -1; not admissible")
    base = standard_oval(F)
    cols = base + [(0, 1, 0), (1, 1, 0), (0, w, F.neg(1)), (w, 0, 1)]
    return GeneratorMatrix.from_columns(F, cols, _arc_base=len(base))


def even_closed_form(q: int) -> WeightDistribution:
    """Closed-form weight distribution of the even construction."""
    if q < 4 or q & (q - 1):
        raise ValueError(f"q={q} must be a power of 2, q >= 4")
    n = q + 5
    counts = [0] * (n + 1)
    counts[0] = 1
    counts[q + 2] = (q - 1) * (3 * q + 8) // 2
    counts[q + 3] = (q - 1) * (q + 2) * (q - 2) // 2
    counts[q + 4] = 3 * (q - 1) * (q - 2) // 2
    counts[q + 5] = (q - 1) * (q - 2) ** 2 // 2
    return WeightDistribution(counts, q, 3)


def odd_closed_form(q: int) -> WeightDistribution:
    """Closed-form weight distribution of the odd construction, branching on
    q mod 4."""
    if q < 5 or q % 2 == 0:
        raise ValueError(f"q={q} must be an odd prime power >= 5")
    n = q + 5
    counts = [0] * (n + 1)
    counts[0] = 1
    if q % 4 == 1:
        counts[q + 2] = (2 * q + 2) * (q - 1)
        counts[q + 3] = (q - 1) * (q * q - 3 * q + 8) // 2
        counts[q + 4] = (3 * q - 9) * (q - 1)
        counts[q + 5] = (q - 1) * (q * q - 5 * q + 8) // 2
    else:
        counts[q + 2] = (2 * q + 1) * (q - 1)
        counts[q + 3] = (q - 1) * (q * q - 3 * q + 14) // 2
        counts[q + 4] = (3 * q - 12) * (q - 1)
        counts[q + 5] = (q - 1) * (q * q - 5 * q + 10) // 2
    return WeightDistribution(counts, q, 3)


@dataclass(frozen=True)
class CensusResult:
    kind: str
    q: int
    counts: dict  # number of solutions -> number of (u1, u2) pairs
    diagonal_ok: bool

    def pairs_with(self, size: int) -> int:
        return self.counts.get(size, 0)

    def to_dict(self):
        return {**vars(self), "counts": {str(s): c for s, c in sorted(self.counts.items())}}


def solution_count_census(kind: str, F: GF, f: OPolynomial | None = None,
                          v: int | None = None, w: int | None = None) -> CensusResult:
    """Tally, over all (u1, u2) in (F*)^2, the number of roots x of the
    construction's line equations:

      even-A1:  u1 f(x) + u2 x + u2 v = 0
      even-A2:  u1 f(x) + u2 x + u1 v = 0
      odd-B1:   u1 x^2  + u2 x + u2 w = 0
      odd-B2:   u1 x^2  + u2 x - u1 w = 0

    Each reads u1 a(x) + u2 b(x) = 0, so its roots depend only on t = u2/u1,
    which stands for q-1 pairs.  One pass over x finds them: x is a root for
    t = -a(x)/b(x) alone when both are nonzero, and for no t when one is
    zero.  Both vanish only when v = 0 or w = 0, and neither is admissible.

    diagonal_ok reports that the structurally solution-free diagonal pairs
    (u, u) for the even kinds, (u, -u) for the odd kinds, have zero roots.
    """
    if kind not in CENSUS_KINDS:
        raise ValueError(f"unknown census kind {kind!r}")
    q = F.q
    add, sub, mul, inv = F.kernel
    if kind.startswith("even"):
        if f is None or v is None:
            raise ValueError(f"{kind} needs an o-polynomial and v")
        if f.field != F:
            raise ValueError(f"the o-polynomial is over {f.field!r}, not {F!r}")
        if F.check(v) not in valid_v_set(f):
            raise ValueError(f"v={v} is not admissible")
        a, shift, diagonal = f.values, v, 1
    else:
        if w is None:
            raise ValueError(f"{kind} needs w")
        if F.check(w) not in _w_set(F):
            raise ValueError(f"w={w} is not admissible")
        a, shift, diagonal = [mul(x, x) for x in range(q)], w, sub(0, 1)
    b = range(q)
    if kind.endswith("1"):  # u2 carries the constant: b = x + v or x + w
        b = [add(x, shift) for x in b]
    else:  # u1 carries it: a = f(x) - v = f(x) + v, or a = x^2 - w
        a = [sub(y, shift) for y in a]
    roots = [0] * q  # roots[t]: the x with a(x) = -t b(x) != 0
    for ax, bx in zip(a, b):
        if ax and bx:
            roots[sub(0, mul(ax, inv(bx)))] += 1
    counts = {r: pairs * (q - 1) for r, pairs in Counter(roots[1:]).items()}
    return CensusResult(kind, q, counts, roots[diagonal] == 0)
