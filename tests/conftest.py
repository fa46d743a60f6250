"""Shared sweep builders and brute-force oracles.  The constructed-code
sweeps are expensive enough (q up to 32, every family, every admissible v/w)
that the acceptance criteria share one cached build.  Each distribution is
read from the line profile; for q <= 16 it is also checked against
projective enumeration.  The oracles (`incident`, `dual_matrix`,
`enumerated_zero_sets`, `quotient_verdict`) recompute by definition what the
library reads off the line profile, the MacWilliams identities or the
triangular o-polynomial check.  Tests marked `long` run only when
ARCCODES_LONG_TESTS is set."""

import os
import random
from dataclasses import dataclass
from functools import lru_cache

import pytest

from arccodes.field import GF, field_from_order
from arccodes import codes, construct, opoly
from arccodes.codes import GeneratorMatrix, rref
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


def incident(F: GF, point, line) -> bool:
    """Whether the point lies on the line: the dot product vanishes."""
    a = F.mul(point[0], line[0])
    b = F.mul(point[1], line[1])
    c = F.mul(point[2], line[2])
    return F.add(F.add(a, b), c) == 0


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
