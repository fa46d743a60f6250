"""Linear-code analytics over GF(q): weight distributions and their
MacWilliams transforms, Singleton-defect classification, the near-MDS
closed-form weight formulas, and the minimum-weight supports of
dimension-3 arc codes.

In dimension 3 the weights and supports are read off the line profile of the
columns (geometry.LineProfile, built once per matrix from column pairs; for a
constructed code, only the pairs with an added column): the q-1 codewords
u.G of a line u vanish exactly on its columns, so a line holding c nonzero
columns gives q-1 codewords of weight n - z - c (z zero columns).  With no
four columns on a line, a line holding three is both the zero set of q-1
minimum-weight codewords and the support of weight-3 dual
codewords, so the NMDS pairing of the two is an identity of the profile.
Other dimensions enumerate one message per projective class; that
enumerator is also the test oracle for the profile.  The same profile gives
the dual distance in dimension 3, the fewest dependent columns.  No dual
generator matrix is built: for other k the dual distance, and for every k on
request the dual's whole weight distribution, come from the weight
distribution by the MacWilliams identities.
"""

import math
from dataclasses import asdict, dataclass
from functools import cached_property

from .field import GF, Kernel, parse_descriptor, parse_int, parse_key_values
from . import geometry

ENUMERATION_BUDGET = 2 ** 32


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its guard."""


class GeneratorMatrix:
    """A k x n full-rank matrix over GF(q), stored by columns as int indices.
    Each entry is checked once, by `GF.as_element`; the rank (read off the
    columns up to k pivots) and the line profile then run on the kernel.
    The rows are transposed from the columns on first use."""

    def __init__(self, field: GF, rows):
        rows = tuple(tuple(field.as_element(e) for e in row) for row in rows)
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self._init(field, tuple(zip(*rows)), len(rows))

    @classmethod
    def from_columns(cls, field: GF, columns, _arc_base: int = 0) -> "GeneratorMatrix":
        """The matrix with these columns, converted in one pass and never
        transposed.  `_arc_base=k`, for the constructors alone, vouches that
        the first k columns are a k-arc; the line profile is then seeded
        with it."""
        columns = list(columns)
        if len(set(map(len, columns))) > 1:
            raise ValueError("ragged columns")
        k = len(columns[0]) if columns else 0
        # k references to one iterator: zip takes each column's k entries
        entries = iter([field.as_element(e) for column in columns for e in column])
        G = cls.__new__(cls)
        G._init(field, tuple(zip(*[entries] * k)), k)
        G._arc_base = _arc_base
        return G

    def _init(self, field: GF, columns, k: int):
        self.field, self._columns, self.k, self.n = field, columns, k, len(columns)
        if self.k < 1:
            raise ValueError("a generator matrix needs at least one row")
        if self.n < self.k:
            raise ValueError(f"length n={self.n} below dimension k={self.k}")
        if (rank := _column_rank(field.kernel, columns, self.k)) < self.k:
            raise ValueError(f"rank {rank} below row count {self.k}")
        self._line_profile = None
        self._arc_base = 0

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self._columns))

    def columns(self):
        return self._columns

    def line_profile(self) -> geometry.LineProfile:
        """How many columns each line of PG(2,q) holds (k = 3 only); computed
        on first use and kept."""
        if self.k != 3:
            raise ValueError("the line profile is defined for k = 3")
        if self._line_profile is None:
            self._line_profile = geometry.LineProfile(self.field, self._columns,
                                                      _arc_base=self._arc_base)
        return self._line_profile

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorMatrix)
            and self.field == other.field
            and self._columns == other._columns
        )

    def __repr__(self):
        return f"GeneratorMatrix(q={self.field.q}, k={self.k}, n={self.n})"

    def to_text(self, powers: bool = False) -> str:
        F = self.field
        head = f"q={F.q} {F.descriptor()}"
        body = "\n".join(
            " ".join(F.element_to_str(e, powers) for e in row) for row in self.rows
        )
        return head + "\n" + body + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GeneratorMatrix":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        head = parse_key_values(lines[0])
        missing = [key for key in ("p", "m", "mod") if key not in head]
        if missing:
            raise ValueError(f"matrix header {lines[0]!r} lacks {', '.join(missing)}")
        F = parse_descriptor(
            f"p={head['p']} m={head['m']} mod={head['mod']}"
        )
        if "q" in head and parse_int(head["q"]) != F.q:
            raise ValueError(f"header q={head['q']} disagrees with p^m={F.q}")
        rows = [[F.element_from_str(tok) for tok in ln.split()] for ln in lines[1:]]
        return cls(F, rows)


def _column_rank(K: Kernel, columns, k: int) -> int:
    """The rank of checked columns of length k, by column echelon on K: each
    column is reduced against the basis so far, whose vectors are 1 at their
    pivot and 0 at every earlier pivot, and a nonzero remainder, scaled to 1
    at its first nonzero entry, joins it.  Stops at k pivots."""
    basis: list[tuple[int, list[int]]] = []  # (pivot, vector)
    for v in columns:
        for p, b in basis:
            if f := v[p]:
                v = [K.sub(x, K.mul(f, y)) for x, y in zip(v, b)]
        if (p := next((i for i, x in enumerate(v) if x), None)) is not None:
            s = K.inv(v[p])
            basis.append((p, [K.mul(s, x) for x in v]))
            if len(basis) == k:
                break
    return len(basis)


class WeightDistribution:
    """Counts A_0..A_n; validates A_0 = 1, nonnegativity and sum q^k when the
    code parameters are supplied."""

    def __init__(self, counts, q: int | None = None, k: int | None = None):
        self.counts = tuple(int(c) for c in counts)
        self.n = len(self.counts) - 1
        if any(c < 0 for c in self.counts):
            raise ValueError("negative weight count")
        if self.counts[0] != 1:
            raise ValueError(f"A_0 = {self.counts[0]} != 1")
        if q is not None and k is not None and sum(self.counts) != q ** k:
            raise ValueError(f"counts sum to {sum(self.counts)}, expected {q ** k}")

    def __eq__(self, other):
        return isinstance(other, WeightDistribution) and self.counts == other.counts

    def __getitem__(self, w: int) -> int:
        return self.counts[w]

    def minimum_distance(self) -> int:
        return next(w for w in range(1, self.n + 1) if self.counts[w])

    def to_pairs(self):
        return [[w, c] for w, c in enumerate(self.counts) if c]

    @classmethod
    def from_pairs(cls, n: int, pairs, q=None, k=None):
        counts = [0] * (n + 1)
        for w, c in pairs:
            counts[w] = c
        return cls(counts, q, k)

    def __repr__(self):
        return f"WeightDistribution({self.to_pairs()})"


def weight_distribution(G: GeneratorMatrix) -> WeightDistribution:
    """Exact counts A_0..A_n: from the line profile when k = 3, otherwise by
    projective enumeration under ENUMERATION_BUDGET."""
    if G.k != 3:
        return enumerated_weight_distribution(G)
    q = G.field.q
    profile = G.line_profile()
    counts = [0] * (G.n + 1)
    counts[0] = 1
    for c, lines in profile.counts.items():
        counts[G.n - profile.zeros - c] += (q - 1) * lines
    return WeightDistribution(counts, q, 3)


def enumerated_weight_distribution(G: GeneratorMatrix) -> WeightDistribution:
    """Exact counts by projective enumeration, for any k; nonzero weights
    appear q-1 times per class.  The guard, ENUMERATION_BUDGET as read at
    the call, bounds the column evaluations, (q^k-1)/(q-1) * n."""
    F = G.field
    q = F.q
    work = (q ** G.k - 1) // (q - 1) * G.n
    if work > ENUMERATION_BUDGET:
        raise BudgetExceededError(f"(q^k-1)/(q-1)*n = {work} column evaluations "
                                  f"exceed the enumeration budget {ENUMERATION_BUDGET}")
    add, mul = F.kernel.add, F.kernel.mul  # the columns were checked on entry
    counts = [0] * (G.n + 1)
    counts[0] = 1
    for u in geometry.projective_points(F, G.k):
        weight = 0
        for col in G.columns():
            acc = 0
            for ui, e in zip(u, col):
                if ui and e:
                    acc = add(acc, mul(ui, e))
            weight += acc != 0
        counts[weight] += q - 1
    return WeightDistribution(counts, q, G.k)


@dataclass(frozen=True)
class CodeProfile:
    n: int
    k: int
    d: int
    d_dual: int | None  # None only when n = k: the dual is {0}
    defect: int
    defect_dual: int | None
    category: str  # MDS / AMDS / NMDS / other

    def to_dict(self):
        return asdict(self)


def _macwilliams_sums(distribution: WeightDistribution, q: int):
    """Yield sum_i A_i K_j(i) = q^k B_j for j = 1..n (MacWilliams).  The
    Krawtchouk values K_j(i) follow the exact three-term recurrence in j,
    for the nonzero A_i only, so a caller may stop early."""
    n = distribution.n
    weights = [i for i, a in enumerate(distribution.counts) if a]
    counts = [distribution[i] for i in weights]
    prev, cur = [0] * len(weights), [1] * len(weights)  # K_{-1}, K_0
    for j in range(n):
        prev, cur = cur, [
            (((q - 1) * (n - j) + j - q * i) * kj - (q - 1) * (n - j + 1) * kp) // (j + 1)
            for i, kj, kp in zip(weights, cur, prev)
        ]
        yield sum(a * kj for a, kj in zip(counts, cur))


def _dual_distance(distribution: WeightDistribution, q: int) -> int | None:
    """d of the dual from the code's own weights: the least j >= 1 with B_j
    nonzero.  Since d_dual <= k + 1 the transform stops after a few steps.
    None only when every B_j vanishes, i.e. n = k."""
    return next((j for j, s in enumerate(_macwilliams_sums(distribution, q), 1) if s), None)


def dual_weight_distribution(distribution: WeightDistribution, q: int,
                             k: int) -> WeightDistribution:
    """The dual's full weight distribution B_0..B_n from an [n, k] code's."""
    qk = q ** k
    return WeightDistribution([1] + [s // qk for s in _macwilliams_sums(distribution, q)],
                              q, distribution.n - k)


def classify(G: GeneratorMatrix, distribution: WeightDistribution | None = None) -> CodeProfile:
    """Fill the code profile, for any k: d is the least nonzero weight of the
    distribution (pass a precomputed one to reuse it).  d_dual is the size
    of the smallest dependent set of columns.  For k = 3 it is read off the
    line profile: 1 with a zero column, else 2 with two proportional ones,
    else 3 with three collinear ones, else 4 when n > 3, as any four vectors
    of GF(q)^3 are dependent.  Other k take it from the distribution by the
    MacWilliams identities."""
    if distribution is None:
        distribution = weight_distribution(G)
    d = distribution.minimum_distance()
    defect = G.n - G.k + 1 - d
    if G.k == 3:
        lines = G.line_profile()
        d_dual = (1 if lines.zeros else 2 if lines.repeated else 3 if lines.max_line >= 3
                  else 4 if G.n > 3 else None)
    else:
        d_dual = _dual_distance(distribution, G.field.q)
    defect_dual = None if d_dual is None else G.k + 1 - d_dual
    if defect == 0:
        category = "MDS"
    elif defect == 1 and defect_dual == 1:
        category = "NMDS"
    elif defect == 1:
        category = "AMDS"
    else:
        category = "other"
    return CodeProfile(G.n, G.k, d, d_dual, defect, defect_dual, category)


def _nmds_side(n: int, k: int, q: int, a_min: int, side: str) -> WeightDistribution:
    """The weight distribution of an [n, k, n-k] NMDS code with a_min words of
    minimum weight; the dual's is the same formula at dimension n - k.

    A_(n-k+s) = C(n, k-s) * S_s + (-1)^s C(k, s) a_min for s = 1..k, where
    S_s = sum_{j<s} (-1)^j C(N, j) (q^(s-j) - 1) with N = n-k+s.  Write
    P(N, m) = sum_{j<=m} (-1)^j C(N, j) q^(m-j).  Since
    sum_{j<=m} (-1)^j C(N, j) = (-1)^m C(N-1, m), S_s = q P(N, s-1) +
    (-1)^s C(N-1, s-1), and Pascal's rule gives P(N+1, m+1) =
    (q-1) P(N, m) + (-1)^(m+1) C(N, m+1).  So each s costs O(1) big-int
    steps: every binomial moves from the last by one multiply and one exact
    divide, and math.comb runs once, for C(n, k)."""
    counts = [0] * (n + 1)
    counts[0] = 1
    counts[n - k] = a_min
    # at step s: P = P(n-k+s, s-1), beta = (-1)^(s-1) C(n-k+s-1, s-1),
    # c = C(n, k-s), e = (-1)^s C(k, s)
    P, beta, c, e = 1, 1, math.comb(n, k), 1
    for s in range(1, k + 1):
        c = c * (k - s + 1) // (n - k + s)
        e = -e * (k - s + 1) // s
        val = c * (q * P - beta) + e * a_min
        if val < 0:
            raise ValueError(
                f"{side} A_{n - k + s} = {val} < 0: a_min={a_min} is inconsistent"
            )
        counts[n - k + s] = val
        beta = -beta * (n - k + s) // s
        P = (q - 1) * P + beta
    return WeightDistribution(counts, q, k)


def nmds_closed_form(n: int, k: int, q: int, a_min: int):
    """Both full weight distributions of an [n, k, n-k] NMDS code from the
    count a_min of minimum-weight codewords (= the dual's, by the pairing).

    Returns (distribution of C, distribution of the dual).  Exact integer
    arithmetic; a negative intermediate count signals an inconsistent a_min.
    """
    if not (1 <= k < n):
        raise ValueError(f"bad NMDS parameters n={n}, k={k}")
    return (_nmds_side(n, k, q, a_min, "primal"),
            _nmds_side(n, n - k, q, a_min, "dual"))


def min_weight_supports(G: GeneratorMatrix) -> list[tuple[int, int, int]]:
    """All collinear column triples {i, j, l} (0-based) of a dimension-3 code
    whose columns are pairwise non-proportional and never 4 on a line.

    These are exactly the supports of the weight-3 dual codewords, and their
    complements are the supports of the minimum-weight codewords.
    """
    profile = G.line_profile()  # raises unless k = 3
    if profile.zeros or profile.repeated:
        raise ValueError("columns must be nonzero and pairwise non-proportional")
    if profile.max_line >= 4:
        raise ValueError(f"four collinear columns: {list(max(profile.rich, key=len))}")
    return list(profile.rich)
