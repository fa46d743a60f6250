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
enumerator is also the test oracle for the profile.  No dual generator
matrix is built: for every k the dual distance, and on request the dual's
whole weight distribution, come from the weight distribution by the
MacWilliams identities.
"""

import math
from dataclasses import asdict, dataclass

from .field import GF, parse_descriptor, parse_int, parse_key_values
from . import geometry

ENUMERATION_BUDGET = 2 ** 32


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its guard."""


class GeneratorMatrix:
    """A k x n full-rank matrix over GF(q), stored row-major as int indices."""

    def __init__(self, field: GF, rows):
        self.field = field
        self.rows = tuple(tuple(field.as_element(e) for e in row) for row in rows)
        self.k = len(self.rows)
        if self.k < 1:
            raise ValueError("a generator matrix needs at least one row")
        self.n = len(self.rows[0])
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("ragged rows")
        if self.n < self.k:
            raise ValueError(f"length n={self.n} below dimension k={self.k}")
        _, pivots = rref(field, self.rows)
        if len(pivots) != self.k:
            raise ValueError(f"rank {len(pivots)} below row count {self.k}")
        self._columns = tuple(zip(*self.rows))
        self._line_profile = None
        self._arc_base = 0

    @classmethod
    def from_columns(cls, field: GF, columns, _arc_base: int = 0) -> "GeneratorMatrix":
        """`_arc_base=k`, for the constructors alone, vouches that the first k
        columns are a k-arc; the line profile is then seeded with it."""
        G = cls(field, list(zip(*columns)))
        G._arc_base = _arc_base
        return G

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
            and self.rows == other.rows
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


def rref(F: GF, rows):
    """Reduced row echelon form over GF(q); returns (rows, pivot columns).
    Each entry is checked once here; the elimination runs on F.kernel."""
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
    """Fill the code profile from the weight distribution, for any k: d is
    its least nonzero weight and d_dual comes from the MacWilliams
    identities.  Pass a precomputed distribution to reuse it."""
    if distribution is None:
        distribution = weight_distribution(G)
    d = distribution.minimum_distance()
    defect = G.n - G.k + 1 - d
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
    minimum weight; the dual's is the same formula at dimension n - k."""
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
