"""Built-in golden fixtures: the reference generator matrices and weight
distributions that `arccodes verify-paper` and the acceptance suite check
bit-exactly."""

from dataclasses import dataclass

from .field import GF, make_field
from .codes import GeneratorMatrix, WeightDistribution


@dataclass(frozen=True)
class Golden:
    name: str
    p: int
    m: int
    kind: str          # "even" / "odd" construction, or a "fixture" matrix
    opoly: str | None  # descriptor, even kind only
    v_or_w: str | None  # constructed kinds only
    rows: tuple[str, ...]
    distribution: tuple[tuple[int, int], ...]  # nonzero (weight, count) pairs

    def field(self) -> GF:
        return make_field(self.p, self.m)

    def matrix(self) -> GeneratorMatrix:
        F = self.field()
        return GeneratorMatrix(
            F, [[F.element_from_str(tok) for tok in row.split()] for row in self.rows]
        )

    def pinned_distribution(self) -> WeightDistribution:
        n = len(self.rows[0].split())
        return WeightDistribution.from_pairs(
            n, [[0, 1]] + [list(p) for p in self.distribution]
        )


GOLDEN_Q4_EVEN = Golden(
    name="q=4 even construction (v = g)",
    p=2, m=2, kind="even", opoly="translation:h=1", v_or_w="g^1",
    rows=(
        "g^1 g^2 1 0 1 0 1 0 g^1",
        "g^2 g^1 1 0 0 1 1 g^1 0",
        "1 1 1 1 0 0 0 1 1",
    ),
    distribution=((6, 30), (7, 18), (8, 9), (9, 6)),
)

GOLDEN_Q9_ODD = Golden(
    name="q=9 odd construction (w = g^5)",
    p=3, m=2, kind="odd", opoly=None, v_or_w="g^5",
    rows=(
        "g^6 2 g^2 1 g^6 2 g^2 1 0 1 0 1 0 g^5",
        "g^7 g^6 g^5 2 g^3 g^2 g^1 1 0 0 1 1 g^5 0",
        "1 1 1 1 1 1 1 1 1 0 0 0 2 1",
    ),
    distribution=((11, 160), (12, 248), (13, 144), (14, 176)),
)

GOLDEN_Q11_ODD = Golden(
    name="q=11 odd construction (w = 7)",
    p=11, m=1, kind="odd", opoly=None, v_or_w="7",
    rows=(
        "1 4 9 5 3 3 5 9 4 1 0 1 0 1 0 7",
        "10 9 8 7 6 5 4 3 2 1 0 0 1 1 7 0",
        "1 1 1 1 1 1 1 1 1 1 1 0 0 0 10 1",
    ),
    distribution=((13, 230), (14, 510), (15, 210), (16, 380)),
)

# The columns are a (15,3)-arc extending the translation hyperoval (its first
# q+2 = 10 columns), and the code is [15,3,12] near-MDS.  Its length 15 = 2q-1
# exceeds q + floor(2*sqrt(q)) + 1 = 14, the longest length reachable from
# elliptic curves over GF(8).
GOLDEN_Q8_LENGTH15 = Golden(
    name="length-15 fixture over q=8",
    p=2, m=3, kind="fixture", opoly=None, v_or_w=None,
    rows=(
        "g^5 g^3 g^1 g^6 g^4 g^2 1 0 1 0 1 0 g^5 g^1 g^2",
        "g^6 g^5 g^4 g^3 g^2 g^1 1 0 0 1 1 g^5 0 g^3 1",
        "1 1 1 1 1 1 1 1 0 0 0 1 1 1 1",
    ),
    distribution=((12, 189), (13, 168), (14, 42), (15, 112)),
)

ALL_GOLDEN = (GOLDEN_Q4_EVEN, GOLDEN_Q9_ODD, GOLDEN_Q11_ODD, GOLDEN_Q8_LENGTH15)
