"""Independent output checks for the benchmark.

Nothing here calls arccodes.  The only thing read from the library is a
field's representation (p, m and the modulus), which fixes how element
indices map to polynomials: index i has base-p digits d_0, d_1, ... and
stands for d_0 + d_1 x + d_2 x^2 + ...  From that the oracle rebuilds the
arithmetic itself and recomputes each answer another way:

* weight distributions come from the line profile of the column set,
  counted over column pairs, instead of from codeword enumeration;
* minimum-weight supports are the column triples on a common line;
* (n,3)-arc checks group the points of a set by the line through each pair;
* census counts follow from the quadratic character of the discriminant.
"""


class OracleField:
    """GF(p^m) rebuilt from its modulus: exp/log tables for multiplication,
    digit-wise addition (tabulated for odd extension fields)."""

    def __init__(self, p: int, m: int, modulus):
        self.p, self.m, self.q = p, m, p ** m
        self.modulus = tuple(modulus)
        q = self.q
        g = next(c for c in range(2, q) if self._order(c) == q - 1) if q > 2 else 1
        exp = [1] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._poly_mul(x, g)
        self.log = log
        self.exp = exp + exp  # exp[log a + log b] needs no reduction
        if m == 1:
            self.add = lambda a, b: (a + b) % p
            self.neg = lambda a: -a % p
        elif p == 2:
            self.add = lambda a, b: a ^ b
            self.neg = lambda a: a
        else:
            digits = [self._to_digits(i) for i in range(q)]
            table = [self._from_digits([(x + y) % p for x, y in zip(digits[a], digits[b])])
                     for a in range(q) for b in range(q)]
            negs = [self._from_digits([-x % p for x in digits[a]]) for a in range(q)]
            self.add = lambda a, b: table[a * q + b]
            self.neg = negs.__getitem__

    def _to_digits(self, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(i % self.p)
            i //= self.p
        return tuple(out)

    def _from_digits(self, digits) -> int:
        out = 0
        for c in reversed(digits):
            out = out * self.p + c
        return out

    def _poly_mul(self, a: int, b: int) -> int:
        """Schoolbook product reduced by the monic modulus."""
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self._to_digits(a)):
            for j, y in enumerate(self._to_digits(b)):
                prod[i + j] += x * y
        for top in range(2 * m - 2, m - 1, -1):
            c = prod[top] % p
            if c:
                for j in range(m + 1):
                    prod[top - m + j] -= c * self.modulus[j]
        return self._from_digits([c % p for c in prod[:m]])

    def _order(self, a: int) -> int:
        x, k = a, 1
        while x != 1:
            x = self._poly_mul(x, a)
            k += 1
            if k > self.q:
                return 0
        return k

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def eta(self, a: int) -> int:
        """Quadratic character for odd q: 0, 1 on squares, -1 otherwise."""
        if a == 0:
            return 0
        return 1 if self.log[a] % 2 == 0 else -1

    def normalize(self, t):
        """Scale a nonzero triple so its first nonzero entry is 1."""
        exp, log, qm1 = self.exp, self.log, self.q - 1
        s = qm1 - log[next(c for c in t if c)]
        return tuple(exp[log[c] + s] if c else 0 for c in t)


def field_of(F) -> OracleField:
    """The oracle's arithmetic for a library field object."""
    return OracleField(F.p, F.m, F.modulus)


def rich_lines(K: OracleField, points) -> dict:
    """Map each line holding two or more of the points to the sorted indices
    of the points on it.  Raises ValueError on projectively repeated points.

    The line through two points is their cross product, scaled so its first
    nonzero entry is 1; the arithmetic is inlined because at q=521 this
    visits 138k pairs."""
    exp, log, add, neg, qm1 = K.exp, K.log, K.add, K.neg, K.q - 1

    def mul(x, y):
        return exp[log[x] + log[y]] if x and y else 0

    lines: dict = {}
    for i, (a0, a1, a2) in enumerate(points):
        for j in range(i + 1, len(points)):
            b0, b1, b2 = points[j]
            c = (add(mul(a1, b2), neg(mul(a2, b1))),
                 add(mul(a2, b0), neg(mul(a0, b2))),
                 add(mul(a0, b1), neg(mul(a1, b0))))
            lead = c[0] or c[1] or c[2]
            if not lead:
                raise ValueError(f"points {i} and {j} coincide projectively")
            s = qm1 - log[lead]
            key = tuple(exp[log[x] + s] if x else 0 for x in c)
            members = lines.get(key)
            if members is None:
                lines[key] = {i, j}
            else:
                members.add(i)
                members.add(j)
    return {u: tuple(sorted(s)) for u, s in lines.items()}


def profile_counts(q: int, n: int, lines: dict) -> dict:
    """t_i, the number of lines meeting an n-set in exactly i points, from the
    lines with two or more points: every point lies on q+1 lines, and the
    plane has q^2+q+1 lines."""
    t = {}
    for members in lines.values():
        t[len(members)] = t.get(len(members), 0) + 1
    on_rich = sum(i * c for i, c in t.items())
    t[1] = n * (q + 1) - on_rich
    t[0] = q * q + q + 1 - sum(t.values())
    return {i: c for i, c in t.items() if c}


def distribution_from_lines(q: int, n: int, lines: dict) -> list[int]:
    """Weight distribution of a 3 x n code whose columns have these rich
    lines: a codeword vanishes exactly on the columns of one line, so
    A_{n-i} = (q-1) t_i, plus A_0 = 1."""
    t = profile_counts(q, n, lines)
    counts = [0] * (n + 1)
    counts[0] = 1
    for i, c in t.items():
        counts[n - i] += (q - 1) * c
    return counts


def closed_form(q: int) -> list[int]:
    """The paper's [q+5, 3, q+2] weight distribution (even q, or odd q by
    q mod 4), written out here so the library's copy is checked too."""
    n = q + 5
    if q % 2 == 0:
        top = [(q - 1) * (3 * q + 8) // 2, (q - 1) * (q + 2) * (q - 2) // 2,
               3 * (q - 1) * (q - 2) // 2, (q - 1) * (q - 2) ** 2 // 2]
    elif q % 4 == 1:
        top = [(2 * q + 2) * (q - 1), (q - 1) * (q * q - 3 * q + 8) // 2,
               (3 * q - 9) * (q - 1), (q - 1) * (q * q - 5 * q + 8) // 2]
    else:
        top = [(2 * q + 1) * (q - 1), (q - 1) * (q * q - 3 * q + 14) // 2,
               (3 * q - 12) * (q - 1), (q - 1) * (q * q - 5 * q + 10) // 2]
    counts = [1] + [0] * (n - 4) + top
    if sum(counts) != q ** 3:
        raise AssertionError(f"closed form at q={q} does not sum to q^3")
    return counts


def nmds_code_problems(K: OracleField, columns, distribution, closed, profile,
                       report=None) -> list[str]:
    """Everything the sweep checks about one [q+5, 3, q+2] code.

    `distribution` and `closed` are count lists from the library; `profile`
    is its CodeProfile; `report` is its lrc_report dict, when one was made.
    """
    q, n = K.q, len(columns)
    lines = rich_lines(K, columns)
    problems = []
    if list(distribution) != distribution_from_lines(q, n, lines):
        problems.append("enumerated distribution differs from the line profile")
    if list(closed) != closed_form(q):
        problems.append("library closed form differs from the paper's")
    if list(distribution) != list(closed):
        problems.append("enumerated distribution differs from the closed form")
    if max(len(m) for m in lines.values()) != 3:
        problems.append("columns are not an (n,3)-arc")
    if (profile.category, profile.d, profile.d_dual) != ("NMDS", q + 2, 3):
        problems.append(f"profile {profile.category} d={profile.d} "
                        f"d_dual={profile.d_dual}, expected NMDS d={q + 2} d_dual=3")
    if report is not None:
        problems += locality_problems(q, n, lines, report["supports"],
                                      (report["r_primal"], report["r_dual"]))
        flags = [report[k] for k in ("d_optimal", "k_optimal",
                                     "dual_d_optimal", "dual_k_optimal")]
        if flags != [True] * 4:
            problems.append(f"optimality flags {flags}, expected all true")
    return problems


def locality_problems(q: int, n: int, lines: dict, supports, localities) -> list[str]:
    """Supports must be exactly the 3-point lines' column triples, one per
    projective class of minimum-weight dual codeword, and the localities
    must be (2, q+1)."""
    problems = []
    triples = sorted(m for m in lines.values() if len(m) == 3)
    if sorted(tuple(s) for s in supports) != triples:
        problems.append("supports differ from the collinear column triples")
    a_min = closed_form(q)[q + 2]
    if len(triples) != a_min // (q - 1):
        problems.append(f"{len(triples)} collinear triples, expected {a_min // (q - 1)}")
    if tuple(localities) != (2, q + 1):
        problems.append(f"localities {tuple(localities)}, expected (2, {q + 1})")
    return problems


def admissible_w(K: OracleField) -> list[int]:
    """w with eta(w) = eta(1 + 4w) = -1, the odd construction's choices."""
    four = K.add(K.add(1, 1), K.add(1, 1))
    return [w for w in range(K.q) if K.eta(w) == -1 and K.eta(K.add(1, K.mul(four, w))) == -1]


def census_problems(K: OracleField, kind: str, counts: dict, diagonal_ok: bool,
                    w: int | None = None) -> list[str]:
    """even-A1: every pair has 0 or 2 roots, and (q-1)(q-2)/2 have two.
    odd-B1: u1 x^2 + u2 x + u2 w has 1 + eta(u2^2 - 4 u1 u2 w) roots, counted
    here pair by pair."""
    q = K.q
    if kind == "even-A1":
        two = (q - 1) * (q - 2) // 2
        expected = {0: (q - 1) ** 2 - two, 2: two}
    elif kind == "odd-B1":
        expected = {}
        four_w = K.mul(K.add(K.add(1, 1), K.add(1, 1)), w)
        for u1 in range(1, q):
            c = K.mul(four_w, u1)
            for u2 in range(1, q):
                roots = 1 + K.eta(K.mul(u2, K.sub(u2, c)))
                expected[roots] = expected.get(roots, 0) + 1
        if expected.get(2) != (q - 1) * (q - 3) // 2 or expected.get(1) != q - 1:
            return [f"oracle census at q={q} disagrees with (q-1)(q-3)/2"]
    else:
        return [f"no oracle for census kind {kind}"]
    problems = []
    if dict(counts) != expected:
        problems.append(f"census {kind} counts {dict(sorted(counts.items()))}, "
                        f"expected {dict(sorted(expected.items()))}")
    if not diagonal_ok:
        problems.append(f"census {kind} has roots on the diagonal")
    return problems


def arc_problems(K: OracleField, base, found, nodes: int, max_nodes: int) -> list[str]:
    """The search result holds the base, is an (n,3)-arc with some 3-point
    line, and stayed inside its node budget."""
    problems = []
    norm = [K.normalize(p) for p in found]
    if not {K.normalize(p) for p in base} <= set(norm):
        problems.append("result does not contain the base")
    try:
        sizes = {len(m) for m in rich_lines(K, norm).values()}
    except ValueError as exc:
        return problems + [str(exc)]
    if max(sizes) != 3:
        problems.append(f"largest line meets the result in {max(sizes)} points, expected 3")
    if nodes > max_nodes:
        problems.append(f"{nodes} nodes exceed the budget {max_nodes}")
    return problems

