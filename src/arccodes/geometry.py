"""Points, lines and arcs in the projective plane PG(2,q).

Points and lines are canonical homogeneous triples of field-element indices:
the triple is scaled so its last nonzero coordinate is 1, which makes the
canonical form unique per 1-dimensional subspace and matches the reference
notations (x^2, x, 1) and (1, 0, 0).  A line u is incident with a point x
when the dot product x.u vanishes; the representation of points and lines is
identical, so incidence is symmetric under duality.

Field elements are checked once, where they enter (`canonical` for
`LineProfile`'s columns); the per-pair work then runs on the field's
unchecked kernel: one slope per pair in `LineProfile` (per pair with an
added point, for a construction seeded with its certified arc base), and in
the arc search one or two operations per point of a pencil line.
"""

from itertools import product

from .field import GF, Kernel
from .opoly import OPolynomial, is_o_polynomial

Triple = tuple[int, int, int]


def canonical(F: GF, triple) -> Triple:
    """The canonical form of a homogeneous triple: last nonzero coordinate 1."""
    if len(t := tuple(triple)) != 3:
        raise ValueError(f"expected a homogeneous triple, got {triple!r}")
    if (point := _scaled(F.kernel, *map(F.as_element, t))) is None:
        raise ValueError("the zero vector has no projective point")
    return point


def _scaled(K: Kernel, x: int, y: int, z: int) -> Triple | None:
    """(x, y, z) scaled on the unchecked kernel K so that its last nonzero
    coordinate is 1, or None for the zero vector."""
    if z:
        s = K.inv(z)
        return K.mul(s, x), K.mul(s, y), 1
    if y:
        return K.mul(K.inv(y), x), 1, 0
    if x:
        return 1, 0, 0
    return None


def projective_points(F: GF, k: int):
    """One vector of length k per point of PG(k-1,q), in the canonical form:
    last nonzero coordinate 1."""
    for lead in range(k):  # lead: the number of trailing zeros
        for head in product(range(F.q), repeat=k - lead - 1):
            yield head + (1,) + (0,) * lead


def all_points(F: GF) -> list[Triple]:
    """The q^2+q+1 canonical points, lexicographically ordered."""
    return sorted(projective_points(F, 3))


def validate_point_set(F: GF, points) -> list[Triple]:
    pts = [canonical(F, p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("point set has projectively repeated points")
    return pts


class LineProfile:
    """How many of a set of columns each line of PG(2,q) holds, found from
    the pairs of distinct column points in O(n^2) field operations, or in
    O(n) per added point for a construction seeded with its arc base.

    Zero columns are counted apart (`zeros`); the others are grouped by
    canonical point, with multiplicity.  A line through two or more points
    is the line through some pair.  Each point lies on q+1 lines, and those
    that hold no other point hold its columns alone.  Every other line holds
    no column.  Only a summary is kept: `counts` maps c to the number of
    lines holding exactly c columns (over all q^2+q+1 lines), and `rich`
    lists, sorted, the column indices of each line through two or more
    points that holds three or more columns.

    No line is built.  Each of the m distinct points P_i in turn is a pivot
    with two independent linear forms L1, L2 vanishing on it (x - a z and
    y - b z for (a,b,1); z and x - a y for (a,1,0); z and y for (1,0,0)),
    and each later point P_j gets the slope L1(P_j)/L2(P_j), or q where
    L2(P_j) = 0: two later points share a slope exactly when they lie on one
    line through P_i.  A class {j1 < j2 < ...} of equal slopes is the line
    {i, j1, j2, ...}.  A line through points p_0 < ... < p_(k-1) shows again
    at each later pivot p_t, t <= k-2, as the class (p_(t+1), ..., p_(k-1));
    every one of them ends in the same two points.  So a line's key is its
    last two points, a class whose key was seen is skipped, and each line
    is recorded once, at its lowest point.

    With no repeated point only pivots with a repeated slope are grouped
    and only classes of two or more points are read.  Each line of k >= 3
    points is kept in `rich`, and the rest of `counts` follows from those
    lines: the C(m,2) pairs of points lie one line each,
    C(k,2) of them on a line of k points, so C(m,2) - sum C(k,2) lines hold
    two points; point i lies on (m-1) - sum(k-2) lines holding another
    point, the sum over the lines through it, so m(q+1) - m(m-1) +
    sum k(k-2) = m(q+2-m) + sum k(k-2) lines hold one point.  Each sum runs
    over the lines of three or more points.  With a repeated point every
    pivot is grouped, each line through two or more points counts its own
    columns, and the (m-1) - sum(k-2) lines above are tallied per point,
    so that the other lines through a point count its columns alone.

    `_arc_base=k`, passed by the constructors alone, vouches that the first
    k columns are a k-arc: `hyperoval_from_opoly` and `standard_oval` give
    the certificates.  Then every line of three or more points holds one of
    the added points after the base, and is found at its lowest point if
    those come first.  So the added points are moved to the front and only
    they pivot, each against every later point; the counts above need only
    the lines of three or more points.  The columns must then be nonzero and
    projectively distinct, or ValueError is raised.
    """

    def __init__(self, F: GF, columns, _arc_base: int = 0):
        q, sub, mul, inv = F.q, F.kernel.sub, F.kernel.mul, F.kernel.inv
        groups: dict[Triple | None, list[int]] = {}  # None: the zero columns
        for idx, col in enumerate(columns):
            groups.setdefault(canonical(F, col) if any(col) else None, []).append(idx)
        self.zeros = len(groups.pop(None, ()))
        pts, cols_at = list(groups), list(groups.values())
        m = len(pts)
        self.repeated = repeated = any(len(g) > 1 for g in cols_at)
        if _arc_base:  # the added points first
            if self.zeros or repeated:
                raise ValueError("an arc-seeded profile needs distinct nonzero columns")
            pts = pts[_arc_base:] + pts[:_arc_base]
            cols_at = cols_at[_arc_base:] + cols_at[:_arc_base]
        pivots = m - _arc_base
        counts: dict[int, int] = {}
        rich = []
        seen: set[tuple[int, int]] = set()  # the keys of the lines recorded
        if repeated:
            through = [m - 1] * m  # lines through each point holding another
        else:
            index = [g[0] for g in cols_at]  # each point's one column
        for i, (a, b, c) in enumerate(pts[:pivots]):
            later = pts[i + 1:]
            if c:  # (x - a z) / (y - b z), with z in {0, 1}
                slopes = [(mul(sub(x, a), inv(v)) if (v := sub(y, b)) else q) if z
                          else (mul(x, inv(y)) if y else q) for x, y, z in later]
            elif b:  # z / (x - a y)
                slopes = [mul(z, inv(v)) if (v := sub(x, mul(a, y))) else q
                          for x, y, z in later]
            else:  # z / y
                slopes = [mul(z, inv(y)) if y else q for _, y, z in later]
            if not repeated and len(set(slopes)) == len(slopes):
                continue
            classes: dict[int, list[int]] = {}
            for j, s in enumerate(slopes, i + 1):
                classes.setdefault(s, []).append(j)
            for js in classes.values():
                if len(js) < 2 and not repeated:
                    continue
                key = (js[-2], js[-1]) if len(js) > 1 else (i, js[0])
                if key in seen:
                    continue
                seen.add(key)
                if not repeated:
                    rich.append(tuple(sorted([index[i], *[index[j] for j in js]])))
                    continue
                if (k := len(js) + 1) > 2:
                    for t in (i, *js):
                        through[t] -= k - 2
                cols = sorted(col for t in (i, *js) for col in cols_at[t])
                counts[len(cols)] = counts.get(len(cols), 0) + 1
                if len(cols) >= 3:
                    rich.append(tuple(cols))
        self.rich: tuple[tuple[int, ...], ...] = tuple(sorted(rich))
        if repeated:
            for i, g in enumerate(cols_at):
                counts[len(g)] = counts.get(len(g), 0) + q + 1 - through[i]
        else:
            counts[1] = m * (q + 2 - m)
            counts[2] = m * (m - 1) // 2
            for line in rich:
                k = len(line)
                counts[k] = counts.get(k, 0) + 1
                counts[1] += k * (k - 2)
                counts[2] -= k * (k - 1) // 2
        counts[0] = q * q + q + 1 - sum(counts.values())
        self.counts = {c: t for c, t in sorted(counts.items()) if t}
        self.max_line = max(self.counts)


def line_intersection_profile(F: GF, points) -> tuple[dict[int, int], int]:
    """Map size -> number of lines meeting the set in that many points, over
    all q^2+q+1 lines, plus the maximum size."""
    profile = LineProfile(F, points)
    if profile.zeros:
        raise ValueError("the zero vector has no projective point")
    return dict(profile.counts), profile.max_line


def is_arc(F: GF, points) -> bool:
    """No three points collinear (pairwise distinct required)."""
    return LineProfile(F, validate_point_set(F, points)).max_line <= 2


def is_n3_arc(F: GF, points) -> bool:
    """Some three points collinear but never four."""
    return LineProfile(F, validate_point_set(F, points)).max_line == 3


def hyperoval_from_opoly(f: OPolynomial) -> list[Triple]:
    """The q+2 points {(f(c), c, 1)} + {(1,0,0), (0,1,0)}, c in the field's
    reference order (`GF.elements`): a hyperoval, as is_o_polynomial(f)
    certifies here."""
    verdict = is_o_polynomial(f)
    if not verdict:
        raise ValueError(
            f"not an o-polynomial (failed {verdict.condition}"
            + (f" at a={verdict.witness})" if verdict.witness is not None else ")")
        )
    tab = f.values
    pts = [(tab[c], c, 1) for c in f.field.elements()]
    pts.append((1, 0, 0))
    pts.append((0, 1, 0))
    return pts


def standard_oval(F: GF) -> list[Triple]:
    """The q+1 points {(x^2, x, 1)} + {(1,0,0)} over odd q, x in the field's
    reference order (`GF.elements`).  They are an arc:
    a line ax+by+cz=0 meets {(t^2,t,1)} in the roots of at^2+bt+c, at most
    two, and holds (1,0,0) only when a=0, which leaves at most one root."""
    if F.p == 2:
        raise ValueError("the standard oval needs odd characteristic")
    pts = [(F.mul(x, x), x, 1) for x in F.elements()]
    pts.append((1, 0, 0))
    return pts


def point_to_str(F: GF, point, powers: bool = False) -> str:
    return ":".join(F.element_to_str(c, powers) for c in point)


def point_from_str(F: GF, text: str) -> Triple:
    toks = text.split(":")
    if len(toks) != 3:
        raise ValueError(f"expected 'x:y:z', got {text!r}")
    return canonical(F, tuple(F.element_from_str(t) for t in toks))
