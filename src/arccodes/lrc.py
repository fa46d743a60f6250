"""Exact localities of dimension-3 codes, LRC optimality verdicts, and the
one report per code (`code_report`) that the code commands print.

Locality is the minimum recovery-set size (Gopalan, Huang, Simitci and
Yekhanin, IEEE Trans. IT 58(11), 2012).  The columns are nonzero, pairwise
non-proportional and never 4 on a line, so both localities of coordinate i
follow from the collinear column triples (the weight-3 dual supports).  t_i
of them hold i.  The richest line missing column i holds m_i = 3 columns if
a triple misses i, else 2: the columns span the plane, so not every pair of
other columns is collinear with i.  Column i is in the span of two others
exactly when a triple holds it, so r_i = 2 if t_i > 0, else 3 if the other
columns span the plane (m_i < n-1); if they are collinear, i has no
recovery set.  A dual coordinate is recovered from the rest of the support
of a codeword nonzero at i; the q-1 codewords of a line vanish exactly on
its columns, so the lightest has weight n - m_i and the dual's r_i is
n - 1 - m_i.  A code's locality is the largest of its coordinates'.

Optimality is judged against the Singleton-like bound
d <= n - k - ceil(k/r) + 2 and the Cadambe-Mazumdar bound with the largest
feasible dimension k_opt(n', d) instantiated as the Singleton bound
max(n' - d + 1, 0) ("Singleton-relaxed"), which is all these codes need.
"""

import math
from dataclasses import dataclass

from .codes import (CodeProfile, GeneratorMatrix, WeightDistribution, classify,
                    dual_weight_distribution, min_weight_supports, weight_distribution)

FLAGS = ("d_optimal", "k_optimal", "dual_d_optimal", "dual_k_optimal")


@dataclass(frozen=True)
class LocalityReport:
    """`r_primal` is None when some coordinate has no recovery set;
    `coordinates` holds each coordinate's (primal, dual) locality."""
    r_primal: int | None
    r_dual: int
    supports: tuple[tuple[int, int, int], ...]
    coordinates: tuple[tuple[int | None, int], ...]


def locality_report(G: GeneratorMatrix) -> LocalityReport:
    """Exact per-coordinate localities of a dimension-3 code and its dual."""
    supports = tuple(min_weight_supports(G))
    n = G.n
    t = [0] * n
    for triple in supports:
        for i in triple:
            t[i] += 1
    coordinates = []
    for t_i in t:
        m_i = 3 if len(supports) > t_i else 2
        coordinates.append((2 if t_i else 3 if m_i < n - 1 else None, n - 1 - m_i))
    primal = [r for r, _ in coordinates]
    return LocalityReport(None if None in primal else max(primal),
                          max(r for _, r in coordinates), supports, tuple(coordinates))


def singleton_like_bound(n: int, k: int, r: int) -> int:
    if r < 1:
        raise ValueError("locality r must be >= 1")
    return n - k - math.ceil(k / r) + 2


def cm_bound(n: int, d: int, r: int) -> int:
    """min over t >= 1 with t(r+1) <= n of t*r + max(n - t(r+1) - d + 1, 0).
    t(r+1) = n is admitted, with k_opt(0, d) = 0: it is sound because there
    d >= 1 and the Singleton-like bound k + ceil(k/r) <= n - d + 2 <=
    t(r+1) + 1 already rule out k = tr + 1 (whose left side is t(r+1) + 2),
    so k <= tr.  The objective falls by 1 per step up to t0 =
    floor((n-d+1)/(r+1)) and is t*r, at least its value at t0, from t0+1
    on; so t0 clamped to the feasible range attains the minimum."""
    if r < 1:
        raise ValueError("locality r must be >= 1")
    t_max = n // (r + 1)
    if t_max < 1:
        raise ValueError(f"no feasible t: n={n} too short for r={r}")
    t = min(max((n - d + 1) // (r + 1), 1), t_max)
    return t * r + max(n - t * (r + 1) - d + 1, 0)


@dataclass(frozen=True)
class BoundVerdict:
    d_optimal: bool
    k_optimal: bool
    singleton_like_rhs: int
    cm_rhs: int

    def to_dict(self):
        return {**vars(self), "cm_bound_model": "singleton-relaxed"}


def bound_verdict(n: int, k: int, d: int, r: int) -> BoundVerdict:
    """Whether d meets the Singleton-like bound and k the CM bound.  d above
    the Singleton-like bound means inconsistent inputs."""
    if not 1 <= k <= n or d < 1:
        raise ValueError(f"no [n={n}, k={k}, d={d}] code: need 1 <= k <= n and d >= 1")
    s_rhs = singleton_like_bound(n, k, r)
    if d > s_rhs:
        raise ValueError(f"d={d} exceeds the Singleton-like bound {s_rhs}; inconsistent inputs")
    c_rhs = cm_bound(n, d, r)
    return BoundVerdict(d == s_rhs, k == c_rhs, s_rhs, c_rhs)


def lrc_report(G: GeneratorMatrix, distribution: WeightDistribution | None = None) -> dict:
    """The flat JSON report: profile numbers, localities, and the four
    optimality flags for the code and its dual.  Pass the weight distribution
    to reuse it: classifying reads d from it and d_dual from the line
    profile, with no MacWilliams step."""
    profile = classify(G, distribution)
    loc = locality_report(G)
    n, k = profile.n, profile.k
    out = {"n": n, "k": k, "d": profile.d,
           "r_primal": loc.r_primal, "r_dual": loc.r_dual,
           **dict.fromkeys(FLAGS),
           "supports": [list(t) for t in loc.supports],
           "localities": [list(c) for c in loc.coordinates]}
    # r_primal None: a coordinate has no recovery set; d_dual None: the dual is {0}
    for side, dim, d, r in (("", k, profile.d, loc.r_primal),
                            ("dual_", n - k, profile.d_dual, loc.r_dual)):
        if d is not None and r is not None:
            verdict = bound_verdict(n, dim, d, r)
            out.update((side + key, value) for key, value in vars(verdict).items())
    return out


@dataclass(frozen=True)
class CodeReport:
    """Everything the library reports about one code, as every code command
    but `locality` prints it.  `lrc` is lrc_report's dict for k = 3 ({"error": ...} when the columns
    admit none: zero, repeated or 4 on a line) and None otherwise."""
    distribution: WeightDistribution
    dual_distribution: WeightDistribution
    profile: CodeProfile
    lrc: dict | None

    def to_dict(self):
        out = {"profile": self.profile.to_dict(),
               "weight_distribution": self.distribution.to_pairs(),
               "dual_weight_distribution": self.dual_distribution.to_pairs()}
        return out if self.lrc is None else {**out, "lrc": self.lrc}


def code_report(G: GeneratorMatrix) -> CodeReport:
    """The weights, the MacWilliams dual weights, the profile and, for
    k = 3, the localities and LRC verdicts of the code generated by G."""
    dist = weight_distribution(G)
    profile = classify(G, dist)
    rep = None
    if G.k == 3:
        try:
            rep = lrc_report(G, dist)
        except ValueError as exc:
            rep = {"error": str(exc)}
    return CodeReport(dist, dual_weight_distribution(dist, G.field.q, G.k), profile, rep)
