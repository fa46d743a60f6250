"""Locality of dimension-3 near-MDS codes and LRC optimality verdicts.

The locality criterion works on the weight-3 dual supports (the collinear
column triples): if their union covers every coordinate the code has
locality k-1 = 2, and if their intersection is empty the dual has locality
n-k-1.  When a criterion fails the corresponding locality is reported as
None ("not established by this criterion") rather than searched for
exhaustively.

Optimality is judged against the Singleton-like bound
d <= n - k - ceil(k/r) + 2 and the Cadambe-Mazumdar bound with the largest
feasible dimension k_opt(n', d) instantiated as the Singleton bound
max(n' - d + 1, 0) ("Singleton-relaxed"), which is all these codes need.
"""

import math
from dataclasses import dataclass

from .codes import CodeProfile, GeneratorMatrix, WeightDistribution, classify, min_weight_supports


@dataclass(frozen=True)
class LocalityReport:
    r_primal: int | None
    r_dual: int | None
    cover_ok: bool
    disjoint_ok: bool
    supports: tuple[tuple[int, int, int], ...]
    remark: str = ""


def locality_report(G: GeneratorMatrix) -> LocalityReport:
    """Apply the support-cover criterion to a dimension-3 code."""
    supports = tuple(min_weight_supports(G))
    n = G.n
    if supports:
        union = set().union(*map(set, supports))
        inter = set(supports[0]).intersection(*map(set, supports[1:]))
    else:
        union, inter = set(), set()
    cover_ok = union == set(range(n))
    disjoint_ok = bool(supports) and not inter
    r_primal = G.k - 1 if cover_ok else None
    r_dual = n - G.k - 1 if disjoint_ok else None
    if cover_ok:
        remark = (
            "locality <= 2 established by the cover criterion; >= 2 since the "
            "dual distance 3 forces recovery sets of size >= 2"
        )
    else:
        remark = "criterion inconclusive"
    return LocalityReport(r_primal, r_dual, cover_ok, disjoint_ok, supports, remark)


def singleton_like_bound(n: int, k: int, r: int) -> int:
    if r < 1:
        raise ValueError("locality r must be >= 1")
    return n - k - math.ceil(k / r) + 2


def cm_bound(n: int, d: int, r: int) -> int:
    """min over t >= 1 with n - t(r+1) >= 1 of t*r + max(n - t(r+1) - d + 1, 0).
    The objective falls by 1 per step up to t0 = floor((n-d+1)/(r+1)) and
    is t*r, at least its value at t0, from t0+1 on; so t0 clamped to the
    feasible range attains the minimum."""
    if r < 1:
        raise ValueError("locality r must be >= 1")
    t_max = (n - 1) // (r + 1)
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
        return {
            "d_optimal": self.d_optimal,
            "k_optimal": self.k_optimal,
            "singleton_like_rhs": self.singleton_like_rhs,
            "cm_rhs": self.cm_rhs,
            "cm_bound_model": "singleton-relaxed",
        }


def bound_verdict(n: int, k: int, d: int, r: int) -> BoundVerdict:
    """Whether d meets the Singleton-like bound and k the CM bound.  d above
    the Singleton-like bound means inconsistent inputs."""
    s_rhs = singleton_like_bound(n, k, r)
    if d > s_rhs:
        raise ValueError(f"d={d} exceeds the Singleton-like bound {s_rhs}; inconsistent inputs")
    c_rhs = cm_bound(n, d, r)
    return BoundVerdict(d == s_rhs, k == c_rhs, s_rhs, c_rhs)


def lrc_report(G: GeneratorMatrix,
               distribution: WeightDistribution | None = None, *,
               profile: CodeProfile | None = None) -> dict:
    """The flat JSON report: profile numbers, localities, and the four
    optimality flags for the code and its dual.  A caller that has already
    classified G passes its `profile`, and the code is not classified again."""
    if profile is None:
        profile = classify(G, distribution)
    loc = locality_report(G)
    out = {
        "n": profile.n,
        "k": profile.k,
        "d": profile.d,
        "r_primal": loc.r_primal,
        "r_dual": loc.r_dual,
        "d_optimal": None,
        "k_optimal": None,
        "dual_d_optimal": None,
        "dual_k_optimal": None,
        "supports": [list(t) for t in loc.supports],
        "remark": loc.remark,
    }
    if loc.r_primal is not None:
        primal = bound_verdict(profile.n, profile.k, profile.d, loc.r_primal)
        out["d_optimal"] = primal.d_optimal
        out["k_optimal"] = primal.k_optimal
        out["singleton_like_rhs"] = primal.singleton_like_rhs
        out["cm_rhs"] = primal.cm_rhs
    if loc.r_dual is not None and profile.d_dual is not None:
        dual = bound_verdict(profile.n, profile.n - profile.k, profile.d_dual, loc.r_dual)
        out["dual_d_optimal"] = dual.d_optimal
        out["dual_k_optimal"] = dual.k_optimal
        out["dual_singleton_like_rhs"] = dual.singleton_like_rhs
        out["dual_cm_rhs"] = dual.cm_rhs
    return out
