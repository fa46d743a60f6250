"""Backtracking extension of arcs to larger (n,3)-arcs in PG(2,q).

A state is an ordered point list plus a per-line multiplicity counter;
adding a point increments the q+1 lines through it (O(q) per node), and any
candidate lying on a line that already holds 3 chosen points is pruned.
The DFS enumerates supersets in lexicographic candidate order (so each set
is visited once and runs are reproducible); greedy-restart does seeded
random greedy completions and keeps the best.  Both are anytime: the best
arc so far survives budget exhaustion.  Runs are bit-deterministic for a
fixed seed under node budgets with one worker; wall-clock budgets and
concurrent restarts trade that for responsiveness (the merge itself stays
order-independent).
"""

import time
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

from .field import GF, make_field
from . import geometry
from .codes import GeneratorMatrix, classify, CodeProfile, weight_distribution


@dataclass
class SearchStats:
    found_n: int
    nodes: int
    restarts: int
    seed: int
    elapsed_ms: int
    strategy: str
    budget_exhausted: bool
    arc: list = dc_field(default_factory=list)

    def to_dict(self, F: GF | None = None):
        return {
            "found_n": self.found_n,
            "nodes": self.nodes,
            "restarts": self.restarts,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
            "strategy": self.strategy,
            "budget_exhausted": self.budget_exhausted,
            "arc": [
                geometry.point_to_str(F, p) if F else list(p) for p in self.arc
            ],
        }


class _Plane:
    """Cached incidence scaffolding for one field."""

    def __init__(self, F: GF):
        self.F = F
        self.lines = geometry.all_lines(F)
        self.line_index = {u: i for i, u in enumerate(self.lines)}
        self.points = geometry.all_points(F)
        # the q+1 points of each coordinate line X_i = 0
        self.axes = [[p for p in self.points if p[i] == 0] for i in range(3)]
        self._pencils: dict[tuple, tuple[int, ...]] = {}

    def pencil(self, point) -> tuple[int, ...]:
        """Indices of the q+1 lines through a point, sorted: the lines joining
        it to the points of a coordinate line X_i = 0 that misses it."""
        cached = self._pencils.get(point)
        if cached is None:
            F, index = self.F, self.line_index
            axis = self.axes[next(i for i, c in enumerate(point) if c)]
            cached = tuple(sorted(index[geometry.line_through(F, point, r)] for r in axis))
            self._pencils[point] = cached
        return cached


_planes: dict[GF, _Plane] = {}


def _plane(F: GF) -> _Plane:
    plane = _planes.get(F)
    if plane is None:
        plane = _Plane(F)
        _planes[F] = plane
    return plane


def line_multiplicities(F: GF, points) -> list[int]:
    """Per-line point counts, indexed like geometry.all_lines(F)."""
    plane = _plane(F)
    mult = [0] * len(plane.lines)
    for p in points:
        for li in plane.pencil(geometry.canonical(F, p)):
            mult[li] += 1
    return mult


class _Budget:
    def __init__(self, max_nodes, max_seconds):
        self.max_nodes = max_nodes
        self.deadline = time.monotonic() + max_seconds if max_seconds else None
        self.nodes = 0
        self.exhausted = False

    def spend(self) -> bool:
        """Count one node; False once the budget is gone."""
        self.nodes += 1
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            self.exhausted = True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.exhausted = True
        return not self.exhausted


def extend_to_n3_arc(F: GF, base, strategy: str = "dfs", max_nodes: int | None = None,
                     max_seconds: float | None = None, target_size: int | None = None,
                     seed: int = 0, restarts: int = 64, workers: int = 1):
    """Grow `base` into the largest (n,3)-arc found.

    Returns (points, SearchStats).  The base must already satisfy the
    no-4-on-a-line condition.  DFS is deterministic and complete given
    enough budget; greedy-restart is deterministic for a fixed seed.
    """
    base_pts = geometry.validate_point_set(F, base)
    plane = _plane(F)
    mult = line_multiplicities(F, base_pts)
    if any(c > 3 for c in mult):
        raise ValueError("base set has four points on a line")

    chosen_set = set(base_pts)
    candidates = [
        p for p in plane.points
        if p not in chosen_set and all(mult[li] <= 2 for li in plane.pencil(p))
    ]

    budget = _Budget(max_nodes, max_seconds)
    best = {"points": list(base_pts)}
    start = time.monotonic()

    def better(pts) -> bool:
        cur = best["points"]
        return len(pts) > len(cur) or (len(pts) == len(cur) and pts < cur)

    def record(pts):
        if better(pts):
            best["points"] = list(pts)

    done_restarts = 0
    if strategy == "dfs":
        pencil = plane.pencil

        def dfs(chosen, cands):
            if target_size is not None and len(best["points"]) >= target_size:
                return
            for i, p in enumerate(cands):
                remaining = len(cands) - i
                if len(chosen) + remaining <= len(best["points"]):
                    return
                if not budget.spend():
                    return
                for li in pencil(p):
                    mult[li] += 1
                chosen.append(p)
                record(chosen)
                nxt = [
                    r for r in cands[i + 1:]
                    if all(mult[li] <= 2 for li in pencil(r))
                ]
                dfs(chosen, nxt)
                chosen.pop()
                for li in pencil(p):
                    mult[li] -= 1
                if budget.exhausted or (
                    target_size is not None and len(best["points"]) >= target_size
                ):
                    return

        dfs(list(base_pts), candidates)
    elif strategy == "greedy-restart":
        def one_restart(idx: int):
            rng = random.Random(seed * 1_000_003 + idx)
            order = list(candidates)
            rng.shuffle(order)
            local_mult = list(mult)
            pts = list(base_pts)
            for p in order:
                if not budget.spend():
                    break
                if all(local_mult[li] <= 2 for li in plane.pencil(p)):
                    pts.append(p)
                    for li in plane.pencil(p):
                        local_mult[li] += 1
            return pts

        indices = range(restarts)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(one_restart, indices))
        else:
            results = []
            for idx in indices:
                if budget.exhausted or (
                    target_size is not None and len(best["points"]) >= target_size
                ):
                    break
                results.append(one_restart(idx))
        done_restarts = len(results)
        # the (size, lex) criterion makes the merge order-independent
        for pts in results:
            record(pts)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    elapsed_ms = int((time.monotonic() - start) * 1000)
    pts = best["points"]
    stats = SearchStats(
        found_n=len(pts),
        nodes=budget.nodes,
        restarts=done_restarts,
        seed=seed,
        elapsed_ms=elapsed_ms,
        strategy=strategy,
        budget_exhausted=budget.exhausted,
        arc=list(pts),
    )
    return list(pts), stats


# ----------------------------------------------------------------------
# Reference fixture: a 3x15 matrix over GF(8) whose columns are a (15,3)-arc
# extending the translation hyperoval; the code is [15, 3, 12] near-MDS.
# Its length 15 = 2q-1 exceeds q + floor(2*sqrt(q)) + 1 = 14, the longest
# length reachable from elliptic curves over GF(8).
# ----------------------------------------------------------------------

_LENGTH15_ROWS = (
    "g^5 g^3 g^1 g^6 g^4 g^2 1 0 1 0 1 0 g^5 g^1 g^2",
    "g^6 g^5 g^4 g^3 g^2 g^1 1 0 0 1 1 g^5 0 g^3 1",
    "1 1 1 1 1 1 1 1 0 0 0 1 1 1 1",
)


def conclusion_matrix() -> GeneratorMatrix:
    F = make_field(2, 3)
    rows = [[F.element_from_str(tok) for tok in row.split()] for row in _LENGTH15_ROWS]
    return GeneratorMatrix(F, rows)


@dataclass(frozen=True)
class ConclusionReport:
    profile: CodeProfile
    n3_arc: bool
    hyperoval_prefix: bool
    exceeds_elliptic_bound: bool

    def ok(self) -> bool:
        return (
            self.profile.category == "NMDS"
            and (self.profile.n, self.profile.k, self.profile.d) == (15, 3, 12)
            and self.n3_arc
            and self.hyperoval_prefix
            and self.exceeds_elliptic_bound
        )


def verify_conclusion_matrix() -> ConclusionReport:
    """Check the embedded length-15 fixture end to end."""
    G = conclusion_matrix()
    F = G.field
    dist = weight_distribution(G)
    profile = classify(G, dist)
    pts = G.column_points()
    n3 = geometry.is_n3_arc(F, pts)
    prefix = pts[:10]
    hyper = (
        len(set(prefix)) == 10
        and geometry.is_arc(F, prefix)
    )
    q = F.q
    elliptic_len = q + int(2 * q ** 0.5) + 1
    return ConclusionReport(profile, n3, hyper, G.n > elliptic_len)
