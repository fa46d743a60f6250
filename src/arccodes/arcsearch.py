"""Backtracking extension of arcs to larger (n,3)-arcs in PG(2,q).

A state is an ordered point list, a per-line multiplicity counter and the
set of open candidates, held as one int with a bit per index of
`_Plane.points`.  Adding a point raises the q+1 lines through it (O(q) per
node); each line that reaches 3 chosen points is full, and its points leave
the candidates in one `cands & ~kill`, where `kill` ORs the bit masks of the
lines that just filled.  A line's mask is built the first time it fills,
and only for the one search.  The DFS takes candidates by lowest set bit,
so it enumerates supersets in lexicographic candidate order (each set is
visited once and runs are reproducible); greedy-restart runs seeded random
greedy completions in turn, refusing any point on a full line, and keeps the
best.  Both are anytime: the best arc so far survives budget exhaustion.
Under node budgets runs are bit-deterministic for a fixed seed; under a
wall-clock budget they are not.
"""

import time
import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .field import GF, make_field
from . import geometry
from .codes import GeneratorMatrix, classify, CodeProfile, weight_distribution


@dataclass
class SearchStats:
    found_n: int
    nodes: int
    restarts: int
    prunes: int  # DFS levels cut by the size bound
    seed: int
    elapsed_ms: int
    strategy: str
    budget_exhausted: bool
    arc: list = dc_field(default_factory=list)

    def to_dict(self, F: GF):
        return {
            "found_n": self.found_n,
            "nodes": self.nodes,
            "restarts": self.restarts,
            "prunes": self.prunes,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
            "strategy": self.strategy,
            "budget_exhausted": self.budget_exhausted,
            "arc": [geometry.point_to_str(F, p) for p in self.arc],
        }


class _Plane:
    """Cached incidence scaffolding for one field."""

    def __init__(self, F: GF):
        self.F = F
        self.lines = geometry.all_lines(F)
        self.line_index = {u: i for i, u in enumerate(self.lines)}
        self.points = self.lines  # geometry.all_lines is all_points
        # the q+1 points of each coordinate line X_i = 0
        self.axes = [[p for p in self.points if p[i] == 0] for i in range(3)]
        self._pencils: dict[tuple, tuple[int, ...]] = {}

    def pencil(self, point) -> tuple[int, ...]:
        """Indices of the q+1 lines through a canonical, checked point, sorted:
        the lines joining it to the points of a coordinate line X_i = 0 that
        misses it, on the field's unchecked kernel."""
        cached = self._pencils.get(point)
        if cached is None:
            K, index = self.F.kernel, self.line_index
            axis = self.axes[next(i for i, c in enumerate(point) if c)]
            cached = tuple(sorted(index[geometry.join(K, point, r)] for r in axis))
            self._pencils[point] = cached
        return cached


_plane = lru_cache(maxsize=None)(_Plane)


def line_multiplicities(F: GF, points) -> list[int]:
    """Per-line point counts, indexed like geometry.all_lines(F)."""
    plane = _plane(F)
    mult = [0] * len(plane.lines)
    for p in points:
        for li in plane.pencil(geometry.canonical(F, p)):
            mult[li] += 1
    return mult


class _Budget:
    """Node and time limits and the target size of one search."""

    def __init__(self, max_nodes, max_seconds, target_size):
        self.max_nodes = max_nodes
        self.deadline = None if max_seconds is None else time.monotonic() + max_seconds
        self.target_size = target_size
        self.nodes = 0
        self.exhausted = False

    def done(self, best) -> bool:
        """True once a node was refused or `best` reaches the target size."""
        return self.exhausted or (self.target_size is not None and len(best) >= self.target_size)

    def spend(self, best) -> bool:
        """Let one more node through and count it, or refuse it."""
        if self.done(best):
            return False
        if (self.max_nodes is not None and self.nodes >= self.max_nodes) or (
            self.deadline is not None and time.monotonic() >= self.deadline
        ):
            self.exhausted = True
            return False
        self.nodes += 1
        return True


class _LineMasks(dict):
    """Line index -> the line's points as bits over point indices, built on
    first use.  The points of a line are the pencil of the point with the
    line's coordinates, since points and lines share one list."""

    def __init__(self, plane: _Plane):
        super().__init__()
        self.plane = plane

    def __missing__(self, li: int) -> int:
        mask = self[li] = sum(1 << i for i in self.plane.pencil(self.plane.points[li]))
        return mask


STRATEGIES = ("dfs", "greedy-restart")


def extend_to_n3_arc(F: GF, base, strategy: str = "dfs", max_nodes: int | None = None,
                     max_seconds: float | None = None, target_size: int | None = None,
                     seed: int = 0, restarts: int = 64, workers: int = 1):
    """Grow `base` into the largest (n,3)-arc found.

    Returns (points, SearchStats).  The base must already satisfy the
    no-4-on-a-line condition.  `max_nodes` bounds the points tried and
    `max_seconds` the wall time (None: no limit).  DFS is deterministic and
    complete given enough budget; greedy-restart is deterministic for a fixed
    seed.  The search is sequential: `workers` must be 1.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    for name, value in (("max_nodes", max_nodes), ("restarts", restarts)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if max_seconds is not None and not max_seconds > 0:
        raise ValueError(f"max_seconds must be positive, got {max_seconds}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    base_pts = geometry.validate_point_set(F, base)
    plane = _plane(F)
    points, pencil = plane.points, plane.pencil
    mult = line_multiplicities(F, base_pts)
    if any(c > 3 for c in mult):
        raise ValueError("base set has four points on a line")

    masks = _LineMasks(plane)

    def add(p, counts) -> int:
        """Raise the counts of the lines through p; return the points of
        the lines that just filled, which no longer extend the arc."""
        kill = 0
        for li in pencil(p):
            counts[li] += 1
            if counts[li] == 3:
                kill |= masks[li]
        return kill

    dead = 0  # points on a line the base fills
    for li, c in enumerate(mult):
        if c == 3:
            dead |= masks[li]
    taken = sum(1 << plane.line_index[p] for p in base_pts)
    candidates = ((1 << len(points)) - 1) & ~(dead | taken)

    budget = _Budget(max_nodes, max_seconds, target_size)
    best = list(base_pts)
    start = time.monotonic()

    def record(pts):  # larger wins; among equal sizes, lexicographically smaller
        nonlocal best
        if len(pts) > len(best) or (len(pts) == len(best) and pts < best):
            best = list(pts)

    done_restarts = prunes = 0
    if strategy == "dfs":
        def dfs(chosen, cands, remaining):
            nonlocal prunes
            while cands:
                if len(chosen) + remaining <= len(best):
                    prunes += 1
                    return
                if not budget.spend(best):
                    return
                low = cands & -cands  # lowest set bit: lexicographic order
                cands ^= low
                remaining -= 1
                p = points[low.bit_length() - 1]
                chosen.append(p)
                child = cands & ~add(p, mult)
                record(chosen)
                dfs(chosen, child, child.bit_count())
                chosen.pop()
                for li in pencil(p):
                    mult[li] -= 1

        dfs(list(base_pts), candidates, candidates.bit_count())
        del dfs  # it calls itself: drop the cycle so the masks go now, not at a later gc
    else:
        indices = [i for i in range(len(points)) if candidates >> i & 1]
        while done_restarts < restarts and not budget.done(best):
            order = list(indices)
            random.Random(seed * 1_000_003 + done_restarts).shuffle(order)
            local_mult = list(mult)
            local_dead = dead
            pts = list(base_pts)
            for i in order:
                if not budget.spend(best):
                    break
                if not local_dead >> i & 1:
                    pts.append(points[i])
                    local_dead |= add(points[i], local_mult)
            done_restarts += 1
            record(pts)

    stats = SearchStats(
        found_n=len(best),
        nodes=budget.nodes,
        restarts=done_restarts,
        prunes=prunes,
        seed=seed,
        elapsed_ms=int((time.monotonic() - start) * 1000),
        strategy=strategy,
        budget_exhausted=budget.exhausted,
        arc=list(best),
    )
    return list(best), stats


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
