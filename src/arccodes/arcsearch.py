"""Backtracking extension of arcs to larger (n,3)-arcs in PG(2,q).

Points and lines share one index list (`_Plane.points`), and every set of
either is one Python int with a bit per index.  A state is an ordered point
list, the open candidates, and the line counts as two ints: `one`, the lines
holding at least one chosen point, and `two`, those holding at least two.
Adding point i with pencil mask P finds the lines it fills as `two & P`,
then sets `two |= one & P` and `one |= P`; no per-line counter is raised,
and the DFS hands the new ints to the child, so nothing is undone on return.
The points of the filled lines leave the candidates in one `cands & ~kill`.
Most kills come from the base's own two-point lines, which are the same at
every node, so `kill` is the candidate's cached `base_kill` ORed with the
masks of only those lines through it that reached two points in the search.
Both are built on first use: a pencil mask by solving the equation of the
line with the point's coordinates for one coordinate, one or two kernel
operations and an index lookup per point, kept with the cached plane of the
last field searched for later searches over it, and a base kill for one
search only.  The DFS takes candidates by lowest set bit, so it enumerates
supersets in lexicographic candidate order (each set is visited once and
runs are reproducible), and does the step above and the best-so-far check
in its own loop; greedy-restart runs seeded random greedy completions in
turn, refusing any point on a full line, and keeps the best.  Both are
anytime: the best arc so far survives budget exhaustion.  Under node budgets
runs are bit-deterministic for a fixed seed; under a wall-clock budget they
are not.
"""

import time
import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .field import GF
from . import geometry


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
        return {**vars(self), "arc": [geometry.point_to_str(F, p) for p in self.arc]}


class _Plane:
    """The points of one field's plane and, built on first use, masks[i]:
    the lines through point i as a bitset.  Points and lines share one
    index list, so masks[i] is also the set of points on line i, and it is
    built as that set, from the line's equation."""

    def __init__(self, F: GF):
        self.points = points = geometry.all_points(F)
        self.index = index = {u: i for i, u in enumerate(points)}
        add, sub, mul, inv = F.kernel
        xs = range(F.q)

        def mask(i):
            """The q+1 points of line i, ax + by + cz = 0, solved for one
            coordinate: q with z = 1 and one with z = 0, except on z = 0."""
            a, b, c = points[i]
            if not c and not b:  # (1,0,0): x = 0
                on = [(0, y, 1) for y in xs] + [(0, 1, 0)]
            elif not c:  # (a,1,0): y = sx, s = -a
                s = sub(0, a)
                on = [(x, mul(s, x), 1) for x in xs] + [(inv(s), 1, 0) if a else (1, 0, 0)]
            elif b:  # (a,b,1): y = s + tx, s = -1/b, t = as = -a/b
                s = sub(0, inv(b))
                t = mul(a, s)
                on = [(x, add(s, mul(t, x)), 1) for x in xs] + [(inv(t), 1, 0) if a else (1, 0, 0)]
            elif a:  # (a,0,1): x = -1/a
                s = sub(0, inv(a))
                on = [(s, y, 1) for y in xs] + [(0, 1, 0)]
            else:  # (0,0,1): z = 0
                on = [(x, 1, 0) for x in xs] + [(1, 0, 0)]
            out = 0
            for p in on:
                out |= 1 << index[p]
            return out
        self.masks = _Lazy(mask)


_plane = lru_cache(maxsize=1)(_Plane)  # the last field searched keeps its masks


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


class _Lazy(dict):
    """A table whose entry for a key is `build(key)`, made on first lookup."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _union(masks, bits: int) -> int:
    """The OR of masks[b] over the set bits b of `bits`."""
    out = 0
    while bits:
        low = bits & -bits
        out |= masks[low.bit_length() - 1]
        bits ^= low
    return out


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
    for name, value in (("max_nodes", max_nodes), ("restarts", restarts),
                        ("target_size", target_size)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if max_seconds is not None and not max_seconds > 0:
        raise ValueError(f"max_seconds must be positive, got {max_seconds}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    base_pts = geometry.validate_point_set(F, base)
    plane = _plane(F)
    points, index, masks = plane.points, plane.index, plane.masks

    base_one = base_two = base_three = 0  # lines holding >= 1, >= 2, >= 3 base points
    for p in base_pts:
        P = masks[index[p]]
        if base_three & P:
            raise ValueError("base set has four points on a line")
        base_three |= base_two & P
        base_two |= base_one & P
        base_one |= P
    dead = _union(masks, base_three)  # points on a line the base fills
    taken = sum(1 << index[p] for p in base_pts)
    candidates = ((1 << len(points)) - 1) & ~(dead | taken)
    # candidate i -> the points of the base's two-point lines through i
    base_kill = _Lazy(lambda i: _union(masks, base_two & masks[i]))

    def add(i, one, two):
        """Add candidate i to the lines holding >= 1 and >= 2 chosen points;
        return the points that no longer extend the arc and the new (one,
        two).  `two` starts empty: the base's two-point lines through i are
        in base_kill[i], and once i is added no candidate is left on them."""
        P = masks[i]
        return base_kill[i] | _union(masks, two & P), one | P, two | (one & P)

    budget = _Budget(max_nodes, max_seconds, target_size)
    best = list(base_pts)
    start = time.monotonic()

    def record(pts):  # larger wins; among equal sizes, lexicographically smaller
        nonlocal best
        if len(pts) > len(best) or (len(pts) == len(best) and pts < best):
            best = list(pts)

    done_restarts = prunes = 0
    if strategy == "dfs":
        best_n = len(best)

        def dfs(chosen, cands, remaining, one, two):
            # `add` and `record` in line.  The DFS visits the sets of one size
            # in lexicographic order, so only a larger set replaces `best`.
            nonlocal best, best_n, prunes
            while cands:
                if len(chosen) + remaining <= best_n:
                    prunes += 1
                    return
                if not budget.spend(best):
                    return
                low = cands & -cands  # lowest set bit: lexicographic order
                cands ^= low
                remaining -= 1
                i = low.bit_length() - 1
                P = masks[i]
                kill = base_kill[i]
                filled = two & P
                while filled:
                    line = filled & -filled
                    kill |= masks[line.bit_length() - 1]
                    filled ^= line
                chosen.append(points[i])
                if len(chosen) > best_n:
                    best = list(chosen)
                    best_n = len(best)
                child = cands & ~kill
                dfs(chosen, child, child.bit_count(), one | P, two | (one & P))
                chosen.pop()

        dfs(list(base_pts), candidates, candidates.bit_count(), base_one, 0)
        del dfs  # it calls itself: drop the cycle so base_kill goes now, not at a later gc
    else:
        indices = [i for i in range(len(points)) if candidates >> i & 1]
        while done_restarts < restarts and not budget.done(best):
            order = list(indices)
            random.Random(seed * 1_000_003 + done_restarts).shuffle(order)
            local_dead, local_one, local_two = dead, base_one, 0
            pts = list(base_pts)
            for i in order:
                if not budget.spend(best):
                    break
                if not local_dead >> i & 1:
                    pts.append(points[i])
                    kill, local_one, local_two = add(i, local_one, local_two)
                    local_dead |= kill
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
