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
Both tables are plain lists holding None until an entry is built on first
use: a pencil mask by solving the equation of the line with the point's
coordinates for one coordinate, one or two kernel operations and an index
lookup per point, kept with the cached plane of the last field searched for
later searches over it, and a base kill for one search only.  The search
loops index the lists directly and call the builder only on None.  The DFS
takes candidates by lowest set bit, so it enumerates supersets in
lexicographic candidate order (each set is visited once and runs are
reproducible).  It does the step above, the best-so-far check and the node
count against `max_nodes`, the deadline and the target size in its own loop,
and tests a child's size bound before the call, so the many children that
the bound cuts at once cost no call.  Greedy-restart runs seeded random
greedy completions in turn, refusing any point on a full line, counts its
nodes by the same rules in its own loop, and keeps the best.  Both are
anytime: the best arc so far survives budget exhaustion.  Under node budgets
runs are bit-deterministic for a fixed seed; under a wall-clock budget they
are not.
"""

import math
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

    def to_dict(self, F: GF, powers: bool = False):
        return {**vars(self), "arc": [geometry.point_to_str(F, p, powers) for p in self.arc]}


class _Plane:
    """The points of one field's plane and masks[i], the lines through
    point i as a bitset.  Points and lines share one index list, so masks[i]
    is also the set of points on line i.  `masks` is a plain list holding
    None until `mask(i)` builds entry i, as that set, from the line's
    equation; the search loops read the list and call `mask` only on None."""

    def __init__(self, F: GF):
        self.points = points = geometry.all_points(F)
        self.index = {u: i for i, u in enumerate(points)}
        self.masks = [None] * len(points)
        self.field = F

    def mask(self, i: int) -> int:
        """masks[i], built on first use: the q+1 points of line i,
        ax + by + cz = 0, solved for one coordinate: q with z = 1 and one
        with z = 0, except on z = 0."""
        out = self.masks[i]
        if out is not None:
            return out
        add, sub, mul, inv = self.field.kernel
        xs = range(self.field.q)
        a, b, c = self.points[i]
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
        index = self.index
        out = 0
        for p in on:
            out |= 1 << index[p]
        self.masks[i] = out
        return out


_plane = lru_cache(maxsize=1)(_Plane)  # the last field searched keeps its masks


def _union(plane: _Plane, bits: int) -> int:
    """The OR of the masks of the set bits of `bits`."""
    masks = plane.masks
    out = 0
    while bits:
        low = bits & -bits
        j = low.bit_length() - 1
        out |= masks[j] or plane.mask(j)  # a mask is never 0
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
    points, index, masks, mask = plane.points, plane.index, plane.masks, plane.mask

    base_one = base_two = base_three = 0  # lines holding >= 1, >= 2, >= 3 base points
    for p in base_pts:
        P = mask(index[p])
        if base_three & P:
            raise ValueError("base set has four points on a line")
        base_three |= base_two & P
        base_two |= base_one & P
        base_one |= P
    dead = _union(plane, base_three)  # points on a line the base fills
    taken = sum(1 << index[p] for p in base_pts)
    candidates = ((1 << len(points)) - 1) & ~(dead | taken)
    base_kill = [None] * len(points)

    def base_kill_of(i):
        """base_kill[i], built on first use: the points of the base's
        two-point lines through candidate i."""
        kill = base_kill[i]
        if kill is None:
            kill = base_kill[i] = _union(plane, base_two & mask(i))
        return kill

    # A node is one point tried.  The search stops before a node once
    # `max_nodes` were tried or the deadline passed (exhausted), or once the
    # best arc reaches the target size.  The clock is read only before every
    # 1024th node, so a search may run up to 1023 nodes past its deadline.
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    target = math.inf if target_size is None else target_size
    best = list(base_pts)
    nodes = 0
    stop = len(best) >= target
    exhausted = False
    start = time.monotonic()

    done_restarts = prunes = 0
    if strategy == "dfs":
        best_n = len(best)

        def dfs(chosen, cands, one, two):
            # The node count, the step and the best-so-far check in line.
            # The DFS visits the sets of one size in lexicographic order, so
            # only a larger set replaces `best`.  A child's size bound is
            # tested before the call, so a pruned or empty child costs no
            # call and no append; the test at the top cuts later siblings.
            nonlocal best, best_n, prunes, nodes, stop, exhausted
            n = len(chosen)
            while cands:
                if n + cands.bit_count() <= best_n:
                    prunes += 1
                    return
                if stop:
                    return
                if nodes == max_nodes or (deadline is not None and not nodes & 1023
                                          and time.monotonic() >= deadline):
                    stop = exhausted = True
                    return
                nodes += 1
                low = cands & -cands  # lowest set bit: lexicographic order
                cands ^= low
                i = low.bit_length() - 1
                P = masks[i] or mask(i)  # a mask is never 0
                kill = base_kill[i]
                if kill is None:
                    kill = base_kill_of(i)
                filled = two & P
                while filled:
                    line = filled & -filled
                    j = line.bit_length() - 1
                    kill |= masks[j] or mask(j)
                    filled ^= line
                if n >= best_n:
                    best = chosen + [points[i]]
                    best_n = n + 1
                    stop = best_n >= target
                child = cands & ~kill
                if child:
                    if n + 1 + child.bit_count() <= best_n:
                        prunes += 1
                    else:
                        chosen.append(points[i])
                        dfs(chosen, child, one | P, two | (one & P))
                        chosen.pop()

        dfs(list(base_pts), candidates, base_one, 0)
        del dfs  # it calls itself: drop the cycle so base_kill goes now, not at a later gc
    else:
        indices = [i for i in range(len(points)) if candidates >> i & 1]
        while done_restarts < restarts and not stop:
            order = list(indices)
            random.Random(seed * 1_000_003 + done_restarts).shuffle(order)
            local_dead, one, two = dead, base_one, 0
            pts = list(base_pts)
            for i in order:
                if nodes == max_nodes or (deadline is not None and not nodes & 1023
                                          and time.monotonic() >= deadline):
                    stop = exhausted = True
                    break
                nodes += 1
                if not local_dead >> i & 1:
                    # `two` starts empty: the base's two-point lines through i
                    # are in its base kill, and once i is added no candidate
                    # is left on them
                    pts.append(points[i])
                    P = mask(i)
                    local_dead |= base_kill_of(i) | _union(plane, two & P)
                    one, two = one | P, two | (one & P)
            done_restarts += 1
            # larger wins; among equal sizes, lexicographically smaller
            if len(pts) > len(best) or (len(pts) == len(best) and pts < best):
                best = pts
            stop = stop or len(best) >= target

    stats = SearchStats(
        found_n=len(best),
        nodes=nodes,
        restarts=done_restarts,
        prunes=prunes,
        seed=seed,
        elapsed_ms=int((time.monotonic() - start) * 1000),
        strategy=strategy,
        budget_exhausted=exhausted,
        arc=list(best),
    )
    return list(best), stats
