"""Backtracking extension of arcs to larger (n,3)-arcs in PG(2,q).

Points and lines share one index list (`_Plane.points`), and every set of
either is one Python int in which index i is bit `top - i`, top = q^2+q:
the lowest index is the highest bit.  A state is the chosen points, the
open candidates, and the line counts as two ints: `one`, the lines holding
at least one chosen point, and `two`, those holding at least two.  Adding
point i with pencil mask P finds the lines it fills as `two & P`, then sets
`two |= one & P` and `one |= P`; no per-line counter is raised.  The DFS is
one loop over plain locals, and its path is an explicit list: each entry is
a point taken and the parent's state after taking it.  A child that passes
the size bound is pushed, and a level whose candidates run out or are cut
pops its parent's state back, so a run's whole state is the path, the best
arc so far and the counters.  The DFS takes the lowest candidate index
next, so it visits supersets in lexicographic order, each once:
`cands.bit_length()` finds its bit and `cands ^= 1 << b` clears it.  Every
candidate left lies below that bit, so the candidate ints narrow as the
search goes deeper, and an `&` of two positive ints costs the length of the
shorter one.  The child's candidates are `cands & keep[i]`, every operand
positive: keep[i] is every point off the base's two-point lines through i,
which are the same at every node.  Then each line through i that reached
two points in the search leaves the child by `child ^= child & mask`.  The
size bound is a running count: `left`, the chosen points plus the open
candidates, is counted when a child is pushed and falls by one per node.
Masks and keep are plain lists holding None until an entry is built on
first use: a pencil mask from the line's equation, one or two kernel
operations and an index lookup per point, kept with the cached plane of the
last field searched, and keep for one search only.  Greedy-restart runs
seeded random greedy completions in turn, refusing any point on a full
line, counts its nodes by the same rules, and keeps the best.  Both are
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
    point i as a bitset.  Points and lines share one index list, and index
    i is bit `top - i`, top = q^2+q, so the lowest index is the highest
    bit.  masks[i] is also the set of points on line i.  `masks` is a plain
    list holding None until `mask(i)` builds entry i, as that set, from the
    line's equation in one of three cases; the search loops read the list
    and call `mask` only on None."""

    def __init__(self, F: GF):
        self.points = points = geometry.all_points(F)
        self.index = {u: i for i, u in enumerate(points)}
        self.top = len(points) - 1
        self.masks = [None] * len(points)
        self.field = F

    def mask(self, i: int) -> int:
        """masks[i], built on first use: the q+1 points of line i,
        ax + by + cz = 0, solved for y if b != 0, else for x if a != 0 (q
        with z = 1 and one with z = 0), else z = 0."""
        out = self.masks[i]
        if out is not None:
            return out
        add, sub, mul, inv = self.field.kernel
        xs = range(self.field.q)
        a, b, c = self.points[i]
        if b:  # y = s + tx, s = -c/b, t = -a/b; at z = 0, y = tx
            r = inv(b)
            s, t = sub(0, mul(c, r)), sub(0, mul(a, r))
            on = [(x, add(s, mul(t, x)), 1) for x in xs] + [(inv(t), 1, 0) if t else (1, 0, 0)]
        elif a:  # x = -c/a; at z = 0, x = 0
            s = sub(0, mul(c, inv(a)))
            on = [(s, y, 1) for y in xs] + [(0, 1, 0)]
        else:  # z = 0
            on = [(x, 1, 0) for x in xs] + [(1, 0, 0)]
        index, top = self.index, self.top
        out = 0
        for p in on:
            out |= 1 << (top - index[p])
        self.masks[i] = out
        return out


_plane = lru_cache(maxsize=1)(_Plane)  # the last field searched keeps its masks


def _union(plane: _Plane, bits: int) -> int:
    """The OR of the masks of the set bits of `bits`."""
    masks, top = plane.masks, plane.top
    out = 0
    while bits:
        b = bits.bit_length() - 1
        out |= masks[top - b] or plane.mask(top - b)  # a mask is never 0
        bits ^= 1 << b
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
    points, index, masks, mask, top = plane.points, plane.index, plane.masks, plane.mask, plane.top

    base_one = base_two = base_three = 0  # lines holding >= 1, >= 2, >= 3 base points
    for p in base_pts:
        P = mask(index[p])
        if base_three & P:
            raise ValueError("base set has four points on a line")
        base_three |= base_two & P
        base_two |= base_one & P
        base_one |= P
    dead = _union(plane, base_three)  # points on a line the base fills
    taken = sum(1 << (top - index[p]) for p in base_pts)
    full = (1 << len(points)) - 1
    candidates = full ^ (dead | taken)
    keep = [None] * len(points)

    def keep_of(i):
        """keep[i], built on first use: every point off the base's
        two-point lines through candidate i."""
        out = keep[i]
        if out is None:
            out = keep[i] = full ^ _union(plane, base_two & mask(i))
        return out

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
        # The path is `stack`: per level, the point taken and the parent's
        # (cands, one, two, left) after taking it.  `n` counts the base and
        # the path, and `left` is n + cands.bit_count(), kept in step as each
        # node takes a candidate.  The loop top runs the same tests at every
        # level, in one order: candidates left, the size bound (a prune),
        # the stop, the budget (which sets the stop).  A level that passes
        # them takes a node; one that fails them pops back to its parent.
        # The sets of one size come in lexicographic order, so only a larger
        # set replaces `best`.  A child is pushed only if it passes its size
        # bound.
        n = best_n = len(best)
        cands, one, two = candidates, base_one, 0
        left = n + cands.bit_count()
        stack = []
        while True:
            if not cands:
                pass
            elif left <= best_n:
                prunes += 1
            elif stop:
                pass
            elif nodes == max_nodes or (deadline is not None and not nodes & 1023
                                        and time.monotonic() >= deadline):
                stop = exhausted = True
            else:
                nodes += 1
                left -= 1
                b = cands.bit_length() - 1  # highest set bit: lowest index
                cands ^= 1 << b
                i = top - b
                P = masks[i] or mask(i)  # a mask is never 0
                child = cands & (keep[i] or keep_of(i))  # keep_of also returns a cached 0
                filled = two & P
                while filled:
                    b = filled.bit_length() - 1
                    child ^= child & (masks[top - b] or mask(top - b))
                    filled ^= 1 << b
                if n >= best_n:
                    best = base_pts + [entry[0] for entry in stack] + [points[i]]
                    best_n = n + 1
                    stop = best_n >= target
                if child:
                    size = n + 1 + child.bit_count()
                    if size <= best_n:
                        prunes += 1
                    else:
                        stack.append((points[i], cands, one, two, left))
                        cands, one, two, left = child, one | P, two | (one & P), size
                        n += 1
                continue
            if not stack:
                break
            _, cands, one, two, left = stack.pop()
            n -= 1
    else:
        indices = [i for i in range(len(points)) if candidates >> (top - i) & 1]
        while done_restarts < restarts and not stop:
            order = list(indices)
            random.Random(seed * 1_000_003 + done_restarts).shuffle(order)
            open_, one, two = candidates, base_one, 0
            pts = list(base_pts)
            for i in order:
                if nodes == max_nodes or (deadline is not None and not nodes & 1023
                                          and time.monotonic() >= deadline):
                    stop = exhausted = True
                    break
                nodes += 1
                if open_ >> (top - i) & 1:
                    # `two` starts empty: the base's two-point lines through i
                    # are off its keep, and once i is added no candidate is
                    # left on them
                    pts.append(points[i])
                    P = mask(i)
                    open_ &= keep_of(i)
                    open_ ^= open_ & _union(plane, two & P)
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
