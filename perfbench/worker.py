"""One pass of one workload, in a fresh interpreter.

    python3 -I perfbench/worker.py --workload sweep --seed 1 --mode plain

Modes: `setup` imports arccodes, builds the workload's fields and stops;
`plain` then runs the workload's jobs back to back and checks them;
`traced` does the same with the span tracer installed.  A `setup` run under
`python3 -X tracemalloc` also reports the traced peak of that set-up.
The last line of stdout is one JSON object for perfbench/run.py.

The jobs call the library through module attributes (`codes.classify`, not
a bound name) so that the tracer's replacements are seen.
"""

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from arccodes import arcsearch, cli, codes, construct, field, geometry, lrc, opoly  # noqa: E402

import oracle  # noqa: E402
from tracer import JOB, SETUP_PHASE, Tracer  # noqa: E402

# sweep: the paper's family sweep.  q=32 has 10 families x 16 admissible v;
# two seed-chosen v per family keep a pass near 6 s.
EVEN_SWEEP = (4, 8, 16, 32)
ODD_SWEEP = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27)
SAMPLED_Q, V_PER_FAMILY = 32, 2
# large-q: enumeration on the XOR field 2^8 and the flat-table field 3^5,
# the census on checked add/mul, and locality on 521, the first odd q above
# the 512 limit of the flat addition table (digit arithmetic).
ENUM_EVEN_Q, ENUM_ODD_Q, CENSUS_EVEN_Q, CENSUS_ODD_Q, LOCALITY_Q = 256, 243, 64, 61, 521
# search: DFS from every hyperoval family at q=32, greedy from the conic at q=31.
DFS_Q, DFS_NODES = 32, 10_000
GREEDY_Q, GREEDY_RESTARTS = 31, 16

FIELDS = {
    "sweep": EVEN_SWEEP + ODD_SWEEP,
    "large-q": (ENUM_EVEN_Q, ENUM_ODD_Q, CENSUS_EVEN_Q, CENSUS_ODD_Q, LOCALITY_Q),
    "search": (DFS_Q, GREEDY_Q),
}


@dataclass
class Record:
    kind: str
    label: str
    seconds: float
    out: object
    error: str | None


REFERENCE_EVERY_S = 0.1


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of about 5 ms (list indexing,
    integer arithmetic, dict stores, like the library's inner loops)."""
    t0 = time.perf_counter()
    table, seen, acc = list(range(256)), {}, 0
    for i in range(25_000):
        acc ^= table[(i * 7) & 255] + i % 13
        seen[i & 63] = acc
    return time.perf_counter() - t0


class Jobs:
    """Closed loop: each job starts when the previous one has returned.

    Between jobs, at most every REFERENCE_EVERY_S, the reference loop is
    timed outside the jobs' clocks.  The speed of the machines this runs on
    drifts by up to a third over tens of seconds, so `wall_ref`, each job's
    time divided by the mean of the reference timings just before and after
    it, varies far less between runs than the raw wall time does."""

    def __init__(self, span):
        self.span = span
        self.records: list[Record] = []
        self.wall_ref = 0.0
        self._unreferenced = 0.0
        self._last_ref = reference_loop()
        self._last_at = time.perf_counter()

    def run(self, kind: str, label: str, fn, *args):
        t0 = time.perf_counter()
        out, error = None, None
        try:
            with self.span(JOB + kind):
                out = fn(*args)
        except Exception as exc:  # a raising job is a failed job; keep going
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        self.records.append(Record(kind, label, seconds, out, error))
        self._unreferenced += seconds
        if time.perf_counter() - self._last_at >= REFERENCE_EVERY_S:
            self.reference()
        return out

    def reference(self):
        """Time the reference loop and charge the jobs since the last one."""
        ref = reference_loop()
        self.wall_ref += self._unreferenced / ((self._last_ref + ref) / 2)
        self._unreferenced = 0.0
        self._last_ref, self._last_at = ref, time.perf_counter()


def pick(values, u: float):
    """The seed's choice among admissible values."""
    ordered = sorted(values)
    return ordered[int(u * len(ordered))]


# -- sweep ------------------------------------------------------------------

def even_admissible(F):
    return F, [(f, sorted(construct.valid_v_set(f))) for f in opoly.applicable_families(F)]


def odd_admissible(F):
    return F, sorted(construct.valid_w_set(F))


def verify_code(G, closed):
    dist = codes.weight_distribution(G)
    match = dist == closed
    profile = codes.classify(G, dist)
    report = lrc.lrc_report(G, dist)
    return G, dist, closed, match, profile, report


def verify_even(f, v):
    G = construct.build_even_matrix(f, v)
    return verify_code(G, construct.even_closed_form(f.field.q))


def verify_odd(F, w):
    G = construct.build_odd_matrix(F, w)
    return verify_code(G, construct.odd_closed_form(F.q))


def verify_paper():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify-paper"])
    return rc, buf.getvalue()


def run_sweep(jobs: Jobs, seed: int, warm_up):
    rng = random.Random(seed)
    for q in EVEN_SWEEP:
        F = field.field_from_order(q)
        for f, vs in (jobs.run("admissible", f"q={q}", even_admissible, F) or (F, []))[1]:
            if q == SAMPLED_Q:
                vs = sorted(rng.sample(vs, V_PER_FAMILY))
            for v in vs:
                jobs.run("code", f"q={q} {f.descriptor()} v={v}", verify_even, f, v)
    for q in ODD_SWEEP:
        F = field.field_from_order(q)
        for w in (jobs.run("admissible", f"q={q}", odd_admissible, F) or (F, []))[1]:
            jobs.run("code", f"q={q} w={w}", verify_odd, F, w)
    jobs.run("verify-paper", "verify-paper", verify_paper)


def check_sweep(rec: Record) -> list[str]:
    if rec.kind == "code":
        G, dist, closed, match, profile, report = rec.out
        problems = oracle.nmds_code_problems(oracle.field_of(G.field), G.columns(),
                                             dist.counts, closed.counts, profile, report)
        return problems + ([] if match else ["closed-form compare returned False"])
    if rec.kind == "admissible":
        F, values = rec.out
        K = oracle.field_of(F)
        if F.p != 2:
            return [] if values == oracle.admissible_w(K) else ["admissible w differ"]
        return [f"{f.descriptor()} has {len(vs)} admissible v, expected {F.q // 2}"
                for f, vs in values if len(vs) != F.q // 2]
    if rec.kind == "verify-paper":
        rc, text = rec.out
        lines = text.splitlines()
        if rc != 0 or not lines or any(not ln.startswith("PASS") for ln in lines):
            return [f"verify-paper exited {rc}"]
    return []


# -- large-q ----------------------------------------------------------------

def translation(q):
    return opoly.make_family_opoly(field.field_from_order(q), "translation", h=1)


def enumerate_even(q, u):
    f = translation(q)
    G = construct.build_even_matrix(f, pick(construct.valid_v_set(f), u))
    dist = codes.weight_distribution(G)
    closed = construct.even_closed_form(q)
    return G, dist, closed, dist == closed


def enumerate_odd(q, u):
    F = field.field_from_order(q)
    G = construct.build_odd_matrix(F, pick(construct.valid_w_set(F), u))
    dist = codes.weight_distribution(G)
    closed = construct.odd_closed_form(q)
    return G, dist, closed, dist == closed


def census_even(q, u):
    f = translation(q)
    v = pick(construct.valid_v_set(f), u)
    return f.field, None, construct.solution_count_census("even-A1", f.field, f=f, v=v)


def census_odd(q, u):
    F = field.field_from_order(q)
    w = pick(construct.valid_w_set(F), u)
    return F, w, construct.solution_count_census("odd-B1", F, w=w)


def locality_odd(q, u):
    F = field.field_from_order(q)
    G = construct.build_odd_matrix(F, pick(construct.valid_w_set(F), u))
    return G, lrc.locality_report(G)


def run_large_q(jobs: Jobs, seed: int, warm_up):
    u = random.Random(seed).random
    jobs.run("enumerate", f"q={ENUM_EVEN_Q} even", enumerate_even, ENUM_EVEN_Q, u())
    jobs.run("enumerate", f"q={ENUM_ODD_Q} odd", enumerate_odd, ENUM_ODD_Q, u())
    jobs.run("census", f"even-A1 q={CENSUS_EVEN_Q}", census_even, CENSUS_EVEN_Q, u())
    jobs.run("census", f"odd-B1 q={CENSUS_ODD_Q}", census_odd, CENSUS_ODD_Q, u())
    jobs.run("locality", f"q={LOCALITY_Q}", locality_odd, LOCALITY_Q, u())


def check_large_q(rec: Record) -> list[str]:
    if rec.kind == "enumerate":
        G, dist, closed, match = rec.out
        K = oracle.field_of(G.field)
        lines = oracle.rich_lines(K, G.columns())
        problems = [] if match else ["closed-form compare returned False"]
        if list(dist.counts) != oracle.distribution_from_lines(K.q, G.n, lines):
            problems.append("enumerated distribution differs from the line profile")
        if list(closed.counts) != oracle.closed_form(K.q):
            problems.append("library closed form differs from the paper's")
        return problems
    if rec.kind == "census":
        F, w, result = rec.out
        return oracle.census_problems(oracle.field_of(F), result.kind, result.counts,
                                      result.diagonal_ok, w)
    G, rep = rec.out
    K = oracle.field_of(G.field)
    return oracle.locality_problems(K.q, G.n, oracle.rich_lines(K, G.columns()),
                                    rep.supports, (rep.r_primal, rep.r_dual))


# -- search -----------------------------------------------------------------

def dfs(F, f, warm_up):
    base = geometry.hyperoval_from_opoly(f)
    if warm_up is not None:
        warm_up(F, base)
    pts, stats = arcsearch.extend_to_n3_arc(F, base, strategy="dfs", max_nodes=DFS_NODES,
                                            max_seconds=None, workers=1)
    return F, base, pts, stats


def greedy(F, seed, warm_up):
    base = geometry.standard_oval(F)
    if warm_up is not None:
        warm_up(F, base)
    pts, stats = arcsearch.extend_to_n3_arc(F, base, strategy="greedy-restart",
                                            restarts=GREEDY_RESTARTS, seed=seed,
                                            max_seconds=None, workers=1)
    return F, base, pts, stats


def run_search(jobs: Jobs, seed: int, warm_up):
    F = field.field_from_order(DFS_Q)
    families = list(jobs.run("admissible", f"q={DFS_Q}", opoly.applicable_families, F) or [])
    random.Random(seed).shuffle(families)
    for i, f in enumerate(families):
        jobs.run("dfs", f.descriptor(), dfs, F, f, warm_up if i == 0 else None)
    jobs.run("greedy", f"q={GREEDY_Q}", greedy, field.field_from_order(GREEDY_Q), seed, warm_up)


def check_search(rec: Record) -> list[str]:
    if rec.kind not in ("dfs", "greedy"):
        return []
    F, base, pts, stats = rec.out
    K = oracle.field_of(F)
    if rec.kind == "dfs":
        return oracle.arc_problems(K, base, pts, stats.nodes, DFS_NODES)
    # every restart visits each of the q^2 points off the conic once
    budget = GREEDY_RESTARTS * F.q * F.q
    problems = oracle.arc_problems(K, base, pts, stats.nodes, budget)
    if (stats.restarts, stats.nodes) != (GREEDY_RESTARTS, budget):
        problems.append(f"{stats.restarts} restarts and {stats.nodes} nodes, "
                        f"expected {GREEDY_RESTARTS} and {budget}")
    return problems


WORKLOADS = {
    "sweep": (run_sweep, check_sweep),
    "large-q": (run_large_q, check_large_q),
    "search": (run_search, check_search),
}


def work_done(workload: str, records: list[Record]) -> tuple[int, dict]:
    """Units of work for codes_per_s (codes verified) or nodes_per_s (search
    nodes), and the largest arc each search strategy found."""
    if workload != "search":
        return sum(r.kind in ("code", "enumerate", "locality") for r in records), {}
    found: dict[str, int] = {}
    nodes = 0
    for r in records:
        if r.kind in ("dfs", "greedy") and r.out is not None:
            stats = r.out[3]
            nodes += stats.nodes
            found[r.kind] = max(found.get(r.kind, 0), stats.found_n)
    return nodes, found


def layer_metrics(tracer: Tracer, records: list[Record]) -> dict:
    out = tracer.layer_metrics()
    out.update(tracer.counts)
    out["opoly.calls"] = tracer.calls.get("opoly.busy_s", 0)
    out["codes.classify_calls"] = tracer.calls.get("codes.classify_s", 0)
    searches = [r.out[3] for r in records if r.kind in ("dfs", "greedy") and r.out]
    out["arcsearch.nodes"] = sum(s.nodes for s in searches)
    out["arcsearch.restarts"] = sum(s.restarts for s in searches)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    for q in FIELDS[args.workload]:
        field.field_from_order(q)
    result = {"mode": args.mode, "setup_done": time.monotonic()}
    if tracemalloc.is_tracing():
        result["peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    run, check = WORKLOADS[args.workload]
    warm_up = None
    if tracer is not None:
        def warm_up(F, base):
            # builds the per-field plane and pencil cache, timed on its own
            with tracer.span(SETUP_PHASE):
                arcsearch.extend_to_n3_arc(F, base, max_nodes=1, max_seconds=None)

    jobs = Jobs(tracer.span if tracer is not None else lambda name: contextlib.nullcontext())
    run(jobs, args.seed, warm_up)
    jobs.reference()
    wall = sum(rec.seconds for rec in jobs.records)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, jobs.records)
        result["spans"] = tracer.spans

    problems = []
    failed = 0
    for rec in jobs.records:
        try:
            found = [rec.error] if rec.error else check(rec)
        except Exception as exc:  # a check that cannot run is a failed check
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems += [f"{rec.kind} {rec.label}: {p}" for p in found]
    work, found_n = work_done(args.workload, jobs.records)
    result.update(
        wall_s=wall,
        wall_ref=jobs.wall_ref,
        jobs=[[r.kind, r.label, r.seconds] for r in jobs.records],
        attempted=len(jobs.records),
        failed=failed,
        problems=problems[:20],
        work=work,
        found_n=found_n,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
