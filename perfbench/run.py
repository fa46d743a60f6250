"""arccodes benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the repository root (any directory works; paths are resolved from
this file).  Each pass of a workload runs in a fresh single-threaded
interpreter (perfbench/worker.py), because a command-line user pays for
field tables and the library's caches on every invocation.  Passes repeat,
one after another, while another one still fits in --seconds.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics; the spans of the last traced pass go to perfbench/out/.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every job's output passed its check, 1 when one did not, and 2
when the run could not be made at all (for example, no arccodes source).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
WORKLOADS = ("sweep", "large-q", "search")
SETUP_PROBES = 3          # set-up-only interpreters after each pass
RUN_LIMIT_S = 170.0       # every run ends well inside three minutes
# throughput printed beside wall_s: codes verified, or search nodes, per second
RATE_NAME = {"sweep": "codes_per_s", "large-q": "codes_per_s", "search": "nodes_per_s"}

LAYER_METRICS = {
    "field.setup_s": "s",
    "opoly.busy_s": "s",
    "opoly.calls": "count",
    "construct.build_s": "s",
    "construct.census_s": "s",
    "construct.census_pairs": "count",
    "construct.census_pairs_per_s": "1/s",
    "codes.enumerate_s": "s",
    "codes.codewords": "count",
    "codes.codewords_per_s": "1/s",
    "codes.classify_s": "s",
    "codes.classify_calls": "count",
    "codes.supports_s": "s",
    "codes.column_pairs": "count",
    "geometry.profile_s": "s",
    "geometry.lines_scanned": "count",
    "geometry.incidence_tests": "count",
    "lrc.report_s": "s",
    "arcsearch.setup_s": "s",
    "arcsearch.loop_s": "s",
    "arcsearch.dfs.setup_s": "s",
    "arcsearch.dfs.loop_s": "s",
    "arcsearch.greedy.setup_s": "s",
    "arcsearch.greedy.loop_s": "s",
    "arcsearch.nodes": "count",
    "arcsearch.nodes_per_s": "1/s",
    "arcsearch.restarts": "count",
    "found_n.dfs": "count",
    "found_n.greedy": "count",
    "cli.verify_paper_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.peak_traced_mb": "MB",
}
RATES = {
    "construct.census_pairs_per_s": ("construct.census_pairs", "construct.census_s"),
    "codes.codewords_per_s": ("codes.codewords", "codes.enumerate_s"),
    "arcsearch.nodes_per_s": ("arcsearch.nodes", "arcsearch.loop_s"),
}


class RunError(Exception):
    """The benchmark could not run, as opposed to a failed output check."""


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with at least ten of n
    samples beyond it."""
    p = int(100 * (1 - 10 / n)) if n > 10 else 0
    return p if p > 50 else None


def summary(values: list[float], unit: str) -> str:
    """Median, tail percentile where ten samples lie beyond it, sample count."""
    text = f"median {statistics.median(values):.6g} {unit}"
    p = tail_percentile(len(values))
    if p is not None:
        text += f"  p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g} {unit}"
    return text + f"  (n={len(values)})"


def metadata(workload: str, seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "arccodes").glob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": commit,
        "src_arccodes_lines": src_lines,
    }


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()

    def worker(self, mode: str, tracemalloc: bool = False) -> dict:
        """One fresh interpreter; adds `setup_s` measured from its spawn."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RunError("out of time before the run could finish")
        flags = ["-I"] + (["-X", "tracemalloc"] if tracemalloc else [])
        cmd = [sys.executable, *flags, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"{mode} pass did not finish within {remaining:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        out = json.loads(lines[-1])
        out["setup_s"] = out["setup_done"] - spawned
        return out

    def passes(self, seconds: float, modes: tuple[str, ...]) -> list[dict]:
        """Cycles of `modes`, one after another, while the next cycle is
        expected to end within `seconds`; at least one cycle."""
        t0 = time.monotonic()
        done = []
        while True:
            c0 = time.monotonic()
            done += [self.worker(mode) for mode in modes]
            cycle = time.monotonic() - c0
            if time.monotonic() - t0 + cycle > seconds:
                return done


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[dict], list[str]]:
    run.worker("setup")  # discarded: compiles the bytecode cache
    done = run.passes(seconds, ("plain",) + ("setup",) * SETUP_PROBES)
    passes = [p for p in done if p["mode"] == "plain"]
    setups = [p["setup_s"] for p in done]
    refs = [p["wall_ref"] for p in passes]
    walls = [p["wall_s"] for p in passes]
    rates = [p["work"] / p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    metrics = {
        "wall_ref": (statistics.median(refs), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    lines = [
        f"wall_ref      {summary(refs, 'ref')}",
        f"setup_s       {summary(setups, 's')}",
        f"peak_rss_mb   {summary(rss, 'MB')}",
        f"wall_s        {summary(walls, 's')}",
        f"{RATE_NAME[run.workload]:<13} {summary(rates, '1/s')}",
    ]
    by_kind: dict[str, list[float]] = {}
    for p in passes:
        for kind, _, sec in p["jobs"]:
            by_kind.setdefault(kind, []).append(sec * 1000)
    lines += [f"job {kind:<13} {summary(ms, 'ms')}" for kind, ms in by_kind.items()]
    for name in ("dfs", "greedy"):
        found = {p["found_n"].get(name) for p in passes}
        if found != {None}:
            lines.append(f"found_n.{name:<7} {' '.join(map(str, sorted(found)))} points")
    return metrics, passes, lines


def per_layer(run: Run, seconds: float) -> tuple[dict, list[dict], list[str]]:
    # A whole pass under tracemalloc runs 3-10x slower, which would distort
    # the layer split, so only the set-up is traced for memory.
    peak_traced_mb = run.worker("setup", tracemalloc=True)["peak_traced_mb"]
    passes = run.passes(seconds, ("plain", "traced"))
    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    samples: dict[str, list[float]] = {name: [] for name in LAYER_METRICS}
    for p in traced:
        layers = dict(p["layers"])
        for rate, (count, busy) in RATES.items():
            layers[rate] = layers.get(count, 0) / layers[busy] if layers.get(busy) else 0.0
        for name in ("dfs", "greedy"):
            layers[f"found_n.{name}"] = p["found_n"].get(name, 0)
        layers["trace.peak_traced_mb"] = peak_traced_mb
        for name in LAYER_METRICS:
            if name != "trace.overhead_ratio":
                samples[name].append(layers.get(name, 0))
    samples["trace.overhead_ratio"] = [
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain)
    ]
    metrics = {name: (statistics.median(vals), LAYER_METRICS[name])
               for name, vals in samples.items()}
    lines = [f"{name:<28} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{run.workload}-seed{run.seed}.json"
    path.write_text(json.dumps({"meta": metadata(run.workload, run.seed),
                                "spans": traced[-1]["spans"]}))
    lines.append(f"spans of the last traced pass: {path.relative_to(ROOT)}")
    return metrics, passes, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    measure = per_layer if trace else end_to_end
    metrics, passes, lines = measure(run, seconds)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"== {workload}  seed={seed}  passes={len(passes)}  trace={int(trace)}")
    print("meta " + json.dumps(metadata(workload, seed)))
    for line in lines:
        print("  " + line)
    print(f"  fail_ratio    {failed / attempted:.6g}  ({failed} of {attempted} jobs)")
    for p in passes:
        for problem in p["problems"]:
            print(f"  FAILED {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arccodes benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "arccodes" / "__init__.py").is_file():
        print(f"error: no arccodes source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
