"""Span tracing of arccodes from outside the package.

`Tracer.install` replaces coarse public functions of the package's modules
with wrappers that record a span per call: name, start, end and the index of
the enclosing span.  A function is replaced under every name it is bound to
in any arccodes module, so calls through `from .codes import classify` in
`lrc` are traced too.  Per-element helpers (`GF.add`, `geometry.incident`,
`opoly.evaluate`, ...) are left alone; their work is reported as counts
computed from the arguments of the coarse call instead.

Spans stay in memory; `layer_metrics` folds them into per-layer self times
(a span's duration minus its direct children's) once the traced pass ends.
"""

import contextlib
import functools
import sys
import time


def _lines(F) -> int:
    return F.q * F.q + F.q + 1


def _enumerate_counts(G, *args, **kwargs):
    q = G.field.q
    return {"codes.codewords": (q ** G.k - 1) // (q - 1)}


def _supports_counts(G, *args, **kwargs):
    return {"codes.column_pairs": G.n * (G.n - 1) // 2}


def _profile_counts(F, points, *args, **kwargs):
    lines = _lines(F)
    return {"geometry.lines_scanned": lines,
            "geometry.incidence_tests": lines * len(points)}


def _census_counts(kind, F, *args, **kwargs):
    return {"construct.census_pairs": (F.q - 1) ** 2}


# module -> function -> (span name, count function or None).  The span name
# is the layer metric that the call's self time is added to.
TRACED = {
    "field": {
        "make_field": ("field.setup_s", None),
        "field_from_order": ("field.setup_s", None),
    },
    "opoly": {
        "applicable_families": ("opoly.busy_s", None),
        "is_o_polynomial": ("opoly.busy_s", None),
    },
    "construct": {
        "valid_v_set": ("construct.build_s", None),
        "valid_w_set": ("construct.build_s", None),
        "build_even_matrix": ("construct.build_s", None),
        "build_odd_matrix": ("construct.build_s", None),
        "even_closed_form": ("construct.build_s", None),
        "odd_closed_form": ("construct.build_s", None),
        "solution_count_census": ("construct.census_s", _census_counts),
    },
    "codes": {
        "weight_distribution": ("codes.enumerate_s", _enumerate_counts),
        "classify": ("codes.classify_s", None),
        "min_weight_supports": ("codes.supports_s", _supports_counts),
    },
    "geometry": {
        "line_intersection_profile": ("geometry.profile_s", _profile_counts),
        "is_arc": ("geometry.profile_s", None),
        "is_n3_arc": ("geometry.profile_s", None),
    },
    "lrc": {
        "lrc_report": ("lrc.report_s", None),
        "locality_report": ("lrc.report_s", None),
        "bound_verdict": ("lrc.report_s", None),
    },
    "arcsearch": {
        "extend_to_n3_arc": ("arcsearch", None),
    },
    "cli": {
        "main": ("cli.verify_paper_s", None),
    },
}

# Spans the benchmark itself opens around jobs and phases.
JOB = "job:"
SETUP_PHASE = "phase:arcsearch-setup"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.calls: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body of the `with` statement."""
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            if count is not None:
                for key, value in count(*args, **kwargs).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        """Patch every binding of each traced function in loaded arccodes
        modules.  Call once, after `import arccodes`, in a throwaway process."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "arccodes" or key.startswith("arccodes."))]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"arccodes.{mod_name}"]
            for attr, (name, count) in funcs.items():
                original = getattr(home, attr)
                wrapper = self._wrap(original, name, count)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def self_times(self) -> list[float]:
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def _enclosing(self, idx: int, prefix: str) -> str | None:
        idx = self.spans[idx][3]
        while idx >= 0:
            name = self.spans[idx][0]
            if name.startswith(prefix):
                return name
            idx = self.spans[idx][3]
        return None

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer metric.  Arc-search spans are split into set-up
        (inside the benchmark's warm-up phase) and node loop, overall and per
        job."""
        out: dict[str, float] = {}
        for idx, own in enumerate(self.self_times()):
            name = self.spans[idx][0]
            if name.startswith(JOB) or name.startswith("phase:"):
                continue
            if name == "arcsearch":
                part = "setup_s" if self._enclosing(idx, SETUP_PHASE) else "loop_s"
                job = (self._enclosing(idx, JOB) or JOB + "other")[len(JOB):]
                keys = (f"arcsearch.{part}", f"arcsearch.{job}.{part}")
            else:
                keys = (name,)
            for key in keys:
                out[key] = out.get(key, 0.0) + own
        return out
