"""In-memory span tracer for the layers of `run_test` and `verify_output`.

Timers attach by rebinding the module-level name that the *caller* looks
up, so the program's source is untouched: `pipeline.fit_sections` is
replaced by a timed wrapper, and `run_test` picks the wrapper up at call
time. `Tracer.attached` restores every original on exit, so untraced runs
in the same process pay nothing.

A span records its name, its parent span, start and end, and the error
type when the call raised. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass

# Percentiles tried for `tail_ms`, highest first; the first one with at
# least TAIL_BEYOND calls above it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Errors the solvers raise and their callers catch; each gets a counter so
# the metric set is the same on every workload.
SEED_ERRORS = ("OutOfDomainError", "DegenerateCoverError", "InsufficientGapError",
               "EscapedDomainError", "NoConvergenceError")
SOLVER_PATHS = ("warm-start", "warm-start-projected", "cutting-plane",
                "projected-gradient")

MESH_PARENT = "asdf_bundle.extract_putative_manifold"


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def current_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        span = Span(name, self._stack[-1] if self._stack else None, 0.0)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def attached(self, bindings):
        """Rebind each (module, attribute, span name, observer) while inside.

        span name may be a function of the caller's span name. observer,
        when given, is called with (counts, result) after a normal return.
        """
        saved = []
        try:
            for module, attr, name, observe in bindings:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, original, name, observe):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(tracer.current_name()) if callable(name) else name
            result = tracer.call(span_name, original, *args, **kwargs)
            if observe is not None:
                observe(tracer.counts, result)
            return result

        return traced

    # ---- summaries ----

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, per-call times, errors."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for span, self_s in zip(self.spans, selfs):
            row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                             "failed": 0, "errors": Counter(),
                                             "durations": []})
            row["calls"] += 1
            row["s"] += span.duration
            row["self_s"] += self_s
            row["durations"].append(span.duration)
            if span.error is not None:
                row["failed"] += 1
                row["errors"][span.error] += 1
        for row in out.values():
            row.update(per_call_ms(row.pop("durations")))
        return out

    def to_json(self) -> list[list]:
        return [[i, s.parent, s.name, s.start, s.end, s.error]
                for i, s in enumerate(self.spans)]


def per_call_ms(durations: list[float]) -> dict[str, float]:
    """Median and tail per-call time in ms, and the tail's percentile."""
    if not durations:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0}
    ms = sorted(1e3 * d for d in durations)

    def rank(p):  # nearest-rank percentile, 1-based
        return max(1, math.ceil(len(ms) * p / 100.0))

    pct = next((p for p in TAIL_PERCENTILES if len(ms) - rank(p) >= TAIL_BEYOND), 50.0)
    return {"p50_ms": statistics.median(ms), "tail_ms": ms[rank(pct) - 1],
            "tail_pct": pct}


# ---- the layer boundaries of run_test / verify_output ----

def _base_point_span(caller: str | None) -> str:
    part = "mesh" if caller == MESH_PARENT else "loss"
    return f"asdf_bundle.solve_base_point.{part}"


def _count_charts(counts, mesh):
    counts["asdf_bundle.mesh_charts"] += len(mesh.charts)


def _count_solver_path(counts, result):
    counts["whitney_sections.minimize_section." + result.solver.replace("-", "_")] += 1


def _count_sites(counts, model):
    sizes = [len(s.sites) for s in model.sections]
    counts["whitney_sections.sites_total"] += sum(sizes)
    counts["whitney_sections.sites_max"] = max(counts["whitney_sections.sites_max"],
                                               max(sizes, default=0))


def layer_bindings(mt):
    """(caller module, looked-up name, span name, observer) for every boundary."""
    pipeline = mt.pipeline
    asdf = mt.asdf_bundle
    whitney = mt.whitney_sections
    return (
        (pipeline, "greedy_net", "core_geometry.greedy_net", None),
        (pipeline, "estimate_tangent", "core_geometry.estimate_tangent", None),
        (pipeline, "federer_reach", "core_geometry.federer_reach", None),
        (pipeline, "ideal_packet", "asdf_bundle.ideal_packet", None),
        (pipeline, "validate_packet", "asdf_bundle.validate_packet", None),
        (pipeline, "extract_putative_manifold", MESH_PARENT, _count_charts),
        (pipeline, "fit_sections", "whitney_sections.fit_sections", _count_sites),
        (pipeline, "mfin_distance", "whitney_sections.mfin_distance", None),
        (asdf, "greedy_net", "core_geometry.greedy_net", None),
        (asdf, "solve_base_point", _base_point_span, None),
        (whitney, "minimize_section", "whitney_sections.minimize_section",
         _count_solver_path),
        (whitney, "bundle_coordinates", "asdf_bundle.bundle_coordinates", None),
        (whitney, "global_section", "whitney_sections.global_section", None),
        (whitney, "solve_base_point", "asdf_bundle.solve_base_point.loss", None),
    )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, every name always present."""
    rows = tracer.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "errors": Counter(),
             **per_call_ms([])}

    def row(name):
        return rows.get(name, empty)

    m: dict[str, float] = {}
    for name in ("pipeline.run_test", "pipeline.verify_output"):
        m[f"{name}.s"] = row(name)["s"]
        m[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("core_geometry.greedy_net", "core_geometry.federer_reach",
                 "asdf_bundle.ideal_packet", "asdf_bundle.validate_packet",
                 MESH_PARENT, "whitney_sections.fit_sections"):
        m[f"{name}.s"] = row(name)["s"]
    tangent = row("core_geometry.estimate_tangent")
    m["core_geometry.estimate_tangent.calls"] = tangent["calls"]
    m["core_geometry.estimate_tangent.s"] = tangent["s"]
    m["core_geometry.estimate_tangent.failed"] = tangent["failed"]
    m["asdf_bundle.seeds"] = row("asdf_bundle.solve_base_point.mesh")["calls"]
    m["asdf_bundle.mesh_charts"] = tracer.counts["asdf_bundle.mesh_charts"]
    for part in ("mesh", "loss"):
        name = f"asdf_bundle.solve_base_point.{part}"
        r = row(name)
        for key in ("calls", "s", "p50_ms", "tail_ms", "tail_pct", "failed"):
            m[f"{name}.{key}"] = r[key]
        for kind in SEED_ERRORS:
            m[f"{name}.failed.{kind}"] = r["errors"][kind]
    for name in ("asdf_bundle.bundle_coordinates", "whitney_sections.global_section"):
        m[f"{name}.calls"] = row(name)["calls"]
        m[f"{name}.s"] = row(name)["s"]
    solver = row("whitney_sections.minimize_section")
    prefix = "whitney_sections.minimize_section"
    for key in ("calls", "s", "p50_ms", "tail_ms", "tail_pct"):
        m[f"{prefix}.{key}"] = solver[key]
    for path in SOLVER_PATHS:
        key = path.replace("-", "_")
        m[f"{prefix}.{key}"] = tracer.counts[f"{prefix}.{key}"]
    m[f"{prefix}.budget_exceeded"] = solver["errors"]["BudgetExceededError"]
    m[f"{prefix}.warm_start_ratio"] = (
        m[f"{prefix}.warm_start"] / solver["calls"] if solver["calls"] else 0.0)
    m["whitney_sections.sites_total"] = tracer.counts["whitney_sections.sites_total"]
    m["whitney_sections.sites_max"] = tracer.counts["whitney_sections.sites_max"]
    dist = row("whitney_sections.mfin_distance")
    for key in ("calls", "s", "tail_ms", "tail_pct"):
        m[f"whitney_sections.mfin_distance.{key}"] = dist[key]
    m["whitney_sections.mfin_distance.out_of_tube"] = dist["errors"]["OutOfTubeError"]
    return m
