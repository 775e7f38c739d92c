"""Spans around the calls `vikit.cli.run_scenario` makes into each layer.

The tracer wraps module attributes from benchmark code while it is
installed; no file of vikit changes.  Each span records its name, start, end,
parent span and scenario id, and stays in memory until the run ends.  The
per-iteration calls `evaluate` and `project` are not spans: each is added to
a count and a total time on the innermost open span.

Span names are `<layer>.<function>`, with the layer taken from the module that
defines the function, so `vikit.cli.certify_moduli` and
`vikit.solvers.certify_moduli` both record `operators.certify_moduli`.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "operators", "geometry", "solvers", "verification", "reports")
SET_NAMES = {
    "Box": "box",
    "Ball": "ball",
    "Halfspace": "halfspace",
    "Simplex": "simplex",
    "AffineSubspace": "affine",
}
SOLVER_SPANS = (
    "solvers.solve_projected_gradient",
    "solvers.solve_halpern",
    "solvers.compare_stopping",
)
SOLVER_DIMS = (2, 50, 500)

# Module attributes wrapped in a span, by the namespace they are called through.
SPANNED = {
    "vikit.cli": (
        "run_scenario",
        "write_trace_csv",
        "certify_moduli",
        "sample_pairs",
        "check_ism",
        "check_expansive",
        "solve_projected_gradient",
        "solve_halpern",
        "compare_stopping",
        "lemma_cocoercive_expansive",
        "check_singleton_vi",
        "brute_force_vi",
    ),
    "vikit.solvers": ("certify_moduli",),
    "vikit.verification": ("brute_force_vi", "pairwise_report"),
    "vikit.operators": ("pairwise_report",),
}
# Module attributes only counted: (namespace, attribute).
COUNTED = (("vikit.solvers", "evaluate"), ("vikit.solvers", "project"))


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _trace_bytes(trace) -> int:
    arrays = (trace.iterates, trace.natural_residuals, trace.operator_residuals,
              trace.shortcut_bounds)
    return sum(a.nbytes for a in arrays if a is not None)


def _annotate(span: dict, fn_name: str, args: tuple, result) -> None:
    """Record what a call worked on; runs after the span's end time is taken."""
    attrs = span["attrs"]
    if fn_name == "write_trace_csv":
        attrs["rows"] = args[1].rows
    elif fn_name in ("solve_projected_gradient", "solve_halpern", "compare_stopping"):
        trace = result.trace if fn_name == "compare_stopping" else result
        attrs.update(rows=trace.rows, trace_bytes=_trace_bytes(trace), n=args[0].dim)
    elif fn_name == "brute_force_vi":
        attrs["grid_points"] = args[1].count()
    elif fn_name == "pairwise_report":
        attrs["pairs"] = int(args[2].shape[0])


class Tracer:
    """Install, make traced `run_scenario` calls with `scenario` set, uninstall;
    `export` the spans for `per_layer_metrics`."""

    def __init__(self):
        self.spans: list[dict] = []
        self.scenario: str | None = None
        self._stack: list[dict] = []
        self._saved: list[tuple] = []
        self._last_error: BaseException | None = None

    def install(self) -> None:
        for module_name, attrs in SPANNED.items():
            module = sys.modules[module_name]
            for attr in attrs:
                self._patch(module, attr, self._spanned(getattr(module, attr)))
        for module_name, attr in COUNTED:
            module = sys.modules[module_name]
            self._patch(module, attr, self._counted(getattr(module, attr)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _raised(self, exc: BaseException) -> bool:
        """True the first time an exception passes a wrapper, so an error is
        counted once, in the layer that raised it."""
        first = exc is not self._last_error
        self._last_error = exc
        return first

    def _spanned(self, fn):
        name, layer, fn_name = f"{_layer(fn)}.{fn.__name__}", _layer(fn), fn.__name__

        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "layer": layer,
                "scenario": self.scenario,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "error": None,
                "attrs": {},
                "calls": defaultdict(lambda: [0, 0.0, 0]),
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if self._raised(exc):
                    span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            _annotate(span, fn_name, args, result)
            return result

        return wrapper

    def _counted(self, fn):
        base = f"{_layer(fn)}.{fn.__name__}"
        per_set = fn.__name__ == "project"

        def wrapper(*args, **kwargs):
            start = perf_counter()
            error = 0
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = int(self._raised(exc))
                raise
            finally:
                elapsed = perf_counter() - start
                key = f"{base}.{SET_NAMES.get(type(args[0]).__name__, 'other')}" if per_set else base
                tally = self._stack[-1]["calls"][key]  # inside a run_scenario span
                tally[0] += 1
                tally[1] += elapsed
                tally[2] += error

        return wrapper

    def export(self) -> list[dict]:
        return [dict(s, calls={k: list(v) for k, v in s["calls"].items()}) for s in self.spans]


def per_layer_metrics(spans: list[dict], output_bytes: int, overhead_frac: float) -> dict:
    """Per-layer numbers from one traced run, each per traced scenario unless
    its name says otherwise (`us_per_call`, `us_per_iter`, `errors`, `frac`)."""
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    calls = defaultdict(lambda: [0, 0.0, 0])
    errors = dict.fromkeys(LAYERS, 0)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
        if s["error"] is not None:
            errors[s["layer"]] += 1
        for key, (count, seconds, errs) in s["calls"].items():
            tally = calls[key]
            tally[0] += count
            tally[1] += seconds
            tally[2] += errs
            errors[key.split(".", 1)[0]] += errs

    scenarios = max(len(by_name["cli.run_scenario"]), 1)

    def dur(s):
        return s["end"] - s["start"]

    def counted_s(s):
        return sum(seconds for _, seconds, _ in s["calls"].values())

    def per_scenario(name):
        return sum(dur(s) for s in by_name[name]) / scenarios

    def self_s(name, counted=False):
        return sum(dur(s) - child_s[s["id"]] - (counted_s(s) if counted else 0.0)
                   for s in by_name[name]) / scenarios

    def attr_sum(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in by_name[name])

    def us_per_call(key):
        count, seconds, _ = calls[key]
        return seconds / count * 1e6 if count else 0.0

    solver_spans = [s for name in SOLVER_SPANS for s in by_name[name]]
    m = {
        "cli.run_scenario.self_s": self_s("cli.run_scenario"),
        "cli.write_trace_csv.s": per_scenario("cli.write_trace_csv"),
        "cli.write_trace_csv.rows": attr_sum("cli.write_trace_csv", "rows") / scenarios,
        "cli.output_bytes": output_bytes / scenarios,
        "operators.certify_moduli.calls_per_scenario":
            len(by_name["operators.certify_moduli"]) / scenarios,
        "operators.certify_moduli.s": per_scenario("operators.certify_moduli"),
        "operators.evaluate.calls": calls["operators.evaluate"][0] / scenarios,
        "operators.evaluate.us_per_call": us_per_call("operators.evaluate"),
        "operators.sample_pairs.s": per_scenario("operators.sample_pairs"),
        "operators.check_ism.s": per_scenario("operators.check_ism"),
        "operators.check_expansive.s": per_scenario("operators.check_expansive"),
        "operators.pairs_checked": attr_sum("reports.pairwise_report", "pairs") / scenarios,
    }
    for set_name in SET_NAMES.values():
        key = f"geometry.project.{set_name}"
        m[f"{key}.calls"] = calls[key][0] / scenarios
        m[f"{key}.us_per_call"] = us_per_call(key)
    m["solvers.iterations"] = sum(s["attrs"]["rows"] - 1 for s in solver_spans) / scenarios
    m["solvers.self_s"] = sum(
        dur(s) - child_s[s["id"]] - counted_s(s) for s in solver_spans) / scenarios
    for n in SOLVER_DIMS:
        at_n = [s for s in solver_spans if s["attrs"]["n"] == n]
        rows = sum(s["attrs"]["rows"] for s in at_n)
        loop_s = sum(dur(s) - child_s[s["id"]] for s in at_n)
        m[f"solvers.us_per_iter.n{n}"] = loop_s / rows * 1e6 if rows else 0.0
    m["solvers.trace_bytes"] = sum(s["attrs"]["trace_bytes"] for s in solver_spans) / scenarios
    grid = [s["attrs"]["grid_points"] for s in by_name["verification.brute_force_vi"]]
    m.update({
        "verification.brute_force_vi.calls_per_scenario": len(grid) / scenarios,
        "verification.brute_force_vi.s": per_scenario("verification.brute_force_vi"),
        "verification.grid_points": sum(grid) / scenarios,
        "verification.grid_inner_products": sum(g * g for g in grid) / scenarios,
        "verification.check_singleton_vi.self_s": self_s("verification.check_singleton_vi"),
        "verification.lemma_cocoercive_expansive.s":
            per_scenario("verification.lemma_cocoercive_expansive"),
        "reports.pairwise_report.s": per_scenario("reports.pairwise_report"),
    })
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    m["trace.overhead_frac"] = overhead_frac
    return m


def share_of_scenario(spans: list[dict], span_name: str, scenario_prefixes) -> float:
    """Time in `span_name` over run_scenario time, on scenarios whose id
    starts with one of `scenario_prefixes`."""
    inside = total = 0.0
    for s in spans:
        if s["scenario"] is None or not s["scenario"].startswith(tuple(scenario_prefixes)):
            continue
        if s["name"] == span_name:
            inside += s["end"] - s["start"]
        elif s["name"] == "cli.run_scenario":
            total += s["end"] - s["start"]
    return inside / total if total else 0.0
