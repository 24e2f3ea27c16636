"""Span tracing from outside the program.

`Tracer.install` replaces public functions and methods where their callers
look them up (module globals and class attributes) with wrappers that
record a span per call: name, start, end, parent span and an optional work
count. Spans stay in memory; `layer_metrics` turns one round's spans into
the per-layer metrics, and `write_spans` writes them out at the end of a run.

Only the benchmark's own process is traced. Pool workers forked by the
harness inherit the wrappers, but their spans stay in the worker and are
lost, so on `audit` every span below comes from the parent process.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# (span name, module, attribute, work-count function or None). The attribute
# is either a module global ("run") or a class method ("ActiveSet.apply_fw").
_TARGETS = [
    ("harness.run_experiment", "polyfw.harness", "run_experiment", None),
    ("harness.summarize", "polyfw.harness", "summarize", None),
    ("frank_wolfe.run", "polyfw.harness", "run", None),
    ("objectives.reference_solution", "polyfw.harness", "reference_solution", None),
    ("objectives.reference_solution", "polyfw.objectives", "reference_solution", None),
    ("diagnostics.compute_constants", "polyfw.harness", "compute_constants", None),
    ("diagnostics.compute_constants", "polyfw.diagnostics", "compute_constants", None),
    ("diagnostics.compute_constants", "polyfw.cli", "compute_constants", None),
    ("geometry.geometry_constants", "polyfw.harness", "geometry_constants", None),
    ("geometry.geometry_constants", "polyfw.frank_wolfe", "geometry_constants", None),
    ("geometry.geometry_constants", "polyfw.diagnostics", "geometry_constants", None),
    ("geometry.enumerate_vertices", "polyfw.geometry", "enumerate_vertices", None),
    ("geometry.lmo", "polyfw.frank_wolfe", "lmo", None),
    ("simplex_lp.solve_lp", "polyfw.simplex_lp", "solve_lp", None),
    ("objectives.eval", "polyfw.objectives", "QuadraticObjective.value", None),
    ("objectives.gradient", "polyfw.objectives", "QuadraticObjective.gradient", None),
    ("sampling.estimate_gradient", "polyfw.frank_wolfe", "estimate_gradient", None),
    ("sampling.draw", "polyfw.sampling", "NoiseModel.draw",
     lambda a, k: a[0].dim * (1 if _arg(a, k, 2, "n") is None else _arg(a, k, 2, "n"))),
    ("frank_wolfe.step", "polyfw.frank_wolfe", "standard_fw_step", None),
    ("frank_wolfe.step", "polyfw.frank_wolfe", "away_fw_step", None),
    ("frank_wolfe.active_set", "polyfw.frank_wolfe", "ActiveSet.__init__", None),
    ("frank_wolfe.active_set", "polyfw.frank_wolfe", "ActiveSet.copy", None),
    ("frank_wolfe.active_set", "polyfw.frank_wolfe", "ActiveSet.point", None),
    ("frank_wolfe.active_set", "polyfw.frank_wolfe", "ActiveSet.away_vertex", None),
    ("frank_wolfe.active_set", "polyfw.frank_wolfe", "ActiveSet.apply_fw", None),
    ("frank_wolfe.active_set", "polyfw.frank_wolfe", "ActiveSet.apply_away", None),
    ("frank_wolfe.active_set", "polyfw.frank_wolfe", "ActiveSet.validate", None),
    ("diagnostics.verify_trace", "polyfw.cli", "verify_trace",
     lambda a, k: len(a[0].records)),
    ("harness.concentration", "polyfw.cli", "concentration_experiment", None),
    ("cli.verify", "polyfw.cli", "cmd_verify", None),
    ("cli.lmo_check", "polyfw.cli", "cmd_lmo_check", None),
]


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


class Tracer:
    """In-memory span recorder. A span is [name, start_ns, end_ns, parent
    index, work count, step type], stored in start order; parent is -1 for a
    root span, and the step type is set on step-function spans only."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, count):
        tracer = self
        is_step = name == "frank_wolfe.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else -1
            work = count(args, kwargs) if count is not None else 0
            span = [name, 0, 0, parent, work, None]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_step:
                    span[5] = "idle"  # away_fw_step's DegenerateDirection
                raise
            finally:
                span[2] = time.perf_counter_ns()
                tracer._open.pop()
            if is_step:
                span[5] = result[1]["step_type"]
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        for name, module, attr, count in _TARGETS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.missing.append(f"{module}.{attr}")
                continue
            owner, _, member = attr.rpartition(".")
            target = getattr(mod, owner, None) if owner else mod
            if target is None or member not in vars(target):
                self.missing.append(f"{module}.{attr}")
                continue
            original = vars(target)[member]
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget, count))
            else:
                wrapped = self._wrap(name, original, count)
            self._saved.append((target, member, original))
            setattr(target, member, wrapped)

    def uninstall(self) -> None:
        for target, member, original in reversed(self._saved):
            setattr(target, member, original)
        self._saved.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


# Child spans whose time a parent's metric leaves out: vertex enumeration is
# reported as geometry.enumerate_s, not as geometry constants, and geometry
# constants not as analysis constants.
_EXCLUDED = {
    ("geometry.geometry_constants", "geometry.enumerate_vertices"),
    ("diagnostics.compute_constants", "geometry.geometry_constants"),
}


def layer_metrics(spans, n_eps: int, pool_in_use: bool, trace_bytes: int) -> dict:
    """Per-layer metrics of one round from its spans."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0] * n
    under_run = [False] * n
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            under_run[i] = under_run[parent] or spans[parent][0] == "frank_wolfe.run"
    total = Counter()
    calls = Counter()
    self_ns = Counter()
    run_total = Counter()  # inside frank_wolfe.run
    run_calls = Counter()
    work = Counter()
    work_max = Counter()
    nested = Counter()  # time of geometry spans inside constants spans
    step_types = Counter()
    for i, (name, _, _, parent, w, step) in enumerate(spans):
        total[name] += dur[i]
        calls[name] += 1
        self_ns[name] += dur[i] - child[i]
        work[name] += w
        work_max[name] = max(work_max[name], w)
        if parent >= 0 and (spans[parent][0], name) in _EXCLUDED:
            nested[spans[parent][0]] += dur[i]
        if under_run[i]:
            # Outermost active-set spans only: apply_fw calls point, etc.
            if name == "frank_wolfe.active_set" and spans[parent][0] == name:
                continue
            run_total[name] += dur[i]
            run_calls[name] += 1
            if step is not None:
                step_types[step] += 1

    def exclusive(name):
        return total[name] - nested[name]

    def mean_us(name):
        return total[name] / calls[name] / 1e3 if calls[name] else 0.0

    iters = run_calls["frank_wolfe.step"]
    per_iter = (lambda v: v / iters) if iters else (lambda v: 0.0)
    evals = calls["objectives.eval"] + calls["objectives.gradient"]
    records = work["diagnostics.verify_trace"]
    return {
        "geometry.enumerate_s": total["geometry.enumerate_vertices"] / 1e9,
        "geometry.enumerate_calls": calls["geometry.enumerate_vertices"],
        "geometry.constants_s": exclusive("geometry.geometry_constants") / 1e9,
        "geometry.lmo_us": mean_us("geometry.lmo"),
        "geometry.lmo_calls": run_calls["geometry.lmo"],
        "simplex_lp.solve_us": mean_us("simplex_lp.solve_lp"),
        "objectives.eval_us": (
            (total["objectives.eval"] + total["objectives.gradient"]) / evals / 1e3
            if evals else 0.0
        ),
        "objectives.gradient_calls_per_step": per_iter(run_calls["objectives.gradient"]),
        "objectives.reference_s": total["objectives.reference_solution"] / 1e9,
        "sampling.estimate_us": mean_us("sampling.estimate_gradient"),
        "sampling.draw_melems": work["sampling.draw"] / 1e6,
        "sampling.draw_mb_max": work_max["sampling.draw"] * 8 / 2**20,
        "frank_wolfe.loop_us": per_iter(self_ns["frank_wolfe.run"] / 1e3),
        "frank_wolfe.step_us": (
            run_total["frank_wolfe.step"] / iters / 1e3 if iters else 0.0
        ),
        "frank_wolfe.active_set_us": per_iter(run_total["frank_wolfe.active_set"] / 1e3),
        "frank_wolfe.iterations": iters,
        "diagnostics.constants_calls_per_eps": calls["diagnostics.compute_constants"] / n_eps,
        "diagnostics.constants_s": exclusive("diagnostics.compute_constants") / 1e9,
        "diagnostics.verify_us_per_record": (
            total["diagnostics.verify_trace"] / records / 1e3 if records else 0.0
        ),
        "harness.self_s": self_ns["harness.run_experiment"] / 1e9,
        "harness.parent_cell_runs": calls["frank_wolfe.run"] if pool_in_use else 0,
        "harness.trace_mb": trace_bytes / 2**20,
        "harness.summarize_s": total["harness.summarize"] / 1e9,
        "harness.concentration_s": total["harness.concentration"] / 1e9,
        "cli.verify_s": mean_us("cli.verify") / 1e6,
        "cli.lmo_check_s": mean_us("cli.lmo_check") / 1e6,
        "step_types": dict(sorted(step_types.items())),
    }


def write_spans(path: str, spans) -> None:
    """One JSON object per span, in start order."""
    with open(path, "w") as fh:
        for name, start, end, parent, work, step in spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "work": work, "step": step}) + "\n")
