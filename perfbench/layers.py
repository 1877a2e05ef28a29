"""Layer tracing for the benchmark's traced run.

The tracer wraps public functions and methods of `attractorlab` at every
binding a caller looks up: a name imported with `from .x import f` is a
separate binding in the importing module, so `make_periodic_operator` is
wrapped in both `floquet` and `simulate`.  Each call records a span (name,
start, end, parent span) and counters taken from its arguments and return
value.  Spans stay in memory and are written out when the traced process
ends; a span's self time is its duration minus the time its child spans
cover.

Nothing under src/ changes: the wrappers are installed in the traced child
process only, after import, and removed before it exits.  If a wrapped name
no longer exists at one of its bindings, `install` raises `TraceMapError`
before patching anything, so a refactor shows up as a failed traced run
instead of a layer metric that silently reads zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

# Spans kept verbatim for the span log; the aggregates below count every span.
SPAN_LOG_CAP = 50_000

# Calls whose step counts include doublings that are thrown away.
DOUBLING_SPANS = ("integrators.adaptive", "floquet.propagator")


class TraceMapError(RuntimeError):
    """A wrapped name no longer exists at one of its bindings."""


class Tracer:
    def __init__(self):
        self.span_log: list[tuple[int, str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        # (parent span id, parent span name) -> steps of each lawson_rk4 call
        self.lawson_steps: dict[tuple[int, str], list[int]] = defaultdict(list)
        self.rows_seen: set = set()
        self._points_alive: dict[int, list] = {}
        self._stack: list[list] = []  # [span id, start, child seconds, name]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def parent(self) -> tuple[int, str]:
        if not self._stack:
            return -1, ""
        frame = self._stack[-1]
        return frame[0], frame[3]

    def wrap(self, fn, name: str, before=None, after=None):
        """Span-recording wrapper; `before(tracer, args, kwargs)` may replace
        the arguments, `after(tracer, args, kwargs, result)` the result."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            frame = [sid, clock(), 0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[2]
                parent_id = -1
                if stack:
                    stack[-1][2] += duration
                    parent_id = stack[-1][0]
                if sid < SPAN_LOG_CAP:
                    tracer.span_log.append((sid, name, frame[1], end, parent_id))
            if after is not None:
                result = after(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, table=None) -> None:
        """Patch every binding in `table` (default WRAPS); all bindings are
        resolved first, so a missing one leaves nothing patched."""
        resolved = []
        for module, attr, span, before, after in table or WRAPS:
            owner = importlib.import_module(f"attractorlab.{module}")
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            namespace = vars(owner) if owner is not None else {}
            if leaf not in namespace or not callable(namespace[leaf]):
                raise TraceMapError(
                    f"attractorlab.{module}.{attr} no longer exists; update WRAPS "
                    f"in perfbench/layers.py (span {span!r})")
            resolved.append((owner, leaf, namespace[leaf], span, before, after))
        wrappers: dict[int, object] = {}
        for owner, leaf, original, span, before, after in resolved:
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(original, span, before, after)
            setattr(owner, leaf, wrappers[id(original)])
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def dump(self, path: str) -> None:
        payload = {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "wasted_steps": sum(sum(s) - s[-1] for (_, pname), s in self.lawson_steps.items()
                                if pname in DOUBLING_SPANS),
            "row_unique": len(self.rows_seen),
            "spans_recorded": self._next_id,
            "span_log": self.span_log,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- counters taken at the span boundaries -------------------------------------

def _step_points(tracer, args, kwargs):
    tracer.counters["cutoffs.step_points"] += int(np.size(args[1] if len(args) > 1 else kwargs["x"]))
    return args, kwargs


def _count_integrand(tracer, args, kwargs):
    f = args[0] if args else kwargs.pop("f")

    def counted(t):
        tracer.counters["quadrature.integrand_evals"] += 1
        return f(t)

    return (counted,) + tuple(args[1:]), kwargs


def _lawson_steps(tracer, args, kwargs, result):
    # lawson_rk4(decay, rhs, state, t0, t1, steps)
    steps = int(args[5] if len(args) > 5 else kwargs["steps"])
    tracer.counters["integrators.steps"] += steps
    tracer.lawson_steps[tracer.parent()].append(steps)
    return result


def _count_rhs(tracer, args, kwargs, rhs):
    def counted(t, u):
        tracer.counters["floquet.tab_rhs_evals"] += 1
        return rhs(t, u)

    return counted


def _propagator_steps(tracer, args, kwargs, result):
    tracer.counters["floquet.propagator_steps"] += result.steps
    return result


def _window_kernels(tracer, args, kwargs, result):
    tracer.counters["simulate.window_kernels"] += len(result.kernel_logs)
    return result


def _cloud_points(tracer, args, kwargs, result):
    tracer.counters["simulate.cloud_points"] += len(result[0])
    return result


def _dense_cells(tracer, args, kwargs, result):
    tracer.counters["geometry.dense_cells"] += int(args[0]._signs.size)
    return result


def _greedy_fallback(tracer, args, kwargs, result):
    method = args[3] if len(args) > 3 else kwargs.get("method", "boxes")
    if method == "boxes" and result.counter == "greedy":
        tracer.counters["geometry.greedy_fallbacks"] += 1
    return result


def _row_key(tracer, args, kwargs):
    cloud = args[0]
    i = args[1] if len(args) > 1 else kwargs["i"]
    # keep each points list alive so its id names one cloud for the whole run
    tracer._points_alive.setdefault(id(cloud.points), cloud.points)
    tracer.rows_seen.add((id(cloud.points), int(i), cloud.s))
    return args, kwargs


def _count_rows(tracer, args, kwargs):
    path, header, rows = args[0], args[1], args[2]

    def counted():
        for row in rows:
            tracer.counters["reports.csv_rows"] += 1
            yield row

    return (path, header, counted()) + tuple(args[3:]), kwargs


def _csv_bytes(tracer, args, kwargs, result):
    tracer.counters["reports.csv_bytes"] += os.path.getsize(result)
    return result


def _bindings(modules, attr, span, before=None, after=None):
    return [(m, attr, span, before, after) for m in modules]


# (module, attribute, span name, before hook, after hook)
WRAPS = [
    *_bindings(["cli"], "cmd_gap_check", "cli.gap_check"),
    *_bindings(["cli"], "cmd_floquet", "cli.floquet"),
    *_bindings(["cli"], "cmd_simulate", "cli.simulate"),
    *_bindings(["cli"], "cmd_dimension", "cli.dimension"),
    *_bindings(["config", "cli"], "load_config", "config.load"),
    *_bindings(["spectral", "cli"], "c1_obstruction_check", "spectral.obstruction"),
    *_bindings(["cutoffs"], "SmoothStep.value", "cutoffs.step", before=_step_points),
    *_bindings(["cutoffs"], "PeriodicDrive.value", "cutoffs.drive"),
    *_bindings(["cutoffs", "floquet", "simulate"], "mollifier_bump", "cutoffs.bump_build"),
    *_bindings(["quadrature", "floquet", "simulate"], "adaptive_simpson", "quadrature.simpson",
               before=_count_integrand),
    *_bindings(["integrators", "floquet", "simulate"], "lawson_rk4", "integrators.lawson",
               after=_lawson_steps),
    *_bindings(["integrators", "simulate"], "lawson_rk4_adaptive", "integrators.adaptive"),
    *_bindings(["integrators", "simulate"], "propagate_periods", "integrators.propagate"),
    *_bindings(["floquet", "simulate"], "make_periodic_operator", "floquet.operator"),
    *_bindings(["floquet"], "PeriodicOperator.tabulated_rhs", "floquet.tab_rhs",
               after=_count_rhs),
    *_bindings(["floquet"], "poincare_numeric", "floquet.propagator", after=_propagator_steps),
    *_bindings(["floquet", "simulate"], "poincare_predicted", "floquet.shift"),
    *_bindings(["floquet", "simulate"], "iterate_norm", "floquet.iterate_norm"),
    *_bindings(["simulate"], "trajectory_pair_experiment", "simulate.pair"),
    *_bindings(["simulate"], "build_kick_operator", "simulate.kick", after=_window_kernels),
    *_bindings(["simulate"], "_window_kernel", "simulate.window_kernel"),
    *_bindings(["simulate"], "bad_cube_cloud", "simulate.cloud", after=_cloud_points),
    *_bindings(["simulate"], "section4_attractor", "simulate.cloud", after=_cloud_points),
    *_bindings(["geometry"], "PointCloud.__post_init__", "geometry.cloud_build",
               after=_dense_cells),
    *_bindings(["geometry"], "box_count", "geometry.box_count"),
    *_bindings(["geometry"], "fractal_dimension_estimate", "geometry.dimension_scan",
               after=_greedy_fallback),
    *_bindings(["geometry"], "PointCloud.distance_log_row", "geometry.row", before=_row_key),
    *_bindings(["geometry"], "covering_number", "geometry.cover"),
    *_bindings(["geometry"], "doubling_factor", "geometry.doubling"),
    *_bindings(["reports", "cli"], "write_csv", "reports.write_csv",
               before=_count_rows, after=_csv_bytes),
]

MODULE_LAYERS = ("cli", "config", "spectral", "cutoffs", "quadrature", "integrators",
                 "floquet", "simulate", "geometry", "reports")


def layer_totals(dump: dict) -> dict:
    """Additive per-layer quantities of one traced process; sum these over
    processes, then derive the ratios with `layer_metrics`."""
    calls, total, own, cnt = dump["calls"], dump["total_s"], dump["self_s"], dump["counters"]
    c = lambda k: calls.get(k, 0)
    t = lambda k: total.get(k, 0.0)
    out = {
        "cutoffs.step_calls": c("cutoffs.step"),
        "cutoffs.step_points": cnt.get("cutoffs.step_points", 0),
        "cutoffs.step_self_s": own.get("cutoffs.step", 0.0),
        "cutoffs.drive_calls": c("cutoffs.drive"),
        "cutoffs.bump_build_s": t("cutoffs.bump_build"),
        "quadrature.calls": c("quadrature.simpson"),
        "quadrature.integrand_evals": cnt.get("quadrature.integrand_evals", 0),
        "quadrature.s": t("quadrature.simpson"),
        "integrators.lawson_calls": c("integrators.lawson"),
        "integrators.steps": cnt.get("integrators.steps", 0),
        "integrators.lawson_self_s": own.get("integrators.lawson", 0.0),
        "integrators.adaptive_calls": c("integrators.adaptive"),
        "integrators.wasted_steps": dump["wasted_steps"],
        "integrators.propagate_s": t("integrators.propagate"),
        "floquet.operator_s": t("floquet.operator"),
        "floquet.propagator_s": t("floquet.propagator"),
        "floquet.propagator_steps": cnt.get("floquet.propagator_steps", 0),
        "floquet.tab_rhs_evals": cnt.get("floquet.tab_rhs_evals", 0),
        "floquet.shift_s": t("floquet.shift"),
        "floquet.iterate_norm_calls": c("floquet.iterate_norm"),
        "simulate.pair_s": t("simulate.pair"),
        "simulate.kick_s": t("simulate.kick"),
        "simulate.window_kernels": cnt.get("simulate.window_kernels", 0),
        "simulate.window_kernel_s": t("simulate.window_kernel"),
        "simulate.cloud_s": t("simulate.cloud"),
        "simulate.cloud_points": cnt.get("simulate.cloud_points", 0),
        "geometry.cloud_builds": c("geometry.cloud_build"),
        "geometry.cloud_build_s": t("geometry.cloud_build"),
        "geometry.dense_cells": cnt.get("geometry.dense_cells", 0),
        "geometry.box_counts": c("geometry.box_count"),
        "geometry.box_count_s": t("geometry.box_count"),
        "geometry.greedy_fallbacks": cnt.get("geometry.greedy_fallbacks", 0),
        "geometry.row_calls": c("geometry.row"),
        "geometry.row_unique": dump["row_unique"],
        "geometry.row_s": t("geometry.row"),
        "geometry.covers": c("geometry.cover"),
        "geometry.cover_s": t("geometry.cover"),
        "geometry.doubling_s": t("geometry.doubling"),
        "reports.csv_rows": cnt.get("reports.csv_rows", 0),
        "reports.csv_bytes": cnt.get("reports.csv_bytes", 0),
        "reports.write_s": t("reports.write_csv"),
        "config.load_s": t("config.load"),
        "spectral.obstruction_s": t("spectral.obstruction"),
        "cli.gap_check_s": t("cli.gap_check"),
        "cli.floquet_s": t("cli.floquet"),
        "cli.simulate_s": t("cli.simulate"),
        "cli.dimension_s": t("cli.dimension"),
    }
    for layer in MODULE_LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    return out


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics from summed `layer_totals`: adds the two ratios and
    drops the helper count behind the waste ratio."""
    out = dict(totals)
    out["cutoffs.points_per_call"] = (
        totals["cutoffs.step_points"] / totals["cutoffs.step_calls"]
        if totals["cutoffs.step_calls"] else 0.0)
    wasted = out.pop("integrators.wasted_steps")
    out["integrators.wasted_step_frac"] = (
        wasted / totals["integrators.steps"] if totals["integrators.steps"] else 0.0)
    return out
