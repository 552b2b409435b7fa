"""Per-layer spans recorded from the benchmark's side of condatom's API.

A Tracer replaces each named public function with a wrapper that times
the call and nests it under the innermost open wrapped call, so a
function's self time is its duration minus the time of the wrapped calls
made inside it. Unwrapped helpers count toward the wrapped function that
called them. A method is wrapped on its class; a module-level function
is wrapped in every condatom module that binds it (split, for example,
is bound in splitting, uniform, cli and the package itself). Spans are
folded into per-function call counts and self times as they close, so
the trace needs no memory per call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYER_FUNCTIONS = (
    "intervals.sweep",
    "intervals.canonical",
    "space.FiberMeasure.prefix_diffuse",
    "space.FiberMeasure.quantiles",
    "space.FiberMeasure.diffuse_mass",
    "space.FiberedSpace.cond_expectation",
    "space.EventSet.union",
    "space.EventSet.intersect",
    "space.EventSet.difference",
    "space.EventSet.is_subset",
    "splitting.split",
    "splitting.strict_split_witness",
    "splitting.shrink_sequence",
    "piecewise.PiecewiseLinear.at",
    "piecewise.PiecewiseLinear.compose",
    "piecewise.PiecewiseLinear.definite_integral",
    "uniform.build_dyadic_family",
    "uniform.set_at_level",
    "uniform.build_uniform",
    "uniform.level_set",
    "uniform.intersection_mass_curves",
    "uniform.level_scan",
    "kernel.kernel_atom_scan",
    "kernel.pushforward_uniformity_check",
    "kernel.hat_family",
    "densities.mixture",
    "densities.density_vectors",
    "densities.density_partition",
    "scenario.parse_scenario",
    "scenario.serialize_scenario",
    "cli.run",
    "cli.report_to_text",
)
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in LAYER_FUNCTIONS))


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric a Tracer reports."""
    out = []
    for name in LAYER_FUNCTIONS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return out + [(f"{module}.self_s", "s") for module in MODULES]


class Tracer:
    """Context manager: wrappers are installed on entry, removed on exit."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYER_FUNCTIONS, 0)
        self.self_s = dict.fromkeys(LAYER_FUNCTIONS, 0.0)
        self._open: list[float] = []  # per open span, time of its wrapped children
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        open_spans, calls, self_s, clock = self._open, self.calls, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                self_s[name] += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt

        return span

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k == "condatom" or k.startswith("condatom.")]
        for name in LAYER_FUNCTIONS:
            module_name, *path = name.split(".")
            module = importlib.import_module(f"condatom.{module_name}")
            if len(path) == 2:
                cls = getattr(module, path[0])
                self._replace(cls, path[1], self._wrap(cls.__dict__[path[1]], name))
                continue
            original = getattr(module, path[0])
            wrapped = self._wrap(original, name)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    self._replace(m, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def metrics(self, rounds: int) -> dict[str, float]:
        """Calls and self seconds per round, and self seconds per module."""
        out: dict[str, float] = {}
        per_module = dict.fromkeys(MODULES, 0.0)
        for name in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = self.calls[name] // rounds
            out[f"{name}.self_s"] = self.self_s[name] / rounds
            per_module[name.split(".")[0]] += self.self_s[name] / rounds
        for module, value in per_module.items():
            out[f"{module}.self_s"] = value
        return out
