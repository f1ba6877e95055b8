"""Spans and counters around mwbpf's public functions, installed from outside.

``Tracer.install`` replaces every public function of every mwbpf module in
each namespace that holds it (for example ``mwbpf.design.synthesize_coupled``
and ``mwbpf.rfsim.dielectric_loss``), so calls between modules go through
the wrapper too. Functions in ``SPANS`` take 50 us or more per call and are
recorded as spans (name, start, end, parent span, op). Faster functions get
a counter of calls and inclusive time instead.

A span's self time is its duration minus its child spans and minus the
outermost counted calls into other modules; that counted time goes to the
counter's module instead. So ``rfsim.sweep_pcl`` self time keeps the rfsim
two-port helpers it calls but not ``microstrip.dielectric_loss``, and the
per-module totals add up without counting any interval twice.
"""

from __future__ import annotations

import collections
import functools
import pkgutil
import sys
import types
import warnings
from time import perf_counter_ns

SPANS = frozenset(
    {
        "cli.build_parser",
        "cli.cmd_compare",
        "cli.cmd_layout",
        "cli.cmd_materials",
        "cli.cmd_simulate",
        "cli.cmd_synth",
        "cli.main",
        "design.load_design",
        "design.save_design",
        "design.synthesize_design",
        "layout.export_svg",
        "layout.ml_hairpin_layout",
        "layout.pcl_layout",
        "microstrip.synthesize_coupled",
        "microstrip.synthesize_single_width",
        "rfsim.extract_metrics",
        "rfsim.ripple_bandwidth",
        "rfsim.sweep_coupling_matrix",
        "rfsim.sweep_pcl",
        "touchstone.csv_text",
        "touchstone.read_touchstone",
        "touchstone.touchstone_text",
        "touchstone.write_csv",
        "touchstone.write_touchstone",
    }
)

VALIDITY_WARNINGS = ("ModelValidityWarning", "GapTooSmallWarning")


def _public_functions(package):
    """(module short name, name, function) for functions each loaded module defines."""
    for info in pkgutil.iter_modules(package.__path__):
        module = sys.modules.get(f"{package.__name__}.{info.name}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
            ):
                yield info.name, name, obj


class Tracer:
    """Collects spans and counters for the ops run while it is installed."""

    def __init__(self, package):
        # [name, start_ns, end_ns, parent index, op, module, foreign counted ns]
        self.spans: list[list] = []
        # name -> [calls, inclusive ns, ns taken from a span of another module]
        self.counters: dict[str, list[int]] = {}
        self.extra: collections.Counter = collections.Counter()
        self.op = -1
        self._stack: list[int] = []
        self._depth = [0]  # counted calls open inside the innermost span
        self._sweep_type = package.FrequencySweep
        self._patches = self._plan_patches(package)

    def _plan_patches(self, package):
        prefix = package.__name__
        namespaces = [
            m for name, m in sys.modules.items() if name == prefix or name.startswith(prefix + ".")
        ]
        patches = []
        for short, name, fn in _public_functions(package):
            qualified = f"{short}.{name}"
            if qualified in SPANS:
                wrapper = self._span_wrapper(qualified, fn)
            else:
                wrapper = self._counter_wrapper(qualified, fn)
            for ns in namespaces:
                for attr, value in vars(ns).items():
                    if value is fn:
                        patches.append((ns, attr, fn, wrapper))
        return patches

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn, _ in self._patches:
            setattr(ns, attr, fn)

    def _span_wrapper(self, name, fn):
        spans, stack, depth, extra = self.spans, self._stack, self._depth, self.extra
        module = name.split(".")[0]
        sweep_type = self._sweep_type

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            outer_depth, depth[0] = depth[0], 0
            parent = stack[-1] if stack else -1
            spans.append([name, perf_counter_ns(), 0, parent, self.op, module, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter_ns()
                stack.pop()
                depth[0] = outer_depth
            for arg in (*args, *kwargs.values()):
                if isinstance(arg, sweep_type):
                    extra[name + ".points"] += arg.n_points
            if isinstance(result, str):
                extra[name + ".bytes"] += len(result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        cell = self.counters.setdefault(name, [0, 0, 0])
        module = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            depth[0] += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                cell[1] += dt
                depth[0] -= 1
                if depth[0] == 0:
                    if not stack:
                        cell[2] += dt
                    elif spans[stack[-1]][5] != module:
                        spans[stack[-1]][6] += dt
                        cell[2] += dt

        return wrapper

    def call(self, name: str, op: int, fn, *args):
        """Run one op as a root span, counting the validity warnings it raises."""
        self.op = op
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return self._span_wrapper(name, fn)(*args)
            finally:
                self.extra["microstrip.validity_warnings"] += sum(
                    w.category.__name__ in VALIDITY_WARNINGS for w in caught
                )

    def summary(self) -> dict:
        """JSON-ready totals per function name, and the extra counts.

        ``self_ns`` is a span's self time or a counter's inclusive time;
        ``layer_ns`` is the part that belongs to the function's own module.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for (name, start, end, _, _, _, foreign), child in zip(self.spans, child_ns):
            row = out.setdefault(name, dict.fromkeys(FIELDS, 0))
            self_ns = end - start - child - foreign
            row["calls"] += 1
            row["self_ns"] += self_ns
            row["layer_ns"] += self_ns
            row["total_ns"] += end - start
        for name, (calls, ns, credited) in self.counters.items():
            if calls:
                out[name] = {"calls": calls, "self_ns": ns, "layer_ns": credited, "total_ns": ns}
        return {"functions": out, "extra": dict(self.extra)}


FIELDS = ("calls", "self_ns", "layer_ns", "total_ns")


def merge(summaries) -> dict:
    """Sum several ``Tracer.summary`` results (one per traced process)."""
    functions: dict = {}
    extra: collections.Counter = collections.Counter()
    for s in summaries:
        for name, row in s["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(FIELDS, 0))
            for key in FIELDS:
                acc[key] += row[key]
        extra.update(s["extra"])
    return {"functions": functions, "extra": dict(extra)}
