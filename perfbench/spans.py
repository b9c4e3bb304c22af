"""Spans around the public entry points of the symsector layers.

The tracer replaces module attributes with timing wrappers; the
program itself is not modified.  Cross-module calls go through
``flow.X`` and ``sectors.X`` and intra-module calls through the module
globals, so one wrapper per name sees every caller.  Names that the
package re-exports (``symsector.integrate_flow``) are replaced too.
The Dormand-Prince kernels in ``_kernels`` are reached only through
the ``flow`` entry points and show up under ``flow.*``.

Layers are named after the modules.  A span records its name, start,
end, parent and the root span of its operation; spans stay in memory
until the repetition ends.
"""

import json
import time
from collections import defaultdict

import numpy as np

import symsector
from symsector import _kernels, flow, gridplot, sectors, surfaces, verify

from workloads import suite_names

ROOT = "workload"
LAYERS = (ROOT, "flow", "sectors", "gridplot", "verify", "surfaces")

# span name -> metric group; functions of one group never nest
_GROUPS = {
    "flow.compute_delta_batch": "flow.delta_batch",
    "flow.drive_batch": "flow.drive_batch",
    "flow.compute_delta": "flow.delta_scalar",
    "flow.integrate_flow": "flow.drive_scalar",
    "flow.first_event": "flow.drive_scalar",
    "flow.flow_state_to_time": "flow.drive_scalar",
    "sectors.classify_by_flow_batch": "sectors.classify_by_flow_batch",
    "sectors.labels_from_ab": "sectors.labels_from_ab",
    "sectors.hypersurface_point": "sectors.hypersurface_point",
    "sectors.check_dI_characteristic": "sectors.check_dI_characteristic",
    "gridplot.classify_grid": "gridplot.classify_grid",
    "gridplot.grid_csv": "gridplot.grid_csv",
    "gridplot.grid_svg": "gridplot.grid_svg",
    "verify.report_json": "verify.report_json",
    "surfaces.enumerate_decomposition": "surfaces.enumerate_decomposition",
}
_MODULES = {
    "flow": flow,
    "sectors": sectors,
    "gridplot": gridplot,
    "verify": verify,
    "surfaces": surfaces,
}
_STATUS = (
    ("event", _kernels.STATUS_EVENT),
    ("time_end", _kernels.STATUS_TIME_END),
    ("stalled", _kernels.STATUS_STALLED),
    ("nonfinite", _kernels.STATUS_NONFINITE),
    ("running", _kernels.STATUS_RUNNING),
)


class Tracer:
    """In-memory span recorder with wrappers around layer entry points."""

    def __init__(self):
        self.spans = []  # [name, parent, root, start, end]
        self._stack = []
        self._delta_inputs = []
        self._drive_status = []
        self._label_rows = 0
        self._bytes = defaultdict(int)

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name; returns its result."""
        spans = self.spans
        stack = self._stack
        idx = len(spans)
        record = [name, stack[-1] if stack else -1, stack[0] if stack else idx,
                  0.0, 0.0]
        spans.append(record)
        stack.append(idx)
        record[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            stack.pop()

    def root(self, fn, *args, **kwargs):
        """Call fn inside a root span: one operation of the workload."""
        return self.span(ROOT, fn, *args, **kwargs)

    def _wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def install(self):
        """Replace every traced entry point by its wrapper."""
        observers = {
            "flow.compute_delta_batch": self._see_delta_batch,
            "flow.drive_batch": self._see_drive_batch,
            "sectors.labels_from_ab": self._see_labels,
            "gridplot.grid_csv": self._see_text("gridplot.grid_csv"),
            "gridplot.grid_svg": self._see_text("gridplot.grid_svg"),
            "verify.report_json": self._see_text("verify.report_json"),
        }
        for name in _GROUPS:
            module_name, attr = name.split(".")
            module = _MODULES[module_name]
            original = getattr(module, attr)
            traced = self._wrap(name, original, observers.get(name))
            setattr(module, attr, traced)
            if getattr(symsector, attr, None) is original:
                setattr(symsector, attr, traced)
        verify.REGISTRY = tuple(
            (key, self._wrap(f"verify.suite.{key}", fn))
            for key, fn in verify.REGISTRY
        )

    def _see_delta_batch(self, args, out):
        s = np.asarray(args[0], dtype=complex).ravel()
        unresolved = int(np.count_nonzero(out[1] != _kernels.STATUS_EVENT))
        self._delta_inputs.append((s.copy(), unresolved))

    def _see_drive_batch(self, args, out):
        self._drive_status.append(np.bincount(out[0], minlength=5))

    def _see_labels(self, args, out):
        self._label_rows += int(np.size(args[0]))

    def _see_text(self, name):
        def see(args, out):
            self._bytes[name] += len(out.encode("utf-8"))

        return see

    def metrics(self):
        """Per-layer values of the recorded repetition, by metric name.

        Every group and suite gets calls, busy_s and self_s, zero when
        never called; BENCHMARK.json lists the ones that are reported.
        """
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        scalar_ms = []
        for (name, _, _, start, end), inner in zip(self.spans, child):
            group = _GROUPS.get(name, name)
            busy[group] += end - start
            own[group] += end - start - inner
            calls[group] += 1
            layer_self[name.split(".")[0]] += end - start - inner
            if group == "flow.delta_scalar":
                scalar_ms.append(1e3 * (end - start))

        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        suites = {f"verify.suite.{name}" for name in suite_names()}
        for group in set(busy) | set(_GROUPS.values()) | suites:
            out[f"{group}.calls"] = calls[group]
            out[f"{group}.busy_s"] = busy[group]
            out[f"{group}.self_s"] = own[group]
        out["trace.spans"] = len(self.spans)
        out["flow.delta_scalar.p50_ms"] = (
            float(np.median(scalar_ms)) if scalar_ms else 0.0
        )

        rows = sum(s.size for s, _ in self._delta_inputs)
        distinct = sum(
            len(np.unique(np.column_stack([np.abs(s.real), np.abs(s.imag)]), axis=0))
            for s, _ in self._delta_inputs
        )
        out["flow.delta_batch.rows"] = rows
        out["flow.delta_batch.unresolved"] = sum(n for _, n in self._delta_inputs)
        out["flow.delta_batch.distinct_frac"] = distinct / rows if rows else 0.0
        out["flow.delta_batch.rows_per_s"] = _rate(rows, busy["flow.delta_batch"])

        status = sum(self._drive_status, np.zeros(5, dtype=np.int64))
        out["flow.drive_batch.rows"] = int(status.sum())
        for key, code in _STATUS:
            out[f"flow.drive_batch.status.{key}"] = int(status[code])
        out["flow.drive_batch.rows_per_s"] = _rate(
            out["flow.drive_batch.rows"], busy["flow.drive_batch"]
        )
        out["sectors.labels_from_ab.rows"] = self._label_rows
        for name in ("gridplot.grid_csv", "gridplot.grid_svg", "verify.report_json"):
            out[f"{name}.bytes"] = self._bytes[name]
        return out

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, parent, root, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent, "trace": root,
                    "start_s": start - t0, "end_s": end - t0,
                }) + "\n")


def _rate(rows, seconds):
    return rows / seconds if seconds > 0.0 else 0.0
