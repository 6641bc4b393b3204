"""Span tracing of the program's public functions, from outside the program.

Each traced function is wrapped and the wrapper is bound under every name
a `spindimer` module looks it up by (for example `spindimer.sweep.gibbs_state`
and `spindimer.cli.run_sweep`), so calls between modules and inside one
module are both seen. Spans (name, start, end, parent, op id) are kept in
flat arrays while the run lasts and written out once at the end. Only
calls made inside an op are recorded; verification calls pass straight
through.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# Layer -> public functions whose spans the traced run records.
TRACED = {
    "cli": ("main", "build_parser"),
    "core": ("build_hamiltonian", "gibbs_state", "rotate_to_sx", "eigensystem"),
    "quantifiers": ("l1_coherence",),
    "models": (
        "coherence_longitudinal", "coherence_transverse", "partition_function",
        "coherence_from_chi", "critical_field",
    ),
    "sweep": (
        "run_sweep", "pressure_to_j", "render_table", "emit",
        "read_table_csv", "read_table_json",
    ),
    "fitting": ("load_series", "fit_bleaney_bowers", "coherence_series"),
}

# Per-layer metrics reported from a traced run: (name, unit, better).
# All are taken over one traced pass of the workload's op list.
_STATS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
}
_EXTRA = {
    "sweep.run_sweep.rows": ("count", "higher"),
    "sweep.emit.bytes": ("bytes", "lower"),
    "fitting.fit_bleaney_bowers.iterations": ("count", "lower"),
    "fitting.fit_bleaney_bowers.accepted_step_ratio": ("ratio", "higher"),
    "fitting.fit_bleaney_bowers.converged_ratio": ("ratio", "higher"),
    "models.critical_field.failed": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Functions reported by self time only.
_SELF_ONLY = {"cli.main", "sweep.emit", "sweep.read_table_csv", "sweep.read_table_json"}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = []
    for layer, funcs in TRACED.items():
        for func in funcs:
            name = f"{layer}.{func}"
            for stat, (unit, better) in _STATS.items():
                if stat == "calls" and name in _SELF_ONLY:
                    continue
                out.append((f"{name}.{stat}", unit, better))
    out += [(name, unit, better) for name, (unit, better) in _EXTRA.items()]
    return out


class Tracer:
    """Installs wrappers, records spans, derives per-function stats."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        # Counters recorded at the same boundaries as the spans.
        self.counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _wrap(self, name: str, func):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.current_op < 0:
                return func(*args, **kwargs)
            idx = len(tracer.start)
            tracer.span_name.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
                tracer._count(f"{name}.failed", 1)
                raise
            tracer.end[idx] = perf_counter()
            tracer.stack.pop()
            tracer._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "sweep.run_sweep":
            self._count("sweep.run_sweep.rows", result.n_rows)
        elif name == "sweep.emit":
            path = args[2] if len(args) > 2 else kwargs["path"]
            self._count("sweep.emit.bytes", os.path.getsize(path))
        elif name == "fitting.fit_bleaney_bowers":
            self._count("fitting.fit_bleaney_bowers.iterations", result.iterations)
            self._count("fitting.fit_bleaney_bowers.accepted", len(result.rss_trace) - 1)
            self._count("fitting.fit_bleaney_bowers.converged", int(result.converged))

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "spindimer" or k.startswith("spindimer.")]
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"spindimer.{layer}")
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{layer}.{func}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.op, dtype=np.int32),
        )

    def save(self, path) -> None:
        """Write every span: names table plus one row per span."""
        name, start, end, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            start=start, end=end, parent=parent, op=op)

    def stats(self) -> dict[str, float]:
        """Calls and self time per function, plus the counters; self time is
        a span's duration minus the time its child spans cover."""
        name, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        out = {}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = float(calls[i])
            out[f"{n}.self_s"] = float(self_s[i])
        c = self.counts
        fits = calls[self.name_id["fitting.fit_bleaney_bowers"]]
        iters = c.get("fitting.fit_bleaney_bowers.iterations", 0.0)
        out["sweep.run_sweep.rows"] = c.get("sweep.run_sweep.rows", 0.0)
        out["sweep.emit.bytes"] = c.get("sweep.emit.bytes", 0.0)
        out["fitting.fit_bleaney_bowers.iterations"] = iters
        out["fitting.fit_bleaney_bowers.accepted_step_ratio"] = (
            c.get("fitting.fit_bleaney_bowers.accepted", 0.0) / iters if iters else 0.0)
        out["fitting.fit_bleaney_bowers.converged_ratio"] = (
            c.get("fitting.fit_bleaney_bowers.converged", 0.0) / fits if fits else 0.0)
        out["models.critical_field.failed"] = c.get("models.critical_field.failed", 0.0)
        return out
