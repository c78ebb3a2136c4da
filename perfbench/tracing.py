"""Span tracing of solv3d's public functions, installed from outside the package.

``Tracer.install`` replaces each listed function with a wrapper in every
``solv3d`` module namespace that binds it (``from .kernel2d import expm``
copies the binding, so patching only the defining module would miss calls).
Each wrapper appends one span (function id, start, end, parent span) to flat
in-memory arrays; ``uninstall`` restores the originals. Self time is a span's
duration minus the durations of its direct children; calls are
single-threaded (the benchmark pins ``SOLV3D_THREADS=1``), so children never
overlap.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute path, kind): "span" records a span, "count" only counts
# calls (check_finite is too small and too frequent for a span to say much).
TRACED = [
    ("kernel2d", "expm", "span"),
    ("kernel2d", "lambda_op", "span"),
    ("kernel2d", "expm_series", "span"),
    ("kernel2d", "check_finite", "count"),
    ("system", "simulate", "span"),
    ("system", "field_values", "span"),
    ("system", "drift_flow", "span"),
    ("system", "conjugate_to_planar", "span"),
    ("system", "PlanarReduction.to_planar", "span"),
    ("system", "PlanarReduction.from_planar", "span"),
    ("system", "larc", "span"),
    ("system", "nilrank", "span"),
    ("planar", "planar_solution", "span"),
    ("planar", "concat_solution", "span"),
    ("planar", "equilibrium", "span"),
    ("planar", "omega_hat", "span"),
    ("planar", "classify_planar", "span"),
    ("plan", "circle_hop", "span"),
    ("plan", "fiber_sync", "span"),
    ("plan", "staircase", "span"),
    ("plan", "half_staircase", "span"),
    ("plan", "integrate_projected", "span"),
    ("plan", "monotone_certificate", "span"),
    ("reach", "reach_sets", "span"),
    ("reach", "control_set_estimate", "span"),
    ("reach", "classify", "span"),
    ("reach", "verify_classification", "span"),
    ("covering", "project_trajectory", "span"),
    ("covering", "lift_trajectory", "span"),
    ("covering", "lift_control_set", "span"),
    ("cli", "load_spec", "span"),
]

# every public function of the group module, reported summed as "group"
GROUP_FUNCTIONS = [
    "identity", "rho", "multiply", "inverse", "conjugate", "project_S",
    "project_H", "quotient_map", "quotient_multiply",
]

REACH_COUNTERS = [
    "reach.arc_points", "reach.forward_cells", "reach.backward_cells",
    "reach.estimate_cells",
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for mod, attr, kind in TRACED:
        if mod == "cli":
            continue
        out.append((f"{mod}.{attr}.calls", "count"))
        if kind == "span":
            out.append((f"{mod}.{attr}.self_s", "s"))
    out += [("group.calls", "count"), ("group.self_s", "s")]
    out += [(name, "count") for name in REACH_COUNTERS]
    out.append(("reach.cells_per_kpoint", "cells/kpoint"))
    out.append(("cli.import_s", "s"))
    out.append(("cli.load_spec.self_s", "s"))
    out += [(f"cli.{cmd}.wall_s", "s") for cmd in ("classify", "simulate", "reach", "plan")]
    out += [("cli.artifacts", "count"), ("cli.artifact_bytes", "bytes"),
            ("cli.exit_unexpected", "count")]
    out += [("trace.spans", "count"), ("trace.overhead_frac", "ratio")]
    return out


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, post=None):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends, stack = (
            self.fid, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _reach_sets_post(self, args, kwargs, grid):
        call = self._reach_signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        n_arcs = math.ceil(a["T"] / a["arc_duration"])
        self.counters["reach.arc_points"] += 2 * a["budget"] * n_arcs * a["samples_per_arc"]
        self.counters["reach.forward_cells"] += int(np.sum(grid.forward))
        self.counters["reach.backward_cells"] += int(np.sum(grid.backward))

    def _estimate_post(self, args, kwargs, est):
        self.counters["reach.estimate_cells"] += int(est.diagnostics["estimate_cells"])

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a solv3d namespace binds it."""
        if not self._patches:
            self._patches = self._build_patches()
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig, _ in self._patches:
            setattr(owner, key, orig)

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "solv3d" or n.startswith("solv3d."))]
        plan = [(mod, attr, kind, f"{mod}.{attr}") for mod, attr, kind in TRACED]
        plan += [("group", attr, "span", "group") for attr in GROUP_FUNCTIONS]
        posts = {"reach.reach_sets": self._reach_sets_post,
                 "reach.control_set_estimate": self._estimate_post}
        patches = []
        for mod, attr, kind, name in plan:
            module = sys.modules.get(f"solv3d.{mod}")
            if module is None:
                continue
            owner, leaf = _resolve(module, attr)
            orig = getattr(owner, leaf)
            if name == "reach.reach_sets":
                self._reach_signature = inspect.signature(orig)
            if kind == "count":
                wrapped = self._count_wrapper(name, orig)
            else:
                wrapped = self._span_wrapper(name, orig, posts.get(name))
            if owner is not module:  # a method: patch the class once
                patches.append((owner, leaf, orig, wrapped))
                continue
            for m in modules:
                for key, value in vars(m).items():
                    if value is orig:
                        patches.append((m, key, orig, wrapped))
        return patches

    # -- results --------------------------------------------------------------

    def span_arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "fid": np.frombuffer(self.fid, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def layer_totals(self) -> dict[str, tuple[float, float]]:
        """Per traced name: (calls, self seconds) summed over all spans."""
        s = self.span_arrays()
        dur = s["end"] - s["start"]
        child = np.zeros(len(dur))
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(s["fid"], minlength=n)
        self_s = np.bincount(s["fid"], weights=own, minlength=n)
        out: dict[str, list[float]] = {}
        for i, name in enumerate(self.names):
            acc = out.setdefault(name, [0.0, 0.0])
            acc[0] += float(calls[i])
            acc[1] += float(self_s[i])
        for name, c in self.counts.items():
            out.setdefault(name, [0.0, 0.0])[0] += c
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (numpy .npz: names, fid, parent, start, end)."""
        np.savez(path, **self.span_arrays())
