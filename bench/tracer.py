"""Outside-in span tracer for the ``multisum`` layers.

The tracer wraps public callables of the package from outside: methods are
replaced as class attributes, and module functions are rebound in every
``multisum`` namespace that holds them, because ``cli``, ``verify`` and
``parametric`` import functions by name and would otherwise keep calling
the unwrapped originals.  Each call becomes a span (name, start, end,
parent, trace id) on a thread-local stack; spans stay in memory until the
caller collects them.  Work counters are derived from the call's arguments
and return value at the same boundary.

A layer's self time is its spans' durations minus the durations of their
direct children, so self times of one tree add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    trace_id: int
    name: str
    start: float
    end: float
    counts: dict

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.span_id, self.parent_id, self.trace_id, self.name,
                self.start, self.end, self.counts]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


@dataclass(frozen=True)
class Target:
    """A callable to wrap: ``module`` plus ``attr`` (``"Class.method"`` or a function)."""

    module: str
    attr: str
    name: str
    count: object = None      # (args, kwargs, result) -> dict of counters


class Tracer:
    """Collects spans from wrapped callables; ``install`` and ``uninstall`` patch them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._local = threading.local()
        # next() on a count and list.append are single atomic steps under
        # the interpreter lock, so worker threads may record concurrently
        self._ids = itertools.count(1)
        self._patches = []       # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span around every call; results and exceptions pass through."""
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent_id, trace_id = stack[-1] if stack else (None, span_id)
            stack.append((span_id, trace_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                self.spans.append(Span(span_id, parent_id, trace_id, name, start, end, {}))
                raise
            end = clock()
            stack.pop()
            counts = count(args, kwargs, result) if count is not None else {}
            self.spans.append(Span(span_id, parent_id, trace_id, name, start, end, counts))
            return result

        return traced

    def install(self, targets) -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, method = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original,
                            self.wrap(target.name, original, target.count))
                continue
            original = getattr(module, target.attr)
            wrapped = self.wrap(target.name, original, target.count)
            package = target.module.split(".")[0]
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id is not None and s.parent_id in own:
            own[s.parent_id] -= s.duration
    return own


def summarize(spans) -> dict:
    """Per span name: summed self time, call count and summed counters."""
    own = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += own[s.span_id]
        row["calls"] += 1
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return out


# ---------------------------------------------------------------------------
# the multisum layers
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_uniforms(args, kwargs, result):
    rep_count = _arg(args, kwargs, 4, "rep_count")
    ncols = _arg(args, kwargs, 5, "ncols")
    stride = 4 * ((ncols + 3) // 4)
    return {"doubles": rep_count * stride, "used": rep_count * ncols}


def _count_values(args, kwargs, result):
    return {"values": int(result.size)}


def _count_quadrature_nodes(args, kwargs, result):
    from multisum.kernels import quadrature_rule
    kernel = args[0]
    nodes = 1
    for fam in kernel.factors:
        grid = fam.nodes if fam.kind == "tabulated" else quadrature_rule(fam.canonical_base)[0]
        nodes *= len(grid)
    return {"nodes": nodes, "nonfinite": 0 if math.isfinite(result) else 1}


LAYERS = (
    Target("multisum.mc", "RngSpec.uniform_block", "mc.uniform_block", _count_uniforms),
    Target("multisum.mc", "AxisDistribution.transform", "mc.transform", _count_values),
    Target("multisum.kernels", "FactorFamily.evaluate_block", "kernels.evaluate_block",
           _count_values),
    Target("multisum.mc", "simulate_S_L", "mc.simulate_S_L",
           lambda a, k, r: {"cells": _arg(a, k, 3, "N") * _arg(a, k, 1, "L").size}),
    Target("multisum.mc", "sample_S_infty", "mc.sample_S_infty"),
    Target("multisum.mc", "EmpiricalDist.__post_init__", "mc.EmpiricalDist",
           lambda a, k, r: {"values": int(a[0].values.size)}),
    Target("multisum.index_sets", "rect_pair", "index_sets.rect_pair",
           lambda a, k, r: {"cells": _arg(a, k, 0, "L").size}),
    Target("multisum.verify", "ks_distance", "verify.ks_distance",
           lambda a, k, r: {"points": _arg(a, k, 0, "a").n + _arg(a, k, 1, "b").n}),
    Target("multisum.parametric", "simulate_Q_L", "parametric.simulate_Q_L"),
    Target("multisum.parametric", "sample_Q_infty", "parametric.sample_Q_infty"),
    Target("multisum.parametric", "covering_profile", "parametric.covering_profile",
           lambda a, k, r: {"points": _arg(a, k, 0, "pk").n_points}),
    Target("multisum.parametric", "entropy_integral_exp", "parametric.entropy_integral_exp"),
    Target("multisum.kernels", "DegenerateKernel.moment", "kernels.moment",
           _count_quadrature_nodes),
    Target("multisum.rosenthal", "theorem_W_bound", "rosenthal.theorem_W_bound"),
    Target("multisum.psi", "young_fenchel", "psi.young_fenchel"),
    Target("multisum.cli", "OutputSet.add", "cli.OutputSet.add",
           lambda a, k, r: {"bytes": len(_arg(a, k, 3, "data"))}),
    Target("multisum.cli", "main", "cli.main"),
)
