"""In-memory spans recorded around obflab functions, from outside the package.

A hook rebinds one module attribute, the name a caller looks up at call
time, to a wrapper that records a span: name, layer, start, end, parent
span, the id of the ``obflab sim`` invocation it belongs to, and exact
counts taken from the call's arguments or result.  Nothing under ``src/``
is edited; ``Tracer.uninstall`` puts every original object back.

Spans are kept in a list and written out once, when the benchmark ends.
A span's self time is the part of its duration that no child span
covers; where spans on pool threads are self-active at the same time,
that time is split between them, so self times add up to wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

LAYERS = (
    "channel", "batch", "schedulers", "montecarlo", "grids",
    "analytic_obf", "analytic_olbf", "numerics", "cli",
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    invocation: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Hook(NamedTuple):
    module: str        # module whose attribute is rebound
    attr: str          # the name callers look up
    span: str          # span name
    layer: str         # obflab module the work belongs to
    attrs: Optional[Callable] = None  # (args, kwargs, result) -> dict of counts


def _run_experiment_attrs(args, kwargs, result):
    threads = kwargs.get("threads", args[1] if len(args) > 1 else None)
    return {"trials": args[0].trials, "threads": threads or 1}


def _grid_attrs(args, kwargs, result):
    return {"rank": int(args[0]), "mass": float(result.mass)}


def _csv_attrs(args, kwargs, result):
    return {"rows": int(args[0].sinrs.size), "bytes": os.path.getsize(args[1])}


def _elems_attrs(args, kwargs, result):
    return {"elems": int(result.size)}


def _bytes_attrs(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


_M, _CLI = "obflab.montecarlo", "obflab.cli"

# The boundary hooks are all the untraced run installs: they time
# run_experiment and attach_analysis and capture grid masses for the
# output checks, a handful of spans per `obflab sim` call.
BOUNDARY_HOOKS = (
    Hook(_CLI, "run_experiment", "montecarlo.run_experiment", "montecarlo", _run_experiment_attrs),
    Hook(_CLI, "attach_analysis", "montecarlo.attach_analysis", "montecarlo"),
    Hook(_M, "obf_sinr_grid", "grids.obf_sinr_grid", "grids", _grid_attrs),
    Hook(_M, "olbf_sinr_grid", "grids.olbf_sinr_grid", "grids", _grid_attrs),
)

FULL_HOOKS = BOUNDARY_HOOKS + (
    Hook(_CLI, "write_report_csv", "cli.write_report_csv", "cli", _csv_attrs),
    Hook(_M, "draw_channel_batch", "channel.draw", "channel", _bytes_attrs),
    Hook(_M, "ks_distance", "montecarlo.ks_distance", "montecarlo"),
    Hook(_M, "obf_mean_sum_rate", "analytic_obf.mean_sum_rate", "analytic_obf"),
    Hook(_M, "olbf_mean_sum_rate", "analytic_olbf.mean_sum_rate", "analytic_olbf"),
    Hook("obflab.grids", "obf_marginal_pdf_grid", "analytic_obf.marginal_pdf_grid", "analytic_obf"),
    Hook("obflab.grids", "olbf_marginal_pdf_t_grid", "analytic_olbf.marginal_pdf_t_grid",
         "analytic_olbf"),
    *(Hook("obflab.batch", f"batch_{k}", f"batch.{k}", "batch")
      for k in ("adaptive_obf", "olbf", "zfs", "zfdp")),
    *(Hook("obflab.schedulers", k, f"schedulers.{k}", "schedulers")
      for k in ("adaptive_obf", "olbf", "zfs_schedule", "greedy_zfdp_schedule")),
    *(Hook(f"obflab.{m}", "upper_incomplete_gamma_array", "numerics.gamma_array", "numerics",
           _elems_attrs)
      for m in ("numerics", "analytic_obf", "analytic_olbf")),
    # every other public function of numerics, under each name it is called
    # by, so that numerics' self time is the whole module's
    *(Hook(f"obflab.{m}", fn, f"numerics.{fn}", "numerics")
      for m, fns in (
          ("numerics", ("exp_integral_e1", "upper_incomplete_gamma", "integrate_1d",
                        "integrate_semi_infinite", "integrate_nested", "gauss_legendre_nodes")),
          ("analytic_obf", ("upper_incomplete_gamma", "integrate_1d", "integrate_semi_infinite",
                            "integrate_nested", "gauss_legendre_nodes")),
          ("analytic_olbf", ("upper_incomplete_gamma", "integrate_1d", "integrate_nested",
                             "gauss_legendre_nodes")),
      )
      for fn in fns),
)


class Tracer:
    """Records spans for the hooks it installs; one per measured phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        # a pool thread starts with an empty stack: its caller is whatever
        # the main thread is blocked in (run_experiment)
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), parent.id if parent else None, self.invocation,
                    name, layer, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def call(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for each `obflab sim` call)."""
        span = self._open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(hook.span, hook.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook.attrs is not None:
                span.attrs.update(hook.attrs(args, kwargs, result))
            return result

        return wrapper

    def install(self, hooks) -> None:
        for hook in hooks:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.attr, None)
            if original is None:
                print(f"perfbench: {hook.module}.{hook.attr} not found, not traced",
                      file=sys.stderr)
                continue
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [dict(asdict(s), self=selfs[s.id]) for s in self.spans]


def _uncovered(span: Span, children: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Parts of the span's interval that none of its children cover."""
    parts, reach = [], span.start
    for start, end in sorted(children):
        if start > reach:
            parts.append((reach, min(start, span.end)))
        reach = max(reach, end)
    if reach < span.end:
        parts.append((reach, span.end))
    return parts


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's self time as a share of wall time.

    A span is self-active where none of its children runs.  Where k spans
    are self-active at once (pool threads), each gets 1/k of that time, so
    the self times of all spans add up to the wall time the spans cover;
    with one thread this is the plain duration minus child time.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    events = sorted((t, edge, s.id) for s in spans
                    for a, b in _uncovered(s, children[s.id]) for t, edge in ((a, 1), (b, -1)))
    share = {s.id: 0.0 for s in spans}
    active: set[int] = set()
    prev = 0.0
    for t, edge, sid in events:
        if active:
            for a in active:
                share[a] += (t - prev) / len(active)
        prev = t
        if edge > 0:
            active.add(sid)
        else:
            active.discard(sid)
    return share
