"""Per-layer tracing applied from outside the package.

A :class:`Tracer` replaces each layer's public entry points with wrappers
that record spans (name, start, end, parent id) or plain call counts, and
restores the originals on :meth:`Tracer.uninstall`.  Nothing in
``repeaterchain`` knows about it; when tracing is off no wrapper exists.

Module functions are replaced in every loaded ``repeaterchain`` module that
bound them by name (``from .statespace import enumerate_states``), so calls
routed through the CLI are seen.  An entry point that no longer exists is
recorded as absent instead of failing, so a refactor that removes or
renames one leaves the rest of the trace intact.

With ``memory=True`` every span also records its peak memory above the
level at which it opened, from :mod:`tracemalloc` (which slows allocation
heavy code several times, so timings come from a separate run without it).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
import weakref
from collections import Counter

PACKAGE = "repeaterchain"

# (metric stem, module, attribute path): each call becomes a span.
SPAN_POINTS = (
    ("cli.main", "repeaterchain.cli", "main"),
    ("statespace.enumerate", "repeaterchain.statespace", "enumerate_states"),
    ("statespace.partition", "repeaterchain.statespace", "partition"),
    ("mdp.build", "repeaterchain.mdp", "TransitionModel.build"),
    ("mdp.respecialized", "repeaterchain.mdp", "TransitionModel.respecialized"),
    ("mdp.phase_a_matrix", "repeaterchain.mdp", "TransitionModel.phase_a_matrix"),
    ("mdp.choice_table", "repeaterchain.mdp", "TransitionModel.choice_table"),
    ("mdp.bunch", "repeaterchain.mdp", "bunch"),
    ("solver.pi", "repeaterchain.solver", "policy_iteration"),
    ("solver.vi", "repeaterchain.solver", "value_iteration"),
    ("solver.evaluate", "repeaterchain.solver", "evaluate_policy"),
    ("solver.expand", "repeaterchain.solver", "expand_policy"),
    ("solver.expand", "repeaterchain.solver", "expand_values"),
    ("sim.estimate", "repeaterchain.sim", "estimate"),
)

# (metric name, module, attribute path): calls are counted, no span.  These
# run hundreds of thousands of times per solve.
COUNT_POINTS = (
    ("chain.swap_outcomes_calls", "repeaterchain.chain", "swap_outcomes"),
    ("chain.state_constructions", "repeaterchain.chain", "ChainState.__post_init__"),
    ("sim.rng_constructions", "repeaterchain.sim", "trial_rng"),
)

# Every count a tracer produces: the call counters above, and the sizes and
# iteration counts that Tracer._observe reads off return values.
COUNT_NAMES = tuple(name for name, _, _ in COUNT_POINTS) + (
    "statespace.boundary_states",
    "statespace.intermediate_states",
    "mdp.choice_rows",
    "mdp.nnz",
    "solver.pi_rounds",
    "solver.vi_sweeps",
    "sim.trials",
    "sim.slots",
)

_MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "base", "peak")

    def __init__(self, span_id: int, name: str, parent: int | None, start: float, base: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.base = base  # traced bytes when the span opened
        self.peak = base  # highest traced bytes while it was open

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "peak_bytes": self.peak - self.base,
        }


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw class-dict value or function) or None if absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner, _, attr = path.rpartition(".")
    target = module
    if owner:
        target = getattr(module, owner, None)
        if not isinstance(target, type):
            return None
        raw = target.__dict__.get(attr)
    else:
        raw = getattr(module, attr, None)
    if raw is None:
        return None
    return target, attr, raw


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self, memory: bool = False, span_points=SPAN_POINTS, count_points=COUNT_POINTS):
        self.memory = memory
        self.span_points = span_points
        self.count_points = count_points
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self._seen_models: dict[str, weakref.WeakSet] = {}

    # -- installation ----------------------------------------------------------------

    def install(self) -> "Tracer":
        self.absent.clear()
        for stem, module_name, path in self.span_points:
            self._patch(module_name, path, lambda fn, stem=stem: self._span_wrapper(stem, fn))
        for name, module_name, path in self.count_points:
            self._patch(module_name, path, lambda fn, name=name: self._count_wrapper(name, fn))
        if self.memory:
            tracemalloc.start()
        return self

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        found = _resolve(module_name, path)
        if found is None or not callable(getattr(found[2], "__func__", found[2])):
            self.absent.append(f"{module_name}.{path}")
            return
        owner, attr, raw = found
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make_wrapper(raw.__func__))
            else:
                wrapped = make_wrapper(raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        wrapped = make_wrapper(raw)
        # Rebind every module-level alias of the function inside the package.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for alias, value in list(vars(module).items()):
                if value is raw:
                    self._restore.append((module, alias, raw))
                    setattr(module, alias, wrapped)

    # -- wrappers --------------------------------------------------------------------

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, stem: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(stem)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._observe(stem, args, result)
            return result

        return traced

    def _open(self, name: str) -> Span:
        base = 0
        if self.memory:
            base, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        parent_id = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent_id, time.perf_counter(), base)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if self._stack:
                parent = self._stack[-1]
                parent.peak = max(parent.peak, span.peak)

    def _first_time(self, stem: str, obj) -> bool:
        """True on the first call of ``stem`` for this object (models cache matrices)."""
        seen = self._seen_models.setdefault(stem, weakref.WeakSet())
        try:
            if obj in seen:
                return False
            seen.add(obj)
        except TypeError:  # not weak-referenceable: count every call
            pass
        return True

    def _observe(self, stem: str, args: tuple, result) -> None:
        """Sizes and iteration counts read off an entry point's return value."""
        counts = self.counts
        if stem == "statespace.enumerate":
            counts["statespace.boundary_states"] += getattr(result, "num_boundary", 0)
            counts["statespace.intermediate_states"] += getattr(result, "num_intermediate", 0)
        elif stem in ("mdp.choice_table", "mdp.phase_a_matrix"):
            if args and self._first_time(stem, args[0]):
                matrix = getattr(result, "matrix", result)
                counts["mdp.nnz"] += int(getattr(matrix, "nnz", 0))
                if stem == "mdp.choice_table":
                    counts["mdp.choice_rows"] += int(getattr(matrix, "shape", (0,))[0])
        elif stem in ("solver.pi", "solver.vi") and isinstance(result, tuple) and result:
            key = "solver.pi_rounds" if stem == "solver.pi" else "solver.vi_sweeps"
            counts[key] += int(getattr(result[0], "iterations", 0))
        elif stem == "sim.estimate":
            histogram = getattr(result, "histogram", None) or {}
            counts["sim.trials"] += int(getattr(result, "trials", 0))
            counts["sim.slots"] += int(sum(t * c for t, c in histogram.items()))

    # -- summaries -------------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per stem: calls, self seconds and peak MB."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0, "peak_mb": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span.end - span.start - child_time[span.id]
            entry["peak_mb"] = max(entry["peak_mb"], (span.peak - span.base) / _MB)
        return totals
