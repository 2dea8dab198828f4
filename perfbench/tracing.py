"""Span tracing from outside: wrappers around the public ``repro`` entry points.

The benchmark measures each layer from the outside: :class:`Tracer` replaces
a layer's public function or method with a wrapper that records one span per
call — name, start, end, parent span and the benchmark step it ran under —
and restores the original afterwards.  Nothing inside ``src/`` is changed.

Spans are kept in memory and written out once, at the end of the run.
A layer's *busy* time is the summed duration of its outermost spans; its
*self* time is the duration of each of its spans minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name of one benchmark step (the root of every traced call tree).
STEP_SPAN = "bench.step"


class Tracer:
    """Records spans around wrapped callables of a single-threaded process."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent index (-1 for a root), step, failed]``.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.step = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.step, False])
        self._stack.append(index)
        return index

    def close(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = failed
        self._stack.pop()

    def count(self, name: str, n: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + n

    def wrap(self, name: str, function: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``function`` with a span named ``name`` around every call.

        ``on_result(tracer, args, kwargs, result)`` runs after a successful
        call, outside the span, to tally layer counters such as lanes or hits.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, failed=True)
                tracer.count(f"{name}.raised.{type(exc).__name__}")
                raise
            tracer.close(index)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # -- installing --------------------------------------------------------

    def patch_method(self, cls: type, attribute: str, name: str, on_result: Optional[Callable] = None) -> None:
        """Wrap ``cls.attribute`` (defined on ``cls`` itself) for every instance."""
        original = cls.__dict__[attribute]
        self._restore.append((cls, attribute, original))
        setattr(cls, attribute, self.wrap(name, original, on_result))

    def patch_function(self, function: Callable, name: str, on_result: Optional[Callable] = None) -> None:
        """Wrap a module-level function in every ``repro`` module that binds it.

        Modules import functions by name (``from .thermal import
        solve_operating_point``), so the wrapper replaces each module global
        that *is* the original.  Raises ``ValueError`` if no module binds it.
        """
        wrapped = self.wrap(name, function, on_result)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._restore.append((module, attribute, function))
                    setattr(module, attribute, wrapped)
                    replaced += 1
        if not replaced:
            raise ValueError(f"no repro module binds {function!r}; the {name!r} layer would go untraced")

    def unpatch(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- analysis ----------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls", "busy_s", "self_s"}}`` over all spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        layers: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent, _step, _failed) in enumerate(self.spans):
            entry = layers.setdefault(name, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            if not self._nested_in_same(index):
                entry["busy_s"] += end - start
        return layers

    def _nested_in_same(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Any) -> None:
        """Dump every span as ``[name, start, end, parent, step, failed]``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "step", "failed"],
                       "spans": self.spans}, handle)
