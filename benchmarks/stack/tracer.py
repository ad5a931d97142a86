"""Span tracer for the stack benchmark's traced run.

Timing wrappers are installed *from here* around the layers' public
functions (nothing under ``src/`` knows it is being traced) and removed
again before any untraced repetition runs.  Every call of a wrapped
function records one span — name, start, end, parent — in memory; the
spans are summarised into per-name self times and written out as a
Chrome trace only after the traced operation has returned.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of a tree sum to the root's duration and a
layer is charged only for the time spent in its own code (plus any
callee nobody wrapped).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: One wrap target: (span name, module, dotted attribute path inside it).
Target = Tuple[str, str, str]

# Span record layout (a list, because ``end`` is filled in on exit).
NAME, START, END, PARENT, THREAD = range(5)


class Tracer:
    """Records spans and patches wrap targets in and out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._local = threading.local()
        # Spans opened on another thread (the serve daemon's ingest
        # thread) hang off whatever the installing thread has open, so
        # the tree stays connected across the thread hop.
        self._home_stack = self._stack()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording

    def _stack(self) -> List[list]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._home_stack and self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = None
        span = [name, self.clock(), None, parent, threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = self.clock()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        open_span, close_span = self._open, self._close

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = open_span(name)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(span)

        return traced

    # ------------------------------------------------------------------
    # Patching

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target in place.

        A method is replaced on its class.  A module-level function is
        replaced in *every* loaded module that holds a reference to it,
        because ``from x import f`` copies the binding and patching
        ``x.f`` alone would leave those callers untraced.
        """
        for name, module_name, path in targets:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[attribute]
            wrapper = self.wrap(name, original)
            if parents:
                holders = [owner]
            else:
                holders = [
                    module
                    for module in list(sys.modules.values())
                    if module is not None
                    and getattr(module, "__dict__", {}).get(attribute)
                    is original
                ]
            for holder in holders:
                self._patches.append((holder, attribute, original))
                setattr(holder, attribute, wrapper)

    def restore(self) -> None:
        while self._patches:
            holder, attribute, original = self._patches.pop()
            setattr(holder, attribute, original)

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Summaries

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Per span name: (summed self seconds, number of spans)."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                child_time[id(parent)] = (
                    child_time.get(id(parent), 0.0)
                    + span[END] - span[START]
                )
        summary: Dict[str, Tuple[float, int]] = {}
        for span in self.spans:
            own = span[END] - span[START] - child_time.get(id(span), 0.0)
            seconds, calls = summary.get(span[NAME], (0.0, 0))
            summary[span[NAME]] = (seconds + max(own, 0.0), calls + 1)
        return summary

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace "complete" events (``ph: X``,
        microseconds), loadable in chrome://tracing or Perfetto."""
        if not self.spans:
            return {"traceEvents": []}
        origin = self.spans[0][START]
        index = {id(span): i for i, span in enumerate(self.spans)}
        events = []
        for i, span in enumerate(self.spans):
            parent: Optional[list] = span[PARENT]
            events.append(
                {
                    "name": span[NAME],
                    "ph": "X",
                    "ts": round((span[START] - origin) * 1e6, 3),
                    "dur": round((span[END] - span[START]) * 1e6, 3),
                    "pid": 1,
                    "tid": span[THREAD],
                    "args": {
                        "id": i,
                        "parent": (
                            index[id(parent)] if parent is not None else None
                        ),
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
