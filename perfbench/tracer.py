"""In-memory spans and counters recorded around calls into provkit.

The tracer lives in the benchmark, not in the package: each span wraps one
call from benchmark code (or one module attribute patched for the duration
of a replay), so ``src/`` runs unmodified.  Spans are kept in a list and
only summarised when the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    phase: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Records (name, start, end, parent) spans and named counts.

    A disabled tracer calls straight through and records nothing, so the
    untraced run pays no tracing cost.  Spans opened on a worker thread
    with no open span of its own take the innermost span of the thread
    that created the tracer as their parent, which keeps ``svm_train``
    calls made from the cross-validation thread pool under
    ``repeated_kfold``.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.phase = "setup"
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.gauges: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._owner_stack[-1] if self._owner_stack else None
        )
        with self._lock:
            s = Span(len(self.spans), name, self.phase,
                     None if parent is None else parent.sid, time.perf_counter())
            self.spans.append(s)
        stack.append(s)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += int(n)

    def gauge(self, name: str, value: int) -> None:
        """Record the latest value of a size (last write wins)."""
        if self.enabled:
            self.gauges[name] = int(value)

    @contextmanager
    def patched(self, module, attr: str, name: str, after=None):
        """Trace every call to ``module.attr`` made while the block runs.

        ``after(result)`` runs outside the span and may record counts taken
        from the return value.
        """
        if not self.enabled:
            yield
            return
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the part its children cover.

        Children of one span may overlap (threads), so the covered part is
        the length of the union of their intervals.
        """
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out

    def top_level_seconds(self, phase: str) -> float:
        """Summed duration of the outermost spans of one phase."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.parent is None and s.phase == phase
        )
