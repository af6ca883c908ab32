"""In-memory span tracing around the package's public functions.

The tracer replaces a function by a timing wrapper in the namespace of the
module that calls it (``codedreduce.engine.decode_row`` is what the engine's
``_combine`` looks up at call time), so every call made through that name is
recorded without any change to the package.  Spans are kept in memory as
``[name, start, end, parent, run_id]`` and written out once, when the
benchmark ends.  Nothing is patched outside ``with tracer.installed(...)``.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple


class Target(NamedTuple):
    """One function as one calling module sees it."""

    module: object
    attr: str
    span: str | Callable  # a name, or a function of (args, kwargs) giving one
    # Called as observe(tracer, args, kwargs, result_or_exception).
    observe: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        # Per run id: free-form observations the target hooks record.
        self.notes: dict[int, dict] = defaultdict(dict)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn: Callable, span, observe: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            sid = self._open(span if isinstance(span, str) else span(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if observe is not None:
                    observe(self, args, kwargs, err)
                raise
            finally:
                self._close(sid)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        saved = []
        try:
            for t in targets:
                original = getattr(t.module, t.attr)
                saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self.wrap(original, t.span, t.observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (duration
        minus the time covered by direct child spans) within one run id."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return dict(out)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "name", "start", "end", "parent", "run_id"])
            for sid, (name, start, end, parent, rid) in enumerate(self.spans):
                writer.writerow([sid, name, repr(start), repr(end), parent, rid])
