"""In-memory span recorder for the traced run.

Spans are recorded around the benchmark's own calls into each layer
(name, start, end, parent span, and a trace id shared by the spans of
one sample or request), kept in memory, and written out once at the end
as Chrome-trace JSON (loadable in Perfetto).  Spans inside the program
are not recorded here.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional


class Spans:
    def __init__(self) -> None:
        self._events: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, *, trace: Optional[str] = None,
             parent: Optional[int] = None, **attrs: Any):
        stack = self._stack()
        outer = stack[-1] if stack else None
        if parent is None and outer is not None:
            parent = outer["id"]
        if trace is None and outer is not None:
            trace = outer["trace"]
        with self._lock:
            sid = next(self._ids)
        record = {"id": sid, "trace": trace}
        stack.append(record)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            event = {
                "name": name,
                "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": threading.get_ident() % 100000,
                "args": {"id": sid, "parent": parent, "trace": trace,
                         **attrs},
            }
            with self._lock:
                self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": self._events}, fh)


class NoSpans:
    """The untraced stand-in: every span is a shared no-op context."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, **_: Any):
        return self._NULL
