"""Outside-in span tracer for the traced benchmark run.

The tracer never edits the program: it replaces public functions at the
module attributes their callers look them up through, records a span per
call, and puts the originals back on :meth:`Tracer.uninstall`.  A span is
``(id, parent, name, pid, start, end, raised)`` on the system-wide
monotonic clock, so spans from forked processes line up with the
parent's.

Forked children inherit the span stack, so a span opened in a child
names its parent in the process that forked it.  Each process that is
not the tracing process appends its spans to ``<spool>/<pid>.jsonl``
whenever its outermost span closes (forked children leave through
``os._exit`` and never run exit hooks); :meth:`Tracer.spans` merges the
spool with the in-memory spans.

Self time is a span's duration minus the durations of its children.  A
child in another process counts against its parent when the parent
waits for it (a supervised attempt waits for its cell subprocess); the
job root does not wait for its scheduler workers, so spans whose parent
is the root but which run in another process start a *worker lane* of
their own.  Within the main lane, layer self times plus the root's self
time (``other``) add up to the job wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "job"

#: (module, attribute path, layer) for every span the tracer records.
#: An attribute path may go through a class (``Budget.tick``).
Wrap = Tuple[str, str, str]


class Tracer:
    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.counts: Dict[str, int] = defaultdict(int)
        self._spans: List[list] = []
        self._stack: List[Tuple[str, int]] = []
        self._next = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------
    def install(self, wraps: Sequence[Wrap], counters: Sequence[Wrap] = ()) -> None:
        for module, path, layer in wraps:
            self.patch(module, path, lambda fn, layer=layer: self.wrap(fn, layer))
        for module, path, counter in counters:
            self.patch(module, path, lambda fn, name=counter: self._counted(fn, name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def patch(self, module: str, path: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.path`` with ``make(original)`` until uninstall."""
        owner: Any = importlib.import_module(module)
        *parents, attribute = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def _counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` recording one ``layer`` span per call."""
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)

        return spanned

    # -- recording ----------------------------------------------------------
    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self, name: str) -> list:
        pid = os.getpid()
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        record = [f"{pid}.{self._next}", parent[0] if parent else None, name, pid,
                  time.monotonic(), None, False]
        self._stack.append((record[0], pid))
        return record

    def _close(self, record: list, raised: bool) -> None:
        record[5] = time.monotonic()
        record[6] = raised
        self._stack.pop()
        self._spans.append(record)
        pid = record[3]
        # A forked process writes its spans out when its outermost span closes.
        if pid != self.pid and (not self._stack or self._stack[-1][1] != pid):
            with open(self.spool / f"{pid}.jsonl", "a", encoding="utf-8") as handle:
                for span in self._spans:
                    if span[3] == pid:
                        handle.write(json.dumps(span) + "\n")
            self._spans = [span for span in self._spans if span[3] != pid]

    def spans(self) -> List[list]:
        """Every closed span of this process and of its forked children."""
        merged = list(self._spans)
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                merged.extend(json.loads(line) for line in handle if line.strip())
        return merged

    def reset(self) -> None:
        self._spans = []
        self.counts.clear()
        for path in self.spool.glob("*.jsonl"):
            path.unlink()


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.record: Optional[list] = None

    def __enter__(self) -> "_Span":
        self.record = self.tracer._open(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self.record is not None
        self.tracer._close(self.record, exc_type is not None)


def summarize(spans: List[list]) -> Dict[str, Any]:
    """Per-layer self time, calls and raises over one or more job roots.

    Returns ``{"layers": {name: {"self_s", "wall_s", "calls", "raised"}},
    "wall_s", "other_s", "main_self_s", "lanes_busy_s"}``, where
    ``main_self_s + other_s == wall_s`` up to float rounding.
    """
    by_id = {span[0]: span for span in spans}
    children: Dict[str, float] = defaultdict(float)
    detached = set()
    for span in spans:
        parent = by_id.get(span[1])
        if parent is None:
            continue
        if parent[2] == ROOT and parent[3] != span[3]:
            detached.add(span[0])
            continue
        children[parent[0]] += span[5] - span[4]

    def lane_root(span: list) -> list:
        while span[1] in by_id and span[0] not in detached:
            span = by_id[span[1]]
        return span

    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "raised": 0}
    )
    wall = other = main_self = lanes_busy = 0.0
    for span in spans:
        duration = span[5] - span[4]
        own = duration - children[span[0]]
        if span[2] == ROOT:
            wall += duration
            other += own
            continue
        layer = layers[span[2]]
        layer["self_s"] += own
        layer["wall_s"] += duration
        layer["calls"] += 1
        layer["raised"] += int(bool(span[6]))
        if lane_root(span)[2] == ROOT:
            main_self += own
        elif span[0] in detached:
            lanes_busy += duration
    return {
        "layers": dict(layers),
        "wall_s": wall,
        "other_s": other,
        "main_self_s": main_self,
        "lanes_busy_s": lanes_busy,
    }
