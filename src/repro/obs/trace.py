"""Hierarchical wall-clock spans with a bounded ring and JSONL export.

The module-level API is the one hot paths use::

    from repro.obs import trace as obs_trace

    with obs_trace.span("session.solve", problem="coreness", lam=0.0) as sp:
        ...
        sp.set(rounds=rounds)

When no tracer is enabled (the default) ``span()`` returns a shared no-op
object, so an instrumented call site costs one module attribute read and one
``is None`` check.  Inner loops that would otherwise allocate a span per
round fetch the tracer once (``tracer = obs_trace.active()``) and call
:meth:`Tracer.record_span` with an explicit start/duration only when it is
not ``None`` — zero per-iteration work when disabled.

Span records are plain JSON-safe dicts::

    {"name": ..., "trace": ..., "span": ..., "parent": ...,
     "ts": <unix seconds>, "dur": <seconds>, "pid": ..., "tid": ...,
     "attrs": {...}}

Parenting is implicit through a per-thread span stack; spans recorded from
worker threads pass the submitting thread's :class:`SpanContext` explicitly
(``obs_trace.span(..., parent=ctx)``).

``read_jsonl`` / ``chrome_trace`` / ``summarize`` turn a recorded JSONL file
into a Perfetto-openable Chrome trace-event document or a per-span-name
latency table (``repro trace export --chrome`` / ``repro trace summarize``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import WireFormatError

__all__ = [
    "NOOP_SPAN",
    "Span",
    "SpanContext",
    "Tracer",
    "active",
    "chrome_trace",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "read_jsonl",
    "span",
    "summarize",
    "timed",
]

_IDS = itertools.count(1)


def _new_id() -> str:
    # ``itertools.count.__next__`` is atomic under the GIL; the pid prefix
    # keeps ids unique across processes that append to one JSONL file.
    return f"{os.getpid():x}-{next(_IDS):x}"


def _clean_attrs(attrs: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe scalars (numpy included)."""
    if not attrs:
        return {}
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            out[str(key)] = value
        else:
            try:
                out[str(key)] = float(value)
            except (TypeError, ValueError):
                out[str(key)] = str(value)
    return out


class SpanContext:
    """The portable identity of a span: ``(trace_id, span_id)``."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanContext(trace={self.trace_id!r}, span={self.span_id!r})"


_LOCAL = threading.local()


def _stack() -> List["Span"]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    name = ""
    seconds = None
    attrs: Dict[str, Any] = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self

    @property
    def context(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _SuppressedSpan:
    """Context manager that silences tracing on this thread.

    Records nothing, but suppresses every span on this thread for its
    dynamic extent (``active()`` answers ``None`` and ``span()`` returns the
    no-op inside it), so a caller can time a block as one span without the
    spans of everything it calls.  Stateless, hence shared.
    """

    __slots__ = ()
    name = ""
    seconds = None
    attrs: Dict[str, Any] = {}

    def __enter__(self) -> "_SuppressedSpan":
        _LOCAL.suppressed = getattr(_LOCAL, "suppressed", 0) + 1
        return self

    def __exit__(self, *exc) -> bool:
        _LOCAL.suppressed = getattr(_LOCAL, "suppressed", 1) - 1
        return False

    def set(self, **attrs) -> "_SuppressedSpan":
        return self

    @property
    def context(self) -> None:
        return None


SUPPRESSED_SPAN = _SuppressedSpan()


class Span:
    """A live span; use as a context manager (``with obs.span(...)``)."""

    __slots__ = ("name", "attrs", "trace_id", "span_id", "parent_id",
                 "start_unix", "seconds", "_tracer", "_start_perf", "_parent")

    def __init__(self, tracer: "Tracer", name: str,
                 parent: Optional[SpanContext], attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = str(name)
        self.attrs = attrs
        self._parent = parent
        self.trace_id = ""
        self.span_id = _new_id()
        self.parent_id: Optional[str] = None
        self.start_unix = 0.0
        self.seconds: Optional[float] = None
        self._start_perf = 0.0

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        parent = self._parent
        stack = _stack()
        if parent is None and stack:
            parent = stack[-1].context
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = _new_id()
        stack.append(self)
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._start_perf
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - unbalanced exit
            stack.remove(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._record({
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "ts": self.start_unix,
            "dur": self.seconds,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": _clean_attrs(self.attrs),
        })
        return False


class _Timed:
    """Always-measuring context manager; records a span only when enabled.

    The elapsed wall time is available as ``.seconds`` whether or not
    tracing is on, so experiment scripts can keep reporting durations while
    traced runs additionally get a span.
    """

    __slots__ = ("name", "attrs", "seconds", "_start_perf", "_start_unix")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = str(name)
        self.attrs = attrs
        self.seconds: Optional[float] = None
        self._start_perf = 0.0
        self._start_unix = 0.0

    def __enter__(self) -> "_Timed":
        self._start_unix = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._start_perf
        tracer = active()   # honours SUPPRESSED_SPAN, unlike _TRACER
        if tracer is not None:
            tracer.record_span(self.name, start_unix=self._start_unix,
                               duration=self.seconds,
                               parent=current_context(), attrs=self.attrs)
        return False

    def set(self, **attrs) -> "_Timed":
        self.attrs.update(attrs)
        return self


def timed(name: str, **attrs) -> _Timed:
    """Measure a block's wall time; ``.seconds`` is set on exit.

    Unlike :func:`span`, the measurement happens even when tracing is
    disabled — only the span record is conditional.
    """
    return _Timed(name, attrs)


class Tracer:
    """Bounded in-memory ring of span records plus an optional JSONL sink."""

    def __init__(self, *, ring_size: int = 4096,
                 jsonl_path: Optional[str] = None):
        ring_size = int(ring_size)
        if ring_size < 1:
            raise ValueError("tracer ring_size must be >= 1")
        self.ring_size = ring_size
        self.jsonl_path = os.fspath(jsonl_path) if jsonl_path is not None else None
        self._ring: deque = deque(maxlen=ring_size)
        self._lock = threading.Lock()
        self._jsonl = (open(self.jsonl_path, "a", encoding="utf-8")
                       if self.jsonl_path is not None else None)
        self.emitted = 0

    def _record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._ring.append(record)
            self.emitted += 1
            if self._jsonl is not None:
                try:
                    self._jsonl.write(json.dumps(record, separators=(",", ":"))
                                      + "\n")
                    self._jsonl.flush()
                except (OSError, ValueError):  # pragma: no cover - sink gone
                    pass

    def record_span(self, name: str, *, start_unix: float, duration: float,
                    parent: Optional[SpanContext] = None,
                    attrs: Optional[Dict[str, Any]] = None) -> SpanContext:
        """Record an explicitly-timed span (for loops that avoid allocation)."""
        trace_id = parent.trace_id if parent is not None else _new_id()
        span_id = _new_id()
        self._record({
            "name": str(name),
            "trace": trace_id,
            "span": span_id,
            "parent": parent.span_id if parent is not None else None,
            "ts": float(start_unix),
            "dur": max(0.0, float(duration)),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": _clean_attrs(attrs),
        })
        return SpanContext(trace_id, span_id)

    def spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def close(self) -> None:
        with self._lock:
            if self._jsonl is not None:
                try:
                    self._jsonl.close()
                except OSError:  # pragma: no cover
                    pass
                self._jsonl = None


_TRACER: Optional[Tracer] = None


def enable(*, ring_size: int = 4096,
           jsonl_path: Optional[str] = None) -> Tracer:
    """Install (and return) a process-wide tracer; replaces any previous one.

    Every span is recorded (into the ring, and the JSONL file when given).
    """
    global _TRACER
    previous = _TRACER
    _TRACER = Tracer(ring_size=ring_size, jsonl_path=jsonl_path)
    if previous is not None:
        previous.close()
    return _TRACER


def disable() -> None:
    """Tear the tracer down; ``span()`` reverts to the shared no-op."""
    global _TRACER
    previous = _TRACER
    _TRACER = None
    if previous is not None:
        previous.close()


def enabled() -> bool:
    return _TRACER is not None


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` — the cheap hot-loop gate.

    Answers ``None`` inside a :data:`SUPPRESSED_SPAN`'s extent, so hot loops
    gating on ``active()`` drop their records along with the rest of the
    suppressed block.
    """
    if getattr(_LOCAL, "suppressed", 0) > 0:
        return None
    return _TRACER


def span(name: str, parent: Optional[SpanContext] = None, **attrs):
    """Open a span; returns the shared no-op when tracing is disabled or
    suppressed on this thread."""
    tracer = _TRACER
    if tracer is None or getattr(_LOCAL, "suppressed", 0) > 0:
        return NOOP_SPAN
    return Span(tracer, name, parent, attrs)


def current_context() -> Optional[SpanContext]:
    """The innermost open span's context on this thread, if any."""
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        return stack[-1].context
    return None


# --------------------------------------------------------------------------
# Trace file tooling (CLI back-end): JSONL -> Chrome trace / latency table.
# --------------------------------------------------------------------------

def read_jsonl(path) -> List[Dict[str, Any]]:
    """Load span records from a JSONL trace file."""
    records: List[Dict[str, Any]] = []
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise WireFormatError(
                        f"{path}:{lineno}: not valid JSON ({exc})") from exc
                if not isinstance(record, dict) or "name" not in record:
                    raise WireFormatError(
                        f"{path}:{lineno}: not a span record")
                records.append(record)
    except OSError as exc:
        raise WireFormatError(f"cannot read trace file {path}: {exc}") from exc
    return records


def chrome_trace(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Render span records as a Chrome trace-event document (Perfetto)."""
    events = []
    for record in records:
        attrs = record.get("attrs") or {}
        args = dict(attrs)
        args["trace"] = record.get("trace")
        args["span"] = record.get("span")
        if record.get("parent"):
            args["parent"] = record.get("parent")
        events.append({
            "name": record.get("name", "?"),
            "cat": "repro",
            "ph": "X",
            "ts": float(record.get("ts", 0.0)) * 1e6,
            "dur": max(0.0, float(record.get("dur", 0.0))) * 1e6,
            "pid": int(record.get("pid", 0)),
            "tid": int(record.get("tid", 0)),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate records into per-span-name latency rows (sorted by total)."""
    durations: Dict[str, List[float]] = {}
    for record in records:
        name = str(record.get("name", "?"))
        durations.setdefault(name, []).append(
            max(0.0, float(record.get("dur", 0.0))))
    rows = []
    for name, durs in durations.items():
        durs.sort()
        count = len(durs)
        total = sum(durs)
        rows.append({
            "name": name,
            "count": count,
            "total_seconds": total,
            "mean_seconds": total / count,
            "p50_seconds": durs[(count - 1) // 2],
            "p95_seconds": durs[min(count - 1, (95 * count) // 100)],
            "max_seconds": durs[-1],
        })
    rows.sort(key=lambda row: (-row["total_seconds"], row["name"]))
    return rows
