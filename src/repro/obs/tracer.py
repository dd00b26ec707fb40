"""Nested-span tracing with a pay-nothing no-op default.

The observability layer's first principle is that *instrumented code must
cost ~nothing when nobody is watching*: every hot path in the solver
stack opens a span per **solve** (never per iteration), and the default
tracer is a :class:`NoopTracer` whose spans are a single shared object
with empty methods.  Enabling tracing is one call —
``set_tracer(Tracer())`` or ``with use_tracer(Tracer()): ...`` — after
which the same call sites produce a full nested-span trace with wall and
CPU time, attributes, and exception status, exportable as JSONL for
``python -m repro.obs summarize``.

Clocks are injectable (wall and CPU separately) so tests can drive span
timings deterministically.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "jsonable",
    "SpanRecord",
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "current_span",
]


def jsonable(value: object) -> object:
    """Coerce a value to something ``json.dumps`` accepts.

    Numpy scalars and arrays expose ``tolist()`` (so a 1-element array
    stays a 1-element list); tuples become lists and dict keys strings;
    everything else unknown falls back to ``repr`` so an exotic value
    can never break trace export or a benchmark's result file.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        try:
            return jsonable(tolist())
        except (TypeError, ValueError):
            return repr(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return repr(value)


@dataclass
class SpanRecord:
    """One finished span (or instantaneous event) as exported to JSONL.

    ``kind`` is ``"span"`` for timed regions and ``"event"`` for
    zero-duration marks (ladder rung outcomes, breaker flips, chaos
    injections); ``start_s`` is relative to the tracer's epoch so traces
    from different runs line up at zero.
    """

    kind: str
    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    start_s: float
    wall_s: float
    cpu_s: float
    status: str
    error: Optional[str]
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
            "error": self.error,
            "attrs": {k: jsonable(v) for k, v in self.attrs.items()},
        }


class Span:
    """An open span: a context manager that records itself on exit.

    Attributes added with :meth:`set` ride along in the exported record;
    an exception propagating through the span marks it ``status="error"``
    with the exception type and message (and is re-raised, never
    swallowed).
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth",
                 "_tracer", "_start_wall", "_start_cpu")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], depth: int, attrs: Dict[str, object]):
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self._tracer = tracer
        self._start_wall = 0.0
        self._start_cpu = 0.0

    @property
    def active(self) -> bool:
        return True

    def set(self, **attrs: object) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self._tracer._exit(self, exc_type, exc)
        return False  # never suppress


class _NoopSpan:
    """The shared do-nothing span: one instance serves every disabled
    call site, so a solve instrumented under the default tracer pays one
    attribute lookup and an empty method call."""

    __slots__ = ()

    @property
    def active(self) -> bool:
        return False

    def set(self, **_attrs: object) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Records nested spans and events; exports JSONL.

    Parameters
    ----------
    wall_clock:
        Monotonic wall-time source (default ``time.perf_counter``).
    cpu_clock:
        Process CPU-time source (default ``time.process_time``).

    Both are injectable for deterministic tests.  The tracer is
    single-threaded by design — the solver stack is synchronous — and
    keeps every finished :class:`SpanRecord` in :attr:`records` in
    finish order (children before parents, like any trace).
    """

    enabled = True

    def __init__(
        self,
        wall_clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
    ):
        self._wall = wall_clock
        self._cpu = cpu_clock
        self._epoch = wall_clock()
        self.records: List[SpanRecord] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # ---- span lifecycle ------------------------------------------------------
    def span(self, name: str, **attrs: object) -> Span:
        """Open a span; use as ``with tracer.span("convex.admm.solve"):``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        return Span(
            self, name, span_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            attrs=dict(attrs),
        )

    def _enter(self, span: Span) -> None:
        self._stack.append(span)
        span._start_wall = self._wall()
        span._start_cpu = self._cpu()

    def _exit(self, span: Span, exc_type, exc) -> None:
        wall = self._wall() - span._start_wall
        cpu = self._cpu() - span._start_cpu
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)
        status = "ok" if exc_type is None else "error"
        error = None if exc_type is None else f"{exc_type.__name__}: {exc}"
        self._append(SpanRecord(
            kind="span",
            name=span.name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            depth=span.depth,
            start_s=span._start_wall - self._epoch,
            wall_s=wall,
            cpu_s=cpu,
            status=status,
            error=error,
            attrs=span.attrs,
        ))

    def _append(self, record: SpanRecord) -> None:
        """Retention hook: subclasses (e.g. ``SampledTracer``) decide
        here which finished records to keep."""
        self.records.append(record)

    @property
    def current(self) -> Span:
        """The innermost open span (the no-op span when none is open)."""
        return self._stack[-1] if self._stack else NOOP_SPAN  # type: ignore[return-value]

    # ---- events --------------------------------------------------------------
    def event(self, name: str, **attrs: object) -> None:
        """Record an instantaneous, zero-duration mark (rung change,
        breaker flip, chaos injection) parented to the current span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._append(SpanRecord(
            kind="event",
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            start_s=self._wall() - self._epoch,
            wall_s=0.0,
            cpu_s=0.0,
            status="ok",
            error=None,
            attrs=dict(attrs),
        ))

    # ---- export --------------------------------------------------------------
    def jsonl_lines(self) -> Iterator[str]:
        for record in self.records:
            yield json.dumps(record.to_dict(), sort_keys=True)

    def export_jsonl(self, path) -> int:
        """Write one JSON object per line; returns the record count."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")
        return len(self.records)


class NoopTracer:
    """The default tracer: every span is the shared no-op span, every
    event is dropped.  ``enabled`` is False so call sites can gate any
    genuinely per-iteration work behind one attribute check."""

    enabled = False

    def span(self, _name: str, **_attrs: object) -> _NoopSpan:
        return NOOP_SPAN

    def event(self, _name: str, **_attrs: object) -> None:
        return None

    @property
    def current(self) -> _NoopSpan:
        return NOOP_SPAN

    @property
    def records(self) -> List[SpanRecord]:
        return []


NOOP_TRACER = NoopTracer()

_current_tracer = NOOP_TRACER


def get_tracer():
    """The process-wide tracer instrumented code reports to (no-op by
    default — see :func:`set_tracer` / :func:`use_tracer`)."""
    return _current_tracer


def set_tracer(tracer) -> None:
    """Install *tracer* globally; pass :data:`NOOP_TRACER` to disable."""
    global _current_tracer
    _current_tracer = tracer


class use_tracer:
    """Context manager: install a tracer for a block, then restore.

    >>> t = Tracer()
    >>> with use_tracer(t):
    ...     run_instrumented_code()
    >>> t.export_jsonl("trace.jsonl")
    """

    def __init__(self, tracer):
        self._tracer = tracer
        self._previous = None

    def __enter__(self):
        self._previous = get_tracer()
        set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_tracer(self._previous)
        return False


def current_span():
    """The innermost open span of the active tracer — the hook solvers
    use to attach outcome attributes without re-indenting their bodies."""
    return _current_tracer.current
