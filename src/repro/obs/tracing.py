"""Evaluation tracing: lightweight nested spans with wall-time attributes.

A :class:`Span` is one timed unit of work -- an evaluation, a compile, one
operator of a plan, a view refresh decision, an expiration sweep, a
replication round -- with a name, key/value attributes (tuple counts,
engine, τ), and children.  A :class:`Tracer` hands spans out and remembers
the most recent root so ``Database.trace_last_query()`` and ``EXPLAIN
ANALYZE`` can render what just happened.

Two usage styles, both exception-safe:

* the context manager (``with tracer.span("evaluate", engine="compiled")``)
  for code whose extent is lexical -- an exception closes the span and
  stamps an ``error`` attribute before propagating;
* explicit children (``span.child("op:Join")`` + ``span.add_time(dt)``)
  for the compiled engine's lazy pipelines, where an operator's work is
  spread over the consumer's pulls and durations are accumulated
  incrementally rather than bracketed.

Tracing is opt-in per tracer (``enabled``); a disabled tracer's ``span``
returns the shared no-op span, itself a context manager, so instrumented
code pays one flag check when tracing is off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "NOOP_SPAN"]


class Span:
    """One node of a trace tree."""

    __slots__ = ("name", "attrs", "children", "_elapsed", "_started")

    def __init__(self, name: str, **attrs: object) -> None:
        self.name = name
        self.attrs: Dict[str, object] = attrs
        self.children: List["Span"] = []
        self._elapsed = 0.0
        self._started: Optional[float] = None

    # -- timing --------------------------------------------------------------

    def start(self) -> "Span":
        """Begin bracketed timing (pairs with :meth:`finish`)."""
        self._started = time.perf_counter()
        return self

    def finish(self) -> "Span":
        """End bracketed timing, accumulating into the span's duration."""
        if self._started is not None:
            self._elapsed += time.perf_counter() - self._started
            self._started = None
        return self

    def add_time(self, seconds: float) -> None:
        """Accumulate incremental duration (lazy-pipeline style)."""
        self._elapsed += seconds

    @property
    def duration_ms(self) -> float:
        """Accumulated duration in milliseconds (inclusive of children)."""
        return self._elapsed * 1000.0

    # -- structure -----------------------------------------------------------

    def child(self, name: str, **attrs: object) -> "Span":
        """Create and attach a child span (not started)."""
        span = Span(name, **attrs)
        self.children.append(span)
        return span

    def note(self, **attrs: object) -> "Span":
        """Attach or update attributes."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """The first span (depth-first) whose name matches exactly."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    # -- rendering -----------------------------------------------------------

    def render(self, indent: int = 0, timings: bool = True) -> str:
        """An indented tree rendering (``timings=False`` for golden tests)."""
        attrs = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        line = "  " * indent + self.name
        if attrs:
            line += f" [{attrs}]"
        if timings:
            line += f" ({self.duration_ms:.3f} ms)"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1, timings))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_ms:.3f} ms, "
            f"children={len(self.children)})"
        )


class _NoopSpan(Span):
    """A shared inert span: absorbs children and attributes, keeps nothing."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("noop")

    def child(self, name: str, **attrs: object) -> "Span":
        return self

    def note(self, **attrs: object) -> "Span":
        return self

    def start(self) -> "Span":
        return self

    def finish(self) -> "Span":
        return self

    def add_time(self, seconds: float) -> None:
        pass

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


#: The shared inert span handed out by disabled tracers.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Produces spans and remembers the most recent root.

    >>> tracer = Tracer(enabled=True)
    >>> with tracer.span("evaluate", engine="compiled") as root:
    ...     with tracer.span("compile"):
    ...         pass
    >>> tracer.last.name
    'evaluate'
    >>> [child.name for child in tracer.last.children]
    ['compile']
    """

    __slots__ = ("enabled", "last", "_stack")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: The most recently completed root span.
        self.last: Optional[Span] = None
        self._stack: List[Span] = []

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def span(self, name: str, **attrs: object):
        """A timed span; nests under the innermost active span.

        On an exception the span still finishes, records
        ``error=<ExceptionType>``, and the exception propagates.
        """
        if not self.enabled:
            return NOOP_SPAN
        return self._recorded(name, attrs)

    @contextmanager
    def _recorded(self, name: str, attrs: Dict[str, object]):
        if self._stack:
            span = self._stack[-1].child(name, **attrs)
        else:
            span = Span(name, **attrs)
        self._stack.append(span)
        span.start()
        try:
            yield span
        except BaseException as error:
            span.note(error=type(error).__name__)
            raise
        finally:
            span.finish()
            self._stack.pop()
            if not self._stack:
                self.last = span

    def root(self, name: str, **attrs: object) -> Span:
        """An explicit (caller-managed) root span, recorded as ``last``.

        The caller is responsible for ``start()``/``finish()``; used where
        a span must outlive a lexical scope (the compiled pipelines).
        """
        span = Span(name, **attrs)
        self.last = span
        return span
