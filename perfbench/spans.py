"""In-memory span recorder for the traced benchmark runs.

A span is one timed call: its name, start, end, the index of the span that
was open when it started (its parent, -1 for a root), an optional tag the
benchmark derives from the call's arguments, and the name of the exception
the call raised, if any.  Spans stay in memory until the run ends.

Spans are recorded from outside the program: :meth:`Tracer.wrap` replaces a
module attribute with a timing wrapper, so it must be applied to the module
in which the *caller* looks the function up (``keyrate.expected_tallies``,
not ``channelsim.expected_tallies``, because ``keyrate`` imports it by
name).  :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "error")

    def __init__(self, name, start, end=0.0, parent=-1, tag=None, error=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tag = tag
        self.error = error

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of a single thread and patches functions."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, perf_counter(), parent=parent)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``tag(args, kwargs, result)`` is called after the call returns and
        its value is stored on the span; it runs outside the span's own
        interval but inside its parent's.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            s = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                s.error = type(exc).__name__
                raise
            finally:
                tracer._close(s)
            if tag is not None:
                s.tag = tag(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every function replaced by :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part of its interval
    that the union of its direct children covers."""
    children: dict = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo = max(c.start, cursor)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def root_of(spans, i: int) -> int:
    """Index of the root span above span ``i``."""
    while spans[i].parent >= 0:
        i = spans[i].parent
    return i


def ancestor_named(spans, i: int, name: str) -> int:
    """Index of the nearest ancestor of span ``i`` named ``name``, or -1."""
    i = spans[i].parent
    while i >= 0:
        if spans[i].name == name:
            return i
        i = spans[i].parent
    return -1
