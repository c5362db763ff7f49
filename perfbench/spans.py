"""In-memory span recording, installed by wrapping functions from outside.

A span is ``(name, start, end, parent, request)``.  Spans are recorded by
replacing a public function at the module (or class) attribute its caller
looks up with a wrapper that times the call; the program under test is
never edited.  Parents come from a context variable, so nesting follows
the call stack within one thread or asyncio task.  Work handed to another
thread or task starts a new root.

A layer's self time is its span's duration minus the durations of its
direct children; summed over every span, self times add up to the time
spent inside wrapped functions.
"""

import contextvars
import functools
import inspect
import time

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request


class SpanRecorder:
    """Collects spans; owns the patches it installed."""

    def __init__(self):
        self.spans = []
        self._patches = []

    # -- recording -----------------------------------------------------

    def _open(self, name, request=None, root=False):
        if request is not None:
            request_token = _REQUEST.set(request)
        else:
            request_token = None
        parent = None if root else _CURRENT.get()
        span = Span(name, time.perf_counter(), parent, _REQUEST.get())
        self.spans.append(span)
        return span, _CURRENT.set(span), request_token

    def _close(self, span, token, request_token):
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        if request_token is not None:
            _REQUEST.reset(request_token)

    def event(self, name):
        """A zero-length span: a count that can be windowed like spans."""
        now = time.perf_counter()
        span = Span(name, now, None, _REQUEST.get())
        span.end = now
        self.spans.append(span)

    # -- installation --------------------------------------------------

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` to ``replacement``; :meth:`uninstall` undoes it."""
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, root=False, request_arg=None):
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``root`` starts a fresh trace (no parent, no request id); with
        ``request_arg`` the ``"id"`` of that positional dict argument
        becomes the request id of the span and everything below it.
        """
        static = isinstance(vars(owner).get(attr), staticmethod)
        original = getattr(owner, attr)
        recorder = self

        def request_of(args):
            if request_arg is None or len(args) <= request_arg:
                return None
            entry = args[request_arg]
            return entry.get("id") if isinstance(entry, dict) else None

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                opened = recorder._open(name, request_of(args), root)
                try:
                    return await original(*args, **kwargs)
                finally:
                    recorder._close(*opened)
        elif inspect.isgeneratorfunction(original):
            # Timed across the iteration: from the first next() to
            # exhaustion, so lazily computed items are charged here.
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                opened = recorder._open(name, request_of(args), root)
                try:
                    yield from original(*args, **kwargs)
                finally:
                    recorder._close(*opened)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                opened = recorder._open(name, request_of(args), root)
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder._close(*opened)
        self.patch(owner, attr, staticmethod(wrapper) if static else wrapper)

    def detach(self, owner, attr):
        """Run the coroutine ``owner.attr`` outside any inherited span.

        A task created inside a span copies the creator's context; a
        long-lived task (a dispatcher) must not parent its later work to
        whichever request happened to start it.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            _CURRENT.set(None)
            _REQUEST.set(None)
            return await original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, had, original in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    # -- aggregation ---------------------------------------------------

    def finished(self, start=None, end=None):
        """Finished spans that began inside ``[start, end]`` (if given)."""
        return [
            span for span in self.spans
            if span.end is not None
            and (start is None or span.start >= start)
            and (end is None or span.start <= end)
        ]

    def summary(self, start=None, end=None):
        """``{name: {"count", "total_s", "self_s"}}`` over finished spans."""
        spans = self.finished(start, end)
        children = {}
        for span in spans:
            if span.parent is not None:
                key = id(span.parent)
                children[key] = children.get(key, 0.0) + span.end - span.start
        table = {}
        for span in spans:
            duration = span.end - span.start
            row = table.setdefault(span.name,
                                   {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - children.get(id(span), 0.0)
        return table

    def request_durations(self, name, start=None, end=None):
        """``{request id: duration}`` of the finished spans named ``name``."""
        return {
            span.request: span.end - span.start
            for span in self.finished(start, end)
            if span.name == name and span.request is not None
        }
