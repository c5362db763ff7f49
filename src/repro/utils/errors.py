"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`GraphError` so callers
can catch a single base class.  The subclasses distinguish the ways a call
can go wrong: a bad vertex, a bad layer index, a bad algorithm parameter,
or a mutation attempted on a frozen graph.  :func:`check_degree` is the
one check of the degree threshold ``d``.
"""

from numbers import Integral


class GraphError(Exception):
    """Base class for all errors raised by the repro package."""


class VertexError(GraphError, KeyError):
    """Raised when an operation references a vertex not in the graph."""

    def __init__(self, vertex):
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self):
        return "vertex {!r} is not in the graph".format(self.vertex)


class EdgeError(GraphError, KeyError):
    """Raised when an operation references an edge not in the graph.

    Carries the full ``(layer, u, v)`` identity so a rejected wire
    update can be reported precisely.  The raising mutator validates
    *before* touching any adjacency set, so an operation that raises
    this has not half-applied.
    """

    def __init__(self, layer, u, v):
        super().__init__((layer, u, v))
        self.layer = layer
        self.u = u
        self.v = v

    def __str__(self):
        return "edge ({!r}, {!r}) is not in layer {}".format(
            self.u, self.v, self.layer
        )


class LayerIndexError(GraphError, IndexError):
    """Raised when a layer index is outside ``range(num_layers)``."""

    def __init__(self, layer, num_layers):
        super().__init__(layer)
        self.layer = layer
        self.num_layers = num_layers

    def __str__(self):
        return "layer {} is out of range for a graph with {} layers".format(
            self.layer, self.num_layers
        )


class ParameterError(GraphError, ValueError):
    """Raised when an algorithm parameter (d, s, k, gamma, ...) is invalid."""


def check_degree(d):
    """Validate a degree threshold ``d``, returning it unchanged.

    The one check behind every entry point that takes ``d`` — the search
    parameters, the layer-core and coherent-core primitives and the core
    maintainer — so a bad ``d`` raises
    the same :class:`ParameterError` wherever it enters.  ``d`` must be
    a non-negative integer (:class:`numbers.Integral`, numpy integers
    included); a bool or a float is rejected even when it is
    integral-valued.
    """
    # Plain ints skip the isinstance checks, which cost a microsecond
    # against an ABC; every peel entry point runs this.
    if type(d) is not int and (isinstance(d, bool)
                               or not isinstance(d, Integral)):
        raise ParameterError("d must be an integer, got {!r}".format(d))
    if d < 0:
        raise ParameterError("d must be non-negative, got {}".format(d))
    return d


class FrozenGraphError(GraphError, TypeError):
    """Raised when a mutation is attempted on a frozen (CSR) graph."""

    def __init__(self, operation):
        super().__init__(operation)
        self.operation = operation

    def __str__(self):
        return (
            "{}() is not supported on a frozen graph; call thaw() to get a "
            "mutable MultiLayerGraph copy".format(self.operation)
        )


class EngineClosedError(GraphError, RuntimeError):
    """Raised when a search is attempted on a closed :class:`DCCEngine`."""

    def __str__(self):
        return (
            "this DCCEngine has been closed; construct a new engine to "
            "search again"
        )


class StaleResultError(GraphError, RuntimeError):
    """Raised when a search cannot outrun concurrent graph mutation.

    The engine re-verifies ``mutation_version`` after collecting results
    and retries once against a rebound snapshot; if the graph has
    mutated *again* by the time the retry collects, delivering would
    violate the never-stale contract, so the search fails instead.  The
    session has already rebound — retrying the call is safe.
    """

    def __str__(self):
        return (
            "the source graph mutated during the search and again during "
            "its retry; the session is rebound — retry the search once "
            "the writer quiesces"
        )


class WorkerCrashError(GraphError, RuntimeError):
    """Raised when a worker process dies while serving a search.

    A pool whose processes have demonstrably worked (a successful warm
    or a completed query) losing one mid-run is a real fault — an OOM
    kill, a segfault, an operator signal — not an environment that
    cannot fork, so the failure is surfaced instead of silently rerun
    inline.  The pool has already been reset when this propagates: the
    next query respawns worker processes from the same graph payload, so
    retrying the search is safe and returns correct results.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause

    def __str__(self):
        detail = ""
        if self.cause is not None:
            detail = " ({}: {})".format(
                type(self.cause).__name__, self.cause
            )
        return (
            "a worker process died while serving this search{}; the pool "
            "has been reset and will respawn on the next query — retry "
            "the search".format(detail)
        )


class QueueFullError(GraphError, RuntimeError):
    """Raised when an async host's per-graph request queue is full.

    Backpressure, surfaced as an error rather than an unbounded buffer:
    the caller sheds load (or retries later) instead of the host
    accumulating requests without limit.  Coalesced duplicates of an
    in-flight spec never occupy a queue slot, so duplicate-heavy bursts
    are absorbed before this fires.
    """

    def __init__(self, graph, max_pending):
        super().__init__(graph)
        self.graph = graph
        self.max_pending = max_pending

    def __str__(self):
        return (
            "the request queue for graph {!r} is full ({} pending); "
            "retry once in-flight requests drain".format(
                self.graph, self.max_pending
            )
        )


class ProtocolError(ParameterError):
    """Raised when a request or batch entry is not a usable request.

    Every entry path reads a request through one parser
    (:func:`repro.host.spec.parse_request`), so a shape fault — not a
    JSON object, a missing ``graph``/``d``/``s``/``k``, an unknown
    ``op``, an update edge that is not a ``[layer, u, v]`` list, an
    update with no edges — raises this on the socket, over stdio, in an
    async batch and in a spec file alike.  The JSON-lines protocol
    answers it on the request's own line and keeps serving.  It is a
    :class:`ParameterError`, so a caller that catches malformed
    parameters catches a malformed request too.
    """


class RequestTooLargeError(GraphError, ValueError):
    """Raised when a serving-protocol request line exceeds the size bound.

    The socket server reads request lines through a bounded buffer so a
    single runaway (or hostile) line cannot balloon server memory.  The
    oversized line is discarded through its terminating newline, this
    error is answered on the line's sequence slot, and the connection
    keeps serving subsequent requests.
    """

    def __init__(self, limit):
        super().__init__(limit)
        self.limit = limit

    def __str__(self):
        return (
            "request line exceeds the {}-byte bound; split the request "
            "or raise the server's max_request_bytes".format(self.limit)
        )


class HostClosedError(GraphError, RuntimeError):
    """Raised when an operation is attempted on a closed :class:`DCCHost`."""

    def __str__(self):
        return (
            "this DCCHost has been closed; construct a new host to serve "
            "again"
        )


class UnknownGraphError(GraphError, KeyError):
    """Raised when a host operation names a graph that was never attached."""

    def __init__(self, name, attached=()):
        super().__init__(name)
        self.name = name
        self.attached = tuple(attached)

    def __str__(self):
        if self.attached:
            return "no graph named {!r} is attached (attached: {})".format(
                self.name, ", ".join(repr(n) for n in self.attached)
            )
        return "no graph named {!r} is attached (none are)".format(self.name)
