"""The network serving tier: JSON-lines over real asyncio sockets.

``repro serve`` spoke a socket-shaped protocol (ids, out-of-order
completion, backpressure) over stdin/stdout; :class:`DCCServer` lifts
the same protocol onto ``asyncio.start_server`` so many client
*connections* multiplex over one :class:`~repro.aio.host.AsyncDCCHost`
— and through it over one set of engines, one coalescer and one
cross-time result cache.

Protocol
--------
One JSON object per line, newline-terminated, both directions.

Requests are either a search — ``{"graph": ..., "d": ..., "s": ...,
"k": ...}`` plus optional ``"method"``, search options and an ``"id"``
echoed back — or an operation object:

``{"op": "stats"}``
    Answers ``{"ok": true, "stats": {...}}`` with the serving tier's
    metrics: per-graph queue depths, coalesce/cache hit counters,
    latency percentiles, update counters, server connection/request
    counters and the underlying host's admission picture.  The same
    payload backs ``repro info`` (see :func:`serving_stats`).

``{"op": "update", "graph": ..., "add": [[layer, u, v], ...],
"remove": [[layer, u, v], ...]}``
    Applies one batched edge mutation to the named graph — atomic,
    validated up front, one ``mutation_version`` tick — and answers
    ``{"ok": true, "update": {...}}`` with the net applied counts and
    the new version.  Ordering is the per-graph FIFO's: searches this
    connection (or any other) got accepted before the update answer
    against the old graph, later ones against the new one.  ``add`` /
    ``remove`` are optional individually, but at least one edge must
    be present between them.

Responses carry ``seq`` (per-connection arrival number), the echoed
``id`` when one was given, and ``ok`` with either the result payload or
``error``/``error_type``.  Responses stream as requests complete —
completion order is not arrival order; correlate by ``id``/``seq``.

One request path
----------------
Both transports read a line with :func:`decode_request` and answer the
request object it returns with :func:`answer_request`, which reads it
through :func:`repro.host.spec.parse_request` — the parser every batch
and spec file uses too.  So a malformed request answers the same
``error_type`` (``ProtocolError`` for every shape fault), naming the
same key or op, on the socket, over stdio, in an
:meth:`~repro.aio.AsyncDCCHost.search_many` batch and in a ``repro
host`` spec file.

Fault containment, per connection
---------------------------------
* a line that is not valid JSON, or not a JSON object, answers a typed
  per-line error (``JSONDecodeError`` / ``ProtocolError``) and the
  connection keeps serving;
* a line longer than ``max_request_bytes`` is discarded through its
  terminating newline via a bounded read — server memory is never held
  hostage by one runaway line — and answered with
  ``RequestTooLargeError``;
* a client disconnecting cancels that connection's pending requests
  (results nobody can receive) without touching other connections or
  the shared host;
* :meth:`aclose` stops intake, lets every accepted request finish and
  flush its response, then closes the connections — with the host
  closed afterwards, ``live_pool_count()`` returns to baseline.

The determinism contract is inherited unchanged: any interleaving of
socket clients receives, for every request, results bitwise identical
to the sequential :class:`~repro.host.registry.DCCHost` baseline —
property-tested over real sockets in ``tests/test_server.py``.
"""

import asyncio
import json

from repro.host.spec import UpdateRequest, parse_request
from repro.utils.errors import ProtocolError, RequestTooLargeError

# Upper bound on one request line, in bytes.  Far above any legitimate
# search spec (a few hundred bytes) while keeping the per-connection
# read buffer small; ``repro serve --port`` exposes it indirectly by
# answering oversized lines with a typed error.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

# Loopback by default: the tier has no auth story yet, so not binding
# beyond the machine is the safe default (document, don't surprise).
DEFAULT_BIND = "127.0.0.1"


def format_response(number, request_id, result=None, error=None):
    """One JSON-lines response object (``ok`` plus payload or error).

    Shared by the stdio loop (``repro serve``) and the socket server so
    both transports answer byte-identically for the same outcome.
    """
    response = {"seq": number}
    if request_id is not None:
        response["id"] = request_id
    if error is not None:
        response["ok"] = False
        response["error"] = str(error)
        response["error_type"] = type(error).__name__
        return response
    response["ok"] = True
    response["algorithm"] = result.algorithm
    response["sets"] = [sorted(members, key=repr) for members in result.sets]
    response["labels"] = [list(label) if label is not None else None
                          for label in result.labels]
    response["cover"] = result.cover_size
    response["elapsed_s"] = round(result.elapsed, 6)
    return response


def serving_stats(host, server=None):
    """The ``stats`` protocol payload: serving metrics, JSON-safe.

    ``host`` is the :class:`AsyncDCCHost`; ``server`` the optional
    :class:`DCCServer` wrapping it (the stdio loop has none).  The
    ``serving`` section is exactly ``host.info()`` — the agreement
    ``repro info`` is tested against — plus a ``server`` section of
    connection-level counters when a socket server is in front.
    """
    payload = {"serving": host.info()}
    if server is not None:
        payload["server"] = server.counters()
    return payload


def decode_request(line):
    """One request line (bytes or str) as its JSON object.

    Raises :class:`json.JSONDecodeError` for a line that is not JSON and
    :class:`ProtocolError` for JSON that is not an object.  Both are
    value errors, which the transports answer on the line's own sequence
    slot and count as malformed.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    entry = json.loads(line)
    if not isinstance(entry, dict):
        raise ProtocolError(
            "request must be a JSON object, got {!r}".format(
                type(entry).__name__
            )
        )
    return entry


async def answer_request(host, seq, entry, server=None):
    """Serve one request object on ``host``; ``(ok, response payload)``.

    ``entry`` is a dict from :func:`decode_request`; its ``"id"`` is
    popped and echoed.  ``{"op": "stats"}`` answers
    :func:`serving_stats` (with ``server``'s counters when a socket
    server is in front); anything else is read by
    :func:`~repro.host.spec.parse_request` and served as an update or a
    search.  Every failure — a shape fault, a bad parameter, an engine
    error — becomes an error payload, never an exception.
    """
    request_id = entry.pop("id", None)
    try:
        if entry.get("op") == "stats":
            payload = {"seq": seq, "ok": True,
                       "stats": serving_stats(host, server)}
            if request_id is not None:
                payload["id"] = request_id
            return True, payload
        request = parse_request(entry)
        if isinstance(request, UpdateRequest):
            receipt = await host.update(request.graph, add=request.add,
                                        remove=request.remove)
            payload = {"seq": seq, "ok": True, "update": receipt}
            if request_id is not None:
                payload["id"] = request_id
            return True, payload
        result = await host.search(request.graph, request.d, request.s,
                                   request.k, method=request.method,
                                   **request.options)
    except Exception as error:
        return False, format_response(seq, request_id, error=error)
    return True, format_response(seq, request_id, result=result)


async def _discard_line(reader):
    """Consume input through the next newline after an oversized read.

    ``readuntil`` leaves the offending bytes buffered; they are drained
    in bounded chunks (``LimitOverrunError.consumed`` bytes are known
    not to contain the separator) until the newline goes by, so the
    next read starts exactly at the next request.
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as overrun:
            if overrun.consumed:
                await reader.readexactly(overrun.consumed)
            elif not await reader.read(1):
                return False
        except asyncio.IncompleteReadError:
            return False


class _Connection:
    """One live client connection: its writer, tasks and counters."""

    __slots__ = ("writer", "tasks", "seq", "write_lock", "gone")

    def __init__(self, writer):
        self.writer = writer
        self.tasks = set()
        self.seq = 0
        self.write_lock = asyncio.Lock()
        self.gone = False

    async def send(self, payload):
        """Write one response line; quietly drop it if the peer left."""
        if self.gone:
            return
        data = (json.dumps(payload) + "\n").encode("utf-8")
        try:
            async with self.write_lock:
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionError, RuntimeError):
            self.gone = True


class DCCServer:
    """A JSON-lines socket front-end over one :class:`AsyncDCCHost`.

    Parameters
    ----------
    host:
        The :class:`AsyncDCCHost` to serve through.  The server never
        closes it — lifecycle stays with whoever built it, so one host
        can outlive (or sit behind) several server incarnations::

            async with AsyncDCCHost(jobs=2) as ahost:
                ahost.attach("wiki", graph)
                async with DCCServer(ahost, port=0) as server:
                    ...  # clients connect to server.port
    port:
        TCP port to bind; ``0`` (default) picks a free one — read it
        back from :attr:`port`.
    bind:
        Interface to bind (default loopback).
    max_request_bytes:
        Per-line size bound; longer lines are rejected, not buffered.
    """

    def __init__(self, host, port=0, bind=DEFAULT_BIND,
                 max_request_bytes=DEFAULT_MAX_REQUEST_BYTES):
        self._ahost = host
        self._requested_port = port
        self._bind = bind
        self.max_request_bytes = max_request_bytes
        self._server = None
        self._port = None
        self._connections = set()
        self._closing = False
        self.connections_accepted = 0
        self.requests_received = 0
        self.responses_ok = 0
        self.responses_failed = 0
        self.requests_malformed = 0
        self.requests_oversized = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self):
        """Bind and start accepting connections; returns ``self``."""
        if self._server is not None:
            raise ProtocolError("this DCCServer has already been started")
        self._server = await asyncio.start_server(
            self._serve_connection, self._bind, self._requested_port,
            limit=self.max_request_bytes,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def port(self):
        """The actually-bound TCP port (resolves ``port=0``)."""
        return self._port

    @property
    def address(self):
        """``(bind, port)`` of the listening socket."""
        return (self._bind, self.port)

    async def serve_forever(self):
        """Block serving until cancelled (the CLI's foreground mode)."""
        await self._server.serve_forever()

    async def aclose(self):
        """Stop intake, drain accepted requests, close every connection.

        New connections are refused immediately; every request already
        read off a socket completes and its response is flushed before
        the connection closes.  The underlying host is *not* closed —
        that remains its owner's job (closing it afterwards returns
        ``live_pool_count()`` to baseline).  Idempotent.
        """
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Cancelling a connection's reader wakes it out of readuntil;
        # with _closing set, the handler drains instead of cancelling
        # its in-flight request tasks.
        for connection in list(self._connections):
            for task in connection.tasks:
                if getattr(task, "_dcc_reader", False):
                    task.cancel()
        while self._connections:
            connection = next(iter(self._connections))
            await self._drain_connection(connection)

    async def __aenter__(self):
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc):
        await self.aclose()
        return False

    # ------------------------------------------------------------------
    # per-connection machinery
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader, writer):
        connection = _Connection(writer)
        self._connections.add(connection)
        self.connections_accepted += 1
        reader_task = asyncio.ensure_future(
            self._read_requests(connection, reader)
        )
        reader_task._dcc_reader = True
        connection.tasks.add(reader_task)
        try:
            try:
                await reader_task
                drain = self._closing
            except asyncio.CancelledError:
                drain = True
            connection.tasks.discard(reader_task)
            pending = [task for task in connection.tasks if not task.done()]
            if not drain:
                # The client is gone: nobody can receive the pending
                # answers, so cancel rather than compute into the void.
                # Cancelling the waiter never cancels engine-side work a
                # coalesced sibling may be attached to.
                for task in pending:
                    task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            self._connections.discard(connection)
            connection.gone = True
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _drain_connection(self, connection):
        """aclose()'s half: wait out one connection's accepted work."""
        pending = [task for task in connection.tasks if not task.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        # The handler's finally block removes the connection; losing the
        # race to it is fine — discard is idempotent.
        self._connections.discard(connection)

    async def _read_requests(self, connection, reader):
        """One connection's intake loop: read lines, spawn answer tasks."""
        while not self._closing:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as eof:
                line = eof.partial
                if not line:
                    return  # clean EOF
            except asyncio.LimitOverrunError:
                # Oversized line: bounded-read rejection.  Discard
                # through the newline, answer on this line's slot, keep
                # the connection.
                connection.seq += 1
                self.requests_received += 1
                self.requests_oversized += 1
                self.responses_failed += 1
                await connection.send(format_response(
                    connection.seq, None,
                    error=RequestTooLargeError(self.max_request_bytes),
                ))
                if not await _discard_line(reader):
                    return
                continue
            except (ConnectionError, OSError):
                return
            line = line.strip()
            if not line:
                continue
            connection.seq += 1
            self.requests_received += 1
            try:
                entry = decode_request(line)
            except ValueError as error:
                self.requests_malformed += 1
                self.responses_failed += 1
                await connection.send(format_response(
                    connection.seq, None, error=error,
                ))
                continue
            task = asyncio.ensure_future(
                self._answer(connection, connection.seq, entry)
            )
            connection.tasks.add(task)
            task.add_done_callback(connection.tasks.discard)

    async def _answer(self, connection, seq, entry):
        """Serve one request object and write its response line."""
        ok, payload = await answer_request(self._ahost, seq, entry, self)
        if ok:
            self.responses_ok += 1
        else:
            self.responses_failed += 1
        await connection.send(payload)

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    def counters(self):
        """Connection/request counters for the ``stats`` payload."""
        return {
            "bind": self._bind,
            "port": self.port,
            "max_request_bytes": self.max_request_bytes,
            "connections_accepted": self.connections_accepted,
            "connections_open": len(self._connections),
            "requests_received": self.requests_received,
            "responses_ok": self.responses_ok,
            "responses_failed": self.responses_failed,
            "requests_malformed": self.requests_malformed,
            "requests_oversized": self.requests_oversized,
            "closing": self._closing,
        }
