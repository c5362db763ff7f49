"""Suite for :mod:`repro.aio.server` — the socket serving tier.

The contract under test, network-level:

1. **wire equivalence** (the acceptance-criterion property) — any
   interleaving of >= 3 real socket clients receives, for every
   request, a response payload identical to the sequential
   :class:`DCCHost` baseline's answer for that spec, across a cold
   pass, a warm (result-cache-served) pass, and passes forced through
   TTL expiry and LRU eviction of every entry;
2. **protocol** — out-of-order completion correlated by ``id``/``seq``,
   the ``stats`` op on both transports, per-connection sequence
   numbering;
3. **metrics** — exact (not smoke) counter and latency-percentile
   values on a deterministic scripted workload driven through an
   injected tick clock, and agreement between the ``stats`` payload and
   what ``repro info`` prints;
4. **one error per input** — a malformed entry answers the same
   ``ProtocolError``, naming the same key or op, on the socket, over
   stdio, in an async batch and in ``repro host``/``repro batch`` files.

Fault-injection coverage for the same tier (disconnects, malformed and
oversized lines, drain-on-close) lives in ``tests/test_faults.py``.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio import (
    AsyncDCCHost,
    DCCServer,
    LatencyRecorder,
    ResultCache,
    format_response,
    serving_stats,
)
from repro.graph import MultiLayerGraph, paper_figure1_graph
from repro.host import DCCHost
from tests.strategies import multilayer_graphs, search_parameters

pytestmark = []  # network marking is per-class; metrics tests need no socket


def ring_graph(n=12, layers=2):
    graph = MultiLayerGraph(layers, vertices=range(n))
    for layer in range(layers):
        for i in range(n):
            graph.add_edge(layer, i, (i + 1) % n)
    return graph


def wire(result):
    """The canonical wire payload of a result, timing fields dropped."""
    payload = format_response(0, None, result=result)
    del payload["seq"], payload["elapsed_s"]
    return payload


def strip(response):
    """A received response reduced to its comparable payload."""
    payload = dict(response)
    for field in ("seq", "id", "elapsed_s"):
        payload.pop(field, None)
    return payload


def sequential_wire_baseline(graphs, specs, **host_options):
    """Each spec's canonical wire payload: one ``DCCHost.search`` each."""
    host_options.setdefault("jobs", 1)
    with DCCHost(**host_options) as host:
        for name, graph in graphs.items():
            host.attach(name, graph)
        payloads = []
        for spec in specs:
            entry = dict(spec)
            payloads.append(wire(host.search(entry.pop("graph"), **entry)))
        return payloads


class LineClient:
    """One real socket client speaking the JSON-lines protocol."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 20
        )
        return cls(reader, writer)

    async def send(self, entry):
        self.writer.write((json.dumps(entry) + "\n").encode("utf-8"))
        await self.writer.drain()

    async def send_raw(self, data):
        self.writer.write(data)
        await self.writer.drain()

    async def recv(self):
        line = await self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def ask(self, entry):
        await self.send(entry)
        return await self.recv()

    async def run_script(self, specs, order, tag):
        """Pipeline ``specs`` in ``order``; responses mapped by index."""
        for position, index in enumerate(order):
            await self.send(dict(specs[index],
                                 id="{}-{}-{}".format(tag, position, index)))
        responses = {}
        for _ in order:
            response = await self.recv()
            index = int(response["id"].rsplit("-", 1)[1])
            responses[index] = response
        return responses

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


MIXED_SPECS = [
    {"graph": "fig", "d": 3, "s": 2, "k": 2},
    {"graph": "ring", "d": 2, "s": 1, "k": 2},
    {"graph": "fig", "d": 3, "s": 2, "k": 2},  # duplicate
    {"graph": "fig", "d": 2, "s": 2, "k": 2, "method": "greedy"},
    {"graph": "ring", "d": 2, "s": 2, "k": 1},
]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# 1. wire equivalence over real sockets
# ----------------------------------------------------------------------


@pytest.mark.network
class TestWireEquivalence:
    def test_single_client_roundtrip_matches_baseline(self):
        graph = paper_figure1_graph()

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", graph)
                async with DCCServer(host, port=0) as server:
                    client = await LineClient.connect(server.port)
                    response = await client.ask(
                        {"id": "q1", "graph": "fig", "d": 3, "s": 2, "k": 2}
                    )
                    await client.close()
                    return response

        response = asyncio.run(serve())
        assert response["ok"] and response["id"] == "q1"
        assert response["seq"] == 1
        [want] = sequential_wire_baseline(
            {"fig": graph}, [{"graph": "fig", "d": 3, "s": 2, "k": 2}]
        )
        assert strip(response) == want

    def test_three_clients_cold_warm_evicted_all_match_baseline(self):
        # The scripted core of the acceptance criterion: three socket
        # clients pipelining interleaved spec orders over two graphs in
        # one engine slot, three times over — cold, warm (served by the
        # result cache) and after every entry has been LRU-evicted by a
        # one-entry cache.  Every response payload must equal the
        # sequential baseline's.
        graphs = {"fig": paper_figure1_graph(), "ring": ring_graph()}
        baseline = sequential_wire_baseline(graphs, MIXED_SPECS,
                                            max_engines=1)
        orders = [
            list(range(len(MIXED_SPECS))),
            list(reversed(range(len(MIXED_SPECS)))),
            [2, 0, 4, 1, 3],
        ]
        tiny_cache = ResultCache(max_entries=1)

        async def pass_over(port, tag):
            clients = [await LineClient.connect(port) for _ in orders]
            try:
                return await asyncio.gather(*(
                    client.run_script(MIXED_SPECS, order,
                                      "{}{}".format(tag, lag))
                    for lag, (client, order) in
                    enumerate(zip(clients, orders))
                ))
            finally:
                for client in clients:
                    await client.close()

        async def serve():
            async with AsyncDCCHost(max_engines=1, jobs=1) as host:
                for name, graph in graphs.items():
                    host.attach(name, graph)
                async with DCCServer(host, port=0) as server:
                    cold = await pass_over(server.port, "c")
                    warm = await pass_over(server.port, "w")
                    cached_after_warm = host.requests_cached
                    # Swap in a one-slot cache: every subsequent lookup
                    # evicts its predecessor, so the third pass serves
                    # recomputed (post-eviction) results throughout.
                    host._results = tiny_cache
                    evicted = await pass_over(server.port, "e")
                    return (cold + warm + evicted, cached_after_warm,
                            host.info())

        passes, cached_after_warm, info = asyncio.run(serve())
        for per_client in passes:
            for index, response in per_client.items():
                assert response["ok"], response
                assert strip(response) == baseline[index], \
                    MIXED_SPECS[index]
        # The warm pass really was served across time, not recomputed
        # (the cold pass populates 4 distinct specs; every warm request
        # that didn't coalesce must hit), and the eviction pass really
        # did thrash the one-slot cache.
        assert cached_after_warm >= len(MIXED_SPECS)
        assert tiny_cache.evictions > 0
        assert info["result_cache"]["entries"] <= 1

    @given(st.data())
    @settings(max_examples=3, deadline=None)
    def test_property_socket_interleavings_equal_sequential(self, data):
        # Hypothesis-shaped acceptance criterion: arbitrary graphs,
        # arbitrary valid parameters, three socket clients pipelining
        # drawn permutations (guaranteed duplicate included), over one
        # engine slot — cold, warm, and after a scripted TTL expiry of
        # every cache entry.  Every response equals the sequential
        # baseline, bitwise at the wire level.
        graph_a = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        graph_b = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        d, s, k = data.draw(search_parameters(graph_a))
        db, sb, kb = data.draw(search_parameters(graph_b))
        specs = [
            {"graph": "a", "d": d, "s": s, "k": k},
            {"graph": "b", "d": db, "s": sb, "k": kb},
            {"graph": "a", "d": d, "s": s, "k": k},  # guaranteed duplicate
        ]
        graphs = {"a": graph_a, "b": graph_b}
        orders = [data.draw(st.permutations(range(len(specs))))
                  for _ in range(3)]
        baseline = sequential_wire_baseline(graphs, specs, max_engines=1)
        clock = FakeClock()
        cache = ResultCache(ttl=60.0, clock=clock)

        async def pass_over(port, tag):
            clients = [await LineClient.connect(port) for _ in orders]
            try:
                return await asyncio.gather(*(
                    client.run_script(specs, order, "{}{}".format(tag, lag))
                    for lag, (client, order) in
                    enumerate(zip(clients, orders))
                ))
            finally:
                for client in clients:
                    await client.close()

        async def serve():
            async with AsyncDCCHost(max_engines=1, jobs=1,
                                    result_cache=cache) as host:
                for name, graph in graphs.items():
                    host.attach(name, graph)
                async with DCCServer(host, port=0) as server:
                    cold = await pass_over(server.port, "c")
                    warm = await pass_over(server.port, "w")
                    clock.advance(61.0)  # expire every entry
                    expired = await pass_over(server.port, "x")
                    return cold + warm + expired

        for per_client in asyncio.run(serve()):
            for index, response in per_client.items():
                assert response["ok"], response
                assert strip(response) == baseline[index], specs[index]
        assert cache.expirations > 0


# ----------------------------------------------------------------------
# 2. protocol details
# ----------------------------------------------------------------------


@pytest.mark.network
class TestProtocol:
    def test_stats_op_reports_serving_metrics(self):
        graph = paper_figure1_graph()

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", graph)
                async with DCCServer(host, port=0) as server:
                    client = await LineClient.connect(server.port)
                    for _ in range(2):  # cold + warm
                        await client.ask(
                            {"graph": "fig", "d": 3, "s": 2, "k": 2}
                        )
                    response = await client.ask({"op": "stats", "id": "m"})
                    await client.close()
                    return response, host.info()

        response, info = asyncio.run(serve())
        assert response["ok"] and response["id"] == "m"
        stats = response["stats"]
        assert stats["serving"]["requests_accepted"] == 1
        assert stats["serving"]["requests_cached"] == 1
        assert stats["serving"]["result_cache"]["hits"] == 1
        assert stats["serving"]["latency"]["count"] == 2
        assert stats["server"]["connections_accepted"] == 1
        assert stats["server"]["requests_received"] == 3
        # The payload is the same info() surface the host reports.
        assert stats["serving"]["max_pending"] == info["max_pending"]
        assert stats["serving"]["result_cache"]["max_entries"] == \
            info["result_cache"]["max_entries"]

    def test_unknown_op_and_missing_keys_answer_typed_errors(self):
        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", paper_figure1_graph())
                async with DCCServer(host, port=0) as server:
                    client = await LineClient.connect(server.port)
                    bogus = await client.ask({"op": "bogus"})
                    partial = await client.ask({"graph": "fig", "d": 3})
                    healthy = await client.ask(
                        {"graph": "fig", "d": 3, "s": 2, "k": 2}
                    )
                    await client.close()
                    return bogus, partial, healthy

        bogus, partial, healthy = asyncio.run(serve())
        assert not bogus["ok"] and bogus["error_type"] == "ProtocolError"
        assert not partial["ok"] and partial["error_type"] == "ProtocolError"
        assert healthy["ok"]

    def test_per_connection_sequence_numbers(self):
        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", paper_figure1_graph())
                async with DCCServer(host, port=0) as server:
                    first = await LineClient.connect(server.port)
                    second = await LineClient.connect(server.port)
                    a1 = await first.ask({"op": "stats"})
                    a2 = await first.ask({"op": "stats"})
                    b1 = await second.ask({"op": "stats"})
                    for client in (first, second):
                        await client.close()
                    return a1, a2, b1

        a1, a2, b1 = asyncio.run(serve())
        assert (a1["seq"], a2["seq"]) == (1, 2)
        assert b1["seq"] == 1  # sequences are per connection

    def test_stdio_serve_answers_stats_op(self, tmp_path, monkeypatch,
                                          capsys):
        import io

        from repro.cli import main

        spec = tmp_path / "serve.json"
        spec.write_text('{"graphs": {"fig": "figure1"}}')
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"id": "q", "graph": "fig", "d": 3, "s": 2, "k": 2}\n'
            '{"id": "q2", "graph": "fig", "d": 3, "s": 2, "k": 2}\n'
            '{"id": "m", "op": "stats"}\n'
        ))
        assert main(["serve", str(spec), "--jobs", "1"]) == 0
        responses = {json.loads(line)["id"]: json.loads(line)
                     for line in capsys.readouterr().out.splitlines()}
        stats = responses["m"]["stats"]
        assert responses["m"]["ok"]
        assert "server" not in stats  # stdio: no socket tier in front
        # The stats op may be answered while the searches are still in
        # flight, so only monotone facts are assertable here: the first
        # search was accepted before the op ran, and the full metrics
        # surface is present.
        assert stats["serving"]["requests_accepted"] >= 1
        assert "result_cache" in stats["serving"]
        assert "latency" in stats["serving"]


# One malformed entry per row: ``(entry, needle, fits_batch)``.  Every
# path must answer it with a ProtocolError whose message contains
# ``needle`` (the key or op at fault).  ``fits_batch`` marks the entries
# a ``repro batch`` file can hold: those take no "graph" or "op" key, so
# the batch file gets the entry without its "graph".
MALFORMED = {
    "bogus-op": ({"op": "bogus", "graph": "fig", "d": 3, "s": 2, "k": 2},
                 "'bogus'", False),
    "no-graph": ({"d": 3, "s": 2, "k": 2}, "graph", False),
    "no-d": ({"graph": "fig", "s": 2, "k": 2}, "'d'", True),
    "no-s": ({"graph": "fig", "d": 3, "k": 2}, "'s'", True),
    "no-k": ({"graph": "fig", "d": 3, "s": 2}, "'k'", True),
    "array": ([1, 2], "JSON object", True),
    "update-no-edges": ({"op": "update", "graph": "fig"}, '"add"', False),
    "update-short-edge": ({"op": "update", "graph": "fig",
                           "add": [[0, 1]]}, "[0, 1]", False),
}


@pytest.mark.network
class TestOneRequestContract:
    """One malformed entry, every entry path, one typed error.

    The socket, ``repro serve`` over stdio, an async batch, a ``repro
    host`` spec file and a ``repro batch`` file all read an entry
    through the same parser, so each answers the same ``error_type``
    and names the same key or op.
    """

    def over_socket(self, entry):
        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", paper_figure1_graph())
                async with DCCServer(host, port=0) as server:
                    client = await LineClient.connect(server.port)
                    response = await client.ask(entry)
                    await client.close()
                    return response

        response = asyncio.run(serve())
        assert not response["ok"], response
        return response["error_type"], response["error"]

    def over_stdio(self, entry, tmp_path, monkeypatch, capsys):
        import io

        from repro.cli import main

        spec = tmp_path / "serve.json"
        spec.write_text('{"graphs": {"fig": "figure1"}}')
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(entry)
                                                     + "\n"))
        assert main(["serve", str(spec), "--jobs", "1"]) == 0
        response, = [json.loads(line)
                     for line in capsys.readouterr().out.splitlines()]
        assert not response["ok"], response
        return response["error_type"], response["error"]

    def in_batch(self, entry):
        ahost = AsyncDCCHost(jobs=1)
        ahost.attach("fig", paper_figure1_graph())
        try:
            with pytest.raises(Exception) as raised:
                ahost.run_batch([entry])
            assert ahost.info()["requests_accepted"] == 0
        finally:
            asyncio.run(ahost.aclose())
        return type(raised.value).__name__, str(raised.value)

    def from_cli(self, argv, capsys):
        """The error the command raises, and that ``main`` exits 2 on it
        with the message on stderr."""
        from repro.cli import build_parser, main

        args = build_parser().parse_args(argv)
        with pytest.raises(Exception) as raised:
            args.fn(args)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(raised.value) in captured.err
        return type(raised.value).__name__, str(raised.value)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_every_path_answers_the_same_typed_error(
            self, case, tmp_path, monkeypatch, capsys):
        entry, needle, fits_batch = MALFORMED[case]
        outcomes = {
            "socket": self.over_socket(entry),
            "stdio": self.over_stdio(entry, tmp_path, monkeypatch, capsys),
            "async batch": self.in_batch(entry),
        }
        spec = tmp_path / "host.json"
        spec.write_text(json.dumps({"graphs": {"fig": "figure1"},
                                    "queries": [entry]}))
        outcomes["repro host"] = self.from_cli(["host", str(spec)], capsys)
        if fits_batch:
            queries = tmp_path / "batch.json"
            if isinstance(entry, dict):
                entry = {key: value for key, value in entry.items()
                         if key != "graph"}
            queries.write_text(json.dumps([entry]))
            outcomes["repro batch"] = self.from_cli(
                ["batch", "figure1", str(queries), "--jobs", "1"], capsys)
        for path, (error_type, message) in outcomes.items():
            assert error_type == "ProtocolError", (case, path, message)
            assert needle in message, (case, path, message)


# ----------------------------------------------------------------------
# 3. metrics: exact values, and agreement with `repro info`
# ----------------------------------------------------------------------


class TestMetricsExact:
    def test_latency_recorder_window_and_percentiles(self):
        recorder = LatencyRecorder(window=4)
        for value in range(1, 11):
            recorder.record(float(value))
        # Lifetime counters are exact over all ten samples...
        assert recorder.count == 10
        assert recorder.total == 55.0
        assert recorder.max == 10.0
        # ...while the ring window holds exactly the last four (7..10),
        # making nearest-rank percentiles exact.
        assert recorder.percentile(50) == 8.0
        assert recorder.percentile(90) == 10.0
        assert recorder.percentile(25) == 7.0
        snapshot = recorder.snapshot()
        assert snapshot["window_fill"] == 4
        assert snapshot["p50_s"] == 8.0
        assert snapshot["p99_s"] == 10.0
        assert LatencyRecorder().snapshot()["p50_s"] is None

    def test_scripted_workload_produces_exact_metrics(self):
        # The host reads its clock exactly twice per request (accept,
        # resolve); a tick-by-one clock therefore makes every latency
        # exactly 1.0 when requests are awaited sequentially — so the
        # whole snapshot is assertable to the digit, cache hits and
        # misses alike.
        ticks = iter(range(1, 1000))
        graph = paper_figure1_graph()

        async def serve():
            async with AsyncDCCHost(
                jobs=1, clock=lambda: float(next(ticks))
            ) as host:
                host.attach("fig", graph)
                await host.search("fig", 3, 2, 2)            # cold
                await host.search("fig", 3, 2, 2)            # cache hit
                await host.search("fig", 2, 2, 2)            # cold
                await host.search("fig", 2, 2, 2)            # cache hit
                return host.info()

        info = asyncio.run(serve())
        assert info["requests_accepted"] == 2
        assert info["requests_cached"] == 2
        assert info["requests_coalesced"] == 0
        assert info["result_cache"]["hits"] == 2
        assert info["result_cache"]["misses"] == 2
        assert info["result_cache"]["insertions"] == 2
        assert info["pending"] == {}
        latency = info["latency"]
        assert latency["count"] == 4
        assert latency["total_s"] == 4.0
        assert latency["mean_s"] == 1.0
        assert latency["max_s"] == 1.0
        assert latency["p50_s"] == 1.0
        assert latency["p90_s"] == 1.0
        assert latency["p99_s"] == 1.0
        assert latency["window_fill"] == 4

    def test_repro_info_agrees_with_the_stats_payload(self, capsys):
        # `repro info` prints its serve_* lines from the same
        # serving_stats() payload the protocol's stats op reports; the
        # two surfaces must quote identical values.
        from repro.cli import main

        assert main(["info", "figure1"]) == 0
        printed = dict(
            line.split(": ", 1)
            for line in capsys.readouterr().out.splitlines() if ": " in line
        )

        async def payload():
            async with AsyncDCCHost() as host:
                return serving_stats(host)["serving"]

        serving = asyncio.run(payload())
        assert printed["serve_max_pending"] == str(serving["max_pending"])
        assert printed["serve_coalescing"] == str(serving["coalescing"])
        assert printed["serve_result_cache_entries"] == \
            str(serving["result_cache"]["max_entries"])
        assert printed["serve_result_cache_ttl"] == \
            str(serving["result_cache"]["ttl"])
        assert printed["serve_latency_window"] == \
            str(serving["latency"]["window"])
