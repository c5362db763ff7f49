"""Fault-injection suite: worker processes dying under the stack, and
clients misbehaving above it.

The contract under test, layer by layer:

1. **pool** — a worker killed under a spawned :class:`WorkerPool`
   surfaces :class:`WorkerCrashError` (typed, never a hang and never a
   silent inline rerun), the executor is reset, and the next query
   respawns fresh workers and returns correct results;
2. **engine / host / async front-end** — the typed error propagates to
   exactly the affected request, the session stays usable, and
   subsequent queries return results bitwise identical to a healthy
   run;
3. **spawn-incapable environments keep their legacy behavior** — a pool
   that never ran degrades to inline execution silently (that is an
   environment property, not a fault);
4. **socket tier** (:class:`~repro.aio.DCCServer`) — a client
   disconnecting mid-request has its pending work cancelled (or
   completed) without disturbing other connections; malformed and
   oversized request lines answer per-line typed errors through a
   bounded read and the connection keeps serving; ``aclose()``
   mid-traffic drains every accepted request, and closing the host
   afterwards returns ``live_pool_count()`` to baseline.

Every process-crash test kills real forked processes with SIGKILL,
which is the closest stand-in for the OOM killer the serving layer will
actually meet; every network test misbehaves over a real localhost
socket.
"""

import os
import signal
import time

import pytest

from repro.core import search_dccs
from repro.engine import DCCEngine
from repro.graph import MultiLayerGraph, paper_figure1_graph
from repro.host import DCCHost
from repro.parallel import live_pool_count
from repro.parallel.executor import WorkerPool
from repro.parallel.plan import make_query, plan_query
from repro.utils.errors import WorkerCrashError


def assert_identical(first, second, context=""):
    assert first.sets == second.sets, context
    assert first.labels == second.labels, context
    assert first.stats.as_dict() == second.stats.as_dict(), context


def kill_one_worker(pool):
    """SIGKILL one live worker process and wait for the executor's
    management thread to notice the corpse (its ``_broken`` flag), so
    the next submit/collect deterministically sees the fault."""
    pids = pool.worker_pids()
    assert pids, "pool has no live workers to kill"
    os.kill(pids[0], signal.SIGKILL)
    executor = pool._pool
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if getattr(executor, "_broken", True):
            break
        time.sleep(0.01)
    time.sleep(0.05)


def _greedy_shards(results):
    """Greedy shard results with each candidate's id array as a tuple."""
    return [(index, [(label, tuple(ids.tolist())) for label, ids in chunk],
             stats) for index, chunk, stats in results]


class TestPoolCrash:
    def test_killed_worker_surfaces_typed_error_and_respawns(self):
        graph = paper_figure1_graph().freeze()
        query = make_query("greedy", 2, 2, 3)
        with WorkerPool(graph, jobs=2) as pool:
            plan = plan_query(graph, query, workers=pool.workers)
            assert pool.warm() is True
            healthy = pool.map_query(query, plan.tasks, plan)
            kill_one_worker(pool)
            with pytest.raises(WorkerCrashError):
                pool.map_query(query, plan.tasks, plan)
            assert pool.crashes == 1
            # The crash reset, rather than broke, the pool: the next
            # query spawns fresh workers and matches the healthy run.
            assert pool.spawned is False
            assert pool.inline_fallback is False
            respawned = pool.map_query(query, plan.tasks, plan)
            assert pool.spawned is True
            assert _greedy_shards(respawned) == _greedy_shards(healthy)

    def test_crash_error_reports_its_cause(self):
        graph = paper_figure1_graph().freeze()
        query = make_query("greedy", 2, 2, 3)
        with WorkerPool(graph, jobs=2) as pool:
            plan = plan_query(graph, query, workers=pool.workers)
            assert pool.warm() is True
            kill_one_worker(pool)
            with pytest.raises(WorkerCrashError) as crashed:
                pool.map_query(query, plan.tasks, plan)
        assert crashed.value.cause is not None
        assert "respawn" in str(crashed.value)

    def test_spawn_incapable_pool_keeps_inline_fallback(self, monkeypatch):
        # Legacy contract: an environment that cannot fork at all (the
        # pool never ran) silently degrades to inline execution — no
        # WorkerCrashError, because nothing crashed.
        from repro.parallel import executor as executor_module

        class BrokenPool:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise OSError("fork denied")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            BrokenPool)
        graph = paper_figure1_graph().freeze()
        query = make_query("greedy", 2, 2, 3)
        with WorkerPool(graph, jobs=4) as pool:
            plan = plan_query(graph, query, workers=pool.workers)
            results = pool.map_query(query, plan.tasks, plan)
            assert pool.inline_fallback is True
            assert pool.crashes == 0
        assert len(results) == len(plan.tasks)


class TestEngineCrash:
    def test_engine_surfaces_error_then_recovers(self):
        graph = paper_figure1_graph()
        with DCCEngine(graph, jobs=2) as engine:
            assert engine.warm() is True
            healthy = engine.search(3, 2, 2, method="greedy")
            kill_one_worker(engine._pool)
            with pytest.raises(WorkerCrashError):
                engine.search(3, 2, 2, method="greedy")
            # Same engine, next query: respawned pool, correct results,
            # honest accounting.
            recovered = engine.search(3, 2, 2, method="greedy")
            assert engine._pool.crashes == 1
            assert engine.info()["pool_spawned"] is True
        assert_identical(recovered, healthy)
        assert_identical(
            recovered,
            search_dccs(graph, 3, 2, 2, method="greedy", jobs=1),
        )

    @pytest.mark.slow
    def test_mid_search_kill_does_not_hang(self):
        # Kill while shard futures are genuinely in flight.  Whatever
        # the interleaving, the call must return promptly — either the
        # typed crash error or (if every shard finished first) the
        # correct result; it must never wedge on a dead process.  The
        # recovery search follows the error's own advice and retries
        # once: when the kill lands after the shards completed, it is
        # the *next* submission that finds the corpse.
        graph = paper_figure1_graph()
        with DCCEngine(graph, jobs=2) as engine:
            assert engine.warm() is True
            baseline = engine.search(3, 2, 2, method="greedy")
            handle = engine.submit(3, 3, 2, method="greedy")
            kill_one_worker(engine._pool)
            try:
                result = handle.collect()
            except WorkerCrashError:
                pass
            else:
                assert_identical(
                    result,
                    search_dccs(graph, 3, 3, 2, method="greedy", jobs=1),
                )
            try:
                recovered = engine.search(3, 2, 2, method="greedy")
            except WorkerCrashError:
                recovered = engine.search(3, 2, 2, method="greedy")
        assert_identical(recovered, baseline)


class TestHostCrash:
    def test_host_session_survives_a_crash(self):
        graphs = {"fig": paper_figure1_graph()}
        with DCCHost(jobs=2) as host:
            host.attach("fig", graphs["fig"])
            healthy = host.search("fig", 3, 2, 2, method="greedy")
            host.engine("fig").warm()
            kill_one_worker(host.engine("fig")._pool)
            with pytest.raises(WorkerCrashError):
                host.search("fig", 2, 2, 2, method="greedy")
            recovered = host.search("fig", 3, 2, 2, method="greedy")
            served_after = host.search("fig", 2, 2, 2, method="greedy")
        assert_identical(recovered, healthy)
        assert_identical(
            served_after,
            search_dccs(graphs["fig"], 2, 2, 2, method="greedy", jobs=1),
        )

    def test_async_host_fails_one_request_not_the_service(self):
        import asyncio

        from repro.aio import AsyncDCCHost

        graph = paper_figure1_graph()
        pools_before = live_pool_count()

        async def serve():
            async with AsyncDCCHost(jobs=2) as host:
                host.attach("fig", graph)
                healthy = await host.search("fig", 3, 2, 2,
                                            method="greedy")
                engine = host.host.engine("fig")
                engine.warm()
                kill_one_worker(engine._pool)
                with pytest.raises(WorkerCrashError):
                    await host.search("fig", 2, 2, 2, method="greedy")
                recovered = await host.search("fig", 3, 2, 2,
                                              method="greedy")
                return healthy, recovered

        healthy, recovered = asyncio.run(serve())
        assert_identical(recovered, healthy)
        assert live_pool_count() == pools_before

    @pytest.mark.stress
    def test_repeated_crashes_keep_recovering(self):
        graph = paper_figure1_graph()
        with DCCEngine(graph, jobs=2) as engine:
            baseline = engine.search(3, 2, 2, method="greedy")
            for round_number in range(3):
                assert engine.warm() is True
                kill_one_worker(engine._pool)
                with pytest.raises(WorkerCrashError):
                    engine.search(3, 2, 2, method="greedy")
                assert_identical(engine.search(3, 2, 2, method="greedy"),
                                 baseline, round_number)
            assert engine._pool.crashes == 3


class TestNetworkFaults:
    """Client misbehaviour over real sockets; see tests/test_server.py
    for the cooperative-protocol suite."""

    pytestmark = pytest.mark.network

    @staticmethod
    async def _connect(port):
        import asyncio
        import json

        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def ask(entry):
            writer.write((json.dumps(entry) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())

        return reader, writer, ask

    @staticmethod
    def _gate(host):
        """Park every dispatcher batch behind an event the test holds."""
        import asyncio

        gate = asyncio.Event()
        real_serve = host._serve_batch

        async def gated(name, batch):
            await gate.wait()
            await real_serve(name, batch)

        host._serve_batch = gated
        return gate

    def test_client_disconnect_cancels_without_disrupting_others(self):
        import asyncio

        from repro.aio import AsyncDCCHost, DCCServer

        graph = paper_figure1_graph()
        pools_before = live_pool_count()

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", graph)
                gate = self._gate(host)
                async with DCCServer(host, port=0) as server:
                    port = server.port
                    _, victim_writer, victim_ask = await self._connect(port)
                    _, other_writer, other_ask = await self._connect(port)
                    victim_writer.write(
                        b'{"graph": "fig", "d": 3, "s": 2, "k": 2}\n'
                    )
                    await victim_writer.drain()
                    other = asyncio.ensure_future(
                        other_ask({"graph": "fig", "d": 2, "s": 2, "k": 2})
                    )
                    while host.requests_accepted < 2:
                        await asyncio.sleep(0.01)
                    # The victim walks away with its request parked on
                    # the gated dispatcher.
                    victim_writer.close()
                    await victim_writer.wait_closed()
                    while server.counters()["connections_open"] > 1:
                        await asyncio.sleep(0.01)
                    gate.set()
                    # The surviving client is answered, and the server
                    # still accepts fresh connections and requests.
                    answered = await other
                    _, late_writer, late_ask = await self._connect(port)
                    late = await late_ask(
                        {"graph": "fig", "d": 3, "s": 2, "k": 2}
                    )
                    for writer in (other_writer, late_writer):
                        writer.close()
                        await writer.wait_closed()
                # Counters read after aclose: the surviving connections
                # have been torn down by the drain.
                return answered, late, server.counters()

        answered, late, counters = asyncio.run(serve())
        assert answered["ok"] and late["ok"]
        with DCCHost(jobs=1) as host:
            host.attach("fig", graph)
            want = host.search("fig", 2, 2, 2)
        assert answered["cover"] == want.cover_size
        assert len(answered["sets"]) == len(want.sets)
        # Every request was read, but the victim's response was never
        # deliverable: at most the two surviving answers were written.
        assert counters["requests_received"] == 3
        assert counters["responses_ok"] <= 2
        assert counters["connections_open"] == 0
        assert live_pool_count() == pools_before

    def test_malformed_lines_answer_typed_errors_per_line(self):
        import asyncio

        from repro.aio import AsyncDCCHost, DCCServer

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", paper_figure1_graph())
                async with DCCServer(host, port=0) as server:
                    reader, writer, ask = await self._connect(server.port)
                    broken = await ask_raw(reader, writer, b"not json\n")
                    listed = await ask_raw(reader, writer, b"[1, 2, 3]\n")
                    scalar = await ask_raw(reader, writer, b"42\n")
                    healthy = await ask(
                        {"graph": "fig", "d": 3, "s": 2, "k": 2}
                    )
                    writer.close()
                    await writer.wait_closed()
                    return broken, listed, scalar, healthy, \
                        server.counters()

        async def ask_raw(reader, writer, data):
            import json

            writer.write(data)
            await writer.drain()
            return json.loads(await reader.readline())

        broken, listed, scalar, healthy, counters = asyncio.run(serve())
        assert not broken["ok"]
        assert broken["error_type"] == "JSONDecodeError"
        for response in (listed, scalar):
            assert not response["ok"]
            assert response["error_type"] == "ProtocolError"
            assert "JSON object" in response["error"]
        assert healthy["ok"]  # the connection kept serving
        assert counters["requests_malformed"] == 3
        assert counters["responses_ok"] == 1

    def test_oversized_line_is_rejected_through_a_bounded_read(self):
        import asyncio

        from repro.aio import AsyncDCCHost, DCCServer

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", paper_figure1_graph())
                async with DCCServer(host, port=0,
                                     max_request_bytes=128) as server:
                    reader, writer, ask = await self._connect(server.port)
                    # One hostile line, far beyond the bound, streamed as
                    # a single write; the server must reject it without
                    # buffering it whole, discard through its newline,
                    # and keep the connection.
                    writer.write(b'{"pad": "' + b"x" * 4096 + b'"}\n')
                    await writer.drain()
                    import json

                    rejected = json.loads(await reader.readline())
                    healthy = await ask(
                        {"graph": "fig", "d": 3, "s": 2, "k": 2}
                    )
                    writer.close()
                    await writer.wait_closed()
                    return rejected, healthy, server.counters()

        rejected, healthy, counters = asyncio.run(serve())
        assert not rejected["ok"]
        assert rejected["error_type"] == "RequestTooLargeError"
        assert "128" in rejected["error"]
        assert healthy["ok"]
        assert counters["requests_oversized"] == 1
        assert counters["responses_ok"] == 1

    def test_aclose_mid_traffic_drains_accepted_work(self):
        import asyncio
        import json

        from repro.aio import AsyncDCCHost, DCCServer

        graph = paper_figure1_graph()
        pools_before = live_pool_count()
        specs = [
            {"graph": "fig", "d": 3, "s": 2, "k": 2},
            {"graph": "fig", "d": 2, "s": 2, "k": 2},
        ]

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", graph)
                gate = self._gate(host)
                async with DCCServer(host, port=0) as server:
                    clients = []  # hold the writers: a GC'd transport
                    for spec in specs:  # would look like a disconnect
                        reader, writer, _ = await self._connect(server.port)
                        writer.write((json.dumps(spec) + "\n").encode())
                        await writer.drain()
                        clients.append((reader, writer))
                    while host.requests_accepted < len(specs):
                        await asyncio.sleep(0.01)
                    # Close mid-traffic: both requests are accepted and
                    # parked; aclose must wait for them, not drop them.
                    closing = asyncio.ensure_future(server.aclose())
                    await asyncio.sleep(0.05)
                    assert not closing.done()  # draining, not dropping
                    gate.set()
                    await closing
                    # Every accepted request got its response written
                    # before its connection closed.
                    return [json.loads(await reader.readline())
                            for reader, _ in clients], server.counters()

        responses, counters = asyncio.run(serve())
        with DCCHost(jobs=1) as host:
            host.attach("fig", graph)
            for spec, response in zip(specs, responses):
                want = host.search("fig", spec["d"], spec["s"], spec["k"])
                assert response["ok"], response
                assert response["cover"] == want.cover_size
                assert len(response["sets"]) == len(want.sets)
        assert counters["responses_ok"] == len(specs)
        assert counters["connections_open"] == 0
        assert counters["closing"] is True
        # The host outlives the server by design; closing it afterwards
        # (the async-with above) returned every pool to baseline.
        assert live_pool_count() == pools_before
