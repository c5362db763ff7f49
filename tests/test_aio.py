"""Suite for :mod:`repro.aio` — the async serving front-end.

The contract under test, in order of importance:

1. **async equivalence** (the acceptance-criterion property) — any
   interleaving of concurrent async clients over any number of graphs
   yields, for every request, results and counters bitwise identical to
   the same spec run sequentially on a plain :class:`DCCHost`,
   including across evictions (``max_engines=1``), coalesced duplicate
   specs, and warm-vs-cold sessions;
2. **coalescing** — identical in-flight specs execute once, every
   waiter gets an independent (deep-copied) result, and coalesced
   requests never occupy queue slots;
3. **backpressure** — a full per-graph queue rejects with
   :class:`QueueFullError` and frees up as the dispatcher drains;
4. **lifecycle** — ``aclose()`` serves everything already accepted,
   refuses new work, and returns ``live_pool_count()`` to its baseline.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio import AsyncDCCHost
from repro.engine import DCCEngine
from repro.graph import MultiLayerGraph, paper_figure1_graph
from repro.host import DCCHost
from repro.parallel import live_pool_count
from repro.utils.errors import (
    HostClosedError,
    ParameterError,
    QueueFullError,
    UnknownGraphError,
)
from tests.strategies import multilayer_graphs, search_parameters


def ring_graph(n=12, layers=2):
    graph = MultiLayerGraph(layers, vertices=range(n))
    for layer in range(layers):
        for i in range(n):
            graph.add_edge(layer, i, (i + 1) % n)
    return graph


def assert_identical(first, second, context=""):
    assert first.sets == second.sets, context
    assert first.labels == second.labels, context
    assert first.cover_size == second.cover_size, context
    assert first.stats.as_dict() == second.stats.as_dict(), context


def spec_call(host, spec):
    """One ``await``-able host.search call from a dict spec."""
    entry = dict(spec)
    name = entry.pop("graph")
    return host.search(name, entry.pop("d"), entry.pop("s"),
                       entry.pop("k"), method=entry.pop("method", "auto"),
                       **entry)


def sequential_baseline(graphs, specs, **host_options):
    """Each spec's canonical result: one plain ``DCCHost.search`` each."""
    host_options.setdefault("jobs", 1)
    with DCCHost(**host_options) as host:
        for name, graph in graphs.items():
            host.attach(name, graph)
        results = []
        for spec in specs:
            entry = dict(spec)
            results.append(host.search(entry.pop("graph"), **entry))
        return results


MIXED_SPECS = [
    {"graph": "fig", "d": 3, "s": 2, "k": 2},
    {"graph": "ring", "d": 2, "s": 1, "k": 2},
    {"graph": "fig", "d": 3, "s": 2, "k": 2},  # duplicate: coalesces
    {"graph": "fig", "d": 2, "s": 2, "k": 2, "method": "greedy"},
    {"graph": "ring", "d": 2, "s": 2, "k": 1},
]


# ----------------------------------------------------------------------
# 1. async equivalence
# ----------------------------------------------------------------------


class TestAsyncEquivalence:
    def test_single_search_matches_host_and_engine(self):
        graph = paper_figure1_graph()

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", graph)
                return await host.search("fig", 3, 2, 2, method="greedy")

        served = asyncio.run(serve())
        with DCCHost(jobs=1) as host:
            host.attach("fig", graph)
            hosted = host.search("fig", 3, 2, 2, method="greedy")
        with DCCEngine(graph, jobs=1) as engine:
            session = engine.search(3, 2, 2, method="greedy")
        assert_identical(served, hosted)
        assert_identical(served, session)

    def test_concurrent_clients_interleave_bitwise_identically(self):
        # Three clients, staggered differently, over two graphs sharing
        # one engine slot: every response must equal the sequential
        # host's answer for its spec — eviction races, dispatcher
        # batching and coalescing included.
        graphs = {"fig": paper_figure1_graph(), "ring": ring_graph()}
        baseline = sequential_baseline(graphs, MIXED_SPECS, max_engines=1)

        async def client(host, lag):
            out = []
            for index, spec in enumerate(MIXED_SPECS):
                if (index + lag) % 2:
                    await asyncio.sleep(0)  # shuffle the interleaving
                out.append(await spec_call(host, spec))
            return out

        async def serve():
            async with AsyncDCCHost(max_engines=1, jobs=1) as host:
                for name, graph in graphs.items():
                    host.attach(name, graph)
                results = await asyncio.gather(*(client(host, lag)
                                                 for lag in range(3)))
                return results, host.info()

        results, info = asyncio.run(serve())
        for per_client in results:
            for spec, got, want in zip(MIXED_SPECS, per_client, baseline):
                assert_identical(got, want, spec)
        assert info["host"]["evictions"] >= 1  # the slot really thrashed

    @given(st.data())
    @settings(max_examples=3, deadline=None)
    def test_property_async_equals_sequential(self, data):
        # The acceptance criterion, property-shaped: arbitrary graphs,
        # arbitrary parameters, >= 3 concurrent clients each running a
        # drawn shuffle of the spec list (duplicates included) over 2
        # graphs behind one engine slot.  Every response — and the
        # warm-repeat of the whole workload — must be bitwise identical
        # to the sequential DCCHost baseline.
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
        orders = [
            data.draw(st.permutations(range(len(specs))))
            for _ in range(3)
        ]
        baseline = sequential_baseline(graphs, specs, max_engines=1)

        async def client(host, order):
            results = {}
            for index in order:
                results[index] = await spec_call(host, specs[index])
                await asyncio.sleep(0)
            return results

        async def serve():
            async with AsyncDCCHost(max_engines=1, jobs=1) as host:
                for name, graph in graphs.items():
                    host.attach(name, graph)
                cold = await asyncio.gather(*(client(host, order)
                                              for order in orders))
                warm = await asyncio.gather(*(client(host, order)
                                              for order in orders))
                return cold + warm

        for per_client in asyncio.run(serve()):
            for index, got in per_client.items():
                assert_identical(got, baseline[index],
                                 (index, specs[index]))

    def test_search_many_returns_input_order(self):
        graphs = {"fig": paper_figure1_graph(), "ring": ring_graph()}
        baseline = sequential_baseline(graphs, MIXED_SPECS)

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                for name, graph in graphs.items():
                    host.attach(name, graph)
                return await host.search_many(MIXED_SPECS)

        for got, want in zip(asyncio.run(serve()), baseline):
            assert_identical(got, want)

    def test_run_batch_bridges_across_loops(self):
        graphs = {"fig": paper_figure1_graph(), "ring": ring_graph()}
        baseline = sequential_baseline(graphs, MIXED_SPECS)
        host = AsyncDCCHost(jobs=1)
        for name, graph in graphs.items():
            host.attach(name, graph)
        try:
            first = host.run_batch(MIXED_SPECS)
            second = host.run_batch(MIXED_SPECS)  # rebinds to a new loop
        finally:
            asyncio.run(host.aclose())
        for got, want in zip(first, baseline):
            assert_identical(got, want)
        for got, want in zip(second, baseline):
            assert_identical(got, want)

    @pytest.mark.stress
    def test_stress_many_clients_with_real_pools(self):
        # Eight clients, two pooled engines (jobs=2) sharing two slots
        # over three graphs: the heavyweight version of the
        # interleaving property, with real worker processes.
        graphs = {
            "fig": paper_figure1_graph(),
            "ring": ring_graph(16, 2),
            "ring3": ring_graph(10, 3),
        }
        specs = MIXED_SPECS + [
            {"graph": "ring3", "d": 2, "s": 2, "k": 2},
            {"graph": "ring3", "d": 2, "s": 3, "k": 1},
        ]
        baseline = sequential_baseline(graphs, specs, max_engines=2,
                                       jobs=2)
        pools_before = live_pool_count()

        async def client(host, lag):
            out = []
            for index, spec in enumerate(specs):
                if (index + lag) % 3:
                    await asyncio.sleep(0)
                out.append(await spec_call(host, spec))
            return out

        async def serve():
            async with AsyncDCCHost(max_engines=2, jobs=2) as host:
                for name, graph in graphs.items():
                    host.attach(name, graph)
                return await asyncio.gather(*(client(host, lag)
                                              for lag in range(8)))

        results = asyncio.run(serve())
        for per_client in results:
            for spec, got, want in zip(specs, per_client, baseline):
                assert_identical(got, want, spec)
        assert live_pool_count() == pools_before


# ----------------------------------------------------------------------
# 2. coalescing
# ----------------------------------------------------------------------


class TestCoalescing:
    def test_duplicates_coalesce_to_independent_copies(self):
        graph = paper_figure1_graph()

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", graph)
                results = await asyncio.gather(*(
                    host.search("fig", 3, 2, 2) for _ in range(5)
                ))
                return results, host.info()

        results, info = asyncio.run(serve())
        assert info["requests_coalesced"] >= 1
        assert info["requests_accepted"] + info["requests_coalesced"] == 5
        for got in results[1:]:
            assert_identical(got, results[0])
        # Deep copies: mutating one client's result must not leak into
        # another's.
        mutated, witness = results[0], results[1]
        mutated.sets.append(frozenset())
        assert witness.sets != mutated.sets

    def test_coalescing_distinguishes_options(self):
        graph = paper_figure1_graph()

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", graph)
                plain, pruned = await asyncio.gather(
                    host.search("fig", 3, 2, 2, method="bottom-up"),
                    host.search("fig", 3, 2, 2, method="bottom-up",
                                use_layer_pruning=False),
                )
                return plain, pruned, host.info()

        plain, pruned, info = asyncio.run(serve())
        assert info["requests_coalesced"] == 0
        assert plain.sets == pruned.sets  # pruning never changes results

    def test_coalescing_can_be_disabled(self):
        graph = paper_figure1_graph()

        async def serve():
            async with AsyncDCCHost(jobs=1, coalesce=False) as host:
                host.attach("fig", graph)
                results = await asyncio.gather(*(
                    host.search("fig", 3, 2, 2) for _ in range(3)
                ))
                return results, host.info()

        results, info = asyncio.run(serve())
        assert info["requests_coalesced"] == 0
        assert info["requests_accepted"] == 3
        for got in results[1:]:
            assert_identical(got, results[0])

    def test_unhashable_options_opt_out_of_coalescing(self):
        from repro.core.stats import SearchStats

        graph = paper_figure1_graph()
        mine, yours = SearchStats(), SearchStats()

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", graph)
                return await asyncio.gather(
                    host.search("fig", 3, 2, 2, stats=mine),
                    host.search("fig", 3, 2, 2, stats=yours),
                ), host.info()

        (first, second), info = asyncio.run(serve())
        assert info["requests_coalesced"] == 0
        assert first.stats is mine and second.stats is yours
        assert mine.as_dict() == yours.as_dict()


# ----------------------------------------------------------------------
# 3. backpressure
# ----------------------------------------------------------------------


class TestBackpressure:
    def test_full_queue_rejects_with_queue_full_error(self):
        graph = paper_figure1_graph()
        gate = None

        async def serve():
            nonlocal gate
            gate = asyncio.Event()
            host = AsyncDCCHost(jobs=1, max_pending=1, coalesce=False)
            host.attach("fig", graph)
            real_serve = host._serve_batch

            async def gated(name, batch):
                await gate.wait()
                await real_serve(name, batch)

            host._serve_batch = gated
            first = asyncio.ensure_future(host.search("fig", 3, 2, 2))
            # Let the dispatcher take the first request off the queue
            # and park on the gate.
            for _ in range(10):
                await asyncio.sleep(0)
            second = asyncio.ensure_future(
                host.search("fig", 2, 2, 2)  # occupies the single slot
            )
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError) as rejected:
                await host.search("fig", 2, 1, 2)
            assert rejected.value.max_pending == 1
            info_while_full = host.info()
            gate.set()
            results = await asyncio.gather(first, second)
            # The queue drained: the next request is accepted again.
            retry = await host.search("fig", 2, 1, 2)
            await host.aclose()
            return results, retry, info_while_full, host.info()

        (first, second), retry, while_full, after = asyncio.run(serve())
        assert while_full["requests_rejected"] == 1
        assert while_full["pending"] == {"fig": 1}
        assert after["requests_rejected"] == 1
        with DCCHost(jobs=1) as host:
            host.attach("fig", graph)
            assert_identical(first, host.search("fig", 3, 2, 2))
            assert_identical(second, host.search("fig", 2, 2, 2))
            assert_identical(retry, host.search("fig", 2, 1, 2))

    def test_coalesced_duplicates_do_not_occupy_slots(self):
        graph = paper_figure1_graph()

        async def serve():
            gate = asyncio.Event()
            host = AsyncDCCHost(jobs=1, max_pending=1)
            host.attach("fig", graph)
            real_serve = host._serve_batch

            async def gated(name, batch):
                await gate.wait()
                await real_serve(name, batch)

            host._serve_batch = gated
            primary = asyncio.ensure_future(host.search("fig", 3, 2, 2))
            for _ in range(10):
                await asyncio.sleep(0)
            occupant = asyncio.ensure_future(host.search("fig", 2, 2, 2))
            await asyncio.sleep(0)
            # The queue is full, but duplicates of either in-flight spec
            # attach to it instead of needing a slot.
            duplicates = [asyncio.ensure_future(host.search("fig", 3, 2, 2))
                          for _ in range(4)]
            await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(primary, occupant, *duplicates)
            info = host.info()
            await host.aclose()
            return results, info

        results, info = asyncio.run(serve())
        assert info["requests_coalesced"] == 4
        assert info["requests_rejected"] == 0
        for duplicate in results[2:]:
            assert_identical(duplicate, results[0])


# ----------------------------------------------------------------------
# 4. lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_aclose_drains_accepted_requests(self):
        graph = paper_figure1_graph()

        async def serve():
            host = AsyncDCCHost(jobs=1)
            host.attach("fig", graph)
            accepted = [
                asyncio.ensure_future(host.search("fig", 3, 2, 2)),
                asyncio.ensure_future(host.search("fig", 2, 2, 2)),
            ]
            await asyncio.sleep(0)
            await host.aclose()
            # Everything accepted before aclose() was served...
            results = await asyncio.gather(*accepted)
            # ...and nothing after it is.
            with pytest.raises(HostClosedError):
                await host.search("fig", 2, 1, 2)
            await host.aclose()  # idempotent
            return results

        first, second = asyncio.run(serve())
        with DCCHost(jobs=1) as host:
            host.attach("fig", graph)
            assert_identical(first, host.search("fig", 3, 2, 2))
            assert_identical(second, host.search("fig", 2, 2, 2))

    def test_aclose_returns_pools_to_baseline(self):
        pools_before = live_pool_count()

        async def serve():
            async with AsyncDCCHost(jobs=2) as host:
                host.attach("fig", paper_figure1_graph())
                # Greedy: the one method whose shards reach the pool.
                result = await host.search("fig", 3, 2, 2, method="greedy")
                spawned = live_pool_count()
                return result, spawned

        result, spawned_during = asyncio.run(serve())
        assert spawned_during >= pools_before
        assert live_pool_count() == pools_before
        assert result.sets  # the search actually ran

    def test_detach_right_after_a_search_returns(self):
        """The lease is released before the last request of a batch
        resolves, so a caller that got its answer may detach at once,
        whether the search succeeded or failed."""
        graph = paper_figure1_graph()
        loop = asyncio.new_event_loop()
        host = AsyncDCCHost(jobs=1)
        try:
            for round_ in range(50):
                host.attach("fig", graph)
                if round_ % 10 == 9:
                    with pytest.raises(ParameterError):
                        loop.run_until_complete(
                            host.search("fig", 3, 9, 2))
                else:
                    loop.run_until_complete(host.search("fig", 3, 2, 2))
                host.detach("fig")
                assert not host.is_attached("fig")
        finally:
            loop.run_until_complete(host.aclose())
            loop.close()

    def test_registry_surface_delegates(self):
        graph = paper_figure1_graph()

        async def serve():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("fig", graph)
                assert host.is_attached("fig")
                assert host.names() == ("fig",)
                assert host.graph("fig") is graph
                with pytest.raises(UnknownGraphError):
                    await host.search("nope", 2, 2, 2)
                host.detach("fig")
                assert not host.is_attached("fig")

        asyncio.run(serve())

    def test_constructor_validates(self):
        with pytest.raises(ParameterError):
            AsyncDCCHost(max_pending=0)
        with pytest.raises(ParameterError):
            AsyncDCCHost(host=DCCHost(), jobs=2)
        host = DCCHost(jobs=1)
        wrapped = AsyncDCCHost(host=host)
        assert wrapped.host is host
        host.close()

    def test_wrapping_an_existing_host_preserves_registrations(self):
        graph = paper_figure1_graph()
        inner = DCCHost(jobs=1)
        inner.attach("fig", graph)

        async def serve():
            async with AsyncDCCHost(host=inner) as host:
                return await host.search("fig", 3, 2, 2)

        served = asyncio.run(serve())
        with DCCHost(jobs=1) as fresh:
            fresh.attach("fig", graph)
            assert_identical(served, fresh.search("fig", 3, 2, 2))


# ----------------------------------------------------------------------
# 5. the `repro serve` JSON-lines loop
# ----------------------------------------------------------------------


class TestServeCli:
    def _serve(self, tmp_path, monkeypatch, capsys, lines, spec_body=None,
               extra_args=()):
        import io
        import json

        from repro.cli import main

        spec = tmp_path / "serve.json"
        spec.write_text(spec_body or
                        '{"graphs": {"fig": "figure1"}, "max_engines": 1}')
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["serve", str(spec), "--jobs", "1", *extra_args])
        captured = capsys.readouterr()
        responses = [json.loads(line)
                     for line in captured.out.splitlines() if line]
        return code, responses, captured.err

    def test_serve_answers_requests_and_echoes_ids(self, tmp_path,
                                                   monkeypatch, capsys):
        code, responses, err = self._serve(
            tmp_path, monkeypatch, capsys,
            [
                '{"id": "q1", "graph": "fig", "d": 3, "s": 2, "k": 2}',
                '{"id": "q2", "graph": "fig", "d": 3, "s": 2, "k": 2}',
                '{"id": "q3", "graph": "fig", "d": 2, "s": 2, "k": 2,'
                ' "method": "greedy"}',
            ],
        )
        assert code == 0
        assert "3 ok, 0 failed" in err
        by_id = {response["id"]: response for response in responses}
        assert set(by_id) == {"q1", "q2", "q3"}
        assert all(response["ok"] for response in responses)
        # Coalesced duplicate: identical payloads for q1 and q2...
        assert by_id["q1"]["sets"] == by_id["q2"]["sets"]
        # ...matching the library's own answer.
        with DCCHost(jobs=1) as host:
            host.attach("fig", paper_figure1_graph())
            want = host.search("fig", 3, 2, 2)
        assert by_id["q1"]["cover"] == want.cover_size
        assert len(by_id["q1"]["sets"]) == len(want.sets)

    def test_serve_reports_errors_per_request(self, tmp_path, monkeypatch,
                                              capsys):
        code, responses, err = self._serve(
            tmp_path, monkeypatch, capsys,
            [
                'not json',
                '{"id": "bad", "graph": "missing", "d": 2, "s": 2, "k": 2}',
                '{"id": "ok", "graph": "fig", "d": 3, "s": 2, "k": 2}',
            ],
        )
        assert code == 0
        assert "1 ok, 2 failed" in err
        by_ok = {response["ok"] for response in responses}
        assert by_ok == {True, False}
        failures = [r for r in responses if not r["ok"]]
        assert {f["error_type"] for f in failures} == \
            {"JSONDecodeError", "UnknownGraphError"}

    def test_serve_runs_preloaded_spec_queries(self, tmp_path, monkeypatch,
                                               capsys):
        code, responses, err = self._serve(
            tmp_path, monkeypatch, capsys,
            [""],  # no stdin requests, just EOF
            spec_body='{"graphs": {"fig": "figure1"},'
                      ' "queries": [{"graph": "fig", "d": 3, "s": 2,'
                      ' "k": 2}]}',
        )
        assert code == 0
        assert len(responses) == 1 and responses[0]["ok"]
        assert "1 ok, 0 failed" in err

    def test_serve_rejects_bad_spec(self, tmp_path, monkeypatch, capsys):
        import io

        from repro.cli import main

        spec = tmp_path / "bad.json"
        spec.write_text('{"queries": []}')
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", str(spec)]) == 2
        assert capsys.readouterr().err != ""
