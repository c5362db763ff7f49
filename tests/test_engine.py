"""Determinism, caching and lifecycle suite for :mod:`repro.engine`.

The contract under test, in order of importance:

1. **session equivalence** — ``engine.search``, a batch through
   ``AsyncDCCHost.run_batch`` and one-shot ``search_dccs(..., jobs=N)``
   return bitwise identical sets, labels, cover sizes *and aggregated
   stats counters*, for every method, a ``MultiLayerGraph`` or a frozen
   graph, and warm-vs-cold pools/caches (the artifact
   cache replays captured stats deltas instead of skipping charges);
   bottom-up and top-down run in process and never reach the pool;
2. **invalidation** — mutating the underlying ``MultiLayerGraph`` after
   engine construction rebinds the session (frozen graph, cache, pool);
   a stale result is never returned.
"""

import asyncio
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio import AsyncDCCHost
from repro.cli import main
from repro.core import search_dccs
from repro.engine import ArtifactCache, DCCEngine
from repro.experiments.runner import measure_point
from repro.graph import (
    FrozenMultiLayerGraph,
    MultiLayerGraph,
    paper_figure1_graph,
)
from repro.parallel import live_pool_count
from repro.utils.errors import (
    EngineClosedError,
    ParameterError,
    ProtocolError,
)
from tests.strategies import multilayer_graphs, search_parameters

METHODS = ("greedy", "bottom-up", "top-down")


def assert_identical(first, second, context=""):
    assert first.sets == second.sets, context
    assert first.labels == second.labels, context
    assert first.cover_size == second.cover_size, context
    assert first.stats.as_dict() == second.stats.as_dict(), context


# ----------------------------------------------------------------------
# 1. session equivalence with one-shot search_dccs
# ----------------------------------------------------------------------


class TestSessionEquivalence:
    @given(st.data())
    @settings(max_examples=3, deadline=None)
    def test_engine_matches_one_shot_all_methods_both_backends(self, data):
        graph = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        d, s, k = data.draw(search_parameters(graph))
        # Integer labels: the fresh frozen graph's ids are the labels.
        for source in (graph, FrozenMultiLayerGraph.from_graph(graph)):
            with DCCEngine(source, jobs=2) as engine:
                for method in METHODS:
                    one_shot = search_dccs(source, d, s, k, method=method,
                                           jobs=2, seed=5)
                    cold = engine.search(d, s, k, method=method, seed=5)
                    warm = engine.search(d, s, k, method=method, seed=5)
                    for label, result in (("cold", cold), ("warm", warm)):
                        assert_identical(
                            one_shot, result,
                            (source, method, label, d, s, k),
                        )

    def test_search_many_matches_individual_searches_in_order(self):
        # The one batch path, AsyncDCCHost.search_many (run_batch from
        # synchronous code), answers each spec as a lone engine search.
        graph = paper_figure1_graph()
        specs = [
            {"d": 3, "s": 2, "k": 2},
            {"d": 2, "s": 3, "k": 3, "method": "bottom-up"},
            {"d": 2, "s": 2, "k": 2, "method": "top-down", "seed": 7},
            {"d": 3, "s": 2, "k": 2},  # repeat: coalesced, same answer
        ]
        ahost = AsyncDCCHost(jobs=2)
        ahost.attach("g", graph)
        try:
            batched = ahost.run_batch([dict(spec, graph="g")
                                       for spec in specs])
        finally:
            asyncio.run(ahost.aclose())
        with DCCEngine(graph, jobs=2) as engine:
            singles = [engine.search(**spec) for spec in specs]
        assert len(batched) == len(specs)
        for spec, one, two in zip(specs, batched, singles):
            assert_identical(one, two, spec)

    def test_search_many_empty_batch(self):
        ahost = AsyncDCCHost(jobs=1)
        ahost.attach("g", paper_figure1_graph())
        try:
            assert ahost.run_batch([]) == []
        finally:
            asyncio.run(ahost.aclose())

    def test_prefrozen_graph_keeps_id_vocabulary(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        with DCCEngine(frozen, jobs=1) as engine:
            raw = engine.search(3, 2, 2, method="greedy")
        translated = search_dccs(graph, 3, 2, 2, method="greedy", jobs=1)
        assert [
            frozen.labels_for(members) for members in raw.sets
        ] == translated.sets

    def test_stats_option_accumulates_like_one_shot(self):
        from repro.core.stats import SearchStats

        graph = paper_figure1_graph()
        with DCCEngine(graph, jobs=1) as engine:
            mine = SearchStats()
            result = engine.search(3, 2, 2, method="greedy", stats=mine)
            assert result.stats is mine
            again = engine.search(3, 2, 2, method="greedy")
        assert mine.as_dict() == again.stats.as_dict()

    def test_non_topdown_methods_ignore_seed(self):
        graph = paper_figure1_graph()
        with DCCEngine(graph, jobs=1) as engine:
            seeded = engine.search(3, 2, 2, method="greedy", seed=99)
            plain = engine.search(3, 2, 2, method="greedy")
        assert_identical(seeded, plain)

    def test_rejects_unknown_method_and_option(self):
        with DCCEngine(paper_figure1_graph(), jobs=1) as engine:
            with pytest.raises(ParameterError):
                engine.search(1, 1, 1, method="sideways")
            with pytest.raises(ParameterError):
                engine.search(1, 1, 1, method="greedy", use_warp_drive=True)

    def test_search_many_validates_before_submitting(self):
        # A malformed spec fails the batch up front — before any query
        # of it is enqueued — not mid-pipeline with work in flight.  A
        # bad parameter value fails its own slot, as a lone search.
        ahost = AsyncDCCHost(jobs=1)
        ahost.attach("g", paper_figure1_graph())
        try:
            with pytest.raises(ProtocolError, match="'s'"):
                ahost.run_batch([
                    {"graph": "g", "d": 3, "s": 2, "k": 2},
                    {"graph": "g", "d": 3, "k": 2},
                ])
            assert ahost.info()["requests_accepted"] == 0
            with pytest.raises(ParameterError):
                ahost.run_batch([{"graph": "g", "d": 3, "s": 99, "k": 2}])
        finally:
            asyncio.run(ahost.aclose())


# ----------------------------------------------------------------------
# 2. artifact cache behaviour
# ----------------------------------------------------------------------


class TestArtifactCache:
    def test_cache_hits_accumulate_across_queries(self):
        graph = paper_figure1_graph()
        with DCCEngine(graph, jobs=1) as engine:
            engine.search(3, 2, 2, method="greedy")
            first = engine.info()
            engine.search(3, 2, 2, method="greedy")
            second = engine.info()
        assert first["cache_misses"] > 0
        assert second["cache_hits"] > first["cache_hits"]
        assert second["cache_misses"] == first["cache_misses"]

    def test_stats_delta_replay(self):
        # The unit-level version of warm == cold: a second lookup hands
        # back the same preprocess artifact plus the same counters.
        graph = paper_figure1_graph().freeze()
        cache = ArtifactCache(graph)
        prep_a, delta_a = cache.preprocess(3, 2, True)
        prep_b, delta_b = cache.preprocess(3, 2, True)
        assert prep_a is prep_b
        assert delta_a is delta_b
        assert cache.hits == 1 and cache.misses == 1

    def test_cache_keys_distinguish_parameters(self):
        graph = paper_figure1_graph().freeze()
        cache = ArtifactCache(graph)
        cache.preprocess(3, 2, True)
        cache.preprocess(2, 2, True)
        cache.preprocess(3, 2, False)
        assert cache.misses == 3 and cache.hits == 0

    def test_unbounded_by_default(self):
        cache = ArtifactCache(paper_figure1_graph().freeze())
        assert cache.max_entries is None

    def test_size_cap_discards_lru(self):
        graph = paper_figure1_graph().freeze()
        cache = ArtifactCache(graph, max_entries=2)
        cache.preprocess(3, 2, True)
        cache.preprocess(2, 2, True)
        cache.preprocess(3, 2, True)   # touch: (2, 2) is now LRU
        cache.preprocess(1, 2, True)   # evicts (2, 2)
        assert len(cache) == 2 and cache.evictions == 1
        cache.preprocess(3, 2, True)   # survivor: still a hit
        assert cache.hits == 2
        cache.preprocess(2, 2, True)   # victim: rebuilt as a miss
        assert cache.misses == 4

    def test_bound_validation(self):
        graph = paper_figure1_graph().freeze()
        for bad in (0, -1, True, "8"):
            with pytest.raises(ParameterError):
                ArtifactCache(graph, max_entries=bad)


class TestCacheEviction:
    """Warm results stay bitwise cold-identical across any eviction."""

    @given(st.data())
    @settings(max_examples=3, deadline=None)
    def test_warm_equals_cold_across_size_evictions(self, data):
        graph = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        d, s, k = data.draw(search_parameters(graph))
        # Greedy alternates between the fixed points of both deletion
        # flags, so max_entries=1 evicts on every greedy lookup.
        queries = [
            {"d": d, "s": s, "k": k, "method": method, "seed": 5,
             "use_vertex_deletion": vd}
            for method in METHODS for vd in (True, False)
        ] * 2
        with DCCEngine(graph, jobs=1) as reference:
            cold = [reference.search(**dict(query)) for query in queries]
        with DCCEngine(graph, jobs=1, cache_max_entries=1) as engine:
            evicted = [engine.search(**dict(query)) for query in queries]
            churn = engine.info()
        assert churn["cache_evictions"] == 3
        for one, two in zip(cold, evicted):
            assert_identical(one, two, (d, s, k))

    def test_engine_forwards_bounds_to_its_cache(self):
        with DCCEngine(paper_figure1_graph(), jobs=1,
                       cache_max_entries=3) as engine:
            assert engine._cache.max_entries == 3
            # The cap survives a rebind — the fresh cache is bounded too.
            engine._source.add_vertex("fresh")
            engine.search(2, 1, 1)
            assert engine.invalidations == 1
            assert engine._cache.max_entries == 3


# ----------------------------------------------------------------------
# 3. invalidation on source-graph mutation
# ----------------------------------------------------------------------


class TestInvalidation:
    def _ring(self, n=12):
        graph = MultiLayerGraph(2, vertices=range(n))
        for i in range(n):
            graph.add_edge(0, i, (i + 1) % n)
            graph.add_edge(1, i, (i + 1) % n)
        return graph

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_edge(0, 0, 2),
        lambda g: g.remove_edge(1, 0, 1),
        lambda g: g.add_vertex("fresh"),
        lambda g: g.remove_vertex(3),
    ])
    def test_every_mutation_kind_invalidates(self, mutate):
        graph = self._ring()
        with DCCEngine(graph, jobs=1) as engine:
            engine.search(2, 1, 2)
            mutate(graph)
            after = engine.search(2, 1, 2)
            assert engine.invalidations == 1
        fresh = search_dccs(graph, 2, 1, 2, jobs=1)
        assert_identical(after, fresh)

    def test_mutation_clears_cached_artifacts(self):
        graph = self._ring()
        with DCCEngine(graph, jobs=1) as engine:
            engine.search(2, 1, 2, method="greedy")
            before = engine.info()["cache_entries"]
            assert before > 0
            graph.add_edge(0, 0, 5)
            engine.search(2, 1, 2, method="greedy")
            status = engine.info()
        # The rebind threw the old cache away: only the post-mutation
        # query's artifacts remain, all of them fresh misses.
        assert status["cache_hits"] == 0
        assert status["mutation_version"] == graph.mutation_version

    def test_results_never_stale_after_topology_change(self):
        # The mutation makes vertex 0's neighbourhood 3-dense on layer 0;
        # a stale engine would keep reporting the old, smaller answer.
        graph = self._ring()
        with DCCEngine(graph, jobs=1) as engine:
            sparse = engine.search(3, 1, 1)
            assert sparse.sets == []
            for u in range(4):
                for v in range(u + 1, 4):
                    if not graph.has_edge(0, u, v):
                        graph.add_edge(0, u, v)
            dense = engine.search(3, 1, 1)
        assert dense.sets != []

    def test_frozen_source_never_invalidates(self):
        frozen = self._ring().freeze()
        with DCCEngine(frozen, jobs=1) as engine:
            engine.search(2, 1, 2)
            engine.search(2, 2, 2)
            assert engine.invalidations == 0

    def _densify_corner(self, graph):
        """Make vertices 0..3 a 3-dense clique on layer 0."""
        for u in range(4):
            for v in range(u + 1, 4):
                if not graph.has_edge(0, u, v):
                    graph.add_edge(0, u, v)

    @staticmethod
    def _racy_start(real_start, on_finish):
        """A ``start_query`` wrapper firing ``on_finish`` after execution.

        The writer-lands-mid-flight injection point: the wrapped
        pending's ``finish`` completes the real collection first, then
        runs the mutation — exactly the window between worker execution
        and the engine's collect-time staleness re-check.
        """

        class RacyPending:
            def __init__(self, pending):
                self._pending = pending

            def waitables(self):
                return self._pending.waitables()

            def finish(self, pool):
                result = self._pending.finish(pool)
                on_finish()
                return result

        def start(graph, query, pool, stats=None, artifacts=None):
            return RacyPending(real_start(graph, query, pool, stats=stats,
                                          artifacts=artifacts))

        return start

    def test_mutation_mid_search_retries_on_fresh_snapshot(self,
                                                           monkeypatch):
        # Regression for the check-then-act race: mutation_version is
        # checked before submission, so a mutation landing while the
        # search is in flight used to be served from the stale frozen
        # snapshot.  The collect-time re-check must discard the stale
        # attempt and retry against the rebound session.
        from repro.engine import session as session_module

        graph = self._ring()
        fired = []

        def writer():
            if not fired:
                fired.append(True)
                self._densify_corner(graph)  # the writer lands mid-flight

        monkeypatch.setattr(
            session_module, "start_query",
            self._racy_start(session_module.start_query, writer),
        )
        with DCCEngine(graph, jobs=1) as engine:
            served = engine.search(3, 1, 1)
            assert engine.invalidations == 1
        fresh = search_dccs(graph, 3, 1, 1, jobs=1)
        assert served.sets != []  # the stale snapshot would report []
        assert_identical(served, fresh)

    def test_mutation_during_both_attempts_raises_never_stale(
            self, monkeypatch):
        # A writer outrunning the retry means neither attempt's results
        # are current; delivering either would violate the never-stale
        # contract, so the search must fail (with the session rebound,
        # so an immediate retry works).
        from repro.engine import session as session_module
        from repro.utils.errors import StaleResultError

        graph = self._ring()
        real = session_module.start_query

        def writer():
            graph.add_edge(0, 0, graph.mutation_version % 5 + 2)

        monkeypatch.setattr(session_module, "start_query",
                            self._racy_start(real, writer))
        with DCCEngine(graph, jobs=1) as engine:
            with pytest.raises(StaleResultError):
                engine.search(2, 1, 2)
            assert engine.invalidations == 2
            # The writer quiesces: the rebound session serves normally.
            monkeypatch.setattr(session_module, "start_query", real)
            served = engine.search(2, 1, 2)
        assert_identical(served, search_dccs(graph, 2, 1, 2, jobs=1))

    def test_mid_search_mutation_does_not_double_charge_user_stats(
            self, monkeypatch):
        from repro.core.stats import SearchStats
        from repro.engine import session as session_module

        graph = self._ring()
        fired = []

        def writer():
            if not fired:
                fired.append(True)
                self._densify_corner(graph)

        monkeypatch.setattr(
            session_module, "start_query",
            self._racy_start(session_module.start_query, writer),
        )
        with DCCEngine(graph, jobs=1) as engine:
            mine = SearchStats()
            served = engine.search(3, 1, 1, stats=mine)
            assert served.stats is mine
        fresh = search_dccs(graph, 3, 1, 1, jobs=1)
        # Only the delivered (post-rebind) attempt may charge the
        # caller's accumulator — the discarded stale attempt is free.
        assert mine.as_dict() == fresh.stats.as_dict()

    def test_handle_not_stale_when_another_call_consumed_the_rebind(self):
        # A submitted handle's staleness signal can be *consumed* by a
        # later engine call: submit A, mutate, then a second search
        # rebinds the session before A is collected.  A's attempt rode
        # the dead snapshot, so collect must discard it and re-run
        # against the live bind — not deliver the stale answer the
        # now-current version check would otherwise wave through.
        graph = self._ring()
        with DCCEngine(graph, jobs=1) as engine:
            handle = engine.submit(3, 1, 1)
            self._densify_corner(graph)
            interposed = engine.search(2, 1, 2)  # rebinds, consumes signal
            assert engine.invalidations == 1
            served = handle.collect()
        assert served.sets != []  # the stale snapshot would report []
        assert_identical(served, search_dccs(graph, 3, 1, 1, jobs=1))
        assert_identical(interposed, search_dccs(graph, 2, 1, 2, jobs=1))

    def test_consumed_rebind_with_real_pool_is_not_a_worker_crash(self):
        # Pooled variant: the intervening rebind closes the pool the
        # handle's shard futures live on (cancelling them).  Collect
        # must recognise its bind is gone and re-run — a routine
        # mutation must never surface as WorkerCrashError or count as a
        # crash.
        graph = self._ring(n=10)
        with DCCEngine(graph, jobs=2) as engine:
            engine.warm()
            handle = engine.submit(2, 1, 2, method="greedy")
            self._densify_corner(graph)
            engine.search(3, 1, 1)  # rebinds: old pool closed
            served = handle.collect()
            assert engine._pool.crashes == 0
        assert_identical(served,
                         search_dccs(graph, 2, 1, 2, method="greedy",
                                     jobs=1))

    def test_mutation_version_counter(self):
        graph = self._ring()
        start = graph.mutation_version
        graph.add_edge(0, 0, 4)
        graph.add_edge(0, 0, 4)  # duplicate: no-op, no tick
        assert graph.mutation_version == start + 1
        graph.remove_edge(0, 0, 4)
        assert graph.mutation_version == start + 2
        assert graph.freeze().mutation_version == 0


# ----------------------------------------------------------------------
# 4. lifecycle: warm, close, pool fallback
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_pool_spawns_lazily_and_warm_forces_it(self):
        graph = paper_figure1_graph()
        with DCCEngine(graph, jobs=2) as engine:
            assert engine.info()["pool_spawned"] is False
            assert engine.warm() is True
            assert engine.info()["pool_spawned"] is True

    def test_single_worker_engine_never_spawns(self):
        graph = paper_figure1_graph()
        with DCCEngine(graph, jobs=1) as engine:
            assert engine.warm() is False
            engine.search(3, 2, 2)
            assert engine.info()["pool_spawned"] is False

    def test_closed_engine_raises(self):
        engine = DCCEngine(paper_figure1_graph(), jobs=1)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.search(1, 1, 1)
        with pytest.raises(EngineClosedError):
            engine.submit(1, 1, 1)

    def test_abandoned_engine_pool_is_finalized(self):
        # The weakref.finalize safety net: an engine dropped without
        # close() must not leak its worker processes past garbage
        # collection (and, via finalize's atexit hook, past exit).
        import gc

        engine = DCCEngine(paper_figure1_graph(), jobs=2)
        assert engine.warm() is True
        finalizer = engine._pool._finalizer
        assert finalizer is not None and finalizer.alive
        del engine
        gc.collect()
        assert not finalizer.alive

    def test_close_detaches_the_finalizer(self):
        with DCCEngine(paper_figure1_graph(), jobs=2) as engine:
            engine.warm()
            finalizer = engine._pool._finalizer
            assert finalizer.alive
        assert not finalizer.alive

    def test_live_pool_count_tracks_spawned_pools(self):
        from repro.parallel import live_pool_count

        baseline = live_pool_count()
        with DCCEngine(paper_figure1_graph(), jobs=2) as engine:
            assert live_pool_count() == baseline
            engine.warm()
            assert live_pool_count() == baseline + 1
        assert live_pool_count() == baseline

    def test_spawn_failure_degrades_to_inline(self, monkeypatch):
        from repro.parallel import executor as executor_module

        class BrokenPool:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise OSError("fork denied")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", BrokenPool
        )
        graph = paper_figure1_graph()
        with DCCEngine(graph, jobs=4) as engine:
            broken = engine.search(3, 2, 2, method="greedy")
            assert engine.info()["pool_inline_fallback"] is True
        healthy = search_dccs(graph, 3, 2, 2, method="greedy", jobs=1)
        assert_identical(broken, healthy)

    def test_tree_searches_spawn_no_worker(self):
        # Bottom-up and top-down run in process: a multi-worker engine
        # serving only them never spawns its pool, and every handle it
        # returns has nothing in flight.
        from repro.datasets import load

        graph = load("english", scale=0.1, seed=0).graph
        baseline = live_pool_count()
        with DCCEngine(graph, jobs=4) as engine:
            for method in ("bottom-up", "top-down"):
                handle = engine.submit(3, 2, 2, method=method, seed=5)
                assert handle.waitables() == ()
                assert_identical(
                    handle.collect(),
                    search_dccs(graph, 3, 2, 2, method=method, seed=5),
                    method)
                engine.search(2, 3, 2, method=method)
            status = engine.info()
            assert status["pool_spawned"] is False
            assert status["pool_queries_served"] == 0
            assert live_pool_count() == baseline


class TestOneCpuBudget:
    """``jobs=0`` in a process confined to one CPU: inline, same answers.

    Each session serves all three methods, takes one edge update and
    serves them again; the answers must equal a two-worker session's.
    """

    SPECS = (
        {"d": 3, "s": 2, "k": 2, "method": "greedy"},
        {"d": 3, "s": 2, "k": 2, "method": "bottom-up"},
        {"d": 2, "s": 3, "k": 2, "method": "top-down", "seed": 5},
    )
    # Both endpoints exist, so the update is a patched rebind, which a
    # spawned pool answers by shipping the delta to its workers.
    EDGE = (0, "a", "e")

    def engine_session(self, jobs):
        graph = paper_figure1_graph()
        with DCCEngine(graph, jobs=jobs) as engine:
            results = [engine.search(**spec) for spec in self.SPECS]
            graph.add_edge(*self.EDGE)
            results += [engine.search(**spec) for spec in self.SPECS]
            return results, engine.info(), live_pool_count()

    def async_session(self, jobs):
        async def serve():
            async with AsyncDCCHost(jobs=jobs) as host:
                host.attach("g", paper_figure1_graph())
                results = [await host.search("g", **spec)
                           for spec in self.SPECS]
                await host.update("g", add=[self.EDGE])
                results += [await host.search("g", **spec)
                            for spec in self.SPECS]
                status = host.info()["host"]["engines"]["g"]
                return results, status, live_pool_count()

        return asyncio.run(serve())

    @pytest.mark.parametrize("session", ["engine_session", "async_session"])
    def test_jobs_zero_runs_inline_and_matches_two_workers(
            self, session, monkeypatch):
        assert not paper_figure1_graph().has_edge(*self.EDGE)
        two_workers, _, _ = getattr(self, session)(2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        baseline = live_pool_count()
        one_cpu, status, live = getattr(self, session)(0)
        assert status["workers"] == 1
        assert status["pool_spawned"] is False
        assert status["rebinds_patched"] == 1
        assert live == baseline
        for spec, got, want in zip(self.SPECS * 2, one_cpu, two_workers):
            assert_identical(got, want, spec)


# ----------------------------------------------------------------------
# 5. harness and CLI plumbing
# ----------------------------------------------------------------------


class TestHarnessPlumbing:
    def test_measure_point_rejects_foreign_engine(self):
        # The harness times the sequential searches only: an engine
        # handed to it is an unknown search option, refused before any
        # row is measured.
        graph = paper_figure1_graph()
        with DCCEngine(paper_figure1_graph(), jobs=1) as engine:
            with pytest.raises(ParameterError, match="engine"):
                measure_point(graph, 1, 1, 1, methods=["greedy"],
                              engine=engine)

    def test_cli_batch(self, tmp_path, capsys):
        queries = tmp_path / "queries.json"
        queries.write_text(
            '[{"d": 3, "s": 2, "k": 2},'
            ' {"d": 2, "s": 2, "k": 2, "method": "greedy"}]'
        )
        assert main(["batch", "figure1", str(queries), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch: 2 queries" in out
        assert "cover 13 vertices" in out

    def test_cli_batch_rejects_empty_payload(self, tmp_path, capsys):
        queries = tmp_path / "empty.json"
        queries.write_text("[]")
        assert main(["batch", "figure1", str(queries)]) == 2

    @pytest.mark.parametrize("payload", [
        '[[3, 2, 2]]',                       # entry is not an object
        '[{"d": 3, "s": 2, "k": 2}, 7]',     # mixed garbage
        '[{"d": 3, "s": 99, "k": 2}]',       # invalid parameters
    ])
    def test_cli_batch_rejects_malformed_queries(self, tmp_path, capsys,
                                                 payload):
        queries = tmp_path / "bad.json"
        queries.write_text(payload)
        assert main(["batch", "figure1", str(queries)]) == 2
        assert capsys.readouterr().err != ""

    def test_cli_info_reports_engine_status(self, capsys):
        assert main(["info", "ppi", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "engine_workers" in out
        assert "engine_cache_entries: 0" in out
