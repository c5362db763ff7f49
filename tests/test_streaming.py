"""Streaming-update suite: delta maintenance without rebind-the-world.

The contract under test, in order of importance:

1. **stream equivalence** (the acceptance-criterion property) — any
   interleaving of batched updates and queries against one persistent
   engine yields, for every query, results and counters bitwise
   identical to a fresh engine built from scratch over an identically
   mutated graph: cold and warm (repeats replay through the artifact
   cache), inline and across worker pools, and through the
   async host and the socket protocol;
2. **delta bookkeeping** — a mutation batch ticks ``mutation_version``
   exactly once, records the *net* delta (adds cancel queued removes),
   rejects invalid batches atomically, and ``delta_since`` replays any
   missing suffix or reports the history gone;
3. **CSR patching** — ``freeze()`` after a delta patches only the
   touched layers of the cached CSR, bitwise identical to a full
   ``from_graph`` rebuild, with untouched layers shared by reference;
4. **selective invalidation** — a delta-aware rebind keeps untouched
   layers' cached artifacts and the engine's patch-vs-rebuild counters
   make the split observable end to end (engine ``info()``, the
   serving ``stats`` op).
"""

import asyncio
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio import AsyncDCCHost, DCCServer
from repro.engine import DCCEngine
from repro.graph import MultiLayerGraph
from repro.graph.delta import GraphDelta, merge_entries
from repro.graph.frozen import FrozenMultiLayerGraph
from repro.host import DCCHost, parse_host_spec
from repro.utils.errors import (
    EdgeError,
    FrozenGraphError,
    ParameterError,
    VertexError,
)
from tests.strategies import multilayer_graphs


def stream_graph(seed=11, n=18, layers=3, p=0.3):
    """A deterministic random graph big enough to have interesting cores."""
    rng = random.Random(seed)
    graph = MultiLayerGraph(layers, vertices=range(n))
    for layer in range(layers):
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    graph.add_edge(layer, u, v)
    return graph


def random_batch(rng, graph, layer=None, size=3):
    """A valid ``(add, remove)`` pair of edge batches for ``graph``."""
    vertices = sorted(graph.vertices())
    if len(vertices) < 2:
        return [], []
    layers = [layer] if layer is not None else list(graph.layers())
    add, remove = [], []
    for _ in range(size):
        target = rng.choice(layers)
        u, v = rng.sample(vertices, 2)
        if graph.has_edge(target, u, v):
            remove.append((target, u, v))
        else:
            add.append((target, u, v))
    # Dedupe (either orientation) — a batch removing one edge twice is
    # rejected by design, which is not what this helper is for.
    seen = set()
    add = [e for e in add
           if not ((e in seen) or ((e[0], e[2], e[1]) in seen)
                   or seen.add(e))]
    remove = [e for e in remove
              if not ((e in seen) or ((e[0], e[2], e[1]) in seen)
                      or seen.add(e))]
    return add, remove


def assert_identical(first, second, context=""):
    assert first.sets == second.sets, context
    assert first.labels == second.labels, context
    assert first.cover_size == second.cover_size, context
    assert first.stats.as_dict() == second.stats.as_dict(), context


# ----------------------------------------------------------------------
# delta bookkeeping on the mutable graph
# ----------------------------------------------------------------------


class TestDeltaBatching:
    def test_batch_ticks_version_once(self):
        graph = stream_graph()
        before = graph.mutation_version
        with graph.update():
            graph.add_edge(0, 0, 1) if not graph.has_edge(0, 0, 1) \
                else graph.remove_edge(0, 0, 1)
            graph.add_edge(1, 2, 3) if not graph.has_edge(1, 2, 3) \
                else graph.remove_edge(1, 2, 3)
        assert graph.mutation_version == before + 1

    def test_bulk_helpers_tick_once(self):
        graph = MultiLayerGraph(2, vertices=range(4))
        before = graph.mutation_version
        graph.add_edges(0, [(0, 1), (1, 2), (2, 3)])
        assert graph.mutation_version == before + 1
        before = graph.mutation_version
        graph.add_vertices([7, 8, 9])
        assert graph.mutation_version == before + 1
        before = graph.mutation_version
        graph.remove_vertices([7, 8])
        assert graph.mutation_version == before + 1

    def test_apply_delta_reports_net_effect(self):
        graph = stream_graph()
        add = [(0, u, v) for u, v in ((0, 1), (2, 5))
               if not graph.has_edge(0, u, v)]
        remove = [(1, u, v) for u, v in ((0, 1), (2, 5), (3, 4))
                  if graph.has_edge(1, u, v)]
        before = graph.mutation_version
        delta = graph.apply_delta(add=add, remove=remove)
        assert delta is not None
        assert delta.base_version == before
        assert delta.version == before + 1 == graph.mutation_version
        assert sorted(delta.edges_added) == sorted(add)
        assert sorted(delta.edges_removed) == sorted(remove)
        assert not delta.structural
        for layer, u, v in add:
            assert graph.has_edge(layer, u, v)
        for layer, u, v in remove:
            assert not graph.has_edge(layer, u, v)

    def test_add_then_remove_nets_to_nothing(self):
        graph = stream_graph()
        edge = next(
            (0, u, v) for u in range(18) for v in range(u + 1, 18)
            if not graph.has_edge(0, u, v)
        )
        before = graph.mutation_version
        # Removal listed with swapped endpoints: orientation must not
        # defeat the cancellation.
        delta = graph.apply_delta(add=[edge],
                                  remove=[(edge[0], edge[2], edge[1])])
        assert delta is None
        assert graph.mutation_version == before
        assert not graph.has_edge(*edge)

    def test_invalid_removal_rejects_whole_batch(self):
        graph = stream_graph()
        missing = next(
            (2, u, v) for u in range(18) for v in range(u + 1, 18)
            if not graph.has_edge(2, u, v)
        )
        new_edge = next(
            (0, u, v) for u in range(18) for v in range(u + 1, 18)
            if not graph.has_edge(0, u, v)
        )
        before = graph.mutation_version
        edges_before = [graph.num_edges(layer) for layer in graph.layers()]
        with pytest.raises(EdgeError):
            graph.apply_delta(add=[new_edge], remove=[missing])
        assert graph.mutation_version == before
        assert not graph.has_edge(*new_edge)
        assert [graph.num_edges(layer)
                for layer in graph.layers()] == edges_before

    def test_duplicate_removal_rejected_atomically(self):
        graph = stream_graph()
        present = next(
            (0, u, v) for u in range(18) for v in range(u + 1, 18)
            if graph.has_edge(0, u, v)
        )
        before = graph.mutation_version
        with pytest.raises(EdgeError):
            graph.apply_delta(
                remove=[present, (present[0], present[2], present[1])]
            )
        assert graph.mutation_version == before
        assert graph.has_edge(*present)

    def test_vertex_creation_marks_structural(self):
        graph = stream_graph()
        delta = graph.apply_delta(add=[(0, 0, "brand-new")])
        assert delta.structural

    def test_delta_since_current_version_is_empty(self):
        graph = stream_graph()
        delta = graph.delta_since(graph.mutation_version)
        assert delta is not None and delta.empty

    def test_delta_since_merges_batches(self):
        graph = stream_graph()
        base = graph.mutation_version
        first = next(
            (0, u, v) for u in range(18) for v in range(u + 1, 18)
            if not graph.has_edge(0, u, v)
        )
        graph.apply_delta(add=[first])
        second = next(
            (1, u, v) for u in range(18) for v in range(u + 1, 18)
            if graph.has_edge(1, u, v)
        )
        graph.apply_delta(remove=[second])
        merged = graph.delta_since(base)
        assert merged.base_version == base
        assert merged.version == graph.mutation_version
        assert tuple(merged.edges_added) == (first,)
        assert tuple(merged.edges_removed) == (second,)
        assert merged.touched_layers() == frozenset({0, 1})
        # Cross-batch cancellation: removing the first batch's addition
        # in a later batch nets the pair out of the merged view entirely
        # (the edge did not exist at ``base`` and does not exist now).
        graph.apply_delta(remove=[first])
        net = graph.delta_since(base)
        assert tuple(net.edges_added) == ()
        assert tuple(net.edges_removed) == (second,)

    def test_delta_since_unknown_or_future_version_is_none(self):
        graph = stream_graph()
        assert graph.delta_since(graph.mutation_version + 1) is None
        assert graph.delta_since(-1) is None

    def test_delta_log_is_bounded(self):
        graph = MultiLayerGraph(1, vertices=range(4))
        base = graph.mutation_version
        for _ in range(80):
            graph.add_edge(0, 0, 1)
            graph.remove_edge(0, 0, 1)
        assert graph.delta_since(base) is None
        recent = graph.mutation_version - 5
        replay = graph.delta_since(recent)
        assert replay is not None
        assert replay.version == graph.mutation_version

    def test_merge_entries_helper(self):
        merged = merge_entries(3, 5, [
            (3, 4, (((0, "a", "b"),)), (), False),
            (4, 5, (), ((0, "b", "a"),), False),
        ])
        assert isinstance(merged, GraphDelta)
        assert merged.empty and not merged.structural


class TestMutationErrors:
    def test_remove_missing_edge_raises_edge_error(self):
        graph = MultiLayerGraph(2, vertices=range(3))
        graph.add_edge(0, 0, 1)
        with pytest.raises(EdgeError) as caught:
            graph.remove_edge(1, 0, 1)
        message = str(caught.value)
        assert "layer 1" in message and "(0, 1)" in message
        # Nothing half-applied: the present edge survives untouched.
        assert graph.has_edge(0, 0, 1)
        assert graph.num_edges(0) == 1 and graph.num_edges(1) == 0

    def test_edge_error_is_a_graph_keyerror(self):
        # Compatibility contract: callers catching KeyError (the old
        # failure mode) keep working.
        assert issubclass(EdgeError, KeyError)

    def test_remove_edge_unknown_vertex_raises_vertex_error(self):
        graph = MultiLayerGraph(1, vertices=range(3))
        graph.add_edge(0, 0, 1)
        with pytest.raises(VertexError):
            graph.remove_edge(0, 0, 99)
        assert graph.has_edge(0, 0, 1)


# ----------------------------------------------------------------------
# CSR patching
# ----------------------------------------------------------------------


class TestFreezePatching:
    def test_patched_freeze_matches_full_rebuild(self):
        graph = stream_graph(layers=4)
        cached = graph.freeze()
        assert graph.freeze_rebuilds == 1
        add, remove = random_batch(random.Random(3), graph, layer=1)
        graph.apply_delta(add=add, remove=remove)
        patched = graph.freeze()
        assert graph.freeze_patches == 1
        rebuilt = FrozenMultiLayerGraph.from_graph(graph)
        assert list(patched.labels) == list(rebuilt.labels)
        for layer in graph.layers():
            assert list(patched._indptr[layer]) == \
                list(rebuilt._indptr[layer])
            assert list(patched._indices[layer]) == \
                list(rebuilt._indices[layer])
        assert patched._edge_counts == rebuilt._edge_counts
        assert patched._layer_masks == rebuilt._layer_masks
        # Untouched layers share the cached CSR arrays by reference —
        # that sharing is the whole point of the patch.
        for layer in graph.layers():
            if layer != 1:
                assert patched._indices[layer] is cached._indices[layer]

    @given(multilayer_graphs(max_vertices=8, max_layers=4),
           st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_patched_freeze_matches_rebuild_randomised(self, graph, rng):
        graph.freeze()
        add, remove = random_batch(rng, graph)
        if not add and not remove:
            return
        graph.apply_delta(add=add, remove=remove)
        patched = graph.freeze()
        rebuilt = FrozenMultiLayerGraph.from_graph(graph)
        for layer in graph.layers():
            assert list(patched._indptr[layer]) == \
                list(rebuilt._indptr[layer])
            assert list(patched._indices[layer]) == \
                list(rebuilt._indices[layer])
        assert patched._edge_counts == rebuilt._edge_counts
        assert patched._layer_masks == rebuilt._layer_masks

    def test_structural_delta_forces_rebuild(self):
        graph = stream_graph()
        graph.freeze()
        graph.apply_delta(add=[(0, 0, "newcomer")])
        graph.freeze()
        assert graph.freeze_patches == 0
        assert graph.freeze_rebuilds == 2

    def test_wide_delta_prefers_rebuild(self):
        # Touching more than half the layers makes patching pointless;
        # the heuristic falls back to one full rebuild.
        graph = stream_graph(layers=2)
        graph.freeze()
        add = []
        for layer in graph.layers():
            add.append(next(
                (layer, u, v) for u in range(18) for v in range(u + 1, 18)
                if not graph.has_edge(layer, u, v)
            ))
        graph.apply_delta(add=add)
        graph.freeze()
        assert graph.freeze_patches == 0
        assert graph.freeze_rebuilds == 2


# ----------------------------------------------------------------------
# engine-level stream equivalence
# ----------------------------------------------------------------------

QUERY_SPECS = [
    dict(d=2, s=2, k=2),
    dict(d=2, s=1, k=2, method="greedy"),
]

# One streaming script: (kind, payload) steps.  Queries repeat so the
# warm (artifact-cache-replayed) path is compared against a cold fresh
# engine; updates deliberately concentrate on layer 0 so the delta
# rebind keeps other layers' artifacts.
STREAM_SCRIPT = [
    ("query", 0), ("query", 1), ("query", 0),
    ("update", 0), ("query", 0), ("query", 0), ("query", 1),
    ("update", 1), ("update", 2), ("query", 1), ("query", 0),
]


def engine_configs():
    return [
        pytest.param(lambda g: DCCEngine(g, jobs=1), id="inline"),
        pytest.param(lambda g: DCCEngine(g, jobs=2), id="pooled"),
    ]


class TestEngineStreamEquivalence:
    @pytest.mark.parametrize("make_engine", engine_configs())
    def test_interleaved_stream_matches_rebuild_from_scratch(
            self, make_engine):
        graph = stream_graph()
        rng = random.Random(29)
        rebinds = 0
        stale = False
        with make_engine(graph) as engine:
            for kind, payload in STREAM_SCRIPT:
                if kind == "update":
                    add, remove = random_batch(rng, graph, layer=0)
                    assert graph.apply_delta(add=add, remove=remove) \
                        is not None
                    stale = True
                    continue
                if stale:
                    # Consecutive updates coalesce into one lazy rebind
                    # on the first query that observes them.
                    rebinds += 1
                    stale = False
                spec = QUERY_SPECS[payload]
                streamed = engine.search(**spec)
                with make_engine(graph.copy()) as fresh:
                    scratch = fresh.search(**spec)
                assert_identical(streamed, scratch,
                                 "step {!r} diverged".format((kind,
                                                              payload)))
            status = engine.info()
        assert status["invalidations"] == rebinds
        assert status["rebinds_patched"] + status["rebinds_full"] == rebinds

    def test_delta_rebind_patches_and_keeps_artifacts(self):
        graph = stream_graph(layers=4)
        with DCCEngine(graph, jobs=1) as engine:
            engine.search(d=2, s=2, k=2, method="greedy")
            add, remove = random_batch(random.Random(7), graph, layer=0)
            graph.apply_delta(add=add, remove=remove)
            engine.search(d=2, s=2, k=2, method="greedy")
            status = engine.info()
        assert status["rebinds_patched"] == 1
        assert status["rebinds_full"] == 0
        assert status["freeze_patches"] == 1
        # Layer 0's per-layer core was re-peeled; layers 1-3 survived
        # the selective invalidation and replayed from cache.
        assert status["cache_invalidations_kept"] == 3
        assert status["cache_layer_core_hits"] == 3

    def test_structural_delta_falls_back_to_full_rebind(self):
        graph = stream_graph()
        with DCCEngine(graph, jobs=1) as engine:
            engine.search(d=2, s=2, k=2)
            graph.apply_delta(add=[(0, 0, 99)])
            result = engine.search(d=2, s=2, k=2)
            status = engine.info()
        assert status["rebinds_full"] == 1
        assert status["rebinds_patched"] == 0
        with DCCEngine(graph.copy(), jobs=1) as fresh:
            assert_identical(result, fresh.search(d=2, s=2, k=2))

    def test_pooled_workers_receive_deltas(self):
        graph = stream_graph()
        rng = random.Random(13)
        # Greedy: the one method whose shards reach the pool.
        with DCCEngine(graph, jobs=2) as engine:
            engine.search(d=2, s=2, k=2, method="greedy")
            spawned_before = engine.info()["pool_spawned"]
            for _ in range(2):
                add, remove = random_batch(rng, graph, layer=0)
                graph.apply_delta(add=add, remove=remove)
                result = engine.search(d=2, s=2, k=2, method="greedy")
                with DCCEngine(graph.copy(), jobs=2) as fresh:
                    assert_identical(result, fresh.search(
                        d=2, s=2, k=2, method="greedy"))
            status = engine.info()
        if spawned_before:
            # The pool was live across the mutations: the deltas were
            # shipped to the workers, not respawned around.
            assert status["pool_deltas_shipped"] >= 1
            assert status["pool_spawned"] == spawned_before

    @given(
        multilayer_graphs(max_vertices=8, max_layers=3),
        st.randoms(use_true_random=False),
        st.lists(st.sampled_from(["query", "update"]), min_size=2,
                 max_size=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_randomised_stream_equivalence(self, graph, rng, script):
        with DCCEngine(graph, jobs=1) as engine:
            for kind in script:
                if kind == "update":
                    add, remove = random_batch(rng, graph, size=2)
                    if add or remove:
                        graph.apply_delta(add=add, remove=remove)
                    continue
                streamed = engine.search(d=2, s=1, k=2)
                with DCCEngine(graph.copy(), jobs=1) as fresh:
                    assert_identical(streamed, fresh.search(d=2, s=1, k=2))


# ----------------------------------------------------------------------
# serving tier: async host and socket protocol
# ----------------------------------------------------------------------


class TestAsyncHostUpdates:
    def test_update_barrier_orders_batch(self):
        graph = stream_graph()
        mirror = stream_graph()
        add, remove = random_batch(random.Random(17), graph, layer=0)

        async def run():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("g", graph)
                return await host.search_many([
                    {"graph": "g", "d": 2, "s": 2, "k": 2},
                    {"op": "update", "graph": "g",
                     "add": [list(edge) for edge in add],
                     "remove": [list(edge) for edge in remove]},
                    {"graph": "g", "d": 2, "s": 2, "k": 2},
                ]), host.info()

        results, info = asyncio.run(run())
        before, receipt, after = results
        assert receipt["applied"] == len(add) + len(remove)
        assert receipt["mutation_version"] == graph.mutation_version
        with DCCHost(jobs=1) as sync:
            sync.attach("old", mirror)
            baseline_before = sync.search("old", d=2, s=2, k=2)
            mirror.apply_delta(add=add, remove=remove)
            baseline_after = sync.search("old", d=2, s=2, k=2)
        assert_identical(before, baseline_before, "pre-update query")
        assert_identical(after, baseline_after, "post-update query")
        assert info["updates_applied"] == 1
        assert info["update_edges_applied"] == len(add) + len(remove)
        assert info["update_latency"]["count"] == 1

    def test_post_update_repeat_is_cached_and_identical(self):
        graph = stream_graph()

        async def run():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("g", graph)
                await host.search("g", d=2, s=2, k=2)
                add, remove = random_batch(random.Random(23), graph,
                                           layer=0)
                await host.update("g", add=add, remove=remove)
                first = await host.search("g", d=2, s=2, k=2)
                second = await host.search("g", d=2, s=2, k=2)
                return first, second, host.info()

        first, second, info = asyncio.run(run())
        assert_identical(first, second, "warm repeat diverged")
        assert info["result_cache"]["invalidations"] >= 1
        assert info["requests_cached"] >= 1
        engine_status = info["host"]["engines"]["g"]
        assert engine_status["rebinds_patched"] + \
            engine_status["rebinds_full"] == 1

    def test_update_rejects_immutable_graph(self):
        frozen = stream_graph().freeze()

        async def run():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("f", frozen)
                with pytest.raises(FrozenGraphError):
                    await host.update("f", add=[(0, 0, 1)])

        asyncio.run(run())

    def test_failed_update_leaves_graph_and_serving_intact(self):
        graph = stream_graph()
        missing = next(
            (0, u, v) for u in range(18) for v in range(u + 1, 18)
            if not graph.has_edge(0, u, v)
        )

        async def run():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("g", graph)
                before = await host.search("g", d=2, s=2, k=2)
                version = graph.mutation_version
                with pytest.raises(EdgeError):
                    await host.update("g", remove=[missing])
                assert graph.mutation_version == version
                after = await host.search("g", d=2, s=2, k=2)
                assert_identical(before, after)
                assert host.info()["updates_applied"] == 0

        asyncio.run(run())


class TestServerUpdateProtocol:
    @staticmethod
    async def _client(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return reader, writer

    @staticmethod
    async def _ask(reader, writer, entry):
        writer.write((json.dumps(entry) + "\n").encode("utf-8"))
        await writer.drain()
        line = await reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def test_update_op_round_trip(self):
        graph = stream_graph()
        mirror = stream_graph()
        add, remove = random_batch(random.Random(31), graph, layer=0)

        async def run():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("g", graph)
                async with DCCServer(host, port=0) as server:
                    reader, writer = await self._client(server.port)
                    first = await self._ask(reader, writer, {
                        "graph": "g", "d": 2, "s": 2, "k": 2, "id": "q1",
                    })
                    receipt = await self._ask(reader, writer, {
                        "op": "update", "graph": "g", "id": "u1",
                        "add": [list(edge) for edge in add],
                        "remove": [list(edge) for edge in remove],
                    })
                    second = await self._ask(reader, writer, {
                        "graph": "g", "d": 2, "s": 2, "k": 2, "id": "q2",
                    })
                    stats = await self._ask(reader, writer,
                                            {"op": "stats"})
                    writer.close()
                    return first, receipt, second, stats

        first, receipt, second, stats = asyncio.run(run())
        assert first["ok"] and second["ok"] and receipt["ok"]
        assert receipt["id"] == "u1"
        assert receipt["update"]["applied"] == len(add) + len(remove)
        assert receipt["update"]["mutation_version"] == \
            graph.mutation_version
        with DCCHost(jobs=1) as sync:
            sync.attach("g", mirror)
            baseline_first = sync.search("g", d=2, s=2, k=2)
            mirror.apply_delta(add=add, remove=remove)
            baseline_second = sync.search("g", d=2, s=2, k=2)
        assert first["cover"] == baseline_first.cover_size
        assert second["cover"] == baseline_second.cover_size
        assert second["sets"] == [sorted(members, key=repr)
                                  for members in baseline_second.sets]
        serving = stats["stats"]["serving"]
        assert serving["updates_applied"] == 1
        assert serving["update_latency"]["count"] == 1
        engine_status = serving["host"]["engines"]["g"]
        assert engine_status["rebinds_patched"] + \
            engine_status["rebinds_full"] == 1

    def test_malformed_updates_answer_typed_errors(self):
        graph = stream_graph()

        async def run():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("g", graph)
                async with DCCServer(host, port=0) as server:
                    reader, writer = await self._client(server.port)
                    answers = []
                    for entry in (
                        {"op": "update"},                        # no graph
                        {"op": "update", "graph": "g"},          # no edges
                        {"op": "update", "graph": "g",
                         "add": [[0, 1]]},                       # bad shape
                        {"op": "update", "graph": "g",
                         "add": "not-a-list"},                   # bad type
                        {"op": "bogus"},                         # unknown
                    ):
                        answers.append(
                            await self._ask(reader, writer, entry)
                        )
                    follow_up = await self._ask(reader, writer, {
                        "graph": "g", "d": 2, "s": 2, "k": 2,
                    })
                    writer.close()
                    return answers, follow_up

        answers, follow_up = asyncio.run(run())
        for answer in answers:
            assert answer["ok"] is False
            assert answer["error_type"] == "ProtocolError"
        assert "update" in answers[-1]["error"]
        assert follow_up["ok"], "connection must survive bad updates"


    def test_wrong_typed_update_edges_answer_typed_errors(self):
        """A wrong-typed layer or vertex is rejected by the graph before
        any edge of the batch applies, over the socket and through the
        async host alike."""
        graph = stream_graph()

        async def run():
            async with AsyncDCCHost(jobs=1) as host:
                host.attach("g", graph)
                version = graph.mutation_version
                direct = []
                for edge in (("0", 1, 2), (0.0, 1, 2), (True, 1, 99),
                             (0, [1], 2)):
                    with pytest.raises(ParameterError):
                        await host.update("g", add=[(0, 3, 4), edge])
                    direct.append(graph.mutation_version)
                async with DCCServer(host, port=0) as server:
                    reader, writer = await self._client(server.port)
                    answers = [
                        await self._ask(reader, writer, {
                            "op": "update", "graph": "g",
                            "add": [[0, 3, 4], edge]})
                        for edge in (["0", 1, 2], [1.5, 1, 2],
                                     [True, 1, 99], [0, [1], 2])
                    ]
                    writer.close()
                return version, direct, answers, graph.mutation_version

        version, direct, answers, after = asyncio.run(run())
        assert direct == [version] * 4
        for answer in answers:
            assert answer["ok"] is False
            assert answer["error_type"] == "ParameterError"
        assert after == version
        assert not graph.has_vertex(99)


class TestSpecFileUpdates:
    def test_update_entries_accepted(self):
        graphs, queries, _ = parse_host_spec({
            "graphs": {"g": "figure1"},
            "queries": [
                {"graph": "g", "d": 3, "s": 2, "k": 2},
                {"op": "update", "graph": "g", "add": [[0, 1, 9]]},
                {"graph": "g", "d": 3, "s": 2, "k": 2},
            ],
        })
        assert len(queries) == 3
        assert queries[1]["op"] == "update"

    def test_update_entry_requires_edges(self):
        with pytest.raises(ParameterError):
            parse_host_spec({
                "graphs": {"g": "figure1"},
                "queries": [{"op": "update", "graph": "g"}],
            })

    def test_unknown_op_rejected(self):
        with pytest.raises(ParameterError):
            parse_host_spec({
                "graphs": {"g": "figure1"},
                "queries": [{"op": "detach", "graph": "g"}],
            })
