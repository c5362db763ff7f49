"""The peel-kernel contract: the numpy kernels are invisible.

Four layers of guarantees, all enforced here:

* **one tier, no knob** — ``kernel=`` is gone from every surface and is
  rejected there with a typed error; ``resolve_kernel`` and the frozen
  graph's ``kernel`` report the one tier as provenance;
* **bitwise equivalence** — for every frozen-backend primitive
  (induced degrees, layer core, coherent core, core decomposition,
  vertex deletion, the hierarchy index) and for full ``search_dccs``
  runs across methods, jobs counts and warm caches, the frozen graph's
  numpy kernels return the dict backend's values, labels, cover sizes
  and ``SearchStats`` counters; the full-graph layer peel, which picks a
  push or a pull for each round, equals the push-only cascade;
* **one input contract** — a bad ``d`` or layer raises the same typed
  error on the dict backend and on the frozen graph;
* **bookkeeping honesty** — ``memory_bytes`` counts numpy-backed CSR
  storage and lazily-built degree vectors, and the synthetic generator
  assembles each layer as its sorted, distinct edge pairs.
"""

import asyncio
import contextlib
from array import array
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets.synthetic as synthetic_module
import repro.graph.kernels as kernels_module
from repro.aio import AsyncDCCHost
from repro.cli import build_parser
from repro.core import search_dccs
from repro.core.dcc import (
    candidate_for_subset,
    coherent_core,
    coherent_core_binsort,
    enumerate_candidates,
    validate_search_params,
)
from repro.core.dcore import (
    core_decomposition,
    d_core,
    layer_core,
    layer_core_decomposition,
    layer_core_sizes,
)
from repro.core.index import CoreHierarchyIndex
from repro.core.initk import init_topk
from repro.core.maintain import (
    CoreMasks,
    MultiLayerCoreMaintainer,
    core_maintainer,
)
from repro.core.preprocess import vertex_deletion
from repro.core.refine import refine_potential
from repro.core.stats import SearchStats
from repro.core.topdown import td_dccs
from repro.datasets import load, synthetic_multilayer
from repro.engine import DCCEngine
from repro.graph import (
    FrozenMultiLayerGraph,
    MultiLayerGraph,
    paper_figure1_graph,
)
from repro.graph.kernels import (
    buffer_nbytes,
    np_induced_subgraph,
    numpy_version,
    resolve_kernel,
)
from repro.host import DCCHost, parse_host_spec
from repro.host.spec import SETTINGS_KEYS
from repro.parallel.serialize import graph_payload, payload_graph
from repro.utils.errors import LayerIndexError, ParameterError

from tests.strategies import (
    hub_graphs,
    multilayer_graphs,
    one_layer_graph,
    pull_then_push_graph,
    star_cascade_graph,
)


# ----------------------------------------------------------------------
# one tier, no knob
# ----------------------------------------------------------------------


class TestKernelFlag:
    def test_flag_universe(self):
        """No subcommand takes ``--kernel`` and no spec sets a tier."""
        parser = build_parser()
        for argv in (["info", "figure1"], ["search", "figure1"],
                     ["batch", "figure1", "queries.json"],
                     ["host", "spec.json"], ["serve", "spec.json"]):
            parser.parse_args(argv)
            with pytest.raises(SystemExit) as exited:
                parser.parse_args(argv + ["--kernel", "numpy"])
            assert exited.value.code == 2
        assert "kernel" not in SETTINGS_KEYS

    @pytest.mark.parametrize("bad", ["fast", "", None, 1, "NUMPY"])
    def test_bad_flag_rejected(self, bad):
        graph = paper_figure1_graph()
        for jobs in (None, 1):
            with pytest.raises(ParameterError,
                               match="unknown option 'kernel'"):
                search_dccs(graph, 3, 2, 2, jobs=jobs, kernel=bad)

    def test_auto_resolution_follows_numpy(self):
        assert resolve_kernel("auto") == "numpy"
        assert paper_figure1_graph().freeze().kernel == "numpy"
        assert FrozenMultiLayerGraph.kernel == "numpy"

    def test_version_reporting(self):
        assert numpy_version() == np.__version__

    def test_explicit_numpy_fails_eagerly_everywhere(self):
        graph = paper_figure1_graph()
        for jobs in (None, 1):
            with pytest.raises(ParameterError,
                               match="unknown option 'kernel'"):
                search_dccs(graph, 3, 2, 2, jobs=jobs, kernel="numpy")
        with pytest.raises(TypeError, match="kernel"):
            DCCEngine(graph, kernel="numpy")
        with pytest.raises(TypeError, match="kernel"):
            DCCHost(kernel="numpy")
        with pytest.raises(TypeError, match="kernel"):
            AsyncDCCHost(kernel="numpy")
        with DCCHost() as host:
            with pytest.raises(TypeError, match="kernel"):
                host.attach("g", graph, kernel="numpy")
            assert not host.is_attached("g")
        with pytest.raises(ParameterError, match="'kernel'"):
            parse_host_spec({
                "graphs": {"g": "figure1"},
                "kernel": "numpy",
                "queries": [{"graph": "g", "d": 3, "s": 2, "k": 2}],
            })


# ----------------------------------------------------------------------
# primitive equivalence (hypothesis)
# ----------------------------------------------------------------------


class TestPrimitiveEquivalence:
    @given(multilayer_graphs(max_vertices=9, max_layers=3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_primitives_bitwise_identical(self, graph, data):
        d = data.draw(st.integers(min_value=0, max_value=4))
        layers = tuple(range(graph.num_layers))
        within = data.draw(st.one_of(
            st.none(),
            st.lists(st.integers(min_value=-1,
                                 max_value=graph.num_vertices),
                     max_size=graph.num_vertices + 2),
        ))
        outputs = []
        for backend in (graph, graph.freeze()):
            stats = SearchStats()
            outputs.append((
                backend.induced_degrees(0, within),
                layer_core(backend, 0, d, within=within),
                coherent_core(backend, layers, d, within=within,
                              stats=stats),
                stats.as_dict(),
                layer_core_decomposition(backend, 0, within=within),
            ))
        assert outputs[0] == outputs[1]

    @given(st.integers(min_value=1, max_value=40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_distinct_ids(self, n, data):
        ids = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                 max_size=3 * n))
        got = kernels_module._distinct(np.array(ids, dtype=np.int64), n)
        assert got.tolist() == sorted(set(ids))

    @given(multilayer_graphs(max_vertices=9, max_layers=3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_vertex_deletion_identical(self, graph, data):
        d = data.draw(st.integers(min_value=0, max_value=4))
        s = data.draw(st.integers(min_value=1, max_value=graph.num_layers))
        enabled = data.draw(st.booleans())
        seeded = data.draw(st.sets(st.sampled_from(range(graph.num_layers))))
        seeds = {
            layer: layer_core(graph, layer, d) for layer in seeded
        } or None
        outputs = []
        for backend in (graph, graph.freeze()):
            stats = SearchStats()
            prep = vertex_deletion(backend, d, s, enabled=enabled,
                                   stats=stats, seed_cores=seeds)
            outputs.append((
                prep.alive, prep.cores, prep.support, prep.deleted,
                prep.rounds, stats.dcc_calls, stats.vertices_deleted,
            ))
        assert outputs[0] == outputs[1]

    @given(multilayer_graphs(max_vertices=9, max_layers=3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_hierarchy_index_identical(self, graph, data):
        d = data.draw(st.integers(min_value=0, max_value=4))
        within = data.draw(st.one_of(
            st.none(),
            st.lists(st.integers(min_value=-1,
                                 max_value=graph.num_vertices),
                     max_size=graph.num_vertices + 2),
        ))
        outputs = []
        for backend in (graph, graph.freeze()):
            stats = SearchStats()
            index = CoreHierarchyIndex(backend, d, within=within,
                                       stats=stats)
            outputs.append(_index_view(index) + (stats.dcc_calls,))
        assert outputs[0] == outputs[1]

    @given(multilayer_graphs(max_vertices=9, max_layers=2))
    @settings(max_examples=15, deadline=None)
    def test_core_decomposition_matches_dict_reference(self, graph):
        assert layer_core_decomposition(graph.freeze(), 0) == \
            core_decomposition(graph.adjacency(0))


def _index_view(index):
    """Per-vertex level, threshold, label and union neighbours as dicts,
    and the level batches as sets, from either form of the index."""
    batches = [(threshold, set(batch)) for threshold, batch in index.levels]
    if not index.is_array:
        return (index.level_of, index.threshold_of, index.label,
                index.union_adj, batches)
    indexed = [v for v, level in enumerate(index.level.tolist())
               if level >= 0]
    indptr = index.union_indptr.tolist()
    return (
        {v: int(index.level[v]) for v in indexed},
        {v: int(index.threshold[v]) for v in indexed},
        {v: frozenset(layer for layer, mask in enumerate(index.label_masks)
                      if mask[v])
         for v in indexed},
        {v: set(index.union_indices[indptr[v]:indptr[v + 1]].tolist())
         for v in indexed},
        batches,
    )


# ----------------------------------------------------------------------
# the full-graph layer peel: a push or a pull per round
# ----------------------------------------------------------------------


def _push_layer_core(frozen, layer, d):
    """The push-only full-graph cascade: ``(core mask, degrees)``."""
    alive = np.ones(frozen.num_vertices, dtype=np.bool_)
    members = np.arange(frozen.num_vertices)
    degrees = kernels_module._induced_degree_arrays(
        frozen, (layer,), alive, members, full=True
    )
    frontier = kernels_module._below_threshold(members, degrees, d)
    kernels_module._peel_rounds(frozen, (layer,), d, alive, frontier,
                                degrees)
    return alive, degrees[0]


def _round_entries(frozen, d):
    """``(frontier, survivor)`` CSR entries of each round of the peel.

    Counted from scratch over layer 0's rows: every round, the frontier
    is the alive vertices below ``d`` and the survivors the rest.
    """
    n = frozen.num_vertices
    length = [frozen.degree(0, v) for v in range(n)]
    live = list(length)
    alive = set(range(n))
    frontier = {v for v in alive if live[v] < d}
    rounds = []
    while frontier:
        alive -= frontier
        rounds.append((sum(length[v] for v in frontier),
                       sum(length[v] for v in alive)))
        for v in frontier:
            for u in frozen.neighbors(0, v):
                live[u] -= 1
        frontier = {v for v in alive if live[v] < d}
    return rounds


# (graph, d, (frontier, survivor) entries per round, pull rounds, the
# frontier the push starts from, core).  A round pulls while its
# frontier holds more entries than its survivors; a tie pushes.
ROUTES = {
    "push only": (
        lambda: one_layer_graph(6, [*combinations(range(5), 2), (0, 5)]),
        2, [(1, 21)], 0, [5], range(5),
    ),
    "a tie pushes": (
        lambda: one_layer_graph(9, [*combinations(range(3), 2), (3, 4),
                                    (5, 6), (7, 8)]),
        2, [(6, 6)], 0, [3, 4, 5, 6, 7, 8], range(3),
    ),
    "one pull, then push": (
        pull_then_push_graph, 3, [(19, 17), (3, 14)], 1, [4], range(4),
    ),
    "three pulls": (
        star_cascade_graph, 2, [(29, 27), (14, 13), (7, 6)], 3, [],
        range(3),
    ),
    "pulls to an empty core": (
        lambda: star_cascade_graph(with_core=False),
        2, [(29, 21), (14, 7), (7, 0)], 3, [], (),
    ),
    "edgeless layer": (
        lambda: one_layer_graph(5, []), 1, [(0, 0)], 0, [0, 1, 2, 3, 4],
        (),
    ),
    "d=0": (pull_then_push_graph, 0, [], 0, [], range(15)),
}


class TestFullLayerCore:
    """The full-graph layer peel reads the smaller side of each round."""

    @given(hub_graphs())
    @settings(max_examples=40, deadline=None)
    def test_equals_push_path_and_dict_reference(self, graph):
        frozen = graph.freeze()
        for layer in frozen.layers():
            top = max(frozen.degree(layer, v) for v in frozen.vertices())
            for d in range(top + 2):
                core, degrees = kernels_module._full_layer_core(
                    frozen, layer, d
                )
                pushed, push_degrees = _push_layer_core(frozen, layer, d)
                assert core.tolist() == pushed.tolist()
                assert degrees[core].tolist() == push_degrees[core].tolist()
                assert set(np.flatnonzero(core).tolist()) == \
                    d_core(graph.adjacency(layer), d)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_rule_routes_each_round(self, route):
        build, d, entries, pulls, pushed, expected = ROUTES[route]
        frozen = build()
        assert _round_entries(frozen, d) == entries
        calls = []
        count_live = kernels_module._count_live
        peel_rounds = kernels_module._peel_rounds

        def counting(*args):
            calls.append("pull")
            return count_live(*args)

        def recording(graph, layers, d, alive, frontier, *rest):
            calls.append(sorted(frontier.tolist()))
            return peel_rounds(graph, layers, d, alive, frontier, *rest)

        with mock.patch.object(kernels_module, "_count_live", counting), \
                mock.patch.object(kernels_module, "_peel_rounds", recording):
            core, degrees = kernels_module._full_layer_core(frozen, 0, d)
        assert calls == ["pull"] * pulls + [pushed]
        assert np.flatnonzero(core).tolist() == list(expected)
        pushed_core, push_degrees = _push_layer_core(frozen, 0, d)
        assert core.tolist() == pushed_core.tolist()
        assert degrees[core].tolist() == push_degrees[core].tolist()

    def test_np_layer_core_takes_the_full_path(self):
        frozen = star_cascade_graph()
        with mock.patch.object(kernels_module, "_full_layer_core",
                               wraps=kernels_module._full_layer_core) as full:
            assert layer_core(frozen, 0, 2) == {0, 1, 2}
            assert layer_core(frozen, 0, 2, within=range(40)) == {0, 1, 2}
        assert full.call_count == 1

    @pytest.mark.parametrize("kernel", ["dict", "numpy"])
    def test_empty_within_returns_before_any_work(self, kernel):
        graph = paper_figure1_graph()
        if kernel == "dict":
            empties = (set(), ["nope"])
        else:
            graph = graph.freeze()
            empties = (set(), [-1], _mask(graph.num_vertices, []))
        with mock.patch.object(kernels_module, "_induced_degree_arrays",
                               side_effect=AssertionError("work of size n")):
            for within in empties:
                stats = SearchStats()
                assert coherent_core(graph, [0, 1], 3, within=within,
                                     stats=stats) == frozenset()
                assert (stats.dcc_calls, stats.peel_operations) == (1, 0)
                assert layer_core(graph, 0, 3, within=within) == set()


# ----------------------------------------------------------------------
# one input contract for the core primitives
# ----------------------------------------------------------------------


TIERS = ["dict", "numpy"]


def _tier_graph(tier):
    """The english stand-in at scale 0.1 (15 layers): the dict graph,
    or its frozen form, which runs the numpy kernels."""
    graph = load("english", scale=0.1).graph
    return graph if tier == "dict" else graph.freeze()


class TestCoreInputChecks:
    """A bad ``d`` or layer raises one typed error on every backend."""

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("d", [-1, 2.5, 3.0, True, "3", None])
    def test_bad_degree_one_error(self, tier, d):
        graph = _tier_graph(tier)
        seeds = {layer: set() for layer in graph.layers()}
        calls = [
            lambda: validate_search_params(graph, d, 2, 2),
            lambda: layer_core(graph, 0, d),
            lambda: coherent_core(graph, [0, 1], d),
            lambda: coherent_core_binsort(graph, [0, 1], d),
            lambda: vertex_deletion(graph, d, 1),
            lambda: CoreHierarchyIndex(graph, d),
            lambda: core_maintainer(graph, d),
            lambda: core_maintainer(graph, d, seed_cores=seeds),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match="^d must be"):
                call()

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("layer", [-1, 15])
    def test_bad_layer_one_error(self, tier, layer):
        graph = _tier_graph(tier)
        assert graph.num_layers == 15
        for call in (layer_core_decomposition, layer_core_sizes):
            with pytest.raises(LayerIndexError):
                call(graph, layer)
        with pytest.raises(LayerIndexError):
            layer_core(graph, layer, 2)


# ----------------------------------------------------------------------
# whole-search equivalence
# ----------------------------------------------------------------------


def _snapshot(result):
    return (
        [set(members) for members in result.sets],
        list(result.labels),
        result.cover_size,
        result.stats.as_dict(),
    )


def _wide_graph(num_layers):
    """Two 5-cliques, each on every layer but one or two."""
    graph = MultiLayerGraph(num_layers, vertices=range(10))
    for clique, missing in ((range(0, 5), {3, 63}), (range(5, 10), {66})):
        for layer in set(range(num_layers)) - missing:
            for u, v in combinations(clique, 2):
                graph.add_edge(layer, u, v)
    return graph


class TestSearchEquivalence:
    @given(multilayer_graphs(max_vertices=9, max_layers=3), st.data())
    @settings(max_examples=10, deadline=None)
    def test_methods_identical_across_tiers(self, graph, data):
        d = data.draw(st.integers(min_value=1, max_value=3))
        s = data.draw(st.integers(min_value=1, max_value=graph.num_layers))
        k = data.draw(st.integers(min_value=1, max_value=3))
        method = data.draw(st.sampled_from(
            ("greedy", "bottom-up", "top-down")
        ))
        runs = [
            _snapshot(search_dccs(graph, d, s, k, method=method,
                                  backend=backend, seed=0))
            for backend in ("dict", "frozen")
        ]
        assert runs[0] == runs[1]

    def test_top_down_identical_on_seventy_layers(self):
        """Layers past 63 survive the array index's labels.

        The index's labels gate top-down's reachable scopes, so a layer
        missing from them loses real d-CCs at every ``s`` near ``l``.
        """
        graph = _wide_graph(70)
        indexes = [_index_view(CoreHierarchyIndex(backend, 3))
                   for backend in (graph, graph.freeze())]
        assert indexes[0] == indexes[1]
        assert any(max(label, default=0) >= 64
                   for label in indexes[1][2].values())
        runs = [
            _snapshot(search_dccs(graph, 3, 68, 2, method="top-down",
                                  backend=backend, seed=0))
            for backend in ("dict", "frozen")
        ]
        assert runs[0] == runs[1]
        assert runs[1][2] == 10

    def test_labels_on_seventy_layers(self):
        """Layers past 63 survive the maintainer's label words and the
        survivor subgraph's layer masks (both built by ``bit_rows``)."""
        graph = _wide_graph(70)
        frozen = graph.freeze()
        batch = np.arange(frozen.num_vertices)
        labels = core_maintainer(frozen, 3).labels_of(batch)
        assert labels == MultiLayerCoreMaintainer(graph, 3).labels_of(
            batch.tolist()
        )
        assert labels[5] == frozenset(range(70)) - {66}
        sub = np_induced_subgraph(frozen, _mask(10, range(1, 10)))
        for v in range(sub.num_vertices):
            assert sub.layers_of(v) == frozenset(
                layer for layer in sub.layers() if sub.degree(layer, v)
            )
        assert sub.layers_of(0) == frozenset(range(70)) - {3, 63}

    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_jobs_identical_across_tiers(self, jobs):
        dataset = synthetic_multilayer(600, num_layers=3,
                                       num_communities=4,
                                       community_size=30, d=3, span=2,
                                       seed=5)
        runs = [
            _snapshot(search_dccs(dataset.graph, 3, 2, 3, method="greedy",
                                  backend=backend, jobs=jobs))
            for backend in ("dict", "frozen")
        ]
        assert runs[0] == runs[1]

    def test_warm_artifact_cache_replay_identical(self):
        graph = paper_figure1_graph()
        snapshots = []
        for backend in ("dict", "frozen"):
            with DCCEngine(graph, backend=backend, jobs=1) as engine:
                cold = _snapshot(engine.search(3, 2, 2, method="greedy"))
                warm = _snapshot(engine.search(3, 2, 2, method="greedy"))
                assert engine.info()["cache_hits"] > 0
            assert cold == warm
            snapshots.append(warm)
        assert snapshots[0] == snapshots[1]

    def test_warm_result_cache_replay_identical(self):
        spec = {"graph": "g", "d": 3, "s": 2, "k": 2, "method": "greedy"}
        snapshots = []
        for backend in ("dict", "frozen"):
            host = AsyncDCCHost(backend=backend, jobs=1)
            host.attach("g", paper_figure1_graph())

            async def run():
                first = await host.search_many([spec])
                second = await host.search_many([spec])
                info = host.info()
                await host.aclose()
                return first, second, info

            first, second, info = asyncio.run(run())
            assert info["requests_cached"] >= 1
            assert _snapshot(first[0]) == _snapshot(second[0])
            snapshots.append(_snapshot(second[0]))
        assert snapshots[0] == snapshots[1]


# ----------------------------------------------------------------------
# the mask path: preprocessing's arrays feed bounds, InitTopK and peels
# ----------------------------------------------------------------------


def _mask(n, ids):
    mask = np.zeros(n, dtype=np.bool_)
    mask[list(ids)] = True
    return mask


def _frozen_prep(frozen, d, s, enabled=True):
    prep = vertex_deletion(frozen, d, s, enabled=enabled)
    assert prep.masks is not None
    return prep


class TestVertexMasks:
    """``within=`` takes a length-n bool array as "where it is True"."""

    def test_mask_is_the_vertex_set_on_both_tiers(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        mask = _mask(frozen.num_vertices, range(6))
        before = mask.copy()
        stats, by_ids, by_labels = SearchStats(), SearchStats(), SearchStats()
        got = coherent_core(frozen, [0], 1, within=mask, stats=stats)
        assert got == coherent_core(frozen, [0], 1, within=range(6),
                                    stats=by_ids)
        assert frozen.labels_for(got) == coherent_core(
            graph, [0], 1, within=frozen.labels_for(range(6)),
            stats=by_labels,
        )
        assert got != frozenset({0, 1})
        assert stats.as_dict() == by_ids.as_dict() == by_labels.as_dict()
        assert layer_core(frozen, 0, 1, within=mask) == \
            layer_core(frozen, 0, 1, within=range(6))
        assert coherent_core(frozen, [0, 1], 0, within=mask) == \
            frozenset(range(6))
        assert (mask == before).all()

    def test_wrong_length_mask_rejected(self):
        frozen = paper_figure1_graph().freeze()
        for length in (frozen.num_vertices - 1, frozen.num_vertices + 1):
            stats = SearchStats()
            with pytest.raises(ParameterError, match="shape"):
                coherent_core(frozen, [0], 1, within=_mask(length, [0]),
                              stats=stats)
            assert stats.dcc_calls == 0

    def test_any_mask_rejected_on_dict_backend(self):
        graph = paper_figure1_graph()
        for length in (6, graph.num_vertices):
            with pytest.raises(ParameterError, match="frozen graph"):
                coherent_core(graph, [0], 1, within=_mask(length, range(6)))


class TestMaskPathEquivalence:
    """Mask cores give the set path's candidates, seeds and counters."""

    @given(multilayer_graphs(max_vertices=8, max_layers=8), st.data())
    @settings(max_examples=30, deadline=None)
    def test_candidates_identical(self, graph, data):
        frozen = graph.freeze()
        n = frozen.num_vertices
        d = data.draw(st.integers(min_value=0, max_value=3))
        s = data.draw(st.integers(min_value=1, max_value=frozen.num_layers))
        prep = _frozen_prep(frozen, d, s, enabled=data.draw(st.booleans()))
        within = data.draw(st.one_of(
            st.none(), st.sets(st.integers(min_value=0, max_value=n - 1)),
        ))
        within_mask = None if within is None else _mask(n, within)
        runs = []
        for backend, cores, bound in (
            (frozen, prep.masks.cores, within_mask),
            (frozen, prep.cores, within),
            (graph, prep.cores, within),
        ):
            stats = SearchStats()
            runs.append((
                list(enumerate_candidates(backend, d, s, within=bound,
                                          cores=cores, stats=stats)),
                stats.as_dict(),
            ))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("kernel", ["dict", "numpy"])
    def test_empty_bound_is_empty_without_a_peel(self, kernel):
        graph = MultiLayerGraph(2, vertices=range(8))
        for layer, block in ((0, range(0, 4)), (1, range(4, 8))):
            for u, v in combinations(block, 2):
                graph.add_edge(layer, u, v)
        prep = vertex_deletion(graph, 3, 1)
        if kernel == "numpy":
            graph = graph.freeze()
            prep = _frozen_prep(graph, 3, 1)
        for cores in (prep.cores, prep.kernel_view()[0]):
            stats = SearchStats()
            assert candidate_for_subset(graph, 3, (0, 1), cores,
                                        stats=stats) == frozenset()
            assert stats.dcc_calls == stats.peel_operations == 0

    @given(multilayer_graphs(max_vertices=8, max_layers=8), st.data())
    @settings(max_examples=30, deadline=None)
    def test_init_topk_identical(self, graph, data):
        frozen = graph.freeze()
        d = data.draw(st.integers(min_value=0, max_value=3))
        s = data.draw(st.integers(min_value=1, max_value=frozen.num_layers))
        k = data.draw(st.integers(min_value=1, max_value=3))
        prep = _frozen_prep(frozen, d, s, enabled=data.draw(st.booleans()))
        runs = []
        for backend, (cores, alive) in (
            (frozen, prep.kernel_view()),
            (frozen, (prep.cores, prep.alive)),
            (graph, (prep.cores, prep.alive)),
        ):
            stats = SearchStats()
            topk = init_topk(backend, d, s, k, cores, within=alive,
                             stats=stats)
            runs.append((topk.labelled_sets(), topk.cover_size,
                         stats.as_dict()))
        assert runs[0] == runs[1] == runs[2]

    @given(multilayer_graphs(max_vertices=9, max_layers=4), st.data())
    @settings(max_examples=25, deadline=None)
    def test_lazy_sets_equal_the_maintainer_snapshot(self, graph, data):
        frozen = graph.freeze()
        d = data.draw(st.integers(min_value=0, max_value=3))
        s = data.draw(st.integers(min_value=1, max_value=frozen.num_layers))
        made = []

        def recording(*args, **kwargs):
            made.append(core_maintainer(*args, **kwargs))
            return made[-1]

        with mock.patch("repro.core.preprocess.core_maintainer",
                        recording):
            prep = vertex_deletion(frozen, d, s)
        assert not {"alive", "cores", "support"} & set(vars(prep))
        assert (prep.alive, prep.cores, prep.support) == \
            made[0].snapshot()
        assert prep.alive is prep.alive and prep.cores is prep.cores \
            and prep.support is prep.support

    def test_lazy_sets_are_built_once(self):
        frozen = synthetic_multilayer(600, num_layers=3, num_communities=4,
                                      community_size=30, d=3, span=2,
                                      seed=5).graph
        prep = _frozen_prep(frozen, 3, 2)
        builds = []
        with contextlib.ExitStack() as stack:
            for name in ("alive_set", "core_sets", "support_dict"):
                build = getattr(CoreMasks, name)

                def counting(masks, build=build, name=name):
                    builds.append(name)
                    return build(masks)

                stack.enter_context(
                    mock.patch.object(CoreMasks, name, counting)
                )
            for _ in range(3):
                prep.alive, prep.cores, prep.support
        assert sorted(builds) == ["alive_set", "core_sets", "support_dict"]

    @given(multilayer_graphs(max_vertices=9, max_layers=4), st.data())
    @settings(max_examples=20, deadline=None)
    def test_reassigned_prep_drives_tree_searches_identically(self, graph,
                                                              data):
        """The artifact cache swaps the lazy sets for frozensets."""
        frozen = graph.freeze()
        d = data.draw(st.integers(min_value=1, max_value=3))
        s = data.draw(st.integers(min_value=1, max_value=frozen.num_layers))
        k = data.draw(st.integers(min_value=1, max_value=3))
        method = data.draw(st.sampled_from(("bottom-up", "top-down")))
        charged = SearchStats()
        prep = vertex_deletion(frozen, d, s, stats=charged)
        prep.alive = frozenset(prep.alive)
        prep.cores = [frozenset(core) for core in prep.cores]

        def cached(graph, d, s, enabled=True, stats=None):
            stats.merge(charged)
            return prep

        module = "repro.core.{}".format(method.replace("-", ""))
        runs = []
        for backend, patched in ((frozen, True), (frozen, False),
                                 (graph, False)):
            search = mock.patch(module + ".vertex_deletion", cached) \
                if patched else contextlib.nullcontext()
            with search:
                runs.append(_snapshot(search_dccs(
                    backend, d, s, k, method=method, backend="dict"
                    if backend is graph else "frozen", seed=0,
                )))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_greedy_equals_sequential(self, jobs):
        graph = synthetic_multilayer(600, num_layers=4, num_communities=4,
                                     community_size=30, d=3, span=2,
                                     seed=5).graph
        runs = [
            _snapshot(search_dccs(graph, 3, 2, 3, method="greedy",
                                  backend="frozen", jobs=each))
            for each in (None, jobs)
        ]
        assert runs[0] == runs[1]

    def test_greedy_and_init_topk_on_seventy_layers(self):
        """Mask bounds and set bounds agree past 63 layers."""
        graph = _wide_graph(70)
        frozen = graph.freeze()
        prep = _frozen_prep(frozen, 3, 68)
        runs = []
        for backend, (cores, alive), name in (
            (frozen, prep.kernel_view(), "frozen"),
            (graph, (prep.cores, prep.alive), "dict"),
        ):
            stats = SearchStats()
            topk = init_topk(backend, 3, 68, 2, cores, within=alive,
                             stats=stats)
            runs.append((
                topk.labelled_sets(), stats.as_dict(),
                _snapshot(search_dccs(graph, 3, 68, 2, method="greedy",
                                      backend=name)),
            ))
        assert runs[0] == runs[1]
        assert runs[0][2][2] == 10


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------


class TestTopDownArrays:
    """Top-down's array forms: the survivor subgraph, mask potentials and
    the index's arrays give the set forms' results and counters."""

    @given(multilayer_graphs(max_vertices=9, max_layers=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_survivor_subgraph_is_the_induced_graph(self, graph, data):
        frozen = graph.freeze()
        n = frozen.num_vertices
        kept = data.draw(st.one_of(
            st.just(set()), st.just(set(range(n))),
            st.sets(st.integers(min_value=0, max_value=n - 1)),
        ))
        mask = _mask(n, kept)
        sub = np_induced_subgraph(frozen, mask)
        assert list(sub.labels) == sorted(kept)
        for layer in frozen.layers():
            induced = {(u, v) for u, v in frozen.edges(layer)
                       if u in kept and v in kept}
            assert {(sub.labels[u], sub.labels[v])
                    for u, v in sub.edges(layer)} == induced
            assert sub.num_edges(layer) == len(induced)
            for v in range(sub.num_vertices):
                row = list(sub.neighbor_row(layer)(v))
                assert row == sorted(row)
        for v in range(sub.num_vertices):
            assert sub.layers_of(v) == frozenset(
                layer for layer in sub.layers() if sub.degree(layer, v)
            )
        d = data.draw(st.integers(min_value=0, max_value=3))
        for size in range(1, frozen.num_layers + 1):
            for layers in combinations(frozen.layers(), size):
                want_stats, got_stats = SearchStats(), SearchStats()
                want = coherent_core(frozen, layers, d, within=mask,
                                     stats=want_stats)
                got = coherent_core(sub, layers, d, stats=got_stats)
                assert sub.labels_for(got) == want
                assert got_stats.as_dict() == want_stats.as_dict()

    @given(multilayer_graphs(max_vertices=9, max_layers=4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_scope_and_refine_potential_on_masks(self, graph, data):
        frozen = graph.freeze()
        n, num_layers = frozen.num_vertices, frozen.num_layers
        d = data.draw(st.integers(min_value=1, max_value=3))
        s = data.draw(st.integers(min_value=1, max_value=num_layers))
        order = data.draw(st.permutations(range(num_layers)))
        candidates = data.draw(st.sets(
            st.integers(min_value=0, max_value=n - 1)
        ))
        prep = _frozen_prep(frozen, d, s)
        # The dict graph's vertices are the frozen graph's ids.
        forms = {
            "dict": (graph, set(candidates), prep.cores),
            "frozen": (frozen, _mask(n, candidates), prep.masks.cores),
        }
        indexes = {name: CoreHierarchyIndex(backend, d)
                   for name, (backend, _, _) in forms.items()}
        assert not indexes["dict"].is_array
        assert indexes["frozen"].is_array
        for size in range(1, num_layers + 1):
            for positions in combinations(range(num_layers), size):
                layers = [order[p] for p in positions]
                outputs = {}
                for name, (backend, potential, cores) in forms.items():
                    stats = SearchStats()
                    scope = indexes[name].reachable_scope(layers, potential)
                    refined = refine_potential(
                        backend, d, s, potential, frozenset(positions),
                        order, cores, stats=stats,
                    )
                    outputs[name] = (scope, refined, stats.as_dict())
                want_scope, want_refined, want_counters = outputs["dict"]
                scope, refined, counters = outputs["frozen"]
                assert set(np.flatnonzero(scope).tolist()) == want_scope
                assert set(np.flatnonzero(refined).tolist()) == want_refined
                assert counters == want_counters

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_top_down_identical_on_synthetic(self, d):
        """The dict graph (sets) vs the frozen graph (survivor subgraph,
        masks): sets, labels, cover and every counter, at each s."""
        graph = synthetic_multilayer(
            3_000, num_layers=6, num_communities=12, community_size=32,
            d=4, span=4, seed=3,
        ).graph
        # Identity labels: the thawed graph's vertices are the ids.
        thawed = graph.thaw()
        survivors = set()
        for s in range(2, graph.num_layers + 1):
            runs = [_snapshot(td_dccs(backend, d, s, 8, seed=0))
                    for backend in (thawed, graph)]
            assert runs[0] == runs[1]
            survivors.add(graph.num_vertices - runs[1][3][
                "vertices_deleted"])
        # The subgraph path runs: some vertices are deleted at every s.
        assert graph.num_vertices not in survivors


class TestMemoryAccounting:
    def test_memory_bytes_counts_csr_buffers(self):
        graph = synthetic_multilayer(2000, num_communities=4,
                                     community_size=40, seed=1).graph
        floor = sum(
            buffer_nbytes(graph._indptr[layer])
            + buffer_nbytes(graph._indices[layer])
            for layer in graph.layers()
        )
        assert graph.memory_bytes() >= floor

    def test_memory_bytes_counts_lazy_degree_vectors(self):
        graph = synthetic_multilayer(2000, num_communities=4,
                                     community_size=40, seed=1).graph
        before = graph.memory_bytes()
        layer_core(graph, 0, 3)  # builds the layer's degree vector
        assert graph.memory_bytes() > before


class TestSyntheticGenerator:
    def test_seeded_determinism(self):
        a = synthetic_multilayer(1500, num_communities=3,
                                 community_size=50, seed=9)
        b = synthetic_multilayer(1500, num_communities=3,
                                 community_size=50, seed=9)
        c = synthetic_multilayer(1500, num_communities=3,
                                 community_size=50, seed=10)
        assert a.graph == b.graph
        assert a.graph != c.graph
        assert a.communities == b.communities

    @given(st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_assembly_is_the_sorted_distinct_pairs(self, n, data):
        vertex = st.integers(min_value=0, max_value=n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=60))
        flat = array("i", [end for pair in pairs for end in pair])
        indptr, indices = synthetic_module._assemble_csr(n, flat)
        distinct = sorted(set(pairs))
        assert indices.tolist() == [v for _, v in distinct]
        assert indptr.tolist() == [
            sum(1 for u, _ in distinct if u < row) for row in range(n + 1)
        ]

    def test_duplicate_noise_collapses(self):
        # 2,400 noise draws per layer over 1,770 vertex pairs, most of
        # them on a few hubs: duplicates outnumber distinct edges.
        dataset = synthetic_multilayer(60, num_communities=1,
                                       community_size=10,
                                       noise_degree=80.0, seed=2)
        assert dataset.graph.num_edges(0) < 2400 / 2

    def test_planted_degree_guarantee(self):
        d = 5
        dataset = synthetic_multilayer(3000, num_layers=4,
                                       num_communities=6,
                                       community_size=d + 2, d=d, span=2,
                                       seed=4)
        windows = dataset.graph.num_layers - 2 + 1
        for c, community in enumerate(dataset.communities):
            start = c % windows
            for layer in range(start, start + 2):
                degrees = dataset.graph.induced_degrees(layer, community)
                assert min(degrees.values()) >= d

    def test_recovers_planted_communities(self):
        dataset = synthetic_multilayer(5000, num_layers=3,
                                       num_communities=6,
                                       community_size=40, d=4, span=2,
                                       seed=7)
        result = search_dccs(dataset.graph, 4, 2, 4, method="greedy")
        reported = [set(members) for members in result.sets]
        for community in dataset.communities:
            assert any(community <= found for found in reported)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            synthetic_multilayer(100, community_size=4, d=4)
        with pytest.raises(ParameterError):
            synthetic_multilayer(100, num_communities=10,
                                 community_size=20)
        with pytest.raises(ParameterError):
            synthetic_multilayer(100, span=5, num_layers=3,
                                 num_communities=1, community_size=10)
        with pytest.raises(ParameterError):
            synthetic_multilayer(100, d=0, num_communities=1,
                                 community_size=10)

    def test_labels_are_identity_range(self):
        graph = synthetic_multilayer(500, num_communities=2,
                                     community_size=20, seed=0).graph
        assert type(graph.labels) is range
        assert graph.id_of(123) == 123
        payload = graph_payload(graph)
        assert type(payload[2]) is range  # shipped as a range, not a list
        assert payload_graph(payload) == graph
