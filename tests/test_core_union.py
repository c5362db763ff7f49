"""The d-core union, the kept fixed point and the kept d-CCs: the
frozen graph keeps, per ``d``, the subgraph induced by its layers'
d-cores, in which the sequential searches run, per ``(d, s)`` the
vertex-deletion fixed point on it, and per layer subset and ``d`` the
d-CC a search peeled over a bound that contains it.

* **answers and counters** — with vertex deletion on, greedy, bottom-up
  and top-down run inside ``core_union(d)``; their sets, labels, cover
  and every ``SearchStats`` counter, and the prep's ``deleted`` and
  ``rounds``, equal the same search with ``core_union`` returning the
  graph itself, on drawn graphs with int and string labels and on an
  empty union, a union equal to the graph and a union of exactly half;
* **the union itself** — the half rule, and a memo that starts with
  every layer's d-core in the union's ids;
* **the kept fixed point** — a search that reads it answers and counts
  as a cold one and as one that recomputes it, on drawn graphs with int
  and string labels; each ``(d, s)`` is built once, its arrays and
  top-down's survivor space are read-only, and threads that fill one
  key race harmlessly;
* **the kept d-CCs** — a search that reads them answers and counts as a
  cold one and as one that peels every d-CC, on drawn graphs with int
  and string labels, for every method, with vertex deletion on and
  off, sequential and at ``jobs=1``; a budget small enough to evict
  changes nothing; a kept d-CC outside the caller's bound is peeled
  again; a hit replays a peel's counters and its frozenset's order;
* **lifecycle** — a patched graph, a copy, a pickle and a worker
  payload start without unions or fixed points, and only a patched
  graph keeps d-CCs (those of the layer subsets its delta left alone);
  ``memory_bytes`` counts every kept array once and every kept d-CC;
  threads that build the same ``d`` or keep the same d-CC race
  harmlessly; the No-VD ablation, ``exact_dccs`` and the engine path
  build neither a union nor a fixed point.
"""

from array import array
import contextlib
import copy
import pickle
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.preprocess as preprocess_module
from repro.baselines.exact import exact_dccs
from repro.core import search_dccs
from repro.core.dcc import coherent_core, kept_coherent_core
from repro.core.preprocess import KeptFixedPoint, vertex_deletion
from repro.core.stats import SearchStats
from repro.datasets import synthetic_multilayer
from repro.graph import FrozenMultiLayerGraph, MultiLayerGraph
from repro.graph.frozen import SUBSET_ENTRY_OVERHEAD, LayerCoreMemo
from repro.graph.kernels import (
    _peel_layer_core,
    np_induced_subgraph,
    parent_sets,
)
from repro.parallel.serialize import graph_payload, payload_graph
from repro.utils.errors import ParameterError

from tests.strategies import labelled_multilayer_graphs, multilayer_graphs

METHODS = ("greedy", "bottom-up", "top-down")


def _itself(graph, d):
    """``core_union`` as if every union held more than half the graph."""
    return graph


def _memo_bypassed():
    """Every fixed point recomputed, none read from or kept in a memo."""
    return mock.patch.object(LayerCoreMemo, "fixed_point",
                             lambda memo, d, s, build: build())


def _snapshot(result):
    return (
        [set(members) for members in result.sets],
        list(result.labels),
        result.cover_size,
        result.stats.as_dict(),
    )


def _prep_snapshot(frozen, d, s, enabled):
    """A prep asked for on the union, in the graph's ids, with its
    counters."""
    stats = SearchStats()
    prep = vertex_deletion(frozen, d, s, enabled=enabled, stats=stats,
                           on_union=True)
    alive, cores = [prep.alive], prep.cores
    if prep.graph is not frozen:
        alive, cores = parent_sets(prep.graph, alive), \
            parent_sets(prep.graph, cores)
    return (set(alive[0]), [set(core) for core in cores], prep.deleted,
            prep.rounds, stats.as_dict())


def _runs(graph, d, s, k, method, use_vd):
    """Snapshots of the search on ``graph`` and on its frozen form, and
    the prep, as they are and with ``core_union`` returning the graph
    (and the fixed point recomputed there, not read from the memo)."""
    frozen = graph.freeze()
    runs = []
    for patch in (False, True):
        context = contextlib.ExitStack()
        if patch:
            context.enter_context(mock.patch.object(
                FrozenMultiLayerGraph, "core_union", _itself))
            context.enter_context(_memo_bypassed())
        with context:
            runs.append([
                _snapshot(search_dccs(target, d, s, k, method=method,
                                      seed=0, use_vertex_deletion=use_vd))
                for target in (graph, frozen)
            ] + [_prep_snapshot(frozen, d, s, use_vd)])
    return runs


def _relabelled(graph):
    """``graph`` over string labels that sort like its int vertices."""
    labelled = MultiLayerGraph(
        graph.num_layers,
        vertices=["v{:03d}".format(v) for v in sorted(graph.vertices())],
    )
    for layer, u, v in graph.all_edges():
        labelled.add_edge(layer, "v{:03d}".format(u), "v{:03d}".format(v))
    return labelled


def _clique_and_path(clique, path, layers=2):
    """A ``clique``-clique on every layer beside a ``path``-vertex path:
    at ``d = clique - 1`` the union is the clique."""
    graph = MultiLayerGraph(layers, vertices=range(clique + path))
    for layer in range(layers):
        for u in range(clique):
            for v in range(u + 1, clique):
                graph.add_edge(layer, u, v)
        for u in range(clique, clique + path - 1):
            graph.add_edge(layer, u, u + 1)
    return graph


def _wrapped_clique():
    """400 vertices, two layers, a 6-clique on both whose ids differ by
    multiples of 64, beside paths: at d=5 its d-CC is the clique, and
    any set of those ids collides in its hash table, so a frozenset's
    iteration order follows the order it was built in."""
    clique = [64 * i + 5 for i in range(6)]
    graph = MultiLayerGraph(2, vertices=range(400))
    for layer in range(2):
        for u in clique:
            for v in clique:
                if u < v:
                    graph.add_edge(layer, u, v)
        for u in range(399):
            if u not in clique and u + 1 not in clique:
                graph.add_edge(layer, u, u + 1)
    return graph.freeze()


def _small_graph():
    """600 vertices, three layers, four planted 4-cores: the union holds
    136 vertices at d=3 and 121 at d=4."""
    return synthetic_multilayer(600, num_layers=3, num_communities=4,
                                community_size=30, d=4, span=2,
                                seed=5).graph


class TestCounterParity:
    """A search in the union answers and counts as one on the graph."""

    @given(st.one_of(multilayer_graphs(max_vertices=10, max_layers=4),
                     labelled_multilayer_graphs(max_vertices=10,
                                                max_layers=4)),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_drawn_graphs(self, graph, data):
        d = data.draw(st.integers(min_value=0, max_value=5))
        s = data.draw(st.integers(min_value=1, max_value=graph.num_layers))
        k = data.draw(st.integers(min_value=1, max_value=3))
        method = data.draw(st.sampled_from(METHODS))
        use_vd = data.draw(st.booleans())
        real, itself = _runs(graph, d, s, k, method, use_vd)
        assert real == itself

    @pytest.mark.parametrize("labels", ["int", "str"])
    @pytest.mark.parametrize("case, d, union_size", [
        ("empty", 9, 0),
        ("graph", 1, 9),
        ("half", 3, 4),
        ("over half", 4, 5),
    ])
    def test_boundary_unions(self, labels, case, d, union_size):
        graph = {
            "empty": _clique_and_path(4, 5),
            "graph": _clique_and_path(4, 5),
            "half": _clique_and_path(4, 4),
            "over half": _clique_and_path(5, 4),
        }[case]
        if labels == "str":
            graph = _relabelled(graph)
        frozen = graph.freeze()
        union = frozen.core_union(d)
        if 2 * union_size > frozen.num_vertices:
            assert union is frozen
        else:
            assert union.num_vertices == union_size
        for method in METHODS:
            for s in range(1, graph.num_layers + 1):
                for use_vd in (True, False):
                    real, itself = _runs(graph, d, s, 2, method, use_vd)
                    assert real == itself, (method, s, use_vd)

    def test_outside_vertices_are_charged_in_a_round_of_their_own(self):
        """Nothing in the union goes, so the union runs one round; a
        full-graph run deletes the path in round 1 and stops in round 2."""
        frozen = _clique_and_path(4, 4).freeze()
        stats = SearchStats()
        prep = vertex_deletion(frozen, 3, 2, stats=stats, on_union=True)
        assert prep.graph is frozen.core_union(3) is not frozen
        assert (prep.deleted, prep.rounds, stats.vertices_deleted) == \
            (4, 2, 4)
        assert prep.alive == set(range(4))


class TestUnionGraph:
    def test_memo_starts_with_the_cores_in_union_ids(self):
        frozen = _small_graph()
        for d in (3, 4):
            union = frozen.core_union(d)
            assert list(union.labels) == sorted(
                set().union(*(frozen.core_memo._entries[layer, d][0].tolist()
                              for layer in frozen.layers())))
            assert sorted(union.core_memo._entries) == [
                (layer, d) for layer in frozen.layers()]
            for layer in frozen.layers():
                members, inside = union.core_memo._entries[layer, d]
                assert not members.flags.writeable
                peeled, peel_inside = _peel_layer_core(union, layer, d)
                assert members.tolist() == peeled.tolist()
                assert inside.tolist() == peel_inside.tolist()
                assert parent_sets(union, [members.tolist()]) == [
                    frozenset(frozen.core_memo._entries[layer, d][0]
                              .tolist())]
            # A union is its own union.
            assert union.core_union(d) is union

    def test_built_once_per_d(self):
        frozen = _small_graph()
        first = frozen.core_union(4)
        with mock.patch.object(FrozenMultiLayerGraph, "_build_core_union",
                               side_effect=AssertionError("rebuilt")):
            assert frozen.core_union(4) is first
            search_dccs(frozen, 4, 2, 3, method="bottom-up")

    def test_no_vd_exact_and_engine_paths_keep_the_full_graph(self):
        frozen = _small_graph()
        for method in METHODS:
            search_dccs(frozen, 4, 2, 2, method=method,
                        use_vertex_deletion=False)
        search_dccs(frozen, 4, 2, 2, method="greedy", jobs=1)
        exact_dccs(frozen, 4, 2, 2)
        assert frozen.core_memo._unions == {}
        assert frozen.core_memo._fixed_points == {}
        # Engine bottom-up and top-down run the sequential searches, so
        # they build the union and keep the fixed point as jobs=None
        # does.
        for method in ("bottom-up", "top-down"):
            engine_graph, sequential_graph = _small_graph(), _small_graph()
            search_dccs(engine_graph, 4, 2, 2, method=method, jobs=1)
            search_dccs(sequential_graph, 4, 2, 2, method=method)
            for memo in (engine_graph.core_memo,
                         sequential_graph.core_memo):
                assert list(memo._unions) == [4], method
                assert list(memo._fixed_points) == [(4, 2)], method


def _kept_snapshot(frozen, d, s, k, method):
    """The search's snapshot, then its prep's ``deleted``, ``rounds`` and
    counters, on ``frozen`` as it is."""
    search = _snapshot(search_dccs(frozen, d, s, k, method=method, seed=0))
    stats = SearchStats()
    prep = vertex_deletion(frozen, d, s, stats=stats, on_union=True)
    return search, prep.deleted, prep.rounds, stats.as_dict()


class TestKeptFixedPoint:
    """A search that reads the kept fixed point answers and counts as
    one that computes it."""

    @given(st.one_of(
        multilayer_graphs(max_vertices=12, max_layers=4,
                          edge_probability=0.6),
        labelled_multilayer_graphs(max_vertices=12, max_layers=4,
                                   edge_probability=0.6)),
        st.data())
    @settings(max_examples=40, deadline=None)
    def test_warm_search_equals_cold_and_bypassed(self, graph, data):
        d = data.draw(st.integers(min_value=0, max_value=6))
        k = data.draw(st.integers(min_value=1, max_value=3))
        frozen = graph.freeze()
        for s in range(1, graph.num_layers + 1):
            for method in METHODS:
                cold = _kept_snapshot(frozen.with_empty_memo(), d, s, k,
                                      method)
                with _memo_bypassed():
                    bypassed = _kept_snapshot(frozen, d, s, k, method)
                warm = [_kept_snapshot(frozen, d, s, k, method)
                        for _ in range(2)]
                assert frozen.core_memo._fixed_points[d, s]
                assert warm[0] == warm[1] == cold == bypassed, (s, method)
                labelled = _snapshot(search_dccs(graph, d, s, k,
                                                 method=method, seed=0))
                assert labelled[1:] == cold[0][1:]
                assert labelled[0] == [set(frozen.labels_for(members))
                                       for members in cold[0][0]]

    def test_each_entry_is_built_once(self):
        frozen = _small_graph()
        build = preprocess_module._build_kept_fixed_point
        built = []

        def counting(graph, d, s):
            built.append((d, s))
            return build(graph, d, s)

        with mock.patch.object(preprocess_module,
                               "_build_kept_fixed_point", counting):
            for _ in range(3):
                for d in (3, 4):
                    for s in (1, 2, 3):
                        for method in METHODS:
                            search_dccs(frozen, d, s, 3, method=method)
        assert sorted(built) == [(d, s) for d in (3, 4) for s in (1, 2, 3)]
        assert sorted(frozen.core_memo._fixed_points) == sorted(built)

    def test_hits_replay_the_counters_and_share_the_masks(self):
        frozen = _small_graph()
        charged = []
        preps = []
        for _ in range(3):
            stats = SearchStats()
            preps.append(vertex_deletion(frozen, 4, 2, stats=stats,
                                         on_union=True))
            charged.append(stats.as_dict())
        kept = frozen.core_memo._fixed_points[4, 2]
        assert charged[0] == charged[1] == charged[2] == \
            kept.charged.as_dict()
        assert charged[0]["dcc_calls"] == frozen.num_layers
        assert charged[0]["vertices_deleted"] == kept.deleted > 0
        first, second, _ = preps
        assert first is not second and first.kept is second.kept is kept
        assert first.masks is second.masks is kept.masks
        assert first.graph is second.graph is frozen.core_union(4)
        # A result's set views are its own (the engine reassigns them).
        first.alive = frozenset()
        assert second.alive and second.alive == set(
            np.flatnonzero(kept.masks.alive).tolist())

    def test_kept_arrays_are_read_only(self):
        frozen = _small_graph()
        for d in (3, 4):
            search_dccs(frozen, d, 2, 3, method="top-down")
            kept = frozen.core_memo._fixed_points[d, 2]
            assert kept.survivors is not None
            survivors, cores, alive = kept.survivors
            assert survivors.num_vertices == int(
                np.count_nonzero(kept.masks.alive)) > 0
            assert alive.all()
            masks = kept.masks
            for array in (masks.alive, masks.support, *masks.cores, alive,
                          *cores):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = array[0]

    def test_survivor_space_is_built_once(self):
        frozen = _small_graph()
        search_dccs(frozen, 4, 2, 3, method="top-down")
        space = frozen.core_memo._fixed_points[4, 2].survivors
        with mock.patch("repro.core.topdown.np_induced_subgraph",
                        side_effect=AssertionError("rebuilt")):
            again = search_dccs(frozen, 4, 2, 3, method="top-down")
        assert frozen.core_memo._fixed_points[4, 2].survivors is space
        cold = search_dccs(frozen.with_empty_memo(), 4, 2, 3,
                           method="top-down")
        assert _snapshot(again) == _snapshot(cold)

    def test_threads_filling_one_key_race_harmlessly(self):
        frozen = _small_graph()
        build = preprocess_module._build_kept_fixed_point
        start = threading.Barrier(2)
        built, got = [], []

        def slow_build(graph, d, s):
            # Both threads miss before either stores its fixed point.
            start.wait(timeout=30)
            kept = build(graph, d, s)
            built.append(kept)
            return kept

        def client():
            stats = SearchStats()
            prep = vertex_deletion(frozen, 4, 2, stats=stats, on_union=True)
            got.append((prep, stats.as_dict()))

        with mock.patch.object(preprocess_module,
                               "_build_kept_fixed_point", slow_build):
            workers = [threading.Thread(target=client) for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert len(built) == 2 and built[0] is not built[1]
        assert list(frozen.core_memo._fixed_points) == [(4, 2)]
        kept = frozen.core_memo._fixed_points[4, 2]
        (first, first_stats), (second, second_stats) = got
        assert first.kept is second.kept is kept
        assert first_stats == second_stats == kept.charged.as_dict() == \
            built[0].charged.as_dict() == built[1].charged.as_dict()
        assert (first.deleted, first.rounds, first.alive) == \
            (second.deleted, second.rounds, second.alive)


def _subsets_bypassed():
    """Every d-CC peeled, none read from or kept in a memo."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(
        LayerCoreMemo, "subset_core", lambda memo, key: None))
    stack.enter_context(mock.patch.object(
        LayerCoreMemo, "keep_subset_core",
        lambda memo, key, ids, budget: None))
    return stack


def _digest(result):
    """Sets (in their iteration order), labels, cover and counters."""
    return (
        [list(members) for members in result.sets],
        list(result.labels),
        result.cover_size,
        result.stats.as_dict(),
    )


def _memos(frozen):
    """The memos a search on ``frozen`` fills: the graph's, its unions'
    and their fixed points' survivor subgraphs'."""
    memos = [frozen.core_memo]
    for union in list(frozen.core_memo._unions.values()):
        if union is not None:
            memos.append(union.core_memo)
    for keeper in [frozen] + [union for union in
                              frozen.core_memo._unions.values()
                              if union is not None]:
        for kept in list(keeper.core_memo._fixed_points.values()):
            if kept.survivors is not None:
                memos.append(kept.survivors[0].core_memo)
    return memos


class TestKeptCoherentCores:
    """A search that reads the kept d-CCs answers and counts as one that
    peels them."""

    @given(st.one_of(
        multilayer_graphs(max_vertices=12, max_layers=4,
                          edge_probability=0.6),
        labelled_multilayer_graphs(max_vertices=12, max_layers=4,
                                   edge_probability=0.6)),
        st.data())
    @settings(max_examples=30, deadline=None)
    def test_warm_search_equals_cold_and_bypassed(self, graph, data):
        """On graphs this small the CSR budget holds a few d-CCs at most,
        so the searches also run with room for every one."""
        d = data.draw(st.integers(min_value=0, max_value=5))
        k = data.draw(st.integers(min_value=1, max_value=4))
        use_vd = data.draw(st.booleans())
        roomy = data.draw(st.booleans())
        # Searches at a larger s must not leave a d-CC that a later one
        # at a smaller s reads wrongly, so the order of s is drawn.
        order = data.draw(st.permutations(range(1, graph.num_layers + 1)))
        budget = contextlib.ExitStack()
        if roomy:
            budget.enter_context(mock.patch.object(
                FrozenMultiLayerGraph, "csr_nbytes", lambda graph: 10**9))
        with budget:
            self._check_warm_equals_cold(graph, d, k, use_vd, order)

    def _check_warm_equals_cold(self, graph, d, k, use_vd, order):
        frozen = graph.freeze()
        for s in order:
            for method in METHODS:
                for jobs in (None, 1):
                    def run(target):
                        return _digest(search_dccs(
                            target, d, s, k, method=method, seed=0,
                            jobs=jobs, use_vertex_deletion=use_vd))

                    cold = run(frozen.with_empty_memo())
                    with _subsets_bypassed():
                        bypassed = run(frozen)
                    warm = [run(frozen) for _ in range(2)]
                    assert warm[0] == warm[1] == cold == bypassed, \
                        (s, method, jobs)
                    labelled = run(graph)
                    assert labelled[1:] == cold[1:]
                    assert [set(members) for members in labelled[0]] == [
                        set(frozen.labels_for(members))
                        for members in cold[0]]
        for memo in _memos(frozen):
            assert memo.subset_nbytes() <= frozen.csr_nbytes()

    def test_patched_graph_carries_the_untouched_subsets(self):
        graph = _small_graph().thaw()
        u, v = 0, 1
        runs = [(method, d, s, jobs) for method in METHODS
                for d in (3, 4) for s in (1, 2) for jobs in (None, 1)]
        for layer in graph.layers():
            frozen = graph.freeze()
            for method, d, s, jobs in runs:
                search_dccs(frozen, d, s, 3, method=method, jobs=jobs)
            kept = dict(frozen.core_memo._subsets)
            assert any(layer in layers for layers, _ in kept)
            assert any(layer not in layers for layers, _ in kept)
            if graph.has_edge(layer, u, v):
                graph.apply_delta(remove=[(layer, u, v)])
            else:
                graph.apply_delta(add=[(layer, u, v)])
            patched = graph.freeze()
            assert patched is not frozen
            carried = patched.core_memo._subsets
            assert list(carried) == [key for key in kept
                                     if layer not in key[0]]
            rebuilt = FrozenMultiLayerGraph.from_graph(graph)
            for (layers, d), ids in carried.items():
                assert ids is kept[layers, d]
                assert ids.tolist() == sorted(coherent_core(rebuilt, layers,
                                                            d))
            for method, d, s, jobs in runs:
                assert _digest(search_dccs(patched, d, s, 3, method=method,
                                           jobs=jobs)) == \
                    _digest(search_dccs(rebuilt.with_empty_memo(), d, s, 3,
                                        method=method, jobs=jobs))
        assert graph.freeze_patches == graph.num_layers

    def test_a_budget_that_evicts_changes_nothing(self):
        frozen = _small_graph()
        runs = [(method, d, s) for d in (3, 4) for s in (1, 2, 3)
                for method in METHODS]
        cold = {run: _digest(search_dccs(frozen.with_empty_memo(), run[1],
                                         run[2], 3, method=run[0]))
                for run in runs}
        for run in runs:
            search_dccs(frozen, run[1], run[2], 3, method=run[0])
        unbounded = sum(len(memo._subsets) for memo in _memos(frozen))
        # Room for two small d-CCs in each graph's memo.
        budget = 2 * SUBSET_ENTRY_OVERHEAD + 200
        small = frozen.with_empty_memo()
        with mock.patch.object(FrozenMultiLayerGraph, "csr_nbytes",
                               lambda graph: budget):
            for _ in range(2):
                for run in runs:
                    assert _digest(search_dccs(small, run[1], run[2], 3,
                                               method=run[0])) == cold[run]
                    for memo in _memos(small):
                        assert memo.subset_nbytes() <= budget
        kept = sum(len(memo._subsets) for memo in _memos(small))
        assert 0 < kept < unbounded

    def test_bottom_up_keeps_only_its_level_s_children(self):
        """At s=2 vertex deletion drops the block only layer 0 holds, so
        bottom-up's level-1 child on layer 0 is smaller than that
        layer's d-core; a later search at s=1 must not read it."""
        graph = MultiLayerGraph(2, vertices=range(10))
        for u in range(10):
            for v in range(u + 1, 10):
                graph.add_edge(0, u, v)
                if v < 5:
                    graph.add_edge(1, u, v)
        frozen = graph.freeze()
        runs = [("bottom-up", 2), ("greedy", 1), ("bottom-up", 1),
                ("top-down", 1)]
        with mock.patch.object(FrozenMultiLayerGraph, "csr_nbytes",
                               lambda graph: 10**9):
            for method, s in runs:
                assert _digest(search_dccs(frozen, 3, s, 2,
                                           method=method)) == \
                    _digest(search_dccs(frozen.with_empty_memo(), 3, s, 2,
                                        method=method))
        assert frozen.core_union(3) is frozen
        assert frozen.core_memo.subset_core(((0,), 3)).size == 10

    def test_hits_replay_a_peel(self):
        frozen = _wrapped_clique()
        n = frozen.num_vertices
        layers, d = (0, 1), 5
        everyone = np.ones(n, dtype=bool)
        first = kept_coherent_core(frozen, layers, d, everyone)
        kept = frozen.core_memo.subset_core((layers, d))
        assert kept.tolist() == sorted(first) and len(first) > 0
        assert not kept.flags.writeable
        # Bounds that contain the kept d-CC: a mask, and frozensets
        # whose ids collide in their hash tables, so each iterates in an
        # order of its own.
        mask = np.zeros(n, dtype=bool)
        mask[kept] = True
        mask[::41] = True
        ids = np.flatnonzero(mask).tolist()
        sets = (frozenset(ids[::-1]), frozenset(ids[1::2] + ids[::2]))
        assert all(list(bound) != sorted(bound) for bound in sets)
        for bound in (mask,) + sets:
            stats, peeled_stats = SearchStats(), SearchStats()
            with mock.patch("repro.core.dcc.coherent_core",
                            side_effect=AssertionError("peeled")):
                got = kept_coherent_core(frozen, layers, d, bound,
                                         stats=stats)
            peeled = coherent_core(frozen, layers, d, within=bound,
                                   stats=peeled_stats)
            assert got == peeled and list(got) == list(peeled)
            assert stats == peeled_stats
            assert stats.peel_operations == len(ids) - len(kept) > 0
        ids_form = kept_coherent_core(frozen, layers, d, mask, as_ids=True)
        assert ids_form is kept

    def test_a_kept_core_outside_the_bound_is_peeled_again(self):
        frozen = _wrapped_clique()
        layers, d = (0, 1), 5
        everyone = np.ones(frozen.num_vertices, dtype=bool)
        kept_coherent_core(frozen, layers, d, everyone)
        kept = frozen.core_memo.subset_core((layers, d))
        bound = everyone.copy()
        bound[kept[0]] = False
        for within in (bound, frozenset(np.flatnonzero(bound).tolist())):
            stats, peeled_stats = SearchStats(), SearchStats()
            got = kept_coherent_core(frozen, layers, d, within, stats=stats)
            peeled = coherent_core(frozen.with_empty_memo(), layers, d,
                                   within=within, stats=peeled_stats)
            assert got == peeled and list(got) == list(peeled)
            assert len(got) < len(kept)
            assert stats == peeled_stats
            # The peel over a bound that misses part of the d-CC is not
            # the d-CC, and the kept one stays.
            assert frozen.core_memo.subset_core((layers, d)) is kept

    def test_a_mask_of_the_wrong_shape_fails_before_a_hit(self):
        frozen = _wrapped_clique()
        everyone = np.ones(frozen.num_vertices, dtype=bool)
        kept_coherent_core(frozen, (0, 1), 5, everyone)
        assert frozen.core_memo.subset_core(((0, 1), 5)) is not None
        stats = SearchStats()
        for wrong in (everyone[:-1], np.ones(frozen.num_vertices + 1,
                                             dtype=bool)):
            with pytest.raises(ParameterError, match="shape"):
                kept_coherent_core(frozen, (0, 1), 5, wrong, stats=stats)
        assert stats == SearchStats()

    def test_memory_bytes_counts_every_kept_core(self):
        frozen = _small_graph()
        # Fills the layer cores, degree vectors and single-layer d-CCs.
        search_dccs(frozen, 3, 1, 2, method="greedy",
                    use_vertex_deletion=False)
        before = frozen.memory_bytes()
        held = dict(frozen.core_memo._subsets)
        search_dccs(frozen, 3, 2, 2, method="greedy",
                    use_vertex_deletion=False)
        added = [ids for key, ids in frozen.core_memo._subsets.items()
                 if key not in held]
        assert added
        grown = sum(ids.nbytes + SUBSET_ENTRY_OVERHEAD for ids in added)
        assert frozen.memory_bytes() - before == grown
        assert frozen.core_memo.subset_nbytes() == sum(
            ids.nbytes + SUBSET_ENTRY_OVERHEAD
            for ids in frozen.core_memo._subsets.values()) \
            <= frozen.csr_nbytes()

    def test_threads_keeping_one_core_race_harmlessly(self):
        frozen = _small_graph()
        start = threading.Barrier(2)
        everyone = np.ones(frozen.num_vertices, dtype=bool)
        got = []

        def slow_peel(*args, **kwargs):
            # Both threads miss before either keeps its d-CC.
            start.wait(timeout=30)
            return coherent_core(*args, **kwargs)

        def client():
            stats = SearchStats()
            core = kept_coherent_core(frozen, (0, 1), 3, everyone,
                                      stats=stats)
            got.append((core, stats))

        with mock.patch("repro.core.dcc.coherent_core", slow_peel):
            workers = [threading.Thread(target=client) for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        (first, first_stats), (second, second_stats) = got
        assert first == second and first_stats == second_stats
        assert list(frozen.core_memo._subsets) == [((0, 1), 3)]
        assert frozen.core_memo.subset_core(((0, 1), 3)).tolist() == \
            sorted(first)


def _union_bytes(frozen, union):
    """The bytes a kept union adds to ``frozen``: its own, less the
    degree arrays its memo shares with the graph's."""
    return union.memory_bytes() - sum(
        inside.nbytes for key, (_, inside) in union.core_memo._entries.items()
        if inside is frozen.core_memo._entries[key][1])


def _kept_bytes(kept):
    """The bytes a kept fixed point holds: its masks, and its survivor
    space once top-down built it."""
    masks = kept.masks
    total = masks.alive.nbytes + masks.support.nbytes + sum(
        core.nbytes for core in masks.cores)
    if kept.survivors is not None:
        survivors, cores, alive = kept.survivors
        total += survivors.memory_bytes() + alive.nbytes + sum(
            core.nbytes for core in cores)
    return total


class TestLifecycle:
    def test_patched_graph_holds_no_union(self):
        graph = _small_graph().thaw()
        u, v = 0, 1
        for layer in graph.layers():
            frozen = graph.freeze()
            for d in (3, 4):
                search_dccs(frozen, d, 2, 3, method="greedy")
            filled = sorted(frozen.core_memo._entries)
            assert frozen.core_memo._unions
            assert sorted(frozen.core_memo._fixed_points) == [(3, 2), (4, 2)]
            if graph.has_edge(layer, u, v):
                graph.apply_delta(remove=[(layer, u, v)])
            else:
                graph.apply_delta(add=[(layer, u, v)])
            patched = graph.freeze()
            assert patched is not frozen
            assert patched.core_memo._unions == {}
            assert patched.core_memo._fixed_points == {}
            assert sorted(patched.core_memo._entries) == [
                key for key in filled if key[0] != layer]
            rebuilt = FrozenMultiLayerGraph.from_graph(graph)
            for d in (3, 4):
                assert patched.core_union(d) == rebuilt.core_union(d)
                assert _snapshot(search_dccs(patched, d, 2, 3,
                                             method="greedy")) == \
                    _snapshot(search_dccs(rebuilt, d, 2, 3,
                                          method="greedy"))
        assert graph.freeze_patches == graph.num_layers

    def test_copies_and_pickles_start_without_unions(self):
        frozen = _small_graph()
        union = frozen.core_union(4)
        search_dccs(frozen, 4, 2, 3, method="top-down")
        search_dccs(frozen, 4, 2, 3, method="greedy",
                    use_vertex_deletion=False)
        assert frozen.core_memo._fixed_points[4, 2].survivors is not None
        assert frozen.core_memo._subsets
        for copied in (copy.deepcopy(frozen),
                       pickle.loads(pickle.dumps(frozen)),
                       frozen.with_empty_memo()):
            assert copied == frozen
            assert copied.core_memo._unions == {}
            assert copied.core_memo._entries == {}
            assert copied.core_memo._fixed_points == {}
            assert copied.core_memo._subsets == {}
            assert copied.core_memo.subset_nbytes() == 0
            assert copied.core_union(4) == union

    def test_memory_bytes_grows_by_the_union(self):
        frozen = _small_graph()
        # Fills the layer cores and degree vectors, but builds no union.
        search_dccs(frozen, 4, 2, 2, method="greedy",
                    use_vertex_deletion=False)
        before = frozen.memory_bytes()
        search_dccs(frozen, 4, 2, 2, method="greedy")
        union = frozen.core_union(4)
        assert union is not frozen
        # The union's memo shares each core's degree array with the
        # graph's, which counts it already.
        for layer in frozen.layers():
            assert union.core_memo._entries[layer, 4][1] is \
                frozen.core_memo._entries[layer, 4][1]
        kept = frozen.core_memo._fixed_points
        assert frozen.memory_bytes() - before == \
            _union_bytes(frozen, union) + _kept_bytes(kept[4, 2]) > 0
        # A new (d, s) entry, then top-down's survivor space in an
        # existing one, each adds exactly what it holds.
        for method, s in (("greedy", 3), ("top-down", 2)):
            before = frozen.memory_bytes()
            held = sum(map(_kept_bytes, kept.values()))
            search_dccs(frozen, 4, s, 2, method=method)
            assert frozen.memory_bytes() - before == \
                sum(map(_kept_bytes, kept.values())) - held > 0
        assert kept[4, 2].survivors is not None

    def test_threads_building_one_d_race_harmlessly(self):
        frozen = _small_graph()
        build = FrozenMultiLayerGraph._build_core_union
        start = threading.Barrier(2)
        built, got = [], []

        def slow_build(graph, d):
            # Both threads miss before either stores its union.
            start.wait(timeout=30)
            union = build(graph, d)
            built.append(union)
            return union

        def client():
            got.append(frozen.core_union(4))

        with mock.patch.object(FrozenMultiLayerGraph, "_build_core_union",
                               slow_build):
            workers = [threading.Thread(target=client) for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        assert len(built) == 2 and built[0] is not built[1]
        assert got[0] is got[1] is frozen.core_union(4)
        assert got[0] == built[0] == built[1]

    def test_graph_payload_ships_no_union(self):
        frozen = _small_graph()
        frozen.core_union(4)
        search_dccs(frozen, 4, 2, 3, method="top-down")
        search_dccs(frozen, 4, 2, 3, method="greedy", jobs=1)
        assert frozen.core_memo._subsets
        payload = graph_payload(frozen)
        assert not any(isinstance(part, (FrozenMultiLayerGraph,
                                         LayerCoreMemo, KeptFixedPoint))
                       for part in payload)
        shipped = payload_graph(pickle.loads(pickle.dumps(payload)))
        assert shipped == frozen
        assert shipped.core_memo._unions == {}
        assert shipped.core_memo._fixed_points == {}
        assert shipped.core_memo._subsets == {}
        assert shipped.core_union(4) == frozen.core_union(4)

    def test_induced_subgraph_labels_are_compact_ints(self):
        frozen = _small_graph()
        mask = np.zeros(frozen.num_vertices, dtype=bool)
        mask[3::5] = True
        sub = np_induced_subgraph(frozen, mask)
        n = sub.num_vertices
        ids = np.flatnonzero(mask).tolist()
        assert list(sub.labels) == ids
        assert all(type(label) is int for label in sub.labels)
        assert sub.labels_for(range(n)) == frozenset(ids)
        assert all(type(label) is int
                   for label in sub.labels_for(range(n)))
        assert parent_sets(sub, [range(n)]) == [frozenset(ids)]
        # 4 bytes a label, with no label objects of their own.
        assert sub.labels.itemsize == 4
        assert sub.memory_bytes() == sub.csr_nbytes() + \
            sys.getsizeof(sub.labels) + sys.getsizeof(None) + \
            sys.getsizeof(sub._layer_masks)
        assert sys.getsizeof(sub.labels) - sys.getsizeof(array("i")) == 4 * n
