"""Determinism suite for the parallel subsystem (:mod:`repro.parallel`).

The contract under test, in order of strength:

1. **jobs invariance** — for every method and seed, on a
   ``MultiLayerGraph`` or a frozen graph,
   ``search_dccs(..., jobs=N)`` returns bitwise identical sets, labels,
   cover sizes *and aggregated stats counters* for every ``N``;
2. **sequential parity** — every ``jobs`` value also equals the
   single-process ``jobs=None`` run, counters included: greedy's
   candidate family merges back in subset order, and bottom-up and
   top-down run their sequential algorithms in process, so only greedy
   reaches the pool (``tests/test_api.py::TestEveryEntryPath`` extends
   this to the engine, the hosts, the socket and the CLI).

Pool spawns are real in these tests (``jobs=4`` forks four workers), so
hypothesis example counts are kept deliberately small.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import search_dccs
from repro.core.greedy import gd_dccs
from repro.experiments.runner import measure_point
from repro.graph import (
    FrozenMultiLayerGraph,
    MultiLayerGraph,
    paper_figure1_graph,
)
from repro.parallel import (
    MAX_WORKERS,
    check_jobs,
    effective_jobs,
    graph_payload,
    payload_graph,
    usable_cpus,
)
from repro.utils.errors import ParameterError
from tests.strategies import (
    labelled_multilayer_graphs,
    multilayer_graphs,
    search_parameters,
)

METHODS = ("greedy", "bottom-up", "top-down")


def run(graph, d, s, k, **kwargs):
    return search_dccs(graph, d, s, k, seed=5, **kwargs)


def assert_identical(first, second, context=""):
    assert first.sets == second.sets, context
    assert first.labels == second.labels, context
    assert first.cover_size == second.cover_size, context
    assert first.stats.as_dict() == second.stats.as_dict(), context


# ----------------------------------------------------------------------
# 1. jobs invariance
# ----------------------------------------------------------------------


class TestJobsInvariance:
    @given(st.data())
    @settings(max_examples=5, deadline=None)
    def test_jobs_1_vs_4_all_methods_both_backends(self, data):
        graph = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        d, s, k = data.draw(search_parameters(graph))
        for source in (graph, FrozenMultiLayerGraph.from_graph(graph)):
            for method in METHODS:
                one = run(source, d, s, k, method=method, jobs=1)
                four = run(source, d, s, k, method=method, jobs=4)
                assert_identical(one, four, (source, method, d, s, k))

    @given(labelled_multilayer_graphs(max_vertices=7, max_layers=3))
    @settings(max_examples=4, deadline=None)
    def test_string_labels_survive_parallel_search(self, graph):
        for method in METHODS:
            one = run(graph, 1, 1, 2, method=method, jobs=1)
            four = run(graph, 1, 1, 2, method=method, jobs=4)
            assert_identical(one, four, method)
            for members in four.sets:
                assert all(isinstance(vertex, str) for vertex in members)

    def test_jobs_invariance_on_a_candidate_heavy_config(self):
        from repro.datasets import load

        graph = load("english", scale=0.1, seed=0).graph
        for method in METHODS:
            one = run(graph, 3, 2, 4, method=method, jobs=1)
            two = run(graph, 3, 2, 4, method=method, jobs=2)
            four = run(graph, 3, 2, 4, method=method, jobs=4)
            assert_identical(one, two, method)
            assert_identical(one, four, method)

    def test_default_seed_is_deterministic(self):
        graph = paper_figure1_graph()
        first = search_dccs(graph, 3, 2, 2, method="top-down", jobs=2)
        second = search_dccs(graph, 3, 2, 2, method="top-down", jobs=2)
        assert_identical(first, second)

    def test_auto_jobs_matches_explicit(self):
        graph = paper_figure1_graph()
        auto = run(graph, 3, 2, 2, method="bottom-up", jobs=0)
        explicit = run(graph, 3, 2, 2, method="bottom-up", jobs=2)
        assert_identical(auto, explicit)

    def test_top_down_full_support_root_only(self):
        graph = paper_figure1_graph()
        s = graph.num_layers
        one = run(graph, 2, s, 2, method="top-down", jobs=1)
        four = run(graph, 2, s, 2, method="top-down", jobs=4)
        assert_identical(one, four)

    def test_empty_result_under_huge_d(self):
        graph = paper_figure1_graph()
        for method in METHODS:
            one = run(graph, 99, 2, 2, method=method, jobs=1)
            four = run(graph, 99, 2, 2, method=method, jobs=4)
            assert_identical(one, four, method)
            assert four.sets == []


# ----------------------------------------------------------------------
# 2. parity with the sequential algorithms
# ----------------------------------------------------------------------


class TestTreeSearchParity:
    @given(st.data())
    @settings(max_examples=5, deadline=None)
    def test_tree_searches_equal_sequential_for_every_jobs(self, data):
        graph = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        d, s, k = data.draw(search_parameters(graph))
        for source in (graph, FrozenMultiLayerGraph.from_graph(graph)):
            for method in ("bottom-up", "top-down"):
                sequential = run(source, d, s, k, method=method)
                for jobs in (0, 1, 3):
                    assert_identical(
                        sequential,
                        run(source, d, s, k, method=method, jobs=jobs),
                        (source, method, jobs, d, s, k))


class TestGreedyParity:
    @given(st.data())
    @settings(max_examples=5, deadline=None)
    def test_parallel_greedy_equals_sequential(self, data):
        graph = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        d, s, k = data.draw(search_parameters(graph))
        for source in (graph, FrozenMultiLayerGraph.from_graph(graph)):
            sequential = run(source, d, s, k, method="greedy")
            parallel = run(source, d, s, k, method="greedy", jobs=3)
            assert_identical(sequential, parallel, (source, d, s, k))

    def test_parity_includes_candidate_family_size(self):
        graph = paper_figure1_graph()
        sequential = gd_dccs(graph, 3, 2, 2)
        parallel = search_dccs(graph, 3, 2, 2, method="greedy", jobs=2)
        assert (
            parallel.stats.extra["candidate_family_size"]
            == sequential.stats.extra["candidate_family_size"]
        )


# ----------------------------------------------------------------------
# plumbing: validation, serialization, CLI, runner
# ----------------------------------------------------------------------


class TestJobsValidation:
    def test_check_jobs_accepts_none_zero_and_positive(self):
        assert check_jobs(None) is None
        assert check_jobs(0) == 0
        assert check_jobs(5) == 5

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "four"])
    def test_check_jobs_rejects_garbage(self, bad):
        with pytest.raises(ParameterError):
            check_jobs(bad)

    def test_search_dccs_rejects_bad_jobs(self):
        with pytest.raises(ParameterError):
            search_dccs(paper_figure1_graph(), 1, 1, 1, jobs=-2)

    def test_effective_jobs_resolution(self):
        assert effective_jobs(3) == 3
        assert effective_jobs(0) >= 1
        assert effective_jobs(None) >= 1
        assert effective_jobs(10 ** 6) == MAX_WORKERS

    def test_jobs_zero_counts_the_cpus_the_process_may_run_on(
            self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1},
                            raising=False)
        assert usable_cpus() == 1
        assert effective_jobs(0) == 1
        assert effective_jobs(5) == 5
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert effective_jobs(0) == 3

    def test_jobs_zero_falls_back_to_cpu_count_without_affinity(
            self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert effective_jobs(0) == os.cpu_count()


class TestGraphPayloadRoundTrip:
    @given(multilayer_graphs(max_vertices=8, max_layers=3))
    @settings(max_examples=20, deadline=None)
    def test_frozen_round_trip(self, graph):
        frozen = graph.freeze()
        rebuilt = payload_graph(graph_payload(frozen))
        assert rebuilt == frozen
        assert rebuilt.name == frozen.name

    @given(labelled_multilayer_graphs(max_vertices=8, max_layers=3))
    @settings(max_examples=20, deadline=None)
    def test_dict_round_trip(self, graph):
        # A MultiLayerGraph ships as its frozen form and thaws back.
        rebuilt = payload_graph(graph_payload(graph.freeze()))
        assert rebuilt.thaw() == graph
        assert rebuilt.name == graph.name
        with pytest.raises(ParameterError, match=r"freeze\(\)"):
            graph_payload(graph)

    def test_unknown_payload_kind(self):
        with pytest.raises(ValueError):
            payload_graph(("numpy", None))


class TestPoolFallback:
    def test_spawn_failure_at_submit_falls_back_inline(self, monkeypatch):
        # CPython spawns pool workers lazily at submit(), so a sandbox
        # that denies fork() fails there, not in the constructor; the
        # shard queue must degrade to inline execution either way.
        from repro.parallel import executor as executor_module

        class BrokenPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, *args, **kwargs):
                raise OSError("fork denied")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", BrokenPool
        )
        graph = paper_figure1_graph()
        broken = run(graph, 3, 2, 2, method="greedy", jobs=4)
        healthy = run(graph, 3, 2, 2, method="greedy", jobs=1)
        assert_identical(broken, healthy)

    def test_worker_exceptions_still_propagate(self, monkeypatch):
        # Only pool-infrastructure failures trigger the fallback; a bug
        # inside shard execution must surface, not be silently retried.
        from repro.parallel import worker as worker_module

        def explode(self, task):
            raise ValueError("shard bug")

        monkeypatch.setattr(worker_module.ShardRunner, "run", explode)
        with pytest.raises(ValueError):
            run(paper_figure1_graph(), 3, 2, 2, method="greedy", jobs=1)


class TestPlumbing:
    def test_prefrozen_graph_keeps_id_vocabulary(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        raw = run(frozen, 3, 2, 2, method="greedy", jobs=2)
        translated = run(graph, 3, 2, 2, method="greedy", jobs=2)
        assert [
            frozen.labels_for(members) for members in raw.sets
        ] == translated.sets

    def test_measure_point_forwards_jobs(self):
        graph = MultiLayerGraph(1, vertices=range(40))
        for i in range(39):
            graph.add_edge(0, i, i + 1)
        sequential = measure_point(graph, 1, 1, 2, methods=["greedy"])
        parallel = measure_point(graph, 1, 1, 2, methods=["greedy"], jobs=2)
        for seq_row, par_row in zip(sequential, parallel):
            assert seq_row["cover"] == par_row["cover"]
            assert seq_row["dcc_calls"] == par_row["dcc_calls"]

    def test_cli_search_jobs(self, capsys):
        assert main([
            "search", "ppi", "--scale", "0.2",
            "-d", "2", "-s", "2", "-k", "2", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "worker cap 2" in out

    def test_cli_info_reports_workers(self, capsys):
        assert main(["info", "ppi", "--scale", "0.2"]) == 0
        assert "parallel_workers_effective" in capsys.readouterr().out
