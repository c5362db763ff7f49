"""Tests for the unified search API and cross-algorithm consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import check_options, choose_method, search_dccs
from repro.core.dcc import is_coherent_dense
from repro.core.stats import SearchStats
from repro.graph import paper_figure1_graph
from repro.utils.errors import ParameterError
from tests.strategies import multilayer_graphs


class TestDispatch:
    def test_choose_method_small_s(self):
        assert choose_method(10, 3) == "bottom-up"
        assert choose_method(10, 4) == "bottom-up"

    def test_choose_method_large_s(self):
        assert choose_method(10, 5) == "top-down"
        assert choose_method(10, 10) == "top-down"

    def test_auto_dispatch(self):
        g = paper_figure1_graph()
        assert search_dccs(g, 3, 1, 2).algorithm == "bottom-up"
        assert search_dccs(g, 3, 3, 2).algorithm == "top-down"

    def test_explicit_methods(self):
        g = paper_figure1_graph()
        for method, name in (
            ("greedy", "greedy"),
            ("bottom-up", "bottom-up"),
            ("top-down", "top-down"),
        ):
            assert search_dccs(g, 3, 2, 2, method=method).algorithm == name

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            search_dccs(paper_figure1_graph(), 3, 2, 2, method="magic")

    def test_seed_is_ignored_by_non_td(self):
        g = paper_figure1_graph()
        result = search_dccs(g, 3, 2, 2, method="greedy", seed=7)
        assert result.algorithm == "greedy"

    def test_shared_stats(self):
        stats = SearchStats()
        search_dccs(paper_figure1_graph(), 3, 2, 2, method="bottom-up",
                    stats=stats)
        assert stats.dcc_calls > 0

    def test_result_params_recorded(self):
        result = search_dccs(paper_figure1_graph(), 3, 2, 2)
        assert result.params == (3, 2, 2)
        assert result.elapsed >= 0.0


class TestInputContract:
    """Both execution modes reject the same bad input the same way."""

    @pytest.mark.parametrize("jobs", [None, 1])
    @pytest.mark.parametrize("d, s, k", [
        (3.5, 2, 2), (3.0, 2, 2), (True, 2, 2), (3, True, 2),
        (3, 2.0, 2), (3, 2, 2.0), (3, 2, False), ("3", 2, 2),
    ])
    def test_non_integer_parameters_rejected(self, jobs, d, s, k):
        with pytest.raises(ParameterError, match="must be an integer"):
            search_dccs(paper_figure1_graph(), d, s, k, jobs=jobs)

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_any_integral_accepted(self, jobs):
        numpy = pytest.importorskip("numpy")
        graph = paper_figure1_graph()
        plain = search_dccs(graph, 3, 2, 2, method="greedy", jobs=jobs)
        wide = search_dccs(graph, numpy.int64(3), numpy.int32(2),
                           numpy.int64(2), method="greedy", jobs=jobs)
        assert wide.sets == plain.sets
        assert wide.labels == plain.labels
        assert wide.stats.as_dict() == plain.stats.as_dict()

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_unknown_option_one_error(self, jobs):
        with pytest.raises(ParameterError,
                           match="unknown option 'use_index'"):
            search_dccs(paper_figure1_graph(), 3, 2, 2, method="greedy",
                        use_index=False, jobs=jobs)

    def test_check_options_is_strict(self):
        check_options("bottom-up", {"use_layer_pruning": False})
        with pytest.raises(ParameterError, match="'seed'"):
            check_options("greedy", {"seed": 1})
        with pytest.raises(ParameterError, match="'stats'"):
            check_options("bottom-up", {"stats": SearchStats()})

    def test_make_query_rejects_stats(self):
        from repro.parallel import make_query

        with pytest.raises(ParameterError, match="unknown option 'stats'"):
            make_query("greedy", 3, 2, 2, stats=SearchStats())

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_bad_graph_one_typed_error(self, jobs):
        from repro.datasets import load

        dataset = load("english", scale=0.05)
        for graph, name in ((None, "NoneType"), (dataset, "Dataset"),
                            ("english", "str")):
            with pytest.raises(ParameterError, match=name) as caught:
                search_dccs(graph, 2, 2, 2, jobs=jobs)
            assert (".graph" in str(caught.value)) == (graph is dataset)

    def test_bad_graph_rejected_by_engine_and_host(self):
        from repro.datasets import load
        from repro.engine import DCCEngine
        from repro.host import DCCHost

        dataset = load("english", scale=0.05)
        for graph, name in ((None, "NoneType"), (dataset, "Dataset"),
                            ("english", "str")):
            with pytest.raises(ParameterError, match=name):
                DCCEngine(graph, jobs=1)
            with DCCHost() as host:
                with pytest.raises(ParameterError, match=name):
                    host.attach("g", graph)
                assert not host.is_attached("g")
        with pytest.raises(ParameterError, match="pass its .graph"):
            DCCEngine(dataset, jobs=1)

    def test_sequential_search_takes_stats(self):
        stats = SearchStats()
        result = search_dccs(paper_figure1_graph(), 3, 2, 2,
                             method="bottom-up", stats=stats)
        assert result.stats is stats


class TestCrossAlgorithmConsistency:
    @given(multilayer_graphs(max_vertices=8, max_layers=4),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_all_algorithms_return_valid_sets(self, graph, d):
        k = 2
        for s in range(1, graph.num_layers + 1):
            for method in ("greedy", "bottom-up", "top-down"):
                result = search_dccs(graph, d, s, k, method=method)
                for layers, members in zip(result.labels, result.sets):
                    assert is_coherent_dense(graph, members, layers, d)

    @given(multilayer_graphs(max_vertices=8, max_layers=3))
    @settings(max_examples=40, deadline=None)
    def test_search_covers_are_comparable(self, graph):
        """BU and TD stay within 4x of greedy's cover (both are 1/4-approx
        while greedy is (1-1/e)-approx of the same optimum)."""
        d, s, k = 1, min(2, graph.num_layers), 2
        greedy = search_dccs(graph, d, s, k, method="greedy")
        for method in ("bottom-up", "top-down"):
            result = search_dccs(graph, d, s, k, method=method)
            assert 4 * result.cover_size >= greedy.cover_size

    def test_deterministic_given_seed(self):
        g = paper_figure1_graph()
        first = search_dccs(g, 3, 2, 2, method="top-down", seed=3)
        second = search_dccs(g, 3, 2, 2, method="top-down", seed=3)
        assert sorted(map(sorted, first.sets)) == sorted(map(sorted, second.sets))
