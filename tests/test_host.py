"""Suite for :mod:`repro.host` — the multi-graph engine host.

The contract under test, in order of importance:

1. **hosted equivalence** — ``host.search``, and a batch over a host
   through ``AsyncDCCHost.run_batch``, are bitwise identical (sets,
   labels, cover, aggregated counters) to a fresh single-graph
   :class:`DCCEngine` and to one-shot ``search_dccs``, including across
   evictions and re-admission;
2. **admission control** — at most ``max_engines`` sessions are
   resident, LRU order decides the victim, eviction closes the victim's
   worker pool (no leaked processes), and a global memory budget evicts
   down to (but never including) the session being served;
3. **lifecycle** — registry operations validate their inputs, closed
   hosts refuse work, and the batch-spec parser rejects malformed
   documents before any graph is loaded.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio import AsyncDCCHost
from repro.cli import main
from repro.core import search_dccs
from repro.engine import DCCEngine
from repro.host import DCCHost, parse_host_spec
from repro.parallel import live_pool_count
from repro.utils.errors import (
    EngineClosedError,
    HostClosedError,
    ParameterError,
    UnknownGraphError,
)
from repro.graph import MultiLayerGraph, paper_figure1_graph
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


# ----------------------------------------------------------------------
# 1. hosted equivalence
# ----------------------------------------------------------------------


class TestHostedEquivalence:
    def test_host_matches_fresh_engine_and_one_shot(self):
        graph = paper_figure1_graph()
        with DCCHost(jobs=1) as host:
            host.attach("fig1", graph)
            hosted = host.search("fig1", 3, 2, 2, method="greedy")
        with DCCEngine(graph, jobs=1) as engine:
            session = engine.search(3, 2, 2, method="greedy")
        one_shot = search_dccs(graph, 3, 2, 2, method="greedy", jobs=1)
        assert_identical(hosted, session)
        assert_identical(hosted, one_shot)

    def test_search_many_spans_graphs_in_input_order(self):
        first, second = paper_figure1_graph(), ring_graph()
        specs = [
            {"graph": "fig1", "d": 3, "s": 2, "k": 2},
            {"graph": "ring", "d": 2, "s": 1, "k": 2},
            {"graph": "fig1", "d": 2, "s": 2, "k": 2, "method": "greedy"},
            {"graph": "ring", "d": 2, "s": 2, "k": 1},
        ]
        ahost = AsyncDCCHost(max_engines=1, jobs=1)
        ahost.attach("fig1", first).attach("ring", second)
        try:
            batched = ahost.run_batch(specs)
            assert ahost.host.evictions >= 1
        finally:
            asyncio.run(ahost.aclose())
        with DCCHost(jobs=1) as host:
            host.attach("fig1", first).attach("ring", second)
            singles = [
                host.search(spec["graph"],
                            **{key: value for key, value in spec.items()
                               if key != "graph"})
                for spec in specs
            ]
        assert len(batched) == len(specs)
        for spec, one, two in zip(specs, batched, singles):
            assert_identical(one, two, spec)

    @given(st.data())
    @settings(max_examples=3, deadline=None)
    def test_readmission_bitwise_identical_under_pressure(self, data):
        # The acceptance-criterion property: a host thrashing two graphs
        # through one engine slot returns, for every query, exactly what
        # a fresh dedicated engine returns — eviction and re-admission
        # cost latency, never results or counters.
        graph_a = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        graph_b = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        d, s, k = data.draw(search_parameters(graph_a))
        db, sb, kb = data.draw(search_parameters(graph_b))
        with DCCHost(max_engines=1, jobs=1) as host:
            host.attach("a", graph_a).attach("b", graph_b)
            rounds = [
                (name, host.search(name, *params, seed=5))
                for name, params in (("a", (d, s, k)), ("b", (db, sb, kb)),
                                     ("a", (d, s, k)), ("b", (db, sb, kb)))
            ]
            assert host.evictions >= 2
        for name, result in rounds:
            graph, params = ((graph_a, (d, s, k)) if name == "a"
                             else (graph_b, (db, sb, kb)))
            with DCCEngine(graph, jobs=1) as engine:
                fresh = engine.search(*params, seed=5)
            assert_identical(result, fresh, (name, params))


# ----------------------------------------------------------------------
# 2. admission control
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def test_lru_eviction_closes_the_victim_pool(self):
        with DCCHost(max_engines=2, jobs=2) as host:
            host.attach("a", paper_figure1_graph())
            host.attach("b", ring_graph())
            host.attach("c", ring_graph(8))
            engine_a = host.engine("a")
            engine_a.warm()
            assert engine_a.info()["pool_spawned"] is True
            host.engine("b")
            # "a" is LRU; admitting "c" must evict it and close its pool.
            host.engine("c")
            assert host.resident() == ("b", "c")
            assert host.evictions == 1
            assert engine_a.info()["closed"] is True
            assert engine_a.info()["pool_spawned"] is False
            with pytest.raises(EngineClosedError):
                engine_a.search(1, 1, 1)

    def test_no_leaked_worker_processes_after_churn(self):
        baseline = live_pool_count()
        with DCCHost(max_engines=1, jobs=2) as host:
            host.attach("a", paper_figure1_graph())
            host.attach("b", ring_graph())
            for name in ("a", "b", "a", "b"):
                engine = host.engine(name)
                engine.warm()
            assert live_pool_count() <= baseline + 1
        assert live_pool_count() == baseline

    def test_touch_refreshes_lru_order(self):
        with DCCHost(max_engines=2, jobs=1) as host:
            host.attach("a", paper_figure1_graph())
            host.attach("b", ring_graph())
            host.attach("c", ring_graph(8))
            host.engine("a")
            host.engine("b")
            host.engine("a")  # touch: "b" is now LRU
            host.engine("c")
            assert host.resident() == ("a", "c")

    def test_memory_budget_evicts_down_to_the_served_session(self):
        first, second = paper_figure1_graph(), ring_graph(30)
        with DCCHost(jobs=1) as host:
            host.attach("a", first).attach("b", second)
            one = host.engine("a").memory_bytes()
            host._evict("a")
            host.evictions = 0
            # A budget below two resident graphs but above one: serving
            # both alternately keeps exactly one session resident.
            host.memory_budget_bytes = one + 1
            host.search("a", 2, 1, 1)
            host.search("b", 2, 1, 1)
            assert host.resident() == ("b",)
            assert host.evictions == 1

    def test_oversized_single_graph_still_serves(self):
        with DCCHost(memory_budget_bytes=1, jobs=1) as host:
            host.attach("a", paper_figure1_graph())
            result = host.search("a", 3, 2, 2)
            assert result.sets
            assert host.resident() == ("a",)

    def test_engine_cache_is_bounded_under_a_host(self):
        with DCCHost(jobs=1, cache_max_entries=2) as host:
            host.attach("a", paper_figure1_graph())
            for d in (1, 2, 3):
                host.search("a", d, 2, 2, method="greedy")
            status = host.engine("a").info()
            assert status["cache_entries"] <= 2
            assert status["cache_evictions"] > 0
        with DCCEngine(paper_figure1_graph(), jobs=1) as engine:
            assert engine._cache.max_entries is None  # standalone: unbounded


# ----------------------------------------------------------------------
# 3. lifecycle and validation
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_registry_validation(self):
        graph = paper_figure1_graph()
        with DCCHost() as host:
            host.attach("a", graph)
            with pytest.raises(ParameterError):
                host.attach("a", graph)  # duplicate name
            with pytest.raises(ParameterError):
                host.attach("", graph)
            with pytest.raises(UnknownGraphError):
                host.engine("missing")
            with pytest.raises(UnknownGraphError):
                host.detach("missing")
            with pytest.raises(UnknownGraphError):
                host.graph("missing")
            assert host.names() == ("a",)
            assert host.graph("a") is graph

    def test_detach_closes_and_allows_reattach(self):
        with DCCHost(jobs=1) as host:
            host.attach("a", paper_figure1_graph())
            engine = host.engine("a")
            host.detach("a")
            assert engine.info()["closed"] is True
            assert not host.is_attached("a")
            host.attach("a", ring_graph())
            assert host.search("a", 2, 1, 1).sets

    def test_closed_host_refuses_work(self):
        host = DCCHost(jobs=1)
        host.attach("a", paper_figure1_graph())
        engine = host.engine("a")
        host.close()
        assert engine.info()["closed"] is True
        for call in (
            lambda: host.attach("b", ring_graph()),
            lambda: host.engine("a"),
            lambda: host.search("a", 1, 1, 1),
            lambda: host.detach("a"),
        ):
            with pytest.raises(HostClosedError):
                call()
        host.close()  # idempotent

    def test_constructor_validation(self):
        for bad in (0, -1, True, "2"):
            with pytest.raises(ParameterError):
                DCCHost(max_engines=bad)
        for bad in (0, -5, "64000000", True):
            with pytest.raises(ParameterError):
                DCCHost(memory_budget_bytes=bad)
        with pytest.raises(TypeError, match="backend"):
            DCCHost(backend="frozen")
        with pytest.raises(ParameterError):
            DCCHost(jobs=-1)

    def test_attach_validates_overrides_eagerly(self):
        # A poison registration must fail at attach time — discovering
        # it at admission would evict the LRU victim's warm pool first.
        with DCCHost(jobs=1) as host:
            graph = paper_figure1_graph()
            with pytest.raises(TypeError, match="backend"):
                host.attach("bad", graph, backend="frozen")
            with pytest.raises(ParameterError):
                host.attach("bad", graph, jobs=-2)
            assert not host.is_attached("bad")

    def test_search_many_validates_names_before_serving(self):
        ahost = AsyncDCCHost(jobs=1)
        ahost.attach("a", paper_figure1_graph())
        try:
            with pytest.raises(UnknownGraphError):
                ahost.run_batch([
                    {"graph": "a", "d": 3, "s": 2, "k": 2},
                    {"graph": "nope", "d": 3, "s": 2, "k": 2},
                ])
            with pytest.raises(ParameterError, match="graph"):
                ahost.run_batch([{"d": 3, "s": 2, "k": 2}])
            assert ahost.host.searches_served == 0
        finally:
            asyncio.run(ahost.aclose())

    def test_info_reports_admission_picture(self):
        with DCCHost(max_engines=1, jobs=1) as host:
            host.attach("a", paper_figure1_graph())
            host.attach("b", ring_graph())
            host.search("a", 3, 2, 2)
            host.search("b", 2, 1, 1)
            status = host.info()
        assert status["attached"] == 2
        assert status["resident_engines"] == ("b",)
        assert status["admissions"] == 2
        assert status["evictions"] >= 1
        assert status["searches_served"] == 2
        assert status["memory_bytes"] >= 0
        assert set(status["engines"]) == {"b"}


# ----------------------------------------------------------------------
# 4. batch-spec parsing and CLI
# ----------------------------------------------------------------------


class TestHostSpec:
    def test_parses_a_well_formed_spec(self):
        graphs, queries, settings = parse_host_spec({
            "graphs": {"a": "figure1", "b": "english"},
            "max_engines": 1,
            "queries": [
                {"graph": "a", "d": 3, "s": 2, "k": 2},
                {"graph": "b", "d": 2, "s": 2, "k": 3, "method": "greedy"},
            ],
        })
        assert list(graphs) == ["a", "b"]
        assert graphs["b"] == "english"
        assert len(queries) == 2 and queries[0]["graph"] == "a"
        assert settings == {"max_engines": 1}

    def test_unknown_top_level_key_is_named_in_the_error(self):
        # A typo'd settings knob must fail loudly, naming both the bad
        # key and the accepted vocabulary — never silently configure
        # nothing.
        from repro.host.spec import SETTINGS_KEYS

        with pytest.raises(ParameterError) as rejected:
            parse_host_spec({
                "graphs": {"a": "figure1"},
                "kernal": "numpy",
                "queries": [{"graph": "a", "d": 1, "s": 1, "k": 1}],
            })
        message = str(rejected.value)
        assert "kernal" in message
        for key in SETTINGS_KEYS + ("graphs", "queries"):
            assert key in message

    @pytest.mark.parametrize("payload", [
        [],                                          # not an object
        {"graphs": {"a": "figure1"}, "sharde": 2,
         "queries": [{"graph": "a", "d": 1, "s": 1, "k": 1}]},  # bad key
        {"queries": [{"graph": "a", "d": 1, "s": 1, "k": 1}]},  # no graphs
        {"graphs": {}, "queries": [{}]},             # empty graphs
        {"graphs": {"a": "figure1"}, "queries": []},  # empty queries
        {"graphs": {"a": "figure1"}, "queries": [7]},  # non-object query
        {"graphs": {"a": "figure1"},
         "queries": [{"d": 1, "s": 1, "k": 1}]},     # missing graph key
        {"graphs": {"a": "figure1"},
         "queries": [{"graph": "b", "d": 1, "s": 1, "k": 1}]},  # undeclared
        {"graphs": {"a": "figure1"},
         "queries": [{"graph": "a", "d": 1, "s": 1}]},  # missing k
        {"graphs": {"a": 7},
         "queries": [{"graph": "a", "d": 1, "s": 1, "k": 1}]},  # bad source
        {"graphs": {"a": "figure1"}, 'shards': 2,
         "queries": [{"graph": "a", "d": 1, "s": 1, "k": 1}]},  # retired key
    ])
    def test_rejects_malformed_specs(self, payload):
        with pytest.raises(ParameterError):
            parse_host_spec(payload)

    def test_cli_host_runs_a_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"graphs": {"one": "figure1", "two": "figure1"},'
            ' "max_engines": 1,'
            ' "queries": ['
            '  {"graph": "one", "d": 3, "s": 2, "k": 2},'
            '  {"graph": "two", "d": 2, "s": 2, "k": 2, "method": "greedy"},'
            '  {"graph": "one", "d": 3, "s": 2, "k": 2}]}'
        )
        assert main(["host", str(spec), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "host: 3 queries over 2 graphs" in out
        assert "1 evicted" in out
        assert "cover 13 vertices" in out

    def test_cli_host_flag_overrides_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"graphs": {"one": "figure1", "two": "figure1"},'
            ' "max_engines": 1,'
            ' "queries": ['
            '  {"graph": "one", "d": 3, "s": 2, "k": 2},'
            '  {"graph": "two", "d": 3, "s": 2, "k": 2}]}'
        )
        assert main(["host", str(spec), "--jobs", "1",
                     "--max-engines", "2"]) == 0
        assert "0 evicted" in capsys.readouterr().out

    def test_cli_host_rejects_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text('{"graphs": {"a": "figure1"}, "queries": []}')
        assert main(["host", str(spec)]) == 2
        assert capsys.readouterr().err != ""

    def test_cli_info_reports_host_status(self, capsys):
        assert main(["info", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "host_max_engines" in out
        assert "host_resident_engines: 1" in out
