"""Tests for the unified search API and cross-algorithm consistency."""

import asyncio
import json
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio import AsyncDCCHost, DCCServer, format_response
from repro.cli import main as cli_main
from repro.core.api import (
    METHOD_OPTIONS,
    check_options,
    choose_method,
    search_dccs,
)
from repro.core.dcc import is_coherent_dense
from repro.core.stats import SearchStats
from repro.engine import DCCEngine
from repro.graph import MultiLayerGraph, paper_figure1_graph
from repro.graph.io import write_json
from repro.host import DCCHost
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


# ----------------------------------------------------------------------
# one spec through every entry path
# ----------------------------------------------------------------------

# Every example searches one mutable graph of this shape, rewired to the
# drawn edges, so the engine, hosts and server stay open across examples.
PATH_LAYERS = 3
PATH_VERTICES = 9
PATH_SLOTS = tuple(
    (layer, u, v) for layer in range(PATH_LAYERS)
    for u, v in combinations(range(PATH_VERTICES), 2)
)

# Per field, values every entry path must reject with ParameterError.
# All are JSON-encodable, so the socket sees exactly the same spec.
BAD_VALUES = {
    "d": (-1, 2.5, True, "3", None),
    "s": (0, PATH_LAYERS + 1, 1.5, True),
    "k": (0, -2, 2.0, False),
    "method": ("magic", "GREEDY", None),
    "switch": ("false", "true", 0, 1, None),
    "seed": ("x", "7", 1.5, True, [1]),
    "stats": (1, "x", {}, []),
}
UNKNOWN_OPTIONS = ("use_magic", "timeout", "use_index", "use_layer_pruning",
                   "use_potential_pruning")


@st.composite
def entry_path_cases(draw):
    """``(edges, spec, bad)``: a graph's edges and a search spec.

    ``spec`` holds ``d``, ``s``, ``k``, ``method``, ``options`` and
    ``stats`` (``"absent"``, ``None``, ``"fresh"`` for a new
    :class:`SearchStats` per path, or a bad value).  ``bad`` names the
    one field given a bad value, or is ``None`` for a valid spec.  Half
    the specs are plain — no switches, no stats — as the CLI takes them.
    """
    keep = draw(st.lists(st.booleans(), min_size=len(PATH_SLOTS),
                         max_size=len(PATH_SLOTS)))
    edges = {slot for slot, kept in zip(PATH_SLOTS, keep) if kept}
    plain = draw(st.booleans())
    spec = {
        "d": draw(st.integers(min_value=0, max_value=3)),
        "s": draw(st.integers(min_value=1, max_value=PATH_LAYERS)),
        "k": draw(st.integers(min_value=1, max_value=3)),
        "method": draw(st.sampled_from(
            ("auto", "greedy", "bottom-up", "top-down"))),
        "stats": "absent" if plain
        else draw(st.sampled_from(("absent", None, "fresh"))),
    }
    method = spec["method"]
    if method == "auto":
        method = choose_method(PATH_LAYERS, spec["s"])
    switches = sorted(name for name in METHOD_OPTIONS[method]
                      if name != "seed")
    options = {} if plain else draw(st.dictionaries(
        st.sampled_from(switches), st.booleans()))
    if draw(st.booleans()):
        # Every method takes a seed; only top-down uses it.
        options["seed"] = draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=99)))
    spec["options"] = options
    bad = draw(st.sampled_from((None, "unknown") + tuple(BAD_VALUES)))
    if bad in ("d", "s", "k", "stats"):
        spec[bad] = draw(st.sampled_from(BAD_VALUES[bad]))
    elif bad == "method":
        spec["method"] = draw(st.sampled_from(BAD_VALUES["method"]))
        spec["options"] = {}
    elif bad == "switch":
        options[draw(st.sampled_from(switches))] = draw(
            st.sampled_from(BAD_VALUES["switch"]))
    elif bad == "seed":
        options["seed"] = draw(st.sampled_from(BAD_VALUES["seed"]))
    elif bad == "unknown":
        options[draw(st.sampled_from([
            name for name in UNKNOWN_OPTIONS
            if name not in METHOD_OPTIONS[method]
        ]))] = True
    return edges, spec, bad


def rewire(graph, edges):
    """Mutate ``graph`` (fixed vertex set) to hold exactly ``edges``."""
    current = {
        (layer, min(u, v), max(u, v))
        for layer in graph.layers() for u, v in graph.edges(layer)
    }
    graph.apply_delta(add=sorted(edges - current),
                      remove=sorted(current - edges))


def outcome(call, kept=None):
    """A path's comparable outcome: its wire payload or its error type.

    A result is also appended to ``kept``, when given.
    """
    try:
        result = call()
    except Exception as error:  # the test compares error types
        return "error", type(error).__name__
    if kept is not None:
        kept.append(result)
    payload = format_response(0, None, result=result)
    del payload["seq"], payload["elapsed_s"]
    return "ok", payload


def cli_argv(path, spec):
    """``repro search`` arguments for ``spec``, or ``None``.

    ``None`` when the CLI cannot express the spec: a ``use_*`` switch,
    an unknown option, a stats accumulator, or a number given as a
    string (every argument is a string on the command line).
    """
    options = spec["options"]
    if spec["stats"] != "absent" or set(options) - {"seed"}:
        return None
    seed = options.get("seed")
    if any(isinstance(value, str)
           for value in (spec["d"], spec["s"], spec["k"], seed)):
        return None
    argv = ["search", path, "-d", str(spec["d"]), "-s", str(spec["s"]),
            "-k", str(spec["k"]), "--method", str(spec["method"])]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def run_cli(argv, capsys):
    """``(exit code, stdout)`` of one in-process CLI run."""
    capsys.readouterr()
    try:
        code = cli_main(argv)
    except SystemExit as exit:  # argparse rejects the arguments
        code = exit.code
    return code, capsys.readouterr().out


def cli_lines(result):
    """The lines ``repro search`` prints for ``result``, time left out."""
    lines = ["{}: {} d-CCs, cover {} vertices, {} dCC computations".format(
        result.algorithm, len(result.sets), result.cover_size,
        result.stats.dcc_calls,
    )]
    for label, members in zip(result.labels, result.sets):
        shown = ", ".join(str(v) for v in sorted(members, key=str)[:12])
        suffix = ", ..." if len(members) > 12 else ""
        lines.append("  layers {} | {} vertices: {}{}".format(
            label, len(members), shown, suffix))
    return lines


# The elapsed-time field of the CLI's summary line.
CLI_ELAPSED = re.compile(r", \d+\.\d{3}s,")


@pytest.mark.network
class TestEveryEntryPath:
    """One drawn spec, every entry path, one outcome.

    The six library and serving paths run on a ``MultiLayerGraph`` and
    again on the same graph pre-frozen (its ids are its labels); the CLI
    runs every spec it can express.
    """

    def test_one_spec_through_every_entry_path(self, tmp_path, capsys):
        graph = MultiLayerGraph(PATH_LAYERS, vertices=range(PATH_VERTICES))
        graph_file = str(tmp_path / "graph.json")
        loop = asyncio.new_event_loop()

        async def open_serving():
            ahost = AsyncDCCHost(jobs=1)
            ahost.attach("g", graph)
            server = DCCServer(ahost, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            return ahost, server, reader, writer

        async def over_socket(request):
            writer.write((json.dumps(request) + "\n").encode("utf-8"))
            await writer.drain()
            response = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=60))
            if not response["ok"]:
                return "error", response["error_type"]
            del response["seq"], response["elapsed_s"]
            return "ok", response

        async def close_serving():
            writer.close()
            await server.aclose()
            await ahost.aclose()

        ahost, server, reader, writer = loop.run_until_complete(
            open_serving())
        try:
            with DCCEngine(graph, jobs=1) as engine, \
                    DCCHost(jobs=1) as host:
                host.attach("g", graph)
                frozen_names = []

                @given(entry_path_cases())
                @settings(max_examples=100, deadline=None)
                def check(case):
                    edges, spec, bad = case
                    rewire(graph, edges)
                    frozen_graph = graph.freeze()
                    # A frozen graph never changes: each drawn graph's is
                    # attached under a name of its own.
                    frozen_name = "f{}".format(len(frozen_names))
                    frozen_names.append(frozen_name)
                    for registry in (host, ahost):
                        registry.attach(frozen_name, frozen_graph)
                    d, s, k = spec["d"], spec["s"], spec["k"]
                    method = spec["method"]

                    def options():
                        # A fresh accumulator per path: a shared one
                        # would carry one path's counters into the next.
                        extra = dict(spec["options"])
                        if spec["stats"] == "fresh":
                            extra["stats"] = SearchStats()
                        elif spec["stats"] != "absent":
                            extra["stats"] = spec["stats"]
                        return extra

                    outcomes, kept = {}, {}
                    frozen = DCCEngine(frozen_graph, jobs=1)
                    for twin, source, session, name in (
                            ("", graph, engine, "g"),
                            ("frozen ", frozen_graph, frozen, frozen_name)):
                        paths = {
                            "jobs=None": lambda: search_dccs(
                                source, d, s, k, method=method,
                                **options()),
                            "jobs=1": lambda: search_dccs(
                                source, d, s, k, method=method, jobs=1,
                                **options()),
                            "engine": lambda: session.search(
                                d, s, k, method=method, **options()),
                            "host": lambda: host.search(
                                name, d, s, k, method=method,
                                **options()),
                            "async": lambda: loop.run_until_complete(
                                ahost.search(name, d, s, k, method=method,
                                             **options())),
                        }
                        for path, call in paths.items():
                            outcomes[twin + path] = outcome(
                                call, kept.setdefault(twin + path, []))
                        if spec["stats"] != "fresh":
                            # A SearchStats cannot cross the wire.
                            outcomes[twin + "socket"] = \
                                loop.run_until_complete(over_socket(dict(
                                    options(), graph=name, d=d, s=s, k=k,
                                    method=method)))
                    frozen.close()
                    argv = cli_argv(graph_file, spec)
                    if argv is not None:
                        write_json(graph, graph_file)
                        code, out = run_cli(argv, capsys)
                    if bad is not None:
                        for path, seen in outcomes.items():
                            assert seen == ("error", "ParameterError"), \
                                (bad, path, seen)
                        if argv is not None:
                            assert (code, out) == (2, ""), (bad, argv)
                        return
                    sequential = outcomes.pop("jobs=None")
                    assert sequential[0] == "ok", sequential
                    assert outcomes.pop("frozen jobs=None") == sequential
                    first = outcomes["jobs=1"]
                    assert first[0] == "ok", first
                    for path, seen in outcomes.items():
                        assert seen == first, path
                    assert sequential == first
                    for path, results in kept.items():
                        if path.startswith("frozen "):
                            twin = kept[path[len("frozen "):]]
                            assert results[0].stats.as_dict() == \
                                twin[0].stats.as_dict(), path
                    if argv is not None:
                        assert code == 0, argv
                        assert CLI_ELAPSED.sub(",", out).splitlines() == \
                            cli_lines(kept["jobs=None"][0])

                check()
        finally:
            loop.run_until_complete(close_serving())
            loop.close()


def assert_same_answer(first, second, context):
    """Sets in iteration order, labels, cover and every counter."""
    assert [list(members) for members in first.sets] == \
        [list(members) for members in second.sets], context
    assert first.labels == second.labels, context
    assert first.cover_size == second.cover_size, context
    assert first.stats.as_dict() == second.stats.as_dict(), context


class TestTreeSearchEntryPaths:
    """Bottom-up and top-down answer as ``jobs=None`` on every engine path.

    The drawn graphs of :class:`TestEveryEntryPath` are too small to
    tell a root-sharded tree search from the sequential one; on these
    configurations sharding made 17,004 dCC calls against 727 (top-down)
    and 18 against 12 (bottom-up).
    """

    @pytest.mark.parametrize("dataset, scale, method, d, s, k", [
        ("english", 0.1, "top-down", 3, 2, 2),
        ("ppi", 0.5, "bottom-up", 2, 1, 2),
    ])
    def test_engine_paths_equal_the_sequential_search(
            self, dataset, scale, method, d, s, k):
        from repro.datasets import load

        graph = load(dataset, scale=scale, seed=0).graph
        sequential = search_dccs(graph, d, s, k, method=method, seed=5)

        async def served():
            async with AsyncDCCHost(jobs=2) as ahost:
                ahost.attach("g", graph)
                return await ahost.search("g", d, s, k, method=method,
                                          seed=5)

        with DCCEngine(graph, jobs=2) as engine:
            paths = {
                "jobs=1": search_dccs(graph, d, s, k, method=method,
                                      seed=5, jobs=1),
                "engine": engine.search(d, s, k, method=method, seed=5),
                "async": asyncio.run(served()),
            }
        for path, result in paths.items():
            assert_same_answer(sequential, result, path)


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
