"""The benchmark's tracers still find every name they wrap.

``perfbench/`` times the program from outside: its tracers replace
functions at the module or class attribute where their callers look
them up (``repro.core.greedy.vertex_deletion``,
``repro.core.topdown.CoreHierarchyIndex``, ...).  A rename or an import
under another name in ``src/`` leaves every search working but makes a
traced benchmark run fail with an ``AttributeError``.  This test
installs both tracers, runs one search of each method under the search
tracer and uninstalls them, so that failure shows in the test suite.
"""

import os
import sys

import pytest

import repro.core.greedy
import repro.core.preprocess
from repro.core import search_dccs
from repro.graph import paper_figure1_graph

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
# The top-level modules perfbench imports from its own directory.
MODULES = ("library", "traced_serve", "spans", "hostspeed")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's directory on ``sys.path``; its modules are dropped
    from ``sys.modules`` afterwards, since their names are generic."""
    monkeypatch.syspath_prepend(PERFBENCH)
    yield
    for name in MODULES:
        sys.modules.pop(name, None)


def test_tracers_install_and_uninstall(perfbench):
    import library
    import traced_serve
    from spans import SpanRecorder

    search, serve = SpanRecorder(), SpanRecorder()
    try:
        library.install_tracing(search)
        traced_serve.install(serve, [])
        assert repro.core.greedy.vertex_deletion is not \
            repro.core.preprocess.vertex_deletion
        graph = paper_figure1_graph()
        for method in ("greedy", "bottom-up", "top-down"):
            search_dccs(graph, 3, 2, 2, method=method, seed=0)
    finally:
        serve.uninstall()
        search.uninstall()
    table = search.summary()
    for name in ("core.search.greedy", "core.search.bottom_up",
                 "core.search.top_down", "core.preprocess.vertex_deletion",
                 "core.dcc.coherent_core", "graph.kernels.peel"):
        assert table[name]["count"] > 0, name
    assert repro.core.greedy.vertex_deletion is \
        repro.core.preprocess.vertex_deletion
