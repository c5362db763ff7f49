"""Shared measurement plumbing for the experiment harness.

Every figure-reproduction function boils down to: take a dataset, sweep
one parameter, run one or more algorithms per point, and record
``(time, cover size, search counters)`` rows.  :func:`measure_point` is
that inner loop; the sweep modules compose it.
"""

from repro.core.api import search_dccs
from repro.graph.backend import resolve_search_graph


def measure_point(graph, d, s, k, methods, seed=0, **options):
    """Run each method once and return one row per method.

    ``options`` are forwarded to :func:`repro.core.search_dccs` (pruning
    and preprocessing switches for the ablations).  The one-time freeze
    is paid up front: these rows compare *methods*, so the freeze cost
    must not land on whichever method runs first.

    Each row searches the frozen graph with an empty memo
    (:meth:`~repro.graph.frozen.FrozenMultiLayerGraph.with_empty_memo`):
    the frozen graph keeps layer cores, unions, fixed points and d-CCs,
    so a search after another would read what that one peeled, and
    each row pays its own peels instead, as each run of the paper's
    Section VI does.
    """
    frozen, _ = resolve_search_graph(graph)
    rows = []
    for method in methods:
        result = search_dccs(frozen.with_empty_memo(), d, s, k,
                             method=method, seed=seed, **options)
        rows.append(result_row(result, method=method, d=d, s=s, k=k))
    return rows


def result_row(result, **extra):
    """Flatten a :class:`DCCSResult` into a table row dict."""
    row = {
        "algorithm": result.algorithm,
        "time_s": result.elapsed,
        "cover": result.cover_size,
        "sets": len(result.sets),
        "dcc_calls": result.stats.dcc_calls,
        "candidates": result.stats.candidates_generated,
        "pruned": result.stats.candidates_pruned,
    }
    row.update(extra)
    return row


def sweep(graph, parameter, values, base, methods, **options):
    """Sweep ``parameter`` over ``values`` with other params from ``base``.

    ``base`` maps ``d``/``s``/``k`` to their fixed values; the swept
    parameter overrides its entry.  Returns a flat list of rows with the
    swept value recorded under the parameter name.  The freeze is paid
    once per graph (cached) and excluded from every row:
    :func:`measure_point` warms the conversion cache before its timers
    start, so rows compare methods only.
    """
    rows = []
    for value in values:
        point = dict(base)
        point[parameter] = value
        for row in measure_point(graph, point["d"], point["s"], point["k"],
                                 methods, **options):
            row[parameter] = value
            rows.append(row)
    return rows
