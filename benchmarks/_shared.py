"""Shared plumbing for the figure-reproduction benchmarks.

Every benchmark regenerates one table/figure of the paper's Section VI.
Time-axis and cover-axis figures share the same parameter sweep (e.g.
Figs. 14 and 16 both sweep small ``s``), so sweeps are memoised here: the
first benchmark that needs a sweep pays for it — and is the one whose
wall-clock measurement is meaningful — and its sibling figure renders the
other column from the cached rows.

Rendered tables are always printed.  They are written under
``benchmarks/results/`` only when ``REPRO_BENCH_RECORD=1`` is set, so an
ordinary test run leaves the tracked result files untouched; set it to
refresh the figure reproduction on disk (docs/experiments.md maps each
figure to its file).
"""

import os
import statistics

from repro.core import search_dccs
from repro.datasets import load
from repro.experiments import (
    figure29,
    figure30,
    figure31,
    figure32,
    preprocessing_ablation,
    pruning_ablation,
    vary_d,
    vary_k,
    vary_large_s,
    vary_p,
    vary_q,
    vary_small_s,
)
from repro.experiments.config import RANGES
from repro.experiments.sweeps import p_subgraphs, q_subgraphs

# Stand-in scale per dataset, tuned so the whole bench suite finishes in
# minutes in pure Python.  Relative sizes follow the paper (Stack is the
# largest graph, so it gets the smallest multiplier).
FIG_SCALES = {
    "ppi": 1.0,
    "author": 1.0,
    "german": 0.40,
    "wiki": 0.30,
    "english": 0.35,
    "stack": 0.20,
}

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_CACHE = {}


def _memo(key, factory):
    if key not in _CACHE:
        _CACHE[key] = factory()
    return _CACHE[key]


def record(name, text):
    """Print a rendered table; under ``REPRO_BENCH_RECORD=1`` also save it.

    Returns the written path, or ``None`` when nothing was written.
    """
    print()
    print(text)
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return None
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def small_s_rows(dataset):
    return _memo(
        ("small_s", dataset),
        lambda: vary_small_s(dataset, scale=FIG_SCALES[dataset]),
    )


def large_s_rows(dataset):
    return _memo(
        ("large_s", dataset),
        lambda: vary_large_s(dataset, scale=FIG_SCALES[dataset]),
    )


def d_rows(dataset, large_s):
    return _memo(
        ("d", dataset, large_s),
        lambda: vary_d(dataset, large_s=large_s, scale=FIG_SCALES[dataset]),
    )


def k_rows(dataset, large_s):
    return _memo(
        ("k", dataset, large_s),
        lambda: vary_k(dataset, large_s=large_s, scale=FIG_SCALES[dataset]),
    )


def p_rows():
    return _memo(
        ("p",),
        lambda: vary_p("stack", scale=FIG_SCALES["stack"])
        + vary_p("stack", large_s=True, scale=FIG_SCALES["stack"]),
    )


def q_rows():
    return _memo(
        ("q",),
        lambda: vary_q("stack", scale=FIG_SCALES["stack"])
        + vary_q("stack", large_s=True, scale=FIG_SCALES["stack"]),
    )


def preprocessing_rows():
    def build():
        rows = []
        for name in ("wiki", "english"):
            rows += preprocessing_ablation(name, large_s=False,
                                           scale=FIG_SCALES[name])
            rows += preprocessing_ablation(name, large_s=True,
                                           scale=FIG_SCALES[name])
        return rows

    return _memo(("preprocessing",), build)


def pruning_rows():
    def build():
        rows = []
        for name in ("wiki", "english"):
            rows += pruning_ablation(name, large_s=False,
                                     scale=FIG_SCALES[name])
            rows += pruning_ablation(name, large_s=True,
                                     scale=FIG_SCALES[name])
        return rows

    return _memo(("pruning",), build)


def fig29_rows():
    return _memo(("fig29",), lambda: figure29(node_budget=15000))


def fig30_payload(dataset):
    return _memo(
        ("fig30", dataset), lambda: figure30(dataset, node_budget=15000)
    )


def fig31_payload():
    return _memo(("fig31",), lambda: figure31(node_budget=15000))


def fig32_rows():
    return _memo(("fig32",), lambda: figure32(node_budget=15000))


def median_times(dataset, points, rows, repeats=5, variants=None):
    """Median ``elapsed`` of each ``(method, d, s, k)`` search, re-timed.

    A sweep times every search once, and one slow stretch of a busy host
    can push a single point past a timing floor.  A floor therefore
    asserts on medians of ``repeats`` samples: a point's time in the
    sweep's ``rows`` is its first sample, and the rest come from
    re-running only the searches the floor compares, in round-robin
    order on the sweep's own (memoised, already frozen) graph, so a
    slow stretch hits every point alike.  Like the sweep's rows, each
    re-run searches that graph with an empty memo, so every sample pays
    its own layer peels, vertex deletion and d-CC peels instead of
    reading what an earlier search kept.

    ``variants`` maps an ablation's variant names to their search
    options; a point is then ``(method, d, s, k, variant)``, its first
    sample is the row of that variant, and its re-runs pass the options.
    """
    graph = load(dataset, scale=FIG_SCALES[dataset]).graph
    samples = {point: [] for point in points}
    for row in rows:
        point = (row["algorithm"], row["d"], row["s"], row["k"])
        if variants is not None:
            point += (row["variant"],)
        if row["dataset"] == dataset and point in samples:
            samples[point].append(row["time_s"])
    frozen = graph.freeze()
    for _ in range(repeats):
        for point in points:
            if len(samples[point]) < repeats:
                method, d, s, k = point[:4]
                options = {} if variants is None else variants[point[4]]
                samples[point].append(search_dccs(
                    frozen.with_empty_memo(), d, s, k, method=method,
                    seed=0, **options).elapsed)
    return {point: statistics.median(times)
            for point, times in samples.items()}


def sample_medians(parameter, rows, methods, values, repeats=3):
    """Median ``elapsed`` of each ``(method, value)`` point of Fig. 26/27.

    Those sweeps search subgraphs of Stack sampled by a vertex fraction
    (``parameter="p"``) or a layer fraction (``"q"``).  As in
    :func:`median_times`, a point's time in the sweep's ``rows`` is its
    first sample; the rest re-run only the compared searches, round
    robin, on the same sampled subgraphs, rebuilt by the sweep's own
    sampler and frozen before any timer starts, and each re-run searches
    a subgraph with an empty memo.  ``rows`` hold one row per
    ``(algorithm, value)``.
    """
    sampler = p_subgraphs if parameter == "p" else q_subgraphs
    stack = load("stack", scale=FIG_SCALES["stack"]).graph
    graphs = dict(sampler(stack, RANGES[parameter], 0, "stack"))
    points = [(method, value) for method in methods for value in values]
    samples = {point: [] for point in points}
    params = {}
    for row in rows:
        point = (row["algorithm"], row[parameter])
        if point in samples:
            samples[point].append(row["time_s"])
            params[point] = (row["d"], row["s"], row["k"])
    frozen = {value: graphs[value].freeze() for value in values}
    for _ in range(repeats):
        for point in points:
            if len(samples[point]) < repeats:
                method, value = point
                samples[point].append(search_dccs(
                    frozen[value].with_empty_memo(), *params[point],
                    method=method, seed=0).elapsed)
    return {point: statistics.median(times)
            for point, times in samples.items()}


def series_lines(rows, x, y):
    """Per-algorithm ``{x: y}`` mapping for assertions on sweep shapes."""
    lines = {}
    for row in rows:
        lines.setdefault(row["algorithm"], {})[row[x]] = row[y]
    return lines
