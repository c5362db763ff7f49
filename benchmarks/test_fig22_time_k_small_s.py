"""Fig. 22 — execution time vs k at small s (GD vs BU on Wiki, English).

Paper claims: GD's time grows with ``k`` (selection is proportional to
``k``); BU stays faster and roughly insensitive to ``k``.
"""

from repro.experiments import format_series

from benchmarks._shared import k_rows, median_times, record


def test_fig22_time_vs_k_small_s(benchmark):
    rows = benchmark.pedantic(
        lambda: k_rows("wiki", False) + k_rows("english", False),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        format_series(
            [row for row in rows if row["dataset"] == name],
            "k", "time_s",
            title="Fig. 22({}) — time vs k (small s) on {}".format(tag, name),
        )
        for tag, name in (("a", "wiki"), ("b", "english"))
    )
    record("fig22_time_k_small_s", text)

    for name in ("wiki", "english"):
        # BU faster than greedy at every k, on medians of three: the
        # sweep's own time and two re-timings.
        times = median_times(name, [
            (row["algorithm"], row["d"], row["s"], row["k"])
            for row in rows if row["dataset"] == name
        ], rows, repeats=3)
        by_k = {(point[0], point[3]): time for point, time in times.items()}
        for (method, k), elapsed in by_k.items():
            if method == "bottom-up":
                assert elapsed < by_k["greedy", k]
