"""Fig. 18 — execution time vs d at small s (GD vs BU on German, English).

Paper claim: time decreases as ``d`` grows (cores shrink — Property 2),
and BU-DCCS stays faster than GD-DCCS.
"""

from repro.experiments import format_series

from benchmarks._shared import d_rows, median_times, record


def test_fig18_time_vs_d_small_s(benchmark):
    rows = benchmark.pedantic(
        lambda: d_rows("german", False) + d_rows("english", False),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        format_series(
            [row for row in rows if row["dataset"] == name],
            "d", "time_s",
            title="Fig. 18({}) — time vs d (small s) on {}".format(tag, name),
        )
        for tag, name in (("a", "german"), ("b", "english"))
    )
    record("fig18_time_d_small_s", text)

    for name in ("german", "english"):
        # Both floors assert on medians of three: the sweep's own time
        # and two re-timings.
        times = median_times(name, [
            (row["algorithm"], row["d"], row["s"], row["k"])
            for row in rows if row["dataset"] == name
        ], rows, repeats=3)
        by_d = {(point[0], point[1]): time for point, time in times.items()}
        # Cheaper at d = 6 than d = 2 for the exhaustive greedy.
        assert by_d["greedy", 6] < by_d["greedy", 2]
        # BU faster than greedy at every d.
        for (method, d), elapsed in by_d.items():
            if method == "bottom-up":
                assert elapsed < by_d["greedy", d]
