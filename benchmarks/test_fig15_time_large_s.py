"""Fig. 15 — execution time vs large s (GD vs BU vs TD).

Paper claims: (1) time decreases as ``s`` approaches ``l``; (2) BU-DCCS
degrades for large ``s`` (sometimes worse than GD); (3) TD-DCCS is the
fastest in this regime.
"""

from repro.experiments import format_series

from benchmarks._shared import large_s_rows, median_times, record, series_lines


def test_fig15_time_vs_large_s(benchmark):
    rows = benchmark.pedantic(
        lambda: large_s_rows("english") + large_s_rows("stack"),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        format_series(
            [row for row in rows if row["dataset"] == name],
            "s", "time_s",
            title="Fig. 15({}) — time vs large s on {}".format(tag, name),
        )
        for tag, name in (("a", "english"), ("b", "stack"))
    )
    record("fig15_time_large_s", text)

    for name in ("english", "stack"):
        lines = series_lines(
            [row for row in rows if row["dataset"] == name], "s", "time_s"
        )
        s_values = sorted(lines["greedy"])
        first, last = s_values[0], s_values[-1]
        # Paper observation 1: time decreases as s grows towards l.
        assert lines["greedy"][last] < lines["greedy"][first]
        # Paper observation 3: TD-DCCS beats GD-DCCS decisively where the
        # candidate family is still large (the left edge, s = l - 4 — the
        # paper's "50X faster" point); on medians of re-timed searches.
        # Three runs each, not five: one greedy search on stack at
        # s = l - 4 takes seconds.
        (row,) = [row for row in rows if row["dataset"] == name
                  and row["algorithm"] == "top-down" and row["s"] == first]
        points = {method: (method, row["d"], first, row["k"])
                  for method in ("top-down", "greedy")}
        times = median_times(name, list(points.values()), repeats=3)
        assert times[points["top-down"]] < 0.5 * times[points["greedy"]]
        # Paper observation 2: BU loses its edge at the far right — at
        # s = l it is no longer meaningfully faster than greedy.
        assert lines["bottom-up"][last] > 0.5 * lines["greedy"][last]
