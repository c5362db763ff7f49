"""Fig. 19 — execution time vs d at large s (GD vs TD on German, English)."""

from repro.experiments import format_series

from benchmarks._shared import d_rows, median_times, record, series_lines


def test_fig19_time_vs_d_large_s(benchmark):
    rows = benchmark.pedantic(
        lambda: d_rows("german", True) + d_rows("english", True),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        format_series(
            [row for row in rows if row["dataset"] == name],
            "d", "time_s",
            title="Fig. 19({}) — time vs d (large s) on {}".format(tag, name),
        )
        for tag, name in (("a", "german"), ("b", "english"))
    )
    record("fig19_time_d_large_s", text)

    for name in ("german", "english"):
        lines = series_lines(
            [row for row in rows if row["dataset"] == name], "d", "time_s"
        )
        # At s = l - 2 the candidate family is only binom(l, 2), so at
        # stand-in scale GD's per-candidate cost no longer dominates and
        # TD's fixed index cost shows (see EXPERIMENTS.md); the robust
        # claims here are the d-trend and that TD stays competitive.
        td_total = sum(lines["top-down"].values())
        gd_total = sum(lines["greedy"].values())
        assert td_total < 3.0 * gd_total
        # Time at d = 6 does not exceed time at d = 2 by much for TD
        # (cores shrink with d); on medians of re-timed searches.
        (row,) = [row for row in rows if row["dataset"] == name
                  and row["algorithm"] == "top-down" and row["d"] == 2]
        times = median_times(name, [("top-down", d, row["s"], row["k"])
                                    for d in (2, 6)])
        low, high = (times[("top-down", d, row["s"], row["k"])]
                     for d in (2, 6))
        assert high < 1.5 * low
