"""Fig. 23 — execution time vs k at large s (GD vs TD on Wiki, English)."""

from repro.experiments import format_series

from benchmarks._shared import k_rows, median_times, record


def test_fig23_time_vs_k_large_s(benchmark):
    rows = benchmark.pedantic(
        lambda: k_rows("wiki", True) + k_rows("english", True),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        format_series(
            [row for row in rows if row["dataset"] == name],
            "k", "time_s",
            title="Fig. 23({}) — time vs k (large s) on {}".format(tag, name),
        )
        for tag, name in (("a", "wiki"), ("b", "english"))
    )
    record("fig23_time_k_large_s", text)

    for name in ("wiki", "english"):
        # Both floors assert on medians of five: the sweep's own time
        # and four re-timings.
        times = median_times(name, [
            (row["algorithm"], row["d"], row["s"], row["k"])
            for row in rows if row["dataset"] == name
        ], rows)
        # Paper observation 3: the search algorithms are insensitive to k
        # (their pruning depends on |Cov(R)|, which saturates).
        td_times = [time for point, time in times.items()
                    if point[0] == "top-down"]
        assert max(td_times) < 2.5 * min(td_times)
        # TD stays within a small constant of GD at s = l - 2, where the
        # candidate family is tiny at stand-in scale (see "Substitutions"
        # in docs/experiments.md).
        totals = {method: sum(time for point, time in times.items()
                              if point[0] == method)
                  for method in ("top-down", "greedy")}
        assert totals["top-down"] < 6.0 * totals["greedy"]
