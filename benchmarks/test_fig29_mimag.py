"""Fig. 29 — MiMAG vs BU-DCCS on PPI and Author.

Paper claims: (1) BU-DCCS is much faster than MiMAG (its search tree has
2^l nodes, MiMAG's 2^|V|); (2) the covers overlap strongly (P/R/F1 high);
(3) BU-DCCS covers more vertices.

The speed floor compares BU's median of three (the sweep's time plus
two re-runs on the dataset's frozen graph) with MiMAG's one sample,
which takes seconds a run.
"""

from repro.experiments import format_table

from benchmarks._shared import fig29_rows, median_times, record


def bu_medians(rows):
    """``{(dataset, d): BU's median time}`` over the Fig. 29 rows."""
    medians = {}
    for dataset in sorted({row["dataset"] for row in rows}):
        timed = [dict(row, algorithm="bottom-up", time_s=row["bu_time_s"])
                 for row in rows if row["dataset"] == dataset]
        points = [("bottom-up", row["d"], row["s"], row["k"])
                  for row in timed]
        for (_, d, _, _), time_s in median_times(dataset, points, timed,
                                                 repeats=3).items():
            medians[dataset, d] = time_s
    return medians


def test_fig29_mimag_vs_bu(benchmark):
    rows = benchmark.pedantic(fig29_rows, rounds=1, iterations=1)
    text = format_table(
        rows,
        ["dataset", "d", "mimag_time_s", "bu_time_s", "mimag_size",
         "bu_size", "precision", "recall", "f1", "mimag_truncated"],
        title="Fig. 29 — MiMAG vs BU-DCCS",
    )
    record("fig29_mimag", text)

    bu_times = bu_medians(rows)
    for row in rows:
        assert bu_times[row["dataset"], row["d"]] < row["mimag_time_s"]
        assert row["bu_size"] >= 0.5 * row["mimag_size"]
        assert row["recall"] >= 0.5
        assert row["f1"] > 0.5
