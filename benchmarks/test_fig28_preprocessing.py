"""Fig. 28 — effects of the preprocessing methods (No-VD/No-SL/No-IR/No-Pre).

Paper claim: every preprocessing method improves BU-DCCS (small s) and
TD-DCCS (large s); disabling all of them is the slowest configuration.
"""

from repro.experiments import format_table
from repro.experiments.ablation import PREPROCESS_VARIANTS

from benchmarks._shared import median_times, preprocessing_rows, record


def test_fig28_preprocessing_ablation(benchmark):
    rows = benchmark.pedantic(preprocessing_rows, rounds=1, iterations=1)
    text = format_table(
        rows,
        ["dataset", "method", "s", "variant", "time_s", "cover",
         "dcc_calls"],
        title="Fig. 28 — preprocessing ablation",
    )
    record("fig28_preprocessing", text)

    # Full preprocessing should not lose to the all-off variant on the
    # sum over datasets/regimes (individual points can be noisy), on
    # medians of five.  Every sample searches a graph with an empty
    # memo, so each variant pays its own layer peels and vertex
    # deletion rather than reading what an earlier search kept.
    totals = {"full": 0.0, "No-Pre": 0.0}
    for name in ("wiki", "english"):
        regimes = sorted({(r["algorithm"], r["d"], r["s"], r["k"])
                          for r in rows if r["dataset"] == name})
        points = [regime + (variant,) for regime in regimes
                  for variant in totals]
        times = median_times(name, points, rows,
                             variants=PREPROCESS_VARIANTS)
        for point, median in times.items():
            totals[point[4]] += median
    assert totals["full"] < totals["No-Pre"]
