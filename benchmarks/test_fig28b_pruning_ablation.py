"""Extra ablation (Fig. 28b) — pruning lemmas and the RefineC index.

Not a paper figure (see docs/experiments.md): it ablates the order-based
pruning (Lemmas 3/6), the potential-set shortcut (Lemma 7) and the
hierarchical index, to show each design choice pulls its weight.
"""

from repro.experiments import format_table

from benchmarks._shared import pruning_rows, record


def test_pruning_ablation(benchmark):
    rows = benchmark.pedantic(pruning_rows, rounds=1, iterations=1)
    text = format_table(
        rows,
        ["dataset", "method", "s", "variant", "time_s", "cover",
         "dcc_calls", "pruned"],
        title="Extra ablation — pruning lemmas and index",
    )
    record("fig28b_pruning_ablation", text)

    # Order pruning must cut candidates relative to its ablation, in
    # total over the four dataset/regime combinations.
    full = sum(r["dcc_calls"] for r in rows if r["variant"] == "full")
    no_order = sum(
        r["dcc_calls"] for r in rows if r["variant"] == "No-OrderPrune"
    )
    assert full <= no_order
