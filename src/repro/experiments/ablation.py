"""Preprocessing and pruning ablations (Fig. 28 and the extra Fig. 28b).

The paper's Fig. 28 disables each preprocessing method of Section IV-C in
turn — No-VD (vertex deletion), No-SL (sorting layers), No-IR (result
initialisation) and No-Pre (all three) — and compares BU-DCCS at small
``s`` and TD-DCCS at large ``s``.  This module also provides the
ablations of the pruning lemmas themselves (order-based pruning, the
potential-set shortcut) and of the RefineC index that Fig. 28b of
docs/experiments.md reports.
"""

from repro.core.api import search_dccs
from repro.datasets import load
from repro.experiments.config import BENCH_SCALE, DEFAULTS, s_large
from repro.experiments.runner import result_row

PREPROCESS_VARIANTS = {
    "full": {},
    "No-SL": {"use_layer_sorting": False},
    "No-IR": {"use_init_topk": False},
    "No-VD": {"use_vertex_deletion": False},
    "No-Pre": {
        "use_vertex_deletion": False,
        "use_layer_sorting": False,
        "use_init_topk": False,
    },
}

PRUNING_VARIANTS_BU = {
    "full": {},
    "No-OrderPrune": {"use_order_pruning": False},
    "No-LayerPrune": {"use_layer_pruning": False},
}

PRUNING_VARIANTS_TD = {
    "full": {},
    "No-OrderPrune": {"use_order_pruning": False},
    "No-PotentialPrune": {"use_potential_pruning": False},
    "No-Index": {"use_index": False},
}


def _run_variants(graph, method, s, variants, seed=0, k=None, d=None):
    rows = []
    for variant, options in variants.items():
        result = search_dccs(
            graph,
            DEFAULTS["d"] if d is None else d,
            s,
            DEFAULTS["k"] if k is None else k,
            method=method,
            seed=seed,
            **options
        )
        row = result_row(result, variant=variant, s=s)
        rows.append(row)
    return rows


def preprocessing_ablation(dataset_name, large_s=False, scale=None, seed=0):
    """Fig. 28: BU at small ``s`` (a) or TD at large ``s`` (b)."""
    dataset = load(
        dataset_name,
        scale=BENCH_SCALE.get(dataset_name, 1.0) if scale is None else scale,
        seed=seed,
    )
    if large_s:
        method = "top-down"
        s = s_large(dataset.graph.num_layers)
    else:
        method = "bottom-up"
        s = DEFAULTS["s_small"]
    rows = _run_variants(dataset.graph, method, s, PREPROCESS_VARIANTS,
                         seed=seed)
    for row in rows:
        row["dataset"] = dataset_name
        row["method"] = method
    return rows


def pruning_ablation(dataset_name, large_s=False, scale=None, seed=0):
    """Extra ablation: switch the pruning lemmas / index off one by one."""
    dataset = load(
        dataset_name,
        scale=BENCH_SCALE.get(dataset_name, 1.0) if scale is None else scale,
        seed=seed,
    )
    if large_s:
        method = "top-down"
        s = s_large(dataset.graph.num_layers)
        variants = PRUNING_VARIANTS_TD
    else:
        method = "bottom-up"
        s = DEFAULTS["s_small"]
        variants = PRUNING_VARIANTS_BU
    rows = _run_variants(dataset.graph, method, s, variants, seed=seed)
    for row in rows:
        row["dataset"] = dataset_name
        row["method"] = method
    return rows


def search_space_reduction(dataset_name, s=None, scale=None, seed=0):
    """The Section IV claim: BU prunes 80–90 % of GD's candidate space.

    Returns the candidate d-CCs examined by GD and BU at the same
    parameter point and the reduction fraction.
    """
    dataset = load(
        dataset_name,
        scale=BENCH_SCALE.get(dataset_name, 1.0) if scale is None else scale,
        seed=seed,
    )
    if s is None:
        s = DEFAULTS["s_small"]
    greedy = search_dccs(dataset.graph, DEFAULTS["d"], s, DEFAULTS["k"],
                         method="greedy")
    bottom_up = search_dccs(dataset.graph, DEFAULTS["d"], s, DEFAULTS["k"],
                            method="bottom-up")
    # d-CC computations are the unit of search effort: GD performs one per
    # layer subset, BU one per surviving tree node (plus shared
    # preprocessing/seeding, identical on both sides).
    examined_gd = greedy.stats.dcc_calls
    examined_bu = bottom_up.stats.dcc_calls
    return {
        "dataset": dataset_name,
        "s": s,
        "gd_candidates": examined_gd,
        "bu_candidates": examined_bu,
        "reduction": 1.0 - (examined_bu / examined_gd) if examined_gd else 0.0,
        "gd_cover": greedy.cover_size,
        "bu_cover": bottom_up.cover_size,
    }
