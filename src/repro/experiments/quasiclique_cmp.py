"""Comparison with quasi-clique mining: Figs. 29, 30, 31 and 32.

The paper runs MiMAG [4] and BU-DCCS on the two small datasets (PPI,
Author) with γ = 0.8, ``s = l/2``, ``k = 10`` and ``d' = d + 1``, then
reports execution time, result sizes, precision/recall/F1 of the covers
(Fig. 29), the distribution of how much of each quasi-clique the d-CC
cover contains (Fig. 30), the three-way cover difference (Fig. 31) and
protein-complex recovery on PPI (Fig. 32).
"""

from repro.baselines.mimag import mimag
from repro.core.api import search_dccs
from repro.datasets import load
from repro.metrics.complexes import complex_recovery_rate
from repro.metrics.containment import (
    class_densities,
    containment_distribution,
    cover_difference_classes,
    fully_contained_fraction,
)
from repro.metrics.cover import f1_score, precision, recall

GAMMA = 0.8


def _paper_setting(graph, d):
    """γ = 0.8, s = l/2, k = 10, d' = d + 1 (Section VI)."""
    return {
        "gamma": GAMMA,
        "s": max(1, graph.num_layers // 2),
        "k": 10,
        "min_size": d + 1,
    }


def compare_mimag(dataset_name, d, scale=1.0, seed=0, node_budget=20000):
    """One Fig. 29 block: MiMAG vs BU-DCCS on one dataset at one ``d``.

    Returns a dict with both algorithms' time, result size and the
    precision/recall/F1 between the covers, and the ``s`` and ``k`` BU ran
    with; the raw results ride along for the Fig. 30/31 post-processing.
    """
    dataset = load(dataset_name, scale=scale, seed=seed)
    graph = dataset.graph
    setting = _paper_setting(graph, d)

    quasi = mimag(
        graph,
        gamma=setting["gamma"],
        min_size=setting["min_size"],
        min_support=setting["s"],
        node_budget=node_budget,
    )
    dcc = search_dccs(
        graph, d, setting["s"], setting["k"], method="bottom-up"
    )
    row = {
        "dataset": dataset_name,
        "d": d,
        "s": setting["s"],
        "k": setting["k"],
        "mimag_time_s": quasi.elapsed,
        "bu_time_s": dcc.elapsed,
        "mimag_size": quasi.cover_size,
        "bu_size": dcc.cover_size,
        "precision": precision(quasi.clusters, dcc.sets),
        "recall": recall(quasi.clusters, dcc.sets),
        "f1": f1_score(quasi.clusters, dcc.sets),
        "mimag_truncated": quasi.truncated,
    }
    return row, quasi, dcc


def figure29(dataset_names=("ppi", "author"), d_values=(2, 3, 4),
             scale=1.0, seed=0, node_budget=20000):
    """The full Fig. 29 table."""
    rows = []
    for name in dataset_names:
        for d in d_values:
            row, _, _ = compare_mimag(
                name, d, scale=scale, seed=seed, node_budget=node_budget
            )
            rows.append(row)
    return rows


def figure30(dataset_name, d=3, sizes=(3, 4, 5), scale=1.0, seed=0,
             node_budget=20000):
    """Fig. 30: distribution of ``|Q ∩ Cov(R_C)|`` by quasi-clique size.

    Quasi-cliques of other sizes are ignored, exactly as the paper's table
    only lists |Q| ∈ {3, 4, 5}.
    """
    _, quasi, dcc = compare_mimag(
        dataset_name, d, scale=scale, seed=seed, node_budget=node_budget
    )
    relevant = [q for q in quasi.all_maximal if len(q) in sizes]
    distribution = containment_distribution(relevant, dcc.cover)
    return {
        "dataset": dataset_name,
        "d": d,
        "distribution": distribution,
        "fully_contained": fully_contained_fraction(relevant, dcc.cover),
    }


def figure31(dataset_name="author", d=3, scale=1.0, seed=0,
             node_budget=20000):
    """Fig. 31: the red/green/blue cover-difference classes, quantified.

    The paper shows a drawing; the reproducible content is (a) the three
    vertex classes and (b) the qualitative density claims, which
    :func:`repro.metrics.containment.class_densities` turns into numbers.
    """
    _, quasi, dcc = compare_mimag(
        dataset_name, d, scale=scale, seed=seed, node_budget=node_budget
    )
    both, only_dcc, only_quasi = cover_difference_classes(
        dcc.cover, quasi.cover
    )
    dataset = load(dataset_name, scale=scale, seed=seed)
    densities = class_densities(dataset.graph, dcc.cover, quasi.cover)
    return {
        "dataset": dataset_name,
        "d": d,
        "both": len(both),
        "only_dcc": len(only_dcc),
        "only_quasi": len(only_quasi),
        "densities": densities,
    }


def figure32(d_values=(2, 3, 4), scale=1.0, seed=0, node_budget=20000):
    """Fig. 32: protein-complex recovery on the PPI stand-in.

    Ground truth is the planted complexes of the dataset (the MIPS
    substitution in "Substitutions" of docs/experiments.md).  Returns one row per ``d`` with the
    recovery rates of both algorithms.
    """
    rows = []
    dataset = load("ppi", scale=scale, seed=seed)
    for d in d_values:
        row, quasi, dcc = compare_mimag(
            "ppi", d, scale=scale, seed=seed, node_budget=node_budget
        )
        rows.append({
            "d": d,
            "mimag_recovery": complex_recovery_rate(
                dataset.complexes, quasi.clusters
            ),
            "bu_recovery": complex_recovery_rate(
                dataset.complexes, dcc.sets
            ),
            "complexes": len(dataset.complexes),
        })
    return rows
