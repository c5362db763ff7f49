"""The six stand-in datasets of the paper's Fig. 12, by name.

Every loader takes ``scale`` (vertex-count multiplier, default 1.0) and
``seed``; results are memoised per ``(name, scale, seed)`` because the
experiment harness loads the same dataset for many parameter points.

Scale note: the paper's large datasets have 0.5M–2.6M vertices.  The
stand-ins keep the *relative* ordering (Stack largest, PPI smallest), the
exact layer counts, and the community structure, at sizes a pure-Python
sweep can handle; absolute runtimes are therefore not comparable to the
paper's C++ numbers, but every relative claim is (see "Substitutions"
in docs/experiments.md).
"""

from repro.datasets.synthetic import build_standin
from repro.utils.errors import ParameterError

_CACHE = {}

# name: (vertices, layers, communities, size range, span choices,
#        background degree, plant complexes)
_SPECS = {
    # PPI: 8 detection-method layers; small; carries planted complexes.
    "ppi": (328, 8, 14, (8, 24), (2, 3, 4, 6, 8), 1.5, True),
    # Author: 10 yearly collaboration layers.
    "author": (1017, 10, 20, (10, 30), (2, 3, 5, 8, 10), 1.5, False),
    # German (Wikipedia talk): 14 yearly layers.
    "german": (1800, 14, 24, (20, 45), (2, 3, 4, 10, 12, 14), 2.0, False),
    # Wiki (edit co-activity): 24 hourly layers.
    "wiki": (2400, 24, 30, (20, 50), (2, 3, 4, 5, 18, 22, 24), 2.0, False),
    # English (Wikipedia talk): 15 yearly layers.
    "english": (2100, 15, 26, (20, 45), (2, 3, 4, 5, 11, 13, 15), 2.0, False),
    # Stack (Stack Exchange interactions): 24 hourly layers; the largest.
    "stack": (3000, 24, 36, (20, 55), (2, 3, 4, 5, 18, 22, 24), 2.0, False),
}

DATASET_NAMES = tuple(_SPECS)

# The paper's Fig. 12 statistics, for side-by-side provenance tables.
PAPER_STATISTICS = {
    "ppi": {"vertices": 328, "total_edges": 4745, "union_edges": 3101, "layers": 8},
    "author": {"vertices": 1017, "total_edges": 15065, "union_edges": 11069, "layers": 10},
    "german": {"vertices": 519365, "total_edges": 7205624, "union_edges": 1653621, "layers": 14},
    "wiki": {"vertices": 1140149, "total_edges": 7833140, "union_edges": 3309592, "layers": 24},
    "english": {"vertices": 1749651, "total_edges": 18951428, "union_edges": 5956877, "layers": 15},
    "stack": {"vertices": 2601977, "total_edges": 63497050, "union_edges": 36233450, "layers": 24},
}


def load(name, scale=1.0, seed=0):
    """Load (and memoise) a stand-in dataset by name.

    ``scale`` multiplies the vertex count and the community count, which
    is how the Fig. 26 vertex-fraction experiment and the fast test suite
    shrink the graphs.
    """
    if name not in _SPECS:
        raise ParameterError(
            "unknown dataset {!r}; choose from {}".format(name, DATASET_NAMES)
        )
    if scale <= 0:
        raise ParameterError("scale must be positive, got {}".format(scale))
    key = (name, round(scale, 6), seed)
    if key not in _CACHE:
        (vertices, layers, communities, size_range,
         spans, background, complexes) = _SPECS[name]
        scaled_vertices = max(size_range[1] + 1, int(vertices * scale))
        scaled_communities = max(2, int(communities * scale))
        _CACHE[key] = build_standin(
            name,
            num_vertices=scaled_vertices,
            num_layers=layers,
            num_communities=scaled_communities,
            size_range=size_range,
            span_choices=spans,
            background_degree=background,
            plant_complexes=complexes,
            seed=seed,
        )
    return _CACHE[key]


def clear_cache():
    """Drop every memoised dataset (tests use this to bound memory)."""
    _CACHE.clear()


def dataset_statistics(names=DATASET_NAMES, scale=1.0, seed=0):
    """Fig. 12 rows for the stand-ins, paired with the paper's originals."""
    rows = []
    for name in names:
        dataset = load(name, scale=scale, seed=seed)
        row = dataset.summary()
        row["paper"] = PAPER_STATISTICS[name]
        rows.append(row)
    return rows
