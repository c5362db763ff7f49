"""Experiment configuration (the paper's Fig. 13 parameter table).

``DEFAULTS`` and ``RANGES`` transcribe Fig. 13 verbatim.  ``BENCH_SCALE``
sets the per-dataset stand-in scale used by the benchmark harness: the
paper's graphs have up to 2.6M vertices and a C++ implementation; the
stand-ins are sized so a full pure-Python sweep of every figure finishes
in minutes while preserving every relative comparison (see
"Substitutions" in docs/experiments.md).
"""

DEFAULTS = {
    "k": 10,
    "d": 4,
    "s_small": 3,
    # s_large is relative to the layer count: l(G) - 2.
    "s_large_offset": 2,
    "p": 1.0,
    "q": 1.0,
}

RANGES = {
    "k": (5, 10, 15, 20, 25),
    "d": (2, 3, 4, 5, 6),
    "s_small": (1, 2, 3, 4, 5),
    # s_large values are l(G) - offset for offset in 4..0.
    "s_large_offsets": (4, 3, 2, 1, 0),
    "p": (0.2, 0.4, 0.6, 0.8, 1.0),
    "q": (0.2, 0.4, 0.6, 0.8, 1.0),
}

# Stand-in scale per dataset for benchmarks (1.0 = the registry size).
BENCH_SCALE = {
    "ppi": 1.0,
    "author": 1.0,
    "german": 0.5,
    "wiki": 0.4,
    "english": 0.5,
    "stack": 0.35,
}


def s_large(num_layers, offset=None):
    """The paper's large-s default ``l(G) - 2`` (or another offset)."""
    if offset is None:
        offset = DEFAULTS["s_large_offset"]
    return max(1, num_layers - offset)


def s_large_values(num_layers):
    """The Fig. 13 large-s range ``{l-4, ..., l}`` clamped to valid values."""
    return tuple(
        max(1, num_layers - offset) for offset in RANGES["s_large_offsets"]
    )
