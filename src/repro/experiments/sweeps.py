"""Parameter-sweep experiments: Figs. 14–27.

One function per paper figure.  Each returns a list of row dicts that
:mod:`repro.experiments.tables` renders in the paper's layout; the
benchmark modules under ``benchmarks/`` call the same functions, so the
printed bench output *is* the figure reproduction.

Figure map
----------
* Figs. 14/16 — time / cover vs small ``s`` (GD vs BU);
* Figs. 15/17 — time / cover vs large ``s`` (GD vs BU vs TD);
* Figs. 18/20 — time / cover vs ``d`` at small ``s`` (GD vs BU);
* Figs. 19/21 — time / cover vs ``d`` at large ``s`` (GD vs TD);
* Figs. 22/24 — time / cover vs ``k`` at small ``s`` (GD vs BU);
* Figs. 23/25 — time / cover vs ``k`` at large ``s`` (GD vs TD);
* Fig. 26 — time vs vertex fraction ``p`` (all three);
* Fig. 27 — time vs layer fraction ``q`` (all three).
"""

from repro.datasets import load
from repro.experiments.config import BENCH_SCALE, DEFAULTS, RANGES, s_large
from repro.experiments.runner import sweep
from repro.utils.rng import make_rng


def _dataset(name, scale=None, seed=0):
    if scale is None:
        scale = BENCH_SCALE.get(name, 1.0)
    return load(name, scale=scale, seed=seed)


def _base(graph, s=None):
    return {
        "d": DEFAULTS["d"],
        "s": DEFAULTS["s_small"] if s is None else s,
        "k": DEFAULTS["k"],
    }


def vary_small_s(dataset_name, methods=("greedy", "bottom-up"),
                 s_values=None, scale=None, seed=0, host=None):
    """Figs. 14 and 16: sweep the small-s range on one dataset.

    ``host`` reuses a caller-owned :class:`repro.host.DCCHost` across
    dataset rows — the graph is attached under ``dataset_name`` and its
    engine session survives for the next figure over the same dataset.
    """
    dataset = _dataset(dataset_name, scale, seed)
    values = RANGES["s_small"] if s_values is None else s_values
    rows = sweep(dataset.graph, "s", values, _base(dataset.graph),
                 methods, seed=seed, host=host, graph_name=dataset_name)
    for row in rows:
        row["dataset"] = dataset_name
    return rows


def vary_large_s(dataset_name, methods=("greedy", "bottom-up", "top-down"),
                 s_values=None, scale=None, seed=0, host=None):
    """Figs. 15 and 17: sweep the large-s range on one dataset."""
    dataset = _dataset(dataset_name, scale, seed)
    num_layers = dataset.graph.num_layers
    if s_values is None:
        s_values = tuple(
            max(1, num_layers - offset)
            for offset in RANGES["s_large_offsets"]
        )
    rows = sweep(dataset.graph, "s", s_values, _base(dataset.graph),
                 methods, seed=seed, host=host, graph_name=dataset_name)
    for row in rows:
        row["dataset"] = dataset_name
    return rows


def vary_d(dataset_name, large_s=False, d_values=None, methods=None,
           scale=None, seed=0, host=None):
    """Figs. 18–21: sweep ``d`` at small or large ``s``.

    The paper pairs GD with BU at small ``s`` (Figs. 18/20) and GD with TD
    at large ``s`` (Figs. 19/21).
    """
    dataset = _dataset(dataset_name, scale, seed)
    if methods is None:
        methods = ("greedy", "top-down") if large_s else ("greedy", "bottom-up")
    s = s_large(dataset.graph.num_layers) if large_s \
        else DEFAULTS["s_small"]
    values = RANGES["d"] if d_values is None else d_values
    rows = sweep(dataset.graph, "d", values, _base(dataset.graph, s=s),
                 methods, seed=seed, host=host, graph_name=dataset_name)
    for row in rows:
        row["dataset"] = dataset_name
        row["s"] = s
    return rows


def vary_k(dataset_name, large_s=False, k_values=None, methods=None,
           scale=None, seed=0, host=None):
    """Figs. 22–25: sweep ``k`` at small or large ``s``."""
    dataset = _dataset(dataset_name, scale, seed)
    if methods is None:
        methods = ("greedy", "top-down") if large_s else ("greedy", "bottom-up")
    s = s_large(dataset.graph.num_layers) if large_s \
        else DEFAULTS["s_small"]
    values = RANGES["k"] if k_values is None else k_values
    rows = sweep(dataset.graph, "k", values, _base(dataset.graph, s=s),
                 methods, seed=seed, host=host, graph_name=dataset_name)
    for row in rows:
        row["dataset"] = dataset_name
        row["s"] = s
    return rows


def vary_p(dataset_name="stack", p_values=None, large_s=False,
           methods=None, scale=None, seed=0):
    """Fig. 26: scalability in the vertex fraction ``p``.

    A fraction ``p`` of vertices is sampled uniformly and the induced
    multi-layer subgraph searched; the paper runs this on its largest
    dataset (Stack) and observes near-linear growth.

    The backend is pinned to ``"frozen"`` for every sample point: the
    sweep compares *sizes*, and letting ``backend="auto"`` flip small
    samples to the dict representation would
    fold a representation switch into the scaling curve.
    """
    dataset = _dataset(dataset_name, scale, seed)
    if methods is None:
        methods = ("top-down",) if large_s else ("greedy", "bottom-up")
    s = s_large(dataset.graph.num_layers) if large_s \
        else DEFAULTS["s_small"]
    values = RANGES["p"] if p_values is None else p_values
    rng = make_rng(seed)
    vertices = sorted(dataset.graph.vertices())
    rows = []
    for p in values:
        count = max(1, int(len(vertices) * p))
        sample = set(rng.sample(vertices, count))
        graph = dataset.graph.induced_subgraph(
            sample, name="{}-p{}".format(dataset_name, p)
        )
        for row in sweep(graph, "p", (p,), _base(graph, s=s),
                         methods, backend="frozen", seed=seed):
            row["dataset"] = dataset_name
            row["s"] = s
            rows.append(row)
    return rows


def vary_q(dataset_name="stack", q_values=None, large_s=False,
           methods=None, scale=None, seed=0):
    """Fig. 27: scalability in the layer fraction ``q``.

    A fraction ``q`` of layers is sampled; ``s`` is clamped to stay valid
    on the reduced layer count.  The backend is pinned to ``"frozen"``
    for the same reason as :func:`vary_p`.
    """
    dataset = _dataset(dataset_name, scale, seed)
    if methods is None:
        methods = ("top-down",) if large_s else ("greedy", "bottom-up")
    values = RANGES["q"] if q_values is None else q_values
    rng = make_rng(seed)
    num_layers = dataset.graph.num_layers
    rows = []
    for q in values:
        count = max(1, int(num_layers * q))
        layer_ids = sorted(rng.sample(range(num_layers), count))
        graph = dataset.graph.subgraph_of_layers(
            layer_ids, name="{}-q{}".format(dataset_name, q)
        )
        s = s_large(graph.num_layers) if large_s else \
            min(DEFAULTS["s_small"], graph.num_layers)
        for row in sweep(graph, "q", (q,), _base(graph, s=s),
                         methods, backend="frozen", seed=seed):
            row["dataset"] = dataset_name
            row["s"] = s
            rows.append(row)
    return rows
