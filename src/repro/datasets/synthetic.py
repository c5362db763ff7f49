"""Construction of the synthetic stand-in datasets.

See "Substitutions" in docs/experiments.md: the paper's six real
datasets are not redistributable offline, so each is replaced by a
planted-community multi-layer graph with the same layer count and
qualitatively the same structure, at a scale a Python implementation
can sweep.  The
construction below controls the features the DCCS algorithms actually
react to:

* communities recur on layer subsets of varying width (so both the
  small-``s`` and the large-``s`` experiments have signal);
* communities overlap in membership (diversification pressure);
* a sparse Erdős–Rényi background supplies the noise vertices that the
  vertex-deletion preprocessing exists to remove.
"""

from array import array
from dataclasses import dataclass, field

import numpy as _np

from repro.graph.generators import planted_communities
from repro.graph.kernels import _distinct
from repro.utils.errors import ParameterError
from repro.utils.rng import make_rng


@dataclass
class Dataset:
    """A named multi-layer graph plus its planted ground truth.

    Attributes
    ----------
    name:
        Dataset key (``"ppi"``, ``"author"``, ...).
    graph:
        The :class:`~repro.graph.multilayer.MultiLayerGraph`.
    communities:
        The planted community member sets (frozensets) — ground truth for
        recovery metrics.
    complexes:
        Smaller planted "protein complexes" nested inside communities
        (only non-empty for the PPI stand-in); ground truth for Fig. 32.
    params:
        The generation parameters, for provenance in experiment reports.
    """

    name: str
    graph: object
    communities: list
    complexes: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def summary(self):
        """The Fig. 12 statistics row for this dataset."""
        row = self.graph.summary()
        row["name"] = self.name
        row["communities"] = len(self.communities)
        return row

    def frozen_graph(self):
        """The graph in its frozen CSR representation.

        Datasets are memoised by the registry and their graphs never
        mutate, so the freeze (also cached, on the graph itself) is paid
        at most once per ``(name, scale, seed)``.  Ground-truth sets in
        :attr:`communities`/:attr:`complexes` keep original labels —
        translate ids with ``frozen_graph().labels_for(...)`` before
        comparing against them.
        """
        return self.graph.freeze()


def build_standin(name, num_vertices, num_layers, num_communities,
                  size_range, span_choices, p_in=0.9,
                  background_degree=2.0, overlap=0.25,
                  plant_complexes=False, seed=0):
    """Build one stand-in dataset.

    Parameters
    ----------
    size_range:
        ``(lo, hi)`` community sizes, sampled uniformly.
    span_choices:
        Sequence of layer-span widths to sample from; e.g. for a 15-layer
        graph, ``(2, 3, 4, 12, 14)`` plants both narrow and broad
        communities.
    background_degree:
        Expected background degree per layer (converted to a G(n, p)
        probability).
    overlap:
        Fraction of each community's members drawn from previously used
        vertices, creating the overlapping covers diversification needs.
    plant_complexes:
        When true, dense sub-blocks ("protein complexes") are planted
        inside communities and returned as extra ground truth.
    """
    if num_vertices < size_range[1]:
        raise ParameterError("communities cannot be larger than the graph")
    rng = make_rng(seed)
    population = list(range(num_vertices))
    used = []
    specs = []
    complex_specs = []
    for _ in range(num_communities):
        size = rng.randint(size_range[0], size_range[1])
        members = set()
        # Draw a share of members from already-planted vertices so the
        # candidate d-CCs overlap, then fill up with fresh vertices.
        if used and overlap > 0:
            reuse = min(int(size * overlap), len(used))
            members.update(rng.sample(used, reuse))
        while len(members) < size:
            members.add(rng.choice(population))
        span = rng.choice(list(span_choices))
        span = min(span, num_layers)
        start = rng.randint(0, num_layers - span)
        layers = list(range(start, start + span))
        specs.append((sorted(members), layers, p_in))
        used.extend(sorted(members))
        if plant_complexes and size >= 8:
            complex_size = rng.randint(3, 6)
            complex_members = rng.sample(sorted(members), complex_size)
            complex_specs.append(frozenset(complex_members))
    background = min(1.0, background_degree / max(1, num_vertices - 1))
    graph, planted = planted_communities(
        num_vertices, num_layers, specs,
        background=background, seed=rng, name=name,
    )
    return Dataset(
        name=name,
        graph=graph,
        communities=planted,
        complexes=complex_specs,
        params={
            "num_vertices": num_vertices,
            "num_layers": num_layers,
            "num_communities": num_communities,
            "size_range": size_range,
            "span_choices": tuple(span_choices),
            "p_in": p_in,
            "background_degree": background_degree,
            "overlap": overlap,
            "seed": seed,
        },
    )


def _assemble_csr(num_vertices, pairs):
    """One layer's CSR ``(indptr, indices)`` from directed vertex pairs.

    ``pairs`` is a flat ``array("i")`` of ``src, dst, src, dst, ...``
    entries (every undirected edge appears in both directions, possibly
    with duplicates — noise sampling redraws collide freely).  The
    output is the *sorted, deduplicated* adjacency: the distinct
    ``src * n + dst`` codes, then ``bincount`` + ``cumsum``.  The codes
    are deduplicated by the kernels' sort (or flag scan), not
    ``np.unique``, whose hashing path is most of a large build.
    """
    flat = _np.frombuffer(pairs, dtype=_np.int32).astype(_np.int64)
    codes = _distinct(flat[0::2] * num_vertices + flat[1::2],
                      num_vertices * num_vertices)
    src = (codes // num_vertices).astype(_np.int32)
    dst = (codes % num_vertices).astype(_np.int32)
    counts = _np.bincount(src, minlength=num_vertices)
    indptr = _np.zeros(num_vertices + 1, dtype=_np.int32)
    _np.cumsum(counts, out=indptr[1:])
    return indptr, dst


def synthetic_multilayer(num_vertices, num_layers=3, num_communities=8,
                         community_size=64, d=4, span=2, noise_degree=2.0,
                         seed=0, name="synthetic"):
    """A scalable planted-d-CC multilayer graph, built frozen.

    The proving ground for the peel kernels: unlike :func:`build_standin`
    (which builds a ``MultiLayerGraph`` and tops out around 10^4
    vertices), this generator assembles the CSR arrays of a
    :class:`~repro.graph.frozen.FrozenMultiLayerGraph` directly, one
    layer at a time, so a seeded million-vertex graph fits in a few
    hundred MB and never materialises a dict-of-sets intermediate.
    Labels are the identity ``range`` — no label table is ever built.

    Structure
    ---------
    * ``num_communities`` disjoint *circulant* communities occupy the
      low vertex ids in contiguous blocks of ``community_size``.  Inside
      its block every member is wired to the ``(d + 1) // 2`` nearest
      ring offsets in both directions, giving exact degree
      ``2 * ((d + 1) // 2) >= d`` — each community is a d-core of every
      layer it is planted on, by construction.
    * Community ``c`` is planted on the ``span`` contiguous layers
      starting at ``c % (num_layers - span + 1)``, so every span window
      receives communities and a search with ``s <= span`` finds each
      community coherent on its window.
    * Power-law-ish background noise: per layer,
      ``num_vertices * noise_degree / 2`` edges with one endpoint drawn
      as ``int(n * u**2)`` (quadratically biased toward low ids — hubs)
      and the other uniform, from the seeded pure-Python RNG.

    Returns a :class:`Dataset` whose ``graph`` is already frozen and
    whose ``communities`` are the planted member frozensets.
    """
    if num_layers < 1:
        raise ParameterError("num_layers must be positive")
    if not 1 <= span <= num_layers:
        raise ParameterError(
            "span must be in [1, num_layers], got {}".format(span)
        )
    if d < 1:
        raise ParameterError("d must be positive")
    if community_size < d + 2:
        raise ParameterError(
            "community_size must be at least d + 2 (= {}) so the "
            "circulant ring has {} distinct offsets".format(
                d + 2, (d + 1) // 2
            )
        )
    if num_communities * community_size > num_vertices:
        raise ParameterError("communities cannot overfill the graph")
    rng = make_rng(seed)
    half = (d + 1) // 2
    windows = num_layers - span + 1
    communities = [
        frozenset(range(c * community_size, (c + 1) * community_size))
        for c in range(num_communities)
    ]
    noise_per_layer = int(num_vertices * noise_degree / 2)
    # Noise is drawn once, layer by layer, *before* assembly so the
    # stream of RNG draws is independent of how each layer's CSR gets
    # built.  Each draw rejects self-loops and redraws; duplicates are
    # left for assembly-time dedup.
    indptr = []
    indices = []
    edge_counts = []
    layer_masks = [0] * num_vertices
    for layer in range(num_layers):
        pairs = array("i")
        bit = 1 << layer
        for c in range(num_communities):
            start = c % windows
            if not start <= layer < start + span:
                continue
            base = c * community_size
            for offset in range(community_size):
                v = base + offset
                layer_masks[v] |= bit
                for step in range(1, half + 1):
                    pairs.append(v)
                    pairs.append(base + (offset + step) % community_size)
                    pairs.append(v)
                    pairs.append(base + (offset - step) % community_size)
        for _ in range(noise_per_layer):
            u = int(num_vertices * rng.random() ** 2)
            v = int(num_vertices * rng.random())
            if u == v:
                continue
            layer_masks[u] |= bit
            layer_masks[v] |= bit
            pairs.extend((u, v, v, u))
        ptr, idx = _assemble_csr(num_vertices, pairs)
        del pairs
        indptr.append(ptr)
        indices.append(idx)
        edge_counts.append(len(idx) // 2)
    from repro.graph.frozen import FrozenMultiLayerGraph

    graph = FrozenMultiLayerGraph(
        range(num_vertices), indptr, indices, edge_counts, layer_masks,
        name=name,
    )
    return Dataset(
        name=name,
        graph=graph,
        communities=communities,
        params={
            "num_vertices": num_vertices,
            "num_layers": num_layers,
            "num_communities": num_communities,
            "community_size": community_size,
            "d": d,
            "span": span,
            "noise_degree": noise_degree,
            "seed": seed,
        },
    )
