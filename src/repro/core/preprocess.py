"""Preprocessing shared by all DCCS algorithms (Section IV-C).

Three methods, each individually switchable so the Fig. 28 ablation can
disable them one at a time:

* **vertex deletion** — iteratively drop every vertex contained in the
  d-core of fewer than ``s`` layers (its support ``Num(v)`` is below the
  threshold, so no size-``s`` d-CC can contain it), recomputing the cores
  until a fixed point;
* **sorting layers** — order layers by their d-core size (descending for
  the bottom-up search, ascending for the top-down search);
* **result initialisation** — seed the temporary top-k set greedily
  (:mod:`repro.core.initk`) so Eq. (1) pruning applies from the start.

The vertex-deletion fixed point runs on the maintainer that
:func:`~repro.core.maintain.core_maintainer` picks for the graph: whole
batches as numpy masks on a frozen graph, Python sets on the dict
backend.  It only asks the maintainer for the vertices below the
support threshold and for the final state.  On a frozen graph that
state stays in the maintainer's arrays (:attr:`PreprocessResult.masks`),
which the Lemma 1 bounds, InitTopK and the peels consume directly; the
sets and dict of :class:`PreprocessResult` are built only for the
consumers that read them.
"""

from functools import cached_property

from repro.core.maintain import core_maintainer
from repro.graph.kernels import vertex_count
from repro.utils.errors import ParameterError


class PreprocessResult:
    """Outcome of the vertex-deletion fixed point.

    Attributes
    ----------
    alive:
        Vertices surviving deletion (all have ``Num(v) >= s``).
    cores:
        Per-layer d-cores **within** ``alive`` (``cores[i] ⊆ alive``).
    support:
        ``Num(v)`` — for each surviving vertex, the number of layers whose
        d-core contains it.
    masks:
        On a frozen graph, the same state as arrays: a
        :class:`~repro.core.maintain.CoreMasks` of the alive mask, the
        per-layer core masks and the support vector (read-only);
        ``None`` elsewhere.  With masks, each of ``alive``, ``cores`` and
        ``support`` is built from them on its first read, once.
        Assigning one (the engine's artifact cache swaps in frozensets)
        replaces that view only, so it must keep describing the same
        vertices.
    deleted:
        Number of vertices removed.
    rounds:
        Number of recomputation rounds until the fixed point.
    """

    def __init__(self, alive=None, cores=None, support=None, deleted=0,
                 rounds=0, masks=None):
        self.masks = masks
        if masks is None:
            self.alive, self.cores, self.support = alive, cores, support
        self.deleted = deleted
        self.rounds = rounds

    @cached_property
    def alive(self):
        return self.masks.alive_set()

    @cached_property
    def cores(self):
        return self.masks.core_sets()

    @cached_property
    def support(self):
        return self.masks.support_dict()

    def kernel_view(self):
        """``(cores, alive)`` in the form the kernels compute on.

        The masks on a frozen graph, the sets on the dict backend;
        either pair feeds :func:`~repro.core.dcc.enumerate_candidates`,
        :func:`~repro.core.initk.init_topk`, ``coherent_core``'s
        ``within`` and the top-down search alike.
        """
        if self.masks is None:
            return self.cores, self.alive
        return self.masks.cores, self.masks.alive


def compute_support(cores):
    """``Num(v)`` for every vertex appearing in at least one core."""
    support = {}
    for core in cores:
        for vertex in core:
            support[vertex] = support.get(vertex, 0) + 1
    return support


def vertex_deletion(graph, d, s, enabled=True, stats=None, seed_cores=None):
    """Run the vertex-deletion fixed point (lines 1–7 of BU-DCCS, Fig. 7).

    With ``enabled=False`` (the No-VD ablation) the cores are computed once
    on the full graph and nothing is deleted; the returned ``support`` is
    still correct for the full graph so the top-down index stays valid.

    ``seed_cores`` optionally maps layer ids to precomputed *full-graph*
    d-cores of those layers (the engine's artifact cache keeps them
    across deltas that do not touch a layer); missing layers are
    computed as usual.  Seeding changes no result and no counter.
    """
    if s < 1 or s > graph.num_layers:
        raise ParameterError(
            "s must be in [1, {}], got {}".format(graph.num_layers, s)
        )
    maintainer = core_maintainer(graph, d, stats=stats,
                                 seed_cores=seed_cores)
    deleted = rounds = 0
    while enabled:
        rounds += 1
        doomed = maintainer.below(s)
        if not len(doomed):
            break
        maintainer.remove(doomed)
        deleted += len(doomed)
        if stats is not None:
            stats.vertices_deleted += len(doomed)
    masks = maintainer.masks
    if masks is None:
        alive, cores, support = maintainer.snapshot()
        return PreprocessResult(alive=alive, cores=cores, support=support,
                                deleted=deleted, rounds=rounds)
    # Preps are shared (the engine caches them): nobody may write.
    for array in (masks.alive, masks.support, *masks.cores):
        array.flags.writeable = False
    return PreprocessResult(masks=masks, deleted=deleted, rounds=rounds)


def order_layers(cores, descending=True, enabled=True):
    """Layer ids sorted by d-core size (Section IV-C / Section V-D).

    The bottom-up algorithm prefers big-core layers first
    (``descending=True``); the top-down algorithm removes layers from the
    tail of the order, so it sorts ascending to shed small-core layers
    first.  With ``enabled=False`` (the No-SL ablation) the natural order
    is returned.  ``cores`` are sets or vertex masks.
    """
    layer_ids = list(range(len(cores)))
    if not enabled:
        return layer_ids
    layer_ids.sort(key=lambda layer: vertex_count(cores[layer]),
                   reverse=descending)
    return layer_ids
