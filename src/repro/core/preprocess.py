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

The vertex-deletion fixed point runs on a frozen graph's
:class:`~repro.core.maintain.ArrayCoreMaintainer`, in whole batches of
numpy masks.  It only asks the maintainer for the vertices below the
support threshold and for the final state.  That state stays in the
maintainer's arrays (:attr:`PreprocessResult.masks`), which the Lemma 1
bounds, InitTopK and the peels consume directly; the sets and dict of
:class:`PreprocessResult` are built only for the consumers that read
them.

The first round removes every vertex that lies in no layer's d-core,
whatever ``s`` is.  The sequential searches therefore ask for the fixed
point on the graph's d-core union
(:meth:`~repro.graph.frozen.FrozenMultiLayerGraph.core_union`), which
the graph keeps per ``d``, and run their whole search in it
(:attr:`PreprocessResult.graph`).  Deletion there charges the vertices
the union leaves out exactly as a full-graph run would: they count as
deleted, in a first round of their own when nothing else goes.

That fixed point depends only on the graph, ``d`` and ``s``, so the
frozen graph keeps it too, per ``(d, s)``
(:meth:`~repro.graph.frozen.LayerCoreMemo.fixed_point`): a
:class:`KeptFixedPoint` of the read-only masks, ``deleted``, ``rounds``
and the counters its build charged.  Every later call returns a fresh
:class:`PreprocessResult` over the kept masks and charges the same
counters again, so answers and ``SearchStats`` equal a run that
recomputes it.  The No-VD ablation, ``exact_dccs`` and the engine path
ask for the fixed point on the graph itself, which is never kept.
"""

from functools import cached_property
import threading

from repro.core.maintain import ArrayCoreMaintainer
from repro.core.stats import SearchStats
from repro.graph.backend import require_frozen
from repro.graph.frozen import count_once
from repro.graph.kernels import vertex_count
from repro.utils.errors import ParameterError, check_degree


class PreprocessResult:
    """Outcome of the vertex-deletion fixed point.

    Attributes
    ----------
    graph:
        The frozen graph the masks index: the graph deletion ran for,
        or its d-core union.
    alive:
        Vertices surviving deletion (all have ``Num(v) >= s``).
    cores:
        Per-layer d-cores **within** ``alive`` (``cores[i] ⊆ alive``).
    support:
        ``Num(v)`` — for each surviving vertex, the number of layers whose
        d-core contains it.
    masks:
        The same state as arrays: a
        :class:`~repro.core.maintain.CoreMasks` of the alive mask, the
        per-layer core masks and the support vector (read-only).  Each
        of ``alive``, ``cores`` and ``support`` is built from them on its
        first read, once.
    deleted:
        Number of vertices removed, those outside the union included.
    rounds:
        Number of recomputation rounds until the fixed point, as a run
        on the full graph counts them.
    kept:
        The :class:`KeptFixedPoint` whose masks this result reads, when
        the frozen graph keeps the fixed point; ``None`` otherwise.
    """

    def __init__(self, graph, masks, deleted=0, rounds=0, kept=None):
        self.graph = graph
        self.masks = masks
        self.deleted = deleted
        self.rounds = rounds
        self.kept = kept

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
        """``(cores, alive)`` as the masks the kernels compute on.

        The pair feeds :func:`~repro.core.dcc.enumerate_candidates`,
        :func:`~repro.core.initk.init_topk`, ``coherent_core``'s
        ``within`` and the top-down search alike.
        """
        return self.masks.cores, self.masks.alive


def compute_support(cores):
    """``Num(v)`` for every vertex appearing in at least one core."""
    support = {}
    for core in cores:
        for vertex in core:
            support[vertex] = support.get(vertex, 0) + 1
    return support


def vertex_deletion(graph, d, s, enabled=True, stats=None, on_union=False):
    """Run the vertex-deletion fixed point (lines 1–7 of BU-DCCS, Fig. 7).

    With ``enabled=False`` (the No-VD ablation) the cores are computed once
    on the full graph and nothing is deleted; the returned ``support`` is
    still correct for the full graph so the top-down index stays valid.

    ``graph`` is frozen.  The fixed point starts from each layer's
    full-graph d-core, which the graph peels once per ``d`` and then
    keeps (see :class:`~repro.graph.frozen.LayerCoreMemo`); every call
    charges the same counters either way.

    With ``on_union=True`` and deletion enabled, the fixed point runs on
    ``graph.core_union(d)``, and the result's masks index that graph
    (:attr:`PreprocessResult.graph`).  The ``n - |union|`` vertices it
    leaves out have no support, so a full-graph run deletes them in its
    first round: they are added to ``deleted`` and
    ``stats.vertices_deleted``, and ``rounds`` is at least 2 when there
    are any.  Every other counter moves as on the full graph, since
    each layer's d-core lies inside the union.  The graph keeps this
    fixed point per ``(d, s)``: the first call builds it, and every call
    returns a new result over its masks (:attr:`PreprocessResult.kept`)
    and adds the counters the build charged to ``stats``.
    """
    require_frozen(graph)
    if s < 1 or s > graph.num_layers:
        raise ParameterError(
            "s must be in [1, {}], got {}".format(graph.num_layers, s)
        )
    # Before the memo: a bool or float d must not hit an int d's entry.
    check_degree(d)
    if not (enabled and on_union):
        return _fixed_point(graph, graph, d, s, enabled, stats)
    kept = graph.core_memo.fixed_point(
        d, s, lambda: _build_kept_fixed_point(graph, d, s))
    if stats is not None:
        stats.merge(kept.charged)
    return PreprocessResult(graph.core_union(d), kept.masks,
                            deleted=kept.deleted, rounds=kept.rounds,
                            kept=kept)


def _fixed_point(graph, searched, d, s, enabled, stats):
    """The fixed point on ``searched``, ``graph`` or its d-core union."""
    maintainer = ArrayCoreMaintainer(searched, d, stats=stats)
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
    outside = graph.num_vertices - searched.num_vertices
    if outside:
        deleted += outside
        rounds = max(rounds, 2)
        if stats is not None:
            stats.vertices_deleted += outside
    masks = maintainer.masks
    # Preps are shared (the engine caches them): nobody may write.
    for array in (masks.alive, masks.support, *masks.cores):
        array.flags.writeable = False
    return PreprocessResult(searched, masks, deleted=deleted, rounds=rounds)


def _build_kept_fixed_point(graph, d, s):
    """The fixed point on ``graph.core_union(d)``, as the graph keeps it."""
    charged = SearchStats()
    prep = _fixed_point(graph, graph.core_union(d), d, s, True, charged)
    return KeptFixedPoint(prep.masks, prep.deleted, prep.rounds, charged)


# Guards the one-time store of a kept fixed point's survivor space.
_SURVIVORS_LOCK = threading.Lock()


class KeptFixedPoint:
    """A ``(d, s)``'s vertex-deletion fixed point as a frozen graph keeps it.

    Attributes
    ----------
    masks:
        The read-only :class:`~repro.core.maintain.CoreMasks` over the
        graph's ``core_union(d)``.
    deleted, rounds:
        As in :class:`PreprocessResult`.
    charged:
        The :class:`~repro.core.stats.SearchStats` its build charged
        (``dcc_calls``, one per layer, and ``vertices_deleted``); every
        result over it adds them to the caller's counters.
    survivors:
        Top-down's search space after deletion, ``(graph, cores,
        alive)`` over the survivor subgraph, or ``None`` until
        :meth:`survivor_space` first builds it.
    """

    __slots__ = ("masks", "deleted", "rounds", "charged", "survivors")

    def __init__(self, masks, deleted, rounds, charged):
        self.masks = masks
        self.deleted = deleted
        self.rounds = rounds
        self.charged = charged
        self.survivors = None

    def survivor_space(self, build):
        """The kept survivor space; ``build()`` makes it on first use.

        Threads that build it at once race harmlessly: the first space
        stored is the one every caller gets.
        """
        if self.survivors is None:
            space = build()
            with _SURVIVORS_LOCK:
                if self.survivors is None:
                    self.survivors = space
        return self.survivors

    def memory_bytes(self, seen):
        """The bytes of the masks and of the survivor space, counting
        only the arrays not yet in ``seen`` (see
        :func:`~repro.graph.frozen.count_once`)."""
        masks = self.masks
        total = count_once((masks.alive, masks.support, *masks.cores), seen)
        if self.survivors is not None:
            survivors, cores, alive = self.survivors
            total += survivors.memory_bytes(seen) + count_once(
                (*cores, alive), seen)
        return total


def order_layers(cores, descending=True, enabled=True):
    """Layer ids sorted by d-core size (Section IV-C / Section V-D).

    The bottom-up algorithm prefers big-core layers first
    (``descending=True``); the top-down algorithm removes layers from the
    tail of the order, so it sorts ascending to shed small-core layers
    first.  With ``enabled=False`` (the No-SL ablation) the natural order
    is returned.  ``cores`` are vertex masks or sets.
    """
    layer_ids = list(range(len(cores)))
    if not enabled:
        return layer_ids
    layer_ids.sort(key=lambda layer: vertex_count(cores[layer]),
                   reverse=descending)
    return layer_ids
