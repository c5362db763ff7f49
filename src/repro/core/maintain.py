"""Incremental maintenance of per-layer d-cores under vertex deletion.

Both the vertex-deletion preprocessing (Fig. 7, lines 1–7) and the
hierarchical index construction (Section V-C) repeatedly delete vertex
batches and need the d-core of every layer of the *remaining* graph.
Recomputing each core from scratch per round costs
``O(rounds · l · (n + m))``; because d-cores only ever shrink under
deletion, cascade peeling from the deleted vertices gives the same result
— peeling is confluent, so the order of removals does not matter — for a
total of ``O(l (n + m))`` over the whole deletion sequence.

:class:`ArrayCoreMaintainer` owns the per-layer cores, their within-core
degrees and the support counters ``Num(v)`` (the number of layers whose
core contains ``v``) as arrays over a frozen graph: an alive mask, one
core mask and one within-core degree vector per layer, and an int
support vector.  A removal is one whole-frontier cascade per layer
through the numpy kernels' row gather and degree scatter
(:mod:`repro.graph.kernels`).  Over the whole graph, each layer's
initial core comes from the kernels' direction-optimising peel, which
recounts the survivors instead while the frontier's rows outweigh
theirs; the frozen graph keeps that core, so a later maintainer at the
same ``d`` starts from a copy of it.  Its
:attr:`~ArrayCoreMaintainer.masks` hand the final state on as arrays.
"""

from collections import namedtuple

import numpy as np

from repro.graph.backend import require_frozen
from repro.graph.kernels import (
    _below_threshold,
    _full_layer_core,
    _induced_degree_arrays,
    _member_state,
    _peel_rounds,
    bit_rows,
)
from repro.utils.errors import check_degree


class CoreMasks(namedtuple("CoreMasks", "alive cores support")):
    """A maintainer's state: the alive mask, a list of per-layer core
    masks and the int support vector, each of length ``n``.

    The three methods build the set forms of
    :meth:`ArrayCoreMaintainer.snapshot`, each from its own arrays.
    """

    __slots__ = ()

    def alive_set(self):
        return set(np.flatnonzero(self.alive).tolist())

    def core_sets(self):
        return [set(np.flatnonzero(core).tolist()) for core in self.cores]

    def support_dict(self):
        alive = np.flatnonzero(self.alive)
        return dict(zip(alive.tolist(), self.support[alive].tolist()))


class ArrayCoreMaintainer:
    """Per-layer d-cores and support counts under batched vertex deletion.

    Parameters
    ----------
    graph:
        The frozen graph (never mutated).
    d:
        The degree threshold.
    within:
        Optional initial vertex restriction: ids or a vertex mask.
    stats:
        Optional :class:`~repro.core.stats.SearchStats`; each initial
        layer core is charged to ``dcc_calls``.

    Batches travel as sorted int64 id arrays: :meth:`below` returns one,
    and :meth:`labels_of` and :meth:`remove` take one as it is.  Sets
    and dicts appear only in :meth:`snapshot` and :meth:`labels_of`;
    :attr:`masks` exposes the arrays themselves.
    """

    def __init__(self, graph, d, within=None, stats=None):
        self.graph = require_frozen(graph)
        self.d = check_degree(d)
        self._alive, members = _member_state(graph, within)
        self._cores = []
        self._degrees = []
        self._support = np.zeros(graph.num_vertices, dtype=np.int64)
        for layer in graph.layers():
            core, degrees = self._peel_layer(layer, members,
                                             full=within is None)
            if stats is not None:
                stats.dcc_calls += 1
            self._cores.append(core)
            self._degrees.append(degrees)
            self._support += core

    def _peel_layer(self, layer, members, full):
        """The layer's d-core mask within ``alive`` and its degrees."""
        if full:
            return _full_layer_core(self.graph, layer, self.d)
        core = self._alive.copy()
        degrees = _induced_degree_arrays(self.graph, (layer,), core,
                                         members, full=False)
        frontier = _below_threshold(members, degrees, self.d)
        _peel_rounds(self.graph, (layer,), self.d, core, frontier, degrees)
        return core, degrees[0]

    def __len__(self):
        """The number of alive vertices."""
        return int(np.count_nonzero(self._alive))

    def below(self, threshold):
        """The alive vertices whose support is below ``threshold``."""
        return np.flatnonzero(self._alive & (self._support < threshold))

    def labels_of(self, batch):
        """``{v: L(v)}`` for an id array from :meth:`below`, in its order."""
        masks = bit_rows([core[batch] for core in self._cores])
        layers = range(len(self._cores))
        names = {
            mask: frozenset(layer for layer in layers if mask >> layer & 1)
            for mask in set(masks)
        }
        return dict(zip(batch.tolist(), map(names.__getitem__, masks)))

    @property
    def masks(self):
        """The state as :class:`CoreMasks` of the maintainer's own arrays."""
        return CoreMasks(self._alive, self._cores, self._support)

    def snapshot(self):
        """``(alive, cores, support)`` materialised as a set, sets, a dict."""
        masks = self.masks
        return masks.alive_set(), masks.core_sets(), masks.support_dict()

    def remove(self, batch):
        """Delete the ids of ``batch``; cascade every core; the removed ids.

        ``batch`` is an id array as :meth:`below` returns: distinct
        in-range ids; dead ones are skipped.  Each layer runs one
        round-based cascade from the removed vertices in its core.  A
        vertex leaving a core loses one support there; the removed
        vertices' own support is never read again.
        """
        doomed = batch[self._alive[batch]]
        self._alive[doomed] = False
        for layer, (core, degrees) in enumerate(zip(self._cores,
                                                    self._degrees)):
            removed = []
            _peel_rounds(self.graph, (layer,), self.d, core,
                         doomed[core[doomed]], [degrees], removed)
            if removed:
                self._support[np.concatenate(removed)] -= 1
        return doomed
