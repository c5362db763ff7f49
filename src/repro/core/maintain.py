"""Incremental maintenance of per-layer d-cores under vertex deletion.

Both the vertex-deletion preprocessing (Fig. 7, lines 1–7) and the
hierarchical index construction (Section V-C) repeatedly delete vertex
batches and need the d-core of every layer of the *remaining* graph.
Recomputing each core from scratch per round costs
``O(rounds · l · (n + m))``; because d-cores only ever shrink under
deletion, cascade peeling from the deleted vertices gives the same result
— peeling is confluent, so the order of removals does not matter — for a
total of ``O(l (n + m))`` over the whole deletion sequence.

A maintainer owns the per-layer cores, their within-core degrees and the
support counters ``Num(v)`` (the number of layers whose core contains
``v``).  Two implementations share one interface — :meth:`below`,
:meth:`labels_of`, :meth:`remove`, :meth:`snapshot` and ``len()`` — so
their callers never touch the representation:

* :class:`MultiLayerCoreMaintainer` keeps Python sets and dicts and
  speaks only the backend protocol.  It serves the dict backend and is
  the reference the array form is tested against.
* :class:`ArrayCoreMaintainer` keeps an alive mask, one core mask and
  one within-core degree vector per layer, and an int support vector.
  A removal is one whole-frontier cascade per layer through the numpy
  kernels' row gather and degree scatter (:mod:`repro.graph.kernels`).
  Over the whole graph, each layer's initial core comes from the
  kernels' direction-optimising peel, which recounts the survivors
  instead while the frontier's rows outweigh theirs.
  Its :attr:`~ArrayCoreMaintainer.masks` hand the final state on as
  arrays; the set maintainer's ``masks`` is ``None``.

:func:`core_maintainer` picks the array form exactly when the graph is
frozen.  Both reach the same unique fixed points and charge the same
``dcc_calls``.
"""

from collections import namedtuple

import numpy as np

from repro.core.dcore import layer_core
from repro.graph.kernels import (
    _below_threshold,
    _full_layer_core,
    _induced_degree_arrays,
    _member_state,
    _peel_rounds,
    bit_rows,
)
from repro.utils.errors import check_degree


def core_maintainer(graph, d, within=None, stats=None, seed_cores=None):
    """The maintainer for ``graph``'s backend."""
    if graph.is_frozen:
        return ArrayCoreMaintainer(graph, d, within=within, stats=stats,
                                   seed_cores=seed_cores)
    return MultiLayerCoreMaintainer(graph, d, within=within, stats=stats,
                                    seed_cores=seed_cores)


class CoreMasks(namedtuple("CoreMasks", "alive cores support")):
    """An array maintainer's state: the alive mask, a list of per-layer
    core masks and the int support vector, each of length ``n``.

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


def _check_state(graph, d, alive, cores, support):
    """Compare a maintainer's snapshot with cores recomputed from scratch."""
    for layer in graph.layers():
        expected = layer_core(graph, layer, d, within=alive)
        if expected != cores[layer]:
            raise AssertionError(
                "layer {} core drifted: {} vs {}".format(
                    layer, sorted(cores[layer]), sorted(expected)
                )
            )
    for vertex in alive:
        true_support = sum(1 for core in cores if vertex in core)
        if support.get(vertex, 0) != true_support:
            raise AssertionError(
                "support[{!r}] = {} but should be {}".format(
                    vertex, support.get(vertex), true_support
                )
            )
    return True


class MultiLayerCoreMaintainer:
    """Per-layer d-cores and support counts under batched vertex deletion.

    Parameters
    ----------
    graph:
        The multi-layer graph (never mutated).
    d:
        The degree threshold.
    within:
        Optional initial vertex restriction.
    stats:
        Optional :class:`~repro.core.stats.SearchStats`; each initial
        layer core is charged to ``dcc_calls``.
    seed_cores:
        Optional ``{layer: full-graph d-core}``; seeded layers are not
        re-peeled.

    Attributes
    ----------
    alive:
        The current vertex set (shrinks via :meth:`remove`).
    cores:
        ``cores[i]`` — the current d-core of layer ``i`` within ``alive``.
    support:
        ``Num(v)`` for every alive vertex (0 when in no core).
    """

    # The state lives in sets; there is no mask form to hand on.
    masks = None

    def __init__(self, graph, d, within=None, stats=None, seed_cores=None):
        self.graph = graph
        self.d = check_degree(d)
        if within is None:
            self.alive = graph.vertices()
        else:
            self.alive = {v for v in within if graph.has_vertex(v)}
        self.cores = []
        self._degrees = []
        for layer in graph.layers():
            if seed_cores is not None and seed_cores.get(layer) is not None:
                # Precomputed elsewhere (the engine's selective artifact
                # cache keeps per-layer cores across deltas that do not
                # touch the layer).  The stats charge stays identical to
                # the computing path so cached and uncached runs report
                # bitwise-equal counters.
                core = set(seed_cores[layer])
            else:
                core = layer_core(graph, layer, d,
                                  within=None if within is None
                                  else self.alive)
            if stats is not None:
                stats.dcc_calls += 1
            self.cores.append(core)
            self._degrees.append(graph.induced_degrees(layer, core))
        self.support = {v: 0 for v in self.alive}
        for core in self.cores:
            for vertex in core:
                self.support[vertex] += 1

    def __len__(self):
        """The number of alive vertices."""
        return len(self.alive)

    def below(self, threshold):
        """The alive vertices whose support is below ``threshold``."""
        support = self.support
        return [v for v in self.alive if support.get(v, 0) < threshold]

    def layers_containing(self, vertex):
        """The label ``L(v)``: layers whose current d-core contains ``v``."""
        return frozenset(
            layer for layer, core in enumerate(self.cores) if vertex in core
        )

    def labels_of(self, batch):
        """``{v: L(v)}`` for the vertices of ``batch``, in batch order."""
        return {vertex: self.layers_containing(vertex) for vertex in batch}

    def snapshot(self):
        """``(alive, cores, support)`` as a set, a list of sets and a dict.

        These are the maintainer's own containers, not copies.
        """
        return self.alive, self.cores, self.support

    def remove(self, vertices):
        """Delete ``vertices`` from the graph view; cascade all cores.

        Each deleted vertex leaves ``alive`` and every core containing it;
        neighbours whose within-core degree drops below ``d`` are peeled
        out of that core (not out of ``alive``), decrementing their
        support.  Degenerate input (already-dead vertices) is ignored.
        """
        doomed = [v for v in vertices if v in self.alive]
        for vertex in doomed:
            self.alive.discard(vertex)
            self.support.pop(vertex, None)
        for layer, core in enumerate(self.cores):
            # One protocol row accessor per layer instead of a checked
            # neighbors() call per queue pop.
            row = self.graph.neighbor_row(layer)
            degrees = self._degrees[layer]
            queue = []
            for vertex in doomed:
                if vertex in core:
                    core.discard(vertex)
                    degrees.pop(vertex, None)
                    queue.extend(u for u in row(vertex) if u in core)
            # Cascade peel: decrement each affected neighbour once per
            # removed edge; vertices falling below d leave this core only.
            head = 0
            while head < len(queue):
                u = queue[head]
                head += 1
                if u not in core:
                    continue
                degrees[u] -= 1
                if degrees[u] < self.d:
                    core.discard(u)
                    degrees.pop(u, None)
                    self.support[u] -= 1
                    queue.extend(w for w in row(u) if w in core)
        return doomed

    def check_consistency(self):
        """Recompute cores/support from scratch and compare (test hook)."""
        return _check_state(self.graph, self.d, *self.snapshot())


class ArrayCoreMaintainer:
    """The maintainer over a frozen graph's CSR arrays.

    Same constructor, interface and fixed points as
    :class:`MultiLayerCoreMaintainer`.  Batches travel as sorted int64
    id arrays: :meth:`below` returns one, and :meth:`labels_of` and
    :meth:`remove` take one as it is.  Sets and dicts appear only in
    :meth:`snapshot` and :meth:`labels_of`; :attr:`masks` exposes the
    arrays themselves.
    """

    def __init__(self, graph, d, within=None, stats=None, seed_cores=None):
        self.graph = graph
        self.d = check_degree(d)
        n = graph.num_vertices
        self._alive, members = _member_state(graph, within)
        self._cores = []
        self._degrees = []
        self._support = np.zeros(n, dtype=np.int64)
        for layer in graph.layers():
            seed = None if seed_cores is None else seed_cores.get(layer)
            if seed is not None:
                core = np.zeros(n, dtype=np.bool_)
                core[np.fromiter(seed, dtype=np.int64, count=len(seed))] = True
                degrees = self._core_degrees(layer, core)
            else:
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

    def _core_degrees(self, layer, core):
        """Each core vertex's degree inside ``core`` on ``layer``."""
        (degrees,) = _induced_degree_arrays(
            self.graph, (layer,), core, np.flatnonzero(core), full=False
        )
        return degrees

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

    def check_consistency(self):
        """Recompute cores, support and core degrees; compare (test hook)."""
        _check_state(self.graph, self.d, *self.snapshot())
        for layer, (core, degrees) in enumerate(zip(self._cores,
                                                    self._degrees)):
            members = np.flatnonzero(core)
            expected = self._core_degrees(layer, core)
            if not np.array_equal(degrees[members], expected[members]):
                raise AssertionError(
                    "layer {} core degrees drifted".format(layer)
                )
        return True
