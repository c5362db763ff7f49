"""Refinement of potential vertex sets and d-CCs (Sections V-B and V-C).

``refine_potential`` is the RefineU procedure (Fig. 9): it shrinks the
potential set ``U_L`` of a node of the top-down search tree to the
potential set ``U_{L'}`` of a child, alternating two sound filters until a
fixed point:

* **Method 1** — every Class-1 layer (a layer that can no longer be
  removed on the way down to level ``s``) must keep every vertex at degree
  ``>= d`` inside ``U``; this is exactly a coherent-core peel on those
  layers;
* **Method 2** — every surviving vertex must belong to the d-cores of at
  least ``s − |Class 1|`` of the Class-2 layers: a count, per vertex, of
  the free layers' cores that contain it.

Potential sets are vertex masks over a frozen graph.

``refine_core`` plays the role of RefineC (Fig. 10): it computes the exact
``C^d_{L'}`` inside a potential set.  It applies the index filters of
Lemmas 8 and 9 (scope + level-monotone reachability — see
:meth:`CoreHierarchyIndex.reachable_scope`) and finishes with a linear
cascade peel.  **Deviation from the literal pseudocode:** Fig. 10's Case 2
discards every still-unexplored vertex on a mixed level, but such a vertex
can itself satisfy ``L' ⊆ L(v)`` and be a legitimate chain start (the
length-0 chain of Lemma 9), so the literal reading can discard true d-CC
members.  Our variant keeps exactly the vertices Lemmas 8 and 9 allow and
lets the final peel do the degree-based discarding that CascadeD performs
incrementally; the asymptotic cost is the same ``O(n'l' + m')``
(Lemma 10), and the property-based tests pin the output to the plain dCC
procedure.
"""

import numpy as np

from repro.core.dcc import coherent_core, kept_coherent_core
from repro.graph.backend import require_frozen


def split_layer_classes(positions, num_positions):
    """Split ``positions`` (a node of the TD tree) into Class 1 / Class 2.

    ``positions`` is the set of search positions still present in the node
    label ``L``.  Position ``p`` is Class 1 ("locked": never removable in
    any descendant) when ``p < max(missing positions)``; otherwise Class 2
    ("free").  At the root (nothing missing) every position is Class 2.
    """
    missing_max = -1
    member = set(positions)
    for position in range(num_positions):
        if position not in member:
            missing_max = position
    locked = {p for p in member if p < missing_max}
    free = member - locked
    return locked, free


def refine_potential(graph, d, s, potential, positions, order, cores,
                     stats=None):
    """RefineU (Fig. 9): shrink a parent's potential set for child ``L'``.

    Parameters
    ----------
    graph:
        The frozen graph.
    potential:
        ``U_L`` of the parent node, a vertex mask.  Never modified.
    positions:
        The child's layer-position set ``L'``.
    order:
        Position-to-layer mapping from the layer sorting preprocessing.
    cores:
        Global per-layer d-core masks (within the preprocessed alive set).
    """
    require_frozen(graph)
    locked, free = split_layer_classes(positions, len(order))
    locked_layers = tuple(sorted(order[p] for p in locked))
    free_layers = [order[p] for p in free]
    needed = s - len(locked)
    if not potential.any():
        return potential
    current = potential
    if needed > 0:
        # Method 2 first: free-layer core membership is static, so one
        # pass suffices and shrinks the set Method 1 has to peel.  A
        # vertex stays if at least `needed` free layers' cores hold it;
        # int32 counts cannot overflow at any layer count.
        held = np.zeros(potential.size, dtype=np.int32)
        for layer in free_layers:
            held += cores[layer]
        current = current & (held >= needed)
    # Method 1 as a single cascade peel on the locked layers.  The two
    # methods commute to the same fixed point because Method 2's test does
    # not depend on the surviving set, so re-running it after the peel
    # would remove nothing new.
    if locked_layers and current.any():
        core = coherent_core(graph, locked_layers, d, within=current,
                             stats=stats)
        current = np.zeros(potential.size, dtype=np.bool_)
        current[np.fromiter(core, dtype=np.int64, count=len(core))] = True
    return current


def refine_core(graph, d, positions, potential, order, index, stats=None):
    """Compute the exact ``C^d_{L'}`` inside ``potential`` using the index.

    Steps: Lemma 8 scope cut, Lemma 9 reachability cut, then an exact
    cascade peel (the degree/CascadeD part of Fig. 10) on the survivors.
    ``graph`` is frozen, ``potential`` a vertex mask, and the result a
    frozenset.  ``index=None`` falls back to the plain dCC procedure —
    the ``No-Index`` variant of
    :func:`repro.experiments.ablation.pruning_ablation`.

    ``potential`` is a potential set ``U_{L'}`` of the top-down search,
    which holds ``C^d_{L'}`` of the whole graph, and both cuts keep it,
    so the result is that d-CC (``tests/test_topdown.py`` pins it) and
    the graph keeps it (:func:`~repro.core.dcc.kept_coherent_core`).
    """
    require_frozen(graph)
    layers = tuple(sorted(order[p] for p in positions))
    zone = potential if index is None else \
        index.reachable_scope(layers, potential)
    return kept_coherent_core(graph, layers, d, zone, stats=stats)
